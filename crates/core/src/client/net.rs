//! The simulated internet and the routing seam (§3.2 connection
//! hand-off): Location → endpoint, with per-link parameters and
//! optional adversary hooks applied to newly dialed connections.
//!
//! Owns [`SfsNetwork`] and the [`Router`] trait a replica group's
//! routing tier implements. Calls only into `server` (`accept`) and
//! `sfs_sim`; everything above dials through here, which is the single
//! seam the client's recovery machinery funnels through.

use std::collections::HashMap;
use std::sync::Arc;

use sfs_sim::{FaultPlan, Interceptor, NetParams, PacketLog, ServerLoad, SimClock, Wire};
use sfs_telemetry::sync::Mutex;
use sfs_telemetry::Telemetry;

use super::ClientError;
use crate::server::{RoConnection, ServerConn, SfsServer};

/// One routed read-write connection handed out by a [`Router`].
pub struct RoutedRw {
    /// The server-side connection to the chosen replica.
    pub conn: ServerConn,
    /// The chosen machine's contention tracker, attached to the client's
    /// wire so concurrent streams share that machine's resources.
    pub load: Option<ServerLoad>,
}

/// One routed read-only connection handed out by a [`Router`].
pub struct RoutedRo {
    /// The server-side connection to the chosen replica (a full server
    /// or a keyless one).
    pub conn: Box<dyn RoConnection>,
    /// The chosen machine's contention tracker.
    pub load: Option<ServerLoad>,
}

/// Outcome of a metered read-write routing decision.
pub enum RwRoute {
    /// A replica was chosen; proceed with the handshake.
    Routed(RoutedRw),
    /// The group is alive but admission control is metering reconnects;
    /// back off and redial.
    Busy,
    /// No live replica can take the connection.
    Unavailable,
}

/// A routing tier fronting a replica group for one `Location:HostID`.
///
/// The network consults it on every dial, which is the single seam the
/// client's recovery machinery already funnels through: a reconnect after
/// a crash redials, so the router can hand the session to a surviving
/// replica and the rekey makes the handoff invisible above the mount.
pub trait Router: Send + Sync {
    /// Picks a live read-write replica for a new connection.
    fn route_rw(&self) -> Option<RoutedRw>;
    /// Picks a replica able to serve the read-only dialect.
    fn route_ro(&self) -> Option<RoutedRo>;
    /// [`Self::route_rw`] with admission control surfaced: routers that
    /// meter cold-start stampedes return [`RwRoute::Busy`] instead of
    /// conflating "throttled" with "nobody home". The default adapter
    /// keeps plain routers working unchanged.
    fn route_rw_metered(&self) -> RwRoute {
        match self.route_rw() {
            Some(r) => RwRoute::Routed(r),
            None => RwRoute::Unavailable,
        }
    }
}

/// What a Location resolves to: a single machine, or a routing tier
/// fronting many.
#[derive(Clone)]
enum Endpoint {
    Server(Arc<SfsServer>),
    Relay(Arc<dyn Router>),
}

/// The simulated internet: Location → endpoint, with per-link parameters
/// and optional adversary hooks (applied to newly dialed connections).
pub struct SfsNetwork {
    clock: SimClock,
    params: NetParams,
    servers: Mutex<HashMap<String, Endpoint>>,
    interceptor: Mutex<Option<Arc<Mutex<dyn Interceptor>>>>,
    fault: Mutex<Option<FaultPlan>>,
    log: Mutex<Option<PacketLog>>,
    tel: Mutex<Telemetry>,
}

impl SfsNetwork {
    /// Creates a network.
    pub fn new(clock: SimClock, params: NetParams) -> Arc<Self> {
        Arc::new(SfsNetwork {
            clock,
            params,
            servers: Mutex::new(HashMap::new()),
            interceptor: Mutex::new(None),
            fault: Mutex::new(None),
            log: Mutex::new(None),
            tel: Mutex::new(Telemetry::disabled()),
        })
    }

    /// Attaches a tracing sink to all future connections (the wire layer
    /// of every subsequently dialed mount reports into it).
    pub fn set_telemetry(&self, tel: &Telemetry) {
        *self.tel.lock() = tel.clone();
    }

    /// Registers a server under its Location.
    pub fn register(&self, server: Arc<SfsServer>) {
        self.servers
            .lock()
            .insert(server.path().location.clone(), Endpoint::Server(server));
    }

    /// Registers a routing tier under a Location: dials resolve through
    /// the router instead of a fixed machine.
    pub fn register_relay(&self, location: &str, router: Arc<dyn Router>) {
        self.servers
            .lock()
            .insert(location.to_string(), Endpoint::Relay(router));
    }

    /// Looks up the server at `location` (single-machine endpoints only;
    /// a relayed Location has no one server to return).
    pub fn server_at(&self, location: &str) -> Option<Arc<SfsServer>> {
        match self.servers.lock().get(location) {
            Some(Endpoint::Server(s)) => Some(s.clone()),
            _ => None,
        }
    }

    /// Attaches an adversary to all future connections.
    pub fn set_interceptor(&self, i: Arc<Mutex<dyn Interceptor>>) {
        *self.interceptor.lock() = Some(i);
    }

    /// Attaches a seeded fault plan to all future connections.
    pub fn set_fault_plan(&self, plan: FaultPlan) {
        *self.fault.lock() = Some(plan);
    }

    /// Attaches a packet recorder to all future connections.
    pub fn set_log(&self, log: PacketLog) {
        *self.log.lock() = Some(log);
    }

    /// A fresh wire carrying this network's adversary hooks and sink,
    /// attached to the routed machine's contention tracker if it has one.
    fn fresh_wire(&self, load: Option<ServerLoad>) -> Wire {
        let mut wire = Wire::new(self.clock.clone(), self.params);
        if let Some(load) = load {
            wire.set_server_load(load);
        }
        if let Some(i) = &*self.interceptor.lock() {
            wire.set_interceptor(i.clone());
        }
        if let Some(f) = &*self.fault.lock() {
            wire.set_fault_plan(f.clone());
        }
        if let Some(l) = &*self.log.lock() {
            wire.set_log(l.clone());
        }
        wire.set_telemetry(&self.tel.lock().clone());
        wire
    }

    /// Dials a location: a fresh wire plus a fresh server-side connection.
    /// Behind a relay, each dial is routed anew — which is exactly how a
    /// reconnecting client lands on a surviving replica. The error says
    /// *why* a dial yielded no connection: an unknown/empty Location is
    /// [`ClientError::NoSuchHost`] (fatal to the caller's retry loop),
    /// while a router metering a reconnect storm is [`ClientError::Busy`]
    /// (retried with backoff).
    pub fn dial_checked(&self, location: &str) -> Result<(Wire, ServerConn), ClientError> {
        let endpoint = self
            .servers
            .lock()
            .get(location)
            .cloned()
            .ok_or_else(|| ClientError::NoSuchHost(location.to_string()))?;
        let (conn, load) = match endpoint {
            Endpoint::Server(s) => (s.accept(), None),
            Endpoint::Relay(r) => match r.route_rw_metered() {
                RwRoute::Routed(routed) => (routed.conn, routed.load),
                RwRoute::Busy => return Err(ClientError::Busy),
                RwRoute::Unavailable => return Err(ClientError::NoSuchHost(location.to_string())),
            },
        };
        Ok((self.fresh_wire(load), conn))
    }

    /// Dials a location for the read-only dialect. Behind a relay this
    /// reaches the keyless replica fleet; a single-machine endpoint
    /// serves the dialect itself.
    pub fn dial_ro(&self, location: &str) -> Option<(Wire, Box<dyn RoConnection>)> {
        let endpoint = self.servers.lock().get(location).cloned()?;
        let (conn, load): (Box<dyn RoConnection>, Option<ServerLoad>) = match endpoint {
            Endpoint::Server(s) => (Box::new(s.accept()), None),
            Endpoint::Relay(r) => {
                let routed = r.route_ro()?;
                (routed.conn, routed.load)
            }
        };
        Some((self.fresh_wire(load), conn))
    }

    /// The shared clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }
}

impl std::fmt::Debug for SfsNetwork {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SfsNetwork({} servers)", self.servers.lock().len())
    }
}
