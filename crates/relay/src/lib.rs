//! The relay realm: a routing tier fronting a replica group for one
//! `Location:HostID`.
//!
//! Self-certifying pathnames (§2) bind a Location to a *key*, not a
//! machine: `HostID = SHA-1("HostInfo", Location, PublicKey, ...)`. Any
//! machine that can complete the protocol for that key is a legitimate
//! server for the pathname, which makes replica groups a natural fit —
//! nothing in the client has to know how many machines stand behind a
//! mount. A [`ReplicaGroup`] exploits exactly that:
//!
//! * **Read-write replicas** share the group's private key and exported
//!   file system (one logical server, many frontends; a replicated
//!   storage layer below them is out of scope here). New connections are
//!   load-balanced round-robin over the live ones, and each dial attaches
//!   the chosen machine's [`sfs_sim::ServerLoad`] so contention is
//!   per-machine, not per-group.
//! * **Read-only replicas** (§2.4) hold no key at all — just the signed
//!   distribution bundle — so the read fan-out tier can run on untrusted
//!   machines.
//! * **Health** is tracked through boot epochs: a crashed-and-restarted
//!   replica bumps its epoch, which both rejects the dead instance's
//!   sessions (forcing the client's transparent reconnect) and shows up
//!   in [`ReplicaGroup::health_check`]. The reconnect redials through the
//!   router, which is the entire handoff mechanism: the surviving replica
//!   is picked, the rekey runs, and the mount above never notices.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use sfs::client::{RoutedRo, RoutedRw, Router};
use sfs::server::{RoReplicaServer, SfsServer};
use sfs_proto::pathname::SelfCertifyingPath;
use sfs_telemetry::sync::Mutex;
use sfs_telemetry::Telemetry;

mod repl;

pub use repl::{AdmissionControl, ReplGroup};

/// One read-write replica and what the relay knows about it.
struct RwSlot {
    server: Arc<SfsServer>,
    /// Boot epoch observed at the last health check.
    last_epoch: AtomicU64,
    /// Administratively removed from rotation (the relay's own view; a
    /// crashed server needs no marking — its epoch does the work).
    down: AtomicBool,
    /// The last health check caught this replica mid-crash (its epoch
    /// had advanced): round-robin skips it instead of learning the hard
    /// way on a client's dial. Cleared by the next health check that
    /// sees a stable epoch, or by routing absorbing the restart when no
    /// better replica exists.
    stale: AtomicBool,
}

/// A health-check summary of the realm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RealmHealth {
    /// Read-write replicas in rotation.
    pub live_rw: usize,
    /// Read-write replicas marked out of rotation.
    pub down_rw: usize,
    /// Reboots observed across all health checks (epoch advances).
    pub reboots_observed: u64,
    /// Read-only replicas currently serving.
    pub live_ro: usize,
    /// Read-only replicas currently refusing service.
    pub down_ro: usize,
}

/// The relay: routes new connections for one `Location:HostID` across a
/// replica group. Registered into an [`sfs::client::SfsNetwork`] via
/// [`SfsNetwork::register_relay`](sfs::client::SfsNetwork::register_relay),
/// after which every dial — first mount or crash-recovery reconnect —
/// resolves through [`Router`].
pub struct ReplicaGroup {
    path: SelfCertifyingPath,
    rw: Mutex<Vec<Arc<RwSlot>>>,
    ro: Mutex<Vec<Arc<RoReplicaServer>>>,
    next_rw: AtomicUsize,
    next_ro: AtomicUsize,
    reboots: AtomicU64,
    skipped_dead: AtomicU64,
    tel: Mutex<Telemetry>,
}

impl ReplicaGroup {
    /// An empty group fronting `path`.
    pub fn new(path: SelfCertifyingPath) -> Arc<Self> {
        Arc::new(ReplicaGroup {
            path,
            rw: Mutex::new(Vec::new()),
            ro: Mutex::new(Vec::new()),
            next_rw: AtomicUsize::new(0),
            next_ro: AtomicUsize::new(0),
            reboots: AtomicU64::new(0),
            skipped_dead: AtomicU64::new(0),
            tel: Mutex::new(Telemetry::disabled()),
        })
    }

    /// Attaches a tracing sink for routing counters and health gauges.
    pub fn set_telemetry(&self, tel: &Telemetry) {
        *self.tel.lock() = tel.clone();
    }

    /// Adds a read-write replica. It must serve the group's exact
    /// pathname — same location, same key — or clients certifying the
    /// HostID would reject it.
    pub fn add_rw(&self, server: Arc<SfsServer>) {
        assert_eq!(
            server.path().dir_name(),
            self.path.dir_name(),
            "replica must serve the group's Location:HostID"
        );
        self.rw.lock().push(Arc::new(RwSlot {
            last_epoch: AtomicU64::new(server.current_epoch()),
            server,
            down: AtomicBool::new(false),
            stale: AtomicBool::new(false),
        }));
    }

    /// Adds a keyless read-only replica serving the group's pathname.
    pub fn add_ro(&self, replica: Arc<RoReplicaServer>) {
        assert_eq!(
            replica.path().dir_name(),
            self.path.dir_name(),
            "read-only replica must serve the group's Location:HostID"
        );
        self.ro.lock().push(replica);
    }

    /// Read-write replicas registered (live or not).
    pub(crate) fn rw_count(&self) -> usize {
        self.rw.lock().len()
    }

    /// Read-only replicas registered (live or not).
    pub(crate) fn ro_count(&self) -> usize {
        self.ro.lock().len()
    }

    /// Dials routed away from a replica whose last health check showed
    /// a stale/dead epoch.
    pub fn skipped_dead(&self) -> u64 {
        self.skipped_dead.load(Ordering::SeqCst)
    }

    /// Takes read-write replica `idx` out of rotation.
    pub fn mark_down(&self, idx: usize) {
        self.rw.lock()[idx].down.store(true, Ordering::SeqCst);
    }

    /// Probes every replica and updates the relay's view: each read-write
    /// replica's boot epoch is compared against the last check (an
    /// advance means the machine crashed and restarted — its old sessions
    /// are dead and clients are mid-handoff), and read-only replicas
    /// report whether they serve at all.
    pub fn health_check(&self) -> RealmHealth {
        let tel = self.tel.lock().clone();
        let mut live_rw = 0;
        let mut down_rw = 0;
        for (i, slot) in self.rw.lock().iter().enumerate() {
            let epoch = slot.server.current_epoch();
            let last = slot.last_epoch.swap(epoch, Ordering::SeqCst);
            if epoch > last {
                self.reboots.fetch_add(epoch - last, Ordering::SeqCst);
                tel.count("relay", "health.reboots", epoch - last);
                // Caught mid-crash: keep routing away until a later
                // check sees the epoch hold still.
                slot.stale.store(true, Ordering::SeqCst);
            } else {
                slot.stale.store(false, Ordering::SeqCst);
            }
            tel.gauge_set(&format!("relay/rw{i}"), "health.epoch", epoch);
            if slot.down.load(Ordering::SeqCst) {
                down_rw += 1;
            } else {
                live_rw += 1;
            }
        }
        let mut live_ro = 0;
        let mut down_ro = 0;
        for replica in self.ro.lock().iter() {
            if replica.is_down() {
                down_ro += 1;
            } else {
                live_ro += 1;
            }
        }
        tel.gauge_set("relay", "health.rw_live", live_rw as u64);
        tel.gauge_set("relay", "health.rw_down", down_rw as u64);
        tel.gauge_set("relay", "health.ro_live", live_ro as u64);
        tel.gauge_set("relay", "health.ro_down", down_ro as u64);
        RealmHealth {
            live_rw,
            down_rw,
            reboots_observed: self.reboots.load(Ordering::SeqCst),
            live_ro,
            down_ro,
        }
    }
}

impl Router for ReplicaGroup {
    fn route_rw(&self) -> Option<RoutedRw> {
        let tel = self.tel.lock().clone();
        let slots = self.rw.lock();
        // Round-robin over live replicas, starting where the last dial
        // left off; a fully-down (or empty) group routes nothing.
        // Replicas whose last health check caught a crashed epoch are
        // skipped (and counted) rather than handed to a client to
        // discover; if *every* candidate is in that state — a whole-group
        // crash — routing absorbs one restart rather than going dark.
        let start = self.next_rw.fetch_add(1, Ordering::SeqCst);
        let mut fallback: Option<&Arc<RwSlot>> = None;
        for offset in 0..slots.len() {
            let slot = &slots[(start + offset) % slots.len()];
            if slot.down.load(Ordering::SeqCst) {
                continue;
            }
            if slot.stale.load(Ordering::SeqCst) {
                self.skipped_dead.fetch_add(1, Ordering::SeqCst);
                tel.count("relay", "route.skipped_dead", 1);
                fallback.get_or_insert(slot);
                continue;
            }
            tel.count("relay", "route.rw", 1);
            return Some(RoutedRw {
                conn: slot.server.accept(),
                load: Some(slot.server.load()),
            });
        }
        if let Some(slot) = fallback {
            slot.stale.store(false, Ordering::SeqCst);
            tel.count("relay", "route.rw", 1);
            return Some(RoutedRw {
                conn: slot.server.accept(),
                load: Some(slot.server.load()),
            });
        }
        tel.count("relay", "route.rw_unroutable", 1);
        None
    }

    fn route_ro(&self) -> Option<RoutedRo> {
        let tel = self.tel.lock().clone();
        let replicas = self.ro.lock();
        if !replicas.is_empty() {
            let start = self.next_ro.fetch_add(1, Ordering::SeqCst);
            for offset in 0..replicas.len() {
                let replica = &replicas[(start + offset) % replicas.len()];
                if replica.is_down() {
                    continue;
                }
                tel.count("relay", "route.ro", 1);
                return Some(RoutedRo {
                    conn: Box::new(replica.accept()),
                    load: Some(replica.load()),
                });
            }
            tel.count("relay", "route.ro_unroutable", 1);
        }
        drop(replicas);
        // No keyless replica can serve: fall back to the read-write
        // replicas, which also speak the read-only dialect.
        let routed = self.route_rw()?;
        tel.count("relay", "route.ro_fallback", 1);
        Some(RoutedRo {
            conn: Box::new(routed.conn),
            load: routed.load,
        })
    }
}

impl std::fmt::Debug for ReplicaGroup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicaGroup")
            .field("path", &self.path.dir_name())
            .field("rw", &self.rw_count())
            .field("ro", &self.ro_count())
            .finish()
    }
}
