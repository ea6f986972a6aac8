//! Simulated network wires with an adversary hook.
//!
//! Paper §2.1.2: "SFS assumes that malicious parties entirely control the
//! network. Attackers can intercept packets, tamper with them, and inject
//! new packets onto the network." The [`Interceptor`] trait gives tests
//! exactly those powers; [`PacketLog`] records ciphertext for
//! forward-secrecy experiments.
//!
//! A [`Wire`] is a synchronous request/response channel that charges the
//! virtual clock for transit: per-message transport overhead (UDP vs TCP
//! differ, which is how the NFS-over-TCP baseline ends up slower in
//! Figure 5), propagation latency, and serialization time at the link
//! bandwidth.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sfs_telemetry::sync::Mutex;
use sfs_telemetry::Telemetry;

use crate::fault::{FaultPlan, NetAction};
use crate::time::{SimClock, SimTime};

/// Packet direction relative to the client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Client to server.
    Request,
    /// Server to client.
    Reply,
}

/// What an interceptor decided to do with a packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Deliver the (possibly inspected) packet unchanged.
    Deliver,
    /// Deliver modified bytes instead.
    Replace(Vec<u8>),
    /// Drop the packet (the caller observes a timeout).
    Drop,
}

/// An active network adversary (or passive observer).
pub trait Interceptor: Send {
    /// Called for every packet on the wire.
    fn intercept(&mut self, dir: Direction, bytes: &[u8]) -> Verdict;
}

/// Records all traffic, for later cryptanalysis attempts (forward-secrecy
/// tests replay these recordings against disclosed keys).
#[derive(Debug, Default, Clone)]
pub struct PacketLog {
    packets: Arc<Mutex<Vec<LoggedPacket>>>,
}

/// One captured packet: its direction and raw bytes.
type LoggedPacket = (Direction, Vec<u8>);

impl PacketLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a packet.
    pub fn record(&self, dir: Direction, bytes: &[u8]) {
        self.packets.lock().push((dir, bytes.to_vec()));
    }

    /// Snapshot of everything recorded so far.
    pub fn snapshot(&self) -> Vec<(Direction, Vec<u8>)> {
        self.packets.lock().clone()
    }

    /// Number of recorded packets.
    pub fn len(&self) -> usize {
        self.packets.lock().len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Transport protocol under the RPC layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// UDP datagrams (the classic NFS transport).
    Udp,
    /// TCP stream (what SFS uses; slightly more per-message work).
    Tcp,
}

/// Link and transport cost parameters.
#[derive(Debug, Clone, Copy)]
pub struct NetParams {
    /// One-way propagation + switching latency, ns.
    pub latency_ns: u64,
    /// Link bandwidth, bytes per second.
    pub bandwidth_bps: u64,
    /// Fixed per-message transport cost (protocol processing, ACK costs
    /// amortized), ns.
    pub per_message_ns: u64,
    /// Additional per-byte protocol cost (checksumming and buffering in
    /// the transport; nonzero for TCP, whose FreeBSD NFS path the paper
    /// found "suboptimal").
    pub per_byte_extra_ns: u64,
}

impl NetParams {
    /// 100 Mbit/s switched Ethernet as in §4.1, with per-transport message
    /// costs calibrated against Figure 5 (see `sfs-bench::calib`).
    pub fn switched_100mbit(transport: Transport) -> Self {
        NetParams {
            latency_ns: 35_000, // one-way wire+switch+interrupt latency
            bandwidth_bps: 100_000_000 / 8,
            per_message_ns: match transport {
                Transport::Udp => 10_000,
                Transport::Tcp => 20_000,
            },
            per_byte_extra_ns: match transport {
                Transport::Udp => 0,
                Transport::Tcp => 24,
            },
        }
    }

    /// Transit time for a message of `len` bytes.
    pub fn transit_ns(&self, len: usize) -> u64 {
        self.latency_ns
            + self.per_message_ns
            + (len as u64 * 1_000_000_000) / self.bandwidth_bps
            + len as u64 * self.per_byte_extra_ns
    }
}

/// Concurrent-stream tracker for one server endpoint in a multi-server
/// topology.
///
/// Each simulated server machine owns one `ServerLoad`; every client
/// [`Wire`] attached to that machine (via [`Wire::set_server_load`])
/// counts as one concurrent stream. Because per-client clocks advance
/// independently, contention cannot be simulated by interleaving — the
/// wire instead *scales* the resources one machine time-shares across
/// streams (reply-link serialization and server service time) by the
/// number of attached streams, a processor-sharing approximation. A
/// wire with no attached load (the single-server default) behaves
/// exactly as before, so existing timings are unchanged.
#[derive(Debug, Clone, Default)]
pub struct ServerLoad {
    streams: Arc<AtomicU64>,
}

impl ServerLoad {
    /// A load tracker with no attached streams.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of wires currently attached.
    pub fn streams(&self) -> u64 {
        self.streams.load(Ordering::SeqCst)
    }

    fn attach(&self) {
        self.streams.fetch_add(1, Ordering::SeqCst);
    }

    fn detach(&self) {
        self.streams.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Error observed by a caller when the adversary interferes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The packet (or its reply) never arrived.
    Timeout,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "network timeout")
    }
}

impl std::error::Error for WireError {}

/// What the observation/adversary pipeline decided about one packet.
enum Fate {
    /// Deliver these (possibly tampered) bytes.
    Deliver(Vec<u8>),
    /// Deliver the bytes, and a second copy of them.
    Duplicate(Vec<u8>),
    /// Deliver the bytes after an extra delay.
    Delay(u64, Vec<u8>),
    /// The packet never arrives.
    Drop,
}

/// How one request's service time is accounted in
/// [`Wire::exchange_on`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerCost {
    /// Analytic CPU nanoseconds for this request; the wire serializes it
    /// on the single logical server (plus any clock time the closure
    /// consumed, e.g. disk I/O), scaled by [`ServerLoad`] sharers.
    Serial(u64),
    /// An absolute completion instant already placed on per-core/per-
    /// shard timelines by an external scheduler; the wire imposes no
    /// server serialization of its own.
    Scheduled(u64),
}

/// A reply frame delivered by [`Wire::exchange_on`], stamped with its
/// logical arrival time at the client.
#[derive(Debug, Clone)]
pub struct ExchangeReply {
    /// The reply frame as it came off the wire.
    pub bytes: Vec<u8>,
    /// When the frame reached the client on the exchange's timeline.
    pub arrival: SimTime,
}

/// A synchronous request/response wire between a client and a server.
///
/// The server side is a closure; layering (secure channel, RPC dispatch,
/// NFS relay) happens in the crates above.
pub struct Wire {
    clock: SimClock,
    params: NetParams,
    interceptor: Option<Arc<Mutex<dyn Interceptor>>>,
    fault: Option<FaultPlan>,
    log: Option<PacketLog>,
    /// Shared contention tracker for the server machine this wire is
    /// attached to; `None` means an uncontended point-to-point link.
    load: Option<ServerLoad>,
    /// Completed round trips and bytes placed on the wire ("SFS's
    /// enhanced caching reduces the number of RPCs that actually need to
    /// go over the network"). Always live; the shared sink below counts
    /// the same events when attached.
    round_trips: AtomicU64,
    bytes_sent: AtomicU64,
    /// Optional shared tracing sink.
    tel: Telemetry,
}

impl Wire {
    /// Creates a wire with the given clock and parameters.
    pub fn new(clock: SimClock, params: NetParams) -> Self {
        Wire {
            clock,
            params,
            interceptor: None,
            fault: None,
            log: None,
            load: None,
            round_trips: AtomicU64::new(0),
            bytes_sent: AtomicU64::new(0),
            tel: Telemetry::disabled(),
        }
    }

    /// Attaches an adversary.
    pub fn set_interceptor(&mut self, i: Arc<Mutex<dyn Interceptor>>) {
        self.interceptor = Some(i);
    }

    /// Attaches a seeded fault plan; every packet's fate is decided by
    /// the plan after the interceptor (if any) has had its turn.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault = Some(plan);
    }

    /// Attaches a packet recorder.
    pub fn set_log(&mut self, log: PacketLog) {
        self.log = Some(log);
    }

    /// Attaches this wire to a server machine's [`ServerLoad`], counting
    /// it as one concurrent stream until the wire is dropped (or the
    /// load replaced). Server-side resources — reply serialization and
    /// service time — are scaled by the stream count.
    pub fn set_server_load(&mut self, load: ServerLoad) {
        if let Some(old) = self.load.take() {
            old.detach();
        }
        load.attach();
        self.load = Some(load);
    }

    /// How many streams share this wire's server machine (at least 1).
    fn sharers(&self) -> u64 {
        self.load.as_ref().map(|l| l.streams().max(1)).unwrap_or(1)
    }

    /// Attaches a shared tracing sink; spans and counters are stamped
    /// with this wire's virtual clock.
    pub fn set_telemetry(&mut self, tel: &Telemetry) {
        self.tel = tel.clone().with_clock(self.clock.clone());
    }

    /// Counts a wire statistic on the shared tracing sink.
    fn bump(&self, name: &'static str, delta: u64) {
        self.tel.count("wire", name, delta);
    }

    /// Counts `n` requests whose reply reached the client.
    fn answered(&self, n: u64) {
        self.round_trips.fetch_add(n, Ordering::Relaxed);
        self.bump("net.round_trips", n);
    }

    /// Completed round trips.
    pub fn round_trips(&self) -> u64 {
        self.round_trips.load(Ordering::Relaxed)
    }

    /// Total bytes placed on the wire (both directions).
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent.load(Ordering::Relaxed)
    }

    /// The wire's clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// The caller waits out a retransmission timeout on a lost packet.
    fn lost(&self) -> WireError {
        self.clock.advance_ns(1_000_000_000);
        self.bump("net.timeouts", 1);
        self.tel.instant("wire", "sim.net", "timeout");
        WireError::Timeout
    }

    /// Waits out one retransmission timeout. The client calls this for
    /// a reply it is owed that did not come: a window exchange back with
    /// requests unanswered, or a blocking [`Wire::call`] that returned a
    /// stray in the reply's place.
    pub fn timeout_wait(&self) {
        let _ = self.lost();
    }

    /// Runs one packet through the observation/adversary pipeline —
    /// accounting, packet log, interceptor, fault plan — and reports its
    /// fate. Shared by the blocking path (which charges the clock around
    /// it) and the pipelined path (which applies fates to its logical
    /// per-frame timeline instead); neither the clock nor timeout
    /// accounting is touched here.
    fn route(&self, dir: Direction, bytes: Vec<u8>) -> Fate {
        self.bytes_sent
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.bump("net.bytes_sent", bytes.len() as u64);
        if let Some(log) = &self.log {
            log.record(dir, &bytes);
        }
        let bytes = match &self.interceptor {
            None => bytes,
            Some(i) => match i.lock().intercept(dir, &bytes) {
                Verdict::Deliver => bytes,
                Verdict::Replace(other) => other,
                Verdict::Drop => return Fate::Drop,
            },
        };
        match &self.fault {
            None => Fate::Deliver(bytes),
            Some(plan) => match plan.net_action(dir, self.clock.now(), bytes) {
                NetAction::Deliver(b) => Fate::Deliver(b),
                NetAction::Duplicate(b) => {
                    self.bump("net.duplicates", 1);
                    Fate::Duplicate(b)
                }
                NetAction::Delay(ns, b) => {
                    self.bump("net.delays", 1);
                    Fate::Delay(ns, b)
                }
                NetAction::Drop => Fate::Drop,
            },
        }
    }

    /// Moves one packet across the link. On success returns the delivered
    /// bytes plus whether the fault plan duplicated the packet (the
    /// receiver must then process it twice).
    fn transit(&self, dir: Direction, bytes: Vec<u8>) -> Result<(Vec<u8>, bool), WireError> {
        let name = match dir {
            Direction::Request => "send",
            Direction::Reply => "recv",
        };
        let _span = self
            .tel
            .span("wire", "sim.net", name)
            .with_attr("bytes", bytes.len() as u64);
        // Requests ride the client's private uplink; replies serialize
        // onto the server's shared downlink, which `sharers()` streams
        // time-share.
        let transit_ns = match dir {
            Direction::Request => self.params.transit_ns(bytes.len()),
            Direction::Reply => self.params.latency_ns + self.sharers() * self.ser_ns(bytes.len()),
        };
        self.clock.advance_ns(transit_ns);
        match self.route(dir, bytes) {
            Fate::Deliver(b) => Ok((b, false)),
            Fate::Duplicate(b) => Ok((b, true)),
            Fate::Delay(ns, b) => {
                self.clock.advance_ns(ns);
                Ok((b, false))
            }
            Fate::Drop => Err(self.lost()),
        }
    }

    /// Serialization time for a message of `len` bytes: the portion of
    /// [`NetParams::transit_ns`] that occupies the sender's link (the
    /// remaining `latency_ns` is propagation, which pipelines).
    fn ser_ns(&self, len: usize) -> u64 {
        self.params.per_message_ns
            + (len as u64 * 1_000_000_000) / self.params.bandwidth_bps
            + len as u64 * self.params.per_byte_extra_ns
    }

    /// Sends a whole window of frames and collects every reply the
    /// adversary lets through — the pipelined counterpart of
    /// [`Wire::call`].
    ///
    /// Unlike `call`, nothing here blocks the shared clock per frame.
    /// The exchange is computed on a logical timeline instead: each
    /// request frame departs at its `sent` stamp (or when the
    /// client→server link frees up, if later), occupies that link for
    /// its serialization time, then propagates; the server services
    /// arrivals in arrival order; reply frames queue on the
    /// server→client link the same way.
    /// The shared clock finally jumps to the last reply's arrival, which
    /// is where the caller resumes — so transmission, server CPU, and
    /// disk genuinely overlap in virtual time.
    ///
    /// Fault interaction per frame: dropped frames (either direction)
    /// simply never arrive — the caller notices unanswered requests and
    /// retransmits after [`Wire::timeout_wait`]. Duplicated requests are
    /// serviced twice; duplicated replies are delivered twice; delays
    /// push a frame's arrival without holding the link.
    ///
    /// The server closure sees each frame's absolute arrival time and
    /// decides how its service time is accounted: [`ServerCost::Serial`]
    /// is the classic single-server discipline (one request at a time,
    /// charged the analytic CPU cost it carries plus whatever virtual
    /// time the closure itself consumed, scaled by [`ServerLoad`]
    /// sharers), while [`ServerCost::Scheduled`] hands back an absolute
    /// completion instant computed by an external scheduler (a multi-core
    /// [`crate::CoreSet`] + per-shard disk queues) — the wire then treats
    /// the server as parallel and does not serialize requests against
    /// each other. Reply-link serialization is unaffected: the downlink
    /// is one NIC regardless of how many cores fed it.
    pub fn exchange_on(
        &self,
        frames: Vec<(SimTime, Vec<u8>)>,
        mut server: impl FnMut(u64, &[u8]) -> (Vec<Vec<u8>>, ServerCost),
    ) -> Vec<ExchangeReply> {
        if frames.is_empty() {
            return Vec::new();
        }
        let _span = self
            .tel
            .span("wire", "sim.net", "exchange")
            .with_attr("frames", frames.len() as u64);
        // Client→server: serialize in send order onto the shared link.
        let mut req_link_free = 0u64;
        let mut arrivals: Vec<(u64, usize, Vec<u8>, bool)> = Vec::new();
        for (idx, (sent, bytes)) in frames.into_iter().enumerate() {
            let ser = self.ser_ns(bytes.len());
            let depart = sent.as_nanos().max(req_link_free);
            req_link_free = depart + ser;
            let arrival = depart + ser + self.params.latency_ns;
            match self.route(Direction::Request, bytes) {
                Fate::Deliver(b) => arrivals.push((arrival, idx, b, false)),
                Fate::Duplicate(b) => arrivals.push((arrival, idx, b, true)),
                Fate::Delay(ns, b) => arrivals.push((arrival + ns, idx, b, false)),
                Fate::Drop => {}
            }
        }
        // Service strictly in arrival order (ties break on send order,
        // keeping the timeline deterministic).
        arrivals.sort_by_key(|&(arrival, idx, ..)| (arrival, idx));
        let mut server_free = 0u64;
        let mut reply_link_free = 0u64;
        let mut out: Vec<ExchangeReply> = Vec::new();
        let mut answered = 0u64;
        let sharers = self.sharers();
        for (arrival, _idx, bytes, dup) in arrivals {
            for _ in 0..if dup { 2 } else { 1 } {
                let ((replies, cost), dt) = self.clock.measure(|| server(arrival, &bytes));
                let end = match cost {
                    // One server core: requests queue behind each other,
                    // and `sharers` streams time-share it.
                    ServerCost::Serial(extra_ns) => {
                        let start = arrival.max(server_free);
                        let end = start + sharers * (extra_ns + dt.as_nanos());
                        server_free = end;
                        end
                    }
                    // An external scheduler already placed the work on a
                    // core/disk timeline: its completion instant stands,
                    // and the server is not a serial bottleneck here (the
                    // closure's own clock consumption was tallied by the
                    // scheduler, so `dt` is not re-charged).
                    ServerCost::Scheduled(done_ns) => done_ns.max(arrival),
                };
                for rbytes in replies {
                    let ser = sharers * self.ser_ns(rbytes.len());
                    let depart = end.max(reply_link_free);
                    reply_link_free = depart + ser;
                    let r_arrival = depart + ser + self.params.latency_ns;
                    match self.route(Direction::Reply, rbytes) {
                        Fate::Deliver(b) => {
                            out.push(ExchangeReply {
                                bytes: b,
                                arrival: SimTime(r_arrival),
                            });
                            answered += 1;
                        }
                        Fate::Duplicate(b) => {
                            out.push(ExchangeReply {
                                bytes: b.clone(),
                                arrival: SimTime(r_arrival),
                            });
                            out.push(ExchangeReply {
                                bytes: b,
                                arrival: SimTime(r_arrival),
                            });
                            answered += 1;
                        }
                        Fate::Delay(ns, b) => {
                            out.push(ExchangeReply {
                                bytes: b,
                                arrival: SimTime(r_arrival + ns),
                            });
                            answered += 1;
                        }
                        Fate::Drop => {}
                    }
                }
            }
        }
        self.answered(answered);
        // The caller resumes once the last surviving reply is in; a
        // batch that lost everything costs no time here (the caller's
        // retransmission timeout charges it instead).
        if let Some(finish) = out.iter().map(|r| r.arrival).max() {
            self.clock.advance_to(finish);
        }
        out.sort_by_key(|r| r.arrival);
        out
    }

    /// Sends `request` to `server` and returns its reply, charging transit
    /// costs both ways. When the fault plan duplicates the request, the
    /// server processes both copies (and the client sees the first reply,
    /// as a real retransmission-duplicate would play out).
    pub fn call(
        &self,
        request: Vec<u8>,
        mut server: impl FnMut(Vec<u8>) -> Vec<u8>,
    ) -> Result<Vec<u8>, WireError> {
        let span = self.tel.span("wire", "sim.net", "rpc");
        let (delivered, dup_req) = self.transit(Direction::Request, request)?;
        let reply = if dup_req {
            let first = server(delivered.clone());
            let _second = server(delivered);
            first
        } else {
            server(delivered)
        };
        // A duplicated reply reaches the client twice; the RPC layer
        // discards the second copy, so only the event is observable.
        let (got, _dup_rep) = self.transit(Direction::Reply, reply)?;
        self.answered(1);
        drop(span);
        Ok(got)
    }
}

impl Drop for Wire {
    fn drop(&mut self) {
        if let Some(load) = self.load.take() {
            load.detach();
        }
    }
}

impl std::fmt::Debug for Wire {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wire")
            .field("params", &self.params)
            .field("round_trips", &self.round_trips())
            .field("bytes_sent", &self.bytes_sent())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::ServerCost::Serial;
    use super::*;

    fn wire() -> Wire {
        Wire::new(SimClock::new(), NetParams::switched_100mbit(Transport::Udp))
    }

    /// A server that answers `len` zero bytes for `cpu` ns of serial CPU.
    fn zeros(len: usize, cpu: u64) -> (Vec<Vec<u8>>, ServerCost) {
        (vec![vec![0; len]], Serial(cpu))
    }

    #[test]
    fn call_roundtrip_charges_time() {
        let w = wire();
        let reply = w
            .call(b"ping".to_vec(), |req| {
                assert_eq!(req, b"ping");
                b"pong".to_vec()
            })
            .unwrap();
        assert_eq!(reply, b"pong");
        assert!(w.clock().now().as_nanos() > 0);
        assert_eq!(w.round_trips(), 1);
        assert_eq!(w.bytes_sent(), 8);
    }

    #[test]
    fn larger_messages_take_longer() {
        let w1 = wire();
        w1.call(vec![0; 100], |_| vec![]).unwrap();
        let w2 = wire();
        w2.call(vec![0; 100_000], |_| vec![]).unwrap();
        assert!(w2.clock().now() > w1.clock().now());
    }

    #[test]
    fn tcp_costs_more_per_message() {
        let udp = NetParams::switched_100mbit(Transport::Udp);
        let tcp = NetParams::switched_100mbit(Transport::Tcp);
        assert!(tcp.transit_ns(100) > udp.transit_ns(100));
    }

    struct Tamperer;
    impl Interceptor for Tamperer {
        fn intercept(&mut self, dir: Direction, bytes: &[u8]) -> Verdict {
            if dir == Direction::Reply {
                let mut b = bytes.to_vec();
                b[0] ^= 0xff;
                Verdict::Replace(b)
            } else {
                Verdict::Deliver
            }
        }
    }

    #[test]
    fn interceptor_can_tamper() {
        let mut w = wire();
        w.set_interceptor(Arc::new(Mutex::new(Tamperer)));
        let reply = w.call(b"hi".to_vec(), |_| vec![0x00, 0x01]).unwrap();
        assert_eq!(reply, vec![0xff, 0x01]);
    }

    struct Dropper;
    impl Interceptor for Dropper {
        fn intercept(&mut self, _d: Direction, _b: &[u8]) -> Verdict {
            Verdict::Drop
        }
    }

    #[test]
    fn interceptor_can_drop() {
        let mut w = wire();
        w.set_interceptor(Arc::new(Mutex::new(Dropper)));
        let before = w.clock().now();
        let err = w.call(b"hi".to_vec(), |_| vec![]).unwrap_err();
        assert_eq!(err, WireError::Timeout);
        // A retransmission timeout elapsed.
        assert!(w.clock().now().since(before).as_nanos() >= 1_000_000_000);
    }

    #[test]
    fn fault_plan_drop_behaves_like_timeout() {
        use crate::fault::{FaultPlan, FaultSpec};
        let mut w = wire();
        w.set_fault_plan(FaultPlan::new(
            1,
            FaultSpec {
                drop_pm: 1000,
                ..FaultSpec::none()
            },
        ));
        let before = w.clock().now();
        assert_eq!(
            w.call(b"hi".to_vec(), |_| vec![]).unwrap_err(),
            WireError::Timeout
        );
        assert!(w.clock().now().since(before).as_nanos() >= 1_000_000_000);
    }

    #[test]
    fn fault_plan_duplicate_invokes_server_twice() {
        use crate::fault::{FaultPlan, FaultSpec};
        let mut w = wire();
        w.set_fault_plan(FaultPlan::new(
            1,
            FaultSpec {
                duplicate_pm: 1000,
                ..FaultSpec::none()
            },
        ));
        let mut calls = 0;
        // The reply transit also rolls a duplicate; that is fine — the
        // client just discards the second copy.
        let reply = w
            .call(b"q".to_vec(), |_| {
                calls += 1;
                vec![calls]
            })
            .unwrap();
        assert_eq!(calls, 2, "server must process both copies");
        assert_eq!(reply, vec![1], "client sees the first reply");
    }

    #[test]
    fn fault_plan_delay_charges_extra_time() {
        use crate::fault::{FaultPlan, FaultSpec};
        let clean = wire();
        clean.call(vec![0; 64], |_| vec![0; 64]).unwrap();
        let mut w = wire();
        w.set_fault_plan(FaultPlan::new(
            1,
            FaultSpec {
                delay_pm: 1000,
                delay_ns: 5_000_000,
                ..FaultSpec::none()
            },
        ));
        w.call(vec![0; 64], |_| vec![0; 64]).unwrap();
        assert!(
            w.clock().now().as_nanos() >= clean.clock().now().as_nanos() + 10_000_000,
            "both directions should be delayed 5ms"
        );
    }

    #[test]
    fn server_load_scales_reply_serialization() {
        // Two streams attached to one server machine: replies take the
        // shared downlink at half rate, so the contended call is slower
        // than the uncontended one but cheaper than two full transits
        // (propagation latency is not shared).
        let free = wire();
        free.call(vec![0; 64], |_| vec![0; 60_000]).unwrap();

        let load = ServerLoad::new();
        let mut w = wire();
        w.set_server_load(load.clone());
        let mut other = wire();
        other.set_server_load(load.clone());
        assert_eq!(load.streams(), 2);
        w.call(vec![0; 64], |_| vec![0; 60_000]).unwrap();
        let contended = w.clock().now().as_nanos();
        let uncontended = free.clock().now().as_nanos();
        assert!(
            contended > uncontended,
            "contended {contended} must exceed uncontended {uncontended}"
        );
        assert!(contended < 2 * uncontended);
        drop(other);
        assert_eq!(load.streams(), 1);
    }

    #[test]
    fn server_load_single_stream_is_time_neutral() {
        // One attached stream must cost exactly what an unattached wire
        // does, in both the blocking and pipelined paths.
        let free = wire();
        free.call(vec![0; 512], |_| vec![0; 4096]).unwrap();
        let mut w = wire();
        w.set_server_load(ServerLoad::new());
        w.call(vec![0; 512], |_| vec![0; 4096]).unwrap();
        assert_eq!(w.clock().now(), free.clock().now());

        let free = wire();
        let sent = free.clock().now();
        free.exchange_on(vec![(sent, vec![0; 512])], |_, _| zeros(4096, 1000));
        let mut w = wire();
        w.set_server_load(ServerLoad::new());
        let sent = w.clock().now();
        w.exchange_on(vec![(sent, vec![0; 512])], |_, _| zeros(4096, 1000));
        assert_eq!(w.clock().now(), free.clock().now());
    }

    #[test]
    fn server_load_scales_exchange_service_time() {
        const CPU: u64 = 1_000_000;
        let free = wire();
        let sent = free.clock().now();
        free.exchange_on(vec![(sent, vec![0; 64])], |_, _| zeros(64, CPU));

        let load = ServerLoad::new();
        let mut w = wire();
        w.set_server_load(load.clone());
        let mut _other = wire();
        _other.set_server_load(load.clone());
        let sent = w.clock().now();
        w.exchange_on(vec![(sent, vec![0; 64])], |_, _| zeros(64, CPU));
        assert!(
            w.clock().now().as_nanos() >= free.clock().now().as_nanos() + CPU,
            "two sharers double the 1ms service time"
        );
    }

    #[test]
    fn packet_log_records_both_directions() {
        let mut w = wire();
        let log = PacketLog::new();
        w.set_log(log.clone());
        w.call(b"req".to_vec(), |_| b"rep".to_vec()).unwrap();
        let snap = log.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0], (Direction::Request, b"req".to_vec()));
        assert_eq!(snap[1], (Direction::Reply, b"rep".to_vec()));
    }

    #[test]
    fn exchange_single_frame_matches_call_timing() {
        // A one-frame exchange must cost exactly what a blocking call
        // does, so window=1 pipelining is time-neutral.
        let blocking = wire();
        blocking.call(vec![1; 400], |_| vec![2; 200]).unwrap();

        let w = wire();
        let sent = w.clock().now();
        let replies = w.exchange_on(vec![(sent, vec![1; 400])], |_, req| {
            assert_eq!(req, &[1u8; 400][..]);
            (vec![vec![2; 200]], Serial(0))
        });
        assert_eq!(replies.len(), 1);
        assert_eq!(replies[0].bytes, vec![2; 200]);
        assert_eq!(w.clock().now(), blocking.clock().now());
        assert_eq!(w.round_trips(), 1);
        assert_eq!(w.bytes_sent(), blocking.bytes_sent());
    }

    #[test]
    fn exchange_overlaps_server_work_across_frames() {
        // Eight requests, each costing 1ms of server CPU. Blocking pays
        // 8 full round trips; the exchange overlaps transit with server
        // work and must beat it while still serializing the server.
        const N: u64 = 8;
        const CPU: u64 = 1_000_000;
        let blocking = wire();
        for _ in 0..N {
            blocking
                .call(vec![0; 8192], |_| {
                    blocking.clock().advance_ns(CPU);
                    vec![0; 256]
                })
                .unwrap();
        }

        let w = wire();
        let sent = w.clock().now();
        let frames = (0..N).map(|_| (sent, vec![0; 8192])).collect();
        let replies = w.exchange_on(frames, |_, _| zeros(256, CPU));
        assert_eq!(replies.len(), N as usize);
        assert_eq!(w.round_trips(), N);
        let pipelined = w.clock().now().as_nanos();
        let serial = blocking.clock().now().as_nanos();
        assert!(
            pipelined < serial,
            "pipelined {pipelined} must beat serial {serial}"
        );
        // The server itself never overlaps with itself.
        assert!(pipelined >= N * CPU);
    }

    #[test]
    fn exchange_reply_arrivals_are_sorted_and_monotone() {
        let w = wire();
        let sent = w.clock().now();
        let frames = (0..4u8).map(|i| (sent, vec![i; 64])).collect();
        let replies = w.exchange_on(frames, |_, req| (vec![req.to_vec()], Serial(0)));
        assert_eq!(replies.len(), 4);
        for pair in replies.windows(2) {
            assert!(pair[0].arrival <= pair[1].arrival);
        }
        // The clock lands exactly on the last arrival.
        assert_eq!(w.clock().now(), replies[3].arrival);
    }

    #[test]
    fn exchange_drop_loses_frames_without_charging_timeout() {
        use crate::fault::{FaultPlan, FaultSpec};
        let mut w = wire();
        w.set_fault_plan(FaultPlan::new(
            1,
            FaultSpec {
                drop_pm: 1000,
                ..FaultSpec::none()
            },
        ));
        let before = w.clock().now();
        let replies = w.exchange_on(vec![(before, vec![0; 64])], |_, _| {
            panic!("dropped request must not reach the server")
        });
        assert!(replies.is_empty());
        assert_eq!(w.round_trips(), 0);
        // The caller charges the timeout explicitly, not the exchange.
        assert_eq!(w.clock().now(), before);
        w.timeout_wait();
        assert!(w.clock().now().since(before).as_nanos() >= 1_000_000_000);
    }

    #[test]
    fn exchange_duplicate_request_services_twice() {
        use crate::fault::{FaultPlan, FaultSpec};
        let mut w = wire();
        w.set_fault_plan(FaultPlan::new(
            1,
            FaultSpec {
                duplicate_pm: 1000,
                ..FaultSpec::none()
            },
        ));
        let mut calls = 0u8;
        let sent = w.clock().now();
        let replies = w.exchange_on(vec![(sent, vec![9; 32])], |_, _| {
            calls += 1;
            (vec![vec![calls]], Serial(0))
        });
        assert_eq!(calls, 2, "server must process both copies");
        // Both invocations replied and the reply leg also duplicates, so
        // the client sees every copy and discards extras itself.
        assert!(replies.len() >= 2);
    }

    #[test]
    fn exchange_delay_defers_reply_arrival() {
        use crate::fault::{FaultPlan, FaultSpec};
        let clean = wire();
        let sent = clean.clock().now();
        clean.exchange_on(vec![(sent, vec![0; 64])], |_, _| zeros(64, 0));

        let mut w = wire();
        w.set_fault_plan(FaultPlan::new(
            1,
            FaultSpec {
                delay_pm: 1000,
                delay_ns: 5_000_000,
                ..FaultSpec::none()
            },
        ));
        let sent = w.clock().now();
        w.exchange_on(vec![(sent, vec![0; 64])], |_, _| zeros(64, 0));
        assert!(
            w.clock().now().as_nanos() >= clean.clock().now().as_nanos() + 10_000_000,
            "both directions should be delayed 5ms"
        );
    }
}
