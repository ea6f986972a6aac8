//! Simulated network wires with one adversary hook.
//!
//! Paper §2.1.2: "SFS assumes that malicious parties entirely control the
//! network. Attackers can intercept packets, tamper with them, and inject
//! new packets onto the network." The [`Interceptor`] trait is that one
//! attacker: it sees every packet and returns its [`Verdict`] — deliver
//! (as sent or tampered with), duplicate, delay or drop. A scripted test
//! adversary and the seeded [`crate::FaultPlan`] are both interceptors,
//! and a wire carries at most one. [`PacketLog`] is a passive recorder
//! beside it: it keeps ciphertext as the sender sent it, for
//! forward-secrecy experiments.
//!
//! A [`Wire`] is a request/response channel that charges the virtual
//! clock for transit: per-message transport overhead (UDP vs TCP differ,
//! which is how the NFS-over-TCP baseline ends up slower in Figure 5),
//! propagation latency, and serialization time at the link bandwidth.
//! Every packet crosses it through [`Wire::exchange_on`]; a blocking
//! [`Wire::call`] is an exchange of one frame.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sfs_telemetry::sync::Mutex;
use sfs_telemetry::Telemetry;

use crate::time::{SimClock, SimTime};

/// Packet direction relative to the client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Client to server.
    Request,
    /// Server to client.
    Reply,
}

/// What becomes of one packet on the wire: the adversary's decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Deliver these bytes: the packet as sent, tampered with, or one
    /// the adversary held back earlier.
    Deliver(Vec<u8>),
    /// Deliver the bytes twice (the receiver processes both copies).
    Duplicate(Vec<u8>),
    /// Deliver the bytes after an extra delay of the given ns.
    Delay(u64, Vec<u8>),
    /// The packet never arrives (the caller observes a timeout).
    Drop,
}

/// The network adversary: an active attacker, a seeded fault schedule,
/// or a passive observer that delivers everything it sees.
pub trait Interceptor: Send {
    /// Decides the fate of one packet, sent in direction `dir` when the
    /// wire's clock reads `now`. Called exactly once per packet, in send
    /// order.
    fn intercept(&mut self, dir: Direction, now: SimTime, bytes: Vec<u8>) -> Verdict;
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
    pub(crate) fn record(&self, dir: Direction, bytes: &[u8]) {
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
    pub(crate) bandwidth_bps: u64,
    /// Fixed per-message transport cost (protocol processing, ACK costs
    /// amortized), ns.
    pub(crate) per_message_ns: u64,
    /// Additional per-byte protocol cost (checksumming and buffering in
    /// the transport; nonzero for TCP, whose FreeBSD NFS path the paper
    /// found "suboptimal").
    pub(crate) per_byte_extra_ns: u64,
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
}

/// Concurrent-stream tracker for one server endpoint in a multi-server
/// topology.
///
/// Each simulated server machine owns one `ServerLoad`; every client
/// [`Wire`] attached to that machine (via [`Wire::set_server_load`])
/// counts as one concurrent stream. Because per-client clocks advance
/// independently, contention cannot be simulated by interleaving — the
/// wire instead *scales* the one resource all streams share, the
/// machine's reply downlink, by the number of attached streams: each
/// reply serializes that many times slower, a processor-sharing
/// approximation. A wire with no attached load, or the only one
/// attached, serializes replies at the full link rate.
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

/// How one request's service time is accounted in
/// [`Wire::exchange_on`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerCost {
    /// Analytic CPU nanoseconds for this request; the wire serializes it
    /// on the single logical server, plus any clock time the closure
    /// consumed (e.g. disk I/O).
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

/// The buffers of [`Wire::exchange_on`]: whoever runs exchanges back to
/// back keeps one and hands it to each, so a steady exchange allocates
/// nothing.
#[derive(Debug, Default)]
pub struct Exchange {
    /// Every reply of the last exchange the adversary let through, in
    /// arrival order.
    pub replies: Vec<ExchangeReply>,
    /// Delivered requests: arrival, send index, bytes, duplicated.
    arrivals: Vec<(u64, usize, Vec<u8>, bool)>,
    /// What the server answered the request being serviced.
    served: Vec<Vec<u8>>,
}

/// A synchronous request/response wire between a client and a server.
///
/// The server side is a closure; layering (secure channel, RPC dispatch,
/// NFS relay) happens in the crates above.
pub struct Wire {
    clock: SimClock,
    params: NetParams,
    adversary: Option<Arc<Mutex<dyn Interceptor>>>,
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
            adversary: None,
            log: None,
            load: None,
            round_trips: AtomicU64::new(0),
            bytes_sent: AtomicU64::new(0),
            tel: Telemetry::disabled(),
        }
    }

    /// Attaches the adversary that decides every packet's fate,
    /// replacing any attached before.
    pub fn set_interceptor(&mut self, i: Arc<Mutex<dyn Interceptor>>) {
        self.adversary = Some(i);
    }

    /// Attaches a packet recorder.
    pub fn set_log(&mut self, log: PacketLog) {
        self.log = Some(log);
    }

    /// Attaches this wire to a server machine's [`ServerLoad`], counting
    /// it as one concurrent stream until the wire is dropped (or the
    /// load replaced). Reply serialization on the machine's downlink is
    /// scaled by the stream count.
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
    pub(crate) fn bytes_sent(&self) -> u64 {
        self.bytes_sent.load(Ordering::Relaxed)
    }

    /// The wire's clock.
    #[cfg(test)]
    fn clock(&self) -> &SimClock {
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
    /// a reply it is owed that did not come: an exchange back with
    /// requests unanswered, whether they were lost or a stray came in
    /// their place.
    pub fn timeout_wait(&self) {
        let _ = self.lost();
    }

    /// Runs one packet past the observers and the adversary —
    /// accounting, packet log, interceptor — and reports what arrives:
    /// the bytes, the extra delay they arrive after and whether they
    /// arrive twice, or `None` for a lost packet. [`Wire::exchange_on`]
    /// applies that to its logical per-frame timeline; neither the clock
    /// nor timeout accounting is touched here.
    fn route(&self, dir: Direction, bytes: Vec<u8>) -> Option<(Vec<u8>, u64, bool)> {
        self.bytes_sent
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.bump("net.bytes_sent", bytes.len() as u64);
        if let Some(log) = &self.log {
            log.record(dir, &bytes);
        }
        let Some(adversary) = &self.adversary else {
            return Some((bytes, 0, false));
        };
        match adversary.lock().intercept(dir, self.clock.now(), bytes) {
            Verdict::Deliver(b) => Some((b, 0, false)),
            Verdict::Duplicate(b) => {
                self.bump("net.duplicates", 1);
                Some((b, 0, true))
            }
            Verdict::Delay(ns, b) => {
                self.bump("net.delays", 1);
                Some((b, ns, false))
            }
            Verdict::Drop => None,
        }
    }

    /// Serialization time for a message of `len` bytes: the part of its
    /// transit that occupies the sender's link (the remaining
    /// `latency_ns` is propagation, which pipelines).
    fn ser_ns(&self, len: usize) -> u64 {
        self.params.per_message_ns
            + (len as u64 * 1_000_000_000) / self.params.bandwidth_bps
            + len as u64 * self.params.per_byte_extra_ns
    }

    /// Sends `frames` — one request or a whole window, each with its
    /// send stamp, in send order — and collects in `x.replies` every
    /// reply the adversary lets through. This is the only way a packet
    /// crosses the wire; [`Wire::call`] is one frame of it.
    ///
    /// Nothing here blocks the shared clock per frame.
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
    /// owns its bytes (a duplicated frame is handed over twice, the
    /// first time as a copy), and pushes its replies — none, one or
    /// several — onto the buffer it is handed. It decides how its
    /// service time is accounted: [`ServerCost::Serial`]
    /// is the classic single-server discipline (one request at a time,
    /// charged the analytic CPU cost it carries plus whatever virtual
    /// time the closure itself consumed), while [`ServerCost::Scheduled`]
    /// hands back an absolute completion instant computed by an external
    /// scheduler (a multi-core [`crate::CoreSet`] + per-shard disk
    /// queues) — the wire then treats the server as parallel and does
    /// not serialize requests against each other. Either way the replies
    /// share one downlink, the machine's one NIC, whose serialization
    /// [`ServerLoad`] scales.
    pub fn exchange_on(
        &self,
        frames: impl IntoIterator<Item = (SimTime, Vec<u8>)>,
        x: &mut Exchange,
        server: impl FnMut(u64, Vec<u8>, &mut Vec<Vec<u8>>) -> ServerCost,
    ) {
        self.exchange(frames, x, server, None::<fn(ExchangeReply)>);
    }

    /// [`Self::exchange_on`], handing replies to `sink` as they are
    /// served instead of collecting them all, for a caller that starts on
    /// them while the server still works.
    ///
    /// Replies leave the server on its one downlink in the order they are
    /// served, each departing no earlier than the one before it finished
    /// serializing, so they arrive in service order — whatever the
    /// requests' fates and however the server accounts its time — until
    /// the adversary delays one. Up to the first reply delayed or
    /// duplicated, each goes to `sink` as it is served; from it on they
    /// are collected in `x.replies` and sorted at the end. `sink`'s replies, in the order
    /// it got them, followed by `x.replies` are exactly the replies, in
    /// the order, that `exchange_on` would have left in `x.replies`.
    pub fn exchange_streamed(
        &self,
        frames: impl IntoIterator<Item = (SimTime, Vec<u8>)>,
        x: &mut Exchange,
        server: impl FnMut(u64, Vec<u8>, &mut Vec<Vec<u8>>) -> ServerCost,
        sink: impl FnMut(ExchangeReply),
    ) {
        self.exchange(frames, x, server, Some(sink));
    }

    /// Both of the above: one instance each, so `exchange_on`'s has no
    /// sink to look at.
    fn exchange(
        &self,
        frames: impl IntoIterator<Item = (SimTime, Vec<u8>)>,
        x: &mut Exchange,
        mut server: impl FnMut(u64, Vec<u8>, &mut Vec<Vec<u8>>) -> ServerCost,
        mut sink: Option<impl FnMut(ExchangeReply)>,
    ) {
        x.replies.clear();
        // Client→server: serialize in send order onto the shared link.
        let mut req_link_free = 0u64;
        let mut sent = 0u64;
        for (idx, (stamp, bytes)) in frames.into_iter().enumerate() {
            sent += 1;
            let ser = self.ser_ns(bytes.len());
            let depart = stamp.as_nanos().max(req_link_free);
            req_link_free = depart + ser;
            let arrival = depart + ser + self.params.latency_ns;
            if let Some((b, delay, dup)) = self.route(Direction::Request, bytes) {
                x.arrivals.push((arrival + delay, idx, b, dup));
            }
        }
        if sent == 0 {
            return;
        }
        let _span = self
            .tel
            .span("wire", "sim.net", "exchange")
            .with_attr("frames", sent);
        // Service strictly in arrival order (ties break on send order,
        // keeping the timeline deterministic).
        x.arrivals
            .sort_unstable_by_key(|&(arrival, idx, ..)| (arrival, idx));
        let mut server_free = 0u64;
        let mut reply_link_free = 0u64;
        let out = &mut x.replies;
        let mut answered = 0u64;
        // The last reply `sink` got, if any.
        let mut streamed_finish: Option<SimTime> = None;
        let sharers = self.sharers();
        for (arrival, _idx, bytes, dup) in x.arrivals.drain(..) {
            let (first, second) = if dup {
                (bytes.clone(), Some(bytes))
            } else {
                (bytes, None)
            };
            for bytes in std::iter::once(first).chain(second) {
                let (cost, dt) = self.clock.measure(|| server(arrival, bytes, &mut x.served));
                let end = match cost {
                    // One server core: requests queue behind each other.
                    ServerCost::Serial(extra_ns) => {
                        let start = arrival.max(server_free);
                        let end = start + extra_ns + dt.as_nanos();
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
                for rbytes in x.served.drain(..) {
                    let ser = sharers * self.ser_ns(rbytes.len());
                    let depart = end.max(reply_link_free);
                    reply_link_free = depart + ser;
                    let r_arrival = depart + ser + self.params.latency_ns;
                    let Some((bytes, delay, dup)) = self.route(Direction::Reply, rbytes) else {
                        continue;
                    };
                    answered += 1;
                    let reply = ExchangeReply {
                        bytes,
                        arrival: SimTime(r_arrival + delay),
                    };
                    match sink.as_mut() {
                        Some(sink) if delay == 0 && !dup => {
                            streamed_finish = Some(reply.arrival);
                            sink(reply);
                        }
                        // From the first reply delayed or duplicated on,
                        // replies are collected.
                        _ => {
                            sink = None;
                            if dup {
                                out.push(reply.clone());
                            }
                            out.push(reply);
                        }
                    }
                }
            }
        }
        self.answered(answered);
        // The caller resumes once the last surviving reply is in; a
        // batch that lost everything costs no time here (the caller's
        // retransmission timeout charges it instead).
        if let Some(finish) = out.iter().map(|r| r.arrival).chain(streamed_finish).max() {
            self.clock.advance_to(finish);
        }
        out.sort_by_key(|r| r.arrival);
    }

    /// Sends `request` to `server` and returns its reply: an exchange of
    /// one frame through the caller's buffers `x`, so every fault means
    /// what it means there. A duplicated request is served twice and
    /// the first reply to arrive is returned; a lost packet in either
    /// direction waits out one retransmission timeout.
    pub fn call(
        &self,
        request: Vec<u8>,
        x: &mut Exchange,
        mut server: impl FnMut(Vec<u8>) -> Vec<u8>,
    ) -> Result<Vec<u8>, WireError> {
        self.exchange_on([(self.clock.now(), request)], x, |_, bytes, out| {
            out.push(server(bytes));
            ServerCost::Serial(0)
        });
        if x.replies.is_empty() {
            return Err(self.lost());
        }
        Ok(x.replies.swap_remove(0).bytes)
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
    use std::collections::VecDeque;

    use super::ServerCost::Serial;
    use super::*;
    use crate::fault::FaultPlan;

    fn wire() -> Wire {
        Wire::new(SimClock::new(), NetParams::switched_100mbit(Transport::Udp))
    }

    /// A wire whose adversary is `adversary`.
    fn attacked(adversary: impl Interceptor + 'static) -> Wire {
        let mut w = wire();
        w.set_interceptor(Arc::new(Mutex::new(adversary)));
        w
    }

    /// A server that answers `len` zero bytes for `cpu` ns of serial CPU.
    fn zeros(len: usize, cpu: u64) -> (Vec<Vec<u8>>, ServerCost) {
        (vec![vec![0; len]], Serial(cpu))
    }

    /// One exchange of `frames` on `w` through fresh buffers.
    fn exchange(
        w: &Wire,
        frames: Vec<(SimTime, Vec<u8>)>,
        mut server: impl FnMut(u64, Vec<u8>) -> (Vec<Vec<u8>>, ServerCost),
    ) -> Vec<ExchangeReply> {
        let mut x = Exchange::default();
        w.exchange_on(frames, &mut x, |arrival, bytes, out| {
            let (replies, cost) = server(arrival, bytes);
            out.extend(replies);
            cost
        });
        x.replies
    }

    #[test]
    fn call_roundtrip_charges_time() {
        let w = wire();
        let reply = w
            .call(b"ping".to_vec(), &mut Exchange::default(), |req| {
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
        w1.call(vec![0; 100], &mut Exchange::default(), |_| vec![])
            .unwrap();
        let w2 = wire();
        w2.call(vec![0; 100_000], &mut Exchange::default(), |_| vec![])
            .unwrap();
        assert!(w2.clock().now() > w1.clock().now());
    }

    #[test]
    fn tcp_costs_more_per_message() {
        let [udp, tcp] = [Transport::Udp, Transport::Tcp].map(|t| {
            let w = Wire::new(SimClock::new(), NetParams::switched_100mbit(t));
            w.call(vec![0; 100], &mut Exchange::default(), |_| vec![0; 100])
                .unwrap();
            w.clock().now()
        });
        assert!(tcp > udp);
    }

    struct Tamperer;
    impl Interceptor for Tamperer {
        fn intercept(&mut self, dir: Direction, _: SimTime, mut bytes: Vec<u8>) -> Verdict {
            if dir == Direction::Reply {
                bytes[0] ^= 0xff;
            }
            Verdict::Deliver(bytes)
        }
    }

    #[test]
    fn interceptor_can_tamper() {
        let w = attacked(Tamperer);
        let reply = w
            .call(b"hi".to_vec(), &mut Exchange::default(), |_| {
                vec![0x00, 0x01]
            })
            .unwrap();
        assert_eq!(reply, vec![0xff, 0x01]);
    }

    struct Dropper;
    impl Interceptor for Dropper {
        fn intercept(&mut self, _: Direction, _: SimTime, _: Vec<u8>) -> Verdict {
            Verdict::Drop
        }
    }

    #[test]
    fn interceptor_can_drop() {
        let w = attacked(Dropper);
        let before = w.clock().now();
        let err = w
            .call(b"hi".to_vec(), &mut Exchange::default(), |_| vec![])
            .unwrap_err();
        assert_eq!(err, WireError::Timeout);
        // A retransmission timeout elapsed.
        assert!(w.clock().now().since(before).as_nanos() >= 1_000_000_000);
    }

    #[test]
    fn fault_plan_drop_behaves_like_timeout() {
        let w = attacked(FaultPlan::from_spec("seed=1,drop=1000").unwrap());
        let before = w.clock().now();
        assert_eq!(
            w.call(b"hi".to_vec(), &mut Exchange::default(), |_| vec![])
                .unwrap_err(),
            WireError::Timeout
        );
        assert!(w.clock().now().since(before).as_nanos() >= 1_000_000_000);
    }

    #[test]
    fn fault_plan_duplicate_invokes_server_twice() {
        let w = attacked(FaultPlan::from_spec("seed=1,dup=1000").unwrap());
        let mut calls = 0;
        // The reply transit also rolls a duplicate; that is fine — the
        // client just discards the second copy.
        let reply = w
            .call(b"q".to_vec(), &mut Exchange::default(), |_| {
                calls += 1;
                vec![calls]
            })
            .unwrap();
        assert_eq!(calls, 2, "server must process both copies");
        assert_eq!(reply, vec![1], "client sees the first reply");
    }

    #[test]
    fn fault_plan_delay_charges_extra_time() {
        let clean = wire();
        clean
            .call(vec![0; 64], &mut Exchange::default(), |_| vec![0; 64])
            .unwrap();
        let w = attacked(FaultPlan::from_spec("seed=1,delay=1000,delay_ns=5ms").unwrap());
        w.call(vec![0; 64], &mut Exchange::default(), |_| vec![0; 64])
            .unwrap();
        assert!(
            w.clock().now().as_nanos() >= clean.clock().now().as_nanos() + 10_000_000,
            "both directions should be delayed 5ms"
        );
    }

    #[test]
    fn call_and_one_frame_exchange_share_one_fate_path() {
        // Three wires: a blocking call and a one-frame exchange whose
        // caller waits out the timeout, each under its own twin of one
        // fault plan, and a one-frame exchange under a scripted adversary
        // that replays, packet by packet, the verdicts the plan gave the
        // blocking wire. A lost, duplicated or delayed packet costs all
        // three exactly the same, whoever chose its fate.
        let plan =
            || FaultPlan::from_spec("seed=7,drop=150,dup=150,delay=150,delay_ns=1ms").unwrap();
        let script = Arc::new(Mutex::new(VecDeque::new()));
        let adversaries: [Arc<Mutex<dyn Interceptor>>; 3] = [
            Arc::new(Mutex::new(Scribe {
                plan: plan(),
                script: script.clone(),
            })),
            Arc::new(Mutex::new(plan())),
            Arc::new(Mutex::new(Scripted(script.clone()))),
        ];
        let wires = adversaries.map(|adversary| {
            let mut w = wire();
            w.set_interceptor(adversary);
            let log = PacketLog::new();
            w.set_log(log.clone());
            let tel = Telemetry::counters();
            w.set_telemetry(&tel);
            (w, log, tel)
        });
        let serve = |req: Vec<u8>| vec![req[0]; 200];
        let mut x = Exchange::default();
        let mut replies = [Vec::new(), Vec::new(), Vec::new()];
        for i in 0..64u8 {
            for (k, (w, ..)) in wires.iter().enumerate() {
                replies[k].push(if k == 0 {
                    w.call(vec![i; 100], &mut x, serve).ok()
                } else {
                    let sent = w.clock().now();
                    w.exchange_on([(sent, vec![i; 100])], &mut x, |_, req, out| {
                        out.push(serve(req));
                        Serial(0)
                    });
                    if x.replies.is_empty() {
                        w.timeout_wait();
                    }
                    x.replies.first().map(|r| r.bytes.clone())
                });
            }
        }
        assert!(script.lock().is_empty(), "a verdict no packet met");
        let faults = ["net.timeouts", "net.duplicates", "net.delays"];
        let (blocking, log, tel) = &wires[0];
        for fault in faults {
            assert!(
                tel.counter("wire", fault) > 0,
                "the plan never produced {fault}"
            );
        }
        for (k, (w, l, t)) in wires.iter().enumerate().skip(1) {
            for fault in faults {
                assert_eq!(
                    t.counter("wire", fault),
                    tel.counter("wire", fault),
                    "{k} {fault}"
                );
            }
            assert_eq!(w.clock().now(), blocking.clock().now(), "wire {k}");
            assert_eq!(l.snapshot(), log.snapshot(), "wire {k}");
            assert_eq!(w.round_trips(), blocking.round_trips(), "wire {k}");
            assert_eq!(replies[k], replies[0], "wire {k}");
        }
    }

    /// Passes every packet to `plan` and appends its verdict to `script`.
    struct Scribe {
        plan: FaultPlan,
        script: Arc<Mutex<VecDeque<Verdict>>>,
    }

    impl Interceptor for Scribe {
        fn intercept(&mut self, dir: Direction, now: SimTime, bytes: Vec<u8>) -> Verdict {
            let verdict = self.plan.intercept(dir, now, bytes);
            self.script.lock().push_back(verdict.clone());
            verdict
        }
    }

    /// Gives each packet the next verdict of a script, whatever it is.
    struct Scripted(Arc<Mutex<VecDeque<Verdict>>>);

    impl Interceptor for Scripted {
        fn intercept(&mut self, _: Direction, _: SimTime, _: Vec<u8>) -> Verdict {
            self.0
                .lock()
                .pop_front()
                .expect("a verdict for every packet")
        }
    }

    #[test]
    fn server_load_scales_reply_serialization() {
        // Two streams attached to one server machine: replies take the
        // shared downlink at half rate, so the contended call is slower
        // than the uncontended one but cheaper than two full transits
        // (propagation latency is not shared).
        let free = wire();
        free.call(vec![0; 64], &mut Exchange::default(), |_| vec![0; 60_000])
            .unwrap();

        let load = ServerLoad::new();
        let mut w = wire();
        w.set_server_load(load.clone());
        let mut other = wire();
        other.set_server_load(load.clone());
        assert_eq!(load.streams(), 2);
        w.call(vec![0; 64], &mut Exchange::default(), |_| vec![0; 60_000])
            .unwrap();
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
        // does.
        let free = wire();
        let sent = free.clock().now();
        exchange(&free, vec![(sent, vec![0; 512])], |_, _| zeros(4096, 1000));
        let mut w = wire();
        w.set_server_load(ServerLoad::new());
        let sent = w.clock().now();
        exchange(&w, vec![(sent, vec![0; 512])], |_, _| zeros(4096, 1000));
        assert_eq!(w.clock().now(), free.clock().now());
    }

    #[test]
    fn packet_log_records_both_directions() {
        let mut w = wire();
        let log = PacketLog::new();
        w.set_log(log.clone());
        w.call(b"req".to_vec(), &mut Exchange::default(), |_| {
            b"rep".to_vec()
        })
        .unwrap();
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
        blocking
            .call(vec![1; 400], &mut Exchange::default(), |_| vec![2; 200])
            .unwrap();

        let w = wire();
        let sent = w.clock().now();
        let replies = exchange(&w, vec![(sent, vec![1; 400])], |_, req| {
            assert_eq!(req, vec![1u8; 400]);
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
                .call(vec![0; 8192], &mut Exchange::default(), |_| {
                    blocking.clock().advance_ns(CPU);
                    vec![0; 256]
                })
                .unwrap();
        }

        let w = wire();
        let sent = w.clock().now();
        let frames = (0..N).map(|_| (sent, vec![0; 8192])).collect();
        let replies = exchange(&w, frames, |_, _| zeros(256, CPU));
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
        let replies = exchange(&w, frames, |_, req| (vec![req], Serial(0)));
        assert_eq!(replies.len(), 4);
        for pair in replies.windows(2) {
            assert!(pair[0].arrival <= pair[1].arrival);
        }
        // The clock lands exactly on the last arrival.
        assert_eq!(w.clock().now(), replies[3].arrival);
    }

    #[test]
    fn a_streamed_exchange_hands_over_what_exchange_on_collects_in_its_order() {
        // Seeded fault mixes, a serial and a scheduled server, windows of
        // eight frames of spread lengths, back to back on twin wires: the
        // sink's replies, then the ones kept back, are exchange_on's
        // replies in exchange_on's order, at the same instants, and the
        // sink never gets one out of arrival order.
        for spec in [
            "seed=5",
            "seed=6,drop=200",
            "seed=7,dup=150,drop=100",
            "seed=8,delay=150,delay_ns=1ms",
            "seed=9,drop=100,dup=100,reorder=100,delay=100,delay_ns=300us",
        ] {
            for scheduled in [false, true] {
                let plan = || FaultPlan::from_spec(spec).unwrap();
                let (a, b) = (attacked(plan()), attacked(plan()));
                let (mut xa, mut xb) = (Exchange::default(), Exchange::default());
                for round in 0..40u64 {
                    let frames = |w: &Wire| {
                        let sent = w.clock().now();
                        (0..8u8)
                            .map(|i| (sent, vec![i; 64 + 300 * i as usize]))
                            .collect::<Vec<_>>()
                    };
                    let server = |arrival: u64, req: Vec<u8>, out: &mut Vec<Vec<u8>>| {
                        let len = 8192 - 1000 * (req[0] as usize % 3);
                        out.push(vec![req[0]; len]);
                        match scheduled {
                            false => Serial(20_000),
                            // Later frames finish first.
                            true => {
                                ServerCost::Scheduled(arrival + 400_000 - 40_000 * req[0] as u64)
                            }
                        }
                    };
                    a.exchange_on(frames(&a), &mut xa, server);
                    let mut streamed = Vec::new();
                    b.exchange_streamed(frames(&b), &mut xb, server, |r| streamed.push(r));
                    for pair in streamed.windows(2) {
                        assert!(pair[0].arrival <= pair[1].arrival, "{spec} round {round}");
                    }
                    let got: Vec<_> = streamed
                        .iter()
                        .chain(&xb.replies)
                        .map(|r| (r.arrival, r.bytes.clone()))
                        .collect();
                    let want: Vec<_> = xa
                        .replies
                        .iter()
                        .map(|r| (r.arrival, r.bytes.clone()))
                        .collect();
                    assert_eq!(got, want, "{spec} scheduled {scheduled} round {round}");
                    assert_eq!(a.clock().now(), b.clock().now());
                }
            }
        }
    }

    #[test]
    fn exchange_drop_loses_frames_without_charging_timeout() {
        let w = attacked(FaultPlan::from_spec("seed=1,drop=1000").unwrap());
        let before = w.clock().now();
        let replies = exchange(&w, vec![(before, vec![0; 64])], |_, _| {
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
        let w = attacked(FaultPlan::from_spec("seed=1,dup=1000").unwrap());
        let mut calls = 0u8;
        let sent = w.clock().now();
        let replies = exchange(&w, vec![(sent, vec![9; 32])], |_, _| {
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
        let clean = wire();
        let sent = clean.clock().now();
        exchange(&clean, vec![(sent, vec![0; 64])], |_, _| zeros(64, 0));

        let w = attacked(FaultPlan::from_spec("seed=1,delay=1000,delay_ns=5ms").unwrap());
        let sent = w.clock().now();
        exchange(&w, vec![(sent, vec![0; 64])], |_, _| zeros(64, 0));
        assert!(
            w.clock().now().as_nanos() >= clean.clock().now().as_nanos() + 10_000_000,
            "both directions should be delayed 5ms"
        );
    }
}
