//! The SFS client, `sfscd` (§2.3, §3, §3.3).
//!
//! The client master automounts remote file systems under
//! `/sfs/Location:HostID`, negotiates secure channels, relays NFS3 traffic
//! over them, and maintains the enhanced attribute/access caches: "The SFS
//! read-write protocol, while virtually identical to NFS 3, adds enhanced
//! attribute and access caching to reduce the number of NFS GETATTR and
//! ACCESS RPCs sent over the wire. … every file attribute structure
//! returned by the server has a timeout field or lease \[and\] the server
//! can call back to the client to invalidate entries before the lease
//! expires."
//!
//! Per-user agents interpose on the namespace: non-self-certifying names
//! in `/sfs` are sent to the user's agent, which may answer with an
//! on-the-fly symbolic link (§2.3); directory listings of `/sfs` only show
//! pathnames the requesting agent has actually referenced.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use sfs_bignum::RandomSource;
use sfs_crypto::rabin::{generate_keypair, RabinPrivateKey, RabinPublicKey};
use sfs_crypto::sha1::DIGEST_LEN;
use sfs_crypto::SfsPrg;
use sfs_nfs3::proto::{
    Fattr3, FileHandle, Nfs3Reply, Nfs3Request, PostOpAttr, Sattr3, StableHow, Status,
};
use sfs_proto::channel::{
    ChannelError, FrameSequencer, SecureChannelEnd, SeqPush, SuiteId, FRAME_HEADER_LEN,
};
use sfs_proto::keyneg::{
    resume_confirm, resume_secret, resume_session, KeyNegClient, KeyNegError, KeyNegServerReply,
    RESUME_NONCE_LEN,
};
use sfs_proto::pathname::{HostId, PathError, SelfCertifyingPath};
use sfs_proto::userauth::{AuthInfo, AUTHNO_ANONYMOUS};
use sfs_sim::ipc::{LocalEndpoint, LocalHandler, LocalIdentity};
use sfs_sim::{
    CpuCosts, FaultPlan, Interceptor, NetParams, PacketLog, ServerLoad, SimClock, SimTime, Wire,
    WireError,
};
use sfs_telemetry::sync::Mutex;
use sfs_telemetry::Telemetry;
use sfs_vfs::FileType;
use sfs_xdr::{Xdr, XdrEncoder};

use crate::agent::Agent;
use crate::bufpool::BufPool;
use crate::journal::{ClientJournal, JournalRecord};
use crate::server::{RoConnection, ServerConn, SfsServer};
use crate::wire::{
    sealed_env_begin, sealed_env_finish, sealed_envelope_frame, seq_env_begin, seq_env_finish,
    seq_reply_envelope, CallMsg, Dialect, InnerCall, InnerReply, ReplyMsg, Service,
    SEALED_ENV_FRAME_START, SEALED_SEQ_ENV_FRAME_START,
};

/// Default ephemeral-key size. The paper's servers used 1280-bit keys;
/// 768 keeps deterministic test runs fast while exercising identical code
/// paths.
pub const EPHEMERAL_KEY_BITS: usize = 768;

/// Maximum symlink traversals during path resolution.
const MAX_SYMLINK_DEPTH: usize = 16;

/// The read-write protocol version this client speaks (dispatched on by
/// `sfssd`, §3.2).
pub const PROTOCOL_VERSION: u32 = 1;

/// Seqno head-room journaled above the last used value. A restarted
/// client resumes at the journaled high-water mark; the slack means one
/// journal write covers the next `SEQ_HWM_SLACK` authentications instead
/// of one synchronous disk write per signed seqno.
const SEQ_HWM_SLACK: u32 = 64;

/// Default pipeline window: sealed calls allowed in flight per channel.
pub const DEFAULT_PIPELINE_WINDOW: usize = 8;

/// Block size used by streaming reads and write-behind chunking.
const STREAM_CHUNK: usize = 32_768;

/// A sequential run at least this long promotes a file to a read-ahead
/// stream (two adjacent reads establish the access pattern).
const READ_AHEAD_TRIGGER: u32 = 2;

/// Client-side reply reorder buffer capacity (frames parked waiting for
/// a cipher-order gap to fill). Must exceed any usable window.
const REORDER_BUF_CAPACITY: usize = 64;

/// Agent control-socket reply status: success.
pub const AGENT_OK: u32 = 0;
/// Agent control-socket reply status: recognised command, malformed
/// arguments. Followed by the echoed command code and a message.
pub const AGENT_ERR_BAD_ARGS: u32 = 1;
/// Agent control-socket reply status: unknown command. Followed by the
/// echoed command code (`u32::MAX` when the header itself was
/// unreadable) and a message.
pub const AGENT_ERR_UNKNOWN_CMD: u32 = 2;

/// Client-side errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// Not a valid (self-certifying) pathname.
    Path(PathError),
    /// No server answers at this Location.
    NoSuchHost(String),
    /// Network failure/timeout.
    Net(WireError),
    /// Secure-channel failure (tampering detected).
    Channel(ChannelError),
    /// Key negotiation failed (wrong key, revoked, …).
    KeyNeg(String),
    /// The server's claimed key does not hash to the pathname's HostID —
    /// self-certification failed. Retried like other negotiation errors
    /// (one corrupted hello reply must not hard-fail a mount), but a
    /// *persistent* mismatch across the retry budget means the key
    /// really was swapped.
    KeyMismatch,
    /// The pathname is revoked.
    Revoked,
    /// The user's agent has blocked this HostID.
    Blocked,
    /// The routing tier refused the dial under admission control (a
    /// cold-start reconnect storm is being metered). Transient by
    /// definition: retried with the normal reconnect backoff.
    Busy,
    /// NFS-level error.
    Nfs(Status),
    /// Too many levels of symbolic links.
    SymlinkLoop,
    /// Unexpected protocol reply.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Path(e) => write!(f, "bad pathname: {e}"),
            ClientError::NoSuchHost(l) => write!(f, "no SFS server at {l}"),
            ClientError::Net(e) => write!(f, "network: {e}"),
            ClientError::Channel(e) => write!(f, "secure channel: {e}"),
            ClientError::KeyNeg(e) => write!(f, "key negotiation: {e}"),
            ClientError::KeyMismatch => {
                write!(f, "server key fails self-certification (HostID mismatch)")
            }
            ClientError::Revoked => write!(f, "pathname revoked"),
            ClientError::Blocked => write!(f, "HostID blocked by agent"),
            ClientError::Busy => write!(f, "server busy: dial throttled by admission control"),
            ClientError::Nfs(s) => write!(f, "file system error: {s:?}"),
            ClientError::SymlinkLoop => write!(f, "too many symbolic links"),
            ClientError::Protocol(e) => write!(f, "protocol: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<PathError> for ClientError {
    fn from(e: PathError) -> Self {
        ClientError::Path(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Net(e)
    }
}

impl From<ChannelError> for ClientError {
    fn from(e: ChannelError) -> Self {
        ClientError::Channel(e)
    }
}

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

    /// A fresh wire carrying this network's adversary hooks and sink.
    fn fresh_wire(&self) -> Wire {
        let mut wire = Wire::new(self.clock.clone(), self.params);
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
    /// reconnecting client lands on a surviving replica.
    pub fn dial(&self, location: &str) -> Option<(Wire, ServerConn)> {
        self.dial_checked(location).ok()
    }

    /// [`Self::dial`] distinguishing *why* a dial yielded no connection:
    /// an unknown/empty Location is [`ClientError::NoSuchHost`] (fatal to
    /// the caller's retry loop), while a router metering a reconnect
    /// storm is [`ClientError::Busy`] (retried with backoff).
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
        let mut wire = self.fresh_wire();
        if let Some(load) = load {
            wire.set_server_load(load);
        }
        Ok((wire, conn))
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
        let mut wire = self.fresh_wire();
        if let Some(load) = load {
            wire.set_server_load(load);
        }
        Some((wire, conn))
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

#[derive(Clone)]
struct CachedAttr {
    attr: Fattr3,
    expires: SimTime,
}

/// Per-file sequential-stream detector plus read-ahead buffer. A run of
/// adjacent reads turns the file into a stream: the client batches a
/// whole window of READs, serves the first, and parks the rest here for
/// the accesses it predicts are coming.
struct StreamState {
    /// Where the next sequential read is expected to land.
    next_offset: u64,
    /// Consecutive sequential reads observed so far.
    run: u32,
    /// Prefetched blocks by offset, with the server's eof flag.
    prefetch: BTreeMap<u64, (Vec<u8>, bool)>,
}

/// One negotiated connection to a server: the wire, the server-side
/// connection object, the secure channel, and that session's identity.
/// Replaced wholesale when the client reconnects after a channel death
/// or server restart.
struct Link {
    wire: Wire,
    conn: ServerConn,
    channel: SecureChannelEnd,
    /// Buffer freelist shared with `conn` (the loopback server end), so
    /// sealed request/reply buffers circulate between the two sides.
    pool: Arc<BufPool>,
    session_id: [u8; 20],
    /// The server public key that passed self-certification for this
    /// link (journaled with the mount so recovery can cross-check).
    server_key: Vec<u8>,
    /// Bumped on every reconnect; lets concurrent callers detect that a
    /// renegotiation already happened.
    generation: u64,
}

/// Client-held half of a session-resumption ticket: the server's opaque
/// sealed blob plus the resumption secret it certifies (derived from the
/// session that minted it — the client cannot read the blob itself) and
/// the cipher suite that session negotiated. Single-use: taken from the
/// cache on a resume attempt, replaced by the rotated ticket on success.
struct ResumeState {
    ticket: Vec<u8>,
    secret: [u8; DIGEST_LEN],
    suite: SuiteId,
}

/// One mounted remote file system.
pub struct Mount {
    /// The self-certifying pathname this mount serves.
    pub path: SelfCertifyingPath,
    link: Mutex<Link>,
    root_fh: Mutex<FileHandle>,
    /// Per-uid authentication numbers (valid for the current link only).
    authnos: Mutex<HashMap<u32, u32>>,
    /// Monotonic across reconnects: the server's fresh seqno window
    /// accepts any forward jump, and never reusing a seqno keeps the
    /// §3.1.3 freshness guarantee intact through renegotiations.
    next_seq: AtomicU32,
    /// Journaled seqno ceiling: every seqno below it is covered by a
    /// durable [`JournalRecord::SeqHwm`], so a restarted client resuming
    /// at the mark can never reuse one.
    seq_hwm: AtomicU32,
    attr_cache: Mutex<HashMap<Vec<u8>, CachedAttr>>,
    access_cache: Mutex<HashMap<AccessKey, CachedAttr>>,
    /// Round trips accumulated on wires discarded by reconnects.
    prior_round_trips: AtomicU64,
    reconnects: AtomicU64,
    /// Read-ahead state per file handle (bytes).
    streams: Mutex<HashMap<Vec<u8>, StreamState>>,
    /// Write-behind queue: writes accepted locally but not yet issued,
    /// flushed as one pipelined window at the next barrier.
    wb_queue: Mutex<Vec<(u32, Nfs3Request)>>,
}

/// Access-cache key: (file handle bytes, uid, requested mask).
type AccessKey = (Vec<u8>, u32, u32);

impl Mount {
    /// The root file handle.
    pub fn root(&self) -> FileHandle {
        self.root_fh.lock().clone()
    }

    /// Network round trips taken through this mount (across all
    /// connections, including ones torn down by reconnects).
    pub fn round_trips(&self) -> u64 {
        self.prior_round_trips.load(Ordering::SeqCst) + self.link.lock().wire.round_trips()
    }

    /// The current session ID (changes on every rekey).
    pub fn session_id(&self) -> [u8; 20] {
        self.link.lock().session_id
    }

    /// The next authentication seqno this mount will sign. Monotone
    /// across reconnects and failovers by construction; exposed so tests
    /// can assert it never moves backwards.
    pub fn seqno(&self) -> u32 {
        self.next_seq.load(Ordering::SeqCst)
    }

    /// How many times this mount has reconnected and renegotiated keys.
    pub fn reconnects(&self) -> u64 {
        self.reconnects.load(Ordering::SeqCst)
    }

    /// The next authentication seqno this mount will use. Strictly
    /// monotonic across reconnects *and* — via the journal — across
    /// client crash-restarts.
    pub fn seq_watermark(&self) -> u32 {
        self.next_seq.load(Ordering::SeqCst)
    }

    fn generation(&self) -> u64 {
        self.link.lock().generation
    }

    /// Replaces the live link with `link`, folding the retired wire's
    /// round-trip count into the running total. This is the *only* place
    /// that touches `prior_round_trips`, so an aborted exchange whose
    /// wire is torn down mid-window is counted exactly once.
    fn install_link(&self, guard: &mut Link, link: Link) {
        self.prior_round_trips
            .fetch_add(guard.wire.round_trips(), Ordering::SeqCst);
        *guard = link;
    }
}

impl std::fmt::Debug for Mount {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Mount({})", self.path.dir_name())
    }
}

/// How the client paces retransmissions and reconnects (all in virtual
/// time). Retransmission resends the *identical* sealed frame — the
/// ARC4 streams mean a fresh seal would never line up with the server's
/// cipher position — so only request-direction losses are recoverable
/// in place; anything that desynchronises the streams escalates to a
/// full reconnect with key renegotiation.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Identical-frame retransmissions per RPC before escalating to a
    /// reconnect.
    pub max_retransmits: u32,
    /// Reconnect-and-reissue rounds per RPC before giving up.
    pub max_reconnects: u32,
    /// First backoff, ns (doubles per attempt).
    pub base_backoff_ns: u64,
    /// Backoff ceiling, ns.
    pub max_backoff_ns: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retransmits: 5,
            max_reconnects: 8,
            base_backoff_ns: 100_000_000,
            max_backoff_ns: 10_000_000_000,
        }
    }
}

/// What [`SfsClient::recover`] restored from the journal after a
/// crash-restart.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Raw journal records replayed (before folding).
    pub records_replayed: u64,
    /// Mount directory names successfully re-established (server key
    /// re-verified against the journaled HostID).
    pub remounted: Vec<String>,
    /// Mounts refused, with the reason. Self-certification is the
    /// recovery check: a HostID whose server no longer proves the
    /// journaled identity stays unmounted.
    pub refused: Vec<(String, String)>,
    /// How many refusals were specifically key-mismatch refusals.
    pub key_mismatch_refusals: u64,
    /// Agent private keys reinstalled from the journal.
    pub agent_keys_restored: u64,
    /// Agent dynamic links recreated from the journal.
    pub agent_links_restored: u64,
}

/// The SFS client (one per client machine).
pub struct SfsClient {
    clock: SimClock,
    net: Arc<SfsNetwork>,
    cpu: Option<CpuCosts>,
    ephemeral: Mutex<RabinPrivateKey>,
    rng: Mutex<SfsPrg>,
    retry: Mutex<RetryPolicy>,
    /// xorshift64* state for deterministic backoff jitter (seeded from
    /// the client's entropy, independent of the crypto generator so
    /// retry timing never perturbs key material).
    jitter: AtomicU64,
    agents: Mutex<HashMap<u32, Arc<Mutex<Agent>>>>,
    mounts: Mutex<HashMap<String, Arc<Mount>>>,
    /// Which self-certifying names each agent (uid) has referenced — the
    /// `/sfs` listing filter of §2.3.
    referenced: Mutex<HashMap<u32, BTreeSet<String>>>,
    caching: AtomicBool,
    charge_crypto: AtomicBool,
    /// How many sealed calls may be in flight at once on a mount's
    /// channel. 1 degenerates to the blocking request/reply protocol.
    pipeline_window: AtomicUsize,
    attr_hits: AtomicU64,
    attr_misses: AtomicU64,
    /// Cipher suites offered in every hello, in preference order. The
    /// default offers only the paper's ARC4+SHA-1 baseline, keeping the
    /// handshake byte-identical to the original protocol.
    suite_offer: Mutex<Vec<SuiteId>>,
    /// Whether reconnects may shortcut the handshake with a resumption
    /// ticket. Off forces the full Figure-3 negotiation every time (the
    /// benchmark control arm).
    resumption: AtomicBool,
    /// Live resumption tickets, one per server HostID.
    tickets: Mutex<HashMap<HostId, ResumeState>>,
    resume_hits: AtomicU64,
    resume_misses: AtomicU64,
    resume_rejected: AtomicU64,
    /// Crash-surviving state journal (None: diskless client, nothing
    /// persisted — the paper's original behaviour).
    journal: Mutex<Option<ClientJournal>>,
    /// Test hook: when set, piggybacked invalidations are dropped on the
    /// floor instead of applied. Exists so the coherence oracle can prove
    /// it detects the stale reads this bug causes.
    ignore_invalidations: AtomicBool,
    tel: Mutex<Telemetry>,
}

impl SfsClient {
    /// Creates a client on `net`, seeding its generator and ephemeral key
    /// from `entropy`.
    pub fn new(net: Arc<SfsNetwork>, entropy: &[u8]) -> Arc<Self> {
        let mut rng = SfsPrg::from_entropy(entropy);
        let ephemeral = generate_keypair(EPHEMERAL_KEY_BITS, &mut rng);
        Self::with_ephemeral_rng(net, entropy, ephemeral, rng)
    }

    /// Creates a client with a caller-supplied ephemeral key (tests use a
    /// precomputed key to skip the prime search; the code paths exercised
    /// afterwards are identical).
    pub fn with_ephemeral(
        net: Arc<SfsNetwork>,
        entropy: &[u8],
        ephemeral: RabinPrivateKey,
    ) -> Arc<Self> {
        let rng = SfsPrg::from_entropy(entropy);
        Self::with_ephemeral_rng(net, entropy, ephemeral, rng)
    }

    fn with_ephemeral_rng(
        net: Arc<SfsNetwork>,
        entropy: &[u8],
        ephemeral: RabinPrivateKey,
        rng: SfsPrg,
    ) -> Arc<Self> {
        // Fold the entropy into a nonzero jitter seed.
        let seed = entropy.iter().fold(0x9E37_79B9u64, |acc, &b| {
            acc.rotate_left(8) ^ u64::from(b).wrapping_mul(0x100_0193)
        }) | 1;
        Arc::new(SfsClient {
            clock: net.clock().clone(),
            net,
            cpu: None,
            ephemeral: Mutex::new(ephemeral),
            rng: Mutex::new(rng),
            retry: Mutex::new(RetryPolicy::default()),
            jitter: AtomicU64::new(seed),
            agents: Mutex::new(HashMap::new()),
            mounts: Mutex::new(HashMap::new()),
            referenced: Mutex::new(HashMap::new()),
            caching: AtomicBool::new(true),
            charge_crypto: AtomicBool::new(true),
            pipeline_window: AtomicUsize::new(DEFAULT_PIPELINE_WINDOW),
            attr_hits: AtomicU64::new(0),
            attr_misses: AtomicU64::new(0),
            suite_offer: Mutex::new(vec![SuiteId::Arc4Sha1]),
            resumption: AtomicBool::new(true),
            tickets: Mutex::new(HashMap::new()),
            resume_hits: AtomicU64::new(0),
            resume_misses: AtomicU64::new(0),
            resume_rejected: AtomicU64::new(0),
            journal: Mutex::new(None),
            ignore_invalidations: AtomicBool::new(false),
            tel: Mutex::new(Telemetry::disabled()),
        })
    }

    /// Attaches a tracing sink: client-side spans (mounts, key
    /// negotiation, sealed calls), cache counters, and CPU-charge
    /// counters report into it, stamped with the client's virtual clock.
    /// Also propagates to the network so newly dialed wires trace.
    pub fn set_telemetry(&self, tel: &Telemetry) {
        *self.tel.lock() = tel.clone().with_clock(self.clock.clone());
        self.net.set_telemetry(tel);
    }

    fn tel(&self) -> Telemetry {
        self.tel.lock().clone()
    }

    /// Creates a client that charges CPU costs to the virtual clock (the
    /// benchmark configuration).
    pub fn with_costs(net: Arc<SfsNetwork>, entropy: &[u8], cpu: CpuCosts) -> Arc<Self> {
        let client = Self::new(net, entropy);
        // Safe: sole owner at this point.
        let mut c = Arc::try_unwrap(client).unwrap_or_else(|_| unreachable!("sole owner"));
        c.cpu = Some(cpu);
        Arc::new(c)
    }

    /// Replaces the retransmission/reconnect pacing policy.
    pub fn set_retry_policy(&self, policy: RetryPolicy) {
        *self.retry.lock() = policy;
    }

    /// Sets the cipher suites offered in hellos, in preference order.
    /// The paper-parity baseline (ARC4+SHA-1) is always offered last
    /// even if absent from `suites`, so negotiation cannot dead-end.
    pub fn set_suite_offer(&self, suites: &[SuiteId]) {
        let mut offer = suites.to_vec();
        if !offer.contains(&SuiteId::Arc4Sha1) {
            offer.push(SuiteId::Arc4Sha1);
        }
        *self.suite_offer.lock() = offer;
    }

    /// Enables or disables ticket resumption on reconnect. Disabled,
    /// every reconnect pays the full Figure-3 handshake (two round trips
    /// plus a Rabin decryption on the server).
    pub fn set_resumption(&self, on: bool) {
        self.resumption.store(on, Ordering::SeqCst);
    }

    /// Resumption outcomes so far: `(hits, misses, rejected)` — resumes
    /// that succeeded, reconnects with no ticket in hand, and tickets
    /// the server turned down (each of those fell back to a full
    /// handshake).
    pub fn resume_stats(&self) -> (u64, u64, u64) {
        (
            self.resume_hits.load(Ordering::SeqCst),
            self.resume_misses.load(Ordering::SeqCst),
            self.resume_rejected.load(Ordering::SeqCst),
        )
    }

    fn retry_policy(&self) -> RetryPolicy {
        *self.retry.lock()
    }

    /// Waits out one exponential-backoff interval with ±25% deterministic
    /// jitter, charged to the virtual clock.
    fn backoff(&self, attempt: u32) {
        let policy = self.retry_policy();
        let exp = policy
            .base_backoff_ns
            .saturating_mul(1u64 << attempt.min(16))
            .min(policy.max_backoff_ns);
        let spread = exp / 4;
        // xorshift64* step on the shared jitter state.
        let mut x = self.jitter.load(Ordering::SeqCst);
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.jitter.store(x, Ordering::SeqCst);
        let r = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
        let ns = exp - spread + r % (2 * spread + 1).max(1);
        let tel = self.tel();
        tel.count("client", "retry.backoffs", 1);
        tel.instant_kv("client", "core.client", "backoff", "ns", ns);
        self.clock.advance_ns(ns);
    }

    /// Enables or disables the enhanced attribute/access caching (the
    /// §4.3 ablation: "without enhanced caching, MAB takes a total of 6.6
    /// seconds").
    pub fn set_caching(&self, on: bool) {
        self.caching.store(on, Ordering::SeqCst);
    }

    /// Enables or disables charging software-encryption CPU cost (the
    /// "SFS w/o encryption" rows of Figures 5–9). The cryptography still
    /// runs — only its simulated cost toggles.
    pub fn set_charge_crypto(&self, on: bool) {
        self.charge_crypto.store(on, Ordering::SeqCst);
    }

    /// Sets the pipeline window: how many sealed calls may be in flight
    /// on a channel at once. "Multiple outstanding requests can overlap
    /// the latency of NFS RPCs" (§4.2) — read-ahead, write-behind, and
    /// batched calls all issue up to this many frames before waiting.
    /// 1 restores the strict blocking request/reply protocol.
    pub fn set_pipeline_window(&self, window: usize) {
        self.pipeline_window.store(window.max(1), Ordering::SeqCst);
    }

    /// The current pipeline window.
    pub fn pipeline_window(&self) -> usize {
        self.pipeline_window.load(Ordering::SeqCst).max(1)
    }

    /// (attribute-cache hits, misses) so far.
    pub fn attr_cache_stats(&self) -> (u64, u64) {
        (
            self.attr_hits.load(Ordering::SeqCst),
            self.attr_misses.load(Ordering::SeqCst),
        )
    }

    /// Total network round trips across all mounts.
    pub fn network_rpcs(&self) -> u64 {
        self.mounts.lock().values().map(|m| m.round_trips()).sum()
    }

    /// The shared clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Returns (creating if necessary) the agent for `uid`. "Every user on
    /// an SFS client runs an unprivileged agent program of his choice."
    pub fn agent(&self, uid: u32) -> Arc<Mutex<Agent>> {
        self.agents
            .lock()
            .entry(uid)
            .or_insert_with(|| Arc::new(Mutex::new(Agent::new())))
            .clone()
    }

    /// Installs a caller-built agent for `uid` ("users can replace their
    /// agents at will").
    pub fn set_agent(&self, uid: u32, agent: Arc<Mutex<Agent>>) {
        self.agents.lock().insert(uid, agent);
    }

    /// The `ssu` utility (§2.3 footnote): maps operations performed in a
    /// super-user shell (uid 0) to `user`'s own agent, so `su` does not
    /// orphan the session from its keys.
    pub fn ssu(&self, user: u32) {
        let agent = self.agent(user);
        self.agents.lock().insert(0, agent);
    }

    /// The client master's protected local socket (§3.2): agent programs
    /// connect through the `suidconnect` equivalent, which attests the
    /// caller's uid. Each request operates on *that* uid's agent state —
    /// "the agent program connects to the client master through this
    /// mechanism, and thus needs no special privileges; users can replace
    /// it at will."
    ///
    /// Wire format (XDR): command 0 = create link (name, target);
    /// command 1 = list this agent's `/sfs` view. Replies are XDR too:
    /// [`AGENT_OK`] followed by the result, or an error status
    /// ([`AGENT_ERR_BAD_ARGS`] / [`AGENT_ERR_UNKNOWN_CMD`]) followed by
    /// the echoed command code (`u32::MAX` when the header itself was
    /// unreadable) and a human-readable message — a structured code a
    /// replacement agent can dispatch on, not just a string.
    pub fn agent_socket(self: &Arc<Self>) -> LocalEndpoint {
        struct Handler {
            client: Arc<SfsClient>,
        }
        fn agent_error(status: u32, cmd: u32, msg: &str) -> Vec<u8> {
            let mut enc = sfs_xdr::XdrEncoder::new();
            enc.put_u32(status).put_u32(cmd).put_string(msg);
            enc.into_bytes()
        }
        impl LocalHandler for Handler {
            fn handle(&mut self, from: LocalIdentity, payload: &[u8]) -> Vec<u8> {
                let mut dec = sfs_xdr::XdrDecoder::new(payload);
                let mut enc = sfs_xdr::XdrEncoder::new();
                match dec.get_u32() {
                    Ok(0) => {
                        let (name, target) = match (dec.get_string(), dec.get_string()) {
                            (Ok(n), Ok(t)) => (n, t),
                            _ => return agent_error(AGENT_ERR_BAD_ARGS, 0, "bad link request"),
                        };
                        self.client.create_agent_link(from.uid(), &name, &target);
                        enc.put_u32(AGENT_OK);
                    }
                    Ok(1) => {
                        let names = self.client.list_sfs(from.uid());
                        enc.put_u32(AGENT_OK);
                        enc.put_u32(names.len() as u32);
                        for n in &names {
                            enc.put_string(n);
                        }
                    }
                    Ok(cmd) => {
                        return agent_error(AGENT_ERR_UNKNOWN_CMD, cmd, "unknown agent command");
                    }
                    Err(_) => {
                        return agent_error(
                            AGENT_ERR_UNKNOWN_CMD,
                            u32::MAX,
                            "unreadable command header",
                        );
                    }
                }
                enc.into_bytes()
            }
        }
        LocalEndpoint::new(Arc::new(Mutex::new(Handler {
            client: self.clone(),
        })))
    }

    /// Discards and regenerates the ephemeral key K_C ("clients discard
    /// and regenerate K_C at regular intervals (every hour by default)").
    /// Existing sessions are unaffected; new mounts use the fresh key.
    pub fn rotate_ephemeral(&self) {
        let mut rng = self.rng.lock();
        let fresh = generate_keypair(EPHEMERAL_KEY_BITS, &mut *rng);
        *self.ephemeral.lock() = fresh;
    }

    /// Drops all mounts (used by tests simulating reconnects).
    pub fn unmount_all(&self) {
        self.mounts.lock().clear();
    }

    /// Mounts a file system via the read-only dialect (§2.4): the server
    /// proves contents with precomputed signatures, so this works against
    /// untrusted replicas and costs the server no private-key operations.
    pub fn mount_read_only(
        &self,
        path: &SelfCertifyingPath,
    ) -> Result<crate::roclient::RoMount, ClientError> {
        // A routed dial may land on a down replica; retry a few times so
        // the router can work through the group before we give up.
        let mut last = ClientError::NoSuchHost(path.location.clone());
        for _ in 0..4 {
            let Some((wire, conn)) = self.net.dial_ro(&path.location) else {
                return Err(ClientError::NoSuchHost(path.location.clone()));
            };
            match crate::roclient::RoMount::connect(path.clone(), wire, conn) {
                Ok(mount) => {
                    let net = self.net.clone();
                    let location = path.location.clone();
                    mount.set_redial(Box::new(move || net.dial_ro(&location)));
                    return Ok(mount);
                }
                Err(e) => last = ClientError::Protocol(e.to_string()),
            }
        }
        Err(last)
    }

    /// Drops one cached mount and establishes a fresh connection (the
    /// recovery path after a poisoned channel: tampering aborts a session,
    /// and a new key negotiation starts over).
    pub fn remount(&self, uid: u32, path: &SelfCertifyingPath) -> Result<Arc<Mount>, ClientError> {
        self.mounts.lock().remove(&path.dir_name());
        self.mount(uid, path)
    }

    /// Appends a record if a journal is attached (diskless clients
    /// journal nothing).
    fn journal_record(&self, rec: &JournalRecord) {
        if let Some(j) = &*self.journal.lock() {
            j.append(rec);
        }
    }

    /// Journals a seqno high-water mark *before* `seq` is used, whenever
    /// `seq` crosses the durable ceiling. The [`SEQ_HWM_SLACK`] head-room
    /// amortizes the synchronous write over many authentications.
    fn note_seq(&self, mount: &Mount, seq: u32) {
        if self.journal.lock().is_none() {
            return;
        }
        if seq >= mount.seq_hwm.load(Ordering::SeqCst) {
            let hwm = seq.saturating_add(SEQ_HWM_SLACK);
            self.journal_record(&JournalRecord::SeqHwm {
                dir_name: mount.path.dir_name(),
                hwm,
            });
            mount.seq_hwm.store(hwm, Ordering::SeqCst);
        }
    }

    /// Attaches a crash-surviving state journal. Current state — agent
    /// keys and links, established mounts, seqno watermarks — is
    /// snapshotted into it immediately (in deterministic uid/dir-name
    /// order), so attaching mid-life loses nothing; subsequent mounts,
    /// key installs, link creations, and seqno crossings append
    /// incrementally.
    pub fn attach_journal(&self, journal: ClientJournal) {
        {
            let agents = self.agents.lock();
            let mut uids: Vec<u32> = agents.keys().copied().collect();
            uids.sort_unstable();
            for uid in uids {
                let agent = agents[&uid].lock();
                for key in agent.export_keys() {
                    journal.append(&JournalRecord::AgentKey { uid, key });
                }
                let mut links: Vec<(String, String)> = agent
                    .links()
                    .map(|(n, t)| (n.to_string(), t.to_string()))
                    .collect();
                links.sort();
                for (name, target) in links {
                    journal.append(&JournalRecord::AgentLink { uid, name, target });
                }
            }
        }
        {
            let mounts = self.mounts.lock();
            let mut names: Vec<String> = mounts.keys().cloned().collect();
            names.sort();
            for name in names {
                let m = &mounts[&name];
                journal.append(&JournalRecord::Mount {
                    location: m.path.location.clone(),
                    host_id: m.path.host_id,
                    server_key: m.link.lock().server_key.clone(),
                });
                let hwm = m
                    .next_seq
                    .load(Ordering::SeqCst)
                    .saturating_add(SEQ_HWM_SLACK);
                journal.append(&JournalRecord::SeqHwm {
                    dir_name: name,
                    hwm,
                });
                m.seq_hwm.store(hwm, Ordering::SeqCst);
            }
        }
        *self.journal.lock() = Some(journal);
    }

    /// Installs a private key into `uid`'s agent *and* journals it, so a
    /// restarted client restores the key without re-running SRP.
    pub fn install_agent_key(&self, uid: u32, key: RabinPrivateKey) {
        self.journal_record(&JournalRecord::AgentKey {
            uid,
            key: key.to_bytes(),
        });
        self.agent(uid).lock().add_key(key);
    }

    /// Creates a dynamic `/sfs` link in `uid`'s agent and journals it.
    pub fn create_agent_link(&self, uid: u32, name: &str, target: &str) {
        self.journal_record(&JournalRecord::AgentLink {
            uid,
            name: name.to_string(),
            target: target.to_string(),
        });
        self.agent(uid).lock().create_link(name, target);
    }

    /// Test hook for the coherence oracle's self-test: drop piggybacked
    /// invalidations instead of applying them, simulating the stale-read
    /// bug the oracle must be able to detect.
    #[doc(hidden)]
    pub fn set_ignore_invalidations(&self, ignore: bool) {
        self.ignore_invalidations.store(ignore, Ordering::SeqCst);
    }

    /// Recovers client state after a crash-restart from the attached
    /// journal: restores agent keys and links first (remounts may need
    /// them), then re-establishes each journaled mount by re-running the
    /// full key negotiation against the recorded HostID. Mounts whose
    /// server no longer proves the journaled identity are refused —
    /// self-certification, not the journal, is the trust decision. Seqno
    /// counters resume at the journaled high-water mark so no signed
    /// seqno is ever reused; caches start cold by construction (nothing
    /// lease-related is journaled).
    pub fn recover(&self, uid: u32) -> Result<RecoveryReport, ClientError> {
        let tel = self.tel();
        let _span = tel.span("client", "core.client", "recover");
        let journal = self.journal.lock().clone();
        let Some(journal) = journal else {
            return Err(ClientError::Protocol("recover: no journal attached".into()));
        };
        let state = journal.replay().map_err(ClientError::Protocol)?;
        tel.count("client", "client.recovery.journal_replays", 1);
        let mut report = RecoveryReport {
            records_replayed: state.records,
            ..RecoveryReport::default()
        };
        // Agent state first: the remounts below may need the restored
        // keys to re-authenticate.
        for (agent_uid, keys) in &state.agent_keys {
            let agent = self.agent(*agent_uid);
            let mut agent = agent.lock();
            for key in keys {
                if let Ok(k) = RabinPrivateKey::from_bytes(key) {
                    agent.add_key(k);
                    report.agent_keys_restored += 1;
                }
            }
        }
        for (agent_uid, links) in &state.agent_links {
            let agent = self.agent(*agent_uid);
            let mut agent = agent.lock();
            for (name, target) in links {
                agent.create_link(name, target);
                report.agent_links_restored += 1;
            }
        }
        tel.count(
            "client",
            "client.recovery.agent_keys",
            report.agent_keys_restored,
        );
        tel.count(
            "client",
            "client.recovery.agent_links",
            report.agent_links_restored,
        );
        for rm in &state.mounts {
            let path = SelfCertifyingPath {
                location: rm.location.clone(),
                host_id: rm.host_id,
            };
            // A journal whose recorded key does not even hash to its own
            // recorded HostID is corrupt: fail closed without dialing.
            let journal_consistent = RabinPublicKey::from_bytes(&rm.server_key)
                .map(|k| path.certifies(&k))
                .unwrap_or(false);
            if !journal_consistent {
                report.key_mismatch_refusals += 1;
                report.refused.push((
                    path.dir_name(),
                    "journaled key fails self-certification".to_string(),
                ));
                continue;
            }
            match self.mount(uid, &path) {
                Ok(mount) => {
                    if let Some(&hwm) = state.seq_hwm.get(&path.dir_name()) {
                        mount.next_seq.store(hwm.max(1), Ordering::SeqCst);
                        mount.seq_hwm.store(hwm, Ordering::SeqCst);
                    }
                    report.remounted.push(path.dir_name());
                }
                Err(ClientError::KeyMismatch) => {
                    report.key_mismatch_refusals += 1;
                    report
                        .refused
                        .push((path.dir_name(), ClientError::KeyMismatch.to_string()));
                }
                Err(e @ (ClientError::Revoked | ClientError::Blocked)) => {
                    report.refused.push((path.dir_name(), e.to_string()));
                }
                Err(e) => return Err(e),
            }
        }
        tel.count(
            "client",
            "client.recovery.remounts",
            report.remounted.len() as u64,
        );
        tel.count(
            "client",
            "client.recovery.key_mismatch_refusals",
            report.key_mismatch_refusals,
        );
        Ok(report)
    }

    fn charge_crossing(&self) {
        if let Some(cpu) = &self.cpu {
            self.tel.lock().count("client", "cpu.crossings", 1);
            cpu.charge_user_crossing(&self.clock);
        }
    }

    fn charge_user_copy(&self, len: usize) {
        if let Some(cpu) = &self.cpu {
            self.tel
                .lock()
                .count("client", "cpu.user_copy_bytes", len as u64);
            cpu.charge_user_copy(&self.clock, len);
        }
    }

    fn charge_rpc(&self) {
        if let Some(cpu) = &self.cpu {
            self.tel.lock().count("client", "cpu.rpc_charges", 1);
            cpu.charge_rpc(&self.clock);
        }
    }

    fn charge_server_copy(&self, len: usize) {
        if let Some(cpu) = &self.cpu {
            self.tel
                .lock()
                .count("server", "cpu.server_copy_bytes", len as u64);
            cpu.charge_server_copy(&self.clock, len);
        }
    }

    fn charge_crypto_cost(&self, suite: SuiteId, len: usize) {
        if let Some(cpu) = &self.cpu {
            if self.charge_crypto.load(Ordering::SeqCst) {
                self.tel
                    .lock()
                    .count("client", "cpu.crypto_bytes", len as u64);
                let (num, den) = suite.cost_ratio();
                cpu.charge_crypto_scaled(&self.clock, len, num, den);
            }
        }
    }

    /// Mounts (or returns the cached mount of) a self-certifying
    /// pathname, running the full key negotiation on first access.
    pub fn mount(&self, uid: u32, path: &SelfCertifyingPath) -> Result<Arc<Mount>, ClientError> {
        // Per-agent policy first: revoked or blocked HostIDs never mount.
        let agent = self.agent(uid);
        if agent.lock().refuses(path.host_id) {
            return Err(ClientError::Blocked);
        }
        self.referenced
            .lock()
            .entry(uid)
            .or_default()
            .insert(path.dir_name());
        if let Some(m) = self.mounts.lock().get(&path.dir_name()) {
            return Ok(m.clone());
        }

        let tel = self.tel();
        let _mount_span = tel.span("client", "core.client", "mount");
        let link = self.negotiate_with_retry(path, &agent, 0)?;
        let mount = Arc::new(Mount {
            path: path.clone(),
            link: Mutex::new(link),
            root_fh: Mutex::new(FileHandle(Vec::new())),
            authnos: Mutex::new(HashMap::new()),
            next_seq: AtomicU32::new(1),
            seq_hwm: AtomicU32::new(0),
            attr_cache: Mutex::new(HashMap::new()),
            access_cache: Mutex::new(HashMap::new()),
            prior_round_trips: AtomicU64::new(0),
            reconnects: AtomicU64::new(0),
            streams: Mutex::new(HashMap::new()),
            wb_queue: Mutex::new(Vec::new()),
        });
        // Fetch the root handle over the authenticated channel (the
        // sealed-call retry machinery already protects this first RPC).
        let root = match self.sealed_call(&mount, InnerCall::Mount)? {
            InnerReply::MountReply { root } => root,
            other => return Err(ClientError::Protocol(format!("bad mount reply: {other:?}"))),
        };
        *mount.root_fh.lock() = root;
        self.mounts.lock().insert(path.dir_name(), mount.clone());
        self.journal_record(&JournalRecord::Mount {
            location: path.location.clone(),
            host_id: path.host_id,
            server_key: mount.link.lock().server_key.clone(),
        });
        Ok(mount)
    }

    /// Runs the full Figure-3 key negotiation on a freshly dialed
    /// connection, producing a ready [`Link`].
    fn negotiate_once(
        &self,
        path: &SelfCertifyingPath,
        agent: &Arc<Mutex<Agent>>,
        generation: u64,
    ) -> Result<Link, ClientError> {
        let tel = self.tel();
        let (wire, conn) = self.net.dial_checked(&path.location)?;

        // Key negotiation (Figure 3), one span per phase.
        let keyneg_span = tel.span("client", "proto.keyneg", "negotiate");
        let ephemeral = self.ephemeral.lock().clone();
        let offer = self.suite_offer.lock().clone();
        let neg = KeyNegClient::with_suites(path.clone(), ephemeral, &offer);
        let hello = CallMsg::Hello {
            req: neg.hello(),
            service: Service::File,
            dialect: Dialect::ReadWrite,
            version: PROTOCOL_VERSION,
            extensions: neg.offer_extensions(),
        };
        let phase = tel.span("client", "proto.keyneg", "hello");
        let reply = self.raw_call(&wire, &conn, hello)?;
        drop(phase);
        let ReplyMsg::ServerReply(server_reply) = reply else {
            return Err(ClientError::Protocol("expected server key".into()));
        };
        let server_key = match &server_reply {
            KeyNegServerReply::ServerKey(k) => k.clone(),
            _ => Vec::new(),
        };
        let phase = tel.span("client", "proto.keyneg", "verify_server_key");
        let mut rng = self.rng.lock();
        let (awaiting, msg3) = neg.on_server_reply(&server_reply, &mut *rng).map_err(|e| {
            if let KeyNegError::Revoked(cert) = &e {
                // Remember the revocation in the agent so future accesses
                // fail fast, and so it shows as a `:REVOKED:` link.
                agent.lock().submit_revocation(*cert.clone());
            }
            match e {
                KeyNegError::Revoked(_) => ClientError::Revoked,
                KeyNegError::HostIdMismatch => ClientError::KeyMismatch,
                other => ClientError::KeyNeg(other.to_string()),
            }
        })?;
        drop(rng);
        drop(phase);
        let phase = tel.span("client", "proto.keyneg", "client_keys");
        let reply = self.raw_call(&wire, &conn, CallMsg::ClientKeys(msg3))?;
        drop(phase);
        let ReplyMsg::ServerKeys(msg4) = reply else {
            return Err(ClientError::Protocol("expected server key halves".into()));
        };
        let phase = tel.span("client", "proto.keyneg", "session_keys");
        let (keys, suite) = awaiting
            .on_server_halves(&msg4)
            .map_err(|e| ClientError::KeyNeg(e.to_string()))?;
        drop(phase);
        drop(keyneg_span);
        tel.count("client", "keyneg.completed", 1);
        // Bank the server's resumption ticket for later reconnects.
        if !msg4.ticket.is_empty() && self.resumption.load(Ordering::SeqCst) {
            self.tickets.lock().insert(
                path.host_id,
                ResumeState {
                    ticket: msg4.ticket,
                    secret: resume_secret(&keys),
                    suite,
                },
            );
        }
        let mut channel = SecureChannelEnd::client_with_suite(&keys, suite);
        channel.set_telemetry(tel.clone());
        let pool = conn.buf_pool().clone();
        pool.set_telemetry(tel.clone());
        Ok(Link {
            wire,
            conn,
            channel,
            pool,
            session_id: keys.session_id,
            server_key,
            generation,
        })
    }

    /// Attempts a one-round-trip session resumption on a freshly dialed
    /// connection using `rs` (a banked ticket). Any failure — transport,
    /// server rejection, or a bad confirmation — simply reports an error;
    /// the caller falls back to the full handshake. The ticket was
    /// already taken from the cache, so a failed attempt cannot loop.
    fn resume_once(
        &self,
        path: &SelfCertifyingPath,
        rs: &ResumeState,
        server_key: Vec<u8>,
        generation: u64,
    ) -> Result<Link, ClientError> {
        let tel = self.tel();
        let _span = tel.span("client", "proto.keyneg", "resume");
        let (wire, conn) = self.net.dial_checked(&path.location)?;
        let mut client_nonce = [0u8; RESUME_NONCE_LEN];
        self.rng.lock().fill(&mut client_nonce);
        let reply = self.raw_call(
            &wire,
            &conn,
            CallMsg::Resume {
                ticket: rs.ticket.clone(),
                nonce: client_nonce,
            },
        )?;
        let (server_nonce, confirm, new_ticket) = match reply {
            ReplyMsg::ResumeOk {
                nonce,
                confirm,
                ticket,
            } => (nonce, confirm, ticket),
            ReplyMsg::ResumeReject(why) => {
                return Err(ClientError::KeyNeg(format!("resume rejected: {why}")))
            }
            other => {
                return Err(ClientError::Protocol(format!(
                    "unexpected reply to resume: {}",
                    other.describe()
                )))
            }
        };
        let keys = resume_session(&rs.secret, rs.suite, &client_nonce, &server_nonce);
        if confirm != resume_confirm(&keys) {
            // The peer does not actually hold the ticket's secret.
            return Err(ClientError::KeyNeg("resume confirmation mismatch".into()));
        }
        if !new_ticket.is_empty() {
            self.tickets.lock().insert(
                path.host_id,
                ResumeState {
                    ticket: new_ticket,
                    secret: resume_secret(&keys),
                    suite: rs.suite,
                },
            );
        }
        let mut channel = SecureChannelEnd::client_with_suite(&keys, rs.suite);
        channel.set_telemetry(tel.clone());
        let pool = conn.buf_pool().clone();
        pool.set_telemetry(tel.clone());
        Ok(Link {
            wire,
            conn,
            channel,
            pool,
            session_id: keys.session_id,
            server_key,
            generation,
        })
    }

    /// Builds a reconnect link: ticket resumption when enabled and a
    /// ticket is banked for this host, the full handshake otherwise (or
    /// as the fallback when the resume attempt fails).
    fn resume_or_negotiate(
        &self,
        path: &SelfCertifyingPath,
        agent: &Arc<Mutex<Agent>>,
        server_key: &[u8],
        generation: u64,
    ) -> Result<Link, ClientError> {
        let tel = self.tel();
        if self.resumption.load(Ordering::SeqCst) {
            // Take (not peek): tickets are single-use, and a failed
            // attempt must not retry the same ticket forever.
            let banked = self.tickets.lock().remove(&path.host_id);
            match banked {
                Some(rs) => match self.resume_once(path, &rs, server_key.to_vec(), generation) {
                    Ok(link) => {
                        self.resume_hits.fetch_add(1, Ordering::SeqCst);
                        tel.count("client", "resume.hit", 1);
                        return Ok(link);
                    }
                    Err(e) => {
                        self.resume_rejected.fetch_add(1, Ordering::SeqCst);
                        tel.count("client", "resume.rejected", 1);
                        tel.instant("client", "core.client", "resume_fallback");
                        let _ = e; // fall through to the full handshake
                    }
                },
                None => {
                    self.resume_misses.fetch_add(1, Ordering::SeqCst);
                    tel.count("client", "resume.miss", 1);
                }
            }
        }
        self.negotiate_with_retry(path, agent, generation)
    }

    /// Negotiates with backoff-paced retries. Transient failures (lost or
    /// mangled key-negotiation packets, a server that just restarted) are
    /// retried on a fresh connection; definitive answers (revoked,
    /// blocked, no such host) are not.
    fn negotiate_with_retry(
        &self,
        path: &SelfCertifyingPath,
        agent: &Arc<Mutex<Agent>>,
        generation: u64,
    ) -> Result<Link, ClientError> {
        let max = self.retry_policy().max_reconnects;
        let mut attempt = 0;
        loop {
            match self.negotiate_once(path, agent, generation) {
                Ok(link) => return Ok(link),
                Err(
                    e @ (ClientError::Revoked
                    | ClientError::Blocked
                    | ClientError::NoSuchHost(_)
                    | ClientError::Path(_)),
                ) => return Err(e),
                Err(e) => {
                    if attempt >= max {
                        return Err(e);
                    }
                    self.backoff(attempt);
                    attempt += 1;
                }
            }
        }
    }

    /// Whether an error means the secure channel (or the server behind
    /// it) is gone and only a reconnect with full key renegotiation can
    /// make progress.
    fn session_dead(e: &ClientError) -> bool {
        match e {
            // Local MAC/decrypt failure poisons the channel permanently.
            ClientError::Channel(_) => true,
            // Retransmissions exhausted (e.g. a partition): escalate.
            ClientError::Net(WireError::Timeout) => true,
            // The server lost or refused our session state.
            ClientError::Protocol(msg) => {
                msg.contains("channel failure")
                    || msg.contains("no secure channel")
                    || msg.contains("restarted")
                    || msg.contains("key negotiation out of order")
                    // A mangled wire envelope (either side failed to even
                    // parse the frame): the cipher streams may have
                    // desynchronised, so only a rekey is safe.
                    || msg.contains("reply framing corrupted")
                    || msg.contains("unexpected reply")
                    || msg.contains("unparseable message")
            }
            _ => false,
        }
    }

    /// Tears down a mount's link and negotiates a fresh session. Skips
    /// the work if another caller already reconnected past
    /// `observed_generation`. Per-session client state — authentication
    /// numbers and both lease caches — is invalidated: leases were
    /// granted by a server instance that may have restarted, and authnos
    /// only exist inside the old session.
    fn reconnect(&self, mount: &Mount, observed_generation: u64) -> Result<(), ClientError> {
        let tel = self.tel();
        let _span = tel.span("client", "core.client", "reconnect");
        let agent_any = self.agents.lock().values().next().cloned();
        let agent = agent_any.unwrap_or_else(|| Arc::new(Mutex::new(Agent::new())));
        let mut guard = mount.link.lock();
        if guard.generation != observed_generation {
            return Ok(()); // someone else already renegotiated
        }
        tel.count("client", "reconnect.attempts", 1);
        tel.instant("client", "core.client", "reconnect");
        // Try the one-round-trip ticket resumption first; fall back to
        // the full handshake, which itself runs over the faulty network
        // and is retried with backoff rather than letting one lost
        // keyneg packet turn into a hard error.
        let server_key = guard.server_key.clone();
        let link =
            self.resume_or_negotiate(&mount.path, &agent, &server_key, observed_generation + 1)?;
        mount.install_link(&mut guard, link);
        drop(guard);
        mount.authnos.lock().clear();
        mount.attr_cache.lock().clear();
        mount.access_cache.lock().clear();
        // Read-ahead data was fetched under leases the old server
        // instance granted; drop it with the caches.
        mount.streams.lock().clear();
        mount.reconnects.fetch_add(1, Ordering::SeqCst);
        tel.count("client", "reconnect.completed", 1);
        Ok(())
    }

    /// One cleartext wire round trip.
    fn raw_call(
        &self,
        wire: &Wire,
        conn: &ServerConn,
        msg: CallMsg,
    ) -> Result<ReplyMsg, ClientError> {
        self.charge_rpc();
        let bytes = msg.to_xdr();
        let reply_bytes = wire.call(bytes, |b| conn.handle_bytes(&b))?;
        ReplyMsg::from_xdr(&reply_bytes).map_err(|e| ClientError::Protocol(e.to_string()))
    }

    /// One sealed RPC over a mount's secure channel, surviving faults:
    /// request-direction losses are retried by resending the identical
    /// sealed frame (backoff-paced); anything that kills the session —
    /// a desynchronised cipher stream, a poisoned channel, a restarted
    /// server, an exhausted retransmission budget — triggers a full
    /// reconnect with key renegotiation, after which the call is
    /// re-sealed on the new channel and reissued.
    fn sealed_call(&self, mount: &Mount, call: InnerCall) -> Result<InnerReply, ClientError> {
        // The plaintext outlives any reconnect (it is re-sealed on the
        // fresh channel), so it lives in its own pooled buffer rather
        // than the envelope built per link.
        let pool = mount.link.lock().pool.clone();
        let mut plaintext = pool.get_guard();
        call.encode_into(&mut plaintext);
        self.sealed_exchange(mount, &plaintext)
    }

    /// [`Self::sealed_call`] for the hot NFS path: the `InnerCall::Nfs`
    /// wire form is encoded straight into the pooled plaintext buffer,
    /// skipping the per-RPC argument `Vec` that building the enum first
    /// would allocate.
    fn sealed_call_nfs(
        &self,
        mount: &Mount,
        authno: u32,
        req: &Nfs3Request,
    ) -> Result<InnerReply, ClientError> {
        let pool = mount.link.lock().pool.clone();
        let mut plaintext = pool.get_guard();
        let buf: &mut Vec<u8> = &mut plaintext;
        buf.clear();
        let mut enc = XdrEncoder::from_vec(std::mem::take(buf));
        enc.put_u32(1); // InnerCall::Nfs discriminant
        enc.put_u32(authno);
        enc.put_u32(req.proc() as u32);
        // Opaque args field, length word patched after encoding in
        // place. Marshaled NFS3 arguments are always 4-aligned, so the
        // field needs no padding.
        let len_pos = enc.bytes().len();
        enc.put_u32(0);
        let args_start = enc.bytes().len();
        req.encode_args_into(&mut enc);
        let args_len = enc.bytes().len() - args_start;
        *buf = enc.into_bytes();
        buf[len_pos..len_pos + 4].copy_from_slice(&(args_len as u32).to_be_bytes());
        self.sealed_exchange(mount, &plaintext)
    }

    /// The reconnect-surviving exchange loop shared by the sealed-call
    /// entry points: the pre-encoded plaintext is re-sealed on whatever
    /// channel is current each round.
    fn sealed_exchange(&self, mount: &Mount, plaintext: &[u8]) -> Result<InnerReply, ClientError> {
        let max = self.retry_policy().max_reconnects;
        let mut round = 0;
        loop {
            let generation = mount.generation();
            match self.sealed_call_once(mount, plaintext) {
                Ok(inner) => return Ok(inner),
                Err(e) if Self::session_dead(&e) => {
                    if round >= max {
                        return Err(e);
                    }
                    self.backoff(round);
                    self.reconnect(mount, generation)?;
                    round += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// One sealed round trip on the mount's *current* link. Holds the
    /// link for the whole exchange (the stream ciphers serialize sealed
    /// traffic anyway) and releases it before any reconnect, so the
    /// retry driver can replace the link without deadlocking.
    fn sealed_call_once(&self, mount: &Mount, plaintext: &[u8]) -> Result<InnerReply, ClientError> {
        let _span = self.tel().span("client", "core.client", "sealed_call");
        // Cost model: one user-level crossing into sfscd, a data copy
        // through the daemon, crypto over the outgoing bytes.
        self.charge_crossing();
        self.charge_rpc();
        self.charge_user_copy(plaintext.len());
        let mut guard = mount.link.lock();
        let link = &mut *guard;
        self.charge_crypto_cost(link.channel.suite(), plaintext.len());
        let pool = link.pool.clone();
        // Build the sealed wire envelope in place in one pooled buffer:
        // byte-identical to `CallMsg::Sealed(channel.seal(..)).to_xdr()`
        // without the intermediate frame and envelope allocations.
        let mut env = pool.get_guard();
        sealed_env_begin(&mut env);
        env.extend_from_slice(plaintext);
        link.channel.seal_into(&mut env, SEALED_ENV_FRAME_START)?;
        sealed_env_finish(&mut env);
        // Retransmission loop: the frame was sealed once; every resend
        // puts the same bytes on the wire, so a request that was lost
        // in flight still decrypts at the server's cipher position.
        // Each attempt copies the envelope into a pooled buffer that the
        // wire consumes and the server-side closure recycles.
        let policy = self.retry_policy();
        let mut attempt = 0;
        let mut reply_bytes = loop {
            let mut msg = pool.get();
            msg.extend_from_slice(&env);
            let sent = link.wire.call(msg, |b| {
                // Server side: one crossing into sfssd, the data copy
                // through it, plus the NFS loopback hop.
                self.charge_crossing();
                self.charge_rpc();
                self.charge_server_copy(b.len());
                let reply = link.conn.handle_bytes(&b);
                pool.put(b);
                reply
            });
            match sent {
                Ok(b) => break b,
                Err(WireError::Timeout) => {
                    if attempt >= policy.max_retransmits {
                        return Err(ClientError::Net(WireError::Timeout));
                    }
                    let tel = self.tel();
                    tel.count("client", "retry.retransmits", 1);
                    tel.instant("client", "core.client", "retransmit");
                    self.backoff(attempt);
                    attempt += 1;
                }
            }
        };
        // Well-formed sealed replies — the steady state — open in place
        // inside the reply buffer, which then goes back to the pool.
        // Anything else is an error reply or corrupted framing, classified
        // by the general decoder below.
        if let Some(frame) = sealed_envelope_frame(&reply_bytes) {
            self.charge_user_copy(frame.len());
            self.charge_crypto_cost(link.channel.suite(), frame.len());
            let plain = link.channel.open_in_place(&mut reply_bytes[frame])?;
            let inner =
                InnerReply::from_xdr(plain).map_err(|e| ClientError::Protocol(e.to_string()))?;
            drop(guard);
            pool.put(reply_bytes);
            self.apply_invalidations(mount, &inner);
            return Ok(inner);
        }
        // An unparseable envelope means the reply was mangled in flight
        // before the MAC could vouch for anything; classified as a
        // session death so the retry driver renegotiates.
        let reply = ReplyMsg::from_xdr(&reply_bytes)
            .map_err(|e| ClientError::Protocol(format!("reply framing corrupted: {e}")))?;
        Err(ClientError::Protocol(match reply {
            ReplyMsg::Error(e) => e,
            other => format!("unexpected reply: {other:?}"),
        }))
    }

    /// Applies a reply's piggybacked invalidation callbacks to the
    /// mount's caches.
    fn apply_invalidations(&self, mount: &Mount, inner: &InnerReply) {
        if let InnerReply::Nfs { invalidations, .. } = inner {
            if !invalidations.is_empty() && !self.ignore_invalidations.load(Ordering::SeqCst) {
                self.tel
                    .lock()
                    .count("client", "cache.invalidations", invalidations.len() as u64);
                let mut cache = mount.attr_cache.lock();
                for fh in invalidations {
                    cache.remove(&fh.0);
                }
                let mut access = mount.access_cache.lock();
                access.retain(|(fh, _, _), _| !invalidations.iter().any(|i| &i.0 == fh));
                // Read-ahead data for an invalidated file was speculated
                // under a lease another client just broke.
                let mut streams = mount.streams.lock();
                for fh in invalidations {
                    streams.remove(&fh.0);
                }
            }
        }
    }

    /// Ensures `uid` is authenticated on `mount`; returns the
    /// authentication number (0 = anonymous).
    pub fn ensure_auth(&self, mount: &Mount, uid: u32) -> Result<u32, ClientError> {
        if let Some(&authno) = mount.authnos.lock().get(&uid) {
            return Ok(authno);
        }
        let tel = self.tel();
        let _auth_span = tel.span("client", "core.client", "ensure_auth");
        let agent = self.agent(uid);
        let mut attempt = 0;
        let authno = loop {
            // The AuthID binds the signature to the *current* session: a
            // reconnect mid-loop changes the session ID, so recompute it
            // every iteration rather than burning key attempts on
            // signatures the server can no longer match.
            let session_id = mount.session_id();
            let info = AuthInfo::for_fs(&mount.path.location, mount.path.host_id, session_id);
            let seq = mount.next_seq.fetch_add(1, Ordering::SeqCst);
            self.note_seq(mount, seq);
            let sign_span = tel.span("agent", "core.client", "authenticate");
            let msg = agent.lock().authenticate(&info, seq, attempt);
            drop(sign_span);
            let Some(msg) = msg else {
                // "At that point, the user will access the file system
                // with anonymous permissions."
                break AUTHNO_ANONYMOUS;
            };
            match self.sealed_call(mount, InnerCall::Auth { seq_no: seq, msg })? {
                InnerReply::AuthGranted { authno, .. } => break authno,
                InnerReply::AuthDenied { .. } => {
                    if mount.session_id() == session_id {
                        attempt += 1;
                    }
                    // Otherwise the session was renegotiated under us and
                    // the denial just means "signed for the old session":
                    // retry the same key against the new session.
                }
                other => return Err(ClientError::Protocol(format!("bad auth reply: {other:?}"))),
            }
        };
        mount.authnos.lock().insert(uid, authno);
        Ok(authno)
    }

    /// Issues one NFS3 call for `uid` over `mount`. Queued write-behind
    /// data is flushed first: a synchronous RPC is an ordering point, so
    /// nothing may observe the server before writes the caller already
    /// issued reach it. If the session is renegotiated mid-call, the
    /// authentication number sent with the request belonged to the dead
    /// session — re-authenticate on the new one and reissue.
    pub fn call_nfs(
        &self,
        mount: &Mount,
        uid: u32,
        req: &Nfs3Request,
    ) -> Result<Nfs3Reply, ClientError> {
        self.refuse_if_revoked(mount, uid)?;
        self.barrier(mount)?;
        self.call_nfs_unqueued(mount, uid, req)
    }

    /// Re-checks agent revocation/blocking policy on an already-mounted
    /// server. `mount()` refuses revoked HostIDs at mount time, but a
    /// §2.5 revocation broadcast must also cut off clients holding live
    /// mounts — a cached [`Mount`] is exactly the capability a
    /// revocation exists to invalidate, so every NFS call re-consults
    /// the agent before touching the wire.
    fn refuse_if_revoked(&self, mount: &Mount, uid: u32) -> Result<(), ClientError> {
        if self.agent(uid).lock().refuses(mount.path.host_id) {
            return Err(ClientError::Blocked);
        }
        Ok(())
    }

    /// [`Self::call_nfs`] without the write-behind barrier (the flush
    /// path itself must not recurse into the barrier).
    fn call_nfs_unqueued(
        &self,
        mount: &Mount,
        uid: u32,
        req: &Nfs3Request,
    ) -> Result<Nfs3Reply, ClientError> {
        let proc = req.proc();
        let reissue_cap = self.retry_policy().max_reconnects;
        let mut rounds = 0;
        loop {
            let authno = self.ensure_auth(mount, uid)?;
            let generation = mount.generation();
            let reply = self.sealed_call_nfs(mount, authno, req)?;
            if mount.generation() != generation && rounds < reissue_cap {
                // Reconnected while this call was in flight: the server
                // executed it (if at all) with stale credentials.
                rounds += 1;
                continue;
            }
            return match reply {
                InnerReply::Nfs { results, .. } => {
                    let reply = Nfs3Reply::decode_results(proc, &results)
                        .map_err(|e| ClientError::Protocol(e.to_string()))?;
                    self.harvest_attrs(mount, req, &reply);
                    Ok(reply)
                }
                other => Err(ClientError::Protocol(format!("bad NFS reply: {other:?}"))),
            };
        }
    }

    /// Issues a batch of NFS3 calls for `uid` with up to
    /// [`Self::pipeline_window`] sealed frames in flight at once,
    /// returning the replies in request order. Queued write-behind data
    /// is flushed first. With window 1 this degenerates to the blocking
    /// request/reply protocol, call for call.
    pub fn call_nfs_window(
        &self,
        mount: &Mount,
        uid: u32,
        reqs: &[Nfs3Request],
    ) -> Result<Vec<Nfs3Reply>, ClientError> {
        self.refuse_if_revoked(mount, uid)?;
        self.barrier(mount)?;
        self.call_nfs_window_unqueued(mount, uid, reqs)
    }

    /// [`Self::call_nfs_window`] without the write-behind barrier.
    fn call_nfs_window_unqueued(
        &self,
        mount: &Mount,
        uid: u32,
        reqs: &[Nfs3Request],
    ) -> Result<Vec<Nfs3Reply>, ClientError> {
        let window = self.pipeline_window();
        if window <= 1 || reqs.len() <= 1 {
            return reqs
                .iter()
                .map(|req| self.call_nfs_unqueued(mount, uid, req))
                .collect();
        }
        let mut out = Vec::with_capacity(reqs.len());
        for chunk in reqs.chunks(window) {
            out.extend(self.window_call_batch(mount, uid, chunk)?);
        }
        Ok(out)
    }

    /// One window-sized batch: authenticate, seal, exchange, decode.
    /// Mirrors [`Self::call_nfs_unqueued`]'s reissue rule — a session
    /// renegotiated mid-batch invalidates the credentials every frame
    /// was sealed with, so the whole batch is reissued.
    fn window_call_batch(
        &self,
        mount: &Mount,
        uid: u32,
        reqs: &[Nfs3Request],
    ) -> Result<Vec<Nfs3Reply>, ClientError> {
        let reissue_cap = self.retry_policy().max_reconnects;
        let mut rounds = 0;
        loop {
            let authno = self.ensure_auth(mount, uid)?;
            let generation = mount.generation();
            let calls: Vec<InnerCall> = reqs
                .iter()
                .map(|req| InnerCall::Nfs {
                    authno,
                    proc: req.proc() as u32,
                    args: req.encode_args(),
                })
                .collect();
            let inners = self.window_sealed_batch(mount, &calls)?;
            if mount.generation() != generation && rounds < reissue_cap {
                rounds += 1;
                continue;
            }
            let mut out = Vec::with_capacity(reqs.len());
            for (req, inner) in reqs.iter().zip(inners) {
                match inner {
                    InnerReply::Nfs { results, .. } => {
                        let reply = Nfs3Reply::decode_results(req.proc(), &results)
                            .map_err(|e| ClientError::Protocol(e.to_string()))?;
                        self.harvest_attrs(mount, req, &reply);
                        out.push(reply);
                    }
                    other => {
                        return Err(ClientError::Protocol(format!("bad NFS reply: {other:?}")))
                    }
                }
            }
            return Ok(out);
        }
    }

    /// Retry driver for one windowed exchange: session deaths trigger a
    /// reconnect, after which every call is re-sealed on the fresh
    /// channel (the old frames are useless — their cipher positions
    /// belong to the dead session).
    fn window_sealed_batch(
        &self,
        mount: &Mount,
        calls: &[InnerCall],
    ) -> Result<Vec<InnerReply>, ClientError> {
        let max = self.retry_policy().max_reconnects;
        let mut round = 0;
        loop {
            let generation = mount.generation();
            match self.window_exchange_once(mount, calls) {
                Ok(inners) => return Ok(inners),
                Err(e) if Self::session_dead(&e) => {
                    if round >= max {
                        return Err(e);
                    }
                    self.backoff(round);
                    self.reconnect(mount, generation)?;
                    round += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Analytic server-side cost of servicing one frame: the crossing
    /// into sfssd, RPC processing, and the copy through the daemon.
    /// Windowed exchanges fold this into the frame's service time on the
    /// wire's timeline instead of charging the shared clock, so sealing
    /// later frames genuinely overlaps the server working earlier ones.
    fn server_frame_cost_ns(&self, len: usize) -> u64 {
        let Some(cpu) = &self.cpu else { return 0 };
        let tel = self.tel.lock();
        tel.count("client", "cpu.crossings", 1);
        tel.count("client", "cpu.rpc_charges", 1);
        tel.count("server", "cpu.server_copy_bytes", len as u64);
        cpu.user_crossing_ns + cpu.rpc_processing_ns + len as u64 * cpu.server_copy_per_byte_ns
    }

    /// Analytic client-side cost of opening one sealed reply frame: the
    /// copy out of the daemon plus decryption. Like
    /// [`Self::server_frame_cost_ns`] this is not charged to the clock
    /// directly — the windowed engine runs these costs on a CPU
    /// timeline seeded by each reply's arrival, so decrypting one reply
    /// overlaps later replies still in transit.
    fn client_open_cost_ns(&self, suite: SuiteId, len: usize) -> u64 {
        let Some(cpu) = &self.cpu else { return 0 };
        let tel = self.tel.lock();
        tel.count("client", "cpu.user_copy_bytes", len as u64);
        let mut ns = len as u64 * cpu.user_copy_per_byte_ns;
        if self.charge_crypto.load(Ordering::SeqCst) {
            tel.count("client", "cpu.crypto_bytes", len as u64);
            let (num, den) = suite.cost_ratio();
            ns += cpu.crypto_per_message_ns + len as u64 * cpu.crypto_per_byte_ns * num / den;
        }
        ns
    }

    /// One windowed exchange on the mount's current link: seals every
    /// call as a sequenced frame, puts them all in flight, and matches
    /// replies back by xid. Lost frames are retransmitted byte-for-byte
    /// (the server replays already-serviced ones from its reply cache),
    /// so both cipher streams stay aligned no matter how the network
    /// reorders, duplicates, or drops frames.
    fn window_exchange_once(
        &self,
        mount: &Mount,
        calls: &[InnerCall],
    ) -> Result<Vec<InnerReply>, ClientError> {
        let tel = self.tel();
        let _span = tel
            .span("client", "core.client", "window_exchange")
            .with_attr("frames", calls.len() as u64);
        // One kernel→daemon crossing hands sfscd the whole queued window
        // (§4.2): the fixed crossing cost is paid once per window, not
        // per request.
        self.charge_crossing();
        let mut guard = mount.link.lock();
        let link = &mut *guard;
        let pool = link.pool.clone();
        // Seal every frame up front, tagged with its xid and the channel
        // seqno it was sealed at, stamping each frame's virtual send
        // time as sealing completes. The sealed bytes are kept verbatim
        // for retransmission.
        let mut envs: Vec<Vec<u8>> = Vec::with_capacity(calls.len());
        let mut sent_at: Vec<SimTime> = Vec::with_capacity(calls.len());
        for (xid, call) in calls.iter().enumerate() {
            let chanseq = link.channel.messages_sent();
            let mut env = pool.get();
            seq_env_begin(&mut env, true, chanseq, xid as u32);
            let mut enc = XdrEncoder::from_vec(std::mem::take(&mut env));
            call.encode(&mut enc);
            env = enc.into_bytes();
            let plain_len = env.len() - SEALED_SEQ_ENV_FRAME_START - FRAME_HEADER_LEN;
            self.charge_rpc();
            self.charge_user_copy(plain_len);
            self.charge_crypto_cost(link.channel.suite(), plain_len);
            link.channel
                .seal_into(&mut env, SEALED_SEQ_ENV_FRAME_START)?;
            seq_env_finish(&mut env);
            envs.push(env);
            sent_at.push(self.clock.now());
        }
        let policy = self.retry_policy();
        let mut results: Vec<Option<InnerReply>> = calls.iter().map(|_| None).collect();
        // Replies can arrive in any order; the stream cipher only opens
        // them in the order the server sealed them, so out-of-order
        // arrivals park here until the gap fills.
        let mut reorder = FrameSequencer::new(REORDER_BUF_CAPACITY);
        // Arrival time per buffered reply chanseq, feeding the analytic
        // CPU timeline below.
        let mut arrivals: BTreeMap<u64, u64> = BTreeMap::new();
        // When the client CPU finishes opening the replies processed so
        // far: each open starts at max(its reply's arrival, cpu_free),
        // so decryption overlaps replies still on the wire instead of
        // stacking after the last arrival.
        let mut cpu_free: u64 = 0;
        let mut attempt = 0;
        loop {
            let outstanding: Vec<usize> =
                (0..envs.len()).filter(|&i| results[i].is_none()).collect();
            if outstanding.is_empty() {
                break;
            }
            tel.gauge_set("client", "pipeline.inflight_hwm", outstanding.len() as u64);
            let sends: Vec<(SimTime, Vec<u8>)> = outstanding
                .iter()
                .map(|&i| {
                    let mut msg = pool.get();
                    msg.extend_from_slice(&envs[i]);
                    (sent_at[i], msg)
                })
                .collect();
            // Each frame's server cost is either the classic serial
            // discipline or, when the server has a multi-core
            // `ShardEngine` installed, an absolute completion instant
            // scheduled across its simulated cores and disk shards.
            let replies = link.wire.exchange_on(sends, |arrival_ns, b| {
                let extra_ns = self.server_frame_cost_ns(b.len());
                link.conn.handle_frames_on(arrival_ns, extra_ns, b)
            });
            for reply in replies {
                let bytes = reply.bytes;
                let Some((chanseq, xid, frame)) = seq_reply_envelope(&bytes) else {
                    // An unsequenced reply mid-window: a server Error is
                    // the session refusing our state — honour it and let
                    // the caller reconnect. Anything else is a stray the
                    // wire held over from an earlier phase (or mangled
                    // noise); it never touches the cipher, so drop it and
                    // let retransmission cover any real loss.
                    if let Ok(ReplyMsg::Error(e)) = ReplyMsg::from_xdr(&bytes) {
                        return Err(ClientError::Protocol(e));
                    }
                    tel.count("client", "pipeline.stale_frames", 1);
                    pool.put(bytes);
                    continue;
                };
                if xid as usize >= results.len() {
                    // Sequenced, but not one of ours: a frame from an
                    // earlier window or a dead session replayed by the
                    // wire. Feeding it to the stream cipher would burn
                    // keystream and poison the channel, so discard it
                    // here on the cleartext header alone.
                    tel.count("client", "pipeline.stale_frames", 1);
                    pool.put(bytes);
                    continue;
                }
                let expected = link.channel.messages_received();
                // A reply that is next in cipher order — every reply on
                // a fault-free link — is opened below in the wire buffer
                // it arrived in; one that is early parks, envelope and
                // all, until the gap before it fills.
                let mut next = None;
                match reorder.admit(chanseq, expected) {
                    // A replayed reply we already opened (its retransmit
                    // raced the original): the cipher consumed it once.
                    SeqPush::Duplicate => pool.put(bytes),
                    SeqPush::Overflow => {
                        return Err(ClientError::Protocol(
                            "channel failure: reply reorder buffer overflow".into(),
                        ))
                    }
                    SeqPush::Buffered if chanseq == expected => {
                        next = Some((xid, bytes, frame, reply.arrival.as_nanos()));
                    }
                    SeqPush::Buffered => {
                        arrivals.insert(chanseq, reply.arrival.as_nanos());
                        reorder.push(chanseq, xid, bytes, expected);
                    }
                }
                // Open every frame that is now in cipher order.
                loop {
                    let (xid, mut env, frame, arrival) = match next.take() {
                        Some(ready) => ready,
                        None => {
                            let pos = link.channel.messages_received();
                            let Some((xid, env)) = reorder.take(pos) else {
                                break;
                            };
                            let (_, _, frame) =
                                seq_reply_envelope(&env).expect("parsed before it was parked");
                            (xid, env, frame, arrivals.remove(&pos).unwrap_or(0))
                        }
                    };
                    cpu_free = cpu_free.max(arrival)
                        + self.client_open_cost_ns(link.channel.suite(), frame.len());
                    let plain = link.channel.open_in_place(&mut env[frame])?;
                    let inner = InnerReply::from_xdr(plain)
                        .map_err(|e| ClientError::Protocol(e.to_string()))?;
                    let slot = results.get_mut(xid as usize).ok_or_else(|| {
                        ClientError::Protocol(format!("unexpected reply: unknown xid {xid}"))
                    })?;
                    *slot = Some(inner);
                    pool.put(env);
                }
            }
            if results.iter().any(|r| r.is_none()) {
                if attempt >= policy.max_retransmits {
                    return Err(ClientError::Net(WireError::Timeout));
                }
                // Same pacing as the blocking path: wait out the
                // timeout, then back off before the identical frames go
                // back on the wire. Retransmission charges no CPU — the
                // frames were already built and sealed.
                link.wire.timeout_wait();
                tel.count("client", "retry.retransmits", 1);
                tel.instant("client", "core.client", "retransmit");
                self.backoff(attempt);
                attempt += 1;
                sent_at.fill(self.clock.now());
            }
        }
        // Land the clock on the moment the client CPU finished opening
        // the final reply (a no-op if the timeline already passed it).
        self.clock.advance_to(SimTime(cpu_free));
        drop(guard);
        for env in envs {
            pool.put(env);
        }
        let inners: Vec<InnerReply> = results
            .into_iter()
            .map(|r| r.expect("loop exits only when every slot is filled"))
            .collect();
        for inner in &inners {
            self.apply_invalidations(mount, inner);
        }
        Ok(inners)
    }

    /// Reads up to `count` bytes of `fh` at `offset`, returning
    /// `(data, eof)`. Two adjacent reads promote the file to a
    /// sequential stream: the client then keeps a whole pipeline window
    /// of READs outstanding, answering the caller from the first and
    /// parking the rest as read-ahead for the accesses it predicts.
    pub fn read(
        &self,
        mount: &Mount,
        uid: u32,
        fh: &FileHandle,
        offset: u64,
        count: u32,
    ) -> Result<(Vec<u8>, bool), ClientError> {
        self.barrier(mount)?;
        // Read-ahead hit: the block is already here, no RPC at all.
        {
            let mut streams = mount.streams.lock();
            if let Some(st) = streams.get_mut(&fh.0) {
                if let Some((data, eof)) = st.prefetch.remove(&offset) {
                    if data.len() <= count as usize {
                        self.tel().count("client", "pipeline.readahead_hits", 1);
                        st.next_offset = offset + data.len() as u64;
                        return Ok((data, eof));
                    }
                    // Speculated with a different block size than the
                    // caller now wants: the speculation is useless.
                    st.prefetch.clear();
                }
            }
        }
        let window = self.pipeline_window();
        let run = {
            let mut streams = mount.streams.lock();
            let st = streams.entry(fh.0.clone()).or_insert_with(|| StreamState {
                next_offset: offset,
                run: 0,
                prefetch: BTreeMap::new(),
            });
            if offset == st.next_offset {
                st.run += 1;
            } else {
                st.run = 1;
                st.prefetch.clear();
            }
            st.run
        };
        if window > 1 && run >= READ_AHEAD_TRIGGER {
            // Sequential stream: issue a whole window of READs at once.
            let reqs: Vec<Nfs3Request> = (0..window as u64)
                .map(|i| Nfs3Request::Read {
                    fh: fh.clone(),
                    offset: offset + i * u64::from(count),
                    count,
                })
                .collect();
            let mut replies = self
                .call_nfs_window_unqueued(mount, uid, &reqs)?
                .into_iter();
            let (data, eof) = match replies.next().expect("one reply per request") {
                Nfs3Reply::Read { data, eof, .. } => (data, eof),
                Nfs3Reply::Error { status, .. } => return Err(ClientError::Nfs(status)),
                other => return Err(ClientError::Protocol(format!("{other:?}"))),
            };
            let mut streams = mount.streams.lock();
            let st = streams.entry(fh.0.clone()).or_insert_with(|| StreamState {
                next_offset: offset,
                run: READ_AHEAD_TRIGGER,
                prefetch: BTreeMap::new(),
            });
            if !eof {
                let mut o = offset + u64::from(count);
                for reply in replies {
                    match reply {
                        Nfs3Reply::Read {
                            data: ahead,
                            eof: ahead_eof,
                            ..
                        } => {
                            let done = ahead_eof || (ahead.len() as u32) < count;
                            st.prefetch.insert(o, (ahead, ahead_eof));
                            o += u64::from(count);
                            if done {
                                break;
                            }
                        }
                        // Errors on speculative reads are not the
                        // caller's problem; the access that reaches this
                        // offset will reissue and see them for real.
                        _ => break,
                    }
                }
            }
            st.next_offset = offset + data.len() as u64;
            return Ok((data, eof));
        }
        match self.call_nfs_unqueued(
            mount,
            uid,
            &Nfs3Request::Read {
                fh: fh.clone(),
                offset,
                count,
            },
        )? {
            Nfs3Reply::Read { data, eof, .. } => {
                if let Some(st) = mount.streams.lock().get_mut(&fh.0) {
                    st.next_offset = offset + data.len() as u64;
                }
                Ok((data, eof))
            }
            Nfs3Reply::Error { status, .. } => Err(ClientError::Nfs(status)),
            other => Err(ClientError::Protocol(format!("{other:?}"))),
        }
    }

    /// Queues a WRITE of `data` at `offset` without waiting for the
    /// reply. The write reaches the server no later than the next
    /// commit barrier — an explicit [`Self::barrier`] (close/fsync) or
    /// any synchronous RPC on the mount — where the queue drains as
    /// pipelined windows and every reply is checked. With window 1 the
    /// write is issued synchronously instead.
    pub fn write_behind(
        &self,
        mount: &Mount,
        uid: u32,
        fh: &FileHandle,
        offset: u64,
        data: Vec<u8>,
    ) -> Result<(), ClientError> {
        // A write invalidates read-ahead speculation on the same file.
        mount.streams.lock().remove(&fh.0);
        let req = Nfs3Request::Write {
            fh: fh.clone(),
            offset,
            stable: StableHow::Unstable,
            data,
        };
        if self.pipeline_window() <= 1 {
            return match self.call_nfs_unqueued(mount, uid, &req)? {
                Nfs3Reply::Write { .. } => Ok(()),
                Nfs3Reply::Error { status, .. } => Err(ClientError::Nfs(status)),
                other => Err(ClientError::Protocol(format!("{other:?}"))),
            };
        }
        let full = {
            let mut queue = mount.wb_queue.lock();
            queue.push((uid, req));
            queue.len() >= self.pipeline_window()
        };
        if full {
            self.flush_write_behind(mount)?;
        }
        Ok(())
    }

    /// The write-behind commit barrier: drains the queue and checks
    /// every reply. When it returns `Ok`, every previously queued write
    /// has executed on the server.
    pub fn barrier(&self, mount: &Mount) -> Result<(), ClientError> {
        if mount.wb_queue.lock().is_empty() {
            return Ok(());
        }
        self.flush_write_behind(mount)
    }

    fn flush_write_behind(&self, mount: &Mount) -> Result<(), ClientError> {
        loop {
            let batch: Vec<(u32, Nfs3Request)> = std::mem::take(&mut *mount.wb_queue.lock());
            if batch.is_empty() {
                return Ok(());
            }
            // Issue runs of same-uid writes as windowed batches, so each
            // window goes out under a single set of credentials.
            let mut i = 0;
            while i < batch.len() {
                let uid = batch[i].0;
                let mut j = i + 1;
                while j < batch.len() && batch[j].0 == uid {
                    j += 1;
                }
                let reqs: Vec<Nfs3Request> =
                    batch[i..j].iter().map(|(_, req)| req.clone()).collect();
                for reply in self.call_nfs_window_unqueued(mount, uid, &reqs)? {
                    match reply {
                        Nfs3Reply::Write { .. } => {}
                        Nfs3Reply::Error { status, .. } => return Err(ClientError::Nfs(status)),
                        other => return Err(ClientError::Protocol(format!("{other:?}"))),
                    }
                }
                i = j;
            }
        }
    }

    /// Feeds leased attributes from a reply into the cache.
    fn harvest_attrs(&self, mount: &Mount, req: &Nfs3Request, reply: &Nfs3Reply) {
        if !self.caching.load(Ordering::SeqCst) {
            return;
        }
        let now = self.clock.now();
        let store = |fh: &FileHandle, post: &PostOpAttr| {
            if let Some(attr) = post.attr {
                if post.lease_ns > 0 {
                    mount.attr_cache.lock().insert(
                        fh.0.clone(),
                        CachedAttr {
                            attr,
                            expires: SimTime(now.0 + post.lease_ns),
                        },
                    );
                }
            }
        };
        match (req, reply) {
            (_, Nfs3Reply::Lookup { fh, attr, .. })
            | (_, Nfs3Reply::Create { fh, attr, .. })
            | (_, Nfs3Reply::Mkdir { fh, attr, .. })
            | (_, Nfs3Reply::Symlink { fh, attr, .. }) => store(fh, attr),
            (Nfs3Request::GetAttr { fh }, Nfs3Reply::GetAttr { attr, lease_ns }) => {
                store(fh, &PostOpAttr::leased(*attr, *lease_ns))
            }
            (Nfs3Request::Read { fh, .. }, Nfs3Reply::Read { attr, .. })
            | (Nfs3Request::Write { fh, .. }, Nfs3Reply::Write { attr, .. })
            | (Nfs3Request::SetAttr { fh, .. }, Nfs3Reply::SetAttr { attr }) => store(fh, attr),
            (_, Nfs3Reply::ReadDir { entries, .. }) => {
                for e in entries {
                    if let Some((fh, attr)) = &e.plus {
                        store(fh, attr);
                    }
                }
            }
            _ => {}
        }
    }

    /// GETATTR with the enhanced cache: served locally while the lease is
    /// valid.
    pub fn getattr(&self, mount: &Mount, uid: u32, fh: &FileHandle) -> Result<Fattr3, ClientError> {
        // A revoked HostID is refused even on a lease-held cache hit:
        // §2.5 revocation blocks *access*, not just wire traffic.
        self.refuse_if_revoked(mount, uid)?;
        if self.caching.load(Ordering::SeqCst) {
            if let Some(c) = mount.attr_cache.lock().get(&fh.0) {
                if self.clock.now() < c.expires {
                    self.attr_hits.fetch_add(1, Ordering::SeqCst);
                    self.tel.lock().count("client", "cache.attr_hits", 1);
                    return Ok(c.attr);
                }
            }
        }
        self.attr_misses.fetch_add(1, Ordering::SeqCst);
        self.tel.lock().count("client", "cache.attr_misses", 1);
        match self.call_nfs(mount, uid, &Nfs3Request::GetAttr { fh: fh.clone() })? {
            Nfs3Reply::GetAttr { attr, .. } => Ok(attr),
            Nfs3Reply::Error { status, .. } => Err(ClientError::Nfs(status)),
            other => Err(ClientError::Protocol(format!("{other:?}"))),
        }
    }

    /// ACCESS with the enhanced cache.
    pub fn access(
        &self,
        mount: &Mount,
        uid: u32,
        fh: &FileHandle,
        mask: u32,
    ) -> Result<u32, ClientError> {
        self.refuse_if_revoked(mount, uid)?;
        let key = (fh.0.clone(), uid, mask);
        if self.caching.load(Ordering::SeqCst) {
            if let Some(c) = mount.access_cache.lock().get(&key) {
                if self.clock.now() < c.expires {
                    self.attr_hits.fetch_add(1, Ordering::SeqCst);
                    self.tel.lock().count("client", "cache.access_hits", 1);
                    // The granted mask is stashed in the attr's mode field.
                    return Ok(c.attr.mode);
                }
            }
        }
        self.attr_misses.fetch_add(1, Ordering::SeqCst);
        self.tel.lock().count("client", "cache.access_misses", 1);
        match self.call_nfs(
            mount,
            uid,
            &Nfs3Request::Access {
                fh: fh.clone(),
                mask,
            },
        )? {
            Nfs3Reply::Access { granted, attr } => {
                if self.caching.load(Ordering::SeqCst) && attr.lease_ns > 0 {
                    if let Some(mut a) = attr.attr {
                        a.mode = granted;
                        mount.access_cache.lock().insert(
                            key,
                            CachedAttr {
                                attr: a,
                                expires: SimTime(self.clock.now().0 + attr.lease_ns),
                            },
                        );
                    }
                }
                Ok(granted)
            }
            Nfs3Reply::Error { status, .. } => Err(ClientError::Nfs(status)),
            other => Err(ClientError::Protocol(format!("{other:?}"))),
        }
    }

    /// Resolves an absolute `/sfs/...` path for `uid`, automounting and
    /// following symlinks (with agent interposition for
    /// non-self-certifying names). Returns the mount, handle, and
    /// attributes.
    pub fn resolve(
        &self,
        uid: u32,
        path: &str,
    ) -> Result<(Arc<Mount>, FileHandle, Fattr3), ClientError> {
        self.resolve_depth(uid, path.to_string(), 0)
    }

    fn resolve_depth(
        &self,
        uid: u32,
        path: String,
        depth: usize,
    ) -> Result<(Arc<Mount>, FileHandle, Fattr3), ClientError> {
        if depth > MAX_SYMLINK_DEPTH {
            return Err(ClientError::SymlinkLoop);
        }
        let rest = path
            .strip_prefix("/sfs/")
            .ok_or(ClientError::Path(PathError::BadFormat))?;
        let (first, remainder) = match rest.find('/') {
            Some(i) => (&rest[..i], &rest[i..]),
            None => (rest, ""),
        };
        // Self-certifying component, or a name the agent must map?
        let sc_path = match SelfCertifyingPath::parse_dir_name(first) {
            Ok(p) => p,
            Err(_) => {
                // Consult the agent (§2.3). The agent lock must not be
                // held while we do file I/O on its behalf — resolving a
                // certification-path directory may recursively mount.
                let agent = self.agent(uid);
                let mut target = agent.lock().resolve_link(first);
                if target.is_none() {
                    let dirs = agent.lock().cert_paths().to_vec();
                    for dir in dirs {
                        let full = format!("{}/{}", dir.trim_end_matches('/'), first);
                        if let Ok(t) = self.readlink_abs(uid, &full, depth + 1) {
                            // Cache as an on-the-fly link (§2.3).
                            agent.lock().create_link(first, &t);
                            target = Some(t);
                            break;
                        }
                    }
                }
                if target.is_none() {
                    // Last resort: the external-PKI name hook (§2.4).
                    // (Bind the result first: an `if let` scrutinee's
                    // lock guard would otherwise live through the body
                    // and deadlock on the re-lock.)
                    let hook_target = agent.lock().run_name_hook(first);
                    if let Some(t) = hook_target {
                        agent.lock().create_link(first, &t);
                        target = Some(t);
                    }
                }
                let Some(target) = target else {
                    return Err(ClientError::Nfs(Status::NoEnt));
                };
                return self.resolve_depth(uid, format!("{target}{remainder}"), depth + 1);
            }
        };
        let mount = self.mount(uid, &sc_path)?;
        let mut cur_fh = mount.root();
        let mut cur_attr = self.getattr(&mount, uid, &cur_fh)?;
        let components: Vec<&str> = remainder.split('/').filter(|c| !c.is_empty()).collect();
        for (i, comp) in components.iter().enumerate() {
            let reply = self.call_nfs(
                &mount,
                uid,
                &Nfs3Request::Lookup {
                    dir: cur_fh.clone(),
                    name: comp.to_string(),
                },
            )?;
            let (fh, attr) = match reply {
                Nfs3Reply::Lookup { fh, attr, .. } => {
                    let a = match attr.attr {
                        Some(a) => a,
                        None => self.getattr(&mount, uid, &fh)?,
                    };
                    (fh, a)
                }
                Nfs3Reply::Error { status, .. } => return Err(ClientError::Nfs(status)),
                other => return Err(ClientError::Protocol(format!("{other:?}"))),
            };
            if attr.ftype == FileType::Symlink {
                let target = self.readlink_fh(&mount, uid, &fh)?;
                let tail = components[i + 1..].join("/");
                let next = if target.starts_with('/') {
                    if tail.is_empty() {
                        target
                    } else {
                        format!("{target}/{tail}")
                    }
                } else {
                    // Relative symlink: resolve against the current
                    // directory by rebuilding the remaining path.
                    let prefix: String = components[..i].join("/");
                    let base = format!("/sfs/{}/{}", sc_path.dir_name(), prefix);
                    if tail.is_empty() {
                        format!("{base}/{target}")
                    } else {
                        format!("{base}/{target}/{tail}")
                    }
                };
                return self.resolve_depth(uid, next, depth + 1);
            }
            cur_fh = fh;
            cur_attr = attr;
        }
        Ok((mount, cur_fh, cur_attr))
    }

    fn readlink_fh(&self, mount: &Mount, uid: u32, fh: &FileHandle) -> Result<String, ClientError> {
        match self.call_nfs(mount, uid, &Nfs3Request::ReadLink { fh: fh.clone() })? {
            Nfs3Reply::ReadLink { target, .. } => Ok(target),
            Nfs3Reply::Error { status, .. } => Err(ClientError::Nfs(status)),
            other => Err(ClientError::Protocol(format!("{other:?}"))),
        }
    }

    fn readlink_abs(&self, uid: u32, path: &str, depth: usize) -> Result<String, ClientError> {
        // Resolve the parent, then LOOKUP + READLINK the leaf without
        // following it.
        let (dir, leaf) = match path.rfind('/') {
            Some(i) => (&path[..i], &path[i + 1..]),
            None => return Err(ClientError::Path(PathError::BadFormat)),
        };
        let (mount, dir_fh, _) = self.resolve_depth(uid, dir.to_string(), depth)?;
        match self.call_nfs(
            &mount,
            uid,
            &Nfs3Request::Lookup {
                dir: dir_fh,
                name: leaf.to_string(),
            },
        )? {
            Nfs3Reply::Lookup { fh, .. } => self.readlink_fh(&mount, uid, &fh),
            Nfs3Reply::Error { status, .. } => Err(ClientError::Nfs(status)),
            other => Err(ClientError::Protocol(format!("{other:?}"))),
        }
    }

    /// Reads a symlink target at an absolute path (no following).
    pub fn readlink(&self, uid: u32, path: &str) -> Result<String, ClientError> {
        self.readlink_abs(uid, path, 0)
    }

    /// Checks whether a mounted file system has moved (§2.4 forwarding
    /// pointers): reads the well-known `/.forward` file and validates the
    /// signed pointer against the old pathname. Returns the new pathname
    /// when a valid pointer exists. Callers must consult revocation first
    /// — a revocation certificate always overrules a forwarding pointer.
    pub fn check_forwarding(
        &self,
        uid: u32,
        old_path: &SelfCertifyingPath,
    ) -> Result<Option<SelfCertifyingPath>, ClientError> {
        let file = format!("{}/.forward", old_path.full_path());
        let bytes = match self.read_file(uid, &file) {
            Ok(b) => b,
            Err(ClientError::Nfs(Status::NoEnt)) => return Ok(None),
            Err(e) => return Err(e),
        };
        let ptr = sfs_proto::revoke::ForwardingPointer::from_xdr(&bytes)
            .map_err(|e| ClientError::Protocol(e.to_string()))?;
        if ptr.forwards(old_path) {
            Ok(Some(ptr.new_path))
        } else {
            Err(ClientError::Protocol("invalid forwarding pointer".into()))
        }
    }

    /// Lists the `/sfs` directory as seen by `uid`'s agent: only
    /// referenced self-certifying names plus the agent's dynamic links
    /// ("the client hides pathnames that have never been accessed under a
    /// particular agent", §2.3).
    pub fn list_sfs(&self, uid: u32) -> Vec<String> {
        let mut names: BTreeSet<String> = self
            .referenced
            .lock()
            .get(&uid)
            .cloned()
            .unwrap_or_default();
        let agent = self.agent(uid);
        for (name, _) in agent.lock().links() {
            names.insert(name.to_string());
        }
        names.into_iter().collect()
    }

    /// `pwd` support (§2.4 secure bookmarks): the full self-certifying
    /// pathname of a mount plus a relative directory.
    pub fn pwd(&self, mount: &Mount, rel: &str) -> String {
        if rel.is_empty() {
            mount.path.full_path()
        } else {
            format!("{}/{}", mount.path.full_path(), rel.trim_matches('/'))
        }
    }

    // ----- Convenience file operations (what the kernel would issue) ----

    /// Creates (or truncates) a file and writes `data`.
    pub fn write_file(&self, uid: u32, path: &str, data: &[u8]) -> Result<(), ClientError> {
        let (dir, leaf) = split_parent(path)?;
        let (mount, dir_fh, _) = self.resolve(uid, dir)?;
        let fh = match self.call_nfs(
            &mount,
            uid,
            &Nfs3Request::Lookup {
                dir: dir_fh.clone(),
                name: leaf.to_string(),
            },
        )? {
            Nfs3Reply::Lookup { fh, .. } => {
                self.call_nfs(
                    &mount,
                    uid,
                    &Nfs3Request::SetAttr {
                        fh: fh.clone(),
                        attrs: Sattr3 {
                            size: Some(0),
                            ..Default::default()
                        },
                    },
                )?;
                fh
            }
            Nfs3Reply::Error {
                status: Status::NoEnt,
                ..
            } => {
                match self.call_nfs(
                    &mount,
                    uid,
                    &Nfs3Request::Create {
                        dir: dir_fh.clone(),
                        name: leaf.to_string(),
                        attrs: Sattr3 {
                            mode: Some(0o644),
                            ..Default::default()
                        },
                    },
                )? {
                    Nfs3Reply::Create { fh, .. } => fh,
                    // NFS retry semantics: LOOKUP just said NoEnt, so
                    // Exist can only mean an earlier transmission of this
                    // CREATE executed but its reply was lost and the call
                    // reissued after a rekey. The file is there — fetch
                    // its handle and truncate, as if LOOKUP had won.
                    Nfs3Reply::Error {
                        status: Status::Exist,
                        ..
                    } => match self.call_nfs(
                        &mount,
                        uid,
                        &Nfs3Request::Lookup {
                            dir: dir_fh,
                            name: leaf.to_string(),
                        },
                    )? {
                        Nfs3Reply::Lookup { fh, .. } => {
                            self.call_nfs(
                                &mount,
                                uid,
                                &Nfs3Request::SetAttr {
                                    fh: fh.clone(),
                                    attrs: Sattr3 {
                                        size: Some(0),
                                        ..Default::default()
                                    },
                                },
                            )?;
                            fh
                        }
                        Nfs3Reply::Error { status, .. } => return Err(ClientError::Nfs(status)),
                        other => return Err(ClientError::Protocol(format!("{other:?}"))),
                    },
                    Nfs3Reply::Error { status, .. } => return Err(ClientError::Nfs(status)),
                    other => return Err(ClientError::Protocol(format!("{other:?}"))),
                }
            }
            Nfs3Reply::Error { status, .. } => return Err(ClientError::Nfs(status)),
            other => return Err(ClientError::Protocol(format!("{other:?}"))),
        };
        // Stream the data out in write-behind chunks — up to a pipeline
        // window of WRITEs rides the wire at once — then barrier: this
        // is the close(), nothing is outstanding when it returns.
        let mut offset = 0u64;
        for chunk in data.chunks(STREAM_CHUNK) {
            self.write_behind(&mount, uid, &fh, offset, chunk.to_vec())?;
            offset += chunk.len() as u64;
        }
        self.barrier(&mount)
    }

    /// Reads a whole file.
    pub fn read_file(&self, uid: u32, path: &str) -> Result<Vec<u8>, ClientError> {
        let (mount, fh, attr) = self.resolve(uid, path)?;
        let mut out = Vec::with_capacity(attr.size as usize);
        let mut offset = 0u64;
        loop {
            let (data, eof) = self.read(&mount, uid, &fh, offset, STREAM_CHUNK as u32)?;
            offset += data.len() as u64;
            let done = eof || data.is_empty();
            out.extend_from_slice(&data);
            if done {
                return Ok(out);
            }
        }
    }

    /// Creates a directory.
    pub fn mkdir(&self, uid: u32, path: &str) -> Result<(), ClientError> {
        let (dir, leaf) = split_parent(path)?;
        let (mount, dir_fh, _) = self.resolve(uid, dir)?;
        match self.call_nfs(
            &mount,
            uid,
            &Nfs3Request::Mkdir {
                dir: dir_fh,
                name: leaf.to_string(),
                attrs: Sattr3 {
                    mode: Some(0o755),
                    ..Default::default()
                },
            },
        )? {
            Nfs3Reply::Mkdir { .. } => Ok(()),
            Nfs3Reply::Error { status, .. } => Err(ClientError::Nfs(status)),
            other => Err(ClientError::Protocol(format!("{other:?}"))),
        }
    }

    /// Creates a symlink (the key-management primitive of §2.4).
    pub fn symlink(&self, uid: u32, path: &str, target: &str) -> Result<(), ClientError> {
        let (dir, leaf) = split_parent(path)?;
        let (mount, dir_fh, _) = self.resolve(uid, dir)?;
        match self.call_nfs(
            &mount,
            uid,
            &Nfs3Request::Symlink {
                dir: dir_fh,
                name: leaf.to_string(),
                target: target.to_string(),
            },
        )? {
            Nfs3Reply::Symlink { .. } => Ok(()),
            Nfs3Reply::Error { status, .. } => Err(ClientError::Nfs(status)),
            other => Err(ClientError::Protocol(format!("{other:?}"))),
        }
    }

    /// Removes a file.
    pub fn remove(&self, uid: u32, path: &str) -> Result<(), ClientError> {
        let (dir, leaf) = split_parent(path)?;
        let (mount, dir_fh, _) = self.resolve(uid, dir)?;
        match self.call_nfs(
            &mount,
            uid,
            &Nfs3Request::Remove {
                dir: dir_fh,
                name: leaf.to_string(),
            },
        )? {
            Nfs3Reply::Remove { .. } => Ok(()),
            Nfs3Reply::Error { status, .. } => Err(ClientError::Nfs(status)),
            other => Err(ClientError::Protocol(format!("{other:?}"))),
        }
    }

    /// Lists a directory (names only).
    pub fn readdir(&self, uid: u32, path: &str) -> Result<Vec<String>, ClientError> {
        let (mount, fh, _) = self.resolve(uid, path)?;
        let mut names = Vec::new();
        let mut cookie = 0;
        loop {
            match self.call_nfs(
                &mount,
                uid,
                &Nfs3Request::ReadDir {
                    dir: fh.clone(),
                    cookie,
                    count: 64,
                    plus: false,
                },
            )? {
                Nfs3Reply::ReadDir { entries, eof, .. } => {
                    for e in entries {
                        cookie = e.cookie;
                        names.push(e.name);
                    }
                    if eof {
                        return Ok(names);
                    }
                }
                Nfs3Reply::Error { status, .. } => return Err(ClientError::Nfs(status)),
                other => return Err(ClientError::Protocol(format!("{other:?}"))),
            }
        }
    }
}

impl std::fmt::Debug for SfsClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SfsClient")
            .field("mounts", &self.mounts.lock().len())
            .field("agents", &self.agents.lock().len())
            .finish()
    }
}

fn split_parent(path: &str) -> Result<(&str, &str), ClientError> {
    let path = path.trim_end_matches('/');
    match path.rfind('/') {
        Some(i) if i > 0 => Ok((&path[..i], &path[i + 1..])),
        _ => Err(ClientError::Path(PathError::BadFormat)),
    }
}
