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
//!
//! This module holds the types — [`SfsClient`], [`Mount`], their
//! private state — and the client master's configuration and agent
//! registry. The daemon's jobs are `impl` blocks in child modules, split
//! where the paper splits them:
//!
//! - `net`: [`SfsNetwork`] and the [`Router`] seam every dial goes
//!   through (§3.2);
//! - `session`: mount, key negotiation, ticket resumption, reconnect
//!   (§3.1);
//! - `rpc`: the RPC spine — cost terms, the reconnect and reissue
//!   drivers, user authentication, and the one exchange loop (§3.1.3,
//!   §4.2);
//! - `ahead`: a window's replies opened on the helper thread while the
//!   window is served;
//! - `cache`: leases, invalidation callbacks, read-ahead, write-behind
//!   (§3.3);
//! - `namei`: pathname resolution, agent interposition, whole-file
//!   operations (§2.3, §2.4);
//! - `recovery`: the state journal and the agent socket (§3.2).

mod ahead;
mod cache;
mod namei;
mod net;
mod recovery;
mod rpc;
mod session;

#[doc(hidden)]
pub use ahead::force_open_ahead;
pub use net::{RoutedRo, RoutedRw, Router, RwRoute, SfsNetwork};

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use sfs_crypto::rabin::{generate_keypair, RabinPrivateKey};
use sfs_crypto::sha1::DIGEST_LEN;
use sfs_crypto::SfsPrg;
use sfs_nfs3::proto::{Fattr3, FileHandle, Nfs3Reply, Nfs3Request, Status};
use sfs_proto::channel::{ChannelError, SecureChannelEnd, SuiteId};
use sfs_proto::keyneg::SuiteOffer;
use sfs_proto::pathname::{HostId, PathError, SelfCertifyingPath};
use sfs_sim::{CpuCosts, Exchange, SimClock, SimTime, Wire, WireError};
use sfs_telemetry::sync::Mutex;
use sfs_telemetry::Telemetry;

use crate::agent::Agent;
use crate::bufpool::BufPool;
use crate::journal::ClientJournal;
use crate::server::ServerConn;

/// Default ephemeral-key size. The paper's servers used 1280-bit keys;
/// 768 keeps deterministic test runs fast while exercising identical code
/// paths.
pub(crate) const EPHEMERAL_KEY_BITS: usize = 768;

/// Maximum symlink traversals during path resolution.
const MAX_SYMLINK_DEPTH: usize = 16;

/// The read-write protocol version this client speaks (dispatched on by
/// `sfssd`, §3.2).
pub(crate) const PROTOCOL_VERSION: u32 = 1;

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
    /// The server refused the session: it answered a sealed exchange
    /// with an unsequenced error. The words are unauthenticated and only
    /// shown; whatever they say, a reconnect is the one way on.
    Refused(String),
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
            ClientError::Refused(e) => write!(f, "session refused: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl ClientError {
    /// What a reply other than the one a call expects means: the
    /// server's NFS status when it sent one, a protocol violation
    /// otherwise.
    fn unexpected(reply: Nfs3Reply) -> Self {
        match reply {
            Nfs3Reply::Error { status, .. } => ClientError::Nfs(status),
            other => ClientError::Protocol(format!("{other:?}")),
        }
    }
}

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
    /// The buffers its exchanges reuse, the handshake's included.
    bufs: LentBufs,
    session_id: [u8; 20],
    /// The server public key that passed self-certification for this
    /// link (journaled with the mount so recovery can cross-check).
    server_key: Vec<u8>,
    /// Bumped on every reconnect; lets concurrent callers detect that a
    /// renegotiation already happened.
    generation: u64,
}

/// The buffers one exchange fills and drains: each sealed frame with its
/// send stamp, kept verbatim for retransmission (empty between
/// exchanges), and the wire's. Links hand them on through their
/// client's shelf, so neither a steady exchange nor a new link
/// allocates them.
#[derive(Default)]
struct ExchangeBufs {
    sealed: Vec<(SimTime, Vec<u8>)>,
    wire: Exchange,
}

/// Exchange buffers lent from the client's shelf when a connection is
/// dialed; they go back there when dropped — with the link, or with a
/// handshake that failed — for the next dial to take.
struct LentBufs {
    bufs: ExchangeBufs,
    shelf: Arc<Mutex<Vec<ExchangeBufs>>>,
}

impl Drop for LentBufs {
    fn drop(&mut self) {
        let mut bufs = std::mem::take(&mut self.bufs);
        bufs.sealed.clear();
        self.shelf.lock().push(bufs);
    }
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
    /// durable [`crate::journal::JournalRecord::SeqHwm`], so a restarted
    /// client resuming at the mark can never reuse one.
    seq_hwm: AtomicU32,
    attr_cache: Mutex<HashMap<FileHandle, CachedAttr>>,
    access_cache: Mutex<HashMap<AccessKey, CachedAttr>>,
    /// Round trips accumulated on wires discarded by reconnects.
    prior_round_trips: AtomicU64,
    reconnects: AtomicU64,
    /// Read-ahead state per file handle.
    streams: Mutex<HashMap<FileHandle, StreamState>>,
    /// Write-behind queue: writes accepted locally but not yet issued,
    /// flushed as one pipelined window at the next barrier.
    wb_queue: Mutex<Vec<(u32, Nfs3Request)>>,
}

/// Access-cache key: (file handle, uid, requested mask).
type AccessKey = (FileHandle, u32, u32);

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

/// The SFS client (one per client machine).
pub struct SfsClient {
    clock: SimClock,
    net: Arc<SfsNetwork>,
    cpu: Option<CpuCosts>,
    /// The ephemeral key K_C, shared with every negotiation that uses it.
    ephemeral: Mutex<Arc<RabinPrivateKey>>,
    rng: Mutex<SfsPrg>,
    retry: Mutex<RetryPolicy>,
    /// xorshift64* state for deterministic backoff jitter (seeded from
    /// the client's entropy, independent of the crypto generator so
    /// retry timing never perturbs key material).
    jitter: AtomicU64,
    agents: Mutex<HashMap<u32, Arc<Mutex<Agent>>>>,
    /// Established mounts, by the whole pathname they serve: a path whose
    /// location does not match its HostID misses, and fails to mount.
    mounts: Mutex<HashMap<SelfCertifyingPath, Arc<Mount>>>,
    /// Which self-certifying names each agent (uid) has referenced — the
    /// `/sfs` listing filter of §2.3.
    referenced: Mutex<HashMap<u32, HashSet<SelfCertifyingPath>>>,
    caching: AtomicBool,
    charge_crypto: AtomicBool,
    /// How many sealed calls may be in flight at once on a mount's
    /// channel. 1 is the blocking request/reply protocol.
    pipeline_window: AtomicUsize,
    /// Cipher suites offered in every hello, in preference order, with
    /// the hello's token rendered once. The default offers only the
    /// paper's ARC4+SHA-1 baseline, keeping the handshake byte-identical
    /// to the original protocol.
    suite_offer: Mutex<Arc<SuiteOffer>>,
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
    /// Exchange buffers no live link holds.
    exchange_bufs: Arc<Mutex<Vec<ExchangeBufs>>>,
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
            ephemeral: Mutex::new(Arc::new(ephemeral)),
            rng: Mutex::new(rng),
            retry: Mutex::new(RetryPolicy::default()),
            jitter: AtomicU64::new(seed),
            agents: Mutex::new(HashMap::new()),
            mounts: Mutex::new(HashMap::new()),
            referenced: Mutex::new(HashMap::new()),
            caching: AtomicBool::new(true),
            charge_crypto: AtomicBool::new(true),
            pipeline_window: AtomicUsize::new(DEFAULT_PIPELINE_WINDOW),
            suite_offer: Mutex::new(Arc::new(SuiteOffer::new(&[SuiteId::Arc4Sha1]))),
            resumption: AtomicBool::new(true),
            tickets: Mutex::new(HashMap::new()),
            resume_hits: AtomicU64::new(0),
            resume_misses: AtomicU64::new(0),
            resume_rejected: AtomicU64::new(0),
            journal: Mutex::new(None),
            ignore_invalidations: AtomicBool::new(false),
            exchange_bufs: Arc::default(),
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
        *self.suite_offer.lock() = Arc::new(SuiteOffer::new(suites));
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
    /// jitter, charged to the virtual clock and reported into `tel`.
    fn backoff(&self, tel: &Telemetry, attempt: u32) {
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
    pub(crate) fn pipeline_window(&self) -> usize {
        self.pipeline_window.load(Ordering::SeqCst).max(1)
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
}

impl std::fmt::Debug for SfsClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SfsClient")
            .field("mounts", &self.mounts.lock().len())
            .field("agents", &self.agents.lock().len())
            .finish()
    }
}
