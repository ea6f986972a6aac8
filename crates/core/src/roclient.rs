//! The read-only client (§2.4, §3.2).
//!
//! "Implementing the read-only client and server required no changes to
//! existing SFS code; only configuration files had to be changed." This
//! module is that subordinate client daemon: it speaks the read-only
//! dialect (cleartext fetches of a signed root and content-addressed
//! blocks), verifies everything against the self-certifying pathname's
//! key, and caches verified blocks — replicas may be arbitrarily
//! malicious, so nothing unverified is ever returned.
//!
//! Because every block is verified against the digest that named it, the
//! mount can fail over between replicas freely: when a call fails (dead
//! replica) or a block fails verification (lying replica), the mount
//! redials through an optional `RoMount::set_redial` hook, re-certifies
//! the new server against the same HostID, and retries. The signed root's
//! version is monotone across failovers, so a malicious replica cannot
//! roll the mount back to an older snapshot.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use sfs_crypto::rabin::RabinPublicKey;
use sfs_crypto::sha1::sha1;
use sfs_proto::keyneg::{KeyNegRequest, KeyNegServerReply};
use sfs_proto::pathname::SelfCertifyingPath;
use sfs_proto::readonly::{Digest, RoNode, SignedRoot};
use sfs_sim::{Exchange, Wire, WireError};
use sfs_telemetry::sync::Mutex;
use sfs_xdr::Xdr;

use crate::server::RoConnection;
use crate::wire::{CallMsg, Dialect, ReplyMsg, Service};

/// How many replicas one operation will try before giving up.
const MAX_FAILOVERS: u32 = 4;

/// Errors from the read-only client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RoClientError {
    /// Network failure.
    Net(WireError),
    /// The server's key does not match the pathname (self-certification
    /// failed).
    HostIdMismatch,
    /// The signed root failed verification.
    BadRootSignature,
    /// The replica served an older snapshot than one already verified
    /// (rollback attempt).
    Rollback,
    /// A served block did not hash to its digest (lying replica).
    DigestMismatch,
    /// The replica refused service (down for maintenance, mid-crash).
    Unavailable(String),
    /// The replica does not hold a block the verified hash tree names.
    /// Replica-specific by construction — a correct replica of the
    /// current snapshot holds every reachable block — so it is grounds
    /// for failover, not an authoritative absence. Seen mid-rolling-
    /// republish, when a replica has swapped to a snapshot the client's
    /// root (older *or* newer) does not describe.
    MissingBlock,
    /// Path not present. Authoritative: proven absent by a verified
    /// directory listing, not inferred from a replica's block store.
    NotFound,
    /// Unexpected protocol reply.
    Protocol(String),
}

impl std::fmt::Display for RoClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RoClientError::Net(e) => write!(f, "network: {e}"),
            RoClientError::HostIdMismatch => write!(f, "server key does not match HostID"),
            RoClientError::BadRootSignature => write!(f, "signed root failed verification"),
            RoClientError::Rollback => write!(f, "replica served an older snapshot"),
            RoClientError::DigestMismatch => write!(f, "block does not match digest"),
            RoClientError::Unavailable(e) => write!(f, "replica unavailable: {e}"),
            RoClientError::MissingBlock => write!(f, "replica lacks a block the hash tree names"),
            RoClientError::NotFound => write!(f, "no such file"),
            RoClientError::Protocol(e) => write!(f, "protocol: {e}"),
        }
    }
}

impl std::error::Error for RoClientError {}

impl From<WireError> for RoClientError {
    fn from(e: WireError) -> Self {
        RoClientError::Net(e)
    }
}

impl RoClientError {
    /// Whether trying another replica could help. Verification failures
    /// and dead machines are replica-specific; a verified NotFound is
    /// authoritative — the hash tree proves the name is absent.
    fn failover_worthy(&self) -> bool {
        matches!(
            self,
            RoClientError::Net(_)
                | RoClientError::Unavailable(_)
                | RoClientError::MissingBlock
                | RoClientError::DigestMismatch
                | RoClientError::BadRootSignature
                | RoClientError::Rollback
                | RoClientError::Protocol(_)
        )
    }
}

/// The wire and server-side connection currently backing a mount.
struct RoLink {
    wire: Wire,
    conn: Box<dyn RoConnection>,
}

/// Produces a fresh link to some replica of the mounted HostID; a routing
/// tier supplies this so the mount can survive replica deaths.
pub(crate) type RoRedial = Box<dyn Fn() -> Option<(Wire, Box<dyn RoConnection>)> + Send + Sync>;

/// A mounted read-only file system.
pub struct RoMount {
    path: SelfCertifyingPath,
    /// The certified public key. Fixed at mount time: every replica must
    /// present a key hashing to the same HostID, so the key can never
    /// change across failovers.
    key: RabinPublicKey,
    link: Mutex<RoLink>,
    root: Mutex<SignedRoot>,
    /// Verified blocks, by digest. Content addressing makes this cache
    /// trivially shareable between mutually distrustful users — a digest
    /// names exactly one value — and keeps it valid across failovers.
    cache: Mutex<HashMap<Digest, RoNode>>,
    redial: Mutex<Option<RoRedial>>,
    /// The buffers every call and failover handshake crosses the wire
    /// through.
    exchange: Mutex<Exchange>,
    /// Round trips accumulated on links already torn down by failover.
    prior_round_trips: AtomicU64,
    failovers: AtomicU64,
}

/// Runs the read-only handshake on a fresh link: hello, certify the key
/// against the HostID, fetch and verify the signed root.
fn handshake(
    path: &SelfCertifyingPath,
    wire: &Wire,
    conn: &dyn RoConnection,
    x: &mut Exchange,
) -> Result<(RabinPublicKey, SignedRoot), RoClientError> {
    let hello = CallMsg::Hello {
        req: KeyNegRequest {
            location: path.location.clone(),
            host_id: path.host_id,
        },
        service: Service::File,
        dialect: Dialect::ReadOnly,
        version: 1,
        extensions: String::new(),
    };
    let key = match call(wire, conn, x, hello)? {
        ReplyMsg::ServerReply(KeyNegServerReply::ServerKey(k)) => {
            RabinPublicKey::from_bytes(&k).map_err(|_| RoClientError::HostIdMismatch)?
        }
        other => return Err(RoClientError::Protocol(format!("{other:?}"))),
    };
    if !path.certifies(&key) {
        return Err(RoClientError::HostIdMismatch);
    }
    let root = match call(wire, conn, x, CallMsg::RoGetRoot)? {
        ReplyMsg::RoRoot(root) => root,
        other => return Err(RoClientError::Protocol(format!("{other:?}"))),
    };
    if !root.verify(&key) {
        return Err(RoClientError::BadRootSignature);
    }
    Ok((key, root))
}

impl RoMount {
    /// Connects to `path` over `wire`/`conn` using the read-only dialect,
    /// certifying the server key against the HostID and verifying the
    /// signed root.
    pub fn connect(
        path: SelfCertifyingPath,
        wire: Wire,
        conn: Box<dyn RoConnection>,
    ) -> Result<RoMount, RoClientError> {
        let mut exchange = Exchange::default();
        let (key, root) = handshake(&path, &wire, conn.as_ref(), &mut exchange)?;
        Ok(RoMount {
            path,
            key,
            link: Mutex::new(RoLink { wire, conn }),
            root: Mutex::new(root),
            cache: Mutex::new(HashMap::new()),
            redial: Mutex::new(None),
            exchange: Mutex::new(exchange),
            prior_round_trips: AtomicU64::new(0),
            failovers: AtomicU64::new(0),
        })
    }

    /// Installs the failover hook. Without one, the first replica is the
    /// only replica and errors surface directly.
    pub(crate) fn set_redial(&self, redial: RoRedial) {
        *self.redial.lock() = Some(redial);
    }

    /// The verified snapshot version (monotone across failovers).
    pub fn version(&self) -> u64 {
        self.root.lock().version
    }

    /// Network round trips so far, across every link this mount has used.
    pub fn round_trips(&self) -> u64 {
        self.prior_round_trips.load(Ordering::SeqCst) + self.link.lock().wire.round_trips()
    }

    /// How many times the mount has moved to another replica.
    pub fn failovers(&self) -> u64 {
        self.failovers.load(Ordering::SeqCst)
    }

    /// Abandons the current link and re-runs the handshake against
    /// whatever replica the redial hook supplies, enforcing the same
    /// HostID and a non-decreasing snapshot version.
    fn failover(&self) -> Result<(), RoClientError> {
        let Some((wire, conn)) = self.redial.lock().as_ref().and_then(|redial| redial()) else {
            return Err(RoClientError::Unavailable(
                "no replica to fail over to".into(),
            ));
        };
        let (key, root) = handshake(&self.path, &wire, conn.as_ref(), &mut self.exchange.lock())?;
        // Both keys certify the same HostID, which is collision-resistant,
        // so they must be the same key; keep the original regardless.
        debug_assert_eq!(key.to_bytes(), self.key.to_bytes());
        let mut current = self.root.lock();
        if root.version < current.version {
            return Err(RoClientError::Rollback);
        }
        *current = root;
        drop(current);
        let mut link = self.link.lock();
        self.prior_round_trips
            .fetch_add(link.wire.round_trips(), Ordering::SeqCst);
        *link = RoLink { wire, conn };
        self.failovers.fetch_add(1, Ordering::SeqCst);
        Ok(())
    }

    /// Issues one call on the current link.
    fn call_current(&self, msg: CallMsg) -> Result<ReplyMsg, RoClientError> {
        let link = self.link.lock();
        call(
            &link.wire,
            link.conn.as_ref(),
            &mut self.exchange.lock(),
            msg,
        )
    }

    /// Fetches and verifies the block named by `digest`, failing over to
    /// other replicas on replica-specific errors.
    fn fetch(&self, digest: Digest) -> Result<RoNode, RoClientError> {
        if let Some(node) = self.cache.lock().get(&digest) {
            return Ok(node.clone());
        }
        let mut attempts = 0u32;
        loop {
            match self.fetch_once(digest) {
                Ok(node) => return Ok(node),
                Err(e) if e.failover_worthy() && attempts < MAX_FAILOVERS => {
                    attempts += 1;
                    // A failed failover can itself be replica-specific —
                    // the redial landed on a dead machine, or (mid
                    // rolling republish) on a replica still presenting
                    // an older root, which the monotone-version check
                    // rejects as Rollback. Keep moving through the
                    // budget; only non-failover-worthy handshake errors
                    // surface immediately.
                    match self.failover() {
                        Ok(()) => {}
                        Err(fe) if fe.failover_worthy() && attempts < MAX_FAILOVERS => {
                            attempts += 1;
                        }
                        Err(fe) => return Err(fe),
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn fetch_once(&self, digest: Digest) -> Result<RoNode, RoClientError> {
        let block = match self.call_current(CallMsg::RoGetBlock(digest))? {
            ReplyMsg::RoBlock(b) => b,
            ReplyMsg::Error(e) if e.contains("unavailable") => {
                return Err(RoClientError::Unavailable(e))
            }
            // The hash tree named this digest, so on a correct replica
            // of the right snapshot it exists; a replica without it is
            // wrong or mid-republish, never proof of absence.
            ReplyMsg::Error(e) if e.contains("no such block") => {
                return Err(RoClientError::MissingBlock)
            }
            ReplyMsg::Error(_) => return Err(RoClientError::NotFound),
            other => return Err(RoClientError::Protocol(format!("{other:?}"))),
        };
        // The integrity check: the block must hash to the digest that
        // named it, no matter who served it.
        if sha1(&block) != digest {
            return Err(RoClientError::DigestMismatch);
        }
        let node = RoNode::from_xdr(&block).map_err(|e| RoClientError::Protocol(e.to_string()))?;
        self.cache.lock().insert(digest, node.clone());
        Ok(node)
    }

    /// Resolves a `/`-separated path to a node.
    ///
    /// A rolling republish can swap the snapshot mid-walk: blocks of
    /// the root this walk started from vanish from upgraded replicas.
    /// When that happens, the fetch-level failover has already pulled a
    /// newer (version-monotone) signed root, so the walk restarts from
    /// it instead of surfacing the transient hole.
    pub(crate) fn resolve(&self, path: &str) -> Result<RoNode, RoClientError> {
        for _ in 0..3 {
            let start_version = self.root.lock().version;
            match self.resolve_walk(path) {
                Err(RoClientError::MissingBlock) if self.version() > start_version => continue,
                out => return out,
            }
        }
        self.resolve_walk(path)
    }

    fn resolve_walk(&self, path: &str) -> Result<RoNode, RoClientError> {
        let root_digest = self.root.lock().root_digest;
        let mut node = self.fetch(root_digest)?;
        for comp in path.split('/').filter(|c| !c.is_empty()) {
            let RoNode::Dir(entries) = &node else {
                return Err(RoClientError::NotFound);
            };
            let (_, _, digest) = entries
                .iter()
                .find(|(name, _, _)| name == comp)
                .ok_or(RoClientError::NotFound)?;
            node = self.fetch(*digest)?;
        }
        Ok(node)
    }

    /// Reads a whole file.
    pub fn read_file(&self, path: &str) -> Result<Vec<u8>, RoClientError> {
        match self.resolve(path)? {
            RoNode::File(data) => Ok(data),
            _ => Err(RoClientError::NotFound),
        }
    }

    /// Lists a directory.
    pub fn readdir(&self, path: &str) -> Result<Vec<String>, RoClientError> {
        match self.resolve(path)? {
            RoNode::Dir(entries) => Ok(entries.into_iter().map(|(n, _, _)| n).collect()),
            _ => Err(RoClientError::NotFound),
        }
    }
}

impl std::fmt::Debug for RoMount {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "RoMount({} v{})",
            self.path.dir_name(),
            self.root.lock().version
        )
    }
}

fn call(
    wire: &Wire,
    conn: &dyn RoConnection,
    x: &mut Exchange,
    msg: CallMsg,
) -> Result<ReplyMsg, RoClientError> {
    let bytes = wire.call(msg.to_xdr(), x, |b| conn.handle_ro_bytes(&b))?;
    ReplyMsg::from_xdr(&bytes).map_err(|e| RoClientError::Protocol(e.to_string()))
}
