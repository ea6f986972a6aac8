//! The SFS server: `sfssd` dispatch plus the read-write and read-only
//! servers (§3, §3.2, §3.3).
//!
//! A [`SfsServer`] owns the long-lived key, the exported file system (via
//! an embedded NFS3 engine — "the server acts as an NFS client, passing
//! the request to an NFS server on the same machine"), and the
//! authserver. Each client TCP connection becomes a [`ServerConn`] state
//! machine: `sfssd` inspects the first message and routes it to the
//! read-write protocol, the read-only dialect, or the authserver's SRP
//! service, exactly as §3.2's connection hand-off describes.
//!
//! This module holds the types — [`SfsServer`], [`ServerConn`], the
//! per-session `Established` state — and the server-wide services
//! (keys, handle cipher, tickets, boot epochs, invalidation fan-out).
//! A connection's two stages are `impl ServerConn` blocks in child
//! modules:
//!
//! - `conn`: the cleartext state machine and the preamble every
//!   message passes (§3.2);
//! - `sealed`: serving frames on an established channel — sequencing,
//!   the scheduling entry, credential tagging and the NFS relay
//!   (§3.1.3, §3.3);
//! - `handles`: the session's memo of file-handle translations in front
//!   of the handle cipher (§3.3);
//! - `roreplica`: the read-only dialect's connection seam and the
//!   keyless replica (§2.4).
//!
//! NFS file handles never cross the wire raw: "SFS servers … make their
//! file handles publicly available to anonymous clients. SFS therefore
//! generates its file handles by adding redundancy to NFS handles and
//! encrypting them in CBC mode with a 20-byte Blowfish key" (§3.3).

mod conn;
mod handles;
mod roreplica;
mod sealed;

use handles::{FH_REDUNDANCY, NFS_LEN, PUBLIC_LEN};

pub use roreplica::{RoConnection, RoReplicaServer};

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use sfs_bignum::{Nat, RandomSource};
use sfs_crypto::blowfish::Blowfish;
use sfs_crypto::chachapoly;
use sfs_crypto::rabin::RabinPrivateKey;
use sfs_crypto::sha1::{sha1_concat, DIGEST_LEN};
use sfs_crypto::srp::SrpServer;
use sfs_crypto::SfsPrg;
use sfs_nfs3::proto::{FileHandle, Nfs3Reply, Nfs3Request, Nfs3RequestRef, Proc, Status, FHSIZE};
use sfs_nfs3::Nfs3Server;
use sfs_proto::channel::{FrameSequencer, SecureChannelEnd, SuiteId};
use sfs_proto::pathname::SelfCertifyingPath;
use sfs_proto::readonly::RoDatabase;
use sfs_proto::revoke::{ForwardingPointer, RevocationCert};
use sfs_proto::userauth::SeqWindow;
use sfs_sim::{FaultPlan, ServerLoad};
use sfs_telemetry::sync::Mutex;
use sfs_telemetry::Telemetry;
use sfs_vfs::{Credentials, Vfs};
use sfs_xdr::{Xdr, XdrDecoder, XdrEncoder};

use crate::authserver::AuthServer;
use crate::bufpool::BufPool;
use crate::config::DispatchTable;
use crate::shard::ShardEngine;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// DNS name or IP address of this server.
    pub(crate) location: String,
    /// Lease duration for the enhanced caching extension, ns.
    pub lease_ns: u64,
    /// `sfssd`'s connection-dispatch table (§3.2).
    pub(crate) dispatch: DispatchTable,
}

impl ServerConfig {
    /// A config with the paper's defaults (leases on, standard dispatch
    /// table).
    pub fn new(location: &str) -> Self {
        ServerConfig {
            location: location.to_string(),
            lease_ns: 30_000_000_000,
            dispatch: DispatchTable::standard(),
        }
    }
}

/// Fan-out point for lease invalidation callbacks: every live
/// connection gets its own pending queue, so a callback reaches *all*
/// clients holding leases, not just whichever connection drains a reply
/// first. Queues are held weakly — a dropped [`ServerConn`] prunes
/// itself on the next broadcast. A crash-restart clears every queue:
/// pending callbacks die with the instance (stale connections are
/// rejected anyway, which forces the cache flush on reconnect).
struct InvalidationHub {
    queues: Mutex<Vec<Weak<Mutex<Vec<FileHandle>>>>>,
}

impl InvalidationHub {
    fn new() -> Arc<Self> {
        Arc::new(InvalidationHub {
            queues: Mutex::new(Vec::new()),
        })
    }

    /// Registers a fresh per-connection queue.
    fn register(&self) -> Arc<Mutex<Vec<FileHandle>>> {
        let q = Arc::new(Mutex::new(Vec::new()));
        self.queues.lock().push(Arc::downgrade(&q));
        q
    }

    /// Pushes one invalidation onto every live queue.
    fn broadcast(&self, fh: FileHandle) {
        self.queues.lock().retain(|w| match w.upgrade() {
            Some(q) => {
                q.lock().push(fh);
                true
            }
            None => false,
        });
    }

    /// Drops all pending invalidations (crash-restart side effect).
    fn clear_all(&self) {
        self.queues.lock().retain(|w| match w.upgrade() {
            Some(q) => {
                q.lock().clear();
                true
            }
            None => false,
        });
    }
}

/// The SFS server.
pub struct SfsServer {
    config: ServerConfig,
    key: RabinPrivateKey,
    path: SelfCertifyingPath,
    nfs: Nfs3Server,
    auth: Arc<AuthServer>,
    fh_cipher: Blowfish,
    /// AEAD key sealing session-resumption tickets. Derived from the
    /// server key (like the file-handle cipher) so tickets minted before
    /// a crash-restart still unseal afterwards — resumption is exactly
    /// the recovery path that must survive a reboot.
    ticket_key: [u8; 32],
    rng: Mutex<SfsPrg>,
    /// When set, served in response to hellos for the revoked HostID.
    revocation: Mutex<Option<RevocationCert>>,
    /// Published read-only database, when this server exports the
    /// read-only dialect.
    ro_db: Mutex<Option<Arc<RoDatabase>>>,
    /// Lease invalidations pending delivery, fanned out per connection
    /// (piggybacked on replies).
    invalidations: Arc<InvalidationHub>,
    /// Boot epoch from crashes triggered by hand ([`Self::crash_restart`]).
    manual_epoch: AtomicU64,
    /// Highest fault-plan-scheduled crash epoch already applied.
    seen_plan_epoch: AtomicU64,
    /// Optional fault plan supplying a crash-restart schedule.
    fault: Mutex<Option<FaultPlan>>,
    /// Contention tracker for this server machine; wires attached by a
    /// relay count as concurrent streams sharing its link and CPU.
    load: ServerLoad,
    /// When this server is the primary of a replica group, the hook that
    /// ships each executed mutating op to the backups before the reply
    /// is released (acknowledged-commit).
    replicator: Mutex<Option<Arc<dyn Replicator>>>,
    /// Multi-core dispatch scheduler; `None` keeps the classic
    /// single-server discipline byte-for-byte.
    shards: Mutex<Option<Arc<ShardEngine>>>,
    /// The id the next accepted connection gets.
    next_conn: AtomicU64,
    tel: Mutex<Telemetry>,
}

/// Ships executed mutating operations to a replica group.
///
/// Installed on a primary via [`SfsServer::set_replicator`] and invoked
/// *inside* NFS dispatch, after the local execution succeeds but before
/// the reply is encoded — so the client's acknowledgement inherently
/// waits for the group's quorum-durability barrier. `req` is the
/// NFS-form request (plaintext handles) with the caller's resolved
/// credentials; backups holding the same group key re-derive identical
/// wire handles.
pub trait Replicator: Send + Sync {
    fn replicate(&self, creds: &Credentials, req: &Nfs3RequestRef<'_>);
}

/// Whether an NFSv3 procedure mutates the file system (and therefore
/// must be shipped to backups before its reply is released).
pub(crate) fn proc_is_mutating(proc: Proc) -> bool {
    matches!(
        proc,
        Proc::SetAttr
            | Proc::Write
            | Proc::Create
            | Proc::Mkdir
            | Proc::Symlink
            | Proc::Remove
            | Proc::Rmdir
            | Proc::Rename
            | Proc::Link
    )
}

/// Domain separator authenticated into every resumption ticket.
const TICKET_AAD: &[u8] = b"SFS-resume-ticket";

/// How long a resumption ticket stays honored after minting (virtual
/// time). Long enough to cover any realistic reconnect storm, short
/// enough that a stolen ticket ages out.
const TICKET_LIFETIME_NS: u64 = 3_600_000_000_000;

impl SfsServer {
    /// Creates a server exporting `vfs`.
    pub fn new(
        config: ServerConfig,
        key: RabinPrivateKey,
        vfs: Vfs,
        auth: Arc<AuthServer>,
        rng: SfsPrg,
    ) -> Arc<Self> {
        let path = SelfCertifyingPath::for_server(&config.location, key.public());
        auth.set_server_path(path.clone());
        let nfs = Nfs3Server::new(vfs).with_leases(config.lease_ns);
        // The file-handle key is derived from the server key, so handles
        // stay stable across restarts.
        let fh_key = sha1_concat(&[b"SFS-fh-key", &key.to_bytes()]);
        let fh_cipher = Blowfish::new(&fh_key);
        let t1 = sha1_concat(&[b"SFS-ticket-key/1", &key.to_bytes()]);
        let t2 = sha1_concat(&[b"SFS-ticket-key/2", &key.to_bytes()]);
        let mut ticket_key = [0u8; 32];
        ticket_key[..DIGEST_LEN].copy_from_slice(&t1);
        ticket_key[DIGEST_LEN..].copy_from_slice(&t2[..32 - DIGEST_LEN]);
        let invalidations = InvalidationHub::new();
        let sink = invalidations.clone();
        nfs.set_invalidation_sink(Arc::new(move |fh| sink.broadcast(fh)));
        Arc::new(SfsServer {
            config,
            key,
            path,
            nfs,
            auth,
            fh_cipher,
            ticket_key,
            rng: Mutex::new(rng),
            revocation: Mutex::new(None),
            ro_db: Mutex::new(None),
            invalidations,
            manual_epoch: AtomicU64::new(0),
            seen_plan_epoch: AtomicU64::new(0),
            fault: Mutex::new(None),
            load: ServerLoad::new(),
            replicator: Mutex::new(None),
            shards: Mutex::new(None),
            next_conn: AtomicU64::new(0),
            tel: Mutex::new(Telemetry::disabled()),
        })
    }

    /// Installs an `n`-core [`ShardEngine`]: pipelined frames are
    /// scheduled across `n` simulated cores (crypto on any core, disk
    /// work on the owning handle shard with group commit) instead of
    /// queueing on one logical server. Unset (the default), dispatch
    /// timing is byte-for-byte the classic single-server discipline.
    pub fn set_cores(&self, n: usize) {
        *self.shards.lock() = Some(ShardEngine::new(n));
    }

    /// The installed multi-core scheduler, if any.
    pub fn shard_engine(&self) -> Option<Arc<ShardEngine>> {
        self.shards.lock().clone()
    }

    /// This machine's contention tracker. A routing tier attaches each
    /// wire it hands out to the chosen replica's load, so fan-out across
    /// replicas shows up as reduced per-machine contention.
    pub fn load(&self) -> ServerLoad {
        self.load.clone()
    }

    /// Attaches a tracing sink. Dispatch spans and seqno-window events
    /// are stamped with the server's own simulated clock; the embedded
    /// NFS3 engine is instrumented through the same sink.
    pub fn set_telemetry(&self, tel: &Telemetry) {
        *self.tel.lock() = tel.clone().with_clock(self.nfs.vfs().clock().clone());
        self.nfs.set_telemetry(tel);
    }

    /// The server's self-certifying pathname.
    pub fn path(&self) -> &SelfCertifyingPath {
        &self.path
    }

    /// The server's private key (owner operations: revocation,
    /// forwarding, read-only publication).
    pub fn private_key(&self) -> &RabinPrivateKey {
        &self.key
    }

    /// The exported file system.
    pub fn vfs(&self) -> &Vfs {
        self.nfs.vfs()
    }

    /// The attached authserver.
    pub fn authserver(&self) -> &Arc<AuthServer> {
        &self.auth
    }

    /// The root file handle in SFS (encrypted) form.
    pub(crate) fn root_handle(&self) -> FileHandle {
        self.encrypt_handle(self.nfs.root_handle())
            .expect("the NFS server's 16-byte handles encrypt")
    }

    /// Revokes this server's pathname: subsequent hellos for the old
    /// HostID receive the certificate.
    pub fn install_revocation(&self, cert: RevocationCert) {
        *self.revocation.lock() = Some(cert);
    }

    /// Installs a forwarding pointer (§2.4): signs a pointer from this
    /// server's pathname to `new_path` and serves it as the well-known
    /// `/.forward` file, so clients can follow the move. (If the key was
    /// *compromised* rather than moved, use [`Self::install_revocation`]
    /// instead — "a revocation certificate always overrules a forwarding
    /// pointer".)
    pub fn install_forwarding(&self, new_path: SelfCertifyingPath) -> ForwardingPointer {
        let ptr = ForwardingPointer::issue(&self.key, &self.config.location, new_path);
        let vfs = self.nfs.vfs();
        let root_creds = Credentials::root();
        let root = vfs.root();
        vfs.write_file(&root_creds, root, ".forward", &ptr.to_xdr())
            .expect("forwarding file");
        ptr
    }

    /// Publishes (or refreshes) the read-only export by snapshotting the
    /// current file system. The signature happens here, once — connecting
    /// clients cost no further private-key operations.
    pub fn publish_read_only(&self, version: u64) -> Arc<RoDatabase> {
        let db = Arc::new(RoDatabase::publish(self.nfs.vfs(), &self.key, version));
        *self.ro_db.lock() = Some(db.clone());
        db
    }

    /// Encrypts an NFS handle into its public SFS form: Blowfish-CBC
    /// over the handle and eight bytes of SHA-1 redundancy (the server's
    /// 16-byte handles become three cipher blocks). A handle that cannot
    /// fill whole blocks with its redundancy inside [`FHSIZE`] bytes is
    /// refused with `BadHandle`, never truncated into a handle that
    /// names something else.
    pub fn encrypt_handle(&self, fh: FileHandle) -> Result<FileHandle, Status> {
        let mut buf = [0u8; FHSIZE];
        let Some(sealed) = buf
            .get_mut(..fh.len() + FH_REDUNDANCY)
            .filter(|b| b.len().is_multiple_of(FH_REDUNDANCY))
        else {
            return Err(Status::BadHandle);
        };
        let (inner, red) = sealed.split_at_mut(fh.len());
        inner.copy_from_slice(fh.as_bytes());
        red.copy_from_slice(&sha1_concat(&[b"SFS-fh-redundancy", inner])[..FH_REDUNDANCY]);
        self.fh_cipher.cbc_encrypt(sealed);
        FileHandle::new(sealed).ok_or(Status::BadHandle)
    }

    /// Decrypts and validates an SFS handle back to NFS form, on the
    /// stack: wire handles are exactly 24 bytes, anything else is
    /// `BadHandle`.
    pub fn decrypt_handle(&self, fh: &FileHandle) -> Result<FileHandle, Status> {
        let Ok(mut buf) = <[u8; PUBLIC_LEN]>::try_from(fh.as_bytes()) else {
            return Err(Status::BadHandle);
        };
        self.fh_cipher.cbc_decrypt(&mut buf);
        let (inner, red) = buf.split_at(NFS_LEN);
        let expect = sha1_concat(&[b"SFS-fh-redundancy", inner]);
        if red != &expect[..FH_REDUNDANCY] {
            return Err(Status::BadHandle);
        }
        FileHandle::new(inner).ok_or(Status::BadHandle)
    }

    /// Seals a session-resumption ticket: an opaque blob only this
    /// server (or a restarted instance holding the same key) can read.
    /// Layout: `nonce[12] ‖ AEAD(secret ‖ suite ‖ issued_ns) ‖ tag`.
    fn mint_ticket(&self, secret: &[u8; DIGEST_LEN], suite: SuiteId, issued_ns: u64) -> Vec<u8> {
        let mut enc = XdrEncoder::new();
        enc.put_opaque_fixed(secret);
        enc.put_u32(suite.wire_id());
        enc.put_u64(issued_ns);
        let mut nonce = [0u8; chachapoly::NONCE_LEN];
        self.rng.lock().fill(&mut nonce);
        let mut ticket = nonce.to_vec();
        ticket.extend_from_slice(&chachapoly::seal(
            &self.ticket_key,
            &nonce,
            TICKET_AAD,
            enc.bytes(),
        ));
        ticket
    }

    /// Unseals and validates a resumption ticket. Only authenticity and
    /// well-formedness are checked here; freshness (expiry) is the
    /// caller's policy.
    fn unseal_ticket(&self, ticket: &[u8]) -> Result<([u8; DIGEST_LEN], SuiteId, u64), String> {
        if ticket.len() < chachapoly::NONCE_LEN + chachapoly::TAG_LEN {
            return Err("ticket too short".into());
        }
        let (nonce, sealed) = ticket.split_at(chachapoly::NONCE_LEN);
        let nonce: [u8; chachapoly::NONCE_LEN] = nonce.try_into().expect("split length");
        let payload = chachapoly::open(&self.ticket_key, &nonce, TICKET_AAD, sealed)
            .map_err(|_| "ticket authentication failed".to_string())?;
        let mut dec = XdrDecoder::new(&payload);
        let bad = |e: sfs_xdr::XdrError| format!("malformed ticket payload: {e}");
        let secret: [u8; DIGEST_LEN] = dec
            .get_opaque_fixed(DIGEST_LEN)
            .map_err(bad)?
            .try_into()
            .expect("fixed length");
        let suite_wire = dec.get_u32().map_err(bad)?;
        let issued_ns = dec.get_u64().map_err(bad)?;
        dec.finish().map_err(bad)?;
        let suite = SuiteId::from_wire(suite_wire)
            .ok_or_else(|| format!("ticket names unknown suite {suite_wire}"))?;
        Ok((secret, suite, issued_ns))
    }

    /// Attaches a seeded fault plan; its crash schedule takes effect
    /// lazily as the virtual clock passes each scheduled instant.
    pub fn set_fault_plan(&self, plan: FaultPlan) {
        *self.fault.lock() = Some(plan);
    }

    /// Installs (or clears) the log-shipping hook run for every mutating
    /// NFS operation this server executes as a replica-group primary.
    pub fn set_replicator(&self, repl: Option<Arc<dyn Replicator>>) {
        *self.replicator.lock() = repl;
    }

    /// Applies one logged NFS-form operation to this server's file
    /// system — the backup side of log shipping, and log replay at
    /// promotion. Runs the same relay path a live dispatch uses, but
    /// without handle translation (logged ops are already NFS-form) and
    /// without re-entering the replicator.
    pub fn apply_logged(&self, creds: &Credentials, req: &Nfs3Request) -> Nfs3Reply {
        self.nfs.handle(creds, req)
    }

    /// Crash-restarts the server by hand: every live connection's state
    /// (secure channels, authentication numbers, seqno windows) is gone,
    /// as are pending lease invalidations. Long-lived state — the server
    /// key, the file system, the file-handle cipher derived from the key
    /// — survives, which is exactly what lets clients reconnect and
    /// renegotiate against the *same* self-certifying pathname.
    pub fn crash_restart(&self) {
        self.manual_epoch.fetch_add(1, Ordering::SeqCst);
        self.invalidations.clear_all();
        let tel = self.tel.lock().clone();
        tel.count("server", "restarts", 1);
        tel.instant("server", "core.server", "restart");
        if let Some(plan) = &*self.fault.lock() {
            plan.note_server_crash(self.nfs.vfs().clock().now());
        }
    }

    /// The current boot epoch: manual crash-restarts plus any fault-plan
    /// crashes the virtual clock has passed. Connections opened in an
    /// older epoch are permanently rejected — their session state died
    /// with the crashed instance.
    pub fn current_epoch(&self) -> u64 {
        let plan_epoch = self
            .fault
            .lock()
            .as_ref()
            .map(|p| p.server_epoch(self.nfs.vfs().clock().now()))
            .unwrap_or(0);
        let seen = self.seen_plan_epoch.load(Ordering::SeqCst);
        if plan_epoch > seen
            && self
                .seen_plan_epoch
                .compare_exchange(seen, plan_epoch, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
        {
            // First observation of a scheduled crash: apply the restart's
            // side effects once.
            self.invalidations.clear_all();
            let tel = self.tel.lock().clone();
            tel.count("server", "restarts", plan_epoch - seen);
            tel.instant("server", "core.server", "restart");
            if let Some(plan) = &*self.fault.lock() {
                for _ in seen..plan_epoch {
                    plan.note_server_crash(self.nfs.vfs().clock().now());
                }
            }
        }
        self.manual_epoch.load(Ordering::SeqCst) + plan_epoch
    }

    /// Opens a new connection (one per client TCP connection).
    pub fn accept(self: &Arc<Self>) -> ServerConn {
        let pool = BufPool::new("server");
        pool.set_telemetry(self.tel.lock().clone());
        ServerConn {
            id: self.next_conn.fetch_add(1, Ordering::Relaxed),
            epoch: self.current_epoch(),
            pending: self.invalidations.register(),
            server: self.clone(),
            state: Mutex::new(ConnState::Idle),
            pool,
        }
    }
}

impl std::fmt::Debug for SfsServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SfsServer")
            .field("location", &self.config.location)
            .field("path", &self.path.dir_name())
            .finish()
    }
}

/// How many out-of-order pipelined frames the server will buffer ahead
/// of a reorder gap before declaring the channel broken.
const SEQ_BUF_CAPACITY: usize = 64;

/// The most sealed replies kept for byte-identical retransmission. A
/// client's own batches keep the cache far below this — every new batch
/// retires the previous one's replies (`sealed`'s retransmit horizon) —
/// so the cap bounds only a peer that never starts a new batch: the
/// memory an unauthenticated-reachable connection can pin. A replay
/// older than what the cache holds cannot be answered (the ciphers have
/// long moved on) and kills the session.
const REPLY_CACHE_CAPACITY: usize = 256;

struct Established {
    channel: SecureChannelEnd,
    session_id: [u8; 20],
    authnos: HashMap<u32, (String, Credentials)>,
    next_authno: u32,
    seqwin: SeqWindow,
    /// Reorder buffer for pipelined frames that arrived ahead of a gap
    /// in the channel sequence.
    seq_buf: FrameSequencer,
    /// Sealed replies keyed by the request's channel sequence number,
    /// resent verbatim on retransmission (the send cipher must not
    /// advance for a frame the client may already have). Holds the
    /// current batch's replies, never more than
    /// [`REPLY_CACHE_CAPACITY`], each in a buffer from the connection's
    /// pool.
    reply_cache: BTreeMap<u64, Vec<u8>>,
    /// The handle translations this session's cipher has made.
    fh_map: handles::HandleMap,
}

enum ConnState {
    /// Nothing received yet; `sfssd` will route on the first message.
    Idle,
    /// Read-write hello done, awaiting the client's key-negotiation
    /// message. Carries the hello's raw cipher-suite offer so key
    /// derivation can bind it (downgrade protection).
    AwaitClientKeys { offer: String },
    /// Secure channel up.
    Established(Box<Established>),
    /// Read-only dialect selected.
    ReadOnly,
    /// SRP handshake in progress.
    SrpAwaitFinish {
        user: String,
        a_pub: Nat,
        srp: Option<Box<SrpServer>>,
    },
}

/// One client connection's server-side state machine.
pub struct ServerConn {
    server: Arc<SfsServer>,
    /// Names this connection to the server's [`ShardEngine`].
    id: u64,
    /// The server boot epoch this connection was accepted in; a crash
    /// restart invalidates it and every message afterwards is refused.
    epoch: u64,
    /// This connection's share of the invalidation broadcast.
    pending: Arc<Mutex<Vec<FileHandle>>>,
    state: Mutex<ConnState>,
    /// Freelist shared with the client end of this (loopback) connection
    /// so steady-state sealed RPCs recycle the same few buffers.
    pool: Arc<BufPool>,
}

impl Drop for ServerConn {
    /// A closed connection sends nothing more, so it stops holding back
    /// the shard engine's horizon.
    fn drop(&mut self) {
        if let Some(engine) = self.server.shard_engine() {
            engine.forget(self.id);
        }
    }
}

#[cfg(test)]
mod tests;
