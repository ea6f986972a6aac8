//! Sessions (§3.1): mounting a self-certifying pathname, the Figure-3
//! key negotiation, ticket resumption, and reconnecting a mount whose
//! session died.
//!
//! Owns the life cycle of a [`Mount`]'s [`Link`]. Dials through `net`,
//! sends its cleartext messages itself ([`SfsClient::raw_call`]), and
//! fetches the root handle through `rpc` once the channel is up; `rpc`
//! calls back into [`SfsClient::reconnect`] when an exchange reports
//! the session dead.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use sfs_bignum::RandomSource;
use sfs_crypto::rabin::generate_keypair;
use sfs_nfs3::proto::FileHandle;
use sfs_proto::channel::{SecureChannelEnd, SuiteId};
use sfs_proto::keyneg::{
    resume_confirm, resume_secret, resume_session, KeyNegClient, KeyNegError, KeyNegServerReply,
    SessionKeys, RESUME_NONCE_LEN,
};
use sfs_proto::pathname::{PathKey, SelfCertifyingPath};
use sfs_sim::{Wire, WireError};
use sfs_telemetry::sync::Mutex;
use sfs_telemetry::Telemetry;
use sfs_xdr::Xdr;

use super::{
    ClientError, LentBufs, Link, Mount, ResumeState, SfsClient, EPHEMERAL_KEY_BITS,
    PROTOCOL_VERSION,
};
use crate::agent::Agent;
use crate::journal::JournalRecord;
use crate::server::ServerConn;
use crate::wire::{CallMsg, Dialect, InnerCall, InnerReply, ReplyMsg, Service};

impl Mount {
    /// The root file handle.
    pub(crate) fn root(&self) -> FileHandle {
        *self.root_fh.lock()
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

    /// How many times this mount has reconnected and renegotiated keys.
    pub fn reconnects(&self) -> u64 {
        self.reconnects.load(Ordering::SeqCst)
    }

    /// The next authentication seqno this mount will sign. Strictly
    /// monotonic across reconnects and failovers *and* — via the journal
    /// — across client crash-restarts; exposed so tests can assert it
    /// never moves backwards.
    pub fn seq_watermark(&self) -> u32 {
        self.next_seq.load(Ordering::SeqCst)
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

impl SfsClient {
    /// Discards and regenerates the ephemeral key K_C ("clients discard
    /// and regenerate K_C at regular intervals (every hour by default)").
    /// Existing sessions are unaffected; new mounts use the fresh key.
    pub fn rotate_ephemeral(&self) {
        let mut rng = self.rng.lock();
        let fresh = generate_keypair(EPHEMERAL_KEY_BITS, &mut *rng);
        *self.ephemeral.lock() = Arc::new(fresh);
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
        self.mounts.lock().remove(path);
        self.mount(uid, path)
    }

    /// Mounts (or returns the cached mount of) a self-certifying
    /// pathname, running the full key negotiation on first access.
    pub fn mount(&self, uid: u32, path: &SelfCertifyingPath) -> Result<Arc<Mount>, ClientError> {
        self.mount_key(uid, path)
    }

    /// [`Self::mount`] by the pathname's two parts, however the caller
    /// holds them.
    pub(super) fn mount_key(&self, uid: u32, key: &dyn PathKey) -> Result<Arc<Mount>, ClientError> {
        // Per-agent policy first: revoked or blocked HostIDs never mount.
        let agent = self.agent(uid);
        if agent.lock().refuses(key.host_id()) {
            return Err(ClientError::Blocked);
        }
        // A mounted path costs no allocation: both lookups go by the
        // caller's `key`, which becomes an owned pathname only the first
        // time.
        {
            let mut referenced = self.referenced.lock();
            let names = referenced.entry(uid).or_default();
            if !names.contains(key) {
                names.insert(key.to_path());
            }
        }
        if let Some(m) = self.mounts.lock().get(key) {
            return Ok(m.clone());
        }

        let path = &key.to_path();
        let tel = self.tel();
        let _mount_span = tel.span("client", "core.client", "mount");
        let link = self.negotiate_with_retry(path, Some(uid), 0)?;
        let mount = Arc::new(Mount {
            path: path.clone(),
            link: Mutex::new(link),
            root_fh: Mutex::new(FileHandle::EMPTY),
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
        // exchange loop's retry machinery already protects this first
        // RPC).
        let root = match self.inner_call(&tel, &mount, &InnerCall::Mount)? {
            InnerReply::MountReply { root } => root,
            other => return Err(ClientError::Protocol(format!("bad mount reply: {other:?}"))),
        };
        *mount.root_fh.lock() = root;
        self.mounts.lock().insert(path.clone(), mount.clone());
        self.journal_record(&JournalRecord::Mount {
            location: path.location.clone(),
            host_id: path.host_id,
            server_key: mount.link.lock().server_key.clone(),
        });
        Ok(mount)
    }

    /// Runs the full Figure-3 key negotiation on a freshly dialed
    /// connection, producing a ready [`Link`]. `user` is who the
    /// negotiation runs for — `None` when it runs for the mount itself
    /// (a reconnect) — and decides whose agents learn of a revocation
    /// certificate served in place of the key.
    fn negotiate_once(
        &self,
        path: &SelfCertifyingPath,
        user: Option<u32>,
        generation: u64,
    ) -> Result<Link, ClientError> {
        let tel = self.tel();
        let (wire, conn) = self.net.dial_checked(&path.location)?;
        let mut bufs = self.lend_bufs();

        // Key negotiation (Figure 3), one span per phase.
        let keyneg_span = tel.span("client", "proto.keyneg", "negotiate");
        let ephemeral = self.ephemeral.lock().clone();
        let offer = self.suite_offer.lock().clone();
        let neg = KeyNegClient::with_offer(path.clone(), ephemeral, offer);
        let hello = CallMsg::Hello {
            req: neg.hello(),
            service: Service::File,
            dialect: Dialect::ReadWrite,
            version: PROTOCOL_VERSION,
            extensions: neg.offer_extensions(),
        };
        let phase = tel.span("client", "proto.keyneg", "hello");
        let reply = self.raw_call(&tel, &wire, &conn, &mut bufs, hello)?;
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
                // Remember the revocation in the agents so future accesses
                // fail fast, and so it shows as a `:REVOKED:` link.
                for agent in self.revocation_audience(path, user) {
                    agent.lock().submit_revocation(*cert.clone());
                }
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
        let reply = self.raw_call(&tel, &wire, &conn, &mut bufs, CallMsg::ClientKeys(msg3))?;
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
        Ok(self.link(wire, conn, bufs, &keys, suite, server_key, generation))
    }

    /// The agents told of a revocation met while negotiating `path`: the
    /// mounting user's, or — on a reconnect, which runs on behalf of the
    /// mount rather than of whichever user's call happened to trip it —
    /// that of every user who named the mount, in ascending uid order.
    fn revocation_audience(
        &self,
        path: &SelfCertifyingPath,
        user: Option<u32>,
    ) -> Vec<Arc<Mutex<Agent>>> {
        let uids = match user {
            Some(uid) => vec![uid],
            None => {
                let referenced = self.referenced.lock();
                let mut uids: Vec<u32> = referenced
                    .iter()
                    .filter(|(_, names)| names.contains(path))
                    .map(|(&uid, _)| uid)
                    .collect();
                uids.sort_unstable();
                uids
            }
        };
        uids.into_iter().map(|uid| self.agent(uid)).collect()
    }

    /// Exchange buffers for a connection being dialed, from the shelf.
    fn lend_bufs(&self) -> LentBufs {
        LentBufs {
            bufs: self.exchange_bufs.lock().pop().unwrap_or_default(),
            shelf: Arc::clone(&self.exchange_bufs),
        }
    }

    /// A ready link around a dialed connection, the exchange buffers its
    /// handshake used and the session keys just derived for it (by
    /// either handshake): the client end of the secure channel, plus the
    /// connection's buffer freelist adopted as the link's own.
    #[allow(clippy::too_many_arguments)]
    fn link(
        &self,
        wire: Wire,
        conn: ServerConn,
        bufs: LentBufs,
        keys: &SessionKeys,
        suite: SuiteId,
        server_key: Vec<u8>,
        generation: u64,
    ) -> Link {
        let tel = self.tel();
        let mut channel = SecureChannelEnd::client_with_suite(keys, suite);
        channel.set_telemetry(tel.clone());
        let pool = conn.buf_pool().clone();
        pool.set_telemetry(tel);
        Link {
            wire,
            conn,
            channel,
            pool,
            bufs,
            session_id: keys.session_id,
            server_key,
            generation,
        }
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
        let mut bufs = self.lend_bufs();
        let mut client_nonce = [0u8; RESUME_NONCE_LEN];
        self.rng.lock().fill(&mut client_nonce);
        let reply = self.raw_call(
            &tel,
            &wire,
            &conn,
            &mut bufs,
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
        Ok(self.link(wire, conn, bufs, &keys, rs.suite, server_key, generation))
    }

    /// Builds a reconnect link: ticket resumption when enabled and a
    /// ticket is banked for this host, the full handshake otherwise (or
    /// as the fallback when the resume attempt fails).
    fn resume_or_negotiate(
        &self,
        path: &SelfCertifyingPath,
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
        self.negotiate_with_retry(path, None, generation)
    }

    /// Negotiates with backoff-paced retries. Transient failures (lost or
    /// mangled key-negotiation packets, a server that just restarted) are
    /// retried on a fresh connection; definitive answers (revoked,
    /// blocked, no such host) are not.
    fn negotiate_with_retry(
        &self,
        path: &SelfCertifyingPath,
        user: Option<u32>,
        generation: u64,
    ) -> Result<Link, ClientError> {
        let max = self.retry_policy().max_reconnects;
        let mut attempt = 0;
        loop {
            match self.negotiate_once(path, user, generation) {
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
                    self.backoff(&self.tel(), attempt);
                    attempt += 1;
                }
            }
        }
    }

    /// Whether an error means the secure channel (or the server behind
    /// it) is gone and only a reconnect with full key renegotiation can
    /// make progress.
    pub(super) fn session_dead(e: &ClientError) -> bool {
        match e {
            // Local MAC/decrypt failure poisons the channel permanently.
            ClientError::Channel(_) => true,
            // Retransmissions exhausted (e.g. a partition): escalate.
            ClientError::Net(WireError::Timeout) => true,
            // The server lost or refused our session state.
            ClientError::Refused(_) => true,
            // More replies parked than the reorder buffer holds: the
            // cipher streams may have desynchronised.
            ClientError::Protocol(msg) => msg.contains("channel failure"),
            _ => false,
        }
    }

    /// Tears down a mount's link and negotiates a fresh session. Skips
    /// the work if another caller already reconnected past
    /// `observed_generation`. Per-session client state — authentication
    /// numbers and both lease caches — is invalidated: leases were
    /// granted by a server instance that may have restarted, and authnos
    /// only exist inside the old session.
    pub(super) fn reconnect(
        &self,
        mount: &Mount,
        observed_generation: u64,
    ) -> Result<(), ClientError> {
        let tel = self.tel();
        let _span = tel.span("client", "core.client", "reconnect");
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
        let link = self.resume_or_negotiate(&mount.path, &server_key, observed_generation + 1)?;
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

    /// One cleartext wire round trip, through the dialed link's buffers.
    fn raw_call(
        &self,
        tel: &Telemetry,
        wire: &Wire,
        conn: &ServerConn,
        bufs: &mut LentBufs,
        msg: CallMsg,
    ) -> Result<ReplyMsg, ClientError> {
        self.clock.advance_ns(self.rpc_ns(tel));
        let bytes = msg.to_xdr();
        let reply_bytes = wire.call(bytes, &mut bufs.bufs.wire, |b| conn.handle_bytes(&b))?;
        ReplyMsg::from_xdr(&reply_bytes).map_err(|e| ClientError::Protocol(e.to_string()))
    }
}
