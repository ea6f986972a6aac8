//! The RPC spine (§3.1.3, §4.2): everything between "an NFS3 request
//! for a uid" and "frames on a wire".
//!
//! Two exchange loops put sealed frames — one sequenced envelope for
//! both — on a link and nothing else: [`SfsClient::sealed_call_once`]
//! (one frame on `Wire::call`, the blocking request/reply protocol) and
//! [`SfsClient::window_exchange_once`] (n frames on
//! `Wire::exchange_on`, the pipelined window). Everything around them
//! exists once and serves both: the CPU cost terms, the reconnect
//! driver ([`SfsClient::with_reconnect`]), the reissue-on-rekey and
//! decode driver ([`SfsClient::issue`]), user authentication
//! ([`SfsClient::ensure_auth`]) and the inner-call marshal
//! ([`encode_inner_nfs`]).
//!
//! Calls down into `session` (reconnect), `cache` (harvesting
//! attributes, applying invalidations, the write-behind barrier) and
//! `recovery` (journaling the seqno high-water mark).

use std::collections::BTreeMap;
use std::sync::atomic::Ordering;

use sfs_nfs3::proto::{Nfs3Reply, Nfs3Request};
use sfs_proto::channel::{FrameSequencer, SeqPush, SuiteId, FRAME_HEADER_LEN};
use sfs_proto::userauth::{AuthInfo, AUTHNO_ANONYMOUS};
use sfs_sim::{SimTime, WireError};
use sfs_xdr::Xdr;

use super::{ClientError, Mount, SfsClient, REORDER_BUF_CAPACITY};
use crate::wire::{
    encode_inner_nfs, seq_env_begin, seq_env_finish, seq_reply_envelope, InnerCall, InnerReply,
    ReplyMsg, SEALED_SEQ_ENV_FRAME_START,
};

impl SfsClient {
    // ----- CPU cost terms ------------------------------------------------
    //
    // Each term counts its telemetry and returns the calibrated cost in
    // ns (0 on a client built without `CpuCosts`). The blocking path
    // advances the shared clock by a term at the point the work
    // happens; the windowed path sums terms onto per-frame timelines so
    // work on different frames overlaps.

    /// One user-level crossing (kernel → `sfscd`, or into `sfssd`).
    fn crossing_ns(&self) -> u64 {
        let Some(cpu) = &self.cpu else { return 0 };
        self.tel.lock().count("client", "cpu.crossings", 1);
        cpu.user_crossing_ns
    }

    /// Generic RPC processing for one message.
    pub(super) fn rpc_ns(&self) -> u64 {
        let Some(cpu) = &self.cpu else { return 0 };
        self.tel.lock().count("client", "cpu.rpc_charges", 1);
        cpu.rpc_processing_ns
    }

    /// The copy of `len` bytes through the client daemon.
    fn user_copy_ns(&self, len: usize) -> u64 {
        let Some(cpu) = &self.cpu else { return 0 };
        self.tel
            .lock()
            .count("client", "cpu.user_copy_bytes", len as u64);
        cpu.user_copy_ns(len)
    }

    /// The server's data path (daemon copy plus the NFS loopback hop)
    /// over `len` bytes.
    fn server_copy_ns(&self, len: usize) -> u64 {
        let Some(cpu) = &self.cpu else { return 0 };
        self.tel
            .lock()
            .count("server", "cpu.server_copy_bytes", len as u64);
        cpu.server_copy_ns(len)
    }

    /// Sealing or opening one `len`-byte message under `suite`.
    fn crypto_ns(&self, suite: SuiteId, len: usize) -> u64 {
        let Some(cpu) = &self.cpu else { return 0 };
        if !self.charge_crypto.load(Ordering::SeqCst) {
            return 0;
        }
        self.tel
            .lock()
            .count("client", "cpu.crypto_bytes", len as u64);
        let (num, den) = suite.cost_ratio();
        cpu.crypto_ns(len, num, den)
    }

    // ----- Drivers shared by both engines --------------------------------

    /// The reconnect driver: runs `once` — one exchange on the mount's
    /// *current* link — and, whenever it reports the session dead (a
    /// desynchronised cipher stream, a poisoned channel, a restarted
    /// server, an exhausted retransmission budget), backs off,
    /// reconnects with key renegotiation and runs it again, so the call
    /// is re-sealed on the fresh channel (the old frames are useless —
    /// their cipher positions belong to the dead session).
    fn with_reconnect<T>(
        &self,
        mount: &Mount,
        mut once: impl FnMut() -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        let max = self.retry_policy().max_reconnects;
        let mut round = 0;
        loop {
            let generation = mount.generation();
            match once() {
                Err(e) if Self::session_dead(&e) && round < max => {
                    self.backoff(round);
                    self.reconnect(mount, generation)?;
                    round += 1;
                }
                done => return done,
            }
        }
    }

    /// The reissue-on-rekey and decode driver behind every NFS call.
    /// Authenticates `uid`, then runs `exchange` — one of the two
    /// engines, sealing `reqs` under the authentication number it is
    /// handed. If the session was renegotiated while the frames were in
    /// flight, that number belonged to the dead session and the server
    /// executed the calls (if at all) with stale credentials:
    /// re-authenticate on the new session and reissue them all. Each
    /// reply is then decoded against its request, fed to the attribute
    /// cache, and handed to `deliver` in request order.
    fn issue<I: IntoIterator<Item = InnerReply>>(
        &self,
        mount: &Mount,
        uid: u32,
        reqs: &[Nfs3Request],
        exchange: impl Fn(u32) -> Result<I, ClientError>,
        mut deliver: impl FnMut(Nfs3Reply),
    ) -> Result<(), ClientError> {
        let reissue_cap = self.retry_policy().max_reconnects;
        let mut rounds = 0;
        loop {
            let authno = self.ensure_auth(mount, uid)?;
            let generation = mount.generation();
            let inners = exchange(authno)?;
            if mount.generation() != generation && rounds < reissue_cap {
                rounds += 1;
                continue;
            }
            for (req, inner) in reqs.iter().zip(inners) {
                let InnerReply::Nfs { results, .. } = inner else {
                    return Err(ClientError::Protocol(format!("bad NFS reply: {inner:?}")));
                };
                let reply = Nfs3Reply::decode_results(req.proc(), &results)
                    .map_err(|e| ClientError::Protocol(e.to_string()))?;
                self.harvest_attrs(mount, req, &reply);
                deliver(reply);
            }
            return Ok(());
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
            let call = InnerCall::Auth { seq_no: seq, msg };
            match self.sealed_call(mount, |buf| call.encode_into(buf))? {
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

    // ----- Entry points --------------------------------------------------

    /// Issues one NFS3 call for `uid` over `mount`. Queued write-behind
    /// data is flushed first: a synchronous RPC is an ordering point, so
    /// nothing may observe the server before writes the caller already
    /// issued reach it.
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
    pub(super) fn refuse_if_revoked(&self, mount: &Mount, uid: u32) -> Result<(), ClientError> {
        if self.agent(uid).lock().refuses(mount.path.host_id) {
            return Err(ClientError::Blocked);
        }
        Ok(())
    }

    /// [`Self::call_nfs`] without the write-behind barrier (the flush
    /// path itself must not recurse into the barrier): one request on
    /// the blocking engine.
    pub(super) fn call_nfs_unqueued(
        &self,
        mount: &Mount,
        uid: u32,
        req: &Nfs3Request,
    ) -> Result<Nfs3Reply, ClientError> {
        let mut reply = None;
        self.issue(
            mount,
            uid,
            std::slice::from_ref(req),
            |authno| {
                self.sealed_call(mount, |buf| encode_inner_nfs(buf, authno, req))
                    .map(Some)
            },
            |r| reply = Some(r),
        )?;
        Ok(reply.expect("one reply per request"))
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

    /// [`Self::call_nfs_window`] without the write-behind barrier. Each
    /// window-sized chunk goes out under a single set of credentials.
    pub(super) fn call_nfs_window_unqueued(
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
            self.issue(
                mount,
                uid,
                chunk,
                |authno| {
                    self.with_reconnect(mount, || self.window_exchange_once(mount, authno, chunk))
                },
                |reply| out.push(reply),
            )?;
        }
        Ok(out)
    }

    // ----- The blocking engine -------------------------------------------

    /// One sealed RPC over a mount's secure channel, surviving faults:
    /// a loss in either direction is retried by resending the identical
    /// sealed frame (backoff-paced) — the server executes it once and
    /// answers a repeat from its reply cache; anything that kills the
    /// session goes through [`Self::with_reconnect`]. `fill` marshals
    /// the inner call once; the plaintext outlives any reconnect (it is
    /// re-sealed on the fresh channel), so it lives in its own pooled
    /// buffer rather than the envelope built per link.
    pub(super) fn sealed_call(
        &self,
        mount: &Mount,
        fill: impl FnOnce(&mut Vec<u8>),
    ) -> Result<InnerReply, ClientError> {
        let pool = mount.link.lock().pool.clone();
        let mut plaintext = pool.get_guard();
        fill(&mut plaintext);
        self.with_reconnect(mount, || self.sealed_call_once(mount, &plaintext))
    }

    /// One sealed round trip on the mount's *current* link. Holds the
    /// link for the whole exchange (the stream ciphers serialize sealed
    /// traffic anyway) and releases it before any reconnect, so the
    /// retry driver can replace the link without deadlocking.
    fn sealed_call_once(&self, mount: &Mount, plaintext: &[u8]) -> Result<InnerReply, ClientError> {
        let tel = self.tel();
        let _span = tel.span("client", "core.client", "sealed_call");
        // Cost model: one user-level crossing into sfscd, a data copy
        // through the daemon, crypto over the outgoing bytes.
        self.clock.advance_ns(self.crossing_ns());
        self.clock.advance_ns(self.rpc_ns());
        self.clock.advance_ns(self.user_copy_ns(plaintext.len()));
        let mut guard = mount.link.lock();
        let link = &mut *guard;
        self.clock
            .advance_ns(self.crypto_ns(link.channel.suite(), plaintext.len()));
        let pool = link.pool.clone();
        // Build the sealed wire envelope in place in one pooled buffer,
        // stamped with the cipher position it is sealed at; the one call
        // in flight is xid 0.
        let mut env = pool.get_guard();
        seq_env_begin(&mut env, true, link.channel.messages_sent(), 0);
        env.extend_from_slice(plaintext);
        link.channel
            .seal_into(&mut env, SEALED_SEQ_ENV_FRAME_START)?;
        seq_env_finish(&mut env);
        // The only reply this call accepts is the one sealed at the
        // position the receive cipher stands at.
        let expected = link.channel.messages_received();
        // Retransmission loop: the frame was sealed once; every resend
        // puts the same bytes on the wire, so a request that was lost
        // in flight still decrypts at the server's cipher position, and
        // one whose reply was lost is recognised by its sequence number
        // and answered from the reply cache without running again.
        // Each attempt copies the envelope into a pooled buffer that the
        // wire consumes and the server-side closure recycles.
        let policy = self.retry_policy();
        let mut attempt = 0;
        let (mut reply_bytes, frame) = loop {
            let mut msg = pool.get();
            msg.extend_from_slice(&env);
            let sent = link.wire.call(msg, |b| {
                // Server side: one crossing into sfssd, the data copy
                // through it, plus the NFS loopback hop.
                self.clock.advance_ns(self.crossing_ns());
                self.clock.advance_ns(self.rpc_ns());
                self.clock.advance_ns(self.server_copy_ns(b.len()));
                let reply = link.conn.handle_bytes(&b);
                pool.put(b);
                reply
            });
            match sent {
                Ok(b) => match seq_reply_envelope(&b) {
                    Some((chanseq, 0, frame)) if chanseq == expected => break (b, frame),
                    // Sealed, but not the answer to this call: a frame
                    // of another position replayed onto the wire.
                    // Feeding it to the stream cipher would burn
                    // keystream and poison the channel, so discard it on
                    // the cleartext header alone and wait out the
                    // timeout the real reply never beats.
                    Some(_) => {
                        tel.count("client", "pipeline.stale_frames", 1);
                        pool.put(b);
                        link.wire.timeout_wait();
                    }
                    // An error reply or corrupted framing. An
                    // unparseable envelope means the reply was mangled
                    // in flight before the MAC could vouch for anything;
                    // classified as a session death so the retry driver
                    // renegotiates.
                    None => {
                        let reply = ReplyMsg::from_xdr(&b).map_err(|e| {
                            ClientError::Protocol(format!("reply framing corrupted: {e}"))
                        })?;
                        return Err(ClientError::Protocol(match reply {
                            ReplyMsg::Error(e) => e,
                            other => format!("unexpected reply: {other:?}"),
                        }));
                    }
                },
                Err(WireError::Timeout) => {}
            }
            if attempt >= policy.max_retransmits {
                return Err(ClientError::Net(WireError::Timeout));
            }
            tel.count("client", "retry.retransmits", 1);
            tel.instant("client", "core.client", "retransmit");
            self.backoff(attempt);
            attempt += 1;
        };
        // The reply opens in place inside the buffer it arrived in,
        // which then goes back to the pool.
        self.clock.advance_ns(self.user_copy_ns(frame.len()));
        self.clock
            .advance_ns(self.crypto_ns(link.channel.suite(), frame.len()));
        let plain = link.channel.open_in_place(&mut reply_bytes[frame])?;
        let inner =
            InnerReply::from_xdr(plain).map_err(|e| ClientError::Protocol(e.to_string()))?;
        drop(guard);
        pool.put(reply_bytes);
        self.apply_invalidations(mount, &inner);
        Ok(inner)
    }

    // ----- The windowed engine -------------------------------------------

    /// One windowed exchange on the mount's current link: seals every
    /// request as a sequenced frame, puts them all in flight, and
    /// matches replies back by xid. Lost frames are retransmitted
    /// byte-for-byte (the server replays already-serviced ones from its
    /// reply cache), so both cipher streams stay aligned no matter how
    /// the network reorders, duplicates, or drops frames.
    ///
    /// No cost is charged to the shared clock per frame on the reply
    /// side: the server's work rides each frame's service time on the
    /// wire's timeline, and opening replies runs on a client CPU
    /// timeline seeded by each reply's arrival — so sealing later frames
    /// overlaps the server working earlier ones, and decrypting one
    /// reply overlaps later replies still in transit.
    fn window_exchange_once(
        &self,
        mount: &Mount,
        authno: u32,
        reqs: &[Nfs3Request],
    ) -> Result<Vec<InnerReply>, ClientError> {
        let tel = self.tel();
        let _span = tel
            .span("client", "core.client", "window_exchange")
            .with_attr("frames", reqs.len() as u64);
        // One kernel→daemon crossing hands sfscd the whole queued window
        // (§4.2): the fixed crossing cost is paid once per window, not
        // per request.
        self.clock.advance_ns(self.crossing_ns());
        let mut guard = mount.link.lock();
        let link = &mut *guard;
        let pool = link.pool.clone();
        // Seal every frame up front, tagged with its xid and the channel
        // seqno it was sealed at, stamping each frame's virtual send
        // time as sealing completes. The sealed bytes are kept verbatim
        // for retransmission.
        let mut envs: Vec<Vec<u8>> = Vec::with_capacity(reqs.len());
        let mut sent_at: Vec<SimTime> = Vec::with_capacity(reqs.len());
        for (xid, req) in reqs.iter().enumerate() {
            let chanseq = link.channel.messages_sent();
            let mut env = pool.get();
            seq_env_begin(&mut env, true, chanseq, xid as u32);
            encode_inner_nfs(&mut env, authno, req);
            let plain_len = env.len() - SEALED_SEQ_ENV_FRAME_START - FRAME_HEADER_LEN;
            self.clock.advance_ns(self.rpc_ns());
            self.clock.advance_ns(self.user_copy_ns(plain_len));
            self.clock
                .advance_ns(self.crypto_ns(link.channel.suite(), plain_len));
            link.channel
                .seal_into(&mut env, SEALED_SEQ_ENV_FRAME_START)?;
            seq_env_finish(&mut env);
            envs.push(env);
            sent_at.push(self.clock.now());
        }
        let policy = self.retry_policy();
        let mut results: Vec<Option<InnerReply>> = reqs.iter().map(|_| None).collect();
        // Replies can arrive in any order; the stream cipher only opens
        // them in the order the server sealed them, so out-of-order
        // arrivals park here until the gap fills.
        let mut reorder = FrameSequencer::new(REORDER_BUF_CAPACITY);
        // Arrival time per buffered reply chanseq, feeding the client
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
            // Each frame's server cost — the crossing into sfssd, RPC
            // processing, and the copy through the daemon — is either
            // served in the classic serial discipline or, when the
            // server has a multi-core `ShardEngine` installed, scheduled
            // across its simulated cores and disk shards to an absolute
            // completion instant.
            let replies = link.wire.exchange_on(sends, |arrival_ns, b| {
                let frame_ns = self.crossing_ns() + self.rpc_ns() + self.server_copy_ns(b.len());
                link.conn.handle_frames_on(arrival_ns, frame_ns, b)
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
                    // The copy out of the daemon plus decryption.
                    cpu_free = cpu_free.max(arrival)
                        + self.user_copy_ns(frame.len())
                        + self.crypto_ns(link.channel.suite(), frame.len());
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
}
