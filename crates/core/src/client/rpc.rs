//! The RPC spine (§3.1.3, §4.2): everything between "an NFS3 request
//! for a uid" and "frames on a wire".
//!
//! One exchange loop puts sealed frames on a link and nothing else:
//! [`SfsClient::window_exchange_once`], n frames in the one sequenced
//! envelope on `Wire::exchange_on`, served by the connection's one
//! sealed entry. A lone NFS3 call is a window of one frame, and so are
//! the Auth and Mount inner calls; a window of one charges the cost
//! terms the blocking request/reply protocol would, at the same
//! virtual instants. Everything around the loop exists once: the CPU
//! cost terms, the reconnect driver ([`SfsClient::with_reconnect`]),
//! the reissue-on-rekey driver ([`SfsClient::issue`]), user
//! authentication ([`SfsClient::ensure_auth`]), the inner-call marshal
//! straight into the envelope ([`encode_inner_nfs`], or `InnerCall`'s
//! encoding for Auth and Mount) and the reply decode the loop runs in
//! the frame a reply was opened in ([`decode_nfs`], [`decode_inner`]).
//!
//! A call reads the client's shared state once: its entry point reads
//! the telemetry handle every helper below counts into, and
//! [`SfsClient::with_reconnect`] locks the link once per attempt and
//! hands it to the loop, which reuses the link's exchange buffers
//! (DESIGN.md §10, "What one RPC locks").
//!
//! Calls down into `session` (reconnect), `cache` (harvesting
//! attributes, applying invalidations, the write-behind barrier) and
//! `recovery` (journaling the seqno high-water mark).

use std::collections::BTreeMap;
use std::sync::atomic::Ordering;

use sfs_bignum::join;
use sfs_nfs3::proto::{Nfs3Reply, Nfs3Request, Nfs3RequestRef, Proc};
use sfs_proto::channel::{FrameSequencer, SeqPush, SuiteId, FRAME_HEADER_LEN};
use sfs_proto::userauth::{AuthInfo, AUTHNO_ANONYMOUS};
use sfs_sim::{ExchangeReply, SimTime, WireError};
use sfs_telemetry::Telemetry;
use sfs_xdr::{Xdr, XdrEncoder};

use super::ahead::{self, Handoff};
use super::{
    ClientError, ExchangeBufs, LentBufs, Link, Mount, SfsClient, DEFAULT_PIPELINE_WINDOW,
    REORDER_BUF_CAPACITY,
};
use crate::bufpool::BufPool;
use crate::wire::{
    encode_inner_nfs, inner_nfs_reply, seq_env_begin, seq_env_finish, seq_reply_envelope,
    InnerCall, InnerReply, Invalidations, ReplyMsg, SEALED_SEQ_ENV_FRAME_START,
};

/// A reply as decoded out of the frame it was opened in, with the lease
/// invalidations the server piggybacked on it, still in that frame.
type Decoded<'p, T> = (T, Invalidations<'p>);

/// The general decode, for the rare inner replies (Auth, Mount), which
/// carry no invalidations.
fn decode_inner(plaintext: &[u8]) -> Result<Decoded<'_, InnerReply>, ClientError> {
    let inner =
        InnerReply::from_xdr(plaintext).map_err(|e| ClientError::Protocol(e.to_string()))?;
    Ok((inner, Invalidations::default()))
}

/// The steady-state decode: the NFS3 results of the reply to a `proc`
/// call, parsed in place by [`inner_nfs_reply`], so READ data is copied
/// once — into the `Vec` the caller receives.
fn decode_nfs(proc: Proc, plaintext: &[u8]) -> Result<Decoded<'_, Nfs3Reply>, ClientError> {
    let Some((results, invalidations)) = inner_nfs_reply(plaintext) else {
        let (inner, _) = decode_inner(plaintext)?;
        return Err(ClientError::Protocol(format!("bad NFS reply: {inner:?}")));
    };
    let reply = Nfs3Reply::decode_results(proc, results)
        .map_err(|e| ClientError::Protocol(e.to_string()))?;
    Ok((reply, invalidations))
}

/// Every unanswered frame of `sealed` as a pooled copy to go (back) on
/// the wire, which the server side returns to the pool.
fn unanswered<'a, T>(
    sealed: &'a [(SimTime, Vec<u8>)],
    replies: &'a [Option<T>],
    pool: &'a BufPool,
) -> impl Iterator<Item = (SimTime, Vec<u8>)> + 'a {
    sealed
        .iter()
        .zip(replies)
        .filter(|(_, reply)| reply.is_none())
        .map(|((sent, env), _)| {
            let mut msg = pool.get();
            msg.extend_from_slice(env);
            (*sent, msg)
        })
}

/// Runs `f` on `n` empty reply slots, held on the stack for a window up
/// to the default, so a steady exchange of one leaves the allocator be.
fn with_slots<R>(n: usize, f: impl FnOnce(&mut [Option<Nfs3Reply>]) -> R) -> R {
    if n <= DEFAULT_PIPELINE_WINDOW {
        let mut slots: [Option<Nfs3Reply>; DEFAULT_PIPELINE_WINDOW] = Default::default();
        f(&mut slots[..n])
    } else {
        f(&mut (0..n).map(|_| None).collect::<Vec<_>>())
    }
}

impl SfsClient {
    // ----- CPU cost terms ------------------------------------------------
    //
    // Each term counts into `tel` — the handle its exchange read once
    // where it entered, so a term takes no lock of its own — and returns
    // the calibrated cost in ns (0 on a client built without
    // `CpuCosts`). The exchange loop advances the shared clock by the
    // terms of sealing, where that work happens, and sums the server's
    // and the reply side's onto per-frame timelines, so work on
    // different frames overlaps.

    /// One user-level crossing (kernel → `sfscd`, or into `sfssd`).
    fn crossing_ns(&self, tel: &Telemetry) -> u64 {
        let Some(cpu) = &self.cpu else { return 0 };
        tel.count("client", "cpu.crossings", 1);
        cpu.user_crossing_ns
    }

    /// Generic RPC processing for one message.
    pub(super) fn rpc_ns(&self, tel: &Telemetry) -> u64 {
        let Some(cpu) = &self.cpu else { return 0 };
        tel.count("client", "cpu.rpc_charges", 1);
        cpu.rpc_processing_ns
    }

    /// The copy of `len` bytes through the client daemon.
    fn user_copy_ns(&self, tel: &Telemetry, len: usize) -> u64 {
        let Some(cpu) = &self.cpu else { return 0 };
        tel.count("client", "cpu.user_copy_bytes", len as u64);
        cpu.user_copy_ns(len)
    }

    /// The server's data path (daemon copy plus the NFS loopback hop)
    /// over `len` bytes.
    fn server_copy_ns(&self, tel: &Telemetry, len: usize) -> u64 {
        let Some(cpu) = &self.cpu else { return 0 };
        tel.count("server", "cpu.server_copy_bytes", len as u64);
        cpu.server_copy_ns(len)
    }

    /// Sealing or opening one `len`-byte message under `suite`.
    fn crypto_ns(&self, tel: &Telemetry, suite: SuiteId, len: usize) -> u64 {
        let Some(cpu) = &self.cpu else { return 0 };
        if !self.charge_crypto.load(Ordering::SeqCst) {
            return 0;
        }
        tel.count("client", "cpu.crypto_bytes", len as u64);
        let (num, den) = suite.cost_ratio();
        cpu.crypto_ns(len, num, den)
    }

    // ----- Drivers ------------------------------------------------------

    /// The reconnect driver: runs `once` — one exchange on the mount's
    /// *current* link, held for the whole exchange (the stream ciphers
    /// serialize sealed traffic anyway) — and, whenever it reports the
    /// session dead (a desynchronised cipher stream, a poisoned channel,
    /// a restarted server, an exhausted retransmission budget), releases
    /// the link, backs off, reconnects with key renegotiation and runs it
    /// again, so the call is re-sealed on the fresh channel (the old
    /// frames are useless — their cipher positions belong to the dead
    /// session). Returns `once`'s result and whether it came from a
    /// different session than the first attempt ran on: a call that
    /// named credentials by authentication number then named them in a
    /// session that no longer exists.
    fn with_reconnect<T>(
        &self,
        tel: &Telemetry,
        mount: &Mount,
        mut once: impl FnMut(&mut Link) -> Result<T, ClientError>,
    ) -> Result<(T, bool), ClientError> {
        let mut first = None;
        let mut round = 0;
        loop {
            let mut link = mount.link.lock();
            let generation = link.generation;
            let first = *first.get_or_insert(generation);
            let result = once(&mut link);
            drop(link);
            match result {
                Err(e) if Self::session_dead(&e) && round < self.retry_policy().max_reconnects => {
                    self.backoff(tel, round);
                    self.reconnect(mount, generation)?;
                    round += 1;
                }
                done => return done.map(|value| (value, generation != first)),
            }
        }
    }

    /// The reissue-on-rekey driver behind every NFS call. Authenticates
    /// `uid`, then runs one exchange of one frame per slot of `replies`
    /// under [`Self::with_reconnect`], sealing request `req(xid)` under
    /// the authentication number and decoding each reply against it into
    /// its slot. If the session was renegotiated while the frames were
    /// in flight, that number belonged to the dead session and the
    /// server executed the calls (if at all) with stale credentials:
    /// re-authenticate on the new session and reissue them all. Each
    /// reply is then fed to the attribute cache.
    fn issue<'a>(
        &self,
        tel: &Telemetry,
        mount: &Mount,
        uid: u32,
        req: impl Fn(usize) -> Nfs3RequestRef<'a>,
        replies: &mut [Option<Nfs3Reply>],
    ) -> Result<(), ClientError> {
        let mut rounds = 0;
        loop {
            let authno = self.ensure_auth(mount, uid)?;
            // Read-ahead, a property of the request, is what qualifies a
            // window for opening its replies on the helper thread.
            let open_ahead = ahead::wanted(replies.len(), || {
                (0..replies.len()).any(|i| req(i).proc() == Proc::Read)
            });
            let ((), renegotiated) = self.with_reconnect(tel, mount, |link| {
                self.window_exchange_once(
                    tel,
                    mount,
                    link,
                    |xid, buf| encode_inner_nfs(buf, authno, &req(xid)),
                    |xid, plaintext| decode_nfs(req(xid).proc(), plaintext),
                    replies,
                    open_ahead,
                )
            })?;
            if renegotiated && rounds < self.retry_policy().max_reconnects {
                rounds += 1;
                continue;
            }
            for (xid, reply) in replies.iter().enumerate() {
                let reply = reply.as_ref().expect("every slot is filled");
                self.harvest_attrs(mount, &req(xid), reply);
            }
            return Ok(());
        }
    }

    /// One inner call (user authentication, the root handle) — a window
    /// of one frame, its reply read by the general decoder.
    pub(super) fn inner_call(
        &self,
        tel: &Telemetry,
        mount: &Mount,
        call: &InnerCall,
    ) -> Result<InnerReply, ClientError> {
        let mut reply = [None];
        // Appended after the envelope header the loop has begun.
        let fill = |_, buf: &mut Vec<u8>| {
            let mut enc = XdrEncoder::from_vec(std::mem::take(buf));
            call.encode(&mut enc);
            *buf = enc.into_bytes();
        };
        let open_ahead = ahead::wanted(1, || false);
        self.with_reconnect(tel, mount, |link| {
            self.window_exchange_once(
                tel,
                mount,
                link,
                fill,
                |_, plaintext| decode_inner(plaintext),
                &mut reply,
                open_ahead,
            )
        })?;
        Ok(reply[0].take().expect("one reply per call"))
    }

    /// Ensures `uid` is authenticated on `mount`; returns the
    /// authentication number (0 = anonymous).
    pub(crate) fn ensure_auth(&self, mount: &Mount, uid: u32) -> Result<u32, ClientError> {
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
            match self.inner_call(&tel, mount, &call)? {
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
        self.call_ref(mount, uid, req.borrowed())
    }

    /// [`Self::call_nfs`] for a request whose names and data the caller
    /// lends: what the client's own path walks and file operations send.
    pub(super) fn call_ref(
        &self,
        mount: &Mount,
        uid: u32,
        req: Nfs3RequestRef<'_>,
    ) -> Result<Nfs3Reply, ClientError> {
        self.refuse_if_revoked(mount, uid)?;
        self.barrier(mount)?;
        self.call_nfs_unqueued(&self.tel(), mount, uid, req)
    }

    /// Re-checks agent revocation/blocking policy on an already-mounted
    /// server. `mount()` refuses revoked HostIDs at mount time, but a
    /// §2.5 revocation broadcast must also cut off clients holding live
    /// mounts — a cached [`Mount`] is exactly the capability a
    /// revocation exists to invalidate, so every NFS call re-consults
    /// the agent before touching the wire. A uid with no agent yet has
    /// nothing to refuse, so the agent is looked up in place rather than
    /// created.
    pub(super) fn refuse_if_revoked(&self, mount: &Mount, uid: u32) -> Result<(), ClientError> {
        let agents = self.agents.lock();
        if let Some(agent) = agents.get(&uid) {
            if agent.lock().refuses(mount.path.host_id) {
                return Err(ClientError::Blocked);
            }
        }
        Ok(())
    }

    /// [`Self::call_nfs`] without the revocation check and the
    /// write-behind barrier (the flush path itself must not recurse into
    /// the barrier): a window of one frame, reporting into `tel`.
    pub(super) fn call_nfs_unqueued(
        &self,
        tel: &Telemetry,
        mount: &Mount,
        uid: u32,
        req: Nfs3RequestRef<'_>,
    ) -> Result<Nfs3Reply, ClientError> {
        let mut reply = [None];
        self.issue(tel, mount, uid, |_| req, &mut reply)?;
        Ok(reply[0].take().expect("one reply per request"))
    }

    /// Issues a batch of NFS3 calls for `uid` with up to
    /// `Self::pipeline_window` sealed frames in flight at once,
    /// returning the replies in request order. Queued write-behind data
    /// is flushed first. With window 1 this is the blocking
    /// request/reply protocol, call for call.
    pub fn call_nfs_window(
        &self,
        mount: &Mount,
        uid: u32,
        reqs: &[Nfs3Request],
    ) -> Result<Vec<Nfs3Reply>, ClientError> {
        self.refuse_if_revoked(mount, uid)?;
        self.barrier(mount)?;
        let mut replies = Vec::with_capacity(reqs.len());
        self.call_window(
            &self.tel(),
            mount,
            uid,
            reqs.len(),
            |i| reqs[i].borrowed(),
            |_, window| {
                replies.extend(
                    window
                        .iter_mut()
                        .map(|r| r.take().expect("every slot is filled")),
                );
                Ok(())
            },
        )?;
        Ok(replies)
    }

    /// [`Self::call_nfs_window`] without the revocation check and the
    /// write-behind barrier, over `n` requests `req(0..n)` that may
    /// borrow what they send. Each window-sized run — a trailing run of
    /// one included — is one exchange under a single set of credentials,
    /// whose filled reply slots go to `take` with the index of the run's
    /// first request before the next run is sent; an error from `take`
    /// stops there.
    pub(super) fn call_window<'a>(
        &self,
        tel: &Telemetry,
        mount: &Mount,
        uid: u32,
        n: usize,
        req: impl Fn(usize) -> Nfs3RequestRef<'a>,
        mut take: impl FnMut(usize, &mut [Option<Nfs3Reply>]) -> Result<(), ClientError>,
    ) -> Result<(), ClientError> {
        let window = self.pipeline_window();
        with_slots(n.min(window), |slots| {
            for start in (0..n).step_by(window) {
                let run = &mut slots[..window.min(n - start)];
                self.issue(tel, mount, uid, |xid| req(start + xid), run)?;
                take(start, run)?;
            }
            Ok(())
        })
    }

    // ----- The exchange loop ---------------------------------------------

    /// One exchange on the mount's current link: seals one frame per
    /// slot of `replies` — `fill` marshals frame `xid`'s inner call
    /// straight into its envelope — puts them all in flight, and matches
    /// replies back by xid, decoding each with `decode` in the buffer it
    /// was opened in. Lost frames are retransmitted byte-for-byte (the
    /// server replays already-serviced ones from its reply cache), so
    /// both cipher streams stay aligned no matter how the network
    /// reorders, duplicates, or drops frames. The frames live in the
    /// link's exchange buffers, so a steady exchange allocates nothing.
    ///
    /// Sealing charges the shared clock where it happens: one
    /// kernel→daemon crossing for the whole window, then per frame the
    /// RPC processing, the copy and the crypto. No cost is charged to
    /// the shared clock per frame on the reply side: the server's work
    /// rides each frame's service time on the wire's timeline, and
    /// opening replies runs on a client CPU timeline seeded by each
    /// reply's arrival — so sealing later frames overlaps the server
    /// working earlier ones, and decrypting one reply overlaps later
    /// replies still in transit. With one frame that is the blocking
    /// protocol's charge, term for term.
    ///
    /// With `open_ahead`, on a channel that allows it, a round whose
    /// reorder buffer is empty hands its replies as they are served to
    /// the helper thread, which opens what it can ahead of the loop
    /// (`ahead`); the loop takes those in without opening them. Nothing
    /// else changes.
    #[allow(clippy::too_many_arguments)]
    fn window_exchange_once<T>(
        &self,
        tel: &Telemetry,
        mount: &Mount,
        link: &mut Link,
        fill: impl Fn(usize, &mut Vec<u8>),
        decode: impl Fn(usize, &[u8]) -> Result<Decoded<'_, T>, ClientError>,
        replies: &mut [Option<T>],
        open_ahead: bool,
    ) -> Result<(), ClientError> {
        let frames = replies.len();
        let _span = tel
            .span("client", "core.client", "window_exchange")
            .with_attr("frames", frames as u64);
        replies.fill_with(|| None);
        let Link {
            wire,
            conn,
            channel,
            pool,
            bufs:
                LentBufs {
                    bufs:
                        ExchangeBufs {
                            sealed,
                            wire: exchange,
                        },
                    ..
                },
            ..
        } = link;
        let pool = &**pool;
        // Frames an earlier exchange failed in the middle of.
        sealed.clear();
        // One kernel→daemon crossing hands sfscd the whole queued window
        // (§4.2): the fixed crossing cost is paid once per window, not
        // per request.
        self.clock.advance_ns(self.crossing_ns(tel));
        // Seal every frame up front, tagged with its xid and the channel
        // seqno it was sealed at, stamping each frame's virtual send
        // time as sealing completes. The sealed bytes are kept verbatim
        // for retransmission.
        for xid in 0..frames {
            let mut env = pool.get();
            seq_env_begin(&mut env, true, channel.messages_sent(), xid as u32);
            fill(xid, &mut env);
            let plain_len = env.len() - SEALED_SEQ_ENV_FRAME_START - FRAME_HEADER_LEN;
            self.clock.advance_ns(self.rpc_ns(tel));
            self.clock.advance_ns(self.user_copy_ns(tel, plain_len));
            self.clock
                .advance_ns(self.crypto_ns(tel, channel.suite(), plain_len));
            channel.seal_into(&mut env, SEALED_SEQ_ENV_FRAME_START)?;
            seq_env_finish(&mut env);
            sealed.push((self.clock.now(), env));
        }
        // The only replies this exchange accepts: one per frame, sealed
        // at the positions the receive cipher stands at next.
        let first = channel.messages_received();
        let ours = first..first + frames as u64;
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
        // The server's shared state, read once for every frame of every
        // round.
        let inbound = conn.inbound();
        loop {
            let outstanding = replies.iter().filter(|r| r.is_none()).count();
            if outstanding == 0 {
                break;
            }
            tel.gauge_set("client", "pipeline.inflight_hwm", outstanding as u64);
            // Each frame's server cost — the crossing into sfssd, RPC
            // processing, and the copy through the daemon — is either
            // served in the classic serial discipline or, when the
            // server has a multi-core `ShardEngine` installed, scheduled
            // across its simulated cores and disk shards to an absolute
            // completion instant.
            let serve = |arrival_ns, b: Vec<u8>, served: &mut Vec<Vec<u8>>| {
                let frame_ns =
                    self.crossing_ns(tel) + self.rpc_ns(tel) + self.server_copy_ns(tel, b.len());
                inbound.handle_frames_on(arrival_ns, frame_ns, b, served)
            };
            // The helper opens the round's replies as they are served
            // when the window qualifies and nothing is parked from an
            // earlier round (`ahead`).
            let helper = channel
                .opener()
                .filter(|_| open_ahead && reorder.is_empty())
                .map(|opener| {
                    let next = channel.messages_received();
                    let storage = std::mem::take(&mut exchange.replies);
                    Handoff::new(storage, opener, next, ours.end, frames)
                });
            // Takes in one reply, in arrival order; `ahead` when the
            // helper opened it.
            let mut take_in = |replies: &mut [Option<T>],
                               reply: ExchangeReply,
                               ahead: bool|
             -> Result<(), ClientError> {
                let bytes = reply.bytes;
                let Some((chanseq, xid, frame)) = seq_reply_envelope(&bytes) else {
                    // An unsequenced reply: a server Error is the session
                    // refusing our state — honour it and let the caller
                    // reconnect, whatever its unauthenticated words say
                    // (the wire may have mangled them). Anything else is
                    // a stray the wire held over from an earlier phase
                    // (or mangled noise); it never touches the cipher, so
                    // drop it and let retransmission cover any real loss.
                    if let Ok(ReplyMsg::Error(e)) = ReplyMsg::from_xdr(&bytes) {
                        return Err(ClientError::Refused(e));
                    }
                    tel.count("client", "pipeline.stale_frames", 1);
                    pool.put(bytes);
                    return Ok(());
                };
                if !ours.contains(&chanseq) || xid as usize >= frames {
                    // Sealed, but not one of ours: a frame of an earlier
                    // exchange or a dead session replayed by the wire.
                    // Feeding it to the stream cipher would burn
                    // keystream and poison the channel, so discard it
                    // here on the cleartext header alone and wait out
                    // the timeout the real reply never beats.
                    tel.count("client", "pipeline.stale_frames", 1);
                    pool.put(bytes);
                    return Ok(());
                }
                let expected = channel.messages_received();
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
                        next = Some((xid, bytes, frame, reply.arrival.as_nanos(), ahead));
                    }
                    SeqPush::Buffered => {
                        debug_assert!(!ahead, "a reply opened ahead was next in order");
                        arrivals.insert(chanseq, reply.arrival.as_nanos());
                        reorder.push(chanseq, xid, bytes, expected);
                    }
                }
                // Open every frame that is now in cipher order.
                loop {
                    let (xid, mut env, frame, arrival, ahead) = match next.take() {
                        Some(ready) => ready,
                        None => {
                            let pos = channel.messages_received();
                            let Some((xid, env)) = reorder.take(pos) else {
                                break;
                            };
                            let (_, _, frame) =
                                seq_reply_envelope(&env).expect("parsed before it was parked");
                            (xid, env, frame, arrivals.remove(&pos).unwrap_or(0), false)
                        }
                    };
                    // The copy out of the daemon plus decryption.
                    cpu_free = cpu_free.max(arrival)
                        + self.user_copy_ns(tel, frame.len())
                        + self.crypto_ns(tel, channel.suite(), frame.len());
                    let plain = if ahead {
                        channel.accept_opened(&env[frame])?
                    } else {
                        channel.open_in_place(&mut env[frame])?
                    };
                    let (reply, invalidations) = decode(xid as usize, plain)?;
                    self.apply_invalidations(tel, mount, invalidations);
                    pool.put(env);
                    replies[xid as usize] = Some(reply);
                }
                Ok(())
            };
            match helper {
                None => {
                    wire.exchange_on(unanswered(sealed, replies, pool), exchange, serve);
                    for reply in exchange.replies.drain(..) {
                        take_in(replies, reply, false)?;
                    }
                }
                Some(handoff) => {
                    let (taken, ()) = join(
                        || {
                            let stop = handoff.stop_on_drop();
                            let resend = unanswered(sealed, replies, pool);
                            wire.exchange_streamed(resend, exchange, serve, |r| handoff.push(r));
                            drop(stop);
                            // While the helper finishes the reply it is
                            // on, take in the ones it has opened.
                            let mut taken = 0;
                            while let Some(reply) = handoff.take_opened(taken) {
                                take_in(replies, reply, true)?;
                                taken += 1;
                            }
                            Ok::<_, ClientError>(taken)
                        },
                        || handoff.open_ahead(),
                    );
                    let taken = taken?;
                    // The rest of the streamed replies, then any the wire
                    // kept back (a delayed or duplicated one and those
                    // after it) in arrival order.
                    let (mut streamed, opened) = handoff.into_parts();
                    for (i, reply) in streamed.drain(..).enumerate().skip(taken) {
                        take_in(replies, reply, i < opened)?;
                    }
                    for reply in exchange.replies.drain(..) {
                        take_in(replies, reply, false)?;
                    }
                    exchange.replies = streamed;
                }
            }
            if replies.iter().any(Option::is_none) {
                if attempt >= self.retry_policy().max_retransmits {
                    return Err(ClientError::Net(WireError::Timeout));
                }
                // Wait out the timeout, then back off before the
                // identical frames go back on the wire. Retransmission
                // charges no CPU — the frames were already built and
                // sealed.
                wire.timeout_wait();
                tel.count("client", "retry.retransmits", 1);
                tel.instant("client", "core.client", "retransmit");
                self.backoff(tel, attempt);
                attempt += 1;
                let now = self.clock.now();
                for (sent, _) in sealed.iter_mut() {
                    *sent = now;
                }
            }
        }
        // Land the clock on the moment the client CPU finished opening
        // the final reply (a no-op if the timeline already passed it).
        self.clock.advance_to(SimTime(cpu_free));
        for (_, env) in sealed.drain(..) {
            pool.put(env);
        }
        Ok(())
    }
}
