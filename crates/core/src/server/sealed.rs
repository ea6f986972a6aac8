//! The sealed stage of a connection (§3.1.2–§3.3): serving frames on an
//! established secure channel.
//!
//! Every sealed frame arrives in the one sequenced envelope and passes
//! [`ServerConn::sequence_frame`], which restores channel-sequence
//! order, answers retransmissions from the reply cache and hands each
//! frame that is next in cipher order to [`ServerConn::serve_frame`]:
//! open in place, dispatch — user authentication, the root handle, or
//! an NFS3 call relayed to the local NFS server under the session's
//! credentials with its file handles translated — seal the reply into
//! the same envelope and cache it. One entry feeds the sequencer:
//! [`Inbound::handle_frames_on`], what every exchange — one frame or a
//! pipelined window — delivers frame by frame, any number of replies
//! each, scheduled across the server's cores when it has a
//! [`ShardEngine`]. Anything that is not a sealed envelope goes on to
//! `conn`'s cleartext entry, [`ServerConn::handle_bytes`].
//!
//! Calls into `mod` (the server's keys, handle cipher, replicator and
//! scheduler) and `sfs_nfs3`; nothing here touches the cleartext state
//! machine beyond [`ServerConn::enter`].

use std::sync::Arc;

use sfs_nfs3::proto::{Nfs3Reply, Nfs3Request, Proc, Status};
use sfs_proto::channel::SeqPush;
use sfs_proto::userauth::{AuthInfo, AuthMsg, AUTHNO_ANONYMOUS};
use sfs_sim::{ServerCost, SimDisk};
use sfs_telemetry::Telemetry;
use sfs_vfs::Credentials;
use sfs_xdr::{Xdr, XdrEncoder};

use super::handles::HandleMap;
use super::{proc_is_mutating, ConnState, Established, ServerConn, REPLY_CACHE_CAPACITY};
use crate::shard::ShardEngine;
use crate::wire::{
    inner_nfs_call, seq_call_envelope, seq_env_begin, seq_env_finish, InnerCall, InnerReply,
    ReplyMsg, SEALED_SEQ_ENV_FRAME_START,
};

/// One exchange's way into a connection: what serving its frames reads
/// of the server's shared state — the telemetry sink, the multi-core
/// scheduler and the disk it tallies — read once when the exchange
/// opens ([`ServerConn::inbound`]) and handed to every frame.
pub struct Inbound<'a> {
    conn: &'a ServerConn,
    tel: Telemetry,
    engine: Option<Arc<ShardEngine>>,
    disk: Option<&'a SimDisk>,
}

/// What serving one arriving frame hands every helper below — the
/// exchange's telemetry sink and scheduler — and the scheduling hint
/// its dispatch leaves behind.
struct Frame<'a> {
    tel: &'a Telemetry,
    /// The scheduler the arrival's cost is placed on, if any.
    engine: Option<&'a ShardEngine>,
    /// The worker shard owning the first file handle a dispatch
    /// translated (the first dispatched frame wins): where the scheduler
    /// routes the arrival's disk work.
    shard: Option<u32>,
}

impl ServerConn {
    /// Opens an exchange on this connection: reads the server's
    /// telemetry sink, scheduler and disk once, for every frame the
    /// exchange delivers.
    pub fn inbound(&self) -> Inbound<'_> {
        Inbound {
            conn: self,
            tel: self.server.tel.lock().clone(),
            engine: self.server.shard_engine(),
            disk: self.server.vfs().disk(),
        }
    }

    /// The preamble every sealed frame passes: [`Self::enter`], then the
    /// session the frame claims to belong to. `serve` runs with that
    /// session; a connection that has none gets the refusal, encoded,
    /// back as the error.
    fn with_session<T>(
        &self,
        f: &mut Frame,
        serve: impl FnOnce(&mut Established, &mut Frame) -> T,
    ) -> Result<T, Vec<u8>> {
        let _span = f.tel.span("server", "core.server", "sealed_seq");
        let mut state = self.enter(f.tel).map_err(|refusal| refusal.to_xdr())?;
        let ConnState::Established(est) = &mut *state else {
            return Err(ReplyMsg::Error("no secure channel".into()).to_xdr());
        };
        Ok(serve(est, f))
    }

    /// The one service sequence for a sealed frame that is next in
    /// cipher order: open it in place in the pooled buffer its envelope
    /// `fbuf` arrived in, dispatch, and build the sealed reply in a
    /// single pooled buffer. A copy of the reply, in the request's
    /// buffer once it is done with, is cached under the request's
    /// channel sequence number for byte-identical retransmission.
    fn serve_frame(
        &self,
        est: &mut Established,
        f: &mut Frame,
        mut fbuf: Vec<u8>,
        xid: u32,
    ) -> Vec<u8> {
        let req_seq = est.channel.messages_received();
        let (_, _, frame) = seq_call_envelope(&fbuf).expect("sequenced before it was served");
        let plaintext = match est.channel.open_in_place(&mut fbuf[frame]) {
            Ok(p) => p,
            Err(e) => {
                self.pool.put(fbuf);
                return ReplyMsg::Error(format!("channel failure: {e}")).to_xdr();
            }
        };
        // The retransmit horizon. The client numbers an exchange's
        // frames from xid 0 and opens every reply of an exchange before
        // sealing the next, so once an exchange's first frame is served
        // no reply below it can be asked for again: retire them. The
        // cache then holds one exchange — one reply for a lone call, a
        // window's worth for a window.
        if xid == 0 {
            let below = est.reply_cache.range(..req_seq).count();
            self.evict_oldest(est, f.tel, below);
        }
        let mut out = self.pool.get();
        seq_env_begin(&mut out, false, est.channel.messages_sent(), xid);
        if let Err(e) = self.service_plaintext_into(est, f, plaintext, &mut out) {
            self.pool.put(fbuf);
            self.pool.put(out);
            return ReplyMsg::Error(e).to_xdr();
        }
        let bytes = match est.channel.seal_into(&mut out, SEALED_SEQ_ENV_FRAME_START) {
            Ok(()) => {
                seq_env_finish(&mut out);
                out
            }
            Err(e) => ReplyMsg::Error(format!("channel failure: {e}")).to_xdr(),
        };
        // The request buffer is done with: its return and the cache
        // copy's draw take the pool's lock once.
        let mut cached = self.pool.recycle(fbuf);
        cached.extend_from_slice(&bytes);
        est.reply_cache.insert(req_seq, cached);
        // The cap, for a peer that never starts a new batch: oldest
        // first, since a retransmission can only ask for a recent
        // sequence number.
        let excess = est.reply_cache.len().saturating_sub(REPLY_CACHE_CAPACITY);
        self.evict_oldest(est, f.tel, excess);
        f.tel
            .gauge_set("server", "replycache.size", est.reply_cache.len() as u64);
        bytes
    }

    /// Drops the `n` oldest cached replies, returning their buffers to
    /// the pool.
    fn evict_oldest(&self, est: &mut Established, tel: &Telemetry, n: usize) {
        if n == 0 {
            return;
        }
        for _ in 0..n {
            if let Some((_, buf)) = est.reply_cache.pop_first() {
                self.pool.put(buf);
            }
        }
        tel.count("server", "replycache.evictions", n as u64);
    }

    /// Dispatches one opened plaintext call, appending the *plaintext*
    /// inner-reply encoding to `out` (which already holds the caller's
    /// envelope prefix; the caller seals afterwards). The hot NFS3 path
    /// encodes its results straight into `out` without copying the
    /// argument bytes; rare inner calls (Auth, Mount) go through the
    /// general decoder. The channel was already advanced by the open, so
    /// nothing here may re-open the frame.
    fn service_plaintext_into(
        &self,
        est: &mut Established,
        f: &mut Frame,
        plaintext: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<(), String> {
        let Some((authno, proc, args)) = inner_nfs_call(plaintext) else {
            let reply =
                match InnerCall::from_xdr(plaintext).map_err(|e| format!("bad inner call: {e}"))? {
                    InnerCall::Auth { seq_no, msg } => self.handle_auth(est, f.tel, seq_no, &msg),
                    InnerCall::Mount => InnerReply::MountReply {
                        root: self.server.root_handle(),
                    },
                    // `inner_nfs_call` accepts every plaintext that decodes
                    // as `Nfs` (wire.rs pins the equivalence), so none gets
                    // here.
                    InnerCall::Nfs { .. } => return Err("bad inner call: nfs".into()),
                };
            out.extend_from_slice(&reply.to_xdr());
            return Ok(());
        };
        // Borrow the session's credentials in place: the dispatch below
        // touches only the session's handle map, and skipping the clone
        // keeps the per-RPC allocation count down (gids is a Vec).
        let anon;
        let creds = if authno == AUTHNO_ANONYMOUS {
            anon = Credentials::anonymous();
            &anon
        } else {
            match est.authnos.get(&authno) {
                Some((_, creds)) => creds,
                None => {
                    anon = Credentials::anonymous();
                    &anon
                }
            }
        };
        // Encode the `InnerReply::Nfs` plaintext directly into the reply
        // envelope: tag, an opaque results field (length word patched
        // after encoding in place), then the piggybacked invalidations.
        out.extend_from_slice(&2u32.to_be_bytes());
        let len_pos = out.len();
        out.extend_from_slice(&[0u8; 4]);
        let results_start = out.len();
        let mut enc = XdrEncoder::from_vec(std::mem::take(out));
        let handles = &mut est.fh_map;
        self.dispatch_nfs_into(f, handles, creds, proc, args, &mut enc);
        *out = enc.into_bytes();
        let results_len = out.len() - results_start;
        out[len_pos..len_pos + 4].copy_from_slice(&(results_len as u32).to_be_bytes());
        out.extend_from_slice(&[0u8; 3][..(4 - results_len % 4) % 4]);
        // The piggybacked invalidations: a count word patched after the
        // handles are encrypted straight into the envelope.
        let count_pos = out.len();
        out.extend_from_slice(&[0u8; 4]);
        let mut enc = XdrEncoder::from_vec(std::mem::take(out));
        let mut count = 0u32;
        for fh in self.pending.lock().drain(..) {
            if let Ok(public) = handles.encrypt(&self.server, fh) {
                public.encode(&mut enc);
                count += 1;
            }
        }
        *out = enc.into_bytes();
        out[count_pos..count_pos + 4].copy_from_slice(&count.to_be_bytes());
        handles.report(f.tel);
        Ok(())
    }

    /// Serves one incoming frame, pushing its replies onto `replies`: a
    /// sealed one may produce none (buffered ahead of a reorder gap),
    /// one, or several (a frame that fills a gap releases every buffered
    /// successor at once); anything else goes to the cleartext decoder
    /// and produces exactly one. The frame's buffer goes back to the
    /// connection's pool once nothing needs it (a refused one is freed).
    fn handle_frames(&self, f: &mut Frame, bytes: Vec<u8>, replies: &mut Vec<Vec<u8>>) {
        let Some((chanseq, xid, _)) = seq_call_envelope(&bytes) else {
            replies.push(self.handle_bytes(&bytes));
            self.pool.put(bytes);
            return;
        };
        let served = self.with_session(f, |est, f| {
            self.sequence_frame(est, f, chanseq, xid, bytes, |r| replies.push(r))
        });
        if let Err(refusal) = served {
            replies.push(refusal);
        }
    }
}

impl Inbound<'_> {
    /// The entry for sealed frames: what [`sfs_sim::Wire::exchange_on`]
    /// calls for every arriving frame, pushing its replies onto
    /// `replies`.
    ///
    /// Without a [`ShardEngine`] installed the frame costs the classic
    /// serial `frame_cost_ns` — byte-for-byte the single-server
    /// discipline. With one, that analytic CPU cost (the seal/open +
    /// dispatch work) is placed on the earliest-free simulated core
    /// starting at `arrival_ns`, and any disk work the dispatch
    /// performed is captured via the disk's tally mode and placed on the
    /// owning handle shard's commit queue (where back-to-back commits
    /// batch). The returned [`ServerCost`] carries the absolute
    /// completion instant.
    ///
    /// Ordering: cipher state still advances strictly in channel-
    /// sequence order — the `FrameSequencer` drain runs before any
    /// scheduling decision, so the engine only chooses *when* the work
    /// completes, never in what order the channel is touched.
    /// Completion instants may therefore be out of order across frames
    /// (different cores), which the client's own reorder buffer absorbs.
    pub fn handle_frames_on(
        &self,
        arrival_ns: u64,
        frame_cost_ns: u64,
        bytes: Vec<u8>,
        replies: &mut Vec<Vec<u8>>,
    ) -> ServerCost {
        let mut f = Frame {
            tel: &self.tel,
            engine: self.engine.as_deref(),
            shard: None,
        };
        let Some(engine) = f.engine else {
            self.conn.handle_frames(&mut f, bytes, replies);
            return ServerCost::Serial(frame_cost_ns);
        };
        if let Some(d) = self.disk {
            d.tally_begin();
        }
        self.conn.handle_frames(&mut f, bytes, replies);
        let tally = self.disk.map(SimDisk::tally_end).unwrap_or_default();
        let done = engine.schedule(
            self.conn.id,
            arrival_ns,
            frame_cost_ns,
            tally,
            f.shard,
            &self.tel,
        );
        ServerCost::Scheduled(done)
    }
}

impl ServerConn {
    /// Services one sealed frame, handing each reply it produces to
    /// `reply`. Frames are decrypted strictly in channel-sequence order
    /// regardless of arrival order: early frames buffer,
    /// retransmissions of already-consumed frames are answered from the
    /// reply cache byte-for-byte (neither cipher advances), and
    /// anything past the reorder window kills the session. `envelope`
    /// is the frame's whole sequenced envelope, in the pooled buffer it
    /// arrived in, where it is opened — at once when it is next in line,
    /// else when the gap before it fills.
    fn sequence_frame(
        &self,
        est: &mut Established,
        f: &mut Frame,
        chanseq: u64,
        xid: u32,
        envelope: Vec<u8>,
        mut reply: impl FnMut(Vec<u8>),
    ) {
        let expected = est.channel.messages_received();
        match est.seq_buf.admit(chanseq, expected) {
            // Double delivery of a still-buffered frame; the copy
            // already queued answers once the gap fills.
            SeqPush::Duplicate if chanseq >= expected => self.pool.put(envelope),
            // A consumed position: answered byte for byte from the reply
            // cache. A replay from below the retransmit horizon is
            // refused exactly as one past the 256-reply cap is — the
            // reply is gone, and so is the session.
            SeqPush::Duplicate => {
                f.tel.count("server", "pipeline.retransmits", 1);
                reply(match est.reply_cache.get(&chanseq) {
                    Some(cached) => {
                        let mut resend = self.pool.recycle(envelope);
                        resend.extend_from_slice(cached);
                        resend
                    }
                    None => {
                        self.pool.put(envelope);
                        ReplyMsg::Error("channel failure: replay beyond cache".into()).to_xdr()
                    }
                });
            }
            SeqPush::Overflow => {
                self.pool.put(envelope);
                reply(ReplyMsg::Error("channel failure: pipeline window overflow".into()).to_xdr())
            }
            SeqPush::Buffered => {
                if chanseq == expected {
                    reply(self.serve_frame(est, f, envelope, xid));
                } else {
                    est.seq_buf.push(chanseq, xid, envelope, expected);
                }
                while let Some((xid, fbuf)) = est.seq_buf.take(est.channel.messages_received()) {
                    reply(self.serve_frame(est, f, fbuf, xid));
                }
                f.tel
                    .gauge_set("server", "pipeline.queue_depth", est.seq_buf.len() as u64);
            }
        }
    }

    /// Figure 4, step 3: one user-authentication attempt on this session.
    fn handle_auth(
        &self,
        est: &mut Established,
        tel: &Telemetry,
        seq_no: u32,
        msg: &AuthMsg,
    ) -> InnerReply {
        // The server recomputes the expected AuthID for *this*
        // session; a request signed for another session cannot
        // match.
        let info = AuthInfo::for_fs(
            &self.server.config.location,
            self.server.path.host_id,
            est.session_id,
        );
        if !est.seqwin.accept(seq_no) {
            // Replay / out-of-window: the gate fires before any
            // signature check (§3.1.3's freshness guarantee).
            tel.count("server", "seqwin.rejected", 1);
            tel.instant("server", "core.server", "seqwin_reject");
            return InnerReply::AuthDenied { seq_no };
        }
        tel.count("server", "seqwin.accepted", 1);
        match self.server.auth.validate(msg, &info.auth_id(), seq_no) {
            Ok((user, creds)) => {
                let authno = est.next_authno;
                est.next_authno += 1;
                est.authnos.insert(authno, (user, creds));
                InnerReply::AuthGranted { seq_no, authno }
            }
            Err(_) => InnerReply::AuthDenied { seq_no },
        }
    }

    /// Decodes, relays and answers one NFS3 call, marshaling the results
    /// into a caller-owned encoder (the sealed path appends them straight
    /// into the reply envelope). Handles are translated through the
    /// session's `handles` map, which falls back on the cipher.
    fn dispatch_nfs_into(
        &self,
        f: &mut Frame,
        handles: &mut HandleMap,
        creds: &Credentials,
        proc: u32,
        args: &[u8],
        enc: &mut XdrEncoder,
    ) {
        let err = |status: Status, enc: &mut XdrEncoder| {
            Nfs3Reply::<&[u8]>::Error {
                status,
                dir_attr: Default::default(),
            }
            .encode_results_into(enc)
        };
        let Some(proc) = Proc::from_u32(proc) else {
            return err(Status::NotSupp, enc);
        };
        let Ok(mut req) = Nfs3Request::decode_args_ref(proc, args) else {
            return err(Status::Inval, enc);
        };
        // Translate public SFS handles to private NFS handles, noting
        // which worker shard owns the request's first handle so the
        // multi-core scheduler can route its disk work.
        let mut first_fh: Option<u32> = None;
        for fh in req.handles_mut() {
            *fh = match handles.decrypt(&self.server, fh) {
                Ok(nfs) => nfs,
                Err(status) => return err(status, enc),
            };
            if first_fh.is_none() {
                if let Some(e) = f.engine {
                    first_fh = Some(e.shard_of(fh.as_bytes()));
                }
            }
        }
        if f.shard.is_none() {
            f.shard = first_fh;
        }
        // The NFS loopback hop: "the server modifies requests slightly
        // and tags them with appropriate credentials. Finally, the server
        // acts as an NFS client, passing the request to an NFS server on
        // the same machine." A READ's data goes from the file straight
        // into the reply envelope.
        self.server.nfs.serve(f.tel, creds, &req, |mut reply| {
            // Acknowledged commit: a successful mutation is shipped to
            // the replica group's quorum *before* the reply is encoded,
            // so the client's ack implies quorum durability. Failed ops
            // and replays answered from the reply cache never reach this
            // point twice.
            if proc_is_mutating(proc) && !matches!(reply, Nfs3Reply::Error { .. }) {
                let repl = self.server.replicator.lock().clone();
                if let Some(repl) = repl {
                    repl.replicate(creds, &req);
                }
            }
            // Translate handles in the reply back to SFS form.
            for fh in reply.handles_mut() {
                *fh = match handles.encrypt(&self.server, *fh) {
                    Ok(public) => public,
                    Err(status) => return err(status, enc),
                };
            }
            reply.encode_results_into(enc)
        })
    }
}
