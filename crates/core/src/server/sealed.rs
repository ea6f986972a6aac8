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
//! the same envelope and cache it. Two entries feed the sequencer:
//! `conn`'s [`ServerConn::handle_bytes`] (the blocking loop: one frame,
//! exactly one reply) and [`ServerConn::handle_frames_on`] (a pipelined
//! window's frames, any number of replies each, scheduled across the
//! server's cores).
//!
//! Calls into `mod` (the server's keys, handle cipher, replicator and
//! scheduler) and `sfs_nfs3`; nothing here touches the cleartext state
//! machine beyond [`ServerConn::enter`].

use sfs_nfs3::proto::{FileHandle, Nfs3Reply, Nfs3Request, Proc, Status};
use sfs_proto::channel::SeqPush;
use sfs_proto::userauth::{AuthInfo, AuthMsg, AUTHNO_ANONYMOUS};
use sfs_sim::ServerCost;
use sfs_telemetry::Telemetry;
use sfs_vfs::Credentials;
use sfs_xdr::{Xdr, XdrEncoder};

use super::{proc_is_mutating, ConnState, Established, ServerConn, REPLY_CACHE_CAPACITY};
use crate::wire::{
    inner_nfs_call, seq_call_envelope, seq_env_begin, seq_env_finish, InnerCall, InnerReply,
    ReplyMsg, SEALED_SEQ_ENV_FRAME_START,
};

impl ServerConn {
    /// The preamble every sealed frame passes, whichever entry it came
    /// in by: [`Self::enter`], then the session the frame claims to
    /// belong to. `serve` runs with that session; a connection that has
    /// none gets the refusal, encoded, back as the error.
    fn with_session<T>(
        &self,
        span: &'static str,
        serve: impl FnOnce(&mut Established, &Telemetry) -> T,
    ) -> Result<T, Vec<u8>> {
        let tel = self.server.tel.lock().clone();
        let _span = tel.span("server", "core.server", span);
        let mut state = self.enter(&tel).map_err(|refusal| refusal.to_xdr())?;
        let ConnState::Established(est) = &mut *state else {
            return Err(ReplyMsg::Error("no secure channel".into()).to_xdr());
        };
        Ok(serve(est, &tel))
    }

    /// The blocking entry behind [`Self::handle_bytes`]: one sequenced
    /// frame in, exactly one reply out. A blocking client seals a frame
    /// only after the previous one was answered, so a frame the
    /// sequencer parks ahead of a gap (no reply) or one that releases
    /// parked successors (several) is a peer out of step with its own
    /// channel, and is told so.
    pub(super) fn serve_one(&self, chanseq: u64, xid: u32, frame: &[u8]) -> Vec<u8> {
        let (mut reply, mut replies) = (None, 0);
        let served = self.with_session("sealed", |est, tel| {
            self.sequence_frame(est, tel, chanseq, xid, frame, |bytes| {
                replies += 1;
                reply = Some(bytes);
            })
        });
        match (served, reply) {
            (Err(refusal), _) => refusal,
            (Ok(()), Some(bytes)) if replies == 1 => bytes,
            _ => ReplyMsg::Error("channel failure: blocking frame out of sequence".into()).to_xdr(),
        }
    }

    /// The one service sequence for a sealed frame that is next in
    /// cipher order: open it in place in the pooled buffer `fbuf` holds
    /// it in, dispatch, and build the sealed reply in a single pooled
    /// buffer. The reply is cached under the request's channel sequence
    /// number for byte-identical retransmission.
    fn serve_frame(
        &self,
        est: &mut Established,
        tel: &Telemetry,
        mut fbuf: Vec<u8>,
        xid: u32,
    ) -> Vec<u8> {
        let req_seq = est.channel.messages_received();
        let plaintext = match est.channel.open_in_place(&mut fbuf) {
            Ok(p) => p,
            Err(e) => {
                self.pool.put(fbuf);
                return ReplyMsg::Error(format!("channel failure: {e}")).to_xdr();
            }
        };
        let mut out = self.pool.get();
        seq_env_begin(&mut out, false, est.channel.messages_sent(), xid);
        if let Err(e) = self.service_plaintext_into(est, plaintext, &mut out) {
            self.pool.put(fbuf);
            self.pool.put(out);
            return ReplyMsg::Error(e).to_xdr();
        }
        self.pool.put(fbuf);
        let bytes = match est.channel.seal_into(&mut out, SEALED_SEQ_ENV_FRAME_START) {
            Ok(()) => {
                seq_env_finish(&mut out);
                out
            }
            Err(e) => ReplyMsg::Error(format!("channel failure: {e}")).to_xdr(),
        };
        // Oldest-first eviction: a retransmission can only ask for a
        // recent sequence number (the client's window bounds how far
        // back it retries), so dropping the lowest keys preserves
        // exactly-once for every answerable replay.
        est.reply_cache.insert(req_seq, bytes.clone());
        let mut evicted = 0;
        while est.reply_cache.len() > REPLY_CACHE_CAPACITY {
            est.reply_cache.pop_first();
            evicted += 1;
        }
        if evicted > 0 {
            tel.count("server", "replycache.evictions", evicted);
        }
        tel.gauge_set("server", "replycache.size", est.reply_cache.len() as u64);
        bytes
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
        plaintext: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<(), String> {
        let Some((authno, proc, args)) = inner_nfs_call(plaintext) else {
            let reply =
                match InnerCall::from_xdr(plaintext).map_err(|e| format!("bad inner call: {e}"))? {
                    InnerCall::Auth { seq_no, msg } => self.handle_auth(est, seq_no, &msg),
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
        // never touches `est`, and skipping the clone keeps the per-RPC
        // allocation count down (gids is a Vec).
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
        self.dispatch_nfs_into(creds, proc, args, &mut enc);
        *out = enc.into_bytes();
        let results_len = out.len() - results_start;
        out[len_pos..len_pos + 4].copy_from_slice(&(results_len as u32).to_be_bytes());
        out.extend_from_slice(&[0u8; 3][..(4 - results_len % 4) % 4]);
        let pending: Vec<FileHandle> = self
            .pending
            .lock()
            .drain(..)
            .map(|fh| self.server.encrypt_handle(fh))
            .collect();
        out.extend_from_slice(&(pending.len() as u32).to_be_bytes());
        if !pending.is_empty() {
            let mut enc = XdrEncoder::from_vec(std::mem::take(out));
            for fh in &pending {
                fh.encode(&mut enc);
            }
            *out = enc.into_bytes();
        }
        Ok(())
    }

    /// The windowed entry point used by the pipelined wire: one incoming
    /// frame may produce zero replies (buffered ahead of a reorder gap),
    /// one, or several (a frame that fills a gap releases every buffered
    /// successor at once). Anything that is not a sealed envelope goes
    /// to the cleartext decoder and produces exactly one reply.
    fn handle_frames(&self, bytes: &[u8]) -> Vec<Vec<u8>> {
        let Some((chanseq, xid, frame)) = seq_call_envelope(bytes) else {
            return vec![self.handle_bytes(bytes)];
        };
        let mut replies = Vec::new();
        let served = self.with_session("sealed_seq", |est, tel| {
            self.sequence_frame(est, tel, chanseq, xid, &bytes[frame], |r| replies.push(r))
        });
        if let Err(refusal) = served {
            replies.push(refusal);
        }
        replies
    }

    /// The windowed entry point under multi-core dispatch: what
    /// [`sfs_sim::Wire::exchange_on`] calls for every arriving frame.
    ///
    /// Without a [`ShardEngine`](crate::shard::ShardEngine) installed
    /// this is the frame's replies with the classic serial cost —
    /// byte-for-byte the single-server discipline. With one, the
    /// frame's analytic CPU cost (`frame_cost_ns`, the seal/open +
    /// dispatch work) is placed on the earliest-free simulated core
    /// starting at `arrival_ns`, and any
    /// disk work the dispatch performed is captured via the disk's tally
    /// mode and placed on the owning handle shard's commit queue (where
    /// back-to-back commits batch). The returned [`ServerCost`] carries
    /// the absolute completion instant.
    ///
    /// Ordering: cipher state still advances strictly in channel-
    /// sequence order — the `FrameSequencer` drain runs before any
    /// scheduling decision, so the engine only chooses *when* the work
    /// completes, never in what order the channel is touched.
    /// Completion instants may therefore
    /// be out of order across frames (different cores), which the
    /// client's own reorder buffer absorbs.
    pub fn handle_frames_on(
        &self,
        arrival_ns: u64,
        frame_cost_ns: u64,
        bytes: &[u8],
    ) -> (Vec<Vec<u8>>, ServerCost) {
        let Some(engine) = self.server.shard_engine() else {
            return (self.handle_frames(bytes), ServerCost::Serial(frame_cost_ns));
        };
        let disk = self.server.vfs().disk().cloned();
        if let Some(d) = &disk {
            d.tally_begin();
        }
        *self.last_shard.lock() = None;
        let replies = self.handle_frames(bytes);
        let tally = disk.as_ref().map(|d| d.tally_end()).unwrap_or_default();
        let shard = self.last_shard.lock().take();
        let tel = self.server.tel.lock().clone();
        let done = engine.schedule(arrival_ns, frame_cost_ns, tally, shard, &tel);
        (replies, ServerCost::Scheduled(done))
    }

    /// Services one sealed frame, handing each reply it produces to
    /// `reply`. Frames are decrypted strictly in channel-sequence order
    /// regardless of arrival order: early frames buffer,
    /// retransmissions of already-consumed frames are answered from the
    /// reply cache byte-for-byte (neither cipher advances), and
    /// anything past the reorder window kills the session.
    fn sequence_frame(
        &self,
        est: &mut Established,
        tel: &Telemetry,
        chanseq: u64,
        xid: u32,
        frame: &[u8],
        mut reply: impl FnMut(Vec<u8>),
    ) {
        let expected = est.channel.messages_received();
        match est.seq_buf.admit(chanseq, expected) {
            // Double delivery of a still-buffered frame; the copy
            // already queued answers once the gap fills.
            SeqPush::Duplicate if chanseq >= expected => {}
            SeqPush::Duplicate => {
                tel.count("server", "pipeline.retransmits", 1);
                reply(match est.reply_cache.get(&chanseq) {
                    Some(cached) => cached.clone(),
                    None => ReplyMsg::Error("channel failure: replay beyond cache".into()).to_xdr(),
                });
            }
            SeqPush::Overflow => {
                reply(ReplyMsg::Error("channel failure: pipeline window overflow".into()).to_xdr())
            }
            SeqPush::Buffered => {
                // The one copy: out of the caller's wire bytes into the
                // pooled buffer the frame is opened in — at once when it
                // is next in line, else when the gap before it fills.
                let mut fbuf = self.pool.get();
                fbuf.extend_from_slice(frame);
                if chanseq == expected {
                    reply(self.serve_frame(est, tel, fbuf, xid));
                } else {
                    est.seq_buf.push(chanseq, xid, fbuf, expected);
                }
                while let Some((xid, fbuf)) = est.seq_buf.take(est.channel.messages_received()) {
                    reply(self.serve_frame(est, tel, fbuf, xid));
                }
                tel.gauge_set("server", "pipeline.queue_depth", est.seq_buf.len() as u64);
            }
        }
    }

    /// Figure 4, step 3: one user-authentication attempt on this session.
    fn handle_auth(&self, est: &mut Established, seq_no: u32, msg: &AuthMsg) -> InnerReply {
        // The server recomputes the expected AuthID for *this*
        // session; a request signed for another session cannot
        // match.
        let info = AuthInfo::for_fs(
            &self.server.config.location,
            self.server.path.host_id,
            est.session_id,
        );
        let tel = self.server.tel.lock().clone();
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
    /// into the reply envelope).
    fn dispatch_nfs_into(&self, creds: &Credentials, proc: u32, args: &[u8], enc: &mut XdrEncoder) {
        let err = |status: Status, enc: &mut XdrEncoder| {
            Nfs3Reply::Error {
                status,
                dir_attr: Default::default(),
            }
            .encode_results_into(enc)
        };
        let Some(proc) = Proc::from_u32(proc) else {
            return err(Status::NotSupp, enc);
        };
        let Ok(mut req) = Nfs3Request::decode_args(proc, args) else {
            return err(Status::Inval, enc);
        };
        // Translate public SFS handles to private NFS handles, noting
        // which worker shard owns the request's first handle so the
        // multi-core scheduler can route its disk work.
        let mut first_fh: Option<u32> = None;
        let engine = self.server.shard_engine();
        for fh in req.handles_mut() {
            *fh = match self.server.decrypt_handle(fh) {
                Ok(nfs) => nfs,
                Err(status) => return err(status, enc),
            };
            if first_fh.is_none() {
                if let Some(e) = &engine {
                    first_fh = Some(e.shard_of(&fh.0));
                }
            }
        }
        if let Some(shard) = first_fh {
            let mut hint = self.last_shard.lock();
            if hint.is_none() {
                *hint = Some(shard);
            }
        }
        let mut reply = self.nfs_relay(creds, &req);
        // Acknowledged commit: a successful mutation is shipped to the
        // replica group's quorum *before* the reply is encoded, so the
        // client's ack implies quorum durability. Failed ops and replays
        // answered from the reply cache never reach this point twice.
        if proc_is_mutating(req.proc()) && !matches!(reply, Nfs3Reply::Error { .. }) {
            let repl = self.server.replicator.lock().clone();
            if let Some(repl) = repl {
                repl.replicate(creds, &req);
            }
        }
        // Translate handles in the reply back to SFS form.
        for fh in reply.handles_mut() {
            *fh = self
                .server
                .encrypt_handle(std::mem::replace(fh, FileHandle(Vec::new())));
        }
        reply.encode_results_into(enc)
    }

    /// The NFS loopback hop: "the server modifies requests slightly and
    /// tags them with appropriate credentials. Finally, the server acts as
    /// an NFS client, passing the request to an NFS server on the same
    /// machine."
    fn nfs_relay(&self, creds: &Credentials, req: &Nfs3Request) -> Nfs3Reply {
        self.server.nfs.handle(creds, req)
    }
}
