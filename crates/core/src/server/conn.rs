//! The cleartext stage of a connection (§3.2): `sfssd` inspects the
//! first message and routes the connection — key negotiation or ticket
//! resumption for the read-write protocol, the read-only dialect, or
//! the authserver's SRP service — and the state machine that carries
//! each of those to completion.
//!
//! Owns [`ServerConn`]'s `state` transitions and the preamble every
//! message passes ([`ServerConn::enter`]). Sealed frames are recognised
//! by their envelope in [`ServerConn::handle_bytes`] and handed to
//! `sealed`'s sequencer; nothing here opens one.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use sfs_bignum::{Nat, RandomSource};
use sfs_crypto::sha1::DIGEST_LEN;
use sfs_proto::channel::{FrameSequencer, SecureChannelEnd};
use sfs_proto::keyneg::{
    resume_confirm, resume_secret, resume_session, server_process_client_keys, strip_suites_ext,
    KeyNegServerReply, RESUME_NONCE_LEN,
};
use sfs_proto::userauth::SeqWindow;
use sfs_telemetry::sync::MutexGuard;
use sfs_telemetry::Telemetry;
use sfs_xdr::{Xdr, XdrEncoder};

use super::{ConnState, Established, ServerConn, SfsServer, SEQ_BUF_CAPACITY, TICKET_LIFETIME_NS};
use crate::bufpool::BufPool;
use crate::sealbox;
use crate::wire::{seq_call_envelope, CallMsg, Dialect, ReplyMsg, Service};

impl ServerConn {
    /// The server behind this connection.
    pub fn server(&self) -> &Arc<SfsServer> {
        &self.server
    }

    /// Fresh per-session state around a newly keyed channel — shared by
    /// full key negotiation and ticket resumption (a resumed session is
    /// a *new* session: empty authnos, fresh seqno window, empty caches).
    fn establish(
        &self,
        channel: SecureChannelEnd,
        session_id: [u8; DIGEST_LEN],
    ) -> Box<Established> {
        Box::new(Established {
            channel,
            session_id,
            authnos: HashMap::new(),
            next_authno: 1,
            seqwin: SeqWindow::new(32),
            seq_buf: FrameSequencer::new(SEQ_BUF_CAPACITY),
            reply_cache: BTreeMap::new(),
        })
    }

    /// This connection's buffer freelist. The client side of the
    /// simulated loopback adopts it so request and reply buffers
    /// circulate instead of being reallocated per RPC.
    pub fn buf_pool(&self) -> &Arc<BufPool> {
        &self.pool
    }

    /// Processes one wire message (the raw-bytes entry point used by the
    /// simulated network).
    pub fn handle_bytes(&self, bytes: &[u8]) -> Vec<u8> {
        // Sealed frames — every steady-state NFS3 RPC — take the pooled,
        // in-place path. Anything else (key negotiation, SRP, read-only,
        // malformed input) is rare and goes through the general decoder.
        if let Some((chanseq, xid, frame)) = seq_call_envelope(bytes) {
            return self.serve_one(chanseq, xid, &bytes[frame]);
        }
        let reply = match CallMsg::from_xdr(bytes) {
            Ok(msg) => self.handle(msg),
            Err(e) => ReplyMsg::Error(format!("unparseable message: {e}")),
        };
        reply.to_xdr()
    }

    /// The preamble every message passes before it touches connection
    /// state, cleartext or sealed: count the call, refuse a connection
    /// from before a crash-restart, lock the state. Such a connection is
    /// dead — the instance holding its channel keys and seqno window no
    /// longer exists — so the client must redial and force a full
    /// rekey. Stale *sessions* can never be resumed: that is the
    /// recovery invariant.
    pub(super) fn enter(&self, tel: &Telemetry) -> Result<MutexGuard<'_, ConnState>, ReplyMsg> {
        tel.count("server", "dispatch.calls", 1);
        if self.server.current_epoch() != self.epoch {
            tel.count("server", "stale_conns.rejected", 1);
            return Err(ReplyMsg::Error("connection reset: server restarted".into()));
        }
        Ok(self.state.lock())
    }

    /// Processes one decoded cleartext message.
    pub(crate) fn handle(&self, msg: CallMsg) -> ReplyMsg {
        let tel = self.server.tel.lock().clone();
        let name = match &msg {
            CallMsg::Hello { .. } => "hello",
            CallMsg::ClientKeys(_) => "client_keys",
            CallMsg::RoGetRoot => "ro_get_root",
            CallMsg::RoGetBlock(_) => "ro_get_block",
            CallMsg::SrpStart { .. } => "srp_start",
            CallMsg::SrpFinish { .. } => "srp_finish",
            CallMsg::SealedSeq { .. } => "sealed_seq",
            CallMsg::Resume { .. } => "resume",
        };
        let _span = tel.span("server", "core.server", name);
        let mut state = match self.enter(&tel) {
            Ok(state) => state,
            Err(refusal) => return refusal,
        };
        match msg {
            CallMsg::Hello {
                req,
                service,
                dialect,
                version,
                extensions,
            } => {
                // `sfssd` hands the connection to a subsidiary daemon per
                // the configured dispatch table (§3.2). The cipher-suite
                // offer rides the extensions string but is negotiation
                // input, not a dispatch key — strip it before matching.
                let dispatch_ext = strip_suites_ext(&extensions);
                let Some(_daemon) =
                    self.server
                        .config
                        .dispatch
                        .dispatch(service, dialect, version, &dispatch_ext)
                else {
                    return ReplyMsg::Error(format!(
                        "no daemon configured for service {service:?} dialect {dialect:?} \
                         version {version} extensions {extensions:?}"
                    ));
                };
                if service != Service::File {
                    return ReplyMsg::Error("authserver is reached via SRP messages".into());
                }
                // Serve a revocation certificate when one matches the
                // requested HostID (§2.6: "not a reliable means of
                // distributing revocation certificates, but it may help
                // get the word out fast").
                if let Some(cert) = &*self.server.revocation.lock() {
                    if cert.host_id().map(|h| h == req.host_id).unwrap_or(false) {
                        return ReplyMsg::ServerReply(KeyNegServerReply::Revoked(cert.clone()));
                    }
                }
                match dialect {
                    Dialect::ReadWrite => {
                        *state = ConnState::AwaitClientKeys { offer: extensions };
                    }
                    Dialect::ReadOnly => {
                        *state = ConnState::ReadOnly;
                    }
                }
                ReplyMsg::ServerReply(KeyNegServerReply::ServerKey(
                    self.server.key.public().to_bytes(),
                ))
            }
            CallMsg::ClientKeys(ck) => {
                let ConnState::AwaitClientKeys { offer } = &*state else {
                    return ReplyMsg::Error("key negotiation out of order".into());
                };
                let offer = offer.clone();
                let result = {
                    let mut rng = self.server.rng.lock();
                    server_process_client_keys(&self.server.key, &ck, &offer, &mut *rng)
                };
                match result {
                    Ok((keys, suite, mut msg4)) => {
                        let mut channel = SecureChannelEnd::server_with_suite(&keys, suite);
                        channel.set_telemetry(tel.clone());
                        tel.count("server", "keyneg.completed", 1);
                        // Hand the client a resumption ticket alongside
                        // the key halves: a later reconnect can skip the
                        // Rabin decryption entirely.
                        msg4.ticket = self.server.mint_ticket(
                            &resume_secret(&keys),
                            suite,
                            self.server.nfs.vfs().clock().now().as_nanos(),
                        );
                        let session_id = keys.session_id;
                        *state = ConnState::Established(self.establish(channel, session_id));
                        ReplyMsg::ServerKeys(msg4)
                    }
                    Err(e) => ReplyMsg::Error(format!("key negotiation failed: {e}")),
                }
            }
            CallMsg::Resume { ticket, nonce } => {
                if !matches!(*state, ConnState::Idle) {
                    return ReplyMsg::Error("resume out of order".into());
                }
                // A revoked server must not shortcut clients back onto a
                // channel its compromised key once blessed.
                if self.server.revocation.lock().is_some() {
                    tel.count("server", "resume.rejected", 1);
                    return ReplyMsg::ResumeReject("server key revoked".into());
                }
                let (secret, suite, issued_ns) = match self.server.unseal_ticket(&ticket) {
                    Ok(t) => t,
                    Err(why) => {
                        tel.count("server", "resume.rejected", 1);
                        return ReplyMsg::ResumeReject(why);
                    }
                };
                let now = self.server.nfs.vfs().clock().now().as_nanos();
                if now.saturating_sub(issued_ns) > TICKET_LIFETIME_NS {
                    tel.count("server", "resume.rejected", 1);
                    return ReplyMsg::ResumeReject("ticket expired".into());
                }
                let mut server_nonce = [0u8; RESUME_NONCE_LEN];
                self.server.rng.lock().fill(&mut server_nonce);
                let keys = resume_session(&secret, suite, &nonce, &server_nonce);
                let confirm = resume_confirm(&keys);
                // Rotation: the reply carries a fresh ticket bound to the
                // *new* session's secret. No record of honoured tickets
                // is kept; replaying this one yields keys only a holder
                // of its sealed secret can derive.
                let new_ticket = self.server.mint_ticket(&resume_secret(&keys), suite, now);
                let mut channel = SecureChannelEnd::server_with_suite(&keys, suite);
                channel.set_telemetry(tel.clone());
                tel.count("server", "resume.accepted", 1);
                let session_id = keys.session_id;
                *state = ConnState::Established(self.establish(channel, session_id));
                ReplyMsg::ResumeOk {
                    nonce: server_nonce,
                    confirm,
                    ticket: new_ticket,
                }
            }
            CallMsg::RoGetRoot => {
                if !matches!(*state, ConnState::ReadOnly) {
                    return ReplyMsg::Error("not a read-only connection".into());
                }
                match self.server.ro_db.lock().as_ref() {
                    Some(db) => ReplyMsg::RoRoot(db.root.clone()),
                    None => ReplyMsg::Error("no read-only export".into()),
                }
            }
            CallMsg::RoGetBlock(digest) => {
                if !matches!(*state, ConnState::ReadOnly) {
                    return ReplyMsg::Error("not a read-only connection".into());
                }
                let db = self.server.ro_db.lock().clone();
                match db.as_ref().and_then(|db| db.fetch_raw(&digest).ok()) {
                    Some(block) => ReplyMsg::RoBlock(block.to_vec()),
                    None => ReplyMsg::Error("no such block".into()),
                }
            }
            CallMsg::SrpStart { user, a_pub } => {
                let mut rng = self.server.rng.lock();
                match self.server.auth.srp_start(&user, &mut *rng) {
                    Some((srp, salt, b_pub)) => {
                        let (ekb_salt, cost) = self
                            .server
                            .auth
                            .password_params(&user)
                            .expect("srp_start implies params");
                        *state = ConnState::SrpAwaitFinish {
                            user,
                            a_pub: Nat::from_bytes_be(&a_pub),
                            srp: Some(Box::new(srp)),
                        };
                        ReplyMsg::SrpChallenge {
                            salt,
                            b_pub: b_pub.to_bytes_be(),
                            ekb_salt: ekb_salt.to_vec(),
                            cost,
                        }
                    }
                    // A real deployment would fake a challenge to avoid
                    // leaking which accounts exist; we keep the error
                    // explicit for debuggability.
                    None => ReplyMsg::Error("unknown user".into()),
                }
            }
            CallMsg::SrpFinish { m1 } => {
                let ConnState::SrpAwaitFinish { user, a_pub, srp } = &mut *state else {
                    return ReplyMsg::Error("no SRP handshake in progress".into());
                };
                let Some(srp_server) = srp.take() else {
                    return ReplyMsg::Error("SRP handshake already consumed".into());
                };
                match (*srp_server).process(a_pub, &m1) {
                    Ok(session) => {
                        let (path, blob) = self.server.auth.srp_payload(user);
                        let mut enc = XdrEncoder::new();
                        path.encode(&mut enc);
                        blob.encode(&mut enc);
                        let sealed = sealbox::seal(&session.key, enc.bytes());
                        ReplyMsg::SrpDone {
                            m2: session.m2.to_vec(),
                            sealed_payload: sealed,
                        }
                    }
                    Err(e) => ReplyMsg::Error(format!("SRP failed: {e}")),
                }
            }
            // Sealed frames are served from their envelopes, never from
            // a decoded message: both byte entries route every
            // well-formed one to `sealed`'s sequencer before the general
            // decoder runs.
            CallMsg::SealedSeq { .. } => {
                ReplyMsg::Error("sealed frame outside its envelope".into())
            }
        }
    }
}

impl std::fmt::Debug for ServerConn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ServerConn({})", self.server.config.location)
    }
}
