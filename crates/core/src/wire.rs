//! SFS wire messages.
//!
//! A connection has two stages. The cleartext stage carries the key
//! negotiation of Figure 3 (and lets `sfssd` dispatch on service, dialect,
//! and an extensions string, §3.2). Once session keys exist, everything
//! travels as sealed secure-channel frames whose plaintext is an
//! [`InnerCall`]/[`InnerReply`].
//!
//! The read-only dialect never establishes a channel: its replies are
//! self-certifying (signed root, content-addressed blocks), so its calls
//! stay cleartext.

use sfs_nfs3::proto::{FileHandle, Nfs3RequestRef};
use sfs_proto::channel::FRAME_HEADER_LEN;
use sfs_proto::keyneg::{
    KeyNegClientKeys, KeyNegRequest, KeyNegServerHalves, KeyNegServerReply, RESUME_NONCE_LEN,
};
use sfs_proto::readonly::SignedRoot;
use sfs_proto::userauth::AuthMsg;
use sfs_xdr::enc::MAX_VAR_LEN;
use sfs_xdr::{Xdr, XdrDecoder, XdrEncoder, XdrError};

/// Offset of the secure-channel frame inside the sealed wire envelope
/// ([`CallMsg::SealedSeq`]/[`ReplyMsg::SealedSeq`]), the one format
/// every sealed frame travels in.
///
/// Those marshal as `discriminant(4) ‖ chanseq(8) ‖ xid(4) ‖
/// opaque-length(4) ‖ frame ‖ zero pad to 4`, so the frame always starts
/// at byte 20 and both ends seal and open it in place inside the
/// envelope buffer. The cleartext `chanseq`/`xid` header is what lets
/// the receiver recognise a retransmission or a stray before it touches
/// the cipher, and lets the pipelined path reorder envelopes on the wire
/// while the secure channel's position-sensitive cipher stream is still
/// applied strictly in `chanseq` order (see
/// `sfs_proto::channel::FrameSequencer`).
pub const SEALED_SEQ_ENV_FRAME_START: usize = 20;

/// Sequenced sealed-message discriminant for calls.
const SEALED_SEQ_CALL_DISCRIMINANT: u32 = 7;

/// Sequenced sealed-message discriminant for replies.
const SEALED_SEQ_REPLY_DISCRIMINANT: u32 = 8;

/// Starts a sequenced sealed envelope in `buf` (call direction when
/// `call` is true): discriminant, channel sequence, xid, a length word
/// patched by [`seq_env_finish`], and the reserved secure-channel frame
/// header. The caller appends plaintext, calls
/// `SecureChannelEnd::seal_into(buf, SEALED_SEQ_ENV_FRAME_START)`, then
/// [`seq_env_finish`]. The result is byte-identical to
/// `CallMsg::SealedSeq{..}.to_xdr()` (or the `ReplyMsg` equivalent).
pub(crate) fn seq_env_begin(buf: &mut Vec<u8>, call: bool, chanseq: u64, xid: u32) {
    buf.clear();
    let disc = if call {
        SEALED_SEQ_CALL_DISCRIMINANT
    } else {
        SEALED_SEQ_REPLY_DISCRIMINANT
    };
    buf.extend_from_slice(&disc.to_be_bytes());
    buf.extend_from_slice(&chanseq.to_be_bytes());
    buf.extend_from_slice(&xid.to_be_bytes());
    buf.extend_from_slice(&[0u8; 4]);
    buf.extend_from_slice(&[0u8; FRAME_HEADER_LEN]);
}

/// Completes a sequenced sealed envelope after `seal_into`: patches the
/// opaque length word and appends the XDR zero pad.
pub(crate) fn seq_env_finish(buf: &mut Vec<u8>) {
    let frame_len = buf.len() - SEALED_SEQ_ENV_FRAME_START;
    buf[16..SEALED_SEQ_ENV_FRAME_START].copy_from_slice(&(frame_len as u32).to_be_bytes());
    let pad = (4 - frame_len % 4) % 4;
    buf.extend_from_slice(&[0u8; 3][..pad]);
}

fn seq_envelope(bytes: &[u8], disc: u32) -> Option<(u64, u32, std::ops::Range<usize>)> {
    if bytes.len() < SEALED_SEQ_ENV_FRAME_START || bytes[..4] != disc.to_be_bytes() {
        return None;
    }
    let chanseq = u64::from_be_bytes(bytes[4..12].try_into().expect("8 bytes"));
    let xid = u32::from_be_bytes(bytes[12..16].try_into().expect("4 bytes"));
    let len = u32::from_be_bytes(
        bytes[16..SEALED_SEQ_ENV_FRAME_START]
            .try_into()
            .expect("4 bytes"),
    );
    if len > MAX_VAR_LEN {
        return None;
    }
    let len = len as usize;
    let end = SEALED_SEQ_ENV_FRAME_START.checked_add(len)?;
    let pad = (4 - len % 4) % 4;
    if bytes.len() != end.checked_add(pad)? || bytes[end..].iter().any(|&b| b != 0) {
        return None;
    }
    Some((chanseq, xid, SEALED_SEQ_ENV_FRAME_START..end))
}

/// If `bytes` is exactly a well-formed [`CallMsg::SealedSeq`] envelope,
/// returns `(chanseq, xid, frame range)`; otherwise `None` and the
/// caller falls back to the general decoder.
pub fn seq_call_envelope(bytes: &[u8]) -> Option<(u64, u32, std::ops::Range<usize>)> {
    seq_envelope(bytes, SEALED_SEQ_CALL_DISCRIMINANT)
}

/// [`seq_call_envelope`] for [`ReplyMsg::SealedSeq`] envelopes.
pub fn seq_reply_envelope(bytes: &[u8]) -> Option<(u64, u32, std::ops::Range<usize>)> {
    seq_envelope(bytes, SEALED_SEQ_REPLY_DISCRIMINANT)
}

/// Service selectors in the hello message ("the service it requests
/// (currently fileserver or authserver)").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Service {
    /// The file server.
    File,
    /// The authserver (reached through the file server host).
    Auth,
}

/// Protocol dialects ("one can add new file system protocols to SFS
/// without changing any of the existing software").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dialect {
    /// The read-write protocol (secure channel + NFS3 relay).
    ReadWrite,
    /// The public read-only protocol (presigned data).
    ReadOnly,
}

/// A client→server message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallMsg {
    /// Stage-1 hello: what file system, which service/dialect, plus the
    /// currently-unused extensions string from §3.2.
    Hello {
        /// Key-negotiation request (Location + HostID).
        req: KeyNegRequest,
        /// Requested service.
        service: Service,
        /// Requested dialect.
        dialect: Dialect,
        /// Protocol version (dispatched on by `sfssd`, §3.2).
        version: u32,
        /// Extensions string (dispatched on by `sfssd`; "currently
        /// unused" in the paper's deployment).
        extensions: String,
    },
    /// Stage-3 of key negotiation.
    ClientKeys(KeyNegClientKeys),
    /// Read-only dialect: fetch the signed root.
    RoGetRoot,
    /// Read-only dialect: fetch a block by digest.
    RoGetBlock([u8; 20]),
    /// `sfskey`→authserver: begin an SRP handshake (§2.4).
    SrpStart {
        /// Login name.
        user: String,
        /// The client's SRP public value A (big-endian).
        a_pub: Vec<u8>,
    },
    /// `sfskey`→authserver: the client's SRP evidence M1.
    SrpFinish {
        /// Evidence message.
        m1: Vec<u8>,
    },
    /// A sealed secure-channel frame containing an [`InnerCall`].
    /// `chanseq` is the frame's position in the per-direction cipher
    /// stream (the channel's messages-sent count at seal time) so the
    /// receiver can restore stream order before decrypting; `xid`
    /// matches the reply to its in-flight call (0 for a lone call, which
    /// is a window of one).
    SealedSeq {
        /// Cipher-stream position of this frame (client→server).
        chanseq: u64,
        /// Client-chosen transaction id.
        xid: u32,
        /// The sealed frame.
        frame: Vec<u8>,
    },
    /// Session resumption: present a server-issued ticket instead of
    /// re-running stages 1–4. One round trip, no public-key operations.
    Resume {
        /// The opaque ticket from a previous negotiation or resume.
        ticket: Vec<u8>,
        /// Fresh client nonce mixed into the resumed session keys.
        nonce: [u8; RESUME_NONCE_LEN],
    },
}

/// A server→client message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplyMsg {
    /// Stage-2: the server's public key, or a revocation certificate.
    ServerReply(KeyNegServerReply),
    /// Stage-4: the encrypted server key halves, suite choice, and
    /// resumption ticket.
    ServerKeys(KeyNegServerHalves),
    /// Read-only dialect: the signed root.
    RoRoot(SignedRoot),
    /// Read-only dialect: a raw block (client verifies the digest).
    RoBlock(Vec<u8>),
    /// Authserver→`sfskey`: the SRP challenge — salt, B, and the
    /// eksblowfish parameters the client needs to harden its password.
    SrpChallenge {
        /// SRP salt.
        salt: Vec<u8>,
        /// The server's SRP public value B (big-endian).
        b_pub: Vec<u8>,
        /// eksblowfish salt.
        ekb_salt: Vec<u8>,
        /// eksblowfish cost parameter.
        cost: u32,
    },
    /// Authserver→`sfskey`: the server evidence M2 plus a payload sealed
    /// under the negotiated session key — the server's self-certifying
    /// pathname and the user's encrypted private key, if registered.
    SrpDone {
        /// Server evidence message.
        m2: Vec<u8>,
        /// Sealed `(Option<SelfCertifyingPath>, Option<key blob>)`.
        sealed_payload: Vec<u8>,
    },
    /// Protocol-level failure (unknown service, bad state, missing
    /// block).
    Error(String),
    /// A sealed secure-channel frame containing an [`InnerReply`]; see
    /// [`CallMsg::SealedSeq`]. `chanseq` is the server→client stream
    /// position, `xid` echoes the call being answered.
    SealedSeq {
        /// Cipher-stream position of this frame (server→client).
        chanseq: u64,
        /// Echoed transaction id.
        xid: u32,
        /// The sealed frame.
        frame: Vec<u8>,
    },
    /// Resumption accepted: the server's nonce, its proof it could
    /// unseal the ticket, and a rotated ticket for the *next* resume.
    ResumeOk {
        /// Fresh server nonce mixed into the resumed session keys.
        nonce: [u8; RESUME_NONCE_LEN],
        /// SHA-1 proof of possession over the resumed keys.
        confirm: [u8; 20],
        /// Replacement ticket sealing the new session's secret.
        ticket: Vec<u8>,
    },
    /// Resumption declined (expired, unreadable, or revoked ticket);
    /// the client falls back to a full negotiation.
    ResumeReject(String),
}

/// The plaintext of a sealed client frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InnerCall {
    /// A user-authentication attempt (Figure 4, step 3).
    Auth {
        /// Client-chosen sequence number.
        seq_no: u32,
        /// The agent's opaque signed message.
        msg: AuthMsg,
    },
    /// Fetch the file system's root handle (the MOUNT-protocol
    /// equivalent, carried over the secure channel so it is authentic).
    Mount,
    /// An NFS3 call tagged with an authentication number.
    Nfs {
        /// Authentication number from a prior Auth (0 = anonymous).
        authno: u32,
        /// NFS3 procedure number.
        proc: u32,
        /// Marshaled NFS3 arguments.
        args: Vec<u8>,
    },
}

/// Appends the steady-state inner call to `buf`: byte-equal to
/// `InnerCall::Nfs { authno, proc, args: req.encode_args() }.to_xdr()`
/// without building the enum or its argument `Vec`. The arguments are
/// marshaled in place and the opaque field's length word patched
/// afterwards; marshaled NFS3 arguments are always 4-aligned, so the
/// field needs no padding. Both RPC engines send through this; the
/// server's parse twin is [`inner_nfs_call`] (`server::tests` pins the
/// pair against the general encoder for every procedure).
pub fn encode_inner_nfs(buf: &mut Vec<u8>, authno: u32, req: &Nfs3RequestRef<'_>) {
    let mut enc = XdrEncoder::from_vec(std::mem::take(buf));
    enc.put_u32(1).put_u32(authno).put_u32(req.proc() as u32);
    let args_start = enc.put_u32(0).len();
    req.encode_args_into(&mut enc);
    *buf = enc.into_bytes();
    let args_len = (buf.len() - args_start) as u32;
    buf[args_start - 4..args_start].copy_from_slice(&args_len.to_be_bytes());
}

/// Borrowing parse of the steady-state inner call: `Some((authno, proc,
/// args))` for exactly the plaintexts [`InnerCall::from_xdr`] decodes as
/// [`InnerCall::Nfs`] (same field order, same length cap, same pad and
/// trailing-byte checks), without copying the argument bytes.
pub fn inner_nfs_call(plaintext: &[u8]) -> Option<(u32, u32, &[u8])> {
    let mut dec = XdrDecoder::new(plaintext);
    if dec.get_u32().ok()? != 1 {
        return None;
    }
    let call = (
        dec.get_u32().ok()?,
        dec.get_u32().ok()?,
        dec.get_opaque_ref().ok()?,
    );
    dec.finish().ok()?;
    Some(call)
}

/// Borrowing parse of the steady-state inner reply, the client's twin
/// of [`inner_nfs_call`]: `Some((results, invalidations))` for exactly
/// the plaintexts [`InnerReply::from_xdr`] decodes as
/// [`InnerReply::Nfs`] (same field order, same length caps, same pad and
/// trailing-byte checks), with the results left in place for
/// `Nfs3Reply::decode_results` and the invalidations checked and left in
/// place too. Both RPC engines decode through this.
pub(crate) fn inner_nfs_reply(plaintext: &[u8]) -> Option<(&[u8], Invalidations<'_>)> {
    let mut dec = XdrDecoder::new(plaintext);
    if dec.get_u32().ok()? != 2 {
        return None;
    }
    let results = dec.get_opaque_ref().ok()?;
    let count = dec.get_u32().ok()?;
    let handles = &plaintext[plaintext.len() - dec.remaining()..];
    for _ in 0..count {
        FileHandle::decode(&mut dec).ok()?;
    }
    dec.finish().ok()?;
    Some((results, Invalidations { count, handles }))
}

/// The lease invalidations a reply piggybacks, as [`inner_nfs_reply`]
/// checked them: still encoded, in the frame they arrived in.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Invalidations<'a> {
    count: u32,
    handles: &'a [u8],
}

impl<'a> Invalidations<'a> {
    /// How many handles the reply carries.
    pub(crate) fn len(&self) -> usize {
        self.count as usize
    }

    /// Whether it carries none.
    pub(crate) fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The handles, decoded one by one as they are read.
    pub(crate) fn iter(&self) -> impl Iterator<Item = FileHandle> + 'a {
        let mut dec = XdrDecoder::new(self.handles);
        (0..self.count).map(move |_| FileHandle::decode(&mut dec).expect("checked when parsed"))
    }
}

/// The plaintext of a sealed server frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InnerReply {
    /// Authentication accepted: the assigned authentication number.
    AuthGranted {
        /// Echoed sequence number.
        seq_no: u32,
        /// The authentication number for tagging subsequent calls.
        authno: u32,
    },
    /// Authentication rejected ("the agent can try again using different
    /// credentials or a different protocol").
    AuthDenied {
        /// Echoed sequence number.
        seq_no: u32,
    },
    /// The root file handle (SFS/encrypted form).
    MountReply {
        /// Root handle of the export.
        root: FileHandle,
    },
    /// NFS3 results, plus any pending lease-invalidation callbacks
    /// (piggybacked; "the server does not wait for invalidations to be
    /// acknowledged", §3.3).
    Nfs {
        /// Marshaled NFS3 results.
        results: Vec<u8>,
        /// File handles whose cached attributes must be dropped.
        invalidations: Vec<FileHandle>,
    },
}

impl ReplyMsg {
    /// One-line human-readable rendering (the §3.2 pretty-printing story:
    /// "making it easy to understand any problems by tracing exactly how
    /// processes interact").
    pub(crate) fn describe(&self) -> String {
        match self {
            ReplyMsg::ServerReply(KeyNegServerReply::ServerKey(k)) => {
                format!("SERVER-KEY [{} bytes]", k.len())
            }
            ReplyMsg::ServerReply(KeyNegServerReply::Revoked(c)) => {
                format!("REVOKED {}", c.location)
            }
            ReplyMsg::ServerKeys(h) => format!(
                "SERVER-KEYS halves={}B suite={} ticket={}B",
                h.encrypted_halves.len(),
                h.chosen,
                h.ticket.len()
            ),
            ReplyMsg::RoRoot(root) => format!("RO-ROOT v{}", root.version),
            ReplyMsg::RoBlock(b) => format!("RO-BLOCK [{} bytes]", b.len()),
            ReplyMsg::SrpChallenge { cost, .. } => format!("SRP-CHALLENGE cost={cost}"),
            ReplyMsg::SrpDone { .. } => "SRP-DONE".into(),
            ReplyMsg::Error(e) => format!("ERROR {e:?}"),
            ReplyMsg::SealedSeq {
                chanseq,
                xid,
                frame,
            } => {
                format!("SEALED-SEQ seq={chanseq} xid={xid} [{} bytes]", frame.len())
            }
            ReplyMsg::ResumeOk { ticket, .. } => {
                format!("RESUME-OK ticket={}B", ticket.len())
            }
            ReplyMsg::ResumeReject(why) => format!("RESUME-REJECT {why:?}"),
        }
    }
}

fn service_to_u32(s: Service) -> u32 {
    match s {
        Service::File => 1,
        Service::Auth => 2,
    }
}

fn service_from_u32(v: u32) -> Result<Service, XdrError> {
    match v {
        1 => Ok(Service::File),
        2 => Ok(Service::Auth),
        other => Err(XdrError::BadDiscriminant(other)),
    }
}

fn dialect_to_u32(d: Dialect) -> u32 {
    match d {
        Dialect::ReadWrite => 1,
        Dialect::ReadOnly => 2,
    }
}

fn dialect_from_u32(v: u32) -> Result<Dialect, XdrError> {
    match v {
        1 => Ok(Dialect::ReadWrite),
        2 => Ok(Dialect::ReadOnly),
        other => Err(XdrError::BadDiscriminant(other)),
    }
}

impl Xdr for CallMsg {
    fn encode(&self, enc: &mut XdrEncoder) {
        match self {
            CallMsg::Hello {
                req,
                service,
                dialect,
                version,
                extensions,
            } => {
                enc.put_u32(0);
                req.encode(enc);
                enc.put_u32(service_to_u32(*service));
                enc.put_u32(dialect_to_u32(*dialect));
                enc.put_u32(*version);
                enc.put_string(extensions);
            }
            CallMsg::ClientKeys(k) => {
                enc.put_u32(1);
                k.encode(enc);
            }
            CallMsg::RoGetRoot => {
                enc.put_u32(3);
            }
            CallMsg::RoGetBlock(digest) => {
                enc.put_u32(4);
                enc.put_opaque_fixed(digest);
            }
            CallMsg::SrpStart { user, a_pub } => {
                enc.put_u32(5);
                enc.put_string(user);
                enc.put_opaque(a_pub);
            }
            CallMsg::SrpFinish { m1 } => {
                enc.put_u32(6);
                enc.put_opaque(m1);
            }
            CallMsg::SealedSeq {
                chanseq,
                xid,
                frame,
            } => {
                enc.put_u32(SEALED_SEQ_CALL_DISCRIMINANT);
                enc.put_u64(*chanseq);
                enc.put_u32(*xid);
                enc.put_opaque(frame);
            }
            CallMsg::Resume { ticket, nonce } => {
                enc.put_u32(8);
                enc.put_opaque(ticket);
                enc.put_opaque_fixed(nonce);
            }
        }
    }

    fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, XdrError> {
        match dec.get_u32()? {
            0 => Ok(CallMsg::Hello {
                req: KeyNegRequest::decode(dec)?,
                service: service_from_u32(dec.get_u32()?)?,
                dialect: dialect_from_u32(dec.get_u32()?)?,
                version: dec.get_u32()?,
                extensions: dec.get_string()?,
            }),
            1 => Ok(CallMsg::ClientKeys(KeyNegClientKeys::decode(dec)?)),
            3 => Ok(CallMsg::RoGetRoot),
            4 => Ok(CallMsg::RoGetBlock(
                dec.get_opaque_fixed(20)?
                    .try_into()
                    .expect("length checked"),
            )),
            5 => Ok(CallMsg::SrpStart {
                user: dec.get_string()?,
                a_pub: dec.get_opaque()?,
            }),
            6 => Ok(CallMsg::SrpFinish {
                m1: dec.get_opaque()?,
            }),
            SEALED_SEQ_CALL_DISCRIMINANT => Ok(CallMsg::SealedSeq {
                chanseq: dec.get_u64()?,
                xid: dec.get_u32()?,
                frame: dec.get_opaque()?,
            }),
            8 => Ok(CallMsg::Resume {
                ticket: dec.get_opaque()?,
                nonce: dec
                    .get_opaque_fixed(RESUME_NONCE_LEN)?
                    .try_into()
                    .expect("length checked"),
            }),
            other => Err(XdrError::BadDiscriminant(other)),
        }
    }
}

impl Xdr for ReplyMsg {
    fn encode(&self, enc: &mut XdrEncoder) {
        match self {
            ReplyMsg::ServerReply(r) => {
                enc.put_u32(0);
                r.encode(enc);
            }
            ReplyMsg::ServerKeys(h) => {
                enc.put_u32(1);
                h.encode(enc);
            }
            ReplyMsg::RoRoot(root) => {
                enc.put_u32(3);
                root.encode(enc);
            }
            ReplyMsg::RoBlock(data) => {
                enc.put_u32(4);
                enc.put_opaque(data);
            }
            ReplyMsg::Error(e) => {
                enc.put_u32(5);
                enc.put_string(e);
            }
            ReplyMsg::SrpChallenge {
                salt,
                b_pub,
                ekb_salt,
                cost,
            } => {
                enc.put_u32(6);
                enc.put_opaque(salt);
                enc.put_opaque(b_pub);
                enc.put_opaque(ekb_salt);
                enc.put_u32(*cost);
            }
            ReplyMsg::SrpDone { m2, sealed_payload } => {
                enc.put_u32(7);
                enc.put_opaque(m2);
                enc.put_opaque(sealed_payload);
            }
            ReplyMsg::SealedSeq {
                chanseq,
                xid,
                frame,
            } => {
                enc.put_u32(SEALED_SEQ_REPLY_DISCRIMINANT);
                enc.put_u64(*chanseq);
                enc.put_u32(*xid);
                enc.put_opaque(frame);
            }
            ReplyMsg::ResumeOk {
                nonce,
                confirm,
                ticket,
            } => {
                enc.put_u32(9);
                enc.put_opaque_fixed(nonce);
                enc.put_opaque_fixed(confirm);
                enc.put_opaque(ticket);
            }
            ReplyMsg::ResumeReject(why) => {
                enc.put_u32(10);
                enc.put_string(why);
            }
        }
    }

    fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, XdrError> {
        match dec.get_u32()? {
            0 => Ok(ReplyMsg::ServerReply(KeyNegServerReply::decode(dec)?)),
            1 => Ok(ReplyMsg::ServerKeys(KeyNegServerHalves::decode(dec)?)),
            3 => Ok(ReplyMsg::RoRoot(SignedRoot::decode(dec)?)),
            4 => Ok(ReplyMsg::RoBlock(dec.get_opaque()?)),
            5 => Ok(ReplyMsg::Error(dec.get_string()?)),
            6 => Ok(ReplyMsg::SrpChallenge {
                salt: dec.get_opaque()?,
                b_pub: dec.get_opaque()?,
                ekb_salt: dec.get_opaque()?,
                cost: dec.get_u32()?,
            }),
            7 => Ok(ReplyMsg::SrpDone {
                m2: dec.get_opaque()?,
                sealed_payload: dec.get_opaque()?,
            }),
            SEALED_SEQ_REPLY_DISCRIMINANT => Ok(ReplyMsg::SealedSeq {
                chanseq: dec.get_u64()?,
                xid: dec.get_u32()?,
                frame: dec.get_opaque()?,
            }),
            9 => Ok(ReplyMsg::ResumeOk {
                nonce: dec
                    .get_opaque_fixed(RESUME_NONCE_LEN)?
                    .try_into()
                    .expect("length checked"),
                confirm: dec
                    .get_opaque_fixed(20)?
                    .try_into()
                    .expect("length checked"),
                ticket: dec.get_opaque()?,
            }),
            10 => Ok(ReplyMsg::ResumeReject(dec.get_string()?)),
            other => Err(XdrError::BadDiscriminant(other)),
        }
    }
}

impl Xdr for InnerCall {
    fn encode(&self, enc: &mut XdrEncoder) {
        match self {
            InnerCall::Auth { seq_no, msg } => {
                enc.put_u32(0);
                enc.put_u32(*seq_no);
                msg.encode(enc);
            }
            InnerCall::Nfs { authno, proc, args } => {
                enc.put_u32(1);
                enc.put_u32(*authno);
                enc.put_u32(*proc);
                enc.put_opaque(args);
            }
            InnerCall::Mount => {
                enc.put_u32(2);
            }
        }
    }

    fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, XdrError> {
        match dec.get_u32()? {
            0 => Ok(InnerCall::Auth {
                seq_no: dec.get_u32()?,
                msg: AuthMsg::decode(dec)?,
            }),
            1 => Ok(InnerCall::Nfs {
                authno: dec.get_u32()?,
                proc: dec.get_u32()?,
                args: dec.get_opaque()?,
            }),
            2 => Ok(InnerCall::Mount),
            other => Err(XdrError::BadDiscriminant(other)),
        }
    }
}

impl Xdr for InnerReply {
    fn encode(&self, enc: &mut XdrEncoder) {
        match self {
            InnerReply::AuthGranted { seq_no, authno } => {
                enc.put_u32(0);
                enc.put_u32(*seq_no);
                enc.put_u32(*authno);
            }
            InnerReply::AuthDenied { seq_no } => {
                enc.put_u32(1);
                enc.put_u32(*seq_no);
            }
            InnerReply::Nfs {
                results,
                invalidations,
            } => {
                enc.put_u32(2);
                enc.put_opaque(results);
                enc.put_u32(invalidations.len() as u32);
                for fh in invalidations {
                    fh.encode(enc);
                }
            }
            InnerReply::MountReply { root } => {
                enc.put_u32(3);
                root.encode(enc);
            }
        }
    }

    fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, XdrError> {
        match dec.get_u32()? {
            0 => Ok(InnerReply::AuthGranted {
                seq_no: dec.get_u32()?,
                authno: dec.get_u32()?,
            }),
            1 => Ok(InnerReply::AuthDenied {
                seq_no: dec.get_u32()?,
            }),
            2 => {
                let results = dec.get_opaque()?;
                let n = dec.get_u32()?;
                let mut invalidations = Vec::new();
                for _ in 0..n {
                    invalidations.push(FileHandle::decode(dec)?);
                }
                Ok(InnerReply::Nfs {
                    results,
                    invalidations,
                })
            }
            3 => Ok(InnerReply::MountReply {
                root: FileHandle::decode(dec)?,
            }),
            other => Err(XdrError::BadDiscriminant(other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfs_proto::pathname::HostId;

    #[test]
    fn call_msgs_roundtrip() {
        let msgs = vec![
            CallMsg::Hello {
                req: KeyNegRequest {
                    location: "sfs.lcs.mit.edu".into(),
                    host_id: HostId([7u8; 20]),
                },
                service: Service::File,
                dialect: Dialect::ReadWrite,
                version: 1,
                extensions: String::new(),
            },
            CallMsg::ClientKeys(KeyNegClientKeys {
                client_key: vec![1, 2],
                encrypted_halves: vec![3, 4, 5],
            }),
            CallMsg::RoGetRoot,
            CallMsg::RoGetBlock([5u8; 20]),
            CallMsg::Resume {
                ticket: vec![8; 52],
                nonce: [3u8; RESUME_NONCE_LEN],
            },
        ];
        for m in msgs {
            assert_eq!(CallMsg::from_xdr(&m.to_xdr()).unwrap(), m);
        }
    }

    #[test]
    fn reply_msgs_roundtrip() {
        let msgs = vec![
            ReplyMsg::ServerReply(KeyNegServerReply::ServerKey(vec![1, 2, 3])),
            ReplyMsg::ServerKeys(KeyNegServerHalves {
                encrypted_halves: vec![4, 5],
                chosen: 2,
                confirm: [6u8; 20],
                ticket: vec![7; 44],
            }),
            ReplyMsg::ResumeOk {
                nonce: [1u8; RESUME_NONCE_LEN],
                confirm: [2u8; 20],
                ticket: vec![3; 44],
            },
            ReplyMsg::ResumeReject("ticket expired".into()),
            ReplyMsg::RoRoot(SignedRoot {
                root_digest: [1u8; 20],
                version: 9,
                signature: vec![2, 3],
            }),
            ReplyMsg::RoBlock(vec![7; 10]),
            ReplyMsg::Error("no such service".into()),
        ];
        for m in msgs {
            assert_eq!(ReplyMsg::from_xdr(&m.to_xdr()).unwrap(), m);
        }
    }

    #[test]
    fn inner_msgs_roundtrip() {
        let calls = vec![
            InnerCall::Auth {
                seq_no: 3,
                msg: AuthMsg {
                    user_key: vec![1],
                    signature: vec![2],
                },
            },
            InnerCall::Nfs {
                authno: 7,
                proc: 1,
                args: vec![1, 2, 3, 4],
            },
        ];
        for c in calls {
            assert_eq!(InnerCall::from_xdr(&c.to_xdr()).unwrap(), c);
        }
        let replies = vec![
            InnerReply::AuthGranted {
                seq_no: 3,
                authno: 1,
            },
            InnerReply::AuthDenied { seq_no: 4 },
            InnerReply::Nfs {
                results: vec![1, 2],
                invalidations: vec![FileHandle::from([9; 16])],
            },
        ];
        for r in replies {
            assert_eq!(InnerReply::from_xdr(&r.to_xdr()).unwrap(), r);
        }
    }

    #[test]
    fn inner_nfs_parse_accepts_exactly_what_from_xdr_decodes_as_nfs() {
        // The server dispatches NFS calls only through `inner_nfs_call`
        // and hands what it declines to the general decoder, which must
        // then never produce an `Nfs`. Seeded mutations of every variant
        // check both directions of that equivalence.
        use sfs_bignum::XorShiftSource;
        let mut rng = XorShiftSource::new(0x1CA11);
        let mut draw = move |n: usize| rng.below(n as u64) as usize;
        let nfs = |n| InnerCall::Nfs {
            authno: 7,
            proc: 6,
            args: vec![0xA5; n],
        };
        let auth = InnerCall::Auth {
            seq_no: 3,
            msg: AuthMsg {
                user_key: vec![1; 5],
                signature: vec![2; 9],
            },
        };
        let seeds = [nfs(0), nfs(1), nfs(3), nfs(97), auth, InnerCall::Mount].map(|c| c.to_xdr());
        let (mut accepted, mut declined) = (0, 0);
        for _ in 0..4000 {
            let mut p = seeds[draw(seeds.len())].clone();
            match draw(5) {
                0 => {}
                1 => {
                    let i = draw(p.len());
                    p[i] ^= 1 << draw(8);
                }
                2 => p.truncate(draw(p.len() + 1)),
                3 => p.extend((0..1 + draw(4)).map(|_| draw(2) as u8)),
                _ => {
                    let word = draw(p.len() / 4) * 4;
                    let v = [0u32, 1, 2, 3, MAX_VAR_LEN, MAX_VAR_LEN + 1][draw(6)];
                    p[word..word + 4].copy_from_slice(&v.to_be_bytes());
                }
            }
            if let Ok(InnerCall::Nfs { authno, proc, args }) = InnerCall::from_xdr(&p) {
                assert_eq!(inner_nfs_call(&p), Some((authno, proc, &args[..])));
                accepted += 1;
            } else {
                assert_eq!(inner_nfs_call(&p), None, "{p:?}");
                declined += 1;
            }
        }
        assert!(accepted > 400 && declined > 400, "{accepted} / {declined}");
    }

    #[test]
    fn inner_nfs_reply_parse_accepts_exactly_what_from_xdr_decodes_as_nfs() {
        // The client decodes NFS results only through `inner_nfs_reply`,
        // the general decoder only for what it declines; the same seeded
        // mutations as the call-side pin check the equivalence both ways,
        // invalidation handles and their length cap included.
        use sfs_bignum::XorShiftSource;
        let mut rng = XorShiftSource::new(0x1EE_1CA11);
        let mut draw = move |n: usize| rng.below(n as u64) as usize;
        let nfs = |n, handles: usize| InnerReply::Nfs {
            results: vec![0x5C; n],
            invalidations: (0..handles)
                .map(|i| FileHandle::from([i as u8; 24]))
                .collect(),
        };
        let seeds = [
            nfs(0, 0),
            nfs(1, 0),
            nfs(3, 1),
            nfs(97, 2),
            nfs(8, 0),
            InnerReply::AuthGranted {
                seq_no: 3,
                authno: 1,
            },
            InnerReply::AuthDenied { seq_no: 4 },
            InnerReply::MountReply {
                root: FileHandle::from([7; 24]),
            },
        ]
        .map(|r| r.to_xdr());
        let (mut accepted, mut declined) = (0, 0);
        for _ in 0..4000 {
            let mut p = seeds[draw(seeds.len())].clone();
            match draw(5) {
                0 => {}
                1 => {
                    let i = draw(p.len());
                    p[i] ^= 1 << draw(8);
                }
                2 => p.truncate(draw(p.len() + 1)),
                3 => p.extend((0..1 + draw(4)).map(|_| draw(2) as u8)),
                _ => {
                    let word = draw(p.len() / 4) * 4;
                    let v = [0u32, 1, 2, 3, 24, 64, 65, MAX_VAR_LEN, MAX_VAR_LEN + 1][draw(9)];
                    p[word..word + 4].copy_from_slice(&v.to_be_bytes());
                }
            }
            if let Ok(InnerReply::Nfs {
                results,
                invalidations,
            }) = InnerReply::from_xdr(&p)
            {
                let parsed = inner_nfs_reply(&p).map(|(r, inv)| (r, inv.iter().collect()));
                assert_eq!(parsed, Some((&results[..], invalidations)));
                accepted += 1;
            } else {
                assert!(inner_nfs_reply(&p).is_none(), "{p:?}");
                declined += 1;
            }
        }
        assert!(accepted > 400 && declined > 400, "{accepted} / {declined}");
    }

    #[test]
    fn describe_renders_all_variants() {
        assert!(ReplyMsg::Error("nope".into()).describe().contains("nope"));
        assert!(ReplyMsg::SrpChallenge {
            salt: vec![],
            b_pub: vec![],
            ekb_salt: vec![],
            cost: 8
        }
        .describe()
        .contains("cost=8"));
    }

    #[test]
    fn seq_msgs_roundtrip() {
        let c = CallMsg::SealedSeq {
            chanseq: 0x1_0000_0007,
            xid: 42,
            frame: vec![9; 33],
        };
        assert_eq!(CallMsg::from_xdr(&c.to_xdr()).unwrap(), c);
        let r = ReplyMsg::SealedSeq {
            chanseq: 3,
            xid: 42,
            frame: vec![5; 8],
        };
        assert_eq!(ReplyMsg::from_xdr(&r.to_xdr()).unwrap(), r);
        assert!(r.describe().contains("seq=3"));
    }

    #[test]
    fn seq_envelope_helpers_match_the_general_encoder() {
        for n in [0usize, 1, 3, 24, 4096] {
            let frame: Vec<u8> = (0..n + FRAME_HEADER_LEN)
                .map(|i| (i * 7 + 3) as u8)
                .collect();
            for call in [true, false] {
                let mut buf = Vec::new();
                seq_env_begin(&mut buf, call, 0xdead_beef_0012_3456, 77);
                assert_eq!(buf.len(), SEALED_SEQ_ENV_FRAME_START + FRAME_HEADER_LEN);
                // Stand in for `seal_into`: place the finished frame bytes.
                buf.truncate(SEALED_SEQ_ENV_FRAME_START);
                buf.extend_from_slice(&frame);
                seq_env_finish(&mut buf);
                let expect = if call {
                    CallMsg::SealedSeq {
                        chanseq: 0xdead_beef_0012_3456,
                        xid: 77,
                        frame: frame.clone(),
                    }
                    .to_xdr()
                } else {
                    ReplyMsg::SealedSeq {
                        chanseq: 0xdead_beef_0012_3456,
                        xid: 77,
                        frame: frame.clone(),
                    }
                    .to_xdr()
                };
                assert_eq!(buf, expect);
                let parse = if call {
                    seq_call_envelope(&buf)
                } else {
                    seq_reply_envelope(&buf)
                };
                assert_eq!(
                    parse,
                    Some((
                        0xdead_beef_0012_3456,
                        77,
                        SEALED_SEQ_ENV_FRAME_START..SEALED_SEQ_ENV_FRAME_START + frame.len()
                    ))
                );
                // Direction confusion is rejected.
                let cross = if call {
                    seq_reply_envelope(&buf)
                } else {
                    seq_call_envelope(&buf)
                };
                assert_eq!(cross, None);
            }
        }
    }

    #[test]
    fn seq_envelope_parse_rejects_what_from_xdr_would_reject() {
        let good = CallMsg::SealedSeq {
            chanseq: 9,
            xid: 1,
            frame: vec![7u8; 26],
        }
        .to_xdr();
        assert!(seq_call_envelope(&good).is_some());

        let mut trailing = good.clone();
        trailing.push(0);
        assert_eq!(seq_call_envelope(&trailing), None);

        let mut bad_pad = good.clone();
        *bad_pad.last_mut().unwrap() = 1;
        assert_eq!(seq_call_envelope(&bad_pad), None);
        assert!(CallMsg::from_xdr(&bad_pad).is_err());

        assert_eq!(seq_call_envelope(&good[..10]), None);

        let mut huge = good.clone();
        huge[16..20].copy_from_slice(&(MAX_VAR_LEN + 1).to_be_bytes());
        assert_eq!(seq_call_envelope(&huge), None);
    }

    #[test]
    fn the_unsequenced_sealed_discriminant_is_gone() {
        // Discriminant 2 was `Sealed(opaque)` in both directions; the
        // sequenced envelope is the only sealed format, so a peer still
        // sending the old one is refused by the decoder.
        let mut enc = XdrEncoder::new();
        enc.put_u32(2).put_opaque(&[7u8; 26]);
        assert_eq!(
            CallMsg::from_xdr(enc.bytes()),
            Err(XdrError::BadDiscriminant(2))
        );
        assert_eq!(
            ReplyMsg::from_xdr(enc.bytes()),
            Err(XdrError::BadDiscriminant(2))
        );
    }

    #[test]
    fn bad_discriminants_rejected() {
        let mut enc = XdrEncoder::new();
        enc.put_u32(99);
        assert!(CallMsg::from_xdr(enc.bytes()).is_err());
        assert!(ReplyMsg::from_xdr(enc.bytes()).is_err());
        assert!(InnerCall::from_xdr(enc.bytes()).is_err());
        assert!(InnerReply::from_xdr(enc.bytes()).is_err());
    }
}
