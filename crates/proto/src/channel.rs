//! The SFS secure channel (§2.1.2, §3.1.3).
//!
//! "Clients and read-write servers always communicate over a low-level
//! secure channel that guarantees secrecy, data integrity, freshness
//! (including replay prevention), and forward secrecy."
//!
//! Mechanics per §3.1.3: each direction runs one long-lived ARC4 stream
//! keyed by its 20-byte session key. For every message, 32 bytes are pulled
//! from the stream to key a fresh SHA-1 MAC (those bytes are *not* used for
//! encryption); the MAC covers the length and plaintext; then length,
//! message, and MAC are all encrypted with the stream.
//!
//! Freshness/replay protection falls out of the stream position: a
//! replayed, dropped, or reordered ciphertext decrypts under the wrong part
//! of the key stream and fails the MAC, which poisons the channel.
//!
//! The paper separates key management from the transport cipher (§3), so
//! the channel is cipher-agile: both ends agree on a [`SuiteId`] during
//! key negotiation and construct their ends with
//! [`SecureChannelEnd::client_with_suite`] /
//! [`SecureChannelEnd::server_with_suite`]. [`SuiteId::Arc4Sha1`] is the
//! paper-parity baseline above; [`SuiteId::ChaCha20Poly1305`] replaces
//! the stream-position discipline with a per-direction message counter
//! used as the AEAD nonce — a replayed, dropped, or reordered frame is
//! authenticated under the wrong nonce and fails the tag, poisoning the
//! channel with exactly the same semantics.

use sfs_crypto::arc4::Arc4;
use sfs_crypto::arc4sha1::{self, OpenError};
use sfs_crypto::chachapoly::{self, NextHead};
use sfs_crypto::mac::MAC_LEN;
use sfs_crypto::sha1::sha1_concat;
use sfs_telemetry::Telemetry;

use crate::keyneg::SessionKeys;

/// Errors from the secure channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelError {
    /// MAC verification failed: the message was tampered with, replayed,
    /// or received out of order.
    MacFailure,
    /// The frame is structurally too short.
    Truncated,
    /// The channel was poisoned by an earlier failure and refuses further
    /// traffic.
    Poisoned,
    /// Claimed length exceeds the frame cap.
    TooLong,
}

impl std::fmt::Display for ChannelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChannelError::MacFailure => write!(f, "secure channel MAC failure"),
            ChannelError::Truncated => write!(f, "secure channel frame truncated"),
            ChannelError::Poisoned => write!(f, "secure channel poisoned"),
            ChannelError::TooLong => write!(f, "secure channel frame too long"),
        }
    }
}

impl std::error::Error for ChannelError {}

/// Cap on a single message (16 MiB), bounding hostile length fields.
pub(crate) const MAX_MESSAGE: usize = 1 << 24;

/// Bytes reserved at the start of a frame for the (encrypted) length
/// word. [`SecureChannelEnd::seal_into`] requires this many reserved
/// bytes between `frame_start` and the plaintext.
pub const FRAME_HEADER_LEN: usize = arc4sha1::HEADER_LEN;

/// A negotiable cipher suite for the secure channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SuiteId {
    /// The paper's §3.1.3 construction: per-direction ARC4 streams with a
    /// per-message SHA-1 MAC keyed from the stream. Always offered; keeps
    /// byte-level parity with the pre-negotiation wire format.
    Arc4Sha1,
    /// ChaCha20-Poly1305 (RFC 8439) per direction, nonce = message
    /// counter. The negotiated fast path.
    ChaCha20Poly1305,
}

impl SuiteId {
    /// Stable wire identifier (bound into the suite-confirmation MAC).
    pub const fn wire_id(self) -> u32 {
        match self {
            SuiteId::Arc4Sha1 => 1,
            SuiteId::ChaCha20Poly1305 => 2,
        }
    }

    /// Inverse of [`Self::wire_id`].
    pub fn from_wire(id: u32) -> Option<SuiteId> {
        match id {
            1 => Some(SuiteId::Arc4Sha1),
            2 => Some(SuiteId::ChaCha20Poly1305),
            _ => None,
        }
    }

    /// The label used in hello-extension offers.
    pub const fn label(self) -> &'static str {
        match self {
            SuiteId::Arc4Sha1 => "arc4-sha1",
            SuiteId::ChaCha20Poly1305 => "chacha20-poly1305",
        }
    }

    /// Inverse of [`Self::label`].
    pub fn parse(label: &str) -> Option<SuiteId> {
        match label {
            "arc4-sha1" => Some(SuiteId::Arc4Sha1),
            "chacha20-poly1305" => Some(SuiteId::ChaCha20Poly1305),
            _ => None,
        }
    }

    /// Relative per-byte CPU cost of this suite as a `(num, den)`
    /// fraction of the paper-baseline ARC4+SHA-1 channel, for the
    /// simulator's virtual cost model. The ratio is pinned, not measured:
    /// every virtual-time figure and artifact is computed with it, and a
    /// faster host kernel on either suite (the fused ARC4+SHA-1 pass, the
    /// wide ChaCha20 tiers) moves wall time only. DESIGN.md's
    /// "Suite-aware virtual cost" says where it comes from.
    pub const fn cost_ratio(self) -> (u64, u64) {
        match self {
            SuiteId::Arc4Sha1 => (1, 1),
            SuiteId::ChaCha20Poly1305 => (1, 4),
        }
    }

    /// Bytes this suite appends to every frame.
    pub(crate) const fn trailer_len(self) -> usize {
        match self {
            SuiteId::Arc4Sha1 => MAC_LEN,
            SuiteId::ChaCha20Poly1305 => chachapoly::TAG_LEN,
        }
    }
}

impl std::fmt::Display for SuiteId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Expands a 20-byte directional session key into the 32 bytes the
/// ChaCha20-Poly1305 suite needs.
fn expand_channel_key(dir_key: &[u8; 20]) -> [u8; chachapoly::KEY_LEN] {
    let a = sha1_concat(&[b"suite-key/1", dir_key]);
    let b = sha1_concat(&[b"suite-key/2", dir_key]);
    let mut key = [0u8; chachapoly::KEY_LEN];
    key[..20].copy_from_slice(&a);
    key[20..].copy_from_slice(&b[..12]);
    key
}

/// The per-direction nonce: 4 zero bytes then the message counter LE.
/// Counters are per direction and per session key, so (key, nonce) pairs
/// never repeat.
fn chacha_nonce(seq: u64) -> [u8; chachapoly::NONCE_LEN] {
    let mut nonce = [0u8; chachapoly::NONCE_LEN];
    nonce[4..].copy_from_slice(&seq.to_le_bytes());
    nonce
}

/// One direction's cipher state.
///
/// The ARC4 variant carries its full 1 KiB permutation inline: channel
/// ends are built once per session and the cipher state is touched on
/// every sealed frame, so the indirection a `Box` would add to the hot
/// path buys nothing for a one-time size saving.
#[allow(clippy::large_enum_variant)]
enum DirectionCipher {
    /// Long-lived ARC4 stream; MAC keys and frame bytes both advance it.
    Arc4Sha1(Arc4),
    /// AEAD key plus the message counter that forms the nonce, and the
    /// head of frame `seq` when the step that made frame `seq - 1`'s
    /// head made it too (AVX-512; see `chachapoly::NextHead`).
    ChaChaPoly {
        key: [u8; chachapoly::KEY_LEN],
        seq: u64,
        ahead: NextHead,
    },
}

impl DirectionCipher {
    fn new(suite: SuiteId, dir_key: &[u8; 20]) -> DirectionCipher {
        match suite {
            SuiteId::Arc4Sha1 => DirectionCipher::Arc4Sha1(Arc4::new(dir_key)),
            SuiteId::ChaCha20Poly1305 => DirectionCipher::ChaChaPoly {
                key: expand_channel_key(dir_key),
                seq: 0,
                ahead: NextHead::new(),
            },
        }
    }

    /// Drops keystream made ahead for a frame this direction will never
    /// carry.
    fn forget_ahead(&mut self) {
        if let DirectionCipher::ChaChaPoly { ahead, .. } = self {
            ahead.clear();
        }
    }
}

/// One endpoint of a secure channel.
///
/// Construct the client end with [`SecureChannelEnd::client`] and the
/// server end with [`SecureChannelEnd::server`]; the two ends then
/// [`seal`](Self::seal) outgoing and [`open`](Self::open) incoming
/// messages.
pub struct SecureChannelEnd {
    suite: SuiteId,
    send: DirectionCipher,
    recv: DirectionCipher,
    poisoned: bool,
    sent: u64,
    received: u64,
    tel: Telemetry,
    host: &'static str,
}

impl SecureChannelEnd {
    /// The client end under the paper-baseline suite: sends under k_CS,
    /// receives under k_SC.
    pub fn client(keys: &SessionKeys) -> Self {
        Self::client_with_suite(keys, SuiteId::Arc4Sha1)
    }

    /// The server end under the paper-baseline suite: sends under k_SC,
    /// receives under k_CS.
    pub fn server(keys: &SessionKeys) -> Self {
        Self::server_with_suite(keys, SuiteId::Arc4Sha1)
    }

    /// The client end under a negotiated suite.
    pub fn client_with_suite(keys: &SessionKeys, suite: SuiteId) -> Self {
        SecureChannelEnd {
            suite,
            send: DirectionCipher::new(suite, &keys.kcs),
            recv: DirectionCipher::new(suite, &keys.ksc),
            poisoned: false,
            sent: 0,
            received: 0,
            tel: Telemetry::disabled(),
            host: "client",
        }
    }

    /// The server end under a negotiated suite.
    pub fn server_with_suite(keys: &SessionKeys, suite: SuiteId) -> Self {
        SecureChannelEnd {
            suite,
            send: DirectionCipher::new(suite, &keys.ksc),
            recv: DirectionCipher::new(suite, &keys.kcs),
            poisoned: false,
            sent: 0,
            received: 0,
            tel: Telemetry::disabled(),
            host: "server",
        }
    }

    /// The suite this end runs.
    pub fn suite(&self) -> SuiteId {
        self.suite
    }

    /// Attaches a tracing sink. Byte/message counters (and the poison
    /// instant) are reported under this end's host dimension ("client"
    /// for [`Self::client`] ends, "server" for [`Self::server`] ends).
    pub fn set_telemetry(&mut self, tel: Telemetry) {
        self.tel = tel;
    }

    /// Messages sealed so far.
    pub fn messages_sent(&self) -> u64 {
        self.sent
    }

    /// Messages opened so far.
    pub fn messages_received(&self) -> u64 {
        self.received
    }

    /// Whether the channel has been poisoned by a MAC failure.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Seals a plaintext message into a wire frame.
    ///
    /// Frame layout (before encryption): `len(4) ‖ plaintext ‖ MAC(20)`.
    /// The whole frame is encrypted; the MAC key is 32 stream bytes pulled
    /// first.
    pub fn seal(&mut self, plaintext: &[u8]) -> Result<Vec<u8>, ChannelError> {
        let trailer = self.suite.trailer_len();
        let mut frame = Vec::with_capacity(FRAME_HEADER_LEN + plaintext.len() + trailer);
        frame.extend_from_slice(&[0u8; FRAME_HEADER_LEN]);
        frame.extend_from_slice(plaintext);
        self.seal_into(&mut frame, 0)?;
        Ok(frame)
    }

    /// Seals in place: `buf[frame_start..]` must hold
    /// [`FRAME_HEADER_LEN`] reserved bytes followed by the plaintext.
    /// On success that region (plus an appended MAC) has become the
    /// encrypted wire frame; bytes before `frame_start` are untouched,
    /// letting a caller build a cleartext envelope and the frame in one
    /// buffer. Produces exactly the bytes [`Self::seal`] would.
    pub fn seal_into(&mut self, buf: &mut Vec<u8>, frame_start: usize) -> Result<(), ChannelError> {
        if self.poisoned {
            return Err(ChannelError::Poisoned);
        }
        if buf.len() < frame_start + FRAME_HEADER_LEN {
            return Err(ChannelError::Truncated);
        }
        let plen = buf.len() - frame_start - FRAME_HEADER_LEN;
        if plen > MAX_MESSAGE {
            return Err(ChannelError::TooLong);
        }
        match &mut self.send {
            DirectionCipher::Arc4Sha1(stream) => {
                // MAC key pulled first, then len ‖ plaintext ‖ MAC
                // encrypted; one pass where the CPU allows.
                arc4sha1::seal_into(stream, buf, frame_start);
            }
            DirectionCipher::ChaChaPoly { key, seq, ahead } => {
                // Single AEAD pass over len ‖ plaintext; tag appended.
                buf[frame_start..frame_start + FRAME_HEADER_LEN]
                    .copy_from_slice(&(plen as u32).to_be_bytes());
                let (nonce, next) = (chacha_nonce(*seq), chacha_nonce(*seq + 1));
                let tag = chachapoly::seal_in_sequence(
                    key,
                    &nonce,
                    &next,
                    &[],
                    &mut buf[frame_start..],
                    ahead,
                );
                buf.extend_from_slice(&tag);
                *seq += 1;
            }
        }
        self.sent += 1;
        self.tel.count(self.host, "channel.msgs_sealed", 1);
        self.tel
            .count(self.host, "channel.bytes_sealed", plen as u64);
        Ok(())
    }

    /// Opens a wire frame into the plaintext message. Any failure poisons
    /// the channel (the paper's channels abort on tampering; recovery
    /// requires a fresh key negotiation).
    pub fn open(&mut self, frame: &[u8]) -> Result<Vec<u8>, ChannelError> {
        let mut buf = frame.to_vec();
        self.open_in_place(&mut buf).map(|p| p.to_vec())
    }

    /// Opens a frame by decrypting it in place, returning the plaintext
    /// as a subslice of `frame` — no allocation. On failure the channel
    /// poisons exactly as [`Self::open`] does (and `frame` is left
    /// partially decrypted, which no longer matters: a poisoned channel
    /// refuses all further traffic).
    pub fn open_in_place<'a>(&mut self, frame: &'a mut [u8]) -> Result<&'a [u8], ChannelError> {
        if self.poisoned {
            return Err(ChannelError::Poisoned);
        }
        let result = self.open_in_place_inner(frame);
        self.opened(result)
    }

    /// An opener for the frames this end receives next, for another
    /// thread to decrypt them while this one is busy: `Some` when the
    /// end runs ChaCha20-Poly1305 and is not poisoned. See
    /// [`FrameOpener`].
    pub fn opener(&self) -> Option<FrameOpener> {
        match &self.recv {
            DirectionCipher::ChaChaPoly { key, seq, .. } if !self.poisoned => Some(FrameOpener {
                key: *key,
                seq: *seq,
            }),
            _ => None,
        }
    }

    /// Takes in the next frame where [`FrameOpener::open`] already
    /// decrypted it: everything [`Self::open_in_place`] does to this end
    /// — the counter, the length checks, the tallies, the poisoning on a
    /// bad length — but the decryption. Returns the same plaintext.
    ///
    /// # Panics
    ///
    /// On an end that hands out no opener.
    pub fn accept_opened<'a>(&mut self, frame: &'a [u8]) -> Result<&'a [u8], ChannelError> {
        if self.poisoned {
            return Err(ChannelError::Poisoned);
        }
        let DirectionCipher::ChaChaPoly { seq, ahead, .. } = &mut self.recv else {
            panic!("only a ChaCha20-Poly1305 end hands out an opener");
        };
        // As the open would have: the waiting head taken, the counter
        // past this frame.
        ahead.clear();
        *seq += 1;
        let body = &frame[..frame.len() - chachapoly::TAG_LEN];
        let result = chacha_plaintext(body);
        self.opened(result)
    }

    /// Counts an open, or poisons the channel on a failed one.
    fn opened<'a>(
        &mut self,
        result: Result<&'a [u8], ChannelError>,
    ) -> Result<&'a [u8], ChannelError> {
        match &result {
            Ok(plaintext) => {
                self.received += 1;
                self.tel.count(self.host, "channel.msgs_opened", 1);
                self.tel
                    .count(self.host, "channel.bytes_opened", plaintext.len() as u64);
            }
            Err(_) => {
                self.poisoned = true;
                self.send.forget_ahead();
                self.recv.forget_ahead();
                self.tel.instant(self.host, "proto.channel", "poisoned");
            }
        }
        result
    }

    fn open_in_place_inner<'a>(&mut self, frame: &'a mut [u8]) -> Result<&'a [u8], ChannelError> {
        let plaintext = match &mut self.recv {
            DirectionCipher::Arc4Sha1(stream) => {
                let len =
                    arc4sha1::open_in_place(stream, frame, MAX_MESSAGE).map_err(|e| match e {
                        OpenError::TooLong => ChannelError::TooLong,
                        OpenError::Truncated => ChannelError::Truncated,
                        OpenError::MacFailure => ChannelError::MacFailure,
                    })?;
                &frame[FRAME_HEADER_LEN..FRAME_HEADER_LEN + len]
            }
            DirectionCipher::ChaChaPoly { key, seq, ahead } => {
                if frame.len() < FRAME_HEADER_LEN + chachapoly::TAG_LEN {
                    return Err(ChannelError::Truncated);
                }
                let split = frame.len() - chachapoly::TAG_LEN;
                let (body, tag) = frame.split_at_mut(split);
                let (nonce, next) = (chacha_nonce(*seq), chacha_nonce(*seq + 1));
                // Tag verification happens before any decryption; a
                // replayed or reordered frame authenticates under the
                // wrong nonce and fails here.
                chachapoly::open_in_sequence(key, &nonce, &next, &[], body, tag, ahead)
                    .map_err(|_| ChannelError::MacFailure)?;
                *seq += 1;
                chacha_plaintext(body)?
            }
        };
        Ok(plaintext)
    }
}

/// The message in an opened ChaCha20-Poly1305 frame body (`len ‖
/// message`), once its length word checks out.
fn chacha_plaintext(body: &[u8]) -> Result<&[u8], ChannelError> {
    let len = u32::from_be_bytes(body[..FRAME_HEADER_LEN].try_into().unwrap()) as usize;
    if len > MAX_MESSAGE {
        return Err(ChannelError::TooLong);
    }
    if body.len() != FRAME_HEADER_LEN + len {
        return Err(ChannelError::Truncated);
    }
    Ok(&body[FRAME_HEADER_LEN..])
}

/// The receive key and position of a ChaCha20-Poly1305 channel end, as
/// they stood when [`SecureChannelEnd::opener`] was called: enough to
/// verify and decrypt the frames that follow on another thread, leaving
/// the end itself alone. The end then takes each one in, in order, with
/// [`SecureChannelEnd::accept_opened`], or — if it was never opened —
/// opens it itself as usual. Nothing an opener does is seen by the
/// peer or by the end until then: a frame that fails its tag is left as
/// it was (the AEAD verifies before it decrypts), and one the end never
/// takes in is simply dropped.
#[derive(Clone, Copy)]
pub struct FrameOpener {
    key: [u8; chachapoly::KEY_LEN],
    seq: u64,
}

impl FrameOpener {
    /// Verifies and decrypts in place the wire frame `k` frames after
    /// the one the end receives next. Returns whether it did.
    pub fn open(&self, k: u64, frame: &mut [u8]) -> bool {
        if frame.len() < FRAME_HEADER_LEN + chachapoly::TAG_LEN {
            return false;
        }
        let (body, tag) = frame.split_at_mut(frame.len() - chachapoly::TAG_LEN);
        chachapoly::open_in_place(&self.key, &chacha_nonce(self.seq + k), &[], body, tag).is_ok()
    }
}

impl std::fmt::Debug for FrameOpener {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrameOpener")
            .field("seq", &self.seq)
            .finish()
    }
}

impl std::fmt::Debug for SecureChannelEnd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SecureChannelEnd")
            .field("suite", &self.suite)
            .field("sent", &self.sent)
            .field("received", &self.received)
            .field("poisoned", &self.poisoned)
            .finish()
    }
}

/// Result of [`FrameSequencer::push`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeqPush {
    /// The frame was buffered (or is already openable if it completes the
    /// head of the sequence — drain with [`FrameSequencer::take`]).
    Buffered,
    /// A frame for this stream position is already buffered, or the
    /// position was already consumed; the duplicate was discarded.
    Duplicate,
    /// The frame is too far ahead of the next expected position for the
    /// sequencer's capacity; the caller should treat the channel as
    /// failed (a well-behaved peer never runs this far ahead).
    Overflow,
}

/// Reorders sealed frames back into cipher-stream order.
///
/// The secure channel's ARC4 streams are position-sensitive: frames MUST
/// be decrypted in exactly the order they were sealed. The pipelined RPC
/// path carries each frame's stream position (`chanseq`) in cleartext,
/// and a `FrameSequencer` on the receiving side buffers whatever arrives
/// out of order until the gap fills. Duplicates (retransmissions of
/// frames already received) are detected here, *before* they can touch
/// the cipher and poison it.
#[derive(Debug, Default)]
pub struct FrameSequencer {
    /// Buffered frames keyed by stream position. BTreeMap so draining is
    /// deterministic and in order.
    slots: std::collections::BTreeMap<u64, (u32, Vec<u8>)>,
    capacity: usize,
}

impl FrameSequencer {
    /// A sequencer buffering at most `capacity` out-of-order frames.
    pub fn new(capacity: usize) -> Self {
        FrameSequencer {
            slots: std::collections::BTreeMap::new(),
            capacity,
        }
    }

    /// The answer [`Self::push`] would give a frame at `chanseq`, with
    /// nothing stored. A caller whose frame already sits in a buffer it
    /// can open in place asks this first: when the frame is next in line
    /// (`chanseq == expected`, the only case on a fault-free link) it
    /// never has to be handed over at all.
    pub fn admit(&self, chanseq: u64, expected: u64) -> SeqPush {
        if chanseq < expected || self.slots.contains_key(&chanseq) {
            SeqPush::Duplicate
        } else if chanseq >= expected + self.capacity as u64 {
            SeqPush::Overflow
        } else {
            SeqPush::Buffered
        }
    }

    /// Offers a frame at stream position `chanseq` with request tag
    /// `xid`, where `expected` is the next position the channel will
    /// decrypt (its messages-received count). First frame wins on a
    /// position collision — retransmitted frames are byte-identical, so
    /// which copy survives never matters.
    pub fn push(&mut self, chanseq: u64, xid: u32, frame: Vec<u8>, expected: u64) -> SeqPush {
        let verdict = self.admit(chanseq, expected);
        if verdict == SeqPush::Buffered {
            self.slots.insert(chanseq, (xid, frame));
        }
        verdict
    }

    /// Removes and returns the frame at position `chanseq`, if buffered.
    /// Callers take positions in channel order (`expected`, `expected+1`,
    /// …) and stop at the first gap.
    pub fn take(&mut self, chanseq: u64) -> Option<(u32, Vec<u8>)> {
        self.slots.remove(&chanseq)
    }

    /// Number of frames currently buffered.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether no frames are buffered.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys() -> SessionKeys {
        SessionKeys {
            kcs: *b"client-to-server-key",
            ksc: *b"server-to-client-key",
            session_id: [9u8; 20],
        }
    }

    fn pair() -> (SecureChannelEnd, SecureChannelEnd) {
        let k = keys();
        (SecureChannelEnd::client(&k), SecureChannelEnd::server(&k))
    }

    #[test]
    fn roundtrip_both_directions() {
        let (mut c, mut s) = pair();
        let f = c.seal(b"NFS3 LOOKUP foo").unwrap();
        assert_eq!(s.open(&f).unwrap(), b"NFS3 LOOKUP foo");
        let f = s.seal(b"NFS3 LOOKUP reply").unwrap();
        assert_eq!(c.open(&f).unwrap(), b"NFS3 LOOKUP reply");
    }

    #[test]
    fn ciphertext_hides_plaintext() {
        let (mut c, _) = pair();
        let f = c.seal(b"super secret data").unwrap();
        // The plaintext must not appear in the frame.
        assert!(!f
            .windows(b"super secret".len())
            .any(|w| w == b"super secret"));
    }

    #[test]
    fn sequence_of_messages() {
        let (mut c, mut s) = pair();
        for i in 0..50u32 {
            let msg = format!("message number {i}");
            let f = c.seal(msg.as_bytes()).unwrap();
            assert_eq!(s.open(&f).unwrap(), msg.as_bytes());
        }
        assert_eq!(c.messages_sent(), 50);
        assert_eq!(s.messages_received(), 50);
    }

    #[test]
    fn tampering_detected_and_poisons() {
        let (mut c, mut s) = pair();
        let mut f = c.seal(b"chmod 0644").unwrap();
        f[6] ^= 0x01;
        assert_eq!(s.open(&f).unwrap_err(), ChannelError::MacFailure);
        assert!(s.is_poisoned());
        // Further messages are refused.
        let f2 = c.seal(b"next").unwrap();
        assert_eq!(s.open(&f2).unwrap_err(), ChannelError::Poisoned);
    }

    #[test]
    fn replay_detected() {
        let (mut c, mut s) = pair();
        let f1 = c.seal(b"pay alice $1").unwrap();
        assert!(s.open(&f1).is_ok());
        // Replaying the same ciphertext hits a different stream position:
        // the frame garbles (bad length or MAC) and the channel poisons.
        assert!(s.open(&f1).is_err());
        assert!(s.is_poisoned());
    }

    #[test]
    fn reorder_detected() {
        let (mut c, mut s) = pair();
        let f1 = c.seal(b"first").unwrap();
        let f2 = c.seal(b"second").unwrap();
        assert!(s.open(&f2).is_err());
        assert!(s.is_poisoned());
        let _ = f1;
    }

    #[test]
    fn drop_detected_on_next_message() {
        let (mut c, mut s) = pair();
        let _lost = c.seal(b"lost in transit").unwrap();
        let f2 = c.seal(b"arrives").unwrap();
        assert!(s.open(&f2).is_err());
        assert!(s.is_poisoned());
    }

    #[test]
    fn wrong_direction_rejected() {
        // A frame sealed by the client cannot be opened by another client
        // end (same keys, wrong direction).
        let k = keys();
        let mut c1 = SecureChannelEnd::client(&k);
        let mut c2 = SecureChannelEnd::client(&k);
        let f = c1.seal(b"hello").unwrap();
        // c2 receives under ksc, but the frame was sealed under kcs.
        assert!(c2.open(&f).is_err());
    }

    #[test]
    fn truncated_frame_rejected() {
        let (mut c, mut s) = pair();
        let f = c.seal(b"hello").unwrap();
        assert_eq!(s.open(&f[..10]).unwrap_err(), ChannelError::Truncated);
    }

    #[test]
    fn empty_message_ok() {
        let (mut c, mut s) = pair();
        let f = c.seal(b"").unwrap();
        assert_eq!(s.open(&f).unwrap(), b"");
    }

    /// The sizes the golden-frame equivalence tests sweep: empty, the
    /// unaligned minima, and a 4 KiB page.
    const GOLDEN_SIZES: [usize; 4] = [0, 1, 3, 4096];

    #[test]
    fn seal_into_is_byte_identical_to_seal() {
        // Two channel ends with identical keys must emit identical
        // frames whether they seal by allocation or in place — the
        // cipher-stream positions advance in lockstep.
        let k = keys();
        let mut old = SecureChannelEnd::client(&k);
        let mut new = SecureChannelEnd::client(&k);
        for (i, &n) in GOLDEN_SIZES.iter().enumerate() {
            let plaintext = vec![i as u8 + 1; n];
            let golden = old.seal(&plaintext).unwrap();
            let mut frame = vec![0u8; FRAME_HEADER_LEN];
            frame.extend_from_slice(&plaintext);
            new.seal_into(&mut frame, 0).unwrap();
            assert_eq!(frame, golden, "size {n}");
        }
    }

    #[test]
    fn seal_into_mid_buffer_leaves_prefix_clear() {
        // Sealing at an offset must produce the same frame bytes after
        // the untouched cleartext prefix — the envelope fast path.
        let k = keys();
        let mut old = SecureChannelEnd::client(&k);
        let mut new = SecureChannelEnd::client(&k);
        for &n in &GOLDEN_SIZES {
            let plaintext = vec![0x5A; n];
            let golden = old.seal(&plaintext).unwrap();
            let mut buf = b"ENVELOPE".to_vec();
            buf.extend_from_slice(&[0u8; FRAME_HEADER_LEN]);
            buf.extend_from_slice(&plaintext);
            new.seal_into(&mut buf, 8).unwrap();
            assert_eq!(&buf[..8], b"ENVELOPE");
            assert_eq!(&buf[8..], &golden[..], "size {n}");
        }
    }

    #[test]
    fn open_in_place_matches_open() {
        let k = keys();
        let mut c = SecureChannelEnd::client(&k);
        let mut s_old = SecureChannelEnd::server(&k);
        let mut s_new = SecureChannelEnd::server(&k);
        for (i, &n) in GOLDEN_SIZES.iter().enumerate() {
            let plaintext = vec![i as u8 + 7; n];
            let frame = c.seal(&plaintext).unwrap();
            let via_open = s_old.open(&frame).unwrap();
            let mut buf = frame.clone();
            let via_in_place = s_new.open_in_place(&mut buf).unwrap();
            assert_eq!(via_in_place, &via_open[..], "size {n}");
            assert_eq!(via_in_place, &plaintext[..], "size {n}");
        }
        assert_eq!(s_new.messages_received(), GOLDEN_SIZES.len() as u64);
    }

    #[test]
    fn open_in_place_mac_reject_poisons_like_open() {
        // Every reject path must produce the same error and the same
        // poisoned end-state as the allocating path.
        for &n in &GOLDEN_SIZES {
            let k = keys();
            let mut c = SecureChannelEnd::client(&k);
            let mut s_old = SecureChannelEnd::server(&k);
            let mut s_new = SecureChannelEnd::server(&k);
            let mut frame = c.seal(&vec![9u8; n]).unwrap();
            frame[FRAME_HEADER_LEN] ^= 0x40; // corrupt length or body
            let e_old = s_old.open(&frame).unwrap_err();
            let mut buf = frame.clone();
            let e_new = s_new.open_in_place(&mut buf).unwrap_err();
            assert_eq!(e_new, e_old, "size {n}");
            assert!(s_new.is_poisoned());
            // Poisoned ends refuse everything, in-place or not.
            let mut next = c.seal(b"next").unwrap();
            assert_eq!(
                s_new.open_in_place(&mut next).unwrap_err(),
                ChannelError::Poisoned
            );
        }
    }

    #[test]
    fn open_in_place_truncated_frame_rejected() {
        let k = keys();
        let mut c = SecureChannelEnd::client(&k);
        let mut s = SecureChannelEnd::server(&k);
        let frame = c.seal(b"hello").unwrap();
        let mut short = frame[..10].to_vec();
        assert_eq!(
            s.open_in_place(&mut short).unwrap_err(),
            ChannelError::Truncated
        );
        assert!(s.is_poisoned());
    }

    #[test]
    fn arc4_malformed_frames_fail_length_then_size_then_mac() {
        // Each malformed frame gets the variant the channel has always
        // given, on an 8 KiB frame (the fused tier, where the CPU has
        // SHA-NI) and an 8-byte one (the two-pass tier): a length word
        // over the cap is TooLong even when the frame's size is wrong
        // too; a size that disagrees with the length word is Truncated
        // whatever the MAC; only a well-sized frame reaches the MAC.
        type Mutate = fn(&mut Vec<u8>);
        let cases: [(Mutate, ChannelError); 8] = [
            (
                |f| f.truncate(FRAME_HEADER_LEN + MAC_LEN - 1),
                ChannelError::Truncated,
            ),
            // Plaintext length + 2^25, past MAX_MESSAGE.
            (|f| f[0] ^= 0x02, ChannelError::TooLong),
            (
                |f| {
                    f[0] ^= 0x02;
                    f.pop();
                },
                ChannelError::TooLong,
            ),
            (|f| f[3] ^= 0x01, ChannelError::Truncated),
            (|f| f.push(0), ChannelError::Truncated),
            (
                |f| {
                    let last = f.len() - 1;
                    f[last] ^= 0x01;
                    f.pop();
                },
                ChannelError::Truncated,
            ),
            (|f| f[FRAME_HEADER_LEN] ^= 0x01, ChannelError::MacFailure),
            (
                |f| {
                    let last = f.len() - 1;
                    f[last] ^= 0x80;
                },
                ChannelError::MacFailure,
            ),
        ];
        for n in [8usize, 8192] {
            for (i, (mutate, want)) in cases.iter().enumerate() {
                let (mut c, mut s) = pair();
                let mut frame = c.seal(&vec![7u8; n]).unwrap();
                mutate(&mut frame);
                assert_eq!(s.open(&frame).unwrap_err(), *want, "len {n} case {i}");
                assert!(s.is_poisoned());
            }
        }
    }

    #[test]
    fn seal_into_without_reserved_header_is_an_error() {
        let k = keys();
        let mut c = SecureChannelEnd::client(&k);
        let mut buf = vec![1u8; FRAME_HEADER_LEN - 1];
        assert_eq!(
            c.seal_into(&mut buf, 0).unwrap_err(),
            ChannelError::Truncated
        );
        assert_eq!(c.messages_sent(), 0, "failed seal must not advance");
    }

    #[test]
    fn mixed_seal_styles_interleave_on_one_channel() {
        // A single connection may seal via both entry points; stream
        // positions must stay consistent.
        let (mut c, mut s) = pair();
        let f1 = c.seal(b"first").unwrap();
        let mut f2 = vec![0u8; FRAME_HEADER_LEN];
        f2.extend_from_slice(b"second");
        c.seal_into(&mut f2, 0).unwrap();
        assert_eq!(s.open(&f1).unwrap(), b"first");
        assert_eq!(s.open_in_place(&mut f2).unwrap(), b"second");
    }

    #[test]
    fn sequencer_reorders_and_rejects_duplicates() {
        let mut seq = FrameSequencer::new(8);
        assert!(seq.is_empty());
        // Frames 1 and 2 arrive before frame 0.
        assert_eq!(seq.push(1, 11, vec![1], 0), SeqPush::Buffered);
        assert_eq!(seq.push(2, 12, vec![2], 0), SeqPush::Buffered);
        assert_eq!(seq.len(), 2);
        // No head yet: position 0 is missing.
        assert_eq!(seq.take(0), None);
        assert_eq!(seq.push(0, 10, vec![0], 0), SeqPush::Buffered);
        // Drain strictly in order.
        assert_eq!(seq.take(0), Some((10, vec![0])));
        assert_eq!(seq.take(1), Some((11, vec![1])));
        assert_eq!(seq.take(2), Some((12, vec![2])));
        assert!(seq.is_empty());
        // A retransmit of an already-consumed position is a duplicate.
        assert_eq!(seq.push(1, 11, vec![1], 3), SeqPush::Duplicate);
        // A collision with a buffered frame keeps the first copy.
        assert_eq!(seq.push(5, 15, vec![5], 3), SeqPush::Buffered);
        assert_eq!(seq.push(5, 99, vec![99], 3), SeqPush::Duplicate);
        // `admit` gives push's answer and stores nothing.
        assert_eq!(seq.admit(5, 3), SeqPush::Duplicate);
        assert_eq!(seq.admit(2, 3), SeqPush::Duplicate);
        assert_eq!(seq.admit(3, 3), SeqPush::Buffered);
        assert_eq!(seq.admit(11, 3), SeqPush::Overflow);
        assert_eq!(seq.len(), 1);
        assert_eq!(seq.take(3), None);
        assert_eq!(seq.take(5), Some((15, vec![5])));
    }

    #[test]
    fn sequencer_overflow_past_capacity() {
        let mut seq = FrameSequencer::new(4);
        assert_eq!(seq.push(3, 0, vec![], 0), SeqPush::Buffered);
        assert_eq!(seq.push(4, 0, vec![], 0), SeqPush::Overflow);
        assert_eq!(seq.push(100, 0, vec![], 0), SeqPush::Overflow);
        // Window slides with `expected`.
        assert_eq!(seq.push(4, 0, vec![], 1), SeqPush::Buffered);
    }

    fn chacha_pair() -> (SecureChannelEnd, SecureChannelEnd) {
        let k = keys();
        (
            SecureChannelEnd::client_with_suite(&k, SuiteId::ChaCha20Poly1305),
            SecureChannelEnd::server_with_suite(&k, SuiteId::ChaCha20Poly1305),
        )
    }

    #[test]
    fn suite_id_wire_and_label_roundtrip() {
        for suite in [SuiteId::Arc4Sha1, SuiteId::ChaCha20Poly1305] {
            assert_eq!(SuiteId::from_wire(suite.wire_id()), Some(suite));
            assert_eq!(SuiteId::parse(suite.label()), Some(suite));
        }
        assert_eq!(SuiteId::from_wire(0), None);
        assert_eq!(SuiteId::from_wire(3), None);
        assert_eq!(SuiteId::parse("rot13"), None);
    }

    #[test]
    fn default_constructors_run_the_baseline_suite() {
        let (c, s) = pair();
        assert_eq!(c.suite(), SuiteId::Arc4Sha1);
        assert_eq!(s.suite(), SuiteId::Arc4Sha1);
    }

    #[test]
    fn chacha_roundtrip_both_directions() {
        let (mut c, mut s) = chacha_pair();
        for i in 0..50u32 {
            let msg = format!("negotiated message {i}");
            let f = c.seal(msg.as_bytes()).unwrap();
            assert_eq!(
                f.len(),
                FRAME_HEADER_LEN + msg.len() + SuiteId::ChaCha20Poly1305.trailer_len()
            );
            assert_eq!(s.open(&f).unwrap(), msg.as_bytes());
            let r = s.seal(b"reply").unwrap();
            assert_eq!(c.open(&r).unwrap(), b"reply");
        }
        assert_eq!(c.messages_sent(), 50);
        assert_eq!(s.messages_received(), 50);
    }

    #[test]
    fn chacha_seal_into_is_byte_identical_to_seal() {
        let k = keys();
        let mut old = SecureChannelEnd::client_with_suite(&k, SuiteId::ChaCha20Poly1305);
        let mut new = SecureChannelEnd::client_with_suite(&k, SuiteId::ChaCha20Poly1305);
        for (i, &n) in GOLDEN_SIZES.iter().enumerate() {
            let plaintext = vec![i as u8 + 1; n];
            let golden = old.seal(&plaintext).unwrap();
            let mut buf = b"ENVELOPE".to_vec();
            buf.extend_from_slice(&[0u8; FRAME_HEADER_LEN]);
            buf.extend_from_slice(&plaintext);
            new.seal_into(&mut buf, 8).unwrap();
            assert_eq!(&buf[..8], b"ENVELOPE");
            assert_eq!(&buf[8..], &golden[..], "size {n}");
        }
    }

    #[test]
    fn chacha_open_in_place_matches_open() {
        let k = keys();
        let mut c = SecureChannelEnd::client_with_suite(&k, SuiteId::ChaCha20Poly1305);
        let mut s_old = SecureChannelEnd::server_with_suite(&k, SuiteId::ChaCha20Poly1305);
        let mut s_new = SecureChannelEnd::server_with_suite(&k, SuiteId::ChaCha20Poly1305);
        for (i, &n) in GOLDEN_SIZES.iter().enumerate() {
            let plaintext = vec![i as u8 + 7; n];
            let frame = c.seal(&plaintext).unwrap();
            let via_open = s_old.open(&frame).unwrap();
            let mut buf = frame.clone();
            let via_in_place = s_new.open_in_place(&mut buf).unwrap();
            assert_eq!(via_in_place, &via_open[..], "size {n}");
            assert_eq!(via_in_place, &plaintext[..], "size {n}");
        }
    }

    #[test]
    fn chacha_tampering_detected_and_poisons() {
        let (mut c, mut s) = chacha_pair();
        let mut f = c.seal(b"chmod 0644").unwrap();
        f[6] ^= 0x01;
        assert_eq!(s.open(&f).unwrap_err(), ChannelError::MacFailure);
        assert!(s.is_poisoned());
        let f2 = c.seal(b"next").unwrap();
        assert_eq!(s.open(&f2).unwrap_err(), ChannelError::Poisoned);
    }

    #[test]
    fn chacha_replay_reorder_and_drop_detected() {
        // Replay: same frame, advanced nonce.
        let (mut c, mut s) = chacha_pair();
        let f1 = c.seal(b"pay alice $1").unwrap();
        assert!(s.open(&f1).is_ok());
        assert_eq!(s.open(&f1).unwrap_err(), ChannelError::MacFailure);
        assert!(s.is_poisoned());
        // Reorder: second frame under first nonce.
        let (mut c, mut s) = chacha_pair();
        let _f1 = c.seal(b"first").unwrap();
        let f2 = c.seal(b"second").unwrap();
        assert_eq!(s.open(&f2).unwrap_err(), ChannelError::MacFailure);
        assert!(s.is_poisoned());
        // Drop: the gap surfaces on the next delivered frame.
        let (mut c, mut s) = chacha_pair();
        let _lost = c.seal(b"lost in transit").unwrap();
        let f2 = c.seal(b"arrives").unwrap();
        assert!(s.open(&f2).is_err());
        assert!(s.is_poisoned());
    }

    #[test]
    fn chacha_ciphertext_hides_plaintext() {
        let (mut c, _) = chacha_pair();
        let f = c.seal(b"super secret data").unwrap();
        assert!(!f
            .windows(b"super secret".len())
            .any(|w| w == b"super secret"));
    }

    #[test]
    fn chacha_wrong_direction_and_cross_suite_rejected() {
        let k = keys();
        // Same suite, wrong direction.
        let mut c1 = SecureChannelEnd::client_with_suite(&k, SuiteId::ChaCha20Poly1305);
        let mut c2 = SecureChannelEnd::client_with_suite(&k, SuiteId::ChaCha20Poly1305);
        let f = c1.seal(b"hello").unwrap();
        assert!(c2.open(&f).is_err());
        // Same keys, mismatched suites — ends that disagree on the
        // negotiated suite must not interoperate.
        let mut c = SecureChannelEnd::client_with_suite(&k, SuiteId::ChaCha20Poly1305);
        let mut s = SecureChannelEnd::server(&k);
        let f = c.seal(b"hello").unwrap();
        assert!(s.open(&f).is_err());
    }

    #[test]
    fn chacha_truncated_and_empty_frames() {
        let (mut c, mut s) = chacha_pair();
        let f = c.seal(b"").unwrap();
        assert_eq!(
            f.len(),
            FRAME_HEADER_LEN + SuiteId::ChaCha20Poly1305.trailer_len()
        );
        assert_eq!(s.open(&f).unwrap(), b"");
        let f2 = c.seal(b"hello").unwrap();
        assert_eq!(s.open(&f2[..10]).unwrap_err(), ChannelError::Truncated);
        assert!(s.is_poisoned());
    }

    #[test]
    fn frames_opened_ahead_are_taken_in_as_the_end_would_open_them() {
        // Three frames opened on the side and taken in, the fourth
        // tampered with (left as it was, then refused by the end as it
        // always is), against a twin end opening each in place.
        let (mut c, _) = chacha_pair();
        let (_, mut inline) = chacha_pair();
        let (_, mut ahead) = chacha_pair();
        let frames: Vec<Vec<u8>> = (0..4usize)
            .map(|i| c.seal(&vec![i as u8; 100 + i * 3000]).unwrap())
            .collect();
        let opener = ahead.opener().expect("a ChaCha20-Poly1305 end");
        for (i, frame) in frames.iter().enumerate() {
            let mut mine = frame.clone();
            let mut theirs = frame.clone();
            if i == 3 {
                mine[9] ^= 1;
                theirs[9] ^= 1;
                let before = mine.clone();
                assert!(!opener.open(i as u64, &mut mine));
                assert_eq!(mine, before, "a refused frame is left as it was");
                assert_eq!(
                    ahead.open_in_place(&mut mine),
                    Err(ChannelError::MacFailure)
                );
                assert_eq!(
                    inline.open_in_place(&mut theirs),
                    Err(ChannelError::MacFailure)
                );
                assert!(ahead.is_poisoned() && ahead.opener().is_none());
                break;
            }
            assert!(opener.open(i as u64, &mut mine));
            assert_eq!(
                ahead.accept_opened(&mine).map(<[u8]>::to_vec),
                inline.open_in_place(&mut theirs).map(<[u8]>::to_vec)
            );
            assert_eq!(ahead.messages_received(), inline.messages_received());
        }
        // A frame whose tag holds but whose length word lies is taken in
        // and refused, poisoning the end as an open would.
        let mut k2 = chacha_pair();
        let mut frame = k2.0.seal(b"hello").unwrap();
        let opener = k2.1.opener().unwrap();
        let body_len = frame.len() - chachapoly::TAG_LEN;
        let (body, tag) = frame.split_at_mut(body_len);
        let key = expand_channel_key(&keys().kcs);
        chachapoly::open_in_place(&key, &chacha_nonce(0), &[], body, tag).unwrap();
        body[..FRAME_HEADER_LEN].copy_from_slice(&9u32.to_be_bytes());
        let new_tag = chachapoly::seal_in_place(&key, &chacha_nonce(0), &[], body);
        tag.copy_from_slice(&new_tag);
        assert!(opener.open(0, &mut frame));
        assert_eq!(k2.1.accept_opened(&frame), Err(ChannelError::Truncated));
        assert!(k2.1.is_poisoned());
        // An ARC4+SHA-1 end hands out none.
        assert!(SecureChannelEnd::server(&keys()).opener().is_none());
    }

    /// The nonce whose head waits in `dir`, if any.
    fn waiting(dir: &DirectionCipher) -> Option<[u8; chachapoly::NONCE_LEN]> {
        match dir {
            DirectionCipher::ChaChaPoly { ahead, .. } => ahead.nonce().copied(),
            DirectionCipher::Arc4Sha1(_) => None,
        }
    }

    #[test]
    fn paired_heads_seal_what_the_aead_seals_frame_for_frame() {
        // 2 000 frames each way of seeded sizes up to 20 KiB, most of
        // them around the head's 192 bytes, in windows of eight (all
        // requests sealed, then opened, then all replies) and singly
        // (a lone call). Every frame must be the one-shot AEAD's
        // at the same key and nonce and open to its plaintext.
        use sfs_bignum::{RandomSource, XorShiftSource};
        let mut rng = XorShiftSource::new(0xC4A_2ED);
        let mut draw = move |bound: usize| {
            let mut b = [0u8; 4];
            rng.fill(&mut b);
            u32::from_le_bytes(b) as usize % bound
        };
        let k = keys();
        let (mut c, mut s) = chacha_pair();
        let keys = [expand_channel_key(&k.kcs), expand_channel_key(&k.ksc)];
        let mut seqs = [0u64; 2];
        let (mut frames, mut burst_no) = (0, 0);
        while frames < 2_000 {
            let burst = if burst_no % 2 == 0 { 8 } else { 1 };
            burst_no += 1;
            for dir in 0..2 {
                let (tx, rx) = if dir == 0 {
                    (&mut c, &mut s)
                } else {
                    (&mut s, &mut c)
                };
                let mut sealed = Vec::new();
                for _ in 0..burst {
                    let len = if draw(4) == 0 {
                        draw(20 * 1024 + 1)
                    } else {
                        draw(600)
                    };
                    let plaintext: Vec<u8> = (0..len).map(|_| draw(256) as u8).collect();
                    let frame = tx.seal(&plaintext).unwrap();
                    let mut reference = (plaintext.len() as u32).to_be_bytes().to_vec();
                    reference.extend_from_slice(&plaintext);
                    let nonce = chacha_nonce(seqs[dir]);
                    let tag = chachapoly::seal_in_place(&keys[dir], &nonce, &[], &mut reference);
                    reference.extend_from_slice(&tag);
                    assert_eq!(frame, reference, "direction {dir} frame {}", seqs[dir]);
                    seqs[dir] += 1;
                    sealed.push((frame, plaintext));
                }
                for (mut frame, plaintext) in sealed {
                    assert_eq!(rx.open_in_place(&mut frame).unwrap(), &plaintext[..]);
                }
            }
            frames += burst;
        }
        assert_eq!((c.messages_sent(), s.messages_sent()), (seqs[0], seqs[1]));
        assert_eq!(
            (s.messages_received(), c.messages_received()),
            (seqs[0], seqs[1])
        );
    }

    #[test]
    fn a_tampered_frame_poisons_and_its_waiting_head_goes_with_it() {
        let (mut c, mut s) = chacha_pair();
        let f0 = c.seal(b"getattr").unwrap();
        let mut f1 = c.seal(b"lookup").unwrap();
        let f2 = c.seal(b"access").unwrap();
        s.open(&f0).unwrap();
        // Where the tier pairs, frame 1's head waits in the receive
        // direction; a forgery under nonce 1 uses it up and poisons.
        let paired = waiting(&s.recv);
        assert!(paired.is_none() || paired == Some(chacha_nonce(1)));
        f1[FRAME_HEADER_LEN + 1] ^= 0x08;
        assert_eq!(s.open(&f1).unwrap_err(), ChannelError::MacFailure);
        assert!(s.is_poisoned());
        assert_eq!((waiting(&s.recv), waiting(&s.send)), (None, None));
        // Nothing is opened under any sequence number after that.
        assert_eq!(s.open(&f2).unwrap_err(), ChannelError::Poisoned);
        assert_eq!(s.seal(b"reply").unwrap_err(), ChannelError::Poisoned);
        assert_eq!(s.messages_received(), 1);

        // A forgery under a nonce whose head was made fresh leaves the
        // freshly made successor behind; poisoning drops it too.
        let (mut c, mut s) = chacha_pair();
        let mut f0 = c.seal(b"getattr").unwrap();
        f0[FRAME_HEADER_LEN] ^= 0x01;
        assert_eq!(s.open(&f0).unwrap_err(), ChannelError::MacFailure);
        assert_eq!(waiting(&s.recv), None);
        // The sender's own stash is untouched by the receiver's failure.
        assert!(waiting(&c.send).is_none() || waiting(&c.send) == Some(chacha_nonce(1)));
    }

    #[test]
    fn distinct_sessions_cannot_cross_decrypt() {
        let k1 = keys();
        let k2 = SessionKeys {
            kcs: *b"different-kcs-key-!!",
            ksc: *b"different-ksc-key-!!",
            session_id: [1u8; 20],
        };
        let mut c = SecureChannelEnd::client(&k1);
        let mut s = SecureChannelEnd::server(&k2);
        let f = c.seal(b"cross").unwrap();
        assert!(s.open(&f).is_err());
    }
}
