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
use sfs_crypto::chachapoly;
use sfs_crypto::mac::{SfsMac, MAC_KEY_LEN, MAC_LEN};
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
pub const MAX_MESSAGE: usize = 1 << 24;

/// Bytes reserved at the start of a frame for the (encrypted) length
/// word. [`SecureChannelEnd::seal_into`] requires this many reserved
/// bytes between `frame_start` and the plaintext.
pub const FRAME_HEADER_LEN: usize = 4;

/// Bytes appended to every frame (the encrypted MAC) under the baseline
/// suite. Suite-aware callers should use [`SuiteId::trailer_len`].
pub const FRAME_TRAILER_LEN: usize = MAC_LEN;

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
    /// simulator's virtual cost model. The ChaCha20-Poly1305 ratio
    /// matches the measured `BENCH_hotpath.json` 8 KiB seal+open gap
    /// (≈4×).
    pub const fn cost_ratio(self) -> (u64, u64) {
        match self {
            SuiteId::Arc4Sha1 => (1, 1),
            SuiteId::ChaCha20Poly1305 => (1, 4),
        }
    }

    /// Bytes this suite appends to every frame.
    pub const fn trailer_len(self) -> usize {
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
    /// AEAD key plus the message counter that forms the nonce.
    ChaChaPoly {
        key: [u8; chachapoly::KEY_LEN],
        seq: u64,
    },
}

impl DirectionCipher {
    fn new(suite: SuiteId, dir_key: &[u8; 20]) -> DirectionCipher {
        match suite {
            SuiteId::Arc4Sha1 => DirectionCipher::Arc4Sha1(Arc4::new(dir_key)),
            SuiteId::ChaCha20Poly1305 => DirectionCipher::ChaChaPoly {
                key: expand_channel_key(dir_key),
                seq: 0,
            },
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
                // Pull the per-message MAC key (not used for encryption).
                let mut mac_key = [0u8; MAC_KEY_LEN];
                stream.keystream(&mut mac_key);
                let mac = SfsMac::compute(&mac_key, &buf[frame_start + FRAME_HEADER_LEN..]);
                buf[frame_start..frame_start + FRAME_HEADER_LEN]
                    .copy_from_slice(&(plen as u32).to_be_bytes());
                buf.extend_from_slice(&mac);
                stream.process(&mut buf[frame_start..]);
            }
            DirectionCipher::ChaChaPoly { key, seq } => {
                // Single AEAD pass over len ‖ plaintext; tag appended.
                buf[frame_start..frame_start + FRAME_HEADER_LEN]
                    .copy_from_slice(&(plen as u32).to_be_bytes());
                let nonce = chacha_nonce(*seq);
                let tag = chachapoly::seal_in_place(key, &nonce, &[], &mut buf[frame_start..]);
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
        match &result {
            Ok(plaintext) => {
                self.tel.count(self.host, "channel.msgs_opened", 1);
                self.tel
                    .count(self.host, "channel.bytes_opened", plaintext.len() as u64);
            }
            Err(_) => {
                self.poisoned = true;
                self.tel.instant(self.host, "proto.channel", "poisoned");
            }
        }
        result
    }

    fn open_in_place_inner<'a>(&mut self, frame: &'a mut [u8]) -> Result<&'a [u8], ChannelError> {
        let plaintext = match &mut self.recv {
            DirectionCipher::Arc4Sha1(stream) => {
                if frame.len() < FRAME_HEADER_LEN + MAC_LEN {
                    return Err(ChannelError::Truncated);
                }
                let mut mac_key = [0u8; MAC_KEY_LEN];
                stream.keystream(&mut mac_key);
                stream.process(frame);
                let len =
                    u32::from_be_bytes(frame[..FRAME_HEADER_LEN].try_into().unwrap()) as usize;
                if len > MAX_MESSAGE {
                    return Err(ChannelError::TooLong);
                }
                if frame.len() != FRAME_HEADER_LEN + len + MAC_LEN {
                    return Err(ChannelError::Truncated);
                }
                let (head, mac) = frame.split_at(FRAME_HEADER_LEN + len);
                let plaintext = &head[FRAME_HEADER_LEN..];
                if !SfsMac::verify(&mac_key, plaintext, mac) {
                    return Err(ChannelError::MacFailure);
                }
                plaintext
            }
            DirectionCipher::ChaChaPoly { key, seq } => {
                if frame.len() < FRAME_HEADER_LEN + chachapoly::TAG_LEN {
                    return Err(ChannelError::Truncated);
                }
                let split = frame.len() - chachapoly::TAG_LEN;
                let (body, tag) = frame.split_at_mut(split);
                let nonce = chacha_nonce(*seq);
                // Tag verification happens before any decryption; a
                // replayed or reordered frame authenticates under the
                // wrong nonce and fails here.
                chachapoly::open_in_place(key, &nonce, &[], body, tag)
                    .map_err(|_| ChannelError::MacFailure)?;
                *seq += 1;
                let len = u32::from_be_bytes(body[..FRAME_HEADER_LEN].try_into().unwrap()) as usize;
                if len > MAX_MESSAGE {
                    return Err(ChannelError::TooLong);
                }
                if body.len() != FRAME_HEADER_LEN + len {
                    return Err(ChannelError::Truncated);
                }
                &body[FRAME_HEADER_LEN..]
            }
        };
        self.received += 1;
        Ok(plaintext)
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
