//! The paper's channel suite, ARC4 with the per-message SHA-1 MAC
//! (§3.1.3), sealed and opened in one pass: the legacy counterpart of
//! [`crate::chachapoly`].
//!
//! A frame is `be32(len) ‖ message ‖ MAC` under the direction's
//! long-running ARC4 stream, after 32 stream bytes that key the MAC
//! ([`crate::mac`]):
//!
//! ```text
//! MAC = SHA-1(key[16..32] ‖ SHA-1(key[0..16] ‖ be64(len) ‖ message))
//! ```
//!
//! As written that is two passes over the message: hash, then encrypt on
//! seal; decrypt, then hash on open. The two are serial chains on
//! different execution units — ARC4 a chain of loads and stores through
//! its permutation, SHA-NI a chain of `sha1rnds4` on the vector unit — so
//! the fused tier runs them side by side. For every whole 64-byte block
//! of the inner hash, one kernel runs the 64 ARC4 steps that cover that
//! block between the 20 round groups hashing the block before it, and the
//! out-of-order core hides most of the MAC behind the cipher. On seal the
//! block is loaded (plaintext) before its key stream is XORed in; on open
//! it is loaded as it is decrypted, and hashed in the next iteration.
//!
//! The edges stay ordinary calls: the inner hash's first block
//! (`key[..16] ‖ be64(len) ‖ message[..40]`) is built on the stack and
//! hashed while the first whole block is ciphered; the message's last
//! `(len − 40) mod 64` bytes, the padding, the outer hash and the MAC go
//! through [`Sha1`] and [`Arc4`]. A message that does not reach past the
//! first block, or a CPU without SHA-NI, takes the two-pass tier — the
//! portable code, and the oracle the fused tier is tested against. Both
//! tiers produce the same bytes and leave the stream at the same
//! position.

use crate::arc4::Arc4;
use crate::mac::{ct_eq, SfsMac, MAC_KEY_LEN, MAC_LEN};
use crate::sha1::{self, Sha1, BLOCK_LEN};

/// Bytes of the (encrypted) length word that leads every frame.
pub const HEADER_LEN: usize = 4;

/// Message bytes in the inner hash's first block, behind the sixteen key
/// bytes and the eight-byte length.
const FIRST_BLOCK_MSG: usize = BLOCK_LEN - 16 - 8;

/// The shortest message the fused tier takes: one whole block past the
/// first.
const FUSED_MIN_MSG: usize = FIRST_BLOCK_MSG + BLOCK_LEN;

/// Why a frame did not open. The checks run in the order listed, as
/// they always have: the decrypted length against the cap, then the
/// frame's size against that length, then the MAC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpenError {
    /// The length word exceeds the caller's cap.
    TooLong,
    /// The frame is shorter than a header and a MAC, or its size
    /// disagrees with its length word.
    Truncated,
    /// The MAC does not match: tampered, replayed, reordered or
    /// dropped traffic.
    MacFailure,
}

/// Whether a `msg_len`-byte message takes the fused tier on this CPU.
fn fused(msg_len: usize) -> bool {
    msg_len >= FUSED_MIN_MSG && sha1::shani_available()
}

/// Seals in place: `buf[frame_start..]` holds [`HEADER_LEN`] reserved
/// bytes then the message. The length word is written into the reserved
/// bytes, the MAC is appended, and all of it is encrypted; bytes before
/// `frame_start` are untouched.
///
/// # Panics
///
/// Panics if `buf` has no room for the header after `frame_start`, or
/// the message does not fit the 32-bit length word.
#[inline]
pub fn seal_into(stream: &mut Arc4, buf: &mut Vec<u8>, frame_start: usize) {
    let len = buf.len() - frame_start - HEADER_LEN;
    let word = u32::try_from(len).expect("message fits the length word");
    buf[frame_start..frame_start + HEADER_LEN].copy_from_slice(&word.to_be_bytes());
    #[cfg(target_arch = "x86_64")]
    if fused(len) {
        // SAFETY: `fused` saw SHA-NI, SSSE3 and SSE4.1.
        return unsafe { fast::seal(stream, buf, frame_start) };
    }
    seal_two_pass(stream, buf, frame_start)
}

/// Opens `frame` (`header ‖ message ‖ MAC`, as [`seal_into`] made it) by
/// decrypting it in place, and returns the
/// message length: the plaintext is `frame[HEADER_LEN..HEADER_LEN + len]`.
/// A length word above `max_len` is [`OpenError::TooLong`]. On failure
/// `frame` is left partly decrypted and the stream's position is
/// unspecified: a failed frame ends the channel.
#[inline]
pub fn open_in_place(
    stream: &mut Arc4,
    frame: &mut [u8],
    max_len: usize,
) -> Result<usize, OpenError> {
    if frame.len() < HEADER_LEN + MAC_LEN {
        return Err(OpenError::Truncated);
    }
    let mut key = [0u8; MAC_KEY_LEN];
    stream.keystream(&mut key);
    #[cfg(target_arch = "x86_64")]
    if fused(frame.len() - HEADER_LEN - MAC_LEN) {
        // SAFETY: `fused` saw SHA-NI, SSSE3 and SSE4.1.
        return unsafe { fast::open(stream, &key, frame, max_len) };
    }
    open_two_pass(stream, &key, frame, max_len)
}

/// The message length a decrypted header gives, once it is checked
/// against the cap and against the frame's size.
fn checked_len(frame: &[u8], max_len: usize) -> Result<usize, OpenError> {
    let word = frame[..HEADER_LEN]
        .try_into()
        .expect("frame holds a header");
    let len = u32::from_be_bytes(word) as usize;
    if len > max_len {
        return Err(OpenError::TooLong);
    }
    if frame.len() != HEADER_LEN + len + MAC_LEN {
        return Err(OpenError::Truncated);
    }
    Ok(len)
}

/// The portable tier: MAC the message, append the MAC, then encrypt the
/// frame.
fn seal_two_pass(stream: &mut Arc4, buf: &mut Vec<u8>, frame_start: usize) {
    let mut key = [0u8; MAC_KEY_LEN];
    stream.keystream(&mut key);
    let mac = SfsMac::compute(&key, &buf[frame_start + HEADER_LEN..]);
    buf.extend_from_slice(&mac);
    stream.process(&mut buf[frame_start..]);
}

/// The portable tier: decrypt the frame, then check the MAC.
fn open_two_pass(
    stream: &mut Arc4,
    key: &[u8; MAC_KEY_LEN],
    frame: &mut [u8],
    max_len: usize,
) -> Result<usize, OpenError> {
    stream.process(frame);
    let len = checked_len(frame, max_len)?;
    let (head, mac) = frame.split_at(HEADER_LEN + len);
    if !SfsMac::verify(key, &head[HEADER_LEN..], mac) {
        return Err(OpenError::MacFailure);
    }
    Ok(len)
}

/// The fused tier (x86-64 with SHA-NI).
#[cfg(target_arch = "x86_64")]
mod fast {
    use super::*;
    use crate::arc4::Prga;
    use crate::sha1::shani::bswap_mask;
    use crate::sha1::shani_rounds;
    use std::arch::x86_64::*;

    /// [`super::seal_into`] past the length word, in one pass.
    ///
    /// # Safety
    ///
    /// The CPU must have SHA-NI, SSSE3 and SSE4.1.
    pub(super) unsafe fn seal(stream: &mut Arc4, buf: &mut Vec<u8>, frame_start: usize) {
        let mut key = [0u8; MAC_KEY_LEN];
        stream.keystream(&mut key);
        let (header, msg) = buf[frame_start..].split_at_mut(HEADER_LEN);
        stream.process(header);
        let mac = body::<false>(stream, &key, msg);
        let at = buf.len();
        buf.extend_from_slice(&mac);
        stream.process(&mut buf[at..]);
    }

    /// [`super::open_in_place`] past the MAC key, in one pass.
    ///
    /// # Safety
    ///
    /// The CPU must have SHA-NI, SSSE3 and SSE4.1.
    pub(super) unsafe fn open(
        stream: &mut Arc4,
        key: &[u8; MAC_KEY_LEN],
        frame: &mut [u8],
        max_len: usize,
    ) -> Result<usize, OpenError> {
        stream.process(&mut frame[..HEADER_LEN]);
        let len = checked_len(frame, max_len)?;
        let (body_bytes, mac) = frame.split_at_mut(HEADER_LEN + len);
        let expect = body::<true>(stream, key, &mut body_bytes[HEADER_LEN..]);
        stream.process(mac);
        if !ct_eq(&expect, mac) {
            return Err(OpenError::MacFailure);
        }
        Ok(len)
    }

    /// XORs the key stream into `msg` (at least [`FIRST_BLOCK_MSG`] bytes)
    /// and returns its MAC, hashing the plaintext: the bytes as they
    /// were on seal, as they become on open (`OPEN`).
    ///
    /// # Safety
    ///
    /// The CPU must have SHA-NI, SSSE3 and SSE4.1.
    unsafe fn body<const OPEN: bool>(
        stream: &mut Arc4,
        key: &[u8; MAC_KEY_LEN],
        msg: &mut [u8],
    ) -> [u8; MAC_LEN] {
        let len = msg.len();
        let (head, rest) = msg.split_at_mut(FIRST_BLOCK_MSG);
        let (bulk, tail) = rest.split_at_mut(rest.len() - rest.len() % BLOCK_LEN);
        if OPEN {
            stream.process(head);
        }
        let mut first = [0u8; BLOCK_LEN];
        first[..16].copy_from_slice(&key[..16]);
        first[16..24].copy_from_slice(&(len as u64).to_be_bytes());
        first[24..].copy_from_slice(head);
        if !OPEN {
            stream.process(head);
        }
        let mut inner = Sha1::new();
        let h = inner.chain_for(BLOCK_LEN + bulk.len());
        // SAFETY: the caller vouches for the target features.
        stream.with_prga(|s, prga| unsafe { hash_and_xor::<OPEN>(h, s, prga, &first, bulk) });
        if OPEN {
            stream.process(tail);
            inner.update(tail);
        } else {
            inner.update(tail);
            stream.process(tail);
        }
        SfsMac::outer(key, &inner.finalize())
    }

    /// The ARC4 step that follows round group `g` first: four steps after
    /// each of the first four groups, three after each of the other
    /// sixteen, 64 in all (`first_step(20) == 64`).
    const fn first_step(g: usize) -> usize {
        if g < 4 {
            4 * g
        } else {
            16 + 3 * (g - 4)
        }
    }

    /// Hashes `first`, then each 64-byte block of `bulk`, into `h`, and
    /// XORs the key stream into `bulk` meanwhile: block k's 64 ARC4 steps
    /// run between the round groups of block k − 1 (of `first` for k = 0),
    /// and the last block is hashed on its own. On seal a block is hashed
    /// as it was loaded, on open as it was decrypted.
    ///
    /// # Safety
    ///
    /// The CPU must have SHA-NI, SSSE3 and SSE4.1.
    #[target_feature(enable = "sha,ssse3,sse4.1")]
    unsafe fn hash_and_xor<const OPEN: bool>(
        h: &mut [u32; 5],
        s: &mut [u32; 256],
        prga: &mut Prga,
        first: &[u8; BLOCK_LEN],
        bulk: &mut [u8],
    ) {
        let mask = bswap_mask();
        let mut p = *prga;
        let mut abcd = _mm_shuffle_epi32::<0x1B>(_mm_loadu_si128(h.as_ptr() as *const __m128i));
        let mut e = _mm_set_epi32(h[4] as i32, 0, 0, 0);
        let f = first.as_ptr() as *const __m128i;
        let mut msg = [
            _mm_shuffle_epi8(_mm_loadu_si128(f), mask),
            _mm_shuffle_epi8(_mm_loadu_si128(f.add(1)), mask),
            _mm_shuffle_epi8(_mm_loadu_si128(f.add(2)), mask),
            _mm_shuffle_epi8(_mm_loadu_si128(f.add(3)), mask),
        ];
        for block in bulk.chunks_exact_mut(BLOCK_LEN) {
            let b = block.as_mut_ptr() as *mut __m128i;
            let raw = [
                _mm_loadu_si128(b),
                _mm_loadu_si128(b.add(1)),
                _mm_loadu_si128(b.add(2)),
                _mm_loadu_si128(b.add(3)),
            ];
            // Step n's byte lands in bits 8(n mod 8).. of word n / 8: the
            // block's key stream, in memory order, built in registers.
            let mut ks = [0u64; 8];
            shani_rounds!(abcd, e, msg, |g, rounds| {
                for n in first_step(g)..first_step(g + 1) {
                    ks[n / 8] |= u64::from(p.next(s)) << (8 * (n % 8));
                }
                p.pin(rounds);
            });
            let mut out = raw;
            for (q, word) in out.iter_mut().enumerate() {
                let ks = _mm_set_epi64x(ks[2 * q + 1] as i64, ks[2 * q] as i64);
                *word = _mm_xor_si128(*word, ks);
                _mm_storeu_si128(b.add(q), *word);
            }
            let next = if OPEN { out } else { raw };
            for (m, word) in msg.iter_mut().zip(next) {
                *m = _mm_shuffle_epi8(word, mask);
            }
        }
        shani_rounds!(abcd, e, msg, |_g, _abcd| {});
        _mm_storeu_si128(
            h.as_mut_ptr() as *mut __m128i,
            _mm_shuffle_epi32::<0x1B>(abcd),
        );
        h[4] = _mm_extract_epi32::<3>(e) as u32;
        *prga = p;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The lengths every tier test sweeps: every message up to 600 bytes
    /// (both sides of the fused tier's 104-byte floor and of every tail
    /// length), a page either side, 8 KiB, 8 KiB plus an NFS header, and
    /// a 64 KiB write with an odd tail.
    fn lengths() -> impl Iterator<Item = usize> {
        (0..=600).chain([4095, 4096, 4097, 8192, 8296, 65_543])
    }

    /// Stream offsets each frame starts at.
    const OFFSETS: [usize; 4] = [0, 1, 37, 1000];

    fn stream_at(offset: usize) -> Arc4 {
        let mut stream = Arc4::new(b"twenty-byte-key-arc4");
        let mut skip = vec![0u8; offset];
        stream.keystream(&mut skip);
        stream
    }

    fn message(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 131 + len * 7) as u8).collect()
    }

    /// `header ‖ message` ready to seal.
    fn unsealed(msg: &[u8]) -> Vec<u8> {
        let mut frame = vec![0u8; HEADER_LEN];
        frame.extend_from_slice(msg);
        frame
    }

    /// Whether this CPU runs the fused tier; prints why not.
    fn fused_tier_runs() -> bool {
        if sha1::shani_available() {
            return true;
        }
        println!("skipped: sha");
        false
    }

    /// The two-pass tier's whole frame and the stream's position after
    /// it.
    fn two_pass_frame(msg: &[u8], offset: usize) -> (Vec<u8>, u64) {
        let mut stream = stream_at(offset);
        let mut frame = unsealed(msg);
        frame[..HEADER_LEN].copy_from_slice(&(msg.len() as u32).to_be_bytes());
        seal_two_pass(&mut stream, &mut frame, 0);
        (frame, stream.position())
    }

    /// `frame` as the two-pass tier opens it, and that tier's verdict.
    fn two_pass_open(frame: &[u8], offset: usize) -> (Vec<u8>, Result<usize, OpenError>) {
        let mut opened = frame.to_vec();
        let mut rx = stream_at(offset);
        let mut key = [0u8; MAC_KEY_LEN];
        rx.keystream(&mut key);
        let verdict = open_two_pass(&mut rx, &key, &mut opened, 1 << 24);
        (opened, verdict)
    }

    #[test]
    fn fused_tier_matches_two_pass_tier_at_every_length() {
        // Every frame sealed and opened through the public entry points
        // (whichever tier its length takes here) and, where the CPU has
        // SHA-NI, through the fused tier called directly on every
        // message it can take (40 bytes up, below the dispatch floor
        // too): the two-pass tier's ciphertext and MAC, its plaintext and
        // verdict back, and the stream where the two-pass tier leaves it
        // on both ends.
        let fused_on = fused_tier_runs();
        for len in lengths() {
            let msg = message(len);
            for offset in OFFSETS {
                let (golden, position) = two_pass_frame(&msg, offset);
                let (opened, verdict) = two_pass_open(&golden, offset);
                assert_eq!(verdict, Ok(len));
                assert_eq!(&opened[HEADER_LEN..HEADER_LEN + len], &msg[..]);

                let mut stream = stream_at(offset);
                let mut frame = b"envelope".to_vec();
                frame.extend_from_slice(&unsealed(&msg));
                seal_into(&mut stream, &mut frame, 8);
                assert_eq!(&frame[..8], b"envelope");
                let mut frame = frame.split_off(8);
                assert_eq!(frame, golden, "len {len} offset {offset}");
                assert_eq!(stream.position(), position);
                let mut rx = stream_at(offset);
                assert_eq!(open_in_place(&mut rx, &mut frame, usize::MAX), Ok(len));
                assert_eq!(frame, opened, "len {len} offset {offset}");
                assert_eq!(rx.position(), position);

                #[cfg(target_arch = "x86_64")]
                if fused_on && len >= FIRST_BLOCK_MSG {
                    let mut stream = stream_at(offset);
                    let mut frame = unsealed(&msg);
                    frame[..HEADER_LEN].copy_from_slice(&(len as u32).to_be_bytes());
                    // SAFETY: `fused_tier_runs` saw the features.
                    unsafe { fast::seal(&mut stream, &mut frame, 0) };
                    assert_eq!(frame, golden, "fused len {len} offset {offset}");
                    assert_eq!(stream.position(), position);
                    let mut rx = stream_at(offset);
                    let mut key = [0u8; MAC_KEY_LEN];
                    rx.keystream(&mut key);
                    // SAFETY: as above.
                    let verdict = unsafe { fast::open(&mut rx, &key, &mut frame, usize::MAX) };
                    assert_eq!(verdict, Ok(len));
                    assert_eq!(frame, opened, "fused len {len} offset {offset}");
                    assert_eq!(rx.position(), position);
                }
            }
        }
    }

    #[test]
    fn tiers_reject_a_flipped_bit_in_every_part_of_a_frame() {
        // A 4097-byte message on the fused tier: header 0..4, first block
        // 4..44, bulk 44..4076 (63 blocks), tail 4076..4101, MAC
        // 4101..4121. A short message on the two-pass tier alongside.
        // Every flip must be refused, with the error the two-pass tier
        // gives for the same bytes; a body or MAC flip as a MAC failure.
        fused_tier_runs();
        for (len, parts) in [
            (
                4097,
                &[0usize, 3, 4, 43, 44, 2000, 4075, 4076, 4100, 4101, 4120][..],
            ),
            (60, &[0, 3, 4, 63, 64, 83][..]),
        ] {
            let msg = message(len);
            let (golden, _) = two_pass_frame(&msg, 5);
            for &at in parts {
                for bit in [0, 7] {
                    let mut bad = golden.clone();
                    bad[at] ^= 1 << bit;
                    let (_, want) = two_pass_open(&bad, 5);
                    let got = open_in_place(&mut stream_at(5), &mut bad, 1 << 24);
                    assert_eq!(got, want, "len {len} byte {at} bit {bit}");
                    assert!(got.is_err(), "len {len} byte {at} bit {bit}");
                    if at >= HEADER_LEN {
                        assert_eq!(got, Err(OpenError::MacFailure));
                    }
                }
            }
        }
    }
}
