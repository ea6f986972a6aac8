//! The ChaCha20-Poly1305 AEAD construction (RFC 8439 §2.8).
//!
//! This is the negotiated fast suite for the secure channel: a single
//! pass seals plaintext in place (encrypt a cache-resident chunk, then
//! immediately absorb its ciphertext into the MAC), and `open_in_place`
//! verifies the tag over the ciphertext *before* decrypting — nothing
//! derived from a forged frame is ever interpreted.
//!
//! The same construction seals session-resumption tickets: unlike the
//! channel's per-direction ARC4 streams, an AEAD with an explicit nonce
//! is safe under one long-lived key across many independent tickets.

use crate::chacha20::FrameHead;
use crate::poly1305::Poly1305;

/// Key length in bytes.
pub const KEY_LEN: usize = 32;
/// Nonce length in bytes. Never reuse a (key, nonce) pair.
pub const NONCE_LEN: usize = 12;
/// Authenticator tag length in bytes.
pub const TAG_LEN: usize = 16;

/// Chunk granularity for the fused encrypt-then-MAC sweep: a multiple of
/// both the widest ChaCha step (512) and the Poly1305 vector step (128),
/// long enough that the once-per-`update` lane combine of the vector MAC
/// is spread over sixteen steps, and small enough that the chunk is
/// still in L1 when the MAC re-reads it.
const SWEEP_LEN: usize = 2048;

/// Authentication failure. Deliberately carries no detail: a forged tag
/// and a truncated frame must be indistinguishable to the peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AeadError;

impl std::fmt::Display for AeadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AEAD authentication failed")
    }
}

impl std::error::Error for AeadError {}

/// Absorbs the §2.8 AEAD trailer: pad16(ciphertext) ‖ len(aad) ‖ len(ct).
fn absorb_lengths(poly: &mut Poly1305, aad_len: usize, ct_len: usize) {
    let pad = (16 - ct_len % 16) % 16;
    poly.update(&[0u8; 16][..pad]);
    let mut lens = [0u8; 16];
    lens[..8].copy_from_slice(&(aad_len as u64).to_le_bytes());
    lens[8..].copy_from_slice(&(ct_len as u64).to_le_bytes());
    poly.update(&lens);
}

/// Encrypts `buf` in place and returns the tag over `aad` and the
/// ciphertext. Payload keystream starts at block 1 (§2.8); the first
/// ChaCha20 step yields it together with the one-time key in block 0.
pub fn seal_in_place(
    key: &[u8; KEY_LEN],
    nonce: &[u8; NONCE_LEN],
    aad: &[u8],
    buf: &mut [u8],
) -> [u8; TAG_LEN] {
    let head = FrameHead::new(key, nonce);
    let mut poly = Poly1305::new(&head.one_time_key());
    poly.update_padded(aad);
    let (front, mut cipher) = head.xor_front(buf);
    poly.update(&buf[..front]);
    // Fused sweep: each chunk is encrypted and MACed while hot in cache.
    for chunk in buf[front..].chunks_mut(SWEEP_LEN) {
        cipher.xor_keystream(chunk);
        poly.update(chunk);
    }
    absorb_lengths(&mut poly, aad.len(), buf.len());
    poly.finish()
}

/// Verifies `tag` over `aad` and the ciphertext in `buf`, then decrypts
/// `buf` in place. On failure `buf` is left as ciphertext, untouched:
/// the first step's keystream waits on the stack until the tag has
/// been checked.
pub fn open_in_place(
    key: &[u8; KEY_LEN],
    nonce: &[u8; NONCE_LEN],
    aad: &[u8],
    buf: &mut [u8],
    tag: &[u8],
) -> Result<(), AeadError> {
    let head = FrameHead::new(key, nonce);
    let mut poly = Poly1305::new(&head.one_time_key());
    poly.update_padded(aad);
    poly.update(buf);
    absorb_lengths(&mut poly, aad.len(), buf.len());
    let expected = poly.finish();
    // Constant-time comparison: fold every byte difference before testing.
    if tag.len() != TAG_LEN {
        return Err(AeadError);
    }
    let diff = expected
        .iter()
        .zip(tag.iter())
        .fold(0u8, |acc, (a, b)| acc | (a ^ b));
    if diff != 0 {
        return Err(AeadError);
    }
    let (front, mut cipher) = head.xor_front(buf);
    cipher.xor_keystream(&mut buf[front..]);
    Ok(())
}

/// Seals `plaintext` into a self-contained `ciphertext ‖ tag` frame
/// (ticket-style use; the nonce travels separately).
pub fn seal(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN], aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(plaintext.len() + TAG_LEN);
    out.extend_from_slice(plaintext);
    let tag = seal_in_place(key, nonce, aad, &mut out);
    out.extend_from_slice(&tag);
    out
}

/// Opens a `ciphertext ‖ tag` frame produced by [`seal`].
pub fn open(
    key: &[u8; KEY_LEN],
    nonce: &[u8; NONCE_LEN],
    aad: &[u8],
    frame: &[u8],
) -> Result<Vec<u8>, AeadError> {
    if frame.len() < TAG_LEN {
        return Err(AeadError);
    }
    let (ct, tag) = frame.split_at(frame.len() - TAG_LEN);
    let mut buf = ct.to_vec();
    open_in_place(key, nonce, aad, &mut buf, tag)?;
    Ok(buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rfc_key() -> [u8; 32] {
        core::array::from_fn(|i| 0x80 + i as u8)
    }

    const RFC_NONCE: [u8; 12] = [
        0x07, 0x00, 0x00, 0x00, 0x40, 0x41, 0x42, 0x43, 0x44, 0x45, 0x46, 0x47,
    ];
    const RFC_AAD: [u8; 12] = [
        0x50, 0x51, 0x52, 0x53, 0xc0, 0xc1, 0xc2, 0xc3, 0xc4, 0xc5, 0xc6, 0xc7,
    ];
    const RFC_PLAINTEXT: &[u8] = b"Ladies and Gentlemen of the class of '99: If I could \
offer you only one tip for the future, sunscreen would be it.";

    fn hex(s: &str) -> Vec<u8> {
        s.split_whitespace()
            .flat_map(|tok| {
                (0..tok.len())
                    .step_by(2)
                    .map(|i| u8::from_str_radix(&tok[i..i + 2], 16).unwrap())
                    .collect::<Vec<_>>()
            })
            .collect()
    }

    #[test]
    fn rfc8439_poly_key_generation_vector() {
        // §2.6.2.
        let key: [u8; 32] = core::array::from_fn(|i| 0x80 + i as u8);
        let nonce = [0, 0, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7];
        let otk = FrameHead::new(&key, &nonce).one_time_key();
        let expected = hex("8a d5 a0 8b 90 5f 81 cc 81 50 40 27 4a b2 94 71
             a8 33 b6 37 e3 fd 0d a5 08 db b8 e2 fd d1 a6 46");
        assert_eq!(otk.to_vec(), expected);
    }

    #[test]
    fn rfc8439_aead_seal_vector() {
        // §2.8.2.
        let mut buf = RFC_PLAINTEXT.to_vec();
        let tag = seal_in_place(&rfc_key(), &RFC_NONCE, &RFC_AAD, &mut buf);
        let expected_ct = hex("d3 1a 8d 34 64 8e 60 db 7b 86 af bc 53 ef 7e c2
             a4 ad ed 51 29 6e 08 fe a9 e2 b5 a7 36 ee 62 d6
             3d be a4 5e 8c a9 67 12 82 fa fb 69 da 92 72 8b
             1a 71 de 0a 9e 06 0b 29 05 d6 a5 b6 7e cd 3b 36
             92 dd bd 7f 2d 77 8b 8c 98 03 ae e3 28 09 1b 58
             fa b3 24 e4 fa d6 75 94 55 85 80 8b 48 31 d7 bc
             3f f4 de f0 8e 4b 7a 9d e5 76 d2 65 86 ce c6 4b
             61 16");
        let expected_tag = hex("1a e1 0b 59 4f 09 e2 6a 7e 90 2e cb d0 60 06 91");
        assert_eq!(buf, expected_ct);
        assert_eq!(tag.to_vec(), expected_tag);
    }

    #[test]
    fn rfc8439_aead_open_vector() {
        let mut buf = RFC_PLAINTEXT.to_vec();
        let tag = seal_in_place(&rfc_key(), &RFC_NONCE, &RFC_AAD, &mut buf);
        open_in_place(&rfc_key(), &RFC_NONCE, &RFC_AAD, &mut buf, &tag).expect("authentic");
        assert_eq!(buf, RFC_PLAINTEXT);
    }

    #[test]
    fn tampering_anywhere_is_rejected_and_ciphertext_left_intact() {
        let key = rfc_key();
        // The RFC frame (one partly used step), a frame one byte past
        // the first step's reach, and a bulk frame with a 128-byte tail:
        // a flip in the first step, in the middle and in the last byte.
        let long: Vec<u8> = (0..8320).map(|i| (i % 239) as u8).collect();
        for plaintext in [RFC_PLAINTEXT, &long[..449], &long[..]] {
            let mut buf = plaintext.to_vec();
            let tag = seal_in_place(&key, &RFC_NONCE, &RFC_AAD, &mut buf);
            let sealed = buf.clone();
            for flip in [0, buf.len() / 2, buf.len() - 1] {
                let mut corrupt = sealed.clone();
                corrupt[flip] ^= 0x01;
                let before = corrupt.clone();
                assert_eq!(
                    open_in_place(&key, &RFC_NONCE, &RFC_AAD, &mut corrupt, &tag),
                    Err(AeadError)
                );
                // verify-before-decrypt: the buffer must not have been touched
                assert_eq!(corrupt, before, "len {} flip {flip}", plaintext.len());
            }
            let mut bad_tag = tag;
            bad_tag[7] ^= 0x80;
            let mut frame = sealed.clone();
            assert!(open_in_place(&key, &RFC_NONCE, &RFC_AAD, &mut frame, &bad_tag).is_err());
            assert_eq!(frame, sealed);
            let mut wrong_aad = sealed.clone();
            assert!(open_in_place(&key, &RFC_NONCE, b"other aad", &mut wrong_aad, &tag).is_err());
            let mut wrong_nonce = sealed.clone();
            let mut nonce = RFC_NONCE;
            nonce[0] ^= 1;
            assert!(open_in_place(&key, &nonce, &RFC_AAD, &mut wrong_nonce, &tag).is_err());
            assert_eq!(wrong_nonce, sealed);
        }
    }

    #[test]
    fn detached_frame_roundtrip_all_sizes() {
        let key: [u8; 32] = core::array::from_fn(|i| (i * 13 + 1) as u8);
        for len in [0usize, 1, 15, 16, 17, 64, 511, 512, 513, 4096, 8192] {
            let nonce: [u8; 12] = core::array::from_fn(|i| (len + i) as u8);
            let plaintext: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let frame = seal(&key, &nonce, b"aad", &plaintext);
            assert_eq!(frame.len(), len + TAG_LEN);
            let opened = open(&key, &nonce, b"aad", &frame).expect("authentic");
            assert_eq!(opened, plaintext, "len {len}");
        }
        assert_eq!(open(&key, &[0u8; 12], b"", &[0u8; 15]), Err(AeadError));
    }
}
