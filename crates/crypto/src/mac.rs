//! The SFS per-message MAC.
//!
//! Paper §3.1.3: SFS "re-keys the SHA-1-based MAC for each message using 32
//! bytes of data pulled from the ARC4 stream (and not used for the purposes
//! of encryption). The MAC is computed on the length and plaintext contents
//! of each RPC message."
//!
//! RECONSTRUCTION: the paper does not spell out the keyed construction
//! beyond "SHA-1-based" (citing Bellare–Rogaway's random-oracle paradigm).
//! We use a nested (NMAC-style) construction, which resists length
//! extension:
//!
//! ```text
//! inner = SHA-1(key[0..16] || be64(len) || message)
//! mac   = SHA-1(key[16..32] || inner)
//! ```
//!
//! The paper also notes the MAC "is slower than alternatives such as MD5
//! HMAC" and "could be swapped out... without affecting the main claims";
//! faithfulness to the 32-byte-rekey structure is what matters here.

use crate::sha1::{sha1_concat, Sha1, DIGEST_LEN};

/// MAC key length: 32 bytes pulled from the ARC4 stream per message.
pub(crate) const MAC_KEY_LEN: usize = 32;

/// MAC output length (one SHA-1 digest).
pub const MAC_LEN: usize = DIGEST_LEN;

/// Computes the SFS message authentication code over a message with a fresh
/// 32-byte key.
pub struct SfsMac;

impl SfsMac {
    /// Computes the MAC of `message` under `key`.
    pub fn compute(key: &[u8; MAC_KEY_LEN], message: &[u8]) -> [u8; MAC_LEN] {
        let len_bytes = (message.len() as u64).to_be_bytes();
        let inner = {
            let mut h = Sha1::new();
            h.update(&key[..16]);
            h.update(&len_bytes);
            h.update(message);
            h.finalize()
        };
        Self::outer(key, &inner)
    }

    /// The outer hash over the inner digest: `SHA-1(key[16..32] ‖ inner)`.
    pub(crate) fn outer(key: &[u8; MAC_KEY_LEN], inner: &[u8; DIGEST_LEN]) -> [u8; MAC_LEN] {
        sha1_concat(&[&key[16..], inner])
    }

    /// Verifies a MAC in constant time with respect to the tag contents.
    pub fn verify(key: &[u8; MAC_KEY_LEN], message: &[u8], tag: &[u8]) -> bool {
        ct_eq(&Self::compute(key, message), tag)
    }
}

/// Whether `tag` is `expect`, in time independent of where they differ:
/// every byte difference is folded in before the one test.
pub(crate) fn ct_eq(expect: &[u8; MAC_LEN], tag: &[u8]) -> bool {
    if tag.len() != MAC_LEN {
        return false;
    }
    let diff = expect
        .iter()
        .zip(tag)
        .fold(0u8, |acc, (a, b)| acc | (a ^ b));
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    const KEY: [u8; 32] = [7u8; 32];

    #[test]
    fn verify_accepts_valid() {
        let tag = SfsMac::compute(&KEY, b"NFS3_GETATTR reply");
        assert!(SfsMac::verify(&KEY, b"NFS3_GETATTR reply", &tag));
    }

    #[test]
    fn verify_rejects_tampered_message() {
        let tag = SfsMac::compute(&KEY, b"mode=0644");
        assert!(!SfsMac::verify(&KEY, b"mode=4755", &tag));
    }

    #[test]
    fn verify_rejects_tampered_tag() {
        let mut tag = SfsMac::compute(&KEY, b"data");
        tag[0] ^= 1;
        assert!(!SfsMac::verify(&KEY, b"data", &tag));
    }

    #[test]
    fn verify_rejects_wrong_key() {
        let tag = SfsMac::compute(&KEY, b"data");
        let other = [8u8; 32];
        assert!(!SfsMac::verify(&other, b"data", &tag));
    }

    #[test]
    fn verify_rejects_truncated_tag() {
        let tag = SfsMac::compute(&KEY, b"data");
        assert!(!SfsMac::verify(&KEY, b"data", &tag[..10]));
    }

    #[test]
    fn length_is_bound() {
        // A message and its extension must not share a MAC prefix trivially:
        // the explicit length field distinguishes them even when the
        // contents collide as prefixes.
        let a = SfsMac::compute(&KEY, b"ab");
        let b = SfsMac::compute(&KEY, b"ab\0");
        assert_ne!(a, b);
    }

    #[test]
    fn compare_sees_every_bit_of_every_byte() {
        // The fold reads all twenty bytes: a difference in any bit of any
        // byte, first or last, fails the compare.
        let tag = SfsMac::compute(&KEY, b"data");
        assert!(ct_eq(&tag, &tag));
        for byte in 0..MAC_LEN {
            for bit in 0..8 {
                let mut bad = tag;
                bad[byte] ^= 1 << bit;
                assert!(!ct_eq(&tag, &bad), "byte {byte} bit {bit}");
            }
        }
        assert!(!ct_eq(&tag, &tag[..MAC_LEN - 1]));
        assert!(!ct_eq(&tag, &[tag.as_slice(), &[0]].concat()));
    }

    #[test]
    fn distinct_keys_give_distinct_tags() {
        let k1 = [1u8; 32];
        let k2 = [2u8; 32];
        assert_ne!(SfsMac::compute(&k1, b"m"), SfsMac::compute(&k2, b"m"));
    }
}
