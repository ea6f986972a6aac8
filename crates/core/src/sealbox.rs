//! One-shot sealed boxes under a 20-byte symmetric key.
//!
//! Used for the two places SFS encrypts data outside a long-lived secure
//! channel: the payload returned over a freshly negotiated SRP session
//! key, and users' private keys at rest under an eksblowfish-derived key
//! (§2.4). The construction reuses the secure channel's ARC4 + re-keyed
//! SHA-1 MAC framing with both direction keys set to the box key; each key
//! must be used to seal at most once (SRP keys and password-derived keys
//! with fresh salts satisfy this).

use sfs_proto::channel::{ChannelError, SecureChannelEnd};
use sfs_proto::keyneg::SessionKeys;

fn keys(key: &[u8; 20]) -> SessionKeys {
    SessionKeys {
        kcs: *key,
        ksc: *key,
        session_id: [0u8; 20],
    }
}

/// Seals `plaintext` under `key`.
pub(crate) fn seal(key: &[u8; 20], plaintext: &[u8]) -> Vec<u8> {
    SecureChannelEnd::client(&keys(key))
        .seal(plaintext)
        .expect("fresh channel cannot be poisoned")
}

/// Opens a box sealed by [`seal`] under the same key.
pub(crate) fn open(key: &[u8; 20], frame: &[u8]) -> Result<Vec<u8>, ChannelError> {
    SecureChannelEnd::server(&keys(key)).open(frame)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let key = [7u8; 20];
        let boxed = seal(&key, b"private key material");
        assert_eq!(open(&key, &boxed).unwrap(), b"private key material");
    }

    #[test]
    fn wrong_key_fails() {
        let boxed = seal(&[7u8; 20], b"data");
        assert!(open(&[8u8; 20], &boxed).is_err());
    }

    #[test]
    fn tampering_fails() {
        let key = [7u8; 20];
        let mut boxed = seal(&key, b"data");
        let n = boxed.len();
        boxed[n - 1] ^= 1;
        assert!(open(&key, &boxed).is_err());
    }

    #[test]
    fn hides_plaintext() {
        let boxed = seal(&[7u8; 20], b"supersecretvalue");
        assert!(!boxed.windows(11).any(|w| w == b"supersecret"));
    }
}
