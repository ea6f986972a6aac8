//! Eksblowfish — the "expensive key schedule" Blowfish variant behind
//! bcrypt (Provos & Mazières, USENIX '99).
//!
//! SFS "makes guessing attacks expensive by transforming passwords with the
//! eksblowfish algorithm", whose cost parameter "one can increase as
//! computers get faster" so that guesses keep taking "almost a full second
//! of CPU time" (§2.5.2). The authserver stores eksblowfish hashes of SRP
//! verifiers and uses the same transform to encrypt users' registered
//! private keys.

use crate::blowfish::Blowfish;

/// Salt length in bytes (fixed by the algorithm).
pub const SALT_LEN: usize = 16;

/// Output length of [`bcrypt_hash`]: three Blowfish blocks.
pub(crate) const HASH_LEN: usize = 24;

/// The magic plaintext bcrypt encrypts 64 times ("OrpheanBeholderScryDoubt").
const MAGIC: &[u8; 24] = b"OrpheanBeholderScryDoubt";

/// Runs the EksBlowfishSetup key schedule: one salted expansion followed by
/// `2^cost` alternating unsalted expansions keyed by the password and the
/// salt.
///
/// # Panics
///
/// Panics if `key` is empty or longer than 72 bytes (bcrypt's limit), or if
/// `cost > 31`.
pub(crate) fn eks_setup(cost: u32, salt: &[u8; SALT_LEN], key: &[u8]) -> Blowfish {
    assert!(
        !key.is_empty() && key.len() <= 72,
        "eksblowfish key must be 1-72 bytes"
    );
    assert!(cost <= 31, "cost parameter must be at most 31");
    let mut state = Blowfish::init_state();
    // ExpandKey(state, salt, key).
    state.expand_key_words(key);
    state.mix_subkeys(salt);
    let zero_salt = [0u8; SALT_LEN];
    for _ in 0..1u64 << cost {
        // ExpandKey(state, 0, key) then ExpandKey(state, 0, salt).
        state.expand_key_words(key);
        state.mix_subkeys(&zero_salt);
        state.expand_key_words(salt);
        state.mix_subkeys(&zero_salt);
    }
    state
}

/// bcrypt's raw hash: eksblowfish setup, then ECB-encrypt the magic block
/// 64 times.
///
/// The output is the 24-byte raw digest; SFS stores it directly (we do not
/// reproduce the `$2a$` modular-crypt string format, which postdates the
/// construction itself).
pub fn bcrypt_hash(cost: u32, salt: &[u8; SALT_LEN], password: &[u8]) -> [u8; HASH_LEN] {
    let bf = eks_setup(cost, salt, password);
    let mut buf = *MAGIC;
    for _ in 0..64 {
        for chunk in buf.chunks_mut(8) {
            let block: &mut [u8; 8] = chunk.try_into().unwrap();
            bf.encrypt_block(block);
        }
    }
    buf
}

/// Derives `out_len` bytes of key material from a password with an
/// eksblowfish work factor, by hashing the bcrypt output through SHA-1 in
/// counter mode.
///
/// This is the transform `sfskey` and `authserv` apply before using a
/// password in SRP or to encrypt a private key (§2.5.2): the expensive part
/// is eksblowfish; the expansion is cheap.
pub fn password_kdf(cost: u32, salt: &[u8; SALT_LEN], password: &[u8], out_len: usize) -> Vec<u8> {
    let raw = bcrypt_hash(cost, salt, password);
    let mut out = Vec::with_capacity(out_len + 20);
    let mut counter: u32 = 0;
    while out.len() < out_len {
        out.extend_from_slice(&crate::sha1::sha1_concat(&[
            b"SFS-pw-kdf",
            &raw,
            &counter.to_be_bytes(),
        ]));
        counter += 1;
    }
    out.truncate(out_len);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SALT: [u8; 16] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16];

    #[test]
    fn deterministic() {
        assert_eq!(
            bcrypt_hash(4, &SALT, b"hunter2"),
            bcrypt_hash(4, &SALT, b"hunter2")
        );
    }

    #[test]
    fn password_sensitivity() {
        assert_ne!(
            bcrypt_hash(4, &SALT, b"hunter2"),
            bcrypt_hash(4, &SALT, b"hunter3")
        );
    }

    #[test]
    fn salt_sensitivity() {
        let mut other = SALT;
        other[0] ^= 1;
        assert_ne!(
            bcrypt_hash(4, &SALT, b"hunter2"),
            bcrypt_hash(4, &other, b"hunter2")
        );
    }

    #[test]
    fn cost_changes_output() {
        assert_ne!(bcrypt_hash(4, &SALT, b"pw"), bcrypt_hash(5, &SALT, b"pw"));
    }

    #[test]
    fn cost_scales_work() {
        // The point of the scheme: doubling cost should roughly double
        // time. We only assert monotonicity to keep the test robust.
        let t = |cost| {
            let start = std::time::Instant::now();
            let _ = bcrypt_hash(cost, &SALT, b"timing");
            start.elapsed()
        };
        let t6 = t(6);
        let t9 = t(9);
        assert!(t9 > t6, "cost 9 ({t9:?}) should exceed cost 6 ({t6:?})");
    }

    #[test]
    fn kdf_expands_to_requested_length() {
        let k = password_kdf(4, &SALT, b"secret", 52);
        assert_eq!(k.len(), 52);
        // Prefix property.
        assert_eq!(&password_kdf(4, &SALT, b"secret", 20)[..], &k[..20]);
        // Password sensitivity flows through.
        assert_ne!(password_kdf(4, &SALT, b"other", 52), k);
    }

    #[test]
    #[should_panic(expected = "cost parameter must be at most 31")]
    fn absurd_cost_panics() {
        let _ = eks_setup(32, &SALT, b"pw");
    }

    #[test]
    #[should_panic(expected = "eksblowfish key must be 1-72 bytes")]
    fn empty_password_panics() {
        let _ = eks_setup(4, &SALT, b"");
    }
}
