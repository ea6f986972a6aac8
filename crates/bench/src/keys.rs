//! Process-wide memo of the deterministic keys every bench and test world
//! is built from.
//!
//! A 768-bit Rabin key costs two prime searches and an SRP group a
//! safe-prime search; worlds are built by the dozen. Each `(bits, seed)`
//! is generated at most once per process, from a fresh
//! `XorShiftSource::new(seed)`, so a memoised key is byte-equal to the
//! one an inline `generate_keypair(bits, &mut XorShiftSource::new(seed))`
//! produced.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use sfs_bignum::XorShiftSource;
use sfs_crypto::rabin::{generate_keypair, RabinPrivateKey};
use sfs_crypto::srp::SrpGroup;

type Memo<T> = Mutex<HashMap<(usize, u64), Arc<OnceLock<T>>>>;

/// Looks `key` up in `memo`, generating it on first use. The map lock is
/// held only to find the cell, so distinct keys generate in parallel
/// while two threads asking for the same key share one generation.
fn memo<T: Clone>(memo: &Memo<T>, key: (usize, u64), make: impl FnOnce() -> T) -> T {
    let cell = memo
        .lock()
        .expect("a key generation panicked")
        .entry(key)
        .or_default()
        .clone();
    cell.get_or_init(make).clone()
}

/// The `bits`-bit Rabin key generated from `XorShiftSource::new(seed)`.
pub fn rabin(bits: usize, seed: u64) -> RabinPrivateKey {
    static KEYS: OnceLock<Memo<RabinPrivateKey>> = OnceLock::new();
    memo(KEYS.get_or_init(Memo::default), (bits, seed), || {
        generate_keypair(bits, &mut XorShiftSource::new(seed))
    })
}

/// The `bits`-bit SRP group generated from `XorShiftSource::new(seed)`.
pub fn srp_group(bits: usize, seed: u64) -> SrpGroup {
    static GROUPS: OnceLock<Memo<SrpGroup>> = OnceLock::new();
    memo(GROUPS.get_or_init(Memo::default), (bits, seed), || {
        SrpGroup::generate(bits, &mut XorShiftSource::new(seed))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    #[test]
    fn memoised_key_is_byte_equal_to_a_fresh_generation() {
        let fresh = generate_keypair(768, &mut XorShiftSource::new(0x5EED_0768));
        assert_eq!(rabin(768, 0x5EED_0768).to_bytes(), fresh.to_bytes());
        // The seed, not just the size, selects the key.
        assert_ne!(rabin(768, 0x5EED_0769).to_bytes(), fresh.to_bytes());
    }

    #[test]
    fn concurrent_callers_get_the_same_key() {
        let gate = Barrier::new(2);
        let ask = || {
            gate.wait();
            rabin(512, 0x5EED_0512).to_bytes()
        };
        let (a, b) = std::thread::scope(|s| {
            let other = s.spawn(ask);
            (ask(), other.join().expect("key thread panicked"))
        });
        assert_eq!(a, b);
        let fresh = generate_keypair(512, &mut XorShiftSource::new(0x5EED_0512));
        assert_eq!(a, fresh.to_bytes());
    }
}
