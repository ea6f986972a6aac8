//! The SFS pseudo-random generator.
//!
//! Paper §3.1.3: "We chose DSS's pseudo-random generator [FIPS 186], both
//! because it is based on SHA-1 and because it cannot be run backwards in
//! the event that its state gets compromised. To seed the generator, SFS
//! asynchronously reads data from various external programs …, from a file
//! saved by the previous execution, and from a nanosecond timer … All of
//! the above sources are run through a SHA-1-based hash function to produce
//! a 512-bit seed."
//!
//! [`EntropyPool`] is the seeding funnel; [`SfsPrg`] is the FIPS 186
//! generator: with `b = 512`,
//!
//! ```text
//! x_j  = G(t, XKEY_j)              (G = SHA-1 compression, t = SHA-1 IV)
//! XKEY_{j+1} = (1 + XKEY_j + x_j) mod 2^b
//! ```
//!
//! Forward secrecy of the state follows because recovering `XKEY_j` from
//! `XKEY_{j+1}` and `x_j` requires inverting G.

use crate::sha1::{self, Sha1, DIGEST_LEN};
use sfs_bignum::RandomSource;

/// Seed size in bytes (the paper's 512-bit seed).
pub(crate) const SEED_LEN: usize = 64;

/// Accumulates entropy from external sources into a 512-bit seed.
///
/// Each source is fed with a length prefix and an index so that source
/// boundaries cannot be confused; the pool produces four chained SHA-1
/// digests (4 × 160 = 640 bits, truncated to 512).
#[derive(Clone)]
pub(crate) struct EntropyPool {
    hasher: Sha1,
    sources: u32,
}

impl Default for EntropyPool {
    fn default() -> Self {
        Self::new()
    }
}

impl EntropyPool {
    /// Creates an empty pool.
    pub(crate) fn new() -> Self {
        EntropyPool {
            hasher: Sha1::new(),
            sources: 0,
        }
    }

    /// Mixes one entropy source (command output, saved seed file,
    /// keystrokes with timings, nanosecond timers, …).
    pub(crate) fn add_source(&mut self, data: &[u8]) -> &mut Self {
        self.hasher.update(&self.sources.to_be_bytes());
        self.hasher.update(&(data.len() as u64).to_be_bytes());
        self.hasher.update(data);
        self.sources += 1;
        self
    }

    /// Produces the 512-bit seed by counter-mode chaining of the pool
    /// digest.
    pub(crate) fn seed(&self) -> [u8; SEED_LEN] {
        let base = self.hasher.clone().finalize();
        let mut out = [0u8; SEED_LEN];
        let mut filled = 0;
        let mut counter: u32 = 0;
        while filled < SEED_LEN {
            let d = sha1::sha1_concat(&[b"SFS-seed", &base, &counter.to_be_bytes()]);
            let take = (SEED_LEN - filled).min(d.len());
            out[filled..filled + take].copy_from_slice(&d[..take]);
            filled += take;
            counter += 1;
        }
        out
    }

    /// Finalizes the pool into a generator.
    pub(crate) fn into_prg(self) -> SfsPrg {
        SfsPrg::from_seed(&self.seed())
    }
}

/// The FIPS 186 (DSS) pseudo-random generator with b = 512. Its whole
/// state is fixed-size, so drawing from it never allocates.
#[derive(Clone)]
pub struct SfsPrg {
    /// XKEY, a 512-bit value, big-endian.
    xkey: [u8; SEED_LEN],
    /// The last output block `x_j`.
    block: [u8; DIGEST_LEN],
    /// Bytes of `block` already handed out.
    used: usize,
}

impl SfsPrg {
    /// Creates a generator from a 512-bit seed.
    pub(crate) fn from_seed(seed: &[u8; SEED_LEN]) -> Self {
        SfsPrg {
            xkey: *seed,
            block: [0; DIGEST_LEN],
            used: DIGEST_LEN,
        }
    }

    /// Convenience constructor for tests and deterministic benchmarks:
    /// seeds the generator from a single byte string via the entropy pool.
    pub fn from_entropy(data: &[u8]) -> Self {
        let mut pool = EntropyPool::new();
        pool.add_source(data);
        pool.into_prg()
    }

    /// One FIPS 186 step: sets `block` to x_j and advances XKEY.
    fn step(&mut self) {
        // G(t, c): SHA-1 compression of the 512-bit block with the standard
        // IV, no padding.
        let mut h = sha1::IV;
        sha1::compress(&mut h, &self.xkey);
        for (out, w) in self.block.chunks_exact_mut(4).zip(h) {
            out.copy_from_slice(&w.to_be_bytes());
        }
        // XKEY = (1 + XKEY + x) mod 2^b: a wrapping big-endian add, x
        // aligned to the low end.
        let mut carry = 1u16;
        let x = self.block.iter().rev().chain(std::iter::repeat(&0));
        for (k, &x) in self.xkey.iter_mut().rev().zip(x) {
            let sum = *k as u16 + x as u16 + carry;
            *k = sum as u8;
            carry = sum >> 8;
        }
        self.used = 0;
    }
}

impl RandomSource for SfsPrg {
    fn fill(&mut self, buf: &mut [u8]) {
        let mut filled = 0;
        while filled < buf.len() {
            if self.used == DIGEST_LEN {
                self.step();
            }
            let take = (buf.len() - filled).min(DIGEST_LEN - self.used);
            buf[filled..filled + take].copy_from_slice(&self.block[self.used..][..take]);
            self.used += take;
            filled += take;
        }
    }
}

impl std::fmt::Debug for SfsPrg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SfsPrg {{ .. }}") // Never leak generator state.
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let mut a = SfsPrg::from_entropy(b"seed");
        let mut b = SfsPrg::from_entropy(b"seed");
        let mut ba = [0u8; 100];
        let mut bb = [0u8; 100];
        a.fill(&mut ba);
        b.fill(&mut bb);
        assert_eq!(ba, bb);
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SfsPrg::from_entropy(b"seed-1");
        let mut b = SfsPrg::from_entropy(b"seed-2");
        let mut ba = [0u8; 32];
        let mut bb = [0u8; 32];
        a.fill(&mut ba);
        b.fill(&mut bb);
        assert_ne!(ba, bb);
    }

    #[test]
    fn source_order_matters() {
        let mut p1 = EntropyPool::new();
        p1.add_source(b"a").add_source(b"b");
        let mut p2 = EntropyPool::new();
        p2.add_source(b"b").add_source(b"a");
        assert_ne!(p1.seed(), p2.seed());
    }

    #[test]
    fn source_boundaries_matter() {
        // ("ab", "") vs ("a", "b") must differ (length prefixing).
        let mut p1 = EntropyPool::new();
        p1.add_source(b"ab").add_source(b"");
        let mut p2 = EntropyPool::new();
        p2.add_source(b"a").add_source(b"b");
        assert_ne!(p1.seed(), p2.seed());
    }

    #[test]
    fn output_statistics_sane() {
        // Cheap sanity: 64 KiB of output should have roughly balanced bits.
        let mut prg = SfsPrg::from_entropy(b"stats");
        let mut buf = vec![0u8; 65536];
        prg.fill(&mut buf);
        let ones: u64 = buf.iter().map(|b| b.count_ones() as u64).sum();
        let total = buf.len() as u64 * 8;
        let ratio = ones as f64 / total as f64;
        assert!((0.49..0.51).contains(&ratio), "bit ratio {ratio}");
    }

    #[test]
    fn partial_fills_consume_stream_continuously() {
        let mut a = SfsPrg::from_entropy(b"x");
        let mut b = SfsPrg::from_entropy(b"x");
        let mut out_a = [0u8; 50];
        a.fill(&mut out_a);
        let mut out_b = [0u8; 50];
        b.fill(&mut out_b[..13]);
        b.fill(&mut out_b[13..]);
        assert_eq!(out_a, out_b);
    }

    /// The FIPS 186 step on `Nat`s, as it was computed before the state
    /// became a fixed 512-bit array: the oracle for the wrapping add.
    struct NatPrg {
        xkey: sfs_bignum::Nat,
        pending: Vec<u8>,
    }

    impl NatPrg {
        fn take(&mut self, n: usize) -> Vec<u8> {
            use sfs_bignum::Nat;
            while self.pending.len() < n {
                let mut h = sha1::IV;
                let block = self.xkey.to_bytes_be_padded(SEED_LEN);
                sha1::compress(&mut h, block.as_slice().try_into().unwrap());
                let x: Vec<u8> = h.iter().flat_map(|w| w.to_be_bytes()).collect();
                self.xkey = self
                    .xkey
                    .add_nat(&Nat::from_bytes_be(&x))
                    .add_nat(&Nat::one())
                    .rem_nat(&Nat::one().shl_bits(8 * SEED_LEN))
                    .unwrap();
                self.pending.extend_from_slice(&x);
            }
            self.pending.drain(..n).collect()
        }
    }

    #[test]
    fn the_fixed_width_state_matches_the_nat_reference() {
        // An all-ones seed carries through every byte of XKEY on the first
        // step; the others are ordinary.
        for seed in [[0xff; SEED_LEN], [0; SEED_LEN], EntropyPool::new().seed()] {
            let mut prg = SfsPrg::from_seed(&seed);
            let mut reference = NatPrg {
                xkey: sfs_bignum::Nat::from_bytes_be(&seed),
                pending: Vec::new(),
            };
            for len in (0..400).map(|i| i * 7 % 45) {
                let mut out = vec![0u8; len];
                prg.fill(&mut out);
                assert_eq!(out, reference.take(len), "draw of {len}");
            }
        }
    }

    #[test]
    fn random_below_usable_for_protocols() {
        let mut prg = SfsPrg::from_entropy(b"proto");
        let bound = sfs_bignum::Nat::from(1_000_000u64);
        for _ in 0..50 {
            assert!(prg.random_below(&bound) < bound);
        }
    }
}
