//! Randomness abstraction.
//!
//! SFS derives all protocol randomness from a DSS-style SHA-1 generator
//! seeded from environmental entropy (paper §3.1.3). That generator lives in
//! `sfs-crypto`; this trait is the seam that lets prime generation and
//! Miller–Rabin draw from it without a dependency cycle.

/// A source of random bytes.
pub trait RandomSource {
    /// Fills `buf` with random bytes.
    fn fill(&mut self, buf: &mut [u8]);

    /// Returns a uniformly random `Nat`-compatible value below `2^bits`.
    fn random_bits(&mut self, bits: usize) -> crate::Nat {
        let nbytes = bits.div_ceil(8);
        let mut buf = vec![0u8; nbytes];
        self.fill(&mut buf);
        let extra = nbytes * 8 - bits;
        if extra > 0 {
            buf[0] &= 0xff >> extra;
        }
        crate::Nat::from_bytes_be(&buf)
    }

    /// Returns a uniformly random value in `[0, bound)` by rejection
    /// sampling.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    fn random_below(&mut self, bound: &crate::Nat) -> crate::Nat {
        assert!(!bound.is_zero(), "random_below with zero bound");
        let bits = bound.bit_len();
        loop {
            let candidate = self.random_bits(bits);
            if &candidate < bound {
                return candidate;
            }
        }
    }
}

/// A fast deterministic xorshift-based source for tests and workload
/// generation. Not cryptographic.
#[derive(Debug, Clone)]
pub struct XorShiftSource {
    state: u64,
}

impl XorShiftSource {
    /// Creates a source from a seed. The seed is diffused through a
    /// SplitMix64 step so that *every* distinct seed yields a distinct
    /// stream (a plain `seed | 1` would collapse adjacent seeds).
    pub fn new(seed: u64) -> Self {
        let mut z = seed.wrapping_add(0x9E3779B97F4A7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^= z >> 31;
        XorShiftSource { state: z | 1 }
    }

    /// The next 64-bit draw: what [`RandomSource::fill`] writes, little
    /// endian, into each 8-byte chunk.
    pub fn next_u64(&mut self) -> u64 {
        // xorshift64* (Vigna).
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// `next_u64() % n`: a draw below `n` (modulo-biased, which no caller
    /// of a test or workload generator minds). Panics if `n` is zero.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

impl RandomSource for XorShiftSource {
    fn fill(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let v = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
    }
}

/// Wraps another source and counts bytes drawn; used by tests asserting that
/// protocols consume entropy where the paper says they do.
#[cfg(test)]
pub(crate) struct CountingSource<S> {
    inner: S,
    bytes: u64,
}

#[cfg(test)]
impl<S: RandomSource> CountingSource<S> {
    /// Wraps `inner`.
    pub(crate) fn new(inner: S) -> Self {
        CountingSource { inner, bytes: 0 }
    }

    /// Total bytes drawn so far.
    pub(crate) fn bytes_drawn(&self) -> u64 {
        self.bytes
    }

    /// Unwraps the inner source.
    pub(crate) fn into_inner(self) -> S {
        self.inner
    }
}

#[cfg(test)]
impl<S: RandomSource> RandomSource for CountingSource<S> {
    fn fill(&mut self, buf: &mut [u8]) {
        self.bytes += buf.len() as u64;
        self.inner.fill(buf);
    }
}

impl<S: RandomSource + ?Sized> RandomSource for &mut S {
    fn fill(&mut self, buf: &mut [u8]) {
        (**self).fill(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Nat;

    #[test]
    fn random_bits_respects_bound() {
        let mut src = XorShiftSource::new(42);
        for bits in [1usize, 7, 8, 9, 63, 64, 65, 160] {
            for _ in 0..20 {
                let v = src.random_bits(bits);
                assert!(v.bit_len() <= bits, "bits={bits} v={v:?}");
            }
        }
    }

    #[test]
    fn random_below_in_range() {
        let mut src = XorShiftSource::new(7);
        let bound = Nat::from(1000u64);
        for _ in 0..100 {
            let v = src.random_below(&bound);
            assert!(v < bound);
        }
    }

    #[test]
    fn counting_source_counts() {
        let mut src = CountingSource::new(XorShiftSource::new(1));
        let mut buf = [0u8; 10];
        src.fill(&mut buf);
        src.fill(&mut buf[..3]);
        assert_eq!(src.bytes_drawn(), 13);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = XorShiftSource::new(99);
        let mut b = XorShiftSource::new(99);
        let mut ba = [0u8; 32];
        let mut bb = [0u8; 32];
        a.fill(&mut ba);
        b.fill(&mut bb);
        assert_eq!(ba, bb);
    }

    #[test]
    fn next_u64_is_an_eight_byte_fill() {
        // Callers that drew `u64::from_le_bytes` of an 8-byte `fill` keep
        // their streams when they call `next_u64` or `below` instead.
        let (mut a, mut b) = (XorShiftSource::new(5), XorShiftSource::new(5));
        for n in [1u64, 7, 1 << 40, u64::MAX] {
            let mut buf = [0u8; 8];
            a.fill(&mut buf);
            assert_eq!(u64::from_le_bytes(buf) % n, b.below(n));
            a.fill(&mut buf);
            assert_eq!(buf, b.next_u64().to_le_bytes());
        }
    }
}
