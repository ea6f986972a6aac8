//! Hexadecimal digits of π.
//!
//! Blowfish's P-array and S-boxes are, by definition, the first 18 + 4·256
//! 32-bit words of the fractional hexadecimal expansion of π. Rather than
//! embedding four kilobytes of opaque constants, this module computes them
//! with Machin's formula over the crate's own fixed-point arithmetic
//! (`sfs-bignum`), which both shrinks the trusted base and gives the tables
//! an independent correctness check (the first words are verified against
//! the published expansion in tests, and Blowfish's known-answer tests
//! transitively verify the rest).

use std::sync::OnceLock;

use sfs_bignum::Nat;

/// Number of 32-bit words of π Blowfish needs (18 P-words + 4×256 S-words).
pub(crate) const BLOWFISH_WORDS: usize = 18 + 4 * 256;

/// Guard bits beyond the requested precision to absorb truncation error.
const GUARD_BITS: usize = 128;

/// Computes `arctan(1/x)` in fixed point with `prec` fractional bits,
/// truncated (error < 1 ulp per term, absorbed by guard bits).
fn arctan_inv(x: u64, prec: usize) -> Nat {
    let scale = Nat::one().shl_bits(prec);
    let x2 = x * x;
    let mut power = scale.div_rem_u64(x).0; // 1/x
    let mut sum = Nat::zero();
    let mut k: u64 = 0;
    let mut add = true;
    while !power.is_zero() {
        let term = power.div_rem_u64(2 * k + 1).0;
        if add {
            sum = sum.add_nat(&term);
        } else {
            // The alternating series is positive and decreasing, so the
            // running sum never underflows.
            sum = sum
                .checked_sub(&term)
                .expect("alternating series underflow");
        }
        power = power.div_rem_u64(x2).0;
        add = !add;
        k += 1;
    }
    sum
}

/// Computes π in fixed point with `prec` fractional bits (integer part
/// included), using Machin's formula π = 16·arctan(1/5) − 4·arctan(1/239).
fn pi_fixed(prec: usize) -> Nat {
    let p = prec + GUARD_BITS;
    let at5 = arctan_inv(5, p);
    let at239 = arctan_inv(239, p);
    let pi = at5
        .shl_bits(4)
        .checked_sub(&at239.shl_bits(2))
        .expect("Machin combination underflow");
    pi.shr_bits(GUARD_BITS)
}

/// Returns the first `n` 32-bit words of the *fractional* hexadecimal
/// expansion of π (i.e. starting `243F6A88, 85A308D3, …`).
pub(crate) fn pi_fraction_words(n: usize) -> Vec<u32> {
    let prec = n * 32;
    let pi = pi_fixed(prec);
    // Remove the integer part (3) to keep only the fraction.
    let three = Nat::from(3u64).shl_bits(prec);
    let frac = pi.checked_sub(&three).expect("pi < 3?");
    let bytes = frac.to_bytes_be_padded(prec / 8);
    bytes
        .chunks(4)
        .map(|c| u32::from_be_bytes(c.try_into().unwrap()))
        .collect()
}

/// The Blowfish constant words, computed once and cached.
pub(crate) fn blowfish_words() -> &'static [u32; BLOWFISH_WORDS] {
    static WORDS: OnceLock<Box<[u32; BLOWFISH_WORDS]>> = OnceLock::new();
    WORDS.get_or_init(|| {
        let v = pi_fraction_words(BLOWFISH_WORDS);
        let arr: Box<[u32; BLOWFISH_WORDS]> =
            v.into_boxed_slice().try_into().expect("length mismatch");
        arr
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_words_match_published_expansion() {
        // π = 3.243F6A88 85A308D3 13198A2E 03707344 A4093822 299F31D0 …
        let w = pi_fraction_words(8);
        assert_eq!(
            w,
            vec![
                0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344, 0xA4093822, 0x299F31D0, 0x082EFA98,
                0xEC4E6C89,
            ]
        );
    }

    #[test]
    fn prefix_stability() {
        // Computing more digits must not change earlier ones (guard bits are
        // sufficient).
        let short = pi_fraction_words(16);
        let long = pi_fraction_words(64);
        assert_eq!(&long[..16], &short[..]);
    }

    #[test]
    fn blowfish_words_cached_and_sized() {
        let w1 = blowfish_words();
        let w2 = blowfish_words();
        assert!(std::ptr::eq(w1, w2));
        assert_eq!(w1.len(), 1042);
        assert_eq!(w1[0], 0x243F6A88);
    }

    #[test]
    fn arctan_one_fifth_sane() {
        // arctan(0.2) ≈ 0.19739555984988... Check 32-bit fixed point.
        let v = arctan_inv(5, 32).to_u64().unwrap();
        let expect = (0.19739555984988f64 * 4294967296.0) as u64;
        assert!(
            (v as i64 - expect as i64).unsigned_abs() < 4,
            "{v} vs {expect}"
        );
    }
}
