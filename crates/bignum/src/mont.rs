//! Fixed-width Montgomery arithmetic for one odd modulus.
//!
//! Values live in the Montgomery domain (`x·R mod n`, `R = 2^(64k)` for a
//! `k`-limb modulus) as `k`-limb slices, so a modular product is one fused
//! multiply-and-reduce pass over limbs: no division and no `Nat`
//! temporaries. Results leave the domain fully reduced, so they equal what
//! multiply-then-divide computes, bit for bit.

use std::cmp::Ordering;

use crate::nat::{cmp_limbs, sub_limbs, Nat};

/// Bits of exponent consumed per table lookup.
const WINDOW_BITS: usize = 4;

/// Precomputed constants for arithmetic modulo an odd `n`.
#[derive(Clone)]
pub(crate) struct Montgomery {
    n: Nat,
    /// `-n⁻¹ mod 2⁶⁴`.
    n0_inv: u64,
    /// `R² mod n`, padded to `k` limbs: multiplying by it enters the domain.
    rr: Vec<u64>,
}

impl Montgomery {
    /// Prepares arithmetic modulo `n`; `None` when `n` is even (no inverse
    /// of `n` modulo `2⁶⁴` exists) or zero.
    pub(crate) fn new(n: &Nat) -> Option<Montgomery> {
        if n.is_even() {
            return None;
        }
        let k = n.limbs().len();
        let n0 = n.limbs()[0];
        // Newton iteration doubles the correct low bits each round; an odd
        // n0 is its own inverse modulo 8.
        let mut inv = n0;
        for _ in 0..5 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(n0.wrapping_mul(inv)));
        }
        let rr = Nat::one()
            .shl_bits(128 * k)
            .rem_nat(n)
            .expect("an odd modulus is nonzero");
        Some(Montgomery {
            n: n.clone(),
            n0_inv: inv.wrapping_neg(),
            rr: padded(&rr, k),
        })
    }

    pub(crate) fn modulus(&self) -> &Nat {
        &self.n
    }

    /// `out = a·b·R⁻¹ mod n` for `a, b < n`; `out` must not alias them.
    fn mul(&self, out: &mut [u64], a: &[u64], b: &[u64]) {
        let k = self.n.limbs().len();
        let (out, a, b) = (&mut out[..k], &a[..k], &b[..k]);
        // The first round starts from zero, so `out` needs no clearing.
        let top = self.rounds::<true>(out, 0, &a[..1], b);
        let top = self.rounds::<false>(out, top, &a[1..], b);
        // `top·R + out < 2n`: one subtraction lands in `[0, n)`.
        if top != 0 || cmp_limbs(out, self.n.limbs()) != Ordering::Less {
            sub_limbs(out, self.n.limbs());
        }
    }

    /// One round of [`Self::mul`] per limb of `a`: `top·R + out` becomes
    /// `(top·R + out + a[i]·b + m·n) / 2⁶⁴` for the `m` that makes the low
    /// limb vanish, on two independent carry chains. Returns the new top
    /// word; `FRESH` reads the incoming `out` as zero.
    fn rounds<const FRESH: bool>(
        &self,
        out: &mut [u64],
        mut top: u64,
        a: &[u64],
        b: &[u64],
    ) -> u64 {
        let n = self.n.limbs();
        let k = n.len();
        let (out, b) = (&mut out[..k], &b[..k]);
        let prev = |o: u64| if FRESH { 0 } else { o as u128 };
        for &ai in a {
            let x = prev(out[0]) + ai as u128 * b[0] as u128;
            let m = (x as u64).wrapping_mul(self.n0_inv);
            let y = (x as u64) as u128 + m as u128 * n[0] as u128;
            let (mut c1, mut c2) = (x >> 64, y >> 64);
            for j in 1..k {
                let x = prev(out[j]) + ai as u128 * b[j] as u128 + c1;
                c1 = x >> 64;
                let y = (x as u64) as u128 + m as u128 * n[j] as u128 + c2;
                c2 = y >> 64;
                out[j - 1] = y as u64;
            }
            let s = top as u128 + c1 + c2;
            out[k - 1] = s as u64;
            top = (s >> 64) as u64;
        }
        top
    }

    /// `base^exp mod n`, left to right with a fixed 4-bit window. The
    /// window table and scratch are allocated once; the loop itself
    /// allocates nothing.
    pub(crate) fn pow(&self, base: &Nat, exp: &Nat) -> Nat {
        let k = self.n.limbs().len();
        let base = if *base < self.n {
            padded(base, k)
        } else {
            padded(&base.rem_nat(&self.n).expect("modulus is odd"), k)
        };
        let mut one = vec![0u64; k];
        one[0] = 1;

        // table[w] = base^w in the domain.
        let mut table = vec![0u64; (1 << WINDOW_BITS) * k];
        self.mul(&mut table[..k], &one, &self.rr);
        self.mul(&mut table[k..2 * k], &base, &self.rr);
        for w in 2..1 << WINDOW_BITS {
            let (lo, hi) = table.split_at_mut(w * k);
            self.mul(hi, &lo[(w - 1) * k..], &lo[k..2 * k]);
        }
        let entry = |w: usize| &table[w * k..(w + 1) * k];
        let window = |i: usize| {
            let bit = i * WINDOW_BITS;
            (exp.limbs()[bit / 64] >> (bit % 64)) as usize & ((1 << WINDOW_BITS) - 1)
        };

        let windows = exp.bit_len().div_ceil(WINDOW_BITS);
        let mut acc = vec![0u64; k];
        let mut next = vec![0u64; k];
        // The leading window is the starting value: no squarings of one.
        let lead = if windows == 0 { 0 } else { window(windows - 1) };
        acc.copy_from_slice(entry(lead));
        for i in (0..windows.saturating_sub(1)).rev() {
            for _ in 0..WINDOW_BITS {
                self.mul(&mut next, &acc, &acc);
                std::mem::swap(&mut acc, &mut next);
            }
            let w = window(i);
            if w != 0 {
                self.mul(&mut next, &acc, entry(w));
                std::mem::swap(&mut acc, &mut next);
            }
        }
        // Multiplying by plain one leaves the domain.
        self.mul(&mut next, &acc, &one);
        Nat::from_limbs(next)
    }
}

/// The limbs of `v` zero-extended to `k`.
fn padded(v: &Nat, k: usize) -> Vec<u64> {
    let mut limbs = v.limbs().to_vec();
    limbs.resize(k, 0);
    limbs
}
