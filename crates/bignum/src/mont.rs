//! Fixed-width Montgomery arithmetic for one odd modulus.
//!
//! Values live in the Montgomery domain (`x·R mod n`, `R = 2^(64k)` for a
//! `k`-limb modulus) as `k`-limb slices, so a modular product is one fused
//! multiply-and-reduce pass over limbs: no division and no `Nat`
//! temporaries. Results leave the domain fully reduced, so they equal what
//! multiply-then-divide computes, bit for bit.
//!
//! The product and the ladder are written once, generic over a width `K`
//! in limbs. At the widths this program's keys use — 4 and 6 limbs, the
//! primes of its 512- and 768-bit Rabin moduli — every limb loop has a
//! constant trip count and every residue lives on the stack; `K = 0` runs
//! the same source at the modulus's run-time length over one heap buffer.

use std::cmp::Ordering;

use crate::nat::{cmp_limbs, sub_limbs, Nat};

/// Longest run of exponent bits consumed per table lookup.
const WINDOW_BITS: usize = 5;

/// The odd powers `base¹, base³, …, base^(2^WINDOW_BITS − 1)`: a sliding
/// window always ends on a set bit.
const TABLE: usize = 1 << (WINDOW_BITS - 1);

/// Residues a ladder holds: the table, the accumulator and its swap
/// partner.
const LADDER_SLOTS: usize = TABLE + 2;

/// Residues a lone product holds: both operands, one in the domain, the
/// result.
const MUL_SLOTS: usize = 4;

/// Calls the width-generic method `$method::<K>` with `$slots` residues
/// of scratch after its arguments: a stack array at the widths the
/// program's keys need, `$heap` (evaluated only there) at any other.
macro_rules! at_width {
    ($self:ident.$method:ident($($arg:expr),*), $slots:expr, $heap:expr) => {
        match $self.n.limbs().len() {
            4 => $self.$method::<4>($($arg,)* [[0; 4]; $slots].as_flattened_mut()),
            6 => $self.$method::<6>($($arg,)* [[0; 6]; $slots].as_flattened_mut()),
            _ => $self.$method::<0>($($arg,)* $heap),
        }
    };
}

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
        let mut rr = rr.limbs().to_vec();
        rr.resize(k, 0);
        Some(Montgomery {
            n: n.clone(),
            n0_inv: inv.wrapping_neg(),
            rr,
        })
    }

    pub(crate) fn modulus(&self) -> &Nat {
        &self.n
    }

    /// Limbs per residue: `K`, or for `K = 0` the modulus's own count.
    fn width<const K: usize>(&self) -> usize {
        if K == 0 {
            self.n.limbs().len()
        } else {
            K
        }
    }

    /// `out = a·b·R⁻¹ mod n` for `a, b < n`; `out` must not alias them.
    fn mul<const K: usize>(&self, out: &mut [u64], a: &[u64], b: &[u64]) {
        let k = self.width::<K>();
        let n = &self.n.limbs()[..k];
        let (out, a, b) = (&mut out[..k], &a[..k], &b[..k]);
        // The first round starts from zero, so `out` needs no clearing.
        let top = self.rounds::<K, true>(out, 0, &a[..1], b);
        let top = self.rounds::<K, false>(out, top, &a[1..], b);
        // `top·R + out < 2n`: one subtraction lands in `[0, n)`.
        if top != 0 || cmp_limbs(out, n) != Ordering::Less {
            sub_limbs(out, n);
        }
    }

    /// One round of [`Self::mul`] per limb of `a`: `top·R + out` becomes
    /// `(top·R + out + a[i]·b + m·n) / 2⁶⁴` for the `m` that makes the low
    /// limb vanish, on two independent carry chains. Returns the new top
    /// word; `FRESH` reads the incoming `out` as zero. Generic over the
    /// width itself, so a compile-time `K` is the limb loop's trip count
    /// whether or not this is inlined.
    fn rounds<const K: usize, const FRESH: bool>(
        &self,
        out: &mut [u64],
        mut top: u64,
        a: &[u64],
        b: &[u64],
    ) -> u64 {
        let k = self.width::<K>();
        let n = &self.n.limbs()[..k];
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

    /// `a·b mod n` for `a, b < n`: into the domain and back out, two
    /// products and no division.
    pub(crate) fn mul_mod(&self, a: &Nat, b: &Nat) -> Nat {
        let k = self.n.limbs().len();
        at_width!(
            self.mul_mod_in(a, b),
            MUL_SLOTS,
            &mut vec![0; MUL_SLOTS * k]
        )
    }

    fn mul_mod_in<const K: usize>(&self, a: &Nat, b: &Nat, scratch: &mut [u64]) -> Nat {
        let k = self.width::<K>();
        let (a_in, rest) = scratch.split_at_mut(k);
        let (b_in, rest) = rest.split_at_mut(k);
        let (a_dom, out) = rest.split_at_mut(k);
        a_in[..a.limbs().len()].copy_from_slice(a.limbs());
        b_in[..b.limbs().len()].copy_from_slice(b.limbs());
        self.mul::<K>(a_dom, a_in, &self.rr);
        self.mul::<K>(out, a_dom, b_in);
        Nat::from_limbs(out[..k].to_vec())
    }

    /// `base^exp mod n`, left to right with a sliding window of up to
    /// [`WINDOW_BITS`] bits over the odd powers. Allocates only its result
    /// (and, at a width without its own instantiation, one scratch buffer).
    pub(crate) fn pow(&self, base: &Nat, exp: &Nat) -> Nat {
        if exp.is_zero() {
            return Nat::one().rem_nat(&self.n).expect("modulus is odd");
        }
        let reduced;
        let base = if *base < self.n {
            base
        } else {
            reduced = base.rem_nat(&self.n).expect("modulus is odd");
            &reduced
        };
        let mut out = vec![0; self.n.limbs().len()];
        self.pow_into(base, exp, &mut out, &mut self.ladder_heap());
        Nat::from_limbs(out)
    }

    /// The scratch [`Self::pow_into`] needs from the heap: nothing at the
    /// widths [`at_width!`] keeps on the stack, `LADDER_SLOTS` residues at
    /// any other.
    pub(crate) fn ladder_heap(&self) -> Vec<u64> {
        match self.n.limbs().len() {
            4 | 6 => Vec::new(),
            k => vec![0; LADDER_SLOTS * k],
        }
    }

    /// [`Self::pow`] for `base < n` and `exp > 0`, written to the `k` limbs
    /// of `out`; `heap` is [`Self::ladder_heap`]'s buffer. Allocates
    /// nothing.
    pub(crate) fn pow_into(&self, base: &Nat, exp: &Nat, out: &mut [u64], heap: &mut [u64]) {
        at_width!(self.ladder(base, exp, out), LADDER_SLOTS, heap)
    }

    /// [`Self::pow_into`] at width `K`, in `LADDER_SLOTS` residues of
    /// `scratch` (any contents).
    fn ladder<const K: usize>(&self, base: &Nat, exp: &Nat, out: &mut [u64], scratch: &mut [u64]) {
        let k = self.width::<K>();
        let (table, rest) = scratch.split_at_mut(TABLE * k);
        let (mut acc, mut next) = rest.split_at_mut(k);

        // table[i] = base^(2i + 1) in the domain; `next` holds base².
        acc.fill(0);
        acc[..base.limbs().len()].copy_from_slice(base.limbs());
        self.mul::<K>(&mut table[..k], acc, &self.rr);
        self.mul::<K>(next, &table[..k], &table[..k]);
        for i in 1..TABLE {
            let (lo, hi) = table.split_at_mut(i * k);
            self.mul::<K>(&mut hi[..k], &lo[(i - 1) * k..], next);
        }
        let entry = |w: usize| &table[(w >> 1) * k..][..k];

        let e = exp.limbs();
        // The leading window is the starting value: no squarings of one.
        let (mut top, w) = window(e, exp.bit_len());
        acc.copy_from_slice(entry(w));
        while top > 0 {
            // A zero bit is one squaring; a window is one squaring per bit
            // and one product by its odd power.
            let (lo, w) = if bits(e, top - 1, 1) == 0 {
                (top - 1, 0)
            } else {
                window(e, top)
            };
            for _ in lo..top {
                self.mul::<K>(next, acc, acc);
                std::mem::swap(&mut acc, &mut next);
            }
            if w != 0 {
                self.mul::<K>(next, acc, entry(w));
                std::mem::swap(&mut acc, &mut next);
            }
            top = lo;
        }
        // Multiplying by plain one leaves the domain; the table is spent.
        let one = &mut table[..k];
        one.fill(0);
        one[0] = 1;
        self.mul::<K>(out, acc, one);
    }
}

/// Bits `lo .. lo + len` of the limbs `e`, for `len ≤ WINDOW_BITS`; the run
/// may straddle a limb boundary.
fn bits(e: &[u64], lo: usize, len: usize) -> usize {
    let limb = |i: usize| e.get(i).map_or(0, |&l| l as u128);
    let pair = limb(lo / 64) | limb(lo / 64 + 1) << 64;
    (pair >> (lo % 64)) as usize & ((1 << len) - 1)
}

/// The window below `top` when bit `top − 1` is set: the longest run of at
/// most [`WINDOW_BITS`] bits ending there whose lowest bit is set too, as
/// `(lowest bit, value)`. The value is odd.
fn window(e: &[u64], top: usize) -> (usize, usize) {
    let lo = top.saturating_sub(WINDOW_BITS);
    let lo = lo + bits(e, lo, top - lo).trailing_zeros() as usize;
    (lo, bits(e, lo, top - lo))
}
