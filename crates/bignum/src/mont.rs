//! Fixed-width Montgomery arithmetic for one odd modulus.
//!
//! Values live in the Montgomery domain (`x·R mod n`, `R = 2^(64k)` for a
//! `k`-limb modulus) as `k`-limb slices, so a modular product is one fused
//! multiply-and-reduce pass over limbs: no division and no `Nat`
//! temporaries. Results leave the domain fully reduced, so they equal what
//! multiply-then-divide computes, bit for bit.
//!
//! The kernels are written once, generic over a width `K` in limbs. At the
//! widths this program's keys use — 4 and 6 limbs, the primes of its 512-
//! and 768-bit Rabin moduli, and 8 and 12, the moduli themselves — every
//! limb loop has a constant trip count and every residue lives on the
//! stack; `K = 0` runs the same source at the modulus's run-time length
//! over one heap buffer.

use std::cmp::Ordering;

use crate::nat::{add_limbs, cmp_limbs, limbs_from_be, limbs_to_be, sub_limbs, Nat};

/// Longest run of exponent bits consumed per table lookup.
const WINDOW_BITS: usize = 5;

/// The odd powers `base¹, base³, …, base^(2^WINDOW_BITS − 1)`: a sliding
/// window always ends on a set bit.
const TABLE: usize = 1 << (WINDOW_BITS - 1);

/// Residues a ladder holds: the table, the accumulator and its swap
/// partner.
pub(crate) const LADDER_SLOTS: usize = TABLE + 2;

/// Residues a lone product holds: an operand, the other in the domain,
/// and the result.
const MUL_SLOTS: usize = 3;

/// Residues the strong Lucas chain holds: `U`, `V`, `Q^k`, the
/// constants `D` and `Q`, and one product's destination.
const LUCAS_SLOTS: usize = 6;

/// Calls the width-generic function `$f::<K>` with `$slots` residues of
/// scratch after its arguments: a stack array when `$width` is one the
/// program's keys use, `$heap` (evaluated only there) at any other.
macro_rules! at_width {
    ($width:expr, $($f:ident)::+($($arg:expr),*), $slots:expr, $heap:expr) => {
        match $width {
            4 => $($f)::+::<4>($($arg,)* [[0; 4]; $slots].as_flattened_mut()),
            6 => $($f)::+::<6>($($arg,)* [[0; 6]; $slots].as_flattened_mut()),
            8 => $($f)::+::<8>($($arg,)* [[0; 8]; $slots].as_flattened_mut()),
            12 => $($f)::+::<12>($($arg,)* [[0; 12]; $slots].as_flattened_mut()),
            _ => $($f)::+::<0>($($arg,)* $heap),
        }
    };
}
pub(crate) use at_width;

/// Precomputed constants for arithmetic modulo an odd `n`: what a Rabin
/// public key squares with, and what each prime of a private key takes
/// roots and recombines with.
#[derive(Clone)]
pub struct Montgomery {
    n: Nat,
    /// `-n⁻¹ mod 2⁶⁴`.
    n0_inv: u64,
    /// `R² mod n`, padded to `k` limbs: multiplying by it enters the domain.
    rr: Vec<u64>,
}

impl Montgomery {
    /// Prepares arithmetic modulo `n`; `None` when `n` is even (no inverse
    /// of `n` modulo `2⁶⁴` exists) or zero. Allocates only what it keeps.
    pub fn new(n: &Nat) -> Option<Montgomery> {
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
        let mut mont = Montgomery {
            n: n.clone(),
            n0_inv: inv.wrapping_neg(),
            rr: Vec::new(),
        };
        let mut rr = vec![0; k];
        at_width!(k, Self::r_squared(&mont, &mut rr), 1, &mut vec![0; k]);
        mont.rr = rr;
        Some(mont)
    }

    /// The modulus.
    pub(crate) fn modulus(&self) -> &Nat {
        &self.n
    }

    /// Limbs per residue: `K`, or for `K = 0` the modulus's own count.
    pub(crate) fn width<const K: usize>(&self) -> usize {
        if K == 0 {
            self.n.limbs().len()
        } else {
            K
        }
    }

    /// `out = R² mod n` without a division: `2^(s−1)`, the power of two
    /// just below an `s`-bit `n`, doubled up to `R mod n` (the domain's
    /// one) and `m` times more, then squared `e` times in the domain,
    /// where `64k = m·2^e` with `m` odd: the domain form of `2^(64k)`,
    /// which is `R²`. `tmp` is one residue of scratch.
    fn r_squared<const K: usize>(&self, out: &mut [u64], tmp: &mut [u64]) {
        let k = self.width::<K>();
        let (out, tmp) = (&mut out[..k], &mut tmp[..k]);
        out.fill(0);
        // Modulo one every residue is zero.
        if !self.n.is_one() {
            let top = self.n.bit_len() - 1;
            out[top / 64] = 1 << (top % 64);
            let m = k >> k.trailing_zeros();
            for _ in 0..64 * k - top + m {
                self.double_mod::<K>(out);
            }
        }
        for _ in 0..6 + k.trailing_zeros() {
            tmp.copy_from_slice(out);
            self.mul::<K>(out, tmp, tmp);
        }
    }

    /// `out = a·b·R⁻¹ mod n` for `a < R` and `b < n`; `out` must not alias
    /// them.
    pub(crate) fn mul<const K: usize>(&self, out: &mut [u64], a: &[u64], b: &[u64]) {
        let k = self.width::<K>();
        let n = &self.n.limbs()[..k];
        let (out, a, b) = (&mut out[..k], &a[..k], &b[..k]);
        // The first round starts from zero, so `out` needs no clearing.
        let top = self.rounds::<K, true>(out, 0, &a[..1], b);
        let top = self.rounds::<K, false>(out, top, &a[1..], b);
        // `top·R + out = (a·b + M·n)/R < 2n`: one subtraction lands in
        // `[0, n)`.
        if top != 0 || cmp_limbs(out, n) != Ordering::Less {
            sub_limbs(out, n);
        }
    }

    /// Scratch limbs [`Self::reduce`] needs for an input of `len` limbs.
    pub(crate) fn reduce_limbs(&self, len: usize) -> usize {
        let k = self.n.limbs().len();
        len.div_ceil(k).max(2) * k
    }

    /// `out = wide mod n`, fully reduced, for a `wide` of any length: REDC
    /// clears its limbs below the top `k` — dividing by a power of `R` —
    /// and as many products by `R²` put that power back. No division, and
    /// a fixed sequence of passes for a given input length: for up to `2k`
    /// limbs, one REDC and one product. `t` is [`Self::reduce_limbs`] of
    /// scratch (any contents).
    pub(crate) fn reduce<const K: usize>(&self, wide: &[u64], out: &mut [u64], t: &mut [u64]) {
        let k = self.width::<K>();
        let n = &self.n.limbs()[..k];
        let chunks = wide.len().div_ceil(k).max(2);
        let t = &mut t[..chunks * k];
        t[..wide.len()].copy_from_slice(wide);
        t[wide.len()..].fill(0);
        let rounds = (chunks - 1) * k;
        // Round i adds the multiple of n that clears limb i; `carry` is
        // what overflows limb i + k, for the next round to fold in.
        let mut carry = 0u64;
        for i in 0..rounds {
            let m = t[i].wrapping_mul(self.n0_inv);
            let mut c = 0u128;
            for (tj, &nj) in t[i..i + k].iter_mut().zip(n) {
                let x = *tj as u128 + m as u128 * nj as u128 + c;
                *tj = x as u64;
                c = x >> 64;
            }
            let x = t[i + k] as u128 + c + carry as u128;
            t[i + k] = x as u64;
            carry = (x >> 64) as u64;
        }
        // What is left is below R + n; a carry out of the top is one R
        // too many, and the subtraction wraps it to the value less n.
        let v = &mut t[rounds..];
        if carry != 0 {
            sub_limbs(v, n);
        }
        for step in 1..chunks {
            self.mul::<K>(out, v, &self.rr);
            if step + 1 < chunks {
                v.copy_from_slice(&out[..k]);
            }
        }
    }

    /// `out = x² mod n`, big-endian, for a big-endian `x` below `R`: into
    /// the domain and back, two products and no division. Allocates nothing
    /// at the stack widths (4, 6, 8 and 12 limbs).
    ///
    /// # Panics
    ///
    /// Panics if `x` does not fit in the modulus's limbs, or the result in
    /// `out`.
    pub fn square_be(&self, x: &[u8], out: &mut [u8]) {
        let k = self.n.limbs().len();
        at_width!(
            k,
            Self::square_in(self, x, out),
            MUL_SLOTS,
            &mut vec![0; MUL_SLOTS * k]
        )
    }

    fn square_in<const K: usize>(&self, x: &[u8], out: &mut [u8], scratch: &mut [u64]) {
        let k = self.width::<K>();
        let (x_in, rest) = scratch.split_at_mut(k);
        let (sq, tmp) = rest.split_at_mut(k);
        limbs_from_be(x, x_in);
        self.square::<K>(sq, x_in, tmp);
        limbs_to_be(sq, out);
    }

    /// `out = a² mod n` for `a < R`; `tmp` is one residue of scratch.
    pub(crate) fn square<const K: usize>(&self, out: &mut [u64], a: &[u64], tmp: &mut [u64]) {
        self.mul::<K>(tmp, a, &self.rr);
        self.mul::<K>(out, a, tmp);
    }

    /// `out = c·x mod n`, big-endian, for a big-endian `x` below `R` and a
    /// small signed `c` (`|c| < n`). Allocates nothing at the stack
    /// widths (4, 6, 8 and 12 limbs).
    ///
    /// # Panics
    ///
    /// As [`Self::square_be`].
    pub fn mul_small_be(&self, x: &[u8], c: i64, out: &mut [u8]) {
        let k = self.n.limbs().len();
        at_width!(
            k,
            Self::mul_small_in(self, x, c, out),
            // One more to enter `c` through.
            MUL_SLOTS + 1,
            &mut vec![0; (MUL_SLOTS + 1) * k]
        )
    }

    fn mul_small_in<const K: usize>(&self, x: &[u8], c: i64, out: &mut [u8], scratch: &mut [u64]) {
        let k = self.width::<K>();
        let (x_in, rest) = scratch.split_at_mut(k);
        let (c_dom, rest) = rest.split_at_mut(k);
        let (prod, tmp) = rest.split_at_mut(k);
        limbs_from_be(x, x_in);
        self.enter_small::<K>(c_dom, c, tmp);
        self.mul::<K>(prod, x_in, c_dom);
        limbs_to_be(prod, out);
    }

    /// `a = a·b mod n` for `a, b < R`, in `a`'s own storage: no allocation
    /// once it has room for `k` limbs (a root has).
    pub(crate) fn mul_assign(&self, a: &mut Nat, b: &Nat) {
        let k = self.n.limbs().len();
        a.map_limbs(k, |a| {
            at_width!(
                k,
                Self::mul_assign_in(self, a, b.limbs()),
                MUL_SLOTS,
                &mut vec![0; MUL_SLOTS * k]
            )
        });
    }

    fn mul_assign_in<const K: usize>(&self, a: &mut [u64], b: &[u64], scratch: &mut [u64]) {
        let k = self.width::<K>();
        let (b_in, rest) = scratch.split_at_mut(k);
        let (a_dom, prod) = rest.split_at_mut(k);
        b_in.fill(0);
        b_in[..b.len()].copy_from_slice(b);
        self.mul::<K>(a_dom, a, &self.rr);
        self.mul::<K>(prod, b_in, a_dom);
        a[..k].copy_from_slice(&prod[..k]);
    }

    /// `a·b mod n` for `a, b < R`: into the domain and back, two products
    /// and no division.
    pub(crate) fn mul_mod(&self, a: &Nat, b: &Nat) -> Nat {
        let mut out = a.clone();
        self.mul_assign(&mut out, b);
        out
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
        let k = self.n.limbs().len();
        let mut out = vec![0; k];
        at_width!(
            k,
            Self::ladder(self, base.limbs(), exp, &mut out),
            LADDER_SLOTS,
            &mut vec![0; LADDER_SLOTS * k]
        );
        Nat::from_limbs(out)
    }

    /// Whether `n` passes the strong Lucas test with `P = 1` and
    /// `Q = (1 − d)/4`, where `d` is Selfridge's `D` (its Jacobi symbol
    /// modulo `n` is −1) and `n + 1 = exp·2^s` with `exp` odd: `U_exp ≡ 0`,
    /// or `V_(exp·2^r) ≡ 0` for some `r < s`. Every prime `n` prime to
    /// `2QD` passes. Allocates nothing at the widths [`at_width!`] keeps
    /// on the stack.
    pub(crate) fn strong_lucas(&self, d: i64, exp: &Nat, s: usize) -> bool {
        let k = self.n.limbs().len();
        at_width!(
            k,
            Self::lucas(self, d, exp, s),
            LUCAS_SLOTS,
            &mut vec![0; LUCAS_SLOTS * k]
        )
    }

    /// [`Self::strong_lucas`] at width `K`, in `LUCAS_SLOTS` residues of
    /// `scratch` (any contents). All values stay in the domain: the sums
    /// and halvings the chain takes are linear, so they commute with the
    /// factor `R`, and zero is zero in either.
    fn lucas<const K: usize>(&self, d: i64, exp: &Nat, s: usize, scratch: &mut [u64]) -> bool {
        let k = self.width::<K>();
        let (mut u, rest) = scratch.split_at_mut(k);
        let (mut v, rest) = rest.split_at_mut(k);
        let (mut qk, rest) = rest.split_at_mut(k);
        let (dd, rest) = rest.split_at_mut(k);
        let (qq, rest) = rest.split_at_mut(k);
        let mut next = &mut rest[..k];

        self.enter_small::<K>(dd, d, next);
        self.enter_small::<K>(qq, (1 - d) / 4, next);
        // U_1 = 1, V_1 = P = 1, Q^1 = Q.
        self.enter_small::<K>(u, 1, next);
        v.copy_from_slice(u);
        qk.copy_from_slice(qq);

        let e = exp.limbs();
        for i in (0..exp.bit_len() - 1).rev() {
            // U_2k = U_k·V_k, V_2k = V_k² − 2Q^k, Q^2k = (Q^k)².
            self.mul::<K>(next, u, v);
            std::mem::swap(&mut u, &mut next);
            self.double_v::<K>(&mut v, &mut qk, &mut next);
            if bits(e, i, 1) == 1 {
                // U_2k+1 = (P·U + V)/2, V_2k+1 = (D·U + P·V)/2.
                self.mul::<K>(next, dd, u);
                self.add_mod::<K>(u, v);
                self.half_mod::<K>(u);
                self.add_mod::<K>(next, v);
                self.half_mod::<K>(next);
                std::mem::swap(&mut v, &mut next);
                self.mul::<K>(next, qk, qq);
                std::mem::swap(&mut qk, &mut next);
            }
        }
        let zero = |x: &[u64]| x.iter().all(|&l| l == 0);
        if zero(u) || zero(v) {
            return true;
        }
        for _ in 1..s {
            self.double_v::<K>(&mut v, &mut qk, &mut next);
            if zero(v) {
                return true;
            }
        }
        false
    }

    /// The chain's doubling of `V` and `Q^k`: `V ← V² − 2Q^k`,
    /// `Q^k ← (Q^k)²`, through `next`.
    fn double_v<'s, const K: usize>(
        &self,
        v: &mut &'s mut [u64],
        qk: &mut &'s mut [u64],
        next: &mut &'s mut [u64],
    ) {
        self.mul::<K>(next, v, v);
        self.sub_mod::<K>(next, qk);
        self.sub_mod::<K>(next, qk);
        std::mem::swap(v, next);
        self.mul::<K>(next, qk, qk);
        std::mem::swap(qk, next);
    }

    /// `out = v·R mod n` for a small signed `v`; `tmp` is one residue of
    /// scratch.
    fn enter_small<const K: usize>(&self, out: &mut [u64], v: i64, tmp: &mut [u64]) {
        let k = self.width::<K>();
        let (out, tmp) = (&mut out[..k], &mut tmp[..k]);
        tmp.fill(0);
        // Below n already unless n is a single limb.
        tmp[0] = match k {
            1 => v.unsigned_abs() % self.n.limbs()[0],
            _ => v.unsigned_abs(),
        };
        self.mul::<K>(out, tmp, &self.rr);
        if v < 0 {
            tmp.copy_from_slice(out);
            out.fill(0);
            self.sub_mod::<K>(out, tmp);
        }
    }

    /// `a = a + b mod n` for `a, b < n`.
    fn add_mod<const K: usize>(&self, a: &mut [u64], b: &[u64]) {
        let k = self.width::<K>();
        let (a, n) = (&mut a[..k], &self.n.limbs()[..k]);
        if add_limbs(a, &b[..k]) || cmp_limbs(a, n) != Ordering::Less {
            sub_limbs(a, n);
        }
    }

    /// `a = a − b mod n` for `a, b < n`.
    pub(crate) fn sub_mod<const K: usize>(&self, a: &mut [u64], b: &[u64]) {
        let k = self.width::<K>();
        let a = &mut a[..k];
        if sub_limbs(a, &b[..k]) {
            add_limbs(a, &self.n.limbs()[..k]);
        }
    }

    /// `a = 2a mod n` for `a < n`.
    fn double_mod<const K: usize>(&self, a: &mut [u64]) {
        let k = self.width::<K>();
        let (a, n) = (&mut a[..k], &self.n.limbs()[..k]);
        let mut carry = 0;
        for l in a.iter_mut() {
            let top = *l >> 63;
            *l = (*l << 1) | carry;
            carry = top;
        }
        if carry != 0 || cmp_limbs(a, n) != Ordering::Less {
            sub_limbs(a, n);
        }
    }

    /// `a = a/2 mod n` for `a < n`: `(a + n·[a odd]) / 2`, the carry out
    /// of the sum shifted back in at the top.
    fn half_mod<const K: usize>(&self, a: &mut [u64]) {
        let k = self.width::<K>();
        let a = &mut a[..k];
        let mut carry = a[0] & 1 == 1 && add_limbs(a, &self.n.limbs()[..k]);
        for l in a.iter_mut().rev() {
            let low = *l & 1 == 1;
            *l = (*l >> 1) | (carry as u64) << 63;
            carry = low;
        }
    }

    /// `out = base^exp mod n` for `base < R` (at most `k` limbs) and
    /// `exp > 0`, at width `K`, in `LADDER_SLOTS` residues of `scratch`
    /// (any contents). Allocates nothing.
    pub(crate) fn ladder<const K: usize>(
        &self,
        base: &[u64],
        exp: &Nat,
        out: &mut [u64],
        scratch: &mut [u64],
    ) {
        let k = self.width::<K>();
        let (table, rest) = scratch.split_at_mut(TABLE * k);
        let (mut acc, mut next) = rest.split_at_mut(k);

        // table[i] = base^(2i + 1) in the domain; `next` holds base².
        acc.fill(0);
        acc[..base.len()].copy_from_slice(base);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RandomSource, XorShiftSource};

    /// A random value of exactly `limbs` limbs (zero for none).
    fn random(rng: &mut XorShiftSource, limbs: usize) -> Nat {
        let mut bytes = vec![0u8; 8 * limbs];
        rng.fill(&mut bytes);
        if let Some(top) = bytes.first_mut() {
            *top |= 0x80;
        }
        Nat::from_bytes_be(&bytes)
    }

    /// `wide mod n` through the dispatch production uses: the stack
    /// widths for inputs of up to `2k` limbs, the heap path past them.
    fn reduced(mont: &Montgomery, wide: &Nat) -> Nat {
        let k = mont.modulus().limbs().len();
        let mut out = vec![0; k];
        let mut heap = vec![0; mont.reduce_limbs(wide.limbs().len())];
        if wide.limbs().len() <= 2 * k {
            at_width!(
                k,
                Montgomery::reduce(mont, wide.limbs(), &mut out),
                2,
                &mut heap
            )
        } else {
            Montgomery::reduce::<0>(mont, wide.limbs(), &mut out, &mut heap)
        }
        Nat::from_limbs(out)
    }

    #[test]
    fn the_montgomery_entry_matches_division_at_every_width() {
        let mut rng = XorShiftSource::new(0x4ED0);
        // 4, 6, 8 and 12 run on the stack, the rest on the heap.
        for k in [1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 16] {
            for _ in 0..4 {
                let n = &random(&mut rng, k) | &Nat::one();
                let mont = Montgomery::new(&n).expect("odd");
                let r = Nat::one().shl_bits(64 * k);
                assert_eq!(
                    Nat::from_limbs(mont.rr.clone()),
                    r.square().rem_nat(&n).unwrap(),
                    "R² mod n at {k} limbs"
                );
                let one = Nat::one();
                let n_minus_1 = n.checked_sub(&one).unwrap();
                let mut inputs = vec![
                    Nat::zero(),
                    n_minus_1.clone(),
                    n.clone(),
                    n.mul_u64(3),
                    n.mul_u64(u64::MAX),
                    n.square().checked_sub(&one).unwrap(),
                    // The largest input of two chunks: every limb saturated.
                    r.square().checked_sub(&one).unwrap(),
                    // Past two chunks: the heap path's extra REDC passes.
                    random(&mut rng, 3 * k),
                    random(&mut rng, 4 * k + 1),
                ];
                inputs.extend((0..=2 * k).map(|limbs| random(&mut rng, limbs)));
                for wide in &inputs {
                    let (_, want) = wide.div_rem(&n).unwrap();
                    assert_eq!(reduced(&mont, wide), want, "{wide:?} mod {n:?}");
                }
                // The byte-level products against multiply-then-divide.
                let len = 8 * k;
                for x in [Nat::zero(), n_minus_1.clone(), random(&mut rng, k)] {
                    let x_be = x.to_bytes_be_padded(len);
                    let mut out = vec![0u8; len];
                    mont.square_be(&x_be, &mut out);
                    let want = x.square().rem_nat(&n).unwrap();
                    assert_eq!(Nat::from_bytes_be(&out), want, "{x:?}² mod {n:?}");
                    for c in [-2i64, -1, 1, 2] {
                        mont.mul_small_be(&x_be, c, &mut out);
                        let prod = x.mul_u64(c.unsigned_abs()).rem_nat(&n).unwrap();
                        let want = if c < 0 && !prod.is_zero() {
                            n.checked_sub(&prod).unwrap()
                        } else {
                            prod
                        };
                        assert_eq!(Nat::from_bytes_be(&out), want, "{c}·{x:?} mod {n:?}");
                    }
                }
            }
        }
        // Modulo one everything is zero.
        let one = Montgomery::new(&Nat::one()).unwrap();
        assert_eq!(reduced(&one, &Nat::from(12345u64)), Nat::zero());
    }
}
