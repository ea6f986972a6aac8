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

use crate::nat::{add_limbs, cmp_limbs, sub_limbs, Nat};

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

/// Residues the strong Lucas chain holds: `U`, `V`, `Q^k`, the
/// constants `D` and `Q`, and one product's destination.
const LUCAS_SLOTS: usize = 6;

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

    /// Whether `n` passes the strong Lucas test with `P = 1` and
    /// `Q = (1 − d)/4`, where `d` is Selfridge's `D` (its Jacobi symbol
    /// modulo `n` is −1) and `n + 1 = exp·2^s` with `exp` odd: `U_exp ≡ 0`,
    /// or `V_(exp·2^r) ≡ 0` for some `r < s`. Every prime `n` prime to
    /// `2QD` passes. Allocates nothing at the widths [`at_width!`] keeps
    /// on the stack.
    pub(crate) fn strong_lucas(&self, d: i64, exp: &Nat, s: usize) -> bool {
        let k = self.n.limbs().len();
        at_width!(
            self.lucas(d, exp, s),
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
    fn sub_mod<const K: usize>(&self, a: &mut [u64], b: &[u64]) {
        let k = self.width::<K>();
        let a = &mut a[..k];
        if sub_limbs(a, &b[..k]) {
            add_limbs(a, &self.n.limbs()[..k]);
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
