//! Modular arithmetic: exponentiation, inverses, Jacobi symbols, square
//! roots modulo Blum primes, and Chinese-remainder recombination.
//!
//! These are exactly the number-theoretic operations Rabin–Williams
//! decryption/signing (square roots via CRT) and SRP (modular
//! exponentiation) require.

use std::cmp::Ordering;

use crate::int::Int;
use crate::mont::{at_width, Montgomery, LADDER_SLOTS};
use crate::nat::{add_limbs, cmp_limbs, limbs_to_be, mul_limbs, neg_mod_limbs, sub_limbs, Nat};
use crate::twin::join;

/// Computes `base^exp mod m` by square-and-multiply.
///
/// An odd modulus (every production caller: Rabin primes, SRP groups,
/// Miller–Rabin candidates) runs on the Montgomery kernel with a sliding
/// window; an even one reduces by division after every step of a fixed
/// 4-bit window. Both give the canonical residue.
///
/// # Panics
///
/// Panics if `m` is zero.
pub fn modpow(base: &Nat, exp: &Nat, m: &Nat) -> Nat {
    assert!(!m.is_zero(), "modpow with zero modulus");
    if m.is_one() {
        return Nat::zero();
    }
    if let Some(mont) = Montgomery::new(m) {
        return mont.pow(base, exp);
    }
    if exp.is_zero() {
        return Nat::one();
    }
    let base = base.rem_nat(m).unwrap();
    // Precompute base^0..base^15 for the 4-bit window.
    let mut table = Vec::with_capacity(16);
    table.push(Nat::one());
    for i in 1..16 {
        let prev: &Nat = &table[i - 1];
        table.push(prev.mul_nat(&base).rem_nat(m).unwrap());
    }
    let nbits = exp.bit_len();
    // Round up to a multiple of 4.
    let mut i = nbits.div_ceil(4) * 4;
    let mut acc = Nat::one();
    while i > 0 {
        i -= 4;
        for _ in 0..4 {
            acc = acc.square().rem_nat(m).unwrap();
        }
        let w = (exp.bit(i + 3) as usize) << 3
            | (exp.bit(i + 2) as usize) << 2
            | (exp.bit(i + 1) as usize) << 1
            | exp.bit(i) as usize;
        if w != 0 {
            acc = acc.mul_nat(&table[w]).rem_nat(m).unwrap();
        }
    }
    acc
}

/// Extended Euclid: returns `(g, x, y)` with `a*x + b*y = g = gcd(a, b)`.
fn egcd(a: &Nat, b: &Nat) -> (Nat, Int, Int) {
    let mut r0 = a.clone();
    let mut r1 = b.clone();
    let mut s0 = Int::one();
    let mut s1 = Int::zero();
    let mut t0 = Int::zero();
    let mut t1 = Int::one();
    while !r1.is_zero() {
        let (q, r) = r0.div_rem(&r1).unwrap();
        let qi = Int::from_nat(q);
        let s = s0.sub(&qi.mul(&s1));
        let t = t0.sub(&qi.mul(&t1));
        r0 = r1;
        r1 = r;
        s0 = s1;
        s1 = s;
        t0 = t1;
        t1 = t;
    }
    (r0, s0, t0)
}

/// Computes the multiplicative inverse of `a` modulo `m`, or `None` if
/// `gcd(a, m) != 1`.
pub fn invmod(a: &Nat, m: &Nat) -> Option<Nat> {
    if m.is_zero() || m.is_one() {
        return None;
    }
    let a = a.rem_nat(m).unwrap();
    let (g, x, _) = egcd(&a, m);
    if !g.is_one() {
        return None;
    }
    Some(x.rem_euclid(m))
}

/// Computes the Jacobi symbol `(a/n)` for odd `n > 0`; returns -1, 0, or 1.
///
/// Binary algorithm on two fixed limb buffers: strip factors of two,
/// swap by quadratic reciprocity when `a < n`, subtract. No division and
/// no allocation after the initial reduction of `a`. Signing reads its
/// Legendre symbols off [`BlumPrime::root`]; this is the independent
/// oracle the tests hold that against.
///
/// # Panics
///
/// Panics if `n` is even or zero.
pub fn jacobi(a: &Nat, n: &Nat) -> i32 {
    assert!(n.is_odd(), "Jacobi symbol requires odd n > 0");
    let mut len = n.limbs().len();
    let mut a = a.rem_nat(n).expect("n is odd").limbs().to_vec();
    a.resize(len, 0);
    let mut n = n.limbs().to_vec();
    let mut result = 1i32;
    loop {
        // Both values only shrink; track the live width.
        while len > 0 && a[len - 1] == 0 && n[len - 1] == 0 {
            len -= 1;
        }
        let (a_live, n_live) = (&mut a[..len], &mut n[..len]);
        let Some(tz) = strip_trailing_zeros(a_live) else {
            break;
        };
        // (2/n) = -1 when n ≡ 3, 5 (mod 8).
        if tz % 2 == 1 && matches!(n_live[0] % 8, 3 | 5) {
            result = -result;
        }
        if cmp_limbs(a_live, n_live) == Ordering::Less {
            // Quadratic reciprocity flip.
            if a_live[0] % 4 == 3 && n_live[0] % 4 == 3 {
                result = -result;
            }
            a_live.swap_with_slice(n_live);
        }
        // (a/n) = ((a − n)/n), and the difference of two odd values is even.
        sub_limbs(a_live, n_live);
    }
    if n[0] == 1 && n[1..].iter().all(|&l| l == 0) {
        result
    } else {
        0
    }
}

/// Shifts `v` right until it is odd, returning the shift; `None` for zero.
fn strip_trailing_zeros(v: &mut [u64]) -> Option<usize> {
    let zero_limbs = v.iter().position(|&l| l != 0)?;
    let bits = v[zero_limbs].trailing_zeros();
    let len = v.len();
    v.copy_within(zero_limbs.., 0);
    v[len - zero_limbs..].fill(0);
    if bits != 0 {
        let mut carry = 0u64;
        for l in v[..len - zero_limbs].iter_mut().rev() {
            let next = *l << (64 - bits);
            *l = (*l >> bits) | carry;
            carry = next;
        }
    }
    Some(zero_limbs * 64 + bits as usize)
}

/// A prime `p ≡ 3 (mod 4)` prepared for repeated modular square roots: the
/// Montgomery constants for `p` and the exponent `(p + 1)/4`, computed once.
///
/// Rabin–Williams only ever takes roots modulo such primes, so the root is
/// one exponentiation and the general Tonelli–Shanks algorithm is
/// unnecessary.
#[derive(Clone)]
pub struct BlumPrime {
    mont: Montgomery,
    root_exp: Nat,
}

/// Residues one root's job holds at a stack width: the reduced argument,
/// the root, and two of scratch for the reduction before the ladder and
/// the squaring after it. The ladder keeps its own scratch on the stack
/// of whichever thread runs it.
const ROOT_SLOTS: usize = 4;

impl BlumPrime {
    /// Prepares `p`; `None` unless `p ≡ 3 (mod 4)`. Primality is the
    /// caller's claim and is not checked.
    pub fn new(p: &Nat) -> Option<BlumPrime> {
        if p.limbs().first()? % 4 != 3 {
            return None;
        }
        Some(BlumPrime {
            mont: Montgomery::new(p)?,
            root_exp: p.add_nat(&Nat::one()).shr_bits(2),
        })
    }

    /// The prime itself.
    pub fn modulus(&self) -> &Nat {
        self.mont.modulus()
    }

    /// `r = a^((p+1)/4) mod p` and the Legendre symbol `(a/p)`, which the
    /// same exponentiation yields: `r² ≡ a^((p+1)/2) = (a/p)·a`. So `r` is
    /// a square root of `a` or of `−a`, whichever is a residue, and is a
    /// residue itself (the principal root).
    pub fn root(&self, a: &Nat) -> (Nat, i32) {
        at_width!(
            self.width_for(a),
            Self::root_in(self, a),
            ROOT_SLOTS,
            &mut vec![0; self.job_limbs(a)]
        )
    }

    fn root_in<const K: usize>(&self, a: &Nat, job: &mut [u64]) -> (Nat, i32) {
        self.enter::<K>(a.limbs(), job);
        self.run::<K>(job);
        self.finish::<K>(job)
    }

    /// [`Self::root`] modulo `p` and modulo `q` at once: the root mod `q`
    /// runs on a helper thread while this one computes the root mod `p`,
    /// or after it, inline, when no helper is free (one CPU, or another
    /// pair in flight). The results are the same either way.
    ///
    /// When both primes have a stack width (4, 6, 8 or 12 limbs) and `a`
    /// is at most twice that, every step — entering the domain from
    /// `a`, the two ladders, the symbols — runs in stack limbs, and only
    /// the two roots returned are allocated.
    pub fn root_pair(p: &BlumPrime, q: &BlumPrime, a: &Nat) -> ((Nat, i32), (Nat, i32)) {
        let width = p.width_for(a);
        at_width!(
            if q.width_for(a) == width { width } else { 0 },
            Self::pair_in(p, q, a),
            2 * ROOT_SLOTS,
            &mut vec![0; 2 * p.job_limbs(a).max(q.job_limbs(a))]
        )
    }

    /// [`Self::root_pair`] at width `K`, each root in its own half of
    /// `scratch`.
    fn pair_in<const K: usize>(
        p: &BlumPrime,
        q: &BlumPrime,
        a: &Nat,
        scratch: &mut [u64],
    ) -> ((Nat, i32), (Nat, i32)) {
        let (at_p, at_q) = scratch.split_at_mut(scratch.len() / 2);
        p.enter::<K>(a.limbs(), at_p);
        q.enter::<K>(a.limbs(), at_q);
        join(|| p.run::<K>(at_p), || q.run::<K>(at_q));
        (p.finish::<K>(at_p), q.finish::<K>(at_q))
    }

    /// The width a root of `a` runs at: the prime's, unless `a` is wider
    /// than twice that.
    fn width_for(&self, a: &Nat) -> usize {
        let k = self.modulus().limbs().len();
        if a.limbs().len() <= 2 * k {
            k
        } else {
            0
        }
    }

    /// Scratch limbs one root of `a` takes off the stack widths, where the
    /// job lends the ladder its scratch too.
    fn job_limbs(&self, a: &Nat) -> usize {
        let k = self.modulus().limbs().len();
        2 * k + (LADDER_SLOTS * k).max(self.mont.reduce_limbs(a.limbs().len()))
    }

    /// Writes `a mod p` to the argument slot of `job`.
    fn enter<const K: usize>(&self, a: &[u64], job: &mut [u64]) {
        let k = self.mont.width::<K>();
        let (arg, rest) = job.split_at_mut(k);
        self.mont.reduce::<K>(a, arg, &mut rest[k..]);
    }

    /// The exponentiation: the root from the argument. Allocates nothing.
    fn run<const K: usize>(&self, job: &mut [u64]) {
        let k = self.mont.width::<K>();
        let (arg, rest) = job.split_at_mut(k);
        let (root, lent) = rest.split_at_mut(k);
        let mut own = [[0; K]; LADDER_SLOTS];
        let ladder = if K == 0 { lent } else { own.as_flattened_mut() };
        self.mont.ladder::<K>(arg, &self.root_exp, root, ladder);
    }

    /// The root, and the Legendre symbol read off its square.
    fn finish<const K: usize>(&self, job: &mut [u64]) -> (Nat, i32) {
        let k = self.mont.width::<K>();
        let (arg, rest) = job.split_at_mut(k);
        let (root, rest) = rest.split_at_mut(k);
        let (square, tmp) = rest.split_at_mut(k);
        self.mont.square::<K>(square, root, tmp);
        let symbol = if arg.iter().all(|&l| l == 0) {
            0
        } else if square[..k] == *arg {
            1
        } else {
            -1
        };
        (Nat::from_limbs(root.to_vec()), symbol)
    }

    /// `a·b mod p` for `a, b < p`, in `a`'s storage: a root of this prime
    /// is multiplied without an allocation.
    pub fn mul(&self, mut a: Nat, b: &Nat) -> Nat {
        self.mont.mul_assign(&mut a, b);
        a
    }

    /// `−a mod p` for `a < p`, in `a`'s storage.
    pub fn neg(&self, mut a: Nat) -> Nat {
        let p = self.modulus().limbs();
        a.map_limbs(p.len(), |a| neg_mod_limbs(a, p));
        a
    }
}

/// Two coprime moduli with `p⁻¹ mod q` computed once, for repeated
/// Chinese-remainder recombination without division.
#[derive(Clone)]
pub struct CrtBasis {
    p: Nat,
    /// Arithmetic modulo `q`, where `(xq − xp)·p⁻¹` is formed.
    q: Montgomery,
    /// `p⁻¹·R mod q`: a product by it divides by `p` modulo `q`.
    p_inv: Vec<u64>,
    /// `p·q`, as many limbs as `p` and `q` together.
    n: Vec<u64>,
}

impl CrtBasis {
    /// `None` unless `q` is odd and above one, and coprime to `p`.
    pub fn new(p: &Nat, q: &Nat) -> Option<CrtBasis> {
        let p_inv = invmod(p, q)?;
        let q = Montgomery::new(q)?;
        let k = q.modulus().limbs().len();
        let mut p_inv = p_inv
            .shl_bits(64 * k)
            .rem_nat(q.modulus())
            .expect("q > 1")
            .limbs()
            .to_vec();
        p_inv.resize(k, 0);
        let mut n = p.mul_nat(q.modulus()).limbs().to_vec();
        n.resize(p.limbs().len() + k, 0);
        Some(CrtBasis {
            p: p.clone(),
            q,
            p_inv,
            n,
        })
    }

    /// The unique `x mod p·q` with `x ≡ xp (mod p)` and `x ≡ xq (mod q)`,
    /// for `xp < p` and `xq < q`: `x = xp + p·((xq − xp)·p⁻¹ mod q)`.
    /// Allocates only the result.
    pub fn combine(&self, xp: &Nat, xq: &Nat) -> Nat {
        let mut x = vec![0; self.n.len()];
        at_width!(
            self.width(),
            Self::combine_in(self, xp.limbs(), xq.limbs(), &mut x),
            CRT_SLOTS,
            &mut vec![0; self.heap_limbs()]
        );
        Nat::from_limbs(x)
    }

    /// The four `x mod p·q` with `x ≡ ±xp (mod p)` and `x ≡ ±xq (mod q)`,
    /// for `xp < p` and `xq < q` — every square root modulo `p·q` of a
    /// square whose roots modulo `p` and `q` are `xp` and `xq` — written
    /// big-endian to four equal chunks of `out`, in the order `(xp, xq)`,
    /// `(xp, −xq)`, `(−xp, xq)`, `(−xp, −xq)`. Allocates nothing at the
    /// stack widths (4, 6, 8 and 12 limbs).
    ///
    /// # Panics
    ///
    /// Panics if a chunk cannot hold `p·q − 1`.
    pub fn combine_signs_be(&self, xp: &Nat, xq: &Nat, out: &mut [u8]) {
        at_width!(
            self.width(),
            Self::signs_in(self, xp.limbs(), xq.limbs(), out),
            CRT_SLOTS + 5,
            &mut vec![0; 2 * self.n.len() + self.q.modulus().limbs().len() + self.heap_limbs()]
        )
    }

    /// The width [`at_width!`] runs at: `q`'s, when `p` has it too.
    fn width(&self) -> usize {
        let k = self.q.modulus().limbs().len();
        if self.p.limbs().len() == k {
            k
        } else {
            0
        }
    }

    /// [`Self::combine_in`]'s scratch off the stack widths.
    fn heap_limbs(&self) -> usize {
        let k = self.q.modulus().limbs().len();
        3 * k + self.q.reduce_limbs(self.p.limbs().len())
    }

    fn signs_in<const K: usize>(
        &self,
        xp: &[u64],
        xq: &[u64],
        out: &mut [u8],
        scratch: &mut [u64],
    ) {
        let k = self.q.width::<K>();
        let len = out.len() / 4;
        let n = &self.n;
        let (same, rest) = scratch.split_at_mut(n.len());
        let (mixed, rest) = rest.split_at_mut(n.len());
        self.combine_in::<K>(xp, xq, same, rest);
        let (neg_xq, rest) = rest.split_at_mut(k);
        neg_xq.fill(0);
        neg_xq[..xq.len()].copy_from_slice(xq);
        neg_mod_limbs(neg_xq, &self.q.modulus().limbs()[..k]);
        self.combine_in::<K>(xp, neg_xq, mixed, rest);
        let mut chunks = out.chunks_exact_mut(len);
        for x in [&mut *same, &mut *mixed] {
            limbs_to_be(x, chunks.next().expect("four chunks"));
        }
        for x in [mixed, same] {
            neg_mod_limbs(x, n);
            limbs_to_be(x, chunks.next().expect("four chunks"));
        }
    }

    /// [`Self::combine`] into `x` (`p·q`'s limbs) at width `K`.
    fn combine_in<const K: usize>(
        &self,
        xp: &[u64],
        xq: &[u64],
        x: &mut [u64],
        scratch: &mut [u64],
    ) {
        let q = &self.q;
        let k = q.width::<K>();
        let (u, rest) = scratch.split_at_mut(k);
        let (v, rest) = rest.split_at_mut(k);
        let (w, rest) = rest.split_at_mut(k);
        // xq·p⁻¹ and xp·p⁻¹ modulo q; xp enters reduced, as p may be the
        // wider prime.
        w.fill(0);
        w[..xq.len()].copy_from_slice(xq);
        q.mul::<K>(u, w, &self.p_inv);
        q.reduce::<K>(xp, w, rest);
        q.mul::<K>(v, w, &self.p_inv);
        q.sub_mod::<K>(u, v);
        let x = &mut x[..self.n.len()];
        mul_limbs(self.p.limbs(), u, &mut x[..self.p.limbs().len() + k]);
        let mut carry = add_limbs(&mut x[..xp.len()], xp);
        for l in &mut x[xp.len()..] {
            (*l, carry) = l.overflowing_add(carry as u64);
        }
    }
}

/// Residues [`CrtBasis::combine`] holds at a stack width: two products,
/// an operand and the reduction's two. [`CrtBasis::combine_signs_be`]
/// adds two recombinations (two residues each) and `−xq`.
const CRT_SLOTS: usize = 5;

/// Chinese-remainder recombination for two coprime moduli: finds the unique
/// `x mod p*q` with `x ≡ xp (mod p)` and `x ≡ xq (mod q)`.
///
/// One-shot form that inverts `p` on every call; repeated recombination
/// under fixed moduli goes through [`CrtBasis`], whose tests use this as
/// the independent reference.
///
/// # Panics
///
/// Panics if `p` and `q` are not coprime.
pub fn crt_pair(xp: &Nat, p: &Nat, xq: &Nat, q: &Nat) -> Nat {
    // x = xp + p * ((xq - xp) * p^-1 mod q).
    let p_inv = invmod(p, q).expect("CRT moduli must be coprime");
    let xp_int = Int::from_nat(xp.clone());
    let xq_int = Int::from_nat(xq.clone());
    let diff = xq_int.sub(&xp_int).rem_euclid(q);
    let h = diff.mul_nat(&p_inv).rem_nat(q).unwrap();
    xp.add_nat(&p.mul_nat(&h))
}

// Re-export egcd for tests without making it public API.
#[cfg(test)]
pub(crate) fn egcd_for_tests(a: &Nat, b: &Nat) -> (Nat, Int, Int) {
    egcd(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(v: u64) -> Nat {
        Nat::from(v)
    }

    #[test]
    fn modpow_small() {
        assert_eq!(modpow(&n(2), &n(10), &n(1000)), n(24));
        assert_eq!(modpow(&n(3), &n(0), &n(7)), n(1));
        assert_eq!(modpow(&n(5), &n(3), &n(1)), Nat::zero());
    }

    #[test]
    fn modpow_fermat() {
        // Fermat's little theorem for a few primes.
        for p in [3u64, 5, 7, 11, 101, 65537] {
            let pn = n(p);
            for a in [2u64, 3, 10, 42] {
                if a % p == 0 {
                    continue;
                }
                assert_eq!(modpow(&n(a), &n(p - 1), &pn), n(1), "p={p} a={a}");
            }
        }
    }

    #[test]
    fn modpow_large() {
        // 2^(2^20) mod a 128-bit odd modulus, checked against repeated
        // squaring.
        let m = Nat::from_hex("f123456789abcdef123456789abcdef1").unwrap();
        let mut expect = n(2);
        for _ in 0..20 {
            expect = expect.square().rem_nat(&m).unwrap();
        }
        let e = Nat::one().shl_bits(20);
        assert_eq!(modpow(&n(2), &e, &m), expect);
    }

    #[test]
    fn egcd_bezout() {
        let a = n(240);
        let b = n(46);
        let (g, x, y) = egcd_for_tests(&a, &b);
        assert_eq!(g, n(2));
        // 240x + 46y = 2.
        let lhs = Int::from_nat(a).mul(&x).add(&Int::from_nat(b).mul(&y));
        assert_eq!(lhs, Int::from(2));
    }

    #[test]
    fn invmod_basics() {
        assert_eq!(invmod(&n(3), &n(7)), Some(n(5)));
        assert_eq!(invmod(&n(2), &n(4)), None);
        assert_eq!(invmod(&n(1), &n(2)), Some(n(1)));
        assert_eq!(invmod(&n(5), &Nat::one()), None);
    }

    #[test]
    fn invmod_large() {
        let m = Nat::from_hex("ffffffffffffffffffffffffffffff61").unwrap(); // prime-ish
        let a = Nat::from_hex("123456789abcdef").unwrap();
        if let Some(inv) = invmod(&a, &m) {
            assert_eq!(a.mul_nat(&inv).rem_nat(&m).unwrap(), Nat::one());
        } else {
            panic!("expected invertible");
        }
    }

    #[test]
    fn jacobi_small_table() {
        // Classical table: (a/15) for a in 1..8 = 1,1,0,1,0,0,-1,1.
        let vals = [1, 1, 0, 1, 0, 0, -1, 1];
        for (a, want) in (1u64..=8).zip(vals) {
            assert_eq!(jacobi(&n(a), &n(15)), want, "a={a}");
        }
    }

    #[test]
    fn jacobi_quadratic_residues_mod_p() {
        let p = 23u64;
        for a in 1..p {
            let is_qr = (1..p).any(|x| (x * x) % p == a);
            let j = jacobi(&n(a), &n(p));
            assert_eq!(j == 1, is_qr, "a={a}");
        }
    }

    #[test]
    fn sqrt_mod_blum_prime() {
        let p = BlumPrime::new(&n(23)).unwrap(); // 23 ≡ 3 (mod 4)
        for a in 0u64..23 {
            let sq = (a * a) % 23;
            let (r, symbol) = p.root(&n(sq));
            assert_eq!(symbol, (sq != 0) as i32);
            assert_eq!(r.square().rem_nat(p.modulus()).unwrap(), n(sq));
        }
        // 5 is a non-residue mod 23; the argument is reduced first.
        assert_eq!(p.root(&n(5)).1, -1);
        assert_eq!(p.root(&n(5 + 23)).1, -1);
        assert_eq!(p.root(&n(4 + 23)).1, 1);
        // 13 ≡ 1 (mod 4), and even or zero moduli, are refused.
        for bad in [0u64, 1, 2, 13, 24] {
            assert!(BlumPrime::new(&n(bad)).is_none(), "{bad}");
        }
    }

    /// A random odd value of exactly `limbs` limbs, `≡ 3 (mod 4)`.
    fn random_odd(rng: &mut crate::XorShiftSource, limbs: usize) -> Nat {
        use crate::RandomSource;
        let mut bytes = vec![0u8; 8 * limbs];
        rng.fill(&mut bytes);
        bytes[0] |= 0x80;
        bytes[8 * limbs - 1] |= 3;
        Nat::from_bytes_be(&bytes)
    }

    #[test]
    fn fixed_width_crt_and_roots_match_division_at_every_width() {
        let mut rng = crate::XorShiftSource::new(0xC7C7);
        // Equal widths 4, 6, 8 and 12 run on the stack; the others, and
        // unequal widths either way round, on the heap.
        let widths = [
            (4, 4),
            (6, 6),
            (8, 8),
            (12, 12),
            (3, 3),
            (5, 5),
            (5, 4),
            (4, 5),
        ];
        for (kp, kq) in widths {
            let (p, q, basis) = loop {
                let (p, q) = (random_odd(&mut rng, kp), random_odd(&mut rng, kq));
                if let Some(basis) = CrtBasis::new(&p, &q) {
                    break (p, q, basis);
                }
            };
            let n = p.mul_nat(&q);
            let one = Nat::one();
            let neg = |x: &Nat, m: &Nat| {
                if x.is_zero() {
                    Nat::zero()
                } else {
                    m.checked_sub(x).unwrap()
                }
            };
            let mut xs = vec![
                Nat::zero(),
                p.checked_sub(&one).unwrap(),
                p.clone(),
                p.mul_u64(7),
                q.clone(),
                n.checked_sub(&one).unwrap(),
            ];
            xs.extend((0..8).map(|i| random_odd(&mut rng, 1 + i % (kp + kq - 1))));
            let len = 8 * (kp + kq);
            for x in &xs {
                let (xp, xq) = (x.div_rem(&p).unwrap().1, x.div_rem(&q).unwrap().1);
                let x = x.div_rem(&n).unwrap().1;
                assert_eq!(basis.combine(&xp, &xq), x, "({kp}, {kq}) limbs");
                assert_eq!(crt_pair(&xp, &p, &xq, &q), x);
                let mut out = vec![0u8; 4 * len];
                basis.combine_signs_be(&xp, &xq, &mut out);
                let want = [
                    x.clone(),
                    crt_pair(&xp, &p, &neg(&xq, &q), &q),
                    crt_pair(&neg(&xp, &p), &p, &xq, &q),
                    neg(&x, &n),
                ];
                for (chunk, want) in out.chunks(len).zip(&want) {
                    assert_eq!(&Nat::from_bytes_be(chunk), want, "({kp}, {kq}) limbs");
                }
            }
            // Roots enter the domain from inputs up to p·q, or past it on
            // the heap; the result is the exponentiation of the remainder.
            let (bp, bq) = (BlumPrime::new(&p).unwrap(), BlumPrime::new(&q).unwrap());
            let wide = n.mul_nat(&n).add_nat(&p);
            for a in xs.iter().chain([&wide]) {
                let (rp, rq) = BlumPrime::root_pair(&bp, &bq, a);
                for ((r, symbol), (prime, m)) in [rp, rq].into_iter().zip([(&bp, &p), (&bq, &q)]) {
                    let a_m = a.div_rem(m).unwrap().1;
                    let exp = m.add_nat(&one).shr_bits(2);
                    assert_eq!(r, modpow(&a_m, &exp, m), "({kp}, {kq}) limbs");
                    let want = match () {
                        _ if a_m.is_zero() => 0,
                        _ if r.square().rem_nat(m).unwrap() == a_m => 1,
                        _ => -1,
                    };
                    assert_eq!(symbol, want);
                    assert_eq!(prime.root(a), (r.clone(), symbol));
                    assert_eq!(prime.neg(r.clone()), neg(&r, m));
                    assert_eq!(
                        prime.mul(r.clone(), &a_m),
                        r.mul_nat(&a_m).rem_nat(m).unwrap()
                    );
                }
            }
        }
    }

    #[test]
    fn crt_recombination() {
        let p = n(11);
        let q = n(13);
        for x in [0u64, 1, 17, 100, 142] {
            let xp = n(x % 11);
            let xq = n(x % 13);
            assert_eq!(crt_pair(&xp, &p, &xq, &q), n(x % 143));
        }
        let basis = CrtBasis::new(&p, &q).unwrap();
        for x in 0u64..143 {
            assert_eq!(basis.combine(&n(x % 11), &n(x % 13)), n(x));
        }
        assert!(CrtBasis::new(&n(6), &n(9)).is_none());
        assert!(CrtBasis::new(&n(6), &n(1)).is_none());
    }
}
