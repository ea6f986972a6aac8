//! Modular arithmetic: exponentiation, inverses, Jacobi symbols, square
//! roots modulo Blum primes, and Chinese-remainder recombination.
//!
//! These are exactly the number-theoretic operations Rabin–Williams
//! decryption/signing (square roots via CRT) and SRP (modular
//! exponentiation) require.

use std::cmp::Ordering;

use crate::int::Int;
use crate::mont::Montgomery;
use crate::nat::{cmp_limbs, sub_limbs, Nat};
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
        let mut job = RootJob::new(self, a);
        job.run();
        job.finish()
    }

    /// [`Self::root`] modulo `p` and modulo `q` at once: the root mod `q`
    /// runs on a helper thread while this one computes the root mod `p`,
    /// or after it, inline, when no helper is free (one CPU, or another
    /// pair in flight). The results are the same either way.
    pub fn root_pair(p: &BlumPrime, q: &BlumPrime, a: &Nat) -> ((Nat, i32), (Nat, i32)) {
        let (mut at_p, mut at_q) = (RootJob::new(p, a), RootJob::new(q, a));
        join(|| at_p.run(), || at_q.run());
        (at_p.finish(), at_q.finish())
    }

    /// `a·b mod p` for `a, b < p`.
    pub fn mul(&self, a: &Nat, b: &Nat) -> Nat {
        self.mont.mul_mod(a, b)
    }
}

/// One [`BlumPrime::root`] split where [`BlumPrime::root_pair`] hands
/// it to another thread: every allocation is in [`RootJob::new`] and
/// [`RootJob::finish`], on the caller; [`RootJob::run`], the
/// exponentiation, allocates nothing.
struct RootJob<'p> {
    prime: &'p BlumPrime,
    /// The argument reduced modulo the prime.
    a: Nat,
    /// The root's limbs, written by `run`.
    root: Vec<u64>,
    /// The ladder's scratch at a width it does not keep on the stack.
    heap: Vec<u64>,
}

impl<'p> RootJob<'p> {
    fn new(prime: &'p BlumPrime, a: &Nat) -> RootJob<'p> {
        let mont = &prime.mont;
        RootJob {
            prime,
            a: a.rem_nat(mont.modulus()).expect("p is odd"),
            root: vec![0; mont.modulus().limbs().len()],
            heap: mont.ladder_heap(),
        }
    }

    fn run(&mut self) {
        let prime = self.prime;
        prime
            .mont
            .pow_into(&self.a, &prime.root_exp, &mut self.root, &mut self.heap);
    }

    /// The root and the Legendre symbol read off its square.
    fn finish(self) -> (Nat, i32) {
        let r = Nat::from_limbs(self.root);
        let symbol = if self.a.is_zero() {
            0
        } else if self.prime.mont.mul_mod(&r, &r) == self.a {
            1
        } else {
            -1
        };
        (r, symbol)
    }
}

/// Two coprime moduli with `p⁻¹ mod q` computed once, for repeated
/// Chinese-remainder recombination.
#[derive(Clone)]
pub struct CrtBasis {
    p: Nat,
    q: Nat,
    p_inv: Nat,
}

impl CrtBasis {
    /// `None` if `p` and `q` are not coprime (or `q ≤ 1`).
    pub fn new(p: &Nat, q: &Nat) -> Option<CrtBasis> {
        Some(CrtBasis {
            p_inv: invmod(p, q)?,
            p: p.clone(),
            q: q.clone(),
        })
    }

    /// The unique `x mod p·q` with `x ≡ xp (mod p)` and `x ≡ xq (mod q)`,
    /// for `xp < p`: `x = xp + p·((xq − xp)·p⁻¹ mod q)`.
    pub fn combine(&self, xp: &Nat, xq: &Nat) -> Nat {
        let q = &self.q;
        let reduce = |v: &Nat| v.rem_nat(q).expect("q > 1");
        let (xp_q, xq) = (reduce(xp), reduce(xq));
        let diff = match xq.checked_sub(&xp_q) {
            Some(d) => d,
            None => xq.add_nat(q).checked_sub(&xp_q).expect("xp_q < q"),
        };
        let h = reduce(&diff.mul_nat(&self.p_inv));
        xp.add_nat(&self.p.mul_nat(&h))
    }
}

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
