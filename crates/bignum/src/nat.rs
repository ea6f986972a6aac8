//! Natural (unsigned, arbitrary-precision) numbers.
//!
//! Representation: little-endian `u64` limbs, normalized so the most
//! significant limb is nonzero (zero is the empty limb vector). Multiplication
//! is schoolbook below a threshold and Karatsuba above it; division is Knuth
//! Algorithm D. These cover SFS's working range (Rabin moduli of 1–2 kbit,
//! SRP groups of similar size) comfortably.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, BitAnd, BitOr, BitXor, Mul, Rem, Shl, Shr, Sub};

/// Error returned by checked division when the divisor is zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DivideByZero;

impl fmt::Display for DivideByZero {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "division by zero")
    }
}

impl std::error::Error for DivideByZero {}

/// Limb count above which multiplication switches to Karatsuba.
const KARATSUBA_THRESHOLD: usize = 24;

/// An arbitrary-precision natural number.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Nat {
    /// Little-endian limbs; invariant: `limbs.last() != Some(&0)`.
    limbs: Vec<u64>,
}

impl Nat {
    /// Returns zero.
    pub fn zero() -> Self {
        Nat { limbs: Vec::new() }
    }

    /// Returns one.
    pub fn one() -> Self {
        Nat::from(1u64)
    }

    /// Returns `true` if `self` is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Returns `true` if `self` is one.
    pub fn is_one(&self) -> bool {
        self.limbs.len() == 1 && self.limbs[0] == 1
    }

    /// Returns `true` if the number is even (zero counts as even).
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l & 1 == 0)
    }

    /// Returns `true` if the number is odd.
    pub fn is_odd(&self) -> bool {
        !self.is_even()
    }

    /// Constructs a `Nat` from little-endian limbs, normalizing.
    pub fn from_limbs(mut limbs: Vec<u64>) -> Self {
        while limbs.last() == Some(&0) {
            limbs.pop();
        }
        Nat { limbs }
    }

    /// Exposes the little-endian limbs.
    pub fn limbs(&self) -> &[u64] {
        &self.limbs
    }

    /// Number of significant bits (zero has zero bits).
    pub fn bit_len(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(&hi) => (self.limbs.len() - 1) * 64 + (64 - hi.leading_zeros() as usize),
        }
    }

    /// Returns bit `i` (little-endian bit numbering).
    pub fn bit(&self, i: usize) -> bool {
        let (limb, off) = (i / 64, i % 64);
        self.limbs.get(limb).is_some_and(|l| (l >> off) & 1 == 1)
    }

    /// Sets bit `i` to `v`.
    pub fn set_bit(&mut self, i: usize, v: bool) {
        let (limb, off) = (i / 64, i % 64);
        if limb >= self.limbs.len() {
            if !v {
                return;
            }
            self.limbs.resize(limb + 1, 0);
        }
        if v {
            self.limbs[limb] |= 1 << off;
        } else {
            self.limbs[limb] &= !(1 << off);
            self.normalize();
        }
    }

    /// Number of trailing zero bits; `None` for zero.
    pub fn trailing_zeros(&self) -> Option<usize> {
        for (i, &l) in self.limbs.iter().enumerate() {
            if l != 0 {
                return Some(i * 64 + l.trailing_zeros() as usize);
            }
        }
        None
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// Parses a big-endian byte string (as used throughout SFS's XDR
    /// encodings of public keys and protocol values). Leading zero bytes are
    /// permitted and ignored.
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len() / 8 + 1);
        let mut acc: u64 = 0;
        let mut nbits = 0;
        for &b in bytes.iter().rev() {
            acc |= (b as u64) << nbits;
            nbits += 8;
            if nbits == 64 {
                limbs.push(acc);
                acc = 0;
                nbits = 0;
            }
        }
        if nbits > 0 {
            limbs.push(acc);
        }
        Nat::from_limbs(limbs)
    }

    /// Serializes to a minimal big-endian byte string (empty for zero).
    pub fn to_bytes_be(&self) -> Vec<u8> {
        if self.is_zero() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        for &l in self.limbs.iter().rev() {
            out.extend_from_slice(&l.to_be_bytes());
        }
        let skip = out.iter().take_while(|&&b| b == 0).count();
        out.drain(..skip);
        out
    }

    /// Serializes to exactly `len` big-endian bytes, left-padding with
    /// zeros.
    ///
    /// # Panics
    ///
    /// Panics if the value does not fit in `len` bytes.
    pub fn to_bytes_be_padded(&self, len: usize) -> Vec<u8> {
        let raw = self.to_bytes_be();
        assert!(raw.len() <= len, "value does not fit in {len} bytes");
        let mut out = vec![0u8; len - raw.len()];
        out.extend_from_slice(&raw);
        out
    }

    /// Parses a hexadecimal string (no prefix, case-insensitive).
    pub fn from_hex(s: &str) -> Option<Self> {
        let s = s.trim();
        if s.is_empty() || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        let mut bytes = Vec::with_capacity(s.len() / 2 + 1);
        let s = s.as_bytes();
        let mut i = 0;
        if s.len() % 2 == 1 {
            bytes.push(u8::from_str_radix(std::str::from_utf8(&s[..1]).ok()?, 16).ok()?);
            i = 1;
        }
        while i < s.len() {
            bytes.push(u8::from_str_radix(std::str::from_utf8(&s[i..i + 2]).ok()?, 16).ok()?);
            i += 2;
        }
        Some(Nat::from_bytes_be(&bytes))
    }

    /// Formats as lowercase hexadecimal ("0" for zero).
    pub fn to_hex(&self) -> String {
        if self.is_zero() {
            return "0".into();
        }
        let mut s = String::new();
        for (i, &l) in self.limbs.iter().rev().enumerate() {
            if i == 0 {
                s.push_str(&format!("{l:x}"));
            } else {
                s.push_str(&format!("{l:016x}"));
            }
        }
        s
    }

    /// Converts to `u64` if it fits.
    pub fn to_u64(&self) -> Option<u64> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0]),
            _ => None,
        }
    }

    /// Compares against a small value without allocating.
    pub fn cmp_u64(&self, v: u64) -> Ordering {
        match self.limbs.len() {
            0 => 0u64.cmp(&v),
            1 => self.limbs[0].cmp(&v),
            _ => Ordering::Greater,
        }
    }

    /// `self + other`.
    pub fn add_nat(&self, other: &Nat) -> Nat {
        let (big, small) = if self.limbs.len() >= other.limbs.len() {
            (&self.limbs, &other.limbs)
        } else {
            (&other.limbs, &self.limbs)
        };
        let mut out = Vec::with_capacity(big.len() + 1);
        let mut carry = 0u64;
        for (i, &limb) in big.iter().enumerate() {
            let b = *small.get(i).unwrap_or(&0);
            let (s1, c1) = limb.overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            out.push(s2);
            carry = (c1 as u64) + (c2 as u64);
        }
        if carry != 0 {
            out.push(carry);
        }
        Nat::from_limbs(out)
    }

    /// `self - other`, returning `None` if the result would be negative.
    pub fn checked_sub(&self, other: &Nat) -> Option<Nat> {
        if self < other {
            return None;
        }
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let b = *other.limbs.get(i).unwrap_or(&0);
            let (d1, o1) = self.limbs[i].overflowing_sub(b);
            let (d2, o2) = d1.overflowing_sub(borrow);
            out.push(d2);
            borrow = (o1 as u64) + (o2 as u64);
        }
        debug_assert_eq!(borrow, 0);
        Some(Nat::from_limbs(out))
    }

    /// `self * other`.
    pub fn mul_nat(&self, other: &Nat) -> Nat {
        if self.is_zero() || other.is_zero() {
            return Nat::zero();
        }
        if self.limbs.len() >= KARATSUBA_THRESHOLD && other.limbs.len() >= KARATSUBA_THRESHOLD {
            return karatsuba(self, other);
        }
        Nat::from_limbs(schoolbook(&self.limbs, &other.limbs))
    }

    /// `self * m`, for a single-limb multiplier.
    pub fn mul_u64(&self, m: u64) -> Nat {
        if m == 0 || self.is_zero() {
            return Nat::zero();
        }
        let mut out = Vec::with_capacity(self.limbs.len() + 1);
        let mut carry = 0u128;
        for &l in &self.limbs {
            let t = l as u128 * m as u128 + carry;
            out.push(t as u64);
            carry = t >> 64;
        }
        if carry != 0 {
            out.push(carry as u64);
        }
        Nat::from_limbs(out)
    }

    /// `self * self`. Below the Karatsuba threshold each cross product is
    /// computed once and doubled, about half the limb multiplications of
    /// [`Nat::mul_nat`].
    pub fn square(&self) -> Nat {
        if self.limbs.len() >= KARATSUBA_THRESHOLD {
            return self.mul_nat(self);
        }
        let mut out = vec![0u64; 2 * self.limbs.len()];
        square_limbs(&self.limbs, &mut out);
        Nat::from_limbs(out)
    }

    /// `(self / other, self % other)`.
    pub fn div_rem(&self, other: &Nat) -> Result<(Nat, Nat), DivideByZero> {
        if other.is_zero() {
            return Err(DivideByZero);
        }
        if self < other {
            return Ok((Nat::zero(), self.clone()));
        }
        if other.limbs.len() == 1 {
            let (q, r) = self.div_rem_u64(other.limbs[0]);
            return Ok((q, Nat::from(r)));
        }
        Ok(knuth_d(self, other))
    }

    /// `(self / m, self % m)` for a single-limb divisor.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    pub fn div_rem_u64(&self, m: u64) -> (Nat, u64) {
        assert!(m != 0, "division by zero");
        let mut out = vec![0u64; self.limbs.len()];
        let mut rem: u128 = 0;
        for i in (0..self.limbs.len()).rev() {
            let cur = (rem << 64) | self.limbs[i] as u128;
            out[i] = (cur / m as u128) as u64;
            rem = cur % m as u128;
        }
        (Nat::from_limbs(out), rem as u64)
    }

    /// `self % other`.
    pub fn rem_nat(&self, other: &Nat) -> Result<Nat, DivideByZero> {
        Ok(self.div_rem(other)?.1)
    }

    /// `self << n`.
    pub fn shl_bits(&self, n: usize) -> Nat {
        if self.is_zero() || n == 0 {
            return self.clone();
        }
        let (limb_shift, bit_shift) = (n / 64, n % 64);
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                out.push((l << bit_shift) | carry);
                carry = l >> (64 - bit_shift);
            }
            if carry != 0 {
                out.push(carry);
            }
        }
        Nat::from_limbs(out)
    }

    /// `self >> n`.
    pub fn shr_bits(&self, n: usize) -> Nat {
        let (limb_shift, bit_shift) = (n / 64, n % 64);
        if limb_shift >= self.limbs.len() {
            return Nat::zero();
        }
        let mut out = Vec::with_capacity(self.limbs.len() - limb_shift);
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs[limb_shift..]);
        } else {
            for i in limb_shift..self.limbs.len() {
                let mut v = self.limbs[i] >> bit_shift;
                if i + 1 < self.limbs.len() {
                    v |= self.limbs[i + 1] << (64 - bit_shift);
                }
                out.push(v);
            }
        }
        Nat::from_limbs(out)
    }

    /// Greatest common divisor (binary GCD).
    pub fn gcd(&self, other: &Nat) -> Nat {
        let mut a = self.clone();
        let mut b = other.clone();
        if a.is_zero() {
            return b;
        }
        if b.is_zero() {
            return a;
        }
        let shift = a.trailing_zeros().unwrap().min(b.trailing_zeros().unwrap());
        a = a.shr_bits(a.trailing_zeros().unwrap());
        loop {
            b = b.shr_bits(b.trailing_zeros().unwrap());
            if a > b {
                std::mem::swap(&mut a, &mut b);
            }
            b = b.checked_sub(&a).unwrap();
            if b.is_zero() {
                return a.shl_bits(shift);
            }
        }
    }
}

/// Schoolbook multiplication of raw limb slices.
fn schoolbook(a: &[u64], b: &[u64]) -> Vec<u64> {
    let mut out = vec![0u64; a.len() + b.len()];
    for (i, &ai) in a.iter().enumerate() {
        if ai == 0 {
            continue;
        }
        let mut carry = 0u128;
        for (j, &bj) in b.iter().enumerate() {
            let t = ai as u128 * bj as u128 + out[i + j] as u128 + carry;
            out[i + j] = t as u64;
            carry = t >> 64;
        }
        let mut k = i + b.len();
        while carry != 0 {
            let t = out[k] as u128 + carry;
            out[k] = t as u64;
            carry = t >> 64;
            k += 1;
        }
    }
    out
}

/// Squares raw limbs into `out` (`out.len() == 2 * a.len()`): the
/// off-diagonal products once, doubled, plus the diagonal squares.
pub(crate) fn square_limbs(a: &[u64], out: &mut [u64]) {
    let k = a.len();
    assert_eq!(out.len(), 2 * k);
    out.fill(0);
    for (i, &ai) in a.iter().enumerate() {
        let mut carry = 0u128;
        for (o, &aj) in out[2 * i + 1..i + k].iter_mut().zip(&a[i + 1..]) {
            let t = ai as u128 * aj as u128 + *o as u128 + carry;
            *o = t as u64;
            carry = t >> 64;
        }
        // Row i is the first to reach limb i + k.
        out[i + k] = carry as u64;
    }
    let mut shifted_out = 0u64;
    let mut carry = 0u128;
    for (pair, &ai) in out.chunks_exact_mut(2).zip(a) {
        let sq = ai as u128 * ai as u128;
        let lo = (pair[0] << 1) | shifted_out;
        let hi = (pair[1] << 1) | (pair[0] >> 63);
        shifted_out = pair[1] >> 63;
        let t = lo as u128 + (sq as u64) as u128 + carry;
        pair[0] = t as u64;
        let t = hi as u128 + (sq >> 64) + (t >> 64);
        pair[1] = t as u64;
        carry = t >> 64;
    }
    debug_assert!(carry == 0 && shifted_out == 0);
}

/// Compares equal-length little-endian limb slices.
pub(crate) fn cmp_limbs(a: &[u64], b: &[u64]) -> Ordering {
    debug_assert_eq!(a.len(), b.len());
    a.iter().rev().cmp(b.iter().rev())
}

/// `a -= b` over equal-length limb slices, returning the final borrow.
pub(crate) fn sub_limbs(a: &mut [u64], b: &[u64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    let mut borrow = false;
    for (x, &y) in a.iter_mut().zip(b) {
        let (d, o1) = x.overflowing_sub(y);
        let (d, o2) = d.overflowing_sub(borrow as u64);
        *x = d;
        borrow = o1 | o2;
    }
    borrow
}

/// Karatsuba multiplication for large operands.
fn karatsuba(a: &Nat, b: &Nat) -> Nat {
    let half = a.limbs.len().min(b.limbs.len()) / 2;
    let (a0, a1) = split_at(a, half);
    let (b0, b1) = split_at(b, half);
    let z0 = a0.mul_nat(&b0);
    let z2 = a1.mul_nat(&b1);
    let z1 = a0
        .add_nat(&a1)
        .mul_nat(&b0.add_nat(&b1))
        .checked_sub(&z0)
        .unwrap()
        .checked_sub(&z2)
        .unwrap();
    z2.shl_bits(half * 128)
        .add_nat(&z1.shl_bits(half * 64))
        .add_nat(&z0)
}

fn split_at(n: &Nat, limb: usize) -> (Nat, Nat) {
    if limb >= n.limbs.len() {
        return (n.clone(), Nat::zero());
    }
    (
        Nat::from_limbs(n.limbs[..limb].to_vec()),
        Nat::from_limbs(n.limbs[limb..].to_vec()),
    )
}

/// Knuth's Algorithm D for multi-limb division. Requires `v.limbs.len() >= 2`
/// and `u >= v`.
fn knuth_d(u: &Nat, v: &Nat) -> (Nat, Nat) {
    // Normalize: shift so the divisor's top bit is set.
    let shift = v.limbs.last().unwrap().leading_zeros() as usize;
    let un = u.shl_bits(shift);
    let vn = v.shl_bits(shift);
    let n = vn.limbs.len();
    let m = un.limbs.len() - n;

    let mut u = un.limbs.clone();
    u.push(0); // Extra high limb for the algorithm.
    let v = &vn.limbs;
    let mut q = vec![0u64; m + 1];

    let v_hi = v[n - 1];
    let v_next = v[n - 2];

    for j in (0..=m).rev() {
        // Estimate q̂ from the top two limbs of the current remainder.
        let num = ((u[j + n] as u128) << 64) | u[j + n - 1] as u128;
        let mut qhat = num / v_hi as u128;
        let mut rhat = num % v_hi as u128;
        while qhat >> 64 != 0 || qhat * v_next as u128 > ((rhat << 64) | u[j + n - 2] as u128) {
            qhat -= 1;
            rhat += v_hi as u128;
            if rhat >> 64 != 0 {
                break;
            }
        }
        // Multiply-and-subtract.
        let mut borrow: i128 = 0;
        let mut carry: u128 = 0;
        for i in 0..n {
            let p = qhat * v[i] as u128 + carry;
            carry = p >> 64;
            let t = u[j + i] as i128 - (p as u64) as i128 + borrow;
            u[j + i] = t as u64;
            borrow = t >> 64;
        }
        let t = u[j + n] as i128 - carry as i128 + borrow;
        u[j + n] = t as u64;
        if t < 0 {
            // q̂ was one too large; add back.
            qhat -= 1;
            let mut carry = 0u64;
            for i in 0..n {
                let (s1, c1) = u[j + i].overflowing_add(v[i]);
                let (s2, c2) = s1.overflowing_add(carry);
                u[j + i] = s2;
                carry = (c1 as u64) + (c2 as u64);
            }
            u[j + n] = u[j + n].wrapping_add(carry);
        }
        q[j] = qhat as u64;
    }
    u.truncate(n);
    let rem = Nat::from_limbs(u).shr_bits(shift);
    (Nat::from_limbs(q), rem)
}

impl Ord for Nat {
    fn cmp(&self, other: &Self) -> Ordering {
        match self.limbs.len().cmp(&other.limbs.len()) {
            Ordering::Equal => cmp_limbs(&self.limbs, &other.limbs),
            o => o,
        }
    }
}

impl PartialOrd for Nat {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl From<u64> for Nat {
    fn from(v: u64) -> Self {
        Nat::from_limbs(vec![v])
    }
}

impl From<u32> for Nat {
    fn from(v: u32) -> Self {
        Nat::from(v as u64)
    }
}

impl From<u128> for Nat {
    fn from(v: u128) -> Self {
        Nat::from_limbs(vec![v as u64, (v >> 64) as u64])
    }
}

impl Add for &Nat {
    type Output = Nat;
    fn add(self, rhs: &Nat) -> Nat {
        self.add_nat(rhs)
    }
}

impl Sub for &Nat {
    type Output = Nat;
    /// # Panics
    ///
    /// Panics if the result would be negative; use [`Nat::checked_sub`] for
    /// the fallible form.
    fn sub(self, rhs: &Nat) -> Nat {
        self.checked_sub(rhs).expect("Nat subtraction underflow")
    }
}

impl Mul for &Nat {
    type Output = Nat;
    fn mul(self, rhs: &Nat) -> Nat {
        self.mul_nat(rhs)
    }
}

impl Rem for &Nat {
    type Output = Nat;
    /// # Panics
    ///
    /// Panics on division by zero; use [`Nat::rem_nat`] for the fallible
    /// form.
    fn rem(self, rhs: &Nat) -> Nat {
        self.rem_nat(rhs).expect("Nat remainder by zero")
    }
}

impl Shl<usize> for &Nat {
    type Output = Nat;
    fn shl(self, n: usize) -> Nat {
        self.shl_bits(n)
    }
}

impl Shr<usize> for &Nat {
    type Output = Nat;
    fn shr(self, n: usize) -> Nat {
        self.shr_bits(n)
    }
}

impl BitAnd for &Nat {
    type Output = Nat;
    fn bitand(self, rhs: &Nat) -> Nat {
        let n = self.limbs.len().min(rhs.limbs.len());
        Nat::from_limbs((0..n).map(|i| self.limbs[i] & rhs.limbs[i]).collect())
    }
}

impl BitOr for &Nat {
    type Output = Nat;
    fn bitor(self, rhs: &Nat) -> Nat {
        let n = self.limbs.len().max(rhs.limbs.len());
        Nat::from_limbs(
            (0..n)
                .map(|i| self.limbs.get(i).unwrap_or(&0) | rhs.limbs.get(i).unwrap_or(&0))
                .collect(),
        )
    }
}

impl BitXor for &Nat {
    type Output = Nat;
    fn bitxor(self, rhs: &Nat) -> Nat {
        let n = self.limbs.len().max(rhs.limbs.len());
        Nat::from_limbs(
            (0..n)
                .map(|i| self.limbs.get(i).unwrap_or(&0) ^ rhs.limbs.get(i).unwrap_or(&0))
                .collect(),
        )
    }
}

impl fmt::Debug for Nat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Nat(0x{})", self.to_hex())
    }
}

impl fmt::Display for Nat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        // Repeated division by 10^19 (largest power of ten in a u64).
        let mut chunks = Vec::new();
        let mut cur = self.clone();
        while !cur.is_zero() {
            let (q, r) = cur.div_rem_u64(10_000_000_000_000_000_000);
            chunks.push(r);
            cur = q;
        }
        write!(f, "{}", chunks.pop().unwrap())?;
        for c in chunks.into_iter().rev() {
            write!(f, "{c:019}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(v: u64) -> Nat {
        Nat::from(v)
    }

    #[test]
    fn zero_and_one() {
        assert!(Nat::zero().is_zero());
        assert!(Nat::one().is_one());
        assert!(!Nat::one().is_zero());
        assert_eq!(Nat::zero().bit_len(), 0);
        assert_eq!(Nat::one().bit_len(), 1);
    }

    #[test]
    fn add_with_carry_across_limbs() {
        let a = Nat::from(u64::MAX);
        let b = n(1);
        let s = a.add_nat(&b);
        assert_eq!(s.limbs(), &[0, 1]);
    }

    #[test]
    fn sub_borrow() {
        let a = Nat::from_limbs(vec![0, 1]); // 2^64
        let b = n(1);
        let d = a.checked_sub(&b).unwrap();
        assert_eq!(d, Nat::from(u64::MAX));
        assert_eq!(b.checked_sub(&a), None);
    }

    #[test]
    fn mul_small() {
        assert_eq!(n(7).mul_nat(&n(6)), n(42));
        assert_eq!(n(0).mul_nat(&n(6)), Nat::zero());
    }

    #[test]
    fn mul_u64_matches_mul_nat() {
        let a = Nat::from_hex("ffeeddccbbaa99887766554433221100aabbccdd").unwrap();
        assert_eq!(a.mul_u64(12345), a.mul_nat(&n(12345)));
    }

    #[test]
    fn div_rem_small() {
        let (q, r) = n(100).div_rem(&n(7)).unwrap();
        assert_eq!(q, n(14));
        assert_eq!(r, n(2));
    }

    #[test]
    fn div_by_zero_is_error() {
        assert_eq!(n(1).div_rem(&Nat::zero()), Err(DivideByZero));
    }

    #[test]
    fn div_rem_multi_limb_roundtrip() {
        let a = Nat::from_hex("123456789abcdef0123456789abcdef0123456789abcdef0").unwrap();
        let b = Nat::from_hex("fedcba9876543210fedcba98").unwrap();
        let (q, r) = a.div_rem(&b).unwrap();
        assert!(r < b);
        assert_eq!(q.mul_nat(&b).add_nat(&r), a);
    }

    #[test]
    fn knuth_d_add_back_case() {
        // Construct a case that exercises the rare add-back branch:
        // u = (2^128 - 1) * 2^64, v = 2^128 - 2^64 - 1 forces qhat
        // overestimation.
        let u = Nat::from_limbs(vec![0, u64::MAX, u64::MAX]);
        let v = Nat::from_limbs(vec![u64::MAX, u64::MAX - 1]);
        let (q, r) = u.div_rem(&v).unwrap();
        assert_eq!(q.mul_nat(&v).add_nat(&r), u);
        assert!(r < v);
    }

    #[test]
    fn shifts() {
        let a = Nat::from_hex("1234").unwrap();
        assert_eq!(a.shl_bits(4), Nat::from_hex("12340").unwrap());
        assert_eq!(a.shr_bits(4), Nat::from_hex("123").unwrap());
        assert_eq!(a.shl_bits(64).shr_bits(64), a);
        assert_eq!(a.shr_bits(100), Nat::zero());
    }

    #[test]
    fn bytes_roundtrip() {
        let a = Nat::from_bytes_be(&[0, 0, 1, 2, 3]);
        assert_eq!(a.to_bytes_be(), vec![1, 2, 3]);
        assert_eq!(Nat::from_bytes_be(&[]), Nat::zero());
        assert_eq!(a.to_bytes_be_padded(5), vec![0, 0, 1, 2, 3]);
    }

    #[test]
    fn hex_roundtrip() {
        let a = Nat::from_hex("deadbeef0123456789").unwrap();
        assert_eq!(Nat::from_hex(&a.to_hex()).unwrap(), a);
        assert_eq!(Nat::from_hex(""), None);
        assert_eq!(Nat::from_hex("xyz"), None);
    }

    #[test]
    fn decimal_display() {
        assert_eq!(Nat::zero().to_string(), "0");
        assert_eq!(n(12345).to_string(), "12345");
        // 2^64 = 18446744073709551616.
        assert_eq!(
            Nat::from_limbs(vec![0, 1]).to_string(),
            "18446744073709551616"
        );
    }

    #[test]
    fn ordering() {
        assert!(n(5) < n(6));
        assert!(Nat::from_limbs(vec![0, 1]) > Nat::from(u64::MAX));
        assert_eq!(n(5).cmp_u64(5), Ordering::Equal);
        assert_eq!(
            Nat::from_limbs(vec![0, 1]).cmp_u64(u64::MAX),
            Ordering::Greater
        );
    }

    #[test]
    fn gcd_basics() {
        assert_eq!(n(12).gcd(&n(18)), n(6));
        assert_eq!(n(17).gcd(&n(5)), n(1));
        assert_eq!(Nat::zero().gcd(&n(7)), n(7));
        assert_eq!(n(7).gcd(&Nat::zero()), n(7));
    }

    #[test]
    fn bit_get_set() {
        let mut a = Nat::zero();
        a.set_bit(70, true);
        assert!(a.bit(70));
        assert_eq!(a.bit_len(), 71);
        a.set_bit(70, false);
        assert!(a.is_zero());
    }

    #[test]
    fn trailing_zeros() {
        assert_eq!(Nat::zero().trailing_zeros(), None);
        assert_eq!(n(8).trailing_zeros(), Some(3));
        assert_eq!(Nat::from_limbs(vec![0, 2]).trailing_zeros(), Some(65));
    }

    #[test]
    fn karatsuba_matches_schoolbook() {
        // Build operands just above the Karatsuba threshold.
        let mut limbs_a = Vec::new();
        let mut limbs_b = Vec::new();
        let mut x: u64 = 0x9e3779b97f4a7c15;
        for _ in 0..30 {
            x = x.wrapping_mul(0xbf58476d1ce4e5b9).wrapping_add(1);
            limbs_a.push(x);
            x = x.wrapping_mul(0x94d049bb133111eb).wrapping_add(7);
            limbs_b.push(x);
        }
        let a = Nat::from_limbs(limbs_a);
        let b = Nat::from_limbs(limbs_b);
        let expected = Nat::from_limbs(schoolbook(a.limbs(), b.limbs()));
        assert_eq!(a.mul_nat(&b), expected);
    }

    #[test]
    fn square_matches_mul() {
        let mut x: u64 = 0x9e3779b97f4a7c15;
        for len in 0..40 {
            let limbs: Vec<u64> = (0..len)
                .map(|i| {
                    x = x.wrapping_mul(0xbf58476d1ce4e5b9).wrapping_add(1);
                    // Saturated limbs drive every carry chain.
                    if i % 3 == 0 {
                        u64::MAX
                    } else {
                        x
                    }
                })
                .collect();
            let a = Nat::from_limbs(limbs);
            assert_eq!(a.square(), a.mul_nat(&a), "len={len}");
        }
    }

    #[test]
    fn bit_ops() {
        let a = Nat::from_hex("f0f0").unwrap();
        let b = Nat::from_hex("ff00").unwrap();
        assert_eq!(&a & &b, Nat::from_hex("f000").unwrap());
        assert_eq!(&a | &b, Nat::from_hex("fff0").unwrap());
        assert_eq!(&a ^ &b, Nat::from_hex("0ff0").unwrap());
    }
}
