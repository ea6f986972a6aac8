//! Signed arbitrary-precision integers (sign-magnitude over [`Nat`]).
//!
//! Only the operations the extended GCD and CRT recombination need are
//! provided; everything protocol-facing works on naturals.

use std::cmp::Ordering;
use std::fmt;

use crate::nat::Nat;

/// Sign of an [`Int`]. Zero is canonically [`Sign::Plus`] with zero
/// magnitude.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Sign {
    /// Non-negative.
    Plus,
    /// Strictly negative.
    Minus,
}

/// A signed arbitrary-precision integer.
#[derive(Clone, PartialEq, Eq)]
pub struct Int {
    sign: Sign,
    mag: Nat,
}

impl Int {
    /// Returns zero.
    pub(crate) fn zero() -> Self {
        Int {
            sign: Sign::Plus,
            mag: Nat::zero(),
        }
    }

    /// Returns one.
    pub(crate) fn one() -> Self {
        Int::from_nat(Nat::one())
    }

    /// Wraps a natural number as a non-negative integer.
    pub fn from_nat(mag: Nat) -> Self {
        Int {
            sign: Sign::Plus,
            mag,
        }
    }

    /// Constructs from an explicit sign and magnitude (zero is normalized to
    /// `Plus`).
    pub(crate) fn new(sign: Sign, mag: Nat) -> Self {
        if mag.is_zero() {
            Int::zero()
        } else {
            Int { sign, mag }
        }
    }

    /// Returns `true` if zero.
    pub(crate) fn is_zero(&self) -> bool {
        self.mag.is_zero()
    }

    /// Returns `true` if strictly negative.
    pub(crate) fn is_negative(&self) -> bool {
        self.sign == Sign::Minus
    }

    /// Negation.
    pub(crate) fn neg(&self) -> Int {
        match self.sign {
            _ if self.is_zero() => Int::zero(),
            Sign::Plus => Int {
                sign: Sign::Minus,
                mag: self.mag.clone(),
            },
            Sign::Minus => Int {
                sign: Sign::Plus,
                mag: self.mag.clone(),
            },
        }
    }

    /// `self + other`.
    pub(crate) fn add(&self, other: &Int) -> Int {
        if self.sign == other.sign {
            return Int::new(self.sign, self.mag.add_nat(&other.mag));
        }
        match self.mag.cmp(&other.mag) {
            Ordering::Equal => Int::zero(),
            Ordering::Greater => Int::new(self.sign, self.mag.checked_sub(&other.mag).unwrap()),
            Ordering::Less => Int::new(other.sign, other.mag.checked_sub(&self.mag).unwrap()),
        }
    }

    /// `self - other`.
    pub fn sub(&self, other: &Int) -> Int {
        self.add(&other.neg())
    }

    /// `self * other`.
    pub(crate) fn mul(&self, other: &Int) -> Int {
        let sign = if self.sign == other.sign {
            Sign::Plus
        } else {
            Sign::Minus
        };
        Int::new(sign, self.mag.mul_nat(&other.mag))
    }

    /// Reduces into `[0, m)` (mathematical modulus, not truncation).
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    pub fn rem_euclid(&self, m: &Nat) -> Nat {
        let r = self.mag.rem_nat(m).expect("modulus must be nonzero");
        match self.sign {
            Sign::Plus => r,
            Sign::Minus if r.is_zero() => r,
            Sign::Minus => m.checked_sub(&r).unwrap(),
        }
    }
}

impl From<i64> for Int {
    fn from(v: i64) -> Self {
        if v < 0 {
            Int::new(Sign::Minus, Nat::from(v.unsigned_abs()))
        } else {
            Int::from_nat(Nat::from(v as u64))
        }
    }
}

impl fmt::Debug for Int {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_negative() {
            write!(f, "-")?;
        }
        write!(f, "{:?}", self.mag)
    }
}

impl fmt::Display for Int {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_negative() {
            write!(f, "-")?;
        }
        write!(f, "{}", self.mag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn i(v: i64) -> Int {
        Int::from(v)
    }

    #[test]
    fn signs_normalize_zero() {
        assert_eq!(Int::new(Sign::Minus, Nat::zero()), Int::zero());
        assert!(!Int::zero().is_negative());
    }

    #[test]
    fn add_mixed_signs() {
        assert_eq!(i(5).add(&i(-3)), i(2));
        assert_eq!(i(3).add(&i(-5)), i(-2));
        assert_eq!(i(-3).add(&i(-5)), i(-8));
        assert_eq!(i(5).add(&i(-5)), Int::zero());
    }

    #[test]
    fn sub_and_neg() {
        assert_eq!(i(5).sub(&i(8)), i(-3));
        assert_eq!(i(-5).neg(), i(5));
        assert_eq!(Int::zero().neg(), Int::zero());
    }

    #[test]
    fn mul_signs() {
        assert_eq!(i(-4).mul(&i(3)), i(-12));
        assert_eq!(i(-4).mul(&i(-3)), i(12));
        assert_eq!(i(4).mul(&i(0)), Int::zero());
    }

    #[test]
    fn rem_euclid_negative() {
        let m = Nat::from(7u64);
        assert_eq!(i(-1).rem_euclid(&m), Nat::from(6u64));
        assert_eq!(i(-7).rem_euclid(&m), Nat::zero());
        assert_eq!(i(10).rem_euclid(&m), Nat::from(3u64));
    }

    #[test]
    fn display() {
        assert_eq!(i(-42).to_string(), "-42");
        assert_eq!(i(42).to_string(), "42");
    }
}
