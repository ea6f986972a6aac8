//! Primality testing and prime generation.
//!
//! Rabin–Williams key generation (paper §3.1.3) needs primes with specific
//! residues modulo 8 (`p ≡ 3`, `q ≡ 7`), so generation takes a congruence
//! constraint. Testing is trial division by small primes, one Miller–Rabin
//! round with a random base, then Baillie–PSW: a strong test to base 2 and
//! a strong Lucas test.

use std::cmp::Ordering;

use crate::mont::Montgomery;
use crate::nat::Nat;
use crate::rand_source::RandomSource;

/// Miller–Rabin rounds key generation asks for. They fix the random
/// stream and the fallback, not the work done: [`is_probable_prime`]
/// draws a base for every round, but once Baillie–PSW passes it tests
/// only the first. The other rounds run only for a candidate Baillie–PSW
/// has already proved composite, so the verdict matches 64 rounds
/// (error ≤ 4^-64) unless a composite fools one random round and
/// Baillie–PSW at once.
pub(crate) const MR_ROUNDS: usize = 64;

/// Small primes used for cheap trial division before Miller–Rabin.
const SMALL_PRIMES: [u64; 54] = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
    101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193,
    197, 199, 211, 223, 227, 229, 233, 239, 241, 251,
];

/// [`SMALL_PRIMES`] cut into runs whose product fits a `u64`, as
/// `(product, end)`: one remainder of the candidate per run, then one
/// word remainder per prime in it.
const TRIAL_RUNS: [(u64, usize); 6] = trial_runs();

const fn trial_runs<const G: usize>() -> [(u64, usize); G] {
    let mut runs = [(1u64, 0usize); G];
    let (mut g, mut i) = (0, 0);
    while i < SMALL_PRIMES.len() {
        match runs[g].0.checked_mul(SMALL_PRIMES[i]) {
            Some(product) => {
                runs[g] = (product, i + 1);
                i += 1;
            }
            None => g += 1,
        }
    }
    assert!(g + 1 == G, "one run per product that fits a word");
    runs
}

/// Selfridge `D` values that may fail before the search checks whether
/// the candidate is a perfect square, for which no `D` succeeds.
const SQUARE_CHECK_AFTER: usize = 4;

/// Tests whether `n` is (probably) prime: trial division, then up to
/// `rounds` Miller–Rabin rounds with bases drawn from `rng`.
///
/// Round 1 runs as drawn. If it passes and more rounds are asked for,
/// Baillie–PSW settles the candidate: when it passes, the bases of the
/// remaining rounds are drawn and not used, which is where a prime leaves
/// the stream whatever its bases; when it fails, `n` is composite and the
/// remaining rounds run as drawn, so the draws stop where the first
/// witness is found. Either way `rng` ends where `rounds` full rounds
/// leave it.
pub fn is_probable_prime<R: RandomSource>(n: &Nat, rounds: usize, rng: &mut R) -> bool {
    if let Some(verdict) = trial_division(n) {
        return verdict;
    }
    let Some(remaining) = rounds.checked_sub(1) else {
        return true;
    };
    let candidate = Candidate::new(n);
    let n_minus_3 = n.checked_sub(&Nat::from(3u64)).expect("n > 251");
    let mut random_round =
        || candidate.round(&rng.random_below(&n_minus_3).add_nat(&Nat::from(2u64)));
    if !random_round() {
        return false;
    }
    if remaining == 0 {
        return true;
    }
    if candidate.base2() && candidate.lucas() {
        for _ in 0..remaining {
            rng.random_below(&n_minus_3);
        }
        return true;
    }
    (0..remaining).all(|_| random_round())
}

/// The Baillie–PSW test: a strong probable-prime test to base 2 and a
/// strong Lucas test with Selfridge's parameters, for odd `n > 1`; 2 is
/// prime, and 0, 1 and every other even `n` are not. No composite is
/// known to pass, and none below 2⁶⁴ does.
pub fn baillie_psw(n: &Nat) -> bool {
    if n.is_even() || n.cmp_u64(3) == Ordering::Less {
        return n.cmp_u64(2) == Ordering::Equal;
    }
    let candidate = Candidate::new(n);
    candidate.base2() && candidate.lucas()
}

/// `Some(verdict)` when trial division by [`SMALL_PRIMES`] settles `n`:
/// `n` is one of them, is below 2, or has one as a factor.
fn trial_division(n: &Nat) -> Option<bool> {
    let largest = SMALL_PRIMES[SMALL_PRIMES.len() - 1];
    if let Some(v) = n.to_u64().filter(|&v| v <= largest) {
        return Some(SMALL_PRIMES.binary_search(&v).is_ok());
    }
    let mut start = 0;
    for &(product, end) in &TRIAL_RUNS {
        let r = n.rem_u64(product);
        let run = &SMALL_PRIMES[start..end];
        if run.iter().any(|&p| r.is_multiple_of(p)) {
            return Some(false);
        }
        start = end;
    }
    None
}

/// One odd candidate `n > 2` prepared for strong tests: its Montgomery
/// context, built once, and `n − 1 = d·2^s` with `d` odd.
struct Candidate {
    mont: Montgomery,
    n_minus_1: Nat,
    d: Nat,
    s: usize,
}

impl Candidate {
    fn new(n: &Nat) -> Candidate {
        let n_minus_1 = n.checked_sub(&Nat::one()).expect("n > 2");
        let s = n_minus_1.trailing_zeros().expect("n > 2");
        Candidate {
            mont: Montgomery::new(n).expect("n is odd"),
            d: n_minus_1.shr_bits(s),
            n_minus_1,
            s,
        }
    }

    /// The strong probable-prime test to base `a`: `a^d ≡ 1`, or
    /// `a^(d·2^r) ≡ −1` for some `r < s`.
    fn round(&self, a: &Nat) -> bool {
        let mut x = self.mont.pow(a, &self.d);
        if x.is_one() || x == self.n_minus_1 {
            return true;
        }
        for _ in 1..self.s {
            x = self.mont.mul_mod(&x, &x);
            if x == self.n_minus_1 {
                return true;
            }
        }
        false
    }

    fn base2(&self) -> bool {
        self.round(&Nat::from(2u64))
    }

    /// The strong Lucas test with `P = 1`, `Q = (1 − D)/4` and Selfridge's
    /// `D`; false too when the search for `D` proves `n` composite.
    fn lucas(&self) -> bool {
        let n = self.mont.modulus();
        let Some(d) = selfridge(n) else {
            return false;
        };
        let n_plus_1 = n.add_nat(&Nat::one());
        let s = n_plus_1.trailing_zeros().expect("n + 1 > 0");
        self.mont.strong_lucas(d, &n_plus_1.shr_bits(s), s)
    }
}

/// Selfridge's method A: the first `D` of 5, −7, 9, −11, … with Jacobi
/// symbol `(D/n) = −1`. `None` when the search proves the odd `n > 1`
/// composite: some `D` below `n` shares a factor with it, or it is a
/// perfect square (then no `D` exists; checked once a few have failed).
fn selfridge(n: &Nat) -> Option<i64> {
    let (mut d, mut tried): (i64, usize) = (5, 0);
    loop {
        match jacobi_small(d, n) {
            -1 => return Some(d),
            0 if n.cmp_u64(d.unsigned_abs()) == Ordering::Greater => return None,
            _ => {}
        }
        tried += 1;
        if tried == SQUARE_CHECK_AFTER && n.isqrt().square() == *n {
            return None;
        }
        d = if d > 0 { -d - 2 } else { -d + 2 };
    }
}

/// The Jacobi symbol `(d/n)` for an odd `d` of word size and an odd
/// `n > 1`, by reciprocity: `(|d|/n) = (n mod |d| / |d|)`, negated when
/// `|d| ≡ n ≡ 3 (mod 4)`, and `(−1/n) = −1` when `n ≡ 3 (mod 4)`.
fn jacobi_small(d: i64, n: &Nat) -> i32 {
    let m = d.unsigned_abs();
    let n3 = n.limbs()[0] % 4 == 3;
    let flip = (n3 && m % 4 == 3) != (n3 && d < 0);
    let j = jacobi_u64(n.rem_u64(m), m);
    if flip {
        -j
    } else {
        j
    }
}

/// The Jacobi symbol `(a/m)` for odd `m`, on words.
fn jacobi_u64(mut a: u64, mut m: u64) -> i32 {
    let mut j = 1;
    a %= m;
    while a != 0 {
        let tz = a.trailing_zeros();
        a >>= tz;
        if tz % 2 == 1 && matches!(m % 8, 3 | 5) {
            j = -j;
        }
        if a % 4 == 3 && m % 4 == 3 {
            j = -j;
        }
        std::mem::swap(&mut a, &mut m);
        a %= m;
    }
    if m == 1 {
        j
    } else {
        0
    }
}

/// Generates a probable prime of exactly `bits` bits that is congruent to
/// `residue` modulo `modulus`.
///
/// Used for Rabin–Williams: `gen_prime_congruent(bits, 3, 8, …)` and
/// `gen_prime_congruent(bits, 7, 8, …)`; and for SRP safe-prime style
/// groups in tests.
///
/// # Panics
///
/// Panics if `bits < 2`, `modulus == 0`, or `residue >= modulus`, or if the
/// congruence class contains only even numbers (no primes > 2).
pub fn gen_prime_congruent<R: RandomSource>(
    bits: usize,
    residue: u64,
    modulus: u64,
    rng: &mut R,
) -> Nat {
    assert!(bits >= 2, "prime must have at least 2 bits");
    assert!(modulus > 0 && residue < modulus, "bad congruence");
    assert!(
        residue % 2 == 1 || modulus % 2 == 1,
        "congruence class must contain odd numbers"
    );
    loop {
        let mut candidate = rng.random_bits(bits);
        // Force exact bit length.
        candidate.set_bit(bits - 1, true);
        // Force the congruence: adjust candidate to candidate - (candidate
        // mod modulus) + residue, then fix parity/length drift by stepping.
        let r = candidate.rem_u64(modulus);
        let delta = (residue + modulus - r) % modulus;
        candidate = candidate.add_nat(&Nat::from(delta));
        if candidate.bit_len() != bits {
            continue;
        }
        // Step by `modulus` until prime (bounded scan keeps bias small).
        for _ in 0..512 {
            if candidate.bit_len() != bits {
                break;
            }
            if candidate.is_odd() && is_probable_prime(&candidate, MR_ROUNDS, rng) {
                return candidate;
            }
            candidate = candidate.add_nat(&Nat::from(modulus));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modular::modpow;
    use crate::rand_source::{CountingSource, XorShiftSource};

    #[test]
    fn small_primes_recognized() {
        let mut rng = XorShiftSource::new(1);
        for p in [2u64, 3, 5, 7, 11, 13, 97, 251, 257, 65537] {
            assert!(
                is_probable_prime(&Nat::from(p), 16, &mut rng),
                "{p} should be prime"
            );
        }
    }

    #[test]
    fn small_composites_rejected() {
        let mut rng = XorShiftSource::new(2);
        for c in [0u64, 1, 4, 6, 9, 15, 21, 25, 91, 561, 1105, 6601, 8911] {
            assert!(
                !is_probable_prime(&Nat::from(c), 16, &mut rng),
                "{c} should be composite"
            );
        }
    }

    #[test]
    fn carmichael_numbers_rejected() {
        // Carmichael numbers fool Fermat but not Miller–Rabin.
        let mut rng = XorShiftSource::new(3);
        for c in [561u64, 41041, 825265] {
            assert!(!is_probable_prime(&Nat::from(c), 16, &mut rng));
        }
    }

    #[test]
    fn large_known_prime() {
        // 2^127 - 1 is a Mersenne prime.
        let m127 = Nat::one().shl_bits(127).checked_sub(&Nat::one()).unwrap();
        let mut rng = XorShiftSource::new(4);
        assert!(is_probable_prime(&m127, 16, &mut rng));
        // 2^128 + 1 is composite (= 59649589127497217 * ...).
        let f = Nat::one().shl_bits(128).add_nat(&Nat::one());
        assert!(!is_probable_prime(&f, 16, &mut rng));
    }

    #[test]
    fn gen_prime_has_exact_bits() {
        let mut rng = XorShiftSource::new(5);
        for bits in [32usize, 48, 128] {
            let p = gen_prime_congruent(bits, 1, 2, &mut rng);
            assert_eq!(p.bit_len(), bits);
            assert!(is_probable_prime(&p, 16, &mut rng));
        }
    }

    #[test]
    fn gen_prime_congruent_rabin_classes() {
        let mut rng = XorShiftSource::new(6);
        let p = gen_prime_congruent(96, 3, 8, &mut rng);
        assert_eq!(p.rem_u64(8), 3);
        assert_eq!(p.bit_len(), 96);
        let q = gen_prime_congruent(96, 7, 8, &mut rng);
        assert_eq!(q.rem_u64(8), 7);
        assert_eq!(q.bit_len(), 96);
    }

    #[test]
    #[should_panic(expected = "congruence class must contain odd numbers")]
    fn even_congruence_class_panics() {
        let mut rng = XorShiftSource::new(7);
        let _ = gen_prime_congruent(32, 2, 4, &mut rng);
    }

    fn hex(s: &str) -> Nat {
        Nat::from_hex(s).unwrap()
    }

    fn mersenne_127() -> Nat {
        Nat::one().shl_bits(127).checked_sub(&Nat::one()).unwrap()
    }

    #[test]
    fn strong_lucas_pseudoprimes_fail_base_2() {
        for c in [5459u64, 5777, 10_877, 16_109, 18_971] {
            let w = Candidate::new(&Nat::from(c));
            assert!(w.lucas(), "{c} is a strong Lucas pseudoprime");
            assert!(!w.base2(), "{c} fails base 2");
            assert!(!baillie_psw(&Nat::from(c)));
        }
    }

    #[test]
    fn base_2_pseudoprimes_fail_lucas() {
        // 829·1657 and 2251·11 251.
        for c in [1_373_653u64, 25_326_001] {
            let w = Candidate::new(&Nat::from(c));
            assert!(w.base2(), "{c} is a strong pseudoprime to base 2");
            assert!(!w.lucas(), "{c} fails Lucas");
            assert!(!baillie_psw(&Nat::from(c)));
        }
    }

    #[test]
    fn key_and_group_primes_pass_both() {
        let primes = [
            mersenne_127(),
            // The pinned 768- and 512-bit Rabin keys' primes (six and four
            // limbs, the widths the chain keeps on the stack).
            hex(
                "9bf201bbbe0faa5fb058146ed12e2fa19ba7856b87d022bab29c5a61e48a5df4\
                 4cff6c3f8220d19dc409149fb8056213",
            ),
            hex(
                "baead4e00ba855b1d1ba51cb23a90d10b1685b06f0d6272e46bb16bcbdc15528\
                 2ceba91fb37d95949e406b2a2418ae07",
            ),
            hex("90259f71408f0ba5b6c8f310d9c63e402548b9f81fdbe6c86b61ec00f93437ab"),
            hex("f773a48ea9ec4d07b0c7b1b858ffbec8866bd1f618f6a58f09fead065ae760f7"),
            // The pinned SRP-128 group's safe prime and its half.
            hex("cbad5c5169b8069f99f1519b2cd376b7"),
            hex("cbad5c5169b8069f99f1519b2cd376b7").shr_bits(1),
        ];
        for p in &primes {
            let w = Candidate::new(p);
            assert!(w.base2() && w.lucas(), "{p:?}");
            assert!(baillie_psw(p));
        }
    }

    #[test]
    fn the_lucas_chain_allocates_nothing_at_key_widths() {
        // The pinned 512- and 768-bit keys' primes: four and six limbs.
        for p in [
            hex("90259f71408f0ba5b6c8f310d9c63e402548b9f81fdbe6c86b61ec00f93437ab"),
            hex(
                "9bf201bbbe0faa5fb058146ed12e2fa19ba7856b87d022bab29c5a61e48a5df4\
                 4cff6c3f8220d19dc409149fb8056213",
            ),
        ] {
            let w = Candidate::new(&p);
            let d = selfridge(&p).unwrap();
            let n_plus_1 = p.add_nat(&Nat::one());
            let s = n_plus_1.trailing_zeros().unwrap();
            let exp = n_plus_1.shr_bits(s);
            let (passed, allocs) =
                crate::twin::tests::allocations_in(|| w.mont.strong_lucas(d, &exp, s));
            assert!(passed);
            assert_eq!(allocs, 0, "{} limbs", p.limbs().len());
        }
    }

    #[test]
    fn perfect_squares_are_rejected_without_looping() {
        for root in [Nat::from(257u64), Nat::from((1u64 << 61) - 1)] {
            let square = root.square();
            assert_eq!(selfridge(&square), None, "{square:?}");
            assert!(!Candidate::new(&square).lucas());
            assert!(!baillie_psw(&square));
        }
    }

    #[test]
    fn a_d_sharing_a_factor_proves_composite() {
        // (5/1285) = 0 and (−7/1799) = 0: 5·257 and 7·257.
        assert_eq!(selfridge(&Nat::from(5 * 257u64)), None);
        assert_eq!(selfridge(&Nat::from(7 * 257u64)), None);
        // D = n itself says nothing: 5 and 11 are prime.
        assert_eq!(selfridge(&Nat::from(5u64)), Some(-7));
        assert_eq!(selfridge(&Nat::from(11u64)), Some(13));
    }

    #[test]
    fn baillie_psw_matches_a_sieve() {
        const LIMIT: usize = 20_000;
        let mut prime = vec![true; LIMIT];
        prime[0] = false;
        prime[1] = false;
        for i in 2..LIMIT {
            if prime[i] {
                (i * i..LIMIT).step_by(i).for_each(|j| prime[j] = false);
            }
        }
        for (n, &is_prime) in prime.iter().enumerate() {
            assert_eq!(baillie_psw(&Nat::from(n as u64)), is_prime, "n={n}");
        }
    }

    #[test]
    fn jacobi_small_matches_the_general_symbol() {
        for n in (3u64..400).step_by(2) {
            for d in [5i64, -7, 9, -11, 13, -15, 17, -19, 21] {
                let a = Nat::from(d.rem_euclid(n as i64) as u64);
                let want = crate::modular::jacobi(&a, &Nat::from(n));
                assert_eq!(jacobi_small(d, &Nat::from(n)), want, "({d}/{n})");
            }
        }
    }

    #[test]
    fn trial_runs_cover_every_small_prime() {
        assert_eq!(TRIAL_RUNS[TRIAL_RUNS.len() - 1].1, SMALL_PRIMES.len());
        let mut start = 0;
        for &(product, end) in &TRIAL_RUNS {
            assert_eq!(SMALL_PRIMES[start..end].iter().product::<u64>(), product);
            start = end;
        }
    }

    /// The Miller–Rabin loop this module ran before Baillie–PSW, verbatim:
    /// the oracle for the verdicts and the random stream.
    fn reference_is_probable_prime<R: RandomSource>(n: &Nat, rounds: usize, rng: &mut R) -> bool {
        if n.cmp_u64(2) == std::cmp::Ordering::Less {
            return false;
        }
        for &p in &SMALL_PRIMES {
            if n.cmp_u64(p) == std::cmp::Ordering::Equal {
                return true;
            }
            let (_, r) = n.div_rem_u64(p);
            if r == 0 {
                return false;
            }
        }
        // Write n - 1 = d * 2^s with d odd.
        let n_minus_1 = n.checked_sub(&Nat::one()).unwrap();
        let s = n_minus_1.trailing_zeros().unwrap();
        let d = n_minus_1.shr_bits(s);

        let two = Nat::from(2u64);
        let n_minus_3 = match n.checked_sub(&Nat::from(4u64)) {
            Some(v) => v.add_nat(&Nat::one()), // n - 3
            None => Nat::one(),
        };

        'witness: for _ in 0..rounds {
            // a in [2, n-2].
            let a = rng.random_below(&n_minus_3).add_nat(&two);
            let mut x = modpow(&a, &d, n);
            if x.is_one() || x == n_minus_1 {
                continue;
            }
            for _ in 0..s - 1 {
                x = x.square().rem_nat(n).unwrap();
                if x == n_minus_1 {
                    continue 'witness;
                }
            }
            return false;
        }
        true
    }

    /// Round counts the oracle cycles through: one round alone, the
    /// fallback's shortest runs, SRP's second test and key generation's.
    const ROUNDS: [usize; 5] = [1, 2, 3, 32, MR_ROUNDS];

    /// Runs `n` through both tests, each on a clone of one seeded source:
    /// the same verdict, the same bytes drawn and the same next draw.
    fn assert_equivalent(n: &Nat, rounds: usize, seed: u64) {
        let src = XorShiftSource::new(seed);
        let mut new = CountingSource::new(src.clone());
        let mut old = CountingSource::new(src);
        let verdict = is_probable_prime(n, rounds, &mut new);
        assert_eq!(
            verdict,
            reference_is_probable_prime(n, rounds, &mut old),
            "verdict on {n} at {rounds} rounds"
        );
        assert_eq!(
            new.bytes_drawn(),
            old.bytes_drawn(),
            "bytes drawn on {n} at {rounds} rounds"
        );
        let next = |src: CountingSource<XorShiftSource>| {
            let mut buf = [0u8; 16];
            src.into_inner().fill(&mut buf);
            buf
        };
        assert_eq!(next(new), next(old), "next draw after {n}");
    }

    fn assert_all_equivalent(candidates: impl IntoIterator<Item = Nat>) -> usize {
        let mut count = 0;
        for (i, n) in candidates.into_iter().enumerate() {
            assert_equivalent(&n, ROUNDS[i % ROUNDS.len()], 0x0_4AC1E + i as u64);
            count += 1;
        }
        count
    }

    fn is_prime_u64(n: u64) -> bool {
        let mut divisors = (2..).take_while(|d| d * d <= n);
        n >= 2 && divisors.all(|d| !n.is_multiple_of(d))
    }

    /// Every `step`-th odd `n` in [251², 3 000 000) with no factor ≤ 251:
    /// the candidates trial division passes on to Miller–Rabin.
    fn sieved(step: usize) -> impl Iterator<Item = Nat> {
        (63_001u64..3_000_000)
            .step_by(2)
            .filter(|n| SMALL_PRIMES.iter().all(|p| n % p != 0))
            .step_by(step)
            .map(Nat::from)
    }

    /// Strong pseudoprimes, each of which passes one of the two halves
    /// of Baillie–PSW: strong Lucas pseudoprimes with no factor ≤ 251,
    /// then the strong base-2 pseudoprimes 829·1657 and 2251·11 251.
    fn pseudoprimes() -> impl Iterator<Item = Nat> {
        [
            161_027u64, 176_399, 189_419, 192_509, 231_703, 288_919, 324_899, 1_373_653, 25_326_001,
        ]
        .into_iter()
        .map(Nat::from)
    }

    /// The first `count` Carmichael numbers `(6k+1)(12k+1)(18k+1)` whose
    /// three factors are prime and above 251: many of their bases are
    /// strong liars, so round 1 passes and the fallback runs.
    fn carmichaels(count: usize) -> impl Iterator<Item = Nat> {
        (42u64..)
            .filter(|k| {
                [6 * k + 1, 12 * k + 1, 18 * k + 1]
                    .into_iter()
                    .all(is_prime_u64)
            })
            .map(|k| {
                Nat::from(6 * k + 1)
                    .mul_nat(&Nat::from(12 * k + 1))
                    .mul_nat(&Nat::from(18 * k + 1))
            })
            .take(count)
    }

    /// `count` random odd candidates of 64–520 bits.
    fn random_odd(count: usize) -> impl Iterator<Item = Nat> {
        let mut rng = XorShiftSource::new(0x0DD);
        (0..count).map(move |i| {
            let bits = 64 + i * 151 % 457;
            let mut n = rng.random_bits(bits);
            n.set_bit(bits - 1, true);
            n.set_bit(0, true);
            n
        })
    }

    #[test]
    fn carmichael_candidates_reach_the_fallback() {
        // The fallback is exercised: some Carmichael number passes a
        // random round and is then rejected by Baillie–PSW.
        let mut rng = XorShiftSource::new(0xCA);
        let caught = carmichaels(40).any(|n| {
            let w = Candidate::new(&n);
            let n_minus_3 = n.checked_sub(&Nat::from(3u64)).unwrap();
            (0..8).any(|_| w.round(&rng.random_below(&n_minus_3).add_nat(&Nat::from(2u64))))
                && !(w.base2() && w.lucas())
        });
        assert!(caught);
    }

    #[test]
    fn stream_and_verdicts_match_the_reference_loop() {
        // A slice of each family; the whole set is the ignored test below.
        let checked = assert_all_equivalent(
            sieved(600)
                .chain(pseudoprimes())
                .chain(carmichaels(20))
                .chain(random_odd(400)),
        );
        assert!(checked > 900, "{checked}");
    }

    #[test]
    #[ignore = "the whole candidate set: about ten seconds in release"]
    fn stream_and_verdicts_match_the_reference_loop_over_the_whole_range() {
        let checked = assert_all_equivalent(
            sieved(1)
                .chain(pseudoprimes())
                .chain(carmichaels(400))
                .chain(random_odd(2000)),
        );
        assert!(checked > 290_000, "{checked}");
    }
}
