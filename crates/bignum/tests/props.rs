//! Property-style tests for the bignum substrate, driven by the
//! crate's own deterministic [`XorShiftSource`] so every run checks
//! the same randomized sample.

use sfs_bignum::{
    crt_pair, gen_prime_congruent, invmod, jacobi, modpow, BlumPrime, CrtBasis, Nat, RandomSource,
    XorShiftSource,
};

const CASES: usize = 192;

fn rand_u64(rng: &mut XorShiftSource) -> u64 {
    let mut b = [0u8; 8];
    rng.fill(&mut b);
    u64::from_be_bytes(b)
}

/// An arbitrary `Nat` up to ~256 bits via byte strings (length 0–31).
fn nat(rng: &mut XorShiftSource) -> Nat {
    let len = (rand_u64(rng) % 32) as usize;
    let mut b = vec![0u8; len];
    rng.fill(&mut b);
    Nat::from_bytes_be(&b)
}

fn nonzero_nat(rng: &mut XorShiftSource) -> Nat {
    let n = nat(rng);
    if n.is_zero() {
        Nat::one()
    } else {
        n
    }
}

#[test]
fn add_commutes() {
    let mut rng = XorShiftSource::new(0xADD);
    for _ in 0..CASES {
        let (a, b) = (nat(&mut rng), nat(&mut rng));
        assert_eq!(a.add_nat(&b), b.add_nat(&a));
    }
}

#[test]
fn add_associates() {
    let mut rng = XorShiftSource::new(0xADD2);
    for _ in 0..CASES {
        let (a, b, c) = (nat(&mut rng), nat(&mut rng), nat(&mut rng));
        assert_eq!(a.add_nat(&b).add_nat(&c), a.add_nat(&b.add_nat(&c)));
    }
}

#[test]
fn add_then_sub_roundtrips() {
    let mut rng = XorShiftSource::new(0x5B);
    for _ in 0..CASES {
        let (a, b) = (nat(&mut rng), nat(&mut rng));
        assert_eq!(a.add_nat(&b).checked_sub(&b).unwrap(), a);
    }
}

#[test]
fn mul_commutes() {
    let mut rng = XorShiftSource::new(0x30);
    for _ in 0..CASES {
        let (a, b) = (nat(&mut rng), nat(&mut rng));
        assert_eq!(a.mul_nat(&b), b.mul_nat(&a));
    }
}

#[test]
fn mul_distributes() {
    let mut rng = XorShiftSource::new(0xD15);
    for _ in 0..CASES {
        let (a, b, c) = (nat(&mut rng), nat(&mut rng), nat(&mut rng));
        assert_eq!(
            a.mul_nat(&b.add_nat(&c)),
            a.mul_nat(&b).add_nat(&a.mul_nat(&c))
        );
    }
}

#[test]
fn div_rem_invariant() {
    let mut rng = XorShiftSource::new(0xD1F);
    for _ in 0..CASES {
        let (a, b) = (nat(&mut rng), nonzero_nat(&mut rng));
        let (q, r) = a.div_rem(&b).unwrap();
        assert!(r < b);
        assert_eq!(q.mul_nat(&b).add_nat(&r), a);
    }
}

#[test]
fn bytes_roundtrip() {
    let mut rng = XorShiftSource::new(0xB9);
    for _ in 0..CASES {
        let a = nat(&mut rng);
        assert_eq!(Nat::from_bytes_be(&a.to_bytes_be()), a);
    }
}

#[test]
fn hex_roundtrip() {
    let mut rng = XorShiftSource::new(0x4E);
    for _ in 0..CASES {
        let a = nat(&mut rng);
        assert_eq!(Nat::from_hex(&a.to_hex()).unwrap(), a);
    }
}

#[test]
fn shift_roundtrip() {
    let mut rng = XorShiftSource::new(0x54);
    for _ in 0..CASES {
        let a = nat(&mut rng);
        let s = (rand_u64(&mut rng) % 200) as usize;
        assert_eq!(a.shl_bits(s).shr_bits(s), a);
    }
}

#[test]
fn shl_is_mul_by_power_of_two() {
    let mut rng = XorShiftSource::new(0x542);
    for _ in 0..CASES {
        let a = nat(&mut rng);
        let s = (rand_u64(&mut rng) % 100) as usize;
        let pow = Nat::one().shl_bits(s);
        assert_eq!(a.shl_bits(s), a.mul_nat(&pow));
    }
}

#[test]
fn gcd_divides_both() {
    let mut rng = XorShiftSource::new(0x9CD);
    for _ in 0..CASES {
        let (a, b) = (nonzero_nat(&mut rng), nonzero_nat(&mut rng));
        let g = a.gcd(&b);
        assert!(!g.is_zero());
        assert!(a.rem_nat(&g).unwrap().is_zero());
        assert!(b.rem_nat(&g).unwrap().is_zero());
    }
}

#[test]
fn modpow_matches_naive() {
    let mut rng = XorShiftSource::new(0x30D);
    for _ in 0..CASES {
        let base = rand_u64(&mut rng) % 1000;
        let exp = rand_u64(&mut rng) % 64;
        let m = 2 + rand_u64(&mut rng) % 9998;
        let mut naive: u128 = 1;
        for _ in 0..exp {
            naive = naive * base as u128 % m as u128;
        }
        assert_eq!(
            modpow(&Nat::from(base), &Nat::from(exp), &Nat::from(m)),
            Nat::from(naive as u64)
        );
    }
}

/// Plain binary square-and-multiply with a division after every step: the
/// reference the Montgomery kernel must match bit for bit.
fn modpow_reference(base: &Nat, exp: &Nat, m: &Nat) -> Nat {
    let mut acc = Nat::one().rem_nat(m).unwrap();
    for i in (0..exp.bit_len()).rev() {
        acc = acc.mul_nat(&acc).rem_nat(m).unwrap();
        if exp.bit(i) {
            acc = acc.mul_nat(base).rem_nat(m).unwrap();
        }
    }
    acc
}

/// `limbs` random limbs with a nonzero top limb.
fn nat_of_limbs(rng: &mut XorShiftSource, limbs: usize) -> Nat {
    let mut v: Vec<u64> = (0..limbs).map(|_| rand_u64(rng)).collect();
    if let Some(top) = v.last_mut() {
        *top |= 1 << (rand_u64(rng) % 64);
    }
    Nat::from_limbs(v)
}

#[test]
fn modpow_matches_reference_on_wide_moduli() {
    let mut rng = XorShiftSource::new(0x304D);
    let one = Nat::one();
    let mut moduli = vec![Nat::one(), Nat::from(2u64), Nat::from(3u64)];
    for limbs in 1..=24 {
        let odd = &nat_of_limbs(&mut rng, limbs) | &one;
        moduli.push(odd.add_nat(&one)); // even
        moduli.push(odd);
        // Every limb saturated, and one below / above the limb boundary.
        let boundary = Nat::one().shl_bits(64 * limbs);
        moduli.push(boundary.checked_sub(&one).unwrap());
        moduli.push(boundary.add_nat(&one));
        moduli.push(boundary);
        // Top limb saturated over random low limbs.
        let mut v = nat_of_limbs(&mut rng, limbs).limbs().to_vec();
        v[limbs - 1] = u64::MAX;
        v[0] |= 1;
        moduli.push(Nat::from_limbs(v));
    }
    for m in &moduli {
        let limbs = m.limbs().len();
        let bases = [
            Nat::zero(),
            Nat::one(),
            m.checked_sub(&one).unwrap(),
            m.clone(),
            m.add_nat(&one),
            nat_of_limbs(&mut rng, limbs),
            nat_of_limbs(&mut rng, 2 * limbs + 1), // base ≥ m
        ];
        let exp_limbs = 1 + (rand_u64(&mut rng) % 3) as usize;
        let exps = [
            Nat::zero(),
            Nat::one(),
            Nat::from(2u64),
            Nat::from(16u64),
            Nat::from(rand_u64(&mut rng)),
            nat_of_limbs(&mut rng, exp_limbs),
        ];
        for base in &bases {
            for exp in &exps {
                assert_eq!(
                    modpow(base, exp, m),
                    modpow_reference(base, exp, m),
                    "base={base:?} exp={exp:?} m={m:?}"
                );
            }
        }
    }
    // Full-width exponents, as Rabin roots and Miller–Rabin use them.
    for limbs in [1usize, 2, 4, 6, 8, 16, 24] {
        let m = &nat_of_limbs(&mut rng, limbs) | &one;
        let base = nat_of_limbs(&mut rng, limbs);
        let exp = nat_of_limbs(&mut rng, limbs);
        assert_eq!(
            modpow(&base, &exp, &m),
            modpow_reference(&base, &exp, &m),
            "limbs={limbs}"
        );
    }
}

#[test]
fn jacobi_matches_euler_criterion_on_primes() {
    // For an odd prime p, (a/p) ≡ a^((p−1)/2) (mod p).
    let mut rng = XorShiftSource::new(0x7AC2);
    let one = Nat::one();
    for bits in [8usize, 31, 64, 65, 127, 128, 192, 256, 384] {
        let p = gen_prime_congruent(bits, 1, 2, &mut rng);
        let p_minus_1 = p.checked_sub(&one).unwrap();
        let half = p_minus_1.shr_bits(1);
        let mut samples = vec![Nat::zero(), one.clone(), p_minus_1.clone(), p.clone()];
        for _ in 0..12 {
            samples.push(nat_of_limbs(&mut rng, p.limbs().len()));
            samples.push(nat_of_limbs(&mut rng, 2 * p.limbs().len())); // a ≥ p
        }
        for a in &samples {
            let euler = modpow_reference(a, &half, &p);
            let want = if euler.is_zero() {
                0
            } else if euler.is_one() {
                1
            } else {
                assert_eq!(euler, p_minus_1);
                -1
            };
            assert_eq!(jacobi(a, &p), want, "a={a:?} p={p:?}");
        }
    }
}

#[test]
fn blum_prime_roots_square_back() {
    let mut rng = XorShiftSource::new(0xB1C3);
    for bits in [16usize, 64, 65, 128, 256] {
        let p = gen_prime_congruent(bits, 3, 4, &mut rng);
        let ctx = BlumPrime::new(&p).unwrap();
        assert_eq!(ctx.modulus(), &p);
        for _ in 0..8 {
            let a = nat_of_limbs(&mut rng, 2 * p.limbs().len());
            match ctx.sqrt(&a) {
                Some(r) => {
                    assert!(r < p);
                    assert_eq!(r.square().rem_nat(&p).unwrap(), a.rem_nat(&p).unwrap());
                    assert_ne!(jacobi(&a, &p), -1);
                }
                None => assert_eq!(jacobi(&a, &p), -1),
            }
        }
    }
}

#[test]
fn stored_inverse_crt_matches_crt_pair() {
    let mut rng = XorShiftSource::new(0xC472);
    for (pbits, qbits) in [
        (8usize, 8usize),
        (64, 64),
        (65, 128),
        (256, 192),
        (384, 384),
    ] {
        let p = gen_prime_congruent(pbits, 3, 8, &mut rng);
        let q = gen_prime_congruent(qbits, 7, 8, &mut rng);
        let basis = CrtBasis::new(&p, &q).unwrap();
        let edge = |m: &Nat| [Nat::zero(), Nat::one(), m.checked_sub(&Nat::one()).unwrap()];
        let mut pairs: Vec<(Nat, Nat)> = Vec::new();
        for xp in edge(&p) {
            for xq in edge(&q) {
                pairs.push((xp.clone(), xq));
            }
        }
        for _ in 0..CASES / 8 {
            pairs.push((rng.random_below(&p), rng.random_below(&q)));
        }
        for (xp, xq) in &pairs {
            let x = basis.combine(xp, xq);
            assert_eq!(x, crt_pair(xp, &p, xq, &q));
            assert!(x < p.mul_nat(&q));
        }
    }
    // Shared factor: no basis.
    assert!(CrtBasis::new(&Nat::from(35u64), &Nat::from(7u64)).is_none());
}

#[test]
fn invmod_is_inverse() {
    let mut rng = XorShiftSource::new(0x1F);
    for _ in 0..CASES {
        let a = nonzero_nat(&mut rng);
        let m = nonzero_nat(&mut rng).add_nat(&Nat::from(2u64)); // ensure m >= 2
        if let Some(inv) = invmod(&a, &m) {
            assert_eq!(a.mul_nat(&inv).rem_nat(&m).unwrap(), Nat::one());
        }
    }
}

#[test]
fn jacobi_multiplicative() {
    // (ab/n) = (a/n)(b/n) for odd n.
    let mut outer = XorShiftSource::new(0x7AC);
    for seed in 1..128u64 {
        let (a, b) = (nat(&mut outer), nat(&mut outer));
        let mut rng = XorShiftSource::new(seed);
        let mut n = rng.random_bits(48);
        n.set_bit(0, true); // odd
        n.set_bit(47, true); // n > 1
        let ja = jacobi(&a, &n);
        let jb = jacobi(&b, &n);
        let jab = jacobi(&a.mul_nat(&b), &n);
        assert_eq!(jab, ja * jb);
    }
}

#[test]
fn crt_is_consistent() {
    let mut rng = XorShiftSource::new(0xC47);
    for _ in 0..CASES {
        // p=65537, q=65539 are coprime.
        let x = rand_u64(&mut rng) as u32;
        let p = Nat::from(65537u64);
        let q = Nat::from(65539u64);
        let xn = Nat::from(x as u64);
        let xp = xn.rem_nat(&p).unwrap();
        let xq = xn.rem_nat(&q).unwrap();
        let rec = crt_pair(&xp, &p, &xq, &q);
        assert_eq!(rec.rem_nat(&p).unwrap(), xp);
        assert_eq!(rec.rem_nat(&q).unwrap(), xq);
    }
}

#[test]
fn decimal_display_matches_u128() {
    let mut rng = XorShiftSource::new(0xDEC);
    for _ in 0..CASES {
        let mut b = [0u8; 16];
        rng.fill(&mut b);
        let v = u128::from_be_bytes(b);
        assert_eq!(Nat::from(v).to_string(), v.to_string());
    }
}
