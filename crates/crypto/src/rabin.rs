//! The Rabin–Williams public-key cryptosystem.
//!
//! Paper §3.1.3: "SFS uses the Rabin public key cryptosystem for encryption
//! and signing. The implementation is secure against adaptive
//! chosen-ciphertext and adaptive chosen-message attacks. (Encryption is
//! actually plaintext-aware, an even stronger property.) Rabin assumes only
//! that factoring is hard … Like low-exponent RSA, encryption and signature
//! verification are particularly fast in Rabin because they do not require
//! modular exponentiation."
//!
//! Encryption is squaring modulo `n = p·q` with OAEP padding (Bellare–
//! Rogaway, giving plaintext awareness); decryption takes modular square
//! roots via CRT. Signatures are Williams' variant: primes are chosen with
//! `p ≡ 3 (mod 8)` and `q ≡ 7 (mod 8)` so that for any hash value `h`
//! coprime to `n`, exactly one of `{h, −h, 2h, −2h}` is a quadratic residue;
//! the signature is that value's square root plus the two tweak bits
//! `(e, f)`. Verification is a single modular squaring — cheap, which is
//! what lets SFS read-only servers serve many clients (§2.4).

use sfs_bignum::{gen_prime_congruent, jacobi, BlumPrime, CrtBasis, Nat, RandomSource};

use crate::sha1::{mgf1, sha1, sha1_concat, DIGEST_LEN};

/// Errors from Rabin operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RabinError {
    /// The plaintext is too long for the modulus.
    MessageTooLong,
    /// Ciphertext failed structural or padding checks.
    DecryptionFailed,
    /// The ciphertext is not the right size for the modulus.
    BadCiphertextLength,
    /// A key blob failed to parse.
    BadKeyEncoding,
}

impl std::fmt::Display for RabinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RabinError::MessageTooLong => write!(f, "message too long for Rabin modulus"),
            RabinError::DecryptionFailed => write!(f, "Rabin decryption failed"),
            RabinError::BadCiphertextLength => write!(f, "ciphertext length mismatch"),
            RabinError::BadKeyEncoding => write!(f, "malformed Rabin key encoding"),
        }
    }
}

impl std::error::Error for RabinError {}

/// A Rabin–Williams public key (the modulus `n`).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct RabinPublicKey {
    n: Nat,
    /// Modulus length in bytes, cached.
    k: usize,
}

/// A Rabin–Williams private key: the factorization of `n`, held with
/// everything a root needs that depends only on the key — per-prime
/// Montgomery constants and root exponents, and `p⁻¹ mod q` for CRT — so
/// no decryption or signature recomputes it.
#[derive(Clone)]
pub struct RabinPrivateKey {
    p: BlumPrime,
    q: BlumPrime,
    crt: CrtBasis,
    public: RabinPublicKey,
}

/// Bytes of OAEP framing in an encoded message: the leading zero, the
/// masked seed, the label hash and the `0x01` separator.
const OAEP_OVERHEAD: usize = 2 * DIGEST_LEN + 2;

/// A Rabin–Williams signature: tweak bits and a square root.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RabinSignature {
    /// `true` when the −1 tweak was applied.
    pub negate: bool,
    /// `true` when the ×2 tweak was applied.
    pub double: bool,
    /// The square root of the tweaked hash.
    pub root: Nat,
}

impl RabinSignature {
    /// Serializes as `tweaks(1 byte) || root (n-sized big-endian)`.
    pub fn to_bytes(&self, key_len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(key_len + 1);
        out.push((self.negate as u8) | (self.double as u8) << 1);
        out.extend_from_slice(&self.root.to_bytes_be_padded(key_len));
        out
    }

    /// Parses the serialization produced by [`Self::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, RabinError> {
        if bytes.len() < 2 || bytes[0] > 3 {
            return Err(RabinError::BadKeyEncoding);
        }
        Ok(RabinSignature {
            negate: bytes[0] & 1 != 0,
            double: bytes[0] & 2 != 0,
            root: Nat::from_bytes_be(&bytes[1..]),
        })
    }
}

/// Generates a Rabin–Williams key pair with a modulus of roughly `bits`
/// bits (`p ≡ 3 (mod 8)`, `q ≡ 7 (mod 8)`).
///
/// SFS servers use 1280-bit keys by default; tests use smaller ones for
/// speed.
///
/// # Panics
///
/// Panics if `bits < 256` (OAEP needs room for two SHA-1 digests).
pub fn generate_keypair<R: RandomSource>(bits: usize, rng: &mut R) -> RabinPrivateKey {
    assert!(
        bits >= 256,
        "Rabin modulus must be at least 256 bits for OAEP"
    );
    let half = bits / 2;
    loop {
        let p = gen_prime_congruent(half, 3, 8, rng);
        let q = gen_prime_congruent(bits - half, 7, 8, rng);
        if p == q {
            continue;
        }
        return RabinPrivateKey::from_primes(&p, &q)
            .expect("distinct primes in the Rabin-Williams residue classes");
    }
}

impl RabinPublicKey {
    /// Constructs a public key from a modulus.
    pub fn from_modulus(n: Nat) -> Self {
        let k = n.to_bytes_be().len();
        RabinPublicKey { n, k }
    }

    /// The modulus.
    pub fn modulus(&self) -> &Nat {
        &self.n
    }

    /// Modulus size in bytes.
    pub fn len(&self) -> usize {
        self.k
    }

    /// Returns `true` for a degenerate (empty) key.
    pub fn is_empty(&self) -> bool {
        self.k == 0
    }

    /// Serializes the public key (big-endian modulus). This is the byte
    /// string hashed into HostIDs.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.n.to_bytes_be()
    }

    /// Parses a public key serialized by [`Self::to_bytes`].
    ///
    /// These bytes arrive from unauthenticated peers (the client's
    /// ephemeral key in Figure 3), so anything that cannot be a product of
    /// two odd primes with room for OAEP is refused here: non-minimal
    /// encodings, even moduli, and moduli too short to hold even an empty
    /// padded message.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, RabinError> {
        let odd = bytes.last().is_some_and(|b| b & 1 == 1);
        if bytes.len() < OAEP_OVERHEAD || bytes[0] == 0 || !odd {
            return Err(RabinError::BadKeyEncoding);
        }
        Ok(RabinPublicKey::from_modulus(Nat::from_bytes_be(bytes)))
    }

    /// Maximum plaintext length for [`Self::encrypt`].
    pub fn max_plaintext_len(&self) -> usize {
        self.k.saturating_sub(OAEP_OVERHEAD)
    }

    /// OAEP-pads and encrypts `msg` (one modular squaring — "particularly
    /// fast").
    pub fn encrypt<R: RandomSource>(&self, msg: &[u8], rng: &mut R) -> Result<Vec<u8>, RabinError> {
        // A modulus below the OAEP overhead holds no message, not even an
        // empty one ([`Self::from_modulus`] does not check the size).
        if self.k < OAEP_OVERHEAD || msg.len() > self.max_plaintext_len() {
            return Err(RabinError::MessageTooLong);
        }
        // EM = 0x00 || maskedSeed(20) || maskedDB(k-21)
        // DB = lHash(20) || 0x00.. || 0x01 || msg
        let db_len = self.k - 1 - DIGEST_LEN;
        let mut db = vec![0u8; db_len];
        let lhash = sha1(b"SFS-rabin-oaep");
        db[..DIGEST_LEN].copy_from_slice(&lhash);
        let msg_start = db_len - msg.len();
        db[msg_start - 1] = 0x01;
        db[msg_start..].copy_from_slice(msg);

        let mut seed = [0u8; DIGEST_LEN];
        rng.fill(&mut seed);
        let db_mask = mgf1(&seed, db_len);
        for (b, m) in db.iter_mut().zip(db_mask.iter()) {
            *b ^= m;
        }
        let seed_mask = mgf1(&db, DIGEST_LEN);
        let mut masked_seed = seed;
        for (b, m) in masked_seed.iter_mut().zip(seed_mask.iter()) {
            *b ^= m;
        }
        let mut em = Vec::with_capacity(self.k);
        em.push(0);
        em.extend_from_slice(&masked_seed);
        em.extend_from_slice(&db);
        // EM < 2^(8(k-1)) <= n because n has exactly k bytes.
        let m = Nat::from_bytes_be(&em);
        let c = m.square().rem_nat(&self.n).unwrap();
        Ok(c.to_bytes_be_padded(self.k))
    }

    /// Verifies a signature over `msg`: checks `s² ≡ e·f·H(msg) (mod n)`.
    /// One squaring, no exponentiation.
    pub fn verify(&self, msg: &[u8], sig: &RabinSignature) -> bool {
        if sig.root >= self.n {
            return false;
        }
        let h = fdh(msg, &self.n, self.k);
        let mut target = h;
        if sig.double {
            target = target.shl_bits(1).rem_nat(&self.n).unwrap();
        }
        if sig.negate {
            target = if target.is_zero() {
                target
            } else {
                self.n.checked_sub(&target).unwrap()
            };
        }
        sig.root.square().rem_nat(&self.n).unwrap() == target
    }
}

impl std::fmt::Debug for RabinPublicKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RabinPublicKey({} bits)", self.n.bit_len())
    }
}

impl RabinPrivateKey {
    /// The corresponding public key.
    pub fn public(&self) -> &RabinPublicKey {
        &self.public
    }

    /// Decrypts a ciphertext produced by [`RabinPublicKey::encrypt`].
    ///
    /// Squaring is 4-to-1, so all four square roots are recovered via CRT
    /// and the OAEP redundancy selects the correct one (plaintext
    /// awareness: an adversary cannot produce a valid ciphertext except by
    /// encrypting, so chosen-ciphertext queries are useless).
    pub fn decrypt(&self, cipher: &[u8]) -> Result<Vec<u8>, RabinError> {
        if cipher.len() != self.public.k {
            return Err(RabinError::BadCiphertextLength);
        }
        if self.public.k < OAEP_OVERHEAD {
            // No root of a modulus this short can carry OAEP framing.
            return Err(RabinError::DecryptionFailed);
        }
        let c = Nat::from_bytes_be(cipher);
        if c >= self.public.n {
            return Err(RabinError::BadCiphertextLength);
        }
        let rp = self.p.sqrt(&c).ok_or(RabinError::DecryptionFailed)?;
        let rq = self.q.sqrt(&c).ok_or(RabinError::DecryptionFailed)?;
        self.all_roots(&rp, &rq)
            .iter()
            .find_map(|r| self.try_unpad(r))
            .ok_or(RabinError::DecryptionFailed)
    }

    /// Signs `msg` deterministically.
    pub fn sign(&self, msg: &[u8]) -> RabinSignature {
        let n = &self.public.n;
        let mut h = fdh(msg, n, self.public.k);
        let (jp, jq) = loop {
            let (jp, jq) = (jacobi(&h, self.p.modulus()), jacobi(&h, self.q.modulus()));
            if jp != 0 && jq != 0 {
                break (jp, jq);
            }
            // A zero symbol means h shares a factor with n, which would
            // reveal the factorization; perturb deterministically.
            // Probability ~ 2^-600.
            h = h.add_nat(&Nat::one()).rem_nat(n).unwrap();
        };
        // ×2 flips the symbol mod p (p ≡ 3 mod 8 ⇒ (2/p) = −1) but not mod
        // q (q ≡ 7 mod 8 ⇒ (2/q) = +1); ×(−1) flips both (p, q ≡ 3 mod 4).
        let double = jp != jq;
        let mut target = h;
        if double {
            target = target.shl_bits(1).rem_nat(n).unwrap();
        }
        // Doubling left the symbol mod q alone, so jq is the tweaked one.
        let negate = jq == -1;
        if negate {
            target = n.checked_sub(&target).unwrap();
        }
        let rp = self
            .p
            .sqrt(&target)
            .expect("tweaked hash must be a QR mod p");
        let rq = self
            .q
            .sqrt(&target)
            .expect("tweaked hash must be a QR mod q");
        let s = self.crt.combine(&rp, &rq);
        // Canonicalize to the smaller of {s, n-s} so signing is a function.
        let s_alt = n.checked_sub(&s).unwrap();
        let root = if s_alt < s { s_alt } else { s };
        RabinSignature {
            negate,
            double,
            root,
        }
    }

    /// All four CRT combinations of `(±rp, ±rq)`: two recombinations, and
    /// their negations modulo `n`.
    fn all_roots(&self, rp: &Nat, rq: &Nat) -> [Nat; 4] {
        let n = &self.public.n;
        let same = self.crt.combine(rp, rq);
        let mixed = self.crt.combine(rp, &neg_mod(rq, self.q.modulus()));
        let (neg_mixed, neg_same) = (neg_mod(&mixed, n), neg_mod(&same, n));
        [same, mixed, neg_mixed, neg_same]
    }

    /// Attempts OAEP unpadding of a candidate root.
    fn try_unpad(&self, m: &Nat) -> Option<Vec<u8>> {
        let k = self.public.k;
        let em = m.to_bytes_be();
        if em.len() > k - 1 {
            return None;
        }
        let mut padded = vec![0u8; k - 1 - em.len()];
        padded.extend_from_slice(&em);
        let (masked_seed, db) = padded.split_at(DIGEST_LEN);
        let seed_mask = mgf1(db, DIGEST_LEN);
        let seed: Vec<u8> = masked_seed
            .iter()
            .zip(seed_mask.iter())
            .map(|(a, b)| a ^ b)
            .collect();
        let db_mask = mgf1(&seed, db.len());
        let db: Vec<u8> = db.iter().zip(db_mask.iter()).map(|(a, b)| a ^ b).collect();
        let lhash = sha1(b"SFS-rabin-oaep");
        if db[..DIGEST_LEN] != lhash {
            return None;
        }
        // Skip zero padding, expect 0x01 separator.
        let mut i = DIGEST_LEN;
        while i < db.len() && db[i] == 0 {
            i += 1;
        }
        if i >= db.len() || db[i] != 0x01 {
            return None;
        }
        Some(db[i + 1..].to_vec())
    }
}

impl RabinPrivateKey {
    /// Serializes the private key (length-prefixed `p` then `q`).
    ///
    /// Users register eksblowfish-encrypted copies of this blob with
    /// authserv so a password can recover the key from anywhere (§2.4).
    pub fn to_bytes(&self) -> Vec<u8> {
        let p = self.p.modulus().to_bytes_be();
        let q = self.q.modulus().to_bytes_be();
        let mut out = Vec::with_capacity(p.len() + q.len() + 8);
        out.extend_from_slice(&(p.len() as u32).to_be_bytes());
        out.extend_from_slice(&p);
        out.extend_from_slice(&(q.len() as u32).to_be_bytes());
        out.extend_from_slice(&q);
        out
    }

    /// Parses a blob from [`Self::to_bytes`], validating the Rabin–
    /// Williams congruences.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, RabinError> {
        let take = |data: &[u8]| -> Result<(Nat, usize), RabinError> {
            if data.len() < 4 {
                return Err(RabinError::BadKeyEncoding);
            }
            let len = u32::from_be_bytes(data[..4].try_into().unwrap()) as usize;
            if data.len() < 4 + len {
                return Err(RabinError::BadKeyEncoding);
            }
            Ok((Nat::from_bytes_be(&data[4..4 + len]), 4 + len))
        };
        let (p, used) = take(bytes)?;
        let (q, used2) = take(&bytes[used..])?;
        if used + used2 != bytes.len() {
            return Err(RabinError::BadKeyEncoding);
        }
        if p.div_rem_u64(8).1 != 3 || q.div_rem_u64(8).1 != 7 {
            return Err(RabinError::BadKeyEncoding);
        }
        RabinPrivateKey::from_primes(&p, &q).ok_or(RabinError::BadKeyEncoding)
    }

    /// Builds the key and its precomputed context; `None` unless both
    /// values are `≡ 3 (mod 4)` and coprime.
    fn from_primes(p: &Nat, q: &Nat) -> Option<Self> {
        Some(RabinPrivateKey {
            crt: CrtBasis::new(p, q)?,
            p: BlumPrime::new(p)?,
            q: BlumPrime::new(q)?,
            public: RabinPublicKey::from_modulus(p.mul_nat(q)),
        })
    }
}

impl std::fmt::Debug for RabinPrivateKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print p or q.
        write!(f, "RabinPrivateKey({} bits)", self.public.n.bit_len())
    }
}

/// `−x mod m` for `x < m`.
fn neg_mod(x: &Nat, m: &Nat) -> Nat {
    if x.is_zero() {
        Nat::zero()
    } else {
        m.checked_sub(x).expect("x < m")
    }
}

/// Full-domain hash of a message into `[0, n)`, via MGF1 over SHA-1.
fn fdh(msg: &[u8], n: &Nat, k: usize) -> Nat {
    let digest = sha1_concat(&[b"SFS-rw-fdh", msg]);
    // k-1 bytes guarantees the value is below n (n has k bytes).
    Nat::from_bytes_be(&mgf1(&digest, k - 1))
        .rem_nat(n)
        .unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfs_bignum::XorShiftSource;

    fn test_key() -> RabinPrivateKey {
        let mut rng = XorShiftSource::new(0xB0B);
        generate_keypair(512, &mut rng)
    }

    #[test]
    fn keygen_congruences() {
        let key = test_key();
        let (p, q) = (key.p.modulus(), key.q.modulus());
        assert_eq!(p.div_rem_u64(8).1, 3);
        assert_eq!(q.div_rem_u64(8).1, 7);
        assert_eq!(p.mul_nat(q), *key.public().modulus());
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let key = test_key();
        let mut rng = XorShiftSource::new(99);
        // Max plaintext for a 512-bit key is 64 − 42 = 22 bytes.
        for msg in [&b""[..], b"x", b"session-key-half-16b"] {
            let c = key.public().encrypt(msg, &mut rng).unwrap();
            assert_eq!(c.len(), key.public().len());
            assert_eq!(key.decrypt(&c).unwrap(), msg);
        }
    }

    #[test]
    fn ciphertexts_randomized() {
        let key = test_key();
        let mut rng = XorShiftSource::new(7);
        let c1 = key.public().encrypt(b"same message", &mut rng).unwrap();
        let c2 = key.public().encrypt(b"same message", &mut rng).unwrap();
        assert_ne!(c1, c2);
    }

    #[test]
    fn oversized_message_rejected() {
        let key = test_key();
        let mut rng = XorShiftSource::new(1);
        let msg = vec![0u8; key.public().max_plaintext_len() + 1];
        assert_eq!(
            key.public().encrypt(&msg, &mut rng),
            Err(RabinError::MessageTooLong)
        );
    }

    #[test]
    fn tampered_ciphertext_rejected() {
        let key = test_key();
        let mut rng = XorShiftSource::new(5);
        let mut c = key.public().encrypt(b"secret", &mut rng).unwrap();
        c[10] ^= 1;
        assert!(key.decrypt(&c).is_err());
    }

    #[test]
    fn wrong_length_ciphertext_rejected() {
        let key = test_key();
        assert_eq!(
            key.decrypt(&[0u8; 10]),
            Err(RabinError::BadCiphertextLength)
        );
    }

    #[test]
    fn sign_verify_roundtrip() {
        let key = test_key();
        for msg in [&b""[..], b"AuthMsg", b"revocation certificate body"] {
            let sig = key.sign(msg);
            assert!(key.public().verify(msg, &sig), "msg={msg:?}");
        }
    }

    #[test]
    fn signature_rejects_other_message() {
        let key = test_key();
        let sig = key.sign(b"the real message");
        assert!(!key.public().verify(b"a forged message", &sig));
    }

    #[test]
    fn signature_rejects_tampered_root() {
        let key = test_key();
        let mut sig = key.sign(b"msg");
        sig.root = sig.root.add_nat(&Nat::one());
        assert!(!key.public().verify(b"msg", &sig));
    }

    #[test]
    fn signature_rejects_wrong_key() {
        let key = test_key();
        let mut rng = XorShiftSource::new(0xC0FFEE);
        let other = generate_keypair(512, &mut rng);
        let sig = key.sign(b"msg");
        assert!(!other.public().verify(b"msg", &sig));
    }

    #[test]
    fn signing_is_deterministic() {
        let key = test_key();
        assert_eq!(key.sign(b"m"), key.sign(b"m"));
    }

    #[test]
    fn signature_serialization_roundtrip() {
        let key = test_key();
        let sig = key.sign(b"serialize me");
        let bytes = sig.to_bytes(key.public().len());
        let back = RabinSignature::from_bytes(&bytes).unwrap();
        assert_eq!(back, sig);
        assert!(key.public().verify(b"serialize me", &back));
    }

    #[test]
    fn public_key_serialization_roundtrip() {
        let key = test_key();
        let bytes = key.public().to_bytes();
        let back = RabinPublicKey::from_bytes(&bytes).unwrap();
        assert_eq!(&back, key.public());
        assert_eq!(
            RabinPublicKey::from_bytes(&[]),
            Err(RabinError::BadKeyEncoding)
        );
        assert_eq!(
            RabinPublicKey::from_bytes(&[0, 1, 2]),
            Err(RabinError::BadKeyEncoding)
        );
    }

    #[test]
    fn hostile_moduli_error_without_panicking() {
        let key = test_key();
        let sig = key.sign(b"m");
        let mut rng = XorShiftSource::new(3);
        let k = key.public().len();
        let mut even = key.public().to_bytes();
        even[k - 1] &= !1;
        let wire: [(&str, Vec<u8>); 7] = [
            ("even", even),
            ("one byte", vec![0x0b]),
            ("one limb", vec![0xff; 8]),
            ("one below the OAEP floor", vec![0xff; OAEP_OVERHEAD - 1]),
            ("power of two", [vec![1], vec![0; k - 1]].concat()),
            ("zero", vec![0; k]),
            ("empty", Vec::new()),
        ];
        for (what, bytes) in &wire {
            assert_eq!(
                RabinPublicKey::from_bytes(bytes),
                Err(RabinError::BadKeyEncoding),
                "{what}"
            );
            // The unchecked constructor must still fail closed.
            let raw = RabinPublicKey::from_modulus(Nat::from_bytes_be(bytes));
            if raw.len() < OAEP_OVERHEAD {
                assert_eq!(
                    raw.encrypt(b"", &mut rng),
                    Err(RabinError::MessageTooLong),
                    "{what}"
                );
            }
            assert!(!raw.verify(b"m", &sig), "{what}");
        }
        // Saturated moduli are odd and well-formed, so they parse: squaring
        // and reduction must cope with every limb at u64::MAX, at the
        // smallest accepted size and at a limb boundary.
        for len in [OAEP_OVERHEAD, 64, k] {
            let ones = RabinPublicKey::from_bytes(&vec![0xff; len]).unwrap();
            let c = ones.encrypt(b"", &mut rng).unwrap();
            assert_eq!(c.len(), len);
            assert!(!ones.verify(b"m", &sig));
        }
    }

    #[test]
    fn private_key_blobs_with_unusable_factors_are_refused() {
        let blob = |p: u64, q: u64| {
            let (p, q) = (Nat::from(p).to_bytes_be(), Nat::from(q).to_bytes_be());
            let mut out = (p.len() as u32).to_be_bytes().to_vec();
            out.extend_from_slice(&p);
            out.extend_from_slice(&(q.len() as u32).to_be_bytes());
            out.extend_from_slice(&q);
            out
        };
        // 35 ≡ 3 and 7 ≡ 7 (mod 8) pass the residue check but share a
        // factor, so no CRT basis exists.
        assert!(matches!(
            RabinPrivateKey::from_bytes(&blob(35, 7)),
            Err(RabinError::BadKeyEncoding)
        ));
        // A well-formed toy key parses, and fails closed instead of
        // underflowing on a modulus with no room for OAEP.
        let toy = RabinPrivateKey::from_bytes(&blob(11, 23)).unwrap();
        assert_eq!(toy.decrypt(&[1]), Err(RabinError::DecryptionFailed));
    }

    #[test]
    fn root_too_large_rejected() {
        let key = test_key();
        let mut sig = key.sign(b"m");
        sig.root = key.public().modulus().add_nat(&sig.root);
        assert!(!key.public().verify(b"m", &sig));
    }
}
