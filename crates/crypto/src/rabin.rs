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

use std::hash::{Hash, Hasher};
use std::sync::LazyLock;

use sfs_bignum::{gen_prime_congruent, BlumPrime, CrtBasis, Montgomery, Nat, RandomSource};

use crate::sha1::{mgf1_xor, sha1, sha1_concat, DIGEST_LEN};

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
#[derive(Clone)]
pub struct RabinPublicKey {
    n: Nat,
    /// Modulus length in bytes, cached.
    k: usize,
    /// Arithmetic modulo `n`, prepared once; `None` for an even modulus,
    /// which no Rabin key has and which neither encrypts nor verifies.
    mont: Option<Montgomery>,
}

impl PartialEq for RabinPublicKey {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n
    }
}

impl Eq for RabinPublicKey {}

impl Hash for RabinPublicKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.n.hash(state);
    }
}

/// A Rabin–Williams private key: the factorization of `n`, held with
/// everything a root needs that depends only on the key — per-prime
/// Montgomery constants and root exponents, the roots of the doubling
/// tweak, and `p⁻¹ mod q` for CRT — so no decryption or signature
/// recomputes it.
#[derive(Clone)]
pub struct RabinPrivateKey {
    p: BlumPrime,
    q: BlumPrime,
    /// `(−2)^((p+1)/4) mod p`, the principal `√−2` (`p ≡ 3 mod 8`).
    sqrt_neg2_p: Nat,
    /// `2^((q+1)/4) mod q`, the principal `√2` (`q ≡ 7 mod 8`).
    sqrt2_q: Nat,
    crt: CrtBasis,
    public: RabinPublicKey,
}

/// Bytes of OAEP framing in an encoded message: the leading zero, the
/// masked seed, the label hash and the `0x01` separator.
const OAEP_OVERHEAD: usize = 2 * DIGEST_LEN + 2;

/// Byte scratch up to this size lives on the stack: the four candidate
/// roots of a decryption under a 2048-bit modulus.
const STACK_BYTES: usize = 1024;

/// Runs `f` on `len` zeroed bytes of scratch, on the stack when they fit.
fn with_scratch<T>(len: usize, f: impl FnOnce(&mut [u8]) -> T) -> T {
    if len <= STACK_BYTES {
        f(&mut [0; STACK_BYTES][..len])
    } else {
        f(&mut vec![0; len])
    }
}

/// The OAEP label hash every encoded message carries, for encryption to
/// write and unpadding to check.
static OAEP_LABEL_HASH: LazyLock<[u8; DIGEST_LEN]> = LazyLock::new(|| sha1(b"SFS-rabin-oaep"));

/// A Rabin–Williams signature: tweak bits and a square root.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RabinSignature {
    /// `true` when the −1 tweak was applied.
    pub(crate) negate: bool,
    /// `true` when the ×2 tweak was applied.
    pub double: bool,
    /// The square root of the tweaked hash.
    pub(crate) root: Nat,
}

impl RabinSignature {
    /// Serializes as `tweaks(1 byte) || root (n-sized big-endian)`.
    pub fn to_bytes(&self, key_len: usize) -> Vec<u8> {
        let mut out = vec![0; key_len + 1];
        out[0] = (self.negate as u8) | (self.double as u8) << 1;
        self.root.write_bytes_be(&mut out[1..]);
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
        RabinPublicKey {
            k: n.bit_len().div_ceil(8),
            mont: Montgomery::new(&n),
            n,
        }
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
    pub(crate) fn max_plaintext_len(&self) -> usize {
        self.k.saturating_sub(OAEP_OVERHEAD)
    }

    /// OAEP-pads and encrypts `msg` (one modular squaring — "particularly
    /// fast"). The padding is built in stack scratch and squared in stack
    /// limbs: the ciphertext is the one allocation.
    ///
    /// An even modulus ([`Self::from_modulus`] does not refuse one) is no
    /// Rabin key, and is refused here as [`RabinError::BadKeyEncoding`].
    pub fn encrypt<R: RandomSource>(&self, msg: &[u8], rng: &mut R) -> Result<Vec<u8>, RabinError> {
        // A modulus below the OAEP overhead holds no message, not even an
        // empty one ([`Self::from_modulus`] does not check the size).
        if self.k < OAEP_OVERHEAD || msg.len() > self.max_plaintext_len() {
            return Err(RabinError::MessageTooLong);
        }
        let mont = self.mont.as_ref().ok_or(RabinError::BadKeyEncoding)?;
        let mut c = vec![0; self.k];
        with_scratch(self.k, |em| {
            // EM = 0x00 || maskedSeed(20) || maskedDB(k-21)
            // DB = lHash(20) || 0x00.. || 0x01 || msg
            let (seed, db) = em[1..].split_at_mut(DIGEST_LEN);
            db[..DIGEST_LEN].copy_from_slice(&*OAEP_LABEL_HASH);
            let msg_start = db.len() - msg.len();
            db[msg_start - 1] = 0x01;
            db[msg_start..].copy_from_slice(msg);
            rng.fill(seed);
            mgf1_xor(seed, db);
            mgf1_xor(db, seed);
            // EM < 2^(8(k-1)) <= n because n has exactly k bytes.
            mont.square_be(em, &mut c);
        });
        Ok(c)
    }

    /// Verifies a signature over `msg`: checks `s² ≡ e·f·H(msg) (mod n)`.
    /// One squaring, no exponentiation, and no allocation.
    pub fn verify(&self, msg: &[u8], sig: &RabinSignature) -> bool {
        let Some(mont) = &self.mont else {
            return false;
        };
        if sig.root >= self.n {
            return false;
        }
        let k = self.k;
        let tweak = match (sig.negate, sig.double) {
            (false, false) => 1,
            (false, true) => 2,
            (true, false) => -1,
            (true, true) => -2,
        };
        with_scratch(3 * k, |buf| {
            let (s, rest) = buf.split_at_mut(k);
            let (square, target) = rest.split_at_mut(k);
            sig.root.write_bytes_be(s);
            mont.square_be(s, square);
            // s is spent: it holds H(msg) below the top byte now.
            s[0] = 0;
            fdh(msg, &mut s[1..]);
            mont.mul_small_be(s, tweak, target);
            square == target
        })
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
        let ((rp, jp), (rq, jq)) = self.roots(&c);
        if jp == -1 || jq == -1 {
            return Err(RabinError::DecryptionFailed);
        }
        let k = self.public.k;
        with_scratch(4 * k, |roots| {
            self.crt.combine_signs_be(&rp, &rq, roots);
            roots.chunks_exact_mut(k).find_map(try_unpad)
        })
        .ok_or(RabinError::DecryptionFailed)
    }

    /// Signs `msg` deterministically.
    pub fn sign(&self, msg: &[u8]) -> RabinSignature {
        let k = self.public.k;
        let h = with_scratch(k - 1, |h| {
            fdh(msg, h);
            Nat::from_bytes_be(h)
        });
        let (negate, double, rp, rq) = self.tweaked_roots(h);
        let root = with_scratch(4 * k, |roots| {
            self.crt.combine_signs_be(&rp, &rq, roots);
            // The first root is s, the last n − s; the smaller of the two
            // makes signing a function.
            Nat::from_bytes_be((&roots[..k]).min(&roots[3 * k..]))
        });
        RabinSignature {
            negate,
            double,
            root,
        }
    }

    /// The Williams tweaks `(negate, double)` that make `t = e·f·h` a
    /// square modulo `n`, and `t^((p+1)/4) mod p` and `t^((q+1)/4) mod q`,
    /// its principal roots.
    ///
    /// One exponentiation per prime gives both the root of `h` and, read
    /// off its square, the Legendre symbol that picks the tweaks. The
    /// tweaked root is then that root times `(e·f)^((p+1)/4)`: modulo `p`,
    /// where `(p+1)/4` is odd, `−1` maps to `−1`, `−2` to `√−2` and `2` to
    /// `−√−2`; modulo `q`, where `(q+1)/4` is even, `±1` map to `1` and
    /// `±2` to `√2`.
    fn tweaked_roots(&self, mut h: Nat) -> (bool, bool, Nat, Nat) {
        let ((rp, jp), (rq, jq)) = loop {
            let (root_p, root_q) = self.roots(&h);
            if root_p.1 != 0 && root_q.1 != 0 {
                break (root_p, root_q);
            }
            // A zero symbol means h shares a factor with n, which would
            // reveal the factorization; perturb deterministically.
            // Probability ~ 2^-600.
            h = h.add_nat(&Nat::one()).rem_nat(&self.public.n).unwrap();
        };
        // ×2 flips the symbol mod p (p ≡ 3 mod 8 ⇒ (2/p) = −1) but not mod
        // q (q ≡ 7 mod 8 ⇒ (2/q) = +1); ×(−1) flips both (p, q ≡ 3 mod 4).
        let double = jp != jq;
        // Doubling left the symbol mod q alone, so jq is the tweaked one.
        let negate = jq == -1;
        let (rp, rq) = if double {
            (
                self.p.mul(rp, &self.sqrt_neg2_p),
                self.q.mul(rq, &self.sqrt2_q),
            )
        } else {
            (rp, rq)
        };
        // Per the table above, the root mod p changes sign exactly when
        // the tweaks are (−1, 1) or (1, 2): when (h/p) = −1.
        let rp = if jp == -1 { self.p.neg(rp) } else { rp };
        (negate, double, rp, rq)
    }

    /// The principal roots of `a` modulo `p` and `q` with their Legendre
    /// symbols ([`BlumPrime::root`]): the two exponentiations a private-key
    /// operation costs, run on two cores when the host has them.
    fn roots(&self, a: &Nat) -> ((Nat, i32), (Nat, i32)) {
        #[cfg(test)]
        if tests::INLINE.get() {
            return (self.p.root(a), self.q.root(a));
        }
        BlumPrime::root_pair(&self.p, &self.q, a)
    }
}

/// OAEP-unpads a candidate root, `k` big-endian bytes, in place: only the
/// message it returns is allocated.
fn try_unpad(em: &mut [u8]) -> Option<Vec<u8>> {
    let (lead, padded) = em.split_first_mut()?;
    if *lead != 0 {
        return None;
    }
    let (seed, db) = padded.split_at_mut(DIGEST_LEN);
    mgf1_xor(db, seed);
    mgf1_xor(seed, db);
    if db[..DIGEST_LEN] != *OAEP_LABEL_HASH {
        return None;
    }
    // Skip zero padding, expect 0x01 separator.
    let i = DIGEST_LEN + db[DIGEST_LEN..].iter().position(|&b| b != 0)?;
    (db[i] == 0x01).then(|| db[i + 1..].to_vec())
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
        if p.rem_u64(8) != 3 || q.rem_u64(8) != 7 {
            return Err(RabinError::BadKeyEncoding);
        }
        RabinPrivateKey::from_primes(&p, &q).ok_or(RabinError::BadKeyEncoding)
    }

    /// Builds the key and its precomputed context; `None` unless both
    /// values are `≡ 3 (mod 4)` and coprime.
    fn from_primes(p: &Nat, q: &Nat) -> Option<Self> {
        let crt = CrtBasis::new(p, q)?;
        let (p_ctx, q_ctx) = (BlumPrime::new(p)?, BlumPrime::new(q)?);
        let neg2 = p.checked_sub(&Nat::from(2u64))?;
        Some(RabinPrivateKey {
            sqrt_neg2_p: p_ctx.root(&neg2).0,
            sqrt2_q: q_ctx.root(&Nat::from(2u64)).0,
            p: p_ctx,
            q: q_ctx,
            crt,
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

/// Full-domain hash of a message, via MGF1 over SHA-1, as `out.len()`
/// big-endian bytes: `k − 1` of them for a `k`-byte modulus, so the value
/// is below it.
fn fdh(msg: &[u8], out: &mut [u8]) {
    let digest = sha1_concat(&[b"SFS-rw-fdh", msg]);
    out.fill(0);
    mgf1_xor(&digest, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfs_bignum::{invmod, jacobi, XorShiftSource};

    thread_local! {
        /// Set, this thread's private-key operations take their two roots
        /// one after the other with [`BlumPrime::root`], never the helper.
        pub(super) static INLINE: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    }

    /// `f` with this thread's roots forced inline.
    fn inline<T>(f: impl FnOnce() -> T) -> T {
        INLINE.set(true);
        let out = f();
        INLINE.set(false);
        out
    }

    /// [`fdh`] for a `k`-byte modulus, as a number.
    fn fdh_nat(msg: &[u8], k: usize) -> Nat {
        let mut h = vec![0; k - 1];
        fdh(msg, &mut h);
        Nat::from_bytes_be(&h)
    }

    fn test_key() -> RabinPrivateKey {
        let mut rng = XorShiftSource::new(0xB0B);
        generate_keypair(512, &mut rng)
    }

    #[test]
    fn keygen_congruences() {
        let key = test_key();
        let (p, q) = (key.p.modulus(), key.q.modulus());
        assert_eq!(p.rem_u64(8), 3);
        assert_eq!(q.rem_u64(8), 7);
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

    /// Williams tweaks and roots the textbook way, as the oracle: Jacobi
    /// symbols pick the tweaks, then each prime's root is taken of the
    /// tweaked hash.
    fn jacobi_tweaked_roots(key: &RabinPrivateKey, mut h: Nat) -> (bool, bool, Nat, Nat) {
        let n = &key.public.n;
        let (jp, jq) = loop {
            let (jp, jq) = (jacobi(&h, key.p.modulus()), jacobi(&h, key.q.modulus()));
            if jp != 0 && jq != 0 {
                break (jp, jq);
            }
            h = h.add_nat(&Nat::one()).rem_nat(n).unwrap();
        };
        let (negate, double) = (jq == -1, jp != jq);
        let mut target = h;
        if double {
            target = target.shl_bits(1).rem_nat(n).unwrap();
        }
        if negate {
            target = n.checked_sub(&target).unwrap();
        }
        let root = |prime: &BlumPrime| {
            let (r, symbol) = prime.root(&target);
            assert_eq!(symbol, 1, "the tweaked hash is a square");
            r
        };
        (negate, double, root(&key.p), root(&key.q))
    }

    #[test]
    fn signatures_match_the_jacobi_oracle_byte_for_byte() {
        for (bits, seed) in [(512, 0x5161), (768, 0x5162), (1024, 0x5163)] {
            let key = generate_keypair(bits, &mut XorShiftSource::new(seed));
            let n = key.public().modulus();
            let mut tweaks = std::collections::BTreeSet::new();
            for i in 0..1000 {
                let msg = format!("message {i} at {bits} bits");
                let sig = key.sign(msg.as_bytes());
                let (negate, double, rp, rq) =
                    jacobi_tweaked_roots(&key, fdh_nat(msg.as_bytes(), key.public().len()));
                let s = key.crt.combine(&rp, &rq);
                let root = s.clone().min(n.checked_sub(&s).unwrap());
                let want = RabinSignature {
                    negate,
                    double,
                    root,
                };
                assert_eq!(sig, want, "{msg}");
                tweaks.insert((negate, double));
            }
            assert_eq!(tweaks.len(), 4, "tweak combinations at {bits} bits");
        }
    }

    #[test]
    fn a_hash_sharing_a_factor_with_n_is_perturbed() {
        let key = test_key();
        let (p, q) = (key.p.modulus(), key.q.modulus());
        // p·x + 1 ≡ 0 (mod q) for this x: two steps before a usable hash.
        let x = q.checked_sub(&invmod(p, q).unwrap()).unwrap();
        for (h, steps) in [
            (Nat::zero(), 1u64),
            (p.mul_nat(&Nat::from(5u64)), 1),
            (q.mul_nat(&Nat::from(7u64)), 1),
            (p.mul_nat(&x), 2),
        ] {
            let got = key.tweaked_roots(h.clone());
            assert_eq!(got, jacobi_tweaked_roots(&key, h.clone()), "{h:?}");
            assert_eq!(got, key.tweaked_roots(h.add_nat(&Nat::from(steps))));
        }
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

    #[test]
    fn two_core_roots_match_the_inline_path_byte_for_byte() {
        // 1025 bits gives primes of unequal width (512 and 513 bits); 1280
        // is the server key size, 10-limb primes the ladder runs on the
        // heap.
        for (bits, seed) in [
            (512, 0x2C01),
            (768, 0x2C02),
            (1024, 0x2C03),
            (1025, 0x2C04),
            (1280, 0x2C05),
        ] {
            let key = generate_keypair(bits, &mut XorShiftSource::new(seed));
            let mut rng = XorShiftSource::new(seed + 1);
            for i in 0..200 {
                let msg = format!("message {i} at {bits} bits");
                let sig = key.sign(msg.as_bytes());
                assert_eq!(sig, inline(|| key.sign(msg.as_bytes())), "{msg}");
                let secret = format!("key half {i}");
                let cipher = key.public().encrypt(secret.as_bytes(), &mut rng).unwrap();
                let plain = key.decrypt(&cipher);
                assert_eq!(plain, inline(|| key.decrypt(&cipher)), "{msg}");
                assert_eq!(plain.unwrap(), secret.as_bytes());
            }
        }
    }

    #[test]
    fn concurrent_private_key_operations_match_one_thread() {
        let key = test_key();
        let messages: Vec<String> = (0..200).map(|i| format!("message {i}")).collect();
        let ciphers: Vec<Vec<u8>> = messages
            .iter()
            .map(|m| {
                let mut rng = XorShiftSource::new(m.len() as u64);
                key.public().encrypt(m.as_bytes(), &mut rng).unwrap()
            })
            .collect();
        let run = || -> Vec<(RabinSignature, Vec<u8>)> {
            messages
                .iter()
                .zip(&ciphers)
                .map(|(m, c)| (key.sign(m.as_bytes()), key.decrypt(c).unwrap()))
                .collect()
        };
        let reference = inline(run);
        // Eight threads contend for the one helper: whichever claims it
        // splits its pair, the others run theirs inline.
        std::thread::scope(|s| {
            let threads: Vec<_> = (0..8).map(|_| s.spawn(run)).collect();
            for t in threads {
                assert!(t.join().unwrap() == reference);
            }
        });
    }
}
