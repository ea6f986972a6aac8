//! The Secure Remote Password protocol (Wu, NDSS '98).
//!
//! Paper §2.4: "Two programs, sfskey and authserv, use the SRP protocol to
//! let people securely download self-certifying pathnames using passwords.
//! SRP permits a client and server sharing a weak secret to negotiate a
//! strong session key without exposing the weak secret to off-line guessing
//! attacks."
//!
//! This follows SRP-3 as published (and RFC 2945's evidence messages):
//!
//! ```text
//! x = SHA1(salt || SHA1(user ":" password))        v = g^x
//! client:  A = g^a                                 server: B = v + g^b
//! u = first 32 bits of SHA1(B)
//! client:  S = (B − g^x)^(a + u·x)                 server: S = (A·v^u)^b
//! K = H(S);   M1 = H(H(N)⊕H(g), H(user), salt, A, B, K);   M2 = H(A, M1, K)
//! ```
//!
//! In SFS the password is first hardened with eksblowfish
//! ([`crate::eksblowfish::password_kdf`]) so that even captured verifiers
//! make guessing expensive (§2.5.2).

use std::sync::OnceLock;

use sfs_bignum::{gen_prime_congruent, is_probable_prime, modpow, Int, Nat, RandomSource};

use crate::sha1::{sha1, sha1_concat, DIGEST_LEN};

/// Errors from the SRP handshake.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SrpError {
    /// The peer's public value was zero modulo N (an attack).
    InvalidPublicValue,
    /// The scrambling parameter u was zero (degenerate handshake).
    DegenerateHandshake,
    /// The client's evidence M1 did not verify (wrong password or MITM).
    BadClientEvidence,
    /// The server's evidence M2 did not verify (not the real server).
    BadServerEvidence,
}

impl std::fmt::Display for SrpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SrpError::InvalidPublicValue => write!(f, "peer public value is 0 mod N"),
            SrpError::DegenerateHandshake => write!(f, "degenerate SRP handshake (u = 0)"),
            SrpError::BadClientEvidence => write!(f, "client evidence M1 mismatch"),
            SrpError::BadServerEvidence => write!(f, "server evidence M2 mismatch"),
        }
    }
}

impl std::error::Error for SrpError {}

/// An SRP group: a safe prime `n` and generator `g`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SrpGroup {
    /// The safe prime modulus.
    pub n: Nat,
    /// The generator.
    pub(crate) g: Nat,
}

impl SrpGroup {
    /// The 1024-bit group from RFC 5054 Appendix A (originating in the SRP
    /// distribution contemporary with SFS). Verified prime/safe-prime by
    /// tests.
    pub fn rfc5054_1024() -> &'static SrpGroup {
        static GROUP: OnceLock<SrpGroup> = OnceLock::new();
        GROUP.get_or_init(|| SrpGroup {
            n: Nat::from_hex(concat!(
                "EEAF0AB9ADB38DD69C33F80AFA8FC5E86072618775FF3C0B9EA2314C",
                "9C256576D674DF7496EA81D3383B4813D692C6E0E0D5D8E250B98BE4",
                "8E495C1D6089DAD15DC7D7B46154D6B6CE8EF4AD69B15D4982559B29",
                "7BCF1885C529F566660E57EC68EDBC3C05726CC02FD4CBF4976EAA9A",
                "FD5138FE8376435B9FC61D2FC0EB06E3"
            ))
            .expect("constant group modulus"),
            g: Nat::from(2u64),
        })
    }

    /// Generates a fresh safe-prime group of `bits` bits with `g = 2`
    /// (slow; meant for tests wanting small groups).
    pub fn generate<R: RandomSource>(bits: usize, rng: &mut R) -> SrpGroup {
        loop {
            // Safe prime: n = 2q + 1 with q prime. Choose q ≡ 3 (mod 4),
            // which makes n ≡ 7 (mod 8): then 2 is a quadratic residue of
            // order q, so g = 2 generates the large subgroup.
            let q = gen_prime_congruent(bits - 1, 3, 4, rng);
            let n = q.shl_bits(1).add_nat(&Nat::one());
            debug_assert_eq!(n.rem_u64(8), 7);
            if is_probable_prime(&n, 32, rng) {
                return SrpGroup {
                    n,
                    g: Nat::from(2u64),
                };
            }
        }
    }
}

/// Computes the private exponent `x = SHA1(salt || SHA1(user ":" pass))`.
pub(crate) fn private_exponent(user: &str, password: &[u8], salt: &[u8]) -> Nat {
    let inner = sha1_concat(&[user.as_bytes(), b":", password]);
    Nat::from_bytes_be(&sha1_concat(&[salt, &inner]))
}

/// Computes the verifier `v = g^x mod n` a user registers with authserv.
pub fn compute_verifier(group: &SrpGroup, user: &str, password: &[u8], salt: &[u8]) -> Nat {
    let x = private_exponent(user, password, salt);
    modpow(&group.g, &x, &group.n)
}

/// The scrambling parameter: first 32 bits of SHA1(B).
fn scramble(group: &SrpGroup, b_pub: &Nat) -> Nat {
    let d = sha1(&b_pub.to_bytes_be_padded(group.n.to_bytes_be().len()));
    Nat::from_bytes_be(&d[..4])
}

/// Derives the session key from the shared secret.
fn session_key(group: &SrpGroup, s: &Nat) -> [u8; DIGEST_LEN] {
    sha1_concat(&[b"SRP-K", &s.to_bytes_be_padded(group.n.to_bytes_be().len())])
}

fn evidence_m1(
    group: &SrpGroup,
    user: &str,
    salt: &[u8],
    a_pub: &Nat,
    b_pub: &Nat,
    key: &[u8; DIGEST_LEN],
) -> [u8; DIGEST_LEN] {
    let hn = sha1(&group.n.to_bytes_be());
    let hg = sha1(&group.g.to_bytes_be());
    let hx: Vec<u8> = hn.iter().zip(hg.iter()).map(|(a, b)| a ^ b).collect();
    let hu = sha1(user.as_bytes());
    sha1_concat(&[
        &hx,
        &hu,
        salt,
        &a_pub.to_bytes_be(),
        &b_pub.to_bytes_be(),
        key,
    ])
}

impl std::fmt::Debug for SrpClientSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SrpClientSession {{ .. }}")
    }
}

impl std::fmt::Debug for SrpServerSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SrpServerSession {{ .. }}")
    }
}

fn evidence_m2(a_pub: &Nat, m1: &[u8; DIGEST_LEN], key: &[u8; DIGEST_LEN]) -> [u8; DIGEST_LEN] {
    sha1_concat(&[&a_pub.to_bytes_be(), m1, key])
}

/// Client half of an SRP handshake.
pub struct SrpClient {
    group: SrpGroup,
    user: String,
    password: Vec<u8>,
    a: Nat,
    a_pub: Nat,
}

/// Result of a successful client-side handshake.
///
/// Debug intentionally does not print the key material.
pub struct SrpClientSession {
    /// The negotiated strong session key.
    pub key: [u8; DIGEST_LEN],
    /// Evidence to send to the server (proves the client knew the
    /// password).
    pub m1: [u8; DIGEST_LEN],
    expected_m2: [u8; DIGEST_LEN],
}

impl SrpClientSession {
    /// Checks the server's evidence message; failure means the peer did not
    /// actually know the verifier (it is not the real server).
    pub fn verify_server(&self, m2: &[u8]) -> Result<(), SrpError> {
        if m2 == self.expected_m2 {
            Ok(())
        } else {
            Err(SrpError::BadServerEvidence)
        }
    }
}

impl SrpClient {
    /// Starts a handshake; returns the client state and `A` to send.
    pub fn start<R: RandomSource>(
        group: &SrpGroup,
        user: &str,
        password: &[u8],
        rng: &mut R,
    ) -> (SrpClient, Nat) {
        let a = rng.random_bits(256).add_nat(&Nat::one());
        let a_pub = modpow(&group.g, &a, &group.n);
        (
            SrpClient {
                group: group.clone(),
                user: user.to_string(),
                password: password.to_vec(),
                a,
                a_pub: a_pub.clone(),
            },
            a_pub,
        )
    }

    /// Processes the server's `(salt, B)` reply and derives the session.
    pub fn process(self, salt: &[u8], b_pub: &Nat) -> Result<SrpClientSession, SrpError> {
        if b_pub.rem_nat(&self.group.n).unwrap().is_zero() {
            return Err(SrpError::InvalidPublicValue);
        }
        let u = scramble(&self.group, b_pub);
        if u.is_zero() {
            return Err(SrpError::DegenerateHandshake);
        }
        let x = private_exponent(&self.user, &self.password, salt);
        let gx = modpow(&self.group.g, &x, &self.group.n);
        // S = (B - g^x)^(a + u*x) mod n.
        let base = Int::from_nat(b_pub.clone())
            .sub(&Int::from_nat(gx))
            .rem_euclid(&self.group.n);
        if base.is_zero() {
            return Err(SrpError::InvalidPublicValue);
        }
        let exp = self.a.add_nat(&u.mul_nat(&x));
        let s = modpow(&base, &exp, &self.group.n);
        let key = session_key(&self.group, &s);
        let m1 = evidence_m1(&self.group, &self.user, salt, &self.a_pub, b_pub, &key);
        let expected_m2 = evidence_m2(&self.a_pub, &m1, &key);
        Ok(SrpClientSession {
            key,
            m1,
            expected_m2,
        })
    }
}

/// Server half of an SRP handshake.
pub struct SrpServer {
    group: SrpGroup,
    user: String,
    salt: Vec<u8>,
    verifier: Nat,
    b: Nat,
    b_pub: Nat,
}

/// Result of a successful server-side handshake.
///
/// Debug intentionally does not print the key material.
pub struct SrpServerSession {
    /// The negotiated strong session key.
    pub key: [u8; DIGEST_LEN],
    /// Evidence to return to the client after validating its M1.
    pub m2: [u8; DIGEST_LEN],
}

impl SrpServer {
    /// Starts the server side; returns the state and `B` to send.
    ///
    /// `verifier` is `v = g^x` as registered via [`compute_verifier`]; the
    /// server never sees the password itself ("the server never sees any
    /// password-equivalent data", §2.4).
    pub fn start<R: RandomSource>(
        group: &SrpGroup,
        user: &str,
        salt: &[u8],
        verifier: &Nat,
        rng: &mut R,
    ) -> (SrpServer, Nat) {
        let b = rng.random_bits(256).add_nat(&Nat::one());
        // B = v + g^b mod n (SRP-3).
        let gb = modpow(&group.g, &b, &group.n);
        let b_pub = verifier.add_nat(&gb).rem_nat(&group.n).unwrap();
        (
            SrpServer {
                group: group.clone(),
                user: user.to_string(),
                salt: salt.to_vec(),
                verifier: verifier.clone(),
                b,
                b_pub: b_pub.clone(),
            },
            b_pub,
        )
    }

    /// Processes the client's `A` and its evidence `M1`.
    pub fn process(self, a_pub: &Nat, m1: &[u8]) -> Result<SrpServerSession, SrpError> {
        if a_pub.rem_nat(&self.group.n).unwrap().is_zero() {
            return Err(SrpError::InvalidPublicValue);
        }
        let u = scramble(&self.group, &self.b_pub);
        if u.is_zero() {
            return Err(SrpError::DegenerateHandshake);
        }
        // S = (A * v^u)^b mod n.
        let vu = modpow(&self.verifier, &u, &self.group.n);
        let base = a_pub.mul_nat(&vu).rem_nat(&self.group.n).unwrap();
        let s = modpow(&base, &self.b, &self.group.n);
        let key = session_key(&self.group, &s);
        let expect_m1 = evidence_m1(
            &self.group,
            &self.user,
            &self.salt,
            a_pub,
            &self.b_pub,
            &key,
        );
        if m1 != expect_m1 {
            return Err(SrpError::BadClientEvidence);
        }
        let m2 = evidence_m2(a_pub, &expect_m1, &key);
        Ok(SrpServerSession { key, m2 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfs_bignum::XorShiftSource;

    fn small_group() -> SrpGroup {
        let mut rng = XorShiftSource::new(0x5109);
        SrpGroup::generate(128, &mut rng)
    }

    fn handshake(
        group: &SrpGroup,
        reg_pass: &[u8],
        login_pass: &[u8],
    ) -> Result<([u8; 20], [u8; 20]), SrpError> {
        let mut rng = XorShiftSource::new(42);
        let salt = b"0123456789abcdef";
        let v = compute_verifier(group, "alice", reg_pass, salt);
        let (client, a_pub) = SrpClient::start(group, "alice", login_pass, &mut rng);
        let (server, b_pub) = SrpServer::start(group, "alice", salt, &v, &mut rng);
        let cs = client.process(salt, &b_pub)?;
        let ss = server.process(&a_pub, &cs.m1)?;
        cs.verify_server(&ss.m2)?;
        Ok((cs.key, ss.key))
    }

    #[test]
    fn successful_handshake_agrees_on_key() {
        let group = small_group();
        let (ck, sk) = handshake(&group, b"correct horse", b"correct horse").unwrap();
        assert_eq!(ck, sk);
    }

    #[test]
    fn wrong_password_fails_evidence() {
        let group = small_group();
        assert_eq!(
            handshake(&group, b"correct horse", b"battery staple").unwrap_err(),
            SrpError::BadClientEvidence
        );
    }

    #[test]
    fn zero_b_rejected_by_client() {
        let group = small_group();
        let mut rng = XorShiftSource::new(1);
        let (client, _) = SrpClient::start(&group, "alice", b"pw", &mut rng);
        assert_eq!(
            client.process(b"salt", &Nat::zero()).unwrap_err(),
            SrpError::InvalidPublicValue
        );
    }

    #[test]
    fn zero_a_rejected_by_server() {
        let group = small_group();
        let mut rng = XorShiftSource::new(2);
        let v = compute_verifier(&group, "alice", b"pw", b"salt");
        let (server, _) = SrpServer::start(&group, "alice", b"salt", &v, &mut rng);
        assert_eq!(
            server.process(&Nat::zero(), &[0u8; 20]).unwrap_err(),
            SrpError::InvalidPublicValue
        );
        // n mod n == 0 too.
        let mut rng = XorShiftSource::new(3);
        let (server, _) = SrpServer::start(&group, "alice", b"salt", &v, &mut rng);
        assert_eq!(
            server.process(&group.n, &[0u8; 20]).unwrap_err(),
            SrpError::InvalidPublicValue
        );
    }

    #[test]
    fn fake_server_without_verifier_fails() {
        // A server that does not know v cannot produce a valid M2 even if
        // it completes the message flow with a made-up verifier.
        let group = small_group();
        let mut rng = XorShiftSource::new(4);
        let salt = b"salt";
        let fake_v = Nat::from(12345u64);
        let (client, a_pub) = SrpClient::start(&group, "alice", b"pw", &mut rng);
        let (server, b_pub) = SrpServer::start(&group, "alice", salt, &fake_v, &mut rng);
        let cs = client.process(salt, &b_pub).unwrap();
        // Server can't validate M1 (keys disagree)...
        let err = server.process(&a_pub, &cs.m1).unwrap_err();
        assert_eq!(err, SrpError::BadClientEvidence);
        // ...and any M2 it invents fails.
        assert_eq!(
            cs.verify_server(&[0u8; 20]).unwrap_err(),
            SrpError::BadServerEvidence
        );
    }

    #[test]
    fn verifier_not_password_equivalent() {
        // The verifier differs from anything hashed directly from the
        // password alone (it is salted and group-dependent).
        let group = small_group();
        let v1 = compute_verifier(&group, "alice", b"pw", b"salt-1");
        let v2 = compute_verifier(&group, "alice", b"pw", b"salt-2");
        assert_ne!(v1, v2);
    }

    #[test]
    fn generated_group_is_safe_prime() {
        let group = small_group();
        let mut rng = XorShiftSource::new(77);
        assert!(is_probable_prime(&group.n, 32, &mut rng));
        let q = group.n.checked_sub(&Nat::one()).unwrap().shr_bits(1);
        assert!(is_probable_prime(&q, 32, &mut rng));
    }

    #[test]
    fn rfc5054_group_is_safe_prime() {
        let group = SrpGroup::rfc5054_1024();
        assert_eq!(group.n.bit_len(), 1024);
        let mut rng = XorShiftSource::new(88);
        assert!(is_probable_prime(&group.n, 16, &mut rng), "N must be prime");
        let q = group.n.checked_sub(&Nat::one()).unwrap().shr_bits(1);
        assert!(is_probable_prime(&q, 16, &mut rng), "(N-1)/2 must be prime");
    }
}
