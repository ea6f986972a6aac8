//! The SFS key-negotiation protocol (Figure 3, §3.1.1).
//!
//! ```text
//! 1. C → S: Location, HostID
//! 2. S → C: K_S                        (client checks SHA-1 against HostID)
//! 3. C → S: K_C, {k_C1, k_C2}_K_S     (K_C is short-lived / ephemeral)
//! 4. S → C: {k_S1, k_S2}_K_C
//!
//! k_CS = SHA-1("KCS", K_S, k_S1, K_C, k_C1)
//! k_SC = SHA-1("KSC", K_S, k_S2, K_C, k_C2)
//! ```
//!
//! "This key negotiation protocol assures the client that no one else can
//! know k_CS and k_SC without also possessing K_S⁻¹. … Clients discard and
//! regenerate K_C at regular intervals (every hour by default)", which is
//! what gives recorded sessions forward secrecy (§2.4: an attacker who
//! later steals the server key "cannot decrypt previously recorded network
//! transmissions").
//!
//! RECONSTRUCTION: the exact per-direction ordering of key halves inside
//! the two SHA-1 derivations is not printable from the paper's damaged
//! glyphs; the structure above (constant, server key, server half, client
//! key, client half) follows the visible subscripts.
//!
//! # Suite negotiation
//!
//! The channel cipher is negotiable (§3's separation of key management
//! from the transport cipher). The client's hello carries its offered
//! suite list in the extensions string (`suites=…`); the server picks one
//! and announces it in message 4. Downgrade protection comes from binding
//! the *raw offer string* and the chosen suite into the session-key
//! derivation, and from a confirmation MAC over the derived keys in
//! message 4: a man in the middle who strips or reorders the offer makes
//! the two sides derive different keys, so the confirmation check fails
//! and the client aborts instead of silently running the weaker suite.
//!
//! # Session resumption
//!
//! A completed negotiation also yields a *resumption secret* (derived
//! from the session keys, never sent in clear). The server hands the
//! client an opaque ticket — the secret sealed under a server-local
//! ticket key. On reconnect the client presents the ticket plus a fresh
//! nonce; both sides derive fresh keys from the secret and the two
//! nonces, skipping the Rabin decryptions entirely. Forward secrecy is
//! preserved at ticket-lifetime granularity rather than per-session.

use sfs_bignum::RandomSource;
use sfs_crypto::rabin::{RabinError, RabinPrivateKey, RabinPublicKey};
use sfs_crypto::sha1::{sha1_concat, DIGEST_LEN};
use sfs_xdr::{Xdr, XdrDecoder, XdrEncoder, XdrError};

use crate::channel::SuiteId;
use crate::pathname::{HostId, SelfCertifyingPath};
use crate::revoke::RevocationCert;

/// Length of each random key half.
pub const KEY_HALF_LEN: usize = 16;

/// Length of the client/server nonces in a ticket resume.
pub const RESUME_NONCE_LEN: usize = 16;

/// The extensions-string token prefix carrying the suite offer.
pub const SUITES_EXT_PREFIX: &str = "suites=";

/// Renders a suite offer as an extensions-string token. The
/// baseline-only offer renders as the empty string, keeping legacy
/// clients and the paper's wire format byte-identical.
pub fn offer_extensions(suites: &[SuiteId]) -> String {
    if suites == [SuiteId::Arc4Sha1] {
        return String::new();
    }
    let labels: Vec<&str> = suites.iter().map(|s| s.label()).collect();
    format!("{SUITES_EXT_PREFIX}{}", labels.join(","))
}

/// Parses the offered suite list out of a hello extensions string. No
/// `suites=` token means a legacy client: baseline only. Unknown labels
/// are ignored (a newer client may offer suites we do not know).
pub fn offered_suites(extensions: &str) -> Vec<SuiteId> {
    for token in extensions.split_whitespace() {
        if let Some(list) = token.strip_prefix(SUITES_EXT_PREFIX) {
            let mut suites: Vec<SuiteId> = list.split(',').filter_map(SuiteId::parse).collect();
            if !suites.contains(&SuiteId::Arc4Sha1) {
                suites.push(SuiteId::Arc4Sha1);
            }
            return suites;
        }
    }
    vec![SuiteId::Arc4Sha1]
}

/// Removes the `suites=` token from an extensions string, returning what
/// dispatch rules should see (they match extensions exactly and predate
/// suite negotiation).
pub fn strip_suites_ext(extensions: &str) -> String {
    extensions
        .split_whitespace()
        .filter(|t| !t.starts_with(SUITES_EXT_PREFIX))
        .collect::<Vec<_>>()
        .join(" ")
}

/// The server's pick: the first offered suite, in the client's
/// preference order. The offer always contains at least the baseline.
pub fn choose_suite(offered: &[SuiteId]) -> SuiteId {
    offered.first().copied().unwrap_or(SuiteId::Arc4Sha1)
}

/// The negotiation transcript digest bound into key derivation: the raw
/// offer string exactly as the client sent it, plus the server's choice.
fn suite_transcript(offer_ext: &str, chosen: SuiteId) -> [u8; DIGEST_LEN] {
    sha1_concat(&[
        b"SuiteOffer",
        offer_ext.as_bytes(),
        &chosen.wire_id().to_be_bytes(),
    ])
}

/// The message-4 confirmation MAC proving the server derived the same
/// keys over the same transcript.
fn suite_confirm(keys: &SessionKeys, transcript: &[u8; DIGEST_LEN]) -> [u8; DIGEST_LEN] {
    sha1_concat(&[b"SuiteConfirm", &keys.kcs, &keys.ksc, transcript])
}

/// Errors during key negotiation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KeyNegError {
    /// The server's claimed public key does not hash to the pathname's
    /// HostID — self-certification failed.
    HostIdMismatch,
    /// Public-key decryption failed (malformed or tampered message).
    Crypto(RabinError),
    /// Message failed to unmarshal.
    Xdr(XdrError),
    /// The server answered with a valid revocation certificate for this
    /// path.
    Revoked(Box<RevocationCert>),
    /// Suite negotiation failed its downgrade check: the server chose a
    /// suite we never offered, or the confirmation MAC did not match —
    /// someone tampered with the offer in flight.
    Downgrade(String),
}

impl std::fmt::Display for KeyNegError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KeyNegError::HostIdMismatch => {
                write!(f, "server public key does not match HostID")
            }
            KeyNegError::Crypto(e) => write!(f, "key negotiation crypto failure: {e}"),
            KeyNegError::Xdr(e) => write!(f, "key negotiation decode failure: {e}"),
            KeyNegError::Revoked(_) => write!(f, "pathname has been revoked"),
            KeyNegError::Downgrade(why) => {
                write!(f, "suite negotiation downgrade detected: {why}")
            }
        }
    }
}

impl std::error::Error for KeyNegError {}

impl From<RabinError> for KeyNegError {
    fn from(e: RabinError) -> Self {
        KeyNegError::Crypto(e)
    }
}

impl From<XdrError> for KeyNegError {
    fn from(e: XdrError) -> Self {
        KeyNegError::Xdr(e)
    }
}

/// The session keys both sides derive, plus the SessionID used by user
/// authentication.
#[derive(Clone, PartialEq, Eq)]
pub struct SessionKeys {
    /// Client→server key.
    pub kcs: [u8; DIGEST_LEN],
    /// Server→client key.
    pub ksc: [u8; DIGEST_LEN],
    /// SessionID = SHA-1("SessionInfo", k_SC, k_CS) (§3.1.2).
    pub session_id: [u8; DIGEST_LEN],
}

impl SessionKeys {
    fn derive(
        server_key: &RabinPublicKey,
        client_key: &RabinPublicKey,
        kc: &KeyHalves,
        ks: &KeyHalves,
        transcript: &[u8; DIGEST_LEN],
    ) -> SessionKeys {
        // The suite transcript is always appended — a legacy empty offer
        // hashes to a fixed digest, so both sides still agree.
        let kcs = sha1_concat(&[
            b"KCS",
            &server_key.to_bytes(),
            &ks.half1,
            &client_key.to_bytes(),
            &kc.half1,
            transcript,
        ]);
        let ksc = sha1_concat(&[
            b"KSC",
            &server_key.to_bytes(),
            &ks.half2,
            &client_key.to_bytes(),
            &kc.half2,
            transcript,
        ]);
        let session_id = sha1_concat(&[b"SessionInfo", &ksc, &kcs]);
        SessionKeys {
            kcs,
            ksc,
            session_id,
        }
    }
}

impl std::fmt::Debug for SessionKeys {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material; the SessionID is public.
        write!(
            f,
            "SessionKeys {{ session_id: {:02x?} }}",
            &self.session_id[..4]
        )
    }
}

/// A pair of random key halves.
#[derive(Clone, PartialEq, Eq)]
struct KeyHalves {
    half1: [u8; KEY_HALF_LEN],
    half2: [u8; KEY_HALF_LEN],
}

impl KeyHalves {
    fn random<R: RandomSource>(rng: &mut R) -> Self {
        let mut half1 = [0u8; KEY_HALF_LEN];
        let mut half2 = [0u8; KEY_HALF_LEN];
        rng.fill(&mut half1);
        rng.fill(&mut half2);
        KeyHalves { half1, half2 }
    }

    fn to_xdr_bytes(&self) -> Vec<u8> {
        let mut enc = XdrEncoder::new();
        enc.put_opaque_fixed(&self.half1);
        enc.put_opaque_fixed(&self.half2);
        enc.into_bytes()
    }

    fn from_xdr_bytes(data: &[u8]) -> Result<Self, XdrError> {
        let mut dec = XdrDecoder::new(data);
        let h1 = dec.get_opaque_fixed(KEY_HALF_LEN)?;
        let h2 = dec.get_opaque_fixed(KEY_HALF_LEN)?;
        dec.finish()?;
        Ok(KeyHalves {
            half1: h1.try_into().expect("length checked"),
            half2: h2.try_into().expect("length checked"),
        })
    }
}

/// Step 1 — the client's hello, announcing which file system it wants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyNegRequest {
    /// Location from the self-certifying pathname.
    pub location: String,
    /// HostID from the self-certifying pathname.
    pub host_id: HostId,
}

impl Xdr for KeyNegRequest {
    fn encode(&self, enc: &mut XdrEncoder) {
        enc.put_string(&self.location);
        self.host_id.encode(enc);
    }
    fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, XdrError> {
        Ok(KeyNegRequest {
            location: dec.get_string()?,
            host_id: HostId::decode(dec)?,
        })
    }
}

/// Step 2 — the server's reply: its public key, or a revocation
/// certificate ("When SFS first connects to a server … The server can
/// respond with a revocation certificate", §2.6).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KeyNegServerReply {
    /// The server's long-lived public key.
    ServerKey(Vec<u8>),
    /// This pathname has been revoked.
    Revoked(RevocationCert),
}

impl Xdr for KeyNegServerReply {
    fn encode(&self, enc: &mut XdrEncoder) {
        match self {
            KeyNegServerReply::ServerKey(k) => {
                enc.put_u32(0);
                enc.put_opaque(k);
            }
            KeyNegServerReply::Revoked(cert) => {
                enc.put_u32(1);
                cert.encode(enc);
            }
        }
    }
    fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, XdrError> {
        match dec.get_u32()? {
            0 => Ok(KeyNegServerReply::ServerKey(dec.get_opaque()?)),
            1 => Ok(KeyNegServerReply::Revoked(RevocationCert::decode(dec)?)),
            other => Err(XdrError::BadDiscriminant(other)),
        }
    }
}

/// Step 3 — the client's ephemeral key and its encrypted key halves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyNegClientKeys {
    /// The client's short-lived public key K_C ("anonymous and has no
    /// bearing on access control").
    pub client_key: Vec<u8>,
    /// {k_C1, k_C2} encrypted to K_S.
    pub encrypted_halves: Vec<u8>,
}

impl Xdr for KeyNegClientKeys {
    fn encode(&self, enc: &mut XdrEncoder) {
        enc.put_opaque(&self.client_key);
        enc.put_opaque(&self.encrypted_halves);
    }
    fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, XdrError> {
        Ok(KeyNegClientKeys {
            client_key: dec.get_opaque()?,
            encrypted_halves: dec.get_opaque()?,
        })
    }
}

/// Step 4 — the server's encrypted key halves, its suite choice with the
/// downgrade-protecting confirmation MAC, and a resumption ticket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyNegServerHalves {
    /// {k_S1, k_S2} encrypted to the ephemeral K_C.
    pub encrypted_halves: Vec<u8>,
    /// Wire id of the suite the server chose ([`SuiteId::wire_id`]).
    pub chosen: u32,
    /// SHA-1("SuiteConfirm", k_CS, k_SC, transcript) — only computable
    /// by a server that saw the genuine offer and derived the same keys.
    pub confirm: [u8; DIGEST_LEN],
    /// An opaque session-resumption ticket (empty if the server does not
    /// issue them).
    pub ticket: Vec<u8>,
}

impl Xdr for KeyNegServerHalves {
    fn encode(&self, enc: &mut XdrEncoder) {
        enc.put_opaque(&self.encrypted_halves);
        enc.put_u32(self.chosen);
        enc.put_opaque_fixed(&self.confirm);
        enc.put_opaque(&self.ticket);
    }
    fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, XdrError> {
        Ok(KeyNegServerHalves {
            encrypted_halves: dec.get_opaque()?,
            chosen: dec.get_u32()?,
            confirm: dec
                .get_opaque_fixed(DIGEST_LEN)?
                .try_into()
                .expect("length checked"),
            ticket: dec.get_opaque()?,
        })
    }
}

/// The client's half of the key negotiation.
pub struct KeyNegClient {
    path: SelfCertifyingPath,
    ephemeral: RabinPrivateKey,
    suites: Vec<SuiteId>,
}

/// Client state between receiving the server key and the server halves.
///
/// Debug intentionally omits the key material.
pub struct KeyNegClientAwaitingHalves {
    server_key: RabinPublicKey,
    ephemeral: RabinPrivateKey,
    kc: KeyHalves,
    suites: Vec<SuiteId>,
    offer_ext: String,
}

impl KeyNegClient {
    /// Starts a negotiation for `path` using the client's current
    /// `ephemeral` key (regenerated hourly in the client master),
    /// offering only the paper-baseline suite.
    pub fn new(path: SelfCertifyingPath, ephemeral: RabinPrivateKey) -> Self {
        Self::with_suites(path, ephemeral, &[SuiteId::Arc4Sha1])
    }

    /// Starts a negotiation offering `suites` in preference order.
    pub fn with_suites(
        path: SelfCertifyingPath,
        ephemeral: RabinPrivateKey,
        suites: &[SuiteId],
    ) -> Self {
        let mut suites = suites.to_vec();
        if !suites.contains(&SuiteId::Arc4Sha1) {
            suites.push(SuiteId::Arc4Sha1);
        }
        KeyNegClient {
            path,
            ephemeral,
            suites,
        }
    }

    /// Step 1: the hello message.
    pub fn hello(&self) -> KeyNegRequest {
        KeyNegRequest {
            location: self.path.location.clone(),
            host_id: self.path.host_id,
        }
    }

    /// The extensions-string token carrying this client's suite offer
    /// (empty for a baseline-only offer). Must be sent verbatim in the
    /// hello: it is what both sides bind into key derivation.
    pub fn offer_extensions(&self) -> String {
        offer_extensions(&self.suites)
    }

    /// Step 2→3: verify the server key against the HostID (the
    /// self-certification step) and produce the encrypted client halves.
    pub fn on_server_reply<R: RandomSource>(
        self,
        reply: &KeyNegServerReply,
        rng: &mut R,
    ) -> Result<(KeyNegClientAwaitingHalves, KeyNegClientKeys), KeyNegError> {
        let key_bytes = match reply {
            KeyNegServerReply::ServerKey(k) => k,
            KeyNegServerReply::Revoked(cert) => {
                // Only honor certificates that actually revoke this path.
                if cert.revokes(&self.path) {
                    return Err(KeyNegError::Revoked(Box::new(cert.clone())));
                }
                return Err(KeyNegError::HostIdMismatch);
            }
        };
        let server_key = RabinPublicKey::from_bytes(key_bytes)?;
        if !self.path.certifies(&server_key) {
            return Err(KeyNegError::HostIdMismatch);
        }
        let kc = KeyHalves::random(rng);
        let encrypted = server_key.encrypt(&kc.to_xdr_bytes(), rng)?;
        let msg = KeyNegClientKeys {
            client_key: self.ephemeral.public().to_bytes(),
            encrypted_halves: encrypted,
        };
        Ok((
            KeyNegClientAwaitingHalves {
                server_key,
                ephemeral: self.ephemeral,
                kc,
                offer_ext: offer_extensions(&self.suites),
                suites: self.suites,
            },
            msg,
        ))
    }
}

impl std::fmt::Debug for KeyNegClientAwaitingHalves {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "KeyNegClientAwaitingHalves {{ .. }}")
    }
}

impl KeyNegClientAwaitingHalves {
    /// Step 4: verify the server's suite choice against our offer,
    /// decrypt its key halves, derive the session keys, and check the
    /// confirmation MAC. Any mismatch — a choice we never offered, or a
    /// confirm computed over a different transcript — is a downgrade
    /// attack and aborts the handshake.
    pub fn on_server_halves(
        self,
        msg: &KeyNegServerHalves,
    ) -> Result<(SessionKeys, SuiteId), KeyNegError> {
        let chosen = SuiteId::from_wire(msg.chosen)
            .ok_or_else(|| KeyNegError::Downgrade(format!("unknown suite id {}", msg.chosen)))?;
        if !self.suites.contains(&chosen) {
            return Err(KeyNegError::Downgrade(format!(
                "server chose {chosen}, which we never offered"
            )));
        }
        let ks = KeyHalves::from_xdr_bytes(&self.ephemeral.decrypt(&msg.encrypted_halves)?)?;
        let transcript = suite_transcript(&self.offer_ext, chosen);
        let keys = SessionKeys::derive(
            &self.server_key,
            self.ephemeral.public(),
            &self.kc,
            &ks,
            &transcript,
        );
        if suite_confirm(&keys, &transcript) != msg.confirm {
            return Err(KeyNegError::Downgrade(
                "confirmation MAC mismatch: the offer the server saw is not the offer we sent"
                    .into(),
            ));
        }
        Ok((keys, chosen))
    }
}

/// The server's half of the negotiation: processes step 3 (given the
/// offer string from the client's hello, verbatim) and produces step 4
/// plus its own session keys and chosen suite. The returned message's
/// `ticket` is empty; a server that issues resumption tickets fills it
/// in before replying.
pub fn server_process_client_keys<R: RandomSource>(
    server_key: &RabinPrivateKey,
    msg: &KeyNegClientKeys,
    offer_ext: &str,
    rng: &mut R,
) -> Result<(SessionKeys, SuiteId, KeyNegServerHalves), KeyNegError> {
    let client_key = RabinPublicKey::from_bytes(&msg.client_key)?;
    let kc = KeyHalves::from_xdr_bytes(&server_key.decrypt(&msg.encrypted_halves)?)?;
    let ks = KeyHalves::random(rng);
    let encrypted = client_key.encrypt(&ks.to_xdr_bytes(), rng)?;
    let chosen = choose_suite(&offered_suites(offer_ext));
    let transcript = suite_transcript(offer_ext, chosen);
    let keys = SessionKeys::derive(server_key.public(), &client_key, &kc, &ks, &transcript);
    let confirm = suite_confirm(&keys, &transcript);
    Ok((
        keys,
        chosen,
        KeyNegServerHalves {
            encrypted_halves: encrypted,
            chosen: chosen.wire_id(),
            confirm,
            ticket: Vec::new(),
        },
    ))
}

/// The resumption secret both sides hold after a completed negotiation.
/// Derived from (not equal to) the session keys; it is what a ticket
/// seals and what fresh keys are derived from on resume.
pub fn resume_secret(keys: &SessionKeys) -> [u8; DIGEST_LEN] {
    sha1_concat(&[b"ResumeSecret", &keys.kcs, &keys.ksc])
}

/// Derives fresh session keys for a ticket-resumed session. Both nonces
/// are fresh per resume, so a replayed Resume message yields keys the
/// replaying party cannot use; the suite is bound in so a resume cannot
/// silently change suites.
pub fn resume_session(
    secret: &[u8; DIGEST_LEN],
    suite: SuiteId,
    client_nonce: &[u8; RESUME_NONCE_LEN],
    server_nonce: &[u8; RESUME_NONCE_LEN],
) -> SessionKeys {
    let suite_id = suite.wire_id().to_be_bytes();
    let kcs = sha1_concat(&[b"Resume-KCS", secret, &suite_id, client_nonce, server_nonce]);
    let ksc = sha1_concat(&[b"Resume-KSC", secret, &suite_id, client_nonce, server_nonce]);
    let session_id = sha1_concat(&[b"SessionInfo", &ksc, &kcs]);
    SessionKeys {
        kcs,
        ksc,
        session_id,
    }
}

/// The server's proof-of-possession in ResumeOk: only a server that
/// could unseal the ticket (and therefore knows the secret) can compute
/// the resumed keys.
pub fn resume_confirm(keys: &SessionKeys) -> [u8; DIGEST_LEN] {
    sha1_concat(&[b"ResumeConfirm", &keys.kcs, &keys.ksc])
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfs_bignum::XorShiftSource;
    use sfs_crypto::rabin::generate_keypair;
    use std::sync::OnceLock;

    /// Shared test keys (generation is the slow part).
    fn server_key() -> &'static RabinPrivateKey {
        static KEY: OnceLock<RabinPrivateKey> = OnceLock::new();
        KEY.get_or_init(|| {
            let mut rng = XorShiftSource::new(0x5EED);
            generate_keypair(768, &mut rng)
        })
    }

    fn ephemeral_key() -> RabinPrivateKey {
        static KEY: OnceLock<RabinPrivateKey> = OnceLock::new();
        KEY.get_or_init(|| {
            let mut rng = XorShiftSource::new(0xE4E);
            generate_keypair(768, &mut rng)
        })
        .clone()
    }

    /// Runs a full negotiation with the given client suite offer,
    /// returning both sides' keys and chosen suites.
    fn run_negotiation_with(
        suites: &[SuiteId],
        cseed: u64,
        sseed: u64,
    ) -> ((SessionKeys, SuiteId), (SessionKeys, SuiteId)) {
        let skey = server_key();
        let path = SelfCertifyingPath::for_server("sfs.lcs.mit.edu", skey.public());
        let mut crng = XorShiftSource::new(cseed);
        let mut srng = XorShiftSource::new(sseed);

        let client = KeyNegClient::with_suites(path, ephemeral_key(), suites);
        let _hello = client.hello();
        let offer = client.offer_extensions();
        let reply = KeyNegServerReply::ServerKey(skey.public().to_bytes());
        let (awaiting, msg3) = client.on_server_reply(&reply, &mut crng).unwrap();
        let (server_keys, chosen, msg4) =
            server_process_client_keys(skey, &msg3, &offer, &mut srng).unwrap();
        let (client_keys, client_chosen) = awaiting.on_server_halves(&msg4).unwrap();
        ((client_keys, client_chosen), (server_keys, chosen))
    }

    fn run_negotiation() -> (SessionKeys, SessionKeys) {
        let ((c, _), (s, _)) = run_negotiation_with(&[SuiteId::Arc4Sha1], 11, 22);
        (c, s)
    }

    #[test]
    fn both_sides_agree() {
        let (c, s) = run_negotiation();
        assert_eq!(c, s);
        assert_ne!(c.kcs, c.ksc, "directions must use distinct keys");
    }

    #[test]
    fn sessions_are_unique() {
        let (a, _) = run_negotiation();
        // Different randomness yields different keys.
        let ((b, _), _) = run_negotiation_with(&[SuiteId::Arc4Sha1], 77, 88);
        assert_ne!(a.session_id, b.session_id);
    }

    #[test]
    fn negotiation_picks_the_offered_fast_suite() {
        let ((c, c_suite), (s, s_suite)) =
            run_negotiation_with(&[SuiteId::ChaCha20Poly1305, SuiteId::Arc4Sha1], 31, 32);
        assert_eq!(c, s);
        assert_eq!(c_suite, SuiteId::ChaCha20Poly1305);
        assert_eq!(s_suite, SuiteId::ChaCha20Poly1305);
    }

    #[test]
    fn legacy_and_negotiated_offers_derive_distinct_keys() {
        // The offer string is bound into derivation, so the same
        // randomness with a different offer yields different keys.
        let ((a, _), _) = run_negotiation_with(&[SuiteId::Arc4Sha1], 11, 22);
        let ((b, _), _) =
            run_negotiation_with(&[SuiteId::ChaCha20Poly1305, SuiteId::Arc4Sha1], 11, 22);
        assert_ne!(a.kcs, b.kcs);
        assert_ne!(a.session_id, b.session_id);
    }

    #[test]
    fn offer_extension_helpers_roundtrip() {
        assert_eq!(offer_extensions(&[SuiteId::Arc4Sha1]), "");
        let offer = offer_extensions(&[SuiteId::ChaCha20Poly1305, SuiteId::Arc4Sha1]);
        assert_eq!(offer, "suites=chacha20-poly1305,arc4-sha1");
        assert_eq!(
            offered_suites(&offer),
            vec![SuiteId::ChaCha20Poly1305, SuiteId::Arc4Sha1]
        );
        assert_eq!(offered_suites(""), vec![SuiteId::Arc4Sha1]);
        assert_eq!(offered_suites("newcache"), vec![SuiteId::Arc4Sha1]);
        // Unknown labels are skipped; the baseline is always present.
        assert_eq!(
            offered_suites("suites=quantum-foo,chacha20-poly1305"),
            vec![SuiteId::ChaCha20Poly1305, SuiteId::Arc4Sha1]
        );
        // Stripping leaves only what dispatch rules expect.
        assert_eq!(strip_suites_ext(&format!("newcache {offer}")), "newcache");
        assert_eq!(strip_suites_ext(&offer), "");
        assert_eq!(strip_suites_ext("newcache"), "newcache");
    }

    #[test]
    fn stripped_offer_fails_confirmation() {
        // A MITM strips the client's suite offer before it reaches the
        // server (hoping to force the weaker baseline). The server
        // processes an empty offer; its confirm is computed over a
        // different transcript, so the client aborts.
        let skey = server_key();
        let path = SelfCertifyingPath::for_server("sfs.lcs.mit.edu", skey.public());
        let mut crng = XorShiftSource::new(41);
        let mut srng = XorShiftSource::new(42);
        let client = KeyNegClient::with_suites(
            path,
            ephemeral_key(),
            &[SuiteId::ChaCha20Poly1305, SuiteId::Arc4Sha1],
        );
        let reply = KeyNegServerReply::ServerKey(skey.public().to_bytes());
        let (awaiting, msg3) = client.on_server_reply(&reply, &mut crng).unwrap();
        // The attack: offer stripped to "" in flight.
        let (_, chosen, msg4) = server_process_client_keys(skey, &msg3, "", &mut srng).unwrap();
        assert_eq!(chosen, SuiteId::Arc4Sha1, "server fell back to baseline");
        let err = awaiting.on_server_halves(&msg4).unwrap_err();
        assert!(matches!(err, KeyNegError::Downgrade(_)), "{err:?}");
    }

    #[test]
    fn hostile_client_moduli_are_refused_by_the_server_half() {
        // Step 3 arrives from an unauthenticated peer: a well-formed
        // {k_C1, k_C2} ciphertext beside a client "key" chosen to break
        // the server's arithmetic. Each must come back as an error (or a
        // harmless reply), never a panic.
        let skey = server_key();
        let path = SelfCertifyingPath::for_server("sfs.lcs.mit.edu", skey.public());
        let mut crng = XorShiftSource::new(61);
        let mut srng = XorShiftSource::new(62);
        let client = KeyNegClient::with_suites(path, ephemeral_key(), &[SuiteId::Arc4Sha1]);
        let offer = client.offer_extensions();
        let reply = KeyNegServerReply::ServerKey(skey.public().to_bytes());
        let (_, msg3) = client.on_server_reply(&reply, &mut crng).unwrap();
        let with_key = |client_key: Vec<u8>| KeyNegClientKeys {
            client_key,
            encrypted_halves: msg3.encrypted_halves.clone(),
        };

        let mut even = msg3.client_key.clone();
        *even.last_mut().unwrap() &= !1;
        let refused: [(&str, Vec<u8>); 6] = [
            ("even", even),
            ("empty", Vec::new()),
            ("one byte", vec![0x0b]),
            ("one limb of ones", vec![0xff; 8]),
            ("ones just under the OAEP floor", vec![0xff; 41]),
            ("zero", vec![0; 96]),
        ];
        for (what, key) in refused {
            let err = server_process_client_keys(skey, &with_key(key), &offer, &mut srng)
                .expect_err(what);
            assert_eq!(
                err,
                KeyNegError::Crypto(RabinError::BadKeyEncoding),
                "{what}"
            );
        }
        // Too small for the key halves but large enough for OAEP: the
        // encryption to K_C reports the overflow.
        let err = server_process_client_keys(skey, &with_key(vec![0xff; 42]), &offer, &mut srng)
            .unwrap_err();
        assert_eq!(err, KeyNegError::Crypto(RabinError::MessageTooLong));
        // A saturated modulus of honest size is just a key nobody holds
        // the factors of: the server answers, the reply is useless.
        let (_, _, msg4) =
            server_process_client_keys(skey, &with_key(vec![0xff; 96]), &offer, &mut srng).unwrap();
        assert_eq!(msg4.encrypted_halves.len(), 96);
    }

    #[test]
    fn forged_suite_choice_rejected() {
        // A MITM rewrites the server's choice without being able to fix
        // the confirm MAC (it does not know the session keys).
        let skey = server_key();
        let path = SelfCertifyingPath::for_server("sfs.lcs.mit.edu", skey.public());
        let mut crng = XorShiftSource::new(51);
        let mut srng = XorShiftSource::new(52);
        let client = KeyNegClient::with_suites(
            path,
            ephemeral_key(),
            &[SuiteId::ChaCha20Poly1305, SuiteId::Arc4Sha1],
        );
        let offer = client.offer_extensions();
        let reply = KeyNegServerReply::ServerKey(skey.public().to_bytes());
        let (awaiting, msg3) = client.on_server_reply(&reply, &mut crng).unwrap();
        let (_, _, mut msg4) = server_process_client_keys(skey, &msg3, &offer, &mut srng).unwrap();
        msg4.chosen = SuiteId::Arc4Sha1.wire_id();
        let err = awaiting.on_server_halves(&msg4).unwrap_err();
        assert!(matches!(err, KeyNegError::Downgrade(_)), "{err:?}");
    }

    #[test]
    fn resume_derivations_agree_and_bind_everything() {
        let (keys, _) = run_negotiation();
        let secret = resume_secret(&keys);
        assert_ne!(&secret[..], &keys.kcs[..]);
        let cn = [1u8; RESUME_NONCE_LEN];
        let sn = [2u8; RESUME_NONCE_LEN];
        let a = resume_session(&secret, SuiteId::ChaCha20Poly1305, &cn, &sn);
        let b = resume_session(&secret, SuiteId::ChaCha20Poly1305, &cn, &sn);
        assert_eq!(a, b, "both sides derive the same resumed keys");
        assert_ne!(a.kcs, keys.kcs, "resumed keys are fresh");
        // Every input changes the result.
        assert_ne!(a, resume_session(&secret, SuiteId::Arc4Sha1, &cn, &sn));
        assert_ne!(
            a,
            resume_session(&secret, SuiteId::ChaCha20Poly1305, &sn, &cn)
        );
        let mut other = secret;
        other[0] ^= 1;
        assert_ne!(
            a,
            resume_session(&other, SuiteId::ChaCha20Poly1305, &cn, &sn)
        );
        assert_ne!(resume_confirm(&a), resume_confirm(&keys));
    }

    #[test]
    fn mitm_key_substitution_detected() {
        // An attacker presents its own key for the same Location.
        let skey = server_key();
        let path = SelfCertifyingPath::for_server("sfs.lcs.mit.edu", skey.public());
        let mut rng = XorShiftSource::new(1);
        let mut attacker_rng = XorShiftSource::new(666);
        let attacker = generate_keypair(768, &mut attacker_rng);
        let client = KeyNegClient::new(path, ephemeral_key());
        let reply = KeyNegServerReply::ServerKey(attacker.public().to_bytes());
        let err = client.on_server_reply(&reply, &mut rng).unwrap_err();
        assert_eq!(err, KeyNegError::HostIdMismatch);
    }

    #[test]
    fn tampered_halves_rejected() {
        let skey = server_key();
        let path = SelfCertifyingPath::for_server("sfs.lcs.mit.edu", skey.public());
        let mut crng = XorShiftSource::new(2);
        let mut srng = XorShiftSource::new(3);
        let client = KeyNegClient::new(path, ephemeral_key());
        let reply = KeyNegServerReply::ServerKey(skey.public().to_bytes());
        let (awaiting, msg3) = client.on_server_reply(&reply, &mut crng).unwrap();
        let (_, _, mut msg4) = server_process_client_keys(skey, &msg3, "", &mut srng).unwrap();
        msg4.encrypted_halves[5] ^= 1;
        assert!(matches!(
            awaiting.on_server_halves(&msg4).unwrap_err(),
            KeyNegError::Crypto(_)
        ));
    }

    #[test]
    fn tampered_client_message_rejected_by_server() {
        let skey = server_key();
        let path = SelfCertifyingPath::for_server("sfs.lcs.mit.edu", skey.public());
        let mut crng = XorShiftSource::new(4);
        let mut srng = XorShiftSource::new(5);
        let client = KeyNegClient::new(path, ephemeral_key());
        let reply = KeyNegServerReply::ServerKey(skey.public().to_bytes());
        let (_awaiting, mut msg3) = client.on_server_reply(&reply, &mut crng).unwrap();
        msg3.encrypted_halves[7] ^= 1;
        assert!(server_process_client_keys(skey, &msg3, "", &mut srng).is_err());
    }

    #[test]
    fn messages_roundtrip_xdr() {
        let skey = server_key();
        let path = SelfCertifyingPath::for_server("x.example.org", skey.public());
        let req = KeyNegRequest {
            location: path.location.clone(),
            host_id: path.host_id,
        };
        assert_eq!(KeyNegRequest::from_xdr(&req.to_xdr()).unwrap(), req);
        let reply = KeyNegServerReply::ServerKey(skey.public().to_bytes());
        assert_eq!(KeyNegServerReply::from_xdr(&reply.to_xdr()).unwrap(), reply);
        let msg = KeyNegClientKeys {
            client_key: vec![1, 2, 3],
            encrypted_halves: vec![4, 5],
        };
        assert_eq!(KeyNegClientKeys::from_xdr(&msg.to_xdr()).unwrap(), msg);
        let halves = KeyNegServerHalves {
            encrypted_halves: vec![6, 7, 8],
            chosen: SuiteId::ChaCha20Poly1305.wire_id(),
            confirm: [0xAB; DIGEST_LEN],
            ticket: vec![9; 40],
        };
        assert_eq!(
            KeyNegServerHalves::from_xdr(&halves.to_xdr()).unwrap(),
            halves
        );
    }

    #[test]
    fn forward_secrecy_structure() {
        // The shared secrets are the four key halves; k_C halves are
        // encrypted to K_S, k_S halves to the *ephemeral* K_C. With only
        // K_S^-1 (post-hoc compromise) an attacker recovers k_C1/k_C2 but
        // not k_S1/k_S2, hence neither session key. We verify the k_S
        // message is bound to the ephemeral key by decrypting it with the
        // wrong key and failing.
        let skey = server_key();
        let path = SelfCertifyingPath::for_server("sfs.lcs.mit.edu", skey.public());
        let mut crng = XorShiftSource::new(6);
        let mut srng = XorShiftSource::new(7);
        let client = KeyNegClient::new(path, ephemeral_key());
        let reply = KeyNegServerReply::ServerKey(skey.public().to_bytes());
        let (_awaiting, msg3) = client.on_server_reply(&reply, &mut crng).unwrap();
        let (_, _, msg4) = server_process_client_keys(skey, &msg3, "", &mut srng).unwrap();
        // The server's long-lived key cannot decrypt message 4.
        assert!(skey.decrypt(&msg4.encrypted_halves).is_err());
    }
}
