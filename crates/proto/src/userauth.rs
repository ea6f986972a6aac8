//! The SFS user-authentication protocol (Figure 4, §3.1.2).
//!
//! ```text
//! SessionID     = SHA-1("SessionInfo", k_SC, k_CS)
//! AuthInfo      = ("AuthInfo", "FS", Location, HostID, SessionID)
//! AuthID        = SHA-1(AuthInfo)
//! SignedAuthReq = ("SignedAuthReq", AuthID, SeqNo)
//! AuthMsg       = (K_U, sign_{K_U⁻¹}(SignedAuthReq))
//! ```
//!
//! The client sends AuthInfo + SeqNo to the agent; the agent signs and
//! returns an AuthMsg, which the client treats as opaque data and relays
//! through the file server to the authserver. "Sequence numbers are not
//! required for the security of user authentication … \[they\] prevent one
//! agent from using the signed authentication request of another agent on
//! the same client", and the AuthID binds the request to the secure
//! channel's session.

use std::borrow::Cow;

use sfs_crypto::rabin::{RabinPrivateKey, RabinPublicKey, RabinSignature};
use sfs_crypto::sha1::{sha1, DIGEST_LEN};
use sfs_xdr::{with_encoder, Xdr, XdrDecoder, XdrEncoder, XdrError};

use crate::pathname::HostId;

/// The authentication number reserved for anonymous access.
pub const AUTHNO_ANONYMOUS: u32 = 0;

/// The session/path description the client hands to the agent for signing.
///
/// The strings are borrowed where the caller has them (the server's own
/// location, the mount's path), so building one to compute an AuthID
/// copies nothing; a decoded one owns its strings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuthInfo<'a> {
    /// Service tag; always "FS" for file-system authentication.
    pub(crate) service: Cow<'a, str>,
    /// Location of the server being accessed.
    pub location: Cow<'a, str>,
    /// HostID of the server being accessed.
    pub host_id: HostId,
    /// SessionID of the secure channel the request will travel over.
    pub(crate) session_id: [u8; DIGEST_LEN],
}

impl<'a> AuthInfo<'a> {
    /// Builds an AuthInfo for the file-system service.
    pub fn for_fs(location: &'a str, host_id: HostId, session_id: [u8; DIGEST_LEN]) -> Self {
        AuthInfo {
            service: Cow::Borrowed("FS"),
            location: Cow::Borrowed(location),
            host_id,
            session_id,
        }
    }

    /// AuthID = SHA-1 of the marshaled AuthInfo.
    pub fn auth_id(&self) -> [u8; DIGEST_LEN] {
        with_encoder(|enc| {
            enc.put_string("AuthInfo");
            enc.put_string(&self.service);
            enc.put_string(&self.location);
            self.host_id.encode(enc);
            enc.put_opaque_fixed(&self.session_id);
            sha1(enc.bytes())
        })
    }
}

impl Xdr for AuthInfo<'static> {
    fn encode(&self, enc: &mut XdrEncoder) {
        enc.put_string(&self.service);
        enc.put_string(&self.location);
        self.host_id.encode(enc);
        enc.put_opaque_fixed(&self.session_id);
    }
    fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, XdrError> {
        Ok(AuthInfo {
            service: Cow::Owned(dec.get_string()?),
            location: Cow::Owned(dec.get_string()?),
            host_id: HostId::decode(dec)?,
            session_id: dec
                .get_opaque_fixed(DIGEST_LEN)?
                .try_into()
                .expect("length checked"),
        })
    }
}

/// The marshaled bytes an agent signs.
fn signed_auth_req_bytes(auth_id: &[u8; DIGEST_LEN], seq_no: u32) -> Vec<u8> {
    with_encoder(|enc| {
        enc.put_string("SignedAuthReq");
        enc.put_opaque_fixed(auth_id);
        enc.put_u32(seq_no);
        enc.bytes().to_vec()
    })
}

/// The opaque authentication message an agent produces.
///
/// "The client treats this authentication message as opaque data" — only
/// the authserver interprets it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuthMsg {
    /// The user's public key.
    pub user_key: Vec<u8>,
    /// Signature over the SignedAuthReq.
    pub signature: Vec<u8>,
}

impl AuthMsg {
    /// Agent side: sign an authentication request.
    ///
    /// The request records, per §2.5.1, enough for "a full audit trail of
    /// every private key operation" — callers log the AuthInfo alongside.
    pub fn sign(user_key: &RabinPrivateKey, auth_info: &AuthInfo, seq_no: u32) -> AuthMsg {
        let body = signed_auth_req_bytes(&auth_info.auth_id(), seq_no);
        let sig = user_key.sign(&body);
        AuthMsg {
            user_key: user_key.public().to_bytes(),
            signature: sig.to_bytes(user_key.public().len()),
        }
    }

    /// Authserver side: verify the signature and return the signer's
    /// public key.
    ///
    /// The caller must separately check that `auth_id` matches the session
    /// and that `seq_no` is fresh (see [`SeqWindow`]).
    pub fn verify(
        &self,
        auth_id: &[u8; DIGEST_LEN],
        seq_no: u32,
    ) -> Result<RabinPublicKey, AuthError> {
        let key = RabinPublicKey::from_bytes(&self.user_key).map_err(|_| AuthError::BadKey)?;
        self.verify_with(&key, auth_id, seq_no)?;
        Ok(key)
    }

    /// [`Self::verify`] under `key`, a parsed copy of the key this
    /// message presents (an authserver parses each registered key once).
    /// The caller vouches that `key` is what `user_key` encodes.
    pub fn verify_with(
        &self,
        key: &RabinPublicKey,
        auth_id: &[u8; DIGEST_LEN],
        seq_no: u32,
    ) -> Result<(), AuthError> {
        let sig =
            RabinSignature::from_bytes(&self.signature).map_err(|_| AuthError::BadSignature)?;
        if key.verify(&signed_auth_req_bytes(auth_id, seq_no), &sig) {
            Ok(())
        } else {
            Err(AuthError::BadSignature)
        }
    }
}

impl Xdr for AuthMsg {
    fn encode(&self, enc: &mut XdrEncoder) {
        enc.put_opaque(&self.user_key);
        enc.put_opaque(&self.signature);
    }
    fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, XdrError> {
        Ok(AuthMsg {
            user_key: dec.get_opaque()?,
            signature: dec.get_opaque()?,
        })
    }
}

/// User-authentication failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuthError {
    /// The public key failed to parse.
    BadKey,
    /// The signature failed to parse or verify.
    BadSignature,
    /// The sequence number was already used (or fell outside the window).
    ReplayedSeqNo,
    /// The AuthID does not match this session.
    WrongSession,
    /// The key is not registered with the authserver.
    UnknownUser,
}

impl std::fmt::Display for AuthError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AuthError::BadKey => write!(f, "malformed user public key"),
            AuthError::BadSignature => write!(f, "bad authentication signature"),
            AuthError::ReplayedSeqNo => write!(f, "replayed sequence number"),
            AuthError::WrongSession => write!(f, "AuthID does not match session"),
            AuthError::UnknownUser => write!(f, "public key not registered"),
        }
    }
}

impl std::error::Error for AuthError {}

/// Sequence-number freshness tracking.
///
/// "The server accepts out-of-order sequence numbers within a reasonable
/// window to accommodate the possibility of multiple agents on the client
/// returning out of order" (§3.1.2 footnote).
#[derive(Debug, Clone)]
pub struct SeqWindow {
    /// Highest sequence number accepted.
    high: u64,
    /// Bitmap of accepted numbers in `(high - WINDOW, high]`.
    seen: u64,
    window: u32,
}

impl SeqWindow {
    /// Creates a window accepting up to `window` out-of-order numbers
    /// (max 64).
    ///
    /// # Panics
    ///
    /// Panics if `window` is 0 or greater than 64.
    pub fn new(window: u32) -> Self {
        assert!((1..=64).contains(&window), "window must be 1-64");
        SeqWindow {
            high: 0,
            seen: 0,
            window,
        }
    }

    /// Attempts to accept `seq`; returns `false` for duplicates and
    /// numbers older than the window.
    pub fn accept(&mut self, seq: u32) -> bool {
        let seq = seq as u64 + 1; // Shift so 0 means "nothing seen".
        if seq > self.high {
            let shift = seq - self.high;
            self.seen = if shift >= 64 { 0 } else { self.seen << shift };
            self.seen |= 1;
            self.high = seq;
            return true;
        }
        let age = self.high - seq;
        if age >= self.window as u64 {
            return false;
        }
        let bit = 1u64 << age;
        if self.seen & bit != 0 {
            return false;
        }
        self.seen |= bit;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfs_bignum::XorShiftSource;
    use sfs_crypto::rabin::generate_keypair;
    use std::sync::OnceLock;

    fn user_key() -> &'static RabinPrivateKey {
        static KEY: OnceLock<RabinPrivateKey> = OnceLock::new();
        KEY.get_or_init(|| {
            let mut rng = XorShiftSource::new(0xA11CE);
            generate_keypair(512, &mut rng)
        })
    }

    fn auth_info() -> AuthInfo<'static> {
        AuthInfo::for_fs("sfs.lcs.mit.edu", HostId([3u8; 20]), [7u8; 20])
    }

    #[test]
    fn sign_verify_roundtrip() {
        let info = auth_info();
        let msg = AuthMsg::sign(user_key(), &info, 1);
        let key = msg.verify(&info.auth_id(), 1).unwrap();
        assert_eq!(&key, user_key().public());
    }

    #[test]
    fn wrong_seqno_rejected() {
        let info = auth_info();
        let msg = AuthMsg::sign(user_key(), &info, 1);
        assert_eq!(
            msg.verify(&info.auth_id(), 2).unwrap_err(),
            AuthError::BadSignature
        );
    }

    #[test]
    fn wrong_session_rejected() {
        // The same user+seqno signed for one session must not verify for
        // another (AuthID binds the SessionID).
        let info1 = auth_info();
        let info2 = AuthInfo::for_fs("sfs.lcs.mit.edu", HostId([3u8; 20]), [8u8; 20]);
        assert_ne!(info1.auth_id(), info2.auth_id());
        let msg = AuthMsg::sign(user_key(), &info1, 1);
        assert!(msg.verify(&info2.auth_id(), 1).is_err());
    }

    #[test]
    fn auth_id_binds_every_field() {
        let base = auth_info();
        let mut other = base.clone();
        other.location = "evil.example.com".into();
        assert_ne!(base.auth_id(), other.auth_id());
        let mut other = base.clone();
        other.host_id = HostId([4u8; 20]);
        assert_ne!(base.auth_id(), other.auth_id());
        let mut other = base.clone();
        other.service = "MAIL".into();
        assert_ne!(base.auth_id(), other.auth_id());
    }

    #[test]
    fn tampered_signature_rejected() {
        let info = auth_info();
        let mut msg = AuthMsg::sign(user_key(), &info, 5);
        let n = msg.signature.len();
        msg.signature[n / 2] ^= 1;
        assert!(msg.verify(&info.auth_id(), 5).is_err());
    }

    #[test]
    fn xdr_roundtrip() {
        let info = auth_info();
        assert_eq!(AuthInfo::from_xdr(&info.to_xdr()).unwrap(), info);
        let msg = AuthMsg::sign(user_key(), &info, 9);
        assert_eq!(AuthMsg::from_xdr(&msg.to_xdr()).unwrap(), msg);
    }

    #[test]
    fn seq_window_monotonic() {
        let mut w = SeqWindow::new(8);
        assert!(w.accept(0));
        assert!(w.accept(1));
        assert!(w.accept(2));
        assert!(!w.accept(1), "duplicate");
        assert!(!w.accept(0), "duplicate");
    }

    #[test]
    fn seq_window_out_of_order_within_window() {
        let mut w = SeqWindow::new(8);
        assert!(w.accept(10));
        assert!(w.accept(7), "within window");
        assert!(w.accept(9));
        assert!(!w.accept(7), "duplicate within window");
        assert!(!w.accept(2), "older than window");
    }

    #[test]
    fn seq_window_large_jump() {
        let mut w = SeqWindow::new(8);
        assert!(w.accept(5));
        assert!(w.accept(1000));
        assert!(!w.accept(5), "5 is far outside the window now");
        assert!(w.accept(999));
    }

    #[test]
    #[should_panic(expected = "window must be 1-64")]
    fn oversized_window_panics() {
        let _ = SeqWindow::new(65);
    }

    /// xorshift64* for the hand-rolled property tests below (the
    /// workspace deliberately has no external property-testing
    /// dependency).
    fn prop_rng(state: &mut u64) -> u64 {
        let mut x = *state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        *state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    #[test]
    fn seq_window_matches_reference_model() {
        // Property: for any arrival order, `accept` agrees with the
        // obvious reference model — accept iff the number is newer than
        // everything seen, or within the window and not yet seen.
        // Duplicates rejected, reorders within the window accepted,
        // stragglers beyond the window rejected — all fall out of the
        // model.
        for seed in 1..=20u64 {
            for window in [1u32, 2, 8, 32, 64] {
                let mut w = SeqWindow::new(window);
                let mut state = seed.wrapping_mul(0x9E37_79B9) | 1;
                // Shifted domain (seq + 1) so 0 means "nothing seen yet",
                // mirroring the implementation's encoding.
                let mut high = 0u64;
                let mut seen = std::collections::HashSet::new();
                for _ in 0..2000 {
                    let r = prop_rng(&mut state);
                    // Mostly cluster near the current high so duplicates,
                    // in-window reorders, and beyond-window stragglers
                    // all occur; occasionally jump far ahead.
                    let seq = if r.is_multiple_of(7) {
                        (prop_rng(&mut state) % 100_000) as u32
                    } else {
                        (high as i64 + (r % 129) as i64 - 64).max(0) as u32
                    };
                    let shifted = seq as u64 + 1;
                    let expect = if shifted > high {
                        true
                    } else if high - shifted >= window as u64 {
                        false
                    } else {
                        !seen.contains(&shifted)
                    };
                    assert_eq!(
                        w.accept(seq),
                        expect,
                        "seed {seed} window {window} seq {seq} high {high}"
                    );
                    if expect {
                        seen.insert(shifted);
                        high = high.max(shifted);
                    }
                }
            }
        }
    }

    #[test]
    fn seq_window_never_accepts_a_duplicate() {
        // Property: a sequence number accepted once is never accepted
        // again, whatever arrives in between — the §3.1.3 freshness
        // guarantee the server's replay gate depends on.
        for seed in 1..=10u64 {
            let mut w = SeqWindow::new(32);
            let mut state = seed.wrapping_mul(0x00C0_FFEE) | 1;
            let mut accepted = std::collections::HashSet::new();
            for _ in 0..3000 {
                let seq = (prop_rng(&mut state) % 500) as u32;
                if w.accept(seq) {
                    assert!(
                        accepted.insert(seq),
                        "seq {seq} accepted twice (seed {seed})"
                    );
                }
            }
        }
    }
}
