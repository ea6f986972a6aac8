//! Key revocation certificates and forwarding pointers (§2.6).
//!
//! ```text
//! RevocationCert = sign_{K⁻¹}("PathRevoke", Location, K, NULL)
//! ForwardingPtr  = sign_{K⁻¹}("PathRevoke", Location, K, new-path)
//! ```
//!
//! "Revocation certificates are self-authenticating" — anyone may relay
//! them, and "a revocation certificate always overrules a forwarding
//! pointer for the same HostID." Once a client sees a valid certificate it
//! blocks every user's access to the revoked HostID; agents can
//! additionally request per-user *HostID blocking* without a certificate
//! (handled in the agent, not here, since it is a local policy decision).

use sfs_crypto::rabin::{RabinPrivateKey, RabinPublicKey, RabinSignature};
use sfs_xdr::{Xdr, XdrDecoder, XdrEncoder, XdrError};

use crate::pathname::{HostId, SelfCertifyingPath};

/// The link target that revoked paths resolve to: "both revoked and
/// blocked self-certifying pathnames become symbolic links to the
/// non-existent file" of this name, so `ls -l` reveals the revocation.
///
/// RECONSTRUCTION: the literal file name is unprintable in the paper's
/// scanned text; any reserved non-existent name preserves the behaviour.
pub const REVOKED_LINK_TARGET: &str = ":REVOKED:";

fn signed_body(location: &str, key_bytes: &[u8], target: Option<&SelfCertifyingPath>) -> Vec<u8> {
    let mut enc = XdrEncoder::new();
    enc.put_string("PathRevoke");
    enc.put_string(location);
    enc.put_opaque(key_bytes);
    // NULL distinguishes revocations from "similarly formatted forwarding
    // pointers".
    match target {
        None => {
            enc.put_bool(false);
        }
        Some(path) => {
            enc.put_bool(true);
            path.encode(&mut enc);
        }
    }
    enc.into_bytes()
}

/// A self-authenticating revocation certificate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RevocationCert {
    /// Location of the revoked pathname.
    pub location: String,
    /// The revoked public key.
    pub public_key: Vec<u8>,
    /// Signature by that key over the PathRevoke body.
    pub(crate) signature: Vec<u8>,
}

impl RevocationCert {
    /// Issues a revocation for `location` under `key` (requires the
    /// private key — "key revocation happens only by permission of a file
    /// server's owner").
    pub fn issue(key: &RabinPrivateKey, location: &str) -> Self {
        let key_bytes = key.public().to_bytes();
        let body = signed_body(location, &key_bytes, None);
        let sig = key.sign(&body);
        RevocationCert {
            location: location.to_string(),
            public_key: key_bytes,
            signature: sig.to_bytes(key.public().len()),
        }
    }

    /// The HostID this certificate revokes.
    pub fn host_id(&self) -> Option<HostId> {
        let key = RabinPublicKey::from_bytes(&self.public_key).ok()?;
        Some(HostId::compute(&self.location, &key))
    }

    /// Verifies the self-authenticating signature.
    pub fn verify(&self) -> bool {
        let Ok(key) = RabinPublicKey::from_bytes(&self.public_key) else {
            return false;
        };
        let Ok(sig) = RabinSignature::from_bytes(&self.signature) else {
            return false;
        };
        let body = signed_body(&self.location, &self.public_key, None);
        key.verify(&body, &sig)
    }

    /// Whether this certificate (validly) revokes `path`.
    pub fn revokes(&self, path: &SelfCertifyingPath) -> bool {
        self.verify() && self.location == path.location && self.host_id() == Some(path.host_id)
    }
}

impl Xdr for RevocationCert {
    fn encode(&self, enc: &mut XdrEncoder) {
        enc.put_string(&self.location);
        enc.put_opaque(&self.public_key);
        enc.put_opaque(&self.signature);
    }
    fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, XdrError> {
        Ok(RevocationCert {
            location: dec.get_string()?,
            public_key: dec.get_opaque()?,
            signature: dec.get_opaque()?,
        })
    }
}

/// A forwarding pointer: "one can replace the root directory of the old
/// file system with a single symbolic link or forwarding pointer to the
/// new self-certifying pathname" (§2.4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForwardingPointer {
    /// Location of the old pathname.
    pub(crate) location: String,
    /// The old public key.
    pub(crate) public_key: Vec<u8>,
    /// Where the file system now lives.
    pub new_path: SelfCertifyingPath,
    /// Signature by the old key.
    pub(crate) signature: Vec<u8>,
}

impl ForwardingPointer {
    /// Issues a forwarding pointer from `location` (under `old_key`) to
    /// `new_path`.
    pub fn issue(old_key: &RabinPrivateKey, location: &str, new_path: SelfCertifyingPath) -> Self {
        let key_bytes = old_key.public().to_bytes();
        let body = signed_body(location, &key_bytes, Some(&new_path));
        let sig = old_key.sign(&body);
        ForwardingPointer {
            location: location.to_string(),
            public_key: key_bytes,
            new_path,
            signature: sig.to_bytes(old_key.public().len()),
        }
    }

    /// The HostID being forwarded.
    pub(crate) fn host_id(&self) -> Option<HostId> {
        let key = RabinPublicKey::from_bytes(&self.public_key).ok()?;
        Some(HostId::compute(&self.location, &key))
    }

    /// Verifies the signature.
    pub(crate) fn verify(&self) -> bool {
        let Ok(key) = RabinPublicKey::from_bytes(&self.public_key) else {
            return false;
        };
        let Ok(sig) = RabinSignature::from_bytes(&self.signature) else {
            return false;
        };
        let body = signed_body(&self.location, &self.public_key, Some(&self.new_path));
        key.verify(&body, &sig)
    }

    /// Whether this pointer (validly) forwards `path`.
    pub fn forwards(&self, path: &SelfCertifyingPath) -> bool {
        self.verify() && self.location == path.location && self.host_id() == Some(path.host_id)
    }
}

impl Xdr for ForwardingPointer {
    fn encode(&self, enc: &mut XdrEncoder) {
        enc.put_string(&self.location);
        enc.put_opaque(&self.public_key);
        self.new_path.encode(enc);
        enc.put_opaque(&self.signature);
    }
    fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, XdrError> {
        Ok(ForwardingPointer {
            location: dec.get_string()?,
            public_key: dec.get_opaque()?,
            new_path: SelfCertifyingPath::decode(dec)?,
            signature: dec.get_opaque()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfs_bignum::XorShiftSource;
    use sfs_crypto::rabin::generate_keypair;
    use std::sync::OnceLock;

    fn old_key() -> &'static RabinPrivateKey {
        static KEY: OnceLock<RabinPrivateKey> = OnceLock::new();
        KEY.get_or_init(|| {
            let mut rng = XorShiftSource::new(0x01D);
            generate_keypair(512, &mut rng)
        })
    }

    fn new_key() -> &'static RabinPrivateKey {
        static KEY: OnceLock<RabinPrivateKey> = OnceLock::new();
        KEY.get_or_init(|| {
            let mut rng = XorShiftSource::new(0x4E4);
            generate_keypair(512, &mut rng)
        })
    }

    #[test]
    fn revocation_verifies_and_targets_path() {
        let cert = RevocationCert::issue(old_key(), "sfs.lcs.mit.edu");
        assert!(cert.verify());
        let path = SelfCertifyingPath::for_server("sfs.lcs.mit.edu", old_key().public());
        assert!(cert.revokes(&path));
    }

    #[test]
    fn revocation_does_not_apply_to_other_paths() {
        let cert = RevocationCert::issue(old_key(), "sfs.lcs.mit.edu");
        // Same key, different location.
        let other = SelfCertifyingPath::for_server("other.example.com", old_key().public());
        assert!(!cert.revokes(&other));
        // Same location, different key.
        let other = SelfCertifyingPath::for_server("sfs.lcs.mit.edu", new_key().public());
        assert!(!cert.revokes(&other));
    }

    #[test]
    fn forged_revocation_rejected() {
        // An attacker without the private key cannot forge a certificate:
        // take a valid one and swap the claimed key.
        let mut cert = RevocationCert::issue(old_key(), "sfs.lcs.mit.edu");
        cert.public_key = new_key().public().to_bytes();
        assert!(!cert.verify());
        // Or tamper with the location.
        let mut cert = RevocationCert::issue(old_key(), "sfs.lcs.mit.edu");
        cert.location = "victim.example.com".into();
        assert!(!cert.verify());
    }

    #[test]
    fn forwarding_pointer_verifies() {
        let new_path = SelfCertifyingPath::for_server("new.lcs.mit.edu", new_key().public());
        let fwd = ForwardingPointer::issue(old_key(), "sfs.lcs.mit.edu", new_path.clone());
        assert!(fwd.verify());
        let old_path = SelfCertifyingPath::for_server("sfs.lcs.mit.edu", old_key().public());
        assert!(fwd.forwards(&old_path));
        assert_eq!(fwd.new_path, new_path);
    }

    #[test]
    fn forwarding_target_cannot_be_swapped() {
        let new_path = SelfCertifyingPath::for_server("new.lcs.mit.edu", new_key().public());
        let mut fwd = ForwardingPointer::issue(old_key(), "sfs.lcs.mit.edu", new_path);
        // Redirect to an attacker path: signature breaks.
        fwd.new_path = SelfCertifyingPath::for_server("evil.example.com", new_key().public());
        assert!(!fwd.verify());
    }

    #[test]
    fn revocation_and_forwarding_signatures_domain_separated() {
        // A forwarding pointer's signature must not validate as a
        // revocation (the NULL discriminant separates them).
        let new_path = SelfCertifyingPath::for_server("new.lcs.mit.edu", new_key().public());
        let fwd = ForwardingPointer::issue(old_key(), "sfs.lcs.mit.edu", new_path);
        let as_revocation = RevocationCert {
            location: fwd.location.clone(),
            public_key: fwd.public_key.clone(),
            signature: fwd.signature.clone(),
        };
        assert!(!as_revocation.verify());
    }

    #[test]
    fn xdr_roundtrips() {
        let cert = RevocationCert::issue(old_key(), "sfs.lcs.mit.edu");
        assert_eq!(RevocationCert::from_xdr(&cert.to_xdr()).unwrap(), cert);
        let new_path = SelfCertifyingPath::for_server("new.lcs.mit.edu", new_key().public());
        let fwd = ForwardingPointer::issue(old_key(), "sfs.lcs.mit.edu", new_path);
        assert_eq!(ForwardingPointer::from_xdr(&fwd.to_xdr()).unwrap(), fwd);
    }
}
