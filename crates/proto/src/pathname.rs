//! Self-certifying pathnames (§2.2).
//!
//! "Every SFS file system is accessible under a pathname of the form
//! `/sfs/Location:HostID`. … HostID is a cryptographic hash of that key and
//! the server's Location":
//!
//! ```text
//! HostID = SHA-1("HostInfo", Location, PublicKey,
//!                "HostInfo", Location, PublicKey)
//! ```
//!
//! "SFS encodes the 20-byte HostID in base 32, using 32 digits and
//! lower-case letters. (To avoid confusion, the encoding omits the
//! characters 'l' [lower-case L], '1' \[one\], '0' and 'o'.)"

use sfs_crypto::rabin::RabinPublicKey;
use sfs_crypto::sha1::{Sha1, DIGEST_LEN};
use sfs_xdr::{with_encoder, Xdr, XdrDecoder, XdrEncoder, XdrError};

/// The mount directory for all remote SFS file systems.
pub(crate) const SFS_ROOT: &str = "/sfs";

/// The base-32 alphabet: digits and lowercase letters minus `l`, `1`, `0`,
/// `o`.
pub(crate) const BASE32_ALPHABET: &[u8; 32] = b"23456789abcdefghijkmnpqrstuvwxyz";

/// Length of an encoded HostID: 20 bytes = 160 bits = 32 base-32 digits.
pub(crate) const HOSTID_ENCODED_LEN: usize = 32;

/// A 20-byte HostID.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HostId(pub [u8; DIGEST_LEN]);

/// Errors parsing self-certifying pathnames.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PathError {
    /// The string is not under `/sfs/` or lacks the `Location:HostID`
    /// shape.
    BadFormat,
    /// The HostID portion contains characters outside the alphabet or has
    /// the wrong length.
    BadHostId,
    /// The Location is empty or contains illegal characters.
    BadLocation,
}

impl std::fmt::Display for PathError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PathError::BadFormat => write!(f, "not a self-certifying pathname"),
            PathError::BadHostId => write!(f, "malformed HostID"),
            PathError::BadLocation => write!(f, "malformed Location"),
        }
    }
}

impl std::error::Error for PathError {}

/// Encodes 20 bytes as 32 base-32 digits.
pub fn base32_encode(data: &[u8; DIGEST_LEN]) -> String {
    let mut out = String::with_capacity(HOSTID_ENCODED_LEN);
    // Process 160 bits, 5 at a time, MSB first.
    let mut acc: u32 = 0;
    let mut nbits = 0;
    for &b in data {
        acc = (acc << 8) | b as u32;
        nbits += 8;
        while nbits >= 5 {
            nbits -= 5;
            out.push(BASE32_ALPHABET[((acc >> nbits) & 31) as usize] as char);
        }
    }
    debug_assert_eq!(nbits, 0);
    out
}

/// Decodes a 32-digit base-32 string back to 20 bytes.
pub fn base32_decode(s: &str) -> Result<[u8; DIGEST_LEN], PathError> {
    if s.len() != HOSTID_ENCODED_LEN {
        return Err(PathError::BadHostId);
    }
    let mut out = [0u8; DIGEST_LEN];
    let mut acc: u32 = 0;
    let mut nbits = 0;
    let mut pos = 0;
    for ch in s.bytes() {
        let v = BASE32_ALPHABET
            .iter()
            .position(|&a| a == ch)
            .ok_or(PathError::BadHostId)? as u32;
        acc = (acc << 5) | v;
        nbits += 5;
        if nbits >= 8 {
            nbits -= 8;
            out[pos] = (acc >> nbits) as u8;
            pos += 1;
        }
    }
    Ok(out)
}

impl HostId {
    /// Computes a HostID from a location and public key, per §2.2 — note
    /// the deliberately *doubled* input: "Any collision of the duplicate
    /// input SHA-1 is also a collision of SHA-1," so the duplication cannot
    /// weaken, and might strengthen, the construction.
    pub fn compute(location: &str, public_key: &RabinPublicKey) -> Self {
        let key = public_key.to_bytes();
        // The hash is computed over marshaled XDR (§3.2: "Any data that SFS
        // hashes … is defined as an XDR data structure").
        with_encoder(|enc| {
            for _ in 0..2 {
                enc.put_string("HostInfo");
                enc.put_string(location);
                enc.put_opaque(&key);
            }
            let mut h = Sha1::new();
            h.update(enc.bytes());
            HostId(h.finalize())
        })
    }

    /// Renders in base 32.
    pub fn encoded(&self) -> String {
        base32_encode(&self.0)
    }

    /// Parses from base 32.
    pub(crate) fn parse(s: &str) -> Result<Self, PathError> {
        Ok(HostId(base32_decode(s)?))
    }
}

impl std::fmt::Debug for HostId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "HostId({})", self.encoded())
    }
}

impl std::fmt::Display for HostId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.encoded())
    }
}

impl Xdr for HostId {
    fn encode(&self, enc: &mut XdrEncoder) {
        self.0.encode(enc);
    }
    fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, XdrError> {
        Ok(HostId(<[u8; DIGEST_LEN]>::decode(dec)?))
    }
}

/// A parsed self-certifying pathname: `Location:HostID` plus an optional
/// path remainder on the remote server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelfCertifyingPath {
    /// DNS name or IP address telling the client where to find the server.
    pub location: String,
    /// Hash of the server's public key (and location).
    pub host_id: HostId,
}

impl SelfCertifyingPath {
    /// Builds the pathname for a server at `location` with `public_key`.
    pub fn for_server(location: &str, public_key: &RabinPublicKey) -> Self {
        SelfCertifyingPath {
            location: location.to_string(),
            host_id: HostId::compute(location, public_key),
        }
    }

    /// Verifies that a claimed public key actually matches this pathname —
    /// the self-certification step: "HostIDs let clients ask servers for
    /// their public keys and verify the authenticity of the reply."
    pub fn certifies(&self, public_key: &RabinPublicKey) -> bool {
        HostId::compute(&self.location, public_key) == self.host_id
    }

    /// The `Location:HostID` directory name under `/sfs`.
    pub fn dir_name(&self) -> String {
        format!("{}:{}", self.location, self.host_id.encoded())
    }

    /// The full absolute path (`/sfs/Location:HostID`).
    pub fn full_path(&self) -> String {
        format!("{}/{}", SFS_ROOT, self.dir_name())
    }

    /// Parses a `Location:HostID` component (no `/sfs/` prefix).
    pub(crate) fn parse_dir_name(name: &str) -> Result<Self, PathError> {
        Ok(Self::split_dir_name(name)?.to_path())
    }

    /// `Self::parse_dir_name` with the location borrowed from `name`:
    /// a [`PathKey`] that finds a table entry without an owned pathname.
    pub fn split_dir_name(name: &str) -> Result<(&str, HostId), PathError> {
        let colon = name.rfind(':').ok_or(PathError::BadFormat)?;
        let (location, host) = name.split_at(colon);
        let host = &host[1..];
        if location.is_empty()
            || !location
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'.' || b == b'-')
        {
            return Err(PathError::BadLocation);
        }
        Ok((location, HostId::parse(host)?))
    }

    /// Parses a full absolute path, returning the self-certifying prefix
    /// and the residual path on the remote server.
    pub fn parse_full(path: &str) -> Result<(Self, String), PathError> {
        let rest = path.strip_prefix("/sfs/").ok_or(PathError::BadFormat)?;
        let (dir, remainder) = match rest.find('/') {
            Some(i) => (&rest[..i], rest[i..].to_string()),
            None => (rest, String::new()),
        };
        Ok((Self::parse_dir_name(dir)?, remainder))
    }
}

/// The two parts of a self-certifying pathname, however they are held:
/// what tables of pathnames are keyed by, so a `Location` borrowed from a
/// path being resolved ([`SelfCertifyingPath::split_dir_name`]) looks up
/// its entry without an owned [`SelfCertifyingPath`] being built for it.
pub trait PathKey {
    /// The `Location` part.
    fn location(&self) -> &str;
    /// The `HostID` part.
    fn host_id(&self) -> HostId;
    /// The parts as an owned pathname.
    fn to_path(&self) -> SelfCertifyingPath {
        SelfCertifyingPath {
            location: self.location().to_string(),
            host_id: self.host_id(),
        }
    }
}

impl PathKey for SelfCertifyingPath {
    fn location(&self) -> &str {
        &self.location
    }
    fn host_id(&self) -> HostId {
        self.host_id
    }
}

impl PathKey for (&str, HostId) {
    fn location(&self) -> &str {
        self.0
    }
    fn host_id(&self) -> HostId {
        self.1
    }
}

impl<'a> std::borrow::Borrow<dyn PathKey + 'a> for SelfCertifyingPath {
    fn borrow(&self) -> &(dyn PathKey + 'a) {
        self
    }
}

impl std::hash::Hash for dyn PathKey + '_ {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.location().hash(state);
        self.host_id().hash(state);
    }
}

impl PartialEq for dyn PathKey + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.location() == other.location() && self.host_id() == other.host_id()
    }
}

impl Eq for dyn PathKey + '_ {}

/// Hashes as its [`PathKey`] does, so either finds the other's entry.
impl std::hash::Hash for SelfCertifyingPath {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        (self as &dyn PathKey).hash(state);
    }
}

impl std::fmt::Display for SelfCertifyingPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.full_path())
    }
}

impl Xdr for SelfCertifyingPath {
    fn encode(&self, enc: &mut XdrEncoder) {
        enc.put_string(&self.location);
        self.host_id.encode(enc);
    }
    fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, XdrError> {
        Ok(SelfCertifyingPath {
            location: dec.get_string()?,
            host_id: HostId::decode(dec)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfs_bignum::XorShiftSource;
    use sfs_crypto::rabin::generate_keypair;

    fn key() -> RabinPublicKey {
        let mut rng = XorShiftSource::new(0xCAFE);
        generate_keypair(512, &mut rng).public().clone()
    }

    #[test]
    fn alphabet_excludes_confusing_chars() {
        for c in [b'l', b'1', b'0', b'o'] {
            assert!(!BASE32_ALPHABET.contains(&c), "{}", c as char);
        }
        assert_eq!(BASE32_ALPHABET.len(), 32);
        // All distinct.
        let mut sorted = BASE32_ALPHABET.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 32);
    }

    #[test]
    fn base32_roundtrip() {
        let mut data = [0u8; 20];
        for (i, b) in data.iter_mut().enumerate() {
            *b = (i * 13 + 7) as u8;
        }
        let s = base32_encode(&data);
        assert_eq!(s.len(), 32);
        assert_eq!(base32_decode(&s).unwrap(), data);
    }

    #[test]
    fn base32_rejects_bad_input() {
        assert_eq!(base32_decode("short"), Err(PathError::BadHostId));
        let with_l = "l".repeat(32);
        assert_eq!(base32_decode(&with_l), Err(PathError::BadHostId));
        let upper = "A".repeat(32);
        assert_eq!(base32_decode(&upper), Err(PathError::BadHostId));
    }

    #[test]
    fn hostid_binds_location_and_key() {
        let k = key();
        let h1 = HostId::compute("sfs.lcs.mit.edu", &k);
        let h2 = HostId::compute("sfs.lcs.mit.edu", &k);
        assert_eq!(h1, h2);
        let h3 = HostId::compute("evil.example.com", &k);
        assert_ne!(h1, h3, "different location must change HostID");
        let mut rng = XorShiftSource::new(2);
        let other = generate_keypair(512, &mut rng).public().clone();
        let h4 = HostId::compute("sfs.lcs.mit.edu", &other);
        assert_ne!(h1, h4, "different key must change HostID");
    }

    #[test]
    fn certifies_accepts_only_matching_key() {
        let k = key();
        let path = SelfCertifyingPath::for_server("sfs.lcs.mit.edu", &k);
        assert!(path.certifies(&k));
        let mut rng = XorShiftSource::new(3);
        let other = generate_keypair(512, &mut rng).public().clone();
        assert!(!path.certifies(&other));
    }

    #[test]
    fn full_path_shape() {
        let k = key();
        let path = SelfCertifyingPath::for_server("sfs.lcs.mit.edu", &k);
        let full = path.full_path();
        assert!(full.starts_with("/sfs/sfs.lcs.mit.edu:"));
        assert_eq!(full.len(), "/sfs/sfs.lcs.mit.edu:".len() + 32);
    }

    #[test]
    fn parse_full_roundtrip() {
        let k = key();
        let path = SelfCertifyingPath::for_server("sfs.lcs.mit.edu", &k);
        let with_rest = format!("{}/home/user/file.txt", path.full_path());
        let (parsed, rest) = SelfCertifyingPath::parse_full(&with_rest).unwrap();
        assert_eq!(parsed, path);
        assert_eq!(rest, "/home/user/file.txt");
        let (parsed2, rest2) = SelfCertifyingPath::parse_full(&path.full_path()).unwrap();
        assert_eq!(parsed2, path);
        assert_eq!(rest2, "");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(SelfCertifyingPath::parse_full("/usr/bin/true").is_err());
        assert!(SelfCertifyingPath::parse_full("/sfs/no-colon-here").is_err());
        assert!(SelfCertifyingPath::parse_dir_name(":abcd").is_err());
        let bad_host = format!("host.example.com:{}", "x".repeat(31));
        assert!(SelfCertifyingPath::parse_dir_name(&bad_host).is_err());
        let bad_loc = format!("ho st:{}", "2".repeat(32));
        assert!(SelfCertifyingPath::parse_dir_name(&bad_loc).is_err());
    }

    #[test]
    fn xdr_roundtrip() {
        let k = key();
        let path = SelfCertifyingPath::for_server("sfs.lcs.mit.edu", &k);
        let back = SelfCertifyingPath::from_xdr(&path.to_xdr()).unwrap();
        assert_eq!(back, path);
    }

    #[test]
    fn ip_address_location_accepted() {
        let name = format!("18.26.4.9:{}", "2".repeat(32));
        let p = SelfCertifyingPath::parse_dir_name(&name).unwrap();
        assert_eq!(p.location, "18.26.4.9");
    }

    #[test]
    fn a_borrowed_path_key_finds_exactly_its_owned_entry() {
        use std::collections::HashMap;
        let path = SelfCertifyingPath::for_server("sfs.lcs.mit.edu", &key());
        let table = HashMap::from([(path.clone(), 1)]);
        let name = path.dir_name();
        let parts = SelfCertifyingPath::split_dir_name(&name).unwrap();
        assert_eq!(parts.to_path(), path);
        assert_eq!(table.get(&parts as &dyn PathKey), Some(&1));
        // The same HostID under another location is another pathname.
        let moved = ("sfs.example.org", path.host_id);
        assert_eq!(table.get(&moved as &dyn PathKey), None);
    }
}

#[cfg(test)]
mod doubling_tests {
    use super::*;
    use sfs_crypto::sha1::Sha1;

    /// §2.2 footnote: "SFS actually duplicates the input to SHA-1. Any
    /// collision of the duplicate input SHA-1 is also a collision of
    /// SHA-1." Verify the HostID really hashes the marshaled HostInfo
    /// twice.
    #[test]
    fn hostid_hashes_doubled_input() {
        let key = RabinPublicKey::from_modulus(sfs_bignum::Nat::from_hex("deadbeefcafe1").unwrap());
        let mut enc = XdrEncoder::new();
        enc.put_string("HostInfo");
        enc.put_string("host.example.org");
        enc.put_opaque(&key.to_bytes());
        let once = enc.bytes().to_vec();
        let mut h = Sha1::new();
        h.update(&once);
        h.update(&once);
        let expect = HostId(h.finalize());
        assert_eq!(HostId::compute("host.example.org", &key), expect);
        // And single-input hashing would give something different.
        let mut h1 = Sha1::new();
        h1.update(&once);
        assert_ne!(expect.0, h1.finalize());
    }
}
