//! The public read-only dialect (§2.4, §3.2).
//!
//! "We implemented a dialect of the SFS protocol that allows servers to
//! prove the contents of public, read-only file systems using precomputed
//! digital signatures. This dialect makes the amount of cryptographic
//! computation required from read-only servers proportional to the file
//! system's size and rate of change, rather than to the number of clients
//! connecting. It also frees read-only servers from the need to keep any
//! on-line copies of their private keys, which in turn allows read-only
//! file systems to be replicated on untrusted machines."
//!
//! RECONSTRUCTION: the paper does not give the data format. We use a
//! content-hash tree — each node is addressed by the SHA-1 of its
//! serialization, directories reference children by digest, and the root
//! digest is signed once, offline. This matches the published follow-up
//! (SFSRO, OSDI 2000) in structure. A replica can serve blocks without any
//! key; clients verify each block against the digest that named it and the
//! root against the server's public key.

use std::collections::BTreeMap;

use sfs_crypto::rabin::{RabinPrivateKey, RabinPublicKey, RabinSignature};
use sfs_crypto::sha1::{sha1, DIGEST_LEN};
use sfs_vfs::{Credentials, FileType, Ino, Vfs};
use sfs_xdr::{Xdr, XdrDecoder, XdrEncoder, XdrError};

/// A content digest naming a node.
pub type Digest = [u8; DIGEST_LEN];

/// A node in the read-only file system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RoNode {
    /// A regular file's contents.
    File(Vec<u8>),
    /// A directory: name → (type, child digest), sorted by name.
    Dir(Vec<(String, RoEntryType, Digest)>),
    /// A symbolic link target.
    Symlink(String),
}

/// Entry types in a read-only directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoEntryType {
    /// Regular file.
    File,
    /// Directory.
    Dir,
    /// Symlink.
    Symlink,
}

impl Xdr for RoNode {
    fn encode(&self, enc: &mut XdrEncoder) {
        match self {
            RoNode::File(data) => {
                enc.put_u32(0);
                enc.put_opaque(data);
            }
            RoNode::Dir(entries) => {
                enc.put_u32(1);
                enc.put_u32(entries.len() as u32);
                for (name, ty, digest) in entries {
                    enc.put_string(name);
                    enc.put_u32(match ty {
                        RoEntryType::File => 0,
                        RoEntryType::Dir => 1,
                        RoEntryType::Symlink => 2,
                    });
                    enc.put_opaque_fixed(digest);
                }
            }
            RoNode::Symlink(target) => {
                enc.put_u32(2);
                enc.put_string(target);
            }
        }
    }

    fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, XdrError> {
        match dec.get_u32()? {
            0 => Ok(RoNode::File(dec.get_opaque()?)),
            1 => {
                let n = dec.get_u32()?;
                let mut entries = Vec::new();
                for _ in 0..n {
                    let name = dec.get_string()?;
                    let ty = match dec.get_u32()? {
                        0 => RoEntryType::File,
                        1 => RoEntryType::Dir,
                        2 => RoEntryType::Symlink,
                        other => return Err(XdrError::BadDiscriminant(other)),
                    };
                    let digest: Digest = dec
                        .get_opaque_fixed(DIGEST_LEN)?
                        .try_into()
                        .expect("length checked");
                    entries.push((name, ty, digest));
                }
                Ok(RoNode::Dir(entries))
            }
            2 => Ok(RoNode::Symlink(dec.get_string()?)),
            other => Err(XdrError::BadDiscriminant(other)),
        }
    }
}

/// The offline-signed root of a read-only file system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignedRoot {
    /// Digest of the root directory node.
    pub root_digest: Digest,
    /// Version counter (monotonically increasing; prevents rollback to an
    /// older snapshot by a malicious replica when clients remember the
    /// highest version seen).
    pub version: u64,
    /// Signature by the file system's private key.
    pub signature: Vec<u8>,
}

fn root_body(root_digest: &Digest, version: u64) -> Vec<u8> {
    let mut enc = XdrEncoder::new();
    enc.put_string("RoSignedRoot");
    enc.put_opaque_fixed(root_digest);
    enc.put_u64(version);
    enc.into_bytes()
}

impl SignedRoot {
    /// Signs a root digest. This is the only private-key operation in the
    /// dialect, performed offline by the publisher.
    pub(crate) fn sign(key: &RabinPrivateKey, root_digest: Digest, version: u64) -> Self {
        let sig = key.sign(&root_body(&root_digest, version));
        SignedRoot {
            root_digest,
            version,
            signature: sig.to_bytes(key.public().len()),
        }
    }

    /// Verifies against the publisher's public key (which the client
    /// already certified via the HostID).
    pub fn verify(&self, key: &RabinPublicKey) -> bool {
        let Ok(sig) = RabinSignature::from_bytes(&self.signature) else {
            return false;
        };
        key.verify(&root_body(&self.root_digest, self.version), &sig)
    }
}

impl Xdr for SignedRoot {
    fn encode(&self, enc: &mut XdrEncoder) {
        enc.put_opaque_fixed(&self.root_digest);
        enc.put_u64(self.version);
        enc.put_opaque(&self.signature);
    }
    fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, XdrError> {
        Ok(SignedRoot {
            root_digest: dec
                .get_opaque_fixed(DIGEST_LEN)?
                .try_into()
                .expect("length checked"),
            version: dec.get_u64()?,
            signature: dec.get_opaque()?,
        })
    }
}

/// Errors from read-only database operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RoError {
    /// No node with the requested digest.
    NotFound,
    /// The served block does not hash to the requested digest (a lying
    /// replica).
    DigestMismatch,
    /// The signed root failed verification.
    BadSignature,
    /// Structural decode failure.
    Xdr(XdrError),
}

impl std::fmt::Display for RoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RoError::NotFound => write!(f, "no such block"),
            RoError::DigestMismatch => write!(f, "block does not match digest"),
            RoError::BadSignature => write!(f, "signed root verification failed"),
            RoError::Xdr(e) => write!(f, "read-only decode failure: {e}"),
        }
    }
}

impl std::error::Error for RoError {}

/// A published read-only file system: the signed root plus a
/// content-addressed block store. Replicas hold exactly this data and no
/// keys.
#[derive(Debug, Clone)]
pub struct RoDatabase {
    /// The signed root.
    pub root: SignedRoot,
    /// Content-addressed blocks.
    blocks: BTreeMap<Digest, Vec<u8>>,
}

impl RoDatabase {
    /// Publishes a snapshot of `vfs` starting at its root directory,
    /// signing with `key` (done offline by the owner).
    pub fn publish(vfs: &Vfs, key: &RabinPrivateKey, version: u64) -> Self {
        let mut blocks = BTreeMap::new();
        let creds = Credentials::root();
        let root_digest = Self::publish_tree(vfs, &creds, vfs.root(), &mut blocks);
        let root = SignedRoot::sign(key, root_digest, version);
        RoDatabase { root, blocks }
    }

    fn publish_tree(
        vfs: &Vfs,
        creds: &Credentials,
        ino: Ino,
        blocks: &mut BTreeMap<Digest, Vec<u8>>,
    ) -> Digest {
        let attr = vfs.getattr(ino).expect("live inode");
        let node = match attr.ftype {
            FileType::Regular => RoNode::File(vfs.read_file(creds, ino).expect("readable")),
            FileType::Symlink => RoNode::Symlink(vfs.readlink(ino).expect("symlink")),
            FileType::Directory => {
                let (entries, _) = vfs.readdir(creds, ino, None, usize::MAX).expect("dir");
                let mut out = Vec::with_capacity(entries.len());
                for (name, child) in entries {
                    let cattr = vfs.getattr(child).expect("live child");
                    let ty = match cattr.ftype {
                        FileType::Regular => RoEntryType::File,
                        FileType::Directory => RoEntryType::Dir,
                        FileType::Symlink => RoEntryType::Symlink,
                    };
                    let digest = Self::publish_tree(vfs, creds, child, blocks);
                    out.push((name, ty, digest));
                }
                RoNode::Dir(out)
            }
        };
        let bytes = node.to_xdr();
        let digest = sha1(&bytes);
        blocks.insert(digest, bytes);
        digest
    }

    /// Serves a block by digest (what an untrusted replica does; no
    /// crypto involved — "the amount of cryptographic computation required
    /// from read-only servers \[is\] proportional to the file system's size
    /// and rate of change, rather than to the number of clients").
    pub fn fetch_raw(&self, digest: &Digest) -> Result<&[u8], RoError> {
        self.blocks
            .get(digest)
            .map(|v| v.as_slice())
            .ok_or(RoError::NotFound)
    }

    /// Number of stored blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Total stored bytes.
    pub fn total_bytes(&self) -> usize {
        self.blocks.values().map(|v| v.len()).sum()
    }

    /// Serializes the whole database — signed root plus every
    /// content-addressed block — into the distribution bundle an
    /// `sfsrodb`-style publisher ships to its replicas. The bundle
    /// contains no key material of any kind: possessing it lets a
    /// machine *serve* the file system, never alter it undetectably.
    pub fn export(&self) -> Vec<u8> {
        let mut enc = XdrEncoder::new();
        self.root.encode(&mut enc);
        enc.put_u32(self.blocks.len() as u32);
        for (digest, block) in &self.blocks {
            enc.put_opaque_fixed(digest);
            enc.put_opaque(block);
        }
        enc.into_bytes()
    }

    /// Rebuilds a database from a distribution bundle, re-hashing every
    /// block against the digest that names it — a replica refuses a
    /// corrupted bundle up front rather than serving blocks clients
    /// would reject one by one.
    pub fn import(bytes: &[u8]) -> Result<Self, RoError> {
        let mut dec = XdrDecoder::new(bytes);
        let root = SignedRoot::decode(&mut dec).map_err(RoError::Xdr)?;
        let n = dec.get_u32().map_err(RoError::Xdr)?;
        let mut blocks = BTreeMap::new();
        for _ in 0..n {
            let digest: Digest = dec
                .get_opaque_fixed(DIGEST_LEN)
                .map_err(RoError::Xdr)?
                .try_into()
                .expect("length checked");
            let block = dec.get_opaque().map_err(RoError::Xdr)?;
            if sha1(&block) != digest {
                return Err(RoError::DigestMismatch);
            }
            blocks.insert(digest, block);
        }
        Ok(RoDatabase { root, blocks })
    }

    /// Corrupts a block in place — test hook standing in for a malicious
    /// replica.
    pub fn tamper_with_block(&mut self, digest: &Digest) -> bool {
        if let Some(block) = self.blocks.get_mut(digest) {
            if let Some(b) = block.last_mut() {
                *b ^= 1;
                return true;
            }
        }
        false
    }
}

/// Client-side verified fetch: checks the block hashes to the digest that
/// named it before decoding.
pub fn verified_fetch(db: &RoDatabase, digest: &Digest) -> Result<RoNode, RoError> {
    let raw = db.fetch_raw(digest)?;
    if sha1(raw) != *digest {
        return Err(RoError::DigestMismatch);
    }
    RoNode::from_xdr(raw).map_err(RoError::Xdr)
}

/// Client-side verified root: checks the signature before trusting the
/// root digest.
pub fn verified_root(db: &RoDatabase, key: &RabinPublicKey) -> Result<Digest, RoError> {
    if !db.root.verify(key) {
        return Err(RoError::BadSignature);
    }
    Ok(db.root.root_digest)
}

/// Resolves a `/`-separated path through a verified read-only tree.
pub fn resolve_path(db: &RoDatabase, root: Digest, path: &str) -> Result<RoNode, RoError> {
    let mut node = verified_fetch(db, &root)?;
    for part in path.split('/').filter(|p| !p.is_empty()) {
        let RoNode::Dir(entries) = &node else {
            return Err(RoError::NotFound);
        };
        let (_, _, digest) = entries
            .iter()
            .find(|(name, _, _)| name == part)
            .ok_or(RoError::NotFound)?;
        node = verified_fetch(db, digest)?;
    }
    Ok(node)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfs_bignum::XorShiftSource;
    use sfs_crypto::rabin::generate_keypair;
    use sfs_sim::SimClock;
    use std::sync::OnceLock;

    fn key() -> &'static RabinPrivateKey {
        static KEY: OnceLock<RabinPrivateKey> = OnceLock::new();
        KEY.get_or_init(|| {
            let mut rng = XorShiftSource::new(0x20);
            generate_keypair(512, &mut rng)
        })
    }

    fn sample_fs() -> Vfs {
        let vfs = Vfs::new(3, SimClock::new());
        let creds = Credentials::root();
        let root = vfs.root();
        vfs.write_file(&creds, root, "README", b"certification authority")
            .unwrap();
        let sub = vfs.mkdir_p("/links").unwrap();
        vfs.symlink(&creds, sub, "mit", "/sfs/sfs.lcs.mit.edu:abc...")
            .unwrap();
        vfs.write_file(&creds, sub, "data.bin", &[0u8; 1000])
            .unwrap();
        vfs
    }

    #[test]
    fn publish_and_resolve() {
        let db = RoDatabase::publish(&sample_fs(), key(), 1);
        let root = verified_root(&db, key().public()).unwrap();
        match resolve_path(&db, root, "/README").unwrap() {
            RoNode::File(data) => assert_eq!(data, b"certification authority"),
            other => panic!("{other:?}"),
        }
        match resolve_path(&db, root, "/links/mit").unwrap() {
            RoNode::Symlink(t) => assert!(t.starts_with("/sfs/")),
            other => panic!("{other:?}"),
        }
        assert_eq!(
            resolve_path(&db, root, "/missing").unwrap_err(),
            RoError::NotFound
        );
    }

    #[test]
    fn signature_rejects_wrong_key() {
        let db = RoDatabase::publish(&sample_fs(), key(), 1);
        let mut rng = XorShiftSource::new(0x99);
        let other = generate_keypair(512, &mut rng);
        assert_eq!(
            verified_root(&db, other.public()).unwrap_err(),
            RoError::BadSignature
        );
    }

    #[test]
    fn tampered_block_detected() {
        let mut db = RoDatabase::publish(&sample_fs(), key(), 1);
        let root = verified_root(&db, key().public()).unwrap();
        // Find the README digest and corrupt its block.
        let RoNode::Dir(entries) = verified_fetch(&db, &root).unwrap() else {
            panic!("root must be a dir");
        };
        let (_, _, readme) = entries.iter().find(|(n, _, _)| n == "README").unwrap();
        assert!(db.tamper_with_block(readme));
        assert_eq!(
            verified_fetch(&db, readme).unwrap_err(),
            RoError::DigestMismatch
        );
    }

    #[test]
    fn rollback_attack_visible_via_version() {
        let fs = sample_fs();
        let db_v1 = RoDatabase::publish(&fs, key(), 1);
        // Publisher updates the file system.
        fs.write_file(&Credentials::root(), fs.root(), "README", b"updated")
            .unwrap();
        let db_v2 = RoDatabase::publish(&fs, key(), 2);
        // Both roots verify (old signatures stay valid) but versions order
        // them; a client remembering v2 rejects v1.
        assert!(db_v1.root.verify(key().public()));
        assert!(db_v2.root.verify(key().public()));
        assert!(db_v2.root.version > db_v1.root.version);
        assert_ne!(db_v1.root.root_digest, db_v2.root.root_digest);
    }

    #[test]
    fn identical_content_deduplicates() {
        let vfs = Vfs::new(3, SimClock::new());
        let creds = Credentials::root();
        vfs.write_file(&creds, vfs.root(), "a", b"same bytes")
            .unwrap();
        vfs.write_file(&creds, vfs.root(), "b", b"same bytes")
            .unwrap();
        let db = RoDatabase::publish(&vfs, key(), 1);
        // Two files, one content block (+ the root dir block).
        assert_eq!(db.block_count(), 2);
    }

    #[test]
    fn replica_serving_requires_no_key() {
        // A "replica" is just the database value: cloning it and serving
        // blocks involves no private key; the client still verifies.
        let db = RoDatabase::publish(&sample_fs(), key(), 1);
        let replica = db.clone();
        let root = verified_root(&replica, key().public()).unwrap();
        assert!(resolve_path(&replica, root, "/README").is_ok());
    }

    #[test]
    fn export_import_roundtrip_serves_identically() {
        let db = RoDatabase::publish(&sample_fs(), key(), 7);
        let bundle = db.export();
        let replica = RoDatabase::import(&bundle).unwrap();
        assert_eq!(replica.root, db.root);
        assert_eq!(replica.block_count(), db.block_count());
        let root = verified_root(&replica, key().public()).unwrap();
        match resolve_path(&replica, root, "/README").unwrap() {
            RoNode::File(data) => assert_eq!(data, b"certification authority"),
            other => panic!("{other:?}"),
        }
        // The bundle is deterministic: re-exporting the replica yields
        // byte-identical distribution media.
        assert_eq!(replica.export(), bundle);
    }

    #[test]
    fn import_rejects_corrupted_bundle() {
        let mut db = RoDatabase::publish(&sample_fs(), key(), 1);
        // A corrupted root-directory block no longer hashes to the digest
        // that names it in the bundle.
        let root_digest = db.root.root_digest;
        assert!(db.tamper_with_block(&root_digest));
        assert_eq!(
            RoDatabase::import(&db.export()).unwrap_err(),
            RoError::DigestMismatch
        );
        // Truncation is a structural failure.
        assert!(matches!(
            RoDatabase::import(&db.export()[..20]).unwrap_err(),
            RoError::Xdr(_)
        ));
    }

    #[test]
    fn node_xdr_roundtrip() {
        let nodes = vec![
            RoNode::File(b"x".to_vec()),
            RoNode::Symlink("/sfs/a:b".into()),
            RoNode::Dir(vec![
                ("a".into(), RoEntryType::File, [1u8; 20]),
                ("b".into(), RoEntryType::Dir, [2u8; 20]),
                ("c".into(), RoEntryType::Symlink, [3u8; 20]),
            ]),
        ];
        for n in nodes {
            assert_eq!(RoNode::from_xdr(&n.to_xdr()).unwrap(), n);
        }
    }
}
