//! The authentication server, `authserv` (§2.5).
//!
//! "authserv translates authentication requests into credentials. It does
//! so by consulting one or more databases mapping public keys to users. …
//! Each of authserv's public key databases is configured as either
//! read-only or writable. … authserv maintains two versions of every
//! writable database, a public one and a private one. The public database
//! contains public keys and credentials, but no information with which an
//! attacker could verify a guessed password."
//!
//! Passwords never reach the server: SRP verifiers are registered instead,
//! and both the SRP input and the private-key encryption key are hardened
//! with eksblowfish (§2.5.2) so that even a stolen *private* database makes
//! guessing cost "almost a full second of CPU time per account and
//! candidate password".

use std::collections::BTreeMap;

use sfs_bignum::{Nat, RandomSource};
use sfs_crypto::eksblowfish::{password_kdf, SALT_LEN};
use sfs_crypto::rabin::RabinPublicKey;
use sfs_crypto::sha1::DIGEST_LEN;
use sfs_crypto::srp::{self, SrpGroup, SrpServer};
use sfs_proto::pathname::SelfCertifyingPath;
use sfs_proto::userauth::{AuthError, AuthMsg};
use sfs_telemetry::sync::Mutex;
use sfs_vfs::Credentials;

/// A user entry in the *public* database: safe to export to the world
/// over SFS itself ("a central server can easily maintain the keys of all
/// users in a department and export its public database to
/// separately-administered file servers without trusting them").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UserRecord {
    /// Login name.
    pub user: String,
    /// Unix uid the key maps to.
    pub uid: u32,
    /// Group list.
    pub gids: Vec<u32>,
    /// The user's public key (serialized).
    pub public_key: Vec<u8>,
}

/// Per-user entry in the *private* database: SRP data and the encrypted
/// private key. Never exported.
#[derive(Clone)]
struct PrivateRecord {
    srp_salt: Vec<u8>,
    srp_verifier: Nat,
    ekb_salt: [u8; SALT_LEN],
    ekb_cost: u32,
    encrypted_private_key: Option<Vec<u8>>,
}

/// One public-key database (a writable master or an imported read-only
/// copy).
#[derive(Debug, Default, Clone)]
struct PublicDb {
    by_key: BTreeMap<Vec<u8>, Registered>,
}

/// A user record beside its public key, parsed once when the record is
/// stored rather than on every authentication; `None` when the stored
/// bytes are no Rabin key (nothing verifies under them).
#[derive(Debug, Clone)]
struct Registered {
    rec: UserRecord,
    key: Option<RabinPublicKey>,
}

impl Registered {
    fn credentials(&self) -> (String, Credentials) {
        (
            self.rec.user.clone(),
            Credentials {
                uid: self.rec.uid,
                gids: self.rec.gids.clone(),
            },
        )
    }
}

impl PublicDb {
    fn insert(&mut self, rec: UserRecord) {
        let key = RabinPublicKey::from_bytes(&rec.public_key).ok();
        self.by_key
            .insert(rec.public_key.clone(), Registered { rec, key });
    }

    fn lookup(&self, key: &[u8]) -> Option<&Registered> {
        self.by_key.get(key)
    }
}

struct Inner {
    /// The writable database.
    writable: PublicDb,
    /// Imported read-only databases, searched after the writable one
    /// ("a server can import a centrally-maintained list of users over SFS
    /// while also keeping a few guest accounts in a local database").
    imported: Vec<PublicDb>,
    /// The private half of the writable database, keyed by user name.
    private: BTreeMap<String, PrivateRecord>,
    /// Unix passwords for the bootstrap path ("authserv can optionally let
    /// users who actually log in to a file server register initial public
    /// keys by typing their Unix passwords").
    unix_passwords: BTreeMap<String, Vec<u8>>,
    /// Registration-by-Unix-password enabled?
    allow_unix_bootstrap: bool,
}

impl Inner {
    /// The record registered under exactly these key bytes, writable
    /// database first.
    fn lookup(&self, key: &[u8]) -> Option<&Registered> {
        self.writable
            .lookup(key)
            .or_else(|| self.imported.iter().find_map(|db| db.lookup(key)))
    }
}

/// The authserver.
pub struct AuthServer {
    inner: Mutex<Inner>,
    group: SrpGroup,
    /// eksblowfish cost parameter ("one can increase [it] as computers get
    /// faster"). Kept small in tests; real deployments used ~2^8.
    cost: u32,
    /// The file server's self-certifying pathname, returned over SRP so
    /// users can bootstrap from a password alone (§2.4).
    server_path: Mutex<Option<SelfCertifyingPath>>,
}

impl AuthServer {
    /// Creates an authserver with the given SRP group and eksblowfish
    /// cost.
    pub fn new(group: SrpGroup, cost: u32) -> Self {
        AuthServer {
            inner: Mutex::new(Inner {
                writable: PublicDb::default(),
                imported: Vec::new(),
                private: BTreeMap::new(),
                unix_passwords: BTreeMap::new(),
                allow_unix_bootstrap: false,
            }),
            group,
            cost,
            server_path: Mutex::new(None),
        }
    }

    /// Records the file server's self-certifying pathname for SRP
    /// bootstrap.
    pub(crate) fn set_server_path(&self, path: SelfCertifyingPath) {
        *self.server_path.lock() = Some(path);
    }

    /// The SRP group used by this server.
    pub(crate) fn group(&self) -> &SrpGroup {
        &self.group
    }

    /// The eksblowfish cost parameter.
    pub fn cost(&self) -> u32 {
        self.cost
    }

    /// Registers (or replaces) a user record in the writable database.
    pub fn register_user(&self, rec: UserRecord) {
        self.inner.lock().writable.insert(rec);
    }

    /// Imports a read-only copy of another realm's public database.
    /// authserv "can continue to function normally when it temporarily
    /// cannot reach the servers for those databases" because the copy is
    /// local.
    pub fn import_read_only(&self, records: Vec<UserRecord>) {
        let mut db = PublicDb::default();
        for r in records {
            db.insert(r);
        }
        self.inner.lock().imported.push(db);
    }

    /// Exports the public database (no password-equivalent data inside).
    pub fn export_public_db(&self) -> Vec<UserRecord> {
        self.inner
            .lock()
            .writable
            .by_key
            .values()
            .map(|reg| reg.rec.clone())
            .collect()
    }

    /// Looks up credentials for a public key across all databases,
    /// writable first.
    pub fn credentials_for_key(&self, key: &[u8]) -> Option<(String, Credentials)> {
        self.inner.lock().lookup(key).map(Registered::credentials)
    }

    /// Validates a signed authentication request (Figure 4, steps 4–5):
    /// verifies the signature over (AuthID, SeqNo) and maps the public key
    /// to credentials.
    ///
    /// The presented key bytes must be a registered key's exactly; the
    /// signature is then checked under the key parsed at registration.
    /// An unregistered key is still parsed and its signature checked, so
    /// a malformed key or a bad signature is reported as such before
    /// [`AuthError::UnknownUser`].
    pub(crate) fn validate(
        &self,
        msg: &AuthMsg,
        auth_id: &[u8; DIGEST_LEN],
        seq_no: u32,
    ) -> Result<(String, Credentials), AuthError> {
        if let Some(reg) = self.inner.lock().lookup(&msg.user_key) {
            let key = reg.key.as_ref().ok_or(AuthError::BadKey)?;
            msg.verify_with(key, auth_id, seq_no)?;
            return Ok(reg.credentials());
        }
        msg.verify(auth_id, seq_no)?;
        Err(AuthError::UnknownUser)
    }

    /// Hardens a password for SRP use: eksblowfish first (the expensive
    /// step both sides pay), yielding bytes that feed SRP's private
    /// exponent.
    pub(crate) fn harden_password(cost: u32, salt: &[u8; SALT_LEN], password: &[u8]) -> Vec<u8> {
        password_kdf(cost, salt, password, 32)
    }

    /// Registers SRP data for a user. Called by `sfskey` at setup time
    /// with data computed client-side; the password itself never appears
    /// here.
    pub(crate) fn srp_register(
        &self,
        user: &str,
        srp_salt: Vec<u8>,
        srp_verifier: Nat,
        ekb_salt: [u8; SALT_LEN],
    ) {
        self.inner.lock().private.insert(
            user.to_string(),
            PrivateRecord {
                srp_salt,
                srp_verifier,
                ekb_salt,
                ekb_cost: self.cost,
                encrypted_private_key: None,
            },
        );
    }

    /// The eksblowfish salt/cost a client needs before it can harden its
    /// password for `user` (public by necessity, like any salt).
    pub(crate) fn password_params(&self, user: &str) -> Option<([u8; SALT_LEN], u32)> {
        let inner = self.inner.lock();
        let rec = inner.private.get(user)?;
        Some((rec.ekb_salt, rec.ekb_cost))
    }

    /// Stores an eksblowfish-encrypted copy of the user's private key
    /// ("a user can additionally register an encrypted copy of his private
    /// key and retrieve that copy along with the server's self-certifying
    /// pathname").
    pub(crate) fn register_encrypted_private_key(&self, user: &str, blob: Vec<u8>) -> bool {
        let mut inner = self.inner.lock();
        match inner.private.get_mut(user) {
            Some(rec) => {
                rec.encrypted_private_key = Some(blob);
                true
            }
            None => false,
        }
    }

    /// Starts the server side of an SRP handshake for `user`; returns the
    /// SRP state, the salt, and `B`.
    pub(crate) fn srp_start<R: RandomSource>(
        &self,
        user: &str,
        rng: &mut R,
    ) -> Option<(SrpServer, Vec<u8>, Nat)> {
        let (salt, verifier) = {
            let inner = self.inner.lock();
            let rec = inner.private.get(user)?;
            (rec.srp_salt.clone(), rec.srp_verifier.clone())
        };
        let (server, b_pub) = SrpServer::start(&self.group, user, &salt, &verifier, rng);
        Some((server, salt, b_pub))
    }

    /// The payload returned to a successfully SRP-authenticated client:
    /// the server's self-certifying pathname and the user's encrypted
    /// private key, if registered.
    pub(crate) fn srp_payload(&self, user: &str) -> (Option<SelfCertifyingPath>, Option<Vec<u8>>) {
        let path = self.server_path.lock().clone();
        let blob = self
            .inner
            .lock()
            .private
            .get(user)
            .and_then(|r| r.encrypted_private_key.clone());
        (path, blob)
    }

    /// Changes a user's registered public key (§2.5.2: authserv "allows
    /// them to connect over the network with sfskey and change their
    /// public keys"). The request must be signed by the *old* key — the
    /// same trust the key it replaces carried.
    pub fn change_public_key(
        &self,
        user: &str,
        new_key: &[u8],
        signature: &[u8],
    ) -> Result<(), AuthError> {
        let (old_key_bytes, uid, gids) = {
            let inner = self.inner.lock();
            let rec = inner
                .writable
                .by_key
                .values()
                .map(|reg| &reg.rec)
                .find(|r| r.user == user)
                .ok_or(AuthError::UnknownUser)?;
            (rec.public_key.clone(), rec.uid, rec.gids.clone())
        };
        let old_key = RabinPublicKey::from_bytes(&old_key_bytes).map_err(|_| AuthError::BadKey)?;
        let sig = sfs_crypto::rabin::RabinSignature::from_bytes(signature)
            .map_err(|_| AuthError::BadSignature)?;
        if !old_key.verify(&key_update_body(user, new_key), &sig) {
            return Err(AuthError::BadSignature);
        }
        let mut inner = self.inner.lock();
        inner.writable.by_key.remove(&old_key_bytes);
        inner.writable.insert(UserRecord {
            user: user.to_string(),
            uid,
            gids,
            public_key: new_key.to_vec(),
        });
        Ok(())
    }

    /// Enables Unix-password bootstrap and sets a user's Unix password
    /// (standing in for the system password file).
    pub fn set_unix_password(&self, user: &str, password: &[u8]) {
        let mut inner = self.inner.lock();
        inner.allow_unix_bootstrap = true;
        inner
            .unix_passwords
            .insert(user.to_string(), password.to_vec());
    }

    /// Bootstrap: register an initial public key by proving knowledge of
    /// the Unix password. Returns `false` when disabled or the password is
    /// wrong.
    pub fn register_key_via_unix_password(
        &self,
        user: &str,
        password: &[u8],
        uid: u32,
        gids: Vec<u32>,
        public_key: Vec<u8>,
    ) -> bool {
        let mut inner = self.inner.lock();
        if !inner.allow_unix_bootstrap {
            return false;
        }
        match inner.unix_passwords.get(user) {
            Some(stored) if stored.as_slice() == password => {
                inner.writable.insert(UserRecord {
                    user: user.to_string(),
                    uid,
                    gids,
                    public_key,
                });
                true
            }
            _ => false,
        }
    }
}

impl std::fmt::Debug for AuthServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("AuthServer")
            .field("users", &inner.writable.by_key.len())
            .field("imported_dbs", &inner.imported.len())
            .field("cost", &self.cost)
            .finish()
    }
}

/// The bytes signed by the old key to authorize a key change.
pub(crate) fn key_update_body(user: &str, new_key: &[u8]) -> Vec<u8> {
    use sfs_xdr::XdrEncoder;
    let mut enc = XdrEncoder::new();
    enc.put_string("KeyUpdate");
    enc.put_string(user);
    enc.put_opaque(new_key);
    enc.into_bytes()
}

/// Client side of a key change: sign the update with the old key.
pub fn sign_key_update(
    old_key: &sfs_crypto::rabin::RabinPrivateKey,
    user: &str,
    new_key: &[u8],
) -> Vec<u8> {
    old_key
        .sign(&key_update_body(user, new_key))
        .to_bytes(old_key.public().len())
}

/// Client-side helper mirroring the registration computation `sfskey`
/// performs: harden the password, derive SRP salt/verifier, and return
/// everything the server stores.
pub(crate) fn client_srp_registration<R: RandomSource>(
    group: &SrpGroup,
    cost: u32,
    user: &str,
    password: &[u8],
    rng: &mut R,
) -> (Vec<u8>, Nat, [u8; SALT_LEN]) {
    let mut ekb_salt = [0u8; SALT_LEN];
    rng.fill(&mut ekb_salt);
    let hardened = AuthServer::harden_password(cost, &ekb_salt, password);
    let mut srp_salt = vec![0u8; 16];
    rng.fill(&mut srp_salt);
    let verifier = srp::compute_verifier(group, user, &hardened, &srp_salt);
    (srp_salt, verifier, ekb_salt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfs_bignum::XorShiftSource;
    use sfs_crypto::rabin::{generate_keypair, RabinPrivateKey};
    use sfs_crypto::srp::SrpClient;
    use sfs_proto::pathname::HostId;
    use sfs_proto::userauth::AuthInfo;
    use std::sync::OnceLock;

    fn group() -> SrpGroup {
        static G: OnceLock<SrpGroup> = OnceLock::new();
        G.get_or_init(|| {
            let mut rng = XorShiftSource::new(0x6409);
            SrpGroup::generate(128, &mut rng)
        })
        .clone()
    }

    fn user_key() -> &'static RabinPrivateKey {
        static KEY: OnceLock<RabinPrivateKey> = OnceLock::new();
        KEY.get_or_init(|| {
            let mut rng = XorShiftSource::new(0xD0E);
            generate_keypair(512, &mut rng)
        })
    }

    fn server_with_alice() -> AuthServer {
        let s = AuthServer::new(group(), 2);
        s.register_user(UserRecord {
            user: "alice".into(),
            uid: 1000,
            gids: vec![100, 200],
            public_key: user_key().public().to_bytes(),
        });
        s
    }

    #[test]
    fn validates_signed_request() {
        let s = server_with_alice();
        let info = AuthInfo::for_fs("host", HostId([1u8; 20]), [2u8; 20]);
        let msg = AuthMsg::sign(user_key(), &info, 1);
        let (user, creds) = s.validate(&msg, &info.auth_id(), 1).unwrap();
        assert_eq!(user, "alice");
        assert_eq!(creds.uid, 1000);
        assert_eq!(creds.gids, vec![100, 200]);
    }

    #[test]
    fn unknown_key_rejected() {
        let s = AuthServer::new(group(), 2);
        let info = AuthInfo::for_fs("host", HostId([1u8; 20]), [2u8; 20]);
        let msg = AuthMsg::sign(user_key(), &info, 1);
        assert_eq!(
            s.validate(&msg, &info.auth_id(), 1).unwrap_err(),
            AuthError::UnknownUser
        );
    }

    #[test]
    fn presented_key_bytes_must_be_the_registered_ones() {
        // Verification runs under the key parsed at registration, so the
        // bytes a message presents must be exactly a registered key's:
        // alice's signature presented with another registered user's key
        // is verified under that key and fails; with her key's bytes
        // altered it matches no record at all.
        let s = server_with_alice();
        let mut rng = XorShiftSource::new(0xB0B);
        let bob = generate_keypair(512, &mut rng);
        s.register_user(UserRecord {
            user: "bob".into(),
            uid: 1001,
            gids: vec![],
            public_key: bob.public().to_bytes(),
        });
        let info = AuthInfo::for_fs("host", HostId([1u8; 20]), [2u8; 20]);
        let auth_id = info.auth_id();
        let msg = AuthMsg::sign(user_key(), &info, 1);
        assert_eq!(s.validate(&msg, &auth_id, 1).unwrap().0, "alice");

        let mut as_bob = msg.clone();
        as_bob.user_key = bob.public().to_bytes();
        assert_eq!(
            s.validate(&as_bob, &auth_id, 1).unwrap_err(),
            AuthError::BadSignature
        );
        let mut padded = msg.clone();
        padded.user_key.insert(0, 0);
        assert_eq!(
            s.validate(&padded, &auth_id, 1).unwrap_err(),
            AuthError::BadKey
        );
        let mut flipped = msg.clone();
        let last = flipped.user_key.len() - 1;
        flipped.user_key[last] ^= 0x02;
        assert!(s.validate(&flipped, &auth_id, 1).is_err());
        // A registered record whose key bytes are no key verifies
        // nothing.
        s.register_user(UserRecord {
            user: "mallory".into(),
            uid: 1002,
            gids: vec![],
            public_key: vec![0x02; 64],
        });
        let mut malformed = msg.clone();
        malformed.user_key = vec![0x02; 64];
        assert_eq!(
            s.validate(&malformed, &auth_id, 1).unwrap_err(),
            AuthError::BadKey
        );
    }

    #[test]
    fn imported_db_consulted_after_writable() {
        let s = AuthServer::new(group(), 2);
        s.import_read_only(vec![UserRecord {
            user: "remote-bob".into(),
            uid: 2000,
            gids: vec![2000],
            public_key: user_key().public().to_bytes(),
        }]);
        let (user, creds) = s
            .credentials_for_key(&user_key().public().to_bytes())
            .unwrap();
        assert_eq!(user, "remote-bob");
        assert_eq!(creds.uid, 2000);
        // A writable entry shadows the import.
        s.register_user(UserRecord {
            user: "local-bob".into(),
            uid: 3000,
            gids: vec![3000],
            public_key: user_key().public().to_bytes(),
        });
        let (user, _) = s
            .credentials_for_key(&user_key().public().to_bytes())
            .unwrap();
        assert_eq!(user, "local-bob");
    }

    #[test]
    fn public_export_contains_no_secrets() {
        let s = server_with_alice();
        let mut rng = XorShiftSource::new(5);
        let (salt, verifier, ekb_salt) =
            client_srp_registration(&group(), 2, "alice", b"hunter2", &mut rng);
        s.srp_register("alice", salt, verifier, ekb_salt);
        s.register_encrypted_private_key("alice", vec![1, 2, 3]);
        // The export is UserRecords only: no verifier, salt, or key blob
        // types exist in the exported structure at all.
        let export = s.export_public_db();
        assert_eq!(export.len(), 1);
        assert_eq!(export[0].user, "alice");
    }

    #[test]
    fn srp_end_to_end_with_hardened_password() {
        let s = server_with_alice();
        s.set_server_path(SelfCertifyingPath {
            location: "host.example.com".into(),
            host_id: HostId([9u8; 20]),
        });
        let mut rng = XorShiftSource::new(6);
        let (salt, verifier, ekb_salt) =
            client_srp_registration(&group(), 2, "alice", b"hunter2", &mut rng);
        s.srp_register("alice", salt, verifier, ekb_salt);

        // Client side: fetch salt/cost, harden, run SRP.
        let (ekb_salt, cost) = s.password_params("alice").unwrap();
        let hardened = AuthServer::harden_password(cost, &ekb_salt, b"hunter2");
        let (client, a_pub) = SrpClient::start(&group(), "alice", &hardened, &mut rng);
        let (server, salt, b_pub) = s.srp_start("alice", &mut rng).unwrap();
        let cs = client.process(&salt, &b_pub).unwrap();
        let ss = server.process(&a_pub, &cs.m1).unwrap();
        cs.verify_server(&ss.m2).unwrap();
        assert_eq!(cs.key, ss.key);
        let (path, _) = s.srp_payload("alice");
        assert!(path.is_some());
    }

    #[test]
    fn srp_wrong_password_fails() {
        let s = server_with_alice();
        let mut rng = XorShiftSource::new(7);
        let (salt, verifier, ekb_salt) =
            client_srp_registration(&group(), 2, "alice", b"hunter2", &mut rng);
        s.srp_register("alice", salt, verifier, ekb_salt);
        let (ekb_salt, cost) = s.password_params("alice").unwrap();
        let hardened = AuthServer::harden_password(cost, &ekb_salt, b"wrong-guess");
        let (client, a_pub) = SrpClient::start(&group(), "alice", &hardened, &mut rng);
        let (server, salt, b_pub) = s.srp_start("alice", &mut rng).unwrap();
        let cs = client.process(&salt, &b_pub).unwrap();
        assert!(server.process(&a_pub, &cs.m1).is_err());
    }

    #[test]
    fn srp_unknown_user_yields_none() {
        let s = server_with_alice();
        let mut rng = XorShiftSource::new(8);
        assert!(s.srp_start("mallory", &mut rng).is_none());
    }

    #[test]
    fn unix_bootstrap_registration() {
        let s = AuthServer::new(group(), 2);
        // Disabled by default.
        assert!(!s.register_key_via_unix_password("alice", b"pw", 1000, vec![100], vec![1]));
        s.set_unix_password("alice", b"pw");
        assert!(!s.register_key_via_unix_password("alice", b"wrong", 1000, vec![100], vec![1]));
        assert!(s.register_key_via_unix_password(
            "alice",
            b"pw",
            1000,
            vec![100],
            user_key().public().to_bytes()
        ));
        assert!(s
            .credentials_for_key(&user_key().public().to_bytes())
            .is_some());
    }

    #[test]
    fn key_change_requires_old_key_signature() {
        let s = server_with_alice();
        let mut rng = XorShiftSource::new(0x11E);
        let new_key = generate_keypair(512, &mut rng);
        let new_bytes = new_key.public().to_bytes();
        // Signed by the old key: accepted, and lookups move over.
        let sig = sign_key_update(user_key(), "alice", &new_bytes);
        s.change_public_key("alice", &new_bytes, &sig).unwrap();
        assert!(s.credentials_for_key(&new_bytes).is_some());
        assert!(
            s.credentials_for_key(&user_key().public().to_bytes())
                .is_none(),
            "old key no longer maps"
        );
        // An attacker's key cannot authorize a change.
        let attacker = generate_keypair(512, &mut rng);
        let bad_sig = sign_key_update(&attacker, "alice", &attacker.public().to_bytes());
        assert_eq!(
            s.change_public_key("alice", &attacker.public().to_bytes(), &bad_sig)
                .unwrap_err(),
            AuthError::BadSignature
        );
        // Unknown users are rejected.
        assert_eq!(
            s.change_public_key("mallory", &new_bytes, &sig)
                .unwrap_err(),
            AuthError::UnknownUser
        );
    }

    #[test]
    fn encrypted_key_requires_existing_srp_record() {
        let s = server_with_alice();
        assert!(!s.register_encrypted_private_key("alice", vec![1]));
        let mut rng = XorShiftSource::new(9);
        let (salt, verifier, ekb_salt) =
            client_srp_registration(&group(), 2, "alice", b"pw", &mut rng);
        s.srp_register("alice", salt, verifier, ekb_salt);
        assert!(s.register_encrypted_private_key("alice", vec![1]));
        let (_, blob) = s.srp_payload("alice");
        assert_eq!(blob, Some(vec![1]));
    }
}
