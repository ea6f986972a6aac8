//! The user agent, `sfsagent` (§2.3, §2.5.1).
//!
//! "Every user on an SFS client runs an unprivileged agent program of his
//! choice … The agent handles authentication of the user to remote
//! servers, prevents the user from accessing revoked HostIDs, and controls
//! the user's view of the `/sfs` directory."
//!
//! Agents hold the user's private keys and sign authentication requests
//! (keeping "a full audit trail of every private key operation"); they
//! create symbolic links in `/sfs` on the fly to implement certification
//! paths, bookmarks, and arbitrary key-management policy; and they decide
//! — per user — whether to honor revocations and HostID blocks.

use std::collections::{BTreeMap, BTreeSet};

use sfs_crypto::rabin::RabinPrivateKey;
use sfs_proto::pathname::{HostId, SelfCertifyingPath};
use sfs_proto::revoke::RevocationCert;
use sfs_proto::userauth::{AuthInfo, AuthMsg};
use sfs_telemetry::sync::Mutex;

/// One private-key operation recorded in the audit trail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditEntry {
    /// Location of the server the signature was for.
    pub location: String,
    /// HostID of that server.
    pub host_id: HostId,
    /// Sequence number signed.
    pub(crate) seq_no: u32,
    /// Which of the agent's keys signed (index).
    pub(crate) key_index: usize,
    /// "The path of processes and machines through which the request
    /// arrived at the agent" (§2.5.1) — empty for local requests, one
    /// entry per proxy hop otherwise.
    pub via: Vec<String>,
}

/// A per-user agent.
pub struct Agent {
    /// The user's private keys, tried in succession ("a single agent can
    /// support several protocols by simply trying them each in
    /// succession").
    keys: Vec<RabinPrivateKey>,
    /// Dynamic symlinks in `/sfs`, visible only to this agent's processes.
    links: BTreeMap<String, String>,
    /// Certification path: directories searched, in order, for symlinks
    /// matching non-self-certifying names in `/sfs` (§2.4).
    cert_paths: Vec<String>,
    /// Directories to consult for revocation certificates, e.g.
    /// `/verisign/revocations` (§2.6).
    revocation_dirs: Vec<String>,
    /// Verified revocation certificates, by HostID.
    revoked: BTreeMap<[u8; 20], RevocationCert>,
    /// HostIDs blocked for this user only ("does not affect any other
    /// users").
    blocked: BTreeSet<[u8; 20]>,
    /// The audit trail.
    audit: Vec<AuditEntry>,
    /// Give up after this many failed authentication attempts, after
    /// which the user proceeds with anonymous permissions (§2.5).
    max_attempts: usize,
    /// Upstream agent for proxying (§2.5.1: "Proxy agents could forward
    /// authentication requests to other SFS agents" — the remote-login
    /// scenario). When set and this agent holds no keys of its own,
    /// authentication requests are forwarded there.
    upstream: Option<(std::sync::Arc<Mutex<Agent>>, String)>,
    /// External key-management hook (§2.4 "Existing public key
    /// infrastructures"): given a non-self-certifying name, may produce a
    /// self-certifying pathname (e.g. from an SSL certificate store).
    /// Consulted after dynamic links and the certification path.
    name_hook: Option<NameHook>,
}

/// Maps a non-self-certifying name to a self-certifying pathname.
pub(crate) type NameHook = Box<dyn Fn(&str) -> Option<String> + Send>;

impl Default for Agent {
    fn default() -> Self {
        Self::new()
    }
}

impl Agent {
    /// Creates an empty agent.
    pub fn new() -> Self {
        Agent {
            keys: Vec::new(),
            links: BTreeMap::new(),
            cert_paths: Vec::new(),
            revocation_dirs: Vec::new(),
            revoked: BTreeMap::new(),
            blocked: BTreeSet::new(),
            audit: Vec::new(),
            max_attempts: 4,
            upstream: None,
            name_hook: None,
        }
    }

    /// Adds a private key (e.g. downloaded by `sfskey`).
    pub fn add_key(&mut self, key: RabinPrivateKey) {
        self.keys.push(key);
    }

    /// Replaces the key at `index` with `key` — the agent half of a §2.5
    /// key rollover: after `sfskey` registers a new public key with the
    /// authserver, the agent swaps in the matching private key so future
    /// authentications use it. Returns false if `index` is out of range
    /// (the old key is then untouched).
    pub fn replace_key(&mut self, index: usize, key: RabinPrivateKey) -> bool {
        match self.keys.get_mut(index) {
            Some(slot) => {
                *slot = key;
                true
            }
            None => false,
        }
    }

    /// Number of keys held.
    pub fn key_count(&self) -> usize {
        self.keys.len()
    }

    /// Serialized snapshot of every private key, in install order — the
    /// form the client journal persists so a restarted client can
    /// restore agent state without re-running SRP retrieval.
    pub(crate) fn export_keys(&self) -> Vec<Vec<u8>> {
        self.keys.iter().map(RabinPrivateKey::to_bytes).collect()
    }

    /// Maximum authentication attempts before falling back to anonymous.
    pub(crate) fn max_attempts(&self) -> usize {
        self.max_attempts.min(self.keys.len())
    }

    /// Signs an authentication request with key number `attempt`
    /// (0-based), recording the operation in the audit trail. Returns
    /// `None` once attempts are exhausted — the caller then proceeds
    /// anonymously. With an upstream configured and no local keys, the
    /// request is proxied.
    pub(crate) fn authenticate(
        &mut self,
        info: &AuthInfo,
        seq_no: u32,
        attempt: usize,
    ) -> Option<AuthMsg> {
        self.authenticate_via(info, seq_no, attempt, Vec::new())
    }

    /// [`Self::authenticate`] carrying the proxy hop path.
    pub(crate) fn authenticate_via(
        &mut self,
        info: &AuthInfo,
        seq_no: u32,
        attempt: usize,
        mut via: Vec<String>,
    ) -> Option<AuthMsg> {
        // Refuse to authenticate to hosts this agent knows are revoked or
        // has blocked — a proxy enforces its own policy too.
        if self.blocked.contains(&info.host_id.0) || self.revoked.contains_key(&info.host_id.0) {
            return None;
        }
        if self.keys.is_empty() {
            // Proxy path: forward to the upstream (home) agent, recording
            // the hop.
            let (upstream, hop) = self.upstream.clone()?;
            via.push(hop);
            return upstream.lock().authenticate_via(info, seq_no, attempt, via);
        }
        if attempt >= self.max_attempts() {
            return None;
        }
        let key = &self.keys[attempt];
        let msg = AuthMsg::sign(key, info, seq_no);
        self.audit.push(AuditEntry {
            location: info.location.to_string(),
            host_id: info.host_id,
            seq_no,
            key_index: attempt,
            via,
        });
        Some(msg)
    }

    /// Configures this agent as a proxy forwarding to `upstream`, tagging
    /// forwarded requests with `hop` (e.g. "lab-machine.example.org").
    pub fn set_upstream(&mut self, upstream: std::sync::Arc<Mutex<Agent>>, hop: &str) {
        self.upstream = Some((upstream, hop.to_string()));
    }

    /// Installs an external name hook (§2.4): a closure that maps
    /// non-self-certifying names to self-certifying pathnames, e.g. by
    /// consulting SSL certificates. Consulted after dynamic links and the
    /// certification path.
    pub fn set_name_hook(&mut self, hook: NameHook) {
        self.name_hook = Some(hook);
    }

    /// Runs the external name hook, if any.
    pub(crate) fn run_name_hook(&self, name: &str) -> Option<String> {
        self.name_hook.as_ref()?(name)
    }

    /// The audit trail of private-key operations.
    pub fn audit_trail(&self) -> &[AuditEntry] {
        &self.audit
    }

    /// Creates a dynamic symlink in this agent's view of `/sfs`.
    pub fn create_link(&mut self, name: &str, target: &str) {
        self.links.insert(name.to_string(), target.to_string());
    }

    /// Current dynamic links (for `/sfs` directory listings).
    pub(crate) fn links(&self) -> impl Iterator<Item = (&str, &str)> {
        self.links.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }

    /// Appends a directory to the certification path.
    pub fn add_cert_path(&mut self, dir: &str) {
        self.cert_paths.push(dir.to_string());
    }

    /// Appends a revocation-checking directory.
    pub fn add_revocation_dir(&mut self, dir: &str) {
        self.revocation_dirs.push(dir.to_string());
    }

    /// Resolves a non-self-certifying name in `/sfs` (§2.3: "the client
    /// software notifies the appropriate agent of the event. The agent can
    /// then create a symbolic link on-the-fly"): a dynamic link, else the
    /// first certification-path directory holding a link of that name,
    /// else the external name hook. A name found in a directory or by the
    /// hook is cached as an on-the-fly link.
    ///
    /// `lookup(dir, name)` reads a symlink target from the (SFS-mounted)
    /// file system; the agent supplies the policy, the client supplies the
    /// I/O. The agent lock is taken for each step and never held across
    /// `lookup`: reading a certification-path directory may mount, which
    /// consults this agent again.
    pub(crate) fn map_name(
        agent: &Mutex<Agent>,
        name: &str,
        mut lookup: impl FnMut(&str, &str) -> Option<String>,
    ) -> Option<String> {
        let link = agent.lock().links.get(name).cloned();
        if link.is_some() {
            return link;
        }
        let dirs = agent.lock().cert_paths.clone();
        let found = dirs.iter().find_map(|dir| lookup(dir, name));
        let target = match found {
            Some(t) => t,
            None => agent.lock().run_name_hook(name)?,
        };
        agent.lock().create_link(name, &target);
        Some(target)
    }

    /// Checks whether `path` is revoked, consulting the local cache and
    /// then each revocation directory via `fetch(dir, hostid_base32)`.
    /// Valid certificates are cached; invalid ones are ignored ("even
    /// someone without permission … could still submit revocation
    /// certificates" — they are self-authenticating, so fakes are
    /// harmless).
    pub fn check_revoked(
        &mut self,
        path: &SelfCertifyingPath,
        fetch: &mut dyn FnMut(&str, &str) -> Option<RevocationCert>,
    ) -> Option<RevocationCert> {
        if let Some(cert) = self.revoked.get(&path.host_id.0) {
            return Some(cert.clone());
        }
        let dirs = self.revocation_dirs.clone();
        for dir in &dirs {
            if let Some(cert) = fetch(dir, &path.host_id.encoded()) {
                if cert.revokes(path) {
                    self.revoked.insert(path.host_id.0, cert.clone());
                    return Some(cert);
                }
            }
        }
        None
    }

    /// Accepts a revocation certificate pushed from elsewhere (e.g. a
    /// server's hello response); returns whether it was valid for some
    /// path and stored.
    pub fn submit_revocation(&mut self, cert: RevocationCert) -> bool {
        if !cert.verify() {
            return false;
        }
        match cert.host_id() {
            Some(hid) => {
                self.revoked.insert(hid.0, cert);
                true
            }
            None => false,
        }
    }

    /// Blocks a HostID for this user only (§2.6 HostID blocking: the agent
    /// may decide a path is bad "even without finding a signed revocation
    /// certificate", e.g. an external PKI revoked a related certificate).
    pub fn block_host(&mut self, host_id: HostId) {
        self.blocked.insert(host_id.0);
    }

    /// Whether this agent refuses `host_id` (revoked or blocked).
    pub fn refuses(&self, host_id: HostId) -> bool {
        self.blocked.contains(&host_id.0) || self.revoked.contains_key(&host_id.0)
    }

    /// Records a secure bookmark: "by simply typing `cd Location`, they
    /// can subsequently return securely to any file system they have
    /// bookmarked". The bookmark is a dynamic link named after the
    /// Location.
    pub fn add_bookmark(&mut self, path: &SelfCertifyingPath) {
        self.create_link(&path.location.clone(), &path.full_path());
    }
}

impl std::fmt::Debug for Agent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Agent")
            .field("keys", &self.keys.len())
            .field("links", &self.links.len())
            .field("cert_paths", &self.cert_paths)
            .field("revoked", &self.revoked.len())
            .field("blocked", &self.blocked.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfs_bignum::XorShiftSource;
    use sfs_crypto::rabin::generate_keypair;
    use std::sync::OnceLock;

    fn key(seed: u64) -> RabinPrivateKey {
        static K1: OnceLock<RabinPrivateKey> = OnceLock::new();
        static K2: OnceLock<RabinPrivateKey> = OnceLock::new();
        let cell = if seed == 1 { &K1 } else { &K2 };
        cell.get_or_init(|| {
            let mut rng = XorShiftSource::new(seed);
            generate_keypair(512, &mut rng)
        })
        .clone()
    }

    fn info() -> AuthInfo<'static> {
        AuthInfo::for_fs("host.example.com", HostId([5u8; 20]), [6u8; 20])
    }

    #[test]
    fn authenticate_tries_keys_in_succession() {
        let mut agent = Agent::new();
        agent.add_key(key(1));
        agent.add_key(key(2));
        let m0 = agent.authenticate(&info(), 1, 0).unwrap();
        let m1 = agent.authenticate(&info(), 2, 1).unwrap();
        assert_ne!(m0.user_key, m1.user_key);
        assert!(
            agent.authenticate(&info(), 3, 2).is_none(),
            "attempts exhausted"
        );
    }

    #[test]
    fn audit_trail_records_operations() {
        let mut agent = Agent::new();
        agent.add_key(key(1));
        agent.authenticate(&info(), 7, 0).unwrap();
        let trail = agent.audit_trail();
        assert_eq!(trail.len(), 1);
        assert_eq!(trail[0].seq_no, 7);
        assert_eq!(trail[0].location, "host.example.com");
        assert_eq!(trail[0].key_index, 0);
    }

    #[test]
    fn no_keys_means_anonymous() {
        let mut agent = Agent::new();
        assert!(agent.authenticate(&info(), 1, 0).is_none());
    }

    #[test]
    fn dynamic_links_and_map_name() {
        let mut agent = Agent::new();
        agent.create_link("mit", "/sfs/sfs.lcs.mit.edu:abc");
        let lookup = |_d: &str, _n: &str| -> Option<String> { panic!("must not hit disk") };
        assert_eq!(
            Agent::map_name(&Mutex::new(agent), "mit", lookup).unwrap(),
            "/sfs/sfs.lcs.mit.edu:abc"
        );
    }

    #[test]
    fn cert_path_searched_in_order() {
        let mut agent = Agent::new();
        agent.add_cert_path("/home/user/.sfs/known_hosts");
        agent.add_cert_path("/verisign");
        let agent = Mutex::new(agent);
        let mut calls = Vec::new();
        let lookup = |dir: &str, name: &str| -> Option<String> {
            calls.push(dir.to_string());
            if dir == "/verisign" && name == "mit" {
                Some("/sfs/mit:xyz".into())
            } else {
                None
            }
        };
        assert_eq!(
            Agent::map_name(&agent, "mit", lookup).unwrap(),
            "/sfs/mit:xyz"
        );
        assert_eq!(calls, vec!["/home/user/.sfs/known_hosts", "/verisign"]);
        // Second access is served from the cached on-the-fly link.
        let lookup2 = |_d: &str, _n: &str| -> Option<String> { panic!("cached") };
        assert_eq!(
            Agent::map_name(&agent, "mit", lookup2).unwrap(),
            "/sfs/mit:xyz"
        );
    }

    #[test]
    fn unresolvable_name_returns_none() {
        let mut agent = Agent::new();
        agent.add_cert_path("/verisign");
        let lookup = |_d: &str, _n: &str| -> Option<String> { None };
        assert!(Agent::map_name(&Mutex::new(agent), "nowhere", lookup).is_none());
    }

    #[test]
    fn revocation_check_caches_valid_certs() {
        let k = key(1);
        let path = SelfCertifyingPath::for_server("host.example.com", k.public());
        let cert = RevocationCert::issue(&k, "host.example.com");
        let mut agent = Agent::new();
        agent.add_revocation_dir("/verisign/revocations");
        let mut fetches = 0;
        let mut fetch = |_d: &str, _h: &str| -> Option<RevocationCert> {
            fetches += 1;
            Some(cert.clone())
        };
        assert!(agent.check_revoked(&path, &mut fetch).is_some());
        assert!(agent.check_revoked(&path, &mut fetch).is_some());
        assert_eq!(fetches, 1, "second check served from cache");
        assert!(agent.refuses(path.host_id));
    }

    #[test]
    fn invalid_revocation_ignored() {
        let k = key(1);
        let other = key(2);
        let path = SelfCertifyingPath::for_server("host.example.com", k.public());
        // A certificate for a different key does not revoke this path.
        let cert = RevocationCert::issue(&other, "host.example.com");
        let mut agent = Agent::new();
        agent.add_revocation_dir("/verisign/revocations");
        let mut fetch = |_d: &str, _h: &str| -> Option<RevocationCert> { Some(cert.clone()) };
        assert!(agent.check_revoked(&path, &mut fetch).is_none());
        assert!(!agent.refuses(path.host_id));
    }

    #[test]
    fn submitted_revocations_must_verify() {
        let k = key(1);
        let mut agent = Agent::new();
        let mut cert = RevocationCert::issue(&k, "host.example.com");
        cert.location = "tampered.example.com".into();
        assert!(!agent.submit_revocation(cert));
        let good = RevocationCert::issue(&k, "host.example.com");
        assert!(agent.submit_revocation(good));
    }

    #[test]
    fn blocking_is_local_policy() {
        let mut a1 = Agent::new();
        let a2 = Agent::new();
        let hid = HostId([8u8; 20]);
        a1.block_host(hid);
        assert!(a1.refuses(hid));
        assert!(!a2.refuses(hid), "blocking affects only the blocking agent");
    }

    #[test]
    fn blocked_host_refuses_authentication() {
        let mut agent = Agent::new();
        agent.add_key(key(1));
        let i = info();
        agent.block_host(i.host_id);
        assert!(agent.authenticate(&i, 1, 0).is_none());
    }

    #[test]
    fn bookmark_creates_location_link() {
        let k = key(1);
        let path = SelfCertifyingPath::for_server("sfs.lcs.mit.edu", k.public());
        let mut agent = Agent::new();
        agent.add_bookmark(&path);
        let lookup = |_d: &str, _n: &str| -> Option<String> { None };
        assert_eq!(
            Agent::map_name(&Mutex::new(agent), "sfs.lcs.mit.edu", lookup).unwrap(),
            path.full_path()
        );
    }
}
