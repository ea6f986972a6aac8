//! §2.6 end-to-end: key revocation, forwarding pointers, and HostID
//! blocking through the full client/server stack.

use sfs_bench::keys;
use sfs_bench::world::{KeySeeds, World, WorldSpec, UID as ALICE_UID};

/// A second user without server accounts.
const BOB_UID: u32 = 2000;
use sfs::client::ClientError;
use sfs_proto::pathname::SelfCertifyingPath;
use sfs_proto::revoke::{RevocationCert, REVOKED_LINK_TARGET};
use sfs_vfs::Credentials;

#[test]
fn server_served_revocation_blocks_mount() {
    // "When SFS first connects to a server, it announces the Location and
    // HostID … The server can respond with a revocation certificate."
    let w = World::build(&WorldSpec::realm(&["fs.example.org"]));
    let (server, client) = (&w.servers[0], &w.clients[0]);
    let path = server.path().clone();
    // Healthy at first.
    let hello = format!("{}/public/motd", path.full_path());
    assert!(client.read_file(ALICE_UID, &hello).is_ok());
    client.unmount_all();

    // The owner revokes the pathname.
    let cert = RevocationCert::issue(
        &keys::rabin(768, KeySeeds::REALM.servers[0]),
        "fs.example.org",
    );
    server.install_revocation(cert);
    let err = client.mount(ALICE_UID, &path).unwrap_err();
    assert_eq!(err, ClientError::Revoked);
    // Once seen, the revocation persists in the agent: even if the server
    // stops serving the certificate, this agent refuses the HostID.
    assert!(client.agent(ALICE_UID).lock().refuses(path.host_id));
    let err = client.read_file(ALICE_UID, &hello).unwrap_err();
    assert_eq!(err, ClientError::Blocked);
}

#[test]
fn revocation_directory_scheme() {
    // The Verisign scenario: a CA file system serves
    // /revocations/<HostID> files; agents check it for every new
    // pathname. "Certification authorities need not check the identity of
    // people submitting them" — certificates are self-authenticating.
    let w = World::build(&WorldSpec::realm(&[
        "verisign.example.com",
        "victim.example.org",
    ]));
    let (verisign, victim, client) = (&w.servers[0], &w.servers[1], &w.clients[0]);
    let victim_path = victim.path().clone();

    // Somebody (anyone) submits a revocation for the victim to Verisign.
    let cert = RevocationCert::issue(
        &keys::rabin(768, KeySeeds::REALM.servers[1]),
        "victim.example.org",
    );
    let root_creds = Credentials::root();
    let vfs = verisign.vfs();
    let dir = vfs.mkdir_p("/revocations").unwrap();
    use sfs_xdr::Xdr;
    vfs.write_file(
        &root_creds,
        dir,
        &victim_path.host_id.encoded(),
        &cert.to_xdr(),
    )
    .unwrap();

    // Alice's agent is configured to check Verisign's revocation dir.
    let agent = client.agent(ALICE_UID);
    agent
        .lock()
        .add_revocation_dir(&format!("{}/revocations", verisign.path().full_path()));

    // The check: fetch dir/<hostid> through the client, parse, submit.
    let dirs = vec![format!("{}/revocations", verisign.path().full_path())];
    let mut found = None;
    for d in dirs {
        let p = format!("{}/{}", d, victim_path.host_id.encoded());
        if let Ok(bytes) = client.read_file(ALICE_UID, &p) {
            if let Ok(cert) = RevocationCert::from_xdr(&bytes) {
                if cert.revokes(&victim_path) {
                    found = Some(cert);
                    break;
                }
            }
        }
    }
    let cert = found.expect("revocation must be found at the CA");
    assert!(agent.lock().submit_revocation(cert));
    // The victim is now unreachable for alice…
    assert_eq!(
        client.mount(ALICE_UID, &victim_path).unwrap_err(),
        ClientError::Blocked
    );
    // …but other users who have not seen the certificate are unaffected
    // (HostID decisions are per-agent).
    assert!(client.mount(BOB_UID, &victim_path).is_ok());
}

#[test]
fn forged_revocation_is_harmless() {
    // An attacker without the private key submits a bogus certificate; it
    // fails self-authentication and the agent ignores it.
    let w = World::build(&WorldSpec::realm(&["fs.example.org"]));
    let (server, client) = (&w.servers[0], &w.clients[0]);
    let mut cert = RevocationCert::issue(
        &keys::rabin(768, KeySeeds::REALM.servers[1]),
        "fs.example.org",
    );
    // Swap in the victim's public key — signature no longer matches.
    cert.public_key = keys::rabin(768, KeySeeds::REALM.servers[0])
        .public()
        .to_bytes();
    assert!(!client.agent(ALICE_UID).lock().submit_revocation(cert));
    let hello = format!("{}/public/motd", server.path().full_path());
    assert!(client.read_file(ALICE_UID, &hello).is_ok());
}

#[test]
fn forwarding_pointer_followed_to_new_home() {
    // "One can replace the root directory of the old file system with a
    // single symbolic link or forwarding pointer to the new
    // self-certifying pathname" (§2.4).
    let w = World::build(&WorldSpec::realm(&["old.example.org", "new.example.org"]));
    let (old, new, client) = (&w.servers[0], &w.servers[1], &w.clients[0]);
    old.install_forwarding(new.path().clone());
    let fwd = client
        .check_forwarding(ALICE_UID, old.path())
        .unwrap()
        .expect("pointer present");
    assert_eq!(&fwd, new.path());
    // Follow it.
    let hello = format!("{}/public/motd", fwd.full_path());
    assert_eq!(
        client.read_file(ALICE_UID, &hello).unwrap(),
        b"welcome to new.example.org"
    );
    // A server with no pointer reports none.
    assert_eq!(
        client.check_forwarding(ALICE_UID, new.path()).unwrap(),
        None
    );
}

#[test]
fn revocation_overrules_forwarding() {
    // "A revocation certificate always overrules a forwarding pointer for
    // the same HostID": if the key was compromised, an attacker could
    // serve a rogue pointer, so the client must check revocation first.
    let w = World::build(&WorldSpec::realm(&["old.example.org", "evil.example.org"]));
    let (old, attacker_dest, client) = (&w.servers[0], &w.servers[1], &w.clients[0]);
    // The (compromised) old key signs a pointer to the attacker.
    old.install_forwarding(attacker_dest.path().clone());
    // But the owner has revoked the key; the agent learns this.
    let cert = RevocationCert::issue(
        &keys::rabin(768, KeySeeds::REALM.servers[0]),
        "old.example.org",
    );
    assert!(client.agent(ALICE_UID).lock().submit_revocation(cert));
    // Revocation wins: the client never reads the pointer.
    assert_eq!(
        client.check_forwarding(ALICE_UID, old.path()).unwrap_err(),
        ClientError::Blocked
    );
}

#[test]
fn tampered_forwarding_pointer_rejected() {
    let w = World::build(&WorldSpec::realm(&[
        "old.example.org",
        "new.example.org",
        "evil.example.org",
    ]));
    let (old, new, evil, client) = (&w.servers[0], &w.servers[1], &w.servers[2], &w.clients[0]);
    let mut ptr = old.install_forwarding(new.path().clone());
    // An attacker redirects the pointer to their own server; the
    // signature breaks.
    ptr.new_path = evil.path().clone();
    use sfs_xdr::Xdr;
    let root_creds = Credentials::root();
    let vfs = old.vfs();
    let root = vfs.root();
    vfs.write_file(&root_creds, root, ".forward", &ptr.to_xdr())
        .unwrap();
    let err = client.check_forwarding(ALICE_UID, old.path()).unwrap_err();
    assert!(matches!(err, ClientError::Protocol(_)), "{err:?}");
}

#[test]
fn revoked_link_target_is_visible_marker() {
    // "Both revoked and blocked self-certifying pathnames become symbolic
    // links to [a] non-existent file … users who investigate further can
    // easily notice that the pathname has actually been revoked."
    assert!(REVOKED_LINK_TARGET.starts_with(':'));
    // The agent's dynamic-link mechanism realizes the marker.
    let w = World::build(&WorldSpec::realm(&["fs.example.org"]));
    let (server, client) = (&w.servers[0], &w.clients[0]);
    let agent = client.agent(ALICE_UID);
    let cert = RevocationCert::issue(
        &keys::rabin(768, KeySeeds::REALM.servers[0]),
        "fs.example.org",
    );
    agent.lock().submit_revocation(cert);
    agent
        .lock()
        .create_link(&server.path().dir_name(), REVOKED_LINK_TARGET);
    // The listing shows the link; accessing it fails.
    let listing = client.list_sfs(ALICE_UID);
    assert!(listing.contains(&server.path().dir_name()));
    assert!(client
        .read_file(
            ALICE_UID,
            &format!("{}/public/motd", server.path().full_path())
        )
        .is_err());
}

#[test]
fn key_change_via_two_pathnames() {
    // §2.4: "SFS can serve two copies of the same file system under
    // different self-certifying pathnames" during a key transition. Two
    // server instances exporting the same Vfs model this.
    let w = World::build(&WorldSpec::realm(&["fs.example.org"]));
    let (server_a, client) = (&w.servers[0], &w.clients[0]);
    // Second instance: same location is not possible in the registry, so
    // the operator runs the new key at a second name during transition.
    let vfs = server_a.vfs().clone();
    let auth = server_a.authserver().clone();
    let server_b = sfs::server::SfsServer::new(
        sfs::server::ServerConfig::new("fs2.example.org"),
        keys::rabin(768, KeySeeds::REALM.servers[1]),
        vfs,
        auth,
        sfs_crypto::SfsPrg::from_entropy(b"transition"),
    );
    w.net.register(server_b.clone());
    let via_old = format!("{}/public/motd", server_a.path().full_path());
    let via_new = format!("{}/public/motd", server_b.path().full_path());
    assert_eq!(
        client.read_file(ALICE_UID, &via_old).unwrap(),
        client.read_file(ALICE_UID, &via_new).unwrap(),
    );
    // They are different pathnames.
    assert_ne!(
        SelfCertifyingPath::parse_full(&via_old).unwrap().0,
        SelfCertifyingPath::parse_full(&via_new).unwrap().0,
    );
}

#[test]
fn revocation_met_on_reconnect_reaches_every_user_of_the_mount() {
    // Two users share one mount when the server's key is revoked and the
    // server restarts. The next call — whoever makes it — reconnects, is
    // served the certificate in place of a key, and fails `Revoked`. The
    // reconnect ran on behalf of the mount, not of that caller, so the
    // agents of *both* users must hold the revocation afterwards, on
    // every run rather than on the runs a hash seed favours: each
    // user's next access is refused before it touches the wire.
    let w = World::build(&WorldSpec::realm(&["fs.example.org"]));
    let (server, client) = (&w.servers[0], &w.clients[0]);
    let path = server.path().clone();
    let motd = format!("{}/public/motd", path.full_path());
    for uid in [ALICE_UID, BOB_UID] {
        assert!(client.read_file(uid, &motd).is_ok());
    }
    server.install_revocation(RevocationCert::issue(
        &keys::rabin(768, KeySeeds::REALM.servers[0]),
        "fs.example.org",
    ));
    server.crash_restart();
    assert_eq!(
        client.read_file(BOB_UID, &motd).unwrap_err(),
        ClientError::Revoked
    );
    for uid in [ALICE_UID, BOB_UID] {
        assert!(
            client.agent(uid).lock().refuses(path.host_id),
            "uid {uid}'s agent never learnt of the revocation"
        );
        let round_trips = client.network_rpcs();
        assert_eq!(
            client.read_file(uid, &motd).unwrap_err(),
            ClientError::Blocked
        );
        assert_eq!(client.network_rpcs(), round_trips);
    }
}

#[test]
fn mass_revocation_storm_under_faults() {
    // The §2.5 "million-user day" slice: a fleet of clients holding live
    // mounts on two servers when a revocation broadcast lands for one of
    // them, on a degraded network. Every revoked access — cached mount
    // or fresh — must be refused for every client, no unrevoked access
    // may regress, and the seeded fault plan must have actually injected
    // faults into the run.
    let plan = sfs_sim::FaultPlan::from_spec("seed=77,drop=15,delay=30,delay_ns=500us").unwrap();
    let w = World::build(&WorldSpec {
        clients: 3,
        ..WorldSpec::realm(&["revoked.example.org", "healthy.example.org"]).faulted(Some(&plan))
    });
    let (revoked, healthy) = (&w.servers[0], &w.servers[1]);
    let clients = &w.clients;
    let via_revoked = format!("{}/public/motd", revoked.path().full_path());
    let via_healthy = format!("{}/public/motd", healthy.path().full_path());

    // Warm phase: every client holds live mounts on both servers.
    for client in clients {
        assert_eq!(
            client.read_file(ALICE_UID, &via_revoked).unwrap(),
            b"welcome to revoked.example.org"
        );
        assert_eq!(
            client.read_file(ALICE_UID, &via_healthy).unwrap(),
            b"welcome to healthy.example.org"
        );
    }

    // The broadcast, mid-workload: the self-authenticating certificate
    // reaches the server and every agent.
    let cert = RevocationCert::issue(
        &keys::rabin(768, KeySeeds::REALM.servers[0]),
        "revoked.example.org",
    );
    revoked.install_revocation(cert.clone());
    for (c, client) in clients.iter().enumerate() {
        assert!(
            client
                .agent(ALICE_UID)
                .lock()
                .submit_revocation(cert.clone()),
            "client {c} agent rejected a valid certificate"
        );
    }

    for (c, client) in clients.iter().enumerate() {
        // Cached-mount access: refused without touching the wire.
        assert_eq!(
            client.read_file(ALICE_UID, &via_revoked).unwrap_err(),
            ClientError::Blocked,
            "client {c} cached-mount access survived revocation"
        );
        // Fresh mount: refused too.
        client.unmount_all();
        let err = client.read_file(ALICE_UID, &via_revoked).unwrap_err();
        assert!(
            matches!(err, ClientError::Blocked | ClientError::Revoked),
            "client {c} remounted a revoked HostID: {err:?}"
        );
        // The unrevoked server regresses in no way.
        assert_eq!(
            client.read_file(ALICE_UID, &via_healthy).unwrap(),
            b"welcome to healthy.example.org",
            "client {c} lost access to the unrevoked server"
        );
    }
    assert!(
        plan.injected() > 0,
        "the storm ran fault-free; the plan was not wired into the network"
    );
}
