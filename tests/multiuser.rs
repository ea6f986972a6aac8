//! Multi-user semantics: the AFS cache conundrum (§5.1), per-agent
//! namespace views (§2.3), and anonymous access (§3.1.2).

use sfs_bench::keys;
use sfs_bench::world::{KeySeeds, World, WorldSpec, UID as ALICE_UID};

/// A second user without server accounts.
const BOB_UID: u32 = 2000;
use sfs::client::ClientError;
use sfs_nfs3::proto::Status;

#[test]
fn afs_conundrum_shared_cache_is_safe() {
    // §5.1: in AFS, a user who knows the session key can pollute the
    // shared client cache. In SFS, "two users can both retrieve a
    // self-certifying pathname … If they end up with the same path, they
    // can safely share the cache; they are asking for a server with the
    // same public key. Since neither user knows the corresponding private
    // key, neither can forge messages from the server."
    let w = World::build(&WorldSpec::realm(&["fs.example.org"]));
    let (server, client) = (&w.servers[0], &w.clients[0]);
    let path = server.path().clone();
    let hello = format!("{}/public/motd", path.full_path());

    // Both users access the same pathname: one mount, one cache.
    assert_eq!(
        client.read_file(ALICE_UID, &hello).unwrap(),
        b"welcome to fs.example.org"
    );
    assert_eq!(
        client.read_file(BOB_UID, &hello).unwrap(),
        b"welcome to fs.example.org"
    );
    let mount_a = client.mount(ALICE_UID, &path).unwrap();
    let mount_b = client.mount(BOB_UID, &path).unwrap();
    assert!(
        std::sync::Arc::ptr_eq(&mount_a, &mount_b),
        "same path ⇒ shared mount/cache"
    );

    // A user who *disagrees* about the key is asking for a different
    // HostID: a different name, cached separately — here it simply fails
    // to mount since no such server exists.
    let disagreeing = sfs_proto::pathname::SelfCertifyingPath::for_server(
        "fs.example.org",
        keys::rabin(768, KeySeeds::REALM.servers[1]).public(),
    );
    assert_ne!(disagreeing.dir_name(), path.dir_name());
    assert!(client.mount(BOB_UID, &disagreeing).is_err());
}

#[test]
fn users_cannot_use_each_others_authno() {
    // Authentication numbers map to per-user credentials on the server;
    // bob's anonymous authno cannot write alice's files even though they
    // share the mount and channel.
    let w = World::build(&WorldSpec::realm(&["fs.example.org"]));
    let (server, client) = (&w.servers[0], &w.clients[0]);
    let path = server.path().clone();
    let alice_file = format!("{}/home/alice/diary", path.full_path());
    client
        .write_file(ALICE_UID, &alice_file, b"dear diary")
        .unwrap();
    assert_eq!(
        client
            .write_file(BOB_UID, &alice_file, b"bob was here")
            .unwrap_err(),
        ClientError::Nfs(Status::Acces)
    );
    // And bob can still read public data over the same mount.
    let hello = format!("{}/public/motd", path.full_path());
    assert!(client.read_file(BOB_UID, &hello).is_ok());
}

#[test]
fn sfs_listing_hides_unreferenced_hostids_per_agent() {
    // §2.3: "a naïve user who searches for HostIDs with command-line
    // filename completion cannot be tricked by another user into
    // accessing the wrong HostID" — listings only show what *this* agent
    // referenced.
    let w = World::build(&WorldSpec::realm(&["one.example.org", "two.example.org"]));
    let (s1, s2, client) = (&w.servers[0], &w.servers[1], &w.clients[0]);
    let f1 = format!("{}/public/motd", s1.path().full_path());
    let f2 = format!("{}/public/motd", s2.path().full_path());
    client.read_file(ALICE_UID, &f1).unwrap();
    client.read_file(BOB_UID, &f2).unwrap();
    let alice_view = client.list_sfs(ALICE_UID);
    let bob_view = client.list_sfs(BOB_UID);
    assert!(alice_view.contains(&s1.path().dir_name()));
    assert!(!alice_view.contains(&s2.path().dir_name()));
    assert!(bob_view.contains(&s2.path().dir_name()));
    assert!(!bob_view.contains(&s1.path().dir_name()));
}

#[test]
fn agents_are_per_user_and_replaceable() {
    // "Users can replace their agents at will."
    let w = World::build(&WorldSpec::realm(&["fs.example.org"]));
    let (server, client) = (&w.servers[0], &w.clients[0]);
    let path = server.path().clone();
    let file = format!("{}/home/alice/x", path.full_path());
    client.write_file(ALICE_UID, &file, b"with key").unwrap();

    // Alice replaces her agent with an empty one (e.g. logging out); a
    // fresh connection then authenticates anonymously.
    client.set_agent(
        ALICE_UID,
        std::sync::Arc::new(sfs_telemetry::sync::Mutex::new(sfs::agent::Agent::new())),
    );
    client.unmount_all();
    assert_eq!(
        client.write_file(ALICE_UID, &file, b"no key").unwrap_err(),
        ClientError::Nfs(Status::Acces)
    );
}

#[test]
fn audit_trail_records_signatures() {
    // §2.5.1: "an SFS agent can keep a full audit trail of every private
    // key operation it performs."
    let w = World::build(&WorldSpec::realm(&["fs.example.org"]));
    let (server, client) = (&w.servers[0], &w.clients[0]);
    let agent = w.clients[0].agent(ALICE_UID);
    let file = format!("{}/home/alice/y", server.path().full_path());
    client.write_file(ALICE_UID, &file, b"signed in").unwrap();
    let trail: Vec<_> = agent.lock().audit_trail().to_vec();
    assert!(!trail.is_empty());
    assert_eq!(trail[0].location, "fs.example.org");
    assert_eq!(trail[0].host_id, server.path().host_id);
}

#[test]
fn anonymous_access_when_agent_declines() {
    // §2.5: after failed attempts "the user will access the file system
    // with anonymous permissions. Depending on the server's configuration,
    // this may permit access to certain parts of the file system."
    let w = World::build(&WorldSpec::realm(&["fs.example.org"]));
    let (server, client) = (&w.servers[0], &w.clients[0]);
    // No keys at all for bob.
    let hello = format!("{}/public/motd", server.path().full_path());
    assert!(client.read_file(BOB_UID, &hello).is_ok());
    let private = format!("{}/home/alice/z", server.path().full_path());
    assert!(client.write_file(BOB_UID, &private, b"x").is_err());
}

#[test]
fn ephemeral_rotation_does_not_break_existing_mounts() {
    // "Clients discard and regenerate K_C at regular intervals (every
    // hour by default)": old sessions continue, new sessions use the new
    // key.
    let w = World::build(&WorldSpec::realm(&["one.example.org", "two.example.org"]));
    let (s1, s2, client) = (&w.servers[0], &w.servers[1], &w.clients[0]);
    let f1 = format!("{}/public/motd", s1.path().full_path());
    assert!(client.read_file(ALICE_UID, &f1).is_ok());
    client.rotate_ephemeral();
    // Existing mount still works (session keys are independent of K_C
    // once derived)…
    assert!(client.read_file(ALICE_UID, &f1).is_ok());
    // …and a fresh mount with the new ephemeral key works too.
    let f2 = format!("{}/public/motd", s2.path().full_path());
    assert!(client.read_file(ALICE_UID, &f2).is_ok());
}
