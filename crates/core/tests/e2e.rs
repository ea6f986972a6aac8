//! End-to-end tests: client ↔ server over the simulated network, with the
//! complete protocol stack (key negotiation, secure channel, user
//! authentication, NFS relay, caching).

use sfs::agent::Agent;
use sfs::client::ClientError;
use sfs::sfskey;
use sfs_bench::keys;
use sfs_bench::world::{KeySeeds, World, WorldSpec, UID as ALICE_UID};
use sfs_bignum::XorShiftSource;
use sfs_nfs3::proto::Status;
use sfs_proto::pathname::SelfCertifyingPath;
use sfs_vfs::Credentials;

/// A full test world: one server (with alice registered), one client
/// whose agent holds her key.
fn world() -> World {
    World::build(&WorldSpec::test())
}

const MOTD: &[u8] = b"welcome to sfs.lcs.mit.edu";

#[test]
fn mount_and_read_public_file() {
    let w = world();
    let file = format!("{}/public/motd", w.path().full_path());
    let data = w.clients[0].read_file(ALICE_UID, &file).unwrap();
    assert_eq!(data, MOTD);
}

#[test]
fn authenticated_user_writes_home_directory() {
    let w = world();
    let file = format!("{}/home/alice/notes.txt", w.path().full_path());
    w.clients[0]
        .write_file(ALICE_UID, &file, b"meeting at noon")
        .unwrap();
    assert_eq!(
        w.clients[0].read_file(ALICE_UID, &file).unwrap(),
        b"meeting at noon"
    );
    // The write really landed on the server's file system.
    let (ino, _) = w.servers[0]
        .vfs()
        .lookup_path(&Credentials::root(), "/home/alice/notes.txt")
        .unwrap();
    assert_eq!(
        w.servers[0]
            .vfs()
            .read_file(&Credentials::root(), ino)
            .unwrap(),
        b"meeting at noon"
    );
}

#[test]
fn unauthenticated_user_is_anonymous() {
    let w = world();
    // Bob (uid 2000) has no key in his agent: anonymous access.
    let file = format!("{}/home/alice/secret.txt", w.path().full_path());
    let err = w.clients[0].write_file(2000, &file, b"x").unwrap_err();
    assert_eq!(err, ClientError::Nfs(Status::Acces));
    // But the world-readable file is available anonymously.
    let motd = format!("{}/public/motd", w.path().full_path());
    assert_eq!(w.clients[0].read_file(2000, &motd).unwrap(), MOTD);
}

#[test]
fn wrong_key_for_user_gets_anonymous_permissions() {
    let w = world();
    // Carol presents a key the authserver has never seen.
    let carol_key = keys::rabin(512, 0xDD);
    w.clients[0].agent(3000).lock().add_key(carol_key);
    let file = format!("{}/home/alice/secret", w.path().full_path());
    assert_eq!(
        w.clients[0].write_file(3000, &file, b"x").unwrap_err(),
        ClientError::Nfs(Status::Acces)
    );
}

#[test]
fn attribute_caching_reduces_rpcs() {
    let w = world();
    let file = format!("{}/public/motd", w.path().full_path());
    let (mount, fh, _) = w.clients[0].resolve(ALICE_UID, &file).unwrap();
    let before = w.clients[0].network_rpcs();
    for _ in 0..50 {
        w.clients[0].getattr(&mount, ALICE_UID, &fh).unwrap();
    }
    let with_cache = w.clients[0].network_rpcs() - before;
    assert!(
        with_cache <= 1,
        "cached getattrs should not hit the wire (got {with_cache})"
    );

    w.clients[0].set_caching(false);
    let before = w.clients[0].network_rpcs();
    for _ in 0..50 {
        w.clients[0].getattr(&mount, ALICE_UID, &fh).unwrap();
    }
    let without_cache = w.clients[0].network_rpcs() - before;
    assert_eq!(without_cache, 50);
}

#[test]
fn lease_invalidation_on_write() {
    let w = world();
    let file = format!("{}/home/alice/journal", w.path().full_path());
    w.clients[0]
        .write_file(ALICE_UID, &file, b"day one")
        .unwrap();
    let (mount, fh, attr0) = w.clients[0].resolve(ALICE_UID, &file).unwrap();
    assert_eq!(attr0.size, 7);
    // A write through the protocol invalidates the cached attributes via
    // the server's lease callback, so the next getattr sees fresh data.
    let reply = w.clients[0]
        .call_nfs(
            &mount,
            ALICE_UID,
            &sfs_nfs3::proto::Nfs3Request::Write {
                fh,
                offset: 7,
                stable: sfs_nfs3::proto::StableHow::FileSync,
                data: b", day two".to_vec(),
            },
        )
        .unwrap();
    assert_eq!(reply.status(), Status::Ok, "{reply:?}");
    let attr = w.clients[0].getattr(&mount, ALICE_UID, &fh).unwrap();
    assert_eq!(attr.size, 16, "stale cached size would be 7");
}

#[test]
fn a_lease_callback_drops_one_handles_access_answers_and_keeps_the_rest() {
    let w = world();
    let c = &w.clients[0];
    let home = format!("{}/home/alice", w.path().full_path());
    for name in ["a", "b"] {
        c.write_file(ALICE_UID, &format!("{home}/{name}"), b"x")
            .unwrap();
    }
    let (mount, a, _) = c.resolve(ALICE_UID, &format!("{home}/a")).unwrap();
    let (_, b, _) = c.resolve(ALICE_UID, &format!("{home}/b")).unwrap();
    // RPCs a round of ACCESS calls takes: a miss is one, a hit none.
    let round = |asks: &[(&sfs_nfs3::proto::FileHandle, u32)]| {
        let before = c.network_rpcs();
        for (fh, mask) in asks {
            c.access(&mount, ALICE_UID, fh, *mask).unwrap();
        }
        c.network_rpcs() - before
    };
    let asks = [(&a, 0x01), (&a, 0x3f), (&b, 0x01), (&b, 0x3f)];
    assert_eq!(round(&asks), 4, "cold: every answer is a miss");
    assert_eq!(round(&asks), 0, "warm: every answer is a hit");
    // A write to `a` comes back with `a`'s lease callback.
    let reply = c
        .call_nfs(
            &mount,
            ALICE_UID,
            &sfs_nfs3::proto::Nfs3Request::Write {
                fh: a,
                offset: 1,
                stable: sfs_nfs3::proto::StableHow::FileSync,
                data: b"y".to_vec(),
            },
        )
        .unwrap();
    assert_eq!(reply.status(), Status::Ok, "{reply:?}");
    assert_eq!(round(&asks[2..]), 0, "b's answers survive a's callback");
    assert_eq!(round(&asks[..2]), 2, "a's answers are gone");
    assert_eq!(round(&asks), 0, "and cached again");
}

#[test]
fn symlinks_traversed_server_side_content() {
    let w = world();
    // Server root gets a symlink: /latest -> /public/motd.
    let vfs = w.servers[0].vfs();
    let root = vfs.root();
    vfs.symlink(&Credentials::root(), root, "latest", "/public/motd")
        .unwrap();
    // NOTE: absolute symlink targets on the server are interpreted
    // relative to the mount by the client when they do not start with
    // /sfs — the client rebuilds them under the mount's own path.
    let link = format!("{}/latest", w.path().full_path());
    let target = w.clients[0].readlink(ALICE_UID, &link).unwrap();
    assert_eq!(target, "/public/motd");
}

#[test]
fn cross_server_secure_links() {
    // Two servers; a symlink on server A names server B's self-certifying
    // path (§2.4 "secure links").
    let mut w = world();
    let server_b = w.add_server("b.example.org", 0xEE);

    // The secure link on server A points at B's full self-certifying
    // pathname.
    let target = format!("{}/public/motd", server_b.path().full_path());
    let vfs_a = w.servers[0].vfs();
    let (pub_ino, _) = vfs_a.lookup_path(&Credentials::root(), "/public").unwrap();
    vfs_a
        .symlink(&Credentials::root(), pub_ino, "b-data", &target)
        .unwrap();

    let via_link = format!("{}/public/b-data", w.path().full_path());
    assert_eq!(
        w.clients[0].read_file(ALICE_UID, &via_link).unwrap(),
        b"welcome to b.example.org"
    );
}

#[test]
fn agent_links_resolve_human_names() {
    let w = world();
    w.clients[0]
        .agent(ALICE_UID)
        .lock()
        .create_link("mit", &w.path().full_path());
    let via_name = "/sfs/mit/public/motd";
    assert_eq!(w.clients[0].read_file(ALICE_UID, via_name).unwrap(), MOTD);
    // Another user without the link cannot use the name.
    assert!(w.clients[0].read_file(2000, via_name).is_err());
}

#[test]
fn sfs_listing_is_per_agent() {
    let w = world();
    let motd = format!("{}/public/motd", w.path().full_path());
    w.clients[0].read_file(ALICE_UID, &motd).unwrap();
    assert!(w.clients[0]
        .list_sfs(ALICE_UID)
        .contains(&w.path().dir_name()));
    assert!(
        !w.clients[0].list_sfs(2000).contains(&w.path().dir_name()),
        "uid 2000 never referenced this pathname"
    );
}

#[test]
fn mitm_server_with_different_key_rejected() {
    let mut w = world();
    // An attacker at a different location claims alice's HostID… the
    // pathname names the key, so a rogue server at the *same* location
    // with a different key fails certification.
    w.add_server("rogue.example.org", 0xBAD);
    // Build a path claiming the rogue location but the real server's
    // HostID — e.g. a phishing link. The real server being mounted
    // already must not let the forgery ride its cached mount.
    w.clients[0].mount(ALICE_UID, w.path()).unwrap();
    let forged = SelfCertifyingPath {
        location: "rogue.example.org".into(),
        host_id: w.path().host_id,
    };
    let err = w.clients[0].mount(ALICE_UID, &forged).unwrap_err();
    assert!(matches!(err, ClientError::KeyMismatch), "{err:?}");
}

#[test]
fn sfskey_password_bootstrap_end_to_end() {
    let w = world();
    // Alice registers with a password (done at the office).
    let mut rng = XorShiftSource::new(0x51);
    sfskey::register(
        w.servers[0].authserver(),
        "alice",
        b"correct horse battery staple",
        &keys::rabin(512, KeySeeds::TEST.user),
        &mut rng,
    );

    // Traveling: a fresh agent on some other machine, no keys, no
    // configuration. One password recovers everything.
    let conn = w.servers[0].accept();
    let mut agent = Agent::new();
    let result = sfskey::add(
        &conn,
        &keys::srp_group(128, KeySeeds::TEST.srp),
        &mut agent,
        "alice",
        b"correct horse battery staple",
        &mut rng,
    )
    .unwrap();
    assert_eq!(result.server_path.as_ref().unwrap(), w.path());
    let got_key = result.private_key.unwrap();
    assert_eq!(
        got_key.public(),
        keys::rabin(512, KeySeeds::TEST.user).public()
    );
    assert_eq!(agent.key_count(), 1);

    // Wrong password: rejected, nothing leaks.
    let conn = w.servers[0].accept();
    let mut agent2 = Agent::new();
    let err = sfskey::add(
        &conn,
        &keys::srp_group(128, KeySeeds::TEST.srp),
        &mut agent2,
        "alice",
        b"wrong password",
        &mut rng,
    )
    .unwrap_err();
    assert!(matches!(err, sfskey::SfskeyError::Rejected(_)), "{err:?}");
    assert_eq!(agent2.key_count(), 0);
}

#[test]
fn pwd_returns_self_certifying_path() {
    let w = world();
    let dir = format!("{}/home/alice", w.path().full_path());
    let (mount, _, _) = w.clients[0].resolve(ALICE_UID, &dir).unwrap();
    let pwd = w.clients[0].pwd(&mount, "home/alice");
    assert_eq!(pwd, dir);
    // Bookmark and return via the Location name.
    let parsed = SelfCertifyingPath::parse_full(&pwd).unwrap().0;
    w.clients[0].agent(ALICE_UID).lock().add_bookmark(&parsed);
    let again = format!("/sfs/{}/public/motd", w.path().location);
    assert_eq!(w.clients[0].read_file(ALICE_UID, &again).unwrap(), MOTD);
}

#[test]
fn virtual_time_advances_with_work() {
    let w = world();
    let before = w.clock.now();
    let file = format!("{}/public/motd", w.path().full_path());
    w.clients[0].read_file(ALICE_UID, &file).unwrap();
    assert!(
        w.clock.now() > before,
        "network transit must consume virtual time"
    );
}

#[test]
fn agent_ipc_is_uid_attested() {
    // §3.2: agents reach the client master over protected Unix-domain
    // sockets; `suidconnect` attests the caller's uid, so one user's
    // agent commands cannot touch another user's namespace view.
    let w = world();
    let socket = w.clients[0].agent_socket();
    let mut enc = sfs_xdr::XdrEncoder::new();
    enc.put_u32(0)
        .put_string("mit")
        .put_string(&w.path().full_path());
    // Alice registers the link over IPC.
    let reply = socket.connect_and_call(ALICE_UID, enc.bytes());
    let mut dec = sfs_xdr::XdrDecoder::new(&reply);
    assert_eq!(dec.get_u32().unwrap(), 0);
    // It works for alice…
    assert_eq!(
        w.clients[0]
            .read_file(ALICE_UID, "/sfs/mit/public/motd")
            .unwrap(),
        MOTD
    );
    // …and not for bob, whose (separate) agent never saw the command.
    assert!(w.clients[0]
        .read_file(2000, "/sfs/mit/public/motd")
        .is_err());
    // Listing over IPC shows per-uid views.
    let mut enc = sfs_xdr::XdrEncoder::new();
    enc.put_u32(1);
    let reply = socket.connect_and_call(ALICE_UID, enc.bytes());
    let mut dec = sfs_xdr::XdrDecoder::new(&reply);
    assert_eq!(dec.get_u32().unwrap(), 0);
    let n = dec.get_u32().unwrap();
    let names: Vec<String> = (0..n).map(|_| dec.get_string().unwrap()).collect();
    assert!(names.contains(&"mit".to_string()));
    // Unknown commands answer with a structured error, never panic: a
    // status code, the echoed command (u32::MAX — this header is not
    // even readable), and a message.
    let reply = socket.connect_and_call(ALICE_UID, &[0xff; 3]);
    let mut dec = sfs_xdr::XdrDecoder::new(&reply);
    assert_eq!(dec.get_u32().unwrap(), sfs::client::AGENT_ERR_UNKNOWN_CMD);
    assert_eq!(dec.get_u32().unwrap(), u32::MAX);
    assert!(!dec.get_string().unwrap().is_empty());
}

#[test]
fn agent_socket_errors_are_structured() {
    // A replacement agent (the paper lets users swap agents at will)
    // needs error *codes* it can dispatch on, not prose. Each failure
    // class gets its own status, the offending command is echoed back,
    // and the message is advisory.
    let w = world();
    let socket = w.clients[0].agent_socket();
    // Recognised command, malformed arguments.
    let mut enc = sfs_xdr::XdrEncoder::new();
    enc.put_u32(0).put_u32(0xdead_beef); // cmd 0 wants two strings
    let reply = socket.connect_and_call(ALICE_UID, enc.bytes());
    let mut dec = sfs_xdr::XdrDecoder::new(&reply);
    assert_eq!(dec.get_u32().unwrap(), sfs::client::AGENT_ERR_BAD_ARGS);
    assert_eq!(dec.get_u32().unwrap(), 0, "offending command echoed");
    assert!(!dec.get_string().unwrap().is_empty());
    // Readable header, unknown command code.
    let mut enc = sfs_xdr::XdrEncoder::new();
    enc.put_u32(42);
    let reply = socket.connect_and_call(ALICE_UID, enc.bytes());
    let mut dec = sfs_xdr::XdrDecoder::new(&reply);
    assert_eq!(dec.get_u32().unwrap(), sfs::client::AGENT_ERR_UNKNOWN_CMD);
    assert_eq!(dec.get_u32().unwrap(), 42, "offending command echoed");
    assert!(!dec.get_string().unwrap().is_empty());
    // Success still leads with AGENT_OK.
    let mut enc = sfs_xdr::XdrEncoder::new();
    enc.put_u32(1);
    let reply = socket.connect_and_call(ALICE_UID, enc.bytes());
    let mut dec = sfs_xdr::XdrDecoder::new(&reply);
    assert_eq!(dec.get_u32().unwrap(), sfs::client::AGENT_OK);
}

#[test]
fn each_mount_gets_its_own_device_number() {
    // §3.3: "by assigning each file system its own device number, this
    // scheme prevents a malicious server from tricking the pwd command
    // into printing an incorrect path", and device+inode uniquely
    // identify files for utilities.
    let mut w = world();
    let server_b = w.add_server("b.example.org", 0xDE5);
    let (_, _, attr_a) = w.clients[0]
        .resolve(ALICE_UID, &format!("{}/public/motd", w.path().full_path()))
        .unwrap();
    let (_, _, attr_b) = w.clients[0]
        .resolve(
            ALICE_UID,
            &format!("{}/public/motd", server_b.path().full_path()),
        )
        .unwrap();
    assert_ne!(
        attr_a.fsid, attr_b.fsid,
        "distinct mounts, distinct devices"
    );
}
