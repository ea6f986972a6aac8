//! §2.4's server key-management techniques, each realized "using only
//! standard file utilities" on top of the file system itself: manual key
//! distribution, secure links, secure bookmarks, certification
//! authorities, certification paths, and password authentication.

use sfs_bench::keys;
use sfs_bench::world::{KeySeeds, World, WorldSpec, UID as ALICE_UID};

/// A second user without server accounts.
const BOB_UID: u32 = 2000;
use sfs::agent::Agent;
use sfs::sfskey;
use sfs_bignum::XorShiftSource;
use sfs_proto::pathname::SelfCertifyingPath;
use sfs_vfs::Credentials;

#[test]
fn manual_key_distribution_via_symlink() {
    // "If the administrators of a site want to install some server's
    // public key on the local hard disk of every client, they can simply
    // create a symbolic link to the appropriate self-certifying pathname."
    // The agent's dynamic links model the client-local /mit symlink.
    let w = World::build(&WorldSpec::realm(&["sfs.lcs.mit.edu"]));
    let (server, client) = (&w.servers[0], &w.clients[0]);
    client
        .agent(ALICE_UID)
        .lock()
        .create_link("mit", &server.path().full_path());
    assert_eq!(
        client.read_file(ALICE_UID, "/sfs/mit/public/motd").unwrap(),
        b"welcome to sfs.lcs.mit.edu"
    );
}

#[test]
fn secure_links_chain_across_servers() {
    // "A symbolic link on one SFS file system can point to the
    // self-certifying pathname of another, forming a secure link."
    let w = World::build(&WorldSpec::realm(&[
        "a.example.org",
        "b.example.org",
        "c.example.org",
    ]));
    let (a, b, c, client) = (&w.servers[0], &w.servers[1], &w.servers[2], &w.clients[0]);
    // a:/public/next -> b, b:/public/next -> c (links to full self-certifying
    // paths).
    let root_creds = Credentials::root();
    for (src, dst) in [(&a, &b), (&b, &c)] {
        let vfs = src.vfs();
        let (pub_ino, _) = vfs.lookup_path(&root_creds, "/public").unwrap();
        vfs.symlink(
            &root_creds,
            pub_ino,
            "next",
            &format!("{}/public", dst.path().full_path()),
        )
        .unwrap();
    }
    // Follow two secure links in one path.
    let chained = format!("{}/public/next/next/motd", a.path().full_path());
    assert_eq!(
        client.read_file(ALICE_UID, &chained).unwrap(),
        b"welcome to c.example.org"
    );
}

#[test]
fn secure_bookmarks_roundtrip() {
    // "When run in an SFS file system, the Unix pwd command returns the
    // full self-certifying pathname … By simply typing `cd Location`,
    // they can subsequently return securely."
    let w = World::build(&WorldSpec::realm(&["files.vendor.com"]));
    let (server, client) = (&w.servers[0], &w.clients[0]);
    let dir = format!("{}/public", server.path().full_path());
    let (mount, _, _) = client.resolve(ALICE_UID, &dir).unwrap();
    let pwd = client.pwd(&mount, "public");
    // Extract the self-certifying prefix from pwd and bookmark it.
    let (sc, rest) = SelfCertifyingPath::parse_full(&pwd).unwrap();
    assert_eq!(rest, "/public");
    client.agent(ALICE_UID).lock().add_bookmark(&sc);
    // `cd files.vendor.com` now works by name.
    assert_eq!(
        client
            .read_file(ALICE_UID, "/sfs/files.vendor.com/public/motd")
            .unwrap(),
        b"welcome to files.vendor.com"
    );
}

#[test]
fn certification_authority_is_a_file_system() {
    // "SFS certification authorities are nothing more than ordinary file
    // systems serving symbolic links."
    let w = World::build(&WorldSpec::realm(&[
        "verisign.example.com",
        "target.example.org",
    ]));
    let (verisign, target, client) = (&w.servers[0], &w.servers[1], &w.clients[0]);
    // Verisign serves a link "target" -> target's self-certifying path.
    let root_creds = Credentials::root();
    let vfs = verisign.vfs();
    let root = vfs.root();
    vfs.symlink(&root_creds, root, "target", &target.path().full_path())
        .unwrap();
    // Clients install one link to the CA, then use names below it.
    let agent = client.agent(ALICE_UID);
    agent
        .lock()
        .create_link("verisign", &verisign.path().full_path());
    assert_eq!(
        client
            .read_file(ALICE_UID, "/sfs/verisign/target/public/motd")
            .unwrap(),
        b"welcome to target.example.org"
    );
}

#[test]
fn certification_paths_search_directories_in_order() {
    // "A user can give his agent a list of directories containing
    // symbolic links … the agent maps the name by looking in each
    // directory of the certification path in sequence."
    let w = World::build(&WorldSpec::realm(&[
        "ca-one.example.com",
        "ca-two.example.com",
        "dest.example.org",
    ]));
    let (ca1, ca2, dest, client) = (&w.servers[0], &w.servers[1], &w.servers[2], &w.clients[0]);
    let root_creds = Credentials::root();
    // Only ca2 knows "dest".
    let vfs = ca2.vfs();
    let root = vfs.root();
    vfs.symlink(&root_creds, root, "dest", &dest.path().full_path())
        .unwrap();
    let agent = client.agent(ALICE_UID);
    {
        let mut a = agent.lock();
        a.add_cert_path(&ca1.path().full_path());
        a.add_cert_path(&ca2.path().full_path());
    }
    // Accessing /sfs/dest consults ca1 (miss) then ca2 (hit).
    assert_eq!(
        client
            .read_file(ALICE_UID, "/sfs/dest/public/motd")
            .unwrap(),
        b"welcome to dest.example.org"
    );
    // Unresolvable names fail cleanly.
    assert!(client
        .read_file(ALICE_UID, "/sfs/nonexistent/public/x")
        .is_err());
}

#[test]
fn password_authentication_travel_scenario() {
    // The §2.4 walkthrough: register at home, then from a fresh machine a
    // single password yields the server's pathname, the private key, and
    // transparent authentication.
    let w = World::build(&WorldSpec {
        clients: 0,
        ..WorldSpec::realm(&["sfs.lcs.mit.edu"])
    });
    let server = &w.servers[0];
    let mut rng = XorShiftSource::new(0x7AB);
    sfskey::register(
        server.authserver(),
        "alice",
        b"kHux-qr1cm-purpl",
        &w.user_key(),
        &mut rng,
    );

    // The "research laboratory" client: no keys, no configuration.
    let lab = w.client(b"lab-client");
    let mut agent = Agent::new();
    let conn = server.accept();
    let result = sfskey::add(
        &conn,
        &keys::srp_group(128, KeySeeds::REALM.srp),
        &mut agent,
        "alice",
        b"kHux-qr1cm-purpl",
        &mut rng,
    )
    .unwrap();
    let path = result.server_path.unwrap();
    assert_eq!(&path, server.path());
    // Install the populated agent and work on home files transparently.
    lab.set_agent(
        ALICE_UID,
        std::sync::Arc::new(sfs_telemetry::sync::Mutex::new(agent)),
    );
    let file = format!("{}/home/alice/draft.tex", path.full_path());
    lab.write_file(ALICE_UID, &file, b"\\section{SFS}").unwrap();
    assert_eq!(lab.read_file(ALICE_UID, &file).unwrap(), b"\\section{SFS}");
    // And the sfskey-installed link works: /sfs/sfs.lcs.mit.edu/…
    assert_eq!(
        lab.read_file(ALICE_UID, "/sfs/sfs.lcs.mit.edu/public/motd")
            .unwrap(),
        b"welcome to sfs.lcs.mit.edu"
    );
}

#[test]
fn authserver_imports_remote_user_database() {
    // "A server can import a centrally-maintained list of users over SFS
    // while also keeping a few guest accounts in a local database" —
    // exported public databases carry no secrets.
    let w = World::build(&WorldSpec::realm(&[
        "users.example.com",
        "branch.example.org",
    ]));
    let (centre, branch, client) = (&w.servers[0], &w.servers[1], &w.clients[0]);
    // Carol is registered only at the centre.
    let carol_key = keys::rabin(512, 0xCA201);
    const CAROL_UID: u32 = 3000;
    centre
        .authserver()
        .register_user(sfs::authserver::UserRecord {
            user: "carol".into(),
            uid: CAROL_UID,
            gids: vec![300],
            public_key: carol_key.public().to_bytes(),
        });
    client.agent(CAROL_UID).lock().add_key(carol_key);
    // Carol's home directory exists on the branch server.
    let root_creds = Credentials::root();
    let vfs = branch.vfs();
    let home = vfs.mkdir_p("/home/carol").unwrap();
    vfs.setattr(
        &root_creds,
        home,
        sfs_vfs::SetAttr {
            uid: Some(CAROL_UID),
            gid: Some(300),
            ..Default::default()
        },
    )
    .unwrap();
    let file = format!("{}/home/carol/hi", branch.path().full_path());
    // Before the import the branch does not know carol's key.
    assert!(client.write_file(CAROL_UID, &file, b"x").is_err());
    client.unmount_all();

    // The branch imports the centre's public database; carol can now
    // authenticate there.
    let export = centre.authserver().export_public_db();
    assert!(!export.is_empty());
    branch.authserver().import_read_only(export);
    client
        .write_file(CAROL_UID, &file, b"imported identity")
        .unwrap();
    // Bob (no account anywhere) still cannot.
    let _ = BOB_UID;
    assert!(client.write_file(BOB_UID, &file, b"nope").is_err());
}
