//! The public read-only dialect end-to-end (§2.4, §3.2): presigned
//! databases served over the wire, replication on untrusted machines,
//! tamper detection, and the crypto-cost asymmetry.

use sfs::wire::{CallMsg, Dialect, ReplyMsg, Service};
use sfs_bench::keys;
use sfs_bench::world::{KeySeeds, World, WorldSpec};
use sfs_proto::keyneg::KeyNegRequest;
use sfs_proto::readonly::{resolve_path, verified_fetch, RoDatabase, RoNode, SignedRoot};
use sfs_vfs::Credentials;
use sfs_xdr::Xdr;

/// Drives the read-only dialect over the wire protocol against a server
/// connection (the read-only client's fetch loop).
struct RoClient<'a> {
    conn: &'a sfs::server::ServerConn,
}

/// One wire round trip: the message goes in as bytes, as the network
/// delivers it.
fn call(conn: &sfs::server::ServerConn, msg: CallMsg) -> ReplyMsg {
    ReplyMsg::from_xdr(&conn.handle_bytes(&msg.to_xdr())).unwrap()
}

impl<'a> RoClient<'a> {
    fn connect(conn: &'a sfs::server::ServerConn, req: KeyNegRequest) -> Self {
        let reply = call(
            conn,
            CallMsg::Hello {
                req,
                service: Service::File,
                dialect: Dialect::ReadOnly,
                version: 1,
                extensions: String::new(),
            },
        );
        assert!(matches!(reply, ReplyMsg::ServerReply(_)), "{reply:?}");
        RoClient { conn }
    }

    fn root(&self) -> SignedRoot {
        match call(self.conn, CallMsg::RoGetRoot) {
            ReplyMsg::RoRoot(root) => root,
            other => panic!("{other:?}"),
        }
    }

    fn block(&self, digest: [u8; 20]) -> Option<Vec<u8>> {
        match call(self.conn, CallMsg::RoGetBlock(digest)) {
            ReplyMsg::RoBlock(b) => Some(b),
            ReplyMsg::Error(_) => None,
            other => panic!("{other:?}"),
        }
    }
}

#[test]
fn read_only_export_served_over_wire() {
    let w = World::build(&WorldSpec::realm(&["ca.example.com"]));
    let server = &w.servers[0];
    server.publish_read_only(1);
    let conn = server.accept();
    let req = KeyNegRequest {
        location: server.path().location.clone(),
        host_id: server.path().host_id,
    };
    let ro = RoClient::connect(&conn, req);
    // The signed root verifies against the key the HostID certifies.
    let root = ro.root();
    assert!(root.verify(keys::rabin(768, KeySeeds::REALM.servers[0]).public()));
    // Walk to /public/motd by fetching blocks, verifying each digest.
    let root_block = ro.block(root.root_digest).expect("root block");
    assert_eq!(sfs_crypto::sha1::sha1(&root_block), root.root_digest);
    let dir = RoNode::from_xdr(&root_block).unwrap();
    let RoNode::Dir(entries) = dir else {
        panic!("root must be a dir")
    };
    let (_, _, pub_digest) = entries.iter().find(|(n, _, _)| n == "public").unwrap();
    let pub_block = ro.block(*pub_digest).expect("pub block");
    assert_eq!(sfs_crypto::sha1::sha1(&pub_block), *pub_digest);
}

#[test]
fn untrusted_replica_cannot_forge() {
    // "Read-only file systems [can] be replicated on untrusted machines":
    // a replica holds the database but no key; any modification it makes
    // is detected by digest or signature checks.
    let w = World::build(&WorldSpec::realm(&["ca.example.com"]));
    let server = &w.servers[0];
    let db = server.publish_read_only(3);

    // The replica copies the database and tampers with a file block.
    let mut replica: RoDatabase = (*db).clone();
    let root = sfs_proto::readonly::verified_root(
        &replica,
        keys::rabin(768, KeySeeds::REALM.servers[0]).public(),
    )
    .unwrap();
    let RoNode::Dir(entries) = verified_fetch(&replica, &root).unwrap() else {
        panic!("root dir")
    };
    let (_, _, pub_digest) = entries.iter().find(|(n, _, _)| n == "public").unwrap();
    assert!(replica.tamper_with_block(pub_digest));
    assert!(verified_fetch(&replica, pub_digest).is_err());

    // Forging a different root requires a signature the replica cannot
    // produce.
    let mut forged = replica.clone();
    forged.root = SignedRoot {
        root_digest: [0u8; 20],
        version: 99,
        signature: vec![0u8; 97],
    };
    assert!(sfs_proto::readonly::verified_root(
        &forged,
        keys::rabin(768, KeySeeds::REALM.servers[0]).public()
    )
    .is_err());
}

#[test]
fn resolve_path_through_snapshot() {
    let w = World::build(&WorldSpec::realm(&["ca.example.com"]));
    let server = &w.servers[0];
    // Add a nested tree before publishing.
    let vfs = server.vfs();
    let root_creds = Credentials::root();
    let d = vfs.mkdir_p("/links/deep").unwrap();
    vfs.symlink(&root_creds, d, "mit", "/sfs/mit:xyz").unwrap();
    let db = server.publish_read_only(1);
    let root = sfs_proto::readonly::verified_root(
        &db,
        keys::rabin(768, KeySeeds::REALM.servers[0]).public(),
    )
    .unwrap();
    match resolve_path(&db, root, "/public/motd").unwrap() {
        RoNode::File(data) => assert_eq!(data, b"welcome to ca.example.com"),
        other => panic!("{other:?}"),
    }
    match resolve_path(&db, root, "/links/deep/mit").unwrap() {
        RoNode::Symlink(t) => assert_eq!(t, "/sfs/mit:xyz"),
        other => panic!("{other:?}"),
    }
}

#[test]
fn republish_changes_root_but_reuses_unchanged_blocks() {
    // "Cryptographic computation … proportional to the file system's size
    // and rate of change": only changed subtrees get new blocks.
    let w = World::build(&WorldSpec::realm(&["ca.example.com"]));
    let server = &w.servers[0];
    let db1 = server.publish_read_only(1);
    // Change one file.
    let vfs = server.vfs();
    let root_creds = Credentials::root();
    let (pub_ino, _) = vfs.lookup_path(&root_creds, "/public").unwrap();
    vfs.write_file(&root_creds, pub_ino, "motd", b"updated contents")
        .unwrap();
    let db2 = server.publish_read_only(2);
    assert_ne!(db1.root.root_digest, db2.root.root_digest);
    assert!(db2.root.version > db1.root.version);
    // The home directory subtree was untouched; its blocks are identical,
    // so the new database shares them (content addressing dedupes).
    let r1 = sfs_proto::readonly::verified_root(
        &db1,
        keys::rabin(768, KeySeeds::REALM.servers[0]).public(),
    )
    .unwrap();
    let r2 = sfs_proto::readonly::verified_root(
        &db2,
        keys::rabin(768, KeySeeds::REALM.servers[0]).public(),
    )
    .unwrap();
    let home1 = match resolve_path(&db1, r1, "/home").unwrap() {
        RoNode::Dir(e) => e,
        other => panic!("{other:?}"),
    };
    let home2 = match resolve_path(&db2, r2, "/home").unwrap() {
        RoNode::Dir(e) => e,
        other => panic!("{other:?}"),
    };
    assert_eq!(home1, home2, "unchanged subtree digests are stable");
}

#[test]
fn read_only_service_needs_dialect_selection() {
    // `sfssd` routes by dialect: read-only fetches on a read-write
    // connection are refused.
    let w = World::build(&WorldSpec::realm(&["ca.example.com"]));
    let server = &w.servers[0];
    server.publish_read_only(1);
    let conn = server.accept();
    assert!(matches!(
        call(&conn, CallMsg::RoGetRoot),
        ReplyMsg::Error(_)
    ));
}

#[test]
fn ro_mount_through_client() {
    // The integrated read-only client: certify, verify root, fetch and
    // cache verified blocks.
    let w = World::build(&WorldSpec::realm(&["mirror.example.com"]));
    let (server, client) = (&w.servers[0], &w.clients[0]);
    server.publish_read_only(7);
    let mount = client.mount_read_only(server.path()).unwrap();
    assert_eq!(mount.version(), 7);
    assert_eq!(
        mount.read_file("/public/motd").unwrap(),
        b"welcome to mirror.example.com"
    );
    assert!(mount.readdir("/").unwrap().contains(&"public".to_string()));
    assert!(mount.read_file("/public/missing").is_err());
    // Content-addressed caching: re-reading takes no further RPCs.
    let before = mount.round_trips();
    mount.read_file("/public/motd").unwrap();
    assert_eq!(mount.round_trips(), before);
}

#[test]
fn ro_mount_rejects_wrong_key() {
    // A pathname naming a different key must fail certification even
    // though the dialect is cleartext.
    let w = World::build(&WorldSpec::realm(&["mirror.example.com"]));
    let (server, client) = (&w.servers[0], &w.clients[0]);
    server.publish_read_only(1);
    let forged = sfs_proto::pathname::SelfCertifyingPath::for_server(
        "mirror.example.com",
        keys::rabin(768, KeySeeds::REALM.servers[1]).public(),
    );
    let err = client.mount_read_only(&forged).unwrap_err();
    assert!(
        matches!(err, sfs::client::ClientError::Protocol(_)),
        "{err:?}"
    );
}
