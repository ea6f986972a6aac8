//! The §2.4 read-only replica fleet behind the relay: keyless replicas
//! serve a signed distribution bundle, clients verify every block
//! against the HostID, and the mount fails over between replicas —
//! including away from lying ones — without any of them ever holding a
//! private key.

use std::sync::Arc;

use sfs::client::{SfsClient, SfsNetwork};
use sfs::roclient::RoMount;
use sfs::server::RoReplicaServer;
use sfs_bench::keys;
use sfs_crypto::rabin::RabinPrivateKey;
use sfs_proto::pathname::SelfCertifyingPath;
use sfs_proto::readonly::RoDatabase;
use sfs_relay::ReplicaGroup;
use sfs_sim::{NetParams, SimClock, Transport};
use sfs_vfs::{Credentials, Vfs};

const LOCATION: &str = "ro.lcs.mit.edu";

fn publisher_key() -> RabinPrivateKey {
    keys::rabin(768, 0xD1D1)
}

fn client_ephemeral() -> RabinPrivateKey {
    keys::rabin(768, 0xE9E9)
}

/// Publishes a small tree and returns the signed distribution bundle.
fn published_bundle() -> Vec<u8> {
    let vfs = Vfs::new(11, SimClock::new());
    let creds = Credentials::root();
    vfs.write_file(&creds, vfs.root(), "README", b"replicated, keyless")
        .unwrap();
    let sub = vfs.mkdir_p("/docs").unwrap();
    vfs.write_file(&creds, sub, "paper.txt", &[0x42; 4096])
        .unwrap();
    RoDatabase::publish(&vfs, &publisher_key(), 3).export()
}

/// A network with `n` keyless replicas of the bundle behind a relay.
fn fleet(
    n: usize,
) -> (
    Arc<SfsNetwork>,
    Arc<ReplicaGroup>,
    Vec<Arc<RoReplicaServer>>,
) {
    let path = SelfCertifyingPath::for_server(LOCATION, publisher_key().public());
    let bundle = published_bundle();
    let group = ReplicaGroup::new(path);
    let mut replicas = Vec::new();
    for _ in 0..n {
        let replica =
            RoReplicaServer::from_bundle(LOCATION, publisher_key().public(), &bundle).unwrap();
        group.add_ro(replica.clone());
        replicas.push(replica);
    }
    let net = SfsNetwork::new(SimClock::new(), NetParams::switched_100mbit(Transport::Tcp));
    net.register_relay(LOCATION, group.clone());
    (net, group, replicas)
}

fn path() -> SelfCertifyingPath {
    SelfCertifyingPath::for_server(LOCATION, publisher_key().public())
}

#[test]
fn keyless_fleet_serves_verified_reads() {
    let (net, group, replicas) = fleet(3);
    let client = SfsClient::with_ephemeral(net, b"ro-fleet-client", client_ephemeral());
    let mount = client.mount_read_only(&path()).unwrap();
    assert_eq!(mount.version(), 3);
    assert_eq!(mount.read_file("/README").unwrap(), b"replicated, keyless");
    assert_eq!(
        mount.read_file("/docs/paper.txt").unwrap(),
        vec![0x42; 4096]
    );
    assert_eq!(mount.failovers(), 0);
    assert_eq!(group.health_check().live_ro, 3);
    // Exactly one replica carries this mount's stream.
    let attached: u64 = replicas.iter().map(|r| r.load().streams()).sum();
    assert_eq!(attached, 1);
}

#[test]
fn dials_round_robin_across_replicas() {
    let (net, _group, replicas) = fleet(3);
    // Three concurrent mounts: the relay spreads them one per replica.
    let mounts: Vec<RoMount> = (0..3)
        .map(|_| {
            let (wire, conn) = net.dial_ro(LOCATION).unwrap();
            RoMount::connect(path(), wire, conn).unwrap()
        })
        .collect();
    for replica in &replicas {
        assert_eq!(replica.load().streams(), 1, "uneven routing");
    }
    drop(mounts);
    for replica in &replicas {
        assert_eq!(replica.load().streams(), 0, "load must detach on drop");
    }
}

#[test]
fn mount_fails_over_when_its_replica_dies() {
    let (net, group, replicas) = fleet(2);
    let client = SfsClient::with_ephemeral(net, b"ro-failover-client", client_ephemeral());
    let mount = client.mount_read_only(&path()).unwrap();
    assert_eq!(mount.read_file("/README").unwrap(), b"replicated, keyless");
    // Kill both replicas' service, then revive only the one the mount is
    // NOT attached to — the next uncached read must hand over.
    let attached = replicas
        .iter()
        .position(|r| r.load().streams() > 0)
        .expect("mount is attached somewhere");
    replicas[attached].set_down(true);
    let health = group.health_check();
    assert_eq!(health.live_ro, 1);
    assert_eq!(health.down_ro, 1);
    let data = mount.read_file("/docs/paper.txt").unwrap();
    assert_eq!(data, vec![0x42; 4096]);
    assert!(mount.failovers() >= 1, "the dead replica forced a handoff");
    assert_eq!(
        replicas[1 - attached].load().streams(),
        1,
        "the mount now streams from the survivor"
    );
}

#[test]
fn mount_abandons_lying_replica() {
    let (net, _group, replicas) = fleet(2);
    // One replica turns malicious: it re-imports a bundle whose README
    // block was tampered with, so the block no longer hashes to its
    // digest. (It cannot re-sign the tree — no key — so the root still
    // names the honest digest.)
    let vfs = Vfs::new(11, SimClock::new());
    let creds = Credentials::root();
    vfs.write_file(&creds, vfs.root(), "README", b"replicated, keyless")
        .unwrap();
    let sub = vfs.mkdir_p("/docs").unwrap();
    vfs.write_file(&creds, sub, "paper.txt", &[0x42; 4096])
        .unwrap();
    let mut evil_db = RoDatabase::publish(&vfs, &publisher_key(), 3);
    let root = evil_db.root.root_digest;
    assert!(evil_db.tamper_with_block(&root));
    let client = SfsClient::with_ephemeral(net, b"ro-evil-client", client_ephemeral());
    let mount = client.mount_read_only(&path()).unwrap();
    let attached = replicas
        .iter()
        .position(|r| r.load().streams() > 0)
        .unwrap();
    replicas[attached].install(Arc::new(evil_db));
    // The tampered root block fails verification; the mount silently
    // moves to the honest replica and the read succeeds.
    assert_eq!(mount.read_file("/README").unwrap(), b"replicated, keyless");
    assert!(mount.failovers() >= 1, "the lying replica forced a handoff");
}

#[test]
fn keyless_replica_refuses_read_write_dialect() {
    use sfs::server::RoConnection;
    use sfs_proto::keyneg::KeyNegRequest;
    use sfs_xdr::Xdr;
    let (_, _, replicas) = fleet(1);
    let conn = replicas[0].accept();
    let hello = sfs::wire::CallMsg::Hello {
        req: KeyNegRequest {
            location: LOCATION.into(),
            host_id: path().host_id,
        },
        service: sfs::wire::Service::File,
        dialect: sfs::wire::Dialect::ReadWrite,
        version: 1,
        extensions: String::new(),
    };
    let reply = sfs::wire::ReplyMsg::from_xdr(&conn.handle_ro_bytes(&hello.to_xdr())).unwrap();
    match reply {
        sfs::wire::ReplyMsg::Error(e) => assert!(
            e.contains("no private key"),
            "refusal must name the reason: {e}"
        ),
        other => panic!("read-write hello must be refused, got {other:?}"),
    }
}

#[test]
fn relay_telemetry_counts_routes_and_health() {
    use sfs_telemetry::{Telemetry, ZeroClock};
    let (net, group, replicas) = fleet(2);
    let tel = Telemetry::recording(ZeroClock);
    group.set_telemetry(&tel);
    let client = SfsClient::with_ephemeral(net, b"ro-tel-client", client_ephemeral());
    let mount = client.mount_read_only(&path()).unwrap();
    assert_eq!(tel.counter("relay", "route.ro"), 1);
    group.health_check();
    assert_eq!(tel.gauge("relay", "health.ro_live"), 2);
    assert_eq!(tel.gauge("relay", "health.ro_down"), 0);
    // A down replica flips the gauges on the next check, and the
    // failover that follows is another routed dial.
    replicas[0].set_down(true);
    replicas[1].set_down(true);
    let _ = mount.read_file("/README");
    group.health_check();
    assert_eq!(tel.gauge("relay", "health.ro_down"), 2);
    assert!(
        tel.counter("relay", "route.ro_unroutable") + tel.counter("relay", "route.rw_unroutable")
            >= 1,
        "a dark fleet must surface as unroutable dials"
    );
}

#[test]
fn all_replicas_down_is_a_clean_error() {
    let (net, _group, replicas) = fleet(2);
    let client = SfsClient::with_ephemeral(net, b"ro-dark-client", client_ephemeral());
    let mount = client.mount_read_only(&path()).unwrap();
    for r in &replicas {
        r.set_down(true);
    }
    // Uncached read: every failover attempt lands on a down replica.
    let err = mount.read_file("/docs/paper.txt").unwrap_err();
    assert!(
        matches!(err, sfs::roclient::RoClientError::Unavailable(_)),
        "expected Unavailable, got {err:?}"
    );
}
