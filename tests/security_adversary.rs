//! §2.1.2 threat-model tests: "SFS assumes that malicious parties entirely
//! control the network. Attackers can intercept packets, tamper with them,
//! and inject new packets onto the network. … attackers can do no worse
//! than delay the file system's operation or conceal the existence of
//! servers."

use std::sync::Arc;

use sfs::client::ClientError;
use sfs_bench::keys;
use sfs_bench::world::{KeySeeds, World, WorldSpec, UID as ALICE_UID};
use sfs_sim::{Direction, Interceptor, PacketLog, Verdict};
use sfs_telemetry::sync::Mutex;
use sfs_telemetry::Telemetry;

/// Flips one bit in every sealed reply after the first `skip` packets.
struct BitFlipper {
    skip: usize,
    seen: usize,
}

impl Interceptor for BitFlipper {
    fn intercept(&mut self, dir: Direction, bytes: &[u8]) -> Verdict {
        if dir != Direction::Reply {
            return Verdict::Deliver;
        }
        self.seen += 1;
        if self.seen <= self.skip {
            return Verdict::Deliver;
        }
        let mut b = bytes.to_vec();
        let n = b.len();
        b[n / 2] ^= 0x40;
        Verdict::Replace(b)
    }
}

#[test]
fn tampered_traffic_detected_not_accepted() {
    let w = World::build(&WorldSpec::realm(&["fs.example.org"]));
    let (server, client) = (&w.servers[0], &w.clients[0]);
    let path = server.path().clone();
    // Establish a healthy mount first.
    let hello = format!("{}/public/motd", path.full_path());
    assert!(client.read_file(ALICE_UID, &hello).is_ok());

    // Attach a tamperer and force a fresh connection.
    client.unmount_all();
    w.net
        .set_interceptor(Arc::new(Mutex::new(BitFlipper { skip: 4, seen: 0 })));
    // The key negotiation messages (first packets) pass; the sealed NFS
    // traffic afterwards is tampered with. The client must observe an
    // error — never silently wrong data.
    let result = client.read_file(ALICE_UID, &hello);
    match result {
        // A flipped bit in a sealed frame kills the session (Channel /
        // Protocol); if the redial's negotiation is also tampered with,
        // the handshake fails self-certification (KeyMismatch / KeyNeg).
        Err(
            ClientError::Channel(_)
            | ClientError::Protocol(_)
            | ClientError::KeyNeg(_)
            | ClientError::KeyMismatch,
        ) => {}
        other => panic!("tampering must be detected, got {other:?}"),
    }
}

/// Replays the previous request (a classic replay attack).
struct RequestReplayer {
    last: Option<Vec<u8>>,
    armed: bool,
    fired: bool,
}

impl Interceptor for RequestReplayer {
    fn intercept(&mut self, dir: Direction, bytes: &[u8]) -> Verdict {
        if dir != Direction::Request {
            return Verdict::Deliver;
        }
        if self.armed && !self.fired {
            if let Some(prev) = self.last.clone() {
                self.fired = true;
                return Verdict::Replace(prev);
            }
        }
        self.last = Some(bytes.to_vec());
        Verdict::Deliver
    }
}

#[test]
fn replayed_requests_rejected_by_server_channel() {
    // Two identical worlds run the same two reads; in the attacked one
    // the second read's first request is replaced by a replay of the
    // previous request. The server's cipher stream is past the replayed
    // frame, so it can never be opened again: the sequencer recognises
    // a consumed position on the cleartext header and resends the reply
    // it already gave, dispatching nothing. The client drops that stale
    // reply on its header and resends its real request: "attackers can
    // do no worse than delay the file system's operation."
    let run = |attacked: bool| {
        let tel = Telemetry::counters();
        let w = World::build(&WorldSpec::realm(&["fs.example.org"]).traced(&tel));
        let (server, client) = (&w.servers[0], &w.clients[0]);
        let path = server.path().clone();
        let hello = format!("{}/public/motd", path.full_path());
        let replayer = Arc::new(Mutex::new(RequestReplayer {
            last: None,
            armed: false,
            fired: false,
        }));
        w.net.set_interceptor(replayer.clone());
        assert!(client.read_file(ALICE_UID, &hello).is_ok());
        replayer.lock().armed = attacked;
        let started = w.clock.now();
        assert_eq!(
            client
                .read_file(ALICE_UID, &hello)
                .expect("client recovers"),
            b"welcome to fs.example.org".to_vec()
        );
        assert_eq!(replayer.lock().fired, attacked);
        let mount = client.mount(ALICE_UID, &path).unwrap();
        assert_eq!(mount.reconnects(), 0, "no frame may reach a cipher twice");
        (tel, w.clock.now().since(started))
    };
    let (clean, clean_took) = run(false);
    let (attacked, attacked_took) = run(true);
    assert_eq!(attacked.counter("server", "pipeline.retransmits"), 1);
    assert_eq!(attacked.counter("client", "pipeline.stale_frames"), 1);
    assert_eq!(
        attacked.counter("server", "nfs3.calls"),
        clean.counter("server", "nfs3.calls"),
        "the replayed request must not be dispatched"
    );
    assert!(attacked_took > clean_took, "the attack buys a delay only");
}

#[test]
fn recorded_ciphertext_reveals_nothing_recognizable() {
    // Forward secrecy groundwork: the recorded traffic must not contain
    // the plaintext, and the server's long-lived key alone cannot decrypt
    // the session (the key halves protecting the server→client direction
    // were encrypted to the *ephemeral* client key; see
    // `sfs_proto::keyneg` tests for the direct property).
    let w = World::build(&WorldSpec::realm(&["fs.example.org"]));
    let (server, client) = (&w.servers[0], &w.clients[0]);
    let log = PacketLog::new();
    w.net.set_log(log.clone());
    let path = server.path().clone();
    let secret_name = "very-identifiable-filename-xyzzy";
    let file = format!("{}/home/alice/{}", path.full_path(), secret_name);
    client
        .write_file(ALICE_UID, &file, b"very-identifiable-content-plugh")
        .unwrap();
    assert!(log.len() > 4, "expected recorded traffic");
    for (_, packet) in log.snapshot() {
        for needle in [
            &b"very-identifiable-filename-xyzzy"[..],
            b"very-identifiable-content-plugh",
        ] {
            assert!(
                !packet.windows(needle.len()).any(|w| w == needle),
                "plaintext leaked onto the wire"
            );
        }
    }
}

#[test]
fn denial_only_delays_not_corrupts() {
    // An attacker who drops everything causes timeouts — "attackers can
    // do no worse than delay the file system's operation".
    struct DropAll;
    impl Interceptor for DropAll {
        fn intercept(&mut self, _d: Direction, _b: &[u8]) -> Verdict {
            Verdict::Drop
        }
    }
    let w = World::build(&WorldSpec::realm(&["fs.example.org"]));
    let (server, client) = (&w.servers[0], &w.clients[0]);
    w.net.set_interceptor(Arc::new(Mutex::new(DropAll)));
    let hello = format!("{}/public/motd", server.path().full_path());
    let before = w.clock.now();
    let err = client.read_file(ALICE_UID, &hello).unwrap_err();
    assert_eq!(err, ClientError::Net(sfs_sim::WireError::Timeout));
    assert!(
        w.clock.now() > before,
        "time passed (delay), nothing corrupted"
    );
}

#[test]
fn server_without_private_key_cannot_complete_mount() {
    // A machine can *claim* a Location but without K_S⁻¹ it cannot
    // decrypt the client's key halves, so the mount never completes.
    // Simulate by registering a different server object (different key)
    // under the location that alice's pathname expects.
    let mut w = World::build(&WorldSpec::realm(&["fs.example.org"]));
    // Replaces the real server in the registry.
    let imposter = w.add_server("fs.example.org", KeySeeds::REALM.servers[1]);
    let client = &w.clients[0];
    // alice's pathname embeds server key 0; imposter has key 1.
    let victim_path = sfs_proto::pathname::SelfCertifyingPath::for_server(
        "fs.example.org",
        keys::rabin(768, KeySeeds::REALM.servers[0]).public(),
    );
    let err = client.mount(ALICE_UID, &victim_path).unwrap_err();
    // The imposter's key hashes to the wrong HostID: self-certification
    // fails before any key halves are sent.
    assert!(matches!(err, ClientError::KeyMismatch), "{err:?}");
    let _ = imposter;
}
