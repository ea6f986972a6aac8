//! The §2.1.2 threat model, live: an adversary who "entirely controls the
//! network" — intercepting, tampering, and replaying — against the SFS
//! secure channel, plus a man-in-the-middle with its own key pair against
//! self-certifying pathnames.
//!
//! Run with: `cargo run --example attack_demo`

use std::sync::Arc;

use sfs::authserver::AuthServer;
use sfs::client::{ClientError, SfsClient, SfsNetwork};
use sfs::server::{ServerConfig, SfsServer};
use sfs_bignum::XorShiftSource;
use sfs_crypto::rabin::generate_keypair;
use sfs_crypto::srp::SrpGroup;
use sfs_crypto::SfsPrg;
use sfs_proto::pathname::SelfCertifyingPath;
use sfs_sim::{Direction, Interceptor, NetParams, SimClock, SimTime, Transport, Verdict};
use sfs_telemetry::sync::Mutex;
use sfs_vfs::{Credentials, SetAttr, Vfs};

/// Eve logs everything and, when armed, flips one bit per reply.
struct Eve {
    tampering: bool,
    packets_seen: usize,
}

impl Interceptor for Eve {
    fn intercept(&mut self, dir: Direction, _: SimTime, mut bytes: Vec<u8>) -> Verdict {
        self.packets_seen += 1;
        if self.tampering && dir == Direction::Reply && bytes.len() > 32 {
            let n = bytes.len();
            bytes[n / 2] ^= 0x01; // A single flipped bit.
        }
        Verdict::Deliver(bytes)
    }
}

fn main() {
    let clock = SimClock::new();
    let mut rng = XorShiftSource::new(0xE7E);
    let group = SrpGroup::generate(128, &mut rng);

    let vfs = Vfs::new(1, clock.clone());
    let root_creds = Credentials::root();
    let pubdir = vfs.mkdir_p("/pub").unwrap();
    vfs.setattr(
        &root_creds,
        pubdir,
        SetAttr {
            mode: Some(0o755),
            ..Default::default()
        },
    )
    .unwrap();
    vfs.write_file(&root_creds, pubdir, "payroll", b"alice: $1")
        .unwrap();
    let (f, _) = vfs.lookup(&root_creds, pubdir, "payroll").unwrap();
    vfs.setattr(
        &root_creds,
        f,
        SetAttr {
            mode: Some(0o644),
            ..Default::default()
        },
    )
    .unwrap();

    let server = SfsServer::new(
        ServerConfig::new("payroll.example.org"),
        generate_keypair(768, &mut rng),
        vfs,
        Arc::new(AuthServer::new(group.clone(), 2)),
        SfsPrg::from_entropy(b"attack-demo-server"),
    );
    let net = SfsNetwork::new(clock, NetParams::switched_100mbit(Transport::Tcp));
    net.register(server.clone());

    let eve = Arc::new(Mutex::new(Eve {
        tampering: false,
        packets_seen: 0,
    }));
    net.set_interceptor(eve.clone());

    let client = SfsClient::new(net.clone(), b"attack-demo-client");
    let uid = 1000;
    let payroll = format!("{}/pub/payroll", server.path().full_path());

    // Eve passively records: the session still works, and she sees only
    // ciphertext (ARC4 + per-message SHA-1 MACs).
    let data = client
        .read_file(uid, &payroll)
        .expect("passive eavesdropper is harmless");
    println!(
        "with Eve listening ({} packets): read {:?}",
        eve.lock().packets_seen,
        String::from_utf8_lossy(&data)
    );

    // Eve turns active: one flipped bit per reply.
    eve.lock().tampering = true;
    client.unmount_all();
    match client.read_file(uid, &payroll) {
        Err(e) => println!("with Eve tampering: detected and refused -> {e}"),
        Ok(d) => panic!("tampered data accepted: {d:?}"),
    }
    eve.lock().tampering = false;

    // Mallory tries a man-in-the-middle: her own server, her own key, at
    // a location alice trusts. The pathname *is* the key, so the HostID
    // check fails before any file traffic flows.
    let mallory_vfs = Vfs::new(2, client.clock().clone());
    mallory_vfs
        .write_file(
            &Credentials::root(),
            mallory_vfs.root(),
            "payroll",
            b"alice: $0",
        )
        .unwrap();
    let mallory = SfsServer::new(
        ServerConfig::new("payroll.example.org"),
        generate_keypair(768, &mut rng),
        mallory_vfs,
        Arc::new(AuthServer::new(group, 2)),
        SfsPrg::from_entropy(b"mallory"),
    );
    net.register(mallory); // Hijacks the Location in "DNS".
    client.unmount_all();
    // Alice still uses the *real* pathname (it embeds the real server's
    // key); Mallory answers the dial but cannot match the HostID.
    let victim_path: SelfCertifyingPath = server.path().clone();
    match client.mount(uid, &victim_path) {
        Err(ClientError::KeyNeg(e)) => {
            println!("Mallory's MITM server: rejected during key negotiation -> {e}")
        }
        other => panic!("MITM not detected: {other:?}"),
    }
}
