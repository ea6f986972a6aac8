//! Micro-benchmarks of the SFS protocol layers: the secure channel
//! (seal/open), HostID computation, the full key negotiation, and
//! user-authentication signing/validation. Each group's rows are timed
//! side by side ([`Rows`]), so a rerun repeats them.

use sfs_bench::keys;
use sfs_bench::microbench::Rows;
use sfs_bignum::XorShiftSource;
use sfs_crypto::rabin::RabinPrivateKey;
use sfs_proto::channel::SecureChannelEnd;
use sfs_proto::keyneg::{server_process_client_keys, KeyNegClient, KeyNegServerReply, SessionKeys};
use sfs_proto::pathname::{HostId, SelfCertifyingPath};
use sfs_proto::userauth::{AuthInfo, AuthMsg};

fn keypair(seed: u64, bits: usize) -> RabinPrivateKey {
    keys::rabin(bits, seed)
}

fn bench_channel() {
    let keys = SessionKeys {
        kcs: *b"benchmark-kcs-key-!!",
        ksc: *b"benchmark-ksc-key-!!",
        session_id: [0u8; 20],
    };
    let mut rows = Rows::new();
    for size in [128usize, 8192] {
        let payload = vec![0u8; size];
        let mut end = SecureChannelEnd::client(&keys);
        let sealed = payload.clone();
        rows.add_throughput(
            format!("secure_channel/seal/{size}"),
            size as u64,
            move || end.seal(&sealed).unwrap(),
        );
        let mut tx = SecureChannelEnd::client(&keys);
        let mut rx = SecureChannelEnd::server(&keys);
        rows.add_throughput(
            format!("secure_channel/seal_open/{size}"),
            size as u64,
            move || {
                let f = tx.seal(&payload).unwrap();
                rx.open(&f).unwrap()
            },
        );
    }
    rows.run();
}

fn bench_hostid() {
    let key = keypair(1, 768);
    let mut rows = Rows::new();
    rows.add("hostid_compute", || {
        HostId::compute("sfs.lcs.mit.edu", key.public())
    });
    rows.run();
}

fn bench_key_negotiation() {
    let server = keypair(2, 768);
    let ephemeral = keypair(3, 768);
    let path = SelfCertifyingPath::for_server("bench.example.org", server.public());
    // The full Figure-3 exchange: both sides, four messages.
    let mut rows = Rows::new();
    rows.add("key_negotiation/full_exchange_768", || {
        let mut crng = XorShiftSource::new(4);
        let mut srng = XorShiftSource::new(5);
        let client = KeyNegClient::new(path.clone(), ephemeral.clone());
        let reply = KeyNegServerReply::ServerKey(server.public().to_bytes());
        let (awaiting, msg3) = client.on_server_reply(&reply, &mut crng).unwrap();
        let (skeys, _suite, msg4) =
            server_process_client_keys(&server, &msg3, "", &mut srng).unwrap();
        let (ckeys, _) = awaiting.on_server_halves(&msg4).unwrap();
        assert_eq!(skeys.session_id, ckeys.session_id);
    });
    rows.run();
}

fn bench_user_auth() {
    let user = keypair(6, 512);
    let info = AuthInfo::for_fs("bench.example.org", HostId([1u8; 20]), [2u8; 20]);
    let mut seq = 0u32;
    let msg = AuthMsg::sign(&user, &info, 1);
    let mut rows = Rows::new();
    rows.add("user_auth/agent_sign", || {
        seq += 1;
        AuthMsg::sign(&user, &info, seq)
    });
    rows.add("user_auth/authserver_verify", || {
        msg.verify(&info.auth_id(), 1).unwrap()
    });
    rows.run();
}

fn main() {
    bench_channel();
    bench_hostid();
    bench_key_negotiation();
    bench_user_auth();
}
