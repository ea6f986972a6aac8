//! Micro-benchmarks of the SFS protocol layers: XDR marshaling, the
//! secure channel (seal/open), HostID computation, the full key
//! negotiation, and user-authentication signing/validation.

use sfs_bench::keys;
use sfs_bench::microbench::{bench, bench_throughput};
use sfs_bignum::XorShiftSource;
use sfs_crypto::rabin::RabinPrivateKey;
use sfs_proto::channel::SecureChannelEnd;
use sfs_proto::keyneg::{server_process_client_keys, KeyNegClient, KeyNegServerReply, SessionKeys};
use sfs_proto::pathname::{HostId, SelfCertifyingPath};
use sfs_proto::userauth::{AuthInfo, AuthMsg};
use sfs_xdr::rpc::{OpaqueAuth, RpcCall, RpcMessage};
use sfs_xdr::Xdr;

fn keypair(seed: u64, bits: usize) -> RabinPrivateKey {
    keys::rabin(bits, seed)
}

fn bench_xdr() {
    let call = RpcMessage::Call(RpcCall {
        xid: 7,
        prog: 100003,
        vers: 3,
        proc: 6,
        cred: OpaqueAuth::sfs_authno(3),
        verf: OpaqueAuth::none(),
        args: vec![0u8; 128],
    });
    bench("xdr/rpc_call_encode", || call.to_xdr());
    let bytes = call.to_xdr();
    bench("xdr/rpc_call_decode", || {
        RpcMessage::from_xdr(&bytes).unwrap()
    });
}

fn bench_channel() {
    let keys = SessionKeys {
        kcs: *b"benchmark-kcs-key-!!",
        ksc: *b"benchmark-ksc-key-!!",
        session_id: [0u8; 20],
    };
    for size in [128usize, 8192] {
        let payload = vec![0u8; size];
        let mut end = SecureChannelEnd::client(&keys);
        bench_throughput(&format!("secure_channel/seal/{size}"), size as u64, || {
            end.seal(&payload).unwrap()
        });
        let mut tx = SecureChannelEnd::client(&keys);
        let mut rx = SecureChannelEnd::server(&keys);
        bench_throughput(
            &format!("secure_channel/seal_open/{size}"),
            size as u64,
            || {
                let f = tx.seal(&payload).unwrap();
                rx.open(&f).unwrap()
            },
        );
    }
}

fn bench_hostid() {
    let key = keypair(1, 768);
    bench("hostid_compute", || {
        HostId::compute("sfs.lcs.mit.edu", key.public())
    });
}

fn bench_key_negotiation() {
    let server = keypair(2, 768);
    let ephemeral = keypair(3, 768);
    let path = SelfCertifyingPath::for_server("bench.example.org", server.public());
    // The full Figure-3 exchange: both sides, four messages.
    bench("key_negotiation/full_exchange_768", || {
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
}

fn bench_user_auth() {
    let user = keypair(6, 512);
    let info = AuthInfo::for_fs("bench.example.org", HostId([1u8; 20]), [2u8; 20]);
    let mut seq = 0u32;
    bench("user_auth/agent_sign", || {
        seq += 1;
        AuthMsg::sign(&user, &info, seq)
    });
    let msg = AuthMsg::sign(&user, &info, 1);
    bench("user_auth/authserver_verify", || {
        msg.verify(&info.auth_id(), 1).unwrap()
    });
}

fn main() {
    bench_xdr();
    bench_channel();
    bench_hostid();
    bench_key_negotiation();
    bench_user_auth();
}
