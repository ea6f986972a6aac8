//! Micro-benchmarks of the real cryptographic primitives — the
//! quantities §4.2 attributes SFS's costs to (software encryption, MACs,
//! public-key operations). Unlike `sfs-bench figures` (virtual time),
//! these measure genuine CPU time on the host machine.

use sfs_bench::microbench::{bench, bench_throughput, channel_pair};
use sfs_bignum::{baillie_psw, BlumPrime, Nat, XorShiftSource};
use sfs_crypto::arc4::Arc4;
use sfs_crypto::blowfish::Blowfish;
use sfs_crypto::eksblowfish::bcrypt_hash;
use sfs_crypto::mac::SfsMac;
use sfs_crypto::rabin::generate_keypair;
use sfs_crypto::sha1::sha1;
use sfs_crypto::srp::SrpGroup;
use sfs_crypto::SfsPrg;
use sfs_proto::channel::{SuiteId, FRAME_HEADER_LEN};

fn bench_sha1() {
    for size in [64usize, 1024, 8192, 65536] {
        let data = vec![0xabu8; size];
        bench_throughput(&format!("sha1/{size}"), size as u64, || sha1(&data));
    }
}

fn bench_arc4() {
    for size in [1024usize, 8192, 65536] {
        let mut cipher = Arc4::new(b"a-twenty-byte-key!!!");
        let mut buf = vec![0u8; size];
        bench_throughput(&format!("arc4/{size}"), size as u64, || {
            cipher.process(&mut buf)
        });
    }
}

fn bench_sfs_mac() {
    let key = [7u8; 32];
    for size in [128usize, 8192] {
        let data = vec![1u8; size];
        bench_throughput(&format!("sfs_mac/{size}"), size as u64, || {
            SfsMac::compute(&key, &data)
        });
    }
}

fn bench_blowfish() {
    bench("blowfish/key_schedule_20B", || {
        Blowfish::new(b"a-twenty-byte-key!!!")
    });
    let bf = Blowfish::new(b"a-twenty-byte-key!!!");
    let mut handle = [0u8; 24];
    bench("blowfish/cbc_encrypt_24B_handle", || {
        bf.cbc_encrypt(&mut handle)
    });
    // The direction every relayed NFS call pays on a handle the
    // server's per-session map has not seen yet.
    bench("blowfish/cbc_decrypt_24B_handle", || {
        bf.cbc_decrypt(&mut handle)
    });
}

fn bench_channel() {
    // A metadata-sized frame sealed and opened on the negotiated suite,
    // frame after frame as a channel runs: on AVX-512 every other frame
    // takes its ChaCha20 head from the step that made the previous one.
    let (mut tx, mut rx) = channel_pair(SuiteId::ChaCha20Poly1305);
    let payload = [0x5Au8; 128];
    let mut buf = Vec::with_capacity(FRAME_HEADER_LEN + payload.len() + 16);
    bench("channel/chacha_seal_open_128B", || {
        buf.clear();
        buf.extend_from_slice(&[0u8; FRAME_HEADER_LEN]);
        buf.extend_from_slice(&payload);
        tx.seal_into(&mut buf, 0).expect("seal");
        rx.open_in_place(&mut buf).expect("open").len()
    });
    // An 8 KiB frame on the paper's suite, which `fleet_mix` runs: where
    // the CPU has SHA-NI, each direction hashes and ciphers in one pass.
    let (mut tx, mut rx) = channel_pair(SuiteId::Arc4Sha1);
    let payload = vec![0x5Au8; 8192];
    let mut buf = Vec::with_capacity(FRAME_HEADER_LEN + payload.len() + 20);
    bench("channel/arc4_seal_open_8K", || {
        buf.clear();
        buf.extend_from_slice(&[0u8; FRAME_HEADER_LEN]);
        buf.extend_from_slice(&payload);
        tx.seal_into(&mut buf, 0).expect("seal");
        rx.open_in_place(&mut buf).expect("open").len()
    });
}

fn bench_eksblowfish() {
    let salt = [9u8; 16];
    // "Even as hardware improves, guessing attacks should continue to
    // take almost a full second" — show the cost doubling per step.
    for cost in [2u32, 4, 6] {
        bench(&format!("eksblowfish/bcrypt_cost_{cost}"), || {
            bcrypt_hash(cost, &salt, b"hunter2")
        });
    }
}

fn bench_rabin() {
    let key = sfs_bench::keys::rabin(768, 0xBE4C);
    let msg = b"16-byte-session!";
    let cipher = key
        .public()
        .encrypt(msg, &mut XorShiftSource::new(0xBE4D))
        .unwrap();
    let sig = key.sign(b"a message to sign");
    let c = Nat::from_bytes_be(&cipher);
    // "Like low-exponent RSA, encryption and signature verification are
    // particularly fast in Rabin because they do not require modular
    // exponentiation" — these four rows show the asymmetry.
    let mut enc_rng = XorShiftSource::new(1);
    bench("rabin_768/encrypt", || {
        key.public().encrypt(msg, &mut enc_rng).unwrap()
    });
    // A decryption's two roots run on two CPUs when the host has them;
    // one root alone is what a one-core machine (the modeled PIII among
    // them) pays twice.
    bench("rabin_768/decrypt", || key.decrypt(&cipher).unwrap());
    let p = first_prime(&key.to_bytes());
    bench("rabin_768/root_one_prime", || p.root(&c));
    bench("rabin_768/sign", || key.sign(b"a message to sign"));
    bench("rabin_768/verify", || {
        assert!(key.public().verify(b"a message to sign", &sig))
    });
    // Every signature a `connect` pays for is made with the 512-bit user
    // key.
    let user_key = sfs_bench::keys::rabin(512, 0xBE4E);
    bench("rabin_512/sign", || user_key.sign(b"a message to sign"));
}

fn bench_keygen() {
    // The four things an `sfs-benchmark` world generates, from its seeds:
    // the user key, the server key, the first client's K_C (drawn as
    // `SfsClient::new` draws it) and the SRP group. Each prime found is
    // one random Miller–Rabin round plus Baillie–PSW.
    bench("keygen/rabin_512", || {
        generate_keypair(512, &mut XorShiftSource::new(0xB0B))
    });
    bench("keygen/rabin_768", || {
        generate_keypair(768, &mut XorShiftSource::new(0x5E4))
    });
    bench("keygen/kc_768", || {
        generate_keypair(768, &mut SfsPrg::from_entropy(b"sfs-benchmark-client-0"))
    });
    bench("keygen/srp_128", || {
        SrpGroup::generate(128, &mut XorShiftSource::new(0x5A9))
    });
    // What settling one prime costs beyond its random round.
    let server_key = generate_keypair(768, &mut XorShiftSource::new(0x5E4));
    let p = first_prime(&server_key.to_bytes()).modulus().clone();
    bench("prime/bpsw_384", || assert!(baillie_psw(&p)));
}

/// The prime `p` of a private-key blob (`len || p || len || q`).
fn first_prime(blob: &[u8]) -> BlumPrime {
    let len = u32::from_be_bytes(blob[..4].try_into().unwrap()) as usize;
    BlumPrime::new(&Nat::from_bytes_be(&blob[4..4 + len])).expect("p ≡ 3 (mod 8)")
}

fn bench_twin() {
    // What a root pair pays to hand its second root to the helper thread
    // and take the result back (inline on a one-CPU host).
    bench("twin/join_round_trip", sfs_bignum::join_round_trip);
}

fn main() {
    bench_sha1();
    bench_arc4();
    bench_sfs_mac();
    bench_blowfish();
    bench_channel();
    bench_eksblowfish();
    bench_rabin();
    bench_keygen();
    bench_twin();
}
