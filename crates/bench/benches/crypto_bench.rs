//! Micro-benchmarks of the real cryptographic primitives — the
//! quantities §4.2 attributes SFS's costs to (software encryption, MACs,
//! public-key operations). Unlike `sfs-bench figures` (virtual time),
//! these measure genuine CPU time on the host machine. Each group's rows
//! are timed side by side ([`Rows`]), so a rerun repeats them.

use sfs_bench::microbench::{channel_pair, Rows};
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

fn bench_stream_primitives() {
    let mut rows = Rows::new();
    for size in [64usize, 1024, 8192, 65536] {
        let data = vec![0xabu8; size];
        rows.add_throughput(format!("sha1/{size}"), size as u64, move || sha1(&data));
    }
    for size in [1024usize, 8192, 65536] {
        let mut cipher = Arc4::new(b"a-twenty-byte-key!!!");
        let mut buf = vec![0u8; size];
        rows.add_throughput(format!("arc4/{size}"), size as u64, move || {
            cipher.process(&mut buf)
        });
    }
    let key = [7u8; 32];
    for size in [128usize, 8192] {
        let data = vec![1u8; size];
        rows.add_throughput(format!("sfs_mac/{size}"), size as u64, move || {
            SfsMac::compute(&key, &data)
        });
    }
    rows.run();
}

fn bench_blowfish() {
    let mut rows = Rows::new();
    rows.add("blowfish/key_schedule_20B", || {
        Blowfish::new(b"a-twenty-byte-key!!!")
    });
    let bf = Blowfish::new(b"a-twenty-byte-key!!!");
    let mut handle = [0u8; 24];
    rows.add("blowfish/cbc_encrypt_24B_handle", move || {
        bf.cbc_encrypt(&mut handle)
    });
    // The direction every relayed NFS call pays on a handle the
    // server's per-session map has not seen yet.
    let bf = Blowfish::new(b"a-twenty-byte-key!!!");
    let mut handle = [0u8; 24];
    rows.add("blowfish/cbc_decrypt_24B_handle", move || {
        bf.cbc_decrypt(&mut handle)
    });
    rows.run();
}

fn bench_channel() {
    // A metadata-sized frame sealed and opened on the negotiated suite,
    // frame after frame as a channel runs: on AVX-512 every other frame
    // takes its ChaCha20 head from the step that made the previous one.
    let mut rows = Rows::new();
    let (mut tx, mut rx) = channel_pair(SuiteId::ChaCha20Poly1305);
    let payload = [0x5Au8; 128];
    let mut buf = Vec::with_capacity(FRAME_HEADER_LEN + payload.len() + 16);
    rows.add("channel/chacha_seal_open_128B", move || {
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
    rows.add("channel/arc4_seal_open_8K", move || {
        buf.clear();
        buf.extend_from_slice(&[0u8; FRAME_HEADER_LEN]);
        buf.extend_from_slice(&payload);
        tx.seal_into(&mut buf, 0).expect("seal");
        rx.open_in_place(&mut buf).expect("open").len()
    });
    rows.run();
}

fn bench_eksblowfish() {
    let salt = [9u8; 16];
    // "Even as hardware improves, guessing attacks should continue to
    // take almost a full second" — show the cost doubling per step.
    let mut rows = Rows::new();
    for cost in [2u32, 4, 6] {
        rows.add(format!("eksblowfish/bcrypt_cost_{cost}"), move || {
            bcrypt_hash(cost, &salt, b"hunter2")
        });
    }
    rows.run();
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
    let mut rows = Rows::new();
    let mut enc_rng = XorShiftSource::new(1);
    rows.add("rabin_768/encrypt", || {
        key.public().encrypt(msg, &mut enc_rng).unwrap()
    });
    // A decryption's two roots run on two CPUs when the host has them;
    // one root alone is what a one-core machine (the modeled PIII among
    // them) pays twice.
    rows.add("rabin_768/decrypt", || key.decrypt(&cipher).unwrap());
    let p = first_prime(&key.to_bytes());
    rows.add("rabin_768/root_one_prime", move || p.root(&c));
    rows.add("rabin_768/sign", || key.sign(b"a message to sign"));
    rows.add("rabin_768/verify", || {
        assert!(key.public().verify(b"a message to sign", &sig))
    });
    // Every signature a `connect` pays for is made with the 512-bit user
    // key.
    let user_key = sfs_bench::keys::rabin(512, 0xBE4E);
    rows.add("rabin_512/sign", move || {
        user_key.sign(b"a message to sign")
    });
    rows.run();
}

fn bench_keygen() {
    // The four things an `sfs-benchmark` world generates, from its seeds:
    // the user key, the server key, the first client's K_C (drawn as
    // `SfsClient::new` draws it) and the SRP group. Each prime found is
    // one random Miller–Rabin round plus Baillie–PSW.
    let mut rows = Rows::new();
    rows.add("keygen/rabin_512", || {
        generate_keypair(512, &mut XorShiftSource::new(0xB0B))
    });
    rows.add("keygen/rabin_768", || {
        generate_keypair(768, &mut XorShiftSource::new(0x5E4))
    });
    rows.add("keygen/kc_768", || {
        generate_keypair(768, &mut SfsPrg::from_entropy(b"sfs-benchmark-client-0"))
    });
    rows.add("keygen/srp_128", || {
        SrpGroup::generate(128, &mut XorShiftSource::new(0x5A9))
    });
    // What settling one prime costs beyond its random round.
    let server_key = generate_keypair(768, &mut XorShiftSource::new(0x5E4));
    let p = first_prime(&server_key.to_bytes()).modulus().clone();
    rows.add("prime/bpsw_384", move || assert!(baillie_psw(&p)));
    rows.run();
}

/// The prime `p` of a private-key blob (`len || p || len || q`).
fn first_prime(blob: &[u8]) -> BlumPrime {
    let len = u32::from_be_bytes(blob[..4].try_into().unwrap()) as usize;
    BlumPrime::new(&Nat::from_bytes_be(&blob[4..4 + len])).expect("p ≡ 3 (mod 8)")
}

fn bench_twin() {
    // What a root pair pays to hand its second root to the helper thread
    // and take the result back (inline on a one-CPU host).
    let mut rows = Rows::new();
    rows.add("twin/join_round_trip", sfs_bignum::join_round_trip);
    rows.run();
}

fn main() {
    bench_stream_primitives();
    bench_blowfish();
    bench_channel();
    bench_eksblowfish();
    bench_rabin();
    bench_keygen();
    bench_twin();
}
