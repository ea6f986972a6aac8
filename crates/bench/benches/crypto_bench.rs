//! Micro-benchmarks of the real cryptographic primitives — the
//! quantities §4.2 attributes SFS's costs to (software encryption, MACs,
//! public-key operations). Unlike `sfs-bench figures` (virtual time),
//! these measure genuine CPU time on the host machine.

use sfs_bench::microbench::{bench, bench_throughput};
use sfs_bignum::XorShiftSource;
use sfs_crypto::arc4::Arc4;
use sfs_crypto::blowfish::Blowfish;
use sfs_crypto::eksblowfish::bcrypt_hash;
use sfs_crypto::mac::SfsMac;
use sfs_crypto::sha1::sha1;

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
    // "Like low-exponent RSA, encryption and signature verification are
    // particularly fast in Rabin because they do not require modular
    // exponentiation" — these four rows show the asymmetry.
    let mut enc_rng = XorShiftSource::new(1);
    bench("rabin_768/encrypt", || {
        key.public().encrypt(msg, &mut enc_rng).unwrap()
    });
    bench("rabin_768/decrypt", || key.decrypt(&cipher).unwrap());
    bench("rabin_768/sign", || key.sign(b"a message to sign"));
    bench("rabin_768/verify", || {
        assert!(key.public().verify(b"a message to sign", &sig))
    });
}

fn main() {
    bench_sha1();
    bench_arc4();
    bench_sfs_mac();
    bench_blowfish();
    bench_eksblowfish();
    bench_rabin();
}
