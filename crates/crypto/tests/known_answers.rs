//! Known-answer vectors recorded from the division-based `modpow` and the
//! per-operation `crt_pair` that preceded the Montgomery kernel and the
//! key-held CRT context, and AEAD frames recorded from the scalar
//! Poly1305 and the separately keyed ChaCha20 that preceded the vector
//! MAC tier and the fused first step.
//!
//! Every committed virtual-clock artifact and the 21-plan coherence oracle
//! depend on keys, signatures and ciphertexts being a pure function of the
//! seed. These vectors are that function's values at fixed points: if any
//! arithmetic change moves one bit of a prime, a root or an SRP secret, this
//! file fails before a benchmark diff has to find it.

use sfs_bignum::{Nat, XorShiftSource};
use sfs_crypto::chachapoly;
use sfs_crypto::rabin::{generate_keypair, RabinPrivateKey, RabinSignature};
use sfs_crypto::sha1::sha1;
use sfs_crypto::srp::{compute_verifier, SrpClient, SrpGroup, SrpServer};

fn hex(b: &[u8]) -> String {
    b.iter().map(|x| format!("{x:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect()
}

/// `(p, q)` out of the private-key serialization (length-prefixed each).
fn primes(key: &RabinPrivateKey) -> (Nat, Nat) {
    let blob = key.to_bytes();
    let p_len = u32::from_be_bytes(blob[..4].try_into().unwrap()) as usize;
    (
        Nat::from_bytes_be(&blob[4..4 + p_len]),
        Nat::from_bytes_be(&blob[8 + p_len..]),
    )
}

struct RabinVector {
    bits: usize,
    seed: u64,
    p: &'static str,
    q: &'static str,
    sig: &'static str,
    sig_empty: &'static str,
    ciphertext: &'static str,
}

const MESSAGE: &[u8] = b"known-answer: AuthMsg";
const PLAINTEXT: &[u8] = b"known-answer halves";

const RABIN_VECTORS: [RabinVector; 2] = [
    RabinVector {
        bits: 768,
        seed: 0x4B41_5437,
        p: "9bf201bbbe0faa5fb058146ed12e2fa19ba7856b87d022bab29c5a61e48a5df4\
            4cff6c3f8220d19dc409149fb8056213",
        q: "baead4e00ba855b1d1ba51cb23a90d10b1685b06f0d6272e46bb16bcbdc15528\
            2ceba91fb37d95949e406b2a2418ae07",
        sig: "011bf36a01e79440dc61ea6963403d149469b4c7ede01f3cfd10d2f60e7d0991\
              ad5cb3d25603e362a41638d7115023abad3a860befe80500b0a280d1ca2489cf\
              0a889e3dec88e5020341aeb24e566be3e374b1b744af6a31ff1c43090007bd31\
              06",
        sig_empty: "001ee3ac8a87c6b4c0598c7c961036d7561d73eb77ac1bffb4b0ee6a6e258999\
                    37d4da826a4e23e663411e33b22c1c6525eb4db45915718cff563aeff68beec8\
                    a6e106767a38d86473cbf3cf003ed4d863f341582efad70f9a32be4648196dfd\
                    c2",
        ciphertext: "38864db0025e919796e3e1f5b5d0d0c64d4827a37507c29f21a0a8e4948efe0a\
                     7029581ee3d970dbe0900acab7de2387bc88b14b96986f0b9e69f8dd12de0269\
                     410d6fa13ec30c8480661299802808f3e69cf6b673b2dc4201af93f12c152e0e",
    },
    RabinVector {
        bits: 512,
        seed: 0x4B41_5435,
        p: "90259f71408f0ba5b6c8f310d9c63e402548b9f81fdbe6c86b61ec00f93437ab",
        q: "f773a48ea9ec4d07b0c7b1b858ffbec8866bd1f618f6a58f09fead065ae760f7",
        sig: "013ca10bb10f3ef2cb54739c64763ae0c1aef48af58b7c746c9c2e396bee922e\
              de6a47649b84c28d84e56734f241acf7fcbabb86ea71cf84715e989c30549743\
              1a",
        sig_empty: "0210e01a105b6337b1a738488ecd57c00ec2c54b2ea03ddcaef7be229e0ff875\
                    c4b5c8eaadef6ca1e1ca000ce75abb37691650c3a1a4212cc50cb45acb75e28c\
                    12",
        ciphertext: "1a7e9fd9f9f677c14b76d8f8bcd351dc89cbbb0101990f4da61191c2e94bc3aa\
                     3049882f22effea8f6541729d1971dadd3d9403f602a9dc33e89bffa98c96eab",
    },
];

#[test]
fn rabin_keys_signatures_and_ciphertexts_are_pinned() {
    for v in &RABIN_VECTORS {
        let key = generate_keypair(v.bits, &mut XorShiftSource::new(v.seed));
        let (p, q) = primes(&key);
        assert_eq!(p.to_hex(), v.p, "p at {} bits", v.bits);
        assert_eq!(q.to_hex(), v.q, "q at {} bits", v.bits);

        let k = key.public().len();
        assert_eq!(hex(&key.sign(MESSAGE).to_bytes(k)), v.sig);
        assert_eq!(hex(&key.sign(b"").to_bytes(k)), v.sig_empty);
        let sig = RabinSignature::from_bytes(&unhex(v.sig)).unwrap();
        assert!(key.public().verify(MESSAGE, &sig));

        // Encryption is one squaring and must still produce these bytes;
        // decryption must invert the recorded ciphertext, not just its own.
        let mut pad_rng = XorShiftSource::new(v.seed ^ 0xFF);
        let fresh = key.public().encrypt(PLAINTEXT, &mut pad_rng).unwrap();
        assert_eq!(hex(&fresh), v.ciphertext);
        assert_eq!(key.decrypt(&unhex(v.ciphertext)).unwrap(), PLAINTEXT);

        // A key rebuilt from its serialization carries the same context.
        let reparsed = RabinPrivateKey::from_bytes(&key.to_bytes()).unwrap();
        assert_eq!(hex(&reparsed.sign(MESSAGE).to_bytes(k)), v.sig);
        assert_eq!(reparsed.decrypt(&unhex(v.ciphertext)).unwrap(), PLAINTEXT);
    }
}

#[test]
fn srp_exchange_is_pinned() {
    let mut rng = XorShiftSource::new(0x5A9);
    let group = SrpGroup::generate(128, &mut rng);
    assert_eq!(group.n.to_hex(), "cbad5c5169b8069f99f1519b2cd376b7");

    let salt = b"0123456789abcdef";
    let v = compute_verifier(&group, "alice", b"correct horse", salt);
    assert_eq!(v.to_hex(), "7f6c3d490afb522fa9d091b9cabf3d24");

    let (client, a_pub) = SrpClient::start(&group, "alice", b"correct horse", &mut rng);
    let (server, b_pub) = SrpServer::start(&group, "alice", salt, &v, &mut rng);
    assert_eq!(a_pub.to_hex(), "c535f4cfdbf8d18731aafab30d5be3c7");
    assert_eq!(b_pub.to_hex(), "5469d3a56717e0b72fcc0a0916807195");

    let cs = client.process(salt, &b_pub).unwrap();
    let ss = server.process(&a_pub, &cs.m1).unwrap();
    cs.verify_server(&ss.m2).unwrap();
    assert_eq!(hex(&cs.key), "99b901b2212f751c46c023adc14c31c5d693d337");
    assert_eq!(ss.key, cs.key);
    assert_eq!(hex(&cs.m1), "5fa43e921d9c7b04cacf3ce7e82fa0acbfc2c3f1");
    assert_eq!(hex(&ss.m2), "26da2e886cf8a155cc5cf39797534ea61bc498e7");
}

#[test]
fn srp_verifier_in_the_1024_bit_group_is_pinned() {
    // A 16-limb modulus, four times the width the Rabin vectors reach.
    let v = compute_verifier(
        SrpGroup::rfc5054_1024(),
        "alice",
        b"correct horse",
        b"0123456789abcdef",
    );
    assert_eq!(
        v.to_hex(),
        "8efb19876a8639cbeafffcf5f6e62369a4c7eb54c511237bc5bc597642e0fd04\
         6be4d672d39eb6da8097ac94807c169649bcb2c74f6f18972f830837e2b109d0\
         b840169c3d1e527261726a78e0cc70b223a781621cf37547726530ce2b3fee92\
         1718e2bbb67b9120178a010c2b4d0d825b095721292d94680edabfec0f90bf48"
    );
}

/// One sealed frame: SHA-1 of the ciphertext, the tag with no associated
/// data (the secure channel's use) and the tag under `AEAD_AAD`.
struct AeadVector {
    len: usize,
    ct_sha1: &'static str,
    tag: &'static str,
    tag_aad: &'static str,
}

const AEAD_AAD: &[u8] = b"sfs-kat";

/// Lengths on both sides of the first ChaCha20 step's reach (448 payload
/// bytes after the key block), of a whole 512-byte step, and bulk frames
/// with and without a tail.
const AEAD_VECTORS: [AeadVector; 13] = [
    AeadVector {
        len: 0,
        ct_sha1: "da39a3ee5e6b4b0d3255bfef95601890afd80709",
        tag: "9c7377ead8641db92eb7f7ab8e924e7b",
        tag_aad: "5187987606d26e62daa65b0cfe0830f7",
    },
    AeadVector {
        len: 1,
        ct_sha1: "9034aaf45143996a2b14465c352ab0c6fa26b221",
        tag: "2aa192dc69e3623b5d305cf9af4d14cb",
        tag_aad: "8c158b98be07dd8aa03c63c946cd22f6",
    },
    AeadVector {
        len: 63,
        ct_sha1: "84556cd405fcc5af81072f3a846a56cb2acaab79",
        tag: "f77279af8465faac7225f1befe82ac03",
        tag_aad: "26048f0373af766170bd3b18432e8aca",
    },
    AeadVector {
        len: 64,
        ct_sha1: "79afdb7dec899b3694d0e32c3253f495b3c7be7d",
        tag: "213853c438a40a0fc29d68021e7f1979",
        tag_aad: "50c9681827ee86c3bf35b35b622af73f",
    },
    AeadVector {
        len: 65,
        ct_sha1: "fa212bfab5aa2e4c239adfd10daa3c651175a40c",
        tag: "59fd99496fafda4606679cffe9069b21",
        tag_aad: "0ad08c13df67cf1d91072c4c0718bc3c",
    },
    AeadVector {
        len: 447,
        ct_sha1: "38e6dab80d7cfeee64fd0a48c8469d75257183ba",
        tag: "5fb64c565e782b332f003b168ef6d248",
        tag_aad: "e1b41d6166ee9a1b97ffa2ea584e61df",
    },
    AeadVector {
        len: 448,
        ct_sha1: "88035b9d0478ec65da58867b1c7329902498eae8",
        tag: "60ad6874deeaaa6d1774021b9a89a532",
        tag_aad: "e2ab397fe6601a567f736aef64e133c9",
    },
    AeadVector {
        len: 449,
        ct_sha1: "93b5dc52e362f43f39c33319ac2610f5c6c4b203",
        tag: "6859328e0a8750f83f583e063f68bb46",
        tag_aad: "78d777688ef510ce7747fa4a9f85b49f",
    },
    AeadVector {
        len: 511,
        ct_sha1: "870aec29657341b4408fb3b7ac31f91ec6cf27dc",
        tag: "97edb8524ff845d8bbb478207770cf10",
        tag_aad: "1144c3c3068d55c42f130b2148293806",
    },
    AeadVector {
        len: 512,
        ct_sha1: "18d764ea1f03b23b2104b244ebf69b3264f13399",
        tag: "a7657c17280f974a63d9dfbc28a0c629",
        tag_aad: "21bc8688dfa3a636d73772bdf9582f1f",
    },
    AeadVector {
        len: 513,
        ct_sha1: "d761c249f37ce8d31af66bbe9992c4ff471f76c2",
        tag: "659d853ae28b2f65405092ea8107adb1",
        tag_aad: "245a669f5fae7b0d00b5f5f9f92fa98f",
    },
    AeadVector {
        len: 8192,
        ct_sha1: "714c03db7a4a1f3d29b70ac2067595ea2f271161",
        tag: "84d61016dd44dbff478945ca42579299",
        tag_aad: "beac2da7d2b9c49e0cdc89438ed2f549",
    },
    AeadVector {
        len: 8320,
        ct_sha1: "ecc64a4eb23a5a51e1beb3190706e807ecc4cda1",
        tag: "64ee983cef687d722e985774979be459",
        tag_aad: "b3f77dfaa07f2b0c795ad02856e36eea",
    },
];

#[test]
fn aead_frames_are_pinned() {
    let key: [u8; 32] = core::array::from_fn(|i| (i as u8).wrapping_mul(11).wrapping_add(0x4b));
    let nonce: [u8; 12] = core::array::from_fn(|i| 0xa0 + i as u8);
    for v in &AEAD_VECTORS {
        let plaintext: Vec<u8> = (0..v.len).map(|i| (i * 31 % 253) as u8).collect();
        let mut ct = plaintext.clone();
        let tag = chachapoly::seal_in_place(&key, &nonce, &[], &mut ct);
        assert_eq!(hex(&sha1(&ct)), v.ct_sha1, "ciphertext, len {}", v.len);
        assert_eq!(hex(&tag), v.tag, "tag, len {}", v.len);
        let mut with_aad = plaintext.clone();
        let tag_aad = chachapoly::seal_in_place(&key, &nonce, AEAD_AAD, &mut with_aad);
        assert_eq!(
            with_aad, ct,
            "associated data must not reach the ciphertext"
        );
        assert_eq!(hex(&tag_aad), v.tag_aad, "tag with aad, len {}", v.len);
        // And the recorded frame opens: the receive side runs the same
        // fused first step in the other order.
        chachapoly::open_in_place(&key, &nonce, &[], &mut ct, &unhex(v.tag)).expect("authentic");
        assert_eq!(ct, plaintext, "opened, len {}", v.len);
    }
}
