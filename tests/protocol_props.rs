//! Property-style tests over the protocol layers: wire formats must
//! round-trip for arbitrary values, the secure channel must be lossless
//! and tamper-evident for arbitrary payloads, and the namespace encodings
//! must be total on their domains.
//!
//! Inputs are driven by a seeded SplitMix64 generator, so every run
//! explores the same (large) sample deterministically.

use sfs_crypto::sha1::sha1;
use sfs_proto::channel::SecureChannelEnd;
use sfs_proto::keyneg::SessionKeys;
use sfs_proto::pathname::{base32_decode, base32_encode, HostId, SelfCertifyingPath};
use sfs_proto::userauth::SeqWindow;
use sfs_xdr::{XdrDecoder, XdrEncoder};

/// Deterministic SplitMix64 input generator.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.next() as u8).collect()
    }

    fn array20(&mut self) -> [u8; 20] {
        let mut out = [0u8; 20];
        for b in &mut out {
            *b = self.next() as u8;
        }
        out
    }

    fn string(&mut self, alphabet: &[u8], len: usize) -> String {
        (0..len)
            .map(|_| alphabet[self.below(alphabet.len() as u64) as usize] as char)
            .collect()
    }
}

fn session_keys(seed: u8) -> SessionKeys {
    SessionKeys {
        kcs: sha1(&[seed, 1]),
        ksc: sha1(&[seed, 2]),
        session_id: sha1(&[seed, 3]),
    }
}

#[test]
fn base32_roundtrips() {
    let mut rng = Rng::new(0xB32);
    for _ in 0..256 {
        let bytes = rng.array20();
        let s = base32_encode(&bytes);
        assert_eq!(s.len(), 32);
        assert_eq!(base32_decode(&s).unwrap(), bytes);
        // The alphabet never contains the confusing characters.
        assert!(!s.contains(['l', '1', '0', 'o']));
    }
}

#[test]
fn pathname_roundtrips() {
    let mut rng = Rng::new(0xAA7);
    for i in 0..256 {
        let bytes = rng.array20();
        let head = rng.string(b"abcdefghijklmnopqrstuvwxyz", 1);
        let tail_len = rng.below(31) as usize;
        let loc = format!(
            "{}{}",
            head,
            rng.string(b"abcdefghijklmnopqrstuvwxyz0123456789.-", tail_len)
        );
        let path = SelfCertifyingPath {
            location: loc,
            host_id: HostId(bytes),
        };
        let mut full = path.full_path();
        if i % 2 == 0 {
            full.push('/');
            let rest_len = 1 + rng.below(40) as usize;
            full.push_str(&rng.string(
                b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789/._-",
                rest_len,
            ));
        }
        let (parsed, _) = SelfCertifyingPath::parse_full(&full).unwrap();
        assert_eq!(parsed, path);
    }
}

#[test]
fn xdr_opaque_roundtrips() {
    let mut rng = Rng::new(0x0DA);
    for _ in 0..256 {
        let len = rng.below(300) as usize;
        let data = rng.bytes(len);
        let mut enc = XdrEncoder::new();
        enc.put_opaque(&data);
        let mut dec = XdrDecoder::new(enc.bytes());
        assert_eq!(dec.get_opaque().unwrap(), data);
        dec.finish().unwrap();
    }
}

#[test]
fn channel_roundtrips_arbitrary_payload_sequences() {
    let mut rng = Rng::new(0xC4A);
    for seed in 0..48u8 {
        let keys = session_keys(seed);
        let mut tx = SecureChannelEnd::client(&keys);
        let mut rx = SecureChannelEnd::server(&keys);
        for _ in 0..(1 + rng.below(11)) {
            let len = rng.below(600) as usize;
            let p = rng.bytes(len);
            let frame = tx.seal(&p).unwrap();
            assert_eq!(rx.open(&frame).unwrap(), p);
        }
    }
}

#[test]
fn channel_detects_arbitrary_bitflips() {
    let mut rng = Rng::new(0xF11);
    for seed in 0..64u8 {
        let keys = session_keys(seed);
        let mut tx = SecureChannelEnd::client(&keys);
        let mut rx = SecureChannelEnd::server(&keys);
        let len = 1 + rng.below(300) as usize;
        let payload = rng.bytes(len);
        let mut frame = tx.seal(&payload).unwrap();
        let i = rng.below(frame.len() as u64) as usize;
        frame[i] ^= 1 << rng.below(8);
        assert!(rx.open(&frame).is_err(), "flipped bit must be detected");
        assert!(rx.is_poisoned());
    }
}

#[test]
fn seq_window_matches_reference_model() {
    // Reference: accept iff not seen before AND not older than
    // (max_seen + 1 - window).
    let mut rng = Rng::new(0x5E9);
    for _ in 0..128 {
        let window = 16u32;
        let mut w = SeqWindow::new(window);
        let mut seen = std::collections::HashSet::new();
        let mut high: Option<u32> = None;
        for _ in 0..(1 + rng.below(79)) {
            let s = rng.below(64) as u32;
            let expect = match high {
                None => seen.insert(s),
                Some(h) => {
                    if s > h {
                        seen.insert(s)
                    } else if h - s >= window {
                        false
                    } else {
                        seen.insert(s)
                    }
                }
            };
            let got = w.accept(s);
            assert_eq!(got, expect, "seq {s} (high {high:?})");
            if got {
                high = Some(high.map_or(s, |h| h.max(s)));
            }
        }
    }
}

#[test]
fn hostid_is_deterministic_and_injective_looking() {
    // HostIDs for different locations under the same key differ (a
    // collision would be a SHA-1 collision).
    let mut rng = Rng::new(0x1D);
    let n = sfs_bignum::Nat::from_hex("c3a7f1").unwrap();
    let key = sfs_crypto::rabin::RabinPublicKey::from_modulus(n);
    for _ in 0..128 {
        let len_a = 1 + rng.below(12) as usize;
        let loc_a = rng.string(b"abcdefghijklmnopqrstuvwxyz", len_a);
        let len_b = 1 + rng.below(12) as usize;
        let loc_b = rng.string(b"abcdefghijklmnopqrstuvwxyz", len_b);
        let ha = HostId::compute(&loc_a, &key);
        let hb = HostId::compute(&loc_b, &key);
        assert_eq!(loc_a == loc_b, ha == hb);
    }
}
