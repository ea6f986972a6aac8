//! The Blowfish block cipher (Schneier 1993) and CBC mode.
//!
//! SFS servers "generate file handles by adding redundancy to NFS handles
//! and encrypting them in CBC mode with a 20-byte Blowfish key" (§3.3).
//! Blowfish accepts keys of 4–56 bytes, so the 20-byte key is used directly.
//! The P/S constant tables come from π via `crate::pi`.

use crate::pi::blowfish_words;

/// Blowfish block size in bytes.
pub(crate) const BLOCK_LEN: usize = 8;

/// Number of rounds (fixed by the algorithm).
const ROUNDS: usize = 16;

/// A keyed Blowfish instance.
#[derive(Clone)]
pub struct Blowfish {
    p: [u32; ROUNDS + 2],
    s: [[u32; 256]; 4],
}

impl Blowfish {
    /// Creates an instance with the standard key schedule.
    ///
    /// # Panics
    ///
    /// Panics unless `4 <= key.len() <= 56`.
    pub fn new(key: &[u8]) -> Self {
        assert!(
            (4..=56).contains(&key.len()),
            "Blowfish key must be 4-56 bytes"
        );
        let mut bf = Blowfish::init_state();
        bf.expand_key_words(key);
        bf.mix_subkeys(&[0u8; 16]);
        bf
    }

    /// Returns the unkeyed initial state (π digits). Crate-public so
    /// eksblowfish can run its own expensive key schedule.
    pub(crate) fn init_state() -> Self {
        let words = blowfish_words();
        let mut p = [0u32; ROUNDS + 2];
        p.copy_from_slice(&words[..18]);
        let mut s = [[0u32; 256]; 4];
        for (i, sbox) in s.iter_mut().enumerate() {
            sbox.copy_from_slice(&words[18 + i * 256..18 + (i + 1) * 256]);
        }
        Blowfish { p, s }
    }

    /// XORs the key cyclically into the P-array (first half of the key
    /// schedule; eksblowfish's ExpandKey reuses it).
    pub(crate) fn expand_key_words(&mut self, key: &[u8]) {
        let mut pos = 0;
        for pe in self.p.iter_mut() {
            let mut w: u32 = 0;
            for _ in 0..4 {
                w = (w << 8) | key[pos] as u32;
                pos = (pos + 1) % key.len();
            }
            *pe ^= w;
        }
    }

    /// Re-derives all subkeys by repeated encryption, chaining in the
    /// 128-bit `salt` (all-zero salt gives the standard schedule; a nonzero
    /// salt is eksblowfish's salted ExpandKey).
    pub(crate) fn mix_subkeys(&mut self, salt: &[u8; 16]) {
        let halves = [
            u32::from_be_bytes(salt[0..4].try_into().unwrap()),
            u32::from_be_bytes(salt[4..8].try_into().unwrap()),
            u32::from_be_bytes(salt[8..12].try_into().unwrap()),
            u32::from_be_bytes(salt[12..16].try_into().unwrap()),
        ];
        let (mut l, mut r) = (0u32, 0u32);
        let mut salt_ix = 0;
        for i in (0..ROUNDS + 2).step_by(2) {
            l ^= halves[salt_ix];
            r ^= halves[salt_ix + 1];
            salt_ix = (salt_ix + 2) % 4;
            let (nl, nr) = self.encrypt_words(l, r);
            l = nl;
            r = nr;
            self.p[i] = l;
            self.p[i + 1] = r;
        }
        for sbox in 0..4 {
            for i in (0..256).step_by(2) {
                l ^= halves[salt_ix];
                r ^= halves[salt_ix + 1];
                salt_ix = (salt_ix + 2) % 4;
                let (nl, nr) = self.encrypt_words(l, r);
                l = nl;
                r = nr;
                self.s[sbox][i] = l;
                self.s[sbox][i + 1] = r;
            }
        }
    }

    /// The Blowfish round function: `((S0[a] + S1[b]) ^ S2[c]) + S3[d]`.
    #[inline]
    fn f(&self, x: u32) -> u32 {
        let a = self.s[0][(x >> 24) as usize];
        let b = self.s[1][(x >> 16 & 0xff) as usize];
        let c = self.s[2][(x >> 8 & 0xff) as usize];
        let d = self.s[3][(x & 0xff) as usize];
        (a.wrapping_add(b) ^ c).wrapping_add(d)
    }

    /// Encrypts one 64-bit block given as two 32-bit halves.
    pub(crate) fn encrypt_words(&self, mut l: u32, mut r: u32) -> (u32, u32) {
        for i in 0..ROUNDS {
            l ^= self.p[i];
            r ^= self.f(l);
            std::mem::swap(&mut l, &mut r);
        }
        std::mem::swap(&mut l, &mut r);
        r ^= self.p[ROUNDS];
        l ^= self.p[ROUNDS + 1];
        (l, r)
    }

    /// Decrypts one 64-bit block given as two 32-bit halves.
    pub(crate) fn decrypt_words(&self, mut l: u32, mut r: u32) -> (u32, u32) {
        for i in (2..ROUNDS + 2).rev() {
            l ^= self.p[i];
            r ^= self.f(l);
            std::mem::swap(&mut l, &mut r);
        }
        std::mem::swap(&mut l, &mut r);
        r ^= self.p[1];
        l ^= self.p[0];
        (l, r)
    }

    /// Encrypts one 8-byte block in place.
    pub fn encrypt_block(&self, block: &mut [u8; BLOCK_LEN]) {
        let l = u32::from_be_bytes(block[0..4].try_into().unwrap());
        let r = u32::from_be_bytes(block[4..8].try_into().unwrap());
        let (l, r) = self.encrypt_words(l, r);
        block[0..4].copy_from_slice(&l.to_be_bytes());
        block[4..8].copy_from_slice(&r.to_be_bytes());
    }

    /// Decrypts one 8-byte block in place.
    pub fn decrypt_block(&self, block: &mut [u8; BLOCK_LEN]) {
        let l = u32::from_be_bytes(block[0..4].try_into().unwrap());
        let r = u32::from_be_bytes(block[4..8].try_into().unwrap());
        let (l, r) = self.decrypt_words(l, r);
        block[0..4].copy_from_slice(&l.to_be_bytes());
        block[4..8].copy_from_slice(&r.to_be_bytes());
    }

    /// CBC-encrypts `data` in place with a zero IV.
    ///
    /// SFS uses CBC over the fixed-size, redundancy-padded NFS file handle
    /// with a per-server key; handles are unique, so a fixed IV is safe
    /// there.
    ///
    /// # Panics
    ///
    /// Panics unless `data.len()` is a nonzero multiple of 8.
    pub fn cbc_encrypt(&self, data: &mut [u8]) {
        assert!(
            !data.is_empty() && data.len().is_multiple_of(BLOCK_LEN),
            "CBC data must be a nonzero multiple of 8 bytes"
        );
        let mut prev = [0u8; BLOCK_LEN];
        for chunk in data.chunks_mut(BLOCK_LEN) {
            for (c, p) in chunk.iter_mut().zip(prev.iter()) {
                *c ^= p;
            }
            let block: &mut [u8; BLOCK_LEN] = chunk.try_into().unwrap();
            self.encrypt_block(block);
            prev.copy_from_slice(block);
        }
    }

    /// CBC-decrypts `data` in place with a zero IV.
    ///
    /// # Panics
    ///
    /// Panics unless `data.len()` is a nonzero multiple of 8.
    pub fn cbc_decrypt(&self, data: &mut [u8]) {
        assert!(
            !data.is_empty() && data.len().is_multiple_of(BLOCK_LEN),
            "CBC data must be a nonzero multiple of 8 bytes"
        );
        let mut prev = [0u8; BLOCK_LEN];
        for chunk in data.chunks_mut(BLOCK_LEN) {
            let cipher: [u8; BLOCK_LEN] = (&*chunk).try_into().unwrap();
            let block: &mut [u8; BLOCK_LEN] = chunk.try_into().unwrap();
            self.decrypt_block(block);
            for (c, p) in block.iter_mut().zip(prev.iter()) {
                *c ^= p;
            }
            prev = cipher;
        }
    }
}

impl std::fmt::Debug for Blowfish {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Blowfish {{ .. }}") // Never leak subkeys.
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hexkey(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    /// Eric Young's published Blowfish known-answer vectors.
    #[test]
    fn known_answer_vectors() {
        let cases = [
            ("0000000000000000", "0000000000000000", "4EF997456198DD78"),
            ("FFFFFFFFFFFFFFFF", "FFFFFFFFFFFFFFFF", "51866FD5B85ECB8A"),
            ("3000000000000000", "1000000000000001", "7D856F9A613063F2"),
            ("1111111111111111", "1111111111111111", "2466DD878B963C9D"),
            ("0123456789ABCDEF", "1111111111111111", "61F9C3802281B096"),
            ("FEDCBA9876543210", "0123456789ABCDEF", "0ACEAB0FC6A0A28D"),
            ("7CA110454A1A6E57", "01A1D6D039776742", "59C68245EB05282B"),
            ("0131D9619DC1376E", "5CD54CA83DEF57DA", "B1B8CC0B250F09A0"),
        ];
        for (key, plain, cipher) in cases {
            let bf = Blowfish::new(&hexkey(key));
            let mut block: [u8; 8] = hexkey(plain).try_into().unwrap();
            bf.encrypt_block(&mut block);
            let got: String = block.iter().map(|b| format!("{b:02X}")).collect();
            assert_eq!(got, cipher, "key={key} plain={plain}");
            bf.decrypt_block(&mut block);
            let back: String = block.iter().map(|b| format!("{b:02X}")).collect();
            assert_eq!(back, plain);
        }
    }

    #[test]
    fn twenty_byte_key_roundtrip() {
        let key = [0x42u8; 20];
        let bf = Blowfish::new(&key);
        let mut block = *b"NFSHANDL";
        let orig = block;
        bf.encrypt_block(&mut block);
        assert_ne!(block, orig);
        bf.decrypt_block(&mut block);
        assert_eq!(block, orig);
    }

    #[test]
    fn cbc_roundtrip_and_chaining() {
        let bf = Blowfish::new(b"a-20-byte-long-key!!");
        let mut data = vec![0u8; 32];
        data[0] = 1;
        let orig = data.clone();
        bf.cbc_encrypt(&mut data);
        // Identical plaintext blocks must yield different ciphertext blocks.
        assert_ne!(&data[8..16], &data[16..24]);
        bf.cbc_decrypt(&mut data);
        assert_eq!(data, orig);
    }

    #[test]
    fn cbc_bit_flip_garbles_following_blocks() {
        let bf = Blowfish::new(b"another-20-byte-key!");
        let mut data = b"0123456789abcdef".to_vec();
        bf.cbc_encrypt(&mut data);
        data[0] ^= 1;
        bf.cbc_decrypt(&mut data);
        assert_ne!(&data[..], b"0123456789abcdef");
    }

    #[test]
    #[should_panic(expected = "Blowfish key must be 4-56 bytes")]
    fn short_key_panics() {
        let _ = Blowfish::new(&[1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "CBC data must be a nonzero multiple of 8")]
    fn unaligned_cbc_panics() {
        let bf = Blowfish::new(b"long enough key");
        let mut data = vec![0u8; 12];
        bf.cbc_encrypt(&mut data);
    }
}
