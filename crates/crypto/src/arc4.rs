//! The ARC4 stream cipher ("alleged RC4", Kaukonen–Thayer draft).
//!
//! SFS assumes ARC4 is a pseudo-random generator (§3.1.3) and uses it for
//! session encryption. The implementation follows the paper's two
//! non-standard details:
//!
//! - 20-byte (160-bit) keys are supported "by spinning the ARC4 key schedule
//!   once for each 128 bits of key data" — i.e. the key-scheduling loop runs
//!   once per 16-byte chunk of the key, feeding each chunk in turn.
//! - the stream "keeps running for the duration of a session"; the cipher is
//!   therefore a long-lived object and the MAC layer pulls bytes from the
//!   same stream (see [`crate::mac`]).

/// ARC4 stream cipher state.
///
/// The permutation is held as `[u32; 256]` rather than `[u8; 256]`: every
/// value is still a byte (0–255), but widening the slots lets the PRGA
/// run on full registers — no partial-register byte merges — which is the
/// classic ARC4 software optimization and is worth ~2× on the bulk paths.
#[derive(Clone)]
pub struct Arc4 {
    s: [u32; 256],
    i: u8,
    j: u8,
    /// Total key-stream bytes produced; used for replay diagnostics.
    position: u64,
}

impl Arc4 {
    /// Initializes from a key of 1–256 bytes.
    ///
    /// For keys longer than 128 bits the key schedule is spun once per
    /// 128-bit chunk, per SFS's construction (§3.1.3). A final partial chunk
    /// spins the schedule with just those bytes.
    ///
    /// # Panics
    ///
    /// Panics if `key` is empty or longer than 256 bytes.
    pub fn new(key: &[u8]) -> Self {
        assert!(
            !key.is_empty() && key.len() <= 256,
            "ARC4 key must be 1-256 bytes"
        );
        let mut s = [0u32; 256];
        for (i, v) in s.iter_mut().enumerate() {
            *v = i as u32;
        }
        // RECONSTRUCTION: the paper says the key schedule is spun "once for
        // each 128 bits of key data". We interpret this as running the KSA
        // mixing pass once per 16-byte chunk, each pass keyed by its chunk
        // (the trailing <16-byte chunk gets its own pass). For keys of at
        // most 16 bytes this is exactly standard ARC4.
        let mut j: u8 = 0;
        for chunk in key.chunks(16) {
            for i in 0..256 {
                j = j
                    .wrapping_add(s[i] as u8)
                    .wrapping_add(chunk[i % chunk.len()]);
                s.swap(i, j as usize);
            }
        }
        Arc4 {
            s,
            i: 0,
            j: 0,
            position: 0,
        }
    }

    /// Produces the next key-stream byte.
    #[cfg(test)]
    fn next_byte(&mut self) -> u8 {
        self.with_prga(|s, prga| prga.next(s))
    }

    /// Runs `f` on the PRGA with `i` and `j` hoisted out of `self`, then
    /// stores them back and advances the stream position by the steps `f`
    /// took. Every key-stream loop runs through here, the fused
    /// ARC4+SHA-1 kernel ([`crate::arc4sha1`]) included.
    #[inline(always)]
    pub(crate) fn with_prga<R>(&mut self, f: impl FnOnce(&mut [u32; 256], &mut Prga) -> R) -> R {
        let mut prga = Prga {
            i: self.i as usize,
            j: self.j as usize,
            steps: 0,
        };
        let out = f(&mut self.s, &mut prga);
        self.i = prga.i as u8;
        self.j = prga.j as u8;
        self.position += prga.steps;
        out
    }

    /// Fills `out` with key-stream bytes.
    pub(crate) fn keystream(&mut self, out: &mut [u8]) {
        self.with_prga(|s, prga| {
            let mut p = *prga;
            for b in out.iter_mut() {
                *b = p.next(s);
            }
            *prga = p;
        });
    }

    /// XORs the key stream into `data` in place (encryption == decryption).
    ///
    /// The bulk loop generates eight key-stream bytes at a time and applies
    /// them with one word-sized XOR; the PRGA itself is inherently serial
    /// (each step permutes `s`), so the win is in the data side and in the
    /// per-byte bookkeeping, not the key stream.
    pub fn process(&mut self, data: &mut [u8]) {
        self.with_prga(|s, prga| {
            let mut p = *prga;
            let mut chunks = data.chunks_exact_mut(8);
            for chunk in &mut chunks {
                let mut ks = 0u64;
                for n in 0..8 {
                    ks |= (p.next(s) as u64) << (8 * n);
                }
                let word = u64::from_le_bytes(chunk[..8].try_into().unwrap()) ^ ks;
                chunk.copy_from_slice(&word.to_le_bytes());
            }
            for b in chunks.into_remainder() {
                *b ^= p.next(s);
            }
            *prga = p;
        });
    }

    /// Total key-stream bytes consumed so far: the stream's implicit
    /// per-direction position, which any dropped, replayed, or reordered
    /// ciphertext desynchronizes, failing the MAC.
    #[cfg(test)]
    pub(crate) fn position(&self) -> u64 {
        self.position
    }
}

impl std::fmt::Debug for Arc4 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never leak cipher state.
        write!(f, "Arc4 {{ position: {} }}", self.position)
    }
}

/// The PRGA's indices hoisted out of an [`Arc4`] (see
/// [`Arc4::with_prga`]). It is `Copy` so a loop can take it into locals:
/// `i` and `j` then live in full-width registers (masked with `& 0xff`,
/// never stored as `u8`), with no partial-register byte merges and no
/// round trip through memory per byte.
#[derive(Clone, Copy)]
pub(crate) struct Prga {
    i: usize,
    j: usize,
    steps: u64,
}

impl Prga {
    /// One PRGA step over the permutation `s`. The explicit two-store
    /// swap avoids re-reading the permutation.
    #[inline(always)]
    pub(crate) fn next(&mut self, s: &mut [u32; 256]) -> u8 {
        self.steps += 1;
        self.i = (self.i + 1) & 0xff;
        let si = s[self.i];
        self.j = (self.j + si as usize) & 0xff;
        let sj = s[self.j];
        s[self.i] = sj;
        s[self.j] = si;
        s[((si + sj) & 0xff) as usize] as u8
    }

    /// Orders the code around this point for the compiler, at no cost on
    /// the CPU: an empty `asm!` (no instruction) that takes and gives back
    /// `j` and `v`, so steps before it are placed before any step after
    /// it, and so is whatever made `v` before whatever reads it next.
    /// The fused ARC4+SHA-1 kernel passes its SHA-1 state, keeping each
    /// round group between the ARC4 steps it is meant to overlap; left to
    /// itself, the compiler gathers all of a block's steps in one run and
    /// the core cannot see far enough ahead to overlap the two.
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    pub(crate) fn pin(&mut self, v: &mut std::arch::x86_64::__m128i) {
        // SAFETY: the template is empty: nothing is read, written or run.
        unsafe {
            std::arch::asm!(
                "/* {0} {1} */",
                inout(reg) self.j,
                inout(xmm_reg) *v,
                options(nomem, nostack, preserves_flags)
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(b: &[u8]) -> String {
        b.iter().map(|x| format!("{x:02x}")).collect()
    }

    /// Published ARC4 test vectors (from the original sci.crypt posting and
    /// the Kaukonen–Thayer draft) use keys of at most 16 bytes, where our
    /// construction is exactly standard ARC4.
    #[test]
    fn arcfour_vector_key_plaintext() {
        // Key 0x0123456789abcdef, plaintext 0x0123456789abcdef
        // -> ciphertext 0x75b7878099e0c596.
        let key = [0x01, 0x23, 0x45, 0x67, 0x89, 0xab, 0xcd, 0xef];
        let mut data = [0x01, 0x23, 0x45, 0x67, 0x89, 0xab, 0xcd, 0xef];
        Arc4::new(&key).process(&mut data);
        assert_eq!(hex(&data), "75b7878099e0c596");
    }

    #[test]
    fn arcfour_vector_zero_plaintext() {
        // Key 0x0123456789abcdef, plaintext all-zero
        // -> keystream 0x7494c2e7104b0879.
        let key = [0x01, 0x23, 0x45, 0x67, 0x89, 0xab, 0xcd, 0xef];
        let mut data = [0u8; 8];
        Arc4::new(&key).process(&mut data);
        assert_eq!(hex(&data), "7494c2e7104b0879");
    }

    #[test]
    fn arcfour_vector_ef_key() {
        // Key 0xef012345, plaintext 10 zero bytes
        // -> keystream 0xd6a141a7ec3c38dfbd61.
        let key = [0xef, 0x01, 0x23, 0x45];
        let mut data = [0u8; 10];
        Arc4::new(&key).process(&mut data);
        assert_eq!(hex(&data), "d6a141a7ec3c38dfbd61");
    }

    #[test]
    fn roundtrip() {
        let key = b"twenty-byte-key-....";
        assert_eq!(key.len(), 20);
        let plaintext = b"attack at dawn, via the automounter".to_vec();
        let mut data = plaintext.clone();
        Arc4::new(key).process(&mut data);
        assert_ne!(data, plaintext);
        Arc4::new(key).process(&mut data);
        assert_eq!(data, plaintext);
    }

    #[test]
    fn twenty_byte_key_spins_twice() {
        // A 20-byte key must not behave like standard single-pass ARC4 over
        // the same bytes (the second 128-bit chunk re-mixes the state).
        let key = [7u8; 20];
        let mut ours = [0u8; 16];
        Arc4::new(&key).keystream(&mut ours);

        // Standard single-pass ARC4 for comparison.
        let mut s: Vec<u8> = (0..=255).collect();
        let mut j = 0u8;
        for i in 0..256 {
            j = j.wrapping_add(s[i]).wrapping_add(key[i % 20]);
            s.swap(i, j as usize);
        }
        let (mut i, mut jj) = (0u8, 0u8);
        let mut std_out = [0u8; 16];
        for b in &mut std_out {
            i = i.wrapping_add(1);
            jj = jj.wrapping_add(s[i as usize]);
            s.swap(i as usize, jj as usize);
            *b = s[s[i as usize].wrapping_add(s[jj as usize]) as usize];
        }
        assert_ne!(ours, std_out);
    }

    #[test]
    fn bulk_paths_match_per_byte_stepping() {
        // The unrolled word-at-a-time loop must emit the exact stream the
        // scalar `next_byte` path does, at every alignment and length.
        for len in [0usize, 1, 7, 8, 9, 15, 16, 17, 63, 64, 100, 257] {
            let mut by_byte = Arc4::new(b"bulk-vs-byte");
            let mut bulk = Arc4::new(b"bulk-vs-byte");
            let mut data: Vec<u8> = (0..len as u32).map(|x| x as u8).collect();
            let expect: Vec<u8> = data.iter().map(|b| b ^ by_byte.next_byte()).collect();
            bulk.process(&mut data);
            assert_eq!(data, expect, "len={len}");
            assert_eq!(bulk.position(), by_byte.position());
            let mut ks_bulk = vec![0u8; len];
            bulk.keystream(&mut ks_bulk);
            let ks_byte: Vec<u8> = (0..len).map(|_| by_byte.next_byte()).collect();
            assert_eq!(ks_bulk, ks_byte, "keystream len={len}");
        }
    }

    #[test]
    fn position_tracks_bytes() {
        let mut c = Arc4::new(b"k");
        let mut buf = [0u8; 37];
        c.keystream(&mut buf);
        assert_eq!(c.position(), 37);
        c.next_byte();
        assert_eq!(c.position(), 38);
    }

    #[test]
    fn streams_differ_across_keys() {
        let mut a = [0u8; 32];
        let mut b = [0u8; 32];
        Arc4::new(b"key-a").keystream(&mut a);
        Arc4::new(b"key-b").keystream(&mut b);
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "ARC4 key must be 1-256 bytes")]
    fn empty_key_panics() {
        let _ = Arc4::new(&[]);
    }
}
