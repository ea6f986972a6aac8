//! SHA-1 (FIPS 180-1).
//!
//! SFS assumes SHA-1 "behaves like a random oracle" (§3.1.3) and uses it for
//! HostIDs, session-key derivation, the per-message MAC, and the
//! pseudo-random generator. This is a from-scratch implementation with the
//! standard incremental (init/update/finalize) interface, verified against
//! the FIPS 180-1 test vectors.

/// Digest size in bytes.
pub const DIGEST_LEN: usize = 20;

/// Block size in bytes.
pub(crate) const BLOCK_LEN: usize = 64;

const H0: [u32; 5] = [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0];

/// Incremental SHA-1 hasher.
#[derive(Clone)]
pub struct Sha1 {
    h: [u32; 5],
    /// Bytes processed so far (for the length suffix).
    len: u64,
    /// Partial block buffer.
    buf: [u8; BLOCK_LEN],
    buf_len: usize,
}

impl Default for Sha1 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha1 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha1 {
            h: H0,
            len: 0,
            buf: [0; BLOCK_LEN],
            buf_len: 0,
        }
    }

    /// Absorbs `data`.
    pub fn update(&mut self, data: &[u8]) -> &mut Self {
        self.len = self.len.wrapping_add(data.len() as u64);
        let mut data = data;
        if self.buf_len > 0 {
            let take = (BLOCK_LEN - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == BLOCK_LEN {
                let block = self.buf;
                compress(&mut self.h, &block);
                self.buf_len = 0;
            }
        }
        while data.len() >= BLOCK_LEN {
            let (block, rest) = data.split_at(BLOCK_LEN);
            compress(&mut self.h, block.try_into().unwrap());
            data = rest;
        }
        if !data.is_empty() {
            self.buf[..data.len()].copy_from_slice(data);
            self.buf_len = data.len();
        }
        self
    }

    /// The chaining state, for a kernel that compresses the next `len`
    /// bytes itself — whole blocks, with nothing buffered — as the fused
    /// ARC4+SHA-1 pass does while it encrypts; they count as absorbed.
    pub(crate) fn chain_for(&mut self, len: usize) -> &mut [u32; 5] {
        debug_assert!(self.buf_len == 0 && len.is_multiple_of(BLOCK_LEN));
        self.len = self.len.wrapping_add(len as u64);
        &mut self.h
    }

    /// Finishes and returns the 20-byte digest.
    pub fn finalize(mut self) -> [u8; DIGEST_LEN] {
        let bit_len = self.len.wrapping_mul(8);
        // Padding, written in place: 0x80 after the buffered bytes, zeros
        // to the end of the block and — when the 64-bit big-endian length
        // no longer fits behind them — through one more block, then the
        // length. (`buf_len` < 64: `update` compresses every full block.)
        let n = self.buf_len;
        self.buf[n] = 0x80;
        self.buf[n + 1..].fill(0);
        if n >= BLOCK_LEN - 8 {
            let block = self.buf;
            compress(&mut self.h, &block);
            self.buf = [0; BLOCK_LEN];
        }
        self.buf[BLOCK_LEN - 8..].copy_from_slice(&bit_len.to_be_bytes());
        let block = self.buf;
        compress(&mut self.h, &block);
        let mut out = [0u8; DIGEST_LEN];
        for (i, word) in self.h.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// One-shot SHA-1.
pub fn sha1(data: &[u8]) -> [u8; DIGEST_LEN] {
    let mut h = Sha1::new();
    h.update(data);
    h.finalize()
}

/// Hashes the concatenation of several byte strings.
///
/// SFS hashes XDR-marshaled structures, which concatenate fields; several
/// protocol values (HostID, SessionID, session keys) are defined as hashes
/// over field sequences.
pub fn sha1_concat(parts: &[&[u8]]) -> [u8; DIGEST_LEN] {
    let mut h = Sha1::new();
    for p in parts {
        h.update(p);
    }
    h.finalize()
}

/// The standard SHA-1 initialization vector, exposed for the FIPS 186
/// pseudo-random generator's G function.
pub(crate) const IV: [u32; 5] = H0;

/// Whether this CPU runs the SHA-NI compression (and with it the fused
/// ARC4+SHA-1 pass in [`crate::arc4sha1`]). `std` caches the answer.
pub(crate) fn shani_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("sha")
            && std::arch::is_x86_feature_detected!("ssse3")
            && std::arch::is_x86_feature_detected!("sse4.1")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The raw SHA-1 compression function over one 64-byte block (no padding).
/// The FIPS 186 generator is defined directly in terms of this G function.
///
/// Dispatches to the SHA-NI instruction path when the CPU has it (the
/// dominant cost in the secure channel's per-frame MAC is this function);
/// both paths compute the identical FIPS 180-1 state update.
pub(crate) fn compress(h: &mut [u32; 5], block: &[u8; BLOCK_LEN]) {
    #[cfg(target_arch = "x86_64")]
    if shani_available() {
        // SAFETY: feature presence is checked immediately above.
        unsafe { shani::compress(h, block) };
        return;
    }
    compress_scalar(h, block);
}

/// Portable scalar compression (used when SHA-NI is unavailable, and as
/// the reference the SHA-NI path is tested against).
fn compress_scalar(h: &mut [u32; 5], block: &[u8; BLOCK_LEN]) {
    // The message schedule lives in a 16-word ring fused into the round
    // loops (w[i] only ever depends on the previous 16 words), so one
    // pass touches 64 bytes of schedule state instead of materializing
    // all 80 expanded words.
    let mut w = [0u32; 16];
    for (i, word) in w.iter_mut().enumerate() {
        *word = u32::from_be_bytes(block[i * 4..i * 4 + 4].try_into().unwrap());
    }
    let (mut a, mut b, mut c, mut d, mut e) = (h[0], h[1], h[2], h[3], h[4]);
    // The 80 rounds are split into their four 20-round groups so each
    // loop body has a fixed f/k (no per-round selection). The choice and
    // majority functions use the standard equivalent forms with one fewer
    // operation: ch = d ^ (b & (c ^ d)), maj = (b & c) | (d & (b | c)).
    macro_rules! round {
        ($f:expr, $k:expr, $i:expr) => {{
            let slot = $i & 15;
            let wi = if $i < 16 {
                w[slot]
            } else {
                let x = (w[($i + 13) & 15] ^ w[($i + 8) & 15] ^ w[($i + 2) & 15] ^ w[slot])
                    .rotate_left(1);
                w[slot] = x;
                x
            };
            let t = a
                .rotate_left(5)
                .wrapping_add($f)
                .wrapping_add(e)
                .wrapping_add($k)
                .wrapping_add(wi);
            e = d;
            d = c;
            c = b.rotate_left(30);
            b = a;
            a = t;
        }};
    }
    for i in 0..20 {
        round!(d ^ (b & (c ^ d)), 0x5A827999, i);
    }
    for i in 20..40 {
        round!(b ^ c ^ d, 0x6ED9EBA1, i);
    }
    for i in 40..60 {
        round!((b & c) | (d & (b | c)), 0x8F1BBCDC, i);
    }
    for i in 60..80 {
        round!(b ^ c ^ d, 0xCA62C1D6, i);
    }
    h[0] = h[0].wrapping_add(a);
    h[1] = h[1].wrapping_add(b);
    h[2] = h[2].wrapping_add(c);
    h[3] = h[3].wrapping_add(d);
    h[4] = h[4].wrapping_add(e);
}

/// The 80 SHA-1 rounds of one block on the x86 SHA extensions
/// (`sha1rnds4`/`sha1nexte`/`sha1msg1`/`sha1msg2`), following Intel's
/// published schedule: four rounds per `sha1rnds4`, with the message
/// expansion kept in four XMM registers and folded forward as the rounds
/// consume it. This is the one copy of the schedule; [`shani::compress`]
/// and the fused ARC4+SHA-1 kernel in [`crate::arc4sha1`] both expand it.
///
/// `$abcd` holds a,b,c,d with a in the high lane and `$e` holds e in its
/// high lane, as `sha1nexte` expects; both are updated in place, the
/// chaining addition included. `$msg` is the block as four byte-swapped
/// (big-endian) word vectors. `$hook` runs after each of the 20
/// `sha1rnds4` groups with `$g` bound to the group's number, `0..20`, and
/// `$state` to `&mut` the a,b,c,d register that group just wrote: work
/// placed there overlaps the rounds' latency chain. Callers need the
/// three target features enabled.
#[cfg(target_arch = "x86_64")]
macro_rules! shani_rounds {
    ($abcd:ident, $e:ident, $msg:expr, |$g:ident, $state:ident| $hook:block) => {{
        use std::arch::x86_64::*;
        let [mut msg0, mut msg1, mut msg2, mut msg3]: [__m128i; 4] = $msg;
        let (abcd_save, e_save) = ($abcd, $e);
        let mut abcd = $abcd;
        let mut e0 = $e;
        let mut e1;

        // Rounds 0-3.
        e0 = _mm_add_epi32(e0, msg0);
        e1 = abcd;
        abcd = _mm_sha1rnds4_epu32::<0>(abcd, e0);
        { let $g: usize = 0; let $state = &mut abcd; $hook }

        // Rounds 4-7.
        e1 = _mm_sha1nexte_epu32(e1, msg1);
        e0 = abcd;
        abcd = _mm_sha1rnds4_epu32::<0>(abcd, e1);
        msg0 = _mm_sha1msg1_epu32(msg0, msg1);
        { let $g: usize = 1; let $state = &mut abcd; $hook }

        // Rounds 8-11.
        e0 = _mm_sha1nexte_epu32(e0, msg2);
        e1 = abcd;
        abcd = _mm_sha1rnds4_epu32::<0>(abcd, e0);
        msg1 = _mm_sha1msg1_epu32(msg1, msg2);
        msg0 = _mm_xor_si128(msg0, msg2);
        { let $g: usize = 2; let $state = &mut abcd; $hook }

        // Rounds 12-15.
        e1 = _mm_sha1nexte_epu32(e1, msg3);
        e0 = abcd;
        msg0 = _mm_sha1msg2_epu32(msg0, msg3);
        abcd = _mm_sha1rnds4_epu32::<0>(abcd, e1);
        msg2 = _mm_sha1msg1_epu32(msg2, msg3);
        msg1 = _mm_xor_si128(msg1, msg3);
        { let $g: usize = 3; let $state = &mut abcd; $hook }

        // Rounds 16-19.
        e0 = _mm_sha1nexte_epu32(e0, msg0);
        e1 = abcd;
        msg1 = _mm_sha1msg2_epu32(msg1, msg0);
        abcd = _mm_sha1rnds4_epu32::<0>(abcd, e0);
        msg3 = _mm_sha1msg1_epu32(msg3, msg0);
        msg2 = _mm_xor_si128(msg2, msg0);
        { let $g: usize = 4; let $state = &mut abcd; $hook }

        // Rounds 20-23.
        e1 = _mm_sha1nexte_epu32(e1, msg1);
        e0 = abcd;
        msg2 = _mm_sha1msg2_epu32(msg2, msg1);
        abcd = _mm_sha1rnds4_epu32::<1>(abcd, e1);
        msg0 = _mm_sha1msg1_epu32(msg0, msg1);
        msg3 = _mm_xor_si128(msg3, msg1);
        { let $g: usize = 5; let $state = &mut abcd; $hook }

        // Rounds 24-27.
        e0 = _mm_sha1nexte_epu32(e0, msg2);
        e1 = abcd;
        msg3 = _mm_sha1msg2_epu32(msg3, msg2);
        abcd = _mm_sha1rnds4_epu32::<1>(abcd, e0);
        msg1 = _mm_sha1msg1_epu32(msg1, msg2);
        msg0 = _mm_xor_si128(msg0, msg2);
        { let $g: usize = 6; let $state = &mut abcd; $hook }

        // Rounds 28-31.
        e1 = _mm_sha1nexte_epu32(e1, msg3);
        e0 = abcd;
        msg0 = _mm_sha1msg2_epu32(msg0, msg3);
        abcd = _mm_sha1rnds4_epu32::<1>(abcd, e1);
        msg2 = _mm_sha1msg1_epu32(msg2, msg3);
        msg1 = _mm_xor_si128(msg1, msg3);
        { let $g: usize = 7; let $state = &mut abcd; $hook }

        // Rounds 32-35.
        e0 = _mm_sha1nexte_epu32(e0, msg0);
        e1 = abcd;
        msg1 = _mm_sha1msg2_epu32(msg1, msg0);
        abcd = _mm_sha1rnds4_epu32::<1>(abcd, e0);
        msg3 = _mm_sha1msg1_epu32(msg3, msg0);
        msg2 = _mm_xor_si128(msg2, msg0);
        { let $g: usize = 8; let $state = &mut abcd; $hook }

        // Rounds 36-39.
        e1 = _mm_sha1nexte_epu32(e1, msg1);
        e0 = abcd;
        msg2 = _mm_sha1msg2_epu32(msg2, msg1);
        abcd = _mm_sha1rnds4_epu32::<1>(abcd, e1);
        msg0 = _mm_sha1msg1_epu32(msg0, msg1);
        msg3 = _mm_xor_si128(msg3, msg1);
        { let $g: usize = 9; let $state = &mut abcd; $hook }

        // Rounds 40-43.
        e0 = _mm_sha1nexte_epu32(e0, msg2);
        e1 = abcd;
        msg3 = _mm_sha1msg2_epu32(msg3, msg2);
        abcd = _mm_sha1rnds4_epu32::<2>(abcd, e0);
        msg1 = _mm_sha1msg1_epu32(msg1, msg2);
        msg0 = _mm_xor_si128(msg0, msg2);
        { let $g: usize = 10; let $state = &mut abcd; $hook }

        // Rounds 44-47.
        e1 = _mm_sha1nexte_epu32(e1, msg3);
        e0 = abcd;
        msg0 = _mm_sha1msg2_epu32(msg0, msg3);
        abcd = _mm_sha1rnds4_epu32::<2>(abcd, e1);
        msg2 = _mm_sha1msg1_epu32(msg2, msg3);
        msg1 = _mm_xor_si128(msg1, msg3);
        { let $g: usize = 11; let $state = &mut abcd; $hook }

        // Rounds 48-51.
        e0 = _mm_sha1nexte_epu32(e0, msg0);
        e1 = abcd;
        msg1 = _mm_sha1msg2_epu32(msg1, msg0);
        abcd = _mm_sha1rnds4_epu32::<2>(abcd, e0);
        msg3 = _mm_sha1msg1_epu32(msg3, msg0);
        msg2 = _mm_xor_si128(msg2, msg0);
        { let $g: usize = 12; let $state = &mut abcd; $hook }

        // Rounds 52-55.
        e1 = _mm_sha1nexte_epu32(e1, msg1);
        e0 = abcd;
        msg2 = _mm_sha1msg2_epu32(msg2, msg1);
        abcd = _mm_sha1rnds4_epu32::<2>(abcd, e1);
        msg0 = _mm_sha1msg1_epu32(msg0, msg1);
        msg3 = _mm_xor_si128(msg3, msg1);
        { let $g: usize = 13; let $state = &mut abcd; $hook }

        // Rounds 56-59.
        e0 = _mm_sha1nexte_epu32(e0, msg2);
        e1 = abcd;
        msg3 = _mm_sha1msg2_epu32(msg3, msg2);
        abcd = _mm_sha1rnds4_epu32::<2>(abcd, e0);
        msg1 = _mm_sha1msg1_epu32(msg1, msg2);
        msg0 = _mm_xor_si128(msg0, msg2);
        { let $g: usize = 14; let $state = &mut abcd; $hook }

        // Rounds 60-63.
        e1 = _mm_sha1nexte_epu32(e1, msg3);
        e0 = abcd;
        msg0 = _mm_sha1msg2_epu32(msg0, msg3);
        abcd = _mm_sha1rnds4_epu32::<3>(abcd, e1);
        msg2 = _mm_sha1msg1_epu32(msg2, msg3);
        msg1 = _mm_xor_si128(msg1, msg3);
        { let $g: usize = 15; let $state = &mut abcd; $hook }

        // Rounds 64-67.
        e0 = _mm_sha1nexte_epu32(e0, msg0);
        e1 = abcd;
        msg1 = _mm_sha1msg2_epu32(msg1, msg0);
        abcd = _mm_sha1rnds4_epu32::<3>(abcd, e0);
        msg3 = _mm_sha1msg1_epu32(msg3, msg0);
        msg2 = _mm_xor_si128(msg2, msg0);
        { let $g: usize = 16; let $state = &mut abcd; $hook }

        // Rounds 68-71.
        e1 = _mm_sha1nexte_epu32(e1, msg1);
        e0 = abcd;
        msg2 = _mm_sha1msg2_epu32(msg2, msg1);
        abcd = _mm_sha1rnds4_epu32::<3>(abcd, e1);
        msg3 = _mm_xor_si128(msg3, msg1);
        { let $g: usize = 17; let $state = &mut abcd; $hook }

        // Rounds 72-75.
        e0 = _mm_sha1nexte_epu32(e0, msg2);
        e1 = abcd;
        msg3 = _mm_sha1msg2_epu32(msg3, msg2);
        abcd = _mm_sha1rnds4_epu32::<3>(abcd, e0);
        { let $g: usize = 18; let $state = &mut abcd; $hook }

        // Rounds 76-79.
        e1 = _mm_sha1nexte_epu32(e1, msg3);
        e0 = abcd;
        abcd = _mm_sha1rnds4_epu32::<3>(abcd, e1);
        { let $g: usize = 19; let $state = &mut abcd; $hook }

        // Fold back into the running state. `sha1nexte` rotates the
        // working e (in e0's high lane) and adds the saved value.
        $e = _mm_sha1nexte_epu32(e0, e_save);
        $abcd = _mm_add_epi32(abcd, abcd_save);
    }};
}
#[cfg(target_arch = "x86_64")]
pub(crate) use shani_rounds;

/// SHA-1 compression via the x86 SHA extensions: one block through
/// [`shani_rounds!`].
#[cfg(target_arch = "x86_64")]
pub(crate) mod shani {
    use super::BLOCK_LEN;
    use std::arch::x86_64::*;

    /// The `pshufb` mask that turns each little-endian 32-bit word of a
    /// loaded block into the big-endian word the SHA instructions read.
    #[inline(always)]
    pub(crate) fn bswap_mask() -> __m128i {
        // SAFETY: SSE2 is part of the x86-64 baseline.
        unsafe { _mm_set_epi64x(0x0001020304050607u64 as i64, 0x08090a0b0c0d0e0fu64 as i64) }
    }

    /// # Safety
    ///
    /// The CPU must have SHA-NI, SSSE3 and SSE4.1.
    #[target_feature(enable = "sha,ssse3,sse4.1")]
    pub(crate) unsafe fn compress(h: &mut [u32; 5], block: &[u8; BLOCK_LEN]) {
        // Lane order: `abcd` holds a,b,c,d with a in the high lane
        // (hence the 0x1B shuffles on load/store); `e` rides in the high
        // lane of its own register as `sha1nexte` expects.
        let mask = bswap_mask();
        let mut abcd = _mm_shuffle_epi32::<0x1B>(_mm_loadu_si128(h.as_ptr() as *const __m128i));
        let mut e = _mm_set_epi32(h[4] as i32, 0, 0, 0);
        let p = block.as_ptr() as *const __m128i;
        let msg = [
            _mm_shuffle_epi8(_mm_loadu_si128(p), mask),
            _mm_shuffle_epi8(_mm_loadu_si128(p.add(1)), mask),
            _mm_shuffle_epi8(_mm_loadu_si128(p.add(2)), mask),
            _mm_shuffle_epi8(_mm_loadu_si128(p.add(3)), mask),
        ];
        super::shani_rounds!(abcd, e, msg, |_g, _abcd| {});
        _mm_storeu_si128(
            h.as_mut_ptr() as *mut __m128i,
            _mm_shuffle_epi32::<0x1B>(abcd),
        );
        h[4] = _mm_extract_epi32::<3>(e) as u32;
    }
}

/// MGF1 mask generation with SHA-1 (used by the Rabin OAEP padding and
/// full-domain hash): XORs the first `out.len()` bytes of the mask for
/// `seed` into `out`, in place. Allocates nothing.
pub(crate) fn mgf1_xor(seed: &[u8], out: &mut [u8]) {
    for (counter, chunk) in (0u32..).zip(out.chunks_mut(DIGEST_LEN)) {
        let mut h = Sha1::new();
        h.update(seed);
        h.update(&counter.to_be_bytes());
        for (o, m) in chunk.iter_mut().zip(h.finalize()) {
            *o ^= m;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn fips_vector_empty() {
        assert_eq!(hex(&sha1(b"")), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
    }

    #[test]
    fn fips_vector_abc() {
        assert_eq!(
            hex(&sha1(b"abc")),
            "a9993e364706816aba3e25717850c26c9cd0d89d"
        );
    }

    #[test]
    fn fips_vector_two_blocks() {
        assert_eq!(
            hex(&sha1(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
    }

    #[test]
    fn fips_vector_million_a() {
        let mut h = Sha1::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            hex(&h.finalize()),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        // Split at awkward boundaries around the 64-byte block size.
        for split in [0usize, 1, 63, 64, 65, 127, 128, 500, 999, 1000] {
            let mut h = Sha1::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), sha1(&data), "split={split}");
        }
    }

    /// The padding as FIPS 180-1 states it, one byte at a time through
    /// `update` — the reference for the in-place padding in `finalize`.
    fn finalize_bytewise(mut h: Sha1) -> [u8; DIGEST_LEN] {
        let bit_len = h.len.wrapping_mul(8);
        h.update(&[0x80]);
        while h.buf_len != 56 {
            h.update(&[0]);
        }
        h.buf[56..64].copy_from_slice(&bit_len.to_be_bytes());
        let block = h.buf;
        compress(&mut h.h, &block);
        let mut out = [0u8; DIGEST_LEN];
        for (i, word) in h.h.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    #[test]
    fn in_place_padding_matches_bytewise_padding() {
        // Every residue of the message length mod 64 (both sides of the
        // 56-byte boundary where padding spills into a second block),
        // absorbed whole and in runs of awkward sizes.
        let data: Vec<u8> = (0..=300u32).map(|i| (i * 131 + 7) as u8).collect();
        for len in 0..=300 {
            for run in [len.max(1), 1, 7, 55, 56, 63, 64, 65] {
                let mut h = Sha1::new();
                for chunk in data[..len].chunks(run) {
                    h.update(chunk);
                }
                assert_eq!(
                    h.clone().finalize(),
                    finalize_bytewise(h),
                    "len={len} run={run}"
                );
            }
        }
    }

    #[test]
    fn concat_matches_manual() {
        let d = sha1_concat(&[b"Host", b"Info", b"x"]);
        assert_eq!(d, sha1(b"HostInfox"));
    }

    #[test]
    fn mgf1_deterministic_and_sized() {
        let mgf1 = |seed: &[u8], len: usize| {
            let mut out = vec![0u8; len];
            mgf1_xor(seed, &mut out);
            out
        };
        let a = mgf1(b"seed", 100);
        let b = mgf1(b"seed", 100);
        assert_eq!(a, b);
        assert_eq!(a.len(), 100);
        // Prefix property: shorter outputs are prefixes of longer ones.
        assert_eq!(&mgf1(b"seed", 40)[..], &a[..40]);
        // Different seeds diverge.
        assert_ne!(mgf1(b"seed2", 100), a);
        // The block-by-block definition: SHA-1(seed || counter).
        assert_eq!(&a[20..40], &sha1_concat(&[b"seed", &1u32.to_be_bytes()]));
        // XOR is in place: masking twice restores the input.
        let mut data = *b"plaintext bytes";
        mgf1_xor(b"seed", &mut data);
        assert_eq!(
            &data[..],
            &a[..15]
                .iter()
                .zip(b"plaintext bytes")
                .map(|(m, p)| m ^ p)
                .collect::<Vec<_>>()[..]
        );
        mgf1_xor(b"seed", &mut data);
        assert_eq!(&data, b"plaintext bytes");
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn shani_matches_scalar_compression() {
        if !std::arch::is_x86_feature_detected!("sha")
            || !std::arch::is_x86_feature_detected!("ssse3")
            || !std::arch::is_x86_feature_detected!("sse4.1")
        {
            return;
        }
        // Drive both compression paths over a chain of differing blocks so
        // any lane/order mistake in the SHA-NI schedule diverges the state.
        let mut h_hw = IV;
        let mut h_sw = IV;
        for round in 0..64u8 {
            let mut block = [0u8; BLOCK_LEN];
            for (k, b) in block.iter_mut().enumerate() {
                *b = round.wrapping_mul(37).wrapping_add(k as u8);
            }
            unsafe { super::shani::compress(&mut h_hw, &block) };
            compress_scalar(&mut h_sw, &block);
            assert_eq!(h_hw, h_sw, "round={round}");
        }
    }

    #[test]
    fn length_counter_wraps_safely() {
        // Just exercise a multi-gigabit length path cheaply via the len
        // field arithmetic (no overflow panics in release or debug).
        let mut h = Sha1::new();
        h.len = u64::MAX - 4;
        h.update(b"hello");
        // No panic means wrapping worked; digest is well-defined.
        let _ = h.finalize();
    }
}
