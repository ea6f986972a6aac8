//! The ChaCha20 stream cipher (RFC 8439 §2.3–2.4).
//!
//! This is the bulk half of the negotiated AEAD suite. The paper's
//! architecture deliberately separates key management from the transport
//! cipher (§3), so the channel can swap ARC4 for a modern suite without
//! touching key negotiation; this module supplies the modern stream.
//!
//! Performance follows the same two-tier approach as SHA-1 in this
//! crate. The portable tier is word-at-a-time pure Rust shaped for
//! auto-vectorization: the 4×4 state is held as four *rows* of four u32
//! (`Row`), so a column round is four identical element-wise ops per
//! step — one 128-bit SIMD instruction each on any x86-64 or aarch64 —
//! and the diagonal round is the same after rotating rows lane-wise
//! (a register shuffle). Two blocks run interleaved per step: the whole
//! working set is ~8 vectors, which fits the 16 XMM registers without
//! spilling (the naive 16-vector-of-lanes layout needs 32 and spills).
//!
//! The fast tiers are selected by runtime feature detection and
//! cross-checked against the portable tier in tests, exactly like the
//! SHA-NI compression path. `avx2` runs four blocks per step with two
//! blocks sharing each 256-bit register (the row layout again, one
//! block per 128-bit lane, so diagonalization is an in-lane shuffle)
//! and does the 16- and 8-bit rotations with a single byte shuffle.
//! `avx512` doubles that to eight blocks per step on 512-bit
//! registers, where every rotation is a native `vprold`, and adds a
//! sixteen-block step in the vertical layout (one block per 32-bit
//! lane, the state in sixteen registers).
//!
//! The row-layout steps are bound by the latency of their twenty
//! dependent rounds — one step costs about the same whether it yields
//! two blocks or eight — while the vertical step runs four independent
//! quarter rounds per instruction group and is bound by throughput
//! instead. Which step runs depends only on length: on AVX-512 every
//! whole 1 KiB run takes the vertical step; short input — an AEAD
//! frame's first step (`FrameHead`), which yields the Poly1305 key block
//! and the first payload blocks together, and a last run of 512 bytes
//! or less — takes the eight-block row step, whose latency a short frame
//! pays once. A last run longer than that is XORed out of one more
//! vertical step: one step where an eight-block step and a second one
//! for the rest would cost more. What is left after the whole steps is
//! always cut out of one more step, never a narrower tier.
//!
//! A frame of a counter-nonce sequence rarely needs all eight blocks of
//! that step, so on AVX-512 `FrameHead::paired` splits it: one state
//! runs blocks 0–3 of this frame's nonce, the other blocks 0–3 of the
//! next frame's, and the second head waits in the caller's stash until
//! that frame is sealed or opened. The narrower tiers' row step already
//! has no room for a second head and keeps making one per step.

/// Key length in bytes (256-bit keys only; RFC 8439 drops the 128-bit form).
pub(crate) const KEY_LEN: usize = 32;
/// Nonce length in bytes (96-bit IETF nonce; the block counter is 32-bit).
pub(crate) const NONCE_LEN: usize = 12;
/// One keystream block.
pub(crate) const BLOCK_LEN: usize = 64;

/// The widest row-layout step any tier takes (eight blocks, [`avx512`]):
/// what [`FrameHead`] and a stream's sub-step tail are cut out of.
pub(crate) const MAX_STEP: usize = 8 * BLOCK_LEN;

/// One frame head when a step makes two: block 0 (the Poly1305 key)
/// and payload blocks 1–3, half of [`MAX_STEP`].
pub(crate) const PAIRED_HEAD_LEN: usize = 4 * BLOCK_LEN;

/// The widest step of all (sixteen blocks, [`avx512`]'s vertical one):
/// what a stream's last run is cut out of when it is longer than
/// [`MAX_STEP`].
const WIDE_STEP: usize = 16 * BLOCK_LEN;

/// "expand 32-byte k", the §2.3 constant words.
const SIGMA: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

/// One row of the state matrix; element-wise ops vectorize to one
/// 128-bit instruction.
type Row = [u32; 4];

#[inline(always)]
fn vadd(a: Row, b: Row) -> Row {
    [
        a[0].wrapping_add(b[0]),
        a[1].wrapping_add(b[1]),
        a[2].wrapping_add(b[2]),
        a[3].wrapping_add(b[3]),
    ]
}

#[inline(always)]
fn vxor(a: Row, b: Row) -> Row {
    [a[0] ^ b[0], a[1] ^ b[1], a[2] ^ b[2], a[3] ^ b[3]]
}

#[inline(always)]
fn vrotl(a: Row, n: u32) -> Row {
    [
        a[0].rotate_left(n),
        a[1].rotate_left(n),
        a[2].rotate_left(n),
        a[3].rotate_left(n),
    ]
}

/// Rotates lanes left by `N` (the diagonalization shuffle).
#[inline(always)]
fn lanes<const N: usize>(a: Row) -> Row {
    [a[N % 4], a[(N + 1) % 4], a[(N + 2) % 4], a[(N + 3) % 4]]
}

/// Four §2.1 quarter rounds at once, one per column of the row layout.
#[inline(always)]
fn column_rounds(r0: &mut Row, r1: &mut Row, r2: &mut Row, r3: &mut Row) {
    *r0 = vadd(*r0, *r1);
    *r3 = vrotl(vxor(*r3, *r0), 16);
    *r2 = vadd(*r2, *r3);
    *r1 = vrotl(vxor(*r1, *r2), 12);
    *r0 = vadd(*r0, *r1);
    *r3 = vrotl(vxor(*r3, *r0), 8);
    *r2 = vadd(*r2, *r3);
    *r1 = vrotl(vxor(*r1, *r2), 7);
}

/// The 20-round permutation plus feed-forward (§2.3) for two blocks at
/// consecutive counters, interleaved for instruction-level parallelism.
/// Returns the finished keystream words of both blocks.
#[inline(always)]
fn permute2(words: &[u32; 16]) -> [[u32; 16]; 2] {
    let i0: Row = words[0..4].try_into().unwrap();
    let i1: Row = words[4..8].try_into().unwrap();
    let i2: Row = words[8..12].try_into().unwrap();
    let i3a: Row = words[12..16].try_into().unwrap();
    let i3b: Row = [i3a[0].wrapping_add(1), i3a[1], i3a[2], i3a[3]];

    let (mut a0, mut a1, mut a2, mut a3) = (i0, i1, i2, i3a);
    let (mut b0, mut b1, mut b2, mut b3) = (i0, i1, i2, i3b);
    for _ in 0..10 {
        column_rounds(&mut a0, &mut a1, &mut a2, &mut a3);
        column_rounds(&mut b0, &mut b1, &mut b2, &mut b3);
        // Diagonalize, run the same column machinery, undo.
        a1 = lanes::<1>(a1);
        a2 = lanes::<2>(a2);
        a3 = lanes::<3>(a3);
        b1 = lanes::<1>(b1);
        b2 = lanes::<2>(b2);
        b3 = lanes::<3>(b3);
        column_rounds(&mut a0, &mut a1, &mut a2, &mut a3);
        column_rounds(&mut b0, &mut b1, &mut b2, &mut b3);
        a1 = lanes::<3>(a1);
        a2 = lanes::<2>(a2);
        a3 = lanes::<1>(a3);
        b1 = lanes::<3>(b1);
        b2 = lanes::<2>(b2);
        b3 = lanes::<1>(b3);
    }
    let mut out = [[0u32; 16]; 2];
    for (dst, rows) in out.iter_mut().zip([
        [vadd(a0, i0), vadd(a1, i1), vadd(a2, i2), vadd(a3, i3a)],
        [vadd(b0, i0), vadd(b1, i1), vadd(b2, i2), vadd(b3, i3b)],
    ]) {
        for (i, row) in rows.iter().enumerate() {
            dst[i * 4..i * 4 + 4].copy_from_slice(row);
        }
    }
    out
}

/// ChaCha20 stream state: key, nonce, and the current block counter.
#[derive(Clone)]
pub struct ChaCha20 {
    /// State-word template: constants, key, counter (word 12), nonce.
    words: [u32; 16],
}

impl ChaCha20 {
    /// Initializes the stream at block `counter` (§2.3 state layout).
    pub fn new(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN], counter: u32) -> Self {
        let mut words = [0u32; 16];
        words[..4].copy_from_slice(&SIGMA);
        for (i, chunk) in key.chunks_exact(4).enumerate() {
            words[4 + i] = u32::from_le_bytes(chunk.try_into().unwrap());
        }
        words[12] = counter;
        for (i, chunk) in nonce.chunks_exact(4).enumerate() {
            words[13 + i] = u32::from_le_bytes(chunk.try_into().unwrap());
        }
        ChaCha20 { words }
    }

    /// XORs keystream into `buf` in place (encryption == decryption),
    /// advancing the block counter past every block consumed. A partial
    /// final block discards its unused keystream tail: a subsequent call
    /// continues at the next 64-byte block boundary, which is the contract
    /// the AEAD layer relies on (each frame is processed in one call).
    pub fn xor_keystream(&mut self, buf: &mut [u8]) {
        let done = self.xor_whole_steps(buf);
        let tail = &mut buf[done..];
        if tail.is_empty() {
            return;
        }
        // Less than one step left: take one more step's keystream and
        // apply as much of it as there is data for.
        let mut ks = [0u8; WIDE_STEP];
        self.peek_tail(&mut ks, tail.len());
        xor_into(tail, &ks);
        self.words[12] = self.words[12].wrapping_add(tail.len().div_ceil(BLOCK_LEN) as u32);
    }

    /// XORs keystream over as many whole steps of this CPU's widest tier
    /// as fit in `buf`, advancing the counter. Returns bytes consumed.
    /// On AVX-512 that is every whole 1 KiB run, each one vertical
    /// sixteen-block step.
    fn xor_whole_steps(&mut self, buf: &mut [u8]) -> usize {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: feature presence is checked immediately above.
            return unsafe { avx512::xor_keystream16(&mut self.words, buf) };
        } else if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: feature presence is checked immediately above.
            return unsafe { avx2::xor_keystream4(&mut self.words, buf) };
        }
        self.xor_whole_steps_portable(buf)
    }

    /// The auto-vectorized two-block tier.
    fn xor_whole_steps_portable(&mut self, buf: &mut [u8]) -> usize {
        let mut chunks = buf.chunks_exact_mut(2 * BLOCK_LEN);
        let steps = chunks.len();
        for chunk in &mut chunks {
            xor_into(chunk, &permute2_bytes(&self.words));
            self.words[12] = self.words[12].wrapping_add(2);
        }
        steps * 2 * BLOCK_LEN
    }

    /// Writes the raw keystream of one step of this CPU's widest row
    /// tier at the current counter, which stays where it is, into the
    /// front of `ks` (all zeros on entry), and returns the step's length.
    fn peek_step(&self, ks: &mut [u8; MAX_STEP]) -> usize {
        // Keystream XORed over zeros is the keystream.
        #[cfg(target_arch = "x86_64")]
        {
            let mut words = self.words;
            if std::arch::is_x86_feature_detected!("avx512f") {
                // SAFETY: feature presence is checked immediately above.
                return unsafe { avx512::xor_keystream8(&mut words, ks) };
            } else if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: feature presence is checked immediately above.
                return unsafe { avx2::xor_keystream4(&mut words, &mut ks[..avx2::STEP]) };
            }
        }
        ks[..2 * BLOCK_LEN].copy_from_slice(&permute2_bytes(&self.words));
        2 * BLOCK_LEN
    }

    /// The keystream a last run of `need` bytes is cut out of, written
    /// into the front of `ks` (all zeros) without moving the counter:
    /// one vertical step where `need` is longer than a row step and the
    /// CPU has it, else one row step.
    fn peek_tail(&self, ks: &mut [u8; WIDE_STEP], need: usize) {
        #[cfg(target_arch = "x86_64")]
        if need > MAX_STEP && std::arch::is_x86_feature_detected!("avx512f") {
            let mut words = self.words;
            // SAFETY: feature presence is checked immediately above.
            unsafe { avx512::xor_keystream16(&mut words, ks) };
            return;
        }
        let row = ks.first_chunk_mut().expect("a row step fits a wide one");
        self.peek_step(row);
    }
}

/// [`permute2`] as the 128 keystream bytes it stands for.
#[inline(always)]
fn permute2_bytes(words: &[u32; 16]) -> [u8; 2 * BLOCK_LEN] {
    let mut out = [0u8; 2 * BLOCK_LEN];
    for (dst, w) in out
        .chunks_exact_mut(4)
        .zip(permute2(words).iter().flatten())
    {
        dst.copy_from_slice(&w.to_le_bytes());
    }
    out
}

/// `dst ^= ks` over `dst`'s length. Two plain slices: the compiler turns
/// this into full-width vector XORs with a short scalar remainder.
#[inline(always)]
fn xor_into(dst: &mut [u8], ks: &[u8]) {
    for (d, k) in dst.iter_mut().zip(ks) {
        *d ^= k;
    }
}

/// The first wide step of an AEAD frame (RFC 8439 §2.6 and the start of
/// §2.8 in one pass): block 0, whose first half is the Poly1305 one-time
/// key, and with it the keystream of payload blocks 1… as far as the
/// step reached (one, three or seven blocks; three when the step was
/// shared with the next frame). The keystream is borrowed: from the
/// caller's scratch buffer, or from the stash a paired step filled.
pub(crate) struct FrameHead<'a> {
    ks: &'a [u8],
    cipher: ChaCha20,
}

impl<'a> FrameHead<'a> {
    /// One step of this CPU's widest tier, into `scratch` (all zeros).
    pub(crate) fn new(
        key: &[u8; KEY_LEN],
        nonce: &[u8; NONCE_LEN],
        scratch: &'a mut [u8; MAX_STEP],
    ) -> FrameHead<'a> {
        let cipher = ChaCha20::new(key, nonce, 0);
        let len = cipher.peek_step(scratch);
        FrameHead {
            ks: &scratch[..len],
            cipher,
        }
    }

    /// This frame's head and, where the row step holds eight blocks
    /// (AVX-512), the head of the frame under `next` from the same step:
    /// blocks 0–3 of each nonce, the second written into `ahead`.
    /// Returns whether `ahead` was written; on the narrower tiers this
    /// is [`Self::new`] and `ahead` is left as it was.
    pub(crate) fn paired(
        key: &[u8; KEY_LEN],
        nonce: &[u8; NONCE_LEN],
        next: &[u8; NONCE_LEN],
        scratch: &'a mut [u8; MAX_STEP],
        ahead: &mut [u8; PAIRED_HEAD_LEN],
    ) -> (FrameHead<'a>, bool) {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx512f") {
            let cipher = ChaCha20::new(key, nonce, 0);
            let following = ChaCha20::new(key, next, 0);
            let head = scratch.first_chunk_mut().expect("a head fits a step");
            // SAFETY: feature presence is checked immediately above.
            unsafe { avx512::keystream_pair(&cipher.words, &following.words, head, ahead) };
            let ks = &scratch[..PAIRED_HEAD_LEN];
            return (FrameHead { ks, cipher }, true);
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = (next, ahead);
        (FrameHead::new(key, nonce, scratch), false)
    }

    /// The head of a frame whose keystream a paired step already made.
    pub(crate) fn made_ahead(
        key: &[u8; KEY_LEN],
        nonce: &[u8; NONCE_LEN],
        ks: &'a [u8; PAIRED_HEAD_LEN],
    ) -> FrameHead<'a> {
        FrameHead {
            ks,
            cipher: ChaCha20::new(key, nonce, 0),
        }
    }

    /// The Poly1305 one-time key for this nonce (§2.6).
    pub(crate) fn one_time_key(&self) -> [u8; 32] {
        *self
            .ks
            .first_chunk()
            .expect("a step is at least two blocks")
    }

    /// XORs the payload keystream this step produced over the front of
    /// `buf`. Returns how many bytes that covered and the stream
    /// positioned at the block after them, for the rest of `buf`.
    pub(crate) fn xor_front(mut self, buf: &mut [u8]) -> (usize, ChaCha20) {
        let n = buf.len().min(self.ks.len() - BLOCK_LEN);
        xor_into(&mut buf[..n], &self.ks[BLOCK_LEN..]);
        self.cipher.words[12] = 1 + n.div_ceil(BLOCK_LEN) as u32;
        (n, self.cipher)
    }
}

/// Computes one raw keystream block (§2.3).
#[cfg(test)]
fn keystream_block(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN], counter: u32) -> [u8; BLOCK_LEN] {
    let stream = ChaCha20::new(key, nonce, counter);
    let words = permute2(&stream.words)[0];
    let mut out = [0u8; BLOCK_LEN];
    for (i, w) in words.iter().enumerate() {
        out[i * 4..i * 4 + 4].copy_from_slice(&w.to_le_bytes());
    }
    out
}

/// Four blocks per step on 256-bit registers: two row-layout states, one
/// block per 128-bit lane. Rotations by 16 and 8 are single byte
/// shuffles; diagonalization shuffles words within each lane, so the two
/// blocks in a register never mix.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::BLOCK_LEN;
    use std::arch::x86_64::*;

    pub(super) const STEP: usize = 4 * BLOCK_LEN;

    /// XORs keystream over as many whole 256-byte (four-block) chunks as
    /// fit in `buf`, advancing the counter word. Returns bytes consumed.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn xor_keystream4(words: &mut [u32; 16], buf: &mut [u8]) -> usize {
        let steps = buf.len() / STEP;
        if steps == 0 {
            return 0;
        }
        // Byte-shuffle controls for 32-bit lane rotations (same pattern
        // in both 128-bit lanes).
        let rot16 = _mm256_setr_epi8(
            2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13, //
            2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13,
        );
        let rot8 = _mm256_setr_epi8(
            3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14, //
            3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14,
        );

        let p = words.as_ptr() as *const __m128i;
        let row0 = _mm256_broadcastsi128_si256(_mm_loadu_si128(p));
        let row1 = _mm256_broadcastsi128_si256(_mm_loadu_si128(p.add(1)));
        let row2 = _mm256_broadcastsi128_si256(_mm_loadu_si128(p.add(2)));
        let row3 = _mm256_broadcastsi128_si256(_mm_loadu_si128(p.add(3)));
        // Counter offsets: low lane = block n, high lane = block n+1.
        let ctr_a = _mm256_setr_epi32(0, 0, 0, 0, 1, 0, 0, 0);
        let ctr_b = _mm256_setr_epi32(2, 0, 0, 0, 3, 0, 0, 0);
        let ctr_step = _mm256_setr_epi32(4, 0, 0, 0, 4, 0, 0, 0);

        let mut i3a = _mm256_add_epi32(row3, ctr_a);
        let mut i3b = _mm256_add_epi32(row3, ctr_b);
        let mut out = buf.as_mut_ptr() as *mut __m256i;

        for _ in 0..steps {
            let (mut a0, mut a1, mut a2, mut a3) = (row0, row1, row2, i3a);
            let (mut b0, mut b1, mut b2, mut b3) = (row0, row1, row2, i3b);
            for _ in 0..10 {
                // Column rounds, both states interleaved.
                a0 = _mm256_add_epi32(a0, a1);
                b0 = _mm256_add_epi32(b0, b1);
                a3 = _mm256_shuffle_epi8(_mm256_xor_si256(a3, a0), rot16);
                b3 = _mm256_shuffle_epi8(_mm256_xor_si256(b3, b0), rot16);
                a2 = _mm256_add_epi32(a2, a3);
                b2 = _mm256_add_epi32(b2, b3);
                a1 = _mm256_xor_si256(a1, a2);
                b1 = _mm256_xor_si256(b1, b2);
                a1 = _mm256_or_si256(_mm256_slli_epi32(a1, 12), _mm256_srli_epi32(a1, 20));
                b1 = _mm256_or_si256(_mm256_slli_epi32(b1, 12), _mm256_srli_epi32(b1, 20));
                a0 = _mm256_add_epi32(a0, a1);
                b0 = _mm256_add_epi32(b0, b1);
                a3 = _mm256_shuffle_epi8(_mm256_xor_si256(a3, a0), rot8);
                b3 = _mm256_shuffle_epi8(_mm256_xor_si256(b3, b0), rot8);
                a2 = _mm256_add_epi32(a2, a3);
                b2 = _mm256_add_epi32(b2, b3);
                a1 = _mm256_xor_si256(a1, a2);
                b1 = _mm256_xor_si256(b1, b2);
                a1 = _mm256_or_si256(_mm256_slli_epi32(a1, 7), _mm256_srli_epi32(a1, 25));
                b1 = _mm256_or_si256(_mm256_slli_epi32(b1, 7), _mm256_srli_epi32(b1, 25));
                // Diagonalize (within each lane), repeat, undo.
                a1 = _mm256_shuffle_epi32(a1, 0x39);
                a2 = _mm256_shuffle_epi32(a2, 0x4E);
                a3 = _mm256_shuffle_epi32(a3, 0x93);
                b1 = _mm256_shuffle_epi32(b1, 0x39);
                b2 = _mm256_shuffle_epi32(b2, 0x4E);
                b3 = _mm256_shuffle_epi32(b3, 0x93);
                a0 = _mm256_add_epi32(a0, a1);
                b0 = _mm256_add_epi32(b0, b1);
                a3 = _mm256_shuffle_epi8(_mm256_xor_si256(a3, a0), rot16);
                b3 = _mm256_shuffle_epi8(_mm256_xor_si256(b3, b0), rot16);
                a2 = _mm256_add_epi32(a2, a3);
                b2 = _mm256_add_epi32(b2, b3);
                a1 = _mm256_xor_si256(a1, a2);
                b1 = _mm256_xor_si256(b1, b2);
                a1 = _mm256_or_si256(_mm256_slli_epi32(a1, 12), _mm256_srli_epi32(a1, 20));
                b1 = _mm256_or_si256(_mm256_slli_epi32(b1, 12), _mm256_srli_epi32(b1, 20));
                a0 = _mm256_add_epi32(a0, a1);
                b0 = _mm256_add_epi32(b0, b1);
                a3 = _mm256_shuffle_epi8(_mm256_xor_si256(a3, a0), rot8);
                b3 = _mm256_shuffle_epi8(_mm256_xor_si256(b3, b0), rot8);
                a2 = _mm256_add_epi32(a2, a3);
                b2 = _mm256_add_epi32(b2, b3);
                a1 = _mm256_xor_si256(a1, a2);
                b1 = _mm256_xor_si256(b1, b2);
                a1 = _mm256_or_si256(_mm256_slli_epi32(a1, 7), _mm256_srli_epi32(a1, 25));
                b1 = _mm256_or_si256(_mm256_slli_epi32(b1, 7), _mm256_srli_epi32(b1, 25));
                a1 = _mm256_shuffle_epi32(a1, 0x93);
                a2 = _mm256_shuffle_epi32(a2, 0x4E);
                a3 = _mm256_shuffle_epi32(a3, 0x39);
                b1 = _mm256_shuffle_epi32(b1, 0x93);
                b2 = _mm256_shuffle_epi32(b2, 0x4E);
                b3 = _mm256_shuffle_epi32(b3, 0x39);
            }
            // Feed-forward.
            a0 = _mm256_add_epi32(a0, row0);
            a1 = _mm256_add_epi32(a1, row1);
            a2 = _mm256_add_epi32(a2, row2);
            a3 = _mm256_add_epi32(a3, i3a);
            b0 = _mm256_add_epi32(b0, row0);
            b1 = _mm256_add_epi32(b1, row1);
            b2 = _mm256_add_epi32(b2, row2);
            b3 = _mm256_add_epi32(b3, i3b);
            // Reassemble per-block streams: low lanes then high lanes.
            for (j, ks) in [
                _mm256_permute2x128_si256(a0, a1, 0x20),
                _mm256_permute2x128_si256(a2, a3, 0x20),
                _mm256_permute2x128_si256(a0, a1, 0x31),
                _mm256_permute2x128_si256(a2, a3, 0x31),
                _mm256_permute2x128_si256(b0, b1, 0x20),
                _mm256_permute2x128_si256(b2, b3, 0x20),
                _mm256_permute2x128_si256(b0, b1, 0x31),
                _mm256_permute2x128_si256(b2, b3, 0x31),
            ]
            .into_iter()
            .enumerate()
            {
                let q = out.add(j);
                _mm256_storeu_si256(q, _mm256_xor_si256(_mm256_loadu_si256(q), ks));
            }
            out = out.add(8);
            i3a = _mm256_add_epi32(i3a, ctr_step);
            i3b = _mm256_add_epi32(i3b, ctr_step);
        }
        words[12] = words[12].wrapping_add((steps * 4) as u32);
        steps * STEP
    }
}

/// Two steps on 512-bit registers, both with native `vprold` rotations.
///
/// The eight-block step is two row-layout states, one block per 128-bit
/// lane (four lanes per register); diagonalization is an in-lane word
/// shuffle, exactly as in the AVX2 tier. The sixteen-block step is the
/// vertical layout: register `i` holds state word `i` of sixteen blocks,
/// one per 32-bit lane, so a column or diagonal round is four
/// independent quarter rounds with no shuffle at all, and a 16×16 dword
/// transpose lays the keystream out in stream order at the end.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::{BLOCK_LEN, WIDE_STEP};
    use std::arch::x86_64::*;

    const STEP: usize = 8 * BLOCK_LEN;

    /// `add, xor, rotate` on one column-round leg of both interleaved
    /// states, with the rotate amount as a constant.
    macro_rules! half_qr {
        ($a0:ident $a1:ident $a3:ident, $b0:ident $b1:ident $b3:ident, $rot:literal) => {
            $a0 = _mm512_add_epi32($a0, $a1);
            $b0 = _mm512_add_epi32($b0, $b1);
            $a3 = _mm512_rol_epi32::<$rot>(_mm512_xor_si512($a3, $a0));
            $b3 = _mm512_rol_epi32::<$rot>(_mm512_xor_si512($b3, $b0));
        };
    }

    /// The twenty rounds and the feed-forward of two interleaved
    /// row-layout states, `a` from row 3 `$i3a` and `b` from `$i3b`,
    /// rows 0–2 shared. Leaves each state's keystream rows in its four
    /// registers.
    macro_rules! permute_two_states {
        ([$a0:ident $a1:ident $a2:ident $a3:ident], [$b0:ident $b1:ident $b2:ident $b3:ident],
         $row0:ident $row1:ident $row2:ident $i3a:ident $i3b:ident) => {
            let (mut $a0, mut $a1, mut $a2, mut $a3) = ($row0, $row1, $row2, $i3a);
            let (mut $b0, mut $b1, mut $b2, mut $b3) = ($row0, $row1, $row2, $i3b);
            for _ in 0..10 {
                // Column rounds, both states interleaved.
                half_qr!($a0 $a1 $a3, $b0 $b1 $b3, 16);
                $a2 = _mm512_add_epi32($a2, $a3);
                $b2 = _mm512_add_epi32($b2, $b3);
                $a1 = _mm512_rol_epi32::<12>(_mm512_xor_si512($a1, $a2));
                $b1 = _mm512_rol_epi32::<12>(_mm512_xor_si512($b1, $b2));
                half_qr!($a0 $a1 $a3, $b0 $b1 $b3, 8);
                $a2 = _mm512_add_epi32($a2, $a3);
                $b2 = _mm512_add_epi32($b2, $b3);
                $a1 = _mm512_rol_epi32::<7>(_mm512_xor_si512($a1, $a2));
                $b1 = _mm512_rol_epi32::<7>(_mm512_xor_si512($b1, $b2));
                // Diagonalize (within each lane), repeat, undo.
                $a1 = _mm512_shuffle_epi32::<0x39>($a1);
                $a2 = _mm512_shuffle_epi32::<0x4E>($a2);
                $a3 = _mm512_shuffle_epi32::<0x93>($a3);
                $b1 = _mm512_shuffle_epi32::<0x39>($b1);
                $b2 = _mm512_shuffle_epi32::<0x4E>($b2);
                $b3 = _mm512_shuffle_epi32::<0x93>($b3);
                half_qr!($a0 $a1 $a3, $b0 $b1 $b3, 16);
                $a2 = _mm512_add_epi32($a2, $a3);
                $b2 = _mm512_add_epi32($b2, $b3);
                $a1 = _mm512_rol_epi32::<12>(_mm512_xor_si512($a1, $a2));
                $b1 = _mm512_rol_epi32::<12>(_mm512_xor_si512($b1, $b2));
                half_qr!($a0 $a1 $a3, $b0 $b1 $b3, 8);
                $a2 = _mm512_add_epi32($a2, $a3);
                $b2 = _mm512_add_epi32($b2, $b3);
                $a1 = _mm512_rol_epi32::<7>(_mm512_xor_si512($a1, $a2));
                $b1 = _mm512_rol_epi32::<7>(_mm512_xor_si512($b1, $b2));
                $a1 = _mm512_shuffle_epi32::<0x93>($a1);
                $a2 = _mm512_shuffle_epi32::<0x4E>($a2);
                $a3 = _mm512_shuffle_epi32::<0x39>($a3);
                $b1 = _mm512_shuffle_epi32::<0x93>($b1);
                $b2 = _mm512_shuffle_epi32::<0x4E>($b2);
                $b3 = _mm512_shuffle_epi32::<0x39>($b3);
            }
            // Feed-forward.
            $a0 = _mm512_add_epi32($a0, $row0);
            $a1 = _mm512_add_epi32($a1, $row1);
            $a2 = _mm512_add_epi32($a2, $row2);
            $a3 = _mm512_add_epi32($a3, $i3a);
            $b0 = _mm512_add_epi32($b0, $row0);
            $b1 = _mm512_add_epi32($b1, $row1);
            $b2 = _mm512_add_epi32($b2, $row2);
            $b3 = _mm512_add_epi32($b3, $i3b);
        };
    }

    /// Broadcasts row `i` of a state template to all four 128-bit lanes.
    ///
    /// # Safety
    ///
    /// `i < 4`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn row(words: &[u32; 16], i: usize) -> __m512i {
        _mm512_broadcast_i32x4(_mm_loadu_si128((words.as_ptr() as *const __m128i).add(i)))
    }

    /// XORs keystream over as many whole 512-byte (eight-block) chunks
    /// as fit in `buf`, advancing the counter word. Returns bytes
    /// consumed.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn xor_keystream8(words: &mut [u32; 16], buf: &mut [u8]) -> usize {
        let steps = buf.len() / STEP;
        if steps == 0 {
            return 0;
        }
        let (row0, row1, row2) = (row(words, 0), row(words, 1), row(words, 2));
        // Counter offsets: lane k of state a is block n+k, of b n+4+k.
        let ctr_a = _mm512_setr_epi32(0, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0);
        let ctr_b = _mm512_setr_epi32(4, 0, 0, 0, 5, 0, 0, 0, 6, 0, 0, 0, 7, 0, 0, 0);
        let ctr_step = _mm512_setr_epi32(8, 0, 0, 0, 8, 0, 0, 0, 8, 0, 0, 0, 8, 0, 0, 0);

        let mut i3a = _mm512_add_epi32(row(words, 3), ctr_a);
        let mut i3b = _mm512_add_epi32(row(words, 3), ctr_b);
        let mut out = buf.as_mut_ptr() as *mut __m512i;

        for _ in 0..steps {
            permute_two_states!([a0 a1 a2 a3], [b0 b1 b2 b3], row0 row1 row2 i3a i3b);
            // Each register holds one word-row of four blocks, one per
            // 128-bit lane: transposing the lanes yields whole blocks.
            for (base, rows) in [(0, [a0, a1, a2, a3]), (4, [b0, b1, b2, b3])] {
                for (j, ks) in transpose_lanes(rows).into_iter().enumerate() {
                    xor_at(out.add(base + j), ks);
                }
            }
            out = out.add(8);
            i3a = _mm512_add_epi32(i3a, ctr_step);
            i3b = _mm512_add_epi32(i3b, ctr_step);
        }
        words[12] = words[12].wrapping_add((steps * 8) as u32);
        steps * STEP
    }

    /// Blocks 0–3 past the counter of two states that share rows 0–2
    /// (one key, two nonces), in one eight-block step: `words`' into
    /// `out`, `next`'s into `out_next`.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn keystream_pair(
        words: &[u32; 16],
        next: &[u32; 16],
        out: &mut [u8; 4 * BLOCK_LEN],
        out_next: &mut [u8; 4 * BLOCK_LEN],
    ) {
        debug_assert_eq!(words[..12], next[..12], "one key, one counter");
        let (row0, row1, row2) = (row(words, 0), row(words, 1), row(words, 2));
        // Lane k of each state is block k.
        let ctr = _mm512_setr_epi32(0, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0);
        let i3a = _mm512_add_epi32(row(words, 3), ctr);
        let i3b = _mm512_add_epi32(row(next, 3), ctr);
        permute_two_states!([a0 a1 a2 a3], [b0 b1 b2 b3], row0 row1 row2 i3a i3b);
        for (dst, rows) in [(out, [a0, a1, a2, a3]), (out_next, [b0, b1, b2, b3])] {
            let dst = dst.as_mut_ptr() as *mut __m512i;
            for (j, ks) in transpose_lanes(rows).into_iter().enumerate() {
                _mm512_storeu_si512(dst.add(j), ks);
            }
        }
    }

    /// Four independent §2.1 quarter rounds on the vertical state, one
    /// per `[a b c d]` index quadruple, interleaved leg by leg.
    macro_rules! quarter_rounds {
        ($x:ident: $([$a:literal $b:literal $c:literal $d:literal])+) => {
            $( $x[$a] = _mm512_add_epi32($x[$a], $x[$b]);
               $x[$d] = _mm512_rol_epi32::<16>(_mm512_xor_si512($x[$d], $x[$a])); )+
            $( $x[$c] = _mm512_add_epi32($x[$c], $x[$d]);
               $x[$b] = _mm512_rol_epi32::<12>(_mm512_xor_si512($x[$b], $x[$c])); )+
            $( $x[$a] = _mm512_add_epi32($x[$a], $x[$b]);
               $x[$d] = _mm512_rol_epi32::<8>(_mm512_xor_si512($x[$d], $x[$a])); )+
            $( $x[$c] = _mm512_add_epi32($x[$c], $x[$d]);
               $x[$b] = _mm512_rol_epi32::<7>(_mm512_xor_si512($x[$b], $x[$c])); )+
        };
    }

    /// XORs keystream over as many whole 1 KiB (sixteen-block) chunks as
    /// fit in `buf`, advancing the counter word. Returns bytes consumed.
    ///
    /// Lane `j` is block `counter + j`, the counter added mod 2³² per
    /// lane exactly as the row tiers' `wrapping_add` does.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F. Every load and store stays inside
    /// `buf`: the step count is `buf.len() / WIDE_STEP`.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn xor_keystream16(words: &mut [u32; 16], buf: &mut [u8]) -> usize {
        let steps = buf.len() / WIDE_STEP;
        if steps == 0 {
            return 0;
        }
        let lanes = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
        let mut out = buf.as_mut_ptr() as *mut __m512i;
        for step in 0..steps {
            let counter = words[12].wrapping_add((step * 16) as u32);
            let mut init: [__m512i; 16] =
                std::array::from_fn(|i| _mm512_set1_epi32(words[i] as i32));
            init[12] = _mm512_add_epi32(_mm512_set1_epi32(counter as i32), lanes);
            let mut x = init;
            for _ in 0..10 {
                quarter_rounds!(x: [0 4 8 12] [1 5 9 13] [2 6 10 14] [3 7 11 15]);
                quarter_rounds!(x: [0 5 10 15] [1 6 11 12] [2 7 8 13] [3 4 9 14]);
            }
            for (w, i) in x.iter_mut().zip(init) {
                *w = _mm512_add_epi32(*w, i);
            }
            // Transpose 4×4 dword tiles within each 128-bit lane: `r[g][s]`
            // holds words 4g…4g+3 of block 4L+s in lane L.
            let r: [[__m512i; 4]; 4] = std::array::from_fn(|g| {
                let [w0, w1, w2, w3] = [x[4 * g], x[4 * g + 1], x[4 * g + 2], x[4 * g + 3]];
                let (lo01, hi01) = (_mm512_unpacklo_epi32(w0, w1), _mm512_unpackhi_epi32(w0, w1));
                let (lo23, hi23) = (_mm512_unpacklo_epi32(w2, w3), _mm512_unpackhi_epi32(w2, w3));
                [
                    _mm512_unpacklo_epi64(lo01, lo23),
                    _mm512_unpackhi_epi64(lo01, lo23),
                    _mm512_unpacklo_epi64(hi01, hi23),
                    _mm512_unpackhi_epi64(hi01, hi23),
                ]
            });
            // …then the 128-bit lanes, as in the eight-block step.
            for s in 0..4 {
                for (lane, ks) in transpose_lanes(r.map(|g| g[s])).into_iter().enumerate() {
                    xor_at(out.add(4 * lane + s), ks);
                }
            }
            out = out.add(16);
        }
        words[12] = words[12].wrapping_add((steps * 16) as u32);
        steps * WIDE_STEP
    }

    /// Transposes a 4×4 grid of 128-bit lanes: result `j` is lane `j` of
    /// `rows[0]`, …, `rows[3]`, in that order.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn transpose_lanes(rows: [__m512i; 4]) -> [__m512i; 4] {
        let [r0, r1, r2, r3] = rows;
        let t0 = _mm512_shuffle_i32x4::<0x44>(r0, r1);
        let t1 = _mm512_shuffle_i32x4::<0x44>(r2, r3);
        let t2 = _mm512_shuffle_i32x4::<0xEE>(r0, r1);
        let t3 = _mm512_shuffle_i32x4::<0xEE>(r2, r3);
        [
            _mm512_shuffle_i32x4::<0x88>(t0, t1),
            _mm512_shuffle_i32x4::<0xDD>(t0, t1),
            _mm512_shuffle_i32x4::<0x88>(t2, t3),
            _mm512_shuffle_i32x4::<0xDD>(t2, t3),
        ]
    }

    /// `*q ^= ks` on one unaligned 64-byte block.
    ///
    /// # Safety
    ///
    /// `q` must be valid for reads and writes of 64 bytes.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn xor_at(q: *mut __m512i, ks: __m512i) {
        _mm512_storeu_si512(q, _mm512_xor_si512(_mm512_loadu_si512(q), ks));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(s: &str) -> Vec<u8> {
        s.split_whitespace()
            .flat_map(|tok| {
                (0..tok.len())
                    .step_by(2)
                    .map(|i| u8::from_str_radix(&tok[i..i + 2], 16).unwrap())
                    .collect::<Vec<_>>()
            })
            .collect()
    }

    fn test_key() -> [u8; KEY_LEN] {
        let mut k = [0u8; KEY_LEN];
        for (i, b) in k.iter_mut().enumerate() {
            *b = i as u8;
        }
        k
    }

    #[test]
    fn rfc8439_block_function_vector() {
        // §2.3.2: key 00..1f, nonce 00 00 00 09 00 00 00 4a 00 00 00 00,
        // counter 1.
        let nonce = [0, 0, 0, 9, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let block = keystream_block(&test_key(), &nonce, 1);
        let expected = hex("10 f1 e7 e4 d1 3b 59 15 50 0f dd 1f a3 20 71 c4
             c7 d1 f4 c7 33 c0 68 03 04 22 aa 9a c3 d4 6c 4e
             d2 82 64 46 07 9f aa 09 14 c2 d7 05 d9 8b 02 a2
             b5 12 9c d1 de 16 4e b9 cb d0 83 e8 a2 50 3c 4e");
        assert_eq!(block.to_vec(), expected);
    }

    #[test]
    fn rfc8439_encryption_vector() {
        // §2.4.2: the "sunscreen" plaintext, counter starts at 1.
        let nonce = [0, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could \
offer you only one tip for the future, sunscreen would be it.";
        let mut buf = plaintext.to_vec();
        ChaCha20::new(&test_key(), &nonce, 1).xor_keystream(&mut buf);
        let expected = hex("6e 2e 35 9a 25 68 f9 80 41 ba 07 28 dd 0d 69 81
             e9 7e 7a ec 1d 43 60 c2 0a 27 af cc fd 9f ae 0b
             f9 1b 65 c5 52 47 33 ab 8f 59 3d ab cd 62 b3 57
             16 39 d6 24 e6 51 52 ab 8f 53 0c 35 9f 08 61 d8
             07 ca 0d bf 50 0d 6a 61 56 a3 8e 08 8a 22 b6 5e
             52 bc 51 4d 16 cc f8 06 81 8c e9 1a b7 79 37 36
             5a f9 0b bf 74 a3 5b e6 b4 0b 8e ed f2 78 5e 42
             87 4d");
        assert_eq!(buf, expected);
        // Decryption is the same operation.
        ChaCha20::new(&test_key(), &nonce, 1).xor_keystream(&mut buf);
        assert_eq!(buf, plaintext.to_vec());
    }

    /// The portable tier alone over all of `buf`, from block `counter`:
    /// the reference the dispatching paths are held to.
    fn portable_stream(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN], counter: u32, buf: &mut [u8]) {
        let mut c = ChaCha20::new(key, nonce, counter);
        let done = c.xor_whole_steps_portable(buf);
        xor_into(&mut buf[done..], &permute2_bytes(&c.words));
    }

    #[test]
    fn wide_and_tail_paths_agree() {
        // Any block-aligned split of one long message across calls must
        // equal the one-shot stream, whatever mix of whole steps and
        // partly used steps each call takes.
        let key = test_key();
        let nonce = [7u8; NONCE_LEN];
        let mut whole = vec![0xA5u8; 1024 + 64 + 17];
        ChaCha20::new(&key, &nonce, 1).xor_keystream(&mut whole);
        let mut reference = vec![0xA5u8; 1024 + 64 + 17];
        portable_stream(&key, &nonce, 1, &mut reference);
        assert_eq!(whole, reference);

        let mut split = vec![0xA5u8; 1024 + 64 + 17];
        let mut c = ChaCha20::new(&key, &nonce, 1);
        let (a, rest) = split.split_at_mut(128);
        let (b, rest2) = rest.split_at_mut(64); // single-block tail
        let (d, tail) = rest2.split_at_mut(1024 - 128);
        c.xor_keystream(a);
        c.xor_keystream(b);
        c.xor_keystream(d);
        c.xor_keystream(tail); // 64 + 17: one whole and one partial block
        assert_eq!(split, whole);
    }

    #[test]
    fn every_length_matches_the_portable_tier() {
        // Whole steps plus a tail cut out of one more step — a row step
        // up to 512 bytes, a vertical one past that — at every length to
        // three of the widest steps, and around the bulk frames: an 8 KiB
        // READ reply's AEAD payload (8 304 B; 8 120 and 8 312 B) and a
        // 32 KiB WRITE call's (32 836 B; 32 888 B).
        let key = test_key();
        let nonce = [5u8; NONCE_LEN];
        for len in (0..=3 * WIDE_STEP).chain([8120, 8304, 8312, 32_836, 32_888]) {
            let mut fast: Vec<u8> = (0..len).map(|i| (i * 7) as u8).collect();
            let mut reference = fast.clone();
            let mut c = ChaCha20::new(&key, &nonce, 1);
            c.xor_keystream(&mut fast);
            portable_stream(&key, &nonce, 1, &mut reference);
            assert_eq!(fast, reference, "len {len}");
            assert_eq!(c.words[12], 1 + len.div_ceil(BLOCK_LEN) as u32, "len {len}");
        }
    }

    #[test]
    fn frame_head_is_block_zero_plus_the_stream_from_block_one() {
        let key = test_key();
        let nonce = [13u8; NONCE_LEN];
        let block0 = keystream_block(&key, &nonce, 0);
        let mut next = nonce;
        next[11] ^= 1;
        for len in [
            0usize, 1, 63, 64, 65, 127, 128, 191, 192, 193, 447, 448, 449, 512, 1000,
        ] {
            let mut plain = vec![0xC3u8; len];
            ChaCha20::new(&key, &nonce, 1).xor_keystream(&mut plain);
            let (mut scratch, mut paired_scratch) = ([0u8; MAX_STEP], [0u8; MAX_STEP]);
            let mut ahead = [0u8; PAIRED_HEAD_LEN];
            // A paired step's head for this nonce covers fewer payload
            // blocks; the stream continues from wherever it stopped.
            let heads = [
                FrameHead::new(&key, &nonce, &mut scratch),
                FrameHead::paired(&key, &nonce, &next, &mut paired_scratch, &mut ahead).0,
            ];
            for head in heads {
                assert_eq!(head.one_time_key(), block0[..32]);
                let mut fused = vec![0xC3u8; len];
                let (n, mut rest) = head.xor_front(&mut fused);
                rest.xor_keystream(&mut fused[n..]);
                assert_eq!(fused, plain, "len {len}");
            }
        }
    }

    /// Blocks 0–3 of `nonce` from the portable tier.
    fn portable_head(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN]) -> [u8; PAIRED_HEAD_LEN] {
        let mut ks = [0u8; PAIRED_HEAD_LEN];
        portable_stream(key, nonce, 0, &mut ks);
        ks
    }

    #[test]
    fn paired_step_equals_two_single_steps_on_every_tier() {
        use sfs_bignum::{RandomSource, XorShiftSource};
        let mut rng = XorShiftSource::new(0x9A1_2ED);
        for _ in 0..64 {
            let (mut key, mut nonce, mut next) = ([0u8; KEY_LEN], [0u8; NONCE_LEN], [0u8; 12]);
            rng.fill(&mut key);
            rng.fill(&mut nonce);
            rng.fill(&mut next);
            let (this_head, next_head) = (portable_head(&key, &nonce), portable_head(&key, &next));

            // Through the dispatcher: two heads on a tier whose row step
            // holds eight blocks, this one alone on the others.
            let mut scratch = [0u8; MAX_STEP];
            let mut ahead = [0x5Au8; PAIRED_HEAD_LEN];
            let (head, paired) = FrameHead::paired(&key, &nonce, &next, &mut scratch, &mut ahead);
            #[cfg(target_arch = "x86_64")]
            let wide_rows = std::arch::is_x86_feature_detected!("avx512f");
            #[cfg(not(target_arch = "x86_64"))]
            let wide_rows = false;
            assert_eq!(paired, wide_rows);
            assert_eq!(head.ks, &this_head[..head.ks.len()]);
            if paired {
                assert_eq!(head.ks.len(), PAIRED_HEAD_LEN);
                assert_eq!(ahead, next_head);
                let stashed = FrameHead::made_ahead(&key, &next, &ahead);
                assert_eq!(stashed.one_time_key(), next_head[..32]);
            } else {
                assert_eq!(
                    ahead, [0x5A; PAIRED_HEAD_LEN],
                    "a narrow tier leaves the stash"
                );
            }

            // The kernel itself.
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("avx512f") {
                let (a, b) = (
                    ChaCha20::new(&key, &nonce, 0),
                    ChaCha20::new(&key, &next, 0),
                );
                let (mut out, mut out_next) = ([0u8; PAIRED_HEAD_LEN], [0u8; PAIRED_HEAD_LEN]);
                // SAFETY: avx512f presence checked above.
                unsafe { avx512::keystream_pair(&a.words, &b.words, &mut out, &mut out_next) };
                assert_eq!((out, out_next), (this_head, next_head));
            }
        }
        #[cfg(target_arch = "x86_64")]
        if !std::arch::is_x86_feature_detected!("avx512f") {
            println!("skipped: avx512f");
        }
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn avx2_tier_matches_portable_tier() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            println!("skipped: avx2");
            return;
        }
        let key = test_key();
        let nonce = [9u8; NONCE_LEN];
        for len in [256usize, 512, 1024, 4096] {
            let mut fast = vec![0x3Cu8; len];
            // SAFETY: avx2 presence checked above.
            let mut words = ChaCha20::new(&key, &nonce, 1).words;
            let done = unsafe { avx2::xor_keystream4(&mut words, &mut fast) };
            assert_eq!(done, len);
            let mut portable = vec![0x3Cu8; len];
            portable_stream(&key, &nonce, 1, &mut portable);
            assert_eq!(fast, portable, "len {len}");
            assert_eq!(words[12], 1 + (len / BLOCK_LEN) as u32);
        }
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn avx512_tier_matches_portable_tier() {
        if !std::arch::is_x86_feature_detected!("avx512f") {
            println!("skipped: avx512f");
            return;
        }
        let key = test_key();
        let nonce = [11u8; NONCE_LEN];
        for len in [512usize, 1024, 4096, 8192] {
            let mut fast = vec![0x5Eu8; len];
            // SAFETY: avx512f presence checked above.
            let mut words = ChaCha20::new(&key, &nonce, 1).words;
            let done = unsafe { avx512::xor_keystream8(&mut words, &mut fast) };
            assert_eq!(done, len);
            let mut portable = vec![0x5Eu8; len];
            portable_stream(&key, &nonce, 1, &mut portable);
            assert_eq!(fast, portable, "len {len}");
            assert_eq!(words[12], 1 + (len / BLOCK_LEN) as u32);
        }
        // The kernel takes whole steps only; `xor_keystream` cuts the
        // rest out of one more step.
        let mut words = ChaCha20::new(&key, &nonce, 1).words;
        assert_eq!(
            unsafe { avx512::xor_keystream8(&mut words, &mut [0u8; 511]) },
            0
        );
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn sixteen_block_step_matches_portable_tier() {
        if !std::arch::is_x86_feature_detected!("avx512f") {
            println!("skipped: avx512f");
            return;
        }
        use sfs_bignum::{RandomSource, XorShiftSource};
        let mut rng = XorShiftSource::new(0xC4AC_0016);
        let lengths = (0..=4200usize).chain([8192, 8196, 32_772]);
        for len in lengths {
            let mut random_key = [0u8; KEY_LEN];
            let mut nonce = [0u8; NONCE_LEN];
            rng.fill(&mut random_key);
            rng.fill(&mut nonce);
            let data: Vec<u8> = (0..len).map(|i| (i * 131 + len) as u8).collect();
            // From 0xFFFF_FFF8 the lanes of the first step wrap past 2³²
            // in mid-register, exactly as `wrapping_add` does.
            for (key, counter) in [
                (random_key, 1u32),
                (random_key, 0xFFFF_FFF8),
                ([0xff; KEY_LEN], 1),
                ([0xff; KEY_LEN], 0xFFFF_FFF8),
            ] {
                let mut reference = data.clone();
                portable_stream(&key, &nonce, counter, &mut reference);
                let blocks = len.div_ceil(BLOCK_LEN) as u32;

                // The step alone takes exactly the whole 1 KiB runs.
                let mut wide = data.clone();
                let mut words = ChaCha20::new(&key, &nonce, counter).words;
                // SAFETY: avx512f presence checked above.
                let done = unsafe { avx512::xor_keystream16(&mut words, &mut wide) };
                assert_eq!(done, len / WIDE_STEP * WIDE_STEP, "len {len}");
                assert_eq!(
                    wide[..done],
                    reference[..done],
                    "len {len} ctr {counter:#x}"
                );
                assert_eq!(wide[done..], data[done..], "len {len}: tail untouched");
                assert_eq!(words[12], counter.wrapping_add((done / BLOCK_LEN) as u32));

                // Through the dispatcher: wide runs and the tail, one
                // stream.
                let mut c = ChaCha20::new(&key, &nonce, counter);
                let mut fast = data.clone();
                c.xor_keystream(&mut fast);
                assert_eq!(fast, reference, "len {len} ctr {counter:#x}");
                assert_eq!(c.words[12], counter.wrapping_add(blocks), "len {len}");
            }
        }
    }

    #[test]
    fn rfc8439_a2_vectors_across_a_wide_step_boundary() {
        // RFC 8439 A.2 #1–#3, each placed `k` blocks into one
        // `xor_keystream` call (the stream started `k` blocks earlier,
        // wrapping below counter 0 for #1) with 1100 bytes after it, so
        // the vector sits inside, at the end of, across and after the
        // first sixteen-block run.
        const IETF: &[u8] = b"Any submission to the IETF intended by the Contributor for \
publication as all or part of an IETF Internet-Draft or RFC and any statement made within \
the context of an IETF activity is considered an \"IETF Contribution\". Such statements \
include oral statements in IETF sessions, as well as written and electronic communications \
made at any time or place, which are addressed to";
        const JABBERWOCKY: &[u8] = b"'Twas brillig, and the slithy toves\nDid gyre and gimble \
in the wabe:\nAll mimsy were the borogoves,\nAnd the mome raths outgrabe.";
        let mut key2 = [0u8; KEY_LEN];
        key2[31] = 1;
        let key3: [u8; KEY_LEN] = hex("1c 92 40 a5 eb 55 d3 8a f3 33 88 86 04 f6 b5 f0
             47 39 17 c1 40 2b 80 09 9d ca 5c bc 20 70 75 c0")
        .try_into()
        .unwrap();
        let nonce2 = [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2];
        let vectors = [
            (
                "#1",
                [0; KEY_LEN],
                [0; NONCE_LEN],
                0u32,
                &[0u8; 64][..],
                hex("76 b8 e0 ad a0 f1 3d 90 40 5d 6a e5 53 86 bd 28
                     bd d2 19 b8 a0 8d ed 1a a8 36 ef cc 8b 77 0d c7
                     da 41 59 7c 51 57 48 8d 77 24 e0 3f b8 d8 4a 37
                     6a 43 b8 f4 15 18 a1 1c c3 87 b6 69 b2 ee 65 86"),
            ),
            (
                "#2",
                key2,
                nonce2,
                1,
                IETF,
                hex("a3 fb f0 7d f3 fa 2f de 4f 37 6c a2 3e 82 73 70
                     41 60 5d 9f 4f 4f 57 bd 8c ff 2c 1d 4b 79 55 ec
                     2a 97 94 8b d3 72 29 15 c8 f3 d3 37 f7 d3 70 05
                     0e 9e 96 d6 47 b7 c3 9f 56 e0 31 ca 5e b6 25 0d
                     40 42 e0 27 85 ec ec fa 4b 4b b5 e8 ea d0 44 0e
                     20 b6 e8 db 09 d8 81 a7 c6 13 2f 42 0e 52 79 50
                     42 bd fa 77 73 d8 a9 05 14 47 b3 29 1c e1 41 1c
                     68 04 65 55 2a a6 c4 05 b7 76 4d 5e 87 be a8 5a
                     d0 0f 84 49 ed 8f 72 d0 d6 62 ab 05 26 91 ca 66
                     42 4b c8 6d 2d f8 0e a4 1f 43 ab f9 37 d3 25 9d
                     c4 b2 d0 df b4 8a 6c 91 39 dd d7 f7 69 66 e9 28
                     e6 35 55 3b a7 6c 5c 87 9d 7b 35 d4 9e b2 e6 2b
                     08 71 cd ac 63 89 39 e2 5e 8a 1e 0e f9 d5 28 0f
                     a8 ca 32 8b 35 1c 3c 76 59 89 cb cf 3d aa 8b 6c
                     cc 3a af 9f 39 79 c9 2b 37 20 fc 88 dc 95 ed 84
                     a1 be 05 9c 64 99 b9 fd a2 36 e7 e8 18 b0 4b 0b
                     c3 9c 1e 87 6b 19 3b fe 55 69 75 3f 88 12 8c c0
                     8a aa 9b 63 d1 a1 6f 80 ef 25 54 d7 18 9c 41 1f
                     58 69 ca 52 c5 b8 3f a3 6f f2 16 b9 c1 d3 00 62
                     be bc fd 2d c5 bc e0 91 19 34 fd a7 9a 86 f6 e6
                     98 ce d7 59 c3 ff 9b 64 77 33 8f 3d a4 f9 cd 85
                     14 ea 99 82 cc af b3 41 b2 38 4d d9 02 f3 d1 ab
                     7a c6 1d d2 9c 6f 21 ba 5b 86 2f 37 30 e3 7c fd
                     c4 fd 80 6c 22 f2 21"),
            ),
            (
                "#3",
                key3,
                nonce2,
                42,
                JABBERWOCKY,
                hex("62 e6 34 7f 95 ed 87 a4 5f fa e7 42 6f 27 a1 df
                     5f b6 91 10 04 4c 0d 73 11 8e ff a9 5b 01 e5 cf
                     16 6d 3d f2 d7 21 ca f9 b2 1e 5f b1 4c 61 68 71
                     fd 84 c5 4f 9d 65 b2 83 19 6c 7f e4 f6 05 53 eb
                     f3 9c 64 02 c4 22 34 e3 2a 35 6b 3e 76 43 12 a6
                     1a 55 32 05 57 16 ea d6 96 25 68 f8 7d 3f 3f 77
                     04 c6 a8 d1 bc d1 bf 4d 50 d6 15 4b 6d a7 31 b1
                     87 b5 8d fd 72 8a fa 36 75 7a 79 7a c1 88 d1"),
            ),
        ];
        for (name, key, nonce, counter, plaintext, expected) in &vectors {
            assert_eq!(plaintext.len(), expected.len(), "{name}");
            for k in 0..=24usize {
                let at = k * BLOCK_LEN;
                let mut buf = vec![0x5Au8; at + plaintext.len() + 1100];
                buf[at..at + plaintext.len()].copy_from_slice(plaintext);
                ChaCha20::new(key, nonce, counter.wrapping_sub(k as u32)).xor_keystream(&mut buf);
                assert_eq!(
                    &buf[at..at + plaintext.len()],
                    &expected[..],
                    "{name} at block {k}"
                );
            }
        }
    }

    #[test]
    fn counter_advances_across_partial_blocks() {
        // A partial block consumes a whole counter step.
        let key = test_key();
        let nonce = [3u8; NONCE_LEN];
        let mut a = [0u8; 10];
        let mut c = ChaCha20::new(&key, &nonce, 5);
        c.xor_keystream(&mut a);
        let mut b = [0u8; 64];
        c.xor_keystream(&mut b);
        let mut direct = [0u8; 64];
        ChaCha20::new(&key, &nonce, 6).xor_keystream(&mut direct);
        assert_eq!(b, direct);
    }
}
