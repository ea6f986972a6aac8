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
//! registers, where every rotation is a native `vprold`.
//!
//! Every tier is bound by the latency of its twenty dependent rounds,
//! so one step costs about the same whether it yields two blocks or
//! eight. The stream therefore never drops to a narrower tier: what is
//! left after the whole steps is XORed out of one more step of the same
//! width, and an AEAD frame's first step (`FrameHead`) yields the
//! Poly1305 key block and the first payload blocks together.

/// Key length in bytes (256-bit keys only; RFC 8439 drops the 128-bit form).
pub const KEY_LEN: usize = 32;
/// Nonce length in bytes (96-bit IETF nonce; the block counter is 32-bit).
pub const NONCE_LEN: usize = 12;
/// One keystream block.
pub const BLOCK_LEN: usize = 64;

/// The widest step any tier takes (eight blocks, [`avx512`]).
const MAX_STEP: usize = 8 * BLOCK_LEN;

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
        let (ks, _) = self.peek_step();
        xor_into(tail, &ks);
        self.words[12] = self.words[12].wrapping_add(tail.len().div_ceil(BLOCK_LEN) as u32);
    }

    /// XORs keystream over as many whole steps of this CPU's widest tier
    /// as fit in `buf`, advancing the counter. Returns bytes consumed.
    fn xor_whole_steps(&mut self, buf: &mut [u8]) -> usize {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: feature presence is checked immediately above.
            return unsafe { avx512::xor_keystream8(&mut self.words, buf) };
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

    /// The raw keystream of one step of this CPU's widest tier at the
    /// current counter, which stays where it is, and the step's length.
    fn peek_step(&self) -> ([u8; MAX_STEP], usize) {
        // Keystream XORed over zeros is the keystream.
        let mut ks = [0u8; MAX_STEP];
        #[cfg(target_arch = "x86_64")]
        {
            let mut words = self.words;
            if std::arch::is_x86_feature_detected!("avx512f") {
                // SAFETY: feature presence is checked immediately above.
                let len = unsafe { avx512::xor_keystream8(&mut words, &mut ks) };
                return (ks, len);
            } else if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: feature presence is checked immediately above.
                let len = unsafe { avx2::xor_keystream4(&mut words, &mut ks[..avx2::STEP]) };
                return (ks, len);
            }
        }
        ks[..2 * BLOCK_LEN].copy_from_slice(&permute2_bytes(&self.words));
        (ks, 2 * BLOCK_LEN)
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
/// key, and with it the keystream of payload blocks 1… as far as one
/// step of this CPU's widest tier reaches (one, three or seven blocks).
pub(crate) struct FrameHead {
    ks: [u8; MAX_STEP],
    len: usize,
    cipher: ChaCha20,
}

impl FrameHead {
    pub(crate) fn new(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN]) -> FrameHead {
        let cipher = ChaCha20::new(key, nonce, 0);
        let (ks, len) = cipher.peek_step();
        FrameHead { ks, len, cipher }
    }

    /// The Poly1305 one-time key for this nonce (§2.6).
    pub(crate) fn one_time_key(&self) -> [u8; 32] {
        self.ks[..32]
            .try_into()
            .expect("a step is at least two blocks")
    }

    /// XORs the payload keystream this step produced over the front of
    /// `buf`. Returns how many bytes that covered and the stream
    /// positioned at the block after them, for the rest of `buf`.
    pub(crate) fn xor_front(mut self, buf: &mut [u8]) -> (usize, ChaCha20) {
        let n = buf.len().min(self.len - BLOCK_LEN);
        xor_into(&mut buf[..n], &self.ks[BLOCK_LEN..]);
        self.cipher.words[12] = 1 + n.div_ceil(BLOCK_LEN) as u32;
        (n, self.cipher)
    }
}

/// Computes one raw keystream block (§2.3).
pub fn keystream_block(
    key: &[u8; KEY_LEN],
    nonce: &[u8; NONCE_LEN],
    counter: u32,
) -> [u8; BLOCK_LEN] {
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

/// Eight blocks per step on 512-bit registers: two row-layout states,
/// one block per 128-bit lane (four lanes per register). AVX-512F has a
/// native 32-bit rotate, so every quarter-round rotation is a single
/// `vprold`; diagonalization is an in-lane word shuffle, exactly as in
/// the AVX2 tier.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::BLOCK_LEN;
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

    /// XORs keystream over as many whole 512-byte (eight-block) chunks
    /// as fit in `buf`, advancing the counter word. Returns bytes
    /// consumed.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn xor_keystream8(words: &mut [u32; 16], buf: &mut [u8]) -> usize {
        let steps = buf.len() / STEP;
        if steps == 0 {
            return 0;
        }
        let p = words.as_ptr() as *const __m128i;
        let row0 = _mm512_broadcast_i32x4(_mm_loadu_si128(p));
        let row1 = _mm512_broadcast_i32x4(_mm_loadu_si128(p.add(1)));
        let row2 = _mm512_broadcast_i32x4(_mm_loadu_si128(p.add(2)));
        let row3 = _mm512_broadcast_i32x4(_mm_loadu_si128(p.add(3)));
        // Counter offsets: lane k of state a is block n+k, of b n+4+k.
        let ctr_a = _mm512_setr_epi32(0, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0);
        let ctr_b = _mm512_setr_epi32(4, 0, 0, 0, 5, 0, 0, 0, 6, 0, 0, 0, 7, 0, 0, 0);
        let ctr_step = _mm512_setr_epi32(8, 0, 0, 0, 8, 0, 0, 0, 8, 0, 0, 0, 8, 0, 0, 0);

        let mut i3a = _mm512_add_epi32(row3, ctr_a);
        let mut i3b = _mm512_add_epi32(row3, ctr_b);
        let mut out = buf.as_mut_ptr() as *mut __m512i;

        for _ in 0..steps {
            let (mut a0, mut a1, mut a2, mut a3) = (row0, row1, row2, i3a);
            let (mut b0, mut b1, mut b2, mut b3) = (row0, row1, row2, i3b);
            for _ in 0..10 {
                // Column rounds, both states interleaved.
                half_qr!(a0 a1 a3, b0 b1 b3, 16);
                a2 = _mm512_add_epi32(a2, a3);
                b2 = _mm512_add_epi32(b2, b3);
                a1 = _mm512_rol_epi32::<12>(_mm512_xor_si512(a1, a2));
                b1 = _mm512_rol_epi32::<12>(_mm512_xor_si512(b1, b2));
                half_qr!(a0 a1 a3, b0 b1 b3, 8);
                a2 = _mm512_add_epi32(a2, a3);
                b2 = _mm512_add_epi32(b2, b3);
                a1 = _mm512_rol_epi32::<7>(_mm512_xor_si512(a1, a2));
                b1 = _mm512_rol_epi32::<7>(_mm512_xor_si512(b1, b2));
                // Diagonalize (within each lane), repeat, undo.
                a1 = _mm512_shuffle_epi32::<0x39>(a1);
                a2 = _mm512_shuffle_epi32::<0x4E>(a2);
                a3 = _mm512_shuffle_epi32::<0x93>(a3);
                b1 = _mm512_shuffle_epi32::<0x39>(b1);
                b2 = _mm512_shuffle_epi32::<0x4E>(b2);
                b3 = _mm512_shuffle_epi32::<0x93>(b3);
                half_qr!(a0 a1 a3, b0 b1 b3, 16);
                a2 = _mm512_add_epi32(a2, a3);
                b2 = _mm512_add_epi32(b2, b3);
                a1 = _mm512_rol_epi32::<12>(_mm512_xor_si512(a1, a2));
                b1 = _mm512_rol_epi32::<12>(_mm512_xor_si512(b1, b2));
                half_qr!(a0 a1 a3, b0 b1 b3, 8);
                a2 = _mm512_add_epi32(a2, a3);
                b2 = _mm512_add_epi32(b2, b3);
                a1 = _mm512_rol_epi32::<7>(_mm512_xor_si512(a1, a2));
                b1 = _mm512_rol_epi32::<7>(_mm512_xor_si512(b1, b2));
                a1 = _mm512_shuffle_epi32::<0x93>(a1);
                a2 = _mm512_shuffle_epi32::<0x4E>(a2);
                a3 = _mm512_shuffle_epi32::<0x39>(a3);
                b1 = _mm512_shuffle_epi32::<0x93>(b1);
                b2 = _mm512_shuffle_epi32::<0x4E>(b2);
                b3 = _mm512_shuffle_epi32::<0x39>(b3);
            }
            // Feed-forward.
            a0 = _mm512_add_epi32(a0, row0);
            a1 = _mm512_add_epi32(a1, row1);
            a2 = _mm512_add_epi32(a2, row2);
            a3 = _mm512_add_epi32(a3, i3a);
            b0 = _mm512_add_epi32(b0, row0);
            b1 = _mm512_add_epi32(b1, row1);
            b2 = _mm512_add_epi32(b2, row2);
            b3 = _mm512_add_epi32(b3, i3b);
            // Transpose the 4×4 grid of 128-bit lanes so each register
            // holds one whole block's sixteen words in stream order.
            for (base, (r0, r1, r2, r3)) in [(0, (a0, a1, a2, a3)), (4, (b0, b1, b2, b3))] {
                let t0 = _mm512_shuffle_i32x4::<0x44>(r0, r1);
                let t1 = _mm512_shuffle_i32x4::<0x44>(r2, r3);
                let t2 = _mm512_shuffle_i32x4::<0xEE>(r0, r1);
                let t3 = _mm512_shuffle_i32x4::<0xEE>(r2, r3);
                for (j, ks) in [
                    _mm512_shuffle_i32x4::<0x88>(t0, t1),
                    _mm512_shuffle_i32x4::<0xDD>(t0, t1),
                    _mm512_shuffle_i32x4::<0x88>(t2, t3),
                    _mm512_shuffle_i32x4::<0xDD>(t2, t3),
                ]
                .into_iter()
                .enumerate()
                {
                    let q = out.add(base + j);
                    _mm512_storeu_si512(q, _mm512_xor_si512(_mm512_loadu_si512(q), ks));
                }
            }
            out = out.add(8);
            i3a = _mm512_add_epi32(i3a, ctr_step);
            i3b = _mm512_add_epi32(i3b, ctr_step);
        }
        words[12] = words[12].wrapping_add((steps * 8) as u32);
        steps * STEP
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

    /// The portable tier alone over all of `buf`, counter starting at 1:
    /// the reference the dispatching paths are held to.
    fn portable_stream(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN], buf: &mut [u8]) {
        let mut c = ChaCha20::new(key, nonce, 1);
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
        portable_stream(&key, &nonce, &mut reference);
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
        // Whole steps plus a tail cut out of one more step, at every
        // length up to two of the widest steps and a bit.
        let key = test_key();
        let nonce = [5u8; NONCE_LEN];
        for len in 0..=1100usize {
            let mut fast: Vec<u8> = (0..len).map(|i| (i * 7) as u8).collect();
            let mut reference = fast.clone();
            let mut c = ChaCha20::new(&key, &nonce, 1);
            c.xor_keystream(&mut fast);
            portable_stream(&key, &nonce, &mut reference);
            assert_eq!(fast, reference, "len {len}");
            assert_eq!(c.words[12], 1 + len.div_ceil(BLOCK_LEN) as u32, "len {len}");
        }
    }

    #[test]
    fn frame_head_is_block_zero_plus_the_stream_from_block_one() {
        let key = test_key();
        let nonce = [13u8; NONCE_LEN];
        let block0 = keystream_block(&key, &nonce, 0);
        for len in [
            0usize, 1, 63, 64, 65, 127, 128, 191, 192, 193, 447, 448, 449, 512, 1000,
        ] {
            let head = FrameHead::new(&key, &nonce);
            assert_eq!(head.one_time_key(), block0[..32]);
            let mut fused = vec![0xC3u8; len];
            let (n, mut rest) = head.xor_front(&mut fused);
            rest.xor_keystream(&mut fused[n..]);
            let mut plain = vec![0xC3u8; len];
            ChaCha20::new(&key, &nonce, 1).xor_keystream(&mut plain);
            assert_eq!(fused, plain, "len {len}");
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
            portable_stream(&key, &nonce, &mut portable);
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
            portable_stream(&key, &nonce, &mut portable);
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
