//! The Poly1305 one-time authenticator (RFC 8439 §2.5).
//!
//! Poly1305 evaluates the message as a polynomial in the clamped key `r`
//! over the prime field 2^130 − 5, then adds the pad `s`. Security rests
//! on the key being used for exactly one message — which the AEAD layer
//! guarantees by deriving a fresh key per nonce from the ChaCha20 block
//! function (§2.6).
//!
//! The field arithmetic uses three 44/44/42-bit limbs with `u128`
//! products: one block costs nine widening multiplies and a short carry
//! chain, all on full 64-bit registers — the same "work in machine words,
//! not bytes" discipline as the ARC4 and SHA-1 inner loops. The bulk
//! path takes blocks two at a time as `(h + m₁)·r² + m₂·r`: the multiply
//! count is unchanged but the two products are independent (so they
//! pipeline) and one carry chain serves both blocks.
//!
//! That scalar code is the portable tier and the reference the tests
//! compare against. Where the CPU has AVX-512 IFMA, `update` hands runs
//! of whole blocks to the `ifma` kernel instead: eight blocks per step,
//! one per 64-bit lane, on the same 44/44/42 limbs (`vpmadd52luq/huq`
//! multiply 52-bit lanes, so the radix carries over unchanged), over
//! `r¹…r⁸` computed once per message. Selection is by runtime feature
//! detection and input size only, like the ChaCha20 and SHA-1 tiers.

/// Authenticator tag length in bytes.
pub const TAG_LEN: usize = 16;
/// One-time key length in bytes (`r` ‖ `s`).
pub const KEY_LEN: usize = 32;
/// Internal block size in bytes.
pub const BLOCK_LEN: usize = 16;

const MASK44: u64 = (1 << 44) - 1;
const MASK42: u64 = (1 << 42) - 1;

/// Schoolbook 3-limb multiply mod 2^130−5 with the reduction folded in:
/// `bs` holds `[20·b1, 20·b2]` (2^132 ≡ 20 at this radix). Returns the
/// unreduced column sums.
#[inline(always)]
fn mul3(a: [u64; 3], b: [u64; 3], bs: [u64; 2]) -> [u128; 3] {
    [
        (a[0] as u128) * (b[0] as u128)
            + (a[1] as u128) * (bs[1] as u128)
            + (a[2] as u128) * (bs[0] as u128),
        (a[0] as u128) * (b[1] as u128)
            + (a[1] as u128) * (b[0] as u128)
            + (a[2] as u128) * (bs[1] as u128),
        (a[0] as u128) * (b[2] as u128)
            + (a[1] as u128) * (b[1] as u128)
            + (a[2] as u128) * (b[0] as u128),
    ]
}

/// Propagates carries on unreduced column sums back to 44/44/42 limbs
/// (the top limb's spill re-enters at ×5).
#[inline(always)]
fn carry3(d: [u128; 3]) -> [u64; 3] {
    let [d0, mut d1, mut d2] = d;
    let mut c = (d0 >> 44) as u64;
    let h0 = (d0 as u64) & MASK44;
    d1 += c as u128;
    c = (d1 >> 44) as u64;
    let h1 = (d1 as u64) & MASK44;
    d2 += c as u128;
    c = (d2 >> 42) as u64;
    let h2 = (d2 as u64) & MASK42;
    let h0 = h0 + c * 5;
    let c = h0 >> 44;
    [h0 & MASK44, h1 + c, h2]
}

/// Splits a 16-byte block into 44/44/42 limbs, ORing `hibit` (the 2^128
/// marker) into the top limb.
#[inline(always)]
fn limbs(m: &[u8], hibit: u64) -> [u64; 3] {
    let t0 = u64::from_le_bytes(m[0..8].try_into().unwrap());
    let t1 = u64::from_le_bytes(m[8..16].try_into().unwrap());
    [
        t0 & MASK44,
        ((t0 >> 44) | (t1 << 20)) & MASK44,
        ((t1 >> 24) & MASK42) | hibit,
    ]
}

/// Streaming Poly1305 state.
///
/// `update` may be fed arbitrary-length fragments; a 16-byte internal
/// buffer re-aligns them to blocks, so bulk callers that feed multiples
/// of 16 never touch it.
#[derive(Clone)]
pub struct Poly1305 {
    /// Clamped `r`, split 44/44/42, with its folded `[20·r1, 20·r2]`.
    r: [u64; 3],
    s: [u64; 2],
    /// `r²` and its folded multipliers, for the two-block bulk path.
    r2: [u64; 3],
    s2: [u64; 2],
    /// Accumulator, split 44/44/42 (plus carries in flight).
    h: [u64; 3],
    /// The pad `s` from the second key half, added after the polynomial.
    pad: [u64; 2],
    /// Partial-block staging.
    buf: [u8; BLOCK_LEN],
    buffered: usize,
    /// `r¹…r⁸` for the vector tier, built by the first `update` long
    /// enough to use it: per message, on the caller's stack.
    #[cfg(target_arch = "x86_64")]
    powers: Option<ifma::Powers>,
}

/// Shortest run of whole blocks worth handing to the vector tier: below
/// this the seven scalar multiplies that build `r²…r⁸` cost more than the
/// wide steps save.
#[cfg(target_arch = "x86_64")]
const VECTOR_MIN: usize = 256;

impl Poly1305 {
    /// Initializes from a 32-byte one-time key, clamping `r` per §2.5.
    pub fn new(key: &[u8; KEY_LEN]) -> Self {
        let t0 = u64::from_le_bytes(key[0..8].try_into().unwrap());
        let t1 = u64::from_le_bytes(key[8..16].try_into().unwrap());
        let r0 = t0 & 0x0000_0ffc_0fff_ffff;
        let r1 = ((t0 >> 44) | (t1 << 20)) & 0x0000_0fff_ffc0_ffff;
        let r2 = (t1 >> 24) & 0x0000_000f_ffff_fc0f;
        let r = [r0, r1, r2];
        let s = [r1 * 20, r2 * 20];
        let rsq = carry3(mul3(r, r, s));
        Poly1305 {
            r,
            s,
            r2: rsq,
            s2: [rsq[1] * 20, rsq[2] * 20],
            h: [0; 3],
            pad: [
                u64::from_le_bytes(key[16..24].try_into().unwrap()),
                u64::from_le_bytes(key[24..32].try_into().unwrap()),
            ],
            buf: [0u8; BLOCK_LEN],
            buffered: 0,
            #[cfg(target_arch = "x86_64")]
            powers: None,
        }
    }

    /// Absorbs one 16-byte block. `hibit` is `1 << 40` (the 2^128 marker
    /// in the top limb) for full blocks and 0 for the padded final
    /// fragment, which carries its own 0x01 marker byte.
    #[inline(always)]
    fn block(&mut self, m: &[u8], hibit: u64) {
        let t = limbs(m, hibit);
        let a = [self.h[0] + t[0], self.h[1] + t[1], self.h[2] + t[2]];
        self.h = carry3(mul3(a, self.r, self.s));
    }

    /// Absorbs two full 16-byte blocks as `(h + m₁)·r² + m₂·r`: the two
    /// products have no data dependency, so they pipeline, and one carry
    /// chain finishes both.
    #[inline(always)]
    fn block_pair(&mut self, m: &[u8]) {
        let m1 = limbs(&m[..BLOCK_LEN], 1 << 40);
        let m2 = limbs(&m[BLOCK_LEN..], 1 << 40);
        let a = [self.h[0] + m1[0], self.h[1] + m1[1], self.h[2] + m1[2]];
        let d = mul3(a, self.r2, self.s2);
        let u = mul3(m2, self.r, self.s);
        self.h = carry3([d[0] + u[0], d[1] + u[1], d[2] + u[2]]);
    }

    /// Absorbs message bytes.
    pub fn update(&mut self, mut data: &[u8]) {
        if self.buffered > 0 {
            let take = (BLOCK_LEN - self.buffered).min(data.len());
            self.buf[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
            self.buffered += take;
            data = &data[take..];
            if self.buffered < BLOCK_LEN {
                return; // fragment fully staged, nothing block-aligned yet
            }
            let block = self.buf;
            self.block(&block, 1 << 40);
            self.buffered = 0;
        }
        let (blocks, rest) = data.split_at(data.len() - data.len() % BLOCK_LEN);
        #[cfg(target_arch = "x86_64")]
        let blocks = self.blocks_vector(blocks);
        self.blocks_scalar(blocks);
        self.buf[..rest.len()].copy_from_slice(rest);
        self.buffered = rest.len();
    }

    /// The portable tier: whole blocks, two at a time while they last.
    fn blocks_scalar(&mut self, blocks: &[u8]) {
        let mut pairs = blocks.chunks_exact(2 * BLOCK_LEN);
        for p in &mut pairs {
            self.block_pair(p);
        }
        for b in pairs.remainder().chunks_exact(BLOCK_LEN) {
            self.block(b, 1 << 40);
        }
    }

    /// The vector tier: absorbs `blocks` when the CPU has it and the run
    /// is long enough to pay for the powers; returns the blocks it left.
    #[cfg(target_arch = "x86_64")]
    fn blocks_vector<'a>(&mut self, blocks: &'a [u8]) -> &'a [u8] {
        if blocks.len() >= VECTOR_MIN
            && std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512ifma")
        {
            let (r, r2) = (self.r, self.r2);
            let powers = self.powers.get_or_insert_with(|| ifma::Powers::new(r, r2));
            // SAFETY: both features are checked immediately above.
            self.h = unsafe { ifma::blocks(self.h, powers, blocks) };
            return &[];
        }
        blocks
    }

    /// Absorbs `data` then zero-pads to a 16-byte boundary (the AEAD
    /// `pad16` step, §2.8). Must only be called on a block-aligned state.
    pub fn update_padded(&mut self, data: &[u8]) {
        debug_assert_eq!(self.buffered, 0, "update_padded on unaligned state");
        self.update(data);
        if self.buffered > 0 {
            let zeros = [0u8; BLOCK_LEN];
            let pad = BLOCK_LEN - self.buffered;
            self.update(&zeros[..pad]);
        }
    }

    /// Finishes the polynomial, adds the pad, and returns the tag.
    pub fn finish(mut self) -> [u8; TAG_LEN] {
        if self.buffered > 0 {
            // Final fragment: append 0x01 then zero-fill; no 2^128 bit.
            let mut last = [0u8; BLOCK_LEN];
            last[..self.buffered].copy_from_slice(&self.buf[..self.buffered]);
            last[self.buffered] = 1;
            self.block(&last, 0);
        }
        let [mut h0, mut h1, mut h2] = self.h;
        // Fully propagate carries.
        let mut c = h1 >> 44;
        h1 &= MASK44;
        h2 += c;
        c = h2 >> 42;
        h2 &= MASK42;
        h0 += c * 5;
        c = h0 >> 44;
        h0 &= MASK44;
        h1 += c;
        c = h1 >> 44;
        h1 &= MASK44;
        h2 += c;
        c = h2 >> 42;
        h2 &= MASK42;
        h0 += c * 5;
        c = h0 >> 44;
        h0 &= MASK44;
        h1 += c;

        // Compute h − p; select it when h ≥ p, branch-free.
        let g0 = h0.wrapping_add(5);
        c = g0 >> 44;
        let g0 = g0 & MASK44;
        let g1 = h1.wrapping_add(c);
        c = g1 >> 44;
        let g1 = g1 & MASK44;
        let g2 = h2.wrapping_add(c).wrapping_sub(1 << 42);
        let keep_g = (g2 >> 63).wrapping_sub(1); // all-ones iff no borrow
        h0 = (h0 & !keep_g) | (g0 & keep_g);
        h1 = (h1 & !keep_g) | (g1 & keep_g);
        h2 = (h2 & !keep_g) | (g2 & keep_g);

        // Add the pad mod 2^128 and serialize little-endian.
        let t0 = self.pad[0];
        let t1 = self.pad[1];
        h0 += t0 & MASK44;
        c = h0 >> 44;
        h0 &= MASK44;
        h1 += (((t0 >> 44) | (t1 << 20)) & MASK44) + c;
        c = h1 >> 44;
        h1 &= MASK44;
        h2 += ((t1 >> 24) & MASK42) + c;
        h2 &= MASK42;

        let mut tag = [0u8; TAG_LEN];
        tag[0..8].copy_from_slice(&(h0 | (h1 << 44)).to_le_bytes());
        tag[8..16].copy_from_slice(&((h1 >> 20) | (h2 << 24)).to_le_bytes());
        tag
    }
}

/// Eight blocks per step on 512-bit registers, one block per 64-bit
/// lane, with AVX-512 IFMA: `vpmadd52luq`/`vpmadd52huq` return the low
/// and high 52 bits of a 52×52-bit product, so the scalar tier's
/// 44/44/42 limbs (and its `20·` folding of the wrapped columns) carry
/// over as they are; the high halves re-enter one limb up, shifted left
/// by 52 − 44 = 8.
///
/// With `H` the eight lane accumulators and `M` the next eight blocks,
/// a step is `H ← H·r⁸ + M`. A run ends by multiplying lane `l` by
/// `r^(8 − b(l))`, where `b(l)` is the block the lane holds, and adding
/// the lanes up. A last group of `k < 8` blocks is the same multiply
/// with exponents `k − b(l)` (and zero for the unused lanes).
///
/// Nothing here branches on or indexes by message or key data: the
/// only table lookup is the lane→power permute, whose indices depend
/// on the block count alone.
#[cfg(target_arch = "x86_64")]
mod ifma {
    use super::{carry3, mul3, BLOCK_LEN, MASK42, MASK44};
    use std::arch::x86_64::*;

    const STEP: usize = 8 * BLOCK_LEN;

    /// Block held by each lane once `unpacklo/hi_epi64` has split two
    /// 64-byte loads (blocks 0–3 and 4–7) into the low and the high
    /// message qwords: lanes alternate between the two loads.
    const LANE_BLOCK: [i64; 8] = [0, 4, 1, 5, 2, 6, 3, 7];

    /// `table[limb][e]` is that limb of `rᵉ` for `e` in 1..=8; entry 0
    /// is zero (the multiplier of an unused lane) and so is the padding
    /// to the sixteen entries a two-register permute indexes.
    #[derive(Clone)]
    pub(super) struct Powers {
        table: [[u64; 16]; 3],
    }

    impl Powers {
        /// Seven scalar multiplies, three deep: `r²` comes from the caller.
        pub(super) fn new(r: [u64; 3], r2: [u64; 3]) -> Powers {
            let mul = |a: [u64; 3], b: [u64; 3]| carry3(mul3(a, b, [b[1] * 20, b[2] * 20]));
            let r3 = mul(r2, r);
            let r4 = mul(r2, r2);
            let powers = [
                r,
                r2,
                r3,
                r4,
                mul(r4, r),
                mul(r4, r2),
                mul(r4, r3),
                mul(r4, r4),
            ];
            let mut table = [[0u64; 16]; 3];
            for (e, p) in powers.iter().enumerate() {
                for (limb, row) in table.iter_mut().enumerate() {
                    row[e + 1] = p[limb];
                }
            }
            Powers { table }
        }
    }

    /// A multiplier in the form the products want it: the three limbs
    /// and the folded `20·b₁`, `20·b₂` for the columns that wrap.
    type Multiplier = ([__m512i; 3], [__m512i; 2]);

    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn with_folds(b: [__m512i; 3]) -> Multiplier {
        // 20x = 16x + 4x.
        let x20 = |x| _mm512_add_epi64(_mm512_slli_epi64::<4>(x), _mm512_slli_epi64::<2>(x));
        (b, [x20(b[1]), x20(b[2])])
    }

    /// Per-lane multipliers for a group of `k` blocks: `r^(k − b(l))`
    /// where that exponent is positive, zero elsewhere.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn lane_powers(pw: &Powers, k: usize) -> Multiplier {
        let lane_block = _mm512_loadu_si512(LANE_BLOCK.as_ptr().cast());
        let exp = _mm512_max_epi64(
            _mm512_sub_epi64(_mm512_set1_epi64(k as i64), lane_block),
            _mm512_setzero_si512(),
        );
        let pick = |row: &[u64; 16]| {
            let p = row.as_ptr().cast::<__m512i>();
            _mm512_permutex2var_epi64(_mm512_loadu_si512(p), exp, _mm512_loadu_si512(p.add(1)))
        };
        with_folds([pick(&pw.table[0]), pick(&pw.table[1]), pick(&pw.table[2])])
    }

    /// Loads eight blocks and splits them into limbs with the 2¹²⁸ bit
    /// set, lane `l` holding block `LANE_BLOCK[l]`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn load8(m: *const u8) -> [__m512i; 3] {
        let a = _mm512_loadu_si512(m.cast());
        let b = _mm512_loadu_si512(m.add(STEP / 2).cast());
        let t0 = _mm512_unpacklo_epi64(a, b);
        let t1 = _mm512_unpackhi_epi64(a, b);
        let mask44 = _mm512_set1_epi64(MASK44 as i64);
        [
            _mm512_and_si512(t0, mask44),
            _mm512_and_si512(
                _mm512_or_si512(_mm512_srli_epi64::<44>(t0), _mm512_slli_epi64::<20>(t1)),
                mask44,
            ),
            _mm512_or_si512(_mm512_srli_epi64::<24>(t1), _mm512_set1_epi64(1 << 40)),
        ]
    }

    /// `a·b + acc` in every lane, carried back to limbs below 2⁴⁴ + 2¹²,
    /// 2⁴⁴ + 2¹² and 2⁴²: small enough to take another block's limbs on
    /// top and still fit the multiplier's 52 bits.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    unsafe fn mul_add(a: [__m512i; 3], (b, s): Multiplier, acc: [__m512i; 3]) -> [__m512i; 3] {
        let zero = _mm512_setzero_si512();
        // Column sums, low and high halves (the same columns as `mul3`).
        let mut l0 = _mm512_madd52lo_epu64(acc[0], a[0], b[0]);
        let mut l1 = _mm512_madd52lo_epu64(acc[1], a[0], b[1]);
        let mut l2 = _mm512_madd52lo_epu64(acc[2], a[0], b[2]);
        let mut h0 = _mm512_madd52hi_epu64(zero, a[0], b[0]);
        let mut h1 = _mm512_madd52hi_epu64(zero, a[0], b[1]);
        let mut h2 = _mm512_madd52hi_epu64(zero, a[0], b[2]);
        l0 = _mm512_madd52lo_epu64(l0, a[1], s[1]);
        l1 = _mm512_madd52lo_epu64(l1, a[1], b[0]);
        l2 = _mm512_madd52lo_epu64(l2, a[1], b[1]);
        h0 = _mm512_madd52hi_epu64(h0, a[1], s[1]);
        h1 = _mm512_madd52hi_epu64(h1, a[1], b[0]);
        h2 = _mm512_madd52hi_epu64(h2, a[1], b[1]);
        l0 = _mm512_madd52lo_epu64(l0, a[2], s[0]);
        l1 = _mm512_madd52lo_epu64(l1, a[2], s[1]);
        l2 = _mm512_madd52lo_epu64(l2, a[2], b[0]);
        h0 = _mm512_madd52hi_epu64(h0, a[2], s[0]);
        h1 = _mm512_madd52hi_epu64(h1, a[2], s[1]);
        h2 = _mm512_madd52hi_epu64(h2, a[2], b[0]);

        // One carry pass. A high half weighs 2⁵², i.e. 2⁸ of the next
        // limb up (2¹⁰ past the 42-bit top limb, where it wraps at ×5).
        let mask44 = _mm512_set1_epi64(MASK44 as i64);
        let mask42 = _mm512_set1_epi64(MASK42 as i64);
        l1 = _mm512_add_epi64(
            l1,
            _mm512_add_epi64(_mm512_srli_epi64::<44>(l0), _mm512_slli_epi64::<8>(h0)),
        );
        l2 = _mm512_add_epi64(
            l2,
            _mm512_add_epi64(_mm512_srli_epi64::<44>(l1), _mm512_slli_epi64::<8>(h1)),
        );
        let c = _mm512_add_epi64(_mm512_srli_epi64::<42>(l2), _mm512_slli_epi64::<10>(h2));
        let x0 = _mm512_add_epi64(
            _mm512_and_si512(l0, mask44),
            _mm512_add_epi64(c, _mm512_slli_epi64::<2>(c)),
        );
        [
            _mm512_and_si512(x0, mask44),
            _mm512_add_epi64(_mm512_and_si512(l1, mask44), _mm512_srli_epi64::<44>(x0)),
            _mm512_and_si512(l2, mask42),
        ]
    }

    /// Adds `h` into the lane holding the group's first block (lane 0).
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn add_h(m: [__m512i; 3], h: [u64; 3]) -> [__m512i; 3] {
        [0, 1, 2].map(|i| _mm512_mask_add_epi64(m[i], 1, m[i], _mm512_set1_epi64(h[i] as i64)))
    }

    /// Closes a group: multiplies each lane by its power, sums the
    /// lanes and carries the three sums back to scalar limbs.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    unsafe fn combine(x: [__m512i; 3], powers: Multiplier) -> [u64; 3] {
        let x = mul_add(x, powers, [_mm512_setzero_si512(); 3]);
        // Eight limbs below 2⁴⁵ each: the sums stay far inside 64 bits.
        carry3(x.map(|v| _mm512_reduce_add_epi64(v) as u64 as u128))
    }

    /// Absorbs `data`, a positive whole number of full blocks, into the
    /// accumulator `h`; returns the new accumulator in the scalar
    /// tier's representation.
    ///
    /// # Safety
    /// The CPU must support `avx512f` and `avx512ifma`.
    #[target_feature(enable = "avx512f,avx512ifma")]
    pub(super) unsafe fn blocks(mut h: [u64; 3], pw: &Powers, data: &[u8]) -> [u64; 3] {
        debug_assert!(!data.is_empty() && data.len().is_multiple_of(BLOCK_LEN));
        let mut groups = data.chunks_exact(STEP);
        if let Some(first) = groups.next() {
            let r8 = with_folds([0, 1, 2].map(|i| _mm512_set1_epi64(pw.table[i][8] as i64)));
            let mut acc = add_h(load8(first.as_ptr()), h);
            for group in &mut groups {
                acc = mul_add(acc, r8, load8(group.as_ptr()));
            }
            h = combine(acc, lane_powers(pw, 8));
        }
        let rest = groups.remainder();
        if !rest.is_empty() {
            // The unused lanes read zeros (plus the 2¹²⁸ bit) and are
            // multiplied by zero.
            let mut last = [0u8; STEP];
            last[..rest.len()].copy_from_slice(rest);
            let acc = add_h(load8(last.as_ptr()), h);
            h = combine(acc, lane_powers(pw, rest.len() / BLOCK_LEN));
        }
        h
    }
}

/// One-shot tag over a single message.
pub fn poly1305(key: &[u8; KEY_LEN], msg: &[u8]) -> [u8; TAG_LEN] {
    let mut p = Poly1305::new(key);
    p.update(msg);
    p.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfs_bignum::{RandomSource, XorShiftSource};

    /// Tag of `msg` with its whole blocks absorbed by the scalar tier
    /// called directly: the reference every other path is held to.
    fn scalar_tag(key: &[u8; KEY_LEN], msg: &[u8]) -> [u8; TAG_LEN] {
        let (blocks, rest) = msg.split_at(msg.len() - msg.len() % BLOCK_LEN);
        let mut p = Poly1305::new(key);
        p.blocks_scalar(blocks);
        p.update(rest);
        p.finish()
    }

    /// The same with the whole blocks absorbed by the vector kernel
    /// called directly, whatever their number (so below `VECTOR_MIN`
    /// too). `None`, and one line per run saying which feature is
    /// missing, when this CPU cannot run it.
    fn ifma_tag(key: &[u8; KEY_LEN], msg: &[u8]) -> Option<[u8; TAG_LEN]> {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512ifma")
        {
            let (blocks, rest) = msg.split_at(msg.len() - msg.len() % BLOCK_LEN);
            let mut p = Poly1305::new(key);
            if !blocks.is_empty() {
                let powers = ifma::Powers::new(p.r, p.r2);
                // SAFETY: both features are checked immediately above.
                p.h = unsafe { ifma::blocks(p.h, &powers, blocks) };
            }
            p.update(rest);
            return Some(p.finish());
        }
        let _ = (key, msg); // unused where the tier is not compiled in
        static SKIPPED: std::sync::Once = std::sync::Once::new();
        SKIPPED.call_once(|| println!("skipped: avx512ifma"));
        None
    }

    /// Asserts `expected` on every tier, each called directly, and on
    /// the dispatching entry point.
    fn check_all_tiers(key: &[u8; KEY_LEN], msg: &[u8], expected: &[u8; TAG_LEN], what: &str) {
        assert_eq!(&scalar_tag(key, msg), expected, "scalar tier, {what}");
        if let Some(tag) = ifma_tag(key, msg) {
            assert_eq!(&tag, expected, "ifma tier, {what}");
        }
        assert_eq!(&poly1305(key, msg), expected, "dispatched, {what}");
    }

    fn key_from(r: [u8; 16], s: [u8; 16]) -> [u8; KEY_LEN] {
        let mut key = [0u8; KEY_LEN];
        key[..16].copy_from_slice(&r);
        key[16..].copy_from_slice(&s);
        key
    }

    /// `first` followed by zeros, or by `fill`, to sixteen bytes.
    fn row(first: &[u8], fill: u8) -> [u8; 16] {
        let mut out = [fill; 16];
        out[..first.len()].copy_from_slice(first);
        out
    }

    #[test]
    fn rfc8439_tag_vector() {
        // §2.5.2.
        let key: [u8; 32] = [
            0x85, 0xd6, 0xbe, 0x78, 0x57, 0x55, 0x6d, 0x33, 0x7f, 0x44, 0x52, 0xfe, 0x42, 0xd5,
            0x06, 0xa8, 0x01, 0x03, 0x80, 0x8a, 0xfb, 0x0d, 0xb2, 0xfd, 0x4a, 0xbf, 0xf6, 0xaf,
            0x41, 0x49, 0xf5, 0x1b,
        ];
        let expected: [u8; 16] = [
            0xa8, 0x06, 0x1d, 0xc1, 0x30, 0x51, 0x36, 0xc6, 0xc2, 0x2b, 0x8b, 0xaf, 0x0c, 0x01,
            0x27, 0xa9,
        ];
        check_all_tiers(
            &key,
            b"Cryptographic Forum Research Group",
            &expected,
            "§2.5.2",
        );
    }

    #[test]
    fn rfc8439_appendix_a3_vectors_on_every_tier() {
        const IETF: &[u8] = b"Any submission to the IETF intended by the Contributor for \
publication as all or part of an IETF Internet-Draft or RFC and any statement made within \
the context of an IETF activity is considered an \"IETF Contribution\". Such statements \
include oral statements in IETF sessions, as well as written and electronic communications \
made at any time or place, which are addressed to";
        const JABBERWOCKY: &[u8] = b"'Twas brillig, and the slithy toves\nDid gyre and gimble \
in the wabe:\nAll mimsy were the borogoves,\nAnd the mome raths outgrabe.";
        assert_eq!((IETF.len(), JABBERWOCKY.len()), (375, 127));
        let s2 = [
            0x36, 0xe5, 0xf6, 0xb5, 0xc5, 0xe0, 0x60, 0x70, 0xf0, 0xef, 0xca, 0x96, 0x22, 0x7a,
            0x86, 0x3e,
        ];
        let key4: [u8; 32] = [
            0x1c, 0x92, 0x40, 0xa5, 0xeb, 0x55, 0xd3, 0x8a, 0xf3, 0x33, 0x88, 0x86, 0x04, 0xf6,
            0xb5, 0xf0, 0x47, 0x39, 0x17, 0xc1, 0x40, 0x2b, 0x80, 0x09, 0x9d, 0xca, 0x5c, 0xbc,
            0x20, 0x70, 0x75, 0xc0,
        ];
        // #10 and #11 share r = 1 + 4·2⁶⁴ and their first three blocks.
        let r10 = [1, 0, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0];
        let mut data10 = Vec::new();
        data10.extend_from_slice(&row(&[0xe3, 0x35, 0x94, 0xd7, 0x50, 0x5e, 0x43, 0xb9], 0));
        data10.extend_from_slice(&row(
            &[0x33, 0x94, 0xd7, 0x50, 0x5e, 0x43, 0x79, 0xcd, 0x01],
            0,
        ));
        data10.extend_from_slice(&[0u8; 16]);
        let data11 = data10.clone();
        data10.extend_from_slice(&row(&[1], 0));

        let vectors = [
            ("#1", [0u8; 32], vec![0u8; 64], [0u8; 16]),
            // r = 0: the tag is s whatever the text.
            ("#2", key_from([0; 16], s2), IETF.to_vec(), s2),
            (
                "#3",
                key_from(s2, [0; 16]),
                IETF.to_vec(),
                [
                    0xf3, 0x47, 0x7e, 0x7c, 0xd9, 0x54, 0x17, 0xaf, 0x89, 0xa6, 0xb8, 0x79, 0x4c,
                    0x31, 0x0c, 0xf0,
                ],
            ),
            (
                "#4",
                key4,
                JABBERWOCKY.to_vec(),
                [
                    0x45, 0x41, 0x66, 0x9a, 0x7e, 0xaa, 0xee, 0x61, 0xe7, 0x08, 0xdc, 0x7c, 0xbc,
                    0xc5, 0xeb, 0x62,
                ],
            ),
            // #5: with r = 2 and an all-ones block, h reaches 2¹³⁰ − 5
            // exactly and must wrap to 3.
            (
                "#5",
                key_from(row(&[2], 0), [0; 16]),
                vec![0xff; 16],
                row(&[3], 0),
            ),
            // #6: h + s carries out of 2¹²⁸.
            (
                "#6",
                key_from(row(&[2], 0), [0xff; 16]),
                row(&[2], 0).to_vec(),
                row(&[3], 0),
            ),
            // #7: carries ripple through every limb (r = 1).
            (
                "#7",
                key_from(row(&[1], 0), [0; 16]),
                [[0xff; 16], row(&[0xf0], 0xff), row(&[0x11], 0)].concat(),
                row(&[5], 0),
            ),
            // #8: h lands on p exactly and the tag is zero.
            (
                "#8",
                key_from(row(&[1], 0), [0; 16]),
                [[0xff; 16], row(&[0xfb], 0xfe), row(&[0x01], 0x01)].concat(),
                [0; 16],
            ),
            // #9: the final h − p borrow (2¹³⁰ − 6 stays as it is mod 2¹²⁸).
            (
                "#9",
                key_from(row(&[2], 0), [0; 16]),
                row(&[0xfd], 0xff).to_vec(),
                row(&[0xfa], 0xff),
            ),
            // #10, #11: r = 1 + 4·2⁶⁴, products that spill past 2¹³⁰.
            (
                "#10",
                key_from(r10, [0; 16]),
                data10,
                [0x14, 0, 0, 0, 0, 0, 0, 0, 0x55, 0, 0, 0, 0, 0, 0, 0],
            ),
            ("#11", key_from(r10, [0; 16]), data11, row(&[0x13], 0)),
        ];
        for (name, key, msg, tag) in &vectors {
            check_all_tiers(key, msg, tag, name);
        }
    }

    #[test]
    fn vector_tier_matches_scalar_tier_at_every_length_and_fragmentation() {
        let mut rng = XorShiftSource::new(0x1305_0044);
        let mut random_key = [0u8; KEY_LEN];
        let lengths = (0..=1500usize).chain([4096, 8192, 8320, 8333]);
        for len in lengths {
            rng.fill(&mut random_key);
            let mut random_msg = vec![0u8; len];
            rng.fill(&mut random_msg);
            // All-ones keys and messages keep every limb at its largest:
            // the carry bounds the vector tier relies on are tightest there.
            for (key, msg) in [
                (random_key, random_msg.clone()),
                (random_key, vec![0xff; len]),
                ([0xff; KEY_LEN], random_msg),
                ([0xff; KEY_LEN], vec![0xff; len]),
            ] {
                let expected = scalar_tag(&key, &msg);
                if let Some(tag) = ifma_tag(&key, &msg) {
                    assert_eq!(tag, expected, "ifma tier, len {len}");
                }
                // Through `update`, cut at random points: fragments on
                // both sides of `VECTOR_MIN`, aligned and not.
                let mut p = Poly1305::new(&key);
                let mut rest = &msg[..];
                while !rest.is_empty() {
                    let mut pick = [0u8; 2];
                    rng.fill(&mut pick);
                    let span = if pick[0] & 1 == 0 { 40 } else { 700 };
                    let cut = (1 + u16::from_le_bytes(pick) as usize % span).min(rest.len());
                    p.update(&rest[..cut]);
                    rest = &rest[cut..];
                }
                assert_eq!(p.finish(), expected, "fragmented update, len {len}");
                assert_eq!(poly1305(&key, &msg), expected, "one-shot update, len {len}");
            }
        }
    }

    #[test]
    fn streaming_fragments_match_one_shot() {
        let key: [u8; 32] = core::array::from_fn(|i| (i * 7 + 3) as u8);
        let msg: Vec<u8> = (0..1517).map(|i| (i % 251) as u8).collect();
        let whole = scalar_tag(&key, &msg);
        // 127/128/129 straddle the vector tier's 128-byte step; 256 and
        // up are long enough for `update` to choose it.
        for split in [
            1usize, 15, 16, 17, 64, 127, 128, 129, 255, 256, 257, 272, 400, 1024,
        ] {
            let mut p = Poly1305::new(&key);
            for chunk in msg.chunks(split) {
                p.update(chunk);
            }
            assert_eq!(p.finish(), whole, "split {split}");
        }
    }

    #[test]
    fn update_padded_pads_to_block_boundary() {
        let key: [u8; 32] = core::array::from_fn(|i| i as u8 ^ 0x5a);
        let mut padded = Poly1305::new(&key);
        padded.update_padded(&[0xAB; 12]);
        padded.update(&[0xCD; 16]);
        let mut manual = Poly1305::new(&key);
        manual.update(&[0xAB; 12]);
        manual.update(&[0u8; 4]);
        manual.update(&[0xCD; 16]);
        assert_eq!(padded.finish(), manual.finish());
    }
}
