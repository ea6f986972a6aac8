//! Seeded input generation and the pure content function every READ is
//! checked against. Nothing here touches the program under test.

/// SplitMix64: the one generator behind every seeded choice (op streams,
/// file names, sizes). Small, fast, and good enough to decorrelate
/// consecutive `--seed` values.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one purpose: `stream` separates independent draws
    /// made from the same `--seed`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(mix(seed ^ mix(stream.wrapping_add(0x5EED))))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is < 2^-32 for the
    /// small ranges used here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// A lower-case name of `len` characters.
    pub fn name(&mut self, len: usize) -> String {
        (0..len)
            .map(|_| (b'a' + self.below(26) as u8) as char)
            .collect()
    }
}

/// The SplitMix64 finalizer: a bijective 64-bit mixer.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Block size of every data READ/WRITE the workloads issue (NFS3's
/// classic 8 KiB transfer size).
pub const BLOCK: usize = 8192;

const WORD_MUL: u64 = 0x2545_F491_4F6C_DD1D;

/// Key of one block's content: a hash of `(seed, file, block, version)`,
/// so any two distinct blocks or versions differ in every word with
/// overwhelming probability.
fn block_key(seed: u64, file: u64, block: u64, version: u64) -> u64 {
    mix(mix(mix(seed ^ 0xC0FF_EE00).wrapping_add(file)).wrapping_add(block << 20) ^ version)
}

/// Word `i` of a block: word 0 carries the version in clear, so a reader
/// of a shared file can tell which committed version it saw; word
/// `i > 0` is `(key + i) * odd`.
fn word(key: u64, version: u64, i: usize) -> u64 {
    if i == 0 {
        version
    } else {
        key.wrapping_add(i as u64).wrapping_mul(WORD_MUL)
    }
}

/// `byte(file, offset, version)` in block form: fills `out` (a whole
/// number of 8-byte words, at most one block) with the content of
/// `block` of `file` at `version`.
pub fn fill_block(seed: u64, file: u64, block: u64, version: u64, out: &mut [u8]) {
    debug_assert!(out.len().is_multiple_of(8) && out.len() <= BLOCK);
    let key = block_key(seed, file, block, version);
    for (i, w) in out.chunks_exact_mut(8).enumerate() {
        w.copy_from_slice(&word(key, version, i).to_le_bytes());
    }
}

/// The version word of a block read back from the file system.
pub fn block_version(data: &[u8]) -> Option<u64> {
    data.get(..8)
        .map(|w| u64::from_le_bytes(w.try_into().expect("8 bytes")))
}

/// Whether `data` is exactly the content of `block` of `file` at
/// `version` (for the first `data.len()` bytes).
pub fn check_block(seed: u64, file: u64, block: u64, version: u64, data: &[u8]) -> bool {
    if !data.len().is_multiple_of(8) || data.len() > BLOCK {
        return false;
    }
    let key = block_key(seed, file, block, version);
    data.chunks_exact(8)
        .enumerate()
        .all(|(i, w)| w == word(key, version, i).to_le_bytes())
}

/// A whole file of `blocks` blocks, every block at `version`.
pub fn file_content(seed: u64, file: u64, blocks: usize, version: u64) -> Vec<u8> {
    let mut out = vec![0u8; blocks * BLOCK];
    for (b, chunk) in out.chunks_exact_mut(BLOCK).enumerate() {
        fill_block(seed, file, b as u64, version, chunk);
    }
    out
}

/// Whether `data` is a whole file of `blocks` blocks all at `version`.
pub fn check_file(seed: u64, file: u64, blocks: usize, version: u64, data: &[u8]) -> bool {
    data.len() == blocks * BLOCK
        && data
            .chunks_exact(BLOCK)
            .enumerate()
            .all(|(b, chunk)| check_block(seed, file, b as u64, version, chunk))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn content_is_a_pure_function_that_separates_its_inputs() {
        let mut a = vec![0u8; BLOCK];
        let mut b = vec![0u8; BLOCK];
        fill_block(1, 2, 3, 4, &mut a);
        fill_block(1, 2, 3, 4, &mut b);
        assert_eq!(a, b);
        assert!(check_block(1, 2, 3, 4, &a));
        assert_eq!(block_version(&a), Some(4));
        for (s, f, bl, v) in [(2, 2, 3, 4), (1, 3, 3, 4), (1, 2, 4, 4), (1, 2, 3, 5)] {
            assert!(!check_block(s, f, bl, v, &a));
        }
        a[BLOCK - 1] ^= 1;
        assert!(!check_block(1, 2, 3, 4, &a));
    }

    #[test]
    fn streams_from_one_seed_are_independent_and_repeatable() {
        let mut a = Rng::new(7, 0);
        let mut b = Rng::new(7, 0);
        let mut c = Rng::new(7, 1);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        assert_eq!(xs, (0..8).map(|_| b.next_u64()).collect::<Vec<_>>());
        assert_ne!(xs, (0..8).map(|_| c.next_u64()).collect::<Vec<_>>());
    }
}
