//! Scheduled population churn for "million-user day" scenarios.
//!
//! A [`ChurnSchedule`] is a deterministic sequence of waves — instants at
//! which some fraction of a client population acts at once (remounting,
//! rolling keys, seeing leases expire, receiving a revocation). The
//! schedule is generated from a seed with the same xorshift64* generator
//! the fault planner uses, so a storm scenario replays byte-for-byte:
//! the same seed always yields the same wave instants and the same
//! per-member selections.
//!
//! Membership selection is a pure function of `(schedule seed, wave
//! index, member index)` — callers don't need to consume waves in order
//! or keep per-member RNG state, and two independent observers of the
//! same schedule agree on who acts in every wave.

use crate::time::SimTime;

/// One churn wave: at `at`, each population member independently acts
/// with probability `fraction_pm` per mille.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnWave {
    /// Virtual instant of the wave.
    pub at: SimTime,
    /// Selection probability in per-mille (0–1000).
    pub(crate) fraction_pm: u32,
}

/// A seeded, deterministic sequence of churn waves.
#[derive(Debug, Clone)]
pub struct ChurnSchedule {
    seed: u64,
    waves: Vec<ChurnWave>,
}

fn xorshift64star(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

impl ChurnSchedule {
    /// Generates `waves` wave instants spaced `period_ns` apart with up
    /// to `jitter_ns` of seeded forward jitter each, starting one period
    /// after time zero. Selection fractions ramp between 250‰ and 1000‰
    /// so a storm mixes partial and full waves.
    pub fn generate(seed: u64, waves: usize, period_ns: u64, jitter_ns: u64) -> ChurnSchedule {
        let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
        // Warm the generator so small seeds diverge immediately.
        for _ in 0..4 {
            xorshift64star(&mut state);
        }
        let mut out = Vec::with_capacity(waves);
        let mut t = 0u64;
        for i in 0..waves {
            let jitter = if jitter_ns == 0 {
                0
            } else {
                xorshift64star(&mut state) % (jitter_ns + 1)
            };
            t += period_ns + jitter;
            let fraction_pm = 250 + ((xorshift64star(&mut state) % 4) * 250) as u32;
            out.push(ChurnWave {
                at: SimTime(t),
                fraction_pm,
            });
            let _ = i;
        }
        ChurnSchedule { seed, waves: out }
    }

    /// The waves, in strictly increasing time order.
    pub fn waves(&self) -> &[ChurnWave] {
        &self.waves
    }

    /// Whether population member `member` acts in wave `wave`. Pure in
    /// `(seed, wave, member)`; out-of-range wave indices select nobody.
    pub fn selects(&self, wave: usize, member: usize) -> bool {
        let Some(w) = self.waves.get(wave) else {
            return false;
        };
        let mut state = self
            .seed
            .wrapping_mul(0x100_0000_01B3)
            .wrapping_add((wave as u64) << 32)
            .wrapping_add(member as u64)
            | 1;
        for _ in 0..3 {
            xorshift64star(&mut state);
        }
        (xorshift64star(&mut state) % 1000) < w.fraction_pm as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let a = ChurnSchedule::generate(42, 8, 200_000_000, 50_000_000);
        let b = ChurnSchedule::generate(42, 8, 200_000_000, 50_000_000);
        assert_eq!(a.waves(), b.waves());
        for w in 0..8 {
            for m in 0..32 {
                assert_eq!(a.selects(w, m), b.selects(w, m));
            }
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let a = ChurnSchedule::generate(1, 8, 200_000_000, 50_000_000);
        let b = ChurnSchedule::generate(2, 8, 200_000_000, 50_000_000);
        assert_ne!(a.waves(), b.waves());
    }

    #[test]
    fn waves_strictly_increase_and_respect_period() {
        let s = ChurnSchedule::generate(7, 16, 100_000_000, 25_000_000);
        let mut prev = 0u64;
        for w in s.waves() {
            let t = w.at.as_nanos();
            assert!(t > prev, "wave instants must strictly increase");
            assert!(t - prev >= 100_000_000, "waves at least a period apart");
            assert!(t - prev <= 125_000_000, "jitter bounded");
            prev = t;
            assert!((250..=1000).contains(&w.fraction_pm));
        }
    }

    #[test]
    fn selection_fraction_tracks_wave_fraction() {
        let s = ChurnSchedule::generate(11, 6, 200_000_000, 0);
        for (i, w) in s.waves().iter().enumerate() {
            let picked = (0..2000).filter(|&m| s.selects(i, m)).count();
            let expect = w.fraction_pm as usize * 2; // of 2000 members
            let slack = 200; // 10% of population
            assert!(
                picked + slack >= expect && picked <= expect + slack,
                "wave {i}: picked {picked} of 2000 at {}‰",
                w.fraction_pm
            );
        }
    }

    #[test]
    fn out_of_range_wave_selects_nobody() {
        let s = ChurnSchedule::generate(3, 2, 100, 0);
        assert!(!s.selects(9, 0));
    }
}
