//! CPU cost accounting.
//!
//! Section 4.2 attributes SFS's performance gap to two things: "SFS has a
//! user-level implementation while NFS runs in the kernel" (every RPC
//! crosses the kernel boundary into `sfscd`/`sfssd` and back), and "SFS
//! encrypts and MACs network traffic". [`CpuCosts`] models both as charges
//! against the virtual clock, calibrated against Figure 5 in the bench
//! crate.

use crate::time::SimClock;

/// Per-host CPU cost parameters (a 550 MHz Pentium III in the paper).
#[derive(Debug, Clone, Copy)]
pub struct CpuCosts {
    /// Cost of one user-level daemon crossing: kernel→user context
    /// switches, socket wakeups, and the RPC re-marshaling pass through
    /// the daemon. Charged per message per user-level hop on
    /// latency-bound operations; on streaming operations the crossings
    /// overlap with data transfer (the paper: "multiple outstanding
    /// requests can overlap the latency of NFS RPCs") and only the
    /// per-byte copy cost remains.
    pub user_crossing_ns: u64,
    /// Per-byte cost of copying data through a user-level daemon
    /// (kernel↔user buffer crossings).
    pub(crate) user_copy_per_byte_ns: u64,
    /// Software encryption + MAC cost per byte (ARC4 XOR + SHA-1 over the
    /// message).
    pub(crate) crypto_per_byte_ns: u64,
    /// Fixed per-message crypto cost (MAC re-key from the ARC4 stream,
    /// finalization).
    pub(crate) crypto_per_message_ns: u64,
    /// Generic per-RPC protocol processing (marshaling, dispatch),
    /// charged at each endpoint.
    pub rpc_processing_ns: u64,
    /// Per-byte cost of the server's NFS data path (buffer copies).
    pub(crate) server_copy_per_byte_ns: u64,
}

impl CpuCosts {
    /// Calibration for the paper's 550 MHz Pentium III testbed, fitted to
    /// Figure 5's four corners (see DESIGN.md §1 and `sfs-bench::calib`):
    ///
    /// - NFS/UDP SETATTR latency 200 µs fixes latency + per-message +
    ///   2×rpc costs;
    /// - SFS's 790 µs (770 without encryption) fixes the user-level
    ///   crossing at ~275 µs per hop and software crypto at ~103 ns/byte
    ///   (≈10 MB/s ARC4+SHA-1, consistent with a PIII-550);
    /// - the throughput rows fix the per-byte TCP and copy costs.
    pub fn pentium_iii_550() -> Self {
        CpuCosts {
            user_crossing_ns: 275_000,
            user_copy_per_byte_ns: 5,
            crypto_per_byte_ns: 103,
            crypto_per_message_ns: 1_000,
            rpc_processing_ns: 45_000,
            server_copy_per_byte_ns: 8,
        }
    }

    /// The previous-generation testbed (§4.5): "The relative performance
    /// difference of SFS and NFS 3 on MAB shrunk by a factor of two when
    /// we moved from 200 MHz Pentium Pros to 550 MHz Pentium IIIs." A
    /// PPro-200 does the same work ~2.75× slower.
    pub fn pentium_pro_200() -> Self {
        Self::pentium_iii_550().scaled(2.75)
    }

    /// Scales every CPU cost by `factor` (network and disk are
    /// unaffected) — the knob behind the §4.5 hardware-trend experiment.
    pub fn scaled(&self, factor: f64) -> Self {
        let s = |v: u64| (v as f64 * factor) as u64;
        CpuCosts {
            user_crossing_ns: s(self.user_crossing_ns),
            user_copy_per_byte_ns: s(self.user_copy_per_byte_ns),
            crypto_per_byte_ns: s(self.crypto_per_byte_ns),
            crypto_per_message_ns: s(self.crypto_per_message_ns),
            rpc_processing_ns: s(self.rpc_processing_ns),
            server_copy_per_byte_ns: s(self.server_copy_per_byte_ns),
        }
    }

    /// Cost of copying `len` bytes through a user-level daemon.
    pub fn user_copy_ns(&self, len: usize) -> u64 {
        self.user_copy_per_byte_ns * len as u64
    }

    /// Crypto cost of one `len`-byte message with the per-byte rate
    /// scaled by `num/den`. The calibrated `Self::crypto_per_byte_ns`
    /// models the baseline ARC4+SHA-1 channel; a negotiated suite passes
    /// its relative cost (e.g. 1/4 for the single-pass AEAD, matching
    /// the measured hotpath ratio) so suite choice shows up in virtual
    /// time exactly as it does on real silicon. The fixed per-message
    /// cost is unscaled: finalization and key setup don't shrink with
    /// the cipher's byte rate.
    pub fn crypto_ns(&self, len: usize, num: u64, den: u64) -> u64 {
        self.crypto_per_message_ns + self.crypto_per_byte_ns * len as u64 * num / den
    }

    /// Cost of the server's NFS data path over `len` bytes.
    pub fn server_copy_ns(&self, len: usize) -> u64 {
        self.server_copy_per_byte_ns * len as u64
    }

    // A caller that overlaps work places these terms on its own
    // timeline; one that does not adds them to its clock (the two
    // `charge_*` forms below do that for the in-kernel NFS baseline).

    /// Charges generic RPC processing.
    pub fn charge_rpc(&self, clock: &SimClock) {
        clock.advance_ns(self.rpc_processing_ns);
    }

    /// Charges the server's per-byte data-path cost.
    pub fn charge_server_copy(&self, clock: &SimClock, len: usize) {
        clock.advance_ns(self.server_copy_ns(len));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate() {
        // Each `charge_*` advances the clock by exactly its `*_ns` term,
        // and the terms are the calibrated products.
        let (clock, c) = (SimClock::new(), CpuCosts::pentium_iii_550());
        let took = |charge: &dyn Fn()| clock.measure(charge).1.as_nanos();
        assert_eq!(took(&|| c.charge_rpc(&clock)), c.rpc_processing_ns);
        assert_eq!(
            took(&|| c.charge_server_copy(&clock, 9)),
            c.server_copy_ns(9)
        );
        assert_eq!(c.server_copy_ns(9), 9 * c.server_copy_per_byte_ns);
        assert_eq!(c.user_copy_ns(999), 999 * c.user_copy_per_byte_ns);
        let aead = c.crypto_per_message_ns + 1000 * c.crypto_per_byte_ns / 4;
        assert_eq!(c.crypto_ns(1000, 1, 4), aead);
    }

    #[test]
    fn crypto_cost_scales_with_length() {
        let costs = CpuCosts::pentium_iii_550();
        assert!(costs.crypto_ns(100_000, 1, 1) > costs.crypto_ns(100, 1, 1) * 100);
    }
}
