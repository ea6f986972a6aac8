//! Replica log-shipping transport: quorum timing in virtual time.
//!
//! A primary that ships its op log to backups does not pay one
//! round-trip per backup — the frames go out in parallel and the
//! commit waits only for the *k-th fastest* acknowledgement (the
//! quorum). [`ReplTransport`] models exactly that: each backup link
//! has its own latency and per-byte cost, a ship computes every
//! backup's ack arrival, and the shared clock advances to the k-th
//! smallest. Deterministic by construction: arrivals are pure
//! functions of link parameters and frame size.

use crate::time::SimClock;

/// One primary→backup link: fixed propagation latency plus a per-byte
/// serialization cost, each way (the ack is a small fixed frame whose
/// cost is folded into `latency_ns`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplLink {
    pub(crate) latency_ns: u64,
    pub(crate) byte_ns: u64,
}

impl ReplLink {
    /// Same-machine-room replica pair: 50 µs propagation + ack, ~80 ns/byte
    /// (≈100 Mbit effective after framing).
    pub fn lan() -> Self {
        ReplLink {
            latency_ns: 50_000,
            byte_ns: 80,
        }
    }

    /// Round-trip for one shipped frame of `bytes` payload on this link:
    /// out-serialization + propagation out and back.
    pub(crate) fn ack_delay_ns(&self, bytes: usize) -> u64 {
        2 * self.latency_ns + self.byte_ns * bytes as u64
    }
}

/// Log-shipping transport for one replica group. Link `i` carries
/// frames to backup `i` (indices are the caller's backup numbering).
#[derive(Clone)]
pub struct ReplTransport {
    clock: SimClock,
    links: Vec<ReplLink>,
}

impl ReplTransport {
    pub fn new(clock: SimClock) -> Self {
        ReplTransport {
            clock,
            links: Vec::new(),
        }
    }

    /// Registers the link to the next backup; returns its index.
    pub fn add_link(&mut self, link: ReplLink) -> usize {
        self.links.push(link);
        self.links.len() - 1
    }

    /// Ack delay for the k-th fastest of the given backups (1-based
    /// `need`) shipping `bytes`, without advancing time. Returns `None`
    /// when fewer than `need` backups are available — the quorum cannot
    /// be met.
    pub(crate) fn quorum_delay_ns(
        &self,
        bytes: usize,
        backups: &[usize],
        need: usize,
    ) -> Option<u64> {
        if need == 0 {
            return Some(0);
        }
        if backups.len() < need {
            return None;
        }
        let mut delays: Vec<u64> = backups
            .iter()
            .map(|&i| self.links[i].ack_delay_ns(bytes))
            .collect();
        delays.sort_unstable();
        Some(delays[need - 1])
    }

    /// Ships one `bytes`-sized log frame to the given backups and blocks
    /// (in virtual time) until `need` of them have acknowledged: the
    /// shared clock advances by the k-th fastest ack delay. Returns that
    /// delay, or `None` (no time charged) when the quorum is unreachable.
    pub fn ship(&self, bytes: usize, backups: &[usize], need: usize) -> Option<u64> {
        let d = self.quorum_delay_ns(bytes, backups, need)?;
        self.clock.advance_ns(d);
        Some(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn transport(latencies_us: &[u64]) -> ReplTransport {
        let clock = SimClock::new();
        let mut t = ReplTransport::new(clock);
        for &us in latencies_us {
            t.add_link(ReplLink {
                latency_ns: us * 1_000,
                byte_ns: 10,
            });
        }
        t
    }

    #[test]
    fn quorum_waits_for_kth_fastest_not_slowest() {
        let t = transport(&[50, 2_000, 100]); // fast, slow, medium
        let all = [0usize, 1, 2];
        // Quorum of 1: the fastest link answers.
        assert_eq!(t.quorum_delay_ns(0, &all, 1), Some(100_000));
        // Quorum of 2: the medium link gates, the 2 ms straggler does not.
        assert_eq!(t.quorum_delay_ns(0, &all, 2), Some(200_000));
        // Quorum of 3: now the straggler gates.
        assert_eq!(t.quorum_delay_ns(0, &all, 3), Some(4_000_000));
    }

    #[test]
    fn ship_advances_clock_by_quorum_delay_and_charges_bytes() {
        let t = transport(&[50, 50]);
        let t0 = t.clock.now();
        let d = t.ship(1_000, &[0, 1], 2).expect("quorum reachable");
        assert_eq!(d, 2 * 50_000 + 10 * 1_000);
        assert_eq!(t.clock.now().as_nanos() - t0.as_nanos(), d);
    }

    #[test]
    fn unreachable_quorum_ships_nothing_and_charges_nothing() {
        let t = transport(&[50, 50]);
        let t0 = t.clock.now();
        assert_eq!(t.ship(100, &[0], 2), None);
        assert_eq!(t.clock.now(), t0, "no quorum, no time charged");
        // A quorum of zero is trivially met instantly (single-member group).
        assert_eq!(t.ship(100, &[], 0), Some(0));
    }

    #[test]
    fn quorum_timing_is_deterministic() {
        let run = || {
            let t = transport(&[30, 700, 90, 250]);
            let mut out = Vec::new();
            for bytes in [0usize, 64, 4096] {
                for need in 1..=4 {
                    out.push(t.ship(bytes, &[0, 1, 2, 3], need));
                }
            }
            (out, t.clock.now())
        };
        assert_eq!(run(), run());
    }
}
