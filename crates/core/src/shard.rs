//! Multi-core server dispatch: worker shards, per-core crypto
//! scheduling, and batched disk commits.
//!
//! The windowed RPC engine (DESIGN.md §11) overlaps one connection's
//! crypto against the *wire*, but the server itself was still a single
//! logical core: every frame's seal/open and disk work queued behind
//! every other frame's, so one core's ARC4+SHA-1 throughput capped the
//! realm. A [`ShardEngine`] models an N-core server in virtual time:
//!
//! - **Crypto on any core.** Each frame's analytic CPU cost (user
//!   crossing + RPC processing + copies; the seal/open work) is placed
//!   on whichever [`CoreSet`] timeline can start it earliest, so frames
//!   whose service windows overlap in absolute virtual time run in
//!   parallel — until every core is busy and queueing re-emerges.
//!   Per-channel cipher order is *not* the scheduler's problem: frames
//!   are decrypted strictly in channel-sequence order by the
//!   `FrameSequencer` discipline before any cost is scheduled, so the
//!   engine only ever decides *when* work finishes, never in what order
//!   cipher state advances.
//! - **Disk by handle shard.** Each request's disk work is tallied by
//!   the [`sfs_sim::SimDisk`] (instead of charged to the shared clock)
//!   and placed on the owning shard's [`sfs_sim::DiskCommitQueue`],
//!   chosen by a deterministic handle→shard map. Commits that arrive
//!   while the shard's spindle is busy join the in-progress batch and
//!   skip their positioning cost — group commit across connections.
//!
//! Everything is deterministic: placement is earliest-start,
//! lowest-index tie-break, and the engine holds no wall-clock state.

use std::sync::Arc;

use sfs_sim::{CoreSet, DiskQueueStats, DiskTally};
use sfs_telemetry::sync::Mutex;
use sfs_telemetry::Telemetry;

struct EngineState {
    cores: CoreSet,
    disks: Vec<sfs_sim::DiskCommitQueue>,
    frames: u64,
}

/// The multi-core scheduler installed on an [`crate::SfsServer`] by
/// [`crate::SfsServer::set_cores`].
pub struct ShardEngine {
    shards: usize,
    /// Pre-built telemetry process names ("shard0", "shard1", …) so the
    /// hot path never formats strings.
    procs: Vec<String>,
    inner: Mutex<EngineState>,
}

impl ShardEngine {
    /// An engine with `n` cores, each owning one disk-commit shard.
    pub fn new(n: usize) -> Arc<Self> {
        let n = n.max(1);
        Arc::new(ShardEngine {
            shards: n,
            procs: (0..n).map(|i| format!("shard{i}")).collect(),
            inner: Mutex::new(EngineState {
                cores: CoreSet::new(n),
                disks: vec![sfs_sim::DiskCommitQueue::new(); n],
                frames: 0,
            }),
        })
    }

    /// The deterministic handle→shard map (FNV-1a over the NFS-form
    /// handle bytes). NFS-form handles are stable across reconnects and
    /// across the per-session handle encryption, so a file's disk work
    /// always lands on the same shard.
    pub fn shard_of(&self, handle: &[u8]) -> u32 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in handle {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        (h % self.shards as u64) as u32
    }

    /// Schedules one request: `cpu_ns` of crypto/dispatch work on the
    /// earliest-free core starting no earlier than `arrival_ns`, then
    /// the tallied disk work (if any) on `shard`'s commit queue (the
    /// scheduling core's queue when the request touched no file
    /// handle). Returns the absolute completion instant.
    pub fn schedule(
        &self,
        arrival_ns: u64,
        cpu_ns: u64,
        disk: DiskTally,
        shard: Option<u32>,
        tel: &Telemetry,
    ) -> u64 {
        let mut st = self.inner.lock();
        st.frames += 1;
        let res = st.cores.reserve(arrival_ns, cpu_ns);
        tel.count(&self.procs[res.core], "server.shard.busy_ticks", cpu_ns);
        if disk.total_ns == 0 {
            return res.end_ns;
        }
        let idx = shard.unwrap_or(res.core as u32) as usize % self.shards;
        let commit = st.disks[idx].commit(res.end_ns, disk.total_ns, disk.positioning_ns);
        let proc = &self.procs[idx];
        tel.gauge_set(proc, "server.shard.queue_depth", commit.queued_behind);
        if let Some(size) = commit.closed_batch {
            tel.record(proc, "server.disk.batch_size", size);
            // Histograms never reach the Chrome trace; a timestamped
            // instant per closed batch puts the group commits on the
            // shard's track too.
            tel.instant_kv(proc, "core.shard", "disk.batch_commit", "size", size);
        }
        commit.done_ns
    }

    /// Flushes still-open batch sizes into the `server.disk.batch_size`
    /// histogram (a run's final batch never sees a successor close it).
    pub fn finish(&self, tel: &Telemetry) {
        let st = self.inner.lock();
        for (i, q) in st.disks.iter().enumerate() {
            let open = q.current_batch();
            if open > 0 {
                tel.record(&self.procs[i], "server.disk.batch_size", open);
            }
        }
    }

    /// Frames scheduled through the engine so far. Non-zero even for
    /// zero-cost frames (clients with no CPU model attached), so tests
    /// can assert the multi-core path actually ran.
    pub fn frames_scheduled(&self) -> u64 {
        self.inner.lock().frames
    }

    /// Per-shard disk-queue statistics.
    pub fn disk_stats(&self) -> Vec<DiskQueueStats> {
        let st = self.inner.lock();
        st.disks.iter().map(|q| q.stats()).collect()
    }
}

impl std::fmt::Debug for ShardEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ShardEngine({} cores)", self.shards)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_map_is_deterministic_and_spread() {
        let e = ShardEngine::new(4);
        let handles: Vec<Vec<u8>> = (0u32..64).map(|i| i.to_be_bytes().to_vec()).collect();
        let a: Vec<u32> = handles.iter().map(|h| e.shard_of(h)).collect();
        let b: Vec<u32> = handles.iter().map(|h| e.shard_of(h)).collect();
        assert_eq!(a, b);
        for s in 0..4u32 {
            assert!(a.contains(&s), "shard {s} never chosen over 64 handles");
        }
    }

    #[test]
    fn four_cores_overlap_cpu_work() {
        let tel = Telemetry::disabled();
        let one = ShardEngine::new(1);
        let four = ShardEngine::new(4);
        let zero = DiskTally::default();
        // Eight frames all arriving at t=0, 100 µs of crypto each.
        let serial: u64 = (0..8)
            .map(|_| one.schedule(0, 100_000, zero, None, &tel))
            .max()
            .unwrap();
        let parallel: u64 = (0..8)
            .map(|_| four.schedule(0, 100_000, zero, None, &tel))
            .max()
            .unwrap();
        assert_eq!(serial, 800_000);
        assert_eq!(parallel, 200_000);
    }

    #[test]
    fn disk_commits_batch_on_one_shard() {
        let tel = Telemetry::disabled();
        let e = ShardEngine::new(2);
        let tally = DiskTally {
            total_ns: 1_100,
            positioning_ns: 1_000,
            ops: 1,
        };
        // Same shard, arriving together: first pays positioning, the
        // rest ride the batch.
        let d1 = e.schedule(0, 10, tally, Some(0), &tel);
        let d2 = e.schedule(0, 10, tally, Some(0), &tel);
        let d3 = e.schedule(0, 10, tally, Some(0), &tel);
        assert_eq!(d1, 10 + 1_100);
        assert_eq!(d2, d1 + 100);
        assert_eq!(d3, d2 + 100);
        let stats = e.disk_stats();
        assert_eq!(stats[0].commits, 3);
        assert_eq!(stats[0].joined, 2);
        // The other shard's spindle is untouched.
        assert_eq!(stats[1].commits, 0);
    }
}
