//! A simulated disk with seek, rotation, and transfer costs.
//!
//! The paper's server stored files on an IBM 18ES 9 GB SCSI disk under
//! FreeBSD FFS. The Sprite LFS small-file benchmark is "almost completely
//! dominated by synchronous writes to the disk" (§4.4), so the disk model
//! distinguishes synchronous writes (charged immediately, with positioning
//! costs) from asynchronous writes absorbed by the write-behind cache and
//! flushed in batches.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

use sfs_telemetry::sync::Mutex;
use sfs_telemetry::Telemetry;

use crate::fault::FaultPlan;
use crate::time::{SimClock, Timeline};

/// Disk performance parameters.
#[derive(Debug, Clone, Copy)]
pub struct DiskParams {
    /// Average positioning (seek + rotational) cost per random access, ns.
    pub seek_ns: u64,
    /// Sequential transfer bandwidth, bytes per second.
    pub bandwidth_bps: u64,
    /// Block size for accounting purposes.
    pub block_size: usize,
    /// CPU cost per buffered write byte (block allocation, buffer
    /// management in the file system's write path) charged at write time
    /// even for write-behind data.
    pub write_path_ns_per_byte: u64,
}

impl DiskParams {
    /// Late-90s SCSI disk, roughly the IBM 18ES: ~8.5 ms average access,
    /// ~13 MB/s media rate.
    pub fn ibm_18es() -> Self {
        DiskParams {
            seek_ns: 8_500_000,
            bandwidth_bps: 13_000_000,
            block_size: 8192,
            write_path_ns_per_byte: 36,
        }
    }

    fn transfer_ns(&self, len: usize) -> u64 {
        (len as u64 * 1_000_000_000) / self.bandwidth_bps
    }
}

/// Device time accumulated while a [`SimDisk`] is in tally mode, split
/// into total cost and the positioning (seek + rotation) share that a
/// batched commit can skip.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DiskTally {
    /// Total device time the tallied operations would have charged.
    pub total_ns: u64,
    /// The positioning share of `total_ns`.
    pub positioning_ns: u64,
    /// Operations tallied.
    pub ops: u64,
}

#[derive(Debug, Default)]
struct DiskState {
    /// Position of the head (block number), to distinguish sequential from
    /// random access.
    head: u64,
    /// Dirty bytes awaiting write-behind.
    dirty_bytes: u64,
    /// Tracing sink (shared across clones, so it can be attached after
    /// the disk is threaded through the VFS).
    tel: Telemetry,
    /// Optional fault plan; synchronous writes may fail transiently.
    fault: Option<FaultPlan>,
    /// Device costs accumulated in tally mode, so a scheduler can place
    /// them on a per-shard timeline instead of the clock.
    tally: DiskTally,
}

/// [`SimDisk::tallying`] states.
const TALLY_OFF: u8 = 0;
/// Tallying, nothing accumulated yet.
const TALLY_CLEAN: u8 = 1;
/// Tallying, with operations accumulated in `DiskState::tally`.
const TALLY_DIRTY: u8 = 2;

/// A simulated disk charging a [`SimClock`].
#[derive(Debug, Clone)]
pub struct SimDisk {
    clock: SimClock,
    params: DiskParams,
    state: Arc<Mutex<DiskState>>,
    /// Whether device costs go to the tally rather than the clock, and
    /// whether any did: outside the state lock, so entering and leaving
    /// tally mode around a request that never touches the disk takes no
    /// lock. Relaxed: the flag publishes nothing, the tally it marks is
    /// read and written under the state lock.
    tallying: Arc<AtomicU8>,
}

impl SimDisk {
    /// Creates a disk on `clock`.
    pub fn new(clock: SimClock, params: DiskParams) -> Self {
        SimDisk {
            clock,
            params,
            state: Arc::new(Mutex::new(DiskState::default())),
            tallying: Arc::new(AtomicU8::new(TALLY_OFF)),
        }
    }

    /// Attaches a shared tracing sink; events are stamped with this
    /// disk's virtual clock. Takes effect across all clones.
    pub fn set_telemetry(&self, tel: &Telemetry) {
        self.state.lock().tel = tel.clone().with_clock(self.clock.clone());
    }

    /// Attaches a seeded fault plan; synchronous writes consult it and
    /// may fail transiently (the disk retries after re-positioning, so
    /// the write still lands — the failure costs time and is counted).
    pub fn set_fault_plan(&self, plan: FaultPlan) {
        self.state.lock().fault = Some(plan);
    }

    /// Enters tally mode: until [`Self::tally_end`], device costs
    /// accumulate in a [`DiskTally`] instead of advancing the clock.
    /// A multi-core scheduler uses this to capture one request's disk
    /// work and place it on a per-shard disk timeline (where commits
    /// arriving back-to-back can batch), rather than charging the
    /// single shared clock serially. Stats and telemetry counters are
    /// recorded as usual.
    pub fn tally_begin(&self) {
        self.tallying.store(TALLY_CLEAN, Ordering::Relaxed);
    }

    /// Leaves tally mode, returning the accumulated device time.
    /// Returns a zero tally if tally mode was never entered.
    pub fn tally_end(&self) -> DiskTally {
        match self.tallying.swap(TALLY_OFF, Ordering::Relaxed) {
            TALLY_DIRTY => std::mem::take(&mut self.state.lock().tally),
            _ => DiskTally::default(),
        }
    }

    /// The tally, when device costs go to it rather than the clock.
    fn tally<'a>(&self, st: &'a mut DiskState) -> Option<&'a mut DiskTally> {
        if self.tallying.load(Ordering::Relaxed) == TALLY_OFF {
            return None;
        }
        self.tallying.store(TALLY_DIRTY, Ordering::Relaxed);
        Some(&mut st.tally)
    }

    /// Charges `ns` of device time: accumulated when tallying, otherwise
    /// advanced on the shared clock.
    fn charge(&self, st: &mut DiskState, ns: u64, positioning: bool) {
        if let Some(t) = self.tally(st) {
            t.total_ns += ns;
            if positioning {
                t.positioning_ns += ns;
            }
        } else {
            self.clock.advance_ns(ns);
        }
    }

    fn note_op(&self, st: &mut DiskState) {
        if let Some(t) = self.tally(st) {
            t.ops += 1;
        }
    }

    /// Reads `len` bytes at block `block`, charging positioning when the
    /// access is not sequential with the previous one.
    pub(crate) fn read(&self, block: u64, len: usize) {
        let mut st = self.state.lock();
        let span = st
            .tel
            .span("server", "sim.disk", "read")
            .with_attr("bytes", len);
        self.note_op(&mut st);
        st.tel.count("server", "disk.reads", 1);
        st.tel.count("server", "disk.bytes_read", len as u64);
        if st.head != block {
            st.tel.count("server", "disk.seeks", 1);
            self.charge(&mut st, self.params.seek_ns, true);
        }
        self.charge(&mut st, self.params.transfer_ns(len), false);
        st.head = block + (len / self.params.block_size.max(1)) as u64;
        drop(span);
    }

    /// Buffers an asynchronous write (write-behind): the media cost is
    /// deferred to [`Self::flush`], but the write path's CPU cost (block
    /// allocation, buffer management) is charged immediately.
    pub fn write_async(&self, len: usize) {
        let mut st = self.state.lock();
        self.note_op(&mut st);
        st.dirty_bytes += len as u64;
        st.tel.count("server", "disk.writes", 1);
        st.tel.count("server", "disk.bytes_written", len as u64);
        self.charge(
            &mut st,
            self.params.write_path_ns_per_byte * len as u64,
            false,
        );
    }

    /// Synchronously writes `len` bytes at `block` (e.g. metadata updates,
    /// fsync, NFS stable writes): pays positioning plus transfer now.
    pub fn write_sync(&self, block: u64, len: usize) {
        let mut st = self.state.lock();
        let span = st
            .tel
            .span("server", "sim.disk", "write_sync")
            .with_attr("bytes", len);
        self.note_op(&mut st);
        st.tel.count("server", "disk.writes", 1);
        st.tel.count("server", "disk.syncs", 1);
        st.tel.count("server", "disk.bytes_written", len as u64);
        // A transient media failure: the write is retried after a full
        // re-position, so the caller still sees it land (FFS panics on
        // hard metadata write failures; we model the recoverable kind).
        while st
            .fault
            .as_ref()
            .is_some_and(|p| p.sync_write_fails(self.clock.now()))
        {
            st.tel.count("server", "disk.sync_failures", 1);
            st.tel.instant("server", "sim.disk", "sync_write_retry");
            self.charge(&mut st, self.params.seek_ns, true);
        }
        if st.head != block {
            st.tel.count("server", "disk.seeks", 1);
            self.charge(&mut st, self.params.seek_ns, true);
        }
        self.charge(&mut st, self.params.transfer_ns(len), false);
        st.head = block + (len / self.params.block_size.max(1)) as u64;
        drop(span);
    }

    /// Flushes the write-behind buffer as one large sequential write with a
    /// single positioning cost.
    pub fn flush(&self) {
        let mut st = self.state.lock();
        if st.dirty_bytes == 0 {
            return;
        }
        let span = st
            .tel
            .span("server", "sim.disk", "flush")
            .with_attr("bytes", st.dirty_bytes);
        self.note_op(&mut st);
        st.tel.count("server", "disk.seeks", 1);
        self.charge(&mut st, self.params.seek_ns, true);
        let transfer = self.params.transfer_ns(st.dirty_bytes as usize);
        self.charge(&mut st, transfer, false);
        st.dirty_bytes = 0;
        drop(span);
    }

    /// The disk's clock.
    #[cfg(test)]
    fn clock(&self) -> &SimClock {
        &self.clock
    }
}

/// The outcome of scheduling one commit on a [`DiskCommitQueue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiskCommit {
    /// Absolute completion time of this commit.
    pub done_ns: u64,
    /// Whether the commit arrived while the queue was busy and joined an
    /// in-progress batch (skipping its positioning cost).
    pub(crate) joined: bool,
    /// Size of the batch this commit belongs to, so far.
    pub(crate) batch_size: u64,
    /// When this commit opened a new batch, the size of the batch it
    /// closed (for batch-size histograms).
    pub closed_batch: Option<u64>,
    /// Commits still outstanding when this one arrived (queue depth).
    pub queued_behind: u64,
}

/// Aggregate [`DiskCommitQueue`] statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskQueueStats {
    /// Commits scheduled.
    pub commits: u64,
    /// Batches opened.
    pub batches: u64,
    /// Commits that joined a batch (and skipped positioning).
    pub joined: u64,
    /// Total device time reserved.
    pub(crate) busy_ns: u64,
}

/// A per-shard disk commit queue with group commit.
///
/// Commits carry the device cost a [`SimDisk`] tallied for them, split
/// into positioning and transfer. The queue lays them out on one
/// `Timeline` (the shard's spindle): a commit that arrives while the
/// spindle is busy queues behind it back-to-back and *joins the batch* —
/// the head is already positioned from the previous write, so only the
/// transfer cost is paid, which is exactly the group-commit win of
/// gathering several connections' fsync barriers into one sync write. A
/// commit that finds the spindle idle pays full positioning and opens a
/// new batch.
#[derive(Debug, Clone, Default)]
pub struct DiskCommitQueue {
    lane: Timeline,
    /// Tail of the most recent batch.
    batch_end: u64,
    /// Commits in the current (still-open) batch.
    batch_size: u64,
    /// Completion times of scheduled commits with how many end then, in
    /// time order, for queue-depth gauges.
    ends: VecDeque<(u64, u32)>,
    commits: u64,
    batches: u64,
    joined: u64,
}

impl DiskCommitQueue {
    /// An idle queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Commits still outstanding (scheduled but not finished) at `at`.
    fn pending_at(&self, at: u64) -> u64 {
        let first = self.ends.partition_point(|&(done, _)| done <= at);
        self.ends.range(first..).map(|&(_, c)| c as u64).sum()
    }

    /// Size of the batch currently being appended to.
    pub fn current_batch(&self) -> u64 {
        self.batch_size
    }

    /// Drops the spindle's busy intervals and the completion times that
    /// end at or before `horizon_ns` (`Timeline::forget_until`): exact
    /// for every later commit ready at or after the horizon, which
    /// neither queues behind nor counts a commit that has finished.
    pub fn forget_until(&mut self, horizon_ns: u64) {
        self.lane.forget_until(horizon_ns);
        while self
            .ends
            .front()
            .is_some_and(|&(done, _)| done <= horizon_ns)
        {
            self.ends.pop_front();
        }
    }

    /// Busy intervals plus completion times the queue holds.
    #[cfg(test)]
    fn entries(&self) -> usize {
        self.lane.intervals() + self.ends.len()
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> DiskQueueStats {
        DiskQueueStats {
            commits: self.commits,
            batches: self.batches,
            joined: self.joined,
            busy_ns: self.lane.busy_ns(),
        }
    }

    /// Schedules a commit whose tallied device cost is `total_ns`, of
    /// which `positioning_ns` is seek/rotation, ready at `ready_ns`.
    pub fn commit(&mut self, ready_ns: u64, total_ns: u64, positioning_ns: u64) -> DiskCommit {
        let queued_behind = self.pending_at(ready_ns);
        self.commits += 1;
        if total_ns == 0 {
            return DiskCommit {
                done_ns: ready_ns,
                joined: false,
                batch_size: self.batch_size,
                closed_batch: None,
                queued_behind,
            };
        }
        // Busy (or no gap big enough) at arrival ⇒ the commit queues and
        // rides the previous write's head position: transfer only.
        let joined = self.lane.probe(ready_ns, total_ns) > ready_ns;
        let work = if joined {
            total_ns.saturating_sub(positioning_ns).max(1)
        } else {
            total_ns
        };
        let (start, done) = self.lane.reserve(ready_ns, work);
        let mut closed_batch = None;
        if joined && start == self.batch_end {
            self.batch_size += 1;
            self.joined += 1;
        } else {
            if self.batch_size > 0 {
                closed_batch = Some(self.batch_size);
            }
            self.batch_size = 1;
            self.batches += 1;
            if joined {
                self.joined += 1;
            }
        }
        if done > self.batch_end {
            self.batch_end = done;
        }
        let at = self.ends.partition_point(|&(end, _)| end < done);
        match self.ends.get_mut(at) {
            Some((end, count)) if *end == done => *count += 1,
            _ => self.ends.insert(at, (done, 1)),
        }
        DiskCommit {
            done_ns: done,
            joined,
            batch_size: self.batch_size,
            closed_batch,
            queued_behind,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::CoreSet;

    fn disk() -> SimDisk {
        SimDisk::new(SimClock::new(), DiskParams::ibm_18es())
    }

    /// A disk whose counters land on the returned sink.
    fn counted_disk() -> (SimDisk, Telemetry) {
        let d = disk();
        let tel = Telemetry::counters();
        d.set_telemetry(&tel);
        (d, tel)
    }

    /// (reads, writes, sync writes) counted on `tel`.
    fn counts(tel: &Telemetry) -> (u64, u64, u64) {
        let n = |name| tel.counter("server", name);
        (n("disk.reads"), n("disk.writes"), n("disk.syncs"))
    }

    #[test]
    fn random_reads_pay_seeks() {
        let d = disk();
        d.read(0, 8192);
        let after_first = d.clock().now();
        d.read(1000, 8192); // random
        let dt = d.clock().now().since(after_first);
        assert!(dt.as_nanos() >= DiskParams::ibm_18es().seek_ns);
    }

    #[test]
    fn sequential_reads_skip_seeks() {
        let d = disk();
        d.read(0, 8192); // head now at block 1
        let after_first = d.clock().now();
        d.read(1, 8192); // sequential
        let dt = d.clock().now().since(after_first);
        assert!(dt.as_nanos() < DiskParams::ibm_18es().seek_ns);
    }

    #[test]
    fn async_writes_defer_media_cost_until_flush() {
        let d = disk();
        d.write_async(100_000);
        // Only the write-path CPU cost is charged up front — far less
        // than the media transfer.
        let cpu_only = d.clock().now().as_nanos();
        assert_eq!(
            cpu_only,
            100_000 * DiskParams::ibm_18es().write_path_ns_per_byte
        );
        d.flush();
        assert!(d.clock().now().as_nanos() > cpu_only + DiskParams::ibm_18es().seek_ns);
        // Second flush with nothing dirty is free.
        let t = d.clock().now();
        d.flush();
        assert_eq!(d.clock().now(), t);
    }

    #[test]
    fn sync_writes_charged_immediately() {
        let (d, tel) = counted_disk();
        d.write_sync(50, 4096);
        assert!(d.clock().now().as_nanos() >= DiskParams::ibm_18es().seek_ns);
        let (_, w, s) = counts(&tel);
        assert_eq!((w, s), (1, 1));
    }

    #[test]
    fn sync_write_failures_cost_time_but_still_land() {
        use crate::fault::FaultPlan;
        let clean = disk();
        let (d, tel) = counted_disk();
        d.set_fault_plan(FaultPlan::from_spec("seed=99,syncfail=500").unwrap());
        for disk in [&clean, &d] {
            for i in 0..40 {
                disk.write_sync(10 + i * 7, 4096);
            }
        }
        let failures = tel.counter("server", "disk.sync_failures");
        assert!(failures > 0, "seed 99 at 500‰ must inject failures");
        let (_, w, s) = counts(&tel);
        assert_eq!((w, s), (40, 40), "every write still completes");
        assert!(
            d.clock().now() > clean.clock().now(),
            "the failed attempts cost time"
        );
    }

    #[test]
    fn tally_mode_accumulates_instead_of_advancing() {
        let (d, tel) = counted_disk();
        d.read(0, 8192); // position the head, charging the clock
        let before = d.clock().now();
        d.tally_begin();
        d.write_sync(500, 4096); // random: seek + transfer
        d.read(500, 4096); // sequential after the write? head moved — may seek
        let tally = d.tally_end();
        assert_eq!(
            d.clock().now(),
            before,
            "tally mode must not advance the clock"
        );
        assert!(tally.total_ns > 0);
        assert!(tally.positioning_ns >= DiskParams::ibm_18es().seek_ns);
        assert!(tally.positioning_ns < tally.total_ns);
        assert_eq!(tally.ops, 2);
        // Stats still recorded under tally.
        assert_eq!(counts(&tel), (2, 1, 1));
        // Back to normal charging afterwards.
        d.write_sync(9_000, 4096);
        assert!(d.clock().now() > before);
    }

    #[test]
    fn commit_queue_batches_back_to_back_commits() {
        let mut q = DiskCommitQueue::new();
        let c1 = q.commit(0, 1_100, 1_000);
        assert!(!c1.joined);
        assert_eq!(c1.done_ns, 1_100);
        assert_eq!(c1.batch_size, 1);
        // Arrives while the spindle is busy: joins the batch, pays only
        // the 100 ns transfer.
        let c2 = q.commit(50, 1_100, 1_000);
        assert!(c2.joined);
        assert_eq!(c2.done_ns, 1_200);
        assert_eq!(c2.batch_size, 2);
        assert_eq!(c2.queued_behind, 1);
        // Arrives long after: new batch, full positioning, closes the old.
        let c3 = q.commit(5_000, 1_100, 1_000);
        assert!(!c3.joined);
        assert_eq!(c3.done_ns, 6_100);
        assert_eq!(c3.closed_batch, Some(2));
        let st = q.stats();
        assert_eq!((st.commits, st.batches, st.joined), (3, 2, 1));
    }

    #[test]
    fn commit_queue_group_commit_beats_serial_sync() {
        // Ten fsync barriers landing together: one positioning cost plus
        // ten transfers, versus ten full positioning costs serially.
        let mut grouped = DiskCommitQueue::new();
        let done = (0..10)
            .map(|_| grouped.commit(0, 1_100, 1_000).done_ns)
            .max()
            .unwrap();
        let serial = 10 * 1_100;
        assert_eq!(done, 1_100 + 9 * 100);
        assert!(done < serial);
    }

    #[test]
    fn commit_queue_is_deterministic() {
        let run = || {
            let mut q = DiskCommitQueue::new();
            (0..64)
                .map(|i| q.commit((i * 331) % 4_000, 900 + (i % 7) * 50, 700))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    /// One connection's frame: its arrival, CPU work, tallied disk work
    /// (total, positioning) and disk shard.
    type Frame = (u64, u64, (u64, u64), usize);

    /// What a multi-core scheduler does with `frame` on these calendars
    /// (the shard engine's discipline): CPU on the earliest-free core,
    /// then the disk work on the frame's shard. Returns the completion.
    fn place(cores: &mut CoreSet, disks: &mut [DiskCommitQueue], frame: Frame) -> u64 {
        let (arrival, cpu, (total, positioning), shard) = frame;
        let end = cores.reserve(arrival, cpu).end_ns;
        if total == 0 {
            return end;
        }
        disks[shard].commit(end, total, positioning).done_ns
    }

    #[test]
    fn property_forgetting_at_the_horizon_keeps_every_completion() {
        // k connections send frames at non-decreasing instants — often
        // the same instant twice — on calendars that forget everything
        // ending at or before the horizon (the earliest latest arrival
        // over the connections), beside calendars that never forget.
        // Every completion instant must agree, and the forgetting
        // calendars must stay small while the others grow with the run.
        const FRAMES: usize = 3_000;
        const BOUND: usize = 64;
        let mut state = 0x5EED_u64;
        let mut next = move |n: u64| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % n
        };
        for k in [1u64, 4, 8] {
            let (mut cores, mut disks) = (CoreSet::new(2), vec![DiskCommitQueue::new(); 2]);
            let (mut ref_cores, mut ref_disks) = (cores.clone(), disks.clone());
            let mut latest = vec![0u64; k as usize];
            let mut largest = 0;
            for i in 0..FRAMES {
                // A random connection, unless it ran too far ahead of the
                // slowest: the slowest then sends, so the connections
                // stay within a bounded distance of each other.
                let horizon = *latest.iter().min().unwrap();
                let mut conn = next(k) as usize;
                if latest[conn] > horizon + 8 * k {
                    conn = latest.iter().position(|&at| at == horizon).unwrap();
                }
                if next(4) != 0 {
                    latest[conn] += 1 + next(4 * k);
                }
                let total = if next(4) == 0 { 2 + next(5) } else { 0 };
                let frame = (
                    latest[conn],
                    1 + next(3),
                    (total, next(total + 1)),
                    next(2) as usize,
                );
                let horizon = *latest.iter().min().unwrap();
                cores.forget_until(horizon);
                disks.iter_mut().for_each(|d| d.forget_until(horizon));
                assert_eq!(
                    place(&mut cores, &mut disks, frame),
                    place(&mut ref_cores, &mut ref_disks, frame),
                    "frame {i} of {k} connections, {frame:?}, horizon {horizon}"
                );
                largest = largest.max(
                    cores.intervals() + disks.iter().map(DiskCommitQueue::entries).sum::<usize>(),
                );
            }
            assert!(largest <= BOUND, "{k} connections: {largest} entries");
            let kept = ref_cores.intervals()
                + ref_disks
                    .iter()
                    .map(DiskCommitQueue::entries)
                    .sum::<usize>();
            assert!(kept > 10 * BOUND, "{k} connections: the run left {kept}");
        }
    }

    #[test]
    fn batched_flush_cheaper_than_sync_each() {
        let sync_disk = disk();
        for i in 0..10 {
            sync_disk.write_sync(i * 100, 1024);
        }
        let batched = disk();
        for _ in 0..10 {
            batched.write_async(1024);
        }
        batched.flush();
        assert!(batched.clock().now() < sync_disk.clock().now());
    }
}
