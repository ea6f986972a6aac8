//! An append-only journal on top of the simulated disk.
//!
//! [`crate::SimDisk`] charges virtual time but stores no bytes; crash
//! recovery needs actual contents that outlive the process that wrote
//! them. A [`JournalDisk`] pairs a `SimDisk` (for timing: every append
//! is a synchronous write, every replay a sequence of reads) with a
//! shared record store. Clones share state, so a harness keeps one
//! clone while the "process" holding the other dies — exactly how a
//! real journal survives on disk when its writer crashes.
//!
//! Appends are synchronous by design: a record is durable before the
//! operation it protects proceeds, so a crash at any instant leaves a
//! prefix of the logical record sequence — plus, at worst, one torn
//! record at the tail. Every record carries a CRC32 over its payload;
//! [`JournalDisk::replay_checked`] verifies the frames and
//! distinguishes the two failure shapes a recovering process can meet:
//!
//! - a **torn tail** (bad frames extending to the end of the log) is
//!   what a crash mid-append legitimately leaves behind — it is
//!   truncated, counted, and recovery proceeds from the valid prefix;
//! - a **mid-log mismatch** (a bad frame followed by a valid one) can
//!   only mean the medium corrupted a record that was once durable —
//!   that is fatal, because silently dropping an interior record would
//!   fold the wrong state.

use std::sync::Arc;

use sfs_telemetry::sync::Mutex;

use crate::disk::SimDisk;

/// Fixed per-record framing overhead charged to the disk
/// (length word + CRC32).
const RECORD_HEADER_BYTES: usize = 8;

/// CRC32 (IEEE, reflected, poly 0xEDB88320) over `bytes`.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// A checked replay failed: record `index` has a CRC mismatch but a
/// later record is intact, so the damage is interior — not a torn
/// tail — and the log cannot be trusted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalError {
    Corrupt { index: usize },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Corrupt { index } => {
                write!(f, "journal record {index} failed CRC mid-log; log unusable")
            }
        }
    }
}

impl std::error::Error for JournalError {}

/// Result of a successful [`JournalDisk::replay_checked`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayOutcome {
    /// The valid record payloads, in append order.
    pub records: Vec<Vec<u8>>,
    /// Torn frames truncated from the tail (0 on a clean log).
    pub torn_truncated: usize,
}

struct StoredRecord {
    payload: Vec<u8>,
    crc: u32,
}

impl StoredRecord {
    fn new(payload: &[u8]) -> Self {
        StoredRecord {
            payload: payload.to_vec(),
            crc: crc32(payload),
        }
    }

    fn intact(&self) -> bool {
        crc32(&self.payload) == self.crc
    }
}

struct JournalState {
    records: Vec<StoredRecord>,
    /// Next block to write; appends advance it so seek accounting is
    /// realistic for a log laid out sequentially.
    next_block: u64,
    /// Block of each record, for replay read charging.
    blocks: Vec<u64>,
}

/// An append-only, crash-surviving record log on a [`SimDisk`].
///
/// Clones share both the record store and the underlying disk, so the
/// journal written by a client that "dies" is readable by its restarted
/// incarnation.
#[derive(Clone)]
pub struct JournalDisk {
    disk: SimDisk,
    state: Arc<Mutex<JournalState>>,
}

impl JournalDisk {
    /// Creates an empty journal whose appends start at `base_block`.
    pub fn new(disk: SimDisk, base_block: u64) -> Self {
        JournalDisk {
            disk,
            state: Arc::new(Mutex::new(JournalState {
                records: Vec::new(),
                next_block: base_block,
                blocks: Vec::new(),
            })),
        }
    }

    /// Appends one record, charging a synchronous write. The record is
    /// durable when this returns (under `syncfail` faults the underlying
    /// disk retries deterministically, charging extra seeks).
    pub fn append(&self, record: &[u8]) {
        let block = {
            let mut st = self.state.lock();
            let block = st.next_block;
            st.next_block += 1;
            st.records.push(StoredRecord::new(record));
            st.blocks.push(block);
            block
        };
        // Charge outside the journal lock; SimDisk serialises internally.
        self.disk
            .write_sync(block, RECORD_HEADER_BYTES + record.len());
    }

    /// Reads every record back in append order, charging one disk read
    /// per frame scanned, and verifies each CRC32.
    ///
    /// Bad frames that extend to the end of the log are a torn tail —
    /// the shape a crash mid-append leaves — and are truncated from the
    /// journal (counted in `ReplayOutcome::torn_truncated`); replay
    /// returns the valid prefix. A bad frame *followed by* an intact one
    /// means interior corruption of a once-durable record: fatal
    /// (`JournalError::Corrupt`).
    pub fn replay_checked(&self) -> Result<ReplayOutcome, JournalError> {
        let (reads, verdicts) = {
            let st = self.state.lock();
            let reads: Vec<(u64, usize)> = st
                .records
                .iter()
                .zip(&st.blocks)
                .map(|(r, b)| (*b, RECORD_HEADER_BYTES + r.payload.len()))
                .collect();
            let verdicts: Vec<bool> = st.records.iter().map(StoredRecord::intact).collect();
            (reads, verdicts)
        };
        // A recovering process scans the whole log before deciding; it
        // pays the read for every frame, torn or not.
        for (block, len) in reads {
            self.disk.read(block, len);
        }
        let first_bad = verdicts.iter().position(|ok| !ok);
        let mut st = self.state.lock();
        match first_bad {
            None => Ok(ReplayOutcome {
                records: st.records.iter().map(|r| r.payload.clone()).collect(),
                torn_truncated: 0,
            }),
            Some(i) if verdicts[i..].iter().all(|ok| !ok) => {
                let torn = st.records.len() - i;
                st.records.truncate(i);
                st.blocks.truncate(i);
                Ok(ReplayOutcome {
                    records: st.records.iter().map(|r| r.payload.clone()).collect(),
                    torn_truncated: torn,
                })
            }
            Some(i) => Err(JournalError::Corrupt { index: i }),
        }
    }

    /// Atomically replaces the log's contents with `records` — the
    /// compaction primitive. The new log is written sequentially from
    /// the current head, charging one synchronous write per record, and
    /// the old blocks are abandoned. Clones observe the new contents,
    /// like a log file rewritten in place under its readers.
    pub fn replace(&self, records: &[Vec<u8>]) {
        let writes: Vec<(u64, usize)> = {
            let mut st = self.state.lock();
            st.records.clear();
            st.blocks.clear();
            let mut writes = Vec::with_capacity(records.len());
            for r in records {
                let block = st.next_block;
                st.next_block += 1;
                st.records.push(StoredRecord::new(r));
                st.blocks.push(block);
                writes.push((block, RECORD_HEADER_BYTES + r.len()));
            }
            writes
        };
        for (block, len) in writes {
            self.disk.write_sync(block, len);
        }
    }

    /// Fault-injection hook: flips one payload byte of record `index`
    /// without updating its stored CRC, modelling medium corruption of
    /// a once-durable frame. No-op timing-wise.
    #[cfg(test)]
    fn corrupt_record(&self, index: usize) {
        let mut st = self.state.lock();
        let rec = &mut st.records[index];
        if rec.payload.is_empty() {
            // Zero-length payload: damage the frame itself.
            rec.crc ^= 0xFF;
        } else {
            rec.payload[0] ^= 0xFF;
        }
    }

    /// Fault-injection hook: tears the final record as a crash between
    /// the data write and its completion would — the stored frame loses
    /// the tail half of its payload while keeping the original CRC.
    /// No-op on an empty journal.
    #[cfg(test)]
    fn tear_tail(&self) {
        let mut st = self.state.lock();
        if let Some(rec) = st.records.last_mut() {
            let keep = rec.payload.len() / 2;
            rec.payload.truncate(keep);
            if rec.intact() {
                // Degenerate payloads (empty, or equal-CRC halves) still
                // need to present as torn.
                rec.crc ^= 0xFF;
            }
        }
    }

    /// Number of records appended so far.
    pub fn len(&self) -> usize {
        self.state.lock().records.len()
    }

    /// Whether the journal holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total record payload bytes (excluding framing).
    pub(crate) fn byte_len(&self) -> usize {
        self.state
            .lock()
            .records
            .iter()
            .map(|r| r.payload.len())
            .sum()
    }

    /// Snapshot of the raw records without charging any disk time —
    /// for assertions, not for recovery paths.
    pub fn records(&self) -> Vec<Vec<u8>> {
        self.state
            .lock()
            .records
            .iter()
            .map(|r| r.payload.clone())
            .collect()
    }
}

impl std::fmt::Debug for JournalDisk {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JournalDisk")
            .field("records", &self.len())
            .field("bytes", &self.byte_len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::DiskParams;
    use crate::time::SimClock;
    use sfs_telemetry::Telemetry;

    fn journal() -> (SimClock, JournalDisk) {
        let (clock, j, _) = counted_journal();
        (clock, j)
    }

    /// A journal whose disk counts onto the returned sink.
    fn counted_journal() -> (SimClock, JournalDisk, Telemetry) {
        let clock = SimClock::new();
        let disk = SimDisk::new(clock.clone(), DiskParams::ibm_18es());
        let tel = Telemetry::counters();
        disk.set_telemetry(&tel);
        (clock, JournalDisk::new(disk, 1_000), tel)
    }

    /// Every record, CRC-checked.
    fn replay(j: &JournalDisk) -> Vec<Vec<u8>> {
        j.replay_checked().expect("intact log").records
    }

    #[test]
    fn clones_share_records_across_writer_death() {
        let (_clock, j) = journal();
        let writer = j.clone();
        writer.append(b"mount /sfs/a");
        writer.append(b"seq hwm 64");
        drop(writer); // the "process" dies
        assert_eq!(
            replay(&j),
            vec![b"mount /sfs/a".to_vec(), b"seq hwm 64".to_vec()]
        );
    }

    #[test]
    fn appends_charge_sync_writes_and_replay_charges_reads() {
        let (clock, j, tel) = counted_journal();
        let t0 = clock.now();
        j.append(b"rec");
        let t1 = clock.now();
        assert!(t1 > t0, "sync append must cost virtual time");
        assert_eq!(tel.counter("server", "disk.syncs"), 1);
        assert_eq!(tel.counter("server", "disk.reads"), 0);
        replay(&j);
        assert_eq!(tel.counter("server", "disk.reads"), 1);
        assert!(clock.now() > t1, "replay must cost virtual time");
    }

    #[test]
    fn replace_compacts_visibly_across_clones_and_charges_writes() {
        let (clock, j, tel) = counted_journal();
        let writer = j.clone();
        for i in 0..10u8 {
            writer.append(&[i; 5]);
        }
        let writes_before = tel.counter("server", "disk.writes");
        let t0 = clock.now();
        writer.replace(&[b"checkpoint".to_vec()]);
        assert!(clock.now() > t0, "rewriting the log costs virtual time");
        let writes_after = tel.counter("server", "disk.writes");
        assert_eq!(writes_after - writes_before, 1);
        // The clone that did not call replace sees the compacted log.
        assert_eq!(replay(&j), vec![b"checkpoint".to_vec()]);
        assert_eq!(j.len(), 1);
        // Appends continue after the compacted tail.
        j.append(b"later");
        assert_eq!(replay(&j).len(), 2);
    }

    #[test]
    fn identical_append_sequences_are_byte_identical_and_time_identical() {
        let run = || {
            let (clock, j) = journal();
            for i in 0..20u8 {
                j.append(&[i; 9]);
            }
            let replayed = replay(&j);
            (replayed, clock.now())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn clean_log_replays_checked_with_no_truncation() {
        let (_clock, j) = journal();
        j.append(b"one");
        j.append(b"two");
        let out = j.replay_checked().expect("clean log");
        assert_eq!(out.records, vec![b"one".to_vec(), b"two".to_vec()]);
        assert_eq!(out.torn_truncated, 0);
    }

    #[test]
    fn torn_tail_is_truncated_counted_and_tolerated() {
        let (clock, j) = journal();
        j.append(b"alpha record");
        j.append(b"beta record");
        j.append(b"gamma record torn mid-append");
        j.tear_tail();
        let out = j.replay_checked().expect("torn tail is recoverable");
        assert_eq!(
            out.records,
            vec![b"alpha record".to_vec(), b"beta record".to_vec()]
        );
        assert_eq!(out.torn_truncated, 1);
        // The truncation is durable state: a second checked replay sees a
        // clean two-record log and counts nothing further.
        let again = j.replay_checked().expect("already truncated");
        assert_eq!(again.records.len(), 2);
        assert_eq!(again.torn_truncated, 0);
        // Appends continue after the truncated tail.
        j.append(b"delta");
        assert_eq!(j.replay_checked().unwrap().records.len(), 3);
        assert!(clock.now().as_nanos() > 0);
    }

    #[test]
    fn mid_log_corruption_is_fatal_and_counted() {
        let (_clock, j) = journal();
        j.append(b"first");
        j.append(b"second");
        j.append(b"third");
        j.corrupt_record(1);
        assert_eq!(
            j.replay_checked(),
            Err(JournalError::Corrupt { index: 1 }),
            "a bad frame before an intact one is not a torn tail"
        );
        // Fatal corruption does not mutate the log; the damage stays
        // visible to whoever inspects it next.
        assert_eq!(j.len(), 3);
    }

    #[test]
    fn checked_replay_is_deterministic_across_reruns() {
        let run = || {
            let (clock, j) = journal();
            for i in 0..6u8 {
                j.append(&[i; 11]);
            }
            j.tear_tail();
            let out = j.replay_checked().unwrap();
            (out, clock.now())
        };
        assert_eq!(run(), run());
    }
}
