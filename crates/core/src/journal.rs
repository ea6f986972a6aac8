//! The client-state journal: what `sfscd` persists so it can survive
//! its own death.
//!
//! The paper's client keeps everything in memory; a crashed client
//! forgets its mounts, its agents' keys, and its authentication seqnos.
//! The journal persists exactly the state whose loss would be either a
//! usability regression (mounts, agent keys and links) or a security
//! regression (seqno high-water marks — reusing a seqno after restart
//! would void the §3.1.3 freshness guarantee). Everything else — lease
//! caches, authentication numbers, secure-channel keys — is deliberately
//! *not* persisted: leases may have been invalidated while the client
//! was dead and session state died with the server-side connection, so a
//! recovered client must come up with cold caches and renegotiate from
//! scratch.
//!
//! Recovery re-runs key negotiation against each recorded HostID; the
//! journal's recorded server key is advisory. Self-certification is the
//! actual check: a server whose current key no longer hashes to the
//! recorded HostID is refused, journal or no journal.

use std::collections::BTreeMap;

use sfs_proto::pathname::HostId;
use sfs_sim::JournalDisk;
use sfs_xdr::{XdrDecoder, XdrEncoder};

/// One durable record in the client journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum JournalRecord {
    /// A mount was established: the self-certifying pathname pieces plus
    /// the server key that verified against the HostID at mount time.
    Mount {
        /// Location (DNS name) of the server.
        location: String,
        /// HostID the location was certified against.
        host_id: HostId,
        /// The server public key that hashed to `host_id` when the mount
        /// was journaled (advisory; recovery re-verifies live).
        server_key: Vec<u8>,
    },
    /// Authentication-seqno high-water mark for one mount. Journaled
    /// *before* any seqno up to `hwm` is used, so a restarted client
    /// resuming at `hwm` can never reuse a signed seqno.
    SeqHwm {
        /// `Location:HostID` directory name of the mount.
        dir_name: String,
        /// First seqno the restarted client may use.
        hwm: u32,
    },
    /// A private key was installed into the agent for `uid`.
    AgentKey {
        /// The agent's uid.
        uid: u32,
        /// Serialized [`sfs_crypto::rabin::RabinPrivateKey`].
        key: Vec<u8>,
    },
    /// A dynamic `/sfs` symlink was created in the agent for `uid`.
    AgentLink {
        /// The agent's uid.
        uid: u32,
        /// Link name in `/sfs`.
        name: String,
        /// Link target.
        target: String,
    },
    /// A compaction checkpoint: the folded state of every record before
    /// it. Replay discards whatever it has accumulated and restarts from
    /// this state, so all earlier records are dead weight that
    /// [`ClientJournal::compact`] can truncate away.
    Checkpoint(Box<RecoveredState>),
}

impl JournalRecord {
    /// Encodes the record as XDR.
    pub(crate) fn to_xdr(&self) -> Vec<u8> {
        let mut enc = XdrEncoder::new();
        match self {
            JournalRecord::Mount {
                location,
                host_id,
                server_key,
            } => {
                enc.put_u32(0)
                    .put_string(location)
                    .put_opaque_fixed(&host_id.0)
                    .put_opaque(server_key);
            }
            JournalRecord::SeqHwm { dir_name, hwm } => {
                enc.put_u32(1).put_string(dir_name).put_u32(*hwm);
            }
            JournalRecord::AgentKey { uid, key } => {
                enc.put_u32(2).put_u32(*uid).put_opaque(key);
            }
            JournalRecord::AgentLink { uid, name, target } => {
                enc.put_u32(3)
                    .put_u32(*uid)
                    .put_string(name)
                    .put_string(target);
            }
            JournalRecord::Checkpoint(state) => {
                enc.put_u32(4);
                enc.put_u32(state.mounts.len() as u32);
                for m in &state.mounts {
                    enc.put_string(&m.location)
                        .put_opaque_fixed(&m.host_id.0)
                        .put_opaque(&m.server_key);
                }
                enc.put_u32(state.seq_hwm.len() as u32);
                for (dir, hwm) in &state.seq_hwm {
                    enc.put_string(dir).put_u32(*hwm);
                }
                enc.put_u32(state.agent_keys.len() as u32);
                for (uid, keys) in &state.agent_keys {
                    enc.put_u32(*uid).put_u32(keys.len() as u32);
                    for key in keys {
                        enc.put_opaque(key);
                    }
                }
                enc.put_u32(state.agent_links.len() as u32);
                for (uid, links) in &state.agent_links {
                    enc.put_u32(*uid).put_u32(links.len() as u32);
                    for (name, target) in links {
                        enc.put_string(name).put_string(target);
                    }
                }
            }
        }
        enc.into_bytes()
    }

    /// Decodes one record.
    pub(crate) fn from_xdr(bytes: &[u8]) -> Result<Self, String> {
        let mut dec = XdrDecoder::new(bytes);
        let tag = dec.get_u32().map_err(|e| e.to_string())?;
        let rec = match tag {
            0 => {
                let location = dec.get_string().map_err(|e| e.to_string())?;
                let hid = dec.get_opaque_fixed(20).map_err(|e| e.to_string())?;
                let mut host_id = [0u8; 20];
                host_id.copy_from_slice(&hid);
                let server_key = dec.get_opaque().map_err(|e| e.to_string())?;
                JournalRecord::Mount {
                    location,
                    host_id: HostId(host_id),
                    server_key,
                }
            }
            1 => JournalRecord::SeqHwm {
                dir_name: dec.get_string().map_err(|e| e.to_string())?,
                hwm: dec.get_u32().map_err(|e| e.to_string())?,
            },
            2 => JournalRecord::AgentKey {
                uid: dec.get_u32().map_err(|e| e.to_string())?,
                key: dec.get_opaque().map_err(|e| e.to_string())?,
            },
            3 => JournalRecord::AgentLink {
                uid: dec.get_u32().map_err(|e| e.to_string())?,
                name: dec.get_string().map_err(|e| e.to_string())?,
                target: dec.get_string().map_err(|e| e.to_string())?,
            },
            4 => {
                let e = |e: sfs_xdr::XdrError| e.to_string();
                let mut state = RecoveredState::default();
                for _ in 0..dec.get_u32().map_err(e)? {
                    let location = dec.get_string().map_err(e)?;
                    let hid = dec.get_opaque_fixed(20).map_err(e)?;
                    let mut host_id = [0u8; 20];
                    host_id.copy_from_slice(&hid);
                    state.mounts.push(RecoveredMount {
                        location,
                        host_id: HostId(host_id),
                        server_key: dec.get_opaque().map_err(e)?,
                    });
                }
                for _ in 0..dec.get_u32().map_err(e)? {
                    let dir = dec.get_string().map_err(e)?;
                    let hwm = dec.get_u32().map_err(e)?;
                    state.seq_hwm.insert(dir, hwm);
                }
                for _ in 0..dec.get_u32().map_err(e)? {
                    let uid = dec.get_u32().map_err(e)?;
                    let n = dec.get_u32().map_err(e)?;
                    let keys = state.agent_keys.entry(uid).or_default();
                    for _ in 0..n {
                        keys.push(dec.get_opaque().map_err(e)?);
                    }
                }
                for _ in 0..dec.get_u32().map_err(e)? {
                    let uid = dec.get_u32().map_err(e)?;
                    let n = dec.get_u32().map_err(e)?;
                    let links = state.agent_links.entry(uid).or_default();
                    for _ in 0..n {
                        let name = dec.get_string().map_err(e)?;
                        let target = dec.get_string().map_err(e)?;
                        links.insert(name, target);
                    }
                }
                JournalRecord::Checkpoint(Box::new(state))
            }
            other => return Err(format!("unknown journal record tag {other}")),
        };
        Ok(rec)
    }
}

/// One mount to re-establish during recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveredMount {
    /// Server location.
    pub(crate) location: String,
    /// HostID recorded at mount time.
    pub(crate) host_id: HostId,
    /// Server key recorded at mount time (advisory).
    pub(crate) server_key: Vec<u8>,
}

/// The folded view of a replayed journal: later records override
/// earlier ones, duplicate agent keys collapse.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveredState {
    /// Mounts in first-mount order, one entry per `Location:HostID`.
    pub mounts: Vec<RecoveredMount>,
    /// Seqno high-water mark per mount directory name.
    pub seq_hwm: BTreeMap<String, u32>,
    /// Serialized agent private keys per uid, in install order.
    pub agent_keys: BTreeMap<u32, Vec<Vec<u8>>>,
    /// Agent dynamic links per uid.
    pub agent_links: BTreeMap<u32, BTreeMap<String, String>>,
    /// Total records replayed (before folding).
    pub(crate) records: u64,
}

/// Records at which [`ClientJournal::append`] folds the log into a
/// checkpoint. Large enough that compaction cost (a full replay plus one
/// sync write) amortises over hundreds of appends; small enough that a
/// journal never holds more than a few KiB of dead records.
pub(crate) const AUTO_COMPACT_THRESHOLD: usize = 256;

/// The client journal: `JournalRecord`s on a crash-surviving
/// [`JournalDisk`]. Clones share state, mirroring a journal file that
/// outlives its writer.
#[derive(Clone, Debug)]
pub struct ClientJournal {
    disk: JournalDisk,
}

impl ClientJournal {
    /// Wraps a journal disk.
    pub fn new(disk: JournalDisk) -> Self {
        ClientJournal { disk }
    }

    /// Appends one record (synchronous: durable before return). Once the
    /// log passes [`AUTO_COMPACT_THRESHOLD`] records it is folded into a
    /// single checkpoint so steady-state clients no longer grow their
    /// journal without bound. Compaction is best-effort: an undecodable
    /// log (possible only under corruption faults) leaves the raw records
    /// in place for recovery to report.
    pub(crate) fn append(&self, rec: &JournalRecord) {
        self.disk.append(&rec.to_xdr());
        if self.disk.len() >= AUTO_COMPACT_THRESHOLD {
            let _ = self.compact();
        }
    }

    /// Replays the journal into a folded [`RecoveredState`], charging
    /// disk reads. Frames are CRC-verified: a torn tail (crash
    /// mid-append) is truncated and tolerated, while mid-log corruption
    /// of a once-durable record is fatal — folding around a hole would
    /// silently resurrect pre-hole state.
    pub fn replay(&self) -> Result<RecoveredState, String> {
        let checked = self.disk.replay_checked().map_err(|e| e.to_string())?;
        let mut out = RecoveredState::default();
        for bytes in checked.records {
            out.records += 1;
            match JournalRecord::from_xdr(&bytes)? {
                JournalRecord::Mount {
                    location,
                    host_id,
                    server_key,
                } => {
                    if let Some(m) = out
                        .mounts
                        .iter_mut()
                        .find(|m| m.location == location && m.host_id == host_id)
                    {
                        m.server_key = server_key;
                    } else {
                        out.mounts.push(RecoveredMount {
                            location,
                            host_id,
                            server_key,
                        });
                    }
                }
                JournalRecord::SeqHwm { dir_name, hwm } => {
                    let e = out.seq_hwm.entry(dir_name).or_insert(0);
                    *e = (*e).max(hwm);
                }
                JournalRecord::AgentKey { uid, key } => {
                    let keys = out.agent_keys.entry(uid).or_default();
                    if !keys.contains(&key) {
                        keys.push(key);
                    }
                }
                JournalRecord::AgentLink { uid, name, target } => {
                    out.agent_links.entry(uid).or_default().insert(name, target);
                }
                JournalRecord::Checkpoint(state) => {
                    // The checkpoint IS the folded state of everything
                    // before it; discard what we accumulated but keep the
                    // cumulative record count honest.
                    let records = out.records;
                    out = *state;
                    out.records = records;
                }
            }
        }
        Ok(out)
    }

    /// Rewrites the journal as a single `JournalRecord::Checkpoint`
    /// holding its folded state. Replay after compaction yields the same
    /// [`RecoveredState`] (modulo the cumulative `records` counter, which
    /// restarts at the checkpoint). Charges the replay reads plus one
    /// synchronous write.
    pub fn compact(&self) -> Result<(), String> {
        let mut state = self.replay()?;
        state.records = 0;
        let checkpoint = JournalRecord::Checkpoint(Box::new(state));
        self.disk.replace(&[checkpoint.to_xdr()]);
        Ok(())
    }

    /// Number of records appended so far.
    pub fn len(&self) -> usize {
        self.disk.len()
    }

    /// Whether the journal holds no records.
    pub fn is_empty(&self) -> bool {
        self.disk.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfs_sim::{DiskParams, SimClock, SimDisk};

    fn journal() -> (SimClock, ClientJournal) {
        let clock = SimClock::new();
        let disk = SimDisk::new(clock.clone(), DiskParams::ibm_18es());
        (clock, ClientJournal::new(JournalDisk::new(disk, 0)))
    }

    fn sample_records() -> Vec<JournalRecord> {
        vec![
            JournalRecord::Mount {
                location: "a.example.com".into(),
                host_id: HostId([1; 20]),
                server_key: vec![9; 33],
            },
            JournalRecord::SeqHwm {
                dir_name: "a.example.com:xyz".into(),
                hwm: 64,
            },
            JournalRecord::AgentKey {
                uid: 1000,
                key: vec![7; 48],
            },
            JournalRecord::AgentLink {
                uid: 1000,
                name: "work".into(),
                target: "/sfs/a.example.com:xyz".into(),
            },
        ]
    }

    #[test]
    fn records_round_trip_through_xdr() {
        for rec in sample_records() {
            assert_eq!(JournalRecord::from_xdr(&rec.to_xdr()).unwrap(), rec);
        }
    }

    #[test]
    fn replay_is_deterministic_in_bytes_and_time() {
        // Tier-1 determinism: two journals fed the same sequence produce
        // byte-identical raw records, identical folded state, and an
        // identical virtual-time bill.
        let run = || {
            let (clock, j) = journal();
            for rec in sample_records() {
                j.append(&rec);
            }
            let state = j.replay().unwrap();
            (state, clock.now())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn replay_folds_later_records_over_earlier() {
        let (_clock, j) = journal();
        for rec in sample_records() {
            j.append(&rec);
        }
        // Same mount journaled again (a remount) with a fresher key, a
        // higher seq HWM, a duplicate agent key, and an updated link.
        j.append(&JournalRecord::Mount {
            location: "a.example.com".into(),
            host_id: HostId([1; 20]),
            server_key: vec![8; 33],
        });
        j.append(&JournalRecord::SeqHwm {
            dir_name: "a.example.com:xyz".into(),
            hwm: 128,
        });
        j.append(&JournalRecord::AgentKey {
            uid: 1000,
            key: vec![7; 48],
        });
        j.append(&JournalRecord::AgentLink {
            uid: 1000,
            name: "work".into(),
            target: "/sfs/b.example.com:pqr".into(),
        });
        let state = j.replay().unwrap();
        assert_eq!(state.records, 8);
        assert_eq!(state.mounts.len(), 1, "remount folds into one entry");
        assert_eq!(state.mounts[0].server_key, vec![8; 33]);
        assert_eq!(state.seq_hwm["a.example.com:xyz"], 128);
        assert_eq!(state.agent_keys[&1000].len(), 1, "duplicate key folded");
        assert_eq!(
            state.agent_links[&1000]["work"], "/sfs/b.example.com:pqr",
            "later link wins"
        );
    }

    #[test]
    fn seq_hwm_never_regresses() {
        let (_clock, j) = journal();
        j.append(&JournalRecord::SeqHwm {
            dir_name: "m".into(),
            hwm: 100,
        });
        // An out-of-order lower HWM (e.g. from interleaved writers) must
        // not pull the recovered watermark backwards.
        j.append(&JournalRecord::SeqHwm {
            dir_name: "m".into(),
            hwm: 50,
        });
        assert_eq!(j.replay().unwrap().seq_hwm["m"], 100);
    }

    #[test]
    fn corrupt_record_is_an_error_not_a_panic() {
        assert!(JournalRecord::from_xdr(&[0xff, 0xff]).is_err());
        assert!(JournalRecord::from_xdr(XdrEncoder::new().put_u32(9).bytes()).is_err());
    }

    #[test]
    fn checkpoint_round_trips_through_xdr() {
        let (_clock, j) = journal();
        for rec in sample_records() {
            j.append(&rec);
        }
        let mut state = j.replay().unwrap();
        state.records = 0; // the counter is not serialized
        let rec = JournalRecord::Checkpoint(Box::new(state));
        assert_eq!(JournalRecord::from_xdr(&rec.to_xdr()).unwrap(), rec);
    }

    #[test]
    fn compaction_preserves_folded_state() {
        let (_clock, j) = journal();
        for rec in sample_records() {
            j.append(&rec);
        }
        let before = j.replay().unwrap();
        j.compact().unwrap();
        assert_eq!(j.len(), 1, "compaction truncates to one checkpoint");
        let after = j.replay().unwrap();
        assert_eq!(after.mounts, before.mounts);
        assert_eq!(after.seq_hwm, before.seq_hwm);
        assert_eq!(after.agent_keys, before.agent_keys);
        assert_eq!(after.agent_links, before.agent_links);
        assert_eq!(after.records, 1, "counter restarts at the checkpoint");
    }

    #[test]
    fn records_after_a_checkpoint_fold_on_top_of_it() {
        let (_clock, j) = journal();
        for rec in sample_records() {
            j.append(&rec);
        }
        j.compact().unwrap();
        j.append(&JournalRecord::SeqHwm {
            dir_name: "a.example.com:xyz".into(),
            hwm: 999,
        });
        j.append(&JournalRecord::AgentLink {
            uid: 1000,
            name: "work".into(),
            target: "/sfs/after.example.com:k".into(),
        });
        let state = j.replay().unwrap();
        assert_eq!(state.mounts.len(), 1, "checkpointed mount survives");
        assert_eq!(state.seq_hwm["a.example.com:xyz"], 999);
        assert_eq!(state.agent_links[&1000]["work"], "/sfs/after.example.com:k");
        assert_eq!(state.agent_keys[&1000].len(), 1);
        assert_eq!(state.records, 3);
    }

    #[test]
    fn append_auto_compacts_past_the_threshold() {
        let (_clock, j) = journal();
        j.append(&JournalRecord::Mount {
            location: "a.example.com".into(),
            host_id: HostId([1; 20]),
            server_key: vec![9; 33],
        });
        for i in 0..(2 * AUTO_COMPACT_THRESHOLD as u32) {
            j.append(&JournalRecord::SeqHwm {
                dir_name: "a.example.com:xyz".into(),
                hwm: i,
            });
        }
        assert!(
            j.len() <= AUTO_COMPACT_THRESHOLD,
            "journal must not grow without bound (len {})",
            j.len()
        );
        let state = j.replay().unwrap();
        assert_eq!(state.mounts.len(), 1, "compaction keeps the mount");
        assert_eq!(
            state.seq_hwm["a.example.com:xyz"],
            2 * AUTO_COMPACT_THRESHOLD as u32 - 1
        );
    }
}
