//! Crash recovery and the agent socket (§3.2): the client master's
//! crash-surviving state journal — attaching it, appending to it,
//! replaying it after a restart — and the protected local socket agent
//! programs connect through.
//!
//! Owns the `journal` field. Re-establishes journaled mounts through
//! `session`'s [`SfsClient::mount`]; `session` and `rpc` call back into
//! [`SfsClient::journal_record`] and [`SfsClient::note_seq`] as mounts
//! and signed seqnos happen.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use sfs_crypto::rabin::{RabinPrivateKey, RabinPublicKey};
use sfs_proto::pathname::SelfCertifyingPath;
use sfs_sim::ipc::{LocalEndpoint, LocalHandler, LocalIdentity};
use sfs_telemetry::sync::Mutex;

use super::{
    ClientError, Mount, SfsClient, AGENT_ERR_BAD_ARGS, AGENT_ERR_UNKNOWN_CMD, AGENT_OK,
    SEQ_HWM_SLACK,
};
use crate::journal::{ClientJournal, JournalRecord};

/// What [`SfsClient::recover`] restored from the journal after a
/// crash-restart.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Raw journal records replayed (before folding).
    pub records_replayed: u64,
    /// Mount directory names successfully re-established (server key
    /// re-verified against the journaled HostID).
    pub remounted: Vec<String>,
    /// Mounts refused, with the reason. Self-certification is the
    /// recovery check: a HostID whose server no longer proves the
    /// journaled identity stays unmounted.
    pub refused: Vec<(String, String)>,
    /// How many refusals were specifically key-mismatch refusals.
    pub key_mismatch_refusals: u64,
    /// Agent private keys reinstalled from the journal.
    pub agent_keys_restored: u64,
    /// Agent dynamic links recreated from the journal.
    pub agent_links_restored: u64,
}

impl SfsClient {
    /// The client master's protected local socket (§3.2): agent programs
    /// connect through the `suidconnect` equivalent, which attests the
    /// caller's uid. Each request operates on *that* uid's agent state —
    /// "the agent program connects to the client master through this
    /// mechanism, and thus needs no special privileges; users can replace
    /// it at will."
    ///
    /// Wire format (XDR): command 0 = create link (name, target);
    /// command 1 = list this agent's `/sfs` view. Replies are XDR too:
    /// [`AGENT_OK`] followed by the result, or an error status
    /// ([`AGENT_ERR_BAD_ARGS`] / [`AGENT_ERR_UNKNOWN_CMD`]) followed by
    /// the echoed command code (`u32::MAX` when the header itself was
    /// unreadable) and a human-readable message — a structured code a
    /// replacement agent can dispatch on, not just a string.
    pub fn agent_socket(self: &Arc<Self>) -> LocalEndpoint {
        struct Handler {
            client: Arc<SfsClient>,
        }
        fn agent_error(status: u32, cmd: u32, msg: &str) -> Vec<u8> {
            let mut enc = sfs_xdr::XdrEncoder::new();
            enc.put_u32(status).put_u32(cmd).put_string(msg);
            enc.into_bytes()
        }
        impl LocalHandler for Handler {
            fn handle(&mut self, from: LocalIdentity, payload: &[u8]) -> Vec<u8> {
                let mut dec = sfs_xdr::XdrDecoder::new(payload);
                let mut enc = sfs_xdr::XdrEncoder::new();
                match dec.get_u32() {
                    Ok(0) => {
                        let (name, target) = match (dec.get_string(), dec.get_string()) {
                            (Ok(n), Ok(t)) => (n, t),
                            _ => return agent_error(AGENT_ERR_BAD_ARGS, 0, "bad link request"),
                        };
                        self.client.create_agent_link(from.uid(), &name, &target);
                        enc.put_u32(AGENT_OK);
                    }
                    Ok(1) => {
                        let names = self.client.list_sfs(from.uid());
                        enc.put_u32(AGENT_OK);
                        enc.put_u32(names.len() as u32);
                        for n in &names {
                            enc.put_string(n);
                        }
                    }
                    Ok(cmd) => {
                        return agent_error(AGENT_ERR_UNKNOWN_CMD, cmd, "unknown agent command");
                    }
                    Err(_) => {
                        return agent_error(
                            AGENT_ERR_UNKNOWN_CMD,
                            u32::MAX,
                            "unreadable command header",
                        );
                    }
                }
                enc.into_bytes()
            }
        }
        LocalEndpoint::new(Arc::new(Mutex::new(Handler {
            client: self.clone(),
        })))
    }

    /// Appends a record if a journal is attached (diskless clients
    /// journal nothing).
    pub(super) fn journal_record(&self, rec: &JournalRecord) {
        if let Some(j) = &*self.journal.lock() {
            j.append(rec);
        }
    }

    /// Journals a seqno high-water mark *before* `seq` is used, whenever
    /// `seq` crosses the durable ceiling. The [`SEQ_HWM_SLACK`] head-room
    /// amortizes the synchronous write over many authentications.
    pub(super) fn note_seq(&self, mount: &Mount, seq: u32) {
        if self.journal.lock().is_none() {
            return;
        }
        if seq >= mount.seq_hwm.load(Ordering::SeqCst) {
            let hwm = seq.saturating_add(SEQ_HWM_SLACK);
            self.journal_record(&JournalRecord::SeqHwm {
                dir_name: mount.path.dir_name(),
                hwm,
            });
            mount.seq_hwm.store(hwm, Ordering::SeqCst);
        }
    }

    /// Attaches a crash-surviving state journal. Current state — agent
    /// keys and links, established mounts, seqno watermarks — is
    /// snapshotted into it immediately (in deterministic uid/dir-name
    /// order), so attaching mid-life loses nothing; subsequent mounts,
    /// key installs, link creations, and seqno crossings append
    /// incrementally.
    pub fn attach_journal(&self, journal: ClientJournal) {
        {
            let agents = self.agents.lock();
            let mut uids: Vec<u32> = agents.keys().copied().collect();
            uids.sort_unstable();
            for uid in uids {
                let agent = agents[&uid].lock();
                for key in agent.export_keys() {
                    journal.append(&JournalRecord::AgentKey { uid, key });
                }
                let mut links: Vec<(String, String)> = agent
                    .links()
                    .map(|(n, t)| (n.to_string(), t.to_string()))
                    .collect();
                links.sort();
                for (name, target) in links {
                    journal.append(&JournalRecord::AgentLink { uid, name, target });
                }
            }
        }
        {
            let mounts = self.mounts.lock();
            let mut named: Vec<(String, &Arc<Mount>)> = mounts
                .iter()
                .map(|(path, m)| (path.dir_name(), m))
                .collect();
            named.sort_by(|a, b| a.0.cmp(&b.0));
            for (name, m) in named {
                journal.append(&JournalRecord::Mount {
                    location: m.path.location.clone(),
                    host_id: m.path.host_id,
                    server_key: m.link.lock().server_key.clone(),
                });
                let hwm = m
                    .next_seq
                    .load(Ordering::SeqCst)
                    .saturating_add(SEQ_HWM_SLACK);
                journal.append(&JournalRecord::SeqHwm {
                    dir_name: name,
                    hwm,
                });
                m.seq_hwm.store(hwm, Ordering::SeqCst);
            }
        }
        *self.journal.lock() = Some(journal);
    }

    /// Installs a private key into `uid`'s agent *and* journals it, so a
    /// restarted client restores the key without re-running SRP.
    pub fn install_agent_key(&self, uid: u32, key: RabinPrivateKey) {
        self.journal_record(&JournalRecord::AgentKey {
            uid,
            key: key.to_bytes(),
        });
        self.agent(uid).lock().add_key(key);
    }

    /// Creates a dynamic `/sfs` link in `uid`'s agent and journals it.
    pub fn create_agent_link(&self, uid: u32, name: &str, target: &str) {
        self.journal_record(&JournalRecord::AgentLink {
            uid,
            name: name.to_string(),
            target: target.to_string(),
        });
        self.agent(uid).lock().create_link(name, target);
    }

    /// Recovers client state after a crash-restart from the attached
    /// journal: restores agent keys and links first (remounts may need
    /// them), then re-establishes each journaled mount by re-running the
    /// full key negotiation against the recorded HostID. Mounts whose
    /// server no longer proves the journaled identity are refused —
    /// self-certification, not the journal, is the trust decision. Seqno
    /// counters resume at the journaled high-water mark so no signed
    /// seqno is ever reused; caches start cold by construction (nothing
    /// lease-related is journaled).
    pub fn recover(&self, uid: u32) -> Result<RecoveryReport, ClientError> {
        let tel = self.tel();
        let _span = tel.span("client", "core.client", "recover");
        let journal = self.journal.lock().clone();
        let Some(journal) = journal else {
            return Err(ClientError::Protocol("recover: no journal attached".into()));
        };
        let state = journal.replay().map_err(ClientError::Protocol)?;
        tel.count("client", "client.recovery.journal_replays", 1);
        let mut report = RecoveryReport {
            records_replayed: state.records,
            ..RecoveryReport::default()
        };
        // Agent state first: the remounts below may need the restored
        // keys to re-authenticate.
        for (agent_uid, keys) in &state.agent_keys {
            let agent = self.agent(*agent_uid);
            let mut agent = agent.lock();
            for key in keys {
                if let Ok(k) = RabinPrivateKey::from_bytes(key) {
                    agent.add_key(k);
                    report.agent_keys_restored += 1;
                }
            }
        }
        for (agent_uid, links) in &state.agent_links {
            let agent = self.agent(*agent_uid);
            let mut agent = agent.lock();
            for (name, target) in links {
                agent.create_link(name, target);
                report.agent_links_restored += 1;
            }
        }
        tel.count(
            "client",
            "client.recovery.agent_keys",
            report.agent_keys_restored,
        );
        tel.count(
            "client",
            "client.recovery.agent_links",
            report.agent_links_restored,
        );
        for rm in &state.mounts {
            let path = SelfCertifyingPath {
                location: rm.location.clone(),
                host_id: rm.host_id,
            };
            // A journal whose recorded key does not even hash to its own
            // recorded HostID is corrupt: fail closed without dialing.
            let journal_consistent = RabinPublicKey::from_bytes(&rm.server_key)
                .map(|k| path.certifies(&k))
                .unwrap_or(false);
            if !journal_consistent {
                report.key_mismatch_refusals += 1;
                report.refused.push((
                    path.dir_name(),
                    "journaled key fails self-certification".to_string(),
                ));
                continue;
            }
            match self.mount(uid, &path) {
                Ok(mount) => {
                    if let Some(&hwm) = state.seq_hwm.get(&path.dir_name()) {
                        mount.next_seq.store(hwm.max(1), Ordering::SeqCst);
                        mount.seq_hwm.store(hwm, Ordering::SeqCst);
                    }
                    report.remounted.push(path.dir_name());
                }
                Err(ClientError::KeyMismatch) => {
                    report.key_mismatch_refusals += 1;
                    report
                        .refused
                        .push((path.dir_name(), ClientError::KeyMismatch.to_string()));
                }
                Err(e @ (ClientError::Revoked | ClientError::Blocked)) => {
                    report.refused.push((path.dir_name(), e.to_string()));
                }
                Err(e) => return Err(e),
            }
        }
        tel.count(
            "client",
            "client.recovery.remounts",
            report.remounted.len() as u64,
        );
        tel.count(
            "client",
            "client.recovery.key_mismatch_refusals",
            report.key_mismatch_refusals,
        );
        Ok(report)
    }
}
