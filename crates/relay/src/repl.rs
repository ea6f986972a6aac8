//! The replicated write path: primary/backup log shipping behind the
//! relay, crash-consistent failover, and cold-start admission control.
//!
//! A read-write HostID names a key (§2.2); [`ReplGroup`] makes it name
//! a *history*. Each member holds its own file system and its own
//! CRC-framed op log ([`sfs_sim::JournalDisk`]). The primary executes
//! every mutating NFS call and — still inside the dispatch, before the
//! reply is encoded — appends a [`ReplRecord::Op`] to its log and
//! ships the identical frame to every live backup, blocking (in
//! virtual time, via [`sfs_sim::ReplTransport`]) until the configured
//! quorum holds it durably. The client's acknowledgement therefore
//! *implies* quorum durability: a primary crash can lose in-flight,
//! unacked operations (which the client reissues idempotently, exactly
//! as it already does for a single crashed server), but never an acked
//! one.
//!
//! Backups append eagerly and apply lazily: every `checkpoint_every`
//! commits, the group applies the durable prefix to each backup's file
//! system and truncates all logs down to a [`ReplRecord::Checkpoint`]
//! mark — coordinated truncation, so any member's log plus its applied
//! state always reconstructs the committed history.
//!
//! **Failover** rides boot epochs. Routing observes the primary's
//! epoch on every dial; an advance means the machine crashed. The
//! most-caught-up eligible backup (highest durable LSN; deterministic
//! index tie-break) replays its log suffix to a consistent state,
//! writes a [`ReplRecord::Promote`] frame, and only then admits
//! traffic. The restarted ex-primary is quarantined
//! (`needs_full_sync`) until an operator resyncs it — it may have
//! state the group cannot vouch for. Clients never see any of this
//! beyond a reconnect: the new primary holds the same private key, so
//! self-certification, file handles, and the rekey all just work.
//!
//! **Admission control** guards the correlated-cold-start case: when a
//! whole replica set restarts, every client redials at once and each
//! dial costs the server a private-key operation. An optional
//! [`AdmissionControl`] token bucket (over virtual time) makes routing
//! answer `Busy` instead, which the client treats as a retryable dial
//! failure with its normal backoff — trading a short queueing delay
//! for not burying the survivors (measured in `BENCH_failover.json`).

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use sfs::client::{RoutedRo, RoutedRw, Router, RwRoute};
use sfs::server::{Replicator, SfsServer};
use sfs_nfs3::{Nfs3Request, Nfs3RequestRef, Proc};
use sfs_proto::pathname::SelfCertifyingPath;
use sfs_proto::repl::{ReplOp, ReplRecord};
use sfs_sim::{JournalDisk, ReplLink, ReplTransport, SimClock, SimTime};
use sfs_telemetry::sync::Mutex;
use sfs_telemetry::Telemetry;
use sfs_vfs::Credentials;

/// Token-bucket admission control over virtual time.
///
/// `capacity` dials may burst instantly; thereafter dials drain at
/// `refill_per_sec`. Integer arithmetic throughout (tokens are tracked
/// in nano-tokens), and the refill watermark is monotone — callers on
/// skewed per-client clocks cannot mint tokens by presenting an older
/// `now`.
pub struct AdmissionControl {
    capacity: u64,
    refill_per_sec: u64,
    state: Mutex<AdmState>,
    admitted: AtomicU64,
    throttled: AtomicU64,
}

struct AdmState {
    /// Tokens × 10⁹, so refill needs no floating point.
    tokens_nano: u128,
    last_ns: u64,
}

const NANO: u128 = 1_000_000_000;

impl AdmissionControl {
    pub fn new(capacity: u64, refill_per_sec: u64) -> Self {
        AdmissionControl {
            capacity,
            refill_per_sec,
            state: Mutex::new(AdmState {
                tokens_nano: capacity as u128 * NANO,
                last_ns: 0,
            }),
            admitted: AtomicU64::new(0),
            throttled: AtomicU64::new(0),
        }
    }

    /// One dial asks to pass at virtual instant `now`. Deterministic
    /// given the call sequence.
    pub fn admit(&self, now: SimTime) -> bool {
        let now_ns = now.as_nanos();
        let mut st = self.state.lock();
        if now_ns > st.last_ns {
            let elapsed = (now_ns - st.last_ns) as u128;
            st.tokens_nano = (st.tokens_nano + elapsed * self.refill_per_sec as u128)
                .min(self.capacity as u128 * NANO);
            st.last_ns = now_ns;
        }
        if st.tokens_nano >= NANO {
            st.tokens_nano -= NANO;
            self.admitted.fetch_add(1, Ordering::SeqCst);
            true
        } else {
            self.throttled.fetch_add(1, Ordering::SeqCst);
            false
        }
    }

    /// (admitted, throttled) so far.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.admitted.load(Ordering::SeqCst),
            self.throttled.load(Ordering::SeqCst),
        )
    }
}

/// One member of a replicated write group.
struct ReplMember {
    server: Arc<SfsServer>,
    log: JournalDisk,
    /// Highest LSN durably appended to this member's log.
    durable_lsn: AtomicU64,
    /// Highest LSN applied to this member's file system.
    applied_lsn: AtomicU64,
    /// Boot epoch routing last observed.
    last_epoch: AtomicU64,
    /// Administratively out of rotation (stops receiving shipped frames).
    down: AtomicBool,
    /// Diverged beyond what log shipping can repair: missed truncated
    /// frames, holds unvouched-for state (a deposed primary), or has a
    /// corrupt log. Excluded from quorum, promotion, and routing until
    /// an operator rebuilds it.
    needs_full_sync: AtomicBool,
}

/// Per-member view for assertions and operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemberStats {
    pub durable_lsn: u64,
    pub applied_lsn: u64,
    pub(crate) down: bool,
    pub needs_full_sync: bool,
}

/// A health summary of the replicated group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplHealth {
    pub primary: usize,
    pub commit_lsn: u64,
    pub eligible_backups: usize,
    pub needs_full_sync: usize,
    pub promotions: u64,
    pub(crate) reboots_observed: u64,
}

/// A primary/backup replicated write path for one `Location:HostID`.
///
/// Registered into an [`sfs::client::SfsNetwork`] as a relay; routes
/// every read-write dial to the current primary, promoting on observed
/// primary death. Installed as each member server's [`Replicator`], so
/// the primary's dispatch ships its ops through [`Self::replicate`].
pub struct ReplGroup {
    path: SelfCertifyingPath,
    clock: SimClock,
    members: Mutex<Vec<Arc<ReplMember>>>,
    transport: Mutex<ReplTransport>,
    primary: AtomicUsize,
    /// Total durable copies (including the primary's) a commit requires.
    quorum: usize,
    checkpoint_every: AtomicU64,
    next_lsn: AtomicU64,
    commit_lsn: AtomicU64,
    last_checkpoint: AtomicU64,
    admission: Mutex<Option<Arc<AdmissionControl>>>,
    promotions: AtomicU64,
    reboots: AtomicU64,
    quorum_degraded: AtomicU64,
    full_syncs_needed: AtomicU64,
    tel: Mutex<Telemetry>,
}

impl ReplGroup {
    /// An empty group fronting `path`. `quorum` counts durable copies
    /// including the primary's own log (so `quorum = 2` means "one
    /// backup must hold it before the client sees the ack").
    pub fn new(path: SelfCertifyingPath, clock: SimClock, quorum: usize) -> Arc<Self> {
        assert!(quorum >= 1, "a commit needs at least the primary's copy");
        Arc::new(ReplGroup {
            path,
            transport: Mutex::new(ReplTransport::new(clock.clone())),
            clock,
            members: Mutex::new(Vec::new()),
            primary: AtomicUsize::new(0),
            quorum,
            checkpoint_every: AtomicU64::new(8),
            next_lsn: AtomicU64::new(0),
            commit_lsn: AtomicU64::new(0),
            last_checkpoint: AtomicU64::new(0),
            admission: Mutex::new(None),
            promotions: AtomicU64::new(0),
            reboots: AtomicU64::new(0),
            quorum_degraded: AtomicU64::new(0),
            full_syncs_needed: AtomicU64::new(0),
            tel: Mutex::new(Telemetry::disabled()),
        })
    }

    /// Attaches a tracing sink (`server.repl.*` gauges/counters,
    /// `relay.admission.*` and `relay.route.*` counters).
    pub fn set_telemetry(&self, tel: &Telemetry) {
        *self.tel.lock() = tel.clone().with_clock(self.clock.clone());
    }

    /// Adds a member over a LAN link. The first member added is the
    /// initial primary. `log` is the member's own durable op log; its
    /// disk should share the group's clock so appends charge time.
    pub fn add_member(self: &Arc<Self>, server: Arc<SfsServer>, log: JournalDisk) -> usize {
        self.add_member_linked(server, log, ReplLink::lan())
    }

    /// [`Self::add_member`] with an explicit primary→backup link.
    pub(crate) fn add_member_linked(
        self: &Arc<Self>,
        server: Arc<SfsServer>,
        log: JournalDisk,
        link: ReplLink,
    ) -> usize {
        assert_eq!(
            server.path().dir_name(),
            self.path.dir_name(),
            "member must serve the group's Location:HostID"
        );
        server.set_replicator(Some(self.clone()));
        let mut members = self.members.lock();
        self.transport.lock().add_link(link);
        members.push(Arc::new(ReplMember {
            last_epoch: AtomicU64::new(server.current_epoch()),
            server,
            log,
            durable_lsn: AtomicU64::new(0),
            applied_lsn: AtomicU64::new(0),
            down: AtomicBool::new(false),
            needs_full_sync: AtomicBool::new(false),
        }));
        members.len() - 1
    }

    /// How often (in committed ops) the group applies-and-truncates.
    pub fn set_checkpoint_every(&self, every: u64) {
        self.checkpoint_every.store(every.max(1), Ordering::SeqCst);
    }

    /// Installs (or replaces) cold-start admission control on the
    /// routing path.
    pub fn set_admission(&self, ac: Arc<AdmissionControl>) {
        *self.admission.lock() = Some(ac);
    }

    /// Removes admission control.
    pub fn clear_admission(&self) {
        *self.admission.lock() = None;
    }

    pub(crate) fn member_count(&self) -> usize {
        self.members.lock().len()
    }

    /// The index currently serving writes.
    pub fn primary_index(&self) -> usize {
        self.primary.load(Ordering::SeqCst)
    }

    /// Highest client-acked LSN.
    pub fn commit_lsn(&self) -> u64 {
        self.commit_lsn.load(Ordering::SeqCst)
    }

    /// Promotions performed so far.
    pub fn promotions(&self) -> u64 {
        self.promotions.load(Ordering::SeqCst)
    }

    /// Commits acked below the configured quorum (insufficient live
    /// backups; the group preferred availability and said so).
    pub fn quorum_degraded(&self) -> u64 {
        self.quorum_degraded.load(Ordering::SeqCst)
    }

    /// Members that have ever been quarantined pending a full resync.
    pub fn full_syncs_needed(&self) -> u64 {
        self.full_syncs_needed.load(Ordering::SeqCst)
    }

    /// Member `idx`'s server (tests crash it, publish on it, …).
    pub fn member_server(&self, idx: usize) -> Arc<SfsServer> {
        self.members.lock()[idx].server.clone()
    }

    /// Member `idx`'s op log.
    pub fn member_log(&self, idx: usize) -> JournalDisk {
        self.members.lock()[idx].log.clone()
    }

    pub fn member_stats(&self, idx: usize) -> MemberStats {
        let members = self.members.lock();
        let m = &members[idx];
        MemberStats {
            durable_lsn: m.durable_lsn.load(Ordering::SeqCst),
            applied_lsn: m.applied_lsn.load(Ordering::SeqCst),
            down: m.down.load(Ordering::SeqCst),
            needs_full_sync: m.needs_full_sync.load(Ordering::SeqCst),
        }
    }

    /// Takes member `idx` out of rotation (stops receiving frames).
    pub fn mark_down(&self, idx: usize) {
        self.members.lock()[idx].down.store(true, Ordering::SeqCst);
    }

    /// Returns member `idx` to rotation and tries to catch its log up
    /// from the primary's. Returns `false` — and quarantines the member
    /// — when the frames it missed have already been truncated (only a
    /// full state transfer, out of scope for log shipping, can repair
    /// that).
    pub fn mark_up(&self, idx: usize) -> bool {
        let members = self.members.lock();
        members[idx].down.store(false, Ordering::SeqCst);
        self.catch_up_locked(&members, idx)
    }

    fn catch_up_locked(&self, members: &[Arc<ReplMember>], idx: usize) -> bool {
        let tel = self.tel.lock().clone();
        let m = &members[idx];
        if m.needs_full_sync.load(Ordering::SeqCst) {
            return false;
        }
        let durable = m.durable_lsn.load(Ordering::SeqCst);
        let floor = self.last_checkpoint.load(Ordering::SeqCst);
        if durable < floor {
            // The ops it missed are gone from every log.
            m.needs_full_sync.store(true, Ordering::SeqCst);
            self.full_syncs_needed.fetch_add(1, Ordering::SeqCst);
            tel.count("server", "repl.full_sync_needed", 1);
            return false;
        }
        let primary = &members[self.primary.load(Ordering::SeqCst)];
        let mut caught = 0u64;
        for bytes in primary.log.records() {
            if let Ok(ReplRecord::Op(op)) = ReplRecord::from_xdr(&bytes) {
                if op.lsn > m.durable_lsn.load(Ordering::SeqCst) {
                    m.log.append(&bytes);
                    m.durable_lsn.store(op.lsn, Ordering::SeqCst);
                    caught += 1;
                }
            }
        }
        if caught > 0 {
            tel.count("server", "repl.catchup_frames", caught);
        }
        true
    }

    /// Probes the group: observes the primary's boot epoch (promoting if
    /// it died), publishes lag gauges, and summarises member state.
    pub fn health_check(&self) -> ReplHealth {
        let members = self.members.lock();
        self.maybe_promote_locked(&members);
        let tel = self.tel.lock().clone();
        let commit = self.commit_lsn.load(Ordering::SeqCst);
        let primary = self.primary.load(Ordering::SeqCst);
        let mut eligible = 0;
        let mut nfs = 0;
        for (i, m) in members.iter().enumerate() {
            let durable = m.durable_lsn.load(Ordering::SeqCst);
            tel.gauge_set(
                &format!("server/repl{i}"),
                "repl.lag",
                commit.saturating_sub(durable),
            );
            if m.needs_full_sync.load(Ordering::SeqCst) {
                nfs += 1;
            } else if i != primary && !m.down.load(Ordering::SeqCst) {
                eligible += 1;
            }
        }
        tel.gauge_set("server", "repl.commit_lsn", commit);
        tel.gauge_set("server", "repl.primary", primary as u64);
        ReplHealth {
            primary,
            commit_lsn: commit,
            eligible_backups: eligible,
            needs_full_sync: nfs,
            promotions: self.promotions.load(Ordering::SeqCst),
            reboots_observed: self.reboots.load(Ordering::SeqCst),
        }
    }

    /// Applies the committed prefix through `lsn` to every in-rotation
    /// member and truncates all logs down to a checkpoint mark.
    fn checkpoint_locked(&self, members: &[Arc<ReplMember>], lsn: u64) {
        let tel = self.tel.lock().clone();
        let primary = self.primary.load(Ordering::SeqCst);
        for (i, m) in members.iter().enumerate() {
            if m.down.load(Ordering::SeqCst) || m.needs_full_sync.load(Ordering::SeqCst) {
                continue;
            }
            if i != primary {
                self.apply_member_locked(m, lsn);
            }
            // Truncate: keep the checkpoint mark plus any frames beyond it.
            let keep: Vec<Vec<u8>> = std::iter::once(ReplRecord::Checkpoint { lsn }.to_xdr())
                .chain(m.log.records().into_iter().filter(|bytes| {
                    matches!(
                        ReplRecord::from_xdr(bytes),
                        Ok(ReplRecord::Op(ReplOp { lsn: l, .. })) if l > lsn
                    )
                }))
                .collect();
            m.log.replace(&keep);
            m.applied_lsn.fetch_max(lsn, Ordering::SeqCst);
        }
        self.last_checkpoint.store(lsn, Ordering::SeqCst);
        tel.count("server", "repl.checkpoints", 1);
        tel.gauge_set("server", "repl.checkpoint_lsn", lsn);
    }

    /// Replays member `m`'s durable log into its file system, up to and
    /// including `to_lsn` (`u64::MAX` = everything durable). Reads the
    /// log back through the CRC-checked path, charging disk time.
    fn apply_member_locked(&self, m: &ReplMember, to_lsn: u64) {
        let tel = self.tel.lock().clone();
        let outcome = match m.log.replay_checked() {
            Ok(o) => o,
            Err(_) => {
                // Interior log corruption: this member can no longer
                // prove its history; quarantine it.
                m.needs_full_sync.store(true, Ordering::SeqCst);
                self.full_syncs_needed.fetch_add(1, Ordering::SeqCst);
                tel.count("server", "repl.log_corrupt", 1);
                return;
            }
        };
        let mut applied = m.applied_lsn.load(Ordering::SeqCst);
        let mut max_intact_lsn = 0u64;
        for bytes in outcome.records {
            let Ok(ReplRecord::Op(op)) = ReplRecord::from_xdr(&bytes) else {
                continue; // checkpoint/promote marks carry no state
            };
            max_intact_lsn = max_intact_lsn.max(op.lsn);
            if op.lsn <= applied || op.lsn > to_lsn {
                continue;
            }
            let creds = Credentials {
                uid: op.uid,
                gids: op.gids.clone(),
            };
            if let Some(proc) = Proc::from_u32(op.proc) {
                if let Ok(req) = Nfs3Request::decode_args(proc, &op.args) {
                    m.server.apply_logged(&creds, &req);
                }
            }
            applied = op.lsn;
        }
        m.applied_lsn.store(applied, Ordering::SeqCst);
        // A torn tail can only be frames beyond the commit point (a
        // quorum-acked frame was durably appended by construction);
        // truncating it is safe and already done by replay_checked —
        // this member's durable horizon shrinks to its last intact frame.
        if outcome.torn_truncated > 0 {
            m.durable_lsn.store(max_intact_lsn, Ordering::SeqCst);
        }
    }

    /// Observes the primary's boot epoch; on an advance, quarantines the
    /// deposed primary and promotes the most-caught-up eligible backup,
    /// replaying its log before it takes traffic.
    fn maybe_promote_locked(&self, members: &[Arc<ReplMember>]) {
        if members.is_empty() {
            return;
        }
        let tel = self.tel.lock().clone();
        let p = self.primary.load(Ordering::SeqCst);
        let dead = &members[p];
        let epoch = dead.server.current_epoch();
        let last = dead.last_epoch.swap(epoch, Ordering::SeqCst);
        if epoch == last {
            return;
        }
        self.reboots.fetch_add(epoch - last, Ordering::SeqCst);
        tel.count("relay", "repl.primary_crashes", 1);
        // The deposed primary may hold executed-but-never-acked state the
        // group cannot vouch for; quarantine until fully resynced.
        dead.needs_full_sync.store(true, Ordering::SeqCst);
        self.full_syncs_needed.fetch_add(1, Ordering::SeqCst);

        // Most-caught-up eligible backup; lowest index breaks ties so
        // promotion is deterministic.
        let mut candidate: Option<(usize, u64)> = None;
        for (i, m) in members.iter().enumerate() {
            if i == p || m.down.load(Ordering::SeqCst) || m.needs_full_sync.load(Ordering::SeqCst) {
                continue;
            }
            let durable = m.durable_lsn.load(Ordering::SeqCst);
            if candidate.map(|(_, best)| durable > best).unwrap_or(true) {
                candidate = Some((i, durable));
            }
        }
        let Some((c, _)) = candidate else {
            // Nobody to promote: the restarted ex-primary resumes. Its
            // durable store survived the crash (that is what restart
            // means here), so the committed history is intact.
            dead.needs_full_sync.store(false, Ordering::SeqCst);
            tel.count("relay", "repl.primary_resumed", 1);
            return;
        };
        let new = &members[c];
        // Crash-consistent promotion: replay the durable suffix into the
        // backup's file system *before* it admits traffic.
        self.apply_member_locked(new, u64::MAX);
        if new.needs_full_sync.load(Ordering::SeqCst) {
            // Its log turned out to be corrupt; leave the group headless
            // until the next routing attempt finds another candidate (or
            // resumes the restarted primary).
            return;
        }
        let new_epoch = new.server.current_epoch();
        new.log.append(
            &ReplRecord::Promote {
                epoch: new_epoch,
                next_lsn: self.next_lsn.load(Ordering::SeqCst) + 1,
            }
            .to_xdr(),
        );
        new.last_epoch.store(new_epoch, Ordering::SeqCst);
        self.primary.store(c, Ordering::SeqCst);
        self.promotions.fetch_add(1, Ordering::SeqCst);
        tel.count("relay", "repl.promotions", 1);
        tel.gauge_set("server", "repl.primary", c as u64);
    }
}

impl Replicator for ReplGroup {
    /// The acknowledged-commit barrier: append to the primary's log,
    /// ship the identical frame to every live backup, and advance the
    /// clock to the quorum ack before the caller may encode its reply.
    fn replicate(&self, creds: &Credentials, req: &Nfs3RequestRef<'_>) {
        let tel = self.tel.lock().clone();
        let members = self.members.lock();
        let p = self.primary.load(Ordering::SeqCst);
        let lsn = self.next_lsn.fetch_add(1, Ordering::SeqCst) + 1;
        let frame = ReplRecord::Op(ReplOp {
            lsn,
            uid: creds.uid,
            gids: creds.gids.clone(),
            proc: req.proc() as u32,
            args: req.encode_args(),
        })
        .to_xdr();
        let primary = &members[p];
        primary.log.append(&frame);
        primary.durable_lsn.store(lsn, Ordering::SeqCst);
        primary.applied_lsn.store(lsn, Ordering::SeqCst);

        let mut acked: Vec<usize> = Vec::new();
        for (i, m) in members.iter().enumerate() {
            if i == p || m.down.load(Ordering::SeqCst) || m.needs_full_sync.load(Ordering::SeqCst) {
                continue;
            }
            m.log.append(&frame);
            m.durable_lsn.store(lsn, Ordering::SeqCst);
            acked.push(i);
        }
        // Degraded mode: with fewer live backups than the quorum wants,
        // commit on what exists rather than blocking the realm — but
        // say so, loudly.
        let needed = self.quorum.saturating_sub(1);
        if acked.len() < needed {
            self.quorum_degraded.fetch_add(1, Ordering::SeqCst);
            tel.count("server", "repl.quorum_degraded", 1);
        }
        let wait = needed.min(acked.len());
        self.transport.lock().ship(frame.len(), &acked, wait);
        self.commit_lsn.store(lsn, Ordering::SeqCst);
        tel.count("server", "repl.quorum_acks", 1);
        tel.count("server", "repl.frames_shipped", acked.len() as u64);
        tel.gauge_set("server", "repl.commit_lsn", lsn);

        if lsn - self.last_checkpoint.load(Ordering::SeqCst)
            >= self.checkpoint_every.load(Ordering::SeqCst)
        {
            self.checkpoint_locked(&members, lsn);
        }
    }
}

impl Router for ReplGroup {
    fn route_rw(&self) -> Option<RoutedRw> {
        match self.route_rw_metered() {
            RwRoute::Routed(r) => Some(r),
            _ => None,
        }
    }

    fn route_rw_metered(&self) -> RwRoute {
        let tel = self.tel.lock().clone();
        let members = self.members.lock();
        if members.is_empty() {
            return RwRoute::Unavailable;
        }
        // Every dial doubles as a health probe of the primary.
        self.maybe_promote_locked(&members);
        if let Some(ac) = self.admission.lock().clone() {
            if !ac.admit(self.clock.now()) {
                tel.count("relay", "admission.throttled", 1);
                return RwRoute::Busy;
            }
            tel.count("relay", "admission.admitted", 1);
        }
        let m = &members[self.primary.load(Ordering::SeqCst)];
        if m.down.load(Ordering::SeqCst) || m.needs_full_sync.load(Ordering::SeqCst) {
            tel.count("relay", "route.rw_unroutable", 1);
            return RwRoute::Unavailable;
        }
        tel.count("relay", "route.rw", 1);
        RwRoute::Routed(RoutedRw {
            conn: m.server.accept(),
            load: Some(m.server.load()),
        })
    }

    fn route_ro(&self) -> Option<RoutedRo> {
        // Members speak the read-only dialect themselves when they have
        // published; round-robin would fight the rolling-republish
        // monotonicity story, so reads ride the primary like writes.
        let routed = self.route_rw()?;
        Some(RoutedRo {
            conn: Box::new(routed.conn),
            load: routed.load,
        })
    }
}

impl std::fmt::Debug for ReplGroup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplGroup")
            .field("path", &self.path.dir_name())
            .field("members", &self.member_count())
            .field("primary", &self.primary_index())
            .field("commit_lsn", &self.commit_lsn())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfs_sim::SimClock;

    #[test]
    fn admission_bursts_capacity_then_throttles() {
        let clock = SimClock::new();
        let ac = AdmissionControl::new(3, 10); // 3 burst, 1 token / 100 ms
        for _ in 0..3 {
            assert!(ac.admit(clock.now()));
        }
        assert!(!ac.admit(clock.now()), "bucket exhausted");
        clock.advance_ns(50_000_000); // 50 ms: half a token
        assert!(!ac.admit(clock.now()));
        clock.advance_ns(60_000_000); // 110 ms total: one token
        assert!(ac.admit(clock.now()));
        assert!(!ac.admit(clock.now()));
        assert_eq!(ac.stats(), (4, 3));
    }

    #[test]
    fn admission_refill_caps_at_capacity_and_ignores_clock_skew() {
        let clock = SimClock::new();
        let ac = AdmissionControl::new(2, 1000);
        clock.advance_ns(10_000_000_000); // ages past any refill horizon
        let now = clock.now();
        assert!(ac.admit(now));
        assert!(ac.admit(now));
        assert!(!ac.admit(now), "burst capped at capacity");
        // A skewed caller presenting an older instant mints nothing.
        assert!(!ac.admit(SimTime::from_millis(1)));
    }

    #[test]
    fn admission_is_deterministic() {
        let run = || {
            let clock = SimClock::new();
            let ac = AdmissionControl::new(4, 40);
            let mut out = Vec::new();
            for i in 0..40u64 {
                clock.advance_ns(i * 7_000_000);
                out.push(ac.admit(clock.now()));
            }
            (out, ac.stats())
        };
        assert_eq!(run(), run());
    }
}
