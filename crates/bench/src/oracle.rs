//! The multi-client cache-coherence oracle: 2–4 clients share one
//! location and a seeded fault plan, and every read is checked against
//! the set of values *legally observable* given the write history, the
//! server's lease duration, and piggybacked invalidations. One oracle
//! serves every topology ([`Behind`]): a single server, a relay fronting
//! replicas of one file system, or a replicated write group.
//!
//! The rules, per paper §3.3 (leases + invalidation callbacks are the
//! enhanced-caching extension):
//!
//! 1. **validity** — an observed file size must be one the write history
//!    actually produced;
//! 2. **monotonicity** — one client never observes a file shrink;
//! 3. **lease bound** — a stale value may be served only while the lease
//!    granted before the overwriting commit could still be live: a stale
//!    read at or after `t_commit(next) + lease_ns`, where `next` is the
//!    first commit above the observed size, is a failure;
//! 4. **invalidation bound** (only where delivery is guaranteed: a
//!    fault-free plan, both clients on one server) — once a client
//!    completes any round trip after a commit, the piggybacked
//!    invalidation has arrived, so a subsequent stale read from cache is
//!    a failure. Under faults a reply carrying the invalidation can be
//!    legitimately lost and the lease is the backstop.
//!
//! Rules 1–3 are `CommitLog`, which the scenario engine's op mixes
//! ([`crate::scenario::run_mix`]) score through too; rule 4 and the hash
//! check below are this harness's own.
//!
//! Versions are file *sizes*, verified by *content hash*: every write
//! appends exactly one byte (a deterministic function of file and
//! offset) at the committed size, so duplicated or re-executed writes
//! (fault-plan duplicates, post-reconnect reissues) are idempotent and
//! the version sequence stays strictly increasing. Each commit also
//! records the SHA-1 of the full expected contents, and every scored
//! read includes a wire READ whose bytes must hash-match the commit of
//! their length — a size alone can be right while the content is torn
//! or mixed across versions, and the hash catches exactly that.
//!
//! Scheduled client crash-restarts (`ccrash=`) kill a client mid-run:
//! the incarnation is dropped, a cold one is rebuilt from the journal via
//! [`SfsClient::recover`], and the oracle keeps scoring its reads —
//! recovery must come back with cold caches, so a recovered client can
//! never serve a pre-crash stale value.

use std::sync::Arc;

use sfs::client::{Mount, SfsClient, DEFAULT_PIPELINE_WINDOW};
use sfs_bignum::XorShiftSource;
use sfs_crypto::sha1::sha1;
use sfs_nfs3::proto::{FileHandle, Nfs3Reply, Nfs3Request, StableHow};
use sfs_proto::channel::SuiteId;
use sfs_sim::{FaultEvent, FaultPlan};
use sfs_vfs::Credentials;

use crate::world::{Behind, World, WorldSpec, UID};

/// Short lease so expiry is actually exercised inside a few-second run
/// (the 30s default would make every stale read trivially legal).
pub(crate) const LEASE_NS: u64 = 250_000_000;
/// Virtual time between workload operations.
pub const OP_GAP_NS: u64 = 60_000_000;
/// Version-counter files every harness creates.
pub const FILES: usize = 3;
const OPS: usize = 36;

/// The 21 seeded plans `(faults, clients)` every topology is scored
/// under: every fault kind the simulator knows, alone and mixed,
/// including simultaneous client+server crashes.
pub const BATTERY: &[(&str, usize)] = &[
    ("seed=401,drop=20", 2),
    ("seed=402,dup=25", 3),
    ("seed=403,reorder=25", 2),
    ("seed=404,corrupt=15", 2),
    ("seed=405,delay=150,delay_ns=2ms", 3),
    ("seed=406,partition=500ms+1s", 2),
    ("seed=407,crash=900ms", 3),
    ("seed=408,syncfail=200", 2),
    ("seed=409,ccrash=800ms", 2),
    // Simultaneous client and server crash at the same instant.
    ("seed=410,ccrash=700ms,crash=700ms", 2),
    ("seed=411,drop=15,dup=10,ccrash=900ms", 3),
    ("seed=412,corrupt=10,ccrash=600ms,crash=1500ms", 2),
    ("seed=413,drop=10,reorder=15,delay=80,delay_ns=1ms", 4),
    // Simultaneous again, later in the run.
    ("seed=414,crash=1s,ccrash=1s", 3),
    ("seed=415,drop=10,syncfail=150,ccrash=1200ms", 2),
    ("seed=416,dup=15,corrupt=10,crash=800ms", 2),
    ("seed=417,partition=600ms+800ms,ccrash=1600ms", 2),
    (
        "seed=418,drop=25,dup=10,reorder=10,corrupt=10,delay=60,delay_ns=1ms",
        3,
    ),
    ("seed=419,ccrash=600ms,ccrash=1500ms,drop=10", 2),
    ("seed=420,crash=700ms,ccrash=1300ms,dup=10", 3),
    (
        "seed=421,drop=15,corrupt=10,crash=1s,ccrash=1s,syncfail=100",
        2,
    ),
];

/// The byte version `offset + 1` of file `f` appends. A function of
/// (file, offset) only, so fault-plan duplicates and post-reconnect
/// reissues rewrite the same byte — idempotent — while the content still
/// varies along the file, which is what gives the hash oracle teeth.
fn version_byte(f: usize, offset: u64) -> u8 {
    b'a' + ((f as u64 + offset) % 26) as u8
}

/// Rules 1–3 over every file's commit history: the `(t_ns, size)` of
/// each commit in commit order, sizes growing by appends of any length,
/// and the size each client last observed of each file. One
/// implementation for both callers: [`Oracle`], whose appends are one
/// byte, and [`crate::scenario::run_mix`], whose appends are `io_bytes`.
pub(crate) struct CommitLog {
    lease_ns: u64,
    /// Per file, every commit's `(t_ns, size)`.
    files: Vec<Vec<(u64, u64)>>,
    /// Per client, per file: the size it last observed (0 before any).
    last_seen: Vec<Vec<u64>>,
}

impl CommitLog {
    /// `files` files without commits, observed by `clients` clients,
    /// under leases of `lease_ns`.
    pub(crate) fn new(clients: usize, files: usize, lease_ns: u64) -> Self {
        CommitLog {
            lease_ns,
            files: vec![Vec::new(); files],
            last_seen: vec![vec![0; files]; clients],
        }
    }

    /// Records that `f` reached `size` at `t_ns`.
    pub(crate) fn commit(&mut self, f: usize, t_ns: u64, size: u64) {
        self.files[f].push((t_ns, size));
    }

    /// Forgets `f`'s history and every client's observation of it: the
    /// next commit starts a new file.
    pub(crate) fn unlink(&mut self, f: usize) {
        self.files[f].clear();
        for seen in &mut self.last_seen {
            seen[f] = 0;
        }
    }

    /// Whether `f` has a commit since it was last unlinked.
    pub(crate) fn linked(&self, f: usize) -> bool {
        !self.files[f].is_empty()
    }

    /// `f`'s latest committed size.
    pub(crate) fn latest(&self, f: usize) -> u64 {
        self.files[f].last().map_or(0, |&(_, size)| size)
    }

    /// The size client `i` last observed of `f`.
    pub(crate) fn last_seen(&self, i: usize, f: usize) -> u64 {
        self.last_seen[i][f]
    }

    /// Client `i` knows `f` reached `size` without observing it (its own
    /// commit).
    pub(crate) fn saw(&mut self, i: usize, f: usize, size: u64) {
        self.last_seen[i][f] = size;
    }

    /// The largest size of `f` committed at least one lease before
    /// `t_ns` (0 if none): every lease on a smaller size was granted
    /// before the commit that outgrew it, so none is live at `t_ns`.
    /// Rule 3 is "an observation at `t_ns` is not below this".
    pub(crate) fn lease_floor(&self, f: usize, t_ns: u64) -> u64 {
        let old = self.files[f]
            .iter()
            .filter(|(t, _)| t + self.lease_ns <= t_ns);
        old.map(|&(_, size)| size).max().unwrap_or(0)
    }

    /// Rules 1–3 for client `i` observing size `s` of `f` at `t_ns`
    /// through `what`, pushing each violation onto `violations`. When a
    /// committed observation is stale, returns the index of the commit
    /// that made it so: the first commit above `s`.
    pub(crate) fn observe(
        &mut self,
        i: usize,
        f: usize,
        s: u64,
        t_ns: u64,
        what: &str,
        violations: &mut Vec<String>,
    ) -> Option<usize> {
        if self.files[f].iter().all(|&(_, size)| size != s) {
            violations.push(format!(
                "client {i} file {f}: {what} {s} was never committed (latest {})",
                self.latest(f)
            ));
            return None;
        }
        let last = std::mem::replace(&mut self.last_seen[i][f], s);
        if s < last {
            violations.push(format!(
                "client {i} file {f}: {what} went backwards {last} -> {s}"
            ));
        }
        let next = self.files[f].iter().position(|&(_, size)| size > s)?;
        if s < self.lease_floor(f, t_ns) {
            let (t_next, size_next) = self.files[f][next];
            violations.push(format!(
                "client {i} file {f}: stale {what} {s} observed {}ns after {size_next} \
                 committed, not within the {}ns lease",
                t_ns - t_next,
                self.lease_ns
            ));
        }
        Some(next)
    }
}

/// What the hash check and rule 4 keep of one [`CommitLog`] entry: the
/// SHA-1 of the file's full expected contents and each client's
/// completed-round-trip count at commit (rule 4's reference point — any
/// later completed round trip carried the invalidation).
struct Commit {
    hash: [u8; 20],
    rt_at_commit: Vec<u64>,
}

/// What an oracle harness is built from.
pub struct OracleSpec<'a> {
    /// What stands behind the path.
    pub behind: Behind,
    /// The seeded fault plan.
    pub faults: &'a str,
    /// Clients sharing the files.
    pub clients: usize,
    /// Whether rule 4 applies (no wire faults that can eat a reply).
    pub guaranteed_delivery: bool,
    /// Pipeline window applied to every client incarnation.
    pub window: usize,
    /// Cipher suite offered by every client incarnation (`None`: the
    /// default paper-baseline offer).
    pub suite: Option<SuiteId>,
}

impl<'a> OracleSpec<'a> {
    /// `clients` clients behind `behind` under `faults`, at the default
    /// window and suite, scored without rule 4.
    pub fn new(behind: Behind, faults: &'a str, clients: usize) -> Self {
        OracleSpec {
            behind,
            faults,
            clients,
            guaranteed_delivery: false,
            window: DEFAULT_PIPELINE_WINDOW,
            suite: None,
        }
    }
}

/// The harness: a [`World`] with every client mounted (and journaled),
/// the version-counter files, and the write history reads are scored
/// against.
pub struct Oracle {
    /// The world under test.
    pub world: World,
    /// Each client's current mount.
    pub mounts: Vec<Arc<Mount>>,
    /// The version-counter files' handles.
    pub(crate) fhs: Vec<FileHandle>,
    /// Expected full contents per file, maintained alongside the history.
    pub contents: Vec<Vec<u8>>,
    /// Every rule violation scored so far.
    pub violations: Vec<String>,
    plan: FaultPlan,
    log: CommitLog,
    /// Per file, index-aligned with `log`'s history.
    commits: Vec<Vec<Commit>>,
    crashes_done: usize,
    /// Entropy prefix of client incarnations (`<tag>-client-<i>-epoch-<n>`).
    tag: &'static str,
    guaranteed_delivery: bool,
    window: usize,
    suite: Option<SuiteId>,
}

/// Everything one seeded run produced, for reproducibility comparison;
/// `health` is whatever the topology's test appends.
#[derive(Debug, PartialEq, Eq)]
pub struct RunOutcome<H> {
    /// Rule violations (empty on a coherent run).
    pub violations: Vec<String>,
    /// Final virtual clock.
    pub(crate) total_ns: u64,
    /// The fault plan's injection log.
    pub events: Vec<FaultEvent>,
    /// Final size of every file.
    pub(crate) sizes: Vec<u64>,
    /// Records in each client journal.
    pub(crate) journal_records: Vec<usize>,
    /// Client crash-restarts honoured.
    pub crashes: usize,
    /// Transparent reconnects, summed over the final mounts.
    pub(crate) reconnects: u64,
    /// Topology-specific health.
    pub health: H,
}

impl Oracle {
    /// Builds the world, mounts every client, and has client 0 create
    /// the version-counter files (size 0 = version 0).
    pub fn new(spec: &OracleSpec) -> Oracle {
        let plan = FaultPlan::from_spec(spec.faults).unwrap();
        let (server_entropy, client_entropy, tag) = match spec.behind {
            Behind::Servers => ("coherence-server", "coh-client-{}-epoch-0", "coh"),
            Behind::Relay(_) => (
                "relay-coh-server-{}",
                "relay-coh-client-{}-epoch-0",
                "relay-coh",
            ),
            Behind::Replicated { .. } => (
                "failover-server-{}",
                "failover-client-{}-epoch-0",
                "failover",
            ),
        };
        let world = World::build(&WorldSpec {
            server_entropy,
            client_entropy,
            lease_ns: Some(LEASE_NS),
            behind: spec.behind,
            clients: spec.clients,
            journals: true,
            ..WorldSpec::test().faulted(Some(&plan))
        });
        let path = world.path().clone();
        let mut mounts = Vec::new();
        for client in &world.clients {
            client.set_pipeline_window(spec.window);
            if let Some(s) = spec.suite {
                client.set_suite_offer(&[s]);
            }
            mounts.push(client.mount(UID, &path).unwrap());
        }
        let mut oracle = Oracle {
            world,
            mounts,
            fhs: Vec::new(),
            contents: vec![Vec::new(); FILES],
            violations: Vec::new(),
            plan,
            log: CommitLog::new(spec.clients, FILES, LEASE_NS),
            commits: (0..FILES).map(|_| Vec::new()).collect(),
            crashes_done: 0,
            tag,
            guaranteed_delivery: spec.guaranteed_delivery,
            window: spec.window,
            suite: spec.suite,
        };
        for f in 0..FILES {
            let p = format!("{}/public/coh-{f}", path.full_path());
            let client = &oracle.world.clients[0];
            client.write_file(UID, &p, b"").unwrap();
            let (_, fh, _) = client.resolve(UID, &p).unwrap();
            oracle.fhs.push(fh);
            oracle.record(f);
        }
        oracle
    }

    /// Records `f`'s expected contents as committed now.
    fn record(&mut self, f: usize) {
        let contents = &self.contents[f];
        let t_ns = self.world.clock.now().as_nanos();
        self.log.commit(f, t_ns, contents.len() as u64);
        self.commits[f].push(Commit {
            hash: sha1(contents),
            rt_at_commit: self.mounts.iter().map(|m| m.round_trips()).collect(),
        });
    }

    /// Honours any scheduled client-crash instants the clock has crossed:
    /// the victim incarnation is dropped and a cold one recovers from the
    /// journal.
    fn honour_client_crashes(&mut self) {
        let w = &mut self.world;
        while self.crashes_done < self.plan.client_epoch(w.clock.now()) as usize {
            let victim = self.crashes_done % w.clients.len();
            self.plan.note_client_crash(w.clock.now());
            self.crashes_done += 1;
            let entropy = format!("{}-client-{victim}-epoch-{}", self.tag, self.crashes_done);
            let reborn = w.client(entropy.as_bytes());
            reborn.set_pipeline_window(self.window);
            if let Some(s) = self.suite {
                reborn.set_suite_offer(&[s]);
            }
            reborn.attach_journal(w.journals[victim].clone());
            let report = reborn.recover(UID).unwrap();
            assert_eq!(
                report.remounted,
                vec![w.path().dir_name()],
                "recovery must re-establish the journaled mount: {report:?}"
            );
            self.mounts[victim] = reborn.mount(UID, w.path()).unwrap();
            w.clients[victim] = reborn;
        }
    }

    fn client(&self, i: usize) -> &SfsClient {
        &self.world.clients[i]
    }

    /// Appends one byte to `f` through client `i` and records the commit.
    pub fn write(&mut self, i: usize, f: usize) {
        let offset = self.log.latest(f);
        let byte = version_byte(f, offset);
        let write = Nfs3Request::Write {
            fh: self.fhs[f],
            offset,
            stable: StableHow::FileSync,
            data: vec![byte],
        };
        let reply = self
            .client(i)
            .call_nfs(&self.mounts[i], UID, &write)
            .unwrap();
        assert!(
            matches!(reply, Nfs3Reply::Write { count: 1, .. }),
            "append must write exactly one byte: {reply:?}"
        );
        self.contents[f].push(byte);
        self.record(f);
    }

    /// Reads `f`'s size through client `i` (cache-aware getattr) and
    /// scores it against the oracle rules.
    pub fn read_and_check(&mut self, i: usize, f: usize) {
        let rt_before = self.mounts[i].round_trips();
        let t_read = self.world.clock.now().as_nanos();
        let attr = self
            .client(i)
            .getattr(&self.mounts[i], UID, &self.fhs[f])
            .unwrap();
        let v = &mut self.violations;
        let Some(next) = self.log.observe(i, f, attr.size, t_read, "size", v) else {
            return;
        };
        // Rule 4: with guaranteed delivery, a completed round trip after
        // the commit carried the invalidation.
        if self.guaranteed_delivery && rt_before > self.commits[f][next].rt_at_commit[i] {
            self.violations.push(format!(
                "client {i} file {f}: stale size {} served after a post-commit \
                 round trip delivered the invalidation",
                attr.size
            ));
        }
    }

    /// Reads `f`'s full contents over the wire through client `i` and
    /// scores them against the hash oracle: whatever length comes back
    /// must be a committed version, and the bytes must hash-match that
    /// commit — a right-sized reply with mixed-version or corrupted
    /// content is exactly the torn write a size-only oracle cannot see.
    pub fn wire_read_and_check(&mut self, i: usize, f: usize) {
        let t_read = self.world.clock.now().as_nanos();
        let read = Nfs3Request::Read {
            fh: self.fhs[f],
            offset: 0,
            count: 8192,
        };
        let data = match self
            .client(i)
            .call_nfs(&self.mounts[i], UID, &read)
            .unwrap()
        {
            Nfs3Reply::Read { data, .. } => data,
            other => panic!("unexpected read reply: {other:?}"),
        };
        let s = data.len() as u64;
        // Rule 1 (strengthened): the length must be a committed version
        // AND the bytes must be that version's bytes. One-byte appends
        // make commit `s` the version of size `s`.
        match self.commits[f].get(data.len()) {
            Some(c) if c.hash != sha1(&data) => self.violations.push(format!(
                "client {i} file {f}: wire read of {s} bytes does not hash-match \
                 committed version {s} — torn or mixed-version content"
            )),
            // The wire observation takes part in rules 1–3 too.
            _ => {
                let v = &mut self.violations;
                self.log.observe(i, f, s, t_read, "wire read", v);
            }
        }
    }

    /// Drives the seeded workload to completion and returns the oracle's
    /// verdict plus everything needed for reproducibility comparison;
    /// `health` reads the topology's own counters off the finished world.
    pub fn run<H>(mut self, seed: u64, health: impl FnOnce(&World) -> H) -> RunOutcome<H> {
        let mut rng = XorShiftSource::new(seed | 1);
        for _ in 0..OPS {
            self.world.clock.advance_ns(OP_GAP_NS);
            self.honour_client_crashes();
            let i = rng.below(self.world.clients.len() as u64) as usize;
            let f = rng.below(FILES as u64) as usize;
            if rng.below(10) < 3 {
                self.write(i, f);
            } else {
                self.read_and_check(i, f);
                self.wire_read_and_check(i, f);
            }
        }
        let health = health(&self.world);
        RunOutcome {
            violations: self.violations,
            total_ns: self.world.clock.now().as_nanos(),
            events: self.plan.events(),
            sizes: (0..FILES).map(|f| self.log.latest(f)).collect(),
            journal_records: self.world.journals.iter().map(|j| j.len()).collect(),
            crashes: self.crashes_done,
            reconnects: self.mounts.iter().map(|m| m.reconnects()).sum(),
            health,
        }
    }
}

/// Self-test for the content-hash rule behind `behind`: corrupt a file's
/// bytes behind the protocol's back without changing its size. The size
/// oracle is blind to this by construction; the hash oracle must flag
/// it, and the identical sequence without corruption must be coherent.
pub fn detects_torn_write(behind: Behind) {
    let script = |torn: bool| -> Vec<String> {
        let mut h = Oracle::new(&OracleSpec {
            guaranteed_delivery: true,
            ..OracleSpec::new(behind, "seed=451", 2)
        });
        h.write(0, 0);
        h.write(0, 0);
        if torn {
            // Reach into the serving file system as root and flip the
            // first byte — same size, wrong content, like a torn or
            // misdirected write on the server's disk.
            let vfs = h.world.servers[0].vfs();
            let root = Credentials::root();
            let (ino, _) = vfs.lookup_path(&root, "/public/coh-0").unwrap();
            vfs.write(&root, ino, 0, b"Z", true).unwrap();
        }
        h.read_and_check(1, 0);
        h.wire_read_and_check(1, 0);
        h.violations
    };
    let violations = script(true);
    assert!(
        violations.iter().any(|v| v.contains("hash-match")),
        "the oracle failed to flag the torn write: {violations:#?}"
    );
    let violations = script(false);
    assert!(violations.is_empty(), "{violations:#?}");
}

/// Self-test for rule 4 behind `behind`: a client that drops
/// invalidation callbacks on the floor is exactly the stale-read bug the
/// oracle exists to catch. Clean plan (delivery guaranteed); the same
/// scripted sequence runs with and without the bug and the oracle must
/// flag exactly the buggy run. Clients 0 and 2 of three: behind a
/// two-replica relay, round-robin puts those on the same server, where
/// callbacks are delivered.
pub fn detects_injected_stale_read(behind: Behind) {
    let script = |buggy: bool| -> (u64, Vec<String>) {
        let mut h = Oracle::new(&OracleSpec {
            guaranteed_delivery: true,
            ..OracleSpec::new(behind, "seed=450", 3)
        });
        let (a, b) = (0, 2);
        // B caches file 0 at version 0.
        h.read_and_check(b, 0);
        // A appends: version 1 commits; B's invalidation is queued.
        h.write(a, 0);
        let rt_at_commit = h.mounts[b].round_trips();
        // The (conditional) bug: B ignores the piggybacked invalidation
        // its next round trip (a cache miss on another file) delivers.
        h.world.clients[b].set_ignore_invalidations(buggy);
        h.read_and_check(b, 1);
        assert!(
            h.mounts[b].round_trips() > rt_at_commit,
            "the probe RPC must complete a post-commit round trip"
        );
        // B re-reads file 0; rule 4 scores the observation.
        h.read_and_check(b, 0);
        (h.log.last_seen(b, 0), h.violations)
    };
    let (stale_size, violations) = script(true);
    assert_eq!(
        stale_size, 0,
        "the injected bug must actually cause a stale read"
    );
    assert!(
        violations.iter().any(|v| v.contains("post-commit")),
        "the oracle failed to flag the injected stale read: {violations:#?}"
    );
    // Control: the invalidation lands, the cache entry is dropped, the
    // read refetches.
    let (fresh_size, violations) = script(false);
    assert_eq!(fresh_size, 1, "with callbacks applied the read is fresh");
    assert!(violations.is_empty(), "{violations:#?}");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One file grown by multi-byte appends: commits of 100, 200 and 300
    /// bytes at 0, 1 000 and 2 000 ns, under a 500 ns lease.
    fn log() -> CommitLog {
        let mut log = CommitLog::new(2, 1, 500);
        for (t, size) in [(0, 100), (1_000, 200), (2_000, 300)] {
            log.commit(0, t, size);
        }
        log
    }

    #[test]
    fn lease_floor_tracks_history() {
        let log = log();
        // Everything committed at least 500 ns ago counts.
        assert_eq!(log.lease_floor(0, 2_400), 200);
        assert_eq!(log.lease_floor(0, 2_600), 300);
        assert_eq!(log.lease_floor(0, 100), 0);
    }

    #[test]
    fn the_lease_bound_is_the_first_commit_above_the_observation_plus_the_lease() {
        // 200 went stale when 300 committed at 2 000 ns: legal before
        // 2 500 ns, a violation from 2 500 on. Indexing the history by
        // size + 1, as one-byte appends allow, finds no commit at all.
        for (t, flagged) in [(2_499, false), (2_500, true)] {
            let (mut log, mut v) = (log(), Vec::new());
            assert_eq!(log.observe(0, 0, 200, t, "size", &mut v), Some(2));
            assert_eq!(v.len(), flagged as usize, "at {t}: {v:?}");
            assert_eq!(log.lease_floor(0, t) > 200, flagged);
        }
        let (mut log, mut v) = (log(), Vec::new());
        assert_eq!(log.observe(0, 0, 100, 1_499, "size", &mut v), Some(1));
        assert_eq!(log.observe(1, 0, 300, 9_999, "size", &mut v), None);
        assert!(v.is_empty(), "{v:?}");
        assert_eq!(log.observe(0, 0, 100, 1_500, "size", &mut v), Some(1));
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("not within the 500ns lease"), "{v:?}");
    }

    #[test]
    fn rules_one_and_two_name_what_broke() {
        let (mut log, mut v) = (log(), Vec::new());
        assert_eq!(log.observe(0, 0, 250, 0, "size", &mut v), None);
        assert!(v[0].contains("size 250 was never committed (latest 300)"));
        log.observe(0, 0, 300, 2_000, "size", &mut v);
        log.observe(0, 0, 200, 2_000, "size", &mut v);
        assert!(v[1].contains("client 0 file 0: size went backwards 300 -> 200"));
        assert_eq!(v.len(), 2, "{v:?}");
        // A client's own commit counts as seen; an unlink forgets it.
        log.saw(1, 0, 300);
        assert_eq!(log.last_seen(1, 0), 300);
        log.unlink(0);
        assert_eq!((log.last_seen(1, 0), log.latest(0)), (0, 0));
        assert!(!log.linked(0));
    }
}
