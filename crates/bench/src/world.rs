//! The one world every bench binary and integration test runs on.
//!
//! §4.1 measures everything on one testbed; so does this repo.
//! [`World::build`] assembles clock(s) → disk → [`Vfs`] tree →
//! [`AuthServer`] → [`SfsServer`] → [`SfsNetwork`] → clients from a
//! [`WorldSpec`]. A spec field exists only where two callers need
//! different values; everything else (fsid, uid, network parameters,
//! journal geometry) is a constant here. Keys come from the [`keys`]
//! memo, so a process builds any number of worlds for one prime search
//! per distinct key.

use std::sync::Arc;

use sfs::authserver::{AuthServer, UserRecord};
use sfs::client::{SfsClient, SfsNetwork};
use sfs::journal::ClientJournal;
use sfs::server::{ServerConfig, SfsServer};
use sfs_crypto::rabin::RabinPrivateKey;
use sfs_crypto::SfsPrg;
use sfs_proto::pathname::SelfCertifyingPath;
use sfs_relay::{ReplGroup, ReplicaGroup};
use sfs_sim::{
    CpuCosts, DiskParams, FaultPlan, JournalDisk, NetParams, SimClock, SimDisk, Transport,
};
use sfs_telemetry::sync::Mutex;
use sfs_telemetry::Telemetry;
use sfs_vfs::{Credentials, SetAttr, Vfs};

use crate::keys;

/// The one user with an account on every world's servers, whose key the
/// world's clients hold.
pub(crate) const USER: &str = "alice";
/// `USER`'s uid.
pub const UID: u32 = 1000;
const GID: u32 = 100;

/// Disk parameters for the benchmarks: the IBM 18ES with FFS-style
/// cylinder-group clustering of metadata (an effective ~4.5 ms positioning
/// cost for the small synchronous metadata writes that dominate the LFS
/// small-file benchmark).
pub(crate) fn bench_disk_params() -> DiskParams {
    DiskParams {
        seek_ns: 4_500_000,
        bandwidth_bps: 13_000_000,
        block_size: 8192,
        write_path_ns_per_byte: 36,
    }
}

/// Seeds of the memoised keys a world is built from.
#[derive(Debug, Clone, Copy)]
pub struct KeySeeds {
    /// 768-bit server keys, one per location.
    pub servers: &'static [u64],
    /// The user's 512-bit key.
    pub user: u64,
    /// The authservers' 128-bit SRP group.
    pub srp: u64,
    /// A precomputed 768-bit client ephemeral key; `None` lets each
    /// client generate its own from its entropy, as `sfscd` does.
    pub(crate) ephemeral: Option<u64>,
}

impl KeySeeds {
    /// The keys of the root package's key-management realm: up to three
    /// servers.
    pub const REALM: KeySeeds = KeySeeds {
        servers: &[0xFEED_0000, 0xFEED_0800, 0xFEED_1000],
        user: 0xA11CE,
        srp: 0x9109,
        ephemeral: KeySeeds::TEST.ephemeral,
    };

    /// The keys of the core and relay integration tests.
    pub const TEST: KeySeeds = KeySeeds {
        servers: &[0xA5A5],
        user: 0xB6B6,
        srp: 0xC7C7,
        ephemeral: Some(0xE9E9),
    };
}

/// The exported tree each server starts with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tree {
    /// A world-writable `/bench` owned by the user: the §4 workloads.
    Bench,
    /// The user's private `/home/alice`, a world-writable `/public`, and
    /// a world-readable `/public/motd` reading `welcome to <location>`.
    Home,
}

/// What stands behind the world's first location.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Behind {
    /// One independent server per location, each with its own key.
    Servers,
    /// A relay fronting this many read-write replicas that share one
    /// file system and the location's key.
    Relay(usize),
    /// A relay fronting a replicated write group: every member has its
    /// own file system and op log; only member 0 follows the fault
    /// plan's `crash=` schedule, so a server crash is a primary crash.
    Replicated {
        /// Group size.
        members: usize,
        /// Durable copies (the primary's included) a commit requires.
        quorum: usize,
    },
}

/// Everything that varies between two worlds. Start from
/// [`WorldSpec::bench`] or [`WorldSpec::test`] and override fields.
#[derive(Clone)]
pub struct WorldSpec {
    /// Key seeds.
    pub keys: KeySeeds,
    /// Server locations (one server each under [`Behind::Servers`]).
    pub locations: &'static [&'static str],
    /// Server generator entropy; `{}` is replaced by the server index.
    pub server_entropy: &'static str,
    /// Client entropy; `{}` is replaced by the client index.
    pub client_entropy: &'static str,
    /// Exported tree.
    pub tree: Tree,
    /// Disk under every exported file system (`None`: memory-backed).
    pub disk: Option<DiskParams>,
    /// Attribute-lease override.
    pub lease_ns: Option<u64>,
    /// Installs the multi-core `ShardEngine` on every server.
    pub cores: Option<usize>,
    /// Topology behind the first location.
    pub behind: Behind,
    /// Clients to create, each holding the user's key.
    pub clients: usize,
    /// Gives every client its own clock and network (a fleet of
    /// machines) instead of the world's shared timeline.
    pub own_clocks: bool,
    /// Client CPU cost model (`None`: clients charge no CPU time).
    pub cpu: Option<CpuCosts>,
    /// Attaches a crash-recovery journal to every client.
    pub journals: bool,
    /// Tracing sink threaded through every layer.
    pub tel: Option<Telemetry>,
    /// Fault plan threaded through the wire, the servers and every disk.
    pub plan: Option<FaultPlan>,
}

impl WorldSpec {
    /// The §4.1 testbed: one server on the benchmark disk, one client
    /// charging the Pentium III cost model.
    pub fn bench() -> WorldSpec {
        WorldSpec {
            keys: KeySeeds {
                servers: &[0x5F5_BE7C],
                user: 0xBE7C_0001,
                srp: 0x5209,
                ephemeral: None,
            },
            locations: &["server.bench"],
            server_entropy: "bench-server",
            client_entropy: "bench-client",
            tree: Tree::Bench,
            disk: Some(bench_disk_params()),
            lease_ns: None,
            cores: None,
            behind: Behind::Servers,
            clients: 1,
            own_clocks: false,
            cpu: Some(CpuCosts::pentium_iii_550()),
            journals: false,
            tel: None,
            plan: None,
        }
    }

    /// The integration-test world: one memory-backed server at
    /// `sfs.lcs.mit.edu` exporting the [`Tree::Home`] layout, one client
    /// with a precomputed ephemeral key.
    pub fn test() -> WorldSpec {
        WorldSpec {
            keys: KeySeeds::TEST,
            locations: &["sfs.lcs.mit.edu"],
            server_entropy: "server",
            client_entropy: "client",
            tree: Tree::Home,
            disk: None,
            cpu: None,
            ..WorldSpec::bench()
        }
    }

    /// A realm of independent servers, one per location (up to three),
    /// and one client: the root package's key-management tests.
    pub fn realm(locations: &'static [&'static str]) -> WorldSpec {
        WorldSpec {
            keys: KeySeeds::REALM,
            locations,
            server_entropy: "world-server-{}",
            client_entropy: "world-client",
            ..WorldSpec::test()
        }
    }

    /// This spec tracing into `tel`.
    pub fn traced(mut self, tel: &Telemetry) -> WorldSpec {
        self.tel = Some(tel.clone());
        self
    }

    /// This spec following `plan` (the `--faults` flag's optional plan).
    pub fn faulted(mut self, plan: Option<&FaultPlan>) -> WorldSpec {
        self.plan = plan.cloned();
        self
    }

    /// A fresh server clock; the fault plan's own events are stamped by it.
    pub(crate) fn clock(&self) -> SimClock {
        let clock = SimClock::new();
        if let (Some(plan), Some(tel)) = (&self.plan, &self.tel) {
            plan.set_telemetry(&tel.clone().with_clock(clock.clone()));
        }
        clock
    }

    /// The switched 100 Mbit network on `clock`, the plan its adversary.
    fn network(&self, clock: &SimClock) -> Arc<SfsNetwork> {
        let net = SfsNetwork::new(clock.clone(), NetParams::switched_100mbit(Transport::Tcp));
        if let Some(plan) = &self.plan {
            net.set_interceptor(Arc::new(Mutex::new(plan.clone())));
        }
        net
    }

    /// Disk → [`Vfs`] tree for the server at `location` (slot `s`) on
    /// `clock`.
    pub(crate) fn export(&self, clock: &SimClock, s: usize, location: &str) -> Vfs {
        let mut vfs = Vfs::new(7 + s as u64, clock.clone());
        if let Some(params) = &self.disk {
            let disk = SimDisk::new(clock.clone(), *params);
            if let Some(tel) = &self.tel {
                disk.set_telemetry(tel);
            }
            if let Some(plan) = &self.plan {
                disk.set_fault_plan(plan.clone());
            }
            vfs = vfs.with_disk(disk);
        }
        let root = Credentials::root();
        let chmod = |ino, mode, owned: bool| {
            let attr = SetAttr {
                mode: Some(mode),
                uid: owned.then_some(UID),
                gid: owned.then_some(GID),
                ..Default::default()
            };
            vfs.setattr(&root, ino, attr).unwrap();
        };
        match self.tree {
            Tree::Bench => chmod(vfs.mkdir_p("/bench").unwrap(), 0o777, true),
            Tree::Home => {
                // Private: anonymous (key-less) access must bounce off it.
                chmod(vfs.mkdir_p("/home/alice").unwrap(), 0o700, true);
                let public = vfs.mkdir_p("/public").unwrap();
                chmod(public, 0o777, false);
                let motd = format!("welcome to {location}");
                let ino = vfs
                    .write_file(&root, public, "motd", motd.as_bytes())
                    .unwrap();
                chmod(ino, 0o644, false);
            }
        }
        vfs
    }
}

/// A built world.
pub struct World {
    /// The servers' (and, unless `own_clocks`, the clients') clock.
    pub clock: SimClock,
    /// The network on [`World::clock`]; every location is registered.
    pub net: Arc<SfsNetwork>,
    /// Every server, in location (or group-member) order.
    pub servers: Vec<Arc<SfsServer>>,
    /// The relay group under [`Behind::Relay`].
    pub relay: Option<Arc<ReplicaGroup>>,
    /// The replicated write group under [`Behind::Replicated`].
    pub repl: Option<Arc<ReplGroup>>,
    /// The spec's clients; each agent holds the user's key.
    pub clients: Vec<Arc<SfsClient>>,
    /// Client journals, when the spec asked for them.
    pub(crate) journals: Vec<ClientJournal>,
    spec: WorldSpec,
}

fn indexed(pattern: &str, i: usize) -> String {
    pattern.replace("{}", &i.to_string())
}

impl World {
    /// Assembles the world `spec` describes.
    pub fn build(spec: &WorldSpec) -> World {
        let clock = spec.clock();
        let mut w = World {
            net: spec.network(&clock),
            clock,
            servers: Vec::new(),
            relay: None,
            repl: None,
            clients: Vec::new(),
            journals: Vec::new(),
            spec: spec.clone(),
        };
        match spec.behind {
            Behind::Servers => {
                for (s, location) in spec.locations.iter().enumerate() {
                    w.add_server(location, spec.keys.servers[s]);
                }
            }
            Behind::Relay(replicas) => {
                let (location, key) = (spec.locations[0], spec.keys.servers[0]);
                let vfs = spec.export(&w.clock, 0, location);
                for r in 0..replicas {
                    let server = w.serve(location, key, r, vfs.clone(), true);
                    w.servers.push(server);
                }
                let group = ReplicaGroup::new(w.path().clone());
                if let Some(tel) = &spec.tel {
                    group.set_telemetry(tel);
                }
                w.servers.iter().for_each(|s| group.add_rw(s.clone()));
                w.net.register_relay(location, group.clone());
                w.relay = Some(group);
            }
            Behind::Replicated { members, quorum } => {
                let (location, key) = (spec.locations[0], spec.keys.servers[0]);
                // Built identically from the same virtual instant, so
                // identical op sequences allocate identical inodes and
                // the shared handle cipher (derived from the shared key)
                // yields handles valid on every member.
                for r in 0..members {
                    let vfs = spec.export(&w.clock, 0, location);
                    let server = w.serve(location, key, r, vfs, r == 0);
                    w.servers.push(server);
                }
                let group = ReplGroup::new(w.path().clone(), w.clock.clone(), quorum);
                if let Some(tel) = &spec.tel {
                    group.set_telemetry(tel);
                }
                for (r, server) in w.servers.iter().enumerate() {
                    let disk = SimDisk::new(w.clock.clone(), DiskParams::ibm_18es());
                    group.add_member(
                        server.clone(),
                        JournalDisk::new(disk, (0x100 + r as u64) << 32),
                    );
                }
                w.net.register_relay(location, group.clone());
                w.repl = Some(group);
            }
        }
        for c in 0..spec.clients {
            let entropy = indexed(spec.client_entropy, c);
            let client = if spec.own_clocks {
                let net = spec.network(&SimClock::new());
                w.servers.iter().for_each(|s| net.register(s.clone()));
                w.client_on(net, entropy.as_bytes())
            } else {
                w.client(entropy.as_bytes())
            };
            if spec.journals {
                let journal = w.journal(c as u64);
                client.attach_journal(journal.clone());
                w.journals.push(journal);
            }
            w.login(&client);
            w.clients.push(client);
        }
        w
    }

    /// The first location's self-certifying pathname.
    pub fn path(&self) -> &SelfCertifyingPath {
        self.servers[0].path()
    }

    /// The user's private key.
    pub fn user_key(&self) -> RabinPrivateKey {
        keys::rabin(512, self.spec.keys.user)
    }

    /// Stands up one more independent server at `location` under the
    /// 768-bit key `key_seed`, with a fresh export, and registers it.
    pub fn add_server(&mut self, location: &str, key_seed: u64) -> Arc<SfsServer> {
        let s = self.servers.len();
        let vfs = self.spec.export(&self.clock, s, location);
        let server = self.serve(location, key_seed, s, vfs, true);
        self.net.register(server.clone());
        self.servers.push(server.clone());
        server
    }

    /// [`AuthServer`] (with the user registered) → [`SfsServer`] over
    /// `vfs`, configured from the spec.
    fn serve(
        &self,
        location: &str,
        key_seed: u64,
        index: usize,
        vfs: Vfs,
        follows_plan: bool,
    ) -> Arc<SfsServer> {
        let spec = &self.spec;
        let auth = Arc::new(AuthServer::new(keys::srp_group(128, spec.keys.srp), 2));
        auth.register_user(UserRecord {
            user: USER.into(),
            uid: UID,
            gids: vec![GID],
            public_key: self.user_key().public().to_bytes(),
        });
        let mut config = ServerConfig::new(location);
        if let Some(lease_ns) = spec.lease_ns {
            config.lease_ns = lease_ns;
        }
        let server = SfsServer::new(
            config,
            keys::rabin(768, key_seed),
            vfs,
            auth,
            SfsPrg::from_entropy(indexed(spec.server_entropy, index).as_bytes()),
        );
        if let Some(cores) = spec.cores {
            server.set_cores(cores);
        }
        if let (Some(plan), true) = (&spec.plan, follows_plan) {
            server.set_fault_plan(plan.clone());
        }
        if let Some(tel) = &spec.tel {
            server.set_telemetry(tel);
        }
        server
    }

    /// A fresh client on the world's network, configured from the spec
    /// but holding no keys (what a rebooted client machine is).
    pub fn client(&self, entropy: &[u8]) -> Arc<SfsClient> {
        self.client_on(self.net.clone(), entropy)
    }

    fn client_on(&self, net: Arc<SfsNetwork>, entropy: &[u8]) -> Arc<SfsClient> {
        let client = match (self.spec.keys.ephemeral, self.spec.cpu) {
            (None, None) => SfsClient::new(net, entropy),
            (None, Some(cpu)) => SfsClient::with_costs(net, entropy, cpu),
            (Some(seed), None) => SfsClient::with_ephemeral(net, entropy, keys::rabin(768, seed)),
            (Some(_), Some(_)) => panic!("no caller charges CPU on a precomputed ephemeral key"),
        };
        if let Some(tel) = &self.spec.tel {
            client.set_telemetry(tel);
        }
        client
    }

    /// Installs (and journals) the user's key into `client`'s agent.
    pub fn login(&self, client: &SfsClient) {
        client.install_agent_key(UID, self.user_key());
    }

    /// A client crash-recovery journal on its own fault-planned disk.
    pub fn journal(&self, slot: u64) -> ClientJournal {
        let disk = SimDisk::new(self.clock.clone(), DiskParams::ibm_18es());
        if let Some(plan) = &self.spec.plan {
            disk.set_fault_plan(plan.clone());
        }
        ClientJournal::new(JournalDisk::new(disk, slot << 32))
    }
}
