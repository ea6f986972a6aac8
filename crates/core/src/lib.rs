//! The SFS system: client, server, agent, and authserver daemons.
//!
//! Figure 2 of the paper shows the component layout this crate reproduces:
//!
//! ```text
//!   user program → kernel NFS3 → sfscd (client master) ┐
//!                                agents (per user) ────┤  MACed, encrypted
//!                                                      ├── TCP ──┐
//!   nfsmounter (root)                                  ┘         │
//!                                                                ▼
//!   sfssd (server master) → read-write server → NFS3 server → disk
//!                         → read-only server
//!                         → authserver
//! ```
//!
//! - [`wire`]: the SFS wire messages exchanged between client and server —
//!   the cleartext key-negotiation stage and the sealed RPC stage;
//! - [`authserver`]: `authserv` — public-key→credential databases (public
//!   and private halves), SRP registration, encrypted private-key storage,
//!   Unix-password bootstrap (§2.5);
//! - [`agent`]: `sfsagent` — per-user key management, on-the-fly symlinks,
//!   certification paths, revocation checking, HostID blocking, audit
//!   trail (§2.3, §2.5.1);
//! - [`server`]: `sfssd` and the read-write/read-only servers — connection
//!   dispatch, credential tagging, Blowfish-encrypted NFS handles (§3.2,
//!   §3.3);
//! - [`client`]: `sfscd` — the automounter under `/sfs`, secure-channel
//!   management, per-agent namespace views, enhanced attribute/access
//!   caching with leases and invalidation callbacks (§2.3, §3.3);
//! - [`sfskey`]: the `sfskey` utility — SRP password login, key download,
//!   agent installation (§2.4);
//! - [`libsfs`]: uid/gid ↔ name mapping with the `%` remote-realm
//!   convention (§3.3);
//! - [`nfsmounter`]: the crash-takeover mounter (§3.3).

pub mod agent;
pub mod authserver;
pub mod bufpool;
pub mod client;
pub mod config;
pub mod journal;
pub mod libsfs;
pub mod nfsmounter;
pub mod roclient;
pub mod sealbox;
pub mod server;
pub mod sfskey;
pub mod shard;
pub mod wire;

pub use agent::Agent;
pub use authserver::{AuthServer, UserRecord};
pub use bufpool::{BufPool, PooledBuf};
pub use client::{ClientError, RecoveryReport, RoutedRo, RoutedRw, Router, SfsClient, SfsNetwork};
pub use journal::{ClientJournal, JournalRecord, RecoveredState};
pub use roclient::{RoClientError, RoMount};
pub use server::{RoConnection, RoReplicaServer, ServerConfig, SfsServer};
pub use shard::ShardEngine;
