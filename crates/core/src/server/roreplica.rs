//! The read-only dialect's server ends (§2.4): the [`RoConnection`]
//! seam both kinds of replica sit behind, and the keyless
//! [`RoReplicaServer`] that holds nothing but a published bundle.
//!
//! Calls only into `sfs_proto::readonly`; a full server answers the
//! dialect through `conn`'s state machine instead.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use sfs_crypto::rabin::RabinPublicKey;
use sfs_proto::keyneg::KeyNegServerReply;
use sfs_proto::pathname::SelfCertifyingPath;
use sfs_proto::readonly::{RoDatabase, RoError};
use sfs_sim::ServerLoad;
use sfs_telemetry::sync::Mutex;
use sfs_telemetry::Telemetry;
use sfs_xdr::Xdr;

use super::ServerConn;
use crate::wire::{CallMsg, Dialect, ReplyMsg, Service};

/// A server-side endpoint that can answer read-only dialect messages.
///
/// Both connection kinds serving one `Location:HostID` implement it: the
/// full [`ServerConn`] (a read-write server also exporting the dialect)
/// and the keyless [`RoReplicaConn`]. Clients and routing tiers hold
/// `Box<dyn RoConnection>` so a mount can be handed from one replica to
/// another without caring which kind is behind it.
pub trait RoConnection: Send + Sync {
    /// Processes one wire message, returning the reply bytes.
    fn handle_ro_bytes(&self, bytes: &[u8]) -> Vec<u8>;
}

impl RoConnection for ServerConn {
    fn handle_ro_bytes(&self, bytes: &[u8]) -> Vec<u8> {
        self.handle_bytes(bytes)
    }
}

/// A keyless read-only replica (§2.4): a machine holding nothing but the
/// published distribution bundle — the signed root and the
/// content-addressed blocks. It can prove the file system's contents to
/// any client yet "read-only servers \[are freed\] from the need to keep
/// any on-line copies of their private keys, which in turn allows
/// read-only file systems to be replicated on untrusted machines."
///
/// There is deliberately no `RabinPrivateKey` anywhere in this type.
pub struct RoReplicaServer {
    path: SelfCertifyingPath,
    /// The publisher's *public* key, served in hello replies for the
    /// client to certify against the HostID.
    public_key_bytes: Vec<u8>,
    db: Mutex<Arc<RoDatabase>>,
    load: ServerLoad,
    /// Operator switch standing in for a dead machine; a down replica
    /// answers every message with an unavailability error.
    down: AtomicBool,
    tel: Mutex<Telemetry>,
}

impl RoReplicaServer {
    /// Stands up a replica at `location` serving `db`, announcing the
    /// publisher's public key.
    pub fn new(location: &str, public_key: &RabinPublicKey, db: Arc<RoDatabase>) -> Arc<Self> {
        Arc::new(RoReplicaServer {
            path: SelfCertifyingPath::for_server(location, public_key),
            public_key_bytes: public_key.to_bytes(),
            db: Mutex::new(db),
            load: ServerLoad::new(),
            down: AtomicBool::new(false),
            tel: Mutex::new(Telemetry::disabled()),
        })
    }

    /// Stands up a replica from a distribution bundle
    /// ([`RoDatabase::export`]), verifying every block digest on import.
    pub fn from_bundle(
        location: &str,
        public_key: &RabinPublicKey,
        bundle: &[u8],
    ) -> Result<Arc<Self>, RoError> {
        let db = RoDatabase::import(bundle)?;
        Ok(Self::new(location, public_key, Arc::new(db)))
    }

    /// The replica's self-certifying pathname (same HostID as the
    /// publisher — the pathname names a key, not a machine).
    pub fn path(&self) -> &SelfCertifyingPath {
        &self.path
    }

    /// This machine's contention tracker.
    pub fn load(&self) -> ServerLoad {
        self.load.clone()
    }

    /// Installs a newer snapshot (the publisher pushed a fresh bundle).
    pub fn install(&self, db: Arc<RoDatabase>) {
        *self.db.lock() = db;
    }

    /// Takes the replica down (or back up).
    pub fn set_down(&self, down: bool) {
        self.down.store(down, Ordering::SeqCst);
    }

    /// Whether the replica currently refuses service.
    pub fn is_down(&self) -> bool {
        self.down.load(Ordering::SeqCst)
    }

    /// Attaches a tracing sink.
    pub fn set_telemetry(&self, tel: &Telemetry) {
        *self.tel.lock() = tel.clone();
    }

    /// Opens a new connection.
    pub fn accept(self: &Arc<Self>) -> RoReplicaConn {
        RoReplicaConn {
            replica: self.clone(),
            hello_done: AtomicBool::new(false),
        }
    }
}

impl std::fmt::Debug for RoReplicaServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RoReplicaServer")
            .field("path", &self.path.dir_name())
            .field("down", &self.is_down())
            .finish()
    }
}

/// One client connection to a keyless read-only replica. The state
/// machine is two steps — hello, then block service — and involves no
/// cryptography at all on the server side.
pub struct RoReplicaConn {
    replica: Arc<RoReplicaServer>,
    hello_done: AtomicBool,
}

impl RoReplicaConn {
    /// The replica behind this connection.
    pub fn replica(&self) -> &Arc<RoReplicaServer> {
        &self.replica
    }
}

impl RoConnection for RoReplicaConn {
    fn handle_ro_bytes(&self, bytes: &[u8]) -> Vec<u8> {
        let tel = self.replica.tel.lock().clone();
        tel.count("ro-replica", "dispatch.calls", 1);
        if self.replica.is_down() {
            return ReplyMsg::Error("replica unavailable".into()).to_xdr();
        }
        let reply = match CallMsg::from_xdr(bytes) {
            Ok(CallMsg::Hello {
                service, dialect, ..
            }) => {
                if service != Service::File {
                    ReplyMsg::Error("read-only replica serves only the file service".into())
                } else if dialect != Dialect::ReadOnly {
                    // The §2.4 trust split made concrete: this machine
                    // cannot negotiate a read-write session because it
                    // holds no private key to prove with.
                    ReplyMsg::Error("read-only replica holds no private key".into())
                } else {
                    self.hello_done.store(true, Ordering::SeqCst);
                    ReplyMsg::ServerReply(KeyNegServerReply::ServerKey(
                        self.replica.public_key_bytes.clone(),
                    ))
                }
            }
            Ok(CallMsg::RoGetRoot) => {
                if !self.hello_done.load(Ordering::SeqCst) {
                    ReplyMsg::Error("not a read-only connection".into())
                } else {
                    ReplyMsg::RoRoot(self.replica.db.lock().root.clone())
                }
            }
            Ok(CallMsg::RoGetBlock(digest)) => {
                if !self.hello_done.load(Ordering::SeqCst) {
                    ReplyMsg::Error("not a read-only connection".into())
                } else {
                    tel.count("ro-replica", "ro.blocks_served", 1);
                    let db = self.replica.db.lock().clone();
                    match db.fetch_raw(&digest) {
                        Ok(block) => ReplyMsg::RoBlock(block.to_vec()),
                        Err(_) => ReplyMsg::Error("no such block".into()),
                    }
                }
            }
            Ok(_) => ReplyMsg::Error("read-only replica: unsupported message".into()),
            Err(e) => ReplyMsg::Error(format!("unparseable message: {e}")),
        };
        reply.to_xdr()
    }
}
