//! Simulated kernel file-system layers.
//!
//! The paper benchmarks application workloads through the whole OS stack:
//! system calls, the kernel page/name/attribute caches, and then one of
//! three transports — the local FFS, the in-kernel NFS3 client, or the
//! kernel NFS3 client talking to the user-level SFS daemons. This module
//! reproduces that stack. The caches are one implementation, so that all
//! three systems benefit identically: every stack reads through one
//! page-cache read (`PageCache::read`, with one whole-file fetch for the
//! two remote stacks), the remote stacks resolve names through one
//! name-cache walk (`PathMap::resolve`), and every cache files a path
//! under one key. What differs is exactly what the paper says differs:
//! where attribute caching happens, how many RPCs reach the wire, and
//! what each RPC costs.

use std::collections::HashMap;
use std::sync::Arc;

use sfs::client::{ClientError, Mount, SfsClient};
use sfs_nfs3::proto::{FileHandle, Nfs3Reply, Nfs3Request, Sattr3, StableHow, Status};
use sfs_nfs3::Nfs3Server;
use sfs_sim::{CpuCosts, Exchange, SimClock, SimTime, Wire, WireError};
use sfs_telemetry::sync::Mutex;
use sfs_vfs::{Credentials, FsError, Vfs};

/// Errors surfaced by benchmark file operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BenchFsError {
    /// Underlying NFS error.
    Nfs(Status),
    /// Underlying local error.
    Local(FsError),
    /// SFS client error.
    Sfs(String),
}

impl std::fmt::Display for BenchFsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BenchFsError::Nfs(s) => write!(f, "nfs: {s:?}"),
            BenchFsError::Local(e) => write!(f, "local: {e}"),
            BenchFsError::Sfs(e) => write!(f, "sfs: {e}"),
        }
    }
}

impl std::error::Error for BenchFsError {}

type Result<T> = std::result::Result<T, BenchFsError>;

/// A kernel cache keyed by path, under one key per path: `/bench/f` and
/// `bench/f` are the same entry.
struct PathMap<V>(Mutex<HashMap<String, V>>);

impl<V> Default for PathMap<V> {
    fn default() -> Self {
        PathMap(Mutex::new(HashMap::new()))
    }
}

impl<V: Clone> PathMap<V> {
    fn key(path: &str) -> &str {
        path.trim_matches('/')
    }

    fn get(&self, path: &str) -> Option<V> {
        self.0.lock().get(Self::key(path)).cloned()
    }

    fn insert(&self, path: &str, value: V) {
        self.0.lock().insert(Self::key(path).to_string(), value);
    }

    fn remove(&self, path: &str) {
        self.0.lock().remove(Self::key(path));
    }

    fn clear(&self) {
        self.0.lock().clear();
    }

    /// The name cache's walk (the kernel's dnlc, in front of both remote
    /// stacks): `path`'s cached entry, or the entry `lookup(dir, path,
    /// leaf)` finds below its parent's, resolved the same way down to the
    /// `root()` entry. Every entry found is cached.
    fn resolve(
        &self,
        path: &str,
        root: &mut dyn FnMut() -> Result<V>,
        lookup: &mut dyn FnMut(&V, &str, &str) -> Result<V>,
    ) -> Result<V> {
        let path = Self::key(path);
        if let Some(entry) = self.get(path) {
            return Ok(entry);
        }
        let entry = if path.is_empty() {
            root()?
        } else {
            let (dir, leaf) = split(path);
            let dir = self.resolve(dir, root, lookup)?;
            lookup(&dir, path, leaf)?
        };
        self.insert(path, entry.clone());
        Ok(entry)
    }
}

/// The whole-file page cache shared by every stack (the kernel's buffer
/// cache): path → (mtime, contents).
type PageCache = PathMap<(u64, Arc<Vec<u8>>)>;

/// What a stack fetched on a page-cache miss.
enum Fetched {
    /// The whole file, which the cache keeps.
    Whole(Vec<u8>),
    /// Only the requested range, streamed past the cache.
    Range(Vec<u8>),
}

impl PageCache {
    /// read(2) through the page cache: bytes `offset..offset + len` of
    /// `path`, sliced from the cached copy when it is the version at
    /// `mtime`, else from what `miss` fetches.
    fn read(
        &self,
        path: &str,
        mtime: u64,
        offset: u64,
        len: usize,
        miss: impl FnOnce() -> Result<Fetched>,
    ) -> Result<Vec<u8>> {
        let whole = match self.get(path) {
            Some((m, data)) if m == mtime => data,
            _ => match miss()? {
                Fetched::Range(data) => return Ok(data),
                Fetched::Whole(data) => {
                    let data = Arc::new(data);
                    self.insert(path, (mtime, data.clone()));
                    data
                }
            },
        };
        let start = (offset as usize).min(whole.len());
        let end = (start + len).min(whole.len());
        Ok(whole[start..end].to_vec())
    }
}

/// A remote stack's page-cache miss on `fh`, `size` bytes long: a file
/// of at most 64 KiB is read whole, 8 KiB READs through `rpc` until EOF;
/// a larger one streams through `stream`.
fn fetch(
    fh: FileHandle,
    size: u64,
    rpc: impl Fn(&Nfs3Request) -> Result<Nfs3Reply>,
    stream: impl FnOnce() -> Result<Vec<u8>>,
) -> Result<Fetched> {
    if size > 65536 {
        return stream().map(Fetched::Range);
    }
    let mut whole = Vec::with_capacity(size as usize);
    loop {
        let offset = whole.len() as u64;
        match rpc(&Nfs3Request::Read {
            fh,
            offset,
            count: 8192,
        })? {
            Nfs3Reply::Read { data, eof, .. } => {
                whole.extend_from_slice(&data);
                if eof || data.is_empty() {
                    return Ok(Fetched::Whole(whole));
                }
            }
            other => return Err(status(other)),
        }
    }
}

/// What an RPC that did not get the reply it asked for surfaces: the
/// server's status, or `Io` for a reply of another kind.
fn status(reply: Nfs3Reply) -> BenchFsError {
    BenchFsError::Nfs(match reply {
        Nfs3Reply::Error { status, .. } => status,
        _ => Status::Io,
    })
}

/// The interface workloads drive (what applications would do through
/// system calls). Paths are `/`-separated, relative to the benchmark
/// root.
pub trait FsBench {
    /// Human-readable system name ("Local", "NFS 3 (UDP)", "SFS", …).
    fn name(&self) -> &str;

    /// The virtual clock.
    fn clock(&self) -> &SimClock;

    /// Creates a directory.
    fn mkdir(&self, path: &str) -> Result<()>;

    /// Creates an empty file (or truncates an existing one).
    fn create(&self, path: &str) -> Result<()>;

    /// Writes (appends/overwrites) at an offset.
    fn write(&self, path: &str, offset: u64, data: &[u8]) -> Result<()>;

    /// Reads up to `len` bytes at an offset (through the page cache).
    fn read(&self, path: &str, offset: u64, len: usize) -> Result<Vec<u8>>;

    /// Stats a file (what `ls -l`, `du`, and compilers do constantly).
    fn stat(&self, path: &str) -> Result<u64>;

    /// Opens a file for reading: name resolution plus the consistency
    /// revalidation each system performs. Kernel NFS3 implements
    /// close-to-open consistency — a GETATTR on *every* open, plus an
    /// ACCESS check — while SFS's leases and callbacks let its client
    /// skip revalidation while a lease is valid (§3.3). Returns the size.
    fn open(&self, path: &str) -> Result<u64>;

    /// Removes a file.
    fn unlink(&self, path: &str) -> Result<()>;

    /// Flushes dirty data to stable storage (close/fsync/COMMIT).
    fn flush(&self, path: &str) -> Result<()>;

    /// An operation that always requires a server round trip and never
    /// touches the disk: the paper's unauthorized `fchown` (§4.2).
    fn chown_fail(&self, path: &str) -> Result<()>;

    /// Sets how many RPCs the client may keep in flight on its channel
    /// (1 = strict blocking request/reply). Local and kernel-NFS stacks
    /// have no pipelined client and ignore it.
    fn set_pipeline_window(&self, _window: usize) {}

    /// Burns pure CPU time (compilation).
    fn cpu_burn(&self, ns: u64) {
        self.clock().advance_ns(ns);
    }

    /// Network RPCs issued so far (0 for local).
    fn rpcs(&self) -> u64 {
        0
    }

    /// Drops client-side caches (page + name + attr), keeping server
    /// state.
    fn drop_caches(&self);
}

/// Cost of a local system call on the testbed (entry/exit + VFS layer).
const SYSCALL_NS: u64 = 3_000;

// ---------------------------------------------------------------- Local

/// The local-FFS baseline: direct file-system access plus the page cache.
pub(crate) struct LocalFs {
    vfs: Vfs,
    clock: SimClock,
    creds: Credentials,
    cache: PageCache,
}

impl LocalFs {
    /// Wraps a (disk-attached) file system.
    pub(crate) fn new(vfs: Vfs, clock: SimClock) -> Self {
        LocalFs {
            vfs,
            clock,
            creds: Credentials::user(1000, 100),
            cache: PageCache::default(),
        }
    }

    fn resolve(&self, path: &str) -> Result<u64> {
        self.vfs
            .lookup_path(&Credentials::root(), path)
            .map(|(ino, _)| ino)
            .map_err(BenchFsError::Local)
    }
}

impl FsBench for LocalFs {
    fn name(&self) -> &str {
        "Local"
    }

    fn clock(&self) -> &SimClock {
        &self.clock
    }

    fn mkdir(&self, path: &str) -> Result<()> {
        self.clock.advance_ns(SYSCALL_NS);
        let (dir, leaf) = split(path);
        let dino = self.resolve(dir)?;
        self.vfs
            .mkdir(&Credentials::root(), dino, leaf, 0o755)
            .map(|_| ())
            .map_err(BenchFsError::Local)
    }

    fn create(&self, path: &str) -> Result<()> {
        self.clock.advance_ns(SYSCALL_NS);
        let (dir, leaf) = split(path);
        let dino = self.resolve(dir)?;
        match self.vfs.create(&Credentials::root(), dino, leaf, 0o644) {
            Ok(_) => Ok(()),
            Err(FsError::Exists) => Ok(()),
            Err(e) => Err(BenchFsError::Local(e)),
        }
    }

    fn write(&self, path: &str, offset: u64, data: &[u8]) -> Result<()> {
        self.clock.advance_ns(SYSCALL_NS);
        let ino = self.resolve(path)?;
        self.vfs
            .write(&Credentials::root(), ino, offset, data, false)
            .map(|_| ())
            .map_err(BenchFsError::Local)?;
        self.cache.remove(path);
        Ok(())
    }

    fn read(&self, path: &str, offset: u64, len: usize) -> Result<Vec<u8>> {
        self.clock.advance_ns(SYSCALL_NS);
        let ino = self.resolve(path)?;
        let attr = self.vfs.getattr(ino).map_err(BenchFsError::Local)?;
        self.cache.read(path, attr.mtime, offset, len, || {
            let whole = self.vfs.read_file(&Credentials::root(), ino);
            whole.map(Fetched::Whole).map_err(BenchFsError::Local)
        })
    }

    fn stat(&self, path: &str) -> Result<u64> {
        self.clock.advance_ns(SYSCALL_NS);
        let ino = self.resolve(path)?;
        self.vfs
            .getattr(ino)
            .map(|a| a.size)
            .map_err(BenchFsError::Local)
    }

    fn open(&self, path: &str) -> Result<u64> {
        // Local opens are a permission check against in-memory inodes.
        self.stat(path)
    }

    fn unlink(&self, path: &str) -> Result<()> {
        self.clock.advance_ns(SYSCALL_NS);
        let (dir, leaf) = split(path);
        let dino = self.resolve(dir)?;
        self.cache.remove(path);
        self.vfs
            .remove(&Credentials::root(), dino, leaf)
            .map_err(BenchFsError::Local)
    }

    fn flush(&self, _path: &str) -> Result<()> {
        self.clock.advance_ns(SYSCALL_NS);
        self.vfs.commit();
        Ok(())
    }

    fn chown_fail(&self, path: &str) -> Result<()> {
        self.clock.advance_ns(SYSCALL_NS);
        let ino = self.resolve(path)?;
        // A non-owner chown attempt: fails in the VFS layer, no disk.
        match self.vfs.setattr(
            &self.creds,
            ino,
            sfs_vfs::SetAttr {
                uid: Some(1),
                ..Default::default()
            },
        ) {
            Err(FsError::Perm) => Ok(()),
            Err(e) => Err(BenchFsError::Local(e)),
            Ok(_) => Err(BenchFsError::Local(FsError::Invalid)),
        }
    }

    fn drop_caches(&self) {
        self.cache.clear();
    }
}

// ------------------------------------------------------------------ NFS

/// The in-kernel NFS3 client baseline with the classic heuristic
/// attribute cache (a fixed timeout, no leases, no callbacks).
pub(crate) struct KernelNfs {
    label: String,
    clock: SimClock,
    wire: Wire,
    /// The buffers every RPC crosses `wire` through.
    exchange: Mutex<Exchange>,
    server: Nfs3Server,
    creds: Credentials,
    cpu: CpuCosts,
    /// dnlc: path → file handle.
    names: PathMap<FileHandle>,
    /// Attribute cache: path → (size, mtime, fetched-at).
    attrs: PathMap<(u64, u64, SimTime)>,
    /// Attribute cache timeout (classic NFS heuristic, ~3 s).
    attr_timeout_ns: u64,
    cache: PageCache,
    /// Paths whose ACCESS rights have been checked (cleared when caches
    /// drop or the file is removed).
    access_checked: PathMap<()>,
}

impl KernelNfs {
    /// Builds an NFS client over `wire` against `server`.
    pub(crate) fn new(
        label: &str,
        clock: SimClock,
        wire: Wire,
        server: Nfs3Server,
        cpu: CpuCosts,
    ) -> Self {
        KernelNfs {
            label: label.to_string(),
            clock,
            wire,
            exchange: Mutex::new(Exchange::default()),
            server,
            creds: Credentials::root(),
            cpu,
            names: PathMap::default(),
            attrs: PathMap::default(),
            attr_timeout_ns: 3_000_000_000,
            cache: PageCache::default(),
            access_checked: PathMap::default(),
        }
    }

    /// One NFS RPC over the wire as `creds`, with kernel-side processing
    /// charges at both ends. Like the in-kernel clients, a lost request
    /// or reply is simply retransmitted (NFS3 procedures are idempotent
    /// or protected by the server's reply semantics), bounded so a dead
    /// server eventually surfaces as an I/O error. A reply the server
    /// did not send for this call — corrupted in flight, or another
    /// call's — counts as lost: the transport's checksum and the RPC
    /// xid discard it, and the client waits out the timeout.
    fn rpc(&self, creds: &Credentials, req: &Nfs3Request) -> Result<Nfs3Reply> {
        const MAX_RETRANSMITS: u32 = 8;
        self.cpu.charge_rpc(&self.clock);
        let args = req.encode_args();
        let proc = req.proc();
        let wire_len = args.len() + 40; // RPC header overhead
        let mut served = Vec::new();
        let mut attempt = 0;
        let mut x = self.exchange.lock();
        let results = loop {
            served.clear();
            let reply = self.wire.call(vec![0u8; wire_len], &mut x, |_| {
                self.cpu.charge_rpc(&self.clock);
                let reply = self.server.handle(creds, req);
                let bytes = reply.encode_results();
                self.cpu.charge_server_copy(&self.clock, bytes.len());
                served.push(bytes.clone());
                bytes
            });
            match reply {
                Ok(r) if served.contains(&r) => break r,
                _ if attempt == MAX_RETRANSMITS => return Err(BenchFsError::Nfs(Status::Io)),
                Ok(_) => self.wire.timeout_wait(),
                Err(WireError::Timeout) => {}
            }
            attempt += 1;
        };
        Nfs3Reply::decode_results(proc, &results).map_err(|_| BenchFsError::Nfs(Status::Io))
    }

    /// Resolves a path through the dnlc; each LOOKUP's attributes fill
    /// the attribute cache too.
    fn lookup(&self, path: &str) -> Result<FileHandle> {
        self.names.resolve(
            path,
            &mut || Ok(self.server.root_handle()),
            &mut |dir, path, leaf| match self.rpc(
                &self.creds,
                &Nfs3Request::Lookup {
                    dir: *dir,
                    name: leaf.to_string(),
                },
            )? {
                Nfs3Reply::Lookup { fh, attr, .. } => {
                    if let Some(a) = attr.attr {
                        self.attrs.insert(path, (a.size, a.mtime, self.clock.now()));
                    }
                    Ok(fh)
                }
                other => Err(status(other)),
            },
        )
    }

    fn fresh_attr(&self, path: &str) -> Option<(u64, u64)> {
        let (size, mtime, at) = self.attrs.get(path)?;
        if self.clock.now().as_nanos() - at.as_nanos() < self.attr_timeout_ns {
            Some((size, mtime))
        } else {
            None
        }
    }

    fn getattr_rpc(&self, path: &str) -> Result<(u64, u64)> {
        let fh = self.lookup(path)?;
        match self.rpc(&self.creds, &Nfs3Request::GetAttr { fh })? {
            Nfs3Reply::GetAttr { attr, .. } => {
                let fetched = (attr.size, attr.mtime, self.clock.now());
                self.attrs.insert(path, fetched);
                Ok((attr.size, attr.mtime))
            }
            other => Err(status(other)),
        }
    }
}

impl FsBench for KernelNfs {
    fn name(&self) -> &str {
        &self.label
    }

    fn clock(&self) -> &SimClock {
        &self.clock
    }

    fn mkdir(&self, path: &str) -> Result<()> {
        self.clock.advance_ns(SYSCALL_NS);
        let (dir, leaf) = split(path);
        let dfh = self.lookup(dir)?;
        match self.rpc(
            &self.creds,
            &Nfs3Request::Mkdir {
                dir: dfh,
                name: leaf.to_string(),
                attrs: Sattr3 {
                    mode: Some(0o755),
                    ..Default::default()
                },
            },
        )? {
            Nfs3Reply::Mkdir { fh, .. } => {
                self.names.insert(path, fh);
                Ok(())
            }
            other => Err(status(other)),
        }
    }

    fn create(&self, path: &str) -> Result<()> {
        self.clock.advance_ns(SYSCALL_NS);
        let (dir, leaf) = split(path);
        let dfh = self.lookup(dir)?;
        match self.rpc(
            &self.creds,
            &Nfs3Request::Create {
                dir: dfh,
                name: leaf.to_string(),
                attrs: Sattr3 {
                    mode: Some(0o644),
                    ..Default::default()
                },
            },
        )? {
            Nfs3Reply::Create { fh, .. } => {
                self.names.insert(path, fh);
                self.cache.remove(path);
                Ok(())
            }
            Nfs3Reply::Error {
                status: Status::Exist,
                ..
            } => Ok(()),
            other => Err(status(other)),
        }
    }

    fn write(&self, path: &str, offset: u64, data: &[u8]) -> Result<()> {
        self.clock.advance_ns(SYSCALL_NS);
        let fh = self.lookup(path)?;
        match self.rpc(
            &self.creds,
            &Nfs3Request::Write {
                fh,
                offset,
                stable: StableHow::Unstable,
                data: data.to_vec(),
            },
        )? {
            Nfs3Reply::Write { attr, .. } => {
                if let Some(a) = attr.attr {
                    self.attrs.insert(path, (a.size, a.mtime, self.clock.now()));
                }
                self.cache.remove(path);
                Ok(())
            }
            other => Err(status(other)),
        }
    }

    fn read(&self, path: &str, offset: u64, len: usize) -> Result<Vec<u8>> {
        self.clock.advance_ns(SYSCALL_NS);
        // Validate the page cache against (possibly cached) attributes.
        let (size, mtime) = match self.fresh_attr(path) {
            Some(v) => v,
            None => self.getattr_rpc(path)?,
        };
        self.cache.read(path, mtime, offset, len, || {
            let fh = self.lookup(path)?;
            // A large file streams one READ of the requested range.
            let stream = || match self.rpc(
                &self.creds,
                &Nfs3Request::Read {
                    fh,
                    offset,
                    count: len as u32,
                },
            )? {
                Nfs3Reply::Read { data, .. } => Ok(data),
                other => Err(status(other)),
            };
            fetch(fh, size, |req| self.rpc(&self.creds, req), stream)
        })
    }

    fn stat(&self, path: &str) -> Result<u64> {
        self.clock.advance_ns(SYSCALL_NS);
        if let Some((size, _)) = self.fresh_attr(path) {
            return Ok(size);
        }
        Ok(self.getattr_rpc(path)?.0)
    }

    fn open(&self, path: &str) -> Result<u64> {
        self.clock.advance_ns(SYSCALL_NS);
        // Close-to-open consistency: GETATTR on every open, regardless of
        // the attribute cache.
        let (size, _) = self.getattr_rpc(path)?;
        // ACCESS once per file while attributes stay fresh.
        if self.access_checked.get(path).is_none() {
            let fh = self.lookup(path)?;
            match self.rpc(&self.creds, &Nfs3Request::Access { fh, mask: 0x3f })? {
                Nfs3Reply::Access { .. } => self.access_checked.insert(path, ()),
                other => return Err(status(other)),
            }
        }
        Ok(size)
    }

    fn unlink(&self, path: &str) -> Result<()> {
        self.clock.advance_ns(SYSCALL_NS);
        let (dir, leaf) = split(path);
        let dfh = self.lookup(dir)?;
        self.names.remove(path);
        self.attrs.remove(path);
        self.cache.remove(path);
        self.access_checked.remove(path);
        match self.rpc(
            &self.creds,
            &Nfs3Request::Remove {
                dir: dfh,
                name: leaf.to_string(),
            },
        )? {
            Nfs3Reply::Remove { .. } => Ok(()),
            other => Err(status(other)),
        }
    }

    fn flush(&self, path: &str) -> Result<()> {
        self.clock.advance_ns(SYSCALL_NS);
        let fh = self.lookup(path)?;
        match self.rpc(
            &self.creds,
            &Nfs3Request::Commit {
                fh,
                offset: 0,
                count: 0,
            },
        )? {
            Nfs3Reply::Commit { .. } => Ok(()),
            other => Err(status(other)),
        }
    }

    fn chown_fail(&self, path: &str) -> Result<()> {
        self.clock.advance_ns(SYSCALL_NS);
        let fh = self.lookup(path)?;
        // Issue as a non-owner user (failures are never cached).
        let user = Credentials::user(4321, 4321);
        let req = Nfs3Request::SetAttr {
            fh,
            attrs: Sattr3 {
                uid: Some(1),
                ..Default::default()
            },
        };
        match self.rpc(&user, &req)? {
            Nfs3Reply::Error {
                status: Status::Perm,
                ..
            } => Ok(()),
            other => Err(status(other)),
        }
    }

    fn rpcs(&self) -> u64 {
        self.wire.round_trips()
    }

    fn drop_caches(&self) {
        self.cache.clear();
        self.attrs.clear();
        self.names.clear();
        self.access_checked.clear();
    }
}

// ------------------------------------------------------------------ SFS

/// SFS through the kernel: the page/name caches sit in the kernel exactly
/// as for NFS, but attribute caching is the SFS client's lease-based one
/// and every RPC goes through the user-level daemons and the secure
/// channel.
pub(crate) struct SfsBench {
    label: String,
    clock: SimClock,
    client: Arc<SfsClient>,
    uid: u32,
    /// Absolute prefix: `/sfs/Location:HostID`.
    prefix: String,
    names: PathMap<(Arc<Mount>, FileHandle)>,
    cache: PageCache,
}

impl SfsBench {
    /// Wraps an SFS client pointed at `prefix` (a mounted self-certifying
    /// path).
    pub(crate) fn new(label: &str, client: Arc<SfsClient>, uid: u32, prefix: &str) -> Self {
        SfsBench {
            label: label.to_string(),
            clock: client.clock().clone(),
            client,
            uid,
            prefix: prefix.trim_end_matches('/').to_string(),
            names: PathMap::default(),
            cache: PageCache::default(),
        }
    }

    /// Resolves a path to a handle through the dnlc, which sits in front
    /// of sfscd exactly as it does for NFS; the root is the mounted
    /// self-certifying path.
    fn handle_of(&self, path: &str) -> Result<(Arc<Mount>, FileHandle)> {
        self.names.resolve(
            path,
            &mut || {
                let resolved = self.client.resolve(self.uid, &self.prefix);
                resolved.map(|(mount, fh, _)| (mount, fh)).map_err(sfs_err)
            },
            &mut |(mount, dir), _, leaf| match self.nfs(
                mount,
                &Nfs3Request::Lookup {
                    dir: *dir,
                    name: leaf.to_string(),
                },
            )? {
                Nfs3Reply::Lookup { fh, .. } => Ok((mount.clone(), fh)),
                other => Err(status(other)),
            },
        )
    }

    fn nfs(&self, mount: &Mount, req: &Nfs3Request) -> Result<Nfs3Reply> {
        self.client.call_nfs(mount, self.uid, req).map_err(sfs_err)
    }
}

fn sfs_err(e: ClientError) -> BenchFsError {
    match e {
        ClientError::Nfs(s) => BenchFsError::Nfs(s),
        other => BenchFsError::Sfs(other.to_string()),
    }
}

impl FsBench for SfsBench {
    fn name(&self) -> &str {
        &self.label
    }

    fn clock(&self) -> &SimClock {
        &self.clock
    }

    fn mkdir(&self, path: &str) -> Result<()> {
        self.clock.advance_ns(SYSCALL_NS);
        let (dir, leaf) = split(path);
        let (mount, dfh) = self.handle_of(dir)?;
        match self.nfs(
            &mount,
            &Nfs3Request::Mkdir {
                dir: dfh,
                name: leaf.to_string(),
                attrs: Sattr3 {
                    mode: Some(0o755),
                    ..Default::default()
                },
            },
        )? {
            Nfs3Reply::Mkdir { fh, .. } => {
                self.names.insert(path, (mount, fh));
                Ok(())
            }
            other => Err(status(other)),
        }
    }

    fn create(&self, path: &str) -> Result<()> {
        self.clock.advance_ns(SYSCALL_NS);
        let (dir, leaf) = split(path);
        let (mount, dfh) = self.handle_of(dir)?;
        match self.nfs(
            &mount,
            &Nfs3Request::Create {
                dir: dfh,
                name: leaf.to_string(),
                attrs: Sattr3 {
                    mode: Some(0o644),
                    ..Default::default()
                },
            },
        )? {
            Nfs3Reply::Create { fh, .. } => {
                self.names.insert(path, (mount, fh));
                self.cache.remove(path);
                Ok(())
            }
            Nfs3Reply::Error {
                status: Status::Exist,
                ..
            } => Ok(()),
            other => Err(status(other)),
        }
    }

    fn write(&self, path: &str, offset: u64, data: &[u8]) -> Result<()> {
        self.clock.advance_ns(SYSCALL_NS);
        let (mount, fh) = self.handle_of(path)?;
        // Write-behind: the data is queued and rides out as part of a
        // pipelined window; any failure surfaces at the next barrier
        // (flush, or the next synchronous RPC on the mount).
        self.client
            .write_behind(&mount, self.uid, &fh, offset, data.to_vec())
            .map_err(sfs_err)?;
        self.cache.remove(path);
        Ok(())
    }

    fn read(&self, path: &str, offset: u64, len: usize) -> Result<Vec<u8>> {
        self.clock.advance_ns(SYSCALL_NS);
        let (mount, fh) = self.handle_of(path)?;
        let attr = self
            .client
            .getattr(&mount, self.uid, &fh)
            .map_err(sfs_err)?;
        self.cache.read(path, attr.mtime, offset, len, || {
            // Large files stream through the client's read-ahead path:
            // sequential access keeps a whole pipeline window of READs
            // in flight.
            let stream = || {
                let read = self.client.read(&mount, self.uid, &fh, offset, len as u32);
                read.map(|(data, _eof)| data).map_err(sfs_err)
            };
            fetch(fh, attr.size, |req| self.nfs(&mount, req), stream)
        })
    }

    fn stat(&self, path: &str) -> Result<u64> {
        self.clock.advance_ns(SYSCALL_NS);
        let (mount, fh) = self.handle_of(path)?;
        self.client
            .getattr(&mount, self.uid, &fh)
            .map(|a| a.size)
            .map_err(sfs_err)
    }

    fn open(&self, path: &str) -> Result<u64> {
        self.clock.advance_ns(SYSCALL_NS);
        let (mount, fh) = self.handle_of(path)?;
        // Leases + invalidation callbacks replace close-to-open
        // revalidation: while the lease is live, no RPC is needed.
        let attr = self
            .client
            .getattr(&mount, self.uid, &fh)
            .map_err(sfs_err)?;
        self.client
            .access(&mount, self.uid, &fh, 0x3f)
            .map_err(sfs_err)?;
        Ok(attr.size)
    }

    fn unlink(&self, path: &str) -> Result<()> {
        self.clock.advance_ns(SYSCALL_NS);
        let (dir, leaf) = split(path);
        let (mount, dfh) = self.handle_of(dir)?;
        self.names.remove(path);
        self.cache.remove(path);
        match self.nfs(
            &mount,
            &Nfs3Request::Remove {
                dir: dfh,
                name: leaf.to_string(),
            },
        )? {
            Nfs3Reply::Remove { .. } => Ok(()),
            other => Err(status(other)),
        }
    }

    fn flush(&self, path: &str) -> Result<()> {
        self.clock.advance_ns(SYSCALL_NS);
        let (mount, fh) = self.handle_of(path)?;
        // call_nfs barriers first, so the COMMIT cannot pass queued
        // write-behind data.
        match self.nfs(
            &mount,
            &Nfs3Request::Commit {
                fh,
                offset: 0,
                count: 0,
            },
        )? {
            Nfs3Reply::Commit { .. } => Ok(()),
            other => Err(status(other)),
        }
    }

    fn chown_fail(&self, path: &str) -> Result<()> {
        self.clock.advance_ns(SYSCALL_NS);
        let (mount, fh) = self.handle_of(path)?;
        match self.nfs(
            &mount,
            &Nfs3Request::SetAttr {
                fh,
                attrs: Sattr3 {
                    uid: Some(1),
                    ..Default::default()
                },
            },
        )? {
            Nfs3Reply::Error {
                status: Status::Perm,
                ..
            }
            | Nfs3Reply::Error {
                status: Status::Acces,
                ..
            } => Ok(()),
            other => Err(status(other)),
        }
    }

    fn set_pipeline_window(&self, window: usize) {
        self.client.set_pipeline_window(window);
    }

    fn rpcs(&self) -> u64 {
        self.client.network_rpcs()
    }

    fn drop_caches(&self) {
        self.cache.clear();
        self.names.clear();
    }
}

fn split(path: &str) -> (&str, &str) {
    match path.rfind('/') {
        Some(i) => (&path[..i], &path[i + 1..]),
        None => ("", path),
    }
}

#[cfg(test)]
mod tests {
    use sfs_sim::{FaultKind, FaultPlan};

    use crate::calib::{System, Testbed};
    use crate::world::WorldSpec;

    #[test]
    fn the_kernel_nfs_client_takes_only_the_reply_its_call_was_sent() {
        // A reply corrupted in flight fails the transport's checksum,
        // another call's reply the RPC xid: both count as lost, and the
        // client retransmits instead of decoding garbage or another
        // call's results.
        let plan = FaultPlan::from_spec("seed=11,corrupt=100,reorder=100").unwrap();
        for system in [System::NfsUdp, System::NfsTcp] {
            let bed = Testbed::build(system, &WorldSpec::bench().faulted(Some(&plan)));
            let path = format!("{}/f", bed.prefix);
            bed.fs.create(&path).unwrap();
            for i in 0..100 {
                assert_eq!(bed.fs.chown_fail(&path), Ok(()), "{system:?} call {i}");
            }
        }
        for kind in [FaultKind::Corrupt, FaultKind::Reorder] {
            assert!(plan.events().iter().any(|e| e.kind == kind), "{kind:?}");
        }
    }

    #[test]
    fn a_path_with_and_without_its_leading_slash_is_one_cache_entry() {
        for system in [System::NfsUdp, System::Sfs] {
            let bed = Testbed::build(system, &WorldSpec::bench());
            let (fs, bare) = (&bed.fs, format!("{}/f", bed.prefix));
            let (bare, slashed) = (bare.trim_start_matches('/'), format!("/{bare}"));
            fs.create(&slashed).unwrap();
            fs.write(&slashed, 0, b"first").unwrap();
            assert!(fs.stat(bare).is_ok(), "{system:?}");
            // A new file under the same name: no cache may keep the old
            // one's handle under either spelling.
            fs.unlink(&slashed).unwrap();
            fs.create(&slashed).unwrap();
            fs.write(&slashed, 0, b"second").unwrap();
            fs.flush(&slashed).unwrap();
            // Past the NFS attribute timeout, so the stat goes to the
            // server with whatever handle the name cache holds.
            bed.clock.advance_ns(4_000_000_000);
            assert_eq!(fs.stat(bare), Ok(6), "{system:?}");
        }
    }

    #[test]
    fn a_stat_after_an_unflushed_write_sees_its_size() {
        // Sprite LFS's close-stat: the write is still queued write-behind
        // on SFS when the stat is served from the CREATE's lease.
        for system in [System::NfsUdp, System::NfsTcp, System::Sfs] {
            let bed = Testbed::build(system, &WorldSpec::bench());
            let path = format!("{}/f", bed.prefix);
            bed.fs.create(&path).unwrap();
            bed.fs.write(&path, 0, b"hello").unwrap();
            assert_eq!(bed.fs.stat(&path), Ok(5), "{system:?}");
            bed.fs.write(&path, 3, b"p!").unwrap();
            assert_eq!(bed.fs.stat(&path), Ok(5), "{system:?}: an overwrite");
            bed.fs.write(&path, 5, b", world").unwrap();
            assert_eq!(bed.fs.stat(&path), Ok(12), "{system:?}");
            bed.fs.flush(&path).unwrap();
            assert_eq!(bed.fs.stat(&path), Ok(12), "{system:?}: once flushed");
        }
    }
}
