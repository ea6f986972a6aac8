//! Simulated kernel file-system layers.
//!
//! The paper benchmarks application workloads through the whole OS stack:
//! system calls, the kernel page/name/attribute caches, and then one of
//! three transports — the local FFS, the in-kernel NFS3 client, or the
//! kernel NFS3 client talking to the user-level SFS daemons. This module
//! reproduces that stack. The page cache and name cache are shared
//! implementations so that all three systems benefit identically; what
//! differs is exactly what the paper says differs: where attribute caching
//! happens, how many RPCs reach the wire, and what each RPC costs.

use std::collections::HashMap;
use std::sync::Arc;

use sfs::client::{ClientError, SfsClient};
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

/// The whole-file page cache shared by every stack (the kernel's buffer
/// cache). Entries are validated against the file's modification time.
#[derive(Default)]
struct PageCache {
    files: HashMap<String, (u64, Arc<Vec<u8>>)>,
}

impl PageCache {
    fn get(&self, path: &str, mtime: u64) -> Option<Arc<Vec<u8>>> {
        match self.files.get(path) {
            Some((m, data)) if *m == mtime => Some(data.clone()),
            _ => None,
        }
    }

    fn put(&mut self, path: &str, mtime: u64, data: Arc<Vec<u8>>) {
        self.files.insert(path.to_string(), (mtime, data));
    }

    fn invalidate(&mut self, path: &str) {
        self.files.remove(path);
    }
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
pub struct LocalFs {
    vfs: Vfs,
    clock: SimClock,
    creds: Credentials,
    cache: Mutex<PageCache>,
}

impl LocalFs {
    /// Wraps a (disk-attached) file system.
    pub fn new(vfs: Vfs, clock: SimClock) -> Self {
        LocalFs {
            vfs,
            clock,
            creds: Credentials::user(1000, 100),
            cache: Mutex::new(PageCache::default()),
        }
    }

    /// The underlying file system (for seeding).
    pub fn vfs(&self) -> &Vfs {
        &self.vfs
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
        self.cache.lock().invalidate(path);
        Ok(())
    }

    fn read(&self, path: &str, offset: u64, len: usize) -> Result<Vec<u8>> {
        self.clock.advance_ns(SYSCALL_NS);
        let ino = self.resolve(path)?;
        let attr = self.vfs.getattr(ino).map_err(BenchFsError::Local)?;
        if let Some(data) = self.cache.lock().get(path, attr.mtime) {
            let start = (offset as usize).min(data.len());
            let end = (start + len).min(data.len());
            return Ok(data[start..end].to_vec());
        }
        let whole = self
            .vfs
            .read_file(&Credentials::root(), ino)
            .map_err(BenchFsError::Local)?;
        let whole = Arc::new(whole);
        self.cache.lock().put(path, attr.mtime, whole.clone());
        let start = (offset as usize).min(whole.len());
        let end = (start + len).min(whole.len());
        Ok(whole[start..end].to_vec())
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
        self.cache.lock().invalidate(path);
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
        *self.cache.lock() = PageCache::default();
    }
}

// ------------------------------------------------------------------ NFS

/// The in-kernel NFS3 client baseline with the classic heuristic
/// attribute cache (a fixed timeout, no leases, no callbacks).
pub struct KernelNfs {
    label: String,
    clock: SimClock,
    wire: Wire,
    /// The buffers every RPC crosses `wire` through.
    exchange: Mutex<Exchange>,
    server: Nfs3Server,
    creds: Credentials,
    cpu: CpuCosts,
    /// dnlc: path → file handle.
    names: Mutex<HashMap<String, FileHandle>>,
    /// Attribute cache: path → (size, mtime, fetched-at).
    attrs: Mutex<HashMap<String, (u64, u64, SimTime)>>,
    /// Attribute cache timeout (classic NFS heuristic, ~3 s).
    attr_timeout_ns: u64,
    cache: Mutex<PageCache>,
    /// Paths whose ACCESS rights have been checked (cleared when caches
    /// drop or attributes change).
    access_checked: Mutex<std::collections::HashSet<String>>,
}

impl KernelNfs {
    /// Builds an NFS client over `wire` against `server`.
    pub fn new(
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
            names: Mutex::new(HashMap::new()),
            attrs: Mutex::new(HashMap::new()),
            attr_timeout_ns: 3_000_000_000,
            cache: Mutex::new(PageCache::default()),
            access_checked: Mutex::new(std::collections::HashSet::new()),
        }
    }

    /// The exported file system (for seeding).
    pub fn vfs(&self) -> &Vfs {
        self.server.vfs()
    }

    /// One wire call with bounded retransmission: like the in-kernel
    /// clients, a lost request or reply is simply retransmitted (NFS3
    /// procedures are idempotent or protected by the server's reply
    /// semantics), bounded so a dead server eventually surfaces as an
    /// I/O error.
    fn wire_call(
        &self,
        wire_len: usize,
        mut server: impl FnMut(Vec<u8>) -> Vec<u8>,
    ) -> Result<Vec<u8>> {
        const MAX_RETRANSMITS: u32 = 8;
        let mut attempt = 0;
        let mut x = self.exchange.lock();
        loop {
            match self.wire.call(vec![0u8; wire_len], &mut x, &mut server) {
                Ok(r) => return Ok(r),
                Err(WireError::Timeout) if attempt < MAX_RETRANSMITS => attempt += 1,
                Err(_) => return Err(BenchFsError::Nfs(Status::Io)),
            }
        }
    }

    /// One NFS RPC over the wire, with kernel-side processing charges at
    /// both ends.
    fn rpc(&self, req: &Nfs3Request) -> Result<Nfs3Reply> {
        self.cpu.charge_rpc(&self.clock);
        let args = req.encode_args();
        let proc = req.proc();
        let wire_len = args.len() + 40; // RPC header overhead
        let results = self.wire_call(wire_len, |_| {
            self.cpu.charge_rpc(&self.clock);
            let reply = self.server.handle(&self.creds, req);
            let bytes = reply.encode_results();
            self.cpu.charge_server_copy(&self.clock, bytes.len());
            bytes
        })?;
        Nfs3Reply::decode_results(proc, &results).map_err(|_| BenchFsError::Nfs(Status::Io))
    }

    fn lookup(&self, path: &str) -> Result<FileHandle> {
        if let Some(fh) = self.names.lock().get(path) {
            return Ok(*fh);
        }
        // Walk from the root, consulting the dnlc per component.
        let mut cur = self.server.root_handle();
        let mut sofar = String::new();
        for comp in path.split('/').filter(|c| !c.is_empty()) {
            sofar.push('/');
            sofar.push_str(comp);
            if let Some(fh) = self.names.lock().get(sofar.trim_start_matches('/')) {
                cur = *fh;
                continue;
            }
            match self.rpc(&Nfs3Request::Lookup {
                dir: cur,
                name: comp.to_string(),
            })? {
                Nfs3Reply::Lookup { fh, attr, .. } => {
                    if let Some(a) = attr.attr {
                        self.attrs.lock().insert(
                            sofar.trim_start_matches('/').to_string(),
                            (a.size, a.mtime, self.clock.now()),
                        );
                    }
                    self.names
                        .lock()
                        .insert(sofar.trim_start_matches('/').to_string(), fh);
                    cur = fh;
                }
                Nfs3Reply::Error { status, .. } => return Err(BenchFsError::Nfs(status)),
                other => return Err(BenchFsError::Nfs(unexpected(&other))),
            }
        }
        Ok(cur)
    }

    fn fresh_attr(&self, path: &str) -> Option<(u64, u64)> {
        let attrs = self.attrs.lock();
        let (size, mtime, at) = attrs.get(path)?;
        if self.clock.now().as_nanos() - at.as_nanos() < self.attr_timeout_ns {
            Some((*size, *mtime))
        } else {
            None
        }
    }

    fn getattr_rpc(&self, path: &str) -> Result<(u64, u64)> {
        let fh = self.lookup(path)?;
        match self.rpc(&Nfs3Request::GetAttr { fh })? {
            Nfs3Reply::GetAttr { attr, .. } => {
                self.attrs
                    .lock()
                    .insert(path.to_string(), (attr.size, attr.mtime, self.clock.now()));
                Ok((attr.size, attr.mtime))
            }
            Nfs3Reply::Error { status, .. } => Err(BenchFsError::Nfs(status)),
            other => Err(BenchFsError::Nfs(unexpected(&other))),
        }
    }
}

fn unexpected(_r: &Nfs3Reply) -> Status {
    Status::Io
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
        match self.rpc(&Nfs3Request::Mkdir {
            dir: dfh,
            name: leaf.to_string(),
            attrs: Sattr3 {
                mode: Some(0o755),
                ..Default::default()
            },
        })? {
            Nfs3Reply::Mkdir { fh, .. } => {
                self.names.lock().insert(path.to_string(), fh);
                Ok(())
            }
            Nfs3Reply::Error { status, .. } => Err(BenchFsError::Nfs(status)),
            other => Err(BenchFsError::Nfs(unexpected(&other))),
        }
    }

    fn create(&self, path: &str) -> Result<()> {
        self.clock.advance_ns(SYSCALL_NS);
        let (dir, leaf) = split(path);
        let dfh = self.lookup(dir)?;
        match self.rpc(&Nfs3Request::Create {
            dir: dfh,
            name: leaf.to_string(),
            attrs: Sattr3 {
                mode: Some(0o644),
                ..Default::default()
            },
        })? {
            Nfs3Reply::Create { fh, .. } => {
                self.names.lock().insert(path.to_string(), fh);
                self.cache.lock().invalidate(path);
                Ok(())
            }
            Nfs3Reply::Error {
                status: Status::Exist,
                ..
            } => Ok(()),
            Nfs3Reply::Error { status, .. } => Err(BenchFsError::Nfs(status)),
            other => Err(BenchFsError::Nfs(unexpected(&other))),
        }
    }

    fn write(&self, path: &str, offset: u64, data: &[u8]) -> Result<()> {
        self.clock.advance_ns(SYSCALL_NS);
        let fh = self.lookup(path)?;
        match self.rpc(&Nfs3Request::Write {
            fh,
            offset,
            stable: StableHow::Unstable,
            data: data.to_vec(),
        })? {
            Nfs3Reply::Write { attr, .. } => {
                if let Some(a) = attr.attr {
                    self.attrs
                        .lock()
                        .insert(path.to_string(), (a.size, a.mtime, self.clock.now()));
                }
                self.cache.lock().invalidate(path);
                Ok(())
            }
            Nfs3Reply::Error { status, .. } => Err(BenchFsError::Nfs(status)),
            other => Err(BenchFsError::Nfs(unexpected(&other))),
        }
    }

    fn read(&self, path: &str, offset: u64, len: usize) -> Result<Vec<u8>> {
        self.clock.advance_ns(SYSCALL_NS);
        // Validate the page cache against (possibly cached) attributes.
        let (size, mtime) = match self.fresh_attr(path) {
            Some(v) => v,
            None => self.getattr_rpc(path)?,
        };
        if let Some(data) = self.cache.lock().get(path, mtime) {
            let start = (offset as usize).min(data.len());
            let end = (start + len).min(data.len());
            return Ok(data[start..end].to_vec());
        }
        // Page-cache miss: read the requested range over the wire. Whole
        // small files get cached; large sequential reads stream through.
        let fh = self.lookup(path)?;
        if size <= 65536 {
            let mut whole = Vec::with_capacity(size as usize);
            let mut off = 0u64;
            loop {
                match self.rpc(&Nfs3Request::Read {
                    fh,
                    offset: off,
                    count: 8192,
                })? {
                    Nfs3Reply::Read { data, eof, .. } => {
                        off += data.len() as u64;
                        whole.extend_from_slice(&data);
                        if eof || data.is_empty() {
                            break;
                        }
                    }
                    Nfs3Reply::Error { status, .. } => return Err(BenchFsError::Nfs(status)),
                    other => return Err(BenchFsError::Nfs(unexpected(&other))),
                }
            }
            let whole = Arc::new(whole);
            self.cache.lock().put(path, mtime, whole.clone());
            let start = (offset as usize).min(whole.len());
            let end = (start + len).min(whole.len());
            Ok(whole[start..end].to_vec())
        } else {
            match self.rpc(&Nfs3Request::Read {
                fh,
                offset,
                count: len as u32,
            })? {
                Nfs3Reply::Read { data, .. } => Ok(data),
                Nfs3Reply::Error { status, .. } => Err(BenchFsError::Nfs(status)),
                other => Err(BenchFsError::Nfs(unexpected(&other))),
            }
        }
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
        if !self.access_checked.lock().contains(path) {
            let fh = self.lookup(path)?;
            match self.rpc(&Nfs3Request::Access { fh, mask: 0x3f })? {
                Nfs3Reply::Access { .. } => {
                    self.access_checked.lock().insert(path.to_string());
                }
                Nfs3Reply::Error { status, .. } => return Err(BenchFsError::Nfs(status)),
                other => return Err(BenchFsError::Nfs(unexpected(&other))),
            }
        }
        Ok(size)
    }

    fn unlink(&self, path: &str) -> Result<()> {
        self.clock.advance_ns(SYSCALL_NS);
        let (dir, leaf) = split(path);
        let dfh = self.lookup(dir)?;
        self.names.lock().remove(path);
        self.attrs.lock().remove(path);
        self.cache.lock().invalidate(path);
        self.access_checked.lock().remove(path);
        match self.rpc(&Nfs3Request::Remove {
            dir: dfh,
            name: leaf.to_string(),
        })? {
            Nfs3Reply::Remove { .. } => Ok(()),
            Nfs3Reply::Error { status, .. } => Err(BenchFsError::Nfs(status)),
            other => Err(BenchFsError::Nfs(unexpected(&other))),
        }
    }

    fn flush(&self, path: &str) -> Result<()> {
        self.clock.advance_ns(SYSCALL_NS);
        let fh = self.lookup(path)?;
        match self.rpc(&Nfs3Request::Commit {
            fh,
            offset: 0,
            count: 0,
        })? {
            Nfs3Reply::Commit { .. } => Ok(()),
            Nfs3Reply::Error { status, .. } => Err(BenchFsError::Nfs(status)),
            other => Err(BenchFsError::Nfs(unexpected(&other))),
        }
    }

    fn chown_fail(&self, path: &str) -> Result<()> {
        self.clock.advance_ns(SYSCALL_NS);
        let fh = self.lookup(path)?;
        // Issue as a non-owner user (failures are never cached).
        let user = Credentials::user(4321, 4321);
        self.cpu.charge_rpc(&self.clock);
        let req = Nfs3Request::SetAttr {
            fh,
            attrs: Sattr3 {
                uid: Some(1),
                ..Default::default()
            },
        };
        let results = self.wire_call(130, |_| {
            self.cpu.charge_rpc(&self.clock);
            let reply = self.server.handle(&user, &req);
            reply.encode_results()
        })?;
        match Nfs3Reply::decode_results(req.proc(), &results)
            .map_err(|_| BenchFsError::Nfs(Status::Io))?
        {
            Nfs3Reply::Error {
                status: Status::Perm,
                ..
            } => Ok(()),
            other => Err(BenchFsError::Nfs(unexpected(&other))),
        }
    }

    fn rpcs(&self) -> u64 {
        self.wire.round_trips()
    }

    fn drop_caches(&self) {
        *self.cache.lock() = PageCache::default();
        self.attrs.lock().clear();
        self.names.lock().clear();
        self.access_checked.lock().clear();
    }
}

// ------------------------------------------------------------------ SFS

/// SFS through the kernel: the page/name caches sit in the kernel exactly
/// as for NFS, but attribute caching is the SFS client's lease-based one
/// and every RPC goes through the user-level daemons and the secure
/// channel.
pub struct SfsBench {
    label: String,
    clock: SimClock,
    client: Arc<SfsClient>,
    uid: u32,
    /// Absolute prefix: `/sfs/Location:HostID`.
    prefix: String,
    names: Mutex<HashMap<String, (Arc<sfs::client::Mount>, FileHandle)>>,
    cache: Mutex<PageCache>,
}

impl SfsBench {
    /// Wraps an SFS client pointed at `prefix` (a mounted self-certifying
    /// path).
    pub fn new(label: &str, client: Arc<SfsClient>, uid: u32, prefix: &str) -> Self {
        SfsBench {
            label: label.to_string(),
            clock: client.clock().clone(),
            client,
            uid,
            prefix: prefix.trim_end_matches('/').to_string(),
            names: Mutex::new(HashMap::new()),
            cache: Mutex::new(PageCache::default()),
        }
    }

    /// The wrapped client.
    pub fn client(&self) -> &Arc<SfsClient> {
        &self.client
    }

    /// Resolves a path to a handle with per-component caching (the
    /// kernel's dnlc sits in front of sfscd exactly as it does for NFS).
    fn handle_of(&self, path: &str) -> Result<(Arc<sfs::client::Mount>, FileHandle)> {
        let path = path.trim_matches('/');
        if let Some(entry) = self.names.lock().get(path) {
            return Ok(entry.clone());
        }
        if path.is_empty() {
            let (mount, fh, _) = self
                .client
                .resolve(self.uid, &self.prefix)
                .map_err(sfs_err)?;
            self.names.lock().insert(String::new(), (mount.clone(), fh));
            return Ok((mount, fh));
        }
        let (dir, leaf) = split(path);
        let (mount, dir_fh) = self.handle_of(dir)?;
        match self.nfs(
            &mount,
            &Nfs3Request::Lookup {
                dir: dir_fh,
                name: leaf.to_string(),
            },
        )? {
            Nfs3Reply::Lookup { fh, .. } => {
                self.names
                    .lock()
                    .insert(path.to_string(), (mount.clone(), fh));
                Ok((mount, fh))
            }
            Nfs3Reply::Error { status, .. } => Err(BenchFsError::Nfs(status)),
            other => Err(BenchFsError::Nfs(unexpected(&other))),
        }
    }

    fn nfs(&self, mount: &sfs::client::Mount, req: &Nfs3Request) -> Result<Nfs3Reply> {
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
                self.names
                    .lock()
                    .insert(path.trim_matches('/').to_string(), (mount, fh));
                Ok(())
            }
            Nfs3Reply::Error { status, .. } => Err(BenchFsError::Nfs(status)),
            other => Err(BenchFsError::Nfs(unexpected(&other))),
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
                self.names
                    .lock()
                    .insert(path.trim_matches('/').to_string(), (mount, fh));
                self.cache.lock().invalidate(path);
                Ok(())
            }
            Nfs3Reply::Error {
                status: Status::Exist,
                ..
            } => Ok(()),
            Nfs3Reply::Error { status, .. } => Err(BenchFsError::Nfs(status)),
            other => Err(BenchFsError::Nfs(unexpected(&other))),
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
        self.cache.lock().invalidate(path);
        Ok(())
    }

    fn read(&self, path: &str, offset: u64, len: usize) -> Result<Vec<u8>> {
        self.clock.advance_ns(SYSCALL_NS);
        let (mount, fh) = self.handle_of(path)?;
        let attr = self
            .client
            .getattr(&mount, self.uid, &fh)
            .map_err(sfs_err)?;
        if let Some(data) = self.cache.lock().get(path, attr.mtime) {
            let start = (offset as usize).min(data.len());
            let end = (start + len).min(data.len());
            return Ok(data[start..end].to_vec());
        }
        if attr.size <= 65536 {
            let mut whole = Vec::with_capacity(attr.size as usize);
            let mut off = 0u64;
            loop {
                match self.nfs(
                    &mount,
                    &Nfs3Request::Read {
                        fh,
                        offset: off,
                        count: 8192,
                    },
                )? {
                    Nfs3Reply::Read { data, eof, .. } => {
                        off += data.len() as u64;
                        whole.extend_from_slice(&data);
                        if eof || data.is_empty() {
                            break;
                        }
                    }
                    Nfs3Reply::Error { status, .. } => return Err(BenchFsError::Nfs(status)),
                    other => return Err(BenchFsError::Nfs(unexpected(&other))),
                }
            }
            let whole = Arc::new(whole);
            self.cache.lock().put(path, attr.mtime, whole.clone());
            let start = (offset as usize).min(whole.len());
            let end = (start + len).min(whole.len());
            Ok(whole[start..end].to_vec())
        } else {
            // Large files stream through the client's read-ahead path:
            // sequential access keeps a whole pipeline window of READs
            // in flight.
            let (data, _eof) = self
                .client
                .read(&mount, self.uid, &fh, offset, len as u32)
                .map_err(sfs_err)?;
            Ok(data)
        }
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
        self.names.lock().remove(path.trim_matches('/'));
        self.cache.lock().invalidate(path);
        match self.nfs(
            &mount,
            &Nfs3Request::Remove {
                dir: dfh,
                name: leaf.to_string(),
            },
        )? {
            Nfs3Reply::Remove { .. } => Ok(()),
            Nfs3Reply::Error { status, .. } => Err(BenchFsError::Nfs(status)),
            other => Err(BenchFsError::Nfs(unexpected(&other))),
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
            Nfs3Reply::Error { status, .. } => Err(BenchFsError::Nfs(status)),
            other => Err(BenchFsError::Nfs(unexpected(&other))),
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
            other => Err(BenchFsError::Nfs(unexpected(&other))),
        }
    }

    fn set_pipeline_window(&self, window: usize) {
        self.client.set_pipeline_window(window);
    }

    fn rpcs(&self) -> u64 {
        self.client.network_rpcs()
    }

    fn drop_caches(&self) {
        *self.cache.lock() = PageCache::default();
        self.names.lock().clear();
    }
}

fn split(path: &str) -> (&str, &str) {
    match path.rfind('/') {
        Some(i) => (&path[..i], &path[i + 1..]),
        None => ("", path),
    }
}
