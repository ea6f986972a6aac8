//! The NFS3 server over a [`Vfs`].
//!
//! This plays the role of the kernel NFS server that the SFS read-write
//! server relays to (§3), and is also used directly as the NFS baseline in
//! the benchmarks. It supports the two SFS extensions from §3.3: attribute
//! leases and server→client invalidation callbacks ("The server does not
//! wait for invalidations to be acknowledged; consistency does not need to
//! be perfect, just better than NFS 3").

use std::collections::HashSet;
use std::sync::Arc;

use sfs_telemetry::sync::Mutex;
use sfs_telemetry::Telemetry;
use sfs_vfs::{AccessMode, Attr, Credentials, FsError, Ino, Vfs};

use crate::proto::{
    DirEntry, FileHandle, Nfs3Reply, Nfs3Request, Nfs3RequestRef, PostOpAttr, StableHow, Status,
};

/// ACCESS mask bits (RFC 1813).
mod access {
    /// Read file data / readdir.
    pub(crate) const READ: u32 = 0x01;
    /// Look up names in a directory.
    pub(crate) const LOOKUP: u32 = 0x02;
    /// Modify existing data.
    pub(crate) const MODIFY: u32 = 0x04;
    /// Append/extend.
    pub(crate) const EXTEND: u32 = 0x08;
    /// Delete entries.
    pub(crate) const DELETE: u32 = 0x10;
    /// Execute.
    pub(crate) const EXECUTE: u32 = 0x20;
}

/// A sink receiving invalidation callbacks for leased file handles.
pub(crate) type InvalidationSink = Arc<dyn Fn(FileHandle) + Send + Sync>;

/// The NFS3 server.
#[derive(Clone)]
pub struct Nfs3Server {
    vfs: Vfs,
    /// Lease duration granted on attributes; zero disables the SFS
    /// extension (plain NFS3 behaviour).
    lease_ns: u64,
    /// Inodes whose attributes are out on lease.
    leased: Arc<Mutex<HashSet<Ino>>>,
    /// Where invalidations are delivered.
    sink: Arc<Mutex<Option<InvalidationSink>>>,
    /// Tracing sink, shared across clones so it can be attached after the
    /// server has been embedded (e.g. inside an `SfsServer`).
    tel: Arc<Mutex<Telemetry>>,
}

impl Nfs3Server {
    /// Creates a server exporting `vfs` with no leases (plain NFS3).
    pub fn new(vfs: Vfs) -> Self {
        Nfs3Server {
            vfs,
            lease_ns: 0,
            leased: Arc::new(Mutex::new(HashSet::new())),
            sink: Arc::new(Mutex::new(None)),
            tel: Arc::new(Mutex::new(Telemetry::disabled())),
        }
    }

    /// Attaches a tracing sink; per-procedure spans and latency
    /// histograms are stamped with the exported file system's clock.
    pub fn set_telemetry(&self, tel: &Telemetry) {
        *self.tel.lock() = tel.clone().with_clock(self.vfs.clock().clone());
    }

    /// Enables the SFS lease extension with the given duration.
    pub fn with_leases(mut self, lease_ns: u64) -> Self {
        self.lease_ns = lease_ns;
        self
    }

    /// Registers the callback sink for lease invalidations.
    pub fn set_invalidation_sink(&self, sink: InvalidationSink) {
        *self.sink.lock() = Some(sink);
    }

    /// The exported file system.
    pub fn vfs(&self) -> &Vfs {
        &self.vfs
    }

    /// The root file handle of the export.
    pub fn root_handle(&self) -> FileHandle {
        self.encode_handle(self.vfs.root())
    }

    /// Encodes an inode as a file handle: fsid ‖ ino (16 bytes).
    pub(crate) fn encode_handle(&self, ino: Ino) -> FileHandle {
        let mut bytes = [0u8; 16];
        bytes[..8].copy_from_slice(&self.vfs.fsid().to_be_bytes());
        bytes[8..].copy_from_slice(&ino.to_be_bytes());
        FileHandle::from(bytes)
    }

    /// Decodes and validates a file handle.
    pub fn decode_handle(&self, fh: &FileHandle) -> Result<Ino, Status> {
        let bytes = fh.as_bytes();
        if bytes.len() != 16 {
            return Err(Status::BadHandle);
        }
        let fsid = u64::from_be_bytes(bytes[..8].try_into().expect("8 of 16 bytes"));
        if fsid != self.vfs.fsid() {
            return Err(Status::BadHandle);
        }
        Ok(u64::from_be_bytes(
            bytes[8..].try_into().expect("8 of 16 bytes"),
        ))
    }

    fn post_op(&self, ino: Ino) -> PostOpAttr {
        match self.vfs.getattr(ino) {
            Ok(a) => self.lease(ino, a),
            Err(_) => PostOpAttr::none(),
        }
    }

    /// `attr` as post-operation attributes, put out on lease when the
    /// SFS extension is on.
    fn lease(&self, ino: Ino, attr: Attr) -> PostOpAttr {
        if self.lease_ns > 0 {
            self.leased.lock().insert(ino);
            PostOpAttr::leased(attr.into(), self.lease_ns)
        } else {
            PostOpAttr::plain(attr.into())
        }
    }

    /// Emits an invalidation callback if `ino`'s attributes are out on
    /// lease (fire-and-forget, per §3.3).
    fn invalidate(&self, ino: Ino) {
        if self.lease_ns == 0 {
            return;
        }
        if self.leased.lock().remove(&ino) {
            self.tel.lock().count("server", "nfs3.invalidations", 1);
            if let Some(sink) = &*self.sink.lock() {
                sink(self.encode_handle(ino));
            }
        }
    }

    fn err<D>(&self, status: Status) -> Nfs3Reply<D> {
        Nfs3Reply::Error {
            status,
            dir_attr: PostOpAttr::none(),
        }
    }

    /// Handles one NFS3 request under `creds`, under a per-procedure
    /// span, with per-procedure service-time histograms: [`Self::serve`]
    /// with the reply's READ data copied out.
    pub fn handle(&self, creds: &Credentials, req: &Nfs3Request) -> Nfs3Reply {
        let tel = self.tel.lock().clone();
        self.serve(&tel, creds, &req.borrowed(), |reply| {
            reply.map_data(<[u8]>::to_vec)
        })
    }

    /// The one handler: serves `req` under `creds`, reporting into `tel`
    /// (a relay already holds a handle onto the sink and clock this
    /// server was given, so a relayed request takes no lock to find
    /// them), and hands the reply to `reply` once the call's span and
    /// service time are recorded. A READ's data is the file's own bytes,
    /// lent for the length of `reply` — which therefore runs under the
    /// file system's lock and must not call back into it — so a caller
    /// that only encodes the reply copies them once, into its frame.
    pub fn serve<R>(
        &self,
        tel: &Telemetry,
        creds: &Credentials,
        req: &Nfs3RequestRef<'_>,
        reply: impl FnOnce(Nfs3Reply<&[u8]>) -> R,
    ) -> R {
        let name = proc_name(req);
        let start = tel.now_ns();
        let span = tel.span("server", "nfs3", name);
        let done = |answer: Nfs3Reply<&[u8]>| {
            drop(span);
            tel.count("server", "nfs3.calls", 1);
            tel.record("server", name, tel.now_ns().saturating_sub(start));
            reply(answer)
        };
        let &Nfs3Request::Read { fh, offset, count } = req else {
            return done(self.try_handle(creds, req).unwrap_or_else(|s| self.err(s)));
        };
        let mut done = Some(done);
        let read = self.decode_handle(&fh).and_then(|ino| {
            self.vfs
                .read_with(creds, ino, offset, count as usize, |data, eof, attr| {
                    let attr = self.lease(ino, attr);
                    done.take().expect("one reply")(Nfs3Reply::Read { data, eof, attr })
                })
                .map_err(Status::from)
        });
        read.unwrap_or_else(|status| done.take().expect("one reply")(self.err(status)))
    }

    /// Every procedure but READ, which [`Self::serve`] answers inside
    /// the file system's lock.
    fn try_handle(
        &self,
        creds: &Credentials,
        req: &Nfs3RequestRef<'_>,
    ) -> Result<Nfs3Reply<&'static [u8]>, Status> {
        let map = |e: FsError| -> Status { e.into() };
        Ok(match req {
            Nfs3Request::Null => Nfs3Reply::Null,
            Nfs3Request::GetAttr { fh } => {
                let ino = self.decode_handle(fh)?;
                let attr = self.vfs.getattr(ino).map_err(map)?;
                if self.lease_ns > 0 {
                    self.leased.lock().insert(ino);
                }
                Nfs3Reply::GetAttr {
                    attr: attr.into(),
                    lease_ns: self.lease_ns,
                }
            }
            Nfs3Request::SetAttr { fh, attrs } => {
                let ino = self.decode_handle(fh)?;
                self.vfs.setattr(creds, ino, (*attrs).into()).map_err(map)?;
                self.invalidate(ino);
                Ok::<_, Status>(Nfs3Reply::SetAttr {
                    attr: self.post_op(ino),
                })?
            }
            Nfs3Request::Lookup { dir, name } => {
                let dino = self.decode_handle(dir)?;
                let (ino, _) = self.vfs.lookup(creds, dino, name).map_err(map)?;
                Nfs3Reply::Lookup {
                    fh: self.encode_handle(ino),
                    attr: self.post_op(ino),
                    dir_attr: self.post_op(dino),
                }
            }
            Nfs3Request::Access { fh, mask } => {
                let ino = self.decode_handle(fh)?;
                let attr = self.vfs.getattr(ino).map_err(map)?;
                let mut granted = 0;
                if attr.permits(creds, AccessMode::Read) {
                    granted |= access::READ;
                }
                if attr.permits(creds, AccessMode::Write) {
                    granted |= access::MODIFY | access::EXTEND | access::DELETE;
                }
                if attr.permits(creds, AccessMode::Execute) {
                    granted |= access::EXECUTE | access::LOOKUP;
                }
                Nfs3Reply::Access {
                    granted: granted & mask,
                    attr: self.post_op(ino),
                }
            }
            Nfs3Request::ReadLink { fh } => {
                let ino = self.decode_handle(fh)?;
                let target = self.vfs.readlink(ino).map_err(map)?;
                Nfs3Reply::ReadLink {
                    target,
                    attr: self.post_op(ino),
                }
            }
            Nfs3Request::Read { .. } => unreachable!("READ is served in the file system's lock"),
            Nfs3Request::Write {
                fh,
                offset,
                stable,
                data,
            } => {
                let ino = self.decode_handle(fh)?;
                self.vfs
                    .write(creds, ino, *offset, data, *stable == StableHow::FileSync)
                    .map_err(map)?;
                self.invalidate(ino);
                Nfs3Reply::Write {
                    count: data.len() as u32,
                    committed: *stable,
                    attr: self.post_op(ino),
                }
            }
            Nfs3Request::Create { dir, name, attrs } => {
                let dino = self.decode_handle(dir)?;
                let mode = attrs.mode.unwrap_or(0o644);
                let (ino, _) = self.vfs.create(creds, dino, name, mode).map_err(map)?;
                self.invalidate(dino);
                Nfs3Reply::Create {
                    fh: self.encode_handle(ino),
                    attr: self.post_op(ino),
                    dir_attr: self.post_op(dino),
                }
            }
            Nfs3Request::Mkdir { dir, name, attrs } => {
                let dino = self.decode_handle(dir)?;
                let mode = attrs.mode.unwrap_or(0o755);
                let (ino, _) = self.vfs.mkdir(creds, dino, name, mode).map_err(map)?;
                self.invalidate(dino);
                Nfs3Reply::Mkdir {
                    fh: self.encode_handle(ino),
                    attr: self.post_op(ino),
                    dir_attr: self.post_op(dino),
                }
            }
            Nfs3Request::Symlink { dir, name, target } => {
                let dino = self.decode_handle(dir)?;
                let (ino, _) = self.vfs.symlink(creds, dino, name, target).map_err(map)?;
                self.invalidate(dino);
                Nfs3Reply::Symlink {
                    fh: self.encode_handle(ino),
                    attr: self.post_op(ino),
                    dir_attr: self.post_op(dino),
                }
            }
            Nfs3Request::Remove { dir, name } => {
                let dino = self.decode_handle(dir)?;
                // Invalidate the victim before it goes stale.
                if let Ok((victim, _)) = self.vfs.lookup(creds, dino, name) {
                    self.invalidate(victim);
                }
                self.vfs.remove(creds, dino, name).map_err(map)?;
                self.invalidate(dino);
                Nfs3Reply::Remove {
                    dir_attr: self.post_op(dino),
                }
            }
            Nfs3Request::Rmdir { dir, name } => {
                let dino = self.decode_handle(dir)?;
                if let Ok((victim, _)) = self.vfs.lookup(creds, dino, name) {
                    self.invalidate(victim);
                }
                self.vfs.rmdir(creds, dino, name).map_err(map)?;
                self.invalidate(dino);
                Nfs3Reply::Rmdir {
                    dir_attr: self.post_op(dino),
                }
            }
            Nfs3Request::Rename {
                from_dir,
                from_name,
                to_dir,
                to_name,
            } => {
                let fdino = self.decode_handle(from_dir)?;
                let tdino = self.decode_handle(to_dir)?;
                self.vfs
                    .rename(creds, fdino, from_name, tdino, to_name)
                    .map_err(map)?;
                self.invalidate(fdino);
                self.invalidate(tdino);
                Nfs3Reply::Rename {
                    from_dir_attr: self.post_op(fdino),
                    to_dir_attr: self.post_op(tdino),
                }
            }
            Nfs3Request::Link { fh, dir, name } => {
                let ino = self.decode_handle(fh)?;
                let dino = self.decode_handle(dir)?;
                self.vfs.link(creds, ino, dino, name).map_err(map)?;
                self.invalidate(ino);
                self.invalidate(dino);
                Nfs3Reply::Link {
                    attr: self.post_op(ino),
                    dir_attr: self.post_op(dino),
                }
            }
            Nfs3Request::ReadDir {
                dir,
                cookie,
                count,
                plus,
            } => {
                let dino = self.decode_handle(dir)?;
                // The cookie counts entries already returned.
                let (all, _) = self
                    .vfs
                    .readdir(creds, dino, None, usize::MAX)
                    .map_err(map)?;
                let per_page = (*count as usize).max(1);
                let start = *cookie as usize;
                let page: Vec<DirEntry> = all
                    .iter()
                    .skip(start)
                    .take(per_page)
                    .enumerate()
                    .map(|(i, (name, ino))| DirEntry {
                        fileid: *ino,
                        name: name.clone(),
                        cookie: (start + i + 1) as u64,
                        plus: if *plus {
                            Some((self.encode_handle(*ino), self.post_op(*ino)))
                        } else {
                            None
                        },
                    })
                    .collect();
                let eof = start + page.len() >= all.len();
                Nfs3Reply::ReadDir {
                    entries: page,
                    eof,
                    dir_attr: self.post_op(dino),
                }
            }
            Nfs3Request::FsStat { root } => {
                self.decode_handle(root)?;
                Nfs3Reply::FsStat {
                    total_bytes: 9 * 1024 * 1024 * 1024,
                    free_bytes: 8 * 1024 * 1024 * 1024,
                    total_files: self.vfs.inode_count() as u64,
                }
            }
            Nfs3Request::FsInfo { root } => {
                self.decode_handle(root)?;
                Nfs3Reply::FsInfo {
                    rtmax: 32768,
                    wtmax: 32768,
                    dtpref: 8192,
                }
            }
            Nfs3Request::PathConf { fh } => {
                self.decode_handle(fh)?;
                Nfs3Reply::PathConf {
                    name_max: sfs_vfs::fs::NAME_MAX as u32,
                    linkmax: sfs_vfs::fs::LINK_MAX,
                }
            }
            Nfs3Request::Commit { fh, .. } => {
                let ino = self.decode_handle(fh)?;
                self.vfs.commit();
                Nfs3Reply::Commit {
                    attr: self.post_op(ino),
                }
            }
        })
    }
}

/// RFC 1813 procedure name for a request, used as the span name and the
/// service-time histogram key.
fn proc_name<N, D>(req: &Nfs3Request<N, D>) -> &'static str {
    match req {
        Nfs3Request::Null => "NULL",
        Nfs3Request::GetAttr { .. } => "GETATTR",
        Nfs3Request::SetAttr { .. } => "SETATTR",
        Nfs3Request::Lookup { .. } => "LOOKUP",
        Nfs3Request::Access { .. } => "ACCESS",
        Nfs3Request::ReadLink { .. } => "READLINK",
        Nfs3Request::Read { .. } => "READ",
        Nfs3Request::Write { .. } => "WRITE",
        Nfs3Request::Create { .. } => "CREATE",
        Nfs3Request::Mkdir { .. } => "MKDIR",
        Nfs3Request::Symlink { .. } => "SYMLINK",
        Nfs3Request::Remove { .. } => "REMOVE",
        Nfs3Request::Rmdir { .. } => "RMDIR",
        Nfs3Request::Rename { .. } => "RENAME",
        Nfs3Request::Link { .. } => "LINK",
        Nfs3Request::ReadDir { plus: false, .. } => "READDIR",
        Nfs3Request::ReadDir { plus: true, .. } => "READDIRPLUS",
        Nfs3Request::FsStat { .. } => "FSSTAT",
        Nfs3Request::FsInfo { .. } => "FSINFO",
        Nfs3Request::PathConf { .. } => "PATHCONF",
        Nfs3Request::Commit { .. } => "COMMIT",
    }
}

impl std::fmt::Debug for Nfs3Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Nfs3Server")
            .field("fsid", &self.vfs.fsid())
            .field("lease_ns", &self.lease_ns)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfs_sim::SimClock;

    fn server() -> Nfs3Server {
        Nfs3Server::new(Vfs::new(7, SimClock::new()))
    }

    fn root() -> Credentials {
        Credentials::root()
    }

    #[test]
    fn create_write_read_via_protocol() {
        let s = server();
        let creds = root();
        let rh = s.root_handle();
        let reply = s.handle(
            &creds,
            &Nfs3Request::Create {
                dir: rh,
                name: "f".into(),
                attrs: Default::default(),
            },
        );
        let fh = match reply {
            Nfs3Reply::Create { fh, .. } => fh,
            other => panic!("{other:?}"),
        };
        let reply = s.handle(
            &creds,
            &Nfs3Request::Write {
                fh,
                offset: 0,
                stable: StableHow::FileSync,
                data: b"hello nfs".to_vec(),
            },
        );
        assert!(matches!(reply, Nfs3Reply::Write { count: 9, .. }));
        let reply = s.handle(
            &creds,
            &Nfs3Request::Read {
                fh,
                offset: 0,
                count: 100,
            },
        );
        match reply {
            Nfs3Reply::Read { data, eof, .. } => {
                assert_eq!(data, b"hello nfs");
                assert!(eof);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn lookup_missing_gives_noent() {
        let s = server();
        let reply = s.handle(
            &root(),
            &Nfs3Request::Lookup {
                dir: s.root_handle(),
                name: "ghost".into(),
            },
        );
        assert_eq!(reply.status(), Status::NoEnt);
    }

    #[test]
    fn bad_handle_rejected() {
        let s = server();
        let reply = s.handle(
            &root(),
            &Nfs3Request::GetAttr {
                fh: FileHandle::from([1, 2, 3]),
            },
        );
        assert_eq!(reply.status(), Status::BadHandle);
        // Wrong fsid.
        let mut fh = s.root_handle();
        fh.as_bytes_mut()[0] ^= 1;
        let reply = s.handle(&root(), &Nfs3Request::GetAttr { fh });
        assert_eq!(reply.status(), Status::BadHandle);
    }

    #[test]
    fn access_mask_respects_permissions() {
        let s = server();
        let creds = root();
        let alice = Credentials::user(1000, 100);
        let reply = s.handle(
            &creds,
            &Nfs3Request::Create {
                dir: s.root_handle(),
                name: "private".into(),
                attrs: crate::proto::Sattr3 {
                    mode: Some(0o600),
                    ..Default::default()
                },
            },
        );
        let fh = match reply {
            Nfs3Reply::Create { fh, .. } => fh,
            other => panic!("{other:?}"),
        };
        let reply = s.handle(&alice, &Nfs3Request::Access { fh, mask: 0x3f });
        match reply {
            Nfs3Reply::Access { granted, .. } => assert_eq!(granted, 0),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn readdir_paginates_with_cookies() {
        let s = server();
        let creds = root();
        for i in 0..7 {
            s.handle(
                &creds,
                &Nfs3Request::Create {
                    dir: s.root_handle(),
                    name: format!("f{i}"),
                    attrs: Default::default(),
                },
            );
        }
        let mut names = Vec::new();
        let mut cookie = 0;
        loop {
            let reply = s.handle(
                &creds,
                &Nfs3Request::ReadDir {
                    dir: s.root_handle(),
                    cookie,
                    count: 3,
                    plus: false,
                },
            );
            match reply {
                Nfs3Reply::ReadDir { entries, eof, .. } => {
                    for e in &entries {
                        names.push(e.name.clone());
                        cookie = e.cookie;
                    }
                    if eof {
                        break;
                    }
                }
                other => panic!("{other:?}"),
            }
        }
        assert_eq!(names.len(), 7);
    }

    #[test]
    fn leases_granted_and_invalidated() {
        let s = Nfs3Server::new(Vfs::new(7, SimClock::new())).with_leases(1_000_000);
        let invalidated: Arc<Mutex<Vec<FileHandle>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = invalidated.clone();
        s.set_invalidation_sink(Arc::new(move |fh| sink.lock().push(fh)));
        let creds = root();
        let reply = s.handle(
            &creds,
            &Nfs3Request::Create {
                dir: s.root_handle(),
                name: "f".into(),
                attrs: Default::default(),
            },
        );
        let fh = match reply {
            Nfs3Reply::Create { fh, .. } => fh,
            other => panic!("{other:?}"),
        };
        // GetAttr grants a lease.
        match s.handle(&creds, &Nfs3Request::GetAttr { fh }) {
            Nfs3Reply::GetAttr { lease_ns, .. } => assert_eq!(lease_ns, 1_000_000),
            other => panic!("{other:?}"),
        }
        // A write invalidates it.
        s.handle(
            &creds,
            &Nfs3Request::Write {
                fh,
                offset: 0,
                stable: StableHow::Unstable,
                data: vec![1],
            },
        );
        assert!(invalidated.lock().contains(&fh));
    }

    #[test]
    fn plain_server_grants_no_lease() {
        let s = server();
        let reply = s.handle(
            &root(),
            &Nfs3Request::GetAttr {
                fh: s.root_handle(),
            },
        );
        match reply {
            Nfs3Reply::GetAttr { lease_ns, .. } => assert_eq!(lease_ns, 0),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn symlink_and_readlink() {
        let s = server();
        let creds = root();
        let reply = s.handle(
            &creds,
            &Nfs3Request::Symlink {
                dir: s.root_handle(),
                name: "sfslink".into(),
                target: "/sfs/host:2222222222222222222222222222222a".into(),
            },
        );
        let fh = match reply {
            Nfs3Reply::Symlink { fh, .. } => fh,
            other => panic!("{other:?}"),
        };
        match s.handle(&creds, &Nfs3Request::ReadLink { fh }) {
            Nfs3Reply::ReadLink { target, .. } => {
                assert!(target.starts_with("/sfs/host:"));
            }
            other => panic!("{other:?}"),
        }
    }
}
