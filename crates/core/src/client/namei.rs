//! Names and files (§2.3, §2.4): resolving `/sfs/...` pathnames —
//! automounting self-certifying components, handing everything else to
//! the user's agent, following symlinks — and the whole-file
//! operations a kernel would issue on top of that.
//!
//! Owns no state of its own beyond the per-agent `referenced` view.
//! Mounts through `session`, reads attributes and data through `cache`,
//! and sends every other call through `rpc`'s [`SfsClient::call_nfs`].

use std::collections::BTreeSet;
use std::sync::Arc;

use sfs_nfs3::proto::{Fattr3, FileHandle, Nfs3Reply, Nfs3Request, Sattr3, Status};
use sfs_proto::pathname::{PathError, SelfCertifyingPath};
use sfs_vfs::FileType;
use sfs_xdr::Xdr;

use super::{ClientError, Mount, SfsClient, MAX_SYMLINK_DEPTH, STREAM_CHUNK};

impl SfsClient {
    /// Resolves an absolute `/sfs/...` path for `uid`, automounting and
    /// following symlinks (with agent interposition for
    /// non-self-certifying names). Returns the mount, handle, and
    /// attributes.
    pub fn resolve(
        &self,
        uid: u32,
        path: &str,
    ) -> Result<(Arc<Mount>, FileHandle, Fattr3), ClientError> {
        self.resolve_depth(uid, path.to_string(), 0)
    }

    fn resolve_depth(
        &self,
        uid: u32,
        path: String,
        depth: usize,
    ) -> Result<(Arc<Mount>, FileHandle, Fattr3), ClientError> {
        if depth > MAX_SYMLINK_DEPTH {
            return Err(ClientError::SymlinkLoop);
        }
        let rest = path
            .strip_prefix("/sfs/")
            .ok_or(ClientError::Path(PathError::BadFormat))?;
        let (first, remainder) = match rest.find('/') {
            Some(i) => (&rest[..i], &rest[i..]),
            None => (rest, ""),
        };
        // Self-certifying component, or a name the agent must map?
        let sc_path = match SelfCertifyingPath::parse_dir_name(first) {
            Ok(p) => p,
            Err(_) => {
                // Consult the agent (§2.3). The agent lock must not be
                // held while we do file I/O on its behalf — resolving a
                // certification-path directory may recursively mount.
                let agent = self.agent(uid);
                let mut target = agent.lock().resolve_link(first);
                if target.is_none() {
                    let dirs = agent.lock().cert_paths().to_vec();
                    for dir in dirs {
                        let full = format!("{}/{}", dir.trim_end_matches('/'), first);
                        if let Ok(t) = self.readlink_abs(uid, &full, depth + 1) {
                            // Cache as an on-the-fly link (§2.3).
                            agent.lock().create_link(first, &t);
                            target = Some(t);
                            break;
                        }
                    }
                }
                if target.is_none() {
                    // Last resort: the external-PKI name hook (§2.4).
                    // (Bind the result first: an `if let` scrutinee's
                    // lock guard would otherwise live through the body
                    // and deadlock on the re-lock.)
                    let hook_target = agent.lock().run_name_hook(first);
                    if let Some(t) = hook_target {
                        agent.lock().create_link(first, &t);
                        target = Some(t);
                    }
                }
                let Some(target) = target else {
                    return Err(ClientError::Nfs(Status::NoEnt));
                };
                return self.resolve_depth(uid, format!("{target}{remainder}"), depth + 1);
            }
        };
        let mount = self.mount(uid, &sc_path)?;
        let mut cur_fh = mount.root();
        let mut cur_attr = self.getattr(&mount, uid, &cur_fh)?;
        let components: Vec<&str> = remainder.split('/').filter(|c| !c.is_empty()).collect();
        for (i, comp) in components.iter().enumerate() {
            let reply = self.call_nfs(
                &mount,
                uid,
                &Nfs3Request::Lookup {
                    dir: cur_fh.clone(),
                    name: comp.to_string(),
                },
            )?;
            let (fh, attr) = match reply {
                Nfs3Reply::Lookup { fh, attr, .. } => {
                    let a = match attr.attr {
                        Some(a) => a,
                        None => self.getattr(&mount, uid, &fh)?,
                    };
                    (fh, a)
                }
                other => return Err(ClientError::unexpected(other)),
            };
            if attr.ftype == FileType::Symlink {
                let target = self.readlink_fh(&mount, uid, &fh)?;
                let tail = components[i + 1..].join("/");
                let next = if target.starts_with('/') {
                    if tail.is_empty() {
                        target
                    } else {
                        format!("{target}/{tail}")
                    }
                } else {
                    // Relative symlink: resolve against the current
                    // directory by rebuilding the remaining path.
                    let prefix: String = components[..i].join("/");
                    let base = format!("/sfs/{}/{}", sc_path.dir_name(), prefix);
                    if tail.is_empty() {
                        format!("{base}/{target}")
                    } else {
                        format!("{base}/{target}/{tail}")
                    }
                };
                return self.resolve_depth(uid, next, depth + 1);
            }
            cur_fh = fh;
            cur_attr = attr;
        }
        Ok((mount, cur_fh, cur_attr))
    }

    fn readlink_fh(&self, mount: &Mount, uid: u32, fh: &FileHandle) -> Result<String, ClientError> {
        match self.call_nfs(mount, uid, &Nfs3Request::ReadLink { fh: fh.clone() })? {
            Nfs3Reply::ReadLink { target, .. } => Ok(target),
            other => Err(ClientError::unexpected(other)),
        }
    }

    fn readlink_abs(&self, uid: u32, path: &str, depth: usize) -> Result<String, ClientError> {
        // Resolve the parent, then LOOKUP + READLINK the leaf without
        // following it.
        let (dir, leaf) = match path.rfind('/') {
            Some(i) => (&path[..i], &path[i + 1..]),
            None => return Err(ClientError::Path(PathError::BadFormat)),
        };
        let (mount, dir_fh, _) = self.resolve_depth(uid, dir.to_string(), depth)?;
        match self.call_nfs(
            &mount,
            uid,
            &Nfs3Request::Lookup {
                dir: dir_fh,
                name: leaf.to_string(),
            },
        )? {
            Nfs3Reply::Lookup { fh, .. } => self.readlink_fh(&mount, uid, &fh),
            other => Err(ClientError::unexpected(other)),
        }
    }

    /// Reads a symlink target at an absolute path (no following).
    pub fn readlink(&self, uid: u32, path: &str) -> Result<String, ClientError> {
        self.readlink_abs(uid, path, 0)
    }

    /// Checks whether a mounted file system has moved (§2.4 forwarding
    /// pointers): reads the well-known `/.forward` file and validates the
    /// signed pointer against the old pathname. Returns the new pathname
    /// when a valid pointer exists. Callers must consult revocation first
    /// — a revocation certificate always overrules a forwarding pointer.
    pub fn check_forwarding(
        &self,
        uid: u32,
        old_path: &SelfCertifyingPath,
    ) -> Result<Option<SelfCertifyingPath>, ClientError> {
        let file = format!("{}/.forward", old_path.full_path());
        let bytes = match self.read_file(uid, &file) {
            Ok(b) => b,
            Err(ClientError::Nfs(Status::NoEnt)) => return Ok(None),
            Err(e) => return Err(e),
        };
        let ptr = sfs_proto::revoke::ForwardingPointer::from_xdr(&bytes)
            .map_err(|e| ClientError::Protocol(e.to_string()))?;
        if ptr.forwards(old_path) {
            Ok(Some(ptr.new_path))
        } else {
            Err(ClientError::Protocol("invalid forwarding pointer".into()))
        }
    }

    /// Lists the `/sfs` directory as seen by `uid`'s agent: only
    /// referenced self-certifying names plus the agent's dynamic links
    /// ("the client hides pathnames that have never been accessed under a
    /// particular agent", §2.3).
    pub fn list_sfs(&self, uid: u32) -> Vec<String> {
        let mut names: BTreeSet<String> = self
            .referenced
            .lock()
            .get(&uid)
            .cloned()
            .unwrap_or_default();
        let agent = self.agent(uid);
        for (name, _) in agent.lock().links() {
            names.insert(name.to_string());
        }
        names.into_iter().collect()
    }

    /// `pwd` support (§2.4 secure bookmarks): the full self-certifying
    /// pathname of a mount plus a relative directory.
    pub fn pwd(&self, mount: &Mount, rel: &str) -> String {
        if rel.is_empty() {
            mount.path.full_path()
        } else {
            format!("{}/{}", mount.path.full_path(), rel.trim_matches('/'))
        }
    }

    // ----- Convenience file operations (what the kernel would issue) ----

    /// LOOKUPs `leaf` in `dir` and truncates what it finds, returning the
    /// handle — or `None` when there is no such file yet.
    fn lookup_truncated(
        &self,
        mount: &Mount,
        uid: u32,
        dir: &FileHandle,
        leaf: &str,
    ) -> Result<Option<FileHandle>, ClientError> {
        let lookup = Nfs3Request::Lookup {
            dir: dir.clone(),
            name: leaf.to_string(),
        };
        match self.call_nfs(mount, uid, &lookup)? {
            Nfs3Reply::Lookup { fh, .. } => {
                let truncate = Nfs3Request::SetAttr {
                    fh: fh.clone(),
                    attrs: Sattr3 {
                        size: Some(0),
                        ..Default::default()
                    },
                };
                self.call_nfs(mount, uid, &truncate)?;
                Ok(Some(fh))
            }
            Nfs3Reply::Error {
                status: Status::NoEnt,
                ..
            } => Ok(None),
            other => Err(ClientError::unexpected(other)),
        }
    }

    /// Creates (or truncates) a file and writes `data`.
    pub fn write_file(&self, uid: u32, path: &str, data: &[u8]) -> Result<(), ClientError> {
        let (dir, leaf) = split_parent(path)?;
        let (mount, dir_fh, _) = self.resolve(uid, dir)?;
        let fh = match self.lookup_truncated(&mount, uid, &dir_fh, leaf)? {
            Some(fh) => fh,
            None => {
                let create = Nfs3Request::Create {
                    dir: dir_fh.clone(),
                    name: leaf.to_string(),
                    attrs: Sattr3 {
                        mode: Some(0o644),
                        ..Default::default()
                    },
                };
                match self.call_nfs(&mount, uid, &create)? {
                    Nfs3Reply::Create { fh, .. } => fh,
                    // NFS retry semantics: LOOKUP just said NoEnt, so
                    // Exist can only mean an earlier transmission of this
                    // CREATE executed but its reply was lost and the call
                    // reissued after a rekey. The file is there — fetch
                    // its handle and truncate, as if LOOKUP had won.
                    Nfs3Reply::Error {
                        status: Status::Exist,
                        ..
                    } => self
                        .lookup_truncated(&mount, uid, &dir_fh, leaf)?
                        .ok_or(ClientError::Nfs(Status::NoEnt))?,
                    other => return Err(ClientError::unexpected(other)),
                }
            }
        };
        // Stream the data out in write-behind chunks — up to a pipeline
        // window of WRITEs rides the wire at once — then barrier: this
        // is the close(), nothing is outstanding when it returns.
        let mut offset = 0u64;
        for chunk in data.chunks(STREAM_CHUNK) {
            self.write_behind(&mount, uid, &fh, offset, chunk.to_vec())?;
            offset += chunk.len() as u64;
        }
        self.barrier(&mount)
    }

    /// Reads a whole file.
    pub fn read_file(&self, uid: u32, path: &str) -> Result<Vec<u8>, ClientError> {
        let (mount, fh, attr) = self.resolve(uid, path)?;
        let mut out = Vec::with_capacity(attr.size as usize);
        let mut offset = 0u64;
        loop {
            let (data, eof) = self.read(&mount, uid, &fh, offset, STREAM_CHUNK as u32)?;
            offset += data.len() as u64;
            let done = eof || data.is_empty();
            out.extend_from_slice(&data);
            if done {
                return Ok(out);
            }
        }
    }

    /// Creates a directory.
    pub fn mkdir(&self, uid: u32, path: &str) -> Result<(), ClientError> {
        let (dir, leaf) = split_parent(path)?;
        let (mount, dir_fh, _) = self.resolve(uid, dir)?;
        match self.call_nfs(
            &mount,
            uid,
            &Nfs3Request::Mkdir {
                dir: dir_fh,
                name: leaf.to_string(),
                attrs: Sattr3 {
                    mode: Some(0o755),
                    ..Default::default()
                },
            },
        )? {
            Nfs3Reply::Mkdir { .. } => Ok(()),
            other => Err(ClientError::unexpected(other)),
        }
    }

    /// Creates a symlink (the key-management primitive of §2.4).
    pub fn symlink(&self, uid: u32, path: &str, target: &str) -> Result<(), ClientError> {
        let (dir, leaf) = split_parent(path)?;
        let (mount, dir_fh, _) = self.resolve(uid, dir)?;
        match self.call_nfs(
            &mount,
            uid,
            &Nfs3Request::Symlink {
                dir: dir_fh,
                name: leaf.to_string(),
                target: target.to_string(),
            },
        )? {
            Nfs3Reply::Symlink { .. } => Ok(()),
            other => Err(ClientError::unexpected(other)),
        }
    }

    /// Removes a file.
    pub fn remove(&self, uid: u32, path: &str) -> Result<(), ClientError> {
        let (dir, leaf) = split_parent(path)?;
        let (mount, dir_fh, _) = self.resolve(uid, dir)?;
        match self.call_nfs(
            &mount,
            uid,
            &Nfs3Request::Remove {
                dir: dir_fh,
                name: leaf.to_string(),
            },
        )? {
            Nfs3Reply::Remove { .. } => Ok(()),
            other => Err(ClientError::unexpected(other)),
        }
    }

    /// Lists a directory (names only).
    pub fn readdir(&self, uid: u32, path: &str) -> Result<Vec<String>, ClientError> {
        let (mount, fh, _) = self.resolve(uid, path)?;
        let mut names = Vec::new();
        let mut cookie = 0;
        loop {
            match self.call_nfs(
                &mount,
                uid,
                &Nfs3Request::ReadDir {
                    dir: fh.clone(),
                    cookie,
                    count: 64,
                    plus: false,
                },
            )? {
                Nfs3Reply::ReadDir { entries, eof, .. } => {
                    for e in entries {
                        cookie = e.cookie;
                        names.push(e.name);
                    }
                    if eof {
                        return Ok(names);
                    }
                }
                other => return Err(ClientError::unexpected(other)),
            }
        }
    }
}

fn split_parent(path: &str) -> Result<(&str, &str), ClientError> {
    let path = path.trim_end_matches('/');
    match path.rfind('/') {
        Some(i) if i > 0 => Ok((&path[..i], &path[i + 1..])),
        _ => Err(ClientError::Path(PathError::BadFormat)),
    }
}
