//! Names and files (§2.3, §2.4): resolving `/sfs/...` pathnames —
//! automounting self-certifying components, handing everything else to
//! the user's agent, following symlinks — and the whole-file
//! operations a kernel would issue on top of that.
//!
//! Owns no state of its own beyond the per-agent `referenced` view.
//! Mounts through `session`, reads attributes and data through `cache`,
//! and sends every other call through `rpc`'s `call_ref`, the borrowing
//! form of [`SfsClient::call_nfs`].

use std::collections::BTreeSet;
use std::sync::Arc;

use sfs_nfs3::proto::{Fattr3, FileHandle, Nfs3Reply, Nfs3Request, Sattr3, Status};
use sfs_proto::pathname::{PathError, SelfCertifyingPath};
use sfs_vfs::FileType;
use sfs_xdr::Xdr;

use super::{ClientError, Mount, SfsClient, MAX_SYMLINK_DEPTH, STREAM_CHUNK};
use crate::agent::Agent;

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
        self.resolve_depth(uid, path, 0)
    }

    fn resolve_depth(
        &self,
        uid: u32,
        path: &str,
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
        let sc_path = match SelfCertifyingPath::split_dir_name(first) {
            Ok(p) => p,
            Err(_) => {
                // Consult the agent (§2.3): its policy, our file I/O.
                let target = Agent::map_name(&self.agent(uid), first, |dir, name| {
                    let full = format!("{}/{}", dir.trim_end_matches('/'), name);
                    self.readlink_abs(uid, &full, depth + 1).ok()
                });
                let Some(target) = target else {
                    return Err(ClientError::Nfs(Status::NoEnt));
                };
                return self.resolve_depth(uid, &format!("{target}{remainder}"), depth + 1);
            }
        };
        let mount = self.mount_key(uid, &sc_path)?;
        let mut cur_fh = mount.root();
        let mut cur_attr = self.getattr(&mount, uid, &cur_fh)?;
        // Each component is looked up by a borrow of `remainder`; `rest`
        // is what the walk has yet to look up.
        let mut rest = remainder;
        loop {
            let at = rest.trim_start_matches('/');
            if at.is_empty() {
                break;
            }
            let (comp, tail) = at.split_at(at.find('/').unwrap_or(at.len()));
            rest = tail;
            let reply = self.call_ref(
                &mount,
                uid,
                Nfs3Request::Lookup {
                    dir: cur_fh,
                    name: comp,
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
                let tail = components(rest);
                let next = if target.starts_with('/') {
                    if tail.is_empty() {
                        target
                    } else {
                        format!("{target}/{tail}")
                    }
                } else {
                    // Relative symlink: resolve against the current
                    // directory by rebuilding the remaining path.
                    let prefix = components(&remainder[..remainder.len() - at.len()]);
                    let base = format!("/sfs/{}/{}", mount.path.dir_name(), prefix);
                    if tail.is_empty() {
                        format!("{base}/{target}")
                    } else {
                        format!("{base}/{target}/{tail}")
                    }
                };
                return self.resolve_depth(uid, &next, depth + 1);
            }
            cur_fh = fh;
            cur_attr = attr;
        }
        Ok((mount, cur_fh, cur_attr))
    }

    fn readlink_fh(&self, mount: &Mount, uid: u32, fh: &FileHandle) -> Result<String, ClientError> {
        match self.call_nfs(mount, uid, &Nfs3Request::ReadLink { fh: *fh })? {
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
        let (mount, dir_fh, _) = self.resolve_depth(uid, dir, depth)?;
        match self.call_ref(
            &mount,
            uid,
            Nfs3Request::Lookup {
                dir: dir_fh,
                name: leaf,
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
            .into_iter()
            .flatten()
            .map(SelfCertifyingPath::dir_name)
            .collect();
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
            dir: *dir,
            name: leaf,
        };
        match self.call_ref(mount, uid, lookup)? {
            Nfs3Reply::Lookup { fh, .. } => {
                let truncate = Nfs3Request::SetAttr {
                    fh,
                    attrs: Sattr3 {
                        size: Some(0),
                        ..Default::default()
                    },
                };
                self.call_ref(mount, uid, truncate)?;
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
                    dir: dir_fh,
                    name: leaf,
                    attrs: Sattr3 {
                        mode: Some(0o644),
                        ..Default::default()
                    },
                };
                match self.call_ref(&mount, uid, create)? {
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
        // window of WRITEs rides the wire at once — and wait for every
        // reply: this is the close(), nothing is outstanding when it
        // returns.
        self.write_chunks(&mount, uid, &fh, data, STREAM_CHUNK)
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

    /// Removes a file.
    pub fn remove(&self, uid: u32, path: &str) -> Result<(), ClientError> {
        let (dir, leaf) = split_parent(path)?;
        let (mount, dir_fh, _) = self.resolve(uid, dir)?;
        match self.call_ref(
            &mount,
            uid,
            Nfs3Request::Remove {
                dir: dir_fh,
                name: leaf,
            },
        )? {
            Nfs3Reply::Remove { .. } => Ok(()),
            other => Err(ClientError::unexpected(other)),
        }
    }
}

/// The non-empty components of `path`, joined by single slashes.
fn components(path: &str) -> String {
    let parts: Vec<&str> = path.split('/').filter(|c| !c.is_empty()).collect();
    parts.join("/")
}

fn split_parent(path: &str) -> Result<(&str, &str), ClientError> {
    let path = path.trim_end_matches('/');
    match path.rfind('/') {
        Some(i) if i > 0 => Ok((&path[..i], &path[i + 1..])),
        _ => Err(ClientError::Path(PathError::BadFormat)),
    }
}
