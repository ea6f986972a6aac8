//! The file-system implementation.
//!
//! A [`Vfs`] is a forest of inodes rooted at a single directory, with
//! FFS-style cost accounting: metadata updates (create, remove, rename,
//! mkdir) are synchronous disk writes; file data goes through write-behind
//! and is flushed on `commit` (NFS3 COMMIT / close). All operations take
//! [`Credentials`] and enforce Unix permissions.

use std::collections::BTreeMap;
use std::sync::Arc;

use sfs_sim::{SimClock, SimDisk};
use sfs_telemetry::sync::Mutex;

use crate::types::{AccessMode, Attr, Credentials, FileType, FsError, FsResult, Ino, SetAttr};

/// Maximum file-name length (FFS's NAME_MAX).
pub const NAME_MAX: usize = 255;

/// Maximum hard-link count (FFS's LINK_MAX).
pub const LINK_MAX: u32 = 32767;

#[derive(Debug, Clone)]
enum Content {
    Regular(Vec<u8>),
    Directory(BTreeMap<String, Ino>),
    Symlink(String),
}

#[derive(Debug, Clone)]
struct Inode {
    mode: u32,
    nlink: u32,
    uid: u32,
    gid: u32,
    atime: u64,
    mtime: u64,
    ctime: u64,
    content: Content,
}

impl Inode {
    fn ftype(&self) -> FileType {
        match self.content {
            Content::Regular(_) => FileType::Regular,
            Content::Directory(_) => FileType::Directory,
            Content::Symlink(_) => FileType::Symlink,
        }
    }

    fn size(&self) -> u64 {
        match &self.content {
            Content::Regular(d) => d.len() as u64,
            Content::Directory(entries) => (entries.len() as u64 + 2) * 32,
            Content::Symlink(target) => target.len() as u64,
        }
    }
}

#[derive(Debug)]
struct VfsInner {
    inodes: BTreeMap<Ino, Inode>,
    next_ino: Ino,
    root: Ino,
}

/// An in-memory Unix file system.
///
/// Clones share state (the handle is cheap to pass between the NFS server
/// and tests).
#[derive(Debug, Clone)]
pub struct Vfs {
    inner: Arc<Mutex<VfsInner>>,
    clock: SimClock,
    disk: Option<SimDisk>,
    /// Exported as the `fsid` in attributes; SFS gives every mount point
    /// its own device number (§3.3).
    fsid: u64,
}

impl Vfs {
    /// Creates a file system with a mode-0755 root owned by root.
    pub fn new(fsid: u64, clock: SimClock) -> Self {
        let mut inodes = BTreeMap::new();
        inodes.insert(
            1,
            Inode {
                mode: 0o755,
                nlink: 2,
                uid: 0,
                gid: 0,
                atime: 0,
                mtime: 0,
                ctime: 0,
                content: Content::Directory(BTreeMap::new()),
            },
        );
        Vfs {
            inner: Arc::new(Mutex::new(VfsInner {
                inodes,
                next_ino: 2,
                root: 1,
            })),
            clock,
            disk: None,
            fsid,
        }
    }

    /// Attaches a simulated disk so operations accrue I/O costs.
    pub fn with_disk(mut self, disk: SimDisk) -> Self {
        self.disk = Some(disk);
        self
    }

    /// The attached simulated disk, if any (clones share state). A
    /// multi-core scheduler uses this to put the disk in tally mode
    /// around dispatch.
    pub fn disk(&self) -> Option<&SimDisk> {
        self.disk.as_ref()
    }

    /// The root inode number.
    pub fn root(&self) -> Ino {
        self.inner.lock().root
    }

    /// The file system id / device number.
    pub fn fsid(&self) -> u64 {
        self.fsid
    }

    /// The clock used for timestamps and disk accounting.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    fn now(&self) -> u64 {
        self.clock.now().as_nanos()
    }

    fn charge_meta_write(&self, ino: Ino) {
        if let Some(d) = &self.disk {
            d.write_sync(ino * 16, 512);
        }
    }

    fn charge_data_write(&self, ino: Ino, off: u64, len: usize, sync: bool) {
        if let Some(d) = &self.disk {
            if sync {
                d.write_sync(ino * 16 + off / 8192, len);
            } else {
                d.write_async(len);
            }
        }
    }

    /// Flushes write-behind data (NFS3 COMMIT).
    pub fn commit(&self) {
        if let Some(d) = &self.disk {
            d.flush();
        }
    }

    fn check_name(name: &str) -> FsResult<()> {
        if name.is_empty() || name == "." || name == ".." || name.contains('/') {
            return Err(FsError::Invalid);
        }
        if name.len() > NAME_MAX {
            return Err(FsError::NameTooLong);
        }
        Ok(())
    }

    fn attr_of(&self, ino: Ino, inode: &Inode) -> Attr {
        Attr {
            ftype: inode.ftype(),
            mode: inode.mode,
            nlink: inode.nlink,
            uid: inode.uid,
            gid: inode.gid,
            size: inode.size(),
            fsid: self.fsid,
            fileid: ino,
            atime: inode.atime,
            mtime: inode.mtime,
            ctime: inode.ctime,
        }
    }

    /// Returns the attributes of `ino`.
    pub fn getattr(&self, ino: Ino) -> FsResult<Attr> {
        let inner = self.inner.lock();
        let inode = inner.inodes.get(&ino).ok_or(FsError::Stale)?;
        Ok(self.attr_of(ino, inode))
    }

    /// Applies a selective attribute update.
    pub fn setattr(&self, creds: &Credentials, ino: Ino, set: SetAttr) -> FsResult<Attr> {
        let now = self.now();
        let mut inner = self.inner.lock();
        let inode = inner.inodes.get_mut(&ino).ok_or(FsError::Stale)?;
        // chmod/chown require ownership; truncation requires write
        // permission; root may do anything.
        let is_owner = creds.is_root() || creds.uid == inode.uid;
        if (set.mode.is_some() || set.uid.is_some() || set.gid.is_some()) && !is_owner {
            return Err(FsError::Perm);
        }
        if let Some(uid) = set.uid {
            if uid != inode.uid && !creds.is_root() {
                return Err(FsError::Perm);
            }
        }
        if set.size.is_some() {
            let attr = self.attr_of(ino, inode);
            if !attr.permits(creds, AccessMode::Write) {
                return Err(FsError::Access);
            }
        }
        if let Some(m) = set.mode {
            inode.mode = m & 0o7777;
        }
        if let Some(u) = set.uid {
            inode.uid = u;
        }
        if let Some(g) = set.gid {
            inode.gid = g;
        }
        if let Some(sz) = set.size {
            match &mut inode.content {
                Content::Regular(data) => data.resize(sz as usize, 0),
                _ => return Err(FsError::IsDir),
            }
            inode.mtime = now;
        }
        if let Some(a) = set.atime {
            inode.atime = a;
        }
        if let Some(m) = set.mtime {
            inode.mtime = m;
        }
        inode.ctime = now;
        let attr = self.attr_of(ino, inode);
        drop(inner);
        self.charge_meta_write(ino);
        Ok(attr)
    }

    /// Checks whether `creds` may access `ino` in the given mode (NFS3
    /// ACCESS).
    pub fn access(&self, creds: &Credentials, ino: Ino, access: AccessMode) -> FsResult<bool> {
        Ok(self.getattr(ino)?.permits(creds, access))
    }

    /// Looks up `name` in directory `dir`.
    pub fn lookup(&self, creds: &Credentials, dir: Ino, name: &str) -> FsResult<(Ino, Attr)> {
        let inner = self.inner.lock();
        let dnode = inner.inodes.get(&dir).ok_or(FsError::Stale)?;
        let dattr = self.attr_of(dir, dnode);
        if dattr.ftype != FileType::Directory {
            return Err(FsError::NotDir);
        }
        if !dattr.permits(creds, AccessMode::Execute) {
            return Err(FsError::Access);
        }
        if name == "." {
            return Ok((dir, dattr));
        }
        let entries = match &dnode.content {
            Content::Directory(e) => e,
            _ => unreachable!("type checked above"),
        };
        let ino = *entries.get(name).ok_or(FsError::NotFound)?;
        let inode = inner.inodes.get(&ino).ok_or(FsError::Stale)?;
        Ok((ino, self.attr_of(ino, inode)))
    }

    /// Resolves a `/`-separated path from the root, following no symlinks
    /// (callers — the SFS client — implement symlink traversal themselves,
    /// which is where agents interpose, §2.3).
    pub fn lookup_path(&self, creds: &Credentials, path: &str) -> FsResult<(Ino, Attr)> {
        let mut cur = self.root();
        let mut attr = self.getattr(cur)?;
        for part in path.split('/').filter(|p| !p.is_empty()) {
            let (ino, a) = self.lookup(creds, cur, part)?;
            cur = ino;
            attr = a;
        }
        Ok((cur, attr))
    }

    fn alloc_inode(
        inner: &mut VfsInner,
        creds: &Credentials,
        mode: u32,
        now: u64,
        content: Content,
    ) -> Ino {
        let ino = inner.next_ino;
        inner.next_ino += 1;
        let nlink = if matches!(content, Content::Directory(_)) {
            2
        } else {
            1
        };
        inner.inodes.insert(
            ino,
            Inode {
                mode: mode & 0o7777,
                nlink,
                uid: creds.uid,
                gid: creds.gids.first().copied().unwrap_or(0),
                atime: now,
                mtime: now,
                ctime: now,
                content,
            },
        );
        ino
    }

    fn dir_insert(
        &self,
        creds: &Credentials,
        dir: Ino,
        name: &str,
        mode: u32,
        content: Content,
    ) -> FsResult<(Ino, Attr)> {
        Self::check_name(name)?;
        let now = self.now();
        let mut inner = self.inner.lock();
        let dnode = inner.inodes.get(&dir).ok_or(FsError::Stale)?;
        let dattr = self.attr_of(dir, dnode);
        if dattr.ftype != FileType::Directory {
            return Err(FsError::NotDir);
        }
        if !dattr.permits(creds, AccessMode::Write) {
            return Err(FsError::Access);
        }
        if let Content::Directory(entries) = &dnode.content {
            if entries.contains_key(name) {
                return Err(FsError::Exists);
            }
        }
        let is_dir = matches!(content, Content::Directory(_));
        let ino = Self::alloc_inode(&mut inner, creds, mode, now, content);
        let dnode = inner.inodes.get_mut(&dir).unwrap();
        if let Content::Directory(entries) = &mut dnode.content {
            entries.insert(name.to_string(), ino);
        }
        dnode.mtime = now;
        dnode.ctime = now;
        if is_dir {
            dnode.nlink += 1;
        }
        let inode = inner.inodes.get(&ino).unwrap();
        let attr = self.attr_of(ino, inode);
        drop(inner);
        // FFS writes the new inode and the directory block synchronously.
        self.charge_meta_write(dir);
        self.charge_meta_write(ino);
        Ok((ino, attr))
    }

    /// Creates a regular file.
    pub fn create(
        &self,
        creds: &Credentials,
        dir: Ino,
        name: &str,
        mode: u32,
    ) -> FsResult<(Ino, Attr)> {
        self.dir_insert(creds, dir, name, mode, Content::Regular(Vec::new()))
    }

    /// Creates a directory.
    pub fn mkdir(
        &self,
        creds: &Credentials,
        dir: Ino,
        name: &str,
        mode: u32,
    ) -> FsResult<(Ino, Attr)> {
        self.dir_insert(creds, dir, name, mode, Content::Directory(BTreeMap::new()))
    }

    /// Creates a symbolic link with the given target string.
    ///
    /// Symlinks are SFS's key-certification primitive: "Symbolic links
    /// assign human-readable names to self-certifying pathnames" (§1).
    pub fn symlink(
        &self,
        creds: &Credentials,
        dir: Ino,
        name: &str,
        target: &str,
    ) -> FsResult<(Ino, Attr)> {
        self.dir_insert(
            creds,
            dir,
            name,
            0o777,
            Content::Symlink(target.to_string()),
        )
    }

    /// Reads a symlink's target.
    pub fn readlink(&self, ino: Ino) -> FsResult<String> {
        let inner = self.inner.lock();
        let inode = inner.inodes.get(&ino).ok_or(FsError::Stale)?;
        match &inode.content {
            Content::Symlink(t) => Ok(t.clone()),
            _ => Err(FsError::NotSymlink),
        }
    }

    /// Creates a hard link to a regular file.
    pub fn link(&self, creds: &Credentials, file: Ino, dir: Ino, name: &str) -> FsResult<Attr> {
        Self::check_name(name)?;
        let now = self.now();
        let mut inner = self.inner.lock();
        let fnode = inner.inodes.get(&file).ok_or(FsError::Stale)?;
        if fnode.ftype() == FileType::Directory {
            return Err(FsError::IsDir);
        }
        if fnode.nlink >= LINK_MAX {
            return Err(FsError::TooManyLinks);
        }
        let dnode = inner.inodes.get(&dir).ok_or(FsError::Stale)?;
        let dattr = self.attr_of(dir, dnode);
        if dattr.ftype != FileType::Directory {
            return Err(FsError::NotDir);
        }
        if !dattr.permits(creds, AccessMode::Write) {
            return Err(FsError::Access);
        }
        if let Content::Directory(entries) = &dnode.content {
            if entries.contains_key(name) {
                return Err(FsError::Exists);
            }
        }
        let dnode = inner.inodes.get_mut(&dir).unwrap();
        if let Content::Directory(entries) = &mut dnode.content {
            entries.insert(name.to_string(), file);
        }
        dnode.mtime = now;
        dnode.ctime = now;
        let fnode = inner.inodes.get_mut(&file).unwrap();
        fnode.nlink += 1;
        fnode.ctime = now;
        let attr = self.attr_of(file, fnode);
        drop(inner);
        self.charge_meta_write(dir);
        self.charge_meta_write(file);
        Ok(attr)
    }

    /// Removes a non-directory entry.
    pub fn remove(&self, creds: &Credentials, dir: Ino, name: &str) -> FsResult<()> {
        self.unlink_common(creds, dir, name, false)
    }

    /// Removes an empty directory.
    pub fn rmdir(&self, creds: &Credentials, dir: Ino, name: &str) -> FsResult<()> {
        self.unlink_common(creds, dir, name, true)
    }

    fn unlink_common(
        &self,
        creds: &Credentials,
        dir: Ino,
        name: &str,
        want_dir: bool,
    ) -> FsResult<()> {
        Self::check_name(name)?;
        let now = self.now();
        let mut inner = self.inner.lock();
        let dnode = inner.inodes.get(&dir).ok_or(FsError::Stale)?;
        let dattr = self.attr_of(dir, dnode);
        if dattr.ftype != FileType::Directory {
            return Err(FsError::NotDir);
        }
        if !dattr.permits(creds, AccessMode::Write) {
            return Err(FsError::Access);
        }
        let entries = match &dnode.content {
            Content::Directory(e) => e,
            _ => unreachable!(),
        };
        let target = *entries.get(name).ok_or(FsError::NotFound)?;
        let tnode = inner.inodes.get(&target).ok_or(FsError::Stale)?;
        let is_dir = tnode.ftype() == FileType::Directory;
        match (want_dir, is_dir) {
            (true, false) => return Err(FsError::NotDir),
            (false, true) => return Err(FsError::IsDir),
            _ => {}
        }
        if is_dir {
            if let Content::Directory(e) = &tnode.content {
                if !e.is_empty() {
                    return Err(FsError::NotEmpty);
                }
            }
        }
        let dnode = inner.inodes.get_mut(&dir).unwrap();
        if let Content::Directory(entries) = &mut dnode.content {
            entries.remove(name);
        }
        dnode.mtime = now;
        dnode.ctime = now;
        if is_dir {
            dnode.nlink -= 1;
            inner.inodes.remove(&target);
        } else {
            let tnode = inner.inodes.get_mut(&target).unwrap();
            tnode.nlink -= 1;
            tnode.ctime = now;
            if tnode.nlink == 0 {
                inner.inodes.remove(&target);
            }
        }
        drop(inner);
        self.charge_meta_write(dir);
        self.charge_meta_write(target);
        Ok(())
    }

    /// Renames `from_dir/from_name` to `to_dir/to_name`, replacing a
    /// compatible existing target.
    pub fn rename(
        &self,
        creds: &Credentials,
        from_dir: Ino,
        from_name: &str,
        to_dir: Ino,
        to_name: &str,
    ) -> FsResult<()> {
        Self::check_name(from_name)?;
        Self::check_name(to_name)?;
        let now = self.now();
        let mut inner = self.inner.lock();
        for d in [from_dir, to_dir] {
            let dnode = inner.inodes.get(&d).ok_or(FsError::Stale)?;
            let dattr = self.attr_of(d, dnode);
            if dattr.ftype != FileType::Directory {
                return Err(FsError::NotDir);
            }
            if !dattr.permits(creds, AccessMode::Write) {
                return Err(FsError::Access);
            }
        }
        let src_ino = match &inner.inodes.get(&from_dir).unwrap().content {
            Content::Directory(e) => *e.get(from_name).ok_or(FsError::NotFound)?,
            _ => unreachable!(),
        };
        let src_is_dir =
            inner.inodes.get(&src_ino).ok_or(FsError::Stale)?.ftype() == FileType::Directory;
        // Handle an existing destination.
        let dst_existing = match &inner.inodes.get(&to_dir).unwrap().content {
            Content::Directory(e) => e.get(to_name).copied(),
            _ => unreachable!(),
        };
        if let Some(dst_ino) = dst_existing {
            if dst_ino == src_ino {
                return Ok(()); // Renaming to itself is a no-op.
            }
            let dnode = inner.inodes.get(&dst_ino).ok_or(FsError::Stale)?;
            let dst_is_dir = dnode.ftype() == FileType::Directory;
            match (src_is_dir, dst_is_dir) {
                (true, false) => return Err(FsError::NotDir),
                (false, true) => return Err(FsError::IsDir),
                (true, true) => {
                    if let Content::Directory(e) = &dnode.content {
                        if !e.is_empty() {
                            return Err(FsError::NotEmpty);
                        }
                    }
                }
                (false, false) => {}
            }
            // Unlink the destination.
            if dst_is_dir {
                inner.inodes.remove(&dst_ino);
                inner.inodes.get_mut(&to_dir).unwrap().nlink -= 1;
            } else {
                let dnode = inner.inodes.get_mut(&dst_ino).unwrap();
                dnode.nlink -= 1;
                if dnode.nlink == 0 {
                    inner.inodes.remove(&dst_ino);
                }
            }
        }
        // Move the entry.
        if let Content::Directory(e) = &mut inner.inodes.get_mut(&from_dir).unwrap().content {
            e.remove(from_name);
        }
        if let Content::Directory(e) = &mut inner.inodes.get_mut(&to_dir).unwrap().content {
            e.insert(to_name.to_string(), src_ino);
        }
        // Fix directory link counts when a directory changes parent.
        if src_is_dir && from_dir != to_dir {
            inner.inodes.get_mut(&from_dir).unwrap().nlink -= 1;
            inner.inodes.get_mut(&to_dir).unwrap().nlink += 1;
        }
        for d in [from_dir, to_dir] {
            let dn = inner.inodes.get_mut(&d).unwrap();
            dn.mtime = now;
            dn.ctime = now;
        }
        drop(inner);
        self.charge_meta_write(from_dir);
        self.charge_meta_write(to_dir);
        Ok(())
    }

    /// Reads up to `len` bytes at `offset`.
    pub fn read(
        &self,
        creds: &Credentials,
        ino: Ino,
        offset: u64,
        len: usize,
    ) -> FsResult<(Vec<u8>, bool)> {
        self.read_with(creds, ino, offset, len, |data, eof, _| (data.to_vec(), eof))
    }

    /// [`Self::read`] without the copy: hands `f` the bytes where they
    /// lie, whether they reach the end of the file, and the file's
    /// attributes after the read. `f` runs under the file system's lock,
    /// so it must not call back into this `Vfs`.
    pub fn read_with<R>(
        &self,
        creds: &Credentials,
        ino: Ino,
        offset: u64,
        len: usize,
        f: impl FnOnce(&[u8], bool, Attr) -> R,
    ) -> FsResult<R> {
        let now = self.now();
        let mut inner = self.inner.lock();
        let inode = inner.inodes.get_mut(&ino).ok_or(FsError::Stale)?;
        let attr = self.attr_of(ino, inode);
        match attr.ftype {
            FileType::Regular => {}
            FileType::Directory => return Err(FsError::IsDir),
            FileType::Symlink => return Err(FsError::Invalid),
        }
        if !attr.permits(creds, AccessMode::Read) {
            return Err(FsError::Access);
        }
        inode.atime = now;
        let attr = self.attr_of(ino, inode);
        let data = match &inode.content {
            Content::Regular(d) => d,
            _ => unreachable!(),
        };
        let start = (offset as usize).min(data.len());
        let end = (start + len).min(data.len());
        Ok(f(&data[start..end], end == data.len(), attr))
    }

    /// Writes `data` at `offset`, extending the file as needed. `stable`
    /// requests a synchronous (NFS3 FILE_SYNC) write.
    pub fn write(
        &self,
        creds: &Credentials,
        ino: Ino,
        offset: u64,
        data: &[u8],
        stable: bool,
    ) -> FsResult<Attr> {
        let now = self.now();
        let mut inner = self.inner.lock();
        let inode = inner.inodes.get_mut(&ino).ok_or(FsError::Stale)?;
        let attr = self.attr_of(ino, inode);
        match attr.ftype {
            FileType::Regular => {}
            FileType::Directory => return Err(FsError::IsDir),
            FileType::Symlink => return Err(FsError::Invalid),
        }
        if !attr.permits(creds, AccessMode::Write) {
            return Err(FsError::Access);
        }
        let content = match &mut inode.content {
            Content::Regular(d) => d,
            _ => unreachable!(),
        };
        // Overwrite what the write overlaps and append the rest; only a
        // hole between the old end and `offset` is zero-filled.
        let at = offset as usize;
        if content.len() < at {
            content.resize(at, 0);
        }
        let overlap = (content.len() - at).min(data.len());
        content[at..at + overlap].copy_from_slice(&data[..overlap]);
        content.extend_from_slice(&data[overlap..]);
        inode.mtime = now;
        inode.ctime = now;
        let attr = self.attr_of(ino, inode);
        drop(inner);
        self.charge_data_write(ino, offset, data.len(), stable);
        Ok(attr)
    }

    /// Lists a directory, returning `(name, ino)` pairs sorted by name,
    /// starting after the cookie `start_after` (empty = from the start).
    pub fn readdir(
        &self,
        creds: &Credentials,
        dir: Ino,
        start_after: Option<&str>,
        max_entries: usize,
    ) -> FsResult<(Vec<(String, Ino)>, bool)> {
        let inner = self.inner.lock();
        let dnode = inner.inodes.get(&dir).ok_or(FsError::Stale)?;
        let dattr = self.attr_of(dir, dnode);
        if dattr.ftype != FileType::Directory {
            return Err(FsError::NotDir);
        }
        if !dattr.permits(creds, AccessMode::Read) {
            return Err(FsError::Access);
        }
        let entries = match &dnode.content {
            Content::Directory(e) => e,
            _ => unreachable!(),
        };
        let mut out = Vec::new();
        let mut eof = true;
        for (name, &ino) in entries.iter() {
            if let Some(after) = start_after {
                if name.as_str() <= after {
                    continue;
                }
            }
            if out.len() == max_entries {
                eof = false;
                break;
            }
            out.push((name.clone(), ino));
        }
        Ok((out, eof))
    }

    /// Total number of live inodes (diagnostics).
    pub fn inode_count(&self) -> usize {
        self.inner.lock().inodes.len()
    }

    /// Convenience for setup code and tests: creates all missing directory
    /// components of `path` as root and returns the final directory inode.
    pub fn mkdir_p(&self, path: &str) -> FsResult<Ino> {
        let root_creds = Credentials::root();
        let mut cur = self.root();
        for part in path.split('/').filter(|p| !p.is_empty()) {
            cur = match self.lookup(&root_creds, cur, part) {
                Ok((ino, attr)) => {
                    if attr.ftype != FileType::Directory {
                        return Err(FsError::NotDir);
                    }
                    ino
                }
                Err(FsError::NotFound) => self.mkdir(&root_creds, cur, part, 0o755)?.0,
                Err(e) => return Err(e),
            };
        }
        Ok(cur)
    }

    /// Convenience: writes a whole file (creating it if needed) as `creds`.
    pub fn write_file(
        &self,
        creds: &Credentials,
        dir: Ino,
        name: &str,
        data: &[u8],
    ) -> FsResult<Ino> {
        let ino = match self.lookup(creds, dir, name) {
            Ok((ino, _)) => ino,
            Err(FsError::NotFound) => self.create(creds, dir, name, 0o644)?.0,
            Err(e) => return Err(e),
        };
        self.setattr(
            creds,
            ino,
            SetAttr {
                size: Some(0),
                ..SetAttr::default()
            },
        )?;
        self.write(creds, ino, 0, data, false)?;
        Ok(ino)
    }

    /// Convenience: reads a whole file.
    pub fn read_file(&self, creds: &Credentials, ino: Ino) -> FsResult<Vec<u8>> {
        let attr = self.getattr(ino)?;
        Ok(self.read(creds, ino, 0, attr.size as usize)?.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fs() -> Vfs {
        Vfs::new(7, SimClock::new())
    }

    fn root_creds() -> Credentials {
        Credentials::root()
    }

    #[test]
    fn create_lookup_read_write() {
        let fs = fs();
        let creds = root_creds();
        let (ino, attr) = fs.create(&creds, fs.root(), "hello.txt", 0o644).unwrap();
        assert_eq!(attr.ftype, FileType::Regular);
        assert_eq!(attr.size, 0);
        fs.write(&creds, ino, 0, b"hello world", false).unwrap();
        let (found, fattr) = fs.lookup(&creds, fs.root(), "hello.txt").unwrap();
        assert_eq!(found, ino);
        assert_eq!(fattr.size, 11);
        let (data, eof) = fs.read(&creds, ino, 0, 100).unwrap();
        assert_eq!(data, b"hello world");
        assert!(eof);
        let (part, eof) = fs.read(&creds, ino, 6, 5).unwrap();
        assert_eq!(part, b"world");
        assert!(eof);
    }

    #[test]
    fn sparse_write_extends_with_zeros() {
        let fs = fs();
        let creds = root_creds();
        let (ino, _) = fs.create(&creds, fs.root(), "sparse", 0o644).unwrap();
        fs.write(&creds, ino, 100, b"x", false).unwrap();
        let (data, _) = fs.read(&creds, ino, 0, 101).unwrap();
        assert_eq!(data.len(), 101);
        assert!(data[..100].iter().all(|&b| b == 0));
        assert_eq!(data[100], b'x');
    }

    #[test]
    fn duplicate_create_rejected() {
        let fs = fs();
        let creds = root_creds();
        fs.create(&creds, fs.root(), "f", 0o644).unwrap();
        assert_eq!(
            fs.create(&creds, fs.root(), "f", 0o644),
            Err(FsError::Exists)
        );
    }

    #[test]
    fn invalid_names_rejected() {
        let fs = fs();
        let creds = root_creds();
        for bad in ["", ".", "..", "a/b"] {
            assert_eq!(
                fs.create(&creds, fs.root(), bad, 0o644),
                Err(FsError::Invalid),
                "{bad:?}"
            );
        }
        let long = "x".repeat(256);
        assert_eq!(
            fs.create(&creds, fs.root(), &long, 0o644),
            Err(FsError::NameTooLong)
        );
    }

    #[test]
    fn mkdir_rmdir() {
        let fs = fs();
        let creds = root_creds();
        let (dir, attr) = fs.mkdir(&creds, fs.root(), "sub", 0o755).unwrap();
        assert_eq!(attr.ftype, FileType::Directory);
        assert_eq!(attr.nlink, 2);
        assert_eq!(fs.getattr(fs.root()).unwrap().nlink, 3);
        fs.create(&creds, dir, "f", 0o644).unwrap();
        assert_eq!(fs.rmdir(&creds, fs.root(), "sub"), Err(FsError::NotEmpty));
        fs.remove(&creds, dir, "f").unwrap();
        fs.rmdir(&creds, fs.root(), "sub").unwrap();
        assert_eq!(fs.getattr(fs.root()).unwrap().nlink, 2);
        assert_eq!(fs.getattr(dir), Err(FsError::Stale));
    }

    #[test]
    fn symlink_readlink() {
        let fs = fs();
        let creds = root_creds();
        let (ino, attr) = fs
            .symlink(&creds, fs.root(), "sfs", "/sfs/sfs.lcs.mit.edu:vefa...")
            .unwrap();
        assert_eq!(attr.ftype, FileType::Symlink);
        assert_eq!(fs.readlink(ino).unwrap(), "/sfs/sfs.lcs.mit.edu:vefa...");
        let (f, _) = fs.create(&creds, fs.root(), "file", 0o644).unwrap();
        assert_eq!(fs.readlink(f), Err(FsError::NotSymlink));
    }

    #[test]
    fn hard_links_share_data_and_count() {
        let fs = fs();
        let creds = root_creds();
        let (ino, _) = fs.create(&creds, fs.root(), "orig", 0o644).unwrap();
        fs.write(&creds, ino, 0, b"shared", false).unwrap();
        let attr = fs.link(&creds, ino, fs.root(), "alias").unwrap();
        assert_eq!(attr.nlink, 2);
        let (alias, _) = fs.lookup(&creds, fs.root(), "alias").unwrap();
        assert_eq!(alias, ino);
        fs.remove(&creds, fs.root(), "orig").unwrap();
        assert_eq!(fs.getattr(ino).unwrap().nlink, 1);
        let (data, _) = fs.read(&creds, ino, 0, 10).unwrap();
        assert_eq!(data, b"shared");
        fs.remove(&creds, fs.root(), "alias").unwrap();
        assert_eq!(fs.getattr(ino), Err(FsError::Stale));
    }

    #[test]
    fn link_to_directory_rejected() {
        let fs = fs();
        let creds = root_creds();
        let (dir, _) = fs.mkdir(&creds, fs.root(), "d", 0o755).unwrap();
        assert_eq!(
            fs.link(&creds, dir, fs.root(), "dlink"),
            Err(FsError::IsDir)
        );
    }

    #[test]
    fn rename_basic_and_replace() {
        let fs = fs();
        let creds = root_creds();
        let (a, _) = fs.create(&creds, fs.root(), "a", 0o644).unwrap();
        fs.write(&creds, a, 0, b"A", false).unwrap();
        let (b, _) = fs.create(&creds, fs.root(), "b", 0o644).unwrap();
        fs.write(&creds, b, 0, b"B", false).unwrap();
        // Replace b with a.
        fs.rename(&creds, fs.root(), "a", fs.root(), "b").unwrap();
        assert_eq!(
            fs.lookup(&creds, fs.root(), "a").unwrap_err(),
            FsError::NotFound
        );
        let (ino, _) = fs.lookup(&creds, fs.root(), "b").unwrap();
        assert_eq!(ino, a);
        assert_eq!(fs.getattr(b), Err(FsError::Stale));
    }

    #[test]
    fn rename_directory_across_parents_fixes_nlink() {
        let fs = fs();
        let creds = root_creds();
        let (p1, _) = fs.mkdir(&creds, fs.root(), "p1", 0o755).unwrap();
        let (p2, _) = fs.mkdir(&creds, fs.root(), "p2", 0o755).unwrap();
        fs.mkdir(&creds, p1, "child", 0o755).unwrap();
        assert_eq!(fs.getattr(p1).unwrap().nlink, 3);
        fs.rename(&creds, p1, "child", p2, "child").unwrap();
        assert_eq!(fs.getattr(p1).unwrap().nlink, 2);
        assert_eq!(fs.getattr(p2).unwrap().nlink, 3);
    }

    #[test]
    fn permissions_enforced_for_non_owner() {
        let fs = fs();
        let alice = Credentials::user(1000, 100);
        let bob = Credentials::user(1001, 101);
        let (dir, _) = fs.mkdir(&root_creds(), fs.root(), "home", 0o777).unwrap();
        let (f, _) = fs.create(&alice, dir, "private", 0o600).unwrap();
        fs.write(&alice, f, 0, b"secret", false).unwrap();
        assert_eq!(fs.read(&bob, f, 0, 10).unwrap_err(), FsError::Access);
        assert_eq!(
            fs.write(&bob, f, 0, b"x", false).unwrap_err(),
            FsError::Access
        );
        // chmod by non-owner rejected.
        assert_eq!(
            fs.setattr(
                &bob,
                f,
                SetAttr {
                    mode: Some(0o777),
                    ..Default::default()
                }
            )
            .unwrap_err(),
            FsError::Perm
        );
        // chown by non-root rejected.
        assert_eq!(
            fs.setattr(
                &alice,
                f,
                SetAttr {
                    uid: Some(1001),
                    ..Default::default()
                }
            )
            .unwrap_err(),
            FsError::Perm
        );
    }

    #[test]
    fn directory_search_permission_needed_for_lookup() {
        let fs = fs();
        let alice = Credentials::user(1000, 100);
        let (dir, _) = fs.mkdir(&root_creds(), fs.root(), "locked", 0o700).unwrap();
        fs.create(&root_creds(), dir, "f", 0o644).unwrap();
        assert_eq!(fs.lookup(&alice, dir, "f").unwrap_err(), FsError::Access);
    }

    #[test]
    fn readdir_pagination() {
        let fs = fs();
        let creds = root_creds();
        for i in 0..10 {
            fs.create(&creds, fs.root(), &format!("f{i:02}"), 0o644)
                .unwrap();
        }
        let (page1, eof1) = fs.readdir(&creds, fs.root(), None, 4).unwrap();
        assert_eq!(page1.len(), 4);
        assert!(!eof1);
        let last = page1.last().unwrap().0.clone();
        let (page2, _) = fs.readdir(&creds, fs.root(), Some(&last), 4).unwrap();
        assert_eq!(page2.len(), 4);
        assert!(page2[0].0 > last);
        let (page3, eof3) = fs
            .readdir(&creds, fs.root(), Some(&page2.last().unwrap().0), 4)
            .unwrap();
        assert_eq!(page3.len(), 2);
        assert!(eof3);
    }

    #[test]
    fn truncate_via_setattr() {
        let fs = fs();
        let creds = root_creds();
        let (ino, _) = fs.create(&creds, fs.root(), "t", 0o644).unwrap();
        fs.write(&creds, ino, 0, b"0123456789", false).unwrap();
        fs.setattr(
            &creds,
            ino,
            SetAttr {
                size: Some(4),
                ..Default::default()
            },
        )
        .unwrap();
        let (data, eof) = fs.read(&creds, ino, 0, 100).unwrap();
        assert_eq!(data, b"0123");
        assert!(eof);
    }

    #[test]
    fn mkdir_p_and_lookup_path() {
        let fs = fs();
        let ino = fs.mkdir_p("/a/b/c").unwrap();
        let (found, attr) = fs.lookup_path(&root_creds(), "/a/b/c").unwrap();
        assert_eq!(found, ino);
        assert_eq!(attr.ftype, FileType::Directory);
        // Idempotent.
        assert_eq!(fs.mkdir_p("/a/b/c").unwrap(), ino);
    }

    #[test]
    fn timestamps_advance_with_clock() {
        let clock = SimClock::new();
        let fs = Vfs::new(1, clock.clone());
        let creds = root_creds();
        let (ino, attr) = fs.create(&creds, fs.root(), "f", 0o644).unwrap();
        let t0 = attr.mtime;
        clock.advance_ns(1000);
        fs.write(&creds, ino, 0, b"x", false).unwrap();
        let attr = fs.getattr(ino).unwrap();
        assert!(attr.mtime > t0);
    }

    #[test]
    fn disk_costs_charged_when_attached() {
        let clock = SimClock::new();
        let disk = sfs_sim::SimDisk::new(clock.clone(), sfs_sim::DiskParams::ibm_18es());
        let fs = Vfs::new(1, clock.clone()).with_disk(disk);
        let creds = root_creds();
        // Metadata update is synchronous: clock advances.
        fs.create(&creds, fs.root(), "f", 0o644).unwrap();
        assert!(clock.now().as_nanos() > 0);
    }
}
