//! Common file-system types: attributes, credentials, and errors.

/// An inode number.
pub type Ino = u64;

/// Result alias for file-system operations.
pub(crate) type FsResult<T> = Result<T, FsError>;

/// File-system errors, aligned with the NFS3 status codes they map to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsError {
    /// No such file or directory (NFS3ERR_NOENT).
    NotFound,
    /// File exists (NFS3ERR_EXIST).
    Exists,
    /// Not a directory (NFS3ERR_NOTDIR).
    NotDir,
    /// Is a directory (NFS3ERR_ISDIR).
    IsDir,
    /// Directory not empty (NFS3ERR_NOTEMPTY).
    NotEmpty,
    /// Permission denied by mode bits (NFS3ERR_ACCES).
    Access,
    /// Operation not permitted (ownership required; NFS3ERR_PERM).
    Perm,
    /// Name too long (NFS3ERR_NAMETOOLONG).
    NameTooLong,
    /// Invalid argument, e.g. bad name or offset (NFS3ERR_INVAL).
    Invalid,
    /// Stale file handle — the file was deleted (NFS3ERR_STALE).
    Stale,
    /// Too many hard links (NFS3ERR_MLINK).
    TooManyLinks,
    /// Operation only valid on a symlink / value is not a symlink.
    NotSymlink,
}

impl std::fmt::Display for FsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FsError::NotFound => "no such file or directory",
            FsError::Exists => "file exists",
            FsError::NotDir => "not a directory",
            FsError::IsDir => "is a directory",
            FsError::NotEmpty => "directory not empty",
            FsError::Access => "permission denied",
            FsError::Perm => "operation not permitted",
            FsError::NameTooLong => "file name too long",
            FsError::Invalid => "invalid argument",
            FsError::Stale => "stale file handle",
            FsError::TooManyLinks => "too many links",
            FsError::NotSymlink => "not a symbolic link",
        };
        write!(f, "{s}")
    }
}

impl std::error::Error for FsError {}

/// The type of a file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FileType {
    /// Regular file.
    Regular,
    /// Directory.
    Directory,
    /// Symbolic link.
    Symlink,
}

/// File attributes (the information NFS3's `fattr3` carries).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Attr {
    /// File type.
    pub ftype: FileType,
    /// Permission bits (low 12 bits of the Unix mode).
    pub mode: u32,
    /// Hard link count.
    pub nlink: u32,
    /// Owner uid.
    pub uid: u32,
    /// Owner gid.
    pub gid: u32,
    /// Size in bytes.
    pub size: u64,
    /// Device number of the containing file system ("by assigning each
    /// file system its own device number, this scheme prevents a malicious
    /// server from tricking the pwd command", §3.3).
    pub fsid: u64,
    /// Inode number.
    pub fileid: Ino,
    /// Access time, ns.
    pub atime: u64,
    /// Modification time, ns.
    pub mtime: u64,
    /// Attribute-change time, ns.
    pub ctime: u64,
}

/// Selective attribute update (NFS3 `sattr3`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SetAttr {
    /// New mode bits.
    pub mode: Option<u32>,
    /// New owner.
    pub uid: Option<u32>,
    /// New group.
    pub gid: Option<u32>,
    /// Truncate/extend to this size.
    pub size: Option<u64>,
    /// Set access time.
    pub atime: Option<u64>,
    /// Set modification time.
    pub mtime: Option<u64>,
}

/// Unix credentials attached to every operation.
///
/// On an SFS server these are produced by the authserver from the user's
/// public key (§2.5.1: "authserv replies with a set of Unix credentials — a
/// user ID and list of group IDs"); anonymous access uses
/// [`Credentials::anonymous`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Credentials {
    /// Effective uid.
    pub uid: u32,
    /// Group list (first entry is the effective gid).
    pub gids: Vec<u32>,
}

impl Credentials {
    /// Root credentials (bypass permission checks).
    pub fn root() -> Self {
        Credentials {
            uid: 0,
            gids: vec![0],
        }
    }

    /// An ordinary user.
    pub fn user(uid: u32, gid: u32) -> Self {
        Credentials {
            uid,
            gids: vec![gid],
        }
    }

    /// The anonymous "nobody" credentials SFS uses for authentication
    /// number zero (§3.1.2).
    pub fn anonymous() -> Self {
        Credentials {
            uid: u32::MAX - 2,
            gids: vec![u32::MAX - 2],
        }
    }

    /// Whether these credentials carry `gid`.
    pub(crate) fn in_group(&self, gid: u32) -> bool {
        self.gids.contains(&gid)
    }

    /// Whether this is the superuser.
    pub(crate) fn is_root(&self) -> bool {
        self.uid == 0
    }
}

/// Access bits for permission checks (a simplified NFS3 ACCESS mask).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessMode {
    /// Read file data or list a directory.
    Read,
    /// Write file data or modify a directory.
    Write,
    /// Execute a file or search a directory.
    Execute,
}

impl Attr {
    /// Checks `mode`-bit permission for `creds` (root bypasses).
    pub fn permits(&self, creds: &Credentials, access: AccessMode) -> bool {
        if creds.is_root() {
            return true;
        }
        let shift = if creds.uid == self.uid {
            6
        } else if creds.in_group(self.gid) {
            3
        } else {
            0
        };
        let bit = match access {
            AccessMode::Read => 4,
            AccessMode::Write => 2,
            AccessMode::Execute => 1,
        };
        (self.mode >> shift) & bit != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn attr(mode: u32, uid: u32, gid: u32) -> Attr {
        Attr {
            ftype: FileType::Regular,
            mode,
            nlink: 1,
            uid,
            gid,
            size: 0,
            fsid: 1,
            fileid: 2,
            atime: 0,
            mtime: 0,
            ctime: 0,
        }
    }

    #[test]
    fn owner_class_selected() {
        let a = attr(0o700, 1000, 100);
        let owner = Credentials::user(1000, 999);
        assert!(a.permits(&owner, AccessMode::Read));
        assert!(a.permits(&owner, AccessMode::Write));
        assert!(a.permits(&owner, AccessMode::Execute));
        let other = Credentials::user(1001, 999);
        assert!(!a.permits(&other, AccessMode::Read));
    }

    #[test]
    fn group_class_selected() {
        let a = attr(0o040, 1000, 100);
        let member = Credentials {
            uid: 2000,
            gids: vec![5, 100],
        };
        assert!(a.permits(&member, AccessMode::Read));
        assert!(!a.permits(&member, AccessMode::Write));
        let nonmember = Credentials::user(2000, 5);
        assert!(!a.permits(&nonmember, AccessMode::Read));
    }

    #[test]
    fn owner_class_shadows_other() {
        // Classic Unix semantics: the owner gets the owner bits even when
        // the "other" bits are more permissive.
        let a = attr(0o007, 1000, 100);
        let owner = Credentials::user(1000, 100);
        assert!(!a.permits(&owner, AccessMode::Read));
        let stranger = Credentials::user(3000, 300);
        assert!(stranger.uid != a.uid);
        assert!(a.permits(&stranger, AccessMode::Read));
    }

    #[test]
    fn root_bypasses() {
        let a = attr(0o000, 1000, 100);
        assert!(a.permits(&Credentials::root(), AccessMode::Write));
    }

    #[test]
    fn anonymous_is_not_root() {
        assert!(!Credentials::anonymous().is_root());
    }
}
