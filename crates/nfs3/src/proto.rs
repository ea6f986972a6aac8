//! NFS version 3 wire types (RFC 1813 subset).
//!
//! The paper builds both sides of SFS on NFS 3: "the SFS client software
//! behaves like an NFS version 3 server … the server modifies requests
//! slightly and tags them with appropriate credentials" (§3). This module
//! defines the procedures SFS relays, with XDR encodings, plus the two SFS
//! protocol extensions from §3.3:
//!
//! - "every file attribute structure returned by the server has a timeout
//!   field or lease" — [`PostOpAttr::lease_ns`];
//! - server→client invalidation callbacks are carried out of band by the
//!   server type (`crate::server`).
//!
//! Simplification: RFC 1813's `wcc_data` (pre-operation attributes) is
//! collapsed into post-operation attributes only; SFS's caching layer
//! invalidates on lease/callback rather than reconstructing from wcc.

use sfs_vfs::{Attr, FileType, FsError, SetAttr};
use sfs_xdr::{VarField, Xdr, XdrDecoder, XdrEncoder, XdrError};

/// Maximum file-handle size (RFC 1813 NFS3_FHSIZE).
pub const FHSIZE: usize = 64;

/// An opaque NFS file handle: at most [`FHSIZE`] bytes, held inline.
///
/// "NFS identifies files by server-chosen, opaque file handles … these
/// file handles must remain secret" for a traditional NFS server; SFS
/// instead encrypts them (§3.3), so SFS handles are safe to publish.
///
/// A handle rides every relayed call through every layer — XDR, the
/// server's handle cipher, the NFS dispatch, the client's caches — so it
/// is a `Copy` value that never touches the allocator. Equality,
/// ordering, hashing and `Debug` see only the bytes it holds, exactly
/// as they would a `Vec<u8>` of them: a prefix sorts first, and a
/// handle prints as `FileHandle([1, 2, 3])`.
#[derive(Clone, Copy)]
pub struct FileHandle {
    len: u8,
    bytes: [u8; FHSIZE],
}

impl FileHandle {
    /// The zero-length handle.
    pub const EMPTY: FileHandle = FileHandle {
        len: 0,
        bytes: [0; FHSIZE],
    };

    /// A handle holding `bytes`, or `None` when they exceed [`FHSIZE`].
    pub fn new(bytes: &[u8]) -> Option<FileHandle> {
        let mut fh = FileHandle::EMPTY;
        fh.bytes.get_mut(..bytes.len())?.copy_from_slice(bytes);
        fh.len = bytes.len() as u8;
        Some(fh)
    }

    /// The bytes the handle holds.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes[..usize::from(self.len)]
    }

    /// The bytes the handle holds, for editing in place.
    pub fn as_bytes_mut(&mut self) -> &mut [u8] {
        &mut self.bytes[..usize::from(self.len)]
    }

    /// How many bytes the handle holds.
    pub fn len(&self) -> usize {
        usize::from(self.len)
    }

    /// Whether the handle holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// A handle from a fixed-size array; an array longer than [`FHSIZE`]
/// does not compile.
impl<const N: usize> From<[u8; N]> for FileHandle {
    fn from(bytes: [u8; N]) -> FileHandle {
        const { assert!(N <= FHSIZE, "a file handle holds at most FHSIZE bytes") };
        let mut fh = FileHandle::EMPTY;
        fh.bytes[..N].copy_from_slice(&bytes);
        fh.len = N as u8;
        fh
    }
}

impl PartialEq for FileHandle {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for FileHandle {}

impl PartialOrd for FileHandle {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for FileHandle {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

impl std::hash::Hash for FileHandle {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_bytes().hash(state);
    }
}

impl std::fmt::Debug for FileHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("FileHandle").field(&self.as_bytes()).finish()
    }
}

impl Xdr for FileHandle {
    fn encode(&self, enc: &mut XdrEncoder) {
        enc.put_opaque(self.as_bytes());
    }
    fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, XdrError> {
        let max = FHSIZE as u32;
        let data = dec.get_opaque_max_ref(max)?;
        FileHandle::new(data).ok_or(XdrError::LengthTooLong {
            claimed: data.len() as u32,
            max,
        })
    }
}

/// NFS3 status codes (RFC 1813 §2.6), restricted to those this server
/// generates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// NFS3_OK.
    Ok,
    /// NFS3ERR_PERM.
    Perm,
    /// NFS3ERR_NOENT.
    NoEnt,
    /// NFS3ERR_IO.
    Io,
    /// NFS3ERR_ACCES.
    Acces,
    /// NFS3ERR_EXIST.
    Exist,
    /// NFS3ERR_NOTDIR.
    NotDir,
    /// NFS3ERR_ISDIR.
    IsDir,
    /// NFS3ERR_INVAL.
    Inval,
    /// NFS3ERR_ROFS.
    RoFs,
    /// NFS3ERR_MLINK.
    MLink,
    /// NFS3ERR_NAMETOOLONG.
    NameTooLong,
    /// NFS3ERR_NOTEMPTY.
    NotEmpty,
    /// NFS3ERR_STALE.
    Stale,
    /// NFS3ERR_BADHANDLE.
    BadHandle,
    /// NFS3ERR_NOTSUPP.
    NotSupp,
}

impl Status {
    fn to_u32(self) -> u32 {
        match self {
            Status::Ok => 0,
            Status::Perm => 1,
            Status::NoEnt => 2,
            Status::Io => 5,
            Status::Acces => 13,
            Status::Exist => 17,
            Status::NotDir => 20,
            Status::IsDir => 21,
            Status::Inval => 22,
            Status::RoFs => 30,
            Status::MLink => 31,
            Status::NameTooLong => 63,
            Status::NotEmpty => 66,
            Status::Stale => 70,
            Status::BadHandle => 10001,
            Status::NotSupp => 10004,
        }
    }

    fn from_u32(v: u32) -> Result<Self, XdrError> {
        Ok(match v {
            0 => Status::Ok,
            1 => Status::Perm,
            2 => Status::NoEnt,
            5 => Status::Io,
            13 => Status::Acces,
            17 => Status::Exist,
            20 => Status::NotDir,
            21 => Status::IsDir,
            22 => Status::Inval,
            30 => Status::RoFs,
            31 => Status::MLink,
            63 => Status::NameTooLong,
            66 => Status::NotEmpty,
            70 => Status::Stale,
            10001 => Status::BadHandle,
            10004 => Status::NotSupp,
            other => return Err(XdrError::BadDiscriminant(other)),
        })
    }
}

impl From<FsError> for Status {
    fn from(e: FsError) -> Self {
        match e {
            FsError::NotFound => Status::NoEnt,
            FsError::Exists => Status::Exist,
            FsError::NotDir => Status::NotDir,
            FsError::IsDir => Status::IsDir,
            FsError::NotEmpty => Status::NotEmpty,
            FsError::Access => Status::Acces,
            FsError::Perm => Status::Perm,
            FsError::NameTooLong => Status::NameTooLong,
            FsError::Invalid => Status::Inval,
            FsError::Stale => Status::Stale,
            FsError::TooManyLinks => Status::MLink,
            FsError::NotSymlink => Status::Inval,
        }
    }
}

impl Xdr for Status {
    fn encode(&self, enc: &mut XdrEncoder) {
        enc.put_u32(self.to_u32());
    }
    fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, XdrError> {
        Status::from_u32(dec.get_u32()?)
    }
}

/// File attributes on the wire (RFC 1813 `fattr3`, with times in
/// nanoseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fattr3 {
    /// File type.
    pub ftype: FileType,
    /// Permission bits.
    pub mode: u32,
    /// Link count.
    pub nlink: u32,
    /// Owner.
    pub uid: u32,
    /// Group.
    pub gid: u32,
    /// Size in bytes.
    pub size: u64,
    /// File system id.
    pub fsid: u64,
    /// File id (inode number).
    pub fileid: u64,
    /// Access time (ns).
    pub atime: u64,
    /// Modification time (ns).
    pub mtime: u64,
    /// Change time (ns).
    pub ctime: u64,
}

impl From<Attr> for Fattr3 {
    fn from(a: Attr) -> Self {
        Fattr3 {
            ftype: a.ftype,
            mode: a.mode,
            nlink: a.nlink,
            uid: a.uid,
            gid: a.gid,
            size: a.size,
            fsid: a.fsid,
            fileid: a.fileid,
            atime: a.atime,
            mtime: a.mtime,
            ctime: a.ctime,
        }
    }
}

fn ftype_to_u32(t: FileType) -> u32 {
    match t {
        FileType::Regular => 1,
        FileType::Directory => 2,
        FileType::Symlink => 5,
    }
}

fn ftype_from_u32(v: u32) -> Result<FileType, XdrError> {
    Ok(match v {
        1 => FileType::Regular,
        2 => FileType::Directory,
        5 => FileType::Symlink,
        other => return Err(XdrError::BadDiscriminant(other)),
    })
}

impl Xdr for Fattr3 {
    fn encode(&self, enc: &mut XdrEncoder) {
        enc.put_u32(ftype_to_u32(self.ftype));
        enc.put_u32(self.mode);
        enc.put_u32(self.nlink);
        enc.put_u32(self.uid);
        enc.put_u32(self.gid);
        enc.put_u64(self.size);
        enc.put_u64(self.fsid);
        enc.put_u64(self.fileid);
        enc.put_u64(self.atime);
        enc.put_u64(self.mtime);
        enc.put_u64(self.ctime);
    }
    fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, XdrError> {
        Ok(Fattr3 {
            ftype: ftype_from_u32(dec.get_u32()?)?,
            mode: dec.get_u32()?,
            nlink: dec.get_u32()?,
            uid: dec.get_u32()?,
            gid: dec.get_u32()?,
            size: dec.get_u64()?,
            fsid: dec.get_u64()?,
            fileid: dec.get_u64()?,
            atime: dec.get_u64()?,
            mtime: dec.get_u64()?,
            ctime: dec.get_u64()?,
        })
    }
}

/// Post-operation attributes plus the SFS lease extension.
///
/// `lease_ns == 0` means "no lease" (plain NFS3 semantics: attributes may
/// be cached only heuristically).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PostOpAttr {
    /// Attributes, if the server chose to return them.
    pub attr: Option<Fattr3>,
    /// How long the client may treat these attributes (and the access
    /// rights they imply) as valid without revalidation, in virtual ns.
    pub lease_ns: u64,
}

impl PostOpAttr {
    /// No attributes.
    pub fn none() -> Self {
        PostOpAttr::default()
    }

    /// Attributes without a lease (plain NFS3).
    pub fn plain(attr: Fattr3) -> Self {
        PostOpAttr {
            attr: Some(attr),
            lease_ns: 0,
        }
    }

    /// Attributes with an SFS lease.
    pub fn leased(attr: Fattr3, lease_ns: u64) -> Self {
        PostOpAttr {
            attr: Some(attr),
            lease_ns,
        }
    }
}

impl Xdr for PostOpAttr {
    fn encode(&self, enc: &mut XdrEncoder) {
        match &self.attr {
            None => {
                enc.put_bool(false);
            }
            Some(a) => {
                enc.put_bool(true);
                a.encode(enc);
                enc.put_u64(self.lease_ns);
            }
        }
    }
    fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, XdrError> {
        if dec.get_bool()? {
            let attr = Fattr3::decode(dec)?;
            let lease_ns = dec.get_u64()?;
            Ok(PostOpAttr {
                attr: Some(attr),
                lease_ns,
            })
        } else {
            Ok(PostOpAttr::none())
        }
    }
}

/// Settable attributes (RFC 1813 `sattr3`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Sattr3 {
    /// Mode to set.
    pub mode: Option<u32>,
    /// Uid to set.
    pub uid: Option<u32>,
    /// Gid to set.
    pub gid: Option<u32>,
    /// New size.
    pub size: Option<u64>,
    /// New atime (ns).
    pub atime: Option<u64>,
    /// New mtime (ns).
    pub mtime: Option<u64>,
}

impl From<Sattr3> for SetAttr {
    fn from(s: Sattr3) -> Self {
        SetAttr {
            mode: s.mode,
            uid: s.uid,
            gid: s.gid,
            size: s.size,
            atime: s.atime,
            mtime: s.mtime,
        }
    }
}

impl Xdr for Sattr3 {
    fn encode(&self, enc: &mut XdrEncoder) {
        self.mode.encode(enc);
        self.uid.encode(enc);
        self.gid.encode(enc);
        self.size.encode(enc);
        self.atime.encode(enc);
        self.mtime.encode(enc);
    }
    fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, XdrError> {
        Ok(Sattr3 {
            mode: Option::decode(dec)?,
            uid: Option::decode(dec)?,
            gid: Option::decode(dec)?,
            size: Option::decode(dec)?,
            atime: Option::decode(dec)?,
            mtime: Option::decode(dec)?,
        })
    }
}

/// Write stability (RFC 1813 `stable_how`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StableHow {
    /// UNSTABLE: may be cached; requires COMMIT.
    Unstable,
    /// DATA_SYNC / FILE_SYNC: on stable storage before reply.
    FileSync,
}

impl Xdr for StableHow {
    fn encode(&self, enc: &mut XdrEncoder) {
        enc.put_u32(match self {
            StableHow::Unstable => 0,
            StableHow::FileSync => 2,
        });
    }
    fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, XdrError> {
        match dec.get_u32()? {
            0 => Ok(StableHow::Unstable),
            1 | 2 => Ok(StableHow::FileSync),
            other => Err(XdrError::BadDiscriminant(other)),
        }
    }
}

/// A directory entry (READDIR).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirEntry {
    /// File id.
    pub fileid: u64,
    /// Name.
    pub name: String,
    /// Cookie for resuming after this entry.
    pub cookie: u64,
    /// Attributes + handle (READDIRPLUS only).
    pub plus: Option<(FileHandle, PostOpAttr)>,
}

impl Xdr for DirEntry {
    fn encode(&self, enc: &mut XdrEncoder) {
        enc.put_u64(self.fileid);
        enc.put_string(&self.name);
        enc.put_u64(self.cookie);
        self.plus.encode(enc);
    }
    fn decode(dec: &mut XdrDecoder<'_>) -> Result<Self, XdrError> {
        Ok(DirEntry {
            fileid: dec.get_u64()?,
            name: dec.get_string()?,
            cookie: dec.get_u64()?,
            plus: Option::decode(dec)?,
        })
    }
}

/// NFS3 procedure numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum Proc {
    Null = 0,
    GetAttr = 1,
    SetAttr = 2,
    Lookup = 3,
    Access = 4,
    ReadLink = 5,
    Read = 6,
    Write = 7,
    Create = 8,
    Mkdir = 9,
    Symlink = 10,
    Remove = 12,
    Rmdir = 13,
    Rename = 14,
    Link = 15,
    ReadDir = 16,
    ReadDirPlus = 17,
    FsStat = 18,
    FsInfo = 19,
    PathConf = 20,
    Commit = 21,
}

impl Proc {
    /// Parses a procedure number.
    pub fn from_u32(v: u32) -> Option<Proc> {
        Some(match v {
            0 => Proc::Null,
            1 => Proc::GetAttr,
            2 => Proc::SetAttr,
            3 => Proc::Lookup,
            4 => Proc::Access,
            5 => Proc::ReadLink,
            6 => Proc::Read,
            7 => Proc::Write,
            8 => Proc::Create,
            9 => Proc::Mkdir,
            10 => Proc::Symlink,
            12 => Proc::Remove,
            13 => Proc::Rmdir,
            14 => Proc::Rename,
            15 => Proc::Link,
            16 => Proc::ReadDir,
            17 => Proc::ReadDirPlus,
            18 => Proc::FsStat,
            19 => Proc::FsInfo,
            20 => Proc::PathConf,
            21 => Proc::Commit,
            _ => return None,
        })
    }
}

/// An NFS3 request.
///
/// The one request type every layer speaks, generic over how it holds
/// its variable-length fields: `N` for names (and a SYMLINK's target),
/// `D` for WRITE data. The defaults, `String` and `Vec<u8>`, make a
/// request that owns them — what a caller builds and keeps. A request
/// over `&str` and `&[u8]` borrows them instead: from the caller's
/// buffers when the client marshals it, from the opened frame when the
/// server decodes it ([`Nfs3Request::decode_args_ref`]). One codec and
/// one server handler serve both; [`Self::borrowed`] views an owned
/// request as a borrowed one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum Nfs3Request<N = String, D = Vec<u8>> {
    Null,
    GetAttr {
        fh: FileHandle,
    },
    SetAttr {
        fh: FileHandle,
        attrs: Sattr3,
    },
    Lookup {
        dir: FileHandle,
        name: N,
    },
    Access {
        fh: FileHandle,
        mask: u32,
    },
    ReadLink {
        fh: FileHandle,
    },
    Read {
        fh: FileHandle,
        offset: u64,
        count: u32,
    },
    Write {
        fh: FileHandle,
        offset: u64,
        stable: StableHow,
        data: D,
    },
    Create {
        dir: FileHandle,
        name: N,
        attrs: Sattr3,
    },
    Mkdir {
        dir: FileHandle,
        name: N,
        attrs: Sattr3,
    },
    Symlink {
        dir: FileHandle,
        name: N,
        target: N,
    },
    Remove {
        dir: FileHandle,
        name: N,
    },
    Rmdir {
        dir: FileHandle,
        name: N,
    },
    Rename {
        from_dir: FileHandle,
        from_name: N,
        to_dir: FileHandle,
        to_name: N,
    },
    Link {
        fh: FileHandle,
        dir: FileHandle,
        name: N,
    },
    ReadDir {
        dir: FileHandle,
        cookie: u64,
        count: u32,
        plus: bool,
    },
    FsStat {
        root: FileHandle,
    },
    FsInfo {
        root: FileHandle,
    },
    PathConf {
        fh: FileHandle,
    },
    Commit {
        fh: FileHandle,
        offset: u64,
        count: u32,
    },
}

/// A request whose names and data borrow from a buffer someone else
/// owns: the caller's, or the frame the server opened.
pub type Nfs3RequestRef<'a> = Nfs3Request<&'a str, &'a [u8]>;

impl<N, D> Nfs3Request<N, D> {
    /// The procedure number carried in the RPC call.
    pub fn proc(&self) -> Proc {
        match self {
            Nfs3Request::Null => Proc::Null,
            Nfs3Request::GetAttr { .. } => Proc::GetAttr,
            Nfs3Request::SetAttr { .. } => Proc::SetAttr,
            Nfs3Request::Lookup { .. } => Proc::Lookup,
            Nfs3Request::Access { .. } => Proc::Access,
            Nfs3Request::ReadLink { .. } => Proc::ReadLink,
            Nfs3Request::Read { .. } => Proc::Read,
            Nfs3Request::Write { .. } => Proc::Write,
            Nfs3Request::Create { .. } => Proc::Create,
            Nfs3Request::Mkdir { .. } => Proc::Mkdir,
            Nfs3Request::Symlink { .. } => Proc::Symlink,
            Nfs3Request::Remove { .. } => Proc::Remove,
            Nfs3Request::Rmdir { .. } => Proc::Rmdir,
            Nfs3Request::Rename { .. } => Proc::Rename,
            Nfs3Request::Link { .. } => Proc::Link,
            Nfs3Request::ReadDir { plus: false, .. } => Proc::ReadDir,
            Nfs3Request::ReadDir { plus: true, .. } => Proc::ReadDirPlus,
            Nfs3Request::FsStat { .. } => Proc::FsStat,
            Nfs3Request::FsInfo { .. } => Proc::FsInfo,
            Nfs3Request::PathConf { .. } => Proc::PathConf,
            Nfs3Request::Commit { .. } => Proc::Commit,
        }
    }

    /// Every file handle in the request, in the order
    /// [`Self::encode_args_into`] writes them — the hook a relay uses to
    /// translate handles in place. The match names every variant, so a
    /// new one cannot compile without saying which handles it carries.
    pub fn handles_mut(&mut self) -> impl Iterator<Item = &mut FileHandle> {
        let (first, second) = match self {
            Nfs3Request::Null => (None, None),
            Nfs3Request::GetAttr { fh }
            | Nfs3Request::SetAttr { fh, .. }
            | Nfs3Request::Access { fh, .. }
            | Nfs3Request::ReadLink { fh }
            | Nfs3Request::Read { fh, .. }
            | Nfs3Request::Write { fh, .. }
            | Nfs3Request::PathConf { fh }
            | Nfs3Request::Commit { fh, .. } => (Some(fh), None),
            Nfs3Request::Lookup { dir, .. }
            | Nfs3Request::Create { dir, .. }
            | Nfs3Request::Mkdir { dir, .. }
            | Nfs3Request::Symlink { dir, .. }
            | Nfs3Request::Remove { dir, .. }
            | Nfs3Request::Rmdir { dir, .. }
            | Nfs3Request::ReadDir { dir, .. } => (Some(dir), None),
            Nfs3Request::FsStat { root } | Nfs3Request::FsInfo { root } => (Some(root), None),
            Nfs3Request::Rename {
                from_dir, to_dir, ..
            } => (Some(from_dir), Some(to_dir)),
            Nfs3Request::Link { fh, dir, .. } => (Some(fh), Some(dir)),
        };
        first.into_iter().chain(second)
    }
}

impl<N: AsRef<str>, D: AsRef<[u8]>> Nfs3Request<N, D> {
    /// The request with its names and data borrowed from `self`: what
    /// the one encoder and the one server handler take, whatever the
    /// caller holds.
    pub fn borrowed(&self) -> Nfs3RequestRef<'_> {
        match self {
            Nfs3Request::Null => Nfs3Request::Null,
            Nfs3Request::GetAttr { fh } => Nfs3Request::GetAttr { fh: *fh },
            Nfs3Request::SetAttr { fh, attrs } => Nfs3Request::SetAttr {
                fh: *fh,
                attrs: *attrs,
            },
            Nfs3Request::Lookup { dir, name } => Nfs3Request::Lookup {
                dir: *dir,
                name: name.as_ref(),
            },
            Nfs3Request::Access { fh, mask } => Nfs3Request::Access {
                fh: *fh,
                mask: *mask,
            },
            Nfs3Request::ReadLink { fh } => Nfs3Request::ReadLink { fh: *fh },
            Nfs3Request::Read { fh, offset, count } => Nfs3Request::Read {
                fh: *fh,
                offset: *offset,
                count: *count,
            },
            Nfs3Request::Write {
                fh,
                offset,
                stable,
                data,
            } => Nfs3Request::Write {
                fh: *fh,
                offset: *offset,
                stable: *stable,
                data: data.as_ref(),
            },
            Nfs3Request::Create { dir, name, attrs } => Nfs3Request::Create {
                dir: *dir,
                name: name.as_ref(),
                attrs: *attrs,
            },
            Nfs3Request::Mkdir { dir, name, attrs } => Nfs3Request::Mkdir {
                dir: *dir,
                name: name.as_ref(),
                attrs: *attrs,
            },
            Nfs3Request::Symlink { dir, name, target } => Nfs3Request::Symlink {
                dir: *dir,
                name: name.as_ref(),
                target: target.as_ref(),
            },
            Nfs3Request::Remove { dir, name } => Nfs3Request::Remove {
                dir: *dir,
                name: name.as_ref(),
            },
            Nfs3Request::Rmdir { dir, name } => Nfs3Request::Rmdir {
                dir: *dir,
                name: name.as_ref(),
            },
            Nfs3Request::Rename {
                from_dir,
                from_name,
                to_dir,
                to_name,
            } => Nfs3Request::Rename {
                from_dir: *from_dir,
                from_name: from_name.as_ref(),
                to_dir: *to_dir,
                to_name: to_name.as_ref(),
            },
            Nfs3Request::Link { fh, dir, name } => Nfs3Request::Link {
                fh: *fh,
                dir: *dir,
                name: name.as_ref(),
            },
            Nfs3Request::ReadDir {
                dir,
                cookie,
                count,
                plus,
            } => Nfs3Request::ReadDir {
                dir: *dir,
                cookie: *cookie,
                count: *count,
                plus: *plus,
            },
            Nfs3Request::FsStat { root } => Nfs3Request::FsStat { root: *root },
            Nfs3Request::FsInfo { root } => Nfs3Request::FsInfo { root: *root },
            Nfs3Request::PathConf { fh } => Nfs3Request::PathConf { fh: *fh },
            Nfs3Request::Commit { fh, offset, count } => Nfs3Request::Commit {
                fh: *fh,
                offset: *offset,
                count: *count,
            },
        }
    }

    /// Marshals the procedure arguments (the RPC args body).
    pub fn encode_args(&self) -> Vec<u8> {
        let mut enc = XdrEncoder::new();
        self.encode_args_into(&mut enc);
        enc.into_bytes()
    }

    /// Appends the marshaled arguments to `enc` — [`Self::encode_args`]
    /// without the allocation, for buffer-reusing hot paths.
    pub fn encode_args_into(&self, enc: &mut XdrEncoder) {
        match self {
            Nfs3Request::Null => {}
            Nfs3Request::GetAttr { fh }
            | Nfs3Request::ReadLink { fh }
            | Nfs3Request::PathConf { fh } => fh.encode(enc),
            Nfs3Request::FsStat { root } | Nfs3Request::FsInfo { root } => root.encode(enc),
            Nfs3Request::SetAttr { fh, attrs } => {
                fh.encode(enc);
                attrs.encode(enc);
            }
            Nfs3Request::Lookup { dir, name }
            | Nfs3Request::Remove { dir, name }
            | Nfs3Request::Rmdir { dir, name } => {
                dir.encode(enc);
                enc.put_string(name.as_ref());
            }
            Nfs3Request::Access { fh, mask } => {
                fh.encode(enc);
                enc.put_u32(*mask);
            }
            Nfs3Request::Read { fh, offset, count } => {
                fh.encode(enc);
                enc.put_u64(*offset);
                enc.put_u32(*count);
            }
            Nfs3Request::Write {
                fh,
                offset,
                stable,
                data,
            } => {
                let data = data.as_ref();
                fh.encode(enc);
                enc.put_u64(*offset);
                enc.put_u32(data.len() as u32);
                stable.encode(enc);
                enc.put_opaque(data);
            }
            Nfs3Request::Create { dir, name, attrs } | Nfs3Request::Mkdir { dir, name, attrs } => {
                dir.encode(enc);
                enc.put_string(name.as_ref());
                attrs.encode(enc);
            }
            Nfs3Request::Symlink { dir, name, target } => {
                dir.encode(enc);
                enc.put_string(name.as_ref());
                enc.put_string(target.as_ref());
            }
            Nfs3Request::Rename {
                from_dir,
                from_name,
                to_dir,
                to_name,
            } => {
                from_dir.encode(enc);
                enc.put_string(from_name.as_ref());
                to_dir.encode(enc);
                enc.put_string(to_name.as_ref());
            }
            Nfs3Request::Link { fh, dir, name } => {
                fh.encode(enc);
                dir.encode(enc);
                enc.put_string(name.as_ref());
            }
            Nfs3Request::ReadDir {
                dir, cookie, count, ..
            } => {
                dir.encode(enc);
                enc.put_u64(*cookie);
                enc.put_u32(*count);
            }
            Nfs3Request::Commit { fh, offset, count } => {
                fh.encode(enc);
                enc.put_u64(*offset);
                enc.put_u32(*count);
            }
        }
    }
}

impl<'a, N: VarField<'a>, D: VarField<'a>> Nfs3Request<N, D> {
    /// Unmarshals arguments for procedure `proc` from `args`, with names
    /// and data as `N` and `D`: the one decoder behind
    /// [`Nfs3Request::decode_args`] and [`Nfs3Request::decode_args_ref`].
    fn decode_args_as(proc: Proc, args: &'a [u8]) -> Result<Self, XdrError> {
        let mut dec = XdrDecoder::new(args);
        let dec = &mut dec;
        let req = match proc {
            Proc::Null => Nfs3Request::Null,
            Proc::GetAttr => Nfs3Request::GetAttr {
                fh: FileHandle::decode(dec)?,
            },
            Proc::SetAttr => Nfs3Request::SetAttr {
                fh: FileHandle::decode(dec)?,
                attrs: Sattr3::decode(dec)?,
            },
            Proc::Lookup => Nfs3Request::Lookup {
                dir: FileHandle::decode(dec)?,
                name: N::decode_var(dec)?,
            },
            Proc::Access => Nfs3Request::Access {
                fh: FileHandle::decode(dec)?,
                mask: dec.get_u32()?,
            },
            Proc::ReadLink => Nfs3Request::ReadLink {
                fh: FileHandle::decode(dec)?,
            },
            Proc::Read => Nfs3Request::Read {
                fh: FileHandle::decode(dec)?,
                offset: dec.get_u64()?,
                count: dec.get_u32()?,
            },
            Proc::Write => {
                let fh = FileHandle::decode(dec)?;
                let offset = dec.get_u64()?;
                let _count = dec.get_u32()?;
                let stable = StableHow::decode(dec)?;
                let data = D::decode_var(dec)?;
                Nfs3Request::Write {
                    fh,
                    offset,
                    stable,
                    data,
                }
            }
            Proc::Create => Nfs3Request::Create {
                dir: FileHandle::decode(dec)?,
                name: N::decode_var(dec)?,
                attrs: Sattr3::decode(dec)?,
            },
            Proc::Mkdir => Nfs3Request::Mkdir {
                dir: FileHandle::decode(dec)?,
                name: N::decode_var(dec)?,
                attrs: Sattr3::decode(dec)?,
            },
            Proc::Symlink => Nfs3Request::Symlink {
                dir: FileHandle::decode(dec)?,
                name: N::decode_var(dec)?,
                target: N::decode_var(dec)?,
            },
            Proc::Remove => Nfs3Request::Remove {
                dir: FileHandle::decode(dec)?,
                name: N::decode_var(dec)?,
            },
            Proc::Rmdir => Nfs3Request::Rmdir {
                dir: FileHandle::decode(dec)?,
                name: N::decode_var(dec)?,
            },
            Proc::Rename => Nfs3Request::Rename {
                from_dir: FileHandle::decode(dec)?,
                from_name: N::decode_var(dec)?,
                to_dir: FileHandle::decode(dec)?,
                to_name: N::decode_var(dec)?,
            },
            Proc::Link => Nfs3Request::Link {
                fh: FileHandle::decode(dec)?,
                dir: FileHandle::decode(dec)?,
                name: N::decode_var(dec)?,
            },
            Proc::ReadDir | Proc::ReadDirPlus => Nfs3Request::ReadDir {
                dir: FileHandle::decode(dec)?,
                cookie: dec.get_u64()?,
                count: dec.get_u32()?,
                plus: proc == Proc::ReadDirPlus,
            },
            Proc::FsStat => Nfs3Request::FsStat {
                root: FileHandle::decode(dec)?,
            },
            Proc::FsInfo => Nfs3Request::FsInfo {
                root: FileHandle::decode(dec)?,
            },
            Proc::PathConf => Nfs3Request::PathConf {
                fh: FileHandle::decode(dec)?,
            },
            Proc::Commit => Nfs3Request::Commit {
                fh: FileHandle::decode(dec)?,
                offset: dec.get_u64()?,
                count: dec.get_u32()?,
            },
        };
        dec.finish()?;
        Ok(req)
    }
}

impl Nfs3Request {
    /// Unmarshals arguments for procedure `proc` into a request that owns
    /// its names and data.
    pub fn decode_args(proc: Proc, args: &[u8]) -> Result<Self, XdrError> {
        Self::decode_args_as(proc, args)
    }
}

impl<'a> Nfs3RequestRef<'a> {
    /// Unmarshals arguments for procedure `proc` with names and data
    /// borrowed from `args`: the frames [`Nfs3Request::decode_args`]
    /// accepts, and no others, without copying their payload.
    pub fn decode_args_ref(proc: Proc, args: &'a [u8]) -> Result<Self, XdrError> {
        Self::decode_args_as(proc, args)
    }
}

/// An NFS3 reply.
///
/// Generic, like the request, over how it holds its one payload, a
/// READ's data: `Vec<u8>` by default, `&[u8]` when the server encodes
/// the bytes straight out of the file they live in.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum Nfs3Reply<D = Vec<u8>> {
    Null,
    /// Error reply for any procedure.
    Error {
        status: Status,
        dir_attr: PostOpAttr,
    },
    GetAttr {
        attr: Fattr3,
        lease_ns: u64,
    },
    SetAttr {
        attr: PostOpAttr,
    },
    Lookup {
        fh: FileHandle,
        attr: PostOpAttr,
        dir_attr: PostOpAttr,
    },
    Access {
        granted: u32,
        attr: PostOpAttr,
    },
    ReadLink {
        target: String,
        attr: PostOpAttr,
    },
    Read {
        data: D,
        eof: bool,
        attr: PostOpAttr,
    },
    Write {
        count: u32,
        committed: StableHow,
        attr: PostOpAttr,
    },
    Create {
        fh: FileHandle,
        attr: PostOpAttr,
        dir_attr: PostOpAttr,
    },
    Mkdir {
        fh: FileHandle,
        attr: PostOpAttr,
        dir_attr: PostOpAttr,
    },
    Symlink {
        fh: FileHandle,
        attr: PostOpAttr,
        dir_attr: PostOpAttr,
    },
    Remove {
        dir_attr: PostOpAttr,
    },
    Rmdir {
        dir_attr: PostOpAttr,
    },
    Rename {
        from_dir_attr: PostOpAttr,
        to_dir_attr: PostOpAttr,
    },
    Link {
        attr: PostOpAttr,
        dir_attr: PostOpAttr,
    },
    ReadDir {
        entries: Vec<DirEntry>,
        eof: bool,
        dir_attr: PostOpAttr,
    },
    FsStat {
        total_bytes: u64,
        free_bytes: u64,
        total_files: u64,
    },
    FsInfo {
        rtmax: u32,
        wtmax: u32,
        dtpref: u32,
    },
    PathConf {
        name_max: u32,
        linkmax: u32,
    },
    Commit {
        attr: PostOpAttr,
    },
}

impl<D> Nfs3Reply<D> {
    /// Status of this reply.
    pub fn status(&self) -> Status {
        match self {
            Nfs3Reply::Error { status, .. } => *status,
            _ => Status::Ok,
        }
    }

    /// Every file handle in the reply, in the order
    /// [`Self::encode_results_into`] writes them (READDIRPLUS entries in
    /// listing order). Like the request's, the match is exhaustive.
    pub fn handles_mut(&mut self) -> impl Iterator<Item = &mut FileHandle> {
        let (one, entries) = match self {
            Nfs3Reply::Lookup { fh, .. }
            | Nfs3Reply::Create { fh, .. }
            | Nfs3Reply::Mkdir { fh, .. }
            | Nfs3Reply::Symlink { fh, .. } => (Some(fh), None),
            Nfs3Reply::ReadDir { entries, .. } => (None, Some(entries)),
            Nfs3Reply::Null
            | Nfs3Reply::Error { .. }
            | Nfs3Reply::GetAttr { .. }
            | Nfs3Reply::SetAttr { .. }
            | Nfs3Reply::Access { .. }
            | Nfs3Reply::ReadLink { .. }
            | Nfs3Reply::Read { .. }
            | Nfs3Reply::Write { .. }
            | Nfs3Reply::Remove { .. }
            | Nfs3Reply::Rmdir { .. }
            | Nfs3Reply::Rename { .. }
            | Nfs3Reply::Link { .. }
            | Nfs3Reply::FsStat { .. }
            | Nfs3Reply::FsInfo { .. }
            | Nfs3Reply::PathConf { .. }
            | Nfs3Reply::Commit { .. } => (None, None),
        };
        let listed = entries.into_iter().flatten();
        one.into_iter()
            .chain(listed.filter_map(|e| e.plus.as_mut().map(|(fh, _)| fh)))
    }

    /// The reply with its READ data passed through `f`; every other
    /// reply, and every other field, moves across as it is.
    pub(crate) fn map_data<E>(self, f: impl FnOnce(D) -> E) -> Nfs3Reply<E> {
        use Nfs3Reply::*;
        match self {
            Null => Null,
            Error { status, dir_attr } => Error { status, dir_attr },
            GetAttr { attr, lease_ns } => GetAttr { attr, lease_ns },
            SetAttr { attr } => SetAttr { attr },
            Lookup { fh, attr, dir_attr } => Lookup { fh, attr, dir_attr },
            Access { granted, attr } => Access { granted, attr },
            ReadLink { target, attr } => ReadLink { target, attr },
            Read { data, eof, attr } => Read {
                data: f(data),
                eof,
                attr,
            },
            Write {
                count,
                committed,
                attr,
            } => Write {
                count,
                committed,
                attr,
            },
            Create { fh, attr, dir_attr } => Create { fh, attr, dir_attr },
            Mkdir { fh, attr, dir_attr } => Mkdir { fh, attr, dir_attr },
            Symlink { fh, attr, dir_attr } => Symlink { fh, attr, dir_attr },
            Remove { dir_attr } => Remove { dir_attr },
            Rmdir { dir_attr } => Rmdir { dir_attr },
            Rename {
                from_dir_attr,
                to_dir_attr,
            } => Rename {
                from_dir_attr,
                to_dir_attr,
            },
            Link { attr, dir_attr } => Link { attr, dir_attr },
            ReadDir {
                entries,
                eof,
                dir_attr,
            } => ReadDir {
                entries,
                eof,
                dir_attr,
            },
            FsStat {
                total_bytes,
                free_bytes,
                total_files,
            } => FsStat {
                total_bytes,
                free_bytes,
                total_files,
            },
            FsInfo {
                rtmax,
                wtmax,
                dtpref,
            } => FsInfo {
                rtmax,
                wtmax,
                dtpref,
            },
            PathConf { name_max, linkmax } => PathConf { name_max, linkmax },
            Commit { attr } => Commit { attr },
        }
    }
}

impl<D: AsRef<[u8]>> Nfs3Reply<D> {
    /// Marshals the reply (the RPC results body). The leading status word
    /// discriminates success from error.
    pub fn encode_results(&self) -> Vec<u8> {
        let mut enc = XdrEncoder::new();
        self.encode_results_into(&mut enc);
        enc.into_bytes()
    }

    /// Appends the marshaled reply to `enc` — [`Self::encode_results`]
    /// without the allocation, for buffer-reusing hot paths.
    pub fn encode_results_into(&self, enc: &mut XdrEncoder) {
        if let Nfs3Reply::Error { status, dir_attr } = self {
            status.encode(enc);
            dir_attr.encode(enc);
            return;
        }
        Status::Ok.encode(enc);
        match self {
            Nfs3Reply::Null | Nfs3Reply::Error { .. } => {}
            Nfs3Reply::GetAttr { attr, lease_ns } => {
                attr.encode(enc);
                enc.put_u64(*lease_ns);
            }
            Nfs3Reply::SetAttr { attr } | Nfs3Reply::Commit { attr } => attr.encode(enc),
            Nfs3Reply::Lookup { fh, attr, dir_attr }
            | Nfs3Reply::Create { fh, attr, dir_attr }
            | Nfs3Reply::Mkdir { fh, attr, dir_attr }
            | Nfs3Reply::Symlink { fh, attr, dir_attr } => {
                fh.encode(enc);
                attr.encode(enc);
                dir_attr.encode(enc);
            }
            Nfs3Reply::Access { granted, attr } => {
                enc.put_u32(*granted);
                attr.encode(enc);
            }
            Nfs3Reply::ReadLink { target, attr } => {
                enc.put_string(target);
                attr.encode(enc);
            }
            Nfs3Reply::Read { data, eof, attr } => {
                let data = data.as_ref();
                enc.put_u32(data.len() as u32);
                enc.put_bool(*eof);
                enc.put_opaque(data);
                attr.encode(enc);
            }
            Nfs3Reply::Write {
                count,
                committed,
                attr,
            } => {
                enc.put_u32(*count);
                committed.encode(enc);
                attr.encode(enc);
            }
            Nfs3Reply::Remove { dir_attr } | Nfs3Reply::Rmdir { dir_attr } => dir_attr.encode(enc),
            Nfs3Reply::Rename {
                from_dir_attr,
                to_dir_attr,
            } => {
                from_dir_attr.encode(enc);
                to_dir_attr.encode(enc);
            }
            Nfs3Reply::Link { attr, dir_attr } => {
                attr.encode(enc);
                dir_attr.encode(enc);
            }
            Nfs3Reply::ReadDir {
                entries,
                eof,
                dir_attr,
            } => {
                entries.encode(enc);
                enc.put_bool(*eof);
                dir_attr.encode(enc);
            }
            Nfs3Reply::FsStat {
                total_bytes,
                free_bytes,
                total_files,
            } => {
                enc.put_u64(*total_bytes);
                enc.put_u64(*free_bytes);
                enc.put_u64(*total_files);
            }
            Nfs3Reply::FsInfo {
                rtmax,
                wtmax,
                dtpref,
            } => {
                enc.put_u32(*rtmax);
                enc.put_u32(*wtmax);
                enc.put_u32(*dtpref);
            }
            Nfs3Reply::PathConf { name_max, linkmax } => {
                enc.put_u32(*name_max);
                enc.put_u32(*linkmax);
            }
        }
    }
}

impl Nfs3Reply {
    /// Unmarshals a reply to procedure `proc`.
    pub fn decode_results(proc: Proc, results: &[u8]) -> Result<Self, XdrError> {
        let mut dec = XdrDecoder::new(results);
        let status = Status::decode(&mut dec)?;
        if status != Status::Ok {
            let dir_attr = PostOpAttr::decode(&mut dec)?;
            dec.finish()?;
            return Ok(Nfs3Reply::Error { status, dir_attr });
        }
        let reply = match proc {
            Proc::Null => Nfs3Reply::Null,
            Proc::GetAttr => Nfs3Reply::GetAttr {
                attr: Fattr3::decode(&mut dec)?,
                lease_ns: dec.get_u64()?,
            },
            Proc::SetAttr => Nfs3Reply::SetAttr {
                attr: PostOpAttr::decode(&mut dec)?,
            },
            Proc::Lookup => Nfs3Reply::Lookup {
                fh: FileHandle::decode(&mut dec)?,
                attr: PostOpAttr::decode(&mut dec)?,
                dir_attr: PostOpAttr::decode(&mut dec)?,
            },
            Proc::Access => Nfs3Reply::Access {
                granted: dec.get_u32()?,
                attr: PostOpAttr::decode(&mut dec)?,
            },
            Proc::ReadLink => Nfs3Reply::ReadLink {
                target: dec.get_string()?,
                attr: PostOpAttr::decode(&mut dec)?,
            },
            Proc::Read => {
                let _count = dec.get_u32()?;
                let eof = dec.get_bool()?;
                let data = dec.get_opaque()?;
                let attr = PostOpAttr::decode(&mut dec)?;
                Nfs3Reply::Read { data, eof, attr }
            }
            Proc::Write => Nfs3Reply::Write {
                count: dec.get_u32()?,
                committed: StableHow::decode(&mut dec)?,
                attr: PostOpAttr::decode(&mut dec)?,
            },
            Proc::Create => Nfs3Reply::Create {
                fh: FileHandle::decode(&mut dec)?,
                attr: PostOpAttr::decode(&mut dec)?,
                dir_attr: PostOpAttr::decode(&mut dec)?,
            },
            Proc::Mkdir => Nfs3Reply::Mkdir {
                fh: FileHandle::decode(&mut dec)?,
                attr: PostOpAttr::decode(&mut dec)?,
                dir_attr: PostOpAttr::decode(&mut dec)?,
            },
            Proc::Symlink => Nfs3Reply::Symlink {
                fh: FileHandle::decode(&mut dec)?,
                attr: PostOpAttr::decode(&mut dec)?,
                dir_attr: PostOpAttr::decode(&mut dec)?,
            },
            Proc::Remove => Nfs3Reply::Remove {
                dir_attr: PostOpAttr::decode(&mut dec)?,
            },
            Proc::Rmdir => Nfs3Reply::Rmdir {
                dir_attr: PostOpAttr::decode(&mut dec)?,
            },
            Proc::Rename => Nfs3Reply::Rename {
                from_dir_attr: PostOpAttr::decode(&mut dec)?,
                to_dir_attr: PostOpAttr::decode(&mut dec)?,
            },
            Proc::Link => Nfs3Reply::Link {
                attr: PostOpAttr::decode(&mut dec)?,
                dir_attr: PostOpAttr::decode(&mut dec)?,
            },
            Proc::ReadDir | Proc::ReadDirPlus => Nfs3Reply::ReadDir {
                entries: Vec::decode(&mut dec)?,
                eof: dec.get_bool()?,
                dir_attr: PostOpAttr::decode(&mut dec)?,
            },
            Proc::FsStat => Nfs3Reply::FsStat {
                total_bytes: dec.get_u64()?,
                free_bytes: dec.get_u64()?,
                total_files: dec.get_u64()?,
            },
            Proc::FsInfo => Nfs3Reply::FsInfo {
                rtmax: dec.get_u32()?,
                wtmax: dec.get_u32()?,
                dtpref: dec.get_u32()?,
            },
            Proc::PathConf => Nfs3Reply::PathConf {
                name_max: dec.get_u32()?,
                linkmax: dec.get_u32()?,
            },
            Proc::Commit => Nfs3Reply::Commit {
                attr: PostOpAttr::decode(&mut dec)?,
            },
        };
        dec.finish()?;
        Ok(reply)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fh(b: &[u8]) -> FileHandle {
        FileHandle::new(b).unwrap()
    }

    fn attr() -> Fattr3 {
        Fattr3 {
            ftype: FileType::Regular,
            mode: 0o644,
            nlink: 1,
            uid: 1000,
            gid: 100,
            size: 42,
            fsid: 7,
            fileid: 99,
            atime: 1,
            mtime: 2,
            ctime: 3,
        }
    }

    #[test]
    fn request_args_roundtrip_all_procs() {
        let reqs = vec![
            Nfs3Request::Null,
            Nfs3Request::GetAttr { fh: fh(b"h1") },
            Nfs3Request::SetAttr {
                fh: fh(b"h1"),
                attrs: Sattr3 {
                    mode: Some(0o600),
                    size: Some(10),
                    ..Default::default()
                },
            },
            Nfs3Request::Lookup {
                dir: fh(b"d"),
                name: "file".into(),
            },
            Nfs3Request::Access {
                fh: fh(b"h"),
                mask: 0x3f,
            },
            Nfs3Request::ReadLink { fh: fh(b"h") },
            Nfs3Request::Read {
                fh: fh(b"h"),
                offset: 8192,
                count: 4096,
            },
            Nfs3Request::Write {
                fh: fh(b"h"),
                offset: 0,
                stable: StableHow::FileSync,
                data: vec![1, 2, 3],
            },
            Nfs3Request::Create {
                dir: fh(b"d"),
                name: "new".into(),
                attrs: Sattr3::default(),
            },
            Nfs3Request::Mkdir {
                dir: fh(b"d"),
                name: "sub".into(),
                attrs: Sattr3::default(),
            },
            Nfs3Request::Symlink {
                dir: fh(b"d"),
                name: "ln".into(),
                target: "/sfs/x:y".into(),
            },
            Nfs3Request::Remove {
                dir: fh(b"d"),
                name: "old".into(),
            },
            Nfs3Request::Rmdir {
                dir: fh(b"d"),
                name: "sub".into(),
            },
            Nfs3Request::Rename {
                from_dir: fh(b"d1"),
                from_name: "a".into(),
                to_dir: fh(b"d2"),
                to_name: "b".into(),
            },
            Nfs3Request::Link {
                fh: fh(b"f"),
                dir: fh(b"d"),
                name: "alias".into(),
            },
            Nfs3Request::ReadDir {
                dir: fh(b"d"),
                cookie: 5,
                count: 100,
                plus: false,
            },
            Nfs3Request::ReadDir {
                dir: fh(b"d"),
                cookie: 0,
                count: 100,
                plus: true,
            },
            Nfs3Request::FsStat { root: fh(b"r") },
            Nfs3Request::FsInfo { root: fh(b"r") },
            Nfs3Request::PathConf { fh: fh(b"r") },
            Nfs3Request::Commit {
                fh: fh(b"f"),
                offset: 0,
                count: 0,
            },
        ];
        for req in reqs {
            let args = req.encode_args();
            let back = Nfs3Request::decode_args(req.proc(), &args).unwrap();
            assert_eq!(back, req);
        }
    }

    #[test]
    fn reply_results_roundtrip() {
        let cases: Vec<(Proc, Nfs3Reply)> = vec![
            (Proc::Null, Nfs3Reply::Null),
            (
                Proc::GetAttr,
                Nfs3Reply::GetAttr {
                    attr: attr(),
                    lease_ns: 5_000_000,
                },
            ),
            (
                Proc::Lookup,
                Nfs3Reply::Lookup {
                    fh: fh(b"child"),
                    attr: PostOpAttr::leased(attr(), 99),
                    dir_attr: PostOpAttr::none(),
                },
            ),
            (
                Proc::Read,
                Nfs3Reply::Read {
                    data: vec![9; 100],
                    eof: true,
                    attr: PostOpAttr::plain(attr()),
                },
            ),
            (
                Proc::Write,
                Nfs3Reply::Write {
                    count: 100,
                    committed: StableHow::FileSync,
                    attr: PostOpAttr::plain(attr()),
                },
            ),
            (
                Proc::ReadDir,
                Nfs3Reply::ReadDir {
                    entries: vec![
                        DirEntry {
                            fileid: 3,
                            name: "a".into(),
                            cookie: 1,
                            plus: None,
                        },
                        DirEntry {
                            fileid: 4,
                            name: "b".into(),
                            cookie: 2,
                            plus: Some((fh(b"b"), PostOpAttr::plain(attr()))),
                        },
                    ],
                    eof: true,
                    dir_attr: PostOpAttr::none(),
                },
            ),
            (
                Proc::FsStat,
                Nfs3Reply::FsStat {
                    total_bytes: 1,
                    free_bytes: 2,
                    total_files: 3,
                },
            ),
            (
                Proc::PathConf,
                Nfs3Reply::PathConf {
                    name_max: 255,
                    linkmax: 32767,
                },
            ),
        ];
        for (proc, reply) in cases {
            let bytes = reply.encode_results();
            let back = Nfs3Reply::decode_results(proc, &bytes).unwrap();
            assert_eq!(back, reply, "proc={proc:?}");
        }
    }

    #[test]
    fn error_reply_roundtrip() {
        let reply = Nfs3Reply::Error {
            status: Status::Acces,
            dir_attr: PostOpAttr::none(),
        };
        let bytes = reply.encode_results();
        // Error decoding is independent of procedure.
        for proc in [Proc::GetAttr, Proc::Read, Proc::Rename] {
            assert_eq!(Nfs3Reply::decode_results(proc, &bytes).unwrap(), reply);
        }
    }

    #[test]
    fn status_mapping_total() {
        // Every FsError maps to a status that round-trips on the wire.
        for e in [
            FsError::NotFound,
            FsError::Exists,
            FsError::NotDir,
            FsError::IsDir,
            FsError::NotEmpty,
            FsError::Access,
            FsError::Perm,
            FsError::NameTooLong,
            FsError::Invalid,
            FsError::Stale,
            FsError::TooManyLinks,
            FsError::NotSymlink,
        ] {
            let s: Status = e.into();
            let mut enc = XdrEncoder::new();
            s.encode(&mut enc);
            let mut dec = XdrDecoder::new(enc.bytes());
            assert_eq!(Status::decode(&mut dec).unwrap(), s);
        }
    }

    /// The `Vec<u8>` handle this type replaced, with its derived traits:
    /// the reference the inline handle must behave exactly like.
    mod before {
        #[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub(super) struct FileHandle(pub(super) Vec<u8>);
    }

    #[test]
    fn inline_handles_order_hash_compare_and_print_as_the_vec_did() {
        use std::hash::{BuildHasher, RandomState};
        // xorshift64: random handles of 0..=64 bytes, plus a prefix and an
        // extension of each, so prefixes meet their extensions.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut vecs: Vec<Vec<u8>> = Vec::new();
        for _ in 0..200 {
            let len = (next() % (FHSIZE as u64 + 1)) as usize;
            // A narrow byte range makes equal and prefix-sharing handles
            // common.
            let v: Vec<u8> = (0..len).map(|_| (next() % 3) as u8).collect();
            vecs.push(v[..len / 2].to_vec());
            if len < FHSIZE {
                vecs.push([&v[..], &[0]].concat());
            }
            vecs.push(v);
        }
        let new: Vec<FileHandle> = vecs.iter().map(|v| FileHandle::new(v).unwrap()).collect();
        let old: Vec<before::FileHandle> = vecs.iter().cloned().map(before::FileHandle).collect();
        let hasher = RandomState::new();
        for (a, oa) in new.iter().zip(&old) {
            assert_eq!(a.as_bytes(), &oa.0[..]);
            assert_eq!(hasher.hash_one(a), hasher.hash_one(oa), "{a:?}");
            assert_eq!(format!("{a:?}"), format!("{oa:?}"));
            assert_eq!(format!("{a:#?}"), format!("{oa:#?}"));
            for (b, ob) in new.iter().zip(&old) {
                assert_eq!(a.cmp(b), oa.cmp(ob), "{a:?} vs {b:?}");
                assert_eq!(a == b, oa == ob, "{a:?} vs {b:?}");
            }
        }
        assert_eq!(format!("{:?}", fh(&[1, 2, 3])), "FileHandle([1, 2, 3])");
        assert!(fh(&[1, 2]) < fh(&[1, 2, 0]), "a prefix sorts first");
        assert_eq!(FileHandle::new(&[0; FHSIZE + 1]), None);
    }

    #[test]
    fn oversized_file_handle_rejected() {
        let mut enc = XdrEncoder::new();
        enc.put_opaque(&[0u8; 65]);
        let mut dec = XdrDecoder::new(enc.bytes());
        assert!(matches!(
            FileHandle::decode(&mut dec),
            Err(XdrError::LengthTooLong {
                claimed: 65,
                max: 64
            })
        ));
    }

    #[test]
    fn proc_from_u32_rejects_mknod_and_unknown() {
        assert_eq!(Proc::from_u32(11), None); // MKNOD unsupported
        assert_eq!(Proc::from_u32(22), None);
        assert_eq!(Proc::from_u32(0), Some(Proc::Null));
        assert_eq!(Proc::from_u32(21), Some(Proc::Commit));
    }
}
