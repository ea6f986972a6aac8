//! An in-memory, FFS-like Unix file system over a simulated disk.
//!
//! In the paper's deployment, the SFS server "acts as an NFS client, passing
//! the request to an NFS server on the same machine" (§3), which stores data
//! in FreeBSD's FFS; the client side hands NFS RPCs to the kernel. This
//! crate is that substrate: a complete Unix file-system semantics layer —
//! inodes, directories, symbolic and hard links, permissions, uid/gid
//! ownership, timestamps, device/inode numbers — with FFS-style cost
//! accounting against [`sfs_sim::SimDisk`] (synchronous metadata updates,
//! write-behind data).
//!
//! It serves three roles in the reproduction:
//! - the backing store behind the NFS3 server (`sfs-nfs3`),
//! - the "Local" baseline in every §4 benchmark,
//! - the namespace in which symlink-based key management (§2.4) lives.

pub mod fs;
mod types;

pub use fs::Vfs;
pub use types::{AccessMode, Attr, Credentials, FileType, FsError, Ino, SetAttr};
