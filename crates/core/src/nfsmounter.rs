//! The NFS mounter, `nfsmounter` (§3.3).
//!
//! "All NFS mounting in the client is performed by a separate program
//! called nfsmounter. The NFS mounter is the only part of the client
//! software to run as root. It considers the rest of the system untrusted
//! software. If the other client processes ever crash, the NFS mounter
//! takes over their sockets, acts like an NFS server, and serves enough of
//! the defunct file systems to unmount them all."
//!
//! In this reproduction the mounter tracks mount points created by the
//! (unprivileged) client master and, on a simulated crash, answers the
//! minimal set of NFS operations needed for `umount` to succeed — every
//! lookup returns stale, every directory reads empty — so no mount point
//! can wedge the machine.

use std::collections::BTreeMap;

use sfs_nfs3::proto::{Fattr3, FileHandle, Nfs3Reply, Nfs3Request, PostOpAttr, Status};
use sfs_telemetry::sync::Mutex;
use sfs_vfs::FileType;

/// State of one mount point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MountState {
    /// Served by a live subsidiary daemon.
    Active,
    /// The daemon died; the mounter is serving stubs until unmount.
    TakenOver,
    /// Unmounted.
    Unmounted,
}

/// The privileged mounter process.
#[derive(Debug, Default)]
pub struct NfsMounter {
    mounts: Mutex<BTreeMap<String, MountState>>,
}

impl NfsMounter {
    /// Creates a mounter with no mounts.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a new mount point (called by the client master via its
    /// privileged channel).
    pub fn register_mount(&self, dir_name: &str) {
        self.mounts
            .lock()
            .insert(dir_name.to_string(), MountState::Active);
    }

    /// State of a mount point.
    pub fn state(&self, dir_name: &str) -> Option<MountState> {
        self.mounts.lock().get(dir_name).copied()
    }

    /// All mount points and their states.
    pub fn mounts(&self) -> Vec<(String, MountState)> {
        self.mounts
            .lock()
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }

    /// The crash path: every active mount flips to taken-over stub
    /// service.
    pub fn take_over_all(&self) {
        for state in self.mounts.lock().values_mut() {
            if *state == MountState::Active {
                *state = MountState::TakenOver;
            }
        }
    }

    /// Serves an NFS request for a taken-over mount: just enough for
    /// unmounting (root attributes and empty directory listings), stale
    /// for everything else.
    pub fn serve_stub(&self, dir_name: &str, req: &Nfs3Request) -> Nfs3Reply {
        let taken_over = self.state(dir_name) == Some(MountState::TakenOver);
        if !taken_over {
            return Nfs3Reply::Error {
                status: Status::Stale,
                dir_attr: PostOpAttr::none(),
            };
        }
        let stub_attr = Fattr3 {
            ftype: FileType::Directory,
            mode: 0o755,
            nlink: 2,
            uid: 0,
            gid: 0,
            size: 0,
            fsid: 0,
            fileid: 1,
            atime: 0,
            mtime: 0,
            ctime: 0,
        };
        match req {
            Nfs3Request::Null => Nfs3Reply::Null,
            Nfs3Request::GetAttr { .. } => Nfs3Reply::GetAttr {
                attr: stub_attr,
                lease_ns: 0,
            },
            Nfs3Request::Access { mask, .. } => Nfs3Reply::Access {
                granted: *mask,
                attr: PostOpAttr::plain(stub_attr),
            },
            Nfs3Request::ReadDir { .. } => Nfs3Reply::ReadDir {
                entries: Vec::new(),
                eof: true,
                dir_attr: PostOpAttr::plain(stub_attr),
            },
            Nfs3Request::FsStat { .. } => Nfs3Reply::FsStat {
                total_bytes: 0,
                free_bytes: 0,
                total_files: 0,
            },
            Nfs3Request::Commit { .. } => Nfs3Reply::Commit {
                attr: PostOpAttr::plain(stub_attr),
            },
            _ => Nfs3Reply::Error {
                status: Status::Stale,
                dir_attr: PostOpAttr::none(),
            },
        }
    }

    /// Completes an unmount; the mount point disappears.
    pub fn unmount(&self, dir_name: &str) -> bool {
        match self.mounts.lock().get_mut(dir_name) {
            Some(state) => {
                *state = MountState::Unmounted;
                true
            }
            None => false,
        }
    }

    /// Whether every taken-over mount has been unmounted (the recovery
    /// goal).
    pub fn fully_recovered(&self) -> bool {
        self.mounts
            .lock()
            .values()
            .all(|s| *s != MountState::TakenOver)
    }
}

/// A stub file handle the mounter hands out while serving defunct mounts.
pub fn stub_root_handle() -> FileHandle {
    FileHandle::from([0u8; 16])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn active_mounts_not_stub_served() {
        let m = NfsMounter::new();
        m.register_mount("host:aaaa");
        let reply = m.serve_stub("host:aaaa", &Nfs3Request::Null);
        assert_eq!(
            reply.status(),
            Status::Stale,
            "active mounts served by daemons"
        );
    }

    #[test]
    fn takeover_serves_unmount_path() {
        let m = NfsMounter::new();
        m.register_mount("host:aaaa");
        m.register_mount("host:bbbb");
        m.take_over_all();
        assert_eq!(m.state("host:aaaa"), Some(MountState::TakenOver));
        // The unmount sequence: GETATTR, ACCESS, READDIR all answer.
        let fh = stub_root_handle();
        assert!(matches!(
            m.serve_stub("host:aaaa", &Nfs3Request::GetAttr { fh }),
            Nfs3Reply::GetAttr { .. }
        ));
        assert!(matches!(
            m.serve_stub("host:aaaa", &Nfs3Request::Access { fh, mask: 0x3f }),
            Nfs3Reply::Access { .. }
        ));
        match m.serve_stub(
            "host:aaaa",
            &Nfs3Request::ReadDir {
                dir: fh,
                cookie: 0,
                count: 100,
                plus: false,
            },
        ) {
            Nfs3Reply::ReadDir { entries, eof, .. } => {
                assert!(entries.is_empty());
                assert!(eof);
            }
            other => panic!("{other:?}"),
        }
        // Writes fail stale — nothing can wedge.
        assert_eq!(
            m.serve_stub(
                "host:aaaa",
                &Nfs3Request::Remove {
                    dir: fh,
                    name: "x".into()
                }
            )
            .status(),
            Status::Stale
        );
    }

    #[test]
    fn recovery_completes_after_unmounts() {
        let m = NfsMounter::new();
        m.register_mount("a:1");
        m.register_mount("b:2");
        m.take_over_all();
        assert!(!m.fully_recovered());
        assert!(m.unmount("a:1"));
        assert!(!m.fully_recovered());
        assert!(m.unmount("b:2"));
        assert!(m.fully_recovered());
        assert!(!m.unmount("c:3"), "unknown mount");
    }
}
