//! Robustness: the NFS3 protocol engine must never panic on hostile
//! input. The paper singles this out (§3.3): "During the course of
//! developing SFS, we found and fixed a number of client and server NFS
//! bugs … perfectly valid NFS messages caused the kernel to overrun
//! buffers or use uninitialized memory. An attacker could exploit such
//! weaknesses." This engine is the part of the reproduction most exposed
//! to attacker-controlled bytes. Inputs come from a seeded SplitMix64
//! generator, so every run fuzzes the same sample deterministically.

use sfs_nfs3::proto::{FileHandle, Nfs3Reply, Nfs3Request, Proc, Sattr3, StableHow};
use sfs_nfs3::Nfs3Server;
use sfs_sim::SimClock;
use sfs_telemetry::Telemetry;
use sfs_vfs::{Credentials, Vfs};

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.next() as u8).collect()
    }

    /// The root's handle, or now and then a forged one.
    fn fh(&mut self, root: FileHandle) -> FileHandle {
        let len = self.below(65) as usize;
        match self.below(4) {
            0 => FileHandle::new(&self.bytes(len)).expect("at most FHSIZE bytes"),
            _ => root,
        }
    }

    fn name(&mut self) -> String {
        match self.below(5) {
            0 => String::new(),
            1 => "..".into(),
            2 => "x".repeat(300),
            _ => format!("f{}", self.below(4)),
        }
    }

    fn word(&mut self) -> u32 {
        [0, 1, 4096, u32::MAX, self.next() as u32][self.below(5) as usize]
    }

    fn wide(&mut self) -> u64 {
        [0, 1, 1 << 40, u64::MAX, self.next()][self.below(5) as usize]
    }

    fn attrs(&mut self) -> Sattr3 {
        Sattr3 {
            mode: (self.below(2) == 0).then(|| self.word()),
            size: (self.below(2) == 0).then(|| self.wide()),
            mtime: (self.below(2) == 0).then(|| self.wide()),
            ..Sattr3::default()
        }
    }

    /// A well-formed call to `proc` whose fields are boundary values.
    fn request(&mut self, proc: Proc, root: FileHandle) -> Nfs3Request {
        match proc {
            Proc::Null => Nfs3Request::Null,
            Proc::GetAttr => Nfs3Request::GetAttr { fh: self.fh(root) },
            Proc::SetAttr => Nfs3Request::SetAttr {
                fh: self.fh(root),
                attrs: self.attrs(),
            },
            Proc::Lookup => Nfs3Request::Lookup {
                dir: self.fh(root),
                name: self.name(),
            },
            Proc::Access => Nfs3Request::Access {
                fh: self.fh(root),
                mask: self.word(),
            },
            Proc::ReadLink => Nfs3Request::ReadLink { fh: self.fh(root) },
            Proc::Read | Proc::Commit => {
                let (fh, offset, count) = (self.fh(root), self.wide(), self.word());
                match proc {
                    Proc::Read => Nfs3Request::Read { fh, offset, count },
                    _ => Nfs3Request::Commit { fh, offset, count },
                }
            }
            Proc::Write => Nfs3Request::Write {
                fh: self.fh(root),
                offset: self.wide(),
                stable: StableHow::Unstable,
                data: {
                    let len = self.below(64) as usize;
                    self.bytes(len)
                },
            },
            Proc::Create | Proc::Mkdir => {
                let (dir, name, attrs) = (self.fh(root), self.name(), self.attrs());
                match proc {
                    Proc::Create => Nfs3Request::Create { dir, name, attrs },
                    _ => Nfs3Request::Mkdir { dir, name, attrs },
                }
            }
            Proc::Symlink => Nfs3Request::Symlink {
                dir: self.fh(root),
                name: self.name(),
                target: self.name(),
            },
            Proc::Remove | Proc::Rmdir => {
                let (dir, name) = (self.fh(root), self.name());
                match proc {
                    Proc::Remove => Nfs3Request::Remove { dir, name },
                    _ => Nfs3Request::Rmdir { dir, name },
                }
            }
            Proc::Rename => Nfs3Request::Rename {
                from_dir: self.fh(root),
                from_name: self.name(),
                to_dir: self.fh(root),
                to_name: self.name(),
            },
            Proc::Link => Nfs3Request::Link {
                fh: self.fh(root),
                dir: self.fh(root),
                name: self.name(),
            },
            Proc::ReadDir | Proc::ReadDirPlus => Nfs3Request::ReadDir {
                dir: self.fh(root),
                cookie: self.wide(),
                count: self.word(),
                plus: proc == Proc::ReadDirPlus,
            },
            Proc::FsStat => Nfs3Request::FsStat {
                root: self.fh(root),
            },
            Proc::FsInfo => Nfs3Request::FsInfo {
                root: self.fh(root),
            },
            Proc::PathConf => Nfs3Request::PathConf { fh: self.fh(root) },
        }
    }
}

fn all_procs() -> Vec<Proc> {
    (0u32..22).filter_map(Proc::from_u32).collect()
}

#[test]
fn decode_args_never_panics() {
    let mut rng = Rng(0xDECA);
    let procs = all_procs();
    for _ in 0..512 {
        let proc = procs[rng.below(procs.len() as u64) as usize];
        let len = rng.below(300) as usize;
        let bytes = rng.bytes(len);
        let _ = Nfs3Request::decode_args(proc, &bytes);
    }
}

#[test]
fn decode_results_never_panics() {
    let mut rng = Rng(0xDEC2);
    let procs = all_procs();
    for _ in 0..512 {
        let proc = procs[rng.below(procs.len() as u64) as usize];
        let len = rng.below(300) as usize;
        let bytes = rng.bytes(len);
        let _ = Nfs3Reply::decode_results(proc, &bytes);
    }
}

/// Hostile inner NFS calls through the three steps the SFS server's
/// sealed path takes for each one (`dispatch_nfs_into` in
/// `sfs::server`): an unknown procedure number is refused (`NotSupp`),
/// arguments that do not decode are refused (`Inval`), and whatever
/// decodes reaches the handler, which must answer without panicking.
/// One server takes every call, so later calls meet what earlier ones
/// created. Most calls are well-formed with boundary-value fields, and a
/// quarter of all calls are then damaged.
#[test]
fn server_survives_arbitrary_rpc_bytes() {
    let mut rng = Rng(0x5E4F);
    let tel = Telemetry::disabled();
    let server = Nfs3Server::new(Vfs::new(1, SimClock::new()));
    let (mut unknown, mut garbage, mut served) = (0, 0, 0);
    for _ in 0..256 {
        let proc = match rng.below(8) {
            0 => rng.next() as u32,
            _ => rng.below(24) as u32,
        };
        let mut args = match Proc::from_u32(proc) {
            Some(proc) => rng.request(proc, server.root_handle()).encode_args(),
            None => {
                let len = rng.below(200) as usize;
                rng.bytes(len)
            }
        };
        match rng.below(8) {
            0 if !args.is_empty() => {
                let i = rng.below(args.len() as u64) as usize;
                args[i] ^= 1 << rng.below(8);
            }
            1 => args.truncate(rng.below(args.len() as u64 + 1) as usize),
            _ => {}
        }
        let creds = match rng.below(2) {
            0 => Credentials::root(),
            _ => Credentials::anonymous(),
        };
        let Some(proc) = Proc::from_u32(proc) else {
            unknown += 1;
            continue;
        };
        let Ok(req) = Nfs3Request::decode_args_ref(proc, &args) else {
            garbage += 1;
            continue;
        };
        served += 1;
        let results = server.serve(&tel, &creds, &req, |reply| reply.encode_results());
        assert!(Nfs3Reply::decode_results(proc, &results).is_ok(), "{req:?}");
    }
    assert!(
        unknown > 0 && garbage > 0 && served > 128,
        "{unknown} / {garbage} / {served}"
    );
}

#[test]
fn request_decode_encode_decode_is_stable() {
    let mut rng = Rng(0x57AB);
    let procs = all_procs();
    for _ in 0..512 {
        // If hostile bytes *do* decode, re-encoding and re-decoding must
        // yield the same structure (no lossy acceptance).
        let proc = procs[rng.below(procs.len() as u64) as usize];
        let len = rng.below(300) as usize;
        let bytes = rng.bytes(len);
        if let Ok(req) = Nfs3Request::decode_args(proc, &bytes) {
            let reencoded = req.encode_args();
            let again = Nfs3Request::decode_args(req.proc(), &reencoded).unwrap();
            assert_eq!(again, req);
        }
    }
}
