//! Unit tests for the server side: handle encryption, the cleartext
//! state machine's refusals, the one preamble behind both sealed
//! entries, and the shared marshaling pieces checked against their
//! references for every NFS3 procedure.

use super::*;
use crate::wire::{
    encode_inner_nfs, inner_nfs_call, CallMsg, Dialect, InnerCall, ReplyMsg, Service,
};
use sfs_crypto::srp::SrpGroup;
use sfs_nfs3::proto::{DirEntry, PostOpAttr, Sattr3, StableHow};
use sfs_proto::keyneg::KeyNegServerReply;
use sfs_sim::SimClock;
use std::sync::OnceLock;

fn test_key() -> RabinPrivateKey {
    static KEY: OnceLock<RabinPrivateKey> = OnceLock::new();
    KEY.get_or_init(|| {
        let mut rng = sfs_bignum::XorShiftSource::new(0xF00D);
        sfs_crypto::rabin::generate_keypair(768, &mut rng)
    })
    .clone()
}

fn srp_group() -> SrpGroup {
    static G: OnceLock<SrpGroup> = OnceLock::new();
    G.get_or_init(|| {
        let mut rng = sfs_bignum::XorShiftSource::new(0x64);
        SrpGroup::generate(128, &mut rng)
    })
    .clone()
}

fn make_server() -> Arc<SfsServer> {
    let clock = SimClock::new();
    let vfs = Vfs::new(42, clock);
    let auth = Arc::new(AuthServer::new(srp_group(), 2));
    SfsServer::new(
        ServerConfig::new("server.example.com"),
        test_key(),
        vfs,
        auth,
        SfsPrg::from_entropy(b"server-test"),
    )
}

#[test]
fn handle_encryption_roundtrip() {
    let s = make_server();
    let nfs_handle = FileHandle(vec![7u8; 16]);
    let sfs_handle = s.encrypt_handle(nfs_handle.clone());
    assert_ne!(sfs_handle.0[..16], nfs_handle.0[..]);
    assert_eq!(sfs_handle.0.len(), 24);
    assert_eq!(s.decrypt_handle(&sfs_handle).unwrap(), nfs_handle);
}

#[test]
fn forged_handle_rejected() {
    let s = make_server();
    // Guessing a handle fails the redundancy check.
    assert_eq!(
        s.decrypt_handle(&FileHandle(vec![1u8; 24])).unwrap_err(),
        Status::BadHandle
    );
    // Truncated handles are rejected outright.
    assert_eq!(
        s.decrypt_handle(&FileHandle(vec![1u8; 16])).unwrap_err(),
        Status::BadHandle
    );
    // Flipping one bit of a valid handle breaks it.
    let mut h = s.encrypt_handle(FileHandle(vec![7u8; 16]));
    h.0[3] ^= 1;
    assert_eq!(s.decrypt_handle(&h).unwrap_err(), Status::BadHandle);
}

fn hello(s: &SfsServer, dialect: Dialect, version: u32) -> CallMsg {
    CallMsg::Hello {
        req: sfs_proto::keyneg::KeyNegRequest {
            location: "server.example.com".into(),
            host_id: s.path().host_id,
        },
        service: Service::File,
        dialect,
        version,
        extensions: String::new(),
    }
}

#[test]
fn hello_returns_server_key() {
    let s = make_server();
    let conn = s.accept();
    match conn.handle(hello(&s, Dialect::ReadWrite, 1)) {
        ReplyMsg::ServerReply(KeyNegServerReply::ServerKey(k)) => {
            assert_eq!(k, test_key().public().to_bytes());
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn hello_for_an_undispatched_version_is_refused_by_name() {
    let s = make_server();
    let reply = s.accept().handle(hello(&s, Dialect::ReadWrite, 9));
    assert_eq!(
        reply,
        ReplyMsg::Error(
            "no daemon configured for service File dialect ReadWrite version 9 \
             extensions \"\""
                .into()
        )
    );
}

#[test]
fn revoked_hello_returns_certificate() {
    let s = make_server();
    let cert = RevocationCert::issue(&test_key(), "server.example.com");
    s.install_revocation(cert.clone());
    let conn = s.accept();
    match conn.handle(hello(&s, Dialect::ReadWrite, 1)) {
        ReplyMsg::ServerReply(KeyNegServerReply::Revoked(c)) => assert_eq!(c, cert),
        other => panic!("{other:?}"),
    }
}

#[test]
fn sealed_without_channel_rejected() {
    let s = make_server();
    let conn = s.accept();
    let sealed = CallMsg::SealedSeq {
        chanseq: 0,
        xid: 0,
        frame: vec![0; 64],
    };
    let bytes = sealed.to_xdr();
    // The same bytes pass the one preamble whichever entry point they
    // come in by, so the two refusals are identical.
    let refusal = || {
        let blocking = conn.handle_bytes(&bytes);
        let (windowed, _) = conn.handle_frames_on(0, 0, &bytes);
        assert_eq!(windowed, vec![blocking.clone()]);
        ReplyMsg::from_xdr(&blocking).unwrap()
    };
    assert_eq!(refusal(), ReplyMsg::Error("no secure channel".into()));
    s.crash_restart();
    assert_eq!(
        refusal(),
        ReplyMsg::Error("connection reset: server restarted".into())
    );
    // A decoded sealed message has no path to the channel at all.
    assert!(matches!(conn.handle(sealed), ReplyMsg::Error(_)));
}

#[test]
fn keyneg_out_of_order_rejected() {
    let s = make_server();
    let conn = s.accept();
    let reply = conn.handle(CallMsg::ClientKeys(sfs_proto::keyneg::KeyNegClientKeys {
        client_key: vec![1],
        encrypted_halves: vec![2],
    }));
    assert!(matches!(reply, ReplyMsg::Error(_)));
}

#[test]
fn read_only_requires_dialect() {
    let s = make_server();
    s.publish_read_only(1);
    let conn = s.accept();
    // Without a hello selecting the read-only dialect, blocks are not
    // served.
    assert!(matches!(
        conn.handle(CallMsg::RoGetRoot),
        ReplyMsg::Error(_)
    ));
    let _ = conn.handle(hello(&s, Dialect::ReadOnly, 1));
    match conn.handle(CallMsg::RoGetRoot) {
        ReplyMsg::RoRoot(root) => assert!(root.verify(test_key().public())),
        other => panic!("{other:?}"),
    }
}

/// Every procedure `sfssd` relays, in number order.
fn procs() -> impl Iterator<Item = Proc> {
    (0..=21).filter_map(Proc::from_u32)
}

/// One request for `proc` — exhaustive over [`Proc`], so a procedure
/// cannot be added without a sample. `fh` supplies each file handle
/// in turn and `n` spreads the other arguments.
fn sample_request(proc: Proc, n: u64, mut fh: impl FnMut() -> FileHandle) -> Nfs3Request {
    use Nfs3Request as R;
    let name = format!("name-{n}");
    let attrs = Sattr3 {
        mode: Some(n as u32 & 0o777),
        size: (n & 1 == 0).then_some(n),
        ..Default::default()
    };
    let (offset, count) = (n << 9, n as u32 % 8192);
    match proc {
        Proc::Null => R::Null,
        Proc::GetAttr => R::GetAttr { fh: fh() },
        Proc::SetAttr => R::SetAttr { fh: fh(), attrs },
        Proc::Lookup => R::Lookup { dir: fh(), name },
        Proc::Access => R::Access {
            fh: fh(),
            mask: count,
        },
        Proc::ReadLink => R::ReadLink { fh: fh() },
        Proc::Read => R::Read {
            fh: fh(),
            offset,
            count,
        },
        Proc::Write => R::Write {
            fh: fh(),
            offset,
            stable: StableHow::Unstable,
            data: vec![n as u8; n as usize % 67],
        },
        Proc::Create => R::Create {
            dir: fh(),
            name,
            attrs,
        },
        Proc::Mkdir => R::Mkdir {
            dir: fh(),
            name,
            attrs,
        },
        Proc::Symlink => R::Symlink {
            dir: fh(),
            target: format!("/sfs/{name}"),
            name,
        },
        Proc::Remove => R::Remove { dir: fh(), name },
        Proc::Rmdir => R::Rmdir { dir: fh(), name },
        Proc::Rename => R::Rename {
            from_dir: fh(),
            to_name: format!("to-{name}"),
            from_name: name,
            to_dir: fh(),
        },
        Proc::Link => R::Link {
            fh: fh(),
            dir: fh(),
            name,
        },
        Proc::ReadDir | Proc::ReadDirPlus => R::ReadDir {
            dir: fh(),
            cookie: n,
            count,
            plus: proc == Proc::ReadDirPlus,
        },
        Proc::FsStat => R::FsStat { root: fh() },
        Proc::FsInfo => R::FsInfo { root: fh() },
        Proc::PathConf => R::PathConf { fh: fh() },
        Proc::Commit => R::Commit {
            fh: fh(),
            offset,
            count,
        },
    }
}

/// One successful reply for `proc`, exhaustive like
/// [`sample_request`].
fn sample_reply(proc: Proc, mut fh: impl FnMut() -> FileHandle) -> Nfs3Reply {
    use Nfs3Reply as P;
    let (attr, dir_attr) = (PostOpAttr::default(), PostOpAttr::default());
    match proc {
        Proc::Null => P::Null,
        Proc::GetAttr => {
            let vfs = Vfs::new(42, SimClock::new());
            let attr = vfs.getattr(vfs.root()).expect("the root exists").into();
            P::GetAttr { attr, lease_ns: 5 }
        }
        Proc::SetAttr => P::SetAttr { attr },
        Proc::Lookup => P::Lookup {
            fh: fh(),
            attr,
            dir_attr,
        },
        Proc::Access => P::Access { granted: 7, attr },
        Proc::ReadLink => P::ReadLink {
            target: "/sfs/t".into(),
            attr,
        },
        Proc::Read => P::Read {
            data: vec![9; 10],
            eof: true,
            attr,
        },
        Proc::Write => P::Write {
            count: 10,
            committed: StableHow::FileSync,
            attr,
        },
        Proc::Create => P::Create {
            fh: fh(),
            attr,
            dir_attr,
        },
        Proc::Mkdir => P::Mkdir {
            fh: fh(),
            attr,
            dir_attr,
        },
        Proc::Symlink => P::Symlink {
            fh: fh(),
            attr,
            dir_attr,
        },
        Proc::Remove => P::Remove { dir_attr },
        Proc::Rmdir => P::Rmdir { dir_attr },
        Proc::Rename => P::Rename {
            from_dir_attr: attr,
            to_dir_attr: dir_attr,
        },
        Proc::Link => P::Link { attr, dir_attr },
        Proc::ReadDir | Proc::ReadDirPlus => P::ReadDir {
            entries: (1..=3)
                .map(|i| DirEntry {
                    fileid: i,
                    name: format!("e{i}"),
                    cookie: i,
                    plus: (proc == Proc::ReadDirPlus && i != 2).then(|| (fh(), attr)),
                })
                .collect(),
            eof: true,
            dir_attr,
        },
        Proc::FsStat => P::FsStat {
            total_bytes: 1,
            free_bytes: 2,
            total_files: 3,
        },
        Proc::FsInfo => P::FsInfo {
            rtmax: 1,
            wtmax: 2,
            dtpref: 3,
        },
        Proc::PathConf => P::PathConf {
            name_max: 255,
            linkmax: 8,
        },
        Proc::Commit => P::Commit { attr },
    }
}

#[test]
fn inner_nfs_marshal_equals_the_enum_form_for_every_proc() {
    // Both engines send `encode_inner_nfs`; the server parses with
    // `inner_nfs_call`. For every procedure and a seeded spread of
    // arguments the marshal must be the general encoder's bytes, and
    // the parse must hand back what went in.
    use sfs_bignum::XorShiftSource;
    let mut rng = XorShiftSource::new(0x1CA11);
    let mut draw = move || {
        let mut b = [0u8; 8];
        rng.fill(&mut b);
        u64::from_le_bytes(b)
    };
    for proc in procs() {
        for _ in 0..32 {
            let (n, authno) = (draw() >> 40, draw() as u32);
            let req = sample_request(proc, n, || {
                FileHandle(draw().to_le_bytes().repeat(1 + n as usize % 8))
            });
            let args = req.encode_args();
            let mut plaintext = Vec::new();
            encode_inner_nfs(&mut plaintext, authno, &req);
            let general = InnerCall::Nfs {
                authno,
                proc: proc as u32,
                args: args.clone(),
            };
            assert_eq!(plaintext, general.to_xdr(), "{req:?}");
            let parsed = inner_nfs_call(&plaintext);
            assert_eq!(parsed, Some((authno, proc as u32, &args[..])));
        }
    }
}

// The rebuild-every-variant handle translation `dispatch_nfs_into`
// used before the `handles_mut` visitors, kept as the reference the
// in-place loops are checked against.

/// Applies `f` to every file handle in an NFS3 request.
fn map_request_handles(
    req: Nfs3Request,
    f: &mut dyn FnMut(FileHandle) -> Result<FileHandle, Status>,
) -> Result<Nfs3Request, Status> {
    use Nfs3Request as R;
    Ok(match req {
        R::Null => R::Null,
        R::GetAttr { fh } => R::GetAttr { fh: f(fh)? },
        R::SetAttr { fh, attrs } => R::SetAttr { fh: f(fh)?, attrs },
        R::Lookup { dir, name } => R::Lookup { dir: f(dir)?, name },
        R::Access { fh, mask } => R::Access { fh: f(fh)?, mask },
        R::ReadLink { fh } => R::ReadLink { fh: f(fh)? },
        R::Read { fh, offset, count } => R::Read {
            fh: f(fh)?,
            offset,
            count,
        },
        R::Write {
            fh,
            offset,
            stable,
            data,
        } => R::Write {
            fh: f(fh)?,
            offset,
            stable,
            data,
        },
        R::Create { dir, name, attrs } => R::Create {
            dir: f(dir)?,
            name,
            attrs,
        },
        R::Mkdir { dir, name, attrs } => R::Mkdir {
            dir: f(dir)?,
            name,
            attrs,
        },
        R::Symlink { dir, name, target } => R::Symlink {
            dir: f(dir)?,
            name,
            target,
        },
        R::Remove { dir, name } => R::Remove { dir: f(dir)?, name },
        R::Rmdir { dir, name } => R::Rmdir { dir: f(dir)?, name },
        R::Rename {
            from_dir,
            from_name,
            to_dir,
            to_name,
        } => R::Rename {
            from_dir: f(from_dir)?,
            from_name,
            to_dir: f(to_dir)?,
            to_name,
        },
        R::Link { fh, dir, name } => R::Link {
            fh: f(fh)?,
            dir: f(dir)?,
            name,
        },
        R::ReadDir {
            dir,
            cookie,
            count,
            plus,
        } => R::ReadDir {
            dir: f(dir)?,
            cookie,
            count,
            plus,
        },
        R::FsStat { root } => R::FsStat { root: f(root)? },
        R::FsInfo { root } => R::FsInfo { root: f(root)? },
        R::PathConf { fh } => R::PathConf { fh: f(fh)? },
        R::Commit { fh, offset, count } => R::Commit {
            fh: f(fh)?,
            offset,
            count,
        },
    })
}

/// Applies `f` to every file handle in an NFS3 reply.
fn map_reply_handles(reply: Nfs3Reply, f: &mut dyn FnMut(FileHandle) -> FileHandle) -> Nfs3Reply {
    use Nfs3Reply as P;
    match reply {
        P::Lookup { fh, attr, dir_attr } => P::Lookup {
            fh: f(fh),
            attr,
            dir_attr,
        },
        P::Create { fh, attr, dir_attr } => P::Create {
            fh: f(fh),
            attr,
            dir_attr,
        },
        P::Mkdir { fh, attr, dir_attr } => P::Mkdir {
            fh: f(fh),
            attr,
            dir_attr,
        },
        P::Symlink { fh, attr, dir_attr } => P::Symlink {
            fh: f(fh),
            attr,
            dir_attr,
        },
        P::ReadDir {
            entries,
            eof,
            dir_attr,
        } => P::ReadDir {
            entries: entries
                .into_iter()
                .map(|mut e| {
                    e.plus = e.plus.map(|(fh, a)| (f(fh), a));
                    e
                })
                .collect(),
            eof,
            dir_attr,
        },
        other => other,
    }
}

/// Hands out 24-byte handles of one repeated byte, `0xE1`, `0xE2`, …
fn marked() -> impl FnMut() -> FileHandle {
    let mut mark = 0xE0u8;
    move || {
        mark += 1;
        FileHandle(vec![mark; 24])
    }
}

/// The marks of the [`marked`] handles found in marshaled bytes, in
/// the order they were written.
fn marks_in(bytes: &[u8]) -> Vec<u8> {
    bytes
        .windows(28)
        .filter(|w| w[..4] == [0, 0, 0, 24] && w[4] > 0xE0 && w[4..].iter().all(|&b| b == w[4]))
        .map(|w| w[4])
        .collect()
}

fn flipped(fh: &FileHandle) -> FileHandle {
    FileHandle(fh.0.iter().map(|b| !b).collect())
}

#[test]
fn handle_visitors_match_the_rebuild_and_the_wire_order() {
    // Rewriting through `handles_mut` must equal the reference
    // rebuild, and must visit exactly the handles the marshaled form
    // carries, in that order — a variant that forgets one fails.
    for proc in procs() {
        let req = sample_request(proc, 6, marked());
        let (mut visited, mut order) = (req.clone(), Vec::new());
        for fh in visited.handles_mut() {
            order.push(fh.0[0]);
            *fh = flipped(fh);
        }
        let rebuilt = map_request_handles(req.clone(), &mut |fh| Ok(flipped(&fh)));
        assert_eq!(Ok(visited), rebuilt, "{proc:?}");
        assert_eq!(order, marks_in(&req.encode_args()), "{proc:?}");

        let reply = sample_reply(proc, marked());
        let (mut visited, mut order) = (reply.clone(), Vec::new());
        for fh in visited.handles_mut() {
            order.push(fh.0[0]);
            *fh = flipped(fh);
        }
        let rebuilt = map_reply_handles(reply.clone(), &mut |fh| flipped(&fh));
        assert_eq!(visited, rebuilt, "{proc:?}");
        assert_eq!(order, marks_in(&reply.encode_results()), "{proc:?}");
    }
    let mut error = Nfs3Reply::Error {
        status: Status::Stale,
        dir_attr: PostOpAttr::default(),
    };
    assert_eq!(error.handles_mut().count(), 0);
}
