//! Unit tests for the server side: handle encryption, the cleartext
//! state machine's refusals, the one preamble behind both sealed
//! entries, and the shared marshaling pieces checked against their
//! references for every NFS3 procedure.

use super::*;
use crate::wire::{
    encode_inner_nfs, inner_nfs_call, CallMsg, Dialect, InnerCall, InnerReply, ReplyMsg, Service,
};
use sfs_crypto::srp::SrpGroup;
use sfs_nfs3::proto::{DirEntry, PostOpAttr, Sattr3, StableHow};
use sfs_proto::keyneg::KeyNegServerReply;
use sfs_sim::SimClock;
use sfs_xdr::XdrError;
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
    let nfs_handle = FileHandle::from([7u8; 16]);
    let sfs_handle = s.encrypt_handle(nfs_handle).unwrap();
    assert_ne!(sfs_handle.as_bytes()[..16], nfs_handle.as_bytes()[..]);
    assert_eq!(sfs_handle.len(), 24);
    assert_eq!(s.decrypt_handle(&sfs_handle).unwrap(), nfs_handle);
}

#[test]
fn forged_handle_rejected() {
    let s = make_server();
    // Guessing a handle fails the redundancy check.
    assert_eq!(
        s.decrypt_handle(&FileHandle::from([1u8; 24])).unwrap_err(),
        Status::BadHandle
    );
    // Truncated handles are rejected outright.
    assert_eq!(
        s.decrypt_handle(&FileHandle::from([1u8; 16])).unwrap_err(),
        Status::BadHandle
    );
    // Flipping one bit of a valid handle breaks it.
    let mut h = s.encrypt_handle(FileHandle::from([7u8; 16])).unwrap();
    h.as_bytes_mut()[3] ^= 1;
    assert_eq!(s.decrypt_handle(&h).unwrap_err(), Status::BadHandle);
}

/// Allocations on the calling thread, so a test can show that refusing
/// a hostile handle costs none.
mod allocs {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    thread_local! {
        static HERE: Cell<u64> = const { Cell::new(0) };
    }

    /// `f`'s result and the number of allocations it made on this thread.
    pub(super) fn allocations_in<T>(f: impl FnOnce() -> T) -> (T, u64) {
        let before = HERE.get();
        let out = f();
        (out, HERE.get() - before)
    }

    struct Counting;

    // SAFETY: every method forwards its arguments unchanged to `System`;
    // the tally is a const thread-local's add, which cannot allocate or
    // unwind.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            HERE.set(HERE.get() + 1);
            // SAFETY: the caller's layout, unchanged.
            unsafe { System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: `ptr` came from `System` with this layout.
            unsafe { System.dealloc(ptr, layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            HERE.set(HERE.get() + 1);
            // SAFETY: forwarded unchanged.
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    #[global_allocator]
    static ALLOC: Counting = Counting;
}

#[test]
fn oversized_handle_opaques_are_refused_without_allocating() {
    // A handle opaque one byte past NFS3_FHSIZE, and one claiming
    // 2^32 - 1 bytes, as a bare handle and as a GETATTR's argument.
    let mut over = XdrEncoder::new();
    over.put_opaque(&[0xAB; FHSIZE + 1]);
    let huge = u32::MAX.to_be_bytes();
    for (claimed, bytes) in [(FHSIZE as u32 + 1, over.bytes()), (u32::MAX, &huge[..])] {
        let refused = XdrError::LengthTooLong {
            claimed,
            max: FHSIZE as u32,
        };
        let (bare, n) = allocs::allocations_in(|| FileHandle::decode(&mut XdrDecoder::new(bytes)));
        assert_eq!((bare.unwrap_err(), n), (refused.clone(), 0));
        let (args, n) = allocs::allocations_in(|| Nfs3Request::decode_args(Proc::GetAttr, bytes));
        assert_eq!((args.unwrap_err(), n), (refused, 0));
    }
}

#[test]
fn public_handles_of_any_length_but_24_are_refused_without_allocating() {
    let s = make_server();
    let valid = s.root_handle();
    let mut map = handles::HandleMap::new();
    assert_eq!(map.decrypt(&s, &valid), Ok(s.nfs.root_handle()));
    let bytes = [valid.as_bytes(), &[0x5A; FHSIZE]].concat();
    for len in (0..=FHSIZE).filter(|&len| len != PUBLIC_LEN) {
        let fh = FileHandle::new(&bytes[..len]).unwrap();
        let (cipher, n) = allocs::allocations_in(|| s.decrypt_handle(&fh));
        assert_eq!((cipher, n), (Err(Status::BadHandle), 0), "{len} bytes");
        let (mapped, n) = allocs::allocations_in(|| map.decrypt(&s, &fh));
        assert_eq!((mapped, n), (Err(Status::BadHandle), 0), "{len} bytes, map");
    }
    assert_eq!(map.len(), 1, "a refused handle was recorded");
}

#[test]
fn nfs_handles_that_cannot_be_sealed_whole_are_refused_not_truncated() {
    // Sealed, a handle grows by its eight redundancy bytes and must fill
    // whole Blowfish blocks inside FHSIZE: 0, 8, …, 56 bytes are, and
    // every other length — 57..=64 above all — is refused.
    let s = make_server();
    let mut map = handles::HandleMap::new();
    for len in 0..=FHSIZE {
        let fh = FileHandle::new(&[0x3C; FHSIZE][..len]).unwrap();
        let (sealed, n) = allocs::allocations_in(|| s.encrypt_handle(fh));
        assert_eq!(n, 0, "{len} bytes");
        if len + FH_REDUNDANCY <= FHSIZE && len % 8 == 0 {
            assert_eq!(
                sealed.map(|h| h.len()),
                Ok(len + FH_REDUNDANCY),
                "{len} bytes"
            );
        } else {
            assert_eq!(sealed, Err(Status::BadHandle), "{len} bytes");
            let (mapped, n) = allocs::allocations_in(|| map.encrypt(&s, fh));
            assert_eq!((mapped, n), (Err(Status::BadHandle), 0), "{len} bytes, map");
        }
    }
}

/// Every input the handle cipher refuses that is one edit from `valid`:
/// each byte flipped to each other value, each truncation, extensions
/// by one and eight bytes, and `foreign`.
fn near_misses(valid: &FileHandle, foreign: &FileHandle) -> Vec<FileHandle> {
    let mut out = Vec::new();
    for i in 0..valid.len() {
        for delta in 1..=255u8 {
            let mut fh = *valid;
            fh.as_bytes_mut()[i] ^= delta;
            out.push(fh);
        }
    }
    let bytes = valid.as_bytes();
    out.extend((0..bytes.len()).map(|n| FileHandle::new(&bytes[..n]).unwrap()));
    out.extend([1, 8].map(|n| FileHandle::new(&[bytes, &vec![0; n]].concat()).unwrap()));
    out.push(*foreign);
    out
}

#[test]
fn the_handle_map_refuses_what_the_cipher_refuses_cold_and_warm() {
    // §3.3 through the per-session map: a handle one edit away from a
    // cached one, or minted under another server's key, still takes the
    // cipher path and still gets `BadHandle`, whether or not the valid
    // handle is in the map — and none of them enters it.
    let s = make_server();
    let other = SfsServer::new(
        ServerConfig::new("other.example.com"),
        sfs_crypto::rabin::generate_keypair(512, &mut sfs_bignum::XorShiftSource::new(0x07E1)),
        Vfs::new(42, SimClock::new()),
        Arc::new(AuthServer::new(srp_group(), 2)),
        SfsPrg::from_entropy(b"other-server-test"),
    );
    let nfs = s.nfs.root_handle();
    let valid = s.encrypt_handle(nfs).unwrap();
    let foreign = other.encrypt_handle(nfs).unwrap();
    assert_eq!(other.decrypt_handle(&foreign), Ok(nfs));
    let forged = near_misses(&valid, &foreign);
    for warm in [false, true] {
        let mut map = handles::HandleMap::new();
        if warm {
            assert_eq!(map.decrypt(&s, &valid), Ok(nfs));
            assert_eq!(map.encrypt(&s, nfs), Ok(valid));
            assert_eq!(map.len(), 2);
        }
        for fh in &forged {
            assert_eq!(
                map.decrypt(&s, fh),
                Err(Status::BadHandle),
                "warm {warm}: {fh:?}"
            );
        }
        assert_eq!(
            map.len(),
            if warm { 2 } else { 0 },
            "a refused handle was recorded"
        );
        // A hit is exactly the cipher's answer, both ways.
        for _ in 0..2 {
            assert_eq!(map.decrypt(&s, &valid), s.decrypt_handle(&valid));
            assert_eq!(map.encrypt(&s, nfs), s.encrypt_handle(nfs));
        }
    }
}

#[test]
fn the_handle_map_stops_at_its_cap_and_translates_past_it() {
    let s = make_server();
    let tel = Telemetry::counters();
    let mut map = handles::HandleMap::new();
    let cap = handles::FH_MAP_CAPACITY;
    let k = 7;
    let pairs: Vec<(FileHandle, FileHandle)> = (0..cap + k)
        .map(|i| {
            let nfs = FileHandle::from((i as u128).to_be_bytes());
            (s.encrypt_handle(nfs).unwrap(), nfs)
        })
        .collect();
    for round in 0..2 {
        for (public, nfs) in &pairs {
            assert_eq!(map.decrypt(&s, public).as_ref(), Ok(nfs), "round {round}");
        }
        assert_eq!(map.len(), cap);
    }
    map.report(&tel);
    // Round one missed every handle; round two hit the first `cap`.
    assert_eq!(tel.counter("server", "fh_map.hits"), cap as u64);
    assert_eq!(tel.counter("server", "fh_map.misses"), (cap + 2 * k) as u64);
    // Full in one direction, the other takes the cipher path.
    let (public, nfs) = &pairs[0];
    assert_eq!(map.encrypt(&s, *nfs).as_ref(), Ok(public));
    assert_eq!(map.len(), cap);
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
    // The sealed entry refuses a connection without a session, and the
    // cleartext entry refuses the envelope itself: it has no path to the
    // channel. Both pass the one preamble first.
    let refusals = || {
        let mut replies = Vec::new();
        conn.inbound()
            .handle_frames_on(0, 0, bytes.clone(), &mut replies);
        let [sealed] = &replies[..] else {
            panic!("{} replies to one frame", replies.len());
        };
        (
            ReplyMsg::from_xdr(sealed).unwrap(),
            ReplyMsg::from_xdr(&conn.handle_bytes(&bytes)).unwrap(),
        )
    };
    assert_eq!(
        refusals(),
        (
            ReplyMsg::Error("no secure channel".into()),
            ReplyMsg::Error("sealed frame outside its envelope".into())
        )
    );
    s.crash_restart();
    let reset = ReplyMsg::Error("connection reset: server restarted".into());
    assert_eq!(refusals(), (reset.clone(), reset));
    // A decoded sealed message has no path to the channel at all.
    assert!(matches!(conn.handle(sealed), ReplyMsg::Error(_)));
}

#[test]
fn a_dropped_connection_stops_holding_back_the_shard_horizon() {
    let s = make_server();
    s.set_cores(2);
    let engine = s.shard_engine().unwrap();
    let (early, late) = (s.accept(), s.accept());
    // Frames on connections without a session are refused, and still
    // scheduled: the refusal is work the server did at that instant.
    let frame = CallMsg::SealedSeq {
        chanseq: 0,
        xid: 0,
        frame: vec![0; 64],
    }
    .to_xdr();
    let mut replies = Vec::new();
    early
        .inbound()
        .handle_frames_on(100, 10, frame.clone(), &mut replies);
    late.inbound()
        .handle_frames_on(5_000, 10, frame, &mut replies);
    assert_eq!(engine.frames_scheduled(), 2);
    assert_eq!(engine.horizon_ns(), 100);
    drop(early);
    assert_eq!(engine.horizon_ns(), 5_000);
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

/// A session negotiated by hand (Figure 3) on a fresh connection: the
/// connection and the client end of its secure channel. The server's
/// own key stands in for the client's ephemeral one.
fn established(s: &Arc<SfsServer>) -> (ServerConn, SecureChannelEnd) {
    let conn = s.accept();
    let neg = sfs_proto::keyneg::KeyNegClient::new(s.path().clone(), test_key());
    let ReplyMsg::ServerReply(key) = conn.handle(hello(s, Dialect::ReadWrite, 1)) else {
        panic!("no server key");
    };
    let mut rng = sfs_bignum::XorShiftSource::new(0xC11E);
    let (awaiting, client_keys) = neg.on_server_reply(&key, &mut rng).unwrap();
    let ReplyMsg::ServerKeys(halves) = conn.handle(CallMsg::ClientKeys(client_keys)) else {
        panic!("no server key halves");
    };
    let (keys, suite) = awaiting.on_server_halves(&halves).unwrap();
    (conn, SecureChannelEnd::client_with_suite(&keys, suite))
}

/// One inner call sealed into its envelope, through the sealed entry,
/// and its one reply opened.
fn sealed_call(conn: &ServerConn, channel: &mut SecureChannelEnd, call: &InnerCall) -> InnerReply {
    let chanseq = channel.messages_sent();
    let frame = channel.seal(&call.to_xdr()).unwrap();
    let bytes = CallMsg::SealedSeq {
        chanseq,
        xid: chanseq as u32,
        frame,
    }
    .to_xdr();
    let mut replies = Vec::new();
    conn.inbound().handle_frames_on(0, 0, bytes, &mut replies);
    let [reply] = &replies[..] else {
        panic!("{} replies to one frame", replies.len());
    };
    let Ok(ReplyMsg::SealedSeq { frame, .. }) = ReplyMsg::from_xdr(reply) else {
        panic!("not a sealed reply: {:?}", ReplyMsg::from_xdr(reply));
    };
    InnerReply::from_xdr(&channel.open(&frame).unwrap()).unwrap()
}

#[test]
fn a_session_refuses_unknown_procedures_and_garbage_arguments_then_serves_on() {
    let s = make_server();
    let (conn, mut channel) = established(&s);
    let InnerReply::MountReply { root } = sealed_call(&conn, &mut channel, &InnerCall::Mount)
    else {
        panic!("no root handle");
    };
    let getattr = Nfs3Request::<String>::GetAttr { fh: root }.encode_args();
    let mut nfs = |proc: u32, args: &[u8]| {
        let call = InnerCall::Nfs {
            authno: 0,
            proc,
            args: args.to_vec(),
        };
        match sealed_call(&conn, &mut channel, &call) {
            InnerReply::Nfs { results, .. } => results,
            other => panic!("{other:?}"),
        }
    };
    let status = |results: Vec<u8>| Status::decode(&mut XdrDecoder::new(&results)).unwrap();
    // Procedure numbers past COMMIT (21) name nothing the server relays.
    assert_eq!(status(nfs(22, &getattr)), Status::NotSupp);
    assert_eq!(status(nfs(u32::MAX, &getattr)), Status::NotSupp);
    // Arguments that do not decode for the procedure: truncated, and
    // with a byte past the end.
    let garbage = [
        &getattr[..getattr.len() - 1],
        &[getattr.as_slice(), &[0; 4]].concat(),
    ];
    for args in garbage {
        assert_eq!(status(nfs(Proc::GetAttr as u32, args)), Status::Inval);
    }
    // The session is still whole: the same channel serves a GETATTR.
    let results = nfs(Proc::GetAttr as u32, &getattr);
    match Nfs3Reply::decode_results(Proc::GetAttr, &results).unwrap() {
        Nfs3Reply::GetAttr { attr, .. } => assert_eq!(attr.fileid, 1),
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
    let mut draw = move || rng.next_u64();
    for proc in procs() {
        for _ in 0..32 {
            let (n, authno) = (draw() >> 40, draw() as u32);
            let req = sample_request(proc, n, || {
                FileHandle::new(&draw().to_le_bytes().repeat(1 + n as usize % 8)).unwrap()
            });
            let args = req.encode_args();
            let mut plaintext = Vec::new();
            encode_inner_nfs(&mut plaintext, authno, &req.borrowed());
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
        FileHandle::from([mark; 24])
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
    let mut out = *fh;
    out.as_bytes_mut().iter_mut().for_each(|b| *b = !*b);
    out
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
            order.push(fh.as_bytes()[0]);
            *fh = flipped(fh);
        }
        let rebuilt = map_request_handles(req.clone(), &mut |fh| Ok(flipped(&fh)));
        assert_eq!(Ok(visited), rebuilt, "{proc:?}");
        assert_eq!(order, marks_in(&req.encode_args()), "{proc:?}");

        let reply = sample_reply(proc, marked());
        let (mut visited, mut order) = (reply.clone(), Vec::new());
        for fh in visited.handles_mut() {
            order.push(fh.as_bytes()[0]);
            *fh = flipped(fh);
        }
        let rebuilt = map_reply_handles(reply.clone(), &mut |fh| flipped(&fh));
        assert_eq!(visited, rebuilt, "{proc:?}");
        assert_eq!(order, marks_in(&reply.encode_results()), "{proc:?}");
    }
    let mut error: Nfs3Reply = Nfs3Reply::Error {
        status: Status::Stale,
        dir_attr: PostOpAttr::default(),
    };
    assert_eq!(error.handles_mut().count(), 0);
}
