//! Full-stack coverage of the remaining NFS operations through the SFS
//! client/server (rename, hard links, readdir-plus, large I/O), plus
//! server robustness against arbitrary connection bytes.

use std::sync::Arc;

use sfs::client::SfsClient;
use sfs::server::SfsServer;
use sfs_bench::world::{Tree, World, WorldSpec, UID};
use sfs_nfs3::proto::{Nfs3Reply, Nfs3Request, StableHow};

/// One server exporting a user-owned, world-writable `/bench`.
fn world() -> (Arc<SfsServer>, Arc<SfsClient>) {
    let w = World::build(&WorldSpec {
        tree: Tree::Bench,
        ..WorldSpec::test()
    });
    (w.servers[0].clone(), w.clients[0].clone())
}

#[test]
fn rename_through_the_stack() {
    let (server, client) = world();
    let base = format!("{}/bench", server.path().full_path());
    client
        .write_file(UID, &format!("{base}/draft"), b"v1")
        .unwrap();
    let (mount, dir_fh, _) = client.resolve(UID, &base).unwrap();
    let reply = client
        .call_nfs(
            &mount,
            UID,
            &Nfs3Request::Rename {
                from_dir: dir_fh,
                from_name: "draft".into(),
                to_dir: dir_fh,
                to_name: "final".into(),
            },
        )
        .unwrap();
    assert!(matches!(reply, Nfs3Reply::Rename { .. }), "{reply:?}");
    assert!(client.read_file(UID, &format!("{base}/draft")).is_err());
    assert_eq!(
        client.read_file(UID, &format!("{base}/final")).unwrap(),
        b"v1"
    );
}

#[test]
fn hard_links_through_the_stack() {
    let (server, client) = world();
    let base = format!("{}/bench", server.path().full_path());
    client
        .write_file(UID, &format!("{base}/orig"), b"shared bytes")
        .unwrap();
    let (mount, dir_fh, _) = client.resolve(UID, &base).unwrap();
    let (_, file_fh, _) = client.resolve(UID, &format!("{base}/orig")).unwrap();
    let reply = client
        .call_nfs(
            &mount,
            UID,
            &Nfs3Request::Link {
                fh: file_fh,
                dir: dir_fh,
                name: "alias".into(),
            },
        )
        .unwrap();
    match reply {
        Nfs3Reply::Link { attr, .. } => assert_eq!(attr.attr.unwrap().nlink, 2),
        other => panic!("{other:?}"),
    }
    assert_eq!(
        client.read_file(UID, &format!("{base}/alias")).unwrap(),
        b"shared bytes"
    );
    client.remove(UID, &format!("{base}/orig")).unwrap();
    assert_eq!(
        client.read_file(UID, &format!("{base}/alias")).unwrap(),
        b"shared bytes"
    );
}

#[test]
fn readdirplus_returns_handles_and_attrs() {
    let (server, client) = world();
    let base = format!("{}/bench", server.path().full_path());
    for i in 0..5 {
        client
            .write_file(UID, &format!("{base}/item{i}"), format!("{i}").as_bytes())
            .unwrap();
    }
    let (mount, dir_fh, _) = client.resolve(UID, &base).unwrap();
    let reply = client
        .call_nfs(
            &mount,
            UID,
            &Nfs3Request::ReadDir {
                dir: dir_fh,
                cookie: 0,
                count: 100,
                plus: true,
            },
        )
        .unwrap();
    match reply {
        Nfs3Reply::ReadDir { entries, eof, .. } => {
            assert!(eof);
            assert_eq!(entries.len(), 5);
            for e in entries {
                let (fh, attr) = e.plus.expect("plus data");
                assert_eq!(fh.len(), 24, "SFS (encrypted) handle length");
                assert!(attr.attr.is_some());
                assert!(attr.lease_ns > 0, "plus attrs carry leases");
            }
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn multi_megabyte_file_roundtrip() {
    let (server, client) = world();
    let base = format!("{}/bench", server.path().full_path());
    let path = format!("{base}/big.bin");
    // 2 MiB of patterned data, written in 64 KiB chunks through the real
    // channel (every byte is ARC4-encrypted and MAC'd twice).
    let chunk: Vec<u8> = (0..65536u32).map(|i| (i % 251) as u8).collect();
    client.write_file(UID, &path, b"").unwrap();
    let (mount, fh, _) = client.resolve(UID, &path).unwrap();
    for i in 0..32u64 {
        let reply = client
            .call_nfs(
                &mount,
                UID,
                &Nfs3Request::Write {
                    fh,
                    offset: i * 65536,
                    stable: StableHow::Unstable,
                    data: chunk.clone(),
                },
            )
            .unwrap();
        assert!(matches!(reply, Nfs3Reply::Write { .. }), "{reply:?}");
    }
    let reply = client
        .call_nfs(
            &mount,
            UID,
            &Nfs3Request::Commit {
                fh,
                offset: 0,
                count: 0,
            },
        )
        .unwrap();
    assert!(matches!(reply, Nfs3Reply::Commit { .. }));
    let data = client.read_file(UID, &path).unwrap();
    assert_eq!(data.len(), 32 * 65536);
    assert_eq!(&data[..65536], &chunk[..]);
    assert_eq!(&data[31 * 65536..], &chunk[..]);
}

/// The server connection must survive arbitrary attacker bytes at any
/// protocol stage — before and after key negotiation. Packets come
/// from a seeded SplitMix64 stream (48 deterministic cases).
#[test]
fn server_conn_never_panics_on_garbage() {
    let server = world().0;
    let mut state = 0x6A4Bu64;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for _case in 0..48 {
        let conn = server.accept();
        for _ in 0..(1 + next() % 5) {
            let len = (next() % 120) as usize;
            let packet: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            let _ = conn.handle_bytes(&packet);
        }
    }
}
