//! A session's memo of file-handle translations (§3.3).
//!
//! Every NFS handle crosses the wire as Blowfish-CBC over the handle and
//! eight bytes of SHA-1 redundancy, so a relayed call pays one
//! decryption per request handle and one encryption per reply handle —
//! deterministic work on the few handles a session keeps using. A
//! [`HandleMap`] remembers each translation the cipher made, in either
//! direction, and answers the next one without it.
//!
//! Only what [`SfsServer::decrypt_handle`] accepted or
//! [`SfsServer::encrypt_handle`] produced is ever recorded, so a peer
//! cannot plant a forgery: a handle the map does not know — forged,
//! damaged, minted under another server's key — takes the cipher path
//! and gets `BadHandle` exactly as before.
//!
//! The map is bounded by [`FH_MAP_CAPACITY`]: when it is full, new
//! translations take the cipher path and nothing is evicted. It is
//! allocated once when the session is established, for
//! [`FH_MAP_INITIAL`] entries, and a larger working set grows it by
//! doubling while that set first arrives; a warm session allocates
//! nothing. (Allocating the whole bound up front costs ≈ 400 KB a
//! session, most of it touched by a few dozen randomly placed entries:
//! `peak_rss_mib` +11 % on `connect` and +13 % on `fleet_mix`.) It lives
//! in the session state the sealed stage already holds locked, so it
//! adds no lock, and dies with the session.

use std::collections::HashMap;

use sfs_nfs3::proto::{FileHandle, Status};
use sfs_telemetry::Telemetry;

use super::SfsServer;

/// Translations one session remembers, counting each direction of a
/// handle as one. `meta_rpc`'s working set is 1 025 handles looked up
/// and returned (2 050 entries); a `fleet_mix` client's is 65.
pub(super) const FH_MAP_CAPACITY: usize = 4096;

/// Entries the map is sized for when the session is established: every
/// `connect` session's few translations fit, and a `fleet_mix` client's
/// 130 grow it once.
pub(super) const FH_MAP_INITIAL: usize = 64;

/// Bytes of an NFS handle (`fsid ‖ ino`).
pub(super) const NFS_LEN: usize = 16;
/// Bytes of SHA-1 redundancy sealed in with it, one Blowfish block.
pub(super) const FH_REDUNDANCY: usize = 8;
/// Bytes of its public form: three Blowfish blocks.
pub(super) const PUBLIC_LEN: usize = NFS_LEN + FH_REDUNDANCY;

/// One form of a handle; the map takes each form to the other.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Form {
    Nfs([u8; NFS_LEN]),
    Public([u8; PUBLIC_LEN]),
}

/// The map and the hits and misses not yet counted into telemetry.
pub(super) struct HandleMap {
    // The default SipHash hasher: the public forms come off the network.
    map: HashMap<Form, Form>,
    hits: u64,
    misses: u64,
}

impl HandleMap {
    /// An empty map with room for [`FH_MAP_INITIAL`] entries.
    pub(super) fn new() -> HandleMap {
        HandleMap {
            map: HashMap::with_capacity(FH_MAP_INITIAL),
            hits: 0,
            misses: 0,
        }
    }

    /// [`SfsServer::decrypt_handle`], answered from the map when this
    /// session's cipher has already accepted `fh`.
    pub(super) fn decrypt(
        &mut self,
        server: &SfsServer,
        fh: &FileHandle,
    ) -> Result<FileHandle, Status> {
        let public = fh.as_bytes().try_into().ok().map(Form::Public);
        if let Some(Form::Nfs(nfs)) = public.as_ref().and_then(|p| self.map.get(p)) {
            self.hits += 1;
            return Ok(FileHandle::from(*nfs));
        }
        self.misses += 1;
        let nfs = server.decrypt_handle(fh)?;
        if let (Some(public), Ok(inner)) = (public, nfs.as_bytes().try_into()) {
            self.record(public, Form::Nfs(inner));
        }
        Ok(nfs)
    }

    /// [`SfsServer::encrypt_handle`], answered from the map when this
    /// session's cipher has already produced `fh`'s public form.
    pub(super) fn encrypt(
        &mut self,
        server: &SfsServer,
        fh: FileHandle,
    ) -> Result<FileHandle, Status> {
        let nfs = fh.as_bytes().try_into().ok().map(Form::Nfs);
        if let Some(Form::Public(public)) = nfs.as_ref().and_then(|n| self.map.get(n)) {
            self.hits += 1;
            return Ok(FileHandle::from(*public));
        }
        self.misses += 1;
        let public = server.encrypt_handle(fh)?;
        if let (Some(nfs), Ok(outer)) = (nfs, public.as_bytes().try_into()) {
            self.record(nfs, Form::Public(outer));
        }
        Ok(public)
    }

    /// Remembers one translation the cipher made, while there is room.
    fn record(&mut self, from: Form, to: Form) {
        if self.map.len() < FH_MAP_CAPACITY {
            self.map.insert(from, to);
        }
    }

    /// Counts the hits and misses since the last report into `tel`
    /// (`server` `fh_map.hits` / `fh_map.misses`).
    pub(super) fn report(&mut self, tel: &Telemetry) {
        if self.hits > 0 {
            tel.count("server", "fh_map.hits", std::mem::take(&mut self.hits));
        }
        if self.misses > 0 {
            tel.count("server", "fh_map.misses", std::mem::take(&mut self.misses));
        }
    }

    /// Entries held.
    #[cfg(test)]
    pub(super) fn len(&self) -> usize {
        self.map.len()
    }
}
