//! The enhanced caches and the streaming paths (§3.3, §4.2): leased
//! attribute and access caches with piggybacked invalidation callbacks,
//! sequential read-ahead, and write-behind with its commit barrier.
//!
//! Owns a [`Mount`]'s `attr_cache`, `access_cache`, `streams` and
//! `wb_queue`. Issues its RPCs through `rpc`, which calls back into
//! [`SfsClient::harvest_attrs`] and [`SfsClient::apply_invalidations`]
//! for every reply and into [`SfsClient::barrier`] before every
//! synchronous call.

use std::collections::BTreeMap;
use std::sync::atomic::Ordering;

use sfs_nfs3::proto::{Fattr3, FileHandle, Nfs3Reply, Nfs3Request, PostOpAttr, StableHow};
use sfs_sim::SimTime;

use super::{CachedAttr, ClientError, Mount, SfsClient, StreamState, READ_AHEAD_TRIGGER};
use crate::wire::InnerReply;

impl SfsClient {
    /// Test hook for the coherence oracle's self-test: drop piggybacked
    /// invalidations instead of applying them, simulating the stale-read
    /// bug the oracle must be able to detect.
    #[doc(hidden)]
    pub fn set_ignore_invalidations(&self, ignore: bool) {
        self.ignore_invalidations.store(ignore, Ordering::SeqCst);
    }

    /// Applies a reply's piggybacked invalidation callbacks to the
    /// mount's caches.
    pub(super) fn apply_invalidations(&self, mount: &Mount, inner: &InnerReply) {
        if let InnerReply::Nfs { invalidations, .. } = inner {
            if !invalidations.is_empty() && !self.ignore_invalidations.load(Ordering::SeqCst) {
                self.tel
                    .lock()
                    .count("client", "cache.invalidations", invalidations.len() as u64);
                let mut cache = mount.attr_cache.lock();
                for fh in invalidations {
                    cache.remove(&fh.0);
                }
                let mut access = mount.access_cache.lock();
                access.retain(|(fh, _, _), _| !invalidations.iter().any(|i| &i.0 == fh));
                // Read-ahead data for an invalidated file was speculated
                // under a lease another client just broke.
                let mut streams = mount.streams.lock();
                for fh in invalidations {
                    streams.remove(&fh.0);
                }
            }
        }
    }

    /// Reads up to `count` bytes of `fh` at `offset`, returning
    /// `(data, eof)`. Two adjacent reads promote the file to a
    /// sequential stream: the client then keeps a whole pipeline window
    /// of READs outstanding, answering the caller from the first and
    /// parking the rest as read-ahead for the accesses it predicts.
    pub fn read(
        &self,
        mount: &Mount,
        uid: u32,
        fh: &FileHandle,
        offset: u64,
        count: u32,
    ) -> Result<(Vec<u8>, bool), ClientError> {
        self.barrier(mount)?;
        // Read-ahead hit: the block is already here, no RPC at all.
        {
            let mut streams = mount.streams.lock();
            if let Some(st) = streams.get_mut(&fh.0) {
                if let Some((data, eof)) = st.prefetch.remove(&offset) {
                    if data.len() <= count as usize {
                        self.tel().count("client", "pipeline.readahead_hits", 1);
                        st.next_offset = offset + data.len() as u64;
                        return Ok((data, eof));
                    }
                    // Speculated with a different block size than the
                    // caller now wants: the speculation is useless.
                    st.prefetch.clear();
                }
            }
        }
        let window = self.pipeline_window();
        let run = {
            let mut streams = mount.streams.lock();
            let st = streams.entry(fh.0.clone()).or_insert_with(|| StreamState {
                next_offset: offset,
                run: 0,
                prefetch: BTreeMap::new(),
            });
            if offset == st.next_offset {
                st.run += 1;
            } else {
                st.run = 1;
                st.prefetch.clear();
            }
            st.run
        };
        if window > 1 && run >= READ_AHEAD_TRIGGER {
            // Sequential stream: issue a whole window of READs at once.
            let reqs: Vec<Nfs3Request> = (0..window as u64)
                .map(|i| Nfs3Request::Read {
                    fh: fh.clone(),
                    offset: offset + i * u64::from(count),
                    count,
                })
                .collect();
            let mut replies = self
                .call_nfs_window_unqueued(mount, uid, &reqs)?
                .into_iter();
            let (data, eof) = match replies.next().expect("one reply per request") {
                Nfs3Reply::Read { data, eof, .. } => (data, eof),
                other => return Err(ClientError::unexpected(other)),
            };
            let mut streams = mount.streams.lock();
            let st = streams.entry(fh.0.clone()).or_insert_with(|| StreamState {
                next_offset: offset,
                run: READ_AHEAD_TRIGGER,
                prefetch: BTreeMap::new(),
            });
            if !eof {
                let mut o = offset + u64::from(count);
                for reply in replies {
                    match reply {
                        Nfs3Reply::Read {
                            data: ahead,
                            eof: ahead_eof,
                            ..
                        } => {
                            let done = ahead_eof || (ahead.len() as u32) < count;
                            st.prefetch.insert(o, (ahead, ahead_eof));
                            o += u64::from(count);
                            if done {
                                break;
                            }
                        }
                        // Errors on speculative reads are not the
                        // caller's problem; the access that reaches this
                        // offset will reissue and see them for real.
                        _ => break,
                    }
                }
            }
            st.next_offset = offset + data.len() as u64;
            return Ok((data, eof));
        }
        match self.call_nfs_unqueued(
            mount,
            uid,
            &Nfs3Request::Read {
                fh: fh.clone(),
                offset,
                count,
            },
        )? {
            Nfs3Reply::Read { data, eof, .. } => {
                if let Some(st) = mount.streams.lock().get_mut(&fh.0) {
                    st.next_offset = offset + data.len() as u64;
                }
                Ok((data, eof))
            }
            other => Err(ClientError::unexpected(other)),
        }
    }

    /// Queues a WRITE of `data` at `offset` without waiting for the
    /// reply. The write reaches the server no later than the next
    /// commit barrier — an explicit [`Self::barrier`] (close/fsync) or
    /// any synchronous RPC on the mount — where the queue drains as
    /// pipelined windows and every reply is checked. With window 1 the
    /// write is issued synchronously instead.
    pub fn write_behind(
        &self,
        mount: &Mount,
        uid: u32,
        fh: &FileHandle,
        offset: u64,
        data: Vec<u8>,
    ) -> Result<(), ClientError> {
        // A write invalidates read-ahead speculation on the same file.
        mount.streams.lock().remove(&fh.0);
        let req = Nfs3Request::Write {
            fh: fh.clone(),
            offset,
            stable: StableHow::Unstable,
            data,
        };
        if self.pipeline_window() <= 1 {
            return match self.call_nfs_unqueued(mount, uid, &req)? {
                Nfs3Reply::Write { .. } => Ok(()),
                other => Err(ClientError::unexpected(other)),
            };
        }
        let full = {
            let mut queue = mount.wb_queue.lock();
            queue.push((uid, req));
            queue.len() >= self.pipeline_window()
        };
        if full {
            self.flush_write_behind(mount)?;
        }
        Ok(())
    }

    /// The write-behind commit barrier: drains the queue and checks
    /// every reply. When it returns `Ok`, every previously queued write
    /// has executed on the server.
    pub fn barrier(&self, mount: &Mount) -> Result<(), ClientError> {
        if mount.wb_queue.lock().is_empty() {
            return Ok(());
        }
        self.flush_write_behind(mount)
    }

    fn flush_write_behind(&self, mount: &Mount) -> Result<(), ClientError> {
        loop {
            let batch: Vec<(u32, Nfs3Request)> = std::mem::take(&mut *mount.wb_queue.lock());
            if batch.is_empty() {
                return Ok(());
            }
            // Issue runs of same-uid writes as windowed batches, so each
            // window goes out under a single set of credentials.
            let mut i = 0;
            while i < batch.len() {
                let uid = batch[i].0;
                let mut j = i + 1;
                while j < batch.len() && batch[j].0 == uid {
                    j += 1;
                }
                let reqs: Vec<Nfs3Request> =
                    batch[i..j].iter().map(|(_, req)| req.clone()).collect();
                for reply in self.call_nfs_window_unqueued(mount, uid, &reqs)? {
                    match reply {
                        Nfs3Reply::Write { .. } => {}
                        other => return Err(ClientError::unexpected(other)),
                    }
                }
                i = j;
            }
        }
    }

    /// Feeds leased attributes from a reply into the cache.
    pub(super) fn harvest_attrs(&self, mount: &Mount, req: &Nfs3Request, reply: &Nfs3Reply) {
        if !self.caching.load(Ordering::SeqCst) {
            return;
        }
        let now = self.clock.now();
        let store = |fh: &FileHandle, post: &PostOpAttr| {
            if let Some(attr) = post.attr {
                if post.lease_ns > 0 {
                    mount.attr_cache.lock().insert(
                        fh.0.clone(),
                        CachedAttr {
                            attr,
                            expires: SimTime(now.0 + post.lease_ns),
                        },
                    );
                }
            }
        };
        match (req, reply) {
            (_, Nfs3Reply::Lookup { fh, attr, .. })
            | (_, Nfs3Reply::Create { fh, attr, .. })
            | (_, Nfs3Reply::Mkdir { fh, attr, .. })
            | (_, Nfs3Reply::Symlink { fh, attr, .. }) => store(fh, attr),
            (Nfs3Request::GetAttr { fh }, Nfs3Reply::GetAttr { attr, lease_ns }) => {
                store(fh, &PostOpAttr::leased(*attr, *lease_ns))
            }
            (Nfs3Request::Read { fh, .. }, Nfs3Reply::Read { attr, .. })
            | (Nfs3Request::Write { fh, .. }, Nfs3Reply::Write { attr, .. })
            | (Nfs3Request::SetAttr { fh, .. }, Nfs3Reply::SetAttr { attr }) => store(fh, attr),
            (_, Nfs3Reply::ReadDir { entries, .. }) => {
                for e in entries {
                    if let Some((fh, attr)) = &e.plus {
                        store(fh, attr);
                    }
                }
            }
            _ => {}
        }
    }

    /// GETATTR with the enhanced cache: served locally while the lease is
    /// valid.
    pub fn getattr(&self, mount: &Mount, uid: u32, fh: &FileHandle) -> Result<Fattr3, ClientError> {
        // A revoked HostID is refused even on a lease-held cache hit:
        // §2.5 revocation blocks *access*, not just wire traffic.
        self.refuse_if_revoked(mount, uid)?;
        if self.caching.load(Ordering::SeqCst) {
            if let Some(c) = mount.attr_cache.lock().get(&fh.0) {
                if self.clock.now() < c.expires {
                    self.tel.lock().count("client", "cache.attr_hits", 1);
                    return Ok(c.attr);
                }
            }
        }
        self.tel.lock().count("client", "cache.attr_misses", 1);
        match self.call_nfs(mount, uid, &Nfs3Request::GetAttr { fh: fh.clone() })? {
            Nfs3Reply::GetAttr { attr, .. } => Ok(attr),
            other => Err(ClientError::unexpected(other)),
        }
    }

    /// ACCESS with the enhanced cache.
    pub fn access(
        &self,
        mount: &Mount,
        uid: u32,
        fh: &FileHandle,
        mask: u32,
    ) -> Result<u32, ClientError> {
        self.refuse_if_revoked(mount, uid)?;
        let key = (fh.0.clone(), uid, mask);
        if self.caching.load(Ordering::SeqCst) {
            if let Some(c) = mount.access_cache.lock().get(&key) {
                if self.clock.now() < c.expires {
                    self.tel.lock().count("client", "cache.access_hits", 1);
                    // The granted mask is stashed in the attr's mode field.
                    return Ok(c.attr.mode);
                }
            }
        }
        self.tel.lock().count("client", "cache.access_misses", 1);
        match self.call_nfs(
            mount,
            uid,
            &Nfs3Request::Access {
                fh: fh.clone(),
                mask,
            },
        )? {
            Nfs3Reply::Access { granted, attr } => {
                if self.caching.load(Ordering::SeqCst) && attr.lease_ns > 0 {
                    if let Some(mut a) = attr.attr {
                        a.mode = granted;
                        mount.access_cache.lock().insert(
                            key,
                            CachedAttr {
                                attr: a,
                                expires: SimTime(self.clock.now().0 + attr.lease_ns),
                            },
                        );
                    }
                }
                Ok(granted)
            }
            other => Err(ClientError::unexpected(other)),
        }
    }
}
