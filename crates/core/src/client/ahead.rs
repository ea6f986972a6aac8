//! Opening a window's replies on the idle core (DESIGN.md §11).
//!
//! Reply i of a window can be opened as soon as it is sealed, and in a
//! window of READs the client's opens cost about as much as the
//! server's work on the window. So while the caller serves a window of
//! READs on a ChaCha20-Poly1305 channel, the process's one helper
//! thread ([`sfs_bignum::join`]) opens the replies the wire hands over
//! as they are served
//! ([`sfs_sim::Wire::exchange_streamed`]), in channel order, and the
//! caller's exchange loop then takes each one in
//! ([`SecureChannelEnd::accept_opened`]) instead of opening it.
//!
//! The helper changes nothing but the bytes of the frames it opens, so
//! every outcome is the inline loop's:
//!
//! - It opens a frame only if the loop would open it next: a sequenced
//!   reply envelope, of this exchange, at the channel position after the
//!   frames already opened ahead. It stops at the first that is not, or
//!   whose tag fails — which leaves the frame as it was, for the loop to
//!   refuse as it always does.
//! - It decrypts through a [`FrameOpener`], a copy of the receive key and
//!   position: the channel end itself advances only when the loop takes
//!   a frame in, so a loop that stops early (a decode error, a reply
//!   refusing the session) leaves the channel where the inline loop
//!   would, and frames opened past that point are dropped unread.
//! - It counts nothing and charges nothing: the loop still does both, in
//!   its own order, on its own thread.
//!
//! Once the window is served the caller raises `stop` — by dropping a
//! guard, so that a panic while serving raises it too — and takes in the
//! replies already opened while the helper finishes at most the one it
//! is on; the loop then takes in or opens the rest.
//!
//! [`SecureChannelEnd::accept_opened`]: sfs_proto::channel::SecureChannelEnd::accept_opened

use std::hint::spin_loop;
use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};

use sfs_proto::channel::FrameOpener;
use sfs_sim::ExchangeReply;
use sfs_telemetry::sync::Mutex;

use crate::wire::seq_reply_envelope;

/// The test switch: 0 leaves the choice to [`wanted`], 1 forces the
/// helper off, 2 on.
static FORCED: AtomicU8 = AtomicU8::new(0);

/// Forces, for the whole process, whether windows' replies are opened
/// on the helper thread: `Some(false)` never; `Some(true)` every window
/// on a ChaCha20-Poly1305 channel, the helper opening every reply it
/// can even after the window is served, so that a host with one CPU,
/// where the helper's half runs after the caller's, still takes the
/// path; `None` the default. Outcomes do not depend on it, wall time
/// does: it is for tests that hold both paths' outcomes equal.
#[doc(hidden)]
pub fn force_open_ahead(force: Option<bool>) {
    let code = match force {
        None => 0,
        Some(false) => 1,
        Some(true) => 2,
    };
    FORCED.store(code, Ordering::Relaxed);
}

fn forced() -> Option<bool> {
    match FORCED.load(Ordering::Relaxed) {
        1 => Some(false),
        2 => Some(true),
        _ => None,
    }
}

/// Whether a window of `frames` frames has its replies opened on the
/// helper thread (on a channel that allows it); `reads` says whether it
/// carries a READ. A window of one has nothing to overlap its open
/// with, and one without a READ has short replies: opening them ahead
/// lost slightly on `seq_write` (EXPERIMENTS "Both ends at once").
pub(super) fn wanted(frames: usize, reads: impl FnOnce() -> bool) -> bool {
    forced().unwrap_or_else(|| frames > 1 && reads())
}

/// The replies of one round of an exchange, handed from the caller,
/// which serves the window, to the helper, which opens them.
pub(super) struct Handoff {
    slots: Mutex<Slots>,
    /// How many replies `slots` holds, for the helper to wait on
    /// without the lock.
    published: AtomicUsize,
    /// Set once the window is served.
    stop: AtomicBool,
    opener: FrameOpener,
    /// The channel position of the reply the exchange loop opens next.
    next: u64,
    /// The end of this exchange's channel positions.
    ours_end: u64,
    /// The exchange's frame count (its xids are below it).
    frames: usize,
    /// Whether the helper keeps opening after `stop` (forced on).
    drain: bool,
}

struct Slots {
    replies: Vec<ExchangeReply>,
    /// The first `opened` replies are decrypted in place.
    opened: usize,
}

impl Handoff {
    /// A hand-off into `replies`' storage (emptied) for the exchange whose
    /// positions end at `ours_end`, the loop next opening position
    /// `next`, where `opener` stands.
    pub(super) fn new(
        mut replies: Vec<ExchangeReply>,
        opener: FrameOpener,
        next: u64,
        ours_end: u64,
        frames: usize,
    ) -> Handoff {
        replies.clear();
        Handoff {
            slots: Mutex::new(Slots { replies, opened: 0 }),
            published: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            opener,
            next,
            ours_end,
            frames,
            drain: forced() == Some(true),
        }
    }

    /// The wire's sink: one reply, as it is served.
    pub(super) fn push(&self, reply: ExchangeReply) {
        let mut slots = self.slots.lock();
        slots.replies.push(reply);
        self.published.store(slots.replies.len(), Ordering::Release);
    }

    /// A guard that raises `stop` when dropped: the caller makes it
    /// before it serves the window and drops it once the window is
    /// served, so that a panic while serving it also lets the helper
    /// return — and `join` hand the panic on — instead of waiting for
    /// replies that never come.
    pub(super) fn stop_on_drop(&self) -> StopOnDrop<'_> {
        StopOnDrop(&self.stop)
    }

    /// The helper's half: opens replies in the order they come until one
    /// does not qualify, or the window is served.
    pub(super) fn open_ahead(&self) {
        let mut i = 0;
        loop {
            while self.published.load(Ordering::Acquire) <= i {
                if self.stop.load(Ordering::Acquire) && self.published.load(Ordering::Acquire) <= i
                {
                    return;
                }
                spin_loop();
            }
            if !self.drain && self.stop.load(Ordering::Acquire) {
                return;
            }
            let mut bytes = std::mem::take(&mut self.slots.lock().replies[i].bytes);
            let opened = self.open(i, &mut bytes);
            let mut slots = self.slots.lock();
            slots.replies[i].bytes = bytes;
            if !opened {
                return;
            }
            slots.opened = i + 1;
            i += 1;
        }
    }

    /// Opens reply `i` in place if the exchange loop would open it next.
    fn open(&self, i: usize, bytes: &mut [u8]) -> bool {
        let Some((chanseq, xid, frame)) = seq_reply_envelope(bytes) else {
            return false;
        };
        chanseq == self.next + i as u64
            && chanseq < self.ours_end
            && (xid as usize) < self.frames
            && self.opener.open(i as u64, &mut bytes[frame])
    }

    /// Reply `k` if the helper has opened it, taken out of its slot.
    pub(super) fn take_opened(&self, k: usize) -> Option<ExchangeReply> {
        let mut slots = self.slots.lock();
        if k >= slots.opened {
            return None;
        }
        let slot = &mut slots.replies[k];
        Some(ExchangeReply {
            bytes: std::mem::take(&mut slot.bytes),
            arrival: slot.arrival,
        })
    }

    /// The replies as served, and how many of the first were opened.
    pub(super) fn into_parts(self) -> (Vec<ExchangeReply>, usize) {
        let slots = self.slots.into_inner();
        (slots.replies, slots.opened)
    }
}

/// Raises a [`Handoff`]'s `stop` when dropped: no more replies come.
pub(super) struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}
