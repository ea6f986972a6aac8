//! Property tests: `FrameSequencer` preserves channel order under
//! adversarial completion schedules.
//!
//! Under multi-core dispatch, seal/open *completions* can arrive in any
//! order — a frame scheduled on a fast core finishes before its
//! predecessor on a busy one, retransmissions inject duplicates, and the
//! wire reorders on top. The cipher, however, is position-sensitive:
//! frames must be decrypted strictly in channel-sequence order. The
//! `FrameSequencer` is the discipline that guarantees this; these
//! properties drive it with ≥1k seeded adversarial schedules and assert
//! the drain order is exactly the seal order, every frame exactly once.

use sfs_bignum::{RandomSource, XorShiftSource};
use sfs_proto::channel::{FrameSequencer, SeqPush};

/// One adversarial delivery schedule: `window` frames sealed in channel
/// order 0..window, delivered in a seeded permutation with seeded
/// duplicate injections (both of not-yet-consumed and already-consumed
/// frames), drained via the server discipline (`take(expected)` loop
/// after every `Buffered` push).
fn run_schedule(seed: u64) -> (usize, usize) {
    let mut rng = XorShiftSource::new(seed);
    let window = 1 + rng.below(32) as usize;
    let capacity = window.max(1 + rng.below(64) as usize);
    let frames: Vec<(u64, u32, Vec<u8>)> = (0..window)
        .map(|i| {
            let mut body = vec![0u8; 1 + rng.below(24) as usize];
            rng.fill(&mut body);
            (i as u64, i as u32, body)
        })
        .collect();

    // The completion schedule: every frame at least once, plus
    // duplicates, in a seeded shuffle. Workers finishing out of order
    // are exactly a permutation of delivery.
    let mut schedule: Vec<usize> = (0..window).collect();
    let dups = rng.below(1 + window as u64 / 2) as usize;
    for _ in 0..dups {
        let pick = rng.below(window as u64) as usize;
        schedule.push(pick);
    }
    for i in (1..schedule.len()).rev() {
        let j = rng.below((i + 1) as u64) as usize;
        schedule.swap(i, j);
    }

    let mut seq = FrameSequencer::new(capacity);
    let mut expected = 0u64;
    let mut drained: Vec<(u64, u32, Vec<u8>)> = Vec::new();
    let mut replays_after_consume = 0usize;
    for &i in &schedule {
        let (chanseq, xid, body) = &frames[i];
        match seq.push(*chanseq, *xid, body.clone(), expected) {
            SeqPush::Buffered => {
                while let Some((xid, frame)) = seq.take(expected) {
                    drained.push((expected, xid, frame));
                    expected += 1;
                }
            }
            SeqPush::Duplicate => {
                // Either a second copy of a still-buffered frame (it
                // answers when the gap fills) or a replay of a consumed
                // one (the reply cache answers it).
                if *chanseq < expected {
                    replays_after_consume += 1;
                } else {
                    assert!(
                        *chanseq >= expected,
                        "seed {seed}: duplicate verdict for an undelivered frame"
                    );
                }
            }
            SeqPush::Overflow => panic!(
                "seed {seed}: overflow on a schedule that never exceeds \
                 capacity {capacity} (window {window})"
            ),
        }
    }

    assert_eq!(
        expected, window as u64,
        "seed {seed}: not every frame was drained"
    );
    assert!(seq.is_empty(), "seed {seed}: frames left buffered");
    for (pos, (chanseq, xid, body)) in drained.iter().enumerate() {
        assert_eq!(*chanseq, pos as u64, "seed {seed}: drain out of order");
        let (want_seq, want_xid, want_body) = &frames[pos];
        assert_eq!((chanseq, xid), (want_seq, want_xid), "seed {seed}");
        assert_eq!(body, want_body, "seed {seed}: frame bytes mangled");
    }
    (window, replays_after_consume)
}

#[test]
fn order_preserved_under_adversarial_completion_schedules() {
    let mut total_frames = 0usize;
    let mut total_replays = 0usize;
    for seed in 0..1200u64 {
        let (frames, replays) = run_schedule(0xC0DE_0000 + seed);
        total_frames += frames;
        total_replays += replays;
    }
    assert!(
        total_frames > 10_000,
        "schedules too small to mean anything"
    );
    assert!(
        total_replays > 0,
        "no schedule ever replayed a consumed frame — the duplicate arm is untested"
    );
}

#[test]
fn overflow_is_detected_and_leaves_state_intact() {
    for seed in 0..64u64 {
        let mut rng = XorShiftSource::new(0xBAD_0000 + seed);
        let capacity = 1 + rng.below(16) as usize;
        let mut seq = FrameSequencer::new(capacity);
        // Fill some slots ahead of the expected position.
        let buffered = rng.below(capacity as u64);
        for i in 0..buffered {
            assert_eq!(seq.push(1 + i, i as u32, vec![0xAA], 0), SeqPush::Buffered);
        }
        let len_before = seq.len();
        // A frame at or past expected + capacity must overflow without
        // disturbing what's buffered.
        let beyond = capacity as u64 + rng.below(8);
        assert_eq!(seq.push(beyond, 99, vec![0xBB], 0), SeqPush::Overflow);
        assert_eq!(seq.len(), len_before);
    }
}

#[test]
fn first_frame_wins_position_collisions() {
    // Retransmitted frames are byte-identical in the real protocol, so
    // first-wins is safe; the property here is just that the second copy
    // is reported as a duplicate and the first copy's bytes survive.
    let mut seq = FrameSequencer::new(8);
    assert_eq!(seq.push(2, 7, vec![1, 2, 3], 0), SeqPush::Buffered);
    assert_eq!(seq.push(2, 7, vec![9, 9, 9], 0), SeqPush::Duplicate);
    assert_eq!(seq.push(0, 5, vec![0], 0), SeqPush::Buffered);
    assert_eq!(seq.take(0), Some((5, vec![0])));
    assert_eq!(seq.take(1), None, "gap must stop the drain");
    assert_eq!(seq.push(1, 6, vec![4], 1), SeqPush::Buffered);
    assert_eq!(seq.take(1), Some((6, vec![4])));
    assert_eq!(seq.take(2), Some((7, vec![1, 2, 3])));
}
