//! Opening a window's replies on the helper thread changes no outcome:
//! the coherence oracle's 21-plan battery under the ChaCha20-Poly1305
//! suite gives the same [`RunOutcome`] with the helper forced on for
//! every window as with it off, and as with the default, and so does a
//! sequential read in windows of eight; and a panic while a window is
//! served reaches the caller. Its own test binary, since the switch is
//! process-wide; the tests take turns at it.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::time::Duration;

use sfs::client::force_open_ahead;
use sfs_bench::oracle::{Oracle, OracleSpec, RunOutcome, BATTERY};
use sfs_bench::world::{Behind, World, WorldSpec, UID};
use sfs_proto::channel::SuiteId;
use sfs_sim::{Direction, Interceptor, SimTime, Verdict};

/// The switch, held for one test.
fn switch() -> MutexGuard<'static, ()> {
    static SWITCH: Mutex<()> = Mutex::new(());
    SWITCH
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The helper off, forced on, and left to the default.
const MODES: [Option<bool>; 3] = [Some(false), Some(true), None];

fn run(spec: &str, clients: usize, mode: Option<bool>) -> RunOutcome<()> {
    force_open_ahead(mode);
    let h = Oracle::new(&OracleSpec {
        suite: Some(SuiteId::ChaCha20Poly1305),
        ..OracleSpec::new(Behind::Servers, spec, clients)
    });
    h.run(0x5EED, |_| ())
}

#[test]
fn the_oracle_battery_has_one_outcome_with_the_helper_on_or_off() {
    let _switch = switch();
    for (spec, clients) in BATTERY {
        let off = run(spec, *clients, MODES[0]);
        assert!(off.violations.is_empty(), "{spec}: {:#?}", off.violations);
        for mode in &MODES[1..] {
            assert_eq!(run(spec, *clients, *mode), off, "{spec} with {mode:?}");
        }
    }
}

/// A 1 MiB file read end to end in 8 KiB reads — windows of eight
/// READs, the shape the helper is for — on a ChaCha20-Poly1305 channel:
/// the bytes, the virtual instant it ends at and the client's tallies.
fn sequential_read(mode: Option<bool>) -> (Vec<u8>, u64, u64) {
    force_open_ahead(mode);
    let (w, content) = world_with_a_file();
    let read = read_through(&w);
    assert_eq!(read, content);
    (read, w.clock.now().as_nanos(), w.clients[0].network_rpcs())
}

/// A world whose client offers ChaCha20-Poly1305 alone, with a 1 MiB
/// file in alice's home; and the file's bytes.
fn world_with_a_file() -> (World, Vec<u8>) {
    let w = World::build(&WorldSpec::test());
    let client = &w.clients[0];
    client.set_suite_offer(&[SuiteId::ChaCha20Poly1305]);
    let content: Vec<u8> = (0..1 << 20).map(|i: u32| (i * 7 / 3) as u8).collect();
    client.write_file(UID, &big(&w), &content).unwrap();
    (w, content)
}

fn big(w: &World) -> String {
    format!("{}/home/alice/big", w.path().full_path())
}

/// The file read from start to end in 8 KiB reads.
fn read_through(w: &World) -> Vec<u8> {
    let client = &w.clients[0];
    let (mount, fh, _) = client.resolve(UID, &big(w)).unwrap();
    let mut read = Vec::new();
    let mut offset = 0;
    loop {
        let (data, eof) = client.read(&mount, UID, &fh, offset, 8192).unwrap();
        offset += data.len() as u64;
        read.extend_from_slice(&data);
        if eof || data.is_empty() {
            break;
        }
    }
    read
}

#[test]
fn a_window_of_reads_reads_the_same_with_the_helper_on_or_off() {
    let _switch = switch();
    let off = sequential_read(MODES[0]);
    for mode in &MODES[1..] {
        assert_eq!(sequential_read(*mode), off, "{mode:?}");
    }
}

/// Once armed, panics on the third reply it sees: the wire fails in
/// the caller's half of a window, while the helper opens the replies
/// served before it.
struct PanicOnThirdReply {
    armed: Arc<AtomicBool>,
    seen: u32,
}

impl Interceptor for PanicOnThirdReply {
    fn intercept(&mut self, dir: Direction, _: SimTime, bytes: Vec<u8>) -> Verdict {
        if dir == Direction::Reply && self.armed.load(Ordering::Relaxed) {
            self.seen += 1;
            assert!(self.seen < 3, "the wire fails mid-window");
        }
        Verdict::Deliver(bytes)
    }
}

#[test]
fn a_panic_while_a_window_is_served_reaches_the_caller() {
    // With the helper forced on, a panic in the caller's half of a
    // window must release the helper, which waits for the window's
    // replies until told none are coming, so that `join` can hand the
    // panic on; the read runs on its own thread so a hang fails here.
    let _switch = switch();
    force_open_ahead(Some(true));
    let armed = Arc::new(AtomicBool::new(false));
    let w = World::build(&WorldSpec::test());
    w.net
        .set_interceptor(Arc::new(sfs_telemetry::sync::Mutex::new(
            PanicOnThirdReply {
                armed: armed.clone(),
                seen: 0,
            },
        )));
    let client = &w.clients[0];
    client.set_suite_offer(&[SuiteId::ChaCha20Poly1305]);
    client
        .write_file(UID, &big(&w), &vec![7u8; 1 << 20])
        .unwrap();
    let (done, outcome) = mpsc::channel();
    std::thread::spawn(move || {
        armed.store(true, Ordering::Relaxed);
        let read = catch_unwind(AssertUnwindSafe(|| read_through(&w)));
        done.send(read.is_err()).unwrap();
    });
    let panicked = outcome
        .recv_timeout(Duration::from_secs(60))
        .expect("the read hung after a panic mid-window");
    force_open_ahead(None);
    assert!(panicked, "the read ended without the wire's panic");
}
