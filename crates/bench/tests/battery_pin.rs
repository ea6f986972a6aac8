//! Every seeded plan of the coherence oracle's battery, run against one
//! server, pinned to a digest of its whole [`RunOutcome`]: the final
//! clock, the fault log, file sizes, journal lengths, crashes and
//! reconnects. No committed artifact runs under faults, so this is what
//! shows that a change to the wire's adversary hook leaves the fault
//! plan's draws, their order and what each fault costs as they were.

use sfs_bench::oracle::{Oracle, OracleSpec, RunOutcome, BATTERY};
use sfs_bench::world::Behind;
use sfs_crypto::sha1::sha1;

/// The first eight bytes of the SHA-1 of the run's `Debug` form.
fn digest(out: &RunOutcome<()>) -> u64 {
    let text = format!("{out:?}");
    u64::from_be_bytes(sha1(text.as_bytes())[..8].try_into().unwrap())
}

/// One per [`BATTERY`] plan, in its order.
const PINNED: [u64; 21] = [
    0x4d9840a5daf678a9, // seed=401,drop=20
    0x80fea8655abd268f, // seed=402,dup=25
    0xdaa4fedb02d6c76e, // seed=403,reorder=25
    0xcddddf1d15433176, // seed=404,corrupt=15
    0x78d3ab6bfa7c08c9, // seed=405,delay=150,delay_ns=2ms
    0xf5aa38edbcbfe9ae, // seed=406,partition=500ms+1s
    0x196a6a322407849c, // seed=407,crash=900ms
    0x4df09dd5b5ae6279, // seed=408,syncfail=200
    0x2a3169253d6133b2, // seed=409,ccrash=800ms
    0x087ef6a518d9c095, // seed=410,ccrash=700ms,crash=700ms
    0x4b62b8347486fa95, // seed=411,drop=15,dup=10,ccrash=900ms
    0x639e2187470a5e40, // seed=412,corrupt=10,ccrash=600ms,crash=1500ms
    0xb68e8629b7e672e9, // seed=413,drop=10,reorder=15,delay=80,delay_ns=1ms
    0x4b818c1134b1c6c7, // seed=414,crash=1s,ccrash=1s
    0x175df38d32aa5bb6, // seed=415,drop=10,syncfail=150,ccrash=1200ms
    0xab9f68438b77a620, // seed=416,dup=15,corrupt=10,crash=800ms
    0x532b4d36f0be3c06, // seed=417,partition=600ms+800ms,ccrash=1600ms
    0x75c79852ecc182da, // seed=418,drop=25,dup=10,reorder=10,corrupt=10,delay=60,delay_ns=1ms
    0xc6c95d78fbf649a1, // seed=419,ccrash=600ms,ccrash=1500ms,drop=10
    0x538ea93518551f04, // seed=420,crash=700ms,ccrash=1300ms,dup=10
    0x48fed582c42ffda9, // seed=421,drop=15,corrupt=10,crash=1s,ccrash=1s,syncfail=100
];

#[test]
fn every_battery_plan_draws_the_pinned_faults() {
    for ((spec, clients), want) in BATTERY.iter().zip(PINNED) {
        let out =
            Oracle::new(&OracleSpec::new(Behind::Servers, spec, *clients)).run(0x5EED, |_| ());
        assert!(out.violations.is_empty(), "{spec}: {:#?}", out.violations);
        let got = digest(&out);
        assert_eq!(got, want, "{spec}: 0x{got:016x}");
    }
}
