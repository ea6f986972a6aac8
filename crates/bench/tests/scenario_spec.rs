//! Property tests for the scenario-spec grammar: `encode` is the
//! canonical form and `parse` inverts it exactly, for the built-ins and
//! for a thousand seeded random specs; malformed specs are rejected
//! with errors that name the offending key or entry.

use sfs_bench::args::{ScenarioOp, ScenarioSpec, MAX_SCENARIO_CLIENTS};
use sfs_bench::scenario::builtin_mixes;
use sfs_bignum::XorShiftSource;

/// A random *valid* spec: every field within the validated ranges, a
/// non-empty duplicate-free mix with positive weights.
fn random_spec(src: &mut XorShiftSource) -> ScenarioSpec {
    let mut ops: Vec<ScenarioOp> = ScenarioOp::ALL.to_vec();
    // Seeded shuffle, then take a non-empty prefix as the mix.
    for i in (1..ops.len()).rev() {
        ops.swap(i, src.below(i as u64 + 1) as usize);
    }
    let take = 1 + src.below(ops.len() as u64) as usize;
    let mix = ops
        .into_iter()
        .take(take)
        .map(|op| (op, 1 + src.below(99) as u32))
        .collect();
    ScenarioSpec {
        seed: src.next_u64(),
        clients: 1 + src.below(MAX_SCENARIO_CLIENTS as u64) as usize,
        dirs: 1 + src.below(32) as usize,
        files: 2 + src.below(100) as usize,
        file_bytes: 1 + src.below(100_000) as usize,
        io_bytes: 1 + src.below(50_000) as usize,
        ops: 1 + src.below(10_000) as usize,
        cpu_ns: src.below(10_000_000_000),
        mix,
    }
}

#[test]
fn builtin_specs_round_trip() {
    for (name, spec) in builtin_mixes() {
        let reparsed = ScenarioSpec::parse(&spec.encode())
            .unwrap_or_else(|e| panic!("built-in {name} failed to re-parse: {e}"));
        assert_eq!(reparsed, spec, "built-in {name} did not round-trip");
    }
}

#[test]
fn random_valid_specs_round_trip() {
    let mut src = XorShiftSource::new(0x57EC_F022);
    for i in 0..1000 {
        let spec = random_spec(&mut src);
        let text = spec.encode();
        let reparsed = ScenarioSpec::parse(&text)
            .unwrap_or_else(|e| panic!("fuzz case {i} ({text}) failed to parse: {e}"));
        assert_eq!(reparsed, spec, "fuzz case {i} ({text}) did not round-trip");
        // Canonical form is a fixed point: encode(parse(encode(s))) == encode(s).
        assert_eq!(
            reparsed.encode(),
            text,
            "fuzz case {i} encode not canonical"
        );
    }
}

#[test]
fn malformed_specs_are_rejected_with_actionable_errors() {
    // (spec, substring every error must contain so the user can see
    // which entry to fix)
    let cases: &[(&str, &str)] = &[
        ("garbage", "key=value"),
        ("sed=7,mix=read:1", "unknown scenario spec key"),
        ("sed=7,mix=read:1", "sed"),
        ("seed=x,mix=read:1", "not a non-negative integer"),
        ("clients=0,mix=read:1", "at least one client"),
        ("clients=65,mix=read:1", "exceeds the maximum"),
        ("dirs=0,mix=read:1", "at least one directory"),
        ("files=1,mix=read:1", "at least 2 file slots"),
        ("file_bytes=0,mix=read:1", "at least 1"),
        ("io_bytes=0,mix=read:1", "at least 1"),
        ("ops=0,mix=read:1", "nothing after setup"),
        ("seed=7", "needs a mix="),
        ("mix=read", "op:weight"),
        ("mix=frobnicate:5", "unknown mix op"),
        ("mix=read:x", "not an integer"),
        ("mix=read:0", "must be positive"),
        ("mix=read:1+read:2", "twice"),
        ("cpu_ns=2x,mix=read:1", "optional ns/us/ms/s"),
        ("mix=read:200000", "above the 100000 cap"),
    ];
    for (spec, needle) in cases {
        let err = ScenarioSpec::parse(spec).map(|_| ()).unwrap_err();
        assert!(
            err.contains(needle),
            "error for {spec:?} must mention {needle:?}, got: {err}"
        );
    }
}

#[test]
fn duration_suffixes_parse_into_nanoseconds() {
    for (text, ns) in [
        ("cpu_ns=5,mix=read:1", 5u64),
        ("cpu_ns=5ns,mix=read:1", 5),
        ("cpu_ns=5us,mix=read:1", 5_000),
        ("cpu_ns=5ms,mix=read:1", 5_000_000),
        ("cpu_ns=5s,mix=read:1", 5_000_000_000),
    ] {
        assert_eq!(ScenarioSpec::parse(text).unwrap().cpu_ns, ns, "{text}");
    }
}
