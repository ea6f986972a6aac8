//! One run of one workload: set-up, the timed region, output checks,
//! and — for `--trace 1` — the traced pass, the harvest and the probes.

use std::path::Path;
use std::time::Instant;

use crate::harness::{self, SEGMENTS};
use crate::layers::{self_times, Delta};
use crate::report::{Metrics, RunResult, PER_LAYER};
use crate::stack::{self, SpanRec, World};
use crate::workloads::{self, ConnectArms, Def, Plan, Workload};

/// What to run.
pub struct RunArgs {
    pub workload: &'static Def,
    pub seed: u64,
    pub seconds: u64,
    pub smoke: bool,
    /// Expect wrong content on part of the checks (`--self-test`).
    pub sabotage: bool,
}

/// A `--trace 0` run sets the world up this many times *before* the
/// timed region and as many times again *after* it. `setup_s` is the
/// smaller of the two groups' medians — the op estimator's recipe at
/// set-up scale: the median within a group shrugs off a one-off hiccup
/// (the first set-up of a process is always the slowest), and two groups
/// a timed region apart are rarely both inside one of the host's slow
/// episodes, which a median over adjacent set-ups cannot escape.
const SETUPS_PER_GROUP: usize = 3;

/// A world with its workload bound and warmed up.
struct Ready {
    world: World,
    workload: Box<dyn Workload>,
    warmup_failed: u64,
}

/// Set-up, start to first timed op: build the stack (key generation,
/// mounts), populate the files, run the warm-up ops.
fn set_up(args: &RunArgs, plan: &Plan, traced: bool) -> Ready {
    let world = World::build(
        &args.workload.spec,
        workloads::link_extra_ns(args.seed),
        traced,
    );
    let mut workload = args.workload.bind(&world, args.seed, plan, args.sabotage);
    let warmup_failed = (0..plan.warmup)
        .filter(|&i| !workload.op(&world, i).ok)
        .count() as u64;
    Ready {
        world,
        workload,
        warmup_failed,
    }
}

/// One timed region and what was observed around it. Samples are kept
/// as 4-byte columns (saturating at 4.29 s) so the harness's own
/// buffers stay small beside the program in `peak_rss_mib`.
struct Region {
    wall_ns: Vec<u32>,
    virt_ns: Vec<u32>,
    allocs: u64,
    failed: u64,
    /// Longest virtual time any one client spent in its ops, ns.
    makespan_ns: u64,
    /// How far the clients' clocks moved over the region, summed, ns.
    /// More than the ops' summed virtual latency only on `connect`,
    /// whose op reports a part of its cycle on the virtual clock.
    clocks_moved_ns: u64,
    reads_issued: u64,
}

fn run_region(ready: &mut Ready, first_op: usize, ops: usize) -> Region {
    let clocks = |w: &World| w.members.iter().map(|m| m.now_ns()).sum::<u64>();
    let clocks0 = clocks(&ready.world);
    let reads0 = ready.workload.reads_issued();
    let mut region = Region {
        wall_ns: Vec::with_capacity(ops),
        virt_ns: Vec::with_capacity(ops),
        allocs: 0,
        failed: 0,
        makespan_ns: 0,
        clocks_moved_ns: 0,
        reads_issued: 0,
    };
    // Each machine's clock moves only while it runs its own ops, so its
    // elapsed virtual time is the sum of its ops' latencies.
    let mut busy_ns = vec![0u64; ready.world.members.len()];
    for i in first_op..first_op + ops {
        let o = ready.workload.op(&ready.world, i);
        region
            .wall_ns
            .push(u32::try_from(o.wall_ns).unwrap_or(u32::MAX));
        region
            .virt_ns
            .push(u32::try_from(o.virt_ns).unwrap_or(u32::MAX));
        region.allocs += o.allocs;
        region.failed += u64::from(!o.ok);
        busy_ns[o.client as usize] += o.virt_ns;
    }
    region.makespan_ns = busy_ns.into_iter().max().unwrap_or(0);
    region.clocks_moved_ns = clocks(&ready.world) - clocks0;
    region.reads_issued = ready.workload.reads_issued() - reads0;
    region
}

/// `--trace 0`: the end-to-end metrics.
pub fn run_end_to_end(args: &RunArgs) -> RunResult {
    let plan = args.workload.plan(args.seconds, args.smoke);
    let mut warmup_failed = 0;
    // Sets up a group, returning its times and the last world built;
    // each previous world is dropped before the clock starts again.
    let mut set_up_group = || {
        let mut times = Vec::with_capacity(SETUPS_PER_GROUP);
        let mut ready = None;
        for _ in 0..SETUPS_PER_GROUP {
            drop(ready.take());
            let t0 = Instant::now();
            let r = set_up(args, &plan, false);
            times.push(t0.elapsed().as_secs_f64());
            warmup_failed += r.warmup_failed;
            ready = Some(r);
        }
        (times, ready.expect("a group is at least one set-up"))
    };
    let (setup_before, mut ready) = set_up_group();

    let t0 = Instant::now();
    let region = run_region(&mut ready, plan.warmup, plan.timed);
    let region_s = t0.elapsed().as_secs_f64();
    let peak_rss_mib = harness::peak_rss_mib();
    let (checks, checks_failed) = ready.workload.finish(&ready.world);
    drop(ready);
    let (setup_after, _) = set_up_group();
    let setup_s = harness::median_f64(&setup_before).min(harness::median_f64(&setup_after));

    let wall = harness::wall_estimate(&region.wall_ns, SEGMENTS);
    if wall.segment_spread > 1.25 {
        eprintln!(
            "warning: harness.segment_spread = {:.3} (> 1.25): the host was not quiet for the \
             whole run; op_wall_ns is the best segment's median, but consider rerunning",
            wall.segment_spread
        );
    }
    let virt = harness::quantiles(&region.virt_ns, &[0.5, 0.99]);
    let ops = plan.timed as f64;
    eprintln!(
        "{}: {} timed ops in {:.2} s and {} segments ({} samples behind every percentile), \
         harness.segment_spread {:.3}, wall p50/p99 over all ops {}/{} ns; \
         set-ups {:.3?} s before, {:.3?} s after",
        args.workload.name,
        plan.timed,
        region_s,
        SEGMENTS,
        plan.timed,
        wall.segment_spread,
        wall.p50_all,
        wall.p99_all,
        setup_before,
        setup_after
    );

    let metrics: Metrics = vec![
        ("setup_s", setup_s),
        ("op_wall_ns", wall.op_wall_ns),
        ("wall_ops_per_s", wall.wall_ops_per_s),
        ("op_virtual_ns_p50", f64::from(virt[0])),
        ("op_virtual_ns_p99", f64::from(virt[1])),
        (
            "virtual_ops_per_s",
            ops * 1e9 / region.makespan_ns.max(1) as f64,
        ),
        ("allocs_per_op", region.allocs as f64 / ops),
        ("peak_rss_mib", peak_rss_mib),
    ];
    let failed = warmup_failed + region.failed + checks_failed;
    RunResult {
        correct: failed == 0,
        // Every set-up's warm-up ops are checked too.
        attempted: (2 * SETUPS_PER_GROUP * plan.warmup + plan.timed) as u64 + checks,
        failed,
        metrics,
    }
}

/// Segments of the (shorter) traced passes.
const TRACED_SEGMENTS: usize = 8;

/// `--trace 1`: the per-layer metrics. Runs the same ops twice — once
/// untraced, once with the program's recording `Telemetry` attached
/// before mount — then harvests counters, gauges, histograms and spans
/// from the traced world, times the layers' public functions from
/// outside, and writes the Chrome trace to `trace_path`.
pub fn run_traced(args: &RunArgs, trace_path: &Path) -> RunResult {
    let plan = args.workload.plan(args.seconds, args.smoke);
    let ops = plan.traced;

    let mut plain = set_up(args, &plan, false);
    let plain_region = run_region(&mut plain, plan.warmup, ops);
    let plain_wall = harness::wall_estimate(&plain_region.wall_ns, TRACED_SEGMENTS);
    let plain_warmup_failed = plain.warmup_failed;
    drop(plain);

    let mut traced = set_up(args, &plan, true);
    let before = traced.world.harvest();
    let region = run_region(&mut traced, plan.warmup, ops);
    let after = traced.world.harvest();
    let (checks, checks_failed) = traced.workload.finish(&traced.world);
    let traced_wall = harness::wall_estimate(&region.wall_ns, TRACED_SEGMENTS);

    // Zero perturbation: recording must not move the virtual clock, so
    // both passes report the same virtual latency for every op.
    let perturbed =
        plain_region.virt_ns != region.virt_ns || plain_region.makespan_ns != region.makespan_ns;
    if perturbed {
        eprintln!("FAIL: traced and untraced passes disagree on virtual time");
    }
    // Both passes' ops, the read-back, and the perturbation check.
    let attempted = 2 * (plan.warmup + ops) as u64 + checks + 1;
    let failed = traced.warmup_failed
        + plain_warmup_failed
        + region.failed
        + plain_region.failed
        + checks_failed
        + u64::from(perturbed);

    let delta = Delta::new(&before, &after);
    let spans = &after.spans[before.spans.len()..];
    let mut metrics = count_metrics(args, &delta, spans, &region, ops as f64);
    let chrome_trace = traced.world.chrome_trace();
    metrics.push((
        "proto.channel.mac_failures",
        chrome_trace.matches("\"poisoned\"").count() as f64,
    ));
    metrics.extend(virtual_metrics(
        spans,
        &region,
        traced.workload.connect_arms(),
        ops,
    ));
    // Last: the WRITE and SETATTR probes modify the probed files.
    metrics.extend(probe_metrics(args, &traced, &delta, &plain_wall, ops));
    metrics.extend([
        (
            "telemetry.overhead_ratio",
            traced_wall.op_wall_ns / plain_wall.op_wall_ns.max(1.0),
        ),
        ("harness.op_wall_ns_p50_all", f64::from(plain_wall.p50_all)),
        ("harness.op_wall_ns_p99_all", f64::from(plain_wall.p99_all)),
        ("harness.segment_spread", plain_wall.segment_spread),
        ("harness.timer_ns", harness::timer_ns()),
        ("harness.samples", ops as f64),
        ("harness.op_fail_ratio", failed as f64 / attempted as f64),
    ]);
    // Computed in groups; printed in catalogue order.
    let rank = |name: &str| PER_LAYER.iter().position(|m| m.0 == name);
    metrics.sort_by_key(|(name, _)| rank(name).expect("metric is in the catalogue"));

    if let Some(dir) = trace_path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(trace_path, &chrome_trace) {
        Ok(()) => eprintln!(
            "{}: {} spans of {} traced ops written to {} (load in chrome://tracing or Perfetto)",
            args.workload.name,
            spans.len(),
            ops,
            trace_path.display()
        ),
        Err(e) => eprintln!("warning: cannot write {}: {e}", trace_path.display()),
    }

    RunResult {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    }
}

/// Counts per op (and the few absolute marks) from the program's
/// counters, gauges and histograms. Exact: they repeat for a seed.
fn count_metrics(args: &RunArgs, d: &Delta, spans: &[SpanRec], region: &Region, n: f64) -> Metrics {
    let per_op = |name: &str| d.count(name) / n;
    // Shard engine: the frames it scheduled are the sequenced frames the
    // server dispatched; joined commits are batch members past the first.
    let cores = args.workload.spec.cores;
    let frames_scheduled = cores.map_or(0, |_| {
        spans
            .iter()
            .filter(|s| s.cat == "core.server" && s.name == "sealed_seq")
            .count()
    });
    let (batches, batched_commits) = d.hist("server.disk.batch_size");
    vec![
        ("sim.net.round_trips_per_op", per_op("net.round_trips")),
        ("sim.net.wire_bytes_per_op", per_op("net.bytes_sent")),
        ("sim.net.timeouts_per_op", per_op("net.timeouts")),
        ("sim.disk.syncs_per_op", per_op("disk.syncs")),
        (
            "sim.disk.bytes_written_per_op",
            per_op("disk.bytes_written"),
        ),
        ("sim.cpu.crypto_bytes_per_op", per_op("cpu.crypto_bytes")),
        ("sim.cpu.crossings_per_op", per_op("cpu.crossings")),
        (
            "proto.channel.msgs_sealed_per_op",
            per_op("channel.msgs_sealed"),
        ),
        (
            "proto.channel.bytes_sealed_per_op",
            per_op("channel.bytes_sealed"),
        ),
        // Client and server both count a completed negotiation.
        (
            "proto.keyneg.handshakes_per_op",
            per_op("keyneg.completed") / 2.0,
        ),
        (
            "core.client.resume_hit_ratio",
            d.ratio("resume.hit", &["resume.miss", "resume.rejected"]),
        ),
        (
            "core.client.attr_hit_ratio",
            d.ratio("cache.attr_hits", &["cache.attr_misses"]),
        ),
        (
            "core.client.access_hit_ratio",
            d.ratio("cache.access_hits", &["cache.access_misses"]),
        ),
        (
            "core.client.lease_invalidations_per_op",
            per_op("cache.invalidations"),
        ),
        (
            "core.client.readahead_hit_ratio",
            d.count("pipeline.readahead_hits") / region.reads_issued.max(1) as f64,
        ),
        (
            "core.client.retransmits_per_op",
            per_op("retry.retransmits"),
        ),
        ("core.client.inflight_hwm", d.hwm("pipeline.inflight_hwm")),
        (
            "core.server.dispatch_calls_per_op",
            per_op("dispatch.calls"),
        ),
        ("core.server.seqwin_rejected", d.count("seqwin.rejected")),
        ("core.server.queue_depth_hwm", d.hwm("pipeline.queue_depth")),
        (
            "core.bufpool.hit_ratio",
            d.ratio("bufpool.hits", &["bufpool.misses"]),
        ),
        (
            "core.shard.busy_share",
            cores.map_or(0.0, |c| {
                d.count("server.shard.busy_ticks") / (c as f64 * region.makespan_ns.max(1) as f64)
            }),
        ),
        (
            "core.shard.frames_scheduled_per_op",
            frames_scheduled as f64 / n,
        ),
        (
            "core.shard.disk_joined_ratio",
            (batched_commits - batches) / batched_commits.max(1.0),
        ),
        (
            "core.shard.queue_depth_hwm",
            d.hwm("server.shard.queue_depth"),
        ),
        ("nfs3.calls_per_op", per_op("nfs3.calls")),
    ]
}

/// Virtual self time per layer from the spans, and the connect arms.
fn virtual_metrics(
    spans: &[SpanRec],
    region: &Region,
    arms: Option<&ConnectArms>,
    ops: usize,
) -> Metrics {
    let selfs = self_times(spans);
    let layer_ns = |cat: &str| selfs.by_layer.get(cat).copied().unwrap_or(0) as f64 / ops as f64;
    let arm = |pick: fn(&ConnectArms) -> &Vec<u64>| arm_median(arms, pick, ops);
    vec![
        ("sim.net.virtual_ns_per_op", layer_ns("sim.net")),
        ("sim.disk.virtual_ns_per_op", layer_ns("sim.disk")),
        ("nfs3.virtual_ns_per_op", layer_ns("nfs3")),
        (
            "core.client.virtual_self_ns_per_op",
            layer_ns("core.client"),
        ),
        (
            "core.server.virtual_self_ns_per_op",
            layer_ns("core.server"),
        ),
        ("proto.keyneg.virtual_ns_per_op", layer_ns("proto.keyneg")),
        (
            "budget.virtual_unattributed_share",
            1.0 - selfs.on_op_clocks_ns as f64 / region.clocks_moved_ns.max(1) as f64,
        ),
        (
            "core.client.connect_full_virtual_ns",
            arm(|a| &a.full.virt_ns),
        ),
        (
            "core.client.connect_resume_virtual_ns",
            arm(|a| &a.resume.virt_ns),
        ),
        (
            "core.client.connect_full_round_trips",
            arm(|a| &a.full.round_trips),
        ),
        (
            "core.client.connect_resume_round_trips",
            arm(|a| &a.resume.round_trips),
        ),
    ]
}

/// Median of one per-arm sample column over the region's `ops` cycles
/// (the warm-up cycles come first in the vectors); 0 off `connect`.
fn arm_median(arms: Option<&ConnectArms>, pick: fn(&ConnectArms) -> &Vec<u64>, ops: usize) -> f64 {
    arms.map_or(0.0, |a| {
        let v = pick(a);
        harness::quantiles(&v[v.len() - ops..], &[0.5])[0] as f64
    })
}

/// Outside wall probes, weighted by the calls per op the traced region
/// counted per NFS3 procedure, and the share of the op they explain.
fn probe_metrics(
    args: &RunArgs,
    traced: &Ready,
    d: &Delta,
    plain_wall: &harness::WallEstimate,
    ops: usize,
) -> Metrics {
    let n = ops as f64;
    let iters = if args.smoke { 200 } else { 2_000 };
    let rpcs: Vec<_> = traced
        .workload
        .probe_rpcs(&traced.world)
        .into_iter()
        .map(|(proc_name, rpc)| (rpc, d.hist(proc_name).0 / n))
        .filter(|(_, per_op)| *per_op > 0.0)
        .collect();
    let probes = stack::probe_op(&traced.world, &rpcs, iters);
    // The channel's cost is affine in the frame length to a good
    // approximation; fitted through the smallest and largest frame the
    // workload's RPCs produce, it is applied to the messages and bytes
    // the program itself counted — which also covers what the RPC list
    // does not (authentication and mount calls, short reads at EOF).
    let suite = args.workload.spec.suite;
    let (small, large) = probes.frame_lens;
    let at_small = stack::probe_channel(suite, small, iters);
    let at_large = stack::probe_channel(suite, large, iters);
    let (msgs, bytes) = (
        d.count("channel.msgs_sealed"),
        d.count("channel.bytes_sealed"),
    );
    let channel_ns_per_op = |t_small: f64, t_large: f64| {
        let per_byte = (t_large - t_small) / (large - small).max(1) as f64;
        let fixed = t_small - per_byte * small as f64;
        (msgs * fixed + bytes * per_byte) / n
    };
    let seal_ns = channel_ns_per_op(at_small.0, at_large.0);
    let open_ns = channel_ns_per_op(at_small.1, at_large.1);
    let bufpool_ns = stack::probe_bufpool(iters * 10);
    let (rabin_dec, rabin_sign, rabin_enc, rabin_verify) =
        stack::probe_rabin(if args.smoke { 5 } else { 50 });
    // Public-key work of one op: each full negotiation is an encrypt +
    // decrypt on both sides; each user authentication (one per session,
    // full or resumed) is a sign + verify.
    let handshakes = d.count("keyneg.completed") / 2.0;
    let sessions = handshakes + d.count("resume.hit");
    let rabin_ns_per_op =
        (handshakes * 2.0 * (rabin_dec + rabin_enc) + sessions * (rabin_sign + rabin_verify)) / n;
    let bufpool_calls = d.count("bufpool.hits") + d.count("bufpool.misses");
    let probed_ns = probes.xdr_encode_ns
        + probes.xdr_decode_ns
        + seal_ns
        + open_ns
        + probes.handle_cipher_ns
        + probes.nfs3_handle_ns // includes the VFS call
        + rabin_ns_per_op
        + bufpool_calls / n * bufpool_ns;
    // Probes are means weighted by calls per op, so they are set against
    // the mean op (best segment), not the median one: on a mixed
    // workload the two differ by the weight of the rare heavy ops.
    let probed_share = probed_ns * plain_wall.wall_ops_per_s / 1e9;
    let arms = traced.workload.connect_arms();
    vec![
        ("xdr.encode_ns_per_op", probes.xdr_encode_ns),
        ("xdr.decode_ns_per_op", probes.xdr_decode_ns),
        ("proto.channel.seal_ns_per_op", seal_ns),
        ("proto.channel.open_ns_per_op", open_ns),
        ("crypto.handle_cipher_ns_per_op", probes.handle_cipher_ns),
        ("crypto.rabin_decrypt_ns", rabin_dec),
        ("crypto.rabin_sign_ns", rabin_sign),
        ("crypto.rabin_encrypt_ns", rabin_enc),
        ("crypto.rabin_verify_ns", rabin_verify),
        ("nfs3.handle_ns_per_op", probes.nfs3_handle_ns),
        ("vfs.op_ns_per_op", probes.vfs_op_ns),
        ("core.bufpool.get_put_ns", bufpool_ns),
        (
            "telemetry.count_ns",
            stack::probe_telemetry_count(iters * 10),
        ),
        (
            "core.client.connect_full_wall_ns",
            arm_median(arms, |a| &a.full.wall_ns, ops),
        ),
        (
            "core.client.connect_resume_wall_ns",
            arm_median(arms, |a| &a.resume.wall_ns, ops),
        ),
        ("budget.wall_probed_share", probed_share),
        ("budget.wall_unattributed_share", 1.0 - probed_share),
    ]
}
