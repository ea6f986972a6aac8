//! The paper's workloads (§4.2–§4.4).

use sfs_bignum::{RandomSource, XorShiftSource};
use sfs_sim::SimTime;

use crate::kernel::FsBench;

/// One timed phase of a benchmark.
#[derive(Debug, Clone)]
pub struct Phase {
    /// Phase name as it appears in the figure.
    pub(crate) name: String,
    /// Elapsed virtual time.
    pub(crate) time: SimTime,
}

/// Joins a prefix and a relative path.
fn join(prefix: &str, rel: &str) -> String {
    if prefix.is_empty() {
        rel.to_string()
    } else {
        format!("{prefix}/{rel}")
    }
}

fn timed<T>(fs: &dyn FsBench, f: impl FnOnce() -> T) -> (T, SimTime) {
    let start = fs.clock().now();
    let out = f();
    (out, fs.clock().now().since(start))
}

// ------------------------------------------------------------- Figure 5

/// Micro-benchmark: mean latency of an operation that always requires a
/// server round trip (unauthorized `fchown`), in microseconds.
pub(crate) fn micro_latency(fs: &dyn FsBench, prefix: &str) -> f64 {
    let path = join(prefix, "latency-probe");
    fs.create(&path).expect("create probe");
    fs.write(&path, 0, b"x").expect("seed probe");
    // Warm name caches and the connection.
    for _ in 0..5 {
        fs.chown_fail(&path).expect("warm");
    }
    let iters = 1_000;
    let (_, dt) = timed(fs, || {
        for _ in 0..iters {
            fs.chown_fail(&path).expect("chown");
        }
    });
    dt.as_nanos() as f64 / iters as f64 / 1_000.0
}

/// Micro-benchmark: sequential read throughput in MB/s over a large file
/// that lives in the server's buffer cache (the paper reads a *sparse*
/// 1,000 MB file so the disk is never touched; we use a smaller warm file
/// — throughput is steady-state either way).
pub(crate) fn micro_throughput(fs: &dyn FsBench, prefix: &str) -> f64 {
    const CHUNK: usize = 8192;
    const TOTAL: usize = 48 * 1024 * 1024;
    let path = join(prefix, "bigfile");
    fs.create(&path).expect("create big");
    // Build server-side content in large strides.
    let block = vec![0u8; 1024 * 1024];
    for i in 0..TOTAL / block.len() {
        fs.write(&path, (i * block.len()) as u64, &block)
            .expect("fill");
    }
    fs.flush(&path).expect("flush");
    fs.drop_caches();
    fs.open(&path).expect("open");
    let (_, dt) = timed(fs, || {
        let mut off = 0u64;
        while off < TOTAL as u64 {
            let data = fs.read(&path, off, CHUNK).expect("read");
            assert!(!data.is_empty());
            off += data.len() as u64;
        }
    });
    TOTAL as f64 / 1_000_000.0 / dt.as_secs_f64()
}

// ------------------------------------------------------------- Figure 6

/// Parameters for the Modified Andrew Benchmark.
pub struct MabConfig {
    /// Number of directories phase 1 creates.
    pub dirs: usize,
    /// Number of source files.
    pub files: usize,
    /// Bytes per file (varied ±50% deterministically).
    pub mean_file_size: usize,
    /// CPU time to compile one file, ns.
    pub compile_cpu_ns: u64,
    /// `stat` passes over the tree in the attributes phase.
    pub stat_passes: usize,
}

impl Default for MabConfig {
    fn default() -> Self {
        MabConfig {
            dirs: 20,
            files: 70,
            mean_file_size: 6_000,
            compile_cpu_ns: 48_000_000,
            stat_passes: 4,
        }
    }
}

/// The Modified Andrew Benchmark (§4.3): mkdir, copy, attributes, search,
/// compile.
pub fn mab(fs: &dyn FsBench, prefix: &str, cfg: &MabConfig) -> Vec<Phase> {
    let mut phases = Vec::new();
    let file_path = |i: usize| join(prefix, &format!("d{}/f{}.c", i % cfg.dirs, i));

    // Phase 1: directories.
    let (_, t) = timed(fs, || {
        for d in 0..cfg.dirs {
            fs.mkdir(&join(prefix, &format!("d{d}"))).expect("mkdir");
        }
    });
    phases.push(Phase {
        name: "directories".into(),
        time: t,
    });

    // Phase 2: copy the source tree in.
    let sizes: Vec<usize> = (0..cfg.files)
        .map(|i| cfg.mean_file_size / 2 + (i * 997) % cfg.mean_file_size)
        .collect();
    let (_, t) = timed(fs, || {
        for (i, &size) in sizes.iter().enumerate() {
            let p = file_path(i);
            fs.create(&p).expect("create");
            fs.write(&p, 0, &vec![b'x'; size]).expect("write");
        }
    });
    phases.push(Phase {
        name: "copy".into(),
        time: t,
    });

    // Phase 3: attributes (find + ls -lR passes). Fresh process ⇒ fresh
    // opens, but attribute caches persist in the kernel/client.
    let (_, t) = timed(fs, || {
        for _ in 0..cfg.stat_passes {
            for i in 0..cfg.files {
                fs.stat(&file_path(i)).expect("stat");
            }
        }
    });
    phases.push(Phase {
        name: "attributes".into(),
        time: t,
    });

    // Phase 4: search (grep through every file; data comes through the
    // page cache after the first pass, but each file is opened).
    let (_, t) = timed(fs, || {
        for i in 0..cfg.files {
            let p = file_path(i);
            fs.open(&p).expect("open");
            let mut off = 0u64;
            loop {
                let data = fs.read(&p, off, 8192).expect("read");
                if data.is_empty() {
                    break;
                }
                off += data.len() as u64;
                if data.len() < 8192 {
                    break;
                }
            }
        }
    });
    phases.push(Phase {
        name: "search".into(),
        time: t,
    });

    // Phase 5: compile — open+read each source, burn CPU, write the
    // object, then a link pass over all objects.
    let (_, t) = timed(fs, || {
        for (i, &size) in sizes.iter().enumerate() {
            let p = file_path(i);
            fs.open(&p).expect("open src");
            fs.read(&p, 0, size).expect("read src");
            fs.cpu_burn(cfg.compile_cpu_ns);
            let obj = join(prefix, &format!("d{}/f{}.o", i % cfg.dirs, i));
            fs.create(&obj).expect("create obj");
            fs.write(&obj, 0, &vec![0u8; size * 3 / 2])
                .expect("write obj");
        }
        // Link.
        let out = join(prefix, "a.out");
        fs.create(&out).expect("create a.out");
        let mut pos = 0u64;
        for i in 0..cfg.files {
            let obj = join(prefix, &format!("d{}/f{}.o", i % cfg.dirs, i));
            fs.open(&obj).expect("open obj");
            let data = fs.read(&obj, 0, usize::MAX / 2).expect("read obj");
            fs.write(&out, pos, &data).expect("write a.out");
            pos += data.len() as u64;
        }
        fs.flush(&out).expect("flush");
    });
    phases.push(Phase {
        name: "compile".into(),
        time: t,
    });

    phases
}

/// Total of a phase list.
pub fn total(phases: &[Phase]) -> SimTime {
    SimTime(phases.iter().map(|p| p.time.as_nanos()).sum())
}

// ------------------------------------------------------------- Figure 7

/// Parameters for the GENERIC FreeBSD kernel build.
pub(crate) struct KernelBuildConfig {
    /// Compilation units.
    pub(crate) units: usize,
    /// Shared headers.
    pub(crate) headers: usize,
    /// Header-open attempts per unit (close-to-open revalidations in
    /// NFS; lease hits in SFS).
    pub(crate) header_opens: usize,
    /// Failed include-path probes per unit (negative lookups; RPCs
    /// everywhere).
    pub(crate) probe_misses: usize,
    /// Headers actually read per unit.
    pub(crate) header_reads: usize,
    /// CPU per unit, ns.
    pub(crate) compile_cpu_ns: u64,
}

impl Default for KernelBuildConfig {
    fn default() -> Self {
        KernelBuildConfig {
            units: 1500,
            headers: 300,
            header_opens: 76,
            probe_misses: 30,
            header_reads: 4,
            compile_cpu_ns: 88_000_000,
        }
    }
}

/// Compiling the GENERIC FreeBSD 3.3 kernel (§4.3, Figure 7). Returns the
/// elapsed virtual time.
pub(crate) fn kernel_build(fs: &dyn FsBench, prefix: &str, cfg: &KernelBuildConfig) -> SimTime {
    // Set up the tree: sources and headers.
    fs.mkdir(&join(prefix, "src")).expect("mkdir src");
    fs.mkdir(&join(prefix, "sys")).expect("mkdir sys");
    fs.mkdir(&join(prefix, "obj")).expect("mkdir obj");
    for h in 0..cfg.headers {
        let p = join(prefix, &format!("sys/h{h}.h"));
        fs.create(&p).expect("create hdr");
        fs.write(&p, 0, &vec![b'h'; 2048]).expect("write hdr");
    }
    for u in 0..cfg.units {
        let p = join(prefix, &format!("src/u{u}.c"));
        fs.create(&p).expect("create src");
        fs.write(&p, 0, &vec![b'c'; 6144]).expect("write src");
    }
    fs.drop_caches();

    let mut rng = XorShiftSource::new(0xC04F11E);
    let (_, t) = timed(fs, || {
        for u in 0..cfg.units {
            let src = join(prefix, &format!("src/u{u}.c"));
            fs.open(&src).expect("open src");
            fs.read(&src, 0, 6144).expect("read src");
            // Include-path probes that miss (the compiler searching -I
            // dirs): negative lookups are not cached by anyone.
            for p in 0..cfg.probe_misses {
                let ghost = join(prefix, &format!("src/missing-{u}-{p}.h"));
                let _ = fs.stat(&ghost); // ENOENT expected
            }
            // Header opens: close-to-open revalidation vs leases.
            let mut buf = [0u8; 4];
            for _ in 0..cfg.header_opens {
                rng.fill(&mut buf);
                let h = u32::from_be_bytes(buf) as usize % cfg.headers;
                let hp = join(prefix, &format!("sys/h{h}.h"));
                fs.open(&hp).expect("open hdr");
            }
            for r in 0..cfg.header_reads {
                let hp = join(prefix, &format!("sys/h{}.h", (u + r) % cfg.headers));
                fs.read(&hp, 0, 2048).expect("read hdr");
            }
            fs.cpu_burn(cfg.compile_cpu_ns);
            let obj = join(prefix, &format!("obj/u{u}.o"));
            fs.create(&obj).expect("create obj");
            fs.write(&obj, 0, &vec![0u8; 16384]).expect("write obj");
        }
    });
    t
}

// ------------------------------------------------------------- Figure 8

/// The Sprite LFS small-file benchmark (§4.4): create, read, and unlink
/// 1,000 1 KB files.
pub(crate) fn lfs_small(fs: &dyn FsBench, prefix: &str, n: usize) -> Vec<Phase> {
    let mut phases = Vec::new();
    let data = vec![b's'; 1024];
    fs.mkdir(&join(prefix, "small")).expect("mkdir");

    let (_, t) = timed(fs, || {
        for i in 0..n {
            let p = join(prefix, &format!("small/f{i}"));
            fs.create(&p).expect("create");
            fs.write(&p, 0, &data).expect("write");
            fs.stat(&p).expect("close-stat");
        }
    });
    phases.push(Phase {
        name: "create".into(),
        time: t,
    });

    // Fresh process: caches dropped, every file opened cold.
    fs.drop_caches();
    let (_, t) = timed(fs, || {
        for i in 0..n {
            let p = join(prefix, &format!("small/f{i}"));
            fs.open(&p).expect("open");
            fs.read(&p, 0, 1024).expect("read");
        }
    });
    phases.push(Phase {
        name: "read".into(),
        time: t,
    });

    let (_, t) = timed(fs, || {
        for i in 0..n {
            let p = join(prefix, &format!("small/f{i}"));
            fs.unlink(&p).expect("unlink");
        }
    });
    phases.push(Phase {
        name: "unlink".into(),
        time: t,
    });

    phases
}

// ------------------------------------------------------------- Figure 9

/// The Sprite LFS large-file benchmark (§4.4): write/read a 40,000 KB
/// file sequentially and randomly in 8 KB chunks, flushing at the end of
/// each write phase.
pub(crate) fn lfs_large(fs: &dyn FsBench, prefix: &str) -> Vec<Phase> {
    const CHUNK: usize = 8192;
    const TOTAL: usize = 40_000 * 1024;
    let n_chunks = TOTAL / CHUNK;
    let path = join(prefix, "large");
    let data = vec![b'L'; CHUNK];
    let mut phases = Vec::new();
    let mut rng = XorShiftSource::new(0x1F5);

    // Sequential write.
    fs.create(&path).expect("create");
    let (_, t) = timed(fs, || {
        for i in 0..n_chunks {
            fs.write(&path, (i * CHUNK) as u64, &data).expect("w");
        }
        fs.flush(&path).expect("flush");
    });
    phases.push(Phase {
        name: "seq write".into(),
        time: t,
    });

    // Sequential read (server cache warm; client page cache bypassed for
    // a file this large).
    fs.drop_caches();
    fs.open(&path).expect("open");
    let (_, t) = timed(fs, || {
        for i in 0..n_chunks {
            fs.read(&path, (i * CHUNK) as u64, CHUNK).expect("r");
        }
    });
    phases.push(Phase {
        name: "seq read".into(),
        time: t,
    });

    // Random write.
    let mut buf = [0u8; 4];
    let (_, t) = timed(fs, || {
        for _ in 0..n_chunks {
            rng.fill(&mut buf);
            let block = u32::from_be_bytes(buf) as usize % n_chunks;
            fs.write(&path, (block * CHUNK) as u64, &data).expect("w");
        }
        fs.flush(&path).expect("flush");
    });
    phases.push(Phase {
        name: "rand write".into(),
        time: t,
    });

    // Random read.
    let (_, t) = timed(fs, || {
        for _ in 0..n_chunks {
            rng.fill(&mut buf);
            let block = u32::from_be_bytes(buf) as usize % n_chunks;
            fs.read(&path, (block * CHUNK) as u64, CHUNK).expect("r");
        }
    });
    phases.push(Phase {
        name: "rand read".into(),
        time: t,
    });

    // Sequential read again.
    let (_, t) = timed(fs, || {
        for i in 0..n_chunks {
            fs.read(&path, (i * CHUNK) as u64, CHUNK).expect("r");
        }
    });
    phases.push(Phase {
        name: "seq read 2".into(),
        time: t,
    });

    phases
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calib::{System, Testbed};
    use crate::world::WorldSpec;

    #[test]
    fn mab_produces_five_phases_in_order() {
        let Testbed { fs, prefix, .. } = Testbed::build(System::Local, &WorldSpec::bench());
        let cfg = MabConfig {
            files: 8,
            dirs: 4,
            compile_cpu_ns: 1_000_000,
            ..Default::default()
        };
        let phases = mab(fs.as_ref(), prefix, &cfg);
        let names: Vec<&str> = phases.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(
            names,
            ["directories", "copy", "attributes", "search", "compile"]
        );
        assert!(total(&phases).as_nanos() > 0);
    }

    #[test]
    fn lfs_small_phases_scale_with_file_count() {
        let Testbed { fs, prefix, .. } = Testbed::build(System::Local, &WorldSpec::bench());
        let a = lfs_small(fs.as_ref(), prefix, 10);
        assert_eq!(a.len(), 3);
        // Create and unlink are disk-bound: 10 files cost something.
        assert!(a[0].time.as_nanos() > 0);
        assert!(a[2].time.as_nanos() > 0);
    }

    #[test]
    fn micro_latency_is_positive_and_stable() {
        let Testbed { fs, prefix, .. } = Testbed::build(System::NfsUdp, &WorldSpec::bench());
        let lat = micro_latency(fs.as_ref(), prefix);
        assert!(lat > 50.0 && lat < 2_000.0, "latency {lat} µs out of range");
    }

    #[test]
    fn nfs_rpc_counts_exceed_local() {
        let Testbed {
            fs: nfs,
            prefix: p1,
            ..
        } = Testbed::build(System::NfsUdp, &WorldSpec::bench());
        let cfg = MabConfig {
            files: 6,
            dirs: 3,
            compile_cpu_ns: 1_000_000,
            ..Default::default()
        };
        mab(nfs.as_ref(), p1, &cfg);
        assert!(nfs.rpcs() > 20, "NFS must issue wire RPCs");
        let Testbed {
            fs: local,
            prefix: p2,
            ..
        } = Testbed::build(System::Local, &WorldSpec::bench());
        mab(local.as_ref(), p2, &cfg);
        assert_eq!(local.rpcs(), 0);
    }

    #[test]
    fn sfs_caching_cuts_rpcs_on_repeated_stats() {
        let Testbed { fs, prefix, .. } = Testbed::build(System::Sfs, &WorldSpec::bench());
        let p = format!("{prefix}/statme")
            .trim_start_matches('/')
            .to_string();
        fs.create(&p).unwrap();
        fs.write(&p, 0, b"x").unwrap();
        // Drain the write-behind queue so the flush RPC is not charged
        // to the first stat.
        fs.flush(&p).unwrap();
        let before = fs.rpcs();
        for _ in 0..20 {
            fs.stat(&p).unwrap();
        }
        assert!(fs.rpcs() - before <= 1, "leased stats must stay local");
        let Testbed { fs, prefix, .. } = Testbed::build(System::SfsNoCache, &WorldSpec::bench());
        let p = format!("{prefix}/statme")
            .trim_start_matches('/')
            .to_string();
        fs.create(&p).unwrap();
        fs.write(&p, 0, b"x").unwrap();
        // Drain the write-behind queue so the flush RPC is not charged
        // to the first stat.
        fs.flush(&p).unwrap();
        let before = fs.rpcs();
        for _ in 0..20 {
            fs.stat(&p).unwrap();
        }
        assert_eq!(fs.rpcs() - before, 20, "no caching ⇒ one RPC per stat");
    }
}
