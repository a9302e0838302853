//! Hot-path comparison: the legacy copy-out/copy-back `RwLock` execution core
//! (reconstructed inline) vs the zero-copy partitioned engine, STREAM-PMem
//! (App-Direct, block-staged through a pool on the CXL expander) as a
//! fraction of the same STREAM in place, the spawn-per-run dispatch vs the
//! persistent epoch-barrier pool at small array sizes (where per-invocation
//! overhead dominates), plus the naive vs memoised analytical sweep. Results
//! land in `BENCH_stream.json` at the repository root, with the host they
//! were measured on, so regressions are diffable.

use criterion::{criterion_group, criterion_main, Criterion};
use cxl_pmem::{AccessMode, CxlPmemRuntime, RuntimeBuilder, TierPolicy};
use numa::{AffinityPolicy, PinnedPool, ThreadPlacement, WorkerCtx};
use parking_lot::RwLock;
use std::hint::black_box;
use std::time::Instant;
use stream_bench::{
    ChunkedArrays, Kernel, PmemStream, SimulatedStream, StreamConfig, VolatileStream,
};

const ELEMENTS: usize = 1_000_000;
const THREADS: usize = 8;
const NTIMES: usize = 5;

/// Array sizes where per-invocation dispatch overhead dominates the kernel
/// work (the acceptance band is "≥1.2× at ≤64K elements").
const SMALL_SIZES: [usize; 3] = [4_096, 16_384, 65_536];
/// Repetitions per sequence and sequences per measurement for the small-array
/// dispatch comparison.
const SMALL_NTIMES: usize = 10;
const SMALL_REPS: usize = 5;

/// The pre-tentpole dispatch, reconstructed as the benchmark baseline: the
/// same zero-copy `ChunkedArrays` partitioning, but **scoped threads spawned
/// per invocation** instead of resident workers woken over the epoch barrier.
struct SpawnPerRunDispatch {
    workers: Vec<WorkerCtx>,
}

impl SpawnPerRunDispatch {
    fn new(pool: &PinnedPool) -> Self {
        SpawnPerRunDispatch {
            workers: pool.workers().to_vec(),
        }
    }

    fn run_kernel_once(
        &self,
        kernel: Kernel,
        a: &mut [f64],
        b: &mut [f64],
        c: &mut [f64],
        scalar: f64,
    ) -> f64 {
        let start = Instant::now();
        let arrays = ChunkedArrays::new(a, b, c, self.workers.len());
        std::thread::scope(|scope| {
            for ctx in self.workers.iter().copied() {
                let arrays = &arrays;
                scope.spawn(move || {
                    let chunk = arrays.chunk(ctx.thread);
                    kernel.apply(chunk.a, chunk.b, chunk.c, scalar);
                });
            }
        });
        start.elapsed().as_secs_f64()
    }

    /// Full `ntimes` × Copy→Scale→Add→Triad sequence; returns elapsed seconds.
    fn run_sequence(&self, config: StreamConfig, arrays: &mut SmallArrays) -> f64 {
        let mut total = 0.0;
        for _ in 0..config.ntimes {
            for kernel in Kernel::ALL {
                total +=
                    self.run_kernel_once(kernel, &mut arrays.a, &mut arrays.b, &mut arrays.c, 3.0);
            }
        }
        total
    }
}

struct SmallArrays {
    a: Vec<f64>,
    b: Vec<f64>,
    c: Vec<f64>,
}

impl SmallArrays {
    fn new(elements: usize) -> Self {
        SmallArrays {
            a: vec![2.0; elements],
            b: vec![2.0; elements],
            c: vec![0.0; elements],
        }
    }
}

/// The persistent-pool counterpart of [`SpawnPerRunDispatch::run_sequence`]:
/// identical kernels and partitioning, dispatched to the resident workers.
fn persistent_sequence(pool: &PinnedPool, config: StreamConfig, arrays: &mut SmallArrays) -> f64 {
    let mut total = 0.0;
    for _ in 0..config.ntimes {
        for kernel in Kernel::ALL {
            let start = Instant::now();
            stream_bench::exec::run_partitioned(
                pool,
                &mut arrays.a,
                &mut arrays.b,
                &mut arrays.c,
                |_ctx, chunk| kernel.apply(chunk.a, chunk.b, chunk.c, 3.0),
            );
            total += start.elapsed().as_secs_f64();
        }
    }
    total
}

/// The pre-rewrite execution core, kept verbatim as the benchmark baseline:
/// every worker copies its chunk of all three arrays out of a `RwLock`,
/// computes on the copies, and copies the written array back.
struct LegacyCopyPathStream {
    config: StreamConfig,
    a: RwLock<Vec<f64>>,
    b: RwLock<Vec<f64>>,
    c: RwLock<Vec<f64>>,
}

impl LegacyCopyPathStream {
    fn new(config: StreamConfig) -> Self {
        LegacyCopyPathStream {
            config,
            a: RwLock::new(vec![2.0; config.elements]),
            b: RwLock::new(vec![2.0; config.elements]),
            c: RwLock::new(vec![0.0; config.elements]),
        }
    }

    fn run_kernel_once(&self, kernel: Kernel, pool: &PinnedPool) -> f64 {
        let scalar = self.config.scalar;
        let elements = self.config.elements;
        let start = Instant::now();
        let (a, b, c) = (&self.a, &self.b, &self.c);
        pool.run(|ctx: WorkerCtx| {
            let (lo, hi) = ctx.chunk(elements);
            if lo == hi {
                return;
            }
            let mut a_chunk = a.read()[lo..hi].to_vec();
            let mut b_chunk = b.read()[lo..hi].to_vec();
            let mut c_chunk = c.read()[lo..hi].to_vec();
            kernel.apply(&mut a_chunk, &mut b_chunk, &mut c_chunk, scalar);
            match kernel {
                Kernel::Copy | Kernel::Add => c.write()[lo..hi].copy_from_slice(&c_chunk),
                Kernel::Scale => b.write()[lo..hi].copy_from_slice(&b_chunk),
                Kernel::Triad => a.write()[lo..hi].copy_from_slice(&a_chunk),
            }
        });
        start.elapsed().as_secs_f64()
    }

    /// Runs the full `ntimes` × Copy→Scale→Add→Triad sequence.
    fn run_sequence(&self, pool: &PinnedPool) {
        for _ in 0..self.config.ntimes {
            for kernel in Kernel::ALL {
                self.run_kernel_once(kernel, pool);
            }
        }
    }

    /// Best-of-N bandwidth (GB/s) for one kernel.
    fn best_bandwidth_gbs(&self, kernel: Kernel, pool: &PinnedPool) -> f64 {
        let bytes = self.config.bytes_per_invocation(kernel) as f64;
        (0..self.config.ntimes)
            .map(|_| bytes / 1e9 / self.run_kernel_once(kernel, pool))
            .fold(0.0, f64::max)
    }
}

fn worker_pool(threads: usize) -> PinnedPool {
    let topo = numa::topology::sapphire_rapids_cxl();
    let placement = AffinityPolicy::close()
        .place(&topo, threads)
        .expect("placement");
    PinnedPool::new(&topo, &placement)
}

fn placements(runtime: &CxlPmemRuntime, max: usize) -> Vec<ThreadPlacement> {
    (1..=max)
        .map(|t| {
            AffinityPolicy::SingleSocket(0)
                .place(runtime.topology(), t)
                .expect("placement")
        })
        .collect()
}

/// Walks the full figure grid (4 kernels × 10 thread counts × 3 nodes × 2
/// modes = 240 points) through either the naive per-call engine path or the
/// memoised one, on a caller-provided (possibly warm) runtime. Returns the
/// elapsed seconds.
fn walk_grid(stream: &SimulatedStream<'_>, placements: &[ThreadPlacement], cached: bool) -> f64 {
    let start = Instant::now();
    for kernel in Kernel::ALL {
        for node in 0..3usize {
            for mode in [AccessMode::AppDirect, AccessMode::MemoryMode] {
                for placement in placements {
                    if cached {
                        let report = stream
                            .simulate_report_cached(kernel, placement, node, mode)
                            .expect("simulation");
                        black_box(report.bandwidth_gbs);
                    } else {
                        let report = stream
                            .simulate_report(kernel, placement, node, mode)
                            .expect("simulation");
                        black_box(report.bandwidth_gbs);
                    }
                }
            }
        }
    }
    start.elapsed().as_secs_f64()
}

/// The measuring host as a JSON object: worker threads available, compiler
/// and source revision (`"unknown"` where a tool is missing).
fn host_fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let output = |program: &str, args: &[&str]| {
        std::process::Command::new(program)
            .args(args)
            .output()
            .ok()
            .filter(|out| out.status.success())
            .map(|out| {
                String::from_utf8_lossy(&out.stdout)
                    .trim()
                    .replace('"', "'")
            })
            .unwrap_or_else(|| "unknown".to_string())
    };
    format!(
        "{{\"nproc\": {nproc}, \"rustc\": \"{}\", \"git_rev\": \"{}\"}}",
        output("rustc", &["-V"]),
        output("git", &["rev-parse", "--short", "HEAD"])
    )
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:.6}")
    } else {
        "null".to_string()
    }
}

fn stream_hotpath(c: &mut Criterion) {
    let config = StreamConfig {
        elements: ELEMENTS,
        ntimes: NTIMES,
        scalar: 3.0,
    };
    let pool = worker_pool(THREADS);

    // --- headline numbers for BENCH_stream.json ----------------------------
    let mut zero_copy = VolatileStream::new(config);
    let zero_copy_report = zero_copy.run(&pool);
    let mut kernel_rows = Vec::new();
    for kernel in Kernel::ALL {
        let legacy = LegacyCopyPathStream::new(config).best_bandwidth_gbs(kernel, &pool);
        let fast = zero_copy_report
            .best_bandwidth_gbs(kernel)
            .expect("measured");
        let speedup = fast / legacy;
        println!(
            "{:<6} {THREADS}t {ELEMENTS}e  copy-path {legacy:7.2} GB/s  zero-copy {fast:7.2} GB/s  speedup {speedup:.2}x",
            kernel.name()
        );
        kernel_rows.push(format!(
            "    \"{}\": {{\"copy_path_gbs\": {}, \"zero_copy_gbs\": {}, \"speedup\": {}}}",
            kernel.name(),
            json_number(legacy),
            json_number(fast),
            json_number(speedup)
        ));
    }

    // --- App-Direct: STREAM-PMem on the expander vs the same STREAM in place
    let expander = RuntimeBuilder::setup1().build();
    let pmem_pool = expander
        .provision_pool(
            &TierPolicy::CxlExpander,
            "bench-stream",
            3 * ELEMENTS as u64 * 8 + (16 << 20),
        )
        .expect("pool on the expander");
    let mut app_direct = PmemStream::initiate(pmem_pool.pool(), config).expect("arrays");
    let app_direct_report = app_direct.run(&pool).expect("App-Direct run");
    assert!(app_direct.validate().expect("validate") < 1e-12);
    let mut app_direct_rows = Vec::new();
    for kernel in Kernel::ALL {
        let in_place = zero_copy_report
            .best_bandwidth_gbs(kernel)
            .expect("measured");
        let staged = app_direct_report
            .best_bandwidth_gbs(kernel)
            .expect("measured");
        let fraction = staged / in_place;
        println!(
            "{:<6} {THREADS}t {ELEMENTS}e  in place {in_place:7.2} GB/s  App-Direct {staged:7.2} GB/s  fraction {fraction:.2}",
            kernel.name()
        );
        app_direct_rows.push(format!(
            "    \"{}\": {{\"in_place_gbs\": {}, \"app_direct_gbs\": {}, \"fraction\": {}}}",
            kernel.name(),
            json_number(in_place),
            json_number(staged),
            json_number(fraction)
        ));
    }

    // --- spawn-per-run vs persistent pool at small sizes -------------------
    // Per-invocation dispatch overhead is amortised over fewer elements as
    // arrays shrink; this is where the persistent pool must earn its keep.
    let spawn_dispatch = SpawnPerRunDispatch::new(&pool);
    let mut small_rows = Vec::new();
    for elements in SMALL_SIZES {
        let small_config = StreamConfig {
            elements,
            ntimes: SMALL_NTIMES,
            scalar: 3.0,
        };
        let spawn_s = (0..SMALL_REPS)
            .map(|_| spawn_dispatch.run_sequence(small_config, &mut SmallArrays::new(elements)))
            .fold(f64::INFINITY, f64::min);
        let persistent_s = (0..SMALL_REPS)
            .map(|_| persistent_sequence(&pool, small_config, &mut SmallArrays::new(elements)))
            .fold(f64::INFINITY, f64::min);
        let speedup = spawn_s / persistent_s;
        println!(
            "dispatch {elements:>6}e {THREADS}t ({} invocations)  spawn-per-run {:9.1} µs  \
             persistent {:9.1} µs  speedup {speedup:.2}x",
            SMALL_NTIMES * Kernel::ALL.len(),
            spawn_s * 1e6,
            persistent_s * 1e6,
        );
        small_rows.push(format!(
            "    \"{elements}\": {{\"spawn_per_run_seconds\": {}, \"persistent_seconds\": {}, \
             \"speedup\": {}}}",
            json_number(spawn_s),
            json_number(persistent_s),
            json_number(speedup)
        ));
    }

    // Grid timings on one long-lived runtime — the shape the harness uses
    // (figures, tables and analysis all sweep the same engine repeatedly).
    let runtime = RuntimeBuilder::setup1().build();
    let stream = SimulatedStream::paper(&runtime);
    let grid_placements = placements(&runtime, 10);
    let naive_s = (0..NTIMES)
        .map(|_| walk_grid(&stream, &grid_placements, false))
        .fold(f64::INFINITY, f64::min);
    assert_eq!(
        runtime.engine().cache_stats(),
        (0, 0),
        "naive path must not touch the cache"
    );
    let cached_cold_s = walk_grid(&stream, &grid_placements, true);
    let (cold_hits, cold_misses) = runtime.engine().cache_stats();
    let cached_warm_s = (0..NTIMES)
        .map(|_| walk_grid(&stream, &grid_placements, true))
        .fold(f64::INFINITY, f64::min);
    println!(
        "sweep grid (240 points): naive {naive_s:.6}s, cached cold {cached_cold_s:.6}s \
         ({cold_hits} hits / {cold_misses} misses), cached warm {cached_warm_s:.6}s, \
         warm speedup {:.2}x",
        naive_s / cached_warm_s
    );

    let json = format!(
        "{{\n  \"host\": {},\n  \"elements\": {ELEMENTS},\n  \"threads\": {THREADS},\n  \
         \"ntimes\": {NTIMES},\n  \"kernels\": {{\n{}\n  }},\n  \"app_direct\": {{\n{}\n  }},\n  \
         \"small_array_pool\": {{\n{}\n  }},\n  \
         \"sweep_grid\": {{\n    \"points\": 240,\n    \
         \"naive_seconds\": {},\n    \"cached_cold_seconds\": {},\n    \
         \"cached_warm_seconds\": {},\n    \"warm_speedup\": {},\n    \
         \"cold_cache_hits\": {cold_hits},\n    \"cold_cache_misses\": {cold_misses}\n  }}\n}}\n",
        host_fingerprint(),
        kernel_rows.join(",\n"),
        app_direct_rows.join(",\n"),
        small_rows.join(",\n"),
        json_number(naive_s),
        json_number(cached_cold_s),
        json_number(cached_warm_s),
        json_number(naive_s / cached_warm_s),
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_stream.json");
    std::fs::write(out, json).expect("write BENCH_stream.json");
    println!("wrote {out}");

    // --- criterion timing output -------------------------------------------
    let mut group = c.benchmark_group("stream_hotpath");
    group.sample_size(10);
    group.bench_function("copy_path_sequence", |b| {
        let stream = LegacyCopyPathStream::new(config);
        b.iter(|| stream.run_sequence(&pool))
    });
    group.bench_function("zero_copy_sequence", |b| {
        let mut stream = VolatileStream::new(config);
        b.iter(|| black_box(stream.run(&pool)))
    });
    group.bench_function("app_direct_sequence", |b| {
        b.iter(|| black_box(app_direct.run(&pool).expect("App-Direct run")))
    });
    for kernel in [Kernel::Copy, Kernel::Triad] {
        group.bench_function(format!("copy_path_{}", kernel.name()), |b| {
            let stream = LegacyCopyPathStream::new(config);
            b.iter(|| black_box(stream.run_kernel_once(kernel, &pool)))
        });
    }
    for elements in [4_096usize, 65_536] {
        let small_config = StreamConfig {
            elements,
            ntimes: SMALL_NTIMES,
            scalar: 3.0,
        };
        group.bench_function(format!("spawn_per_run_{elements}e"), |b| {
            let mut arrays = SmallArrays::new(elements);
            b.iter(|| black_box(spawn_dispatch.run_sequence(small_config, &mut arrays)))
        });
        group.bench_function(format!("persistent_pool_{elements}e"), |b| {
            let mut arrays = SmallArrays::new(elements);
            b.iter(|| black_box(persistent_sequence(&pool, small_config, &mut arrays)))
        });
    }
    group.bench_function("sweep_grid_naive", |b| {
        b.iter(|| black_box(walk_grid(&stream, &grid_placements, false)))
    });
    group.bench_function("sweep_grid_cached_warm", |b| {
        b.iter(|| black_box(walk_grid(&stream, &grid_placements, true)))
    });
    group.finish();
}

criterion_group!(benches, stream_hotpath);
criterion_main!(benches);
