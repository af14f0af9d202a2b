//! `unitherm-bench`: the persistent cluster throughput benchmark.
//!
//! Runs a fixed scenario matrix (1/4/16/64 nodes × cpu-burn/NPB BT.A ×
//! dynamic-fan/hybrid), measures steady-state tick throughput and sweep
//! wall time, and writes `BENCH_cluster.json` at the repo root so every PR
//! has a perf trajectory to regress against.
//!
//! Usage:
//!
//! ```text
//! unitherm-bench [--quick] [--out PATH] [--min-time SECONDS] [--journal PATH]
//!                [--journal-format jsonl|bjl] [--threads N] [--nodes N]
//! unitherm-bench --check FILE [--baseline FILE] [--max-regression-pct N]
//! unitherm-bench --replay-faults JOURNAL
//! unitherm-bench --chaos-smoke SCENARIO.json
//! ```
//!
//! `--quick` shrinks the matrix and measurement window for CI smoke runs.
//! `--threads N` asks the matrix and fleet points for N intra-run threads
//! (default 1, the committed baseline configuration; each run shards only
//! as wide as `unitherm_cluster::effective_width` allows). Whatever the
//! setting, an `intra_run_scaling` section measures a burn fleet of
//! `4 × MIN_NODES_PER_SHARD` nodes — wide enough for a 4-shard pool — at
//! each of 1/2/4/8 threads that fits the machine's CPU count, interleaved,
//! recording each point's effective width, and a `determinism` section
//! records a digest of that fleet's full report at `--threads`, which must
//! not move with the thread count. The report also carries the machine
//! context (`nproc`, `cpu_model`). `--check` fails a report in which any
//! scaling point falls below 0.9× its own 1-thread point.
//! `--journal PATH` additionally runs the reference scenario with an
//! event journal attached and writes it to PATH — JSONL by default,
//! `--journal-format bjl` for the `unitherm-bjl/v1` binary encoding. Every
//! bench run also measures both encodings' bytes/event and write throughput
//! on the reference case's event stream (the `journal_formats` report
//! section). A `fleet_scale` section measures 1k/10k/100k-node cpu-burn
//! fleets through the structure-of-arrays physics batch (ticks/s,
//! node-ticks/s and live heap bytes/node); `--nodes N` replaces that sweep
//! with a single N-node point, and `--quick` keeps only the 1k point.
//! `--check` validates
//! a previously written report against the `unitherm-bench/v1` schema and,
//! with `--baseline`, fails (exit 1) when any shared case regressed by more
//! than `--max-regression-pct` percent (default 15). `--replay-faults`
//! reads a journal recorded by a previous `--journal` run (either encoding,
//! sniffed from the file), derives a
//! tick-addressed fault plan from its decision events
//! (`unitherm_cluster::derive_fault_plan`), replays the reference scenario
//! under those faults — widened to a 4-shard fleet — at 1, 2 and 4
//! threads, and fails (exit 1) unless all
//! three reports are bit-identical — the determinism gate extended to the
//! fault-injection path. `--chaos-smoke` runs a small-budget adversarial
//! chaos search (`unitherm_cluster::chaos`) over the given scenario file
//! and fails (exit 1) unless the search finds a counterexample, the corpus
//! is byte-identical when the search reruns on one evaluation thread, and
//! the cheapest counterexample replays to its recorded digest and, widened
//! to a 4-shard fleet, bit-identically at 1, 2 and 4 threads — the
//! determinism gate extended to the search layer. Both checks also fail
//! when a threaded replay runs narrower than it asked.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fs::File;
use std::io::BufWriter;
use std::sync::atomic::{AtomicIsize, Ordering};
use std::time::Instant;

use serde::Serialize;
use serde_json::Value;
use unitherm_cluster::chaos::{chaos_search, report_digest, ChaosConfig, OutcomePredicate};
use unitherm_cluster::replay::{
    derive_fault_plan, derive_fault_plan_from_cursor, ReplayOptions, ReplayPlan,
};
use unitherm_cluster::scenario::{Scenario, WorkloadSpec};
use unitherm_cluster::scheme::{FanScheme, SchemeSpec};
use unitherm_cluster::sim::Simulation;
use unitherm_cluster::sweep::run_scenarios_parallel;
use unitherm_cluster::{effective_width, MIN_NODES_PER_SHARD};
use unitherm_core::control_array::Policy;
use unitherm_obs::{
    read_journal, BinaryJournalReader, BinaryJournalWriter, EventRecord, EventSink, JournalCursor,
    JournalFormat, JournalWriter, NullSink, BJL_HEADER_LEN,
};
use unitherm_workload::{NpbBenchmark, NpbClass};

/// Live-heap tracking allocator: every fleet-scale point reports its
/// steady-state heap footprint per node, so the whole binary routes
/// allocation through a counter. One relaxed atomic per alloc/dealloc —
/// noise well below the measurement floor of the throughput numbers.
struct CountingAlloc;

/// Bytes currently allocated and not yet freed.
static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);

// SAFETY: delegates every operation to `System` unchanged; the counter is
// bookkeeping on the side.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            LIVE_BYTES.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            LIVE_BYTES.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        LIVE_BYTES.fetch_sub(layout.size() as isize, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE_BYTES.fetch_add(new_size as isize - layout.size() as isize, Ordering::Relaxed);
        }
        p
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Bytes currently live on the heap.
fn live_bytes() -> isize {
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// Pre-PR tick throughput of the 16-node cpu-burn / dynamic-fan case,
/// measured at commit 18f0b99 (before the allocation-free tick loop) on the
/// same reference machine that produced the committed `BENCH_cluster.json`.
/// Kept as the fixed comparison point for the acceptance criterion.
const BASELINE_16NODE_BURN_TICKS_PER_S: f64 = 688_709.0;

/// The scheme half of the matrix.
#[derive(Clone, Copy)]
enum Scheme {
    DynamicFan,
    Hybrid,
}

impl Scheme {
    fn label(self) -> &'static str {
        match self {
            Scheme::DynamicFan => "dynamic-fan",
            Scheme::Hybrid => "hybrid",
        }
    }
}

/// One cell of the benchmark matrix.
#[derive(Clone, Copy)]
struct Case {
    nodes: usize,
    burn: bool,
    scheme: Scheme,
}

impl Case {
    fn name(&self) -> String {
        format!(
            "{}x-{}-{}",
            self.nodes,
            if self.burn { "burn" } else { "bt-a" },
            self.scheme.label()
        )
    }

    fn scenario(&self) -> Scenario {
        let workload = if self.burn {
            WorkloadSpec::CpuBurn
        } else {
            WorkloadSpec::Npb { bench: NpbBenchmark::Bt, class: NpbClass::A }
        };
        let s = Scenario::new(self.name())
            .with_nodes(self.nodes)
            .with_workload(workload)
            .with_recording(false)
            .with_max_time(1e9);
        match self.scheme {
            Scheme::DynamicFan => s.with_fan(FanScheme::dynamic(Policy::MODERATE, 100)),
            Scheme::Hybrid => s.with_scheme(SchemeSpec::hybrid(Policy::MODERATE, 100)),
        }
    }
}

/// Measured throughput for one matrix cell.
#[derive(Serialize)]
struct CaseResult {
    name: String,
    nodes: usize,
    workload: String,
    scheme: String,
    ticks_per_s: f64,
    node_ticks_per_s: f64,
    measured_ticks: u64,
}

#[derive(Serialize)]
struct SweepResult {
    scenarios: usize,
    threads: usize,
    wall_time_s: f64,
}

#[derive(Serialize)]
struct Comparison {
    scenario: String,
    baseline_commit: String,
    baseline_ticks_per_s: f64,
    current_ticks_per_s: f64,
    improvement_pct: f64,
}

/// Event-layer overhead on the reference case: the same scenario measured
/// with event retention disabled (`event_capacity 0`; counters still run)
/// and with the default 256-slot ring sink attached. Both numbers are
/// medians over interleaved repetitions; `noise_floor_pct` is the larger
/// arm's relative spread across those repetitions, so a reported overhead
/// smaller than the floor means the arms are statistically
/// indistinguishable (and its sign carries no information).
#[derive(Serialize)]
struct Observability {
    scenario: String,
    rounds: usize,
    ticks_per_s_sink_off: f64,
    ticks_per_s_ring: f64,
    overhead_pct: f64,
    noise_floor_pct: f64,
}

/// Throughput of one intra-run thread count on the scaling case.
#[derive(Serialize)]
struct ScalingPoint {
    threads: usize,
    /// The pool width the run used: `effective_width(threads, nodes)`.
    effective_width: usize,
    ticks_per_s: f64,
    speedup_vs_1: f64,
}

/// Intra-run strong scaling: a burn fleet wide enough for a 4-shard pool,
/// one simulation sharded across the persistent worker pool.
#[derive(Serialize)]
struct IntraRunScaling {
    scenario: String,
    points: Vec<ScalingPoint>,
}

/// One fleet-scale point: an N-node cpu-burn fleet (dynamic-fan, recording
/// off) measured for steady-state throughput and heap footprint.
#[derive(Serialize)]
struct FleetScalePoint {
    /// `fleet-<N>x-burn`, so `--check --baseline` gates these points with
    /// the same per-case regression rule as the matrix.
    name: String,
    nodes: usize,
    ticks_per_s: f64,
    node_ticks_per_s: f64,
    measured_ticks: u64,
    /// Live heap attributable to the simulation (construction through
    /// steady state), divided by the node count.
    bytes_per_node: f64,
}

/// The `fleet_scale` report section: how throughput and per-node memory
/// hold up from cluster to datacenter size on the lane-batched tick loop.
#[derive(Serialize)]
struct FleetScale {
    workload: String,
    scheme: String,
    points: Vec<FleetScalePoint>,
}

/// A digest of the reference scenario's complete `RunReport` at the
/// configured thread count. Bit-identical sharding means this string must
/// not depend on `--threads`; CI compares the digests of a 1-thread and a
/// 4-thread bench run.
#[derive(Serialize)]
struct Determinism {
    scenario: String,
    threads: usize,
    /// The pool width the digested run used; CI asserts it is 4 on the
    /// 4-thread run, so the 1-vs-4 comparison really crosses the pool.
    effective_width: usize,
    digest: String,
}

/// Serialization cost of one journal encoding over the reference case's
/// recorded event stream: size on the wire and write throughput.
#[derive(Serialize)]
struct JournalFormatResult {
    format: String,
    events: u64,
    total_bytes: u64,
    /// Marginal per-event cost (the fixed file header, 16 bytes for bjl, is
    /// excluded — it amortizes to nothing over a real trace).
    bytes_per_event: f64,
    events_per_s: f64,
}

/// The `journal_formats` report section: both encodings measured over the
/// identical event stream, interleaved medians like the observability
/// probe. `bjl_speedup` is binary write throughput over JSONL's — the
/// acceptance number for the compact-journal work.
#[derive(Serialize)]
struct JournalFormats {
    scenario: String,
    rounds: usize,
    jsonl: JournalFormatResult,
    bjl: JournalFormatResult,
    bjl_speedup: f64,
}

#[derive(Serialize)]
struct BenchReport {
    schema: String,
    mode: String,
    commit: String,
    /// Logical CPUs available to the run.
    nproc: usize,
    /// The CPU model name, or `unknown`.
    cpu_model: String,
    threads: usize,
    results: Vec<CaseResult>,
    sweep: SweepResult,
    comparison: Comparison,
    observability: Observability,
    journal_formats: JournalFormats,
    intra_run_scaling: IntraRunScaling,
    fleet_scale: FleetScale,
    determinism: Determinism,
}

/// Measures steady-state tick throughput for one case.
///
/// Warms the simulation past its start-up transient, then times batches of
/// ticks until `min_wall_s` of wall time has accumulated and reports the
/// *fastest* batch. The peak batch reflects the code rather than scheduler
/// interference, which makes the number reproducible on shared machines.
/// Finite workloads (NPB) are rebuilt before they finish so the measurement
/// never leaves the running regime; rebuild time is excluded from the timed
/// window.
fn measure_case(case: Case, min_wall_s: f64, threads: usize) -> CaseResult {
    let (ticks_per_s, ticks) =
        measure_scenario(|| case.scenario().with_threads(threads), min_wall_s);
    CaseResult {
        name: case.name(),
        nodes: case.nodes,
        workload: if case.burn { "cpu-burn" } else { "bt-a" }.to_string(),
        scheme: case.scheme.label().to_string(),
        ticks_per_s,
        node_ticks_per_s: ticks_per_s * case.nodes as f64,
        measured_ticks: ticks,
    }
}

/// Core measurement loop shared by the matrix and the observability
/// overhead probe: peak-batch ticks/s plus total ticks timed.
fn measure_scenario(build_scenario: impl Fn() -> Scenario, min_wall_s: f64) -> (f64, u64) {
    const WARMUP_TICKS: u32 = 200;
    const BATCH_TICKS: u32 = 1000;
    // BT.A finishes near its ~100 s nominal duration; stay well short.
    const REBUILD_AT_SIM_S: f64 = 60.0;

    let build = || {
        let mut sim = Simulation::new(build_scenario());
        for _ in 0..WARMUP_TICKS {
            sim.tick();
        }
        sim
    };

    let mut sim = build();
    let mut ticks: u64 = 0;
    let mut elapsed = 0.0;
    let mut best_batch_s = f64::INFINITY;
    while elapsed < min_wall_s {
        if sim.time_s() > REBUILD_AT_SIM_S {
            sim = build();
        }
        let t0 = Instant::now();
        for _ in 0..BATCH_TICKS {
            sim.tick();
        }
        let batch_s = t0.elapsed().as_secs_f64();
        elapsed += batch_s;
        ticks += u64::from(BATCH_TICKS);
        best_batch_s = best_batch_s.min(batch_s);
    }

    (f64::from(BATCH_TICKS) / best_batch_s, ticks)
}

/// Measures the fleet-scale points: N-node cpu-burn fleets under the
/// dynamic-fan scheme with recording off — the lane-batched tick loop at
/// increasing fleet size. The heap is sampled around construction plus
/// warmup, so `bytes_per_node` reports the simulation's steady-state
/// footprint (burn fleets allocate nothing per tick; the alloc-free tick
/// tests pin that).
fn measure_fleet_scale(node_counts: &[usize], min_wall_s: f64, threads: usize) -> FleetScale {
    const WARMUP_TICKS: u32 = 200;
    let mut points = Vec::with_capacity(node_counts.len());
    for &nodes in node_counts {
        let name = format!("fleet-{nodes}x-burn");
        let scenario = Scenario::new(name.clone())
            .with_nodes(nodes)
            .with_workload(WorkloadSpec::CpuBurn)
            .with_recording(false)
            .with_max_time(1e9)
            .with_fan(FanScheme::dynamic(Policy::MODERATE, 100))
            .with_threads(threads);
        let heap_before = live_bytes();
        let mut sim = Simulation::new(scenario);
        for _ in 0..WARMUP_TICKS {
            sim.tick();
        }
        let bytes_per_node = (live_bytes() - heap_before).max(0) as f64 / nodes as f64;

        // Fixed node-tick batches keep the timing granularity comparable
        // across four orders of magnitude of fleet size: ~1M node-ticks
        // per batch, floored so even the largest fleet times a real loop.
        let batch = u32::try_from((1_000_000 / nodes).max(50)).expect("batch fits u32");
        let mut ticks: u64 = 0;
        let mut elapsed = 0.0;
        let mut best_batch_s = f64::INFINITY;
        while elapsed < min_wall_s {
            let t0 = Instant::now();
            for _ in 0..batch {
                sim.tick();
            }
            let batch_s = t0.elapsed().as_secs_f64();
            elapsed += batch_s;
            ticks += u64::from(batch);
            best_batch_s = best_batch_s.min(batch_s);
        }
        let ticks_per_s = f64::from(batch) / best_batch_s;
        eprintln!(
            "{name:<26} {ticks_per_s:>12.0} ticks/s  ({:>12.0} node-ticks/s)  {:.0} B/node",
            ticks_per_s * nodes as f64,
            bytes_per_node
        );
        points.push(FleetScalePoint {
            name,
            nodes,
            ticks_per_s,
            node_ticks_per_s: ticks_per_s * nodes as f64,
            measured_ticks: ticks,
            bytes_per_node,
        });
    }
    FleetScale { workload: "cpu-burn".to_string(), scheme: "dynamic-fan".to_string(), points }
}

/// Median of a sample set (mean of the middle pair for even counts).
fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("throughputs are finite"));
    let n = samples.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    }
}

/// Relative spread of a sorted sample set around its median, percent.
fn spread_pct(sorted: &[f64], median: f64) -> f64 {
    match (sorted.first(), sorted.last()) {
        (Some(min), Some(max)) if median > 0.0 => (max - min) / median * 100.0,
        _ => f64::NAN,
    }
}

/// Measures event-layer overhead: the reference case with event retention
/// disabled versus the default ring sink.
///
/// Earlier versions timed each arm once, back to back, and routinely
/// reported a *negative* overhead — whichever arm ran second inherited a
/// warmer cache and a calmer scheduler. Now the arms are interleaved
/// (off/ring, ring/off, …) across `ROUNDS` repetitions so drift hits both
/// equally, the medians are compared instead of the peaks, and the
/// per-arm spread is reported as a noise floor next to the delta.
fn measure_observability(case: Case, min_wall_s: f64) -> Observability {
    const ROUNDS: usize = 5;
    let mut off_samples = Vec::with_capacity(ROUNDS);
    let mut ring_samples = Vec::with_capacity(ROUNDS);
    let slice_s = min_wall_s / ROUNDS as f64;
    for round in 0..ROUNDS {
        // Alternate which arm goes first so any monotonic drift (thermal
        // ramp, cache warm-up) cancels instead of biasing one arm.
        let off_first = round % 2 == 0;
        if off_first {
            off_samples
                .push(measure_scenario(|| case.scenario().with_event_capacity(0), slice_s).0);
            ring_samples.push(measure_scenario(|| case.scenario(), slice_s).0);
        } else {
            ring_samples.push(measure_scenario(|| case.scenario(), slice_s).0);
            off_samples
                .push(measure_scenario(|| case.scenario().with_event_capacity(0), slice_s).0);
        }
    }
    let off_median = median(&mut off_samples);
    let ring_median = median(&mut ring_samples);
    let noise_floor_pct =
        spread_pct(&off_samples, off_median).max(spread_pct(&ring_samples, ring_median));
    Observability {
        scenario: case.name(),
        rounds: ROUNDS,
        ticks_per_s_sink_off: off_median,
        ticks_per_s_ring: ring_median,
        overhead_pct: (1.0 - ring_median / off_median) * 100.0,
        noise_floor_pct,
    }
}

/// Measures intra-run strong scaling on `case`: one simulation per thread
/// count of 1/2/4/8 that fits the machine's `nproc` CPUs (a wider ask only
/// oversubscribes the machine, so it is not recorded). The simulations run
/// interleaved, one batch each per round, so drift in the machine's speed
/// hits every point alike; each point keeps its best batch.
fn measure_intra_run_scaling(case: Case, min_wall_s: f64, nproc: usize) -> IntraRunScaling {
    const WARMUP_TICKS: u32 = 200;
    const BATCH_TICKS: u32 = 1000;
    const MIN_ROUNDS: usize = 5;
    const REBUILD_AT_SIM_S: f64 = 60.0;

    let thread_counts: Vec<usize> =
        [1usize, 2, 4, 8].into_iter().filter(|&t| t == 1 || t <= nproc).collect();
    let build = |threads: usize| {
        let mut sim = Simulation::new(case.scenario().with_threads(threads));
        for _ in 0..WARMUP_TICKS {
            sim.tick();
        }
        sim
    };
    let mut sims: Vec<Simulation> = thread_counts.iter().map(|&t| build(t)).collect();
    let mut best_batch_s = vec![f64::INFINITY; sims.len()];
    let mut elapsed = 0.0;
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || elapsed < min_wall_s * sims.len() as f64 {
        for (i, sim) in sims.iter_mut().enumerate() {
            if sim.time_s() > REBUILD_AT_SIM_S {
                *sim = build(thread_counts[i]);
            }
            let t0 = Instant::now();
            for _ in 0..BATCH_TICKS {
                sim.tick();
            }
            let batch_s = t0.elapsed().as_secs_f64();
            elapsed += batch_s;
            best_batch_s[i] = best_batch_s[i].min(batch_s);
        }
        rounds += 1;
    }

    let base = f64::from(BATCH_TICKS) / best_batch_s[0];
    let points = thread_counts
        .iter()
        .zip(&best_batch_s)
        .map(|(&threads, &batch_s)| {
            let ticks_per_s = f64::from(BATCH_TICKS) / batch_s;
            let effective_width = effective_width(threads, case.nodes);
            eprintln!(
                "scaling: {} @ {threads} thread(s), width {effective_width}: \
                 {ticks_per_s:.0} ticks/s ({:.2}x, best of {rounds} interleaved batches)",
                case.name(),
                ticks_per_s / base
            );
            ScalingPoint { threads, effective_width, ticks_per_s, speedup_vs_1: ticks_per_s / base }
        })
        .collect();
    IntraRunScaling { scenario: case.name(), points }
}

/// The scaling gate: asking for more threads must never cost more than
/// [`SCALING_TOLERANCE`] of the 1-thread throughput measured in the same
/// run. Every recorded point is gated. Returns one message per point that
/// falls short.
fn scaling_shortfalls(v: &Value) -> Vec<String> {
    let Some(Value::Seq(points)) = v.get("intra_run_scaling").and_then(|s| s.get("points")) else {
        return Vec::new();
    };
    let field = |p: &Value, f: &str| p.get(f).and_then(Value::as_f64).unwrap_or(f64::NAN);
    let Some(base) = points.iter().find(|p| field(p, "threads") == 1.0) else {
        return vec!["intra_run_scaling has no 1-thread point".to_string()];
    };
    let base = field(base, "ticks_per_s");
    points
        .iter()
        .filter(|p| {
            let ticks = field(p, "ticks_per_s");
            ticks.is_nan() || ticks < SCALING_TOLERANCE * base
        })
        .map(|p| {
            format!(
                "{} thread(s): {:.0} ticks/s is below {SCALING_TOLERANCE}x the 1-thread \
                 {base:.0} ticks/s",
                field(p, "threads"),
                field(p, "ticks_per_s")
            )
        })
        .collect()
}

/// Lowest share of the 1-thread throughput any scaling point may reach:
/// the effective-width rule exists so `threads` never slows a run; the
/// 10 % slack absorbs run-to-run timing noise of a best-batch measurement.
const SCALING_TOLERANCE: f64 = 0.9;

/// FNV-1a over the serialized report — cheap, dependency-free, and stable
/// across runs of a deterministic simulation.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Runs the reference scenario for a short fixed horizon at `threads` and
/// digests the complete `RunReport` (traces, counters, events). The digest
/// must be identical at every thread count — the sharded tick loop's
/// bit-identity contract, checked here on the exact binary CI ships.
fn measure_determinism(case: Case, threads: usize) -> Determinism {
    let scenario = case.scenario().with_recording(true).with_max_time(30.0).with_threads(threads);
    let sim = Simulation::new(scenario);
    let effective_width = sim.width();
    let report = sim.run();
    let json = serde_json::to_string(&report).expect("report serializes");
    Determinism {
        scenario: case.name(),
        threads,
        effective_width,
        digest: format!("fnv1a64:{:016x}", fnv1a64(json.as_bytes())),
    }
}

/// Runs the reference scenario for a bounded stretch with a journal
/// attached and writes every event to `path` in the requested encoding.
fn write_journal(case: Case, path: &str, format: JournalFormat) {
    const JOURNAL_TICKS: u32 = 4000;
    let file = File::create(path).unwrap_or_else(|e| panic!("create {path}: {e}"));
    let scenario = case.scenario();
    let dt_s = scenario.dt_s;
    let mut sim = Simulation::new(scenario);
    match format {
        JournalFormat::Jsonl => {
            sim.attach_journal(Box::new(JournalWriter::new(BufWriter::new(file))))
        }
        JournalFormat::Bjl => {
            sim.attach_journal(Box::new(BinaryJournalWriter::new(BufWriter::new(file), dt_s)))
        }
    }
    for _ in 0..JOURNAL_TICKS {
        sim.tick();
    }
    // The journal flushes when the simulation (and its boxed sink) drops.
    drop(sim.into_report());
    let bytes = std::fs::read(path).expect("reopen journal");
    let events = match format {
        JournalFormat::Jsonl => read_journal(bytes.as_slice()).expect("journal must round-trip"),
        JournalFormat::Bjl => {
            unitherm_obs::bjl_to_records(&bytes).expect("journal must round-trip")
        }
    };
    eprintln!("journal: {} events over {JOURNAL_TICKS} ticks -> {path} ({format})", events.len());
}

/// A sink that shares its backing store with the caller, so the event
/// stream a simulation emits can be captured and then re-encoded through
/// each journal writer under a timer.
struct CaptureSink(std::rc::Rc<std::cell::RefCell<Vec<EventRecord>>>);

impl EventSink for CaptureSink {
    fn record(&mut self, rec: &EventRecord) {
        self.0.borrow_mut().push(*rec);
    }
}

/// Measures both journal encodings over the identical event stream: record
/// the reference case's events once, then repeatedly serialize the stream
/// through each writer into a pre-grown memory buffer. Arms are
/// interleaved and medians compared, like the observability probe, so
/// scheduler drift hits both encodings equally.
fn measure_journal_formats(case: Case) -> JournalFormats {
    const CAPTURE_TICKS: u32 = 4000;
    const ROUNDS: usize = 5;

    let records = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
    let scenario = case.scenario();
    let dt_s = scenario.dt_s;
    let mut sim = Simulation::new(scenario);
    sim.attach_journal(Box::new(CaptureSink(records.clone())));
    for _ in 0..CAPTURE_TICKS {
        sim.tick();
    }
    drop(sim.into_report());
    let records = records.borrow();
    let events = records.len() as u64;
    assert!(events > 0, "reference case must emit events to measure");

    let time_jsonl = |buf: &mut Vec<u8>| {
        buf.clear();
        let mut writer = JournalWriter::new(std::mem::take(buf));
        let t0 = Instant::now();
        for rec in records.iter() {
            writer.record(rec);
        }
        let elapsed = t0.elapsed().as_secs_f64();
        *buf = writer.finish().expect("in-memory journal write");
        elapsed
    };
    let time_bjl = |buf: &mut Vec<u8>| {
        buf.clear();
        let mut writer = BinaryJournalWriter::new(std::mem::take(buf), dt_s);
        let t0 = Instant::now();
        for rec in records.iter() {
            writer.record(rec);
        }
        let elapsed = t0.elapsed().as_secs_f64();
        *buf = writer.finish().expect("in-memory journal write");
        elapsed
    };

    let (mut jsonl_buf, mut bjl_buf) = (Vec::new(), Vec::new());
    let (mut jsonl_s, mut bjl_s) = (Vec::with_capacity(ROUNDS), Vec::with_capacity(ROUNDS));
    for round in 0..ROUNDS {
        if round % 2 == 0 {
            jsonl_s.push(time_jsonl(&mut jsonl_buf));
            bjl_s.push(time_bjl(&mut bjl_buf));
        } else {
            bjl_s.push(time_bjl(&mut bjl_buf));
            jsonl_s.push(time_jsonl(&mut jsonl_buf));
        }
    }
    let jsonl_median_s = median(&mut jsonl_s);
    let bjl_median_s = median(&mut bjl_s);

    let jsonl = JournalFormatResult {
        format: "jsonl".to_string(),
        events,
        total_bytes: jsonl_buf.len() as u64,
        bytes_per_event: jsonl_buf.len() as f64 / events as f64,
        events_per_s: events as f64 / jsonl_median_s,
    };
    let bjl = JournalFormatResult {
        format: "bjl".to_string(),
        events,
        total_bytes: bjl_buf.len() as u64,
        bytes_per_event: (bjl_buf.len() - BJL_HEADER_LEN) as f64 / events as f64,
        events_per_s: events as f64 / bjl_median_s,
    };
    let bjl_speedup = jsonl_median_s / bjl_median_s;
    JournalFormats { scenario: case.name(), rounds: ROUNDS, jsonl, bjl, bjl_speedup }
}

/// Times a parallel sweep over short versions of every matrix scenario.
fn measure_sweep(cases: &[Case], sim_seconds: f64) -> SweepResult {
    let scenarios: Vec<Scenario> =
        cases.iter().map(|c| c.scenario().with_max_time(sim_seconds)).collect();
    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
    let n = scenarios.len();
    let t0 = Instant::now();
    let reports = run_scenarios_parallel(scenarios, threads);
    let wall = t0.elapsed().as_secs_f64();
    assert_eq!(reports.len(), n, "sweep must produce every report");
    SweepResult { scenarios: n, threads, wall_time_s: wall }
}

/// Loads and parses a bench report file into a JSON value.
fn load_report(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::parse_value(&text).map_err(|e| format!("{path}: invalid JSON: {e}"))
}

/// Structural validation of the `unitherm-bench/v1` report schema.
fn validate_report(v: &Value, path: &str) -> Result<(), String> {
    let err = |msg: &str| Err(format!("{path}: {msg}"));
    match v.get("schema") {
        Some(Value::Str(s)) if s == "unitherm-bench/v1" => {}
        Some(Value::Str(s)) => return err(&format!("unsupported schema {s:?}")),
        _ => return err("missing string field `schema`"),
    }
    match v.get("mode") {
        Some(Value::Str(s)) if s == "quick" || s == "full" => {}
        _ => return err("`mode` must be \"quick\" or \"full\""),
    }
    if !matches!(v.get("commit"), Some(Value::Str(_))) {
        return err("missing string field `commit`");
    }
    // The machine context arrived after v1 reports were first committed;
    // when present it must name the machine.
    if v.get("nproc").is_some_and(|n| n.as_u64().is_none_or(|n| n == 0)) {
        return err("`nproc` must be an integer >= 1");
    }
    if v.get("cpu_model").is_some_and(|m| !matches!(m, Value::Str(s) if !s.is_empty())) {
        return err("`cpu_model` must be a non-empty string");
    }
    let results = match v.get("results") {
        Some(Value::Seq(items)) if !items.is_empty() => items,
        Some(Value::Seq(_)) => return err("`results` is empty"),
        _ => return err("missing array field `results`"),
    };
    for (i, case) in results.iter().enumerate() {
        let name = match case.get("name") {
            Some(Value::Str(s)) => s.as_str(),
            _ => return err(&format!("results[{i}]: missing string field `name`")),
        };
        match case.get("nodes").and_then(Value::as_u64) {
            Some(n) if n >= 1 => {}
            _ => return err(&format!("results[{i}] ({name}): `nodes` must be >= 1")),
        }
        for field in ["ticks_per_s", "node_ticks_per_s"] {
            match case.get(field).and_then(Value::as_f64) {
                Some(t) if t.is_finite() && t > 0.0 => {}
                _ => {
                    return err(&format!(
                        "results[{i}] ({name}): `{field}` must be finite and positive"
                    ))
                }
            }
        }
        if case.get("measured_ticks").and_then(Value::as_u64).is_none() {
            return err(&format!("results[{i}] ({name}): missing integer `measured_ticks`"));
        }
    }
    for (section, fields) in [
        ("sweep", &["scenarios", "threads", "wall_time_s"][..]),
        ("comparison", &["scenario", "baseline_ticks_per_s", "current_ticks_per_s"][..]),
    ] {
        let map = match v.get(section) {
            Some(m @ Value::Map(_)) => m,
            _ => return err(&format!("missing object field `{section}`")),
        };
        for field in fields {
            if map.get(field).is_none() {
                return err(&format!("`{section}` missing field `{field}`"));
            }
        }
    }
    // `observability` arrived after v1 reports were first committed; when
    // present the overhead arms must both be real measurements.
    if let Some(obs) = v.get("observability") {
        for field in ["ticks_per_s_sink_off", "ticks_per_s_ring", "overhead_pct"] {
            match obs.get(field).and_then(Value::as_f64) {
                Some(t) if t.is_finite() => {}
                _ => return err(&format!("`observability.{field}` must be a finite number")),
            }
        }
        // The noise floor arrived with the interleaved-median measurement;
        // when present it bounds how much meaning the delta can carry.
        if let Some(floor) = obs.get("noise_floor_pct") {
            match floor.as_f64() {
                Some(t) if t.is_finite() && t >= 0.0 => {}
                _ => return err("`observability.noise_floor_pct` must be finite and >= 0"),
            }
        }
    }
    // `journal_formats` arrived with the unitherm-bjl/v1 binary journal;
    // when present both encodings must carry real measurements.
    if let Some(formats) = v.get("journal_formats") {
        for encoding in ["jsonl", "bjl"] {
            let Some(section) = formats.get(encoding) else {
                return err(&format!("`journal_formats` missing object field `{encoding}`"));
            };
            for field in ["bytes_per_event", "events_per_s"] {
                match section.get(field).and_then(Value::as_f64) {
                    Some(t) if t.is_finite() && t > 0.0 => {}
                    _ => {
                        return err(&format!(
                            "`journal_formats.{encoding}.{field}` must be finite and positive"
                        ))
                    }
                }
            }
        }
        match formats.get("bjl_speedup").and_then(Value::as_f64) {
            Some(t) if t.is_finite() && t > 0.0 => {}
            _ => return err("`journal_formats.bjl_speedup` must be finite and positive"),
        }
    }
    // `intra_run_scaling` / `determinism` arrived with the node-parallel
    // tick loop; validate their shape when present.
    if let Some(scaling) = v.get("intra_run_scaling") {
        let points = match scaling.get("points") {
            Some(Value::Seq(points)) if !points.is_empty() => points,
            _ => return err("`intra_run_scaling.points` must be a non-empty array"),
        };
        for (i, point) in points.iter().enumerate() {
            let threads = match point.get("threads").and_then(Value::as_u64) {
                Some(t) if t >= 1 => t,
                _ => return err(&format!("intra_run_scaling.points[{i}]: `threads` >= 1")),
            };
            // `effective_width` arrived with the effective-width rule.
            if let Some(width) = point.get("effective_width") {
                match width.as_u64() {
                    Some(w) if (1..=threads).contains(&w) => {}
                    _ => {
                        return err(&format!(
                            "intra_run_scaling.points[{i}]: `effective_width` must be in \
                             1..=threads"
                        ))
                    }
                }
            }
            for field in ["ticks_per_s", "speedup_vs_1"] {
                match point.get(field).and_then(Value::as_f64) {
                    Some(t) if t.is_finite() && t > 0.0 => {}
                    _ => {
                        return err(&format!(
                            "intra_run_scaling.points[{i}]: `{field}` must be finite and positive"
                        ))
                    }
                }
            }
        }
    }
    // `fleet_scale` arrived with the SoA physics batch; when present each
    // point must carry real throughput and memory measurements.
    if let Some(fleet) = v.get("fleet_scale") {
        let points = match fleet.get("points") {
            Some(Value::Seq(points)) if !points.is_empty() => points,
            _ => return err("`fleet_scale.points` must be a non-empty array"),
        };
        for (i, point) in points.iter().enumerate() {
            if !matches!(point.get("name"), Some(Value::Str(s)) if !s.is_empty()) {
                return err(&format!("fleet_scale.points[{i}]: missing string field `name`"));
            }
            match point.get("nodes").and_then(Value::as_u64) {
                Some(n) if n >= 1 => {}
                _ => return err(&format!("fleet_scale.points[{i}]: `nodes` must be >= 1")),
            }
            for field in ["ticks_per_s", "node_ticks_per_s"] {
                match point.get(field).and_then(Value::as_f64) {
                    Some(t) if t.is_finite() && t > 0.0 => {}
                    _ => {
                        return err(&format!(
                            "fleet_scale.points[{i}]: `{field}` must be finite and positive"
                        ))
                    }
                }
            }
            match point.get("bytes_per_node").and_then(Value::as_f64) {
                Some(b) if b.is_finite() && b >= 0.0 => {}
                _ => {
                    return err(&format!(
                        "fleet_scale.points[{i}]: `bytes_per_node` must be finite and >= 0"
                    ))
                }
            }
        }
    }
    if let Some(det) = v.get("determinism") {
        match det.get("digest") {
            Some(Value::Str(s)) if !s.is_empty() => {}
            _ => return err("`determinism.digest` must be a non-empty string"),
        }
        if det.get("threads").and_then(Value::as_u64).is_none() {
            return err("`determinism.threads` must be an integer");
        }
        if det.get("effective_width").is_some_and(|w| w.as_u64().is_none_or(|w| w == 0)) {
            return err("`determinism.effective_width` must be an integer >= 1");
        }
    }
    Ok(())
}

/// Extracts `(name, ticks_per_s)` pairs from a validated report.
///
/// Covers the matrix `results` plus any `fleet_scale` points, so the
/// `--check --baseline` regression gate applies the same per-case rule to
/// the fleet-scale burn measurements.
fn case_throughputs(v: &Value) -> Vec<(String, f64)> {
    let mut out: Vec<(String, f64)> = Vec::new();
    let mut collect = |items: &[Value]| {
        out.extend(items.iter().filter_map(|case| {
            let Some(Value::Str(name)) = case.get("name") else { return None };
            let ticks = case.get("ticks_per_s").and_then(Value::as_f64)?;
            Some((name.clone(), ticks))
        }));
    };
    if let Some(Value::Seq(items)) = v.get("results") {
        collect(items);
    }
    if let Some(Value::Seq(points)) = v.get("fleet_scale").and_then(|f| f.get("points")) {
        collect(points);
    }
    out
}

/// `--check` entry point: schema-validate `check_path` and, when a baseline
/// is given, gate on per-case throughput regressions. Returns the process
/// exit code.
fn run_check(check_path: &str, baseline_path: Option<&str>, max_regression_pct: f64) -> i32 {
    let report = match load_report(check_path).and_then(|v| {
        validate_report(&v, check_path)?;
        Ok(v)
    }) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("check failed: {e}");
            return 1;
        }
    };
    eprintln!("{check_path}: schema unitherm-bench/v1 OK");
    let shortfalls = scaling_shortfalls(&report);
    if !shortfalls.is_empty() {
        for s in &shortfalls {
            eprintln!("check failed: {check_path}: intra_run_scaling: {s}");
        }
        return 1;
    }

    let Some(baseline_path) = baseline_path else { return 0 };
    let baseline = match load_report(baseline_path).and_then(|v| {
        validate_report(&v, baseline_path)?;
        Ok(v)
    }) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("check failed: {e}");
            return 1;
        }
    };

    let current = case_throughputs(&report);
    let mut compared = 0;
    let mut failed = false;
    for (name, base_ticks) in case_throughputs(&baseline) {
        let Some((_, cur_ticks)) = current.iter().find(|(n, _)| *n == name) else {
            // Quick-mode reports cover a subset of the full matrix.
            continue;
        };
        compared += 1;
        let regression_pct = (1.0 - cur_ticks / base_ticks) * 100.0;
        let verdict = if regression_pct > max_regression_pct { "FAIL" } else { "ok" };
        eprintln!(
            "{name:<26} baseline {base_ticks:>12.0}  current {cur_ticks:>12.0}  \
             ({:+.1} %)  {verdict}",
            -regression_pct
        );
        failed |= regression_pct > max_regression_pct;
    }
    if compared == 0 {
        eprintln!("check failed: no shared cases between {check_path} and {baseline_path}");
        return 1;
    }
    if failed {
        eprintln!(
            "check failed: at least one case regressed more than {max_regression_pct:.0} % \
             vs {baseline_path}"
        );
        return 1;
    }
    eprintln!("{compared} case(s) within {max_regression_pct:.0} % of {baseline_path}");
    0
}

/// `--replay-faults` entry point: derive a tick-addressed fault plan from a
/// recorded journal, replay the reference scenario under it at 1, 2 and 4
/// threads, and fail (exit 1) unless every report digest matches — the
/// bit-identity gate extended to the fault-injection path. Returns the
/// process exit code.
fn run_replay_check(journal_path: &str) -> i32 {
    let bytes = match std::fs::read(journal_path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("replay check failed: {journal_path}: {e}");
            return 1;
        }
    };
    // The same 4-node burn case `--quick --journal` records from, bounded
    // to a fixed horizon with full recording so the digest covers traces,
    // counters and events.
    let case = Case { nodes: 4, burn: true, scheme: Scheme::DynamicFan };
    let base = case.scenario().with_recording(true).with_max_time(60.0);
    // Either journal encoding is accepted, sniffed from the file; the
    // binary path derives through a seek-by-tick cursor instead of a scan.
    let opts = ReplayOptions::default();
    let derivation: Result<(ReplayPlan, usize, JournalFormat), String> =
        match JournalFormat::sniff(&bytes) {
            JournalFormat::Bjl => {
                BinaryJournalReader::new(&bytes).map_err(|e| e.to_string()).and_then(|reader| {
                    derive_fault_plan_from_cursor(JournalCursor::from_binary(&reader), &base, &opts)
                        .map(|plan| (plan, reader.len(), JournalFormat::Bjl))
                        .map_err(|e| e.to_string())
                })
            }
            JournalFormat::Jsonl => {
                read_journal(bytes.as_slice()).map_err(|e| e.to_string()).and_then(|records| {
                    derive_fault_plan(&records, &base, &opts)
                        .map(|plan| (plan, records.len(), JournalFormat::Jsonl))
                        .map_err(|e| e.to_string())
                })
            }
        };
    let (plan, events, format) = match derivation {
        Ok(d) => d,
        Err(e) => {
            eprintln!("replay check failed: {journal_path}: {e}");
            return 1;
        }
    };
    eprintln!(
        "replay: {events} journal event(s) ({format}) -> {} derived fault window(s)",
        plan.len()
    );
    if plan.is_empty() {
        eprintln!(
            "replay check failed: no decision events to derive faults from \
             (journal too short, or not from the reference scenario?)"
        );
        return 1;
    }

    // The plan faults the recorded nodes; the replay fleet appends enough
    // unfaulted nodes for a 4-shard pool, so the 2- and 4-thread replays
    // really run sharded.
    let fleet = plan.apply(base.clone()).with_nodes(4 * MIN_NODES_PER_SHARD);
    let mut digests: Vec<String> = Vec::new();
    for threads in [1usize, 2, 4] {
        let sim = Simulation::new(fleet.clone().with_threads(threads));
        let width = sim.width();
        let report = sim.run();
        let faults_applied: usize = report.nodes.iter().map(|n| n.faults_applied.len()).sum();
        let json = serde_json::to_string(&report).expect("report serializes");
        let digest = format!("fnv1a64:{:016x}", fnv1a64(json.as_bytes()));
        eprintln!(
            "replay: {} on {} nodes @ {threads} thread(s), width {width}: {faults_applied} \
             fault(s) delivered -> {digest}",
            case.name(),
            fleet.nodes
        );
        if width != threads {
            eprintln!("replay check failed: {threads}-thread replay ran {width} wide");
            return 1;
        }
        digests.push(digest);
    }
    if digests.windows(2).all(|w| w[0] == w[1]) {
        eprintln!("replay: reports bit-identical across 1/2/4 threads");
        0
    } else {
        eprintln!("replay check failed: faulted reports diverge across thread counts");
        1
    }
}

/// `--chaos-smoke` entry point: run a small-budget adversarial search over
/// `scenario_path` and gate on the chaos layer's contracts — a flip is
/// found, the corpus is a pure function of its seed, and the cheapest
/// counterexample replays bit-identically at 1, 2 and 4 threads. Returns
/// the process exit code.
fn run_chaos_smoke(scenario_path: &str) -> i32 {
    // The shared scenario loader (parse + validate with named errors) —
    // the same path `repro run-scenario` and `unitherm-serve` use.
    let mut scenario = match unitherm_experiments::scenario_file::load(scenario_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("chaos smoke failed: {scenario_path}: {e}");
            return 1;
        }
    };
    // Bound the horizon so each candidate evaluation stays cheap; the
    // search is deterministic for any fixed horizon.
    scenario.max_time_s = scenario.max_time_s.min(60.0);
    let cfg = ChaosConfig {
        seed: 42,
        predicate: OutcomePredicate::FailsafeTrip,
        max_evaluations: 40,
        batch: 8,
        ..ChaosConfig::default()
    };
    let corpus = match chaos_search(&scenario, &cfg, &mut NullSink) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("chaos smoke failed: {e}");
            return 1;
        }
    };
    eprintln!(
        "chaos: {} evaluation(s), {} counterexample(s), baseline holds: {}",
        corpus.evaluations,
        corpus.counterexamples.len(),
        corpus.baseline_holds
    );
    let Some(best) = corpus.counterexamples.first() else {
        eprintln!(
            "chaos smoke failed: no counterexample found within {} evaluations",
            cfg.max_evaluations
        );
        return 1;
    };
    eprintln!(
        "chaos: cheapest flip costs {} ({} faulted tick(s), {} window(s)) -> {}",
        best.cost,
        best.faulted_ticks,
        best.windows.len(),
        best.report_digest
    );

    // Seed purity: rerunning the search on a single evaluation thread must
    // reproduce the corpus byte for byte.
    let single = ChaosConfig { threads: 1, ..cfg };
    let rerun = match chaos_search(&scenario, &single, &mut NullSink) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("chaos smoke failed on rerun: {e}");
            return 1;
        }
    };
    let a = serde_json::to_string_pretty(&corpus).expect("corpus serializes");
    let b = serde_json::to_string_pretty(&rerun).expect("corpus serializes");
    if a != b {
        eprintln!("chaos smoke failed: corpus differs between evaluation thread budgets");
        return 1;
    }
    eprintln!("chaos: corpus byte-identical across evaluation thread budgets");

    // Replay fidelity: the cheapest counterexample re-executes to the
    // recorded digest, and — on the faulted fleet widened with unfaulted
    // nodes until a 4-shard pool pays — to one digest at every intra-run
    // thread count, each run as wide as it asks.
    let Some(faulted) = corpus.apply(scenario.clone(), 0) else {
        eprintln!("chaos smoke failed: corpus entry 0 vanished");
        return 1;
    };
    let digest = report_digest(&Simulation::new(faulted.clone()).run());
    eprintln!("chaos: replay -> {digest}");
    if digest != best.report_digest {
        eprintln!(
            "chaos smoke failed: replay produced {digest}, corpus recorded {}",
            best.report_digest
        );
        return 1;
    }
    let fleet = faulted.with_nodes(4 * MIN_NODES_PER_SHARD);
    let mut fleet_digests = Vec::new();
    for threads in [1usize, 2, 4] {
        let sim = Simulation::new(fleet.clone().with_threads(threads));
        let width = sim.width();
        let digest = report_digest(&sim.run());
        eprintln!(
            "chaos: replay on {} nodes @ {threads} thread(s), width {width} -> {digest}",
            fleet.nodes
        );
        if width != threads {
            eprintln!("chaos smoke failed: {threads}-thread replay ran {width} wide");
            return 1;
        }
        fleet_digests.push(digest);
    }
    if fleet_digests.windows(2).any(|w| w[0] != w[1]) {
        eprintln!("chaos smoke failed: widened replays diverge across thread counts");
        return 1;
    }
    eprintln!("chaos: counterexample replays bit-identically across 1/2/4 threads");
    0
}

fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The first `model name` in `/proc/cpuinfo`, or `unknown`.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .filter(|m| !m.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() {
    let mut quick = false;
    let mut out_path = "BENCH_cluster.json".to_string();
    let mut min_wall_s: Option<f64> = None;
    let mut journal_path: Option<String> = None;
    let mut journal_format = JournalFormat::Jsonl;
    let mut check_path: Option<String> = None;
    let mut baseline_path: Option<String> = None;
    let mut replay_path: Option<String> = None;
    let mut chaos_path: Option<String> = None;
    let mut max_regression_pct = 15.0;
    let mut threads = 1usize;
    let mut fleet_nodes: Option<usize> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => out_path = args.next().expect("--out needs a path"),
            "--min-time" => {
                min_wall_s =
                    Some(args.next().expect("--min-time needs seconds").parse().expect("number"))
            }
            "--journal" => journal_path = Some(args.next().expect("--journal needs a path")),
            "--journal-format" => {
                let raw = args.next().expect("--journal-format needs jsonl|bjl");
                journal_format = JournalFormat::parse(&raw)
                    .unwrap_or_else(|| panic!("--journal-format must be jsonl or bjl, got {raw}"));
            }
            "--check" => check_path = Some(args.next().expect("--check needs a report file")),
            "--replay-faults" => {
                replay_path = Some(args.next().expect("--replay-faults needs a journal file"))
            }
            "--chaos-smoke" => {
                chaos_path = Some(args.next().expect("--chaos-smoke needs a scenario file"))
            }
            "--baseline" => {
                baseline_path = Some(args.next().expect("--baseline needs a report file"))
            }
            "--max-regression-pct" => {
                max_regression_pct = args
                    .next()
                    .expect("--max-regression-pct needs a number")
                    .parse()
                    .expect("number")
            }
            "--threads" => {
                threads = args.next().expect("--threads needs a count").parse().expect("number");
                assert!(threads >= 1, "--threads needs at least 1");
            }
            "--nodes" => {
                let n: usize = args.next().expect("--nodes needs a count").parse().expect("number");
                assert!(n >= 1, "--nodes needs at least 1");
                fleet_nodes = Some(n);
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: unitherm-bench [--quick] [--out PATH] [--min-time SECONDS] \
                     [--journal PATH] [--journal-format jsonl|bjl] [--threads N] [--nodes N]"
                );
                eprintln!(
                    "       unitherm-bench --check FILE [--baseline FILE] \
                     [--max-regression-pct N]"
                );
                eprintln!("       unitherm-bench --replay-faults JOURNAL");
                eprintln!("       unitherm-bench --chaos-smoke SCENARIO.json");
                std::process::exit(2);
            }
        }
    }
    if let Some(check) = check_path {
        std::process::exit(run_check(&check, baseline_path.as_deref(), max_regression_pct));
    }
    if let Some(journal) = replay_path {
        std::process::exit(run_replay_check(&journal));
    }
    if let Some(scenario) = chaos_path {
        std::process::exit(run_chaos_smoke(&scenario));
    }
    let min_wall_s = min_wall_s.unwrap_or(if quick { 0.02 } else { 0.5 });

    let node_counts: &[usize] = if quick { &[1, 4] } else { &[1, 4, 16, 64] };
    let mut cases = Vec::new();
    for &nodes in node_counts {
        for burn in [true, false] {
            for scheme in [Scheme::DynamicFan, Scheme::Hybrid] {
                cases.push(Case { nodes, burn, scheme });
            }
        }
    }

    let mut results = Vec::with_capacity(cases.len());
    for &case in &cases {
        let r = measure_case(case, min_wall_s, threads);
        eprintln!(
            "{:<26} {:>12.0} ticks/s  ({:>12.0} node-ticks/s)",
            r.name, r.ticks_per_s, r.node_ticks_per_s
        );
        results.push(r);
    }

    let sweep = measure_sweep(&cases, if quick { 2.0 } else { 20.0 });
    eprintln!(
        "sweep: {} scenarios on {} threads in {:.2} s",
        sweep.scenarios, sweep.threads, sweep.wall_time_s
    );

    // Overhead probe + journal run use the largest burn/dynamic-fan case
    // the mode covers (16 nodes full, 4 nodes quick).
    let probe_case = Case {
        nodes: *node_counts.last().expect("matrix has node counts").min(&16),
        burn: true,
        scheme: Scheme::DynamicFan,
    };
    let observability = measure_observability(probe_case, min_wall_s.max(0.02));
    eprintln!(
        "observability: {} sink-off {:.0} ticks/s, ring {:.0} ticks/s \
         ({:+.2} % overhead, noise floor {:.2} %)",
        observability.scenario,
        observability.ticks_per_s_sink_off,
        observability.ticks_per_s_ring,
        observability.overhead_pct,
        observability.noise_floor_pct
    );

    // Strong scaling and the determinism digest use a burn fleet with
    // exactly enough nodes for a 4-shard pool: any smaller case runs at
    // width 1 whatever `--threads` says, which would make both vacuous.
    let pool_case = Case { nodes: 4 * MIN_NODES_PER_SHARD, burn: true, scheme: Scheme::DynamicFan };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let intra_run_scaling = measure_intra_run_scaling(pool_case, min_wall_s.max(0.02), nproc);

    // Fleet scale: 1k/10k/100k-node burn fleets in full mode, the 1k point
    // alone in quick mode (the CI bench-gate case), or whatever `--nodes`
    // pinned.
    let fleet_counts: Vec<usize> = match fleet_nodes {
        Some(n) => vec![n],
        None if quick => vec![1_000],
        None => vec![1_000, 10_000, 100_000],
    };
    let fleet_scale = measure_fleet_scale(&fleet_counts, min_wall_s.max(0.02), threads);

    let determinism = measure_determinism(pool_case, threads);
    eprintln!(
        "determinism: {} @ {} thread(s), width {} -> {}",
        determinism.scenario, determinism.threads, determinism.effective_width, determinism.digest
    );

    if let Some(path) = &journal_path {
        write_journal(probe_case, path, journal_format);
    }

    let journal_formats = measure_journal_formats(probe_case);
    eprintln!(
        "journal formats: {} — jsonl {:.1} B/event {:.0} events/s, bjl {:.1} B/event \
         {:.0} events/s ({:.2}x)",
        journal_formats.scenario,
        journal_formats.jsonl.bytes_per_event,
        journal_formats.jsonl.events_per_s,
        journal_formats.bjl.bytes_per_event,
        journal_formats.bjl.events_per_s,
        journal_formats.bjl_speedup
    );

    let reference = "16x-burn-dynamic-fan";
    let current =
        results.iter().find(|r| r.name == reference).map(|r| r.ticks_per_s).unwrap_or(f64::NAN);
    let improvement_pct = if BASELINE_16NODE_BURN_TICKS_PER_S > 0.0 && current.is_finite() {
        (current / BASELINE_16NODE_BURN_TICKS_PER_S - 1.0) * 100.0
    } else {
        f64::NAN
    };
    if current.is_finite() {
        eprintln!(
            "16-node burn: {current:.0} ticks/s vs baseline {BASELINE_16NODE_BURN_TICKS_PER_S:.0} \
             ({improvement_pct:+.1} %)"
        );
    }

    let report = BenchReport {
        schema: "unitherm-bench/v1".to_string(),
        mode: if quick { "quick" } else { "full" }.to_string(),
        commit: git_commit(),
        nproc,
        cpu_model: cpu_model(),
        threads,
        results,
        sweep,
        comparison: Comparison {
            scenario: reference.to_string(),
            baseline_commit: "18f0b99".to_string(),
            baseline_ticks_per_s: BASELINE_16NODE_BURN_TICKS_PER_S,
            current_ticks_per_s: current,
            improvement_pct,
        },
        observability,
        journal_formats,
        intra_run_scaling,
        fleet_scale,
        determinism,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out_path, json + "\n").expect("write bench report");
    eprintln!("wrote {out_path}");
}
