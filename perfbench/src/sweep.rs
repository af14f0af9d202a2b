//! `paper-sweep`: a seeded family of paper-sized scenarios spread over two
//! worker threads. Each job runs one scenario with an in-memory bjl
//! journal, reopens the journal, derives a fault plan from it and runs the
//! faulted scenario again — the paper's own use plus journal-driven
//! replay.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use unitherm_cluster::{derive_fault_plan, derive_fault_plan_from_cursor, ReplayOptions};
use unitherm_experiments::scenario_file;
use unitherm_obs::{BinaryJournalReader, JournalCursor};

use crate::catalogue::{self, Shape};
use crate::outcome::{Job, Outcome};
use crate::pipeline::{self, Journal, RunOut};
use crate::probe::Probes;
use crate::rng::Rng;
use crate::stats::median;
use crate::{alloc, pipeline_layers, reconcile, run_paired, trace, SetupSampler};
use crate::{Size, Traced};

/// Worker threads the untraced run spreads jobs over.
pub const WORKERS: usize = 2;
/// Seeded variants of each shape. The seed decides when in a run the
/// controllers first act; several variants per shape average that out, so
/// the seed changes the inputs but not how much work or waiting they make.
pub const VARIANTS: usize = 3;

/// One generated scenario and its expected digests.
pub struct Entry {
    /// Catalogue shape it was drawn from.
    pub shape: Shape,
    /// Scenario JSON.
    pub text: String,
    /// Reference digest of the recorded run.
    pub expected_base: String,
    /// Reference digest of the journal-derived faulted replay.
    pub expected_replay: String,
}

/// The generated sweep.
pub struct Sweep {
    /// [`VARIANTS`] entries per catalogue shape; the first `shapes` are one
    /// of each.
    pub entries: Vec<Entry>,
    /// Catalogue shapes.
    pub shapes: usize,
    /// Seeded job order: shuffled passes over the entries.
    pub order: Vec<usize>,
}

/// Generates the sweep for `seed` and computes every expected digest. The
/// reference derives its fault plan from the parsed journal records, the
/// timed jobs from the bjl bytes, so both journal paths are checked.
pub fn prepare(seed: u64, size: Size) -> Result<Sweep, String> {
    let mut rng = Rng::new(seed, 2);
    let mut shapes = catalogue::paper_sweep();
    if size == Size::Tiny {
        shapes.truncate(4);
        for s in &mut shapes {
            s.max_time_s = 20.0;
        }
    }
    let mut entries = Vec::with_capacity(VARIANTS * shapes.len());
    for shape in (0..VARIANTS).flat_map(|_| shapes.iter().cloned()) {
        let text = scenario_file::to_json(&shape.scenario(&mut rng));
        let scenario = pipeline::parse(&text)?;
        let base = pipeline::reference(&scenario, true)?;
        let plan = derive_fault_plan(&base.records, &scenario, &ReplayOptions::default())
            .map_err(|e| format!("reference replay: {e}"))?;
        let replay = pipeline::reference(&plan.apply(scenario), false)?;
        entries.push(Entry {
            shape,
            text,
            expected_base: base.digest,
            expected_replay: replay.digest,
        });
    }
    let mut order = Vec::new();
    for _ in 0..64 {
        let mut pass: Vec<usize> = (0..entries.len()).collect();
        rng.shuffle(&mut pass);
        order.extend(pass);
    }
    Ok(Sweep { entries, shapes: shapes.len(), order })
}

/// One job: the recorded run and its replay, both checked. Also returns
/// the recorded run's output.
pub fn job(entry: &Entry) -> (Job, Option<RunOut>) {
    let _root = trace::span("job");
    let t0 = Instant::now();
    let result = (|| {
        let scenario = pipeline::parse(&entry.text)?;
        let geometry = scenario.clone();
        let base = pipeline::run(scenario, Journal::Bjl)?;
        if base.digest != entry.expected_base {
            return Err(format!(
                "{}: digest {} != expected {}",
                entry.shape.name, base.digest, entry.expected_base
            ));
        }
        let reader = {
            let _span = trace::span("obs.journal_open");
            BinaryJournalReader::new(&base.bjl).map_err(|e| format!("journal reopen: {e}"))?
        };
        let faulted = {
            let _span = trace::span("replay.derive");
            let plan = derive_fault_plan_from_cursor(
                JournalCursor::from_binary(&reader),
                &geometry,
                &ReplayOptions::default(),
            )
            .map_err(|e| format!("replay: {e}"))?;
            plan.apply(geometry)
        };
        let replay = pipeline::run(faulted, Journal::None)?;
        if replay.digest != entry.expected_replay {
            return Err(format!(
                "{} replay: digest {} != expected {}",
                entry.shape.name, replay.digest, entry.expected_replay
            ));
        }
        Ok((base, replay))
    })();
    let latency_s = t0.elapsed().as_secs_f64();
    match result {
        Ok((base, replay)) => (
            Job {
                ok: true,
                latency_s,
                first_event_s: base.first_record.map(|t| (t - t0).as_secs_f64()),
                node_ticks: base.node_ticks + replay.node_ticks,
                scenarios: 2,
                error: None,
            },
            Some(base),
        ),
        Err(e) => (Job::failed(latency_s, e), None),
    }
}

/// The untraced run: [`WORKERS`] threads take jobs in the seeded order
/// until `seconds` have passed, each finishing the job it holds.
/// `peak_heap_bytes` is the median over passes of the catalogue of each
/// pass's peak: which two jobs happen to overlap decides a single peak, so
/// the run-wide maximum would mostly measure chance.
pub fn run(sweep: &Sweep, seconds: f64) -> Result<Outcome, String> {
    let texts: Vec<String> = sweep.entries.iter().map(|e| e.text.clone()).collect();
    let mut setup = SetupSampler::new(&texts, 8)?;
    alloc::reset_peak();
    let next = AtomicUsize::new(0);
    let finished = AtomicUsize::new(0);
    let peaks = Mutex::new(Vec::new());
    let jobs = Mutex::new(Vec::new());
    let start = Instant::now();
    std::thread::scope(|scope| {
        let mut setup = Some(&mut setup);
        for _ in 0..WORKERS {
            let mut setup = setup.take();
            let (next, finished, peaks, jobs) = (&next, &finished, &peaks, &jobs);
            scope.spawn(move || {
                let mut mine = Vec::new();
                while mine.is_empty() || start.elapsed().as_secs_f64() < seconds {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let entry = &sweep.entries[sweep.order[i % sweep.order.len()]];
                    mine.push(job(entry).0);
                    // One peak-heap window per pass over the catalogue.
                    if (finished.fetch_add(1, Ordering::Relaxed) + 1) % sweep.entries.len() == 0 {
                        peaks
                            .lock()
                            .expect("a worker panicked holding the peaks")
                            .push(alloc::peak_bytes() as f64);
                        alloc::reset_peak();
                    }
                    if let Some(setup) = setup.as_mut() {
                        setup.between_jobs();
                    }
                }
                jobs.lock().expect("a worker panicked holding the job list").extend(mine);
            });
        }
    });
    let elapsed_s = start.elapsed().as_secs_f64();
    let mut peaks = peaks.into_inner().expect("a worker panicked holding the peaks");
    if peaks.is_empty() {
        peaks.push(alloc::peak_bytes() as f64);
    }
    Ok(Outcome {
        jobs: jobs.into_inner().expect("a worker panicked holding the job list"),
        elapsed_s,
        setup_s: setup.finish(7)?,
        peak_heap_bytes: median(&peaks),
    })
}

/// The traced run, on one thread: paired untraced / traced jobs in the
/// seeded order (at least one per shape), then the layer probes on one
/// scenario of each shape.
pub fn traced(sweep: &Sweep, seconds: f64) -> Result<Traced, String> {
    let mut events = 0u64;
    let mut bytes_per_event = Vec::new();
    let mut heap_per_node = Vec::new();
    let mut json_bytes = Vec::new();
    let (pairs, spans) = run_paired(seconds, sweep.shapes, |i| {
        let entry = &sweep.entries[sweep.order[i % sweep.order.len()]];
        let (j, base) = job(entry);
        if let (true, Some(out)) = (trace::enabled(), base) {
            events += out.events;
            if out.events > 0 {
                bytes_per_event.push(out.bjl.len() as f64 / out.events as f64);
            }
            heap_per_node.push(out.setup_heap_bytes as f64 / entry.shape.nodes as f64);
            json_bytes.push(out.json_bytes as f64);
        }
        j
    });
    let mut m = crate::zero_layers();
    pipeline_layers(&spans, &mut m);
    reconcile(&pairs, &spans, &mut m);
    m.insert("obs.journal_events", events as f64 / pairs.len() as f64);
    m.insert("obs.journal_bytes_per_event", median(&bytes_per_event));
    m.insert("cluster.heap_bytes_per_node", median(&heap_per_node));
    m.insert("cluster.report_json_bytes", median(&json_bytes));

    let mut probes = Probes::default();
    for entry in &sweep.entries[..sweep.shapes] {
        probes.probe(&pipeline::parse(&entry.text)?, entry.shape.scheme.family(), 50_000);
    }
    probes.fill(&mut m);
    Ok(Traced {
        metrics: m,
        spans: vec![spans],
        attempted: 2 * pairs.len() as u64,
        failed: crate::failed_pairs(&pairs),
        notes: probes.breakdown(),
    })
}
