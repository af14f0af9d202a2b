//! The unitherm benchmark: two workloads driving the simulator's two
//! end-to-end paths (scenario text → `RunReport` + journal, and
//! `POST /jobs` → last SSE frame), an untraced run that reports the
//! end-to-end metrics, and a traced run that reports per-layer self times.
//! See `README.md` beside this crate for the workloads and metrics.

pub mod alloc;
pub mod catalogue;
pub mod context;
pub mod outcome;
pub mod pipeline;
pub mod probe;
pub mod rng;
pub mod serve;
pub mod stats;
pub mod sweep;
pub mod trace;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::outcome::Job;
use crate::stats::median;
use crate::trace::Span;

/// Input scale. The command line always runs `Full`; the crate's tests run
/// `Tiny` so every workload and metric is exercised in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes `BENCHMARK.json` describes.
    Full,
    /// Small inputs for tests.
    Tiny,
}

/// A traced run's per-layer metrics and the spans behind them.
pub struct Traced {
    /// Values for `outcome::PER_LAYER` (missing layers filled with 0).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Spans per traced thread, for the trace file.
    pub spans: Vec<Vec<Span>>,
    /// Jobs attempted and failed while tracing.
    pub attempted: u64,
    /// See `attempted`.
    pub failed: u64,
    /// Human-readable extras for the log.
    pub notes: String,
}

/// Samples `Simulation::try_new`, summed over a workload's scenarios
/// (parsing and dropping are outside the timed part), for `setup_s`.
///
/// One machine moment decides a set-up time of a millisecond or two, so a
/// workload takes samples before its measured window, every
/// [`SetupSampler::EVERY`] between jobs inside it (on one thread, costing
/// well under 2 % of the window), and after it, and reports the median.
pub struct SetupSampler<'a> {
    texts: &'a [String],
    last: Instant,
    samples: Vec<f64>,
}

impl<'a> SetupSampler<'a> {
    /// Interval between in-window samples.
    pub const EVERY: Duration = Duration::from_secs(2);

    /// A sampler over `texts` that has already taken `reps` samples.
    pub fn new(texts: &'a [String], reps: usize) -> Result<Self, String> {
        let mut s = Self { texts, last: Instant::now(), samples: Vec::new() };
        for _ in 0..reps {
            s.sample()?;
        }
        Ok(s)
    }

    /// Takes one sample.
    pub fn sample(&mut self) -> Result<(), String> {
        let mut total = Duration::ZERO;
        for text in self.texts {
            let scenario = pipeline::parse(text)?;
            let t = Instant::now();
            let sim = unitherm_cluster::Simulation::try_new(scenario)
                .map_err(|e| format!("scenario rejected: {e}"))?;
            total += t.elapsed();
            drop(sim);
        }
        self.samples.push(total.as_secs_f64());
        self.last = Instant::now();
        Ok(())
    }

    /// Takes a sample if [`Self::EVERY`] has passed since the last one. The
    /// texts were set up successfully in [`Self::new`], so they cannot fail
    /// now.
    pub fn between_jobs(&mut self) {
        if self.last.elapsed() >= Self::EVERY {
            self.sample().expect("scenarios that set up before the window set up again");
        }
    }

    /// Takes `reps` more samples and returns the median of all.
    pub fn finish(mut self, reps: usize) -> Result<f64, String> {
        for _ in 0..reps {
            self.sample()?;
        }
        Ok(median(&self.samples))
    }
}

/// Alternates untraced and traced executions of the same jobs until
/// `seconds` have passed (at least `min_pairs` pairs), on the calling
/// thread. Returns the paired jobs (untraced, traced) and the spans.
pub fn run_paired(
    seconds: f64,
    min_pairs: usize,
    mut job: impl FnMut(usize) -> Job,
) -> (Vec<(Job, Job)>, Vec<Span>) {
    let start = Instant::now();
    let mut pairs = Vec::new();
    trace::take();
    while pairs.len() < min_pairs || start.elapsed().as_secs_f64() < seconds {
        let i = pairs.len();
        trace::set_enabled(false);
        let plain = job(i);
        trace::set_enabled(true);
        let traced = job(i);
        trace::set_enabled(false);
        pairs.push((plain, traced));
    }
    (pairs, trace::take())
}

/// Failed jobs among paired runs.
pub fn failed_pairs(pairs: &[(Job, Job)]) -> u64 {
    pairs.iter().map(|(u, t)| u64::from(!u.ok) + u64::from(!t.ok)).sum()
}

fn med_or_zero(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        median(samples)
    }
}

/// Every per-layer metric initialised to 0 (a layer the workload bypasses).
pub fn zero_layers() -> BTreeMap<&'static str, f64> {
    outcome::PER_LAYER.iter().map(|(name, _)| (*name, 0.0)).collect()
}

/// Fills the metrics the scenario pipeline's spans give: parse, set-up,
/// plain and sample ticks (self time, so journal writes inside a tick are
/// not counted twice), journal writes, report and report JSON.
pub fn pipeline_layers(spans: &[Span], m: &mut BTreeMap<&'static str, f64>) {
    let ns = |name| trace::durations(spans, name);
    m.insert("experiments.parse_us", med_or_zero(&ns("experiments.parse")) / 1e3);
    m.insert("cluster.setup_ms", med_or_zero(&ns("cluster.setup")) / 1e6);
    let plain = trace::self_durations(spans, "cluster.tick_plain");
    let sample = trace::self_durations(spans, "cluster.tick_sample");
    m.insert("cluster.tick_plain_us", med_or_zero(&plain) / 1e3);
    m.insert("cluster.tick_sample_us", med_or_zero(&sample) / 1e3);
    let (p, s): (f64, f64) = (plain.iter().sum(), sample.iter().sum());
    m.insert("cluster.sample_share", if p + s > 0.0 { s / (p + s) } else { 0.0 });
    let writes = ns("obs.journal_write");
    if !writes.is_empty() {
        m.insert(
            "obs.journal_write_ns_per_event",
            writes.iter().sum::<f64>() / writes.len() as f64,
        );
    }
    m.insert("cluster.report_ms", med_or_zero(&ns("cluster.report")) / 1e6);
    m.insert("cluster.report_json_ms", med_or_zero(&ns("cluster.report_json")) / 1e6);
    m.insert("obs.journal_open_ms", med_or_zero(&ns("obs.journal_open")) / 1e6);
    m.insert("replay.derive_ms", med_or_zero(&ns("replay.derive")) / 1e6);
}

/// `trace.unattributed_pct` and `trace.overhead_pct` from paired jobs:
/// the untraced wall time minus the layer self times of the traced twin
/// (every span below the `job` root), and the traced wall time against
/// the untraced, both as a percentage of the untraced wall time.
pub fn reconcile(pairs: &[(Job, Job)], spans: &[Span], m: &mut BTreeMap<&'static str, f64>) {
    let untraced: f64 = pairs.iter().map(|(u, _)| u.latency_s).sum::<f64>() * 1e9;
    let traced: f64 = pairs.iter().map(|(_, t)| t.latency_s).sum::<f64>() * 1e9;
    let attributed = trace::layer_self_ns(spans);
    m.insert("trace.unattributed_pct", 100.0 * (untraced - attributed) / untraced);
    m.insert("trace.overhead_pct", 100.0 * (traced - untraced) / untraced);
}
