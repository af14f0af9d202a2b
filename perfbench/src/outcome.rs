//! What a run measured, the metric tables, and the result line.

use std::collections::BTreeMap;

use crate::stats::{mean, quantile};

/// The end-to-end metrics (`--trace 0`), with units.
pub const END_TO_END: [(&str, &str); 8] = [
    ("node_ticks_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_heap_bytes", "B"),
    ("scenarios_per_s", "1/s"),
    ("jobs_per_s", "1/s"),
    ("job_latency_p50_ms", "ms"),
    ("job_latency_p90_ms", "ms"),
    ("first_event_mean_ms", "ms"),
];

/// The per-layer metrics (`--trace 1`), with units. A layer a workload
/// does not use reports 0.
pub const PER_LAYER: [(&str, &str); 30] = [
    ("experiments.parse_us", "us"),
    ("cluster.setup_ms", "ms"),
    ("cluster.heap_bytes_per_node", "B"),
    ("cluster.tick_plain_us", "us"),
    ("cluster.tick_sample_us", "us"),
    ("cluster.sample_share", "fraction"),
    ("simnode.lanes_ns_per_node_tick", "ns"),
    ("simnode.scalar_ns_per_node_tick", "ns"),
    ("workload.advance_ns", "ns"),
    ("core.on_sample_ns", "ns"),
    ("obs.journal_write_ns_per_event", "ns"),
    ("obs.journal_events", "count"),
    ("obs.journal_bytes_per_event", "B"),
    ("obs.journal_open_ms", "ms"),
    ("replay.derive_ms", "ms"),
    ("cluster.report_ms", "ms"),
    ("cluster.report_json_ms", "ms"),
    ("cluster.report_json_bytes", "B"),
    ("cluster.pool_overhead_us_per_tick", "us"),
    ("serve.submit_ms", "ms"),
    ("serve.first_event_ms", "ms"),
    ("serve.stream_ms", "ms"),
    ("serve.done_frame_bytes", "B"),
    ("serve.journal_frame_bytes", "B"),
    ("serve.rejected", "count"),
    ("serve.direct_run_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.heap_bytes_per_retained_job", "B"),
    ("trace.unattributed_pct", "%"),
    ("trace.overhead_pct", "%"),
];

/// One end-to-end job: a scenario (or scenario pair, or service job) from
/// its input text to its checked output.
#[derive(Debug, Clone)]
pub struct Job {
    /// True when the job completed and every output matched its reference.
    pub ok: bool,
    /// Start to final checked output, seconds.
    pub latency_s: f64,
    /// Start to the first observable control-plane output, seconds.
    pub first_event_s: Option<f64>,
    /// Simulated node-ticks the job ran.
    pub node_ticks: u64,
    /// Scenario runs the job completed.
    pub scenarios: u64,
    /// Why the job failed.
    pub error: Option<String>,
}

impl Job {
    /// A failed job.
    pub fn failed(latency_s: f64, error: String) -> Self {
        Self {
            ok: false,
            latency_s,
            first_event_s: None,
            node_ticks: 0,
            scenarios: 0,
            error: Some(error),
        }
    }
}

/// An untraced run's measurements.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Every job attempted.
    pub jobs: Vec<Job>,
    /// Host seconds from the first job's start to the last job's end.
    pub elapsed_s: f64,
    /// Median set-up time, seconds.
    pub setup_s: f64,
    /// Peak live heap in the measured window, bytes.
    pub peak_heap_bytes: f64,
}

impl Outcome {
    /// Jobs attempted.
    pub fn attempted(&self) -> u64 {
        self.jobs.len() as u64
    }

    /// Jobs failed.
    pub fn failed(&self) -> u64 {
        self.jobs.iter().filter(|j| !j.ok).count() as u64
    }

    /// Failed ÷ attempted.
    pub fn error_rate(&self) -> f64 {
        self.failed() as f64 / self.attempted().max(1) as f64
    }

    /// The end-to-end metrics. A failed job counts as taking the whole run
    /// for every latency, so failures can only make latencies worse.
    ///
    /// Throughputs divide the work of every checked job by the whole
    /// window. The host's speed drifts by tens of percent over seconds to
    /// minutes; a whole-window ratio weighs every moment by its length,
    /// where a median over jobs of per-job rates follows whichever speed
    /// most jobs happened to meet, and moved further between runs.
    pub fn end_to_end(&self) -> BTreeMap<&'static str, f64> {
        let worst = self.elapsed_s.max(1e-9);
        let ok: Vec<&Job> = self.jobs.iter().filter(|j| j.ok).collect();
        let latencies: Vec<f64> =
            self.jobs.iter().map(|j| if j.ok { j.latency_s } else { worst }).collect();
        let first: Vec<f64> = self
            .jobs
            .iter()
            .filter_map(|j| if j.ok { j.first_event_s } else { Some(worst) })
            .collect();
        let node_ticks: u64 = ok.iter().map(|j| j.node_ticks).sum();
        let scenarios: u64 = ok.iter().map(|j| j.scenarios).sum();
        let mut m = BTreeMap::new();
        m.insert("node_ticks_per_s", node_ticks as f64 / worst);
        m.insert("setup_s", self.setup_s);
        m.insert("peak_heap_bytes", self.peak_heap_bytes);
        m.insert("scenarios_per_s", scenarios as f64 / worst);
        m.insert("jobs_per_s", ok.len() as f64 / worst);
        m.insert("job_latency_p50_ms", 1e3 * quantile(&latencies, 0.5));
        m.insert("job_latency_p90_ms", 1e3 * quantile(&latencies, 0.9));
        m.insert("first_event_mean_ms", 1e3 * mean(&first));
        m
    }

    /// How many latency samples lie beyond p90 (reported beside it).
    pub fn beyond_p90(&self) -> usize {
        self.jobs.len() - (0.9 * self.jobs.len() as f64).ceil() as usize
    }
}

/// Renders the result line: every metric of `table`, taking values from
/// `values` (a missing or non-finite value is an error in the benchmark
/// itself and panics, so a broken metric can never print as a number).
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    table: &[(&'static str, &'static str)],
    values: &BTreeMap<&'static str, f64>,
) -> String {
    let metrics: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let v = values.get(name).copied().unwrap_or_else(|| panic!("metric {name} missing"));
            assert!(v.is_finite(), "metric {name} is not finite: {v}");
            format!("\"{name}\":{{\"value\":{v:?},\"unit\":\"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        metrics.join(",")
    )
}
