//! The scenario path every workload shares: scenario JSON text →
//! `scenario_file::parse` → `Simulation::try_new` → optional journal →
//! tick loop → `into_report` → report JSON + digest.
//!
//! The tick loop is `Simulation::run`'s loop driven from outside, one
//! `Simulation::tick` per iteration, so the traced run can time each tick
//! and split them on the 4 Hz sample boundary. The digest check against a
//! `Simulation::run` reference (see the workloads) pins the two loops to
//! the same result on every job.

use std::cell::{Cell, RefCell};
use std::io::Write;
use std::rc::Rc;
use std::time::Instant;

use unitherm_cluster::{Scenario, Simulation};
use unitherm_experiments::scenario_file;
use unitherm_obs::{BinaryJournalWriter, EventRecord, EventSink};
use unitherm_serve::{JobId, JobQueue, QueueSink};

use crate::alloc;
use crate::stats::fnv_digest;
use crate::trace;

/// Where a run's journal goes.
pub enum Journal {
    /// No journal attached (replays, references).
    None,
    /// An in-memory `unitherm-bjl/v1` stream, returned in [`RunOut::bjl`].
    Bjl,
    /// The service's per-job queue sink (the serve runner's sink).
    Queue(JobQueue, JobId),
}

/// What one run produced.
pub struct RunOut {
    /// `fnv1a64:` digest of the report JSON.
    pub digest: String,
    /// Report JSON size in bytes.
    pub json_bytes: usize,
    /// Nodes × ticks run.
    pub node_ticks: u64,
    /// When the first journal record reached the sink.
    pub first_record: Option<Instant>,
    /// Journal records written.
    pub events: u64,
    /// The bjl stream, for [`Journal::Bjl`].
    pub bjl: Vec<u8>,
    /// Heap bytes `Simulation::try_new` left allocated.
    pub setup_heap_bytes: usize,
}

/// Counts and stamps the records passing into the wrapped sink, and times
/// each write as an `obs.journal_write` span.
struct JournalTap<S> {
    inner: S,
    events: Rc<Cell<u64>>,
    first: Rc<Cell<Option<Instant>>>,
}

impl<S: EventSink> EventSink for JournalTap<S> {
    fn record(&mut self, rec: &EventRecord) {
        if self.first.get().is_none() {
            self.first.set(Some(Instant::now()));
        }
        self.events.set(self.events.get() + 1);
        let _span = trace::span("obs.journal_write");
        self.inner.record(rec);
    }

    fn sink_error(&self) -> Option<String> {
        self.inner.sink_error()
    }
}

/// A `Write` target the benchmark can read back after the simulation has
/// dropped its journal sink.
#[derive(Clone, Default)]
struct SharedBuf(Rc<RefCell<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.borrow_mut().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Parses scenario text (an `experiments.parse` span).
pub fn parse(text: &str) -> Result<Scenario, String> {
    let _span = trace::span("experiments.parse");
    scenario_file::parse(text).map_err(|e| format!("scenario rejected: {e}"))
}

/// Runs a parsed scenario to its report and digests the report JSON.
pub fn run(scenario: Scenario, journal: Journal) -> Result<RunOut, String> {
    let max_time_s = scenario.max_time_s;
    let cooldown_s = scenario.cooldown_s;
    let finite = scenario.workload.is_finite();
    let ticks_per_sample = ((scenario.sample_period_s / scenario.dt_s).round() as u64).max(1);
    let nodes = scenario.nodes as u64;
    let dt_s = scenario.dt_s;

    let heap_before = alloc::live_bytes();
    let mut sim = {
        let _span = trace::span("cluster.setup");
        Simulation::try_new(scenario).map_err(|e| format!("scenario rejected: {e}"))?
    };
    let setup_heap_bytes = alloc::live_bytes().saturating_sub(heap_before);

    let events = Rc::new(Cell::new(0));
    let first = Rc::new(Cell::new(None));
    let buf = SharedBuf::default();
    match journal {
        Journal::None => {}
        Journal::Bjl => sim.attach_journal(Box::new(JournalTap {
            inner: BinaryJournalWriter::new(buf.clone(), dt_s),
            events: Rc::clone(&events),
            first: Rc::clone(&first),
        })),
        Journal::Queue(queue, id) => sim.attach_journal(Box::new(JournalTap {
            inner: QueueSink::new(queue, id),
            events: Rc::clone(&events),
            first: Rc::clone(&first),
        })),
    }

    let mut ticks = 0u64;
    let mut finished_at: Option<f64> = None;
    while sim.time_s() < max_time_s {
        ticks += 1;
        let sample = ticks.is_multiple_of(ticks_per_sample);
        {
            let _span =
                trace::span(if sample { "cluster.tick_sample" } else { "cluster.tick_plain" });
            sim.tick();
        }
        if finite && finished_at.is_none() && sim.all_finished() {
            finished_at = Some(sim.time_s());
        }
        if let Some(t) = finished_at {
            if sim.time_s() >= t + cooldown_s {
                break;
            }
        }
    }

    let report = {
        let _span = trace::span("cluster.report");
        sim.into_report()
    };
    let (digest, json_bytes) = {
        let _span = trace::span("cluster.report_json");
        let json = serde_json::to_string(&report).map_err(|e| format!("report JSON: {e}"))?;
        (fnv_digest(json.as_bytes()), json.len())
    };
    if let Some(warning) = &report.journal_warning {
        return Err(format!("journal incomplete: {warning}"));
    }
    let bjl = std::mem::take(&mut *buf.0.borrow_mut());
    Ok(RunOut {
        digest,
        json_bytes,
        node_ticks: ticks * nodes,
        first_record: first.get(),
        events: events.get(),
        bjl,
        setup_heap_bytes,
    })
}

/// What [`reference`] computes.
pub struct Reference {
    /// `report_digest` of the report.
    pub digest: String,
    /// Journal records (empty unless asked for).
    pub records: Vec<EventRecord>,
    /// Ticks the run took.
    pub ticks: u64,
}

/// Collects a run's journal records where the benchmark can read them
/// after the simulation has dropped its sink.
#[derive(Clone, Default)]
struct SharedRecords(Rc<RefCell<Vec<EventRecord>>>);

impl EventSink for SharedRecords {
    fn record(&mut self, rec: &EventRecord) {
        self.0.borrow_mut().push(*rec);
    }
}

/// The reference result of a scenario: the library's own `Simulation::run`
/// and `report_digest` on the scalar physics path (`force_scalar`) at one
/// thread, plus its journal records when `journal` is set. Reports and
/// journals do not depend on either setting, so this is an independent
/// oracle for the batched, possibly pooled runs the workloads time.
pub fn reference(scenario: &Scenario, journal: bool) -> Result<Reference, String> {
    let mut scalar = scenario.clone();
    scalar.force_scalar = true;
    scalar.threads = 1;
    let mut sim = Simulation::try_new(scalar).map_err(|e| format!("scenario rejected: {e}"))?;
    let records = SharedRecords::default();
    if journal {
        sim.attach_journal(Box::new(records.clone()));
    }
    let report = sim.run();
    let records = std::mem::take(&mut *records.0.borrow_mut());
    Ok(Reference {
        digest: unitherm_cluster::report_digest(&report),
        records,
        ticks: (report.wall_time_s / scenario.dt_s).round() as u64,
    })
}
