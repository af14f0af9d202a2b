//! The cluster tick loop.
//!
//! [`Simulation::run`] drives all nodes in lockstep:
//!
//! ```text
//!   every dt (50 ms):   workload advance → BSP barrier release →
//!                       per-tick daemons (CPUSPEED) → physics tick
//!   every 250 ms:       sensor sample → fan/tDVFS daemons → recorders
//! ```
//!
//! Barrier release is all-or-nothing: a rank that reaches a barrier parks
//! (near-zero utilization) until every unfinished rank arrives. A rank on a
//! throttled or down-scaled CPU therefore delays the whole job — the
//! mechanism behind the paper's execution-time results.
//!
//! There is one tick body ([`Simulation::tick`]) at every width, and its
//! physics takes one of two routes, chosen once per simulation: the
//! structure-of-arrays lanes ([`PhysicsBatch::tick_all`], with fault
//! delivery and the 4 Hz sample as sync points), or the scalar per-node
//! [`unitherm_simnode::Node::tick`] for runs with a per-tick daemon
//! (CPUSPEED) or `Scenario::force_scalar`.

use unitherm_obs::{EventSink, VecSink};
use unitherm_simnode::PhysicsBatch;
use unitherm_workload::WorkState;

use crate::node_sim::NodeSim;
use crate::pool::{exec_shard, shard_range, Job, PassKind, ShardOut, WorkerPool};
use crate::report::{NodeReport, RunReport};
use crate::scenario::{Scenario, ScenarioError};

/// Fewest nodes a worker-pool shard must own before sharding pays.
///
/// A pool tick pays a fixed synchronisation cost (three epochs, each a
/// spin and then park/unpark) that a shard's per-node work must outweigh.
/// Calibrated at 1 vs 2 threads on a 2-vCPU host (DESIGN.md §11): on an
/// idle machine two shards break even at 32 nodes each and gain about
/// 1.4× or more from 128 each; while another process keeps one core busy,
/// two threads lose at every size up to 1024 nodes.
pub const MIN_NODES_PER_SHARD: usize = 128;

/// The worker-pool width a run with `threads` requested threads over
/// `nodes` nodes actually uses: at most `threads`, and no more shards than
/// give each one [`MIN_NODES_PER_SHARD`] nodes; never below 1 (one shard,
/// no pool). The simulation, the sweep budget and the service's permit
/// grant all size themselves from this one rule.
pub fn effective_width(threads: usize, nodes: usize) -> usize {
    threads.min(nodes / MIN_NODES_PER_SHARD).max(1)
}

/// A runnable cluster simulation.
pub struct Simulation {
    /// The intra-run worker pool (`Scenario::threads > 1`). Declared first:
    /// fields drop in declaration order, and the pool's `Drop` joins its
    /// workers — which may still hold shard pointers into `nodes` if a
    /// coordinator-side panic is unwinding — before `nodes` is freed.
    pool: Option<WorkerPool>,
    scenario: Scenario,
    nodes: Vec<NodeSim>,
    rack: Option<crate::rack::RackModel>,
    rack_air: unitherm_metrics::TimeSeries,
    time_s: f64,
    ticks: u64,
    ticks_per_sample: u64,
    /// Ranks whose workload has finished (kept incrementally so the run
    /// loop's completion check is O(1) instead of a per-tick scan).
    finished_nodes: usize,
    /// Optional cluster-wide event journal; every node's event stream is
    /// teed into it on top of the per-node rings (e.g. a JSONL
    /// [`unitherm_obs::JournalWriter`] behind `unitherm-bench --journal`).
    journal: Option<Box<dyn EventSink>>,
    /// The lane route's per-shard state: a structure-of-arrays batch over
    /// the shard's hot physics plus the indices of its faulted nodes. Every
    /// node ticks on the lanes and syncs with its scalar
    /// [`unitherm_simnode::Node`] at fault delivery and at every sample.
    /// Empty on the scalar route, where every node ticks its own `Node`.
    lanes: Vec<ShardLanes>,
    /// Per-shard reduction slots, one per shard: their count is the width.
    shard_outs: Vec<ShardOut>,
    /// Per-node heat slots for the rack reduction: each pass fills its
    /// shard's rows, the coordinator folds them in node order, so the f64
    /// summation order is the same at every width.
    heat_scratch: Vec<f64>,
    /// Journal scratch for shards 1..n: pool workers tee events here and
    /// the coordinator drains them in shard — i.e. node — order after each
    /// pass (shard 0 writes to the journal directly). Pre-reserved in
    /// `attach_journal`; empty at width 1.
    event_scratch: Vec<VecSink>,
}

/// One shard's state on the lane route.
pub(crate) struct ShardLanes {
    /// The hot physics of the shard's nodes; slot `i` mirrors the shard's
    /// `i`-th node.
    pub batch: PhysicsBatch,
    /// Slots whose node carries fault sources — the only ones pass B checks
    /// for a fault due.
    pub faulted: Vec<usize>,
}

impl ShardLanes {
    /// Loads the lanes from `nodes`' current state.
    fn new(nodes: &[NodeSim]) -> Self {
        Self {
            batch: PhysicsBatch::from_nodes(nodes.iter().map(|ns| &ns.node)),
            faulted: (0..nodes.len()).filter(|&i| nodes[i].node.has_fault_sources()).collect(),
        }
    }
}

impl Simulation {
    /// Builds the cluster from a scenario, or reports why the scenario
    /// cannot be run (the [`Scenario::validate`] error).
    pub fn try_new(scenario: Scenario) -> Result<Self, ScenarioError> {
        scenario.validate()?;
        let mut nodes: Vec<NodeSim> =
            (0..scenario.nodes).map(|i| NodeSim::build(&scenario, i)).collect();
        let ticks_per_sample = (scenario.sample_period_s / scenario.dt_s).round() as u64;
        // validate() rejects sample_period_s < dt_s, so this cannot be 0 —
        // a 0 here would make `is_multiple_of` false forever and silently
        // disable the whole sampling path (sensors, fan/tDVFS daemons).
        assert!(ticks_per_sample >= 1, "sampling period shorter than the tick");
        let rack = scenario.rack.map(|cfg| {
            let idle_heat: f64 = nodes.iter().map(|ns| ns.node.heat_output_w()).sum();
            let model = crate::rack::RackModel::new(cfg, idle_heat);
            // Nodes breathe the rack air from t = 0.
            for ns in &mut nodes {
                ns.node.set_ambient_c(model.air_c());
            }
            model
        });
        // Width 1 — the default, and any fleet too small to pay for a
        // shard — runs every pass inline, without a pool.
        let shards = effective_width(scenario.threads, nodes.len());
        let pool = (shards > 1).then(|| WorkerPool::new(shards));
        let heat_scratch = if rack.is_some() { vec![0.0; nodes.len()] } else { Vec::new() };
        let shard_outs = vec![ShardOut::default(); shards];
        // The route is one choice per simulation: a per-tick daemon has no
        // lane sync point, and `force_scalar` asks for the reference path.
        // Otherwise one batch per shard, loaded from the post-attach (and
        // post-rack-ambient) node state so the lanes resume bit-exactly.
        let scalar = scenario.force_scalar || nodes.iter().any(|ns| ns.plane.wants_tick());
        let lanes = if scalar {
            Vec::new()
        } else {
            (0..shards)
                .map(|s| ShardLanes::new(&nodes[shard_range(nodes.len(), shards, s)]))
                .collect()
        };
        Ok(Self {
            pool,
            scenario,
            nodes,
            rack,
            rack_air: unitherm_metrics::TimeSeries::new("rack.air", "°C"),
            time_s: 0.0,
            ticks: 0,
            ticks_per_sample,
            finished_nodes: 0,
            journal: None,
            lanes,
            shard_outs,
            heat_scratch,
            event_scratch: Vec::new(),
        })
    }

    /// Builds the cluster from a scenario.
    ///
    /// # Panics
    /// On an invalid scenario; library callers who want the
    /// [`Scenario::validate`] error instead use [`Simulation::try_new`].
    pub fn new(scenario: Scenario) -> Self {
        Self::try_new(scenario).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Attaches a cluster-wide event journal: every node's control-plane
    /// event stream is teed into `sink` in addition to the per-node rings.
    /// The sink sees records in tick order (node order within a tick) at
    /// every thread count.
    pub fn attach_journal(&mut self, sink: Box<dyn EventSink>) {
        // If a journal sink hits an I/O error mid-run it latches the error
        // and stops writing; `into_report` surfaces it as
        // `RunReport::journal_warning` so a truncated journal is visible in
        // the report instead of only on `finish()`.
        self.journal = Some(sink);
        if let Some(pool) = &self.pool {
            // One pre-reserved scratch per worker shard; a tick rarely emits
            // more than a few events per node, so the reserve makes the
            // buffer effectively fixed-capacity (growth stays possible but
            // is amortized away and never affects determinism).
            self.event_scratch = (1..pool.shards())
                .map(|s| {
                    let mut sink = VecSink::default();
                    let shard_nodes = shard_range(self.nodes.len(), pool.shards(), s).len();
                    sink.records.reserve(32 * shard_nodes.max(1));
                    sink
                })
                .collect();
        }
    }

    /// Attaches a cluster-wide `unitherm-bjl/v1` binary event journal (see
    /// `docs/FORMATS.md` §5): the compact, seekable sibling of the JSONL
    /// [`Simulation::attach_journal`] path. The header is stamped with the
    /// scenario's tick width, so replay tooling can seek the file by tick.
    /// Callers wanting buffering should pass a `BufWriter`.
    pub fn attach_binary_journal<W: std::io::Write + 'static>(&mut self, out: W) {
        let dt_s = self.scenario.dt_s;
        self.attach_journal(Box::new(unitherm_obs::BinaryJournalWriter::new(out, dt_s)));
    }

    /// The number of shards this run uses, on either route:
    /// [`effective_width`] of the scenario's `threads` and node count
    /// (1 = no pool).
    pub fn width(&self) -> usize {
        self.shard_outs.len()
    }

    /// Current simulated time.
    pub fn time_s(&self) -> f64 {
        self.time_s
    }

    /// Immutable access to the nodes (diagnostics, tests).
    ///
    /// On the lane route the hot physics state lives in the
    /// structure-of-arrays lanes between samples, so the scalar `Node`
    /// structs seen here can lag by up to one sample period;
    /// [`Simulation::nodes_synced`] stores the lanes back first.
    pub fn nodes(&self) -> &[NodeSim] {
        &self.nodes
    }

    /// Like [`Simulation::nodes`], but stores the physics lanes back into
    /// the scalar nodes first, so every `Node` reflects the current tick.
    pub fn nodes_synced(&mut self) -> &[NodeSim] {
        self.sync_lanes();
        &self.nodes
    }

    /// Advances the cluster one tick.
    ///
    /// Two passes over the nodes (plus the rack / sampling work that needs a
    /// completed pass), with no heap allocation in steady state — the
    /// barrier reduction folds into pass A instead of collecting per-rank
    /// states into a scratch `Vec`. Every pass runs through
    /// [`Simulation::pass`], shard-parallel at width > 1 with bit-identical
    /// results.
    pub fn tick(&mut self) {
        let dt_s = self.scenario.dt_s;
        self.ticks += 1;
        self.time_s += dt_s;

        // Pass A — workloads advance; the barrier reduction folds per
        // shard, then across shards (order-free booleans). Release is
        // all-or-nothing, so the decision needs every rank's post-advance
        // state and cannot merge with pass B.
        self.pass(PassKind::Workload { dt_s });
        let release = self.shard_outs.iter().all(|o| o.unfinished_parked)
            && self.shard_outs.iter().any(|o| o.any_parked);

        // Pass B — barrier release, fault delivery, per-tick daemons +
        // physics, rack heat capture, and finish times.
        let finite = self.scenario.workload.is_finite();
        self.pass(PassKind::Hardware { dt_s, now_s: self.time_s, release, finite });
        self.finished_nodes += self.shard_outs.iter().map(|o| o.finished_delta).sum::<usize>();

        self.step_rack(dt_s);

        // Sampling path at 4 Hz: lanes store back, daemons run, lanes
        // reload — fused per node so each cache line is touched once.
        if self.ticks.is_multiple_of(self.ticks_per_sample) {
            self.pass(PassKind::Sample { now_s: self.time_s });
            self.record_rack_air();
        }
    }

    /// Runs one pass over every shard. Shard 0 runs inline on this thread
    /// and writes straight to the journal; at width > 1 the pool runs
    /// shards 1..n alongside it, and their journal scratch drains
    /// afterwards in shard — i.e. node — order.
    #[inline(always)] // see `pool::exec_shard`
    fn pass(&mut self, kind: PassKind) {
        let shards = self.shard_outs.len();
        let teeing = self.journal.is_some() && !self.event_scratch.is_empty();
        // The layout `Job` documents, which the unsafe dispatch relies on.
        assert!(self.lanes.is_empty() || self.lanes.len() == shards, "one lane set per shard");
        assert!(
            self.rack.is_none() || self.heat_scratch.len() == self.nodes.len(),
            "one heat slot per node"
        );
        assert!(!teeing || self.event_scratch.len() == shards - 1, "one scratch per worker shard");
        let job = Job {
            nodes: self.nodes.as_mut_ptr(),
            lanes: if self.lanes.is_empty() {
                std::ptr::null_mut()
            } else {
                self.lanes.as_mut_ptr()
            },
            len: self.nodes.len(),
            shards,
            kind,
            heat: if self.rack.is_some() {
                self.heat_scratch.as_mut_ptr()
            } else {
                std::ptr::null_mut()
            },
            outs: self.shard_outs.as_mut_ptr(),
            scratch: if teeing { self.event_scratch.as_mut_ptr() } else { std::ptr::null_mut() },
        };
        let journal = self.journal.as_deref_mut();
        let Some(pool) = &self.pool else {
            // SAFETY: no pool — this thread owns the lone shard.
            unsafe { exec_shard(&job, 0, journal) };
            return;
        };
        // SAFETY: the job's pointers come from fields borrowed for this
        // whole call, laid out as `Job` documents.
        unsafe { pool.run(job, journal) };
        if let Some(journal) = &mut self.journal {
            for scratch in &mut self.event_scratch {
                for rec in &scratch.records {
                    journal.record(rec);
                }
                scratch.records.clear();
            }
        }
    }

    /// Rack air coupling: folds the per-node heat slots in node order (the
    /// same `heat += …` summation at every width), steps the shared
    /// intake-air volume, and fans the new ambient out — to every lane, or
    /// on the scalar route to every node.
    fn step_rack(&mut self, dt: f64) {
        let Some(rack) = &mut self.rack else { return };
        let heat = self.heat_scratch.iter().fold(0.0f64, |acc, h| acc + h);
        rack.step(dt, heat);
        let air = rack.air_c();
        if self.lanes.is_empty() {
            for ns in &mut self.nodes {
                ns.node.set_ambient_c(air);
            }
        }
        for lanes in &mut self.lanes {
            lanes.batch.set_ambient_all(air);
        }
    }

    /// Appends the rack air sample when a rack is coupled and series
    /// recording is on.
    fn record_rack_air(&mut self) {
        if let Some(rack) = &self.rack {
            if self.scenario.record_series {
                self.rack_air.push(self.time_s, rack.air_c());
            }
        }
    }

    /// True when every rank's workload finished.
    pub fn all_finished(&self) -> bool {
        self.finished_nodes == self.nodes.len()
    }

    /// Runs to completion (every rank finished, plus the configured
    /// cooldown) or to the time limit, whichever comes first, and produces
    /// the report.
    pub fn run(mut self) -> RunReport {
        let finite = self.scenario.workload.is_finite();
        let mut finished_at: Option<f64> = None;
        while self.time_s < self.scenario.max_time_s {
            self.tick();
            if finite && finished_at.is_none() && self.all_finished() {
                finished_at = Some(self.time_s);
            }
            if let Some(t) = finished_at {
                if self.time_s >= t + self.scenario.cooldown_s {
                    break;
                }
            }
        }
        self.into_report()
    }

    /// Stores every node's physics lanes back into its scalar `Node` and
    /// flushes the batched-tick counters (a no-op on the scalar route).
    /// Idempotent — a second call with no ticks in between stores the same
    /// bits and drains zero skipped ticks.
    fn sync_lanes(&mut self) {
        let shards = self.lanes.len();
        let len = self.nodes.len();
        for (s, lanes) in self.lanes.iter_mut().enumerate() {
            let range = shard_range(len, shards, s);
            for (j, ns) in self.nodes[range].iter_mut().enumerate() {
                lanes.batch.store(j, &mut ns.node);
                ns.counters.ticks_skipped += lanes.batch.take_skipped(j);
            }
        }
    }

    /// Finalizes the report from the current state.
    pub fn into_report(mut self) -> RunReport {
        self.sync_lanes();
        let completed = self.nodes.iter().all(|ns| ns.finish_time_s.is_some());
        let exec_time_s = if completed {
            self.nodes.iter().filter_map(|ns| ns.finish_time_s).fold(0.0f64, f64::max)
        } else {
            self.time_s
        };

        let journal_warning = self.journal.as_ref().and_then(|j| j.sink_error());

        let nodes = self
            .nodes
            .into_iter()
            .map(|ns| NodeReport {
                temp: ns.rec.temp,
                duty: ns.rec.duty,
                freq: ns.rec.freq,
                power: ns.rec.power,
                util: ns.rec.util,
                freq_events: ns.rec.freq_events,
                freq_transitions: ns.node.cpu().freq_transition_count(),
                throttle_events: ns.node.cpu().throttle_event_count(),
                failsafe_engagements: ns.plane.failsafe_engagement_count(),
                shut_down: ns.node.cpu().is_shut_down(),
                avg_wall_power_w: ns.node.meter().average_power_w(),
                energy_j: ns.node.meter().energy_j(),
                temp_summary: ns.rec.temp_stats.summary(),
                duty_summary: ns.rec.duty_stats.summary(),
                finish_time_s: ns.finish_time_s,
                counters: ns.counters,
                events_dropped: ns.events.dropped(),
                events: ns.events.to_vec(),
                faults_applied: ns.node.fault_log().to_vec(),
            })
            .collect();

        RunReport {
            name: self.scenario.name.clone(),
            fan_label: self.scenario.fan_label(),
            dvfs_label: self.scenario.dvfs_label(),
            workload_label: self.scenario.workload.label(),
            nodes,
            wall_time_s: self.time_s,
            completed,
            exec_time_s,
            rack_air: if self.rack.is_some() { Some(self.rack_air) } else { None },
            journal_warning,
        }
    }
}

// --- Per-shard pass bodies -----------------------------------------------
//
// `pool::exec_shard` runs these over one shard's slice of the nodes plus
// the shard's lanes (`None` on the scalar route). `nodes` and the lanes
// are index-aligned: slot `i` of the batch mirrors `nodes[i]`.

/// Pass A: advance every rank's workload and fold the barrier flags into
/// `out`. On the lane route ranks read their execution speed from and write
/// their load into the lanes; on the scalar route they use their `Node`.
pub(crate) fn workload_pass(
    nodes: &mut [NodeSim],
    batch: Option<&mut PhysicsBatch>,
    dt_s: f64,
    out: &mut ShardOut,
) {
    fn fold(out: &mut ShardOut, state: WorkState) {
        match state {
            WorkState::AtBarrier(_) => out.any_parked = true,
            WorkState::Finished => {}
            _ => out.unfinished_parked = false,
        }
    }
    out.unfinished_parked = true;
    out.any_parked = false;
    let Some(batch) = batch else {
        for ns in nodes {
            fold(out, ns.tick_workload(dt_s));
        }
        return;
    };
    for (i, ns) in nodes.iter_mut().enumerate() {
        let speed = batch.speed_factor(i);
        let w = ns.workload.advance(dt_s, speed);
        batch.set_load(i, w.utilization, w.activity);
        // Endless workloads are `Running` by contract — skip the second
        // virtual dispatch on the hot path.
        if ns.endless {
            out.unfinished_parked = false;
            continue;
        }
        fold(out, ns.workload.state());
    }
}

/// Pass B: optional barrier release, fault delivery, per-tick daemons +
/// physics, per-node heat capture, finish detection.
///
/// On the lane route barrier release and finish detection touch only
/// workload state — disjoint from the physics lanes — so they hoist into
/// their own ascending-index loops around `tick_all` without perturbing
/// per-node evaluation order. Only the shard's faulted slots are checked for
/// a fault due; `FaultInjected` events are the route's only pass-B events,
/// emitted in slot order, so the journal stream matches the scalar route.
#[allow(clippy::too_many_arguments)] // mirrors PassKind::Hardware exactly
pub(crate) fn hardware_pass(
    nodes: &mut [NodeSim],
    lanes: Option<&mut ShardLanes>,
    dt_s: f64,
    now_s: f64,
    release: bool,
    finite: bool,
    mut heat: Option<&mut [f64]>,
    mut journal: Option<&mut (dyn EventSink + 'static)>,
    out: &mut ShardOut,
) {
    out.finished_delta = 0;
    let Some(ShardLanes { batch, faulted }) = lanes else {
        for (i, ns) in nodes.iter_mut().enumerate() {
            if release {
                ns.workload.release_barrier();
            }
            ns.tick_hardware(dt_s, now_s, journal.as_deref_mut());
            if let Some(heat) = heat.as_deref_mut() {
                heat[i] = ns.node.heat_output_w();
            }
            if ns.finish_time_s.is_none() && ns.workload.is_finished() {
                ns.finish_time_s = Some(now_s);
                out.finished_delta += 1;
            }
        }
        return;
    };
    batch.begin_tick(dt_s);
    if release {
        for ns in nodes.iter_mut() {
            ns.workload.release_barrier();
        }
    }
    for &i in faulted.iter() {
        nodes[i].sync_due_faults(batch, i, now_s, journal.as_deref_mut());
    }
    batch.tick_all(dt_s);
    if let Some(heat) = heat {
        batch.write_heat(heat);
    }
    if finite {
        for ns in nodes.iter_mut() {
            if ns.finish_time_s.is_none() && ns.workload.is_finished() {
                ns.finish_time_s = Some(now_s);
                out.finished_delta += 1;
            }
        }
    }
}

/// The 4 Hz sampling pass: sensor read, control plane, recorders. On the
/// lane route each rank's lanes store back into its `Node` first and reload
/// after the possibly-actuating daemons — fused per node so each node's
/// cache lines are touched once per sample. Batched ticks flush into the
/// node's `ticks_skipped` counter here, exactly matching the scalar route's
/// per-tick early-out accounting.
pub(crate) fn sample_pass(
    nodes: &mut [NodeSim],
    batch: Option<&mut PhysicsBatch>,
    now_s: f64,
    mut journal: Option<&mut (dyn EventSink + 'static)>,
) {
    let Some(batch) = batch else {
        for ns in nodes {
            ns.on_sample(now_s, journal.as_deref_mut());
        }
        return;
    };
    for (i, ns) in nodes.iter_mut().enumerate() {
        batch.store(i, &mut ns.node);
        ns.counters.ticks_skipped += batch.take_skipped(i);
        ns.on_sample(now_s, journal.as_deref_mut());
        batch.reload_control(i, &ns.node);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::WorkloadSpec;
    use crate::scheme::{DvfsScheme, FanScheme};
    use unitherm_core::control_array::Policy;
    use unitherm_workload::{NpbBenchmark, NpbClass, Segment};

    #[test]
    fn effective_width_table() {
        const M: usize = MIN_NODES_PER_SHARD;
        // 0 or 1 requested threads: always width 1.
        assert_eq!(effective_width(0, 100 * M), 1);
        assert_eq!(effective_width(1, 100 * M), 1);
        // Fewer than MIN nodes per extra shard: no pool.
        assert_eq!(effective_width(2, 1), 1);
        assert_eq!(effective_width(4, M - 1), 1);
        assert_eq!(effective_width(2, 2 * M - 1), 1);
        // Exact multiples open one shard per MIN nodes, up to `threads`.
        assert_eq!(effective_width(2, 2 * M), 2);
        assert_eq!(effective_width(4, 3 * M), 3);
        assert_eq!(effective_width(4, 4 * M), 4);
        assert_eq!(effective_width(7, 7 * M + 3), 7);
        // More threads than nodes (or than MIN-sized shards): capped.
        assert_eq!(effective_width(16, 2), 1);
        assert_eq!(effective_width(64, 8 * M), 8);
    }

    #[test]
    fn idle_cluster_stays_cool_and_runs_to_limit() {
        let report = Simulation::new(
            Scenario::new("idle")
                .with_nodes(2)
                .with_workload(WorkloadSpec::Idle)
                .with_max_time(30.0),
        )
        .run();
        assert!(!report.completed, "idle runs to the limit");
        assert!((report.wall_time_s - 30.0).abs() < 0.1);
        assert!(report.avg_temp_c() < 45.0, "idle temp {}", report.avg_temp_c());
        assert_eq!(report.total_freq_transitions(), 0);
    }

    #[test]
    fn failed_journal_sink_surfaces_as_report_warning() {
        struct Failing;
        impl std::io::Write for Failing {
            fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::new(std::io::ErrorKind::BrokenPipe, "disk full"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let scenario = Scenario::new("burn")
            .with_nodes(1)
            .with_workload(WorkloadSpec::CpuBurn)
            .with_fan(FanScheme::dynamic(Policy::MODERATE, 60))
            .with_max_time(30.0);

        // JSONL sink: first event write fails, and the report says so.
        let mut sim = Simulation::new(scenario.clone());
        sim.attach_journal(Box::new(unitherm_obs::JournalWriter::new(Failing)));
        let report = sim.run();
        let warning = report.journal_warning.expect("failed sink must be surfaced");
        assert!(warning.contains("disk full"), "{warning}");

        // Binary sink: the header write already fails.
        let mut sim = Simulation::new(scenario.clone());
        sim.attach_binary_journal(Failing);
        let report = sim.run();
        assert!(report.journal_warning.is_some(), "binary sink failure must be surfaced");

        // A healthy sink leaves the warning empty.
        let mut sim = Simulation::new(scenario);
        sim.attach_binary_journal(Vec::new());
        let report = sim.run();
        assert_eq!(report.journal_warning, None);
    }

    #[test]
    fn npb_job_completes_near_nominal_time() {
        let report = Simulation::new(
            Scenario::new("bt-a")
                .with_nodes(4)
                .with_workload(WorkloadSpec::Npb { bench: NpbBenchmark::Bt, class: NpbClass::A })
                .with_fan(FanScheme::Constant { duty: 75 })
                .with_max_time(200.0),
        )
        .run();
        assert!(report.completed, "BT.A must finish within 200 s");
        let nominal = NpbBenchmark::Bt.nominal_duration_s(NpbClass::A);
        assert!(
            (report.exec_time_s - nominal).abs() < nominal * 0.10,
            "exec {} vs nominal {nominal}",
            report.exec_time_s
        );
    }

    #[test]
    fn barrier_couples_ranks() {
        // All ranks must finish within a whisker of each other despite
        // per-rank wobble, because barriers re-synchronize every iteration.
        let report = Simulation::new(
            Scenario::new("bt-a")
                .with_nodes(4)
                .with_workload(WorkloadSpec::Npb { bench: NpbBenchmark::Bt, class: NpbClass::A })
                .with_fan(FanScheme::Constant { duty: 75 })
                .with_max_time(200.0),
        )
        .run();
        let finishes: Vec<f64> = report.nodes.iter().map(|n| n.finish_time_s.unwrap()).collect();
        let spread = finishes.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - finishes.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(spread < 1.0, "finish spread {spread} ({finishes:?})");
    }

    #[test]
    fn script_workload_completes() {
        let report = Simulation::new(
            Scenario::new("script")
                .with_nodes(1)
                .with_workload(WorkloadSpec::Script(vec![
                    Segment::new(5.0, 1.0),
                    Segment::new(5.0, 0.1),
                ]))
                .with_max_time(60.0),
        )
        .run();
        assert!(report.completed);
        assert!((report.exec_time_s - 10.0).abs() < 0.5, "exec {}", report.exec_time_s);
    }

    #[test]
    fn deterministic_given_seed() {
        let build = || {
            Scenario::new("det")
                .with_nodes(2)
                .with_seed(77)
                .with_workload(WorkloadSpec::CpuBurn)
                .with_fan(FanScheme::dynamic(Policy::MODERATE, 100))
                .with_max_time(60.0)
        };
        let a = Simulation::new(build()).run();
        let b = Simulation::new(build()).run();
        assert_eq!(a.avg_node_power_w(), b.avg_node_power_w());
        assert_eq!(a.avg_temp_c(), b.avg_temp_c());
        assert_eq!(a.nodes[0].temp.samples(), b.nodes[0].temp.samples());
    }

    #[test]
    fn dynamic_fan_cools_burn_vs_weak_policy() {
        let run = |pp: u32| {
            Simulation::new(
                Scenario::new(format!("burn-p{pp}"))
                    .with_nodes(1)
                    .with_workload(WorkloadSpec::CpuBurn)
                    .with_fan(FanScheme::dynamic(Policy::new(pp).unwrap(), 100))
                    .with_max_time(240.0),
            )
            .run()
        };
        let aggressive = run(25);
        let weak = run(75);
        assert!(
            aggressive.avg_temp_c() < weak.avg_temp_c(),
            "P25 {} vs P75 {}",
            aggressive.avg_temp_c(),
            weak.avg_temp_c()
        );
        assert!(
            aggressive.avg_duty_pct() > weak.avg_duty_pct(),
            "P25 duty {} vs P75 duty {}",
            aggressive.avg_duty_pct(),
            weak.avg_duty_pct()
        );
    }

    #[test]
    fn tdvfs_events_recorded_with_capped_fan() {
        let report = Simulation::new(
            Scenario::new("tdvfs")
                .with_nodes(1)
                .with_workload(WorkloadSpec::CpuBurn)
                .with_fan(FanScheme::dynamic(Policy::MODERATE, 25))
                .with_dvfs(DvfsScheme::tdvfs(Policy::MODERATE))
                .with_max_time(240.0),
        )
        .run();
        assert!(report.total_freq_transitions() > 0, "tDVFS must engage");
        assert!(report.first_dvfs_event_time_s().is_some());
        assert!(report.min_commanded_freq_mhz().unwrap() < 2400);
    }

    #[test]
    fn report_reflects_scenario_labels() {
        let report = Simulation::new(
            Scenario::new("labels")
                .with_nodes(1)
                .with_workload(WorkloadSpec::Idle)
                .with_fan(FanScheme::Constant { duty: 50 })
                .with_dvfs(DvfsScheme::cpuspeed())
                .with_max_time(5.0),
        )
        .run();
        assert_eq!(report.name, "labels");
        assert_eq!(report.fan_label, "constant(50%)");
        assert_eq!(report.dvfs_label, "CPUSPEED");
        assert_eq!(report.workload_label, "idle");
    }
}
