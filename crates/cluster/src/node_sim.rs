//! Per-node simulation state: hardware, platform binding, control plane,
//! recorders.
//!
//! The daemon wiring that used to live here as ad-hoc enums is gone: a
//! node's control scheme is described by a
//! [`SchemeSpec`](unitherm_core::control_plane::SchemeSpec), turned into a
//! daemon pipeline by its single `build()` factory, and run by the core
//! [`ControlPlane`] against the node's probed [`PlatformBinding`] — the
//! same path the hwmon `ControlStack` uses.

use unitherm_core::actuator::FreqMhz;
use unitherm_core::control_plane::{BuildContext, ControlPlane, SensorSample};
use unitherm_hwmon::{LmSensors, PlatformActuators, PlatformBinding};
use unitherm_metrics::{RunningStats, TimeSeries};
use unitherm_obs::{Counters, EventSink, Observer, RingSink, TeeSink};
use unitherm_simnode::faults::FaultPlan;
use unitherm_simnode::{Node, PhysicsBatch};
use unitherm_workload::{WorkState, Workload};

use crate::replay::classify_fault;
use crate::scenario::Scenario;

/// Recorded traces and counters for one node.
pub struct NodeRecorder {
    /// Sensor temperature (°C) at each sample.
    pub temp: TimeSeries,
    /// Commanded fan duty (%) at each sample.
    pub duty: TimeSeries,
    /// Requested CPU frequency (MHz) at each sample.
    pub freq: TimeSeries,
    /// Instantaneous wall power (W) at each sample.
    pub power: TimeSeries,
    /// CPU utilization at each sample.
    pub util: TimeSeries,
    /// Frequency-change events: `(time, new MHz)`.
    pub freq_events: Vec<(f64, FreqMhz)>,
    /// Whether series recording is enabled.
    pub enabled: bool,
    /// Streaming temperature statistics (kept even when series recording is
    /// off, so benchmark-mode runs still report averages).
    pub temp_stats: RunningStats,
    /// Streaming commanded-duty statistics.
    pub duty_stats: RunningStats,
}

impl NodeRecorder {
    /// `expected_samples` pre-reserves the series so steady-state recording
    /// appends without reallocating (0 when recording is disabled).
    ///
    /// A disabled recorder allocates nothing at all — no metric-name
    /// strings, no series or event capacity — so fleet-scale benchmark runs
    /// (100k nodes, recording off) pay zero heap for recorders.
    fn new(node_idx: usize, enabled: bool, expected_samples: usize) -> Self {
        let n = |metric: &str| {
            if enabled {
                format!("node{node_idx}.{metric}")
            } else {
                String::new()
            }
        };
        let u = |unit: &'static str| if enabled { unit } else { "" };
        let cap = if enabled { expected_samples } else { 0 };
        // Frequency events arrive at most once per sample; a quarter of the
        // sample count absorbs even a thrashing governor without growth,
        // while short scenarios stay at a small floor instead of a flat 64.
        let event_cap = if enabled { (expected_samples / 4).clamp(8, 4096) } else { 0 };
        Self {
            temp: TimeSeries::with_capacity(n("temp"), u("°C"), cap),
            duty: TimeSeries::with_capacity(n("duty"), u("%"), cap),
            freq: TimeSeries::with_capacity(n("freq"), u("MHz"), cap),
            power: TimeSeries::with_capacity(n("power"), u("W"), cap),
            util: TimeSeries::with_capacity(n("util"), u(""), cap),
            freq_events: Vec::with_capacity(event_cap),
            enabled,
            temp_stats: RunningStats::new(),
            duty_stats: RunningStats::new(),
        }
    }
}

/// One node's full simulation state.
pub struct NodeSim {
    /// The simulated hardware.
    pub node: Node,
    /// The rank's workload.
    pub workload: Box<dyn Workload>,
    /// lm-sensors access.
    pub lm: LmSensors,
    /// The daemon pipeline (built by `SchemeSpec::build`) plus failsafe.
    pub plane: ControlPlane,
    /// The probed hardware seams the plane actuates through.
    pub binding: PlatformBinding,
    /// Trace recorder.
    pub rec: NodeRecorder,
    /// Wall-clock second at which this rank's workload finished.
    pub finish_time_s: Option<f64>,
    /// This node's rank index (stamped into emitted event records).
    pub index: u32,
    /// Fixed-capacity ring of the most recent control-plane events
    /// (allocation-free in steady state; capacity from the scenario).
    pub events: RingSink,
    /// Monotonic control-plane counters for this node.
    pub counters: Counters,
    /// Watermark into `Node::fault_log`: entries before it have already
    /// been emitted as `FaultInjected` events.
    fault_log_seen: usize,
    /// True when the workload reports `Running` forever (never parks,
    /// never finishes) — lets the fleet skip its per-tick state poll.
    pub(crate) endless: bool,
}

impl NodeSim {
    /// Builds one node per the scenario: probe the binding the scheme
    /// needs, build the daemon pipeline through the scheme factory, attach.
    pub fn build(scenario: &Scenario, node_idx: usize) -> Self {
        let seed = scenario.node_seed(node_idx);
        let faults = scenario
            .faults
            .iter()
            .find(|(n, _)| *n == node_idx)
            .map(|(_, p)| p.clone())
            .unwrap_or_else(FaultPlan::none);
        let mut node = Node::with_faults(scenario.node_config_for(node_idx).clone(), seed, faults);
        if let Some((_, schedule)) = scenario.tick_faults.iter().find(|(n, _)| *n == node_idx) {
            node.set_tick_faults(schedule.clone());
        }
        let workload = scenario.workload.instantiate(node_idx, scenario.seed);

        let spec = scenario.effective_scheme(node_idx);
        let mut binding =
            PlatformBinding::probe(&mut node, &spec).expect("chip reachable at build time");
        let ctx = BuildContext { available_mhz: PlatformBinding::available_mhz(&node) };
        let mut plane = ControlPlane::new(spec.build(&ctx), scenario.failsafe);
        let attach_sample = SensorSample {
            now_s: 0.0,
            fresh_temp_c: None,
            temp_c: None,
            utilization: node.utilization(),
            die_temp_c: node.die_temp_c(),
        };
        plane.attach(
            &attach_sample,
            &mut PlatformActuators { node: &mut node, binding: &mut binding },
        );
        let endless = workload.is_endless();

        Self {
            node,
            workload,
            lm: LmSensors::new(),
            plane,
            binding,
            rec: NodeRecorder::new(node_idx, scenario.record_series, scenario.expected_samples()),
            finish_time_s: None,
            index: node_idx as u32,
            events: RingSink::with_capacity(scenario.event_capacity),
            counters: Counters::default(),
            fault_log_seen: 0,
            endless,
        }
    }

    /// Advances the workload by one tick and applies its utilization to the
    /// CPU. Returns the rank's state after the tick.
    pub fn tick_workload(&mut self, dt_s: f64) -> WorkState {
        let speed = self.node.speed_factor();
        let out = self.workload.advance(dt_s, speed);
        self.node.set_load(out.utilization, out.activity);
        self.workload.state()
    }

    /// Advances the physics and per-tick daemons (CPUSPEED observes
    /// utilization every tick). `journal` additionally receives any events
    /// the per-tick daemons emit (None on the allocation-free default path).
    pub fn tick_hardware(
        &mut self,
        dt_s: f64,
        now_s: f64,
        mut journal: Option<&mut (dyn EventSink + 'static)>,
    ) {
        let util = self.node.utilization();
        let applied = match journal.as_deref_mut() {
            None => {
                let mut obs =
                    Observer::new(&mut self.events, &mut self.counters, self.index, now_s);
                self.plane.on_tick_observed(
                    dt_s,
                    util,
                    &mut PlatformActuators { node: &mut self.node, binding: &mut self.binding },
                    &mut obs,
                )
            }
            Some(journal) => {
                let mut tee = TeeSink::new(&mut self.events, journal);
                let mut obs = Observer::new(&mut tee, &mut self.counters, self.index, now_s);
                self.plane.on_tick_observed(
                    dt_s,
                    util,
                    &mut PlatformActuators { node: &mut self.node, binding: &mut self.binding },
                    &mut obs,
                )
            }
        };
        if let Some(mhz) = applied {
            if self.rec.enabled {
                self.rec.freq_events.push((now_s, mhz));
            }
        }
        self.node.tick(dt_s);
        self.emit_fault_events(now_s, journal);
    }

    /// The lane route's fault sync for this node, which sits in slot `i` of
    /// `batch`: on a tick where a fault is due, store the slot into the
    /// node, deliver the due faults (the same [`Node::deliver_due_faults`]
    /// the scalar tick runs), load the slot back and emit the
    /// `FaultInjected` events. Call between `batch.begin_tick` and
    /// `batch.tick_all`. Store and load are full copies, so any state a
    /// fault touches reaches the lanes.
    pub(crate) fn sync_due_faults(
        &mut self,
        batch: &mut PhysicsBatch,
        i: usize,
        now_s: f64,
        journal: Option<&mut (dyn EventSink + 'static)>,
    ) {
        if !self.node.has_fault_due(batch.ticks(), batch.time_s()) {
            return;
        }
        batch.store(i, &mut self.node);
        self.node.deliver_due_faults();
        batch.load(i, &self.node);
        self.emit_fault_events(now_s, journal);
    }

    /// Emits a `FaultInjected` event for every fault the node's plans
    /// delivered during the tick that just ran, on either route and at any
    /// width (worker shards' journal scratch drains in node order), so the
    /// journal stream stays route- and width-invariant. No-op — and
    /// allocation-free — on fault-free ticks.
    fn emit_fault_events(&mut self, now_s: f64, journal: Option<&mut (dyn EventSink + 'static)>) {
        let log = self.node.fault_log();
        if self.fault_log_seen >= log.len() {
            return;
        }
        let start = self.fault_log_seen;
        self.fault_log_seen = log.len();
        // The log slice borrows `self.node`; the observer borrows the
        // disjoint `events`/`counters` fields, so both can be live at once.
        let log = self.node.fault_log();
        match journal {
            None => {
                let mut obs =
                    Observer::new(&mut self.events, &mut self.counters, self.index, now_s);
                for &(_, ev) in &log[start..] {
                    let (kind, magnitude) = classify_fault(ev);
                    obs.fault_injected(kind, magnitude);
                }
            }
            Some(journal) => {
                let mut tee = TeeSink::new(&mut self.events, journal);
                let mut obs = Observer::new(&mut tee, &mut self.counters, self.index, now_s);
                for &(_, ev) in &log[start..] {
                    let (kind, magnitude) = classify_fault(ev);
                    obs.fault_injected(kind, magnitude);
                }
            }
        }
    }

    /// Runs the 4 Hz sampling path: read the sensor, hand the sample to the
    /// control plane (failsafe supervision + daemon pipeline), record
    /// traces. Emitted events land in this node's ring (and `journal`, when
    /// one is attached).
    pub fn on_sample(&mut self, now_s: f64, journal: Option<&mut (dyn EventSink + 'static)>) {
        // Hottest-sensor read. `fresh` distinguishes a live reading from
        // the stale fallback the controllers tolerate — the failsafe cares
        // about the difference.
        let fresh = self.lm.read_hottest_celsius(&mut self.node).ok();
        let temp = fresh
            .or_else(|| self.lm.last_good().map(unitherm_simnode::units::MilliCelsius::to_celsius));
        let sample = SensorSample {
            now_s,
            fresh_temp_c: fresh,
            temp_c: temp,
            utilization: self.node.utilization(),
            die_temp_c: self.node.die_temp_c(),
        };
        let out = match journal {
            None => {
                let mut obs =
                    Observer::new(&mut self.events, &mut self.counters, self.index, now_s);
                self.plane.on_sample_observed(
                    &sample,
                    &mut PlatformActuators { node: &mut self.node, binding: &mut self.binding },
                    &mut obs,
                )
            }
            Some(journal) => {
                let mut tee = TeeSink::new(&mut self.events, journal);
                let mut obs = Observer::new(&mut tee, &mut self.counters, self.index, now_s);
                self.plane.on_sample_observed(
                    &sample,
                    &mut PlatformActuators { node: &mut self.node, binding: &mut self.binding },
                    &mut obs,
                )
            }
        };
        // Daemon-confirmed frequency changes are trace events; frequencies
        // forced by a failsafe engagement are not (they bypass the driver).
        if let Some(mhz) = out.freq_mhz {
            if self.rec.enabled {
                self.rec.freq_events.push((now_s, mhz));
            }
        }

        // Read the two summary inputs directly; a full `node.state()`
        // snapshot recomputes the wall-power law per sample, which the
        // recording-off fast path never uses.
        let duty = f64::from(self.node.fan().duty().percent());
        if let Some(t) = temp {
            self.rec.temp_stats.push(t);
        }
        self.rec.duty_stats.push(duty);
        if self.rec.enabled {
            if let Some(t) = temp {
                self.rec.temp.push(now_s, t);
            }
            self.rec.duty.push(now_s, duty);
            self.rec.freq.push(now_s, f64::from(self.node.requested_frequency_khz() / 1000));
            self.rec.power.push(now_s, self.node.wall_power_w());
            self.rec.util.push(now_s, self.node.utilization());
        }
    }

    /// The duty the fan daemon currently commands (for diagnostics).
    pub fn commanded_duty(&self) -> u8 {
        self.binding
            .fan_driver()
            .map_or_else(|| self.node.state().fan_duty.percent(), |d| d.last_commanded())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::WorkloadSpec;
    use crate::scheme::{DvfsScheme, FanScheme, SchemeSpec};
    use unitherm_core::control_array::Policy;

    fn scenario_with(fan: FanScheme, dvfs: DvfsScheme) -> Scenario {
        Scenario::new("node-sim-test")
            .with_nodes(1)
            .with_fan(fan)
            .with_dvfs(dvfs)
            .with_workload(WorkloadSpec::CpuBurn)
    }

    /// Drives a lone node for `seconds`.
    fn run(ns: &mut NodeSim, seconds: f64) {
        let dt = 0.05;
        let per_sample = 5; // 0.25 s
        let steps = (seconds / dt).round() as usize;
        for i in 0..steps {
            let _ = ns.tick_workload(dt);
            let now = (i + 1) as f64 * dt;
            ns.tick_hardware(dt, now, None);
            if (i + 1) % per_sample == 0 {
                ns.on_sample(now, None);
            }
        }
    }

    #[test]
    fn chip_auto_needs_no_driver() {
        let sc = scenario_with(FanScheme::ChipAutomatic { max_duty: 75 }, DvfsScheme::None);
        let mut ns = NodeSim::build(&sc, 0);
        run(&mut ns, 120.0);
        // Burn heats the node; the chip's auto curve raises duty but never
        // past the hardware cap.
        let duty = ns.node.state().fan_duty.percent();
        assert!(duty > 10, "auto curve responded: {duty}");
        assert!(duty <= 75);
    }

    #[test]
    fn constant_scheme_pins_duty() {
        let sc = scenario_with(FanScheme::Constant { duty: 75 }, DvfsScheme::None);
        let mut ns = NodeSim::build(&sc, 0);
        run(&mut ns, 60.0);
        assert_eq!(ns.node.state().fan_duty.percent(), 75);
        assert_eq!(ns.commanded_duty(), 75);
    }

    #[test]
    fn dynamic_scheme_raises_duty_under_burn() {
        let sc = scenario_with(FanScheme::dynamic(Policy::MODERATE, 100), DvfsScheme::None);
        let mut ns = NodeSim::build(&sc, 0);
        run(&mut ns, 200.0);
        assert!(
            ns.commanded_duty() > 20,
            "dynamic controller should have engaged: {}",
            ns.commanded_duty()
        );
    }

    #[test]
    fn static_software_follows_temperature() {
        let sc = scenario_with(
            FanScheme::SoftwareStatic {
                curve: unitherm_core::baseline::StaticFanCurve::with_max(75),
            },
            DvfsScheme::None,
        );
        let mut ns = NodeSim::build(&sc, 0);
        run(&mut ns, 200.0);
        let temp = ns.node.die_temp_c();
        let expected = unitherm_core::baseline::StaticFanCurve::with_max(75).duty_for(temp);
        let actual = ns.commanded_duty();
        assert!(
            (i32::from(actual) - i32::from(expected)).abs() <= 6,
            "static daemon tracks the curve: {actual} vs {expected} at {temp}°C"
        );
    }

    #[test]
    fn cpuspeed_daemon_changes_frequencies() {
        let sc = scenario_with(FanScheme::ChipAutomatic { max_duty: 100 }, DvfsScheme::cpuspeed());
        let mut ns = NodeSim::build(&sc, 0);
        run(&mut ns, 250.0);
        // Burn alternates bursts and gaps; the governor must have reacted.
        assert!(
            ns.node.cpu().freq_transition_count() > 0,
            "CPUSPEED should transition on burn gaps"
        );
        assert!(!ns.rec.freq_events.is_empty());
    }

    #[test]
    fn tdvfs_daemon_scales_when_fan_capped() {
        let sc = scenario_with(
            FanScheme::dynamic(Policy::MODERATE, 20),
            DvfsScheme::tdvfs(Policy::MODERATE),
        );
        let mut ns = NodeSim::build(&sc, 0);
        run(&mut ns, 280.0);
        // A 20 %-capped fan cannot hold burn below 51 °C, so tDVFS must have
        // scaled down at least once (it may legitimately have restored the
        // original frequency during a burn gap by the end of the run).
        assert!(ns.node.cpu().freq_transition_count() > 0, "tDVFS never engaged");
        assert!(
            ns.rec.freq_events.iter().any(|&(_, f)| f < 2400),
            "no scale-down recorded: {:?}",
            ns.rec.freq_events
        );
    }

    #[test]
    fn hybrid_scheme_runs_from_a_scenario() {
        let sc = scenario_with(FanScheme::ChipAutomatic { max_duty: 100 }, DvfsScheme::None)
            .with_scheme(SchemeSpec::hybrid(Policy::MODERATE, 20));
        let mut ns = NodeSim::build(&sc, 0);
        assert_eq!(ns.plane.labels(), vec!["dynamic-fan", "tdvfs"]);
        run(&mut ns, 280.0);
        // The capped hybrid fan saturates; coordination hands off to tDVFS.
        assert!(ns.commanded_duty() >= 15, "fan arm engaged: {}", ns.commanded_duty());
        assert!(
            ns.rec.freq_events.iter().any(|&(_, f)| f < 2400),
            "hybrid tDVFS arm never scaled down: {:?}",
            ns.rec.freq_events
        );
    }

    #[test]
    fn acpi_sleep_scheme_gates_the_cpu() {
        let sc = scenario_with(FanScheme::ChipAutomatic { max_duty: 100 }, DvfsScheme::None)
            .with_scheme(SchemeSpec::acpi_sleep(
                Policy::AGGRESSIVE,
                FanScheme::Constant { duty: 10 },
            ));
        let mut ns = NodeSim::build(&sc, 0);
        assert_eq!(ns.plane.labels(), vec!["constant-fan", "acpi-sleep"]);
        run(&mut ns, 280.0);
        // A 10 % fan cannot hold burn temperatures; the sleep controller
        // must have stepped out of C0 at some point.
        let daemon = ns
            .plane
            .daemon::<unitherm_core::control_plane::AcpiSleepDaemon>()
            .expect("sleep daemon attached");
        assert!(daemon.controller().stats().rounds > 0, "controller observed samples");
        assert!(
            ns.node.cpu().sleep_gate() < 1.0
                || daemon.current_state() != unitherm_core::acpi::SleepState::C0,
            "sleep controller never left C0 under a starved fan"
        );
    }

    #[test]
    fn recorder_captures_all_series() {
        let sc = scenario_with(FanScheme::ChipAutomatic { max_duty: 100 }, DvfsScheme::None);
        let mut ns = NodeSim::build(&sc, 0);
        run(&mut ns, 10.0);
        assert_eq!(ns.rec.temp.len(), 40);
        assert_eq!(ns.rec.duty.len(), 40);
        assert_eq!(ns.rec.freq.len(), 40);
        assert_eq!(ns.rec.power.len(), 40);
        assert_eq!(ns.rec.util.len(), 40);
    }

    #[test]
    fn events_and_counters_populate_under_dynamic_control() {
        let sc = scenario_with(FanScheme::dynamic(Policy::MODERATE, 100), DvfsScheme::None);
        let mut ns = NodeSim::build(&sc, 0);
        run(&mut ns, 200.0);
        assert!(ns.counters.samples > 0);
        assert!(ns.counters.events_emitted > 0, "dynamic fan must emit mode changes");
        assert!(
            ns.counters.l1_decisions + ns.counters.l2_fallbacks > 0,
            "window decisions counted"
        );
        assert!(!ns.events.is_empty());
        assert!(ns.events.iter().all(|r| r.node == 0));
    }

    #[test]
    fn journal_receives_teed_events() {
        let sc = scenario_with(FanScheme::dynamic(Policy::MODERATE, 100), DvfsScheme::None);
        let mut ns = NodeSim::build(&sc, 0);
        let mut journal = unitherm_obs::VecSink::default();
        let dt = 0.05;
        for i in 0..4000usize {
            let _ = ns.tick_workload(dt);
            let now = (i + 1) as f64 * dt;
            ns.tick_hardware(dt, now, Some(&mut journal));
            if (i + 1) % 5 == 0 {
                ns.on_sample(now, Some(&mut journal));
            }
        }
        assert!(!journal.records.is_empty(), "journal captured the stream");
        assert_eq!(journal.records.len() as u64, ns.counters.events_emitted);
    }

    #[test]
    fn recording_can_be_disabled() {
        let sc = scenario_with(FanScheme::ChipAutomatic { max_duty: 100 }, DvfsScheme::None)
            .with_recording(false);
        let mut ns = NodeSim::build(&sc, 0);
        run(&mut ns, 10.0);
        assert!(ns.rec.temp.is_empty());
    }
}
