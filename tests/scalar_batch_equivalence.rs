//! Property test pinning the structure-of-arrays contract: for any
//! scenario, `Simulation` must produce a bit-identical `RunReport` and
//! journal stream whether the physics runs through the `PhysicsBatch`
//! lanes or the scalar per-node tick (`Scenario::force_scalar`), at any
//! worker-pool width.
//!
//! The fixed-scenario thread-identity suite lives in `parallel_tick.rs`;
//! this file randomizes over the configuration space instead: fleet size,
//! seed, control scheme, workload (endless burn and the finite NPB path),
//! sample cadence, run length, and per-node time- and tick-addressed fault
//! plans over every fault kind. Faulted nodes stay on the lanes and take
//! their faults through pass B's store → deliver → load sync, which emits
//! their `FaultInjected` events; comparing the full journal stream pins
//! the order of those events against the scalar `Node::tick` reference.
//!
//! Each case compares FNV digests of the complete reports — traces,
//! counters, events — and the journal streams of scalar vs batched runs
//! twice: on the case's own small fleet (width 1), and on the same fleet
//! widened with plain nodes to `4 × MIN_NODES_PER_SHARD + nodes`, batched
//! at 1/2/4 threads. On the widened fleet the case's faults land both on
//! its own first nodes and again on the fleet's last nodes, so 2- and
//! 4-shard layouts deliver faults in the first and the last shard. Only
//! the widened fleet is large enough for `effective_width` to open 2- and
//! 4-shard pools (uneven ones, thanks to the case's own nodes); each
//! threaded run asserts its width so none can silently run serially.

use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use unitherm::cluster::{
    report_digest, DvfsScheme, FanScheme, Scenario, Simulation, WorkloadSpec, MIN_NODES_PER_SHARD,
};
use unitherm::core::control_array::Policy;
use unitherm::obs::{EventRecord, EventSink};
use unitherm::simnode::faults::{FaultEvent, FaultPlan, TickFaultSchedule};
use unitherm::workload::{NpbBenchmark, NpbClass};

/// One randomized scenario configuration.
#[derive(Debug, Clone)]
struct Case {
    nodes: usize,
    seed: u64,
    scheme: u8,
    workload: u8,
    sample_period_s: f64,
    max_time_s: f64,
    /// `(node, time, event)` triples; node is reduced modulo `nodes`.
    faults: Vec<(usize, f64, u8)>,
    /// `(node, tick, event)` triples, as replay derives them; node is
    /// reduced modulo `nodes`.
    tick_faults: Vec<(usize, u64, u8)>,
}

fn fault_event(code: u8) -> FaultEvent {
    match code % 10 {
        0 => FaultEvent::FanFailure,
        1 => FaultEvent::SensorDropout,
        2 => FaultEvent::I2cFailure,
        3 => FaultEvent::PwmStuck,
        4 => FaultEvent::AmbientStep(38.0),
        5 => FaultEvent::FanRepair,
        6 => FaultEvent::SensorRestore,
        7 => FaultEvent::I2cRecovery,
        8 => FaultEvent::PwmRelease,
        _ => FaultEvent::SensorJitter(1.5),
    }
}

/// The case's scenario on a fleet of `fleet` nodes. Each case node's
/// faults (merged into one plan and one schedule, since a scenario keeps
/// only the first entry per node) land on that node and, when the fleet is
/// wider than the case, again on the matching node among the fleet's last
/// `case.nodes`.
fn build(case: &Case, fleet: usize) -> Scenario {
    let mut s = Scenario::new("scalar-batch-equivalence")
        .with_nodes(fleet)
        .with_seed(case.seed)
        .with_max_time(case.max_time_s)
        .with_recording(true);
    s.sample_period_s = case.sample_period_s;
    s = match case.workload % 2 {
        0 => s.with_workload(WorkloadSpec::CpuBurn),
        _ => s.with_workload(WorkloadSpec::Npb { bench: NpbBenchmark::Bt, class: NpbClass::A }),
    };
    s = match case.scheme % 4 {
        0 => s.with_fan(FanScheme::dynamic(Policy::MODERATE, 100)),
        1 => s.with_fan(FanScheme::ChipAutomatic { max_duty: 100 }),
        2 => s
            .with_fan(FanScheme::dynamic(Policy::AGGRESSIVE, 100))
            .with_dvfs(DvfsScheme::tdvfs(Policy::AGGRESSIVE)),
        _ => s
            .with_fan(FanScheme::Constant { duty: 60 })
            .with_dvfs(DvfsScheme::tdvfs(Policy::MODERATE)),
    };
    let offsets: &[usize] = if fleet > case.nodes { &[0, fleet - case.nodes] } else { &[0] };
    for node in 0..case.nodes {
        let mut plan = FaultPlan::none();
        for &(_, time_s, code) in case.faults.iter().filter(|f| f.0 % case.nodes == node) {
            plan = plan.at(time_s, fault_event(code));
        }
        let mut schedule = TickFaultSchedule::none();
        for &(_, tick, code) in case.tick_faults.iter().filter(|f| f.0 % case.nodes == node) {
            schedule.schedule(tick, fault_event(code));
        }
        for &offset in offsets {
            if !plan.is_empty() {
                s = s.with_fault(offset + node, plan.clone());
            }
            if !schedule.is_empty() {
                s = s.with_tick_faults(offset + node, schedule.clone());
            }
        }
    }
    s
}

/// A journal that appends into a shared Vec, so the stream survives the
/// simulation consuming its boxed sink.
#[derive(Clone, Default)]
struct SharedSink(Arc<Mutex<Vec<EventRecord>>>);

impl EventSink for SharedSink {
    fn record(&mut self, rec: &EventRecord) {
        self.0.lock().expect("journal lock").push(*rec);
    }
}

/// Runs `scenario` at `width` shards with a journal attached; returns the
/// report digest and the journal stream.
fn run(scenario: Scenario, width: usize) -> (String, Vec<EventRecord>) {
    let sink = SharedSink::default();
    let stream = Arc::clone(&sink.0);
    let mut sim = Simulation::new(scenario);
    assert_eq!(sim.width(), width, "run must be {width} shards wide");
    sim.attach_journal(Box::new(sink));
    let digest = report_digest(&sim.run());
    let events = std::mem::take(&mut *stream.lock().expect("journal lock"));
    (digest, events)
}

/// Index of the first record where two journal streams differ (or the
/// shorter length), for failure messages that do not dump whole streams.
fn first_divergence(a: &[EventRecord], b: &[EventRecord]) -> usize {
    a.iter().zip(b).position(|(x, y)| x != y).unwrap_or(a.len().min(b.len()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn batch_report_matches_scalar_at_any_thread_count(
        nodes in 1usize..=6,
        seed in any::<u64>(),
        scheme in any::<u8>(),
        workload in any::<u8>(),
        sample_idx in 0usize..3,
        max_time_s in 8.0f64..30.0,
        faults in prop::collection::vec((0usize..6, 1.0f64..25.0, any::<u8>()), 0..=2),
        tick_faults in prop::collection::vec((0usize..6, 1u64..500, any::<u8>()), 0..=2),
    ) {
        let case = Case {
            nodes,
            seed,
            scheme,
            workload,
            sample_period_s: [0.25, 0.5, 1.0][sample_idx],
            max_time_s,
            faults,
            tick_faults,
        };
        let (want, want_events) = run(build(&case, case.nodes).with_force_scalar(true), 1);
        let (got, events) = run(build(&case, case.nodes), 1);
        prop_assert_eq!(&got, &want, "batched run diverged from scalar for {:?}", case);
        prop_assert!(
            events == want_events,
            "batched journal diverged from scalar at record {} for {:?}",
            first_divergence(&events, &want_events),
            case
        );

        let fleet = 4 * MIN_NODES_PER_SHARD + case.nodes;
        let (want, want_events) = run(build(&case, fleet).with_force_scalar(true), 1);
        for threads in [1usize, 2, 4] {
            let (got, events) = run(build(&case, fleet).with_threads(threads), threads);
            prop_assert_eq!(
                &got,
                &want,
                "widened batched run diverged from scalar at {} threads for {:?}",
                threads,
                case
            );
            prop_assert!(
                events == want_events,
                "widened batched journal diverged from scalar at {} threads, record {}, for {:?}",
                threads,
                first_divergence(&events, &want_events),
                case
            );
        }
    }
}
