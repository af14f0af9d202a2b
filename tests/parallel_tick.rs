//! Bit-identity of the intra-run node-parallel tick loop.
//!
//! A simulation run with `Scenario::threads > 1` shards its nodes across a
//! persistent worker pool; these tests pin the contract that sharding is
//! *unobservable* in the results: the full `RunReport` — every f64 trace
//! sample, every counter, every retained event record — is identical to
//! the serial run at every thread count, including odd shard sizes,
//! rack-coupled scenarios, and runs with a cluster-wide journal attached
//! (whose "tick order, node order within a tick" stream must also not
//! move).
//!
//! A run only shards as wide as `effective_width` allows — one shard per
//! `MIN_NODES_PER_SHARD` nodes — so every fleet here is sized from that
//! constant, and every threaded run asserts its width: a test that
//! silently fell back to the serial loop would compare serial to serial.

use std::sync::{Arc, Mutex};

use unitherm::cluster::{
    DvfsScheme, FanScheme, RackConfig, RunReport, Scenario, Simulation, WorkloadSpec,
    MIN_NODES_PER_SHARD,
};
use unitherm::core::control_array::Policy;
use unitherm::core::failsafe::FailsafeConfig;
use unitherm::obs::{EventRecord, EventSink};
use unitherm::simnode::faults::{FaultEvent, FaultPlan};
use unitherm::workload::{NpbBenchmark, NpbClass};

/// Full-fidelity image of a report: the serde encoding covers every field,
/// including event streams and counters, with exact f64 text round-trips.
fn image(report: &RunReport) -> String {
    serde_json::to_string(report).expect("report serializes")
}

/// Builds `scenario` at `threads`, checks it runs `width` shards wide, and
/// returns the full report image.
fn run_at(scenario: Scenario, threads: usize, width: usize) -> String {
    let sim = Simulation::new(scenario.with_threads(threads));
    assert_eq!(sim.width(), width, "{threads}-thread run must be {width} shards wide");
    image(&sim.run())
}

/// Thread counts the identity must hold at: even, power-of-two, and a
/// prime that leaves ragged shard sizes.
const THREAD_COUNTS: [usize; 3] = [2, 4, 7];

/// Fleet size at which every entry of [`THREAD_COUNTS`] runs that many
/// shards; the remainder of 3 nodes makes every layout uneven.
const FLEET: usize = 7 * MIN_NODES_PER_SHARD + 3;

fn assert_thread_invariant(name: &str, build: impl Fn() -> Scenario) {
    let serial = run_at(build(), 1, 1);
    for threads in THREAD_COUNTS {
        let parallel = run_at(build(), threads, threads);
        assert_eq!(serial, parallel, "{name}: {threads}-thread run diverged from serial");
    }
}

#[test]
fn burn_cluster_is_thread_count_invariant() {
    assert_thread_invariant("burn", || {
        Scenario::new("par-burn")
            .with_nodes(FLEET)
            .with_seed(0xBEEF)
            .with_workload(WorkloadSpec::CpuBurn)
            .with_fan(FanScheme::dynamic(Policy::MODERATE, 100))
            .with_max_time(10.0)
    });
}

#[test]
fn barrier_coupled_npb_is_thread_count_invariant() {
    // The barrier release is the one cross-node decision in pass A; a BSP
    // workload exercises it every iteration.
    assert_thread_invariant("npb", || {
        Scenario::new("par-npb")
            .with_nodes(FLEET)
            .with_seed(7)
            .with_workload(WorkloadSpec::Npb { bench: NpbBenchmark::Bt, class: NpbClass::A })
            .with_fan(FanScheme::dynamic(Policy::MODERATE, 60))
            .with_dvfs(DvfsScheme::tdvfs(Policy::MODERATE))
            .with_max_time(150.0)
    });
}

#[test]
fn rack_coupled_cluster_is_thread_count_invariant() {
    // Rack coupling adds the f64 heat reduction — the one place where a
    // naive per-shard partial sum would change the bits.
    assert_thread_invariant("rack", || {
        Scenario::new("par-rack")
            .with_nodes(FLEET)
            .with_seed(0xAC)
            .with_workload(WorkloadSpec::CpuBurn)
            .with_fan(FanScheme::dynamic(Policy::MODERATE, 80))
            .with_rack(RackConfig::default())
            .with_max_time(10.0)
    });
}

#[test]
fn faulted_failsafe_cluster_is_thread_count_invariant() {
    // Sensor dropouts + failsafe exercise the sampling pass's trip/release
    // event emission on one node only, in a worker's shard rather than the
    // coordinator's — shard placement must not matter.
    assert_thread_invariant("failsafe", || {
        Scenario::new("par-failsafe")
            .with_nodes(FLEET)
            .with_seed(3)
            .with_workload(WorkloadSpec::CpuBurn)
            .with_fan(FanScheme::Constant { duty: 20 })
            .with_dvfs(DvfsScheme::tdvfs(Policy::MODERATE))
            .with_failsafe(FailsafeConfig::default())
            .with_fault(
                FLEET / 2,
                FaultPlan::none()
                    .at(5.0, FaultEvent::SensorDropout)
                    .at(15.0, FaultEvent::SensorRestore),
            )
            .with_max_time(30.0)
    });
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

fn run_with_journal(threads: usize) -> (String, Vec<EventRecord>) {
    let scenario = Scenario::new("par-journal")
        .with_nodes(FLEET)
        .with_seed(11)
        .with_workload(WorkloadSpec::CpuBurn)
        .with_fan(FanScheme::dynamic(Policy::MODERATE, 100))
        .with_rack(RackConfig::default())
        .with_max_time(10.0)
        .with_threads(threads);
    let sink = SharedSink::default();
    let stream = Arc::clone(&sink.0);
    let mut sim = Simulation::new(scenario);
    assert_eq!(sim.width(), threads, "{threads}-thread journal run must be {threads} shards wide");
    sim.attach_journal(Box::new(sink));
    let report = sim.run();
    let events = std::mem::take(&mut *stream.lock().expect("journal lock"));
    (image(&report), events)
}

#[test]
fn journal_stream_is_thread_count_invariant() {
    let (serial_report, serial_events) = run_with_journal(1);
    assert!(!serial_events.is_empty(), "the reference journal must capture events");
    for threads in THREAD_COUNTS {
        let (report, events) = run_with_journal(threads);
        assert_eq!(serial_report, report, "{threads}-thread journal run diverged");
        assert_eq!(
            serial_events, events,
            "{threads}-thread journal stream differs from serial (order or content)"
        );
    }
}

#[test]
fn journal_keeps_node_order_within_each_timestamp() {
    // The documented sink contract, checked structurally rather than
    // against serial: within one emission timestamp, node ids never
    // decrease (pass-B events precede sampling events at the same time, and
    // each pass drains in node order — both groups are separately sorted).
    let (_, events) = run_with_journal(4);
    for window in events.windows(2) {
        let (a, b) = (&window[0], &window[1]);
        assert!(
            b.time_s >= a.time_s,
            "journal time went backwards: {} after {}",
            b.time_s,
            a.time_s
        );
    }
}

#[test]
fn thread_knob_caps_at_node_count() {
    // More threads than nodes (or than MIN_NODES_PER_SHARD-sized shards)
    // must run the serial loop with the same results, not hang or spin a
    // pool of idle workers.
    let build = || {
        Scenario::new("par-cap")
            .with_nodes(2)
            .with_workload(WorkloadSpec::CpuBurn)
            .with_fan(FanScheme::dynamic(Policy::MODERATE, 100))
            .with_max_time(10.0)
    };
    assert_eq!(run_at(build(), 1, 1), run_at(build(), 16, 1));
}

#[test]
fn try_new_reports_validation_errors() {
    let bad = Scenario::new("bad").with_nodes(0);
    let Err(err) = Simulation::try_new(bad) else { panic!("zero nodes must be rejected") };
    assert!(err.message().contains("need at least one node"), "{err}");
    let bad_threads = {
        let mut s = Scenario::new("bad-threads");
        s.threads = 0;
        s
    };
    let Err(err) = Simulation::try_new(bad_threads) else {
        panic!("zero threads must be rejected")
    };
    assert!(err.message().contains("worker thread"), "{err}");
}
