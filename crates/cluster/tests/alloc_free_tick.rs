//! Allocation regression test for the cluster hot path.
//!
//! The tick loop is the substrate every figure reproduction and sweep runs
//! on; a stray per-tick allocation is a silent throughput regression. This
//! harness installs a counting `#[global_allocator]` and asserts that
//! steady-state `Simulation::tick` — including the 4 Hz sampling path —
//! performs zero heap allocations once the simulation is warmed up.
//!
//! Allocations are counted per thread: the test harness runs these tests
//! on parallel threads, and a process-wide counter would charge one
//! test's set-up to another's measurement window. Every simulation here
//! runs at width 1, so all of its work happens on the test's own thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use unitherm_cluster::scenario::{Scenario, WorkloadSpec};
use unitherm_cluster::scheme::FanScheme;
use unitherm_cluster::sim::Simulation;
use unitherm_core::control_array::Policy;
use unitherm_simnode::faults::{FaultEvent, FaultPlan, TickFaultSchedule};

/// Counts every allocation and reallocation going through the global
/// allocator on the calling thread (deallocations are free to happen —
/// dropping a pre-reserved buffer is not a hot-path cost).
struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Charges one allocation to the current thread. `try_with` because the
/// allocator may run while the thread's locals are being torn down.
fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations the current thread performed while running `f`.
fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

fn warmed(scenario: Scenario) -> Simulation {
    let mut sim = Simulation::new(scenario);
    assert_eq!(sim.width(), 1, "per-thread counting sees only a serial run's allocations");
    // Past the spin-up transient and through many sampling ticks, so every
    // lazily-initialized path (sensor caches, controller windows) has run.
    for _ in 0..500 {
        sim.tick();
    }
    sim
}

#[test]
fn steady_state_tick_is_allocation_free() {
    let mut sim = warmed(
        Scenario::new("alloc-burn")
            .with_nodes(4)
            .with_workload(WorkloadSpec::CpuBurn)
            .with_fan(FanScheme::dynamic(Policy::MODERATE, 100))
            .with_recording(false)
            .with_max_time(1e9),
    );
    let n = allocations_during(|| {
        for _ in 0..1000 {
            sim.tick();
        }
    });
    assert_eq!(n, 0, "steady-state tick allocated {n} times over 1000 ticks");
    // The zero-allocation window must not be an artifact of observability
    // sitting idle: the ring sinks and counters were live the whole time.
    let report = sim.into_report();
    let counters = report.counters_total();
    assert!(counters.samples > 0, "sampling path ran during the window");
    assert!(
        counters.events_emitted > 0,
        "dynamic-fan control under burn must emit events through the ring sink"
    );
    assert!(
        report.nodes.iter().any(|node| !node.events.is_empty()),
        "ring sinks captured events with zero heap allocations"
    );
}

#[test]
fn fault_delivery_inside_the_window_is_allocation_free() {
    // Warm-up covers ticks 1..=500 (25 s), the window ticks 501..=1500
    // (25–75 s). Time- and tick-addressed faults both land inside it, on
    // the lane route (sync through store → deliver → load) and on the
    // scalar route (`Node::tick`).
    for force_scalar in [false, true] {
        let mut sim = warmed(
            Scenario::new("alloc-faults")
                .with_nodes(4)
                .with_workload(WorkloadSpec::CpuBurn)
                .with_fan(FanScheme::dynamic(Policy::MODERATE, 100))
                .with_recording(false)
                .with_max_time(1e9)
                .with_force_scalar(force_scalar)
                .with_fault(
                    1,
                    FaultPlan::none()
                        .at(30.0, FaultEvent::FanFailure)
                        .at(50.0, FaultEvent::FanRepair)
                        .at(60.0, FaultEvent::AmbientStep(30.0)),
                )
                .with_tick_faults(
                    2,
                    TickFaultSchedule::none()
                        .at_tick(700, FaultEvent::SensorDropout)
                        .at_tick(900, FaultEvent::SensorRestore)
                        .at_tick(1100, FaultEvent::PwmStuck),
                ),
        );
        let n = allocations_during(|| {
            for _ in 0..1000 {
                sim.tick();
            }
        });
        assert_eq!(n, 0, "faulted tick loop allocated {n} times (force_scalar {force_scalar})");
        let report = sim.into_report();
        assert_eq!(report.nodes[1].faults_applied.len(), 3, "time faults landed in the window");
        assert_eq!(report.nodes[2].faults_applied.len(), 3, "tick faults landed in the window");
    }
}

#[test]
fn recording_run_stays_within_reserved_capacity() {
    // With series recording on, the recorders must append into the
    // capacity reserved at build time instead of growing per sample.
    let mut sim = warmed(
        Scenario::new("alloc-recorded")
            .with_nodes(2)
            .with_workload(WorkloadSpec::CpuBurn)
            .with_fan(FanScheme::dynamic(Policy::MODERATE, 100))
            .with_max_time(300.0),
    );
    let n = allocations_during(|| {
        for _ in 0..1000 {
            sim.tick();
        }
    });
    assert_eq!(n, 0, "recording tick loop allocated {n} times over 1000 ticks");
}

#[test]
fn disabled_recording_skips_recorder_allocations_at_build() {
    // A recording-disabled run must not pay recorder heap at construction:
    // no metric-name strings, no pre-reserved series or event buffers. Pin
    // it by comparing identical builds that differ only in the recording
    // flag — the enabled build reserves several buffers per node (5 named
    // series plus the freq-event log), the disabled build none of them.
    let nodes = 8;
    let build = |record: bool| {
        Scenario::new("alloc-recorder-gate")
            .with_nodes(nodes)
            .with_workload(WorkloadSpec::CpuBurn)
            .with_fan(FanScheme::dynamic(Policy::MODERATE, 100))
            .with_recording(record)
            .with_max_time(3600.0)
    };
    let disabled = allocations_during(|| {
        std::hint::black_box(Simulation::new(build(false)));
    });
    let enabled = allocations_during(|| {
        std::hint::black_box(Simulation::new(build(true)));
    });
    assert!(
        enabled >= disabled + 6 * nodes as u64,
        "recording-on build must reserve recorder buffers that the \
         recording-off build skips (enabled {enabled}, disabled {disabled})"
    );
}
