//! Refactor-parity regression for the control plane.
//!
//! Every pre-existing `FanScheme`/`DvfsScheme` arm — plus the hwmon
//! `ControlStack` — is locked to a golden trace snapshot captured from the
//! original per-arm daemon wiring. The traces are compared bit-for-bit
//! (f64s via their raw bit patterns), so any behavioural drift in the
//! scheme → daemon pipeline fails these tests even when summary statistics
//! round the same.
//!
//! Regenerate snapshots (only when a behaviour change is *intended*) with:
//! `UNITHERM_UPDATE_GOLDEN=1 cargo test --test control_plane_parity`
//!
//! `UNITHERM_GOLDEN_SCALAR=1` runs every cluster scenario on the scalar
//! per-node tick (`Scenario::force_scalar`), the reference the physics
//! lanes are checked against; the snapshots must not move (CI regenerates
//! on the scalar path and diffs against the committed traces). Pool
//! bit-identity is pinned by `tests/parallel_tick.rs` on fleets sized for
//! 2/4/7 shards.

use std::fmt::Write as _;
use std::path::PathBuf;

use unitherm::cluster::{DvfsScheme, FanScheme, RunReport, Scenario, Simulation, WorkloadSpec};
use unitherm::core::baseline::StaticFanCurve;
use unitherm::core::control_array::Policy;
use unitherm::core::failsafe::FailsafeConfig;
use unitherm::hwmon::stack::ControlStack;
use unitherm::metrics::TimeSeries;
use unitherm::simnode::faults::{FaultEvent, FaultPlan};
use unitherm::simnode::{Node, NodeConfig};

fn hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn write_series(out: &mut String, tag: &str, series: &TimeSeries) {
    writeln!(out, "series {tag} n={}", series.len()).unwrap();
    for s in series.samples() {
        writeln!(out, "  {} {}", hex(s.time_s), hex(s.value)).unwrap();
    }
}

/// A complete, bit-exact textual image of a [`RunReport`].
fn fingerprint(report: &RunReport) -> String {
    let mut out = String::new();
    writeln!(out, "name {}", report.name).unwrap();
    writeln!(out, "fan_label {}", report.fan_label).unwrap();
    writeln!(out, "dvfs_label {}", report.dvfs_label).unwrap();
    writeln!(out, "workload_label {}", report.workload_label).unwrap();
    writeln!(out, "wall_time {}", hex(report.wall_time_s)).unwrap();
    writeln!(out, "exec_time {}", hex(report.exec_time_s)).unwrap();
    writeln!(out, "completed {}", report.completed).unwrap();
    for (i, node) in report.nodes.iter().enumerate() {
        writeln!(out, "node {i}").unwrap();
        writeln!(
            out,
            "counters freq_transitions={} throttle_events={} failsafe_engagements={} shut_down={}",
            node.freq_transitions, node.throttle_events, node.failsafe_engagements, node.shut_down
        )
        .unwrap();
        writeln!(out, "power avg={} energy={}", hex(node.avg_wall_power_w), hex(node.energy_j))
            .unwrap();
        writeln!(
            out,
            "temp_summary count={} mean={} min={} max={} std={}",
            node.temp_summary.count,
            hex(node.temp_summary.mean),
            hex(node.temp_summary.min),
            hex(node.temp_summary.max),
            hex(node.temp_summary.std_dev)
        )
        .unwrap();
        writeln!(
            out,
            "duty_summary count={} mean={} min={} max={} std={}",
            node.duty_summary.count,
            hex(node.duty_summary.mean),
            hex(node.duty_summary.min),
            hex(node.duty_summary.max),
            hex(node.duty_summary.std_dev)
        )
        .unwrap();
        writeln!(out, "freq_events n={}", node.freq_events.len()).unwrap();
        for (t, f) in &node.freq_events {
            writeln!(out, "  {} {f}", hex(*t)).unwrap();
        }
        write_series(&mut out, "temp", &node.temp);
        write_series(&mut out, "duty", &node.duty);
        write_series(&mut out, "freq", &node.freq);
        write_series(&mut out, "power", &node.power);
        write_series(&mut out, "util", &node.util);
    }
    out
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(format!("{name}.trace"))
}

fn assert_matches_golden(name: &str, fingerprint: &str) {
    let path = golden_path(name);
    if std::env::var_os("UNITHERM_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, fingerprint).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!("missing golden snapshot {path:?}; regenerate with UNITHERM_UPDATE_GOLDEN=1")
    });
    if want != fingerprint {
        let mismatch = want.lines().zip(fingerprint.lines()).enumerate().find(|(_, (a, b))| a != b);
        match mismatch {
            Some((line, (expected, got))) => panic!(
                "trace `{name}` diverged from golden snapshot at line {}:\n  expected: {expected}\n  got:      {got}",
                line + 1
            ),
            None => panic!(
                "trace `{name}` diverged from golden snapshot: lengths differ ({} vs {} lines)",
                want.lines().count(),
                fingerprint.lines().count()
            ),
        }
    }
}

fn base(name: &str) -> Scenario {
    Scenario::new(name)
        .with_nodes(2)
        .with_seed(0x90_1D_E2)
        .with_workload(WorkloadSpec::CpuBurn)
        .with_max_time(60.0)
}

fn check_scenario(name: &str, scenario: Scenario) {
    // The lanes and the scalar tick are bit-identical, so golden traces
    // hold on either route (tests/scalar_batch_equivalence.rs pins the full
    // report; this pins both against the committed snapshots too).
    let scalar = std::env::var_os("UNITHERM_GOLDEN_SCALAR").is_some();
    let report = Simulation::new(scenario.with_force_scalar(scalar)).run();
    assert_matches_golden(name, &fingerprint(&report));
}

#[test]
fn fan_chip_automatic_trace_is_stable() {
    check_scenario(
        "fan-chip-auto",
        base("fan-chip-auto").with_fan(FanScheme::ChipAutomatic { max_duty: 75 }),
    );
}

#[test]
fn fan_software_static_trace_is_stable() {
    check_scenario(
        "fan-static-sw",
        base("fan-static-sw")
            .with_fan(FanScheme::SoftwareStatic { curve: StaticFanCurve::default() }),
    );
}

#[test]
fn fan_constant_trace_is_stable() {
    check_scenario("fan-constant", base("fan-constant").with_fan(FanScheme::Constant { duty: 40 }));
}

#[test]
fn fan_dynamic_trace_is_stable() {
    check_scenario(
        "fan-dynamic",
        base("fan-dynamic").with_fan(FanScheme::dynamic(Policy::MODERATE, 100)),
    );
}

#[test]
fn fan_dynamic_feedforward_trace_is_stable() {
    check_scenario(
        "fan-dynamic-ff",
        base("fan-dynamic-ff").with_fan(FanScheme::dynamic_feedforward(Policy::MODERATE, 100)),
    );
}

#[test]
fn dvfs_tdvfs_trace_is_stable() {
    check_scenario(
        "dvfs-tdvfs",
        base("dvfs-tdvfs")
            .with_fan(FanScheme::dynamic(Policy::MODERATE, 50))
            .with_dvfs(DvfsScheme::tdvfs(Policy::MODERATE)),
    );
}

#[test]
fn dvfs_cpuspeed_trace_is_stable() {
    check_scenario(
        "dvfs-cpuspeed",
        base("dvfs-cpuspeed")
            .with_fan(FanScheme::dynamic(Policy::MODERATE, 100))
            .with_dvfs(DvfsScheme::cpuspeed()),
    );
}

#[test]
fn failsafe_engagement_trace_is_stable() {
    // A sensor blackout engages the failsafe (max cooling, lowest
    // frequency); the restore at t = 30 s lets it release and hand control
    // back to the constant-fan + tDVFS daemons — locking both transitions.
    let plan =
        FaultPlan::none().at(10.0, FaultEvent::SensorDropout).at(30.0, FaultEvent::SensorRestore);
    check_scenario(
        "failsafe-engage",
        base("failsafe-engage")
            .with_fan(FanScheme::Constant { duty: 15 })
            .with_dvfs(DvfsScheme::tdvfs(Policy::MODERATE))
            .with_failsafe(FailsafeConfig::default())
            .with_fault(0, plan),
    );
}

#[test]
fn hwmon_control_stack_trace_is_stable() {
    // The single-node platform binding, driven the way the stack docs
    // describe: 20 Hz physics, 4 Hz control, a square-wave utilization
    // pattern exercising ramp-up, tDVFS escalation and recovery.
    let mut node = Node::new(NodeConfig::default(), 7);
    let mut stack = ControlStack::builder(Policy::MODERATE)
        .max_fan_duty(60)
        .with_feedforward()
        .with_tdvfs()
        .with_failsafe()
        .probe(&mut node)
        .expect("hardware reachable");

    let mut out = String::new();
    for tick in 0..2400u32 {
        let phase = (tick / 400) % 2;
        node.set_utilization(if phase == 0 { 1.0 } else { 0.2 });
        node.tick(0.05);
        if (tick + 1) % 5 == 0 {
            let outcome = stack.sample(&mut node);
            writeln!(
                out,
                "tick={} temp={} duty={:?} freq={:?} failsafe={}",
                tick + 1,
                outcome.temp_c.map(hex).unwrap_or_else(|| "none".into()),
                outcome.fan_duty,
                outcome.freq_mhz,
                outcome.failsafe_engaged
            )
            .unwrap();
        }
    }
    assert_matches_golden("hwmon-stack", &out);
}
