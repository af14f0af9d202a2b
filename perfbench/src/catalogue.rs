//! Seeded scenario generation. The program under test only ever sees the
//! JSON text these scenarios serialize to.
//!
//! Each workload draws from a fixed list of shapes; the seed varies what
//! does not change the amount of work — the scenario seed (sensor noise,
//! workload jitter), which node a fault hits and when, and the order jobs
//! are issued in — so runs with different seeds measure the same mix and
//! their figures can be compared. Physical parameters that move the
//! controllers' decisions in time (ambient, rack recirculation) are fixed
//! per shape.

use unitherm_cluster::{DvfsScheme, FanScheme, RackConfig, Scenario, SchemeSpec, WorkloadSpec};
use unitherm_core::control_array::Policy;
use unitherm_core::failsafe::FailsafeConfig;
use unitherm_simnode::faults::{FaultEvent, FaultPlan};
use unitherm_workload::{NpbBenchmark, NpbClass};

use crate::rng::Rng;

/// The control schemes the paper compares.
#[derive(Debug, Clone, Copy)]
pub enum Scheme {
    /// The dynamic, history-based fan controller alone.
    DynamicFan(u32),
    /// The §4.4 hybrid (dynamic fan first, tDVFS for the remainder) with a
    /// fan duty cap, so tDVFS has work to do.
    Hybrid(u32, u8),
    /// Independent dynamic fan (capped) and tDVFS daemons.
    FanTdvfs(u32),
    /// The chip's automatic fan curve plus the CPUSPEED governor, which
    /// runs every tick (the scalar passthrough path).
    CpuSpeed,
    /// The utilization-feedforward fan plus tDVFS.
    Feedforward(u32),
    /// ACPI sleep states over a constant slow fan.
    Acpi(u32),
}

impl Scheme {
    /// Family name, used to group per-layer probe results.
    pub fn family(self) -> &'static str {
        match self {
            Scheme::DynamicFan(_) => "dynamic-fan",
            Scheme::Hybrid(..) => "hybrid",
            Scheme::FanTdvfs(_) => "fan+tdvfs",
            Scheme::CpuSpeed => "cpuspeed",
            Scheme::Feedforward(_) => "feedforward",
            Scheme::Acpi(_) => "acpi",
        }
    }

    fn apply(self, s: Scenario) -> Scenario {
        let p = |v: u32| Policy::new(v).expect("catalogue policies are in range");
        match self {
            Scheme::DynamicFan(v) => s.with_fan(FanScheme::dynamic(p(v), 100)),
            Scheme::Hybrid(v, cap) => s.with_scheme(SchemeSpec::hybrid(p(v), cap)),
            Scheme::FanTdvfs(v) => {
                s.with_fan(FanScheme::dynamic(p(v), 60)).with_dvfs(DvfsScheme::tdvfs(p(v)))
            }
            Scheme::CpuSpeed => s
                .with_fan(FanScheme::ChipAutomatic { max_duty: 100 })
                .with_dvfs(DvfsScheme::cpuspeed()),
            Scheme::Feedforward(v) => s
                .with_fan(FanScheme::dynamic_feedforward(p(v), 100))
                .with_dvfs(DvfsScheme::tdvfs(p(v))),
            Scheme::Acpi(v) => {
                s.with_scheme(SchemeSpec::acpi_sleep(p(v), FanScheme::Constant { duty: 15 }))
            }
        }
    }
}

/// A fault injected into one seeded node of a scenario.
#[derive(Debug, Clone, Copy)]
pub enum Fault {
    /// The fan seizes for 40 s, then is repaired.
    FanFailure,
    /// The sensor goes dark for 8 s (with a failsafe watching).
    SensorDropout,
    /// The intake air steps up by 6 °C.
    AmbientStep,
}

/// One entry of a workload's catalogue.
#[derive(Debug, Clone)]
pub struct Shape {
    /// Catalogue name.
    pub name: &'static str,
    /// Node count.
    pub nodes: usize,
    /// Workload on every rank.
    pub workload: WorkloadSpec,
    /// Control scheme.
    pub scheme: Scheme,
    /// Simulated horizon (finite workloads stop earlier when done).
    pub max_time_s: f64,
    /// Rack air coupling.
    pub rack: bool,
    /// Injected fault.
    pub fault: Option<Fault>,
    /// Intra-run worker threads the scenario asks for.
    pub threads: usize,
}

const fn npb(bench: NpbBenchmark) -> WorkloadSpec {
    WorkloadSpec::Npb { bench, class: NpbClass::B }
}

impl Shape {
    const fn new(
        name: &'static str,
        nodes: usize,
        workload: WorkloadSpec,
        scheme: Scheme,
        max_time_s: f64,
    ) -> Self {
        Self { name, nodes, workload, scheme, max_time_s, rack: false, fault: None, threads: 1 }
    }

    const fn rack(mut self) -> Self {
        self.rack = true;
        self
    }

    const fn fault(mut self, fault: Fault) -> Self {
        self.fault = Some(fault);
        self
    }

    const fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The seeded scenario for this shape.
    pub fn scenario(&self, rng: &mut Rng) -> Scenario {
        let mut s = Scenario::new(self.name)
            .with_nodes(self.nodes)
            .with_seed(rng.next_u64())
            .with_workload(self.workload.clone())
            .with_max_time(self.max_time_s)
            .with_threads(self.threads);
        s = self.scheme.apply(s);
        if self.rack {
            s = s.with_rack(RackConfig::default());
        }
        if let Some(fault) = self.fault {
            let node = rng.below(self.nodes);
            let at = rng.range(25.0, 35.0);
            let plan = match fault {
                Fault::FanFailure => FaultPlan::none()
                    .at(at, FaultEvent::FanFailure)
                    .at(at + 40.0, FaultEvent::FanRepair),
                Fault::SensorDropout => {
                    s = s.with_failsafe(FailsafeConfig::default());
                    FaultPlan::none()
                        .at(at, FaultEvent::SensorDropout)
                        .at(at + 8.0, FaultEvent::SensorRestore)
                }
                Fault::AmbientStep => FaultPlan::none()
                    .at(at, FaultEvent::AmbientStep(s.node_config.thermal.ambient_c + 6.0)),
            };
            s = s.with_fault(node, plan);
        }
        s
    }
}

/// `paper-sweep`: paper-sized clusters over the paper's schemes and
/// benchmarks, some rack-coupled, some faulted.
pub fn paper_sweep() -> Vec<Shape> {
    use NpbBenchmark::{Bt, Cg, Lu, Sp};
    vec![
        Shape::new("bt4-dynamic-fan", 4, npb(Bt), Scheme::DynamicFan(50), 500.0),
        Shape::new("lu4-fan-tdvfs-rack", 4, npb(Lu), Scheme::FanTdvfs(50), 500.0).rack(),
        Shape::new("cg8-hybrid", 8, npb(Cg), Scheme::Hybrid(50, 40), 500.0),
        Shape::new("sp8-cpuspeed", 8, npb(Sp), Scheme::CpuSpeed, 500.0),
        Shape::new("burn16-feedforward", 16, WorkloadSpec::CpuBurn, Scheme::Feedforward(25), 120.0),
        Shape::new("burn4-acpi", 4, WorkloadSpec::CpuBurn, Scheme::Acpi(25), 120.0),
        Shape::new("bt8-hybrid-rack", 8, npb(Bt), Scheme::Hybrid(50, 40), 500.0).rack(),
        Shape::new("lu16-dynamic-fan-fanfail", 16, npb(Lu), Scheme::DynamicFan(50), 500.0)
            .fault(Fault::FanFailure),
        Shape::new(
            "burn12-hybrid-dropout",
            12,
            WorkloadSpec::CpuBurn,
            Scheme::Hybrid(50, 40),
            180.0,
        )
        .fault(Fault::SensorDropout),
        Shape::new("sp6-fan-tdvfs-ambient", 6, npb(Sp), Scheme::FanTdvfs(25), 500.0)
            .fault(Fault::AmbientStep),
        Shape::new("cg16-cpuspeed-rack", 16, npb(Cg), Scheme::CpuSpeed, 500.0).rack(),
        Shape::new("burn8-dynamic-fan", 8, WorkloadSpec::CpuBurn, Scheme::DynamicFan(75), 180.0),
    ]
}

/// `serve-mix`: service jobs, mostly small hybrid / dynamic-fan jobs plus
/// a quarter of 64-node jobs asking for two threads.
pub fn serve_mix() -> Vec<Shape> {
    let burn = || WorkloadSpec::CpuBurn;
    vec![
        Shape::new("hybrid4-60s", 4, burn(), Scheme::Hybrid(50, 40), 60.0),
        Shape::new("dynamic-fan8-90s", 8, burn(), Scheme::DynamicFan(50), 90.0),
        Shape::new("hybrid16-120s", 16, burn(), Scheme::Hybrid(50, 40), 120.0),
        Shape::new("dynamic-fan12-120s", 12, burn(), Scheme::DynamicFan(50), 120.0),
        Shape::new("hybrid8-90s", 8, burn(), Scheme::Hybrid(50, 40), 90.0),
        Shape::new("dynamic-fan16-60s", 16, burn(), Scheme::DynamicFan(50), 60.0),
        Shape::new("hybrid64-30s-t2", 64, burn(), Scheme::Hybrid(50, 40), 30.0).threads(2),
        Shape::new("dynamic-fan64-30s-t2", 64, burn(), Scheme::DynamicFan(50), 30.0).threads(2),
    ]
}
