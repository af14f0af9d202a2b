//! Layer probes: the traced run times single layers on the workload's own
//! nodes, outside the end-to-end jobs — the structure-of-arrays lanes, the
//! scalar `Node::tick`, `Workload::advance`, `NodeSim::on_sample`, and the
//! intra-run pool's fixed per-tick cost.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use unitherm_cluster::node_sim::NodeSim;
use unitherm_cluster::{Scenario, Simulation};
use unitherm_simnode::PhysicsBatch;
use unitherm_workload::WorkState;

use crate::stats::median;

/// Accumulated `(ns, calls)` per layer, and per workload kind / scheme
/// family for the two layers whose cost depends on them.
#[derive(Debug, Default)]
pub struct Probes {
    /// `PhysicsBatch::begin_tick` + `tick_all`, per node-tick.
    pub lanes: (f64, u64),
    /// `Node::tick`, per node-tick.
    pub scalar: (f64, u64),
    /// `Workload::advance` by workload label.
    pub advance: BTreeMap<String, (f64, u64)>,
    /// `NodeSim::on_sample` by scheme family.
    pub on_sample: BTreeMap<String, (f64, u64)>,
}

fn per_call(total: (f64, u64)) -> f64 {
    if total.1 == 0 {
        0.0
    } else {
        total.0 / total.1 as f64
    }
}

fn pooled(map: &BTreeMap<String, (f64, u64)>) -> f64 {
    per_call(map.values().fold((0.0, 0), |acc, v| (acc.0 + v.0, acc.1 + v.1)))
}

impl Probes {
    /// Fills the four probed per-layer metrics (advance and on-sample
    /// pooled over every kind and family probed).
    pub fn fill(&self, m: &mut BTreeMap<&'static str, f64>) {
        m.insert("simnode.lanes_ns_per_node_tick", per_call(self.lanes));
        m.insert("simnode.scalar_ns_per_node_tick", per_call(self.scalar));
        m.insert("workload.advance_ns", pooled(&self.advance));
        m.insert("core.on_sample_ns", pooled(&self.on_sample));
    }

    /// One line per kind and family, for the log.
    pub fn breakdown(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.advance {
            out.push_str(&format!("  workload.advance[{k}] {:.1} ns\n", per_call(*v)));
        }
        for (k, v) in &self.on_sample {
            out.push_str(&format!("  core.on_sample[{k}] {:.1} ns\n", per_call(*v)));
        }
        out
    }

    /// Probes every layer on `scenario`'s nodes with about `node_ticks`
    /// calls each (on-sample gets a quarter: it runs at 4 Hz, not 20 Hz).
    pub fn probe(&mut self, scenario: &Scenario, family: &str, node_ticks: u64) {
        let n = scenario.nodes;
        let dt = scenario.dt_s;
        let reps = (node_ticks / n as u64).max(1);
        let mut nodes: Vec<NodeSim> = (0..n).map(|i| NodeSim::build(scenario, i)).collect();

        // Workload pass: advance, then the barrier poll the tick loop makes
        // for finite workloads (released at once — no BSP coupling here).
        let t = Instant::now();
        for _ in 0..reps {
            for ns in &mut nodes {
                let out = ns.workload.advance(dt, 1.0);
                ns.node.set_load(out.utilization, out.activity);
                if !ns.workload.is_endless() {
                    if let WorkState::AtBarrier(_) = ns.workload.state() {
                        ns.workload.release_barrier();
                    }
                }
            }
        }
        let e = self.advance.entry(scenario.workload.label()).or_default();
        e.0 += t.elapsed().as_nanos() as f64;
        e.1 += reps * n as u64;

        let t = Instant::now();
        for _ in 0..reps {
            for ns in &mut nodes {
                ns.node.tick(dt);
            }
        }
        self.scalar.0 += t.elapsed().as_nanos() as f64;
        self.scalar.1 += reps * n as u64;

        let sample_reps = (reps / 4).max(1);
        let mut now = nodes[0].node.time_s();
        let t = Instant::now();
        for _ in 0..sample_reps {
            now += scenario.sample_period_s;
            for ns in &mut nodes {
                ns.on_sample(now, None);
            }
        }
        let e = self.on_sample.entry(family.to_string()).or_default();
        e.0 += t.elapsed().as_nanos() as f64;
        e.1 += sample_reps * n as u64;

        let mut batch = PhysicsBatch::from_nodes(nodes.iter().map(|ns| &ns.node));
        let t = Instant::now();
        for _ in 0..reps {
            batch.begin_tick(dt);
            batch.tick_all(dt);
        }
        self.lanes.0 += t.elapsed().as_nanos() as f64;
        self.lanes.1 += reps * n as u64;
        black_box(&batch);
        black_box(&nodes);
    }
}

/// Microseconds per tick the worker pool adds: `scenario` ticked at two
/// threads minus at one, in alternating blocks, medians of per-tick times.
pub fn pool_overhead_us(scenario: &Scenario, blocks: usize, ticks_per_block: u32) -> f64 {
    let mut one = scenario.clone();
    one.threads = 1;
    let mut two = scenario.clone();
    two.threads = 2;
    let mut a = Simulation::try_new(one).expect("catalogue scenarios are valid");
    let mut b = Simulation::try_new(two).expect("catalogue scenarios are valid");
    let (mut ta, mut tb) = (Vec::new(), Vec::new());
    let block = |sim: &mut Simulation, out: &mut Vec<f64>| {
        let t = Instant::now();
        for _ in 0..ticks_per_block {
            sim.tick();
        }
        out.push(t.elapsed().as_secs_f64() / f64::from(ticks_per_block));
    };
    for _ in 0..blocks {
        block(&mut a, &mut ta);
        block(&mut b, &mut tb);
    }
    1e6 * (median(&tb) - median(&ta))
}
