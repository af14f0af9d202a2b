//! Shard layout, the one pass dispatch, and the persistent node-parallel
//! worker pool behind [`crate::sim::Simulation`].
//!
//! A simulation splits its nodes into `width` contiguous shards
//! ([`shard_range`]) and runs the per-node halves of every tick — workload
//! advance (pass A), fault delivery + daemons + physics (pass B), and the
//! 4 Hz sampling pass — through [`exec_shard`], once per shard. Shard 0
//! always runs inline on the calling thread. At width > 1 this pool runs
//! shards 1..n in parallel; it is created once per simulation and persists
//! across ticks: at a 50 ms simulated dt a tick is microseconds of work,
//! so spawn-per-tick (or even scope-per-tick) would dominate the run.
//!
//! # Determinism
//!
//! Results are bit-identical at every width:
//!
//! * per-node work is shared-nothing — a node's tick depends only on its
//!   own state plus tick-global inputs (the barrier-release decision, the
//!   rack air temperature) that are fixed before the pass starts;
//! * the two cross-node reductions are exact: the barrier flags are
//!   booleans (order-free), and rack heat is written **per node** into a
//!   scratch slot and folded by the coordinator in node order — one
//!   left-to-right f64 summation, independent of the shard layout;
//! * shard 0 writes journal records straight to the sink; shards 1..n tee
//!   into pre-reserved per-shard scratch that the coordinator drains in
//!   shard (= node) order after the pass, preserving the "tick order, node
//!   order within a tick" contract byte-for-byte.
//!
//! # Synchronization
//!
//! The coordinator publishes a [`Job`] (raw shard pointers + pass
//! parameters) under an epoch counter, executes shard 0 itself, and waits
//! for the workers' completion countdown. Workers spin briefly on the
//! epoch and then park, so an idle pool (a paused simulation, a pool
//! outliving its last tick) costs nothing; on oversubscribed machines the
//! park path keeps ticks correct, just not faster. Worker panics are
//! caught, carried across the countdown, and re-raised on the coordinator
//! thread with their original payload.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{JoinHandle, Thread};

use unitherm_obs::{EventSink, VecSink};

use crate::node_sim::NodeSim;
use crate::sim::{hardware_pass, sample_pass, workload_pass, ShardLanes};

/// Which per-node pass to run over a shard.
#[derive(Clone, Copy)]
pub(crate) enum PassKind {
    /// Pass A: advance every rank's workload; fold the barrier flags.
    Workload {
        /// Physics tick, seconds.
        dt_s: f64,
    },
    /// Pass B: optional barrier release, fault delivery, per-tick daemons
    /// + physics, per-node heat capture, finish detection.
    Hardware {
        /// Physics tick, seconds.
        dt_s: f64,
        /// Simulated time after this tick.
        now_s: f64,
        /// Whether the barrier released this tick (decided from pass A).
        release: bool,
        /// Whether the workload can finish on its own (gates the lane
        /// route's finish scan in `sim::hardware_pass`).
        finite: bool,
    },
    /// The 4 Hz sampling pass: sensor read, control plane, recorders.
    Sample {
        /// Simulated time of the sample.
        now_s: f64,
    },
}

/// Per-shard reduction outputs, written by exactly one worker per pass and
/// read by the coordinator after the completion barrier.
#[derive(Clone, Copy, Default)]
pub(crate) struct ShardOut {
    /// Pass A: every non-finished rank in the shard is parked at a barrier.
    pub unfinished_parked: bool,
    /// Pass A: at least one rank in the shard is parked at a barrier.
    pub any_parked: bool,
    /// Pass B: ranks in the shard that finished on this tick.
    pub finished_delta: usize,
}

/// One pass over every shard: everything [`exec_shard`] needs.
///
/// Raw pointers stand in for the `&mut` borrows the coordinator holds; the
/// run protocol guarantees each shard's slices are only dereferenced by the
/// one thread running that shard, while the coordinator is inside
/// `Simulation::pass` and the borrows are live.
#[derive(Clone, Copy)]
pub(crate) struct Job {
    pub nodes: *mut NodeSim,
    /// Per-shard lanes (`shards` entries; slot `s` mirrors the node range
    /// of shard `s`), or null on the scalar route.
    pub lanes: *mut ShardLanes,
    pub len: usize,
    pub shards: usize,
    pub kind: PassKind,
    /// Per-node heat slots (`len` entries), or null when no rack is coupled.
    pub heat: *mut f64,
    /// Per-shard reduction slots (`shards` entries).
    pub outs: *mut ShardOut,
    /// Journal scratch for shards 1..n (`shards - 1` entries), or null when
    /// no journal is attached or no pool runs.
    pub scratch: *mut VecSink,
}

// SAFETY: the pointers are only dereferenced under the run protocol above,
// over disjoint shard ranges.
unsafe impl Send for Job {}

struct Shared {
    /// Bumped (release) to publish `job`; workers acquire-load it.
    epoch: AtomicUsize,
    /// The published job; valid for the epoch it was published under.
    job: UnsafeCell<Option<Job>>,
    /// Workers yet to finish the current job.
    remaining: AtomicUsize,
    /// Set (then epoch bumped) to shut the pool down.
    shutdown: AtomicBool,
    /// The coordinator thread, unparked by the last finishing worker.
    coordinator: Thread,
    /// First worker panic of the current job, re-raised by the coordinator.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

// SAFETY: `job` is written only by the coordinator before the epoch bump
// and read by workers after acquiring the new epoch; `remaining` orders the
// hand-back.
unsafe impl Sync for Shared {}

/// Spins this long on the epoch / countdown before parking. Short, so a
/// pool on an oversubscribed (or single-core) machine backs off to the
/// scheduler quickly instead of burning the very cycles the shards need.
const SPIN_LIMIT: u32 = 512;

/// The persistent pool: `shards - 1` spawned workers plus the calling
/// thread, which always executes shard 0 itself.
pub(crate) struct WorkerPool {
    shared: Arc<Shared>,
    workers: Vec<Thread>,
    handles: Vec<JoinHandle<()>>,
    shards: usize,
}

/// The contiguous node range of shard `s` out of `shards` over `len` nodes.
pub(crate) fn shard_range(len: usize, shards: usize, s: usize) -> std::ops::Range<usize> {
    // Width 1 — most runs — skips the two divisions on every pass.
    if shards == 1 {
        return 0..len;
    }
    (s * len / shards)..((s + 1) * len / shards)
}

impl WorkerPool {
    /// Spawns `shards - 1` workers (the coordinator is shard 0).
    ///
    /// # Panics
    /// `shards` must be at least 2 — width 1 runs without a pool.
    pub fn new(shards: usize) -> Self {
        assert!(shards >= 2, "a pool needs at least two shards");
        let shared = Arc::new(Shared {
            epoch: AtomicUsize::new(0),
            job: UnsafeCell::new(None),
            remaining: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            coordinator: std::thread::current(),
            panic: Mutex::new(None),
        });
        let (tx, rx) = std::sync::mpsc::channel();
        let handles: Vec<JoinHandle<()>> = (1..shards)
            .map(|shard| {
                let shared = Arc::clone(&shared);
                let tx = tx.clone();
                std::thread::Builder::new()
                    .name(format!("unitherm-shard{shard}"))
                    .spawn(move || {
                        tx.send(std::thread::current()).expect("pool creator is alive");
                        drop(tx);
                        worker_loop(&shared, shard);
                    })
                    .expect("spawn pool worker")
            })
            .collect();
        drop(tx);
        let workers: Vec<Thread> = rx.iter().take(shards - 1).collect();
        Self { shared, workers, handles, shards }
    }

    /// Total shards (spawned workers + the coordinator).
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Runs `job` over every shard — shards 1..n on the workers, shard 0 on
    /// the calling thread with `journal` as its sink — and returns when all
    /// have finished.
    ///
    /// # Safety
    /// `job`'s pointers must be valid for the whole call, laid out as its
    /// field docs say, and not otherwise accessed until it returns.
    pub unsafe fn run(&self, job: Job, journal: Option<&mut (dyn EventSink + 'static)>) {
        assert_eq!(job.shards, self.shards, "one pool worker per shard beyond the first");

        // Publish: countdown first, then the job, then the epoch (release)
        // so an acquiring worker sees both.
        self.shared.remaining.store(self.shards - 1, Ordering::Relaxed);
        // SAFETY: workers only read `job` after the epoch bump below; no
        // other writer exists.
        unsafe { *self.shared.job.get() = Some(job) };
        self.shared.epoch.fetch_add(1, Ordering::Release);
        for w in &self.workers {
            w.unpark();
        }

        // The coordinator is shard 0.
        // SAFETY: shard ranges are disjoint; shard 0 is ours alone.
        unsafe { exec_shard(&job, 0, journal) };

        // Wait for the workers, spinning briefly before parking; the last
        // worker unparks us.
        let mut spins = 0u32;
        while self.shared.remaining.load(Ordering::Acquire) != 0 {
            if spins < SPIN_LIMIT {
                spins += 1;
                std::hint::spin_loop();
            } else {
                std::thread::park();
            }
        }
        if let Some(payload) = self.shared.panic.lock().expect("panic slot").take() {
            std::panic::resume_unwind(payload);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        self.shared.epoch.fetch_add(1, Ordering::Release);
        for w in &self.workers {
            w.unpark();
        }
        for handle in self.handles.drain(..) {
            // A worker that panicked outside catch_unwind already aborted
            // the process; a join error here cannot carry new information.
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared, shard: usize) {
    let mut seen = 0usize;
    loop {
        // Wait for a new epoch: spin briefly, then park.
        let mut spins = 0u32;
        let epoch = loop {
            let e = shared.epoch.load(Ordering::Acquire);
            if e != seen {
                break e;
            }
            if spins < SPIN_LIMIT {
                spins += 1;
                std::hint::spin_loop();
            } else {
                std::thread::park();
            }
        };
        seen = epoch;
        if shared.shutdown.load(Ordering::Relaxed) {
            return;
        }
        // SAFETY: the coordinator published the job before this epoch and
        // keeps the underlying borrows alive until `remaining` hits 0.
        let job = unsafe { (*shared.job.get()).expect("epoch bump publishes a job") };
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // SAFETY: disjoint shard ranges; this shard and its scratch
            // (slot `shard - 1`) are ours alone.
            unsafe {
                let journal = (!job.scratch.is_null())
                    .then(|| &mut *job.scratch.add(shard - 1) as &mut (dyn EventSink + 'static));
                exec_shard(&job, shard, journal);
            }
        }));
        if let Err(payload) = result {
            shared.panic.lock().expect("panic slot").get_or_insert(payload);
        }
        if shared.remaining.fetch_sub(1, Ordering::Release) == 1 {
            shared.coordinator.unpark();
        }
    }
}

/// Runs `job`'s pass over shard `s` — the one dispatch every pass of every
/// tick goes through, at any width. `journal` receives the shard's events:
/// the simulation's journal itself for shard 0, the shard's scratch on a
/// worker.
///
/// # Safety
/// The caller guarantees exclusive access to the shard's node range, its
/// lanes, slot `s` of `outs` and the shard's rows of `heat`.
// Inlined (with `Simulation::pass`) so each call site's constant pass kind
// folds the match away: outlined, the dispatch cost a 1-node width-1 tick
// ~13 ns (12 %) on a 2-vCPU Xeon VM.
#[inline(always)]
pub(crate) unsafe fn exec_shard(
    job: &Job,
    s: usize,
    journal: Option<&mut (dyn EventSink + 'static)>,
) {
    let range = shard_range(job.len, job.shards, s);
    let nodes = std::slice::from_raw_parts_mut(job.nodes.add(range.start), range.len());
    let lanes = (!job.lanes.is_null()).then(|| &mut *job.lanes.add(s));
    let out = &mut *job.outs.add(s);

    match job.kind {
        PassKind::Workload { dt_s } => {
            workload_pass(nodes, lanes.map(|l| &mut l.batch), dt_s, out);
        }
        PassKind::Hardware { dt_s, now_s, release, finite } => {
            let heat = (!job.heat.is_null())
                .then(|| std::slice::from_raw_parts_mut(job.heat.add(range.start), range.len()));
            hardware_pass(nodes, lanes, dt_s, now_s, release, finite, heat, journal, out);
        }
        PassKind::Sample { now_s } => {
            sample_pass(nodes, lanes.map(|l| &mut l.batch), now_s, journal);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_ranges_cover_and_are_disjoint() {
        for len in [1usize, 2, 5, 7, 13, 64] {
            for shards in [1usize, 2, 3, 4, 7, 8] {
                let mut covered = 0;
                let mut prev_end = 0;
                for s in 0..shards {
                    let r = shard_range(len, shards, s);
                    assert_eq!(r.start, prev_end, "contiguous at len={len} shards={shards}");
                    prev_end = r.end;
                    covered += r.len();
                }
                assert_eq!(prev_end, len);
                assert_eq!(covered, len);
            }
        }
    }

    #[test]
    fn shard_sizes_balanced_within_one() {
        for len in [5usize, 13, 64] {
            for shards in [2usize, 3, 4, 7] {
                let sizes: Vec<usize> =
                    (0..shards).map(|s| shard_range(len, shards, s).len()).collect();
                let min = *sizes.iter().min().unwrap();
                let max = *sizes.iter().max().unwrap();
                assert!(max - min <= 1, "unbalanced {sizes:?} at len={len} shards={shards}");
            }
        }
    }
}
