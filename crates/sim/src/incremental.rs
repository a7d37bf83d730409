//! Incremental re-simulation: reuse the base report, or simulate once.
//!
//! The planners spend most of their budget evaluating *perturbations* of
//! a strategy they already simulated — a device slowed down, one link's
//! bandwidth changed. Re-pricing such a change keeps the task graph's
//! structure and rewrites only durations. [`IncrementalSim`] simulates
//! the base graph once and answers a re-priced graph in one of two ways:
//!
//! 1. no task duration differs bitwise from the base: the cached base
//!    report is copied and only the OOM flags are re-derived against the
//!    query's capacities ([`ResimOutcome::Unchanged`]);
//! 2. otherwise: one fresh simulation of the re-priced graph
//!    ([`ResimOutcome::Replayed`]).
//!
//! The replay runs the same body as [`crate::simulate_into`], so results
//! are **bit-identical** to a fresh simulation of the perturbed graph:
//! same makespan bits, same peaks, same OOM flags, same report digests.
//!
//! Deliberately *not* counted: the plain-simulation telemetry
//! (`heterog_sim_simulations_total`, `SimEpoch`, `Oom`) — incremental
//! queries have their own counters so existing "one simulation per
//! evaluation" invariants keep holding.

use heterog_sched::{OrderPolicy, TaskGraph};
use heterog_telemetry::{Counter, Histogram};

use crate::report::{simulate_uncounted, SimReport, SimScratch};

static RESIMS: Counter = Counter::new(
    "heterog_sim_incremental_resims_total",
    "Incremental re-simulation requests (all outcomes)",
);
static UNCHANGED: Counter = Counter::new(
    "heterog_sim_incremental_unchanged_total",
    "Re-simulations answered from the cached base report (no duration changed)",
);
static FULL_REPLAYS: Counter = Counter::new(
    "heterog_sim_incremental_full_replays_total",
    "Re-simulations answered by one fresh simulation of the patched graph",
);
static TASKS_SKIPPED: Counter = Counter::new(
    "heterog_sim_incremental_tasks_skipped_total",
    "Tasks whose base schedule entries were reused instead of re-executed",
);
static DIRTY_SET_SIZE: Histogram = Histogram::new(
    "heterog_sim_incremental_dirty_tasks",
    "Tasks whose duration changed, per re-simulation",
);

/// Which path a [`IncrementalSim::resim`] call took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResimOutcome {
    /// No task duration differed from the base: the cached report was
    /// copied and only the OOM flags re-derived.
    Unchanged,
    /// One fresh simulation of the patched graph.
    Replayed,
}

/// A simulated base run, kept to answer duration perturbations of the
/// same task-graph structure. Queries take `&self`, so one base can
/// serve many threads' scratches.
#[derive(Debug, Clone)]
pub struct IncrementalSim {
    base: TaskGraph,
    policy: OrderPolicy,
    base_report: SimReport,
}

impl IncrementalSim {
    /// Simulates `base` once under `policy`.
    pub fn new(
        base: TaskGraph,
        capacities: &[u64],
        policy: OrderPolicy,
        scratch: &mut SimScratch,
    ) -> Self {
        let _span = heterog_telemetry::span("incremental_sim_new");
        let mut base_report = SimReport::default();
        simulate_uncounted(&base, capacities, &policy, scratch, &mut base_report);
        IncrementalSim {
            base,
            policy,
            base_report,
        }
    }

    /// The graph the base run simulated. Perturbed queries must preserve
    /// its structure (tasks, edges, placements, byte sizes) and may only
    /// change durations — `heterog_compile`'s repricer guarantees this.
    pub fn base_graph(&self) -> &TaskGraph {
        &self.base
    }

    /// The base run's report.
    pub fn base_report(&self) -> &SimReport {
        &self.base_report
    }

    /// Re-simulates a duration perturbation of the base graph into
    /// `out`, bit-identical to `simulate_into(patched, ...)` under the
    /// base policy. Returns which path produced the answer.
    pub fn resim(
        &self,
        patched: &TaskGraph,
        capacities: &[u64],
        scratch: &mut SimScratch,
        out: &mut SimReport,
    ) -> ResimOutcome {
        let _span = heterog_telemetry::span("resim");
        let n = self.base.len();
        assert_eq!(
            patched.len(),
            n,
            "resim requires the base graph's structure"
        );
        let num_gpus = self.base.num_gpus as usize;
        assert!(capacities.len() >= num_gpus, "capacity per GPU required");
        RESIMS.inc();

        // Duration-dirty tasks, bitwise: the contract is bit-identity, so
        // any bit flip counts and -0.0 vs 0.0 rewrites are not "equal".
        let dirty = self
            .base
            .iter()
            .zip(patched.iter())
            .filter(|((id, b), (_, p))| {
                debug_assert_eq!(
                    (b.proc, b.output_bytes, b.param_bytes),
                    (p.proc, p.output_bytes, p.param_bytes),
                    "resim contract: only durations may change ({})",
                    id
                );
                b.duration.to_bits() != p.duration.to_bits()
            })
            .count();
        DIRTY_SET_SIZE.observe(dirty as f64);

        if dirty == 0 {
            // Same durations => same schedule and peaks; only the OOM
            // verdict depends on the query's capacities.
            out.clone_from(&self.base_report);
            let memory = &mut out.memory;
            let per_gpu = memory
                .oom
                .iter_mut()
                .zip(&memory.peak_bytes)
                .zip(capacities);
            for ((oom, &peak), &capacity) in per_gpu.take(num_gpus) {
                *oom = peak > capacity;
            }
            UNCHANGED.inc();
            TASKS_SKIPPED.add(n as u64);
            emit_resim_event(0, n, 0, out.iteration_time);
            return ResimOutcome::Unchanged;
        }

        simulate_uncounted(patched, capacities, &self.policy, scratch, out);
        FULL_REPLAYS.inc();
        emit_resim_event(n, n, dirty, out.iteration_time);
        ResimOutcome::Replayed
    }
}

fn emit_resim_event(replayed: usize, total: usize, dirty: usize, makespan: f64) {
    heterog_events::emit_with(|| heterog_events::EventKind::IncrementalResim {
        replayed: replayed as u64,
        total: total as u64,
        dirty: dirty as u64,
        makespan,
    });
}

/// Snapshot of the incremental-replay counters (always readable; the
/// counters only advance while telemetry is enabled).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IncrementalSimStats {
    pub resims: u64,
    pub unchanged: u64,
    /// Always 0: no re-simulation resumes part-way any more. Kept so
    /// readers of this struct still build.
    pub resumed: u64,
    pub full_replays: u64,
    pub tasks_skipped: u64,
}

/// Reads the process-global incremental-replay counters.
pub fn incremental_sim_stats() -> IncrementalSimStats {
    IncrementalSimStats {
        resims: RESIMS.get(),
        unchanged: UNCHANGED.get(),
        resumed: 0,
        full_replays: FULL_REPLAYS.get(),
        tasks_skipped: TASKS_SKIPPED.get(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::simulate_into;
    use heterog_graph::OpKind;
    use heterog_sched::{Proc, Task, TaskId};

    /// Deterministic pseudo-random layered DAG mixing GPU and link tasks,
    /// mirroring the shape `compile` emits (compute on GPUs, transfers on
    /// links) without depending on the compiler.
    fn ragged(gpus: u32, links: u32, tasks: usize, seed: u64) -> TaskGraph {
        let mut tg = TaskGraph::new("ragged", gpus, links);
        let mut state = seed.wrapping_mul(2654435761).wrapping_add(12345);
        let mut rnd = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut ids: Vec<TaskId> = Vec::new();
        for i in 0..tasks {
            let r = rnd();
            let (kind, proc) = if r % 3 == 0 && links > 0 {
                (OpKind::Transfer, Proc::Link((r % links as u64) as u32))
            } else {
                (OpKind::NoOp, Proc::Gpu((r % gpus as u64) as u32))
            };
            let dur = 0.001 + (r % 1000) as f64 * 1e-4;
            let mut t = Task::new(format!("t{i}"), kind, proc, dur);
            if let Proc::Gpu(_) = proc {
                t.output_bytes = 1000 + (r % 5000);
            }
            let id = tg.add_task(t);
            // Up to 3 predecessors from earlier tasks.
            let npred = (rnd() % 4) as usize;
            let mut used = Vec::new();
            for _ in 0..npred.min(i) {
                let p = ids[(rnd() % i as u64) as usize];
                if !used.contains(&p) {
                    tg.add_dep(p, id);
                    used.push(p);
                }
            }
            ids.push(id);
        }
        tg
    }

    fn caps(n: usize) -> Vec<u64> {
        vec![16 << 30; n]
    }

    fn bitwise_eq(a: &SimReport, b: &SimReport) -> bool {
        a.iteration_time.to_bits() == b.iteration_time.to_bits()
            && a.computation_time.to_bits() == b.computation_time.to_bits()
            && a.communication_time.to_bits() == b.communication_time.to_bits()
            && a.memory.peak_bytes == b.memory.peak_bytes
            && a.memory.param_bytes == b.memory.param_bytes
            && a.memory.oom == b.memory.oom
            && a.gpu_busy.len() == b.gpu_busy.len()
            && a.gpu_busy
                .iter()
                .zip(&b.gpu_busy)
                .all(|(x, y)| x.to_bits() == y.to_bits())
            && a.link_busy
                .iter()
                .zip(&b.link_busy)
                .all(|(x, y)| x.to_bits() == y.to_bits())
            && a.schedule.start.len() == b.schedule.start.len()
            && a.schedule
                .start
                .iter()
                .zip(&b.schedule.start)
                .all(|(x, y)| x.to_bits() == y.to_bits())
            && a.schedule
                .finish
                .iter()
                .zip(&b.schedule.finish)
                .all(|(x, y)| x.to_bits() == y.to_bits())
    }

    fn base_sim(base: &TaskGraph, policy: OrderPolicy) -> IncrementalSim {
        let capacities = caps(base.num_gpus as usize);
        IncrementalSim::new(
            base.clone(),
            &capacities,
            policy,
            &mut SimScratch::default(),
        )
    }

    /// Resimulates `patched` against `inc` under `capacities` and checks
    /// the report bitwise against a fresh `simulate_into`.
    fn assert_resim_matches_fresh(
        inc: &IncrementalSim,
        patched: &TaskGraph,
        capacities: &[u64],
    ) -> (ResimOutcome, SimReport) {
        let mut scratch = SimScratch::default();
        let mut got = SimReport::default();
        let outcome = inc.resim(patched, capacities, &mut scratch, &mut got);
        let mut want = SimReport::default();
        simulate_into(patched, capacities, &inc.policy, &mut scratch, &mut want);
        assert!(
            bitwise_eq(&got, &want),
            "resim ({outcome:?}) diverged: got {} want {}",
            got.iteration_time,
            want.iteration_time
        );
        (outcome, got)
    }

    #[test]
    fn base_report_matches_plain_simulation() {
        for seed in [1u64, 7, 13] {
            let tg = ragged(4, 2, 160, seed);
            let inc = base_sim(&tg, OrderPolicy::RankBased);
            let (_, got) = assert_resim_matches_fresh(&inc, &tg, &caps(4));
            assert!(bitwise_eq(inc.base_report(), &got));
        }
    }

    #[test]
    fn unchanged_query_short_circuits() {
        let tg = ragged(4, 2, 120, 3);
        let inc = base_sim(&tg, OrderPolicy::RankBased);
        let (outcome, _) = assert_resim_matches_fresh(&inc, &tg, &caps(4));
        assert_eq!(outcome, ResimOutcome::Unchanged);
    }

    #[test]
    fn unchanged_query_rederives_oom_for_new_capacities() {
        let tg = ragged(4, 2, 120, 3);
        let inc = base_sim(&tg, OrderPolicy::RankBased);
        // Shrink device 0 below its peak: same schedule, new verdict.
        let mut tight = caps(4);
        tight[0] = inc.base_report().memory.peak_bytes[0].saturating_sub(1);
        let (outcome, got) = assert_resim_matches_fresh(&inc, &tg, &tight);
        assert_eq!(outcome, ResimOutcome::Unchanged);
        assert!(got.memory.oom[0]);
        assert!(!inc.base_report().memory.oom[0]);
    }

    #[test]
    fn randomized_perturbations_are_bit_identical() {
        let mut state = 0xD1CEu64;
        let mut rnd = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for policy in [OrderPolicy::RankBased, OrderPolicy::Fifo] {
            for seed in [2u64, 5, 11, 17] {
                let base = ragged(4, 2, 150, seed);
                let mut patched = base.clone();
                // Perturb a random handful of task durations.
                let k = 1 + (rnd() % 4) as usize;
                for _ in 0..k {
                    let t = TaskId((rnd() % base.len() as u64) as u32);
                    let factor = 0.5 + (rnd() % 300) as f64 * 0.01;
                    let task = patched.task_mut(t);
                    task.duration *= factor;
                }
                let inc = base_sim(&base, policy.clone());
                assert_resim_matches_fresh(&inc, &patched, &caps(4));
            }
        }
    }

    #[test]
    fn every_task_dirty_replays_bit_identically() {
        let base = ragged(4, 2, 140, 23);
        let mut patched = base.clone();
        for i in 0..base.len() {
            patched.task_mut(TaskId(i as u32)).duration *= 1.25;
        }
        let inc = base_sim(&base, OrderPolicy::RankBased);
        let (outcome, _) = assert_resim_matches_fresh(&inc, &patched, &caps(4));
        assert_eq!(outcome, ResimOutcome::Replayed);
    }

    #[test]
    fn late_perturbation_replays_under_fifo() {
        // Perturb the task that finishes last under FIFO.
        let base = ragged(4, 2, 200, 31);
        let inc = base_sim(&base, OrderPolicy::Fifo);
        let last = inc
            .base_report()
            .schedule
            .finish
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| TaskId(i as u32))
            .unwrap();
        let mut patched = base.clone();
        patched.task_mut(last).duration *= 2.0;
        let (outcome, _) = assert_resim_matches_fresh(&inc, &patched, &caps(4));
        assert_eq!(outcome, ResimOutcome::Replayed);
    }

    #[test]
    fn first_and_last_task_perturbations_are_bit_identical() {
        // Dirty exactly the first task and exactly the last, under both
        // rank-based and FIFO ordering.
        let base = ragged(3, 1, 130, 41);
        for idx in [0usize, 129] {
            let mut patched = base.clone();
            patched.task_mut(TaskId(idx as u32)).duration += 0.5;
            for policy in [OrderPolicy::RankBased, OrderPolicy::Fifo] {
                let inc = base_sim(&base, policy);
                let (outcome, _) = assert_resim_matches_fresh(&inc, &patched, &caps(3));
                assert_eq!(outcome, ResimOutcome::Replayed);
            }
        }
    }

    #[test]
    fn perturbation_sequences_are_bit_identical() {
        // One base, many successive perturbed queries against the same
        // IncrementalSim — the planner-loop usage pattern.
        let base = ragged(4, 2, 160, 53);
        let inc = base_sim(&base, OrderPolicy::RankBased);
        let mut state = 77u64;
        let mut rnd = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for _ in 0..12 {
            let mut patched = base.clone();
            for _ in 0..1 + (rnd() % 3) {
                let t = TaskId((rnd() % base.len() as u64) as u32);
                patched.task_mut(t).duration *= 0.25 + (rnd() % 400) as f64 * 0.01;
            }
            assert_resim_matches_fresh(&inc, &patched, &caps(4));
        }
    }

    #[test]
    fn explicit_priorities_policy_is_supported() {
        let base = ragged(3, 1, 100, 61);
        let prios: Vec<f64> = (0..100).map(|i| ((i * 37) % 100) as f64).collect();
        let mut patched = base.clone();
        patched.task_mut(TaskId(90)).duration *= 4.0;
        let inc = base_sim(&base, OrderPolicy::Priorities(prios));
        assert_resim_matches_fresh(&inc, &patched, &caps(3));
    }
}
