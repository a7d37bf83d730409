//! Incremental re-simulation: dirty-region replay.
//!
//! The planners spend most of their budget evaluating *perturbations* of
//! a strategy they already simulated — a device slowed down, one link's
//! bandwidth changed, one replica moved. A full simulation rebuilds the
//! whole schedule from scratch even though the perturbed graph shares
//! its structure with the base and most task durations are bitwise
//! unchanged. [`IncrementalSim`] records checkpoints of the base run's
//! scheduler *and* memory-accounting state at evenly spaced cuts, then
//! answers a perturbed query by
//!
//! 1. computing the **duration-dirty** set (tasks whose duration bits
//!    differ from the base) and, under rank-based ordering, the
//!    **priority-dirty** set (tasks whose upward rank bits differ),
//! 2. short-circuiting to the cached base report when both are empty
//!    (only the OOM flags are re-derived against the query capacities),
//! 3. resuming from the latest checkpoint unaffected by any dirty task
//!    (see [`CheckpointLog::best_resumable`]) and replaying only the
//!    suffix, or
//! 4. falling back to a full — but still compile-free — replay when the
//!    dirty set exceeds [`ResimOptions::fallback_dirty_frac`] or no
//!    checkpoint is valid.
//!
//! Every path funnels through the same `finalize_report` as
//! [`crate::simulate_into`], and a resumed replay restores the exact
//! alloc/free event prefix and reference counts captured at the cut, so
//! results are **bit-identical** to a fresh simulation of the perturbed
//! graph: same makespan bits, same peaks, same OOM flags, same report
//! digests. The tests assert this over randomized perturbations.
//!
//! Deliberately *not* counted: the plain-simulation telemetry
//! (`heterog_sim_simulations_total` etc.) — incremental replays have
//! their own counters so existing "one simulation per evaluation"
//! invariants keep holding.

use heterog_sched::{
    list_schedule_observed_with, list_schedule_recorded, list_schedule_resumed, upward_ranks_into,
    CheckpointLog, OrderPolicy, Proc, ScheduleHook, TaskGraph, TaskId,
};
use heterog_telemetry::{Counter, Histogram};

use crate::report::{finalize_report, MemHook, SimReport, SimScratch};

static RESIMS: Counter = Counter::new(
    "heterog_sim_incremental_resims_total",
    "Incremental re-simulation requests (all outcomes)",
);
static UNCHANGED: Counter = Counter::new(
    "heterog_sim_incremental_unchanged_total",
    "Re-simulations answered from the cached base report (empty dirty set)",
);
static RESUMED: Counter = Counter::new(
    "heterog_sim_incremental_resumed_total",
    "Re-simulations that replayed only a dirty suffix from a checkpoint",
);
static FULL_REPLAYS: Counter = Counter::new(
    "heterog_sim_incremental_full_replays_total",
    "Re-simulations that fell back to a full (compile-free) replay",
);
static TASKS_SKIPPED: Counter = Counter::new(
    "heterog_sim_incremental_tasks_skipped_total",
    "Tasks whose base schedule entries were reused instead of re-executed",
);
static DIRTY_SET_SIZE: Histogram = Histogram::new(
    "heterog_sim_incremental_dirty_tasks",
    "Dirty-set size (duration- plus priority-dirty tasks) per re-simulation",
);

/// Tuning knobs for [`IncrementalSim`].
#[derive(Debug, Clone, Copy)]
pub struct ResimOptions {
    /// Checkpoint spacing as a fraction of the task count: a cut is
    /// captured every `max(1, n * frac)` completions. Smaller = finer
    /// resume granularity, more memory per checkpoint set.
    pub checkpoint_interval_frac: f64,
    /// Above this dirty fraction a resume saves too little to be worth
    /// the restore; go straight to the full replay path.
    pub fallback_dirty_frac: f64,
}

impl Default for ResimOptions {
    fn default() -> Self {
        ResimOptions {
            checkpoint_interval_frac: 0.125,
            fallback_dirty_frac: 0.35,
        }
    }
}

/// Which path a [`IncrementalSim::resim`] call took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResimOutcome {
    /// No task duration differed from the base: the cached report was
    /// copied and only the OOM flags re-derived.
    Unchanged,
    /// Resumed from checkpoint `from`; the `skipped` tasks completed
    /// before the cut were not re-executed.
    Resumed { from: usize, skipped: usize },
    /// Full compile-free replay (dirty set too large or no valid cut).
    Replayed,
}

/// Memory-accounting state at a checkpoint: how many alloc/free events
/// had been emitted (a prefix of the base run's event list, in emission
/// order) and the remaining-consumer counts.
#[derive(Debug, Clone)]
struct MemSnap {
    events_len: usize,
    remaining: Vec<u32>,
}

/// Wraps the fused memory hook and snapshots its state whenever the
/// scheduler captures a checkpoint, keeping both views of a cut (queues
/// and allocations) consistent by construction.
struct RecordingMemHook<'a, 'b> {
    inner: MemHook<'a>,
    snaps: &'b mut Vec<MemSnap>,
}

impl ScheduleHook for RecordingMemHook<'_, '_> {
    #[inline]
    fn on_start(&mut self, task: TaskId, time: f64) {
        self.inner.on_start(task, time);
    }

    #[inline]
    fn on_finish(&mut self, task: TaskId, time: f64) {
        self.inner.on_finish(task, time);
    }

    fn on_checkpoint(&mut self, _idx: usize) {
        self.snaps.push(MemSnap {
            events_len: self.inner.events.len(),
            remaining: self.inner.remaining.to_vec(),
        });
    }
}

/// A simulated base run plus everything needed to re-simulate duration
/// perturbations of the same task-graph structure cheaply. Queries take
/// `&self`, so one base can serve many threads' scratches.
#[derive(Debug, Clone)]
pub struct IncrementalSim {
    base: TaskGraph,
    policy: OrderPolicy,
    opts: ResimOptions,
    log: CheckpointLog,
    base_report: SimReport,
    /// The base run's alloc/free events in emission order (unsorted —
    /// `MemSnap::events_len` indexes into this).
    base_mem_events: Vec<(f64, u32, i64)>,
    mem_snaps: Vec<MemSnap>,
    /// Cached pre-pass: pinned parameter bytes and activity per GPU,
    /// consumer counts per task — placement-determined, so shared by
    /// every duration perturbation.
    param_bytes: Vec<u64>,
    active: Vec<bool>,
    out_deg: Vec<u32>,
}

impl IncrementalSim {
    /// Simulates `base` once under `policy`, recording checkpoints.
    pub fn new(
        base: TaskGraph,
        capacities: &[u64],
        policy: OrderPolicy,
        opts: ResimOptions,
        scratch: &mut SimScratch,
    ) -> Self {
        let _span = heterog_telemetry::span("incremental_sim_new");
        let num_gpus = base.num_gpus as usize;
        assert!(capacities.len() >= num_gpus, "capacity per GPU required");

        let mut param_bytes = vec![0u64; num_gpus];
        let mut active = vec![false; num_gpus];
        let mut out_deg = Vec::with_capacity(base.len());
        for (id, task) in base.iter() {
            out_deg.push(base.out_degree(id) as u32);
            if let Proc::Gpu(g) = task.proc {
                param_bytes[g as usize] += task.param_bytes;
                active[g as usize] = true;
            }
        }

        let interval = ((base.len() as f64 * opts.checkpoint_interval_frac) as usize).max(1);
        let mut base_report = SimReport::default();
        base_report.memory.param_bytes.clone_from(&param_bytes);
        scratch.remaining.clone_from(&out_deg);
        scratch.events.clear();
        let mut mem_snaps = Vec::new();
        let mut log = CheckpointLog::default();
        {
            let mut hook = RecordingMemHook {
                inner: MemHook {
                    tg: &base,
                    events: &mut scratch.events,
                    remaining: &mut scratch.remaining,
                },
                snaps: &mut mem_snaps,
            };
            list_schedule_recorded(
                &base,
                &policy,
                interval,
                &mut scratch.sched,
                &mut base_report.schedule,
                &mut hook,
                &mut log,
            );
        }
        debug_assert_eq!(mem_snaps.len(), log.num_checkpoints());
        // Keep the emission-order event list *before* finalize sorts its
        // working copy: resumes splice a prefix of it.
        let base_mem_events = scratch.events.clone();
        finalize_report(
            &base,
            capacities,
            &active,
            &mut scratch.events,
            &mut scratch.cur,
            &mut scratch.peak,
            &mut scratch.intervals,
            &mut base_report,
        );

        IncrementalSim {
            base,
            policy,
            opts,
            log,
            base_report,
            base_mem_events,
            mem_snaps,
            param_bytes,
            active,
            out_deg,
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

    /// Checkpoints captured by the base run.
    pub fn num_checkpoints(&self) -> usize {
        self.log.num_checkpoints()
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

        let SimScratch {
            sched,
            events,
            remaining,
            cur,
            peak,
            intervals,
            dirty,
            prio_dirty,
            new_ranks,
            rank_scratch,
            ..
        } = scratch;

        // Duration-dirty set, bitwise: the contract is bit-identity, so
        // any bit flip counts and -0.0 vs 0.0 rewrites are not "equal".
        dirty.clear();
        for ((id, b), (_, p)) in self.base.iter().zip(patched.iter()) {
            debug_assert_eq!(
                (b.proc, b.output_bytes, b.param_bytes),
                (p.proc, p.output_bytes, p.param_bytes),
                "resim contract: only durations may change ({})",
                id
            );
            if b.duration.to_bits() != p.duration.to_bits() {
                dirty.push(id);
            }
        }

        if dirty.is_empty() {
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
            DIRTY_SET_SIZE.observe(0.0);
            emit_resim_event(0, n, 0, out.iteration_time);
            return ResimOutcome::Unchanged;
        }

        // Priority-dirty set. Fixed priorities (FIFO / explicit) never
        // go priority-dirty; rank-based ordering re-derives ranks on the
        // patched graph and diffs them bitwise against the base.
        prio_dirty.clear();
        let priorities: Option<&[f64]> = match &self.policy {
            OrderPolicy::Fifo => None,
            OrderPolicy::Priorities(_) => Some(self.log.ranks()),
            OrderPolicy::RankBased => {
                upward_ranks_into(patched, rank_scratch, new_ranks);
                let old = self.log.ranks();
                for (i, (new, old)) in new_ranks.iter().zip(old).enumerate() {
                    if new.to_bits() != old.to_bits() {
                        prio_dirty.push(TaskId(i as u32));
                    }
                }
                Some(new_ranks)
            }
        };

        let total_dirty = dirty.len() + prio_dirty.len();
        DIRTY_SET_SIZE.observe(total_dirty as f64);

        out.memory.param_bytes.clone_from(&self.param_bytes);
        let resume_at = if total_dirty as f64 > self.opts.fallback_dirty_frac * n as f64 {
            None
        } else {
            self.log.best_resumable(dirty, prio_dirty)
        };

        let outcome = match resume_at {
            Some(k) => {
                // Restore the memory accounting exactly as it stood at
                // the cut, then replay the suffix.
                let snap = &self.mem_snaps[k];
                events.clear();
                events.extend_from_slice(&self.base_mem_events[..snap.events_len]);
                remaining.clone_from(&snap.remaining);
                let mut hook = MemHook {
                    tg: patched,
                    events,
                    remaining,
                };
                list_schedule_resumed(
                    patched,
                    priorities,
                    &self.log,
                    k,
                    sched,
                    &mut out.schedule,
                    &mut hook,
                );
                let skipped = self.log.completed_at(k);
                RESUMED.inc();
                TASKS_SKIPPED.add(skipped as u64);
                ResimOutcome::Resumed { from: k, skipped }
            }
            None => {
                events.clear();
                remaining.clone_from(&self.out_deg);
                let mut hook = MemHook {
                    tg: patched,
                    events,
                    remaining,
                };
                list_schedule_observed_with(
                    patched,
                    priorities,
                    sched,
                    &mut out.schedule,
                    &mut hook,
                );
                FULL_REPLAYS.inc();
                ResimOutcome::Replayed
            }
        };

        finalize_report(
            patched,
            capacities,
            &self.active,
            events,
            cur,
            peak,
            intervals,
            out,
        );

        let replayed = match outcome {
            ResimOutcome::Resumed { skipped, .. } => n - skipped,
            _ => n,
        };
        emit_resim_event(replayed, n, total_dirty, out.iteration_time);
        outcome
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
    pub resumed: u64,
    pub full_replays: u64,
    pub tasks_skipped: u64,
}

/// Reads the process-global incremental-replay counters.
pub fn incremental_sim_stats() -> IncrementalSimStats {
    IncrementalSimStats {
        resims: RESIMS.get(),
        unchanged: UNCHANGED.get(),
        resumed: RESUMED.get(),
        full_replays: FULL_REPLAYS.get(),
        tasks_skipped: TASKS_SKIPPED.get(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::simulate_into;
    use heterog_graph::OpKind;
    use heterog_sched::Task;

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

    fn assert_resim_matches_fresh(
        base: &TaskGraph,
        patched: &TaskGraph,
        policy: &OrderPolicy,
        opts: ResimOptions,
    ) -> ResimOutcome {
        let capacities = caps(base.num_gpus as usize);
        let mut scratch = SimScratch::default();
        let inc = IncrementalSim::new(
            base.clone(),
            &capacities,
            policy.clone(),
            opts,
            &mut scratch,
        );
        let mut got = SimReport::default();
        let outcome = inc.resim(patched, &capacities, &mut scratch, &mut got);
        let mut want = SimReport::default();
        simulate_into(patched, &capacities, policy, &mut scratch, &mut want);
        assert!(
            bitwise_eq(&got, &want),
            "resim ({outcome:?}) diverged: got {} want {}",
            got.iteration_time,
            want.iteration_time
        );
        outcome
    }

    #[test]
    fn base_report_matches_plain_simulation() {
        for seed in [1u64, 7, 13] {
            let tg = ragged(4, 2, 160, seed);
            let capacities = caps(4);
            let mut scratch = SimScratch::default();
            let inc = IncrementalSim::new(
                tg.clone(),
                &capacities,
                OrderPolicy::RankBased,
                ResimOptions::default(),
                &mut scratch,
            );
            let mut want = SimReport::default();
            simulate_into(
                &tg,
                &capacities,
                &OrderPolicy::RankBased,
                &mut scratch,
                &mut want,
            );
            assert!(bitwise_eq(inc.base_report(), &want));
            assert!(inc.num_checkpoints() > 0);
        }
    }

    #[test]
    fn unchanged_query_short_circuits() {
        let tg = ragged(4, 2, 120, 3);
        let capacities = caps(4);
        let mut scratch = SimScratch::default();
        let inc = IncrementalSim::new(
            tg.clone(),
            &capacities,
            OrderPolicy::RankBased,
            ResimOptions::default(),
            &mut scratch,
        );
        let mut got = SimReport::default();
        let outcome = inc.resim(&tg, &capacities, &mut scratch, &mut got);
        assert_eq!(outcome, ResimOutcome::Unchanged);
        assert!(bitwise_eq(&got, inc.base_report()));
    }

    #[test]
    fn unchanged_query_rederives_oom_for_new_capacities() {
        let tg = ragged(4, 2, 120, 3);
        let capacities = caps(4);
        let mut scratch = SimScratch::default();
        let inc = IncrementalSim::new(
            tg.clone(),
            &capacities,
            OrderPolicy::RankBased,
            ResimOptions::default(),
            &mut scratch,
        );
        // Shrink device 0 below its peak: same schedule, new verdict.
        let mut tight = capacities.clone();
        tight[0] = inc.base_report().memory.peak_bytes[0].saturating_sub(1);
        let mut got = SimReport::default();
        let outcome = inc.resim(&tg, &tight, &mut scratch, &mut got);
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
                assert_resim_matches_fresh(&base, &patched, &policy, ResimOptions::default());
            }
        }
    }

    #[test]
    fn forced_fallback_is_bit_identical() {
        let base = ragged(4, 2, 140, 23);
        let mut patched = base.clone();
        // Dirty every task => guaranteed to exceed any sane threshold.
        for i in 0..base.len() {
            patched.task_mut(TaskId(i as u32)).duration *= 1.25;
        }
        let outcome = assert_resim_matches_fresh(
            &base,
            &patched,
            &OrderPolicy::RankBased,
            ResimOptions::default(),
        );
        assert_eq!(outcome, ResimOutcome::Replayed);
    }

    #[test]
    fn zero_fallback_threshold_forces_full_replay_path() {
        let base = ragged(4, 2, 140, 29);
        let mut patched = base.clone();
        patched.task_mut(TaskId((base.len() - 1) as u32)).duration *= 3.0;
        let outcome = assert_resim_matches_fresh(
            &base,
            &patched,
            &OrderPolicy::Fifo,
            ResimOptions {
                fallback_dirty_frac: 0.0,
                ..ResimOptions::default()
            },
        );
        assert_eq!(outcome, ResimOutcome::Replayed);
    }

    #[test]
    fn late_perturbation_resumes_under_fifo() {
        // Under FIFO, priorities never go dirty, so perturbing a task
        // dispatched late must resume from some checkpoint.
        let base = ragged(4, 2, 200, 31);
        let capacities = caps(4);
        let mut scratch = SimScratch::default();
        let inc = IncrementalSim::new(
            base.clone(),
            &capacities,
            OrderPolicy::Fifo,
            ResimOptions::default(),
            &mut scratch,
        );
        // The task that finishes last is dispatched last (or near it).
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
        let mut got = SimReport::default();
        let outcome = inc.resim(&patched, &capacities, &mut scratch, &mut got);
        assert!(
            matches!(outcome, ResimOutcome::Resumed { skipped, .. } if skipped > 0),
            "expected a resume, got {outcome:?}"
        );
        let mut want = SimReport::default();
        simulate_into(
            &patched,
            &capacities,
            &OrderPolicy::Fifo,
            &mut scratch,
            &mut want,
        );
        assert!(bitwise_eq(&got, &want));
    }

    #[test]
    fn checkpoint_boundary_perturbations_are_bit_identical() {
        // Dirty exactly the first task (invalidates every cut) and
        // exactly the last (valid at the final cut) — the two boundary
        // cases of `best_resumable`.
        let base = ragged(3, 1, 130, 41);
        for idx in [0usize, 129] {
            let mut patched = base.clone();
            patched.task_mut(TaskId(idx as u32)).duration += 0.5;
            assert_resim_matches_fresh(
                &base,
                &patched,
                &OrderPolicy::RankBased,
                ResimOptions::default(),
            );
            assert_resim_matches_fresh(
                &base,
                &patched,
                &OrderPolicy::Fifo,
                ResimOptions::default(),
            );
        }
    }

    #[test]
    fn perturbation_sequences_are_bit_identical() {
        // One base, many successive perturbed queries against the same
        // IncrementalSim — the planner-loop usage pattern.
        let base = ragged(4, 2, 160, 53);
        let capacities = caps(4);
        let mut scratch = SimScratch::default();
        let inc = IncrementalSim::new(
            base.clone(),
            &capacities,
            OrderPolicy::RankBased,
            ResimOptions::default(),
            &mut scratch,
        );
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
            let mut got = SimReport::default();
            inc.resim(&patched, &capacities, &mut scratch, &mut got);
            let mut want = SimReport::default();
            simulate_into(
                &patched,
                &capacities,
                &OrderPolicy::RankBased,
                &mut scratch,
                &mut want,
            );
            assert!(bitwise_eq(&got, &want));
        }
    }

    #[test]
    fn explicit_priorities_policy_is_supported() {
        let base = ragged(3, 1, 100, 61);
        let prios: Vec<f64> = (0..100).map(|i| ((i * 37) % 100) as f64).collect();
        let mut patched = base.clone();
        patched.task_mut(TaskId(90)).duration *= 4.0;
        assert_resim_matches_fresh(
            &base,
            &patched,
            &OrderPolicy::Priorities(prios),
            ResimOptions::default(),
        );
    }
}
