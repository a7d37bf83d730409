//! Simulation driver and the per-iteration report.
//!
//! [`simulate_into`] reuses a caller-owned [`SimScratch`] and output
//! report ([`simulate`] the thread's one scratch, [`with_scratch`]) and
//! fuses the reference-counted memory accounting (§5) into the
//! scheduling event loop via a [`ScheduleHook`] — one pass over the
//! graph, zero heap allocations after warm-up. The hook folds each
//! allocation and free into per-GPU running totals as it happens and
//! records link intervals in start order, so neither memory events nor
//! intervals are stored and sorted. [`simulate_within`] stops once the
//! schedule is sure to end after a limit, and takes what the run reads
//! of the graph before its first event (upward ranks, per-GPU parameter
//! bytes and activity, a [`Prepass`]) from a caller that derived it
//! from a simulated base, instead of sweeping the graph.

use heterog_sched::{
    list_schedule_observed, Dir, GraphRead, OrderPolicy, Proc, Schedule, ScheduleHook,
    ScheduleScratch, Task, TaskGraph, TaskId,
};
use heterog_telemetry::{Counter, Gauge, Histogram};

use crate::memory::{MemoryReport, RUNTIME_WORKSPACE_BYTES};

static SIMULATIONS: Counter = Counter::new(
    "heterog_sim_simulations_total",
    "Training-iteration simulations run",
);
static EVENTS_PROCESSED: Counter = Counter::new(
    "heterog_sim_events_processed_total",
    "Task-completion events processed by the discrete-event simulator",
);
static OOM_DEVICES: Counter = Counter::new(
    "heterog_sim_oom_devices_total",
    "GPU placements that exceeded device memory across all simulations",
);
static MEMORY_PEAK: Gauge = Gauge::new(
    "heterog_sim_memory_peak_bytes",
    "Highest per-GPU peak memory (incl. runtime workspace) seen so far",
);
static ITERATION_TIME: Histogram = Histogram::new(
    "heterog_sim_iteration_time_seconds",
    "Simulated per-iteration times",
);

/// Everything the simulator learns about one training iteration.
#[derive(Debug, Clone, Default)]
pub struct SimReport {
    /// End-to-end per-iteration time, seconds.
    pub iteration_time: f64,
    /// Memory accounting + OOM flags.
    pub memory: MemoryReport,
    /// Busy seconds per GPU.
    pub gpu_busy: Vec<f64>,
    /// Busy seconds per link.
    pub link_busy: Vec<f64>,
    /// Computation time: the bottleneck GPU's busy time (what Fig. 8
    /// plots as "Computation").
    pub computation_time: f64,
    /// Communication time: union length of intervals during which at
    /// least one link is active (Fig. 8's "Communication").
    pub communication_time: f64,
    /// The raw schedule (start/finish per task) for tracing.
    pub schedule: Schedule,
}

impl SimReport {
    /// (computation + communication) / iteration time — the overlap
    /// ratio the paper quotes in §6.7 (1.31 for CP-AR VGG19, 1.47 for
    /// HeteroG, ...). Higher = better overlap.
    pub fn overlap_ratio(&self) -> f64 {
        // The NaN check matters: a NaN makespan (e.g. a default report
        // that never ran) passes `<= 0.0` and would poison downstream
        // aggregates.
        if self.iteration_time.is_nan() || self.iteration_time <= 0.0 {
            return 0.0;
        }
        (self.computation_time + self.communication_time) / self.iteration_time
    }

    /// Mean GPU utilization.
    pub fn mean_gpu_utilization(&self) -> f64 {
        if self.iteration_time.is_nan() || self.iteration_time <= 0.0 || self.gpu_busy.is_empty() {
            return 0.0;
        }
        self.gpu_busy.iter().sum::<f64>() / (self.gpu_busy.len() as f64 * self.iteration_time)
    }
}

/// Reusable buffers for [`simulate_into`]: scheduling scratch, the
/// reference counts, the per-GPU memory accumulators and the link
/// intervals in start order. A warm scratch makes simulation
/// allocation-free.
#[derive(Debug, Clone, Default)]
pub struct SimScratch {
    sched: ScheduleScratch,
    /// Remaining-consumer counts per task (reference counting).
    remaining: Vec<u32>,
    cur: Vec<i64>,
    peak: Vec<i64>,
    /// Per GPU, the time of its last allocation or free.
    last: Vec<f64>,
    active: Vec<bool>,
    intervals: Vec<(f64, f64)>,
}

/// The fused memory tracker: observes the scheduling event loop and
/// applies each alloc/free as [`crate::memory::memory_usage`] derives
/// them after the fact. An output allocates at its producer's dispatch;
/// it frees when its remaining-consumer count hits zero — which happens
/// while processing the last consumer's completion event, i.e. at the
/// max consumer finish time (tasks without consumers free at their own
/// finish).
///
/// The events arrive in nondecreasing time. The post-hoc sweep applies
/// a timestamp's frees before its allocations, so within one timestamp
/// a GPU's running total first falls, then rises: its peak there is the
/// larger of its totals before and after the timestamp. So each GPU's
/// total is folded into its peak only when the GPU's next event comes
/// at a later time, and once more at the end. The peaks are integers
/// and equal the sweep's exactly. Each link task's interval is recorded
/// at its start, which keeps the intervals in start order.
struct MemHook<'a, G: ?Sized> {
    tg: &'a G,
    remaining: &'a mut [u32],
    cur: &'a mut [i64],
    peak: &'a mut [i64],
    last: &'a mut [f64],
    intervals: &'a mut Vec<(f64, f64)>,
}

impl<G: ?Sized> MemHook<'_, G> {
    /// Applies `sign` times `task`'s output bytes at `time` on its GPU.
    /// A link task holds none: in-flight bytes are accounted at endpoints.
    #[inline]
    fn apply(&mut self, task: &Task, time: f64, sign: i64) {
        if let Proc::Gpu(g) = task.proc {
            if task.bytes > 0 {
                let g = g as usize;
                if time > self.last[g] {
                    self.peak[g] = self.peak[g].max(self.cur[g]);
                    self.last[g] = time;
                }
                self.cur[g] += sign * task.bytes as i64;
            }
        }
    }
}

impl<G: GraphRead + ?Sized> ScheduleHook for MemHook<'_, G> {
    #[inline]
    fn on_start(&mut self, task: TaskId, time: f64) {
        let task = self.tg.task(task);
        if task.proc.is_link() {
            if task.duration > 0.0 {
                self.intervals.push((time, time + task.duration));
            }
        } else {
            self.apply(task, time, 1);
        }
    }

    #[inline]
    fn on_finish(&mut self, task: TaskId, time: f64) {
        // Completion events arrive in nondecreasing time order, so when a
        // predecessor's count hits zero here, `time` equals the maximum
        // finish over its consumers — the seed accounting's release time.
        let tg = self.tg;
        if self.remaining[task.index()] == 0 {
            self.apply(tg.task(task), time, -1);
        }
        for p in tg.preds(task) {
            self.remaining[p.index()] -= 1;
            if self.remaining[p.index()] == 0 {
                self.apply(tg.task(p), time, -1);
            }
        }
    }
}

/// Simulates one training iteration of the placed task graph.
///
/// * `capacities` — per-GPU memory, bytes (index = GPU id).
/// * `policy` — execution-order policy (rank-based = HeteroG's scheduler;
///   FIFO = TensorFlow default, the §6.6 baseline).
///
/// Delegates to [`simulate_into`] on the thread's [`SimScratch`]
/// ([`with_scratch`]), so after warm-up a call allocates only the fresh
/// [`SimReport`] it returns; hot loops that reuse a report call
/// [`simulate_into`] instead.
pub fn simulate(tg: &TaskGraph, capacities: &[u64], policy: &OrderPolicy) -> SimReport {
    let mut out = SimReport::default();
    with_scratch(|s| simulate_into(tg, capacities, policy, s, &mut out));
    out
}

thread_local! {
    /// The thread's simulator scratch (see [`with_scratch`]).
    static SCRATCH: std::cell::RefCell<SimScratch> = Default::default();
}

/// Runs `f` on the thread's one [`SimScratch`]. Every simulation on a
/// thread that holds no scratch of its own ([`simulate`], and the
/// evaluations of `heterog-strategies`) shares it, so a thread keeps
/// one scratch, sized by the largest graph it simulated, and a
/// simulation after warm-up allocates none. Panics if `f` calls
/// `with_scratch` again (on this thread) while it holds the scratch.
pub fn with_scratch<R>(f: impl FnOnce(&mut SimScratch) -> R) -> R {
    SCRATCH.with(|s| {
        let mut scratch = s
            .try_borrow_mut()
            .expect("simulator scratch already in use on this thread: with_scratch does not nest");
        f(&mut scratch)
    })
}

/// [`simulate`] into caller-owned scratch and output buffers, zero heap
/// allocations per call after warm-up: [`simulate_within`] at an
/// infinite limit, which always runs to the end.
pub fn simulate_into(
    tg: &TaskGraph,
    capacities: &[u64],
    policy: &OrderPolicy,
    scratch: &mut SimScratch,
    out: &mut SimReport,
) {
    simulate_within(tg, None, capacities, policy, f64::INFINITY, scratch, out);
}

/// What a simulation reads of its task graph before the first event,
/// as a caller derived it: every task's upward rank, bit for bit what
/// [`heterog_sched::upward_ranks`] gives, and per GPU the parameter
/// bytes its tasks pin and whether any task runs on it. A graph spliced
/// from a simulated base differs from it in a few segments, so its
/// caller can derive these from the base's at the cost of what changed.
#[derive(Debug, Clone, Copy)]
pub struct Prepass<'a> {
    /// Upward rank per task.
    pub ranks: &'a [f64],
    /// Pinned parameter bytes per GPU.
    pub param_bytes: &'a [u64],
    /// Per GPU, whether any task runs on it.
    pub active: &'a [bool],
}

/// [`simulate_into`], stopped once the schedule is sure to end after
/// `limit` (see [`list_schedule_observed`]): then it returns the running
/// bound it stopped at, leaves `out` partial, counts no simulation and
/// emits no event. It returns `None` when it ran to the end. With a
/// `prepass` it reads the ranks, parameter bytes and active GPUs from
/// it instead of sweeping `tg`; the result is the same bit for bit when
/// `prepass` is what a sweep finds.
pub fn simulate_within<G: GraphRead + ?Sized>(
    tg: &G,
    prepass: Option<&Prepass<'_>>,
    capacities: &[u64],
    policy: &OrderPolicy,
    limit: f64,
    scratch: &mut SimScratch,
    out: &mut SimReport,
) -> Option<f64> {
    let _span = heterog_telemetry::span("simulate");
    if let Some(bound) = simulate_uncounted(tg, prepass, capacities, policy, limit, scratch, out) {
        return Some(bound);
    }
    let memory = &out.memory;
    let oom_devices = memory.oom.iter().filter(|&&o| o).count() as u64;

    SIMULATIONS.inc();
    // The event-driven scheduler processes exactly one completion event
    // per task.
    EVENTS_PROCESSED.add(tg.len() as u64);
    OOM_DEVICES.add(oom_devices);
    if let Some(&peak) = memory.peak_bytes.iter().max() {
        MEMORY_PEAK.record_max(peak as f64);
    }
    ITERATION_TIME.observe(out.schedule.makespan);

    if heterog_events::recording() {
        heterog_events::emit(heterog_events::EventKind::SimEpoch {
            tasks: tg.len() as u64,
            makespan: out.schedule.makespan,
            oom_devices,
        });
        let per_gpu = memory.oom.iter().zip(&memory.peak_bytes).zip(capacities);
        for (g, ((&oom, &peak_bytes), &capacity_bytes)) in per_gpu.enumerate() {
            if oom {
                heterog_events::emit(heterog_events::EventKind::Oom {
                    device: g as u64,
                    peak_bytes,
                    capacity_bytes,
                });
            }
        }
    }
    None
}

/// [`simulate_within`] without its counters and events: re-simulations
/// of re-priced task graphs and the base runs they answer against use
/// this at an infinite limit, so that `heterog_sim_simulations_total`,
/// `SimEpoch` and `Oom` count plain simulations only.
pub fn simulate_uncounted<G: GraphRead + ?Sized>(
    tg: &G,
    prepass: Option<&Prepass<'_>>,
    capacities: &[u64],
    policy: &OrderPolicy,
    limit: f64,
    scratch: &mut SimScratch,
    out: &mut SimReport,
) -> Option<f64> {
    let num_gpus = tg.num_gpus() as usize;
    assert!(capacities.len() >= num_gpus, "capacity per GPU required");

    let SimScratch {
        sched,
        remaining,
        cur,
        peak,
        last,
        active,
        intervals,
    } = scratch;

    // Pinned parameters and per-GPU activity, given or in one pre-pass;
    // seed the reference counts with each task's consumer count.
    let memory = &mut out.memory;
    memory.param_bytes.clear();
    active.clear();
    match prepass {
        Some(given) => {
            memory
                .param_bytes
                .extend_from_slice(&given.param_bytes[..num_gpus]);
            active.extend_from_slice(&given.active[..num_gpus]);
        }
        None => {
            memory.param_bytes.resize(num_gpus, 0);
            active.resize(num_gpus, false);
            tg.for_each_task(|task| {
                if let Proc::Gpu(g) = task.proc {
                    memory.param_bytes[g as usize] += task.param_bytes;
                    active[g as usize] = true;
                }
            });
        }
    }
    tg.degrees_into(Dir::Succs, remaining);

    cur.clear();
    cur.extend(memory.param_bytes.iter().map(|&p| p as i64));
    peak.clear();
    peak.extend_from_slice(cur);
    last.clear();
    last.resize(num_gpus, f64::NEG_INFINITY);
    intervals.clear();
    let mut hook = MemHook {
        tg,
        remaining,
        cur,
        peak,
        last,
        intervals,
    };
    let schedule = &mut out.schedule;
    let ranks = prepass.map(|p| p.ranks);
    if let Err(bound) = list_schedule_observed(tg, ranks, policy, limit, sched, schedule, &mut hook)
    {
        return Some(bound);
    }

    // Charge the framework's resident workspace on every active GPU and
    // derive the OOM flags.
    memory.peak_bytes.clear();
    memory.oom.clear();
    for g in 0..num_gpus {
        let mut p = peak[g].max(cur[g]).max(0) as u64;
        if active[g] {
            p += RUNTIME_WORKSPACE_BYTES;
        }
        memory.peak_bytes.push(p);
        memory.oom.push(p > capacities[g]);
    }

    let (gpu_busy, link_busy) = out.schedule.proc_busy.split_at(num_gpus);
    gpu_busy.clone_into(&mut out.gpu_busy);
    link_busy.clone_into(&mut out.link_busy);
    out.computation_time = out.gpu_busy.iter().cloned().fold(0.0, f64::max);
    out.communication_time = link_active_union(intervals);
    out.iteration_time = out.schedule.makespan;
    None
}

/// Union length of all intervals during which >= 1 link is transferring,
/// given in start order. Equal starts need no order among themselves:
/// they merge into one segment whatever their order.
fn link_active_union(intervals: &[(f64, f64)]) -> f64 {
    let Some((&(mut cs, mut ce), rest)) = intervals.split_first() else {
        return 0.0;
    };
    let mut total = 0.0;
    for &(st, fi) in rest {
        if st <= ce {
            ce = ce.max(fi);
        } else {
            total += ce - cs;
            cs = st;
            ce = fi;
        }
    }
    total + (ce - cs)
}

/// Time breakdown per phase of the original training graph (forward /
/// backward / update / communication), for reporting.
pub fn time_breakdown(tg: &TaskGraph, s: &Schedule) -> [f64; 4] {
    use heterog_graph::OpKind;
    let mut out = [0.0f64; 4];
    for (_, t) in tg.iter() {
        let bucket = if t.proc.is_link() || t.kind.is_communication() {
            3
        } else {
            match t.kind {
                OpKind::ApplyGradient | OpKind::GradAggregate => 2,
                OpKind::Conv2DBackpropFilter
                | OpKind::Conv2DBackpropInput
                | OpKind::MatMulBackpropWeight
                | OpKind::MatMulBackpropInput
                | OpKind::EmbeddingGrad
                | OpKind::Backward => 1,
                _ => 0,
            }
        };
        out[bucket] += t.duration;
    }
    let _ = s;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::memory_usage;
    use heterog_graph::OpKind;
    use heterog_sched::{list_schedule, Proc, Task, TaskGraphBuilder};

    fn demo_graph() -> TaskGraph {
        // GPU0: a(1.0) -> link x(0.5) -> GPU1: b(1.0); GPU0 also c(2.0).
        let mut tg = TaskGraphBuilder::new("demo", 2, 1);
        let a = tg.add_task(Task::new("a", OpKind::Conv2D, Proc::Gpu(0), 1.0).with_bytes(64));
        let x = tg.add_task(Task::new("x", OpKind::Transfer, Proc::Link(0), 0.5));
        let b = tg.add_task(Task::new("b", OpKind::Conv2D, Proc::Gpu(1), 1.0));
        tg.add_task(Task::new("c", OpKind::Conv2D, Proc::Gpu(0), 2.0));
        tg.add_dep(a, x);
        tg.add_dep(x, b);
        tg.finish()
    }

    #[test]
    fn iteration_time_matches_schedule() {
        let tg = demo_graph();
        let r = simulate(&tg, &[8 << 30, 8 << 30], &OrderPolicy::RankBased);
        // a:0..1, x:1..1.5, b:1.5..2.5, c overlaps on GPU0 (0..3 or 1..3).
        assert!((r.iteration_time - 3.0).abs() < 1e-9);
        assert_eq!(r.gpu_busy.len(), 2);
        assert_eq!(r.link_busy.len(), 1);
        assert!((r.gpu_busy[0] - 3.0).abs() < 1e-9);
        assert!((r.link_busy[0] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn breakdown_fields_consistent() {
        let tg = demo_graph();
        let r = simulate(&tg, &[8 << 30, 8 << 30], &OrderPolicy::RankBased);
        assert!((r.computation_time - 3.0).abs() < 1e-9); // bottleneck GPU0
        assert!((r.communication_time - 0.5).abs() < 1e-9);
        assert!(r.overlap_ratio() > 1.0); // some overlap achieved
    }

    #[test]
    fn overlapping_link_intervals_union_correctly() {
        // Two links active [0,1] and [0.5,2]: union = 2.0.
        let mut tg = TaskGraphBuilder::new("u", 1, 2);
        let a = tg.add_task(Task::new("a", OpKind::NoOp, Proc::Gpu(0), 0.5));
        tg.add_task(Task::new("x1", OpKind::Transfer, Proc::Link(0), 1.0));
        let x2 = tg.add_task(Task::new("x2", OpKind::Transfer, Proc::Link(1), 1.5));
        tg.add_dep(a, x2); // x2 starts at 0.5
        let r = simulate(&tg.finish(), &[8 << 30], &OrderPolicy::RankBased);
        assert!((r.communication_time - 2.0).abs() < 1e-9);
    }

    #[test]
    fn degenerate_reports_yield_finite_ratios() {
        // Empty device list / zero makespan / NaN makespan must all
        // produce 0.0, never NaN or infinity.
        let empty = SimReport::default();
        assert_eq!(empty.overlap_ratio(), 0.0);
        assert_eq!(empty.mean_gpu_utilization(), 0.0);

        let zero_makespan = SimReport {
            gpu_busy: vec![0.0, 0.0],
            ..SimReport::default()
        };
        assert_eq!(zero_makespan.overlap_ratio(), 0.0);
        assert_eq!(zero_makespan.mean_gpu_utilization(), 0.0);

        let nan = SimReport {
            iteration_time: f64::NAN,
            computation_time: 1.0,
            communication_time: 1.0,
            gpu_busy: vec![1.0],
            ..SimReport::default()
        };
        assert_eq!(nan.overlap_ratio(), 0.0);
        assert_eq!(nan.mean_gpu_utilization(), 0.0);
    }

    #[test]
    fn empty_graph_simulation_has_finite_ratios() {
        // An empty task graph on one GPU: makespan 0, no busy time.
        let tg = TaskGraphBuilder::new("empty", 1, 0).finish();
        let r = simulate(&tg, &[1 << 30], &OrderPolicy::RankBased);
        assert_eq!(r.iteration_time, 0.0);
        assert!(r.overlap_ratio().is_finite());
        assert!(r.mean_gpu_utilization().is_finite());
        assert_eq!(r.overlap_ratio(), 0.0);
        assert_eq!(r.mean_gpu_utilization(), 0.0);
    }

    #[test]
    fn oom_propagates_into_report() {
        let mut tg = TaskGraphBuilder::new("o", 1, 0);
        tg.add_task(Task::new("big", OpKind::NoOp, Proc::Gpu(0), 1.0).with_bytes(100));
        let tg = tg.finish();
        let r = simulate(&tg, &[10], &OrderPolicy::RankBased);
        assert!(r.memory.any_oom());
    }

    #[test]
    fn phase_breakdown_buckets() {
        let mut tg = TaskGraphBuilder::new("p", 1, 1);
        tg.add_task(Task::new("f", OpKind::Conv2D, Proc::Gpu(0), 1.0));
        tg.add_task(Task::new(
            "b",
            OpKind::Conv2DBackpropFilter,
            Proc::Gpu(0),
            2.0,
        ));
        tg.add_task(Task::new("u", OpKind::ApplyGradient, Proc::Gpu(0), 0.25));
        tg.add_task(Task::new("x", OpKind::Transfer, Proc::Link(0), 0.5));
        let tg = tg.finish();
        let s = list_schedule(&tg, &OrderPolicy::RankBased);
        let bd = time_breakdown(&tg, &s);
        assert_eq!(bd, [1.0, 2.0, 0.25, 0.5]);
    }

    /// A graph with replica-style sharing (multi-consumer outputs, mixed
    /// GPU/link tasks, params, an idle GPU) to exercise the fused memory
    /// path against the reference post-hoc accounting.
    fn busy_graph() -> TaskGraph {
        let mut tg = TaskGraphBuilder::new("busy", 3, 2);
        let a = tg.add_task(
            Task::new("a", OpKind::Conv2D, Proc::Gpu(0), 1.0)
                .with_bytes(100)
                .with_param_bytes(40),
        );
        let b = tg.add_task(Task::new("b", OpKind::Conv2D, Proc::Gpu(0), 2.0).with_bytes(30));
        let x = tg.add_task(Task::new("x", OpKind::Transfer, Proc::Link(0), 0.5));
        let y = tg.add_task(Task::new("y", OpKind::Transfer, Proc::Link(1), 0.25));
        let c = tg.add_task(Task::new("c", OpKind::Conv2D, Proc::Gpu(1), 1.5).with_bytes(60));
        let d = tg.add_task(
            Task::new("d", OpKind::ApplyGradient, Proc::Gpu(1), 0.5).with_param_bytes(10),
        );
        tg.add_dep(a, b);
        tg.add_dep(a, x);
        tg.add_dep(a, y);
        tg.add_dep(x, c);
        tg.add_dep(y, c);
        tg.add_dep(c, d);
        tg.add_dep(b, d);
        tg.finish()
    }

    /// Union length of the link intervals, sorted by start: the
    /// reference for the sort-free union.
    fn sorted_link_union(tg: &TaskGraph, s: &Schedule) -> f64 {
        let mut intervals: Vec<(f64, f64)> = tg
            .iter()
            .filter(|(_, t)| t.proc.is_link() && t.duration > 0.0)
            .map(|(id, _)| (s.start[id.index()], s.finish[id.index()]))
            .collect();
        intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
        link_active_union(&intervals)
    }

    /// Simulates `tg` under both policies and checks the streaming peaks
    /// against [`memory_usage`] on the simulated schedule (plus the
    /// workspace on active GPUs), and the communication time against
    /// [`sorted_link_union`], bit for bit.
    fn check_against_post_hoc(tg: &TaskGraph, caps: &[u64]) {
        for policy in [OrderPolicy::RankBased, OrderPolicy::Fifo] {
            let r = simulate(tg, caps, &policy);
            let reference = memory_usage(tg, &r.schedule, caps);
            for g in 0..tg.num_gpus as usize {
                let active = tg.iter().any(|(_, t)| t.proc == Proc::Gpu(g as u32));
                let workspace = if active { RUNTIME_WORKSPACE_BYTES } else { 0 };
                assert_eq!(
                    r.memory.peak_bytes[g],
                    reference.peak_bytes[g] + workspace,
                    "{}: gpu {g} under {policy:?}",
                    tg.name
                );
                assert_eq!(r.memory.param_bytes[g], reference.param_bytes[g]);
            }
            assert_eq!(
                r.communication_time.to_bits(),
                sorted_link_union(tg, &r.schedule).to_bits(),
                "{} under {policy:?}",
                tg.name
            );
        }
    }

    #[test]
    fn fused_memory_matches_post_hoc_accounting() {
        check_against_post_hoc(&busy_graph(), &[1u64 << 31, 1 << 31, 1 << 31]);
    }

    #[test]
    fn streaming_peaks_match_post_hoc_accounting_on_random_graphs() {
        heterog_telemetry::rng::for_each_seed(200, |rng| {
            let gpus = rng.gen_range(1..4usize) as u32;
            let links = rng.gen_range(0..3usize) as u32;
            let mut tg = TaskGraphBuilder::new(format!("random{gpus}x{links}"), gpus, links);
            let n = rng.gen_range(1..50usize);
            for i in 0..n {
                // Zero durations make allocations and frees share
                // timestamps; few distinct sizes make equal deltas common.
                let d = [0.0, 0.0, 0.5, 1.0][rng.gen_range(0..4usize)];
                let p = rng.gen_range(0..(gpus + links) as usize) as u32;
                let task = if p < gpus {
                    Task::new(format!("t{i}"), OpKind::Conv2D, Proc::Gpu(p), d)
                        .with_bytes([0, 16, 16, 48][rng.gen_range(0..4usize)])
                        .with_param_bytes([0, 8][rng.gen_range(0..2usize)])
                } else {
                    Task::new(format!("t{i}"), OpKind::Transfer, Proc::Link(p - gpus), d)
                };
                let id = tg.add_task(task);
                for j in 0..i {
                    if rng.gen_range(0..4usize) == 0 {
                        tg.add_dep(TaskId(j as u32), id);
                    }
                }
            }
            let tg = tg.finish();
            check_against_post_hoc(&tg, &[1 << 31; 3]);
        });
    }

    #[test]
    fn streaming_peaks_match_post_hoc_accounting_on_compiled_models() {
        use heterog_compile::{compile, CommMethod, Strategy};
        use heterog_graph::{BenchmarkModel, ModelSpec};
        let cluster = heterog_cluster::paper_testbed_8gpu();
        let caps = cluster.memory_capacities();
        for (model, comm) in [
            (BenchmarkModel::MobileNetV2, CommMethod::AllReduce),
            (BenchmarkModel::Vgg19, CommMethod::Ps),
        ] {
            let g = ModelSpec::new(model, 32).build();
            let s = Strategy::proportional(g.len(), &cluster, comm);
            let tg = compile(&g, &cluster, &heterog_profile::GroundTruthCost, &s);
            check_against_post_hoc(&tg, &caps);
        }
    }

    #[test]
    #[should_panic(expected = "simulator scratch already in use on this thread")]
    fn nested_scratch_use_panics() {
        with_scratch(|_| simulate(&demo_graph(), &[1 << 31; 3], &OrderPolicy::RankBased));
    }

    #[test]
    fn scratch_reuse_matches_fresh_simulation() {
        let mut scratch = SimScratch::default();
        let mut out = SimReport::default();
        let caps = [1u64 << 31, 1 << 31, 1 << 31];
        // Alternate graphs so buffers shrink and regrow between calls.
        for tg in [busy_graph(), demo_graph(), busy_graph()] {
            let fresh = simulate(&tg, &caps, &OrderPolicy::RankBased);
            simulate_into(&tg, &caps, &OrderPolicy::RankBased, &mut scratch, &mut out);
            assert_eq!(fresh.iteration_time.to_bits(), out.iteration_time.to_bits());
            assert_eq!(fresh.memory.peak_bytes, out.memory.peak_bytes);
            assert_eq!(fresh.memory.oom, out.memory.oom);
            assert_eq!(fresh.gpu_busy, out.gpu_busy);
            assert_eq!(fresh.link_busy, out.link_busy);
            assert_eq!(
                fresh.communication_time.to_bits(),
                out.communication_time.to_bits()
            );
            assert_eq!(fresh.schedule.start, out.schedule.start);
            assert_eq!(fresh.schedule.finish, out.schedule.finish);
        }
    }
}
