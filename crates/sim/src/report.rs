//! Simulation driver and the per-iteration report.
//!
//! The driver exists in two layers: [`simulate`] allocates fresh buffers
//! per call, while [`simulate_into`] reuses a caller-owned [`SimScratch`]
//! and output report, and fuses the reference-counted memory accounting
//! (§5) into the scheduling event loop via a [`ScheduleHook`] — one pass
//! over the graph, zero heap allocations after warm-up.

use heterog_sched::{
    list_schedule_observed, OrderPolicy, Proc, Schedule, ScheduleHook, ScheduleScratch, TaskGraph,
    TaskId,
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

/// Reusable buffers for [`simulate_into`]: scheduling scratch plus the
/// memory-sweep event list and per-GPU accumulators. A warm scratch
/// makes simulation allocation-free.
#[derive(Debug, Clone, Default)]
pub struct SimScratch {
    sched: ScheduleScratch,
    /// (time, gpu, ±bytes) alloc/free events collected by the hook.
    events: Vec<(f64, u32, i64)>,
    /// Remaining-consumer counts per task (reference counting).
    remaining: Vec<u32>,
    cur: Vec<i64>,
    peak: Vec<i64>,
    active: Vec<bool>,
    intervals: Vec<(f64, f64)>,
}

/// The fused memory tracker: observes the scheduling event loop and
/// collects alloc/free events exactly as [`crate::memory::memory_usage`]
/// derives them after the fact. An output allocates at its producer's
/// dispatch; it frees when its remaining-consumer count hits zero —
/// which happens while processing the last consumer's completion event,
/// i.e. at the max consumer finish time (tasks without consumers free at
/// their own finish).
struct MemHook<'a> {
    tg: &'a TaskGraph,
    events: &'a mut Vec<(f64, u32, i64)>,
    remaining: &'a mut [u32],
}

impl MemHook<'_> {
    #[inline]
    fn gpu_bytes(&self, t: TaskId) -> Option<(u32, i64)> {
        let task = self.tg.task(t);
        match task.proc {
            Proc::Gpu(g) if task.output_bytes > 0 => Some((g, task.output_bytes as i64)),
            _ => None, // in-flight bytes accounted at endpoints
        }
    }
}

impl ScheduleHook for MemHook<'_> {
    #[inline]
    fn on_start(&mut self, task: TaskId, time: f64) {
        if let Some((g, bytes)) = self.gpu_bytes(task) {
            self.events.push((time, g, bytes));
        }
    }

    #[inline]
    fn on_finish(&mut self, task: TaskId, time: f64) {
        // Completion events arrive in nondecreasing time order, so when a
        // predecessor's count hits zero here, `time` equals the maximum
        // finish over its consumers — the seed accounting's release time.
        if self.remaining[task.index()] == 0 {
            if let Some((g, bytes)) = self.gpu_bytes(task) {
                self.events.push((time, g, -bytes));
            }
        }
        for &p in self.tg.preds(task) {
            self.remaining[p.index()] -= 1;
            if self.remaining[p.index()] == 0 {
                if let Some((g, bytes)) = self.gpu_bytes(p) {
                    self.events.push((time, g, -bytes));
                }
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
/// Delegates to [`simulate_into`] through a thread-local [`SimScratch`],
/// so repeated calls are allocation-free after warm-up; hot loops that
/// want explicit control still hold their own scratch and call
/// [`simulate_into`].
pub fn simulate(tg: &TaskGraph, capacities: &[u64], policy: &OrderPolicy) -> SimReport {
    thread_local! {
        static SCRATCH: std::cell::RefCell<SimScratch> =
            std::cell::RefCell::new(SimScratch::default());
    }
    let mut out = SimReport::default();
    SCRATCH.with(|s| {
        // A fresh scratch covers the (impossible today) reentrant case.
        match s.try_borrow_mut() {
            Ok(mut scratch) => simulate_into(tg, capacities, policy, &mut scratch, &mut out),
            Err(_) => {
                let mut scratch = SimScratch::default();
                simulate_into(tg, capacities, policy, &mut scratch, &mut out)
            }
        }
    });
    out
}

/// [`simulate`] into caller-owned scratch and output buffers, with the
/// memory pass fused into the scheduling event loop — zero heap
/// allocations per call after warm-up.
pub fn simulate_into(
    tg: &TaskGraph,
    capacities: &[u64],
    policy: &OrderPolicy,
    scratch: &mut SimScratch,
    out: &mut SimReport,
) {
    let _span = heterog_telemetry::span("simulate");
    simulate_uncounted(tg, capacities, policy, scratch, out);
    let num_gpus = tg.num_gpus as usize;
    let memory = &out.memory;

    SIMULATIONS.inc();
    // The event-driven scheduler processes exactly one completion event
    // per task.
    EVENTS_PROCESSED.add(tg.len() as u64);
    OOM_DEVICES.add(memory.oom.iter().filter(|&&o| o).count() as u64);
    if let Some(&peak) = memory.peak_bytes.iter().max() {
        MEMORY_PEAK.record_max(peak as f64);
    }
    ITERATION_TIME.observe(out.schedule.makespan);

    if heterog_events::enabled() {
        let oom_devices = memory.oom.iter().filter(|&&o| o).count() as u64;
        heterog_events::emit(heterog_events::EventKind::SimEpoch {
            tasks: tg.len() as u64,
            makespan: out.schedule.makespan,
            oom_devices,
        });
        let per_gpu = memory.oom.iter().zip(&memory.peak_bytes).zip(capacities);
        for (g, ((&oom, &peak_bytes), &capacity_bytes)) in per_gpu.enumerate().take(num_gpus) {
            if oom {
                heterog_events::emit(heterog_events::EventKind::Oom {
                    device: g as u64,
                    peak_bytes,
                    capacity_bytes,
                });
            }
        }
    }
}

/// [`simulate_into`] without its counters and events: the incremental
/// re-simulator runs this so that `heterog_sim_simulations_total`,
/// `SimEpoch` and `Oom` count plain simulations only.
pub(crate) fn simulate_uncounted(
    tg: &TaskGraph,
    capacities: &[u64],
    policy: &OrderPolicy,
    scratch: &mut SimScratch,
    out: &mut SimReport,
) {
    let num_gpus = tg.num_gpus as usize;
    assert!(capacities.len() >= num_gpus, "capacity per GPU required");

    let SimScratch {
        sched,
        events,
        remaining,
        cur,
        peak,
        active,
        intervals,
    } = scratch;

    // Pinned parameters and per-GPU activity in one pre-pass; seed the
    // reference counts with each task's consumer count.
    let memory = &mut out.memory;
    memory.param_bytes.clear();
    memory.param_bytes.resize(num_gpus, 0);
    active.clear();
    active.resize(num_gpus, false);
    remaining.clear();
    remaining.reserve(tg.len());
    for (id, task) in tg.iter() {
        remaining.push(tg.out_degree(id) as u32);
        if let Proc::Gpu(g) = task.proc {
            memory.param_bytes[g as usize] += task.param_bytes;
            active[g as usize] = true;
        }
    }

    events.clear();
    let mut hook = MemHook {
        tg,
        events,
        remaining,
    };
    list_schedule_observed(tg, policy, sched, &mut out.schedule, &mut hook);

    // Sweep: sort by time; at equal times apply frees before allocations
    // — reference counts drop the moment the last consumer completes, so
    // an op starting at exactly that timestamp sees the memory returned
    // (TensorFlow's allocator behaves the same way). Remaining ties are
    // independent (different GPUs) or identical deltas, so the unstable
    // sort yields the same peaks as the seed's stable sort.
    events.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.2.cmp(&b.2)));

    cur.clear();
    cur.extend(memory.param_bytes.iter().map(|&p| p as i64));
    peak.clear();
    peak.extend_from_slice(cur);
    for &(_, gpu, delta) in events.iter() {
        let g = gpu as usize;
        cur[g] += delta;
        peak[g] = peak[g].max(cur[g]);
    }

    // Charge the framework's resident workspace on every active GPU and
    // derive the OOM flags.
    memory.peak_bytes.clear();
    memory.oom.clear();
    for g in 0..num_gpus {
        let mut p = peak[g].max(0) as u64;
        if active[g] {
            p += RUNTIME_WORKSPACE_BYTES;
        }
        memory.peak_bytes.push(p);
        memory.oom.push(p > capacities[g]);
    }

    out.gpu_busy.clear();
    out.gpu_busy
        .extend_from_slice(&out.schedule.proc_busy[..num_gpus]);
    out.link_busy.clear();
    out.link_busy
        .extend_from_slice(&out.schedule.proc_busy[num_gpus..]);
    out.computation_time = out.gpu_busy.iter().cloned().fold(0.0, f64::max);
    out.communication_time = link_active_union(tg, &out.schedule, intervals);
    out.iteration_time = out.schedule.makespan;
}

/// Union length of all intervals during which >= 1 link is transferring.
fn link_active_union(tg: &TaskGraph, s: &Schedule, intervals: &mut Vec<(f64, f64)>) -> f64 {
    intervals.clear();
    intervals.extend(
        tg.iter()
            .filter(|(_, t)| t.proc.is_link() && t.duration > 0.0)
            .map(|(id, _)| (s.start[id.index()], s.finish[id.index()])),
    );
    if intervals.is_empty() {
        return 0.0;
    }
    intervals.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let (mut cs, mut ce) = intervals[0];
    for &(st, fi) in &intervals[1..] {
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
    use heterog_sched::{list_schedule, Proc, Task};

    fn demo_graph() -> TaskGraph {
        // GPU0: a(1.0) -> link x(0.5) -> GPU1: b(1.0); GPU0 also c(2.0).
        let mut tg = TaskGraph::new("demo", 2, 1);
        let a =
            tg.add_task(Task::new("a", OpKind::Conv2D, Proc::Gpu(0), 1.0).with_output_bytes(64));
        let x = tg.add_task(Task::new("x", OpKind::Transfer, Proc::Link(0), 0.5));
        let b = tg.add_task(Task::new("b", OpKind::Conv2D, Proc::Gpu(1), 1.0));
        tg.add_task(Task::new("c", OpKind::Conv2D, Proc::Gpu(0), 2.0));
        tg.add_dep(a, x);
        tg.add_dep(x, b);
        tg
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
        let mut tg = TaskGraph::new("u", 1, 2);
        let a = tg.add_task(Task::new("a", OpKind::NoOp, Proc::Gpu(0), 0.5));
        tg.add_task(Task::new("x1", OpKind::Transfer, Proc::Link(0), 1.0));
        let x2 = tg.add_task(Task::new("x2", OpKind::Transfer, Proc::Link(1), 1.5));
        tg.add_dep(a, x2); // x2 starts at 0.5
        let r = simulate(&tg, &[8 << 30], &OrderPolicy::RankBased);
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
        let tg = TaskGraph::new("empty", 1, 0);
        let r = simulate(&tg, &[1 << 30], &OrderPolicy::RankBased);
        assert_eq!(r.iteration_time, 0.0);
        assert!(r.overlap_ratio().is_finite());
        assert!(r.mean_gpu_utilization().is_finite());
        assert_eq!(r.overlap_ratio(), 0.0);
        assert_eq!(r.mean_gpu_utilization(), 0.0);
    }

    #[test]
    fn oom_propagates_into_report() {
        let mut tg = TaskGraph::new("o", 1, 0);
        tg.add_task(Task::new("big", OpKind::NoOp, Proc::Gpu(0), 1.0).with_output_bytes(100));
        let r = simulate(&tg, &[10], &OrderPolicy::RankBased);
        assert!(r.memory.any_oom());
    }

    #[test]
    fn phase_breakdown_buckets() {
        let mut tg = TaskGraph::new("p", 1, 1);
        tg.add_task(Task::new("f", OpKind::Conv2D, Proc::Gpu(0), 1.0));
        tg.add_task(Task::new(
            "b",
            OpKind::Conv2DBackpropFilter,
            Proc::Gpu(0),
            2.0,
        ));
        tg.add_task(Task::new("u", OpKind::ApplyGradient, Proc::Gpu(0), 0.25));
        tg.add_task(Task::new("x", OpKind::Transfer, Proc::Link(0), 0.5));
        let s = list_schedule(&tg, &OrderPolicy::RankBased);
        let bd = time_breakdown(&tg, &s);
        assert_eq!(bd, [1.0, 2.0, 0.25, 0.5]);
    }

    /// A graph with replica-style sharing (multi-consumer outputs, mixed
    /// GPU/link tasks, params, an idle GPU) to exercise the fused memory
    /// path against the reference post-hoc accounting.
    fn busy_graph() -> TaskGraph {
        let mut tg = TaskGraph::new("busy", 3, 2);
        let a = tg.add_task(
            Task::new("a", OpKind::Conv2D, Proc::Gpu(0), 1.0)
                .with_output_bytes(100)
                .with_param_bytes(40),
        );
        let b =
            tg.add_task(Task::new("b", OpKind::Conv2D, Proc::Gpu(0), 2.0).with_output_bytes(30));
        let x = tg.add_task(Task::new("x", OpKind::Transfer, Proc::Link(0), 0.5));
        let y = tg.add_task(Task::new("y", OpKind::Transfer, Proc::Link(1), 0.25));
        let c =
            tg.add_task(Task::new("c", OpKind::Conv2D, Proc::Gpu(1), 1.5).with_output_bytes(60));
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
        tg
    }

    #[test]
    fn fused_memory_matches_post_hoc_accounting() {
        let tg = busy_graph();
        let caps = [1u64 << 31, 1 << 31, 1 << 31];
        for policy in [OrderPolicy::RankBased, OrderPolicy::Fifo] {
            let r = simulate(&tg, &caps, &policy);
            let reference = memory_usage(&tg, &r.schedule, &caps);
            for g in 0..tg.num_gpus as usize {
                let workspace = if g < 2 { RUNTIME_WORKSPACE_BYTES } else { 0 };
                assert_eq!(
                    r.memory.peak_bytes[g],
                    reference.peak_bytes[g] + workspace,
                    "gpu {g} under {policy:?}"
                );
                assert_eq!(r.memory.param_bytes[g], reference.param_bytes[g]);
            }
        }
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
