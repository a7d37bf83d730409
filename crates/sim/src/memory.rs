//! Reference-counted memory accounting (§5: "The simulator also simulates
//! memory allocation and releasing when executing an operation (using
//! reference counting), and records the peak memory usage on each of the
//! device\[s\]").
//!
//! Given an executed schedule, each GPU task's output tensor is allocated
//! at the task's start and released when its last consumer finishes
//! (tasks without consumers release at their own finish). Parameter
//! bytes are pinned for the whole iteration (weights + optimizer state
//! live across iterations).

use heterog_sched::{Proc, Schedule, TaskGraph, TaskId};

/// Resident framework memory per active GPU: CUDA context, cuDNN/cuBLAS
/// workspaces and the allocator's reserve. Charged by [`crate::simulate`]
/// on every GPU that executes at least one task (raw [`memory_usage`]
/// stays pure for unit-level accounting).
pub const RUNTIME_WORKSPACE_BYTES: u64 = 5 * (1 << 28); // 1.25 GiB

/// Per-GPU memory accounting result.
#[derive(Debug, Clone, Default)]
pub struct MemoryReport {
    /// Peak bytes per GPU (params + live activations).
    pub peak_bytes: Vec<u64>,
    /// Pinned parameter bytes per GPU.
    pub param_bytes: Vec<u64>,
    /// Which GPUs exceeded their capacity (given the capacities passed in).
    pub oom: Vec<bool>,
}

impl MemoryReport {
    /// True if any device overflowed.
    pub fn any_oom(&self) -> bool {
        self.oom.iter().any(|&o| o)
    }
}

/// Computes peak memory per GPU for an executed schedule.
///
/// `capacities` holds each GPU's memory in bytes (index = GPU id); the
/// returned report marks OOM where `peak > capacity`.
pub fn memory_usage(tg: &TaskGraph, schedule: &Schedule, capacities: &[u64]) -> MemoryReport {
    let num_gpus = tg.num_gpus as usize;
    assert!(capacities.len() >= num_gpus, "capacity per GPU required");

    let mut param_bytes = vec![0u64; num_gpus];
    // (time, gpu, delta) events; +alloc at start, -free at release.
    let mut events: Vec<(f64, usize, i64)> = Vec::new();

    for (id, task) in tg.iter() {
        let gpu = match task.proc {
            Proc::Gpu(g) => g as usize,
            Proc::Link(_) => continue, // in-flight bytes accounted at endpoints
        };
        param_bytes[gpu] += task.param_bytes;
        if task.bytes == 0 {
            continue;
        }
        let alloc_t = schedule.start[id.index()];
        let free_t = release_time(tg, schedule, id);
        events.push((alloc_t, gpu, task.bytes as i64));
        events.push((free_t, gpu, -(task.bytes as i64)));
    }

    // Sweep: sort by time; at equal times apply frees before allocations
    // — reference counts drop the moment the last consumer completes, so
    // an op starting at exactly that timestamp sees the memory returned
    // (TensorFlow's allocator behaves the same way).
    events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.2.cmp(&b.2)));

    let mut cur: Vec<i64> = param_bytes.iter().map(|&p| p as i64).collect();
    let mut peak = cur.clone();
    for (_, gpu, delta) in events {
        cur[gpu] += delta;
        peak[gpu] = peak[gpu].max(cur[gpu]);
    }

    let peak_bytes: Vec<u64> = peak.into_iter().map(|p| p.max(0) as u64).collect();
    let oom = peak_bytes
        .iter()
        .zip(capacities)
        .map(|(&p, &c)| p > c)
        .collect();
    MemoryReport {
        peak_bytes,
        param_bytes,
        oom,
    }
}

/// When `id`'s output can be freed: the max finish time over its
/// consumers (its own finish if none).
fn release_time(tg: &TaskGraph, schedule: &Schedule, id: TaskId) -> f64 {
    let succs = tg.succs(id);
    if succs.is_empty() {
        schedule.finish[id.index()]
    } else {
        succs
            .iter()
            .map(|s| schedule.finish[s.index()])
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heterog_graph::OpKind;
    use heterog_sched::{list_schedule, OrderPolicy, Task, TaskGraphBuilder};

    fn run(tg: &TaskGraph) -> Schedule {
        list_schedule(tg, &OrderPolicy::RankBased)
    }

    #[test]
    fn params_always_pinned() {
        let mut tg = TaskGraphBuilder::new("p", 1, 0);
        tg.add_task(Task::new("w", OpKind::Conv2D, Proc::Gpu(0), 1.0).with_param_bytes(1000));
        let tg = tg.finish();
        let s = run(&tg);
        let m = memory_usage(&tg, &s, &[10_000]);
        assert_eq!(m.param_bytes[0], 1000);
        assert_eq!(m.peak_bytes[0], 1000);
        assert!(!m.any_oom());
    }

    #[test]
    fn activation_freed_after_last_consumer() {
        // a -> b, a -> c, all on one GPU; a's output (100B) lives until
        // both consumers finish; b's and c's outputs (10B each) overlap
        // with a's. Peak = 100 + 10 + 10? No: b finishes before c starts
        // on one GPU, but b's output lives to its release (no consumers =
        // own finish). Expected peak: a(100) + b(10) while b runs = 110.
        let mut tg = TaskGraphBuilder::new("m", 1, 0);
        let a = tg.add_task(Task::new("a", OpKind::NoOp, Proc::Gpu(0), 1.0).with_bytes(100));
        let b = tg.add_task(Task::new("b", OpKind::NoOp, Proc::Gpu(0), 1.0).with_bytes(10));
        let c = tg.add_task(Task::new("c", OpKind::NoOp, Proc::Gpu(0), 1.0).with_bytes(10));
        tg.add_dep(a, b);
        tg.add_dep(a, c);
        let tg = tg.finish();
        let s = run(&tg);
        let m = memory_usage(&tg, &s, &[1_000]);
        assert_eq!(m.peak_bytes[0], 110);
    }

    #[test]
    fn oom_detected() {
        let mut tg = TaskGraphBuilder::new("o", 1, 0);
        tg.add_task(Task::new("big", OpKind::NoOp, Proc::Gpu(0), 1.0).with_bytes(2_000));
        let tg = tg.finish();
        let s = run(&tg);
        let m = memory_usage(&tg, &s, &[1_000]);
        assert!(m.any_oom());
        assert!(m.oom[0]);
    }

    #[test]
    fn link_tasks_consume_no_gpu_memory() {
        let mut tg = TaskGraphBuilder::new("l", 1, 1);
        tg.add_task(Task::new("x", OpKind::Transfer, Proc::Link(0), 1.0).with_bytes(999));
        let tg = tg.finish();
        let s = run(&tg);
        let m = memory_usage(&tg, &s, &[10]);
        assert_eq!(m.peak_bytes[0], 0);
        assert!(!m.any_oom());
    }

    #[test]
    fn serial_chain_reuses_memory() {
        // a -> b -> c on one GPU, each 100B out: peak is 200 (producer +
        // consumer), not 300, because a frees when b finishes.
        let mut tg = TaskGraphBuilder::new("s", 1, 0);
        let a = tg.add_task(Task::new("a", OpKind::NoOp, Proc::Gpu(0), 1.0).with_bytes(100));
        let b = tg.add_task(Task::new("b", OpKind::NoOp, Proc::Gpu(0), 1.0).with_bytes(100));
        let c = tg.add_task(Task::new("c", OpKind::NoOp, Proc::Gpu(0), 1.0).with_bytes(100));
        tg.add_dep(a, b);
        tg.add_dep(b, c);
        let tg = tg.finish();
        let s = run(&tg);
        let m = memory_usage(&tg, &s, &[10_000]);
        assert_eq!(m.peak_bytes[0], 200);
    }
}
