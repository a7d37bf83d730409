//! The appendix's worst-case instance (Theorem 2).
//!
//! For `H = M + M^2` processors, the DAG consists of `H - 1` chains of
//! `k * H` operations each, plus `k` independent `p`-duration operations
//! on the last processor. Within every chain, the `i`-th operation is
//! placed on processor `(i - 1) mod H`; chain `j`'s operation costs `p`
//! at positions `i ≡ j (mod H)` and `e → 0` elsewhere.
//!
//! An optimal schedule pipelines the chains (their `p` operations live on
//! distinct processors), finishing in `T* = k(p + (H-1)e) + (H-2)e ≈ kp`.
//! List scheduling, however, lets each processor's `p` operation block
//! the tiny `e` operations queued behind it — the enablers of the other
//! chains — serializing the per-batch `p`s into a staircase of length
//! `≈ (k-1)(H-1)p + kp`, i.e. `T_LS / T* → H` as `k` grows and `e → 0`.

use crate::task::{Proc, Task, TaskGraph, TaskGraphBuilder, TaskId};
use heterog_graph::OpKind;

/// Generates the worst-case instance for `h` processors with `k` batches
/// and durations `p` (heavy) / `e` (light). Returns the task graph and
/// the optimal makespan `T* = k(p + (h-1)e) + (h-2)e` from the appendix.
///
/// Requires `h >= 3` (at least two chains) and `k >= 1`.
pub fn worst_case_instance(h: usize, k: usize, p: f64, e: f64) -> (TaskGraph, f64) {
    assert!(h >= 3, "need at least 3 processors");
    assert!(k >= 1);
    let mut tg = TaskGraphBuilder::new(format!("worst_case_h{h}_k{k}"), h as u32, 0);

    // Chains j = 1..h-1.
    for j in 1..h {
        let mut prev: Option<TaskId> = None;
        for i in 1..=(k * h) {
            let dur = if i % h == j % h { p } else { e };
            let proc = Proc::Gpu(((i - 1) % h) as u32);
            let t = tg.add_task(Task::new(format!("c{j}_{i}"), OpKind::NoOp, proc, dur));
            if let Some(pr) = prev {
                tg.add_dep(pr, t);
            }
            prev = Some(t);
        }
    }

    // k independent p-operations on the last processor.
    for i in 0..k {
        tg.add_task(Task::new(
            format!("ind_{i}"),
            OpKind::NoOp,
            Proc::Gpu((h - 1) as u32),
            p,
        ));
    }
    let tg = tg.finish();

    let t_star = k as f64 * (p + (h as f64 - 1.0) * e) + (h as f64 - 2.0) * e;
    (tg, t_star)
}

/// Adversarial priorities reproducing the appendix's tie-breaking: chain
/// order is reversed on processor 0 and ascending elsewhere, with batch
/// position as the dominant term (consistent with upward rank, which
/// decreases along each chain).
pub fn adversarial_priorities(tg: &TaskGraph, h: usize, k: usize) -> Vec<f64> {
    let mut prio = vec![0.0f64; tg.len()];
    let chain_len = k * h;
    let num_chains = h - 1;
    for j in 0..num_chains {
        for i in 0..chain_len {
            let id = j * chain_len + i;
            let device = i % h;
            // Earlier chain positions must run first (rank-consistent).
            let base = (chain_len - i) as f64 * (h as f64 + 2.0);
            // Tie-break among chains at the same position.
            let tie = if device == 0 {
                j as f64 // higher chain index first on processor 0
            } else {
                (num_chains - 1 - j) as f64 // lower chain index first elsewhere
            };
            prio[id] = base + tie;
        }
    }
    // Independent ops: lowest priority (the chains' first ops outrank them).
    for i in 0..k {
        prio[num_chains * chain_len + i] = 0.5;
    }
    prio
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::list::{list_schedule, makespan_lower_bound, OrderPolicy};

    #[test]
    fn instance_shape() {
        let (tg, _) = worst_case_instance(4, 3, 1.0, 1e-6);
        // 3 chains x 12 ops + 3 independent = 39 tasks.
        assert_eq!(tg.len(), 3 * 12 + 3);
        assert_eq!(tg.num_gpus, 4);
    }

    #[test]
    fn optimal_formula_is_feasible() {
        // T* must be >= any lower bound we can compute.
        let (tg, t_star) = worst_case_instance(5, 8, 1.0, 1e-6);
        let lb = makespan_lower_bound(&tg);
        assert!(t_star >= lb - 1e-9, "t* {t_star} < lb {lb}");
        // And not wildly above it (it is the *optimal*, after all).
        assert!(t_star <= 1.2 * lb + 1.0, "t* {t_star} vs lb {lb}");
    }

    #[test]
    fn theorem2_strict_list_scheduling_degrades_toward_h() {
        // With k >> H and e -> 0, T_LS / T* approaches H under the
        // appendix's strict per-device-order execution.
        let h = 5;
        let k = 40;
        let (tg, t_star) = worst_case_instance(h, k, 1.0, 1e-9);
        let prio = adversarial_priorities(&tg, h, k);
        let s = crate::strict::strict_schedule(&tg, &prio);
        let ratio = s.makespan / t_star;
        assert!(
            ratio > 0.8 * h as f64,
            "expected near-{h}x degradation, got {ratio:.2} (T_LS={}, T*={t_star})",
            s.makespan
        );
        assert!(
            ratio <= h as f64 + 1e-6,
            "cannot exceed the Theorem 1 bound: {ratio}"
        );
    }

    #[test]
    fn work_conserving_beats_strict_on_worst_case() {
        let h = 5;
        let k = 40;
        let (tg, _) = worst_case_instance(h, k, 1.0, 1e-9);
        let prio = adversarial_priorities(&tg, h, k);
        let strict = crate::strict::strict_schedule(&tg, &prio);
        let wc = list_schedule(&tg, &OrderPolicy::Priorities(prio));
        assert!(wc.makespan <= strict.makespan + 1e-9);
    }

    #[test]
    fn theorem1_bound_holds_on_worst_case() {
        let h = 4;
        let k = 10;
        let (tg, _) = worst_case_instance(h, k, 1.0, 1e-9);
        let prio = adversarial_priorities(&tg, h, k);
        let s = list_schedule(&tg, &OrderPolicy::Priorities(prio));
        // T_LS <= sum of all durations <= (M + M^2) * T*.
        assert!(s.makespan <= tg.total_work() + 1e-9);
        let bound = tg.num_procs() as f64 * makespan_lower_bound(&tg);
        assert!(s.makespan <= bound + 1e-9);
    }

    #[test]
    fn rank_based_also_degrades_on_this_family() {
        // Even without adversarial ties, readiness constraints produce a
        // staircase well above optimal.
        let h = 5;
        let k = 40;
        let (tg, t_star) = worst_case_instance(h, k, 1.0, 1e-9);
        let s = list_schedule(&tg, &OrderPolicy::RankBased);
        let ratio = s.makespan / t_star;
        assert!(
            ratio > 1.5,
            "rank-based should still degrade, got {ratio:.2}"
        );
    }
}
