//! Strategy-evaluation cache.
//!
//! The RL agent scores its sampled strategies through the
//! compile→schedule→simulate pipeline (the §3.3 reward oracle), and its
//! sampled placements collapse onto a small set of distinct strategies
//! once the policy sharpens. Caching `(graph, cluster, strategy) ->
//! Evaluation` turns those repeats into hash lookups.
//!
//! Keys combine the graph's identity (name, op count, batch size), the
//! cluster's structural [`fingerprint`](heterog_cluster::Cluster::fingerprint),
//! and the strategy's own hash; buckets store `(PackedStrategy,
//! Evaluation)` pairs and compare each stored strategy with the
//! requested one op by op ([`PackedStrategy::matches`]), so hash
//! collisions can never return a wrong evaluation. A packed strategy
//! keeps each distinct per-op decision once plus a `u32` index per op,
//! so an entry's key costs about 4 bytes per op, not one
//! [`OpStrategy`](heterog_compile::OpStrategy) with its heap vector.
//!
//! The cache keeps evaluations, not schedules: a stored [`Evaluation`]
//! keeps every field but its per-task times (`report.schedule.start`
//! and `finish`, 16 bytes per task), which are emptied before the entry
//! is stored *and* before a miss returns it, so a hit and a miss return
//! the same value. The RL reward reads only the makespan and OOM flag;
//! a caller that needs the task times (an explain's critical path, a
//! Chrome trace) simulates the task graph it compiled.
//!
//! The map is guarded by one `Mutex` and hit/miss counters are atomic:
//! batched rollouts probe it from pool workers concurrently. Each
//! outcome also counts once in an always-on counter shared by all
//! caches ([`crate::EvalStats`]). Misses are computed *outside* the
//! lock — concurrent misses on the same key may both evaluate (the
//! pipeline is deterministic, so both compute the identical value and
//! the second insert is a no-op).
//!
//! The cache is unbounded. Its user, the RL agent, holds one context
//! per (graph, cluster fingerprint, order policy) it trains or plans
//! on, and at most as many entries as distinct strategies it sampled.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use heterog_cluster::Cluster;
use heterog_compile::{PackedStrategy, Strategy};
use heterog_graph::Graph;
use heterog_profile::CostEstimator;
use heterog_sched::OrderPolicy;
use heterog_telemetry::{lock, Counter};

use crate::evaluate::{evaluate_with_policy, Evaluation};

pub(crate) static HITS: Counter = Counter::always(
    "heterog_strategies_eval_cache_hits_total",
    "Strategy evaluations served from the cache",
);
pub(crate) static MISSES: Counter = Counter::always(
    "heterog_strategies_eval_cache_misses_total",
    "Strategy evaluations computed on cache miss",
);

/// A concurrent memo of strategy evaluations for one or more
/// (graph, cluster, policy) contexts.
#[derive(Debug, Default)]
pub struct EvalCache {
    /// `hash(context, strategy)` -> strategies sharing that hash. The
    /// op-by-op match against the stored strategy makes collisions
    /// harmless.
    map: Mutex<HashMap<u64, Vec<(PackedStrategy, Evaluation)>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// 64-bit key context: what besides the strategy determines the result.
fn context_key(g: &Graph, cluster: &Cluster, policy: &OrderPolicy) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    g.name.hash(&mut h);
    g.len().hash(&mut h);
    g.batch_size.hash(&mut h);
    cluster.fingerprint().hash(&mut h);
    std::mem::discriminant(policy).hash(&mut h);
    if let OrderPolicy::Priorities(p) = policy {
        for v in p {
            v.to_bits().hash(&mut h);
        }
    }
    h.finish()
}

fn full_key(ctx: u64, strategy: &Strategy) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    ctx.hash(&mut h);
    strategy.hash(&mut h);
    h.finish()
}

impl EvalCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cached [`crate::evaluate`]: rank-based order policy.
    pub fn evaluate<C: CostEstimator>(
        &self,
        g: &Graph,
        cluster: &Cluster,
        cost: &C,
        strategy: &Strategy,
    ) -> Evaluation {
        self.evaluate_with_policy(g, cluster, cost, strategy, &OrderPolicy::RankBased)
    }

    /// Cached [`crate::evaluate_with_policy`]. Hit or miss, the returned
    /// evaluation has no per-task times (see the module doc).
    pub fn evaluate_with_policy<C: CostEstimator>(
        &self,
        g: &Graph,
        cluster: &Cluster,
        cost: &C,
        strategy: &Strategy,
        policy: &OrderPolicy,
    ) -> Evaluation {
        self.evaluate_or_insert_with(g, cluster, strategy, policy, || {
            evaluate_with_policy(g, cluster, cost, strategy, policy)
        })
    }

    /// The cached evaluation of `strategy` on `g` and `cluster` under
    /// `policy`, or on a miss the one `compute` returns, which must be
    /// what [`crate::evaluate_with_policy`] gives for these inputs.
    /// `compute` runs once per miss, outside the lock, and never on a
    /// hit.
    fn evaluate_or_insert_with(
        &self,
        g: &Graph,
        cluster: &Cluster,
        strategy: &Strategy,
        policy: &OrderPolicy,
        compute: impl FnOnce() -> Evaluation,
    ) -> Evaluation {
        let key = full_key(context_key(g, cluster, policy), strategy);
        let hit = lock(&self.map)
            .get(&key)
            .and_then(|bucket| bucket.iter().find(|(s, _)| s.matches(strategy)))
            .map(|(_, e)| e.clone());
        if let Some(hit) = hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
            HITS.inc();
            return hit;
        }
        // Compute outside the lock: evaluations are orders of magnitude
        // slower than the map operations, and they are deterministic, so
        // a racing duplicate computation is wasteful but never wrong.
        let eval = compute().without_task_times();
        self.misses.fetch_add(1, Ordering::Relaxed);
        MISSES.inc();
        let packed = PackedStrategy::pack(strategy);
        let mut map = lock(&self.map);
        let bucket = map.entry(key).or_default();
        if !bucket.iter().any(|(s, _)| s.matches(strategy)) {
            bucket.push((packed, eval.clone()));
        }
        eval
    }

    /// Evaluations served from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Evaluations computed fresh.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Distinct strategies currently stored.
    pub fn len(&self) -> usize {
        lock(&self.map).values().map(Vec::len).sum()
    }

    /// True when nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fraction of evaluations served from the cache (0 when unused).
    pub fn hit_rate(&self) -> f64 {
        let h = self.hits() as f64;
        let m = self.misses() as f64;
        if h + m == 0.0 {
            0.0
        } else {
            h / (h + m)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heterog_cluster::topology::uniform_cluster;
    use heterog_cluster::{paper_testbed_8gpu, GpuModel};
    use heterog_compile::CommMethod;
    use heterog_graph::{BenchmarkModel, ModelSpec};
    use heterog_profile::GroundTruthCost;

    fn mobilenet() -> Graph {
        ModelSpec::new(BenchmarkModel::MobileNetV2, 64).build()
    }

    #[test]
    fn hit_and_miss_counters_track_reuse() {
        let g = mobilenet();
        let c = paper_testbed_8gpu();
        let s1 = Strategy::even(g.len(), &c, CommMethod::AllReduce);
        let s2 = Strategy::even(g.len(), &c, CommMethod::Ps);
        let cache = EvalCache::new();
        cache.evaluate(&g, &c, &GroundTruthCost, &s1);
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        cache.evaluate(&g, &c, &GroundTruthCost, &s1);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        cache.evaluate(&g, &c, &GroundTruthCost, &s2);
        assert_eq!((cache.hits(), cache.misses()), (1, 2));
        cache.evaluate(&g, &c, &GroundTruthCost, &s2);
        cache.evaluate(&g, &c, &GroundTruthCost, &s1);
        assert_eq!((cache.hits(), cache.misses()), (3, 2));
        assert_eq!(cache.len(), 2);
        assert!((cache.hit_rate() - 0.6).abs() < 1e-12);
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Asserts `e` equals `fresh` bit for bit in every field the cache
    /// keeps, and carries no per-task times.
    fn assert_kept_fields_equal(e: &Evaluation, fresh: &Evaluation) {
        assert_eq!(e.iteration_time.to_bits(), fresh.iteration_time.to_bits());
        assert_eq!(e.oom, fresh.oom);
        let (r, f) = (&e.report, &fresh.report);
        assert_eq!(r.iteration_time.to_bits(), f.iteration_time.to_bits());
        assert_eq!(r.memory.peak_bytes, f.memory.peak_bytes);
        assert_eq!(r.memory.param_bytes, f.memory.param_bytes);
        assert_eq!(r.memory.oom, f.memory.oom);
        assert_eq!(bits(&r.gpu_busy), bits(&f.gpu_busy));
        assert_eq!(bits(&r.link_busy), bits(&f.link_busy));
        assert_eq!(r.computation_time.to_bits(), f.computation_time.to_bits());
        assert_eq!(
            r.communication_time.to_bits(),
            f.communication_time.to_bits()
        );
        assert_eq!(r.schedule.makespan.to_bits(), f.schedule.makespan.to_bits());
        assert_eq!(bits(&r.schedule.proc_busy), bits(&f.schedule.proc_busy));
        assert!(r.schedule.start.is_empty() && r.schedule.finish.is_empty());
    }

    #[test]
    fn cached_result_equals_fresh_evaluation() {
        let g = mobilenet();
        let c = paper_testbed_8gpu();
        let s = Strategy::proportional(g.len(), &c, CommMethod::Ps);
        let fresh = crate::evaluate(&g, &c, &GroundTruthCost, &s);
        assert!(!fresh.report.schedule.start.is_empty());
        let cache = EvalCache::new();
        let miss = cache.evaluate(&g, &c, &GroundTruthCost, &s);
        let hit = cache.evaluate(&g, &c, &GroundTruthCost, &s);
        assert_kept_fields_equal(&miss, &fresh);
        assert_kept_fields_equal(&hit, &fresh);
        assert!((cache.hit_rate() - 0.5).abs() < 1e-12);
        // Pool workers sharing one cache, each strategy visited three
        // times so hits and racing misses mix, answer what serial
        // evaluation does.
        let distinct: Vec<Strategy> = [CommMethod::Ps, CommMethod::AllReduce]
            .into_iter()
            .flat_map(|m| {
                [
                    Strategy::even(g.len(), &c, m),
                    Strategy::proportional(g.len(), &c, m),
                ]
            })
            .collect();
        let visits: Vec<&Strategy> = (0..3).flat_map(|_| &distinct).collect();
        let cache = EvalCache::new();
        let shared = heterog_telemetry::par::par_map(&visits, |s| {
            cache.evaluate(&g, &c, &GroundTruthCost, s)
        });
        for (e, s) in shared.iter().zip(&visits) {
            assert_kept_fields_equal(e, &crate::evaluate(&g, &c, &GroundTruthCost, s));
        }
    }

    /// Threads hammering one cache over several contexts get what a
    /// fresh evaluation gives, bit for bit, and every lookup counts as a
    /// hit or a miss. Threads racing on a context's first lookup may
    /// each miss, so the miss count is bounded, not exact.
    #[test]
    fn concurrent_lookups_stay_coherent() {
        heterog_telemetry::rng::for_each_seed(4, |rng| {
            let nbatches = rng.gen_range(1..4usize);
            let seed = rng.gen_range(0..1000usize) as u64;
            let threads = rng.gen_range(2..4usize);
            // Derive `nbatches` distinct batch sizes from the seed
            // (7 is coprime to 31, so the residues never collide).
            let batches: Vec<u64> = (0..nbatches as u64)
                .map(|i| 8 * (1 + (seed + 7 * i) % 31))
                .collect();
            let cluster = paper_testbed_8gpu();
            let fresh: Vec<_> = batches
                .iter()
                .map(|&b| {
                    let g = ModelSpec::new(BenchmarkModel::MobileNetV2, b).build();
                    let s =
                        crate::Planner::plan(&crate::CpArPlanner, &g, &cluster, &GroundTruthCost);
                    let e = crate::evaluate(&g, &cluster, &GroundTruthCost, &s);
                    (g, s, e)
                })
                .collect();
            let cache = EvalCache::new();
            std::thread::scope(|scope| {
                for _ in 0..threads {
                    scope.spawn(|| {
                        for (g, s, expected) in &fresh {
                            let got = cache.evaluate(g, &cluster, &GroundTruthCost, s);
                            assert_eq!(
                                got.iteration_time.to_bits(),
                                expected.iteration_time.to_bits(),
                                "cached evaluation must bit-match a fresh one"
                            );
                            assert_eq!(got.oom, expected.oom);
                        }
                    });
                }
            });
            let total = (threads * batches.len()) as u64;
            assert_eq!(cache.hits() + cache.misses(), total);
            assert_eq!(cache.len(), batches.len());
            assert!(cache.misses() >= batches.len() as u64);
            assert!(cache.misses() <= total);
        });
    }

    #[test]
    fn compute_runs_once_on_a_miss_and_never_on_a_hit() {
        let g = mobilenet();
        let c = paper_testbed_8gpu();
        let s = Strategy::even(g.len(), &c, CommMethod::AllReduce);
        let policy = OrderPolicy::RankBased;
        let fresh = crate::evaluate(&g, &c, &GroundTruthCost, &s);
        let cache = EvalCache::new();
        let calls = std::cell::Cell::new(0);
        let compute = || {
            calls.set(calls.get() + 1);
            fresh.clone()
        };
        let miss = cache.evaluate_or_insert_with(&g, &c, &s, &policy, compute);
        assert_eq!(calls.get(), 1, "one compute per miss");
        let hit = cache.evaluate_or_insert_with(&g, &c, &s, &policy, compute);
        assert_eq!(calls.get(), 1, "no compute on a hit");
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_kept_fields_equal(&miss, &fresh);
        assert_kept_fields_equal(&hit, &fresh);
        // The cached evaluation path and the explicit one share entries.
        cache.evaluate(&g, &c, &GroundTruthCost, &s);
        assert_eq!((cache.hits(), cache.misses(), calls.get()), (2, 1, 1));
    }

    #[test]
    fn a_competing_insert_of_the_same_key_is_a_no_op() {
        let g = mobilenet();
        let c = paper_testbed_8gpu();
        let s = Strategy::even(g.len(), &c, CommMethod::AllReduce);
        let policy = OrderPolicy::RankBased;
        let fresh = crate::evaluate(&g, &c, &GroundTruthCost, &s);
        let cache = EvalCache::new();
        // The outer miss computes outside the lock; while it does, a
        // competing miss on the same key computes and inserts first.
        let outer = cache.evaluate_or_insert_with(&g, &c, &s, &policy, || {
            let inner = cache.evaluate_or_insert_with(&g, &c, &s, &policy, || fresh.clone());
            assert_kept_fields_equal(&inner, &fresh);
            let mut late = fresh.clone();
            late.iteration_time += 1.0;
            late
        });
        assert_eq!(outer.iteration_time, fresh.iteration_time + 1.0);
        assert!(outer.report.schedule.start.is_empty());
        assert_eq!((cache.hits(), cache.misses()), (0, 2));
        assert_eq!(cache.len(), 1, "the late insert stores no second entry");
        // The first insert stays: a hit returns it.
        let hit = cache.evaluate_or_insert_with(&g, &c, &s, &policy, || unreachable!());
        assert_kept_fields_equal(&hit, &fresh);
    }

    /// A stored entry answers only a strategy equal to it op for op: with
    /// strategy A's entry planted under B's full key, as a hash collision
    /// would leave it, evaluating B misses and returns B's evaluation.
    #[test]
    fn a_colliding_entry_for_another_strategy_is_not_returned() {
        let g = mobilenet();
        let c = paper_testbed_8gpu();
        let a = Strategy::even(g.len(), &c, CommMethod::AllReduce);
        let b = Strategy::proportional(g.len(), &c, CommMethod::Ps);
        let policy = OrderPolicy::RankBased;
        let eval_a = crate::evaluate(&g, &c, &GroundTruthCost, &a);
        let eval_b = crate::evaluate(&g, &c, &GroundTruthCost, &b);
        assert_ne!(eval_a.iteration_time, eval_b.iteration_time);
        let cache = EvalCache::new();
        let key_b = full_key(context_key(&g, &c, &policy), &b);
        let planted = (PackedStrategy::pack(&a), eval_a.clone());
        lock(&cache.map).insert(key_b, vec![planted]);
        let calls = std::cell::Cell::new(0);
        let compute = || {
            calls.set(calls.get() + 1);
            eval_b.clone()
        };
        let got = cache.evaluate_or_insert_with(&g, &c, &b, &policy, compute);
        assert_eq!(calls.get(), 1, "A's entry must not answer B");
        assert_kept_fields_equal(&got, &eval_b);
        // B now sits beside A in the same bucket, and hits.
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (0, 1, 2));
        let hit = cache.evaluate_or_insert_with(&g, &c, &b, &policy, compute);
        assert_eq!(calls.get(), 1, "B's own entry hits");
        assert_kept_fields_equal(&hit, &eval_b);
    }

    #[test]
    fn distinct_clusters_never_share_entries() {
        let g = mobilenet();
        let fast = uniform_cluster(GpuModel::TeslaV100, 8, 4, 10e9);
        let slow = uniform_cluster(GpuModel::TeslaV100, 8, 4, 1e9);
        let s = Strategy::even(g.len(), &fast, CommMethod::AllReduce);
        let cache = EvalCache::new();
        let on_fast = cache.evaluate(&g, &fast, &GroundTruthCost, &s);
        // Same graph, same strategy, different hardware: must be a miss
        // and must produce the slow cluster's own (different) time.
        let on_slow = cache.evaluate(&g, &slow, &GroundTruthCost, &s);
        assert_eq!((cache.hits(), cache.misses()), (0, 2));
        assert_eq!(cache.len(), 2);
        assert!(
            on_slow.iteration_time > on_fast.iteration_time,
            "slow NIC must simulate slower: {} vs {}",
            on_slow.iteration_time,
            on_fast.iteration_time
        );
    }

    #[test]
    fn distinct_order_policies_never_share_entries() {
        let g = mobilenet();
        let c = paper_testbed_8gpu();
        let cache = EvalCache::new();
        let s = Strategy::even(g.len(), &c, CommMethod::AllReduce);
        cache.evaluate_with_policy(&g, &c, &GroundTruthCost, &s, &OrderPolicy::RankBased);
        cache.evaluate_with_policy(&g, &c, &GroundTruthCost, &s, &OrderPolicy::Fifo);
        assert_eq!(cache.misses(), 2);
    }
}
