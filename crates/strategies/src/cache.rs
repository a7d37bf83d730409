//! Strategy-evaluation cache.
//!
//! Every planner and the RL agent score candidate strategies through the
//! same compile→schedule→simulate pipeline, and searches revisit
//! strategies constantly: MCMC proposals walk back over earlier states,
//! CEM elites recur across rounds, and the RL agent's sampled placements
//! collapse onto a small set of distinct strategies once the policy
//! sharpens. Caching `(graph, cluster, strategy) -> Evaluation` turns
//! all of those repeats into hash lookups.
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
//! the same value. Planners, served plans and the RL reward read only
//! the makespan, OOM flag, memory report and busy times; a caller that
//! needs the task times (an explain's critical path, a Chrome trace)
//! simulates the task graph it compiled.
//!
//! The map is guarded by a `Mutex` and
//! hit/miss counters are atomic: batched rollouts probe it from pool
//! workers concurrently. Each outcome also counts once in an always-on
//! counter shared by all caches ([`crate::EvalStats`]). Misses are
//! computed *outside* the lock —
//! concurrent misses on the same key may both evaluate (the pipeline is
//! deterministic, so both compute the identical value and the second
//! insert is a no-op). Every miss goes through one insert path,
//! [`EvalCache::evaluate_or_insert_with`].
//!
//! The map can be split into independent shards, each behind its own
//! `Mutex`, so a planning *service* where many tenants evaluate
//! strategies for different (model, cluster) pairs at once does not
//! serialize every lookup on one lock. Each context routes to one shard
//! by its context hash: every strategy evaluated for one
//! (graph, cluster, policy) lives on one shard, so a planner run touches
//! exactly one lock, and tenants with the same graph and cluster
//! [`fingerprint`](heterog_cluster::Cluster::fingerprint) warm each
//! other's entries. One shard is the plain single-lock cache.
//!
//! The cache is bounded per *context* (one context = one
//! graph/cluster-fingerprint/policy combination): the elastic runtime
//! re-plans on a mutated cluster after every fault, and each mutation
//! has a fresh fingerprint, so an unbounded cache would accumulate one
//! dead context per fault forever. When the number of distinct contexts
//! on a shard exceeds its capacity, that shard's oldest-inserted
//! context's entries are evicted wholesale. Hit/miss counters are
//! monotone and unaffected by eviction (an evicted entry simply misses
//! again).

use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use heterog_cluster::Cluster;
use heterog_compile::{PackedStrategy, Strategy};
use heterog_graph::Graph;
use heterog_profile::CostEstimator;
use heterog_sched::OrderPolicy;
use heterog_telemetry::Counter;

use crate::evaluate::{evaluate_with_policy, Evaluation};

pub(crate) static HITS: Counter = Counter::always(
    "heterog_strategies_eval_cache_hits_total",
    "Strategy evaluations served from the cache",
);
pub(crate) static MISSES: Counter = Counter::always(
    "heterog_strategies_eval_cache_misses_total",
    "Strategy evaluations computed on cache miss",
);
pub(crate) static EVICTIONS: Counter = Counter::always(
    "heterog_strategies_eval_cache_evicted_contexts_total",
    "Whole evaluation contexts evicted when the cache hit capacity",
);

/// Contexts a default-constructed cache holds before evicting. One
/// context per (graph, cluster fingerprint, order policy); a planner
/// run uses one, an elastic run uses one per cluster mutation. 64 is
/// far above any run in the repo while still bounding a fault-storm.
pub const DEFAULT_CONTEXT_CAPACITY: usize = 64;

#[derive(Debug, Default)]
struct Shard {
    /// `hash(context, strategy)` -> strategies sharing that hash. The
    /// op-by-op match against the stored strategy makes collisions
    /// harmless.
    map: HashMap<u64, Vec<(PackedStrategy, Evaluation)>>,
    /// Every full key inserted under a given context, for eviction.
    ctx_keys: HashMap<u64, Vec<u64>>,
    /// Contexts in insertion order; front is evicted first.
    ctx_order: VecDeque<u64>,
}

/// A concurrent, bounded memo of strategy evaluations for one or more
/// (graph, cluster) contexts, split over one or more shards.
#[derive(Debug)]
pub struct EvalCache {
    shards: Box<[Mutex<Shard>]>,
    /// Contexts each shard holds before evicting.
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for EvalCache {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_CONTEXT_CAPACITY)
    }
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
    /// An empty single-shard cache holding up to
    /// [`DEFAULT_CONTEXT_CAPACITY`] contexts.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty single-shard cache bounded to `contexts` distinct
    /// (graph, cluster, policy) contexts (minimum 1). When a new
    /// context would exceed the bound, the oldest-inserted context's
    /// entries are dropped.
    pub fn with_capacity(contexts: usize) -> Self {
        Self::sharded(1, contexts)
    }

    /// An empty cache of `shards` independent shards (minimum 1), each
    /// bounded to `contexts_per_shard` contexts (minimum 1).
    pub fn sharded(shards: usize, contexts_per_shard: usize) -> Self {
        EvalCache {
            shards: (0..shards.max(1)).map(|_| Mutex::default()).collect(),
            capacity: contexts_per_shard.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Maximum distinct contexts each shard retains.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard every evaluation of context `ctx` goes through.
    fn shard(&self, ctx: u64) -> std::sync::MutexGuard<'_, Shard> {
        self.shards[(ctx % self.shards.len() as u64) as usize]
            .lock()
            .expect("eval cache poisoned")
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

    /// Cached [`crate::evaluate_with_policy`].
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
    /// hit. Hit or miss, the returned evaluation has no per-task times
    /// (see the module doc).
    pub fn evaluate_or_insert_with(
        &self,
        g: &Graph,
        cluster: &Cluster,
        strategy: &Strategy,
        policy: &OrderPolicy,
        compute: impl FnOnce() -> Evaluation,
    ) -> Evaluation {
        let ctx = context_key(g, cluster, policy);
        let key = full_key(ctx, strategy);
        if let Some(hit) = self.lookup(ctx, key, strategy) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            HITS.inc();
            return hit;
        }
        // Compute outside the lock: evaluations are orders of magnitude
        // slower than the map operations, and they are deterministic, so
        // a racing duplicate computation is wasteful but never wrong.
        let mut eval = compute();
        eval.report.schedule.start = Vec::new();
        eval.report.schedule.finish = Vec::new();
        self.misses.fetch_add(1, Ordering::Relaxed);
        MISSES.inc();
        let packed = PackedStrategy::pack(strategy);
        let mut inner = self.shard(ctx);
        if !inner.ctx_keys.contains_key(&ctx) {
            while inner.ctx_order.len() >= self.capacity {
                let oldest = inner.ctx_order.pop_front().expect("order tracks ctx_keys");
                for k in inner.ctx_keys.remove(&oldest).unwrap_or_default() {
                    inner.map.remove(&k);
                }
                EVICTIONS.inc();
            }
            inner.ctx_order.push_back(ctx);
        }
        let bucket = inner.map.entry(key).or_default();
        if !bucket.iter().any(|(s, _)| s.matches(strategy)) {
            bucket.push((packed, eval.clone()));
            inner.ctx_keys.entry(ctx).or_default().push(key);
        }
        eval
    }

    fn lookup(&self, ctx: u64, key: u64, strategy: &Strategy) -> Option<Evaluation> {
        self.shard(ctx)
            .map
            .get(&key)?
            .iter()
            .find(|(s, _)| s.matches(strategy))
            .map(|(_, e)| e.clone())
    }

    /// Evaluations served from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Evaluations computed fresh.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Distinct strategies currently stored (shrinks on eviction).
    pub fn len(&self) -> usize {
        self.sum_over_shards(|s| s.map.values().map(Vec::len).sum())
    }

    /// Distinct (graph, cluster, policy) contexts currently resident.
    pub fn contexts(&self) -> usize {
        self.sum_over_shards(|s| s.ctx_order.len())
    }

    fn sum_over_shards(&self, f: impl Fn(&Shard) -> usize) -> usize {
        self.shards
            .iter()
            .map(|s| f(&s.lock().expect("eval cache poisoned")))
            .sum()
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

    /// Shard counts every behavioural test runs under; 1 is the plain
    /// single-lock cache.
    const SHARDS: [usize; 3] = [1, 2, 4];

    #[test]
    fn hit_and_miss_counters_track_reuse() {
        let g = mobilenet();
        let c = paper_testbed_8gpu();
        let s1 = Strategy::even(g.len(), &c, CommMethod::AllReduce);
        let s2 = Strategy::even(g.len(), &c, CommMethod::Ps);
        for shards in SHARDS {
            let cache = EvalCache::sharded(shards, DEFAULT_CONTEXT_CAPACITY);
            assert_eq!(cache.num_shards(), shards);
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
            assert_eq!(cache.contexts(), 1);
            assert!((cache.hit_rate() - 0.6).abs() < 1e-12);
            // The whole context lives on exactly one shard.
            let occupied: Vec<usize> = cache
                .shards
                .iter()
                .map(|s| s.lock().unwrap().map.values().map(Vec::len).sum())
                .filter(|&n| n > 0)
                .collect();
            assert_eq!(occupied, vec![2], "{shards} shards");
        }
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
        for shards in SHARDS {
            let cache = EvalCache::sharded(shards, 2);
            let miss = cache.evaluate(&g, &c, &GroundTruthCost, &s);
            let hit = cache.evaluate(&g, &c, &GroundTruthCost, &s);
            assert_kept_fields_equal(&miss, &fresh);
            assert_kept_fields_equal(&hit, &fresh);
            assert!((cache.hit_rate() - 0.5).abs() < 1e-12);
        }
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
        for shards in SHARDS {
            let cache = EvalCache::sharded(shards, 2);
            let shared = heterog_telemetry::par::par_map(&visits, |s| {
                cache.evaluate(&g, &c, &GroundTruthCost, s)
            });
            for (e, s) in shared.iter().zip(&visits) {
                assert_kept_fields_equal(e, &crate::evaluate(&g, &c, &GroundTruthCost, s));
            }
        }
    }

    #[test]
    fn compute_runs_once_on_a_miss_and_never_on_a_hit() {
        let g = mobilenet();
        let c = paper_testbed_8gpu();
        let s = Strategy::even(g.len(), &c, CommMethod::AllReduce);
        let policy = OrderPolicy::RankBased;
        let fresh = crate::evaluate(&g, &c, &GroundTruthCost, &s);
        for shards in SHARDS {
            let cache = EvalCache::sharded(shards, DEFAULT_CONTEXT_CAPACITY);
            let calls = std::cell::Cell::new(0);
            let compute = || {
                calls.set(calls.get() + 1);
                fresh.clone()
            };
            let miss = cache.evaluate_or_insert_with(&g, &c, &s, &policy, compute);
            assert_eq!(calls.get(), 1, "{shards} shards: one compute per miss");
            let hit = cache.evaluate_or_insert_with(&g, &c, &s, &policy, compute);
            assert_eq!(calls.get(), 1, "{shards} shards: no compute on a hit");
            assert_eq!((cache.hits(), cache.misses()), (1, 1));
            assert_kept_fields_equal(&miss, &fresh);
            assert_kept_fields_equal(&hit, &fresh);
            // The cached evaluation path and the explicit one share
            // entries.
            cache.evaluate(&g, &c, &GroundTruthCost, &s);
            assert_eq!((cache.hits(), cache.misses(), calls.get()), (2, 1, 1));
        }
    }

    #[test]
    fn a_competing_insert_of_the_same_key_is_a_no_op() {
        let g = mobilenet();
        let c = paper_testbed_8gpu();
        let s = Strategy::even(g.len(), &c, CommMethod::AllReduce);
        let policy = OrderPolicy::RankBased;
        let fresh = crate::evaluate(&g, &c, &GroundTruthCost, &s);
        for shards in SHARDS {
            let cache = EvalCache::sharded(shards, DEFAULT_CONTEXT_CAPACITY);
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
            assert_eq!((cache.len(), cache.contexts()), (1, 1), "{shards} shards");
            let keys: usize = cache
                .shards
                .iter()
                .map(|sh| {
                    sh.lock()
                        .unwrap()
                        .ctx_keys
                        .values()
                        .map(Vec::len)
                        .sum::<usize>()
                })
                .sum();
            assert_eq!(keys, 1, "the late insert records no second key");
            // The first insert stays: a hit returns it.
            let hit = cache.evaluate_or_insert_with(&g, &c, &s, &policy, || unreachable!());
            assert_kept_fields_equal(&hit, &fresh);
        }
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
        for shards in SHARDS {
            let cache = EvalCache::sharded(shards, DEFAULT_CONTEXT_CAPACITY);
            let ctx = context_key(&g, &c, &policy);
            let key_b = full_key(ctx, &b);
            {
                let mut shard = cache.shard(ctx);
                shard.ctx_order.push_back(ctx);
                shard.ctx_keys.insert(ctx, vec![key_b]);
                let planted = (PackedStrategy::pack(&a), eval_a.clone());
                shard.map.insert(key_b, vec![planted]);
            }
            let calls = std::cell::Cell::new(0);
            let compute = || {
                calls.set(calls.get() + 1);
                eval_b.clone()
            };
            let got = cache.evaluate_or_insert_with(&g, &c, &b, &policy, compute);
            assert_eq!(
                calls.get(),
                1,
                "{shards} shards: A's entry must not answer B"
            );
            assert_kept_fields_equal(&got, &eval_b);
            // B now sits beside A in the same bucket, and hits.
            assert_eq!((cache.hits(), cache.misses(), cache.len()), (0, 1, 2));
            let hit = cache.evaluate_or_insert_with(&g, &c, &b, &policy, compute);
            assert_eq!(calls.get(), 1, "{shards} shards: B's own entry hits");
            assert_kept_fields_equal(&hit, &eval_b);
        }
    }

    #[test]
    fn distinct_clusters_never_share_entries() {
        let g = mobilenet();
        let fast = uniform_cluster(GpuModel::TeslaV100, 8, 4, 10e9);
        let slow = uniform_cluster(GpuModel::TeslaV100, 8, 4, 1e9);
        let s = Strategy::even(g.len(), &fast, CommMethod::AllReduce);
        for shards in SHARDS {
            let cache = EvalCache::sharded(shards, DEFAULT_CONTEXT_CAPACITY);
            let on_fast = cache.evaluate(&g, &fast, &GroundTruthCost, &s);
            // Same graph, same strategy, different hardware: must be a
            // miss and must produce the slow cluster's own (different)
            // time.
            let on_slow = cache.evaluate(&g, &slow, &GroundTruthCost, &s);
            assert_eq!((cache.hits(), cache.misses()), (0, 2));
            assert_eq!(cache.contexts(), 2);
            assert!(
                on_slow.iteration_time > on_fast.iteration_time,
                "slow NIC must simulate slower: {} vs {}",
                on_slow.iteration_time,
                on_fast.iteration_time
            );
        }
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

    #[test]
    fn capacity_evicts_oldest_context_and_keeps_counters_correct() {
        let g = mobilenet();
        let c1 = uniform_cluster(GpuModel::TeslaV100, 4, 4, 10e9);
        let c2 = uniform_cluster(GpuModel::TeslaV100, 4, 4, 5e9);
        let c3 = uniform_cluster(GpuModel::TeslaV100, 4, 4, 1e9);
        let cache = EvalCache::with_capacity(2);
        assert_eq!(cache.capacity(), 2);
        let s = Strategy::even(g.len(), &c1, CommMethod::AllReduce);

        cache.evaluate(&g, &c1, &GroundTruthCost, &s); // miss, ctx1 in
        cache.evaluate(&g, &c2, &GroundTruthCost, &s); // miss, ctx2 in
        assert_eq!(cache.contexts(), 2);
        cache.evaluate(&g, &c3, &GroundTruthCost, &s); // miss, evicts ctx1
        assert_eq!(cache.contexts(), 2);
        assert_eq!(cache.len(), 2, "evicted context's entries are gone");

        // ctx2 and ctx3 survived: both hit.
        cache.evaluate(&g, &c2, &GroundTruthCost, &s);
        cache.evaluate(&g, &c3, &GroundTruthCost, &s);
        assert_eq!((cache.hits(), cache.misses()), (2, 3));

        // ctx1 was evicted: same inputs miss again, and the fresh value
        // still equals a direct evaluation (eviction never corrupts).
        let fresh = crate::evaluate(&g, &c1, &GroundTruthCost, &s);
        let re = cache.evaluate(&g, &c1, &GroundTruthCost, &s);
        assert_eq!((cache.hits(), cache.misses()), (2, 4));
        assert_eq!(re.iteration_time.to_bits(), fresh.iteration_time.to_bits());
        // Re-inserting ctx1 evicted the then-oldest ctx2.
        assert_eq!(cache.contexts(), 2);
        cache.evaluate(&g, &c2, &GroundTruthCost, &s);
        assert_eq!((cache.hits(), cache.misses()), (2, 5));
    }
}
