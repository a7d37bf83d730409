//! Evaluate-throughput bench: the fast evaluation engine vs the seed's
//! serial path.
//!
//! Every search planner and the RL trainer pay the same inner-loop cost
//! per candidate strategy: compile → schedule → simulate. This bin
//! measures that loop two ways on MobileNet-v2 / paper_testbed_8gpu:
//!
//! * **serial** — a fresh `evaluate()` per candidate, exactly what the
//!   seed trainer did once per episode;
//! * **batched+cached** — the same candidate stream fanned out over
//!   the worker pool through a shared [`EvalCache`], the configuration the batched
//!   trainer (`rollout_k > 1`) runs.
//!
//! The candidate stream is a pool of distinct strategies replayed
//! several times — the shape real searches produce (MCMC walks revisit
//! states, CEM elites recur, a sharpening policy resamples its favorite
//! placements). Both paths must produce bit-identical evaluations, and
//! the batched trainer must plan the same strategy as its forced-serial
//! twin; the bin asserts both before reporting.
//!
//! Writes `BENCH_eval_throughput.json` in the working directory (the
//! workspace root under `cargo run`). Target: ≥5× evals/sec.
//!
//! Run: `cargo run --release -p heterog-bench --bin exp_eval_throughput`
//! (pass `--smoke` for a seconds-scale CI configuration).

use std::time::Instant;

use heterog_agent::{actions_to_strategy, ActionSpace, RlAgent, TrainerConfig};
use heterog_bench::{evaluate, Strategy};
use heterog_cluster::{paper_testbed_8gpu, Cluster, DeviceId, GpuModel, LinkKind};
use heterog_compile::CommMethod;
use heterog_graph::{BenchmarkModel, ModelSpec};
use heterog_nn::init::seeded_rng;
use heterog_profile::GroundTruthCost;
use heterog_sched::OrderPolicy;
use heterog_strategies::{
    group_ops, grouping::avg_op_times, EvalCache, Evaluation, IncrementalEvaluator, Perturbation,
};
use heterog_telemetry::par::par_map;

fn threads() -> usize {
    std::thread::available_parallelism()
        .map(usize::from)
        .unwrap_or(1)
}

fn eval_bits(e: &Evaluation) -> (u64, bool, u64) {
    (
        e.iteration_time.to_bits(),
        e.oom,
        e.report.schedule.makespan.to_bits(),
    )
}

fn main() {
    heterog_bench::bench_init();
    let smoke = std::env::args().any(|a| a == "--smoke");
    // Pool of distinct strategies, each revisited `repeats` times.
    let (pool_n, repeats, agent_eps) = if smoke { (8, 4, 4) } else { (48, 8, 12) };

    let g = ModelSpec::new(BenchmarkModel::MobileNetV2, 64).build();
    let cluster = paper_testbed_8gpu();
    let cost = GroundTruthCost;
    let space = ActionSpace::new(&cluster);
    let grouping = group_ops(&g, &avg_op_times(&g, &cluster, &cost), 16);

    let mut rng = seeded_rng(0xE7A1_7B07);
    let mut pool: Vec<Strategy> = Vec::with_capacity(pool_n);
    while pool.len() < pool_n {
        let actions: Vec<usize> = (0..grouping.len())
            .map(|_| rng.gen_range(0..space.len()))
            .collect();
        let s = actions_to_strategy(&g, &cluster, &grouping, &actions);
        if !pool.contains(&s) {
            pool.push(s);
        }
    }
    let workload: Vec<&Strategy> = (0..repeats).flat_map(|_| pool.iter()).collect();
    let total = workload.len();

    println!("=== Evaluate throughput: MobileNet-v2 @64, paper 8-GPU testbed ===");
    println!(
        "{total} candidate evaluations ({pool_n} distinct strategies x {repeats} visits), \
         {} thread(s)",
        threads()
    );

    // Seed path: one fresh compile→schedule→simulate per candidate.
    let t0 = Instant::now();
    let serial: Vec<Evaluation> = workload
        .iter()
        .map(|s| evaluate(&g, &cluster, &cost, s))
        .collect();
    let serial_secs = t0.elapsed().as_secs_f64();

    // Fast engine: pool fan-out through a shared cache.
    let cache = EvalCache::new();
    let t1 = Instant::now();
    let batched: Vec<Evaluation> = par_map(&workload, |s| cache.evaluate(&g, &cluster, &cost, s));
    let batched_secs = t1.elapsed().as_secs_f64();

    let identical = serial
        .iter()
        .zip(&batched)
        .all(|(a, b)| eval_bits(a) == eval_bits(b));
    assert!(
        identical,
        "batched+cached evaluations must be bit-identical"
    );

    // Plan-equivalence guard: the batched trainer and its forced-serial
    // twin must converge on the same strategy for the same seed.
    let train_cfg = TrainerConfig {
        episodes: agent_eps,
        groups: 8,
        rollout_k: 4,
        ..TrainerConfig::default()
    };
    let mut par_agent = RlAgent::new(train_cfg.clone());
    par_agent.train(&[&g], &cluster, &cost);
    let mut ser_agent = RlAgent::new(TrainerConfig {
        serial_eval: true,
        ..train_cfg
    });
    ser_agent.train(&[&g], &cluster, &cost);
    let plan_matches = par_agent.plan(&g, &cluster, &cost) == ser_agent.plan(&g, &cluster, &cost);
    assert!(plan_matches, "parallel rollouts must not change plan()");

    // Perturbation workload: what-if engines, repair scoring, and the
    // RL agent's neighborhood moves all evaluate *small deltas* of one
    // base deployment. Replay the same perturbation stream through the
    // full pipeline (fresh compile+simulate per query, the seed path)
    // and through the incremental evaluator (re-price, then reuse the
    // base report or simulate once, no compile); both must be
    // bit-identical.
    let (pert_pool_n, pert_repeats) = if smoke { (6, 4) } else { (24, 8) };
    let base_strategy = Strategy::even(g.len(), &cluster, CommMethod::AllReduce);
    let kinds = [
        LinkKind::Pcie,
        LinkKind::NicOut,
        LinkKind::NicIn,
        LinkKind::NvLink,
    ];
    let pert_pool: Vec<Cluster> = (0..pert_pool_n)
        .map(|i| {
            let f = 0.4 + 0.1 * (i % 13) as f64;
            match i % 3 {
                0 => cluster.with_scaled_link(Some(kinds[i % kinds.len()]), f),
                1 => cluster.with_scaled_link(None, f),
                _ => cluster.with_device_model(
                    DeviceId((i % cluster.num_devices()) as u32),
                    if i % 2 == 0 {
                        GpuModel::TeslaK80
                    } else {
                        GpuModel::TeslaV100
                    },
                ),
            }
        })
        .collect();
    let pert_workload: Vec<&Cluster> = (0..pert_repeats).flat_map(|_| pert_pool.iter()).collect();
    let pert_total = pert_workload.len();
    let policy = OrderPolicy::RankBased;

    let t2 = Instant::now();
    let pert_full: Vec<Evaluation> = pert_workload
        .iter()
        .map(|c2| evaluate(&g, c2, &cost, &base_strategy))
        .collect();
    let pert_full_secs = t2.elapsed().as_secs_f64();

    let t3 = Instant::now();
    let inc_eval = IncrementalEvaluator::new(&g, &cost, &cluster, &base_strategy, &policy);
    let inc_setup_secs = t3.elapsed().as_secs_f64();
    let t4 = Instant::now();
    let pert_inc: Vec<Evaluation> = pert_workload
        .iter()
        .map(|c2| inc_eval.evaluate_perturbed(Perturbation::Cluster(c2)).0)
        .collect();
    let pert_inc_secs = t4.elapsed().as_secs_f64();

    let pert_identical = pert_full
        .iter()
        .zip(&pert_inc)
        .all(|(a, b)| eval_bits(a) == eval_bits(b));
    assert!(
        pert_identical,
        "incremental perturbed evaluations must be bit-identical to full ones"
    );
    let pert_full_rate = pert_total as f64 / pert_full_secs;
    let pert_inc_rate = pert_total as f64 / pert_inc_secs;
    let pert_speedup = pert_full_secs / pert_inc_secs;

    let serial_rate = total as f64 / serial_secs;
    let batched_rate = total as f64 / batched_secs;
    let speedup = serial_secs / batched_secs;
    println!("serial (seed path):    {serial_secs:8.3}s  {serial_rate:9.1} evals/s");
    println!("batched+cached:        {batched_secs:8.3}s  {batched_rate:9.1} evals/s");
    println!(
        "speedup: {speedup:.2}x (target >=5x)   cache: {} hits / {} misses ({:.0}% hit rate)",
        cache.hits(),
        cache.misses(),
        cache.hit_rate() * 100.0
    );
    println!("results bit-identical: {identical}   plan matches serial: {plan_matches}");
    println!(
        "perturbation workload: {pert_total} queries ({pert_pool_n} distinct cluster deltas x \
         {pert_repeats} visits)"
    );
    println!("  full re-simulation:  {pert_full_secs:8.3}s  {pert_full_rate:9.1} evals/s");
    println!(
        "  incremental resim:   {pert_inc_secs:8.3}s  {pert_inc_rate:9.1} evals/s \
         (+{inc_setup_secs:.3}s one-time anchor)"
    );
    println!("  speedup: {pert_speedup:.2}x (target >=10x)   bit-identical: {pert_identical}");

    // Hand-formatted JSON: flat numbers at fixed precision, so the
    // artifact is identical across toolchains.
    let json = format!(
        "{{\n  \"model\": \"mobilenet_v2\",\n  \"batch_size\": 64,\n  \"cluster\": \"paper_testbed_8gpu\",\n  \"smoke\": {smoke},\n  \"distinct_strategies\": {pool_n},\n  \"visits_per_strategy\": {repeats},\n  \"total_evals\": {total},\n  \"threads\": {threads},\n  \"serial_secs\": {serial_secs:.6},\n  \"serial_evals_per_sec\": {serial_rate:.3},\n  \"batched_cached_secs\": {batched_secs:.6},\n  \"batched_cached_evals_per_sec\": {batched_rate:.3},\n  \"speedup\": {speedup:.3},\n  \"target_speedup\": 5.0,\n  \"meets_target\": {meets},\n  \"cache_hits\": {hits},\n  \"cache_misses\": {misses},\n  \"cache_hit_rate\": {hit_rate:.4},\n  \"results_bit_identical\": {identical},\n  \"plan_matches_serial\": {plan_matches},\n  \"perturbation_total_evals\": {pert_total},\n  \"perturbation_full_secs\": {pert_full_secs:.6},\n  \"perturbation_full_evals_per_sec\": {pert_full_rate:.3},\n  \"perturbation_incremental_setup_secs\": {inc_setup_secs:.6},\n  \"perturbation_incremental_secs\": {pert_inc_secs:.6},\n  \"perturbation_incremental_evals_per_sec\": {pert_inc_rate:.3},\n  \"perturbation_speedup\": {pert_speedup:.3},\n  \"perturbation_target_speedup\": 10.0,\n  \"perturbation_meets_target\": {pert_meets},\n  \"perturbation_bit_identical\": {pert_identical}\n}}\n",
        threads = threads(),
        meets = speedup >= 5.0,
        hits = cache.hits(),
        misses = cache.misses(),
        hit_rate = cache.hit_rate(),
        pert_meets = pert_speedup >= 10.0,
    );
    let path = "BENCH_eval_throughput.json";
    match std::fs::write(path, &json) {
        Ok(()) => eprintln!("(results written to {path})"),
        Err(e) => eprintln!("warning: could not write {path}: {e}"),
    }
}
