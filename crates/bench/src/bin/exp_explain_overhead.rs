//! Explain-overhead bench: what does an `ExplainReport` cost next to the
//! evaluation loop it explains?
//!
//! The explain layer is meant to be cheap enough to run after every
//! planning session: the critical-path walk and attribution are linear
//! passes over the schedule, and the what-if loop is `K` extra
//! compile+simulate rounds on the PR-2 allocation-free hot path (one
//! shared `SimScratch`). This bin measures, on MobileNet-v2 /
//! paper_testbed_8gpu:
//!
//! * **evaluate** — one compile+schedule+simulate round (the baseline
//!   unit of planner work);
//! * **explain (no what-if)** — critical path + attribution +
//!   stragglers only;
//! * **explain (default what-ifs)** — the full report, including the
//!   derived intervention set.
//!
//! The analysis-only report should cost a small fraction of one
//! evaluation; the full report should cost roughly the size of its
//! intervention set (each what-if is one evaluation-shaped round).
//!
//! Writes `BENCH_explain_overhead.json` in the working directory.
//!
//! Run: `cargo run --release -p heterog-bench --bin exp_explain_overhead`
//! (pass `--smoke` for a seconds-scale CI configuration).

use std::time::Instant;

use heterog::explain::{default_interventions, explain, ExplainOptions};
use heterog_bench::Strategy;
use heterog_cluster::paper_testbed_8gpu;
use heterog_compile::{compile, CommMethod};
use heterog_graph::{BenchmarkModel, ModelSpec};
use heterog_profile::GroundTruthCost;
use heterog_sched::OrderPolicy;
use heterog_sim::simulate;

fn main() {
    heterog_bench::bench_init();
    let smoke = std::env::args().any(|a| a == "--smoke");
    let rounds = if smoke { 5 } else { 25 };

    let g = ModelSpec::new(BenchmarkModel::MobileNetV2, 64).build();
    let cluster = paper_testbed_8gpu();
    let strategy = Strategy::even(g.len(), &cluster, CommMethod::Ps);
    let policy = OrderPolicy::RankBased;
    let tg = compile(&g, &cluster, &GroundTruthCost, &strategy);
    let report = simulate(&tg, &cluster.memory_capacities(), &policy);
    let num_whatifs = default_interventions(&cluster, &strategy).len();

    let time = |f: &mut dyn FnMut()| {
        let start = Instant::now();
        for _ in 0..rounds {
            f();
        }
        start.elapsed().as_secs_f64() / rounds as f64
    };

    let eval_s = time(&mut || {
        let tg = compile(&g, &cluster, &GroundTruthCost, &strategy);
        let r = simulate(&tg, &cluster.memory_capacities(), &policy);
        std::hint::black_box(r.iteration_time);
    });

    let analysis_opts = ExplainOptions {
        run_whatif: false,
        ..ExplainOptions::default()
    };
    let analysis_s = time(&mut || {
        let rep = explain(
            &g,
            &cluster,
            &strategy,
            &tg,
            &policy,
            &report,
            &analysis_opts,
        );
        std::hint::black_box(rep.makespan);
    });

    let full_opts = ExplainOptions::default();
    let full_s = time(&mut || {
        let rep = explain(&g, &cluster, &strategy, &tg, &policy, &report, &full_opts);
        std::hint::black_box(rep.makespan);
    });

    let analysis_ratio = analysis_s / eval_s;
    let whatif_evals = (full_s - analysis_s) / eval_s;
    println!("one evaluation:          {:.3} ms", eval_s * 1e3);
    println!(
        "explain (analysis only): {:.3} ms ({analysis_ratio:.2}x one evaluation)",
        analysis_s * 1e3
    );
    println!(
        "explain (full, {num_whatifs} what-ifs): {:.3} ms (~{whatif_evals:.1} evaluation-equivalents of what-if work, target <=2)",
        full_s * 1e3
    );

    let json = format!(
        "{{\n  \"model\": \"mobilenet_v2\",\n  \"batch_size\": 64,\n  \
         \"cluster\": \"paper_testbed_8gpu\",\n  \"smoke\": {smoke},\n  \
         \"rounds\": {rounds},\n  \"evaluate_secs\": {eval_s:.6},\n  \
         \"explain_analysis_secs\": {analysis_s:.6},\n  \
         \"explain_full_secs\": {full_s:.6},\n  \
         \"default_whatifs\": {num_whatifs},\n  \
         \"analysis_vs_evaluate\": {analysis_ratio:.4},\n  \
         \"whatif_evaluation_equivalents\": {whatif_evals:.4},\n  \
         \"whatif_eval_equivalents_target\": 2.0,\n  \
         \"whatif_meets_target\": {meets}\n}}\n",
        meets = whatif_evals <= 2.0,
    );
    std::fs::write("BENCH_explain_overhead.json", json).expect("write results");
    println!("wrote BENCH_explain_overhead.json");
}
