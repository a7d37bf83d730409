//! Debug: what finishes last under CP?
use heterog_cluster::paper_testbed_4gpu;
use heterog_compile::{compile, CommMethod, Strategy};
use heterog_graph::{BenchmarkModel, ModelSpec};
use heterog_profile::GroundTruthCost;
use heterog_sched::{list_schedule, OrderPolicy};

fn main() {
    let c = paper_testbed_4gpu();
    let g = ModelSpec::with_layers(BenchmarkModel::Transformer, 360, 6).build();
    for (name, s) in [
        ("EV-AR", Strategy::even(g.len(), &c, CommMethod::AllReduce)),
        (
            "CP-AR",
            Strategy::proportional(g.len(), &c, CommMethod::AllReduce),
        ),
    ] {
        let tg = compile(&g, &c, &GroundTruthCost, &s);
        let sch = list_schedule(&tg, &OrderPolicy::RankBased);
        let mut idx: Vec<usize> = (0..tg.len()).collect();
        idx.sort_by(|&a, &b| sch.finish[b].total_cmp(&sch.finish[a]));
        println!("{name}: makespan {:.3}", sch.makespan);
        for &i in idx.iter().take(8) {
            let id = heterog_sched::TaskId(i as u32);
            let t = tg.task(id);
            println!(
                "  {:.4}..{:.4}  {:>10}  {}",
                sch.start[i],
                sch.finish[i],
                format!("{}", t.proc),
                tg.task_name(id)
            );
        }
    }
}
