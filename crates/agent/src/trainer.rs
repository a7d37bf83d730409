//! REINFORCE training of the policy network (§4.1.3).
//!
//! "In each round, a set of DNN graphs G are sampled as input to the
//! GAT ... a reward is computed by the simulator ... The reward is the
//! additive inverse of the square root of the per-iteration execution
//! time, R = -sqrt(T); [on OOM] we multiply the computed reward by 10
//! ... weights are updated by policy gradients [with an entropy
//! regularizer and a moving-average baseline]."

use std::collections::HashMap;

use heterog_cluster::Cluster;
use heterog_compile::Strategy;
use heterog_graph::Graph;
use heterog_nn::policy::argmax_rows;
use heterog_nn::{sample_categorical, softmax_rows, Adam, Matrix, PolicyGradient};
use heterog_profile::CostEstimator;
use heterog_strategies::{evaluate, group_ops, grouping::avg_op_times, Evaluation, Grouping};
use heterog_telemetry::par::par_map;
use heterog_telemetry::rng::{splitmix64, ChaCha8Rng};

use crate::action::{actions_to_strategy, ActionSpace};
use crate::features::{encode_features, graph_edges};
use crate::policy::{PolicyConfig, PolicyNet};

static EPISODES: heterog_telemetry::Counter =
    heterog_telemetry::Counter::new("heterog_agent_episodes_total", "REINFORCE episodes trained");
static EPISODE_REWARD: heterog_telemetry::Gauge = heterog_telemetry::Gauge::new(
    "heterog_agent_episode_reward",
    "Reward of the most recent episode",
);
static EPISODE_BASELINE: heterog_telemetry::Gauge = heterog_telemetry::Gauge::new(
    "heterog_agent_episode_baseline",
    "Moving-average baseline after the most recent episode",
);
static EPISODE_ENTROPY: heterog_telemetry::Gauge = heterog_telemetry::Gauge::new(
    "heterog_agent_episode_entropy",
    "Mean per-group policy entropy (nats) of the most recent episode",
);
static TRAIN_EVALS_PER_SEC: heterog_telemetry::Gauge = heterog_telemetry::Gauge::new(
    "heterog_agent_train_evals_per_sec",
    "Candidate evaluations per wall-clock second of the last train call",
);

/// Mean Shannon entropy of each row of a probability matrix, in nats.
fn mean_row_entropy(probs: &Matrix) -> f64 {
    if probs.rows == 0 {
        return 0.0;
    }
    let mut total = 0.0;
    for r in 0..probs.rows {
        for c in 0..probs.cols {
            let p = probs.data[r * probs.cols + c];
            if p > 0.0 {
                total -= p * p.ln();
            }
        }
    }
    total / probs.rows as f64
}

/// Adam learning rate.
const LR: f64 = 3e-3;
/// Entropy-bonus coefficient λ (§4.1.3's exploration regularizer).
const ENTROPY_COEFF: f64 = 0.05;
/// Moving-average baseline decay.
const BASELINE_DECAY: f64 = 0.9;

/// RL training configuration.
#[derive(Debug, Clone)]
pub struct TrainerConfig {
    /// Policy architecture.
    pub policy: PolicyConfig,
    /// Total training episodes (round-robin over the training graphs).
    pub episodes: usize,
    /// Operation groups (the paper's N, up to 2000).
    pub groups: usize,
    /// Sampling seed.
    pub seed: u64,
    /// Candidate rollouts per episode (the batched-rollout K). With
    /// K = 1 the trainer is bit-identical to the original serial path;
    /// K > 1 samples K placements from the episode's (fixed) policy,
    /// evaluates them in parallel, and averages their policy gradients —
    /// more reward signal per forward/backward pass.
    pub rollout_k: usize,
}

impl Default for TrainerConfig {
    fn default() -> Self {
        TrainerConfig {
            policy: PolicyConfig::default(),
            episodes: 200,
            groups: 32,
            seed: 0x5EED,
            rollout_k: 1,
        }
    }
}

/// Seed of candidate `ci`'s RNG stream in episode `ep`: a fixed function
/// of the configuration seed only, so batched sampling is deterministic
/// regardless of evaluation order or thread scheduling. SplitMix64's
/// finalizer decorrelates the streams.
fn candidate_seed(seed: u64, ep: u64, ci: u64) -> u64 {
    splitmix64(seed ^ splitmix64(ep.wrapping_add(1) ^ splitmix64(ci.wrapping_add(1))))
}

/// One graph's training trajectory.
#[derive(Debug, Clone)]
pub struct TrainRecord {
    /// Graph name.
    pub graph: String,
    /// Reward per episode (this graph's episodes only).
    pub rewards: Vec<f64>,
    /// Iteration time of the best sampled strategy.
    pub best_time: f64,
    /// Episode index (within this graph's episodes) where the best
    /// strategy was first sampled.
    pub best_episode: usize,
}

impl TrainRecord {
    /// Episodes until a sampled strategy got within `tol` of the best
    /// (the "time to find the best strategy" of Table 6): all of them
    /// when no episode's reward reached it, `None` when no sampled
    /// strategy fit in memory.
    pub fn episodes_to_within(&self, tol: f64) -> Option<usize> {
        if !self.best_time.is_finite() {
            return None;
        }
        let target = -(self.best_time * (1.0 + tol)).sqrt();
        let reached = self.rewards.iter().position(|&r| r >= target);
        Some(reached.map_or(self.rewards.len(), |p| p + 1))
    }
}

struct GraphCtx {
    graph: Graph,
    features: Matrix,
    edges: Vec<(u32, u32)>,
    grouping: Grouping,
    baseline: f64,
    baseline_init: bool,
    best: Option<(f64, Strategy)>,
    record: TrainRecord,
}

/// The GNN agent: policy network + REINFORCE trainer.
pub struct RlAgent {
    /// Training configuration.
    pub cfg: TrainerConfig,
    net: Option<PolicyNet>,
    adam: Adam,
    rng: ChaCha8Rng,
    /// Best feasible sampled strategy and its iteration time per
    /// (graph name, batch size, cluster fingerprint), kept across train
    /// calls; [`RlAgent::plan`] falls back to it.
    best: HashMap<(String, u64, u64), (f64, Strategy)>,
}

impl RlAgent {
    /// New, untrained agent.
    pub fn new(cfg: TrainerConfig) -> Self {
        let adam = Adam::new(LR);
        let rng = heterog_nn::init::seeded_rng(cfg.seed);
        RlAgent {
            cfg,
            net: None,
            adam,
            rng,
            best: HashMap::new(),
        }
    }

    /// Trains on `graphs` (round-robin) for `cfg.episodes` episodes.
    /// Subsequent calls continue training the same network — this is how
    /// §6.5's pre-train-then-fine-tune is expressed.
    pub fn train<C: CostEstimator>(
        &mut self,
        graphs: &[&Graph],
        cluster: &Cluster,
        cost: &C,
    ) -> Vec<TrainRecord> {
        assert!(!graphs.is_empty());
        let space = ActionSpace::new(cluster);
        let mut ctxs: Vec<GraphCtx> = graphs
            .iter()
            .map(|g| {
                let features = encode_features(g, cluster, cost);
                let grouping = group_ops(g, &avg_op_times(g, cluster, cost), self.cfg.groups);
                GraphCtx {
                    features,
                    edges: graph_edges(g),
                    grouping,
                    baseline: 0.0,
                    baseline_init: false,
                    best: None,
                    record: TrainRecord {
                        graph: g.name.clone(),
                        rewards: Vec::new(),
                        best_time: f64::INFINITY,
                        best_episode: 0,
                    },
                    graph: (*g).clone(),
                }
            })
            .collect();

        // Lazy net init (needs the feature width).
        let feat_dim = ctxs[0].features.cols;
        if self.net.is_none() {
            self.net = Some(PolicyNet::new(&self.cfg.policy, feat_dim, space.len()));
        }
        let net = self.net.as_mut().expect("initialized above");

        let _span = heterog_telemetry::span("rl_train");
        let telemetry_on = heterog_telemetry::enabled();
        let wall_start = telemetry_on.then(std::time::Instant::now);
        let mut total_evals: u64 = 0;
        let k = self.cfg.rollout_k.max(1);
        heterog_events::emit_with(|| heterog_events::EventKind::RunStarted {
            phase: "rl-train".into(),
            total_units: self.cfg.episodes as u64,
        });
        for ep in 0..self.cfg.episodes {
            let ctx = &mut ctxs[ep % graphs.len()];
            let logits = net.forward(&ctx.features, &ctx.edges, &ctx.grouping);
            let probs = softmax_rows(&logits);

            // Sample K candidate placements from the episode's (fixed)
            // policy. K = 1 draws from the master stream — bit-identical
            // to the pre-batched trainer; K > 1 gives every candidate
            // its own seed-derived stream so the batch is deterministic
            // under any evaluation order.
            let all_actions: Vec<Vec<usize>> = if k == 1 {
                vec![sample_categorical(&probs, &mut self.rng)]
            } else {
                (0..k)
                    .map(|ci| {
                        let mut rng = heterog_nn::init::seeded_rng(candidate_seed(
                            self.cfg.seed,
                            ep as u64,
                            ci as u64,
                        ));
                        sample_categorical(&probs, &mut rng)
                    })
                    .collect()
            };
            let strategies: Vec<Strategy> = all_actions
                .iter()
                .map(|a| actions_to_strategy(&ctx.graph, cluster, &ctx.grouping, a))
                .collect();
            let graph = &ctx.graph;
            let evals = par_map(&strategies, |s| evaluate(graph, cluster, cost, s));
            total_evals += k as u64;
            let rewards: Vec<f64> = evals.iter().map(Evaluation::reward).collect();

            // Track the best sampled strategy across the whole batch.
            for (ci, eval) in evals.iter().enumerate() {
                let t = if eval.oom {
                    f64::INFINITY
                } else {
                    eval.iteration_time
                };
                if t < ctx.record.best_time {
                    ctx.record.best_time = t;
                    ctx.record.best_episode = ctx.record.rewards.len();
                    ctx.best = Some((t, strategies[ci].clone()));
                }
            }
            let reward = rewards.iter().sum::<f64>() / k as f64;
            ctx.record.rewards.push(reward);

            // Moving-average baseline (per graph), fed the batch-mean
            // reward; per-candidate advantages subtract the updated
            // baseline, which reduces exactly to the serial rule at K=1.
            if !ctx.baseline_init {
                ctx.baseline = reward;
                ctx.baseline_init = true;
            } else {
                ctx.baseline = BASELINE_DECAY * ctx.baseline + (1.0 - BASELINE_DECAY) * reward;
            }

            EPISODES.inc();
            if telemetry_on {
                EPISODE_REWARD.set(reward);
                EPISODE_BASELINE.set(ctx.baseline);
                EPISODE_ENTROPY.set(mean_row_entropy(&probs));
            }
            heterog_events::emit_with(|| heterog_events::EventKind::RlEpisode {
                episode: ep as u64,
                reward,
                baseline: ctx.baseline,
                entropy: mean_row_entropy(&probs),
                best_time: ctx.record.best_time,
            });

            // Policy-gradient step: sum the per-candidate gradients and
            // average. Normalizing by group count keeps graphs of
            // different sizes producing comparable gradient magnitudes.
            let mut dlogits: Option<Matrix> = None;
            for (ci, actions) in all_actions.iter().enumerate() {
                let pg = PolicyGradient {
                    advantage: rewards[ci] - ctx.baseline,
                    entropy_coeff: ENTROPY_COEFF,
                };
                let d = pg.logits_grad(&probs, actions);
                match &mut dlogits {
                    None => dlogits = Some(d),
                    Some(sum) => {
                        for (s, v) in sum.data.iter_mut().zip(&d.data) {
                            *s += v;
                        }
                    }
                }
            }
            let mut dlogits = dlogits.expect("k >= 1");
            let scale = 1.0 / (ctx.grouping.len() as f64 * k as f64);
            for v in &mut dlogits.data {
                *v *= scale;
            }
            net.zero_grad();
            net.backward(&dlogits);
            net.step(&mut self.adam);
        }

        if let Some(t0) = wall_start {
            let secs = t0.elapsed().as_secs_f64();
            if secs > 0.0 {
                TRAIN_EVALS_PER_SEC.set(total_evals as f64 / secs);
            }
        }

        let fingerprint = cluster.fingerprint();
        ctxs.into_iter()
            .map(|c| {
                if let Some((t, strategy)) = c.best {
                    let key = (c.graph.name.clone(), c.graph.batch_size, fingerprint);
                    if self.best.get(&key).is_none_or(|(kept, _)| t < *kept) {
                        self.best.insert(key, (t, strategy));
                    }
                }
                c.record
            })
            .collect()
    }

    /// The strategy the trained agent deploys for `g`: the greedy
    /// (argmax) decode of the current policy, unless that decode
    /// overflows memory or is slower than the best feasible strategy
    /// sampled while training on `g` and `cluster`; then that one.
    /// Panics if the agent was never trained.
    pub fn plan<C: CostEstimator>(&mut self, g: &Graph, cluster: &Cluster, cost: &C) -> Strategy {
        let net = self.net.as_mut().expect("train before plan");
        let features = encode_features(g, cluster, cost);
        let grouping = group_ops(g, &avg_op_times(g, cluster, cost), self.cfg.groups);
        let logits = net.forward(&features, &graph_edges(g), &grouping);
        let actions = argmax_rows(&softmax_rows(&logits));
        let greedy = actions_to_strategy(g, cluster, &grouping, &actions);
        let key = (g.name.clone(), g.batch_size, cluster.fingerprint());
        let Some((best_time, best)) = self.best.get(&key) else {
            return greedy;
        };
        let decoded = evaluate(g, cluster, cost, &greedy);
        if decoded.oom || decoded.iteration_time > *best_time {
            best.clone()
        } else {
            greedy
        }
    }

    /// Whether the agent holds a trained network.
    pub fn is_trained(&self) -> bool {
        self.net.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heterog_cluster::{paper_testbed_8gpu, Device};
    use heterog_graph::{BenchmarkModel, ModelSpec};
    use heterog_profile::GroundTruthCost;

    fn tiny_cfg(episodes: usize) -> TrainerConfig {
        TrainerConfig {
            policy: PolicyConfig {
                gat_layers: 1,
                gat_heads: 2,
                gat_head_dim: 4,
                tf_blocks: 1,
                tf_heads: 2,
                tf_ff: 16,
                seed: 7,
            },
            episodes,
            groups: 8,
            ..Default::default()
        }
    }

    #[test]
    fn training_produces_records_and_improves_over_random() {
        let g = ModelSpec::new(BenchmarkModel::MobileNetV2, 64).build();
        let c = paper_testbed_8gpu();
        let mut agent = RlAgent::new(tiny_cfg(30));
        let recs = agent.train(&[&g], &c, &GroundTruthCost);
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].rewards.len(), 30);
        assert!(recs[0].best_time.is_finite());
        // Late rewards should not be worse than early ones on average.
        let early: f64 = recs[0].rewards[..10].iter().sum::<f64>() / 10.0;
        let late: f64 = recs[0].rewards[20..].iter().sum::<f64>() / 10.0;
        assert!(late >= early - 0.25, "early {early} late {late}");
    }

    #[test]
    fn plan_after_training_is_valid() {
        let g = ModelSpec::new(BenchmarkModel::MobileNetV2, 64).build();
        let c = paper_testbed_8gpu();
        let mut agent = RlAgent::new(tiny_cfg(10));
        agent.train(&[&g], &c, &GroundTruthCost);
        let s = agent.plan(&g, &c, &GroundTruthCost);
        assert_eq!(s.per_op.len(), g.len());
        let e = evaluate(&g, &c, &GroundTruthCost, &s);
        assert!(e.iteration_time.is_finite());
    }

    #[test]
    fn plan_is_no_worse_than_the_best_feasible_sample() {
        let g = ModelSpec::new(BenchmarkModel::MobileNetV2, 64).build();
        let c = paper_testbed_8gpu();
        let mut agent = RlAgent::new(TrainerConfig {
            groups: 4,
            ..tiny_cfg(3)
        });
        let rec = agent.train(&[&g], &c, &GroundTruthCost).remove(0);
        assert!(rec.best_time.is_finite(), "a feasible sample exists");
        let e = evaluate(
            &g,
            &c,
            &GroundTruthCost,
            &agent.plan(&g, &c, &GroundTruthCost),
        );
        assert!(!e.oom);
        assert!(
            e.iteration_time <= rec.best_time,
            "{} > {}",
            e.iteration_time,
            rec.best_time
        );
    }

    #[test]
    fn fine_tuning_continues_from_pretrained_weights() {
        let g1 = ModelSpec::new(BenchmarkModel::MobileNetV2, 64).build();
        let g2 = ModelSpec::new(BenchmarkModel::Vgg19, 64).build();
        let c = paper_testbed_8gpu();
        let mut agent = RlAgent::new(tiny_cfg(10));
        agent.train(&[&g1], &c, &GroundTruthCost);
        assert!(agent.is_trained());
        // Fine-tune on an unseen graph: must not panic, returns records.
        let recs = agent.train(&[&g2], &c, &GroundTruthCost);
        assert_eq!(recs[0].rewards.len(), 10);
    }

    /// Two runs agree bit for bit. CI runs this crate's tests again at
    /// `RAYON_NUM_THREADS=1`, where every batch evaluates serially, so
    /// the serial and parallel evaluation modes are both checked.
    #[test]
    fn batched_rollouts_are_deterministic_across_runs_and_eval_modes() {
        let g = ModelSpec::new(BenchmarkModel::MobileNetV2, 64).build();
        let c = paper_testbed_8gpu();
        let cfg = TrainerConfig {
            rollout_k: 3,
            ..tiny_cfg(6)
        };
        let run = || {
            let mut agent = RlAgent::new(cfg.clone());
            let recs = agent.train(&[&g], &c, &GroundTruthCost);
            let plan = agent.plan(&g, &c, &GroundTruthCost);
            let net = agent.net.as_mut().expect("trained");
            let policy: Vec<u64> = net
                .params_grads()
                .iter()
                .flat_map(|(p, _)| p.iter().map(|w| w.to_bits()))
                .collect();
            (recs, plan, policy)
        };
        let (recs_a, plan_a, policy_a) = run();
        let (recs_b, plan_b, policy_b) = run();
        let bits = |recs: &[TrainRecord]| -> Vec<u64> {
            recs[0].rewards.iter().map(|r| r.to_bits()).collect()
        };
        // Bit-identical rewards, network parameters and plans: thread
        // scheduling does not leak into results.
        assert_eq!(bits(&recs_a), bits(&recs_b));
        assert_eq!(policy_a, policy_b);
        assert_eq!(plan_a, plan_b);
    }

    #[test]
    fn rollout_k_one_matches_legacy_serial_trainer() {
        // K = 1 must draw from the master RNG stream, making the batched
        // trainer bit-identical to the original single-candidate path:
        // replay it manually and compare rewards.
        let g = ModelSpec::new(BenchmarkModel::MobileNetV2, 64).build();
        let c = paper_testbed_8gpu();
        let mut agent = RlAgent::new(tiny_cfg(4));
        let (recs, stats) =
            heterog_strategies::count_evaluations(|| agent.train(&[&g], &c, &GroundTruthCost));
        assert_eq!(stats.evaluations, 4, "one evaluation per episode at K=1");

        let mut replay = RlAgent::new(tiny_cfg(4));
        let recs2 = replay.train(&[&g], &c, &GroundTruthCost);
        assert_eq!(
            recs[0]
                .rewards
                .iter()
                .map(|r| r.to_bits())
                .collect::<Vec<_>>(),
            recs2[0]
                .rewards
                .iter()
                .map(|r| r.to_bits())
                .collect::<Vec<_>>(),
        );
    }

    #[test]
    fn episodes_to_within_counts_correctly() {
        let rec = TrainRecord {
            graph: "x".into(),
            rewards: vec![-3.0, -2.5, -1.05, -1.0],
            best_time: 1.0,
            best_episode: 3,
        };
        // target reward for tol 0.2: -sqrt(1.2) ≈ -1.095.
        assert_eq!(rec.episodes_to_within(0.2), Some(3));
    }

    #[test]
    fn a_run_without_a_feasible_sample_never_learns() {
        // Every replica needs far more than a 1 MiB device holds.
        let g = ModelSpec::new(BenchmarkModel::MobileNetV2, 64).build();
        let testbed = paper_testbed_8gpu();
        let tiny = testbed
            .devices()
            .iter()
            .map(|d| Device {
                memory_bytes: 1 << 20,
                ..*d
            })
            .collect();
        let c = Cluster::new(testbed.servers().to_vec(), tiny);
        let mut agent = RlAgent::new(tiny_cfg(3));
        let rec = agent.train(&[&g], &c, &GroundTruthCost).remove(0);
        assert_eq!(rec.best_time, f64::INFINITY);
        assert_eq!(rec.episodes_to_within(1e-9), None);
        assert_eq!(rec.episodes_to_within(0.05), None);
    }
}
