//! Job execution: where a validated request meets the planner stack.
//!
//! The engine owns the cross-tenant sharing: a **plan memo** keyed on
//! (model spec, cluster fingerprint, *effective* planner, order policy).
//! An entry holds the chosen [`Strategy`], packed ([`PackedStrategy`]:
//! each distinct per-op decision once plus a `u32` index per op) and
//! unpacked on a hit, and its [`Evaluation`] (which, like every
//! evaluation, carries no per-task times).
//! Tenants asking for the same deployment skip the search and the
//! evaluation: a repeated plan is one memo lookup. Keys are compared
//! whole, so two specs never share an entry. The entry remembers which
//! tenant planted it, so a hit from a different tenant is counted as
//! *cross-tenant* — the measurable form of "similar clusters warm each
//! other". The memo holds `cache_shards × cache_contexts` entries and
//! evicts the least recently used one, so every cold cluster costs one
//! slot, not one more strategy for the life of the daemon.
//!
//! An explain, which walks the schedule, compiles the task graph once
//! and simulates it into its own report, task times included: on a
//! miss that simulation is the evaluation the memo keeps, and on a hit
//! it runs for the task times alone. The explain's what-if evaluator
//! anchors on that graph and report.
//! An elastic job plans and re-plans inside its fault script, so the
//! memo does not apply to it; it evaluates its final deployment afresh.
//!
//! **Degradation** is decided here, at execution time, from the queue
//! depth the worker observed when it dequeued the job: past the
//! threshold, a `heterog` search request runs the greedy
//! [`DEGRADED_PLANNER`] baseline instead. The response records both the
//! requested and the effective planner plus `degraded: true`; because
//! the memo keys on the *effective* planner, degraded results never
//! poison the full-search memo, and an explicitly requested baseline
//! shares its memo slot with the degraded path.
//!
//! Every job runs in its own run scope ([`heterog_events::record`]):
//! the events it emits, on its worker or on the pool threads its
//! searches fan out to, are appended to [`Job::events`] as they are
//! emitted, numbered from 0, and no other job's events land there. When
//! an archive root is configured a finished job archives that log with
//! [`ArchiveHandle::archive`], as the CLI does — service traffic lands
//! in the same `heterog-cli runs` history as local invocations.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use heterog::sim::SimReport;
use heterog_agent::HeteroGPlanner;
use heterog_cluster::Cluster;
use heterog_compile::{compile, PackedStrategy, Strategy};
use heterog_elastic::{ElasticOptions, FaultScript, RepairPolicy};
use heterog_events::{EventKind, RunManifest};
use heterog_graph::{Graph, ModelSpec};
use heterog_profile::GroundTruthCost;
use heterog_runs::{ArchiveHandle, StoredEvaluation};
use heterog_sched::OrderPolicy;
use heterog_strategies::{evaluate_compiled, evaluate_with_policy, Evaluation};
use heterog_telemetry::json::{ToJson, Value};
use heterog_telemetry::{json_object, lock};

use crate::jobs::{Job, JobKind, JobResult};

/// The heuristic baseline a degraded search falls back to: critical-path
/// placement with AllReduce aggregation — the strongest cheap baseline
/// in the paper's comparison set.
pub const DEGRADED_PLANNER: &str = "CP-AR";

static DEGRADED_TOTAL: heterog_telemetry::Counter = heterog_telemetry::Counter::new(
    "heterog_serve_degraded_total",
    "Jobs where load shedding downgraded the search planner to the heuristic baseline",
);
static MEMO_HITS: heterog_telemetry::Counter = heterog_telemetry::Counter::new(
    "heterog_serve_plan_memo_hits_total",
    "Jobs whose strategy came from the cross-tenant plan memo",
);
static MEMO_CROSS_TENANT: heterog_telemetry::Counter = heterog_telemetry::Counter::new(
    "heterog_serve_plan_memo_cross_tenant_hits_total",
    "Plan-memo hits on an entry first planted by a different tenant",
);
static JOBS_COMPLETED: heterog_telemetry::Counter = heterog_telemetry::Counter::new(
    "heterog_serve_jobs_completed_total",
    "Jobs that reached a terminal Done state",
);
static JOBS_FAILED: heterog_telemetry::Counter = heterog_telemetry::Counter::new(
    "heterog_serve_jobs_failed_total",
    "Jobs that reached a terminal Failed state",
);
static JOBS_ARCHIVED: heterog_telemetry::Counter = heterog_telemetry::Counter::new(
    "heterog_serve_jobs_archived_total",
    "Completed jobs archived into the run store",
);

/// Monotone engine counters, mirrored into telemetry but always on so
/// [`crate::server::ServeStats`] works without `heterog_telemetry::enable`.
#[derive(Debug, Default)]
pub struct EngineCounters {
    /// Jobs downgraded by load shedding.
    pub degraded: AtomicU64,
    /// Plan-memo hits.
    pub memo_hits: AtomicU64,
    /// Plan-memo misses (searches actually run).
    pub memo_misses: AtomicU64,
    /// Memo hits planted by a different tenant.
    pub cross_tenant_hits: AtomicU64,
    /// Jobs completed.
    pub completed: AtomicU64,
    /// Jobs failed.
    pub failed: AtomicU64,
    /// Jobs archived into the run store.
    pub archived: AtomicU64,
}

/// The memo key: everything that determines the *strategy*, nothing
/// that doesn't. Keyed on the effective planner, so degraded searches
/// share the baseline's slot and never poison the full-search entry.
#[derive(Clone, PartialEq, Eq, Hash)]
struct MemoKey {
    model: ModelSpec,
    cluster_fingerprint: u64,
    planner: String,
    fifo: bool,
}

impl MemoKey {
    fn new(job: &Job, effective: &str) -> MemoKey {
        MemoKey {
            model: job.spec.model,
            cluster_fingerprint: job.spec.cluster.fingerprint(),
            planner: effective.to_string(),
            fifo: job.spec.fifo,
        }
    }
}

struct MemoEntry {
    strategy: PackedStrategy,
    /// The strategy's evaluation (which carries no per-task times).
    eval: Evaluation,
    first_tenant: String,
    /// The memo's clock at the entry's last insert or hit.
    last_used: u64,
}

/// The plan memo: at most `capacity` plans, least recently used
/// evicted first.
struct Memo {
    entries: HashMap<MemoKey, MemoEntry>,
    capacity: usize,
    /// Ticks once per hit or insert; orders entries by recency.
    clock: u64,
}

impl Memo {
    /// The entry under `key`: its strategy, unpacked, its evaluation,
    /// and whether a tenant other than `tenant` planted it.
    fn get(&mut self, key: &MemoKey, tenant: &str) -> Option<(Strategy, Evaluation, bool)> {
        let e = self.entries.get_mut(key)?;
        self.clock += 1;
        e.last_used = self.clock;
        Some((
            e.strategy.unpack(),
            e.eval.clone(),
            e.first_tenant != tenant,
        ))
    }

    /// Plants `strategy`, packed, and `eval` under `key` unless an entry
    /// is already there (the first tenant keeps the credit). A full
    /// memo first drops its least recently used entry: a scan of at
    /// most `capacity` entries, paid only on a miss, next to a whole
    /// planner run.
    fn insert(&mut self, key: MemoKey, strategy: &Strategy, eval: &Evaluation, tenant: &str) {
        if self.entries.contains_key(&key) {
            return;
        }
        if self.entries.len() >= self.capacity {
            let lru = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone());
            if let Some(lru) = lru {
                self.entries.remove(&lru);
            }
        }
        self.clock += 1;
        let entry = MemoEntry {
            strategy: PackedStrategy::pack(strategy),
            eval: eval.clone(),
            first_tenant: tenant.to_string(),
            last_used: self.clock,
        };
        self.entries.insert(key, entry);
    }
}

/// The shared planning engine: plan memo + degradation policy.
pub struct Engine {
    memo: Mutex<Memo>,
    /// Queue depth at/past which `heterog` requests degrade (0 = never).
    pub degrade_depth: usize,
    /// Search width for `heterog` requests (candidate groups).
    pub search_groups: usize,
    /// Search passes for `heterog` requests.
    pub search_passes: usize,
    /// Run-store root; `None` disables archiving.
    pub archive_root: Option<PathBuf>,
    /// Always-on engine counters.
    pub counters: EngineCounters,
}

impl Engine {
    /// An engine whose plan memo holds `shards`×`contexts_per_shard`
    /// entries (each factor at least 1).
    pub fn new(
        shards: usize,
        contexts_per_shard: usize,
        degrade_depth: usize,
        search_groups: usize,
        search_passes: usize,
        archive_root: Option<PathBuf>,
    ) -> Self {
        let memo = Memo {
            entries: HashMap::new(),
            capacity: shards.max(1) * contexts_per_shard.max(1),
            clock: 0,
        };
        Engine {
            memo: Mutex::new(memo),
            degrade_depth,
            search_groups,
            search_passes,
            archive_root,
            counters: EngineCounters::default(),
        }
    }

    /// Executes `job` to a terminal state. `queue_depth` is the backlog
    /// observed at dequeue time — the degradation signal.
    pub fn execute(&self, job: &Job, queue_depth: usize) {
        job.set_running();
        // One run scope per job: its events, explain footer and archive
        // hold its own events and evaluations, also when it panics.
        let run = || heterog_events::record(&job.events, || self.run(job, queue_depth));
        match catch_unwind(AssertUnwindSafe(run)) {
            Ok(result) => {
                self.counters.completed.fetch_add(1, Ordering::Relaxed);
                JOBS_COMPLETED.inc();
                job.complete(Arc::new(result));
            }
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "planner panicked".to_string());
                self.counters.failed.fetch_add(1, Ordering::Relaxed);
                JOBS_FAILED.inc();
                job.fail(msg);
            }
        }
    }

    fn run(&self, job: &Job, queue_depth: usize) -> JobResult {
        let started = Instant::now();
        let spec = &job.spec;
        let g = spec.model.build();
        let cluster = &spec.cluster;
        let policy = if spec.fifo {
            OrderPolicy::Fifo
        } else {
            OrderPolicy::RankBased
        };

        let degraded = self.degrade_depth > 0
            && queue_depth >= self.degrade_depth
            && spec.planner == "heterog";
        let effective: &str = if degraded {
            self.counters.degraded.fetch_add(1, Ordering::Relaxed);
            DEGRADED_TOTAL.inc();
            DEGRADED_PLANNER
        } else {
            spec.planner.as_str()
        };

        heterog_events::emit_with(|| EventKind::RunStarted {
            phase: format!("serve-{}", spec.kind.name()),
            total_units: 0,
        });

        let result = match &spec.kind {
            JobKind::Plan => {
                let key = MemoKey::new(job, effective);
                let (strategy, eval, memo) = match self.recall(job, &key) {
                    Some((strategy, eval, cross_tenant)) => (strategy, eval, Some(cross_tenant)),
                    None => {
                        let strategy = self.plan(&g, cluster, effective);
                        let eval =
                            evaluate_with_policy(&g, cluster, &GroundTruthCost, &strategy, &policy);
                        lock(&self.memo).insert(key, &strategy, &eval, &job.tenant);
                        (strategy, eval, None)
                    }
                };
                let body = plan_body(spec, &g, cluster, effective, degraded, &strategy, &eval);
                Stage { body, eval, memo }
            }
            JobKind::Explain { top_k, whatif } => {
                let key = MemoKey::new(job, effective);
                // Explain walks task times, which no evaluation carries:
                // the compiled graph is simulated into its own report.
                let mut report = SimReport::default();
                let (strategy, task_graph, eval, memo) = match self.recall(job, &key) {
                    Some((strategy, eval, cross_tenant)) => {
                        let tg = compile(&g, cluster, &GroundTruthCost, &strategy);
                        let caps = cluster.memory_capacities();
                        report = heterog::sim::simulate(&tg, &caps, &policy);
                        (strategy, tg, eval, Some(cross_tenant))
                    }
                    None => {
                        let strategy = self.plan(&g, cluster, effective);
                        let _span = heterog_telemetry::span("evaluate");
                        let started = Instant::now();
                        let tg = compile(&g, cluster, &GroundTruthCost, &strategy);
                        let eval = evaluate_compiled(&tg, cluster, &policy, started, &mut report);
                        lock(&self.memo).insert(key, &strategy, &eval, &job.tenant);
                        (strategy, tg, eval, None)
                    }
                };
                let opts = heterog_explain::ExplainOptions {
                    top_k: *top_k,
                    run_whatif: *whatif,
                };
                let report = heterog_explain::explain(
                    &g,
                    cluster,
                    &strategy,
                    &task_graph,
                    &policy,
                    &report,
                    &opts,
                );
                let rest = [
                    ("makespan_s", eval.iteration_time.to_value()),
                    ("oom", eval.oom.to_value()),
                    ("report", report.to_value()),
                ];
                let body = result_body("explain", spec, effective, degraded, rest);
                Stage { body, eval, memo }
            }
            JobKind::Elastic {
                iterations,
                faults,
                seed,
                policy: repair,
            } => {
                // The elastic engine plans (and re-plans after faults)
                // internally, so the plan memo does not apply here.
                let planner = self.planner_for(effective);
                let script = FaultScript::generate(*seed, *iterations, *faults, cluster);
                let opts = ElasticOptions {
                    iterations: *iterations,
                    policy: RepairPolicy::parse(repair).expect("policy validated at admission"),
                    order: policy.clone(),
                };
                let outcome = heterog_elastic::elastic_run(
                    &g,
                    cluster,
                    &GroundTruthCost,
                    planner.as_ref(),
                    &script,
                    &opts,
                );
                let eval = evaluate_with_policy(
                    &g,
                    &outcome.cluster,
                    &GroundTruthCost,
                    &outcome.strategy,
                    &policy,
                );
                let rest = [
                    ("final_makespan_s", eval.iteration_time.to_value()),
                    ("final_oom", eval.oom.to_value()),
                    ("report", outcome.report.to_value()),
                ];
                let body = result_body("elastic", spec, effective, degraded, rest);
                Stage {
                    body,
                    eval,
                    memo: None,
                }
            }
        };

        let (makespan, oom) = (result.eval.iteration_time, result.eval.oom);
        let outcome_str = if oom { "oom" } else { "ok" };

        // Terminal signal + archive. mark_finished emits RunFinished into
        // the job's events, which the archive then writes.
        if let Some(mut handle) = self.archive_handle(job, cluster, effective) {
            handle.set_digest(&heterog_explain::quick_digest(
                &spec.model.label(),
                &result.eval.report,
            ));
            handle.set_evaluation(StoredEvaluation {
                outcome: outcome_str.to_string(),
                makespan,
                oom,
                samples_per_second: if makespan > 0.0 {
                    spec.model.batch_size as f64 / makespan
                } else {
                    0.0
                },
                wall_s: started.elapsed().as_secs_f64(),
            });
            handle.mark_finished(outcome_str, makespan, oom);
            match handle.archive(&job.events) {
                Ok(_) => {
                    self.counters.archived.fetch_add(1, Ordering::Relaxed);
                    JOBS_ARCHIVED.inc();
                }
                Err(e) => eprintln!("run archive failed: {e}"),
            }
        } else {
            heterog_events::emit(EventKind::RunFinished {
                outcome: outcome_str.to_string(),
                makespan,
                oom,
            });
        }

        JobResult {
            body: result.body,
            planner_used: effective.to_string(),
            degraded,
            memo_hit: result.memo.is_some(),
            cross_tenant: result.memo == Some(true),
            makespan,
            oom,
        }
    }

    /// [`Memo::get`] for `job`'s tenant, counting the hit or miss.
    fn recall(&self, job: &Job, key: &MemoKey) -> Option<(Strategy, Evaluation, bool)> {
        let Some((strategy, eval, cross)) = lock(&self.memo).get(key, &job.tenant) else {
            self.counters.memo_misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        self.counters.memo_hits.fetch_add(1, Ordering::Relaxed);
        MEMO_HITS.inc();
        if cross {
            self.counters
                .cross_tenant_hits
                .fetch_add(1, Ordering::Relaxed);
            MEMO_CROSS_TENANT.inc();
        }
        Some((strategy, eval, cross))
    }

    /// Runs the `effective` planner: a memo miss.
    fn plan(&self, g: &Graph, cluster: &Cluster, effective: &str) -> Strategy {
        self.planner_for(effective)
            .plan(g, cluster, &GroundTruthCost)
    }

    fn planner_for(&self, name: &str) -> Box<dyn heterog_strategies::Planner> {
        if name == "heterog" {
            Box::new(HeteroGPlanner {
                groups: self.search_groups,
                passes: self.search_passes,
                allow_mp: true,
            })
        } else {
            heterog::try_baseline_planner(name).expect("planner validated at admission")
        }
    }

    /// Plans currently memoized (at most shards × contexts per shard).
    pub fn memo_len(&self) -> usize {
        lock(&self.memo).entries.len()
    }

    fn archive_handle(
        &self,
        job: &Job,
        cluster: &Cluster,
        effective: &str,
    ) -> Option<ArchiveHandle> {
        let root = self.archive_root.as_ref()?;
        let seed = match &job.spec.kind {
            JobKind::Elastic { seed, .. } => *seed,
            _ => 0,
        };
        let manifest = RunManifest {
            command: format!("serve-{}", job.spec.kind.name()),
            argv: vec![
                "heterog-serve".to_string(),
                job.tenant.clone(),
                job.spec.model.label(),
                effective.to_string(),
            ],
            model: job.spec.model.graph_name(),
            batch_size: job.spec.model.batch_size,
            cluster_fingerprint: cluster.fingerprint(),
            num_devices: cluster.num_devices() as u32,
            planner: effective.to_string(),
            seed,
            version: env!("CARGO_PKG_VERSION").to_string(),
            started_unix: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0),
            events_capacity: heterog_events::DEFAULT_CAPACITY,
        };
        Some(ArchiveHandle::new(root, manifest))
    }
}

struct Stage {
    body: String,
    eval: Evaluation,
    /// `Some(cross_tenant)` on a memo hit.
    memo: Option<bool>,
}

/// A served result body, compact: `kind`, the request (`model`,
/// `batch`, `planner`), the planner that ran and whether it was a
/// degraded fallback, then the kind's own members `rest`.
fn result_body<'a>(
    kind: &str,
    spec: &crate::jobs::JobSpec,
    effective: &str,
    degraded: bool,
    rest: impl IntoIterator<Item = (&'a str, Value)>,
) -> String {
    let mut members = vec![
        ("kind", kind.to_value()),
        ("model", spec.model.label().to_value()),
        ("batch", spec.model.batch_size.to_value()),
        ("planner", spec.planner.to_value()),
        ("planner_used", effective.to_value()),
        ("degraded", degraded.to_value()),
    ];
    members.extend(rest);
    Value::object(members).to_string()
}

fn plan_body(
    spec: &crate::jobs::JobSpec,
    g: &Graph,
    cluster: &Cluster,
    effective: &str,
    degraded: bool,
    strategy: &Strategy,
    eval: &Evaluation,
) -> String {
    let (mp, dp) = strategy.histogram(cluster);
    let total = g.len().max(1) as f64;
    let mp_total: usize = mp.iter().sum();
    let samples_per_second = if eval.iteration_time > 0.0 {
        spec.model.batch_size as f64 / eval.iteration_time
    } else {
        0.0
    };
    let mix = json_object! {
        "mp_pct" => 100.0 * mp_total as f64 / total,
        "shard_pct" => 100.0 * dp[5] as f64 / total,
    };
    let rest = [
        ("cluster_fingerprint", cluster.fingerprint().to_value()),
        ("devices", cluster.num_devices().to_value()),
        ("makespan_s", eval.iteration_time.to_value()),
        ("samples_per_second", samples_per_second.to_value()),
        ("oom", eval.oom.to_value()),
        (
            "peak_memory_bytes",
            eval.report.memory.peak_bytes.to_value(),
        ),
        ("strategy_mix", mix),
    ];
    result_body("plan", spec, effective, degraded, rest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::{JobSpec, JobTable};
    use heterog_cluster::paper_testbed_8gpu;
    use heterog_graph::BenchmarkModel;
    use heterog_strategies::count_evaluations;

    use crate::jobs::JobState;

    /// Serves a CP-AR MobileNet-v2 plan at `batch`.
    fn plan(engine: &Engine, table: &JobTable, batch: u64) -> Arc<JobResult> {
        let spec = JobSpec {
            kind: JobKind::Plan,
            model: ModelSpec::new(BenchmarkModel::MobileNetV2, batch),
            cluster: paper_testbed_8gpu(),
            planner: "CP-AR".to_string(),
            fifo: false,
        };
        let (job, _) = table.create_or_attach("alice", spec);
        engine.execute(&job, 0);
        table.release(&job);
        job.wait().expect("a CP-AR plan succeeds")
    }

    #[test]
    fn memo_holds_the_cache_budget_and_evicts_the_least_recently_used() {
        let engine = Engine::new(1, 4, 0, 4, 1, None);
        let table = JobTable::new();
        let hit = |batch| plan(&engine, &table, batch).memo_hit;
        for batch in (8..=80).step_by(8) {
            assert!(!hit(batch), "batch {batch} is cold");
        }
        assert_eq!(engine.memo_len(), 4, "1 shard × 4 contexts");

        // The memo holds batches 56..=80, least recent first. A hit on
        // 56 makes 64 the least recent, so the next miss evicts 64.
        assert!(hit(56));
        assert!(!hit(88));
        assert_eq!(engine.memo_len(), 4);
        assert!(hit(56), "the refreshed spec survives");
        assert!(!hit(64), "the evicted spec misses again");
        assert_eq!(engine.memo_len(), 4);
    }

    #[test]
    fn a_memo_hit_serves_a_repeated_plan_without_evaluating() {
        let engine = Engine::new(1, 4, 0, 4, 1, None);
        let table = JobTable::new();
        let (first, cold) = count_evaluations(|| plan(&engine, &table, 64));
        let (second, warm) = count_evaluations(|| plan(&engine, &table, 64));
        assert!(!first.memo_hit && second.memo_hit);
        assert_eq!(cold.evaluations, 1, "a miss evaluates the planned strategy");
        assert_eq!(warm.evaluations, 0, "a hit is one memo lookup");
        assert_eq!(first.body, second.body);
    }

    /// A job that panics keeps the events it emitted before the panic:
    /// an elastic job whose policy admission would have rejected fails
    /// at `RepairPolicy::parse`, after its `run_started`.
    #[test]
    fn a_failed_job_keeps_its_events() {
        let engine = Engine::new(1, 4, 0, 4, 1, None);
        let table = JobTable::new();
        let spec = JobSpec {
            kind: JobKind::Elastic {
                iterations: 10,
                faults: 1,
                seed: 7,
                policy: "no-such-policy".to_string(),
            },
            model: ModelSpec::new(BenchmarkModel::MobileNetV2, 64),
            cluster: paper_testbed_8gpu(),
            planner: "CP-AR".to_string(),
            fifo: false,
        };
        let (job, _) = table.create_or_attach("alice", spec);
        engine.execute(&job, 0);
        assert!(matches!(job.state(), JobState::Failed(_)));
        let events = job.events.read(<[heterog_events::Event]>::to_vec);
        assert_eq!(events.len(), 1, "{events:?}");
        assert_eq!(events[0].seq, 0);
        assert!(matches!(events[0].kind, EventKind::RunStarted { .. }));
    }
}
