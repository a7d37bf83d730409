//! `heterog-cli` — plan, compare and inspect distributed training
//! deployments from the command line.
//!
//! ```text
//! heterog-cli plan    --model resnet200 --batch 192 [--cluster spec.json] [--planner heterog]
//! heterog-cli explain --model vgg19 --batch 192 [--html-out report.html] [--json-out report.json]
//! heterog-cli compare --model vgg19 --batch 192 [--cluster spec.json]
//! heterog-cli trace   --model bert --batch 48 --out trace.json
//! heterog-cli train   --model mobilenet --episodes 50 --seed 7
//! heterog-cli elastic --model vgg19 --iters 50 --seed 42 --policy migrate-replicas
//! heterog-cli models
//! heterog-cli cluster-template
//! ```
//!
//! Without `--cluster`, the paper's 8-GPU testbed is used. Argument
//! parsing is hand-rolled (no CLI-framework dependency) per the
//! workspace's minimal-deps policy.
//!
//! `plan`, `train` and `elastic` accept `--progress` (live status line
//! on stderr), `--events-out <file.jsonl>` (structured event stream with
//! a run-manifest header) and `--flight-out <file.json>` (crash flight
//! recorder, also dumped automatically when an elastic fault fires).
//! All three observe the run without changing its results: stdout bytes
//! are identical with or without them.
//!
//! Every `plan`/`explain`/`train`/`elastic` invocation that reaches a
//! terminal state is additionally archived under `.heterog/runs/`
//! (override with `--runs-dir` or `$HETEROG_RUNS_DIR`, opt out with
//! `--no-archive`). `heterog-cli runs` queries the store.

use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use heterog::events as ev;
use heterog::runs;
use heterog::{get_runner, HeterogConfig};
use heterog_cluster::{paper_testbed_8gpu, Cluster, ClusterSpec};
use heterog_graph::{BenchmarkModel, ModelSpec, MAX_BATCH, MAX_LAYERS};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let flags = parse_flags(&args[1..]);
    let result = check_flags(cmd, &flags).and_then(|()| match cmd.as_str() {
        "plan" => cmd_plan(&flags),
        "explain" => cmd_explain(&flags),
        "compare" => cmd_compare(&flags),
        "trace" => cmd_trace(&flags),
        "train" => cmd_train(&flags),
        "elastic" => cmd_elastic(&flags),
        "serve" => cmd_serve(&flags),
        "runs" => cmd_runs(&args[1..]),
        "models" => cmd_models(),
        "cluster-template" => {
            println!("{}", ClusterSpec::paper_8gpu().to_json());
            Ok(())
        }
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "heterog-cli — HeteroG deployment planner

USAGE:
  heterog-cli plan    --model <name> [--batch N] [--layers N] [--cluster spec.json] [--planner heterog|EV-PS|EV-AR|CP-PS|CP-AR|Horovod|FlexFlow|Post|HetPipe|Shard-CP|Shard-CP-PS] [--fifo] [--metrics-out <file.prom>] [--trace-out <file.json>]
  heterog-cli explain --model <name> [--batch N] [--layers N] [--cluster spec.json] [--planner <name>] [--top-k N] [--no-whatif] [--html-out <file.html>] [--json-out <file.json>] [--diff-against <file.json>]
  heterog-cli compare --model <name> [--batch N] [--layers N] [--cluster spec.json]
  heterog-cli trace   --model <name> [--batch N] [--layers N] [--cluster spec.json] --out <file.json>
  heterog-cli train   --model <name> [--batch N] [--layers N] [--cluster spec.json] [--episodes N] [--seed N] [--rollout-k N] [--groups N]
  heterog-cli elastic --model <name> [--batch N] [--cluster spec.json] [--planner <name>] [--iters N] [--policy full-replan|migrate-replicas|collective-fallback|compare] [--faults <script> | --seed N [--num-faults N]] [--json-out <file.json>]
  heterog-cli serve   [--addr HOST:PORT] [--workers N] [--max-pending N] [--tenants a,b,c] [--runs-dir <dir> | --no-archive]
  heterog-cli runs    list [--model <name>] [--planner <name>] [--fingerprint N] [--seed N]
  heterog-cli runs    show <id-prefix>
  heterog-cli runs    diff <before-id> <after-id>      nonzero exit on regression
  heterog-cli runs    timeline [--model <name>] [--planner <name>]
  heterog-cli runs    gc [--keep N]                    keep newest N per (model, planner)
  heterog-cli runs    dashboard --out <file.html>
  heterog-cli models                 list available benchmark models
  heterog-cli cluster-template       print a cluster-spec JSON template

OBSERVABILITY (plan):
  --metrics-out <file>  write all pipeline metrics in Prometheus text format
  --trace-out <file>    write the iteration timeline + host planning spans
                        as a Chrome/Perfetto trace

LIVE EVENTS (plan, train, elastic):
  --progress            live status line on stderr (~10 Hz): completion,
                        best-makespan sparkline, evals/s, ETA
  --events-out <file>   stream every pipeline event as one JSON line, after
                        a run-manifest header (model, cluster fingerprint,
                        seed, argv) with monotone sequence numbers
  --flight-out <file>   write the crash flight recorder (last events +
                        manifest + telemetry) here; elastic writes it
                        automatically when an injected fault applies
  None of these change results: stdout is byte-identical either way.

RUN ARCHIVE (plan, explain, train, elastic):
  Every invocation that reaches a terminal state is archived as
  .heterog/runs/<run-id>/ — the event stream (with manifest header),
  the plan's report digest, the terminal evaluation and a telemetry
  snapshot. Invocations that fail before planning leave nothing behind.
  --runs-dir <dir>      archive here instead (or set $HETEROG_RUNS_DIR)
  --no-archive          disable archiving for this invocation
  Query with `heterog-cli runs list|show|diff|timeline|gc|dashboard`;
  `runs diff` exits nonzero when the newer run regressed, so it can
  gate CI. Archiving writes only at exit and never touches stdout.

TRAIN:
  --episodes N          REINFORCE episodes (default 50)
  --seed N              sampling seed (default 0x5EED)
  --rollout-k N         candidate rollouts per episode (default 1)
  --groups N            operation groups (default 32)

EXPLAIN:
  --top-k N             keep the N best what-if interventions (default 5)
  --no-whatif           skip the what-if sensitivity loop
  --html-out <file>     self-contained HTML report with embedded timeline
  --json-out <file>     machine-readable report (diffable artifact)
  --diff-against <file> run-diff this plan against a previous --json-out

ELASTIC:
  --iters N             training iterations to simulate (default 50)
  --policy <name>       repair policy, or `compare` to sweep all three
  --faults <script>     explicit timeline, e.g. `10:fail:3,25:slow:0:0.5,
                        30:link:nicout:0.25,40:linkup:nicout,45:join:0:v100`
  --seed N              generate a deterministic timeline instead (default 42)
  --num-faults N        events in the generated timeline (default 3)
  --json-out <file>     write the canonical run report (byte-stable per seed)

SERVE:
  Runs the multi-tenant planning daemon: POST /v1/plan|explain|elastic,
  GET /v1/jobs/<id> and /v1/jobs/<id>/events (JSONL stream; 410 once a
  finished job is retired), /healthz, /metrics (Prometheus). Identical
  in-flight requests coalesce onto one job, tenants are scheduled
  deficit-round-robin (quantum 4) over a shared plan memo of 256
  plans, and past 8 pending jobs a `heterog` search (12 groups)
  degrades to the CP-AR heuristic (the response says so).
  --addr HOST:PORT      bind address (default 127.0.0.1:7807; port 0 = ephemeral)
  --workers N           planner worker threads (default 2)
  --max-pending N       admission-queue capacity; 429 past it (default 64).
                        Also the finished jobs kept for /v1/jobs/<id>
  --tenants a,b,c       tenant allowlist (default: accept any tenant)
  Completed jobs are archived into the run store (--runs-dir or
  $HETEROG_RUNS_DIR, default .heterog/runs; --no-archive disables), so
  `heterog-cli runs list` sees every served plan.";

fn parse_flags(args: &[String]) -> HashMap<String, String> {
    let mut map = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(key) = args[i].strip_prefix("--") {
            if i + 1 < args.len() && !args[i + 1].starts_with("--") {
                map.insert(key.to_string(), args[i + 1].clone());
                i += 2;
            } else {
                map.insert(key.to_string(), "true".to_string());
                i += 1;
            }
        } else {
            i += 1;
        }
    }
    map
}

/// Flags `parse_model` and `parse_cluster` read.
const MODEL_FLAGS: &str = "model batch layers cluster";
/// Flags `config_for` reads.
const CONFIG_FLAGS: &str = "planner fifo";
/// Flags `setup_events` and `runs_root` read.
const EVENT_FLAGS: &str = "progress events-out flight-out no-archive runs-dir";

/// Fails on the first flag, in name order, that `cmd` does not read, so
/// a typo or a retired flag is an error rather than silently ignored.
/// `runs` and the flagless commands are not checked.
fn check_flags(cmd: &str, flags: &HashMap<String, String>) -> Result<(), String> {
    let known = match cmd {
        "plan" => [
            MODEL_FLAGS,
            CONFIG_FLAGS,
            EVENT_FLAGS,
            "metrics-out trace-out",
        ]
        .join(" "),
        "explain" => [
            MODEL_FLAGS,
            CONFIG_FLAGS,
            EVENT_FLAGS,
            "top-k no-whatif html-out json-out diff-against",
        ]
        .join(" "),
        "compare" => MODEL_FLAGS.to_string(),
        "trace" => [MODEL_FLAGS, CONFIG_FLAGS, "out"].join(" "),
        "train" => [MODEL_FLAGS, EVENT_FLAGS, "episodes seed rollout-k groups"].join(" "),
        "elastic" => [
            MODEL_FLAGS,
            CONFIG_FLAGS,
            EVENT_FLAGS,
            "iters policy compare faults seed num-faults json-out",
        ]
        .join(" "),
        "serve" => "addr workers max-pending tenants runs-dir no-archive".to_string(),
        _ => return Ok(()),
    };
    let unknown = flags
        .keys()
        .filter(|key| !known.split_whitespace().any(|k| k == key.as_str()));
    match unknown.min() {
        Some(key) => Err(format!("unknown flag --{key} for {cmd}")),
        None => Ok(()),
    }
}

fn parse_model(flags: &HashMap<String, String>) -> Result<ModelSpec, String> {
    let name = flags
        .get("model")
        .ok_or("--model is required (see `heterog-cli models`)")?;
    // The shared parser: the serve API rejects an unknown model with the
    // same name list this error carries.
    let model =
        BenchmarkModel::parse(name).map_err(|e| format!("{e}; see `heterog-cli models`"))?;
    let batch = match flags.get("batch") {
        Some(b) => b.parse().map_err(|_| format!("bad --batch {b:?}"))?,
        None => model.default_batch_8gpu(),
    };
    if batch == 0 {
        return Err("--batch must be at least 1".into());
    }
    if batch > MAX_BATCH {
        return Err(format!("--batch must be at most {MAX_BATCH}"));
    }
    let layers = match flags.get("layers") {
        Some(l) => l.parse().map_err(|_| format!("bad --layers {l:?}"))?,
        None => model.default_layers(),
    };
    if layers > MAX_LAYERS {
        return Err(format!("--layers must be at most {MAX_LAYERS}"));
    }
    Ok(ModelSpec::with_layers(model, batch, layers))
}

fn parse_cluster(flags: &HashMap<String, String>) -> Result<Cluster, String> {
    match flags.get("cluster") {
        Some(path) => {
            let json =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            ClusterSpec::from_json(&json)
                .and_then(|s| s.build())
                .map_err(|e| e.to_string())
        }
        None => Ok(paper_testbed_8gpu()),
    }
}

use heterog::BASELINE_PLANNER_NAMES as BASELINE_PLANNERS;

fn config_for(flags: &HashMap<String, String>) -> Result<HeterogConfig, String> {
    let mut cfg = match flags.get("planner").map(String::as_str) {
        None | Some("heterog") | Some("HeteroG") => HeterogConfig::default(),
        Some(name) if BASELINE_PLANNERS.contains(&name) => HeterogConfig::baseline(name),
        Some(other) => {
            return Err(format!(
                "unknown planner {other:?} (valid: heterog, {})",
                BASELINE_PLANNERS.join(", ")
            ))
        }
    };
    if flags.contains_key("fifo") {
        cfg.order_scheduling = false;
    }
    Ok(cfg)
}

/// A run the CLI recorded: its log and manifest, and where its flight
/// recorder goes unless `--flight-out` names a file.
struct Recorded {
    log: Arc<ev::RunLog>,
    manifest: ev::RunManifest,
    flight_path: PathBuf,
}

/// Writes the flight recorder of the `recorded` run to `--flight-out`,
/// or else to the run's own flight path. Nothing was recorded, and
/// nothing is written, without a recorded run.
fn dump_flight(
    recorded: &Option<Recorded>,
    flags: &HashMap<String, String>,
    reason: &str,
) -> Result<(), String> {
    let Some(rec) = recorded else {
        return Ok(());
    };
    let path = flags
        .get("flight-out")
        .map_or_else(|| rec.flight_path.clone(), PathBuf::from);
    ev::dump_flight(&path, reason, &rec.log, &rec.manifest)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("flight recorder written to {}", path.display());
    Ok(())
}

/// The run-store root for this invocation: `--runs-dir` beats
/// `$HETEROG_RUNS_DIR` beats `.heterog/runs`.
fn runs_root(flags: &HashMap<String, String>) -> PathBuf {
    flags
        .get("runs-dir")
        .map(PathBuf::from)
        .unwrap_or_else(runs::default_location)
}

/// The manifest of a `command` run of `spec` on `cluster`.
fn run_manifest(
    command: &str,
    spec: &ModelSpec,
    cluster: &Cluster,
    planner: &str,
    seed: u64,
) -> ev::RunManifest {
    ev::RunManifest {
        command: command.to_string(),
        argv: std::env::args().collect(),
        model: spec.graph_name(),
        batch_size: spec.batch_size,
        cluster_fingerprint: cluster.fingerprint(),
        num_devices: cluster.num_devices() as u32,
        planner: planner.to_string(),
        seed,
        version: env!("CARGO_PKG_VERSION").to_string(),
        started_unix: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
        events_capacity: ev::DEFAULT_CAPACITY,
    }
}

/// Runs a command's `body` inside a run scope, as serve runs a job: its
/// events go to a run log whose sinks are the `--events-out` writer and
/// the `--progress` renderer, and the panic-time flight recorder is
/// installed over that log. By default `body` also gets the run's
/// archive handle; when it returns `Ok` (having called
/// [`runs::ArchiveHandle::mark_finished`]), the log is archived, so an
/// invocation that errors out leaves no run directory behind.
///
/// With `--no-archive` and none of the live-events flags, `body` runs
/// in no run scope (one relaxed atomic load per would-be event) and
/// nothing is recorded.
fn setup_events<T>(
    flags: &HashMap<String, String>,
    manifest: ev::RunManifest,
    body: impl FnOnce(Option<&mut runs::ArchiveHandle>) -> Result<T, String>,
) -> Result<(T, Option<Recorded>), String> {
    let want_archive = !flags.contains_key("no-archive");
    let live = ["progress", "events-out", "flight-out"];
    if !want_archive && !live.iter().any(|f| flags.contains_key(*f)) {
        return Ok((body(None)?, None));
    }
    let mut sinks: Vec<Box<dyn ev::EventSink + Send>> = Vec::new();
    if let Some(path) = flags.get("events-out") {
        let sink = ev::JsonlSink::create(Path::new(path), &manifest)
            .map_err(|e| format!("cannot create {path}: {e}"))?;
        sinks.push(Box::new(sink));
    }
    if flags.contains_key("progress") {
        sinks.push(Box::new(ev::ProgressRenderer::new()));
    }
    let mut archive =
        want_archive.then(|| runs::ArchiveHandle::new(runs_root(flags), manifest.clone()));
    // An archived run's flight dumps (panic hook included) land in its
    // directory, so a crash dump and its stream stay together.
    let flight_path = archive.as_ref().map_or_else(
        || ev::default_flight_path(Path::new(".")),
        runs::ArchiveHandle::flight_path,
    );
    let log = Arc::new(ev::RunLog::new(sinks));
    ev::install_panic_hook(Arc::clone(&log), manifest.clone(), flight_path.clone());
    // The sinks are flushed on a panic too: the panic hook keeps the
    // log alive, so nothing else would flush them.
    let result = panic::catch_unwind(AssertUnwindSafe(|| {
        ev::record(&log, || body(archive.as_mut()))
    }));
    log.finish();
    let result = result.unwrap_or_else(|payload| panic::resume_unwind(payload))?;
    if let Some(h) = &archive {
        match h.archive(&log) {
            Ok(dir) => eprintln!("run archived: {} -> {}", h.run_id(), dir.display()),
            Err(e) => eprintln!("run archive failed: {e}"),
        }
    }
    let recorded = Recorded {
        log,
        manifest,
        flight_path,
    };
    Ok((result, Some(recorded)))
}

fn cmd_plan(flags: &HashMap<String, String>) -> Result<(), String> {
    let started = Instant::now();
    let spec = parse_model(flags)?;
    let cluster = parse_cluster(flags)?;
    let cfg = config_for(flags)?;
    // Telemetry is recorded only when an output asks for it, so the
    // default path keeps the zero-overhead no-op recorder.
    if flags.contains_key("metrics-out") || flags.contains_key("trace-out") {
        heterog_telemetry::enable();
    }
    let planner_name = flags
        .get("planner")
        .map(String::as_str)
        .unwrap_or("heterog");
    let manifest = run_manifest("plan", &spec, &cluster, planner_name, 0);
    let (stats, recorded) = setup_events(flags, manifest, |archive| {
        eprintln!(
            "planning {} on {} GPUs ...",
            spec.label(),
            cluster.num_devices()
        );
        let runner = get_runner(|| spec.build(), cluster, cfg);
        let stats = runner.run(1);
        println!("model:             {}", spec.label());
        println!(
            "ops / tasks:       {} / {}",
            runner.graph.len(),
            runner.task_graph.len()
        );
        println!(
            "per-iteration:     {:.4} s{}",
            stats.per_iteration_s,
            if stats.oom { "  (OOM!)" } else { "" }
        );
        println!(
            "throughput:        {:.0} samples/s",
            stats.samples_per_second
        );
        let (mp, dp) = runner.strategy.histogram(&runner.cluster);
        let total = runner.graph.len() as f64;
        let mp_total: usize = mp.iter().sum();
        println!(
            "strategy mix:      {:.1}% MP, {:.1}% EV-PS, {:.1}% EV-AR, {:.1}% CP-PS, {:.1}% CP-AR, {:.1}% shard",
            100.0 * mp_total as f64 / total,
            100.0 * dp[0] as f64 / total,
            100.0 * dp[1] as f64 / total,
            100.0 * dp[2] as f64 / total,
            100.0 * dp[3] as f64 / total,
            100.0 * dp[5] as f64 / total,
        );
        for (g, &bytes) in stats.peak_memory.iter().enumerate() {
            println!(
                "  G{g} peak memory: {:.2} GiB",
                bytes as f64 / (1u64 << 30) as f64
            );
        }
        if let Some(path) = flags.get("metrics-out") {
            let snap = runner.telemetry_snapshot();
            std::fs::write(path, heterog_telemetry::prometheus_text(&snap))
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            println!(
                "metrics:           {} metrics -> {path}",
                snap.metric_count()
            );
        }
        if let Some(path) = flags.get("trace-out") {
            std::fs::write(path, runner.trace_json_with_spans())
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            println!("trace:             written to {path} (open in Perfetto)");
        }
        if let Some(h) = archive {
            let outcome = if stats.oom { "oom" } else { "ok" };
            h.set_digest(&heterog::explain::quick_digest(
                &spec.label(),
                &runner.report,
            ));
            h.set_evaluation(runs::StoredEvaluation {
                outcome: outcome.into(),
                makespan: stats.per_iteration_s,
                oom: stats.oom,
                samples_per_second: stats.samples_per_second,
                wall_s: started.elapsed().as_secs_f64(),
            });
            h.mark_finished(outcome, stats.per_iteration_s, stats.oom);
        }
        Ok(stats)
    })?;
    if flags.contains_key("flight-out") {
        dump_flight(&recorded, flags, "requested")?;
    }
    // A plan that overflows device memory would refuse to launch in a
    // real deployment; scripts relying on the exit code must see that.
    if stats.oom {
        return Err(format!(
            "plan overflows device memory (per-iteration {:.4} s); \
             try a smaller --batch or a different --planner",
            stats.per_iteration_s
        ));
    }
    Ok(())
}

fn cmd_explain(flags: &HashMap<String, String>) -> Result<(), String> {
    let started = Instant::now();
    let spec = parse_model(flags)?;
    let cluster = parse_cluster(flags)?;
    let cfg = config_for(flags)?;
    let mut opts = heterog::explain::ExplainOptions::default();
    if let Some(k) = flags.get("top-k") {
        opts.top_k = k.parse().map_err(|_| format!("bad --top-k {k:?}"))?;
    }
    if flags.contains_key("no-whatif") {
        opts.run_whatif = false;
    }
    let planner_name = flags
        .get("planner")
        .map(String::as_str)
        .unwrap_or("heterog");
    let manifest = run_manifest("explain", &spec, &cluster, planner_name, 0);
    setup_events(flags, manifest, |archive| {
        eprintln!(
            "planning {} on {} GPUs ...",
            spec.label(),
            cluster.num_devices()
        );
        let runner = get_runner(|| spec.build(), cluster, cfg);
        let report = runner.explain_with(&opts);
        print!("{}", heterog::explain::render_text(&report));
        if let Some(path) = flags.get("json-out") {
            std::fs::write(path, heterog::explain::to_json(&report))
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("json report written to {path}");
        }
        if let Some(path) = flags.get("html-out") {
            let html = heterog::explain::render_html(&report, &runner.trace_json());
            std::fs::write(path, html).map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("html report written to {path}");
        }
        if let Some(path) = flags.get("diff-against") {
            let json =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let before = heterog::explain::digest_from_json(&json)?;
            let d = heterog::explain::diff(&before, &report.digest());
            println!("\ndiff against {path}:");
            print!("{}", heterog::explain::render_diff_text(&d));
        }
        if let Some(h) = archive {
            // The quick digest every archived run stores, so that `runs diff`
            // compares an explain run with a plan run of the same deployment.
            let digest = heterog::explain::quick_digest(&spec.label(), &runner.report);
            let outcome = if digest.oom { "oom" } else { "ok" };
            h.set_evaluation(runs::StoredEvaluation {
                outcome: outcome.into(),
                makespan: digest.makespan,
                oom: digest.oom,
                samples_per_second: 0.0,
                wall_s: started.elapsed().as_secs_f64(),
            });
            h.mark_finished(outcome, digest.makespan, digest.oom);
            h.set_digest(&digest);
        }
        Ok(())
    })?;
    Ok(())
}

fn cmd_compare(flags: &HashMap<String, String>) -> Result<(), String> {
    let spec = parse_model(flags)?;
    println!(
        "{:<10}{:>14}{:>16}{:>8}",
        "planner", "s/iteration", "samples/s", "OOM"
    );
    for name in ["heterog", "EV-PS", "EV-AR", "CP-PS", "CP-AR", "HetPipe"] {
        let cluster = parse_cluster(flags)?;
        let cfg = if name == "heterog" {
            HeterogConfig::default()
        } else {
            HeterogConfig::baseline(name)
        };
        let runner = get_runner(|| spec.build(), cluster, cfg);
        let stats = runner.run(1);
        println!(
            "{name:<10}{:>14.4}{:>16.0}{:>8}",
            stats.per_iteration_s,
            stats.samples_per_second,
            if stats.oom { "yes" } else { "no" }
        );
    }
    Ok(())
}

fn cmd_trace(flags: &HashMap<String, String>) -> Result<(), String> {
    let spec = parse_model(flags)?;
    let cluster = parse_cluster(flags)?;
    let out = flags.get("out").ok_or("--out <file.json> is required")?;
    let runner = get_runner(|| spec.build(), cluster, config_for(flags)?);
    std::fs::write(out, runner.trace_json()).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!("one-iteration timeline written to {out} (open in chrome://tracing)");
    Ok(())
}

fn cmd_train(flags: &HashMap<String, String>) -> Result<(), String> {
    use heterog::agent::{RlAgent, TrainerConfig};
    use heterog::profile::GroundTruthCost;
    use heterog::strategies::evaluate;

    let started = Instant::now();
    let spec = parse_model(flags)?;
    let cluster = parse_cluster(flags)?;
    let mut cfg = TrainerConfig {
        episodes: 50,
        ..TrainerConfig::default()
    };
    if let Some(n) = flags.get("episodes") {
        cfg.episodes = n.parse().map_err(|_| format!("bad --episodes {n:?}"))?;
        if cfg.episodes == 0 {
            return Err("--episodes must be at least 1".into());
        }
    }
    if let Some(s) = flags.get("seed") {
        cfg.seed = s.parse().map_err(|_| format!("bad --seed {s:?}"))?;
    }
    if let Some(k) = flags.get("rollout-k") {
        cfg.rollout_k = k.parse().map_err(|_| format!("bad --rollout-k {k:?}"))?;
        if cfg.rollout_k == 0 {
            return Err("--rollout-k must be at least 1".into());
        }
    }
    if let Some(g) = flags.get("groups") {
        cfg.groups = g.parse().map_err(|_| format!("bad --groups {g:?}"))?;
        if cfg.groups == 0 {
            return Err("--groups must be at least 1".into());
        }
    }

    let manifest = run_manifest("train", &spec, &cluster, "learned", cfg.seed);
    let (eval, recorded) = setup_events(flags, manifest, |archive| {
        eprintln!(
            "training the policy for {} episodes on {} ({} GPUs) ...",
            cfg.episodes,
            spec.label(),
            cluster.num_devices()
        );
        let g = spec.build();
        let mut agent = RlAgent::new(cfg.clone());
        let recs = agent.train(&[&g], &cluster, &GroundTruthCost);
        let rec = recs.first().ok_or("trainer returned no record")?;

        let learned = agent.plan(&g, &cluster, &GroundTruthCost);
        let eval = evaluate(&g, &cluster, &GroundTruthCost, &learned);

        println!("model:             {}", spec.label());
        println!("episodes:          {}", rec.rewards.len());
        println!(
            "best sampled:      {:.4} s/iter (episode {})",
            rec.best_time,
            rec.best_episode + 1
        );
        println!("learned plan:      {:.4} s/iter", eval.iteration_time);
        println!(
            "episodes to best:  {}",
            rec.episodes_to_within(1e-9)
                .map_or("never".to_string(), |n| n.to_string())
        );
        if let Some(h) = archive {
            let outcome = if eval.oom { "oom" } else { "ok" };
            h.set_digest(&heterog::explain::quick_digest(&spec.label(), &eval.report));
            h.set_evaluation(runs::StoredEvaluation {
                outcome: outcome.into(),
                makespan: eval.iteration_time,
                oom: eval.oom,
                samples_per_second: if eval.iteration_time > 0.0 {
                    spec.batch_size as f64 / eval.iteration_time
                } else {
                    0.0
                },
                wall_s: started.elapsed().as_secs_f64(),
            });
            h.mark_finished(outcome, eval.iteration_time, eval.oom);
        }
        Ok(eval)
    })?;
    if flags.contains_key("flight-out") {
        dump_flight(&recorded, flags, "requested")?;
    }
    if eval.oom {
        return Err("learned plan overflows device memory".into());
    }
    Ok(())
}

fn cmd_elastic(flags: &HashMap<String, String>) -> Result<(), String> {
    use heterog::elastic::{render_policy_comparison, ElasticOptions, FaultScript, RepairPolicy};

    let started = Instant::now();
    let spec = parse_model(flags)?;
    let cluster = parse_cluster(flags)?;
    let cfg = config_for(flags)?;

    let mut opts = ElasticOptions::default();
    if let Some(n) = flags.get("iters") {
        opts.iterations = n.parse().map_err(|_| format!("bad --iters {n:?}"))?;
        if opts.iterations == 0 {
            return Err("--iters must be at least 1".into());
        }
    }

    // The timeline: explicit script, or deterministic generation.
    let seed = match flags.get("seed") {
        Some(s) => s.parse().map_err(|_| format!("bad --seed {s:?}"))?,
        None => 42,
    };
    let script = match flags.get("faults") {
        Some(s) => FaultScript::parse(s)?,
        None => {
            let n = match flags.get("num-faults") {
                Some(s) => s.parse().map_err(|_| format!("bad --num-faults {s:?}"))?,
                None => 3,
            };
            FaultScript::generate(seed, opts.iterations, n, &cluster)
        }
    };

    let planner_name = flags
        .get("planner")
        .map(String::as_str)
        .unwrap_or("heterog");
    let manifest = run_manifest("elastic", &spec, &cluster, planner_name, seed);
    let (flight_reason, recorded) = setup_events(flags, manifest, |archive| {
        eprintln!(
            "planning {} on {} GPUs ...",
            spec.label(),
            cluster.num_devices()
        );
        let runner = get_runner(|| spec.build(), cluster, cfg);

        let compare = matches!(flags.get("policy").map(String::as_str), Some("compare"))
            || flags.contains_key("compare");
        if compare {
            // Sweep every policy over the same timeline and diff digests.
            let mut reports = Vec::new();
            for p in RepairPolicy::ALL {
                opts.policy = p;
                eprintln!("running {} iterations under {} ...", opts.iterations, p);
                reports.push(runner.elastic_run(&script, &opts).report);
            }
            for r in &reports {
                println!("{}", r.summary());
            }
            println!();
            print!("{}", render_policy_comparison(&reports[0], &reports[1]));
            println!();
            print!("{}", render_policy_comparison(&reports[0], &reports[2]));
            if let Some(path) = flags.get("json-out") {
                // `compare` writes the first (full-replan) report.
                std::fs::write(path, reports[0].to_json())
                    .map_err(|e| format!("cannot write {path}: {e}"))?;
                eprintln!("json report written to {path}");
            }
            if let Some(h) = archive {
                // `compare` archives the first (full-replan) report too.
                let r = &reports[0];
                let outcome = if r.final_oom { "oom" } else { "ok" };
                h.set_digest(&r.digest);
                h.set_evaluation(runs::StoredEvaluation {
                    outcome: outcome.into(),
                    makespan: r.final_makespan,
                    oom: r.final_oom,
                    samples_per_second: 0.0,
                    wall_s: started.elapsed().as_secs_f64(),
                });
                h.mark_finished(outcome, r.final_makespan, r.final_oom);
            }
            return Ok(None);
        }

        if let Some(p) = flags.get("policy") {
            opts.policy = RepairPolicy::parse(p)?;
        }
        eprintln!(
            "running {} iterations under {} ...",
            opts.iterations, opts.policy
        );
        let outcome = runner.elastic_run(&script, &opts);
        print!("{}", outcome.report.render_text());
        println!("{}", outcome.report.summary());
        if let Some(path) = flags.get("json-out") {
            std::fs::write(path, outcome.report.to_json())
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("json report written to {path}");
        }
        if let Some(h) = archive {
            let r = &outcome.report;
            let verdict = if r.final_oom { "oom" } else { "ok" };
            h.set_digest(&r.digest);
            h.set_evaluation(runs::StoredEvaluation {
                outcome: verdict.into(),
                makespan: r.final_makespan,
                oom: r.final_oom,
                samples_per_second: 0.0,
                wall_s: started.elapsed().as_secs_f64(),
            });
            h.mark_finished(verdict, r.final_makespan, r.final_oom);
        }
        // Fault injection is the non-panic trigger for the flight
        // recorder: dump the last-N window whenever a scripted fault
        // actually applied (or unconditionally if a path was given).
        let fault_applied = outcome.report.faults.iter().any(|f| f.applied);
        Ok(if fault_applied {
            Some("fault-injected")
        } else {
            flags.contains_key("flight-out").then_some("requested")
        })
    })?;
    if let Some(reason) = flight_reason {
        dump_flight(&recorded, flags, reason)?;
    }
    Ok(())
}

fn cmd_serve(flags: &HashMap<String, String>) -> Result<(), String> {
    fn numeric<T: std::str::FromStr>(
        flags: &HashMap<String, String>,
        key: &str,
        into: &mut T,
    ) -> Result<(), String> {
        if let Some(v) = flags.get(key) {
            *into = v.parse().map_err(|_| format!("bad --{key} {v:?}"))?;
        }
        Ok(())
    }

    let mut cfg = heterog_serve::ServeConfig::default();
    if let Some(a) = flags.get("addr") {
        cfg.addr = a.clone();
    }
    numeric(flags, "workers", &mut cfg.workers)?;
    numeric(flags, "max-pending", &mut cfg.max_pending)?;
    if let Some(t) = flags.get("tenants") {
        let list: Vec<String> = t
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(str::to_string)
            .collect();
        if list.is_empty() {
            return Err("bad --tenants: the allowlist is empty".into());
        }
        cfg.tenants = Some(list);
    }
    if !flags.contains_key("no-archive") {
        cfg.archive_root = Some(runs_root(flags));
    }

    // A bind failure propagates as `cannot bind <addr>: ...`, which main
    // prints and turns into a nonzero exit.
    let kept = cfg.max_pending;
    let server = heterog_serve::Server::spawn(cfg)?;
    eprintln!("heterog-serve listening on http://{}", server.local_addr());
    eprintln!(
        "  POST /v1/plan /v1/explain /v1/elastic    GET /v1/jobs/<id>[/events] /healthz /metrics"
    );
    eprintln!("  /v1/jobs/<id> keeps the last {kept} finished jobs; older ids answer 410");
    // The daemon runs until the process is killed.
    loop {
        std::thread::park();
    }
}

/// The non-flag operands of an argv tail, skipping `--key value` pairs
/// with the same pairing rule as [`parse_flags`].
fn split_positional(args: &[String]) -> Vec<String> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i].starts_with("--") {
            if i + 1 < args.len() && !args[i + 1].starts_with("--") {
                i += 2;
            } else {
                i += 1;
            }
        } else {
            out.push(args[i].clone());
            i += 1;
        }
    }
    out
}

/// Loads every listed run in full, skipping unreadable directories.
fn load_all(store: &runs::RunStore) -> Vec<runs::StoredRun> {
    store
        .list()
        .into_iter()
        .filter_map(|r| store.load(&r.id).ok())
        .collect()
}

fn cmd_runs(args: &[String]) -> Result<(), String> {
    let Some(action) = args.first() else {
        return Err(
            "runs: an action is required (list, show, diff, timeline, gc, dashboard)".into(),
        );
    };
    let flags = parse_flags(&args[1..]);
    let positional = split_positional(&args[1..]);
    let store = runs::RunStore::open(runs_root(&flags));
    match action.as_str() {
        "list" => runs_list(&store, &flags),
        "show" => {
            let prefix = positional
                .first()
                .ok_or("runs show: a run id (or unique prefix) is required")?;
            runs_show(&store, prefix)
        }
        "diff" => {
            let [before, after] = positional.as_slice() else {
                return Err("runs diff: exactly two run ids are required".into());
            };
            runs_diff(&store, before, after)
        }
        "timeline" => runs_timeline(&store, &flags),
        "gc" => {
            let keep = match flags.get("keep") {
                Some(k) => k.parse().map_err(|_| format!("bad --keep {k:?}"))?,
                None => 10,
            };
            let removed = store.gc(keep).map_err(|e| format!("gc failed: {e}"))?;
            println!(
                "kept the newest {keep} run(s) per (model, planner); removed {}",
                removed.len()
            );
            for id in removed {
                println!("  removed {id}");
            }
            Ok(())
        }
        "dashboard" => {
            let out = flags
                .get("out")
                .ok_or("runs dashboard: --out <file.html> is required")?;
            let loaded = load_all(&store);
            std::fs::write(out, runs::render_dashboard(&loaded))
                .map_err(|e| format!("cannot write {out}: {e}"))?;
            eprintln!("dashboard over {} run(s) written to {out}", loaded.len());
            Ok(())
        }
        other => Err(format!(
            "unknown runs action {other:?} (valid: list, show, diff, timeline, gc, dashboard)"
        )),
    }
}

fn runs_list(store: &runs::RunStore, flags: &HashMap<String, String>) -> Result<(), String> {
    let mut rows = store.list();
    if let Some(m) = flags.get("model") {
        rows.retain(|r| &r.manifest.model == m);
    }
    if let Some(p) = flags.get("planner") {
        rows.retain(|r| &r.manifest.planner == p);
    }
    if let Some(f) = flags.get("fingerprint") {
        let f: u64 = f.parse().map_err(|_| format!("bad --fingerprint {f:?}"))?;
        rows.retain(|r| r.manifest.cluster_fingerprint == f);
    }
    if let Some(s) = flags.get("seed") {
        let s: u64 = s.parse().map_err(|_| format!("bad --seed {s:?}"))?;
        rows.retain(|r| r.manifest.seed == s);
    }
    println!(
        "{:<22}{:<9}{:<14}{:<12}{:>6}{:>12}{:>9}",
        "run", "command", "model", "planner", "batch", "s/iter", "outcome"
    );
    let n = rows.len();
    for r in rows {
        let (makespan, outcome) = match &r.evaluation {
            Some(e) => (format!("{:.4}", e.makespan), e.outcome.clone()),
            None => ("-".into(), "?".into()),
        };
        println!(
            "{:<22}{:<9}{:<14}{:<12}{:>6}{:>12}{:>9}",
            r.id,
            r.manifest.command,
            r.manifest.model,
            r.manifest.planner,
            r.manifest.batch_size,
            makespan,
            outcome
        );
    }
    eprintln!("{n} run(s) in {}", store.root().display());
    Ok(())
}

fn runs_show(store: &runs::RunStore, prefix: &str) -> Result<(), String> {
    let id = store.resolve(prefix)?;
    let run = store.load(&id)?;
    let m = run.manifest();
    println!("run {id}");
    println!("  command:      {} ({})", m.command, m.argv.join(" "));
    println!("  model:        {} (batch {})", m.model, m.batch_size);
    println!(
        "  cluster:      {} device(s), fingerprint {}",
        m.num_devices, m.cluster_fingerprint
    );
    println!("  planner:      {} (seed {})", m.planner, m.seed);
    println!("  started:      {} (unix)", m.started_unix);
    println!(
        "  stream:       {} event(s), {} missed, {} unknown{}",
        run.log.events.len(),
        run.log.missed,
        run.log.unknown,
        if run.log.truncated { ", truncated" } else { "" }
    );
    if run.has_flight {
        println!(
            "  flight:       {} (crash/fault dump)",
            run.dir.join(runs::FLIGHT_FILE).display()
        );
    }
    if let Some(e) = &run.evaluation {
        println!(
            "  outcome:      {} — {:.4} s/iter, {:.0} samples/s, {:.2} s wall",
            e.outcome, e.makespan, e.samples_per_second, e.wall_s
        );
    }
    if let Some(d) = &run.digest {
        println!(
            "  digest:       makespan {:.4} s{}",
            d.makespan,
            if d.oom { " (OOM)" } else { "" }
        );
        println!(
            "    compute {:.4}  collective {:.4}  transfer {:.4}  idle {:.4}",
            d.compute, d.collective, d.transfer, d.idle
        );
        println!(
            "    mean GPU utilization {:.1}% over {} device(s)",
            100.0 * d.mean_gpu_utilization,
            d.device_utilization.len()
        );
    }
    let progress = runs::search_progress(&run.log);
    if !progress.is_empty() {
        println!(
            "  search:       {} {:.4} -> {:.4} s ({} samples)",
            ev::sparkline(&progress, 40),
            progress.first().copied().unwrap_or(f64::NAN),
            progress.last().copied().unwrap_or(f64::NAN),
            progress.len()
        );
    }
    Ok(())
}

fn runs_diff(store: &runs::RunStore, before: &str, after: &str) -> Result<(), String> {
    let load_digest = |prefix: &str| -> Result<(String, heterog::explain::ReportDigest), String> {
        let id = store.resolve(prefix)?;
        let run = store.load(&id)?;
        let digest = run
            .digest
            .ok_or_else(|| format!("run {id} has no stored digest to diff"))?;
        Ok((id, digest))
    };
    let (before_id, b) = load_digest(before)?;
    let (after_id, a) = load_digest(after)?;
    let d = heterog::explain::diff(&b, &a);
    println!("diff {before_id} -> {after_id}:");
    print!("{}", heterog::explain::render_diff_text(&d));
    if !d.is_clean() {
        return Err(format!(
            "{} regression(s) between {before_id} and {after_id}",
            d.regressions.len()
        ));
    }
    Ok(())
}

fn runs_timeline(store: &runs::RunStore, flags: &HashMap<String, String>) -> Result<(), String> {
    let loaded = load_all(store);
    let mut printed = false;
    for ((model, planner), points) in runs::timelines(&loaded) {
        if flags.get("model").is_some_and(|m| *m != model) {
            continue;
        }
        if flags.get("planner").is_some_and(|p| *p != planner) {
            continue;
        }
        printed = true;
        println!("{model} / {planner}");
        println!(
            "  {:<22}{:>12}{:>12}{:>10}{:>8}{:>6}",
            "run", "started", "best s/it", "evals/s", "repair", "OOM"
        );
        for p in points {
            println!(
                "  {:<22}{:>12}{:>12}{:>10.1}{:>8}{:>6}",
                p.id,
                p.started_unix,
                if p.best_makespan.is_finite() {
                    format!("{:.4}", p.best_makespan)
                } else {
                    "-".into()
                },
                p.evals_per_sec,
                p.repair_evals,
                if p.oom { "yes" } else { "no" }
            );
        }
    }
    if !printed {
        println!("no matching runs in {}", store.root().display());
    }
    Ok(())
}

fn cmd_models() -> Result<(), String> {
    println!(
        "{:<16}{:>14}{:>12}{:>16}",
        "model", "params (M)", "ops", "default batch"
    );
    for m in BenchmarkModel::all() {
        let spec = ModelSpec::new(m, 32);
        let g = spec.build();
        println!(
            "{:<16}{:>14.1}{:>12}{:>16}",
            m.display_name(),
            g.total_param_bytes() as f64 / 4e6,
            g.len(),
            m.default_batch_8gpu()
        );
    }
    Ok(())
}
