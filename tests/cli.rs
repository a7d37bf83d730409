//! End-to-end tests of the `heterog-cli` binary.

use std::process::Command;

use heterog::runs::{RunStore, EVENTS_FILE};
use heterog_telemetry::json;

/// The CLI, archiving into a per-process temporary run store rather than
/// `.heterog/runs` under the working directory (the source tree under
/// `cargo test`). Tests that check the store set their own
/// `HETEROG_RUNS_DIR`, which overrides this one.
fn cli() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_heterog-cli"));
    cmd.env(
        "HETEROG_RUNS_DIR",
        std::env::temp_dir().join(format!("heterog_cli_runs_{}", std::process::id())),
    );
    cmd
}

#[test]
fn unknown_model_error_lists_valid_names() {
    let out = cli()
        .args(["plan", "--model", "alexnet"])
        .output()
        .expect("run cli");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown model \"alexnet\""), "stderr: {err}");
    for name in ["vgg19", "resnet200", "mobilenet", "bert", "xlnet"] {
        assert!(err.contains(name), "missing {name} in: {err}");
    }
}

#[test]
fn elastic_runs_scripted_fault_and_writes_json() {
    let json_path = std::env::temp_dir().join(format!(
        "heterog_cli_elastic_test_{}.json",
        std::process::id()
    ));
    let out = cli()
        .args([
            "elastic",
            "--model",
            "mobilenet",
            "--planner",
            "CP-AR",
            "--iters",
            "20",
            "--faults",
            "5:fail:2,12:link:nicout:0.5",
            "--policy",
            "migrate-replicas",
            "--json-out",
            json_path.to_str().unwrap(),
        ])
        .output()
        .expect("run cli");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stdout: {stdout}\nstderr: {stderr}");
    assert!(
        stdout.contains("elastic[mobilenet_v2/migrate-replicas]"),
        "missing summary line in: {stdout}"
    );
    assert!(stdout.contains("fail:2"), "missing fault marker: {stdout}");
    let json = std::fs::read_to_string(&json_path).expect("json artifact");
    std::fs::remove_file(&json_path).ok();
    assert!(json.contains("\"policy\": \"migrate-replicas\""));
    assert!(json.contains("\"final_devices\": 7"));
}

#[test]
fn unknown_planner_exits_nonzero_and_lists_valid_names() {
    let out = cli()
        .args(["plan", "--model", "mobilenet", "--planner", "sgd"])
        .output()
        .expect("run cli");
    assert!(!out.status.success(), "unknown planner must fail");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown planner \"sgd\""), "stderr: {err}");
    for name in ["heterog", "EV-PS", "CP-AR", "HetPipe"] {
        assert!(err.contains(name), "missing {name} in: {err}");
    }
}

#[test]
fn plan_that_overflows_memory_exits_nonzero() {
    // A batch this size cannot fit any placement on the 8-GPU testbed;
    // the CLI must still print the report but exit nonzero so scripts
    // notice the undeployable plan.
    let out = cli()
        .args(["plan", "--model", "mobilenet", "--batch", "65536"])
        .output()
        .expect("run cli");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "OOM plan must exit nonzero");
    assert!(stdout.contains("(OOM!)"), "stdout: {stdout}");
    assert!(
        stderr.contains("overflows device memory"),
        "stderr: {stderr}"
    );
}

#[test]
fn progress_and_events_do_not_change_plan_stdout() {
    let events_path = std::env::temp_dir().join(format!(
        "heterog_cli_events_identity_{}.jsonl",
        std::process::id()
    ));
    let plain = cli()
        .args(["plan", "--model", "mobilenet"])
        .output()
        .expect("run cli");
    let observed = cli()
        .args([
            "plan",
            "--model",
            "mobilenet",
            "--progress",
            "--events-out",
            events_path.to_str().unwrap(),
        ])
        .output()
        .expect("run cli");
    assert!(plain.status.success());
    assert!(observed.status.success());
    // The tentpole invariant: observing a run never changes its result.
    assert_eq!(
        plain.stdout, observed.stdout,
        "stdout must be byte-identical with and without live events"
    );

    // The stream itself: manifest header first, then every event of the
    // run, its `seq`s exactly 0..n (nothing dropped), every line valid
    // JSON.
    let stream = std::fs::read_to_string(&events_path).expect("events file");
    std::fs::remove_file(&events_path).ok();
    let mut lines = stream.lines();
    let header = json::parse(lines.next().expect("manifest line")).expect("manifest is JSON");
    assert_eq!(header["type"].as_str(), Some("manifest"));
    assert_eq!(header["command"].as_str(), Some("plan"));
    assert_eq!(header["model"].as_str(), Some("mobilenet_v2"));
    assert!(header["cluster_fingerprint"].as_u64().is_some());
    assert!(header["argv"].as_array().is_some());
    let seqs: Vec<u64> = lines
        .map(|line| {
            let v = json::parse(line).expect("event line is JSON");
            v["seq"].as_u64().expect("event has seq")
        })
        .collect();
    assert_eq!(seqs, (0..seqs.len() as u64).collect::<Vec<u64>>());
    assert!(
        seqs.len() > 10,
        "a plan search should stream many events, got {}",
        seqs.len()
    );
}

/// A default (archiving) run with `--events-out` archives the stream it
/// wrote: the archived `events.jsonl` equals the `--events-out` file
/// line for line.
#[test]
fn archived_events_equal_the_events_out_stream() {
    let store = std::env::temp_dir().join(format!("heterog_cli_evstore_{}", std::process::id()));
    std::fs::remove_dir_all(&store).ok();
    let events_path = store.with_extension("jsonl");
    let out = cli()
        .args([
            "plan",
            "--model",
            "mobilenet",
            "--batch",
            "64",
            "--events-out",
        ])
        .arg(&events_path)
        .env("HETEROG_RUNS_DIR", &store)
        .output()
        .expect("run cli");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let id = archived_id(&out.stderr);
    let streamed = std::fs::read_to_string(&events_path).expect("events file");
    let archived = std::fs::read_to_string(store.join(&id).join(EVENTS_FILE)).expect("archive");
    std::fs::remove_file(&events_path).ok();
    std::fs::remove_dir_all(&store).ok();
    assert!(streamed.lines().count() > 10, "stream: {streamed}");
    assert!(
        streamed.lines().eq(archived.lines()),
        "archived {EVENTS_FILE} differs from the --events-out stream"
    );
}

/// On two threads the search's `evaluate_bounded` spans run on both the
/// caller and the pool worker, and each keeps its `fast_plan` parent.
#[test]
fn traced_two_thread_plan_keeps_span_parents() {
    let trace_path =
        std::env::temp_dir().join(format!("heterog_cli_trace_{}.json", std::process::id()));
    let out = cli()
        .env("RAYON_NUM_THREADS", "2")
        .args([
            "plan",
            "--model",
            "mobilenet",
            "--no-archive",
            "--trace-out",
            trace_path.to_str().unwrap(),
        ])
        .output()
        .expect("run cli");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stderr: {stderr}");
    let text = std::fs::read_to_string(&trace_path).expect("trace file");
    std::fs::remove_file(&trace_path).ok();
    let trace = json::parse(&text).expect("the trace is JSON");
    let events = trace.as_array().expect("a trace event array");
    for pid in [0, 1] {
        assert!(
            events.iter().any(|e| e["pid"].as_u64() == Some(pid)),
            "no events in lane {pid}"
        );
    }
    let evals: Vec<&json::Value> = events
        .iter()
        .filter(|e| e["ph"].as_str() == Some("X"))
        .filter(|e| {
            let leaf = e["name"].as_str().and_then(|n| n.rsplit('/').next());
            leaf == Some("evaluate_bounded")
        })
        .collect();
    assert!(!evals.is_empty(), "no evaluate_bounded spans");
    for e in &evals {
        let name = e["name"].as_str().unwrap();
        assert!(
            name.contains("/fast_plan/"),
            "span without its parent: {name}"
        );
    }
    let mut tids: Vec<u64> = evals.iter().filter_map(|e| e["tid"].as_u64()).collect();
    tids.sort_unstable();
    tids.dedup();
    assert!(
        tids.len() >= 2,
        "evaluate_bounded ran on threads {tids:?} only"
    );
}

#[test]
fn elastic_fault_writes_flight_recorder() {
    let dir = std::env::temp_dir();
    let flight_path = dir.join(format!("heterog_cli_flight_{}.json", std::process::id()));
    let out = cli()
        .args([
            "elastic",
            "--model",
            "mobilenet",
            "--iters",
            "15",
            "--faults",
            "5:fail:2",
            "--policy",
            "migrate-replicas",
            "--events-out",
            dir.join(format!("heterog_cli_flight_{}.jsonl", std::process::id()))
                .to_str()
                .unwrap(),
            "--flight-out",
            flight_path.to_str().unwrap(),
        ])
        .output()
        .expect("run cli");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stderr: {stderr}");
    let flight = std::fs::read_to_string(&flight_path).expect("flight artifact");
    let events_path = dir.join(format!("heterog_cli_flight_{}.jsonl", std::process::id()));
    let stream = std::fs::read_to_string(&events_path).expect("events file");
    std::fs::remove_file(&flight_path).ok();
    std::fs::remove_file(&events_path).ok();
    let doc = json::parse(&flight).expect("flight is JSON");
    assert_eq!(doc["reason"].as_str(), Some("fault-injected"));
    assert_eq!(doc["manifest"]["command"].as_str(), Some("elastic"));
    assert_eq!(doc["dropped_events"].as_u64(), Some(0));
    assert!(doc["window_len"].as_u64().unwrap() > 0);
    let events = doc["events"].as_array().expect("events window");
    assert!(
        events.iter().any(|e| e["type"].as_str() == Some("fault")),
        "flight window must contain the injected fault"
    );
    // The window is the whole run: the streamed events, minus `ts`.
    let untimed = |e: &json::Value| match e {
        json::Value::Object(members) => {
            let mut members = members.clone();
            members.retain(|(k, _)| k != "ts");
            members
        }
        other => panic!("an event is an object: {other:?}"),
    };
    let streamed: Vec<_> = stream
        .lines()
        .skip(1)
        .map(|l| untimed(&json::parse(l).expect("event line is JSON")))
        .collect();
    assert_eq!(events.iter().map(untimed).collect::<Vec<_>>(), streamed);
}

/// With `--no-archive` and no events flags nothing records: a fault
/// that would dump the flight recorder writes no file and no run.
#[test]
fn unrecorded_invocation_writes_no_flight_or_run() {
    let cwd = std::env::temp_dir().join(format!("heterog_cli_unrecorded_{}", std::process::id()));
    std::fs::remove_dir_all(&cwd).ok();
    std::fs::create_dir_all(&cwd).unwrap();
    let out = cli()
        .args([
            "elastic",
            "--model",
            "mobilenet",
            "--iters",
            "15",
            "--faults",
            "5:fail:2",
            "--no-archive",
        ])
        .current_dir(&cwd)
        .env("HETEROG_RUNS_DIR", cwd.join("runs"))
        .output()
        .expect("run cli");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stderr: {stderr}");
    let left: Vec<_> = std::fs::read_dir(&cwd)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    std::fs::remove_dir_all(&cwd).ok();
    assert!(left.is_empty(), "an unrecorded run left {left:?}");
    assert!(!stderr.contains("flight recorder"), "stderr: {stderr}");
}

#[test]
fn train_smoke_runs_and_streams_episodes() {
    let events_path = std::env::temp_dir().join(format!(
        "heterog_cli_train_events_{}.jsonl",
        std::process::id()
    ));
    let out = cli()
        .args([
            "train",
            "--model",
            "mobilenet",
            "--episodes",
            "3",
            "--groups",
            "4",
            "--seed",
            "7",
            "--events-out",
            events_path.to_str().unwrap(),
        ])
        .output()
        .expect("run cli");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stdout: {stdout}\nstderr: {stderr}");
    assert!(stdout.contains("best sampled:"), "stdout: {stdout}");
    let stream = std::fs::read_to_string(&events_path).expect("events file");
    std::fs::remove_file(&events_path).ok();
    let episodes = stream
        .lines()
        .filter(|l| l.contains("\"type\":\"rl_episode\""))
        .count();
    assert_eq!(episodes, 3, "one rl_episode event per episode:\n{stream}");
}

/// The run id from a `run archived: <id> -> <dir>` stderr notice.
fn archived_id(stderr: &[u8]) -> String {
    let text = String::from_utf8_lossy(stderr);
    let line = text
        .lines()
        .find(|l| l.starts_with("run archived: "))
        .unwrap_or_else(|| panic!("no archive notice in stderr:\n{text}"));
    line["run archived: ".len()..]
        .split_whitespace()
        .next()
        .expect("notice carries an id")
        .to_string()
}

#[test]
fn failed_invocation_leaves_no_run_directory() {
    let store = std::env::temp_dir().join(format!("heterog_cli_norun_{}", std::process::id()));
    std::fs::remove_dir_all(&store).ok();
    let cases: [&[&str]; 2] = [
        &["plan", "--model", "alexnet"],
        &["plan", "--model", "mobilenet", "--planner", "sgd"],
    ];
    for bad_args in cases {
        let out = cli()
            .args(bad_args)
            .env("HETEROG_RUNS_DIR", &store)
            .output()
            .expect("run cli");
        assert!(!out.status.success());
    }
    // Neither failure may leave a run directory (or even the store root).
    assert!(
        !store.exists() || std::fs::read_dir(&store).unwrap().next().is_none(),
        "failed invocations must not archive"
    );
    std::fs::remove_dir_all(&store).ok();
}

/// Every command archives the same quick digest, so a plan run and an
/// explain run of one deployment diff clean.
#[test]
fn plan_and_explain_archives_of_one_deployment_diff_clean() {
    let store = std::env::temp_dir().join(format!("heterog_cli_pe_store_{}", std::process::id()));
    std::fs::remove_dir_all(&store).ok();
    let archive = |command: &str, extra: &[&str]| {
        let out = cli()
            .args([command, "--model", "mobilenet", "--batch", "64"])
            .args(extra)
            .env("HETEROG_RUNS_DIR", &store)
            .output()
            .expect("run cli");
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        archived_id(&out.stderr)
    };
    let plan = archive("plan", &[]);
    let explain = archive("explain", &["--no-whatif"]);
    let out = cli()
        .args(["runs", "diff", &plan, &explain])
        .env("HETEROG_RUNS_DIR", &store)
        .output()
        .expect("run cli");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "plan vs explain diff: {stdout}");
    assert!(stdout.contains("zero regressions"), "diff: {stdout}");
    std::fs::remove_dir_all(&store).ok();
}

#[test]
fn runs_store_archives_lists_diffs_and_gcs() {
    let store = std::env::temp_dir().join(format!("heterog_cli_store_{}", std::process::id()));
    std::fs::remove_dir_all(&store).ok();
    let plan = |batch: &str, extra: &[&str]| {
        let out = cli()
            .args(["plan", "--model", "mobilenet", "--batch", batch])
            .args(extra)
            .env("HETEROG_RUNS_DIR", &store)
            .output()
            .expect("run cli");
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        out
    };
    let archived = plan("64", &[]);
    let baseline = archived_id(&archived.stderr);
    let bigger = archived_id(&plan("256", &[]).stderr);

    // Archiving observes the run without changing what it prints.
    assert_eq!(
        String::from_utf8_lossy(&plan("64", &["--no-archive"]).stdout),
        String::from_utf8_lossy(&archived.stdout)
    );

    // The stored stream, loaded back and re-serialized, is the file
    // byte for byte.
    let run = RunStore::open(&store).load(&baseline).expect("load run");
    assert_eq!(run.log.missed, 0, "an archived run drops no events");
    let mut rebuilt = run.manifest().to_json() + "\n";
    for e in &run.log.events {
        rebuilt.push_str(&(e.to_json_line() + "\n"));
    }
    let on_disk = std::fs::read_to_string(run.dir.join(EVENTS_FILE)).expect("events file");
    assert!(rebuilt == on_disk, "re-serialized {EVENTS_FILE} differs");

    // list sees both runs.
    let out = cli()
        .args(["runs", "list"])
        .env("HETEROG_RUNS_DIR", &store)
        .output()
        .expect("run cli");
    assert!(out.status.success());
    let listing = String::from_utf8_lossy(&out.stdout);
    assert!(listing.contains(&baseline), "listing: {listing}");
    assert!(listing.contains(&bigger), "listing: {listing}");
    assert!(listing.contains("mobilenet_v2"), "listing: {listing}");

    // show renders the stored run (digest + search sparkline included).
    let out = cli()
        .args(["runs", "show", &baseline])
        .env("HETEROG_RUNS_DIR", &store)
        .output()
        .expect("run cli");
    assert!(out.status.success());
    let shown = String::from_utf8_lossy(&out.stdout);
    assert!(shown.contains("digest:"), "show: {shown}");
    assert!(shown.contains("search:"), "show: {shown}");

    // Self-diff is clean and exits zero.
    let out = cli()
        .args(["runs", "diff", &baseline, &baseline])
        .env("HETEROG_RUNS_DIR", &store)
        .output()
        .expect("run cli");
    assert!(out.status.success(), "self-diff must be clean");
    assert!(String::from_utf8_lossy(&out.stdout).contains("zero regressions"));

    // Quadrupling the batch regresses the per-iteration makespan; the
    // diff must say so AND exit nonzero so it can gate CI.
    let out = cli()
        .args(["runs", "diff", &baseline, &bigger])
        .env("HETEROG_RUNS_DIR", &store)
        .output()
        .expect("run cli");
    assert!(!out.status.success(), "regressed diff must exit nonzero");
    assert!(String::from_utf8_lossy(&out.stdout).contains("makespan"));

    // gc --keep 1: both runs share (model, planner), the older goes.
    let out = cli()
        .args(["runs", "gc", "--keep", "1"])
        .env("HETEROG_RUNS_DIR", &store)
        .output()
        .expect("run cli");
    assert!(out.status.success());
    let left: Vec<_> = std::fs::read_dir(&store)
        .expect("store root")
        .flatten()
        .filter(|e| !e.file_name().to_string_lossy().starts_with('.'))
        .collect();
    assert_eq!(left.len(), 1, "gc --keep 1 must leave one run");
    std::fs::remove_dir_all(&store).ok();
}

#[test]
fn elastic_fault_flight_lands_in_run_directory() {
    let store = std::env::temp_dir().join(format!("heterog_cli_flightdir_{}", std::process::id()));
    std::fs::remove_dir_all(&store).ok();
    // No --flight-out: the automatic fault dump must land inside the
    // archived run directory instead of littering the CWD.
    let out = cli()
        .args([
            "elastic",
            "--model",
            "mobilenet",
            "--iters",
            "15",
            "--faults",
            "5:fail:2",
            "--policy",
            "migrate-replicas",
        ])
        .env("HETEROG_RUNS_DIR", &store)
        .output()
        .expect("run cli");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let id = archived_id(&out.stderr);
    let flight = store.join(&id).join("flight.json");
    assert!(flight.exists(), "fault dump must land in the run dir");
    let doc = json::parse(&std::fs::read_to_string(&flight).unwrap()).expect("flight is JSON");
    assert_eq!(doc["reason"].as_str(), Some("fault-injected"));
    std::fs::remove_dir_all(&store).ok();
}

#[test]
fn elastic_rejects_bad_policy_and_bad_script() {
    let out = cli()
        .args(["elastic", "--model", "mobilenet", "--policy", "reboot"])
        .output()
        .expect("run cli");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown repair policy"));

    let out = cli()
        .args(["elastic", "--model", "mobilenet", "--faults", "nonsense"])
        .output()
        .expect("run cli");
    assert!(!out.status.success());
}

/// An unread flag, or a batch or layer count out of range, exits
/// nonzero with a named error, before any planning or archiving.
#[test]
fn unknown_flags_exit_nonzero_and_name_the_flag() {
    let store = std::env::temp_dir().join(format!("heterog_cli_badflag_{}", std::process::id()));
    std::fs::remove_dir_all(&store).ok();
    let above_max_batch = (heterog_graph::MAX_BATCH + 1).to_string();
    let u64_max = u64::MAX.to_string();
    let max_batch_message = format!("--batch must be at most {}", heterog_graph::MAX_BATCH);
    let cases: [(&[&str], &str); 7] = [
        (
            &["explain", "--model", "mobilenet", "--no-incremental"],
            "unknown flag --no-incremental for explain",
        ),
        (
            &["plan", "--model", "mobilenet", "--no-whatif"],
            "unknown flag --no-whatif for plan",
        ),
        (
            &["plan", "--model", "mobilenet", "--batch", "0"],
            "--batch must be at least 1",
        ),
        (
            &["explain", "--model", "mobilenet", "--batch", "0"],
            "--batch must be at least 1",
        ),
        (
            &["plan", "--model", "transformer", "--layers", "257"],
            "--layers must be at most 256",
        ),
        (
            &["plan", "--model", "mobilenet", "--batch", &above_max_batch],
            &max_batch_message,
        ),
        (
            &["explain", "--model", "mobilenet", "--batch", &u64_max],
            &max_batch_message,
        ),
    ];
    for (args, message) in cases {
        let out = cli()
            .args(args)
            .env("HETEROG_RUNS_DIR", &store)
            .output()
            .expect("run cli");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(err.contains(message), "stderr: {err}");
        assert!(!err.contains("planning"), "rejected before planning: {err}");
    }
    assert!(
        !store.exists() || std::fs::read_dir(&store).unwrap().next().is_none(),
        "a rejected flag must not archive"
    );
    std::fs::remove_dir_all(&store).ok();
}
