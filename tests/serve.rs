//! End-to-end tests of the `heterog-serve` daemon over a real socket.
//!
//! Every test spawns its own daemon on an ephemeral port and talks to
//! it through `heterog_serve::client`, so the full path — TCP accept,
//! HTTP parse, validation, admission, deficit-round-robin dispatch,
//! planning, response bytes — is exercised, not a mocked router.

use std::collections::HashSet;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};

use heterog_serve::{client, ServeConfig, Server};

/// Spawns a daemon on an ephemeral port with the given config.
fn spawn(mut cfg: ServeConfig) -> (Server, SocketAddr) {
    cfg.addr = "127.0.0.1:0".to_string();
    cfg.archive_root = None;
    let server = Server::spawn(cfg).expect("daemon must bind an ephemeral port");
    let addr = server.local_addr();
    (server, addr)
}

/// A quick config: cheap heuristic searches, two workers.
fn quick_cfg() -> ServeConfig {
    ServeConfig {
        workers: 2,
        search_groups: 4,
        ..ServeConfig::default()
    }
}

#[test]
fn healthz_and_unknown_routes() {
    let (server, addr) = spawn(quick_cfg());
    let ok = client::get(addr, "/healthz").unwrap();
    assert_eq!(ok.status, 200);
    assert_eq!(ok.text(), "{\"status\":\"ok\"}");

    let missing = client::get(addr, "/v1/nope").unwrap();
    assert_eq!(missing.status, 404);

    let wrong_method = client::get(addr, "/v1/plan").unwrap();
    assert_eq!(wrong_method.status, 405);

    let unknown_job = client::get(addr, "/v1/jobs/job-999999").unwrap();
    assert_eq!(unknown_job.status, 404);
    assert!(unknown_job.text().contains("unknown job"));
    server.shutdown();
}

#[test]
fn rejects_unknown_model_tenant_and_planner() {
    let cfg = ServeConfig {
        tenants: Some(vec!["alice".into(), "bob".into()]),
        ..quick_cfg()
    };
    let (server, addr) = spawn(cfg);

    let r = client::post_json(addr, "/v1/plan", r#"{"tenant":"alice","model":"alexnet"}"#).unwrap();
    assert_eq!(r.status, 400);
    assert!(r.text().contains("unknown model"), "{}", r.text());
    assert!(
        r.text().contains("mobilenet"),
        "list the valid names: {}",
        r.text()
    );

    let r = client::post_json(addr, "/v1/plan", r#"{"tenant":"mallory","model":"vgg19"}"#).unwrap();
    assert_eq!(r.status, 403);
    assert!(r.text().contains("alice, bob"), "{}", r.text());

    let r = client::post_json(
        addr,
        "/v1/plan",
        r#"{"tenant":"alice","model":"vgg19","planner":"oracle"}"#,
    )
    .unwrap();
    assert_eq!(r.status, 400);
    assert!(r.text().contains("unknown planner"), "{}", r.text());
    server.shutdown();
}

#[test]
fn rejects_bad_nic_speed_and_oversized_layers() {
    let (server, addr) = spawn(quick_cfg());
    for nic in ["0", "-25"] {
        let body = format!(
            r#"{{"tenant":"a","model":"vgg19","cluster":{{"servers":[
                {{"name":"fast-box","nic_gbps":100,"gpus":["V100"]}},
                {{"name":"dead-nic-box","nic_gbps":{nic},"gpus":["P100"]}}]}}}}"#
        );
        let r = client::post_json(addr, "/v1/plan", &body).unwrap();
        assert_eq!(r.status, 400, "{}", r.text());
        assert!(
            r.text().contains("dead-nic-box"),
            "name the server: {}",
            r.text()
        );
        assert!(r.text().contains("nic_gbps"), "{}", r.text());
    }

    let r = client::post_json(
        addr,
        "/v1/plan",
        r#"{"tenant":"a","model":"bert-large","layers":4294967295}"#,
    )
    .unwrap();
    assert_eq!(r.status, 400);
    assert!(r.text().contains("\\\"layers\\\""), "{}", r.text());
    server.shutdown();
}

#[test]
fn rejects_oversized_clusters_and_malformed_bodies() {
    let (server, addr) = spawn(quick_cfg());
    let gpus = vec!["\"K80\""; heterog_cluster::MAX_GPUS + 1].join(",");
    let body = format!(
        r#"{{"tenant":"a","model":"vgg19","cluster":{{"servers":[
            {{"name":"big-box","nic_gbps":10,"gpus":[{gpus}]}}]}}}}"#
    );
    let r = client::post_json(addr, "/v1/plan", &body).unwrap();
    assert_eq!(r.status, 400, "{}", r.text());
    assert!(r.text().contains("at most 256"), "{}", r.text());

    let deep = format!(
        r#"{{"tenant":"a","model":"vgg19","x":{}{}}}"#,
        "[".repeat(10_000),
        "]".repeat(10_000)
    );
    for body in [
        "{\"tenant\":\"a\"",
        r#"{"tenant":"a","model":"vgg19"} trailing"#,
        r#"{"tenant":"a","model":"vgg19","batch":01}"#,
        deep.as_str(),
        r#"{"tenant":"a","model":"vgg19","cluster":{"servers":{}}}"#,
        r#"{"tenant":"a","model":"vgg19","cluster":{"servers":[{"name":"x","nic_gbps":"10","gpus":["V100"]}]}}"#,
    ] {
        let r = client::post_json(addr, "/v1/plan", body).unwrap();
        assert_eq!(r.status, 400, "{body}: {}", r.text());
    }
    // The daemon is still serving.
    assert_eq!(client::get(addr, "/healthz").unwrap().status, 200);
    server.shutdown();
}

/// Writes `raw` to the daemon as is, half-closes the connection and
/// returns everything the daemon answers.
fn raw_exchange(addr: SocketAddr, raw: &str) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(raw.as_bytes()).unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    let mut reply = String::new();
    stream.read_to_string(&mut reply).unwrap();
    reply
}

#[test]
fn malformed_requests_get_a_named_400() {
    let (server, addr) = spawn(quick_cfg());
    for (raw, error) in [
        (
            "POST /v1/plan HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
            "malformed request: bad content-length",
        ),
        (
            "GET /healthz HTTP/1.1\r\nno colon here\r\n\r\n",
            "malformed request: header without colon",
        ),
        (
            "POST /v1/plan HTTP/1.1\r\nContent-Length: 10\r\n\r\n{}",
            "malformed request: connection closed mid-body",
        ),
    ] {
        let reply = raw_exchange(addr, raw);
        assert!(reply.starts_with("HTTP/1.1 400 "), "{raw:?}: {reply:?}");
        let body = format!("{{\"error\":\"{error}\"}}");
        assert!(
            reply.ends_with(&format!("\r\n\r\n{body}")),
            "{raw:?}: {reply:?}"
        );
    }
    // The daemon is still serving.
    assert_eq!(client::get(addr, "/healthz").unwrap().status, 200);
    server.shutdown();
}

#[test]
fn concurrent_tenants_each_get_their_own_plan() {
    let (server, addr) = spawn(quick_cfg());
    let mut handles = Vec::new();
    for (tenant, model) in [
        ("alice", "vgg19"),
        ("bob", "mobilenet"),
        ("alice", "resnet200"),
        ("bob", "inception"),
    ] {
        handles.push(std::thread::spawn(move || {
            let body = format!(
                r#"{{"tenant":"{tenant}","model":"{model}","planner":"CP-AR","wait":true}}"#
            );
            let r = client::post_json(addr, "/v1/plan", &body).unwrap();
            (model, r)
        }));
    }
    for h in handles {
        let (model, r) = h.join().unwrap();
        assert_eq!(r.status, 200, "{}", r.text());
        assert_eq!(r.header("x-heterog-planner"), Some("CP-AR"));
        // The response carries the plan for the model that was asked for.
        let label_fragment = match model {
            "vgg19" => "VGG-19",
            "mobilenet" => "MobileNet_v2",
            "inception" => "Inception_v3",
            _ => "ResNet200",
        };
        assert!(r.text().contains(label_fragment), "{}", r.text());
        assert!(r.text().contains("\"makespan_s\":"), "{}", r.text());
    }
    let stats = server.stats();
    assert_eq!(stats.completed, 4);
    assert_eq!(stats.failed, 0);
    server.shutdown();
}

/// Polls job `job`'s status until it reads `want`, returning the last
/// status body.
fn poll_job_until(addr: SocketAddr, job: &str, want: &str) -> String {
    let needle = format!("\"status\":\"{want}\"");
    loop {
        let r = client::get(addr, &format!("/v1/jobs/{job}")).unwrap();
        assert_eq!(r.status, 200, "{}", r.text());
        let text = r.text().to_string();
        if text.contains(&needle) {
            return text;
        }
        assert!(
            !text.contains("\"status\":\"done\"") && !text.contains("\"status\":\"failed\""),
            "job {job} finished before it read {want}: {text}"
        );
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
}

#[test]
fn coalesced_identical_requests_return_identical_bytes() {
    // One worker, held by a slow job: identical requests stack up
    // in-flight and must coalesce onto a single planning job.
    let cfg = ServeConfig {
        workers: 1,
        ..quick_cfg()
    };
    let (server, addr) = spawn(cfg);

    // Occupy the only worker with a searched 48-layer BERT plan (about
    // 0.3 s in release on a 2-vCPU VM, the three posts below about a
    // millisecond), and wait until the worker runs it: only then are the
    // identical requests sure to find the worker busy.
    let blocker = client::post_json(
        addr,
        "/v1/plan",
        r#"{"tenant":"alice","model":"bert","layers":48,"planner":"heterog"}"#,
    )
    .unwrap();
    assert_eq!(blocker.status, 202, "{}", blocker.text());
    let blocker = blocker.header("x-heterog-job").unwrap().to_string();
    poll_job_until(addr, &blocker, "running");

    let identical = r#"{"tenant":"alice","model":"vgg19","planner":"CP-AR","wait":true}"#;
    let mut waiters = Vec::new();
    for _ in 0..3 {
        waiters.push(std::thread::spawn(move || {
            client::post_json(addr, "/v1/plan", identical).unwrap()
        }));
    }
    let responses: Vec<_> = waiters.into_iter().map(|h| h.join().unwrap()).collect();
    poll_job_until(addr, &blocker, "done");

    let bodies: HashSet<Vec<u8>> = responses.iter().map(|r| r.body.clone()).collect();
    assert_eq!(
        bodies.len(),
        1,
        "coalesced responses must be byte-identical"
    );
    let jobs: HashSet<_> = responses
        .iter()
        .map(|r| r.header("x-heterog-job").unwrap().to_string())
        .collect();
    assert_eq!(jobs.len(), 1, "identical requests must share one job id");
    let coalesced = responses
        .iter()
        .filter(|r| r.header("x-heterog-coalesced") == Some("1"))
        .count();
    assert_eq!(coalesced, 2, "two of three identical requests coalesce");
    assert_eq!(server.stats().coalesced, 2);
    server.shutdown();
}

#[test]
fn deep_backlog_degrades_search_to_heuristic() {
    // One worker and a degradation threshold of one pending job: firing
    // several full-search requests concurrently guarantees some of them
    // are popped while others still queue behind them.
    let cfg = ServeConfig {
        workers: 1,
        degrade_depth: 1,
        search_groups: 4,
        ..ServeConfig::default()
    };
    let (server, addr) = spawn(cfg);

    let mut handles = Vec::new();
    for batch in [32u64, 48, 64, 80, 96, 112] {
        handles.push(std::thread::spawn(move || {
            let body =
                format!(r#"{{"tenant":"alice","model":"vgg19","batch":{batch},"wait":true}}"#);
            client::post_json(addr, "/v1/plan", &body).unwrap()
        }));
    }
    let responses: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    for r in &responses {
        assert_eq!(r.status, 200, "{}", r.text());
    }
    let degraded: Vec<_> = responses
        .iter()
        .filter(|r| r.header("x-heterog-degraded") == Some("1"))
        .collect();
    assert!(
        !degraded.is_empty(),
        "a deep backlog must degrade at least one search instead of timing out"
    );
    for r in &degraded {
        assert_eq!(r.header("x-heterog-planner"), Some("CP-AR"));
        assert!(r.text().contains("\"degraded\":true"), "{}", r.text());
        assert!(r.text().contains("\"planner\":\"heterog\""), "{}", r.text());
    }
    assert_eq!(server.stats().degraded as usize, degraded.len());
    server.shutdown();
}

#[test]
fn event_stream_seqs_are_gap_free() {
    // One worker so the captured window belongs to this job alone.
    let cfg = ServeConfig {
        workers: 1,
        ..quick_cfg()
    };
    let (server, addr) = spawn(cfg);

    let r = client::post_json(
        addr,
        "/v1/plan",
        r#"{"tenant":"alice","model":"vgg19","planner":"CP-AR"}"#,
    )
    .unwrap();
    assert_eq!(r.status, 202);
    let job = r.header("x-heterog-job").unwrap().to_string();

    // The events endpoint streams chunked JSONL until the job is done.
    let stream = client::get(addr, &format!("/v1/jobs/{job}/events")).unwrap();
    assert_eq!(stream.status, 200);
    assert_eq!(stream.header("transfer-encoding"), Some("chunked"));
    let text = stream.text();
    let lines: Vec<&str> = text.lines().filter(|l| !l.is_empty()).collect();
    assert!(
        lines.len() >= 2,
        "a plan job must emit at least start/finish events: {text:?}"
    );
    let mut seqs = Vec::new();
    for line in &lines {
        let v = heterog_telemetry::json::parse(line)
            .unwrap_or_else(|e| panic!("event line is not JSON ({e}): {line}"));
        seqs.push(v.get("seq").and_then(|s| s.as_u64()).expect("seq field"));
    }
    for pair in seqs.windows(2) {
        assert_eq!(
            pair[1],
            pair[0] + 1,
            "event stream must be gap-free: {seqs:?}"
        );
    }
    assert!(text.contains("\"type\":\"run_started\""), "{text}");
    assert!(text.contains("\"type\":\"run_finished\""), "{text}");

    // The completed job also answers a plain status poll.
    let status = client::get(addr, &format!("/v1/jobs/{job}")).unwrap();
    assert_eq!(status.status, 200);
    assert!(
        status.text().contains("\"status\":\"done\""),
        "{}",
        status.text()
    );
    server.shutdown();
}

/// Bob's repeat of alice's spec is a memo hit that returns her body byte
/// for byte, for a uniform CP-AR plan and for a searched `heterog` plan
/// that mixes MP and DP decisions (VGG-19@64 under `quick_cfg`), so a
/// wrong unpack of the memo's packed strategy would show in
/// `strategy_mix` and `makespan_s`.
#[test]
fn repeat_plans_hit_the_memo_across_tenants() {
    for planner in ["CP-AR", "heterog"] {
        let (server, addr) = spawn(quick_cfg());
        let request = |tenant: &str| {
            format!(r#"{{"tenant":"{tenant}","model":"vgg19","batch":64,"planner":"{planner}"}}"#)
        };
        let first = client::post_json(addr, "/v1/plan?wait=1", &request("alice")).unwrap();
        assert_eq!(first.status, 200, "{planner}");
        let uniform = first.text().contains(r#""mp_pct":0.0,"#);
        assert_eq!(uniform, planner == "CP-AR", "{}", first.text());
        let second = client::post_json(addr, "/v1/plan?wait=1", &request("bob")).unwrap();
        assert_eq!(second.status, 200, "{planner}");
        assert_eq!(
            first.body, second.body,
            "{planner}: identical specs must produce identical plan bytes for every tenant"
        );
        let stats = server.stats();
        assert_eq!(stats.memo_hits, 1, "{planner}: {stats:?}");
        assert_eq!(
            stats.cross_tenant_hits, 1,
            "{planner}: bob's hit rides on alice's entry: {stats:?}"
        );
        server.shutdown();
    }
}

#[test]
fn metrics_expose_queue_depth_and_cache_counters() {
    let (server, addr) = spawn(quick_cfg());
    // Twice: the repeat hits the plan memo, which registers the hit
    // counter in the telemetry snapshot.
    for _ in 0..2 {
        let r = client::post_json(
            addr,
            "/v1/plan?wait=1",
            r#"{"tenant":"alice","model":"vgg19","planner":"CP-AR"}"#,
        )
        .unwrap();
        assert_eq!(r.status, 200);
    }
    let metrics = client::get(addr, "/metrics").unwrap();
    assert_eq!(metrics.status, 200);
    let text = metrics.text();
    for metric in [
        "heterog_serve_queue_depth",
        "heterog_serve_requests_total",
        "heterog_serve_jobs_completed_total",
        "heterog_serve_plan_memo_hits_total",
    ] {
        assert!(text.contains(metric), "missing {metric} in:\n{text}");
    }
    server.shutdown();
}

#[test]
fn tenants_identical_explains_report_their_own_eval_counts() {
    let (server, addr) = spawn(quick_cfg());
    // Warm the plan memo: both explains then take the same path, a
    // memo hit.
    let warm = client::post_json(
        addr,
        "/v1/plan?wait=1",
        r#"{"tenant":"alice","model":"mobilenet","batch":64,"planner":"CP-AR"}"#,
    )
    .unwrap();
    assert_eq!(warm.status, 200, "{}", warm.text());

    // Each tenant's explain (with what-ifs) is admitted after the other
    // tenant's search, which the second worker runs beside it.
    let mut stats = Vec::new();
    for (tenant, other, batch) in [("alice", "bob", 32), ("bob", "alice", 48)] {
        let search = format!(
            r#"{{"tenant":"{other}","model":"mobilenet","batch":{batch},"planner":"heterog"}}"#
        );
        let queued = client::post_json(addr, "/v1/plan", &search).unwrap();
        assert_eq!(queued.status, 202, "{}", queued.text());
        let body = format!(
            r#"{{"tenant":"{tenant}","model":"mobilenet","batch":64,"planner":"CP-AR","top_k":3,"whatif":true,"wait":true}}"#
        );
        let r = client::post_json(addr, "/v1/explain", &body).unwrap();
        assert_eq!(r.status, 200, "{}", r.text());
        let v = heterog_telemetry::json::parse(&r.text()).expect("explain body parses");
        let e = &v["report"]["eval_stats"];
        let counts: Vec<(&str, Option<u64>)> =
            ["evaluations", "incremental_fast", "incremental_full"]
                .into_iter()
                .map(|k| (k, e[k].as_u64()))
                .collect();
        let rate = e["incremental_hit_rate"].as_f64();
        stats.push((counts, rate.map(f64::to_bits)));
    }
    assert!(stats[0].0.iter().all(|(_, v)| v.is_some()), "{stats:?}");
    assert_eq!(
        server.stats().memo_hits,
        2,
        "the warmed memo served both explains"
    );
    assert!(stats[0].0[1].1 > Some(0), "the what-ifs ran incrementally");
    assert_eq!(stats[0], stats[1], "alice's and bob's explain counts");
    server.shutdown();
}

/// An explain body's `report`, without its run-scoped `eval_stats`.
fn report_without_eval_stats(body: &str) -> String {
    use heterog_telemetry::json::{parse, Value};
    let v = parse(body).expect("explain body parses");
    let Value::Object(members) = &v["report"] else {
        panic!("report is an object: {body}");
    };
    let kept = members.iter().filter(|(k, _)| k != "eval_stats");
    Value::Object(kept.cloned().collect()).to_string_pretty()
}

#[test]
fn an_explain_served_from_the_cache_equals_the_one_that_missed() {
    use heterog::cluster::paper_testbed_8gpu;
    use heterog::graph::{BenchmarkModel, ModelSpec};
    use heterog::profile::GroundTruthCost;
    use heterog::sched::OrderPolicy;
    use heterog_telemetry::json::parse;

    let (server, addr) = spawn(quick_cfg());
    // Nothing has planned this spec: alice's explain misses the plan
    // memo, bob's repeat hits it.
    let mut bodies = Vec::new();
    for tenant in ["alice", "bob"] {
        let body = format!(
            r#"{{"tenant":"{tenant}","model":"mobilenet","batch":32,"planner":"CP-AR","wait":true}}"#
        );
        let r = client::post_json(addr, "/v1/explain", &body).unwrap();
        assert_eq!(r.status, 200, "{}", r.text());
        bodies.push(r.text());
    }
    let stats = server.stats();
    server.shutdown();

    let miss = parse(&bodies[0]).unwrap();
    let e = &miss["report"]["eval_stats"];
    assert_eq!(e["evaluations"].as_u64(), Some(1), "{}", bodies[0]);
    assert_eq!((stats.memo_misses, stats.memo_hits), (1, 1), "{stats:?}");
    assert_eq!(
        report_without_eval_stats(&bodies[0]),
        report_without_eval_stats(&bodies[1]),
        "a memo hit's explain equals the miss's"
    );

    // The served critical path is the one a fresh compile + simulate
    // gives in process.
    let g = ModelSpec::new(BenchmarkModel::MobileNetV2, 32).build();
    let c = paper_testbed_8gpu();
    let s = heterog::try_baseline_planner("CP-AR")
        .unwrap()
        .plan(&g, &c, &GroundTruthCost);
    let policy = OrderPolicy::RankBased;
    let tg = heterog::compile::compile(&g, &c, &GroundTruthCost, &s);
    let report = heterog::sim::simulate(&tg, &c.memory_capacities(), &policy);
    let opts = heterog::explain::ExplainOptions {
        top_k: 3,
        run_whatif: false,
    };
    let local = heterog::explain::explain(&g, &c, &s, &tg, &policy, &report, &opts);
    let local = parse(&heterog::explain::to_json(&local)).unwrap();
    assert_eq!(
        miss["report"]["critical_path"].to_string_pretty(),
        local["critical_path"].to_string_pretty()
    );
}

/// With what-ifs on, a served explain ranks the same interventions on a
/// memo miss and on a memo hit: both anchor the what-if evaluator on the
/// graph and report the job simulated. The miss counts its one base
/// evaluation, the hit none, and each counts one full evaluation for
/// the device-removal what-if.
#[test]
fn a_served_explain_ranks_the_same_whatifs_on_a_miss_and_a_hit() {
    let (server, addr) = spawn(quick_cfg());
    let mut bodies = Vec::new();
    for tenant in ["alice", "bob"] {
        let body = format!(
            r#"{{"tenant":"{tenant}","model":"mobilenet","batch":48,"planner":"CP-AR","top_k":8,"whatif":true,"wait":true}}"#
        );
        let r = client::post_json(addr, "/v1/explain", &body).unwrap();
        assert_eq!(r.status, 200, "{}", r.text());
        bodies.push(r.text());
    }
    let stats = server.stats();
    server.shutdown();
    assert_eq!((stats.memo_misses, stats.memo_hits), (1, 1), "{stats:?}");
    assert_eq!(
        report_without_eval_stats(&bodies[0]),
        report_without_eval_stats(&bodies[1]),
        "a memo hit's explain equals the miss's"
    );
    let evaluations = |body: &str| {
        let v = heterog_telemetry::json::parse(body).expect("explain body parses");
        assert!(
            v["report"]["whatif"]
                .as_array()
                .is_some_and(|w| !w.is_empty()),
            "{body}"
        );
        v["report"]["eval_stats"]["evaluations"].as_u64()
    };
    assert_eq!(evaluations(&bodies[0]), Some(2), "{}", bodies[0]);
    assert_eq!(evaluations(&bodies[1]), Some(1), "{}", bodies[1]);
}

#[test]
fn finished_jobs_past_max_pending_are_retired_with_410() {
    let cfg = ServeConfig {
        max_pending: 2,
        ..quick_cfg()
    };
    let (server, addr) = spawn(cfg);
    let mut served = Vec::new();
    for batch in [8, 16, 24, 32, 40, 48] {
        let body = format!(
            r#"{{"tenant":"alice","model":"mobilenet","batch":{batch},"planner":"CP-AR","wait":true}}"#
        );
        let r = client::post_json(addr, "/v1/plan", &body).unwrap();
        assert_eq!(r.status, 200, "{}", r.text());
        served.push((r.header("x-heterog-job").unwrap().to_string(), r.text()));
    }

    let (first, _) = &served[0];
    let retired = format!("job {first:?} was retired; the daemon keeps the last 2 finished jobs");
    for path in [
        format!("/v1/jobs/{first}"),
        format!("/v1/jobs/{first}/events"),
    ] {
        let r = client::get(addr, &path).unwrap();
        assert_eq!(r.status, 410, "{path}: {}", r.text());
        let v = heterog_telemetry::json::parse(&r.text()).expect("error body parses");
        assert_eq!(v["error"].as_str(), Some(retired.as_str()));
    }

    let (last, body) = served.last().unwrap();
    let r = client::get(addr, &format!("/v1/jobs/{last}")).unwrap();
    assert_eq!(r.status, 200, "{}", r.text());
    assert_eq!(
        r.text(),
        format!("{{\"job_id\":\"{last}\",\"status\":\"done\",\"result\":{body}}}")
    );

    let never = client::get(addr, "/v1/jobs/job-999999").unwrap();
    assert_eq!(never.status, 404, "{}", never.text());
    server.shutdown();
}
