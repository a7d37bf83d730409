//! Talk to the planning daemon from code: spawn an in-process
//! `heterog-serve` on an ephemeral port, then drive it exactly the way
//! a remote client would — plan for two tenants, watch the second
//! tenant ride the first one's cached plan, stream a job's events, and
//! read the Prometheus counters.
//!
//! Against a daemon you started yourself (`heterog-cli serve`), the
//! same calls work over the wire; only the address changes:
//!
//! ```text
//! heterog-cli serve --addr 127.0.0.1:7807 --tenants alice,bob &
//! curl -s -X POST 127.0.0.1:7807/v1/plan?wait=1 \
//!      -d '{"tenant":"alice","model":"mobilenet","planner":"CP-AR"}'
//! ```
//!
//! Run: `cargo run --release --example serve_client`

use heterog_serve::{client, ServeConfig, Server};

fn main() {
    // An ephemeral in-process daemon; `heterog-cli serve` binds the
    // same Server with flag-mapped config.
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".into(),
        tenants: Some(vec!["alice".into(), "bob".into()]),
        search_groups: 4,
        archive_root: None,
        ..ServeConfig::default()
    };
    let server = Server::spawn(cfg).expect("bind ephemeral port");
    let addr = server.local_addr();
    println!("daemon listening on {addr}");

    // Alice plans; wait=1 blocks until the plan body is ready.
    let body = r#"{"tenant":"alice","model":"mobilenet","planner":"CP-AR","wait":true}"#;
    let r = client::post_json(addr, "/v1/plan", body).expect("plan request");
    println!("\nalice plan -> HTTP {}", r.status);
    println!("  job:      {}", r.header("x-heterog-job").unwrap_or("?"));
    println!(
        "  planner:  {}",
        r.header("x-heterog-planner").unwrap_or("?")
    );
    println!("  body:     {}", r.text());

    // Bob asks for the identical spec: the shared memo answers without
    // planning again, and the response bytes are identical to alice's.
    let body = r#"{"tenant":"bob","model":"mobilenet","planner":"CP-AR","wait":true}"#;
    let r2 = client::post_json(addr, "/v1/plan", body).expect("plan request");
    println!(
        "\nbob, same spec -> HTTP {} (cross-tenant cache)",
        r2.status
    );
    println!("  identical bytes: {}", r.body == r2.body);

    // Fire-and-forget: a 202 with a job id, then stream its events as
    // chunked JSONL and poll the terminal status.
    let body = r#"{"tenant":"alice","model":"inception","planner":"CP-AR"}"#;
    let r = client::post_json(addr, "/v1/plan", body).expect("submit");
    let job = r.header("x-heterog-job").expect("job id").to_string();
    println!("\nasync submit -> HTTP {} (job {job})", r.status);
    let stream = client::get(addr, &format!("/v1/jobs/{job}/events")).expect("events");
    let text = stream.text();
    let shown = text.lines().filter(|l| !l.is_empty()).take(3);
    for line in shown {
        println!("  event: {line}");
    }
    let status = client::get(addr, &format!("/v1/jobs/{job}")).expect("status");
    println!("  status: {}", status.text());

    // The service's own counters, Prometheus-style.
    let metrics = client::get(addr, "/metrics").expect("metrics");
    println!("\nserve metrics:");
    for line in metrics.text().lines().filter(|l| {
        l.starts_with("heterog_serve_requests_total")
            || l.starts_with("heterog_serve_queue_depth")
            || l.starts_with("heterog_serve_plan_memo_hits_total")
    }) {
        println!("  {line}");
    }

    let stats = server.stats();
    println!(
        "\nstats: {} completed, {} memo hits ({} cross-tenant)",
        stats.completed, stats.memo_hits, stats.cross_tenant_hits
    );
    server.shutdown();
}
