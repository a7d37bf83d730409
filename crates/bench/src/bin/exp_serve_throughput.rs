//! Serve-throughput experiment: multi-tenant load against an
//! in-process `heterog-serve` daemon.
//!
//! Spawns the daemon on an ephemeral port, then drives it with several
//! closed-loop client threads, each posing as a different tenant. The
//! request mix is Zipf-skewed over a small model zoo — the skew is what
//! makes the shared plan memo, cross-tenant reuse, and request
//! coalescing observable — and is mostly `plan` with some `explain` and
//! a trickle of small `elastic` runs, all with `wait:true` so each
//! response carries a full plan and the measured latency is end-to-end
//! (admission, fair dequeue, planning, serialization, socket).
//!
//! Run: `cargo run --release -p heterog-bench --bin exp_serve_throughput`
//! (add `--smoke` for a CI-sized run). Writes `BENCH_serve_throughput.json`
//! with p50/p99 latency, plans/sec, the coalesce rate, and the memo /
//! cross-tenant hit rates.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use heterog_bench::{round_to, write_json};
use heterog_serve::{client, ServeConfig, Server};
use heterog_telemetry::json_object;
use heterog_telemetry::rng::SplitMix64;

const TENANTS: &[&str] = &["alice", "bob", "carol", "dave"];

/// The traffic zoo: small models so a run finishes in seconds. Zipf
/// rank order — earlier entries are requested far more often.
const MODELS: &[&str] = &["mobilenet", "inception", "resnet200", "vgg19"];
const BATCHES: &[u64] = &[64, 96, 128];

/// Zipf(s=1) rank over `0..n`: weight of rank r is 1/(r+1).
fn zipf(rng: &mut SplitMix64, n: usize) -> usize {
    let total: f64 = (0..n).map(|r| 1.0 / (r + 1) as f64).sum();
    let mut x = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * total;
    for r in 0..n {
        x -= 1.0 / (r + 1) as f64;
        if x <= 0.0 {
            return r;
        }
    }
    n - 1
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ms.len() - 1) as f64 * p).round() as usize;
    sorted_ms[idx]
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (threads, requests_per_thread) = if smoke { (3, 20) } else { (6, 80) };
    let total_requests = threads * requests_per_thread;

    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 3,
        max_pending: 256,
        degrade_depth: 16,
        // All traffic uses the heuristic planner, so degradation never
        // fires here — this experiment measures the shared-cache path.
        search_groups: 4,
        archive_root: None,
        ..ServeConfig::default()
    };
    let workers = cfg.workers;
    let server = Server::spawn(cfg).expect("ephemeral bind");
    let addr = server.local_addr();

    let errors = Arc::new(AtomicU64::new(0));
    let bench_started = Instant::now();
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let errors = Arc::clone(&errors);
            std::thread::spawn(move || {
                let mut rng = SplitMix64::new(0x5eed + t as u64);
                let tenant = TENANTS[t % TENANTS.len()];
                let mut lat_ms = Vec::with_capacity(requests_per_thread);
                for _ in 0..requests_per_thread {
                    let model = MODELS[zipf(&mut rng, MODELS.len())];
                    let batch = BATCHES[rng.below(BATCHES.len() as u64) as usize];
                    let roll = rng.below(100);
                    let (path, body) = if roll < 2 {
                        // ~2% elastic: tiny fault-free run.
                        let body = json_object! {
                            "tenant" => tenant,
                            "model" => model,
                            "batch" => batch,
                            "planner" => "CP-AR",
                            "iterations" => 3u64,
                            "faults" => 0u64,
                            "wait" => true,
                        };
                        ("/v1/elastic", body)
                    } else if roll < 12 {
                        // ~10% explain.
                        let body = json_object! {
                            "tenant" => tenant,
                            "model" => model,
                            "batch" => batch,
                            "planner" => "CP-AR",
                            "top_k" => 3u64,
                            "wait" => true,
                        };
                        ("/v1/explain", body)
                    } else {
                        let body = json_object! {
                            "tenant" => tenant,
                            "model" => model,
                            "batch" => batch,
                            "planner" => "CP-AR",
                            "wait" => true,
                        };
                        ("/v1/plan", body)
                    };
                    let t0 = Instant::now();
                    match client::post_json(addr, path, &body.to_string()) {
                        Ok(r) if r.status == 200 => lat_ms.push(t0.elapsed().as_secs_f64() * 1e3),
                        Ok(r) => {
                            eprintln!("request failed ({}): {}", r.status, r.text());
                            errors.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => {
                            eprintln!("transport error: {e}");
                            errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                lat_ms
            })
        })
        .collect();

    let mut lat_ms: Vec<f64> = Vec::with_capacity(total_requests);
    for h in handles {
        lat_ms.extend(h.join().expect("client thread"));
    }
    let duration_s = bench_started.elapsed().as_secs_f64();
    let stats = server.stats();
    server.shutdown();

    assert_eq!(errors.load(Ordering::Relaxed), 0, "no request may fail");
    assert_eq!(stats.failed, 0, "no job may fail: {stats:?}");

    lat_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let p50_ms = percentile(&lat_ms, 0.50);
    let p99_ms = percentile(&lat_ms, 0.99);
    let plans_per_sec = lat_ms.len() as f64 / duration_s;
    let served = stats.requests.max(1) as f64;
    let coalesce_rate = stats.coalesced as f64 / served;
    let memo_lookups = (stats.memo_hits + stats.memo_misses).max(1) as f64;
    let memo_hit_rate = stats.memo_hits as f64 / memo_lookups;
    let cross_tenant_hit_rate = stats.cross_tenant_hits as f64 / memo_lookups;

    println!(
        "serve throughput ({} tenants x {} threads, {} requests, {} workers):",
        TENANTS.len().min(threads),
        threads,
        lat_ms.len(),
        workers
    );
    println!("  wall:          {duration_s:.2} s  ({plans_per_sec:.1} plans/s)");
    println!("  latency:       p50 {p50_ms:.1} ms, p99 {p99_ms:.1} ms");
    println!(
        "  coalesced:     {} / {} ({:.1}%)",
        stats.coalesced,
        stats.requests,
        100.0 * coalesce_rate
    );
    println!(
        "  plan memo:     {:.1}% hit ({:.1}% cross-tenant)",
        100.0 * memo_hit_rate,
        100.0 * cross_tenant_hit_rate
    );
    println!(
        "  degraded: {}, rejected: {}",
        stats.degraded, stats.rejected
    );

    assert!(
        stats.cross_tenant_hits > 0,
        "Zipf traffic from {} tenants must produce cross-tenant reuse: {stats:?}",
        TENANTS.len()
    );

    let doc = json_object! {
        "smoke" => smoke,
        "requests" => lat_ms.len(),
        "tenants" => TENANTS.len().min(threads),
        "client_threads" => threads,
        "workers" => workers,
        "duration_s" => round_to(duration_s, 4),
        "plans_per_sec" => round_to(plans_per_sec, 2),
        "p50_ms" => round_to(p50_ms, 3),
        "p99_ms" => round_to(p99_ms, 3),
        "coalesce_rate" => round_to(coalesce_rate, 4),
        "memo_hit_rate" => round_to(memo_hit_rate, 4),
        "cross_tenant_hit_rate" => round_to(cross_tenant_hit_rate, 4),
        "degraded" => stats.degraded,
        "rejected" => stats.rejected,
    };
    write_json(Path::new("BENCH_serve_throughput.json"), &doc);
}
