//! The daemon: socket handling, routing, the worker pool, and the
//! `/metrics` surface.
//!
//! Threading model: one acceptor thread, one detached thread per
//! connection (each connection carries exactly one request), and
//! `workers` planner threads draining the [`AdmissionQueue`]. The
//! connection threads only parse/validate/enqueue/wait — every
//! expensive operation happens on a worker, so the admission queue's
//! depth is an honest measure of planning backlog.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use heterog_telemetry::json::ToJson;
use heterog_telemetry::json_object;

use crate::api::{parse_request, ApiError};
use crate::exec::Engine;
use crate::http::{error_body, read_request, respond, ChunkedWriter, HttpError, Request};
use crate::jobs::{Job, JobState, JobTable};
use crate::queue::AdmissionQueue;

static REQUESTS_TOTAL: heterog_telemetry::Counter = heterog_telemetry::Counter::new(
    "heterog_serve_requests_total",
    "HTTP requests accepted by the serve daemon",
);
static REJECTED_TOTAL: heterog_telemetry::Counter = heterog_telemetry::Counter::new(
    "heterog_serve_rejected_total",
    "Requests rejected with 429 because the admission queue was full",
);
static COALESCED_TOTAL: heterog_telemetry::Counter = heterog_telemetry::Counter::new(
    "heterog_serve_coalesced_total",
    "Requests coalesced onto an identical in-flight job",
);
static QUEUE_DEPTH: heterog_telemetry::Gauge = heterog_telemetry::Gauge::new(
    "heterog_serve_queue_depth",
    "Planning jobs currently pending in the admission queue",
);
static JOB_SECONDS: heterog_telemetry::Histogram = heterog_telemetry::Histogram::new(
    "heterog_serve_job_seconds",
    "End-to-end latency of waited requests (admission to response)",
);

/// Default queue depth at/past which `heterog` searches degrade to the
/// CP-AR heuristic.
pub const DEGRADE_DEPTH: usize = 8;
/// Default deficit-round-robin quantum (cost units granted per visit).
pub const QUANTUM: u64 = 4;

/// Daemon configuration. `Default` gives a local single-tenant-friendly
/// setup. The CLI sets `addr`, `workers`, `max_pending`, `tenants` and
/// `archive_root`; the rest keep their defaults outside tests and
/// benchmarks.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7807` (port 0 = ephemeral).
    pub addr: String,
    /// Planner worker threads.
    pub workers: usize,
    /// Admission-queue capacity; beyond it requests get 429. Also the
    /// finished jobs kept for `GET /v1/jobs/<id>`; older ones get 410.
    pub max_pending: usize,
    /// Queue depth at/past which `heterog` searches degrade to the
    /// heuristic baseline (0 disables degradation).
    pub degrade_depth: usize,
    /// Deficit-round-robin quantum (cost units granted per visit).
    pub quantum: u64,
    /// Tenant allowlist; `None` accepts any tenant name.
    pub tenants: Option<Vec<String>>,
    /// One factor of the plan memo's capacity: the memo holds
    /// `cache_shards × cache_contexts` plans.
    pub cache_shards: usize,
    /// The other factor of the plan memo's capacity (see
    /// `cache_shards`).
    pub cache_contexts: usize,
    /// Search width (candidate groups) for `heterog` requests.
    pub search_groups: usize,
    /// Search passes for `heterog` requests.
    pub search_passes: usize,
    /// Run-store root for per-job archiving; `None` disables.
    pub archive_root: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7807".to_string(),
            workers: 2,
            max_pending: 64,
            degrade_depth: DEGRADE_DEPTH,
            quantum: QUANTUM,
            tenants: None,
            cache_shards: 8,
            cache_contexts: 32,
            // `HeterogConfig::quick`'s search shape: wide enough to beat
            // the baselines, cheap enough for interactive latency.
            search_groups: 12,
            search_passes: 1,
            archive_root: None,
        }
    }
}

/// A live snapshot of service counters, for benchmarks and tests.
#[derive(Debug, Clone)]
pub struct ServeStats {
    /// Requests admitted (valid POSTs, including coalesced).
    pub requests: u64,
    /// Requests rejected with 429.
    pub rejected: u64,
    /// Requests coalesced onto an in-flight job.
    pub coalesced: u64,
    /// Jobs downgraded by load shedding.
    pub degraded: u64,
    /// Jobs completed.
    pub completed: u64,
    /// Jobs failed.
    pub failed: u64,
    /// Plan-memo hits.
    pub memo_hits: u64,
    /// Plan-memo misses (planner actually ran).
    pub memo_misses: u64,
    /// Memo hits first planted by a different tenant.
    pub cross_tenant_hits: u64,
    /// Jobs archived into the run store.
    pub archived: u64,
    /// Current queue depth.
    pub queue_depth: usize,
}

struct Shared {
    cfg: ServeConfig,
    queue: AdmissionQueue,
    table: JobTable,
    engine: Engine,
    requests: AtomicU64,
    rejected: AtomicU64,
    coalesced: AtomicU64,
    shutdown: AtomicBool,
}

/// The running daemon. Dropping it does *not* stop the threads — call
/// [`shutdown`](Server::shutdown).
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds and spawns the daemon. The bind error names the address
    /// (satisfying "bind failure names the port"): the CLI surfaces it
    /// verbatim and exits nonzero.
    pub fn spawn(cfg: ServeConfig) -> Result<Server, String> {
        let listener =
            TcpListener::bind(&cfg.addr).map_err(|e| format!("cannot bind {}: {e}", cfg.addr))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("cannot resolve bound address: {e}"))?;
        // The metrics endpoint needs the global recorders on; each job
        // records its own events (see `exec`).
        heterog_telemetry::enable();

        let shared = Arc::new(Shared {
            engine: Engine::new(
                cfg.cache_shards,
                cfg.cache_contexts,
                cfg.degrade_depth,
                cfg.search_groups,
                cfg.search_passes,
                cfg.archive_root.clone(),
            ),
            queue: AdmissionQueue::new(cfg.max_pending, cfg.quantum),
            table: JobTable::with_retention(cfg.max_pending),
            requests: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            cfg,
        });

        let workers = (0..shared.cfg.workers.max(1))
            .map(|i| {
                let s = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&s))
                    .expect("spawn worker thread")
            })
            .collect();

        let acceptor = {
            let s = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("serve-acceptor".to_string())
                .spawn(move || acceptor_loop(listener, &s))
                .expect("spawn acceptor thread")
        };

        Ok(Server {
            shared,
            addr,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live counters.
    pub fn stats(&self) -> ServeStats {
        stats_of(&self.shared)
    }

    /// Stops accepting, drains the queue, and joins every thread.
    pub fn shutdown(mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.queue.close();
        // Unblock the acceptor with a no-op connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn stats_of(s: &Shared) -> ServeStats {
    let c = &s.engine.counters;
    ServeStats {
        requests: s.requests.load(Ordering::Relaxed),
        rejected: s.rejected.load(Ordering::Relaxed),
        coalesced: s.coalesced.load(Ordering::Relaxed),
        degraded: c.degraded.load(Ordering::Relaxed),
        completed: c.completed.load(Ordering::Relaxed),
        failed: c.failed.load(Ordering::Relaxed),
        memo_hits: c.memo_hits.load(Ordering::Relaxed),
        memo_misses: c.memo_misses.load(Ordering::Relaxed),
        cross_tenant_hits: c.cross_tenant_hits.load(Ordering::Relaxed),
        archived: c.archived.load(Ordering::Relaxed),
        queue_depth: s.queue.depth(),
    }
}

fn worker_loop(s: &Shared) {
    while let Some(job) = s.queue.pop() {
        let depth = s.queue.depth();
        QUEUE_DEPTH.set(depth as f64);
        s.engine.execute(&job, depth);
        s.table.release(&job);
    }
}

fn acceptor_loop(listener: TcpListener, s: &Arc<Shared>) {
    for conn in listener.incoming() {
        if s.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = conn else { continue };
        let s = Arc::clone(s);
        // Detached: a connection thread outliving shutdown only writes
        // to its own socket.
        let _ = std::thread::Builder::new()
            .name("serve-conn".to_string())
            .spawn(move || handle_connection(stream, &s));
    }
}

fn handle_connection(mut stream: TcpStream, s: &Shared) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let req = match read_request(&mut stream) {
        Ok(r) => r,
        Err(HttpError::Io(_)) => return, // timed out or reset: no reply
        Err(e) => {
            let status = if matches!(e, HttpError::TooLarge) {
                413
            } else {
                400
            };
            let body = error_body(&e.to_string());
            let _ = respond(
                &mut stream,
                status,
                "application/json",
                &[],
                body.as_bytes(),
            );
            return;
        }
    };
    route(&mut stream, &req, s);
}

fn route(stream: &mut TcpStream, req: &Request, s: &Shared) {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => {
            let body = json_object! { "status" => "ok" }.to_string();
            let _ = respond(stream, 200, "application/json", &[], body.as_bytes());
        }
        ("GET", "/metrics") => {
            QUEUE_DEPTH.set(s.queue.depth() as f64);
            // The text reads no spans: copy the metrics alone.
            let text = heterog_telemetry::prometheus_text(&heterog_telemetry::metrics_snapshot());
            let _ = respond(
                stream,
                200,
                "text/plain; version=0.0.4",
                &[],
                text.as_bytes(),
            );
        }
        ("POST", "/v1/plan") => handle_submit(stream, req, s, "plan"),
        ("POST", "/v1/explain") => handle_submit(stream, req, s, "explain"),
        ("POST", "/v1/elastic") => handle_submit(stream, req, s, "elastic"),
        ("GET", path) if path.starts_with("/v1/jobs/") => {
            let rest = &path["/v1/jobs/".len()..];
            match rest.strip_suffix("/events") {
                Some(id) => handle_events(stream, s, id),
                None => handle_job_status(stream, s, rest),
            }
        }
        (_, "/v1/plan" | "/v1/explain" | "/v1/elastic" | "/metrics" | "/healthz") => {
            let _ = respond(
                stream,
                405,
                "application/json",
                &[],
                error_body("method not allowed").as_bytes(),
            );
        }
        _ => {
            let _ = respond(
                stream,
                404,
                "application/json",
                &[],
                error_body("not found").as_bytes(),
            );
        }
    }
}

fn handle_submit(stream: &mut TcpStream, req: &Request, s: &Shared, kind: &str) {
    let wait_query = req.query.get("wait").is_some_and(|v| v != "0");
    let parsed = match parse_request(kind, &req.body, wait_query, s.cfg.tenants.as_deref()) {
        Ok(p) => p,
        Err(ApiError { status, message }) => {
            let _ = respond(
                stream,
                status,
                "application/json",
                &[],
                error_body(&message).as_bytes(),
            );
            return;
        }
    };
    s.requests.fetch_add(1, Ordering::Relaxed);
    REQUESTS_TOTAL.inc();

    let admitted = Instant::now();
    let (job, coalesced) = s.table.create_or_attach(&parsed.tenant, parsed.spec);
    if coalesced {
        s.coalesced.fetch_add(1, Ordering::Relaxed);
        COALESCED_TOTAL.inc();
    } else if let Err(full) = s.queue.push(Arc::clone(&job)) {
        s.rejected.fetch_add(1, Ordering::Relaxed);
        REJECTED_TOTAL.inc();
        s.table.forget(&job);
        let _ = respond(
            stream,
            429,
            "application/json",
            &[],
            error_body(&format!(
                "admission queue full ({} jobs pending)",
                full.pending
            ))
            .as_bytes(),
        );
        return;
    } else {
        QUEUE_DEPTH.set(s.queue.depth() as f64);
    }

    let mut headers = vec![
        ("X-Heterog-Job".to_string(), job.id.clone()),
        (
            "X-Heterog-Coalesced".to_string(),
            if coalesced { "1" } else { "0" }.to_string(),
        ),
    ];
    if !parsed.wait {
        let status = job.state().status();
        let body =
            json_object! { "job_id" => &job.id, "status" => status, "coalesced" => coalesced }
                .to_string();
        let _ = respond(stream, 202, "application/json", &headers, body.as_bytes());
        return;
    }

    match job.wait() {
        Ok(result) => {
            JOB_SECONDS.observe(admitted.elapsed().as_secs_f64());
            headers.push(("X-Heterog-Planner".to_string(), result.planner_used.clone()));
            headers.push((
                "X-Heterog-Degraded".to_string(),
                if result.degraded { "1" } else { "0" }.to_string(),
            ));
            let _ = respond(
                stream,
                200,
                "application/json",
                &headers,
                result.body.as_bytes(),
            );
        }
        Err(e) => {
            let _ = respond(
                stream,
                500,
                "application/json",
                &headers,
                error_body(&e).as_bytes(),
            );
        }
    }
}

/// The job `id` names, or `None` after answering 410 for a retired job
/// and 404 for an id the table never assigned.
fn find_job(stream: &mut TcpStream, s: &Shared, id: &str) -> Option<Arc<Job>> {
    if let Some(job) = s.table.get(id) {
        return Some(job);
    }
    let (status, message) = if s.table.assigned(id) {
        let kept = s.table.retention();
        (
            410,
            format!("job {id:?} was retired; the daemon keeps the last {kept} finished jobs"),
        )
    } else {
        (404, format!("unknown job {id:?}"))
    };
    let _ = respond(
        stream,
        status,
        "application/json",
        &[],
        error_body(&message).as_bytes(),
    );
    None
}

fn handle_job_status(stream: &mut TcpStream, s: &Shared, id: &str) {
    let Some(job) = find_job(stream, s, id) else {
        return;
    };
    let state = job.state();
    let body = match &state {
        // The stored result body is already JSON: wrap it as it is
        // rather than parse it back into a value.
        JobState::Done(result) => format!(
            "{{\"job_id\":{},\"status\":\"done\",\"result\":{}}}",
            job.id.to_value(),
            result.body
        ),
        JobState::Failed(e) => {
            json_object! { "job_id" => &job.id, "status" => "failed", "error" => e }.to_string()
        }
        other => json_object! { "job_id" => &job.id, "status" => other.status() }.to_string(),
    };
    let _ = respond(stream, 200, "application/json", &[], body.as_bytes());
}

/// Streams the job's events as chunked JSONL, following a live job
/// until it completes.
fn handle_events(stream: &mut TcpStream, s: &Shared, id: &str) {
    let Some(job) = find_job(stream, s, id) else {
        return;
    };
    let Ok(mut w) = ChunkedWriter::begin(stream, 200, "application/jsonl") else {
        return;
    };
    let mut cursor = 0usize;
    loop {
        // A job appends events only while it runs, so reading its state
        // before its events leaves none behind once it is terminal.
        let terminal = job.state().is_terminal();
        let batch: Vec<String> = job.events.read(|events| {
            let batch = events[cursor..].iter().map(|e| e.to_json_line()).collect();
            cursor = events.len();
            batch
        });
        for line in batch {
            let mut chunk = line.into_bytes();
            chunk.push(b'\n');
            if w.chunk(&chunk).is_err() {
                return; // client went away
            }
        }
        if terminal {
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    let _ = w.end();
}
