//! Jobs: the unit of admitted work, plus the table that coalesces
//! identical in-flight requests onto one job.
//!
//! A job's *coalescing key* hashes everything that determines its
//! result — model spec, cluster fingerprint, planner, order policy,
//! request kind — and nothing that doesn't (the tenant, arrival time).
//! While a job with that key is queued or running, further identical
//! requests attach to it instead of enqueuing a duplicate: they block
//! on the same condvar and receive the same result object, so every
//! fanned-out response body is byte-identical. The moment the job
//! completes its key is released; later repeats become new jobs and hit
//! the plan memo instead (see [`crate::exec`]).
//!
//! The table keeps every queued and running job, but only the last
//! `retention` finished ones (the daemon's `max_pending`): a released
//! job joins a FIFO of finished ids, and past the bound the oldest is
//! dropped. Waiters and event followers hold their own `Arc<Job>`, so
//! retiring a job never cuts an answer short; only a later
//! `GET /v1/jobs/<id>` sees it gone ([`JobTable::assigned`] tells a
//! retired id from one never assigned).

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

use heterog_cluster::Cluster;
use heterog_events::RunLog;
use heterog_graph::ModelSpec;
use heterog_telemetry::lock;

/// What the request asked the planner to do.
#[derive(Debug, Clone, PartialEq)]
pub enum JobKind {
    /// Search/resolve a deployment and report its simulated metrics.
    Plan,
    /// Plan, then build the full explain report.
    Explain {
        /// Ranked what-if interventions to keep.
        top_k: usize,
        /// Run the (expensive) what-if sensitivity loop.
        whatif: bool,
    },
    /// Plan, then run a simulated fault/repair session.
    Elastic {
        /// Training iterations to simulate.
        iterations: u64,
        /// Injected fault count (script generated from the seed).
        faults: usize,
        /// Fault-script RNG seed.
        seed: u64,
        /// Repair policy name (validated upstream).
        policy: String,
    },
}

impl JobKind {
    /// Route-style name (`plan`, `explain`, `elastic`).
    pub fn name(&self) -> &'static str {
        match self {
            JobKind::Plan => "plan",
            JobKind::Explain { .. } => "explain",
            JobKind::Elastic { .. } => "elastic",
        }
    }
}

/// A fully validated request: everything [`crate::exec`] needs to run
/// it, resolved before admission so invalid requests are rejected with
/// a 4xx instead of occupying queue slots.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// What to do.
    pub kind: JobKind,
    /// Which model/batch/layers to plan for.
    pub model: ModelSpec,
    /// The (already built) target cluster.
    pub cluster: Cluster,
    /// Requested planner: `heterog` or a baseline name.
    pub planner: String,
    /// FIFO execution order instead of rank-based priorities.
    pub fifo: bool,
}

impl JobSpec {
    /// The coalescing key: content of the request, not its origin.
    pub fn coalesce_key(&self) -> u64 {
        let mut h = DefaultHasher::new();
        match &self.kind {
            JobKind::Plan => 0u8.hash(&mut h),
            JobKind::Explain { top_k, whatif } => {
                1u8.hash(&mut h);
                top_k.hash(&mut h);
                whatif.hash(&mut h);
            }
            JobKind::Elastic {
                iterations,
                faults,
                seed,
                policy,
            } => {
                2u8.hash(&mut h);
                iterations.hash(&mut h);
                faults.hash(&mut h);
                seed.hash(&mut h);
                policy.hash(&mut h);
            }
        }
        self.model.hash(&mut h);
        self.cluster.fingerprint().hash(&mut h);
        self.planner.hash(&mut h);
        self.fifo.hash(&mut h);
        h.finish()
    }

    /// Admission cost in deficit-round-robin units: the search planner
    /// is an order of magnitude more work than a greedy baseline, and
    /// explain/elastic add simulation on top. The queue charges
    /// tenants by this, so a tenant of expensive searches drains no
    /// faster than a tenant of cheap baseline lookups.
    pub fn cost(&self) -> u64 {
        let planner = if self.planner == "heterog" { 4 } else { 1 };
        let kind = match self.kind {
            JobKind::Plan => 0,
            JobKind::Explain { .. } => 1,
            JobKind::Elastic { .. } => 2,
        };
        planner + kind
    }
}

/// A completed job's payload. `body` is the response JSON; everything
/// that varies per *request* (job id, coalesced flag) travels in
/// response headers so coalesced and memoized repeats stay
/// byte-identical.
#[derive(Debug)]
pub struct JobResult {
    /// Response body (JSON object, no trailing newline).
    pub body: String,
    /// Planner that actually ran (differs from requested when degraded).
    pub planner_used: String,
    /// True when load shedding downgraded the planner.
    pub degraded: bool,
    /// True when the strategy came from the plan memo.
    pub memo_hit: bool,
    /// True when the memo entry was first planted by another tenant.
    pub cross_tenant: bool,
    /// Simulated iteration time of the resulting deployment.
    pub makespan: f64,
    /// Whether the deployment OOMs.
    pub oom: bool,
}

/// Lifecycle of a job.
#[derive(Debug, Clone)]
pub enum JobState {
    /// Admitted, waiting in the tenant queue.
    Queued,
    /// A worker is executing it.
    Running,
    /// Finished successfully.
    Done(Arc<JobResult>),
    /// Execution failed (planner panic, internal error).
    Failed(String),
}

impl JobState {
    /// Status string for the jobs API.
    pub fn status(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done(_) => "done",
            JobState::Failed(_) => "failed",
        }
    }

    /// True once the job reached `Done` or `Failed`.
    pub fn is_terminal(&self) -> bool {
        matches!(self, JobState::Done(_) | JobState::Failed(_))
    }
}

/// One admitted planning job, shared between the admitting connection
/// handler(s), the worker executing it, and event-stream followers.
pub struct Job {
    /// Stable id (`job-xxxxxx`).
    pub id: String,
    /// Coalescing key (see [`JobSpec::coalesce_key`]).
    pub key: u64,
    /// Tenant that *first* submitted it (fairness is charged here).
    pub tenant: String,
    /// The validated request.
    pub spec: JobSpec,
    /// DRR admission cost.
    pub cost: u64,
    state: Mutex<JobState>,
    done: Condvar,
    /// The job's run log (`seq` from 0, no sinks), appended by its run
    /// scope as events are emitted; the `/events` endpoint streams from
    /// here.
    pub events: Arc<RunLog>,
}

impl Job {
    fn new(id: String, tenant: String, spec: JobSpec) -> Self {
        let key = spec.coalesce_key();
        let cost = spec.cost();
        Job {
            id,
            key,
            tenant,
            spec,
            cost,
            state: Mutex::new(JobState::Queued),
            done: Condvar::new(),
            events: Arc::default(),
        }
    }

    /// Current state (cloned snapshot).
    pub fn state(&self) -> JobState {
        lock(&self.state).clone()
    }

    /// Marks the job running.
    pub fn set_running(&self) {
        *lock(&self.state) = JobState::Running;
    }

    /// Terminal success: stores the result and wakes every waiter.
    pub fn complete(&self, result: Arc<JobResult>) {
        *lock(&self.state) = JobState::Done(result);
        self.done.notify_all();
    }

    /// Terminal failure: stores the error and wakes every waiter.
    pub fn fail(&self, error: String) {
        *lock(&self.state) = JobState::Failed(error);
        self.done.notify_all();
    }

    /// Blocks until the job is terminal; returns the result or error.
    pub fn wait(&self) -> Result<Arc<JobResult>, String> {
        let state = self
            .done
            .wait_while(lock(&self.state), |s| !s.is_terminal())
            .unwrap_or_else(PoisonError::into_inner);
        match &*state {
            JobState::Done(r) => Ok(Arc::clone(r)),
            JobState::Failed(e) => Err(e.clone()),
            _ => unreachable!("loop exits only on terminal states"),
        }
    }
}

struct TableInner {
    jobs: HashMap<String, Arc<Job>>,
    /// coalesce key -> id of the in-flight job owning it.
    active: HashMap<u64, String>,
    /// Ids of released finished jobs still in `jobs`, oldest first.
    finished: VecDeque<String>,
    next_id: u64,
}

/// The job registry: id lookup for the jobs API plus the in-flight
/// index that powers coalescing.
pub struct JobTable {
    inner: Mutex<TableInner>,
    retention: usize,
}

impl Default for JobTable {
    fn default() -> Self {
        Self::new()
    }
}

impl JobTable {
    /// An empty table keeping the default daemon's `max_pending`
    /// finished jobs.
    pub fn new() -> Self {
        Self::with_retention(crate::ServeConfig::default().max_pending)
    }

    /// An empty table keeping the last `retention` finished jobs.
    pub fn with_retention(retention: usize) -> Self {
        JobTable {
            inner: Mutex::new(TableInner {
                jobs: HashMap::new(),
                active: HashMap::new(),
                finished: VecDeque::new(),
                next_id: 0,
            }),
            retention,
        }
    }

    /// Finished jobs the table keeps before retiring the oldest.
    pub fn retention(&self) -> usize {
        self.retention
    }

    /// Admits a request: attaches to an identical in-flight job
    /// (returning `(job, true)`), or registers a fresh one
    /// (`(job, false)`), which the caller must then enqueue. A job that
    /// already finished is not joined even before its key is released:
    /// waiters wake on completion, before the worker releases the key.
    pub fn create_or_attach(&self, tenant: &str, spec: JobSpec) -> (Arc<Job>, bool) {
        let key = spec.coalesce_key();
        let mut inner = lock(&self.inner);
        if let Some(id) = inner.active.get(&key) {
            if let Some(job) = inner.jobs.get(id) {
                if !job.state().is_terminal() {
                    return (Arc::clone(job), true);
                }
            }
        }
        inner.next_id += 1;
        let id = format!("job-{:06}", inner.next_id);
        let job = Arc::new(Job::new(id.clone(), tenant.to_string(), spec));
        inner.active.insert(key, id.clone());
        inner.jobs.insert(id, Arc::clone(&job));
        (job, false)
    }

    /// Called once per job when it is terminal: releases the
    /// coalescing key, so later repeats become fresh jobs, and queues
    /// the job for retirement. Past `retention` finished jobs the
    /// oldest is dropped.
    pub fn release(&self, job: &Job) {
        let mut inner = lock(&self.inner);
        if inner.active.get(&job.key).map(String::as_str) == Some(job.id.as_str()) {
            inner.active.remove(&job.key);
        }
        inner.finished.push_back(job.id.clone());
        while inner.finished.len() > self.retention {
            let oldest = inner.finished.pop_front().expect("longer than retention");
            inner.jobs.remove(&oldest);
        }
    }

    /// Drops a job entirely (admission failed; it never ran).
    pub fn forget(&self, job: &Job) {
        let mut inner = lock(&self.inner);
        if inner.active.get(&job.key).map(String::as_str) == Some(job.id.as_str()) {
            inner.active.remove(&job.key);
        }
        inner.jobs.remove(&job.id);
    }

    /// Looks a job up by id.
    pub fn get(&self, id: &str) -> Option<Arc<Job>> {
        lock(&self.inner).jobs.get(id).cloned()
    }

    /// True when `id` names a job this table registered, whether it is
    /// still held or was since retired (or forgotten at admission).
    pub fn assigned(&self, id: &str) -> bool {
        let n = id
            .strip_prefix("job-")
            .and_then(|n| n.parse::<u64>().ok())
            .unwrap_or(0);
        n >= 1 && n <= lock(&self.inner).next_id && format!("job-{n:06}") == id
    }

    /// Jobs currently held: every queued and running job plus at most
    /// `retention` finished ones.
    pub fn len(&self) -> usize {
        lock(&self.inner).jobs.len()
    }

    /// True when the table holds no job.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heterog_cluster::paper_testbed_8gpu;
    use heterog_graph::BenchmarkModel;

    fn spec(planner: &str) -> JobSpec {
        spec_at(planner, 64)
    }

    fn spec_at(planner: &str, batch: u64) -> JobSpec {
        JobSpec {
            kind: JobKind::Plan,
            model: ModelSpec::new(BenchmarkModel::MobileNetV2, batch),
            cluster: paper_testbed_8gpu(),
            planner: planner.to_string(),
            fifo: false,
        }
    }

    fn result() -> Arc<JobResult> {
        Arc::new(JobResult {
            body: "{}".into(),
            planner_used: "CP-AR".into(),
            degraded: false,
            memo_hit: false,
            cross_tenant: false,
            makespan: 0.1,
            oom: false,
        })
    }

    /// What a worker does with a dequeued job.
    fn run_to_done(table: &JobTable, job: &Job) {
        job.set_running();
        job.complete(result());
        table.release(job);
    }

    #[test]
    fn identical_requests_coalesce_until_release() {
        let table = JobTable::new();
        let (a, coalesced_a) = table.create_or_attach("alice", spec("heterog"));
        let (b, coalesced_b) = table.create_or_attach("bob", spec("heterog"));
        assert!(!coalesced_a);
        assert!(coalesced_b, "identical in-flight request must attach");
        assert_eq!(a.id, b.id);

        // A different planner is a different job.
        let (c, coalesced_c) = table.create_or_attach("bob", spec("CP-AR"));
        assert!(!coalesced_c);
        assert_ne!(a.id, c.id);

        // After release, repeats are fresh jobs.
        table.release(&a);
        let (d, coalesced_d) = table.create_or_attach("carol", spec("heterog"));
        assert!(!coalesced_d);
        assert_ne!(a.id, d.id);
    }

    #[test]
    fn finished_jobs_are_not_joined_before_release() {
        let table = JobTable::new();
        let (a, _) = table.create_or_attach("alice", spec("CP-AR"));
        a.set_running();
        a.complete(result());
        // The worker has not released the key yet.
        let (b, coalesced) = table.create_or_attach("bob", spec("CP-AR"));
        assert!(!coalesced, "a finished job must not take new requests");
        assert_ne!(a.id, b.id);
        // The fresh job now owns the key: repeats coalesce onto it, and
        // releasing the old job leaves it in place.
        table.release(&a);
        let (c, coalesced) = table.create_or_attach("carol", spec("CP-AR"));
        assert!(coalesced);
        assert_eq!(b.id, c.id);
    }

    #[test]
    fn cost_charges_search_and_kind() {
        assert_eq!(spec("CP-AR").cost(), 1);
        assert_eq!(spec("heterog").cost(), 4);
        let mut s = spec("heterog");
        s.kind = JobKind::Explain {
            top_k: 3,
            whatif: false,
        };
        assert_eq!(s.cost(), 5);
    }

    #[test]
    fn wait_returns_the_completed_result() {
        let table = JobTable::new();
        let (job, _) = table.create_or_attach("alice", spec("CP-AR"));
        let j = Arc::clone(&job);
        let t = std::thread::spawn(move || j.wait().map(|r| r.body.clone()));
        job.set_running();
        job.complete(result());
        assert_eq!(t.join().unwrap().unwrap(), "{}");
        assert_eq!(job.state().status(), "done");
    }

    #[test]
    fn only_the_last_retention_finished_jobs_are_kept() {
        let bound = 3;
        let table = JobTable::with_retention(bound);
        let (queued, _) = table.create_or_attach("alice", spec_at("CP-AR", 1));
        let (running, _) = table.create_or_attach("alice", spec_at("CP-AR", 2));
        running.set_running();
        let finished: Vec<_> = (0..bound as u64 + 4)
            .map(|i| {
                let (job, coalesced) = table.create_or_attach("bob", spec_at("CP-AR", 10 + i));
                assert!(!coalesced);
                run_to_done(&table, &job);
                job
            })
            .collect();
        assert_eq!(
            table.len(),
            bound + 2,
            "{bound} finished + queued + running"
        );
        assert!(table.get(&queued.id).is_some());
        assert!(table.get(&running.id).is_some());
        let (retired, kept) = finished.split_at(finished.len() - bound);
        for job in retired {
            assert!(table.get(&job.id).is_none(), "{} is retired", job.id);
            assert!(table.assigned(&job.id));
        }
        for job in kept {
            assert!(table.get(&job.id).is_some(), "{} is kept", job.id);
        }
        // A retired job still answers whoever holds it.
        assert_eq!(retired[0].wait().unwrap().body, "{}");

        // Ids never assigned: past the counter, or not in the id format.
        assert!(!table.assigned("job-999999"));
        assert!(!table.assigned("job-0"));
        assert!(!table.assigned("job-1"));
        assert!(!table.assigned("nope"));

        // Coalescing onto an in-flight job still works after retirements,
        // and that job is kept until it finishes.
        let (a, coalesced_a) = table.create_or_attach("alice", spec_at("CP-AR", 99));
        let (b, coalesced_b) = table.create_or_attach("bob", spec_at("CP-AR", 99));
        assert!(!coalesced_a);
        assert!(coalesced_b);
        assert_eq!(a.id, b.id);
        let (c, coalesced_c) = table.create_or_attach("carol", spec_at("CP-AR", 2));
        assert!(coalesced_c, "the running job takes repeats");
        assert_eq!(c.id, running.id);
        run_to_done(&table, &a);
        assert!(
            table.get(&a.id).is_some(),
            "the newest finished job is kept"
        );
        assert_eq!(table.len(), bound + 2);
    }
}
