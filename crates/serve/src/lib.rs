//! `heterog-serve`: the planner as a long-lived, multi-tenant service.
//!
//! The paper's planner is a one-shot offline optimizer: build a graph,
//! search, print a deployment. The ROADMAP's north star is a *service*
//! planning for many tenants' heterogeneous clusters concurrently —
//! this crate is that substrate. It is a small, dependency-free daemon:
//! HTTP/1.1 hand-rolled over [`std::net`] threads, JSON in and out,
//! with the systems machinery a shared planner actually needs:
//!
//! * **Admission control** ([`queue`]) — a bounded queue with
//!   deficit-round-robin fairness across tenants. A tenant flooding the
//!   daemon with expensive searches cannot starve a tenant asking for
//!   one cheap baseline plan; overflow is rejected with `429` instead
//!   of growing without bound.
//! * **Request coalescing** ([`jobs`]) — identical
//!   (model, cluster, planner) requests in flight collapse onto one
//!   planning job whose result fans out to every waiter, byte for
//!   byte. Dashboards and retry loops stop costing extra searches.
//! * **Cross-tenant caching** ([`exec`]) — a plan and its evaluation
//!   memoize on the *content* of the request (model spec + cluster
//!   [`fingerprint`](heterog_cluster::Cluster::fingerprint) + planner +
//!   order policy), never on the tenant — tenants with similar clusters
//!   warm each other, the transfer argument Placeto makes for learned
//!   planners applied to priced state.
//! * **Graceful degradation** ([`exec`]) — when the backlog passes a
//!   threshold the expensive search planner downgrades to the greedy
//!   heuristic baseline. The response records `degraded: true` and
//!   which planner actually ran; under load the service sheds *quality*,
//!   not availability.
//! * **Archiving** — every completed job archives its run log through
//!   [`ArchiveHandle::archive`](heterog_runs::ArchiveHandle::archive),
//!   the call the CLI makes, into the content-addressed run store, so
//!   `heterog-cli runs` browses service traffic exactly like local
//!   invocations.
//!
//! ## Endpoints
//!
//! | Route | Semantics |
//! |---|---|
//! | `POST /v1/plan` | plan a deployment (async: `202` + job id; `"wait": true` blocks) |
//! | `POST /v1/explain` | plan + explain report |
//! | `POST /v1/elastic` | plan + simulated fault/repair run |
//! | `GET /v1/jobs/<id>` | job status + result when done; `410` once retired |
//! | `GET /v1/jobs/<id>/events` | the job's own events, live, as chunked JSONL; `410` once retired |
//! | `GET /healthz` | liveness |
//! | `GET /metrics` | Prometheus text from `heterog-telemetry` |
//!
//! The daemon keeps every queued and running job and the last
//! `max_pending` finished ones ([`jobs`]); the plan memo holds
//! `cache_shards × cache_contexts` plans, least recently used evicted
//! first ([`exec`]). Neither grows with the number of requests
//! served.
//!
//! See `DESIGN.md` §14 for the policy table and `examples/serve_client.rs`
//! for a complete round trip.

pub mod api;
pub mod client;
pub mod exec;
pub mod http;
pub mod jobs;
pub mod queue;
pub mod server;

pub use jobs::{Job, JobKind, JobResult, JobSpec, JobState};
pub use queue::AdmissionQueue;
pub use server::{ServeConfig, ServeStats, Server, DEGRADE_DEPTH, QUANTUM};
