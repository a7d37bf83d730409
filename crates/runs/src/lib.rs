//! `heterog-runs` — the on-disk run store and its query layer.
//!
//! Every planning/training CLI invocation (unless opted out with
//! `--no-archive`) archives itself under `.heterog/runs/<run-id>/`:
//!
//! ```text
//! .heterog/runs/r1754650000-1a2b3c4d/
//!   events.jsonl      # manifest header + the run's full event stream
//!   digest.json       # heterog-explain ReportDigest of the final plan
//!   evaluation.json   # terminal outcome: makespan, OOM, throughput
//!   telemetry.json    # the run's own evaluation counts at mark_finished
//!   flight.json       # only present when the flight recorder dumped
//! ```
//!
//! The write path is [`ArchiveHandle`]: a command (CLI or served job)
//! records its run into a [`heterog_events::RunLog`], attaches its
//! results, calls [`ArchiveHandle::mark_finished`] inside the run's
//! scope and then [`ArchiveHandle::archive`] over the log, which
//! materializes the directory atomically (write to a `.tmp-` sibling,
//! rename into place). Only a command's success path archives, so
//! aborted invocations leave the store untouched.
//!
//! The read path is [`RunStore`] (`list` / `resolve` / `load` / `gc`)
//! plus [`analytics`] (per-run [`TimelinePoint`]s, best-so-far
//! [`search_progress`] series) and [`render_dashboard`] (a
//! self-contained static HTML page). The CLI front-end is
//! `heterog-cli runs list|show|diff|timeline|gc|dashboard`.
//!
//! Run ids are content-addressed: `r<started-unix>-<hash8>` where the
//! hash folds the manifest JSON with the pid and a process-local
//! counter, so concurrent invocations in one store cannot collide.

pub mod analytics;
pub mod archiver;
pub mod dashboard;
pub mod store;

pub use analytics::{search_progress, timeline_point, timelines, TimelinePoint};
pub use archiver::ArchiveHandle;
pub use dashboard::render_dashboard;
pub use store::{
    allocate_run_id, default_location, RunParts, RunStore, RunSummary, StoredEvaluation, StoredRun,
    DIGEST_FILE, EVALUATION_FILE, EVENTS_FILE, FLIGHT_FILE, TELEMETRY_FILE,
};
