//! # heterog-events
//!
//! Structured live-event stream for the HeteroG pipeline: typed events,
//! per-run logs, and the three stock consumers of a run's log — a JSONL
//! sink, a terminal progress renderer, and a crash flight recorder.
//! DESIGN §10 has the schema and the policies.
//!
//! * **One way to record a run.** An event emitted inside [`record`]
//!   (a served job, a CLI invocation) is appended to that run's
//!   [`RunLog`], numbered from 0, also from the `par_map` items the run
//!   fans out to. Outside every run scope nothing records.
//! * **Nearly free when nothing records.** An unrecorded [`emit_with`]
//!   costs one relaxed atomic load (plus a thread-local read while a
//!   run scope is open anywhere) and never constructs the event; the
//!   planner hot loops emit per strategy evaluation.
//! * **Sinks see each event as it is appended.** A log's
//!   [`EventSink`]s (the CLI's `--events-out` [`JsonlSink`] and
//!   `--progress` [`ProgressRenderer`]) run inline under its lock, in
//!   `seq` order, and are flushed by [`RunLog::finish`].
//! * **Self-describing artifacts.** Every event is one JSON line with a
//!   monotone `seq`; a stream starts with a [`RunManifest`] header, so
//!   any `events.jsonl` is reproducible on its own.
//! * **Flight recorder for free.** A run's log already holds its events:
//!   on panic ([`install_panic_hook`]) or on demand ([`dump_flight`])
//!   the last [`DEFAULT_CAPACITY`] of them are written with the
//!   manifest and a telemetry snapshot to `heterog-flight-<ts>.json`
//!   or the run's archive directory.

pub mod bus;
pub mod event;
pub mod flight;
pub mod manifest;
pub mod progress;
pub mod reader;
pub mod sink;

pub use bus::{emit, emit_with, record, recording, RunLog, DEFAULT_CAPACITY};
pub use event::{Event, EventKind};
pub use flight::{default_flight_path, dump_flight, flight_json, install_panic_hook};
pub use manifest::RunManifest;
pub use progress::{sparkline, ProgressRenderer};
pub use reader::{parse_jsonl, read_jsonl, EventLog};
pub use sink::{EventSink, JsonlSink};
