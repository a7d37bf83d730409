//! # heterog-events
//!
//! Structured live-event stream for the HeteroG pipeline: typed events,
//! per-run logs, a bounded process-wide ring, and the three stock ring
//! subscribers — a JSONL sink, a terminal progress renderer, and a
//! crash flight recorder. DESIGN §10 has the schema and the policies.
//!
//! * **Run scopes.** An event emitted inside [`record`] (a served job)
//!   goes to that run's own log, numbered from 0. Only unscoped
//!   emitters (the CLI) reach the ring, its [`EventPump`] and the
//!   flight recorder.
//! * **Nearly free when nothing records.** An unrecorded [`emit_with`]
//!   costs two relaxed atomic loads (plus a thread-local read while a
//!   run scope is open) and never constructs the event; the planner hot
//!   loops emit per strategy evaluation.
//! * **Bounded, never blocking.** The ring is fixed-capacity under a
//!   `Mutex` held for a push/pop only; when full it drops the *oldest*
//!   event and counts it. Subscribers poll cursors ([`Subscription`],
//!   or the pump's sinks via [`EventSink`], which the CLI uses for
//!   `--events-out` / `--progress`) and learn exactly what they missed.
//! * **Self-describing artifacts.** Every event is one JSON line with a
//!   monotone `seq`; a stream starts with a [`RunManifest`] header, so
//!   any `events.jsonl` is reproducible on its own.
//! * **Flight recorder for free.** The ring *is* the last-N window: on
//!   panic ([`install_panic_hook`]) or on demand ([`dump_flight`]) it
//!   is written with the manifest and a telemetry snapshot to
//!   `heterog-flight-<ts>.json`.

pub mod bus;
pub mod event;
pub mod flight;
pub mod manifest;
pub mod progress;
pub mod reader;
pub mod sink;

pub use bus::{
    disable, dropped, emit, emit_with, emitted, enable, enable_with_capacity, record, recording,
    reset, snapshot_ring, subscribe, Subscription, DEFAULT_CAPACITY,
};
pub use event::{gap_line, Event, EventKind};
pub use flight::{
    default_flight_file, default_flight_path, dump_flight, flight_json, install_panic_hook,
    set_default_flight_file,
};
pub use manifest::{clear_manifest, manifest, set_manifest, RunManifest};
pub use progress::{sparkline, ProgressRenderer};
pub use reader::{parse_jsonl, read_jsonl, EventLog};
pub use sink::{EventPump, EventSink, JsonlSink};
