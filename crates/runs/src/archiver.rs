//! The run archiver: an [`EventSink`] that buffers the stream and
//! materializes a run directory when — and only when — the run reached
//! a terminal state.
//!
//! The contract with aborted invocations: the archiver writes nothing
//! unless it saw the closing [`EventKind::RunFinished`] event or the
//! shared [`ArchiveHandle`] was marked finished. A CLI invocation that
//! errors out mid-flight drops its pump, the sink's `finish` runs, sees
//! no terminal marker, and leaves the store untouched — no half-written
//! run directories.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use heterog_events::{Event, EventKind, EventSink, RunManifest};
use heterog_telemetry::json::ToJson;
use heterog_telemetry::{lock, TelemetrySnapshot};

use crate::store::{allocate_run_id, RunParts, RunStore, StoredEvaluation, FLIGHT_FILE};

struct Shared {
    root: PathBuf,
    run_id: String,
    manifest: RunManifest,
    digest_json: Mutex<Option<String>>,
    evaluation: Mutex<Option<StoredEvaluation>>,
    telemetry_json: Mutex<Option<String>>,
    finished: AtomicBool,
    archived: Mutex<Option<PathBuf>>,
}

/// The producer side of an archived run, shared between the command
/// (which knows the result) and the [`RunArchiver`] sink (which owns
/// the buffered stream). Cheap to clone.
#[derive(Clone)]
pub struct ArchiveHandle(Arc<Shared>);

impl ArchiveHandle {
    /// Allocates a run id under `root`. Nothing is written yet.
    pub fn new(root: impl Into<PathBuf>, manifest: RunManifest) -> Self {
        let run_id = allocate_run_id(&manifest);
        ArchiveHandle(Arc::new(Shared {
            root: root.into(),
            run_id,
            manifest,
            digest_json: Mutex::new(None),
            evaluation: Mutex::new(None),
            telemetry_json: Mutex::new(None),
            finished: AtomicBool::new(false),
            archived: Mutex::new(None),
        }))
    }

    /// The allocated run id.
    pub fn run_id(&self) -> &str {
        &self.0.run_id
    }

    /// The run directory this handle will archive into.
    pub fn run_dir(&self) -> PathBuf {
        self.0.root.join(&self.0.run_id)
    }

    /// Where this run's flight-recorder dump should land — inside the
    /// run directory, so a crash dump and its event stream stay
    /// together. Register it with
    /// [`heterog_events::set_default_flight_file`].
    pub fn flight_path(&self) -> PathBuf {
        self.run_dir().join(FLIGHT_FILE)
    }

    /// Attaches the final plan's [`heterog_explain::ReportDigest`].
    pub fn set_digest(&self, digest: &heterog_explain::ReportDigest) {
        *lock(&self.0.digest_json) = Some(digest.to_json());
    }

    /// Attaches the terminal evaluation.
    pub fn set_evaluation(&self, eval: StoredEvaluation) {
        *lock(&self.0.evaluation) = Some(eval);
    }

    /// Marks the run terminal, captures the run's counts
    /// ([`heterog_telemetry::tally::current`]) for `telemetry.json` and
    /// emits the closing [`EventKind::RunFinished`] event. Call this on
    /// the run's thread, after the last result is known and *before*
    /// draining the pump: the archiver only writes for runs that reached
    /// this point.
    pub fn mark_finished(&self, outcome: &str, makespan: f64, oom: bool) {
        let counts = TelemetrySnapshot {
            counters: heterog_telemetry::tally::current(),
            ..TelemetrySnapshot::default()
        };
        *lock(&self.0.telemetry_json) = Some(counts.to_value().to_string_pretty());
        self.0.finished.store(true, Ordering::SeqCst);
        heterog_events::emit(EventKind::RunFinished {
            outcome: outcome.to_string(),
            makespan,
            oom,
        });
    }

    /// The archived run directory, once the sink's `finish` ran.
    pub fn archived_to(&self) -> Option<PathBuf> {
        lock(&self.0.archived).clone()
    }
}

/// The [`EventSink`] end: buffers every event (and gap marker) as its
/// JSON line and, on `finish`, writes the run directory atomically —
/// but only when the stream is terminal (see module docs).
pub struct RunArchiver {
    handle: ArchiveHandle,
    lines: Vec<String>,
    saw_terminal: bool,
}

impl RunArchiver {
    /// A sink archiving into `handle`'s run directory.
    pub fn new(handle: ArchiveHandle) -> Self {
        RunArchiver {
            handle,
            lines: Vec::new(),
            saw_terminal: false,
        }
    }
}

impl EventSink for RunArchiver {
    fn on_event(&mut self, e: &Event) {
        if matches!(e.kind, EventKind::RunFinished { .. }) {
            self.saw_terminal = true;
        }
        self.lines.push(e.to_json_line());
    }

    fn on_gap(&mut self, n: u64) {
        self.lines.push(heterog_events::gap_line(n));
    }

    fn finish(&mut self) {
        let shared = &self.handle.0;
        if !self.saw_terminal && !shared.finished.load(Ordering::SeqCst) {
            // Aborted run: leave nothing behind.
            return;
        }
        let parts = RunParts {
            run_id: shared.run_id.clone(),
            manifest: shared.manifest.clone(),
            lines: std::mem::take(&mut self.lines),
            digest_json: lock(&shared.digest_json).clone(),
            evaluation: lock(&shared.evaluation).clone(),
            telemetry_json: lock(&shared.telemetry_json).take(),
        };
        let store = RunStore::open(shared.root.clone());
        match store.archive(&parts) {
            Ok(dir) => *lock(&shared.archived) = Some(dir),
            Err(e) => eprintln!("run archive failed: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probe(seq: u64) -> Event {
        Event {
            seq,
            ts: seq as f64,
            kind: EventKind::Probe {
                producer: 0,
                index: seq,
            },
        }
    }

    fn temp_root(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("heterog-archiver-{tag}-{}", std::process::id()))
    }

    #[test]
    fn aborted_stream_archives_nothing() {
        let root = temp_root("abort");
        std::fs::remove_dir_all(&root).ok();
        let handle = ArchiveHandle::new(&root, RunManifest::default());
        let mut sink = RunArchiver::new(handle.clone());
        sink.on_event(&probe(0));
        sink.finish();
        assert!(handle.archived_to().is_none());
        assert!(!root.exists(), "aborted run must not create the store");
    }

    #[test]
    fn terminal_event_in_stream_triggers_the_archive() {
        let root = temp_root("terminal");
        std::fs::remove_dir_all(&root).ok();
        let handle = ArchiveHandle::new(&root, RunManifest::default());
        let mut sink = RunArchiver::new(handle.clone());
        sink.on_event(&probe(0));
        sink.on_gap(3);
        sink.on_event(&Event {
            seq: 5,
            ts: 1.0,
            kind: EventKind::RunFinished {
                outcome: "ok".into(),
                makespan: 0.25,
                oom: false,
            },
        });
        sink.finish();
        let dir = handle.archived_to().expect("terminal run must archive");
        let stream = std::fs::read_to_string(dir.join(crate::store::EVENTS_FILE)).unwrap();
        std::fs::remove_dir_all(&root).ok();
        assert!(stream.contains("\"type\":\"gap\",\"missed\":3"));
        assert!(stream.contains("\"type\":\"run_finished\""));
    }

    #[test]
    fn mark_finished_flag_alone_is_terminal() {
        let root = temp_root("flag");
        std::fs::remove_dir_all(&root).ok();
        let handle = ArchiveHandle::new(&root, RunManifest::default());
        // The bus is disabled here, so the emitted RunFinished event is
        // dropped — the flag must carry the terminal signal on its own.
        handle.mark_finished("ok", 0.5, false);
        handle.set_evaluation(StoredEvaluation {
            outcome: "ok".into(),
            makespan: 0.5,
            oom: false,
            samples_per_second: 128.0,
            wall_s: 0.1,
        });
        let mut sink = RunArchiver::new(handle.clone());
        sink.finish();
        let dir = handle.archived_to().expect("flagged run must archive");
        let eval = std::fs::read_to_string(dir.join(crate::store::EVALUATION_FILE)).unwrap();
        std::fs::remove_dir_all(&root).ok();
        assert!(eval.contains("\"makespan\": 0.5"));
    }

    #[test]
    fn telemetry_holds_the_scope_counts_at_mark_finished() {
        static OUTCOMES: heterog_telemetry::Counter =
            heterog_telemetry::Counter::always("heterog_test_archiver_outcomes_total", "test");
        let root = temp_root("scope");
        std::fs::remove_dir_all(&root).ok();
        let handle = ArchiveHandle::new(&root, RunManifest::default());
        OUTCOMES.add(5);
        heterog_telemetry::tally::tally(|| {
            OUTCOMES.add(2);
            handle.mark_finished("ok", 0.5, false);
            OUTCOMES.add(7);
        });
        let mut sink = RunArchiver::new(handle.clone());
        sink.finish();
        let dir = handle.archived_to().expect("flagged run must archive");
        let text = std::fs::read_to_string(dir.join(crate::store::TELEMETRY_FILE)).unwrap();
        std::fs::remove_dir_all(&root).ok();
        let v = heterog_telemetry::json::parse(&text).expect("telemetry.json parses");
        assert_eq!(
            v["counters"]["heterog_test_archiver_outcomes_total"].as_u64(),
            Some(2)
        );
        assert_eq!(v["spans"].as_array().map(|s| s.len()), Some(0));
    }
}
