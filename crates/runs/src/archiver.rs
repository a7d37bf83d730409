//! The write path: an [`ArchiveHandle`] collects what a run produced
//! and, once the run is finished, writes its run directory from the
//! run's [`RunLog`].
//!
//! The contract with aborted invocations: a run directory is written
//! only by [`ArchiveHandle::archive`], which a command calls on its
//! success path after [`ArchiveHandle::mark_finished`]. A CLI invocation
//! that errors out mid-flight never gets there and leaves the store
//! untouched — no half-written run directories.

use std::path::PathBuf;

use heterog_events::{Event, EventKind, RunLog, RunManifest};
use heterog_telemetry::json::ToJson;
use heterog_telemetry::TelemetrySnapshot;

use crate::store::{allocate_run_id, RunParts, RunStore, StoredEvaluation, FLIGHT_FILE};

/// What an archived run stores besides its events: its manifest and
/// run id, and the results its command attaches.
pub struct ArchiveHandle {
    root: PathBuf,
    run_id: String,
    manifest: RunManifest,
    digest_json: Option<String>,
    evaluation: Option<StoredEvaluation>,
    telemetry_json: Option<String>,
}

impl ArchiveHandle {
    /// Allocates a run id under `root`. Nothing is written yet.
    pub fn new(root: impl Into<PathBuf>, manifest: RunManifest) -> Self {
        ArchiveHandle {
            root: root.into(),
            run_id: allocate_run_id(&manifest),
            manifest,
            digest_json: None,
            evaluation: None,
            telemetry_json: None,
        }
    }

    /// The allocated run id.
    pub fn run_id(&self) -> &str {
        &self.run_id
    }

    /// The run directory this handle will archive into.
    pub fn run_dir(&self) -> PathBuf {
        self.root.join(&self.run_id)
    }

    /// Where this run's flight-recorder dump should land — inside the
    /// run directory, so a crash dump and its event stream stay
    /// together.
    pub fn flight_path(&self) -> PathBuf {
        self.run_dir().join(FLIGHT_FILE)
    }

    /// Attaches the final plan's [`heterog_explain::ReportDigest`].
    pub fn set_digest(&mut self, digest: &heterog_explain::ReportDigest) {
        self.digest_json = Some(digest.to_json());
    }

    /// Attaches the terminal evaluation.
    pub fn set_evaluation(&mut self, eval: StoredEvaluation) {
        self.evaluation = Some(eval);
    }

    /// Captures the run's counts ([`heterog_telemetry::tally::current`])
    /// for `telemetry.json` and emits the closing
    /// [`EventKind::RunFinished`] event. Call this inside the run's
    /// scope, after the last result is known.
    pub fn mark_finished(&mut self, outcome: &str, makespan: f64, oom: bool) {
        let counts = TelemetrySnapshot {
            counters: heterog_telemetry::tally::current(),
            ..TelemetrySnapshot::default()
        };
        self.telemetry_json = Some(counts.to_value().to_string_pretty());
        heterog_events::emit(EventKind::RunFinished {
            outcome: outcome.to_string(),
            makespan,
            oom,
        });
    }

    /// Writes the run directory, atomically, from `log`'s events and
    /// what this handle collected. Returns the directory.
    pub fn archive(&self, log: &RunLog) -> std::io::Result<PathBuf> {
        let parts = RunParts {
            run_id: self.run_id.clone(),
            manifest: self.manifest.clone(),
            lines: log.read(|events| events.iter().map(Event::to_json_line).collect()),
            digest_json: self.digest_json.clone(),
            evaluation: self.evaluation.clone(),
            telemetry_json: self.telemetry_json.clone(),
        };
        RunStore::open(self.root.clone()).archive(&parts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn temp_root(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("heterog-archiver-{tag}-{}", std::process::id()))
    }

    fn probe(index: u64) -> EventKind {
        EventKind::Probe { producer: 0, index }
    }

    #[test]
    fn aborted_stream_archives_nothing() {
        let root = temp_root("abort");
        std::fs::remove_dir_all(&root).ok();
        let handle = ArchiveHandle::new(&root, RunManifest::default());
        let log = Arc::new(RunLog::default());
        heterog_events::record(&log, || heterog_events::emit(probe(0)));
        drop(handle);
        assert!(!root.exists(), "aborted run must not create the store");
    }

    /// The archived stream is the run's log line for line, closed by the
    /// `run_finished` event `mark_finished` recorded into it, and the
    /// evaluation lands next to it.
    #[test]
    fn archive_writes_the_run_log_after_mark_finished() {
        let root = temp_root("log");
        std::fs::remove_dir_all(&root).ok();
        let mut handle = ArchiveHandle::new(&root, RunManifest::default());
        let log = Arc::new(RunLog::default());
        heterog_events::record(&log, || {
            heterog_events::emit(probe(0));
            handle.mark_finished("ok", 0.5, false);
        });
        handle.set_evaluation(StoredEvaluation {
            outcome: "ok".into(),
            makespan: 0.5,
            oom: false,
            samples_per_second: 128.0,
            wall_s: 0.1,
        });
        let dir = handle.archive(&log).expect("archive");
        assert_eq!(dir, handle.run_dir());
        let stream = std::fs::read_to_string(dir.join(crate::store::EVENTS_FILE)).unwrap();
        let eval = std::fs::read_to_string(dir.join(crate::store::EVALUATION_FILE)).unwrap();
        std::fs::remove_dir_all(&root).ok();
        let mut want = RunManifest::default().to_json() + "\n";
        log.read(|events| {
            assert!(matches!(events[1].kind, EventKind::RunFinished { .. }));
            for e in events {
                want.push_str(&(e.to_json_line() + "\n"));
            }
        });
        assert_eq!(stream, want);
        assert!(eval.contains("\"makespan\": 0.5"));
    }

    /// A store that cannot be written reports the error, so CLI and
    /// serve can say the run was not archived.
    #[test]
    fn archive_into_an_unwritable_store_fails() {
        let root = temp_root("unwritable");
        std::fs::remove_dir_all(&root).ok();
        std::fs::write(&root, "a file, not a store").unwrap();
        let handle = ArchiveHandle::new(&root, RunManifest::default());
        let result = handle.archive(&RunLog::default());
        std::fs::remove_file(&root).ok();
        assert!(result.is_err(), "{result:?}");
    }

    #[test]
    fn telemetry_holds_the_scope_counts_at_mark_finished() {
        static OUTCOMES: heterog_telemetry::Counter =
            heterog_telemetry::Counter::always("heterog_test_archiver_outcomes_total", "test");
        let root = temp_root("scope");
        std::fs::remove_dir_all(&root).ok();
        let mut handle = ArchiveHandle::new(&root, RunManifest::default());
        OUTCOMES.add(5);
        heterog_telemetry::tally::tally(|| {
            OUTCOMES.add(2);
            handle.mark_finished("ok", 0.5, false);
            OUTCOMES.add(7);
        });
        let dir = handle.archive(&RunLog::default()).expect("archive");
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
