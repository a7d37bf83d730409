//! The crash flight recorder.
//!
//! A run's [`RunLog`] holds every event it recorded; this module turns
//! the log's last [`DEFAULT_CAPACITY`] events into a post-mortem
//! artifact — a single JSON document combining the run manifest, that
//! event window, the count of earlier events left out, and a full
//! telemetry snapshot — written either on demand ([`dump_flight`], e.g.
//! after an injected elastic fault) or automatically on panic
//! ([`install_panic_hook`]).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{SystemTime, UNIX_EPOCH};

use heterog_telemetry::json_object;

use crate::bus::{window, RunLog, DEFAULT_CAPACITY};
use crate::event::Event;
use crate::manifest::RunManifest;

/// The flight document over `events`, pretty-printed.
fn document(reason: &str, manifest: &RunManifest, events: &[Event]) -> String {
    let (kept, dropped) = window(events, DEFAULT_CAPACITY);
    json_object! {
        "reason" => reason,
        "manifest" => manifest,
        "dropped_events" => dropped,
        "window_len" => kept.len(),
        "events" => kept,
        "telemetry" => &heterog_telemetry::snapshot(),
    }
    .to_string_pretty()
}

/// Builds the flight-recorder document of the run `log` recorded:
/// manifest + last-N event window + dropped counter + telemetry
/// snapshot, pretty-printed. `reason` records why the dump fired
/// (`panic`, `fault-injected`, `requested`).
pub fn flight_json(reason: &str, log: &RunLog, manifest: &RunManifest) -> String {
    log.read(|events| document(reason, manifest, events))
}

/// Writes `contents` to `path`, creating parent directories — a crash
/// dump may land in a run directory that does not exist yet.
fn write(path: &Path, contents: String) -> std::io::Result<PathBuf> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, contents)?;
    Ok(path.to_path_buf())
}

/// Writes the flight document of `log`'s run to `path`. Returns the
/// path on success.
pub fn dump_flight(
    path: &Path,
    reason: &str,
    log: &RunLog,
    manifest: &RunManifest,
) -> std::io::Result<PathBuf> {
    write(path, flight_json(reason, log, manifest))
}

/// `heterog-flight-<unix_ts>.json` inside `dir`: where a run that is
/// not archived dumps its flight recorder.
pub fn default_flight_path(dir: &Path) -> PathBuf {
    let ts = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    dir.join(format!("heterog-flight-{ts}.json"))
}

static HOOK_INSTALLED: AtomicBool = AtomicBool::new(false);
static DUMPING: AtomicBool = AtomicBool::new(false);

/// Installs a panic hook that dumps the flight recorder of `log`'s run,
/// with `manifest`, to `path` before delegating to the previous hook.
/// The hook keeps all three. Only the first call in a process installs
/// a hook; the dump itself is guarded against recursive panics, and the
/// log is read with `try_lock` so a panic under the log's lock cannot
/// deadlock.
pub fn install_panic_hook(log: Arc<RunLog>, manifest: RunManifest, path: PathBuf) {
    if HOOK_INSTALLED.swap(true, Ordering::SeqCst) {
        return;
    }
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if !DUMPING.swap(true, Ordering::SeqCst) {
            let doc = log.try_read(|events| document("panic", &manifest, events));
            match write(&path, doc) {
                Ok(p) => eprintln!("flight recorder written to {}", p.display()),
                Err(e) => eprintln!("flight recorder write failed: {e}"),
            }
            DUMPING.store(false, Ordering::SeqCst);
        }
        prev(info);
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::{emit, record};
    use crate::event::EventKind;
    use heterog_telemetry::json::{self, Value};

    fn manifest(command: &str) -> RunManifest {
        RunManifest {
            command: command.into(),
            model: "resnet50".into(),
            seed: 7,
            ..Default::default()
        }
    }

    fn probe(index: u64) -> EventKind {
        EventKind::Probe { producer: 0, index }
    }

    #[test]
    fn flight_json_carries_manifest_window_and_telemetry() {
        let log = Arc::new(RunLog::default());
        record(&log, || {
            for i in 0..5 {
                emit(probe(i));
            }
        });
        let doc = flight_json("fault-injected", &log, &manifest("elastic"));
        let v = json::parse(&doc).expect("the flight document is JSON");
        assert_eq!(v["reason"].as_str(), Some("fault-injected"));
        assert_eq!(v["manifest"]["command"].as_str(), Some("elastic"));
        assert_eq!(v["dropped_events"].as_u64(), Some(0));
        assert_eq!(v["window_len"].as_u64(), Some(5));
        let events = v["events"].as_array().expect("an event window");
        let indices: Vec<u64> = events.iter().filter_map(|e| e["index"].as_u64()).collect();
        assert_eq!(indices, vec![0, 1, 2, 3, 4]);
        assert!(matches!(v["telemetry"]["counters"], Value::Object(_)));
    }

    /// Past the window, a dump holds the run's newest events and counts
    /// the rest.
    #[test]
    fn flight_window_is_the_last_capacity_events() {
        let log = Arc::new(RunLog::default());
        let n = DEFAULT_CAPACITY as u64 + 3;
        record(&log, || (0..n).for_each(|i| emit(probe(i))));
        let v = json::parse(&flight_json("requested", &log, &manifest("plan"))).unwrap();
        assert_eq!(v["dropped_events"].as_u64(), Some(3));
        assert_eq!(v["window_len"].as_u64(), Some(DEFAULT_CAPACITY as u64));
        let events = v["events"].as_array().expect("an event window");
        assert_eq!(events[0]["seq"].as_u64(), Some(3));
        assert_eq!(events.last().unwrap()["seq"].as_u64(), Some(n - 1));
    }

    /// A dump taken inside a `par_map` item of a recorded run carries
    /// that run's manifest and the events it recorded so far.
    #[test]
    fn a_dump_inside_a_par_map_item_carries_its_run() {
        let log = Arc::new(RunLog::default());
        let items: Vec<u64> = (0..8).collect();
        let docs = record(&log, || {
            heterog_telemetry::par::par_map(&items, |&i| {
                emit(probe(i));
                (i == 5).then(|| flight_json("requested", &log, &manifest("train")))
            })
        });
        let doc = docs.into_iter().flatten().next().expect("item 5 dumped");
        let v = json::parse(&doc).expect("the flight document is JSON");
        assert_eq!(v["manifest"]["command"].as_str(), Some("train"));
        let events = v["events"].as_array().expect("an event window");
        let seqs: Vec<u64> = events.iter().filter_map(|e| e["seq"].as_u64()).collect();
        assert_eq!(seqs, (0..events.len() as u64).collect::<Vec<u64>>());
        assert!(events.iter().any(|e| e["index"].as_u64() == Some(5)));
    }

    #[test]
    fn dump_writes_the_file() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("heterog-flight-test-{}.json", std::process::id()));
        dump_flight(&path, "requested", &RunLog::default(), &manifest("plan")).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let v = json::parse(&body).expect("the dump is JSON");
        assert_eq!(v["reason"].as_str(), Some("requested"));
        assert_eq!(v["events"].as_array(), Some(&[][..]));
    }

    #[test]
    fn default_path_shape() {
        let p = default_flight_path(Path::new("/tmp"));
        let name = p.file_name().unwrap().to_string_lossy().into_owned();
        assert!(name.starts_with("heterog-flight-"));
        assert!(name.ends_with(".json"));
    }
}
