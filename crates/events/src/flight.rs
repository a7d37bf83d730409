//! The crash flight recorder.
//!
//! The event ring *is* the flight recorder: it always holds the last N
//! events. This module turns that window into a post-mortem artifact —
//! a single JSON document combining the run manifest, the event window,
//! the dropped-events counter, and a full telemetry snapshot — written
//! either on demand ([`dump_flight`], e.g. after an injected elastic
//! fault) or automatically on panic ([`install_panic_hook`]).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

use std::sync::Mutex;

use heterog_telemetry::{json_object, lock};

use crate::bus::snapshot_ring;
use crate::manifest::manifest;

/// Builds the flight-recorder document: manifest + last-N event window +
/// dropped counter + telemetry snapshot, pretty-printed. `reason`
/// records why the dump fired (`panic`, `fault-injected`, `requested`).
pub fn flight_json(reason: &str) -> String {
    let (events, dropped) = snapshot_ring();
    json_object! {
        "reason" => reason,
        "manifest" => &manifest(),
        "dropped_events" => dropped,
        "window_len" => events.len(),
        "events" => &events,
        "telemetry" => &heterog_telemetry::snapshot(),
    }
    .to_string_pretty()
}

/// Writes the flight document to `path` (creating parent directories —
/// a crash dump may land in a run directory that does not exist yet).
/// Returns the path on success.
pub fn dump_flight(path: &Path, reason: &str) -> std::io::Result<PathBuf> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, flight_json(reason))?;
    Ok(path.to_path_buf())
}

static FLIGHT_FILE: Mutex<Option<PathBuf>> = Mutex::new(None);

/// Routes *default* flight dumps (the panic hook, elastic's
/// fault-applied auto-dump) to an explicit file — the run archiver
/// points this at `<runs>/<run-id>/flight.json` so crash dumps land
/// inside their run directory instead of littering the CWD with
/// wall-clock-named files. `None` restores the timestamped default.
pub fn set_default_flight_file(path: Option<PathBuf>) {
    *lock(&FLIGHT_FILE) = path;
}

/// The configured default flight file, if one was registered.
pub fn default_flight_file() -> Option<PathBuf> {
    lock(&FLIGHT_FILE).clone()
}

/// The registered flight file when one is set (see
/// [`set_default_flight_file`]); otherwise
/// `heterog-flight-<unix_ts>.json` inside `dir`.
pub fn default_flight_path(dir: &Path) -> PathBuf {
    if let Some(p) = lock(&FLIGHT_FILE).as_ref() {
        return p.clone();
    }
    let ts = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    dir.join(format!("heterog-flight-{ts}.json"))
}

static HOOK_INSTALLED: AtomicBool = AtomicBool::new(false);
static DUMPING: AtomicBool = AtomicBool::new(false);

/// Installs a panic hook that dumps the flight recorder to the current
/// directory before delegating to the previous hook. Idempotent; the
/// dump itself is guarded against recursive panics, and the ring is read
/// with `try_lock` so a panic under the ring lock cannot deadlock.
pub fn install_panic_hook() {
    if HOOK_INSTALLED.swap(true, Ordering::SeqCst) {
        return;
    }
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if !DUMPING.swap(true, Ordering::SeqCst) {
            let path = default_flight_path(Path::new("."));
            match dump_flight(&path, "panic") {
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
    use crate::bus::{emit, enable_with_capacity, reset, TEST_LOCK};
    use crate::event::EventKind;
    use crate::manifest::{clear_manifest, set_manifest, RunManifest};
    use heterog_telemetry::json::{self, Value};

    #[test]
    fn flight_json_carries_manifest_window_and_telemetry() {
        let _g = lock(&TEST_LOCK);
        reset();
        enable_with_capacity(3);
        set_manifest(RunManifest {
            command: "elastic".into(),
            model: "resnet50".into(),
            seed: 7,
            ..Default::default()
        });
        for i in 0..5 {
            emit(EventKind::Probe {
                producer: 0,
                index: i,
            });
        }
        let doc = flight_json("fault-injected");
        reset();
        clear_manifest();
        let v = json::parse(&doc).expect("the flight document is JSON");
        assert_eq!(v["reason"].as_str(), Some("fault-injected"));
        assert_eq!(v["manifest"]["command"].as_str(), Some("elastic"));
        assert_eq!(v["dropped_events"].as_u64(), Some(2));
        assert_eq!(v["window_len"].as_u64(), Some(3));
        let events = v["events"].as_array().expect("an event window");
        assert_eq!(v["window_len"].as_u64(), Some(events.len() as u64));
        // Window holds the *last* three events.
        let indices: Vec<u64> = events.iter().filter_map(|e| e["index"].as_u64()).collect();
        assert!(indices.contains(&4));
        assert!(!indices.contains(&0));
        assert!(matches!(v["telemetry"]["counters"], Value::Object(_)));
    }

    #[test]
    fn flight_json_without_manifest_is_still_valid() {
        let _g = lock(&TEST_LOCK);
        reset();
        clear_manifest();
        let doc = flight_json("requested");
        let v = json::parse(&doc).expect("the flight document is JSON");
        assert_eq!(v.get("manifest"), Some(&Value::Null));
        assert_eq!(v["events"].as_array(), Some(&[][..]));
    }

    #[test]
    fn dump_writes_the_file() {
        let _g = lock(&TEST_LOCK);
        reset();
        let dir = std::env::temp_dir();
        let path = dir.join(format!("heterog-flight-test-{}.json", std::process::id()));
        dump_flight(&path, "requested").unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let v = json::parse(&body).expect("the dump is JSON");
        assert_eq!(v["reason"].as_str(), Some("requested"));
    }

    #[test]
    fn default_path_shape() {
        let _g = lock(&TEST_LOCK);
        set_default_flight_file(None);
        let p = default_flight_path(Path::new("/tmp"));
        let name = p.file_name().unwrap().to_string_lossy().into_owned();
        assert!(name.starts_with("heterog-flight-"));
        assert!(name.ends_with(".json"));
    }

    #[test]
    fn configured_flight_file_overrides_the_default() {
        let _g = lock(&TEST_LOCK);
        let want = PathBuf::from("/tmp/runs/r42/flight.json");
        set_default_flight_file(Some(want.clone()));
        assert_eq!(default_flight_path(Path::new(".")), want);
        assert_eq!(default_flight_file(), Some(want));
        set_default_flight_file(None);
        assert!(default_flight_file().is_none());
    }
}
