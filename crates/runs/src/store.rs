//! The on-disk run store: `<root>/<run-id>/` directories, one per
//! archived invocation.
//!
//! A run directory holds:
//!
//! * `events.jsonl` — the [`RunManifest`] header line followed by the
//!   run's event stream, bit-identical to what a `--events-out` sink
//!   wrote (streams written by earlier builds may hold `gap` markers).
//! * `digest.json` — the [`ReportDigest`] of the final plan (compact
//!   JSON, [`ReportDigest::to_json`]), when the command produced one.
//!   This is what `runs diff` compares.
//! * `evaluation.json` — the terminal [`StoredEvaluation`]: outcome,
//!   makespan, throughput, wall time.
//! * `telemetry.json` — the run's own always-on counts (evaluations,
//!   cache and incremental outcomes, ...) when it was marked finished.
//! * `flight.json` — present only when the flight recorder fired
//!   (panic, injected fault, or `--flight-out` routed here).
//!
//! Runs are archived atomically: everything is written into a hidden
//! `.tmp-<id>` sibling first and renamed into place, so a reader never
//! observes a half-written directory and a crash mid-archive leaves
//! only a hidden temp dir behind (cleared by the next archive of the
//! same id, and ignored by [`RunStore::list`]).

use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use heterog_events::{read_jsonl, EventLog, RunManifest};
use heterog_explain::ReportDigest;
use heterog_telemetry::json::{self, ToJson, Value};
use serde::{Deserialize, Serialize};

/// Event stream file name inside a run directory.
pub const EVENTS_FILE: &str = "events.jsonl";
/// Report-digest file name inside a run directory.
pub const DIGEST_FILE: &str = "digest.json";
/// Terminal-evaluation file name inside a run directory.
pub const EVALUATION_FILE: &str = "evaluation.json";
/// Telemetry-snapshot file name inside a run directory.
pub const TELEMETRY_FILE: &str = "telemetry.json";
/// Flight-recorder file name inside a run directory.
pub const FLIGHT_FILE: &str = "flight.json";

/// The default store root: `$HETEROG_RUNS_DIR` when set (and non-empty),
/// else `.heterog/runs` under the current directory.
pub fn default_location() -> PathBuf {
    match std::env::var_os("HETEROG_RUNS_DIR") {
        Some(dir) if !dir.is_empty() => PathBuf::from(dir),
        _ => PathBuf::from(".heterog").join("runs"),
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0100_0000_01b3;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

static RUN_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Allocates a run id of the form `r<started_unix>-<hash8>`.
///
/// The hash mixes the manifest, the process id and a process-local
/// counter, so concurrent invocations (and repeated runs within one
/// second) get distinct ids. Allocation happens at run *start*, before
/// any archive exists, so the crash flight recorder can target the
/// run's future directory.
pub fn allocate_run_id(manifest: &RunManifest) -> String {
    let mut h = FNV_OFFSET;
    h = fnv1a(h, manifest.to_json().as_bytes());
    h = fnv1a(h, &std::process::id().to_le_bytes());
    h = fnv1a(
        h,
        &RUN_COUNTER.fetch_add(1, Ordering::Relaxed).to_le_bytes(),
    );
    format!(
        "r{}-{:08x}",
        manifest.started_unix,
        (h >> 32) as u32 ^ h as u32
    )
}

/// The terminal result of an archived invocation — the coarse scalar
/// record that `runs list` tabulates without replaying the event stream.
///
/// The store reads and writes it with [`StoredEvaluation::to_json`] /
/// [`StoredEvaluation::from_json`]; the serde impls exist only for the
/// benchmark's offline tests, which serialize it through serde_json.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoredEvaluation {
    /// Terminal outcome: `ok`, `oom`, or `error`.
    pub outcome: String,
    /// Final per-iteration makespan, seconds.
    pub makespan: f64,
    /// Whether the final plan overflowed device memory.
    pub oom: bool,
    /// Throughput of the final plan, samples/second.
    #[serde(default)]
    pub samples_per_second: f64,
    /// Wall-clock time of the whole invocation, seconds.
    #[serde(default)]
    pub wall_s: f64,
}

impl StoredEvaluation {
    /// Pretty JSON with the members in declaration order (the run
    /// store's `evaluation.json`).
    pub fn to_json(&self) -> String {
        Value::object([
            ("outcome", self.outcome.to_value()),
            ("makespan", self.makespan.to_value()),
            ("oom", self.oom.to_value()),
            ("samples_per_second", self.samples_per_second.to_value()),
            ("wall_s", self.wall_s.to_value()),
        ])
        .to_string_pretty()
    }

    /// Parses [`StoredEvaluation::to_json`] output. `samples_per_second`
    /// and `wall_s` default to 0 (stores written before they existed);
    /// unknown members are ignored.
    pub fn from_json(text: &str) -> Result<Self, json::Error> {
        let v = json::parse(text)?;
        Ok(StoredEvaluation {
            outcome: v.field("outcome", "a string", Value::as_str)?.to_string(),
            makespan: v.field("makespan", "a number", Value::as_f64)?,
            oom: v.field("oom", "a boolean", Value::as_bool)?,
            samples_per_second: v.field_or("samples_per_second", "a number", 0.0, Value::as_f64)?,
            wall_s: v.field_or("wall_s", "a number", 0.0, Value::as_f64)?,
        })
    }
}

/// Everything one archived run comprises, in memory, ready to write.
#[derive(Debug, Clone)]
pub struct RunParts {
    /// Run id (see [`allocate_run_id`]).
    pub run_id: String,
    /// The stream's manifest header.
    pub manifest: RunManifest,
    /// Event JSON lines, in stream order, without newlines.
    pub lines: Vec<String>,
    /// Serialized [`ReportDigest`], when the command produced one.
    pub digest_json: Option<String>,
    /// Terminal evaluation, when the command produced one.
    pub evaluation: Option<StoredEvaluation>,
    /// The run's counts as telemetry-snapshot JSON, when captured.
    pub telemetry_json: Option<String>,
}

/// One row of [`RunStore::list`]: the cheap metadata of a stored run.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Run id (directory name).
    pub id: String,
    /// The stream's manifest header.
    pub manifest: RunManifest,
    /// Terminal evaluation, when one was stored.
    pub evaluation: Option<StoredEvaluation>,
}

/// One fully loaded run: the decoded event log plus every artifact.
#[derive(Debug)]
pub struct StoredRun {
    /// Run id (directory name).
    pub id: String,
    /// The run directory.
    pub dir: PathBuf,
    /// The decoded event stream (manifest + events + gap accounting).
    pub log: EventLog,
    /// The stored report digest, when present and parseable.
    pub digest: Option<ReportDigest>,
    /// The stored terminal evaluation, when present.
    pub evaluation: Option<StoredEvaluation>,
    /// Whether a flight-recorder dump landed in this run.
    pub has_flight: bool,
}

impl StoredRun {
    /// The run's manifest (every archived run has one — the stream is
    /// written with its header — but a hand-truncated file may not).
    pub fn manifest(&self) -> RunManifest {
        self.log.manifest.clone().unwrap_or_default()
    }
}

/// A content-addressed directory of archived runs.
pub struct RunStore {
    root: PathBuf,
}

impl RunStore {
    /// A store rooted at `root`. No filesystem access happens until an
    /// archive or query; a store over a non-existent directory simply
    /// lists zero runs.
    pub fn open(root: impl Into<PathBuf>) -> Self {
        RunStore { root: root.into() }
    }

    /// The store root.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The directory a run id maps to.
    pub fn run_dir(&self, id: &str) -> PathBuf {
        self.root.join(id)
    }

    /// Writes `parts` as `<root>/<run_id>/`, atomically: files land in a
    /// hidden `.tmp-<id>` sibling which is renamed into place. When the
    /// final directory already exists (a flight dump can land there
    /// first), the files are moved in individually instead.
    pub fn archive(&self, parts: &RunParts) -> std::io::Result<PathBuf> {
        let final_dir = self.run_dir(&parts.run_id);
        let tmp = self.root.join(format!(".tmp-{}", parts.run_id));
        if tmp.exists() {
            std::fs::remove_dir_all(&tmp)?;
        }
        std::fs::create_dir_all(&tmp)?;

        let mut stream =
            String::with_capacity(parts.lines.iter().map(|l| l.len() + 1).sum::<usize>() + 512);
        stream.push_str(&parts.manifest.to_json());
        stream.push('\n');
        for line in &parts.lines {
            stream.push_str(line);
            stream.push('\n');
        }
        std::fs::write(tmp.join(EVENTS_FILE), stream)?;
        if let Some(digest) = &parts.digest_json {
            std::fs::write(tmp.join(DIGEST_FILE), digest)?;
        }
        if let Some(eval) = &parts.evaluation {
            std::fs::write(tmp.join(EVALUATION_FILE), eval.to_json())?;
        }
        if let Some(telemetry) = &parts.telemetry_json {
            std::fs::write(tmp.join(TELEMETRY_FILE), telemetry)?;
        }

        if std::fs::rename(&tmp, &final_dir).is_err() {
            std::fs::create_dir_all(&final_dir)?;
            for entry in std::fs::read_dir(&tmp)? {
                let entry = entry?;
                std::fs::rename(entry.path(), final_dir.join(entry.file_name()))?;
            }
            std::fs::remove_dir_all(&tmp).ok();
        }
        Ok(final_dir)
    }

    /// Every stored run's cheap metadata, sorted by start time (ties
    /// broken by id, so the order is total and deterministic). Hidden
    /// directories (in-flight `.tmp-*` archives) and directories without
    /// a readable manifest header are skipped.
    pub fn list(&self) -> Vec<RunSummary> {
        let mut out = Vec::new();
        let Ok(rd) = std::fs::read_dir(&self.root) else {
            return out;
        };
        for entry in rd.flatten() {
            let id = entry.file_name().to_string_lossy().into_owned();
            if id.starts_with('.') || !entry.path().is_dir() {
                continue;
            }
            let Some(manifest) = read_manifest_header(&entry.path().join(EVENTS_FILE)) else {
                continue;
            };
            let evaluation = std::fs::read_to_string(entry.path().join(EVALUATION_FILE))
                .ok()
                .and_then(|t| StoredEvaluation::from_json(&t).ok());
            out.push(RunSummary {
                id,
                manifest,
                evaluation,
            });
        }
        out.sort_by(|a, b| (a.manifest.started_unix, &a.id).cmp(&(b.manifest.started_unix, &b.id)));
        out
    }

    /// Resolves a (prefix of a) run id to the unique stored run it
    /// names.
    pub fn resolve(&self, prefix: &str) -> Result<String, String> {
        let all = self.list();
        let matches: Vec<&RunSummary> = all.iter().filter(|r| r.id.starts_with(prefix)).collect();
        match matches.len() {
            0 => Err(format!(
                "no run matches {prefix:?} in {}",
                self.root.display()
            )),
            1 => Ok(matches[0].id.clone()),
            n => Err(format!(
                "{prefix:?} is ambiguous: {n} runs match ({} ...)",
                matches
                    .iter()
                    .take(3)
                    .map(|r| r.id.as_str())
                    .collect::<Vec<_>>()
                    .join(", ")
            )),
        }
    }

    /// Loads one run in full: the decoded event stream plus every
    /// stored artifact.
    pub fn load(&self, id: &str) -> Result<StoredRun, String> {
        let dir = self.run_dir(id);
        let events_path = dir.join(EVENTS_FILE);
        let log = read_jsonl(&events_path)
            .map_err(|e| format!("cannot read {}: {e}", events_path.display()))?;
        let digest = std::fs::read_to_string(dir.join(DIGEST_FILE))
            .ok()
            .and_then(|t| ReportDigest::from_json(&t).ok());
        let evaluation = std::fs::read_to_string(dir.join(EVALUATION_FILE))
            .ok()
            .and_then(|t| StoredEvaluation::from_json(&t).ok());
        let has_flight = dir.join(FLIGHT_FILE).exists();
        Ok(StoredRun {
            id: id.to_string(),
            dir,
            log,
            digest,
            evaluation,
            has_flight,
        })
    }

    /// Retention: keeps the newest `keep_per_key` runs of every
    /// `(model, planner)` pair and removes the rest (manifest-aware —
    /// a burst of mobilenet experiments cannot evict the one archived
    /// bert run). Returns the removed ids, sorted.
    pub fn gc(&self, keep_per_key: usize) -> std::io::Result<Vec<String>> {
        use std::collections::HashMap;
        let mut groups: HashMap<(String, String), Vec<RunSummary>> = HashMap::new();
        for r in self.list() {
            groups
                .entry((r.manifest.model.clone(), r.manifest.planner.clone()))
                .or_default()
                .push(r);
        }
        let mut removed = Vec::new();
        for (_key, runs) in groups {
            if runs.len() <= keep_per_key {
                continue;
            }
            // `list` sorts ascending, so the prefix is the oldest runs.
            let cut = runs.len() - keep_per_key;
            for r in &runs[..cut] {
                std::fs::remove_dir_all(self.run_dir(&r.id))?;
                removed.push(r.id.clone());
            }
        }
        removed.sort();
        Ok(removed)
    }
}

/// Reads just the manifest header (first line) of an events file.
fn read_manifest_header(path: &Path) -> Option<RunManifest> {
    let file = std::fs::File::open(path).ok()?;
    let mut first = String::new();
    std::io::BufReader::new(file).read_line(&mut first).ok()?;
    RunManifest::from_json(first.trim_end()).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest(started: u64) -> RunManifest {
        RunManifest {
            command: "plan".into(),
            model: "mobilenet_v2".into(),
            planner: "heterog".into(),
            started_unix: started,
            ..Default::default()
        }
    }

    #[test]
    fn run_ids_are_distinct_and_timestamped() {
        let m = manifest(1_754_600_000);
        let a = allocate_run_id(&m);
        let b = allocate_run_id(&m);
        assert_ne!(a, b, "same manifest must still allocate distinct ids");
        assert!(a.starts_with("r1754600000-"), "{a}");
        assert_eq!(a.len(), "r1754600000-".len() + 8);
    }

    #[test]
    fn default_location_honors_env() {
        // Read-only check of the fallback; the env-var branch is
        // exercised end-to-end by the CLI tests (set per-subprocess, so
        // no cross-test races here).
        if std::env::var_os("HETEROG_RUNS_DIR").is_none() {
            assert_eq!(default_location(), PathBuf::from(".heterog/runs"));
        }
    }

    #[test]
    fn stored_evaluations_load() {
        // Written by an earlier build of the run store.
        let current = r#"{
  "outcome": "ok",
  "makespan": 0.09085629268935382,
  "oom": false,
  "samples_per_second": 704.4091070149868,
  "wall_s": 5.720385746
}"#;
        let e = StoredEvaluation::from_json(current).unwrap();
        assert_eq!(e.makespan, 0.09085629268935382);
        assert_eq!(e.samples_per_second, 704.4091070149868);
        assert_eq!(e.wall_s, 5.720385746);
        assert_eq!(e.to_json(), current);
        // Stores written before throughput and wall time were recorded.
        let older = "{\n  \"outcome\": \"oom\",\n  \"makespan\": 2,\n  \"oom\": true\n}";
        let e = StoredEvaluation::from_json(older).unwrap();
        assert_eq!((e.outcome.as_str(), e.makespan, e.oom), ("oom", 2.0, true));
        assert_eq!((e.samples_per_second, e.wall_s), (0.0, 0.0));
        assert!(StoredEvaluation::from_json(r#"{"outcome":"ok","oom":false}"#).is_err());
        assert!(
            StoredEvaluation::from_json(r#"{"outcome":"ok","makespan":null,"oom":false}"#).is_err()
        );
    }

    #[test]
    fn listing_a_missing_root_is_empty() {
        let store = RunStore::open("/nonexistent/heterog-runs-test");
        assert!(store.list().is_empty());
        assert!(store.resolve("r").is_err());
    }
}
