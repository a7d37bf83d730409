//! Run manifests: the self-describing header of every event stream.
//!
//! A manifest records everything needed to reproduce the run that
//! produced an `events.jsonl` or flight-recorder artifact: the command
//! and its full argv, the model/cluster/planner/seed, and the crate
//! version. It is written as the first line of every JSONL stream and
//! embedded in every flight dump.

use heterog_telemetry::json::{self, ToJson, Value};
use heterog_telemetry::json_object;

/// Everything needed to reproduce the run this stream came from.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunManifest {
    /// Subcommand (`plan`, `train`, `elastic`, ...).
    pub command: String,
    /// Full CLI argv as invoked.
    pub argv: Vec<String>,
    /// Model name (`mobilenet_v2`, `bert_large`, ...).
    pub model: String,
    /// Global batch size.
    pub batch_size: u64,
    /// `Cluster::fingerprint()` — hashes device types, memory, links.
    pub cluster_fingerprint: u64,
    /// GPU count in the cluster.
    pub num_devices: u32,
    /// Planner name (`heterog`, `data-parallel`, ...).
    pub planner: String,
    /// RNG seed the run was started with.
    pub seed: u64,
    /// Workspace crate version (`CARGO_PKG_VERSION` of the binary).
    pub version: String,
    /// Wall-clock start, seconds since the Unix epoch.
    pub started_unix: u64,
    /// The flight recorder's window: how many of the run's last events
    /// a flight dump holds.
    pub events_capacity: usize,
}

impl RunManifest {
    /// One self-describing JSON line (no trailing newline), tagged
    /// `"type":"manifest"` so stream consumers can key on it.
    pub fn to_json(&self) -> String {
        self.to_value().to_string()
    }
}

impl ToJson for RunManifest {
    fn to_value(&self) -> Value {
        json_object! {
            "type" => "manifest",
            "command" => &self.command,
            "argv" => &self.argv,
            "model" => &self.model,
            "batch_size" => self.batch_size,
            "cluster_fingerprint" => self.cluster_fingerprint,
            "num_devices" => self.num_devices,
            "planner" => &self.planner,
            "seed" => self.seed,
            "version" => &self.version,
            "started_unix" => self.started_unix,
            "events_capacity" => self.events_capacity,
        }
    }
}

impl RunManifest {
    /// Parses a manifest back out of its [`RunManifest::to_json`] line
    /// (or any JSON object carrying the same fields). Missing optional
    /// fields default; a line that is not a manifest-tagged object is an
    /// error.
    pub fn from_json(line: &str) -> Result<RunManifest, String> {
        let v = json::parse(line).map_err(|e| format!("invalid manifest JSON: {e}"))?;
        if v.get("type").and_then(|t| t.as_str()) != Some("manifest") {
            return Err("not a manifest line (missing \"type\":\"manifest\")".into());
        }
        let s = |key: &str| {
            v.get(key)
                .and_then(|x| x.as_str())
                .unwrap_or_default()
                .to_string()
        };
        let u = |key: &str| v.get(key).and_then(Value::as_u64).unwrap_or(0);
        Ok(RunManifest {
            command: s("command"),
            argv: v
                .get("argv")
                .and_then(|a| a.as_array())
                .map(|a| {
                    a.iter()
                        .filter_map(|x| x.as_str().map(str::to_string))
                        .collect()
                })
                .unwrap_or_default(),
            model: s("model"),
            batch_size: u("batch_size"),
            cluster_fingerprint: u("cluster_fingerprint"),
            num_devices: u("num_devices") as u32,
            planner: s("planner"),
            seed: u("seed"),
            version: s("version"),
            started_unix: u("started_unix"),
            events_capacity: u("events_capacity") as usize,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunManifest {
        RunManifest {
            command: "plan".into(),
            argv: vec!["heterog-cli".into(), "plan".into(), "--model".into()],
            model: "mobilenet_v2".into(),
            batch_size: 64,
            cluster_fingerprint: 0xdead_beef,
            num_devices: 8,
            planner: "heterog".into(),
            seed: 42,
            version: "0.1.0".into(),
            started_unix: 1_700_000_000,
            events_capacity: 16_384,
        }
    }

    #[test]
    fn manifest_json_is_tagged_and_complete() {
        let line = sample().to_json();
        assert!(line.starts_with("{\"type\":\"manifest\""));
        assert!(line.contains("\"command\":\"plan\""));
        assert!(line.contains("\"argv\":[\"heterog-cli\",\"plan\",\"--model\"]"));
        assert!(line.contains("\"model\":\"mobilenet_v2\""));
        assert!(line.contains("\"batch_size\":64"));
        assert!(line.contains(&format!("\"cluster_fingerprint\":{}", 0xdead_beefu64)));
        assert!(line.contains("\"seed\":42"));
        assert!(line.contains("\"events_capacity\":16384"));
        assert!(line.ends_with('}'));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn json_roundtrip_preserves_every_field() {
        let m = sample();
        assert_eq!(RunManifest::from_json(&m.to_json()).unwrap(), m);
    }

    #[test]
    fn fingerprints_above_2_pow_53_survive_a_round_trip() {
        let m = RunManifest {
            cluster_fingerprint: (1 << 53) + 1,
            seed: u64::MAX,
            ..sample()
        };
        let back = RunManifest::from_json(&m.to_json()).unwrap();
        assert_eq!(back.cluster_fingerprint, (1 << 53) + 1);
        assert_eq!(back.seed, u64::MAX);
    }

    #[test]
    fn from_json_rejects_non_manifest_lines() {
        assert!(RunManifest::from_json("{\"type\":\"gap\",\"missed\":3}").is_err());
        assert!(RunManifest::from_json("not json").is_err());
    }
}
