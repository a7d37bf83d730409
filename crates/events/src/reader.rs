//! Reading event streams back: the JSONL decoder.
//!
//! [`JsonlSink`](crate::JsonlSink) writes append-only streams that may
//! end mid-line (the process crashed between `write` and `flush`);
//! streams written by earlier builds may carry `"type":"gap"` markers
//! (a bounded event ring overflowed past the writer); and streams
//! stitched together by external tooling may interleave out-of-order
//! sequence numbers. [`parse_jsonl`] decodes all of that
//! into a well-formed prefix: every event line up to the first
//! undecodable one, plus exact accounting of what was skipped.

use std::path::Path;

use heterog_telemetry::json::{self, Value};

use crate::event::{Event, EventKind};
use crate::manifest::RunManifest;

/// A decoded event stream: the longest well-formed prefix of the input.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EventLog {
    /// The stream's manifest header, when the first line carried one.
    pub manifest: Option<RunManifest>,
    /// Decoded events, in file order.
    pub events: Vec<Event>,
    /// Events lost to ring overflow, summed over the `gap` lines of
    /// streams written by earlier builds (saturating at `u64::MAX`).
    pub missed: u64,
    /// Whether decoding stopped early (truncated final line, malformed
    /// JSON, or an event missing required fields) — the events above
    /// are the prefix before that point.
    pub truncated: bool,
    /// Lines with a `type` tag this decoder does not know (newer
    /// writer); skipped without truncating the stream.
    pub unknown: u64,
    /// Events whose `seq` did not strictly increase over the previous
    /// event (stitched or reordered streams).
    pub out_of_order: u64,
}

impl EventLog {
    /// The terminal [`EventKind::RunFinished`] event, when the stream
    /// carried one — its absence marks a crashed or aborted run.
    pub fn finished(&self) -> Option<&Event> {
        self.events
            .iter()
            .rev()
            .find(|e| matches!(e.kind, EventKind::RunFinished { .. }))
    }
}

/// Why an event line did not decode.
enum Undecodable {
    /// A `type` tag this decoder does not know (a newer writer): the
    /// line is skipped.
    UnknownTag,
    /// A known tag missing a required field: the line was cut mid-write
    /// and the stream truncates there.
    MissingField,
}

fn num(v: &Value, key: &str) -> Result<f64, Undecodable> {
    match v.get(key) {
        Some(Value::Null) => Ok(f64::NAN),
        x => x.and_then(Value::as_f64).ok_or(Undecodable::MissingField),
    }
}

fn uint(v: &Value, key: &str) -> Result<u64, Undecodable> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or(Undecodable::MissingField)
}

fn string(v: &Value, key: &str) -> Result<String, Undecodable> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or(Undecodable::MissingField)
}

fn boolean(v: &Value, key: &str) -> Result<bool, Undecodable> {
    v.get(key)
        .and_then(Value::as_bool)
        .ok_or(Undecodable::MissingField)
}

/// Decodes one event line's payload by its `type` tag.
fn decode_kind(v: &Value, tag: &str) -> Result<EventKind, Undecodable> {
    Ok(match tag {
        "run_started" => EventKind::RunStarted {
            phase: string(v, "phase")?,
            total_units: uint(v, "total_units")?,
        },
        "search_iteration" => EventKind::SearchIteration {
            pass: uint(v, "pass")?,
            visited: uint(v, "visited")?,
            evals: uint(v, "evals")?,
            best_makespan: num(v, "best_makespan")?,
            candidate_makespan: num(v, "candidate_makespan")?,
        },
        "rl_episode" => EventKind::RlEpisode {
            episode: uint(v, "episode")?,
            reward: num(v, "reward")?,
            baseline: num(v, "baseline")?,
            entropy: num(v, "entropy")?,
            best_time: num(v, "best_time")?,
        },
        "strategy_evaluated" => EventKind::StrategyEvaluated {
            makespan: num(v, "makespan")?,
            oom: boolean(v, "oom")?,
        },
        "sim_epoch" => EventKind::SimEpoch {
            tasks: uint(v, "tasks")?,
            makespan: num(v, "makespan")?,
            oom_devices: uint(v, "oom_devices")?,
        },
        "oom" => EventKind::Oom {
            device: uint(v, "device")?,
            peak_bytes: uint(v, "peak_bytes")?,
            capacity_bytes: uint(v, "capacity_bytes")?,
        },
        "elastic_iteration" => EventKind::ElasticIteration {
            iteration: uint(v, "iteration")?,
            makespan: num(v, "makespan")?,
        },
        "fault" => EventKind::Fault {
            iteration: uint(v, "iteration")?,
            label: string(v, "label")?,
            applied: boolean(v, "applied")?,
        },
        "repair" => EventKind::Repair {
            iteration: uint(v, "iteration")?,
            action: string(v, "action")?,
            degraded_makespan: num(v, "degraded_makespan")?,
            repaired_makespan: num(v, "repaired_makespan")?,
            repair_evals: uint(v, "repair_evals")?,
            stall_iterations: uint(v, "stall_iterations")?,
        },
        "run_finished" => EventKind::RunFinished {
            outcome: string(v, "outcome")?,
            makespan: num(v, "makespan")?,
            oom: boolean(v, "oom")?,
        },
        "probe" => EventKind::Probe {
            producer: uint(v, "producer")?,
            index: uint(v, "index")?,
        },
        _ => return Err(Undecodable::UnknownTag),
    })
}

/// Decodes a JSONL event stream into its longest well-formed prefix.
///
/// Tolerates (without truncating): a leading manifest header, `gap`
/// marker lines anywhere, unknown `type` tags, out-of-order sequence
/// numbers, and blank lines. Stops (setting [`EventLog::truncated`]) at
/// the first line that is not valid JSON or is an event missing its
/// required fields — the crash-mid-write case.
pub fn parse_jsonl(text: &str) -> EventLog {
    let mut log = EventLog::default();
    let mut prev_seq: Option<u64> = None;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let Ok(v) = json::parse(line) else {
            log.truncated = true;
            break;
        };
        let Some(tag) = v.get("type").and_then(|t| t.as_str()).map(str::to_string) else {
            log.truncated = true;
            break;
        };
        match tag.as_str() {
            "manifest" => {
                // Only the header position is authoritative; a manifest
                // line later in a stitched stream is skipped.
                if i == 0 && log.manifest.is_none() {
                    match RunManifest::from_json(line) {
                        Ok(m) => log.manifest = Some(m),
                        Err(_) => {
                            log.truncated = true;
                            break;
                        }
                    }
                } else {
                    log.unknown += 1;
                }
            }
            "gap" => {
                log.missed = log.missed.saturating_add(uint(&v, "missed").unwrap_or(0));
            }
            tag => {
                let (Ok(seq), Ok(ts)) = (uint(&v, "seq"), num(&v, "ts")) else {
                    log.truncated = true;
                    break;
                };
                match decode_kind(&v, tag) {
                    Ok(kind) => {
                        if prev_seq.is_some_and(|p| seq <= p) {
                            log.out_of_order += 1;
                        }
                        prev_seq = Some(seq);
                        log.events.push(Event { seq, ts, kind });
                    }
                    Err(Undecodable::UnknownTag) => log.unknown += 1,
                    Err(Undecodable::MissingField) => {
                        log.truncated = true;
                        break;
                    }
                }
            }
        }
    }
    log
}

/// [`parse_jsonl`] over a file.
pub fn read_jsonl(path: &Path) -> std::io::Result<EventLog> {
    Ok(parse_jsonl(&std::fs::read_to_string(path)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input_is_an_empty_log() {
        let log = parse_jsonl("");
        assert_eq!(log, EventLog::default());
    }

    #[test]
    fn known_tag_with_missing_fields_truncates() {
        let log = parse_jsonl("{\"seq\":0,\"ts\":0.0,\"type\":\"fault\",\"iteration\":3}\n");
        assert!(log.truncated);
        assert!(log.events.is_empty());
    }

    #[test]
    fn unknown_tag_is_skipped_not_truncated() {
        let log = parse_jsonl(
            "{\"seq\":0,\"ts\":0.0,\"type\":\"probe\",\"producer\":1,\"index\":0}\n\
             {\"seq\":1,\"ts\":0.1,\"type\":\"tenant_admitted\",\"tenant\":4}\n\
             {\"seq\":2,\"ts\":0.2,\"type\":\"probe\",\"producer\":1,\"index\":1}\n",
        );
        assert!(!log.truncated);
        assert_eq!(log.unknown, 1);
        assert_eq!(log.events.len(), 2);
    }

    #[test]
    fn null_makespan_decodes_to_nan() {
        let log = parse_jsonl(
            "{\"seq\":0,\"ts\":0.0,\"type\":\"strategy_evaluated\",\"makespan\":null,\"oom\":true}\n",
        );
        assert_eq!(log.events.len(), 1);
        match &log.events[0].kind {
            EventKind::StrategyEvaluated { makespan, oom } => {
                assert!(makespan.is_nan());
                assert!(oom);
            }
            other => panic!("wrong kind: {other:?}"),
        }
    }
}
