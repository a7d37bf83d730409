//! Event types and their JSONL encoding.

use heterog_telemetry::json::{ToJson, Value};

/// One event: a monotone sequence number (assigned under the lock of
/// the run's log, so each stream is gap-free 0..n), a timestamp in
/// seconds since the first run log was made, and the typed payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Position in the stream; assigned at emission, never reused.
    pub seq: u64,
    /// Seconds since the process made its first run log (monotonic
    /// clock).
    pub ts: f64,
    /// The payload.
    pub kind: EventKind,
}

/// The typed payloads the pipeline emits. Hot-path variants are plain
/// numbers (no allocation on emit); strings appear only on rare events
/// (faults, run starts).
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A long phase began: `total_units` of work are coming (0 when
    /// unknown), enabling progress/ETA rendering.
    RunStarted {
        /// Phase label: `plan-search`, `rl-train`, `elastic`, ...
        phase: String,
        /// Expected work units (group visits, episodes, iterations).
        total_units: u64,
    },
    /// One greedy/local-search group visit of the deterministic planner.
    SearchIteration {
        /// Sweep number (0-based).
        pass: u64,
        /// Group visits completed so far (across passes).
        visited: u64,
        /// Candidate evaluations so far in this plan call.
        evals: u64,
        /// Best objective so far (seconds; OOM-inflated when infeasible).
        best_makespan: f64,
        /// Lowest of this visit's simulated candidates' objectives and
        /// pruned candidates' bounds: at most every candidate's
        /// objective, and the objective moved to when the visit moved.
        candidate_makespan: f64,
    },
    /// One REINFORCE episode of the RL agent.
    RlEpisode {
        /// Episode index (0-based, across all graphs).
        episode: u64,
        /// Batch-mean reward (`-sqrt(T)`, x10 on OOM).
        reward: f64,
        /// Moving-average baseline after the update.
        baseline: f64,
        /// Mean per-group policy entropy, nats.
        entropy: f64,
        /// Best sampled iteration time so far, seconds.
        best_time: f64,
    },
    /// One strategy went through compile → schedule → simulate.
    StrategyEvaluated {
        /// Simulated per-iteration time, seconds.
        makespan: f64,
        /// Whether any device overflowed its memory.
        oom: bool,
    },
    /// One simulator run over a placed task graph ("sim epoch").
    SimEpoch {
        /// Tasks (events) processed.
        tasks: u64,
        /// Resulting makespan, seconds.
        makespan: f64,
        /// Devices that overflowed their memory.
        oom_devices: u64,
    },
    /// A device overflowed its memory budget in simulation.
    Oom {
        /// GPU index.
        device: u64,
        /// Simulated peak, bytes.
        peak_bytes: u64,
        /// Device capacity, bytes.
        capacity_bytes: u64,
    },
    /// One elastic training iteration completed.
    ElasticIteration {
        /// Iteration index (0-based).
        iteration: u64,
        /// Makespan charged for this iteration, seconds.
        makespan: f64,
    },
    /// A fault event came due on the elastic timeline.
    Fault {
        /// Iteration it fired at.
        iteration: u64,
        /// Human-readable fault label (`fail:3`, `link:nicout:0.25`...).
        label: String,
        /// Whether it could be applied to the current cluster.
        applied: bool,
    },
    /// The elastic runtime repaired the plan after a fault.
    Repair {
        /// Iteration the repair ran at.
        iteration: u64,
        /// Repair action taken (`full-replan`, `migrate-replicas`...).
        action: String,
        /// Makespan of the carried plan on the degraded cluster.
        degraded_makespan: f64,
        /// Makespan of the repaired plan.
        repaired_makespan: f64,
        /// Fresh evaluations the repair spent.
        repair_evals: u64,
        /// Iterations stalled at the degraded makespan.
        stall_iterations: u64,
    },
    /// The invocation reached a terminal state and its results are
    /// final. Emitted exactly once, last, by the CLI (and any embedder
    /// that wants its runs archived): the run archiver refuses to
    /// materialize a run directory for a stream that never carried one,
    /// so aborted invocations leave nothing behind.
    RunFinished {
        /// Terminal outcome: `ok`, `oom`, or `error`.
        outcome: String,
        /// Final per-iteration makespan, seconds (NaN when the command
        /// has no single-plan makespan, e.g. a failed invocation).
        makespan: f64,
        /// Whether the final plan overflowed device memory.
        oom: bool,
    },
    /// Test/benchmark probe carrying a producer id and the producer's
    /// own gap-free index; also the extension point for external
    /// consumers that need an opaque marker in the stream.
    Probe {
        /// Producer (thread/tenant) identifier.
        producer: u64,
        /// Per-producer emission index.
        index: u64,
    },
}

impl EventKind {
    /// The `type` tag used in the JSONL encoding.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::RunStarted { .. } => "run_started",
            EventKind::SearchIteration { .. } => "search_iteration",
            EventKind::RlEpisode { .. } => "rl_episode",
            EventKind::StrategyEvaluated { .. } => "strategy_evaluated",
            EventKind::SimEpoch { .. } => "sim_epoch",
            EventKind::Oom { .. } => "oom",
            EventKind::ElasticIteration { .. } => "elastic_iteration",
            EventKind::Fault { .. } => "fault",
            EventKind::Repair { .. } => "repair",
            EventKind::RunFinished { .. } => "run_finished",
            EventKind::Probe { .. } => "probe",
        }
    }
}

impl Event {
    /// One self-describing JSON line (no trailing newline):
    /// `{"seq":12,"ts":0.00421,"type":"rl_episode",...}`.
    pub fn to_json_line(&self) -> String {
        self.to_value().to_string()
    }
}

/// `seq`, `ts` (rounded to microseconds), the `type` tag, then the
/// payload's fields in declaration order.
impl ToJson for Event {
    fn to_value(&self) -> Value {
        let mut members = vec![
            ("seq", self.seq.to_value()),
            ("ts", ((self.ts * 1e6).round() / 1e6).to_value()),
            ("type", self.kind.name().to_value()),
        ];
        match &self.kind {
            EventKind::RunStarted { phase, total_units } => members.extend([
                ("phase", phase.to_value()),
                ("total_units", total_units.to_value()),
            ]),
            EventKind::SearchIteration {
                pass,
                visited,
                evals,
                best_makespan,
                candidate_makespan,
            } => members.extend([
                ("pass", pass.to_value()),
                ("visited", visited.to_value()),
                ("evals", evals.to_value()),
                ("best_makespan", best_makespan.to_value()),
                ("candidate_makespan", candidate_makespan.to_value()),
            ]),
            EventKind::RlEpisode {
                episode,
                reward,
                baseline,
                entropy,
                best_time,
            } => members.extend([
                ("episode", episode.to_value()),
                ("reward", reward.to_value()),
                ("baseline", baseline.to_value()),
                ("entropy", entropy.to_value()),
                ("best_time", best_time.to_value()),
            ]),
            EventKind::StrategyEvaluated { makespan, oom } => {
                members.extend([("makespan", makespan.to_value()), ("oom", oom.to_value())])
            }
            EventKind::SimEpoch {
                tasks,
                makespan,
                oom_devices,
            } => members.extend([
                ("tasks", tasks.to_value()),
                ("makespan", makespan.to_value()),
                ("oom_devices", oom_devices.to_value()),
            ]),
            EventKind::Oom {
                device,
                peak_bytes,
                capacity_bytes,
            } => members.extend([
                ("device", device.to_value()),
                ("peak_bytes", peak_bytes.to_value()),
                ("capacity_bytes", capacity_bytes.to_value()),
            ]),
            EventKind::ElasticIteration {
                iteration,
                makespan,
            } => members.extend([
                ("iteration", iteration.to_value()),
                ("makespan", makespan.to_value()),
            ]),
            EventKind::Fault {
                iteration,
                label,
                applied,
            } => members.extend([
                ("iteration", iteration.to_value()),
                ("label", label.to_value()),
                ("applied", applied.to_value()),
            ]),
            EventKind::Repair {
                iteration,
                action,
                degraded_makespan,
                repaired_makespan,
                repair_evals,
                stall_iterations,
            } => members.extend([
                ("iteration", iteration.to_value()),
                ("action", action.to_value()),
                ("degraded_makespan", degraded_makespan.to_value()),
                ("repaired_makespan", repaired_makespan.to_value()),
                ("repair_evals", repair_evals.to_value()),
                ("stall_iterations", stall_iterations.to_value()),
            ]),
            EventKind::RunFinished {
                outcome,
                makespan,
                oom,
            } => members.extend([
                ("outcome", outcome.to_value()),
                ("makespan", makespan.to_value()),
                ("oom", oom.to_value()),
            ]),
            EventKind::Probe { producer, index } => members.extend([
                ("producer", producer.to_value()),
                ("index", index.to_value()),
            ]),
        }
        Value::object(members)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_lines_are_self_describing() {
        let e = Event {
            seq: 7,
            ts: 1.5,
            kind: EventKind::StrategyEvaluated {
                makespan: 0.25,
                oom: false,
            },
        };
        let line = e.to_json_line();
        let v = heterog_telemetry::json::parse(&line).expect("an event line is JSON");
        assert_eq!(v["seq"].as_u64(), Some(7));
        assert_eq!(v["ts"].as_f64(), Some(1.5));
        assert_eq!(v["type"].as_str(), Some("strategy_evaluated"));
        assert_eq!(v["makespan"].as_f64(), Some(0.25));
        assert_eq!(v["oom"].as_bool(), Some(false));
        assert!(
            line.starts_with("{\"seq\":7,\"ts\":1.5,\"type\":"),
            "seq, ts and type lead the line: {line}"
        );
    }

    #[test]
    fn ts_is_rounded_to_microseconds() {
        for (ts, text) in [
            (0.0042101234, "0.00421"),
            (12.0000004, "12.0"),
            (0.0, "0.0"),
        ] {
            let e = Event {
                seq: 0,
                ts,
                kind: EventKind::Probe {
                    producer: 0,
                    index: 0,
                },
            };
            let line = e.to_json_line();
            assert!(line.contains(&format!("\"ts\":{text},")), "{line}");
        }
    }

    #[test]
    fn non_finite_floats_become_null() {
        let e = Event {
            seq: 0,
            ts: 0.0,
            kind: EventKind::RlEpisode {
                episode: 0,
                reward: -1.0,
                baseline: 0.0,
                entropy: 0.5,
                best_time: f64::INFINITY,
            },
        };
        assert!(e.to_json_line().contains("\"best_time\":null"));
    }

    #[test]
    fn labels_are_escaped() {
        let e = Event {
            seq: 0,
            ts: 0.0,
            kind: EventKind::Fault {
                iteration: 3,
                label: "fail:2 (skipped: \"stale\"\n)".into(),
                applied: false,
            },
        };
        let line = e.to_json_line();
        assert!(line.contains("\\\"stale\\\""));
        assert!(line.contains("\\n"));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn every_kind_has_a_distinct_name() {
        let kinds = [
            EventKind::RunStarted {
                phase: "p".into(),
                total_units: 1,
            },
            EventKind::SearchIteration {
                pass: 0,
                visited: 0,
                evals: 0,
                best_makespan: 0.0,
                candidate_makespan: 0.0,
            },
            EventKind::RlEpisode {
                episode: 0,
                reward: 0.0,
                baseline: 0.0,
                entropy: 0.0,
                best_time: 0.0,
            },
            EventKind::StrategyEvaluated {
                makespan: 0.0,
                oom: false,
            },
            EventKind::SimEpoch {
                tasks: 0,
                makespan: 0.0,
                oom_devices: 0,
            },
            EventKind::Oom {
                device: 0,
                peak_bytes: 0,
                capacity_bytes: 0,
            },
            EventKind::ElasticIteration {
                iteration: 0,
                makespan: 0.0,
            },
            EventKind::Fault {
                iteration: 0,
                label: String::new(),
                applied: true,
            },
            EventKind::Repair {
                iteration: 0,
                action: String::new(),
                degraded_makespan: 0.0,
                repaired_makespan: 0.0,
                repair_evals: 0,
                stall_iterations: 0,
            },
            EventKind::RunFinished {
                outcome: "ok".into(),
                makespan: 0.0,
                oom: false,
            },
            EventKind::Probe {
                producer: 0,
                index: 0,
            },
        ];
        let mut names: Vec<&str> = kinds.iter().map(EventKind::name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), kinds.len());
    }
}
