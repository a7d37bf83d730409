//! Event types and their JSONL encoding.

use heterog_telemetry::{json_escape, json_f64};

/// One event on the bus: a monotone sequence number (assigned under the
/// ring lock, so the full stream is gap-free 0..n), a timestamp in
/// seconds since the bus was enabled, and the typed payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Position in the stream; assigned at emission, never reused.
    pub seq: u64,
    /// Seconds since [`crate::enable`] (monotonic clock).
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
        /// Best candidate objective of this visit.
        candidate_makespan: f64,
        /// Process-global eval-cache hits at this point.
        cache_hits: u64,
        /// Process-global eval-cache misses at this point.
        cache_misses: u64,
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
        /// Agent eval-cache hits so far.
        cache_hits: u64,
        /// Agent eval-cache misses so far.
        cache_misses: u64,
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
    /// An incremental re-simulation answered a re-priced copy of a
    /// previously simulated task graph (what-if sweeps, repair scoring,
    /// RL reward probes).
    IncrementalResim {
        /// Tasks re-executed: 0 when the base report was reused, else
        /// `total` (one fresh simulation).
        replayed: u64,
        /// Tasks in the graph.
        total: u64,
        /// Tasks whose duration differs from the base graph's.
        dirty: u64,
        /// Makespan of the perturbed schedule.
        makespan: f64,
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
    /// subscribers that need an opaque marker in the stream.
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
            EventKind::IncrementalResim { .. } => "incremental_resim",
            EventKind::RunFinished { .. } => "run_finished",
            EventKind::Probe { .. } => "probe",
        }
    }
}

impl Event {
    /// One self-describing JSON line (no trailing newline):
    /// `{"seq":12,"ts":0.004210,"type":"rl_episode",...}`.
    pub fn to_json_line(&self) -> String {
        let mut line = format!(
            "{{\"seq\":{},\"ts\":{:.6},\"type\":\"{}\"",
            self.seq,
            self.ts,
            self.kind.name()
        );
        match &self.kind {
            EventKind::RunStarted { phase, total_units } => {
                line.push_str(&format!(
                    ",\"phase\":\"{}\",\"total_units\":{total_units}",
                    json_escape(phase)
                ));
            }
            EventKind::SearchIteration {
                pass,
                visited,
                evals,
                best_makespan,
                candidate_makespan,
                cache_hits,
                cache_misses,
            } => {
                line.push_str(&format!(
                    ",\"pass\":{pass},\"visited\":{visited},\"evals\":{evals},\"best_makespan\":{},\"candidate_makespan\":{},\"cache_hits\":{cache_hits},\"cache_misses\":{cache_misses}",
                    json_f64(*best_makespan),
                    json_f64(*candidate_makespan),
                ));
            }
            EventKind::RlEpisode {
                episode,
                reward,
                baseline,
                entropy,
                best_time,
                cache_hits,
                cache_misses,
            } => {
                line.push_str(&format!(
                    ",\"episode\":{episode},\"reward\":{},\"baseline\":{},\"entropy\":{},\"best_time\":{},\"cache_hits\":{cache_hits},\"cache_misses\":{cache_misses}",
                    json_f64(*reward),
                    json_f64(*baseline),
                    json_f64(*entropy),
                    json_f64(*best_time),
                ));
            }
            EventKind::StrategyEvaluated { makespan, oom } => {
                line.push_str(&format!(
                    ",\"makespan\":{},\"oom\":{oom}",
                    json_f64(*makespan)
                ));
            }
            EventKind::SimEpoch {
                tasks,
                makespan,
                oom_devices,
            } => {
                line.push_str(&format!(
                    ",\"tasks\":{tasks},\"makespan\":{},\"oom_devices\":{oom_devices}",
                    json_f64(*makespan)
                ));
            }
            EventKind::Oom {
                device,
                peak_bytes,
                capacity_bytes,
            } => {
                line.push_str(&format!(
                    ",\"device\":{device},\"peak_bytes\":{peak_bytes},\"capacity_bytes\":{capacity_bytes}"
                ));
            }
            EventKind::ElasticIteration {
                iteration,
                makespan,
            } => {
                line.push_str(&format!(
                    ",\"iteration\":{iteration},\"makespan\":{}",
                    json_f64(*makespan)
                ));
            }
            EventKind::Fault {
                iteration,
                label,
                applied,
            } => {
                line.push_str(&format!(
                    ",\"iteration\":{iteration},\"label\":\"{}\",\"applied\":{applied}",
                    json_escape(label)
                ));
            }
            EventKind::Repair {
                iteration,
                action,
                degraded_makespan,
                repaired_makespan,
                repair_evals,
                stall_iterations,
            } => {
                line.push_str(&format!(
                    ",\"iteration\":{iteration},\"action\":\"{}\",\"degraded_makespan\":{},\"repaired_makespan\":{},\"repair_evals\":{repair_evals},\"stall_iterations\":{stall_iterations}",
                    json_escape(action),
                    json_f64(*degraded_makespan),
                    json_f64(*repaired_makespan),
                ));
            }
            EventKind::IncrementalResim {
                replayed,
                total,
                dirty,
                makespan,
            } => {
                line.push_str(&format!(
                    ",\"replayed\":{replayed},\"total\":{total},\"dirty\":{dirty},\"makespan\":{}",
                    json_f64(*makespan)
                ));
            }
            EventKind::RunFinished {
                outcome,
                makespan,
                oom,
            } => {
                line.push_str(&format!(
                    ",\"outcome\":\"{}\",\"makespan\":{},\"oom\":{oom}",
                    json_escape(outcome),
                    json_f64(*makespan)
                ));
            }
            EventKind::Probe { producer, index } => {
                line.push_str(&format!(",\"producer\":{producer},\"index\":{index}"));
            }
        }
        line.push('}');
        line
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
        assert!(line.starts_with("{\"seq\":7,\"ts\":1.500000,"));
        assert!(line.contains("\"type\":\"strategy_evaluated\""));
        assert!(line.contains("\"makespan\":0.25"));
        assert!(line.contains("\"oom\":false"));
        assert!(line.ends_with('}'));
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
                cache_hits: 0,
                cache_misses: 1,
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
                cache_hits: 0,
                cache_misses: 0,
            },
            EventKind::RlEpisode {
                episode: 0,
                reward: 0.0,
                baseline: 0.0,
                entropy: 0.0,
                best_time: 0.0,
                cache_hits: 0,
                cache_misses: 0,
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
            EventKind::IncrementalResim {
                replayed: 0,
                total: 0,
                dirty: 0,
                makespan: 0.0,
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
