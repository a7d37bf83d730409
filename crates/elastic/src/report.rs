//! The elastic-run artifact: per-iteration makespan series, fault
//! markers, repair decisions, and the recovery accounting — plus text
//! and JSON renderers.
//!
//! The JSON is a `heterog_telemetry::json::Value` and deliberately
//! excludes wall-clock measurements: a
//! report is a pure function of `(graph, cluster, cost model, planner,
//! fault script, options)`, so two runs with the same `--seed` produce
//! byte-identical JSON. Wall-clock repair latency is measured by the
//! recovery-seconds telemetry histogram and by `exp_elastic_recovery`,
//! never by the canonical artifact.

use heterog_explain::{diff, ReportDigest};
use heterog_telemetry::json::{ToJson, Value};
use heterog_telemetry::json_object;

/// One scheduled fault, as it landed on the run.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultMarker {
    /// Iteration the event fired at.
    pub iteration: u64,
    /// Human-readable event description.
    pub label: String,
    /// False when the event was skipped (e.g. it named a device that no
    /// longer exists); the label then carries the reason.
    pub applied: bool,
}

/// What the repair policy did about one iteration's faults.
#[derive(Debug, Clone, PartialEq)]
pub struct RepairDecision {
    /// Iteration the fault(s) fired at.
    pub iteration: u64,
    /// The fault labels, joined with `"; "`.
    pub fault: String,
    /// Action taken, e.g. `full-replan` or `migrate-replicas`.
    pub action: String,
    /// Steady-state makespan immediately before the fault, seconds.
    pub pre_fault_makespan: f64,
    /// Makespan of the (validity-migrated) old plan on the mutated
    /// cluster — the detected fault impact, seconds.
    pub degraded_makespan: f64,
    /// Makespan of the repaired plan, seconds.
    pub repaired_makespan: f64,
    /// Fresh strategy evaluations the repair consumed (those the
    /// incremental evaluator serves on a fast path are free; this is the
    /// deterministic recovery-effort measure).
    pub repair_evals: u64,
    /// Iterations (beyond the fault iteration itself) the run kept
    /// executing the degraded plan while the repair was computed.
    pub stall_iterations: u64,
    /// Extra seconds spent degraded because repair was not instant:
    /// `(1 + stall_iterations) * max(0, degraded - repaired)`.
    pub recovery_cost_s: f64,
    /// Devices in the cluster after the fault.
    pub devices_after: u32,
    /// Whether the repaired plan overflows any device's memory.
    pub oom_after: bool,
}

/// Everything the elastic runtime learns from one multi-iteration run.
#[derive(Debug, Clone, PartialEq)]
pub struct ElasticRunReport {
    /// Model (graph) name.
    pub model: String,
    /// Global mini-batch size.
    pub batch_size: u64,
    /// Repair policy name.
    pub policy: String,
    /// Planner used for the initial plan (and for full replans).
    pub planner: String,
    /// Iterations executed.
    pub iterations: u64,
    /// The fault timeline in script text form (re-parseable).
    pub faults_script: String,
    /// Healthy steady-state makespan before any fault, seconds.
    pub baseline_makespan: f64,
    /// Steady-state makespan at the end of the run, seconds.
    pub final_makespan: f64,
    /// Simulated makespan of every iteration, seconds (length =
    /// `iterations`).
    pub makespans: Vec<f64>,
    /// Every scheduled fault, applied or skipped.
    pub faults: Vec<FaultMarker>,
    /// One entry per iteration that had applied faults.
    pub decisions: Vec<RepairDecision>,
    /// Sum of the makespan series, seconds.
    pub total_time: f64,
    /// `total_time - iterations * baseline_makespan`: simulated seconds
    /// lost versus a fault-free run (negative when joins outweigh
    /// faults).
    pub time_lost: f64,
    /// Sum of the decisions' `recovery_cost_s`.
    pub recovery_cost_s: f64,
    /// Devices at the end of the run.
    pub final_devices: u32,
    /// Whether the final plan overflows memory.
    pub final_oom: bool,
    /// Coarse digest of the final iteration, for cross-policy diffing
    /// (see [`render_policy_comparison`]).
    pub digest: ReportDigest,
}

impl ElasticRunReport {
    /// The JSON artifact, pretty-printed from [`ToJson::to_value`].
    /// Deterministic: the same seed and inputs yield the same bytes.
    pub fn to_json(&self) -> String {
        self.to_value().to_string_pretty()
    }

    /// A one-screen human rendering: header, fault timeline sparkline,
    /// per-decision lines, and the recovery totals.
    pub fn render_text(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "elastic run — {} (batch {}), policy {}, planner {}, {} iterations\n",
            self.model, self.batch_size, self.policy, self.planner, self.iterations
        ));
        s.push_str(&format!(
            "  baseline makespan {:.4} s; faults: {}\n",
            self.baseline_makespan,
            if self.faults_script.is_empty() {
                "(none)".to_string()
            } else {
                self.faults_script.clone()
            }
        ));
        s.push_str(&format!("  timeline  {}\n", sparkline(&self.makespans)));
        for f in &self.faults {
            if !f.applied {
                s.push_str(&format!(
                    "  i={:<4} fault skipped: {}\n",
                    f.iteration, f.label
                ));
            }
        }
        for d in &self.decisions {
            s.push_str(&format!(
                "  i={:<4} {} -> {}: {:.4} s degraded -> {:.4} s repaired \
                 ({} evals, {} stalled iter, {:.4} s recovery cost, {} GPUs{})\n",
                d.iteration,
                d.fault,
                d.action,
                d.degraded_makespan,
                d.repaired_makespan,
                d.repair_evals,
                d.stall_iterations,
                d.recovery_cost_s,
                d.devices_after,
                if d.oom_after { ", OOM" } else { "" }
            ));
        }
        s.push_str(&format!(
            "  total {:.3} s over {} iterations; {:+.3} s vs fault-free; \
             recovery cost {:.3} s; final makespan {:.4} s on {} GPUs{}\n",
            self.total_time,
            self.iterations,
            self.time_lost,
            self.recovery_cost_s,
            self.final_makespan,
            self.final_devices,
            if self.final_oom { " (OOM!)" } else { "" }
        ));
        s
    }

    /// One-line summary for logs and CI greps.
    pub fn summary(&self) -> String {
        format!(
            "elastic[{}/{}]: {} iters, {} faults, {} repairs, time lost {:+.3} s, \
             recovery cost {:.3} s, final {:.4} s on {} GPUs, oom={}",
            self.model,
            self.policy,
            self.iterations,
            self.faults.iter().filter(|f| f.applied).count(),
            self.decisions.len(),
            self.time_lost,
            self.recovery_cost_s,
            self.final_makespan,
            self.final_devices,
            self.final_oom
        )
    }
}

/// The run as a JSON document, also embedded whole in served elastic
/// bodies.
impl ToJson for ElasticRunReport {
    fn to_value(&self) -> Value {
        let faults = self.faults.iter().map(|f| {
            json_object! { "iteration" => f.iteration, "label" => &f.label, "applied" => f.applied }
        });
        let decisions = self.decisions.iter().map(|d| {
            json_object! {
                "iteration" => d.iteration,
                "fault" => &d.fault,
                "action" => &d.action,
                "pre_fault_makespan" => d.pre_fault_makespan,
                "degraded_makespan" => d.degraded_makespan,
                "repaired_makespan" => d.repaired_makespan,
                "repair_evals" => d.repair_evals,
                "stall_iterations" => d.stall_iterations,
                "recovery_cost_s" => d.recovery_cost_s,
                "devices_after" => d.devices_after,
                "oom_after" => d.oom_after,
            }
        });
        let dg = &self.digest;
        json_object! {
            "model" => &self.model,
            "batch_size" => self.batch_size,
            "policy" => &self.policy,
            "planner" => &self.planner,
            "iterations" => self.iterations,
            "faults_script" => &self.faults_script,
            "baseline_makespan" => self.baseline_makespan,
            "final_makespan" => self.final_makespan,
            "total_time" => self.total_time,
            "time_lost" => self.time_lost,
            "recovery_cost_s" => self.recovery_cost_s,
            "final_devices" => self.final_devices,
            "final_oom" => self.final_oom,
            "faults" => Value::Array(faults.collect()),
            "decisions" => Value::Array(decisions.collect()),
            "makespans" => &self.makespans,
            "digest" => json_object! {
                "makespan" => dg.makespan,
                "mean_gpu_utilization" => dg.mean_gpu_utilization,
                "oom" => dg.oom,
            },
        }
    }
}

/// Unicode sparkline of the makespan series (bucketed to <= 60 columns).
fn sparkline(series: &[f64]) -> String {
    heterog_events::sparkline(series, 60)
}

/// Renders the comparison of two elastic runs of the *same* model and
/// fault timeline under different repair policies: recovery accounting
/// side by side, then the final-state digest diff (via heterog-explain's
/// run-diff machinery).
pub fn render_policy_comparison(a: &ElasticRunReport, b: &ElasticRunReport) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "policy comparison — {} under faults [{}]\n",
        a.model, a.faults_script
    ));
    s.push_str(&format!(
        "  {:<22} {:>12} {:>12} {:>12} {:>8}\n",
        "policy", "time lost", "recovery", "final", "oom"
    ));
    for r in [a, b] {
        s.push_str(&format!(
            "  {:<22} {:>10.3} s {:>10.3} s {:>10.4} s {:>8}\n",
            r.policy, r.time_lost, r.recovery_cost_s, r.final_makespan, r.final_oom
        ));
    }
    let d = diff(&a.digest, &b.digest);
    s.push_str(&format!(
        "  final-state digest diff ({} vs {}): {} regressions, {} improvements, {} unchanged\n",
        a.policy,
        b.policy,
        d.regressions.len(),
        d.improvements.len(),
        d.unchanged
    ));
    for e in d.regressions.iter().chain(&d.improvements) {
        s.push_str(&format!(
            "    {:<24} {:>12.6} -> {:>12.6} ({:+.6})\n",
            e.metric, e.before, e.after, e.delta
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> ElasticRunReport {
        ElasticRunReport {
            model: "mobilenet".into(),
            batch_size: 64,
            policy: "migrate-replicas".into(),
            planner: "CP-AR".into(),
            iterations: 4,
            faults_script: "2:fail:0".into(),
            baseline_makespan: 1.0,
            final_makespan: 1.25,
            makespans: vec![1.0, 1.0, 1.5, 1.25],
            faults: vec![FaultMarker {
                iteration: 2,
                label: "G0 failed".into(),
                applied: true,
            }],
            decisions: vec![RepairDecision {
                iteration: 2,
                fault: "G0 failed".into(),
                action: "migrate-replicas".into(),
                pre_fault_makespan: 1.0,
                degraded_makespan: 1.5,
                repaired_makespan: 1.25,
                repair_evals: 1,
                stall_iterations: 0,
                recovery_cost_s: 0.25,
                devices_after: 7,
                oom_after: false,
            }],
            total_time: 4.75,
            time_lost: 0.75,
            recovery_cost_s: 0.25,
            final_devices: 7,
            final_oom: false,
            digest: ReportDigest {
                model: "mobilenet".into(),
                makespan: 1.25,
                mean_gpu_utilization: 0.5,
                ..ReportDigest::default()
            },
        }
    }

    #[test]
    fn json_is_shaped_and_deterministic() {
        let r = demo();
        let j = r.to_json();
        assert_eq!(j, r.to_json());
        let v = heterog_telemetry::json::parse(&j).expect("the artifact is JSON");
        assert_eq!(v["model"].as_str(), Some("mobilenet"));
        assert_eq!(v["policy"].as_str(), Some("migrate-replicas"));
        assert_eq!(v["faults_script"].as_str(), Some("2:fail:0"));
        assert_eq!(v["decisions"].as_array().map(<[_]>::len), Some(1));
        assert_eq!(v["decisions"][0]["repair_evals"].as_u64(), Some(1));
        let makespans: Vec<f64> = v["makespans"]
            .as_array()
            .expect("a makespan series")
            .iter()
            .filter_map(|m| m.as_f64())
            .collect();
        assert_eq!(makespans, [1.0, 1.0, 1.5, 1.25]);
        assert_eq!(v["digest"]["makespan"].as_f64(), Some(1.25));
        assert_eq!(j, v.to_string_pretty(), "written in the pretty layout");
    }

    #[test]
    fn text_render_names_the_fault_and_totals() {
        let t = demo().render_text();
        assert!(t.contains("G0 failed"));
        assert!(t.contains("migrate-replicas"));
        assert!(t.contains("recovery cost"));
        assert!(demo().summary().contains("1 repairs"));
    }

    #[test]
    fn comparison_renders_both_policies() {
        let a = demo();
        let mut b = demo();
        b.policy = "full-replan".into();
        b.digest.makespan = 1.5;
        let c = render_policy_comparison(&a, &b);
        assert!(c.contains("migrate-replicas"));
        assert!(c.contains("full-replan"));
        assert!(c.contains("digest diff"));
    }

    #[test]
    fn sparkline_spans_the_range() {
        let s = sparkline(&[0.0, 1.0]);
        assert_eq!(s.chars().count(), 2);
        assert!(s.starts_with('▁') && s.ends_with('█'));
        assert_eq!(sparkline(&[]).len(), 0);
        // Flat series renders but never divides by zero.
        assert_eq!(sparkline(&[2.0; 100]).chars().count(), 60);
    }
}
