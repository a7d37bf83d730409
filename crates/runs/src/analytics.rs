//! Cross-run analytics: fold stored event streams into per-run scalar
//! points and per-`(model, planner)` time series.

use std::collections::BTreeMap;

use heterog_events::{EventKind, EventLog};

use crate::store::StoredRun;

/// One run reduced to the scalars the timeline (and dashboard) plot.
#[derive(Debug, Clone)]
pub struct TimelinePoint {
    /// Run id.
    pub id: String,
    /// Wall-clock start of the run (manifest).
    pub started_unix: u64,
    /// Best feasible makespan the run ever saw, seconds (NaN when the
    /// stream carried no makespan at all).
    pub best_makespan: f64,
    /// Strategy evaluations per second of stream time.
    pub evals_per_sec: f64,
    /// Total evaluations spent on elastic repairs.
    pub repair_evals: u64,
    /// Whether the run ended OOM.
    pub oom: bool,
}

/// The best-so-far makespan series of a stored stream, one sample per
/// progress-bearing event (`search_iteration`, `rl_episode`, feasible
/// `strategy_evaluated`). This is what `runs show` sparklines.
pub fn search_progress(log: &EventLog) -> Vec<f64> {
    let mut best = f64::INFINITY;
    let mut series = Vec::new();
    for e in &log.events {
        let v = match &e.kind {
            EventKind::SearchIteration { best_makespan, .. } => *best_makespan,
            EventKind::RlEpisode { best_time, .. } => *best_time,
            EventKind::StrategyEvaluated { makespan, oom } if !*oom => *makespan,
            _ => continue,
        };
        if v.is_finite() {
            best = best.min(v);
        }
        if best.is_finite() {
            series.push(best);
        }
    }
    series
}

/// Folds one stored run into its [`TimelinePoint`].
pub fn timeline_point(run: &StoredRun) -> TimelinePoint {
    let manifest = run.manifest();
    let mut best = f64::INFINITY;
    let mut evals = 0u64;
    let mut evaluated = 0u64;
    let mut repair_evals = 0u64;
    let mut last_ts = 0.0f64;
    let mut oom = false;
    let mut note = |v: f64| {
        if v.is_finite() {
            best = best.min(v);
        }
    };
    for e in &run.log.events {
        last_ts = last_ts.max(e.ts);
        match &e.kind {
            EventKind::SearchIteration {
                evals: ev,
                best_makespan,
                ..
            } => {
                evals = *ev;
                note(*best_makespan);
            }
            EventKind::RlEpisode { best_time, .. } => note(*best_time),
            EventKind::StrategyEvaluated { makespan, oom } => {
                evaluated += 1;
                if !*oom {
                    note(*makespan);
                }
            }
            EventKind::Repair {
                repair_evals: r, ..
            } => repair_evals += r,
            EventKind::RunFinished {
                makespan, oom: o, ..
            } => {
                note(*makespan);
                oom |= o;
            }
            _ => {}
        }
    }
    if let Some(eval) = &run.evaluation {
        if eval.makespan.is_finite() {
            best = best.min(eval.makespan);
        }
        oom |= eval.oom;
    }
    let evals = evals.max(evaluated);
    TimelinePoint {
        id: run.id.clone(),
        started_unix: manifest.started_unix,
        best_makespan: if best.is_finite() { best } else { f64::NAN },
        evals_per_sec: if last_ts > 0.0 {
            evals as f64 / last_ts
        } else {
            0.0
        },
        repair_evals,
        oom,
    }
}

/// Groups runs into per-`(model, planner)` series, each sorted by start
/// time (ties broken by id). Keys come out sorted, so rendering is
/// deterministic.
pub fn timelines(runs: &[StoredRun]) -> Vec<((String, String), Vec<TimelinePoint>)> {
    let mut map: BTreeMap<(String, String), Vec<TimelinePoint>> = BTreeMap::new();
    for run in runs {
        let m = run.manifest();
        map.entry((m.model, m.planner))
            .or_default()
            .push(timeline_point(run));
    }
    map.into_iter()
        .map(|(key, mut points)| {
            points.sort_by(|a, b| (a.started_unix, &a.id).cmp(&(b.started_unix, &b.id)));
            (key, points)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use heterog_events::parse_jsonl;

    fn stream(lines: &[&str]) -> EventLog {
        parse_jsonl(&(lines.join("\n") + "\n"))
    }

    #[test]
    fn search_progress_is_monotone_nonincreasing() {
        let log = stream(&[
            r#"{"seq":0,"ts":0.1,"type":"strategy_evaluated","makespan":0.5,"oom":false}"#,
            r#"{"seq":1,"ts":0.2,"type":"strategy_evaluated","makespan":0.8,"oom":false}"#,
            r#"{"seq":2,"ts":0.3,"type":"strategy_evaluated","makespan":0.25,"oom":true}"#,
            r#"{"seq":3,"ts":0.4,"type":"strategy_evaluated","makespan":0.3,"oom":false}"#,
        ]);
        let series = search_progress(&log);
        // The OOM candidate is excluded; best-so-far never rises.
        assert_eq!(series, vec![0.5, 0.5, 0.3]);
    }

    #[test]
    fn timeline_point_folds_the_stream() {
        let log = stream(&[
            r#"{"seq":0,"ts":0.5,"type":"search_iteration","pass":0,"visited":4,"evals":40,"best_makespan":0.2,"candidate_makespan":0.3}"#,
            r#"{"seq":1,"ts":1.0,"type":"repair","iteration":9,"action":"full-replan","degraded_makespan":0.4,"repaired_makespan":0.2,"repair_evals":7,"stall_iterations":1}"#,
            r#"{"seq":2,"ts":2.0,"type":"run_finished","outcome":"ok","makespan":0.2,"oom":false}"#,
        ]);
        let run = StoredRun {
            id: "r1-x".into(),
            dir: std::path::PathBuf::new(),
            log,
            digest: None,
            evaluation: None,
            has_flight: false,
        };
        let p = timeline_point(&run);
        assert_eq!(p.best_makespan, 0.2);
        assert_eq!(p.repair_evals, 7);
        assert!((p.evals_per_sec - 20.0).abs() < 1e-9);
        assert!(!p.oom);
    }

    /// Streams written while events still carried eval-cache counters
    /// and re-simulation lines load: the extra fields are ignored and
    /// the retired event kind counts as unknown.
    #[test]
    fn logs_with_retired_fields_and_kinds_still_load() {
        let log = stream(&[
            r#"{"seq":0,"ts":0.5,"type":"search_iteration","pass":0,"visited":4,"evals":40,"best_makespan":0.3,"candidate_makespan":0.4,"cache_hits":0,"cache_misses":0}"#,
            r#"{"seq":1,"ts":0.75,"type":"incremental_resim","replayed":0,"total":4096,"dirty":0,"makespan":0.35}"#,
            r#"{"seq":2,"ts":1.0,"type":"rl_episode","episode":0,"reward":-0.5,"baseline":-0.5,"entropy":1.5,"best_time":0.25,"cache_hits":6,"cache_misses":44}"#,
            r#"{"seq":3,"ts":2.0,"type":"run_finished","outcome":"ok","makespan":0.25,"oom":false}"#,
        ]);
        assert!(!log.truncated);
        assert_eq!((log.events.len(), log.unknown), (3, 1));
        assert_eq!(search_progress(&log), vec![0.3, 0.25]);
        let run = StoredRun {
            id: "r0-old".into(),
            dir: std::path::PathBuf::new(),
            log,
            digest: None,
            evaluation: None,
            has_flight: false,
        };
        let p = timeline_point(&run);
        assert_eq!(p.best_makespan, 0.25);
        assert!((p.evals_per_sec - 20.0).abs() < 1e-9);
    }
}
