//! Live terminal progress renderer.
//!
//! An [`EventSink`] that folds the stream into one status line on
//! **stderr** (stdout is reserved for results, so `--progress` cannot
//! change output bytes), redrawn in place with `\r` and throttled to
//! ~10 Hz. Shows phase, completion, a best-makespan sparkline, evals/s,
//! and an ETA extrapolated from [`EventKind::RunStarted`]'s
//! `total_units`.

use std::io::Write;
use std::time::{Duration, Instant};

use crate::event::{Event, EventKind};
use crate::sink::EventSink;

const THROTTLE: Duration = Duration::from_millis(100);
const SPARK_WIDTH: usize = 24;
const SPARK_LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Downsamples `series` to at most `width` buckets (bucket mean) and
/// renders each as a Unicode block scaled between the series min/max.
/// Shared with `heterog-runs`' stored-run renderer.
pub fn sparkline(series: &[f64], width: usize) -> String {
    let finite: Vec<f64> = series.iter().copied().filter(|v| v.is_finite()).collect();
    if finite.is_empty() {
        return String::new();
    }
    let buckets = finite.len().min(width);
    let mut means = Vec::with_capacity(buckets);
    for b in 0..buckets {
        let lo = b * finite.len() / buckets;
        let hi = ((b + 1) * finite.len() / buckets).max(lo + 1);
        means.push(finite[lo..hi].iter().sum::<f64>() / (hi - lo) as f64);
    }
    let min = means.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = means.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let span = (max - min).max(1e-12);
    means
        .iter()
        .map(|v| SPARK_LEVELS[(((v - min) / span) * 7.0).round() as usize])
        .collect()
}

fn fmt_duration(secs: f64) -> String {
    if !secs.is_finite() || secs < 0.0 {
        return "--".into();
    }
    let s = secs.round() as u64;
    if s >= 3600 {
        format!("{}h{:02}m", s / 3600, (s % 3600) / 60)
    } else if s >= 60 {
        format!("{}m{:02}s", s / 60, s % 60)
    } else {
        format!("{s}s")
    }
}

/// The `--progress` renderer. Create with [`ProgressRenderer::new`] and
/// put it among a [`crate::RunLog`]'s sinks.
pub struct ProgressRenderer {
    phase: String,
    total: u64,
    done: u64,
    best: Option<f64>,
    history: Vec<f64>,
    evals: u64,
    started: Instant,
    last_render: Option<Instant>,
    drew_anything: bool,
}

impl Default for ProgressRenderer {
    fn default() -> Self {
        Self::new()
    }
}

impl ProgressRenderer {
    /// A fresh renderer; the clock starts now.
    pub fn new() -> Self {
        Self {
            phase: String::new(),
            total: 0,
            done: 0,
            best: None,
            history: Vec::new(),
            evals: 0,
            started: Instant::now(),
            last_render: None,
            drew_anything: false,
        }
    }

    fn note_best(&mut self, v: f64) {
        if v.is_finite() {
            self.best = Some(self.best.map_or(v, |b: f64| b.min(v)));
            self.history.push(self.best.unwrap());
        }
    }

    /// The status line for the current state (no control characters) —
    /// exposed for tests.
    pub fn line(&self) -> String {
        let elapsed = self.started.elapsed().as_secs_f64().max(1e-9);
        let mut line = String::with_capacity(120);
        if !self.phase.is_empty() {
            line.push_str(&self.phase);
            line.push(' ');
        }
        if self.total > 0 {
            line.push_str(&format!(
                "{}/{} ({:.0}%) ",
                self.done,
                self.total,
                100.0 * self.done as f64 / self.total as f64
            ));
        } else if self.done > 0 {
            line.push_str(&format!("{} ", self.done));
        }
        if let Some(best) = self.best {
            line.push_str(&format!("best {best:.4}s "));
        }
        let spark = sparkline(&self.history, SPARK_WIDTH);
        if !spark.is_empty() {
            line.push_str(&spark);
            line.push(' ');
        }
        if self.evals > 0 {
            line.push_str(&format!("{:.0} evals/s ", self.evals as f64 / elapsed));
        }
        if self.total > 0 && self.done > 0 && self.done < self.total {
            let eta = elapsed * (self.total - self.done) as f64 / self.done as f64;
            line.push_str(&format!("eta {}", fmt_duration(eta)));
        } else if self.total > 0 && self.done >= self.total {
            line.push_str(&format!("done in {}", fmt_duration(elapsed)));
        }
        line.trim_end().to_string()
    }

    fn render(&mut self, force: bool) {
        if !force {
            if let Some(last) = self.last_render {
                if last.elapsed() < THROTTLE {
                    return;
                }
            }
        }
        self.last_render = Some(Instant::now());
        self.drew_anything = true;
        // \x1b[K clears the remainder of a previously longer line.
        eprint!("\r{}\x1b[K", self.line());
        let _ = std::io::stderr().flush();
    }

    /// Persists a one-off notice (fault/repair) on its own line without
    /// disturbing the status line.
    fn notice(&mut self, text: &str) {
        if self.drew_anything {
            eprint!("\r\x1b[K");
        }
        eprintln!("{text}");
        self.render(true);
    }
}

impl EventSink for ProgressRenderer {
    fn on_event(&mut self, e: &Event) {
        match &e.kind {
            EventKind::RunStarted { phase, total_units } => {
                self.phase = phase.clone();
                self.total = *total_units;
                self.done = 0;
                self.started = Instant::now();
            }
            EventKind::SearchIteration {
                visited,
                evals,
                best_makespan,
                ..
            } => {
                self.done = *visited;
                self.evals = *evals;
                self.note_best(*best_makespan);
            }
            EventKind::RlEpisode {
                episode, best_time, ..
            } => {
                self.done = episode + 1;
                self.note_best(*best_time);
            }
            EventKind::StrategyEvaluated { .. } => {
                self.evals += 1;
            }
            EventKind::ElasticIteration {
                iteration,
                makespan,
            } => {
                self.done = iteration + 1;
                if makespan.is_finite() {
                    self.best = Some(*makespan);
                    self.history.push(*makespan);
                }
            }
            EventKind::Fault {
                iteration,
                label,
                applied,
            } => {
                let status = if *applied { "applied" } else { "skipped" };
                self.notice(&format!("fault @{iteration}: {label} ({status})"));
                return;
            }
            EventKind::Repair {
                iteration,
                action,
                degraded_makespan,
                repaired_makespan,
                ..
            } => {
                self.notice(&format!(
                    "repair @{iteration}: {action} {degraded_makespan:.4}s -> {repaired_makespan:.4}s"
                ));
                return;
            }
            _ => {}
        }
        self.render(false);
    }

    fn finish(&mut self) {
        if self.drew_anything {
            self.render(true);
            eprintln!();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparkline_spans_min_to_max() {
        let s = sparkline(&[1.0, 2.0, 3.0, 4.0], 8);
        assert_eq!(s.chars().count(), 4);
        assert_eq!(s.chars().next(), Some('▁'));
        assert_eq!(s.chars().last(), Some('█'));
    }

    #[test]
    fn sparkline_downsamples_to_width() {
        let series: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        assert_eq!(sparkline(&series, 24).chars().count(), 24);
    }

    #[test]
    fn sparkline_ignores_non_finite() {
        assert_eq!(sparkline(&[f64::INFINITY, f64::NAN], 8), "");
        let s = sparkline(&[1.0, f64::INFINITY, 2.0], 8);
        assert_eq!(s.chars().count(), 2);
    }

    #[test]
    fn fmt_duration_units() {
        assert_eq!(fmt_duration(12.0), "12s");
        assert_eq!(fmt_duration(90.0), "1m30s");
        assert_eq!(fmt_duration(3725.0), "1h02m");
        assert_eq!(fmt_duration(f64::NAN), "--");
    }

    #[test]
    fn line_folds_stream_state() {
        let mut p = ProgressRenderer::new();
        p.phase = "plan-search".into();
        p.total = 100;
        p.done = 25;
        p.evals = 50;
        p.note_best(2.0);
        p.note_best(1.5);
        let line = p.line();
        assert!(line.starts_with("plan-search 25/100 (25%)"));
        assert!(line.contains("best 1.5000s"));
        assert!(line.contains("eta "));
    }

    #[test]
    fn best_is_monotone_nonincreasing() {
        let mut p = ProgressRenderer::new();
        p.note_best(2.0);
        p.note_best(3.0);
        assert_eq!(p.best, Some(2.0));
        assert_eq!(p.history, vec![2.0, 2.0]);
    }
}
