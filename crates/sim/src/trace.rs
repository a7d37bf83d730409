//! Chrome-tracing export.
//!
//! Serializes an executed schedule into the `chrome://tracing` /
//! Perfetto JSON array format: one complete event (`"ph": "X"`) per
//! task, metadata events (`"ph": "M"`) naming the process and every
//! GPU/link track, flow arrows (`"ph": "s"` / `"f"`) following tensors
//! across devices through transfer tasks, and a cumulative
//! `transferred_bytes` counter series (`"ph": "C"`). Handy for
//! eyeballing computation/communication overlap the way the paper's
//! Fig. 1/2 timelines do.

use heterog_sched::{Proc, Schedule, TaskGraph};
use heterog_telemetry::json_escape;

/// Trace tid of a processor: GPUs use their id, links sit at 1000+.
fn proc_tid(p: Proc) -> u64 {
    match p {
        Proc::Gpu(g) => g as u64,
        Proc::Link(l) => 1000 + l as u64,
    }
}

/// Seconds -> integer-or-decimal microsecond timestamp literal.
fn us(seconds: f64) -> f64 {
    seconds * 1e6
}

/// Renders the schedule as a Chrome-tracing JSON string (a flat event
/// array, which both `chrome://tracing` and Perfetto accept). Events are
/// built as strings directly — the schema is fixed and flat, and this
/// keeps the exporter dependency-free.
///
/// Panics unless `s` holds a start and a finish time for every task of
/// `tg`; an evaluation served by the eval cache has none.
pub fn chrome_trace_json(tg: &TaskGraph, s: &Schedule) -> String {
    s.assert_covers(tg.len());
    let mut events = Vec::with_capacity(2 * tg.len() + 2 * tg.num_procs() + 2);

    // Track metadata: one named process, one named thread per GPU and
    // per link. sort_index keeps GPUs above links in the Perfetto UI.
    events.push(format!(
        r#"{{"name":"process_name","ph":"M","pid":0,"tid":0,"args":{{"name":"heterog simulator: {}"}}}}"#,
        json_escape(&tg.name)
    ));
    for g in 0..tg.num_gpus {
        events.push(format!(
            r#"{{"name":"thread_name","ph":"M","pid":0,"tid":{g},"args":{{"name":"GPU{g}"}}}}"#
        ));
        events.push(format!(
            r#"{{"name":"thread_sort_index","ph":"M","pid":0,"tid":{g},"args":{{"sort_index":{g}}}}}"#
        ));
    }
    for l in 0..tg.num_links {
        let tid = 1000 + l as u64;
        events.push(format!(
            r#"{{"name":"thread_name","ph":"M","pid":0,"tid":{tid},"args":{{"name":"Link{l}"}}}}"#
        ));
        events.push(format!(
            r#"{{"name":"thread_sort_index","ph":"M","pid":0,"tid":{tid},"args":{{"sort_index":{tid}}}}}"#
        ));
    }

    // One complete event per task, on its processor's track
    // (microsecond timestamps, as the format expects).
    for (id, task) in tg.iter() {
        events.push(format!(
            r#"{{"name":"{}","cat":"{}","ph":"X","ts":{},"dur":{},"pid":0,"tid":{},"args":{{"kind":"{}"}}}}"#,
            json_escape(&tg.task_name(id).to_string()),
            if task.proc.is_link() { "comm" } else { "compute" },
            us(s.start[id.index()]),
            us(task.duration),
            proc_tid(task.proc),
            json_escape(task.kind.mnemonic()),
        ));
    }

    // Flow arrows through every transfer task: producer -> transfer and
    // transfer -> consumer, so cross-device tensor movement reads as
    // arrows between tracks. A multi-hop path chains naturally because
    // each hop is itself a transfer task.
    let mut flow_id = 0u64;
    for (id, task) in tg.iter() {
        if !task.proc.is_link() {
            continue;
        }
        let tid = proc_tid(task.proc);
        for &p in tg.preds(id) {
            flow_id += 1;
            events.push(format!(
                r#"{{"name":"xfer","cat":"flow","ph":"s","id":{flow_id},"ts":{},"pid":0,"tid":{}}}"#,
                us(s.finish[p.index()]),
                proc_tid(tg.task(p).proc),
            ));
            events.push(format!(
                r#"{{"name":"xfer","cat":"flow","ph":"f","bp":"e","id":{flow_id},"ts":{},"pid":0,"tid":{tid}}}"#,
                us(s.start[id.index()]),
            ));
        }
        for &c in tg.succs(id) {
            if tg.task(c).proc.is_link() {
                continue; // next hop draws its own incoming arrow
            }
            flow_id += 1;
            events.push(format!(
                r#"{{"name":"xfer","cat":"flow","ph":"s","id":{flow_id},"ts":{},"pid":0,"tid":{tid}}}"#,
                us(s.finish[id.index()]),
            ));
            events.push(format!(
                r#"{{"name":"xfer","cat":"flow","ph":"f","bp":"e","id":{flow_id},"ts":{},"pid":0,"tid":{}}}"#,
                us(s.start[c.index()]),
                proc_tid(tg.task(c).proc),
            ));
        }
    }

    // Cumulative transferred-bytes counter, stepped at each transfer
    // completion.
    let mut completions: Vec<(f64, u64)> = tg
        .iter()
        .filter(|(_, t)| t.proc.is_link())
        .map(|(id, t)| (s.finish[id.index()], t.output_bytes))
        .collect();
    completions.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total_bytes = 0u64;
    for (finish, bytes) in completions {
        total_bytes += bytes;
        events.push(format!(
            r#"{{"name":"transferred_bytes","ph":"C","pid":0,"tid":0,"ts":{},"args":{{"bytes":{total_bytes}}}}}"#,
            us(finish),
        ));
    }

    format!("[{}]", events.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;
    use heterog_graph::OpKind;
    use heterog_sched::{list_schedule, OrderPolicy, Task, TaskGraph};
    use heterog_telemetry::json;

    fn demo() -> (TaskGraph, Schedule) {
        let mut tg = TaskGraph::new("t", 2, 1);
        let a =
            tg.add_task(Task::new("a", OpKind::Conv2D, Proc::Gpu(0), 1.0).with_output_bytes(64));
        let x =
            tg.add_task(Task::new("x", OpKind::Transfer, Proc::Link(0), 0.5).with_output_bytes(64));
        let b = tg.add_task(Task::new("b", OpKind::Conv2D, Proc::Gpu(1), 1.0));
        tg.add_dep(a, x);
        tg.add_dep(x, b);
        let s = list_schedule(&tg, &OrderPolicy::RankBased);
        (tg, s)
    }

    #[test]
    #[should_panic(expected = "schedule has 0 task times, task graph has 3 tasks")]
    fn a_schedule_without_task_times_is_named() {
        let (tg, mut s) = demo();
        s.start.clear();
        s.finish.clear();
        chrome_trace_json(&tg, &s);
    }

    #[test]
    fn trace_is_valid_json_with_all_tasks() {
        let (tg, s) = demo();
        let json = chrome_trace_json(&tg, &s);
        let v = json::parse(&json).unwrap();
        let arr = v.as_array().unwrap();
        let complete: Vec<_> = arr
            .iter()
            .filter(|e| e["ph"].as_str() == Some("X"))
            .collect();
        assert_eq!(complete.len(), 3);
        // Link events land on the link "thread".
        let link_ev = complete
            .iter()
            .find(|e| e["cat"].as_str() == Some("comm"))
            .unwrap();
        assert_eq!(link_ev["tid"].as_u64(), Some(1000));
    }

    #[test]
    fn trace_has_named_tracks_and_flows() {
        let (tg, s) = demo();
        let json = chrome_trace_json(&tg, &s);
        let v = json::parse(&json).unwrap();
        let arr = v.as_array().unwrap();
        // Process + per-track metadata.
        assert!(arr
            .iter()
            .any(|e| e["ph"].as_str() == Some("M") && e["name"].as_str() == Some("process_name")));
        let thread_names: Vec<&str> = arr
            .iter()
            .filter(|e| e["ph"].as_str() == Some("M") && e["name"].as_str() == Some("thread_name"))
            .map(|e| e["args"]["name"].as_str().unwrap())
            .collect();
        assert!(thread_names.contains(&"GPU0"));
        assert!(thread_names.contains(&"GPU1"));
        assert!(thread_names.contains(&"Link0"));
        // One flow arrow in (a -> x) and one out (x -> b), paired s/f.
        let starts = arr.iter().filter(|e| e["ph"].as_str() == Some("s")).count();
        let finishes = arr.iter().filter(|e| e["ph"].as_str() == Some("f")).count();
        assert_eq!(starts, 2);
        assert_eq!(finishes, 2);
        // Counter series records the 64 transferred bytes.
        let counter = arr
            .iter()
            .find(|e| {
                e["ph"].as_str() == Some("C") && e["name"].as_str() == Some("transferred_bytes")
            })
            .unwrap();
        assert_eq!(counter["args"]["bytes"].as_u64(), Some(64));
    }

    /// Perfetto's JSON importer requires: every event has `ph` and
    /// `name`; X events carry numeric `ts`/`dur` plus `pid`/`tid`; flow
    /// events pair `s`/`f` by `id`. This is the schema-validation test
    /// from the acceptance criteria.
    #[test]
    fn trace_events_satisfy_perfetto_schema() {
        let (tg, s) = demo();
        let json = chrome_trace_json(&tg, &s);
        let v = json::parse(&json).unwrap();
        for e in v.as_array().unwrap() {
            let ph = e["ph"].as_str().expect("ph is a string");
            assert!(
                matches!(ph, "X" | "M" | "C" | "s" | "f"),
                "unexpected phase {ph}"
            );
            assert!(e["name"].as_str().is_some());
            match ph {
                "X" => {
                    assert!(e["ts"].as_f64().unwrap() >= 0.0);
                    assert!(e["dur"].as_f64().unwrap() >= 0.0);
                    assert!(e["pid"].as_u64().is_some());
                    assert!(e["tid"].as_u64().is_some());
                }
                "s" | "f" => {
                    assert!(e["id"].as_u64().unwrap() > 0);
                    assert!(e["ts"].as_f64().unwrap() >= 0.0);
                }
                "C" => {
                    assert!(e["args"]["bytes"].as_u64().is_some());
                }
                _ => {}
            }
        }
    }
}
