//! Chrome-tracing export.
//!
//! Serializes an executed schedule into the `chrome://tracing` /
//! Perfetto JSON array format: one complete event (`"ph": "X"`) per
//! task, metadata events (`"ph": "M"`) naming the process and every
//! GPU/link track, flow arrows (`"ph": "s"` / `"f"`) following tensors
//! across devices through transfer tasks, and a cumulative
//! `transferred_bytes` counter series (`"ph": "C"`) of transfer
//! payloads. Handy for eyeballing computation/communication overlap
//! the way the paper's Fig. 1/2 timelines do.

use heterog_sched::{Proc, Schedule, TaskGraph};
use heterog_telemetry::json::Value;
use heterog_telemetry::json_object;

/// Trace tid of a processor: GPUs use their id, links sit at 1000+.
fn proc_tid(p: Proc) -> u64 {
    match p {
        Proc::Gpu(g) => g as u64,
        Proc::Link(l) => 1000 + l as u64,
    }
}

/// Seconds -> microseconds, the format's time unit.
fn us(seconds: f64) -> f64 {
    seconds * 1e6
}

/// A metadata event (`"ph":"M"`) for the simulator lane.
fn metadata(name: &str, tid: u64, args: Value) -> Value {
    json_object! { "name" => name, "ph" => "M", "pid" => 0u64, "tid" => tid, "args" => args }
}

/// Both ends of flow arrow `id`: it leaves track `from` at `t0` (`"s"`)
/// and enters track `to` at `t1` (`"f"`).
fn flow(id: u64, (t0, from): (f64, u64), (t1, to): (f64, u64)) -> [Value; 2] {
    [
        json_object! {
            "name" => "xfer",
            "cat" => "flow",
            "ph" => "s",
            "id" => id,
            "ts" => us(t0),
            "pid" => 0u64,
            "tid" => from,
        },
        json_object! {
            "name" => "xfer",
            "cat" => "flow",
            "ph" => "f",
            "bp" => "e",
            "id" => id,
            "ts" => us(t1),
            "pid" => 0u64,
            "tid" => to,
        },
    ]
}

/// The schedule as Chrome-tracing events, in the simulator's process
/// lane (pid 0). Append other lanes' events (the host spans of
/// `heterog_telemetry::chrome_span_events`) before writing the array.
///
/// Panics unless `s` holds a start and a finish time for every task of
/// `tg`; an evaluation the serve plan memo kept has none.
pub fn chrome_trace_events(tg: &TaskGraph, s: &Schedule) -> Vec<Value> {
    s.assert_covers(tg.len());
    let mut events = Vec::with_capacity(2 * tg.len() + 2 * tg.num_procs() + 2);

    // Track metadata: one named process, one named thread per GPU and
    // per link. sort_index keeps GPUs above links in the Perfetto UI.
    let process = format!("heterog simulator: {}", tg.name);
    events.push(metadata(
        "process_name",
        0,
        json_object! { "name" => &process },
    ));
    let tracks = (0..tg.num_gpus)
        .map(|g| (g as u64, format!("GPU{g}")))
        .chain((0..tg.num_links).map(|l| (1000 + l as u64, format!("Link{l}"))));
    for (tid, label) in tracks {
        events.push(metadata(
            "thread_name",
            tid,
            json_object! { "name" => &label },
        ));
        events.push(metadata(
            "thread_sort_index",
            tid,
            json_object! { "sort_index" => tid },
        ));
    }

    // One complete event per task, on its processor's track
    // (microsecond timestamps, as the format expects).
    for (id, task) in tg.iter() {
        events.push(json_object! {
            "name" => &tg.task_name(id).to_string(),
            "cat" => if task.proc.is_link() { "comm" } else { "compute" },
            "ph" => "X",
            "ts" => us(s.start[id.index()]),
            "dur" => us(task.duration),
            "pid" => 0u64,
            "tid" => proc_tid(task.proc),
            "args" => json_object! { "kind" => task.kind.mnemonic() },
        });
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
            let from = (s.finish[p.index()], proc_tid(tg.task(p).proc));
            events.extend(flow(flow_id, from, (s.start[id.index()], tid)));
        }
        for &c in tg.succs(id) {
            if tg.task(c).proc.is_link() {
                continue; // next hop draws its own incoming arrow
            }
            flow_id += 1;
            let to = (s.start[c.index()], proc_tid(tg.task(c).proc));
            events.extend(flow(flow_id, (s.finish[id.index()], tid), to));
        }
    }

    // Cumulative transferred-bytes counter, stepped at each link task's
    // completion by its payload. Collective link tasks carry no payload
    // (their bytes live in the price book), so they step it by 0.
    let mut completions: Vec<(f64, u64)> = tg
        .iter()
        .filter(|(_, t)| t.proc.is_link())
        .map(|(id, t)| (s.finish[id.index()], t.bytes))
        .collect();
    completions.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total_bytes = 0u64;
    for (finish, bytes) in completions {
        total_bytes += bytes;
        events.push(json_object! {
            "name" => "transferred_bytes",
            "ph" => "C",
            "pid" => 0u64,
            "tid" => 0u64,
            "ts" => us(finish),
            "args" => json_object! { "bytes" => total_bytes },
        });
    }
    events
}

/// The schedule as a Chrome-tracing JSON array (compact), which both
/// `chrome://tracing` and Perfetto load; see [`chrome_trace_events`].
pub fn chrome_trace_json(tg: &TaskGraph, s: &Schedule) -> String {
    Value::Array(chrome_trace_events(tg, s)).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use heterog_graph::OpKind;
    use heterog_sched::{list_schedule, OrderPolicy, Task, TaskGraph, TaskGraphBuilder};
    use heterog_telemetry::json;

    fn demo() -> (TaskGraph, Schedule) {
        let mut tg = TaskGraphBuilder::new("t", 2, 1);
        let a = tg.add_task(Task::new("a", OpKind::Conv2D, Proc::Gpu(0), 1.0).with_bytes(64));
        let x = tg.add_task(Task::new("x", OpKind::Transfer, Proc::Link(0), 0.5).with_bytes(64));
        let b = tg.add_task(Task::new("b", OpKind::Conv2D, Proc::Gpu(1), 1.0));
        tg.add_dep(a, x);
        tg.add_dep(x, b);
        let tg = tg.finish();
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
