//! Event sinks: what a [`RunLog`](crate::RunLog) hands each event to as
//! it is appended.
//!
//! A [`JsonlSink`] appends one self-describing JSON line per event to a
//! file (manifest header first). Sinks run inline, under the log's lock,
//! so they see a run's events in `seq` order; at a few hundred events
//! per run that costs less than a thread to move them.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

use crate::event::Event;
use crate::manifest::RunManifest;

/// A consumer of a run's events. Implementations must not block for
/// long, and must not emit: they run under the run log's lock.
pub trait EventSink {
    /// Called once per event, in `seq` order.
    fn on_event(&mut self, e: &Event);
    /// Called once when the run's log finishes; flush buffers here.
    fn finish(&mut self) {}
}

/// Writes the stream to a file as JSON lines: a `"type":"manifest"`
/// header, then one event per line.
pub struct JsonlSink {
    out: BufWriter<File>,
}

impl JsonlSink {
    /// Creates/truncates `path` and writes the manifest header line.
    pub fn create(path: &Path, manifest: &RunManifest) -> std::io::Result<Self> {
        let mut out = BufWriter::new(File::create(path)?);
        writeln!(out, "{}", manifest.to_json())?;
        Ok(Self { out })
    }
}

impl EventSink for JsonlSink {
    fn on_event(&mut self, e: &Event) {
        let _ = writeln!(self.out, "{}", e.to_json_line());
    }

    fn finish(&mut self) {
        let _ = self.out.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::{emit, record, RunLog};
    use crate::event::EventKind;
    use heterog_telemetry::lock;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Mutex};

    struct Collect {
        events: Arc<Mutex<Vec<Event>>>,
        finished: Arc<AtomicBool>,
    }

    impl EventSink for Collect {
        fn on_event(&mut self, e: &Event) {
            lock(&self.events).push(e.clone());
        }
        fn finish(&mut self) {
            self.finished.store(true, Ordering::SeqCst);
        }
    }

    /// Sinks see every event of a run, also from its `par_map` items,
    /// in `seq` order, by the time the log finishes.
    #[test]
    fn sinks_see_every_event_in_seq_order_by_finish() {
        let events = Arc::new(Mutex::new(Vec::new()));
        let finished = Arc::new(AtomicBool::new(false));
        let log = Arc::new(RunLog::new(vec![Box::new(Collect {
            events: Arc::clone(&events),
            finished: Arc::clone(&finished),
        })]));
        let items: Vec<u64> = (0..100).collect();
        record(&log, || {
            heterog_telemetry::par::par_map(&items, |&i| {
                emit(EventKind::Probe {
                    producer: 1,
                    index: i,
                })
            });
        });
        log.finish();
        assert!(finished.load(Ordering::SeqCst));
        let got = lock(&events);
        assert_eq!(*got, log.read(<[Event]>::to_vec));
        let seqs: Vec<u64> = got.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (0..100).collect::<Vec<u64>>());
    }

    /// `finish` finishes each sink once; a log keeps recording after it,
    /// but its finished sinks see nothing more.
    #[test]
    fn finish_finishes_each_sink_once() {
        let events = Arc::new(Mutex::new(Vec::new()));
        let finished = Arc::new(AtomicBool::new(false));
        let log = Arc::new(RunLog::new(vec![Box::new(Collect {
            events: Arc::clone(&events),
            finished: Arc::clone(&finished),
        })]));
        let probe = |index| EventKind::Probe { producer: 0, index };
        record(&log, || emit(probe(0)));
        log.finish();
        finished.store(false, Ordering::SeqCst);
        log.finish();
        assert!(!finished.load(Ordering::SeqCst), "a sink finished twice");
        record(&log, || emit(probe(1)));
        assert_eq!(lock(&events).len(), 1);
        assert_eq!(log.read(<[Event]>::len), 2);
    }

    #[test]
    fn jsonl_sink_writes_manifest_header_then_events() {
        let path =
            std::env::temp_dir().join(format!("heterog-events-test-{}.jsonl", std::process::id()));
        let manifest = RunManifest {
            command: "plan".into(),
            seed: 3,
            ..Default::default()
        };
        let mut sink = JsonlSink::create(&path, &manifest).unwrap();
        sink.on_event(&Event {
            seq: 0,
            ts: 0.0,
            kind: EventKind::Probe {
                producer: 0,
                index: 0,
            },
        });
        sink.finish();
        let body = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let lines: Vec<&str> = body.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"type\":\"manifest\""));
        assert!(lines[1].contains("\"type\":\"probe\""));
    }
}
