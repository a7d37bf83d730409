//! Event sinks and the background pump that feeds them.
//!
//! A [`JsonlSink`] appends one self-describing JSON line per event to a
//! file (manifest header first); the [`EventPump`] owns a background
//! thread that polls the bus every ~40 ms and fans events out to a set
//! of sinks, so producers never do I/O. On [`EventPump::finish`] the
//! pump performs one final drain, so no event emitted before the call is
//! lost.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::bus::subscribe;
use crate::event::{gap_line, Event};
use crate::manifest::RunManifest;

/// A consumer of the event stream. Implementations must not block for
/// long — they run on the shared pump thread.
pub trait EventSink {
    /// Called once per event, in stream order.
    fn on_event(&mut self, e: &Event);
    /// Called when the ring overflowed past the pump's cursor: `n`
    /// events were lost before the batch that follows.
    fn on_gap(&mut self, _n: u64) {}
    /// Called once after the final drain; flush buffers here.
    fn finish(&mut self) {}
}

/// Writes the stream to a file as JSON lines: a `"type":"manifest"`
/// header, then one event per line, with `"type":"gap"` markers where
/// the ring overflowed past the writer.
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

    fn on_gap(&mut self, n: u64) {
        let _ = writeln!(self.out, "{}", gap_line(n));
    }

    fn finish(&mut self) {
        let _ = self.out.flush();
    }
}

/// Background thread that polls the bus and fans events out to sinks.
pub struct EventPump {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

const POLL_INTERVAL: Duration = Duration::from_millis(40);

impl EventPump {
    /// Starts the pump. The subscription is taken *before* the thread
    /// spawns, so events emitted between [`crate::enable`] and this call
    /// are not missed.
    pub fn spawn(mut sinks: Vec<Box<dyn EventSink + Send>>) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let mut sub = subscribe();
        let handle = std::thread::Builder::new()
            .name("heterog-events-pump".into())
            .spawn(move || {
                loop {
                    // Read the stop flag BEFORE polling: anything emitted
                    // before finish() set the flag is caught by this last
                    // drain.
                    let stopping = stop_flag.load(Ordering::SeqCst);
                    let (batch, gap) = sub.poll();
                    if gap > 0 {
                        for s in sinks.iter_mut() {
                            s.on_gap(gap);
                        }
                    }
                    for e in &batch {
                        for s in sinks.iter_mut() {
                            s.on_event(e);
                        }
                    }
                    if stopping {
                        break;
                    }
                    std::thread::sleep(POLL_INTERVAL);
                }
                for s in sinks.iter_mut() {
                    s.finish();
                }
            })
            .expect("spawn events pump thread");
        Self {
            stop,
            handle: Some(handle),
        }
    }

    /// Stops the pump after one final drain and waits for it to flush,
    /// as dropping it does.
    pub fn finish(self) {}
}

impl Drop for EventPump {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::{emit, enable, reset, TEST_LOCK};
    use crate::event::EventKind;
    use heterog_telemetry::lock;
    use std::sync::Mutex;

    struct Collect {
        events: Arc<Mutex<Vec<Event>>>,
        gaps: Arc<Mutex<u64>>,
        finished: Arc<AtomicBool>,
    }

    impl EventSink for Collect {
        fn on_event(&mut self, e: &Event) {
            lock(&self.events).push(e.clone());
        }
        fn on_gap(&mut self, n: u64) {
            *lock(&self.gaps) += n;
        }
        fn finish(&mut self) {
            self.finished.store(true, Ordering::SeqCst);
        }
    }

    #[test]
    fn pump_delivers_everything_emitted_before_finish() {
        let _g = lock(&TEST_LOCK);
        reset();
        enable();
        let events = Arc::new(Mutex::new(Vec::new()));
        let gaps = Arc::new(Mutex::new(0));
        let finished = Arc::new(AtomicBool::new(false));
        let pump = EventPump::spawn(vec![Box::new(Collect {
            events: Arc::clone(&events),
            gaps: Arc::clone(&gaps),
            finished: Arc::clone(&finished),
        })]);
        for i in 0..100 {
            emit(EventKind::Probe {
                producer: 1,
                index: i,
            });
        }
        pump.finish();
        reset();
        let got = lock(&events);
        assert_eq!(got.len(), 100, "final drain must catch every event");
        assert!(got.windows(2).all(|w| w[0].seq + 1 == w[1].seq));
        assert_eq!(*lock(&gaps), 0);
        assert!(finished.load(Ordering::SeqCst));
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
        sink.on_gap(4);
        sink.finish();
        let body = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let lines: Vec<&str> = body.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("{\"type\":\"manifest\""));
        assert!(lines[1].contains("\"type\":\"probe\""));
        assert_eq!(lines[2], "{\"type\":\"gap\",\"missed\":4}");
    }
}
