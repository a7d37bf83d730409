//! The events JSONL reader against real writer output: manifest
//! round-trip, `gap` and out-of-order tolerance, and crash-mid-write
//! truncation must all decode to a well-formed prefix.

use heterog_events::reader::parse_jsonl;
use heterog_events::{Event, EventKind, RunManifest};

fn manifest() -> RunManifest {
    RunManifest {
        command: "plan".into(),
        argv: vec![
            "heterog-cli".into(),
            "plan".into(),
            "--model".into(),
            "vgg19".into(),
        ],
        model: "vgg19".into(),
        batch_size: 192,
        cluster_fingerprint: 0x1234_5678_9abc_def0,
        num_devices: 8,
        planner: "heterog".into(),
        seed: 42,
        version: "0.1.0".into(),
        started_unix: 1_754_600_000,
        events_capacity: 16_384,
    }
}

fn event(seq: u64, kind: EventKind) -> Event {
    Event {
        seq,
        ts: seq as f64 * 0.25,
        kind,
    }
}

/// One event of every kind, with finite payloads so equality holds
/// through the JSON round-trip.
fn all_kinds() -> Vec<Event> {
    vec![
        event(
            0,
            EventKind::RunStarted {
                phase: "plan-search".into(),
                total_units: 96,
            },
        ),
        event(
            1,
            EventKind::SearchIteration {
                pass: 0,
                visited: 3,
                evals: 17,
                best_makespan: 0.125,
                candidate_makespan: 0.5,
            },
        ),
        event(
            2,
            EventKind::RlEpisode {
                episode: 7,
                reward: -0.5,
                baseline: -0.25,
                entropy: 1.5,
                best_time: 0.25,
            },
        ),
        event(
            3,
            EventKind::StrategyEvaluated {
                makespan: 0.25,
                oom: false,
            },
        ),
        event(
            4,
            EventKind::SimEpoch {
                tasks: 4096,
                makespan: 0.125,
                oom_devices: 0,
            },
        ),
        event(
            5,
            EventKind::Oom {
                device: 3,
                peak_bytes: 1 << 34,
                capacity_bytes: 1 << 33,
            },
        ),
        event(
            6,
            EventKind::ElasticIteration {
                iteration: 12,
                makespan: 0.5,
            },
        ),
        event(
            7,
            EventKind::Fault {
                iteration: 12,
                label: "link:nicout:0.25 (\"quoted\")".into(),
                applied: true,
            },
        ),
        event(
            8,
            EventKind::Repair {
                iteration: 12,
                action: "migrate-replicas".into(),
                degraded_makespan: 0.75,
                repaired_makespan: 0.5,
                repair_evals: 9,
                stall_iterations: 2,
            },
        ),
        event(
            9,
            EventKind::RunFinished {
                outcome: "ok".into(),
                makespan: 0.25,
                oom: false,
            },
        ),
        event(
            10,
            EventKind::Probe {
                producer: 1,
                index: 0,
            },
        ),
    ]
}

fn stream(events: &[Event]) -> String {
    let mut s = format!("{}\n", manifest().to_json());
    for e in events {
        s.push_str(&e.to_json_line());
        s.push('\n');
    }
    s
}

#[test]
fn full_stream_roundtrips_every_event_kind() {
    let events = all_kinds();
    let log = parse_jsonl(&stream(&events));
    assert_eq!(log.manifest.as_ref(), Some(&manifest()));
    assert_eq!(log.events, events);
    assert!(!log.truncated);
    assert_eq!(log.missed, 0);
    assert_eq!(log.unknown, 0);
    assert_eq!(log.out_of_order, 0);
    assert!(log.finished().is_some());
}

#[test]
fn gap_lines_accumulate_missed_without_truncating() {
    let events = all_kinds();
    let mut text = stream(&events[..3]);
    text.push_str("{\"type\":\"gap\",\"missed\":7}\n");
    text.push_str(&events[3].to_json_line());
    text.push('\n');
    text.push_str("{\"type\":\"gap\",\"missed\":2}\n");
    let log = parse_jsonl(&text);
    assert!(!log.truncated);
    assert_eq!(log.missed, 9);
    assert_eq!(log.events.len(), 4);
}

/// Run stores hold whatever an earlier build wrote; gap counts too
/// large to sum saturate instead of overflowing.
#[test]
fn gap_counts_saturate_instead_of_overflowing() {
    let gap = "{\"type\":\"gap\",\"missed\":18446744073709551615}\n";
    let log = parse_jsonl(&gap.repeat(2));
    assert!(!log.truncated);
    assert_eq!(log.missed, u64::MAX);
}

#[test]
fn out_of_order_seqs_are_kept_and_counted() {
    // A stream stitched from two windows: seqs 5,6 then 2,3.
    let mut text = String::new();
    for seq in [5u64, 6, 2, 3] {
        text.push_str(
            &event(
                seq,
                EventKind::Probe {
                    producer: 0,
                    index: seq,
                },
            )
            .to_json_line(),
        );
        text.push('\n');
    }
    let log = parse_jsonl(&text);
    assert!(!log.truncated);
    assert_eq!(log.events.len(), 4);
    assert_eq!(log.out_of_order, 1, "the 6 -> 2 step");
}

#[test]
fn truncated_final_line_yields_the_prefix() {
    let events = all_kinds();
    let full = stream(&events);
    // Cut the stream mid-way through its final line (crash between
    // write and flush).
    let cut = full.len() - 20;
    let log = parse_jsonl(&full[..cut]);
    assert!(log.truncated, "a half-written line must flag truncation");
    assert_eq!(log.manifest.as_ref(), Some(&manifest()));
    assert_eq!(
        log.events,
        events[..events.len() - 1],
        "everything before the torn line survives"
    );
}

#[test]
fn every_truncation_point_yields_a_wellformed_prefix() {
    let events = all_kinds();
    let full = stream(&events);
    // Chop at every byte boundary on a char boundary: the reader must
    // never panic and must always return a prefix of the real events.
    for cut in (0..full.len()).filter(|&i| full.is_char_boundary(i)) {
        let log = parse_jsonl(&full[..cut]);
        assert!(
            log.events.len() <= events.len(),
            "cut {cut}: more events than written"
        );
        assert_eq!(
            log.events[..],
            events[..log.events.len()],
            "cut {cut}: not a prefix"
        );
    }
}

#[test]
fn truncated_manifest_header_is_tolerated() {
    let full = format!("{}\n", manifest().to_json());
    let log = parse_jsonl(&full[..full.len() / 2]);
    assert!(log.truncated);
    assert!(log.manifest.is_none());
    assert!(log.events.is_empty());
}
