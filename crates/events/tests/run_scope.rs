//! Property test for run scopes under concurrent producers.
//!
//! Each case runs over seeds `0..64` and draws its inputs from the
//! seed's generator; a failure names its seed. A run log is the run's
//! own, so cases need no lock: parallel tests record into other logs.
//!
//! Property: however `par_map` interleaves the producers of one run,
//! the run's log is numbered exactly `0..n`, and each producer's events
//! appear in its own emission order.

use std::sync::Arc;

use heterog_events as ev;
use heterog_events::EventKind;
use heterog_telemetry::par::par_map;
use heterog_telemetry::rng::for_each_seed;

#[test]
fn per_producer_streams_keep_their_order_in_a_gap_free_log() {
    for_each_seed(64, |rng| {
        let producers: Vec<u64> = (0..rng.gen_range(1..6usize) as u64).collect();
        let per_producer = rng.gen_range(1..80usize) as u64;
        let log = Arc::new(ev::RunLog::default());
        ev::record(&log, || {
            par_map(&producers, |&producer| {
                for index in 0..per_producer {
                    ev::emit(EventKind::Probe { producer, index });
                }
            });
        });
        let events = log.read(<[ev::Event]>::to_vec);

        let total = producers.len() as u64 * per_producer;
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (0..total).collect::<Vec<u64>>());
        for &p in &producers {
            let indices: Vec<u64> = events
                .iter()
                .filter_map(|e| match e.kind {
                    EventKind::Probe { producer, index } if producer == p => Some(index),
                    _ => None,
                })
                .collect();
            assert_eq!(indices, (0..per_producer).collect::<Vec<u64>>());
        }
    });
}
