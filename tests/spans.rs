//! Tracing-span integration (DESIGN.md §15): the cycle-domain span tree
//! must be byte-identical at any `--jobs` setting, worker snapshots must
//! round-trip span data exactly through the journal codec, and the live
//! event stream must emit schema-valid lines covering the whole sweep
//! lifecycle — heartbeats, cell completions, retries and quarantines.

use std::io::Write;
use std::sync::{Arc, Mutex};

use penelope::error::Error;
use penelope::experiments::{self, Scale};
use penelope::par;
use penelope_telemetry::recorder::{self, Settings};
use penelope_telemetry::{build_report, decode_snapshot, encode_snapshot, span, Json};

mod common;
use common::{canonicalize, global_lock, settings};

/// Runs fig6 under a fresh recorder at the given jobs setting and returns
/// the encoded cycle-domain span tree: the report's `spans` with the
/// wall-clock keys stripped (names, parents, cycles, uops).
fn span_tree(jobs: usize) -> String {
    par::set_jobs(jobs);
    recorder::install(settings());
    experiments::fig6(Scale::quick()).expect("quick fig6 runs");
    let collector = recorder::finish().expect("recorder was installed");
    par::set_jobs(0);
    let mut report = build_report(&collector);
    canonicalize(&mut report);
    report.get("spans").expect("the report has spans").encode()
}

#[test]
fn cycle_domain_span_tree_is_byte_identical_across_jobs() {
    let _guard = global_lock();
    let lone = span_tree(1);
    let four = span_tree(4);
    assert!(
        lone.contains("driver: fig6"),
        "driver span missing from the tree: {lone}"
    );
    assert!(
        lone.contains("cell"),
        "sweep-cell spans missing from the tree: {lone}"
    );
    assert_eq!(
        lone, four,
        "the cycle-domain span tree depends on the jobs setting"
    );
}

#[test]
fn snapshots_round_trip_span_data_exactly() {
    let _guard = global_lock();
    recorder::install(Settings::default());
    let handle = recorder::worker_handle();
    let ((), snapshot) = handle.record_cell(|| {
        let _outer = penelope_telemetry::span!("outer");
        {
            let _inner = penelope_telemetry::span!("inner");
            recorder::record_run(500, 100);
        }
        recorder::record_run(250, 50);
    });
    let _ = recorder::finish();
    let snapshot = snapshot.expect("recorder was installed");
    assert!(
        snapshot.spans.len() >= 2,
        "expected the nested spans in the snapshot: {:?}",
        snapshot.spans
    );
    let decoded = decode_snapshot(&encode_snapshot(&snapshot)).expect("codec round-trips");
    assert_eq!(
        decoded.spans, snapshot.spans,
        "span records drifted through the journal codec"
    );
}

/// A `Write` handle into a shared buffer, so the test can read back what
/// the stream sink wrote from worker threads.
#[derive(Clone, Default)]
struct SharedBuffer(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuffer {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn live_stream_events_are_schema_valid_and_cover_the_sweep_lifecycle() {
    let _guard = global_lock();
    let buffer = SharedBuffer::default();
    span::set_stream(Some(Box::new(buffer.clone())));
    par::set_jobs(2);
    let results = par::run_cells_named("stream-probe", 4, |cell| {
        if cell.index == 3 {
            Err(Error::Config {
                message: "stream-probe planted failure".to_string(),
            })
        } else {
            Ok(cell.index.to_string())
        }
    });
    par::set_jobs(0);
    span::set_stream(None);
    assert_eq!(
        results.iter().filter(|r| r.is_ok()).count(),
        3,
        "healthy cells must survive the planted failure"
    );

    let raw = buffer
        .0
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
        .clone();
    let raw = String::from_utf8(raw).expect("stream is UTF-8");
    let mut kinds = Vec::new();
    for line in raw.lines() {
        let event = penelope_telemetry::json::parse(line)
            .unwrap_or_else(|err| panic!("unparseable stream line {line:?}: {err}"));
        span::validate_stream_event(&event)
            .unwrap_or_else(|err| panic!("schema-invalid stream line {line:?}: {err}"));
        kinds.push(
            event
                .get("event")
                .and_then(Json::as_str)
                .expect("validated events carry a kind")
                .to_string(),
        );
    }
    for expected in [
        "heartbeat",
        "cell-start",
        "cell-complete",
        "retry",
        "quarantine",
    ] {
        assert!(
            kinds.iter().any(|kind| kind == expected),
            "no {expected} event in the stream: {kinds:?}"
        );
    }
}
