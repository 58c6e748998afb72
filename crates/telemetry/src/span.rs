//! Hierarchical tracing spans and the sinks that consume them.
//!
//! A span is an RAII-guarded region of a run — a driver, a sweep, a cell,
//! an instrumented pipeline run — recorded on the thread-local
//! [`crate::recorder`]. Each completed span carries *two* durations in
//! different trust domains:
//!
//! - **cycle-domain** (`cycles`, `uops`): the simulated quantities
//!   credited while the span was open. Pure functions of the run
//!   configuration, merged in cell-index order by the parallel engine, so
//!   the span tree is byte-identical at `--jobs 1` and `--jobs N` and
//!   belongs in golden reports;
//! - **wall-clock** (`wall_start_seconds`, `wall_seconds`): where the
//!   span actually sat on the host timeline, measured against the run
//!   epoch shared through [`crate::recorder::WorkerHandle`] so spans
//!   recorded on worker threads line up with the installing thread's.
//!   Wall values are segregated into the report's wall-clock keys, which
//!   the wall-strip rule drops before any determinism comparison, and the
//!   profiling sinks below.
//!
//! Spans nest: the guard returned by [`enter`] parents every span opened
//! before it drops, and the parallel engine attaches a merged cell's root
//! spans under whatever span the installing thread has open at merge
//! time (the sweep span), so a whole grid reassembles into one tree.
//!
//! Like the rest of the telemetry layer, spans are zero-cost when
//! disabled: with no recorder installed [`enter`] takes one thread-local
//! `is-some` check and returns an inert guard — no allocation, no clock
//! read, no interning. The [`span!`](crate::span!) macro extends that to
//! formatted names by checking the recorder before evaluating its format
//! arguments.
//!
//! # Sinks
//!
//! - [`chrome_trace`]: converts a finished collector's span tree into the
//!   `chrome://tracing` JSON array format (complete `"ph": "X"` events,
//!   microsecond timestamps, a fresh lane for every span at depth ≤ 2)
//!   for interactive profiling;
//! - the **live event stream** ([`set_stream`] / [`stream_event`]): a
//!   process-wide JSONL sink the sweep engine and bench CLI write
//!   heartbeat, cell lifecycle, retry, quarantine and journal-append
//!   events into *while the run executes*. Every line is a
//!   self-contained JSON object stamped with [`STREAM_SCHEMA_VERSION`]
//!   and a wall-clock offset, validated by [`validate_stream_event`].
//!   Stream contents are wall-clock domain by construction and carry no
//!   determinism guarantee.

use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

use crate::json::Json;
use crate::metrics::intern;
use crate::recorder::{self, Collector};

/// One completed (or still-open) span in a collector's span tree.
///
/// `parent` indexes into the owning collector's `spans` vector; parents
/// always precede their children, so a single forward pass can rebuild
/// the tree.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Interned span name.
    pub name: &'static str,
    /// Index of the enclosing span, or `None` for a root.
    pub parent: Option<usize>,
    /// Simulated cycles credited while the span was open (cycle domain —
    /// deterministic, golden).
    pub cycles: u64,
    /// Uops credited while the span was open (cycle domain).
    pub uops: u64,
    /// Wall-clock offset of the span's start from the run epoch
    /// (non-golden; feeds the Chrome-trace exporter).
    pub wall_start_seconds: f64,
    /// Wall-clock duration of the span (non-golden).
    pub wall_seconds: f64,
    /// Whether [`recorder::phase`] opened the span; the run report lists
    /// these spans again under `phases`.
    pub phase: bool,
}

/// RAII guard closing a span when dropped. Inert when the span was opened
/// with no recorder installed.
#[derive(Debug)]
#[must_use = "a span closes when its guard drops; binding it to _ closes it immediately"]
pub struct SpanGuard {
    token: Option<usize>,
}

impl SpanGuard {
    /// A guard that records nothing — what [`enter`] returns when
    /// telemetry is disabled, and what the [`span!`](crate::span!) macro
    /// uses to skip evaluating format arguments entirely.
    pub fn inert() -> SpanGuard {
        SpanGuard { token: None }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(index) = self.token.take() {
            recorder::close_span(index);
        }
    }
}

/// Opens a span with a static name on this thread's recorder. Returns an
/// inert guard when telemetry is disabled (one thread-local check, no
/// other work).
pub fn enter(name: &'static str) -> SpanGuard {
    SpanGuard {
        token: recorder::open_span(name, false),
    }
}

/// Opens a span with a runtime-formatted name (interned — distinct names
/// are leaked once, so the set of names must be bounded by the run
/// configuration, as grid-cell and phase names are). Checks the recorder
/// *before* interning so a disabled run never grows the intern table.
pub fn enter_dynamic(name: &str) -> SpanGuard {
    enter_named(name, false)
}

/// [`enter_dynamic`] with the span's `phase` mark; [`recorder::phase`]
/// opens its span through this with `phase` set.
pub(crate) fn enter_named(name: &str, phase: bool) -> SpanGuard {
    if !recorder::active() {
        return SpanGuard::inert();
    }
    SpanGuard {
        token: recorder::open_span(intern(name), phase),
    }
}

/// Opens a tracing span, returning its RAII guard.
///
/// `span!("literal")` is the zero-cost static form; `span!("cell {i}")`
/// formats the name, checking first that a recorder is installed so the
/// disabled path never allocates.
#[macro_export]
macro_rules! span {
    ($name:literal) => {
        $crate::span::enter($name)
    };
    ($($arg:tt)*) => {
        if $crate::recorder::active() {
            $crate::span::enter_dynamic(&format!($($arg)*))
        } else {
            $crate::span::SpanGuard::inert()
        }
    };
}

/// Exports a finished collector's span tree as a `chrome://tracing` JSON
/// array: one complete (`"ph": "X"`) event per span with microsecond
/// timestamps from the wall-clock domain, plus a process-name metadata
/// event. Lanes (`tid`) are fresh for every span at depth ≤ 2 — driver
/// roots, sweeps, and sweep cells — and inherited from the parent below
/// that, so parallel cell execution renders as parallel tracks with each
/// cell's inner spans stacked on its own lane. Load the file via
/// `chrome://tracing` or <https://ui.perfetto.dev>.
pub fn chrome_trace(collector: &Collector) -> Json {
    let spans = &collector.spans;
    let mut events = Vec::with_capacity(spans.len() + 1);
    let mut meta = Json::object();
    meta.set("name", Json::from("process_name"));
    meta.set("ph", Json::from("M"));
    meta.set("pid", Json::UInt(0));
    meta.set("tid", Json::UInt(0));
    let mut meta_args = Json::object();
    meta_args.set("name", Json::from("penelope"));
    meta.set("args", meta_args);
    events.push(meta);

    // Lane assignment: parents precede children, so one forward pass
    // suffices. Driver roots, sweeps and sweep cells (depth ≤ 2) open
    // fresh lanes — cells are where execution actually overlaps — while
    // deeper spans nest inside their cell's lane.
    let mut lanes = vec![0u64; spans.len()];
    let mut depths = vec![0usize; spans.len()];
    let mut next_lane = 0u64;
    for (index, span) in spans.iter().enumerate() {
        let depth = span.parent.map_or(0, |parent| depths[parent] + 1);
        depths[index] = depth;
        let lane = match span.parent {
            Some(parent) if depth > 2 => lanes[parent],
            _ => {
                let lane = next_lane;
                next_lane += 1;
                lane
            }
        };
        lanes[index] = lane;
        let mut event = Json::object();
        event.set("name", Json::from(span.name));
        event.set("cat", Json::from("span"));
        event.set("ph", Json::from("X"));
        event.set("ts", Json::Float(span.wall_start_seconds * 1e6));
        event.set("dur", Json::Float(span.wall_seconds * 1e6));
        event.set("pid", Json::UInt(0));
        event.set("tid", Json::UInt(lane));
        let mut args = Json::object();
        args.set("cycles", Json::UInt(span.cycles));
        args.set("uops", Json::UInt(span.uops));
        event.set("args", args);
        events.push(event);
    }
    Json::Array(events)
}

/// Version of the live event stream's per-line schema.
pub const STREAM_SCHEMA_VERSION: u64 = 1;

struct StreamSink {
    writer: Box<dyn Write + Send>,
    epoch: Instant,
    fault: Option<String>,
}

static STREAM: Mutex<Option<StreamSink>> = Mutex::new(None);

fn stream_slot() -> std::sync::MutexGuard<'static, Option<StreamSink>> {
    STREAM
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Arms (or with `None`, disarms) the process-wide live event stream.
/// The bench CLI owns this: it opens the `--stream` target and tears the
/// sink down after the run. Arming resets the stream's wall-clock epoch.
pub fn set_stream(writer: Option<Box<dyn Write + Send>>) {
    *stream_slot() = writer.map(|writer| StreamSink {
        writer,
        epoch: Instant::now(),
        fault: None,
    });
}

/// Whether a live event stream is armed (and has not faulted). Emitters
/// use this to skip building event payloads when nobody is listening.
pub fn stream_active() -> bool {
    stream_slot().as_ref().is_some_and(|s| s.fault.is_none())
}

/// Emits one event line on the live stream: a self-contained JSON object
/// carrying the schema version, the event kind, the wall-clock offset
/// from arming, and the caller's fields. No-op when the stream is
/// disarmed. A write failure mutes the stream and is surfaced once via
/// [`take_stream_fault`], so a broken pipe degrades the run instead of
/// failing it.
pub fn stream_event(event: &str, fields: &[(&str, Json)]) {
    let mut slot = stream_slot();
    let Some(sink) = slot.as_mut() else {
        return;
    };
    if sink.fault.is_some() {
        return;
    }
    let mut line = Json::object();
    line.set("stream_schema", Json::UInt(STREAM_SCHEMA_VERSION));
    line.set("event", Json::from(event));
    line.set(
        "wall_seconds",
        Json::Float(sink.epoch.elapsed().as_secs_f64()),
    );
    for (key, value) in fields {
        line.set(key, value.clone());
    }
    let mut encoded = line.encode();
    encoded.push('\n');
    let written = sink
        .writer
        .write_all(encoded.as_bytes())
        .and_then(|()| sink.writer.flush());
    if let Err(err) = written {
        sink.fault = Some(format!(
            "event stream write failed: {err}; streaming disabled"
        ));
    }
}

/// The stream's first write failure, surfaced exactly once (the bench CLI
/// turns it into a report warning).
pub fn take_stream_fault() -> Option<String> {
    stream_slot().as_mut().and_then(|sink| sink.fault.take())
}

/// Validates one line of the live event stream against its schema: the
/// pinned `stream_schema` version, a string `event` kind, and a numeric
/// `wall_seconds` offset.
///
/// # Errors
///
/// Returns a description of the first mismatch.
pub fn validate_stream_event(line: &Json) -> Result<(), String> {
    let version = line
        .get("stream_schema")
        .ok_or("missing key: stream_schema")?
        .as_u64()
        .ok_or("stream_schema must be an unsigned integer")?;
    if version != STREAM_SCHEMA_VERSION {
        return Err(format!(
            "stream_schema {version} != expected {STREAM_SCHEMA_VERSION}"
        ));
    }
    if line.get("event").and_then(Json::as_str).is_none() {
        return Err("event must be a string".to_string());
    }
    if line.get("wall_seconds").and_then(Json::as_f64).is_none() {
        return Err("wall_seconds must be a number".to_string());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Settings;
    use std::sync::mpsc::{channel, Sender};

    #[test]
    fn spans_are_inert_without_a_recorder() {
        let _ = recorder::finish();
        {
            let _outer = enter("outer");
            let _inner = crate::span!("inner {}", 42);
        }
        assert!(recorder::finish().is_none(), "nothing was installed");
    }

    #[test]
    fn span_formats_its_name_only_while_recording() {
        use std::cell::Cell;
        use std::fmt;

        /// Counts how often the macro renders it.
        struct Counted<'a>(&'a Cell<u32>);
        impl fmt::Display for Counted<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                self.0.set(self.0.get() + 1);
                f.write_str("counted")
            }
        }

        let calls = Cell::new(0);
        let _ = recorder::finish();
        drop(crate::span!("cell {}", Counted(&calls)));
        assert_eq!(calls.get(), 0, "a disabled span must not format its name");

        recorder::install(Settings::default());
        drop(crate::span!("cell {}", Counted(&calls)));
        let collector = recorder::finish().expect("installed");
        assert_eq!(calls.get(), 1);
        assert_eq!(collector.spans[0].name, "cell counted");
    }

    #[test]
    fn spans_nest_and_credit_cycles_to_every_open_ancestor() {
        recorder::install(Settings::default());
        {
            let _run = enter("run");
            recorder::record_run(100, 10);
            {
                let _cell = enter("cell");
                recorder::record_run(50, 5);
            }
            recorder::record_run(7, 1);
        }
        let collector = recorder::finish().expect("installed");
        assert_eq!(collector.spans.len(), 2);
        let run = &collector.spans[0];
        let cell = &collector.spans[1];
        assert_eq!((run.name, run.parent), ("run", None));
        assert_eq!((cell.name, cell.parent), ("cell", Some(0)));
        assert_eq!(cell.cycles, 50, "inner span sees only its own window");
        assert_eq!(run.cycles, 157, "outer span includes the inner's");
        assert!(run.wall_seconds >= cell.wall_seconds);
        assert!(run.wall_start_seconds <= cell.wall_start_seconds);
    }

    #[test]
    fn finish_closes_spans_left_open() {
        recorder::install(Settings::default());
        let guard = enter("leaked");
        recorder::record_run(10, 1);
        let collector = recorder::finish().expect("installed");
        assert_eq!(collector.spans.len(), 1);
        assert_eq!(collector.spans[0].cycles, 10, "finish closed the span");
        drop(guard); // stale guard against a gone recorder: no-op
        assert!(!recorder::active());
    }

    #[test]
    fn out_of_order_guard_drops_close_abandoned_children() {
        recorder::install(Settings::default());
        let outer = enter("outer");
        let inner = enter("inner");
        // Dropping the outer guard first must close the still-open inner
        // span too, keeping the open stack consistent.
        drop(outer);
        drop(inner);
        let collector = recorder::finish().expect("installed");
        let names: Vec<&str> = collector.spans.iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["outer", "inner"]);
    }

    #[test]
    fn chrome_trace_events_are_well_formed() {
        recorder::install(Settings::default());
        {
            let _sweep = enter("sweep");
            let _cell = enter("cell");
            recorder::record_run(10, 2);
        }
        let collector = recorder::finish().expect("installed");
        let trace = chrome_trace(&collector);
        let events = trace.as_array().expect("a JSON array of events");
        assert_eq!(events.len(), 3, "metadata + two spans");
        assert_eq!(events[0].get("ph").and_then(Json::as_str), Some("M"));
        for event in &events[1..] {
            assert_eq!(event.get("ph").and_then(Json::as_str), Some("X"));
            assert!(event.get("ts").and_then(Json::as_f64).is_some());
            assert!(event.get("dur").and_then(Json::as_f64).is_some());
            assert!(event.get("tid").and_then(Json::as_u64).is_some());
        }
        // Round-trips through the parser (what a format validator does).
        crate::json::parse(&trace.encode()).expect("trace parses");
    }

    #[test]
    fn chrome_trace_lanes_split_cells_and_nest_their_children() {
        // driver(0) → sweep(1) → two cells, each with an inner span: the
        // cells get their own lanes, the inner spans ride their cell's.
        let mk = |name, parent| SpanRecord {
            name: intern(name),
            parent,
            cycles: 0,
            uops: 0,
            wall_start_seconds: 0.0,
            wall_seconds: 0.0,
            phase: false,
        };
        recorder::install(Settings::default());
        let mut collector = recorder::finish().expect("installed");
        collector.spans = vec![
            mk("driver", None),
            mk("sweep", Some(0)),
            mk("cell 0", Some(1)),
            mk("inner 0", Some(2)),
            mk("cell 1", Some(1)),
            mk("inner 1", Some(4)),
        ];
        let trace = chrome_trace(&collector);
        let events = trace.as_array().expect("a JSON array of events");
        let lane = |i: usize| events[i + 1].get("tid").and_then(Json::as_u64).unwrap();
        assert_eq!(lane(0), 0, "driver opens the first lane");
        assert_eq!(lane(1), 1, "the sweep gets its own lane");
        assert_ne!(lane(2), lane(4), "parallel cells get distinct lanes");
        assert_eq!(lane(3), lane(2), "inner spans ride their cell's lane");
        assert_eq!(lane(5), lane(4), "inner spans ride their cell's lane");
    }

    /// A `Write` that forwards lines over a channel, for stream tests.
    struct ChannelWriter(Sender<String>);

    impl Write for ChannelWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let _ = self.0.send(String::from_utf8_lossy(buf).into_owned());
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn stream_events_are_schema_valid_jsonl() {
        let (tx, rx) = channel();
        set_stream(Some(Box::new(ChannelWriter(tx))));
        assert!(stream_active());
        stream_event(
            "heartbeat",
            &[("done", Json::UInt(3)), ("total", Json::UInt(9))],
        );
        set_stream(None);
        assert!(!stream_active());
        let line = rx.try_recv().expect("one event emitted");
        let parsed = crate::json::parse(line.trim()).expect("line is standalone JSON");
        validate_stream_event(&parsed).expect("schema-valid");
        assert_eq!(
            parsed.get("event").and_then(Json::as_str),
            Some("heartbeat")
        );
        assert_eq!(parsed.get("done").and_then(Json::as_u64), Some(3));
    }

    #[test]
    fn stream_write_failures_mute_the_sink_and_surface_once() {
        struct Broken;
        impl Write for Broken {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("pipe closed"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        set_stream(Some(Box::new(Broken)));
        stream_event("heartbeat", &[]);
        assert!(!stream_active(), "a faulted stream reads as inactive");
        stream_event("heartbeat", &[]); // silently dropped, no second fault
        let fault = take_stream_fault().expect("fault surfaced");
        assert!(fault.contains("pipe closed"), "{fault}");
        assert!(take_stream_fault().is_none(), "surfaced exactly once");
        set_stream(None);
    }

    #[test]
    fn stream_validation_rejects_malformed_lines() {
        for (broken, why) in [
            (r#"{"event":"x","wall_seconds":0}"#, "missing version"),
            (
                r#"{"stream_schema":99,"event":"x","wall_seconds":0}"#,
                "wrong version",
            ),
            (r#"{"stream_schema":1,"wall_seconds":0}"#, "missing event"),
            (r#"{"stream_schema":1,"event":"x"}"#, "missing wall_seconds"),
        ] {
            let parsed = crate::json::parse(broken).expect("test input parses");
            assert!(
                validate_stream_event(&parsed).is_err(),
                "expected a validation error for: {why}"
            );
        }
    }
}
