//! Zero-cost-when-disabled observability for the Penelope reproduction.
//!
//! Every figure and table the paper derives is a time-series summary of
//! internal simulator state; this crate makes that state continuously
//! observable and machine-readable:
//!
//! - [`metrics`]: a [`Registry`] of counters, gauges and fixed-bucket
//!   histograms addressed by static ids — registration allocates, the hot
//!   path is a slice index;
//! - [`json`]: a hand-rolled, deterministic JSON value/encoder/parser
//!   (the workspace builds offline — no serde);
//! - [`series`]: ring-buffered `(cycle, value)` time series;
//! - [`hooks`]: [`TelemetryHooks`], a `uarch::pipeline::Hooks` wrapper
//!   that counts events and samples per-structure duty cycles,
//!   occupancies, cache line-state fractions, RINV freshness and
//!   fault/invariant events every `sample_period` cycles;
//! - [`recorder`]: a thread-local facade so experiment drivers contribute
//!   manifest entries, phase timings, warnings and run telemetry without
//!   signature changes; worker threads inherit the recording decision via
//!   [`recorder::WorkerHandle`] and feed mergeable
//!   [`recorder::Snapshot`]s back for a deterministic reassembly;
//! - [`report`]: run-report assembly ([`build_report`]) and schema
//!   validation ([`validate_report`]); a report with its wall-clock keys
//!   stripped is what the determinism tests pin;
//! - [`snapshot`]: the exact-state [`Snapshot`] codec
//!   ([`encode_snapshot`] / [`decode_snapshot`]) behind the sweep
//!   engine's crash-safe checkpoint journal — unlike the report encoder
//!   it round-trips physical state (ring layout, mean accumulators,
//!   registration order) so a resumed run merges byte-identically;
//! - [`mod@span`]: hierarchical tracing spans ([`span!`] RAII guards) with
//!   deterministic cycle-domain durations and segregated wall-clock
//!   durations, plus the profiling sinks — a Chrome-trace exporter
//!   ([`chrome_trace`]) and the live JSONL event stream
//!   ([`span::set_stream`] / [`span::stream_event`]) behind the bench
//!   CLI's `--stream` flag.
//!
//! "Zero-cost-when-disabled" is structural: when no recorder is
//! installed, [`TelemetryHooks`] is never constructed and the pipeline
//! runs the exact same code as before this crate existed; the only new
//! work is one thread-local `is-some` check per experiment.

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod hooks;
pub mod json;
pub mod metrics;
pub mod recorder;
pub mod report;
pub mod series;
pub mod snapshot;
pub mod span;

pub use hooks::{EventSource, TelemetryHooks, TelemetryOutput};
pub use json::Json;
pub use metrics::{CounterId, GaugeId, Histogram, HistogramId, Registry};
pub use recorder::{Collector, Settings, Snapshot, WorkerHandle};
pub use report::{build_report, validate_report, SCHEMA_VERSION};
pub use series::RingSeries;
pub use snapshot::{decode_snapshot, encode_snapshot};
pub use span::{chrome_trace, SpanGuard, SpanRecord, STREAM_SCHEMA_VERSION};
