//! Integration tests for the telemetry layer: deterministic run reports,
//! valid run reports, and the inertness of a disabled recorder.
//!
//! The determinism pin is the load-bearing one: a report stripped of its
//! wall-clock keys contains only simulated quantities, so two runs of the
//! same seeded driver must produce byte-identical reports. Any
//! nondeterminism smuggled into the pipeline (hash-map iteration,
//! wall-clock leakage, uninitialized state) fails this test before it can
//! corrupt a reproduced figure.

use penelope::experiments::{self, Scale};
use penelope_telemetry::{build_report, recorder, validate_report, Collector, Json};

mod common;
use common::{canonicalize, settings};

/// Runs the Figure 6 driver (register-file balancing — it exercises the
/// full Penelope hook chain) under a fresh recorder and detaches the
/// collector.
fn instrumented_fig6() -> Collector {
    recorder::install(settings());
    experiments::fig6(Scale::quick()).expect("quick fig6 runs");
    recorder::finish().expect("recorder was installed")
}

/// The encoded report of an instrumented fig6 run, wall-clock keys
/// stripped.
fn canonical_fig6_report() -> String {
    let mut report = build_report(&instrumented_fig6());
    canonicalize(&mut report);
    report.encode()
}

#[test]
fn same_seed_runs_emit_byte_identical_jsonl() {
    let first = canonical_fig6_report();
    let second = canonical_fig6_report();
    let report = penelope_telemetry::json::parse(&first).expect("the report parses");
    let series = report
        .get("series")
        .and_then(Json::as_object)
        .expect("series object");
    assert!(!series.is_empty(), "expected sampled series, got:\n{first}");
    assert_eq!(first, second, "seeded telemetry must be deterministic");
}

#[test]
fn jsonl_lines_are_standalone_json_without_wall_time() {
    // A stripped report encodes as one standalone JSON line holding only
    // simulated quantities.
    let line = canonical_fig6_report();
    assert!(!line.contains('\n'), "the report spans several lines");
    assert!(!line.contains("wall"), "wall time leaked into the report");
    assert!(!line.contains("_per_sec"), "a wall-clock rate leaked");
    let parsed = penelope_telemetry::json::parse(&line).expect("the line parses");
    assert_eq!(
        parsed.encode(),
        line,
        "the line re-encodes byte-identically"
    );
}

#[test]
fn driver_reports_validate_and_carry_phases() {
    let collector = instrumented_fig6();
    let report = build_report(&collector);
    validate_report(&report).expect("driver-built report validates");

    let phases = report
        .get("phases")
        .and_then(Json::as_array)
        .expect("phases array");
    let names: Vec<&str> = phases
        .iter()
        .filter_map(|p| p.get("name").and_then(Json::as_str))
        .collect();
    assert!(
        names.iter().any(|n| n.starts_with("fig6")),
        "fig6 phases missing from {names:?}"
    );
    let cycles = report
        .get("totals")
        .and_then(|t| t.get("cycles"))
        .and_then(Json::as_u64)
        .expect("totals.cycles");
    assert!(cycles > 0, "instrumented run credited no cycles");
}

#[test]
fn faulted_driver_still_reports() {
    use penelope::fault::FaultPlan;
    recorder::install(settings());
    // Whatever the plan does, the recorder must come back with a valid
    // report — faulted runs are exactly when telemetry matters most.
    let _ = experiments::efficiency_summary_faulted(Scale::quick(), &FaultPlan::random(7));
    let collector = recorder::finish().expect("recorder was installed");
    validate_report(&build_report(&collector)).expect("faulted report validates");
}

#[test]
fn disabled_recorder_stays_inert_across_a_driver() {
    let _ = recorder::finish();
    experiments::fig6(Scale::quick()).expect("quick fig6 runs");
    assert!(
        recorder::finish().is_none(),
        "driver must not install a recorder on its own"
    );
}
