//! Degenerate-input regression tests: empty and single-uop traces through
//! both pipeline loops must produce finite statistics, and zero-span
//! residency windows must report duty 0.0 instead of NaN.
//!
//! These pin the `total_time == 0` / `span == 0` guards in
//! `uarch::bitstats` — a fleet profiling pass over a trivial workload must
//! never leak NaN into the aging model — and the scheduler-size bound of
//! the event core's one-word slot sets.

use tracegen::suite::Suite;
use tracegen::trace::TraceSpec;
use uarch::error::PipelineError;
use uarch::pipeline::{NoHooks, Pipeline, PipelineConfig, RunResult, MAX_SCHED_ENTRIES};

fn pipeline() -> Pipeline {
    Pipeline::try_new(PipelineConfig::default()).expect("default configuration is valid")
}

/// Every duty readout a driver consumes after a run, asserted finite and
/// in range.
fn assert_finite_duties(pipe: &Pipeline, result: &RunResult) {
    assert!(result.cpi().is_finite(), "cpi must be finite: {result:?}");
    for (name, bias) in [
        ("int_rf", pipe.parts.int_rf.residency().biases()),
        ("fp_rf", pipe.parts.fp_rf.residency().biases()),
    ] {
        for (bit, duty) in bias.iter().enumerate() {
            let f = duty.fraction();
            assert!(
                f.is_finite() && (0.0..=1.0).contains(&f),
                "{name} bit {bit}: bias {f} out of range"
            );
        }
    }
    for rf in [&pipe.parts.int_rf, &pipe.parts.fp_rf] {
        let worst = rf.residency().worst_cell_duty().fraction();
        assert!(
            worst.is_finite() && (0.0..=1.0).contains(&worst),
            "worst cell duty {worst} out of range"
        );
    }
    let occupancy = pipe.parts.sched.occupancy(pipe.now());
    assert!(
        occupancy.is_finite() && (0.0..=1.0).contains(&occupancy),
        "scheduler occupancy {occupancy} out of range"
    );
}

#[test]
fn a_fresh_pipeline_reports_zero_duty_not_nan() {
    // Zero observed span: no run at all. Every bias must be exactly 0.0
    // (the documented degenerate-window answer), never NaN from 0/0.
    let pipe = pipeline();
    assert_eq!(pipe.parts.int_rf.residency().total_time(), 0);
    for duty in pipe.parts.int_rf.residency().biases() {
        assert_eq!(duty.fraction(), 0.0, "zero-span bias must be 0.0");
    }
    assert_eq!(pipe.parts.sched.occupancy(pipe.now()), 0.0);
}

#[test]
fn an_empty_trace_runs_cleanly_through_the_event_driven_loop() {
    let mut pipe = pipeline();
    let result = pipe.run(std::iter::empty(), &mut NoHooks);
    assert_eq!(result.uops, 0);
    assert_eq!(result.cpi(), 0.0, "cpi of an empty run is defined as 0.0");
    assert_finite_duties(&pipe, &result);
}

#[test]
fn an_empty_trace_runs_cleanly_through_the_cycle_accurate_loop() {
    let mut pipe = pipeline();
    let result = pipe.run_cycle_accurate(std::iter::empty(), &mut NoHooks);
    assert_eq!(result.uops, 0);
    assert_eq!(result.cpi(), 0.0);
    assert_finite_duties(&pipe, &result);
}

#[test]
fn a_single_uop_trace_runs_cleanly_through_both_loops() {
    let trace = TraceSpec::new(Suite::Office, 0);
    let mut event = pipeline();
    let fast = event.run(trace.generate(1), &mut NoHooks);
    assert_eq!(fast.uops, 1);
    assert_finite_duties(&event, &fast);

    let mut reference = pipeline();
    let slow = reference.run_cycle_accurate(trace.generate(1), &mut NoHooks);
    assert_eq!(slow.uops, 1);
    assert_finite_duties(&reference, &slow);

    // The event-driven loop is observably identical to the reference even
    // on a one-uop trace (all drain, no steady state).
    assert_eq!(fast, slow);
}

#[test]
fn a_64_entry_scheduler_runs_and_a_65_entry_one_is_refused() {
    assert_eq!(MAX_SCHED_ENTRIES, 64);
    let full = PipelineConfig {
        sched_entries: 64,
        ..PipelineConfig::default()
    };
    let mut pipe = Pipeline::try_new(full).expect("64 entries fit the slot sets");
    let result = pipe.run(
        TraceSpec::new(Suite::Server, 0).generate(2_000),
        &mut NoHooks,
    );
    assert_eq!(result.uops, 2_000);
    assert_finite_duties(&pipe, &result);

    let over = PipelineConfig {
        sched_entries: 65,
        ..PipelineConfig::default()
    };
    let refused = PipelineError::TooManySchedulerEntries {
        entries: 65,
        max: 64,
    };
    assert_eq!(Pipeline::validate(&over), Err(refused.clone()));
    assert_eq!(Pipeline::try_new(over).err(), Some(refused.clone()));
    assert!(refused.to_string().contains("65"), "{refused}");
}
