//! Differential test for the faulted workload feed.
//!
//! `experiments::feed` with a [`FaultInjector`] must reproduce, trace for
//! trace, the hand-written fault loop it replaced: wrap the hooks, perturb
//! the workload, then draw one `trace_fault` per trace in workload order
//! and run the faulted stream. Both sides start from the same plan and a
//! fresh processor; after `sync` their per-trace results, landed strikes,
//! register-file and scheduler residency integrals, and the injector's
//! position in its random stream must all agree.
//!
//! `experiments::feed_arms` over several arms must reproduce one `feed`
//! per arm, made in arm order: the same per-arm, per-trace results, and
//! with a recorder installed the same absorbed telemetry and totals.

use penelope::cache_aware::SchemeKind;
use penelope::error::Error;
use penelope::experiments::{feed, feed_arms, Scale};
use penelope::fault::{FaultInjector, FaultKind, FaultPlan};
use penelope::processor::{build, PenelopeConfig};
use penelope_telemetry::recorder::{self, Settings};
use penelope_telemetry::TelemetryOutput;
use tracegen::error::TraceError;
use tracegen::fault::{faulted, TraceFault};
use uarch::bitstats::BitResidency;
use uarch::pipeline::{Pipeline, RunResult};
use uarch::scheduler::Field;

const SCALE: Scale = Scale {
    traces_per_suite: 1,
    uops_per_trace: 4_000,
    time_scale: 1_000,
};

/// Everything observable about one faulted workload run.
#[derive(Debug, PartialEq)]
struct Observed {
    runs: Result<Vec<RunResult>, String>,
    landed: u64,
    int_rf: (u64, Vec<u64>),
    fp_rf: (u64, Vec<u64>),
    sched_fields: Vec<(u64, Vec<u64>)>,
    /// The injector's next draw after the run: pins how many draws the
    /// run consumed, including for an emptied workload.
    next_fault: TraceFault,
}

fn residency(r: &BitResidency) -> (u64, Vec<u64>) {
    (
        r.total_time(),
        (0..r.width()).map(|b| r.zero_cycles(b)).collect(),
    )
}

fn observe(
    pipe: Pipeline,
    runs: Result<Vec<RunResult>, Error>,
    landed: u64,
    injector: &mut FaultInjector,
) -> Observed {
    Observed {
        runs: runs.map_err(|e| e.to_string()),
        landed,
        int_rf: residency(pipe.parts.int_rf.residency()),
        fp_rf: residency(pipe.parts.fp_rf.residency()),
        sched_fields: Field::ALL
            .iter()
            .map(|&f| residency(pipe.parts.sched.field_residency(f)))
            .collect(),
        next_fault: injector.trace_fault(SCALE.uops_per_trace),
    }
}

fn config() -> PenelopeConfig {
    PenelopeConfig {
        sample_period: SCALE.time_scale.max(64),
        ..PenelopeConfig::default()
    }
}

/// The reference: the fault loop drivers hand-wrote before `feed`,
/// keeping each trace's result instead of merging them.
fn reference(plan: &FaultPlan) -> Observed {
    let (mut pipe, hooks) = build(&config()).expect("valid config");
    let mut injector = FaultInjector::new(plan);
    let mut fault_hooks = injector.hooks(hooks);
    let workload = injector.perturb_workload(SCALE.workload());
    let mut runs = Vec::new();
    for spec in workload.specs() {
        let fault = injector.trace_fault(SCALE.uops_per_trace);
        runs.push(pipe.run(
            faulted(spec.generate(SCALE.uops_per_trace), fault),
            &mut fault_hooks,
        ));
    }
    let runs = if runs.is_empty() {
        Err(TraceError::EmptyWorkload.into())
    } else {
        Ok(runs)
    };
    observe(pipe, runs, fault_hooks.landed(), &mut injector)
}

fn fed(plan: &FaultPlan) -> Observed {
    let (mut pipe, hooks) = build(&config()).expect("valid config");
    let mut injector = FaultInjector::new(plan);
    let mut fault_hooks = injector.hooks(hooks);
    let workload = injector.perturb_workload(SCALE.workload());
    let runs = feed(
        &mut pipe,
        &workload,
        SCALE.uops_per_trace,
        &mut fault_hooks,
        Some(&mut injector),
    );
    observe(pipe, runs, fault_hooks.landed(), &mut injector)
}

fn assert_same(plan: FaultPlan) {
    let want = reference(&plan);
    let got = fed(&plan);
    assert_eq!(
        got, want,
        "feed diverged from the reference loop for {plan:?}"
    );
}

#[test]
fn clean_plan_matches_the_reference_loop() {
    assert_same(FaultPlan::none());
}

#[test]
fn truncation_matches_the_reference_loop() {
    assert_same(FaultPlan::new(11).with(FaultKind::TruncateTraces {
        keep_per_mille: 500,
    }));
}

#[test]
fn zero_values_and_forced_mispredicts_match_the_reference_loop() {
    assert_same(FaultPlan::new(12).with(FaultKind::AdversarialStress));
}

#[test]
fn result_xor_draws_one_mask_per_trace_like_the_reference_loop() {
    let plan = FaultPlan::new(13).with(FaultKind::FlipTraceValues);
    let got = fed(&plan);
    assert!(got.runs.is_ok());
    assert_ne!(got.next_fault.result_xor, 0, "the plan flips values");
    assert_same(plan);
}

#[test]
fn structure_strikes_match_the_reference_loop() {
    let plan = FaultPlan::new(14).with(FaultKind::StructureStrikes);
    let got = fed(&plan);
    assert!(got.landed > 0, "strikes should land at this scale");
    assert_same(plan);
}

#[test]
fn combined_faults_match_the_reference_loop() {
    assert_same(
        FaultPlan::new(15)
            .with(FaultKind::FlipTraceValues)
            .with(FaultKind::TruncateTraces {
                keep_per_mille: 250,
            })
            .with(FaultKind::StructureStrikes),
    );
}

#[test]
fn an_emptied_workload_draws_no_trace_fault() {
    let plan = FaultPlan::new(16)
        .with(FaultKind::EmptyWorkload)
        .with(FaultKind::FlipTraceValues);
    let got = fed(&plan);
    assert!(got.runs.is_err(), "an empty workload is a typed error");
    assert_same(plan);
}

/// Three arms that differ in pipeline geometry (set parking halves the
/// DL0), schemes and seed, so an arm that ran on another arm's pipeline or
/// hooks would show.
fn arm_configs() -> Vec<PenelopeConfig> {
    vec![
        config(),
        PenelopeConfig {
            dl0_scheme: SchemeKind::set_fixed_50(5_000),
            seed: 2,
            ..config()
        },
        PenelopeConfig {
            dtlb_scheme: SchemeKind::line_dynamic_60(0.02, SCALE.time_scale),
            btb_scheme: SchemeKind::Baseline,
            seed: 3,
            ..config()
        },
    ]
}

/// What a recorder collected, minus spans and wall time: fewer
/// `obs.with_recording` spans is the one difference arms may make.
type Recorded = (TelemetryOutput, u64, u64);

/// Runs `body` under a fresh recorder when `record` is set.
fn recorded<T>(record: bool, body: impl FnOnce() -> T) -> (T, Option<Recorded>) {
    let _ = recorder::finish();
    if record {
        recorder::install(Settings {
            sample_period: 128,
            series_capacity: 4_096,
        });
    }
    let result = body();
    let collected = recorder::finish().map(|c| (c.output, c.total_cycles, c.total_uops));
    (result, collected)
}

/// One `feed` per arm, in arm order, each with a fresh injector of `plan`.
fn sequential_feeds(plan: &FaultPlan, record: bool) -> (Vec<Vec<RunResult>>, Option<Recorded>) {
    recorded(record, || {
        arm_configs()
            .iter()
            .map(|config| {
                let (mut pipe, mut hooks) = build(config).expect("valid config");
                let mut injector = FaultInjector::new(plan);
                let workload = injector.perturb_workload(SCALE.workload());
                let uops = SCALE.uops_per_trace;
                feed(&mut pipe, &workload, uops, &mut hooks, Some(&mut injector))
                    .expect("workload is not empty")
            })
            .collect()
    })
}

/// All arms fed together, drawing each trace fault once from one injector.
fn arms_fed_together(plan: &FaultPlan, record: bool) -> (Vec<Vec<RunResult>>, Option<Recorded>) {
    recorded(record, || {
        let mut arms: Vec<_> = arm_configs()
            .iter()
            .map(|config| build(config).expect("valid config"))
            .collect();
        let mut injector = FaultInjector::new(plan);
        let workload = injector.perturb_workload(SCALE.workload());
        let uops = SCALE.uops_per_trace;
        feed_arms(&mut arms, &workload, uops, Some(&mut injector)).expect("workload is not empty")
    })
}

fn assert_arms_match_sequential_feeds(plan: FaultPlan) {
    for record in [false, true] {
        let (want, want_recorded) = sequential_feeds(&plan, record);
        let (got, got_recorded) = arms_fed_together(&plan, record);
        assert_eq!(want.len(), 3);
        assert_eq!(
            got, want,
            "arms diverged from sequential feeds for {plan:?} (recorder: {record})"
        );
        if let Some((output, cycles, _)) = &got_recorded {
            assert!(
                !output.series.is_empty() && *cycles > 0,
                "the recorder sampled"
            );
        }
        assert_eq!(got_recorded.is_some(), record);
        assert!(
            got_recorded == want_recorded,
            "arms recorded different telemetry or totals for {plan:?}"
        );
    }
}

#[test]
fn arms_fed_together_match_one_feed_per_arm() {
    assert_arms_match_sequential_feeds(FaultPlan::none());
}

#[test]
fn truncated_and_flipped_traces_reach_every_arm_alike() {
    assert_arms_match_sequential_feeds(FaultPlan::new(17).with(FaultKind::FlipTraceValues).with(
        FaultKind::TruncateTraces {
            keep_per_mille: 400,
        },
    ));
}
