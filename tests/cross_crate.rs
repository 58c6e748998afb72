//! Integration tests across crates: the pipeline, the mechanisms and the
//! metric interact correctly on real workloads.

use nbti_model::guardband::GuardbandModel;
use penelope::cache_aware::SchemeKind;
use penelope::processor::{build, PenelopeConfig};
use tracegen::suite::Suite;
use tracegen::trace::TraceSpec;
use uarch::cache::CacheConfig;
use uarch::pipeline::{NoHooks, Pipeline, PipelineConfig};

#[test]
fn every_suite_runs_through_the_pipeline() {
    for suite in Suite::ALL {
        let mut pipe = Pipeline::new(PipelineConfig::default());
        let result = pipe.run(TraceSpec::new(suite, 0).generate(5_000), &mut NoHooks);
        assert_eq!(result.uops, 5_000, "{suite} lost uops");
        let cpi = result.cpi();
        assert!((0.25..=5.0).contains(&cpi), "{suite}: CPI {cpi}");
        assert_eq!(pipe.parts.mob.in_use_count(), 0, "{suite} leaked MOB ids");
    }
}

#[test]
fn miss_penalties_raise_cpi_monotonically() {
    let run_with_penalty = |penalty: u64| {
        let config = PipelineConfig {
            dl0: CacheConfig::dl0(8, 4),
            dl0_miss_penalty: penalty,
            ..PipelineConfig::default()
        };
        let mut pipe = Pipeline::new(config);
        pipe.run(
            TraceSpec::new(Suite::Server, 1).generate(20_000),
            &mut NoHooks,
        )
        .cpi()
    };
    let fast = run_with_penalty(4);
    let slow = run_with_penalty(40);
    assert!(slow > fast, "penalty 40 ({slow}) vs 4 ({fast})");
}

#[test]
fn penelope_slowdown_is_small_on_average() {
    // The whole point: protection costs around a percent of CPI on
    // average. Individual cache-hungry traces can lose more (which is what
    // motivates the dynamic scheme), so this checks a cross-suite mix.
    let mix = [
        (Suite::Office, 1),
        (Suite::Multimedia, 3),
        (Suite::SpecInt2000, 2),
        (Suite::Kernels, 0),
    ];
    let run = |protected: bool| {
        let mut cycles = 0;
        let mut uops = 0;
        if protected {
            let (mut pipe, mut hooks) = build(&PenelopeConfig::default()).expect("valid config");
            for (suite, idx) in mix {
                let r = pipe.run(TraceSpec::new(suite, idx).generate(25_000), &mut hooks);
                cycles += r.cycles;
                uops += r.uops;
            }
        } else {
            let mut pipe = Pipeline::new(PipelineConfig::default());
            for (suite, idx) in mix {
                let r = pipe.run(TraceSpec::new(suite, idx).generate(25_000), &mut NoHooks);
                cycles += r.cycles;
                uops += r.uops;
            }
        }
        cycles as f64 / uops as f64
    };
    let loss = run(true) / run(false) - 1.0;
    assert!(loss < 0.06, "Penelope CPI loss {loss}");
}

#[test]
fn set_parking_costs_more_on_small_caches() {
    let loss_for = |kb: u32| {
        let pconfig = PipelineConfig {
            dl0: CacheConfig::dl0(kb, 8),
            ..PipelineConfig::default()
        };
        let trace = || TraceSpec::new(Suite::Spec2006, 0).generate(25_000);

        let mut base = Pipeline::new(pconfig);
        let base_cpi = base.run(trace(), &mut NoHooks).cpi();

        let config = PenelopeConfig {
            pipeline: pconfig,
            dl0_scheme: SchemeKind::set_fixed_50(50_000),
            dtlb_scheme: SchemeKind::Baseline,
            ..PenelopeConfig::default()
        };
        let (mut pipe, mut hooks) = build(&config).expect("valid config");
        let cpi = pipe.run(trace(), &mut hooks).cpi();
        (cpi / base_cpi - 1.0).max(0.0)
    };
    let large = loss_for(32);
    let small = loss_for(8);
    assert!(
        small >= large,
        "halving an 8KB cache ({small}) should hurt at least as much as a 32KB one ({large})"
    );
}

#[test]
fn guardband_model_consumes_measured_biases() {
    // End-to-end: run, measure, map to guardband — types compose.
    let model = GuardbandModel::paper_calibrated();
    let mut pipe = Pipeline::new(PipelineConfig::default());
    pipe.run(
        TraceSpec::new(Suite::Office, 4).generate(10_000),
        &mut NoHooks,
    );
    let worst = pipe.parts.int_rf.residency().worst_cell_duty();
    let gb = model.cell_guardband(worst);
    assert!(gb.fraction() >= 0.02 && gb.fraction() <= 0.20);
}

#[test]
fn dtlb_scheme_operates_on_page_granularity() {
    let config = PenelopeConfig {
        dl0_scheme: SchemeKind::Baseline,
        dtlb_scheme: SchemeKind::line_fixed_50(),
        ..PenelopeConfig::default()
    };
    let (mut pipe, mut hooks) = build(&config).expect("valid config");
    pipe.run(
        TraceSpec::new(Suite::Server, 2).generate(25_000),
        &mut hooks,
    );
    let now = pipe.now();
    let frac = hooks.dtlb.inverted_fraction(pipe.parts.dtlb.cache(), now);
    assert!(frac > 0.25, "DTLB inverted fraction {frac}");
}
