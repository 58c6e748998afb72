//! Integration tests: every experiment is exactly reproducible — traces,
//! scheme randomness and pipeline behaviour are all deterministically
//! seeded.

use penelope::experiments::{self, Scale};
use penelope::processor::{build, PenelopeConfig};
use tracegen::suite::Suite;
use tracegen::trace::{TraceSpec, Workload};

#[test]
fn traces_are_stable_across_reruns() {
    let spec = TraceSpec::new(Suite::Workstation, 7);
    let a: Vec<_> = spec.generate(2_000).collect();
    let b: Vec<_> = spec.generate(2_000).collect();
    assert_eq!(a, b);
}

#[test]
fn workload_population_is_stable() {
    assert_eq!(Workload::full().specs(), Workload::full().specs());
    assert_eq!(Workload::sample(3).specs(), Workload::sample(3).specs());
}

#[test]
fn full_processor_runs_are_bit_identical() {
    let run = || {
        let config = PenelopeConfig::default();
        let (mut pipe, mut hooks) = build(&config).expect("valid config");
        let r = pipe.run(
            TraceSpec::new(Suite::Encoder, 5).generate(20_000),
            &mut hooks,
        );
        (
            r.cycles,
            r.port_issues,
            pipe.parts.dl0.stats().clone(),
            pipe.parts.int_rf.residency().biases(),
        )
    };
    let (c1, p1, s1, b1) = run();
    let (c2, p2, s2, b2) = run();
    assert_eq!(c1, c2);
    assert_eq!(p1, p2);
    assert_eq!(s1, s2);
    assert_eq!(b1, b2);
}

#[test]
fn experiment_drivers_are_reproducible() {
    let a = experiments::fig5(Scale::quick()).expect("quick scale runs");
    let b = experiments::fig5(Scale::quick()).expect("quick scale runs");
    assert_eq!(a, b);
    let f4a = experiments::fig4().expect("fixed adder");
    let f4b = experiments::fig4().expect("fixed adder");
    assert_eq!(f4a, f4b);
}
