//! Quickstart: protect a processor's structures against NBTI aging and
//! compare the cost/benefit against the conventional designs.
//!
//! Run with: `cargo run --release -p penelope --example quickstart`

use nbti_model::duty::Duty;
use nbti_model::guardband::GuardbandModel;
use nbti_model::metric::BlockCost;
use penelope::adder_aware::AdderProtection;
use penelope::invert_mode::{full_guardband_baseline, InvertMode};
use penelope::processor::{build, PenelopeConfig};
use tracegen::suite::Suite;
use tracegen::trace::TraceSpec;

fn main() {
    let model = GuardbandModel::paper_calibrated();

    // 1. The problem: an unprotected block pays the full 20% guardband.
    let baseline = full_guardband_baseline(&model);
    println!(
        "baseline:           guardband {:>5.1}%  NBTIefficiency {:.2}",
        baseline.guardband() * 100.0,
        baseline.nbti_efficiency()
    );

    // 2. The conventional fix (invert mode) trades the guardband for delay.
    let invert = InvertMode::paper_default().block_cost(Duty::saturating(0.9), &model);
    println!(
        "invert-mode:        guardband {:>5.1}%  NBTIefficiency {:.2} (10% slower cycle)",
        invert.guardband() * 100.0,
        invert.nbti_efficiency()
    );

    // 3. Penelope: build a gate-level Ladner-Fischer adder, pick the idle
    //    vectors that heal it, and account the guardband at 21% utilization.
    let adder = gatesim::adder::LadnerFischerAdder::new(32);
    let protection = AdderProtection::select(&adder);
    let inputs = penelope::adder_aware::real_adder_inputs(&TraceSpec::new(Suite::Office, 0), 4_000);
    let gb = protection.guardband(&adder, 0.21, inputs, &model);
    let adder_cost = AdderProtection::block_cost(gb);
    println!(
        "Penelope adder:     guardband {:>5.1}%  NBTIefficiency {:.2} (idle pair {})",
        adder_cost.guardband() * 100.0,
        adder_cost.nbti_efficiency(),
        protection.pair()
    );

    // 4. Run a trace through the fully protected pipeline and read the
    //    balancing effect off the register file.
    let config = PenelopeConfig::default();
    let (mut pipe, mut hooks) = build(&config).expect("valid config");
    let result = pipe.run(
        TraceSpec::new(Suite::Office, 0).generate(30_000),
        &mut hooks,
    );
    let worst = pipe.parts.int_rf.residency().worst_cell_duty();
    let rf_cost = BlockCost::new(1.0, 1.01, model.cell_guardband(worst).fraction());
    println!(
        "Penelope regfile:   guardband {:>5.1}%  NBTIefficiency {:.2} (worst bit-cell duty {}, CPI {:.3})",
        rf_cost.guardband() * 100.0,
        rf_cost.nbti_efficiency(),
        worst,
        result.cpi()
    );

    println!(
        "\nISV updates: {} attempted, {:.0}% found an idle write port",
        hooks.regfiles.int.attempts(),
        hooks.regfiles.int.update_success_rate() * 100.0
    );
}
