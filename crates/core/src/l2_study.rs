//! Extension: where does periodic inversion make sense?
//!
//! §3 argues that operating in inverted mode "may pay off for some slow
//! structures (e.g., 2nd level caches), but may harm performance for some
//! fast structures", and Table 4 repeats the point. This study makes the
//! argument quantitative on an L2 behind the DL0:
//!
//! - **invert mode on the L2** costs one XNOR on the L2 data path. The L2
//!   is accessed only on DL0 misses, so the cost is one extra cycle on a
//!   miss path that already takes tens of cycles — the CPI impact is tiny,
//!   and the bit cells balance perfectly (bias → 50%).
//! - **invert mode on the DL0** (or the register file, scheduler, ...)
//!   stretches the processor *cycle* by ~10%, which multiplies everything.
//! - **LineFixed on the L2** is Penelope's alternative: no latency cost,
//!   but half the capacity, which the larger L2 can usually spare.

use nbti_model::duty::Duty;
use nbti_model::guardband::GuardbandModel;
use nbti_model::metric::BlockCost;
use penelope_telemetry::EventSource;
use tracegen::trace::Workload;
use uarch::cache::CacheConfig;
use uarch::pipeline::{Hooks, NoHooks, Pipeline, PipelineConfig, RunResult};

use crate::cache_aware::{effective_bias, SchemeKind, SchemeRuntime};
use crate::error::Error;
use crate::experiments::{feed, sum_runs};
use crate::invert_mode::InvertMode;

/// One design point of the study.
#[derive(Debug, Clone, PartialEq)]
pub struct L2StudyRow {
    /// Design-point name.
    pub name: String,
    /// CPI relative to the unprotected-L2 baseline.
    pub relative_cpi: f64,
    /// Relative cycle time (1.10 when the XNOR sits on a cycle-critical
    /// path; 1.0 when it hides in the L2 access).
    pub cycle_time: f64,
    /// Worst L2 bit-cell duty after mitigation.
    pub worst_duty: f64,
    /// `NBTIefficiency` of the L2 block under this design.
    pub efficiency: f64,
}

/// Hook adapter applying a [`SchemeRuntime`] to the L2.
#[derive(Debug, Clone)]
struct L2SchemeHooks {
    scheme: SchemeRuntime,
}

impl EventSource for L2SchemeHooks {}

impl Hooks for L2SchemeHooks {
    fn l2_accessed(
        &mut self,
        l2: &mut uarch::cache::SetAssocCache,
        outcome: &uarch::cache::AccessOutcome,
        now: u64,
    ) {
        self.scheme.on_access(l2, outcome, now);
    }

    fn cycle_end(&mut self, parts: &mut uarch::pipeline::Parts, now: u64) {
        if let Some(l2) = parts.l2.as_mut() {
            self.scheme.on_cycle(l2, now);
        }
    }
}

/// Assumed bias of L2 bit cells for live data (the paper's ~90%).
const L2_DATA_BIAS: f64 = 0.90;

fn run_l2<H: Hooks + EventSource>(
    l2: CacheConfig,
    l2_extra_latency: u64,
    workload: &Workload,
    uops: usize,
    hooks: &mut H,
) -> Result<(Pipeline, RunResult), Error> {
    let config = PipelineConfig {
        l2: Some(l2),
        // A smaller DL0 makes the L2 actually matter.
        dl0: CacheConfig::dl0(8, 8),
        dl0_miss_penalty: 12 + l2_extra_latency,
        ..PipelineConfig::default()
    };
    let mut pipe = Pipeline::try_new(config)?;
    let runs = feed(&mut pipe, workload, uops, hooks, None)?;
    Ok((pipe, sum_runs(&runs)))
}

/// Runs the three design points on a 256KB 8-way L2.
///
/// # Errors
///
/// Returns [`Error::Trace`] when the workload holds no traces.
pub fn l2_study(workload: &Workload, uops: usize) -> Result<Vec<L2StudyRow>, Error> {
    let _span = penelope_telemetry::span!("driver: l2_study");
    let model = GuardbandModel::paper_calibrated();
    let l2_config = CacheConfig {
        size_bytes: 256 * 1024,
        ways: 8,
        line_bytes: 64,
    };

    // Baseline: unprotected L2, full guardband on its cells.
    let (_, base) = run_l2(l2_config, 0, workload, uops, &mut NoHooks)?;
    let base_duty = Duty::saturating(L2_DATA_BIAS).cell_worst();
    let mut rows = vec![L2StudyRow {
        name: "unprotected".into(),
        relative_cpi: 1.0,
        cycle_time: 1.0,
        worst_duty: base_duty.fraction(),
        efficiency: BlockCost::new(1.0, 1.0, model.guardband(base_duty).fraction())
            .nbti_efficiency(),
    }];

    // Invert mode on the L2: one extra cycle on the L2 access path; the
    // processor cycle time is untouched because the XNOR hides in a
    // multi-cycle access.
    let (_, inv) = run_l2(l2_config, 1, workload, uops, &mut NoHooks)?;
    let balanced = InvertMode::paper_default().balanced_bias(Duty::saturating(L2_DATA_BIAS));
    rows.push(L2StudyRow {
        name: "invert mode (L2 path)".into(),
        relative_cpi: inv.cpi() / base.cpi(),
        cycle_time: 1.0,
        worst_duty: balanced.cell_worst().fraction(),
        efficiency: BlockCost::new(
            inv.cpi() / base.cpi(),
            1.0,
            model.cell_guardband(balanced).fraction(),
        )
        .nbti_efficiency(),
    });

    // Penelope LineFixed50% on the L2: capacity cost instead of latency.
    let mut hooks = L2SchemeHooks {
        scheme: SchemeRuntime::new(SchemeKind::line_fixed_50(), 97),
    };
    let (pipe, lf) = run_l2(l2_config, 0, workload, uops, &mut hooks)?;
    let now = pipe.now();
    let frac = pipe
        .parts
        .l2
        .as_ref()
        .map_or(0.0, |l2| hooks.scheme.inverted_fraction(l2, now));
    let lf_bias = Duty::saturating(effective_bias(L2_DATA_BIAS, frac));
    rows.push(L2StudyRow {
        name: "Penelope LineFixed50%".into(),
        relative_cpi: lf.cpi() / base.cpi(),
        cycle_time: 1.0,
        worst_duty: lf_bias.cell_worst().fraction(),
        efficiency: BlockCost::new(
            lf.cpi() / base.cpi(),
            1.0,
            model.cell_guardband(lf_bias).fraction(),
        )
        .nbti_efficiency(),
    });

    // For contrast: invert mode applied to a *fast* structure stretches
    // the processor cycle by 10% (the §4.2 example).
    rows.push(L2StudyRow {
        name: "invert mode on a fast block (for contrast)".into(),
        relative_cpi: 1.0,
        cycle_time: 1.10,
        worst_duty: 0.5,
        efficiency: BlockCost::new(1.10, 1.0, model.best_case().fraction()).nbti_efficiency(),
    });

    Ok(rows)
}

/// Renders the study.
pub fn render_l2_study(rows: &[L2StudyRow]) -> String {
    let mut out = String::from(
        "Extension: periodic inversion vs Penelope on a 256KB L2\n\
         design point                                 rel CPI  cycle  worst duty  efficiency\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<44} {:>7.4}  {:>5.2}  {:>9.1}%  {:>10.3}\n",
            r.name,
            r.relative_cpi,
            r.cycle_time,
            r.worst_duty * 100.0,
            r.efficiency,
        ));
    }
    out.push_str(
        "(the paper's point: the XNOR hides in the slow L2 path, so invert mode is fine\n\
         there — but on cycle-critical blocks it costs 10% frequency, where Penelope\n\
         costs nothing)\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l2_study_supports_the_papers_table_4_claim() {
        let workload = Workload::sample(1);
        let rows = l2_study(&workload, 8_000).expect("the paper workload is nonempty");
        assert_eq!(rows.len(), 4);
        let by_name = |needle: &str| {
            rows.iter()
                .find(|r| r.name.contains(needle))
                .unwrap_or_else(|| panic!("missing {needle}"))
        };
        let unprotected = by_name("unprotected");
        let invert_l2 = by_name("invert mode (L2");
        let penelope = by_name("LineFixed");
        let invert_fast = by_name("fast block");

        // Both mitigations balance the cells and beat the unprotected L2.
        assert!(invert_l2.worst_duty < 0.55);
        assert!(penelope.worst_duty < 0.60);
        assert!(invert_l2.efficiency < unprotected.efficiency);
        assert!(penelope.efficiency < unprotected.efficiency);
        // Invert mode on the slow L2 is cheap (CPI within a fraction of a
        // percent)...
        assert!(invert_l2.relative_cpi < 1.01);
        // ...but on a fast block it is the worst protected option.
        assert!(invert_fast.efficiency > invert_l2.efficiency);
        assert!(invert_fast.efficiency > penelope.efficiency);
    }

    #[test]
    fn l2_reduces_effective_miss_penalty() {
        let workload = Workload::sample(1);
        // With an L2, a DL0 miss usually stops there instead of paying the
        // long memory latency: CPI must not be worse than without one.
        let no_l2 = {
            let config = PipelineConfig {
                dl0: CacheConfig::dl0(8, 8),
                dl0_miss_penalty: 12 + 40,
                ..PipelineConfig::default()
            };
            let mut pipe = Pipeline::new(config);
            let mut cycles = 0;
            let mut uops_n = 0;
            for spec in workload.specs() {
                let r = pipe.run(spec.generate(8_000), &mut NoHooks);
                cycles += r.cycles;
                uops_n += r.uops;
            }
            cycles as f64 / uops_n as f64
        };
        let (_, with_l2) = run_l2(
            CacheConfig {
                size_bytes: 256 * 1024,
                ways: 8,
                line_bytes: 64,
            },
            0,
            &workload,
            8_000,
            &mut NoHooks,
        )
        .expect("the paper workload is nonempty");
        assert!(
            with_l2.cpi() <= no_l2 + 1e-9,
            "L2 must help: {} vs {no_l2}",
            with_l2.cpi()
        );
    }
}
