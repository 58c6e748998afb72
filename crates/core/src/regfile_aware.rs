//! The NBTI-aware register file (§4.4): invert-at-release via `RINV`.
//!
//! Registers are free more than half of the time, so the casuistic selects
//! `ISV`: when a register is released, it is rewritten with the inverted
//! sampled value held in `RINV`, through a write port left idle by real
//! traffic in that cycle. Updates that find no idle port are discarded —
//! the paper measures that ports are available at 92% (INT) / 86% (FP) of
//! releases, so the loss is negligible.
//!
//! Cost model (§4.4): one extra register (`RINV`) and timestamps for a
//! single sampled register — below 1% area for a 128-entry highly ported
//! file, booked as 1% TDP; no delay impact because neither ports nor
//! critical paths change. Measured bias falls from ~90% to ~50% and the
//! guardband from 20% to ~3.6%.

use nbti_model::duty::Duty;
use nbti_model::guardband::GuardbandModel;
use nbti_model::metric::BlockCost;
use uarch::pipeline::{Hooks, RegClass};
use uarch::regfile::{PhysReg, RegisterFile};

use crate::rinv::{IsvGate, Rinv};

/// ISV mechanism for one register file.
#[derive(Debug, Clone)]
pub struct RegfileIsv {
    class: RegClass,
    rinv: Rinv,
    /// Balancing-write statistics (the "92% of the times" measurement).
    attempts: u64,
    successes: u64,
    /// The one sampled entry (§3.2.2: "we sample a single entry to decide
    /// when to write inverted contents ... a fixed entry for the sake of
    /// simplicity") and its timestamp gate.
    sampled: PhysReg,
    gate: IsvGate,
}

impl RegfileIsv {
    /// Creates the mechanism for a register file of the given class and
    /// width, sampling `RINV` every `sample_period` cycles.
    pub fn new(class: RegClass, width: usize, sample_period: u64) -> Self {
        RegfileIsv {
            class,
            rinv: Rinv::new(width, sample_period),
            attempts: 0,
            successes: 0,
            sampled: 0,
            gate: IsvGate::default(),
        }
    }

    /// Whether the sampled entry has spent at least as long non-inverted as
    /// inverted — the §3.2.2 timestamp gate deciding if releases should be
    /// rewritten right now.
    pub fn should_invert(&self, now: u64) -> bool {
        self.gate.should_invert(now)
    }

    /// The register class this instance protects.
    pub fn class(&self) -> RegClass {
        self.class
    }

    /// Observes an architectural write (the RINV sampling point: "data from
    /// any port").
    pub fn on_written(&mut self, preg: PhysReg, value: u128, now: u64) {
        self.rinv.offer(value, now);
        if preg == self.sampled {
            // A real write replaces the inverted image with live data.
            self.gate.flip(false, now);
        }
    }

    /// Handles a release: writes `RINV` into the freed register through an
    /// idle write port, when the timestamp gate allows it. The cycle's
    /// architectural writes have already claimed their ports by this point,
    /// and updates that find no idle port are simply discarded (§4.4).
    pub fn on_released(&mut self, rf: &mut RegisterFile, preg: PhysReg, now: u64) {
        if !self.should_invert(now) {
            return;
        }
        self.attempts += 1;
        if rf.try_write_free(preg, self.rinv.value(), now) {
            self.successes += 1;
            if preg == self.sampled {
                self.gate.flip(true, now);
            }
        }
    }

    /// XORs a mask into the RINV image (fault injection).
    pub fn corrupt_rinv(&mut self, mask: u128) {
        self.rinv.corrupt(mask);
    }

    /// Staleness of the RINV image at `now`, with its sampling period (for
    /// freshness checks).
    pub fn rinv_staleness(&self, now: u64) -> (u64, u64) {
        (self.rinv.staleness(now), self.rinv.period())
    }

    /// Fraction of releases whose balancing write found an idle port.
    pub fn update_success_rate(&self) -> f64 {
        if self.attempts == 0 {
            1.0
        } else {
            self.successes as f64 / self.attempts as f64
        }
    }

    /// Total balancing writes attempted.
    pub fn attempts(&self) -> u64 {
        self.attempts
    }

    /// The §4.4 cost record for this mechanism given the measured worst
    /// bias: no delay impact, ~1% TDP for RINV plus timestamps.
    pub fn block_cost(worst_bias: Duty, model: &GuardbandModel) -> BlockCost {
        let gb = model.cell_guardband(worst_bias);
        BlockCost::new(1.0, 1.01, gb.fraction())
    }
}

/// Hook adapter protecting both register files with ISV.
#[derive(Debug, Clone)]
pub struct RegfileIsvHooks {
    /// Integer-file mechanism.
    pub int: RegfileIsv,
    /// FP-file mechanism.
    pub fp: RegfileIsv,
}

impl RegfileIsvHooks {
    /// Creates mechanisms for both files with the paper-like widths.
    pub fn new(sample_period: u64) -> Self {
        RegfileIsvHooks {
            int: RegfileIsv::new(RegClass::Int, 32, sample_period),
            fp: RegfileIsv::new(RegClass::Fp, 80, sample_period),
        }
    }

    fn of(&mut self, class: RegClass) -> &mut RegfileIsv {
        match class {
            RegClass::Int => &mut self.int,
            RegClass::Fp => &mut self.fp,
        }
    }
}

impl Hooks for RegfileIsvHooks {
    fn regfile_written(
        &mut self,
        _rf: &mut RegisterFile,
        class: RegClass,
        preg: PhysReg,
        value: u128,
        now: u64,
    ) {
        self.of(class).on_written(preg, value, now);
    }

    fn regfile_released(
        &mut self,
        rf: &mut RegisterFile,
        class: RegClass,
        preg: PhysReg,
        now: u64,
    ) {
        self.of(class).on_released(rf, preg, now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbti_model::guardband::GuardbandModel;
    use tracegen::suite::Suite;
    use tracegen::trace::TraceSpec;
    use uarch::pipeline::{NoHooks, Pipeline, PipelineConfig};

    #[test]
    fn isv_balances_the_integer_register_file() {
        let trace = || TraceSpec::new(Suite::SpecInt2000, 1).generate(40_000);

        let mut base_pipe = Pipeline::new(PipelineConfig::default());
        base_pipe.run(trace(), &mut NoHooks);
        let base_worst = base_pipe.parts.int_rf.residency().worst_cell_duty();

        let mut isv_pipe = Pipeline::new(PipelineConfig::default());
        let mut hooks = RegfileIsvHooks::new(512);
        isv_pipe.run(trace(), &mut hooks);
        let isv_worst = isv_pipe.parts.int_rf.residency().worst_cell_duty();

        // Paper: worst-case bias falls from 89.9% to 48.5% (cell duty
        // 89.9% → 51.5%). Require a large reduction and near-balance.
        assert!(
            base_worst.fraction() > 0.80,
            "baseline worst cell duty {base_worst}"
        );
        assert!(
            isv_worst.fraction() < 0.65,
            "ISV worst cell duty {isv_worst} (baseline {base_worst})"
        );
    }

    #[test]
    fn update_success_rate_is_high() {
        let mut pipe = Pipeline::new(PipelineConfig::default());
        let mut hooks = RegfileIsvHooks::new(512);
        pipe.run(
            TraceSpec::new(Suite::Multimedia, 0).generate(30_000),
            &mut hooks,
        );
        assert!(hooks.int.attempts() > 0);
        let rate = hooks.int.update_success_rate();
        // Paper: 92% for the integer file.
        assert!(rate > 0.75, "success rate {rate}");
    }

    #[test]
    fn block_cost_matches_section_4_4() {
        let model = GuardbandModel::paper_calibrated();
        // Worst measured FP bias in the paper: 45.5% towards 0.
        let cost = RegfileIsv::block_cost(Duty::new(0.455).unwrap(), &model);
        assert!((cost.nbti_efficiency() - 1.12).abs() < 0.01);
    }

    #[test]
    fn releases_write_rinv_into_the_freed_register() {
        let mut isv = RegfileIsv::new(RegClass::Int, 32, 100);
        isv.on_written(5, 0x0000_00FF, 0); // RINV becomes 0xFFFF_FF00
        let mut rf = RegisterFile::new(uarch::regfile::RegFileConfig::integer());
        let a = rf.allocate(1).unwrap();
        rf.release(a, 2);
        isv.on_released(&mut rf, a, 2);
        assert_eq!(isv.attempts(), 1);
        assert!((isv.update_success_rate() - 1.0).abs() < 1e-12);
        assert_eq!(rf.value_of(a), 0xFFFF_FF00);
    }
}
