//! Runtime invariant checking for pipeline runs.
//!
//! [`CheckedHooks`] wraps any mechanism hook set and, every check period,
//! validates the quantities the aging model depends on:
//!
//! - **duties and occupancies** — every measured fraction (scheduler
//!   occupancy, register-file free time, per-structure worst cell duty,
//!   cache inverted-time fraction) must be finite and within `[0, 1]`;
//! - **cache line accounting** — inverted plus valid lines can never
//!   exceed the structure's capacity, in each of DL0, L2 (when present),
//!   DTLB and BTB;
//! - **RINV freshness** — sampled images must not be older than a large
//!   multiple of their sampling period while traffic flows;
//! - **K-fraction budgets** — every `ALL1-K%`/`ALL0-K%` fraction in the
//!   active policy must lie in `[0, 1]` (checked once, at the first
//!   period).
//!
//! A violation is counted, and the first few are kept verbatim; the run
//! goes on, and [`CheckedHooks::into_result`] turns any violation into a
//! typed [`Error::Invariant`] when it ends.

use penelope_telemetry::EventSource;
use uarch::fault::CacheTarget;
use uarch::pipeline::{Hooks, Parts};

use crate::error::Error;
use crate::fault::RinvAccess;

/// What to do when an invariant check fails: `Count` is the only
/// policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Policy {
    /// Record silently; the caller inspects
    /// [`CheckedHooks::into_result`] / [`CheckedHooks::violation_count`].
    #[default]
    Count,
}

/// One recorded invariant violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Cycle at which the check ran.
    pub cycle: u64,
    /// Structure the violated invariant belongs to.
    pub structure: String,
    /// Full message: `[cycle N] structure: detail`.
    pub message: String,
}

/// How many violation messages are kept verbatim (the count is unbounded).
const MAX_SAMPLE: usize = 8;

/// Staleness tolerance: a RINV image older than this many sampling periods
/// is reported (structures see constant traffic in every workload, so a
/// fresh sample should never be this far away).
const STALENESS_PERIODS: u64 = 64;

/// A hook wrapper that validates runtime invariants each check period.
#[derive(Debug, Clone)]
pub struct CheckedHooks<H> {
    inner: H,
    period: u64,
    next_check: u64,
    checked_budgets: bool,
    count: u64,
    sample: Vec<Violation>,
}

impl<H> CheckedHooks<H> {
    /// Wraps `inner`, checking invariants every `period` cycles (clamped to
    /// at least 1), counting violations under [`Policy::Count`].
    pub fn new(inner: H, _policy: Policy, period: u64) -> Self {
        CheckedHooks {
            inner,
            period: period.max(1),
            next_check: 0,
            checked_budgets: false,
            count: 0,
            sample: Vec::new(),
        }
    }

    /// The wrapped hook set.
    pub fn inner(&self) -> &H {
        &self.inner
    }

    /// Total violations observed so far.
    pub fn violation_count(&self) -> u64 {
        self.count
    }

    /// The first few recorded violations (bounded sample).
    pub fn violations(&self) -> &[Violation] {
        &self.sample
    }

    /// Unwraps without checking.
    pub fn into_inner(self) -> H {
        self.inner
    }

    /// Finishes the run: `Ok(inner)` if no violation was observed,
    /// otherwise [`Error::Invariant`] carrying the count and sample.
    pub fn into_result(self) -> Result<H, Error> {
        if self.count == 0 {
            Ok(self.inner)
        } else {
            Err(Error::Invariant {
                count: self.count,
                sample: self.sample.into_iter().map(|v| v.message).collect(),
            })
        }
    }

    /// Records one violation. Every message names the structure and the
    /// cycle, so a violation surfaced later through [`Error::Invariant`]'s
    /// sample is self-locating.
    pub(crate) fn record(&mut self, cycle: u64, structure: &str, detail: String) {
        self.count += 1;
        if self.sample.len() < MAX_SAMPLE {
            self.sample.push(Violation {
                cycle,
                structure: structure.to_string(),
                message: format!("[cycle {cycle}] {structure}: {detail}"),
            });
        }
    }

    fn check_fraction(&mut self, cycle: u64, structure: &str, what: &str, value: f64) {
        if !value.is_finite() || !(0.0..=1.0).contains(&value) {
            self.record(cycle, structure, format!("{what} = {value} outside [0, 1]"));
        }
    }
}

impl<H: Hooks + RinvAccess + EventSource> CheckedHooks<H> {
    fn run_checks(&mut self, parts: &mut Parts, now: u64) {
        // Occupancies and free fractions.
        let occ = parts.sched.occupancy(now);
        self.check_fraction(now, "scheduler", "occupancy", occ);
        let data_occ = parts.sched.data_occupancy(now);
        self.check_fraction(now, "scheduler", "data occupancy", data_occ);
        let int_free = parts.int_rf.free_fraction(now);
        self.check_fraction(now, "integer RF", "free fraction", int_free);
        let fp_free = parts.fp_rf.free_fraction(now);
        self.check_fraction(now, "FP RF", "free fraction", fp_free);

        // Worst cell duties (the inputs to the guardband model). A check
        // lands mid-run, before the run settles, so each read syncs first.
        parts.int_rf.sync(now);
        let duty = parts.int_rf.residency().worst_cell_duty().fraction();
        self.check_fraction(now, "integer RF", "worst cell duty", duty);
        parts.fp_rf.sync(now);
        let duty = parts.fp_rf.residency().worst_cell_duty().fraction();
        self.check_fraction(now, "FP RF", "worst cell duty", duty);
        parts.sched.sync(now);
        let duty = crate::sched_aware::worst_figure8_bias(&parts.sched).fraction();
        self.check_fraction(now, "scheduler", "worst cell duty", duty);

        // Cache line accounting and inverted-time fractions.
        let names = ["DL0", "L2", "DTLB", "BTB"];
        for (target, name) in CacheTarget::ALL.into_iter().zip(names) {
            let Some(cache) = parts.cache_mut(target) else {
                continue;
            };
            let lines = cache.config().lines();
            let used = cache.inverted_count() + cache.valid_count();
            if used > lines {
                self.record(
                    now,
                    name,
                    format!("{used} inverted+valid lines exceed capacity {lines}"),
                );
            }
            let frac = cache.inverted_time_fraction(now);
            self.check_fraction(now, name, "inverted-time fraction", frac);
        }

        // RINV freshness.
        if let Some((age, period)) = self.inner.rinv_age(now) {
            let budget = STALENESS_PERIODS * period.max(1);
            // Grace: young runs have not had time to sample yet.
            if age > budget && now > budget {
                self.record(
                    now,
                    "RINV",
                    format!("stale: {age} cycles old (period {period})"),
                );
            }
        }

        // K-fraction budgets, once.
        if !self.checked_budgets {
            self.checked_budgets = true;
            if !self.inner.k_budgets_valid() {
                self.record(now, "scheduler policy", "holds a K outside [0, 1]".into());
            }
        }
    }
}

impl<H: Hooks + RinvAccess + EventSource> Hooks for CheckedHooks<H> {
    fn regfile_released(
        &mut self,
        rf: &mut uarch::regfile::RegisterFile,
        class: uarch::pipeline::RegClass,
        preg: uarch::regfile::PhysReg,
        now: u64,
    ) {
        self.inner.regfile_released(rf, class, preg, now);
    }

    fn regfile_written(
        &mut self,
        rf: &mut uarch::regfile::RegisterFile,
        class: uarch::pipeline::RegClass,
        preg: uarch::regfile::PhysReg,
        value: u128,
        now: u64,
    ) {
        self.inner.regfile_written(rf, class, preg, value, now);
    }

    fn scheduler_released(
        &mut self,
        sched: &mut uarch::scheduler::Scheduler,
        slot: uarch::scheduler::SlotId,
        now: u64,
    ) {
        self.inner.scheduler_released(sched, slot, now);
    }

    fn scheduler_allocated(
        &mut self,
        sched: &mut uarch::scheduler::Scheduler,
        slot: uarch::scheduler::SlotId,
        values: &uarch::scheduler::EntryValues,
        now: u64,
    ) {
        self.inner.scheduler_allocated(sched, slot, values, now);
    }

    fn dl0_accessed(
        &mut self,
        dl0: &mut uarch::cache::SetAssocCache,
        outcome: &uarch::cache::AccessOutcome,
        now: u64,
    ) {
        self.inner.dl0_accessed(dl0, outcome, now);
    }

    fn l2_accessed(
        &mut self,
        l2: &mut uarch::cache::SetAssocCache,
        outcome: &uarch::cache::AccessOutcome,
        now: u64,
    ) {
        self.inner.l2_accessed(l2, outcome, now);
    }

    fn dtlb_accessed(
        &mut self,
        dtlb: &mut uarch::tlb::Dtlb,
        outcome: &uarch::cache::AccessOutcome,
        now: u64,
    ) {
        self.inner.dtlb_accessed(dtlb, outcome, now);
    }

    fn btb_accessed(
        &mut self,
        btb: &mut uarch::btb::Btb,
        outcome: &uarch::cache::AccessOutcome,
        now: u64,
    ) {
        self.inner.btb_accessed(btb, outcome, now);
    }

    fn cycle_end(&mut self, parts: &mut Parts, now: u64) {
        self.inner.cycle_end(parts, now);
        if now >= self.next_check {
            self.next_check = now + self.period;
            self.run_checks(parts, now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultInjector, FaultKind, FaultPlan};
    use crate::processor::{build, PenelopeConfig};
    use tracegen::suite::Suite;
    use tracegen::trace::TraceSpec;
    use uarch::pipeline::NoHooks;

    #[test]
    fn clean_runs_report_no_violations() {
        let (mut pipe, hooks) = build(&PenelopeConfig::default()).expect("valid");
        let mut checked = CheckedHooks::new(hooks, Policy::Count, 512);
        pipe.run(
            TraceSpec::new(Suite::SpecFp2000, 0).generate(20_000),
            &mut checked,
        );
        assert_eq!(checked.violation_count(), 0, "{:?}", checked.violations());
        assert!(checked.into_result().is_ok());
    }

    #[test]
    fn clean_runs_with_bare_hooks_are_clean_too() {
        let mut pipe = uarch::pipeline::Pipeline::new(uarch::pipeline::PipelineConfig::default());
        let mut checked = CheckedHooks::new(NoHooks, Policy::Count, 256);
        pipe.run(
            TraceSpec::new(Suite::Productivity, 0).generate(10_000),
            &mut checked,
        );
        assert_eq!(checked.violation_count(), 0, "{:?}", checked.violations());
    }

    #[test]
    fn rinv_corruption_does_not_break_range_invariants() {
        // Corrupted RINV values change balancing *content* but every duty
        // must remain a valid fraction — the checker proves the measurement
        // chain is robust to the corruption.
        let (mut pipe, hooks) = build(&PenelopeConfig::default()).expect("valid");
        let plan = FaultPlan::new(11)
            .with(FaultKind::FlipRinvBits)
            .with(FaultKind::StructureStrikes);
        let mut inj = FaultInjector::new(&plan);
        let faulted = inj.hooks(hooks);
        let mut checked = CheckedHooks::new(faulted, Policy::Count, 512);
        pipe.run(
            TraceSpec::new(Suite::Multimedia, 2).generate(20_000),
            &mut checked,
        );
        assert!(checked.inner().landed() > 0, "faults should land");
        assert_eq!(checked.violation_count(), 0, "{:?}", checked.violations());
    }

    #[test]
    fn violations_surface_as_invariant_error() {
        let mut checked = CheckedHooks::new(NoHooks, Policy::Count, 1);
        checked.record(5, "scheduler", "synthetic violation".into());
        checked.record(6, "DL0", "another".into());
        assert_eq!(checked.violation_count(), 2);
        match checked.into_result() {
            Err(Error::Invariant { count, sample }) => {
                assert_eq!(count, 2);
                assert_eq!(sample.len(), 2);
                // Every surfaced message locates itself: structure + cycle.
                assert_eq!(sample[0], "[cycle 5] scheduler: synthetic violation");
                assert_eq!(sample[1], "[cycle 6] DL0: another");
            }
            other => panic!("expected invariant error, got {other:?}"),
        }
    }

    #[test]
    fn sample_is_bounded() {
        let mut checked = CheckedHooks::new(NoHooks, Policy::Count, 1);
        for i in 0..100 {
            checked.record(i, "test", format!("v{i}"));
        }
        assert_eq!(checked.violation_count(), 100);
        assert_eq!(checked.violations().len(), MAX_SAMPLE);
    }
}
