//! Deterministic fault injection for the experiment pipeline.
//!
//! A [`FaultPlan`] is a seeded recipe of [`FaultKind`]s; a [`FaultInjector`]
//! executes it against the three surfaces the pipeline exposes:
//!
//! - **workloads and traces** — truncation, emptying, result-bit flips and
//!   adversarial stress vectors, applied through
//!   [`tracegen::fault::TraceFault`];
//! - **configurations** — zero-capacity caches, degenerate register files
//!   and schedulers, zero sampling periods, NaN / out-of-range duties;
//! - **live structure state** — periodic RINV corruption and structure
//!   strikes ([`uarch::fault::StructureFault`]) delivered through
//!   [`FaultHooks`] while the pipeline runs.
//!
//! Everything derives from the plan's seed through a [`XorShift`] stream,
//! so a failing plan replays exactly. The design goal is stated by the
//! robustness harness: any plan, however hostile, must produce either a
//! typed [`crate::error::Error`] or a valid result — never a panic.

use uarch::fault::{CacheTarget, StructureFault};
use uarch::pipeline::{Hooks, Parts, RegClass};
use uarch::scheduler::Field;

use crate::cache_aware::XorShift;
use crate::processor::{PenelopeConfig, PenelopeHooks};
use tracegen::fault::TraceFault;
use tracegen::trace::Workload;

/// One class of injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Truncate every trace to `keep_per_mille`/1000 of its requested
    /// length (0 empties the traces).
    TruncateTraces {
        /// Thousandths of the trace to keep.
        keep_per_mille: u16,
    },
    /// Remove every trace from the workload.
    EmptyWorkload,
    /// XOR a derived mask into every uop's result value.
    FlipTraceValues,
    /// Worst-case stress vectors: all-zero values and every branch
    /// mispredicted.
    AdversarialStress,
    /// Zero the capacity of one cache-like structure in the configuration.
    ZeroCapacityCache {
        /// Which structure.
        target: CacheTarget,
    },
    /// Zero the associativity of one cache-like structure.
    ZeroWays {
        /// Which structure.
        target: CacheTarget,
    },
    /// Shrink both register files below the architectural minimum.
    TinyRegfiles,
    /// Remove every scheduler entry.
    NoSchedulerEntries,
    /// Zero the RINV sampling period.
    ZeroSamplePeriod,
    /// Replace a duty input to the technique casuistic with NaN.
    NanDuty,
    /// Push a duty input to the technique casuistic out of `[0, 1]`.
    OutOfRangeDuty,
    /// Periodically XOR a derived mask into the live RINV images.
    FlipRinvBits,
    /// Periodic strikes against live structure state (line inversions,
    /// register and scheduler field flips, cache flushes).
    StructureStrikes,
}

impl FaultKind {
    /// Representative instances of every kind, used by [`FaultPlan::random`]
    /// to draw plans.
    pub const MENU: [FaultKind; 16] = [
        FaultKind::TruncateTraces { keep_per_mille: 0 },
        FaultKind::TruncateTraces { keep_per_mille: 10 },
        FaultKind::TruncateTraces {
            keep_per_mille: 500,
        },
        FaultKind::EmptyWorkload,
        FaultKind::FlipTraceValues,
        FaultKind::AdversarialStress,
        FaultKind::ZeroCapacityCache {
            target: CacheTarget::Dl0,
        },
        FaultKind::ZeroCapacityCache {
            target: CacheTarget::Dtlb,
        },
        FaultKind::ZeroWays {
            target: CacheTarget::Btb,
        },
        FaultKind::TinyRegfiles,
        FaultKind::NoSchedulerEntries,
        FaultKind::ZeroSamplePeriod,
        FaultKind::NanDuty,
        FaultKind::OutOfRangeDuty,
        FaultKind::FlipRinvBits,
        FaultKind::StructureStrikes,
    ];
}

/// A seeded recipe of faults to inject into one experiment run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed for every derived mask, index and strike schedule.
    pub seed: u64,
    /// The faults to apply (empty = run clean).
    pub kinds: Vec<FaultKind>,
}

impl FaultPlan {
    /// A plan injecting nothing: the pipeline runs clean.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            kinds: Vec::new(),
        }
    }

    /// An empty plan with a seed, ready for [`FaultPlan::with`].
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            kinds: Vec::new(),
        }
    }

    /// Adds one fault kind (builder style).
    pub fn with(mut self, kind: FaultKind) -> Self {
        self.kinds.push(kind);
        self
    }

    /// Draws a random plan of 1–3 faults, fully determined by `seed`. Used
    /// by the fuzz suite to sweep the fault space.
    pub fn random(seed: u64) -> Self {
        let mut rng = XorShift::new(seed);
        let count = 1 + rng.below(3);
        let kinds = (0..count)
            .map(|_| FaultKind::MENU[rng.below(FaultKind::MENU.len())])
            .collect();
        FaultPlan { seed, kinds }
    }

    /// Whether the plan injects anything at all.
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    fn has(&self, pred: impl Fn(&FaultKind) -> bool) -> bool {
        self.kinds.iter().any(pred)
    }
}

/// Executes a [`FaultPlan`]: perturbs workloads, trace streams, configs and
/// duty values, and builds [`FaultHooks`] for runtime strikes.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: XorShift,
}

impl FaultInjector {
    /// Prepares to execute `plan`.
    pub fn new(plan: &FaultPlan) -> Self {
        FaultInjector {
            plan: plan.clone(),
            rng: XorShift::new(plan.seed ^ 0xFA17_FA17_FA17_FA17),
        }
    }

    /// An injector that does nothing (a clean run).
    pub fn disabled() -> Self {
        FaultInjector::new(&FaultPlan::none())
    }

    /// The plan being executed.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Applies workload-level faults (trace removal).
    pub fn perturb_workload(&mut self, workload: Workload) -> Workload {
        if self.plan.has(|k| matches!(k, FaultKind::EmptyWorkload)) {
            Workload::empty()
        } else {
            workload
        }
    }

    /// The trace-stream fault for one trace of `requested_len` uops.
    pub fn trace_fault(&mut self, requested_len: usize) -> TraceFault {
        let mut fault = TraceFault::none();
        for kind in &self.plan.kinds {
            match kind {
                FaultKind::TruncateTraces { keep_per_mille } => {
                    let keep = requested_len * usize::from(*keep_per_mille).min(1000) / 1000;
                    fault.truncate_to = Some(fault.truncate_to.map_or(keep, |prev| prev.min(keep)));
                }
                FaultKind::FlipTraceValues => {
                    fault.result_xor =
                        u128::from(self.rng.next_u64()) | (u128::from(self.rng.next_u64()) << 64);
                }
                FaultKind::AdversarialStress => {
                    fault.zero_values = true;
                    fault.force_mispredicts = true;
                }
                _ => {}
            }
        }
        fault
    }

    /// Applies configuration-level faults in place.
    pub fn perturb_config(&mut self, config: &mut PenelopeConfig) {
        for kind in &self.plan.kinds {
            match kind {
                FaultKind::ZeroCapacityCache { target } => match target {
                    CacheTarget::Dl0 => config.pipeline.dl0.size_bytes = 0,
                    CacheTarget::L2 => {
                        if let Some(l2) = &mut config.pipeline.l2 {
                            l2.size_bytes = 0;
                        }
                    }
                    CacheTarget::Dtlb => config.pipeline.dtlb_entries = 0,
                    CacheTarget::Btb => config.pipeline.btb_entries = 0,
                },
                FaultKind::ZeroWays { target } => match target {
                    CacheTarget::Dl0 => config.pipeline.dl0.ways = 0,
                    CacheTarget::L2 => {
                        if let Some(l2) = &mut config.pipeline.l2 {
                            l2.ways = 0;
                        }
                    }
                    CacheTarget::Dtlb => config.pipeline.dtlb_ways = 0,
                    CacheTarget::Btb => config.pipeline.btb_ways = 0,
                },
                FaultKind::TinyRegfiles => {
                    config.pipeline.int_rf.entries = 16;
                    config.pipeline.fp_rf.entries = 8;
                }
                FaultKind::NoSchedulerEntries => config.pipeline.sched_entries = 0,
                FaultKind::ZeroSamplePeriod => config.sample_period = 0,
                _ => {}
            }
        }
    }

    /// Perturbs a duty/bias value headed into the technique casuistic.
    pub fn perturb_duty(&mut self, duty: f64) -> f64 {
        if self.plan.has(|k| matches!(k, FaultKind::NanDuty)) {
            return f64::NAN;
        }
        if self.plan.has(|k| matches!(k, FaultKind::OutOfRangeDuty)) {
            // Alternate above and below the valid range.
            return if self.rng.next_u64() & 1 == 0 {
                duty + 1.5
            } else {
                duty - 1.5
            };
        }
        duty
    }

    /// Wraps a hook set with the plan's runtime faults (RINV corruption and
    /// structure strikes). With no runtime faults in the plan the wrapper
    /// is a transparent pass-through.
    pub fn hooks<H: Hooks + RinvAccess>(&mut self, inner: H) -> FaultHooks<H> {
        FaultHooks {
            inner,
            flip_rinv: self.plan.has(|k| matches!(k, FaultKind::FlipRinvBits)),
            strikes: self.plan.has(|k| matches!(k, FaultKind::StructureStrikes)),
            // A prime period avoids locking onto sampling periods.
            period: 997,
            rng: XorShift::new(self.plan.seed ^ 0x57A1_C3B2_9D4E_6F80),
            landed: 0,
        }
    }
}

/// Access to a hook set's RINV state, so fault injection and invariant
/// checks can reach the sampled images without knowing the concrete type.
/// The defaults describe a hook set with no RINV (nothing to corrupt).
/// Staleness is read through `EventSource::rinv_age` instead.
pub trait RinvAccess {
    /// XORs a mask into every RINV image the hook set holds.
    fn corrupt_rinv(&mut self, _mask: u128) {}

    /// Whether every `ALL1-K%`/`ALL0-K%` fraction the hook set applies lies
    /// in `[0, 1]`. Hook sets without a scheduler policy are vacuously
    /// valid.
    fn k_budgets_valid(&self) -> bool {
        true
    }
}

impl RinvAccess for uarch::pipeline::NoHooks {}

impl RinvAccess for PenelopeHooks {
    fn corrupt_rinv(&mut self, mask: u128) {
        self.regfiles.int.corrupt_rinv(mask);
        self.regfiles.fp.corrupt_rinv(mask);
        self.sched.balancer.corrupt_rinv(mask);
    }

    fn k_budgets_valid(&self) -> bool {
        self.sched.balancer.policy().validate_k_budgets().is_ok()
    }
}

impl<H: RinvAccess> RinvAccess for FaultHooks<H> {
    fn corrupt_rinv(&mut self, mask: u128) {
        self.inner.corrupt_rinv(mask);
    }

    fn k_budgets_valid(&self) -> bool {
        self.inner.k_budgets_valid()
    }
}

/// A hook wrapper delivering runtime faults while delegating every event to
/// the wrapped mechanism hooks.
#[derive(Debug, Clone)]
pub struct FaultHooks<H> {
    inner: H,
    flip_rinv: bool,
    strikes: bool,
    period: u64,
    rng: XorShift,
    landed: u64,
}

impl<H> FaultHooks<H> {
    /// The wrapped hook set.
    pub fn inner(&self) -> &H {
        &self.inner
    }

    /// Consumes the wrapper, returning the wrapped hook set.
    pub fn into_inner(self) -> H {
        self.inner
    }

    /// Number of runtime faults that landed.
    pub fn landed(&self) -> u64 {
        self.landed
    }

    fn draw_strike(&mut self) -> StructureFault {
        let targets = CacheTarget::ALL;
        match self.rng.below(5) {
            0 => StructureFault::InvertCacheLine {
                target: targets[self.rng.below(targets.len())],
                set: self.rng.below(usize::MAX),
            },
            1 => StructureFault::FlushCache {
                target: targets[self.rng.below(targets.len())],
            },
            2 => StructureFault::RegfileBitFlip {
                class: if self.rng.next_u64() & 1 == 0 {
                    RegClass::Int
                } else {
                    RegClass::Fp
                },
                preg: (self.rng.next_u64() & 0xFFFF) as u16,
                mask: u128::from(self.rng.next_u64()),
            },
            3 => StructureFault::SchedulerFieldFlip {
                slot: self.rng.below(usize::MAX),
                field: Field::ALL[self.rng.below(Field::ALL.len())],
                mask: u128::from(self.rng.next_u64()),
            },
            _ => StructureFault::InvertCacheLine {
                target: CacheTarget::Dl0,
                set: self.rng.below(usize::MAX),
            },
        }
    }
}

impl<H: Hooks + RinvAccess> Hooks for FaultHooks<H> {
    fn regfile_written(
        &mut self,
        rf: &mut uarch::regfile::RegisterFile,
        class: RegClass,
        preg: uarch::regfile::PhysReg,
        value: u128,
        now: u64,
    ) {
        self.inner.regfile_written(rf, class, preg, value, now);
    }

    fn regfile_released(
        &mut self,
        rf: &mut uarch::regfile::RegisterFile,
        class: RegClass,
        preg: uarch::regfile::PhysReg,
        now: u64,
    ) {
        self.inner.regfile_released(rf, class, preg, now);
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

    fn scheduler_released(
        &mut self,
        sched: &mut uarch::scheduler::Scheduler,
        slot: uarch::scheduler::SlotId,
        now: u64,
    ) {
        self.inner.scheduler_released(sched, slot, now);
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
        if (self.flip_rinv || self.strikes) && now.is_multiple_of(self.period) {
            if self.flip_rinv {
                let mask = u128::from(self.rng.next_u64());
                self.inner.corrupt_rinv(mask);
                self.landed += 1;
            }
            if self.strikes {
                let strike = self.draw_strike();
                if uarch::fault::apply(parts, &strike, now) {
                    self.landed += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracegen::suite::Suite;
    use tracegen::trace::TraceSpec;
    use uarch::pipeline::Pipeline;

    #[test]
    fn random_plans_are_deterministic_and_nonempty() {
        for seed in 0..50 {
            let a = FaultPlan::random(seed);
            let b = FaultPlan::random(seed);
            assert_eq!(a, b);
            assert!(!a.is_empty());
            assert!(a.kinds.len() <= 3);
        }
        assert_ne!(FaultPlan::random(1), FaultPlan::random(2));
    }

    #[test]
    fn empty_workload_fault_empties_the_workload() {
        let mut inj = FaultInjector::new(&FaultPlan::new(9).with(FaultKind::EmptyWorkload));
        assert!(inj.perturb_workload(Workload::sample(1)).is_empty());
        let mut clean = FaultInjector::disabled();
        assert_eq!(clean.perturb_workload(Workload::sample(1)).len(), 10);
    }

    #[test]
    fn truncation_composes_with_minimum() {
        let plan = FaultPlan::new(1)
            .with(FaultKind::TruncateTraces {
                keep_per_mille: 500,
            })
            .with(FaultKind::TruncateTraces { keep_per_mille: 10 });
        let mut inj = FaultInjector::new(&plan);
        let fault = inj.trace_fault(1000);
        assert_eq!(fault.truncate_to, Some(10));
    }

    #[test]
    fn config_faults_make_build_fail_typed() {
        use crate::processor::build;
        for kind in [
            FaultKind::ZeroCapacityCache {
                target: CacheTarget::Dl0,
            },
            FaultKind::ZeroWays {
                target: CacheTarget::Dtlb,
            },
            FaultKind::TinyRegfiles,
            FaultKind::NoSchedulerEntries,
            FaultKind::ZeroSamplePeriod,
        ] {
            let mut config = PenelopeConfig::default();
            let mut inj = FaultInjector::new(&FaultPlan::new(3).with(kind));
            inj.perturb_config(&mut config);
            assert!(build(&config).is_err(), "{kind:?} should fail the build");
        }
    }

    #[test]
    fn duty_faults_are_rejected_by_the_casuistic() {
        use crate::technique::choose_technique;
        let mut nan = FaultInjector::new(&FaultPlan::new(4).with(FaultKind::NanDuty));
        let d = nan.perturb_duty(0.6);
        assert!(d.is_nan());
        assert!(choose_technique(d, 0.5, 0.5).is_err());

        let mut oor = FaultInjector::new(&FaultPlan::new(4).with(FaultKind::OutOfRangeDuty));
        let d = oor.perturb_duty(0.6);
        assert!(!(0.0..=1.0).contains(&d));
        assert!(choose_technique(d, 0.5, 0.5).is_err());
    }

    #[test]
    fn runtime_faults_land_during_a_run() {
        let config = PenelopeConfig::default();
        let (mut pipe, hooks) = crate::processor::build(&config).expect("valid");
        let plan = FaultPlan::new(7)
            .with(FaultKind::FlipRinvBits)
            .with(FaultKind::StructureStrikes);
        let mut inj = FaultInjector::new(&plan);
        let mut faulted = inj.hooks(hooks);
        pipe.run(
            TraceSpec::new(Suite::Workstation, 0).generate(20_000),
            &mut faulted,
        );
        assert!(faulted.landed() > 0, "strikes should land in 20k uops");
    }

    #[test]
    fn clean_injector_is_transparent() {
        let trace = || TraceSpec::new(Suite::Office, 1).generate(15_000);
        let config = PenelopeConfig::default();

        let (mut plain_pipe, mut plain_hooks) = crate::processor::build(&config).expect("valid");
        let plain = plain_pipe.run(trace(), &mut plain_hooks);

        let mut inj = FaultInjector::disabled();
        let (mut pipe, hooks) = crate::processor::build(&config).expect("valid");
        let mut wrapped = inj.hooks(hooks);
        let result = pipe.run(
            tracegen::fault::faulted(trace(), inj.trace_fault(15_000)),
            &mut wrapped,
        );
        assert_eq!(plain, result);
        assert_eq!(wrapped.landed(), 0);
    }

    #[test]
    fn strikes_never_panic_on_a_bare_pipeline() {
        // 200 random strikes against a running pipeline must all be legal.
        let mut pipe = Pipeline::new(uarch::pipeline::PipelineConfig::default());
        pipe.run(
            TraceSpec::new(Suite::Kernels, 1).generate(5_000),
            &mut uarch::pipeline::NoHooks,
        );
        let mut hooks = FaultHooks {
            inner: uarch::pipeline::NoHooks,
            flip_rinv: false,
            strikes: true,
            period: 1,
            rng: XorShift::new(0xDEAD),
            landed: 0,
        };
        let now = pipe.now();
        for i in 0..200 {
            let strike = hooks.draw_strike();
            uarch::fault::apply(&mut pipe.parts, &strike, now + i);
        }
    }
}
