//! The whole Penelope processor: all mechanisms composed (§4.7).
//!
//! Combines the ISV register files, the per-field scheduler balancer and
//! the cache/TLB inversion schemes into one [`Hooks`] implementation, and
//! builds the pipeline whose cache geometry matches the chosen schemes
//! (set/way parking reduces effective capacity).

use uarch::btb::Btb;
use uarch::cache::{AccessOutcome, SetAssocCache};
use uarch::pipeline::{Hooks, Parts, Pipeline, PipelineConfig, RegClass};
use uarch::regfile::{PhysReg, RegisterFile};
use uarch::scheduler::{EntryValues, Scheduler, SlotId};
use uarch::tlb::Dtlb;

use crate::cache_aware::{SchemeKind, SchemeRuntime};
use crate::error::Error;
use crate::regfile_aware::RegfileIsvHooks;
use crate::sched_aware::{SchedulerBalancer, SchedulerHooks, SchedulerPolicy};

/// Configuration of the composed processor.
#[derive(Debug, Clone)]
pub struct PenelopeConfig {
    /// Baseline pipeline parameters (cache geometries are adjusted by the
    /// schemes).
    pub pipeline: PipelineConfig,
    /// Scheme protecting the DL0.
    pub dl0_scheme: SchemeKind,
    /// Scheme protecting the DTLB.
    pub dtlb_scheme: SchemeKind,
    /// Scheme protecting the BTB (an extension; the paper lists the branch
    /// predictor as cache-like but evaluates only DL0 and DTLB).
    pub btb_scheme: SchemeKind,
    /// RINV sampling period for the explicitly managed structures.
    pub sample_period: u64,
    /// Per-field scheduler policy (the paper's hardwired classification by
    /// default; experiments usually profile one instead, as §4.5 does).
    pub sched_policy: SchedulerPolicy,
    /// Seed for the schemes' deterministic randomness.
    pub seed: u64,
}

impl Default for PenelopeConfig {
    fn default() -> Self {
        PenelopeConfig {
            pipeline: PipelineConfig::default(),
            dl0_scheme: SchemeKind::line_fixed_50(),
            dtlb_scheme: SchemeKind::line_fixed_50(),
            btb_scheme: SchemeKind::line_fixed_50(),
            sample_period: 1024,
            sched_policy: SchedulerPolicy::paper_default(),
            seed: penelope_seed(),
        }
    }
}

/// The default scheme seed: the bytes of "PENELOPE".
const fn penelope_seed() -> u64 {
    0x5045_4E45_4C4F_5045
}

/// All Penelope mechanisms composed into one hook set.
#[derive(Debug, Clone)]
pub struct PenelopeHooks {
    /// ISV protection of both register files.
    pub regfiles: RegfileIsvHooks,
    /// Per-field scheduler balancing.
    pub sched: SchedulerHooks,
    /// DL0 inversion scheme.
    pub dl0: SchemeRuntime,
    /// DTLB inversion scheme.
    pub dtlb: SchemeRuntime,
    /// BTB inversion scheme.
    pub btb: SchemeRuntime,
}

impl PenelopeHooks {
    /// Builds the hook set for a configuration.
    pub fn new(config: &PenelopeConfig) -> Self {
        let CacheSchemes { dl0, dtlb, btb } = CacheSchemes::new(config);
        PenelopeHooks {
            regfiles: RegfileIsvHooks::new(config.sample_period),
            sched: SchedulerHooks {
                balancer: SchedulerBalancer::new(config.sched_policy.clone(), config.sample_period),
            },
            dl0,
            dtlb,
            btb,
        }
    }
}

/// The cache-like part of [`PenelopeHooks`]: the DL0, DTLB and BTB
/// inversion schemes alone, with no register-file or scheduler mechanism.
/// This is the hook set Table 3 (§4.6) evaluates.
#[derive(Debug, Clone)]
pub struct CacheSchemes {
    /// DL0 inversion scheme.
    pub dl0: SchemeRuntime,
    /// DTLB inversion scheme.
    pub dtlb: SchemeRuntime,
    /// BTB inversion scheme.
    pub btb: SchemeRuntime,
}

impl CacheSchemes {
    /// Builds the three scheme runtimes a configuration selects, seeded
    /// exactly as [`PenelopeHooks::new`] seeds them.
    pub fn new(config: &PenelopeConfig) -> Self {
        CacheSchemes {
            dl0: SchemeRuntime::new(config.dl0_scheme, config.seed),
            dtlb: SchemeRuntime::new(config.dtlb_scheme, config.seed ^ 0xD71B),
            btb: SchemeRuntime::new(config.btb_scheme, config.seed ^ 0xB7B),
        }
    }
}

impl Hooks for CacheSchemes {
    fn dl0_accessed(&mut self, dl0: &mut SetAssocCache, outcome: &AccessOutcome, now: u64) {
        self.dl0.on_access(dl0, outcome, now);
    }

    fn dtlb_accessed(&mut self, dtlb: &mut Dtlb, outcome: &AccessOutcome, now: u64) {
        self.dtlb.on_access(dtlb.cache_mut(), outcome, now);
    }

    fn btb_accessed(&mut self, btb: &mut Btb, outcome: &AccessOutcome, now: u64) {
        self.btb.on_access(btb.cache_mut(), outcome, now);
    }

    fn cycle_end(&mut self, parts: &mut Parts, now: u64) {
        self.dl0.on_cycle(&mut parts.dl0, now);
        self.dtlb.on_cycle(parts.dtlb.cache_mut(), now);
        self.btb.on_cycle(parts.btb.cache_mut(), now);
    }
}

impl Hooks for PenelopeHooks {
    fn regfile_written(
        &mut self,
        rf: &mut RegisterFile,
        class: RegClass,
        preg: PhysReg,
        value: u128,
        now: u64,
    ) {
        self.regfiles.regfile_written(rf, class, preg, value, now);
    }

    fn regfile_released(
        &mut self,
        rf: &mut RegisterFile,
        class: RegClass,
        preg: PhysReg,
        now: u64,
    ) {
        self.regfiles.regfile_released(rf, class, preg, now);
    }

    fn scheduler_allocated(
        &mut self,
        sched: &mut Scheduler,
        slot: SlotId,
        values: &EntryValues,
        now: u64,
    ) {
        self.sched.scheduler_allocated(sched, slot, values, now);
    }

    fn scheduler_released(&mut self, sched: &mut Scheduler, slot: SlotId, now: u64) {
        self.sched.scheduler_released(sched, slot, now);
    }

    fn dl0_accessed(&mut self, dl0: &mut SetAssocCache, outcome: &AccessOutcome, now: u64) {
        self.dl0.on_access(dl0, outcome, now);
    }

    fn dtlb_accessed(&mut self, dtlb: &mut Dtlb, outcome: &AccessOutcome, now: u64) {
        self.dtlb.on_access(dtlb.cache_mut(), outcome, now);
    }

    fn btb_accessed(&mut self, btb: &mut Btb, outcome: &AccessOutcome, now: u64) {
        self.btb.on_access(btb.cache_mut(), outcome, now);
    }

    fn cycle_end(&mut self, parts: &mut Parts, now: u64) {
        self.dl0.on_cycle(&mut parts.dl0, now);
        self.dtlb.on_cycle(parts.dtlb.cache_mut(), now);
        self.btb.on_cycle(parts.btb.cache_mut(), now);
    }
}

/// Builds the pipeline (with scheme-adjusted cache geometry) and the
/// composed hooks.
///
/// # Errors
///
/// Rejects degenerate configurations with a typed [`Error`]: a zero RINV
/// sampling period, K fractions outside `[0, 1]` in the scheduler policy,
/// or a pipeline geometry that cannot be instantiated (including one whose
/// caches the schemes shrank to nothing).
pub fn build(config: &PenelopeConfig) -> Result<(Pipeline, PenelopeHooks), Error> {
    if config.sample_period == 0 {
        return Err(Error::config("sample_period must be positive"));
    }
    config.sched_policy.validate_k_budgets()?;
    let pipeline = Pipeline::try_new(scheme_pipeline_config(config))?;
    Ok((pipeline, PenelopeHooks::new(config)))
}

/// Builds a timing-only pipeline (with scheme-adjusted cache geometry)
/// and the cache schemes alone. The configuration's sampling period and
/// scheduler policy are not read: no register-file or scheduler mechanism
/// is built.
///
/// This is the constructor behind Table 3, its tail, the BTB extension,
/// the efficiency DL0 row and the rotation ablation, and none of them
/// reads register-file or scheduler residency. So the pipeline is built
/// with [`Pipeline::try_untracked`]: its register files and scheduler
/// charge no bit residency and their residency reads stay empty, while
/// every cycle, hook call and cache, DTLB and BTB state is that of a
/// tracked pipeline. The choice is made here, once, before the first
/// cycle.
///
/// # Errors
///
/// Returns [`Error::Pipeline`] for a pipeline geometry that cannot be
/// instantiated, including one whose caches the schemes shrank to
/// nothing.
pub fn build_cache_schemes(config: &PenelopeConfig) -> Result<(Pipeline, CacheSchemes), Error> {
    let pipeline = Pipeline::try_untracked(scheme_pipeline_config(config))?;
    Ok((pipeline, CacheSchemes::new(config)))
}

/// The pipeline configuration whose DL0, DTLB and BTB geometries are what
/// the configured schemes leave usable (set/way parking shrinks them).
fn scheme_pipeline_config(config: &PenelopeConfig) -> PipelineConfig {
    let mut pipeline_config = config.pipeline;
    pipeline_config.dl0 = config.dl0_scheme.effective_cache(pipeline_config.dl0);
    let dtlb_base =
        uarch::cache::CacheConfig::dtlb(pipeline_config.dtlb_entries, pipeline_config.dtlb_ways);
    let dtlb_eff = config.dtlb_scheme.effective_cache(dtlb_base);
    pipeline_config.dtlb_entries = dtlb_eff.lines() as u32;
    pipeline_config.dtlb_ways = dtlb_eff.ways;
    let btb_base = uarch::cache::CacheConfig {
        size_bytes: u64::from(pipeline_config.btb_entries) * 4,
        ways: pipeline_config.btb_ways,
        line_bytes: 4,
    };
    let btb_eff = config.btb_scheme.effective_cache(btb_base);
    pipeline_config.btb_entries = btb_eff.lines() as u32;
    pipeline_config.btb_ways = btb_eff.ways;
    pipeline_config
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracegen::suite::Suite;
    use tracegen::trace::TraceSpec;

    #[test]
    fn composed_processor_runs() {
        let config = PenelopeConfig::default();
        let (mut pipe, mut hooks) = build(&config).expect("default config is valid");
        let result = pipe.run(
            TraceSpec::new(Suite::Multimedia, 1).generate(20_000),
            &mut hooks,
        );
        assert_eq!(result.uops, 20_000);
        // All mechanisms were live.
        assert!(hooks.regfiles.int.attempts() > 0);
        assert!(pipe.parts.dl0.inverted_count() > 0 || pipe.parts.dl0.valid_count() == 0);
    }

    #[test]
    fn set_parking_halves_the_pipeline_caches() {
        let config = PenelopeConfig {
            dl0_scheme: SchemeKind::set_fixed_50(1_000_000),
            dtlb_scheme: SchemeKind::set_fixed_50(1_000_000),
            ..PenelopeConfig::default()
        };
        let (pipe, _) = build(&config).expect("halved caches are still valid");
        assert_eq!(pipe.parts.dl0.config().size_bytes, 16 * 1024);
        assert_eq!(pipe.parts.dtlb.entries(), 64);
    }

    #[test]
    fn only_cache_scheme_pipelines_are_untracked() {
        let config = PenelopeConfig::default();
        let (tracked, _) = build(&config).expect("default config is valid");
        let (untracked, _) = build_cache_schemes(&config).expect("default config is valid");
        for (pipe, want) in [(&tracked, true), (&untracked, false)] {
            assert_eq!(pipe.parts.int_rf.is_tracked(), want);
            assert_eq!(pipe.parts.fp_rf.is_tracked(), want);
            assert_eq!(pipe.parts.sched.is_tracked(), want);
        }
    }

    #[test]
    fn degenerate_configs_are_rejected_not_panicked() {
        let zero_period = PenelopeConfig {
            sample_period: 0,
            ..PenelopeConfig::default()
        };
        assert!(matches!(build(&zero_period), Err(Error::Config { .. })));

        let mut no_cache = PenelopeConfig::default();
        no_cache.pipeline.dl0.size_bytes = 0;
        assert!(matches!(build(&no_cache), Err(Error::Pipeline(_))));

        let mut no_sched = PenelopeConfig::default();
        no_sched.pipeline.sched_entries = 0;
        assert!(matches!(build(&no_sched), Err(Error::Pipeline(_))));
    }

    #[test]
    fn default_seed_spells_penelope() {
        assert_eq!(penelope_seed(), 0x5045_4E45_4C4F_5045);
    }
}
