//! Drivers regenerating every figure and table of the paper's evaluation.
//!
//! Each function returns `Result<T, Error>` around a plain-data result
//! struct; the `report` module renders them as text and the
//! `penelope-bench` binaries print them. The same drivers back the
//! integration tests, at a smaller [`Scale`]. Degenerate inputs surface as
//! typed [`Error`] values instead of panics, and
//! [`efficiency_summary_faulted`] threads a [`FaultPlan`] through every
//! layer for robustness testing. Every driver runs its workload through
//! [`feed`], the one trace loop, with an optional fault stage.
//!
//! Sweeps decompose into independent, seed-deterministic grid cells and
//! run on the [`par`] engine: `--jobs N` executes cells on a worker pool,
//! `--jobs 1` runs them inline, and both merge results and telemetry in
//! cell-index order, so the two modes are byte-identical outside
//! wall-clock fields (the [`par`] module documents the contract).
//!
//! | Paper artifact | Driver |
//! |---|---|
//! | Figure 1 (NIT dynamics) | [`fig1`] |
//! | §1.1 motivation stats | [`motivation`] |
//! | Figure 4 (idle-vector pairs) | [`fig4`] |
//! | Figure 5 (adder guardbands) | [`fig5`] |
//! | Figure 6 (register-file bias) | [`fig6`] |
//! | Figure 8 (scheduler bias) | [`fig8`] |
//! | Table 3 (cache perf loss) | [`table3`] |
//! | §4.2–4.6 efficiencies | [`efficiency_summary`] |
//! | §4.7 whole processor | [`table4`] |

use std::borrow::BorrowMut;

use gatesim::adder::LadnerFischerAdder;
use gatesim::vectors::{evaluate_all_pairs, PairStress};
use nbti_model::duty::Duty;
use nbti_model::guardband::GuardbandModel;
use nbti_model::metric::{BlockCost, ProcessorAggregator};
use nbti_model::rd::RdModel;
use penelope_telemetry::{recorder, EventSource};
use tracegen::error::TraceError;
use tracegen::fault::{faulted, TraceFault};
use tracegen::trace::Workload;
use tracegen::uop::{Uop, UopClass};
use uarch::cache::CacheConfig;
use uarch::pipeline::{AdderPolicy, Hooks, NoHooks, Pipeline, PipelineConfig, RunResult};
use uarch::scheduler::Field;

use crate::adder_aware::{real_adder_inputs, AdderProtection};
use crate::cache_aware::SchemeKind;
use crate::error::Error;
use crate::fault::{FaultInjector, FaultPlan};
use crate::invert_mode::{full_guardband_baseline, InvertMode};
use crate::journal::cell_payload;
use crate::obs::{self, with_recording_each};
use crate::par;
use crate::processor::{build, build_cache_schemes, CacheSchemes, PenelopeConfig};
use crate::regfile_aware::{RegfileIsv, RegfileIsvHooks};
use crate::sched_aware::{worst_figure8_bias, SchedulerBalancer, SchedulerHooks, SchedulerPolicy};

/// Experiment size: how many traces, how long, and how much the paper's
/// wall-clock constants (10M-cycle periods etc.) are compressed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Traces sampled per Table 1 suite.
    pub traces_per_suite: usize,
    /// Uops generated per trace (the paper uses 10M IA32 instructions).
    pub uops_per_trace: usize,
    /// Divisor applied to the paper's cycle-count constants.
    pub time_scale: u64,
}

impl Scale {
    /// Smallest useful scale (unit/integration tests).
    pub fn quick() -> Self {
        Scale {
            traces_per_suite: 1,
            uops_per_trace: 8_000,
            time_scale: 1_000,
        }
    }

    /// Default benchmarking scale.
    pub fn standard() -> Self {
        Scale {
            traces_per_suite: 2,
            uops_per_trace: 30_000,
            time_scale: 200,
        }
    }

    /// Heavier sweep (several traces per suite).
    pub fn thorough() -> Self {
        Scale {
            traces_per_suite: 5,
            uops_per_trace: 60_000,
            time_scale: 50,
        }
    }

    /// The workload population at this scale.
    pub fn workload(&self) -> Workload {
        Workload::sample(self.traces_per_suite)
    }
}

/// Feeds every trace of `workload` through `pipe` and returns each trace's
/// result in workload order: the one-arm form of [`feed_arms`], the one
/// loop every driver runs its workload through.
///
/// One arm streams each trace straight from its generator into the
/// pipeline; nothing is buffered.
///
/// # Errors
///
/// Returns [`Error::Trace`] when the workload holds no traces.
pub fn feed<H: Hooks + EventSource>(
    pipe: &mut Pipeline,
    workload: &Workload,
    uops: usize,
    hooks: &mut H,
    injector: Option<&mut FaultInjector>,
) -> Result<Vec<RunResult>, Error> {
    let mut per_arm = feed_arms(&mut [(pipe, hooks)], workload, uops, injector)?;
    Ok(per_arm.swap_remove(0))
}

/// Feeds every trace of `workload` through each arm — a pipeline and the
/// hooks it runs under — and returns, per arm in arm order, each trace's
/// result in workload order.
///
/// Each trace is generated once. A single arm streams it from the
/// generator; several arms share one buffer holding that one trace (never
/// the whole workload), which every arm runs in arm order before the next
/// trace is generated. Each arm keeps its own pipeline and hooks across
/// traces, so its results equal those of a [`feed`] of that arm alone.
///
/// The hook chains are wrapped in [`with_recording_each`] once: with a
/// telemetry recorder installed (see
/// [`penelope_telemetry::recorder::install`]) every arm is sampled by its
/// own wrapper across all traces, the wrappers' telemetry is absorbed in
/// arm order, and each (arm, trace) run's cycles/uops are credited to the
/// collector — the series and totals of one [`feed`] per arm, made in arm
/// order. With none the loop is exactly the uninstrumented one.
///
/// With an `injector`, each trace stream passes through the fault drawn
/// from [`FaultInjector::trace_fault`], one draw per trace in workload
/// order, shared by every arm; without one the fault is the identity, so
/// clean and faulted runs share this path. Workload- and hook-level faults
/// stay with the caller: perturb the workload and wrap the hooks before
/// feeding.
///
/// # Errors
///
/// Returns [`Error::Trace`] when the workload holds no traces.
pub fn feed_arms<P: BorrowMut<Pipeline>, H: Hooks + EventSource>(
    arms: &mut [(P, H)],
    workload: &Workload,
    uops: usize,
    mut injector: Option<&mut FaultInjector>,
) -> Result<Vec<Vec<RunResult>>, Error> {
    // Refused before the hooks are wrapped, so a run that simulates
    // nothing leaves no telemetry behind.
    if workload.specs().is_empty() {
        return Err(TraceError::EmptyWorkload.into());
    }
    let (mut pipes, mut hooks): (Vec<&mut Pipeline>, Vec<&mut H>) = arms
        .iter_mut()
        .map(|(pipe, hooks)| (pipe.borrow_mut(), hooks))
        .unzip();
    let runs = with_recording_each(&mut hooks, |chains| {
        let mut runs: Vec<Vec<RunResult>> = chains
            .iter()
            .map(|_| Vec::with_capacity(workload.len()))
            .collect();
        let mut buffer: Vec<Uop> = Vec::new();
        for spec in workload.specs() {
            let fault = injector
                .as_deref_mut()
                .map_or_else(TraceFault::none, |i| i.trace_fault(uops));
            let trace = faulted(spec.generate(uops), fault);
            if let ([pipe], [h]) = (&mut pipes[..], &mut chains[..]) {
                runs[0].push(pipe.run(trace, h));
                continue;
            }
            buffer.clear();
            buffer.reserve_exact(uops);
            buffer.extend(trace);
            for ((pipe, h), arm_runs) in pipes.iter_mut().zip(chains.iter_mut()).zip(&mut runs) {
                arm_runs.push(pipe.run(buffer.iter().copied(), h));
            }
        }
        runs
    });
    // Credited once the telemetry wrappers have closed: their
    // `obs.with_recording` span covers sampling, not simulated cycles, and
    // the golden report hashes pin that split.
    for run in runs.iter().flatten() {
        recorder::record_run(run.cycles, run.uops);
    }
    Ok(runs)
}

/// Sums per-trace results (from [`feed`]) into one workload total.
pub fn sum_runs(runs: &[RunResult]) -> RunResult {
    let mut total = RunResult::default();
    for run in runs {
        total.merge(run);
    }
    total
}

/// Runs the whole workload through a fresh pipeline ([`feed`] without
/// faults) and returns the pipeline with the summed result.
///
/// # Errors
///
/// Returns [`Error::Pipeline`] for an uninstantiable configuration and
/// [`Error::Trace`] when the workload holds no traces.
pub fn run_workload<H: Hooks + EventSource>(
    config: PipelineConfig,
    scale: Scale,
    hooks: &mut H,
) -> Result<(Pipeline, RunResult), Error> {
    let mut pipe = Pipeline::try_new(config)?;
    let workload = scale.workload();
    let runs = feed(&mut pipe, &workload, scale.uops_per_trace, hooks, None)?;
    Ok((pipe, sum_runs(&runs)))
}

// ---------------------------------------------------------------- Figure 1

/// Figure 1: normalized interface-trap density under alternating
/// stress/relax phases. Returns `(time, nit)` samples.
pub fn fig1() -> Result<Vec<(f64, f64)>, Error> {
    let _span = penelope_telemetry::span!("driver: fig1");
    let model = RdModel::symmetric(0.004)?;
    Ok(model.simulate_alternating(100.0, 100.0, 6, 24)?)
}

// ------------------------------------------------------------- §1.1 stats

/// The §1.1 motivation measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct Motivation {
    /// Fraction of additions whose carry-in is "0" (paper: >90%).
    pub carry_in_zero: f64,
    /// Integer register file per-bit bias range (paper: 65–90%).
    pub int_bias_min: f64,
    /// Upper end of the integer bias range.
    pub int_bias_max: f64,
    /// Worst scheduler field bias (paper: ~100% for some fields).
    pub sched_worst_bias: f64,
    /// Mean adder utilization under uniform distribution (paper: 21%).
    pub adder_util_uniform: f64,
    /// Min/max adder utilization under prioritized allocation
    /// (paper: 11–30%).
    pub adder_util_prioritized: (f64, f64),
}

/// Measures the §1.1 motivation statistics on the baseline processor.
pub fn motivation(scale: Scale) -> Result<Motivation, Error> {
    let _span = penelope_telemetry::span!("driver: motivation");
    // Carry-in bias straight from the uop stream.
    let mut adds = 0u64;
    let mut carries = 0u64;
    for spec in scale.workload().specs() {
        for uop in spec.generate(scale.uops_per_trace) {
            if uop.class == UopClass::IntAlu {
                adds += 1;
                carries += u64::from(uop.carry_in);
            }
        }
    }

    // The uniform and prioritized runs are independent: one engine cell
    // each, merged back in grid order.
    cell_payload! {
        struct MotCell {
            int_bias_min: f64,
            int_bias_max: f64,
            sched_worst_bias: f64,
            util: (f64, f64),
        }
    }
    let mut cells = par::try_cells_named("motivation", 2, |cell| {
        if cell.index == 0 {
            let (pipe, uniform_result) = recorder::phase("motivation: uniform", || {
                run_workload(PipelineConfig::default(), scale, &mut NoHooks)
            })?;
            let biases = pipe.parts.int_rf.residency().biases();
            let uniform = uniform_result.adder_utilization();
            Ok(MotCell {
                int_bias_min: biases.iter().map(|d| d.fraction()).fold(1.0, f64::min),
                int_bias_max: biases.iter().map(|d| d.fraction()).fold(0.0, f64::max),
                sched_worst_bias: Field::ALL
                    .iter()
                    .filter(|f| **f != Field::Opcode)
                    .flat_map(|f| pipe.parts.sched.field_residency(*f).biases())
                    .map(|d| d.fraction())
                    .fold(0.0, f64::max),
                util: (uniform[0], uniform[1]),
            })
        } else {
            let prio_config = PipelineConfig {
                adder_policy: AdderPolicy::Prioritized,
                ..PipelineConfig::default()
            };
            let (_, prio_result) = recorder::phase("motivation: prioritized", || {
                run_workload(prio_config, scale, &mut NoHooks)
            })?;
            let prio = prio_result.adder_utilization();
            Ok(MotCell {
                int_bias_min: 0.0,
                int_bias_max: 0.0,
                sched_worst_bias: 0.0,
                util: (prio[0], prio[1]),
            })
        }
    })?;
    let prio = cells
        .pop()
        .ok_or_else(|| Error::config("motivation grid lost a cell"))?;
    let uniform = cells
        .pop()
        .ok_or_else(|| Error::config("motivation grid lost a cell"))?;

    Ok(Motivation {
        carry_in_zero: 1.0 - carries as f64 / adds.max(1) as f64,
        int_bias_min: uniform.int_bias_min,
        int_bias_max: uniform.int_bias_max,
        sched_worst_bias: uniform.sched_worst_bias,
        adder_util_uniform: (uniform.util.0 + uniform.util.1) / 2.0,
        adder_util_prioritized: (prio.util.0.min(prio.util.1), prio.util.0.max(prio.util.1)),
    })
}

// ---------------------------------------------------------------- Figure 4

/// Figure 4: all 28 idle-vector pairs on the 32-bit Ladner-Fischer adder.
pub fn fig4() -> Result<Vec<PairStress>, Error> {
    let _span = penelope_telemetry::span!("driver: fig4");
    let adder = LadnerFischerAdder::new(32);
    Ok(evaluate_all_pairs(&adder))
}

// ---------------------------------------------------------------- Figure 5

cell_payload! {
    /// One bar of Figure 5.
    #[derive(Debug, Clone, PartialEq)]
    pub struct Fig5Row {
        /// Scenario label, e.g. `"21% real + 000 + 111"`.
        pub label: String,
        /// Guardband required.
        pub guardband: f64,
    }
}

/// Figure 5: adder guardband for real inputs only and for the three
/// utilization scenarios healed by the best vector pair.
pub fn fig5(scale: Scale) -> Result<Vec<Fig5Row>, Error> {
    let _span = penelope_telemetry::span!("driver: fig5");
    let adder = LadnerFischerAdder::new(32);
    let protection = AdderProtection::select(&adder);
    let model = GuardbandModel::paper_calibrated();
    let mut inputs = Vec::new();
    for spec in scale.workload().specs() {
        inputs.extend(real_adder_inputs(spec, (scale.uops_per_trace / 4).max(512)));
    }
    // One engine cell per bar: the guardband searches are pure CPU over
    // the same read-only input sample.
    let scenarios = [None, Some(0.30), Some(0.21), Some(0.11)];
    par::try_cells_named("fig5", scenarios.len(), |cell| {
        Ok(match scenarios[cell.index] {
            None => Fig5Row {
                label: "real inputs".into(),
                guardband: protection
                    .guardband(&adder, 1.0, inputs.iter().copied(), &model)
                    .fraction(),
            },
            Some(util) => Fig5Row {
                label: format!("{:.0}% real + 000 + 111", util * 100.0),
                guardband: protection
                    .guardband(&adder, util, inputs.iter().copied(), &model)
                    .fraction(),
            },
        })
    })
}

// ---------------------------------------------------------------- Figure 6

/// Figure 6: per-bit bias of both register files, baseline vs ISV.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig6 {
    /// Integer file, baseline, per-bit bias towards 0.
    pub int_baseline: Vec<f64>,
    /// Integer file with ISV.
    pub int_isv: Vec<f64>,
    /// FP file, baseline.
    pub fp_baseline: Vec<f64>,
    /// FP file with ISV.
    pub fp_isv: Vec<f64>,
    /// Fraction of time integer registers are free (paper: 54%).
    pub int_free: f64,
    /// Fraction of time FP registers are free (paper: 69%).
    pub fp_free: f64,
    /// ISV update success rate, integer (paper: 92%).
    pub int_port_rate: f64,
    /// ISV update success rate, FP (paper: 86%).
    pub fp_port_rate: f64,
}

impl Fig6 {
    fn worst(bias: &[f64]) -> f64 {
        bias.iter().map(|b| b.max(1.0 - b)).fold(0.0, f64::max)
    }

    /// Worst cell duty of the integer file, baseline.
    pub fn int_baseline_worst(&self) -> f64 {
        Self::worst(&self.int_baseline)
    }

    /// Worst cell duty of the integer file under ISV.
    pub fn int_isv_worst(&self) -> f64 {
        Self::worst(&self.int_isv)
    }

    /// Worst cell duty of the FP file, baseline.
    pub fn fp_baseline_worst(&self) -> f64 {
        Self::worst(&self.fp_baseline)
    }

    /// Worst cell duty of the FP file under ISV.
    pub fn fp_isv_worst(&self) -> f64 {
        Self::worst(&self.fp_isv)
    }
}

/// Runs Figure 6: baseline and ISV register files over the workload. The
/// two configurations are independent engine cells.
pub fn fig6(scale: Scale) -> Result<Fig6, Error> {
    let _span = penelope_telemetry::span!("driver: fig6");
    cell_payload! {
        struct Fig6Cell {
            int_bias: Vec<f64>,
            fp_bias: Vec<f64>,
            int_free: f64,
            fp_free: f64,
            int_port_rate: f64,
            fp_port_rate: f64,
        }
    }
    let to_fracs =
        |biases: Vec<Duty>| -> Vec<f64> { biases.into_iter().map(|d| d.fraction()).collect() };

    let mut cells = par::try_cells_named("fig6", 2, |cell| {
        if cell.index == 0 {
            let (base, _) = recorder::phase("fig6: baseline", || {
                run_workload(PipelineConfig::default(), scale, &mut NoHooks)
            })?;
            let now = base.now();
            Ok(Fig6Cell {
                int_bias: to_fracs(base.parts.int_rf.residency().biases()),
                fp_bias: to_fracs(base.parts.fp_rf.residency().biases()),
                int_free: base.parts.int_rf.free_fraction(now),
                fp_free: base.parts.fp_rf.free_fraction(now),
                int_port_rate: 0.0,
                fp_port_rate: 0.0,
            })
        } else {
            let mut hooks = RegfileIsvHooks::new(scale.time_scale.max(64));
            let (isv, _) = recorder::phase("fig6: isv", || {
                run_workload(PipelineConfig::default(), scale, &mut hooks)
            })?;
            Ok(Fig6Cell {
                int_bias: to_fracs(isv.parts.int_rf.residency().biases()),
                fp_bias: to_fracs(isv.parts.fp_rf.residency().biases()),
                int_free: 0.0,
                fp_free: 0.0,
                int_port_rate: hooks.int.update_success_rate(),
                fp_port_rate: hooks.fp.update_success_rate(),
            })
        }
    })?;
    let isv = cells
        .pop()
        .ok_or_else(|| Error::config("fig6 grid lost a cell"))?;
    let base = cells
        .pop()
        .ok_or_else(|| Error::config("fig6 grid lost a cell"))?;

    Ok(Fig6 {
        int_baseline: base.int_bias,
        int_isv: isv.int_bias,
        fp_baseline: base.fp_bias,
        fp_isv: isv.fp_bias,
        int_free: base.int_free,
        fp_free: base.fp_free,
        int_port_rate: isv.int_port_rate,
        fp_port_rate: isv.fp_port_rate,
    })
}

// ---------------------------------------------------------------- Figure 8

/// One bit of Figure 8.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig8Row {
    /// Field the bit belongs to.
    pub field: Field,
    /// Bit index within the field.
    pub bit: usize,
    /// Baseline bias towards 0.
    pub baseline: f64,
    /// Bias with the Penelope techniques.
    pub protected: f64,
}

/// Figure 8: per-bit scheduler bias, baseline vs ALL1/ALL1-K%/ISV.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig8 {
    /// All plotted bits (every field but the opcode, in Table 2 order).
    pub rows: Vec<Fig8Row>,
    /// Worst baseline cell duty (paper: ~100%).
    pub worst_baseline: f64,
    /// Worst protected cell duty (paper: 63.2%).
    pub worst_protected: f64,
    /// Scheduler occupancy (paper: 63%).
    pub occupancy: f64,
    /// Data-field occupancy (paper: 25–30%).
    pub data_occupancy: f64,
}

/// Runs Figure 8: a baseline run doubles as the profiling run for the K
/// values (the paper profiles 100 of its 531 traces), then the protected
/// configuration runs with the derived policy.
///
/// The second stage consumes the first stage's policy, so the stages are
/// sequential; each runs as a single engine cell (executed inline — no
/// thread is spawned for a one-cell grid) so its telemetry follows the
/// same snapshot path as the wide sweeps.
pub fn fig8(scale: Scale) -> Result<Fig8, Error> {
    let _span = penelope_telemetry::span!("driver: fig8");
    cell_payload! {
        struct Fig8Stage {
            bits: Vec<(Field, Vec<f64>)>,
            worst: f64,
            occupancy: f64,
            data_occupancy: f64,
            policy: Option<SchedulerPolicy>,
        }
    }
    fn field_bits(sched: &uarch::scheduler::Scheduler) -> Vec<(Field, Vec<f64>)> {
        Field::ALL
            .iter()
            .filter(|f| **f != Field::Opcode)
            .map(|f| {
                let bits = sched
                    .field_residency(*f)
                    .biases()
                    .into_iter()
                    .map(|d| d.fraction())
                    .collect();
                (*f, bits)
            })
            .collect()
    }

    let mut base = par::try_cells_named("fig8:baseline", 1, |_| {
        let (pipe, _) = recorder::phase("fig8: baseline", || {
            run_workload(PipelineConfig::default(), scale, &mut NoHooks)
        })?;
        let now = pipe.now();
        let occupancy = pipe.parts.sched.occupancy(now);
        let data_occupancy = pipe.parts.sched.data_occupancy(now);
        let policy = SchedulerPolicy::from_scheduler(&pipe.parts.sched, now)?;
        Ok(Fig8Stage {
            bits: field_bits(&pipe.parts.sched),
            worst: worst_figure8_bias(&pipe.parts.sched).fraction(),
            occupancy,
            data_occupancy,
            policy: Some(policy),
        })
    })?
    .pop()
    .ok_or_else(|| Error::config("fig8 baseline cell vanished"))?;

    let policy = base
        .policy
        .take()
        .ok_or_else(|| Error::config("fig8 baseline produced no scheduler policy"))?;
    let prot = par::try_cells_named("fig8:protected", 1, |_| {
        let mut hooks = SchedulerHooks {
            balancer: SchedulerBalancer::new(policy.clone(), scale.time_scale.max(64)),
        };
        let (pipe, _) = recorder::phase("fig8: protected", || {
            run_workload(PipelineConfig::default(), scale, &mut hooks)
        })?;
        Ok(Fig8Stage {
            bits: field_bits(&pipe.parts.sched),
            worst: worst_figure8_bias(&pipe.parts.sched).fraction(),
            occupancy: 0.0,
            data_occupancy: 0.0,
            policy: None,
        })
    })?
    .pop()
    .ok_or_else(|| Error::config("fig8 protected cell vanished"))?;

    let mut rows = Vec::new();
    for ((field, b), (_, p)) in base.bits.iter().zip(&prot.bits) {
        for bit in 0..b.len().min(p.len()) {
            rows.push(Fig8Row {
                field: *field,
                bit,
                baseline: b[bit],
                protected: p[bit],
            });
        }
    }
    Ok(Fig8 {
        worst_baseline: base.worst,
        worst_protected: prot.worst,
        rows,
        occupancy: base.occupancy,
        data_occupancy: base.data_occupancy,
    })
}

// ----------------------------------------------------------------- Table 3

cell_payload! {
    /// One row of Table 3.
    #[derive(Debug, Clone, PartialEq)]
    pub struct Table3Row {
        /// Structure and geometry, e.g. `"DL0 8-way 32KB"`.
        pub label: String,
        /// Performance loss of `SetFixed50%`.
        pub set_fixed: f64,
        /// Performance loss of `LineFixed50%`.
        pub line_fixed: f64,
        /// Performance loss of `LineDynamic60%`.
        pub line_dynamic: f64,
    }
}

/// Table 3: average performance loss of the three schemes across DL0 and
/// DTLB geometries.
#[derive(Debug, Clone, PartialEq)]
pub struct Table3 {
    /// All rows, DL0 first (8-way then 4-way, by size), then DTLB.
    pub rows: Vec<Table3Row>,
}

/// The SetFixed/WayFixed rotation period: the paper's 10M cycles, time-scaled
/// with a 2,000-cycle floor.
fn rotation_period(scale: Scale) -> u64 {
    (10_000_000 / scale.time_scale).max(2_000)
}

/// The `[dl0, dtlb, btb]` schemes of one cache-scheme arm and the seed of
/// their deterministic randomness.
type SchemeArm = ([SchemeKind; 3], u64);

/// The one cache-scheme run behind Table 3 and its extensions: per arm, a
/// pipeline with the arm's scheme-adjusted geometry over `pipeline` and
/// the arm's [`CacheSchemes`], all fed the workload together (each trace
/// generated once, see [`feed_arms`]). Returns, per arm in arm order, the
/// pipeline, its hooks and each trace's result.
///
/// Only the cache schemes run. Table 3 (§4.6) evaluates the DL0/DTLB
/// inversion schemes alone, and no caller reads register-file or
/// scheduler residency, so neither mechanism is built and the pipelines
/// are timing-only ([`build_cache_schemes`]). The
/// `table3_timing_ignores_the_register_file_and_scheduler_hooks` and
/// `untracked_cache_scheme_runs_time_exactly_like_tracked_ones` tests
/// check that leaving the mechanisms and the residency out moves no
/// cycle.
fn cache_scheme_run(
    pipeline: PipelineConfig,
    arms: &[SchemeArm],
    scale: Scale,
) -> Result<Vec<(Pipeline, CacheSchemes, Vec<RunResult>)>, Error> {
    let mut built = arms
        .iter()
        .map(|&(schemes, seed)| build_cache_schemes(&cache_scheme_config(pipeline, schemes, seed)))
        .collect::<Result<Vec<_>, Error>>()?;
    let runs = feed_arms(&mut built, &scale.workload(), scale.uops_per_trace, None)?;
    Ok(built
        .into_iter()
        .zip(runs)
        .map(|((pipe, hooks), runs)| (pipe, hooks, runs))
        .collect())
}

/// Workload CPI of each arm of a [`cache_scheme_run`], in arm order.
fn scheme_cpis(
    pipeline: PipelineConfig,
    arms: &[SchemeArm],
    scale: Scale,
) -> Result<Vec<f64>, Error> {
    let arms = cache_scheme_run(pipeline, arms, scale)?;
    Ok(arms
        .iter()
        .map(|(_, _, runs)| sum_runs(runs).cpi())
        .collect())
}

/// The processor configuration of one cache-scheme arm.
fn cache_scheme_config(
    pipeline: PipelineConfig,
    [dl0_scheme, dtlb_scheme, btb_scheme]: [SchemeKind; 3],
    seed: u64,
) -> PenelopeConfig {
    PenelopeConfig {
        pipeline,
        dl0_scheme,
        dtlb_scheme,
        btb_scheme,
        seed,
        ..PenelopeConfig::default()
    }
}

/// One Table 3 geometry: the structure the schemes protect, its
/// LineDynamic threshold and the first of its four seeds.
struct Table3Geometry {
    phase: String,
    label: String,
    config: PipelineConfig,
    dtlb: bool,
    threshold: f64,
    first_seed: u64,
}

impl Table3Geometry {
    /// The geometry's four arms — baseline, SetFixed50%, LineFixed50% and
    /// LineDynamic60% on the protected structure — with their seeds.
    fn arms(&self, scale: Scale) -> Vec<SchemeArm> {
        let schemes = [
            SchemeKind::Baseline,
            SchemeKind::set_fixed_50(rotation_period(scale)),
            SchemeKind::line_fixed_50(),
            SchemeKind::line_dynamic_60(self.threshold, scale.time_scale),
        ];
        (self.first_seed..)
            .zip(schemes)
            .map(|(seed, scheme)| {
                let unprotected = SchemeKind::Baseline;
                let schemes = if self.dtlb {
                    [unprotected, scheme, unprotected]
                } else {
                    [scheme, unprotected, unprotected]
                };
                (schemes, seed)
            })
            .collect()
    }
}

/// Table 3's geometries: 6 DL0 (8-way then 4-way, by size), then 3 DTLB.
fn table3_grid() -> Vec<Table3Geometry> {
    let mut grid = Vec::new();
    for ways in [8u16, 4] {
        for kb in [32u32, 16, 8] {
            let name = format!("DL0 {ways}-way {kb}KB");
            grid.push(Table3Geometry {
                phase: format!("table3: {name}"),
                label: name,
                config: PipelineConfig {
                    dl0: CacheConfig::dl0(kb, ways),
                    ..PipelineConfig::default()
                },
                dtlb: false,
                threshold: SchemeKind::dl0_threshold(kb),
                first_seed: 1,
            });
        }
    }
    for entries in [128u32, 64, 32] {
        grid.push(Table3Geometry {
            phase: format!("table3: DTLB {entries} ent."),
            label: format!("DTLB 8-way {entries} ent."),
            config: PipelineConfig {
                dtlb_entries: entries,
                ..PipelineConfig::default()
            },
            dtlb: true,
            threshold: SchemeKind::dtlb_threshold(entries),
            first_seed: 5,
        });
    }
    grid
}

/// Runs the full Table 3 sweep. This is the most expensive experiment:
/// (6 DL0 + 3 DTLB geometries) × (baseline + 3 schemes) workload runs.
/// Every geometry is an independent engine cell that generates each trace
/// once and runs it through its four scheme arms. The arms carry the same
/// seeds (1–4 for DL0 rows, 5–8 for DTLB rows) the serial sweep used, so
/// the rows are identical at any `--jobs` setting.
pub fn table3(scale: Scale) -> Result<Table3, Error> {
    let _span = penelope_telemetry::span!("driver: table3");
    let grid = table3_grid();
    let rows = par::try_cells_named("table3", grid.len(), |cell| {
        let geometry = &grid[cell.index];
        let cpis = recorder::phase(&geometry.phase, || {
            scheme_cpis(geometry.config, &geometry.arms(scale), scale)
        })?;
        let loss = |cpi: f64| (cpi / cpis[0] - 1.0).max(0.0);
        Ok(Table3Row {
            label: geometry.label.clone(),
            set_fixed: loss(cpis[1]),
            line_fixed: loss(cpis[2]),
            line_dynamic: loss(cpis[3]),
        })
    })?;

    Ok(Table3 { rows })
}

// -------------------------------------------------- §4.2–4.6 efficiencies

/// One efficiency comparison row.
#[derive(Debug, Clone, PartialEq)]
pub struct EfficiencyRow {
    /// Design point name.
    pub name: String,
    /// Its cost record.
    pub cost: BlockCost,
    /// `NBTIefficiency` (lower is better).
    pub efficiency: f64,
    /// The value the paper reports, for comparison.
    pub paper: f64,
}

impl EfficiencyRow {
    fn new(name: &str, cost: BlockCost, paper: f64) -> Self {
        EfficiencyRow {
            name: name.into(),
            efficiency: cost.nbti_efficiency(),
            cost,
            paper,
        }
    }
}

/// The real adder operands the §4.3 guardband is measured over: the first
/// three traces of `workload`, a quarter of each trace's uops (at least
/// 512).
fn adder_sample(workload: &Workload, scale: Scale) -> Vec<(u64, u64, bool)> {
    workload
        .specs()
        .iter()
        .take(3)
        .flat_map(|s| real_adder_inputs(s, (scale.uops_per_trace / 4).max(512)))
        .collect()
}

/// The efficiency comparison's full-guardband baseline row, with its paper
/// value.
fn baseline_row(model: &GuardbandModel) -> EfficiencyRow {
    EfficiencyRow::new(
        "baseline (full guardband)",
        full_guardband_baseline(model),
        1.73,
    )
}

/// The four measured Penelope case studies of the efficiency comparison,
/// in row order: label and paper NBTIefficiency.
const MEASURED: [(&str, f64); 4] = [
    ("Penelope adder (round-robin inputs)", 1.24),
    ("Penelope register file (ISV at release)", 1.12),
    ("Penelope scheduler (ALL1/ALL1-K%/ISV)", 1.24),
    ("Penelope DL0 (LineFixed50%)", 1.09),
];

/// Labels each measured cost with its [`MEASURED`] row, in order.
fn measured_rows(
    costs: impl IntoIterator<Item = BlockCost>,
) -> impl Iterator<Item = EfficiencyRow> {
    MEASURED
        .iter()
        .zip(costs)
        .map(|(&(name, paper), cost)| EfficiencyRow::new(name, cost, paper))
}

/// The §4.2–4.6 efficiency comparison: the two conventional designs and
/// the four Penelope case studies, with measured inputs where available.
pub fn efficiency_summary(scale: Scale) -> Result<Vec<EfficiencyRow>, Error> {
    let _span = penelope_telemetry::span!("driver: efficiency_summary");
    let model = GuardbandModel::paper_calibrated();
    let mut rows = vec![
        baseline_row(&model),
        EfficiencyRow::new(
            "invert periodically",
            InvertMode::paper_default().block_cost(Duty::new(0.9)?, &model),
            1.41,
        ),
    ];

    // The four measured case studies are independent engine cells, each
    // returning its finished cost. The register-file and scheduler cells
    // call [`fig6`]/[`fig8`], whose own engine grids nest under the cell's
    // inherited recorder, so the merged phase stream matches the serial
    // one.
    let costs = par::try_cells_named("efficiency", MEASURED.len(), |cell| match cell.index {
        0 => {
            // Adder: measured utilization → guardband.
            let adder = LadnerFischerAdder::new(32);
            let protection = AdderProtection::select(&adder);
            let (_, run) = recorder::phase("efficiency: adder", || {
                run_workload(PipelineConfig::default(), scale, &mut NoHooks)
            })?;
            let util = run.max_adder_utilization().clamp(0.0, 1.0);
            let inputs = adder_sample(&scale.workload(), scale);
            Ok(AdderProtection::block_cost(
                protection.guardband(&adder, util, inputs, &model),
            ))
        }
        1 => {
            // Register file: measured worst bias under ISV.
            let f6 = fig6(scale)?;
            let worst = f6.int_isv_worst().max(f6.fp_isv_worst());
            Ok(RegfileIsv::block_cost(Duty::saturating(worst), &model))
        }
        2 => {
            // Scheduler: measured worst residual bias.
            let f8 = fig8(scale)?;
            Ok(SchedulerBalancer::block_cost(
                Duty::saturating(f8.worst_protected),
                &model,
            ))
        }
        _ => {
            // DL0: LineFixed50% CPI loss on the 32KB 8-way geometry.
            let unprotected = SchemeKind::Baseline;
            let arms = [
                ([unprotected; 3], 11),
                ([SchemeKind::line_fixed_50(), unprotected, unprotected], 12),
            ];
            let cpis = recorder::phase("efficiency: dl0", || {
                scheme_cpis(PipelineConfig::default(), &arms, scale)
            })?;
            let (base, line_fixed) = (cpis[0], cpis[1]);
            Ok(BlockCost::new(
                (line_fixed / base).max(1.0),
                1.01,
                model.best_case().fraction(),
            ))
        }
    })?;
    rows.extend(measured_rows(costs));
    Ok(rows)
}

/// [`efficiency_summary`] with a [`FaultPlan`] threaded through every
/// layer: the processor configuration, the workload, each trace stream,
/// the live structures (RINV corruption, strikes) and the duty values
/// headed into the guardband model.
///
/// The contract this driver exists to demonstrate: whatever the plan, it
/// returns a typed [`Error`] or a valid summary — it never panics. The
/// measurement side runs under [`CheckedHooks`](crate::checked::CheckedHooks)
/// so invariant breakage surfaces as [`Error::Invariant`].
pub fn efficiency_summary_faulted(
    scale: Scale,
    plan: &FaultPlan,
) -> Result<Vec<EfficiencyRow>, Error> {
    let _span = penelope_telemetry::span!("driver: efficiency_summary_faulted");
    use crate::checked::{CheckedHooks, Policy};

    let mut injector = FaultInjector::new(plan);
    let model = GuardbandModel::paper_calibrated();

    // Configuration faults: degenerate geometry must be rejected by the
    // typed constructors, not crash the run.
    let mut config = PenelopeConfig {
        sample_period: scale.time_scale.max(64),
        btb_scheme: SchemeKind::Baseline,
        ..PenelopeConfig::default()
    };
    injector.perturb_config(&mut config);
    let (mut pipe, hooks) = build(&config)?;
    recorder::manifest_entry("scale", obs::scale_json(&scale));
    recorder::manifest_entry("config", obs::config_json(&config));

    // Runtime faults, with the invariant checker watching the wrapper.
    let fault_hooks = injector.hooks(hooks);
    let mut checked = CheckedHooks::new(fault_hooks, Policy::Count, config.sample_period);

    // Workload- and trace-level faults.
    let workload = injector.perturb_workload(scale.workload());
    let runs = recorder::phase("faulted run", || {
        feed(
            &mut pipe,
            &workload,
            scale.uops_per_trace,
            &mut checked,
            Some(&mut injector),
        )
    })?;
    let run = sum_runs(&runs);
    if run.uops == 0 {
        return Err(TraceError::EmptyTrace.into());
    }

    // Duty faults: NaN / out-of-range biases must come back as typed
    // model errors from `Duty::new`, not panics.
    let rf_worst = injector.perturb_duty(
        pipe.parts
            .int_rf
            .residency()
            .worst_cell_duty()
            .fraction()
            .max(pipe.parts.fp_rf.residency().worst_cell_duty().fraction()),
    );
    let rf_duty = Duty::new(rf_worst)?;
    let sched_worst = injector.perturb_duty(worst_figure8_bias(&pipe.parts.sched).fraction());
    let sched_duty = Duty::new(sched_worst)?;
    let util = injector.perturb_duty(run.max_adder_utilization().clamp(0.0, 1.0));
    let util = Duty::new(util)?.fraction();

    let adder = LadnerFischerAdder::new(32);
    let protection = AdderProtection::select(&adder);
    let adder_gb = protection.guardband(&adder, util, adder_sample(&workload, scale), &model);

    // The baseline and the first three measured rows (no DL0 run here).
    let mut rows = vec![baseline_row(&model)];
    rows.extend(measured_rows([
        AdderProtection::block_cost(adder_gb),
        RegfileIsv::block_cost(rf_duty, &model),
        SchedulerBalancer::block_cost(sched_duty, &model),
    ]));

    // Any invariant the faults managed to break fails the run with a
    // typed error instead of returning silently wrong numbers.
    checked.into_result()?;
    Ok(rows)
}

// ----------------------------------------------------------------- §4.7

/// The §4.7 whole-processor summary (Table 4's quantitative side).
#[derive(Debug, Clone, PartialEq)]
pub struct Table4 {
    /// Per-block cost records, in the paper's order: adder, register file,
    /// scheduler, DL0, DTLB.
    pub blocks: Vec<(String, BlockCost)>,
    /// Combined CPI of all mechanisms running together, relative to the
    /// baseline (paper: 1.007).
    pub combined_cpi: f64,
    /// The aggregated processor cost.
    pub processor: BlockCost,
    /// `NBTIefficiency` of the Penelope processor (paper: 1.28).
    pub efficiency: f64,
    /// `NBTIefficiency` of the all-guardband baseline (1.73).
    pub baseline_efficiency: f64,
}

/// Runs everything together and aggregates with equations (2)–(4).
///
/// The Penelope stage consumes the baseline stage's profiled scheduler
/// policy, so the two stages are sequential single-cell engine runs (a
/// one-cell grid executes inline).
pub fn table4(scale: Scale) -> Result<Table4, Error> {
    let _span = penelope_telemetry::span!("driver: table4");
    let model = GuardbandModel::paper_calibrated();

    cell_payload! {
        struct BaseStage {
            cpi: f64,
            policy: Option<SchedulerPolicy>,
        }
    }
    cell_payload! {
        struct PenStage {
            cpi: f64,
            adder_gb: f64,
            rf_worst: f64,
            sched_worst: Duty,
            dl0_frac: f64,
            dtlb_frac: f64,
        }
    }

    // Baseline CPI; the run doubles as the profiling pass for the
    // scheduler's K values (§4.5).
    recorder::manifest_entry("scale", obs::scale_json(&scale));
    let mut base = par::try_cells_named("table4:baseline", 1, |_| {
        let (base_pipe, base_run) = recorder::phase("table4: baseline", || {
            run_workload(PipelineConfig::default(), scale, &mut NoHooks)
        })?;
        let policy = SchedulerPolicy::from_scheduler(&base_pipe.parts.sched, base_pipe.now())?;
        Ok(BaseStage {
            cpi: base_run.cpi(),
            policy: Some(policy),
        })
    })?
    .pop()
    .ok_or_else(|| Error::config("table4 baseline cell vanished"))?;
    let sched_policy = base
        .policy
        .take()
        .ok_or_else(|| Error::config("table4 baseline produced no scheduler policy"))?;

    // Penelope: all mechanisms at once. The §4.7 composition covers the
    // paper's five blocks; the BTB extension is evaluated separately.
    let config = PenelopeConfig {
        sample_period: scale.time_scale.max(64),
        btb_scheme: SchemeKind::Baseline,
        sched_policy,
        ..PenelopeConfig::default()
    };
    recorder::manifest_entry("config", obs::config_json(&config));
    let pen = par::try_cells_named("table4:penelope", 1, |_| {
        let (mut pipe, mut hooks) = build(&config)?;
        let workload = scale.workload();
        let runs = recorder::phase("table4: penelope", || {
            feed(&mut pipe, &workload, scale.uops_per_trace, &mut hooks, None)
        })?;
        let pen_run = sum_runs(&runs);
        let now = pipe.now();

        // Adder guardband at the measured utilization.
        let adder = LadnerFischerAdder::new(32);
        let protection = AdderProtection::select(&adder);
        let util = pen_run.max_adder_utilization().clamp(0.0, 1.0);
        let adder_gb = protection.guardband(&adder, util, adder_sample(&workload, scale), &model);

        // Register files under ISV (from the combined run).
        let rf_worst = pipe
            .parts
            .int_rf
            .residency()
            .worst_cell_duty()
            .fraction()
            .max(pipe.parts.fp_rf.residency().worst_cell_duty().fraction());

        // Scheduler under the balancer.
        Ok(PenStage {
            cpi: pen_run.cpi(),
            adder_gb: adder_gb.fraction(),
            rf_worst,
            sched_worst: worst_figure8_bias(&pipe.parts.sched),
            dl0_frac: hooks.dl0.inverted_fraction(&pipe.parts.dl0, now),
            dtlb_frac: hooks.dtlb.inverted_fraction(pipe.parts.dtlb.cache(), now),
        })
    })?
    .pop()
    .ok_or_else(|| Error::config("table4 penelope cell vanished"))?;

    let combined_cpi = pen.cpi / base.cpi;
    let rf_worst = pen.rf_worst;
    let sched_worst = pen.sched_worst;

    // Caches: effective bias from the measured inverted-time fraction,
    // assuming the paper's ~90% data bias for cache bit cells.
    let dl0_frac = pen.dl0_frac;
    let dtlb_frac = pen.dtlb_frac;
    let cache_bias = |frac: f64| Duty::saturating(crate::cache_aware::effective_bias(0.9, frac));

    let blocks = vec![
        ("adder".to_string(), BlockCost::new(1.0, 1.0, pen.adder_gb)),
        (
            "register file".to_string(),
            BlockCost::new(
                1.0,
                1.01,
                model.cell_guardband(Duty::saturating(rf_worst)).fraction(),
            ),
        ),
        (
            "scheduler".to_string(),
            BlockCost::new(1.0, 1.02, model.cell_guardband(sched_worst).fraction()),
        ),
        (
            "DL0".to_string(),
            BlockCost::new(
                1.0,
                1.01,
                model.cell_guardband(cache_bias(dl0_frac)).fraction(),
            ),
        ),
        (
            "DTLB".to_string(),
            BlockCost::new(
                1.0,
                1.01,
                model.cell_guardband(cache_bias(dtlb_frac)).fraction(),
            ),
        ),
    ];

    let agg = ProcessorAggregator::equal_weights(blocks.len())?;
    let costs: Vec<BlockCost> = blocks.iter().map(|(_, c)| *c).collect();
    let processor = agg.combine(&costs, combined_cpi.max(1.0))?;

    Ok(Table4 {
        blocks,
        combined_cpi,
        efficiency: processor.nbti_efficiency(),
        processor,
        baseline_efficiency: full_guardband_baseline(&model).nbti_efficiency(),
    })
}

// ------------------------------------------------- Table 3 tail statistic

/// Per-program loss-tail statistics for one scheme (§4.6: "the fraction of
/// programs that lose more than 5% (10%) performance for the 16KB 8-way
/// DL0 is 7.0% (2.8%) for SetFixed50%, 7.2% (2.5%) for LineFixed50%, and
/// only 4.4% (1.1%) for LineDynamic60%").
#[derive(Debug, Clone, PartialEq)]
pub struct TailRow {
    /// Scheme label.
    pub scheme: String,
    /// Fraction of traces losing more than 5%.
    pub over_5: f64,
    /// Fraction of traces losing more than 10%.
    pub over_10: f64,
    /// Mean loss across traces.
    pub mean_loss: f64,
}

/// The pipeline the Table 3 tail runs on: the 16KB 8-way DL0.
fn table3_tail_config() -> PipelineConfig {
    PipelineConfig {
        dl0: CacheConfig::dl0(16, 8),
        ..PipelineConfig::default()
    }
}

/// The Table 3 tail's arms, each on the DL0: arm 0 is the shared baseline
/// (seed 31); the three scheme arms reuse seed 32 like the serial loop
/// did.
fn table3_tail_arms(scale: Scale) -> Vec<SchemeArm> {
    let dl0 = |scheme| [scheme, SchemeKind::Baseline, SchemeKind::Baseline];
    let schemes = [
        SchemeKind::set_fixed_50(rotation_period(scale)),
        SchemeKind::line_fixed_50(),
        SchemeKind::line_dynamic_60(SchemeKind::dl0_threshold(16), scale.time_scale),
    ];
    std::iter::once((dl0(SchemeKind::Baseline), 31))
        .chain(schemes.into_iter().map(|scheme| (dl0(scheme), 32)))
        .collect()
}

/// Measures the per-program loss distribution on the 16KB 8-way DL0.
pub fn table3_tail(scale: Scale) -> Result<Vec<TailRow>, Error> {
    let _span = penelope_telemetry::span!("driver: table3_tail");
    let arms = table3_tail_arms(scale);
    let mut per_cell = par::try_cells_named("table3_tail", arms.len(), |cell| {
        let runs = cache_scheme_run(table3_tail_config(), &arms[cell.index..=cell.index], scale)?;
        Ok(runs[0].2.iter().map(RunResult::cpi).collect::<Vec<f64>>())
    })?;
    let baseline = per_cell.remove(0);
    let mut rows = Vec::new();
    for (([scheme, _, _], _), cpis) in arms.into_iter().skip(1).zip(per_cell) {
        let losses: Vec<f64> = cpis
            .iter()
            .zip(&baseline)
            .map(|(s, b)| (s / b - 1.0).max(0.0))
            .collect();
        let n = losses.len().max(1) as f64;
        rows.push(TailRow {
            scheme: scheme.label(),
            over_5: losses.iter().filter(|l| **l > 0.05).count() as f64 / n,
            over_10: losses.iter().filter(|l| **l > 0.10).count() as f64 / n,
            mean_loss: losses.iter().sum::<f64>() / n,
        });
    }
    Ok(rows)
}

// ------------------------------------------------------------- Extensions

/// One row of the BTB extension experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct BtbRow {
    /// Scheme label.
    pub scheme: String,
    /// CPI loss relative to the unprotected BTB.
    pub cpi_loss: f64,
    /// BTB miss ratio.
    pub miss_ratio: f64,
    /// Average inverted fraction (NBTI benefit).
    pub inverted_fraction: f64,
}

/// The BTB extension's arms, each on the BTB with the default seed: arm
/// 0 is the unprotected baseline the losses are relative to.
fn btb_arms(scale: Scale) -> Vec<SchemeArm> {
    let rotation = rotation_period(scale);
    [
        SchemeKind::Baseline,
        SchemeKind::set_fixed_50(rotation),
        SchemeKind::WayFixed {
            fraction: 0.5,
            rotation_period: rotation,
        },
        SchemeKind::line_fixed_50(),
        SchemeKind::line_dynamic_60(0.02, scale.time_scale),
    ]
    .into_iter()
    .map(|scheme| {
        (
            [SchemeKind::Baseline, SchemeKind::Baseline, scheme],
            PenelopeConfig::default().seed,
        )
    })
    .collect()
}

/// Extension: the §3.2.1 schemes applied to the branch target buffer (the
/// paper names the branch predictor as cache-like but evaluates only the
/// DL0 and DTLB).
pub fn btb_extension(scale: Scale) -> Result<Vec<BtbRow>, Error> {
    let _span = penelope_telemetry::span!("driver: btb_extension");
    let arms = btb_arms(scale);
    let cells = par::try_cells_named("btb", arms.len(), |cell| {
        let arm = arms[cell.index];
        let mut built = recorder::phase(&format!("btb: {}", arm.0[2].label()), || {
            cache_scheme_run(PipelineConfig::default(), &[arm], scale)
        })?;
        let (pipe, hooks, runs) = built.swap_remove(0);
        let total = sum_runs(&runs);
        let now = pipe.now();
        Ok((
            total.cpi(),
            pipe.parts.btb.stats().miss_ratio(),
            hooks.btb.inverted_fraction(pipe.parts.btb.cache(), now),
        ))
    })?;
    let baseline = cells
        .first()
        .map(|(cpi, _, _)| *cpi)
        .ok_or_else(|| Error::config("btb sweep produced no cells"))?;
    Ok(arms
        .into_iter()
        .zip(cells)
        .map(
            |(([_, _, scheme], _), (cpi, miss_ratio, inverted_fraction))| BtbRow {
                scheme: scheme.label(),
                cpi_loss: (cpi / baseline - 1.0).max(0.0),
                miss_ratio,
                inverted_fraction,
            },
        )
        .collect())
}

/// One row of the Vmin/energy extension (§2/§5: mitigating NBTI lowers
/// Vmin, "leading to higher power efficiency").
#[derive(Debug, Clone, PartialEq)]
pub struct VminRow {
    /// Structure name.
    pub structure: String,
    /// Worst cell duty, baseline.
    pub baseline_duty: f64,
    /// Worst cell duty under Penelope.
    pub penelope_duty: f64,
    /// Relative Vmin increase required, baseline.
    pub baseline_vmin: f64,
    /// Relative Vmin increase under Penelope.
    pub penelope_vmin: f64,
    /// Storage-energy ratio of Penelope vs baseline at the guardbanded
    /// Vmin (`E ∝ V²`).
    pub energy_ratio: f64,
}

/// Extension: Vmin and storage-energy impact for the storage structures,
/// from measured biases.
pub fn vmin_extension(scale: Scale) -> Result<Vec<VminRow>, Error> {
    let _span = penelope_telemetry::span!("driver: vmin_extension");
    use nbti_model::guardband::VminModel;
    let vmin = VminModel::paper_calibrated();

    // The baseline and Penelope runs are independent engine cells; each
    // returns the worst duties the Vmin model needs.
    cell_payload! {
        struct VminCell {
            int: Duty,
            fp: Duty,
            sched: Duty,
            dl0_frac: f64,
        }
    }
    let mut cells = par::try_cells_named("vmin", 2, |cell| {
        if cell.index == 0 {
            let (base, _) = recorder::phase("vmin: baseline", || {
                run_workload(PipelineConfig::default(), scale, &mut NoHooks)
            })?;
            Ok(VminCell {
                int: base.parts.int_rf.residency().worst_cell_duty(),
                fp: base.parts.fp_rf.residency().worst_cell_duty(),
                sched: worst_figure8_bias(&base.parts.sched),
                dl0_frac: 0.0,
            })
        } else {
            let config = PenelopeConfig {
                sample_period: scale.time_scale.max(64),
                ..PenelopeConfig::default()
            };
            let (mut pen, mut hooks) = build(&config)?;
            let workload = scale.workload();
            recorder::phase("vmin: penelope", || {
                feed(&mut pen, &workload, scale.uops_per_trace, &mut hooks, None)
            })?;
            let pen_now = pen.now();
            Ok(VminCell {
                int: pen.parts.int_rf.residency().worst_cell_duty(),
                fp: pen.parts.fp_rf.residency().worst_cell_duty(),
                sched: worst_figure8_bias(&pen.parts.sched),
                dl0_frac: hooks.dl0.inverted_fraction(&pen.parts.dl0, pen_now),
            })
        }
    })?;
    let pen = cells
        .pop()
        .ok_or_else(|| Error::config("vmin grid lost a cell"))?;
    let base = cells
        .pop()
        .ok_or_else(|| Error::config("vmin grid lost a cell"))?;

    let mut rows = Vec::new();
    let mut push = |name: &str, b: Duty, p: Duty| {
        let bv = vmin.vmin_increase(b);
        let pv = vmin.vmin_increase(p);
        rows.push(VminRow {
            structure: name.to_string(),
            baseline_duty: b.cell_worst().fraction(),
            penelope_duty: p.cell_worst().fraction(),
            baseline_vmin: bv,
            penelope_vmin: pv,
            energy_ratio: vmin.energy_factor(p) / vmin.energy_factor(b),
        });
    };
    push("INT register file", base.int, pen.int);
    push("FP register file", base.fp, pen.fp);
    push("scheduler", base.sched, pen.sched);
    push(
        "DL0",
        Duty::saturating(0.9),
        Duty::saturating(crate::cache_aware::effective_bias(0.9, pen.dl0_frac)),
    );
    Ok(rows)
}

/// One row of the design-parameter ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationRow {
    /// Parameter description, e.g. `"SetFixed rotation = 50000"`.
    pub label: String,
    /// CPI loss relative to the unprotected baseline.
    pub cpi_loss: f64,
    /// Worst residual cell duty of the studied structure (lower = better
    /// balancing), where applicable.
    pub worst_duty: Option<f64>,
}

/// Extension: ablations over the design parameters DESIGN.md calls out —
/// the SetFixed rotation period and the ISV sampling period.
pub fn ablation(scale: Scale) -> Result<Vec<AblationRow>, Error> {
    let _span = penelope_telemetry::span!("driver: ablation");
    let mut rows = Vec::new();

    // SetFixed rotation period: shorter rotations heal more evenly but
    // flush more often. Cell 0 is the unprotected baseline (seed 21); the
    // rotation cells reuse seed 22 like the serial loop did.
    let rotations = [5_000u64, 20_000, 100_000];
    let cpis = par::try_cells_named("ablation:rotation", 1 + rotations.len(), |cell| {
        let (dl0, seed) = match cell.index {
            0 => (SchemeKind::Baseline, 21),
            i => (SchemeKind::set_fixed_50(rotations[i - 1]), 22),
        };
        let arm = ([dl0, SchemeKind::Baseline, SchemeKind::Baseline], seed);
        Ok(scheme_cpis(PipelineConfig::default(), &[arm], scale)?[0])
    })?;
    let baseline = cpis
        .first()
        .copied()
        .ok_or_else(|| Error::config("ablation sweep produced no baseline"))?;
    for (rotation, cpi) in rotations.into_iter().zip(cpis.into_iter().skip(1)) {
        rows.push(AblationRow {
            label: format!("SetFixed50% rotation {rotation}"),
            cpi_loss: (cpi / baseline - 1.0).max(0.0),
            worst_duty: None,
        });
    }

    // ISV sampling period: stale RINV samples balance almost as well —
    // the paper's claim that sampling every "thousands or millions of
    // cycles" suffices.
    let periods = [64u64, 1_024, 16_384];
    let duties = par::try_cells_named("ablation:isv", periods.len(), |cell| {
        let mut hooks = RegfileIsvHooks::new(periods[cell.index]);
        let (pipe, _) = run_workload(PipelineConfig::default(), scale, &mut hooks)?;
        Ok(pipe.parts.int_rf.residency().worst_cell_duty().fraction())
    })?;
    for (period, worst) in periods.into_iter().zip(duties) {
        rows.push(AblationRow {
            label: format!("ISV sample period {period}"),
            // ISV writes use only idle ports: CPI is untouched by design.
            cpi_loss: 0.0,
            worst_duty: Some(worst),
        });
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_has_sawtooth_series() {
        let series = fig1().expect("valid model parameters");
        assert!(series.len() > 100);
        assert_eq!(series[0].1, 0.0);
        let max = series.iter().map(|(_, n)| *n).fold(0.0, f64::max);
        assert!(max > 0.1, "degradation accumulates");
        // Not monotone: recovery phases pull nit down.
        let rises = series.windows(2).filter(|w| w[1].1 > w[0].1).count();
        let falls = series.windows(2).filter(|w| w[1].1 < w[0].1).count();
        assert!(rises > 10 && falls > 10);
    }

    /// Table 3 runs the cache schemes alone. The register-file and
    /// scheduler hooks get `&mut` access to their structures, so whether
    /// leaving them out moves timing is checked here, not assumed: every
    /// arm of every geometry must produce the same per-trace results under
    /// the full `PenelopeHooks`, configured as Table 3 once ran them (RINVs
    /// frozen after their first sample), as under `CacheSchemes`.
    #[test]
    fn table3_timing_ignores_the_register_file_and_scheduler_hooks() {
        let scale = Scale::quick();
        let workload = scale.workload();
        for geometry in table3_grid() {
            let arms = geometry.arms(scale);
            let cache_only =
                cache_scheme_run(geometry.config, &arms, scale).expect("valid geometry");
            for ((schemes, seed), (_, _, runs)) in arms.into_iter().zip(cache_only) {
                let config = PenelopeConfig {
                    sample_period: u64::MAX / 2,
                    ..cache_scheme_config(geometry.config, schemes, seed)
                };
                let (mut pipe, mut hooks) = build(&config).expect("valid geometry");
                let full = feed(&mut pipe, &workload, scale.uops_per_trace, &mut hooks, None)
                    .expect("quick workload is not empty");
                assert_eq!(
                    full, runs,
                    "{}: seed {seed}, schemes {schemes:?}",
                    geometry.label
                );
            }
        }
    }

    /// Table 3 and its extensions run timing-only pipelines
    /// ([`build_cache_schemes`]). That skipping the register-file and
    /// scheduler residency moves nothing they read is checked here, not
    /// assumed: for every arm of every Table 3 geometry, of the tail and of
    /// the BTB extension, a tracked pipeline under the same
    /// `CacheSchemes` gives the same per-trace results, the same DL0, DTLB
    /// and BTB statistics and the same scheme inverted fractions.
    #[test]
    fn untracked_cache_scheme_runs_time_exactly_like_tracked_ones() {
        let scale = Scale::quick();
        let workload = scale.workload();
        let mut cases: Vec<(String, PipelineConfig, Vec<SchemeArm>)> = table3_grid()
            .into_iter()
            .map(|geometry| {
                let arms = geometry.arms(scale);
                (geometry.label, geometry.config, arms)
            })
            .collect();
        cases.push((
            "table3 tail".into(),
            table3_tail_config(),
            table3_tail_arms(scale),
        ));
        cases.push(("btb".into(), PipelineConfig::default(), btb_arms(scale)));
        for (label, pipeline, arms) in cases {
            let untracked = cache_scheme_run(pipeline, &arms, scale).expect("valid geometry");
            for ((schemes, seed), (u_pipe, u_hooks, u_runs)) in arms.into_iter().zip(untracked) {
                let what = format!("{label}: seed {seed}, schemes {schemes:?}");
                let config = cache_scheme_config(pipeline, schemes, seed);
                let (mut pipe, _) = build(&config).expect("valid geometry");
                let mut hooks = CacheSchemes::new(&config);
                let runs = feed(&mut pipe, &workload, scale.uops_per_trace, &mut hooks, None)
                    .expect("quick workload is not empty");
                assert_eq!(runs, u_runs, "{what}");
                assert_eq!(pipe.parts.dl0.stats(), u_pipe.parts.dl0.stats(), "{what}");
                assert_eq!(pipe.parts.dtlb.stats(), u_pipe.parts.dtlb.stats(), "{what}");
                assert_eq!(pipe.parts.btb.stats(), u_pipe.parts.btb.stats(), "{what}");
                let now = pipe.now();
                let inverted = |h: &CacheSchemes, p: &Pipeline| {
                    [
                        h.dl0.inverted_fraction(&p.parts.dl0, now),
                        h.dtlb.inverted_fraction(p.parts.dtlb.cache(), now),
                        h.btb.inverted_fraction(p.parts.btb.cache(), now),
                    ]
                };
                assert_eq!(
                    inverted(&hooks, &pipe),
                    inverted(&u_hooks, &u_pipe),
                    "{what}"
                );
            }
        }
    }

    #[test]
    fn fig4_has_28_pairs() {
        let pairs = fig4().expect("fixed-width adder");
        assert_eq!(pairs.len(), 28);
    }

    #[test]
    fn efficiency_rows_cover_all_designs() {
        let rows = efficiency_summary(Scale::quick()).expect("quick scale runs");
        assert_eq!(rows.len(), 6);
        assert!((rows[0].efficiency - 1.728).abs() < 1e-3);
        assert!((rows[1].efficiency - 1.41).abs() < 0.02);
        // Every Penelope mechanism beats periodic inversion.
        for row in &rows[2..] {
            assert!(
                row.efficiency < rows[1].efficiency,
                "{} at {} is not better than inversion",
                row.name,
                row.efficiency
            );
        }
    }

    #[test]
    fn faulted_summary_with_empty_plan_matches_clean_shape() {
        let rows = efficiency_summary_faulted(Scale::quick(), &FaultPlan::none())
            .expect("clean plan runs");
        assert_eq!(rows.len(), 4);
        assert!((rows[0].efficiency - 1.728).abs() < 1e-3);
        for row in &rows {
            assert!(row.efficiency.is_finite());
        }
    }

    #[test]
    fn empty_workload_fault_is_a_typed_error() {
        use crate::fault::FaultKind;
        let plan = FaultPlan::new(3).with(FaultKind::EmptyWorkload);
        match efficiency_summary_faulted(Scale::quick(), &plan) {
            Err(Error::Trace(TraceError::EmptyWorkload)) => {}
            other => panic!("expected empty-workload error, got {other:?}"),
        }
    }

    #[test]
    fn an_empty_workload_is_refused_before_any_telemetry_is_recorded() {
        recorder::install(penelope_telemetry::recorder::Settings::default());
        let (mut pipe, mut hooks) = build(&PenelopeConfig::default()).expect("default config");
        let result = feed(&mut pipe, &Workload::empty(), 1_000, &mut hooks, None);
        let collector = recorder::finish().expect("installed");
        assert!(
            matches!(result, Err(Error::Trace(TraceError::EmptyWorkload))),
            "{result:?}"
        );
        let spans: Vec<&str> = collector.spans.iter().map(|s| s.name).collect();
        assert!(spans.is_empty(), "spans recorded: {spans:?}");
        assert!(
            collector.output.registry.is_empty(),
            "counters registered for a run that simulated nothing"
        );
    }

    #[test]
    fn nan_duty_fault_is_a_typed_model_error() {
        use crate::fault::FaultKind;
        let plan = FaultPlan::new(4).with(FaultKind::NanDuty);
        match efficiency_summary_faulted(Scale::quick(), &plan) {
            Err(Error::Model(_)) => {}
            other => panic!("expected model error, got {other:?}"),
        }
    }

    #[test]
    fn run_workload_faulted_reports_landed_faults() {
        use crate::fault::FaultKind;
        let plan = FaultPlan::new(5).with(FaultKind::StructureStrikes);
        let mut injector = FaultInjector::new(&plan);
        let mut pipe = Pipeline::try_new(PipelineConfig::default()).expect("default config");
        let mut hooks = injector.hooks(NoHooks);
        let workload = injector.perturb_workload(Scale::quick().workload());
        let runs = feed(
            &mut pipe,
            &workload,
            Scale::quick().uops_per_trace,
            &mut hooks,
            Some(&mut injector),
        )
        .expect("strikes do not make runs fail");
        let run = sum_runs(&runs);
        assert!(run.uops > 0);
        assert!(hooks.landed() > 0, "strikes should land at quick scale");
    }
}
