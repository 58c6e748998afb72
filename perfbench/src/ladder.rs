//! The layer ladder: one fixed trace per suite run through successively
//! more layers, so rung-to-rung differences give ns/uop per layer; plus
//! an exact counting pass over the same traces.
//!
//! | rung | what runs | metric |
//! |---|---|---|
//! | `tracegen` | drain `TraceSpec::generate_chunks` | `tracegen.ns_per_uop` |
//! | `event_core` | `Pipeline::run_chunked` with `NoHooks` | `uarch.pipeline.ns_per_uop` (minus tracegen) |
//! | `regfile_aware` | + `RegfileIsvHooks` | `penelope.regfile_aware.ns_per_uop` (minus event_core) |
//! | `sched_aware` | + `SchedulerHooks` | `penelope.sched_aware.ns_per_uop` (minus event_core) |
//! | `cache_aware` | + the DL0/DTLB/BTB `SchemeRuntime`s | `penelope.cache_aware.ns_per_uop` (minus event_core) |
//! | `processor` | the full `PenelopeHooks` | `penelope.processor.ns_per_uop` (minus event_core) |
//! | `telemetry` | + `obs::with_recording`, recorder installed | `telemetry.hooks.ns_per_uop` (minus processor) |
//! | `checked` | + `CheckedHooks` | `penelope.checked.ns_per_uop` (minus telemetry) |
//! | `par_cell` | as one `par` cell, journal armed | `penelope.par.ns_per_uop` (minus checked) |
//! | `table3_config` | `PenelopeHooks` as Table 3 configures them, fed uop by uop | `penelope.table3_config.ns_per_uop` (minus event_core) |

use std::path::Path;
use std::time::{Duration, Instant};

use penelope::cache_aware::{SchemeKind, SchemeRuntime};
use penelope::checked::{CheckedHooks, Policy};
use penelope::experiments::Scale;
use penelope::journal::{CheckpointContext, JournalHeader};
use penelope::obs::with_recording;
use penelope::par;
use penelope::processor::{build, PenelopeConfig};
use penelope::regfile_aware::RegfileIsvHooks;
use penelope::sched_aware::SchedulerHooks;
use penelope_telemetry::recorder::{self, Settings};
use penelope_telemetry::Json;
use tracegen::soa::{ChunkedTrace, DEFAULT_CHUNK};
use tracegen::suite::Suite;
use tracegen::trace::TraceSpec;
use uarch::btb::Btb;
use uarch::cache::{AccessOutcome, CacheConfig, CacheStats, SetAssocCache};
use uarch::pipeline::{Hooks, NoHooks, Parts, Pipeline, PipelineConfig, RunResult};
use uarch::tlb::Dtlb;

use crate::counting::{CountingHooks, HookCounts, KINDS};
use crate::metrics::{median, Ops, Values};
use crate::spans::Tracer;
use crate::workloads::{mix64, DEFAULT_SEED};
use crate::Size;

/// RINV sampling period of the mechanism rungs (`PenelopeConfig`'s own).
const PERIOD: u64 = 1024;

const RUNGS: [&str; 10] = [
    "tracegen",
    "event_core",
    "regfile_aware",
    "sched_aware",
    "cache_aware",
    "processor",
    "telemetry",
    "checked",
    "par_cell",
    "table3_config",
];

/// One trace per suite: trace 0 at the default seed, a seed-chosen one
/// otherwise.
pub fn specs(seed: u64) -> Vec<TraceSpec> {
    Suite::ALL
        .iter()
        .zip(1u64..)
        .map(|(&suite, salt)| {
            let index = if seed == DEFAULT_SEED {
                0
            } else {
                let pick = mix64(seed ^ salt.wrapping_mul(0x2545_f491_4f6c_dd1d));
                (pick % suite.trace_count() as u64) as usize
            };
            TraceSpec::new(suite, index)
        })
        .collect()
}

pub fn chunks(spec: &TraceSpec, uops: usize) -> ChunkedTrace {
    spec.generate_chunks(uops, DEFAULT_CHUNK)
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Every generated uop must retire.
pub fn retired(run: &RunResult, uops: usize) -> Result<(), String> {
    if run.uops == uops as u64 {
        Ok(())
    } else {
        Err(format!("{} of {uops} uops retired", run.uops))
    }
}

/// The cache-like part of `PenelopeHooks`: the DL0, DTLB and BTB
/// inversion schemes alone.
struct CacheSchemes {
    dl0: SchemeRuntime,
    dtlb: SchemeRuntime,
    btb: SchemeRuntime,
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

fn timed(body: impl FnOnce() -> Result<(), String>) -> Result<Duration, String> {
    let started = Instant::now();
    body()?;
    Ok(started.elapsed())
}

/// The full processor under `CheckedHooks`, inside `obs::with_recording`.
fn checked_run(config: &PenelopeConfig, spec: &TraceSpec, uops: usize) -> Result<(), String> {
    let (mut pipe, hooks) = build(config).map_err(err)?;
    let mut checked = CheckedHooks::new(hooks, Policy::Count, PERIOD);
    let run = with_recording(&mut checked, |mut h| {
        pipe.run_chunked(chunks(spec, uops), &mut h)
    });
    retired(&run, uops)?;
    match checked.violations().first() {
        Some(v) => Err(format!(
            "{} invariant violation(s), first: {}",
            checked.violation_count(),
            v.message
        )),
        None => Ok(()),
    }
}

/// Table 3's own configuration (its `scheme_cpi`): the composed hooks with
/// the register-file and scheduler mechanisms never sampled and the BTB
/// unprotected, one of the four DL0 schemes a DL0 row compares at
/// standard scale, and the trace fed uop by uop rather than in chunks.
/// The ladder gives the suite traces the four schemes in turn.
fn table3_run(suite_index: usize, spec: &TraceSpec, uops: usize) -> Result<(), String> {
    let time_scale = Scale::standard().time_scale;
    let dl0_scheme = match suite_index % 4 {
        0 => SchemeKind::Baseline,
        1 => SchemeKind::set_fixed_50((10_000_000 / time_scale).max(2_000)),
        2 => SchemeKind::line_fixed_50(),
        _ => SchemeKind::line_dynamic_60(SchemeKind::dl0_threshold(32), time_scale),
    };
    let config = PenelopeConfig {
        dl0_scheme,
        dtlb_scheme: SchemeKind::Baseline,
        btb_scheme: SchemeKind::Baseline,
        sample_period: u64::MAX / 2,
        ..PenelopeConfig::default()
    };
    let (mut pipe, mut hooks) = build(&config).map_err(err)?;
    let run = with_recording(&mut hooks, |mut h| pipe.run(spec.generate(uops), &mut h));
    retired(&run, uops)
}

/// Runs one rung over one trace (suite `suite_index`) and returns the
/// host time of its timed region. Set-up a rung needs but its layer does
/// not (installing the recorder, creating the journal) stays outside that
/// region.
fn run_rung(
    rung: &str,
    suite_index: usize,
    spec: &TraceSpec,
    uops: usize,
    journal: &Path,
) -> Result<Duration, String> {
    let config = PenelopeConfig::default();
    let bare = || Pipeline::try_new(PipelineConfig::default()).map_err(err);
    match rung {
        "tracegen" => timed(|| {
            let mut source = chunks(spec, uops);
            let mut drained = 0;
            while let Some(chunk) = source.refill() {
                drained += chunk.len();
            }
            if drained == uops {
                Ok(())
            } else {
                Err(format!("drained {drained} of {uops} uops"))
            }
        }),
        "event_core" => {
            timed(|| retired(&bare()?.run_chunked(chunks(spec, uops), &mut NoHooks), uops))
        }
        "regfile_aware" => timed(|| {
            let mut hooks = RegfileIsvHooks::new(PERIOD);
            retired(&bare()?.run_chunked(chunks(spec, uops), &mut hooks), uops)
        }),
        "sched_aware" => timed(|| {
            let mut hooks = SchedulerHooks::paper_default(PERIOD);
            retired(&bare()?.run_chunked(chunks(spec, uops), &mut hooks), uops)
        }),
        "cache_aware" => timed(|| {
            let (mut pipe, hooks) = build(&config).map_err(err)?;
            let mut schemes = CacheSchemes {
                dl0: hooks.dl0,
                dtlb: hooks.dtlb,
                btb: hooks.btb,
            };
            retired(&pipe.run_chunked(chunks(spec, uops), &mut schemes), uops)
        }),
        "processor" => timed(|| {
            let (mut pipe, mut hooks) = build(&config).map_err(err)?;
            retired(&pipe.run_chunked(chunks(spec, uops), &mut hooks), uops)
        }),
        "telemetry" => {
            recorder::install(Settings::default());
            let result = timed(|| {
                let (mut pipe, mut hooks) = build(&config).map_err(err)?;
                let run = with_recording(&mut hooks, |mut h| {
                    pipe.run_chunked(chunks(spec, uops), &mut h)
                });
                retired(&run, uops)
            });
            let _ = recorder::finish();
            result
        }
        "checked" => {
            recorder::install(Settings::default());
            let result = timed(|| checked_run(&config, spec, uops));
            let _ = recorder::finish();
            result
        }
        "par_cell" => {
            recorder::install(Settings::default());
            let policy = par::supervisor();
            let header = JournalHeader {
                binary: "perfbench-ladder".to_string(),
                scale: Json::object(),
                fault_seed: 0,
                retries: policy.retries,
                cell_budget: policy.cycle_budget,
            };
            let result = CheckpointContext::create(journal, &header)
                .map_err(err)
                .and_then(|context| {
                    par::set_checkpoint(Some(context));
                    let result = timed(|| {
                        let cells = par::run_cells_named("ladder", 1, |_| {
                            checked_run(&config, spec, uops)
                                .map(|()| uops as u64)
                                .map_err(penelope::error::Error::config)
                        });
                        match cells.into_iter().next() {
                            Some(Ok(_)) => Ok(()),
                            Some(Err(e)) => Err(e.to_string()),
                            None => Err("the one-cell sweep returned nothing".to_string()),
                        }
                    });
                    par::set_checkpoint(None);
                    result
                });
            let _ = recorder::finish();
            result
        }
        "table3_config" => timed(|| table3_run(suite_index, spec, uops)),
        other => Err(format!("unknown rung {other}")),
    }
}

/// Runs ladder rounds (every rung over every suite trace, rungs
/// interleaved) until `budget` has passed and at least
/// `size.min_samples` rounds are done, then the counting pass.
pub fn run(
    seed: u64,
    size: &Size,
    budget: Duration,
    work_dir: &Path,
    tracer: &mut Tracer,
    ops: &mut Ops,
    values: &mut Values,
) {
    let specs = specs(seed);
    let uops = size.ladder_uops;
    let journal = work_dir.join("ladder-journal.jsonl");
    let mut rounds: Vec<[f64; RUNGS.len()]> = Vec::new();
    let started = Instant::now();
    tracer.span("ladder", |t| {
        while rounds.len() < size.min_samples || started.elapsed() < budget {
            let mut round = [0.0f64; RUNGS.len()];
            for (s, spec) in specs.iter().enumerate() {
                t.span(&format!("suite.{}", spec.suite().name()), |t| {
                    for (i, rung) in RUNGS.iter().enumerate() {
                        let result = t.span(&format!("rung.{rung}"), |_| {
                            run_rung(rung, s, spec, uops, &journal)
                        });
                        if let Some(d) = ops.record(&format!("ladder {rung} {spec}"), result) {
                            round[i] += d.as_nanos() as f64;
                        }
                    }
                });
            }
            rounds.push(round);
        }
    });
    let _ = std::fs::remove_file(&journal);

    let per_uop = (uops * specs.len()) as f64;
    let rung = |i: usize| median(&rounds.iter().map(|r| r[i] / per_uop).collect::<Vec<_>>());
    // Differences are taken within each round, then the median across
    // rounds, so slow drift of the host cancels.
    let delta = |a: usize, b: usize| {
        median(
            &rounds
                .iter()
                .map(|r| (r[a] - r[b]) / per_uop)
                .collect::<Vec<_>>(),
        )
    };
    values.set("tracegen.ns_per_uop", rung(0));
    values.set("uarch.pipeline.ns_per_uop", delta(1, 0));
    values.set("penelope.regfile_aware.ns_per_uop", delta(2, 1));
    values.set("penelope.sched_aware.ns_per_uop", delta(3, 1));
    values.set("penelope.cache_aware.ns_per_uop", delta(4, 1));
    values.set("penelope.processor.ns_per_uop", delta(5, 1));
    values.set("telemetry.hooks.ns_per_uop", delta(6, 5));
    values.set("penelope.checked.ns_per_uop", delta(7, 6));
    values.set("penelope.par.ns_per_uop", delta(8, 7));
    values.set("penelope.table3_config.ns_per_uop", delta(9, 1));
    eprintln!(
        "  ladder: {} round(s) of {} suite traces x {uops} uops; rung medians in ns/uop:",
        rounds.len(),
        specs.len()
    );
    for (i, name) in RUNGS.iter().enumerate() {
        eprintln!("    {name:<14} {:>10.1}", rung(i));
    }

    tracer.span("counting", |_| count(&specs, uops, ops, values));
}

fn add_stats(total: &mut (u64, u64), stats: &CacheStats) {
    total.0 += stats.accesses;
    total.1 += stats.hits;
}

fn miss_rate((accesses, hits): (u64, u64)) -> f64 {
    (accesses - hits) as f64 / accesses.max(1) as f64
}

/// Exact counts over the ladder's traces with `NoHooks`: hook dispatches,
/// idle cycles and cache/TLB/BTB statistics at the default geometry, and
/// the miss rates of Table 3's smallest geometry (8 KB DL0, 32-entry
/// DTLB). Every structure starts empty at each trace.
fn count(specs: &[TraceSpec], uops: usize, ops: &mut Ops, values: &mut Values) {
    let small = PipelineConfig {
        dl0: CacheConfig::dl0(8, 8),
        dtlb_entries: 32,
        ..PipelineConfig::default()
    };
    let mut calls = HookCounts::default();
    let (mut cycles, mut retired_uops) = (0u64, 0u64);
    let (mut dl0, mut dtlb, mut btb, mut dl0_small, mut dtlb_small) =
        ((0, 0), (0, 0), (0, 0), (0, 0), (0, 0));
    for spec in specs {
        for (config, is_small) in [(PipelineConfig::default(), false), (small, true)] {
            let result = Pipeline::try_new(config).map_err(err).and_then(|mut pipe| {
                let mut hooks = CountingHooks::new(NoHooks);
                let run = pipe.run_chunked(chunks(spec, uops), &mut hooks);
                retired(&run, uops)?;
                Ok((pipe, hooks.counts, run))
            });
            let Some((pipe, counts, run)) = ops.record(&format!("count {spec}"), result) else {
                continue;
            };
            let parts = &pipe.parts;
            if is_small {
                add_stats(&mut dl0_small, parts.dl0.stats());
                add_stats(&mut dtlb_small, parts.dtlb.stats());
            } else {
                calls.add(&counts);
                cycles += run.cycles;
                retired_uops += run.uops;
                add_stats(&mut dl0, parts.dl0.stats());
                add_stats(&mut dtlb, parts.dtlb.stats());
                add_stats(&mut btb, parts.btb.stats());
            }
        }
    }
    let per_uop = |n: u64| n as f64 / retired_uops.max(1) as f64;
    values.set("uarch.pipeline.cycles_per_uop", per_uop(cycles));
    values.set(
        "uarch.pipeline.idle_cycle_frac",
        calls.idle_cycles as f64 / cycles.max(1) as f64,
    );
    for ((_, metric), n) in KINDS.iter().zip(calls.calls) {
        values.set(metric, per_uop(n));
    }
    values.set("uarch.cache.dl0_miss_rate", miss_rate(dl0));
    values.set("uarch.cache.dl0_accesses_per_uop", per_uop(dl0.0));
    values.set("uarch.tlb.dtlb_miss_rate", miss_rate(dtlb));
    values.set("uarch.btb.btb_miss_rate", miss_rate(btb));
    values.set("uarch.cache.dl0_miss_rate.8kb", miss_rate(dl0_small));
    values.set("uarch.tlb.dtlb_miss_rate.32e", miss_rate(dtlb_small));
}
