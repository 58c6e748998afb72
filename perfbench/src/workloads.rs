//! The three end-to-end workloads: their seed-derived inputs, set-up,
//! timed loop and output checks.
//!
//! - `pipeline` calls the `fig6`, `fig8`, `table3` and `table4` drivers at
//!   a small `Scale`, `--jobs 1`, with no recorder installed. Time goes to
//!   tracegen, the event core, residency charging, DL0/DTLB and the
//!   Penelope hooks. Table 3's 8 KB / 32-entry geometries (miss-heavy) run
//!   beside the 32 KB / 128-entry ones (hit-heavy).
//! - `sweep` calls `fleet::fleet` at `--jobs` = available parallelism over
//!   about a thousand 256-instance cells, on the path of
//!   `fleet --json --checkpoint`: recorder installed, journal armed, report
//!   built and validated. Per-cell work is microseconds of `nbti_model`
//!   arithmetic, so sweep dispatch, snapshot merge, journal rewrite,
//!   telemetry and report build dominate; the pipeline runs only the short
//!   profile phase.
//! - `netlist` calls `netlist_study` over the decoder, the multiplier and
//!   the exported adder with the default `dce,map,partition:4` passes and a
//!   large stimulus campaign, at `--jobs 1`. Only gatesim and stimulus
//!   synthesis run: the control workload a pipeline-only change must not
//!   move.

use std::fmt::Debug;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use gatesim::passes::PassConfig;
use penelope::experiments::{self, Fig6, Fig8, Scale, Table3, Table4};
use penelope::fleet::{self, FleetConfig, FleetSummary, INSTANCES_PER_CELL};
use penelope::journal::{CheckpointContext, JournalHeader};
use penelope::netlist_study::{self, NetlistConfig, NetlistSource, NetlistSummary};
use penelope::obs::scale_json;
use penelope::par;
use penelope::processor::PenelopeConfig;
use penelope_telemetry::recorder::{self, Settings};
use penelope_telemetry::{build_report, validate_report, Json};
use tracegen::suite::Suite;
use uarch::cache::CacheConfig;
use uarch::pipeline::{Pipeline, PipelineConfig};

use crate::metrics::{median, quantile, Ops, Values};
use crate::spans::Tracer;
use crate::Size;

/// The seed whose results are pinned by digest; every other seed is
/// checked by invariants only. It gives the repository's default inputs.
pub const DEFAULT_SEED: u64 = 0;

/// FNV-1a-64 digests of each call's `Debug` output at [`DEFAULT_SEED`]
/// with `Size::BENCH`.
const PINNED: &[(&str, u64)] = &[
    ("fig6", 0x7584_1e08_66c9_0558),
    ("fig8", 0xe45a_1212_5e4b_a3f9),
    ("table3", 0x49ef_c667_f931_4893),
    ("table4", 0xbca6_d3d1_fa32_9703),
    ("fleet", 0xee8f_281f_7b53_d042),
    ("netlist.decoder", 0xf5c9_4885_b727_c961),
    ("netlist.multiplier", 0xe1f4_1ee5_f638_6a3c),
    ("netlist.adder", 0xa7a2_8b8b_f532_05be),
];

/// Workload passes the four `pipeline` drivers make, each over every
/// trace: fig6 2 (baseline, ISV), fig8 2 (baseline, protected), table3 36
/// (9 geometries × 4 schemes), table4 2 (baseline, Penelope).
const PIPELINE_PASSES: u64 = 42;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Pipeline,
    Sweep,
    Netlist,
}

impl Workload {
    pub fn parse(name: &str) -> Result<Self, String> {
        match name {
            "pipeline" => Ok(Workload::Pipeline),
            "sweep" => Ok(Workload::Sweep),
            "netlist" => Ok(Workload::Netlist),
            other => Err(format!(
                "unknown workload {other:?} (expected pipeline, sweep or netlist)"
            )),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Pipeline => "pipeline",
            Workload::Sweep => "sweep",
            Workload::Netlist => "netlist",
        }
    }
}

/// Splitmix64 finalizer.
pub fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A per-seed perturbation in `0..32`, 0 at the default seed. The drivers
/// derive their traces from a `Scale` alone, so the seed varies the trace
/// length by a few uops: the inputs change while the work stays within 1%.
fn jitter(seed: u64, salt: u64) -> usize {
    if seed == DEFAULT_SEED {
        0
    } else {
        (mix64(seed ^ salt) % 32) as usize
    }
}

/// A library seed derived from the benchmark seed; the library's own
/// default at the default seed.
fn derived(seed: u64, salt: u64, default: u64) -> u64 {
    if seed == DEFAULT_SEED {
        default
    } else {
        mix64(seed ^ salt)
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Digest of a result: FNV-1a-64 of its `Debug` rendering.
fn digest(value: &impl Debug) -> u64 {
    fnv1a(format!("{value:?}").as_bytes())
}

/// A `/proc/self/status` field in kB (`key` includes the colon).
pub fn proc_status_kb(key: &str) -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix(key))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("/proc/self/status has no {key} field"))
}

fn unit_interval(what: &str, x: f64) -> Result<(), String> {
    if (0.0..=1.0).contains(&x) {
        Ok(())
    } else {
        Err(format!("{what} = {x} lies outside [0, 1]"))
    }
}

/// Checks one call's result: an error, a broken invariant or (at the
/// default seed) a digest other than the pinned one fails it.
fn check<T: Debug>(
    name: &str,
    result: Result<T, String>,
    pinned: bool,
    invariant: impl FnOnce(&T) -> Result<(), String>,
) -> Result<T, String> {
    let value = result?;
    invariant(&value)?;
    if pinned {
        let want = PINNED
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, d)| *d)
            .ok_or_else(|| format!("no digest pinned for {name}"))?;
        let got = digest(&value);
        if got != want {
            return Err(format!("digest {got:#018x} != pinned {want:#018x}"));
        }
    }
    Ok(value)
}

/// Times one call into a layer inside a `call.<name>` span.
fn timed_call<T>(t: &mut Tracer, name: &str, call: impl FnOnce() -> T) -> (Duration, T) {
    t.span(&format!("call.{name}"), |_| {
        let started = Instant::now();
        let result = call();
        (started.elapsed(), result)
    })
}

/// A workload's set-up: each call builds the workload afresh.
type Setup<'a> = Box<dyn FnMut() -> Result<Box<dyn Bench>, String> + 'a>;

/// Times set-up in batches. Set-up takes micro- to milliseconds, below
/// what one timing resolves steadily, so a batch repeats it for at least
/// 10 ms and records its mean.
struct SetupTimer<'a> {
    setup: Setup<'a>,
    per_batch: usize,
    means: Vec<f64>,
}

impl<'a> SetupTimer<'a> {
    /// Runs set-up once and returns the workload, then sizes the batches
    /// on warm calls: the first call pays for cold caches and would size
    /// them far too small.
    fn new(mut setup: Setup<'a>) -> Result<(Self, Box<dyn Bench>), String> {
        let bench = setup()?;
        let mut timer = SetupTimer {
            setup,
            per_batch: 1,
            means: Vec::new(),
        };
        while timer.batch()? < Duration::from_millis(10) && timer.per_batch < 1 << 20 {
            timer.per_batch *= 2;
        }
        Ok((timer, bench))
    }

    fn batch(&mut self) -> Result<Duration, String> {
        let started = Instant::now();
        for _ in 0..self.per_batch {
            drop((self.setup)()?);
        }
        Ok(started.elapsed())
    }

    fn batches(&mut self, count: usize) -> Result<(), String> {
        for _ in 0..count {
            let elapsed = self.batch()?;
            self.means
                .push(elapsed.as_secs_f64() / self.per_batch as f64);
        }
        Ok(())
    }
}

/// One workload. An iteration is one run of its driver calls.
trait Bench {
    /// Runs one iteration, recording each call as an operation, and
    /// returns the host time spent inside the timed calls.
    fn iteration(&mut self, tracer: &mut Tracer, ops: &mut Ops) -> Duration;

    /// Runs the checks that need extra work after the timed loop, prints
    /// the references, and returns the simulated cycles of one iteration.
    fn finish(&mut self, ops: &mut Ops) -> u64;
}

/// Runs `workload` for `budget`: set-up, one untimed warm-up iteration,
/// then timed iterations. Untraced runs measure the end-to-end metrics;
/// a traced run alternates traced and untraced iterations and reports
/// the tracing overhead.
#[allow(clippy::too_many_arguments)]
pub fn run(
    workload: Workload,
    seed: u64,
    size: &Size,
    budget: Duration,
    work_dir: &Path,
    tracer: &mut Tracer,
    ops: &mut Ops,
    values: &mut Values,
) -> Result<(), String> {
    let setup: Setup = match workload {
        Workload::Pipeline => Box::new(|| -> Result<Box<dyn Bench>, String> {
            Ok(Box::new(PipelineBench::setup(seed, size)?))
        }),
        Workload::Sweep => Box::new(|| -> Result<Box<dyn Bench>, String> {
            Ok(Box::new(SweepBench::setup(seed, size, work_dir)?))
        }),
        Workload::Netlist => Box::new(|| -> Result<Box<dyn Bench>, String> {
            Ok(Box::new(NetlistBench::setup(seed, size)?))
        }),
    };
    let (mut setup, mut bench) = SetupTimer::new(setup)?;
    setup.batches(7)?;
    let trace = tracer.enabled();
    // The warm-up lets host caches fill and lazy set-up finish; its
    // calls are checked like the timed ones.
    bench.iteration(&mut Tracer::new(false), ops);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let started = Instant::now();
    while plain.len() < size.min_samples
        || (trace && traced.len() < size.min_samples)
        || started.elapsed() < budget
    {
        if trace && traced.len() < plain.len() {
            let d = tracer.span("iteration", |t| bench.iteration(t, ops));
            traced.push(d.as_secs_f64());
        } else {
            plain.push(bench.iteration(&mut Tracer::new(false), ops).as_secs_f64());
        }
        // Set-up batches between iterations sample the same stretch of
        // host time as `wall_s`, not only its first milliseconds.
        setup.batches(3)?;
    }
    // Read before `finish`, whose extra checking run is not the workload.
    let peak_rss_mb = proc_status_kb("VmHWM:")? as f64 / 1024.0;
    let cycles = bench.finish(ops);
    // Lower quartiles, not medians: on a shared host, neighbours slow
    // whole stretches of seconds by up to ~60%, and how much of a run
    // they cover varies from run to run. The lower quartile of many
    // samples tracks the uncontended speed of the code.
    let wall_s = quantile(&plain, 0.25);
    let setup_s = quantile(&setup.means, 0.25);
    eprintln!(
        "  {} timed iteration(s) {plain:.3?}: lower quartile {wall_s:.4} s, median {:.4} s, \
         {cycles} simulated cycles each, set-up {setup_s:.3e} s",
        plain.len(),
        median(&plain)
    );
    if trace {
        values.set(
            "trace.overhead_frac",
            quantile(&traced, 0.25) / wall_s - 1.0,
        );
    } else {
        values.set("setup_s", setup_s);
        values.set("wall_s", wall_s);
        values.set("sim_cycles_per_s", cycles as f64 / wall_s);
        values.set("peak_rss_mb", peak_rss_mb);
    }
    Ok(())
}

// ------------------------------------------------------------- pipeline

type PipelineResults = (Fig6, Fig8, Table3, Table4);

struct PipelineBench {
    scale: Scale,
    pinned: bool,
    /// The last iteration's results.
    results: Option<PipelineResults>,
}

impl PipelineBench {
    fn setup(seed: u64, size: &Size) -> Result<Self, String> {
        let scale = Scale {
            traces_per_suite: 1,
            uops_per_trace: size.pipeline_uops + jitter(seed, 0x919E),
            time_scale: 1_000,
        };
        // The geometries table3 sweeps, and the composed processor's
        // configuration with its scheduler policy.
        for (kb, ways) in [(32, 8), (16, 8), (8, 8), (32, 4), (16, 4), (8, 4)] {
            let config = PipelineConfig {
                dl0: CacheConfig::dl0(kb, ways),
                ..PipelineConfig::default()
            };
            Pipeline::validate(&config).map_err(|e| e.to_string())?;
        }
        for dtlb_entries in [128, 64, 32] {
            let config = PipelineConfig {
                dtlb_entries,
                ..PipelineConfig::default()
            };
            Pipeline::validate(&config).map_err(|e| e.to_string())?;
        }
        let penelope = PenelopeConfig::default();
        penelope
            .sched_policy
            .validate_k_budgets()
            .map_err(|e| e.to_string())?;
        if scale.workload().is_empty() {
            return Err("the pipeline workload has no traces".into());
        }
        par::set_jobs(1);
        Ok(PipelineBench {
            scale,
            pinned: seed == DEFAULT_SEED,
            results: None,
        })
    }

    /// The four driver calls; each is one operation.
    fn calls(&self, t: &mut Tracer, ops: &mut Ops) -> (Duration, Option<PipelineResults>) {
        let (scale, pinned) = (self.scale, self.pinned);
        let err = |e: penelope::error::Error| e.to_string();
        let (d6, fig6) = timed_call(t, "fig6", || experiments::fig6(scale));
        let fig6 = ops.record("fig6", check("fig6", fig6.map_err(err), pinned, check_fig6));
        let (d8, fig8) = timed_call(t, "fig8", || experiments::fig8(scale));
        let fig8 = ops.record("fig8", check("fig8", fig8.map_err(err), pinned, check_fig8));
        let (d3, table3) = timed_call(t, "table3", || experiments::table3(scale));
        let table3 = ops.record(
            "table3",
            check("table3", table3.map_err(err), pinned, check_table3),
        );
        let (d4, table4) = timed_call(t, "table4", || experiments::table4(scale));
        let table4 = ops.record(
            "table4",
            check("table4", table4.map_err(err), pinned, check_table4),
        );
        let results = match (fig6, fig8, table3, table4) {
            (Some(a), Some(b), Some(c), Some(d)) => Some((a, b, c, d)),
            _ => None,
        };
        (d6 + d8 + d3 + d4, results)
    }
}

impl Bench for PipelineBench {
    fn iteration(&mut self, t: &mut Tracer, ops: &mut Ops) -> Duration {
        let (elapsed, results) = self.calls(t, ops);
        if results.is_some() {
            self.results = results;
        }
        elapsed
    }

    fn finish(&mut self, ops: &mut Ops) -> u64 {
        // The drivers return no cycle counts: one more iteration with the
        // program's recorder installed counts simulated cycles and retired
        // uops. Telemetry only observes, so the results must not change.
        recorder::install(Settings::default());
        let (_, rerun) = self.calls(&mut Tracer::new(false), &mut Ops::default());
        let collector = recorder::finish();
        let scale = self.scale;
        let generated =
            PIPELINE_PASSES * scale.workload().len() as u64 * scale.uops_per_trace as u64;
        let retire = match collector {
            None => Err("the recorder vanished".to_string()),
            Some(c) if c.total_uops != generated => Err(format!(
                "{} uops retired of {generated} generated",
                c.total_uops
            )),
            Some(_) if rerun.as_ref().map(digest) != self.results.as_ref().map(digest) => {
                Err("results changed with the recorder installed".to_string())
            }
            Some(c) => Ok(c.total_cycles),
        };
        let cycles = ops.record("retire", retire);
        if let Some((fig6, _, _, table4)) = &self.results {
            eprintln!(
                "  reference: table4 NBTIefficiency {:.3} simulated vs 1.28 in the paper \
                 (1.267 at standard scale in EXPERIMENTS.md)",
                table4.efficiency
            );
            eprintln!(
                "  reference: fig6 worst INT bias under ISV {:.1}% simulated vs 48.5% in the paper",
                100.0 * fig6.int_isv_worst()
            );
        }
        eprintln!(
            "  note: every driver run starts with empty simulated caches (cold DL0, DTLB \
             and BTB); no cache warm-up is simulated, and traces are {} uops long",
            scale.uops_per_trace
        );
        cycles.unwrap_or(0)
    }
}

fn check_fig6(f: &Fig6) -> Result<(), String> {
    for (what, bias) in [
        ("int_baseline", &f.int_baseline),
        ("int_isv", &f.int_isv),
        ("fp_baseline", &f.fp_baseline),
        ("fp_isv", &f.fp_isv),
    ] {
        if bias.is_empty() {
            return Err(format!("{what} has no bits"));
        }
        for &b in bias.iter() {
            unit_interval(what, b)?;
        }
    }
    unit_interval("int_free", f.int_free)?;
    unit_interval("fp_free", f.fp_free)?;
    unit_interval("int_port_rate", f.int_port_rate)?;
    unit_interval("fp_port_rate", f.fp_port_rate)
}

fn check_fig8(f: &Fig8) -> Result<(), String> {
    if f.rows.is_empty() {
        return Err("no bits".into());
    }
    for row in &f.rows {
        unit_interval("baseline bias", row.baseline)?;
        unit_interval("protected bias", row.protected)?;
    }
    unit_interval("worst_baseline", f.worst_baseline)?;
    unit_interval("worst_protected", f.worst_protected)?;
    unit_interval("occupancy", f.occupancy)?;
    unit_interval("data_occupancy", f.data_occupancy)
}

fn check_table3(t: &Table3) -> Result<(), String> {
    if t.rows.len() != 9 {
        return Err(format!("{} rows, expected 9", t.rows.len()));
    }
    for row in &t.rows {
        for loss in [row.set_fixed, row.line_fixed, row.line_dynamic] {
            if !(loss.is_finite() && loss >= 0.0) {
                return Err(format!("{}: loss {loss}", row.label));
            }
        }
    }
    Ok(())
}

fn check_table4(t: &Table4) -> Result<(), String> {
    if t.blocks.len() != 5 {
        return Err(format!("{} blocks, expected 5", t.blocks.len()));
    }
    for x in [t.combined_cpi, t.efficiency, t.baseline_efficiency] {
        if !(x.is_finite() && x > 0.0) {
            return Err(format!("non-positive figure {x}"));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------- sweep

struct SweepBench {
    scale: Scale,
    config: FleetConfig,
    header: JournalHeader,
    journal: PathBuf,
    pinned: bool,
    cycles: u64,
    summary: Option<FleetSummary>,
}

impl SweepBench {
    fn setup(seed: u64, size: &Size, work_dir: &Path) -> Result<Self, String> {
        let scale = Scale {
            traces_per_suite: 1,
            uops_per_trace: size.profile_uops + jitter(seed, 0x5EE9),
            time_scale: 1_000,
        };
        let config = FleetConfig {
            fleet_size: size.fleet_cells * INSTANCES_PER_CELL,
            variation_sigma: 0.08,
            seed: derived(seed, 0xF1EE, 0x00F1_EE70),
        };
        config.validate().map_err(|e| e.to_string())?;
        par::set_jobs(par::available_parallelism());
        let policy = par::supervisor();
        let header = JournalHeader {
            binary: "fleet".to_string(),
            scale: scale_json(&scale),
            fault_seed: 0,
            retries: policy.retries,
            cell_budget: policy.cycle_budget,
        };
        Ok(SweepBench {
            scale,
            config,
            header,
            journal: work_dir.join("sweep-journal.jsonl"),
            pinned: seed == DEFAULT_SEED,
            cycles: 0,
            summary: None,
        })
    }

    /// The `fleet --json --checkpoint` path: recorder installed, journal
    /// armed, sweep, then the report built and validated. Returns the
    /// summary and the report's simulated (cycles, uops).
    fn fleet_run(
        &self,
        t: &mut Tracer,
    ) -> (Result<FleetSummary, String>, Result<(u64, u64), String>) {
        recorder::install(Settings::default());
        recorder::manifest_entry("binary", Json::from("fleet"));
        let summary = match CheckpointContext::create(&self.journal, &self.header) {
            Ok(context) => {
                par::set_checkpoint(Some(context));
                let summary = t.span("call.fleet", |_| fleet::fleet(self.scale, self.config));
                par::set_checkpoint(None);
                summary.map_err(|e| e.to_string())
            }
            Err(e) => Err(e.to_string()),
        };
        let status = if summary.is_ok() { "ok" } else { "error" };
        recorder::manifest_entry("status", Json::from(status));
        let report = t.span("call.report", |_| -> Result<(u64, u64), String> {
            let collector = recorder::finish().ok_or("the recorder vanished")?;
            validate_report(&build_report(&collector))?;
            Ok((collector.total_cycles, collector.total_uops))
        });
        (summary, report)
    }
}

impl Bench for SweepBench {
    fn iteration(&mut self, t: &mut Tracer, ops: &mut Ops) -> Duration {
        let started = Instant::now();
        let (summary, report) = self.fleet_run(t);
        let elapsed = started.elapsed();
        let fleet_size = self.config.fleet_size;
        let summary = check("fleet", summary, self.pinned, |s: &FleetSummary| {
            let sketch = &s.sketch;
            if sketch.instances != fleet_size {
                return Err(format!("{} of {fleet_size} instances", sketch.instances));
            }
            for (what, metric) in [
                ("guardband", &sketch.guardband),
                ("duty", &sketch.duty),
                ("vmin", &sketch.vmin),
            ] {
                if metric.moments.count != fleet_size || !metric.moments.mean.is_finite() {
                    return Err(format!("the {what} sketch is incomplete"));
                }
            }
            sketch
                .worst
                .map(|_| ())
                .ok_or_else(|| "no worst core".to_string())
        });
        if let Some(summary) = ops.record("fleet", summary) {
            self.summary = Some(summary);
        }
        // Every uop of the profile phase retires, and the report validates.
        let generated = Suite::ALL.len() as u64
            * self.scale.traces_per_suite as u64
            * self.scale.uops_per_trace as u64;
        let report = report.and_then(|(cycles, uops)| {
            if uops == generated {
                Ok(cycles)
            } else {
                Err(format!("{uops} uops retired of {generated} generated"))
            }
        });
        if let Some(cycles) = ops.record("report", report) {
            self.cycles = cycles;
        }
        elapsed
    }

    fn finish(&mut self, ops: &mut Ops) -> u64 {
        // The last iteration's journal must resume: every cell restores,
        // and the resumed sweep reproduces the uninterrupted summary.
        let cells = Suite::ALL.len() + self.config.fleet_size.div_ceil(INSTANCES_PER_CELL) as usize;
        let resumed = CheckpointContext::resume(&self.journal, &self.header)
            .map_err(|e| e.to_string())
            .and_then(|context| {
                if context.restored_cells() != cells {
                    return Err(format!(
                        "the journal restored {} of {cells} cells",
                        context.restored_cells()
                    ));
                }
                par::set_checkpoint(Some(context));
                recorder::install(Settings::default());
                let again = fleet::fleet(self.scale, self.config);
                par::set_checkpoint(None);
                let _ = recorder::finish();
                match again {
                    Ok(again) if Some(&again) == self.summary.as_ref() => Ok(()),
                    Ok(_) => Err("the resumed sweep differs from the uninterrupted one".into()),
                    Err(e) => Err(e.to_string()),
                }
            });
        ops.record("journal resume", resumed);
        if let Some(s) = &self.summary {
            eprintln!(
                "  reference: fleet p99 guardband {:.2}% over {} cores, worst core in {} \
                 (a Monte Carlo extension; the paper has no fleet figure)",
                100.0 * s.sketch.guardband.histogram.quantile(0.99),
                s.config.fleet_size,
                s.worst_suite
            );
        }
        self.cycles
    }
}

// -------------------------------------------------------------- netlist

const NETLISTS: [&str; 3] = ["netlist.decoder", "netlist.multiplier", "netlist.adder"];

struct NetlistBench {
    configs: Vec<NetlistConfig>,
    pinned: bool,
    cycles: u64,
    guardbands: [f64; 3],
}

impl NetlistBench {
    fn setup(seed: u64, size: &Size) -> Result<Self, String> {
        let stimulus_seed = derived(seed, 0x571A, netlist_study::DEFAULT_STIMULUS_SEED);
        let configs: Vec<NetlistConfig> = [
            NetlistSource::Decoder,
            NetlistSource::Multiplier,
            NetlistSource::AdderExport,
        ]
        .iter()
        .map(|source| NetlistConfig {
            source: NetlistSource::Text(source.blif()),
            passes: PassConfig::default(),
            vectors: size.vectors,
            seed: stimulus_seed,
        })
        .collect();
        for config in &configs {
            config.validate().map_err(|e| e.to_string())?;
        }
        par::set_jobs(1);
        Ok(NetlistBench {
            configs,
            pinned: seed == DEFAULT_SEED,
            cycles: 0,
            guardbands: [0.0; 3],
        })
    }
}

fn check_netlist(s: &NetlistSummary, config: &NetlistConfig) -> Result<(), String> {
    let campaign: u64 = netlist_study::stimulus(s.inputs, config.vectors, config.seed)
        .iter()
        .map(|(_, hold)| hold)
        .sum();
    if s.observed_time != campaign {
        return Err(format!(
            "observed {} cycles of a {campaign}-cycle campaign",
            s.observed_time
        ));
    }
    if s.partitions.len() != config.passes.partitions {
        return Err(format!("{} partitions", s.partitions.len()));
    }
    let owned: usize = s.partitions.iter().map(|p| p.transistors).sum();
    if owned != s.transistors {
        return Err(format!(
            "partitions own {owned} of {} transistors",
            s.transistors
        ));
    }
    unit_interval("worst duty", s.worst_duty.fraction())?;
    unit_interval("duty p99", s.duty_p99)?;
    unit_interval("guardband", s.guardband)
}

impl Bench for NetlistBench {
    fn iteration(&mut self, t: &mut Tracer, ops: &mut Ops) -> Duration {
        let mut elapsed = Duration::ZERO;
        let mut cycles = 0;
        for (i, config) in self.configs.iter().enumerate() {
            let (d, summary) = timed_call(t, NETLISTS[i], || netlist_study::netlist_study(config));
            elapsed += d;
            let summary = check(
                NETLISTS[i],
                summary.map_err(|e| e.to_string()),
                self.pinned,
                |s| check_netlist(s, config),
            );
            if let Some(s) = ops.record(NETLISTS[i], summary) {
                cycles += s.observed_time;
                self.guardbands[i] = s.guardband;
            }
        }
        self.cycles = cycles;
        elapsed
    }

    fn finish(&mut self, _ops: &mut Ops) -> u64 {
        eprintln!(
            "  reference: guardbands decoder {:.1}%, multiplier {:.1}% (the model caps \
             guardbands at 20%), exported 16-bit adder {:.1}%; simulated cycles are \
             gate-level stimulus cycles",
            100.0 * self.guardbands[0],
            100.0 * self.guardbands[1],
            100.0 * self.guardbands[2]
        );
        self.cycles
    }
}
