//! Single-layer probes of the traced run: each times one public entry
//! point of one layer on its own.

use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::Instant;

use gatesim::blif;
use gatesim::passes::{self, MergedStress, PassConfig};
use nbti_model::duty::Duty;
use nbti_model::guardband::{GuardbandModel, VminModel};
use nbti_model::variation::ProcessVariation;
use penelope::experiments::Scale;
use penelope::fleet::{self, FleetConfig, FleetSketch, INSTANCES_PER_CELL};
use penelope::journal::{CellPayload, CheckpointContext, JournalHeader};
use penelope::netlist_study::{self, NetlistSource};
use penelope::obs::with_recording;
use penelope::par;
use penelope::processor::{build, PenelopeConfig};
use penelope_telemetry::recorder::{self, Settings};
use penelope_telemetry::{build_report, encode_snapshot, validate_report, Json};
use uarch::bitstats::BitResidency;
use uarch::pipeline::{NoHooks, Pipeline, PipelineConfig};

use crate::ladder::{chunks, retired, specs};
use crate::metrics::{median, Ops, Values};
use crate::spans::Tracer;
use crate::workloads::{mix64, proc_status_kb};
use crate::Size;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// A repetition count scaled down for small sizes (never below 1).
fn reps(size: &Size, n: usize) -> usize {
    (n / size.probe_divisor).max(1)
}

/// Median host seconds of `reps` runs of `body`.
fn median_time(reps: usize, mut body: impl FnMut() -> Result<(), String>) -> Result<f64, String> {
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps.max(1) {
        let started = Instant::now();
        body()?;
        times.push(started.elapsed().as_secs_f64());
    }
    Ok(median(&times))
}

/// A fleet sketch of one cell's worth of instances, as the sweep merges
/// and journals.
fn cell_sketch(seed: u64) -> FleetSketch {
    let mut sketch = FleetSketch::empty();
    for i in 0..INSTANCES_PER_CELL {
        let x = (mix64(seed ^ i) >> 11) as f64 / (1u64 << 53) as f64;
        sketch.observe(i, 0.2 * x, 0.5 + 0.5 * x, 0.1 * x);
    }
    sketch
}

/// The per-instance arithmetic of a fleet Monte Carlo cell.
fn instances(variation: &ProcessVariation, start: u64, count: u64) -> f64 {
    let (guardband, vmin) = (
        GuardbandModel::paper_calibrated(),
        VminModel::paper_calibrated(),
    );
    let mut acc = 0.0;
    for index in start..start + count {
        let nominal = Duty::saturating(0.8 + 0.15 * (index % 16) as f64 / 16.0);
        let duty = variation.vary_duty(nominal, index).cell_worst();
        acc += variation
            .vary_guardband(&guardband, index)
            .cell_guardband(duty)
            .fraction();
        acc += variation.vary_vmin(&vmin, index).vmin_increase(duty);
    }
    acc
}

/// RSS growth per live `Pipeline` that has run a short trace, so its
/// structures are touched rather than only reserved.
pub fn bytes_per_instance(seed: u64, size: &Size, ops: &mut Ops, values: &mut Values) {
    let n = reps(size, 32);
    let spec = specs(seed)[0];
    let result = proc_status_kb("VmRSS:").and_then(|before| {
        let mut live = Vec::with_capacity(n);
        for _ in 0..n {
            let mut pipe = Pipeline::try_new(PipelineConfig::default()).map_err(err)?;
            retired(&pipe.run_chunked(chunks(&spec, 2_000), &mut NoHooks), 2_000)?;
            live.push(pipe);
        }
        let after = proc_status_kb("VmRSS:")?;
        black_box(&live);
        Ok(after.saturating_sub(before) as f64 * 1024.0 / n as f64)
    });
    if let Some(bytes) = ops.record("probe bytes_per_instance", result) {
        values.set("uarch.pipeline.bytes_per_instance", bytes);
    }
}

pub fn run_all(
    seed: u64,
    size: &Size,
    work_dir: &Path,
    tracer: &mut Tracer,
    ops: &mut Ops,
    values: &mut Values,
) {
    tracer.span("probe.bitstats", |_| bitstats(seed, size, ops, values));
    tracer.span("probe.jobs_slowdown", |_| {
        jobs_slowdown(seed, size, ops, values)
    });
    tracer.span("probe.telemetry", |_| telemetry(seed, size, ops, values));
    tracer.span("probe.par", |_| par_engine(size, ops, values));
    tracer.span("probe.journal", |_| {
        journal(seed, size, work_dir, ops, values)
    });
    tracer.span("probe.nbti_model", |_| nbti_model(seed, size, ops, values));
    tracer.span("probe.gatesim", |_| gatesim(seed, size, ops, values));
}

/// `BitResidency::record` with random values and 1–64-cycle durations.
fn bitstats(seed: u64, size: &Size, ops: &mut Ops, values: &mut Values) {
    let records = reps(size, 1 << 16);
    for (width, name) in [
        (32usize, "uarch.bitstats.ns_per_record.w32"),
        (64, "uarch.bitstats.ns_per_record.w64"),
        (80, "uarch.bitstats.ns_per_record.w80"),
    ] {
        let mask = (1u128 << width) - 1;
        let inputs: Vec<(u128, u64)> = (0..records as u64)
            .map(|i| {
                let hi = mix64(seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
                let lo = mix64(hi);
                ((((hi as u128) << 64) | lo as u128) & mask, 1 + lo % 64)
            })
            .collect();
        let seconds = median_time(5, || {
            let mut residency = BitResidency::new(width);
            for &(value, duration) in &inputs {
                residency.record(value, duration);
            }
            black_box(residency.total_time());
            Ok(())
        });
        if let Some(s) = ops.record(&format!("probe bitstats w{width}"), seconds) {
            values.set(name, s * 1e9 / records as f64);
        }
    }
}

/// ns/uop of a pipeline with one copy per core running at once, over
/// ns/uop alone: EXPERIMENTS.md blames fig6's missing `--jobs` gain on
/// memory contention between concurrent pipelines.
fn jobs_slowdown(seed: u64, size: &Size, ops: &mut Ops, values: &mut Values) {
    let spec = specs(seed)[0];
    let uops = size.ladder_uops;
    let one = move || -> Result<f64, String> {
        let started = Instant::now();
        let mut pipe = Pipeline::try_new(PipelineConfig::default()).map_err(err)?;
        retired(&pipe.run_chunked(chunks(&spec, uops), &mut NoHooks), uops)?;
        Ok(started.elapsed().as_secs_f64())
    };
    let threads = par::available_parallelism();
    let result = (0..3)
        .map(|_| one())
        .collect::<Result<Vec<f64>, String>>()
        .and_then(|alone| {
            let barrier = Barrier::new(threads);
            let together = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..threads)
                    .map(|_| {
                        scope.spawn(|| {
                            barrier.wait();
                            (0..3).map(|_| one()).collect::<Result<Vec<f64>, String>>()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| {
                        h.join()
                            .map_err(|_| "a probe thread panicked".to_string())?
                    })
                    .collect::<Result<Vec<Vec<f64>>, String>>()
            })?;
            let together: Vec<f64> = together.into_iter().flatten().collect();
            Ok(median(&together) / median(&alone))
        });
    if let Some(ratio) = ops.record("probe jobs_slowdown", result) {
        values.set("uarch.pipeline.jobs_slowdown", ratio);
    }
}

/// The snapshot one recorded pipeline cell hands the sweep merge, and the
/// run report built from a small recorded fleet sweep.
fn telemetry(seed: u64, size: &Size, ops: &mut Ops, values: &mut Values) {
    let spec = specs(seed)[0];
    let uops = size.ladder_uops;
    recorder::install(Settings::default());
    let (run, snapshot) = recorder::worker_handle().record_cell(|| -> Result<(), String> {
        let (mut pipe, mut hooks) = build(&PenelopeConfig::default()).map_err(err)?;
        let run = with_recording(&mut hooks, |mut h| {
            pipe.run_chunked(chunks(&spec, uops), &mut h)
        });
        recorder::record_run(run.cycles, run.uops);
        retired(&run, uops)
    });
    let _ = recorder::finish();
    let encoded = run.and_then(|()| {
        let snapshot = snapshot.ok_or("no snapshot was recorded")?;
        let seconds = median_time(reps(size, 20), || {
            black_box(encode_snapshot(&snapshot));
            Ok(())
        })?;
        Ok((
            seconds * 1e6,
            encode_snapshot(&snapshot).encode().len() as f64,
        ))
    });
    if let Some((us, bytes)) = ops.record("probe telemetry.snapshot", encoded) {
        values.set("telemetry.snapshot.encode_us", us);
        values.set("telemetry.snapshot.bytes", bytes);
    }

    let scale = Scale {
        traces_per_suite: 1,
        uops_per_trace: (uops / 10).max(100),
        time_scale: 1_000,
    };
    let config = FleetConfig {
        fleet_size: reps(size, 64) as u64 * INSTANCES_PER_CELL,
        variation_sigma: 0.08,
        seed: mix64(seed),
    };
    par::set_jobs(1);
    recorder::install(Settings::default());
    let summary = fleet::fleet(scale, config);
    let collector = recorder::finish();
    let report = summary.map_err(err).and_then(|_| {
        let collector = collector.ok_or("the recorder vanished")?;
        let seconds = median_time(reps(size, 10), || {
            black_box(build_report(&collector));
            Ok(())
        })?;
        let report = build_report(&collector);
        validate_report(&report)?;
        Ok((seconds * 1e3, report.encode().len() as f64))
    });
    if let Some((ms, bytes)) = ops.record("probe telemetry.report", report) {
        values.set("telemetry.report.build_ms", ms);
        values.set("telemetry.report.bytes", bytes);
    }
}

/// The sweep engine's own cost, from empty cells through
/// `run_cells_named`, and how busy its workers stay on fleet-sized cells.
fn par_engine(size: &Size, ops: &mut Ops, values: &mut Values) {
    let cells = reps(size, 4_096);
    let nproc = par::available_parallelism();
    let per_cell_us = |jobs: usize| -> Result<f64, String> {
        par::set_jobs(jobs);
        let seconds = median_time(5, || {
            let results = par::run_cells_named("probe.par", cells, |cell| Ok(cell.index as u64));
            if results.len() == cells && results.iter().all(Result::is_ok) {
                Ok(())
            } else {
                Err("an empty cell failed".to_string())
            }
        })?;
        Ok(seconds * 1e6 / cells as f64)
    };
    let plain = per_cell_us(1);
    if let Some(us) = ops.record("probe par jobs1", plain.clone()) {
        values.set("penelope.par.us_per_cell.jobs1", us);
    }
    if let Some(us) = ops.record("probe par jobsN", per_cell_us(nproc)) {
        values.set("penelope.par.us_per_cell.jobsN", us);
    }
    // With a recorder installed every cell runs under a private recorder
    // whose snapshot the engine merges in cell order.
    recorder::install(Settings::default());
    let recorded = per_cell_us(1);
    let _ = recorder::finish();
    let merge = recorded.and_then(|r| plain.map(|p| r - p));
    if let Some(us) = ops.record("probe par merge", merge) {
        values.set("penelope.par.merge_us_per_cell", us);
    }

    let work_cells = reps(size, 512);
    let busy_ns = AtomicU64::new(0);
    par::set_jobs(nproc);
    let busy = ProcessVariation::new(0.08, 1)
        .map_err(err)
        .and_then(|variation| {
            let started = Instant::now();
            let results = par::run_cells_named("probe.busy", work_cells, |cell| {
                let cell_started = Instant::now();
                let first = cell.index as u64 * INSTANCES_PER_CELL;
                let acc = instances(&variation, first, INSTANCES_PER_CELL);
                busy_ns.fetch_add(cell_started.elapsed().as_nanos() as u64, Ordering::Relaxed);
                Ok(acc.to_bits())
            });
            let wall_ns = started.elapsed().as_nanos() as f64;
            if !results.iter().all(Result::is_ok) {
                return Err("a fleet-sized cell failed".to_string());
            }
            let workers = nproc.min(work_cells) as f64;
            Ok(busy_ns.load(Ordering::Relaxed) as f64 / (workers * wall_ns))
        });
    if let Some(frac) = ops.record("probe par busy", busy) {
        values.set("penelope.par.worker_busy_frac", frac);
    }
}

/// Bytes the calling thread hands to `write(2)` while `body` runs: the
/// change in `wchar` of `/proc/thread-self/io`. Per thread, so writes by
/// other threads of the process do not count.
fn bytes_written_by(body: impl FnOnce() -> Result<(), String>) -> Result<u64, String> {
    fn wchar() -> Result<u64, String> {
        let io = std::fs::read_to_string("/proc/thread-self/io")
            .map_err(|e| format!("cannot read /proc/thread-self/io: {e}"))?;
        io.lines()
            .find_map(|line| line.strip_prefix("wchar:"))
            .and_then(|n| n.trim().parse().ok())
            .ok_or_else(|| "/proc/thread-self/io has no wchar field".to_string())
    }
    let before = wchar()?;
    body()?;
    Ok(wchar()? - before)
}

/// `CheckpointContext::append` as the journal grows, and the bytes each
/// append writes. Each append rewrites the whole file, so both rise with
/// the record count; an appending journal would write one record each.
fn journal(seed: u64, size: &Size, work_dir: &Path, ops: &mut Ops, values: &mut Values) {
    const AT: [(usize, &str); 3] = [
        (16, "penelope.journal.append_us.r16"),
        (128, "penelope.journal.append_us.r128"),
        (512, "penelope.journal.append_us.r512"),
    ];
    const WINDOW: usize = 8;
    let path = work_dir.join("probe-journal.jsonl");
    let lengths: Vec<usize> = AT
        .iter()
        .map(|(n, _)| (n / size.probe_divisor).max(1))
        .collect();
    let total = lengths[2] + WINDOW;
    let policy = par::supervisor();
    let header = JournalHeader {
        binary: "perfbench-probe".to_string(),
        scale: Json::object(),
        fault_seed: 0,
        retries: policy.retries,
        cell_budget: policy.cycle_budget,
    };
    // A record like the sweep's: one cell's sketch and its snapshot.
    let payload = cell_sketch(seed).to_payload();
    recorder::install(Settings::default());
    let (_, snapshot) = recorder::worker_handle().record_cell(|| {
        let _span = penelope_telemetry::span!("fleet:mc cell 0");
    });
    let _ = recorder::finish();
    let result = CheckpointContext::create(&path, &header)
        .map_err(err)
        .and_then(|context| {
            let mut times = Vec::with_capacity(total);
            let written = bytes_written_by(|| {
                for record in 1..=total {
                    let started = Instant::now();
                    context.append("probe", record, payload.clone(), snapshot.as_ref());
                    times.push(started.elapsed().as_secs_f64());
                }
                Ok(())
            })?;
            if let Some(fault) = context.take_fault() {
                return Err(fault);
            }
            // The appends that grow the journal from n to n + WINDOW records.
            let at = |n: usize| median(&times[n - 1..n - 1 + WINDOW]) * 1e6;
            Ok((
                [at(lengths[0]), at(lengths[1]), at(lengths[2])],
                written as f64 / total as f64,
            ))
        });
    let _ = std::fs::remove_file(&path);
    if let Some((us, bytes)) = ops.record("probe journal", result) {
        for ((_, name), value) in AT.iter().zip(us) {
            values.set(name, value);
        }
        values.set("penelope.journal.bytes_written_per_record", bytes);
    }
}

/// Per-instance process-variation arithmetic, and one fleet-sketch merge.
fn nbti_model(seed: u64, size: &Size, ops: &mut Ops, values: &mut Values) {
    let n = reps(size, 65_536) as u64;
    let per_instance = ProcessVariation::new(0.08, seed)
        .map_err(err)
        .and_then(|variation| {
            median_time(5, || {
                black_box(instances(&variation, 0, n));
                Ok(())
            })
        });
    if let Some(s) = ops.record("probe nbti_model", per_instance) {
        values.set("nbti_model.ns_per_instance", s * 1e9 / n as f64);
    }
    let cell = cell_sketch(seed);
    let merges = reps(size, 100_000);
    let merge = median_time(5, || {
        let mut fleet = FleetSketch::empty();
        for _ in 0..merges {
            fleet.merge(black_box(&cell));
        }
        black_box(fleet.instances);
        Ok(())
    });
    if let Some(s) = ops.record("probe sketch merge", merge) {
        values.set("penelope.fleet.sketch_merge_ns", s * 1e9 / merges as f64);
    }
}

/// BLIF parsing, the pass pipeline, partition accumulation and merge, and
/// stimulus synthesis, summed over the three `netlist` sources.
fn gatesim(seed: u64, size: &Size, ops: &mut Ops, values: &mut Values) {
    let vectors = reps(size, 4_096);
    let r = reps(size, 20);
    let stimulus_seed = mix64(seed);
    let result = (|| -> Result<[f64; 5], String> {
        // Seconds: parse, compile, accumulate, merge, stimulus.
        let mut sums = [0.0f64; 5];
        for source in [
            NetlistSource::Decoder,
            NetlistSource::Multiplier,
            NetlistSource::AdderExport,
        ] {
            let text = source.blif();
            sums[0] += median_time(r, || {
                blif::parse(&text)
                    .map(|model| {
                        black_box(model);
                    })
                    .map_err(err)
            })?;
            let mut compile_times = Vec::with_capacity(r);
            let mut compiled = None;
            for _ in 0..r {
                let netlist = blif::parse(&text).map_err(err)?.into_netlist();
                let started = Instant::now();
                let c = passes::compile(netlist, &PassConfig::default()).map_err(err)?;
                compile_times.push(started.elapsed().as_secs_f64());
                compiled = Some(c);
            }
            sums[1] += median(&compile_times);
            let c = compiled.ok_or("nothing was compiled")?;
            let inputs = c.netlist.inputs().len();
            sums[4] += median_time(3, || {
                black_box(netlist_study::stimulus(inputs, vectors, stimulus_seed));
                Ok(())
            })?;
            let campaign = netlist_study::stimulus(inputs, vectors, stimulus_seed);
            let started = Instant::now();
            let cells = (0..c.partition.count())
                .map(|part| {
                    passes::accumulate_partition(
                        &c.netlist,
                        &c.table,
                        &c.partition,
                        part,
                        &campaign,
                    )
                })
                .collect::<Result<Vec<_>, _>>()
                .map_err(err)?;
            sums[2] += started.elapsed().as_secs_f64();
            sums[3] += median_time(r, || {
                MergedStress::merge(&c.table, &c.partition, &cells)
                    .map(|merged| {
                        black_box(merged);
                    })
                    .map_err(err)
            })?;
        }
        Ok(sums)
    })();
    if let Some(s) = ops.record("probe gatesim", result) {
        let per_vector = 1e9 / (3 * vectors) as f64;
        values.set("gatesim.blif.parse_us", s[0] * 1e6);
        values.set("gatesim.passes.compile_us", s[1] * 1e6);
        values.set("gatesim.passes.accumulate_ns_per_vector", s[2] * per_vector);
        values.set("gatesim.passes.merge_us", s[3] * 1e6);
        values.set(
            "penelope.netlist_study.stimulus_ns_per_vector",
            s[4] * per_vector,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    /// A whole-file rewrite per record and an append per record leave the
    /// same file, but `bytes_written_by` tells them apart.
    #[test]
    fn bytes_written_tell_a_rewrite_from_an_append() {
        const RECORDS: u64 = 40;
        let line = "x".repeat(99) + "\n";
        let dir = std::env::temp_dir().join(format!("perfbench-io-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let (rewritten, appended) = (dir.join("rewrite"), dir.join("append"));
        let rewrite = bytes_written_by(|| {
            let mut contents = String::new();
            for _ in 0..RECORDS {
                contents.push_str(&line);
                std::fs::write(&rewritten, &contents).map_err(err)?;
            }
            Ok(())
        })
        .expect("rewrite");
        let append = bytes_written_by(|| {
            let mut file = std::fs::File::create(&appended).map_err(err)?;
            for _ in 0..RECORDS {
                file.write_all(line.as_bytes()).map_err(err)?;
            }
            Ok(())
        })
        .expect("append");
        let size = |p: &Path| std::fs::metadata(p).expect("written").len();
        assert_eq!(size(&rewritten), size(&appended));
        assert_eq!(append, RECORDS * 100);
        assert_eq!(rewrite, RECORDS * (RECORDS + 1) / 2 * 100);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
