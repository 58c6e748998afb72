//! `perfbench`: the Penelope reproduction's benchmark.
//!
//! ```text
//! perfbench --workload <pipeline|sweep|netlist> --seed <n> --seconds <s> \
//!           --trace <0|1> [--work-dir <dir>]
//! ```
//!
//! Runs one workload through the libraries' public APIs, checks every
//! result, and prints as the last line of stdout one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. `--trace 0` measures the
//! end-to-end metrics; `--trace 1` is the separate traced run that records
//! the benchmark's own spans and measures the per-layer metrics (layer
//! ladder, exact work counters and single-layer probes). Progress and the
//! paper references go to stderr. See `README.md` beside this crate.

mod counting;
mod ladder;
mod metrics;
mod probes;
mod spans;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use metrics::{Ops, Values, END_TO_END, PER_LAYER};
use spans::Tracer;
use workloads::Workload;

/// How much work each part of the benchmark does.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Uops per trace of the `pipeline` drivers' `Scale`.
    pub pipeline_uops: usize,
    /// Uops per trace of the `sweep` profile phase.
    pub profile_uops: usize,
    /// Monte Carlo cells (256 instances each) of the `sweep` fleet.
    pub fleet_cells: u64,
    /// Stimulus vectors per netlist of the `netlist` workload.
    pub vectors: usize,
    /// Uops per suite trace of the layer ladder.
    pub ladder_uops: usize,
    /// Divisor applied to the probes' repetition counts.
    pub probe_divisor: usize,
    /// Fewest timed iterations (and ladder rounds) a run takes.
    pub min_samples: usize,
}

impl Size {
    pub const BENCH: Size = Size {
        pipeline_uops: 4_000,
        profile_uops: 8_000,
        fleet_cells: 1_024,
        vectors: 40_000,
        ladder_uops: 30_000,
        probe_divisor: 1,
        min_samples: 3,
    };
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    work_dir: PathBuf,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut work_dir = PathBuf::from(".bench_build/perfbench-work");
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value)?),
            "--seed" => {
                seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?);
            }
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                });
            }
            "--work-dir" => work_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        work_dir,
    })
}

/// Runs the benchmark and returns the result line.
fn run(args: &Args, size: &Size) -> Result<String, String> {
    std::fs::create_dir_all(&args.work_dir)
        .map_err(|e| format!("cannot create {}: {e}", args.work_dir.display()))?;
    let budget = Duration::from_secs_f64(args.seconds);
    let mut ops = Ops::default();
    let mut values = Values::default();
    let mut tracer = Tracer::new(args.trace);
    let mode = if args.trace {
        "traced, per-layer metrics"
    } else {
        "end-to-end metrics"
    };
    eprintln!(
        "perfbench: workload {} seed {} for {}s ({mode})",
        args.workload.name(),
        args.seed,
        args.seconds
    );

    if args.trace {
        // First, while the heap is fresh, so memory freed by earlier work
        // does not hide the growth.
        tracer.span("probe.bytes_per_instance", |_| {
            probes::bytes_per_instance(args.seed, size, &mut ops, &mut values)
        });
        let half = budget / 2;
        workloads::run(
            args.workload,
            args.seed,
            size,
            half,
            &args.work_dir,
            &mut tracer,
            &mut ops,
            &mut values,
        )?;
        ladder::run(
            args.seed,
            size,
            half,
            &args.work_dir,
            &mut tracer,
            &mut ops,
            &mut values,
        );
        probes::run_all(
            args.seed,
            size,
            &args.work_dir,
            &mut tracer,
            &mut ops,
            &mut values,
        );
        let path = args.work_dir.join(format!(
            "spans-{}-seed{}.json",
            args.workload.name(),
            args.seed
        ));
        tracer
            .write_json(&path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!(
            "perfbench: {} spans written to {}; self time by span name (top 12):",
            tracer.spans().len(),
            path.display()
        );
        for (name, own, count) in tracer.self_time_by_name().into_iter().take(12) {
            eprintln!("  {name:<40} {:>10.3} ms  x{count}", own as f64 / 1e6);
        }
    } else {
        workloads::run(
            args.workload,
            args.seed,
            size,
            budget,
            &args.work_dir,
            &mut tracer,
            &mut ops,
            &mut values,
        )?;
    }

    eprintln!(
        "perfbench: failed_frac {} ({} of {} operations failed)",
        ops.failed_frac(),
        ops.failed,
        ops.attempted
    );
    let declared = if args.trace { PER_LAYER } else { END_TO_END };
    for metric in declared {
        if let Some(value) = values.get(metric.name) {
            eprintln!(
                "  {:<56} {value:>16.6} {} ({} is better)",
                metric.name, metric.unit, metric.better
            );
        }
    }
    values.result_line(&ops, declared)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args, &Size::BENCH) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: Size = Size {
        pipeline_uops: 300,
        profile_uops: 300,
        fleet_cells: 4,
        vectors: 64,
        ladder_uops: 300,
        probe_divisor: 256,
        min_samples: 1,
    };

    /// Every workload emits each metric it declares, in both modes, with
    /// no failed operation. One test, because the sweep engine's jobs and
    /// checkpoint slots are process-wide.
    #[test]
    fn every_workload_emits_every_declared_metric() {
        let dir = std::env::temp_dir().join(format!("perfbench-test-{}", std::process::id()));
        for workload in ["pipeline", "sweep", "netlist"] {
            for trace in ["0", "1"] {
                let argv = [
                    "--workload",
                    workload,
                    "--seed",
                    "7",
                    "--seconds",
                    "0.01",
                    "--trace",
                    trace,
                    "--work-dir",
                    dir.to_str().expect("utf-8 temp dir"),
                ];
                let args = parse_args(argv.iter().map(|s| s.to_string())).expect("valid flags");
                let line = run(&args, &TINY).expect("result line");
                let parsed = penelope_telemetry::json::parse(&line).expect("JSON");
                assert_eq!(
                    parsed.get("failed").and_then(|v| v.as_u64()),
                    Some(0),
                    "{workload} trace {trace}: {line}"
                );
                let metrics = parsed
                    .get("metrics")
                    .and_then(|m| m.as_object())
                    .expect("metrics");
                let declared = if trace == "1" { PER_LAYER } else { END_TO_END };
                let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
                let want: Vec<&str> = declared.iter().map(|m| m.name).collect();
                assert_eq!(names, want, "{workload} trace {trace}");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_flags_are_refused() {
        let parse = |argv: &[&str]| parse_args(argv.iter().map(|s| s.to_string()));
        let base = [
            "--workload",
            "sweep",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
        ];
        let with = |last: &str| {
            let mut v = base.to_vec();
            v.push(last);
            parse(&v)
        };
        assert!(with("1").is_ok());
        assert!(with("2").is_err());
        assert!(parse(&["--workload", "pipeline"]).is_err());
        assert!(parse(&["--workload", "bogus", "--seed", "1"]).is_err());
        assert!(parse(&[
            "--workload",
            "sweep",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0"
        ])
        .is_err());
    }
}
