//! The shared command-line front end for every `penelope-bench` binary.
//!
//! All thirteen binaries funnel through [`run_main`]: flag parsing, the
//! panic supervisor and — when a report path is given — the telemetry
//! recorder lifecycle. A binary's `main` is one call naming its slug,
//! artifact and paper section plus a closure running the experiment.
//!
//! Every run takes one path: one closure runs under one `catch_unwind`,
//! its outcome maps to one status and exit code, and its rendered result
//! goes to one human-readable stream (stdout, or stderr under
//! `--stream -`). `--faults` only swaps which closure runs.
//!
//! Accepted flags (shared by every binary):
//!
//! - `--scale <quick|standard|thorough>` — experiment size (default
//!   standard);
//! - `--jobs <N>` — worker threads for the parallel sweep engine
//!   (`penelope::par`); defaults to the machine's available parallelism;
//! - `--json <path>` — write a machine-readable run report (schema in
//!   `penelope-telemetry`);
//! - `--checkpoint <path>` — persist every completed sweep cell to a
//!   crash-safe journal (`penelope::journal`);
//! - `--resume` — restore completed cells from the `--checkpoint` journal
//!   instead of re-executing them; refuses corrupt or mismatched journals
//!   with a typed error;
//! - `--stream <path|->` — emit live JSONL introspection events
//!   (run/heartbeat/cell/retry/quarantine/journal-append) to a file or
//!   stdout while the run executes (`penelope_telemetry::span`); the
//!   heartbeats carry a sweep's done/total/quarantined cell counts. With
//!   `-` the human-readable output moves to stderr so stdout stays pure
//!   JSONL;
//! - `--trace <path>` — write a `chrome://tracing` span timeline of the
//!   finished run (implies the recorder, like `--json`);
//! - `--faults <seed>` — run a seeded fault plan through the efficiency
//!   pipeline in place of the experiment, on the same supervised path
//!   (always exits 1: a faulted run is never a reproduction);
//! - `-h` / `--help` — print usage and exit successfully.
//!
//! Flags are the only configuration channel, and every one is strict: a
//! malformed value exits 1 naming the flag. Every flag describes one
//! recorded execution: the experiment runs once per process. Repeated,
//! spread-aware timing is the benchmark's job (`perfbench/`), not the
//! CLI's.
//!
//! When a report path is active, drivers contribute phases/series through
//! `penelope::obs`, and the finished report is validated and written even
//! when the run fails (with `"status": "error"` in the manifest) — a
//! refused checkpoint journal included.
//! A run whose sweeps quarantined cells (see `penelope::par`) writes the
//! report with `"status": "incomplete"` and exits with code 3: the
//! partial results and the structured `quarantined: …` warnings are
//! preserved instead of aborting the whole reproduction.

use std::io::{self, Write};
use std::panic::{catch_unwind, AssertUnwindSafe, UnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;

use penelope::error::Error;
use penelope::experiments::{efficiency_summary_faulted, Scale};
use penelope::fault::FaultPlan;
use penelope::journal::{CheckpointContext, JournalHeader};
use penelope::obs::{panic_message, scale_json};
use penelope::par;
use penelope::report::render_efficiency;
use penelope_telemetry::recorder::{self, Settings};
use penelope_telemetry::{build_report, span, validate_report, Json};

/// Parses a scale name, case-insensitively and ignoring surrounding
/// whitespace. The empty string means "standard".
///
/// # Example
///
/// ```
/// assert_eq!(
///     penelope_bench::parse_scale("QUICK"),
///     Ok(penelope::experiments::Scale::quick()),
/// );
/// assert!(penelope_bench::parse_scale("enormous").is_err());
/// ```
///
/// # Errors
///
/// Returns a human-readable description of the rejected value.
pub fn parse_scale(name: &str) -> Result<Scale, String> {
    match name.trim().to_ascii_lowercase().as_str() {
        "" | "standard" => Ok(Scale::standard()),
        "quick" => Ok(Scale::quick()),
        "thorough" => Ok(Scale::thorough()),
        other => Err(format!(
            "unknown scale {other:?} (expected quick, standard or thorough)"
        )),
    }
}

/// The canonical name of a scale, for the run manifest. Scales that match
/// none of the presets (impossible through this CLI) read "custom".
fn scale_name(scale: Scale) -> &'static str {
    if scale == Scale::quick() {
        "quick"
    } else if scale == Scale::standard() {
        "standard"
    } else if scale == Scale::thorough() {
        "thorough"
    } else {
        "custom"
    }
}

/// Reports a degraded-mode fallback: on stderr for whoever is watching
/// the run, and into the run report's `warnings` array when a recorder is
/// installed (a no-op otherwise), so a batch consumer reading only the
/// JSON still learns the run did not execute as configured.
fn degraded(message: String) {
    eprintln!("{message}");
    recorder::warning(message);
}

/// Parses a worker count for the parallel sweep engine: a positive
/// integer.
///
/// # Errors
///
/// Returns a human-readable description of the rejected value.
fn parse_jobs(value: &str) -> Result<usize, String> {
    match value.trim().parse::<usize>() {
        Ok(0) | Err(_) => Err(format!(
            "invalid job count {value:?} (expected a positive integer)"
        )),
        Ok(jobs) => Ok(jobs),
    }
}

/// Parses a fault-injection seed: a decimal `u64`.
///
/// # Errors
///
/// Returns a human-readable description of the rejected value.
fn parse_fault_seed(value: &str) -> Result<u64, String> {
    value
        .trim()
        .parse::<u64>()
        .map_err(|_| format!("invalid fault seed {value:?} (expected a decimal u64 seed)"))
}

/// Writes the standard header naming the artifact being regenerated.
///
/// # Errors
///
/// Returns the stream's write error.
fn header(out: &mut dyn Write, what: &str, paper_ref: &str, scale: Scale) -> io::Result<()> {
    writeln!(out, "=== Penelope reproduction: {what} ({paper_ref}) ===")?;
    writeln!(
        out,
        "scale: {} traces/suite x {} uops, time/{}\n",
        scale.traces_per_suite, scale.uops_per_trace, scale.time_scale
    )
}

/// An experiment-specific flag a binary registers on top of the shared
/// set (e.g. the fleet driver's `--fleet-size`). Extras always take a
/// value; parsed values are handed to the experiment closure unvalidated
/// — the driver owns the parse, and a bad value is a hard error there.
#[derive(Debug, Clone, Copy)]
pub struct ExtraFlag {
    /// The flag itself, including the leading dashes (`"--fleet-size"`).
    pub flag: &'static str,
    /// The value placeholder printed in usage (`"<N>"`).
    pub value_name: &'static str,
    /// One-line help text.
    pub help: &'static str,
}

/// Command-line options shared by every bench binary.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct Args {
    scale: Option<Scale>,
    jobs: Option<usize>,
    json: Option<PathBuf>,
    checkpoint: Option<PathBuf>,
    resume: bool,
    stream: Option<PathBuf>,
    trace: Option<PathBuf>,
    faults: Option<u64>,
    help: bool,
    /// Registered experiment-specific flags, as `(flag, value)` pairs in
    /// the order they appeared (a repeated flag keeps the last value).
    extras: Vec<(String, String)>,
}

/// Parses the shared flag set with no extras registered (the common
/// case; unit tests exercise the shared flags through this entry).
#[cfg(test)]
fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<Args, String> {
    parse_args_with(args, &[])
}

/// Parses the shared flag set plus a binary's registered [`ExtraFlag`]s.
/// Pure function over the argument list so it is unit-testable;
/// `run_main_with` feeds it `std::env::args().skip(1)`.
fn parse_args_with<I: IntoIterator<Item = String>>(
    args: I,
    extra_flags: &[ExtraFlag],
) -> Result<Args, String> {
    let mut parsed = Args::default();
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        let (flag, inline) = match arg.split_once('=') {
            Some((flag, value)) => (flag.to_string(), Some(value.to_string())),
            None => (arg, None),
        };
        let mut value = |name: &str| {
            inline
                .clone()
                .or_else(|| iter.next())
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match flag.as_str() {
            "--scale" => parsed.scale = Some(named("--scale", parse_scale(&value("--scale")?))?),
            "--jobs" => parsed.jobs = Some(named("--jobs", parse_jobs(&value("--jobs")?))?),
            "--json" => {
                parsed.json = Some(named("--json", parse_report_path(&value("--json")?))?);
            }
            "--checkpoint" => parsed.checkpoint = Some(PathBuf::from(value("--checkpoint")?)),
            "--resume" => {
                if inline.is_some() {
                    return Err("--resume does not take a value".to_string());
                }
                parsed.resume = true;
            }
            "--stream" => parsed.stream = Some(PathBuf::from(value("--stream")?)),
            "--trace" => parsed.trace = Some(PathBuf::from(value("--trace")?)),
            "--faults" => {
                parsed.faults = Some(named("--faults", parse_fault_seed(&value("--faults")?))?);
            }
            "-h" | "--help" => parsed.help = true,
            other => {
                if let Some(extra) = extra_flags.iter().find(|e| e.flag == other) {
                    let v = value(extra.flag)?;
                    match parsed.extras.iter_mut().find(|(k, _)| k == extra.flag) {
                        Some((_, old)) => *old = v,
                        None => parsed.extras.push((extra.flag.to_string(), v)),
                    }
                } else {
                    return Err(format!("unknown argument {other:?} (try --help)"));
                }
            }
        }
    }
    if parsed.resume && parsed.checkpoint.is_none() && !parsed.help {
        return Err(
            "--resume requires a checkpoint journal path (--checkpoint <path>)".to_string(),
        );
    }
    Ok(parsed)
}

/// Prefixes a flag value's parse error with the flag, so the message names
/// what to fix.
fn named<T>(flag: &str, parsed: Result<T, String>) -> Result<T, String> {
    parsed.map_err(|err| format!("{flag}: {err}"))
}

fn usage_with(slug: &str, extra_flags: &[ExtraFlag]) {
    println!(
        "USAGE: {slug} [--scale <quick|standard|thorough>] [--jobs <N>] [--json <path>]\n\
         \x20               [--checkpoint <path>] [--resume] [--stream <path|->]\n\
         \x20               [--trace <path>] [--faults <seed>]\n\
         \n\
         Options:\n\
         \x20 --scale <name>      experiment size (default: standard)\n\
         \x20 --jobs <N>          worker threads for experiment sweeps (default: the\n\
         \x20                     machine's available parallelism); results are\n\
         \x20                     identical at any setting\n\
         \x20 --json <path>       write a machine-readable run report\n\
         \x20 --checkpoint <path> journal every completed sweep cell to <path> so an\n\
         \x20                     interrupted run can be resumed\n\
         \x20 --resume            restore completed cells from the checkpoint journal\n\
         \x20                     instead of re-running them (requires a checkpoint path;\n\
         \x20                     corrupt or mismatched journals are refused)\n\
         \x20 --stream <path|->   emit live JSONL introspection events (heartbeats,\n\
         \x20                     cell completions, retries, quarantines) to a file,\n\
         \x20                     or to stdout when the path is '-' (the human-readable\n\
         \x20                     output then moves to stderr)\n\
         \x20 --trace <path>      write a chrome://tracing span timeline of the run\n\
         \x20 --faults <seed>     replace the experiment with a seeded fault-injection\n\
         \x20                     run (u64 seed; always exits nonzero)\n\
         \x20 -h, --help          print this help"
    );
    if !extra_flags.is_empty() {
        println!("\nExperiment options ({slug}):");
        for extra in extra_flags {
            println!(
                "  {:<19} {}",
                format!("{} {}", extra.flag, extra.value_name),
                extra.help
            );
        }
    }
}

/// Parses a run-report path: any non-empty file path (a value with a
/// trailing separator names a directory and is rejected).
///
/// # Errors
///
/// Returns a human-readable description of the rejected value.
fn parse_report_path(value: &str) -> Result<PathBuf, String> {
    let trimmed = value.trim();
    if trimmed.is_empty() {
        return Err(format!(
            "invalid report path {value:?} (expected a file path)"
        ));
    }
    if trimmed.ends_with('/') {
        return Err(format!(
            "invalid report path {value:?} (a directory, expected a file path)"
        ));
    }
    Ok(PathBuf::from(trimmed))
}

/// How a supervised run ended: cleanly, with quarantined cells (partial
/// results preserved), or failed outright.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Pass,
    Incomplete,
    Failed,
}

impl Outcome {
    /// The tri-state stamped into the report manifest.
    fn status(self) -> &'static str {
        match self {
            Outcome::Pass => "ok",
            Outcome::Incomplete => "incomplete",
            Outcome::Failed => "error",
        }
    }

    /// The process exit code: 0 clean, 3 incomplete (quarantines), 1
    /// failed — so batch drivers can distinguish "partial but usable"
    /// from "nothing produced".
    fn exit(self) -> ExitCode {
        match self {
            Outcome::Pass => ExitCode::SUCCESS,
            Outcome::Incomplete => ExitCode::from(3),
            Outcome::Failed => ExitCode::FAILURE,
        }
    }
}

/// Runs one binary's experiment under the supervisor.
///
/// `slug` is the binary's short name (used in `--help` and the run
/// manifest), `what` the artifact being regenerated, `paper_ref` the paper
/// section. The closure receives the chosen scale and returns the rendered
/// report. Typed errors and panics are both reported to stderr with a
/// partial-results note and mapped to a nonzero exit code. With
/// `--faults <seed>` the seeded fault plan runs through the efficiency
/// pipeline in the closure's place, under the same supervisor, and the
/// outcome is then forced to failure.
///
/// With `--json <path>` the telemetry recorder is active for the whole run
/// and a validated JSON run report is written to `path` on the way out —
/// also on failure, with `"status": "error"` in its manifest.
///
/// `--jobs <N>` sets the worker count for the parallel sweep engine
/// before the experiment starts; results and reports are byte-identical
/// at any setting outside wall-clock fields.
pub fn run_main(
    slug: &str,
    what: &str,
    paper_ref: &str,
    experiment: impl FnOnce(Scale) -> Result<String, Error> + UnwindSafe,
) -> ExitCode {
    run_main_with(slug, what, paper_ref, &[], move |scale, _extras| {
        experiment(scale)
    })
}

/// [`run_main`] plus experiment-specific [`ExtraFlag`]s: the registered
/// flags parse alongside the shared set, show under their own usage
/// heading, and their `(flag, value)` pairs reach the experiment closure
/// verbatim (the driver owns value validation).
pub fn run_main_with(
    slug: &str,
    what: &str,
    paper_ref: &str,
    extra_flags: &[ExtraFlag],
    experiment: impl FnOnce(Scale, &[(String, String)]) -> Result<String, Error> + UnwindSafe,
) -> ExitCode {
    let args = match parse_args_with(std::env::args().skip(1), extra_flags) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{slug}: {message}");
            return ExitCode::FAILURE;
        }
    };
    if args.help {
        usage_with(slug, extra_flags);
        return ExitCode::SUCCESS;
    }
    let scale = args.scale.unwrap_or_else(Scale::standard);
    // `--trace` implies the recorder too: the chrome trace is rendered
    // from the same collector.
    if args.json.is_some() || args.trace.is_some() {
        recorder::install(Settings::default());
        recorder::manifest_entry("binary", Json::from(slug));
        recorder::manifest_entry("artifact", Json::from(what));
        recorder::manifest_entry("paper_ref", Json::from(paper_ref));
        recorder::manifest_entry("scale_name", Json::from(scale_name(scale)));
    }
    // The jobs count steers wall-clock only — it is deliberately kept out
    // of the manifest so reports stay byte-identical across --jobs
    // settings (the determinism contract in `penelope::par`).
    par::set_jobs(args.jobs.unwrap_or_else(par::available_parallelism));
    // The human-readable output (header and result) goes to one stream:
    // stdout, or stderr when the event stream takes stdout, so that stdout
    // stays pure, machine-parseable JSONL.
    let stream_to_stdout = args
        .stream
        .as_ref()
        .is_some_and(|path| path.as_os_str() == "-");
    let mut human: Box<dyn Write> = if stream_to_stdout {
        Box::new(io::stderr())
    } else {
        Box::new(io::stdout())
    };
    if let Err(err) = header(&mut *human, what, paper_ref, scale) {
        eprintln!("error: cannot write the header: {err}");
        return conclude(slug, &args, Outcome::Failed);
    }

    let plan = args.faults.map(FaultPlan::random);
    if let Some(path) = &args.checkpoint {
        // The fault seed and the supervisor policy are stamped into the
        // header: a journal written under one fault plan or retry/budget
        // regime holds results another might never have produced, so
        // resuming across them must refuse rather than silently mix them.
        // The CLI always runs the default policy.
        let policy = par::supervisor();
        let journal_header = JournalHeader {
            binary: slug.to_string(),
            scale: run_identity(&scale, &args.extras),
            fault_seed: plan.as_ref().map_or(0, |p| p.seed),
            retries: policy.retries,
            cell_budget: policy.cycle_budget,
        };
        let context = if args.resume {
            CheckpointContext::resume(path, &journal_header)
        } else {
            CheckpointContext::create(path, &journal_header)
        };
        match context {
            Ok(context) => {
                if args.resume {
                    eprintln!(
                        "{slug}: resuming from {} ({} completed cell(s) restored)",
                        path.display(),
                        context.restored_cells()
                    );
                }
                par::set_checkpoint(Some(context));
            }
            Err(err) => {
                degraded(format!("{slug}: {err}"));
                return conclude(slug, &args, Outcome::Failed);
            }
        }
    }

    // Arm the live event stream last, so its run-start event carries the
    // fully resolved configuration. `-` streams to stdout for piping into
    // `jq`-style consumers; a file that cannot be created degrades the
    // run (warning on stderr and in the report) instead of failing it.
    let stream: Option<Box<dyn Write + Send>> = match &args.stream {
        Some(_) if stream_to_stdout => Some(Box::new(io::stdout())),
        Some(path) => match std::fs::File::create(path) {
            Ok(file) => Some(Box::new(file)),
            Err(err) => {
                degraded(format!(
                    "cannot open event stream {}: {err}; streaming disabled",
                    path.display()
                ));
                None
            }
        },
        None => None,
    };
    let streaming = stream.is_some();
    if streaming {
        span::set_stream(stream);
        span::stream_event(
            "run-start",
            &[
                ("binary", Json::from(slug)),
                ("artifact", Json::from(what)),
                ("scale", Json::from(scale_name(scale))),
            ],
        );
    }

    // A fault plan replaces the experiment: the seeded plan runs through
    // the efficiency pipeline, on the same supervised path as any run.
    if let Some(plan) = &plan {
        recorder::manifest_entry("fault_seed", Json::from(plan.seed));
        eprintln!(
            "{what}: FAULT INJECTION ACTIVE (seed {}, {:?}) — robustness \
             exercise, not a reproduction",
            plan.seed, plan.kinds
        );
    }
    let run = || match &plan {
        Some(plan) => efficiency_summary_faulted(scale, plan).map(|rows| render_efficiency(&rows)),
        None => experiment(scale, &args.extras),
    };
    let mut outcome = match catch_unwind(AssertUnwindSafe(run)) {
        Ok(Ok(rendered)) => match human
            .write_all(rendered.as_bytes())
            .and_then(|()| human.flush())
        {
            Ok(()) => Outcome::Pass,
            Err(err) => {
                eprintln!("{what}: cannot write the result: {err}");
                Outcome::Failed
            }
        },
        Ok(Err(err @ Error::Quarantined { .. })) => {
            eprintln!("{what}: experiment incomplete: {err}");
            eprintln!(
                "{what}: quarantined cells are recorded in the report's \
                 warnings; completed cells were preserved"
            );
            Outcome::Incomplete
        }
        Ok(Err(err)) => {
            eprintln!("{what}: experiment failed: {err}");
            eprintln!("{what}: no results were produced");
            Outcome::Failed
        }
        Err(payload) => {
            // `degraded` lands the payload message in the report's
            // warnings array too, not just on stderr.
            degraded(format!(
                "{what}: experiment PANICKED: {} — partial results lost; \
                 this is a bug in the harness",
                panic_message(&*payload)
            ));
            Outcome::Failed
        }
    };
    if plan.is_some() {
        eprintln!("{what}: fault injection was active, so the run is not a reproduction");
        outcome = Outcome::Failed;
    }
    par::set_checkpoint(None);
    if streaming {
        span::stream_event("run-end", &[("status", Json::from(outcome.status()))]);
        if let Some(fault) = span::take_stream_fault() {
            degraded(fault);
        }
        span::set_stream(None);
    }
    conclude(slug, &args, outcome)
}

/// The one way out of a run: writes the requested outputs stamped with the
/// outcome's status, and maps the outcome to the exit code — or to failure
/// when an output cannot be written.
fn conclude(slug: &str, args: &Args, outcome: Outcome) -> ExitCode {
    match write_outputs(
        slug,
        args.json.as_deref(),
        args.trace.as_deref(),
        outcome.status(),
    ) {
        Ok(()) => outcome.exit(),
        Err(message) => {
            eprintln!("{slug}: {message}");
            ExitCode::FAILURE
        }
    }
}

/// The journal's `scale` identity: the scale encoding plus, only when the
/// binary was given extra flags, an `args` object of their values keyed
/// by flag name (dashes dropped, sorted). Extras such as `--vectors` or
/// `--variation-sigma` change what every cell computes, so a journal
/// written under one set must refuse to resume under another. Runs
/// without extras keep the plain scale encoding, and so the journal bytes
/// they always had.
fn run_identity(scale: &Scale, extras: &[(String, String)]) -> Json {
    let mut identity = scale_json(scale);
    if !extras.is_empty() {
        let mut sorted: Vec<(&str, &str)> = extras
            .iter()
            .map(|(flag, value)| (flag.trim_start_matches('-'), value.trim()))
            .collect();
        sorted.sort_unstable();
        let mut args = Json::object();
        for (flag, value) in sorted {
            args.set(flag, Json::from(value));
        }
        identity.set("args", args);
    }
    identity
}

/// Detaches the recorder, stamps the run status ("ok", "incomplete" or
/// "error"), and writes whichever outputs were requested: the validated
/// JSON run report (`--json`) and/or the chrome://tracing span timeline
/// (`--trace`), both newline-terminated.
fn write_outputs(
    slug: &str,
    report: Option<&std::path::Path>,
    trace: Option<&std::path::Path>,
    status: &str,
) -> Result<(), String> {
    if report.is_none() && trace.is_none() {
        return Ok(());
    }
    recorder::manifest_entry("status", Json::from(status));
    let collector = recorder::finish()
        .ok_or("internal error: recorder vanished before the outputs were written")?;
    if let Some(path) = report {
        let report = build_report(&collector);
        validate_report(&report).map_err(|err| format!("built an invalid report: {err}"))?;
        let mut encoded = report.encode();
        encoded.push('\n');
        std::fs::write(path, encoded)
            .map_err(|err| format!("cannot write report to {}: {err}", path.display()))?;
        eprintln!("{slug}: run report written to {}", path.display());
    }
    if let Some(path) = trace {
        let mut encoded = penelope_telemetry::chrome_trace(&collector).encode();
        encoded.push('\n');
        std::fs::write(path, encoded)
            .map_err(|err| format!("cannot write chrome trace to {}: {err}", path.display()))?;
        eprintln!("{slug}: chrome trace written to {}", path.display());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_scale_accepts_all_names_case_insensitively() {
        assert_eq!(parse_scale("quick"), Ok(Scale::quick()));
        assert_eq!(parse_scale("Quick"), Ok(Scale::quick()));
        assert_eq!(parse_scale("THOROUGH"), Ok(Scale::thorough()));
        assert_eq!(parse_scale(" standard "), Ok(Scale::standard()));
        assert_eq!(parse_scale(""), Ok(Scale::standard()));
    }

    #[test]
    fn parse_scale_rejects_unknown_names_with_context() {
        let err = parse_scale("enormous").unwrap_err();
        assert!(err.contains("enormous"));
        assert!(err.contains("quick"));
    }

    #[test]
    fn scale_names_round_trip() {
        for name in ["quick", "standard", "thorough"] {
            assert_eq!(scale_name(parse_scale(name).unwrap()), name);
        }
    }

    #[test]
    fn args_parse_both_flag_styles() {
        let parsed = parse_args(strings(&[
            "--scale", "quick", "--jobs", "4", "--json", "out.json",
        ]))
        .unwrap();
        assert_eq!(parsed.scale, Some(Scale::quick()));
        assert_eq!(parsed.jobs, Some(4));
        assert_eq!(parsed.json, Some(PathBuf::from("out.json")));
        assert!(!parsed.help);

        let parsed = parse_args(strings(&[
            "--scale=thorough",
            "--jobs=2",
            "--json=r/x.json",
        ]))
        .unwrap();
        assert_eq!(parsed.scale, Some(Scale::thorough()));
        assert_eq!(parsed.jobs, Some(2));
        assert_eq!(parsed.json, Some(PathBuf::from("r/x.json")));

        let parsed = parse_args(strings(&["--faults", "7"])).unwrap();
        assert_eq!(parsed.faults, Some(7));
    }

    #[test]
    fn jobs_parse_strictly() {
        assert_eq!(parse_jobs("1"), Ok(1));
        assert_eq!(parse_jobs(" 16 "), Ok(16));
        for bad in ["0", "-1", "two", "1.5", ""] {
            let err = parse_jobs(bad).unwrap_err();
            assert!(err.contains("positive integer"), "{bad:?}: {err}");
        }
        // The flag is strict: a bad --jobs is a parse error, not a warning.
        assert!(parse_args(strings(&["--jobs", "zero"]))
            .unwrap_err()
            .contains("positive integer"));
    }

    #[test]
    fn args_reject_unknown_flags_and_missing_values() {
        assert!(parse_args(strings(&["--frobnicate"]))
            .unwrap_err()
            .contains("unknown argument"));
        assert!(parse_args(strings(&["--json"]))
            .unwrap_err()
            .contains("requires a value"));
        assert!(parse_args(strings(&["--scale", "enormous"]))
            .unwrap_err()
            .contains("enormous"));
        // Every rejected value names the flag it came from.
        for (args, flag, detail) in [
            (&["--faults", "banana"][..], "--faults", "decimal u64 seed"),
            (&["--retries", "1"][..], "--retries", "unknown argument"),
            (&["--progress"][..], "--progress", "unknown argument"),
            (&["--json", "reports/"][..], "--json", "a directory"),
        ] {
            let err = parse_args(strings(args)).unwrap_err();
            assert!(
                err.contains(flag) && err.contains(detail),
                "{args:?}: {err}"
            );
        }
    }

    #[test]
    fn help_flags_are_recognized() {
        assert!(parse_args(strings(&["-h"])).unwrap().help);
        assert!(parse_args(strings(&["--help"])).unwrap().help);
        assert!(!parse_args(strings(&[])).unwrap().help);
    }

    #[test]
    fn checkpoint_flags_parse_both_styles_and_resume_is_boolean() {
        let parsed = parse_args(strings(&["--checkpoint", "j.jsonl", "--resume"])).unwrap();
        assert_eq!(parsed.checkpoint, Some(PathBuf::from("j.jsonl")));
        assert!(parsed.resume);
        let parsed = parse_args(strings(&["--checkpoint=ckpt/run.jsonl"])).unwrap();
        assert_eq!(parsed.checkpoint, Some(PathBuf::from("ckpt/run.jsonl")));
        assert!(!parsed.resume);
        assert!(parse_args(strings(&["--resume=yes"]))
            .unwrap_err()
            .contains("does not take a value"));
        assert!(parse_args(strings(&["--checkpoint"]))
            .unwrap_err()
            .contains("requires a value"));
        assert!(parse_args(strings(&["--resume"]))
            .unwrap_err()
            .contains("--resume requires a checkpoint journal path"));
    }

    #[test]
    fn fault_seeds_parse_strictly() {
        assert_eq!(parse_fault_seed("17"), Ok(17));
        assert_eq!(parse_fault_seed(" 0 "), Ok(0));
        for bad in ["-1", "five", "1.5", "", "0x10"] {
            let err = parse_fault_seed(bad).unwrap_err();
            assert!(err.contains("decimal u64 seed"), "{bad:?}: {err}");
        }
    }

    #[test]
    fn registered_extra_flags_parse_in_both_styles_and_keep_the_last_value() {
        const EXTRAS: &[ExtraFlag] = &[ExtraFlag {
            flag: "--fleet-size",
            value_name: "<N>",
            help: "test flag",
        }];
        let parsed = parse_args_with(
            strings(&["--fleet-size", "512", "--scale", "quick"]),
            EXTRAS,
        )
        .unwrap();
        assert_eq!(
            parsed.extras,
            vec![("--fleet-size".to_string(), "512".to_string())]
        );
        assert_eq!(parsed.scale, Some(Scale::quick()));
        // Inline style, and a repeated flag overrides (last one wins, like
        // the shared flags).
        let parsed =
            parse_args_with(strings(&["--fleet-size=8", "--fleet-size=64"]), EXTRAS).unwrap();
        assert_eq!(
            parsed.extras,
            vec![("--fleet-size".to_string(), "64".to_string())]
        );
        assert!(parse_args_with(strings(&["--fleet-size"]), EXTRAS)
            .unwrap_err()
            .contains("requires a value"));
        // Registering extras must not open the door to arbitrary flags.
        assert!(parse_args_with(strings(&["--warp-factor", "9"]), EXTRAS)
            .unwrap_err()
            .contains("unknown argument"));
        // And an extra is unknown to binaries that did not register it.
        assert!(parse_args(strings(&["--fleet-size", "512"]))
            .unwrap_err()
            .contains("unknown argument"));
    }

    #[test]
    fn extra_flags_join_the_run_identity_only_when_passed() {
        let scale = Scale::quick();
        assert_eq!(run_identity(&scale, &[]), scale_json(&scale));
        let extras = |pairs: &[(&str, &str)]| -> Vec<(String, String)> {
            pairs
                .iter()
                .map(|(f, v)| (f.to_string(), v.to_string()))
                .collect()
        };
        let a = run_identity(&scale, &extras(&[("--vectors", "512"), ("--seed", "7")]));
        let b = run_identity(&scale, &extras(&[("--seed", " 7"), ("--vectors", "512")]));
        assert_eq!(a, b, "flag order and padding do not change the identity");
        assert_eq!(
            a.get("args").and_then(|args| args.get("vectors")),
            Some(&Json::from("512"))
        );
        let c = run_identity(&scale, &extras(&[("--vectors", "4096"), ("--seed", "7")]));
        assert_ne!(a, c, "a different value is a different run");
    }

    #[test]
    fn outcomes_map_to_status_and_exit_codes() {
        assert_eq!(Outcome::Pass.status(), "ok");
        assert_eq!(Outcome::Incomplete.status(), "incomplete");
        assert_eq!(Outcome::Failed.status(), "error");
        assert_eq!(Outcome::Pass.exit(), ExitCode::SUCCESS);
        assert_eq!(Outcome::Incomplete.exit(), ExitCode::from(3));
        assert_eq!(Outcome::Failed.exit(), ExitCode::FAILURE);
    }

    #[test]
    fn panic_messages_are_extracted() {
        let payload: Box<dyn std::any::Any + Send> = Box::new("static str");
        assert_eq!(panic_message(&*payload), "static str");
        let payload: Box<dyn std::any::Any + Send> = Box::new(String::from("owned"));
        assert_eq!(panic_message(&*payload), "owned");
        let payload: Box<dyn std::any::Any + Send> = Box::new(42u32);
        assert_eq!(panic_message(&*payload), "non-string panic payload");
    }

    #[test]
    fn report_writing_needs_an_installed_recorder() {
        let _ = recorder::finish();
        let err = write_outputs(
            "test",
            Some(std::path::Path::new("/nonexistent/x.json")),
            None,
            "ok",
        )
        .unwrap_err();
        assert!(err.contains("recorder"), "{err}");
        // With nothing requested there is nothing to do, recorder or not.
        write_outputs("test", None, None, "ok").unwrap();
    }

    #[test]
    fn written_reports_validate_and_carry_the_status() {
        let dir = std::env::temp_dir().join("penelope-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("report.json");
        let trace_path = dir.join("trace.json");
        recorder::install(Settings::default());
        recorder::manifest_entry("binary", Json::from("test"));
        recorder::record_run(1_000, 400);
        write_outputs("test", Some(&path), Some(&trace_path), "error").unwrap();
        let raw = std::fs::read_to_string(&path).unwrap();
        let report = penelope_telemetry::json::parse(&raw).unwrap();
        validate_report(&report).unwrap();
        assert_eq!(
            report
                .get("manifest")
                .and_then(|m| m.get("status"))
                .and_then(Json::as_str),
            Some("error")
        );
        // The chrome trace is a JSON array whose first event is the
        // process-name metadata record.
        let raw = std::fs::read_to_string(&trace_path).unwrap();
        let trace = penelope_telemetry::json::parse(&raw).unwrap();
        let events = trace.as_array().expect("chrome trace is an array");
        assert_eq!(
            events[0].get("ph").and_then(Json::as_str),
            Some("M"),
            "{:?}",
            events[0]
        );
        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(&trace_path).unwrap();
    }

    #[test]
    fn report_paths_parse_strictly() {
        assert_eq!(parse_report_path("out.json"), Ok(PathBuf::from("out.json")));
        assert_eq!(
            parse_report_path(" reports/run.json "),
            Ok(PathBuf::from("reports/run.json"))
        );
        assert!(parse_report_path("   ")
            .unwrap_err()
            .contains("expected a file path"));
        assert!(parse_report_path("reports/")
            .unwrap_err()
            .contains("a directory"));
    }

    #[test]
    fn observability_flags_parse_both_styles() {
        let parsed = parse_args(strings(&["--stream", "-", "--trace", "t.json"])).unwrap();
        assert_eq!(parsed.stream, Some(PathBuf::from("-")));
        assert_eq!(parsed.trace, Some(PathBuf::from("t.json")));
        let parsed = parse_args(strings(&["--stream=events.jsonl", "--trace=out/t.json"])).unwrap();
        assert_eq!(parsed.stream, Some(PathBuf::from("events.jsonl")));
        assert_eq!(parsed.trace, Some(PathBuf::from("out/t.json")));
        assert!(parse_args(strings(&["--stream"]))
            .unwrap_err()
            .contains("requires a value"));
        assert!(parse_args(strings(&["--trace"]))
            .unwrap_err()
            .contains("requires a value"));
    }
}
