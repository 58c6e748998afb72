//! End-to-end CLI tests for `--jobs`: the flag parses strictly, reports
//! stay byte-identical across jobs settings, and a fault-injected parallel
//! run still exits nonzero with the fault reported. The `l2` binary's
//! report credits every simulated run.
//!
//! These drive the real binaries through `CARGO_BIN_EXE_*`, so they cover
//! the full path: argument parsing → recorder install → engine jobs
//! wiring → report write.

use std::process::{Command, Output};

use penelope_telemetry::{validate_report, Json};

#[path = "../../../tests/common/mod.rs"]
mod common;
use common::{canonicalize, tmp_path};

fn fig6() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fig6"))
}

fn l2() -> Command {
    Command::new(env!("CARGO_BIN_EXE_l2"))
}

fn read_report(path: &std::path::Path) -> Json {
    let raw = std::fs::read_to_string(path)
        .unwrap_or_else(|err| panic!("cannot read report {}: {err}", path.display()));
    let report = penelope_telemetry::json::parse(&raw).expect("report parses as JSON");
    validate_report(&report).expect("report matches the schema");
    report
}

fn stderr_of(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

#[test]
fn reports_are_byte_identical_across_jobs_settings() {
    let serial_path = tmp_path("fig6-jobs1.json");
    let parallel_path = tmp_path("fig6-jobs4.json");
    for (jobs, path) in [("1", &serial_path), ("4", &parallel_path)] {
        let output = fig6()
            .args(["--scale", "quick", "--jobs", jobs, "--json"])
            .arg(path)
            .output()
            .expect("fig6 binary runs");
        assert!(
            output.status.success(),
            "jobs={jobs}: {}",
            stderr_of(&output)
        );
    }
    let mut serial = read_report(&serial_path);
    let mut parallel = read_report(&parallel_path);
    canonicalize(&mut serial);
    canonicalize(&mut parallel);
    assert_eq!(
        serial.encode(),
        parallel.encode(),
        "--jobs 4 report differs from --jobs 1 outside wall-clock fields"
    );
}

#[test]
fn bad_jobs_flag_is_a_hard_error() {
    let output = fig6()
        .args(["--scale", "quick", "--jobs", "zero"])
        .output()
        .expect("fig6 binary runs");
    assert!(
        !output.status.success(),
        "a bad --jobs must not run anything"
    );
    assert!(
        stderr_of(&output).contains("positive integer"),
        "stderr: {}",
        stderr_of(&output)
    );
}

#[test]
fn jobs_flag_zero_is_a_hard_error() {
    let output = fig6()
        .args(["--scale", "quick", "--jobs", "0"])
        .output()
        .expect("fig6 binary runs");
    assert!(!output.status.success(), "--jobs 0 must not run anything");
    assert!(
        stderr_of(&output).contains("positive integer"),
        "stderr: {}",
        stderr_of(&output)
    );
}

#[test]
fn faulted_parallel_run_exits_nonzero_and_reports_the_faults() {
    let path = tmp_path("fig6-faulted-jobs4.json");
    let output = fig6()
        .args(["--faults", "5", "--jobs", "4", "--scale", "quick", "--json"])
        .arg(&path)
        .output()
        .expect("fig6 binary runs");
    assert!(
        !output.status.success(),
        "a faulted run never counts as a reproduction, at any jobs"
    );
    let stderr = stderr_of(&output);
    assert!(
        stderr.contains("FAULT INJECTION ACTIVE"),
        "stderr: {stderr}"
    );
    let report = read_report(&path);
    let manifest = report.get("manifest").expect("manifest object");
    assert_eq!(
        manifest.get("fault_seed").and_then(Json::as_u64),
        Some(5),
        "the seed that perturbed the run must be in the manifest"
    );
    assert_eq!(
        manifest.get("status").and_then(Json::as_str),
        Some("error"),
        "faulted runs report status=error"
    );
}

#[test]
fn l2_report_credits_every_simulated_run() {
    let path = tmp_path("l2-quick.json");
    let output = l2()
        .args(["--scale", "quick", "--json"])
        .arg(&path)
        .output()
        .expect("l2 binary runs");
    assert!(output.status.success(), "{}", stderr_of(&output));
    let report = read_report(&path);
    let totals = report.get("totals").expect("totals object");
    let cycles = totals.get("cycles").and_then(Json::as_u64);
    assert!(
        cycles.is_some_and(|c| c > 0),
        "l2 must credit its runs: {cycles:?}"
    );
    // Three design runs over the quick workload: 10 suites x 8,000 uops.
    assert_eq!(totals.get("uops").and_then(Json::as_u64), Some(240_000));
}
