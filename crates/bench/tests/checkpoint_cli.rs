//! End-to-end CLI tests for `--checkpoint` / `--resume`: a checkpointed
//! fig6 run that loses the tail of its journal, and a fleet run SIGKILLed
//! mid-sweep, resume to reports byte-identical to the uninterrupted ones,
//! and a damaged or mismatched journal refuses resume with a clear
//! message and a nonzero exit.
//!
//! These drive the real binaries through `CARGO_BIN_EXE_*`, so they cover
//! the full durability path: flag parsing → journal create/resume →
//! engine restore/skip → deterministic merge → report write.

use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

use penelope_telemetry::{validate_report, Json};

#[path = "../../../tests/common/mod.rs"]
mod common;
use common::{canonicalize, tmp_path, truncate_journal};

fn fig6() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fig6"))
}

fn fleet() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fleet"))
}

fn netlist() -> Command {
    Command::new(env!("CARGO_BIN_EXE_netlist"))
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

fn canonical_report(path: &std::path::Path) -> String {
    let mut report = read_report(path);
    canonicalize(&mut report);
    report.encode()
}

#[test]
fn interrupted_checkpointed_run_resumes_byte_identically() {
    let plain_report = tmp_path("fig6-plain.json");
    let full_report = tmp_path("fig6-full.json");
    let resumed_report = tmp_path("fig6-resumed.json");
    let journal = tmp_path("fig6.jsonl");

    // Reference run: no checkpointing at all.
    let output = fig6()
        .args(["--scale", "quick", "--json"])
        .arg(&plain_report)
        .output()
        .expect("fig6 binary runs");
    assert!(output.status.success(), "{}", stderr_of(&output));

    // Checkpointed, uninterrupted: the journal must not leak into the
    // report — durability is free on the happy path.
    let output = fig6()
        .args(["--scale", "quick", "--checkpoint"])
        .arg(&journal)
        .args(["--json"])
        .arg(&full_report)
        .output()
        .expect("fig6 binary runs");
    assert!(output.status.success(), "{}", stderr_of(&output));
    let reference = canonical_report(&plain_report);
    assert_eq!(
        canonical_report(&full_report),
        reference,
        "a clean checkpointed run must match an uncheckpointed one"
    );

    // Crash after one completed cell, then resume at a different jobs
    // setting: still byte-identical.
    truncate_journal(&journal, 1);
    let output = fig6()
        .args([
            "--scale",
            "quick",
            "--jobs",
            "4",
            "--resume",
            "--checkpoint",
        ])
        .arg(&journal)
        .args(["--json"])
        .arg(&resumed_report)
        .output()
        .expect("fig6 binary runs");
    assert!(output.status.success(), "{}", stderr_of(&output));
    let stderr = stderr_of(&output);
    assert!(
        stderr.contains("resuming from") && stderr.contains("1 completed cell(s) restored"),
        "stderr: {stderr}"
    );
    assert_eq!(
        canonical_report(&resumed_report),
        reference,
        "an interrupted-then-resumed run must be byte-identical to an uninterrupted one"
    );
}

/// Data records (complete lines after the header) in a journal, or 0 if
/// it does not exist yet.
fn journal_records(path: &std::path::Path) -> usize {
    std::fs::read(path)
        .map(|bytes| {
            bytes
                .iter()
                .filter(|&&b| b == b'\n')
                .count()
                .saturating_sub(1)
        })
        .unwrap_or(0)
}

#[test]
fn a_fleet_run_killed_mid_sweep_resumes_byte_identically() {
    let full_report = tmp_path("fleet-full.json");
    let full_journal = tmp_path("fleet-full.jsonl");
    let killed_report = tmp_path("fleet-killed.json");
    let resumed_report = tmp_path("fleet-resumed.json");
    let journal = tmp_path("fleet-killed.jsonl");
    let args = ["--scale", "standard", "--jobs", "2"];

    let output = fleet()
        .args(args)
        .arg("--checkpoint")
        .arg(&full_journal)
        .arg("--json")
        .arg(&full_report)
        .output()
        .expect("fleet binary runs");
    assert!(output.status.success(), "{}", stderr_of(&output));
    let cells = journal_records(&full_journal);

    let mut child = fleet()
        .args(args)
        .arg("--checkpoint")
        .arg(&journal)
        .arg("--json")
        .arg(&killed_report)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("fleet binary starts");
    let deadline = Instant::now() + Duration::from_secs(60);
    while journal_records(&journal) < 3 {
        assert!(
            child.try_wait().expect("child status").is_none(),
            "fleet exited before its journal held 3 records"
        );
        assert!(Instant::now() < deadline, "journal never reached 3 records");
        std::thread::sleep(Duration::from_millis(1));
    }
    child.kill().expect("SIGKILL delivered");
    child.wait().expect("child reaped");

    let output = fleet()
        .args(args)
        .arg("--resume")
        .arg("--checkpoint")
        .arg(&journal)
        .arg("--json")
        .arg(&resumed_report)
        .output()
        .expect("fleet binary runs");
    assert!(output.status.success(), "{}", stderr_of(&output));
    let stderr = stderr_of(&output);
    let restored: usize = stderr
        .split_once("resuming from ")
        .and_then(|(_, rest)| rest.split_once(" (")?.1.split_once(' '))
        .and_then(|(count, _)| count.parse().ok())
        .unwrap_or_else(|| panic!("no restored-cell count in stderr: {stderr}"));
    assert!(
        (3..cells).contains(&restored),
        "restored {restored} of {cells} cells: the kill did not land mid-sweep"
    );
    assert_eq!(
        canonical_report(&resumed_report),
        canonical_report(&full_report),
        "a SIGKILLed-then-resumed fleet run must be byte-identical to an uninterrupted one"
    );
}

#[test]
fn a_damaged_journal_refuses_resume_with_a_clear_error() {
    let journal = tmp_path("fig6-damaged.jsonl");
    let output = fig6()
        .args(["--scale", "quick", "--checkpoint"])
        .arg(&journal)
        .output()
        .expect("fig6 binary runs");
    assert!(output.status.success(), "{}", stderr_of(&output));

    // Flip one hex digit of the last record's integrity hash.
    let text = std::fs::read_to_string(&journal).expect("journal exists");
    let marker = "\"hash\":\"";
    let start = text.rfind(marker).expect("records carry a hash") + marker.len();
    let mut bytes = text.into_bytes();
    bytes[start] = if bytes[start] == b'0' { b'1' } else { b'0' };
    std::fs::write(&journal, bytes).expect("journal is writable");

    let report_path = tmp_path("fig6-damaged.json");
    let output = fig6()
        .args(["--scale", "quick", "--resume", "--checkpoint"])
        .arg(&journal)
        .arg("--json")
        .arg(&report_path)
        .output()
        .expect("fig6 binary runs");
    assert!(
        !output.status.success(),
        "a damaged journal must refuse resume"
    );
    let stderr = stderr_of(&output);
    assert!(stderr.contains("resume refused"), "stderr: {stderr}");

    // The refusal still writes the report, marked failed and naming why.
    let report = read_report(&report_path);
    assert_eq!(
        report
            .get("manifest")
            .and_then(|m| m.get("status"))
            .and_then(Json::as_str),
        Some("error")
    );
    let warnings = report
        .get("warnings")
        .and_then(Json::as_array)
        .expect("the report has a warnings array");
    assert!(
        warnings
            .iter()
            .filter_map(Json::as_str)
            .any(|w| w.contains("resume refused")),
        "warnings: {warnings:?}"
    );
}

#[test]
fn resume_without_a_journal_path_is_a_hard_error() {
    let output = fig6()
        .args(["--scale", "quick", "--resume"])
        .output()
        .expect("fig6 binary runs");
    assert!(!output.status.success());
    let stderr = stderr_of(&output);
    assert!(
        stderr.contains("--resume requires a checkpoint journal path"),
        "stderr: {stderr}"
    );
}

#[test]
fn resuming_under_a_different_fault_seed_is_refused() {
    let journal = tmp_path("fig6-seeded.jsonl");
    let output = fig6()
        .args(["--scale", "quick", "--checkpoint"])
        .arg(&journal)
        .output()
        .expect("fig6 binary runs");
    assert!(output.status.success(), "{}", stderr_of(&output));

    let output = fig6()
        .args([
            "--faults",
            "5",
            "--scale",
            "quick",
            "--resume",
            "--checkpoint",
        ])
        .arg(&journal)
        .output()
        .expect("fig6 binary runs");
    assert!(
        !output.status.success(),
        "a fault-free journal must not resume into a faulted run"
    );
    let stderr = stderr_of(&output);
    assert!(
        stderr.contains("resume refused") && stderr.contains("fault seed"),
        "stderr: {stderr}"
    );
}

/// Runs a copied binary, retrying while the kernel still reports it busy:
/// a test thread that forks while another holds the copy open for
/// writing leaves the file busy for a moment.
fn run_copy(binary: &std::path::Path, args: &[&str], journal: &std::path::Path) -> Output {
    for _ in 0..50 {
        match Command::new(binary).args(args).arg(journal).output() {
            Err(err) if err.raw_os_error() == Some(26) => {
                std::thread::sleep(Duration::from_millis(100));
            }
            result => return result.expect("copied binary runs"),
        }
    }
    panic!("{} stayed busy", binary.display());
}

/// A journal resumes only under the build that wrote it: the header
/// stamps the FNV-1a of the executable's bytes, so a copy of the binary
/// with one byte appended refuses to resume a journal the unmodified
/// copy wrote, and the unmodified copy still resumes it.
#[test]
fn resuming_under_another_executable_is_refused() {
    let dir = tmp_path("executables");
    std::fs::create_dir_all(&dir).expect("temp dir is writable");
    let original = dir.join("fig6");
    let modified = dir.join("fig6-modified");
    for copy in [&original, &modified] {
        std::fs::copy(env!("CARGO_BIN_EXE_fig6"), copy).expect("binary copies");
    }
    {
        use std::io::Write as _;
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&modified)
            .expect("copy is writable");
        file.write_all(&[0]).expect("one byte appends");
    }
    let journal = tmp_path("fig6-executable.jsonl");
    let output = run_copy(&original, &["--scale", "quick", "--checkpoint"], &journal);
    assert!(output.status.success(), "{}", stderr_of(&output));
    truncate_journal(&journal, 1);

    let resume = ["--scale", "quick", "--resume", "--checkpoint"];
    let output = run_copy(&modified, &resume, &journal);
    assert!(
        !output.status.success(),
        "a journal must not resume under another executable"
    );
    let stderr = stderr_of(&output);
    assert!(
        stderr.contains("resume refused") && stderr.contains("executable"),
        "stderr: {stderr}"
    );

    let output = run_copy(&original, &resume, &journal);
    assert!(output.status.success(), "{}", stderr_of(&output));
    assert!(
        stderr_of(&output).contains("1 completed cell(s) restored"),
        "stderr: {}",
        stderr_of(&output)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Extra flags change what every cell computes, so they are part of the
/// journal's run identity: resuming under different values must refuse
/// instead of reporting the new flags over the old cells, while resuming
/// under the same values still restores them.
#[test]
fn resuming_under_different_extra_flags_is_refused() {
    refuses_changed_extras(
        netlist,
        "netlist-extras.jsonl",
        ["--vectors", "512"],
        ["--vectors", "4096"],
    );
    refuses_changed_extras(
        fleet,
        "fleet-extras.jsonl",
        ["--variation-sigma", "0.05"],
        ["--variation-sigma", "0.15"],
    );
}

fn refuses_changed_extras(
    binary: fn() -> Command,
    name: &str,
    written: [&str; 2],
    changed: [&str; 2],
) {
    let journal = tmp_path(name);
    let output = binary()
        .args(["--scale", "quick", "--jobs", "1"])
        .args(written)
        .arg("--checkpoint")
        .arg(&journal)
        .output()
        .expect("binary runs");
    assert!(output.status.success(), "{}", stderr_of(&output));

    let output = binary()
        .args(["--scale", "quick", "--jobs", "1", "--resume"])
        .args(changed)
        .arg("--checkpoint")
        .arg(&journal)
        .output()
        .expect("binary runs");
    assert!(
        !output.status.success(),
        "{name}: a journal written under {written:?} must not resume under {changed:?}"
    );
    let stderr = stderr_of(&output);
    assert!(stderr.contains("resume refused"), "stderr: {stderr}");

    let output = binary()
        .args(["--scale", "quick", "--jobs", "1", "--resume"])
        .args(written)
        .arg("--checkpoint")
        .arg(&journal)
        .output()
        .expect("binary runs");
    assert!(output.status.success(), "{}", stderr_of(&output));
    assert!(
        stderr_of(&output).contains("resuming from"),
        "{name}: the same flags resume"
    );
}
