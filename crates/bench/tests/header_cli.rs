//! The artifact header has one format: a `--stream -` run, whose stdout
//! carries the event stream, writes on stderr the same header a plain run
//! writes on stdout. Under `--stream -` stdout stays pure JSONL for a
//! faulted run too.

use std::process::Command;

use penelope_telemetry::Json;

/// The header: everything up to and including its closing blank line.
fn header_of(text: &[u8]) -> String {
    let text = String::from_utf8_lossy(text);
    let end = text
        .find("\n\n")
        .unwrap_or_else(|| panic!("no header in {text:?}"));
    text[..end + 2].to_string()
}

#[test]
fn streamed_runs_write_the_plain_header_on_stderr() {
    let run = |args: &[&str]| {
        let output = Command::new(env!("CARGO_BIN_EXE_fig1"))
            .args(["--scale", "quick"])
            .args(args)
            .output()
            .expect("fig1 runs");
        assert!(output.status.success(), "fig1 {args:?} failed: {output:?}");
        output
    };
    let plain = header_of(&run(&[]).stdout);
    assert!(
        plain.starts_with("=== Penelope reproduction: "),
        "{plain:?}"
    );
    let streamed = run(&["--stream", "-"]);
    assert_eq!(header_of(&streamed.stderr), plain);
    assert!(
        !String::from_utf8_lossy(&streamed.stdout).contains("=== Penelope reproduction"),
        "the streamed stdout stays pure JSONL"
    );
}

#[test]
fn a_completed_faulted_run_keeps_the_streamed_stdout_pure_jsonl() {
    // Seed 4's plan completes, so its efficiency table is printed.
    let output = Command::new(env!("CARGO_BIN_EXE_fig1"))
        .args(["--scale", "quick", "--faults", "4", "--stream", "-"])
        .output()
        .expect("fig1 runs");
    assert_eq!(output.status.code(), Some(1), "{output:?}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(!stdout.is_empty(), "the event stream is on stdout");
    for line in stdout.lines() {
        let event = penelope_telemetry::json::parse(line)
            .unwrap_or_else(|err| panic!("stdout line {line:?} is not JSON: {err}"));
        assert!(
            event.get("event").and_then(Json::as_str).is_some(),
            "stdout line {line:?} is not a stream event"
        );
    }
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("FAULT INJECTION ACTIVE"), "{stderr}");
    assert!(stderr.contains("NBTIefficiency"), "{stderr}");
}
