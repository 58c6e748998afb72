//! The artifact header has one format: a `--stream -` run, whose stdout
//! carries the event stream, writes on stderr the same header a plain run
//! writes on stdout.

use std::process::Command;

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
