//! Integration tests for crash-safe sweeps: a checkpointed run that is
//! interrupted mid-sweep and resumed must produce a report byte-identical
//! (modulo wall-clock fields) to an uninterrupted run, at any jobs
//! setting — and a corrupted journal must refuse resume with a typed
//! error instead of panicking or silently replaying bad state.

use std::fs;
use std::path::PathBuf;

use penelope::error::Error;
use penelope::experiments::{self, Scale};
use penelope::journal::{CheckpointContext, JournalHeader};
use penelope::obs;
use penelope::par;
use penelope_telemetry::{build_report, recorder, Json};

mod common;
use common::{canonicalize, global_lock, header, settings, tmp_path, truncate_journal};

/// Runs `driver` at the given jobs setting with the given checkpoint
/// context armed (or none) and returns the canonicalized report encoding
/// plus the driver's value.
fn run_driver<T>(
    jobs: usize,
    context: Option<CheckpointContext>,
    driver: impl Fn() -> Result<T, Error>,
) -> (String, T) {
    par::set_jobs(jobs);
    par::set_checkpoint(context);
    recorder::install(settings());
    let value = driver().expect("quick-scale drivers run");
    let collector = recorder::finish().expect("recorder was installed");
    par::set_checkpoint(None);
    par::set_jobs(0);
    let mut report = build_report(&collector);
    canonicalize(&mut report);
    (report.encode(), value)
}

#[test]
fn interrupted_table3_resumes_byte_identically_at_any_jobs() {
    let _guard = global_lock();
    let (baseline_report, baseline) = run_driver(1, None, || experiments::table3(Scale::quick()));

    for jobs in [1, 4] {
        let path = tmp_path(&format!("table3-jobs{jobs}.jsonl"));

        // A clean checkpointed run must be indistinguishable from an
        // uncheckpointed one — durability adds no report noise.
        let context = CheckpointContext::create(&path, &header("table3")).expect("journal opens");
        let (full_report, full) =
            run_driver(jobs, Some(context), || experiments::table3(Scale::quick()));
        assert_eq!(full.rows, baseline.rows, "jobs={jobs}");
        assert_eq!(full_report, baseline_report, "jobs={jobs}");

        // Crash after two completed cells, then resume.
        let kept = truncate_journal(&path, 2);
        let context = CheckpointContext::resume(&path, &header("table3")).expect("resume succeeds");
        assert_eq!(context.restored_cells(), kept, "jobs={jobs}");
        let (resumed_report, resumed) =
            run_driver(jobs, Some(context), || experiments::table3(Scale::quick()));
        assert_eq!(resumed.rows, baseline.rows, "jobs={jobs}");
        assert_eq!(
            resumed_report, baseline_report,
            "resumed table3 must be byte-identical to an uninterrupted run (jobs={jobs})"
        );
    }
}

#[test]
fn interrupted_fig6_resumes_byte_identically_at_any_jobs() {
    let _guard = global_lock();
    let (baseline_report, baseline) = run_driver(1, None, || experiments::fig6(Scale::quick()));

    for jobs in [1, 4] {
        let path = tmp_path(&format!("fig6-jobs{jobs}.jsonl"));
        let context = CheckpointContext::create(&path, &header("fig6")).expect("journal opens");
        let (full_report, full) =
            run_driver(jobs, Some(context), || experiments::fig6(Scale::quick()));
        assert_eq!(full, baseline, "jobs={jobs}");
        assert_eq!(full_report, baseline_report, "jobs={jobs}");

        let kept = truncate_journal(&path, 1);
        let context = CheckpointContext::resume(&path, &header("fig6")).expect("resume succeeds");
        assert_eq!(context.restored_cells(), kept, "jobs={jobs}");
        let (resumed_report, resumed) =
            run_driver(jobs, Some(context), || experiments::fig6(Scale::quick()));
        assert_eq!(resumed, baseline, "jobs={jobs}");
        assert_eq!(
            resumed_report, baseline_report,
            "resumed fig6 must be byte-identical to an uninterrupted run (jobs={jobs})"
        );
    }
}

/// Runs `driver` checkpointed, then resumes it from the complete journal,
/// so every cell comes back through its payload decoder, at jobs 1 and 2.
/// Both runs must return the uninterrupted run's value and report.
fn resumes_from_a_complete_journal<T: PartialEq + std::fmt::Debug>(
    binary: &str,
    driver: impl Fn(Scale) -> Result<T, Error>,
) {
    let _guard = global_lock();
    let quick = || driver(Scale::quick());
    let (baseline_report, baseline) = run_driver(1, None, quick);

    for jobs in [1, 2] {
        let path = tmp_path(&format!("{binary}-complete-jobs{jobs}.jsonl"));
        let context = CheckpointContext::create(&path, &header(binary)).expect("journal opens");
        let (full_report, full) = run_driver(jobs, Some(context), quick);
        assert_eq!(full, baseline, "{binary} jobs={jobs}");
        assert_eq!(full_report, baseline_report, "{binary} jobs={jobs}");

        let records = fs::read_to_string(&path)
            .expect("journal exists")
            .lines()
            .count()
            - 1;
        assert!(records > 0, "{binary} journaled no cells");
        let context = CheckpointContext::resume(&path, &header(binary)).expect("resume succeeds");
        assert_eq!(context.restored_cells(), records, "{binary} jobs={jobs}");
        let (resumed_report, resumed) = run_driver(jobs, Some(context), quick);
        assert_eq!(resumed, baseline, "{binary} jobs={jobs}");
        assert_eq!(
            resumed_report, baseline_report,
            "{binary} resumed from a complete journal must match an uninterrupted run (jobs={jobs})"
        );
    }
}

#[test]
fn motivation_resumes_from_a_complete_journal() {
    resumes_from_a_complete_journal("motivation", experiments::motivation);
}

#[test]
fn fig5_resumes_from_a_complete_journal() {
    resumes_from_a_complete_journal("fig5", experiments::fig5);
}

#[test]
fn fig8_resumes_from_a_complete_journal() {
    resumes_from_a_complete_journal("fig8", experiments::fig8);
}

#[test]
fn efficiency_summary_resumes_from_a_complete_journal() {
    resumes_from_a_complete_journal("efficiency", experiments::efficiency_summary);
}

#[test]
fn table4_resumes_from_a_complete_journal() {
    resumes_from_a_complete_journal("table4", experiments::table4);
}

#[test]
fn vmin_extension_resumes_from_a_complete_journal() {
    resumes_from_a_complete_journal("vmin", experiments::vmin_extension);
}

#[test]
fn btb_extension_resumes_from_a_complete_journal() {
    resumes_from_a_complete_journal("btb", experiments::btb_extension);
}

#[test]
fn ablation_resumes_from_a_complete_journal() {
    resumes_from_a_complete_journal("ablation", experiments::ablation);
}

#[test]
fn table3_tail_resumes_from_a_complete_journal() {
    resumes_from_a_complete_journal("table3_tail", experiments::table3_tail);
}

/// Writes a small but fully valid journal (header + two sealed records)
/// to corrupt in the refusal tests below.
fn valid_journal(name: &str) -> PathBuf {
    let path = tmp_path(name);
    let context = CheckpointContext::create(&path, &header("fig6")).expect("journal opens");
    context.append("fig6", 0, Json::UInt(1), None);
    context.append("fig6", 1, Json::Float(0.5), None);
    assert!(context.take_fault().is_none(), "appends must succeed");
    path
}

fn resume_error(path: &PathBuf, head: &JournalHeader) -> String {
    match CheckpointContext::resume(path, head) {
        Err(Error::Journal { message }) => message,
        Ok(_) => panic!("resume must refuse a damaged journal"),
        Err(other) => panic!("expected a journal error, got {other:?}"),
    }
}

#[test]
fn a_truncated_record_refuses_resume_with_a_typed_error() {
    let path = valid_journal("corrupt-truncated.jsonl");
    let text = fs::read_to_string(&path).expect("journal exists");
    let lines: Vec<&str> = text.lines().collect();
    let last = lines[lines.len() - 1];
    let mut cut = lines[..lines.len() - 1].join("\n");
    cut.push('\n');
    cut.push_str(&last[..last.len() / 2]);
    cut.push('\n');
    fs::write(&path, cut).expect("journal is writable");
    let message = resume_error(&path, &header("fig6"));
    assert!(message.contains("resume refused"), "{message}");
    assert!(message.contains("line 3"), "{message}");
}

#[test]
fn a_flipped_hash_refuses_resume_with_a_typed_error() {
    let path = valid_journal("corrupt-hash.jsonl");
    let text = fs::read_to_string(&path).expect("journal exists");
    // Flip one hex digit of the last record's integrity hash.
    let marker = "\"hash\":\"";
    let start = text.rfind(marker).expect("records carry a hash") + marker.len();
    let mut bytes = text.into_bytes();
    bytes[start] = if bytes[start] == b'0' { b'1' } else { b'0' };
    fs::write(&path, bytes).expect("journal is writable");
    let message = resume_error(&path, &header("fig6"));
    assert!(message.contains("resume refused"), "{message}");
    assert!(message.contains("hash"), "{message}");
}

#[test]
fn a_mismatched_header_refuses_resume_with_a_typed_error() {
    let path = valid_journal("corrupt-header.jsonl");

    // Same journal, different fault seed: refuse.
    let mut wrong_seed = header("fig6");
    wrong_seed.fault_seed = 7;
    let message = resume_error(&path, &wrong_seed);
    assert!(message.contains("resume refused"), "{message}");
    assert!(message.contains("fault seed"), "{message}");

    // Same journal, different binary: refuse.
    let message = resume_error(&path, &header("table3"));
    assert!(message.contains("resume refused"), "{message}");
    assert!(message.contains("binary"), "{message}");

    // Same journal, different scale: refuse.
    let mut wrong_scale = header("fig6");
    wrong_scale.scale = obs::scale_json(&Scale::standard());
    let message = resume_error(&path, &wrong_scale);
    assert!(message.contains("resume refused"), "{message}");
    assert!(message.contains("scale"), "{message}");

    // Same journal, different supervisor policy: refuse. A journal of
    // cells that ran under `retries: 1` holds outcomes a zero-retry (or
    // budget-truncated) run might never reproduce.
    let mut wrong_retries = header("fig6");
    wrong_retries.retries = 0;
    let message = resume_error(&path, &wrong_retries);
    assert!(message.contains("resume refused"), "{message}");
    assert!(message.contains("retries"), "{message}");

    let mut wrong_budget = header("fig6");
    wrong_budget.cell_budget = Some(5_000);
    let message = resume_error(&path, &wrong_budget);
    assert!(message.contains("resume refused"), "{message}");
    assert!(message.contains("cell budget"), "{message}");
}

#[test]
fn an_empty_journal_refuses_resume_with_a_typed_error() {
    let path = tmp_path("corrupt-empty.jsonl");
    fs::write(&path, "").expect("journal is writable");
    let message = resume_error(&path, &header("fig6"));
    assert!(message.contains("resume refused"), "{message}");
}

#[test]
fn a_policy_of_the_wrong_width_refuses_resume_with_a_typed_error() {
    use penelope::journal::CellPayload;
    use penelope::sched_aware::SchedulerPolicy;
    use uarch::scheduler::Field;

    let _guard = global_lock();
    let path = tmp_path("policy-width.jsonl");
    let context = CheckpointContext::create(&path, &header("table4")).expect("journal opens");
    // A sealed record whose policy gives the 5-bit latency field 129
    // techniques: the hash holds, so only the payload decoder can refuse.
    let mut policy = SchedulerPolicy::paper_default().to_payload();
    if let Json::Array(fields) = &mut policy {
        fields[Field::Latency.index()] = Json::Array(vec![Json::Str("all1".into()); 129]);
    }
    context.append("policy-width", 0, policy, None);
    assert!(context.take_fault().is_none(), "append must succeed");

    let context =
        CheckpointContext::resume(&path, &header("table4")).expect("the journal is sound");
    par::set_jobs(1);
    par::set_checkpoint(Some(context));
    let result = par::try_cells_named("policy-width", 1, |_| Ok(SchedulerPolicy::paper_default()));
    par::set_checkpoint(None);
    par::set_jobs(0);
    match result {
        Err(Error::Journal { message }) => assert!(
            message.contains("undecodable payload") && message.contains("Latency has 129"),
            "{message}"
        ),
        Ok(_) => panic!("a policy of the wrong width must not be restored"),
        Err(other) => panic!("expected a journal error, got {other:?}"),
    }
}
