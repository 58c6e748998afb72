//! Integration tests for the sweep supervisor: retry, quarantine, the
//! cycle-budget watchdog, and the determinism of the warnings they leave
//! in the run report.
//!
//! The contract under test extends the engine's byte-identity guarantee
//! to *unhealthy* sweeps: a grid containing panicking, erroring and
//! retried cells must produce the same report (modulo wall-clock fields)
//! at `--jobs 1` and `--jobs 4`, with supervisor warnings in cell-index
//! order regardless of which worker hit the failure first.

use std::sync::atomic::{AtomicUsize, Ordering};

use penelope::error::Error;
use penelope::par::{self, SupervisorPolicy};
use penelope_telemetry::{build_report, recorder, Json};

mod common;
use common::{canonicalize, global_lock, settings};

fn warnings_of(report: &Json) -> Vec<String> {
    report
        .get("warnings")
        .and_then(Json::as_array)
        .map(|items| {
            items
                .iter()
                .filter_map(|w| w.as_str().map(str::to_string))
                .collect()
        })
        .unwrap_or_default()
}

/// Runs an unhealthy 8-cell grid — cell 2 fails once then recovers,
/// cell 5 errors persistently, cell 6 panics persistently — and returns
/// the canonicalized report plus the per-cell results.
fn unhealthy_grid(jobs: usize) -> (Json, Vec<Result<u64, Error>>) {
    par::set_jobs(jobs);
    recorder::install(settings());
    let cell_2_runs = AtomicUsize::new(0);
    let results = par::run_cells_named("sweep", 8, |cell| {
        match cell.index {
            2 if cell_2_runs.fetch_add(1, Ordering::Relaxed) == 0 => {
                return Err(Error::config("transient wobble"));
            }
            5 => return Err(Error::config("persistent fault")),
            6 => panic!("cell 6 exploded"),
            _ => {}
        }
        recorder::phase(&format!("cell {}", cell.index), || {
            recorder::record_run((cell.index as u64 + 1) * 100, cell.index as u64 + 1);
        });
        Ok(cell.index as u64)
    });
    par::set_jobs(0);
    let collector = recorder::finish().expect("recorder was installed");
    let mut report = build_report(&collector);
    canonicalize(&mut report);
    (report, results)
}

#[test]
fn supervisor_warnings_are_deterministic_and_in_cell_order() {
    let _guard = global_lock();
    let (serial_report, serial) = unhealthy_grid(1);
    let (parallel_report, parallel) = unhealthy_grid(4);

    // The exact warning stream, in cell-index order: cell 2's retry and
    // recovery, then cell 5's retry and quarantine, then cell 6's panic
    // retry and quarantine (payload message preserved).
    let expected = vec![
        "sweep cell 2: attempt 1 failed (configuration: transient wobble); retrying".to_string(),
        "sweep cell 2: recovered on attempt 2".to_string(),
        "sweep cell 5: attempt 1 failed (configuration: persistent fault); retrying".to_string(),
        "quarantined: sweep cell 5 failed after 2 attempt(s): configuration: persistent fault"
            .to_string(),
        "sweep cell 6: attempt 1 failed (worker panicked: cell 6 exploded); retrying".to_string(),
        "quarantined: sweep cell 6 failed after 2 attempt(s): worker panicked: cell 6 exploded"
            .to_string(),
    ];
    assert_eq!(warnings_of(&serial_report), expected);

    // Healthy cells returned values; sick cells returned quarantines.
    for (index, result) in serial.iter().enumerate() {
        match (index, result) {
            (5 | 6, Err(Error::Quarantined { cell, attempts, .. })) => {
                assert_eq!(*cell, index);
                assert_eq!(*attempts, 2);
            }
            (5 | 6, other) => panic!("cell {index}: expected quarantine, got {other:?}"),
            (_, Ok(value)) => assert_eq!(*value, index as u64),
            (_, Err(err)) => panic!("cell {index}: unexpected error {err}"),
        }
    }
    assert_eq!(
        serial.iter().map(|r| r.is_ok()).collect::<Vec<_>>(),
        parallel.iter().map(|r| r.is_ok()).collect::<Vec<_>>(),
    );

    // The whole report — warnings, merged telemetry from the surviving
    // cells, phase stream — is byte-identical across jobs settings.
    assert_eq!(
        serial_report.encode(),
        parallel_report.encode(),
        "an unhealthy sweep must still merge deterministically"
    );
}

#[test]
fn persistent_faults_yield_a_partial_report_not_a_panic() {
    let _guard = global_lock();
    let (report, results) = unhealthy_grid(4);

    // Quarantined cells are recorded, completed cells are preserved: the
    // report still carries the healthy cells' phases and totals.
    let quarantined = results
        .iter()
        .filter(|r| matches!(r, Err(Error::Quarantined { .. })))
        .count();
    assert_eq!(quarantined, 2);
    assert_eq!(results.iter().filter(|r| r.is_ok()).count(), 6);
    let encoded = report.encode();
    assert!(
        encoded.contains("cell 7"),
        "healthy phases survive: {encoded}"
    );
    // The six healthy cells (0,1,2,3,4,7) recorded (index+1)*100 cycles
    // each; the quarantined cells contributed nothing.
    let total = report
        .get("totals")
        .and_then(|t| t.get("cycles"))
        .and_then(Json::as_u64)
        .expect("totals.cycles present");
    assert_eq!(total, 100 + 200 + 300 + 400 + 500 + 800);
}

#[test]
fn the_cycle_budget_is_enforced_at_any_jobs() {
    let _guard = global_lock();
    let default_policy = par::supervisor();
    par::set_supervisor(SupervisorPolicy {
        retries: 1,
        cycle_budget: Some(500),
    });
    for jobs in [1, 4] {
        par::set_jobs(jobs);
        recorder::install(settings());
        let results = par::run_cells_named("sweep", 5, |cell| {
            let cycles = if cell.index == 3 { 10_000 } else { 100 };
            recorder::record_run(cycles, 1);
            Ok(cell.index as u64)
        });
        par::set_jobs(0);
        let collector = recorder::finish().expect("recorder was installed");
        let report = build_report(&collector);
        match &results[3] {
            Err(Error::Quarantined {
                cell,
                attempts,
                message,
                ..
            }) => {
                assert_eq!(*cell, 3, "jobs={jobs}");
                // Budget overruns are deterministic: no retry is burned.
                assert_eq!(*attempts, 1, "jobs={jobs}");
                assert!(
                    message.contains("exceeded cycle budget (10000 > 500 cycles)"),
                    "jobs={jobs}: {message}"
                );
            }
            other => panic!("jobs={jobs}: expected a budget quarantine, got {other:?}"),
        }
        assert!(
            results
                .iter()
                .enumerate()
                .all(|(i, r)| i == 3 || matches!(r, Ok(v) if *v == i as u64)),
            "jobs={jobs}: in-budget cells must complete"
        );
        let warnings = warnings_of(&report);
        assert_eq!(warnings.len(), 1, "jobs={jobs}: {warnings:?}");
        assert!(warnings[0].starts_with("quarantined: sweep cell 3"));
    }
    par::set_supervisor(default_policy);
}
