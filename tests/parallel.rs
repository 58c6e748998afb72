//! Integration tests for the parallel sweep engine's determinism
//! contract: a `--jobs N` run must be indistinguishable from a `--jobs 1`
//! run except in wall-clock fields.
//!
//! The byte-identity pins are the load-bearing ones: they canonicalize
//! full run reports (dropping only `wall_seconds` / `cycles_per_sec` /
//! `uops_per_sec`) and compare the serial and parallel encodings as
//! strings. Any completion-order leakage — a merge keyed on finish time,
//! a float sum grouped differently, a phase recorded on the wrong
//! recorder — shows up as a byte diff here before it can corrupt a
//! reproduced figure.
//!
//! The shared `global_lock` serializes tests that touch the process-global
//! jobs setting; the contract itself makes cross-test interference
//! harmless (outputs are identical at any setting), but the lock keeps
//! each assertion about a *specific* setting honest.

use std::time::Duration;

use penelope::error::Error;
use penelope::experiments::{self, Scale};
use penelope::fault::FaultPlan;
use penelope::par;
use penelope_telemetry::{build_report, recorder};

mod common;
use common::{canonicalize, global_lock, settings};

/// Runs `driver` under a fresh recorder at the given jobs setting and
/// returns the canonicalized report encoding plus the driver's value.
fn report_at_jobs<T>(jobs: usize, driver: impl Fn() -> Result<T, Error>) -> (String, T) {
    par::set_jobs(jobs);
    recorder::install(settings());
    let value = driver().expect("quick-scale drivers run");
    let collector = recorder::finish().expect("recorder was installed");
    par::set_jobs(0);
    let mut report = build_report(&collector);
    canonicalize(&mut report);
    (report.encode(), value)
}

#[test]
fn table3_reports_are_byte_identical_at_jobs_1_and_4() {
    let _guard = global_lock();
    let (serial_report, serial) = report_at_jobs(1, || experiments::table3(Scale::quick()));
    let (parallel_report, parallel) = report_at_jobs(4, || experiments::table3(Scale::quick()));
    assert_eq!(
        serial.rows, parallel.rows,
        "result rows must not depend on jobs"
    );
    assert_eq!(
        serial_report, parallel_report,
        "table3 telemetry must be byte-identical modulo wall-clock fields"
    );
    assert!(
        serial_report.contains("table3: DL0 8-way 32KB"),
        "phase stream went missing from the canonicalized report"
    );
}

#[test]
fn fig6_reports_are_byte_identical_at_jobs_1_and_4() {
    let _guard = global_lock();
    let (serial_report, serial) = report_at_jobs(1, || experiments::fig6(Scale::quick()));
    let (parallel_report, parallel) = report_at_jobs(4, || experiments::fig6(Scale::quick()));
    assert_eq!(serial, parallel, "fig6 results must not depend on jobs");
    assert_eq!(
        serial_report, parallel_report,
        "fig6 telemetry must be byte-identical modulo wall-clock fields"
    );
}

#[test]
fn nested_driver_reports_are_byte_identical_at_jobs_1_and_4() {
    // efficiency_summary nests engine grids (its cells call fig6/fig8,
    // which run their own grids), so it exercises recorder inheritance
    // two levels deep.
    let _guard = global_lock();
    let (serial_report, serial) =
        report_at_jobs(1, || experiments::efficiency_summary(Scale::quick()));
    let (parallel_report, parallel) =
        report_at_jobs(4, || experiments::efficiency_summary(Scale::quick()));
    assert_eq!(serial, parallel);
    assert_eq!(serial_report, parallel_report);
}

#[test]
fn merged_telemetry_is_invariant_under_seeded_completion_shuffles() {
    // Property-style pin: whatever (seeded) completion order the workers
    // produce, the merged report equals the serial one. Per-cell delays
    // come from an LCG so each seed exercises a different finish order.
    let _guard = global_lock();
    const CELLS: usize = 12;
    let run = |seed: u64, jobs: usize| -> String {
        let mut state = seed;
        let delays: Vec<u64> = (0..CELLS)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) % 7
            })
            .collect();
        par::set_jobs(jobs);
        recorder::install(settings());
        let results = par::run_cells_named("sweep", CELLS, |cell| {
            if jobs > 1 {
                std::thread::sleep(Duration::from_millis(delays[cell.index]));
            }
            recorder::phase(&format!("cell {}", cell.index), || {
                recorder::record_run((cell.index as u64 + 1) * 10, cell.index as u64 + 1);
            });
            Ok(cell.index as u64)
        });
        par::set_jobs(0);
        assert!(results.iter().all(Result::is_ok));
        let collector = recorder::finish().expect("recorder was installed");
        let mut report = build_report(&collector);
        canonicalize(&mut report);
        report.encode()
    };
    let reference = run(0, 1);
    for seed in 1..=6 {
        assert_eq!(
            run(seed, 4),
            reference,
            "completion order leaked (seed {seed})"
        );
    }
}

#[test]
fn cell_errors_are_deterministic_at_any_jobs() {
    // The lowest-indexed quarantine wins no matter which worker saw its
    // cell first — a failing sweep reports the same thing serial or
    // parallel. Persistent errors now surface as supervised quarantines
    // carrying the retry count.
    let _guard = global_lock();
    for jobs in [1, 2, 8] {
        par::set_jobs(jobs);
        let result: Result<Vec<u64>, Error> = par::try_cells_named("sweep", 10, |cell| {
            if cell.index >= 4 {
                Err(Error::config(format!("cell {} rejected", cell.index)))
            } else {
                Ok(0)
            }
        });
        par::set_jobs(0);
        match result {
            Err(Error::Quarantined {
                sweep,
                cell,
                attempts,
                message,
            }) => {
                assert_eq!(sweep, "sweep", "jobs={jobs}");
                assert_eq!(cell, 4, "jobs={jobs}");
                assert_eq!(attempts, 2, "jobs={jobs}");
                assert!(
                    message.contains("cell 4 rejected"),
                    "jobs={jobs}: {message}"
                );
            }
            other => panic!("expected the index-4 quarantine at jobs={jobs}, got {other:?}"),
        }
    }
}

#[test]
fn faulted_runs_are_unaffected_by_the_jobs_setting() {
    // Fault injection and parallelism compose: the same seeded plan
    // produces the same outcome (rows or typed error) at any jobs.
    let _guard = global_lock();
    let plan = FaultPlan::random(7);
    par::set_jobs(1);
    let serial = experiments::efficiency_summary_faulted(Scale::quick(), &plan);
    par::set_jobs(4);
    let parallel = experiments::efficiency_summary_faulted(Scale::quick(), &plan);
    par::set_jobs(0);
    assert_eq!(serial, parallel);
}

#[test]
#[ignore = "wall-clock benchmark; run with: cargo test --release --test parallel -- --ignored"]
fn table3_thorough_parallel_speedup_is_at_least_2x() {
    // The acceptance benchmark: table3 at thorough scale with all cores
    // must be at least 2x faster than --jobs 1. Wall-clock sensitive, so
    // it is opt-in (CI machines with throttled or single cores would
    // flake); the byte-identity tests above cover correctness.
    let _guard = global_lock();
    let cores = par::available_parallelism();
    if cores < 2 {
        eprintln!("single-core machine; speedup benchmark has nothing to measure");
        return;
    }
    let time = |jobs: usize| {
        par::set_jobs(jobs);
        let start = std::time::Instant::now();
        experiments::table3(Scale::thorough()).expect("thorough table3 runs");
        let elapsed = start.elapsed();
        par::set_jobs(0);
        elapsed
    };
    let serial = time(1);
    let parallel = time(cores);
    assert!(
        parallel.as_secs_f64() * 2.0 <= serial.as_secs_f64(),
        "expected >=2x speedup: serial {serial:?}, parallel {parallel:?} on {cores} cores"
    );
}
