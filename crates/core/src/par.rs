//! The parallel sweep engine: a hand-rolled scoped-thread worker pool with
//! a sharded work queue, supervised cell execution and a deterministic
//! telemetry merge.
//!
//! Every paper figure and table is a grid of independent, seed-
//! deterministic runs — technique × K% × structure × scale. Each grid
//! point is a [`Cell`]; a driver hands the engine a sweep name, the cell
//! count and a closure computing one cell ([`try_cells_named`], or
//! [`run_cells_named`] to keep every cell's result), and the engine
//! executes cells on a pool of scoped worker threads (the workspace builds
//! offline, so no rayon), pulling indices from a shared atomic cursor.
//!
//! # Determinism contract
//!
//! A parallel run must be indistinguishable from a serial run except in
//! wall-clock fields. Two properties make that structural rather than
//! accidental:
//!
//! 1. **Cells are hermetic.** Each cell runs under its own private
//!    telemetry recorder, inherited from the installing thread through a
//!    [`recorder::WorkerHandle`]; pipelines, hooks and RNG streams are
//!    constructed inside the cell from plain-data inputs. Nothing a cell
//!    records can interleave with another cell's stream.
//! 2. **The merge is ordered by cell index, not completion.** After the
//!    pool drains, per-cell [`recorder::Snapshot`]s are absorbed into the
//!    installing thread's recorder in index order — followed by that
//!    cell's supervisor notes — and results are returned in index order.
//!    Whatever the worker scheduling did, the merged phases, metrics,
//!    series, warnings and result rows come out identical — `--jobs 1`
//!    and `--jobs N` reports differ only in wall-clock fields.
//!
//! The serial path (`jobs == 1`, or a single cell) runs the same
//! supervise → absorb pipeline inline on the calling thread, so both
//! modes produce byte-identical simulated-quantity streams by
//! construction (the merge sequence is the same, down to float-summation
//! grouping).
//!
//! # Supervision
//!
//! Cells run under a supervisor ([`SupervisorPolicy`]): panics are caught
//! (the per-cell recorder guard uninstalls the dead cell's collector
//! first, so nothing stale leaks), typed errors and panics are retried up
//! to `retries` times, at once — a cell is a pure function of its inputs,
//! so waiting before the rerun would change nothing — and a cell whose
//! telemetry reports more simulated cycles than `cycle_budget` is treated
//! as runaway. A cell that exhausts its retries is **quarantined**: its
//! slot carries [`Error::Quarantined`], a structured `quarantined: …`
//! entry lands in the report warnings, and the rest of the grid completes
//! normally, so a persistently faulty cell degrades the sweep to a
//! partial report instead of aborting it.
//!
//! # Checkpointing
//!
//! When the bench CLI arms a [`CheckpointContext`] (`--checkpoint`), every
//! sweep persists each completed cell — payload plus exact telemetry
//! snapshot — to the journal under its sweep name and cell index, and on
//! `--resume` restores completed cells instead of re-executing them.
//! Restored snapshots are absorbed through the same index-ordered merge,
//! so an interrupted-then-resumed sweep reproduces the uninterrupted
//! report byte for byte outside wall-clock fields.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::Instant;

use penelope_telemetry::recorder::{self, Snapshot, WorkerHandle};
use penelope_telemetry::{span, Json};

use crate::error::Error;
use crate::journal::{CellPayload, CheckpointContext};
use crate::obs::panic_message;

/// Process-wide worker count for engine invocations that don't pass one
/// explicitly. 0 means "unset": fall back to the machine's available
/// parallelism.
static JOBS: AtomicUsize = AtomicUsize::new(0);

/// Sets the process-wide worker count (the bench CLI wires `--jobs`
/// here). 0 resets to "available parallelism".
pub fn set_jobs(jobs: usize) {
    JOBS.store(jobs, Ordering::Relaxed);
}

/// The worker count engine invocations use by default: the last
/// [`set_jobs`] value, or the machine's available parallelism when unset.
pub fn jobs() -> usize {
    match JOBS.load(Ordering::Relaxed) {
        0 => available_parallelism(),
        n => n,
    }
}

/// The machine's available parallelism (1 when undeterminable).
pub fn available_parallelism() -> usize {
    thread::available_parallelism().map_or(1, |n| n.get())
}

/// How the supervisor treats failing or runaway cells. Process-wide, like
/// the worker count: the bench CLI always runs the default policy, and
/// library callers set another through [`set_supervisor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisorPolicy {
    /// Re-executions granted after a failed attempt (so a cell runs at
    /// most `1 + retries` times). Retries cover panics and typed errors —
    /// transient faults recover, persistent ones quarantine.
    pub retries: u32,
    /// Simulated-cycle watchdog: a cell whose snapshot reports more total
    /// cycles than this is quarantined immediately (re-running a
    /// deterministic overrun would overrun again). `None` disables it.
    pub cycle_budget: Option<u64>,
}

impl SupervisorPolicy {
    /// The policy the bench CLI runs: one retry, no cycle budget.
    pub const DEFAULT: SupervisorPolicy = SupervisorPolicy {
        retries: 1,
        cycle_budget: None,
    };
}

impl Default for SupervisorPolicy {
    fn default() -> Self {
        SupervisorPolicy::DEFAULT
    }
}

static SUPERVISOR: Mutex<SupervisorPolicy> = Mutex::new(SupervisorPolicy::DEFAULT);

/// Sets the process-wide supervisor policy.
pub fn set_supervisor(policy: SupervisorPolicy) {
    *SUPERVISOR.lock().unwrap_or_else(|p| p.into_inner()) = policy;
}

/// The current process-wide supervisor policy.
pub fn supervisor() -> SupervisorPolicy {
    *SUPERVISOR.lock().unwrap_or_else(|p| p.into_inner())
}

static CHECKPOINT: Mutex<Option<CheckpointContext>> = Mutex::new(None);

/// Arms (or with `None`, disarms) checkpointing for subsequent sweeps.
/// The bench CLI owns this: it builds the context from `--checkpoint` /
/// `--resume` and clears it after the run.
pub fn set_checkpoint(context: Option<CheckpointContext>) {
    *CHECKPOINT.lock().unwrap_or_else(|p| p.into_inner()) = context;
}

fn checkpoint() -> Option<CheckpointContext> {
    CHECKPOINT.lock().unwrap_or_else(|p| p.into_inner()).clone()
}

/// One independent unit of an experiment grid. A retry hands the body
/// the same `Cell` again: a deterministic body reruns exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cell {
    /// Position in the grid, in the driver's serial iteration order. The
    /// engine merges results and telemetry in this order.
    pub index: usize,
}

/// Executes `cells` grid cells of the sweep `name` on the process-wide
/// [`jobs`] worker count (clamped to the cell count; one worker runs
/// inline on the calling thread), then merges per-cell telemetry
/// snapshots and results in cell-index order.
///
/// The closure must be `Sync` (shared by every worker) and is handed each
/// cell exactly once per attempt. Telemetry recorded inside a cell —
/// phases, `record_run` totals, manifest entries, warnings,
/// instrumented-run output — lands in the cell's private recorder and is
/// reassembled into the calling thread's recorder deterministically; with
/// no recorder installed the cells run with zero telemetry bookkeeping.
///
/// When the bench CLI has armed a checkpoint journal, each completed
/// cell's payload and telemetry snapshot are persisted under
/// `(name, index)`, and cells already present in a resumed journal are
/// restored instead of re-executed. The name is the journal key: every
/// distinct grid a binary dispatches (including sub-sweeps of composite
/// drivers) must use a distinct name.
pub fn run_cells_named<T, F>(name: &str, cells: usize, body: F) -> Vec<Result<T, Error>>
where
    T: CellPayload + Send,
    F: Fn(Cell) -> Result<T, Error> + Sync,
{
    run_supervised(name, supervisor(), jobs(), cells, body)
}

/// [`run_cells_named`], stopping at the first error in cell-index order
/// (later cells still execute — the grid is already dispatched — but the
/// lowest-indexed error wins deterministically).
///
/// # Errors
///
/// The error of the lowest-indexed failing cell ([`Error::Quarantined`]
/// when the supervisor exhausted its retries on it).
pub fn try_cells_named<T, F>(name: &str, cells: usize, body: F) -> Result<Vec<T>, Error>
where
    T: CellPayload + Send,
    F: Fn(Cell) -> Result<T, Error> + Sync,
{
    run_cells_named(name, cells, body).into_iter().collect()
}

/// What one supervised cell leaves behind: the result (quarantine-wrapped
/// on exhaustion), the telemetry snapshot to absorb, the supervisor's
/// notes — which the merge turns into report warnings in cell-index order
/// — and how many executions it took (introspection only; 0 for a cell
/// restored from the journal).
struct CellOutcome<T> {
    result: Result<T, Error>,
    snapshot: Option<Snapshot>,
    notes: Vec<String>,
    attempts: u32,
}

fn run_supervised<T, F>(
    name: &str,
    policy: SupervisorPolicy,
    jobs: usize,
    cells: usize,
    body: F,
) -> Vec<Result<T, Error>>
where
    T: CellPayload + Send,
    F: Fn(Cell) -> Result<T, Error> + Sync,
{
    let handle = recorder::worker_handle();
    // The sweep span opens on the installing thread before any cell runs
    // and closes after the merge (guard drop at function exit), so every
    // merged cell span is adopted under it — at any jobs setting the tree
    // comes out identical, because both the open and the merge happen
    // here, never on a worker.
    let _sweep_span = span!("sweep: {}", name);
    let workers = jobs.clamp(1, cells.max(1));
    let context = checkpoint();

    // Introspection state: completion counters for the live event
    // stream's heartbeats. Wall-clock domain only — nothing here feeds
    // the recorder.
    let done = AtomicUsize::new(0);
    let quarantined = AtomicUsize::new(0);
    let note_done = |index: usize, status: &str, attempts: u32, cell_wall_seconds: f64| {
        done.fetch_add(1, Ordering::Relaxed);
        if status == "quarantined" {
            quarantined.fetch_add(1, Ordering::Relaxed);
        }
        if span::stream_active() {
            span::stream_event(
                "cell-complete",
                &[
                    ("sweep", Json::from(name)),
                    ("cell", Json::UInt(index as u64)),
                    ("status", Json::from(status)),
                    ("attempts", Json::UInt(u64::from(attempts))),
                    ("cell_wall_seconds", Json::Float(cell_wall_seconds)),
                ],
            );
        }
    };

    let execute = |index: usize, worker: usize, queue_wait_seconds: f64| -> CellOutcome<T> {
        if span::stream_active() {
            span::stream_event(
                "heartbeat",
                &[
                    ("sweep", Json::from(name)),
                    ("done", Json::UInt(done.load(Ordering::Relaxed) as u64)),
                    ("total", Json::UInt(cells as u64)),
                    (
                        "quarantined",
                        Json::UInt(quarantined.load(Ordering::Relaxed) as u64),
                    ),
                ],
            );
            span::stream_event(
                "cell-start",
                &[
                    ("sweep", Json::from(name)),
                    ("cell", Json::UInt(index as u64)),
                    ("worker", Json::UInt(worker as u64)),
                    ("queue_wait_seconds", Json::Float(queue_wait_seconds)),
                ],
            );
        }
        let started = Instant::now();
        if let Some(restored) = context.as_ref().and_then(|ctx| ctx.restored(name, index)) {
            let result = T::from_payload(&restored.payload).map_err(|e| {
                Error::journal(format!(
                    "restored {name} cell {index} has an undecodable payload: {e}"
                ))
            });
            note_done(index, "restored", 0, started.elapsed().as_secs_f64());
            return CellOutcome {
                result,
                snapshot: restored.snapshot,
                notes: Vec::new(),
                attempts: 0,
            };
        }
        let outcome = supervise(&handle, &policy, name, index, &body);
        if let (Some(ctx), Ok(value)) = (context.as_ref(), &outcome.result) {
            ctx.append(name, index, value.to_payload(), outcome.snapshot.as_ref());
        }
        let status = match &outcome.result {
            Ok(_) => "ok",
            Err(Error::Quarantined { .. }) => "quarantined",
            Err(_) => "error",
        };
        note_done(
            index,
            status,
            outcome.attempts,
            started.elapsed().as_secs_f64(),
        );
        outcome
    };

    let outcomes: Vec<Option<CellOutcome<T>>> = if workers <= 1 {
        // Inline path: same supervise/merge pipeline, no threads.
        (0..cells)
            .map(|index| Some(execute(index, 0, 0.0)))
            .collect()
    } else {
        // Sharded work queue: workers race on one atomic cursor, so a
        // slow cell never blocks the rest of the grid behind it.
        let cursor = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<CellOutcome<T>>>> =
            (0..cells).map(|_| Mutex::new(None)).collect();
        thread::scope(|scope| {
            let cursor = &cursor;
            let slots = &slots;
            let execute = &execute;
            for worker in 0..workers {
                // Per-worker idle tracking: the gap between finishing one
                // cell and acquiring the next is queue wait, streamed per
                // cell so a stalled pool is visible live.
                scope.spawn(move || {
                    let mut idle_since = Instant::now();
                    loop {
                        let index = cursor.fetch_add(1, Ordering::Relaxed);
                        if index >= cells {
                            break;
                        }
                        let queue_wait = idle_since.elapsed().as_secs_f64();
                        let outcome = execute(index, worker, queue_wait);
                        *slots[index].lock().unwrap_or_else(|p| p.into_inner()) = Some(outcome);
                        idle_since = Instant::now();
                    }
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| slot.into_inner().unwrap_or_else(|p| p.into_inner()))
            .collect()
    };
    // Deterministic merge: cell-index order, not completion order. Each
    // cell's snapshot lands before its supervisor notes, so the warnings
    // array reads in grid order at any worker count.
    let mut results = Vec::with_capacity(cells);
    for (index, outcome) in outcomes.into_iter().enumerate() {
        match outcome {
            Some(outcome) => {
                if let Some(snapshot) = outcome.snapshot {
                    recorder::absorb_snapshot(snapshot);
                }
                for note in outcome.notes {
                    recorder::warning(note);
                }
                results.push(outcome.result);
            }
            // Unreachable after a clean scope join; keep the sweep total
            // rather than panicking inside the engine.
            None => results.push(Err(Error::config(format!(
                "parallel engine lost cell {index} (worker terminated early)"
            )))),
        }
    }
    if let Some(ctx) = &context {
        if let Some(fault) = ctx.take_fault() {
            recorder::warning(fault);
        }
    }
    results
}

/// Runs one cell under the supervisor: catch panics, retry failures, watch
/// the cycle budget, quarantine on exhaustion.
fn supervise<T, F>(
    handle: &WorkerHandle,
    policy: &SupervisorPolicy,
    sweep: &str,
    index: usize,
    body: &F,
) -> CellOutcome<T>
where
    F: Fn(Cell) -> Result<T, Error> + Sync,
{
    let mut notes = Vec::new();
    let mut attempts: u32 = 0;
    loop {
        attempts += 1;
        // AssertUnwindSafe: on unwind the cell's half-built state is
        // discarded (record_cell already uninstalled its collector), and
        // the shared `body` is a pure Fn over plain-data inputs. The cell
        // span lives inside the cell's private recorder, so it rides the
        // snapshot through the index-ordered merge — and a failed
        // attempt's span dies with its discarded snapshot, keeping the
        // merged tree identical however many retries it took.
        let caught = catch_unwind(AssertUnwindSafe(|| {
            handle.record_cell(|| {
                let _cell_span = span!("{} cell {}", sweep, index);
                body(Cell { index })
            })
        }));
        let (failure, snapshot) = match caught {
            Ok((Ok(value), snapshot)) => {
                if let (Some(budget), Some(cycles)) = (
                    policy.cycle_budget,
                    snapshot.as_ref().map(|s| s.total_cycles),
                ) {
                    if cycles > budget {
                        // A deterministic cell that overran once overruns
                        // every time; retrying would just burn the budget
                        // again.
                        let message = format!("exceeded cycle budget ({cycles} > {budget} cycles)");
                        notes.push(format!(
                            "quarantined: {sweep} cell {index} failed after {attempts} attempt(s): {message}"
                        ));
                        stream_quarantine(sweep, index, attempts, &message);
                        return CellOutcome {
                            result: Err(Error::Quarantined {
                                sweep: sweep.to_string(),
                                cell: index,
                                attempts,
                                message,
                            }),
                            snapshot,
                            notes,
                            attempts,
                        };
                    }
                }
                if attempts > 1 {
                    notes.push(format!(
                        "{sweep} cell {index}: recovered on attempt {attempts}"
                    ));
                }
                return CellOutcome {
                    result: Ok(value),
                    snapshot,
                    notes,
                    attempts,
                };
            }
            Ok((Err(error), snapshot)) => (error.to_string(), snapshot),
            Err(payload) => (
                format!("worker panicked: {}", panic_message(payload.as_ref())),
                None,
            ),
        };
        if attempts > policy.retries {
            notes.push(format!(
                "quarantined: {sweep} cell {index} failed after {attempts} attempt(s): {failure}"
            ));
            stream_quarantine(sweep, index, attempts, &failure);
            return CellOutcome {
                result: Err(Error::Quarantined {
                    sweep: sweep.to_string(),
                    cell: index,
                    attempts,
                    message: failure,
                }),
                snapshot,
                notes,
                attempts,
            };
        }
        notes.push(format!(
            "{sweep} cell {index}: attempt {attempts} failed ({failure}); retrying"
        ));
        if span::stream_active() {
            span::stream_event(
                "retry",
                &[
                    ("sweep", Json::from(sweep)),
                    ("cell", Json::UInt(index as u64)),
                    ("attempt", Json::UInt(u64::from(attempts))),
                    ("failure", Json::from(failure.as_str())),
                ],
            );
        }
    }
}

/// Emits a live `quarantine` event (no-op when the stream is disarmed).
/// The deterministic record of the same fact is the `quarantined: …`
/// supervisor note that the merge turns into a report warning.
fn stream_quarantine(sweep: &str, cell: usize, attempts: u32, message: &str) {
    if span::stream_active() {
        span::stream_event(
            "quarantine",
            &[
                ("sweep", Json::from(sweep)),
                ("cell", Json::UInt(cell as u64)),
                ("attempts", Json::UInt(u64::from(attempts))),
                ("message", Json::from(message)),
            ],
        );
    }
}

// The result slots hold a `CellOutcome<T>` shared across the scope's
// workers; the error and snapshot halves must stay `Send` for any cell
// payload to be. Pinned here so a non-`Send` member added to either type
// fails in this file rather than at every driver's `try_cells_named` call.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Error>();
    assert_send::<Snapshot>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use penelope_telemetry::recorder::Settings;

    #[test]
    fn results_come_back_in_index_order() {
        for jobs in [1, 2, 4, 16] {
            let results = run_supervised("sweep", supervisor(), jobs, 9, |cell| {
                Ok(cell.index as u64 * 10)
            });
            let values: Vec<u64> = results.into_iter().map(|r| r.unwrap()).collect();
            assert_eq!(values, (0..9).map(|i| i * 10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn try_cells_quarantines_the_lowest_indexed_persistent_error() {
        let out: Result<Vec<u64>, Error> = try_cells_named("sweep", 8, |cell| {
            if cell.index % 3 == 2 {
                Err(Error::config(format!("cell {} failed", cell.index)))
            } else {
                Ok(cell.index as u64)
            }
        });
        match out {
            Err(Error::Quarantined {
                sweep,
                cell,
                attempts,
                message,
            }) => {
                assert_eq!((sweep.as_str(), cell), ("sweep", 2));
                assert_eq!(attempts, 2, "default policy grants one retry");
                assert!(message.contains("cell 2 failed"), "{message}");
            }
            other => panic!("expected the index-2 quarantine, got {other:?}"),
        }
    }

    #[test]
    fn transient_failures_are_retried_and_recover() {
        recorder::install(Settings::default());
        let cell_2_runs = AtomicUsize::new(0);
        let results = run_supervised("sweep", supervisor(), 2, 4, |cell| {
            if cell.index == 2 && cell_2_runs.fetch_add(1, Ordering::Relaxed) == 0 {
                Err(Error::config("transient glitch"))
            } else {
                Ok(cell.index as u64)
            }
        });
        assert!(results.iter().all(Result::is_ok), "the retry must recover");
        let collector = recorder::finish().expect("installed");
        assert_eq!(
            collector.warnings,
            vec![
                "sweep cell 2: attempt 1 failed (configuration: transient glitch); retrying"
                    .to_string(),
                "sweep cell 2: recovered on attempt 2".to_string(),
            ]
        );
    }

    #[test]
    fn telemetry_merges_in_cell_order_whatever_the_completion_order() {
        let run = |jobs: usize| {
            recorder::install(Settings::default());
            let _ = run_supervised("sweep", supervisor(), jobs, 6, |cell| {
                // Stagger completion: later cells finish first under
                // parallelism, exercising the index-ordered merge.
                if jobs > 1 {
                    std::thread::sleep(std::time::Duration::from_millis(
                        (6 - cell.index as u64) * 3,
                    ));
                }
                recorder::phase(&format!("cell {}", cell.index), || {
                    recorder::record_run(100 * (cell.index as u64 + 1), 10);
                });
                Ok(cell.index as u64)
            });
            recorder::finish().expect("installed")
        };
        let serial = run(1);
        let parallel = run(4);
        let names = |c: &penelope_telemetry::Collector| -> Vec<&'static str> {
            c.phases().map(|p| p.name).collect()
        };
        assert_eq!(names(&serial), names(&parallel));
        assert_eq!(serial.total_cycles, parallel.total_cycles);
        let cycles: Vec<u64> = serial.phases().map(|p| p.cycles).collect();
        assert_eq!(cycles, vec![100, 200, 300, 400, 500, 600]);
    }

    #[test]
    fn engine_without_a_recorder_is_inert() {
        let _ = recorder::finish();
        let results = run_supervised("sweep", supervisor(), 4, 4, |cell| {
            assert!(
                !recorder::active(),
                "no recorder must be installed in workers when the parent has none"
            );
            Ok(cell.index as u64)
        });
        assert_eq!(results.len(), 4);
        assert!(recorder::finish().is_none());
    }

    #[test]
    fn panicking_cells_are_quarantined_not_propagated() {
        recorder::install(Settings::default());
        let results = run_supervised("sweep", supervisor(), 2, 4, |cell| {
            if cell.index == 1 {
                panic!("cell 1 exploded");
            }
            Ok(cell.index as u64)
        });
        assert_eq!(results.len(), 4, "the rest of the grid still completes");
        assert!(results[0].is_ok() && results[2].is_ok() && results[3].is_ok());
        match &results[1] {
            Err(Error::Quarantined {
                sweep,
                cell,
                attempts,
                message,
            }) => {
                assert_eq!((sweep.as_str(), *cell, *attempts), ("sweep", 1, 2));
                assert!(message.contains("cell 1 exploded"), "{message}");
            }
            other => panic!("expected quarantine, got {other:?}"),
        }
        // The calling thread's recorder survives, no worker left a stale
        // cell collector installed, and the quarantine is on the record.
        assert!(recorder::active(), "parent recorder still installed");
        let collector = recorder::finish().expect("parent recorder intact");
        assert!(
            collector.phases().next().is_none(),
            "no partial phases leaked from the panicked cells"
        );
        assert_eq!(
            collector.warnings,
            vec![
                "sweep cell 1: attempt 1 failed (worker panicked: cell 1 exploded); retrying"
                    .to_string(),
                "quarantined: sweep cell 1 failed after 2 attempt(s): worker panicked: cell 1 exploded"
                    .to_string(),
            ]
        );
    }

    #[test]
    fn the_cycle_budget_quarantines_runaway_cells() {
        recorder::install(Settings::default());
        let policy = SupervisorPolicy {
            cycle_budget: Some(150),
            ..SupervisorPolicy::default()
        };
        let results = run_supervised("sweep", policy, 1, 3, |cell| {
            recorder::record_run(100 * (cell.index as u64 + 1), 10);
            Ok(cell.index as u64)
        });
        let collector = recorder::finish().expect("installed");
        assert!(results[0].is_ok(), "100 cycles is within budget");
        for overrun in [1, 2] {
            match &results[overrun] {
                Err(Error::Quarantined {
                    attempts, message, ..
                }) => {
                    assert_eq!(*attempts, 1, "budget overruns are not retried");
                    assert!(message.contains("cycle budget"), "{message}");
                }
                other => panic!("expected a budget quarantine, got {other:?}"),
            }
        }
        // The overrunning cells' telemetry is still merged — the partial
        // report shows what they did before quarantine.
        assert_eq!(collector.total_cycles, 100 + 200 + 300);
        assert_eq!(collector.warnings.len(), 2);
    }

    #[test]
    fn zero_cells_is_an_empty_sweep() {
        assert!(run_supervised("sweep", supervisor(), 4, 0, |_| Ok(0u64)).is_empty());
        assert_eq!(
            try_cells_named("sweep", 0, |_| Ok(0u64)).map(|v| v.len()),
            Ok(0)
        );
    }

    #[test]
    fn jobs_defaults_to_available_parallelism() {
        set_jobs(0);
        assert_eq!(jobs(), available_parallelism());
        set_jobs(3);
        assert_eq!(jobs(), 3);
        set_jobs(0);
    }

    #[test]
    fn supervisor_policy_round_trips_through_the_process_slot() {
        let before = supervisor();
        // Keep retries at their default and make the budget unreachable,
        // so concurrently running sweeps in this test binary never observe
        // a behavior change.
        let tweaked = SupervisorPolicy {
            cycle_budget: Some(u64::MAX),
            ..before
        };
        set_supervisor(tweaked);
        assert_eq!(supervisor(), tweaked);
        set_supervisor(before);
    }
}
