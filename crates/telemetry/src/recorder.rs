//! The thread-local recorder: a facade that lets deeply nested experiment
//! code contribute telemetry without threading a collector through every
//! signature.
//!
//! A driver (or the bench CLI) calls [`install`] once; library code then
//! asks [`settings`] whether telemetry is on, wraps its hooks in
//! [`crate::TelemetryHooks`] when it is, and feeds the results back with
//! [`absorb`] / [`record_run`] / [`phase`]. A phase is a tracing span
//! marked `phase`; the report lists the marked spans as its `phases`. At
//! the end [`finish`] detaches the collector for report building. When
//! nothing is installed every call is a cheap thread-local check followed
//! by a branch — the zero-cost-when-disabled contract.
//!
//! # Recording off the installing thread
//!
//! The collector slot is thread-local, so a recorder installed on one
//! thread is invisible to every other: a phase or metric recorded on a
//! worker thread would be silently dropped. Parallel experiment engines
//! therefore capture a [`WorkerHandle`] on the installing thread and hand
//! clones to their workers. [`WorkerHandle::record_cell`] runs one unit of
//! work under a private recorder (inheriting the parent's [`Settings`])
//! and returns a mergeable [`Snapshot`]; the engine feeds snapshots back
//! to the installing thread with [`absorb_snapshot`] in a deterministic
//! order, so the merged stream is byte-identical no matter which worker
//! finished first. `record_cell` is panic-safe: if the unit of work
//! unwinds, the temporary recorder is uninstalled and whatever was
//! previously installed on that thread is reinstated, never leaving a
//! stale collector behind.

use std::cell::RefCell;
use std::time::Instant;

use crate::hooks::TelemetryOutput;
use crate::json::Json;
use crate::span::SpanRecord;

/// How a run should be sampled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Settings {
    /// Cycles between structure samples.
    pub sample_period: u64,
    /// Maximum points retained per time series.
    pub series_capacity: usize,
}

impl Default for Settings {
    fn default() -> Self {
        Settings {
            sample_period: 1024,
            series_capacity: 256,
        }
    }
}

/// Accumulated telemetry for one process run.
#[derive(Debug, Clone)]
pub struct Collector {
    /// The sampling settings in force.
    pub settings: Settings,
    /// Free-form manifest entries (config, seed, scale, binary name).
    pub manifest: Vec<(String, Json)>,
    /// Degradation warnings (fallbacks taken, misconfigured environment).
    pub warnings: Vec<String>,
    /// Total simulated cycles.
    pub total_cycles: u64,
    /// Total uops retired.
    pub total_uops: u64,
    /// Wall-clock seconds since [`install`].
    pub wall_seconds: f64,
    /// Completed tracing spans, in open order (parents precede children).
    pub spans: Vec<SpanRecord>,
    /// Driver-contributed report sections: each becomes a top-level key of
    /// the run report (e.g. the fleet driver's `fleet` distribution
    /// summary). Sections are set on the installing thread after a sweep's
    /// merge — they carry their own `<name>_schema` version and do not
    /// ride cell snapshots.
    pub sections: Vec<(String, Json)>,
    /// Merged structure telemetry from every instrumented run.
    pub output: TelemetryOutput,
}

/// The wall-clock-free, mergeable record of one unit of work, produced by
/// [`WorkerHandle::record_cell`] and consumed by [`absorb_snapshot`].
///
/// Span wall times are retained (they are informational), but the
/// snapshot carries no run-level wall clock: the parent recorder keeps its
/// own, so merging snapshots in a deterministic order yields the same
/// simulated-quantity stream regardless of worker scheduling.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Manifest entries recorded inside the cell (replace-by-key on merge).
    pub manifest: Vec<(String, Json)>,
    /// Warnings recorded inside the cell.
    pub warnings: Vec<String>,
    /// Simulated cycles credited inside the cell.
    pub total_cycles: u64,
    /// Uops credited inside the cell.
    pub total_uops: u64,
    /// Spans opened inside the cell (parent indices are cell-local; the
    /// merge rebases them and attaches roots under the absorbing thread's
    /// open span). Wall starts are measured against the *shared* run
    /// epoch, so merged spans stay on one timeline.
    pub spans: Vec<SpanRecord>,
    /// Structure telemetry collected inside the cell.
    pub output: TelemetryOutput,
}

/// A span opened but not yet closed: its record index plus the baselines
/// its durations are measured from.
struct OpenSpan {
    index: usize,
    started: Instant,
    base_cycles: u64,
    base_uops: u64,
}

struct ActiveCollector {
    collector: Collector,
    started: Instant,
    /// The wall-clock origin spans measure their start offsets from.
    /// Equal to `started` on the installing thread; inherited from the
    /// parent recorder inside worker cells so all spans share a timeline.
    epoch: Instant,
    /// Currently open spans, outermost first.
    open_spans: Vec<OpenSpan>,
}

thread_local! {
    static ACTIVE: RefCell<Option<ActiveCollector>> = const { RefCell::new(None) };
}

fn fresh(settings: Settings, epoch: Instant) -> ActiveCollector {
    ActiveCollector {
        collector: Collector {
            settings,
            manifest: Vec::new(),
            warnings: Vec::new(),
            total_cycles: 0,
            total_uops: 0,
            wall_seconds: 0.0,
            spans: Vec::new(),
            sections: Vec::new(),
            output: TelemetryOutput::default(),
        },
        started: Instant::now(),
        epoch,
        open_spans: Vec::new(),
    }
}

/// Installs a collector on this thread, replacing (and discarding) any
/// previous one.
pub fn install(settings: Settings) {
    install_with_epoch(settings, Instant::now());
}

/// [`install`] with an explicit span epoch — used by
/// [`WorkerHandle::record_cell`] to keep worker-cell span timelines
/// aligned with the installing thread's.
fn install_with_epoch(settings: Settings, epoch: Instant) {
    ACTIVE.with(|slot| {
        *slot.borrow_mut() = Some(fresh(settings, epoch));
    });
}

/// The active settings, or `None` when telemetry is disabled. This is the
/// branch instrumented code takes on its cold path.
pub fn settings() -> Option<Settings> {
    ACTIVE.with(|slot| slot.borrow().as_ref().map(|a| a.collector.settings))
}

/// Whether a collector is installed on this thread.
pub fn active() -> bool {
    ACTIVE.with(|slot| slot.borrow().is_some())
}

/// Detaches the collector, stamping the total wall time. A span (phase
/// or not) still open (e.g. because its guard leaked) is closed rather
/// than dropped. Returns `None` when telemetry was never
/// installed.
pub fn finish() -> Option<Collector> {
    ACTIVE.with(|slot| {
        slot.borrow_mut().take().map(|mut active| {
            close_spans_down_to(&mut active, 0);
            let mut collector = active.collector;
            collector.wall_seconds = active.started.elapsed().as_secs_f64();
            collector
        })
    })
}

/// Replaces the value stored under `key`, or appends the pair when the
/// key is new, keeping first-insertion order.
fn replace_by_key(entries: &mut Vec<(String, Json)>, key: String, value: Json) {
    match entries.iter_mut().find(|(k, _)| *k == key) {
        Some((_, v)) => *v = value,
        None => entries.push((key, value)),
    }
}

/// Adds (or replaces) a manifest entry. No-op when disabled.
pub fn manifest_entry(key: &str, value: Json) {
    ACTIVE.with(|slot| {
        if let Some(active) = slot.borrow_mut().as_mut() {
            replace_by_key(&mut active.collector.manifest, key.to_string(), value);
        }
    });
}

/// Adds (or replaces) a driver-contributed report section: `value` is
/// emitted verbatim as the top-level report key `name`. A section named
/// after a reserved top-level key (`schema_version`, `manifest`, …) is
/// silently skipped when the report is built, so sections must pick fresh
/// names and version themselves with a `<name>_schema` field. No-op when
/// disabled.
pub fn section(name: &str, value: Json) {
    ACTIVE.with(|slot| {
        if let Some(active) = slot.borrow_mut().as_mut() {
            replace_by_key(&mut active.collector.sections, name.to_string(), value);
        }
    });
}

/// Records a degradation warning (a fallback taken, an environment
/// variable ignored) so the run report distinguishes a degraded run from a
/// clean one. No-op when disabled.
pub fn warning(message: impl Into<String>) {
    ACTIVE.with(|slot| {
        if let Some(active) = slot.borrow_mut().as_mut() {
            active.collector.warnings.push(message.into());
        }
    });
}

/// Credits a completed pipeline run's cycles and uops to the totals, and
/// so to every open span (phases included). No-op when disabled.
pub fn record_run(cycles: u64, uops: u64) {
    ACTIVE.with(|slot| {
        if let Some(active) = slot.borrow_mut().as_mut() {
            active.collector.total_cycles += cycles;
            active.collector.total_uops += uops;
        }
    });
}

/// Merges one instrumented run's structure telemetry. No-op when disabled.
pub fn absorb(output: &TelemetryOutput) {
    ACTIVE.with(|slot| {
        if let Some(active) = slot.borrow_mut().as_mut() {
            active.collector.output.merge(output);
        }
    });
}

/// Merges a worker-produced [`Snapshot`] into this thread's recorder:
/// manifest entries replace by key, warnings append in the snapshot's
/// order, totals add and structure telemetry merges. The cell's span tree
/// (phases included) appends with parent indices rebased, its roots
/// adopted by whatever span this thread has open (the sweep span) — so
/// absorbing snapshots in cell-index order rebuilds the same tree a
/// serial run would have produced. No-op when disabled (the snapshot is
/// dropped, matching the facade's contract).
pub fn absorb_snapshot(snapshot: Snapshot) {
    ACTIVE.with(|slot| {
        if let Some(active) = slot.borrow_mut().as_mut() {
            for (key, value) in snapshot.manifest {
                replace_by_key(&mut active.collector.manifest, key, value);
            }
            active.collector.warnings.extend(snapshot.warnings);
            active.collector.total_cycles += snapshot.total_cycles;
            active.collector.total_uops += snapshot.total_uops;
            let base = active.collector.spans.len();
            let adoptive = active.open_spans.last().map(|open| open.index);
            for span in snapshot.spans {
                let parent = span.parent.map(|p| p + base).or(adoptive);
                active.collector.spans.push(SpanRecord { parent, ..span });
            }
            active.collector.output.merge(&snapshot.output);
        }
    });
}

/// Opens a span on this thread's recorder, parented under the innermost
/// open span and marked as a phase when `phase` is set. Returns the
/// span's record index (the close token), or `None` when telemetry is
/// disabled. Called via [`crate::span::enter`]; not part of the public
/// API.
pub(crate) fn open_span(name: &'static str, phase: bool) -> Option<usize> {
    ACTIVE.with(|slot| {
        slot.borrow_mut().as_mut().map(|active| {
            let index = active.collector.spans.len();
            active.collector.spans.push(SpanRecord {
                name,
                parent: active.open_spans.last().map(|open| open.index),
                cycles: 0,
                uops: 0,
                wall_start_seconds: active.epoch.elapsed().as_secs_f64(),
                wall_seconds: 0.0,
                phase,
            });
            active.open_spans.push(OpenSpan {
                index,
                started: Instant::now(),
                base_cycles: active.collector.total_cycles,
                base_uops: active.collector.total_uops,
            });
            index
        })
    })
}

/// Closes the span with the given token, along with any child span still
/// open inside it (a guard dropped out of order closes its abandoned
/// children rather than corrupt the open stack). A token from a recorder
/// that is no longer installed is ignored.
pub(crate) fn close_span(index: usize) {
    ACTIVE.with(|slot| {
        if let Some(active) = slot.borrow_mut().as_mut() {
            if let Some(position) = active.open_spans.iter().position(|o| o.index == index) {
                close_spans_down_to(active, position);
            }
        }
    });
}

/// Pops and finalizes open spans until only `keep` remain.
fn close_spans_down_to(active: &mut ActiveCollector, keep: usize) {
    while active.open_spans.len() > keep {
        if let Some(open) = active.open_spans.pop() {
            let record = &mut active.collector.spans[open.index];
            record.cycles = active.collector.total_cycles - open.base_cycles;
            record.uops = active.collector.total_uops - open.base_uops;
            record.wall_seconds = open.started.elapsed().as_secs_f64();
        }
    }
}

/// Runs `body` as a named phase: a span marked `phase`, which the run
/// report also lists under `phases`. Like any span it records its wall
/// time and the cycles / uops credited while it ran, and a phase opened
/// inside a phase nests. When telemetry is disabled the closure runs with
/// no bookkeeping at all. Panic-safe: a body that unwinds still closes
/// its phase on the way out.
pub fn phase<R>(name: &str, body: impl FnOnce() -> R) -> R {
    let _span = crate::span::enter_named(name, true);
    body()
}

/// A cloneable, `Send` capture of this thread's recording decision, taken
/// with [`worker_handle`]. Worker threads (or the same thread, between
/// cells) use it to run units of work under private recorders that inherit
/// the parent's settings; the resulting [`Snapshot`]s merge back with
/// [`absorb_snapshot`].
#[derive(Debug, Clone)]
pub struct WorkerHandle {
    settings: Option<Settings>,
    /// The parent recorder's span epoch, shared with every cell recorder
    /// so worker-side span timelines line up with the installing
    /// thread's.
    epoch: Instant,
}

/// Captures whether (and how) a recorder is installed on this thread, for
/// handing to worker threads.
pub fn worker_handle() -> WorkerHandle {
    ACTIVE.with(|slot| {
        let slot = slot.borrow();
        WorkerHandle {
            settings: slot.as_ref().map(|active| active.collector.settings),
            epoch: slot
                .as_ref()
                .map_or_else(Instant::now, |active| active.epoch),
        }
    })
}

/// Removes whatever is installed on this thread when dropped, reinstating
/// the slot's previous occupant — including on unwind.
struct RestoreGuard {
    saved: Option<ActiveCollector>,
}

impl Drop for RestoreGuard {
    fn drop(&mut self) {
        let saved = self.saved.take();
        ACTIVE.with(|slot| *slot.borrow_mut() = saved);
    }
}

impl WorkerHandle {
    /// Whether the installing thread had a recorder when the handle was
    /// captured (i.e. whether `record_cell` will produce snapshots).
    pub fn recording(&self) -> bool {
        self.settings.is_some()
    }

    /// Runs one unit of work under a private recorder inheriting the
    /// captured settings, returning its result and the detached
    /// [`Snapshot`] (`None` when recording is off — the body then runs
    /// with no bookkeeping at all).
    ///
    /// Safe to call on the installing thread itself: the installed
    /// recorder is set aside for the duration and reinstated afterwards.
    /// Panic-safe: if `body` unwinds, the private recorder is discarded
    /// and the previous occupant of the slot reinstated before the panic
    /// continues, so no stale collector ever leaks into later cells.
    pub fn record_cell<R>(&self, body: impl FnOnce() -> R) -> (R, Option<Snapshot>) {
        let Some(settings) = self.settings else {
            return (body(), None);
        };
        let saved = ACTIVE.with(|slot| slot.borrow_mut().take());
        install_with_epoch(settings, self.epoch);
        let guard = RestoreGuard { saved };
        let result = body();
        let cell = finish();
        drop(guard); // reinstates whatever was installed before the cell
        (result, cell.map(Collector::into_snapshot))
    }
}

impl Collector {
    /// The completed phases: the spans marked `phase`, in open order.
    pub fn phases(&self) -> impl Iterator<Item = &SpanRecord> {
        self.spans.iter().filter(|span| span.phase)
    }

    /// Converts a detached per-cell collector into its mergeable,
    /// wall-clock-free snapshot.
    pub fn into_snapshot(self) -> Snapshot {
        Snapshot {
            manifest: self.manifest,
            warnings: self.warnings,
            total_cycles: self.total_cycles,
            total_uops: self.total_uops,
            spans: self.spans,
            output: self.output,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert() {
        let _ = finish(); // clear anything a previous test left behind
        assert!(!active());
        assert!(settings().is_none());
        record_run(100, 50);
        manifest_entry("k", Json::from("v"));
        warning("dropped");
        let ran = phase("p", || 42);
        assert_eq!(ran, 42);
        assert!(finish().is_none());
    }

    #[test]
    fn collects_phases_runs_and_manifest() {
        install(Settings::default());
        manifest_entry("binary", Json::from("test"));
        manifest_entry("binary", Json::from("test2")); // replaces
        warning("fallback taken");
        let out = phase("warmup", || {
            record_run(1_000, 400);
            "done"
        });
        assert_eq!(out, "done");
        phase("main", || {
            record_run(2_000, 900);
        });
        record_run(10, 5); // outside any phase: totals only
        let collector = finish().expect("installed");
        assert!(!active(), "finish detaches");

        assert_eq!(collector.total_cycles, 3_010);
        assert_eq!(collector.total_uops, 1_305);
        let phases: Vec<(&str, u64)> = collector.phases().map(|p| (p.name, p.cycles)).collect();
        assert_eq!(phases, vec![("warmup", 1_000), ("main", 2_000)]);
        assert_eq!(collector.manifest.len(), 1);
        assert_eq!(collector.warnings, vec!["fallback taken".to_string()]);
        assert_eq!(
            collector.manifest[0].1.as_str(),
            Some("test2"),
            "manifest entries replace by key"
        );
    }

    #[test]
    fn phase_body_may_touch_the_recorder() {
        install(Settings::default());
        // A body that opens its own phase must not deadlock or panic on a
        // held borrow; the inner phase nests like any span.
        phase("outer", || {
            record_run(3, 1);
            phase("inner", || record_run(5, 5));
        });
        let collector = finish().expect("installed");
        let phases: Vec<(&str, u64)> = collector.phases().map(|p| (p.name, p.cycles)).collect();
        assert_eq!(
            phases,
            vec![("outer", 8), ("inner", 5)],
            "open order, and the outer phase includes the inner's cycles"
        );
    }

    #[test]
    fn install_resets_previous_state() {
        install(Settings::default());
        record_run(1, 1);
        install(Settings {
            sample_period: 7,
            series_capacity: 3,
        });
        let collector = finish().expect("installed");
        assert_eq!(collector.total_cycles, 0, "reinstall discards");
        assert_eq!(collector.settings.sample_period, 7);
    }

    #[test]
    fn finish_closes_an_open_phase() {
        install(Settings::default());
        // Open a phase without going through the closure facade: simulate
        // an unwind that escaped the guard by opening and never closing.
        let leaked = crate::span::enter_named("interrupted", true);
        record_run(500, 100);
        let collector = finish().expect("installed");
        drop(leaked); // stale guard against a gone recorder: no-op
        let phases: Vec<(&str, u64)> = collector.phases().map(|p| (p.name, p.cycles)).collect();
        assert_eq!(
            phases,
            vec![("interrupted", 500)],
            "open phase flushed by finish"
        );
    }

    #[test]
    fn phase_closes_on_unwind() {
        install(Settings::default());
        let unwound = std::panic::catch_unwind(|| {
            phase("doomed", || {
                record_run(100, 10);
                panic!("boom");
            })
        });
        assert!(unwound.is_err());
        let collector = finish().expect("installed");
        let phases: Vec<(&str, u64)> = collector.phases().map(|p| (p.name, p.cycles)).collect();
        assert_eq!(phases, vec![("doomed", 100)], "phase closed by the guard");
    }

    #[test]
    fn worker_handle_is_inert_when_nothing_is_installed() {
        let _ = finish();
        let handle = worker_handle();
        assert!(!handle.recording());
        let (out, snapshot) = handle.record_cell(|| {
            record_run(1, 1); // silently dropped: nothing installed
            7
        });
        assert_eq!(out, 7);
        assert!(snapshot.is_none());
        assert!(!active());
    }

    #[test]
    fn record_cell_inherits_settings_and_detaches_a_snapshot() {
        install(Settings {
            sample_period: 99,
            series_capacity: 5,
        });
        record_run(10, 10);
        let handle = worker_handle();
        assert!(handle.recording());
        let (out, snapshot) = handle.record_cell(|| {
            assert_eq!(
                settings().map(|s| s.sample_period),
                Some(99),
                "cell inherits the parent's settings"
            );
            phase("cell work", || record_run(1_000, 400));
            "cell done"
        });
        assert_eq!(out, "cell done");
        let snapshot = snapshot.expect("recording was on");
        assert_eq!(snapshot.total_cycles, 1_000);
        assert_eq!(snapshot.spans.iter().filter(|s| s.phase).count(), 1);

        // The parent recorder is back in place, untouched by the cell.
        assert_eq!(settings().map(|s| s.sample_period), Some(99));
        absorb_snapshot(snapshot);
        let collector = finish().expect("parent still installed");
        assert_eq!(collector.total_cycles, 1_010, "cell totals merged");
        let names: Vec<&str> = collector.phases().map(|p| p.name).collect();
        assert_eq!(names, vec!["cell work"]);
    }

    #[test]
    fn record_cell_restores_the_parent_on_panic() {
        install(Settings::default());
        record_run(42, 7);
        let handle = worker_handle();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            handle.record_cell(|| {
                record_run(9_999, 9_999);
                panic!("worker died");
            })
        }));
        assert!(unwound.is_err());
        // The panicking cell's recorder is gone; the parent survives with
        // its own totals only.
        let collector = finish().expect("parent reinstated");
        assert_eq!(collector.total_cycles, 42, "no stale cell state leaked");
    }

    #[test]
    fn snapshots_merge_deterministically_by_call_order() {
        install(Settings::default());
        let handle = worker_handle();
        let (_, first) = handle.record_cell(|| phase("a", || record_run(1, 1)));
        let (_, second) = handle.record_cell(|| phase("b", || record_run(2, 2)));
        // Simulate out-of-order completion: absorb in cell-index order
        // regardless of which snapshot was produced first.
        absorb_snapshot(first.expect("recording on"));
        absorb_snapshot(second.expect("recording on"));
        let collector = finish().expect("installed");
        let names: Vec<&str> = collector.phases().map(|p| p.name).collect();
        assert_eq!(names, vec!["a", "b"]);
        assert_eq!(collector.total_cycles, 3);
    }
}
