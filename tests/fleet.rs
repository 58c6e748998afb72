//! Integration tests for fleet-scale Monte Carlo sweeps: the mergeable
//! sketches must be partition-invariant (any way of splitting the
//! observation stream into cells merges back to the union-stream sketch),
//! and the fleet driver's report must stay byte-identical across jobs
//! settings and across a crash-and-resume through the checkpoint journal.

use penelope::error::Error;
use penelope::experiments::Scale;
use penelope::fleet::{self, FleetConfig, FleetSketch, FleetSummary};
use penelope::journal::CheckpointContext;
use penelope::par;
use penelope_telemetry::{build_report, recorder};
use proptest::prelude::*;

mod common;
use common::{canonicalize, global_lock, header, settings, tmp_path, truncate_journal};

/// Runs the quick-scale fleet driver at the given jobs setting (with an
/// optional checkpoint context armed) and returns the canonicalized
/// report encoding plus the summary.
fn run_fleet(jobs: usize, context: Option<CheckpointContext>) -> (String, FleetSummary) {
    par::set_jobs(jobs);
    par::set_checkpoint(context);
    recorder::install(settings());
    let result: Result<FleetSummary, Error> =
        fleet::fleet(Scale::quick(), FleetConfig::for_scale(Scale::quick()));
    let collector = recorder::finish().expect("recorder was installed");
    par::set_checkpoint(None);
    par::set_jobs(0);
    let summary = result.expect("quick-scale fleet runs");
    let mut report = build_report(&collector);
    canonicalize(&mut report);
    (report.encode(), summary)
}

// ------------------------------------------------ partition invariance

/// A deterministic observation stream: (guardband, duty, vmin) triples in
/// the sketches' metric ranges.
fn observations(len: usize, seed: u64) -> Vec<(f64, f64, f64)> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            let mut next = || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 11) as f64 / (1u64 << 53) as f64
            };
            (0.25 * next(), 0.5 + 0.5 * next(), 0.125 * next())
        })
        .collect()
}

/// Observes a slice of the stream (global indices preserved) into a
/// fresh per-cell sketch.
fn observe_slice(xs: &[(f64, f64, f64)], from: usize, to: usize) -> FleetSketch {
    let mut sketch = FleetSketch::empty();
    for (i, &(g, d, v)) in xs[from..to].iter().enumerate() {
        sketch.observe((from + i) as u64, g, d, v);
    }
    sketch
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any partition of the stream into contiguous cells, merged in cell
    /// order, equals observing the whole stream: counts, histograms and
    /// the worst-core argmax exactly, moments to float tolerance.
    #[test]
    fn any_partition_merges_to_the_union_stream(
        seed in 0u64..1_000,
        len in 1usize..400,
        cuts in proptest::collection::vec(0usize..400, 0..6),
    ) {
        let xs = observations(len, seed);
        let whole = observe_slice(&xs, 0, len);

        let mut bounds: Vec<usize> = cuts.into_iter().map(|c| c % (len + 1)).collect();
        bounds.push(0);
        bounds.push(len);
        bounds.sort_unstable();
        let merged = bounds
            .windows(2)
            .map(|w| observe_slice(&xs, w[0], w[1]))
            .fold(FleetSketch::empty(), |mut acc, cell| {
                acc.merge(&cell);
                acc
            });

        prop_assert_eq!(merged.instances, whole.instances);
        prop_assert_eq!(&merged.guardband.histogram, &whole.guardband.histogram);
        prop_assert_eq!(&merged.duty.histogram, &whole.duty.histogram);
        prop_assert_eq!(&merged.vmin.histogram, &whole.vmin.histogram);
        prop_assert_eq!(merged.worst, whole.worst);
        for (m, w) in [
            (&merged.guardband.moments, &whole.guardband.moments),
            (&merged.duty.moments, &whole.duty.moments),
            (&merged.vmin.moments, &whole.vmin.moments),
        ] {
            prop_assert_eq!(m.count, w.count);
            prop_assert_eq!(m.min, w.min);
            prop_assert_eq!(m.max, w.max);
            prop_assert!((m.mean - w.mean).abs() < 1e-12, "mean {} vs {}", m.mean, w.mean);
            prop_assert!((m.m2 - w.m2).abs() < 1e-9, "m2 {} vs {}", m.m2, w.m2);
        }
    }
}

// ----------------------------------------------------- driver pinning

#[test]
fn fleet_reports_are_byte_identical_across_jobs_settings() {
    let _guard = global_lock();
    let (serial_report, serial) = run_fleet(1, None);
    let (parallel_report, parallel) = run_fleet(4, None);
    assert_eq!(serial, parallel, "fleet summary must not depend on --jobs");
    assert_eq!(
        serial_report, parallel_report,
        "fleet report differs across jobs outside wall-clock fields"
    );
    // The summary is non-degenerate: the whole quick fleet was observed
    // and the distribution blocks are populated.
    assert_eq!(serial.sketch.instances, serial.config.fleet_size);
    assert!(serial.sketch.worst.is_some());
}

#[test]
fn an_interrupted_fleet_sweep_resumes_byte_identically() {
    let _guard = global_lock();
    let (baseline_report, baseline) = run_fleet(1, None);

    for jobs in [1, 4] {
        let path = tmp_path(&format!("fleet-jobs{jobs}.jsonl"));

        // A clean checkpointed run is indistinguishable from an
        // uncheckpointed one.
        let context = CheckpointContext::create(&path, &header("fleet")).expect("journal opens");
        let (full_report, full) = run_fleet(jobs, Some(context));
        assert_eq!(full, baseline, "jobs={jobs}");
        assert_eq!(full_report, baseline_report, "jobs={jobs}");

        // Crash after three completed cells, then resume.
        let kept = truncate_journal(&path, 3);
        let context = CheckpointContext::resume(&path, &header("fleet")).expect("resume succeeds");
        assert_eq!(context.restored_cells(), kept, "jobs={jobs}");
        let (resumed_report, resumed) = run_fleet(jobs, Some(context));
        assert_eq!(resumed, baseline, "jobs={jobs}");
        assert_eq!(
            resumed_report, baseline_report,
            "resumed fleet sweep must be byte-identical to an uninterrupted run (jobs={jobs})"
        );
    }
}
