//! Integration tests for the arbitrary-netlist study: the differential
//! oracle (a BLIF-exported Ladner-Fischer adder must age bit-identically
//! to the legacy in-memory path, and DCE/partitioning must never change
//! aging results), byte-identity of the driver's report across `--jobs`
//! settings and crash-and-resume, and golden report-hash pins for the
//! bundled decoder and multiplier fixtures at standard scale.

use gatesim::adder::LadnerFischerAdder;
use gatesim::blif;
use gatesim::passes::{self, MergedStress, PartitionStress, PassConfig};
use gatesim::pmos::PmosTable;
use gatesim::stress::StressTracker;
use nbti_model::guardband::GuardbandModel;
use penelope::error::Error;
use penelope::experiments::Scale;
use penelope::journal::CheckpointContext;
use penelope::netlist_study::{self, stimulus, NetlistConfig, NetlistSource, NetlistSummary};
use penelope::par;
use penelope_telemetry::{build_report, recorder};
use proptest::prelude::*;

mod common;
use common::{canonicalize, fnv1a, global_lock, header, settings, tmp_path, truncate_journal};

/// Runs the netlist driver at the given jobs setting (optionally with a
/// checkpoint context armed) and returns the canonicalized report
/// encoding plus the summary.
fn run_study(
    config: &NetlistConfig,
    jobs: usize,
    context: Option<CheckpointContext>,
) -> (String, NetlistSummary) {
    par::set_jobs(jobs);
    par::set_checkpoint(context);
    recorder::install(settings());
    let result: Result<NetlistSummary, Error> = netlist_study::netlist_study(config);
    let collector = recorder::finish().expect("recorder was installed");
    par::set_checkpoint(None);
    par::set_jobs(0);
    let summary = result.expect("the study runs");
    let mut report = build_report(&collector);
    canonicalize(&mut report);
    (report.encode(), summary)
}

// ------------------------------------------------- differential oracle

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The Ladner-Fischer adder exported to BLIF and re-imported through
    /// the full pass pipeline ages *bit-identically* to the legacy
    /// in-memory path, under arbitrary vector sets and partition counts —
    /// and DCE/partitioning never change any transistor's duty.
    #[test]
    fn exported_adder_ages_identically_to_the_legacy_path(
        ops in proptest::collection::vec(
            (any::<u64>(), any::<u64>(), any::<bool>(), 1u64..8),
            1..40,
        ),
        partitions in 1usize..7,
        seed in 0u64..1_000,
    ) {
        let adder = LadnerFischerAdder::new(8);
        let vectors: Vec<(Vec<bool>, u64)> = ops
            .iter()
            .map(|&(a, b, cin, d)| (adder.input_assignment(a & 0xFF, b & 0xFF, cin), d))
            .collect();

        // Legacy path: a global tracker over the in-memory netlist.
        let mut tracker = StressTracker::new(adder.netlist());
        for (assignment, duration) in &vectors {
            tracker.apply(adder.netlist(), assignment, *duration);
        }

        // BLIF path: export, re-import, compile (DCE + mapping +
        // partitioning), accumulate each partition, merge.
        let text = blif::export(adder.netlist(), "lf8");
        let model = blif::parse(&text).expect("exported adders parse");
        let config = PassConfig {
            dce: true,
            fanout_threshold: PmosTable::DEFAULT_WIDE_FANOUT,
            partitions,
            seed,
        };
        let compiled = passes::compile(model.into_netlist(), &config).expect("compiles");
        prop_assert_eq!(compiled.dce.removed_gates, 0, "the adder is fully live");
        let cells: Vec<PartitionStress> = (0..partitions)
            .map(|part| {
                passes::accumulate_partition(
                    &compiled.netlist,
                    &compiled.table,
                    &compiled.partition,
                    part,
                    &vectors,
                )
                .expect("stimulus arity matches")
            })
            .collect();
        let merged = MergedStress::merge(&compiled.table, &compiled.partition, &cells)
            .expect("all partitions present");

        // Bit-for-bit: every transistor, plus the derived guardband.
        prop_assert_eq!(compiled.table.len(), tracker.table().len());
        prop_assert_eq!(merged.observed_time(), tracker.observed_time());
        for flat in 0..compiled.table.len() {
            prop_assert_eq!(
                merged.duty_of(flat).fraction().to_bits(),
                tracker.duty_of(flat).fraction().to_bits(),
                "transistor {} (partitions={}, seed={})", flat, partitions, seed
            );
        }
        let model = GuardbandModel::paper_calibrated();
        let narrow_worst = compiled
            .table
            .transistors()
            .iter()
            .enumerate()
            .filter(|(_, t)| t.width == gatesim::pmos::WidthClass::Narrow)
            .map(|(i, _)| merged.duty_of(i))
            .fold(nbti_model::duty::Duty::ZERO, |w, d| if d > w { d } else { w });
        prop_assert_eq!(
            model.guardband(narrow_worst),
            tracker.guardband(adder.netlist(), &model)
        );
    }
}

/// At the driver level: the exported-adder study reports the same aging
/// whatever the pass pipeline (DCE on/off, 1 vs 4 partitions) — passes
/// reorganize the work, never the physics.
#[test]
fn pass_pipeline_never_changes_driver_aging_results() {
    let _guard = global_lock();
    let base = NetlistConfig {
        source: NetlistSource::AdderExport,
        ..NetlistConfig::for_scale(Scale::quick())
    };
    let mut minimal = base.clone();
    minimal.passes = PassConfig::parse("map").expect("parses"); // no DCE, 1 partition
    let (_, full) = run_study(&base, 1, None);
    let (_, min) = run_study(&minimal, 1, None);
    assert_eq!(full.worst_duty, min.worst_duty);
    assert_eq!(full.worst_narrow_duty, min.worst_narrow_duty);
    assert_eq!(full.duty_p50.to_bits(), min.duty_p50.to_bits());
    assert_eq!(full.duty_p95.to_bits(), min.duty_p95.to_bits());
    assert_eq!(full.duty_p99.to_bits(), min.duty_p99.to_bits());
    assert_eq!(
        full.worst_vth_shift.to_bits(),
        min.worst_vth_shift.to_bits()
    );
    assert_eq!(full.guardband.to_bits(), min.guardband.to_bits());
    assert_eq!(full.observed_time, min.observed_time);
    assert_eq!(full.transistors, min.transistors, "LF adder is fully live");
}

// ----------------------------------------------------- driver pinning

#[test]
fn netlist_reports_are_byte_identical_across_jobs_settings() {
    let _guard = global_lock();
    let config = NetlistConfig::for_scale(Scale::quick());
    let (serial_report, serial) = run_study(&config, 1, None);
    let (parallel_report, parallel) = run_study(&config, 4, None);
    assert_eq!(serial, parallel, "summary must not depend on --jobs");
    assert_eq!(
        serial_report, parallel_report,
        "netlist report differs across jobs outside wall-clock fields"
    );
    assert_eq!(serial.partitions.len(), 4);
    assert!(serial.observed_time > 0);
}

#[test]
fn an_interrupted_netlist_study_resumes_byte_identically() {
    let _guard = global_lock();
    let config = NetlistConfig::for_scale(Scale::quick());
    let (baseline_report, baseline) = run_study(&config, 1, None);

    for jobs in [1, 4] {
        let path = tmp_path(&format!("netlist-jobs{jobs}.jsonl"));

        // A clean checkpointed run is indistinguishable from an
        // uncheckpointed one.
        let context = CheckpointContext::create(&path, &header("netlist")).expect("journal opens");
        let (full_report, full) = run_study(&config, jobs, Some(context));
        assert_eq!(full, baseline, "jobs={jobs}");
        assert_eq!(full_report, baseline_report, "jobs={jobs}");

        // Crash after two completed partition cells, then resume.
        let kept = truncate_journal(&path, 2);
        let context =
            CheckpointContext::resume(&path, &header("netlist")).expect("resume succeeds");
        assert_eq!(context.restored_cells(), kept, "jobs={jobs}");
        let (resumed_report, resumed) = run_study(&config, jobs, Some(context));
        assert_eq!(resumed, baseline, "jobs={jobs}");
        assert_eq!(
            resumed_report, baseline_report,
            "resumed netlist study must be byte-identical to an uninterrupted run (jobs={jobs})"
        );
    }
}

// --------------------------------------------------------- golden pins
//
// The decoder/multiplier fixture reports at standard scale are pinned by
// hash, `tests/golden.rs` style: any drift in the parser, the pass
// pipeline, the stimulus campaign, the stress accounting or the report
// layout flips the hash. Wall-clock fields are stripped before hashing;
// the pins must hold at `--jobs 1` and `--jobs 4` alike.

const DECODER_REPORT_FNV1A: u64 = 0xa135_be4c_17a1_81db;
const MULTIPLIER_REPORT_FNV1A: u64 = 0x8f60_da64_8348_ddab;

fn golden_config(source: NetlistSource) -> NetlistConfig {
    NetlistConfig {
        source,
        ..NetlistConfig::for_scale(Scale::standard())
    }
}

#[test]
fn decoder_report_matches_the_golden_hash() {
    let _guard = global_lock();
    for jobs in [1, 4] {
        let (report, summary) = run_study(&golden_config(NetlistSource::Decoder), jobs, None);
        assert_eq!(summary.model, "decoder4x16");
        let hash = fnv1a(report.as_bytes());
        assert_eq!(
            hash, DECODER_REPORT_FNV1A,
            "decoder report drifted from the golden at jobs={jobs}: \
             got {hash:#018x}, pinned {DECODER_REPORT_FNV1A:#018x}"
        );
    }
}

#[test]
fn multiplier_report_matches_the_golden_hash() {
    let _guard = global_lock();
    for jobs in [1, 4] {
        let (report, summary) = run_study(&golden_config(NetlistSource::Multiplier), jobs, None);
        assert_eq!(summary.model, "mul4x4");
        let hash = fnv1a(report.as_bytes());
        assert_eq!(
            hash, MULTIPLIER_REPORT_FNV1A,
            "multiplier report drifted from the golden at jobs={jobs}: \
             got {hash:#018x}, pinned {MULTIPLIER_REPORT_FNV1A:#018x}"
        );
    }
}

// ------------------------------------------------- stimulus guardrails

/// The driver's deterministic campaign is itself pinned: same seed, same
/// vectors; and the vector width always matches the netlist, so the
/// fallible evaluation path never trips on driver-generated stimulus.
#[test]
fn driver_stimulus_fits_every_bundled_source() {
    for source in [
        NetlistSource::Decoder,
        NetlistSource::Multiplier,
        NetlistSource::AdderExport,
    ] {
        let model = blif::parse(&source.blif()).expect("bundled sources parse");
        let inputs = model.netlist().inputs().len();
        for (assignment, duration) in stimulus(inputs, 16, 99) {
            assert_eq!(assignment.len(), inputs);
            assert!((1..=7).contains(&duration));
            model
                .netlist()
                .try_evaluate(&assignment)
                .expect("driver stimulus always fits");
        }
    }
}
