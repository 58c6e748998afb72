//! Arbitrary-netlist aging studies: BLIF in, partitioned stress out.
//!
//! The combinational-block chapters of the paper age one hand-built
//! circuit (the Ladner-Fischer adder). This driver generalizes that to
//! *any* combinational netlist: a BLIF model (bundled fixture, an
//! exported adder, or a file handed to the `netlist` bench binary) is
//! lowered through the [`gatesim::blif`] front end, compiled by the
//! [`gatesim::passes`] pipeline — dead-cone elimination, instance mapping
//! onto the PMOS stress model, a seeded deterministic partition — and
//! then aged under a seeded stimulus campaign.
//!
//! The stimulus campaign is generated once, packed 64 vectors to a block
//! ([`packed_stimulus`]). Partitions run as hermetic cells on the [`par`]
//! engine: each cell reads that one immutable campaign and accumulates
//! exact integer stress counters for the transistors its partition owns
//! ([`gatesim::passes::accumulate_packed`]), the merge
//! reassembles them in cell-index order
//! ([`gatesim::passes::MergedStress`]), and because the counters are
//! integers the merged duties are bit-identical to a single global
//! [`StressTracker`](gatesim::stress::StressTracker) at any partition
//! count, `--jobs` setting, or crash-and-resume through the checkpoint
//! journal (each [`PartitionStress`] implements [`CellPayload`]).

use gatesim::adder::LadnerFischerAdder;
use gatesim::blif::{self, fixtures};
use gatesim::passes::{self, MergedStress, PartitionStress, PassConfig};
use gatesim::pmos::WidthClass;
use gatesim::stress::PackedCampaign;
use nbti_model::duty::Duty;
use nbti_model::guardband::GuardbandModel;
use nbti_model::lifetime::LifetimeModel;
use nbti_model::variation::mix64;
use penelope_telemetry::{recorder, Json};

use crate::error::Error;
use crate::experiments::Scale;
use crate::journal::CellPayload;
use crate::par;

/// Default seed of the stimulus campaign (and, through
/// [`NetlistConfig::for_scale`], the partition placement).
pub const DEFAULT_STIMULUS_SEED: u64 = 0xB11F_5EED;

/// Width of the exported-adder source: large enough that the pass
/// pipeline has real work, small enough for quick-scale CI.
const ADDER_EXPORT_WIDTH: usize = 16;

// --------------------------------------------------------------- source

/// Where the BLIF text comes from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetlistSource {
    /// The bundled 4-to-16 address decoder fixture.
    Decoder,
    /// The bundled 4x4 array multiplier fixture.
    Multiplier,
    /// A 16-bit Ladner-Fischer adder exported through [`blif::export`]
    /// and re-imported — the differential-testing path.
    AdderExport,
    /// BLIF text supplied by the caller (the bench binary's `--blif`).
    Text(String),
}

impl NetlistSource {
    /// Resolves a `--fixture` name.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] for an unknown name.
    pub fn from_fixture_name(name: &str) -> Result<Self, Error> {
        match name {
            "decoder" => Ok(NetlistSource::Decoder),
            "multiplier" => Ok(NetlistSource::Multiplier),
            "adder" => Ok(NetlistSource::AdderExport),
            other => Err(Error::config(format!(
                "unknown fixture {other:?} (expected decoder, multiplier or adder)"
            ))),
        }
    }

    /// The BLIF text of this source.
    pub fn blif(&self) -> String {
        match self {
            NetlistSource::Decoder => fixtures::DECODER.to_string(),
            NetlistSource::Multiplier => fixtures::MULTIPLIER.to_string(),
            NetlistSource::AdderExport => {
                let adder = LadnerFischerAdder::new(ADDER_EXPORT_WIDTH);
                blif::export(adder.netlist(), "lf16")
            }
            NetlistSource::Text(text) => text.clone(),
        }
    }

    /// Short label for the report manifest.
    pub fn label(&self) -> &'static str {
        match self {
            NetlistSource::Decoder => "decoder",
            NetlistSource::Multiplier => "multiplier",
            NetlistSource::AdderExport => "adder-export",
            NetlistSource::Text(_) => "file",
        }
    }
}

// ---------------------------------------------------------- configuration

/// Netlist study parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct NetlistConfig {
    /// Where the BLIF comes from.
    pub source: NetlistSource,
    /// The pass pipeline to compile it with.
    pub passes: PassConfig,
    /// Stimulus vectors applied (each held 1..=7 cycles).
    pub vectors: usize,
    /// Seed of the stimulus campaign.
    pub seed: u64,
}

impl NetlistConfig {
    /// The default study for a [`Scale`]: the multiplier fixture under the
    /// full pass pipeline, with 64 vectors at quick, 512 at standard and
    /// 2048 at thorough.
    pub fn for_scale(scale: Scale) -> Self {
        let vectors = if scale == Scale::quick() {
            64
        } else if scale == Scale::thorough() {
            2_048
        } else {
            512
        };
        NetlistConfig {
            source: NetlistSource::Multiplier,
            passes: PassConfig::default(),
            vectors,
            seed: DEFAULT_STIMULUS_SEED,
        }
    }

    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] for an empty campaign and the pass
    /// pipeline's own validation error for a degenerate [`PassConfig`].
    pub fn validate(&self) -> Result<(), Error> {
        if self.vectors == 0 {
            return Err(Error::config("stimulus campaign needs at least 1 vector"));
        }
        self.passes.validate()?;
        Ok(())
    }
}

// -------------------------------------------------------------- stimulus

/// Value of primary input `input` in vector `vector` of the campaign
/// seeded `seed`: vector 0 is all-zero, vector 1 all-one (the worst
/// static-stress patterns), the rest seeded random.
fn stimulus_bit(seed: u64, vector: usize, input: usize) -> bool {
    match vector {
        0 => false,
        1 => true,
        _ => {
            let word = seed
                ^ (vector as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
                ^ (input as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            mix64(word) & 1 == 1
        }
    }
}

/// Cycles vector `vector` is held for: seeded, in 1..=7.
fn stimulus_hold(seed: u64, vector: usize) -> u64 {
    1 + mix64(seed ^ 0xD0A7 ^ (vector as u64) << 17) % 7
}

/// The deterministic stimulus campaign: the two corner vectors (all-zero,
/// all-one — the worst static-stress patterns) followed by seeded random
/// vectors, each held for a seeded 1..=7 cycles. A pure function of
/// `(inputs, vectors, seed)`; [`packed_stimulus`] is the same campaign
/// packed for the stress engine.
pub fn stimulus(inputs: usize, vectors: usize, seed: u64) -> Vec<(Vec<bool>, u64)> {
    (0..vectors)
        .map(|j| {
            let assignment = (0..inputs).map(|i| stimulus_bit(seed, j, i)).collect();
            (assignment, stimulus_hold(seed, j))
        })
        .collect()
}

/// [`stimulus`] generated straight into a [`PackedCampaign`], 64 vectors
/// per block, with no per-vector assignment. Equal to packing
/// `stimulus(inputs, vectors, seed)`.
pub fn packed_stimulus(inputs: usize, vectors: usize, seed: u64) -> PackedCampaign {
    let mut campaign = PackedCampaign::new(inputs);
    for j in 0..vectors {
        campaign.push_with(stimulus_hold(seed, j), |i| stimulus_bit(seed, j, i));
    }
    campaign
}

// --------------------------------------------------------- cell payload

/// The payload is `[part, zero_time, total_time]`.
impl CellPayload for PartitionStress {
    fn to_payload(&self) -> Json {
        Json::Array(vec![
            (self.part as u64).to_payload(),
            self.zero_time.to_payload(),
            self.total_time.to_payload(),
        ])
    }

    fn from_payload(json: &Json) -> Result<Self, String> {
        let (part, zero_time, total_time) = <(u64, Vec<u64>, u64)>::from_payload(json)
            .map_err(|e| format!("partition stress [part, zero_time, total_time]: {e}"))?;
        Ok(PartitionStress {
            part: part as usize,
            zero_time,
            total_time,
        })
    }
}

// --------------------------------------------------------------- summary

/// Per-partition duty digest for the report section.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionDigest {
    /// Partition index.
    pub part: usize,
    /// Gates the partition owns.
    pub gates: usize,
    /// Transistors the partition owns.
    pub transistors: usize,
    /// Median duty among them.
    pub p50: f64,
    /// 95th-percentile duty.
    pub p95: f64,
    /// Largest duty.
    pub max: f64,
}

/// What the netlist study measured (and renders into the report's
/// `netlist` section).
#[derive(Debug, Clone, PartialEq)]
pub struct NetlistSummary {
    /// The BLIF model's name.
    pub model: String,
    /// Source label (fixture name or "file").
    pub source: &'static str,
    /// Primary inputs.
    pub inputs: usize,
    /// Primary outputs.
    pub outputs: usize,
    /// Gates after the pass pipeline.
    pub gates: usize,
    /// PMOS transistors mapped.
    pub transistors: usize,
    /// Wide (NBTI-resilient) transistors among them.
    pub wide_transistors: usize,
    /// Gates dead-cone elimination removed.
    pub dce_removed: usize,
    /// Partition placement seed.
    pub partition_seed: u64,
    /// Stimulus seed.
    pub stimulus_seed: u64,
    /// Stimulus vectors applied.
    pub vectors: usize,
    /// Total cycles observed.
    pub observed_time: u64,
    /// Whole-netlist duty percentiles (fractions).
    pub duty_p50: f64,
    /// 95th percentile.
    pub duty_p95: f64,
    /// 99th percentile.
    pub duty_p99: f64,
    /// Worst duty across every transistor.
    pub worst_duty: Duty,
    /// Worst duty among narrow transistors (sets the guardband, §4.3).
    pub worst_narrow_duty: Duty,
    /// End-of-campaign Vth shift of the worst-stressed gate input
    /// (normalized `ΔVth = d^m · t^n` units).
    pub worst_vth_shift: f64,
    /// Guardband fraction the block requires.
    pub guardband: f64,
    /// Per-partition digests, ascending partition index.
    pub partitions: Vec<PartitionDigest>,
}

/// Nearest-rank percentile over an ascending-sorted slice.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

impl NetlistSummary {
    /// The schema-versioned `netlist` report section
    /// (`penelope_telemetry::report::NETLIST_SCHEMA`).
    pub fn to_section(&self) -> Json {
        let mut section = Json::object();
        section.set(
            "netlist_schema",
            Json::UInt(penelope_telemetry::report::NETLIST_SCHEMA),
        );
        section.set("model", Json::from(self.model.as_str()));
        section.set("source", Json::from(self.source));
        section.set("inputs", Json::from(self.inputs));
        section.set("outputs", Json::from(self.outputs));
        section.set("gates", Json::from(self.gates));
        section.set("transistors", Json::from(self.transistors));
        section.set("wide_transistors", Json::from(self.wide_transistors));
        section.set("dce_removed", Json::from(self.dce_removed));
        section.set("partition_seed", Json::UInt(self.partition_seed));
        section.set("stimulus_seed", Json::UInt(self.stimulus_seed));
        section.set("vectors", Json::from(self.vectors));
        section.set("observed_time", Json::UInt(self.observed_time));
        let mut duty = Json::object();
        duty.set("p50", Json::Float(self.duty_p50));
        duty.set("p95", Json::Float(self.duty_p95));
        duty.set("p99", Json::Float(self.duty_p99));
        duty.set("max", Json::Float(self.worst_duty.fraction()));
        section.set("duty", duty);
        let mut worst = Json::object();
        worst.set("duty", Json::Float(self.worst_duty.fraction()));
        worst.set(
            "narrow_duty",
            Json::Float(self.worst_narrow_duty.fraction()),
        );
        worst.set("vth_shift", Json::Float(self.worst_vth_shift));
        worst.set("guardband", Json::Float(self.guardband));
        section.set("worst", worst);
        section.set(
            "partitions",
            Json::Array(
                self.partitions
                    .iter()
                    .map(|p| {
                        let mut obj = Json::object();
                        obj.set("part", Json::from(p.part));
                        obj.set("gates", Json::from(p.gates));
                        obj.set("transistors", Json::from(p.transistors));
                        obj.set("p50", Json::Float(p.p50));
                        obj.set("p95", Json::Float(p.p95));
                        obj.set("max", Json::Float(p.max));
                        obj
                    })
                    .collect(),
            ),
        );
        section
    }
}

// ---------------------------------------------------------------- driver

/// Runs the netlist study: parse, compile through the pass pipeline, age
/// each partition as a hermetic sweep cell, merge in cell-index order.
/// Contributes the `netlist` section to any active run report.
///
/// # Errors
///
/// Returns [`Error::Gatesim`] for BLIF/pass problems and [`Error::Config`]
/// for a degenerate campaign.
pub fn netlist_study(config: &NetlistConfig) -> Result<NetlistSummary, Error> {
    let _span = penelope_telemetry::span!("driver: netlist");
    config.validate()?;
    let text = config.source.blif();
    let model = blif::parse(&text)?;
    let model_name = model.name().to_string();
    let (inputs, outputs) = (model.input_names().len(), model.output_names().len());
    let compiled = passes::compile(model.into_netlist(), &config.passes)?;
    let netlist = &compiled.netlist;
    let table = &compiled.table;
    let partition = &compiled.partition;

    // Packed once; every partition cell reads the same immutable blocks.
    let campaign = packed_stimulus(netlist.inputs().len(), config.vectors, config.seed);
    let cells = {
        let _span = penelope_telemetry::span!("netlist: stress");
        par::try_cells_named("netlist:stress", partition.count(), |cell| {
            Ok(passes::accumulate_packed(
                netlist, table, partition, cell.index, &campaign,
            )?)
        })?
    };
    // Cell-index order is partition order: `try_cells_named` returns
    // results ordered by index at any jobs setting, and the merge
    // reassembles integer counters, so the duties below are bit-identical
    // to a serial, unpartitioned campaign.
    let merged = MergedStress::merge(table, partition, &cells)?;

    let duties: Vec<Duty> = merged.duties().collect();
    let mut sorted: Vec<f64> = duties.iter().map(|d| d.fraction()).collect();
    sorted.sort_by(f64::total_cmp);
    let worst_duty = duties
        .iter()
        .copied()
        .fold(Duty::ZERO, |w, d| if d > w { d } else { w });
    let worst_narrow_duty = table
        .transistors()
        .iter()
        .zip(&duties)
        .filter(|(t, _)| t.width == WidthClass::Narrow)
        .map(|(_, &d)| d)
        .fold(Duty::ZERO, |w, d| if d > w { d } else { w });

    let partitions: Vec<PartitionDigest> = (0..partition.count())
        .map(|part| {
            let mut owned: Vec<f64> = table
                .transistors()
                .iter()
                .zip(&duties)
                .filter(|(t, _)| partition.part_of(t.gate) == part)
                .map(|(_, d)| d.fraction())
                .collect();
            owned.sort_by(f64::total_cmp);
            PartitionDigest {
                part,
                gates: partition.gates_in(part).count(),
                transistors: owned.len(),
                p50: percentile(&owned, 0.50),
                p95: percentile(&owned, 0.95),
                max: owned.last().copied().unwrap_or(0.0),
            }
        })
        .collect();

    let lifetime = LifetimeModel::paper_calibrated();
    let guardband = GuardbandModel::paper_calibrated();
    let summary = NetlistSummary {
        model: model_name,
        source: config.source.label(),
        inputs,
        outputs,
        gates: netlist.gates().len(),
        transistors: table.len(),
        wide_transistors: table.wide_count(),
        dce_removed: compiled.dce.removed_gates,
        partition_seed: partition.seed(),
        stimulus_seed: config.seed,
        vectors: config.vectors,
        observed_time: merged.observed_time(),
        duty_p50: percentile(&sorted, 0.50),
        duty_p95: percentile(&sorted, 0.95),
        duty_p99: percentile(&sorted, 0.99),
        worst_duty,
        worst_narrow_duty,
        worst_vth_shift: lifetime.vth_shift(worst_duty, merged.observed_time() as f64),
        guardband: guardband.guardband(worst_narrow_duty).fraction(),
        partitions,
    };
    recorder::section("netlist", summary.to_section());
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gatesim::stress::StressTracker;
    use penelope_telemetry::report::validate_report;
    use penelope_telemetry::{build_report, recorder::Settings};

    fn quick_config(source: NetlistSource) -> NetlistConfig {
        NetlistConfig {
            source,
            ..NetlistConfig::for_scale(Scale::quick())
        }
    }

    #[test]
    fn fixture_names_resolve_and_unknown_ones_are_rejected() {
        assert_eq!(
            NetlistSource::from_fixture_name("decoder").unwrap(),
            NetlistSource::Decoder
        );
        assert_eq!(
            NetlistSource::from_fixture_name("adder").unwrap(),
            NetlistSource::AdderExport
        );
        assert!(matches!(
            NetlistSource::from_fixture_name("rom"),
            Err(Error::Config { .. })
        ));
    }

    #[test]
    fn stimulus_is_deterministic_and_corner_led() {
        let a = stimulus(9, 16, 42);
        let b = stimulus(9, 16, 42);
        assert_eq!(a, b);
        assert!(a[0].0.iter().all(|&x| !x), "vector 0 is all-zero");
        assert!(a[1].0.iter().all(|&x| x), "vector 1 is all-one");
        assert!(a.iter().all(|(v, d)| v.len() == 9 && (1..=7).contains(d)));
        assert_ne!(stimulus(9, 16, 43), a, "seed changes the campaign");
    }

    #[test]
    fn packed_stimulus_equals_the_packed_scalar_campaign() {
        for source in [
            NetlistSource::Decoder,
            NetlistSource::Multiplier,
            NetlistSource::AdderExport,
        ] {
            let model = blif::parse(&source.blif()).expect("fixtures parse");
            let inputs = model.input_names().len();
            for (vectors, seed) in [(1, 3), (64, DEFAULT_STIMULUS_SEED), (130, 9)] {
                let packed = PackedCampaign::pack(inputs, &stimulus(inputs, vectors, seed))
                    .expect("driver stimulus fits");
                assert_eq!(
                    packed_stimulus(inputs, vectors, seed),
                    packed,
                    "{} x{vectors}",
                    source.label()
                );
            }
        }
    }

    /// The standard 512-vector campaign against 65,536 vectors, with the
    /// default stimulus seed. A longer campaign can only lower a worst
    /// duty that the short one reached by chance: the decoder's worst
    /// narrow gate falls from 91.5% to 87.7%, so the 512-vector guardband
    /// overstates by about 1.3 points; the exported adder's falls from
    /// 53.8% to 50.6%; the multiplier stays pinned at 100% duty and the
    /// model's 20% cap. Whole-netlist p95 moves by less than 0.01 for all
    /// three (EXPERIMENTS.md, "campaign-length convergence").
    #[test]
    fn campaign_length_convergence() {
        let cap = GuardbandModel::paper_calibrated()
            .guardband(Duty::FULL)
            .fraction();
        for source in [
            NetlistSource::Decoder,
            NetlistSource::Multiplier,
            NetlistSource::AdderExport,
        ] {
            let label = source.label();
            let mut config = NetlistConfig {
                source,
                ..NetlistConfig::for_scale(Scale::standard())
            };
            assert_eq!(config.vectors, 512);
            let short = netlist_study(&config).expect("runs");
            config.vectors = 65_536;
            let long = netlist_study(&config).expect("runs");
            let (d512, d64k) = (
                short.worst_narrow_duty.fraction(),
                long.worst_narrow_duty.fraction(),
            );
            let overstated = short.guardband - long.guardband;
            assert!(
                (short.duty_p95 - long.duty_p95).abs() < 0.01,
                "{label}: p95 {} -> {}",
                short.duty_p95,
                long.duty_p95
            );
            match label {
                "decoder" => {
                    assert!(d64k < d512, "{label}: {d512} -> {d64k}");
                    assert!((0.91..0.92).contains(&d512) && (0.87..0.88).contains(&d64k));
                    assert!(
                        (0.012..0.015).contains(&overstated),
                        "{label}: {overstated}"
                    );
                }
                "adder-export" => {
                    assert!(d64k < d512, "{label}: {d512} -> {d64k}");
                    assert!((0.53..0.54).contains(&d512) && (0.50..0.51).contains(&d64k));
                    assert!((0.01..0.015).contains(&overstated), "{label}: {overstated}");
                }
                _ => {
                    assert_eq!((d512, d64k), (1.0, 1.0), "{label}");
                    assert_eq!((short.guardband, long.guardband), (cap, cap), "{label}");
                }
            }
        }
    }

    #[test]
    fn partition_stress_payload_round_trips() {
        let cell = PartitionStress {
            part: 3,
            zero_time: vec![0, 7, 19],
            total_time: 40,
        };
        let text = cell.to_payload().encode();
        assert_eq!(text, "[3,[0,7,19],40]");
        let parsed = penelope_telemetry::json::parse(&text).expect("parses");
        let back = PartitionStress::from_payload(&parsed).expect("decodes");
        assert_eq!(back, cell);
        assert!(PartitionStress::from_payload(&Json::object()).is_err());
        let mut bad = parsed;
        if let Json::Array(fields) = &mut bad {
            fields[1] = Json::from("nope");
        }
        let err = PartitionStress::from_payload(&bad).expect_err("rejected");
        assert!(
            err.contains("zero_time") && err.contains("got string"),
            "{err}"
        );
    }

    /// The driver's merged duties equal a single global tracker's,
    /// bit for bit, for every bundled source.
    #[test]
    fn study_duties_match_a_global_tracker() {
        for source in [
            NetlistSource::Decoder,
            NetlistSource::Multiplier,
            NetlistSource::AdderExport,
        ] {
            let config = quick_config(source);
            let summary = netlist_study(&config).expect("quick study runs");

            let model = blif::parse(&config.source.blif()).expect("fixtures parse");
            let compiled = passes::compile(model.into_netlist(), &config.passes).expect("compiles");
            let mut tracker = StressTracker::with_table(compiled.table.clone());
            let campaign = stimulus(compiled.netlist.inputs().len(), config.vectors, config.seed);
            for (assignment, duration) in &campaign {
                tracker.apply(&compiled.netlist, assignment, *duration);
            }
            assert_eq!(
                summary.worst_duty.fraction().to_bits(),
                tracker.worst_duty().fraction().to_bits(),
                "{}",
                summary.model
            );
            assert_eq!(summary.observed_time, tracker.observed_time());
            assert_eq!(summary.transistors, compiled.table.len());
            let total: usize = summary.partitions.iter().map(|p| p.transistors).sum();
            assert_eq!(total, summary.transistors, "partitions cover every PMOS");
        }
    }

    #[test]
    fn the_section_is_schema_valid_and_well_formed() {
        recorder::install(Settings::default());
        let summary = netlist_study(&quick_config(NetlistSource::Decoder)).expect("runs");
        let collector = recorder::finish().expect("installed");
        let report = build_report(&collector);
        validate_report(&report).expect("netlist section validates");
        let section = report.get("netlist").expect("section present");
        assert_eq!(
            section.get("netlist_schema").and_then(Json::as_u64),
            Some(penelope_telemetry::report::NETLIST_SCHEMA)
        );
        assert_eq!(
            section.get("model").and_then(Json::as_str),
            Some(summary.model.as_str())
        );
        assert_eq!(
            section
                .get("partitions")
                .and_then(Json::as_array)
                .map(<[Json]>::len),
            Some(summary.partitions.len())
        );
    }

    #[test]
    fn degenerate_configs_are_rejected() {
        let mut config = NetlistConfig::for_scale(Scale::quick());
        config.vectors = 0;
        assert!(matches!(netlist_study(&config), Err(Error::Config { .. })));
        let mut config = NetlistConfig::for_scale(Scale::quick());
        config.passes.partitions = 0;
        assert!(matches!(netlist_study(&config), Err(Error::Gatesim(_))));
        let bad = NetlistConfig {
            source: NetlistSource::Text(".model broken\n.latch a b\n".to_string()),
            ..NetlistConfig::for_scale(Scale::quick())
        };
        match netlist_study(&bad) {
            Err(Error::Gatesim(e)) => assert_eq!(e.line(), Some(2)),
            other => panic!("expected a gatesim rejection, got {other:?}"),
        }
    }
}
