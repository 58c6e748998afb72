//! Fleet-scale Monte Carlo aging sweeps with mergeable sketches.
//!
//! The paper evaluates one pipeline; this module asks the deployment-scale
//! question: across a *fleet* of N manufactured core instances — each with
//! its own process-variation draw on the aging-model anchors (see
//! [`nbti_model::variation`]) and its own workload mix — what does the
//! distribution of NBTI guardband look like, and how bad is the worst
//! core's Vmin?
//!
//! The sweep has two phases on the [`par`] engine:
//!
//! 1. **Profile** — one cell per Table 1 suite runs the real pipeline
//!    (with a shared 256KB L2, as in the L2 study) on a sample of that
//!    suite's traces and measures the suite's nominal duty anchor, CPI and
//!    memory pressure. The pressures feed a closed-form shared-L2
//!    occupancy model: suites demanding more than their share of L2
//!    bandwidth see their effective duty shifted upward (more stall
//!    residency), the rest downward.
//! 2. **Monte Carlo** — the fleet is partitioned into fixed-size chunks of
//!    [`INSTANCES_PER_CELL`] instances per cell. Each instance gets a
//!    deterministic suite assignment and a [`ProcessVariation`] draw, and
//!    its guardband / worst-cell duty / Vmin increase land in the cell's
//!    [`FleetSketch`].
//!
//! The key mechanism is **streaming aggregation**: cells return compact
//! mergeable sketches (Welford count/mean/M2 moments plus fixed-bucket
//! histograms, O(buckets) memory, never O(fleet-size)) instead of
//! per-instance rows. Sketches merge associatively in cell-index order, so
//! `--jobs N` output is byte-identical to `--jobs 1`, and because each
//! sketch implements [`CellPayload`] the sweep checkpoints and resumes
//! through the existing journal layer like any other experiment.

use nbti_model::duty::Duty;
use nbti_model::guardband::{GuardbandModel, VminModel};
use nbti_model::variation::{mix64, ProcessVariation};
use penelope_telemetry::{recorder, Json};
use tracegen::suite::Suite;
use tracegen::trace::Workload;
use uarch::cache::CacheConfig;
use uarch::pipeline::{NoHooks, Pipeline, PipelineConfig};

use crate::error::Error;
use crate::experiments::{feed, sum_runs, Scale};
use crate::journal::{cell_payload, CellPayload};
use crate::par;
use crate::sched_aware::worst_figure8_bias;

/// Monte Carlo instances evaluated per sweep cell. Large enough that the
/// per-cell journal record (one sketch) amortizes, small enough that a
/// `--fleet-size 1000000` run still spreads across every worker and a
/// crash loses at most one chunk of work.
pub const INSTANCES_PER_CELL: u64 = 256;

/// Fixed histogram resolution. 64 buckets over each metric's fixed range
/// bounds the quantile error at ~1.6% of the range, independent of fleet
/// size.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// How strongly a suite's excess share of shared-L2 pressure shifts its
/// effective duty (first-order occupancy model: contended cores stall
/// more, stalled structures hold their values longer).
const L2_DUTY_COUPLING: f64 = 0.02;

/// Largest duty shift the occupancy model may apply in either direction.
const L2_DUTY_SHIFT_CAP: f64 = 0.05;

// ------------------------------------------------------------- sketches

cell_payload! {
    /// Welford/Chan streaming moments: count, mean and M2 (sum of squared
    /// deviations), plus running min/max. Merging two sketches gives exactly
    /// the moments of the union stream (up to float associativity, which the
    /// fixed cell-index merge order makes deterministic).
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct MomentSketch {
        /// Observations absorbed.
        pub count: u64,
        /// Running mean.
        pub mean: f64,
        /// Sum of squared deviations from the mean.
        pub m2: f64,
        /// Smallest observation (+inf when empty).
        pub min: f64,
        /// Largest observation (-inf when empty).
        pub max: f64,
    }
}

impl MomentSketch {
    /// The empty sketch (identity of [`merge`](Self::merge)).
    pub fn empty() -> Self {
        MomentSketch {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Absorbs one observation (Welford update).
    pub fn observe(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another sketch in (Chan's parallel update).
    pub fn merge(&mut self, other: &MomentSketch) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let n = n1 + n2;
        let delta = other.mean - self.mean;
        self.mean += delta * n2 / n;
        self.m2 += other.m2 + delta * delta * n1 * n2 / n;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Population standard deviation (0 for fewer than two observations).
    pub fn std(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            (self.m2 / self.count as f64).sqrt()
        }
    }
}

/// A fixed-range, fixed-bucket quantile histogram. Observations outside
/// the range clamp to the edge buckets, so merging histograms with the
/// same range is exact bucket-count addition.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSketch {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
}

impl HistogramSketch {
    /// An empty histogram over `[lo, hi)` with [`HISTOGRAM_BUCKETS`]
    /// buckets.
    pub fn new(lo: f64, hi: f64) -> Self {
        HistogramSketch {
            lo,
            hi,
            counts: vec![0; HISTOGRAM_BUCKETS],
        }
    }

    /// Absorbs one observation, clamping to the edge buckets.
    pub fn observe(&mut self, x: f64) {
        let span = self.hi - self.lo;
        let raw = ((x - self.lo) / span * self.counts.len() as f64).floor();
        let idx = (raw.max(0.0) as usize).min(self.counts.len() - 1);
        self.counts[idx] += 1;
    }

    /// Merges a histogram with the same range (bucket-wise addition).
    pub fn merge(&mut self, other: &HistogramSketch) {
        debug_assert_eq!((self.lo, self.hi), (other.lo, other.hi));
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
    }

    /// The `q`-quantile (`q` in `[0, 1]`): midpoint of the bucket where
    /// the cumulative count crosses `ceil(q·total)`. NaN when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let total: u64 = self.counts.iter().sum();
        if total == 0 {
            return f64::NAN;
        }
        let target = ((q * total as f64).ceil() as u64).max(1);
        let width = (self.hi - self.lo) / self.counts.len() as f64;
        let mut cumulative = 0u64;
        for (i, count) in self.counts.iter().enumerate() {
            cumulative += count;
            if cumulative >= target {
                return self.lo + (i as f64 + 0.5) * width;
            }
        }
        self.hi
    }
}

/// The payload is `[lo, hi, counts]`; decode refuses any bucket count but
/// [`HISTOGRAM_BUCKETS`].
impl CellPayload for HistogramSketch {
    fn to_payload(&self) -> Json {
        Json::Array(vec![
            self.lo.to_payload(),
            self.hi.to_payload(),
            self.counts.to_payload(),
        ])
    }

    fn from_payload(json: &Json) -> Result<Self, String> {
        let (lo, hi, counts) = <(f64, f64, Vec<u64>)>::from_payload(json)
            .map_err(|e| format!("histogram [lo, hi, counts]: {e}"))?;
        if counts.len() != HISTOGRAM_BUCKETS {
            return Err(format!(
                "expected {HISTOGRAM_BUCKETS} buckets, found {}",
                counts.len()
            ));
        }
        Ok(HistogramSketch { lo, hi, counts })
    }
}

cell_payload! {
    /// Moments + quantile histogram for one fleet metric.
    #[derive(Debug, Clone, PartialEq)]
    pub struct MetricSketch {
        /// Streaming moments.
        pub moments: MomentSketch,
        /// Fixed-bucket quantile histogram.
        pub histogram: HistogramSketch,
    }
}

impl MetricSketch {
    /// An empty metric sketch over the histogram range `[lo, hi)`.
    pub fn new(lo: f64, hi: f64) -> Self {
        MetricSketch {
            moments: MomentSketch::empty(),
            histogram: HistogramSketch::new(lo, hi),
        }
    }

    /// Absorbs one observation into both summaries.
    pub fn observe(&mut self, x: f64) {
        self.moments.observe(x);
        self.histogram.observe(x);
    }

    /// Merges another metric sketch (same range).
    pub fn merge(&mut self, other: &MetricSketch) {
        self.moments.merge(&other.moments);
        self.histogram.merge(&other.histogram);
    }

    /// The report block: count/mean/std/min/max plus p50/p95/p99.
    pub fn to_json(&self) -> Json {
        let mut block = Json::object();
        block.set("count", Json::UInt(self.moments.count));
        block.set("mean", Json::Float(self.moments.mean));
        block.set("std", Json::Float(self.moments.std()));
        block.set("min", Json::Float(self.moments.min));
        block.set("max", Json::Float(self.moments.max));
        block.set("p50", Json::Float(self.histogram.quantile(0.50)));
        block.set("p95", Json::Float(self.histogram.quantile(0.95)));
        block.set("p99", Json::Float(self.histogram.quantile(0.99)));
        block
    }
}

cell_payload! {
    /// The worst core seen so far: highest Vmin increase, ties broken towards
    /// the lowest instance index so the merge is order-independent.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct WorstCore {
        /// Fleet-wide instance index.
        pub index: u64,
        /// Its required Vmin increase.
        pub vmin_increase: f64,
        /// Its cycle-time guardband.
        pub guardband: f64,
    }
}

impl WorstCore {
    fn challenge(&mut self, other: &WorstCore) {
        let beats = other.vmin_increase > self.vmin_increase
            || (other.vmin_increase == self.vmin_increase && other.index < self.index);
        if beats {
            *self = *other;
        }
    }
}

cell_payload! {
    /// The complete per-cell (and, after merging, fleet-wide) summary: one
    /// [`MetricSketch`] per metric plus the worst-core argmax. Memory is
    /// O(buckets) regardless of how many instances were observed.
    #[derive(Debug, Clone, PartialEq)]
    pub struct FleetSketch {
        /// Instances observed.
        pub instances: u64,
        /// Cycle-time guardband fraction per instance.
        pub guardband: MetricSketch,
        /// Worst-cell duty per instance.
        pub duty: MetricSketch,
        /// Required Vmin increase per instance.
        pub vmin: MetricSketch,
        /// The argmax instance (`None` while empty).
        pub worst: Option<WorstCore>,
    }
}

impl FleetSketch {
    /// The empty sketch with the standard metric ranges: guardband in
    /// `[0, 0.25)` (the paper's cap is 0.20), worst-cell duty in
    /// `[0.5, 1.0)` (`cell_worst` is ≥ 0.5 by construction) and Vmin
    /// increase in `[0, 0.125)` (the calibrated cap is 0.10).
    pub fn empty() -> Self {
        FleetSketch {
            instances: 0,
            guardband: MetricSketch::new(0.0, 0.25),
            duty: MetricSketch::new(0.5, 1.0),
            vmin: MetricSketch::new(0.0, 0.125),
            worst: None,
        }
    }

    /// Absorbs one core instance's figures.
    pub fn observe(&mut self, index: u64, guardband: f64, duty: f64, vmin: f64) {
        self.instances += 1;
        self.guardband.observe(guardband);
        self.duty.observe(duty);
        self.vmin.observe(vmin);
        let candidate = WorstCore {
            index,
            vmin_increase: vmin,
            guardband,
        };
        match &mut self.worst {
            Some(worst) => worst.challenge(&candidate),
            None => self.worst = Some(candidate),
        }
    }

    /// Merges another sketch. Associative; the fleet driver folds cell
    /// sketches in cell-index order so the result is identical at every
    /// `--jobs` setting.
    pub fn merge(&mut self, other: &FleetSketch) {
        self.instances += other.instances;
        self.guardband.merge(&other.guardband);
        self.duty.merge(&other.duty);
        self.vmin.merge(&other.vmin);
        if let Some(theirs) = &other.worst {
            match &mut self.worst {
                Some(worst) => worst.challenge(theirs),
                None => self.worst = Some(*theirs),
            }
        }
    }
}

// -------------------------------------------------------- configuration

/// Fleet sweep parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetConfig {
    /// Core instances in the fleet.
    pub fleet_size: u64,
    /// Process-variation sigma (see [`nbti_model::variation::MAX_SIGMA`]).
    pub variation_sigma: f64,
    /// Seed for the variation draws and suite assignment.
    pub seed: u64,
}

impl FleetConfig {
    /// The default fleet for a [`Scale`]: 256 cores at quick, 4096 at
    /// standard, 32768 at thorough.
    pub fn for_scale(scale: Scale) -> Self {
        let fleet_size = if scale == Scale::quick() {
            256
        } else if scale == Scale::thorough() {
            32_768
        } else {
            4_096
        };
        FleetConfig {
            fleet_size,
            variation_sigma: 0.08,
            seed: 0x00F1_EE70,
        }
    }

    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] for an empty fleet; sigma validation is
    /// delegated to [`ProcessVariation::new`].
    pub fn validate(&self) -> Result<(), Error> {
        if self.fleet_size == 0 {
            return Err(Error::config("fleet size must be positive"));
        }
        Ok(())
    }
}

// -------------------------------------------------------------- phase 1

cell_payload! {
    /// What one profile cell measures about its suite.
    #[derive(Debug, Clone, Copy, PartialEq)]
    struct SuiteAnchors {
        /// Nominal worst duty anchor (max of int-RF worst cell and scheduler
        /// figure-8 bias).
        duty: f64,
        /// Cycles per uop under the shared L2.
        cpi: f64,
        /// Memory operations per cycle: the suite's demand on the shared L2.
        pressure: f64,
    }
}

/// The shared L2 every profiled core sits behind: the 256KB 8-way
/// configuration of the L2 study.
fn shared_l2_config() -> PipelineConfig {
    PipelineConfig {
        l2: Some(CacheConfig {
            size_bytes: 256 * 1024,
            ways: 8,
            line_bytes: 64,
        }),
        ..PipelineConfig::default()
    }
}

/// Runs one suite's sample through a pipeline behind the shared L2 and
/// measures its profile.
fn profile_suite(suite: Suite, scale: Scale) -> Result<SuiteAnchors, Error> {
    let workload = Workload::suite_sample(suite, scale.traces_per_suite.max(1));
    let mut pipe = Pipeline::try_new(shared_l2_config())?;
    let total = sum_runs(&feed(
        &mut pipe,
        &workload,
        scale.uops_per_trace,
        &mut NoHooks,
        None,
    )?);

    let rf_worst = pipe.parts.int_rf.residency().worst_cell_duty().cell_worst();
    let sched_worst = worst_figure8_bias(&pipe.parts.sched).cell_worst();
    let duty = rf_worst.fraction().max(sched_worst.fraction());

    // Memory pressure: loads+stores per cycle, combining the suite's
    // static class mix with the measured cycle count.
    let mix = suite.profile().class_mix;
    let mem_fraction = mix[4] + mix[5];
    let cycles = total.cycles.max(1) as f64;
    Ok(SuiteAnchors {
        duty,
        cpi: cycles / total.uops.max(1) as f64,
        pressure: mem_fraction * total.uops as f64 / cycles,
    })
}

/// Applies the shared-L2 occupancy model: a suite demanding more than the
/// fleet-average share of L2 bandwidth has its effective duty shifted up
/// (bounded), the rest down. Pure arithmetic over the measured profiles,
/// so Monte Carlo cells stay hermetic.
fn l2_adjusted_duties(profiles: &[SuiteAnchors]) -> Vec<f64> {
    let mean_pressure = profiles.iter().map(|p| p.pressure).sum::<f64>() / profiles.len() as f64;
    profiles
        .iter()
        .map(|p| {
            let shift = if mean_pressure > 0.0 {
                (L2_DUTY_COUPLING * (p.pressure / mean_pressure - 1.0))
                    .clamp(-L2_DUTY_SHIFT_CAP, L2_DUTY_SHIFT_CAP)
            } else {
                0.0
            };
            (p.duty + shift).clamp(0.0, 1.0)
        })
        .collect()
}

// -------------------------------------------------------------- phase 2

/// The workload suite instance `index` runs, as a deterministic function
/// of the fleet seed.
fn suite_of(seed: u64, index: u64) -> usize {
    (mix64(seed ^ index.wrapping_mul(0x6c62_272e_07bb_0142)) % Suite::ALL.len() as u64) as usize
}

/// Evaluates one Monte Carlo cell: instances
/// `[cell·INSTANCES_PER_CELL, …)` up to the fleet size.
fn monte_carlo_cell(
    cell: usize,
    config: &FleetConfig,
    variation: &ProcessVariation,
    adjusted_duty: &[f64],
) -> FleetSketch {
    let base_guardband = GuardbandModel::paper_calibrated();
    let base_vmin = VminModel::paper_calibrated();
    let start = cell as u64 * INSTANCES_PER_CELL;
    let end = (start + INSTANCES_PER_CELL).min(config.fleet_size);
    let mut sketch = FleetSketch::empty();
    for index in start..end {
        // One draw per instance, applied to all three varied quantities.
        let draw = variation.draw(index);
        let nominal = Duty::saturating(adjusted_duty[suite_of(config.seed, index)]);
        let duty = draw.duty(nominal).cell_worst();
        let guardband = draw
            .guardband(&base_guardband)
            .cell_guardband(duty)
            .fraction();
        let vmin = draw.vmin(&base_vmin).vmin_increase(duty);
        sketch.observe(index, guardband, duty.fraction(), vmin);
    }
    sketch
}

// --------------------------------------------------------------- driver

/// The fleet-wide distribution summary the driver returns (and renders
/// into the report's `fleet` section).
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSummary {
    /// The sweep's configuration.
    pub config: FleetConfig,
    /// The merged fleet-wide sketch.
    pub sketch: FleetSketch,
    /// The worst core's suite name (derived from its index).
    pub worst_suite: &'static str,
}

impl FleetSummary {
    /// The schema-versioned `fleet` report section
    /// (`penelope_telemetry::report::FLEET_SCHEMA`).
    pub fn to_section(&self) -> Json {
        let mut fleet = Json::object();
        fleet.set(
            "fleet_schema",
            Json::UInt(penelope_telemetry::report::FLEET_SCHEMA),
        );
        fleet.set("fleet_size", Json::UInt(self.config.fleet_size));
        fleet.set("variation_sigma", Json::Float(self.config.variation_sigma));
        fleet.set("seed", Json::UInt(self.config.seed));
        fleet.set("guardband", self.sketch.guardband.to_json());
        fleet.set("duty", self.sketch.duty.to_json());
        fleet.set("vmin", self.sketch.vmin.to_json());
        let mut worst = Json::object();
        if let Some(w) = &self.sketch.worst {
            worst.set("index", Json::UInt(w.index));
            worst.set("vmin_increase", Json::Float(w.vmin_increase));
            worst.set("guardband", Json::Float(w.guardband));
            worst.set("suite", Json::from(self.worst_suite));
        }
        fleet.set("worst_core", worst);
        fleet
    }
}

/// Runs the fleet sweep: profile phase, closed-form L2 occupancy
/// adjustment, Monte Carlo phase, deterministic merge. Contributes the
/// `fleet` section to any active run report.
///
/// # Errors
///
/// Returns [`Error::Config`] for an empty fleet, the
/// [`ProcessVariation`] validation error for a bad sigma, and any
/// pipeline/sweep error from the profile phase.
pub fn fleet(scale: Scale, config: FleetConfig) -> Result<FleetSummary, Error> {
    let _span = penelope_telemetry::span!("driver: fleet");
    config.validate()?;
    let variation = ProcessVariation::new(config.variation_sigma, config.seed)?;

    let profiles = {
        let _span = penelope_telemetry::span!("fleet: profile");
        par::try_cells_named("fleet:profile", Suite::ALL.len(), |cell| {
            let suite = Suite::ALL[cell.index];
            recorder::phase(&format!("fleet: profile {}", suite.name()), || {
                profile_suite(suite, scale)
            })
        })?
    };
    let adjusted_duty = l2_adjusted_duties(&profiles);

    let cells = config.fleet_size.div_ceil(INSTANCES_PER_CELL) as usize;
    let sketches = {
        let _span = penelope_telemetry::span!("fleet: monte-carlo");
        par::try_cells_named("fleet:mc", cells, |cell| {
            Ok(monte_carlo_cell(
                cell.index,
                &config,
                &variation,
                &adjusted_duty,
            ))
        })?
    };

    // Left-fold in cell-index order: `try_cells_named` already returns
    // results ordered by index at any jobs setting, so the float merge
    // sequence — and therefore the report bytes — never depends on
    // worker scheduling.
    let mut merged = FleetSketch::empty();
    for sketch in &sketches {
        merged.merge(sketch);
    }
    let worst_suite = merged
        .worst
        .map_or("-", |w| Suite::ALL[suite_of(config.seed, w.index)].name());

    let summary = FleetSummary {
        config,
        sketch: merged,
        worst_suite,
    };
    recorder::section("fleet", summary.to_section());
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbti_model::variation::MAX_SIGMA;

    fn stream(seed: u64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (mix64(seed ^ i as u64) >> 11) as f64 / (1u64 << 53) as f64)
            .collect()
    }

    #[test]
    fn moments_match_the_direct_computation() {
        let xs = stream(1, 500);
        let mut sketch = MomentSketch::empty();
        for &x in &xs {
            sketch.observe(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
        assert!((sketch.mean - mean).abs() < 1e-12);
        assert!((sketch.std() - var.sqrt()).abs() < 1e-12);
        assert_eq!(sketch.count, 500);
    }

    #[test]
    fn histogram_quantiles_bound_the_exact_ones() {
        let xs = stream(2, 2_000);
        let mut hist = HistogramSketch::new(0.0, 1.0);
        for &x in &xs {
            hist.observe(x);
        }
        let mut sorted = xs.clone();
        sorted.sort_by(f64::total_cmp);
        for q in [0.5, 0.95, 0.99] {
            let exact = sorted[((q * xs.len() as f64) as usize).min(xs.len() - 1)];
            let bucket_width = 1.0 / HISTOGRAM_BUCKETS as f64;
            assert!(
                (hist.quantile(q) - exact).abs() <= bucket_width,
                "q{q}: sketch {} vs exact {exact}",
                hist.quantile(q)
            );
        }
    }

    #[test]
    fn out_of_range_observations_clamp_to_edge_buckets() {
        let mut hist = HistogramSketch::new(0.0, 1.0);
        hist.observe(-5.0);
        hist.observe(5.0);
        assert_eq!(hist.counts[0], 1);
        assert_eq!(hist.counts[HISTOGRAM_BUCKETS - 1], 1);
    }

    #[test]
    fn merging_split_streams_equals_observing_the_union() {
        let xs = stream(3, 999);
        let mut whole = FleetSketch::empty();
        for (i, &x) in xs.iter().enumerate() {
            whole.observe(i as u64, x, 0.5 + x / 2.0, x / 10.0);
        }
        // Split at an uneven boundary and merge.
        let mut left = FleetSketch::empty();
        let mut right = FleetSketch::empty();
        for (i, &x) in xs.iter().enumerate() {
            let target = if i < 313 { &mut left } else { &mut right };
            target.observe(i as u64, x, 0.5 + x / 2.0, x / 10.0);
        }
        left.merge(&right);
        assert_eq!(left.instances, whole.instances);
        assert_eq!(left.guardband.histogram, whole.guardband.histogram);
        assert_eq!(left.worst, whole.worst);
        assert!((left.vmin.moments.mean - whole.vmin.moments.mean).abs() < 1e-12);
        assert!((left.vmin.moments.m2 - whole.vmin.moments.m2).abs() < 1e-9);
    }

    #[test]
    fn worst_core_ties_break_to_the_lowest_index() {
        let mut a = FleetSketch::empty();
        a.observe(7, 0.1, 0.7, 0.05);
        let mut b = FleetSketch::empty();
        b.observe(3, 0.1, 0.7, 0.05);
        a.merge(&b);
        assert_eq!(a.worst.map(|w| w.index), Some(3));
        // A strictly worse core wins regardless of index.
        let mut c = FleetSketch::empty();
        c.observe(99, 0.2, 0.9, 0.09);
        a.merge(&c);
        assert_eq!(a.worst.map(|w| w.index), Some(99));
    }

    #[test]
    fn sketches_round_trip_through_the_journal_payload() {
        let mut sketch = FleetSketch::empty();
        for (i, x) in stream(4, 100).into_iter().enumerate() {
            sketch.observe(i as u64, x / 4.0, 0.5 + x / 2.0, x / 10.0);
        }
        let text = sketch.to_payload().encode();
        let parsed = penelope_telemetry::json::parse(&text).expect("parses");
        let decoded = FleetSketch::from_payload(&parsed).expect("round trip");
        assert_eq!(decoded, sketch);

        // A histogram of the wrong bucket count, and a sketch of the wrong
        // arity, are refused.
        let mut short = parsed.clone();
        if let Json::Array(fields) = &mut short {
            fields[1] = MetricSketch {
                histogram: HistogramSketch {
                    counts: vec![0; HISTOGRAM_BUCKETS - 1],
                    ..sketch.guardband.histogram.clone()
                },
                ..sketch.guardband.clone()
            }
            .to_payload();
        }
        let err = FleetSketch::from_payload(&short).expect_err("63 buckets");
        assert!(err.contains("expected 64 buckets, found 63"), "{err}");
        let mut truncated = parsed;
        if let Json::Array(fields) = &mut truncated {
            fields.pop();
        }
        assert_eq!(
            FleetSketch::from_payload(&truncated),
            Err("FleetSketch must be a 5-element array".into())
        );

        // The empty sketch's ±inf min/max encode as null, so it round-trips
        // only in memory; a journaled fleet cell always holds instances.
        let empty = FleetSketch::empty();
        let decoded = FleetSketch::from_payload(&empty.to_payload()).expect("empty round trip");
        assert_eq!(decoded, empty);
    }

    #[test]
    fn suite_assignment_is_deterministic_and_covers_all_suites() {
        let mut seen = [false; 10];
        for index in 0..512 {
            let s = suite_of(0x00F1_EE70, index);
            assert_eq!(s, suite_of(0x00F1_EE70, index));
            seen[s] = true;
        }
        assert!(seen.iter().all(|&s| s), "512 draws hit every suite");
    }

    #[test]
    fn l2_adjustment_is_bounded_and_zero_sum_free() {
        let profiles = vec![
            SuiteAnchors {
                duty: 0.8,
                cpi: 1.0,
                pressure: 0.5,
            },
            SuiteAnchors {
                duty: 0.8,
                cpi: 1.0,
                pressure: 0.1,
            },
        ];
        let adjusted = l2_adjusted_duties(&profiles);
        assert!(adjusted[0] > 0.8, "hot suite shifts up");
        assert!(adjusted[1] < 0.8, "cold suite shifts down");
        for d in &adjusted {
            assert!((d - 0.8).abs() <= L2_DUTY_SHIFT_CAP + 1e-12);
        }
        // All-idle fleet: no pressure, no shift.
        let idle = vec![SuiteAnchors {
            duty: 0.7,
            cpi: 1.0,
            pressure: 0.0,
        }];
        assert_eq!(l2_adjusted_duties(&idle), vec![0.7]);
    }

    /// The Monte Carlo loop as it read when each varied quantity took its
    /// own draw (three draws per instance).
    fn three_draw_cell(
        cell: usize,
        config: &FleetConfig,
        variation: &ProcessVariation,
        adjusted_duty: &[f64],
    ) -> FleetSketch {
        let base_guardband = GuardbandModel::paper_calibrated();
        let base_vmin = VminModel::paper_calibrated();
        let start = cell as u64 * INSTANCES_PER_CELL;
        let end = (start + INSTANCES_PER_CELL).min(config.fleet_size);
        let mut sketch = FleetSketch::empty();
        for index in start..end {
            let nominal = Duty::saturating(adjusted_duty[suite_of(config.seed, index)]);
            let duty = variation.vary_duty(nominal, index).cell_worst();
            let guardband = variation
                .vary_guardband(&base_guardband, index)
                .cell_guardband(duty)
                .fraction();
            let vmin = variation.vary_vmin(&base_vmin, index).vmin_increase(duty);
            sketch.observe(index, guardband, duty.fraction(), vmin);
        }
        sketch
    }

    #[test]
    fn one_draw_cells_match_the_three_draw_loop() {
        let adjusted: Vec<f64> = (0..Suite::ALL.len())
            .map(|i| 0.55 + 0.4 * i as f64 / Suite::ALL.len() as f64)
            .collect();
        for (seed, sigma) in [
            (0x00F1_EE70, 0.08),
            (1, 0.0),
            (42, 0.3),
            (u64::MAX, MAX_SIGMA),
        ] {
            // 3.5 cells: the last one is partial.
            let config = FleetConfig {
                fleet_size: 3 * INSTANCES_PER_CELL + INSTANCES_PER_CELL / 2,
                variation_sigma: sigma,
                seed,
            };
            let variation = ProcessVariation::new(sigma, seed).expect("valid sigma");
            for cell in 0..4 {
                let once = monte_carlo_cell(cell, &config, &variation, &adjusted);
                let thrice = three_draw_cell(cell, &config, &variation, &adjusted);
                assert_eq!(
                    once.to_payload().encode(),
                    thrice.to_payload().encode(),
                    "seed {seed:#x}, sigma {sigma}, cell {cell}"
                );
            }
        }
    }

    #[test]
    fn the_quick_fleet_summary_is_deterministic() {
        let scale = Scale::quick();
        let config = FleetConfig::for_scale(scale);
        assert_eq!(config.fleet_size, 256);
        let a = fleet(scale, config).expect("fleet runs");
        let b = fleet(scale, config).expect("fleet runs twice");
        assert_eq!(a, b, "same seed, same summary");
        assert_eq!(a.sketch.instances, 256);
        // The section validates against the report schema's fleet rules.
        let mut report = penelope_telemetry::json::parse(
            r#"{"schema_version":1,"manifest":{},"phases":[],
                "totals":{"cycles":0,"uops":0,"wall_seconds":0.0,
                          "cycles_per_sec":0.0,"uops_per_sec":0.0},
                "metrics":{"counters":{},"gauges":{},"histograms":{}},
                "series":{}}"#,
        )
        .expect("valid json");
        report.set("fleet", a.to_section());
        penelope_telemetry::validate_report(&report).expect("fleet section validates");
    }

    #[test]
    fn zero_fleet_sizes_are_refused() {
        let config = FleetConfig {
            fleet_size: 0,
            ..FleetConfig::for_scale(Scale::quick())
        };
        assert!(fleet(Scale::quick(), config).is_err());
    }
}
