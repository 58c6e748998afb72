//! Pipeline instrumentation: a [`Hooks`] wrapper that counts events and
//! samples structure state into time series.
//!
//! [`TelemetryHooks`] composes with the existing mechanism/fault/checker
//! chain by wrapping it: every hook event is counted (one slice-index add)
//! and forwarded to the inner hooks, and every `sample_period` cycles the
//! structure state — occupancies, free fractions, cache line-state
//! fractions, worst-cell duties, fault/violation counts — is pushed into
//! ring-buffered series. When telemetry is disabled the wrapper is simply
//! not constructed, so the disabled cost is zero.

use uarch::btb::Btb;
use uarch::cache::{AccessOutcome, SetAssocCache};
use uarch::pipeline::{Hooks, NoHooks, Parts, RegClass};
use uarch::regfile::{PhysReg, RegisterFile};
use uarch::scheduler::{EntryValues, Field, Scheduler, SlotId};
use uarch::tlb::Dtlb;

use crate::metrics::{CounterId, Registry};
use crate::series::RingSeries;

/// Events the wrapped hook chain can report upward.
///
/// Implemented by the mechanism/fault/checker hook types in the `penelope`
/// crate; the defaults mean "this link of the chain has nothing to report",
/// so plain mechanism hooks need no code.
pub trait EventSource {
    /// Faults that have landed so far (fault-injection harness).
    fn fault_events(&self) -> u64 {
        0
    }

    /// Invariant violations recorded so far (checker harness).
    fn invariant_events(&self) -> u64 {
        0
    }

    /// RINV rotation freshness as `(age, period)` in cycles, if the chain
    /// contains an RINV-bearing mechanism.
    fn rinv_age(&self, _now: u64) -> Option<(u64, u64)> {
        None
    }
}

impl EventSource for NoHooks {}

impl<H: EventSource + ?Sized> EventSource for &mut H {
    fn fault_events(&self) -> u64 {
        (**self).fault_events()
    }

    fn invariant_events(&self) -> u64 {
        (**self).invariant_events()
    }

    fn rinv_age(&self, now: u64) -> Option<(u64, u64)> {
        (**self).rinv_age(now)
    }
}

/// The series names of one sampled cache-like structure: valid fraction,
/// inverted fraction, inverted-time fraction and miss ratio. Static names
/// keep the sampling path allocation-free.
type CacheSeries = [&'static str; 4];

const DL0_SERIES: CacheSeries = [
    "cache.dl0.valid_fraction",
    "cache.dl0.inverted_fraction",
    "cache.dl0.inverted_time_fraction",
    "cache.dl0.miss_ratio",
];
const L2_SERIES: CacheSeries = [
    "cache.l2.valid_fraction",
    "cache.l2.inverted_fraction",
    "cache.l2.inverted_time_fraction",
    "cache.l2.miss_ratio",
];
const DTLB_SERIES: CacheSeries = [
    "dtlb.valid_fraction",
    "dtlb.inverted_fraction",
    "dtlb.inverted_time_fraction",
    "dtlb.miss_ratio",
];
const BTB_SERIES: CacheSeries = [
    "btb.valid_fraction",
    "btb.inverted_fraction",
    "btb.inverted_time_fraction",
    "btb.miss_ratio",
];

/// Hot-path counter ids, resolved once at construction.
#[derive(Debug, Clone, Copy)]
struct Ids {
    rf_released_int: CounterId,
    rf_released_fp: CounterId,
    rf_written_int: CounterId,
    rf_written_fp: CounterId,
    sched_allocated: CounterId,
    sched_released: CounterId,
    dl0_accesses: CounterId,
    dl0_misses: CounterId,
    l2_accesses: CounterId,
    l2_misses: CounterId,
    dtlb_accesses: CounterId,
    dtlb_misses: CounterId,
    btb_accesses: CounterId,
    btb_misses: CounterId,
    samples: CounterId,
}

impl Ids {
    fn register(r: &mut Registry) -> Ids {
        Ids {
            rf_released_int: r.counter("rf.int.releases"),
            rf_released_fp: r.counter("rf.fp.releases"),
            rf_written_int: r.counter("rf.int.writes"),
            rf_written_fp: r.counter("rf.fp.writes"),
            sched_allocated: r.counter("sched.allocations"),
            sched_released: r.counter("sched.releases"),
            dl0_accesses: r.counter("cache.dl0.accesses"),
            dl0_misses: r.counter("cache.dl0.misses"),
            l2_accesses: r.counter("cache.l2.accesses"),
            l2_misses: r.counter("cache.l2.misses"),
            dtlb_accesses: r.counter("dtlb.accesses"),
            dtlb_misses: r.counter("dtlb.misses"),
            btb_accesses: r.counter("btb.accesses"),
            btb_misses: r.counter("btb.misses"),
            samples: r.counter("telemetry.samples"),
        }
    }
}

/// Duty-cycle histogram edges (deciles over `[0, 1]`).
pub const FRACTION_BUCKETS: [f64; 10] = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0];

/// Collected telemetry, detached from the hooks that produced it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetryOutput {
    /// Counter/gauge/histogram values.
    pub registry: Registry,
    /// Named time series, in first-touch order.
    pub series: Vec<(&'static str, RingSeries)>,
}

impl TelemetryOutput {
    /// Merges another output: registries merge metric-wise; series with
    /// the same name are concatenated through the ring (later runs evict
    /// older points once the capacity is reached).
    pub fn merge(&mut self, other: &TelemetryOutput) {
        self.registry.merge(&other.registry);
        for (name, series) in &other.series {
            match self.series.iter_mut().find(|(n, _)| n == name) {
                Some((_, mine)) => {
                    for (t, v) in series.iter() {
                        mine.push(t, v);
                    }
                }
                None => self.series.push((name, series.clone())),
            }
        }
    }
}

/// A [`Hooks`] wrapper that records telemetry while forwarding every event
/// to the wrapped chain.
#[derive(Debug)]
pub struct TelemetryHooks<H> {
    inner: H,
    sample_period: u64,
    next_sample: u64,
    series_capacity: usize,
    ids: Ids,
    output: TelemetryOutput,
}

impl<H: Hooks + EventSource> TelemetryHooks<H> {
    /// Wraps `inner`, sampling every `sample_period` cycles (0 is bumped
    /// to 1) into series of at most `series_capacity` points.
    pub fn new(inner: H, sample_period: u64, series_capacity: usize) -> Self {
        let sample_period = sample_period.max(1);
        let mut output = TelemetryOutput::default();
        let ids = Ids::register(&mut output.registry);
        TelemetryHooks {
            inner,
            sample_period,
            next_sample: sample_period,
            series_capacity,
            ids,
            output,
        }
    }

    /// The wrapped hooks.
    pub fn inner(&self) -> &H {
        &self.inner
    }

    /// Consumes the wrapper, returning the inner hooks and the telemetry.
    pub fn into_parts(self) -> (H, TelemetryOutput) {
        (self.inner, self.output)
    }

    /// The telemetry collected so far.
    pub fn output(&self) -> &TelemetryOutput {
        &self.output
    }

    fn push(&mut self, name: &'static str, t: u64, v: f64) {
        let series = match self.output.series.iter_mut().find(|(n, _)| *n == name) {
            Some((_, s)) => s,
            None => {
                self.output
                    .series
                    .push((name, RingSeries::new(self.series_capacity)));
                // Just pushed, so the vector is non-empty.
                let last = self.output.series.len() - 1;
                &mut self.output.series[last].1
            }
        };
        series.push(t, v);
    }

    /// Takes one sample of every structure. Public so end-of-run state can
    /// be captured even when the run length is not a multiple of the
    /// sample period.
    pub fn sample(&mut self, parts: &mut Parts, now: u64) {
        self.output.registry.inc(self.ids.samples, 1);

        // Scheduler: time-averaged occupancy, data-field occupancy, and
        // instantaneous busy fraction. The occupancy reads peek at the
        // integrals without advancing the trackers' event clocks —
        // measurement must not perturb the structures it observes.
        let occ = parts.sched.occupancy(now);
        let data_occ = parts.sched.data_occupancy(now);
        let total = parts.sched.len();
        let free = parts.sched.free_slots().count();
        let busy_frac = if total == 0 {
            0.0
        } else {
            (total - free) as f64 / total as f64
        };
        self.push("sched.occupancy", now, occ);
        self.push("sched.data_occupancy", now, data_occ);
        self.push("sched.busy_fraction", now, busy_frac);
        let h = self
            .output
            .registry
            .histogram("sched.occupancy", &FRACTION_BUCKETS);
        self.output.registry.observe(h, occ);

        // Register files: free fraction plus, when tracked, worst-cell
        // duty. A sample lands mid-run, before the run settles its
        // residency, so sync flushes the event-driven accounting up to
        // `now` first. An untracked structure has no duty to report, so its
        // series is left out rather than filled with zeros.
        let int_free = parts.int_rf.free_fraction(now);
        let fp_free = parts.fp_rf.free_fraction(now);
        self.push("rf.int.free_fraction", now, int_free);
        self.push("rf.fp.free_fraction", now, fp_free);
        for (name, rf) in [
            ("rf.int.worst_cell_duty", &mut parts.int_rf),
            ("rf.fp.worst_cell_duty", &mut parts.fp_rf),
        ] {
            if rf.is_tracked() {
                rf.sync(now);
                self.push(name, now, rf.residency().worst_cell_duty().fraction());
            }
        }
        let h = self
            .output
            .registry
            .histogram("rf.int.free_fraction", &FRACTION_BUCKETS);
        self.output.registry.observe(h, int_free);

        // Scheduler worst-cell duty over all Table 2 fields.
        if parts.sched.is_tracked() {
            parts.sched.sync(now);
            let sched_duty = Field::ALL
                .iter()
                .map(|&f| parts.sched.field_residency(f).worst_cell_duty().fraction())
                .fold(0.0_f64, f64::max);
            self.push("sched.worst_cell_duty", now, sched_duty);
        }

        // Caches: line-state fractions (the inversion schemes' footprint)
        // and miss ratios.
        self.sample_cache(&DL0_SERIES, &parts.dl0, now);
        if let Some(l2) = parts.l2.as_ref() {
            self.sample_cache(&L2_SERIES, l2, now);
        }
        self.sample_cache(&DTLB_SERIES, parts.dtlb.cache(), now);
        self.sample_cache(&BTB_SERIES, parts.btb.cache(), now);

        // Events reported upward by the wrapped chain.
        self.push("events.faults", now, self.inner.fault_events() as f64);
        self.push(
            "events.invariant_violations",
            now,
            self.inner.invariant_events() as f64,
        );
        if let Some((age, period)) = self.inner.rinv_age(now) {
            let staleness = if period == 0 {
                0.0
            } else {
                age as f64 / period as f64
            };
            self.push("rinv.staleness", now, staleness);
        }
    }

    /// Samples one cache-like structure into its four series: valid
    /// fraction, inverted fraction, inverted-time fraction and miss ratio.
    fn sample_cache(&mut self, names: &CacheSeries, cache: &SetAssocCache, now: u64) {
        let lines = cache.config().lines() as f64;
        let [valid, inverted, inverted_time, miss] = *names;
        self.push(valid, now, cache.valid_count() as f64 / lines);
        self.push(inverted, now, cache.inverted_count() as f64 / lines);
        self.push(inverted_time, now, cache.inverted_time_fraction(now));
        self.push(miss, now, cache.stats().miss_ratio());
    }
}

impl<H: Hooks + EventSource> Hooks for TelemetryHooks<H> {
    fn regfile_released(
        &mut self,
        rf: &mut RegisterFile,
        class: RegClass,
        preg: PhysReg,
        now: u64,
    ) {
        let id = match class {
            RegClass::Int => self.ids.rf_released_int,
            RegClass::Fp => self.ids.rf_released_fp,
        };
        self.output.registry.inc(id, 1);
        self.inner.regfile_released(rf, class, preg, now);
    }

    fn regfile_written(
        &mut self,
        rf: &mut RegisterFile,
        class: RegClass,
        preg: PhysReg,
        value: u128,
        now: u64,
    ) {
        let id = match class {
            RegClass::Int => self.ids.rf_written_int,
            RegClass::Fp => self.ids.rf_written_fp,
        };
        self.output.registry.inc(id, 1);
        self.inner.regfile_written(rf, class, preg, value, now);
    }

    fn scheduler_released(&mut self, sched: &mut Scheduler, slot: SlotId, now: u64) {
        self.output.registry.inc(self.ids.sched_released, 1);
        self.inner.scheduler_released(sched, slot, now);
    }

    fn scheduler_allocated(
        &mut self,
        sched: &mut Scheduler,
        slot: SlotId,
        values: &EntryValues,
        now: u64,
    ) {
        self.output.registry.inc(self.ids.sched_allocated, 1);
        self.inner.scheduler_allocated(sched, slot, values, now);
    }

    fn dl0_accessed(&mut self, dl0: &mut SetAssocCache, outcome: &AccessOutcome, now: u64) {
        self.output.registry.inc(self.ids.dl0_accesses, 1);
        if !outcome.hit {
            self.output.registry.inc(self.ids.dl0_misses, 1);
        }
        self.inner.dl0_accessed(dl0, outcome, now);
    }

    fn l2_accessed(&mut self, l2: &mut SetAssocCache, outcome: &AccessOutcome, now: u64) {
        self.output.registry.inc(self.ids.l2_accesses, 1);
        if !outcome.hit {
            self.output.registry.inc(self.ids.l2_misses, 1);
        }
        self.inner.l2_accessed(l2, outcome, now);
    }

    fn dtlb_accessed(&mut self, dtlb: &mut Dtlb, outcome: &AccessOutcome, now: u64) {
        self.output.registry.inc(self.ids.dtlb_accesses, 1);
        if !outcome.hit {
            self.output.registry.inc(self.ids.dtlb_misses, 1);
        }
        self.inner.dtlb_accessed(dtlb, outcome, now);
    }

    fn btb_accessed(&mut self, btb: &mut Btb, outcome: &AccessOutcome, now: u64) {
        self.output.registry.inc(self.ids.btb_accesses, 1);
        if !outcome.hit {
            self.output.registry.inc(self.ids.btb_misses, 1);
        }
        self.inner.btb_accessed(btb, outcome, now);
    }

    fn cycle_end(&mut self, parts: &mut Parts, now: u64) {
        // The wrapped mechanisms run first so the sample sees the state
        // they leave behind (balancing writes, rotations, checks).
        self.inner.cycle_end(parts, now);
        if now >= self.next_sample {
            self.sample(parts, now);
            self.next_sample = now + self.sample_period;
        }
    }

    fn on_idle_span(&mut self, parts: &mut Parts, start: u64, end: u64) {
        // Native span handling: forward the whole span to the wrapped
        // mechanisms, then take only the samples whose due times fall
        // inside it. Pipeline events do not fire during an idle span, so
        // the state a sample observes is identical to the per-cycle
        // replay — but we skip the per-cycle `next_sample` checks.
        self.inner.on_idle_span(parts, start, end);
        let mut due = self.next_sample.max(start);
        while due <= end {
            self.sample(parts, due);
            self.next_sample = due + self.sample_period;
            due = self.next_sample;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracegen::suite::Suite;
    use tracegen::trace::TraceSpec;
    use uarch::pipeline::{Pipeline, PipelineConfig};

    #[test]
    fn counts_and_samples_while_forwarding() {
        #[derive(Default)]
        struct Probe {
            cycles: u64,
        }
        impl Hooks for Probe {
            fn cycle_end(&mut self, _p: &mut Parts, _now: u64) {
                self.cycles += 1;
            }
        }
        impl EventSource for Probe {
            fn fault_events(&self) -> u64 {
                7
            }
        }

        let mut pipe = Pipeline::new(PipelineConfig::default());
        let mut hooks = TelemetryHooks::new(Probe::default(), 64, 32);
        let trace = TraceSpec::new(Suite::SpecInt2000, 0).generate(4_000);
        let result = pipe.run(trace, &mut hooks);

        let (probe, output) = hooks.into_parts();
        assert_eq!(probe.cycles, result.cycles, "events forwarded to inner");

        let mut registry = output.registry.clone();
        let id = registry.counter("sched.releases");
        assert_eq!(registry.counter_value(id), 4_000);

        let occ = output
            .series
            .iter()
            .find(|(n, _)| *n == "sched.occupancy")
            .map(|(_, s)| s)
            .expect("occupancy sampled");
        assert!(!occ.is_empty());
        for (_, v) in occ.iter() {
            assert!((0.0..=1.0).contains(&v), "occupancy {v} out of range");
        }

        // The probe's EventSource shows through.
        let faults = output
            .series
            .iter()
            .find(|(n, _)| *n == "events.faults")
            .map(|(_, s)| s)
            .expect("fault series sampled");
        assert!(faults.iter().all(|(_, v)| (v - 7.0).abs() < 1e-12));
    }

    /// Worst-cell duty series exist only for tracked structures: a
    /// timing-only pipeline has no residency to report, and sampling it
    /// must leave those series out rather than push zeros. Every other
    /// series keeps its name and order.
    #[test]
    fn duty_series_follow_residency_tracking() {
        const DUTY: [&str; 3] = [
            "rf.int.worst_cell_duty",
            "rf.fp.worst_cell_duty",
            "sched.worst_cell_duty",
        ];
        let sample = |mut pipe: Pipeline| {
            let mut hooks = TelemetryHooks::new(NoHooks, 64, 64);
            pipe.run(TraceSpec::new(Suite::Server, 2).generate(1_000), &mut hooks);
            let now = pipe.now();
            hooks.sample(&mut pipe.parts, now);
            let output = hooks.into_parts().1;
            output.series.iter().map(|(n, _)| *n).collect::<Vec<_>>()
        };
        let tracked = sample(Pipeline::new(PipelineConfig::default()));
        let untracked = sample(
            Pipeline::try_untracked(PipelineConfig::default()).expect("default config is valid"),
        );
        for name in DUTY {
            assert!(tracked.contains(&name), "tracked pipeline lacks {name}");
            assert!(!untracked.contains(&name), "untracked pipeline has {name}");
        }
        let rest: Vec<_> = tracked.into_iter().filter(|n| !DUTY.contains(n)).collect();
        assert_eq!(rest, untracked);
    }

    #[test]
    fn sampling_respects_the_period() {
        let mut pipe = Pipeline::new(PipelineConfig::default());
        let mut hooks = TelemetryHooks::new(NoHooks, 1_000, 1024);
        let trace = TraceSpec::new(Suite::Office, 0).generate(3_000);
        let result = pipe.run(trace, &mut hooks);
        let (_, output) = hooks.into_parts();
        let mut registry = output.registry;
        let id = registry.counter("telemetry.samples");
        let samples = registry.counter_value(id);
        let expected = result.cycles / 1_000;
        assert!(
            samples >= expected && samples <= expected + 1,
            "{samples} samples for {} cycles at period 1000",
            result.cycles
        );
    }

    #[test]
    fn span_sampling_matches_per_cycle_replay() {
        // The native `on_idle_span` must land samples at exactly the
        // cycles the per-cycle replay would have: identical counts,
        // timestamps, and values across the whole series set.
        let run = |event_driven: bool| {
            let mut pipe = Pipeline::new(PipelineConfig::default());
            let mut hooks = TelemetryHooks::new(NoHooks, 64, 4096);
            let trace = TraceSpec::new(Suite::SpecFp2000, 3).generate(5_000);
            let result = if event_driven {
                pipe.run(trace, &mut hooks)
            } else {
                pipe.run_cycle_accurate(trace, &mut hooks)
            };
            (result, hooks.into_parts().1)
        };
        let (r_event, out_event) = run(true);
        let (r_cycle, out_cycle) = run(false);
        assert_eq!(r_event.cycles, r_cycle.cycles);

        let series = |o: &TelemetryOutput| {
            let mut v: Vec<(String, Vec<(u64, f64)>)> = o
                .series
                .iter()
                .map(|(n, s)| (n.to_string(), s.iter().collect()))
                .collect();
            v.sort_by(|a, b| a.0.cmp(&b.0));
            v
        };
        assert_eq!(series(&out_event), series(&out_cycle));
    }

    #[test]
    fn merge_concatenates_series_and_adds_counters() {
        let run = |seed: usize| {
            let mut pipe = Pipeline::new(PipelineConfig::default());
            let mut hooks = TelemetryHooks::new(NoHooks, 128, 64);
            let trace = TraceSpec::new(Suite::Server, seed).generate(2_000);
            pipe.run(trace, &mut hooks);
            hooks.into_parts().1
        };
        let mut a = run(0);
        let b = run(1);
        let points_a = a
            .series
            .iter()
            .find(|(n, _)| *n == "sched.occupancy")
            .map(|(_, s)| s.total_pushed())
            .expect("series present");
        a.merge(&b);
        let merged_points = a
            .series
            .iter()
            .find(|(n, _)| *n == "sched.occupancy")
            .map(|(_, s)| s.total_pushed())
            .expect("series present");
        assert!(merged_points > points_a);
        let mut registry = a.registry;
        let id = registry.counter("sched.releases");
        assert_eq!(registry.counter_value(id), 4_000);
    }
}
