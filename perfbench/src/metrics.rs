//! Metric declarations (mirrored by `BENCHMARK.json`), the operation
//! ledger behind `failed_frac`, and the result line.

use std::fmt::Write as _;

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// Printed by every untraced run (`--trace 0`).
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", "lower"),
    m("wall_s", "s", "lower"),
    m("sim_cycles_per_s", "1/s", "higher"),
    m("peak_rss_mb", "MiB", "lower"),
];

/// Printed by every traced run (`--trace 1`), whatever the workload.
pub const PER_LAYER: &[Metric] = &[
    // Ladder rungs (a fixed trace per suite), ns per uop.
    m("tracegen.ns_per_uop", "ns/uop", "lower"),
    m("uarch.pipeline.ns_per_uop", "ns/uop", "lower"),
    m("penelope.regfile_aware.ns_per_uop", "ns/uop", "lower"),
    m("penelope.sched_aware.ns_per_uop", "ns/uop", "lower"),
    m("penelope.cache_aware.ns_per_uop", "ns/uop", "lower"),
    m("penelope.processor.ns_per_uop", "ns/uop", "lower"),
    m("telemetry.hooks.ns_per_uop", "ns/uop", "lower"),
    m("penelope.checked.ns_per_uop", "ns/uop", "lower"),
    m("penelope.par.ns_per_uop", "ns/uop", "lower"),
    m("penelope.table3_config.ns_per_uop", "ns/uop", "lower"),
    // Exact simulated counts over the same traces.
    m("uarch.pipeline.cycles_per_uop", "cycles/uop", "lower"),
    m("uarch.pipeline.idle_cycle_frac", "frac", "higher"),
    m(
        "uarch.pipeline.hook_calls_per_uop.regfile_released",
        "calls/uop",
        "lower",
    ),
    m(
        "uarch.pipeline.hook_calls_per_uop.regfile_written",
        "calls/uop",
        "lower",
    ),
    m(
        "uarch.pipeline.hook_calls_per_uop.scheduler_released",
        "calls/uop",
        "lower",
    ),
    m(
        "uarch.pipeline.hook_calls_per_uop.scheduler_allocated",
        "calls/uop",
        "lower",
    ),
    m(
        "uarch.pipeline.hook_calls_per_uop.dl0_accessed",
        "calls/uop",
        "lower",
    ),
    m(
        "uarch.pipeline.hook_calls_per_uop.dtlb_accessed",
        "calls/uop",
        "lower",
    ),
    m(
        "uarch.pipeline.hook_calls_per_uop.btb_accessed",
        "calls/uop",
        "lower",
    ),
    m(
        "uarch.pipeline.hook_calls_per_uop.cycle_end",
        "calls/uop",
        "lower",
    ),
    m(
        "uarch.pipeline.hook_calls_per_uop.on_idle_span",
        "calls/uop",
        "lower",
    ),
    m("uarch.cache.dl0_miss_rate", "frac", "lower"),
    m("uarch.cache.dl0_accesses_per_uop", "accesses/uop", "lower"),
    m("uarch.tlb.dtlb_miss_rate", "frac", "lower"),
    m("uarch.btb.btb_miss_rate", "frac", "lower"),
    m("uarch.cache.dl0_miss_rate.8kb", "frac", "lower"),
    m("uarch.tlb.dtlb_miss_rate.32e", "frac", "lower"),
    // Single-layer probes.
    m("uarch.bitstats.ns_per_record.w32", "ns/record", "lower"),
    m("uarch.bitstats.ns_per_record.w64", "ns/record", "lower"),
    m("uarch.bitstats.ns_per_record.w80", "ns/record", "lower"),
    m("uarch.pipeline.bytes_per_instance", "B", "lower"),
    m("uarch.pipeline.jobs_slowdown", "ratio", "lower"),
    m("telemetry.snapshot.encode_us", "us", "lower"),
    m("telemetry.snapshot.bytes", "B", "lower"),
    m("telemetry.report.build_ms", "ms", "lower"),
    m("telemetry.report.bytes", "B", "lower"),
    m("penelope.par.us_per_cell.jobs1", "us/cell", "lower"),
    m("penelope.par.us_per_cell.jobsN", "us/cell", "lower"),
    m("penelope.par.merge_us_per_cell", "us/cell", "lower"),
    m("penelope.par.worker_busy_frac", "frac", "higher"),
    m("penelope.journal.append_us.r16", "us", "lower"),
    m("penelope.journal.append_us.r128", "us", "lower"),
    m("penelope.journal.append_us.r512", "us", "lower"),
    m(
        "penelope.journal.bytes_written_per_record",
        "B/record",
        "lower",
    ),
    m("nbti_model.ns_per_instance", "ns/instance", "lower"),
    m("penelope.fleet.sketch_merge_ns", "ns", "lower"),
    m("gatesim.blif.parse_us", "us", "lower"),
    m("gatesim.passes.compile_us", "us", "lower"),
    m(
        "gatesim.passes.accumulate_ns_per_vector",
        "ns/vector",
        "lower",
    ),
    m("gatesim.passes.merge_us", "us", "lower"),
    m(
        "penelope.netlist_study.stimulus_ns_per_vector",
        "ns/vector",
        "lower",
    ),
    // The traced run's own cost: traced over untraced iteration wall time.
    m("trace.overhead_frac", "frac", "lower"),
];

/// Operations attempted and failed. An operation is a driver call, a
/// ladder rung or a probe; it fails when it returns an error or its
/// output fails a check.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    /// Counts one operation, reporting a failure on stderr.
    pub fn record<T>(&mut self, what: &str, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(value) => Some(value),
            Err(reason) => {
                self.failed += 1;
                eprintln!("perfbench: FAILED {what}: {reason}");
                None
            }
        }
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Measured metric values, by declared name.
#[derive(Debug, Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// Renders the result line. Every declared metric must have been
    /// measured exactly once, as a finite number; a metric whose operation
    /// failed reads 0 in a run that reports `"correct": false`.
    pub fn result_line(&self, ops: &Ops, declared: &[Metric]) -> Result<String, String> {
        for (name, _) in &self.0 {
            let known = declared.iter().any(|m| m.name == *name);
            let count = self.0.iter().filter(|(n, _)| n == name).count();
            if !known || count > 1 {
                return Err(format!("metric {name} is undeclared or measured twice"));
            }
        }
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            ops.failed == 0,
            ops.attempted,
            ops.failed
        );
        for (i, metric) in declared.iter().enumerate() {
            let value = match self.get(metric.name) {
                Some(v) if v.is_finite() => v,
                Some(v) => return Err(format!("metric {} is not finite ({v})", metric.name)),
                None if ops.failed > 0 => 0.0,
                None => return Err(format!("metric {} was not measured", metric.name)),
            };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                metric.name, metric.unit
            );
        }
        out.push_str("}}");
        Ok(out)
    }
}

/// The `q` quantile of a sample, interpolating linearly between order
/// statistics (NaN if empty).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of a sample (mean of the middle pair when even; NaN if empty).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;
    use penelope_telemetry::json;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_units_and_limits_follow_the_contract() {
        assert!(!END_TO_END.is_empty() && END_TO_END.len() <= 16);
        assert!(!PER_LAYER.is_empty() && PER_LAYER.len() <= 128);
        let all: Vec<&Metric> = END_TO_END.iter().chain(PER_LAYER).collect();
        for metric in &all {
            assert!(valid_name(metric.name), "bad name {}", metric.name);
            assert!(valid_unit(metric.unit), "bad unit {}", metric.unit);
            assert!(matches!(metric.better, "lower" | "higher"));
            let uses = all.iter().filter(|m| m.name == metric.name).count();
            assert_eq!(uses, 1, "{} declared twice", metric.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        for (key, declared) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = doc.get(key).and_then(|v| v.as_array()).expect(key);
            assert_eq!(listed.len(), declared.len(), "{key} length");
            for (entry, metric) in listed.iter().zip(declared) {
                let field = |k: &str| entry.get(k).and_then(|v| v.as_str());
                assert_eq!(field("name"), Some(metric.name));
                assert_eq!(field("unit"), Some(metric.unit));
                assert_eq!(field("better"), Some(metric.better));
            }
        }
    }

    #[test]
    fn result_line_demands_every_declared_metric_once() {
        let mut values = Values::default();
        values.set("setup_s", 0.5);
        let ok = Ops::default();
        assert!(values.result_line(&ok, END_TO_END).is_err(), "incomplete");
        for metric in &END_TO_END[1..] {
            values.set(metric.name, 1.25);
        }
        let line = values.result_line(&ok, END_TO_END).expect("complete");
        let parsed = json::parse(&line).expect("valid JSON");
        assert_eq!(parsed.get("correct"), Some(&json::Json::Bool(true)));
        values.set("wall_s", 2.0);
        assert!(values.result_line(&ok, END_TO_END).is_err(), "duplicate");
    }

    #[test]
    fn median_and_quartile_of_small_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(quantile(&[5.0, 1.0, 3.0, 2.0, 4.0], 0.25), 2.0);
        assert_eq!(quantile(&[7.0], 0.25), 7.0);
        assert!(median(&[]).is_nan());
    }
}
