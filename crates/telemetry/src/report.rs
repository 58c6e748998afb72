//! Run-report assembly and schema validation.
//!
//! The report is the stable machine-readable contract of a bench run:
//! future PRs diff perf trajectories against it, and CI validates every
//! emitted report against [`validate_report`]. Top-level schema (version
//! [`SCHEMA_VERSION`]):
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "manifest":  { "binary": "...", "seed": 123, ... },
//!   "warnings":  [ "quarantined: fig6 cell 1 ...", ... ],
//!   "phases":    [ { "name", "wall_seconds", "cycles", "uops",
//!                    "cycles_per_sec" }, ... ],
//!   "spans":     [ { "name", "parent", "cycles", "uops",
//!                    "wall_seconds" }, ... ],
//!   "totals":    { "cycles", "uops", "wall_seconds",
//!                  "cycles_per_sec", "uops_per_sec" },
//!   "metrics":   { "counters": {...}, "gauges": {...},
//!                  "histograms": {...} },
//!   "series":    { "<name>": [[cycle, value], ...], ... }
//! }
//! ```
//!
//! `warnings` records degradations (environment fallbacks, misconfigured
//! knobs) so a run that limped through on defaults is distinguishable from
//! a clean one even though both exit zero.
//!
//! `phases` is derived from `spans`: it lists the spans that
//! [`crate::recorder::phase`] marked, in span order. The mark itself is
//! not written into the `spans` entries.
//!
//! Wall-clock numbers live only in the `wall_seconds`, `cycles_per_sec`
//! and `uops_per_sec` keys (under `phases`, `spans` and `totals`). The
//! wall-strip rule drops exactly those three keys at every depth; what
//! remains holds only simulated quantities, so two same-seed runs — at
//! any jobs setting, interrupted and resumed or not — produce identical
//! bytes. Span entries deliberately omit `wall_start_seconds`: a span's
//! position on the host timeline belongs to the Chrome-trace export, not
//! the report.

use crate::json::Json;
use crate::recorder::Collector;

/// Version of the report's top-level schema.
pub const SCHEMA_VERSION: u64 = 1;

/// Builds the full run report from a detached collector.
pub fn build_report(collector: &Collector) -> Json {
    let mut report = Json::object();
    report.set("schema_version", Json::UInt(SCHEMA_VERSION));

    let mut manifest = Json::object();
    for (key, value) in &collector.manifest {
        manifest.set(key, value.clone());
    }
    manifest.set(
        "sample_period",
        Json::UInt(collector.settings.sample_period),
    );
    manifest.set(
        "series_capacity",
        Json::UInt(collector.settings.series_capacity as u64),
    );
    report.set("manifest", manifest);

    report.set(
        "warnings",
        Json::Array(
            collector
                .warnings
                .iter()
                .map(|w| Json::from(w.as_str()))
                .collect(),
        ),
    );

    let mut phases = Vec::new();
    for phase in collector.phases() {
        let mut p = Json::object();
        p.set("name", Json::from(phase.name));
        p.set("wall_seconds", Json::Float(phase.wall_seconds));
        p.set("cycles", Json::UInt(phase.cycles));
        p.set("uops", Json::UInt(phase.uops));
        p.set(
            "cycles_per_sec",
            Json::Float(rate(phase.cycles, phase.wall_seconds)),
        );
        phases.push(p);
    }
    report.set("phases", Json::Array(phases));

    let mut spans = Vec::new();
    for span in &collector.spans {
        let mut s = Json::object();
        s.set("name", Json::from(span.name));
        s.set(
            "parent",
            span.parent.map_or(Json::Null, |p| Json::UInt(p as u64)),
        );
        s.set("cycles", Json::UInt(span.cycles));
        s.set("uops", Json::UInt(span.uops));
        s.set("wall_seconds", Json::Float(span.wall_seconds));
        spans.push(s);
    }
    report.set("spans", Json::Array(spans));

    let mut totals = Json::object();
    totals.set("cycles", Json::UInt(collector.total_cycles));
    totals.set("uops", Json::UInt(collector.total_uops));
    totals.set("wall_seconds", Json::Float(collector.wall_seconds));
    totals.set(
        "cycles_per_sec",
        Json::Float(rate(collector.total_cycles, collector.wall_seconds)),
    );
    totals.set(
        "uops_per_sec",
        Json::Float(rate(collector.total_uops, collector.wall_seconds)),
    );
    report.set("totals", totals);

    report.set("metrics", collector.output.registry.to_json());

    let mut series = Json::object();
    let mut names: Vec<usize> = (0..collector.output.series.len()).collect();
    names.sort_by_key(|&i| collector.output.series[i].0);
    for i in names {
        let (name, ring) = &collector.output.series[i];
        series.set(name, ring.to_json());
    }
    report.set("series", series);

    // Driver-contributed sections last: each becomes its own top-level
    // key. Reserved keys are skipped so a misbehaving driver cannot
    // clobber the core schema.
    for (name, value) in &collector.sections {
        if !RESERVED_KEYS.contains(&name.as_str()) {
            report.set(name, value.clone());
        }
    }
    report
}

/// Top-level keys owned by the core report schema; driver sections may
/// not shadow them.
const RESERVED_KEYS: &[&str] = &[
    "schema_version",
    "manifest",
    "warnings",
    "phases",
    "spans",
    "totals",
    "metrics",
    "series",
];

fn rate(count: u64, seconds: f64) -> f64 {
    if seconds > 0.0 {
        count as f64 / seconds
    } else {
        0.0
    }
}

/// Checks a report against the expected top-level schema: required keys
/// present with the right JSON types, phase entries well-formed, series
/// values arrays of `[time, value]` pairs.
///
/// # Errors
///
/// Returns a description of the first mismatch.
pub fn validate_report(report: &Json) -> Result<(), String> {
    if report.as_object().is_none() {
        return Err(format!(
            "report must be an object, got {}",
            report.type_name()
        ));
    }

    let version = report
        .get("schema_version")
        .ok_or("missing key: schema_version")?
        .as_u64()
        .ok_or("schema_version must be an unsigned integer")?;
    if version != SCHEMA_VERSION {
        return Err(format!(
            "schema_version {version} != expected {SCHEMA_VERSION}"
        ));
    }

    expect_type(report, "manifest", "object")?;
    // Older reports omit `warnings`; when present it must be an array of
    // strings.
    if let Some(warnings) = report.get("warnings") {
        let warnings = warnings
            .as_array()
            .ok_or_else(|| format!("warnings must be an array, got {}", warnings.type_name()))?;
        for (i, warning) in warnings.iter().enumerate() {
            if warning.as_str().is_none() {
                return Err(format!("warnings[{i}] must be a string"));
            }
        }
    }
    expect_type(report, "phases", "array")?;
    expect_type(report, "totals", "object")?;
    expect_type(report, "metrics", "object")?;
    expect_type(report, "series", "object")?;

    // The bench CLI stamps `manifest.status`; when present it must be one
    // of the three run outcomes ("incomplete" marks a partial report with
    // quarantined cells).
    if let Some(status) = report.get("manifest").and_then(|m| m.get("status")) {
        match status.as_str() {
            Some("ok" | "error" | "incomplete") => {}
            Some(other) => {
                return Err(format!(
                    "manifest.status must be \"ok\", \"error\" or \"incomplete\", got {other:?}"
                ));
            }
            None => {
                return Err(format!(
                    "manifest.status must be a string, got {}",
                    status.type_name()
                ));
            }
        }
    }

    let totals = report.get("totals").ok_or("missing key: totals")?;
    for key in [
        "cycles",
        "uops",
        "wall_seconds",
        "cycles_per_sec",
        "uops_per_sec",
    ] {
        let value = totals
            .get(key)
            .ok_or_else(|| format!("totals missing key: {key}"))?;
        if value.as_f64().is_none() {
            return Err(format!(
                "totals.{key} must be a number, got {}",
                value.type_name()
            ));
        }
    }

    if let Some(phases) = report.get("phases").and_then(Json::as_array) {
        for (i, phase) in phases.iter().enumerate() {
            for key in ["name", "wall_seconds", "cycles", "uops"] {
                if phase.get(key).is_none() {
                    return Err(format!("phases[{i}] missing key: {key}"));
                }
            }
            if phase.get("name").and_then(Json::as_str).is_none() {
                return Err(format!("phases[{i}].name must be a string"));
            }
            if phase.get("wall_seconds").and_then(Json::as_f64).is_none() {
                return Err(format!("phases[{i}].wall_seconds must be a number"));
            }
            for key in ["cycles", "uops"] {
                if phase.get(key).and_then(Json::as_u64).is_none() {
                    return Err(format!("phases[{i}].{key} must be an unsigned integer"));
                }
            }
        }
    }

    // `spans` arrived with the tracing layer; older reports omit it. When
    // present each entry is a tree node whose parent is null or the index
    // of an earlier span.
    if let Some(spans) = report.get("spans") {
        let spans = spans
            .as_array()
            .ok_or_else(|| format!("spans must be an array, got {}", spans.type_name()))?;
        for (i, span) in spans.iter().enumerate() {
            if span.get("name").and_then(Json::as_str).is_none() {
                return Err(format!("spans[{i}].name must be a string"));
            }
            match span.get("parent") {
                Some(Json::Null) => {}
                Some(parent) => {
                    let parent = parent
                        .as_u64()
                        .ok_or_else(|| format!("spans[{i}].parent must be null or an index"))?;
                    if parent as usize >= i {
                        return Err(format!("spans[{i}].parent {parent} must precede the span"));
                    }
                }
                None => return Err(format!("spans[{i}] missing key: parent")),
            }
            for key in ["cycles", "uops"] {
                if span.get(key).and_then(Json::as_u64).is_none() {
                    return Err(format!("spans[{i}].{key} must be an unsigned integer"));
                }
            }
        }
    }

    let metrics = report.get("metrics").ok_or("missing key: metrics")?;
    for key in ["counters", "gauges", "histograms"] {
        let value = metrics
            .get(key)
            .ok_or_else(|| format!("metrics missing key: {key}"))?;
        if value.as_object().is_none() {
            return Err(format!(
                "metrics.{key} must be an object, got {}",
                value.type_name()
            ));
        }
    }

    // The fleet driver's distribution section is optional; when present it
    // must carry its own schema version and well-formed quantile blocks.
    if let Some(fleet) = report.get("fleet") {
        validate_fleet_section(fleet)?;
    }

    // Likewise the netlist study's section.
    if let Some(netlist) = report.get("netlist") {
        validate_netlist_section(netlist)?;
    }

    if let Some(series) = report.get("series").and_then(Json::as_object) {
        for (name, points) in series {
            let points = points
                .as_array()
                .ok_or_else(|| format!("series.{name} must be an array"))?;
            for point in points {
                let pair = point
                    .as_array()
                    .ok_or_else(|| format!("series.{name} points must be [t, v] pairs"))?;
                if pair.len() != 2 {
                    return Err(format!(
                        "series.{name} point has {} elements, expected 2",
                        pair.len()
                    ));
                }
                if pair[0].as_u64().is_none() {
                    return Err(format!("series.{name} sample time must be an integer"));
                }
                // pair[1] may be null: a non-finite sample value.
                if pair[1].as_f64().is_none() && pair[1] != Json::Null {
                    return Err(format!(
                        "series.{name} sample value must be numeric or null"
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Version of the optional `fleet` report section's schema. The fleet
/// driver stamps this into the section it contributes; validation pins it
/// so readers of the distribution summary can trust the field layout.
pub const FLEET_SCHEMA: u64 = 1;

/// Quantile keys every fleet metric block must carry, alongside the
/// moment summary.
const FLEET_QUANTILES: &[&str] = &["count", "mean", "std", "min", "max", "p50", "p95", "p99"];

fn validate_fleet_section(fleet: &Json) -> Result<(), String> {
    if fleet.as_object().is_none() {
        return Err(format!(
            "fleet must be an object, got {}",
            fleet.type_name()
        ));
    }
    let version = fleet
        .get("fleet_schema")
        .ok_or("fleet missing key: fleet_schema")?
        .as_u64()
        .ok_or("fleet.fleet_schema must be an unsigned integer")?;
    if version != FLEET_SCHEMA {
        return Err(format!(
            "fleet.fleet_schema {version} != expected {FLEET_SCHEMA}"
        ));
    }
    if fleet.get("fleet_size").and_then(Json::as_u64).is_none() {
        return Err("fleet.fleet_size must be an unsigned integer".to_string());
    }
    for metric in ["guardband", "duty", "vmin"] {
        let block = fleet
            .get(metric)
            .ok_or_else(|| format!("fleet missing key: {metric}"))?;
        for key in FLEET_QUANTILES {
            let value = block
                .get(key)
                .ok_or_else(|| format!("fleet.{metric} missing key: {key}"))?;
            if value.as_f64().is_none() {
                return Err(format!(
                    "fleet.{metric}.{key} must be a number, got {}",
                    value.type_name()
                ));
            }
        }
    }
    let worst = fleet
        .get("worst_core")
        .ok_or("fleet missing key: worst_core")?;
    if worst.get("index").and_then(Json::as_u64).is_none() {
        return Err("fleet.worst_core.index must be an unsigned integer".to_string());
    }
    for key in ["vmin_increase", "guardband"] {
        if worst.get(key).and_then(Json::as_f64).is_none() {
            return Err(format!("fleet.worst_core.{key} must be a number"));
        }
    }
    Ok(())
}

/// Version of the optional `netlist` report section's schema (the
/// arbitrary-netlist aging study). Stamped by the netlist driver and
/// pinned here so readers can trust the field layout.
pub const NETLIST_SCHEMA: u64 = 1;

fn validate_netlist_section(netlist: &Json) -> Result<(), String> {
    if netlist.as_object().is_none() {
        return Err(format!(
            "netlist must be an object, got {}",
            netlist.type_name()
        ));
    }
    let version = netlist
        .get("netlist_schema")
        .ok_or("netlist missing key: netlist_schema")?
        .as_u64()
        .ok_or("netlist.netlist_schema must be an unsigned integer")?;
    if version != NETLIST_SCHEMA {
        return Err(format!(
            "netlist.netlist_schema {version} != expected {NETLIST_SCHEMA}"
        ));
    }
    if netlist.get("model").and_then(Json::as_str).is_none() {
        return Err("netlist.model must be a string".to_string());
    }
    for key in [
        "inputs",
        "outputs",
        "gates",
        "transistors",
        "wide_transistors",
        "dce_removed",
        "vectors",
        "observed_time",
    ] {
        if netlist.get(key).and_then(Json::as_u64).is_none() {
            return Err(format!("netlist.{key} must be an unsigned integer"));
        }
    }
    let duty = netlist.get("duty").ok_or("netlist missing key: duty")?;
    for key in ["p50", "p95", "p99", "max"] {
        if duty.get(key).and_then(Json::as_f64).is_none() {
            return Err(format!("netlist.duty.{key} must be a number"));
        }
    }
    let worst = netlist.get("worst").ok_or("netlist missing key: worst")?;
    for key in ["duty", "narrow_duty", "vth_shift", "guardband"] {
        if worst.get(key).and_then(Json::as_f64).is_none() {
            return Err(format!("netlist.worst.{key} must be a number"));
        }
    }
    let partitions = netlist
        .get("partitions")
        .ok_or("netlist missing key: partitions")?
        .as_array()
        .ok_or("netlist.partitions must be an array")?;
    for (i, part) in partitions.iter().enumerate() {
        for key in ["part", "gates", "transistors"] {
            if part.get(key).and_then(Json::as_u64).is_none() {
                return Err(format!(
                    "netlist.partitions[{i}].{key} must be an unsigned integer"
                ));
            }
        }
        for key in ["p50", "p95", "max"] {
            if part.get(key).and_then(Json::as_f64).is_none() {
                return Err(format!("netlist.partitions[{i}].{key} must be a number"));
            }
        }
    }
    Ok(())
}

fn expect_type(report: &Json, key: &str, type_name: &str) -> Result<(), String> {
    let value = report
        .get(key)
        .ok_or_else(|| format!("missing key: {key}"))?;
    if value.type_name() != type_name {
        return Err(format!(
            "{key} must be {type_name}, got {}",
            value.type_name()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use crate::recorder::Settings;

    fn sample_collector() -> Collector {
        let mut collector = Collector {
            settings: Settings::default(),
            manifest: vec![("binary".to_string(), Json::from("fig6"))],
            warnings: vec!["quarantined: fig6 cell 1 after 2 attempts".to_string()],
            total_cycles: 1_000,
            total_uops: 400,
            wall_seconds: 0.6,
            spans: vec![
                crate::span::SpanRecord {
                    name: "driver: fig6",
                    parent: None,
                    cycles: 1_000,
                    uops: 400,
                    wall_start_seconds: 0.0,
                    wall_seconds: 0.5,
                    phase: false,
                },
                crate::span::SpanRecord {
                    name: "main",
                    parent: Some(0),
                    cycles: 1_000,
                    uops: 400,
                    wall_start_seconds: 0.1,
                    wall_seconds: 0.4,
                    phase: true,
                },
            ],
            sections: Vec::new(),
            output: crate::hooks::TelemetryOutput::default(),
        };
        let id = collector.output.registry.counter("uops");
        collector.output.registry.inc(id, 400);
        let mut ring = crate::series::RingSeries::new(8);
        ring.push(100, 0.5);
        ring.push(200, 0.75);
        collector.output.series.push(("sched.occupancy", ring));
        collector
    }

    #[test]
    fn built_reports_validate_and_round_trip() {
        let report = build_report(&sample_collector());
        validate_report(&report).expect("self-built report validates");
        let reparsed = parse(&report.encode()).expect("parses");
        validate_report(&reparsed).expect("validates after round trip");
        assert_eq!(
            reparsed
                .get("totals")
                .and_then(|t| t.get("cycles"))
                .and_then(Json::as_u64),
            Some(1_000)
        );
    }

    #[test]
    fn validation_rejects_missing_and_mistyped_keys() {
        let mut report = build_report(&sample_collector());
        report.set("schema_version", Json::from("one"));
        assert!(validate_report(&report).is_err());

        let report = parse(r#"{"schema_version":1}"#).expect("valid json");
        let err = validate_report(&report).expect_err("incomplete");
        assert!(err.contains("manifest"), "{err}");

        let mut report = build_report(&sample_collector());
        report.set("metrics", Json::Array(vec![]));
        let err = validate_report(&report).expect_err("mistyped");
        assert!(err.contains("metrics"), "{err}");

        for (key, value) in [
            ("cycles", Json::from("x")),
            ("uops", Json::Float(-1.5)),
            ("wall_seconds", Json::from("slow")),
        ] {
            let mut report = build_report(&sample_collector());
            let mut phase = report
                .get("phases")
                .and_then(Json::as_array)
                .and_then(|phases| phases.first())
                .cloned()
                .expect("the sample has a phase");
            phase.set(key, value);
            report.set("phases", Json::Array(vec![phase]));
            let err = validate_report(&report).expect_err("mistyped phase entry");
            assert!(err.contains(&format!("phases[0].{key}")), "{err}");
        }
    }

    #[test]
    fn warnings_are_carried_and_validated() {
        let report = build_report(&sample_collector());
        let warnings = report
            .get("warnings")
            .and_then(Json::as_array)
            .expect("warnings array present");
        assert_eq!(warnings.len(), 1);
        assert_eq!(
            warnings[0].as_str(),
            Some("quarantined: fig6 cell 1 after 2 attempts")
        );

        // Reports without warnings (older schema) still validate...
        let report = parse(
            r#"{"schema_version":1,"manifest":{},"phases":[],
                "totals":{"cycles":0,"uops":0,"wall_seconds":0.0,
                          "cycles_per_sec":0.0,"uops_per_sec":0.0},
                "metrics":{"counters":{},"gauges":{},"histograms":{}},
                "series":{}}"#,
        )
        .expect("valid json");
        validate_report(&report).expect("warnings are optional");

        // ...but a mistyped warnings key is rejected.
        let mut report = build_report(&sample_collector());
        report.set("warnings", Json::Array(vec![Json::UInt(3)]));
        let err = validate_report(&report).expect_err("non-string warning");
        assert!(err.contains("warnings[0]"), "{err}");
    }

    #[test]
    fn validation_checks_the_status_tristate() {
        let mut report = build_report(&sample_collector());
        for status in ["ok", "error", "incomplete"] {
            if let Some(manifest) = report.get("manifest").cloned() {
                let mut manifest = manifest;
                manifest.set("status", Json::from(status));
                report.set("manifest", manifest);
            }
            validate_report(&report).expect("known status validates");
        }
        if let Some(manifest) = report.get("manifest").cloned() {
            let mut manifest = manifest;
            manifest.set("status", Json::from("crashed"));
            report.set("manifest", manifest);
        }
        let err = validate_report(&report).expect_err("unknown status");
        assert!(err.contains("incomplete"), "{err}");
    }

    #[test]
    fn report_spans_carry_tree_shape_but_no_wall_start() {
        let report = build_report(&sample_collector());
        let spans = report
            .get("spans")
            .and_then(Json::as_array)
            .expect("spans array present");
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].get("parent"), Some(&Json::Null));
        assert_eq!(spans[1].get("parent").and_then(Json::as_u64), Some(0));
        // Wall data in a report span is confined to `wall_seconds`, the
        // key the determinism tests already strip.
        assert!(spans[1].get("wall_seconds").is_some());
        assert!(
            spans[1].get("wall_start_seconds").is_none(),
            "timeline positions belong to the Chrome trace, not the report"
        );

        // Reports without spans (older schema) still validate...
        let mut report = build_report(&sample_collector());
        if let Json::Object(fields) = &mut report {
            fields.retain(|(key, _)| key != "spans");
        }
        validate_report(&report).expect("spans are optional");
        // ...but malformed span entries are rejected.
        let mut report = build_report(&sample_collector());
        let mut forward = Json::object();
        forward.set("name", Json::from("bad"));
        forward.set("parent", Json::UInt(7)); // forward reference
        forward.set("cycles", Json::UInt(0));
        forward.set("uops", Json::UInt(0));
        report.set("spans", Json::Array(vec![forward]));
        let err = validate_report(&report).expect_err("forward parent");
        assert!(err.contains("must precede"), "{err}");
    }

    #[test]
    fn phases_are_the_marked_spans() {
        let report = build_report(&sample_collector());
        let phases = report
            .get("phases")
            .and_then(Json::as_array)
            .expect("phases array present");
        assert_eq!(phases.len(), 1, "only the marked span is a phase");
        let keys: Vec<&str> = phases[0]
            .as_object()
            .expect("phase entry is an object")
            .iter()
            .map(|(key, _)| key.as_str())
            .collect();
        assert_eq!(
            keys,
            ["name", "wall_seconds", "cycles", "uops", "cycles_per_sec"]
        );
        assert_eq!(phases[0].get("name").and_then(Json::as_str), Some("main"));
        assert_eq!(phases[0].get("cycles").and_then(Json::as_u64), Some(1_000));
        let spans = report
            .get("spans")
            .and_then(Json::as_array)
            .expect("spans array present");
        assert!(
            spans.iter().all(|span| span.get("phase").is_none()),
            "the phase mark stays out of the report's spans"
        );
    }

    fn sample_fleet_section() -> Json {
        let metric_block = || {
            let mut block = Json::object();
            for key in FLEET_QUANTILES {
                block.set(key, Json::Float(0.5));
            }
            block
        };
        let mut fleet = Json::object();
        fleet.set("fleet_schema", Json::UInt(FLEET_SCHEMA));
        fleet.set("fleet_size", Json::UInt(4096));
        fleet.set("variation_sigma", Json::Float(0.1));
        fleet.set("guardband", metric_block());
        fleet.set("duty", metric_block());
        fleet.set("vmin", metric_block());
        let mut worst = Json::object();
        worst.set("index", Json::UInt(17));
        worst.set("vmin_increase", Json::Float(0.08));
        worst.set("guardband", Json::Float(0.19));
        fleet.set("worst_core", worst);
        fleet
    }

    #[test]
    fn sections_become_top_level_keys_but_cannot_shadow_the_schema() {
        let mut collector = sample_collector();
        collector
            .sections
            .push(("fleet".to_string(), sample_fleet_section()));
        collector
            .sections
            .push(("totals".to_string(), Json::from("clobbered")));
        let report = build_report(&collector);
        validate_report(&report).expect("report with fleet section validates");
        assert!(report.get("fleet").is_some(), "section emitted");
        assert!(
            report.get("totals").and_then(|t| t.get("cycles")).is_some(),
            "reserved key survives a shadowing section"
        );
    }

    #[test]
    fn malformed_fleet_sections_are_rejected() {
        let mut collector = sample_collector();
        let mut fleet = sample_fleet_section();
        fleet.set("fleet_schema", Json::UInt(FLEET_SCHEMA + 1));
        collector.sections.push(("fleet".to_string(), fleet));
        let err = validate_report(&build_report(&collector)).expect_err("wrong schema");
        assert!(err.contains("fleet_schema"), "{err}");

        let mut fleet = sample_fleet_section();
        if let Json::Object(fields) = &mut fleet {
            fields.retain(|(key, _)| key != "guardband");
        }
        collector.sections = vec![("fleet".to_string(), fleet)];
        let err = validate_report(&build_report(&collector)).expect_err("missing block");
        assert!(err.contains("guardband"), "{err}");

        let mut fleet = sample_fleet_section();
        let mut bad = fleet.get("duty").cloned().unwrap_or_else(Json::object);
        bad.set("p99", Json::from("high"));
        fleet.set("duty", bad);
        collector.sections = vec![("fleet".to_string(), fleet)];
        let err = validate_report(&build_report(&collector)).expect_err("mistyped quantile");
        assert!(err.contains("duty.p99"), "{err}");
    }

    fn sample_netlist_section() -> Json {
        let mut netlist = Json::object();
        netlist.set("netlist_schema", Json::UInt(NETLIST_SCHEMA));
        netlist.set("model", Json::from("mul4x4"));
        netlist.set("source", Json::from("multiplier"));
        for key in [
            "inputs",
            "outputs",
            "gates",
            "transistors",
            "wide_transistors",
            "dce_removed",
            "vectors",
            "observed_time",
        ] {
            netlist.set(key, Json::UInt(8));
        }
        netlist.set("partition_seed", Json::UInt(1));
        netlist.set("stimulus_seed", Json::UInt(2));
        let mut duty = Json::object();
        for key in ["p50", "p95", "p99", "max"] {
            duty.set(key, Json::Float(0.5));
        }
        netlist.set("duty", duty);
        let mut worst = Json::object();
        for key in ["duty", "narrow_duty", "vth_shift", "guardband"] {
            worst.set(key, Json::Float(0.5));
        }
        netlist.set("worst", worst);
        let mut part = Json::object();
        part.set("part", Json::UInt(0));
        part.set("gates", Json::UInt(4));
        part.set("transistors", Json::UInt(8));
        for key in ["p50", "p95", "max"] {
            part.set(key, Json::Float(0.5));
        }
        netlist.set("partitions", Json::Array(vec![part]));
        netlist
    }

    #[test]
    fn well_formed_netlist_sections_validate() {
        let mut collector = sample_collector();
        collector
            .sections
            .push(("netlist".to_string(), sample_netlist_section()));
        let report = build_report(&collector);
        validate_report(&report).expect("report with netlist section validates");
        assert!(report.get("netlist").is_some(), "section emitted");
    }

    #[test]
    fn malformed_netlist_sections_are_rejected() {
        let mut collector = sample_collector();
        let mut netlist = sample_netlist_section();
        netlist.set("netlist_schema", Json::UInt(NETLIST_SCHEMA + 1));
        collector.sections.push(("netlist".to_string(), netlist));
        let err = validate_report(&build_report(&collector)).expect_err("wrong schema");
        assert!(err.contains("netlist_schema"), "{err}");

        let mut netlist = sample_netlist_section();
        if let Json::Object(fields) = &mut netlist {
            fields.retain(|(key, _)| key != "duty");
        }
        collector.sections = vec![("netlist".to_string(), netlist)];
        let err = validate_report(&build_report(&collector)).expect_err("missing duty");
        assert!(err.contains("duty"), "{err}");

        let mut netlist = sample_netlist_section();
        let mut bad = Json::object();
        bad.set("part", Json::from("zero"));
        netlist.set("partitions", Json::Array(vec![bad]));
        collector.sections = vec![("netlist".to_string(), netlist)];
        let err = validate_report(&build_report(&collector)).expect_err("mistyped partition");
        assert!(err.contains("partitions[0].part"), "{err}");

        let mut netlist = sample_netlist_section();
        netlist.set("transistors", Json::Float(-1.0));
        collector.sections = vec![("netlist".to_string(), netlist)];
        let err = validate_report(&build_report(&collector)).expect_err("mistyped count");
        assert!(err.contains("transistors"), "{err}");
    }

    #[test]
    fn validation_rejects_malformed_series_points() {
        let mut report = build_report(&sample_collector());
        let mut series = Json::object();
        series.set("bad", Json::Array(vec![Json::Array(vec![Json::UInt(1)])]));
        report.set("series", series);
        let err = validate_report(&report).expect_err("short point");
        assert!(err.contains("expected 2"), "{err}");
    }

    #[test]
    fn rates_guard_against_zero_wall_time() {
        let mut collector = sample_collector();
        collector.wall_seconds = 0.0;
        let report = build_report(&collector);
        let rate = report
            .get("totals")
            .and_then(|t| t.get("cycles_per_sec"))
            .and_then(Json::as_f64)
            .expect("rate present");
        assert!((rate - 0.0).abs() < 1e-12);
    }
}
