//! Exact-state JSON codec for [`Snapshot`]s, the unit of durability in
//! the checkpoint journal.
//!
//! The report encoder ([`crate::report`]) is lossy on purpose — it sorts
//! metric names, drops mean accumulators and flattens ring buffers. A
//! checkpointed cell must instead restore to a snapshot that merges
//! *byte-identically* to the one that was captured, so this codec carries
//! the full physical state: registration-ordered metrics (with histogram
//! mean accumulators), ring capacities and lifetime push counts, and
//! series in first-touch order. The round-trip invariant is pinned by
//! the unit test `roundtrip_is_exact_for_a_real_run`: `decode(encode(s)) == s`
//! under the derived `PartialEq`, which compares physical ring layout.
//!
//! Non-finite floats encode as `null` (the [`crate::json`] rule); decode
//! maps `null` series values back to NaN so a NaN sample survives the
//! trip. Finite floats use the shortest-round-trip formatter, which
//! re-parses to the exact same value.
//!
//! Spans round-trip in full — including `wall_start_seconds`, which the
//! report encoder deliberately drops — because a restored cell must merge
//! byte-identically into both the golden report *and* the Chrome-trace
//! export. Journal lines sealed before the tracing layer simply omit the
//! `spans` key; decode treats that as an empty tree, so old checkpoint
//! journals keep restoring.

use crate::hooks::TelemetryOutput;
use crate::json::Json;
use crate::metrics::{intern, Registry};
use crate::recorder::{Phase, Snapshot};
use crate::series::RingSeries;
use crate::span::SpanRecord;

/// Encodes a snapshot into a self-contained JSON object.
pub fn encode_snapshot(snapshot: &Snapshot) -> Json {
    let manifest = snapshot
        .manifest
        .iter()
        .map(|(k, v)| Json::Array(vec![Json::Str(k.clone()), v.clone()]))
        .collect();
    let phases = snapshot
        .phases
        .iter()
        .map(|p| {
            let mut obj = Json::object();
            obj.set("name", Json::Str(p.name.clone()));
            obj.set("wall_seconds", Json::Float(p.wall_seconds));
            obj.set("cycles", Json::UInt(p.cycles));
            obj.set("uops", Json::UInt(p.uops));
            obj
        })
        .collect();
    let warnings = snapshot
        .warnings
        .iter()
        .map(|w| Json::Str(w.clone()))
        .collect();
    let spans = snapshot
        .spans
        .iter()
        .map(|s| {
            let mut obj = Json::object();
            obj.set("name", Json::from(s.name));
            obj.set(
                "parent",
                s.parent.map_or(Json::Null, |p| Json::UInt(p as u64)),
            );
            obj.set("cycles", Json::UInt(s.cycles));
            obj.set("uops", Json::UInt(s.uops));
            obj.set("wall_start_seconds", Json::Float(s.wall_start_seconds));
            obj.set("wall_seconds", Json::Float(s.wall_seconds));
            obj
        })
        .collect();
    let series = snapshot
        .output
        .series
        .iter()
        .map(|(name, ring)| {
            let mut obj = Json::object();
            obj.set("capacity", Json::UInt(ring.capacity() as u64));
            obj.set("pushed", Json::UInt(ring.total_pushed()));
            obj.set(
                "points",
                Json::Array(
                    ring.iter()
                        .map(|(t, v)| Json::Array(vec![Json::UInt(t), Json::Float(v)]))
                        .collect(),
                ),
            );
            Json::Array(vec![Json::Str((*name).to_string()), obj])
        })
        .collect();
    let mut output = Json::object();
    output.set("metrics", snapshot.output.registry.checkpoint_json());
    output.set("series", Json::Array(series));
    let mut obj = Json::object();
    obj.set("manifest", Json::Array(manifest));
    obj.set("phases", Json::Array(phases));
    obj.set("warnings", Json::Array(warnings));
    obj.set("total_cycles", Json::UInt(snapshot.total_cycles));
    obj.set("total_uops", Json::UInt(snapshot.total_uops));
    obj.set("spans", Json::Array(spans));
    obj.set("output", output);
    obj
}

/// Decodes an [`encode_snapshot`] encoding back into a state-identical
/// snapshot.
///
/// # Errors
///
/// Returns a description of the first missing or mistyped field; never
/// panics on malformed input.
pub fn decode_snapshot(json: &Json) -> Result<Snapshot, String> {
    let manifest = json
        .get("manifest")
        .and_then(Json::as_array)
        .ok_or("snapshot missing manifest array")?
        .iter()
        .map(|entry| {
            let pair = entry
                .as_array()
                .filter(|p| p.len() == 2)
                .ok_or("manifest entry must be a [key, value] pair")?;
            let key = pair[0]
                .as_str()
                .ok_or("manifest key must be a string")?
                .to_string();
            Ok((key, pair[1].clone()))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let phases = json
        .get("phases")
        .and_then(Json::as_array)
        .ok_or("snapshot missing phases array")?
        .iter()
        .map(decode_phase)
        .collect::<Result<Vec<_>, String>>()?;
    let warnings = json
        .get("warnings")
        .and_then(Json::as_array)
        .ok_or("snapshot missing warnings array")?
        .iter()
        .map(|w| {
            w.as_str()
                .map(str::to_string)
                .ok_or_else(|| "warning must be a string".to_string())
        })
        .collect::<Result<Vec<_>, String>>()?;
    let total = |key: &str| -> Result<u64, String> {
        json.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("snapshot missing unsigned field {key:?}"))
    };
    // Snapshots sealed before the tracing layer carry no spans; treat a
    // missing key as an empty tree so old journals keep restoring.
    let spans = match json.get("spans") {
        None => Vec::new(),
        Some(spans) => spans
            .as_array()
            .ok_or("snapshot spans must be an array")?
            .iter()
            .enumerate()
            .map(|(i, s)| decode_span(i, s))
            .collect::<Result<Vec<_>, String>>()?,
    };
    let output = json.get("output").ok_or("snapshot missing output object")?;
    let registry = Registry::from_checkpoint_json(
        output
            .get("metrics")
            .ok_or("output missing metrics object")?,
    )?;
    let series = output
        .get("series")
        .and_then(Json::as_array)
        .ok_or("output missing series array")?
        .iter()
        .map(decode_series)
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Snapshot {
        manifest,
        phases,
        warnings,
        total_cycles: total("total_cycles")?,
        total_uops: total("total_uops")?,
        spans,
        output: TelemetryOutput { registry, series },
    })
}

fn decode_span(index: usize, json: &Json) -> Result<SpanRecord, String> {
    let name = json
        .get("name")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("spans[{index}] missing string field \"name\""))?;
    let parent = match json.get("parent") {
        Some(Json::Null) => None,
        Some(parent) => Some(
            parent
                .as_u64()
                .ok_or_else(|| format!("spans[{index}].parent must be null or unsigned"))?
                as usize,
        ),
        None => return Err(format!("spans[{index}] missing field \"parent\"")),
    };
    let uint = |key: &str| -> Result<u64, String> {
        json.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("spans[{index}] missing unsigned field {key:?}"))
    };
    let float = |key: &str| -> Result<f64, String> {
        json.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("spans[{index}] missing numeric field {key:?}"))
    };
    Ok(SpanRecord {
        name: intern(name),
        parent,
        cycles: uint("cycles")?,
        uops: uint("uops")?,
        wall_start_seconds: float("wall_start_seconds")?,
        wall_seconds: float("wall_seconds")?,
    })
}

fn decode_phase(json: &Json) -> Result<Phase, String> {
    let name = json
        .get("name")
        .and_then(Json::as_str)
        .ok_or("phase missing string field \"name\"")?
        .to_string();
    let wall_seconds = json
        .get("wall_seconds")
        .and_then(Json::as_f64)
        .ok_or("phase missing numeric field \"wall_seconds\"")?;
    let uint = |key: &str| -> Result<u64, String> {
        json.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("phase missing unsigned field {key:?}"))
    };
    Ok(Phase {
        name,
        wall_seconds,
        cycles: uint("cycles")?,
        uops: uint("uops")?,
    })
}

fn decode_series(json: &Json) -> Result<(&'static str, RingSeries), String> {
    let pair = json
        .as_array()
        .filter(|p| p.len() == 2)
        .ok_or("series entry must be a [name, ring] pair")?;
    let name = pair[0].as_str().ok_or("series name must be a string")?;
    let ring = &pair[1];
    let capacity = ring
        .get("capacity")
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("series {name:?} missing unsigned field \"capacity\""))?;
    let pushed = ring
        .get("pushed")
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("series {name:?} missing unsigned field \"pushed\""))?;
    let points = ring
        .get("points")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("series {name:?} missing points array"))?
        .iter()
        .map(|point| {
            let point = point
                .as_array()
                .filter(|p| p.len() == 2)
                .ok_or_else(|| format!("series {name:?} point must be a [t, v] pair"))?;
            let t = point[0]
                .as_u64()
                .ok_or_else(|| format!("series {name:?} timestamp must be unsigned"))?;
            // Non-finite samples encode as null; restore them as NaN.
            let v = match &point[1] {
                Json::Null => f64::NAN,
                other => other
                    .as_f64()
                    .ok_or_else(|| format!("series {name:?} value must be a number or null"))?,
            };
            Ok((t, v))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok((
        intern(name),
        RingSeries::restore(capacity as usize, pushed, points),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{self, Settings};

    fn sample_snapshot() -> Snapshot {
        let _ = recorder::finish();
        recorder::install(Settings {
            sample_period: 64,
            series_capacity: 3,
        });
        let handle = recorder::worker_handle();
        let ((), snapshot) = handle.record_cell(|| {
            recorder::manifest_entry("scheme", Json::from("penelope"));
            recorder::warning("degraded: something fell back");
            recorder::phase("cell work", || recorder::record_run(1_234, 567));
            recorder::absorb(&{
                let mut out = TelemetryOutput::default();
                let id = out.registry.counter("hits");
                out.registry.inc(id, 42);
                let g = out.registry.gauge("level");
                out.registry.set(g, 0.375);
                let h = out.registry.histogram("duty", &[0.5, 1.0]);
                out.registry.observe(h, 0.25);
                out.registry.observe(h, 0.75);
                let mut ring = RingSeries::new(3);
                // Overfill so the ring wraps: restore must rebuild the
                // physical layout, not just the logical contents.
                for i in 0..5u64 {
                    ring.push(i * 64, i as f64 / 4.0);
                }
                out.series.push(("sched.occupancy", ring));
                out
            });
        });
        let _ = recorder::finish();
        snapshot.expect("recording was on")
    }

    #[test]
    fn roundtrip_is_exact_for_a_real_run() {
        let snapshot = sample_snapshot();
        assert!(
            !snapshot.spans.is_empty(),
            "the sample's phase should have produced a span"
        );
        let encoded = encode_snapshot(&snapshot).encode();
        let parsed = crate::json::parse(&encoded).expect("snapshot encoding parses");
        let restored = decode_snapshot(&parsed).expect("snapshot decodes");
        assert_eq!(restored, snapshot, "decode(encode(s)) must equal s");
        // And the re-encoding is byte-stable (the journal integrity hash
        // depends on this).
        assert_eq!(encode_snapshot(&restored).encode(), encoded);
    }

    #[test]
    fn pre_tracing_snapshots_without_spans_still_decode() {
        // A journal line sealed by an older build: no "spans" key at all.
        let legacy = r#"{"manifest":[],"phases":[],"warnings":[],"total_cycles":5,"total_uops":2,"output":{"metrics":{"counters":[],"gauges":[],"histograms":[]},"series":[]}}"#;
        let parsed = crate::json::parse(legacy).expect("parses");
        let restored = decode_snapshot(&parsed).expect("legacy snapshot decodes");
        assert!(restored.spans.is_empty(), "missing spans decode as empty");
    }

    #[test]
    fn nan_series_samples_survive_the_roundtrip() {
        let mut snapshot = sample_snapshot();
        let mut ring = RingSeries::new(2);
        ring.push(0, f64::NAN);
        snapshot.output.series.push(("events.faults", ring));
        let encoded = encode_snapshot(&snapshot).encode();
        let parsed = crate::json::parse(&encoded).expect("parses");
        let restored = decode_snapshot(&parsed).expect("decodes");
        let (_, restored_ring) = restored
            .output
            .series
            .iter()
            .find(|(n, _)| *n == "events.faults")
            .expect("series preserved");
        let (t, v) = restored_ring.last().expect("sample preserved");
        assert_eq!(t, 0);
        assert!(v.is_nan(), "null must decode back to NaN");
    }

    #[test]
    fn decode_rejects_malformed_snapshots() {
        for (broken, why) in [
            ("{}", "missing everything"),
            (
                r#"{"manifest":[],"phases":[],"warnings":[],"total_cycles":1,"total_uops":1}"#,
                "missing output",
            ),
            (
                r#"{"manifest":[["k"]],"phases":[],"warnings":[],"total_cycles":0,"total_uops":0,"output":{"metrics":{"counters":[],"gauges":[],"histograms":[]},"series":[]}}"#,
                "manifest entry not a pair",
            ),
            (
                r#"{"manifest":[],"phases":[{"name":"p"}],"warnings":[],"total_cycles":0,"total_uops":0,"output":{"metrics":{"counters":[],"gauges":[],"histograms":[]},"series":[]}}"#,
                "phase missing fields",
            ),
            (
                r#"{"manifest":[],"phases":[],"warnings":[],"total_cycles":0,"total_uops":0,"output":{"metrics":{"counters":[],"gauges":[],"histograms":[]},"series":[["s",{"capacity":2,"points":[]}]]}}"#,
                "series missing pushed",
            ),
            (
                r#"{"manifest":[],"phases":[],"warnings":[],"total_cycles":0,"total_uops":0,"spans":[{"name":"x"}],"output":{"metrics":{"counters":[],"gauges":[],"histograms":[]},"series":[]}}"#,
                "span missing fields",
            ),
        ] {
            let parsed = crate::json::parse(broken).expect("test input parses");
            assert!(
                decode_snapshot(&parsed).is_err(),
                "expected a decode error for: {why}"
            );
        }
    }
}
