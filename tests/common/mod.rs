//! Helpers shared by the integration tests: the recorder settings every
//! instrumented run uses and the wall-clock strip that makes two reports
//! comparable.
//!
//! Not every test binary uses every helper.
#![allow(dead_code)]

use penelope_telemetry::recorder::Settings;
use penelope_telemetry::Json;

/// The recorder settings of every instrumented test run.
pub fn settings() -> Settings {
    Settings {
        sample_period: 256,
        series_capacity: 128,
    }
}

/// Strips a report's wall-clock keys (`wall_seconds`, `cycles_per_sec`,
/// `uops_per_sec`) at every depth. What remains is a pure function of the
/// simulation: byte-identical across jobs settings, interruption and
/// same-seed reruns.
pub fn canonicalize(json: &mut Json) {
    match json {
        Json::Object(fields) => {
            fields.retain(|(key, _)| {
                !matches!(
                    key.as_str(),
                    "wall_seconds" | "cycles_per_sec" | "uops_per_sec"
                )
            });
            for (_, value) in fields.iter_mut() {
                canonicalize(value);
            }
        }
        Json::Array(items) => {
            for value in items.iter_mut() {
                canonicalize(value);
            }
        }
        _ => {}
    }
}
