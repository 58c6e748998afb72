//! Helpers shared by the integration tests: the recorder settings every
//! instrumented run uses, the wall-clock strip that makes two reports
//! comparable, the lock around the engine's process-wide slots, the
//! report hash of the golden pins, and the journal helpers of the
//! checkpoint tests.
//!
//! Not every test binary uses every helper.
#![allow(dead_code)]

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

use penelope::experiments::Scale;
use penelope::journal::JournalHeader;
use penelope::obs;
use penelope_telemetry::recorder::Settings;
use penelope_telemetry::Json;

/// Serializes the tests of one binary that touch the sweep engine's
/// process-wide slots: the jobs count, the supervisor policy, the
/// checkpoint context and the event stream.
static GLOBAL_LOCK: Mutex<()> = Mutex::new(());

/// Takes [`GLOBAL_LOCK`], surviving a test that panicked while holding it.
pub fn global_lock() -> MutexGuard<'static, ()> {
    GLOBAL_LOCK
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

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

/// FNV-1a 64-bit, the hash of the golden report pins: print it and paste
/// to regenerate a pin.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A fresh path for `name` in this test binary's own temp directory: any
/// file a previous run left there is removed.
pub fn tmp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(concat!("penelope-", env!("CARGO_CRATE_NAME")));
    fs::create_dir_all(&dir).expect("temp dir is writable");
    let path = dir.join(name);
    let _ = fs::remove_file(&path);
    path
}

/// The journal header of a quick-scale, fault-free run of `binary` under
/// the default supervisor policy.
pub fn header(binary: &str) -> JournalHeader {
    JournalHeader {
        binary: binary.to_string(),
        scale: obs::scale_json(&Scale::quick()),
        fault_seed: 0,
        retries: 1,
        cell_budget: None,
    }
}

/// Simulates a crash mid-sweep: keeps the journal header plus the first
/// `keep` data records and discards the rest, as a SIGKILL between
/// appends would. Returns how many data records remain.
pub fn truncate_journal(path: &Path, keep: usize) -> usize {
    let text = fs::read_to_string(path).expect("journal exists");
    let mut lines: Vec<&str> = text.lines().collect();
    assert!(
        lines.len() > keep + 1,
        "journal too short to truncate: {} lines",
        lines.len()
    );
    lines.truncate(keep + 1);
    let kept = lines.len() - 1;
    let mut out = lines.join("\n");
    out.push('\n');
    fs::write(path, out).expect("journal is writable");
    kept
}
