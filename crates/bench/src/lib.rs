//! Shared helpers for the Penelope benchmark harness.
//!
//! Every `penelope-bench` binary regenerates one table or figure of the
//! paper, and they all share one front end, [`run_main`]:
//!
//! - scale selection via `--scale` (`quick`, `standard` — the default —
//!   or `thorough`; at any scale the *shape* of the paper's results is
//!   reproduced, larger scales reduce sampling noise);
//! - machine-readable run reports via `--json <path>`, produced by the
//!   `penelope-telemetry` recorder;
//! - parallel sweeps via `--jobs <N>` (default: all cores), wired to the
//!   `penelope::par` engine; results and telemetry are byte-identical to a
//!   serial run modulo wall-clock fields;
//! - a panic supervisor: drivers return typed errors, and anything that
//!   still panics is caught, reported as a partial-results failure and
//!   mapped to a nonzero exit code instead of an abort;
//! - fault injection: `--faults <u64 seed>` runs a seeded random fault
//!   plan through the efficiency pipeline in place of the binary's
//!   experiment, on the same supervised path, with its output on the same
//!   stream. A faulted run is a robustness exercise, not a reproduction,
//!   so it always exits 1 after reporting what the fault did.

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

mod cli;

pub use cli::{parse_scale, run_main, run_main_with, ExtraFlag};
