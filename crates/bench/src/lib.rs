//! Shared helpers for the Penelope benchmark harness.
//!
//! Every `penelope-bench` binary regenerates one table or figure of the
//! paper, and they all share one front end, [`cli::run_main`]:
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
//! - fault injection: `--faults <u64 seed>` replaces the binary's
//!   experiment with a seeded random fault plan pushed through the full
//!   pipeline. A faulted run is a robustness exercise, not a reproduction,
//!   so it always exits nonzero after reporting what the fault did.

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod cli;

pub use cli::{header, parse_jobs, parse_scale, run_main, run_main_with, scale_name, ExtraFlag};
