//! Penelope: the NBTI-aware processor (MICRO 2007).
//!
//! This crate implements the paper's contribution on top of the
//! reproduction substrates:
//!
//! - [`rinv`]: the per-structure `RINV` register holding inverted sampled
//!   values, updated periodically from live data (§3.2.2);
//! - [`technique`]: the balancing techniques for explicitly managed blocks
//!   — `ALL1`/`ALL0`, `ALL1-K%`/`ALL0-K%` and `ISV` — with the casuistic of
//!   Figure 3 that picks one per field ([`technique::choose_technique`]);
//! - [`regfile_aware`]: the NBTI-aware register file of §4.4
//!   (invert-at-release through spare write ports);
//! - [`sched_aware`]: the NBTI-aware scheduler of §4.5 (per-field
//!   techniques, profiled K values);
//! - [`cache_aware`]: the cache-like schemes of §3.2.1/§4.6 — `SetFixed`,
//!   `WayFixed`, `LineFixed` and `LineDynamic` with its
//!   warm-up/measure/decide activity test;
//! - [`adder_aware`]: the combinational-block strategy of §3.1/§4.3
//!   (idle-vector pair selection and guardband accounting for the
//!   Ladner-Fischer adder);
//! - [`invert_mode`]: the conventional alternative — operating memory
//!   structures in inverted mode half of the time — used as the paper's
//!   comparison point;
//! - [`l2_study`]: an extension quantifying where invert mode *does* make
//!   sense (slow L2-like structures, per §3 and Table 4);
//! - [`processor`]: the whole-processor assembly and the §4.7 aggregation;
//! - [`experiments`]: drivers that regenerate every figure and table of the
//!   evaluation (used by the `penelope-bench` binaries and the integration
//!   tests);
//! - [`report`]: plain-text rendering of the figures/tables;
//! - [`error`]: the crate-wide typed [`error::Error`] every driver returns
//!   instead of panicking;
//! - [`fault`]: deterministic fault injection ([`fault::FaultPlan`],
//!   [`fault::FaultInjector`]) perturbing workloads, configurations and
//!   live structures;
//! - [`checked`]: [`checked::CheckedHooks`], a wrapper validating runtime
//!   invariants (duties in range, cache accounting, RINV freshness) every
//!   sample period;
//! - [`obs`]: the observability glue wiring every hook chain into the
//!   `penelope-telemetry` recorder ([`obs::with_recording`]) and encoding
//!   configurations for the run manifest;
//! - [`par`]: the parallel sweep engine — a scoped-thread worker pool
//!   executing experiment grids cell by cell with per-worker telemetry
//!   recorders and a deterministic, cell-index-ordered merge, so
//!   `--jobs N` runs reproduce `--jobs 1` byte for byte outside
//!   wall-clock fields. Cells run under a supervisor (panic capture,
//!   an immediate rerun of a failed cell, cycle-budget watchdog,
//!   quarantine);
//! - [`journal`]: the crash-safe checkpoint journal the engine persists
//!   completed cells into, so interrupted sweeps resume instead of
//!   restarting ([`journal::CheckpointContext`], [`journal::CellPayload`]);
//!   a journal resumes only under the executable and settings that wrote
//!   it;
//! - [`fleet`]: fleet-scale Monte Carlo aging sweeps — N core instances
//!   with seeded process-variation draws and per-suite workload anchors,
//!   aggregated through compact mergeable sketches
//!   ([`fleet::FleetSketch`]) into guardband/duty/Vmin distributions;
//! - [`netlist_study`]: arbitrary-netlist aging — BLIF models lowered
//!   through [`gatesim::blif`], compiled by the [`gatesim::passes`]
//!   pipeline (dead-cone elimination, instance mapping, seeded
//!   partitioning) and aged partition-by-partition as hermetic sweep
//!   cells with a bit-exact integer-counter merge.
//!
//! # Quickstart
//!
//! ```
//! use penelope::experiments::{self, Scale};
//!
//! // Reproduce the §4.2 worked examples: the all-guardband baseline and
//! // the periodic-inversion design. Drivers return typed errors instead
//! // of panicking on degenerate inputs.
//! let eff = experiments::efficiency_summary(Scale::quick()).expect("quick scale runs");
//! let baseline = eff.iter().find(|e| e.name == "baseline (full guardband)").unwrap();
//! assert!((baseline.efficiency - 1.73).abs() < 0.01);
//! ```
//!
//! # Fault injection
//!
//! ```
//! use penelope::experiments::{efficiency_summary_faulted, Scale};
//! use penelope::fault::FaultPlan;
//!
//! // Whatever the (seeded, deterministic) fault plan does to the
//! // pipeline, the driver returns a typed error or a valid summary —
//! // it never panics.
//! let plan = FaultPlan::random(42);
//! match efficiency_summary_faulted(Scale::quick(), &plan) {
//!     Ok(rows) => assert!(!rows.is_empty()),
//!     Err(err) => println!("rejected: {err}"),
//! }
//! ```

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
pub mod adder_aware;
pub mod cache_aware;
pub mod checked;
pub mod error;
pub mod experiments;
pub mod fault;
pub mod fleet;
pub mod invert_mode;
pub mod journal;
pub mod l2_study;
pub mod netlist_study;
pub mod obs;
pub mod par;
pub mod processor;
pub mod regfile_aware;
pub mod report;
pub mod rinv;
pub mod sched_aware;
pub mod technique;
