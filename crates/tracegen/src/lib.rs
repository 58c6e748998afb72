//! Deterministic synthetic IA32-like uop traces.
//!
//! The Penelope paper drives its evaluation with 531 proprietary traces of
//! 10M IA32 instructions collected from ten benchmark suites (Table 1). We
//! cannot have those, so this crate generates *synthetic* traces that are
//! calibrated to the workload statistics the paper actually relies on:
//!
//! - per-bit value bias of integer data (65–90% towards "0" in the integer
//!   register file, §1.1 and Figure 6);
//! - FP data whose worst bit bias is ~84% (Figure 6), with x87-style 80-bit
//!   encoding (sign/exponent/explicit-integer-bit structure);
//! - carry-in of additions "0" more than 90% of the time (§1.1);
//! - near-100% bias for some scheduler flags/shift/latency bits (§4.5);
//! - memory streams with tunable locality so cache capacity matters
//!   (Table 3 sweeps 8/16/32KB caches and 32/64/128-entry DTLBs).
//!
//! Every trace is reproducible: it draws from one xoshiro256** generator
//! ([`rng::TraceRng`]) seeded from the suite name and trace index only.
//!
//! # Example
//!
//! ```
//! use tracegen::suite::Suite;
//! use tracegen::trace::TraceSpec;
//!
//! let spec = TraceSpec::new(Suite::SpecInt2000, 0);
//! let trace: Vec<_> = spec.generate(1000).collect();
//! assert_eq!(trace.len(), 1000);
//! // Determinism: the same spec yields the same trace.
//! let again: Vec<_> = spec.generate(1000).collect();
//! assert_eq!(trace, again);
//! ```

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
pub mod error;
pub mod fault;
pub mod memgen;
pub mod rng;
pub mod soa;
pub mod suite;
pub mod trace;
pub mod uop;
pub mod values;

#[cfg(test)]
mod tests {
    use crate::rng::TraceRng;

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = TraceRng::new(3);
        for _ in 0..1_000 {
            let a = rng.range(5, 10);
            assert!((5..10).contains(&a));
            let b = rng.range(0, 49);
            assert!(b < 49);
            let c = rng.range(0, 16);
            assert!(c < 16);
        }
    }

    #[test]
    fn gen_range_covers_both_endpoints_of_inclusive_ranges() {
        // `range` is half-open, so `range(0, 3)` covers the inclusive 0..=2.
        let mut rng = TraceRng::new(9);
        let (mut lo_seen, mut hi_seen) = (false, false);
        for _ in 0..1_000 {
            match rng.range(0, 3) {
                0 => lo_seen = true,
                2 => hi_seen = true,
                _ => {}
            }
        }
        assert!(lo_seen && hi_seen);
    }
}
