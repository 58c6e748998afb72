//! Property-based tests: trace generation is deterministic and every uop
//! respects the field bounds of Table 2.

use proptest::prelude::*;
use tracegen::rng::TraceRng;
use tracegen::suite::Suite;
use tracegen::trace::{TraceSpec, Workload};
use tracegen::values::{FpProfile, IntProfile};

fn any_suite() -> impl Strategy<Value = Suite> {
    (0usize..10).prop_map(|i| Suite::ALL[i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn any_trace_is_deterministic(suite in any_suite(), index in 0usize..33, len in 1usize..400) {
        let spec = TraceSpec::new(suite, index);
        let a: Vec<_> = spec.generate(len).collect();
        let b: Vec<_> = spec.generate(len).collect();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn uop_fields_respect_table_2_widths(suite in any_suite(), index in 0usize..33) {
        let spec = TraceSpec::new(suite, index);
        for uop in spec.generate(300) {
            prop_assert!(uop.latency < 32, "latency is a 5-bit field");
            prop_assert!(uop.port < 5, "port is one-hot over 5 ports");
            prop_assert!(uop.flags < 64, "flags is a 6-bit field");
            prop_assert!(uop.tos < 8, "tos is a 3-bit field");
            prop_assert!(uop.opcode < 0x1000, "opcode is a 12-bit field");
            prop_assert_eq!(uop.result.bits() >> 80, 0, "values are 80-bit");
            if let Some(dst) = uop.dst {
                let space = if uop.class.is_fp() { 8 } else { 16 };
                prop_assert!(dst < space);
            }
            prop_assert_eq!(uop.mem_addr.is_some(), uop.class.is_memory());
            if uop.taken || uop.mispredict {
                prop_assert_eq!(uop.class, tracegen::uop::UopClass::Branch);
            }
        }
    }

    #[test]
    fn int_profile_probabilities_are_honoured(seed in any::<u64>()) {
        let profile = IntProfile::default_calibrated();
        let mut rng = TraceRng::new(seed);
        let zeros = (0..4_000)
            .filter(|_| profile.sample(&mut rng) == 0)
            .count() as f64
            / 4_000.0;
        // p_zero = 0.22 with sampling noise.
        prop_assert!((0.15..=0.30).contains(&zeros), "zero fraction {zeros}");
    }

    #[test]
    fn fp_values_mask_to_80_bits(seed in any::<u64>()) {
        let profile = FpProfile::default_calibrated();
        let mut rng = TraceRng::new(seed);
        for _ in 0..200 {
            let v = profile.sample(&mut rng);
            prop_assert_eq!(v.bits() >> 80, 0);
        }
    }

    #[test]
    fn workload_sampling_is_within_bounds(per_suite in 1usize..40) {
        let w = Workload::sample(per_suite);
        prop_assert!(!w.is_empty());
        for spec in w.specs() {
            prop_assert!(spec.index() < spec.suite().trace_count());
        }
    }

    #[test]
    fn split_profiling_is_a_partition(profiling in 1usize..531) {
        let w = Workload::full();
        let (prof, eval) = w.split_profiling(profiling);
        prop_assert_eq!(prof.len(), profiling);
        prop_assert_eq!(prof.len() + eval.len(), 531);
        for p in prof.specs() {
            prop_assert!(!eval.specs().contains(p));
        }
    }
}
