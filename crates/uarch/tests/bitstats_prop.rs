//! Differential property suite for the lane residency kernel.
//!
//! `BitResidency` (`u16` pending lanes charged a byte at a time, spilled
//! into exact `u64` lanes) and `ScalarResidency` (the original per-bit
//! loop, kept as a reference oracle) are driven with identical event
//! streams — random `(value, duration)` records, interleaved merges and
//! `TrackedWord` write/flush traffic, durations straddling the lane spill
//! bound — and must agree on every exact integer count, at the word-size
//! edges (1, 63, 64, 65, 127, 128) and at the widths the simulator charges
//! (1, 6, 49, 64, 80, 92, 128).

use proptest::prelude::*;
use uarch::bitstats::{BitResidency, ScalarResidency, TrackedWord, LANE_CAPACITY};

/// Boundary widths: 1 (degenerate), 63/64/65 (u64 edges), 127/128 (u128
/// edges).
const WIDTHS: [usize; 6] = [1, 63, 64, 65, 127, 128];

/// Widths the simulator charges: 1-bit scheduler fields, 6-bit register
/// tags and flags, the 49-bit control and 92-bit data group words of a
/// scheduler slot, 64-bit words, 80-bit register values and 128-bit cache
/// and gate blocks.
const KERNEL_WIDTHS: [usize; 7] = [1, 6, 49, 64, 80, 92, 128];

fn any_u128() -> impl Strategy<Value = u128> {
    (any::<u64>(), any::<u64>()).prop_map(|(hi, lo)| (u128::from(hi) << 64) | u128::from(lo))
}

/// Durations biased across the interesting magnitudes: zero, small dense
/// values, sparse large values, and the lane spill bound.
fn any_duration() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        1u64..64,
        1u64..100_000,
        (0u64..=3).prop_map(|d| LANE_CAPACITY - 1 + d),
        (any::<u32>(), 0u64..=1).prop_map(|(lo, hi)| u64::from(lo) | (hi << 33)),
    ]
}

fn check_exact_agreement(
    swar: &BitResidency,
    scalar: &ScalarResidency,
    width: usize,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(swar.width(), width);
    prop_assert_eq!(swar.total_time(), scalar.total_time());
    for bit in 0..width {
        prop_assert_eq!(
            swar.zero_cycles(bit),
            scalar.zero_cycles(bit),
            "zero count of bit {} diverged",
            bit
        );
        prop_assert_eq!(swar.bias(bit), scalar.bias(bit), "bias of bit {}", bit);
    }
    prop_assert_eq!(swar.worst_cell_duty(), scalar.worst_cell_duty());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_streams_agree_exactly(
        width_index in 0usize..WIDTHS.len(),
        events in prop::collection::vec((any_u128(), any_duration()), 0..200),
    ) {
        let width = WIDTHS[width_index];
        let mut swar = BitResidency::new(width);
        let mut scalar = ScalarResidency::new(width);
        for &(value, duration) in &events {
            swar.record(value, duration);
            scalar.record(value, duration);
        }
        check_exact_agreement(&swar, &scalar, width)?;
    }

    #[test]
    fn interleaved_merges_agree_exactly(
        width_index in 0usize..WIDTHS.len(),
        // Each chunk records into a fresh accumulator pair which is then
        // merged into the running aggregate — the parallel sweep engine's
        // cell-merge pattern.
        chunks in prop::collection::vec(
            prop::collection::vec((any_u128(), any_duration()), 0..24),
            0..12,
        ),
    ) {
        let width = WIDTHS[width_index];
        let mut swar_total = BitResidency::new(width);
        let mut scalar_total = ScalarResidency::new(width);
        for chunk in &chunks {
            let mut swar = BitResidency::new(width);
            let mut scalar = ScalarResidency::new(width);
            for &(value, duration) in chunk {
                swar.record(value, duration);
                scalar.record(value, duration);
            }
            // Merge while both sides still hold pending lanes.
            swar_total.merge(&swar);
            scalar_total.merge(&scalar);
        }
        check_exact_agreement(&swar_total, &scalar_total, width)?;
    }

    #[test]
    fn tracked_word_flush_traffic_agrees_exactly(
        width_index in 0usize..WIDTHS.len(),
        steps in prop::collection::vec((any_u128(), 0u64..10_000, any::<bool>()), 0..150),
    ) {
        // Event-driven accounting as the pipeline produces it: a word is
        // written (or flushed for a measurement) at monotonically
        // increasing times; the residency charge is (now − since) per
        // event. The oracle replays the same charges through the scalar
        // loop.
        let width = WIDTHS[width_index];
        let mask = if width == 128 { u128::MAX } else { (1u128 << width) - 1 };
        let mut swar = BitResidency::new(width);
        let mut scalar = ScalarResidency::new(width);
        let mut word = TrackedWord::new(0, 0);
        let mut now = 0u64;
        for &(value, advance, is_write) in &steps {
            now += advance;
            let held = word.value();
            let duration = now - word.since();
            if is_write {
                word.write(value, now, &mut swar);
            } else {
                word.flush(now, &mut swar);
            }
            scalar.record(held, duration);
            // Only the in-range bits matter for either implementation.
            let _ = held & mask;
        }
        check_exact_agreement(&swar, &scalar, width)?;
    }

    #[test]
    fn equality_is_representation_independent(
        width_index in 0usize..WIDTHS.len(),
        events in prop::collection::vec((any_u128(), 1u64..1000), 1..40),
    ) {
        // The same stream charged in different event granularity (one
        // record per event vs duration split into two records) leaves
        // different pending lanes but must compare equal.
        let width = WIDTHS[width_index];
        let mut whole = BitResidency::new(width);
        let mut split = BitResidency::new(width);
        for &(value, duration) in &events {
            whole.record(value, duration);
            let half = duration / 2;
            split.record(value, half);
            split.record(value, duration - half);
        }
        prop_assert_eq!(&whole, &split);
        prop_assert_eq!(&split, &whole);
    }
}

/// Replays `events` through both kernels and demands exact agreement.
fn assert_stream_agrees(width: usize, events: &[(u128, u64)], what: &str) {
    let mut lanes = BitResidency::new(width);
    let mut scalar = ScalarResidency::new(width);
    for &(value, duration) in events {
        lanes.record(value, duration);
        scalar.record(value, duration);
    }
    assert_eq!(lanes.total_time(), scalar.total_time(), "w{width} {what}");
    for bit in 0..width {
        assert_eq!(
            lanes.zero_cycles(bit),
            scalar.zero_cycles(bit),
            "w{width} {what}: bit {bit}"
        );
    }
}

/// Events summing to `total` cycles in chunks of at most 9973; `value` is
/// rotated between chunks so the lanes carry mixed counts, unless it is 0
/// (then every lane reaches `total`).
fn events_summing_to(total: u64, mut value: u128) -> Vec<(u128, u64)> {
    let mut events = Vec::new();
    let mut left = total;
    while left > 0 {
        let duration = left.min(9_973);
        events.push((value, duration));
        value = value.rotate_left(13);
        left -= duration;
    }
    events
}

#[test]
fn lane_spill_bound_is_exact_at_simulator_widths() {
    const MIXED: u128 = 0x0F0F_3C3C_5555_A5A5_00FF_1234_8421_7E7E;
    for width in KERNEL_WIDTHS {
        // Pending sums one below, exactly at and one over the spill bound,
        // then one more event on top.
        for total in [LANE_CAPACITY - 1, LANE_CAPACITY, LANE_CAPACITY + 1] {
            for value in [0, MIXED] {
                let mut events = events_summing_to(total, value);
                events.push((!value, 1));
                events.push((value, 2));
                assert_stream_agrees(width, &events, &format!("pending sum {total}"));
            }
        }
        // Single events of exactly the capacity and one over it, alone and
        // on top of pending lanes.
        for duration in [LANE_CAPACITY, LANE_CAPACITY + 1] {
            for value in [0, MIXED] {
                assert_stream_agrees(width, &[(value, duration)], "single event");
                assert_stream_agrees(
                    width,
                    &[
                        (!value, 5),
                        (value, duration),
                        (!value, 2),
                        (value, duration),
                    ],
                    &format!("event of {duration} over pending lanes"),
                );
            }
        }
    }
}

#[test]
fn plane_capacity_boundary_is_exact_on_both_paths() {
    // Deterministic sweep of the spill/overflow edge: accumulate to just
    // below capacity, then cross it with single-cycle, exact-fit and
    // oversized events.
    for &extra in &[1u64, 2, 17, LANE_CAPACITY, LANE_CAPACITY + 5] {
        let mut swar = BitResidency::new(65);
        let mut scalar = ScalarResidency::new(65);
        for (value, duration) in [
            (0x5555_5555_5555_5555u128, LANE_CAPACITY - 1),
            (!0x5555_5555_5555_5555u128, extra),
            (0u128, 3),
        ] {
            swar.record(value, duration);
            scalar.record(value, duration);
        }
        assert_eq!(swar.total_time(), scalar.total_time(), "extra={extra}");
        for bit in 0..65 {
            assert_eq!(
                swar.zero_cycles(bit),
                scalar.zero_cycles(bit),
                "bit {bit}, extra={extra}"
            );
        }
    }
}

#[test]
#[ignore = "wall-clock benchmark; run with: cargo test --release --test bitstats_prop -- --ignored"]
fn swar_kernel_is_at_least_3x_faster_at_width_64() {
    use std::hint::black_box;
    use std::time::Instant;

    // The acceptance microbench: identical pseudo-random event streams
    // through both kernels at width 64. Durations are 1..=64 cycles — the regime pipeline events live in.
    const EVENTS: usize = 200_000;
    const ROUNDS: usize = 5;
    let mut state = 0x243F_6A88_85A3_08D3u64;
    let stream: Vec<(u128, u64)> = (0..EVENTS)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let value = u128::from(state) << 64 | u128::from(state.rotate_left(17));
            let duration = (state >> 58) + 1;
            (value, duration)
        })
        .collect();

    let time_scalar = |stream: &[(u128, u64)]| {
        let start = Instant::now();
        let mut acc = ScalarResidency::new(64);
        for &(value, duration) in stream {
            acc.record(value, duration);
        }
        black_box(acc.zero_cycles(0));
        start.elapsed()
    };
    let time_swar = |stream: &[(u128, u64)]| {
        let start = Instant::now();
        let mut acc = BitResidency::new(64);
        for &(value, duration) in stream {
            acc.record(value, duration);
        }
        black_box(acc.zero_cycles(0));
        start.elapsed()
    };

    // Warm up, then take the best of several rounds for each kernel.
    let _ = (time_scalar(&stream), time_swar(&stream));
    let scalar = (0..ROUNDS).map(|_| time_scalar(&stream)).min().unwrap();
    let swar = (0..ROUNDS).map(|_| time_swar(&stream)).min().unwrap();
    assert!(
        swar.as_secs_f64() * 3.0 <= scalar.as_secs_f64(),
        "expected >=3x: scalar {scalar:?}, swar {swar:?}"
    );
}
