//! Criterion microbench for the word-parallel bit-residency kernel.
//!
//! `bitstats_record` times `BitResidency::record` (`u16` pending lanes
//! charged a byte at a time) against `ScalarResidency::record` (the per-bit reference oracle)
//! over identical pseudo-random event streams at widths 32, 64 and 128.
//! The acceptance bar is a >=3x speedup at width 64; durations are drawn
//! from 1..=64 cycles, the regime pipeline events live in.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use uarch::bitstats::{BitResidency, ScalarResidency};

const EVENTS: usize = 4096;

/// Deterministic `(value, duration)` stream shared by both kernels.
fn stream() -> Vec<(u128, u64)> {
    let mut state = 0x243F_6A88_85A3_08D3u64;
    (0..EVENTS)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let value = u128::from(state) << 64 | u128::from(state.rotate_left(17));
            let duration = (state >> 58) + 1;
            (value, duration)
        })
        .collect()
}

fn bench_record(c: &mut Criterion) {
    let events = stream();
    let mut group = c.benchmark_group("bitstats_record");
    group.throughput(Throughput::Elements(EVENTS as u64));
    for width in [32usize, 64, 128] {
        let stream = events.clone();
        group.bench_function(&format!("swar/{width}"), move |b| {
            b.iter(|| {
                let mut acc = BitResidency::new(width);
                for &(value, duration) in &stream {
                    acc.record(black_box(value), black_box(duration));
                }
                black_box(acc.zero_cycles(0))
            })
        });
        let stream = events.clone();
        group.bench_function(&format!("scalar/{width}"), move |b| {
            b.iter(|| {
                let mut acc = ScalarResidency::new(width);
                for &(value, duration) in &stream {
                    acc.record(black_box(value), black_box(duration));
                }
                black_box(acc.zero_cycles(0))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_record);
criterion_main!(benches);
