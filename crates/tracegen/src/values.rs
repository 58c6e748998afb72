//! Biased data-value generators.
//!
//! Real program data is highly biased — that is the paper's whole
//! motivation. These generators produce integer and FP values whose per-bit
//! zero probabilities land in the ranges the paper reports:
//!
//! - integer data: all 32 bits biased towards "0" between ~65% and ~90%
//!   (§1.1, Figure 6 "baseline"), with the strongest bias in the high bits;
//! - FP data (80-bit x87): worst bias ~84% (Figure 6), sign almost always
//!   0 (positive), exponent clustered near the 0x3FFF excess, explicit
//!   integer bit almost always 1 (i.e. biased towards "1", which matters
//!   for the complementary PMOS of the cell).

use crate::rng::TraceRng;
use crate::uop::Value80;

/// Knobs for the integer value mixture.
///
/// The default mixture is calibrated so per-bit zero probabilities fall in
/// the paper's 65–90% band.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntProfile {
    /// Probability of the value 0 (very common in real data).
    pub p_zero: f64,
    /// Probability of a small value (< 2⁸), e.g. loop counters.
    pub p_small: f64,
    /// Probability of a medium value (< 2¹⁶), e.g. sizes, indices.
    pub p_medium: f64,
    /// Probability of a pointer-like value (heap/stack addresses share high
    /// bits).
    pub p_pointer: f64,
    /// Probability of a small negative value (all-ones high bits).
    pub p_negative: f64,
    // Remaining probability: uniform random 32-bit.
}

impl IntProfile {
    /// Calibrated default (see module docs).
    pub fn default_calibrated() -> Self {
        IntProfile {
            p_zero: 0.22,
            p_small: 0.33,
            p_medium: 0.18,
            p_pointer: 0.12,
            p_negative: 0.07,
        }
    }

    /// Draws one 32-bit integer value.
    pub fn sample(&self, rng: &mut TraceRng) -> u32 {
        let roll = rng.unit();
        let mut acc = self.p_zero;
        if roll < acc {
            return 0;
        }
        acc += self.p_small;
        if roll < acc {
            return rng.range(1, 256) as u32;
        }
        acc += self.p_medium;
        if roll < acc {
            return rng.range(256, 65536) as u32;
        }
        acc += self.p_pointer;
        if roll < acc {
            // Heap-like region: high bits constant, low bits varying.
            return 0x0804_0000 | rng.range(0, 0x0004_0000) as u32;
        }
        acc += self.p_negative;
        if roll < acc {
            return (rng.range(1, 4096) as u32).wrapping_neg();
        }
        (rng.next_u64() >> 32) as u32
    }
}

impl Default for IntProfile {
    fn default() -> Self {
        IntProfile::default_calibrated()
    }
}

/// Knobs for 80-bit FP value generation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FpProfile {
    /// Probability the value is negative.
    pub p_negative: f64,
    /// Probability of an exact zero (all bits 0 in x87).
    pub p_zero: f64,
    /// Spread of the exponent around the excess (0x3FFF), in ulps of
    /// exponent.
    pub exponent_spread: u16,
    /// Probability a mantissa is "round" (many trailing zero bits).
    pub p_round_mantissa: f64,
}

impl FpProfile {
    /// Calibrated default (see module docs).
    pub fn default_calibrated() -> Self {
        FpProfile {
            p_negative: 0.12,
            p_zero: 0.15,
            exponent_spread: 24,
            p_round_mantissa: 0.55,
        }
    }

    /// Draws one 80-bit FP value.
    pub fn sample(&self, rng: &mut TraceRng) -> Value80 {
        if rng.unit() < self.p_zero {
            return Value80::from_bits(0);
        }
        let sign = rng.unit() < self.p_negative;
        // Exponent offset uniform in -spread..=spread.
        let spread = u64::from(self.exponent_spread);
        let offset = rng.range(0, 2 * spread + 1) as i32 - spread as i32;
        let exponent = (0x3FFF + offset) as u16;
        let mantissa = if rng.unit() < self.p_round_mantissa {
            // Round value: explicit integer bit set, few significant bits.
            let significant_bits = rng.range(1, 16) as u32;
            let payload = rng.next_u64() >> (64 - significant_bits);
            (1u64 << 63) | (payload << (63 - significant_bits))
        } else {
            (1u64 << 63) | rng.next_u64()
        };
        Value80::pack(sign, exponent, mantissa)
    }
}

impl Default for FpProfile {
    fn default() -> Self {
        FpProfile::default_calibrated()
    }
}

/// Measures the per-bit zero probability of a stream of 32-bit values.
pub fn int_bit_bias(values: &[u32]) -> [f64; 32] {
    let mut zeros = [0usize; 32];
    for &v in values {
        for (i, z) in zeros.iter_mut().enumerate() {
            if (v >> i) & 1 == 0 {
                *z += 1;
            }
        }
    }
    let n = values.len().max(1) as f64;
    let mut out = [0.0; 32];
    for i in 0..32 {
        out[i] = zeros[i] as f64 / n;
    }
    out
}

/// Measures the per-bit zero probability of a stream of 80-bit values.
pub fn fp_bit_bias(values: &[Value80]) -> Vec<f64> {
    let mut zeros = vec![0usize; Value80::WIDTH];
    for v in values {
        for (i, z) in zeros.iter_mut().enumerate() {
            if !v.bit(i) {
                *z += 1;
            }
        }
    }
    let n = values.len().max(1) as f64;
    zeros.into_iter().map(|z| z as f64 / n).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> TraceRng {
        TraceRng::new(42)
    }

    #[test]
    fn int_bias_lands_in_the_papers_band() {
        let profile = IntProfile::default_calibrated();
        let mut r = rng();
        let values: Vec<u32> = (0..40_000).map(|_| profile.sample(&mut r)).collect();
        let bias = int_bit_bias(&values);
        for (i, b) in bias.iter().enumerate() {
            assert!(
                (0.55..=0.97).contains(b),
                "bit {i} bias {b} outside the plausible band"
            );
        }
        // §1.1: "zero-signal probability for the integer register file
        // ranges between 65% and 90% for all bits" — the bulk of bits must
        // be in that band and the worst near 90%.
        let in_band = bias.iter().filter(|b| (0.60..=0.95).contains(*b)).count();
        assert!(in_band >= 28, "only {in_band}/32 bits in band");
        let worst = bias.iter().cloned().fold(0.0, f64::max);
        assert!((0.85..=0.95).contains(&worst), "worst bias {worst}");
    }

    #[test]
    fn high_bits_more_biased_than_low_bits() {
        let profile = IntProfile::default_calibrated();
        let mut r = rng();
        let values: Vec<u32> = (0..40_000).map(|_| profile.sample(&mut r)).collect();
        let bias = int_bit_bias(&values);
        let low_avg: f64 = bias[..8].iter().sum::<f64>() / 8.0;
        let high_avg: f64 = bias[24..].iter().sum::<f64>() / 8.0;
        assert!(high_avg > low_avg);
    }

    #[test]
    fn fp_bias_structure() {
        let profile = FpProfile::default_calibrated();
        let mut r = rng();
        let values: Vec<Value80> = (0..40_000).map(|_| profile.sample(&mut r)).collect();
        let bias = fp_bit_bias(&values);
        // Sign bit mostly 0 (positive data).
        assert!(bias[79] > 0.80, "sign bias {}", bias[79]);
        // Explicit integer bit mostly 1 for nonzero values, so bias to 0 is
        // roughly the zero-probability.
        assert!(bias[63] < 0.35, "integer-bit bias {}", bias[63]);
        // Worst bias near the paper's 84%.
        let worst = bias.iter().cloned().fold(0.0, f64::max);
        assert!((0.75..=0.95).contains(&worst), "worst fp bias {worst}");
    }

    #[test]
    fn int_profile_respects_zero_probability() {
        let profile = IntProfile {
            p_zero: 1.0,
            p_small: 0.0,
            p_medium: 0.0,
            p_pointer: 0.0,
            p_negative: 0.0,
        };
        let mut r = rng();
        for _ in 0..100 {
            assert_eq!(profile.sample(&mut r), 0);
        }
    }

    #[test]
    fn bias_helpers_handle_empty_input() {
        assert_eq!(int_bit_bias(&[])[0], 0.0);
        assert_eq!(fp_bit_bias(&[]).len(), 80);
    }
}
