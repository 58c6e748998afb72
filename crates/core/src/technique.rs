//! Balancing techniques for explicitly managed blocks, and the casuistic of
//! Figure 3.
//!
//! When an entry (or field) is released, Penelope may overwrite it with
//! balancing contents. Which contents depends on the field's occupancy and
//! bias:
//!
//! - **ALL1 / ALL0** — the field is so biased during busy time that the best
//!   idle-time content is constantly all-ones (all-zeros);
//! - **ALL1-K% / ALL0-K%** — writing 1 (0) during only K% of the idle time
//!   achieves perfect balancing;
//! - **ISV** — the entry is free most of the time, so writing *inverted
//!   sampled values* mirrors the busy-time distribution.

use crate::rinv::Rinv;

/// A balancing technique for one field (or one bit of a field).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Technique {
    /// Write all-ones when idle.
    All1,
    /// Write all-zeros when idle.
    All0,
    /// Write all-ones `k` of the idle time, all-zeros otherwise
    /// (`0 < k < 1`).
    All1K(f64),
    /// Write all-zeros `k` of the idle time, all-ones otherwise.
    All0K(f64),
    /// Write inverted sampled values.
    Isv,
    /// No balancing writes: the field's activity is already self-balanced
    /// (register tags, MOB ids) or never idle (the valid bit).
    None,
}

impl Technique {
    /// Short label as used in the paper's figures.
    pub fn label(&self) -> String {
        match self {
            Technique::All1 => "ALL1".into(),
            Technique::All0 => "ALL0".into(),
            Technique::All1K(k) => format!("ALL1-{:.0}%", k * 100.0),
            Technique::All0K(k) => format!("ALL0-{:.0}%", k * 100.0),
            Technique::Isv => "ISV".into(),
            Technique::None => "-".into(),
        }
    }
}

impl std::fmt::Display for Technique {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

/// Invalid input to the Figure 3 casuistic. Duties and biases are measured
/// quantities; NaN or out-of-range values mean the measurement chain is
/// corrupted and the caller must not act on it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TechniqueError {
    /// Occupancy was NaN or outside `[0, 1]`.
    OccupancyOutOfRange(f64),
    /// `bias0` was NaN or outside `[0, 1]`.
    BiasOutOfRange(f64),
    /// `bias0 + bias1` differed from 1 by more than 1e-6 (or was NaN).
    BiasesNotComplementary {
        /// Fraction of busy time at "0".
        bias0: f64,
        /// Fraction of busy time at "1".
        bias1: f64,
    },
}

impl std::fmt::Display for TechniqueError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TechniqueError::OccupancyOutOfRange(v) => {
                write!(f, "occupancy {v} outside [0, 1]")
            }
            TechniqueError::BiasOutOfRange(v) => write!(f, "bias {v} outside [0, 1]"),
            TechniqueError::BiasesNotComplementary { bias0, bias1 } => {
                write!(f, "biases must sum to 1 (got {bias0} + {bias1})")
            }
        }
    }
}

impl std::error::Error for TechniqueError {}

/// Figure 3: choose the technique for a field given its average occupancy
/// and its bias towards "0"/"1" *measured over overall time*.
///
/// ```text
/// IF (occupancy > 50%) THEN
///     IF (occupancy × bias-to-0 > 50%) THEN use ALL1
///     ELSE IF (occupancy × bias-to-1 > 50%) THEN use ALL0
///     ELSE IF (bias-to-0 > bias-to-1) THEN use ALL1-K%
///     ELSE use ALL0-K%
/// ELSE use ISV
/// ```
///
/// `bias0`/`bias1` are the fractions of *busy* time the bit holds "0"/"1"
/// (they sum to 1). For `ALL1-K%` the K that yields perfect balancing
/// satisfies `occupancy·bias0 + (1-occupancy)·(1-K) = 0.5`.
///
/// # Errors
///
/// Returns a [`TechniqueError`] if an argument is NaN or outside `[0, 1]`,
/// or `bias0 + bias1` differs from 1 by more than 1e-6. (A corrupted duty
/// measurement must not crash the aging model; it gets rejected here and
/// propagates as `penelope::error::Error::Technique`.)
pub fn choose_technique(
    occupancy: f64,
    bias0: f64,
    bias1: f64,
) -> Result<Technique, TechniqueError> {
    if !(0.0..=1.0).contains(&occupancy) {
        return Err(TechniqueError::OccupancyOutOfRange(occupancy));
    }
    if !(0.0..=1.0).contains(&bias0) {
        return Err(TechniqueError::BiasOutOfRange(bias0));
    }
    if !(0.0..=1.0).contains(&bias1) {
        return Err(TechniqueError::BiasOutOfRange(bias1));
    }
    if ((bias0 + bias1) - 1.0).abs() >= 1e-6 {
        return Err(TechniqueError::BiasesNotComplementary { bias0, bias1 });
    }
    Ok(choose_technique_unchecked(occupancy, bias0, bias1))
}

/// The Figure 3 decision tree without input validation; inputs must already
/// satisfy the [`choose_technique`] contract.
fn choose_technique_unchecked(occupancy: f64, bias0: f64, bias1: f64) -> Technique {
    if occupancy <= 0.5 {
        return Technique::Isv;
    }
    if occupancy * bias0 > 0.5 {
        return Technique::All1;
    }
    if occupancy * bias1 > 0.5 {
        return Technique::All0;
    }
    let idle = 1.0 - occupancy;
    // With no idle time at all (occupancy exactly 1 and both products at
    // exactly 0.5) there is nothing to write into; K is vacuous, but it must
    // still be a number, not 0/0.
    let k_for = |product: f64| {
        if idle > 0.0 {
            (1.0 - (0.5 - product) / idle).clamp(0.0, 1.0)
        } else {
            1.0
        }
    };
    if bias0 > bias1 {
        // Write 1 during K of the idle time so that total zero-time is 1/2:
        // occ·bias0 + idle·(1-K) = 0.5.
        Technique::All1K(k_for(occupancy * bias0))
    } else {
        Technique::All0K(k_for(occupancy * bias1))
    }
}

/// Per-bit K-counter state implementing `ALL1-K%`/`ALL0-K%` writes.
///
/// The paper implements K with "small counters of up to 5 bits"; we use a
/// 5-bit phase accumulator: out of every 32 idle writes, `round(32·K)`
/// write the majority value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KCounter {
    /// Writes of the majority value per 32.
    numerator: u8,
    phase: u8,
}

impl KCounter {
    /// Ticks per phase cycle: the counter's output repeats with this
    /// period.
    pub const PERIOD: usize = 32;

    /// Creates a counter approximating fraction `k` (clamped to `[0, 1]`).
    pub fn new(k: f64) -> Self {
        let numerator = (k.clamp(0.0, 1.0) * 32.0).round() as u8;
        KCounter {
            numerator,
            phase: 0,
        }
    }

    /// The approximated fraction.
    pub fn fraction(&self) -> f64 {
        f64::from(self.numerator) / 32.0
    }

    /// Advances the counter; returns whether this write uses the majority
    /// value. Majority writes are evenly interleaved (Bresenham): exactly
    /// `numerator` of every 32 consecutive ticks return `true`.
    pub fn tick(&mut self) -> bool {
        let p = u16::from(self.phase);
        let n = u16::from(self.numerator);
        let use_majority = (p + 1) * n / 32 > p * n / 32;
        self.phase = (self.phase + 1) % 32;
        use_majority
    }

    /// The next [`KCounter::PERIOD`] ticks as a bit pattern, without
    /// advancing: bit `i` says whether the `i`-th tick from now uses the
    /// majority value.
    pub fn pattern(mut self) -> u32 {
        (0..Self::PERIOD).fold(0, |bits, i| bits | (u32::from(self.tick()) << i))
    }
}

/// Computes the balancing value a technique writes for a `width`-bit field,
/// given the field's `RINV` image and the K-counter.
pub fn balancing_value(
    technique: Technique,
    width: usize,
    rinv: &Rinv,
    counter: &mut KCounter,
) -> Option<u128> {
    let ones = if width == 128 {
        u128::MAX
    } else {
        (1u128 << width) - 1
    };
    match technique {
        Technique::All1 => Some(ones),
        Technique::All0 => Some(0),
        Technique::All1K(_) => Some(if counter.tick() { ones } else { 0 }),
        Technique::All0K(_) => Some(if counter.tick() { 0 } else { ones }),
        Technique::Isv => Some(rinv.value()),
        Technique::None => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn casuistic_matches_figure_3() {
        // Free more than half the time → ISV (register file case: 54% free).
        assert_eq!(choose_technique(0.46, 0.9, 0.1), Ok(Technique::Isv));
        // Busy, overwhelmingly 0 → ALL1 (scheduler flags: occupancy 63%,
        // bias ~100% towards 0: 0.63·1.0 > 0.5).
        assert_eq!(choose_technique(0.63, 0.999, 0.001), Ok(Technique::All1));
        // Busy, overwhelmingly 1 → ALL0.
        assert_eq!(choose_technique(0.63, 0.001, 0.999), Ok(Technique::All0));
        // Busy but moderately biased to 0 → ALL1-K%.
        match choose_technique(0.63, 0.6, 0.4) {
            Ok(Technique::All1K(k)) => {
                // occ·b0 = 0.378; K = 1 - (0.5-0.378)/0.37 ≈ 0.67.
                assert!((k - (1.0 - (0.5 - 0.378) / 0.37)).abs() < 1e-9);
            }
            other => panic!("expected ALL1-K%, got {other:?}"),
        }
        // Busy, biased to 1 → ALL0-K%.
        assert!(matches!(
            choose_technique(0.63, 0.4, 0.6),
            Ok(Technique::All0K(_))
        ));
    }

    #[test]
    fn paper_worked_example() {
        // §3.2 situation II: "busy 75% of the time and holds a 0 67% of the
        // time [of busy time]" → 0.75·0.67 ≈ 0.50 of overall time at 0,
        // 25% at 1, 25% idle → store 1 during all idle time (K = 100%).
        match choose_technique(0.75, 2.0 / 3.0, 1.0 / 3.0) {
            Ok(Technique::All1K(k)) => assert!((k - 1.0).abs() < 1e-6, "K = {k}"),
            Ok(Technique::All1) => {} // boundary: 0.75·0.667 ≈ 0.5
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn kcounter_pattern_previews_the_next_period() {
        for k in [0.0, 0.3, 0.5, 0.95, 1.0] {
            let mut c = KCounter::new(k);
            c.tick();
            let pattern = c.pattern();
            for i in 0..KCounter::PERIOD {
                assert_eq!(c.tick(), (pattern >> i) & 1 == 1, "k={k}, tick {i}");
            }
            assert_eq!(c.pattern(), pattern, "k={k}: the pattern repeats");
        }
    }

    #[test]
    fn kcounter_fraction_is_respected() {
        for k in [0.0, 0.25, 0.5, 0.6, 0.75, 0.95, 1.0] {
            let mut c = KCounter::new(k);
            let majority = (0..3200).filter(|_| c.tick()).count();
            let measured = majority as f64 / 3200.0;
            assert!(
                (measured - c.fraction()).abs() < 0.02,
                "k={k}: measured {measured}, expected {}",
                c.fraction()
            );
        }
    }

    #[test]
    fn balancing_values() {
        let rinv = {
            let mut r = Rinv::new(6, 1);
            r.set(0b10_1010);
            r
        };
        let mut c = KCounter::new(1.0);
        assert_eq!(
            balancing_value(Technique::All1, 6, &rinv, &mut c),
            Some(0b11_1111)
        );
        assert_eq!(balancing_value(Technique::All0, 6, &rinv, &mut c), Some(0));
        assert_eq!(
            balancing_value(Technique::Isv, 6, &rinv, &mut c),
            Some(0b10_1010)
        );
        assert_eq!(balancing_value(Technique::None, 6, &rinv, &mut c), None);
        // ALL1-100% always writes ones.
        let mut c1 = KCounter::new(1.0);
        for _ in 0..64 {
            assert_eq!(
                balancing_value(Technique::All1K(1.0), 6, &rinv, &mut c1),
                Some(0b11_1111)
            );
        }
    }

    #[test]
    fn labels() {
        assert_eq!(Technique::All1.label(), "ALL1");
        assert_eq!(Technique::All1K(0.75).label(), "ALL1-75%");
        assert_eq!(Technique::Isv.to_string(), "ISV");
    }

    #[test]
    fn casuistic_rejects_bad_inputs_without_panicking() {
        assert_eq!(
            choose_technique(0.6, 0.9, 0.9),
            Err(TechniqueError::BiasesNotComplementary {
                bias0: 0.9,
                bias1: 0.9,
            })
        );
        assert!(matches!(
            choose_technique(1.5, 0.5, 0.5),
            Err(TechniqueError::OccupancyOutOfRange(_))
        ));
        assert!(matches!(
            choose_technique(f64::NAN, 0.5, 0.5),
            Err(TechniqueError::OccupancyOutOfRange(_))
        ));
        assert!(matches!(
            choose_technique(0.6, -0.1, 1.1),
            Err(TechniqueError::BiasOutOfRange(_))
        ));
        assert!(matches!(
            choose_technique(0.6, 0.5, f64::NAN),
            Err(TechniqueError::BiasOutOfRange(_))
        ));
    }
}
