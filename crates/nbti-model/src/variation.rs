//! Per-instance process variation on the aging-model anchors.
//!
//! Fleet-scale studies (see `penelope::fleet`) ask a question the paper's
//! single-pipeline evaluation cannot: what does the *distribution* of NBTI
//! guardband look like across thousands of manufactured core instances?
//! Die-to-die and within-die variation perturb exactly the quantities the
//! [`guardband`](crate::guardband) models treat as constants — the
//! duty→guardband slope (trap generation rate), the attainable cap, and
//! the Vth-shift slope of storage cells — as well as the workload-visible
//! activity of each core.
//!
//! [`ProcessVariation`] turns a `(sigma, seed)` pair into a deterministic
//! stream of per-instance draws: instance `i` always receives the same
//! [`InstanceDraw`], whatever order (or on whatever worker) instances are
//! evaluated in. Scale factors are *lognormal* (`exp(sigma·z)`), so varied
//! slopes and caps stay positive without clamping artifacts and the
//! median instance is exactly the nominal model. The gaussian `z`s come
//! from a splitmix64 stream fed through Box–Muller — no external RNG, no
//! global state, reproducible across platforms.
//!
//! A draw costs four gaussians, and it applies itself
//! ([`InstanceDraw::duty`], [`InstanceDraw::guardband`],
//! [`InstanceDraw::vmin`]), so a caller that needs all three varied
//! quantities of one instance draws once. The `ProcessVariation::vary_*`
//! shorthands draw per call.

use crate::duty::Duty;
use crate::guardband::{GuardbandModel, VminModel};
use crate::{Error, Result};

/// Largest accepted variation sigma. Beyond this the lognormal tails put
/// single instances at many multiples of the nominal anchors, which stops
/// modeling manufacturing spread and starts modeling broken silicon.
pub const MAX_SIGMA: f64 = 0.5;

/// The splitmix64 finalizer: one stateless 64-bit scramble of `x` (the
/// golden-gamma step, then the two xor-shift-multiply rounds). Also the
/// seeded scramble of the fleet's suite assignment, the netlist stimulus
/// and gatesim's partition order, whose pinned outputs depend on it.
#[inline]
pub fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// splitmix64: the standard 64-bit state scrambler. Good enough spectral
/// quality for Monte Carlo draws, trivially seekable by instance index.
fn splitmix64(state: &mut u64) -> u64 {
    let z = mix64(*state);
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z
}

/// A uniform in (0, 1]: 53 mantissa bits, never exactly 0 so `ln` below
/// stays finite.
fn uniform(state: &mut u64) -> f64 {
    let bits = splitmix64(state) >> 11;
    (bits + 1) as f64 / (1u64 << 53) as f64
}

/// One standard-normal draw via Box–Muller (the cosine half; one gaussian
/// per two uniforms keeps the draw count per instance fixed).
fn gaussian(state: &mut u64) -> f64 {
    let u1 = uniform(state);
    let u2 = uniform(state);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// The variation a single manufactured core instance received: scale
/// factors for the aging-model anchors plus an activity shift for the
/// workload-visible duty.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstanceDraw {
    /// Lognormal scale on the duty→guardband slope (median 1.0).
    pub slope_scale: f64,
    /// Lognormal scale on the guardband cap (median 1.0, half the sigma:
    /// the cap is a design margin, less variable than the physics slope).
    pub cap_scale: f64,
    /// Lognormal scale on the Vth-shift slope of storage cells.
    pub vth_scale: f64,
    /// Additive duty shift from within-die activity variation, in
    /// `[-0.25, 0.25]` duty units at the maximum sigma.
    pub activity_shift: f64,
}

impl InstanceDraw {
    /// The identity draw: nominal anchors, no activity shift.
    pub fn nominal() -> Self {
        InstanceDraw {
            slope_scale: 1.0,
            cap_scale: 1.0,
            vth_scale: 1.0,
            activity_shift: 0.0,
        }
    }

    /// The workload duty this instance actually exhibits, given the
    /// nominal duty its workload mix would produce on a nominal core:
    /// shifted by the activity draw and saturated into `[0, 1]`.
    pub fn duty(&self, nominal: Duty) -> Duty {
        Duty::saturating(nominal.fraction() + self.activity_shift)
    }

    /// This instance's guardband model: nominal anchors scaled by the
    /// draw. The floor is a process margin balancing cannot remove, so it
    /// stays fixed; the cap is kept at or above the floor so the varied
    /// model is always well-formed.
    pub fn guardband(&self, base: &GuardbandModel) -> GuardbandModel {
        let floor = base.best_case().fraction();
        let slope = base.slope() * self.slope_scale;
        let cap = (base.worst_case().fraction() * self.cap_scale).max(floor);
        GuardbandModel::with_parameters(floor, slope, cap).unwrap_or(*base)
    }

    /// This instance's Vmin model: Vth-shift slope and cap scaled by the
    /// draw, floor fixed.
    pub fn vmin(&self, base: &VminModel) -> VminModel {
        let floor = base.shift_floor();
        let slope = base.shift_slope() * self.vth_scale;
        let cap = (base.shift_cap() * self.vth_scale).max(floor);
        VminModel::with_parameters(floor, slope, cap).unwrap_or(*base)
    }
}

/// A seeded process-variation model: sigma controls the spread, the seed
/// picks the (deterministic) instance stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProcessVariation {
    sigma: f64,
    seed: u64,
}

impl ProcessVariation {
    /// Creates a variation model.
    ///
    /// # Errors
    ///
    /// Returns an error when `sigma` is not finite, is negative, or
    /// exceeds [`MAX_SIGMA`].
    pub fn new(sigma: f64, seed: u64) -> Result<Self> {
        if !sigma.is_finite() || !(0.0..=MAX_SIGMA).contains(&sigma) {
            return Err(Error::ProbabilityOutOfRange {
                what: "variation sigma",
                value: sigma,
            });
        }
        Ok(ProcessVariation { sigma, seed })
    }

    /// The configured sigma.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// The configured seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The draw instance `index` received. Pure: any worker evaluating
    /// instance `index` under the same model computes the same draw.
    pub fn draw(&self, index: u64) -> InstanceDraw {
        if self.sigma == 0.0 {
            return InstanceDraw::nominal();
        }
        // Seek the stream by instance: mix the index through one splitmix
        // round so adjacent instances land far apart in the state space.
        let mut state = self.seed ^ {
            let mut s = index.wrapping_mul(0x2545_f491_4f6c_dd1d);
            splitmix64(&mut s)
        };
        InstanceDraw {
            slope_scale: (self.sigma * gaussian(&mut state)).exp(),
            cap_scale: (0.5 * self.sigma * gaussian(&mut state)).exp(),
            vth_scale: (self.sigma * gaussian(&mut state)).exp(),
            activity_shift: (0.1 * self.sigma * gaussian(&mut state)).clamp(-0.25, 0.25),
        }
    }

    /// The guardband model of instance `index`:
    /// [`InstanceDraw::guardband`] of its draw.
    pub fn vary_guardband(&self, base: &GuardbandModel, index: u64) -> GuardbandModel {
        self.draw(index).guardband(base)
    }

    /// The Vmin model of instance `index`: [`InstanceDraw::vmin`] of its
    /// draw.
    pub fn vary_vmin(&self, base: &VminModel, index: u64) -> VminModel {
        self.draw(index).vmin(base)
    }

    /// The workload duty instance `index` exhibits: [`InstanceDraw::duty`]
    /// of its draw. A caller applying more than one model to the same
    /// instance should take [`Self::draw`] once and apply that instead.
    pub fn vary_duty(&self, nominal: Duty, index: u64) -> Duty {
        self.draw(index).duty(nominal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draws_are_deterministic_per_instance() {
        let v = ProcessVariation::new(0.1, 42).unwrap();
        for index in [0u64, 1, 7, 1 << 40] {
            assert_eq!(v.draw(index), v.draw(index));
        }
        assert_ne!(v.draw(0), v.draw(1), "distinct instances vary");
        let other_seed = ProcessVariation::new(0.1, 43).unwrap();
        assert_ne!(v.draw(0), other_seed.draw(0), "the seed matters");
    }

    /// The guardband arithmetic as `vary_guardband` held it inline,
    /// before the appliers: `[floor, slope, cap]` bits.
    fn inline_guardband_bits(draw: &InstanceDraw, base: &GuardbandModel) -> [u64; 3] {
        let floor = base.best_case().fraction();
        let slope = base.slope() * draw.slope_scale;
        let cap = (base.worst_case().fraction() * draw.cap_scale).max(floor);
        guardband_bits(&GuardbandModel::with_parameters(floor, slope, cap).unwrap_or(*base))
    }

    /// The Vmin arithmetic as `vary_vmin` held it inline.
    fn inline_vmin_bits(draw: &InstanceDraw, base: &VminModel) -> [u64; 3] {
        let floor = base.shift_floor();
        let slope = base.shift_slope() * draw.vth_scale;
        let cap = (base.shift_cap() * draw.vth_scale).max(floor);
        vmin_bits(&VminModel::with_parameters(floor, slope, cap).unwrap_or(*base))
    }

    fn guardband_bits(g: &GuardbandModel) -> [u64; 3] {
        [
            g.best_case().fraction().to_bits(),
            g.slope().to_bits(),
            g.worst_case().fraction().to_bits(),
        ]
    }

    fn vmin_bits(m: &VminModel) -> [u64; 3] {
        [
            m.shift_floor().to_bits(),
            m.shift_slope().to_bits(),
            m.shift_cap().to_bits(),
        ]
    }

    #[test]
    fn vary_methods_equal_one_draw_applied() {
        let base = GuardbandModel::paper_calibrated();
        let vmin = VminModel::paper_calibrated();
        for sigma in [0.0, 0.08, MAX_SIGMA] {
            let v = ProcessVariation::new(sigma, 0x5eed).unwrap();
            for index in [0u64, 1, 7, 1 << 40, u64::MAX] {
                let at = format!("sigma {sigma}, index {index}");
                let draw = v.draw(index);
                let g = guardband_bits(&draw.guardband(&base));
                assert_eq!(guardband_bits(&v.vary_guardband(&base, index)), g, "{at}");
                assert_eq!(inline_guardband_bits(&draw, &base), g, "{at}");
                let m = vmin_bits(&draw.vmin(&vmin));
                assert_eq!(vmin_bits(&v.vary_vmin(&vmin, index)), m, "{at}");
                assert_eq!(inline_vmin_bits(&draw, &vmin), m, "{at}");
                for nominal in [0.0, 0.5, 0.93, 1.0].map(Duty::saturating) {
                    let d = draw.duty(nominal).fraction().to_bits();
                    assert_eq!(v.vary_duty(nominal, index).fraction().to_bits(), d, "{at}");
                    let inline = Duty::saturating(nominal.fraction() + draw.activity_shift);
                    assert_eq!(inline.fraction().to_bits(), d, "{at}");
                }
            }
        }
    }

    #[test]
    fn zero_sigma_is_the_identity() {
        let v = ProcessVariation::new(0.0, 9).unwrap();
        let base = GuardbandModel::paper_calibrated();
        for index in 0..16u64 {
            assert_eq!(v.draw(index), InstanceDraw::nominal());
            assert_eq!(v.vary_guardband(&base, index), base);
            let duty = Duty::saturating(0.7);
            assert_eq!(v.vary_duty(duty, index), duty);
        }
    }

    #[test]
    fn sigma_is_validated() {
        assert!(ProcessVariation::new(-0.01, 0).is_err());
        assert!(ProcessVariation::new(f64::NAN, 0).is_err());
        assert!(ProcessVariation::new(MAX_SIGMA + 0.01, 0).is_err());
        assert!(ProcessVariation::new(MAX_SIGMA, 0).is_ok());
    }

    #[test]
    fn scales_are_lognormal_around_the_nominal_model() {
        let v = ProcessVariation::new(0.1, 7).unwrap();
        let n = 4_000u64;
        let mut log_sum = 0.0;
        let mut log_sq = 0.0;
        for index in 0..n {
            let s = v.draw(index).slope_scale;
            assert!(s > 0.0, "lognormal scales are positive");
            log_sum += s.ln();
            log_sq += s.ln() * s.ln();
        }
        let mean = log_sum / n as f64;
        let var = log_sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.01, "log-mean {mean} should be ~0");
        assert!(
            (var.sqrt() - 0.1).abs() < 0.01,
            "log-sd {} should be ~sigma",
            var.sqrt()
        );
    }

    #[test]
    fn varied_models_are_always_well_formed() {
        let base = GuardbandModel::paper_calibrated();
        let vmin = VminModel::paper_calibrated();
        let v = ProcessVariation::new(MAX_SIGMA, 3).unwrap();
        for index in 0..512u64 {
            let g = v.vary_guardband(&base, index);
            // Well-formed: cap >= floor, so clamp order never inverts.
            assert!(g.worst_case().fraction() >= g.best_case().fraction());
            let m = v.vary_vmin(&vmin, index);
            assert!(m.shift_cap() >= m.shift_floor());
            let d = v.vary_duty(Duty::saturating(0.9), index);
            assert!((0.0..=1.0).contains(&d.fraction()));
        }
    }

    #[test]
    fn varied_guardband_still_respects_its_own_anchors() {
        let base = GuardbandModel::paper_calibrated();
        let v = ProcessVariation::new(0.2, 11).unwrap();
        for index in 0..64u64 {
            let g = v.vary_guardband(&base, index);
            let full = g.guardband(Duty::saturating(1.0)).fraction();
            let balanced = g.guardband(Duty::saturating(0.5)).fraction();
            assert!((balanced - g.best_case().fraction()).abs() < 1e-12);
            assert!(full <= g.worst_case().fraction() + 1e-12);
        }
    }
}
