//! The `RINV` register: inverted sampled values.
//!
//! §3.2.2: "Our mechanism uses a special register for each structure,
//! referred to as RINV, to store inverted sampled values. RINV is updated
//! periodically with the inversion of any value being stored in the block."
//! Sampling real traffic and inverting it produces near-optimal balancing in
//! the long run: whatever bias the data has, writing its complement into
//! idle entries pulls every bit cell towards 50%.

/// A sampling `RINV` register of a fixed width.
///
/// # Example
///
/// ```
/// use penelope::rinv::Rinv;
///
/// let mut rinv = Rinv::new(8, 100);
/// // First offered sample is taken (inverted):
/// assert!(rinv.offer(0b1010_1010, 0));
/// assert_eq!(rinv.value(), 0b0101_0101);
/// // Further samples are ignored until the period elapses.
/// assert!(!rinv.offer(0xFF, 50));
/// assert!(rinv.offer(0xFF, 100));
/// assert_eq!(rinv.value(), 0x00);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rinv {
    width: usize,
    value: u128,
    period: u64,
    next_sample: u64,
}

impl Rinv {
    /// Creates a register of `width` bits that accepts a new sample every
    /// `period` cycles (the paper suggests periods from thousands to
    /// millions of cycles; the exact value is uncritical).
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or exceeds 128, or if `period` is 0.
    pub fn new(width: usize, period: u64) -> Self {
        assert!((1..=128).contains(&width), "width must be in 1..=128");
        assert!(period > 0, "period must be positive");
        Rinv {
            width,
            value: 0,
            period,
            next_sample: 0,
        }
    }

    /// Width in bits.
    pub fn width(&self) -> usize {
        self.width
    }

    fn mask(&self) -> u128 {
        if self.width == 128 {
            u128::MAX
        } else {
            (1u128 << self.width) - 1
        }
    }

    /// Offers a value flowing through the structure's write path. If the
    /// sampling period has elapsed, stores its bitwise inversion and
    /// returns `true`.
    pub fn offer(&mut self, value: u128, now: u64) -> bool {
        if now < self.next_sample {
            return false;
        }
        self.value = !value & self.mask();
        self.next_sample = now + self.period;
        true
    }

    /// The current inverted sampled value.
    pub fn value(&self) -> u128 {
        self.value
    }

    /// Overwrites the stored value directly (used by `ALL1`/`ALL0`-style
    /// policies that set RINV rather than sampling it).
    pub fn set(&mut self, value: u128) {
        self.value = value & self.mask();
    }

    /// The sampling period in cycles.
    pub fn period(&self) -> u64 {
        self.period
    }

    /// Cycles since the last accepted sample at time `now` (if nothing was
    /// ever sampled, the register has been stale since cycle 0). Freshness
    /// checks compare this against a multiple of the period.
    pub fn staleness(&self, now: u64) -> u64 {
        let last_accept = self.next_sample.saturating_sub(self.period);
        now.saturating_sub(last_accept)
    }

    /// XORs a mask into the stored value (fault injection: a particle
    /// strike on the RINV register itself). The mask is reduced to the
    /// register width.
    pub fn corrupt(&mut self, mask: u128) {
        self.value ^= mask & self.mask();
    }
}

/// Inverted/non-inverted residency timestamps for one sampled entry — the
/// §3.2.2 gate deciding whether ISV writes should happen right now: it
/// allows them while the sampled entry has spent at least as long
/// non-inverted as inverted, keeping it near 50% of each. The register
/// files keep one gate each; the scheduler keeps two ("2 timestamps of 10
/// bits each"), one shared by the SRC data fields, one for the immediate.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct IsvGate {
    inverted: bool,
    since: u64,
    time_inverted: u64,
    time_normal: u64,
}

impl IsvGate {
    /// Records that the sampled entry now holds inverted (`true`) or live
    /// (`false`) contents, closing the open interval at `now`.
    pub(crate) fn flip(&mut self, inverted: bool, now: u64) {
        let elapsed = now.saturating_sub(self.since);
        if self.inverted {
            self.time_inverted += elapsed;
        } else {
            self.time_normal += elapsed;
        }
        self.inverted = inverted;
        self.since = now;
    }

    /// Whether ISV writes should happen at `now`.
    pub(crate) fn should_invert(&self, now: u64) -> bool {
        let open = now.saturating_sub(self.since);
        let (inv, norm) = if self.inverted {
            (self.time_inverted + open, self.time_normal)
        } else {
            (self.time_inverted, self.time_normal + open)
        };
        norm >= inv
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inverts_and_masks() {
        let mut r = Rinv::new(4, 10);
        assert!(r.offer(0b0110, 0));
        assert_eq!(r.value(), 0b1001);
    }

    #[test]
    fn sampling_respects_period() {
        let mut r = Rinv::new(8, 100);
        assert!(r.offer(1, 0));
        assert!(!r.offer(2, 99));
        assert!(r.offer(2, 100));
        assert_eq!(r.value(), !2u128 & 0xFF);
    }

    #[test]
    fn set_overrides() {
        let mut r = Rinv::new(4, 1);
        r.set(0xFF);
        assert_eq!(r.value(), 0xF);
    }

    #[test]
    fn staleness_tracks_the_last_accepted_sample() {
        let mut r = Rinv::new(8, 100);
        assert_eq!(r.staleness(40), 40, "never sampled: stale since 0");
        assert!(r.offer(1, 50));
        assert_eq!(r.staleness(60), 10);
        assert_eq!(r.staleness(250), 200);
        assert_eq!(r.period(), 100);
    }

    #[test]
    fn corrupt_flips_masked_bits() {
        let mut r = Rinv::new(4, 1);
        r.set(0b0110);
        r.corrupt(0b1111_0011);
        assert_eq!(r.value(), 0b0101);
    }

    #[test]
    fn full_width_mask() {
        let mut r = Rinv::new(128, 1);
        assert!(r.offer(0, 0));
        assert_eq!(r.value(), u128::MAX);
    }

    #[test]
    #[should_panic(expected = "width")]
    fn rejects_zero_width() {
        let _ = Rinv::new(0, 1);
    }

    #[test]
    #[should_panic(expected = "period")]
    fn rejects_zero_period() {
        let _ = Rinv::new(8, 0);
    }
}
