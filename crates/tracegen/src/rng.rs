//! The trace generator's random source.
//!
//! Every synthetic trace, and so every figure, golden hash and benchmark
//! count downstream, rests on this one draw sequence: xoshiro256**
//! seeded through SplitMix64. [`TraceRng`] offers only the draws the
//! generator makes; changing any of them moves every trace.

/// xoshiro256** seeded through SplitMix64.
#[derive(Debug, Clone)]
pub struct TraceRng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl TraceRng {
    /// A generator whose state is four SplitMix64 outputs of `seed`.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        TraceRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniform `f64` in `[0, 1)` from the top 53 bits of one draw.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A fair coin: the low bit of one draw.
    pub fn coin(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// A draw in `[lo, hi)` by modulo reduction.
    ///
    /// # Panics
    ///
    /// Panics if `hi <= lo`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "TraceRng::range: empty range {lo}..{hi}");
        lo + self.next_u64() % (hi - lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draw_sequence_is_pinned() {
        // Every trace and golden hash rests on these bits: a generator
        // change that moves them moves all of those too.
        let mut r = TraceRng::new(0);
        let xs: Vec<u64> = (0..4).map(|_| r.next_u64()).collect();
        assert_eq!(
            xs,
            [
                0x99ec_5f36_cb75_f2b4,
                0xbf6e_1f78_4956_452a,
                0x1a5f_849d_4933_e6e0,
                0x6aa5_94f1_262d_2d2c,
            ]
        );
        let mut r = TraceRng::new(42);
        let xs: Vec<u64> = (0..4).map(|_| r.next_u64()).collect();
        assert_eq!(
            xs,
            [
                0x1578_0b2e_0c2e_c716,
                0x6104_d986_6d11_3a7e,
                0xae17_5332_39e4_99a1,
                0xecb8_ad47_03b3_60a1,
            ]
        );
        let mut r = TraceRng::new(7);
        let units: Vec<f64> = (0..3).map(|_| r.unit()).collect();
        assert_eq!(
            units,
            [0.7005764821796896, 0.2787512294737843, 0.8396274618764198]
        );
        let ranged: Vec<u64> = (0..4).map(|_| r.range(1, 256)).collect();
        assert_eq!(ranged, [35, 135, 252, 2]);
    }

    #[test]
    fn unit_floats_stay_in_range_and_look_uniform() {
        let mut rng = TraceRng::new(42);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let x = rng.unit();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn coins_are_roughly_fair() {
        let mut rng = TraceRng::new(5);
        let heads = (0..10_000).filter(|_| rng.coin()).count();
        assert!((4_500..=5_500).contains(&heads), "heads {heads}");
    }
}
