//! Inversion schemes for cache-like blocks (§3.2.1, evaluated in §4.6).
//!
//! All schemes keep a fraction K of the cache's lines *invalid and
//! inverted* so each bit cell spends about half its life holding each
//! polarity:
//!
//! - [`SchemeKind::SetFixed`]: K consecutive sets are parked; the cache
//!   effectively runs at reduced capacity, and the parked half rotates
//!   round-robin at coarse periods (modeled as a reduced-geometry cache
//!   plus periodic flushes at rotation);
//! - [`SchemeKind::WayFixed`]: same idea at way granularity;
//! - [`SchemeKind::LineFixed`]: individual LRU lines from random sets are
//!   inverted, one per cycle while `INVCOUNT` is below target, and a
//!   replacement line is inverted whenever a fill consumes an inverted one;
//! - [`SchemeKind::LineDynamic`]: LineFixed plus an activity test — every
//!   period the program runs a warm-up phase, then a measurement phase in
//!   which LRU lines carry a *shadow mark* ("would have been inverted");
//!   hits on marked lines estimate the extra misses the mechanism would
//!   cause, and the mechanism is enabled for the rest of the period only if
//!   that estimate stays under a per-geometry threshold.

use uarch::cache::{AccessOutcome, CacheConfig, SetAssocCache};

/// Minimal deterministic PRNG (xorshift64*) owned by each cache scheme,
/// so experiments are exactly reproducible without threading a generator
/// through the hooks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct XorShift(u64);

impl XorShift {
    /// Creates a generator from a nonzero seed (0 is remapped).
    pub fn new(seed: u64) -> Self {
        XorShift(if seed == 0 {
            0x9E37_79B9_7F4A_7C15
        } else {
            seed
        })
    }

    /// Next value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform value in `0..bound`.
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound.max(1) as u64) as usize
    }
}

/// The inversion scheme attached to one cache-like structure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SchemeKind {
    /// No NBTI mechanism.
    Baseline,
    /// Park `fraction` of the sets, rotating every `rotation_period`
    /// cycles.
    SetFixed {
        /// Fraction of sets parked (0.5 in the paper).
        fraction: f64,
        /// Cycles between round-robin re-selection of the parked sets.
        rotation_period: u64,
    },
    /// Park `fraction` of the ways, rotating every `rotation_period`
    /// cycles.
    WayFixed {
        /// Fraction of ways parked.
        fraction: f64,
        /// Cycles between rotations.
        rotation_period: u64,
    },
    /// Keep `fraction` of individual lines inverted.
    LineFixed {
        /// Target fraction of lines inverted (0.5 in the paper).
        fraction: f64,
    },
    /// LineFixed with the periodic activity test.
    LineDynamic {
        /// Target fraction while active (0.6 in the paper).
        fraction: f64,
        /// Warm-up cycles at each period start (mechanism off).
        warmup: u64,
        /// Measurement cycles with shadow marks (mechanism off).
        measure: u64,
        /// Total period length.
        period: u64,
        /// Maximum tolerable induced extra-miss rate.
        threshold: f64,
    },
}

impl SchemeKind {
    /// The paper's `SetFixed50%`.
    pub fn set_fixed_50(rotation_period: u64) -> Self {
        SchemeKind::SetFixed {
            fraction: 0.5,
            rotation_period,
        }
    }

    /// The paper's `LineFixed50%`.
    pub fn line_fixed_50() -> Self {
        SchemeKind::LineFixed { fraction: 0.5 }
    }

    /// The paper's `LineDynamic60%` with its per-geometry threshold
    /// (Table 3: DL0 2%/3%/4% for 32/16/8KB; DTLB 0.5%/1%/2% for
    /// 128/64/32 entries) and phase lengths scaled by `scale` (the paper
    /// uses 200K-cycle phases and 10M-cycle periods at full scale).
    pub fn line_dynamic_60(threshold: f64, scale: u64) -> Self {
        SchemeKind::LineDynamic {
            fraction: 0.6,
            warmup: 200_000 / scale.max(1),
            measure: 200_000 / scale.max(1),
            period: 10_000_000 / scale.max(1),
            threshold,
        }
    }

    /// The paper's dynamic-scheme threshold for a DL0 of `kb` kilobytes.
    pub fn dl0_threshold(kb: u32) -> f64 {
        match kb {
            0..=8 => 0.04,
            9..=16 => 0.03,
            _ => 0.02,
        }
    }

    /// The paper's dynamic-scheme threshold for a DTLB of `entries`.
    pub fn dtlb_threshold(entries: u32) -> f64 {
        match entries {
            0..=32 => 0.02,
            33..=64 => 0.01,
            _ => 0.005,
        }
    }

    /// The geometry the pipeline should instantiate under this scheme.
    /// Set/way parking removes capacity up front; line schemes keep the
    /// full geometry.
    pub fn effective_cache(&self, base: CacheConfig) -> CacheConfig {
        match *self {
            SchemeKind::SetFixed { fraction, .. } => CacheConfig {
                size_bytes: ((base.size_bytes as f64) * (1.0 - fraction)) as u64,
                ..base
            },
            SchemeKind::WayFixed { fraction, .. } => {
                let ways = ((f64::from(base.ways)) * (1.0 - fraction)).round().max(1.0) as u16;
                CacheConfig {
                    size_bytes: base.size_bytes * u64::from(ways) / u64::from(base.ways),
                    ways,
                    ..base
                }
            }
            _ => base,
        }
    }

    /// Short label as used in Table 3.
    pub fn label(&self) -> String {
        match *self {
            SchemeKind::Baseline => "Baseline".into(),
            SchemeKind::SetFixed { fraction, .. } => {
                format!("SetFixed{:.0}%", fraction * 100.0)
            }
            SchemeKind::WayFixed { fraction, .. } => {
                format!("WayFixed{:.0}%", fraction * 100.0)
            }
            SchemeKind::LineFixed { fraction } => format!("LineFixed{:.0}%", fraction * 100.0),
            SchemeKind::LineDynamic { fraction, .. } => {
                format!("LineDynamic{:.0}%", fraction * 100.0)
            }
        }
    }
}

/// Dynamic-scheme phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Warmup,
    Measure,
    Run,
}

/// Runtime state of one scheme instance attached to one cache.
#[derive(Debug, Clone)]
pub struct SchemeRuntime {
    kind: SchemeKind,
    rng: XorShift,
    /// Whether inversion is currently enabled (dynamic scheme may pause).
    active: bool,
    phase: Phase,
    phase_started: u64,
    accesses_at_measure: u64,
    shadow_hits_at_measure: u64,
    next_rotation: u64,
    /// Periods in which the activity test kept the mechanism on.
    pub periods_active: u64,
    /// Periods in which the activity test disabled it.
    pub periods_disabled: u64,
}

impl SchemeRuntime {
    /// Creates the runtime for a scheme with a deterministic seed.
    pub fn new(kind: SchemeKind, seed: u64) -> Self {
        let (active, phase) = match kind {
            SchemeKind::LineDynamic { .. } => (false, Phase::Warmup),
            SchemeKind::Baseline => (false, Phase::Run),
            _ => (true, Phase::Run),
        };
        SchemeRuntime {
            kind,
            rng: XorShift::new(seed),
            active,
            phase,
            phase_started: 0,
            accesses_at_measure: 0,
            shadow_hits_at_measure: 0,
            next_rotation: match kind {
                SchemeKind::SetFixed {
                    rotation_period, ..
                }
                | SchemeKind::WayFixed {
                    rotation_period, ..
                } => rotation_period,
                _ => u64::MAX,
            },
            periods_active: 0,
            periods_disabled: 0,
        }
    }

    /// The scheme kind.
    pub fn kind(&self) -> &SchemeKind {
        &self.kind
    }

    /// Whether inversion is currently enabled.
    pub fn is_active(&self) -> bool {
        self.active
    }

    fn target_lines(&self, cache: &SetAssocCache) -> usize {
        let fraction = match self.kind {
            SchemeKind::LineFixed { fraction } => fraction,
            SchemeKind::LineDynamic { fraction, .. } => fraction,
            _ => return 0,
        };
        ((cache.config().lines() as f64) * fraction).round() as usize
    }

    fn invert_one_random(&mut self, cache: &mut SetAssocCache, now: u64) {
        let set = self.rng.below(cache.set_count());
        // Invalid lines are preferred (free to invert); otherwise the LRU
        // valid line goes. If the chosen set has neither, INVCOUNT stays
        // below threshold and another try happens in the future (§3.2.1).
        let _ = cache.invert_line_in(set, now);
    }

    /// Reacts to a cache access outcome (fill-triggered re-inversion, and
    /// shadow-mark churn during the dynamic scheme's measurement phase).
    pub fn on_access(&mut self, cache: &mut SetAssocCache, outcome: &AccessOutcome, now: u64) {
        if self.active && outcome.refilled_inverted {
            // Keep the inverted-line ratio constant: when an inverted line
            // was refilled, invert a valid line elsewhere.
            self.invert_one_random(cache, now);
        }
        if self.phase == Phase::Measure && outcome.shadow_hit {
            // The real mechanism would have refilled this line after the
            // miss and inverted a different one, so the mark moves: the hit
            // was already counted by the cache.
            cache.clear_shadow_mark(outcome.set, outcome.way);
            let set = self.rng.below(cache.set_count());
            let _ = cache.shadow_mark_lru(set);
        }
    }

    /// Per-cycle maintenance: INVCOUNT top-up, rotations and the dynamic
    /// scheme's phase machine. At most one inversion per cycle (one spare
    /// write port).
    pub fn on_cycle(&mut self, cache: &mut SetAssocCache, now: u64) {
        match self.kind {
            SchemeKind::Baseline => {}
            SchemeKind::SetFixed { .. } | SchemeKind::WayFixed { .. } => {
                if now >= self.next_rotation {
                    // Round-robin re-selection of the parked sets/ways: the
                    // newly active capacity starts cold.
                    cache.invalidate_all(now);
                    self.next_rotation = now
                        + match self.kind {
                            SchemeKind::SetFixed {
                                rotation_period, ..
                            }
                            | SchemeKind::WayFixed {
                                rotation_period, ..
                            } => rotation_period,
                            _ => unreachable!(),
                        };
                }
            }
            SchemeKind::LineFixed { .. } => {
                if cache.inverted_count() < self.target_lines(cache) {
                    self.invert_one_random(cache, now);
                }
            }
            SchemeKind::LineDynamic {
                warmup,
                measure,
                period,
                threshold,
                ..
            } => {
                let elapsed = now - self.phase_started;
                match self.phase {
                    Phase::Warmup if elapsed >= warmup => {
                        self.phase = Phase::Measure;
                        self.phase_started = now;
                        self.accesses_at_measure = cache.stats().accesses;
                        self.shadow_hits_at_measure = cache.stats().shadow_hits;
                        // Mark the lines the mechanism would invert.
                        let target = self.target_lines(cache);
                        let mut marked = 0;
                        let mut tries = 0;
                        while marked < target && tries < 4 * target {
                            let set = self.rng.below(cache.set_count());
                            if cache.shadow_mark_lru(set).is_some() {
                                marked += 1;
                            }
                            tries += 1;
                        }
                    }
                    Phase::Measure if elapsed >= measure => {
                        let accesses = cache.stats().accesses - self.accesses_at_measure;
                        let shadow = cache.stats().shadow_hits - self.shadow_hits_at_measure;
                        let induced = if accesses == 0 {
                            0.0
                        } else {
                            shadow as f64 / accesses as f64
                        };
                        self.active = induced <= threshold;
                        if self.active {
                            self.periods_active += 1;
                        } else {
                            self.periods_disabled += 1;
                        }
                        cache.clear_shadow_marks();
                        self.phase = Phase::Run;
                        self.phase_started = now;
                    }
                    Phase::Run => {
                        let run_len = period.saturating_sub(warmup + measure);
                        if elapsed >= run_len {
                            // Next period: re-test.
                            self.active = false;
                            self.phase = Phase::Warmup;
                            self.phase_started = now;
                        } else if self.active && cache.inverted_count() < self.target_lines(cache) {
                            self.invert_one_random(cache, now);
                        }
                    }
                    _ => {}
                }
            }
        }
    }

    /// Average fraction of the structure's bit cells holding inverted
    /// contents over `[0, now]`. For set/way parking the parked capacity is
    /// inverted by construction (the halved model cache cannot track it).
    pub fn inverted_fraction(&self, cache: &SetAssocCache, now: u64) -> f64 {
        match self.kind {
            SchemeKind::SetFixed { fraction, .. } | SchemeKind::WayFixed { fraction, .. } => {
                fraction
            }
            _ => cache.inverted_time_fraction(now),
        }
    }
}

/// Bias of a bit cell once its line spends `inverted_fraction` of the time
/// holding complemented contents: `b' = (1-f)·b + f·(1-b)`.
pub fn effective_bias(baseline_bias: f64, inverted_fraction: f64) -> f64 {
    (1.0 - inverted_fraction) * baseline_bias + inverted_fraction * (1.0 - baseline_bias)
}

#[cfg(test)]
mod tests {
    use super::*;
    use uarch::cache::CacheConfig;

    fn small_cache() -> SetAssocCache {
        SetAssocCache::new(CacheConfig {
            size_bytes: 2048,
            ways: 4,
            line_bytes: 64,
        }) // 8 sets × 4 ways = 32 lines
    }

    fn fill(cache: &mut SetAssocCache, lines: usize, now: u64) {
        for i in 0..lines {
            cache.access(i as u64 * 64, now);
        }
    }

    #[test]
    fn line_fixed_reaches_target() {
        let mut cache = small_cache();
        fill(&mut cache, 32, 0);
        let mut scheme = SchemeRuntime::new(SchemeKind::line_fixed_50(), 7);
        for now in 1..200 {
            scheme.on_cycle(&mut cache, now);
        }
        assert_eq!(cache.inverted_count(), 16);
    }

    #[test]
    fn line_fixed_reinverts_on_refill() {
        let mut cache = small_cache();
        fill(&mut cache, 32, 0);
        let mut scheme = SchemeRuntime::new(SchemeKind::line_fixed_50(), 7);
        for now in 1..200 {
            scheme.on_cycle(&mut cache, now);
        }
        // Touch addresses that map onto inverted lines: refills consume
        // inverted lines, and the scheme must restore the count.
        for i in 32..64u64 {
            let out = cache.access(i * 64, 200 + i);
            scheme.on_access(&mut cache, &out, 200 + i);
        }
        for now in 300..400 {
            scheme.on_cycle(&mut cache, now);
        }
        assert!(
            cache.inverted_count() >= 15,
            "INVCOUNT {} after refills",
            cache.inverted_count()
        );
    }

    #[test]
    fn set_fixed_halves_geometry_and_rotates() {
        let base = CacheConfig::dl0(32, 8);
        let kind = SchemeKind::set_fixed_50(1000);
        let eff = kind.effective_cache(base);
        assert_eq!(eff.size_bytes, 16 * 1024);
        assert_eq!(eff.ways, 8);

        let mut cache = SetAssocCache::new(eff);
        fill(&mut cache, 16, 0);
        let mut scheme = SchemeRuntime::new(kind, 3);
        assert!(cache.valid_count() > 0);
        scheme.on_cycle(&mut cache, 1000);
        assert_eq!(cache.valid_count(), 0, "rotation flushes the cache");
    }

    #[test]
    fn way_fixed_halves_ways() {
        let base = CacheConfig::dl0(32, 8);
        let kind = SchemeKind::WayFixed {
            fraction: 0.5,
            rotation_period: 1000,
        };
        let eff = kind.effective_cache(base);
        assert_eq!(eff.ways, 4);
        assert_eq!(eff.size_bytes, 16 * 1024);
        assert_eq!(eff.sets(), base.sets(), "set count is preserved");
    }

    #[test]
    fn dynamic_scheme_runs_its_phase_machine() {
        let mut cache = small_cache();
        fill(&mut cache, 32, 0);
        let kind = SchemeKind::LineDynamic {
            fraction: 0.6,
            warmup: 10,
            measure: 10,
            period: 100,
            threshold: 0.95, // generous: everything passes
        };
        let mut scheme = SchemeRuntime::new(kind, 11);
        assert!(!scheme.is_active());
        for now in 1..60 {
            scheme.on_cycle(&mut cache, now);
            // Accesses keep flowing so the measurement has a denominator.
            let out = cache.access((now % 32) * 64, now);
            scheme.on_access(&mut cache, &out, now);
        }
        assert!(
            scheme.is_active(),
            "permissive threshold enables the scheme"
        );
        assert!(cache.inverted_count() > 0);
        assert_eq!(scheme.periods_active, 1);
    }

    #[test]
    fn dynamic_scheme_disables_for_cache_hungry_programs() {
        let mut cache = small_cache();
        fill(&mut cache, 32, 0);
        let kind = SchemeKind::LineDynamic {
            fraction: 0.6,
            warmup: 10,
            measure: 40,
            period: 200,
            threshold: 0.0001, // strict: any shadow hit disables
        };
        let mut scheme = SchemeRuntime::new(kind, 13);
        for now in 1..120 {
            scheme.on_cycle(&mut cache, now);
            // Heavy reuse of all 32 lines → shadow-marked LRU lines get hit.
            let out = cache.access((now % 32) * 64, now);
            scheme.on_access(&mut cache, &out, now);
        }
        assert!(!scheme.is_active());
        assert_eq!(scheme.periods_disabled, 1);
        assert_eq!(cache.inverted_count(), 0);
    }

    #[test]
    fn effective_bias_formula() {
        assert!((effective_bias(0.9, 0.5) - 0.5).abs() < 1e-12);
        assert!((effective_bias(0.9, 0.0) - 0.9).abs() < 1e-12);
        assert!((effective_bias(0.9, 1.0) - 0.1).abs() < 1e-12);
        // 60% inversion overshoots past balance, still fine.
        assert!((effective_bias(0.9, 0.6) - 0.42).abs() < 1e-12);
    }

    #[test]
    fn thresholds_match_table_3() {
        assert_eq!(SchemeKind::dl0_threshold(32), 0.02);
        assert_eq!(SchemeKind::dl0_threshold(16), 0.03);
        assert_eq!(SchemeKind::dl0_threshold(8), 0.04);
        assert_eq!(SchemeKind::dtlb_threshold(128), 0.005);
        assert_eq!(SchemeKind::dtlb_threshold(64), 0.01);
        assert_eq!(SchemeKind::dtlb_threshold(32), 0.02);
    }

    #[test]
    fn labels_match_table_3() {
        assert_eq!(SchemeKind::set_fixed_50(1).label(), "SetFixed50%");
        assert_eq!(SchemeKind::line_fixed_50().label(), "LineFixed50%");
        assert_eq!(
            SchemeKind::line_dynamic_60(0.02, 100).label(),
            "LineDynamic60%"
        );
    }

    #[test]
    fn xorshift_is_deterministic() {
        let mut a = XorShift::new(5);
        let mut b = XorShift::new(5);
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        assert!(XorShift::new(0).next_u64() != 0);
    }
}
