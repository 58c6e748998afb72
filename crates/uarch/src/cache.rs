//! Set-associative caches with inversion-aware line states.
//!
//! Cache-like blocks (§3.2.1) evict entries on demand, so Penelope can keep
//! a fraction of the lines *invalid and inverted* to balance bit-cell aging.
//! This substrate provides everything the schemes need:
//!
//! - true-LRU replacement with hit-position statistics (the paper reports
//!   90% of DL0 hits at the MRU position for 32KB 8-way);
//! - a three-state line: valid, invalid, or **inverted** (invalid with
//!   complemented contents);
//! - a *shadow bit* per line ("would have been inverted"), used by the
//!   dynamic scheme to estimate induced extra misses without actually
//!   inverting (§3.2.1, implementation issues);
//! - time-accounting of the inverted fraction, from which the bias
//!   improvement of the cache's bit cells follows.

/// Cache geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes (= sets × ways × line size).
    pub size_bytes: u64,
    /// Associativity.
    pub ways: u16,
    /// Line size in bytes.
    pub line_bytes: u32,
}

impl CacheConfig {
    /// A first-level data cache (64-byte lines), `kb` kilobytes, given
    /// associativity. Table 3 uses 8, 16 and 32KB at 4 and 8 ways.
    pub fn dl0(kb: u32, ways: u16) -> Self {
        CacheConfig {
            size_bytes: u64::from(kb) * 1024,
            ways,
            line_bytes: 64,
        }
    }

    /// A data TLB with the given number of entries (4KB pages). Table 3
    /// uses 32, 64 and 128 entries, all 8-way.
    pub fn dtlb(entries: u32, ways: u16) -> Self {
        CacheConfig {
            size_bytes: u64::from(entries) * 4096,
            ways,
            line_bytes: 4096,
        }
    }

    /// Number of sets.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (zero or non-dividing sizes).
    pub fn sets(&self) -> usize {
        let lines = self.size_bytes / u64::from(self.line_bytes);
        assert!(lines > 0 && self.ways > 0, "degenerate cache geometry");
        assert!(
            lines.is_multiple_of(u64::from(self.ways)),
            "lines must divide evenly into ways"
        );
        (lines / u64::from(self.ways)) as usize
    }

    /// Total number of lines.
    pub fn lines(&self) -> usize {
        (self.size_bytes / u64::from(self.line_bytes)) as usize
    }
}

/// State of one cache line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineState {
    /// No useful content.
    Invalid,
    /// Holds valid data.
    Valid,
    /// Invalid, holding the *inverted* image of its last contents for NBTI
    /// balancing. The valid/state bits encode this combination (§3.2.1).
    Inverted,
}

#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u64,
    state: LineState,
    /// Recency timestamp for LRU.
    lru: u64,
    /// "Would have been inverted" marker for the dynamic scheme's test
    /// phase.
    shadow: bool,
    /// When the line last entered the Inverted state.
    inverted_since: u64,
}

impl Line {
    fn empty() -> Self {
        Line {
            tag: 0,
            state: LineState::Invalid,
            lru: 0,
            shadow: false,
            inverted_since: 0,
        }
    }
}

/// Access/maintenance statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// Hits.
    pub hits: u64,
    /// Hits per recency position (0 = MRU).
    pub hit_positions: Vec<u64>,
    /// Hits on shadow-marked lines (the dynamic scheme's induced-extra-miss
    /// estimate).
    pub shadow_hits: u64,
    /// Fills that reused an Inverted victim.
    pub inverted_refills: u64,
}

impl CacheStats {
    /// Miss count.
    pub fn misses(&self) -> u64 {
        self.accesses - self.hits
    }

    /// Miss ratio in `[0, 1]`.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses() as f64 / self.accesses as f64
        }
    }

    /// Fraction of hits at recency position `pos`.
    pub fn hit_position_fraction(&self, pos: usize) -> f64 {
        if self.hits == 0 {
            return 0.0;
        }
        self.hit_positions.get(pos).copied().unwrap_or(0) as f64 / self.hits as f64
    }
}

/// Outcome of one access-with-fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the access hit.
    pub hit: bool,
    /// Set index accessed.
    pub set: usize,
    /// Way hit or filled.
    pub way: usize,
    /// Whether the fill consumed an Inverted line (LineFixed re-inverts
    /// elsewhere when this happens).
    pub refilled_inverted: bool,
    /// Whether the hit line carried the shadow mark.
    pub shadow_hit: bool,
}

/// A set-associative, write-allocate cache with true LRU.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    config: CacheConfig,
    sets: Vec<Vec<Line>>,
    stats: CacheStats,
    clock: u64,
    /// Accumulated line-cycles spent in the Inverted state.
    inverted_time: u128,
    /// Time accounting starts here.
    epoch: u64,
    /// Running count of lines in the Valid state. Kept in step by
    /// [`SetAssocCache::set_line_state`] so the per-cycle scheme decisions
    /// and telemetry samples read a counter instead of scanning every line.
    valid_lines: usize,
    /// Running count of lines in the Inverted state (INVCOUNT).
    inverted_lines: usize,
}

impl SetAssocCache {
    /// Creates an empty cache.
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        SetAssocCache {
            sets: vec![vec![Line::empty(); usize::from(config.ways)]; sets],
            stats: CacheStats {
                hit_positions: vec![0; usize::from(config.ways)],
                ..CacheStats::default()
            },
            clock: 0,
            inverted_time: 0,
            epoch: 0,
            valid_lines: 0,
            inverted_lines: 0,
            config,
        }
    }

    /// Transitions one line's state, keeping the valid/inverted line
    /// counters in step. Every state change must go through here.
    fn set_line_state(&mut self, set: usize, way: usize, state: LineState) {
        let old = self.sets[set][way].state;
        if old != state {
            match old {
                LineState::Valid => self.valid_lines -= 1,
                LineState::Inverted => self.inverted_lines -= 1,
                LineState::Invalid => {}
            }
            match state {
                LineState::Valid => self.valid_lines += 1,
                LineState::Inverted => self.inverted_lines += 1,
                LineState::Invalid => {}
            }
        }
        self.sets[set][way].state = state;
    }

    /// The geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Number of sets.
    pub fn set_count(&self) -> usize {
        self.sets.len()
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        usize::from(self.config.ways)
    }

    fn index_of(&self, addr: u64) -> (usize, u64) {
        let line = addr / u64::from(self.config.line_bytes);
        let set = (line % self.sets.len() as u64) as usize;
        let tag = line / self.sets.len() as u64;
        (set, tag)
    }

    fn charge_inversion_end(&mut self, set: usize, way: usize, now: u64) {
        let line = &self.sets[set][way];
        if line.state == LineState::Inverted {
            self.inverted_time += u128::from(now - line.inverted_since);
        }
    }

    /// Accesses `addr` at time `now`, filling on miss. Victim preference:
    /// invalid, then inverted, then LRU valid.
    pub fn access(&mut self, addr: u64, now: u64) -> AccessOutcome {
        self.clock = self.clock.max(now);
        let (set, tag) = self.index_of(addr);
        self.stats.accesses += 1;

        // Hit check among valid lines.
        let ways = self.ways();
        let hit_way = (0..ways)
            .find(|&w| self.sets[set][w].state == LineState::Valid && self.sets[set][w].tag == tag);
        if let Some(way) = hit_way {
            // Recency rank before the LRU update.
            let my_lru = self.sets[set][way].lru;
            let pos = (0..ways)
                .filter(|&w| {
                    w != way
                        && self.sets[set][w].state == LineState::Valid
                        && self.sets[set][w].lru > my_lru
                })
                .count();
            self.stats.hits += 1;
            self.stats.hit_positions[pos.min(ways - 1)] += 1;
            let shadow_hit = self.sets[set][way].shadow;
            if shadow_hit {
                self.stats.shadow_hits += 1;
            }
            self.sets[set][way].lru = self.bump_clock();
            return AccessOutcome {
                hit: true,
                set,
                way,
                refilled_inverted: false,
                shadow_hit,
            };
        }

        // Miss: choose a victim.
        let victim = self.victim_way(set);
        self.charge_inversion_end(set, victim, now);
        let refilled_inverted = self.sets[set][victim].state == LineState::Inverted;
        if refilled_inverted {
            self.stats.inverted_refills += 1;
        }
        let stamp = self.bump_clock();
        let line = &mut self.sets[set][victim];
        line.tag = tag;
        line.lru = stamp;
        line.shadow = false;
        self.set_line_state(set, victim, LineState::Valid);
        AccessOutcome {
            hit: false,
            set,
            way: victim,
            refilled_inverted,
            shadow_hit: false,
        }
    }

    fn bump_clock(&mut self) -> u64 {
        // Saturates at the far end of time: recency ties then resolve to
        // the lowest way, which is harmless.
        self.clock = self.clock.saturating_add(1);
        self.clock
    }

    #[allow(clippy::expect_used)] // config validation rejects zero ways
    fn victim_way(&self, set: usize) -> usize {
        let ways = &self.sets[set];
        if let Some(w) = ways.iter().position(|l| l.state == LineState::Invalid) {
            return w;
        }
        if let Some(w) = ways.iter().position(|l| l.state == LineState::Inverted) {
            return w;
        }
        ways.iter()
            .enumerate()
            .min_by_key(|(_, l)| l.lru)
            .map(|(w, _)| w)
            .expect("cache has at least one way")
    }

    /// The LRU *valid* way of a set, if any.
    pub fn lru_valid_way(&self, set: usize) -> Option<usize> {
        self.sets[set]
            .iter()
            .enumerate()
            .filter(|(_, l)| l.state == LineState::Valid)
            .min_by_key(|(_, l)| l.lru)
            .map(|(w, _)| w)
    }

    /// Inverts (and invalidates) the LRU valid line of `set`. Returns the
    /// way, or `None` if the set has no valid line.
    pub fn invert_lru_line(&mut self, set: usize, now: u64) -> Option<usize> {
        let way = self.lru_valid_way(set)?;
        self.sets[set][way].inverted_since = now;
        self.set_line_state(set, way, LineState::Inverted);
        Some(way)
    }

    /// Inverts one line of `set`, preferring an *invalid* line (its stale
    /// contents are useless data already, §3.2.1, so inverting it costs
    /// nothing) and falling back to the LRU valid line. Returns the way, or
    /// `None` if the set holds neither.
    pub fn invert_line_in(&mut self, set: usize, now: u64) -> Option<usize> {
        if let Some(way) = self.sets[set]
            .iter()
            .position(|l| l.state == LineState::Invalid)
        {
            self.sets[set][way].inverted_since = now;
            self.set_line_state(set, way, LineState::Inverted);
            return Some(way);
        }
        self.invert_lru_line(set, now)
    }

    /// Marks the shadow bit of the LRU valid line of `set` (dynamic-scheme
    /// test phase). Returns the way, or `None`.
    pub fn shadow_mark_lru(&mut self, set: usize) -> Option<usize> {
        let way = self.sets[set]
            .iter()
            .enumerate()
            .filter(|(_, l)| l.state == LineState::Valid && !l.shadow)
            .min_by_key(|(_, l)| l.lru)
            .map(|(w, _)| w)?;
        self.sets[set][way].shadow = true;
        Some(way)
    }

    /// Clears the shadow mark of one line.
    pub fn clear_shadow_mark(&mut self, set: usize, way: usize) {
        self.sets[set][way].shadow = false;
    }

    /// Clears all shadow marks.
    pub fn clear_shadow_marks(&mut self) {
        for set in &mut self.sets {
            for line in set {
                line.shadow = false;
            }
        }
    }

    /// Number of lines currently in the Inverted state (INVCOUNT). O(1):
    /// the count is maintained at every state transition, which turns the
    /// per-cycle scheme top-up check from a full line scan into a compare.
    pub fn inverted_count(&self) -> usize {
        self.inverted_lines
    }

    /// Number of currently valid lines. O(1), maintained per transition.
    pub fn valid_count(&self) -> usize {
        self.valid_lines
    }

    /// Number of currently invalid lines (neither valid nor inverted).
    pub fn invalid_count(&self) -> usize {
        self.config.lines() - self.valid_count() - self.inverted_count()
    }

    /// Instantaneous fraction of lines holding valid data.
    pub fn valid_fraction(&self) -> f64 {
        self.valid_count() as f64 / self.config.lines() as f64
    }

    /// Instantaneous fraction of lines in the Inverted state.
    pub fn inverted_fraction(&self) -> f64 {
        self.inverted_count() as f64 / self.config.lines() as f64
    }

    /// State of one line.
    pub fn line_state(&self, set: usize, way: usize) -> LineState {
        self.sets[set][way].state
    }

    /// Invalidates every line (used by rotation/flush events).
    pub fn invalidate_all(&mut self, now: u64) {
        for set in 0..self.set_count() {
            for way in 0..self.ways() {
                self.charge_inversion_end(set, way, now);
                self.sets[set][way].shadow = false;
                self.set_line_state(set, way, LineState::Invalid);
            }
        }
    }

    /// Average fraction of lines in the Inverted state over `[epoch, now]`.
    pub fn inverted_time_fraction(&self, now: u64) -> f64 {
        let span = u128::from(now.saturating_sub(self.epoch)) * self.config.lines() as u128;
        if span == 0 {
            return 0.0;
        }
        let mut total = self.inverted_time;
        for set in &self.sets {
            for line in set {
                if line.state == LineState::Inverted {
                    total += u128::from(now - line.inverted_since);
                }
            }
        }
        (total as f64 / span as f64).clamp(0.0, 1.0)
    }

    /// Access statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Clears access statistics (not line states).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats {
            hit_positions: vec![0; self.ways()],
            ..CacheStats::default()
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SetAssocCache {
        // 4 sets × 2 ways × 64B = 512B.
        SetAssocCache::new(CacheConfig {
            size_bytes: 512,
            ways: 2,
            line_bytes: 64,
        })
    }

    #[test]
    fn geometry() {
        let c = CacheConfig::dl0(32, 8);
        assert_eq!(c.sets(), 64);
        assert_eq!(c.lines(), 512);
        let t = CacheConfig::dtlb(128, 8);
        assert_eq!(t.sets(), 16);
        assert_eq!(t.lines(), 128);
    }

    #[test]
    fn hit_after_fill() {
        let mut c = tiny();
        assert!(!c.access(0x1000, 0).hit);
        assert!(c.access(0x1000, 1).hit);
        assert!(c.access(0x1020, 2).hit, "same 64B line");
        assert_eq!(c.stats().hits, 2);
    }

    #[test]
    fn lru_eviction() {
        let mut c = tiny();
        // Three lines mapping to the same set (set stride = 4*64 = 256B).
        let a = 0x0000;
        let b = 0x0400;
        let d = 0x0800;
        c.access(a, 0);
        c.access(b, 1);
        c.access(a, 2); // a is MRU now
        c.access(d, 3); // evicts b (LRU)
        assert!(c.access(a, 4).hit);
        assert!(!c.access(b, 5).hit, "b was evicted");
    }

    #[test]
    fn hit_position_statistics() {
        let mut c = tiny();
        c.access(0x0000, 0);
        c.access(0x0400, 1);
        // 0x0400 is MRU → hit position 0; 0x0000 is position 1.
        assert!(c.access(0x0400, 2).hit);
        assert!(c.access(0x0000, 3).hit);
        assert_eq!(c.stats().hit_positions[0], 1);
        assert_eq!(c.stats().hit_positions[1], 1);
        assert!((c.stats().hit_position_fraction(0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn inverted_lines_are_preferred_victims_and_counted() {
        let mut c = tiny();
        c.access(0x0000, 0);
        c.access(0x0400, 1);
        let way = c.invert_lru_line(0, 2).unwrap();
        assert_eq!(c.line_state(0, way), LineState::Inverted);
        assert_eq!(c.inverted_count(), 1);
        // The inverted line no longer hits.
        assert!(!c.access(0x0000, 3).hit);
        // That fill reused the inverted way.
        assert_eq!(c.stats().inverted_refills, 1);
        assert_eq!(c.inverted_count(), 0);
    }

    #[test]
    fn invert_lru_picks_least_recent() {
        let mut c = tiny();
        c.access(0x0000, 0);
        c.access(0x0400, 1);
        c.access(0x0000, 2); // 0x0400 becomes LRU
        let way = c.invert_lru_line(0, 3).unwrap();
        // 0x0000 must still hit; 0x0400 was inverted.
        assert!(c.access(0x0000, 4).hit);
        assert!(!c.access(0x0400, 5).hit);
        let _ = way;
    }

    #[test]
    fn shadow_marks_count_would_be_misses() {
        let mut c = tiny();
        c.access(0x0000, 0);
        c.shadow_mark_lru(0).unwrap();
        let out = c.access(0x0000, 1);
        assert!(out.hit && out.shadow_hit);
        assert_eq!(c.stats().shadow_hits, 1);
        c.clear_shadow_marks();
        assert!(!c.access(0x0000, 2).shadow_hit);
    }

    #[test]
    fn inverted_time_fraction_integrates() {
        let mut c = tiny();
        c.access(0x0000, 0);
        c.invert_lru_line(0, 0).unwrap();
        // 1 of 8 lines inverted over [0, 80].
        let f = c.inverted_time_fraction(80);
        assert!((f - 1.0 / 8.0).abs() < 1e-9, "got {f}");
    }

    #[test]
    fn invalidate_all_clears() {
        let mut c = tiny();
        c.access(0x0000, 0);
        c.invert_lru_line(0, 0);
        c.invalidate_all(10);
        assert_eq!(c.valid_count(), 0);
        assert_eq!(c.inverted_count(), 0);
    }

    #[test]
    fn line_state_counters_match_scans() {
        let mut c = tiny();
        let scan = |c: &SetAssocCache, state: LineState| {
            c.sets.iter().flatten().filter(|l| l.state == state).count()
        };
        let addrs = [0x0000u64, 0x0400, 0x0040, 0x0440, 0x0080, 0x0480];
        for (t, &a) in addrs.iter().enumerate() {
            c.access(a, t as u64);
        }
        c.invert_lru_line(0, 10);
        c.invert_line_in(1, 11);
        c.access(0x0000, 12); // refills an inverted victim
        assert_eq!(c.valid_count(), scan(&c, LineState::Valid));
        assert_eq!(c.inverted_count(), scan(&c, LineState::Inverted));
        c.invalidate_all(20);
        assert_eq!(c.valid_count(), 0);
        assert_eq!(c.inverted_count(), 0);
        assert_eq!(c.invalid_count(), c.config().lines());
    }

    #[test]
    fn miss_ratio_reporting() {
        let mut c = tiny();
        c.access(0x0000, 0);
        c.access(0x0000, 1);
        assert!((c.stats().miss_ratio() - 0.5).abs() < 1e-12);
        c.reset_stats();
        assert_eq!(c.stats().accesses, 0);
    }
}
