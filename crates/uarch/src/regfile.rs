//! Physical register files.
//!
//! An explicitly managed block with large idle time (§4.4): entries are
//! allocated at rename, written at execute, and released when the next
//! writer of the same architectural register retires. Between release and
//! the next allocation a register is *free but keeps its last value* — that
//! is precisely the window Penelope's ISV technique exploits by rewriting
//! free entries with inverted sampled values through spare write ports.
//!
//! Statistics reproduced from the paper: integer registers free 54% of the
//! time (FP 69%); a spare write port is found at 92% (86%) of releases;
//! baseline worst-bit bias 89.9% (INT) / 84.2% (FP).

use std::collections::VecDeque;

use crate::bitstats::{BitResidency, OccupancyTracker, TrackedWord};

/// Identifier of a physical register.
pub type PhysReg = u16;

/// Register file parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegFileConfig {
    /// Number of physical registers.
    pub entries: u16,
    /// Bits per register (32 integer, 80 FP).
    pub width: usize,
    /// Write ports shared by real writes and opportunistic (ISV) writes.
    pub write_ports: u8,
}

impl RegFileConfig {
    /// The integer register file of the paper: 128 × 32-bit, highly ported.
    pub fn integer() -> Self {
        RegFileConfig {
            entries: 128,
            width: 32,
            write_ports: 4,
        }
    }

    /// The FP register file: 128 × 80-bit.
    pub fn floating_point() -> Self {
        RegFileConfig {
            entries: 128,
            width: 80,
            write_ports: 2,
        }
    }
}

/// Per-cycle write-port budget tracking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PortState {
    cycle: u64,
    used: u8,
}

/// A physical register file with free-list allocation, port contention and
/// per-bit residency accounting.
///
/// A register file is built *tracked* ([`RegisterFile::new`]) or
/// *untracked* ([`RegisterFile::untracked`]), once, for its whole life. An
/// untracked file keeps everything timing depends on — the free list,
/// busy flags, write ports, occupancy and the register values — and skips
/// only the bit-residency charges: its [`residency`](Self::residency)
/// stays empty (zero total time).
#[derive(Debug, Clone)]
pub struct RegisterFile {
    config: RegFileConfig,
    tracked: bool,
    cells: Vec<TrackedWord>,
    busy: Vec<bool>,
    free_list: VecDeque<PhysReg>,
    residency: BitResidency,
    occupancy: OccupancyTracker,
    ports: PortState,
    releases: u64,
    releases_with_port: u64,
}

impl RegisterFile {
    /// Creates a tracked register file; all registers start free and hold
    /// zero (a freshly powered structure), at time 0.
    pub fn new(config: RegFileConfig) -> Self {
        RegisterFile::build(config, true)
    }

    /// Creates an untracked register file: the same timing and values as
    /// [`RegisterFile::new`], no residency accounting.
    pub fn untracked(config: RegFileConfig) -> Self {
        RegisterFile::build(config, false)
    }

    fn build(config: RegFileConfig, tracked: bool) -> Self {
        assert!(config.entries > 0, "need at least one register");
        assert!((1..=128).contains(&config.width), "width must be 1..=128");
        assert!(config.write_ports > 0, "need at least one write port");
        RegisterFile {
            tracked,
            cells: vec![TrackedWord::new(0, 0); usize::from(config.entries)],
            busy: vec![false; usize::from(config.entries)],
            free_list: (0..config.entries).collect(),
            residency: BitResidency::new(config.width),
            occupancy: OccupancyTracker::new(u64::from(config.entries), 0),
            ports: PortState { cycle: 0, used: 0 },
            releases: 0,
            releases_with_port: 0,
            config,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &RegFileConfig {
        &self.config
    }

    /// Whether the file charges bit residency.
    pub fn is_tracked(&self) -> bool {
        self.tracked
    }

    /// Stores `value` into a cell, charging the old value's residency when
    /// the file is tracked.
    fn store(&mut self, idx: usize, value: u128, now: u64) {
        let cell = &mut self.cells[idx];
        if self.tracked {
            cell.write(value, now, &mut self.residency);
        } else {
            *cell = TrackedWord::new(value, now);
        }
    }

    fn roll_cycle(&mut self, now: u64) {
        if self.ports.cycle != now {
            self.ports = PortState {
                cycle: now,
                used: 0,
            };
        }
    }

    /// Whether a write port is still free in cycle `now`.
    pub fn port_available(&mut self, now: u64) -> bool {
        self.roll_cycle(now);
        self.ports.used < self.config.write_ports
    }

    /// Allocates a free register at time `now` (rename), or `None` if the
    /// free list is empty. The entry keeps its stale value until written.
    pub fn allocate(&mut self, now: u64) -> Option<PhysReg> {
        // FIFO: a just-released register goes to the back of the queue, so
        // every register rotates through use (and through balancing
        // updates) rather than a small set being reused.
        let preg = self.free_list.pop_front()?;
        self.busy[usize::from(preg)] = true;
        self.occupancy.acquire(now);
        Some(preg)
    }

    /// Writes a result value (architectural write; always succeeds and
    /// consumes a port).
    ///
    /// # Panics
    ///
    /// Panics if `preg` is out of range.
    pub fn write(&mut self, preg: PhysReg, value: u128, now: u64) {
        self.roll_cycle(now);
        self.ports.used = self.ports.used.saturating_add(1);
        self.store(usize::from(preg), value, now);
    }

    /// Releases a register back to the free list at time `now`. The cell
    /// keeps its content. Returns whether a spare write port was available
    /// in this cycle (the paper's 92%/86% statistic).
    ///
    /// # Panics
    ///
    /// Panics if the register was not busy.
    pub fn release(&mut self, preg: PhysReg, now: u64) -> bool {
        let idx = usize::from(preg);
        assert!(self.busy[idx], "releasing a free register {preg}");
        self.busy[idx] = false;
        self.free_list.push_back(preg);
        self.occupancy.release(now);
        self.releases += 1;
        let port_free = self.port_available(now);
        if port_free {
            self.releases_with_port += 1;
        }
        port_free
    }

    /// Opportunistic write into a *free* register (the ISV update path):
    /// succeeds only when the entry is free and a write port is available
    /// this cycle.
    pub fn try_write_free(&mut self, preg: PhysReg, value: u128, now: u64) -> bool {
        let idx = usize::from(preg);
        if self.busy[idx] || !self.port_available(now) {
            return false;
        }
        self.ports.used += 1;
        self.store(idx, value, now);
        true
    }

    /// Whether the register is currently allocated.
    pub fn is_busy(&self, preg: PhysReg) -> bool {
        self.busy[usize::from(preg)]
    }

    /// Current content of a register (regardless of busy state).
    pub fn value_of(&self, preg: PhysReg) -> u128 {
        self.cells[usize::from(preg)].value()
    }

    /// Number of free registers.
    pub fn free_count(&self) -> usize {
        self.free_list.len()
    }

    /// Number of physical registers.
    pub fn entries(&self) -> usize {
        usize::from(self.config.entries)
    }

    /// Flushes residency accounting of every cell up to `now`.
    /// [`Pipeline::run`](crate::pipeline::Pipeline::run) calls it when a
    /// run ends; only a reader sampling in the middle of a run (or a test
    /// driving a bare register file) calls it itself. Does nothing on an
    /// untracked file.
    pub fn sync(&mut self, now: u64) {
        if !self.tracked {
            return;
        }
        for cell in &mut self.cells {
            cell.flush(now, &mut self.residency);
        }
    }

    /// Per-bit-position residency (aggregated over all registers),
    /// accurate up to the last [`RegisterFile::sync`]: after a pipeline
    /// run, up to the run's last cycle. Empty on an untracked file.
    pub fn residency(&self) -> &BitResidency {
        &self.residency
    }

    /// Average fraction of registers free up to `now` (the paper's 54%/69%
    /// numbers). A read only, so telemetry may sample it mid-run.
    pub fn free_fraction(&self, now: u64) -> f64 {
        self.occupancy.free_fraction(now).fraction()
    }

    /// Fraction of releases that found a spare write port (92% INT / 86%
    /// FP in the paper).
    pub fn release_port_availability(&self) -> f64 {
        if self.releases == 0 {
            return 1.0;
        }
        self.releases_with_port as f64 / self.releases as f64
    }

    /// Total releases observed.
    pub fn releases(&self) -> u64 {
        self.releases
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> RegisterFile {
        RegisterFile::new(RegFileConfig {
            entries: 4,
            width: 8,
            write_ports: 2,
        })
    }

    #[test]
    fn allocate_release_cycle() {
        let mut rf = small();
        let a = rf.allocate(0).unwrap();
        let b = rf.allocate(0).unwrap();
        assert_ne!(a, b);
        assert!(rf.is_busy(a));
        assert_eq!(rf.free_count(), 2);
        rf.release(a, 5);
        assert!(!rf.is_busy(a));
        assert_eq!(rf.free_count(), 3);
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut rf = small();
        for _ in 0..4 {
            assert!(rf.allocate(0).is_some());
        }
        assert!(rf.allocate(0).is_none());
    }

    #[test]
    fn released_register_keeps_its_value() {
        let mut rf = small();
        let a = rf.allocate(0).unwrap();
        rf.write(a, 0xAB, 1);
        rf.release(a, 2);
        assert_eq!(rf.value_of(a), 0xAB);
    }

    #[test]
    fn residency_tracks_cell_contents() {
        let mut rf = small();
        let a = rf.allocate(0).unwrap();
        rf.write(a, 0xFF, 0);
        rf.sync(10);
        // Register a held 0xFF for 10 cycles; the other three held 0.
        // bit 0: zero for 30 of 40 entry-cycles.
        assert!((rf.residency().bias(0).fraction() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn port_budget_limits_opportunistic_writes() {
        let mut rf = small();
        let a = rf.allocate(0).unwrap();
        let b = rf.allocate(0).unwrap();
        rf.release(a, 3);
        rf.release(b, 3);
        // Two ports: two opportunistic writes fit in one cycle, not three.
        assert!(rf.try_write_free(a, 1, 4));
        assert!(rf.try_write_free(b, 1, 4));
        assert!(!rf.try_write_free(a, 2, 4));
        // Next cycle the budget resets.
        assert!(rf.try_write_free(a, 2, 5));
    }

    #[test]
    fn opportunistic_write_requires_free_entry() {
        let mut rf = small();
        let a = rf.allocate(0).unwrap();
        assert!(!rf.try_write_free(a, 1, 1), "entry is busy");
    }

    #[test]
    fn real_writes_consume_the_port_budget() {
        let mut rf = small();
        let a = rf.allocate(0).unwrap();
        let b = rf.allocate(0).unwrap();
        rf.write(a, 1, 7);
        rf.write(b, 2, 7);
        rf.release(a, 7);
        // Both ports used by real writes → release finds no port.
        assert!(!rf.try_write_free(a, 3, 7));
        assert!((rf.release_port_availability() - 0.0).abs() < 1e-12);
    }

    #[test]
    fn untracked_file_keeps_values_and_ports_but_charges_nothing() {
        let config = RegFileConfig {
            entries: 4,
            width: 8,
            write_ports: 2,
        };
        let mut rf = RegisterFile::untracked(config);
        assert!(!rf.is_tracked() && RegisterFile::new(config).is_tracked());
        let a = rf.allocate(0).unwrap();
        rf.write(a, 0xAB, 1);
        assert!(rf.release(a, 2));
        assert_eq!(rf.value_of(a), 0xAB);
        assert!(rf.try_write_free(a, 0xCD, 3));
        assert!(rf.try_write_free(a, 0xEF, 3));
        assert!(!rf.try_write_free(a, 0x01, 3), "two ports per cycle");
        assert_eq!(rf.value_of(a), 0xEF);
        rf.sync(10);
        assert_eq!(rf.residency().total_time(), 0);
        assert!((rf.free_fraction(4) - (1.0 - 2.0 / 16.0)).abs() < 1e-12);
    }

    #[test]
    fn free_fraction_integrates() {
        let mut rf = small();
        let a = rf.allocate(0).unwrap();
        rf.release(a, 10);
        // 1 of 4 busy over [0, 10), all free over [10, 20).
        assert!((rf.free_fraction(20) - (1.0 - 10.0 / 80.0)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "free register")]
    fn double_release_panics() {
        let mut rf = small();
        let a = rf.allocate(0).unwrap();
        rf.release(a, 1);
        rf.release(a, 2);
    }

    #[test]
    fn paper_configs() {
        let int = RegFileConfig::integer();
        assert_eq!(int.entries, 128);
        assert_eq!(int.width, 32);
        let fp = RegFileConfig::floating_point();
        assert_eq!(fp.width, 80);
    }
}
