//! Event-driven per-bit zero-residency accounting.
//!
//! Storage structures age per *bit cell*: a cell storing "0" stresses one
//! PMOS of the cross-coupled pair, storing "1" stresses the other. What
//! matters is the fraction of time each bit position holds "0" (the bias of
//! Figures 6 and 8). Tracking this per cycle would be prohibitive, so
//! accounting is event-driven: a [`TrackedWord`] remembers the value and the
//! time it was written, and charges `(now − since) × zero-mask` into a
//! [`BitResidency`] when the value changes.
//!
//! # The lane kernel
//!
//! Every register write, scheduler group change and cache line state change
//! funnels through [`BitResidency::record`], so charging an event must cost
//! the same few word operations whatever its zero-mask and duration.
//! [`BitResidency`] keeps one `u16` *pending lane* per bit position and
//! charges the zero-mask a byte at a time: `EXPAND` maps each byte to
//! eight lane masks (all-ones where the byte has a bit set), and
//! `lanes[8j..8j + 8] += EXPAND[byte j] & duration` adds the duration to
//! exactly the zero bits — no branch on any bit, one 8-lane add per byte.
//!
//! `pending` sums the durations charged since the last spill and bounds
//! every lane, so the lanes spill into the exact `u64` `zero_time` lanes
//! before that sum could pass `u16::MAX`; an event longer than that goes
//! straight to the `u64` lanes. `zero_cycles` is one addition, and
//! `bias()`/`merge()`/reports see the same integers the scalar loop
//! produced — byte-identical, not approximately equal.
//!
//! [`ScalarResidency`] keeps the original per-bit loop alive as a reference
//! oracle; the differential property suite (`tests/bitstats_prop.rs`)
//! compares the two implementations event-for-event, and its `--ignored`
//! release test `swar_kernel_is_at_least_3x_faster_at_width_64` times them.

use nbti_model::duty::Duty;

/// Largest duration the `u16` pending lanes absorb between spills: while
/// the durations charged since the last spill sum to at most this, no lane
/// can wrap. Longer single events go straight to the `u64` lanes.
pub const LANE_CAPACITY: u64 = u16::MAX as u64;

/// `EXPAND[b][k]` is all-ones when bit `k` of byte `b` is set, else zero:
/// AND-ed with a duration it gives the eight lane increments of one byte of
/// a zero-mask.
static EXPAND: [[u16; 8]; 256] = expand_table();

const fn expand_table() -> [[u16; 8]; 256] {
    let mut table = [[0u16; 8]; 256];
    let mut byte = 0;
    while byte < 256 {
        let mut k = 0;
        while k < 8 {
            if (byte >> k) & 1 == 1 {
                table[byte][k] = u16::MAX;
            }
            k += 1;
        }
        byte += 1;
    }
    table
}

/// Aggregated per-bit zero-time for words of a fixed width.
///
/// Residency from many entries of a structure can be merged into one
/// `BitResidency` (bias is reported per bit *position*, as in the paper's
/// figures).
#[derive(Debug, Clone)]
pub struct BitResidency {
    /// Exact zero-cycles per bit position, LSB first (spilled state).
    zero_time: Vec<u64>,
    /// Pending zero-cycles per bit position since the last spill.
    lanes: [u16; 128],
    /// Total duration charged to `lanes` since the last spill; bounds every
    /// lane and never exceeds [`LANE_CAPACITY`].
    pending: u64,
    /// Mask selecting the low `width` bits.
    mask: u128,
    total_time: u64,
}

/// Mask with the low `width` bits set (`width` in 1..=128).
fn width_mask(width: usize) -> u128 {
    if width == 128 {
        u128::MAX
    } else {
        (1u128 << width) - 1
    }
}

impl BitResidency {
    /// Creates an accumulator for `width`-bit words (at most 128).
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or exceeds 128.
    pub fn new(width: usize) -> Self {
        assert!((1..=128).contains(&width), "width must be in 1..=128");
        BitResidency {
            zero_time: vec![0; width],
            lanes: [0; 128],
            pending: 0,
            mask: width_mask(width),
            total_time: 0,
        }
    }

    /// Word width in bits.
    pub fn width(&self) -> usize {
        self.zero_time.len()
    }

    /// Records that `value` was held for `duration` cycles.
    pub fn record(&mut self, value: u128, duration: u64) {
        if duration == 0 {
            return;
        }
        self.total_time += duration;
        // An all-ones value accrues no zero-time anywhere. Balancing
        // schemes hold most protected fields at all-ones, so this is the
        // common case on the release path.
        let zeros = !value & self.mask;
        if zeros != 0 {
            self.charge(zeros, duration);
        }
    }

    /// Adds `duration` to the zero-count of every bit set in `zeros`.
    fn charge(&mut self, zeros: u128, duration: u64) {
        if duration > LANE_CAPACITY {
            return self.charge_long(zeros, duration);
        }
        if duration > LANE_CAPACITY - self.pending {
            self.spill();
        }
        self.pending += duration;
        let d = duration as u16;
        let used = self.zero_time.len().div_ceil(8);
        let bytes = zeros.to_le_bytes();
        for (lanes, &byte) in self.lanes.chunks_exact_mut(8).zip(&bytes).take(used) {
            let expand = &EXPAND[usize::from(byte)];
            for (lane, e) in lanes.iter_mut().zip(expand) {
                *lane += e & d;
            }
        }
    }

    /// Adds an event too long for the lanes straight to the `u64` lanes.
    /// Kept out of line, like [`spill`](Self::spill), so the lane path
    /// stays small.
    #[cold]
    #[inline(never)]
    fn charge_long(&mut self, zeros: u128, duration: u64) {
        for (i, zt) in self.zero_time.iter_mut().enumerate() {
            *zt += ((zeros >> i) as u64 & 1) * duration;
        }
    }

    /// Charges `duration` zero-cycles to every bit set in `zeros`, without
    /// touching `total_time`.
    ///
    /// This is the carrier half of the *grouped charge* protocol: several
    /// fields whose values changed at the same instant concatenate their
    /// zero-masks into one word and pay a single lane charge here instead
    /// of one `record` each. The owner later moves the accumulated counts
    /// into the real per-field accumulators with
    /// [`drain_zero_counts`](Self::drain_zero_counts) /
    /// [`credit_zero_cycles`](Self::credit_zero_cycles) and accounts
    /// `total_time` separately via
    /// [`credit_total_time`](Self::credit_total_time) — the resulting
    /// integers are identical to per-field `record` calls.
    pub(crate) fn record_zeros(&mut self, zeros: u128, duration: u64) {
        if duration == 0 || zeros == 0 {
            return;
        }
        debug_assert_eq!(zeros & !self.mask, 0, "zeros outside the word");
        self.charge(zeros, duration);
    }

    /// Moves every accumulated zero-count out of this accumulator, calling
    /// `f(bit, count)` for each nonzero lane and leaving the accumulator
    /// empty. Part of the grouped-charge protocol (see
    /// [`record_zeros`](Self::record_zeros)).
    pub(crate) fn drain_zero_counts(&mut self, mut f: impl FnMut(usize, u64)) {
        self.spill();
        for (i, zt) in self.zero_time.iter_mut().enumerate() {
            if *zt != 0 {
                f(i, *zt);
                *zt = 0;
            }
        }
    }

    /// Adds externally accumulated zero-cycles to one bit position (the
    /// receiving half of the grouped-charge protocol).
    pub(crate) fn credit_zero_cycles(&mut self, bit: usize, count: u64) {
        self.zero_time[bit] += count;
    }

    /// Adds observed time without charging any bit (the grouped charge
    /// accounts zero-time and total-time separately).
    pub(crate) fn credit_total_time(&mut self, duration: u64) {
        self.total_time += duration;
    }

    /// Takes the accumulated total time, leaving zero. A group-charge
    /// accumulator's span time covers every member field, so the owner
    /// credits it to each of them at drain and resets the staging count.
    pub(crate) fn take_total_time(&mut self) -> u64 {
        std::mem::take(&mut self.total_time)
    }

    /// Moves the pending lanes into the exact `zero_time` lanes. Runs at
    /// most once per [`LANE_CAPACITY`] charged cycles (or on drain).
    #[cold]
    #[inline(never)]
    fn spill(&mut self) {
        if self.pending == 0 {
            return;
        }
        for (zt, lane) in self.zero_time.iter_mut().zip(&mut self.lanes) {
            *zt += u64::from(std::mem::take(lane));
        }
        self.pending = 0;
    }

    /// Exact zero-cycles of one bit position, including its pending lane.
    ///
    /// # Panics
    ///
    /// Panics if `bit` is out of range.
    pub fn zero_cycles(&self, bit: usize) -> u64 {
        self.zero_time[bit] + u64::from(self.lanes[bit])
    }

    /// Total observed time (per bit position).
    pub fn total_time(&self) -> u64 {
        self.total_time
    }

    /// Bias towards "0" of one bit position.
    ///
    /// # Panics
    ///
    /// Panics if `bit` is out of range.
    pub fn bias(&self, bit: usize) -> Duty {
        if self.total_time == 0 {
            return Duty::ZERO;
        }
        Duty::saturating(self.zero_cycles(bit) as f64 / self.total_time as f64)
    }

    /// Biases of all bit positions, LSB first.
    pub fn biases(&self) -> Vec<Duty> {
        (0..self.width()).map(|i| self.bias(i)).collect()
    }

    /// The worst *cell* duty over all bit positions: each cell ages at
    /// `max(bias, 1 − bias)` because of the complementary PMOS pair.
    /// Allocation-free: telemetry samples this for every structure.
    pub fn worst_cell_duty(&self) -> Duty {
        (0..self.width())
            .map(|i| self.bias(i).cell_worst())
            .fold(Duty::ZERO, |w, d| if d > w { d } else { w })
    }

    /// Merges another accumulator of the same width into this one.
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    pub fn merge(&mut self, other: &BitResidency) {
        assert_eq!(self.width(), other.width(), "width mismatch");
        for (i, zt) in self.zero_time.iter_mut().enumerate() {
            *zt += other.zero_cycles(i);
        }
        self.total_time += other.total_time;
    }
}

/// Equality is over *effective* counts — two accumulators that charged the
/// same cycles compare equal regardless of how much is still pending in
/// their `u16` lanes.
impl PartialEq for BitResidency {
    fn eq(&self, other: &Self) -> bool {
        self.width() == other.width()
            && self.total_time == other.total_time
            && (0..self.width()).all(|i| self.zero_cycles(i) == other.zero_cycles(i))
    }
}

impl Eq for BitResidency {}

/// The original per-bit scalar accounting loop, kept as a reference oracle.
///
/// This is the implementation [`BitResidency`] replaced: O(width) scalar
/// operations per event, trivially auditable. The differential property
/// suite drives both implementations with identical event streams and
/// demands exact integer agreement; the `--ignored` release test
/// `swar_kernel_is_at_least_3x_faster_at_width_64` measures the speedup
/// against it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScalarResidency {
    zero_time: Vec<u64>,
    total_time: u64,
}

impl ScalarResidency {
    /// Creates an accumulator for `width`-bit words (at most 128).
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or exceeds 128.
    pub fn new(width: usize) -> Self {
        assert!((1..=128).contains(&width), "width must be in 1..=128");
        ScalarResidency {
            zero_time: vec![0; width],
            total_time: 0,
        }
    }

    /// Word width in bits.
    pub fn width(&self) -> usize {
        self.zero_time.len()
    }

    /// Records that `value` was held for `duration` cycles (per-bit loop).
    pub fn record(&mut self, value: u128, duration: u64) {
        if duration == 0 {
            return;
        }
        for (i, zt) in self.zero_time.iter_mut().enumerate() {
            if (value >> i) & 1 == 0 {
                *zt += duration;
            }
        }
        self.total_time += duration;
    }

    /// Exact zero-cycles of one bit position.
    ///
    /// # Panics
    ///
    /// Panics if `bit` is out of range.
    pub fn zero_cycles(&self, bit: usize) -> u64 {
        self.zero_time[bit]
    }

    /// Total observed time (per bit position).
    pub fn total_time(&self) -> u64 {
        self.total_time
    }

    /// Bias towards "0" of one bit position.
    ///
    /// # Panics
    ///
    /// Panics if `bit` is out of range.
    pub fn bias(&self, bit: usize) -> Duty {
        if self.total_time == 0 {
            return Duty::ZERO;
        }
        Duty::saturating(self.zero_time[bit] as f64 / self.total_time as f64)
    }

    /// Biases of all bit positions, LSB first.
    pub fn biases(&self) -> Vec<Duty> {
        (0..self.width()).map(|i| self.bias(i)).collect()
    }

    /// The worst *cell* duty over all bit positions.
    pub fn worst_cell_duty(&self) -> Duty {
        self.biases()
            .into_iter()
            .map(Duty::cell_worst)
            .fold(Duty::ZERO, |w, d| if d > w { d } else { w })
    }

    /// Merges another accumulator of the same width into this one.
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    pub fn merge(&mut self, other: &ScalarResidency) {
        assert_eq!(self.width(), other.width(), "width mismatch");
        for (a, b) in self.zero_time.iter_mut().zip(&other.zero_time) {
            *a += b;
        }
        self.total_time += other.total_time;
    }
}

/// One stored word plus the time it was last written; the unit of
/// event-driven accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TrackedWord {
    value: u128,
    since: u64,
}

impl TrackedWord {
    /// Creates a word holding `value` from time `now` on.
    pub fn new(value: u128, now: u64) -> Self {
        TrackedWord { value, since: now }
    }

    /// The currently stored value.
    pub fn value(&self) -> u128 {
        self.value
    }

    /// Time of the last write.
    pub fn since(&self) -> u64 {
        self.since
    }

    /// Writes a new value at time `now`, charging the elapsed residency of
    /// the old value into `residency`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if time runs backwards.
    pub fn write(&mut self, value: u128, now: u64, residency: &mut BitResidency) {
        debug_assert!(now >= self.since, "time ran backwards");
        residency.record(self.value, now - self.since);
        self.value = value;
        self.since = now;
    }

    /// Charges residency up to `now` without changing the value (used when
    /// taking a measurement).
    pub fn flush(&mut self, now: u64, residency: &mut BitResidency) {
        debug_assert!(now >= self.since, "time ran backwards");
        residency.record(self.value, now - self.since);
        self.since = now;
    }
}

/// Event-driven occupancy accounting for a structure with a fixed number of
/// entries.
///
/// Tracks the time-integral of the busy-entry count; the paper's
/// occupancy/free-time statistics (integer registers free 54% of the time,
/// scheduler occupancy 63%, ...) are read from this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OccupancyTracker {
    capacity: u64,
    busy: u64,
    last: u64,
    busy_time: u128,
    started: u64,
}

impl OccupancyTracker {
    /// Creates a tracker for a structure with `capacity` entries, starting
    /// at time `now` with everything free.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is 0.
    pub fn new(capacity: u64, now: u64) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        OccupancyTracker {
            capacity,
            busy: 0,
            last: now,
            busy_time: 0,
            started: now,
        }
    }

    fn advance(&mut self, now: u64) {
        debug_assert!(now >= self.last, "time ran backwards");
        self.busy_time += u128::from(self.busy) * u128::from(now - self.last);
        self.last = now;
    }

    /// Busy-entry time integral as of `now`, without mutating the tracker.
    fn busy_time_at(&self, now: u64) -> u128 {
        debug_assert!(now >= self.last, "time ran backwards");
        self.busy_time + u128::from(self.busy) * u128::from(now - self.last)
    }

    /// Notes that one entry became busy at time `now`.
    ///
    /// # Panics
    ///
    /// Panics if all entries are already busy.
    pub fn acquire(&mut self, now: u64) {
        self.advance(now);
        assert!(self.busy < self.capacity, "occupancy overflow");
        self.busy += 1;
    }

    /// Notes that one entry became free at time `now`.
    ///
    /// # Panics
    ///
    /// Panics if no entry is busy.
    pub fn release(&mut self, now: u64) {
        self.advance(now);
        assert!(self.busy > 0, "occupancy underflow");
        self.busy -= 1;
    }

    /// Notes that `n` entries became busy at time `now` in one step: one
    /// integral advance instead of `n`, identical accounting (the integral
    /// only changes when time moves).
    ///
    /// # Panics
    ///
    /// Panics if fewer than `n` entries are free.
    pub fn acquire_n(&mut self, n: u64, now: u64) {
        self.advance(now);
        assert!(self.busy + n <= self.capacity, "occupancy overflow");
        self.busy += n;
    }

    /// Notes that `n` entries became free at time `now` in one step.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `n` entries are busy.
    pub fn release_n(&mut self, n: u64, now: u64) {
        self.advance(now);
        assert!(self.busy >= n, "occupancy underflow");
        self.busy -= n;
    }

    /// Entries currently busy.
    pub fn busy_now(&self) -> u64 {
        self.busy
    }

    /// Average fraction of entries busy up to time `now`. A read, not an
    /// event: it leaves the tracker as it was, so telemetry can sample it
    /// mid-run without perturbing later accounting.
    pub fn occupancy(&self, now: u64) -> Duty {
        let span = u128::from(now - self.started) * u128::from(self.capacity);
        if span == 0 {
            return Duty::ZERO;
        }
        Duty::saturating(self.busy_time_at(now) as f64 / span as f64)
    }

    /// Average fraction of entries free up to time `now`.
    pub fn free_fraction(&self, now: u64) -> Duty {
        self.occupancy(now).complement()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accounts_zero_bits() {
        let mut r = BitResidency::new(4);
        r.record(0b0101, 10);
        assert!((r.bias(0).fraction() - 0.0).abs() < 1e-12);
        assert!((r.bias(1).fraction() - 1.0).abs() < 1e-12);
        assert_eq!(r.total_time(), 10);
    }

    #[test]
    fn bias_mixes_over_time() {
        let mut r = BitResidency::new(1);
        r.record(0, 3);
        r.record(1, 1);
        assert!((r.bias(0).fraction() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn worst_cell_duty_is_symmetric() {
        let mut r = BitResidency::new(2);
        // bit0: always 1 (bias 0) → cell duty 1. bit1: balanced.
        r.record(0b01, 1);
        r.record(0b11, 1);
        assert!((r.bias(0).fraction() - 0.0).abs() < 1e-12);
        assert!((r.worst_cell_duty().fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tracked_word_event_driven_accounting() {
        let mut r = BitResidency::new(8);
        let mut w = TrackedWord::new(0xFF, 0);
        w.write(0x00, 40, &mut r); // held 0xFF for 40 cycles
        w.write(0x0F, 60, &mut r); // held 0x00 for 20 cycles
        w.flush(100, &mut r); // held 0x0F for 40 cycles
        assert_eq!(r.total_time(), 100);
        // bit 0: one for 40 + 40, zero for 20 → bias 0.2.
        assert!((r.bias(0).fraction() - 0.2).abs() < 1e-12);
        // bit 7: one for 40, zero for 60 → bias 0.6.
        assert!((r.bias(7).fraction() - 0.6).abs() < 1e-12);
        assert_eq!(w.value(), 0x0F);
        assert_eq!(w.since(), 100);
    }

    #[test]
    fn merge_adds_observations() {
        let mut a = BitResidency::new(2);
        a.record(0b00, 10);
        let mut b = BitResidency::new(2);
        b.record(0b11, 10);
        a.merge(&b);
        assert!((a.bias(0).fraction() - 0.5).abs() < 1e-12);
        assert_eq!(a.total_time(), 20);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn merge_rejects_width_mismatch() {
        let mut a = BitResidency::new(2);
        let b = BitResidency::new(3);
        a.merge(&b);
    }

    #[test]
    fn zero_duration_is_a_noop() {
        let mut r = BitResidency::new(1);
        r.record(0, 0);
        assert_eq!(r.total_time(), 0);
        assert_eq!(r.bias(0), Duty::ZERO);
    }

    #[test]
    #[should_panic(expected = "width")]
    fn rejects_zero_width() {
        let _ = BitResidency::new(0);
    }

    #[test]
    fn biases_returns_all_positions() {
        let mut r = BitResidency::new(3);
        r.record(0b010, 1);
        let biases = r.biases();
        assert_eq!(biases.len(), 3);
        assert!((biases[1].fraction() - 0.0).abs() < 1e-12);
    }

    #[test]
    fn swar_matches_scalar_on_a_mixed_stream() {
        let mut swar = BitResidency::new(128);
        let mut scalar = ScalarResidency::new(128);
        let mut value = 0x0123_4567_89AB_CDEF_u128;
        for step in 0..200u64 {
            value = value.rotate_left(7) ^ u128::from(step).wrapping_mul(0x9E37_79B9);
            let duration = (step * step + 1) % 1009;
            swar.record(value, duration);
            scalar.record(value, duration);
        }
        assert_eq!(swar.total_time(), scalar.total_time());
        for bit in 0..128 {
            assert_eq!(swar.zero_cycles(bit), scalar.zero_cycles(bit), "bit {bit}");
        }
    }

    #[test]
    fn equality_ignores_plane_representation() {
        // Same effective counts via one large event vs many small ones
        // that force spills: the pending lane state differs, the
        // accumulators must not.
        let mut one = BitResidency::new(8);
        one.record(0xA5, 1000);
        let mut many = BitResidency::new(8);
        for _ in 0..1000 {
            many.record(0xA5, 1);
        }
        assert_eq!(one, many);
        let mut spilled = BitResidency::new(8);
        for _ in 0..3 {
            spilled.record(0xA5, LANE_CAPACITY);
        }
        one.record(0xA5, 3 * LANE_CAPACITY - 1000);
        assert_eq!(one, spilled);
    }

    #[test]
    fn plane_capacity_boundary_flushes_exactly() {
        // Crossing the lane capacity forces a spill; counts must remain
        // exact on both sides.
        let mut r = BitResidency::new(2);
        r.record(0b10, LANE_CAPACITY - 1);
        r.record(0b01, 3); // spills, then re-accumulates
        assert_eq!(r.zero_cycles(0), LANE_CAPACITY - 1);
        assert_eq!(r.zero_cycles(1), 3);
        assert_eq!(r.total_time(), LANE_CAPACITY + 2);
    }

    #[test]
    fn oversized_single_event_takes_the_lane_path() {
        let mut r = BitResidency::new(2);
        let huge = LANE_CAPACITY + 17;
        r.record(0b01, huge);
        assert_eq!(r.zero_cycles(0), 0);
        assert_eq!(r.zero_cycles(1), huge);
        assert_eq!(r.total_time(), huge);
        // And the lanes still work afterwards.
        r.record(0b10, 5);
        assert_eq!(r.zero_cycles(0), 5);
        assert_eq!(r.zero_cycles(1), huge);
    }

    #[test]
    fn merge_absorbs_pending_planes_from_both_sides() {
        let mut a = BitResidency::new(4);
        a.record(0b0011, 7);
        let mut b = BitResidency::new(4);
        b.record(0b1100, 9);
        a.merge(&b);
        let mut oracle = ScalarResidency::new(4);
        oracle.record(0b0011, 7);
        oracle.record(0b1100, 9);
        for bit in 0..4 {
            assert_eq!(a.zero_cycles(bit), oracle.zero_cycles(bit));
        }
    }

    #[test]
    fn occupancy_integrates_busy_time() {
        let mut occ = OccupancyTracker::new(4, 0);
        occ.acquire(0); // 1 busy over [0, 10)
        occ.acquire(10); // 2 busy over [10, 20)
        occ.release(20); // 1 busy over [20, 40)
                         // busy integral = 10 + 20 + 20 = 50 entry-cycles of 160 possible.
        assert!((occ.occupancy(40).fraction() - 50.0 / 160.0).abs() < 1e-12);
        assert!((occ.free_fraction(40).fraction() - 110.0 / 160.0).abs() < 1e-12);
        assert_eq!(occ.busy_now(), 1);
    }

    #[test]
    fn occupancy_peek_matches_the_advancing_read() {
        let mut occ = OccupancyTracker::new(4, 0);
        occ.acquire(0);
        occ.acquire(10);
        occ.release(20);
        let snapshot = occ;
        let peeked = occ.occupancy(40);
        assert_eq!(occ, snapshot, "occupancy must not mutate");
        assert_eq!(occ.free_fraction(40), peeked.complement());
        // Peeking between events does not disturb later accounting.
        let mut a = OccupancyTracker::new(2, 0);
        let mut b = OccupancyTracker::new(2, 0);
        a.acquire(0);
        b.acquire(0);
        let _ = a.occupancy(5);
        a.release(10);
        b.release(10);
        assert_eq!(a.occupancy(20), b.occupancy(20));
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn occupancy_release_underflow_panics() {
        let mut occ = OccupancyTracker::new(1, 0);
        occ.release(1);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn occupancy_acquire_overflow_panics() {
        let mut occ = OccupancyTracker::new(1, 0);
        occ.acquire(0);
        occ.acquire(1);
    }
}
