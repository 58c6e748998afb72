//! Per-PMOS duty-cycle accumulation over input streams, 64 vectors at a
//! time.
//!
//! A [`PackedCampaign`] stores a stimulus campaign as blocks of up to 64
//! vectors, one per bit lane: one word per primary input, plus the lane
//! durations split into bit planes (bit `l` of plane `k` is bit `k` of
//! lane `l`'s duration). One [`Netlist::evaluate_words`] pass gives every
//! net's value in all lanes, and a transistor driven by net `n` is
//! charged `Σ_k popcount(!n & plane_k) << k` cycles of stress — the sum of
//! the durations of the lanes where its gate terminal sat at "0". That is
//! exact integer arithmetic, so every counter, and hence every duty, is
//! identical to one [`DutyAccumulator`](nbti_model::duty::DutyAccumulator)
//! update per transistor per vector.
//!
//! [`StressTracker`] (whole netlist) and
//! [`accumulate_packed`](crate::passes::accumulate_packed) (one
//! partition) both charge through this module's one kernel.

use nbti_model::duty::Duty;
use nbti_model::guardband::{Guardband, GuardbandModel};

use crate::error::Error;
use crate::gate::NetId;
use crate::netlist::Netlist;
use crate::pmos::{PmosTable, WidthClass};

/// Stimulus vectors per packed block (one bit lane each).
pub const LANES: usize = 64;

/// A stimulus campaign packed 64 vectors to a block.
///
/// # Example
///
/// ```
/// use gatesim::stress::PackedCampaign;
///
/// let campaign = PackedCampaign::pack(2, &[(vec![true, false], 3), (vec![false, false], 1)])
///     .expect("arity matches");
/// assert_eq!(campaign.len(), 2);
/// assert_eq!(campaign.total_time(), 4);
/// let block = &campaign.blocks()[0];
/// assert_eq!(block.words(), &[0b01, 0b00]);
/// // Durations 3 and 1: plane 0 = lanes {0, 1}, plane 1 = lane {0}.
/// assert_eq!(block.planes(), &[0b11, 0b01]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedCampaign {
    inputs: usize,
    vectors: usize,
    total_time: u64,
    blocks: Vec<PackedBlock>,
}

/// Up to [`LANES`] vectors of a [`PackedCampaign`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedBlock {
    words: Vec<u64>,
    planes: Vec<u64>,
}

impl PackedBlock {
    /// One word per primary input; bit `l` is the input's value in lane
    /// `l`.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Duration bit planes, least significant first: bit `l` of plane `k`
    /// is bit `k` of lane `l`'s duration. There are as many planes as the
    /// block's longest duration has bits, and unused lanes are 0 in every
    /// plane, so they charge nothing.
    pub fn planes(&self) -> &[u64] {
        &self.planes
    }
}

impl PackedCampaign {
    /// An empty campaign for a netlist with `inputs` primary inputs.
    pub fn new(inputs: usize) -> Self {
        PackedCampaign {
            inputs,
            vectors: 0,
            total_time: 0,
            blocks: Vec::new(),
        }
    }

    /// Packs `(assignment, duration)` pairs, rejecting an assignment whose
    /// arity is not `inputs`.
    pub fn pack(inputs: usize, vectors: &[(Vec<bool>, u64)]) -> Result<Self, Error> {
        let mut campaign = PackedCampaign::new(inputs);
        for (assignment, duration) in vectors {
            campaign.push(assignment, *duration)?;
        }
        Ok(campaign)
    }

    /// Appends one vector held for `duration` cycles.
    pub fn push(&mut self, assignment: &[bool], duration: u64) -> Result<(), Error> {
        if assignment.len() != self.inputs {
            return Err(Error::InputArity {
                expected: self.inputs,
                got: assignment.len(),
            });
        }
        self.push_with(duration, |i| assignment[i]);
        Ok(())
    }

    /// Appends one vector held for `duration` cycles whose primary input
    /// `i` is `bit(i)`, without materializing the assignment.
    pub fn push_with(&mut self, duration: u64, mut bit: impl FnMut(usize) -> bool) {
        let lane = self.vectors % LANES;
        if lane == 0 {
            self.blocks.push(PackedBlock {
                words: vec![0; self.inputs],
                planes: Vec::new(),
            });
        }
        let last = self.blocks.len() - 1;
        let block = &mut self.blocks[last];
        for (i, word) in block.words.iter_mut().enumerate() {
            *word |= u64::from(bit(i)) << lane;
        }
        let bits = (u64::BITS - duration.leading_zeros()) as usize;
        if block.planes.len() < bits {
            block.planes.resize(bits, 0);
        }
        for (k, plane) in block.planes.iter_mut().enumerate() {
            *plane |= ((duration >> k) & 1) << lane;
        }
        self.vectors += 1;
        self.total_time += duration;
    }

    /// Primary inputs per vector.
    pub fn inputs(&self) -> usize {
        self.inputs
    }

    /// Number of vectors.
    pub fn len(&self) -> usize {
        self.vectors
    }

    /// Whether the campaign holds no vector.
    pub fn is_empty(&self) -> bool {
        self.vectors == 0
    }

    /// Sum of every vector's duration.
    pub fn total_time(&self) -> u64 {
        self.total_time
    }

    /// The blocks, in vector order; all but the last hold exactly
    /// [`LANES`] vectors.
    pub fn blocks(&self) -> &[PackedBlock] {
        &self.blocks
    }
}

/// Adds to `zero_time[t]` the cycles transistor `t`, whose gate is driven
/// by the `t`-th net of `nets`, spends at "0" over `campaign`: one
/// word-parallel evaluation per block, then a popcount per duration plane
/// per distinct driving net. The one charge kernel of the crate.
pub(crate) fn charge(
    netlist: &Netlist,
    campaign: &PackedCampaign,
    nets: impl IntoIterator<Item = NetId>,
    zero_time: &mut [u64],
) -> Result<(), Error> {
    if campaign.inputs() != netlist.inputs().len() {
        return Err(Error::InputArity {
            expected: netlist.inputs().len(),
            got: campaign.inputs(),
        });
    }
    // Transistors sharing a driving net share its charge: count each
    // distinct net once per block.
    let mut slot_of = vec![u32::MAX; netlist.net_count()];
    let mut distinct: Vec<usize> = Vec::new();
    let slots: Vec<u32> = nets
        .into_iter()
        .map(|net| {
            let slot = &mut slot_of[net.index()];
            if *slot == u32::MAX {
                *slot = distinct.len() as u32;
                distinct.push(net.index());
            }
            *slot
        })
        .collect();
    debug_assert_eq!(slots.len(), zero_time.len(), "one net per counter");
    let mut net_zero = vec![0u64; distinct.len()];
    let mut values = Vec::new();
    for block in campaign.blocks() {
        netlist.evaluate_words(&block.words, &mut values);
        for (zero, &net) in net_zero.iter_mut().zip(&distinct) {
            let low = !values[net];
            *zero += block
                .planes
                .iter()
                .enumerate()
                .map(|(k, &plane)| u64::from((low & plane).count_ones()) << k)
                .sum::<u64>();
        }
    }
    for (zero, &slot) in zero_time.iter_mut().zip(&slots) {
        *zero += net_zero[slot as usize];
    }
    Ok(())
}

/// Fraction of `total_time` spent at "0": the one duty arithmetic shared
/// by [`StressTracker`] and merged partition counters.
pub(crate) fn duty(zero_time: u64, total_time: u64) -> Duty {
    if total_time == 0 {
        return Duty::ZERO;
    }
    Duty::saturating(zero_time as f64 / total_time as f64)
}

/// Accumulates NBTI stress per PMOS across an input stream.
///
/// # Example
///
/// ```
/// use gatesim::netlist::NetlistBuilder;
/// use gatesim::stress::StressTracker;
///
/// let mut b = NetlistBuilder::new();
/// let a = b.input();
/// let x = b.inv(a);
/// b.mark_output(x);
/// let n = b.finish();
///
/// let mut t = StressTracker::new(&n);
/// t.apply(&n, &[false], 3); // input low: the inverter PMOS is stressed
/// t.apply(&n, &[true], 1);
/// assert!((t.duty_of(0).fraction() - 0.75).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct StressTracker {
    table: PmosTable,
    /// Cycles at "0" per transistor, flat table order.
    zero_time: Vec<u64>,
    /// Cycles observed (the same for every transistor).
    total_time: u64,
}

impl StressTracker {
    /// Creates a tracker for `netlist` with the default wide-fanout
    /// threshold.
    pub fn new(netlist: &Netlist) -> Self {
        StressTracker::with_table(PmosTable::with_default_threshold(netlist))
    }

    /// Creates a tracker over a custom transistor table.
    pub fn with_table(table: PmosTable) -> Self {
        StressTracker {
            zero_time: vec![0; table.len()],
            table,
            total_time: 0,
        }
    }

    /// The transistor table the tracker accounts for.
    pub fn table(&self) -> &PmosTable {
        &self.table
    }

    /// Applies one primary-input assignment for `duration` cycles,
    /// charging stress to every PMOS whose driving net is at "0".
    ///
    /// # Panics
    ///
    /// Panics if `assignment` length mismatches the netlist inputs, or if
    /// the tracker was built for a different netlist.
    pub fn apply(&mut self, netlist: &Netlist, assignment: &[bool], duration: u64) {
        if let Err(e) = self.try_apply(netlist, assignment, duration) {
            panic!("{e}");
        }
    }

    /// Fallible twin of [`apply`](Self::apply): a wrong-arity assignment
    /// surfaces as a typed [`Error`] instead of a panic, so externally
    /// supplied stimulus cannot silently misapply.
    pub fn try_apply(
        &mut self,
        netlist: &Netlist,
        assignment: &[bool],
        duration: u64,
    ) -> Result<(), Error> {
        let mut campaign = PackedCampaign::new(assignment.len());
        campaign.push_with(duration, |i| assignment[i]);
        self.apply_packed(netlist, &campaign)
    }

    /// Applies a whole packed campaign, 64 vectors per netlist
    /// evaluation.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InputArity`] when the campaign's vectors do not
    /// match the netlist's primary inputs.
    pub fn apply_packed(
        &mut self,
        netlist: &Netlist,
        campaign: &PackedCampaign,
    ) -> Result<(), Error> {
        let nets = self.table.transistors().iter().map(|p| p.driven_by);
        charge(netlist, campaign, nets, &mut self.zero_time)?;
        self.total_time += campaign.total_time();
        Ok(())
    }

    /// Cycles each PMOS spent at "0", flat table order.
    pub fn zero_times(&self) -> &[u64] {
        &self.zero_time
    }

    /// Duty cycle of the PMOS with the given flat index.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn duty_of(&self, index: usize) -> Duty {
        assert!(index < self.table.len(), "transistor index out of range");
        duty(self.zero_time[index], self.total_time)
    }

    /// Iterator over `(transistor, duty)` pairs.
    pub fn duties(&self) -> impl Iterator<Item = (&crate::pmos::Pmos, Duty)> + '_ {
        self.table
            .transistors()
            .iter()
            .enumerate()
            .map(|(i, p)| (p, self.duty_of(i)))
    }

    /// Worst (largest) duty among all transistors, or [`Duty::ZERO`] if the
    /// netlist has none.
    pub fn worst_duty(&self) -> Duty {
        (0..self.table.len())
            .map(|i| self.duty_of(i))
            .fold(Duty::ZERO, |w, d| if d > w { d } else { w })
    }

    /// Worst duty among *narrow* transistors only — wide PMOS "do not suffer
    /// from NBTI significantly" (§4.3), so the guardband of a block is set
    /// by its narrow devices.
    pub fn worst_narrow_duty(&self, _netlist: &Netlist) -> Duty {
        self.duties()
            .filter(|(p, _)| p.width == WidthClass::Narrow)
            .map(|(_, d)| d)
            .fold(Duty::ZERO, |w, d| if d > w { d } else { w })
    }

    /// Fraction of narrow transistors whose duty reaches `threshold`
    /// (e.g. `1.0` for the "100% zero-signal probability" metric of
    /// Figure 4), relative to the **total** transistor count as in the
    /// figure's caption.
    pub fn narrow_fraction_at_or_above(&self, threshold: f64) -> f64 {
        if self.table.is_empty() {
            return 0.0;
        }
        let hits = self
            .duties()
            .filter(|(p, d)| p.width == WidthClass::Narrow && d.fraction() >= threshold - 1e-12)
            .count();
        hits as f64 / self.table.len() as f64
    }

    /// Guardband this block requires under `model`, judged on narrow
    /// transistors.
    pub fn guardband(&self, netlist: &Netlist, model: &GuardbandModel) -> Guardband {
        model.guardband(self.worst_narrow_duty(netlist))
    }

    /// Resets all accumulated stress (a fresh part).
    pub fn reset(&mut self) {
        self.zero_time.fill(0);
        self.total_time = 0;
    }

    /// Total observed time in cycles (same for every transistor).
    pub fn observed_time(&self) -> u64 {
        self.total_time
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::NetlistBuilder;

    fn inv_pair() -> Netlist {
        let mut b = NetlistBuilder::new();
        let a = b.input();
        let x = b.inv(a);
        let y = b.inv(x);
        b.mark_output(y);
        b.finish()
    }

    #[test]
    fn stress_follows_net_values() {
        let n = inv_pair();
        let mut t = StressTracker::new(&n);
        // a=0: first PMOS stressed (gate sees 0), second sees x=1 → relaxed.
        t.apply(&n, &[false], 10);
        assert!((t.duty_of(0).fraction() - 1.0).abs() < 1e-12);
        assert!((t.duty_of(1).fraction() - 0.0).abs() < 1e-12);
        // a=1: roles swap.
        t.apply(&n, &[true], 10);
        assert!((t.duty_of(0).fraction() - 0.5).abs() < 1e-12);
        assert!((t.duty_of(1).fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn worst_duty_tracks_maximum() {
        let n = inv_pair();
        let mut t = StressTracker::new(&n);
        t.apply(&n, &[false], 3);
        t.apply(&n, &[true], 1);
        // First PMOS: 0.75; second: 0.25.
        assert!((t.worst_duty().fraction() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn narrow_fraction_counts_against_total() {
        // Hub inverter (wide) driving 3 loads + the loads (narrow).
        let mut b = NetlistBuilder::new();
        let a = b.input();
        let hub = b.inv(a);
        for _ in 0..3 {
            let x = b.inv(hub);
            b.mark_output(x);
        }
        let n = b.finish();
        let mut t = StressTracker::new(&n);
        // a=1 forever → hub=0 forever → narrow loads 100% stressed,
        // hub PMOS (wide) relaxed.
        t.apply(&n, &[true], 5);
        assert_eq!(t.table().wide_count(), 1);
        // 3 narrow at 100% out of 4 transistors total.
        assert!((t.narrow_fraction_at_or_above(1.0) - 0.75).abs() < 1e-12);
        assert!((t.worst_narrow_duty(&n).fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn block_sliced_duties_match_a_per_transistor_oracle() {
        use nbti_model::duty::DutyAccumulator;
        // An inverter tree with well over 128 PMOS → multiple blocks,
        // including a narrow trailing one.
        let mut b = NetlistBuilder::new();
        let a0 = b.input();
        let a1 = b.input();
        let mut nets = vec![a0, a1];
        for i in 0..300 {
            let x = b.inv(nets[(i * 7) % nets.len()]);
            nets.push(x);
        }
        let last = *nets.last().unwrap();
        b.mark_output(last);
        let n = b.finish();
        let table = PmosTable::with_default_threshold(&n);
        assert!(table.len() > 128, "need more than one block");

        let mut t = StressTracker::new(&n);
        let mut oracle = vec![DutyAccumulator::new(); table.len()];
        for step in 0..17u64 {
            let assignment = [step % 2 == 0, step % 3 == 0];
            let duration = step * 5 + 1;
            t.apply(&n, &assignment, duration);
            let values = n.evaluate(&assignment);
            for (pmos, acc) in table.transistors().iter().zip(&mut oracle) {
                acc.record(values.get(pmos.driven_by), duration);
            }
        }
        for (i, acc) in oracle.iter().enumerate() {
            assert_eq!(t.duty_of(i), acc.duty(), "transistor {i}");
        }
        assert_eq!(t.observed_time(), oracle[0].total_time());
    }

    #[test]
    fn reset_clears_history() {
        let n = inv_pair();
        let mut t = StressTracker::new(&n);
        t.apply(&n, &[false], 10);
        t.reset();
        assert_eq!(t.observed_time(), 0);
        assert_eq!(t.worst_duty(), Duty::ZERO);
    }

    #[test]
    fn guardband_uses_narrow_worst() {
        let n = inv_pair();
        let mut t = StressTracker::new(&n);
        t.apply(&n, &[false], 1);
        t.apply(&n, &[true], 1);
        let model = GuardbandModel::paper_calibrated();
        // Both PMOS at 50% → minimum guardband.
        assert_eq!(t.guardband(&n, &model), model.best_case());
    }
}
