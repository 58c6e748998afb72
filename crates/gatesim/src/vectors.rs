//! The synthetic idle-input vectors of §4.3 and round-robin campaigns.
//!
//! The paper drives the adder during idle periods with one of eight
//! synthetic vectors: `<InputA, InputB, CarryIn>` with each component all-0
//! or all-1, numbered 1 (`<0,0,0>`) through 8 (`<1,1,1>`) in ascending
//! binary order. Alternating a *pair* of vectors round-robin makes every
//! transistor's zero-signal probability land on 0%, 50% or 100%; Figure 4
//! searches all 28 pairs for the one leaving the fewest narrow transistors
//! at 100%.

use nbti_model::duty::Duty;
use nbti_model::guardband::{Guardband, GuardbandModel};

use crate::adder::AdderNetlist;
use crate::stress::{PackedCampaign, StressTracker};

/// One of the eight synthetic idle vectors `<InputA, InputB, CarryIn>`.
///
/// Numbered as in the paper: vector *k* encodes `k − 1` in binary with
/// `InputA` the MSB and `CarryIn` the LSB.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SyntheticVector {
    /// `<0,0,0>`
    V1,
    /// `<0,0,1>`
    V2,
    /// `<0,1,0>`
    V3,
    /// `<0,1,1>`
    V4,
    /// `<1,0,0>`
    V5,
    /// `<1,0,1>`
    V6,
    /// `<1,1,0>`
    V7,
    /// `<1,1,1>`
    V8,
}

impl SyntheticVector {
    /// All eight vectors, in paper order.
    pub const ALL: [SyntheticVector; 8] = [
        SyntheticVector::V1,
        SyntheticVector::V2,
        SyntheticVector::V3,
        SyntheticVector::V4,
        SyntheticVector::V5,
        SyntheticVector::V6,
        SyntheticVector::V7,
        SyntheticVector::V8,
    ];

    /// 1-based paper number of the vector.
    pub fn number(self) -> usize {
        self as usize + 1
    }

    /// Builds the vector with the given paper number (1..=8).
    ///
    /// # Panics
    ///
    /// Panics if `number` is outside `1..=8`.
    pub fn from_number(number: usize) -> Self {
        assert!((1..=8).contains(&number), "vector number must be 1..=8");
        Self::ALL[number - 1]
    }

    /// All bits of `InputA` (true = all-1).
    pub fn a(self) -> bool {
        (self as usize) & 0b100 != 0
    }

    /// All bits of `InputB`.
    pub fn b(self) -> bool {
        (self as usize) & 0b010 != 0
    }

    /// The carry-in bit.
    pub fn cin(self) -> bool {
        (self as usize) & 0b001 != 0
    }

    /// Operand values for an adder of the given width.
    pub fn operands(self, width: usize) -> (u64, u64, bool) {
        let all = if width == 64 {
            u64::MAX
        } else {
            (1u64 << width) - 1
        };
        (
            if self.a() { all } else { 0 },
            if self.b() { all } else { 0 },
            self.cin(),
        )
    }
}

impl std::fmt::Display for SyntheticVector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "<{},{},{}>",
            u8::from(self.a()),
            u8::from(self.b()),
            u8::from(self.cin())
        )
    }
}

/// A pair of synthetic vectors alternated round-robin during idle periods.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VectorPair {
    /// First vector of the pair (lower paper number).
    pub first: SyntheticVector,
    /// Second vector of the pair.
    pub second: SyntheticVector,
}

impl VectorPair {
    /// All 28 unordered pairs, in the order of Figure 4's X axis
    /// (1+2, 1+3, ..., 7+8).
    pub fn all_pairs() -> Vec<VectorPair> {
        let mut pairs = Vec::with_capacity(28);
        for i in 0..8 {
            for j in (i + 1)..8 {
                pairs.push(VectorPair {
                    first: SyntheticVector::ALL[i],
                    second: SyntheticVector::ALL[j],
                });
            }
        }
        pairs
    }

    /// The pair the paper finds best: vectors 1 and 8 (`<0,0,0>` and
    /// `<1,1,1>`).
    pub fn best_of_paper() -> VectorPair {
        VectorPair {
            first: SyntheticVector::V1,
            second: SyntheticVector::V8,
        }
    }

    /// Figure 4 label, e.g. `"1+8"`.
    pub fn label(&self) -> String {
        format!("{}+{}", self.first.number(), self.second.number())
    }

    /// Fraction of the three input fields (`InputA`, `InputB`, `CarryIn`)
    /// that hold the *same* value in both vectors — those input-latch bit
    /// cells stay 100% biased while the pair rotates.
    ///
    /// §3.3 of the paper: the inputs chosen to heal a block should also keep
    /// the latches feeding it balanced. `1+8` is the unique pair with zero
    /// latch imbalance, which is why the paper settles on it.
    pub fn latch_imbalance(&self) -> f64 {
        let same = [
            self.first.a() == self.second.a(),
            self.first.b() == self.second.b(),
            self.first.cin() == self.second.cin(),
        ]
        .into_iter()
        .filter(|&s| s)
        .count();
        same as f64 / 3.0
    }
}

impl std::fmt::Display for VectorPair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

/// Result of evaluating one vector pair on an adder (one bar of Figure 4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairStress {
    /// The evaluated pair.
    pub pair: VectorPair,
    /// Fraction of narrow transistors at 100% zero-signal probability,
    /// relative to the total transistor count (Figure 4's Y axis).
    pub narrow_fully_stressed: f64,
    /// Worst duty among narrow transistors.
    pub worst_narrow_duty: Duty,
}

/// A fresh tracker charged with `vectors` held one cycle each, all in one
/// packed evaluation.
#[allow(clippy::expect_used)] // adder assignments always fit the adder
fn rotate(adder: &AdderNetlist, vectors: &[SyntheticVector]) -> StressTracker {
    let mut campaign = PackedCampaign::new(adder.netlist().inputs().len());
    for v in vectors {
        let (a, b, cin) = v.operands(adder.width());
        campaign
            .push(&adder.input_assignment(a, b, cin), 1)
            .expect("an adder assignment matches the adder's inputs");
    }
    let mut tracker = StressTracker::new(adder.netlist());
    tracker
        .apply_packed(adder.netlist(), &campaign)
        .expect("the campaign was packed for this adder");
    tracker
}

/// Applies `pair` round-robin (50/50) to a fresh tracker and reports the
/// Figure 4 statistics.
pub fn evaluate_pair(adder: &AdderNetlist, pair: VectorPair) -> PairStress {
    let tracker = rotate(adder, &[pair.first, pair.second]);
    PairStress {
        pair,
        narrow_fully_stressed: tracker.narrow_fraction_at_or_above(1.0),
        worst_narrow_duty: tracker.worst_narrow_duty(adder.netlist()),
    }
}

/// Evaluates all 28 pairs (the whole of Figure 4).
pub fn evaluate_all_pairs(adder: &AdderNetlist) -> Vec<PairStress> {
    VectorPair::all_pairs()
        .into_iter()
        .map(|p| evaluate_pair(adder, p))
        .collect()
}

/// Selects the best idle pair: minimal fraction of fully stressed narrow
/// transistors, with latch imbalance (§3.3) as the tie-break.
///
/// On the Ladner-Fischer netlist of this crate the winner is the paper's
/// `1+8` (`<0,0,0>` alternated with `<1,1,1>`).
#[allow(clippy::expect_used)] // all_pairs() is nonempty, stress is finite
pub fn best_pair(adder: &AdderNetlist) -> PairStress {
    evaluate_all_pairs(adder)
        .into_iter()
        .min_by(|a, b| {
            (a.narrow_fully_stressed, a.pair.latch_imbalance())
                .partial_cmp(&(b.narrow_fully_stressed, b.pair.latch_imbalance()))
                .expect("stress fractions are finite")
        })
        .expect("there is always at least one pair")
}

/// Result of evaluating a rotating *set* of idle vectors (the paper's
/// future-work generalization of the pair search).
#[derive(Debug, Clone, PartialEq)]
pub struct SetStress {
    /// The selected vectors, in rotation order.
    pub vectors: Vec<SyntheticVector>,
    /// Worst duty among narrow transistors under even rotation.
    pub worst_narrow_duty: Duty,
    /// Fraction of narrow transistors at 100% zero-signal probability.
    pub narrow_fully_stressed: f64,
}

fn evaluate_set(adder: &AdderNetlist, vectors: &[SyntheticVector]) -> SetStress {
    let tracker = rotate(adder, vectors);
    SetStress {
        vectors: vectors.to_vec(),
        worst_narrow_duty: tracker.worst_narrow_duty(adder.netlist()),
        narrow_fully_stressed: tracker.narrow_fraction_at_or_above(1.0),
    }
}

/// Greedy search for a rotating set of `n` idle vectors (§3.1 mentions
/// round-robin over "a small set of inputs"; the paper evaluates pairs and
/// leaves larger sets as future work).
///
/// Starts from the single best vector and greedily adds the vector that
/// most reduces `(fully-stressed narrow fraction, worst narrow duty)`.
/// With `n = 2` this normally reduces to [`best_pair`]'s winner; larger
/// sets can spread stress further at the cost of longer rotation periods.
///
/// # Panics
///
/// Panics if `n` is 0 or greater than 8.
#[allow(clippy::expect_used)] // the candidate menu always exceeds n
pub fn best_vector_set(adder: &AdderNetlist, n: usize) -> SetStress {
    assert!((1..=8).contains(&n), "set size must be in 1..=8");
    let mut chosen: Vec<SyntheticVector> = Vec::with_capacity(n);
    let mut best = None;
    while chosen.len() < n {
        let mut round_best: Option<SetStress> = None;
        for candidate in SyntheticVector::ALL {
            if chosen.contains(&candidate) {
                continue;
            }
            let mut trial = chosen.clone();
            trial.push(candidate);
            let stress = evaluate_set(adder, &trial);
            let better = match &round_best {
                None => true,
                Some(current) => {
                    (stress.narrow_fully_stressed, stress.worst_narrow_duty)
                        < (current.narrow_fully_stressed, current.worst_narrow_duty)
                }
            };
            if better {
                round_best = Some(stress);
            }
        }
        let round_best = round_best.expect("candidates remain");
        chosen = round_best.vectors.clone();
        best = Some(round_best);
    }
    best.expect("n >= 1")
}

/// A mixed-usage aging campaign: real operands during busy time, a vector
/// pair alternated during idle time (the Figure 5 scenarios).
///
/// # Example
///
/// ```
/// use gatesim::adder::LadnerFischerAdder;
/// use gatesim::vectors::{MixedCampaign, VectorPair};
/// use nbti_model::guardband::GuardbandModel;
///
/// let adder = LadnerFischerAdder::new(16);
/// let campaign = MixedCampaign::new(0.21, VectorPair::best_of_paper());
/// let reals = (0..200u64).map(|i| (i.wrapping_mul(2654435761) & 0xFFFF, i & 0xFFFF, false));
/// let gb = campaign.guardband(&adder, reals, &GuardbandModel::paper_calibrated());
/// assert!(gb.fraction() <= 0.20);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MixedCampaign {
    utilization: f64,
    pair: VectorPair,
}

impl MixedCampaign {
    /// Creates a campaign where the adder is busy with real operands
    /// `utilization` of the time and otherwise alternates `pair`.
    ///
    /// # Panics
    ///
    /// Panics if `utilization` is outside `[0, 1]`.
    pub fn new(utilization: f64, pair: VectorPair) -> Self {
        assert!(
            (0.0..=1.0).contains(&utilization),
            "utilization must be within [0, 1]"
        );
        MixedCampaign { utilization, pair }
    }

    /// Fraction of time spent on real operands.
    pub fn utilization(&self) -> f64 {
        self.utilization
    }

    /// Runs the campaign and returns the stress tracker.
    ///
    /// Durations are scaled so that the real stream collectively weighs
    /// `utilization` and the two synthetic vectors split the idle time
    /// evenly — the long-run effect of per-idle-period round-robin (§3.1).
    ///
    /// # Panics
    ///
    /// Panics if a real operand does not fit the adder width; use
    /// [`try_run`](Self::try_run) for externally supplied streams.
    pub fn run<I>(&self, adder: &AdderNetlist, real_inputs: I) -> StressTracker
    where
        I: IntoIterator<Item = (u64, u64, bool)>,
    {
        match self.try_run(adder, real_inputs) {
            Ok(tracker) => tracker,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible twin of [`run`](Self::run): every real operand triple is
    /// validated against the adder's declared width before any stimulus
    /// is applied, so an out-of-range sample surfaces as a typed
    /// [`Error`](crate::error::Error) instead of silently misapplying
    /// (or panicking on) the vector.
    pub fn try_run<I>(
        &self,
        adder: &AdderNetlist,
        real_inputs: I,
    ) -> Result<StressTracker, crate::error::Error>
    where
        I: IntoIterator<Item = (u64, u64, bool)>,
    {
        let reals: Vec<Vec<bool>> = real_inputs
            .into_iter()
            .map(|(a, b, cin)| adder.try_input_assignment(a, b, cin))
            .collect::<Result<_, _>>()?;
        let mut campaign = PackedCampaign::new(adder.netlist().inputs().len());
        // Integer time units: give each real sample `busy_units` cycles and
        // each synthetic vector half of the idle budget.
        const SCALE: u64 = 10_000;
        let busy_total = (self.utilization * SCALE as f64).round() as u64;
        let idle_total = SCALE - busy_total;
        let idle_each = if !reals.is_empty() && busy_total > 0 {
            let per = busy_total.max(reals.len() as u64);
            // Weight each real sample equally; use per-sample duration that
            // preserves the busy:idle ratio by scaling idle accordingly.
            let busy_each = per / reals.len() as u64;
            let busy_spent = busy_each * reals.len() as u64;
            for assignment in &reals {
                campaign.push(assignment, busy_each)?;
            }
            ((idle_total as f64) * (busy_spent as f64) / (busy_total.max(1) as f64) / 2.0).round()
                as u64
        } else {
            1
        };
        for v in [self.pair.first, self.pair.second] {
            let (a, b, cin) = v.operands(adder.width());
            campaign.push(&adder.try_input_assignment(a, b, cin)?, idle_each)?;
        }
        let mut tracker = StressTracker::new(adder.netlist());
        tracker.apply_packed(adder.netlist(), &campaign)?;
        Ok(tracker)
    }

    /// Convenience: run the campaign and map the worst narrow duty to a
    /// guardband.
    ///
    /// # Panics
    ///
    /// Panics if a real operand does not fit the adder width; use
    /// [`try_guardband`](Self::try_guardband) for externally supplied
    /// streams.
    pub fn guardband<I>(
        &self,
        adder: &AdderNetlist,
        real_inputs: I,
        model: &GuardbandModel,
    ) -> Guardband
    where
        I: IntoIterator<Item = (u64, u64, bool)>,
    {
        self.run(adder, real_inputs)
            .guardband(adder.netlist(), model)
    }

    /// Fallible twin of [`guardband`](Self::guardband).
    pub fn try_guardband<I>(
        &self,
        adder: &AdderNetlist,
        real_inputs: I,
        model: &GuardbandModel,
    ) -> Result<Guardband, crate::error::Error>
    where
        I: IntoIterator<Item = (u64, u64, bool)>,
    {
        Ok(self
            .try_run(adder, real_inputs)?
            .guardband(adder.netlist(), model))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adder::LadnerFischerAdder;

    #[test]
    fn vector_numbering_matches_paper() {
        assert_eq!(SyntheticVector::V1.to_string(), "<0,0,0>");
        assert_eq!(SyntheticVector::V2.to_string(), "<0,0,1>");
        assert_eq!(SyntheticVector::V8.to_string(), "<1,1,1>");
        assert_eq!(SyntheticVector::from_number(5).to_string(), "<1,0,0>");
        assert_eq!(SyntheticVector::V6.number(), 6);
    }

    #[test]
    fn operands_expand_to_full_width() {
        let (a, b, cin) = SyntheticVector::V8.operands(32);
        assert_eq!(a, 0xFFFF_FFFF);
        assert_eq!(b, 0xFFFF_FFFF);
        assert!(cin);
        let (a, _, _) = SyntheticVector::V1.operands(32);
        assert_eq!(a, 0);
    }

    #[test]
    fn there_are_28_pairs_in_figure_4_order() {
        let pairs = VectorPair::all_pairs();
        assert_eq!(pairs.len(), 28);
        assert_eq!(pairs[0].label(), "1+2");
        assert_eq!(pairs[6].label(), "1+8");
        assert_eq!(pairs[27].label(), "7+8");
    }

    #[test]
    fn pair_duties_are_quantized() {
        // Round-robin over two vectors gives exactly {0, 0.5, 1} duties.
        let adder = LadnerFischerAdder::new(8);
        let mut tracker = StressTracker::new(adder.netlist());
        let pair = VectorPair::best_of_paper();
        for v in [pair.first, pair.second] {
            let (a, b, cin) = v.operands(8);
            tracker.apply(adder.netlist(), &adder.input_assignment(a, b, cin), 1);
        }
        for (_, duty) in tracker.duties() {
            let f = duty.fraction();
            assert!(
                (f - 0.0).abs() < 1e-12 || (f - 0.5).abs() < 1e-12 || (f - 1.0).abs() < 1e-12,
                "duty {f} is not in {{0, 0.5, 1}}"
            );
        }
    }

    #[test]
    fn best_pair_is_1_plus_8_as_in_the_paper() {
        let adder = LadnerFischerAdder::new(32);
        let best = best_pair(&adder);
        assert_eq!(best.pair.label(), "1+8");
        assert!(
            best.narrow_fully_stressed < 0.005,
            "the winning pair must leave almost no narrow PMOS fully stressed, got {}",
            best.narrow_fully_stressed
        );
    }

    #[test]
    fn latch_imbalance_is_zero_only_for_complementary_pairs() {
        assert_eq!(VectorPair::best_of_paper().latch_imbalance(), 0.0);
        // 3+8 shares InputB=1 across both vectors: one latch stays biased.
        let p = VectorPair {
            first: SyntheticVector::V3,
            second: SyntheticVector::V8,
        };
        assert!((p.latch_imbalance() - 1.0 / 3.0).abs() < 1e-12);
        // A pair differing only in carry-in keeps two latches biased.
        let q = VectorPair {
            first: SyntheticVector::V1,
            second: SyntheticVector::V2,
        };
        assert!((q.latch_imbalance() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn mixed_campaign_zero_utilization_equals_pair_only() {
        let adder = LadnerFischerAdder::new(8);
        let campaign = MixedCampaign::new(0.0, VectorPair::best_of_paper());
        let tracker = campaign.run(&adder, std::iter::empty());
        let direct = evaluate_pair(&adder, VectorPair::best_of_paper());
        assert!(
            (tracker.narrow_fraction_at_or_above(1.0) - direct.narrow_fully_stressed).abs() < 1e-12
        );
    }

    #[test]
    fn mixed_campaign_guardband_grows_with_utilization() {
        let adder = LadnerFischerAdder::new(16);
        let model = GuardbandModel::paper_calibrated();
        let reals: Vec<(u64, u64, bool)> = (0..64u64)
            .map(|i| (i * 3 % 65536, i * 7 % 65536, false))
            .collect();
        let mut prev = 0.0;
        for util in [0.11, 0.21, 0.30] {
            let campaign = MixedCampaign::new(util, VectorPair::best_of_paper());
            let gb = campaign
                .guardband(&adder, reals.iter().copied(), &model)
                .fraction();
            assert!(gb >= prev, "guardband must grow with utilization");
            prev = gb;
        }
    }

    #[test]
    #[should_panic(expected = "utilization")]
    fn campaign_rejects_bad_utilization() {
        let _ = MixedCampaign::new(1.5, VectorPair::best_of_paper());
    }

    #[test]
    fn oversized_real_operands_surface_as_typed_errors() {
        let adder = LadnerFischerAdder::new(8);
        let campaign = MixedCampaign::new(0.5, VectorPair::best_of_paper());
        // 0x1FF does not fit 8 bits: the old path panicked, the fallible
        // path reports which operand overflowed.
        let err = campaign
            .try_run(&adder, [(0x1FFu64, 0u64, false)])
            .expect_err("oversized operand is rejected");
        match err {
            crate::error::Error::OperandWidth {
                operand,
                width,
                value,
            } => {
                assert_eq!(operand, "a");
                assert_eq!(width, 8);
                assert_eq!(value, 0x1FF);
            }
            other => panic!("unexpected error {other}"),
        }
        let err = campaign
            .try_guardband(
                &adder,
                [(1u64, 0x400u64, true)],
                &GuardbandModel::paper_calibrated(),
            )
            .expect_err("oversized b operand is rejected");
        assert!(err.to_string().contains('b'), "{err}");

        // In-range streams succeed and match the panicking path.
        let ok = campaign
            .try_run(&adder, [(3u64, 250u64, true)])
            .expect("in-range stream runs");
        let legacy = campaign.run(&adder, [(3u64, 250u64, true)]);
        assert_eq!(
            ok.worst_duty().fraction().to_bits(),
            legacy.worst_duty().fraction().to_bits()
        );
    }

    #[test]
    fn greedy_set_of_two_matches_pair_quality() {
        let adder = LadnerFischerAdder::new(32);
        let set2 = best_vector_set(&adder, 2);
        let pair = best_pair(&adder);
        assert_eq!(set2.vectors.len(), 2);
        assert!(
            set2.narrow_fully_stressed <= pair.narrow_fully_stressed + 1e-12,
            "greedy 2-set must not be worse than the exhaustive pair"
        );
    }

    #[test]
    fn larger_sets_never_increase_the_fully_stressed_fraction() {
        let adder = LadnerFischerAdder::new(16);
        let mut prev = f64::INFINITY;
        for n in 1..=4 {
            let set = best_vector_set(&adder, n);
            assert_eq!(set.vectors.len(), n);
            assert!(
                set.narrow_fully_stressed <= prev + 1e-12,
                "set of {n} worsened the fully-stressed fraction"
            );
            prev = set.narrow_fully_stressed;
        }
    }

    #[test]
    #[should_panic(expected = "set size")]
    fn set_search_rejects_zero() {
        let adder = LadnerFischerAdder::new(4);
        let _ = best_vector_set(&adder, 0);
    }
}
