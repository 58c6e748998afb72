//! CMOS gate primitives.
//!
//! Each primitive is a static CMOS gate: every input drives the gate
//! terminal of exactly one PMOS (in the pull-up network) and one NMOS (in
//! the pull-down network). For NBTI purposes only the PMOS matters, and it
//! is under stress precisely while its input is at logic "0" — regardless of
//! where the transistor sits in the series/parallel pull-up stack, because
//! stress depends on the gate-to-source field, which the paper (and the
//! literature it cites) approximates by the input level.
//!
//! Composite functions (AND, OR, XOR, ...) are *not* primitives; the
//! [`crate::netlist::NetlistBuilder`] expands them into these primitives so
//! that transistor counts and stress are faithful to a standard-cell
//! implementation.

use std::fmt;

/// Identifier of a net (wire) in a netlist.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NetId(pub(crate) u32);

impl NetId {
    /// Index of this net within its netlist.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of a gate in a netlist.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GateId(pub(crate) u32);

impl GateId {
    /// Builds the id of the gate at `index` in a netlist's gate list
    /// (for callers that enumerate `gates()` positionally, e.g. the
    /// differential tests comparing width annotations).
    pub fn from_index(index: usize) -> GateId {
        GateId(index as u32)
    }

    /// Index of this gate within its netlist.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for GateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// The static-CMOS primitives from which all circuits are built.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateKind {
    /// Inverter: `out = !a`. 1 PMOS.
    Inv,
    /// 2-input NAND: `out = !(a & b)`. 2 parallel PMOS.
    Nand2,
    /// 3-input NAND: `out = !(a & b & c)`. 3 parallel PMOS.
    Nand3,
    /// 2-input NOR: `out = !(a | b)`. 2 series PMOS.
    Nor2,
    /// 3-input NOR: `out = !(a | b | c)`. 3 series PMOS.
    Nor3,
    /// And-Or-Invert 21: `out = !((a & b) | c)`. 3 PMOS.
    Aoi21,
    /// Or-And-Invert 21: `out = !((a | b) & c)`. 3 PMOS.
    Oai21,
}

impl GateKind {
    /// Number of inputs (each driving one PMOS gate terminal).
    pub fn arity(self) -> usize {
        match self {
            GateKind::Inv => 1,
            GateKind::Nand2 | GateKind::Nor2 => 2,
            GateKind::Nand3 | GateKind::Nor3 | GateKind::Aoi21 | GateKind::Oai21 => 3,
        }
    }

    /// Evaluates the gate's logic function.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` does not match [`GateKind::arity`].
    pub fn eval(self, inputs: &[bool]) -> bool {
        assert_eq!(
            inputs.len(),
            self.arity(),
            "gate {self:?} expects {} inputs",
            self.arity()
        );
        match self {
            GateKind::Inv => !inputs[0],
            GateKind::Nand2 => !(inputs[0] && inputs[1]),
            GateKind::Nand3 => !(inputs[0] && inputs[1] && inputs[2]),
            GateKind::Nor2 => !(inputs[0] || inputs[1]),
            GateKind::Nor3 => !(inputs[0] || inputs[1] || inputs[2]),
            GateKind::Aoi21 => !((inputs[0] && inputs[1]) || inputs[2]),
            GateKind::Oai21 => !((inputs[0] || inputs[1]) && inputs[2]),
        }
    }

    /// Evaluates the gate on 64 input assignments at once, one per bit
    /// lane: bit `l` of the result is [`eval`](Self::eval) of bit `l` of
    /// each operand. Operands past the gate's arity are ignored.
    pub fn eval_word(self, a: u64, b: u64, c: u64) -> u64 {
        match self {
            GateKind::Inv => !a,
            GateKind::Nand2 => !(a & b),
            GateKind::Nand3 => !(a & b & c),
            GateKind::Nor2 => !(a | b),
            GateKind::Nor3 => !(a | b | c),
            GateKind::Aoi21 => !((a & b) | c),
            GateKind::Oai21 => !((a | b) & c),
        }
    }

    /// Short cell-library-style name.
    pub fn name(self) -> &'static str {
        match self {
            GateKind::Inv => "INV",
            GateKind::Nand2 => "NAND2",
            GateKind::Nand3 => "NAND3",
            GateKind::Nor2 => "NOR2",
            GateKind::Nor3 => "NOR3",
            GateKind::Aoi21 => "AOI21",
            GateKind::Oai21 => "OAI21",
        }
    }
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One gate instance: a primitive, its input nets and its output net.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Gate {
    pub(crate) kind: GateKind,
    pub(crate) inputs: Vec<NetId>,
    pub(crate) output: NetId,
}

impl Gate {
    /// The primitive kind.
    pub fn kind(&self) -> GateKind {
        self.kind
    }

    /// Input nets, one per PMOS.
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// Output net.
    pub fn output(&self) -> NetId {
        self.output
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn truth_table(kind: GateKind) -> Vec<(Vec<bool>, bool)> {
        let n = kind.arity();
        (0..1usize << n)
            .map(|bits| {
                let inputs: Vec<bool> = (0..n).map(|i| (bits >> i) & 1 == 1).collect();
                let out = kind.eval(&inputs);
                (inputs, out)
            })
            .collect()
    }

    #[test]
    fn inv_truth_table() {
        assert!(GateKind::Inv.eval(&[false]));
        assert!(!GateKind::Inv.eval(&[true]));
    }

    #[test]
    fn nand2_is_false_only_when_all_true() {
        for (inputs, out) in truth_table(GateKind::Nand2) {
            assert_eq!(out, !(inputs[0] && inputs[1]));
        }
    }

    #[test]
    fn nor3_is_true_only_when_all_false() {
        for (inputs, out) in truth_table(GateKind::Nor3) {
            assert_eq!(out, !inputs.iter().any(|&x| x));
        }
    }

    #[test]
    fn aoi21_matches_formula() {
        for (inputs, out) in truth_table(GateKind::Aoi21) {
            assert_eq!(out, !((inputs[0] && inputs[1]) || inputs[2]));
        }
    }

    #[test]
    fn oai21_matches_formula() {
        for (inputs, out) in truth_table(GateKind::Oai21) {
            assert_eq!(out, !((inputs[0] || inputs[1]) && inputs[2]));
        }
    }

    #[test]
    fn arity_matches_eval_expectations() {
        for kind in [
            GateKind::Inv,
            GateKind::Nand2,
            GateKind::Nand3,
            GateKind::Nor2,
            GateKind::Nor3,
            GateKind::Aoi21,
            GateKind::Oai21,
        ] {
            let inputs = vec![false; kind.arity()];
            let _ = kind.eval(&inputs); // must not panic
        }
    }

    #[test]
    fn word_eval_matches_scalar_eval_in_every_lane() {
        // Lane l carries assignment l mod 8, so every truth-table row
        // appears in several lanes of the same word.
        let word = |bit: usize| (0..64).fold(0u64, |w, l| w | ((((l % 8) >> bit) & 1) << l));
        let (a, b, c) = (word(0), word(1), word(2));
        for kind in [
            GateKind::Inv,
            GateKind::Nand2,
            GateKind::Nand3,
            GateKind::Nor2,
            GateKind::Nor3,
            GateKind::Aoi21,
            GateKind::Oai21,
        ] {
            let out = kind.eval_word(a, b, c);
            for lane in 0..64 {
                let bits = [a, b, c].map(|w| (w >> lane) & 1 == 1);
                let expected = kind.eval(&bits[..kind.arity()]);
                assert_eq!((out >> lane) & 1 == 1, expected, "{kind} lane {lane}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "expects")]
    fn eval_panics_on_wrong_arity() {
        GateKind::Nand2.eval(&[true]);
    }

    #[test]
    fn display_names() {
        assert_eq!(GateKind::Aoi21.to_string(), "AOI21");
        assert_eq!(NetId(3).to_string(), "n3");
        assert_eq!(GateId(7).to_string(), "g7");
    }
}
