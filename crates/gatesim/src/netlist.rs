//! Netlist construction and evaluation.
//!
//! A [`Netlist`] is a DAG of [`Gate`] primitives. The builder enforces
//! topological construction (a gate may only read nets that already exist),
//! so evaluation is a single forward pass over the gate list.

use std::sync::OnceLock;

use crate::error::Error;
use crate::gate::{Gate, GateId, GateKind, NetId};

/// A sealed combinational netlist.
#[derive(Debug, Clone)]
pub struct Netlist {
    gates: Vec<Gate>,
    inputs: Vec<NetId>,
    outputs: Vec<NetId>,
    net_count: u32,
    /// fanout[net] = number of gate inputs driven by the net.
    fanout: Vec<u32>,
    /// Gates explicitly sized up (critical-path annotation), by index.
    wide_gates: Vec<bool>,
    /// The gate list flattened for [`Netlist::evaluate_words`], built on
    /// first use.
    word_ops: OnceLock<Vec<WordOp>>,
}

/// One gate of the word-parallel evaluation program: net indices inline,
/// so a forward pass reads no per-gate heap allocation. Inputs past the
/// gate's arity repeat its first input and are ignored by
/// [`GateKind::eval_word`].
#[derive(Debug, Clone, Copy)]
struct WordOp {
    kind: GateKind,
    inputs: [u32; 3],
    output: u32,
}

impl Netlist {
    /// Primary input nets, in declaration order.
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// Primary output nets, in declaration order.
    pub fn outputs(&self) -> &[NetId] {
        &self.outputs
    }

    /// All gates in topological order.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// The gate with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn gate(&self, id: GateId) -> &Gate {
        &self.gates[id.index()]
    }

    /// Total number of nets (inputs + gate outputs).
    pub fn net_count(&self) -> usize {
        self.net_count as usize
    }

    /// Number of gate inputs driven by `net` (its fanout).
    pub fn fanout(&self, net: NetId) -> u32 {
        self.fanout[net.index()]
    }

    /// Whether the gate was explicitly annotated as upsized
    /// (critical-path sizing) at construction time.
    pub fn is_explicitly_wide(&self, gate: GateId) -> bool {
        self.wide_gates[gate.index()]
    }

    /// Total number of PMOS transistors (one per gate input).
    pub fn pmos_count(&self) -> usize {
        self.gates.iter().map(|g| g.inputs().len()).sum()
    }

    /// Evaluates the netlist for one primary-input assignment and returns
    /// the value of every net.
    ///
    /// # Panics
    ///
    /// Panics if `assignment.len()` differs from the number of primary
    /// inputs.
    pub fn evaluate(&self, assignment: &[bool]) -> NetValues {
        assert_eq!(
            assignment.len(),
            self.inputs.len(),
            "expected {} primary inputs, got {}",
            self.inputs.len(),
            assignment.len()
        );
        self.evaluate_unchecked(assignment)
    }

    /// Fallible twin of [`evaluate`](Self::evaluate): rejects an assignment
    /// whose arity does not match the primary inputs with a typed error
    /// instead of panicking, so callers holding externally supplied stimulus
    /// (trace operands, BLIF test vectors) can surface the mismatch.
    pub fn try_evaluate(&self, assignment: &[bool]) -> Result<NetValues, Error> {
        if assignment.len() != self.inputs.len() {
            return Err(Error::InputArity {
                expected: self.inputs.len(),
                got: assignment.len(),
            });
        }
        Ok(self.evaluate_unchecked(assignment))
    }

    /// Evaluates the netlist on 64 assignments at once, one per bit lane:
    /// `inputs[i]` holds primary input `i` across the lanes, and on return
    /// `values[n]` holds net `n` across the same lanes. `values` is a
    /// reusable buffer, resized to [`net_count`](Self::net_count).
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the number of primary inputs.
    pub fn evaluate_words(&self, inputs: &[u64], values: &mut Vec<u64>) {
        assert_eq!(
            inputs.len(),
            self.inputs.len(),
            "expected {} primary input words, got {}",
            self.inputs.len(),
            inputs.len()
        );
        // Every net is a primary input or a gate output, so the pass
        // below overwrites the whole buffer.
        values.resize(self.net_count as usize, 0);
        for (net, &word) in self.inputs.iter().zip(inputs) {
            values[net.index()] = word;
        }
        for op in self.word_ops() {
            let [a, b, c] = op.inputs.map(|n| values[n as usize]);
            values[op.output as usize] = op.kind.eval_word(a, b, c);
        }
    }

    fn word_ops(&self) -> &[WordOp] {
        self.word_ops.get_or_init(|| {
            self.gates
                .iter()
                .map(|gate| {
                    let ins = gate.inputs();
                    let net = |i: usize| ins.get(i).unwrap_or(&ins[0]).0;
                    WordOp {
                        kind: gate.kind(),
                        inputs: [net(0), net(1), net(2)],
                        output: gate.output().0,
                    }
                })
                .collect()
        })
    }

    fn evaluate_unchecked(&self, assignment: &[bool]) -> NetValues {
        let mut values = vec![false; self.net_count as usize];
        for (net, &value) in self.inputs.iter().zip(assignment) {
            values[net.index()] = value;
        }
        let mut scratch = [false; 3];
        for gate in &self.gates {
            let n = gate.inputs().len();
            for (slot, input) in scratch[..n].iter_mut().zip(gate.inputs()) {
                *slot = values[input.index()];
            }
            values[gate.output().index()] = gate.kind().eval(&scratch[..n]);
        }
        NetValues { values }
    }
}

/// Values of every net after one evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetValues {
    values: Vec<bool>,
}

impl NetValues {
    /// Value of one net.
    pub fn get(&self, net: NetId) -> bool {
        self.values[net.index()]
    }

    /// Values of a bus of nets, packed LSB-first into a `u64`.
    ///
    /// # Panics
    ///
    /// Panics if `bus` has more than 64 nets.
    pub fn bus_u64(&self, bus: &[NetId]) -> u64 {
        assert!(bus.len() <= 64, "bus too wide for u64");
        bus.iter()
            .enumerate()
            .fold(0u64, |acc, (i, &net)| acc | (u64::from(self.get(net)) << i))
    }

    /// Raw slice of all net values (indexed by net index).
    pub fn as_slice(&self) -> &[bool] {
        &self.values
    }
}

/// Incremental netlist builder.
///
/// Primitive methods (`inv`, `nand2`, ...) add one gate; composite methods
/// (`and2`, `or2`, `xor2`, ...) expand into primitives, matching a
/// standard-cell mapping, so PMOS counts stay faithful.
///
/// # Example
///
/// ```
/// use gatesim::netlist::NetlistBuilder;
///
/// let mut b = NetlistBuilder::new();
/// let a = b.input();
/// let c = b.input();
/// let x = b.xor2(a, c);
/// b.mark_output(x);
/// let netlist = b.finish();
///
/// let v = netlist.evaluate(&[true, false]);
/// assert!(v.get(x));
/// // XOR expands into 4 NAND2 = 8 PMOS.
/// assert_eq!(netlist.pmos_count(), 8);
/// ```
#[derive(Debug, Default)]
pub struct NetlistBuilder {
    gates: Vec<Gate>,
    inputs: Vec<NetId>,
    outputs: Vec<NetId>,
    net_count: u32,
    wide_gates: Vec<bool>,
    /// While set, every added gate is annotated wide.
    sizing_wide: bool,
}

impl NetlistBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    fn fresh_net(&mut self) -> NetId {
        let id = NetId(self.net_count);
        self.net_count += 1;
        id
    }

    fn check_net(&self, net: NetId) {
        assert!(
            net.0 < self.net_count,
            "net {net} does not exist yet (topological construction required)"
        );
    }

    /// Declares a new primary input and returns its net.
    pub fn input(&mut self) -> NetId {
        let net = self.fresh_net();
        self.inputs.push(net);
        net
    }

    /// Declares `n` primary inputs (LSB-first bus).
    pub fn input_bus(&mut self, n: usize) -> Vec<NetId> {
        (0..n).map(|_| self.input()).collect()
    }

    /// Marks a net as a primary output.
    pub fn mark_output(&mut self, net: NetId) {
        self.check_net(net);
        self.outputs.push(net);
    }

    /// Switches critical-path sizing on or off: while on, every added gate
    /// is annotated as wide (upsized), mirroring how timing-critical stages
    /// (e.g. an adder's carry-propagation tree) are sized in a real layout.
    pub fn set_sizing_wide(&mut self, wide: bool) {
        self.sizing_wide = wide;
    }

    /// Adds one primitive gate of any kind (the pass pipeline rebuilds
    /// netlists generically through this).
    pub(crate) fn add_gate(&mut self, kind: GateKind, inputs: Vec<NetId>) -> NetId {
        debug_assert_eq!(inputs.len(), kind.arity());
        for &net in &inputs {
            self.check_net(net);
        }
        let output = self.fresh_net();
        self.gates.push(Gate {
            kind,
            inputs,
            output,
        });
        self.wide_gates.push(self.sizing_wide);
        output
    }

    /// Adds an inverter; returns the output net.
    pub fn inv(&mut self, a: NetId) -> NetId {
        self.add_gate(GateKind::Inv, vec![a])
    }

    /// Adds a 2-input NAND; returns the output net.
    pub fn nand2(&mut self, a: NetId, b: NetId) -> NetId {
        self.add_gate(GateKind::Nand2, vec![a, b])
    }

    /// Adds a 3-input NAND; returns the output net.
    pub fn nand3(&mut self, a: NetId, b: NetId, c: NetId) -> NetId {
        self.add_gate(GateKind::Nand3, vec![a, b, c])
    }

    /// Adds a 2-input NOR; returns the output net.
    pub fn nor2(&mut self, a: NetId, b: NetId) -> NetId {
        self.add_gate(GateKind::Nor2, vec![a, b])
    }

    /// Adds a 3-input NOR; returns the output net.
    pub fn nor3(&mut self, a: NetId, b: NetId, c: NetId) -> NetId {
        self.add_gate(GateKind::Nor3, vec![a, b, c])
    }

    /// Adds an AOI21 gate computing `!((a & b) | c)`.
    pub fn aoi21(&mut self, a: NetId, b: NetId, c: NetId) -> NetId {
        self.add_gate(GateKind::Aoi21, vec![a, b, c])
    }

    /// Adds an OAI21 gate computing `!((a | b) & c)`.
    pub fn oai21(&mut self, a: NetId, b: NetId, c: NetId) -> NetId {
        self.add_gate(GateKind::Oai21, vec![a, b, c])
    }

    /// Composite AND2 = NAND2 + INV.
    pub fn and2(&mut self, a: NetId, b: NetId) -> NetId {
        let n = self.nand2(a, b);
        self.inv(n)
    }

    /// Composite OR2 = NOR2 + INV.
    pub fn or2(&mut self, a: NetId, b: NetId) -> NetId {
        let n = self.nor2(a, b);
        self.inv(n)
    }

    /// Composite XOR2 built from four NAND2 gates (standard mapping).
    pub fn xor2(&mut self, a: NetId, b: NetId) -> NetId {
        let n1 = self.nand2(a, b);
        let n2 = self.nand2(a, n1);
        let n3 = self.nand2(b, n1);
        self.nand2(n2, n3)
    }

    /// Composite XNOR2 = XOR2 + INV.
    pub fn xnor2(&mut self, a: NetId, b: NetId) -> NetId {
        let x = self.xor2(a, b);
        self.inv(x)
    }

    /// Composite 2:1 multiplexer: `sel ? b : a`, built as
    /// `!( !(a & !sel) & !(b & sel) )` from NAND2 + INV.
    pub fn mux2(&mut self, a: NetId, b: NetId, sel: NetId) -> NetId {
        let nsel = self.inv(sel);
        let l = self.nand2(a, nsel);
        let r = self.nand2(b, sel);
        self.nand2(l, r)
    }

    /// Composite AO21: `(a & b) | c`, as AOI21 + INV.
    pub fn ao21(&mut self, a: NetId, b: NetId, c: NetId) -> NetId {
        let n = self.aoi21(a, b, c);
        self.inv(n)
    }

    /// Marks the gate driving `net` as explicitly wide, after the fact.
    /// Returns `false` if no gate drives the net (primary inputs have no
    /// driver). The BLIF importer uses this to honour `.wide` annotations
    /// that may appear anywhere in the file.
    pub fn mark_wide(&mut self, net: NetId) -> bool {
        match self.gates.iter().position(|g| g.output == net) {
            Some(index) => {
                self.wide_gates[index] = true;
                true
            }
            None => false,
        }
    }

    /// Seals the netlist: computes fanout and freezes the gate list.
    pub fn finish(self) -> Netlist {
        let mut fanout = vec![0u32; self.net_count as usize];
        for gate in &self.gates {
            for input in gate.inputs() {
                fanout[input.index()] += 1;
            }
        }
        Netlist {
            gates: self.gates,
            inputs: self.inputs,
            outputs: self.outputs,
            net_count: self.net_count,
            fanout,
            wide_gates: self.wide_gates,
            word_ops: OnceLock::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_input_truth<F: Fn(&mut NetlistBuilder, NetId, NetId) -> NetId>(
        f: F,
    ) -> Vec<(bool, bool, bool)> {
        let mut b = NetlistBuilder::new();
        let a = b.input();
        let c = b.input();
        let out = f(&mut b, a, c);
        b.mark_output(out);
        let n = b.finish();
        let mut rows = Vec::new();
        for (x, y) in [(false, false), (false, true), (true, false), (true, true)] {
            let v = n.evaluate(&[x, y]);
            rows.push((x, y, v.get(out)));
        }
        rows
    }

    #[test]
    fn xor_composite_truth_table() {
        for (a, b, out) in two_input_truth(|bl, a, b| bl.xor2(a, b)) {
            assert_eq!(out, a ^ b);
        }
    }

    #[test]
    fn xnor_composite_truth_table() {
        for (a, b, out) in two_input_truth(|bl, a, b| bl.xnor2(a, b)) {
            assert_eq!(out, !(a ^ b));
        }
    }

    #[test]
    fn and_or_composites() {
        for (a, b, out) in two_input_truth(|bl, a, b| bl.and2(a, b)) {
            assert_eq!(out, a && b);
        }
        for (a, b, out) in two_input_truth(|bl, a, b| bl.or2(a, b)) {
            assert_eq!(out, a || b);
        }
    }

    #[test]
    fn mux2_selects() {
        let mut b = NetlistBuilder::new();
        let a = b.input();
        let c = b.input();
        let s = b.input();
        let m = b.mux2(a, c, s);
        b.mark_output(m);
        let n = b.finish();
        for bits in 0..8u8 {
            let a_v = bits & 1 == 1;
            let c_v = bits & 2 == 2;
            let s_v = bits & 4 == 4;
            let v = n.evaluate(&[a_v, c_v, s_v]);
            assert_eq!(v.get(m), if s_v { c_v } else { a_v });
        }
    }

    #[test]
    fn ao21_truth() {
        let mut b = NetlistBuilder::new();
        let x = b.input();
        let y = b.input();
        let z = b.input();
        let out = b.ao21(x, y, z);
        b.mark_output(out);
        let n = b.finish();
        for bits in 0..8u8 {
            let (xv, yv, zv) = (bits & 1 == 1, bits & 2 == 2, bits & 4 == 4);
            let v = n.evaluate(&[xv, yv, zv]);
            assert_eq!(v.get(out), (xv && yv) || zv);
        }
    }

    #[test]
    fn fanout_counts_gate_loads() {
        let mut b = NetlistBuilder::new();
        let a = b.input();
        let i1 = b.inv(a);
        let _i2 = b.inv(a);
        let _i3 = b.inv(i1);
        let n = b.finish();
        assert_eq!(n.fanout(a), 2);
        assert_eq!(n.fanout(i1), 1);
    }

    #[test]
    fn pmos_count_is_sum_of_arities() {
        let mut b = NetlistBuilder::new();
        let a = b.input();
        let c = b.input();
        let _ = b.nand2(a, c); // 2 PMOS
        let _ = b.inv(a); // 1 PMOS
        let _ = b.aoi21(a, c, a); // 3 PMOS
        let n = b.finish();
        assert_eq!(n.pmos_count(), 6);
    }

    #[test]
    fn bus_u64_packs_lsb_first() {
        let mut b = NetlistBuilder::new();
        let bus = b.input_bus(4);
        for &n in &bus {
            b.mark_output(n);
        }
        let n = b.finish();
        let v = n.evaluate(&[true, false, true, false]);
        assert_eq!(v.bus_u64(&bus), 0b0101);
    }

    #[test]
    fn word_evaluation_matches_scalar_evaluation_lane_by_lane() {
        let mut b = NetlistBuilder::new();
        let x = b.input_bus(3);
        let s = b.xor2(x[0], x[1]);
        let m = b.mux2(s, x[2], x[0]);
        let o = b.oai21(m, x[1], s);
        let n3 = b.nor3(o, x[2], m);
        b.mark_output(n3);
        let n = b.finish();
        // Lane l carries assignment l mod 8.
        let words: Vec<u64> = (0..3)
            .map(|i| (0..64).fold(0u64, |w, l| w | ((((l % 8) >> i) & 1) << l)))
            .collect();
        let mut values = Vec::new();
        n.evaluate_words(&words, &mut values);
        assert_eq!(values.len(), n.net_count());
        for lane in 0..64 {
            let bits: Vec<bool> = words.iter().map(|w| (w >> lane) & 1 == 1).collect();
            let scalar = n.evaluate(&bits);
            for (net, &word) in values.iter().enumerate() {
                assert_eq!((word >> lane) & 1 == 1, scalar.as_slice()[net], "net {net}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "primary input words")]
    fn evaluate_words_checks_input_len() {
        let mut b = NetlistBuilder::new();
        let _ = b.input();
        let n = b.finish();
        n.evaluate_words(&[], &mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "primary inputs")]
    fn evaluate_checks_input_len() {
        let mut b = NetlistBuilder::new();
        let _ = b.input();
        let n = b.finish();
        let _ = n.evaluate(&[]);
    }

    #[test]
    fn netlist_reports_shape() {
        let mut b = NetlistBuilder::new();
        let a = b.input();
        let x = b.inv(a);
        b.mark_output(x);
        let n = b.finish();
        assert_eq!(n.inputs().len(), 1);
        assert_eq!(n.outputs().len(), 1);
        assert_eq!(n.gates().len(), 1);
        assert_eq!(n.net_count(), 2);
        assert_eq!(n.gate(GateId(0)).kind().name(), "INV");
    }
}
