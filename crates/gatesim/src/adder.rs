//! Adder netlists: the paper's 32-bit Ladner-Fischer parallel-prefix adder
//! and a ripple-carry baseline.
//!
//! The Ladner-Fischer adder (\[11\] in the paper) is a minimum-depth
//! parallel-prefix adder. Its prefix tree reuses intermediate
//! generate/propagate terms across many bit positions, so the tree nodes
//! have high fanout — in a real layout those drivers are upsized, which is
//! why the paper finds that the transistors left at 100% zero-signal
//! probability under the best idle-vector pair are *wide* and therefore
//! harmless.
//!
//! Construction: for operand bits `a_i`, `b_i` the preprocessing stage forms
//! `p_i = a_i ⊕ b_i` (4 NAND2) and `g_i = a_i·b_i` (NAND2+INV). The prefix
//! tree combines `(G, P)` pairs with `(G_hi + P_hi·G_lo, P_hi·P_lo)`
//! (AOI21+INV and NAND2+INV). Carries fold in `cin` with one more AO21 per
//! bit, and sums are `s_i = p_i ⊕ c_{i-1}`.

use crate::gate::NetId;
use crate::netlist::{Netlist, NetlistBuilder};

/// A sealed adder netlist with named operand/result buses.
///
/// Shared by the Ladner-Fischer and ripple-carry constructions.
#[derive(Debug, Clone)]
pub struct AdderNetlist {
    netlist: Netlist,
    a: Vec<NetId>,
    b: Vec<NetId>,
    sum: Vec<NetId>,
    cout: NetId,
    width: usize,
}

impl AdderNetlist {
    /// Operand width in bits.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The underlying netlist.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// Nets of operand A (LSB-first).
    pub fn a_bus(&self) -> &[NetId] {
        &self.a
    }

    /// Nets of operand B (LSB-first).
    pub fn b_bus(&self) -> &[NetId] {
        &self.b
    }

    /// Sum nets (LSB-first).
    pub fn sum_bus(&self) -> &[NetId] {
        &self.sum
    }

    /// Builds the primary-input assignment for the given operands, in the
    /// order expected by [`Netlist::evaluate`].
    ///
    /// # Panics
    ///
    /// Panics if an operand does not fit in `width` bits.
    pub fn input_assignment(&self, a: u64, b: u64, cin: bool) -> Vec<bool> {
        let w = self.width;
        if w < 64 {
            assert!(a < (1u64 << w), "operand a does not fit in {w} bits");
            assert!(b < (1u64 << w), "operand b does not fit in {w} bits");
        }
        self.assignment_unchecked(a, b, cin)
    }

    /// Fallible twin of [`input_assignment`](Self::input_assignment):
    /// rejects operands that do not fit the adder width with a typed
    /// error, for callers holding externally supplied stimulus (trace
    /// operands, workload samples) rather than values they constructed.
    pub fn try_input_assignment(
        &self,
        a: u64,
        b: u64,
        cin: bool,
    ) -> Result<Vec<bool>, crate::error::Error> {
        let w = self.width;
        if w < 64 {
            for (operand, value) in [("a", a), ("b", b)] {
                if value >= (1u64 << w) {
                    return Err(crate::error::Error::OperandWidth {
                        operand,
                        width: w,
                        value,
                    });
                }
            }
        }
        Ok(self.assignment_unchecked(a, b, cin))
    }

    fn assignment_unchecked(&self, a: u64, b: u64, cin: bool) -> Vec<bool> {
        let w = self.width;
        let mut v = Vec::with_capacity(2 * w + 1);
        v.extend((0..w).map(|i| (a >> i) & 1 == 1));
        v.extend((0..w).map(|i| (b >> i) & 1 == 1));
        v.push(cin);
        v
    }

    /// Adds two operands through the netlist, returning `(sum, carry_out)`.
    ///
    /// # Panics
    ///
    /// Panics if an operand does not fit in the adder width.
    pub fn add(&self, a: u64, b: u64, cin: bool) -> (u64, bool) {
        let values = self.netlist.evaluate(&self.input_assignment(a, b, cin));
        (values.bus_u64(&self.sum), values.get(self.cout))
    }
}

/// The Ladner-Fischer parallel-prefix adder (minimum depth, high fanout).
///
/// # Example
///
/// ```
/// use gatesim::adder::LadnerFischerAdder;
///
/// let adder = LadnerFischerAdder::new(32);
/// let (sum, cout) = adder.add(0xFFFF_FFFF, 1, false);
/// assert_eq!(sum, 0);
/// assert!(cout);
/// ```
#[derive(Debug, Clone)]
pub struct LadnerFischerAdder {
    inner: AdderNetlist,
}

impl LadnerFischerAdder {
    /// Builds a Ladner-Fischer adder of the given width (1..=64 bits; the
    /// paper's case study uses 32).
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or greater than 64.
    pub fn new(width: usize) -> Self {
        assert!((1..=64).contains(&width), "width must be in 1..=64");
        let mut b = NetlistBuilder::new();
        let a_bus = b.input_bus(width);
        let b_bus = b.input_bus(width);
        let cin = b.input();

        // Preprocessing: p_i = a ⊕ b, g_i = a·b.
        let p: Vec<NetId> = (0..width).map(|i| b.xor2(a_bus[i], b_bus[i])).collect();
        let g: Vec<NetId> = (0..width).map(|i| b.and2(a_bus[i], b_bus[i])).collect();

        // Ladner-Fischer (Sklansky) prefix tree over (G, P). The prefix
        // tree, the carry stage and the sum stage form the adder's critical
        // path and are upsized (wide) in a performance-targeted layout; the
        // paper relies on exactly this ("wide PMOS do not suffer from NBTI
        // significantly", §4.3).
        b.set_sizing_wide(true);
        let mut big_g = g.clone();
        let mut big_p = p.clone();
        let mut k = 0;
        while (1usize << k) < width {
            let stride = 1usize << k;
            for i in 0..width {
                if (i >> k) & 1 == 1 {
                    let j = (i >> k << k) - 1;
                    debug_assert!(j < i && i - j <= stride * 2);
                    // G' = G_i + P_i·G_j ; P' = P_i·P_j
                    let new_g = b.ao21(big_p[i], big_g[j], big_g[i]);
                    let new_p = b.and2(big_p[i], big_p[j]);
                    big_g[i] = new_g;
                    big_p[i] = new_p;
                }
            }
            k += 1;
        }

        // Carries including cin: c_i = G_i + P_i·cin.
        let carries: Vec<NetId> = (0..width)
            .map(|i| b.ao21(big_p[i], cin, big_g[i]))
            .collect();

        // Sums: s_0 = p_0 ⊕ cin, s_i = p_i ⊕ c_{i-1}.
        let mut sum = Vec::with_capacity(width);
        sum.push(b.xor2(p[0], cin));
        for i in 1..width {
            sum.push(b.xor2(p[i], carries[i - 1]));
        }
        let cout = carries[width - 1];
        b.set_sizing_wide(false);

        for &s in &sum {
            b.mark_output(s);
        }
        b.mark_output(cout);

        LadnerFischerAdder {
            inner: AdderNetlist {
                netlist: b.finish(),
                a: a_bus,
                b: b_bus,
                sum,
                cout,
                width,
            },
        }
    }
}

impl std::ops::Deref for LadnerFischerAdder {
    type Target = AdderNetlist;

    fn deref(&self) -> &AdderNetlist {
        &self.inner
    }
}

impl AsRef<AdderNetlist> for LadnerFischerAdder {
    fn as_ref(&self) -> &AdderNetlist {
        &self.inner
    }
}

/// Ripple-carry adder baseline: a chain of full adders.
///
/// Used in ablation studies; its carry chain has uniformly low fanout, so
/// unlike the Ladner-Fischer tree, 100%-stressed transistors under biased
/// inputs are *narrow* and do cost guardband.
#[derive(Debug, Clone)]
pub struct RippleCarryAdder {
    inner: AdderNetlist,
}

impl RippleCarryAdder {
    /// Builds a ripple-carry adder of the given width (1..=64 bits).
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or greater than 64.
    pub fn new(width: usize) -> Self {
        assert!((1..=64).contains(&width), "width must be in 1..=64");
        let mut b = NetlistBuilder::new();
        let a_bus = b.input_bus(width);
        let b_bus = b.input_bus(width);
        let cin = b.input();

        let mut carry = cin;
        let mut sum = Vec::with_capacity(width);
        for i in 0..width {
            // Full adder: s = a ⊕ b ⊕ c, cout = NAND(NAND(a,b), NAND(c, a⊕b)).
            let axb = b.xor2(a_bus[i], b_bus[i]);
            sum.push(b.xor2(axb, carry));
            let nab = b.nand2(a_bus[i], b_bus[i]);
            let ncp = b.nand2(carry, axb);
            carry = b.nand2(nab, ncp);
        }
        for &s in &sum {
            b.mark_output(s);
        }
        b.mark_output(carry);

        RippleCarryAdder {
            inner: AdderNetlist {
                netlist: b.finish(),
                a: a_bus,
                b: b_bus,
                sum,
                cout: carry,
                width,
            },
        }
    }
}

impl std::ops::Deref for RippleCarryAdder {
    type Target = AdderNetlist;

    fn deref(&self) -> &AdderNetlist {
        &self.inner
    }
}

impl AsRef<AdderNetlist> for RippleCarryAdder {
    fn as_ref(&self) -> &AdderNetlist {
        &self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_adder(adder: &AdderNetlist, a: u64, b: u64, cin: bool) {
        let w = adder.width();
        let mask = if w == 64 { u64::MAX } else { (1u64 << w) - 1 };
        let wide = a as u128 + b as u128 + cin as u128;
        let expect_sum = (wide as u64) & mask;
        let expect_cout = wide >> w != 0;
        let (sum, cout) = adder.add(a, b, cin);
        assert_eq!(sum, expect_sum, "sum mismatch for {a}+{b}+{cin}");
        assert_eq!(cout, expect_cout, "carry mismatch for {a}+{b}+{cin}");
    }

    #[test]
    fn lf_small_widths_exhaustive() {
        for width in [1usize, 2, 3, 4, 5] {
            let adder = LadnerFischerAdder::new(width);
            let max = 1u64 << width;
            for a in 0..max {
                for b in 0..max {
                    for cin in [false, true] {
                        check_adder(&adder, a, b, cin);
                    }
                }
            }
        }
    }

    #[test]
    fn rca_small_widths_exhaustive() {
        for width in [1usize, 3, 4] {
            let adder = RippleCarryAdder::new(width);
            let max = 1u64 << width;
            for a in 0..max {
                for b in 0..max {
                    for cin in [false, true] {
                        check_adder(&adder, a, b, cin);
                    }
                }
            }
        }
    }

    #[test]
    fn lf_32_bit_spot_checks() {
        let adder = LadnerFischerAdder::new(32);
        check_adder(&adder, 0, 0, false);
        check_adder(&adder, u32::MAX as u64, u32::MAX as u64, true);
        check_adder(&adder, 0xDEAD_BEEF, 0x1234_5678, false);
        check_adder(&adder, 0x8000_0000, 0x8000_0000, false);
        check_adder(&adder, 0x7FFF_FFFF, 1, false);
    }

    #[test]
    fn lf_64_bit_spot_checks() {
        let adder = LadnerFischerAdder::new(64);
        check_adder(&adder, u64::MAX, 1, false);
        check_adder(&adder, 0x0123_4567_89AB_CDEF, 0xFEDC_BA98_7654_3210, true);
    }

    #[test]
    fn lf_has_logarithmic_prefix_structure() {
        // The LF tree must be much shallower than the RCA chain; a proxy is
        // gate count: LF pays more gates for less depth.
        let lf = LadnerFischerAdder::new(32);
        let rca = RippleCarryAdder::new(32);
        assert!(lf.netlist().gates().len() > rca.netlist().gates().len());
    }

    #[test]
    fn lf_prefix_tree_has_wide_nodes() {
        use crate::pmos::PmosTable;
        let lf = LadnerFischerAdder::new(32);
        let table = PmosTable::with_default_threshold(lf.netlist());
        assert!(
            table.wide_count() > 0,
            "the Sklansky/LF prefix tree must contain high-fanout (wide) nodes"
        );
        // The preprocessing stage stays narrow (off the critical path).
        assert!(table.narrow_count() > 0);
    }

    #[test]
    #[should_panic(expected = "width")]
    fn zero_width_rejected() {
        let _ = LadnerFischerAdder::new(0);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_operand_rejected() {
        let adder = LadnerFischerAdder::new(8);
        let _ = adder.add(256, 0, false);
    }

    #[test]
    fn bus_accessors_are_consistent() {
        let adder = LadnerFischerAdder::new(8);
        assert_eq!(adder.a_bus().len(), 8);
        assert_eq!(adder.b_bus().len(), 8);
        assert_eq!(adder.sum_bus().len(), 8);
        assert_eq!(adder.width(), 8);
        let assignment = adder.input_assignment(0xAA, 0x55, true);
        assert_eq!(assignment.len(), 17);
        assert!(assignment[16]);
    }
}
