//! Deterministic perturbation of uop streams.
//!
//! A [`TraceFault`] describes how to corrupt a trace on its way into the
//! pipeline: truncate it, flip result bits, or replace the values with
//! adversarial stress vectors (all-zero results maximize the "0" duty the
//! NBTI model punishes; forced mispredicts maximize front-end churn).
//! [`FaultedTrace`] applies a fault lazily to any uop iterator, so the
//! corruption is as reproducible as the underlying trace.

use crate::uop::{Uop, UopClass, Value80};

/// A deterministic corruption of one uop stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceFault {
    /// Keep at most this many uops (`None` = no truncation). `Some(0)`
    /// yields an empty trace.
    pub truncate_to: Option<usize>,
    /// XOR mask applied to every result value (masked to 80 bits; 0 = no
    /// flips).
    pub result_xor: u128,
    /// Replace every result and source value with zero — the worst-case
    /// duty stress vector for the NBTI balancing mechanisms.
    pub zero_values: bool,
    /// Force every branch to mispredict.
    pub force_mispredicts: bool,
}

impl TraceFault {
    /// The identity fault: passes the stream through unchanged.
    pub fn none() -> Self {
        TraceFault {
            truncate_to: None,
            result_xor: 0,
            zero_values: false,
            force_mispredicts: false,
        }
    }

    /// Whether this fault changes nothing.
    pub fn is_noop(&self) -> bool {
        self.truncate_to.is_none()
            && self.result_xor == 0
            && !self.zero_values
            && !self.force_mispredicts
    }
}

impl Default for TraceFault {
    fn default() -> Self {
        TraceFault::none()
    }
}

/// An iterator adapter applying a [`TraceFault`] to a uop stream.
#[derive(Debug, Clone)]
pub struct FaultedTrace<I> {
    inner: I,
    fault: TraceFault,
    remaining: Option<usize>,
    /// `fault.is_noop()`, cached: the identity fault forwards the stream.
    identity: bool,
}

impl<I> FaultedTrace<I> {
    /// Wraps `inner`, applying `fault` to every uop it yields.
    pub fn new(inner: I, fault: TraceFault) -> Self {
        FaultedTrace {
            inner,
            remaining: fault.truncate_to,
            identity: fault.is_noop(),
            fault,
        }
    }
}

/// Convenience: wraps a uop stream in a [`FaultedTrace`].
pub fn faulted<I>(trace: I, fault: TraceFault) -> FaultedTrace<I::IntoIter>
where
    I: IntoIterator<Item = Uop>,
{
    FaultedTrace::new(trace.into_iter(), fault)
}

impl<I: Iterator<Item = Uop>> Iterator for FaultedTrace<I> {
    type Item = Uop;

    fn next(&mut self) -> Option<Uop> {
        if self.identity {
            return self.inner.next();
        }
        if let Some(rem) = &mut self.remaining {
            if *rem == 0 {
                return None;
            }
            *rem -= 1;
        }
        let mut uop = self.inner.next()?;
        if self.fault.zero_values {
            uop.result = Value80::from_bits(0);
            uop.src1_val = 0;
            uop.src2_val = 0;
            uop.immediate = uop.immediate.map(|_| 0);
        } else if self.fault.result_xor != 0 {
            uop.result = Value80::from_bits(uop.result.bits() ^ self.fault.result_xor);
        }
        if self.fault.force_mispredicts && uop.class == UopClass::Branch {
            uop.mispredict = true;
        }
        Some(uop)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let (lo, hi) = self.inner.size_hint();
        match self.remaining {
            Some(rem) => (lo.min(rem), Some(hi.map_or(rem, |h| h.min(rem)))),
            None => (lo, hi),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::Suite;
    use crate::trace::TraceSpec;

    fn spec() -> TraceSpec {
        TraceSpec::new(Suite::SpecInt2000, 1)
    }

    #[test]
    fn noop_fault_is_transparent() {
        let plain: Vec<Uop> = spec().generate(200).collect();
        let wrapped: Vec<Uop> = faulted(spec().generate(200), TraceFault::none()).collect();
        assert_eq!(plain, wrapped);
        assert!(TraceFault::none().is_noop());
        assert!(TraceFault::default().is_noop());
    }

    #[test]
    fn truncation_caps_the_stream() {
        let fault = TraceFault {
            truncate_to: Some(7),
            ..TraceFault::none()
        };
        assert!(!fault.is_noop());
        let uops: Vec<Uop> = faulted(spec().generate(200), fault).collect();
        assert_eq!(uops.len(), 7);

        let empty = TraceFault {
            truncate_to: Some(0),
            ..TraceFault::none()
        };
        assert_eq!(faulted(spec().generate(200), empty).count(), 0);
    }

    #[test]
    fn result_xor_flips_exactly_the_mask() {
        let fault = TraceFault {
            result_xor: 0b1001,
            ..TraceFault::none()
        };
        let plain: Vec<Uop> = spec().generate(50).collect();
        let flipped: Vec<Uop> = faulted(spec().generate(50), fault).collect();
        for (p, f) in plain.iter().zip(&flipped) {
            assert_eq!(p.result.bits() ^ f.result.bits(), 0b1001);
        }
    }

    #[test]
    fn zero_values_produce_all_zero_results() {
        let fault = TraceFault {
            zero_values: true,
            ..TraceFault::none()
        };
        for u in faulted(spec().generate(500), fault) {
            assert_eq!(u.result.bits(), 0);
            assert_eq!(u.src1_val, 0);
            assert_eq!(u.src2_val, 0);
        }
    }

    #[test]
    fn forced_mispredicts_hit_every_branch() {
        let fault = TraceFault {
            force_mispredicts: true,
            ..TraceFault::none()
        };
        let mut branches = 0;
        for u in faulted(spec().generate(5_000), fault) {
            if u.class == UopClass::Branch {
                branches += 1;
                assert!(u.mispredict);
            }
        }
        assert!(branches > 0, "trace should contain branches");
    }

    #[test]
    fn size_hint_respects_truncation() {
        let fault = TraceFault {
            truncate_to: Some(10),
            ..TraceFault::none()
        };
        let it = faulted(spec().generate(200), fault);
        assert_eq!(it.size_hint(), (10, Some(10)));
    }
}
