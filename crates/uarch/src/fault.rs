//! Deterministic fault strikes against live pipeline structures.
//!
//! The Penelope mechanisms rewrite structure state opportunistically
//! (inverted RINV images into free registers and slots, inverted cache
//! lines). A robustness harness needs the dual: *adversarial* rewrites that
//! corrupt state mid-run so the mechanisms and their invariant checks can be
//! exercised under stress. [`apply`] lands one [`StructureFault`] on a
//! [`crate::pipeline::Parts`], using only the public mutation surface the
//! balancing mechanisms themselves use — so a strike is always a state the
//! structures could legally reach, never undefined behaviour.

use crate::cache::SetAssocCache;
use crate::pipeline::{Parts, RegClass};
use crate::scheduler::Field;

/// Which cache-like structure a strike targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheTarget {
    /// First-level data cache.
    Dl0,
    /// Second-level cache (strike misses if not configured).
    L2,
    /// Data TLB.
    Dtlb,
    /// Branch target buffer.
    Btb,
}

impl CacheTarget {
    /// All strikeable cache targets.
    pub const ALL: [CacheTarget; 4] = [
        CacheTarget::Dl0,
        CacheTarget::L2,
        CacheTarget::Dtlb,
        CacheTarget::Btb,
    ];
}

impl Parts {
    /// The set-associative structure behind `target`, or `None` for an L2
    /// that is not configured.
    pub fn cache_mut(&mut self, target: CacheTarget) -> Option<&mut SetAssocCache> {
        match target {
            CacheTarget::Dl0 => Some(&mut self.dl0),
            CacheTarget::L2 => self.l2.as_mut(),
            CacheTarget::Dtlb => Some(self.dtlb.cache_mut()),
            CacheTarget::Btb => Some(self.btb.cache_mut()),
        }
    }
}

/// One adversarial rewrite of live structure state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StructureFault {
    /// Force-invert one line of one set (as the cache schemes do, but at
    /// an arbitrary moment): an invalid line if the set has one, else the
    /// LRU valid line.
    InvertCacheLine {
        /// Target structure.
        target: CacheTarget,
        /// Set index (reduced modulo the set count).
        set: usize,
    },
    /// Invalidate every line of a structure (a cold-start shock).
    FlushCache {
        /// Target structure.
        target: CacheTarget,
    },
    /// XOR a mask into one physical register's value.
    RegfileBitFlip {
        /// Integer or FP file.
        class: RegClass,
        /// Register index (reduced modulo the file size).
        preg: u16,
        /// Bits to flip (reduced modulo the register width).
        mask: u128,
    },
    /// XOR a mask into one scheduler slot field.
    SchedulerFieldFlip {
        /// Slot index (reduced modulo the slot count).
        slot: usize,
        /// Which of the 18 fields to corrupt.
        field: Field,
        /// Bits to flip (the scheduler masks to the field width).
        mask: u128,
    },
}

/// Applies one strike to the pipeline structures at time `now`. Returns
/// whether the strike landed (an L2 strike without an L2, a cache set with
/// no invertible line, or a register write without a spare port all miss).
pub fn apply(parts: &mut Parts, fault: &StructureFault, now: u64) -> bool {
    match *fault {
        StructureFault::InvertCacheLine { target, set } => {
            let Some(cache) = parts.cache_mut(target) else {
                return false;
            };
            let sets = cache.set_count();
            cache.invert_line_in(set % sets, now).is_some()
        }
        StructureFault::FlushCache { target } => {
            let Some(cache) = parts.cache_mut(target) else {
                return false;
            };
            cache.invalidate_all(now);
            true
        }
        StructureFault::RegfileBitFlip { class, preg, mask } => {
            let rf = match class {
                RegClass::Int => &mut parts.int_rf,
                RegClass::Fp => &mut parts.fp_rf,
            };
            let entries = rf.config().entries;
            let width = rf.config().width;
            let preg = preg % entries;
            let mask = if width >= 128 {
                mask
            } else {
                mask & ((1u128 << width) - 1)
            };
            let flipped = rf.value_of(preg) ^ mask;
            if rf.is_busy(preg) {
                // Architectural-style write: always lands, consumes a port.
                rf.write(preg, flipped, now);
                true
            } else {
                // Free entries only accept writes through a spare port,
                // exactly like the ISV balancing path.
                rf.try_write_free(preg, flipped, now)
            }
        }
        StructureFault::SchedulerFieldFlip { slot, field, mask } => {
            let slot = slot % parts.sched.len();
            let flipped = parts.sched.field_value(slot, field) ^ mask;
            parts.sched.write_field(slot, field, flipped, now);
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Pipeline, PipelineConfig};

    fn pipeline() -> Pipeline {
        Pipeline::new(PipelineConfig::default())
    }

    #[test]
    fn cache_targets_resolve_to_their_structures() {
        let mut pipe = pipeline();
        let parts = &mut pipe.parts;
        assert!(parts.l2.is_none(), "the default pipeline has no L2");
        assert!(parts.cache_mut(CacheTarget::L2).is_none());
        let dl0 = parts.dl0.config().lines();
        let dtlb = parts.dtlb.cache().config().lines();
        let btb = parts.btb.cache().config().lines();
        for (target, lines) in [
            (CacheTarget::Dl0, dl0),
            (CacheTarget::Dtlb, dtlb),
            (CacheTarget::Btb, btb),
        ] {
            let cache = parts.cache_mut(target).expect("always present");
            assert_eq!(cache.config().lines(), lines, "{target:?}");
        }

        let mut with_l2 = Pipeline::new(PipelineConfig {
            l2: Some(crate::cache::CacheConfig::dl0(256, 8)),
            ..PipelineConfig::default()
        });
        let l2 = with_l2
            .parts
            .cache_mut(CacheTarget::L2)
            .expect("configured");
        assert_eq!(l2.config().lines(), 4096);
    }

    #[test]
    fn cache_inversion_lands_and_is_visible() {
        let mut pipe = pipeline();
        let p = &mut pipe.parts;
        let landed = apply(
            p,
            &StructureFault::InvertCacheLine {
                target: CacheTarget::Dl0,
                set: 12345,
            },
            10,
        );
        assert!(landed);
        assert_eq!(p.dl0.inverted_count(), 1);
    }

    #[test]
    fn l2_strikes_miss_without_an_l2() {
        let mut pipe = pipeline();
        let p = &mut pipe.parts;
        assert!(p.l2.is_none());
        assert!(!apply(
            p,
            &StructureFault::FlushCache {
                target: CacheTarget::L2
            },
            0,
        ));
    }

    #[test]
    fn regfile_bit_flip_changes_the_value() {
        let mut pipe = pipeline();
        let p = &mut pipe.parts;
        // Register 200 reduces modulo the file size; it starts free and
        // zero, so a landed strike leaves exactly the mask bits set.
        let preg = 200 % p.int_rf.config().entries;
        let landed = apply(
            p,
            &StructureFault::RegfileBitFlip {
                class: RegClass::Int,
                preg: 200,
                mask: 0b1010,
            },
            5,
        );
        assert!(landed);
        assert_eq!(p.int_rf.value_of(preg), 0b1010);
    }

    #[test]
    fn scheduler_field_flip_masks_to_field_width() {
        let mut pipe = pipeline();
        let p = &mut pipe.parts;
        apply(
            p,
            &StructureFault::SchedulerFieldFlip {
                slot: 999,
                field: Field::Valid,
                mask: u128::MAX,
            },
            3,
        );
        let slot = 999 % p.sched.len();
        assert_eq!(p.sched.field_value(slot, Field::Valid), 1);
    }
}
