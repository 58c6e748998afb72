//! The data TLB.
//!
//! Architecturally a small, page-granular, 8-way cache of translations; the
//! inversion schemes of §3.2.1 apply to it exactly as to the DL0 (Table 3
//! evaluates 32/64/128-entry DTLBs). Modeled as a thin wrapper over
//! [`SetAssocCache`] with 4KB "lines".

use crate::cache::{AccessOutcome, CacheConfig, CacheStats, SetAssocCache};

/// Page size assumed by the DTLB.
pub const PAGE_BYTES: u64 = 4096;

/// A data TLB.
///
/// # Example
///
/// ```
/// use uarch::tlb::Dtlb;
///
/// let mut tlb = Dtlb::new(64, 8);
/// assert!(!tlb.translate(0x1234_5678, 0).hit);
/// assert!(tlb.translate(0x1234_5000, 1).hit, "same page");
/// ```
#[derive(Debug, Clone)]
pub struct Dtlb {
    cache: SetAssocCache,
}

impl Dtlb {
    /// Creates a DTLB with the given entry count and associativity.
    pub fn new(entries: u32, ways: u16) -> Self {
        Dtlb {
            cache: SetAssocCache::new(CacheConfig::dtlb(entries, ways)),
        }
    }

    /// Number of translation entries.
    pub fn entries(&self) -> usize {
        self.cache.config().lines()
    }

    /// Looks up (and on miss, fills) the translation for a virtual address.
    pub fn translate(&mut self, vaddr: u64, now: u64) -> AccessOutcome {
        self.cache.access(vaddr, now)
    }

    /// Access statistics.
    pub fn stats(&self) -> &CacheStats {
        self.cache.stats()
    }

    /// Instantaneous fraction of entries holding a valid translation.
    pub fn valid_fraction(&self) -> f64 {
        self.cache.valid_fraction()
    }

    /// The underlying cache, for the NBTI inversion schemes.
    pub fn cache_mut(&mut self) -> &mut SetAssocCache {
        &mut self.cache
    }

    /// The underlying cache, read-only.
    pub fn cache(&self) -> &SetAssocCache {
        &self.cache
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_granularity() {
        let mut tlb = Dtlb::new(32, 8);
        tlb.translate(0x0000, 0);
        assert!(tlb.translate(0x0FFF, 1).hit, "same 4KB page");
        assert!(!tlb.translate(0x1000, 2).hit, "next page misses");
    }

    #[test]
    fn capacity_misses_appear_when_pages_exceed_entries() {
        let mut small = Dtlb::new(32, 8);
        let mut large = Dtlb::new(128, 8);
        // Touch 64 pages twice.
        for round in 0..2 {
            for p in 0..64u64 {
                let now = round * 64 + p;
                small.translate(p * PAGE_BYTES, now);
                large.translate(p * PAGE_BYTES, now);
            }
        }
        assert!(small.stats().misses() > large.stats().misses());
        assert_eq!(large.stats().misses(), 64, "128 entries hold 64 pages");
    }

    #[test]
    fn entries_reported() {
        assert_eq!(Dtlb::new(128, 8).entries(), 128);
    }
}
