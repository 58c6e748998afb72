//! Memory-order-buffer identifier allocation.
//!
//! Scheduler entries carry a 6-bit `MOB id` (Table 2). §4.5 observes that
//! MOB slots "are used evenly", so their bits are self-balanced and need no
//! protection — which this allocator reproduces by handing out ids in
//! circular order. The bits that age are the scheduler's `MobId` field,
//! whose residency the scheduler keeps.

/// Circular MOB id allocator.
#[derive(Debug, Clone)]
pub struct MobAllocator {
    capacity: u8,
    next: u8,
    in_use: u64,
}

impl MobAllocator {
    /// Creates an allocator with `capacity` slots (at most 64, to fit the
    /// 6-bit id field).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is 0 or exceeds 64.
    pub fn new(capacity: u8) -> Self {
        assert!((1..=64).contains(&capacity), "capacity must be in 1..=64");
        MobAllocator {
            capacity,
            next: 0,
            in_use: 0,
        }
    }

    /// Allocates the next id in circular order, or `None` when all slots
    /// are busy.
    pub fn allocate(&mut self) -> Option<u8> {
        for probe in 0..self.capacity {
            let id = (self.next + probe) % self.capacity;
            if self.in_use & (1 << id) == 0 {
                self.in_use |= 1 << id;
                self.next = (id + 1) % self.capacity;
                return Some(id);
            }
        }
        None
    }

    /// Releases a previously allocated id.
    ///
    /// # Panics
    ///
    /// Panics if the id was not allocated.
    pub fn release(&mut self, id: u8) {
        assert!(self.in_use & (1 << id) != 0, "releasing a free MOB id {id}");
        self.in_use &= !(1 << id);
    }

    /// Number of slots currently in use.
    pub fn in_use_count(&self) -> u32 {
        self.in_use.count_ones()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_order() {
        let mut mob = MobAllocator::new(4);
        assert_eq!(mob.allocate(), Some(0));
        assert_eq!(mob.allocate(), Some(1));
        mob.release(0);
        // Continues circularly rather than reusing 0 immediately.
        assert_eq!(mob.allocate(), Some(2));
        assert_eq!(mob.allocate(), Some(3));
        assert_eq!(mob.allocate(), Some(0));
        assert_eq!(mob.allocate(), None);
    }

    #[test]
    #[should_panic(expected = "free MOB id")]
    fn double_release_panics() {
        let mut mob = MobAllocator::new(4);
        let id = mob.allocate().unwrap();
        mob.release(id);
        mob.release(id);
    }

    #[test]
    fn in_use_count_tracks() {
        let mut mob = MobAllocator::new(8);
        assert_eq!(mob.in_use_count(), 0);
        let a = mob.allocate().unwrap();
        let _b = mob.allocate().unwrap();
        assert_eq!(mob.in_use_count(), 2);
        mob.release(a);
        assert_eq!(mob.in_use_count(), 1);
    }
}
