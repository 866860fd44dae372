//! The Address Allocation Unit (Figure 8 of the paper).
//!
//! Register-file-cache space is allocated one bank per cached register (the
//! registers of a warp are interleaved across banks). The hardware keeps two
//! queues per warp — *unused* and *occupied* bank indices — and a global unit
//! of the same shape allocates warp-offset addresses (the per-warp slot
//! inside every bank). Both are modelled by [`AllocationQueue`].

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

/// A FIFO allocator over a fixed pool of small indices (cache banks or
/// warp-offset slots).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AllocationQueue {
    unused: VecDeque<u8>,
    occupied: Vec<u8>,
}

impl AllocationQueue {
    /// Creates an allocator over indices `0..capacity`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or greater than 256.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0 && capacity <= 256, "capacity must be 1..=256");
        AllocationQueue {
            unused: (0..capacity as u16).map(|i| i as u8).collect(),
            occupied: Vec::with_capacity(capacity),
        }
    }

    /// Allocates the next free slot, moving it to the occupied queue.
    /// Returns `None` if every slot is in use.
    pub(crate) fn allocate(&mut self) -> Option<u8> {
        let slot = self.unused.pop_front()?;
        self.occupied.push(slot);
        Some(slot)
    }

    /// Releases a previously allocated slot.
    ///
    /// Releasing a slot that is not currently allocated is ignored (the
    /// hardware cannot express this situation; the model tolerates it so
    /// teardown code can be unconditional).
    pub(crate) fn release(&mut self, slot: u8) {
        if let Some(pos) = self.occupied.iter().position(|&s| s == slot) {
            self.occupied.swap_remove(pos);
            self.unused.push_back(slot);
        }
    }

    /// Releases every allocated slot.
    pub(crate) fn release_all(&mut self) {
        for slot in self.occupied.drain(..) {
            self.unused.push_back(slot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocation_exhausts_and_replenishes() {
        let mut q = AllocationQueue::new(3);
        assert_eq!(q.unused.len(), 3);
        let a = q.allocate().unwrap();
        let b = q.allocate().unwrap();
        let c = q.allocate().unwrap();
        assert_eq!(q.allocate(), None, "pool exhausted");
        assert_eq!(q.occupied.len(), 3);
        let mut all = vec![a, b, c];
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2]);
        q.release(b);
        assert_eq!(q.unused.len(), 1);
        assert_eq!(q.allocate(), Some(b), "released slot is reused");
    }

    #[test]
    fn release_all_resets_the_pool() {
        let mut q = AllocationQueue::new(4);
        let _ = q.allocate();
        let _ = q.allocate();
        q.release_all();
        assert_eq!(q.unused.len(), 4);
        assert!(q.occupied.is_empty());
    }

    #[test]
    fn double_release_is_ignored() {
        let mut q = AllocationQueue::new(2);
        let a = q.allocate().unwrap();
        q.release(a);
        q.release(a);
        assert_eq!(q.unused.len(), 2, "double release must not duplicate slots");
    }

    #[test]
    #[should_panic(expected = "1..=256")]
    fn zero_capacity_panics() {
        let _ = AllocationQueue::new(0);
    }

    #[test]
    fn fifo_order_is_preserved() {
        let mut q = AllocationQueue::new(3);
        assert_eq!(q.allocate(), Some(0));
        q.release(0);
        // 0 went to the back of the unused queue: 1 and 2 come first.
        assert_eq!(q.allocate(), Some(1));
        assert_eq!(q.allocate(), Some(2));
        assert_eq!(q.allocate(), Some(0));
    }
}
