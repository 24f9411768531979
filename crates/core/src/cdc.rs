//! Clock-domain crossing between the 3.2 GHz and 1.6 GHz domains.
//!
//! The paper partitions FireGuard into a high-frequency domain (main core,
//! forwarding channel, filter, allocator) and a low-frequency domain
//! (fabric and µcores), connected with handshake-based CDC queues
//! (Table II: 8-entry).

use std::collections::VecDeque;

/// Derives slow-domain edges from the fast-domain cycle counter.
///
/// # Examples
///
/// ```
/// use fireguard_core::ClockDivider;
/// let d = ClockDivider::new(2); // 3.2 GHz → 1.6 GHz
/// assert!(d.is_slow_edge(0));
/// assert!(!d.is_slow_edge(1));
/// assert!(d.is_slow_edge(2));
/// assert_eq!(d.slow_cycle(7), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClockDivider {
    ratio: u64,
}

impl ClockDivider {
    /// Creates a divider with the given fast:slow ratio.
    ///
    /// # Panics
    ///
    /// Panics if `ratio` is zero.
    pub fn new(ratio: u64) -> Self {
        assert!(ratio > 0);
        ClockDivider { ratio }
    }

    /// True when the slow domain ticks at this fast cycle.
    pub fn is_slow_edge(&self, fast_cycle: u64) -> bool {
        fast_cycle % self.ratio == 0
    }

    /// The slow-domain cycle corresponding to a fast cycle.
    pub fn slow_cycle(&self, fast_cycle: u64) -> u64 {
        fast_cycle / self.ratio
    }

    /// The fast:slow ratio.
    pub fn ratio(&self) -> u64 {
        self.ratio
    }
}

/// A bounded handshake CDC queue.
///
/// Producers push in the fast domain; entries become visible to the slow
/// domain one slow cycle later (the handshake synchronisation latency).
#[derive(Debug, Clone)]
pub struct CdcQueue<T> {
    items: VecDeque<(T, u64)>, // (item, visible_at_slow_cycle)
    capacity: usize,
    divider: ClockDivider,
    refused: u64,
}

impl<T> CdcQueue<T> {
    /// Creates a queue of `capacity` entries across `divider`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize, divider: ClockDivider) -> Self {
        assert!(capacity > 0);
        CdcQueue {
            items: VecDeque::with_capacity(capacity),
            capacity,
            divider,
            refused: 0,
        }
    }

    /// Pushes from the fast domain at `fast_cycle`.
    ///
    /// # Errors
    ///
    /// Returns the item back when the queue is full (back-pressure).
    pub fn push(&mut self, item: T, fast_cycle: u64) -> Result<(), T> {
        if self.items.len() == self.capacity {
            self.refused += 1;
            return Err(item);
        }
        let visible = self.divider.slow_cycle(fast_cycle) + 1;
        self.items.push_back((item, visible));
        Ok(())
    }

    /// Pops from the slow domain at `slow_cycle`, if the head has
    /// synchronised.
    pub fn pop(&mut self, slow_cycle: u64) -> Option<T> {
        match self.items.front() {
            Some(&(_, visible)) if visible <= slow_cycle => self.items.pop_front().map(|(t, _)| t),
            _ => None,
        }
    }

    /// The slow cycle from which the head can be popped, if any.
    pub fn head_visible_at(&self) -> Option<u64> {
        self.items.front().map(|&(_, visible)| visible)
    }

    /// Occupancy.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// True when at capacity.
    pub fn is_full(&self) -> bool {
        self.items.len() == self.capacity
    }

    /// Pushes refused so far.
    pub fn refused(&self) -> u64 {
        self.refused
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q() -> CdcQueue<u32> {
        CdcQueue::new(8, ClockDivider::new(2))
    }

    #[test]
    fn handshake_latency_of_one_slow_cycle() {
        let mut c = q();
        c.push(7, 10).unwrap(); // slow cycle 5 → visible at 6
        assert_eq!(c.pop(5), None, "not yet synchronised");
        assert_eq!(c.pop(6), Some(7));
    }

    #[test]
    fn capacity_enforced_with_backpressure() {
        let mut c = CdcQueue::new(2, ClockDivider::new(2));
        c.push(1, 0).unwrap();
        c.push(2, 0).unwrap();
        assert_eq!(c.push(3, 0), Err(3));
        assert_eq!(c.refused(), 1);
        assert!(c.is_full());
        let _ = c.pop(10);
        c.push(3, 20).unwrap();
    }

    #[test]
    fn fifo_order_across_the_crossing() {
        let mut c = q();
        for i in 0..5 {
            c.push(i, i as u64).unwrap();
        }
        let mut out = Vec::new();
        let mut slow = 0;
        while out.len() < 5 {
            if let Some(v) = c.pop(slow) {
                out.push(v);
            } else {
                slow += 1;
            }
        }
        assert_eq!(out, [0, 1, 2, 3, 4]);
    }

    #[test]
    fn divider_edges() {
        let d = ClockDivider::new(2);
        let edges: Vec<bool> = (0..6).map(|c| d.is_slow_edge(c)).collect();
        assert_eq!(edges, [true, false, true, false, true, false]);
        assert_eq!(d.slow_cycle(11), 5);
    }

    #[test]
    #[should_panic]
    fn zero_ratio_rejected() {
        let _ = ClockDivider::new(0);
    }
}
