//! Seq-ordered event batches with a per-event verdict column.
//!
//! The simulator judges each event when it is first offered at commit and
//! never batches. This container remains for the benchmark's
//! `kernels.judge_batch` rung (`perfbench/`), which times
//! [`EventBatch::refill`] plus a per-event judge loop over each batch
//! (`<dyn Semantics>::judge_batch` in `fireguard-kernels`).

use crate::event::TraceInst;

/// Number of events per batch in the benchmark's batched judging rung.
pub const BATCH_EVENTS: usize = 256;

/// A seq-ordered batch of trace events plus one verdict byte per event.
#[derive(Debug, Default, Clone)]
pub struct EventBatch {
    /// Event records, in seq order.
    insts: Vec<TraceInst>,
    /// Per-event verdict bytes (bit *k* = kernel slot *k*); zeroed on
    /// refill.
    pub verdicts: Vec<u8>,
}

impl EventBatch {
    /// An empty batch with room for `cap` events.
    pub fn with_capacity(cap: usize) -> Self {
        EventBatch {
            insts: Vec::with_capacity(cap),
            verdicts: Vec::with_capacity(cap),
        }
    }

    /// Events currently in the batch.
    #[inline]
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// True when the batch holds no events.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// The event records, in seq order.
    #[inline]
    pub fn events(&self) -> &[TraceInst] {
        &self.insts
    }

    /// Clears the batch and refills it with up to `max` events from `src`,
    /// returning how many were taken (0 means the source is exhausted).
    pub fn refill(&mut self, src: &mut impl Iterator<Item = TraceInst>, max: usize) -> usize {
        self.insts.clear();
        self.insts.extend(src.take(max));
        self.verdicts.clear();
        self.verdicts.resize(self.insts.len(), 0);
        self.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TraceGenerator, WorkloadProfile};

    #[test]
    fn refill_on_exhausted_source_returns_zero() {
        let mut one = TraceGenerator::new(WorkloadProfile::parsec("dedup").unwrap(), 1).take(1);
        let mut b = EventBatch::with_capacity(8);
        assert_eq!(b.refill(&mut one, 8), 1);
        assert_eq!(b.refill(&mut one, 8), 0);
        assert!(b.is_empty());
        assert!(b.verdicts.is_empty());
    }

    #[test]
    fn short_refill_takes_the_tail() {
        let mut g = TraceGenerator::new(WorkloadProfile::parsec("x264").unwrap(), 3).take(10);
        let mut b = EventBatch::with_capacity(BATCH_EVENTS);
        assert_eq!(b.refill(&mut g, 256), 10);
        assert_eq!(b.refill(&mut g, 256), 0);
    }
}
