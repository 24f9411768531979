//! Structure-of-arrays event batches for the data-oriented hot path.
//!
//! The commit-stream consumer (the judging stage ahead of commit) is a
//! set of throughput-bound loops over a handful of per-event fields. Pulling those
//! fields out of [`TraceInst`] into parallel columns lets the hot loops scan
//! contiguous `u64`/`u8` arrays — branchless compares over `addr[]` instead
//! of an `Option<u64>` match per event — while the full authoritative
//! [`TraceInst`] records ride along for the exact (slow-path) cases.
//!
//! A batch is strictly seq-ordered: events are appended in trace order and
//! judged in trace order, which is what keeps batched verdicts bit-identical
//! to per-event judging (see `fireguard-kernels::Semantics::judge_batch`).

use crate::event::TraceInst;

/// Default number of events per batch on the batched judging path.
///
/// Large enough to amortise per-batch overhead (refill, per-kernel judge
/// dispatch) to noise and give the column loops real vector width; small
/// enough that a batch stays cache-resident and the judging look-ahead
/// stays tiny relative to a session.
pub const BATCH_EVENTS: usize = 256;

/// Column value in [`EventBatch::addr`] for events without a memory access.
///
/// `u64::MAX` can never be a real effective address here: every generated or
/// decoded address fits the canonical range, and the kernels' `[lo, hi)`
/// bounds always satisfy `hi < u64::MAX`, so the sentinel also fails any
/// in-bounds compare without a separate presence check.
pub const NO_ADDR: u64 = u64::MAX;

/// A fixed-capacity, seq-ordered batch of trace events in structure-of-arrays
/// form: hot per-event fields as parallel columns, plus the authoritative
/// `TraceInst` rows for exact slow paths.
#[derive(Debug, Default, Clone)]
pub struct EventBatch {
    /// Authoritative event records, in seq order.
    insts: Vec<TraceInst>,
    /// Effective addresses ([`NO_ADDR`] when the event has none).
    pub addr: Vec<u64>,
    /// Program counters.
    pub pc: Vec<u64>,
    /// Instruction-class indices (`InstClass as u8`).
    pub class: Vec<u8>,
    /// True where the event carries a heap (malloc/free) side event.
    pub heap: Vec<bool>,
    /// Per-event verdict bytes (bit *k* = kernel slot *k*), filled by the
    /// judging stage; zeroed on refill.
    pub verdicts: Vec<u8>,
}

impl EventBatch {
    /// An empty batch with room for `cap` events in every column.
    pub fn with_capacity(cap: usize) -> Self {
        EventBatch {
            insts: Vec::with_capacity(cap),
            addr: Vec::with_capacity(cap),
            pc: Vec::with_capacity(cap),
            class: Vec::with_capacity(cap),
            heap: Vec::with_capacity(cap),
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

    /// The authoritative event rows, in seq order.
    #[inline]
    pub fn events(&self) -> &[TraceInst] {
        &self.insts
    }

    /// Clears all columns, keeping their capacity.
    pub fn clear(&mut self) {
        self.insts.clear();
        self.addr.clear();
        self.pc.clear();
        self.class.clear();
        self.heap.clear();
        self.verdicts.clear();
    }

    /// Appends one event, mirroring its hot fields into the columns.
    #[inline]
    pub fn push(&mut self, t: TraceInst) {
        self.addr.push(t.mem_addr.unwrap_or(NO_ADDR));
        self.pc.push(t.pc);
        self.class.push(t.class as u8);
        self.heap.push(t.heap.is_some());
        self.verdicts.push(0);
        self.insts.push(t);
    }

    /// Clears the batch and refills it with up to `max` events from `src`,
    /// returning how many were taken (0 means the source is exhausted).
    ///
    /// The rows land first and the columns are derived in per-column
    /// passes: five tight transform loops over a contiguous `TraceInst`
    /// slice beat interleaving six `Vec` pushes per event (the row push
    /// path [`EventBatch::push`] exists for incremental callers).
    pub fn refill(&mut self, src: &mut impl Iterator<Item = TraceInst>, max: usize) -> usize {
        self.clear();
        self.insts.extend(src.take(max));
        self.addr
            .extend(self.insts.iter().map(|t| t.mem_addr.unwrap_or(NO_ADDR)));
        self.pc.extend(self.insts.iter().map(|t| t.pc));
        self.class.extend(self.insts.iter().map(|t| t.class as u8));
        self.heap
            .extend(self.insts.iter().map(|t| t.heap.is_some()));
        self.verdicts.resize(self.insts.len(), 0);
        self.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TraceGenerator, WorkloadProfile};

    #[test]
    fn columns_mirror_rows_exactly() {
        let mut g = TraceGenerator::new(WorkloadProfile::parsec("dedup").unwrap(), 7);
        let mut b = EventBatch::with_capacity(BATCH_EVENTS);
        assert_eq!(b.refill(&mut g, BATCH_EVENTS), BATCH_EVENTS);
        assert_eq!(b.len(), BATCH_EVENTS);
        for (i, t) in b.events().iter().enumerate() {
            assert_eq!(b.addr[i], t.mem_addr.unwrap_or(NO_ADDR));
            assert_eq!(b.pc[i], t.pc);
            assert_eq!(b.class[i], t.class as u8);
            assert_eq!(b.heap[i], t.heap.is_some());
            assert_eq!(b.verdicts[i], 0);
            if i > 0 {
                assert_eq!(t.seq, b.events()[i - 1].seq + 1, "seq-ordered");
            }
        }
    }

    #[test]
    fn refill_on_exhausted_source_returns_zero() {
        let mut empty = std::iter::empty();
        let mut b = EventBatch::with_capacity(8);
        b.push(
            TraceGenerator::new(WorkloadProfile::parsec("dedup").unwrap(), 1)
                .next()
                .unwrap(),
        );
        assert_eq!(b.refill(&mut empty, 8), 0);
        assert!(b.is_empty());
    }

    #[test]
    fn short_refill_takes_the_tail() {
        let mut g = TraceGenerator::new(WorkloadProfile::parsec("x264").unwrap(), 3).take(10);
        let mut b = EventBatch::with_capacity(BATCH_EVENTS);
        assert_eq!(b.refill(&mut g, 256), 10);
        assert_eq!(b.refill(&mut g, 256), 0);
    }
}
