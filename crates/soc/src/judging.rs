//! The judging stage: every kernel's verdict on an event, computed before
//! the event reaches commit.
//!
//! # Why this is legal
//!
//! Kernel verdicts are **pure functions of the event-stream prefix in seq
//! order** ([`Semantics`] implementations may touch nothing but their own
//! state and the events). The core commits events in exactly that order,
//! so the verdict of event *n* can be computed any time before the cycle
//! in which event *n* commits — the timing simulation never feeds back
//! into the verdicts.
//!
//! [`JudgedTrace`] judges on the core's own trace pull: it takes events in
//! [`BATCH_EVENTS`]-sized batches ([`EventBatch`]), runs every kernel's
//! batched judge over the batch, and deposits the verdicts in the
//! seq-ordered [`VerdictWindow`] before it yields the batch's first event.
//! The commit-stage frontend reads the verdict at the window front when
//! it offers an event, and consumes it only once the offer is accepted.

use fireguard_kernels::{KernelId, Semantics};
use fireguard_trace::{EventBatch, TraceInst, BATCH_EVENTS};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

/// The seq-ordered verdict hand-off between the judging stage and the
/// commit-stage frontend.
///
/// The judging side pushes `(seq, verdict)` pairs in seq order *before*
/// the corresponding events are yielded to the core; the frontend reads
/// the front entry matching the committing seq and pops it once the offer
/// is accepted, so every event is judged exactly once.
#[derive(Debug, Default)]
pub struct VerdictWindow {
    q: VecDeque<(u64, u8)>,
}

impl VerdictWindow {
    /// An empty window.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one judged event (called in seq order by the judging side).
    #[inline]
    pub fn push(&mut self, seq: u64, verdict: u8) {
        self.q.push_back((seq, verdict));
    }

    /// Appends one judged batch: `events[i]` got `verdicts[i]`. One
    /// reserve + bulk extend instead of a checked push per event.
    #[inline]
    pub fn push_judged(&mut self, events: &[TraceInst], verdicts: &[u8]) {
        debug_assert_eq!(events.len(), verdicts.len());
        self.q
            .extend(events.iter().map(|t| t.seq).zip(verdicts.iter().copied()));
    }

    /// The verdict for the committing event `seq`, without consuming it
    /// (commit may retry the same event next cycle after a refusal).
    /// Entries older than `seq` are discarded — they were judged for
    /// events the core never offered (possible only across run
    /// boundaries, never mid-stream).
    ///
    /// # Panics
    ///
    /// Panics if `seq` has no judged verdict: the trace-iterator contract
    /// (judge the batch before yielding any of its events) was broken.
    #[inline]
    pub fn verdict_for(&mut self, seq: u64) -> u8 {
        while let Some(&(s, v)) = self.q.front() {
            if s < seq {
                self.q.pop_front();
                continue;
            }
            if s == seq {
                return v;
            }
            break;
        }
        panic!("event {seq} reached commit without a judged verdict");
    }

    /// Consumes the front entry once its offer was accepted.
    #[inline]
    pub fn consume(&mut self, seq: u64) {
        if let Some(&(s, _)) = self.q.front() {
            if s == seq {
                self.q.pop_front();
            }
        }
    }

    /// Judged-but-unconsumed entries (look-ahead depth).
    pub fn len(&self) -> usize {
        self.q.len()
    }

    /// True when no judged verdicts are pending.
    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }
}

/// Fresh judging state machines for a deployment, in slot order (slot =
/// verdict bit).
pub fn fresh_judges(kernels: &[KernelId]) -> Vec<(u8, Box<dyn Semantics>)> {
    kernels
        .iter()
        .enumerate()
        .map(|(vbit, id)| (vbit as u8, id.semantics()))
        .collect()
}

/// Runs every kernel's batched judge over `batch`, leaving the OR-ed
/// verdict bytes in `batch.verdicts`.
fn judge_batch_into(judges: &mut [(u8, Box<dyn Semantics>)], batch: &mut EventBatch) {
    // The verdict column is detached while judging so the batch can be
    // borrowed immutably; `refill` left it zeroed at batch length.
    let mut out = std::mem::take(&mut batch.verdicts);
    debug_assert_eq!(out.len(), batch.len());
    for (vbit, sem) in judges.iter_mut() {
        sem.judge_batch(batch, *vbit, &mut out);
    }
    batch.verdicts = out;
}

/// The judged trace: pulls events from the source in
/// [`BATCH_EVENTS`]-sized batches, judges each batch inline through the
/// deployment's kernels, deposits the verdicts in the shared
/// [`VerdictWindow`], then yields the events one at a time to the core.
pub struct JudgedTrace<I> {
    src: I,
    judges: Vec<(u8, Box<dyn Semantics>)>,
    window: Rc<RefCell<VerdictWindow>>,
    batch: EventBatch,
    pos: usize,
}

impl<I: Iterator<Item = TraceInst>> JudgedTrace<I> {
    /// Wraps `src`, judging through fresh semantics for `kernels` (slot
    /// order = verdict bit order).
    pub fn new(src: I, kernels: &[KernelId], window: Rc<RefCell<VerdictWindow>>) -> Self {
        JudgedTrace {
            src,
            judges: fresh_judges(kernels),
            window,
            batch: EventBatch::with_capacity(BATCH_EVENTS),
            pos: 0,
        }
    }
}

impl<I: Iterator<Item = TraceInst>> Iterator for JudgedTrace<I> {
    type Item = TraceInst;

    fn next(&mut self) -> Option<TraceInst> {
        if self.pos >= self.batch.len() {
            if self.batch.refill(&mut self.src, BATCH_EVENTS) == 0 {
                return None;
            }
            judge_batch_into(&mut self.judges, &mut self.batch);
            self.window
                .borrow_mut()
                .push_judged(self.batch.events(), &self.batch.verdicts);
            self.pos = 0;
        }
        let t = self.batch.events()[self.pos];
        self.pos += 1;
        Some(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fireguard_trace::{TraceGenerator, WorkloadProfile};

    fn gen(seed: u64) -> TraceGenerator {
        TraceGenerator::new(WorkloadProfile::parsec("dedup").unwrap(), seed)
    }

    const KERNELS: &[KernelId] = &[
        KernelId::PMC,
        KernelId::SHADOW_STACK,
        KernelId::ASAN,
        KernelId::UAF,
    ];

    /// Serial per-event judging: the reference stream.
    fn reference(n: usize) -> Vec<(TraceInst, u8)> {
        let mut judges = fresh_judges(KERNELS);
        gen(9)
            .take(n)
            .map(|t| {
                let mut v = 0u8;
                for (vbit, sem) in judges.iter_mut() {
                    if sem.judge(&t) {
                        v |= 1 << *vbit;
                    }
                }
                (t, v)
            })
            .collect()
    }

    fn drain<I: Iterator<Item = TraceInst>>(
        mut it: I,
        window: &Rc<RefCell<VerdictWindow>>,
        n: usize,
    ) -> Vec<(TraceInst, u8)> {
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let t = it.next().expect("stream");
            let mut w = window.borrow_mut();
            let v = w.verdict_for(t.seq);
            w.consume(t.seq);
            out.push((t, v));
        }
        out
    }

    #[test]
    fn serial_judged_trace_matches_per_event_judging() {
        let n = 3 * BATCH_EVENTS + 17; // straddle batch boundaries
        let window = Rc::new(RefCell::new(VerdictWindow::new()));
        let jt = JudgedTrace::new(gen(9).take(n), KERNELS, Rc::clone(&window));
        let got = drain(jt, &window, n);
        let want = reference(n);
        for ((gt, gv), (wt, wv)) in got.iter().zip(&want) {
            assert_eq!(gt.seq, wt.seq);
            assert_eq!(gv, wv, "verdict mismatch at seq {}", gt.seq);
        }
    }

    #[test]
    fn window_discards_stale_and_panics_on_missing() {
        let mut w = VerdictWindow::new();
        w.push(10, 1);
        w.push(11, 2);
        w.push(12, 0);
        assert_eq!(w.verdict_for(11), 2, "stale seq 10 discarded");
        assert_eq!(w.verdict_for(11), 2, "retry reads the same verdict");
        w.consume(11);
        assert_eq!(w.verdict_for(12), 0);
        let r = std::panic::catch_unwind(move || w.verdict_for(13));
        assert!(r.is_err(), "unjudged seq must panic loudly");
    }
}
