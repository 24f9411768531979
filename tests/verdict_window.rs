//! The judging stage's determinism argument, as a property test.
//!
//! `fireguard-soc::judging` judges events in [`BATCH_EVENTS`]-sized
//! batches ahead of commit and hands the verdicts to the commit-stage
//! frontend through a seq-ordered [`VerdictWindow`]. Any interleaving of
//! "push a judged chunk" and "commit the next event" — including a
//! refused offer re-reading its verdict before it is accepted — must
//! commit the same `(seq, verdict)` sequence as judging every event one
//! at a time. That is what makes batch size and look-ahead invisible to
//! cycles, packets, detections and `.fgt` replays.

use fireguard::kernels::KernelId;
use fireguard::soc::judging::fresh_judges;
use fireguard::soc::VerdictWindow;
use fireguard::trace::{EventBatch, TraceGenerator, TraceInst, WorkloadProfile, BATCH_EVENTS};
use proptest::prelude::*;
use std::collections::VecDeque;

const KERNELS: &[KernelId] = &[
    KernelId::PMC,
    KernelId::SHADOW_STACK,
    KernelId::ASAN,
    KernelId::UAF,
];

/// Serial per-event judging of `events`: the reference commit stream.
fn serial_reference(events: &[TraceInst]) -> Vec<(u64, u8)> {
    let mut judges = fresh_judges(KERNELS);
    events
        .iter()
        .map(|t| {
            let mut v = 0u8;
            for (vbit, sem) in judges.iter_mut() {
                if sem.judge(t) {
                    v |= 1 << *vbit;
                }
            }
            (t.seq, v)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any schedule of judged-chunk pushes and per-event commits over the
    /// [`VerdictWindow`] — randomized chunk sizes (1..=2 batches), a
    /// randomized push-vs-commit interleaving (how far judging runs ahead
    /// of commit), and randomized refusal retries (commit re-reading a
    /// verdict without consuming it) — reproduces the serial per-event
    /// judging order exactly.
    #[test]
    fn seq_ordered_commit_reproduces_serial_order(
        chunks in proptest::collection::vec(1usize..=2 * BATCH_EVENTS, 1..24),
        lead in proptest::collection::vec(any::<bool>(), 1..96),
        retries in proptest::collection::vec(0usize..3, 1..32),
        seed in 0u64..1_000,
    ) {
        let n: usize = chunks.iter().sum();
        let events: Vec<TraceInst> =
            TraceGenerator::new(WorkloadProfile::parsec("dedup").unwrap(), seed)
                .take(n)
                .collect();
        let want = serial_reference(&events);

        // The judging side: batched judging over the randomized chunk
        // sizes, pushed into the window in seq order — exactly what
        // `JudgedTrace` does per batch.
        let mut judges = fresh_judges(KERNELS);
        let mut src = events.iter().copied();
        let mut batch = EventBatch::with_capacity(2 * BATCH_EVENTS);
        let mut window = VerdictWindow::new();
        let mut pending: VecDeque<TraceInst> = VecDeque::new();
        let mut got: Vec<(u64, u8)> = Vec::with_capacity(n);
        let mut chunk_it = chunks.iter();
        let mut li = 0usize;
        let mut ri = 0usize;

        // Interleave "judge+push next chunk" with "commit next event"
        // according to the randomized lead schedule, then drain.
        loop {
            // Push when the schedule says so, or when the commit side has
            // nothing pending (the core can never run ahead of judging).
            let push_next = lead[li % lead.len()] || pending.is_empty();
            li += 1;
            if push_next {
                if let Some(&c) = chunk_it.next() {
                    batch.refill(&mut src, c);
                    let mut out = std::mem::take(&mut batch.verdicts);
                    for (vbit, sem) in judges.iter_mut() {
                        sem.judge_batch(&batch, *vbit, &mut out);
                    }
                    batch.verdicts = out;
                    window.push_judged(batch.events(), &batch.verdicts);
                    pending.extend(batch.events().iter().copied());
                    continue;
                }
            }
            let Some(t) = pending.pop_front() else {
                break; // chunks exhausted and everything committed
            };
            // A refused offer re-reads the same verdict next cycle
            // without consuming it; the retry must be idempotent.
            let v = window.verdict_for(t.seq);
            for _ in 0..retries[ri % retries.len()] {
                prop_assert_eq!(window.verdict_for(t.seq), v, "retry changed the verdict");
            }
            ri += 1;
            window.consume(t.seq);
            got.push((t.seq, v));
        }

        prop_assert_eq!(got, want);
        prop_assert!(window.is_empty(), "every judged verdict was consumed");
    }
}
