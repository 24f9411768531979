//! Commit-order kernel semantics (the exact, golden side of each kernel).
//!
//! [`Semantics::judge`] is called once per committed, subscribed
//! instruction, in program order. It updates kernel state (allocations,
//! quarantine, shadow stack, counters, taint, memory tags) and returns
//! whether this instruction violates the kernel's policy — the verdict bit
//! the µ-programs later branch on.
//!
//! Each registered kernel ships its own state machine in its plugin module
//! (see [`crate::plugins`]); this module holds the trait they implement
//! plus the region-tracking helpers the heap-watching kernels share.

use fireguard_trace::{EventBatch, TraceInst};
use std::collections::BTreeMap;

/// A commit-order kernel state machine.
///
/// Obtained fresh from [`crate::KernelSpec::semantics`]; the SoC frontend
/// owns one per deployed kernel and judges every committing instruction
/// through it. Implementations must be **pure functions of the event
/// stream**: no wall-clock, no OS randomness — the determinism contract
/// every golden test and `.fgt` replay is built on.
///
/// `Send` is a supertrait: state machines are plain owned data, never
/// shared handles, so a deployment's judges may be built on one thread
/// and run on another.
pub trait Semantics: std::fmt::Debug + Send {
    /// Judges one committed instruction in program order; returns `true`
    /// when it violates this kernel's policy.
    fn judge(&mut self, t: &TraceInst) -> bool;

    /// Judges a seq-ordered batch, OR-ing `1 << vbit` into `out[i]` for
    /// each violating event — the data-oriented form of [`Self::judge`].
    ///
    /// The default walks the batch through `judge` one event at a time;
    /// because trait defaults are instantiated per implementation, that
    /// loop is monomorphic (no per-event virtual dispatch). Hot kernels
    /// override it with branchless column scans over the batch's
    /// structure-of-arrays fields. Every override must stay bit-identical
    /// to the default — the registry conformance suite checks each
    /// registered kernel's batched verdicts against serial `judge`.
    fn judge_batch(&mut self, batch: &EventBatch, vbit: u8, out: &mut [u8]) {
        let bit = 1u8 << vbit;
        for (o, t) in out.iter_mut().zip(batch.events()) {
            if self.judge(t) {
                *o |= bit;
            }
        }
    }
}

/// Batched judging for the heap-bounds kernels (ASan, UaF, MTE): they all
/// fast-reject addresses outside a `[lo, hi)` bound that only heap events
/// can widen. Heap events delimit spans of constant bounds, so within a
/// span the candidate filter is a branchless compare over the batch's
/// `addr` column; only candidates (and the heap events themselves) take
/// the exact `judge` path. The filter condition is *exactly* the serial
/// fast path (`NO_ADDR` fails `a < hi` like any other out-of-bounds
/// address), so the verdicts are bit-identical by construction.
pub(crate) fn judge_batch_bounded<S: Semantics>(
    s: &mut S,
    bounds_of: impl Fn(&S) -> (u64, u64),
    batch: &EventBatch,
    bit: u8,
    out: &mut [u8],
) {
    let n = batch.len();
    let events = batch.events();
    let mut i = 0;
    while i < n {
        if batch.heap[i] {
            if s.judge(&events[i]) {
                out[i] |= bit;
            }
            i += 1;
            continue;
        }
        let mut j = i + 1;
        while j < n && !batch.heap[j] {
            j += 1;
        }
        let (lo, hi) = bounds_of(s);
        for k in i..j {
            let a = batch.addr[k];
            if a >= lo && a < hi && s.judge(&events[k]) {
                out[k] |= bit;
            }
        }
        i = j;
    }
}

/// Widens a `[lo, hi)` tracking bound to cover `[base - slack,
/// base + size + slack)`.
pub(crate) fn widen(bounds: &mut (u64, u64), base: u64, size: u64, slack: u64) {
    bounds.0 = bounds.0.min(base.saturating_sub(slack));
    bounds.1 = bounds
        .1
        .max(base.saturating_add(size).saturating_add(slack));
}

/// True when `addr` falls inside a `[base, base + size + slack)` region of
/// the map (keyed by base, valued by size).
pub(crate) fn region_contains(map: &BTreeMap<u64, u64>, addr: u64, slack: u64) -> bool {
    match map.range(..=addr).next_back() {
        Some((&base, &size)) => addr < base + size + slack,
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use crate::KernelId;
    use fireguard_trace::{
        AttackKind, AttackPlan, AttackingTrace, TraceGenerator, WorkloadProfile,
    };

    #[test]
    fn verdicts_match_injected_ground_truth_end_to_end() {
        // Run all four paper kernels over an attacked dedup trace: every
        // injected attack must be judged a violation by the responsible
        // kernel, and natural instructions must never be flagged by SS/PMC
        // (ASan/UaF naturals are exact too, by generator construction).
        let plan = AttackPlan::campaign(
            &[
                AttackKind::RetHijack,
                AttackKind::OutOfBounds,
                AttackKind::UseAfterFree,
                AttackKind::BoundsViolation,
            ],
            40,
            50_000,
            250_000,
            7,
        );
        let g = TraceGenerator::new(WorkloadProfile::parsec("dedup").unwrap(), 11);
        let mut trace = AttackingTrace::new(g, plan);
        let mut pmc = KernelId::PMC.semantics();
        let mut ss = KernelId::SHADOW_STACK.semantics();
        let mut asan = KernelId::ASAN.semantics();
        let mut uaf = KernelId::UAF.semantics();
        let mut detected = 0;
        let mut materialised = 0;
        for t in trace.by_ref().take(400_000) {
            let v_pmc = pmc.judge(&t);
            let v_ss = ss.judge(&t);
            let v_asan = asan.judge(&t);
            let v_uaf = uaf.judge(&t);
            if t.attack.is_some() {
                materialised += 1;
            }
            match t.attack {
                Some(AttackKind::RetHijack) => {
                    assert!(v_ss, "hijack at seq {}", t.seq);
                    detected += 1;
                }
                Some(AttackKind::OutOfBounds) => {
                    assert!(v_asan, "OOB at seq {}", t.seq);
                    detected += 1;
                }
                Some(AttackKind::UseAfterFree) => {
                    assert!(v_uaf && v_asan, "UaF at seq {}", t.seq);
                    detected += 1;
                }
                Some(AttackKind::BoundsViolation) => {
                    assert!(v_pmc, "bounds at seq {}", t.seq);
                    detected += 1;
                }
                None => {
                    assert!(!v_ss, "no natural SS violation at {}", t.seq);
                    assert!(!v_pmc, "no natural PMC violation at {}", t.seq);
                    assert!(!v_asan, "no natural ASan violation at {}", t.seq);
                    assert!(!v_uaf, "no natural UaF violation at {}", t.seq);
                }
            }
        }
        assert!(
            materialised >= 35,
            "most attacks materialised: {materialised}/40"
        );
        assert_eq!(
            detected, materialised,
            "every materialised attack was judged a violation"
        );
    }

    #[test]
    fn new_kernels_are_silent_on_natural_traces() {
        // The DIFT and MTE state machines derive everything from the
        // existing deterministic trace events; a natural stream must never
        // introduce taint or a tag mismatch.
        let g = TraceGenerator::new(WorkloadProfile::parsec("dedup").unwrap(), 11);
        let mut taint = KernelId::TAINT.semantics();
        let mut mte = KernelId::MTE.semantics();
        for t in g.take(300_000) {
            assert!(!taint.judge(&t), "natural taint violation at seq {}", t.seq);
            assert!(!mte.judge(&t), "natural tag mismatch at seq {}", t.seq);
        }
    }
}
