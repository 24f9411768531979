//! The zero-alloc cycle-loop contract, enforced by `cargo test`.
//!
//! Once a system is warm (ring buffers sized, caches and free lists
//! populated), committing further instructions must not touch the heap.
//! This binary installs a counting allocator as its global allocator and
//! counts the allocations of a warm run.

use fireguard_soc::{build_system, ExperimentConfig, KernelId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);

/// A [`System`]-backed allocator that counts allocations and
/// reallocations (one relaxed atomic add each; the count publishes no
/// other data).
struct CountingAllocator;

// SAFETY: every method delegates verbatim to `System` with the caller's
// arguments, so `System`'s guarantees carry over; the counter has no
// effect on the returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Allocations per event above which the warm cycle loop has broken the
/// contract (amortised slack for a rare table resize).
const STEADY_STATE_ALLOC_BUDGET: f64 = 0.001;

#[test]
fn warm_cycle_loop_does_not_allocate() {
    let insts = 20_000u64;
    let cfg = ExperimentConfig::new("swaptions")
        .kernel(KernelId::PMC, 4)
        .insts(insts)
        .seed(42);
    let mut sys = build_system(&cfg, cfg.trace());
    // Warm-up: queue growth, cache fills, allocator churn all happen here.
    let _ = sys.run_insts(insts / 2, 0);

    let before = ALLOC_COUNT.load(Ordering::Relaxed);
    let r = sys.run_insts(insts, 0);
    let allocs = ALLOC_COUNT.load(Ordering::Relaxed) - before;

    assert!(r.committed >= insts, "run completed: {}", r.committed);
    let per_event = allocs as f64 / (insts / 2) as f64;
    assert!(
        per_event <= STEADY_STATE_ALLOC_BUDGET,
        "steady-state cycle loop allocated: {allocs} allocations over {} events \
         ({per_event:.5}/event, budget {STEADY_STATE_ALLOC_BUDGET})",
        insts / 2
    );
}
