//! Heap contracts, enforced by `cargo test`.
//!
//! This binary installs a counting allocator as its global allocator and
//! pins two numbers with it:
//!
//! - **Zero allocation in the warm cycle loop.** Once a system is warm
//!   (ring buffers sized, caches and free lists populated), committing
//!   further instructions must not touch the heap.
//! - **A bounded serve session.** A served session holds the one EVENTS
//!   batch it last received plus one simulated system, whose cache
//!   models allocate only the tag pages the run touches. So its peak heap
//!   above the pre-session baseline stays under [`SESSION_PEAK_BUDGET`],
//!   and a short session's under [`SHORT_SESSION_PEAK_BUDGET`]. Run with
//!   `-- --nocapture` to print the measured peaks.
//!
//! The counters are process-wide, so each test holds one static lock
//! while it runs and the tests never mix.

use fireguard_server::{run_session, serve, ServeOptions, SessionConfig, DEFAULT_BATCH};
use fireguard_soc::{baseline_cycles, build_system, capture_events, ExperimentConfig, KernelId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

/// A [`System`]-backed allocator that counts allocations and
/// reallocations and tracks live and peak heap bytes (relaxed atomics;
/// the counters publish no other data).
struct CountingAllocator;

fn grew(bytes: usize) {
    let live = LIVE_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method delegates verbatim to `System` with the caller's
// arguments, so `System`'s guarantees carry over; the counters have no
// effect on the returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
            grew(new_size);
        }
        new
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Held by each test for its whole run, so one test's allocations never
/// land in the other's counters. It guards no data, so a test that
/// panicked holding it leaves nothing to repair.
static EXCLUSIVE: Mutex<()> = Mutex::new(());

fn exclusive() -> MutexGuard<'static, ()> {
    EXCLUSIVE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Allocations per event above which the warm cycle loop has broken the
/// contract (amortised slack for a rare table resize).
const STEADY_STATE_ALLOC_BUDGET: f64 = 0.001;

/// Peak heap above the pre-session baseline that a 20,000-instruction
/// served ASan session may reach: one received batch plus one simulated
/// system, mostly the cache models' touched tag pages. A worst-case
/// 65,536-event buffer (80 B per event) alone overshoots it.
const SESSION_PEAK_BUDGET: usize = 3 << 19;

/// The same for a 6,000-instruction PMC session, the short session of the
/// routed-open benchmark. Tag arrays allocated for the whole modelled
/// capacity (1.64 MiB per system) alone overshoot it.
const SHORT_SESSION_PEAK_BUDGET: usize = 512 << 10;

#[test]
fn warm_cycle_loop_does_not_allocate() {
    let _only = exclusive();
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

/// Serves one session of `cfg` on loopback in 512-event frames and
/// returns its peak heap above the idle service's baseline.
fn served_session_peak(cfg: &ExperimentConfig) -> usize {
    // The recording, its bare-core cycles and the idle service are
    // allocated before the heap baseline is read: what is measured is the
    // session's own heap.
    let base = baseline_cycles(&cfg.workload, cfg.seed, cfg.insts);
    let events = Arc::new(capture_events(cfg));
    let session = SessionConfig::from_experiment(cfg, base);
    let handle = serve(ServeOptions {
        addr: "127.0.0.1:0".to_owned(),
        workers: 1,
        ..ServeOptions::default()
    })
    .expect("bind loopback");
    let addr = handle.local_addr().to_string();

    let baseline = LIVE_BYTES.load(Ordering::Relaxed);
    PEAK_BYTES.store(baseline, Ordering::Relaxed);
    let out = run_session(&addr, &session, events, DEFAULT_BATCH).expect("session succeeds");
    let peak = PEAK_BYTES.load(Ordering::Relaxed) - baseline;
    handle.shutdown();

    assert!(
        out.summary.committed >= cfg.insts,
        "session completed: {}",
        out.summary.committed
    );
    peak
}

fn assert_peak_within(what: &str, peak: usize, budget: usize) {
    println!(
        "{what} peak heap above baseline: {} KiB (budget {} KiB)",
        peak >> 10,
        budget >> 10
    );
    assert!(
        peak < budget,
        "{what} peaked at {peak} B above baseline (budget {budget} B)"
    );
}

#[test]
fn served_session_peak_heap_is_bounded() {
    let _only = exclusive();
    let cfg = ExperimentConfig::new("dedup")
        .kernel(KernelId::ASAN, 4)
        .insts(20_000);
    let peak = served_session_peak(&cfg);
    assert_peak_within("served session", peak, SESSION_PEAK_BUDGET);
}

#[test]
fn short_session_holds_only_the_tag_pages_it_touches() {
    let _only = exclusive();
    let cfg = ExperimentConfig::new("swaptions")
        .kernel(KernelId::PMC, 4)
        .insts(6_000);
    let peak = served_session_peak(&cfg);
    assert_peak_within("short served session", peak, SHORT_SESSION_PEAK_BUDGET);
}
