//! The `fireguard bench` performance harness.
//!
//! Every PR must make a hot path *measurably* faster, which needs an
//! instrument: this module defines a small registry of end-to-end and
//! component throughput scenarios, times them with warmup/sample control,
//! counts heap allocations through [`CountingAllocator`], and renders the
//! results as a standard [`Report`] plus a machine-readable JSON baseline
//! (`BENCH_*.json`) that CI diffs against to catch regressions.
//!
//! Scenario metrics:
//!
//! * `events/s` — trace events processed per wall-clock second (the
//!   primary regression-gated figure of merit);
//! * `cycles/s` — simulated fast-domain cycles per second, where the
//!   scenario runs a cycle-accurate model;
//! * `ns/event` — the inverse of `events/s`, for intuition;
//! * `allocs/event` — heap allocations per event in the measured region.
//!   The `steady-state` scenario must stay at (amortised) zero: the cycle
//!   loop is not allowed to allocate per event once warm.
//!
//! Timing is wall-clock and therefore machine-dependent; the committed
//! baseline records the numbers for the reference container, and the
//! regression gate ([`check_against`]) allows 10 % of noise before
//! failing. Event *counts* and simulated cycles are deterministic.

use crate::figures::{find, FigOpts};
use fireguard_soc::{
    build_system_auto, capture_events, Cell, ExperimentConfig, KernelId, Report, Table,
};
use fireguard_trace::codec;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

// ---- counting allocator ----------------------------------------------------

static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);

/// A [`System`]-backed global allocator that counts allocations.
///
/// The `fireguard` binary (and this crate's alloc-contract test) install it
/// with `#[global_allocator]`; the only overhead is one relaxed atomic
/// increment per allocation, so it stays enabled in release builds and the
/// bench harness can report `allocs/event` for free.
pub struct CountingAllocator;

// SAFETY: delegates allocation verbatim to `System`; the counter has no
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

/// Heap allocations observed so far (0 until a [`CountingAllocator`] is
/// installed as the global allocator).
pub fn allocations() -> u64 {
    ALLOC_COUNT.load(Ordering::Relaxed)
}

// ---- harness ---------------------------------------------------------------

/// Knobs for one bench invocation.
#[derive(Debug, Clone)]
pub struct PerfOpts {
    /// Instructions per simulation run.
    pub insts: u64,
    /// Trace seed.
    pub seed: u64,
    /// Sweep workers for the end-to-end figure scenario.
    pub workers: usize,
    /// Untimed runs before sampling.
    pub warmup: usize,
    /// Timed samples (the best one is reported).
    pub samples: usize,
    /// In-session stage-pipeline width (1 = serial, 0 = auto-size to the
    /// host). Event counts and cycles are bit-identical at every width;
    /// only wall clock moves.
    pub pipeline: u32,
}

impl PerfOpts {
    /// Defaults mirroring the figure drivers: environment-driven insts and
    /// seed, one warmup run, three samples.
    pub fn from_env() -> PerfOpts {
        let f = FigOpts::from_env();
        PerfOpts {
            insts: f.insts,
            seed: f.seed,
            workers: f.workers,
            warmup: 1,
            samples: 3,
            pipeline: f.pipeline,
        }
    }
}

/// The host CPU count recorded in baselines: a 1-CPU container cannot
/// show stage-parallel speedups, so every `BENCH_*.json` carries the
/// parallelism the numbers were measured under.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One timed scenario outcome.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// Registry name.
    pub name: &'static str,
    /// Events processed per sample.
    pub events: u64,
    /// Simulated fast-domain cycles per sample (0 when not applicable).
    pub cycles: u64,
    /// Best-sample wall time, seconds.
    pub secs: f64,
    /// Heap allocations in the best sample's measured region.
    pub allocs: u64,
}

impl ScenarioResult {
    /// Events per wall-clock second.
    pub fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.secs.max(1e-12)
    }

    /// Simulated cycles per wall-clock second (0 when not applicable).
    pub fn cycles_per_sec(&self) -> f64 {
        self.cycles as f64 / self.secs.max(1e-12)
    }

    /// Nanoseconds per event.
    pub fn ns_per_event(&self) -> f64 {
        self.secs * 1e9 / self.events.max(1) as f64
    }

    /// Heap allocations per event.
    pub fn allocs_per_event(&self) -> f64 {
        self.allocs as f64 / self.events.max(1) as f64
    }
}

/// Times `f` under `opts`' warmup/sample policy and returns the best
/// (fastest) sample. `f` must perform the *whole* measured region — any
/// setup it should exclude belongs outside, captured by its closure.
fn best_of(opts: &PerfOpts, mut f: impl FnMut() -> (u64, u64)) -> (u64, u64, f64, u64) {
    for _ in 0..opts.warmup {
        let _ = f();
    }
    let mut best: Option<(u64, u64, f64, u64)> = None;
    for _ in 0..opts.samples.max(1) {
        let allocs0 = allocations();
        let t0 = Instant::now();
        let (events, cycles) = f();
        let secs = t0.elapsed().as_secs_f64();
        let allocs = allocations() - allocs0;
        if best.is_none() || secs < best.as_ref().expect("just checked").2 {
            best = Some((events, cycles, secs, allocs));
        }
    }
    best.expect("at least one sample")
}

/// One registry entry.
pub struct Scenario {
    /// CLI name (`--scenario` filter).
    pub name: &'static str,
    /// One-line description for the report.
    pub summary: &'static str,
    /// The driver.
    pub run: fn(&PerfOpts) -> ScenarioResult,
}

/// The bench registry, in report order.
pub const SCENARIOS: &[Scenario] = &[
    Scenario {
        name: "fig7a",
        summary: "end-to-end fig7a grid (90 workload x kernel jobs)",
        run: bench_fig7a,
    },
    Scenario {
        name: "e2e-asan",
        summary: "one full system: dedup, Sanitizer on 4 ucores",
        run: bench_e2e_asan,
    },
    Scenario {
        name: "e2e-pmc-ha",
        summary: "one full system: x264, PMC on a hardware accelerator",
        run: bench_e2e_pmc_ha,
    },
    Scenario {
        name: "e2e-taint",
        summary: "one full system: dedup, DIFT taint tracker on 4 ucores",
        run: bench_e2e_taint,
    },
    Scenario {
        name: "e2e-mte",
        summary: "one full system: dedup, MTE lock-and-key on 4 ucores",
        run: bench_e2e_mte,
    },
    Scenario {
        name: "e2e-all",
        summary: "one full system: dedup, all registered kernels at once",
        run: bench_e2e_all,
    },
    Scenario {
        name: "steady-state",
        summary: "warm cycle loop (swaptions, PMC x 4u); must not allocate",
        run: bench_steady_state,
    },
    Scenario {
        name: "gen",
        summary: "raw trace generation (dedup profile)",
        run: bench_gen,
    },
    Scenario {
        name: "core",
        summary: "bare OoO core, no FireGuard (swaptions)",
        run: bench_core,
    },
    Scenario {
        name: "codec",
        summary: ".fgt encode + decode round trip",
        run: bench_codec,
    },
    Scenario {
        name: "loopback",
        summary: "served session over TCP loopback",
        run: bench_loopback,
    },
    Scenario {
        name: "routed",
        summary: "ticketed session through the router tier (2 backends)",
        run: bench_routed,
    },
];

/// Looks up a scenario by name.
pub fn find_scenario(name: &str) -> Option<&'static Scenario> {
    SCENARIOS.iter().find(|s| s.name == name)
}

// ---- scenarios -------------------------------------------------------------

/// The fig7a figure is 10 runs per workload over 9 workloads; its nominal
/// event count (the regression denominator) is the commit budget times the
/// job count. Software-instrumented jobs execute *more* instructions than
/// the budget, so the reported events/s is a conservative floor.
pub const FIG7A_JOBS: u64 = 90;

fn bench_fig7a(o: &PerfOpts) -> ScenarioResult {
    let fig = find("fig7a").expect("fig7a is registered");
    let opts = FigOpts {
        insts: o.insts,
        seed: o.seed,
        workers: o.workers,
        pipeline: o.pipeline,
    };
    let (events, cycles, secs, allocs) = best_of(o, || {
        let report = (fig.run)(&opts);
        assert!(!report.blocks.is_empty());
        (FIG7A_JOBS * o.insts, 0)
    });
    ScenarioResult {
        name: "fig7a",
        events,
        cycles,
        secs,
        allocs,
    }
}

fn e2e(name: &'static str, o: &PerfOpts, cfg: ExperimentConfig) -> ScenarioResult {
    let cfg = cfg.pipeline(o.pipeline);
    let (events, cycles, secs, allocs) = best_of(o, || {
        let mut sys = build_system_auto(&cfg);
        let r = sys.run_insts(cfg.insts, 0);
        (r.committed, r.cycles)
    });
    ScenarioResult {
        name,
        events,
        cycles,
        secs,
        allocs,
    }
}

fn bench_e2e_asan(o: &PerfOpts) -> ScenarioResult {
    e2e(
        "e2e-asan",
        o,
        ExperimentConfig::new("dedup")
            .kernel(KernelId::ASAN, 4)
            .insts(o.insts)
            .seed(o.seed),
    )
}

fn bench_e2e_pmc_ha(o: &PerfOpts) -> ScenarioResult {
    e2e(
        "e2e-pmc-ha",
        o,
        ExperimentConfig::new("x264")
            .kernel_ha(KernelId::PMC)
            .insts(o.insts)
            .seed(o.seed),
    )
}

fn bench_e2e_taint(o: &PerfOpts) -> ScenarioResult {
    e2e(
        "e2e-taint",
        o,
        ExperimentConfig::new("dedup")
            .kernel(KernelId::TAINT, 4)
            .insts(o.insts)
            .seed(o.seed),
    )
}

fn bench_e2e_mte(o: &PerfOpts) -> ScenarioResult {
    e2e(
        "e2e-mte",
        o,
        ExperimentConfig::new("dedup")
            .kernel(KernelId::MTE, 4)
            .insts(o.insts)
            .seed(o.seed),
    )
}

/// Every registered kernel in one system — the packet-layout-v2 wide
/// deployment (verdict bits past the old nibble live), two µcores each.
fn bench_e2e_all(o: &PerfOpts) -> ScenarioResult {
    let mut cfg = ExperimentConfig::new("dedup").insts(o.insts).seed(o.seed);
    for spec in fireguard_soc::registry() {
        cfg = cfg.kernel(spec.id(), 2);
    }
    e2e("e2e-all", o, cfg)
}

fn bench_steady_state(o: &PerfOpts) -> ScenarioResult {
    // Setup *outside* the measured region: build the system and run it past
    // its warm-up transient (queue growth, cache fills, free-list churn),
    // then time a continued run. This is the region the zero-alloc
    // contract covers.
    let cfg = ExperimentConfig::new("swaptions")
        .kernel(KernelId::PMC, 4)
        .insts(o.insts)
        .seed(o.seed)
        .pipeline(o.pipeline);
    let mut sys = build_system_auto(&cfg);
    let warm = (o.insts / 2).max(1);
    let _ = sys.run_insts(warm, 0);
    let mut target = warm;
    let (events, cycles, secs, allocs) = best_of(o, || {
        let before = sys.core_stats().committed;
        let cycles_before = sys.core_stats().cycles;
        target += o.insts;
        let r = sys.run_insts(target, 0);
        (r.committed - before, r.cycles - cycles_before)
    });
    ScenarioResult {
        name: "steady-state",
        events,
        cycles,
        secs,
        allocs,
    }
}

/// Micro-scenarios repeat their kernel so the measured region is long
/// enough (~10 ms at the quick budget) for wall-clock noise to average
/// out; `events` scales with the repetitions, so events/s is unaffected.
const MICRO_REPEATS: u64 = 4;

fn bench_gen(o: &PerfOpts) -> ScenarioResult {
    use fireguard_trace::{TraceGenerator, WorkloadProfile};
    let profile = WorkloadProfile::parsec("dedup").expect("known workload");
    let (events, cycles, secs, allocs) = best_of(o, || {
        let mut sum = 0u64;
        let mut n = 0u64;
        for rep in 0..MICRO_REPEATS {
            let g = TraceGenerator::new(profile.clone(), o.seed + rep);
            for t in g.take(o.insts as usize) {
                sum = sum.wrapping_add(t.pc);
                n += 1;
            }
        }
        std::hint::black_box(sum);
        (n, 0)
    });
    ScenarioResult {
        name: "gen",
        events,
        cycles,
        secs,
        allocs,
    }
}

fn bench_core(o: &PerfOpts) -> ScenarioResult {
    use fireguard_boom::{BoomConfig, Core, NullSink};
    use fireguard_trace::{TraceGenerator, WorkloadProfile};
    let profile = WorkloadProfile::parsec("swaptions").expect("known workload");
    let (events, cycles, secs, allocs) = best_of(o, || {
        let trace = TraceGenerator::new(profile.clone(), o.seed);
        let mut core = Core::new(BoomConfig::default(), trace);
        let stats = core.run_insts(o.insts, &mut NullSink);
        (stats.committed, stats.cycles)
    });
    ScenarioResult {
        name: "core",
        events,
        cycles,
        secs,
        allocs,
    }
}

fn bench_codec(o: &PerfOpts) -> ScenarioResult {
    let cfg = ExperimentConfig::new("dedup").insts(o.insts).seed(o.seed);
    let events = capture_events(&cfg);
    let meta = codec::TraceMeta {
        workload: "dedup".to_owned(),
        seed: o.seed,
        insts: o.insts,
        baseline_cycles: 0,
        events: events.len() as u64,
    };
    let (n, cycles, secs, allocs) = best_of(o, || {
        let mut n = 0u64;
        for _ in 0..MICRO_REPEATS {
            let mut buf = Vec::with_capacity(events.len() * 10);
            codec::write_trace(&mut buf, &meta, &events).expect("encode");
            let (_, decoded) = codec::read_trace(&mut buf.as_slice()).expect("decode");
            assert_eq!(decoded.len(), events.len());
            n += events.len() as u64;
        }
        (n, 0)
    });
    ScenarioResult {
        name: "codec",
        events: n,
        cycles,
        secs,
        allocs,
    }
}

fn bench_loopback(o: &PerfOpts) -> ScenarioResult {
    use fireguard_server::{run_session, serve, ServeOptions, SessionConfig};
    let cfg = ExperimentConfig::new("swaptions")
        .kernel(KernelId::PMC, 4)
        .insts(o.insts)
        .seed(o.seed);
    let events = Arc::new(capture_events(&cfg));
    let session = SessionConfig::from_experiment(&cfg, 0);
    let handle = serve(ServeOptions {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        max_sessions: Some((o.warmup + o.samples.max(1)) as u64),
        ..ServeOptions::default()
    })
    .expect("loopback bind");
    let addr = handle.local_addr().to_string();
    let (events_n, cycles, secs, allocs) = best_of(o, || {
        let out = run_session(&addr, &session, Arc::clone(&events), 512).expect("loopback session");
        (out.events_sent, out.summary.cycles)
    });
    handle.join();
    ScenarioResult {
        name: "loopback",
        events: events_n,
        cycles,
        secs,
        allocs,
    }
}

/// The loopback scenario with the fleet front-end in the path: measures
/// what the router's decode → buffer → re-encode hop costs relative to
/// `loopback` (the two share a workload and client batch size on
/// purpose). Sessions are ticketed, so the full resumable protocol —
/// SESSION handshake, event buffering, ACK frames — is on the clock.
fn bench_routed(o: &PerfOpts) -> ScenarioResult {
    use fireguard_server::{
        route, run_routed_session, RoutedOptions, RouterOptions, SessionConfig,
    };
    use std::sync::atomic::{AtomicU64, Ordering};
    let cfg = ExperimentConfig::new("swaptions")
        .kernel(KernelId::PMC, 4)
        .insts(o.insts)
        .seed(o.seed);
    let events = Arc::new(capture_events(&cfg));
    let session = SessionConfig::from_experiment(&cfg, 0);
    let handle = route(RouterOptions {
        backend_workers: 1,
        max_sessions: Some((o.warmup + o.samples.max(1)) as u64),
        ..RouterOptions::default()
    })
    .expect("router bind");
    let addr = handle.local_addr().to_string();
    let next_id = AtomicU64::new(1);
    let (events_n, cycles, secs, allocs) = best_of(o, || {
        let id = next_id.fetch_add(1, Ordering::Relaxed);
        let out = run_routed_session(&addr, &session, Arc::clone(&events), RoutedOptions::new(id))
            .expect("routed session");
        (events.len() as u64, out.outcome.summary.cycles)
    });
    handle.join();
    ScenarioResult {
        name: "routed",
        events: events_n,
        cycles,
        secs,
        allocs,
    }
}

// ---- reporting -------------------------------------------------------------

/// Runs the selected scenarios (all of them when `names` is empty).
///
/// # Errors
///
/// Returns a message naming any unknown scenario.
pub fn run_scenarios(opts: &PerfOpts, names: &[String]) -> Result<Vec<ScenarioResult>, String> {
    let selected: Vec<&Scenario> = if names.is_empty() {
        SCENARIOS.iter().collect()
    } else {
        names
            .iter()
            .map(|n| {
                find_scenario(n).ok_or_else(|| {
                    format!(
                        "unknown bench scenario {n:?} (expected one of: {})",
                        SCENARIOS
                            .iter()
                            .map(|s| s.name)
                            .collect::<Vec<_>>()
                            .join(", ")
                    )
                })
            })
            .collect::<Result<_, _>>()?
    };
    Ok(selected.iter().map(|s| (s.run)(opts)).collect())
}

/// The shared throughput cells (`events/s` at integer precision,
/// `ns/event` at 1 decimal) — also used by the loadgen report so service
/// and simulator numbers read identically.
pub fn throughput_cells(events_per_sec: f64, ns_per_event: f64) -> [Cell; 2] {
    [
        Cell::Float {
            v: events_per_sec,
            prec: 0,
        },
        Cell::Float {
            v: ns_per_event,
            prec: 1,
        },
    ]
}

/// Renders results (optionally with a baseline for speedup columns).
pub fn report(
    opts: &PerfOpts,
    results: &[ScenarioResult],
    baseline: Option<&[(String, f64)]>,
) -> Report {
    let mut r = Report::new();
    r.text(format!(
        "fireguard bench: {} insts, seed {}, {} warmup + {} samples (best), {} workers, \
         pipeline {} on {} host cpus",
        opts.insts,
        opts.seed,
        opts.warmup,
        opts.samples,
        opts.workers,
        opts.pipeline,
        host_cpus()
    ));
    r.blank();
    let mut t = Table::new(&[
        ("scenario", 13),
        ("events", 10),
        ("wall_ms", 9),
        ("events/s", 12),
        ("cycles/s", 12),
        ("ns/event", 9),
        ("allocs/event", 13),
        ("vs_baseline", 12),
    ]);
    for res in results {
        let base = baseline.and_then(|b| {
            b.iter()
                .find(|(n, _)| n == res.name)
                .map(|&(_, eps)| res.events_per_sec() / eps.max(1e-12))
        });
        let [eps, nspe] = throughput_cells(res.events_per_sec(), res.ns_per_event());
        t.row(vec![
            Cell::Str(res.name.to_owned()),
            Cell::Int(res.events as i64),
            Cell::Float {
                v: res.secs * 1e3,
                prec: 1,
            },
            eps,
            if res.cycles == 0 {
                Cell::Missing
            } else {
                Cell::Float {
                    v: res.cycles_per_sec(),
                    prec: 0,
                }
            },
            nspe,
            Cell::Float {
                v: res.allocs_per_event(),
                prec: 4,
            },
            match base {
                Some(x) => Cell::Float { v: x, prec: 2 },
                None => Cell::Missing,
            },
        ]);
    }
    r.table(t);
    r
}

// ---- profile ---------------------------------------------------------------

/// `fireguard bench --profile`: stage-level cycle attribution.
///
/// Times a ladder of nested measured regions over one workload (dedup,
/// Sanitizer on 4 µcores) — trace generation alone, the bare OoO core
/// consuming that trace, and the full FireGuard system — and attributes
/// the ns/event deltas to the stage each rung adds. The filter/kernel
/// split of the FireGuard overhead is an *estimate*: wall clock cannot
/// observe the two inside one run, so the overhead is apportioned by the
/// relative work volumes the engine counters record (filter packets vs
/// µ-instructions retired). The `.fgt` codec rung is a separate path
/// (record/replay), listed for context, not part of the end-to-end sum.
pub fn profile_report(o: &PerfOpts) -> Report {
    use fireguard_boom::{BoomConfig, Core, NullSink};
    use fireguard_soc::experiments::run_fireguard_telemetry;
    use fireguard_trace::{TraceGenerator, WorkloadProfile};

    let cfg = ExperimentConfig::new("dedup")
        .kernel(KernelId::ASAN, 4)
        .insts(o.insts)
        .seed(o.seed);
    let profile = WorkloadProfile::parsec("dedup").expect("known workload");

    // Rung 1: trace generation alone.
    let (gen_events, _, gen_secs, _) = best_of(o, || {
        let mut sum = 0u64;
        let mut n = 0u64;
        let g = TraceGenerator::new(profile.clone(), o.seed);
        for t in g.take(o.insts as usize) {
            sum = sum.wrapping_add(t.pc);
            n += 1;
        }
        std::hint::black_box(sum);
        (n, 0)
    });
    // Rung 2: the bare OoO core consuming the same trace.
    let (core_events, _, core_secs, _) = best_of(o, || {
        let trace = TraceGenerator::new(profile.clone(), o.seed);
        let mut core = Core::new(BoomConfig::default(), trace);
        let stats = core.run_insts(o.insts, &mut NullSink);
        (stats.committed, stats.cycles)
    });
    // Rung 3: the full system, with the engine counters sampled.
    let mut snap = None;
    let (e2e_events, e2e_cycles, e2e_secs, _) = best_of(o, || {
        let (run, counters, _slots) = run_fireguard_telemetry(&cfg);
        let out = (run.committed, run.cycles);
        snap = Some((run, counters));
        out
    });
    let (run, counters) = snap.expect("at least one sample ran");
    // Side rung: the .fgt codec round trip.
    let codec_res = bench_codec(o);

    let nspe = |secs: f64, events: u64| secs * 1e9 / events.max(1) as f64;
    let gen_ns = nspe(gen_secs, gen_events);
    let core_ns = nspe(core_secs, core_events);
    let e2e_ns = nspe(e2e_secs, e2e_events);
    let core_attr = (core_ns - gen_ns).max(0.0);
    let overhead_ns = (e2e_ns - core_ns).max(0.0);
    // Work-volume split: the filter touches every emitted packet once and
    // the kernels execute retired µ-instructions; both are unit-cost
    // proxies, so their ratio apportions the unobservable boundary.
    let filter_w = counters.packets as f64;
    let kernel_w = counters.ucore_retired as f64;
    let total_w = (filter_w + kernel_w).max(1.0);
    let filter_attr = overhead_ns * filter_w / total_w;
    let kernel_attr = overhead_ns * kernel_w / total_w;

    let mut r = Report::new();
    r.text(format!(
        "fireguard bench --profile: {} insts, seed {}, {} warmup + {} samples (best); \
         dedup, Sanitizer on 4 ucores",
        o.insts, o.seed, o.warmup, o.samples
    ));
    r.text(format!(
        "end-to-end: {} events in {:.1} ms ({:.1} ns/event), {} simulated cycles, \
         slowdown {:.3}; filter/kernel split estimated by work volume",
        e2e_events,
        e2e_secs * 1e3,
        e2e_ns,
        e2e_cycles,
        run.slowdown
    ));
    r.blank();
    let mut t = Table::new(&[
        ("stage", 8),
        ("events", 10),
        ("wall_ms", 9),
        ("ns/event", 9),
        ("attr_ns/event", 14),
        ("share%", 7),
    ]);
    let pct = |attr: f64| Cell::Float {
        v: 100.0 * attr / e2e_ns.max(1e-12),
        prec: 1,
    };
    let f1 = |v: f64| Cell::Float { v, prec: 1 };
    let ms = |secs: f64| Cell::Float {
        v: secs * 1e3,
        prec: 1,
    };
    t.row(vec![
        Cell::Str("gen".into()),
        Cell::Int(gen_events as i64),
        ms(gen_secs),
        f1(gen_ns),
        f1(gen_ns),
        pct(gen_ns),
    ]);
    t.row(vec![
        Cell::Str("core".into()),
        Cell::Int(core_events as i64),
        ms(core_secs),
        f1(core_ns),
        f1(core_attr),
        pct(core_attr),
    ]);
    t.row(vec![
        Cell::Str("filter".into()),
        Cell::Int(counters.packets as i64),
        Cell::Missing,
        Cell::Missing,
        f1(filter_attr),
        pct(filter_attr),
    ]);
    t.row(vec![
        Cell::Str("kernel".into()),
        Cell::Int(counters.ucore_retired as i64),
        Cell::Missing,
        Cell::Missing,
        f1(kernel_attr),
        pct(kernel_attr),
    ]);
    t.row(vec![
        Cell::Str("codec".into()),
        Cell::Int(codec_res.events as i64),
        ms(codec_res.secs),
        f1(codec_res.ns_per_event()),
        Cell::Missing,
        Cell::Missing,
    ]);
    r.table(t);

    // The engine counters the e2e rung sampled, plus the simulator's own
    // stall attribution, so the wall-clock table above can be sanity
    // checked against simulated-time behavior.
    r.blank();
    r.text("engine counters (e2e rung):");
    let mut c = Table::new(&[("counter", 26), ("value", 14)]);
    let int = |v: u64| Cell::Int(v as i64);
    let rate = |hit: u64, miss: u64| Cell::Float {
        v: hit as f64 / (hit + miss).max(1) as f64,
        prec: 4,
    };
    for (name, cell) in [
        ("slow_edges", int(counters.slow_edges)),
        ("packets", int(counters.packets)),
        ("placeholders", int(counters.placeholders)),
        ("offers", int(counters.offers)),
        ("refusals", int(counters.refusals)),
        ("filter_ring_hwm", int(counters.filter_ring_hwm)),
        ("cdc_hwm", int(counters.cdc_hwm)),
        (
            "mean_mapper_occupancy",
            Cell::Float {
                v: counters.mapper_occupancy_sum as f64 / counters.slow_edges.max(1) as f64,
                prec: 3,
            },
        ),
        ("ucore_retired", int(counters.ucore_retired)),
        ("ucore_idle_cycles", int(counters.ucore_idle_cycles)),
        ("ucore_parks", int(counters.ucore_parks)),
        ("ucore_wakes", int(counters.ucore_wakes)),
        ("noc_flits", int(counters.noc_flits)),
        ("noc_hops", int(counters.noc_hops)),
        ("noc_queue_cycles", int(counters.noc_queue_cycles)),
        (
            "cache_hit_rate",
            rate(counters.cache_hits, counters.cache_misses),
        ),
        ("tlb_hit_rate", rate(counters.tlb_hits, counters.tlb_misses)),
        ("stall_filter_cycles", int(run.bottlenecks.filter)),
        ("stall_mapper_cycles", int(run.bottlenecks.mapper)),
        ("stall_cdc_cycles", int(run.bottlenecks.cdc)),
        ("stall_ucore_cycles", int(run.bottlenecks.ucore)),
    ] {
        c.row(vec![Cell::Str(name.into()), cell]);
    }
    r.table(c);
    r
}

// ---- JSON baseline ---------------------------------------------------------

/// Recording protocol embedded in every committed `BENCH_*.json`, so a
/// baseline is interpretable without the commit that recorded it: what
/// [`best_of`] keeps and what [`check_against`] compares. Within one file
/// all scenarios share one host, one build and the settings in the header.
const METHODOLOGY: &str = "fastest of --samples runs (best-of, not a median) after --warmup \
warmup runs, all in one process, so every run after the first sees warm process-wide memo \
caches; workers/pipeline as recorded per scenario; fig7a memoizes the software-baseline \
simulation per (scheme, workload, seed, insts) exactly like the process-wide bare-core baseline \
cache; --check gates this run's raw events/s against this file's under a fixed noise \
tolerance, so it is only meaningful on the host that recorded the file";

/// Serialises results as the committed `BENCH_*.json` format (one scenario
/// object per line, so line-oriented tools and [`parse_baseline`] stay
/// trivial). `baseline` carries the pre-optimization events/s measured in
/// this same harness, embedded for the record.
pub fn to_json(
    opts: &PerfOpts,
    results: &[ScenarioResult],
    baseline: Option<&[(String, f64)]>,
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"methodology\": \"{METHODOLOGY}\",\n"));
    s.push_str(&format!(
        "  \"schema\": 1,\n  \"insts\": {},\n  \"seed\": {},\n  \"warmup\": {},\n  \"samples\": {},\n  \"workers\": {},\n  \"pipeline\": {},\n  \"host_cpus\": {},\n",
        opts.insts,
        opts.seed,
        opts.warmup,
        opts.samples,
        opts.workers,
        opts.pipeline,
        host_cpus()
    ));
    s.push_str("  \"scenarios\": [\n");
    for (i, r) in results.iter().enumerate() {
        let base = baseline.and_then(|b| b.iter().find(|(n, _)| n == r.name));
        s.push_str(&format!(
            "    {{\"name\":\"{}\",\"events\":{},\"cycles\":{},\"wall_secs\":{:.6},\"events_per_sec\":{:.1},\"cycles_per_sec\":{:.1},\"ns_per_event\":{:.2},\"allocs\":{},\"allocs_per_event\":{:.5},\"pipeline\":{},\"host_cpus\":{}",
            r.name,
            r.events,
            r.cycles,
            r.secs,
            r.events_per_sec(),
            r.cycles_per_sec(),
            r.ns_per_event(),
            r.allocs,
            r.allocs_per_event(),
            opts.pipeline,
            host_cpus(),
        ));
        if let Some((_, eps)) = base {
            s.push_str(&format!(
                ",\"baseline_events_per_sec\":{:.1},\"speedup\":{:.3}",
                eps,
                r.events_per_sec() / eps.max(1e-12)
            ));
        }
        s.push('}');
        if i + 1 < results.len() {
            s.push(',');
        }
        s.push('\n');
    }
    s.push_str("  ]\n}\n");
    s
}

/// Extracts `(name, events_per_sec)` pairs from a `BENCH_*.json` file
/// written by [`to_json`] (line-oriented scan; no JSON parser needed).
pub fn parse_baseline(json: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for line in json.lines() {
        let Some(at) = line.find("\"name\":\"") else {
            continue;
        };
        let rest = &line[at + 8..];
        let Some(end) = rest.find('"') else { continue };
        let name = rest[..end].to_owned();
        let Some(at) = line.find("\"events_per_sec\":") else {
            continue;
        };
        let rest = &line[at + 17..];
        let num: String = rest
            .chars()
            .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
            .collect();
        if let Ok(v) = num.parse::<f64>() {
            out.push((name, v));
        }
    }
    out
}

/// Extracts the `(pipeline, host_cpus)` a `BENCH_*.json` baseline was
/// recorded under, or `None` for baselines that predate the fields.
/// Comparing wall-clock numbers across hosts or pipeline widths is
/// legitimate but must be *visible*, never silent — the caller prints a
/// note when these differ from the current run's.
pub fn parse_host_meta(json: &str) -> Option<(u32, usize)> {
    let field = |name: &str| -> Option<u64> {
        let key = format!("\"{name}\":");
        let at = json.find(&key)?;
        let rest = &json[at + key.len()..];
        let num: String = rest
            .chars()
            .skip_while(|c| *c == ' ')
            .take_while(char::is_ascii_digit)
            .collect();
        num.parse().ok()
    };
    Some((field("pipeline")? as u32, field("host_cpus")? as usize))
}

/// The fractional events/s regression the CI gate tolerates (noise floor).
pub const REGRESSION_TOLERANCE: f64 = 0.10;

/// Allocations per event above which the steady-state cycle loop is
/// considered to have regressed its zero-alloc contract (amortised slack
/// for the rare table resize).
pub const STEADY_STATE_ALLOC_BUDGET: f64 = 0.001;

/// Compares `results` against a parsed baseline: any scenario more than
/// [`REGRESSION_TOLERANCE`] slower fails, as does a `steady-state` run
/// that allocates per event.
///
/// # Errors
///
/// Returns one message per violated contract, joined with newlines.
pub fn check_against(results: &[ScenarioResult], baseline: &[(String, f64)]) -> Result<(), String> {
    let mut problems = Vec::new();
    for r in results {
        match baseline.iter().find(|(n, _)| n == r.name) {
            Some((_, base)) => {
                let ratio = r.events_per_sec() / base.max(1e-12);
                if ratio < 1.0 - REGRESSION_TOLERANCE {
                    problems.push(format!(
                        "{}: events/s regressed to {:.0} ({:.1}% of the {:.0} baseline)",
                        r.name,
                        r.events_per_sec(),
                        ratio * 100.0,
                        base
                    ));
                }
            }
            // A gated scenario the baseline does not know is an error,
            // not a silent pass — otherwise a renamed scenario or a
            // subset-regenerated baseline would leave it ungated.
            None => problems.push(format!(
                "{}: scenario missing from the baseline file (regenerate it with --out)",
                r.name
            )),
        }
        if r.name == "steady-state" && r.allocs_per_event() > STEADY_STATE_ALLOC_BUDGET {
            problems.push(format!(
                "steady-state: {} allocations over {} events breaks the zero-alloc cycle-loop contract",
                r.allocs, r.events
            ));
        }
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems.join("\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> PerfOpts {
        PerfOpts {
            insts: 1_000,
            seed: 42,
            workers: 1,
            warmup: 0,
            samples: 1,
            pipeline: 1,
        }
    }

    #[test]
    fn json_round_trips_events_per_sec() {
        let results = vec![ScenarioResult {
            name: "gen",
            events: 1000,
            cycles: 0,
            secs: 0.002,
            allocs: 5,
        }];
        let json = to_json(&tiny(), &results, None);
        let parsed = parse_baseline(&json);
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].0, "gen");
        assert!((parsed[0].1 - 500_000.0).abs() < 1.0, "{}", parsed[0].1);
    }

    #[test]
    fn check_flags_regressions_and_tolerates_noise() {
        let mk = |secs| ScenarioResult {
            name: "gen",
            events: 1000,
            cycles: 0,
            secs,
            allocs: 0,
        };
        let baseline = vec![("gen".to_owned(), 1_000_000.0)];
        assert!(check_against(&[mk(0.00105)], &baseline).is_ok(), "5% noise");
        let err = check_against(&[mk(0.002)], &baseline).expect_err("2x slower");
        assert!(err.contains("regressed"));
        let err = check_against(&[mk(0.001)], &[]).expect_err("unknown scenario");
        assert!(err.contains("missing from the baseline"));
    }

    #[test]
    fn check_enforces_steady_state_alloc_contract() {
        let r = ScenarioResult {
            name: "steady-state",
            events: 100,
            cycles: 100,
            secs: 0.001,
            allocs: 50,
        };
        let err = check_against(&[r], &[]).expect_err("allocating loop");
        assert!(err.contains("zero-alloc"));
    }

    #[test]
    fn scenario_registry_resolves() {
        assert!(find_scenario("fig7a").is_some());
        assert!(find_scenario("steady-state").is_some());
        assert!(find_scenario("e2e-taint").is_some());
        assert!(find_scenario("e2e-mte").is_some());
        assert!(find_scenario("e2e-all").is_some());
        assert!(find_scenario("nope").is_none());
    }

    #[test]
    fn new_kernel_scenarios_run_at_a_tiny_budget() {
        for name in ["e2e-taint", "e2e-mte", "e2e-all"] {
            let r = (find_scenario(name).unwrap().run)(&tiny());
            assert!(r.events >= 1_000, "{name}: {} events", r.events);
            assert!(r.cycles > 0, "{name} simulates cycles");
        }
    }

    #[test]
    fn gen_scenario_runs_and_counts_events() {
        let r = bench_gen(&tiny());
        assert_eq!(r.events, 1_000 * MICRO_REPEATS);
        assert!(r.secs > 0.0);
        assert!(r.events_per_sec() > 0.0);
    }

    #[test]
    fn codec_scenario_round_trips() {
        let r = bench_codec(&tiny());
        assert!(r.events >= 1_000);
    }
}
