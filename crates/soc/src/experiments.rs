//! Experiment drivers: everything the figure/table binaries need.

use crate::report::RunResult;
use crate::system::{CapacityError, EngineConfig, FireGuardSystem, SocConfig};
use fireguard_boom::{BoomConfig, Core, NullSink};
use fireguard_kernels::{InstrumentedTrace, KernelId, ProgrammingModel, SoftwareScheme};
use fireguard_trace::{AttackPlan, AttackingTrace, TraceGenerator, WorkloadProfile};
use fireguard_ucore::IsaxMode;

/// Declarative description of one system run.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// PARSEC workload name.
    pub workload: String,
    /// Trace seed.
    pub seed: u64,
    /// Instructions to commit.
    pub insts: u64,
    /// Kernels and their engine provisioning, in verdict-bit order.
    pub kernels: Vec<(KernelId, EngineConfig)>,
    /// µ-program style.
    pub model: ProgrammingModel,
    /// Event-filter width (Fig. 9 sweeps 1/2/4).
    pub filter_width: usize,
    /// ISAX placement (ablation).
    pub isax: IsaxMode,
    /// Optional attack campaign (Fig. 8).
    pub attacks: Option<AttackPlan>,
    /// Mapper width (1 = the paper's scalar mapper; >1 = footnote 5's
    /// superscalar extension).
    pub mapper_width: usize,
}

impl ExperimentConfig {
    /// A default configuration for `workload`: no kernels yet, 200k
    /// instructions, hybrid µ-programs, 4-wide filter, MA-stage ISAX.
    pub fn new(workload: &str) -> Self {
        ExperimentConfig {
            workload: workload.to_owned(),
            seed: 42,
            insts: 200_000,
            kernels: Vec::new(),
            model: ProgrammingModel::Hybrid,
            filter_width: 4,
            isax: IsaxMode::MaStage,
            attacks: None,
            mapper_width: 1,
        }
    }

    /// Adds a kernel backed by `n` µcores.
    pub fn kernel(mut self, kind: KernelId, n: usize) -> Self {
        self.kernels.push((kind, EngineConfig::Ucores(n)));
        self
    }

    /// Adds a kernel backed by a hardware accelerator.
    pub fn kernel_ha(mut self, kind: KernelId) -> Self {
        self.kernels.push((kind, EngineConfig::Ha));
        self
    }

    /// Sets the instruction budget.
    pub fn insts(mut self, n: u64) -> Self {
        self.insts = n;
        self
    }

    /// Sets the trace seed.
    pub fn seed(mut self, s: u64) -> Self {
        self.seed = s;
        self
    }

    /// Sets the programming model.
    pub fn model(mut self, m: ProgrammingModel) -> Self {
        self.model = m;
        self
    }

    /// Sets the event-filter width.
    pub fn filter_width(mut self, w: usize) -> Self {
        self.filter_width = w;
        self
    }

    /// Sets the ISAX placement.
    pub fn isax(mut self, mode: IsaxMode) -> Self {
        self.isax = mode;
        self
    }

    /// Installs an attack campaign.
    pub fn attacks(mut self, plan: AttackPlan) -> Self {
        self.attacks = Some(plan);
        self
    }

    /// Sets the mapper width (footnote 5's superscalar-mapper extension).
    pub fn mapper_width(mut self, w: usize) -> Self {
        self.mapper_width = w;
        self
    }

    fn profile(&self) -> WorkloadProfile {
        WorkloadProfile::parsec(&self.workload)
            .unwrap_or_else(|| panic!("unknown workload {}", self.workload))
    }

    /// The in-process commit stream this configuration describes: the
    /// seeded workload generator, wrapped with the attack campaign if one
    /// is installed.
    ///
    /// # Panics
    ///
    /// Panics if the workload name is unknown.
    pub fn trace(&self) -> Box<dyn Iterator<Item = fireguard_trace::TraceInst>> {
        let g = TraceGenerator::new(self.profile(), self.seed);
        match &self.attacks {
            Some(plan) => Box::new(AttackingTrace::new(g, plan.clone())),
            None => Box::new(g),
        }
    }
}

/// Events captured beyond the commit budget when recording a trace.
///
/// The core fetches ahead of commit; its in-flight window is bounded by the
/// ROB (128), the fetch buffer (16) and one pending fetch, so a margin of
/// 4096 guarantees a replayed finite trace never exposes its end to the
/// core before the commit target is reached — which is what makes replay
/// *byte-identical* to in-process generation, for any plausible core
/// configuration.
pub const REPLAY_MARGIN: u64 = 4096;

/// Materializes the commit stream of `cfg` as a finite event vector sized
/// for bit-exact replay (`cfg.insts + REPLAY_MARGIN` events).
pub fn capture_events(cfg: &ExperimentConfig) -> Vec<fireguard_trace::TraceInst> {
    cfg.trace()
        .take((cfg.insts + REPLAY_MARGIN) as usize)
        .collect()
}

/// Assembles a [`FireGuardSystem`] for `cfg` over an arbitrary commit
/// stream (the in-process generator, a replayed recording, or a live
/// network session). `cfg.attacks` is *not* applied here — an externally
/// supplied stream already carries its injected attacks.
///
/// # Panics
///
/// Panics on a capacity violation; use [`try_build_system`] for configs
/// built from untrusted input.
pub fn build_system(
    cfg: &ExperimentConfig,
    trace: Box<dyn Iterator<Item = fireguard_trace::TraceInst>>,
) -> FireGuardSystem {
    try_build_system(cfg, trace).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible [`build_system`]: a deployment exceeding the packet verdict
/// width or the allocator's engine bitmap comes back as a
/// [`CapacityError`] instead of a panic, so the CLI and the serve loop
/// can reject oversized requests cleanly.
pub fn try_build_system(
    cfg: &ExperimentConfig,
    trace: Box<dyn Iterator<Item = fireguard_trace::TraceInst>>,
) -> Result<FireGuardSystem, CapacityError> {
    FireGuardSystem::try_new(soc_config(cfg), trace, &cfg.kernels)
}

/// Builds the system for `cfg` over its own commit stream
/// ([`ExperimentConfig::trace`]).
///
/// # Panics
///
/// Panics on a capacity violation, like [`build_system`].
pub fn build_system_auto(cfg: &ExperimentConfig) -> FireGuardSystem {
    build_system(cfg, cfg.trace())
}

fn soc_config(cfg: &ExperimentConfig) -> SocConfig {
    SocConfig {
        filter: fireguard_core::FilterConfig {
            width: cfg.filter_width,
            ..Default::default()
        },
        isax: cfg.isax,
        model: cfg.model,
        mapper_width: cfg.mapper_width,
        ..SocConfig::default()
    }
}

/// Replays a pre-captured event stream through the system described by
/// `cfg`, reporting against a pinned baseline cycle count (recorded in the
/// `.fgt` header at capture time).
///
/// For events produced by [`capture_events`] with the same `cfg`, the
/// result is byte-identical to [`run_fireguard`] — the determinism
/// contract `fireguard trace record | replay` is built on.
pub fn run_fireguard_events(
    cfg: &ExperimentConfig,
    events: Vec<fireguard_trace::TraceInst>,
    baseline_cycles: u64,
) -> RunResult {
    let mut sys = build_system(cfg, Box::new(events.into_iter()));
    sys.run_insts(cfg.insts, baseline_cycles)
}

/// Cycles the bare core (no FireGuard, no instrumentation) takes for the
/// workload — the slowdown denominator.
///
/// The result is a pure function of `(workload, seed, insts)` and every
/// figure grid re-derives it for each of its jobs (fig7a asks for the
/// same denominator ten times per workload), so it is memoized
/// process-wide. The cache is transparent: hits return exactly the
/// cycles a fresh simulation would.
pub fn baseline_cycles(workload: &str, seed: u64, insts: u64) -> u64 {
    use std::collections::HashMap;
    use std::sync::{Mutex, OnceLock};
    type BaselineCache = Mutex<HashMap<(String, u64, u64), u64>>;
    static CACHE: OnceLock<BaselineCache> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let key = (workload.to_owned(), seed, insts);
    if let Some(&cycles) = cache.lock().expect("baseline cache lock").get(&key) {
        return cycles;
    }
    let profile =
        WorkloadProfile::parsec(workload).unwrap_or_else(|| panic!("unknown workload {workload}"));
    let trace = TraceGenerator::new(profile, seed);
    let mut core = Core::new(BoomConfig::default(), trace);
    let cycles = core.run_insts(insts, &mut NullSink).cycles;
    cache
        .lock()
        .expect("baseline cache lock")
        .insert(key, cycles);
    cycles
}

/// Runs a full FireGuard system per `cfg` and reports against the matching
/// bare-core baseline.
pub fn run_fireguard(cfg: &ExperimentConfig) -> RunResult {
    let base = baseline_cycles(&cfg.workload, cfg.seed, cfg.insts);
    let mut sys = build_system_auto(cfg);
    sys.run_insts(cfg.insts, base)
}

/// [`run_fireguard`] with the engine-counter snapshot and its
/// `(slot, kernel)` labeling attached. The [`RunResult`] is
/// byte-identical to the uninstrumented call: the snapshot is read after
/// the run completes and reading mutates nothing (`tests/telemetry.rs`
/// holds the two calls equal).
pub fn run_fireguard_telemetry(
    cfg: &ExperimentConfig,
) -> (
    RunResult,
    fireguard_telemetry::EngineCounters,
    Vec<(usize, KernelId)>,
) {
    let base = baseline_cycles(&cfg.workload, cfg.seed, cfg.insts);
    let mut sys = build_system_auto(cfg);
    let result = sys.run_insts(cfg.insts, base);
    (result, sys.telemetry(), sys.kernel_slots())
}

/// Runs a software-instrumented baseline; returns its slowdown over the
/// bare core for the same original instruction count.
///
/// Like [`baseline_cycles`], the result is a pure function of its
/// arguments — the instrumented trace is fully determined by
/// `(scheme, workload, seed, insts)` and the core is deterministic — and
/// software rows recur across figure grids and repeated sweeps, each one
/// simulating `insts × inflation` instructions. So the *cycle count* is
/// memoized process-wide the same way; hits divide by the (also cached)
/// bare-core denominator exactly as a fresh simulation would.
pub fn run_software(scheme: SoftwareScheme, workload: &str, seed: u64, insts: u64) -> f64 {
    use std::collections::HashMap;
    use std::sync::{Mutex, OnceLock};
    type SoftwareCache = Mutex<HashMap<(SoftwareScheme, String, u64, u64), u64>>;
    static CACHE: OnceLock<SoftwareCache> = OnceLock::new();
    let base = baseline_cycles(workload, seed, insts);
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let key = (scheme, workload.to_owned(), seed, insts);
    if let Some(&cycles) = cache.lock().expect("software cache lock").get(&key) {
        return cycles as f64 / base as f64;
    }
    let profile =
        WorkloadProfile::parsec(workload).unwrap_or_else(|| panic!("unknown workload {workload}"));
    // Bound the original instruction count, then instrument.
    let orig = TraceGenerator::new(profile, seed).take(insts as usize);
    let instrumented = InstrumentedTrace::new(orig, scheme);
    let mut core = Core::new(BoomConfig::default(), instrumented);
    let stats = core.run_insts(u64::MAX / 2, &mut NullSink);
    cache
        .lock()
        .expect("software cache lock")
        .insert(key, stats.cycles);
    stats.cycles as f64 / base as f64
}

/// The nine PARSEC workload names, paper order.
pub fn workloads() -> Vec<&'static str> {
    fireguard_trace::PARSEC_WORKLOADS
        .iter()
        .map(|w| w.name)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pmc_on_four_ucores_has_low_overhead() {
        let cfg = ExperimentConfig::new("swaptions")
            .kernel(KernelId::PMC, 4)
            .insts(60_000);
        let r = run_fireguard(&cfg);
        assert!(r.committed >= 60_000 && r.committed < 60_004);
        assert!(r.packets > 10_000, "PMC sees mem+ctrl+branch packets");
        assert!(
            r.slowdown < 1.6,
            "PMC on 4 µcores should be cheap-ish: {:.3}",
            r.slowdown
        );
        assert!(r.slowdown > 0.95, "sanity: {:.3}", r.slowdown);
        assert_eq!(r.unclaimed_packets, 0, "every packet had a subscriber");
    }

    #[test]
    fn asan_scales_with_ucore_count() {
        let run = |n| {
            run_fireguard(
                &ExperimentConfig::new("bodytrack")
                    .kernel(KernelId::ASAN, n)
                    .insts(60_000),
            )
            .slowdown
        };
        let two = run(2);
        let twelve = run(12);
        assert!(
            two > twelve,
            "more µcores must reduce ASan slowdown: 2µ={two:.3} 12µ={twelve:.3}"
        );
        assert!(two > 1.2, "2 µcores overload on bodytrack: {two:.3}");
    }

    #[test]
    fn ha_overhead_is_negligible() {
        let r = run_fireguard(
            &ExperimentConfig::new("streamcluster")
                .kernel_ha(KernelId::SHADOW_STACK)
                .insts(60_000),
        );
        assert!(
            r.slowdown < 1.02,
            "HA shadow stack ≈ zero overhead: {:.4}",
            r.slowdown
        );
    }

    #[test]
    fn attacks_are_detected_with_positive_latency() {
        let plan = AttackPlan::campaign(
            &[fireguard_trace::AttackKind::RetHijack],
            10,
            5_000,
            40_000,
            3,
        );
        let r = run_fireguard(
            &ExperimentConfig::new("ferret")
                .kernel(KernelId::SHADOW_STACK, 4)
                .insts(80_000)
                .attacks(plan),
        );
        let lats = r.attack_latencies_ns();
        assert!(!lats.is_empty(), "hijacks detected");
        assert!(lats.iter().all(|&l| l > 0.0), "positive latencies");
        assert!(lats[0] < 10_000.0, "latency in the ns range: {}", lats[0]);
    }

    #[test]
    fn software_asan_is_slower_than_nothing() {
        let s = run_software(SoftwareScheme::AsanX86, "swaptions", 42, 40_000);
        assert!(s > 1.3, "software ASan costs real time: {s:.3}");
        let arm = run_software(SoftwareScheme::AsanAArch64, "swaptions", 42, 40_000);
        assert!(arm > s, "AArch64 ASan heavier than x86: {arm:.3} vs {s:.3}");
    }

    #[test]
    fn superscalar_mapper_helps_burst_bound_workloads() {
        // x264 + HA is mapper-bound under commit bursts; footnote 5's
        // superscalar mapper should recover most of the residual overhead.
        let scalar = run_fireguard(
            &ExperimentConfig::new("x264")
                .kernel_ha(KernelId::PMC)
                .insts(40_000),
        );
        let wide = run_fireguard(
            &ExperimentConfig::new("x264")
                .kernel_ha(KernelId::PMC)
                .mapper_width(2)
                .insts(40_000),
        );
        assert!(
            wide.slowdown < scalar.slowdown,
            "2-wide mapper {:.3} must beat scalar {:.3}",
            wide.slowdown,
            scalar.slowdown
        );
        assert!(
            wide.slowdown < 1.03,
            "wide mapper ≈ no overhead: {:.3}",
            wide.slowdown
        );
    }

    #[test]
    fn replay_of_captured_events_is_byte_identical() {
        let plan = AttackPlan::campaign(
            &[fireguard_trace::AttackKind::RetHijack],
            5,
            2_000,
            18_000,
            3,
        );
        let cfg = ExperimentConfig::new("ferret")
            .kernel(KernelId::SHADOW_STACK, 4)
            .insts(20_000)
            .attacks(plan);
        let offline = run_fireguard(&cfg);
        let base = baseline_cycles(&cfg.workload, cfg.seed, cfg.insts);
        let events = capture_events(&cfg);
        assert_eq!(events.len() as u64, cfg.insts + crate::REPLAY_MARGIN);
        let replayed = run_fireguard_events(&cfg, events, base);
        assert_eq!(
            format!("{offline:?}"),
            format!("{replayed:?}"),
            "replay must be byte-identical to in-process generation"
        );
        assert!(!offline.detections.is_empty(), "hijacks detected");
    }

    #[test]
    fn observed_run_streams_every_detection_exactly_once() {
        let plan = AttackPlan::campaign(
            &[fireguard_trace::AttackKind::OutOfBounds],
            8,
            2_000,
            25_000,
            7,
        );
        let cfg = ExperimentConfig::new("dedup")
            .kernel(KernelId::ASAN, 4)
            .insts(30_000)
            .attacks(plan);
        let offline = run_fireguard(&cfg);
        let base = baseline_cycles(&cfg.workload, cfg.seed, cfg.insts);
        let mut sys = crate::build_system(&cfg, cfg.trace());
        let mut streamed = Vec::new();
        let result = sys.run_insts_observed(cfg.insts, base, 512, &mut |batch| {
            streamed.extend_from_slice(batch);
        });
        assert_eq!(result.cycles, offline.cycles);
        assert_eq!(result.packets, offline.packets);
        assert_eq!(
            streamed.len(),
            offline.detections.len(),
            "online observer sees exactly the offline detections"
        );
        assert_eq!(
            result.detections.len(),
            offline.detections.len(),
            "the final result is complete regardless of draining"
        );
        let mut a: Vec<u64> = streamed.iter().map(|d| d.seq).collect();
        let mut b: Vec<u64> = offline.detections.iter().map(|d| d.seq).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn deterministic_runs() {
        let cfg = ExperimentConfig::new("freqmine")
            .kernel(KernelId::ASAN, 4)
            .insts(30_000);
        let a = run_fireguard(&cfg);
        let b = run_fireguard(&cfg);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.packets, b.packets);
    }
}
