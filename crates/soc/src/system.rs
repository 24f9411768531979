//! The assembled FireGuard SoC.
//!
//! Wires the paper's Fig. 1 together: the BOOM core's commit paths feed the
//! event filter (fast domain); the arbiter/allocator move one packet per
//! fast cycle into per-engine handshake CDC queues; on slow-domain edges
//! the multicast channel drains CDCs into the analysis engines' message
//! queues; µcores (or HAs) consume packets; inter-checker packets ride the
//! Manhattan-grid NoC. Any full queue back-pressures upstream all the way
//! to commit, which is where slowdown comes from.

use crate::pipeline::{JudgedTrace, PipelineStats, PipelinedTrace, VerdictWindow};
use crate::report::{BottleneckBreakdown, Detection, RunResult};
use fireguard_boom::{BoomConfig, CommitSink, Core};
use fireguard_core::{
    Allocator, CdcQueue, ClockDivider, EventFilter, FilterConfig, Packet, SchedulingEngine,
};
use fireguard_kernels::{
    GuardianKernel, HardwareAccelerator, KernelId, ProgrammingModel, SharedTiming,
};
use fireguard_noc::Mesh;
use fireguard_telemetry::{EngineCounters, MAX_CLASSES};
use fireguard_trace::TraceInst;
use fireguard_ucore::{IsaxMode, KernelBackend, QueueEntry, Ucore, UcoreConfig};
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::rc::Rc;
use std::sync::Arc;

/// How a kernel's analysis capacity is provisioned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineConfig {
    /// `n` Rocket µcores.
    Ucores(usize),
    /// A single fixed-function hardware accelerator.
    Ha,
}

/// Hard ceiling on kernels sharing one packet stream: the width of the
/// packet verdict field (layout v2: 8). Derived, not repeated — widening
/// the field in `fireguard_core::packet::layout` lifts this too.
pub const MAX_KERNELS: usize = fireguard_core::packet::layout::VERDICT_BITS as usize;

/// Hard ceiling on total analysis engines (the allocator's `AE_Bitmap`
/// addresses 16 engines).
pub const MAX_ENGINES: usize = 16;

/// A deployment request the SoC cannot be built for. Surfaced as a clean
/// error (CLI exit, serve `ERROR` frame) rather than a panic, because the
/// request may come from untrusted session input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CapacityError {
    /// More kernels than the packet verdict field has bits.
    TooManyKernels {
        /// Kernels requested.
        requested: usize,
    },
    /// More engines than the allocator bitmap addresses.
    TooManyEngines {
        /// Total engines requested across all kernels.
        requested: usize,
    },
    /// A kernel provisioned with zero µcores.
    ZeroEngines {
        /// The kernel with the empty allocation.
        kernel: KernelId,
    },
}

impl std::fmt::Display for CapacityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CapacityError::TooManyKernels { requested } => write!(
                f,
                "{requested} kernels requested but the packet verdict field holds {MAX_KERNELS}"
            ),
            CapacityError::TooManyEngines { requested } => write!(
                f,
                "{requested} engines requested but the allocator addresses {MAX_ENGINES}"
            ),
            CapacityError::ZeroEngines { kernel } => {
                write!(f, "kernel {} needs at least one engine", kernel.name())
            }
        }
    }
}

impl std::error::Error for CapacityError {}

/// Validates a deployment request against the structural ceilings:
/// at most [`MAX_KERNELS`] kernels (the packet verdict width), at most
/// [`MAX_ENGINES`] engines in total (the allocator bitmap), and no
/// kernel provisioned with zero µcores. Shared by
/// [`FireGuardSystem::try_new`] and every front door that accepts a
/// deployment from outside (CLI flags, served HELLOs, sweep grids).
///
/// # Errors
///
/// The specific [`CapacityError`].
pub fn validate_capacity(kernels: &[(KernelId, EngineConfig)]) -> Result<(), CapacityError> {
    if kernels.len() > MAX_KERNELS {
        return Err(CapacityError::TooManyKernels {
            requested: kernels.len(),
        });
    }
    let mut total_engines = 0usize;
    for (id, provision) in kernels {
        total_engines += match provision {
            EngineConfig::Ucores(0) => return Err(CapacityError::ZeroEngines { kernel: *id }),
            EngineConfig::Ucores(n) => *n,
            EngineConfig::Ha => 1,
        };
    }
    if total_engines > MAX_ENGINES {
        return Err(CapacityError::TooManyEngines {
            requested: total_engines,
        });
    }
    Ok(())
}

/// System-level configuration.
#[derive(Debug, Clone)]
pub struct SocConfig {
    /// Main-core configuration.
    pub boom: BoomConfig,
    /// Event-filter geometry (width sweeps drive Fig. 9).
    pub filter: FilterConfig,
    /// Fast:slow clock ratio (3.2 GHz : 1.6 GHz).
    pub clock_ratio: u64,
    /// Per-engine CDC queue depth (Table II: 8).
    pub cdc_depth: usize,
    /// Packets the multicast channel can deliver per engine per slow cycle.
    pub multicast_rate: usize,
    /// Packets the mapper moves per fast cycle. The paper's mapper is
    /// scalar (1); footnote 5 sketches a superscalar mapper with duplicated
    /// channels and SEs for more powerful cores — setting this above 1
    /// models that extension.
    pub mapper_width: usize,
    /// ISAX interface placement in the µcores.
    pub isax: IsaxMode,
    /// Programming model for the kernel µ-programs.
    pub model: ProgrammingModel,
}

impl Default for SocConfig {
    fn default() -> Self {
        SocConfig {
            boom: BoomConfig::default(),
            filter: FilterConfig::default(),
            clock_ratio: 2,
            cdc_depth: 8,
            multicast_rate: 2,
            mapper_width: 1,
            isax: IsaxMode::MaStage,
            model: ProgrammingModel::Hybrid,
        }
    }
}

/// A µcore engine with its kernel backend, boxed as a unit: `Ucore` is far
/// larger than `HardwareAccelerator`, and boxing keeps `Engine` small and
/// cheap to move while a system is being assembled.
struct UcoreEngine {
    u: Ucore,
    backend: Box<dyn KernelBackend>,
}

enum Engine {
    Ucore(Box<UcoreEngine>),
    Ha(HardwareAccelerator),
}

impl Engine {
    fn queue_full(&self) -> bool {
        match self {
            Engine::Ucore(e) => e.u.input().is_full(),
            Engine::Ha(h) => h.is_full(),
        }
    }

    fn queue_free(&self) -> bool {
        !self.queue_full()
    }
}

/// The commit-stage frontend: filter + mapper + CDC, consuming verdicts
/// the judging stage computed ahead of commit. Implements [`CommitSink`]
/// so the core drives it directly.
struct Frontend {
    filter: EventFilter,
    allocator: Allocator,
    /// Seq-ordered verdicts deposited by the judging stage (inline or a
    /// pipeline worker) before each event reaches the core.
    window: Rc<RefCell<VerdictWindow>>,
    cdcs: Vec<CdcQueue<Packet>>,
    engine_full: Vec<bool>,
    breakdown: BottleneckBreakdown,
    /// Write-only telemetry tallies (never read by the simulation): the
    /// offer path adds per-class/per-kernel packet counts, slow edges add
    /// occupancy samples. Compiled to nothing without the `telemetry`
    /// feature.
    counters: EngineCounters,
    /// Per-`InstClass` bitmask of kernel slots subscribed to that class,
    /// derived from the registry's subscriptions at construction — how a
    /// packet's destination kernels are attributed without touching the
    /// mini-filter lookup.
    class_kernels: [u8; MAX_CLASSES],
}

impl Frontend {
    /// One mapper step: at most one packet from the arbiter through the
    /// allocator into the destination CDC queues. Runs every fast cycle,
    /// so it is allocation-free: the engine-occupancy mirror is borrowed
    /// directly and the candidate/destination bitmaps are walked bitwise.
    fn step_mapper(&mut self, now: u64) {
        self.filter.squash_placeholders();
        let Some(p) = self.filter.arbiter_peek() else {
            return;
        };
        if self.cdc_blocks(p) {
            return; // CDC back-pressure: leave the packet buffered
        }
        let engine_full = &self.engine_full;
        let mut dest = self.allocator.route(p.gid, &|e| !engine_full[e]);
        let p = self.filter.arbiter_pop().expect("peeked");
        while dest != 0 {
            let e = dest.trailing_zeros() as usize;
            self.cdcs[e]
                .push(p, now)
                .unwrap_or_else(|_| unreachable!("space checked above"));
            dest &= dest - 1;
        }
    }

    /// The mapper's conservative space check: true if any engine that
    /// could receive `p` has a full CDC queue.
    fn cdc_blocks(&self, p: Packet) -> bool {
        let mut candidates = self.allocator.candidate_engines(p.gid);
        while candidates != 0 {
            let e = candidates.trailing_zeros() as usize;
            if self.cdcs[e].is_full() {
                return true;
            }
            candidates &= candidates - 1;
        }
        false
    }

    /// True if the mapper's next step can do nothing but squash: the
    /// arbiter's next packet waits on a full CDC queue.
    fn mapper_blocked(&self) -> bool {
        self.filter
            .arbiter_peek()
            .is_some_and(|p| self.cdc_blocks(p))
    }

    /// Charges `count` commit refusals not caused by the filter's width
    /// to the deepest blocked stage (Fig. 9's decomposition).
    fn charge_backpressure(&mut self, count: u64) {
        let b = &mut self.breakdown;
        if self.engine_full.iter().any(|&f| f) {
            b.ucore += count;
        } else if self.cdcs.iter().any(|c| c.is_full()) {
            b.cdc += count;
        } else {
            b.mapper += count;
        }
    }

    /// Offers one committing instruction; on refusal the stall is
    /// attributed to the deepest blocked stage (Fig. 9's decomposition).
    ///
    /// The verdict is read (not consumed) from the window front — commit
    /// retries the same event next cycle after a refusal and must see the
    /// same verdict; acceptance pops it, which is exactly the
    /// judge-once-per-event discipline.
    fn offer_inner(&mut self, now: u64, slot: usize, inst: &TraceInst) -> bool {
        let mut window = self.window.borrow_mut();
        let verdicts = window.verdict_for(inst.seq);
        let before = self.filter.stats();
        let ok = self.filter.offer_judged(now, slot, inst, verdicts);
        if ok {
            window.consume(inst.seq);
        }
        drop(window);
        if cfg!(feature = "telemetry") && self.filter.stats().packets > before.packets {
            // A valid packet left the mini-filters: attribute it to its
            // instruction class and every subscribed kernel slot.
            let class_ix = (inst.class as usize).min(MAX_CLASSES - 1);
            self.counters.class_packets[class_ix] += 1;
            let mut mask = self.class_kernels[class_ix];
            while mask != 0 {
                let k = mask.trailing_zeros() as usize;
                self.counters.kernel_packets[k] += 1;
                if verdicts & (1 << k) != 0 {
                    self.counters.kernel_verdicts[k] += 1;
                }
                mask &= mask - 1;
            }
        }
        if !ok {
            if self.filter.stats().refusals_width > before.refusals_width {
                self.breakdown.filter += 1;
            } else {
                self.charge_backpressure(1);
            }
        }
        ok
    }

    fn new(
        filter: EventFilter,
        allocator: Allocator,
        window: Rc<RefCell<VerdictWindow>>,
        cdcs: Vec<CdcQueue<Packet>>,
        n_engines: usize,
        class_kernels: [u8; MAX_CLASSES],
    ) -> Self {
        Frontend {
            filter,
            allocator,
            window,
            cdcs,
            engine_full: vec![false; n_engines],
            breakdown: BottleneckBreakdown::default(),
            counters: EngineCounters::default(),
            class_kernels,
        }
    }
}

impl CommitSink for Frontend {
    fn offer(&mut self, now: u64, slot: usize, inst: &TraceInst) -> bool {
        self.offer_inner(now, slot, inst)
    }

    fn prf_ports_stolen(&mut self, now: u64) -> usize {
        self.filter.prf_ports_stolen(now)
    }
}

/// The full FireGuard system.
pub struct FireGuardSystem {
    cfg: SocConfig,
    core: Core<Box<dyn Iterator<Item = TraceInst>>>,
    frontend: Frontend,
    engines: Vec<Engine>,
    /// (kernel id, vbit, engines) for reporting and NoC rings.
    kernel_groups: Vec<(KernelId, usize, Vec<usize>)>,
    /// Per-kernel shared timing state, exposed for reports (sweep counts).
    pub shared_timing: Vec<std::rc::Rc<std::cell::RefCell<SharedTiming>>>,
    mesh: Mesh,
    pending_noc: BinaryHeap<Reverse<(u64, usize, u64)>>, // (deliver_at, engine, payload-lo)
    divider: ClockDivider,
    /// Effective pipeline width (1 = serial judging inline with the
    /// core's trace pull; ≥2 = worker stages ahead of the core).
    pipeline_width: u32,
    /// Stage backpressure counters when worker stages are live.
    pipeline_stats: Option<Arc<PipelineStats>>,
    /// True while the whole FireGuard side is provably quiescent — no
    /// packet buffered anywhere and every engine parked — so per-cycle
    /// mapper/fabric/engine work can be skipped without changing any
    /// observable timing (engines catch their clocks up on wake).
    fg_idle: bool,
    /// The last slow cycle whose fabric/engine work actually ran; a gap
    /// means idle cycles were skipped and µcore clocks must catch up.
    last_slow_processed: u64,
    /// The engine-occupancy mirror is stale by design: policies at fast
    /// cycle N see the queues as of the *previous* refresh, exactly like
    /// the original end-of-cycle recomputation. Set at slow edges,
    /// applied at the top of the next fast cycle.
    refresh_pending: bool,
    /// Detections drained from the engines so far (see
    /// [`FireGuardSystem::drain_detections`]).
    detections: Vec<Detection>,
}

impl FireGuardSystem {
    /// Builds a system: `kernels` are provisioned in order, each getting
    /// its engine allocation and the verdict bit equal to its position.
    ///
    /// # Panics
    ///
    /// Panics on a capacity violation (see [`FireGuardSystem::try_new`]).
    /// Use `try_new` when the deployment request comes from untrusted
    /// input (a CLI flag, a served HELLO).
    pub fn new(
        cfg: SocConfig,
        trace: Box<dyn Iterator<Item = TraceInst>>,
        kernels: &[(KernelId, EngineConfig)],
    ) -> Self {
        Self::try_new(cfg, trace, kernels).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible constructor: rejects deployments exceeding [`MAX_KERNELS`]
    /// (the packet verdict width) or [`MAX_ENGINES`] (the allocator
    /// bitmap), or provisioning a kernel with zero engines — without
    /// panicking, so hostile or oversized session configs surface as
    /// clean errors.
    ///
    /// The trace is judged serially (batched, inline with the core's
    /// trace pull); see [`FireGuardSystem::try_new_pipelined`] for the
    /// threaded stages.
    pub fn try_new(
        cfg: SocConfig,
        trace: Box<dyn Iterator<Item = TraceInst>>,
        kernels: &[(KernelId, EngineConfig)],
    ) -> Result<Self, CapacityError> {
        validate_capacity(kernels)?;
        let ids: Vec<KernelId> = kernels.iter().map(|&(id, _)| id).collect();
        let window = Rc::new(RefCell::new(VerdictWindow::new()));
        let judged: Box<dyn Iterator<Item = TraceInst>> =
            Box::new(JudgedTrace::new(trace, &ids, Rc::clone(&window)));
        Ok(Self::assemble(cfg, judged, window, 1, None, kernels))
    }

    /// Like [`FireGuardSystem::try_new`], but the judging stage may run
    /// ahead of the core on worker threads. `pipeline` is the requested
    /// width (0 = auto from `available_parallelism()`); the effective
    /// width is clamped to the three real stages and a width ≤ 1 —
    /// including auto on a 1-CPU host — degrades to the serial path.
    /// Results are bit-identical at every width: verdicts are pure
    /// functions of the seq-ordered event stream, and batch boundaries
    /// and batch order are preserved across all shapes.
    ///
    /// # Errors
    ///
    /// The same capacity errors as [`FireGuardSystem::try_new`].
    pub fn try_new_pipelined(
        cfg: SocConfig,
        trace: Box<dyn Iterator<Item = TraceInst> + Send>,
        kernels: &[(KernelId, EngineConfig)],
        pipeline: u32,
    ) -> Result<Self, CapacityError> {
        validate_capacity(kernels)?;
        let width = crate::pipeline::resolve_pipeline_width(pipeline);
        let ids: Vec<KernelId> = kernels.iter().map(|&(id, _)| id).collect();
        let window = Rc::new(RefCell::new(VerdictWindow::new()));
        if width <= 1 {
            let judged: Box<dyn Iterator<Item = TraceInst>> =
                Box::new(JudgedTrace::new(trace, &ids, Rc::clone(&window)));
            return Ok(Self::assemble(cfg, judged, window, 1, None, kernels));
        }
        let stats = Arc::new(PipelineStats::default());
        let judged: Box<dyn Iterator<Item = TraceInst>> = Box::new(PipelinedTrace::new(
            trace,
            &ids,
            Rc::clone(&window),
            width,
            Arc::clone(&stats),
        ));
        Ok(Self::assemble(
            cfg,
            judged,
            window,
            width,
            Some(stats),
            kernels,
        ))
    }

    /// Builds the SoC around an already-judged trace stream (capacity
    /// pre-validated by the public constructors).
    fn assemble(
        cfg: SocConfig,
        trace: Box<dyn Iterator<Item = TraceInst>>,
        window: Rc<RefCell<VerdictWindow>>,
        pipeline_width: u32,
        pipeline_stats: Option<Arc<PipelineStats>>,
        kernels: &[(KernelId, EngineConfig)],
    ) -> Self {
        let mut filter = EventFilter::new(cfg.filter);
        let mut allocator = Allocator::new();
        let mut engines = Vec::new();
        let mut kernel_groups = Vec::new();
        let mut shared_timing = Vec::new();

        let mut class_kernels = [0u8; MAX_CLASSES];
        for (vbit, (id, provision)) in kernels.iter().enumerate() {
            let g = GuardianKernel::new(*id, vbit, cfg.model);
            for (class, gid, dp) in id.subscriptions() {
                filter.subscribe(class, gid, dp);
                class_kernels[(class as usize).min(MAX_CLASSES - 1)] |= 1 << vbit;
            }
            let engine_ids: Vec<usize> = match provision {
                EngineConfig::Ucores(n) => {
                    // n >= 1: validated above.
                    (0..*n)
                        .map(|_| {
                            let ucfg = UcoreConfig {
                                isax_mode: cfg.isax,
                                ..UcoreConfig::default()
                            };
                            let u = Ucore::new(ucfg, g.program());
                            let backend = g.engine_backend();
                            engines.push(Engine::Ucore(Box::new(UcoreEngine { u, backend })));
                            engines.len() - 1
                        })
                        .collect()
                }
                EngineConfig::Ha => {
                    engines.push(Engine::Ha(HardwareAccelerator::line_rate(vbit)));
                    vec![engines.len() - 1]
                }
            };
            let policy = match provision {
                EngineConfig::Ha => fireguard_core::Policy::Fixed,
                _ => id.policy(),
            };
            let se = allocator.add_se(SchedulingEngine::new(engine_ids.clone(), policy));
            for gid in id.gids() {
                allocator.subscribe(gid, se);
            }
            shared_timing.push(g.shared_timing());
            kernel_groups.push((*id, vbit, engine_ids));
        }

        let divider = ClockDivider::new(cfg.clock_ratio);
        let cdcs = (0..engines.len())
            .map(|_| CdcQueue::new(cfg.cdc_depth, divider))
            .collect();
        let mesh = Mesh::for_engines(engines.len().max(1));
        let n_engines = engines.len();
        let frontend = Frontend::new(filter, allocator, window, cdcs, n_engines, class_kernels);
        FireGuardSystem {
            core: Core::new(cfg.boom, trace),
            cfg,
            frontend,
            engines,
            kernel_groups,
            shared_timing,
            mesh,
            pending_noc: BinaryHeap::new(),
            divider,
            pipeline_width,
            pipeline_stats,
            fg_idle: false,
            last_slow_processed: u64::MAX,
            refresh_pending: false,
            detections: Vec::new(),
        }
    }

    /// One fast-domain cycle of the whole system.
    pub fn step(&mut self) {
        let now = self.core.now();
        self.tick_fireguard(now);
        // Main core cycle (commit drives the frontend).
        self.core.step(&mut self.frontend);
        // A committed instruction may have produced the first packet of a
        // busy phase: leave idle mode before the next mapper cycle.
        if self.fg_idle && self.frontend.filter.arbiter_has_packet() {
            self.fg_idle = false;
        }
    }

    /// The FireGuard-side work of one fast cycle: occupancy refresh,
    /// mapper steps, and (on slow-domain edges) fabric + engines. Skipped
    /// wholesale while the system is provably idle.
    fn tick_fireguard(&mut self, now: u64) {
        self.apply_refresh();
        if self.fg_idle {
            // Placeholders still stream in from unmonitored commits; the
            // arbiter keeps discarding them (as the mapper's peek always
            // did) so they never back-pressure the commit stage. Valid
            // packets cannot appear without first leaving idle mode.
            self.frontend.filter.squash_placeholders();
            return;
        }
        // Mapper: one packet per fast cycle (the paper's scalar mapper), or
        // several under the footnote-5 superscalar extension.
        for _ in 0..self.cfg.mapper_width {
            self.frontend.step_mapper(now);
        }
        // Slow-domain edge: multicast delivery, engines, NoC.
        if self.divider.is_slow_edge(now) {
            let slow = self.divider.slow_cycle(now);
            self.slow_edge(slow);
        }
    }

    /// Applies the occupancy mirror refresh scheduled by the previous slow
    /// edge (equivalent to the original end-of-cycle refresh).
    fn apply_refresh(&mut self) {
        if self.refresh_pending {
            self.refresh_pending = false;
            for (i, e) in self.engines.iter().enumerate() {
                self.frontend.engine_full[i] = e.queue_full();
            }
        }
    }

    /// One slow-domain edge: catch up skipped µcore clocks, deliver,
    /// advance engines, route the NoC, then schedule the occupancy
    /// refresh and re-evaluate idleness.
    fn slow_edge(&mut self, slow: u64) {
        if self.last_slow_processed.wrapping_add(1) != slow {
            // Edges were skipped while idle: parked µcores bulk-account
            // the missed cycles so their clocks read exactly as if every
            // edge had advanced them individually.
            for engine in &mut self.engines {
                if let Engine::Ucore(e) = engine {
                    e.u.advance(slow, e.backend.as_mut());
                }
            }
        }
        self.last_slow_processed = slow;
        self.deliver(slow);
        self.step_engines(slow);
        self.route_noc(slow);
        self.refresh_pending = true;
        self.fg_idle = self.all_quiet();
        self.sample_occupancy(1);
    }

    /// Occupancy sampling for `edges` slow edges over which the filter and
    /// CDC occupancy held still: reads only, after all state transitions
    /// of the edge are done, so the samples can never influence them.
    fn sample_occupancy(&mut self, edges: u64) {
        if cfg!(feature = "telemetry") && edges > 0 {
            let buffered = self.frontend.filter.buffered() as u64;
            let mut cdc_total = 0u64;
            let mut cdc_max = 0u64;
            for q in &self.frontend.cdcs {
                let len = q.len() as u64;
                cdc_total += len;
                cdc_max = cdc_max.max(len);
            }
            let c = &mut self.frontend.counters;
            c.slow_edges += edges;
            c.filter_ring_hwm = c.filter_ring_hwm.max(buffered);
            c.cdc_hwm = c.cdc_hwm.max(cdc_max);
            c.mapper_occupancy_sum += edges * cdc_total;
        }
    }

    /// The frozen-cycle fast-forward: if the next cycles provably repeat
    /// one another, takes up to `max_cycles` of them in bulk and returns
    /// how many (0 when the next cycle may change something).
    ///
    /// A frozen cycle has the core stalled behind a finished head that
    /// the slot-0 FIFO refuses (see [`Core::frozen_until`]), the mapper
    /// blocked on a full CDC queue, and a slow edge, if any, with nothing
    /// to do (see `fabric_wake`). Such a cycle changes counters only, so a
    /// run of them is bulk-accounted: core cycles and stalls, filter
    /// offers and refusals, the bottleneck breakdown and the per-edge
    /// occupancy samples. Engines change only at processed edges, so the
    /// occupancy mirror stays exact without a refresh, and parked µcores
    /// catch the skipped edges up through the `last_slow_processed` gap
    /// rule, as after an idle stretch.
    fn skip_frozen(&mut self, max_cycles: u64) -> u64 {
        if self.fg_idle || !self.frontend.filter.fifo_full(0) {
            return 0;
        }
        let Some(core_wake) = self.core.frozen_until() else {
            return 0;
        };
        // What the next cycle would begin with; both are idempotent.
        self.apply_refresh();
        self.frontend.filter.squash_placeholders();
        if !self.frontend.filter.fifo_full(0) || !self.frontend.mapper_blocked() {
            return 0;
        }
        let now = self.core.now();
        // Finite: the engine behind the full CDC queue either runs or has
        // a visible head to take.
        let wake = core_wake
            .min(self.fabric_wake(now))
            .min(now.saturating_add(max_cycles));
        if wake <= now {
            return 0;
        }
        self.core.skip_frozen(wake);
        self.frontend.filter.refuse_frozen_cycles(now, wake);
        self.frontend.charge_backpressure(wake - now);
        let ratio = self.divider.ratio();
        self.sample_occupancy(wake.div_ceil(ratio) - now.div_ceil(ratio));
        wake - now
    }

    /// The first fast cycle at or after `now` whose slow edge has work: a
    /// µcore instruction due (a busy µcore runs at the edge of its local
    /// cycle), an HA holding packets, a CDC head visible to an engine with
    /// queue space, or a NoC packet maturing; `u64::MAX` if none is due.
    /// µcore output queues need no check: every edge that runs a µcore
    /// also routes them empty.
    fn fabric_wake(&self, now: u64) -> u64 {
        let ratio = self.divider.ratio();
        let first = now.div_ceil(ratio);
        let mut slow = self
            .pending_noc
            .peek()
            .map_or(u64::MAX, |&Reverse((t, _, _))| t);
        for (engine, cdc) in self.engines.iter().zip(&self.frontend.cdcs) {
            let due = match engine {
                Engine::Ucore(e) if !e.u.parked_on_empty_input() => e.u.now(),
                Engine::Ha(h) if h.occupancy() > 0 => first,
                _ => u64::MAX,
            };
            slow = slow.min(due);
            if engine.queue_free() {
                slow = slow.min(cdc.head_visible_at().unwrap_or(u64::MAX));
            }
        }
        slow.max(first).saturating_mul(ratio)
    }

    /// True when no packet is buffered anywhere in the FireGuard side and
    /// every engine is parked (or drained, for HAs): until the commit
    /// stream produces another packet, every skipped cycle is a no-op.
    fn all_quiet(&self) -> bool {
        !self.frontend.filter.arbiter_has_packet()
            && self.pending_noc.is_empty()
            && self.frontend.cdcs.iter().all(|c| c.is_empty())
            && self.engines.iter().all(|e| match e {
                Engine::Ucore(eng) => {
                    eng.u.input().is_empty()
                        && eng.u.output().is_empty()
                        && eng.u.parked_on_empty_input()
                }
                Engine::Ha(h) => h.occupancy() == 0,
            })
    }

    fn deliver(&mut self, slow: u64) {
        for (i, engine) in self.engines.iter_mut().enumerate() {
            // HAs are tightly coupled at line rate (a full commit burst per
            // slow cycle); µcore message queues take the configured rate.
            let rate = match engine {
                Engine::Ha(_) => self.cfg.multicast_rate.max(8),
                Engine::Ucore(_) => self.cfg.multicast_rate,
            };
            for _ in 0..rate {
                if !engine.queue_free() {
                    break;
                }
                let Some(p) = self.frontend.cdcs[i].pop(slow) else {
                    break;
                };
                let entry =
                    QueueEntry::with_meta(p.bits(), p.meta.seq, p.meta.commit_cycle, p.meta.attack);
                match engine {
                    Engine::Ucore(e) => {
                        e.u.input_mut().push(entry).expect("space checked");
                    }
                    Engine::Ha(h) => {
                        let _ = h.push(entry);
                    }
                }
            }
        }
    }

    fn step_engines(&mut self, slow: u64) {
        for engine in &mut self.engines {
            match engine {
                Engine::Ucore(e) => e.u.advance(slow + 1, e.backend.as_mut()),
                Engine::Ha(h) => h.step(slow),
            }
        }
    }

    fn route_noc(&mut self, slow: u64) {
        // Inter-checker traffic: each µcore's output queue is routed to the
        // next engine of the same kernel (ring), via the mesh.
        for (_, _, group) in &self.kernel_groups {
            if group.len() < 2 {
                continue;
            }
            for (gi, &src) in group.iter().enumerate() {
                let dst = group[(gi + 1) % group.len()];
                if let Engine::Ucore(eng) = &mut self.engines[src] {
                    while let Some(e) = eng.u.output_mut().pop() {
                        let t = self.mesh.send(
                            self.mesh.node_for_engine(src),
                            self.mesh.node_for_engine(dst),
                            slow,
                        );
                        self.pending_noc.push(Reverse((t, dst, e.bits() as u64)));
                    }
                }
            }
        }
        // Deliver matured NoC packets.
        while let Some(&Reverse((t, dst, payload))) = self.pending_noc.peek() {
            if t > slow {
                break;
            }
            self.pending_noc.pop();
            if let Engine::Ucore(eng) = &mut self.engines[dst] {
                if eng
                    .u
                    .input_mut()
                    .push(QueueEntry::from_bits(payload.into()))
                    .is_err()
                {
                    // Destination full: retry next slow cycle.
                    self.pending_noc.push(Reverse((t + 1, dst, payload)));
                    break;
                }
            }
        }
    }

    /// Runs until `n` instructions commit; returns the result against the
    /// provided baseline cycle count.
    pub fn run_insts(&mut self, n: u64, baseline_cycles: u64) -> RunResult {
        // `u64::MAX` period = never drain mid-run, so the detection order in
        // the result is engine-major, exactly as it has always been.
        self.run_insts_observed(n, baseline_cycles, u64::MAX, &mut |_| {})
    }

    /// Runs until `n` instructions commit, delivering kernel detections to
    /// `observer` *online*: every `observe_every` fast cycles the engines'
    /// alarm queues are drained and any new [`Detection`]s are handed to
    /// the observer in batch. This is how `fireguard-server` streams alarm
    /// frames to a client while the session is still running.
    ///
    /// Draining alarms has no effect on the simulation itself, so the
    /// returned [`RunResult`] is identical to [`FireGuardSystem::run_insts`]
    /// except for the *order* of `detections` (time-bucketed rather than
    /// engine-major). With `observe_every == u64::MAX` the two are
    /// bit-identical.
    pub fn run_insts_observed(
        &mut self,
        n: u64,
        baseline_cycles: u64,
        observe_every: u64,
        observer: &mut dyn FnMut(&[Detection]),
    ) -> RunResult {
        let target = n;
        let observing = observe_every != u64::MAX;
        let mut tick = 0u64;
        while self.core.stats().committed < target && !self.core.is_drained() {
            // Frozen stretches never cross an observe boundary, so alarms
            // are drained at the same cycles as without the fast-forward.
            let room = observe_every.saturating_sub(tick);
            tick += match self.skip_frozen(room) {
                0 => {
                    self.step();
                    1
                }
                skipped => skipped,
            };
            if observing && tick >= observe_every {
                tick = 0;
                let new = self.drain_detections();
                if !new.is_empty() {
                    observer(&new);
                }
            }
        }
        // Drain the analysis backlog so late detections are observed —
        // without advancing the main core (its cycle count is the result).
        let mut now = self.core.now();
        let drain_until = now + 50_000;
        while now < drain_until {
            self.tick_fireguard(now);
            now += 1;
            if self.engines.iter().all(|e| match e {
                Engine::Ucore(eng) => eng.u.input().is_empty(),
                Engine::Ha(h) => h.occupancy() == 0,
            }) && !self.frontend.filter.arbiter_has_packet()
            {
                break;
            }
        }
        if observing {
            let tail = self.drain_detections();
            if !tail.is_empty() {
                observer(&tail);
            }
        }
        self.collect(baseline_cycles)
    }

    /// Drains the engines' alarm queues into [`Detection`]s, returning the
    /// *new* detections since the previous drain. All drained detections
    /// are also accumulated internally so the final [`RunResult`] is
    /// complete regardless of how often this is called.
    pub fn drain_detections(&mut self) -> Vec<Detection> {
        let ns_per_fast = self.cfg.boom.ns_per_cycle();
        let ratio = self.cfg.clock_ratio;
        let mut new = Vec::new();
        for (_, vbit, group) in &self.kernel_groups {
            for &e in group {
                match &mut self.engines[e] {
                    Engine::Ucore(eng) => {
                        for a in eng.u.take_alarms() {
                            let fast_at = a.cycle * ratio;
                            new.push(Detection {
                                seq: a.seq,
                                latency_ns: (fast_at.saturating_sub(a.commit_cycle)) as f64
                                    * ns_per_fast,
                                attack: a.attack,
                                kernel_slot: *vbit,
                            });
                        }
                    }
                    Engine::Ha(h) => {
                        for d in h.take_detections() {
                            let fast_at = d.cycle * ratio;
                            new.push(Detection {
                                seq: d.seq,
                                latency_ns: (fast_at.saturating_sub(d.commit_cycle)) as f64
                                    * ns_per_fast,
                                attack: d.attack,
                                kernel_slot: *vbit,
                            });
                        }
                    }
                }
            }
        }
        if cfg!(feature = "telemetry") {
            for d in &new {
                self.frontend.counters.kernel_alarms[d.kernel_slot] += 1;
            }
        }
        self.detections.extend_from_slice(&new);
        new
    }

    fn collect(&mut self, baseline_cycles: u64) -> RunResult {
        let _ = self.drain_detections();
        let detections = std::mem::take(&mut self.detections);
        let stats = self.core.stats().clone();
        let cycles = stats.cycles;
        RunResult {
            committed: stats.committed,
            cycles,
            baseline_cycles,
            slowdown: if baseline_cycles == 0 {
                1.0
            } else {
                cycles as f64 / baseline_cycles as f64
            },
            packets: self.frontend.filter.stats().packets,
            detections,
            bottlenecks: self.frontend.breakdown,
            unclaimed_packets: self.frontend.allocator.stats().unclaimed,
        }
    }

    /// The main core's statistics so far.
    pub fn core_stats(&self) -> &fireguard_boom::CoreStats {
        self.core.stats()
    }

    /// A snapshot of the engine counters: the live offer-path and
    /// slow-edge tallies, plus the per-stage statistics (filter totals,
    /// µcore park/idle/cache/TLB, NoC) folded in at read time. Reading a
    /// snapshot performs no mutation anywhere, so it can never perturb
    /// the simulation — the determinism contract's telemetry half.
    pub fn telemetry(&self) -> EngineCounters {
        let mut c = self.frontend.counters;
        let fs = self.frontend.filter.stats();
        c.packets = fs.packets;
        c.placeholders = fs.placeholders;
        c.offers = fs.offers;
        c.refusals = fs.refusals;
        for engine in &self.engines {
            if let Engine::Ucore(e) = engine {
                let s = e.u.stats();
                c.ucore_idle_cycles += s.idle_cycles;
                c.ucore_retired += s.retired;
                c.ucore_mem_accesses += s.mem_accesses;
                c.ucore_parks += s.parks;
                c.ucore_wakes += s.wakes;
                let m = e.u.mem_stats();
                c.cache_hits += m.hits;
                c.cache_misses += m.misses;
                let (th, tm) = e.u.tlb_stats();
                c.tlb_hits += th;
                c.tlb_misses += tm;
            }
        }
        let ms = self.mesh.stats();
        c.noc_flits = ms.packets;
        c.noc_hops = ms.hops;
        c.noc_queue_cycles = ms.queueing;
        c.pipeline_width = u64::from(self.pipeline_width);
        if let Some(ps) = &self.pipeline_stats {
            let (gen_full, judge_full, core_empty, batches) = ps.snapshot();
            c.pipeline_gen_stalls = gen_full;
            c.pipeline_judge_stalls = judge_full;
            c.pipeline_core_waits = core_empty;
            c.pipeline_batches = batches;
        }
        c
    }

    /// The effective in-session pipeline width (1 = serial judging).
    pub fn pipeline_width(&self) -> u32 {
        self.pipeline_width
    }

    /// The deployment's `(verdict slot, kernel)` map, in slot order —
    /// what relabels slot-indexed telemetry by registry kernel.
    pub fn kernel_slots(&self) -> Vec<(usize, KernelId)> {
        self.kernel_groups
            .iter()
            .map(|&(id, vbit, _)| (vbit, id))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{build_system_auto, ExperimentConfig};
    use fireguard_trace::{AttackKind, AttackPlan};
    use fireguard_ucore::IsaxMode;

    /// Steps `sys` until `n` instructions commit, fast-forwarding frozen
    /// stretches when `skip` is set, then drains it like `run_insts`.
    /// Returns the result and the number of cycles fast-forwarded.
    fn drive(sys: &mut FireGuardSystem, n: u64, skip: bool) -> (RunResult, u64) {
        let mut skipped = 0;
        while sys.core.stats().committed < n {
            let k = if skip { sys.skip_frozen(u64::MAX) } else { 0 };
            if k == 0 {
                sys.step();
            }
            skipped += k;
        }
        (sys.run_insts(0, 0), skipped)
    }

    #[test]
    fn fast_forward_matches_stepping_every_cycle() {
        let oob = AttackPlan::campaign(&[AttackKind::OutOfBounds], 8, 400, 11_600, 7);
        let cases = [
            ExperimentConfig::new("dedup")
                .kernel(KernelId::ASAN, 4)
                .seed(21)
                .attacks(oob),
            ExperimentConfig::new("swaptions")
                .kernel(KernelId::ASAN, 4)
                .filter_width(1),
            ExperimentConfig::new("x264")
                .kernel(KernelId::ASAN, 2)
                .kernel(KernelId::UAF, 2)
                .mapper_width(2),
            ExperimentConfig::new("bodytrack")
                .kernel(KernelId::UAF, 4)
                .isax(IsaxMode::PostCommit),
            ExperimentConfig::new("ferret")
                .kernel_ha(KernelId::SHADOW_STACK)
                .kernel(KernelId::TAINT, 1),
        ];
        for cfg in cases {
            let cfg = cfg.insts(12_000);
            let mut stepped = build_system_auto(&cfg);
            let mut skipping = build_system_auto(&cfg);
            let (want, _) = drive(&mut stepped, cfg.insts, false);
            let (got, skipped) = drive(&mut skipping, cfg.insts, true);
            assert!(skipped > 0, "{}: nothing was fast-forwarded", cfg.workload);
            assert_eq!(format!("{got:?}"), format!("{want:?}"), "{}", cfg.workload);
            assert_eq!(skipping.core_stats(), stepped.core_stats());
            assert_eq!(skipping.telemetry(), stepped.telemetry());
            assert_eq!(
                skipping.frontend.filter.stats(),
                stepped.frontend.filter.stats()
            );
        }
    }
}
