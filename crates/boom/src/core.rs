//! The trace-driven out-of-order pipeline model.
//!
//! One [`Core::step`] models one 3.2 GHz core cycle with the classic stage
//! ordering (commit → issue/execute → dispatch/rename → fetch), so that
//! structural resources (ROB, IQ, LDQ/STQ, physical registers, functional
//! units, PRF read ports) constrain flow exactly one cycle at a time.
//!
//! The model is *trace-driven*: instructions come from a
//! [`fireguard_trace::TraceGenerator`] which resolves all outcomes
//! (branch directions, targets, memory addresses). Mispredictions therefore
//! cannot fetch wrong-path instructions; they are modelled as fetch stalls
//! from the mispredicted instruction's fetch until its resolution at
//! execute plus a redirect penalty — the standard trace-driven
//! approximation.

use crate::config::BoomConfig;
use crate::predictor::{FrontendPredictor, MispredictKind};
use crate::sink::CommitSink;
use crate::stats::{CoreStats, StallKind};
use fireguard_isa::InstClass;
use fireguard_mem::{Cache, MemoryHierarchy, Tlb};
use fireguard_trace::TraceInst;
use std::collections::VecDeque;

const NOT_READY: u64 = u64::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EntryState {
    /// Dispatched, waiting in the issue queue.
    Waiting,
    /// Issued; completes at `ready_at`.
    Executing,
}

/// Scan-hot projection of a `Waiting` ROB entry (see `Core::waiting_q`).
///
/// Dispatch runs *after* issue within a cycle, so an entry is always at
/// least one cycle old by its first scan — no dispatch-cycle eligibility
/// field is needed.
#[derive(Debug, Clone, Copy)]
struct WaitEntry {
    /// All-time push position; `abs - pops` is the live ROB index.
    abs: u64,
    /// Renamed sources, as in `RobEntry::srcs`.
    srcs: [Option<(bool, u16)>; 2],
    /// Instruction class (functional-unit selection).
    class: InstClass,
}

#[derive(Debug, Clone)]
struct RobEntry {
    t: TraceInst,
    state: EntryState,
    ready_at: u64,
    /// Renamed destination and the mapping it replaced (freed at commit).
    /// The renamed *sources* and dispatch cycle live in the issue stage's
    /// compact `WaitEntry` instead — they are dead once an entry issues.
    dest: Option<(bool, u16)>,
    old_phys: Option<(bool, u16)>,
    mispredicted: bool,
}

/// The out-of-order core model. Generic over the input trace iterator.
pub struct Core<T> {
    cfg: BoomConfig,
    trace: T,
    pending_fetch: Option<TraceInst>,
    trace_done: bool,
    now: u64,

    pred: FrontendPredictor,
    icache: Cache,
    last_fetch_line: u64,
    fetch_buf: VecDeque<TraceInst>,
    fetch_blocked_until: u64,
    /// Sequence number of an in-flight mispredicted control transfer that
    /// fetch is waiting on.
    redirect_wait: Option<u64>,

    rat_int: [u16; 32],
    rat_fp: [u16; 32],
    free_int: Vec<u16>,
    free_fp: Vec<u16>,
    ready_int: Vec<u64>,
    ready_fp: Vec<u64>,

    rob: VecDeque<RobEntry>,
    iq_len: usize,
    /// All-time count of entries popped off the ROB front; `abs - pops`
    /// maps a stored absolute position back to a live ROB index.
    pops: u64,
    /// The `Waiting` entries, oldest first, with the scan-hot fields
    /// copied inline (~24 bytes each). The issue stage walks this compact
    /// array instead of scanning the whole ROB: the executing majority and
    /// the 150-byte entries are never touched until something actually
    /// issues, and in-place compaction keeps program order, so issue
    /// decisions are identical to a full scan.
    waiting_q: Vec<WaitEntry>,
    /// No waiting entry can issue before this cycle, so `issue` returns
    /// at once while `now` is below it (see `issue`).
    issue_wake: u64,
    ldq_used: usize,
    stq_used: usize,

    dmem: MemoryHierarchy,
    dtlb: Tlb,

    stats: CoreStats,
}

impl<T: Iterator<Item = TraceInst>> Core<T> {
    /// Builds a core over `trace` with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`BoomConfig::validate`].
    pub fn new(cfg: BoomConfig, trace: T) -> Self {
        cfg.validate();
        let free_int: Vec<u16> = (32..cfg.int_prf as u16).collect();
        let free_fp: Vec<u16> = (32..cfg.fp_prf as u16).collect();
        let ready_int = vec![0; cfg.int_prf];
        let ready_fp = vec![0; cfg.fp_prf];
        let mut rat_int = [0u16; 32];
        let mut rat_fp = [0u16; 32];
        for (i, (ri, rf)) in rat_int.iter_mut().zip(rat_fp.iter_mut()).enumerate() {
            *ri = i as u16;
            *rf = i as u16;
        }
        Core {
            icache: Cache::new(fireguard_mem::CacheConfig::new(32 * 1024, 8, 64)),
            dmem: MemoryHierarchy::new(cfg.dmem),
            dtlb: Tlb::new(cfg.dtlb),
            cfg,
            trace,
            pending_fetch: None,
            trace_done: false,
            now: 0,
            pred: FrontendPredictor::new(),
            last_fetch_line: u64::MAX,
            fetch_buf: VecDeque::new(),
            fetch_blocked_until: 0,
            redirect_wait: None,
            rat_int,
            rat_fp,
            free_int,
            free_fp,
            ready_int,
            ready_fp,
            rob: VecDeque::new(),
            iq_len: 0,
            pops: 0,
            waiting_q: Vec::new(),
            issue_wake: 0,
            ldq_used: 0,
            stq_used: 0,
            stats: CoreStats::default(),
        }
    }

    /// Current cycle.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// The configuration in use.
    pub fn config(&self) -> &BoomConfig {
        &self.cfg
    }

    /// True once the trace is exhausted and the pipeline has drained.
    pub fn is_drained(&self) -> bool {
        self.trace_done
            && self.pending_fetch.is_none()
            && self.fetch_buf.is_empty()
            && self.rob.is_empty()
    }

    /// Advances the model by one core cycle.
    pub fn step<S: CommitSink>(&mut self, sink: &mut S) {
        let stolen = sink.prf_ports_stolen(self.now);
        self.commit(sink);
        self.issue(stolen);
        self.dispatch();
        self.fetch();
        self.now += 1;
        self.stats.cycles += 1;
    }

    /// Runs until `n` instructions commit (or the trace drains), returning
    /// a snapshot of the statistics.
    ///
    /// # Panics
    ///
    /// Panics if the pipeline makes no progress for an implausible number of
    /// cycles (a deadlock, which would be a simulator bug or a sink that
    /// refuses everything forever).
    pub fn run_insts<S: CommitSink>(&mut self, n: u64, sink: &mut S) -> CoreStats {
        let target = self.stats.committed + n;
        let mut last_progress = (self.now, self.stats.committed);
        while self.stats.committed < target && !self.is_drained() {
            self.step(sink);
            if self.stats.committed > last_progress.1 {
                last_progress = (self.now, self.stats.committed);
            } else {
                assert!(
                    self.now - last_progress.0 < 2_000_000,
                    "no commit progress for 2M cycles: wedged at seq {} cycle {}",
                    last_progress.1,
                    self.now
                );
            }
        }
        self.stats.clone()
    }

    /// Runs for `n` cycles.
    pub fn run_cycles<S: CommitSink>(&mut self, n: u64, sink: &mut S) -> CoreStats {
        for _ in 0..n {
            if self.is_drained() {
                break;
            }
            self.step(sink);
        }
        self.stats.clone()
    }

    /// The frozen-core bound. Assuming the sink refuses every offer from
    /// now on, returns the first cycle at which a step could differ from
    /// the current one, or `None` if the next step may already differ.
    ///
    /// Frozen means: a finished head waits at commit (so each step offers
    /// it once and stalls), nothing can issue before `issue_wake`,
    /// dispatch is blocked by something only a commit or an issue can
    /// clear, and fetch is either idle for good (redirect pending, buffer
    /// full) or blocked until a known cycle. The frozen steps can then be
    /// taken in bulk with [`Core::skip_frozen`].
    pub fn frozen_until(&self) -> Option<u64> {
        let head = self.rob.front()?;
        if head.state != EntryState::Executing || head.ready_at > self.now {
            return None;
        }
        if self.now >= self.issue_wake {
            return None;
        }
        // Every dispatch block but an empty fetch buffer is held by a
        // commit or an issue; that one is held by fetch, checked next.
        self.dispatch_block()?;
        let fetch_wake =
            if self.redirect_wait.is_some() || self.fetch_buf.len() >= self.cfg.fetch_buffer {
                u64::MAX
            } else if self.now < self.fetch_blocked_until {
                self.fetch_blocked_until
            } else {
                return None;
            };
        Some(self.issue_wake.min(fetch_wake))
    }

    /// Takes the frozen steps up to (not including) cycle `until` in
    /// bulk: each would have offered the head, been refused and charged a
    /// commit-backpressure stall plus the dispatch stall. The caller must
    /// have checked `until` against [`Core::frozen_until`] and accounted
    /// the refused offers on the sink's side.
    pub fn skip_frozen(&mut self, until: u64) {
        debug_assert!(self.frozen_until().is_some_and(|wake| until <= wake));
        let cycles = until - self.now;
        let kind = self.dispatch_block().expect("dispatch is blocked");
        self.stats.stall_cycles[StallKind::CommitBackpressure.index()] += cycles;
        self.stats.stall_cycles[kind.index()] += cycles;
        self.stats.cycles += cycles;
        self.now = until;
    }

    // ---- commit -------------------------------------------------------------

    fn commit<S: CommitSink>(&mut self, sink: &mut S) {
        let mut committed_this_cycle = 0;
        for slot in 0..self.cfg.commit_width {
            let Some(head) = self.rob.front() else { break };
            let done = head.state == EntryState::Executing && head.ready_at <= self.now;
            if !done {
                break;
            }
            if !sink.offer(self.now, slot, &head.t) {
                self.stats.add_stall(StallKind::CommitBackpressure);
                break;
            }
            let head = self.rob.pop_front().expect("head exists");
            self.pops += 1;
            if let Some((fp, old)) = head.old_phys {
                if fp {
                    self.free_fp.push(old);
                } else {
                    self.free_int.push(old);
                }
            }
            match head.t.class {
                InstClass::Load => self.ldq_used -= 1,
                InstClass::Store => self.stq_used -= 1,
                InstClass::Amo => {
                    self.ldq_used -= 1;
                    self.stq_used -= 1;
                }
                InstClass::Branch => self.stats.branches += 1,
                _ => {}
            }
            if head.mispredicted {
                self.stats.mispredicts += 1;
            }
            self.stats.committed += 1;
            committed_this_cycle += 1;
        }
        if committed_this_cycle > 0 {
            self.stats.commit_active_cycles += 1;
        }
    }

    // ---- issue / execute ------------------------------------------------------

    fn exec_latency(&mut self, t: &TraceInst) -> u64 {
        match t.class {
            InstClass::IntAlu | InstClass::Jump | InstClass::Call | InstClass::Ret => 1,
            InstClass::Branch | InstClass::IndirectJump => 1,
            InstClass::IntMul => 3,
            InstClass::IntDiv => 20,
            InstClass::FpAlu => 4,
            InstClass::Csr => 3,
            InstClass::Fence | InstClass::System => 1,
            InstClass::Load => {
                let addr = t.mem_addr.unwrap_or(0);
                let tlb = self.dtlb.access(addr);
                let mem = self.dmem.access(self.now, addr, false);
                tlb + mem.latency
            }
            InstClass::Store => {
                // Address generation only; the write drains via the store
                // buffer. The cache access still updates tag state and MSHR
                // occupancy (write-allocate traffic).
                let addr = t.mem_addr.unwrap_or(0);
                let tlb = self.dtlb.access(addr);
                let _ = self.dmem.access(self.now, addr, true);
                1 + tlb
            }
            InstClass::Amo => {
                let addr = t.mem_addr.unwrap_or(0);
                let tlb = self.dtlb.access(addr);
                let mem = self.dmem.access(self.now, addr, true);
                tlb + mem.latency + 2
            }
        }
    }

    /// The cycle at which an entry with sources `srcs` becomes
    /// operand-ready: the latest of its sources' ready times (`NOT_READY`
    /// while a producer has not issued).
    fn operands_ready_at(&self, srcs: [Option<(bool, u16)>; 2]) -> u64 {
        srcs.iter()
            .flatten()
            .map(|&(fp, p)| {
                if fp {
                    self.ready_fp[p as usize]
                } else {
                    self.ready_int[p as usize]
                }
            })
            .max()
            .unwrap_or(0)
    }

    /// The issue stage. A scan also records `issue_wake`, the earliest
    /// cycle at which the next scan can issue anything: the minimum over
    /// waiting entries of their operand-ready cycles, or `now + 1` if a
    /// ready entry was held back by units, ports or the issue width. An
    /// entry whose producer has not issued is covered by that producer's
    /// own (earlier) bound; a producer's ready time is written only when
    /// it issues, which needs a scan. Dispatch lowers the bound for the
    /// entries it adds, so skipping the scans before it is exact.
    fn issue(&mut self, ports_stolen: usize) {
        if self.now < self.issue_wake {
            return;
        }
        let mut wake = u64::MAX;
        let mut issued = 0;
        let mut alu = self.cfg.int_alus;
        let mut fpu = self.cfg.fp_units;
        let mut mem = self.cfg.mem_units;
        let mut jmp = self.cfg.jump_units;
        let mut csr = self.cfg.csr_units;
        let mut int_ports = self.cfg.prf_read_ports.saturating_sub(ports_stolen);
        let mut port_conflict_seen = false;

        // Walk only the waiting entries (oldest first — the same order the
        // full ROB scan examined them), compacting the survivors in
        // place. The compaction only writes once entries start shifting
        // (after the first issue of the pass), and once the issue width
        // is spent the unexamined tail shifts down in one bulk move —
        // behaviourally identical to the old scan's early break.
        let mut kept = 0usize;
        macro_rules! keep {
            ($w:expr, $cursor:expr) => {{
                if kept != $cursor {
                    self.waiting_q[kept] = $w;
                }
                kept += 1;
                continue;
            }};
        }
        for cursor in 0..self.waiting_q.len() {
            if issued == self.cfg.issue_width {
                if kept != cursor {
                    self.waiting_q.copy_within(cursor.., kept);
                }
                kept += self.waiting_q.len() - cursor;
                wake = self.now + 1;
                break;
            }
            let w = self.waiting_q[cursor];
            // Operand readiness.
            let operands_at = self.operands_ready_at(w.srcs);
            if operands_at > self.now {
                wake = wake.min(operands_at);
                keep!(w, cursor);
            }
            // Functional-unit availability.
            let unit = match w.class {
                InstClass::IntAlu => &mut alu,
                InstClass::IntMul | InstClass::IntDiv | InstClass::FpAlu => &mut fpu,
                InstClass::Load | InstClass::Store | InstClass::Amo => &mut mem,
                InstClass::Branch
                | InstClass::Jump
                | InstClass::IndirectJump
                | InstClass::Call
                | InstClass::Ret => &mut jmp,
                InstClass::Csr => &mut csr,
                InstClass::Fence | InstClass::System => &mut alu,
            };
            if *unit == 0 {
                wake = self.now + 1;
                keep!(w, cursor);
            }
            let idx = (w.abs - self.pops) as usize;
            debug_assert_eq!(
                self.rob[idx].state,
                EntryState::Waiting,
                "waiting_q is in sync"
            );
            // Integer PRF read ports (FireGuard can have stolen some). The
            // oldest instruction is exempt: the forwarding channel only ever
            // borrows a port for a single cycle, so the head can always
            // issue — this guarantees forward progress under any sink.
            let int_reads = w.srcs.iter().flatten().filter(|&&(fp, _)| !fp).count();
            if idx != 0 && int_reads > int_ports {
                if ports_stolen > 0 && !port_conflict_seen {
                    self.stats.prf_port_conflicts += 1;
                    port_conflict_seen = true;
                }
                wake = self.now + 1;
                keep!(w, cursor);
            }
            *unit -= 1;
            int_ports = int_ports.saturating_sub(int_reads);
            issued += 1;

            let t = self.rob[idx].t;
            let lat = self.exec_latency(&t);
            let ready_at = self.now + lat;
            let e = &mut self.rob[idx];
            e.state = EntryState::Executing;
            e.ready_at = ready_at;
            self.iq_len -= 1;
            if let Some((fp, p)) = e.dest {
                if fp {
                    self.ready_fp[p as usize] = ready_at;
                } else {
                    self.ready_int[p as usize] = ready_at;
                }
            }
            // A resolving misprediction schedules the front-end redirect.
            if e.mispredicted && self.redirect_wait == Some(e.t.seq) {
                self.redirect_wait = None;
                self.fetch_blocked_until = self
                    .fetch_blocked_until
                    .max(ready_at + self.cfg.redirect_penalty);
            }
        }
        self.waiting_q.truncate(kept);
        self.issue_wake = wake;
    }

    // ---- dispatch / rename -------------------------------------------------------

    /// Why dispatch cannot take the next instruction this cycle, checked
    /// in the order the stall is charged; `None` when it can.
    fn dispatch_block(&self) -> Option<StallKind> {
        let Some(t) = self.fetch_buf.front() else {
            return Some(StallKind::FrontendEmpty);
        };
        if self.rob.len() == self.cfg.rob_entries {
            return Some(StallKind::RobFull);
        }
        if self.iq_len == self.cfg.iq_entries {
            return Some(StallKind::IqFull);
        }
        let ldq_full = self.ldq_used == self.cfg.ldq_entries;
        let stq_full = self.stq_used == self.cfg.stq_entries;
        match t.class {
            InstClass::Load if ldq_full => return Some(StallKind::LdqFull),
            InstClass::Store if stq_full => return Some(StallKind::StqFull),
            InstClass::Amo if ldq_full || stq_full => return Some(StallKind::LdqFull),
            _ => {}
        }
        let free = if t.class == InstClass::FpAlu {
            &self.free_fp
        } else {
            &self.free_int
        };
        (t.inst.dest().is_some() && free.is_empty()).then_some(StallKind::PrfFull)
    }

    fn dispatch(&mut self) {
        for dispatched in 0..self.cfg.decode_width {
            if let Some(kind) = self.dispatch_block() {
                if dispatched == 0 {
                    self.stats.add_stall(kind);
                }
                break;
            }
            // All structural checks passed: consume and rename.
            let t = self.fetch_buf.pop_front().expect("checked non-empty");
            let is_fp_op = t.class == InstClass::FpAlu;
            let mut srcs: [Option<(bool, u16)>; 2] = [None, None];
            for (i, s) in t.inst.sources().into_iter().enumerate() {
                if let Some(a) = s {
                    let fp = is_fp_op;
                    let phys = if fp {
                        self.rat_fp[a.index() as usize]
                    } else {
                        self.rat_int[a.index() as usize]
                    };
                    srcs[i] = Some((fp, phys));
                }
            }
            let mut dest = None;
            let mut old_phys = None;
            if let Some(d) = t.inst.dest() {
                let fp = is_fp_op;
                let (rat, free, ready) = if fp {
                    (&mut self.rat_fp, &mut self.free_fp, &mut self.ready_fp)
                } else {
                    (&mut self.rat_int, &mut self.free_int, &mut self.ready_int)
                };
                let new = free.pop().expect("checked free list");
                old_phys = Some((fp, rat[d.index() as usize]));
                rat[d.index() as usize] = new;
                ready[new as usize] = NOT_READY;
                dest = Some((fp, new));
            }
            match t.class {
                InstClass::Load => self.ldq_used += 1,
                InstClass::Store => self.stq_used += 1,
                InstClass::Amo => {
                    self.ldq_used += 1;
                    self.stq_used += 1;
                }
                _ => {}
            }
            let mispredicted = self.redirect_pending_for(t.seq);
            self.rob.push_back(RobEntry {
                t,
                state: EntryState::Waiting,
                ready_at: 0,
                dest,
                old_phys,
                mispredicted,
            });
            self.waiting_q.push(WaitEntry {
                abs: self.pops + (self.rob.len() - 1) as u64,
                srcs,
                class: t.class,
            });
            self.issue_wake = self.issue_wake.min(self.operands_ready_at(srcs));
            self.iq_len += 1;
        }
    }

    fn redirect_pending_for(&self, seq: u64) -> bool {
        self.redirect_wait == Some(seq)
    }

    // ---- fetch ------------------------------------------------------------------

    fn next_trace_inst(&mut self) -> Option<TraceInst> {
        if let Some(t) = self.pending_fetch.take() {
            return Some(t);
        }
        match self.trace.next() {
            Some(t) => Some(t),
            None => {
                self.trace_done = true;
                None
            }
        }
    }

    fn fetch(&mut self) {
        if self.redirect_wait.is_some() || self.now < self.fetch_blocked_until {
            return;
        }
        for _ in 0..self.cfg.fetch_width {
            if self.fetch_buf.len() >= self.cfg.fetch_buffer {
                break;
            }
            let Some(t) = self.next_trace_inst() else {
                break;
            };
            // I-cache: one line check per line transition.
            let line = t.pc & !63;
            if line != self.last_fetch_line {
                self.last_fetch_line = line;
                if !self.icache.access(t.pc, false) {
                    self.stats.icache_misses += 1;
                    self.fetch_blocked_until = self.now + self.cfg.icache_miss_penalty;
                    self.pending_fetch = Some(t);
                    return;
                }
            }
            let mispredict = match (t.class.is_control_flow(), t.control) {
                (true, Some(cf)) => self.pred.observe(t.pc, t.class, cf.taken, cf.target),
                _ => MispredictKind::None,
            };
            let taken_transfer = t.control.map(|c| c.taken).unwrap_or(false);
            let seq = t.seq;
            self.fetch_buf.push_back(t);
            match mispredict {
                MispredictKind::ExecuteRedirect => {
                    self.redirect_wait = Some(seq);
                    return;
                }
                MispredictKind::DecodeBubble => {
                    // The decoder extracts the target and redirects with a
                    // short fixed bubble; no execute-time resolution needed.
                    self.fetch_blocked_until = self.now + 2;
                    return;
                }
                MispredictKind::None => {}
            }
            if taken_transfer {
                // A fetch group ends at a taken control transfer.
                break;
            }
        }
    }
}

impl<T: Iterator<Item = TraceInst>> std::fmt::Debug for Core<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Core")
            .field("now", &self.now)
            .field("committed", &self.stats.committed)
            .field("rob_occupancy", &self.rob.len())
            .field("trace_done", &self.trace_done)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{NullSink, ThrottleSink};
    use fireguard_trace::{TraceGenerator, WorkloadProfile};

    fn core_for(name: &str, seed: u64) -> Core<TraceGenerator> {
        let t = TraceGenerator::new(WorkloadProfile::parsec(name).unwrap(), seed);
        Core::new(BoomConfig::default(), t)
    }

    #[test]
    fn ipc_is_plausible_for_all_workloads() {
        for w in fireguard_trace::PARSEC_WORKLOADS {
            let t = TraceGenerator::new(w.clone(), 5);
            let mut c = Core::new(BoomConfig::default(), t);
            let stats = c.run_insts(30_000, &mut NullSink);
            let ipc = stats.ipc();
            assert!(
                ipc > 0.3 && ipc <= 4.0,
                "{}: implausible IPC {ipc:.2}",
                w.name
            );
        }
    }

    #[test]
    fn deterministic_cycle_counts() {
        let run = || {
            let mut c = core_for("ferret", 9);
            c.run_insts(20_000, &mut NullSink).cycles
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn commit_is_in_program_order() {
        struct OrderCheck {
            last: Option<u64>,
        }
        impl CommitSink for OrderCheck {
            fn offer(&mut self, _now: u64, _slot: usize, inst: &TraceInst) -> bool {
                if let Some(last) = self.last {
                    assert_eq!(inst.seq, last + 1, "commit order must be program order");
                }
                self.last = Some(inst.seq);
                true
            }
        }
        let mut c = core_for("bodytrack", 3);
        let mut sink = OrderCheck { last: None };
        c.run_insts(20_000, &mut sink);
        assert!(sink.last.unwrap() >= 19_999);
    }

    #[test]
    fn commit_slots_respect_width() {
        struct SlotCheck;
        impl CommitSink for SlotCheck {
            fn offer(&mut self, _now: u64, slot: usize, _inst: &TraceInst) -> bool {
                assert!(slot < 4);
                true
            }
        }
        core_for("swaptions", 4).run_insts(10_000, &mut SlotCheck);
    }

    #[test]
    fn backpressure_slows_the_core() {
        let base = core_for("x264", 7).run_insts(20_000, &mut NullSink);
        let mut throttle = ThrottleSink::new(2); // refuse every other offer
        let slow = core_for("x264", 7).run_insts(20_000, &mut throttle);
        assert!(
            slow.cycles as f64 > base.cycles as f64 * 1.1,
            "refusing half the offers must slow commit: {} vs {}",
            slow.cycles,
            base.cycles
        );
        assert!(slow.stalls(StallKind::CommitBackpressure) > 0);
    }

    #[test]
    fn stolen_prf_ports_cost_performance() {
        struct StealSink(usize);
        impl CommitSink for StealSink {
            fn offer(&mut self, _now: u64, _slot: usize, _inst: &TraceInst) -> bool {
                true
            }
            fn prf_ports_stolen(&mut self, _now: u64) -> usize {
                self.0
            }
        }
        let base = core_for("x264", 11).run_insts(30_000, &mut StealSink(0));
        let steal = core_for("x264", 11).run_insts(30_000, &mut StealSink(6));
        assert!(
            steal.cycles > base.cycles,
            "losing 6 of 8 read ports must hurt: {} vs {}",
            steal.cycles,
            base.cycles
        );
        assert!(steal.prf_port_conflicts > 0);
    }

    #[test]
    fn issue_wake_skips_only_fruitless_scans() {
        // Refuses every third offer and steals half the PRF read ports
        // every other cycle, so the window fills and port conflicts occur.
        struct Mixed(u64);
        impl CommitSink for Mixed {
            fn offer(&mut self, _now: u64, _slot: usize, _inst: &TraceInst) -> bool {
                self.0 += 1;
                self.0 % 3 != 0
            }
            fn prf_ports_stolen(&mut self, now: u64) -> usize {
                if now % 2 == 0 {
                    4
                } else {
                    0
                }
            }
        }
        for w in ["x264", "dedup", "freqmine"] {
            let mut gated = core_for(w, 5);
            let mut scanning = core_for(w, 5);
            let (mut a, mut b) = (Mixed(0), Mixed(0));
            for _ in 0..30_000 {
                gated.step(&mut a);
                scanning.issue_wake = 0;
                scanning.step(&mut b);
            }
            assert!(scanning.stats.committed > 10_000, "{w}");
            assert!(scanning.stats.prf_port_conflicts > 0, "{w}");
            assert_eq!(gated.stats, scanning.stats, "{w}");
        }
    }

    #[test]
    fn branch_mispredict_rate_is_sane() {
        let mut c = core_for("streamcluster", 13);
        let stats = c.run_insts(50_000, &mut NullSink);
        let rate = stats.mispredict_rate();
        assert!(
            rate < 0.25,
            "predictable workload shouldn't exceed 25% redirects/branch: {rate:.3}"
        );
        assert!(stats.branches > 1_000);
    }

    #[test]
    fn x264_has_higher_ipc_than_freqmine() {
        // x264's looser dependency chains should out-run freqmine's
        // branch-heavy, tighter code on the same machine.
        let x = core_for("x264", 17).run_insts(40_000, &mut NullSink);
        let f = core_for("freqmine", 17).run_insts(40_000, &mut NullSink);
        assert!(
            x.ipc() > f.ipc(),
            "x264 {:.2} vs freqmine {:.2}",
            x.ipc(),
            f.ipc()
        );
    }

    #[test]
    fn finite_trace_drains_completely() {
        let t = TraceGenerator::new(WorkloadProfile::parsec("swaptions").unwrap(), 19);
        let finite: Vec<TraceInst> = t.take(5000).collect();
        let mut c = Core::new(BoomConfig::default(), finite.into_iter());
        let stats = c.run_insts(1_000_000, &mut NullSink);
        assert_eq!(stats.committed, 5000);
        assert!(c.is_drained());
    }

    #[test]
    fn narrower_commit_width_lowers_ipc() {
        let narrow_cfg = BoomConfig {
            commit_width: 1,
            ..BoomConfig::default()
        };
        let t = TraceGenerator::new(WorkloadProfile::parsec("x264").unwrap(), 23);
        let mut narrow = Core::new(narrow_cfg, t);
        let n = narrow.run_insts(20_000, &mut NullSink);
        let wide = core_for("x264", 23).run_insts(20_000, &mut NullSink);
        assert!(n.ipc() <= 1.0 + 1e-9);
        assert!(wide.ipc() > n.ipc());
    }

    #[test]
    fn larger_prf_than_default_scoreboard_works() {
        // Regression: the ready scoreboards were once hardcoded to 128
        // entries, panicking as soon as a bigger PRF handed out preg >= 128.
        let cfg = BoomConfig {
            int_prf: 256,
            fp_prf: 192,
            ..BoomConfig::default()
        };
        let trace = TraceGenerator::new(WorkloadProfile::parsec("x264").unwrap(), 7);
        let mut c = Core::new(cfg, trace);
        let stats = c.run_insts(20_000, &mut NullSink);
        assert!(stats.committed >= 20_000);
    }

    #[test]
    fn phys_registers_are_conserved() {
        let mut c = core_for("dedup", 29);
        c.run_insts(30_000, &mut NullSink);
        // Drain what's in flight.
        for _ in 0..10_000 {
            if c.rob.is_empty() {
                break;
            }
            c.step(&mut NullSink);
        }
        assert_eq!(
            c.free_int.len()
                + 32
                + c.rob
                    .iter()
                    .filter(|e| matches!(e.dest, Some((false, _))))
                    .count(),
            c.cfg.int_prf,
            "integer free list + architectural + in-flight must equal PRF size"
        );
    }
}
