//! DIFT taint-tracking plugin (wire id 4) — dynamic information-flow
//! tracking, the canonical "other" fine-grained monitor the generalized
//! fabric must host.
//!
//! **Taint sources.** Loads from the designated untrusted I/O window
//! taint their destination register. The reproduction designates the
//! PMC-protected MMIO page ([`gen::PMC_REGION_BASE`]) as that window: it
//! is the one address range the trace generator guarantees natural code
//! never touches, so a benign stream provably never introduces taint and
//! the kernel is silent on clean traces by construction.
//!
//! **Propagation.** Register-writing ALU/MUL/DIV/FP instructions taint
//! their destination when any register source is tainted (operand roles
//! are decoded from the real RV64 encodings the trace carries). Stores of
//! a tainted register into the stack spill window taint the target's
//! 8-byte shadow granule (untainted stores clear it); loads from tainted
//! spill granules re-taint the destination. Calls and jumps write `pc+4`
//! — a constant — so they clear their link register's taint.
//!
//! Taint carries a **propagation TTL** ([`TAINT_TTL`]) that drops by one
//! per derivation hop: data more than [`TAINT_TTL`] def-use steps from an
//! I/O read is considered laundered. Unbounded propagation through the
//! generator's statistically-tight dependency chains is supercritical —
//! one tainted load eventually taints a steady fraction of the register
//! file, the classic DIFT *taint explosion* — and decay is the standard
//! countermeasure; it bounds the blast radius while preserving every
//! multi-hop flow the conformance campaigns exercise.
//!
//! **Violations** (commit-order, exact):
//! * a memory access whose *address* register is tainted (tainted-pointer
//!   dereference — the classic DIFT control/data-hijack precursor);
//! * a store into the I/O control window (untrusted data reaching a
//!   control range);
//! * an indirect control transfer (`ret`, indirect jumps and indirect
//!   calls — any `jalr`) through a tainted register.

use crate::kernel::{ProgrammingModel, SharedTiming, OP_TAINT_STEP, TAINT_BASE};
use crate::programs::{self, ProgramShape, SlowPath};
use crate::semantics::Semantics;
use crate::spec::{mem_and_ctrl_subscriptions, KernelId, KernelSpec};
use fireguard_core::{groups, DpSel, Gid};
use fireguard_isa::{opcode, ArchReg, InstClass, Instruction};
use fireguard_trace::{gen, AttackKind, TraceInst};
use fireguard_ucore::backend::CustomResult;
use fireguard_ucore::{KernelBackend, SparseMem, UProgram};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// The untrusted I/O window: loads from here are taint sources, stores
/// into here are violations. Aliases the PMC-protected MMIO page — the
/// address range natural traffic provably never touches.
pub const IO_WINDOW_BASE: u64 = gen::PMC_REGION_BASE;
/// Size of the untrusted I/O window.
pub const IO_WINDOW_SIZE: u64 = gen::PMC_REGION_SIZE;

fn in_io_window(addr: u64) -> bool {
    (IO_WINDOW_BASE..IO_WINDOW_BASE + IO_WINDOW_SIZE).contains(&addr)
}

/// The stack spill window: shadow-memory taint propagates only through
/// here. Register spills and reloads are genuine dataflow; the
/// generator's *global* hot-line reuse is a statistical cache pattern,
/// not a def-use chain, and letting taint ride it produces the classic
/// DIFT taint explosion (one tainted store to a hot line re-taints
/// thousands of unrelated loads). Real DIFT deployments fight the same
/// explosion with policy scoping; this model scopes to the stack.
fn in_spill_window(addr: u64) -> bool {
    (gen::STACK_TOP - 4096..=gen::STACK_TOP).contains(&addr)
}

/// The DIFT taint kernel spec.
pub struct Taint;

impl KernelSpec for Taint {
    fn id(&self) -> KernelId {
        KernelId::TAINT
    }

    fn name(&self) -> &'static str {
        "Taint"
    }

    fn cli_names(&self) -> &'static [&'static str] {
        &["taint", "dift"]
    }

    fn summary(&self) -> &'static str {
        "DIFT taint tracking (I/O-window sources, tainted-pointer sinks)"
    }

    fn gids(&self) -> Vec<Gid> {
        vec![groups::MEM, groups::CTRL]
    }

    fn subscriptions(&self) -> Vec<(InstClass, Gid, DpSel)> {
        mem_and_ctrl_subscriptions()
    }

    fn detects(&self) -> &'static [AttackKind] {
        // BoundsViolation attacks access the I/O window: stores into it
        // are immediate violations and loads from it plant taint whose
        // downstream sinks (tainted pointers) the tracker flags.
        &[AttackKind::BoundsViolation]
    }

    fn semantics(&self) -> Box<dyn Semantics> {
        Box::new(TaintSemantics {
            reg_ttl: [0; 32],
            shadow: BTreeMap::new(),
        })
    }

    fn program(&self, model: ProgrammingModel) -> UProgram {
        programs::build(
            ProgramShape {
                fast_op: OP_TAINT_STEP,
                slow: SlowPath::Alarm(3),
            },
            model,
        )
    }

    fn backend(&self, vbit: usize, _shared: Rc<RefCell<SharedTiming>>) -> Box<dyn KernelBackend> {
        Box::new(TaintBackend {
            vbit,
            mem: SparseMem::new(),
        })
    }
}

/// The register sources of a real RV64 encoding, by format. `rs2` bits of
/// I-format instructions are immediate bits, not a register, so the
/// format (major opcode) decides which fields count.
fn reg_sources(inst: Instruction) -> (Option<ArchReg>, Option<ArchReg>) {
    match inst.opcode() {
        opcode::OP
        | opcode::OP_32
        | opcode::OP_FP
        | opcode::AMO
        | opcode::STORE
        | opcode::STORE_FP
        | opcode::BRANCH => (Some(inst.rs1()), Some(inst.rs2())),
        opcode::OP_IMM | opcode::OP_IMM_32 | opcode::LOAD | opcode::LOAD_FP | opcode::JALR => {
            (Some(inst.rs1()), None)
        }
        _ => (None, None),
    }
}

/// Derivation hops a taint label survives (0 = untainted). 16 def-use
/// steps is far beyond any attack pattern the campaigns inject (the
/// deepest conformance flow — load, spill, reload, dereference — is four
/// hops), yet keeps propagation subcritical on tight-dependency
/// workloads.
pub const TAINT_TTL: u8 = 16;

/// Commit-order DIFT state: a per-register taint TTL plus the tainted
/// 8-byte spill-window granules.
#[derive(Debug)]
struct TaintSemantics {
    /// Remaining propagation TTL per architectural register (0 = clean).
    reg_ttl: [u8; 32],
    /// Tainted spill granules (`addr >> 3` → TTL). Empty on benign
    /// traces, so the per-access lookup is one `is_empty` check.
    shadow: BTreeMap<u64, u8>,
}

impl TaintSemantics {
    fn ttl(&self, r: ArchReg) -> u8 {
        self.reg_ttl[r.index() as usize]
    }

    fn tainted(&self, r: ArchReg) -> bool {
        self.ttl(r) > 0
    }

    fn set_reg(&mut self, r: ArchReg, ttl: u8) {
        if r.is_zero() {
            return; // x0 is hard-wired and never tainted
        }
        self.reg_ttl[r.index() as usize] = ttl;
    }

    fn shadow_ttl(&self, addr: u64) -> u8 {
        if self.shadow.is_empty() {
            0
        } else {
            *self.shadow.get(&(addr >> 3)).unwrap_or(&0)
        }
    }

    fn set_shadow(&mut self, addr: u64, ttl: u8) {
        if ttl > 0 {
            self.shadow.insert(addr >> 3, ttl);
        } else if !self.shadow.is_empty() {
            self.shadow.remove(&(addr >> 3));
        }
    }
}

/// One derivation hop: the child label's TTL.
fn decay(ttl: u8) -> u8 {
    ttl.saturating_sub(1)
}

impl Semantics for TaintSemantics {
    fn judge(&mut self, t: &TraceInst) -> bool {
        match t.class {
            InstClass::Load | InstClass::Store | InstClass::Amo => {
                let Some(addr) = t.mem_addr else { return false };
                // Tainted-pointer dereference: the address was computed
                // from untrusted data.
                let ptr_tainted = self.tainted(t.inst.rs1());
                match t.class {
                    InstClass::Load => {
                        let incoming = if in_io_window(addr) {
                            TAINT_TTL
                        } else if in_spill_window(addr) {
                            decay(self.shadow_ttl(addr))
                        } else {
                            0
                        };
                        self.set_reg(t.inst.rd(), incoming);
                        ptr_tainted
                    }
                    InstClass::Store => {
                        if in_spill_window(addr) {
                            let data_ttl = decay(self.ttl(t.inst.rs2()));
                            self.set_shadow(addr, data_ttl);
                        }
                        ptr_tainted || in_io_window(addr)
                    }
                    _ => {
                        // AMO: read-modify-write — both directions at once.
                        let incoming = if in_io_window(addr) {
                            TAINT_TTL
                        } else if in_spill_window(addr) {
                            decay(self.shadow_ttl(addr))
                        } else {
                            0
                        };
                        if in_spill_window(addr) {
                            self.set_shadow(addr, decay(self.ttl(t.inst.rs2())));
                        }
                        self.set_reg(t.inst.rd(), incoming);
                        ptr_tainted || in_io_window(addr)
                    }
                }
            }
            // Indirect control transfers through a tainted register are
            // the canonical DIFT control-hijack sink. `jalr` also writes
            // pc+4 (a constant) to rd, clearing any stale taint there —
            // judge the source before the overwrite (rd may equal rs1).
            InstClass::Ret | InstClass::IndirectJump => {
                let viol = self.tainted(t.inst.rs1());
                self.set_reg(t.inst.rd(), 0);
                viol
            }
            // Calls/jumps write pc+4 (a constant) to their link
            // register. An *indirect* call (`jalr ra, rs1`) is judged
            // through its target register first — the classic
            // function-pointer hijack sink; direct `jal` calls carry
            // immediate bits in the rs1 field, so the check is gated on
            // the opcode.
            InstClass::Call | InstClass::Jump => {
                let viol = t.inst.opcode() == opcode::JALR && self.tainted(t.inst.rs1());
                self.set_reg(t.inst.rd(), 0);
                viol
            }
            InstClass::IntAlu | InstClass::IntMul | InstClass::IntDiv | InstClass::FpAlu => {
                let (s1, s2) = reg_sources(t.inst);
                let src_ttl = s1
                    .map_or(0, |r| self.ttl(r))
                    .max(s2.map_or(0, |r| self.ttl(r)));
                self.set_reg(t.inst.rd(), decay(src_ttl));
                false
            }
            // CSR reads write rd from machine state (never I/O-tainted).
            InstClass::Csr => {
                self.set_reg(t.inst.rd(), 0);
                false
            }
            _ => false,
        }
    }
}

/// Per-engine taint backend: taint-shadow touches (one byte per 8 program
/// bytes, like the ASan shadow but in its own table).
#[derive(Debug)]
struct TaintBackend {
    vbit: usize,
    mem: SparseMem,
}

impl KernelBackend for TaintBackend {
    fn mem_read(&mut self, addr: u64) -> u64 {
        self.mem.mem_read(addr)
    }

    fn mem_write(&mut self, addr: u64, value: u64) {
        self.mem.mem_write(addr, value);
    }

    fn custom(&mut self, op: u8, a: u64, b: u64) -> CustomResult {
        match op {
            OP_TAINT_STEP => CustomResult {
                value: (b >> self.vbit) & 1,
                extra_cycles: 0,
                // Propagation reads + writes the taint shadow either way,
                // so every packet touches its granule's taint byte.
                mem_touch: Some(TAINT_BASE + (a >> 3)),
                touch_blind: false, // the verdict branch waits on the read
            },
            _ => CustomResult::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fireguard_isa::{AluOp, MemWidth};
    use fireguard_trace::ControlFlow;

    fn inst_trace(seq: u64, inst: Instruction, mem_addr: Option<u64>) -> TraceInst {
        TraceInst {
            seq,
            pc: 0x10000,
            class: inst.class(),
            inst,
            mem_addr,
            control: None,
            heap: None,
            attack: None,
        }
    }

    #[test]
    fn io_window_load_taints_and_tainted_pointer_violates() {
        let mut k = Taint.semantics();
        // x5 <- load [window]: taint source, not itself a violation.
        let load = Instruction::load(MemWidth::D, 5.into(), 8.into(), 0);
        assert!(!k.judge(&inst_trace(0, load, Some(IO_WINDOW_BASE + 8))));
        // x6 <- x5 + x7: propagation.
        let alu = Instruction::alu(AluOp::Add, 6.into(), 5.into(), 7.into());
        assert!(!k.judge(&inst_trace(1, alu, None)));
        // load with base register x6 (now tainted): violation.
        let deref = Instruction::load(MemWidth::D, 9.into(), 6.into(), 0);
        assert!(k.judge(&inst_trace(2, deref, Some(0x4000_0000))));
        // x6 overwritten from untainted sources: taint cleared.
        let clear = Instruction::alu(AluOp::Xor, 6.into(), 10.into(), 11.into());
        assert!(!k.judge(&inst_trace(3, clear, None)));
        let deref2 = Instruction::load(MemWidth::D, 9.into(), 6.into(), 0);
        assert!(!k.judge(&inst_trace(4, deref2, Some(0x4000_0000))));
    }

    #[test]
    fn store_to_control_window_is_a_violation() {
        let mut k = Taint.semantics();
        let store = Instruction::store(MemWidth::D, 5.into(), 8.into(), 0);
        assert!(k.judge(&inst_trace(0, store, Some(IO_WINDOW_BASE))));
        assert!(!k.judge(&inst_trace(1, store, Some(0x4000_0000))));
    }

    #[test]
    fn taint_flows_through_shadow_memory() {
        let mut k = Taint.semantics();
        // Taint x5 from the window, spill it, reload into x12.
        let load = Instruction::load(MemWidth::D, 5.into(), 8.into(), 0);
        assert!(!k.judge(&inst_trace(0, load, Some(IO_WINDOW_BASE))));
        let spill = Instruction::store(MemWidth::D, 5.into(), 2.into(), 0);
        assert!(!k.judge(&inst_trace(1, spill, Some(0x7FFF_E000))));
        let reload = Instruction::load(MemWidth::D, 12.into(), 2.into(), 0);
        assert!(!k.judge(&inst_trace(2, reload, Some(0x7FFF_E000))));
        // x12 is now tainted: dereferencing through it violates.
        let deref = Instruction::load(MemWidth::D, 13.into(), 12.into(), 0);
        assert!(k.judge(&inst_trace(3, deref, Some(0x4000_0000))));
        // Untainted store to the same granule clears the shadow.
        let clean = Instruction::store(MemWidth::D, 20.into(), 2.into(), 0);
        assert!(!k.judge(&inst_trace(4, clean, Some(0x7FFF_E000))));
        let reload2 = Instruction::load(MemWidth::D, 14.into(), 2.into(), 0);
        assert!(!k.judge(&inst_trace(5, reload2, Some(0x7FFF_E000))));
        let deref2 = Instruction::load(MemWidth::D, 15.into(), 14.into(), 0);
        assert!(!k.judge(&inst_trace(6, deref2, Some(0x4000_0000))));
    }

    #[test]
    fn call_clears_the_link_register() {
        let mut k = Taint.semantics();
        // Taint x1 indirectly via an alu chain is impossible here (x1 is
        // ra); simulate by tainting x5 then checking a ret through ra
        // stays clean while an indirect jump through x5 violates.
        let load = Instruction::load(MemWidth::D, 5.into(), 8.into(), 0);
        assert!(!k.judge(&inst_trace(0, load, Some(IO_WINDOW_BASE))));
        let ret = Instruction::ret();
        let mut t = inst_trace(1, ret, None);
        t.control = Some(ControlFlow {
            taken: true,
            target: 0x2_0000,
            static_id: 0,
        });
        assert!(!k.judge(&t), "ra is untainted");
        // jalr x0, x5, 0 — an indirect jump through tainted x5.
        let ijump = Instruction::jalr(ArchReg::ZERO, 5.into(), 0);
        assert!(k.judge(&inst_trace(2, ijump, None)));
    }

    #[test]
    fn indirect_calls_through_tainted_registers_violate() {
        let mut k = Taint.semantics();
        let load = Instruction::load(MemWidth::D, 5.into(), 8.into(), 0);
        assert!(!k.judge(&inst_trace(0, load, Some(IO_WINDOW_BASE))));
        // `jalr ra, x5, 0` — a function-pointer call through tainted x5.
        let icall = Instruction::call_indirect(5.into());
        assert!(k.judge(&inst_trace(1, icall, None)), "hijacked call target");
        // A direct `jal` call is never flagged: its rs1 bits are
        // immediate garbage, not a register.
        let direct = Instruction::call(64);
        assert!(!k.judge(&inst_trace(2, direct, None)));
    }

    #[test]
    fn link_register_writes_clear_stale_taint() {
        let mut k = Taint.semantics();
        // Taint x5 from the window...
        let load = Instruction::load(MemWidth::D, 5.into(), 8.into(), 0);
        assert!(!k.judge(&inst_trace(0, load, Some(IO_WINDOW_BASE))));
        // ...then `jalr x5, x6, 0` (IndirectJump writing x5 with pc+4, a
        // constant): the jump is judged on rs1=x6 (clean) and must also
        // clear x5's stale taint.
        let ijump = Instruction::jalr(5.into(), 6.into(), 0);
        assert!(!k.judge(&inst_trace(1, ijump, None)));
        let deref = Instruction::load(MemWidth::D, 9.into(), 5.into(), 0);
        assert!(
            !k.judge(&inst_trace(2, deref, Some(0x4000_0000))),
            "x5 was overwritten with a constant and must be clean"
        );
    }

    #[test]
    fn benign_streams_never_violate() {
        use fireguard_trace::{TraceGenerator, WorkloadProfile};
        let g = TraceGenerator::new(WorkloadProfile::parsec("swaptions").unwrap(), 42);
        let mut k = Taint.semantics();
        for t in g.take(100_000) {
            assert!(!k.judge(&t), "natural violation at seq {}", t.seq);
        }
    }
}
