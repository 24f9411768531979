//! Use-after-free plugin (MineSweeper-style; paper kernel, wire id 3).
//!
//! Freed regions are quarantined; accesses into quarantine are
//! violations; periodic sweeps release quarantine, costing µcore work
//! that does not parallelise away.

use crate::kernel::{
    heap_flag_short_circuit, ProgrammingModel, SharedTiming, OP_CHECK, OP_HEAP, QTABLE_BASE,
    SHADOW_BASE,
};
use crate::programs::{self, ProgramShape, SlowPath};
use crate::semantics::{region_contains, widen, Semantics};
use crate::spec::{mem_and_ctrl_subscriptions, KernelId, KernelSpec};
use fireguard_core::{groups, DpSel, Gid};
use fireguard_isa::InstClass;
use fireguard_trace::{AttackKind, HeapEvent, TraceInst};
use fireguard_ucore::backend::CustomResult;
use fireguard_ucore::{KernelBackend, SparseMem, UProgram};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// Quarantine capacity before MineSweeper-style sweeps release regions.
const QUARANTINE_CAP: usize = 4096;

/// The use-after-free kernel spec.
pub struct Uaf;

impl KernelSpec for Uaf {
    fn id(&self) -> KernelId {
        KernelId::UAF
    }

    fn name(&self) -> &'static str {
        "UaF"
    }

    fn cli_names(&self) -> &'static [&'static str] {
        &["uaf", "use-after-free"]
    }

    fn summary(&self) -> &'static str {
        "use-after-free detection (MineSweeper-style quarantine)"
    }

    fn gids(&self) -> Vec<Gid> {
        vec![groups::MEM, groups::CTRL]
    }

    fn subscriptions(&self) -> Vec<(InstClass, Gid, DpSel)> {
        mem_and_ctrl_subscriptions()
    }

    fn detects(&self) -> &'static [AttackKind] {
        &[AttackKind::UseAfterFree]
    }

    fn semantics(&self) -> Box<dyn Semantics> {
        Box::new(UafSemantics {
            quarantine: BTreeMap::new(),
            bounds: (u64::MAX, 0),
            frees_since_sweep: 0,
            sweeps: 0,
        })
    }

    fn program(&self, model: ProgrammingModel) -> UProgram {
        programs::build(
            ProgramShape {
                fast_op: OP_CHECK,
                slow: SlowPath::HeapAware {
                    alarm: 1,
                    heap_op: OP_HEAP,
                },
            },
            model,
        )
    }

    fn backend(&self, vbit: usize, shared: Rc<RefCell<SharedTiming>>) -> Box<dyn KernelBackend> {
        Box::new(UafBackend {
            vbit,
            shared,
            mem: SparseMem::new(),
        })
    }
}

/// Commit-order UaF state: the quarantine region map.
#[derive(Debug)]
struct UafSemantics {
    /// Quarantined regions: base → size.
    quarantine: BTreeMap<u64, u64>,
    /// `[lo, hi)` bound over every region ever quarantined (never
    /// shrinks); see the identical fast path in the ASan plugin.
    bounds: (u64, u64),
    /// Frees since the last sweep.
    frees_since_sweep: u64,
    /// Total sweeps performed.
    sweeps: u64,
}

impl Semantics for UafSemantics {
    fn judge(&mut self, t: &TraceInst) -> bool {
        match t.heap {
            Some(HeapEvent::Free { base, size }) => {
                self.quarantine.insert(base, size);
                widen(&mut self.bounds, base, size, 0);
                self.frees_since_sweep += 1;
                if self.quarantine.len() > QUARANTINE_CAP {
                    // Sweep: release the oldest half.
                    let release: Vec<u64> = self
                        .quarantine
                        .keys()
                        .take(QUARANTINE_CAP / 2)
                        .copied()
                        .collect();
                    for b in release {
                        self.quarantine.remove(&b);
                    }
                    self.sweeps += 1;
                    self.frees_since_sweep = 0;
                }
                return false;
            }
            Some(HeapEvent::Malloc { base, .. }) => {
                self.quarantine.remove(&base);
                return false;
            }
            None => {}
        }
        match t.mem_addr {
            // Addresses outside every region ever quarantined cannot
            // match; see the ASan plugin's fast path.
            Some(a) if a >= self.bounds.0 && a < self.bounds.1 => {
                region_contains(&self.quarantine, a, 0)
            }
            _ => false,
        }
    }
}

/// Per-engine UaF backend: quarantine-bucket touches + sweep microloops.
#[derive(Debug)]
struct UafBackend {
    vbit: usize,
    shared: Rc<RefCell<SharedTiming>>,
    mem: SparseMem,
}

impl KernelBackend for UafBackend {
    fn mem_read(&mut self, addr: u64) -> u64 {
        self.mem.mem_read(addr)
    }

    fn mem_write(&mut self, addr: u64, value: u64) {
        self.mem.mem_write(addr, value);
    }

    fn custom(&mut self, op: u8, a: u64, b: u64) -> CustomResult {
        // `b` carries packet bits [127:VERDICT]: verdict byte in [7:0],
        // class at CHECK_CLASS_SHIFT, flags at CHECK_FLAGS_SHIFT.
        let verdict = (b >> self.vbit) & 1;
        match op {
            OP_CHECK => {
                if let Some(r) = heap_flag_short_circuit(b) {
                    return r;
                }
                CustomResult {
                    value: verdict,
                    extra_cycles: 0,
                    // Page-granular quarantine hash buckets.
                    mem_touch: Some(QTABLE_BASE + ((a >> 12) & 0xF_FFFF) * 8),
                    touch_blind: false,
                }
            }
            OP_HEAP => {
                // a = region base, b = size (from the AUX field here).
                let size = b & fireguard_core::packet::layout::AUX_MASK;
                let mut sh = self.shared.borrow_mut();
                let mut extra = 4 + size / 256;
                sh.frees += 1;
                sh.quarantine_len += 1;
                // MineSweeper sweep: every 64th free walks a chunk of
                // the quarantine — work that does not parallelise away.
                if sh.frees % 64 == 0 {
                    extra += (sh.quarantine_len / 4).min(512) + 64;
                    sh.quarantine_len = sh.quarantine_len.saturating_sub(sh.quarantine_len / 2);
                    sh.sweeps_charged += 1;
                }
                CustomResult {
                    value: 0,
                    extra_cycles: extra,
                    mem_touch: Some(SHADOW_BASE + (a >> 3)),
                    touch_blind: true, // poison writes are fire-and-forget
                }
            }
            _ => CustomResult::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fireguard_isa::{Instruction, MemWidth};
    use fireguard_trace::ControlFlow;

    fn mem(seq: u64, addr: u64) -> TraceInst {
        let inst = Instruction::load(MemWidth::D, 1.into(), 2.into(), 0);
        TraceInst {
            seq,
            pc: 0x10000,
            class: inst.class(),
            inst,
            mem_addr: Some(addr),
            control: None,
            heap: None,
            attack: None,
        }
    }

    fn heap_call(seq: u64, ev: HeapEvent) -> TraceInst {
        let inst = Instruction::call(64);
        TraceInst {
            seq,
            pc: 0x10000,
            class: inst.class(),
            inst,
            mem_addr: None,
            control: Some(ControlFlow {
                taken: true,
                target: 0x20000,
                static_id: 0,
            }),
            heap: Some(ev),
            attack: None,
        }
    }

    #[test]
    fn uaf_flags_only_freed_access() {
        let mut k = Uaf.semantics();
        k.judge(&heap_call(
            0,
            HeapEvent::Malloc {
                base: 0x2000,
                size: 128,
            },
        ));
        assert!(!k.judge(&mem(1, 0x2000 + 130)), "OOB is not UaF's business");
        k.judge(&heap_call(
            2,
            HeapEvent::Free {
                base: 0x2000,
                size: 128,
            },
        ));
        assert!(k.judge(&mem(3, 0x2040)), "quarantined access flagged");
    }

    #[test]
    fn uaf_heap_op_charges_sweeps_periodically() {
        let shared = Rc::new(RefCell::new(SharedTiming::default()));
        let mut be = Uaf.backend(3, Rc::clone(&shared));
        let mut max_extra = 0;
        for _ in 0..200 {
            let r = be.custom(OP_HEAP, 0x1000, 512);
            max_extra = max_extra.max(r.extra_cycles);
        }
        assert!(max_extra > 64, "sweeps charge big microloops: {max_extra}");
        assert!(shared.borrow().sweeps_charged >= 3);
    }
}
