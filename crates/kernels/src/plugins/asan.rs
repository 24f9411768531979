//! AddressSanitizer plugin (paper kernel, wire id 2).
//!
//! Red zones around live allocations plus freed regions are poisoned;
//! any access into poison is a violation. The µcore side touches real
//! shadow bytes (one per 8 program bytes), which is where the paper's
//! ASan tail latencies come from.

use crate::kernel::{
    heap_flag_short_circuit, ProgrammingModel, SharedTiming, OP_CHECK, OP_HEAP, SHADOW_BASE,
};
use crate::programs::{self, ProgramShape, SlowPath};
use crate::semantics::{region_contains, widen, Semantics};
use crate::spec::{mem_and_ctrl_subscriptions, KernelId, KernelSpec};
use fireguard_core::{groups, DpSel, Gid};
use fireguard_isa::InstClass;
use fireguard_trace::{gen, AttackKind, HeapEvent, TraceInst};
use fireguard_ucore::backend::CustomResult;
use fireguard_ucore::{KernelBackend, SparseMem, UProgram};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// Red-zone span checked around each allocation (matches the generator).
const REDZONE: u64 = gen::REDZONE_BYTES;

/// The AddressSanitizer kernel spec.
pub struct Asan;

impl KernelSpec for Asan {
    fn id(&self) -> KernelId {
        KernelId::ASAN
    }

    fn name(&self) -> &'static str {
        "Sanitizer"
    }

    fn cli_names(&self) -> &'static [&'static str] {
        &["asan", "sanitizer"]
    }

    fn summary(&self) -> &'static str {
        "AddressSanitizer (red zones + freed-region poisoning)"
    }

    fn gids(&self) -> Vec<Gid> {
        vec![groups::MEM, groups::CTRL]
    }

    fn subscriptions(&self) -> Vec<(InstClass, Gid, DpSel)> {
        mem_and_ctrl_subscriptions()
    }

    fn detects(&self) -> &'static [AttackKind] {
        &[AttackKind::OutOfBounds, AttackKind::UseAfterFree]
    }

    fn semantics(&self) -> Box<dyn Semantics> {
        Box::new(AsanSemantics {
            live: BTreeMap::new(),
            freed: BTreeMap::new(),
            bounds: (u64::MAX, 0),
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

    fn backend(&self, vbit: usize, _shared: Rc<RefCell<SharedTiming>>) -> Box<dyn KernelBackend> {
        Box::new(AsanBackend {
            vbit,
            mem: SparseMem::new(),
        })
    }
}

/// Commit-order ASan state: live + freed region maps.
#[derive(Debug)]
struct AsanSemantics {
    /// Live allocations: base → size.
    live: BTreeMap<u64, u64>,
    /// Poisoned freed regions: base → size.
    freed: BTreeMap<u64, u64>,
    /// `[lo, hi)` bound over everything ever tracked (red zones
    /// included). Never shrinks, so an address outside it provably
    /// cannot match and the per-access tree walks are skipped — the
    /// overwhelming majority of traffic is stack/global, far from
    /// any heap allocation.
    bounds: (u64, u64),
}

impl Semantics for AsanSemantics {
    fn judge(&mut self, t: &TraceInst) -> bool {
        match t.heap {
            Some(HeapEvent::Malloc { base, size }) => {
                self.live.insert(base, size);
                self.freed.remove(&base);
                widen(&mut self.bounds, base, size, REDZONE);
                return false;
            }
            Some(HeapEvent::Free { base, size }) => {
                self.live.remove(&base);
                self.freed.insert(base, size);
                widen(&mut self.bounds, base, size, REDZONE);
                return false;
            }
            None => {}
        }
        let Some(a) = t.mem_addr else { return false };
        // Outside everything ever allocated (red zones included)
        // nothing can match: skip both tree walks.
        if a < self.bounds.0 || a >= self.bounds.1 {
            return false;
        }
        // In a freed region?
        if region_contains(&self.freed, a, 0) {
            return true;
        }
        // In the red zone of a live allocation?
        if let Some((&base, &size)) = self.live.range(..=a + REDZONE).next_back() {
            let in_left = a >= base.saturating_sub(REDZONE) && a < base;
            let in_right = a >= base + size && a < base + size + REDZONE;
            if in_left || in_right {
                return true;
            }
        }
        false
    }
}

/// Per-engine ASan backend: shadow-byte touches + poison microloops.
#[derive(Debug)]
struct AsanBackend {
    vbit: usize,
    mem: SparseMem,
}

impl KernelBackend for AsanBackend {
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
                // Fused check: heap-flagged packets short-circuit to the
                // slow path (value 2); otherwise the shadow byte is touched
                // and the verdict bit returned.
                if let Some(r) = heap_flag_short_circuit(b) {
                    return r;
                }
                CustomResult {
                    value: verdict,
                    extra_cycles: 0,
                    // ASan shadow: one byte per 8 program bytes.
                    mem_touch: Some(SHADOW_BASE + (a >> 3)),
                    touch_blind: false,
                }
            }
            OP_HEAP => {
                // a = region base, b = size (from the AUX field here).
                let size = b & fireguard_core::packet::layout::AUX_MASK;
                CustomResult {
                    value: 0,
                    extra_cycles: 4 + size / 256,
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
    use crate::kernel::CHECK_FLAGS_SHIFT;
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
    fn asan_flags_redzone_and_freed_access() {
        let mut k = Asan.semantics();
        assert!(!k.judge(&heap_call(
            0,
            HeapEvent::Malloc {
                base: 0x1000,
                size: 64
            }
        )));
        assert!(!k.judge(&mem(1, 0x1000)), "in-bounds ok");
        assert!(!k.judge(&mem(2, 0x103F)), "last byte ok");
        assert!(k.judge(&mem(3, 0x1040)), "right red zone");
        assert!(k.judge(&mem(4, 0x1000 - 8)), "left red zone");
        assert!(!k.judge(&heap_call(
            5,
            HeapEvent::Free {
                base: 0x1000,
                size: 64
            }
        )));
        assert!(k.judge(&mem(6, 0x1010)), "freed region poisoned");
    }

    #[test]
    fn check_op_extracts_this_kernels_verdict_bit() {
        let mut be = Asan.backend(2, Rc::new(RefCell::new(SharedTiming::default())));
        // Verdict nibble 0b0100 → bit 2 set.
        let r = be.custom(OP_CHECK, 0x1234, 0b0100);
        assert_eq!(r.value, 1);
        let r = be.custom(OP_CHECK, 0x1234, 0b1011);
        assert_eq!(r.value, 0);
        assert_eq!(r.mem_touch, Some(SHADOW_BASE + (0x1234 >> 3)));
    }

    #[test]
    fn heap_flagged_packets_short_circuit_to_the_slow_path() {
        let mut be = Asan.backend(0, Rc::new(RefCell::new(SharedTiming::default())));
        let r = be.custom(OP_CHECK, 0x1000, 0b01 << CHECK_FLAGS_SHIFT);
        assert_eq!(r.value, 2);
        assert_eq!(r.mem_touch, None);
    }
}
