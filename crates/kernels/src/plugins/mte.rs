//! MTE-style lock-and-key plugin (wire id 5).
//!
//! Arm MTE assigns every heap allocation a 4-bit tag: the allocator tags
//! the memory granules ("lock") and returns a pointer carrying the same
//! tag ("key"); loads and stores fault when key ≠ lock. This plugin
//! derives the whole scheme from the existing deterministic heap-event
//! stream — no new trace events:
//!
//! * **Malloc** draws a deterministic non-zero 4-bit tag for the region;
//!   pointer tag and memory tag start equal.
//! * **Free** retags the memory granules with a fresh tag drawn from the
//!   same deterministic sequence. The stale pointer keeps its old tag, so
//!   later accesses mismatch — *unless* the fresh tag collides with the
//!   old one, which real MTE suffers with probability 1/16 and this model
//!   reproduces deterministically.
//! * **Accesses** inside a region compare pointer tag against memory tag
//!   (stale ⇒ violation); accesses in the red zone past a region hit the
//!   adjacent, differently-tagged granule and always mismatch (MTE
//!   allocators guarantee neighbouring allocations get distinct tags).
//!
//! Natural traffic only touches live, in-bounds allocations (tag match),
//! the stack, or globals (untagged space — skipped by the bounds fast
//! path), so benign traces are violation-free by construction.

use crate::kernel::{
    heap_flag_short_circuit, ProgrammingModel, SharedTiming, MTE_TAG_BASE, OP_MTE_CHECK, OP_MTE_TAG,
};
use crate::programs::{self, ProgramShape, SlowPath};
use crate::semantics::{widen, Semantics};
use crate::spec::{mem_and_ctrl_subscriptions, KernelId, KernelSpec};
use fireguard_core::{groups, DpSel, Gid};
use fireguard_isa::InstClass;
use fireguard_trace::{gen, AttackKind, HeapEvent, TraceInst};
use fireguard_ucore::backend::CustomResult;
use fireguard_ucore::{KernelBackend, SparseMem, UProgram};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// Red-zone span past each allocation whose granules carry a foreign tag.
const REDZONE: u64 = gen::REDZONE_BYTES;
/// Tracked-region capacity; beyond it half the table is recycled —
/// stale (freed) regions first, then lowest-base live regions — so
/// eviction always makes progress and memory stays bounded like the UaF
/// quarantine's.
const REGION_CAP: usize = 8192;
/// Deterministic tag-sequence multiplier (splitmix-style odd constant).
const TAG_MIX: u64 = 0x9E37_79B9_7F4A_7C15;

/// The MTE lock-and-key kernel spec.
pub struct Mte;

impl KernelSpec for Mte {
    fn id(&self) -> KernelId {
        KernelId::MTE
    }

    fn name(&self) -> &'static str {
        "MTE"
    }

    fn cli_names(&self) -> &'static [&'static str] {
        &["mte", "lock-and-key", "memtag"]
    }

    fn summary(&self) -> &'static str {
        "MTE-style lock-and-key memory tagging (4-bit tags per allocation)"
    }

    fn gids(&self) -> Vec<Gid> {
        vec![groups::MEM, groups::CTRL]
    }

    fn subscriptions(&self) -> Vec<(InstClass, Gid, DpSel)> {
        mem_and_ctrl_subscriptions()
    }

    fn detects(&self) -> &'static [AttackKind] {
        &[AttackKind::UseAfterFree, AttackKind::OutOfBounds]
    }

    fn semantics(&self) -> Box<dyn Semantics> {
        Box::new(MteSemantics {
            regions: BTreeMap::new(),
            bounds: (u64::MAX, 0),
            tag_seq: 0,
        })
    }

    fn program(&self, model: ProgrammingModel) -> UProgram {
        programs::build(
            ProgramShape {
                fast_op: OP_MTE_CHECK,
                slow: SlowPath::HeapAware {
                    alarm: 4,
                    heap_op: OP_MTE_TAG,
                },
            },
            model,
        )
    }

    fn backend(&self, vbit: usize, _shared: Rc<RefCell<SharedTiming>>) -> Box<dyn KernelBackend> {
        Box::new(MteBackend {
            vbit,
            mem: SparseMem::new(),
        })
    }
}

/// One tagged allocation: the pointer's key vs the memory's current lock.
#[derive(Debug, Clone, Copy)]
struct TaggedRegion {
    size: u64,
    /// Tag baked into every live pointer to this region at malloc time.
    ptr_tag: u8,
    /// Tag currently held by the region's memory granules (changes on
    /// free).
    mem_tag: u8,
}

/// Commit-order MTE state: the tagged-region map.
#[derive(Debug)]
struct MteSemantics {
    /// base → tagged region (live while `ptr_tag == mem_tag`).
    regions: BTreeMap<u64, TaggedRegion>,
    /// `[lo, hi)` bound over every region ever tagged (red zones
    /// included); addresses outside it skip the tree walk entirely.
    bounds: (u64, u64),
    /// Deterministic tag-sequence counter.
    tag_seq: u64,
}

impl MteSemantics {
    /// The next tag in the deterministic sequence. `span` 15 yields a
    /// non-zero allocation tag (1..=15); `span` 16 yields a retag that
    /// collides with any fixed previous tag with probability 1/16 —
    /// exactly MTE's documented false-negative rate.
    fn next_tag(&mut self, span: u64) -> u8 {
        self.tag_seq = self.tag_seq.wrapping_add(1);
        let mixed = self.tag_seq.wrapping_mul(TAG_MIX) >> 32;
        if span == 15 {
            (mixed % 15 + 1) as u8
        } else {
            (mixed % 16) as u8
        }
    }
}

impl Semantics for MteSemantics {
    fn judge(&mut self, t: &TraceInst) -> bool {
        match t.heap {
            Some(HeapEvent::Malloc { base, size }) => {
                let tag = self.next_tag(15);
                self.regions.insert(
                    base,
                    TaggedRegion {
                        size,
                        ptr_tag: tag,
                        mem_tag: tag,
                    },
                );
                widen(&mut self.bounds, base, size, REDZONE);
                if self.regions.len() > REGION_CAP {
                    // Recycle half the table: stale regions first (their
                    // granules get reused by the arena anyway), then — if
                    // a pathological stream keeps everything live —
                    // lowest-base live regions, so eviction always makes
                    // progress and the map (and this scan) stays bounded.
                    let mut evict: Vec<u64> = self
                        .regions
                        .iter()
                        .filter(|(_, r)| r.ptr_tag != r.mem_tag)
                        .map(|(&b, _)| b)
                        .take(REGION_CAP / 2)
                        .collect();
                    if evict.len() < REGION_CAP / 2 {
                        let need = REGION_CAP / 2 - evict.len();
                        evict.extend(self.regions.keys().copied().take(need));
                    }
                    for b in evict {
                        self.regions.remove(&b);
                    }
                }
                return false;
            }
            Some(HeapEvent::Free { base, .. }) => {
                let fresh = self.next_tag(16);
                if let Some(r) = self.regions.get_mut(&base) {
                    r.mem_tag = fresh;
                }
                return false;
            }
            None => {}
        }
        let Some(a) = t.mem_addr else { return false };
        if a < self.bounds.0 || a >= self.bounds.1 {
            return false; // untagged space: stack, globals
        }
        if let Some((&base, r)) = self.regions.range(..=a).next_back() {
            if a < base + r.size {
                // Interior access: the pointer's key against the memory's
                // current lock. Stale (freed-and-retagged) regions
                // mismatch unless the retag collided (1/16, like real
                // MTE).
                return r.ptr_tag != r.mem_tag;
            }
            if a < base + r.size + REDZONE {
                // Past the end: the adjacent granule carries a different
                // tag by allocator construction.
                return true;
            }
        }
        false
    }
}

/// Per-engine MTE backend: tag-memory touches + bulk-retag microloops.
#[derive(Debug)]
struct MteBackend {
    vbit: usize,
    mem: SparseMem,
}

impl KernelBackend for MteBackend {
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
            OP_MTE_CHECK => {
                // Heap-flagged packets short-circuit to the retag path.
                if let Some(r) = heap_flag_short_circuit(b) {
                    return r;
                }
                CustomResult {
                    value: verdict,
                    extra_cycles: 0,
                    // Tag memory: 4 bits per 16-byte granule → one tag
                    // byte covers 32 program bytes.
                    mem_touch: Some(MTE_TAG_BASE + (a >> 5)),
                    touch_blind: false, // the key/lock compare gates
                }
            }
            OP_MTE_TAG => {
                // a = region base, b = size (from the AUX field here).
                // Bulk tagging (DC GVA-style): one store covers several
                // granules, so the microloop is cheaper than ASan's
                // byte-granular poisoning.
                let size = b & fireguard_core::packet::layout::AUX_MASK;
                CustomResult {
                    value: 0,
                    extra_cycles: 2 + size / 512,
                    mem_touch: Some(MTE_TAG_BASE + (a >> 5)),
                    touch_blind: true, // retags are fire-and-forget
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
    fn live_interior_matches_and_redzone_mismatches() {
        let mut k = Mte.semantics();
        assert!(!k.judge(&heap_call(
            0,
            HeapEvent::Malloc {
                base: 0x1000,
                size: 64
            }
        )));
        assert!(!k.judge(&mem(1, 0x1000)), "live interior: key == lock");
        assert!(!k.judge(&mem(2, 0x103F)), "last byte ok");
        assert!(k.judge(&mem(3, 0x1040)), "adjacent granule: foreign tag");
        assert!(!k.judge(&mem(4, 0x5000)), "untagged space is silent");
    }

    #[test]
    fn stale_pointer_accesses_mismatch_after_retag() {
        // Drive enough malloc/free pairs that at least one retag does NOT
        // collide (collision odds are 1/16 per free).
        let mut k = Mte.semantics();
        let mut flagged = 0;
        for i in 0..32u64 {
            let base = 0x1_0000 + i * 0x1000;
            assert!(!k.judge(&heap_call(i * 3, HeapEvent::Malloc { base, size: 128 })));
            assert!(!k.judge(&mem(i * 3 + 1, base + 16)), "live access ok");
            assert!(!k.judge(&heap_call(i * 3 + 2, HeapEvent::Free { base, size: 128 })));
            if k.judge(&mem(100_000 + i, base + 16)) {
                flagged += 1;
            }
        }
        assert!(
            flagged >= 24,
            "stale tags caught (minus ~1/16 collisions): {flagged}/32"
        );
    }

    #[test]
    fn region_table_stays_bounded_even_with_no_frees() {
        // A pathological stream that never frees: eviction must still
        // make progress (falling back to lowest-base live regions), so
        // the table never exceeds one malloc past the cap.
        let mut k = Mte.semantics();
        for i in 0..(REGION_CAP as u64 * 2) {
            let base = 0x1_0000 + i * 0x100;
            assert!(!k.judge(&heap_call(i, HeapEvent::Malloc { base, size: 32 })));
        }
        // Eviction ran (the table exceeded the cap), so the lowest-base
        // regions were recycled: their red zones no longer mismatch...
        assert!(
            !k.judge(&mem(1_000_000, 0x1_0000 + 40)),
            "the first region should have been evicted"
        );
        // ...while the most recent regions are still tracked exactly.
        let last_base = 0x1_0000 + (REGION_CAP as u64 * 2 - 1) * 0x100;
        assert!(!k.judge(&mem(1_000_001, last_base + 8)), "live interior");
        assert!(k.judge(&mem(1_000_002, last_base + 40)), "live red zone");
    }

    #[test]
    fn tag_sequence_is_deterministic() {
        let run = || {
            let mut k = Mte.semantics();
            let mut verdicts = Vec::new();
            for i in 0..64u64 {
                let base = 0x1_0000 + i * 0x100;
                k.judge(&heap_call(i * 3, HeapEvent::Malloc { base, size: 32 }));
                k.judge(&heap_call(i * 3 + 1, HeapEvent::Free { base, size: 32 }));
                verdicts.push(k.judge(&mem(i * 3 + 2, base + 8)));
            }
            verdicts
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn check_op_touches_tag_memory_and_heap_short_circuits() {
        let mut be = Mte.backend(0, Rc::new(RefCell::new(SharedTiming::default())));
        let r = be.custom(OP_MTE_CHECK, 0x1000, 0b0001);
        assert_eq!(r.value, 1);
        assert_eq!(r.mem_touch, Some(MTE_TAG_BASE + (0x1000 >> 5)));
        let r = be.custom(OP_MTE_CHECK, 0x1000, 0b10 << CHECK_FLAGS_SHIFT);
        assert_eq!(r.value, 2, "heap-flagged packets take the retag path");
        let r = be.custom(OP_MTE_TAG, 0x2000, 4096);
        assert!(r.extra_cycles >= 2);
    }
}
