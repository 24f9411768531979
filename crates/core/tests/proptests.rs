//! Property-based tests for FireGuard's frontend invariants: the event
//! filter must preserve commit order through arbitrary commit patterns,
//! the allocator must deliver every packet to exactly the interested
//! engines, and the CDC must neither lose nor duplicate.

use fireguard_core::{
    groups, Allocator, CdcQueue, ClockDivider, DpSel, EventFilter, FilterConfig, Policy,
    SchedulingEngine,
};
use fireguard_isa::{InstClass, Instruction, MemWidth};
use fireguard_trace::TraceInst;
use proptest::prelude::*;
use std::collections::VecDeque;

fn mem_inst(seq: u64, load: bool) -> TraceInst {
    let inst = if load {
        Instruction::load(MemWidth::D, 5.into(), 6.into(), 0)
    } else {
        Instruction::store(MemWidth::D, 5.into(), 6.into(), 0)
    };
    TraceInst {
        seq,
        pc: 0x1_0000 + seq * 4,
        class: inst.class(),
        inst,
        mem_addr: Some(0x4000_0000 + seq * 8),
        control: None,
        heap: None,
        attack: None,
    }
}

fn alu_inst(seq: u64) -> TraceInst {
    let inst = Instruction::nop();
    TraceInst {
        seq,
        pc: 0x1_0000 + seq * 4,
        class: inst.class(),
        inst,
        mem_addr: None,
        control: None,
        heap: None,
        attack: None,
    }
}

/// One entry of the reference model's FIFOs.
#[derive(Debug, Clone, Copy)]
struct RefEntry {
    order: (u64, usize),
    valid: bool,
    seq: u64,
}

/// The event filter as Fig. 4 draws it: one FIFO per commit path, and an
/// arbiter that merges the FIFO heads by commit order.
struct RefFilter {
    width: usize,
    depth: usize,
    fifos: Vec<VecDeque<RefEntry>>,
    cycle: u64,
    offers_this_cycle: usize,
    refusals: u64,
}

impl RefFilter {
    fn new(width: usize, depth: usize) -> Self {
        RefFilter {
            width,
            depth,
            fifos: vec![VecDeque::new(); width],
            cycle: 0,
            offers_this_cycle: 0,
            refusals: 0,
        }
    }

    fn offer(&mut self, now: u64, slot: usize, valid: bool, seq: u64) -> bool {
        if now != self.cycle {
            self.cycle = now;
            self.offers_this_cycle = 0;
        }
        let fifo = &mut self.fifos[slot % self.width];
        if self.offers_this_cycle == self.width || fifo.len() >= self.depth {
            self.refusals += 1;
            return false;
        }
        fifo.push_back(RefEntry {
            order: (now, slot),
            valid,
            seq,
        });
        self.offers_this_cycle += 1;
        true
    }

    /// The FIFO holding the oldest valid entry, and that entry's order.
    fn oldest_valid(&self) -> Option<(usize, (u64, usize))> {
        self.fifos
            .iter()
            .enumerate()
            .filter_map(|(i, f)| f.iter().find(|e| e.valid).map(|e| (i, e.order)))
            .min_by_key(|&(_, order)| order)
    }

    fn squash(&mut self) {
        let min_valid = self.oldest_valid().map(|(_, order)| order);
        for f in &mut self.fifos {
            while f
                .front()
                .is_some_and(|e| !e.valid && min_valid.map_or(true, |mv| e.order < mv))
            {
                f.pop_front();
            }
        }
    }

    fn peek(&self) -> Option<u64> {
        let (i, _) = self.oldest_valid()?;
        self.fifos[i].iter().find(|e| e.valid).map(|e| e.seq)
    }

    fn pop(&mut self) -> Option<u64> {
        self.squash();
        let (i, _) = self.oldest_valid()?;
        self.fifos[i].pop_front().map(|e| e.seq)
    }

    fn buffered(&self) -> usize {
        self.fifos.iter().map(VecDeque::len).sum()
    }

    fn any_full(&self) -> bool {
        self.fifos.iter().any(|f| f.len() >= self.depth)
    }

    fn has_packet(&self) -> bool {
        self.fifos.iter().any(|f| f.iter().any(|e| e.valid))
    }
}

/// One step of a commit-stage/mapper interleaving.
#[derive(Debug, Clone)]
enum FilterOp {
    /// A new cycle offering `burst` commits in slot order; bit `i` of
    /// `monitored` makes slot `i` a load (else a placeholder). With
    /// `stop`, the burst ends at the first refusal, as commit does.
    Commit {
        burst: usize,
        monitored: u8,
        stop: bool,
    },
    Peek,
    Squash,
    Pop,
}

fn filter_op() -> impl Strategy<Value = FilterOp> {
    // Weighted 3:1:1:2 over commit, peek, squash and pop.
    (0u8..7, 0usize..6, any::<u8>(), any::<bool>()).prop_map(|(pick, burst, monitored, stop)| {
        match pick {
            0..=2 => FilterOp::Commit {
                burst,
                monitored,
                stop,
            },
            3 => FilterOp::Peek,
            4 => FilterOp::Squash,
            _ => FilterOp::Pop,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The commit-ordered ring with per-slot counts behaves exactly like
    /// per-slot FIFOs merged by commit order: the same refusals, pop
    /// order, occupancy and full/has-packet signals after every step.
    #[test]
    fn filter_matches_per_slot_fifo_model(
        width in prop_oneof![Just(1usize), Just(2), Just(4)],
        depth in 1usize..9,
        ops in proptest::collection::vec(filter_op(), 1..300),
    ) {
        let mut f = EventFilter::new(FilterConfig { width, fifo_depth: depth });
        f.subscribe(InstClass::Load, groups::MEM, DpSel::LSQ);
        let mut model = RefFilter::new(width, depth);
        let (mut now, mut seq) = (0u64, 0u64);
        for op in ops {
            match op {
                FilterOp::Commit { burst, monitored, stop } => {
                    now += 1;
                    for slot in 0..burst {
                        let valid = monitored & (1 << slot) != 0;
                        let t = if valid { mem_inst(seq, true) } else { alu_inst(seq) };
                        let ok = f.offer(now, slot, &t);
                        prop_assert_eq!(ok, model.offer(now, slot, valid, seq), "offer {}", seq);
                        seq += u64::from(ok);
                        if !ok && stop {
                            break;
                        }
                    }
                }
                FilterOp::Peek => {
                    prop_assert_eq!(f.arbiter_peek().map(|p| p.meta.seq), model.peek());
                }
                FilterOp::Squash => {
                    f.squash_placeholders();
                    model.squash();
                }
                FilterOp::Pop => {
                    prop_assert_eq!(f.arbiter_pop().map(|p| p.meta.seq), model.pop());
                }
            }
            prop_assert_eq!(f.buffered(), model.buffered());
            prop_assert_eq!(f.any_fifo_full(), model.any_full());
            prop_assert_eq!(f.arbiter_has_packet(), model.has_packet());
            for slot in 0..width {
                prop_assert_eq!(f.fifo_full(slot), model.fifos[slot].len() >= depth);
            }
            prop_assert_eq!(f.stats().refusals, model.refusals);
        }
    }

    /// Commit order in = packet order out, no matter how commits burst
    /// across slots and cycles, and no matter how pops interleave.
    #[test]
    fn filter_preserves_commit_order(
        pattern in proptest::collection::vec((0usize..5, any::<bool>(), any::<bool>()), 1..200)
    ) {
        let mut f = EventFilter::new(FilterConfig::default());
        f.subscribe(InstClass::Load, groups::MEM, DpSel::LSQ);
        f.subscribe(InstClass::Store, groups::MEM, DpSel::LSQ);

        let mut seq = 0u64;
        let mut expected: Vec<u64> = Vec::new();
        let mut got: Vec<u64> = Vec::new();
        for (now, (burst, monitored, pop_now)) in (1u64..).zip(pattern) {
            for slot in 0..burst {
                let t = if monitored { mem_inst(seq, slot % 2 == 0) } else { alu_inst(seq) };
                if f.offer(now, slot, &t) {
                    if monitored {
                        expected.push(seq);
                    }
                    seq += 1;
                }
            }
            if pop_now {
                if let Some(p) = f.arbiter_pop() {
                    got.push(p.meta.seq);
                }
            }
        }
        while let Some(p) = f.arbiter_pop() {
            got.push(p.meta.seq);
        }
        prop_assert_eq!(got, expected, "packets must drain in commit order");
    }

    /// Every routed packet reaches exactly one engine per interested
    /// kernel, and only engines belonging to interested kernels.
    #[test]
    fn allocator_routes_to_exactly_interested_kernels(
        subscribe_a in any::<bool>(),
        subscribe_b in any::<bool>(),
        packets in 1usize..64,
    ) {
        let mut alloc = Allocator::new();
        let a = alloc.add_se(SchedulingEngine::new(vec![0, 1], Policy::RoundRobin));
        let b = alloc.add_se(SchedulingEngine::new(vec![2, 3, 4], Policy::RoundRobin));
        if subscribe_a {
            alloc.subscribe(groups::MEM, a);
        }
        if subscribe_b {
            alloc.subscribe(groups::MEM, b);
        }
        for _ in 0..packets {
            let dest = alloc.route(groups::MEM, &|_| true);
            let a_hits = (dest & 0b00011).count_ones();
            let b_hits = (dest & 0b11100).count_ones();
            prop_assert_eq!(a_hits, u32::from(subscribe_a), "kernel A engine count");
            prop_assert_eq!(b_hits, u32::from(subscribe_b), "kernel B engine count");
            prop_assert_eq!(dest & !0b11111, 0, "no stray engines");
        }
        let s = alloc.stats();
        if subscribe_a || subscribe_b {
            prop_assert_eq!(s.routed, packets as u64);
        } else {
            prop_assert_eq!(s.unclaimed, packets as u64);
        }
    }

    /// Round-robin spreads packets evenly (within one packet).
    #[test]
    fn round_robin_is_fair(engines in 1usize..8, packets in 1usize..256) {
        let mut se = SchedulingEngine::new((0..engines).collect(), Policy::RoundRobin);
        let mut counts = vec![0u32; engines];
        for _ in 0..packets {
            let bitmap = se.allocate(&|_| true);
            counts[bitmap.trailing_zeros() as usize] += 1;
        }
        let min = counts.iter().min().unwrap();
        let max = counts.iter().max().unwrap();
        prop_assert!(max - min <= 1, "round robin fairness: {counts:?}");
    }

    /// CDC: no loss, no duplication, FIFO order, capacity respected.
    #[test]
    fn cdc_is_lossless_and_ordered(
        ops in proptest::collection::vec(any::<bool>(), 1..300)
    ) {
        let mut q: CdcQueue<u64> = CdcQueue::new(8, ClockDivider::new(2));
        let mut next = 0u64;
        let mut expected = 0u64;
        let mut fast = 0u64;
        for push in ops {
            fast += 2;
            if push {
                if q.push(next, fast).is_ok() {
                    next += 1;
                }
                prop_assert!(q.len() <= 8);
            } else if let Some(v) = q.pop(fast / 2) {
                prop_assert_eq!(v, expected, "CDC must be FIFO");
                expected += 1;
            }
        }
        // Drain: everything pushed must come out exactly once.
        let mut slow = fast / 2;
        while expected < next {
            slow += 1;
            if let Some(v) = q.pop(slow) {
                prop_assert_eq!(v, expected);
                expected += 1;
            }
            prop_assert!(slow < fast / 2 + 1000, "drain must terminate");
        }
    }

    /// Block mode never picks a full engine while a free one exists.
    #[test]
    fn block_mode_avoids_full_engines(full_mask in 0u8..0b111) {
        let mut se = SchedulingEngine::new(vec![0, 1, 2], Policy::Block);
        // At least one engine free by construction of the range above.
        for _ in 0..16 {
            let bitmap = se.allocate(&|e| full_mask & (1 << e) == 0);
            let picked = bitmap.trailing_zeros() as u8;
            // Block mode may *probe* its previous target once after it
            // fills, but after the probe it must settle on a free engine.
            let settled = se.allocate(&|e| full_mask & (1 << e) == 0);
            let settled_engine = settled.trailing_zeros() as u8;
            prop_assert!(
                full_mask & (1 << settled_engine) == 0 || full_mask & (1 << picked) == 0,
                "block mode must reach a free engine: mask {full_mask:#b}"
            );
        }
    }
}
