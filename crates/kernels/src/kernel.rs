//! Guardian-kernel instances and the shared µcore address-space map.
//!
//! A [`GuardianKernel`] binds one registered [`KernelId`] to a verdict
//! bit, a programming model, and the timing state its engines share; the
//! kernel-specific behaviour (semantics, µ-program, backend) is resolved
//! through the plugin registry (see [`crate::spec`]).

use crate::spec::KernelId;
use fireguard_core::packet::layout;
use fireguard_ucore::backend::CustomResult;
use fireguard_ucore::KernelBackend;
use std::cell::RefCell;
use std::rc::Rc;

/// Base of the µcore-visible shadow-memory region (ASan bytes).
pub const SHADOW_BASE: u64 = 0x80_0000_0000;
/// Base of the UaF quarantine hash table.
pub const QTABLE_BASE: u64 = 0x90_0000_0000;
/// Base of the shadow-stack array.
pub const SSTACK_BASE: u64 = 0xA0_0000_0000;
/// Base of the PMC counter table.
pub const COUNTER_BASE: u64 = 0xB0_0000_0000;
/// Base of the DIFT taint shadow (one taint byte per 8 program bytes).
pub const TAINT_BASE: u64 = 0xC0_0000_0000;
/// Base of the MTE tag memory (4 bits per 16-byte granule).
pub const MTE_TAG_BASE: u64 = 0xD0_0000_0000;

/// Custom op: policy check — touches the kernel's table for `addr` and
/// returns this kernel's verdict bit from the packet's verdict field.
pub const OP_CHECK: u8 = 1;
/// Custom op: heap-event processing (poison/quarantine update microloop).
pub const OP_HEAP: u8 = 2;
/// Custom op: shadow-stack step (push on call, pop+compare on return).
pub const OP_SS_STEP: u8 = 3;
/// Custom op: PMC step (counter increment + bounds verdict).
pub const OP_PMC_STEP: u8 = 4;
/// Custom op: DIFT step (taint-shadow touch + verdict).
pub const OP_TAINT_STEP: u8 = 5;
/// Custom op: MTE check (tag-memory touch + verdict).
pub const OP_MTE_CHECK: u8 = 6;
/// Custom op: MTE heap event (bulk tag/retag microloop).
pub const OP_MTE_TAG: u8 = 7;

/// The µ-program style used by a kernel's inner loop (paper Fig. 11).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ProgrammingModel {
    /// A single-iteration loop: `count`, test, process one packet.
    Conventional,
    /// Duff's device over the queue count (4-way dispatch).
    Duffs,
    /// Pure 8-way unrolling (stalls when the queue runs dry).
    Unrolled,
    /// Unrolling when the queue is full enough, Duff's otherwise — the
    /// paper's uniformly-best strategy.
    Hybrid,
}

impl ProgrammingModel {
    /// All models, for Fig. 11 sweeps.
    pub const ALL: [ProgrammingModel; 4] = [
        ProgrammingModel::Conventional,
        ProgrammingModel::Duffs,
        ProgrammingModel::Unrolled,
        ProgrammingModel::Hybrid,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            ProgrammingModel::Conventional => "Conventional",
            ProgrammingModel::Duffs => "Duff's Device",
            ProgrammingModel::Unrolled => "Pure Unrolling",
            ProgrammingModel::Hybrid => "Proposed",
        }
    }
}

/// In-operand shift of the class nibble inside a `field(VERDICT)`
/// extract: `qcheck` hands backends packet bits `[VERDICT+63:VERDICT]`,
/// so the class sits `CLASS - VERDICT` bits up from the verdict's bit 0.
pub const CHECK_CLASS_SHIFT: u8 = layout::CLASS - layout::VERDICT;
/// In-operand shift of the flags nibble inside a `field(VERDICT)` extract.
pub const CHECK_FLAGS_SHIFT: u8 = layout::FLAGS - layout::VERDICT;

/// The fused-check heap short-circuit shared by every heap-watching
/// kernel's check op: `b` carries packet bits `[127:VERDICT]` with the
/// flags nibble at [`CHECK_FLAGS_SHIFT`]; a malloc/free flag returns
/// check value 2 so the µ-program branches to its heap microloop instead
/// of table-checking. One definition keeps the protocol invariant from
/// desynchronizing across plugins.
pub(crate) fn heap_flag_short_circuit(b: u64) -> Option<CustomResult> {
    let flags = (b >> CHECK_FLAGS_SHIFT) & 3;
    if flags != 0 {
        Some(CustomResult {
            value: 2,
            extra_cycles: 0,
            mem_touch: None,
            touch_blind: true,
        })
    } else {
        None
    }
}

/// Timing state shared between the engines of one kernel instance
/// (sweep pressure, shadow-stack depth).
#[derive(Debug, Default)]
pub struct SharedTiming {
    /// Frees processed (drives MineSweeper sweep charges).
    pub frees: u64,
    /// Approximate quarantine occupancy.
    pub quarantine_len: u64,
    /// Shadow-stack depth (for slot addressing).
    pub ss_depth: i64,
    /// Sweep microloops charged.
    pub sweeps_charged: u64,
}

/// A guardian kernel instance: registry id + verdict bit + shared timing.
#[derive(Debug)]
pub struct GuardianKernel {
    /// Which registered kernel.
    pub id: KernelId,
    /// The verdict bit (`0..layout::VERDICT_BITS`) assigned to this
    /// kernel in packet payloads.
    pub vbit: usize,
    /// The programming model its µ-programs use.
    pub model: ProgrammingModel,
    shared: Rc<RefCell<SharedTiming>>,
}

impl GuardianKernel {
    /// Creates a kernel instance with verdict bit `vbit`.
    ///
    /// # Panics
    ///
    /// Panics if `vbit >= layout::VERDICT_BITS` (the packet verdict field
    /// width). Callers sizing a deployment check capacity *before*
    /// assigning verdict bits (see `fireguard_soc`'s `MAX_KERNELS`).
    pub fn new(id: KernelId, vbit: usize, model: ProgrammingModel) -> Self {
        assert!(vbit < layout::VERDICT_BITS as usize);
        GuardianKernel {
            id,
            vbit,
            model,
            shared: Rc::new(RefCell::new(SharedTiming::default())),
        }
    }

    /// Builds the backend for one of this kernel's engines, dispatched
    /// through the registered spec.
    pub fn engine_backend(&self) -> Box<dyn KernelBackend> {
        self.id.spec().backend(self.vbit, Rc::clone(&self.shared))
    }

    /// The µ-program for this kernel under its programming model.
    pub fn program(&self) -> fireguard_ucore::UProgram {
        self.id.spec().program(self.model)
    }

    /// Shared timing state (tests/reports).
    pub fn shared_timing(&self) -> Rc<RefCell<SharedTiming>> {
        Rc::clone(&self.shared)
    }
}
