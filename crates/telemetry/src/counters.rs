//! Engine- and fleet-level counter state.

use crate::expo::Sample;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Kernel slots a single packet stream can carry (the packet verdict
/// field is 8 bits wide; `fireguard_soc::MAX_KERNELS` is derived from the
/// same layout constant).
pub const MAX_KERNEL_SLOTS: usize = 8;

/// Instruction classes tallied per packet (15 in the ISA today; one spare
/// so the array never needs resizing for a new class).
pub const MAX_CLASSES: usize = 16;

/// One simulated system's activity tallies.
///
/// Every field is a plain `u64` the simulation *writes* and never reads:
/// per-event increments on the hot path (a handful of adds per committed
/// instruction) and occupancy samples at slow-domain edges. Reading a
/// snapshot therefore cannot perturb the simulation, which is what keeps
/// the packet digests and `.fgt` replay parity bit-for-bit identical with
/// telemetry enabled.
///
/// Slot-indexed arrays (`kernel_*`) use the kernel's *verdict bit* as the
/// index — the same slot numbering as `Detection::kernel_slot` — so a
/// caller with the deployment's `(slot, kernel)` map can relabel them by
/// registry name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineCounters {
    /// Slow-domain edges processed (the sampling clock).
    pub slow_edges: u64,
    /// Valid packets the event filter emitted.
    pub packets: u64,
    /// Invalid placeholders the filter emitted.
    pub placeholders: u64,
    /// Commit-path offers observed.
    pub offers: u64,
    /// Offers refused (commit stalled).
    pub refusals: u64,
    /// Valid packets by instruction class (`InstClass` order).
    pub class_packets: [u64; MAX_CLASSES],
    /// Valid packets routed toward each kernel slot's engine group.
    pub kernel_packets: [u64; MAX_KERNEL_SLOTS],
    /// Packets carrying a set verdict bit for each kernel slot.
    pub kernel_verdicts: [u64; MAX_KERNEL_SLOTS],
    /// Alarms each kernel slot's engines raised.
    pub kernel_alarms: [u64; MAX_KERNEL_SLOTS],
    /// High-water mark of packets buffered across the filter FIFOs.
    pub filter_ring_hwm: u64,
    /// High-water mark of any single CDC queue's occupancy.
    pub cdc_hwm: u64,
    /// Sum over slow edges of total mapper-downstream (CDC) occupancy;
    /// divide by `slow_edges` for the mean.
    pub mapper_occupancy_sum: u64,
    /// µcore park transitions (running → stalled on empty input).
    pub ucore_parks: u64,
    /// µcore wake transitions (stalled → retiring again).
    pub ucore_wakes: u64,
    /// Total µcore cycles spent parked/idle.
    pub ucore_idle_cycles: u64,
    /// Total µ-instructions retired across all engines.
    pub ucore_retired: u64,
    /// µcore data-memory accesses.
    pub ucore_mem_accesses: u64,
    /// Inter-checker NoC flits injected.
    pub noc_flits: u64,
    /// Total NoC hops traversed.
    pub noc_hops: u64,
    /// Total NoC queueing cycles.
    pub noc_queue_cycles: u64,
    /// µcore L1 data-cache hits.
    pub cache_hits: u64,
    /// µcore L1 data-cache misses.
    pub cache_misses: u64,
    /// µcore data-TLB hits.
    pub tlb_hits: u64,
    /// µcore data-TLB misses.
    pub tlb_misses: u64,
}

impl EngineCounters {
    /// Folds `other` into `self`: sums for totals, `max` for the
    /// high-water marks.
    pub fn merge(&mut self, other: &EngineCounters) {
        self.slow_edges += other.slow_edges;
        self.packets += other.packets;
        self.placeholders += other.placeholders;
        self.offers += other.offers;
        self.refusals += other.refusals;
        for (a, b) in self.class_packets.iter_mut().zip(other.class_packets) {
            *a += b;
        }
        for (a, b) in self.kernel_packets.iter_mut().zip(other.kernel_packets) {
            *a += b;
        }
        for (a, b) in self.kernel_verdicts.iter_mut().zip(other.kernel_verdicts) {
            *a += b;
        }
        for (a, b) in self.kernel_alarms.iter_mut().zip(other.kernel_alarms) {
            *a += b;
        }
        self.filter_ring_hwm = self.filter_ring_hwm.max(other.filter_ring_hwm);
        self.cdc_hwm = self.cdc_hwm.max(other.cdc_hwm);
        self.mapper_occupancy_sum += other.mapper_occupancy_sum;
        self.ucore_parks += other.ucore_parks;
        self.ucore_wakes += other.ucore_wakes;
        self.ucore_idle_cycles += other.ucore_idle_cycles;
        self.ucore_retired += other.ucore_retired;
        self.ucore_mem_accesses += other.ucore_mem_accesses;
        self.noc_flits += other.noc_flits;
        self.noc_hops += other.noc_hops;
        self.noc_queue_cycles += other.noc_queue_cycles;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.tlb_hits += other.tlb_hits;
        self.tlb_misses += other.tlb_misses;
    }

    /// Renders the counters as named samples. `kernels` maps occupied
    /// slots to their registry-declared label; `classes` names the
    /// instruction classes (`InstClass::ALL` order). Zero-valued
    /// per-class series are elided to keep expositions small; per-kernel
    /// series are always emitted for every deployed slot so a silent
    /// kernel is visible as an explicit zero.
    pub fn samples(&self, kernels: &[(usize, &str)], classes: &[&str]) -> Vec<Sample> {
        let mut out = vec![
            Sample::new("fireguard_slow_edges_total", self.slow_edges),
            Sample::new("fireguard_packets_total", self.packets),
            Sample::new("fireguard_placeholders_total", self.placeholders),
            Sample::new("fireguard_offers_total", self.offers),
            Sample::new("fireguard_refusals_total", self.refusals),
            Sample::new("fireguard_filter_ring_hwm", self.filter_ring_hwm),
            Sample::new("fireguard_cdc_hwm", self.cdc_hwm),
            Sample::new("fireguard_mapper_occupancy_sum", self.mapper_occupancy_sum),
            Sample::new("fireguard_ucore_parks_total", self.ucore_parks),
            Sample::new("fireguard_ucore_wakes_total", self.ucore_wakes),
            Sample::new("fireguard_ucore_idle_cycles_total", self.ucore_idle_cycles),
            Sample::new("fireguard_ucore_retired_total", self.ucore_retired),
            Sample::new(
                "fireguard_ucore_mem_accesses_total",
                self.ucore_mem_accesses,
            ),
            Sample::new("fireguard_noc_flits_total", self.noc_flits),
            Sample::new("fireguard_noc_hops_total", self.noc_hops),
            Sample::new("fireguard_noc_queue_cycles_total", self.noc_queue_cycles),
            Sample::new("fireguard_cache_hits_total", self.cache_hits),
            Sample::new("fireguard_cache_misses_total", self.cache_misses),
            Sample::new("fireguard_tlb_hits_total", self.tlb_hits),
            Sample::new("fireguard_tlb_misses_total", self.tlb_misses),
        ];
        for (i, name) in classes.iter().enumerate().take(MAX_CLASSES) {
            if self.class_packets[i] != 0 {
                out.push(
                    Sample::new("fireguard_class_packets_total", self.class_packets[i])
                        .label("class", name),
                );
            }
        }
        for &(slot, name) in kernels {
            if slot >= MAX_KERNEL_SLOTS {
                continue;
            }
            out.push(
                Sample::new("fireguard_kernel_packets_total", self.kernel_packets[slot])
                    .label("kernel", name),
            );
            out.push(
                Sample::new(
                    "fireguard_kernel_verdicts_total",
                    self.kernel_verdicts[slot],
                )
                .label("kernel", name),
            );
            out.push(
                Sample::new("fireguard_kernel_alarms_total", self.kernel_alarms[slot])
                    .label("kernel", name),
            );
        }
        out
    }
}

/// Per-kernel fleet tallies, indexed by the kernel's *wire id* (stable
/// across sessions, unlike the per-deployment slot).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelTally {
    /// Packets routed toward this kernel's engines.
    pub packets: u64,
    /// Packets carrying this kernel's verdict bit.
    pub verdicts: u64,
    /// Alarms this kernel raised.
    pub alarms: u64,
}

/// Service-level counters shared across session worker threads.
///
/// The per-frame counters are relaxed atomics (incremented on the
/// protocol path); the per-session engine aggregate is folded under a
/// mutex once per *completed* session, which is control-plane territory.
#[derive(Debug, Default)]
pub struct FleetCounters {
    /// Sessions accepted (HELLO decoded).
    pub sessions_started: AtomicU64,
    /// Sessions that ran to a SUMMARY.
    pub sessions_ok: AtomicU64,
    /// Sessions that terminated in an error.
    pub sessions_failed: AtomicU64,
    /// Trace events received over the wire.
    pub events: AtomicU64,
    /// Alarms streamed to clients.
    pub alarms: AtomicU64,
    agg: Mutex<FleetAgg>,
}

#[derive(Debug, Default)]
struct FleetAgg {
    engine: EngineCounters,
    kernels: [KernelTally; MAX_KERNEL_SLOTS],
}

impl FleetCounters {
    /// Folds one completed session's engine counters into the aggregate.
    /// `slot_wire` maps each deployed verdict slot to the kernel's wire
    /// id, so fleet tallies stay per-kernel even when deployments differ.
    pub fn fold_session(&self, counters: &EngineCounters, slot_wire: &[(usize, u8)]) {
        let mut agg = self.agg.lock().unwrap_or_else(|e| e.into_inner());
        agg.engine.merge(counters);
        for &(slot, wire) in slot_wire {
            if slot >= MAX_KERNEL_SLOTS || (wire as usize) >= MAX_KERNEL_SLOTS {
                continue;
            }
            let t = &mut agg.kernels[wire as usize];
            t.packets += counters.kernel_packets[slot];
            t.verdicts += counters.kernel_verdicts[slot];
            t.alarms += counters.kernel_alarms[slot];
        }
    }

    /// The folded engine aggregate and per-wire-id kernel tallies.
    pub fn engine_snapshot(&self) -> (EngineCounters, [KernelTally; MAX_KERNEL_SLOTS]) {
        let agg = self.agg.lock().unwrap_or_else(|e| e.into_inner());
        (agg.engine, agg.kernels)
    }

    /// Renders the service counters as samples. `kernel_names[wire_id]`
    /// labels the per-kernel series (callers pass the registry's
    /// canonical names) and `class_names` the per-class series; per-kernel
    /// series are emitted only for kernels that saw traffic, so a scrape
    /// of an idle fleet stays small.
    pub fn samples(&self, kernel_names: &[&str], class_names: &[&str]) -> Vec<Sample> {
        let (engine, kernels) = self.engine_snapshot();
        let mut out = vec![
            Sample::new(
                "fireguard_sessions_started_total",
                self.sessions_started.load(Ordering::Relaxed),
            ),
            Sample::new(
                "fireguard_sessions_completed_total",
                self.sessions_ok.load(Ordering::Relaxed),
            ),
            Sample::new(
                "fireguard_sessions_failed_total",
                self.sessions_failed.load(Ordering::Relaxed),
            ),
            Sample::new(
                "fireguard_events_total",
                self.events.load(Ordering::Relaxed),
            ),
            Sample::new(
                "fireguard_alarms_total",
                self.alarms.load(Ordering::Relaxed),
            ),
        ];
        // The engine aggregate, minus its slot-indexed kernel arrays
        // (replaced below by the stable wire-id tallies).
        out.extend(engine.samples(&[], class_names));
        for (wire, t) in kernels.iter().enumerate() {
            if t.packets == 0 && t.verdicts == 0 && t.alarms == 0 {
                continue;
            }
            let name = kernel_names.get(wire).copied().unwrap_or("unknown");
            out.push(
                Sample::new("fireguard_kernel_packets_total", t.packets).label("kernel", name),
            );
            out.push(
                Sample::new("fireguard_kernel_verdicts_total", t.verdicts).label("kernel", name),
            );
            out.push(Sample::new("fireguard_kernel_alarms_total", t.alarms).label("kernel", name));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_totals_and_maxes_hwms() {
        let mut a = EngineCounters {
            packets: 3,
            filter_ring_hwm: 5,
            ..EngineCounters::default()
        };
        a.kernel_packets[1] = 2;
        let mut b = EngineCounters {
            packets: 4,
            filter_ring_hwm: 2,
            ..EngineCounters::default()
        };
        b.kernel_packets[1] = 7;
        a.merge(&b);
        assert_eq!(a.packets, 7);
        assert_eq!(a.filter_ring_hwm, 5);
        assert_eq!(a.kernel_packets[1], 9);
    }

    #[test]
    fn fold_session_relabels_slots_by_wire_id() {
        let fleet = FleetCounters::default();
        let mut c = EngineCounters::default();
        c.kernel_packets[0] = 10;
        c.kernel_alarms[0] = 2;
        // Slot 0 hosts the kernel with wire id 5.
        fleet.fold_session(&c, &[(0, 5)]);
        fleet.fold_session(&c, &[(0, 5)]);
        let (engine, kernels) = fleet.engine_snapshot();
        assert_eq!(engine.kernel_packets[0], 20);
        assert_eq!(kernels[5].packets, 20);
        assert_eq!(kernels[5].alarms, 4);
        assert_eq!(kernels[0], KernelTally::default());
    }

    #[test]
    fn samples_label_kernels_and_elide_silent_wire_ids() {
        let fleet = FleetCounters::default();
        let mut c = EngineCounters::default();
        c.kernel_packets[0] = 1;
        fleet.fold_session(&c, &[(0, 2)]);
        let names = ["pmc", "ss", "asan", "uaf", "taint", "mte"];
        let samples = fleet.samples(&names, &[]);
        let kernel_rows: Vec<_> = samples
            .iter()
            .filter(|s| s.name == "fireguard_kernel_packets_total")
            .collect();
        assert_eq!(kernel_rows.len(), 1);
        assert_eq!(
            kernel_rows[0].labels,
            vec![("kernel".into(), "asan".into())]
        );
    }
}
