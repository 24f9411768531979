//! A composed L1 → L2 → LLC → DRAM hierarchy returning access latencies.
//!
//! Latencies are expressed in the clock domain of the attached core. The
//! main core (3.2 GHz) and the µcores (1.6 GHz) use different
//! [`HierarchyConfig`] presets derived from Table II.

use crate::cache::{Cache, CacheConfig, CacheStats};
use crate::mshr::MshrFile;
use crate::Cycle;

/// Which level serviced an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MemLevel {
    /// Hit in the first-level cache.
    L1,
    /// Serviced by the unified L2.
    L2,
    /// Serviced by the last-level cache.
    Llc,
    /// Went all the way to DRAM.
    Dram,
}

impl std::fmt::Display for MemLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            MemLevel::L1 => "L1",
            MemLevel::L2 => "L2",
            MemLevel::Llc => "LLC",
            MemLevel::Dram => "DRAM",
        })
    }
}

/// Per-level hit latencies, in cycles of the attached core's clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyConfig {
    /// L1 hit (load-to-use).
    pub l1_hit: Cycle,
    /// L2 hit (total, from the core).
    pub l2_hit: Cycle,
    /// LLC hit (total, from the core).
    pub llc_hit: Cycle,
    /// DRAM access (total, from the core).
    pub dram: Cycle,
}

/// Full hierarchy configuration.
#[derive(Debug, Clone, Copy)]
pub struct HierarchyConfig {
    /// First-level cache geometry.
    pub l1: CacheConfig,
    /// Unified L2 geometry; `None` for cores without a private L2 path.
    pub l2: Option<CacheConfig>,
    /// Last-level cache geometry; `None` to go straight to DRAM.
    pub llc: Option<CacheConfig>,
    /// Hit latencies per level.
    pub latency: LatencyConfig,
    /// Enable the next-line prefetcher (fills `line+1` on every L1 miss).
    /// The main core has one; the Rocket µcores do not, which is why their
    /// shadow-memory misses are expensive (the paper's ASan tail latencies).
    pub prefetch: bool,
    /// L1 MSHR count (Table II: 8).
    pub l1_mshrs: usize,
    /// L2 MSHR count (Table II: 12).
    pub l2_mshrs: usize,
    /// Maximum outstanding DRAM requests (Table II: 32).
    pub dram_requests: usize,
}

impl HierarchyConfig {
    /// The main core's data-side hierarchy from Table II: 32 KB 8-way L1D
    /// (8 MSHRs), 512 KB 8-way L2 (12 MSHRs), 4 MB 8-way LLC (8 MSHRs),
    /// 16 GB DDR3 behind a 1 GHz bus, all at 3.2 GHz core cycles.
    pub fn main_core() -> Self {
        HierarchyConfig {
            l1: CacheConfig::new(32 * 1024, 8, 64),
            l2: Some(CacheConfig::new(512 * 1024, 8, 64)),
            llc: Some(CacheConfig::new(4 * 1024 * 1024, 8, 64)),
            latency: LatencyConfig {
                l1_hit: 3,
                l2_hit: 14,
                llc_hit: 42,
                dram: 170,
            },
            prefetch: true,
            l1_mshrs: 8,
            l2_mshrs: 12,
            dram_requests: 32,
        }
    }

    /// A µcore's hierarchy from Table II: 4 KB 2-way L1 (I and D), sharing
    /// the SoC L2/memory. Latencies are in 1.6 GHz µcore cycles (i.e. half
    /// the main core's cycle counts for the same wall-clock time).
    pub fn ucore() -> Self {
        HierarchyConfig {
            l1: CacheConfig::new(4 * 1024, 2, 64),
            l2: Some(CacheConfig::new(512 * 1024, 8, 64)),
            llc: None,
            latency: LatencyConfig {
                l1_hit: 1,
                l2_hit: 12,
                llc_hit: 24,
                dram: 85,
            },
            prefetch: false,
            l1_mshrs: 2,
            l2_mshrs: 12,
            dram_requests: 32,
        }
    }
}

/// Outcome of a hierarchy access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Total latency of the access, including MSHR queueing.
    pub latency: Cycle,
    /// Cycle at which the data is available (`start + latency`).
    pub ready_at: Cycle,
    /// The level that serviced the access.
    pub level: MemLevel,
}

/// A composed cache hierarchy with MSHR-limited miss handling.
#[derive(Debug, Clone)]
pub struct MemoryHierarchy {
    config: HierarchyConfig,
    l1: Cache,
    l2: Option<Cache>,
    llc: Option<Cache>,
    l1_mshrs: MshrFile,
    l2_mshrs: MshrFile,
    dram_queue: MshrFile,
    accesses: u64,
}

impl MemoryHierarchy {
    /// Builds an empty hierarchy.
    pub fn new(config: HierarchyConfig) -> Self {
        MemoryHierarchy {
            l1: Cache::new(config.l1),
            l2: config.l2.map(Cache::new),
            llc: config.llc.map(Cache::new),
            l1_mshrs: MshrFile::new(config.l1_mshrs),
            l2_mshrs: MshrFile::new(config.l2_mshrs),
            dram_queue: MshrFile::new(config.dram_requests),
            config,
            accesses: 0,
        }
    }

    /// Performs an access at cycle `now` and returns its latency and level.
    ///
    /// Misses allocate MSHRs; when a level's MSHRs are exhausted the access
    /// queues, which shows up as added latency.
    pub fn access(&mut self, now: Cycle, addr: u64, is_write: bool) -> AccessResult {
        self.accesses += 1;
        let lat = self.config.latency;

        if self.l1.access(addr, is_write) {
            return AccessResult {
                latency: lat.l1_hit,
                ready_at: now + lat.l1_hit,
                level: MemLevel::L1,
            };
        }

        // L1 miss: take an L1 MSHR for the duration of the fill.
        let (level, base_latency) = self.classify_miss(addr, is_write);
        if self.config.prefetch {
            // Degree-4 next-line prefetch: an idealisation of the stride
            // prefetcher real BOOM L1s carry, giving streaming sweeps the
            // ~80% coverage hardware achieves.
            for i in 1..=4u64 {
                let next = (addr & !63) + 64 * i;
                self.l1.fill(next);
                if let Some(l2) = &mut self.l2 {
                    l2.fill(next);
                }
            }
        }
        let occupancy = base_latency;
        let start = self.l1_mshrs.allocate(now, occupancy);
        let mut ready = start + base_latency;

        // Deeper levels consume their own tracking structures.
        match level {
            MemLevel::L2 => {}
            MemLevel::Llc => {
                let s2 = self.l2_mshrs.allocate(start, base_latency - lat.l2_hit);
                ready = ready.max(s2 + base_latency);
            }
            MemLevel::Dram => {
                let s2 = self.l2_mshrs.allocate(start, base_latency - lat.l2_hit);
                let sd = self.dram_queue.allocate(s2, lat.dram - lat.llc_hit);
                ready = ready.max(sd + base_latency);
            }
            MemLevel::L1 => unreachable!("L1 hits return early"),
        }

        AccessResult {
            latency: ready - now,
            ready_at: ready,
            level,
        }
    }

    /// Walks the levels below L1 to find which services the miss.
    fn classify_miss(&mut self, addr: u64, is_write: bool) -> (MemLevel, Cycle) {
        let lat = self.config.latency;
        if let Some(l2) = &mut self.l2 {
            if l2.access(addr, is_write) {
                return (MemLevel::L2, lat.l2_hit);
            }
        }
        if let Some(llc) = &mut self.llc {
            if llc.access(addr, is_write) {
                return (MemLevel::Llc, lat.llc_hit);
            }
        }
        (MemLevel::Dram, lat.dram)
    }

    /// L1 statistics.
    pub fn l1_stats(&self) -> CacheStats {
        self.l1.stats()
    }

    /// Total accesses made.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Cycles lost to full L1 MSHRs (structural stalls).
    pub fn mshr_stall_cycles(&self) -> u64 {
        self.l1_mshrs.stall_cycles()
    }

    /// Invalidates all cached state (statistics included).
    pub fn flush(&mut self) {
        self.l1.flush();
        if let Some(l2) = &mut self.l2 {
            l2.flush();
        }
        if let Some(llc) = &mut self.llc {
            llc.flush();
        }
        self.l1_mshrs.reset();
        self.l2_mshrs.reset();
        self.dram_queue.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_ordering_by_level() {
        let mut m = MemoryHierarchy::new(HierarchyConfig::main_core());
        let dram = m.access(0, 0xA000, false);
        assert_eq!(dram.level, MemLevel::Dram);
        let l1 = m.access(dram.ready_at, 0xA000, false);
        assert_eq!(l1.level, MemLevel::L1);
        assert!(l1.latency < dram.latency);
    }

    #[test]
    fn l2_hit_after_l1_eviction() {
        let mut m = MemoryHierarchy::new(HierarchyConfig::main_core());
        // Fill one L1 set (8 ways, 64 sets, 64 B lines → same set every 4 KiB).
        let now = 0;
        for i in 0..9u64 {
            m.access(now + i * 1000, i * 4096, false);
        }
        // First line was evicted from L1 but remains in L2.
        let r = m.access(100_000, 0, false);
        assert_eq!(r.level, MemLevel::L2);
    }

    #[test]
    fn mshr_pressure_adds_latency() {
        let cfg = HierarchyConfig {
            l1_mshrs: 1,
            ..HierarchyConfig::main_core()
        };
        let mut m = MemoryHierarchy::new(cfg);
        let a = m.access(0, 0x0000, false);
        let b = m.access(0, 0x10000, false); // distinct line, same instant
        assert!(b.latency > a.latency, "second miss queues behind one MSHR");
        assert!(m.mshr_stall_cycles() > 0);
    }

    #[test]
    fn writes_allocate_like_reads() {
        let mut m = MemoryHierarchy::new(HierarchyConfig::main_core());
        m.access(0, 0x4000, true);
        let r = m.access(1000, 0x4000, false);
        assert_eq!(r.level, MemLevel::L1);
    }

    #[test]
    fn ucore_preset_has_no_llc() {
        let mut m = MemoryHierarchy::new(HierarchyConfig::ucore());
        let r = m.access(0, 0xDEAD_B000, false);
        // Either L2 services it or DRAM; never Llc.
        assert_ne!(r.level, MemLevel::Llc);
    }

    #[test]
    fn flush_resets_everything() {
        let mut m = MemoryHierarchy::new(HierarchyConfig::main_core());
        m.access(0, 0x4000, false);
        m.flush();
        let r = m.access(0, 0x4000, false);
        assert_eq!(r.level, MemLevel::Dram, "flush forgot the line");
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let mut m = MemoryHierarchy::new(HierarchyConfig::main_core());
            let mut sum = 0u64;
            for i in 0..2000u64 {
                let addr = (i * 2654435761) % (1 << 22);
                sum += m.access(i * 2, addr, i % 3 == 0).latency;
            }
            sum
        };
        assert_eq!(run(), run());
    }
}
