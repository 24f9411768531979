//! Determinism-under-telemetry tests: the engine counters are write-only
//! state, so sampling them must not move a single simulated bit.
//!
//! The counters are always compiled in. The digest suite
//! (`tests/digest.rs`) and the replay-parity suite (`tests/replay.rs`)
//! pinned their goldens *before* the counters existed, so every green run
//! of those suites is itself a with-vs-pre-telemetry bit-equality proof.
//! The tests here close the remaining gaps: the instrumented entry point
//! returns the same `RunResult` as the plain one, and the counters agree
//! with the run they observed.

use fireguard::kernels::KernelId;
use fireguard::soc::{
    experiments::run_fireguard_telemetry, run_fireguard, ExperimentConfig, MAX_ENGINES,
};
use fireguard::trace::{AttackKind, AttackPlan};

fn insts() -> u64 {
    // FG_INSTS keeps this aligned with the CI smoke budget.
    std::env::var("FG_INSTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2_000)
}

fn attack_cfg(workload: &str, n: u64) -> ExperimentConfig {
    let plan = AttackPlan::campaign(
        &[AttackKind::RetHijack],
        6,
        n / 10,
        n.saturating_sub(n / 5),
        3,
    );
    ExperimentConfig::new(workload)
        .kernel(KernelId::SHADOW_STACK, 4)
        .insts(n)
        .attacks(plan)
}

/// The instrumented entry point returns a `RunResult` bit-identical to
/// the plain one — `Debug` formatting prints the shortest round-trip
/// representation of every `f64`, so equal strings ⇔ equal bits.
#[test]
fn instrumented_run_is_bit_identical_to_plain_run() {
    let n = insts();
    for w in fireguard::soc::experiments::workloads() {
        let cfg = attack_cfg(w, n);
        let plain = run_fireguard(&cfg);
        let (instrumented, counters, _slots) = run_fireguard_telemetry(&cfg);
        assert_eq!(
            format!("{plain:?}"),
            format!("{instrumented:?}"),
            "{w}: counter sampling perturbed the simulation"
        );
        assert!(counters.slow_edges > 0, "{w}: no slow edges sampled");
    }
}

/// The counters describe the run they observed: the packet tallies match
/// the `RunResult`'s, per-kernel alarm tallies partition the detection
/// set, and the per-class tallies partition the packets.
#[test]
fn counters_are_consistent_with_the_run() {
    let cfg = attack_cfg("dedup", insts());
    let (result, counters, slots) = run_fireguard_telemetry(&cfg);

    assert_eq!(counters.packets, result.packets, "filter packet tally");
    assert_eq!(
        counters.class_packets.iter().sum::<u64>(),
        result.packets,
        "per-class tallies partition the packet stream"
    );
    assert_eq!(
        counters.kernel_alarms.iter().sum::<u64>(),
        result.detections.len() as u64,
        "per-kernel alarm tallies partition the detection set"
    );
    // Single-kernel deployment: every alarm belongs to the one slot.
    assert_eq!(slots.len(), 1);
    let (slot, id) = slots[0];
    assert_eq!(id, KernelId::SHADOW_STACK);
    assert!(slot < MAX_ENGINES);
    assert_eq!(counters.kernel_alarms[slot], result.detections.len() as u64);
    assert!(
        counters.kernel_packets[slot] > 0,
        "the deployed kernel saw packets"
    );
    assert!(
        counters.kernel_verdicts[slot] >= counters.kernel_alarms[slot],
        "verdict bits at least cover the alarms"
    );
    assert!(counters.ucore_retired > 0, "µcores retired instructions");
    assert!(
        counters.cache_hits + counters.cache_misses > 0,
        "µcore data caches saw accesses"
    );
    assert!(
        counters.filter_ring_hwm > 0,
        "the filter ring high-water mark moved"
    );
}

/// Counter sampling composes with the digest/replay determinism contract
/// transitively; this pins the cheapest end-to-end corner of it — two
/// instrumented runs of the same config are themselves bit-identical
/// (no hidden wall-clock or allocation dependence in the sampled state).
#[test]
fn instrumented_runs_are_reproducible() {
    let cfg = attack_cfg("ferret", insts());
    let (r1, c1, _) = run_fireguard_telemetry(&cfg);
    let (r2, c2, _) = run_fireguard_telemetry(&cfg);
    assert_eq!(format!("{r1:?}"), format!("{r2:?}"));
    assert_eq!(c1, c2, "counters diverged across identical runs");
}
