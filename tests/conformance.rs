//! Registry-wide kernel-conformance suite.
//!
//! Every kernel registered in `fireguard_kernels::registry()` — the four
//! paper kernels *and* anything landed since — must honour the same
//! contract, with no per-kernel special cases in this file:
//!
//! 1. **Benign silence** — a clean trace produces zero detections.
//! 2. **Attack sensitivity** — an injected campaign of the attack kinds
//!    the kernel declares via `KernelSpec::detects` produces detections.
//! 3. **Determinism** — re-running the identical attacked experiment
//!    yields a bit-identical `RunResult` (`Debug`-equal, so every `f64`
//!    matches to the bit).
//! 4. **Replay parity** — recording the commit stream and replaying it
//!    through `run_fireguard_events` reproduces the in-process result
//!    bit-for-bit.
//!
//! Because the suite is driven off the registry, a new plugin is covered
//! the moment it is registered — there is no second list to update.
//!
//! A fifth axis exercises **all registered kernels at once** — the
//! packet-layout-v2 deployment, with verdict bits past the old 4-bit
//! nibble live — through the same benign / attacked / deterministic /
//! replay contract, plus per-slot verdict attribution.
//!
//! A sixth axis pins the data-oriented hot path: every registered
//! kernel's `Semantics::judge_batch` (the batched, possibly column-scan
//! override) must be bit-identical to per-event `judge` over an attacked
//! commit stream — the contract that lets the judging stage judge whole
//! batches ahead of commit.

use fireguard::kernels::registry;
use fireguard::soc::{
    baseline_cycles, capture_events, run_fireguard, run_fireguard_events, ExperimentConfig,
};
use fireguard::trace::{AttackPlan, EventBatch, BATCH_EVENTS};

/// Commit budget for the attacked runs. Long enough that dedup's first
/// frees (allocation lifetime ~30k instructions) land inside the attack
/// window, so UaF-style campaigns materialise.
const ATTACKED_INSTS: u64 = 36_000;
/// Commit budget for the benign runs.
const BENIGN_INSTS: u64 = 30_000;

/// The attacked experiment for one kernel: its declared attack kinds,
/// injected into dedup's allocation-heavy stream late enough that every
/// kind is feasible.
fn attacked_experiment(spec: &dyn fireguard::kernels::KernelSpec) -> ExperimentConfig {
    let plan = AttackPlan::campaign(
        spec.detects(),
        24,
        ATTACKED_INSTS / 2,
        ATTACKED_INSTS - ATTACKED_INSTS / 10,
        5,
    );
    let mut cfg = ExperimentConfig::new("dedup")
        .insts(ATTACKED_INSTS)
        .attacks(plan);
    cfg.kernels = vec![(spec.id(), fireguard::soc::EngineConfig::Ucores(4))];
    cfg
}

/// The attacked experiment with **every** registered kernel deployed at
/// once: the union of all declared attack kinds, one engine pair per
/// kernel (the registry currently holds 6 kernels → 12 engines).
fn all_kernels_experiment() -> ExperimentConfig {
    let kinds: Vec<_> = {
        let mut v: Vec<_> = registry()
            .iter()
            .flat_map(|s| s.detects().iter().copied())
            .collect();
        v.sort_unstable_by_key(|k| format!("{k:?}"));
        v.dedup();
        v
    };
    let plan = AttackPlan::campaign(
        &kinds,
        24,
        ATTACKED_INSTS / 2,
        ATTACKED_INSTS - ATTACKED_INSTS / 10,
        5,
    );
    let mut cfg = ExperimentConfig::new("dedup")
        .insts(ATTACKED_INSTS)
        .attacks(plan);
    cfg.kernels = registry()
        .iter()
        .map(|s| (s.id(), fireguard::soc::EngineConfig::Ucores(2)))
        .collect();
    cfg
}

#[test]
fn benign_traces_raise_zero_detections_for_every_kernel() {
    for &spec in registry() {
        let mut cfg = ExperimentConfig::new("dedup").insts(BENIGN_INSTS);
        cfg.kernels = vec![(spec.id(), fireguard::soc::EngineConfig::Ucores(4))];
        let r = run_fireguard(&cfg);
        assert!(
            r.detections.is_empty(),
            "{}: {} detections on a clean trace",
            spec.name(),
            r.detections.len()
        );
        assert!(r.committed >= BENIGN_INSTS, "{}", spec.name());
        assert_eq!(
            r.unclaimed_packets,
            0,
            "{}: unsubscribed packets",
            spec.name()
        );
    }
}

#[test]
fn injected_campaigns_are_detected_by_every_kernel() {
    for &spec in registry() {
        let cfg = attacked_experiment(spec);
        let r = run_fireguard(&cfg);
        assert!(
            !r.detections.is_empty(),
            "{}: campaign of {:?} raised no detections",
            spec.name(),
            spec.detects()
        );
        // Latencies of ground-truth attack detections are physical.
        for l in r.attack_latencies_ns() {
            assert!(
                l > 0.0 && l < 1e6,
                "{}: implausible detection latency {l} ns",
                spec.name()
            );
        }
    }
}

#[test]
fn attacked_runs_are_deterministic_across_reruns_for_every_kernel() {
    for &spec in registry() {
        let cfg = attacked_experiment(spec);
        let a = run_fireguard(&cfg);
        let b = run_fireguard(&cfg);
        assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "{}: rerun diverged",
            spec.name()
        );
    }
}

#[test]
fn replay_is_byte_identical_for_every_kernel() {
    for &spec in registry() {
        let cfg = attacked_experiment(spec);
        let offline = run_fireguard(&cfg);
        let base = baseline_cycles(&cfg.workload, cfg.seed, cfg.insts);
        let events = capture_events(&cfg);
        let replayed = run_fireguard_events(&cfg, events, base);
        assert_eq!(
            format!("{offline:?}"),
            format!("{replayed:?}"),
            "{}: replay diverged from in-process generation",
            spec.name()
        );
    }
}

#[test]
fn batched_judging_is_bit_identical_to_serial_for_every_kernel() {
    for &spec in registry() {
        // The attacked stream for this kernel: heap churn, control flow
        // and its own declared attack kinds, so both the fast-reject
        // column scans and the exact slow paths of any `judge_batch`
        // override are exercised.
        let events = capture_events(&attacked_experiment(spec));
        let mut serial = spec.id().semantics();
        let mut batched = spec.id().semantics();
        let vbit = 5u8; // past the v1 nibble: the bit must be honored too
        let mut it = events.iter().copied();
        let mut batch = EventBatch::with_capacity(BATCH_EVENTS);
        let mut fired = 0u64;
        while batch.refill(&mut it, BATCH_EVENTS) > 0 {
            let mut out = std::mem::take(&mut batch.verdicts);
            batched.judge_batch(&batch, vbit, &mut out);
            for (i, t) in batch.events().iter().enumerate() {
                let want = if serial.judge(t) { 1u8 << vbit } else { 0 };
                assert_eq!(
                    out[i],
                    want,
                    "{}: batched verdict diverges from serial at seq {}",
                    spec.name(),
                    t.seq
                );
                fired += u64::from(out[i] != 0);
            }
            batch.verdicts = out;
        }
        assert!(
            fired > 0,
            "{}: attacked stream never fired — the axis tested nothing",
            spec.name()
        );
    }
}

// ---- all registered kernels at once (packet layout v2) ---------------------

#[test]
fn all_kernels_at_once_stay_silent_on_benign_traces() {
    let mut cfg = ExperimentConfig::new("dedup").insts(BENIGN_INSTS);
    cfg.kernels = registry()
        .iter()
        .map(|s| (s.id(), fireguard::soc::EngineConfig::Ucores(2)))
        .collect();
    assert!(cfg.kernels.len() > 4, "deployment exceeds the v1 nibble");
    let r = run_fireguard(&cfg);
    assert!(
        r.detections.is_empty(),
        "{} detections on a clean trace with all kernels",
        r.detections.len()
    );
    assert!(r.committed >= BENIGN_INSTS);
    assert_eq!(r.unclaimed_packets, 0);
}

#[test]
fn all_kernels_at_once_detect_and_attribute_per_slot() {
    let cfg = all_kernels_experiment();
    let r = run_fireguard(&cfg);
    assert!(!r.detections.is_empty(), "combined campaign undetected");
    // Every slot index must be a deployed kernel, and slots past the v1
    // verdict nibble (≥ 4) must actually fire — the 8-bit verdict field
    // carries them end-to-end.
    let n = cfg.kernels.len();
    assert!(r.detections.iter().all(|d| d.kernel_slot < n));
    assert!(
        r.detections.iter().any(|d| d.kernel_slot >= 4),
        "no detection attributed to a verdict bit beyond the v1 nibble"
    );
    for l in r.attack_latencies_ns() {
        assert!(l > 0.0 && l < 1e6, "implausible detection latency {l} ns");
    }
}

#[test]
fn all_kernels_at_once_are_deterministic_and_replay_identically() {
    let cfg = all_kernels_experiment();
    let a = run_fireguard(&cfg);
    let b = run_fireguard(&cfg);
    assert_eq!(format!("{a:?}"), format!("{b:?}"), "rerun diverged");
    let base = baseline_cycles(&cfg.workload, cfg.seed, cfg.insts);
    let events = capture_events(&cfg);
    let replayed = run_fireguard_events(&cfg, events, base);
    assert_eq!(
        format!("{a:?}"),
        format!("{replayed:?}"),
        "all-kernels replay diverged from in-process generation"
    );
}
