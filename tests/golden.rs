//! Golden-value regression tests.
//!
//! The simulator is deterministic: the same `ExperimentConfig` must produce
//! bit-identical cycle counts, packet counts, and slowdowns on every machine
//! and in every profile. These tests pin one small run per guardian kernel
//! so that *silent* simulator drift — a timing-model tweak that shifts
//! results without breaking any behavioural test — fails loudly.
//!
//! If a change intentionally alters timing, update the constants below in
//! the same commit and call the change out in the PR description.

use fireguard::kernels::KernelId;
use fireguard::soc::{
    baseline_cycles, build_system_auto, run_fireguard, EngineCounters, ExperimentConfig, RunResult,
};
use fireguard::trace::{AttackKind, AttackPlan};

/// 10k instructions of swaptions, kernel on 4 µcores, trace seed 42.
fn run(kind: KernelId) -> RunResult {
    let cfg = ExperimentConfig::new("swaptions")
        .kernel(kind, 4)
        .insts(10_000)
        .seed(42);
    run_fireguard(&cfg)
}

struct Golden {
    kind: KernelId,
    committed: u64,
    cycles: u64,
    baseline_cycles: u64,
    packets: u64,
    slowdown_milli: u64,
}

/// Paper-kernel rows captured 2026-07-30 from the seed simulator
/// (identical in dev/release) and untouched since; taint/MTE rows
/// captured from the PR-5 plugin layer the day it landed.
const GOLDEN: &[Golden] = &[
    Golden {
        kind: KernelId::PMC,
        committed: 10_001,
        cycles: 7_484,
        baseline_cycles: 7_484,
        packets: 2_611,
        slowdown_milli: 1_000,
    },
    Golden {
        kind: KernelId::SHADOW_STACK,
        committed: 10_001,
        cycles: 7_484,
        baseline_cycles: 7_484,
        packets: 655,
        slowdown_milli: 1_000,
    },
    Golden {
        kind: KernelId::ASAN,
        committed: 10_002,
        cycles: 11_470,
        baseline_cycles: 7_484,
        packets: 3_266,
        slowdown_milli: 1_532,
    },
    Golden {
        kind: KernelId::UAF,
        committed: 10_000,
        cycles: 9_047,
        baseline_cycles: 7_484,
        packets: 3_266,
        slowdown_milli: 1_208,
    },
    // The two post-paper plugin kernels (PR 5). Their packet stream is the
    // ASan/UaF mem+ctrl subscription, so `packets` matches those kernels
    // exactly; only the µcore-side timing differs.
    Golden {
        kind: KernelId::TAINT,
        committed: 10_003,
        cycles: 11_483,
        baseline_cycles: 7_484,
        packets: 3_266,
        slowdown_milli: 1_534,
    },
    Golden {
        kind: KernelId::MTE,
        committed: 10_002,
        cycles: 9_454,
        baseline_cycles: 7_484,
        packets: 3_266,
        slowdown_milli: 1_263,
    },
];

#[test]
fn golden_per_kernel_runs_are_pinned() {
    for g in GOLDEN {
        let r = run(g.kind);
        assert_eq!(r.committed, g.committed, "{:?}: committed drifted", g.kind);
        assert_eq!(r.cycles, g.cycles, "{:?}: cycles drifted", g.kind);
        assert_eq!(
            r.baseline_cycles, g.baseline_cycles,
            "{:?}: baseline cycles drifted",
            g.kind
        );
        assert_eq!(r.packets, g.packets, "{:?}: packet count drifted", g.kind);
        assert_eq!(
            (r.slowdown * 1000.0) as u64,
            g.slowdown_milli,
            "{:?}: slowdown drifted ({:.6})",
            g.kind,
            r.slowdown
        );
        assert_eq!(
            r.unclaimed_packets, 0,
            "{:?}: packets lost their subscriber",
            g.kind
        );
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV digests of the run's `CoreStats` and `EngineCounters` (their
/// `Debug` renderings, so every field counts). The `pipeline_*` counters
/// are wall-clock artifacts of the threaded stages and are zeroed first.
fn stats_digests(cfg: &ExperimentConfig) -> (u64, u64) {
    let base = baseline_cycles(&cfg.workload, cfg.seed, cfg.insts);
    let mut sys = build_system_auto(cfg);
    sys.run_insts(cfg.insts, base);
    let counters = EngineCounters {
        pipeline_width: 0,
        pipeline_gen_stalls: 0,
        pipeline_judge_stalls: 0,
        pipeline_core_waits: 0,
        pipeline_batches: 0,
        ..sys.telemetry()
    };
    (
        fnv1a(format!("{:?}", sys.core_stats()).as_bytes()),
        fnv1a(format!("{counters:?}").as_bytes()),
    )
}

/// The stats-digest rows: the six per-kernel runs above, a saturated
/// system (dedup, ASan on 4 µcores, an out-of-bounds campaign — most
/// commit offers refused) and a 1-wide filter. Captured before the
/// cycle loop's frozen-cycle fast-forward existed, so they pin every
/// counter it bulk-accounts: stall cycles, filter offers and refusals,
/// slow edges, mapper occupancy, µcore idle cycles.
fn stats_rows() -> Vec<(&'static str, ExperimentConfig, u64, u64)> {
    let per_kernel = |kind| {
        ExperimentConfig::new("swaptions")
            .kernel(kind, 4)
            .insts(10_000)
            .seed(42)
    };
    vec![
        (
            "pmc",
            per_kernel(KernelId::PMC),
            0xe90a_8f86_7c2a_a8df,
            0xf0d3_4ca6_14de_9a1b,
        ),
        (
            "shadow-stack",
            per_kernel(KernelId::SHADOW_STACK),
            0xa878_e44a_a893_2e48,
            0xeb5f_d770_4173_6bee,
        ),
        (
            "asan",
            per_kernel(KernelId::ASAN),
            0x1085_3ba7_b990_9d33,
            0x43a9_ff2e_d21e_c934,
        ),
        (
            "uaf",
            per_kernel(KernelId::UAF),
            0xe633_a743_5472_8575,
            0xa7be_3790_105c_f1d4,
        ),
        (
            "taint",
            per_kernel(KernelId::TAINT),
            0x7cda_07b7_3276_d6d1,
            0xdb05_bba7_93aa_f6c1,
        ),
        (
            "mte",
            per_kernel(KernelId::MTE),
            0x18cb_763f_e9a2_a9a5,
            0xe5d3_295b_bb0c_afcd,
        ),
        (
            "asan-saturated",
            ExperimentConfig::new("dedup")
                .kernel(KernelId::ASAN, 4)
                .insts(20_000)
                .seed(21)
                .attacks(AttackPlan::campaign(
                    &[AttackKind::OutOfBounds],
                    8,
                    400,
                    19_600,
                    7,
                )),
            0x7f62_dab4_f737_bf33,
            0x3e50_d7d0_f3d8_7cca,
        ),
        (
            "asan-filter-w1",
            per_kernel(KernelId::ASAN).filter_width(1),
            0x3313_04e2_d018_fc1d,
            0x4f39_dfa2_2337_a7ac,
        ),
    ]
}

#[test]
fn golden_stats_digests_are_pinned() {
    // Digest every row before asserting, so a deliberate re-pin sees all
    // the new values in one run (`-- --nocapture`).
    let rows: Vec<_> = stats_rows()
        .into_iter()
        .map(|(name, cfg, core, engine)| (name, stats_digests(&cfg), (core, engine)))
        .collect();
    for (name, (core, engine), _) in &rows {
        println!("{name}: core {core:#018x} engine {engine:#018x}");
    }
    for (name, got, want) in rows {
        assert_eq!(got.0, want.0, "{name}: CoreStats drifted ({:#018x})", got.0);
        assert_eq!(
            got.1, want.1,
            "{name}: EngineCounters drifted ({:#018x})",
            got.1
        );
    }
}

#[test]
fn golden_run_is_reproducible_within_process() {
    let a = run(KernelId::ASAN);
    let b = run(KernelId::ASAN);
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.packets, b.packets);
    assert_eq!(a.slowdown.to_bits(), b.slowdown.to_bits());
}
