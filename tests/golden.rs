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
//!
//! The same runs also pin their [`HostWork`]: how many fast cycles were
//! stepped one at a time, how many frozen stretches were skipped, how
//! many slow edges ran fabric work and how many BOOM issue scans ran.
//! These counts are exact too, so a change that breaks a fast path fails
//! here by name even when every simulated count stays put. A
//! deliberate fast-path change re-pins them, with a note in CHANGES.md.

use fireguard::boom::{BoomConfig, Core, NullSink};
use fireguard::kernels::KernelId;
use fireguard::soc::{
    baseline_cycles, build_system_auto, registry, run_fireguard, ExperimentConfig, HostWork,
    RunResult,
};
use fireguard::trace::{AttackKind, AttackPlan, TraceGenerator, WorkloadProfile};
use std::sync::OnceLock;

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

/// What one stats row's run produced: FNV digests of its `CoreStats`
/// and `EngineCounters` (their `Debug` renderings, so every field
/// counts) and the host work it cost.
type RowRun = (u64, u64, HostWork);

fn stats_run(cfg: &ExperimentConfig) -> RowRun {
    let base = baseline_cycles(&cfg.workload, cfg.seed, cfg.insts);
    let mut sys = build_system_auto(cfg);
    sys.run_insts(cfg.insts, base);
    (
        fnv1a(format!("{:?}", sys.core_stats()).as_bytes()),
        fnv1a(format!("{:?}", sys.telemetry()).as_bytes()),
        sys.host_work(),
    )
}

/// A pinned row: name, configuration, `CoreStats` digest,
/// `EngineCounters` digest and host work.
type StatsRow = (&'static str, ExperimentConfig, u64, u64, HostWork);

fn work(steps: u64, skips: u64, slow_edges_run: u64, issue_scans: u64) -> HostWork {
    HostWork {
        steps,
        skips,
        slow_edges_run,
        issue_scans,
    }
}

/// The stats rows: the six per-kernel runs above, a saturated system
/// (dedup, ASan on 4 µcores, an out-of-bounds campaign — most commit
/// offers refused), a 1-wide filter, PMC on a hardware accelerator and
/// every registered kernel deployed at once. The first eight digests
/// were captured before the cycle loop's frozen-cycle fast-forward
/// existed, so they pin every counter it bulk-accounts: stall cycles,
/// filter offers and refusals, slow edges, mapper occupancy, µcore idle
/// cycles.
fn stats_rows() -> Vec<StatsRow> {
    let per_kernel = |kind| {
        ExperimentConfig::new("swaptions")
            .kernel(kind, 4)
            .insts(10_000)
            .seed(42)
    };
    let all_kernels = registry().iter().fold(
        ExperimentConfig::new("dedup").insts(10_000).seed(42),
        |cfg, spec| cfg.kernel(spec.id(), 2),
    );
    vec![
        (
            "pmc",
            per_kernel(KernelId::PMC),
            0xe90a_8f86_7c2a_a8df,
            0xe191_75d4_3816_9ab5,
            work(7_484, 0, 2_977, 4_551),
        ),
        (
            "shadow-stack",
            per_kernel(KernelId::SHADOW_STACK),
            0xa878_e44a_a893_2e48,
            0x8c96_16aa_5afe_c18c,
            work(7_484, 0, 2_820, 4_552),
        ),
        (
            "asan",
            per_kernel(KernelId::ASAN),
            0x1085_3ba7_b990_9d33,
            0x29d2_926a_174b_5406,
            work(9_259, 1_375, 5_412, 5_165),
        ),
        (
            "uaf",
            per_kernel(KernelId::UAF),
            0xe633_a743_5472_8575,
            0x1ca5_7474_4559_efa6,
            work(8_332, 534, 4_527, 5_023),
        ),
        (
            "taint",
            per_kernel(KernelId::TAINT),
            0x7cda_07b7_3276_d6d1,
            0x88b3_5e1d_9dd8_81cf,
            work(9_288, 1_350, 5_407, 5_215),
        ),
        (
            "mte",
            per_kernel(KernelId::MTE),
            0x18cb_763f_e9a2_a9a5,
            0x7959_f6ad_00e4_5623,
            work(8_680, 733, 4_817, 5_119),
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
            0xac7d_39a0_91df_8dd0,
            work(36_907, 12_783, 25_479, 9_640),
        ),
        (
            "asan-filter-w1",
            per_kernel(KernelId::ASAN).filter_width(1),
            0x3313_04e2_d018_fc1d,
            0x2937_fc72_f7dc_bece,
            work(11_751, 394, 5_894, 7_411),
        ),
        (
            "pmc-ha",
            ExperimentConfig::new("x264")
                .kernel_ha(KernelId::PMC)
                .insts(10_000)
                .seed(42),
            0x442d_2c92_0e58_cb15,
            0x0491_ca27_d6f9_1296,
            work(9_914, 0, 2_825, 3_822),
        ),
        (
            "all-kernels",
            all_kernels,
            0x5096_2eae_3337_04a2,
            0x5e64_a308_00eb_ece1,
            work(27_214, 15_122, 21_607, 5_170),
        ),
    ]
}

/// Every stats row with its run, simulated once for both tests below.
/// Every row runs before either test asserts, so a deliberate re-pin
/// sees all the new values in one run (`-- --nocapture`).
fn stats_runs() -> &'static [(StatsRow, RowRun)] {
    static RUNS: OnceLock<Vec<(StatsRow, RowRun)>> = OnceLock::new();
    RUNS.get_or_init(|| {
        stats_rows()
            .into_iter()
            .map(|row| {
                let run = stats_run(&row.1);
                (row, run)
            })
            .collect()
    })
}

#[test]
fn golden_stats_digests_are_pinned() {
    let runs = stats_runs();
    for ((name, ..), (core, engine, _)) in runs {
        println!("{name}: core {core:#018x} engine {engine:#018x}");
    }
    for ((name, _, core, engine, _), got) in runs {
        assert_eq!(got.0, *core, "{name}: CoreStats drifted ({:#018x})", got.0);
        assert_eq!(
            got.1, *engine,
            "{name}: EngineCounters drifted ({:#018x})",
            got.1
        );
    }
}

/// The bare-core row: `(cycles, issue scans)` of swaptions, 10k
/// instructions, seed 42, on a BOOM core alone, the golden baseline.
const BARE_CORE: (u64, u64) = (7_484, 4_552);

#[test]
fn golden_host_work_is_pinned() {
    let profile = WorkloadProfile::parsec("swaptions").expect("known workload");
    let mut core = Core::new(BoomConfig::default(), TraceGenerator::new(profile, 42));
    let bare = (
        core.run_insts(10_000, &mut NullSink).cycles,
        core.issue_scans(),
    );
    let runs = stats_runs();
    for ((name, ..), (.., got)) in runs {
        println!("{name}: {got:?}");
    }
    println!("bare-core: cycles {} issue_scans {}", bare.0, bare.1);

    // Name every counter that drifted, in every row, in one message.
    let mut drift = Vec::new();
    let mut check = |row: &str, counter: &str, got: u64, want: u64| {
        if got != want {
            drift.push(format!(
                "{row}: `{counter}` drifted to {got} (pinned {want})"
            ));
        }
    };
    for ((name, .., want), (.., got)) in runs {
        check(name, "steps", got.steps, want.steps);
        check(name, "skips", got.skips, want.skips);
        check(
            name,
            "slow_edges_run",
            got.slow_edges_run,
            want.slow_edges_run,
        );
        check(name, "issue_scans", got.issue_scans, want.issue_scans);
    }
    check("bare-core", "cycles", bare.0, BARE_CORE.0);
    check("bare-core", "issue_scans", bare.1, BARE_CORE.1);
    assert!(drift.is_empty(), "host work drifted:\n{}", drift.join("\n"));
}

#[test]
fn golden_run_is_reproducible_within_process() {
    let a = run(KernelId::ASAN);
    let b = run(KernelId::ASAN);
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.packets, b.packets);
    assert_eq!(a.slowdown.to_bits(), b.slowdown.to_bits());
}
