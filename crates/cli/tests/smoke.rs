//! Smoke + parity tests for every figure and table of the registry.
//!
//! Each figure's full experiment takes minutes; these run the *same code
//! paths* end-to-end at a tiny instruction budget (`FG_INSTS=2000`) so a
//! plain `cargo test` catches panics, bad table plumbing, and experiment
//! wiring regressions in every figure without the full workloads.
//!
//! Each test invokes `fireguard <alias>`, where the alias is the figure's
//! snake_case [`Figure::bin`](fireguard_bench::figures::Figure::bin)
//! name, with the budget taken from the environment. Beyond not crashing,
//! its stdout must be **byte-identical** to rendering the corresponding
//! [`fireguard_bench::figures`] driver in-process.

use fireguard_bench::figures::{find, FigOpts};
use fireguard_bench::SEED;
use fireguard_soc::{render_to_string, Format};
use std::process::Command;

const SMOKE_INSTS: u64 = 2000;

fn smoke(alias: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_fireguard"))
        .arg(alias)
        .env("FG_INSTS", SMOKE_INSTS.to_string())
        .env_remove("FG_QUICK")
        .env_remove("FG_JOBS")
        .output()
        .expect("failed to spawn the fireguard binary");
    assert!(
        out.status.success(),
        "fireguard {alias} exited with {:?}\nstderr:\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.lines().count() >= 3,
        "fireguard {alias} produced suspiciously little output:\n{stdout}"
    );

    // Parity: the CLI must print exactly what the registry driver renders
    // in-process (workers do not matter; sweeps are re-ordered).
    let fig = find(alias).unwrap_or_else(|| panic!("{alias} not in the figure registry"));
    assert_eq!(fig.bin, alias, "{alias} is not a figure's snake_case alias");
    let opts = FigOpts {
        insts: SMOKE_INSTS,
        seed: SEED,
        workers: Some(4),
    };
    let expected = render_to_string(&(fig.run)(&opts), Format::Human);
    assert_eq!(
        stdout, expected,
        "fireguard {alias} diverged from the in-process figure driver"
    );
}

macro_rules! smoke_tests {
    ($($name:ident),+ $(,)?) => {$(
        #[test]
        fn $name() {
            smoke(stringify!($name).trim_end_matches("_smokes"));
        }
    )+};
}

smoke_tests! {
    fig7a_smokes,
    fig7b_smokes,
    fig8_smokes,
    fig9_smokes,
    fig10_smokes,
    fig11_smokes,
    table2_smokes,
    table3_smokes,
    area_smokes,
    isax_ablation_smokes,
    mapper_ablation_smokes,
}
