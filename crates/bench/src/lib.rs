//! Shared harness for the figure/table reproduction: environment-variable
//! configuration plus the [`figures`] drivers the `fireguard` CLI
//! dispatches into.
//!
//! Every entry point honours three environment variables:
//!
//! * `FG_INSTS` — instructions per run (default 120 000); an unparseable
//!   value is ignored with a warning on stderr;
//! * `FG_QUICK` — when set, drops to 30 000 instructions for smoke runs
//!   (takes precedence over `FG_INSTS`);
//! * `FG_JOBS` — worker threads for the sweep engine (default: available
//!   parallelism; see [`fireguard_soc::sweep::default_workers`]).
//!
//! The CLI's `--insts`, `--quick`, and `--jobs` flags override all three,
//! and a variable is read only where its flag is absent and the run uses
//! it: `FG_INSTS` / `FG_QUICK` when neither `--insts` nor `--quick` is
//! given, `FG_JOBS` when a figure or sweep runs its workers without
//! `--jobs` ([`figures::FigOpts::workers`]).
//!
//! The crate's `tests/alloc_contract.rs` enforces the simulator's
//! zero-allocation cycle loop and bounds a served session's heap.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;

/// Instructions for a smoke (`FG_QUICK`) run.
pub const QUICK_INSTS: u64 = 30_000;

/// Default instructions per simulation run.
pub const DEFAULT_INSTS: u64 = 120_000;

/// The standard seed used across figures (deterministic reproduction).
pub const SEED: u64 = 42;

/// Parses an `FG_INSTS` value; `Err` carries a stderr-ready warning.
///
/// Pure helper behind [`insts`], split out for testability (mirrors the
/// vendored proptest crate's `PROPTEST_SEED` handling).
pub fn parse_insts(raw: &str) -> Result<u64, String> {
    match raw.trim().parse::<u64>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!(
            "ignoring unparseable FG_INSTS={raw:?} (expected a positive integer); \
             using the default of {DEFAULT_INSTS}"
        )),
    }
}

/// Instructions per simulation run (see the crate docs for the env knobs).
///
/// An `FG_INSTS` value that does not parse as a positive integer is
/// ignored with a warning on stderr rather than silently dropped.
pub fn insts() -> u64 {
    if std::env::var_os("FG_QUICK").is_some() {
        return QUICK_INSTS;
    }
    match std::env::var("FG_INSTS") {
        Ok(raw) => match parse_insts(&raw) {
            Ok(n) => n,
            Err(msg) => {
                eprintln!("warning: {msg}");
                DEFAULT_INSTS
            }
        },
        Err(std::env::VarError::NotPresent) => DEFAULT_INSTS,
        Err(std::env::VarError::NotUnicode(_)) => {
            eprintln!(
                "warning: ignoring non-unicode FG_INSTS; using the default of {DEFAULT_INSTS}"
            );
            DEFAULT_INSTS
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insts_respects_quick_env() {
        // Only checks the default path deterministically.
        if std::env::var_os("FG_QUICK").is_none() && std::env::var("FG_INSTS").is_err() {
            assert_eq!(insts(), DEFAULT_INSTS);
        }
    }

    #[test]
    fn insts_parse_accepts_positive_integers() {
        assert_eq!(parse_insts("2000"), Ok(2000));
        assert_eq!(parse_insts(" 42 "), Ok(42));
    }

    #[test]
    fn insts_parse_rejects_junk_with_a_warning() {
        for bad in ["", "0", "-5", "12k", "1e6", "banana"] {
            let err = parse_insts(bad).expect_err(bad);
            assert!(err.contains("FG_INSTS"), "warning names the variable");
            assert!(err.contains("120000") || err.contains(bad));
        }
    }
}
