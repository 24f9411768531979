//! The `fireguard bench` subcommand: run the performance-scenario
//! registry, render a report, optionally write a `BENCH_*.json` baseline
//! (`--out`), and optionally gate against a committed one (`--check`).

use crate::args::Parsed;
use fireguard_bench::perf::{self, PerfOpts};
use fireguard_soc::render;

/// Runs `fireguard bench`; returns the process exit code.
pub fn bench_cmd(p: &Parsed) -> i32 {
    let env = PerfOpts::from_env();
    let opts = PerfOpts {
        insts: p.insts.unwrap_or(if p.quick {
            fireguard_bench::QUICK_INSTS
        } else {
            env.insts
        }),
        seed: p.seed.unwrap_or(env.seed),
        workers: p.jobs.unwrap_or(env.workers),
        warmup: p.warmup.unwrap_or(env.warmup),
        samples: p.samples.unwrap_or(env.samples),
    };
    if p.profile {
        // The profile is a focused stage-attribution report, not a scenario
        // run: the baseline/gate machinery doesn't apply to it.
        for (flag, given) in [
            ("--scenario", p.scenarios.is_some()),
            ("--out", p.out.is_some()),
            ("--baseline", p.baseline.is_some()),
            ("--check", p.check.is_some()),
        ] {
            if given {
                eprintln!("fireguard: {flag} does not combine with bench --profile");
                return 2;
            }
        }
        let report = perf::profile_report(&opts);
        let stdout = std::io::stdout();
        return match render(&report, p.format, &mut stdout.lock()) {
            Ok(()) => 0,
            Err(e) => {
                eprintln!("fireguard: writing output failed: {e}");
                1
            }
        };
    }

    let names: Vec<String> = p
        .scenarios
        .as_deref()
        .map(|csv| csv.split(',').map(|s| s.trim().to_owned()).collect())
        .unwrap_or_default();

    let results = match perf::run_scenarios(&opts, &names) {
        Ok(r) => r,
        Err(msg) => {
            eprintln!("fireguard: {msg}");
            return 2;
        }
    };

    // Baseline events/s to embed in --out and the speedup column: --baseline
    // takes precedence; otherwise the --check file doubles as the reference.
    let reference = p.baseline.as_deref().or(p.check.as_deref());
    let baseline = match reference {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(json) => {
                let b = perf::parse_baseline(&json);
                if b.is_empty() {
                    eprintln!("fireguard: no scenarios found in {path}");
                    return 2;
                }
                Some(b)
            }
            Err(e) => {
                eprintln!("fireguard: cannot read {path}: {e}");
                return 2;
            }
        },
        None => None,
    };

    let report = perf::report(&opts, &results, baseline.as_deref());
    let stdout = std::io::stdout();
    if let Err(e) = render(&report, p.format, &mut stdout.lock()) {
        eprintln!("fireguard: writing output failed: {e}");
        return 1;
    }

    if let Some(path) = p.out.as_deref() {
        let json = perf::to_json(&opts, &results, baseline.as_deref());
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("fireguard: cannot write {path}: {e}");
            return 1;
        }
        eprintln!("fireguard: wrote {path}");
    }

    if let Some(path) = p.check.as_deref() {
        // The gate always compares against the --check file itself, even
        // when a different --baseline was embedded in the report above.
        let gate = match std::fs::read_to_string(path) {
            Ok(json) => {
                // A baseline recorded on a host with a different CPU count
                // is still a legal gate (events/s tolerates 10% noise), but
                // the comparison must be visible, never silent.
                if let Some(bc) = perf::parse_host_meta(&json) {
                    if bc != perf::host_cpus() {
                        eprintln!(
                            "fireguard: note: {path} was recorded on {bc} host cpus; \
                             this run is on {}",
                            perf::host_cpus()
                        );
                    }
                }
                perf::parse_baseline(&json)
            }
            Err(e) => {
                eprintln!("fireguard: cannot read {path}: {e}");
                return 2;
            }
        };
        if let Err(msg) = perf::check_against(&results, &gate) {
            eprintln!("fireguard: bench regression gate FAILED:\n{msg}");
            return 1;
        }
        eprintln!("fireguard: bench regression gate passed");
    }
    0
}
