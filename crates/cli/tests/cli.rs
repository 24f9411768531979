//! End-to-end tests for the `fireguard` binary.
//!
//! The golden anchor is shared with `tests/smoke.rs`: `fireguard <figure>`
//! must print exactly what the in-process figure driver renders, byte for
//! byte. This suite checks it through the `--insts`/`--jobs` flags; the
//! smoke suite checks every figure through its snake_case alias and
//! `FG_INSTS`.

use fireguard_bench::figures::{find, FigOpts};
use fireguard_bench::SEED;
use fireguard_soc::{render_to_string, Format};
use std::process::{Command, Output};

const SMOKE_INSTS: u64 = 2000;

fn fireguard(args: &[&str]) -> Output {
    fireguard_with(&[], args)
}

/// `fireguard` with exactly the `FG_*` variables in `env` set.
fn fireguard_with(env: &[(&str, &str)], args: &[&str]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_fireguard"));
    for unset in ["FG_INSTS", "FG_QUICK", "FG_JOBS"] {
        cmd.env_remove(unset);
    }
    cmd.args(args)
        .envs(env.iter().copied())
        .output()
        .expect("failed to spawn the fireguard binary")
}

fn stdout_of(out: &Output) -> String {
    assert!(
        out.status.success(),
        "fireguard exited with {:?}\nstderr:\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn list_names_every_figure() {
    let out = stdout_of(&fireguard(&["list"]));
    for name in [
        "fig7a",
        "fig7b",
        "fig8",
        "fig9",
        "fig10",
        "fig11",
        "table2",
        "table3",
        "area",
        "isax-ablation",
        "mapper-ablation",
        "sweep",
    ] {
        assert!(out.contains(name), "list output is missing {name}:\n{out}");
    }
    assert!(
        !out.contains("bench"),
        "list names a removed subcommand:\n{out}"
    );
}

#[test]
fn figure_subcommand_matches_registry_driver() {
    // The same golden anchor smoke.rs holds every figure to.
    let out = stdout_of(&fireguard(&["fig7a", "--insts", "2000", "--jobs", "4"]));
    let opts = FigOpts {
        insts: SMOKE_INSTS,
        seed: SEED,
        workers: Some(2),
    };
    let expected = render_to_string(&(find("fig7a").unwrap().run)(&opts), Format::Human);
    assert_eq!(out, expected, "CLI fig7a diverged from the figure driver");
}

#[test]
fn static_tables_render() {
    for name in ["table2", "table3", "area"] {
        let out = stdout_of(&fireguard(&[name]));
        assert!(out.lines().count() >= 3, "{name} output too short:\n{out}");
    }
}

#[test]
fn parallel_sweep_is_byte_identical_to_sequential() {
    let base = ["fig7a", "--insts", "2000"];
    let seq = stdout_of(&fireguard(&[&base[..], &["--jobs", "1"]].concat()));
    let par = stdout_of(&fireguard(&[&base[..], &["--jobs", "4"]].concat()));
    assert_eq!(seq, par, "--jobs must not change output bytes");

    let sweep = [
        "sweep",
        "--workloads",
        "swaptions,ferret",
        "--kernel",
        "pmc,ss",
        "--ucores",
        "2,4",
        "--insts",
        "2000",
    ];
    let seq = stdout_of(&fireguard(&[&sweep[..], &["--jobs", "1"]].concat()));
    let par = stdout_of(&fireguard(&[&sweep[..], &["--jobs", "4"]].concat()));
    assert_eq!(seq, par, "sweep --jobs must not change output bytes");
    assert!(seq.contains("swaptions") && seq.contains("Shadow"));
}

#[test]
fn new_kernel_plugins_sweep_through_the_cli() {
    // The registry's post-paper plugins drive the same sweep machinery as
    // the paper kernels, straight from `--kernel` names.
    let sweep = [
        "sweep",
        "--workloads",
        "dedup",
        "--kernel",
        "taint,mte",
        "--ucores",
        "4",
        "--insts",
        "2000",
        "--format",
        "jsonl",
    ];
    let out = stdout_of(&fireguard(&sweep));
    for label in ["\"kernel\":\"Taint\"", "\"kernel\":\"MTE\""] {
        assert!(
            out.contains(label),
            "sweep output is missing {label}:\n{out}"
        );
    }
    let again = stdout_of(&fireguard(&sweep));
    assert_eq!(out, again, "new-kernel sweeps are deterministic");
}

#[test]
fn sweep_kernel_all_deploys_the_full_registry_in_one_system() {
    // `--kernel all` collapses the kernel axis: every registered kernel
    // rides in a single system per workload (the layout-v2 wide-verdict
    // deployment), with the engine split defaulted to fit the fabric.
    let sweep = [
        "sweep",
        "--workloads",
        "dedup",
        "--kernel",
        "all",
        "--insts",
        "2000",
        "--format",
        "jsonl",
        "--jobs",
        "1",
    ];
    let out = stdout_of(&fireguard(&sweep));
    let row = out
        .lines()
        .find(|l| l.contains("\"kernel\""))
        .expect("sweep emitted no data row");
    for spec in fireguard_soc::registry() {
        assert!(
            row.contains(spec.name()),
            "combined sweep row is missing {}:\n{row}",
            spec.name()
        );
    }
    assert_eq!(
        out.lines().filter(|l| l.contains("\"kernel\"")).count(),
        1,
        "combined sweep must produce one system, not one per kernel:\n{out}"
    );
    let again = stdout_of(&fireguard(&sweep));
    assert_eq!(out, again, "combined sweeps are deterministic");

    // An explicit engine split that overflows the fabric is a clean
    // pre-flight error, not a mid-sweep panic.
    let too_big = fireguard(&[
        "sweep",
        "--workloads",
        "dedup",
        "--kernel",
        "all",
        "--ucores",
        "4",
        "--insts",
        "2000",
    ]);
    assert_eq!(too_big.status.code(), Some(2));
    let err = String::from_utf8_lossy(&too_big.stderr);
    assert!(
        err.contains("does not fit") && err.contains("engines requested"),
        "expected a capacity error, got:\n{err}"
    );
}

#[test]
fn list_enumerates_the_kernel_registry() {
    for format in ["human", "jsonl"] {
        let out = stdout_of(&fireguard(&["list", "--format", format]));
        for name in ["pmc", "shadow-stack", "asan", "uaf", "taint", "mte"] {
            assert!(
                out.contains(name),
                "{format} list is missing {name}:\n{out}"
            );
        }
    }
}

#[test]
fn alternative_formats_emit_structured_rows() {
    let jsonl = stdout_of(&fireguard(&[
        "sweep",
        "--workloads",
        "swaptions",
        "--kernel",
        "pmc",
        "--ucores",
        "2",
        "--insts",
        "2000",
        "--format",
        "jsonl",
    ]));
    let row = jsonl
        .lines()
        .find(|l| l.contains("\"type\":\"row\""))
        .expect("jsonl output has a row");
    assert!(
        row.starts_with('{') && row.ends_with('}'),
        "row is a JSON object: {row}"
    );
    assert!(row.contains("\"workload\":\"swaptions\""));
    assert!(row.contains("\"slowdown\":"));

    let csv = stdout_of(&fireguard(&["table3", "--format", "csv"]));
    let header = csv
        .lines()
        .find(|l| l.starts_with("core,"))
        .expect("csv output has a header row");
    assert!(header.contains("#ucores"));
}

#[test]
fn kebab_and_snake_subcommand_names_both_work() {
    let kebab = stdout_of(&fireguard(&["isax-ablation", "--insts", "2000"]));
    let snake = stdout_of(&fireguard(&["isax_ablation", "--insts", "2000"]));
    assert_eq!(kebab, snake);
}

#[test]
fn errors_exit_2_with_a_message() {
    let out = fireguard(&["fig99"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown subcommand"));

    // The performance-scenario harness is gone; perfbench replaced it.
    let out = fireguard(&["bench"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown subcommand \"bench\""));

    let out = fireguard(&["sweep", "--kernel", "rowhammer", "--insts", "2000"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown kernel"));

    let out = fireguard(&["fig7a", "--jobs", "0"]);
    assert_eq!(out.status.code(), Some(2));

    // Sweep-only flags on a figure subcommand are rejected, not ignored.
    let out = fireguard(&["fig10", "--ucores", "8,12", "--insts", "2000"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--ucores"));
}

#[test]
fn list_jsonl_is_a_machine_readable_registry() {
    let out = stdout_of(&fireguard(&["list", "--format", "jsonl"]));
    for name in ["fig7a", "table3", "sweep", "serve", "client", "loadgen"] {
        let row = out
            .lines()
            .find(|l| l.contains(&format!("\"name\":\"{name}\"")))
            .unwrap_or_else(|| panic!("no jsonl row for {name}:\n{out}"));
        assert!(row.starts_with('{') && row.ends_with('}'), "row: {row}");
        assert!(row.contains("\"summary\":"), "row: {row}");
    }
    // trace record/replay appear as rows too.
    assert!(out.contains("\"name\":\"trace record\""));
    assert!(out.contains("\"name\":\"trace replay\""));
    assert!(!out.contains("\"name\":\"bench\""));
}

#[test]
fn trace_record_then_replay_is_deterministic() {
    let dir = std::env::temp_dir().join(format!("fgt-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let fgt = dir.join("swaptions.fgt");
    let fgt_s = fgt.to_str().unwrap();

    let rec = stdout_of(&fireguard(&[
        "trace",
        "record",
        "--workload",
        "swaptions",
        "--insts",
        "2000",
        "--out",
        fgt_s,
    ]));
    assert!(rec.contains("swaptions"), "record output:\n{rec}");

    let replay = [
        "trace", "replay", "--trace", fgt_s, "--kernel", "pmc", "--ucores", "2", "--format",
        "jsonl",
    ];
    let a = stdout_of(&fireguard(&replay));
    let b = stdout_of(&fireguard(&replay));
    assert_eq!(a, b, "replay must be deterministic");
    assert!(a.contains("\"workload\":\"swaptions\""));
    assert!(a.contains("\"cycles\":"));

    let _ = std::fs::remove_dir_all(&dir);
}

/// `--kernel all` replays every registered kernel in one session — the
/// packet-layout-v2 deployment — and a config that oversubscribes the
/// engine budget is a clean CLI error, not a panic.
#[test]
fn replay_runs_all_registered_kernels_at_once() {
    let dir = std::env::temp_dir().join(format!("fgt-all-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let fgt = dir.join("dedup.fgt");
    let fgt_s = fgt.to_str().unwrap();
    stdout_of(&fireguard(&[
        "trace",
        "record",
        "--workload",
        "dedup",
        "--insts",
        "2000",
        "--out",
        fgt_s,
    ]));

    let replay = [
        "trace", "replay", "--trace", fgt_s, "--kernel", "all", "--format", "jsonl",
    ];
    let a = stdout_of(&fireguard(&replay));
    let b = stdout_of(&fireguard(&replay));
    assert_eq!(a, b, "all-kernels replay must be deterministic");
    // The engine label names every registered kernel joined with '+'.
    let names = fireguard_soc::registry()
        .iter()
        .map(|s| s.name())
        .collect::<Vec<_>>()
        .join("+");
    assert!(names.matches('+').count() >= 5, "registry holds 6 kernels");
    for s in fireguard_soc::registry() {
        assert!(a.contains(s.name()), "missing {} in:\n{a}", s.name());
    }

    // Oversubscribed: 6 kernels x 4 µcores = 24 engines > the fabric's 16.
    let out = fireguard(&[
        "trace", "replay", "--trace", fgt_s, "--kernel", "all", "--ucores", "4",
    ]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("invalid session config"), "stderr:\n{err}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_client_loopback_matches_replay() {
    use std::io::BufRead;

    let dir = std::env::temp_dir().join(format!("fgt-loop-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let fgt = dir.join("ferret.fgt");
    let fgt_s = fgt.to_str().unwrap();
    stdout_of(&fireguard(&[
        "trace",
        "record",
        "--workload",
        "ferret",
        "--insts",
        "2000",
        "--attacks",
        "ret-hijack",
        "--attack-count",
        "4",
        "--attack-start",
        "200",
        "--attack-end",
        "1800",
        "--out",
        fgt_s,
    ]));

    let session_cfg = ["--kernel", "ss", "--ucores", "4", "--format", "jsonl"];
    let replay = stdout_of(&fireguard(
        &[&["trace", "replay", "--trace", fgt_s], &session_cfg[..]].concat(),
    ));
    let replay_row = replay
        .lines()
        .find(|l| l.contains("\"type\":\"row\""))
        .expect("replay emits a row");

    // Start a one-session service on an ephemeral port; it prints the
    // bound address on stdout, then exits once the session budget is spent.
    let mut serve = std::process::Command::new(env!("CARGO_BIN_EXE_fireguard"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "1",
            "--max-sessions",
            "1",
        ])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("serve spawns");
    let mut first_line = String::new();
    {
        let out = serve.stdout.as_mut().expect("piped stdout");
        std::io::BufReader::new(out)
            .read_line(&mut first_line)
            .expect("serve announces its address");
    }
    let addr = first_line
        .split_whitespace()
        .find(|w| w.starts_with("127.0.0.1:"))
        .expect("address in announcement")
        .to_owned();

    let client = stdout_of(&fireguard(
        &[
            &["client", "--addr", &addr, "--trace", fgt_s],
            &session_cfg[..],
        ]
        .concat(),
    ));
    let status = serve.wait().expect("serve exits after its session budget");
    assert!(status.success());

    let client_row = client
        .lines()
        .find(|l| l.contains("\"type\":\"row\""))
        .expect("client emits a row");
    // The served session must report the same cycles/packets/detections as
    // the offline replay of the same recording (jsonl rows share keys).
    for key in [
        "\"cycles\":",
        "\"packets\":",
        "\"detections\":",
        "\"slowdown\":",
    ] {
        let field = |row: &str| {
            let at = row.find(key).unwrap_or_else(|| panic!("{key} in {row}"));
            row[at..]
                .chars()
                .take_while(|c| *c != ',' && *c != '}')
                .collect::<String>()
        };
        assert_eq!(field(client_row), field(replay_row), "{key} diverged");
    }
    assert!(
        !client_row.contains("\"detections\":0,"),
        "the campaign must raise detections: {client_row}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_subcommand_errors_are_actionable() {
    let out = fireguard(&["trace"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("record"));

    let out = fireguard(&["trace", "record", "--insts", "2000"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--workload"));

    let out = fireguard(&["trace", "replay", "--trace", "/nonexistent.fgt"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot open"));

    // Out-of-scope flags are rejected for the service commands too.
    let out = fireguard(&["serve", "--sessions", "4"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--sessions"));

    // serve has no report output, so --format is rejected, not ignored.
    let out = fireguard(&["serve", "--format", "jsonl"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--format"));
}

/// A flag that this run does not read would be silently ignored, so it is
/// refused before the run starts anything: a flag of another subcommand,
/// a flag whose mode is off (campaign flags without `--attacks`, fleet
/// flags without `--chaos`, `--seed` on plain `loadgen`), `--format` on a
/// service with no report, or a budget given twice. Each refusal names
/// the flags by their canonical names, prints nothing on stdout and
/// writes no file.
#[test]
fn flags_without_their_mode_are_refused() {
    let dir = std::env::temp_dir().join(format!("fgt-mode-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("dedup.fgt");
    let refused = dir.join("refused.fgt");
    let spans = dir.join("spans.jsonl");
    let (fgt, out, spans_s) = (
        input.to_str().unwrap(),
        refused.to_str().unwrap(),
        spans.to_str().unwrap(),
    );
    let dir_s = dir.to_str().unwrap();
    stdout_of(&fireguard(&[
        "trace",
        "record",
        "--workload",
        "dedup",
        "--insts",
        "2000",
        "--out",
        fgt,
    ]));
    // `--max-sessions 0` ends a service that took every flag at once, and
    // the chaos rows are one short session, so a regression shows as a
    // wrong exit code, not a hang.
    let serve = ["serve", "--addr", "127.0.0.1:0", "--max-sessions", "0"];
    let chaos = [
        "loadgen",
        "--trace",
        fgt,
        "--chaos",
        "--sessions",
        "1",
        "--jobs",
        "1",
        "--kills",
        "0",
        "--backends",
        "1",
    ];
    let rows: &[(&[&str], &str)] = &[
        (
            &[
                "sweep",
                "--workloads",
                "dedup",
                "--kernel",
                "pmc",
                "--attack-count",
                "5",
            ],
            "--attack-count does not apply to this sweep run",
        ),
        (
            &[
                "trace",
                "record",
                "--workload",
                "dedup",
                "--insts",
                "2000",
                "--out",
                out,
                "--attack-start",
                "100",
            ],
            "--attack-start does not apply to this trace record run",
        ),
        (
            &["loadgen", "--trace", fgt, "--seed", "5"],
            "--seed does not apply to this loadgen run",
        ),
        (
            &["loadgen", "--trace", fgt, "--kills", "2"],
            "--kills does not apply to this loadgen run",
        ),
        (
            &["loadgen", "--trace", fgt, "--chaos", "--bucket-ms", "5"],
            "--bucket-ms does not apply to this loadgen run",
        ),
        (
            &[
                "router",
                "--addr",
                "127.0.0.1:0",
                "--backend-addrs",
                "127.0.0.1:9",
                "--backend-workers",
                "3",
                "--max-sessions",
                "0",
            ],
            "--backend-workers does not apply to this router run",
        ),
        (
            &[&chaos[..], &["--addr", "127.0.0.1:9"]].concat(),
            "--addr does not apply to this loadgen run",
        ),
        (
            &[&chaos[..], &["--routed"]].concat(),
            "--routed does not apply to this loadgen run",
        ),
        (
            &[&chaos[..], &["--fault-every", "3"]].concat(),
            "--fault-every does not apply to this loadgen run",
        ),
        (
            &[&serve[..], &["--format", "jsonl"]].concat(),
            "--format does not apply to this serve run",
        ),
        (
            &[
                "trace",
                "record",
                "--workload",
                "dedup",
                "--insts",
                "2000",
                "--out",
                out,
                "--jobs",
                "2",
            ],
            "--jobs does not apply to this trace record run",
        ),
        (
            &["fig7a", "--insts", "2000", "--quick"],
            "--insts and --quick are mutually exclusive",
        ),
        (
            &[
                "client",
                "--addr",
                "127.0.0.1:9",
                "--trace",
                fgt,
                "--metrics-addr",
                "127.0.0.1:9",
            ],
            "--metrics-addr does not apply to this client run",
        ),
        (
            &[
                "sweep",
                "--workloads",
                "dedup",
                "--kernel",
                "pmc",
                "--insts",
                "2000",
                "--trace-out",
                spans_s,
            ],
            "--trace-out does not apply to this sweep run",
        ),
        (
            &[&serve[..], &["--backends", "2"]].concat(),
            "--backends does not apply to this serve run",
        ),
        (
            &["client", "--addr", "127.0.0.1:9", "--trace", fgt, "--chaos"],
            "--chaos does not apply to this client run",
        ),
        (
            &[
                "loadgen",
                "--addr",
                "127.0.0.1:9",
                "--trace",
                fgt,
                "--backend-addrs",
                "a:1",
            ],
            "--backend-addrs does not apply to this loadgen run",
        ),
        (
            &[&serve[..], &["--journal-dir", dir_s]].concat(),
            "--journal-dir does not apply to this serve run",
        ),
        (
            &[&serve[..], &["--max-live-sessions", "4"]].concat(),
            "--max-live-sessions does not apply to this serve run",
        ),
        (
            &[
                "loadgen",
                "--addr",
                "127.0.0.1:9",
                "--trace",
                fgt,
                "--upstream",
                "a:1",
            ],
            "--upstream does not apply to this loadgen run",
        ),
        (
            &[
                "client",
                "--addr",
                "127.0.0.1:9",
                "--trace",
                fgt,
                "--chaos-net",
            ],
            "--chaos-net does not apply to this client run",
        ),
        (
            &["fig10", "--ucores", "8,12", "--insts", "2000"],
            "--ucores does not apply to this fig10 run",
        ),
        (
            &[&serve[..], &["--sessions", "4"]].concat(),
            "--sessions does not apply to this serve run",
        ),
        (
            &["trace", "replay", "--trace", fgt, "--insts", "5"],
            "--insts does not apply to this trace replay run",
        ),
        (
            &[
                "client",
                "--addr",
                "127.0.0.1:9",
                "--workloads",
                "all",
                "--trace",
                fgt,
            ],
            "--workloads does not apply to this client run",
        ),
        (
            &[&serve[..], &["--insts", "1", "--insts", "2"]].concat(),
            "--insts does not apply to this serve run",
        ),
    ];
    for (args, message) in rows {
        let out = fireguard(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(err, format!("fireguard: {message}\n"), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
    assert!(!refused.exists(), "a refused recording must not be written");
    assert!(!spans.exists(), "a refused sweep opens no span sink");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A journal-spill budget too large to count in bytes is no budget, not
/// an overflow (a panic in debug builds, a wrap to zero in release).
#[test]
fn an_uncountable_spill_budget_does_not_overflow() {
    let out = fireguard(&[
        "router",
        "--addr",
        "127.0.0.1:0",
        "--backends",
        "1",
        "--backend-workers",
        "1",
        "--max-sessions",
        "0",
        "--max-buffered-mb",
        "17592186044416", // 2^44 MiB = 2^64 bytes
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn help_and_version_exit_0() {
    let help = fireguard(&["--help"]);
    assert_eq!(help.status.code(), Some(0));
    let usage = String::from_utf8_lossy(&help.stdout);
    assert!(usage.contains("SUBCOMMANDS"));
    assert!(!usage.contains("bench") && !usage.contains("BENCH FLAGS"));
    let version = fireguard(&["--version"]);
    assert_eq!(version.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&version.stdout).starts_with("fireguard "));
}

#[test]
fn unparseable_fg_insts_warns_on_stderr() {
    // The PR-1 PROPTEST_SEED convention: never silently ignore a bad knob.
    let out = fireguard_with(&[("FG_INSTS", "banana")], &["table2"]);
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("FG_INSTS") && stderr.contains("banana"),
        "expected an FG_INSTS warning on stderr, got:\n{stderr}"
    );
}

#[test]
fn a_variable_the_run_does_not_read_is_not_warned_about() {
    let dir = std::env::temp_dir().join(format!("fgt-env-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let fgt = dir.join("dedup.fgt");
    let record = [
        "trace",
        "record",
        "--workload",
        "dedup",
        "--insts",
        "2000",
        "--out",
        fgt.to_str().unwrap(),
    ];
    // `--insts` overrides FG_INSTS, and trace record runs no sweep
    // workers, so neither variable is read.
    for (var, args) in [
        ("FG_INSTS", &["table2", "--insts", "2000"][..]),
        ("FG_JOBS", &record[..]),
    ] {
        let out = fireguard_with(&[(var, "banana")], args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{var} {args:?} failed:\n{stderr}");
        assert_eq!(stderr, "", "{var} {args:?} wrote to stderr");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
