//! The unified `fireguard` command-line interface.
//!
//! One binary subsumes the 11 per-figure binaries, ad-hoc grid sweeps,
//! and the streaming service layer:
//!
//! ```text
//! fireguard list                         # what can I run?
//! fireguard fig7a --jobs 8               # a paper figure, 8 workers
//! fireguard fig10 --insts 50000 --format csv
//! fireguard sweep --kernel asan --ucores 2,4,8,12 --format jsonl
//! fireguard trace record --workload x264 --out x264.fgt
//! fireguard trace replay --trace x264.fgt --kernel asan --ucores 4
//! fireguard serve --addr 127.0.0.1:4780 --workers 8
//! fireguard client --addr 127.0.0.1:4780 --trace x264.fgt
//! fireguard loadgen --addr 127.0.0.1:4780 --trace x264.fgt --sessions 16
//! ```
//!
//! Flags override the `FG_INSTS` / `FG_QUICK` / `FG_JOBS` environment
//! variables, which are read only where the flag is absent and the run
//! uses them. Output is byte-identical across `--jobs` values: the sweep
//! engine re-orders results by job index before anything is printed.

#![forbid(unsafe_code)]

use fireguard_bench::figures::{find, FigOpts, FIGURES};
use fireguard_soc::sweep::SweepGrid;
use fireguard_soc::{
    render, run_jobs, Cell, EngineConfig, Format, ProgrammingModel, Report, Table,
};

mod args;
mod service_cmds;

use args::{ArgError, Parsed};
use service_cmds::{default_ucores, parse_filter_width, parse_model, parse_ucores, parse_workload};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(run(&argv));
}

/// A subcommand's handler; returns the process exit code.
type Handler = fn(&Parsed) -> i32;

/// Every subcommand beyond the figure registry: its name, its one-line
/// summary for `list` and usage, and its handler. A new subcommand is one
/// row here plus its handler.
const COMMANDS: &[(&str, &str, Handler)] = &[
    (
        "sweep",
        "ad-hoc grid over workloads × kernels × engines × widths",
        |p| emit(p, sweep_report),
    ),
    (
        "trace record",
        "capture a workload×attack stream to a .fgt file",
        |p| emit(p, |p| service_cmds::record_report(p, &budget(p)?)),
    ),
    (
        "trace replay",
        "re-run a .fgt recording through FireGuard",
        |p| emit(p, service_cmds::replay_report),
    ),
    (
        "serve",
        "online streaming analysis service (TCP)",
        service_cmds::serve_cmd,
    ),
    (
        "router",
        "fleet front-end: consistent-hash sessions over N backends",
        service_cmds::router_cmd,
    ),
    (
        "client",
        "stream a .fgt recording to a running service",
        |p| emit(p, service_cmds::client_report),
    ),
    (
        "loadgen",
        "open N concurrent sessions, report throughput/latency",
        |p| emit(p, service_cmds::loadgen_report),
    ),
    (
        "chaos-net",
        "seeded wire-fault proxy: interpose lies between client and fleet",
        service_cmds::chaos_net_cmd,
    ),
    (
        "stats",
        "scrape live --metrics-addr endpoints, aggregate fleet counters",
        |p| emit(p, service_cmds::stats_report),
    ),
    (
        "list",
        "list subcommands as a table (--format jsonl for tooling)",
        |p| emit(p, |p| p.finish().map(|()| list_report(p.format()))),
    ),
];

fn run(argv: &[String]) -> i32 {
    let parsed = match args::parse(argv) {
        Ok(p) => p,
        Err(ArgError::Help) => {
            print!("{}", usage());
            return 0;
        }
        Err(ArgError::Version) => {
            println!("fireguard {}", env!("CARGO_PKG_VERSION"));
            return 0;
        }
        Err(ArgError::Bad(msg)) => {
            eprintln!("fireguard: {msg}");
            eprintln!("run `fireguard help` for usage");
            return 2;
        }
    };

    if let Some((.., handler)) = COMMANDS.iter().find(|c| c.0 == parsed.command) {
        return handler(&parsed);
    }
    match find(&parsed.command) {
        Some(fig) => emit(&parsed, |p| {
            let opts = fig_opts(p)?;
            p.finish()?;
            Ok((fig.run)(&opts))
        }),
        None => {
            eprintln!("fireguard: unknown subcommand {:?}", parsed.command);
            eprintln!("run `fireguard list` to see the available subcommands");
            2
        }
    }
}

/// Runs a report command and prints its outcome in the `--format` given;
/// returns the exit code.
fn emit(p: &Parsed, report: impl FnOnce(&Parsed) -> Result<Report, String>) -> i32 {
    let format = p.format();
    let report = match report(p) {
        Ok(r) => r,
        Err(msg) => {
            eprintln!("fireguard: {msg}");
            return 2;
        }
    };
    match render(&report, format, &mut std::io::stdout().lock()) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("fireguard: writing output failed: {e}");
            1
        }
    }
}

/// The size of a run that generates its trace: `--insts` or `--quick`,
/// else `FG_INSTS` / `FG_QUICK` (read only then), and `--seed`.
fn budget(p: &Parsed) -> Result<FigOpts, String> {
    let insts = match (p.num("--insts"), p.switch("--quick")) {
        (Some(_), true) => return Err("--insts and --quick are mutually exclusive".to_owned()),
        (Some(insts), false) => insts,
        (None, true) => fireguard_bench::QUICK_INSTS,
        (None, false) => fireguard_bench::insts(),
    };
    let seed = p.num("--seed").unwrap_or(fireguard_bench::SEED);
    Ok(FigOpts {
        insts,
        seed,
        workers: None,
    })
}

/// Resolves figure options: [`budget`] and `--jobs` (without it, the
/// driver reads `FG_JOBS` if it runs sweep workers).
fn fig_opts(p: &Parsed) -> Result<FigOpts, String> {
    Ok(FigOpts {
        workers: p.num("--jobs"),
        ..budget(p)?
    })
}

/// Every subcommand with its summary: the figures, then [`COMMANDS`].
fn subcommands() -> impl Iterator<Item = (&'static str, &'static str)> {
    let figures = FIGURES.iter().map(|f| (f.name, f.summary));
    figures.chain(COMMANDS.iter().map(|&(name, summary, _)| (name, summary)))
}

fn list_report(format: Format) -> Report {
    let mut r = Report::new();
    if format == Format::Human {
        // The classic human listing, unchanged.
        r.text("fireguard subcommands (paper figures/tables + sweeps + service)");
        r.blank();
        for (name, summary) in subcommands() {
            r.text(format!("  {name:<16} {summary}"));
        }
        r.blank();
        r.text("registered guardian kernels (--kernel):");
        for spec in fireguard_soc::registry() {
            r.text(format!(
                "  {:<16} id {}  {}",
                spec.cli_names()[0],
                spec.id().wire(),
                spec.summary()
            ));
        }
        r.blank();
        r.text("common flags: --insts N  --seed N  --jobs N  --format human|jsonl|csv  --quick");
        return r;
    }
    // Machine-readable registry (one row per driver) for tooling.
    let mut t = Table::new(&[("name", 16), ("summary", 60)]);
    for (name, summary) in subcommands() {
        t.row(vec![
            Cell::Str(name.to_owned()),
            Cell::Str(summary.to_owned()),
        ]);
    }
    r.table(t);
    // The guardian-kernel registry, one row per plugin (stable wire id,
    // canonical name, aliases, display label).
    let mut k = Table::new(&[
        ("kernel", 14),
        ("id", 4),
        ("label", 11),
        ("aliases", 28),
        ("detects", 10),
        ("summary", 60),
    ]);
    for spec in fireguard_soc::registry() {
        k.row(vec![
            Cell::Str(spec.cli_names()[0].to_owned()),
            Cell::Int(i64::from(spec.id().wire())),
            Cell::Str(spec.name().to_owned()),
            Cell::Str(spec.cli_names().join("|")),
            Cell::Int(spec.detects().len() as i64),
            Cell::Str(spec.summary().to_owned()),
        ]);
    }
    r.table(k);
    r
}

fn sweep_report(p: &Parsed) -> Result<Report, String> {
    let opts = fig_opts(p)?;
    let workloads: Vec<&str> = match p.text("--workloads") {
        None | Some("all") => fireguard_soc::experiments::workloads(),
        Some(csv) => csv
            .split(',')
            .map(parse_workload)
            .collect::<Result<_, _>>()?,
    };
    // `--kernel all` deploys every registered kernel *together* in one
    // system per grid point (the packet-layout-v2 wide-verdict mode);
    // a csv list still sweeps them one system each.
    let (kernels, combined) = service_cmds::kernels(p)?;
    let ha = p.switch("--ha");
    let per_system = if combined { kernels.len() } else { 1 };
    let mut engines = if ha && p.text("--ucores").is_none() {
        Vec::new()
    } else {
        axis(p, "--ucores", default_ucores(per_system), parse_ucores)?
    };
    if ha {
        engines.push(EngineConfig::Ha);
    }
    let filter_widths = axis(p, "--filter-width", 4, parse_filter_width)?;
    let models = axis(p, "--model", ProgrammingModel::Hybrid, parse_model)?;

    let grid = SweepGrid {
        workloads: workloads.into_iter().map(str::to_owned).collect(),
        kernels,
        combined,
        engines,
        filter_widths,
        models,
        insts: opts.insts,
        seed: opts.seed,
    };
    let mut expanded = grid.expand();
    if expanded.is_empty() {
        return Err("the sweep grid is empty (no engine axis?)".to_owned());
    }
    // `--attacks` runs the same campaign at every grid point, so the
    // detections column shows which configurations actually catch it —
    // silent points are visible in the grid instead of only in loadgen.
    let attacked = service_cmds::attack_plan(p, opts.insts)?;
    p.finish()?;
    if let Some(plan) = &attacked {
        for (_, job) in &mut expanded {
            if let fireguard_soc::JobSpec::FireGuard(cfg) = job {
                cfg.attacks = Some(plan.clone());
            }
        }
    }
    // Pre-flight every deployment against the fabric/packet ceilings so a
    // combined grid that doesn't fit is a clean error, not a panic mid-sweep.
    for (pt, job) in &expanded {
        if let fireguard_soc::JobSpec::FireGuard(cfg) = job {
            fireguard_soc::validate_capacity(&cfg.kernels).map_err(|e| {
                format!(
                    "sweep point {}/{} does not fit: {e} (try a smaller --ucores)",
                    pt.workload,
                    pt.kernel_label()
                )
            })?;
        }
    }
    let (points, jobs): (Vec<_>, Vec<_>) = expanded.into_iter().unzip();
    let workers = opts.workers();
    let outs = run_jobs(jobs, workers);

    let mut r = Report::new();
    r.text(format!(
        "sweep: {} runs ({} insts each, seed {})",
        points.len(),
        opts.insts,
        opts.seed
    ));
    if p.format() == Format::Jsonl {
        // Machine-readable runs surface the worker count actually used
        // (FG_JOBS / --jobs / available parallelism) so a 1-CPU container
        // showing no --jobs speedup is self-documenting. Human/CSV output
        // stays byte-identical across worker counts by design.
        r.text(format!("workers={workers}"));
    }
    r.blank();
    // A combined deployment's label is the `+`-join of every kernel name,
    // so size the column to the widest label actually present.
    let kernel_col = points
        .iter()
        .map(|pt| pt.kernel_label().len())
        .max()
        .unwrap_or(0)
        .max(10);
    let mut t = Table::new(&[
        ("workload", 14),
        ("kernel", kernel_col),
        ("engine", 7),
        ("fwidth", 7),
        ("model", 15),
        ("slowdown", 9),
        ("cycles", 12),
        ("packets", 10),
        ("detections", 11),
    ]);
    let mut silent: Vec<String> = Vec::new();
    for (pt, out) in points.iter().zip(outs) {
        let run = out.into_run();
        let detections = run.detections.len();
        if attacked.is_some() && detections == 0 {
            silent.push(format!("{}/{}", pt.workload, pt.kernel_label()));
        }
        t.row(vec![
            Cell::Str(pt.workload.clone()),
            Cell::Str(pt.kernel_label()),
            Cell::Str(pt.engine_label()),
            Cell::Int(pt.filter_width as i64),
            Cell::Str(pt.model.name().to_owned()),
            Cell::slowdown(run.slowdown),
            Cell::Int(run.cycles as i64),
            Cell::Int(run.packets as i64),
            Cell::Int(detections as i64),
        ]);
    }
    r.table(t);
    if !silent.is_empty() {
        r.blank();
        r.text(format!(
            "warning: alarms=0 at {} of {} attacked grid points ({}) — the campaign \
             raised no detection there (check --kernel against the attack kinds)",
            silent.len(),
            points.len(),
            silent.join(", ")
        ));
    }
    Ok(r)
}

/// A sweep axis: `flag`'s csv list, each point read by `point`, or
/// `default` alone when the flag is absent.
fn axis<T>(
    p: &Parsed,
    flag: &str,
    default: T,
    point: fn(&str) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    p.text(flag)
        .map_or(Ok(vec![default]), |csv| csv.split(',').map(point).collect())
}

fn usage() -> String {
    let mut s = String::from(
        "fireguard — regenerate the FireGuard (DAC 2025) evaluation\n\
         \n\
         USAGE:\n\
         \x20   fireguard <subcommand> [flags]\n\
         \n\
         SUBCOMMANDS:\n",
    );
    for (name, summary) in subcommands() {
        s.push_str(&format!("    {name:<16} {summary}\n"));
    }
    s.push_str(
        "    help             this message\n\
         \n\
         COMMON FLAGS:\n\
         \x20   --insts <N>      instructions per run (overrides FG_INSTS; default 120000)\n\
         \x20   --quick          30000-instruction smoke run (overrides FG_QUICK)\n\
         \x20   --seed <N>       trace seed (default 42); also routed loadgen's session\n\
         \x20                    ids (42), the chaos kill schedule and chaos-net's\n\
         \x20                    fault schedule (7)\n\
         \x20   --jobs <N>       sweep workers / loadgen concurrency (overrides FG_JOBS)\n\
         \x20   --format <F>     human (default), jsonl, or csv\n\
         \n\
         SWEEP FLAGS:\n\
         \x20   --workloads <csv|all>   PARSEC workloads (default all)\n",
    );
    // The --kernel list comes from the plugin registry, so usage can never
    // drift from the kernels actually registered.
    let kernel_names = fireguard_soc::canonical_names().join(", ");
    s.push_str(&format!(
        "    --kernel <csv|all>      {kernel_names} (default asan;\n\
         \x20                           `all` deploys every kernel in one system)\n"
    ));
    s.push_str(
        "    --ucores <csv>          µcore counts per kernel (default 4)\n\
         \x20   --ha                    also sweep the hardware-accelerator variant\n\
         \x20   --filter-width <csv>    event-filter widths (default 4)\n\
         \x20   --model <csv>           conventional, duffs, unrolled, hybrid (default hybrid)\n\
         \n\
         TRACE / SERVICE FLAGS:\n\
         \x20   --workload <name>       workload to record (trace record)\n\
         \x20   --out <file>            output .fgt path (trace record)\n\
         \x20   --attacks <csv>         ret-hijack, oob, uaf, bounds (trace record, sweep)\n\
         \x20   --attack-count <N>      campaign size (default 50; needs --attacks)\n\
         \x20   --attack-start <N>      campaign window start (default insts/10)\n\
         \x20   --attack-end <N>        campaign window end (default insts)\n\
         \x20   --attack-seed <N>       campaign seed (default 1)\n\
         \x20   --trace <file>          .fgt recording (replay/client/loadgen)\n\
         \x20   --addr <host:port>      service address (default 127.0.0.1:4780)\n\
         \x20   --workers <N>           serve: concurrent session workers\n\
         \x20   --max-sessions <N>      serve/router: exit after N sessions (CI)\n\
         \x20   --sessions <N>          loadgen: total sessions (default 4)\n\
         \x20   --batch <N>             events per frame (default 512)\n\
         \x20   --mapper-width <N>      replay/client/loadgen mapper width\n\
         \n\
         ROUTER / CHAOS FLAGS:\n\
         \x20   --backends <N>          router/chaos: spawned backend slots (default 2)\n\
         \x20   --backend-addrs <csv>   router: route over external serves instead\n\
         \x20   --backend-workers <N>   workers per spawned backend (default 2)\n\
         \x20   --routed                loadgen: resumable ticketed sessions (router peer)\n\
         \x20   --duration <SECS>       loadgen: soak until SECS elapsed (sessions = floor)\n\
         \x20   --bucket-ms <N>         loadgen: latency-histogram window (default 1000)\n\
         \x20   --chaos                 loadgen: spawn a fleet, kill backends, assert parity\n\
         \x20   --kills <N>             chaos: scheduled backend kills (default 4)\n\
         \x20   --chaos-net             loadgen: also interpose the seeded wire-fault proxy\n\
         \x20   --fault-every <N>       chaos-net: mean frames between faults (default 64)\n\
         \x20   --max-delay-ms <N>      chaos-net: delay-fault upper bound (default 5)\n\
         \x20   --upstream <h:p>        chaos-net: the honest address to forward to\n\
         \n\
         ROBUSTNESS FLAGS:\n\
         \x20   --idle-timeout <SECS>   serve/router: reap silent connections (default 30)\n\
         \x20   --journal-dir <DIR>     router: durable session journals, recovered from DIR at boot\n\
         \x20   --max-live-sessions <N> router: refuse fresh sessions over N live (BUSY)\n\
         \x20   --max-buffered-mb <N>   router: refuse fresh sessions past this many journaled MiB\n\
         \n\
         TELEMETRY FLAGS:\n\
         \x20   --metrics-addr <h:p>    serve/router: live metrics endpoint (Prometheus text over HTTP)\n\
         \x20   --trace-out <file>      serve/router/client/loadgen/chaos-net: span-event jsonl sink\n\
         \x20   stats --addr <csv>      scrape endpoints, aggregate per-kernel fleet counters\n\
         \n\
         Replay/client/loadgen take --kernel <csv|all> with --ucores <N> or --ha\n\
         (each kernel gets its own engines; `all` deploys every registered kernel).\n\
         Output is byte-identical for any --jobs value; parallelism only\n\
         changes wall-clock time.\n",
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use fireguard_soc::KernelId;
    use service_cmds::parse_kernel;

    #[test]
    fn kernel_and_model_parsers() {
        assert_eq!(parse_kernel("PMC"), Ok(KernelId::PMC));
        assert_eq!(parse_kernel("ss"), Ok(KernelId::SHADOW_STACK));
        assert_eq!(parse_kernel("taint"), Ok(KernelId::TAINT));
        assert_eq!(parse_kernel("mte"), Ok(KernelId::MTE));
        let err = parse_kernel("rowhammer").unwrap_err();
        for name in fireguard_soc::canonical_names() {
            assert!(err.contains(name), "error message omits {name}: {err}");
        }
        assert_eq!(parse_model("hybrid"), Ok(ProgrammingModel::Hybrid));
        assert!(parse_model("jit").is_err());
    }

    #[test]
    fn usage_names_every_figure() {
        let u = usage();
        for fig in FIGURES {
            assert!(u.contains(fig.name), "usage is missing {}", fig.name);
        }
    }

    #[test]
    fn usage_and_list_name_every_registered_kernel() {
        let u = usage();
        for name in fireguard_soc::canonical_names() {
            assert!(u.contains(name), "usage is missing kernel {name}");
        }
        for format in [Format::Human, Format::Jsonl] {
            let rendered = fireguard_soc::render_to_string(&list_report(format), format);
            for name in fireguard_soc::canonical_names() {
                assert!(
                    rendered.contains(name),
                    "{format:?} list is missing kernel {name}:\n{rendered}"
                );
            }
        }
    }

    #[test]
    fn usage_and_list_name_every_command_and_flag() {
        let u = usage();
        for (name, summary, _) in COMMANDS {
            let row = format!("    {name:<16} {summary}\n");
            assert!(u.contains(&row), "usage is missing subcommand {name}");
        }
        for format in [Format::Human, Format::Jsonl] {
            let rendered = fireguard_soc::render_to_string(&list_report(format), format);
            for (name, summary, _) in COMMANDS {
                let row = match format {
                    Format::Human => format!("  {name:<16} {summary}\n"),
                    _ => format!(r#""name":"{name}","summary":"{summary}""#),
                };
                assert!(
                    rendered.contains(&row),
                    "{format:?} list is missing subcommand {name}:\n{rendered}"
                );
            }
        }
        // Whole names only: `--trace` must not pass on `--trace-out`.
        for (flag, ..) in args::FLAGS {
            let named = u.match_indices(flag).any(|(at, _)| {
                let next = u[at + flag.len()..].chars().next();
                !next.is_some_and(|c| c == '-' || c.is_ascii_alphanumeric())
            });
            assert!(named, "usage is missing flag {flag}");
        }
    }
}
