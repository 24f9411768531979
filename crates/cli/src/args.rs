//! Hand-rolled argument parsing for the `fireguard` CLI.
//!
//! The container is offline-vendored, so no `clap`: a small parser that
//! supports `--flag value` and `--flag=value`, one- and two-word
//! subcommands (`fig7a`, `trace record`), and `help`/`--help`/`-h`/
//! `--version` escapes. Every flag has an explicit *scope* — the
//! subcommands it applies to — and out-of-scope flags are rejected with a
//! message, never silently ignored.

use fireguard_soc::Format;
use std::str::FromStr;

/// Parse failure modes.
#[derive(Debug)]
pub enum ArgError {
    /// The user asked for usage text.
    Help,
    /// The user asked for the version.
    Version,
    /// A real error, with a message for stderr.
    Bad(String),
}

/// The parsed command line.
#[derive(Debug, Default)]
pub struct Parsed {
    /// The subcommand (figure name, `sweep`, `list`, `serve`, `client`,
    /// `loadgen`, `trace record`, or `trace replay`).
    pub command: String,
    /// `--insts N` override.
    pub insts: Option<u64>,
    /// `--seed N` override.
    pub seed: Option<u64>,
    /// `--jobs N` override (sweep workers / loadgen concurrency).
    pub jobs: Option<usize>,
    /// `--quick` (30 000-instruction smoke run).
    pub quick: bool,
    /// `--format human|jsonl|csv`.
    pub format: Format,
    /// `--workloads csv|all` (sweep).
    pub workloads: Option<String>,
    /// `--kernel csv` (sweep / replay / client / loadgen).
    pub kernels: Option<String>,
    /// `--ucores csv` (sweep / replay / client / loadgen).
    pub ucores: Option<String>,
    /// `--ha`: include/select the hardware-accelerator variant.
    pub ha: bool,
    /// `--filter-width csv`.
    pub filter_widths: Option<String>,
    /// `--model csv`.
    pub models: Option<String>,
    /// `--mapper-width N` (replay / client / loadgen).
    pub mapper_width: Option<usize>,
    /// `--addr HOST:PORT` (serve / client / loadgen).
    pub addr: Option<String>,
    /// `--workers N` (serve).
    pub workers: Option<usize>,
    /// `--max-sessions N` (serve): stop after N sessions.
    pub max_sessions: Option<u64>,
    /// `--sessions N` (loadgen).
    pub sessions: Option<usize>,
    /// `--out FILE` (trace record).
    pub out: Option<String>,
    /// `--trace FILE` (trace replay / client / loadgen).
    pub trace_file: Option<String>,
    /// `--workload NAME` (trace record).
    pub workload: Option<String>,
    /// `--attacks csv` of attack kinds (trace record).
    pub attacks: Option<String>,
    /// `--attack-count N` (trace record).
    pub attack_count: Option<usize>,
    /// `--attack-start N` (trace record).
    pub attack_start: Option<u64>,
    /// `--attack-end N` (trace record).
    pub attack_end: Option<u64>,
    /// `--attack-seed N` (trace record).
    pub attack_seed: Option<u64>,
    /// `--batch N` events per frame (client / loadgen).
    pub batch: Option<usize>,
    /// `--duration SECS` (loadgen): soak until this much wall-clock.
    pub duration_secs: Option<f64>,
    /// `--bucket-ms N` (loadgen): latency-histogram window width.
    pub bucket_ms: Option<u64>,
    /// `--chaos` (loadgen): spawn a router fleet and kill backends.
    pub chaos: bool,
    /// `--routed` (loadgen): resumable ticketed sessions (router peer).
    pub routed: bool,
    /// `--backends N` (router / loadgen --chaos): spawned backend slots.
    pub backends: Option<usize>,
    /// `--backend-addrs csv` (router): route over external services.
    pub backend_addrs: Option<String>,
    /// `--backend-workers N` (router / loadgen --chaos).
    pub backend_workers: Option<usize>,
    /// `--kills N` (loadgen --chaos): scheduled backend kills.
    pub kills: Option<usize>,
    /// `--idle-timeout SECS` (serve / router): reap silent connections.
    pub idle_timeout_secs: Option<f64>,
    /// `--journal-dir DIR` (router): durable session journals.
    pub journal_dir: Option<String>,
    /// `--resume-journals DIR` (router): recover crashed sessions from DIR.
    pub resume_journals: Option<String>,
    /// `--max-live-sessions N` (router): shed fresh sessions over this.
    pub max_live_sessions: Option<u64>,
    /// `--max-buffered-mb N` (router): shed when journal spill exceeds this.
    pub max_buffered_mb: Option<u64>,
    /// `--journal-tail N` (router, loadgen --chaos): in-RAM events per
    /// session journal.
    pub journal_tail: Option<usize>,
    /// `--chaos-net` (loadgen): interpose the seeded wire-fault proxy.
    pub chaos_net: bool,
    /// `--fault-every N` (loadgen / chaos-net): mean frames between faults.
    pub fault_every: Option<u64>,
    /// `--max-delay-ms N` (loadgen / chaos-net): delay-fault upper bound.
    pub max_delay_ms: Option<u64>,
    /// `--upstream HOST:PORT` (chaos-net): where the proxy forwards.
    pub upstream: Option<String>,
    /// `--metrics-addr HOST:PORT` (serve / router): live metrics endpoint.
    pub metrics_addr: Option<String>,
    /// `--trace-out FILE` (serve / router / client / loadgen): span jsonl.
    pub trace_out: Option<String>,
    /// Canonical names of every flag that was actually set.
    used: Vec<&'static str>,
}

/// Marker scope for "any figure/table subcommand" (everything that is not
/// one of the named commands below).
const FIG: &str = "<figure>";

const NAMED_COMMANDS: &[&str] = &[
    "sweep",
    "list",
    "serve",
    "router",
    "client",
    "loadgen",
    "chaos-net",
    "stats",
    "trace record",
    "trace replay",
];

/// Flag → the subcommands it applies to.
const FLAG_SCOPES: &[(&str, &[&str])] = &[
    ("--insts", &[FIG, "sweep", "trace record"]),
    // loadgen: session-id / chaos-schedule seed (routed modes).
    // chaos-net: the per-connection fault-schedule seed.
    (
        "--seed",
        &[FIG, "sweep", "trace record", "loadgen", "chaos-net"],
    ),
    ("--quick", &[FIG, "sweep", "trace record"]),
    ("--jobs", &[FIG, "sweep", "loadgen"]),
    ("--workloads", &["sweep"]),
    ("--kernel", &["sweep", "trace replay", "client", "loadgen"]),
    ("--ucores", &["sweep", "trace replay", "client", "loadgen"]),
    ("--ha", &["sweep", "trace replay", "client", "loadgen"]),
    (
        "--filter-width",
        &["sweep", "trace replay", "client", "loadgen"],
    ),
    ("--model", &["sweep", "trace replay", "client", "loadgen"]),
    ("--mapper-width", &["trace replay", "client", "loadgen"]),
    (
        "--addr",
        &["serve", "router", "client", "loadgen", "stats", "chaos-net"],
    ),
    ("--metrics-addr", &["serve", "router"]),
    (
        "--trace-out",
        &["serve", "router", "client", "loadgen", "chaos-net"],
    ),
    ("--workers", &["serve"]),
    ("--max-sessions", &["serve", "router"]),
    ("--idle-timeout", &["serve", "router"]),
    ("--journal-dir", &["router"]),
    ("--resume-journals", &["router"]),
    ("--max-live-sessions", &["router"]),
    ("--max-buffered-mb", &["router"]),
    ("--journal-tail", &["router", "loadgen"]),
    ("--chaos-net", &["loadgen"]),
    ("--fault-every", &["loadgen", "chaos-net"]),
    ("--max-delay-ms", &["loadgen", "chaos-net"]),
    ("--upstream", &["chaos-net"]),
    ("--sessions", &["loadgen"]),
    ("--duration", &["loadgen"]),
    ("--bucket-ms", &["loadgen"]),
    ("--chaos", &["loadgen"]),
    ("--routed", &["loadgen"]),
    ("--backends", &["router", "loadgen"]),
    ("--backend-addrs", &["router"]),
    ("--backend-workers", &["router", "loadgen"]),
    ("--kills", &["loadgen"]),
    ("--out", &["trace record"]),
    ("--trace", &["trace replay", "client", "loadgen"]),
    ("--workload", &["trace record"]),
    // sweep: an attack campaign per grid point, so silent workloads are
    // visible in the detections column instead of only in loadgen.
    ("--attacks", &["trace record", "sweep"]),
    ("--attack-count", &["trace record", "sweep"]),
    ("--attack-start", &["trace record", "sweep"]),
    ("--attack-end", &["trace record", "sweep"]),
    ("--attack-seed", &["trace record", "sweep"]),
    ("--batch", &["client", "loadgen"]),
    // --format applies everywhere.
];

impl Parsed {
    /// The used flags that do not apply to `self.command`, by name — so
    /// commands can reject them instead of silently ignoring them.
    pub fn out_of_scope_flags(&self) -> Vec<&'static str> {
        let cmd = self.command.as_str();
        let is_figure = !NAMED_COMMANDS.contains(&cmd);
        self.used
            .iter()
            .filter(|name| {
                let Some((_, scope)) = FLAG_SCOPES.iter().find(|(n, _)| n == *name) else {
                    return false; // unscoped flags (e.g. --format) apply anywhere
                };
                !scope.iter().any(|s| *s == cmd || (*s == FIG && is_figure))
            })
            .copied()
            .collect()
    }
}

/// Parses `argv` (without the program name).
pub fn parse(argv: &[String]) -> Result<Parsed, ArgError> {
    let mut p = Parsed {
        format: Format::Human,
        ..Parsed::default()
    };
    let mut it = argv.iter().peekable();
    let mut positionals: Vec<&String> = Vec::new();

    while let Some(arg) = it.next() {
        match arg.as_str() {
            "help" | "--help" | "-h" => return Err(ArgError::Help),
            "--version" | "-V" => return Err(ArgError::Version),
            "--quick" => {
                p.quick = true;
                p.used.push("--quick");
            }
            "--ha" => {
                p.ha = true;
                p.used.push("--ha");
            }
            "--chaos" => {
                p.chaos = true;
                p.used.push("--chaos");
            }
            "--chaos-net" => {
                p.chaos_net = true;
                p.used.push("--chaos-net");
            }
            "--routed" => {
                p.routed = true;
                p.used.push("--routed");
            }
            s if s.starts_with("--") => {
                let (name, value) = match s.split_once('=') {
                    Some((n, v)) => (n.to_owned(), v.to_owned()),
                    None => {
                        let v = it
                            .next()
                            .ok_or_else(|| ArgError::Bad(format!("flag {s} expects a value")))?;
                        (s.to_owned(), v.clone())
                    }
                };
                apply_flag(&mut p, &name, &value)?;
            }
            _ => positionals.push(arg),
        }
    }

    match positionals.as_slice() {
        [] => Err(ArgError::Help),
        [cmd] if cmd.as_str() == "trace" => Err(ArgError::Bad(
            "trace expects a sub-subcommand: `fireguard trace record` or `fireguard trace replay`"
                .to_owned(),
        )),
        [cmd] => {
            p.command = (*cmd).clone();
            Ok(p)
        }
        [cmd, sub] if cmd.as_str() == "trace" => match sub.as_str() {
            "record" | "replay" => {
                p.command = format!("trace {sub}");
                Ok(p)
            }
            other => Err(ArgError::Bad(format!(
                "unknown trace subcommand {other:?} (expected record or replay)"
            ))),
        },
        [a, b, ..] => Err(ArgError::Bad(format!(
            "expected one subcommand, got {a:?} and {b:?}"
        ))),
    }
}

fn apply_flag(p: &mut Parsed, name: &str, value: &str) -> Result<(), ArgError> {
    fn num<T: FromStr>(name: &str, value: &str) -> Result<T, ArgError> {
        value
            .parse()
            .map_err(|_| ArgError::Bad(format!("flag {name} expects a number, got {value:?}")))
    }
    fn positive(name: &str, value: &str) -> Result<usize, ArgError> {
        let n: usize = num(name, value)?;
        if n == 0 {
            return Err(ArgError::Bad(format!("{name} must be at least 1")));
        }
        Ok(n)
    }
    let canonical = match name {
        "--insts" => {
            let n: u64 = num(name, value)?;
            if n == 0 {
                return Err(ArgError::Bad("--insts must be at least 1".to_owned()));
            }
            p.insts = Some(n);
            "--insts"
        }
        "--seed" => {
            p.seed = Some(num(name, value)?);
            "--seed"
        }
        "--jobs" => {
            p.jobs = Some(positive(name, value)?);
            "--jobs"
        }
        "--format" => {
            p.format = Format::from_str(value).map_err(ArgError::Bad)?;
            return Ok(()); // applies to every subcommand; not scope-tracked
        }
        "--workloads" => {
            p.workloads = Some(value.to_owned());
            "--workloads"
        }
        "--kernel" | "--kernels" => {
            p.kernels = Some(value.to_owned());
            "--kernel"
        }
        "--ucores" => {
            p.ucores = Some(value.to_owned());
            "--ucores"
        }
        "--filter-width" | "--filter-widths" => {
            p.filter_widths = Some(value.to_owned());
            "--filter-width"
        }
        "--model" | "--models" => {
            p.models = Some(value.to_owned());
            "--model"
        }
        "--mapper-width" => {
            p.mapper_width = Some(positive(name, value)?);
            "--mapper-width"
        }
        "--addr" => {
            p.addr = Some(value.to_owned());
            "--addr"
        }
        "--workers" => {
            p.workers = Some(positive(name, value)?);
            "--workers"
        }
        "--max-sessions" => {
            p.max_sessions = Some(num(name, value)?);
            "--max-sessions"
        }
        "--sessions" => {
            p.sessions = Some(positive(name, value)?);
            "--sessions"
        }
        "--out" => {
            p.out = Some(value.to_owned());
            "--out"
        }
        "--trace" => {
            p.trace_file = Some(value.to_owned());
            "--trace"
        }
        "--workload" => {
            p.workload = Some(value.to_owned());
            "--workload"
        }
        "--attacks" => {
            p.attacks = Some(value.to_owned());
            "--attacks"
        }
        "--attack-count" => {
            p.attack_count = Some(positive(name, value)?);
            "--attack-count"
        }
        "--attack-start" => {
            p.attack_start = Some(num(name, value)?);
            "--attack-start"
        }
        "--attack-end" => {
            p.attack_end = Some(num(name, value)?);
            "--attack-end"
        }
        "--attack-seed" => {
            p.attack_seed = Some(num(name, value)?);
            "--attack-seed"
        }
        "--batch" => {
            p.batch = Some(positive(name, value)?);
            "--batch"
        }
        "--duration" => {
            let secs: f64 = num(name, value)?;
            if secs <= 0.0 || !secs.is_finite() {
                return Err(ArgError::Bad(
                    "--duration must be a positive number of seconds".to_owned(),
                ));
            }
            p.duration_secs = Some(secs);
            "--duration"
        }
        "--bucket-ms" => {
            let ms: u64 = num(name, value)?;
            if ms == 0 {
                return Err(ArgError::Bad("--bucket-ms must be at least 1".to_owned()));
            }
            p.bucket_ms = Some(ms);
            "--bucket-ms"
        }
        "--backends" => {
            p.backends = Some(positive(name, value)?);
            "--backends"
        }
        "--backend-addrs" => {
            p.backend_addrs = Some(value.to_owned());
            "--backend-addrs"
        }
        "--backend-workers" => {
            p.backend_workers = Some(positive(name, value)?);
            "--backend-workers"
        }
        "--kills" => {
            p.kills = Some(num(name, value)?);
            "--kills"
        }
        "--idle-timeout" => {
            let secs: f64 = num(name, value)?;
            if secs <= 0.0 || !secs.is_finite() {
                return Err(ArgError::Bad(
                    "--idle-timeout must be a positive number of seconds".to_owned(),
                ));
            }
            p.idle_timeout_secs = Some(secs);
            "--idle-timeout"
        }
        "--journal-dir" => {
            p.journal_dir = Some(value.to_owned());
            "--journal-dir"
        }
        "--resume-journals" => {
            p.resume_journals = Some(value.to_owned());
            "--resume-journals"
        }
        "--max-live-sessions" => {
            p.max_live_sessions = Some(num(name, value)?);
            "--max-live-sessions"
        }
        "--max-buffered-mb" => {
            let mb: u64 = num(name, value)?;
            if mb == 0 {
                return Err(ArgError::Bad(
                    "--max-buffered-mb must be at least 1".to_owned(),
                ));
            }
            p.max_buffered_mb = Some(mb);
            "--max-buffered-mb"
        }
        "--journal-tail" => {
            p.journal_tail = Some(positive(name, value)?);
            "--journal-tail"
        }
        "--fault-every" => {
            p.fault_every = Some(num(name, value)?);
            "--fault-every"
        }
        "--max-delay-ms" => {
            p.max_delay_ms = Some(num(name, value)?);
            "--max-delay-ms"
        }
        "--upstream" => {
            p.upstream = Some(value.to_owned());
            "--upstream"
        }
        "--metrics-addr" => {
            p.metrics_addr = Some(value.to_owned());
            "--metrics-addr"
        }
        "--trace-out" => {
            p.trace_out = Some(value.to_owned());
            "--trace-out"
        }
        other => {
            return Err(ArgError::Bad(format!("unknown flag {other}")));
        }
    };
    p.used.push(canonical);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_subcommand_and_flags() {
        let p = parse(&args("fig7a --insts 2000 --jobs 4 --format csv")).unwrap();
        assert_eq!(p.command, "fig7a");
        assert_eq!(p.insts, Some(2000));
        assert_eq!(p.jobs, Some(4));
        assert_eq!(p.format, Format::Csv);
        assert!(p.out_of_scope_flags().is_empty());
    }

    #[test]
    fn equals_syntax_and_sweep_flags() {
        let p = parse(&args("sweep --kernel=asan,pmc --ucores=2,4 --ha --quick")).unwrap();
        assert_eq!(p.command, "sweep");
        assert_eq!(p.kernels.as_deref(), Some("asan,pmc"));
        assert_eq!(p.ucores.as_deref(), Some("2,4"));
        assert!(p.ha);
        assert!(p.quick);
        assert!(p.out_of_scope_flags().is_empty());
    }

    #[test]
    fn two_word_trace_subcommands() {
        let p = parse(&args(
            "trace record --workload x264 --out /tmp/x.fgt --insts 2000",
        ))
        .unwrap();
        assert_eq!(p.command, "trace record");
        assert_eq!(p.workload.as_deref(), Some("x264"));
        assert_eq!(p.out.as_deref(), Some("/tmp/x.fgt"));
        assert!(p.out_of_scope_flags().is_empty());

        let p = parse(&args("trace replay --trace /tmp/x.fgt --kernel asan")).unwrap();
        assert_eq!(p.command, "trace replay");
        assert_eq!(p.trace_file.as_deref(), Some("/tmp/x.fgt"));

        assert!(matches!(parse(&args("trace")), Err(ArgError::Bad(_))));
        assert!(matches!(parse(&args("trace rm")), Err(ArgError::Bad(_))));
    }

    #[test]
    fn service_flags_parse() {
        let p = parse(&args(
            "loadgen --addr 127.0.0.1:4780 --sessions 4 --trace t.fgt --batch 256",
        ))
        .unwrap();
        assert_eq!(p.command, "loadgen");
        assert_eq!(p.addr.as_deref(), Some("127.0.0.1:4780"));
        assert_eq!(p.sessions, Some(4));
        assert_eq!(p.batch, Some(256));
        assert!(p.out_of_scope_flags().is_empty());
    }

    #[test]
    fn router_and_chaos_flags_parse() {
        let p = parse(&args(
            "router --addr 127.0.0.1:0 --backends 3 --backend-workers 2 --max-sessions 8",
        ))
        .unwrap();
        assert_eq!(p.command, "router");
        assert_eq!(p.backends, Some(3));
        assert_eq!(p.backend_workers, Some(2));
        assert_eq!(p.max_sessions, Some(8));
        assert!(p.out_of_scope_flags().is_empty());

        let p = parse(&args(
            "loadgen --trace t.fgt --sessions 8 --chaos --kills 4 --duration 2.5 \
             --bucket-ms 250 --seed 11 --backends 2",
        ))
        .unwrap();
        assert!(p.chaos);
        assert_eq!(p.kills, Some(4));
        assert_eq!(p.duration_secs, Some(2.5));
        assert_eq!(p.bucket_ms, Some(250));
        assert_eq!(p.seed, Some(11));
        assert!(p.out_of_scope_flags().is_empty());

        let p = parse(&args("loadgen --trace t.fgt --routed --addr 127.0.0.1:9")).unwrap();
        assert!(p.routed);
        assert!(p.out_of_scope_flags().is_empty());
    }

    #[test]
    fn telemetry_flags_parse_and_have_scopes() {
        let p = parse(&args(
            "serve --addr 127.0.0.1:0 --metrics-addr 127.0.0.1:9900 --trace-out /tmp/s.jsonl",
        ))
        .unwrap();
        assert_eq!(p.metrics_addr.as_deref(), Some("127.0.0.1:9900"));
        assert_eq!(p.trace_out.as_deref(), Some("/tmp/s.jsonl"));
        assert!(p.out_of_scope_flags().is_empty());

        let p = parse(&args("stats --addr 127.0.0.1:9900,127.0.0.1:9901")).unwrap();
        assert_eq!(p.command, "stats");
        assert!(p.out_of_scope_flags().is_empty());

        // --metrics-addr is a serve/router flag.
        let p = parse(&args("client --trace t.fgt --metrics-addr 127.0.0.1:9")).unwrap();
        assert_eq!(p.out_of_scope_flags(), vec!["--metrics-addr"]);

        // sweep accepts an attack campaign now; trace-out does not apply.
        let p = parse(&args("sweep --attacks ret-hijack --attack-count 6")).unwrap();
        assert!(p.out_of_scope_flags().is_empty());
        let p = parse(&args("sweep --trace-out /tmp/x.jsonl")).unwrap();
        assert_eq!(p.out_of_scope_flags(), vec!["--trace-out"]);
    }

    #[test]
    fn router_flags_have_scopes() {
        let p = parse(&args("serve --backends 2")).unwrap();
        assert_eq!(p.out_of_scope_flags(), vec!["--backends"]);
        let p = parse(&args("client --trace t.fgt --chaos")).unwrap();
        assert_eq!(p.out_of_scope_flags(), vec!["--chaos"]);
        let p = parse(&args("loadgen --trace t.fgt --backend-addrs a:1")).unwrap();
        assert_eq!(p.out_of_scope_flags(), vec!["--backend-addrs"]);
        assert!(matches!(
            parse(&args("loadgen --duration 0")),
            Err(ArgError::Bad(_))
        ));
        assert!(matches!(
            parse(&args("loadgen --bucket-ms 0")),
            Err(ArgError::Bad(_))
        ));
    }

    #[test]
    fn robustness_flags_parse_and_have_scopes() {
        let p = parse(&args(
            "router --journal-dir /tmp/j --max-live-sessions 64 --max-buffered-mb 128 \
             --journal-tail 4096 --idle-timeout 2.5",
        ))
        .unwrap();
        assert_eq!(p.journal_dir.as_deref(), Some("/tmp/j"));
        assert_eq!(p.max_live_sessions, Some(64));
        assert_eq!(p.max_buffered_mb, Some(128));
        assert_eq!(p.journal_tail, Some(4096));
        assert_eq!(p.idle_timeout_secs, Some(2.5));
        assert!(p.out_of_scope_flags().is_empty());

        let p = parse(&args("router --resume-journals /tmp/j")).unwrap();
        assert_eq!(p.resume_journals.as_deref(), Some("/tmp/j"));
        assert!(p.out_of_scope_flags().is_empty());

        let p = parse(&args(
            "chaos-net --upstream 127.0.0.1:4781 --addr 127.0.0.1:0 \
             --seed 9 --fault-every 32 --max-delay-ms 3",
        ))
        .unwrap();
        assert_eq!(p.command, "chaos-net");
        assert_eq!(p.upstream.as_deref(), Some("127.0.0.1:4781"));
        assert_eq!(p.fault_every, Some(32));
        assert_eq!(p.max_delay_ms, Some(3));
        assert!(p.out_of_scope_flags().is_empty());

        let p = parse(&args(
            "loadgen --trace t.fgt --chaos --chaos-net --fault-every 48",
        ))
        .unwrap();
        assert!(p.chaos && p.chaos_net);
        assert!(p.out_of_scope_flags().is_empty());

        // Journal/admission flags are router-only; --upstream is
        // chaos-net-only; --chaos-net belongs to loadgen.
        let p = parse(&args("serve --journal-dir /tmp/j")).unwrap();
        assert_eq!(p.out_of_scope_flags(), vec!["--journal-dir"]);
        let p = parse(&args("serve --max-live-sessions 4")).unwrap();
        assert_eq!(p.out_of_scope_flags(), vec!["--max-live-sessions"]);
        let p = parse(&args("loadgen --trace t.fgt --upstream a:1")).unwrap();
        assert_eq!(p.out_of_scope_flags(), vec!["--upstream"]);
        let p = parse(&args("client --trace t.fgt --chaos-net")).unwrap();
        assert_eq!(p.out_of_scope_flags(), vec!["--chaos-net"]);
        assert!(matches!(
            parse(&args("serve --idle-timeout 0")),
            Err(ArgError::Bad(_))
        ));
        assert!(matches!(
            parse(&args("router --max-buffered-mb 0")),
            Err(ArgError::Bad(_))
        ));
    }

    #[test]
    fn scope_violations_are_reported() {
        let p = parse(&args("fig10 --ucores 8,12 --insts 2000")).unwrap();
        assert_eq!(p.out_of_scope_flags(), vec!["--ucores"]);
        let p = parse(&args("serve --sessions 4")).unwrap();
        assert_eq!(p.out_of_scope_flags(), vec!["--sessions"]);
        let p = parse(&args("trace replay --trace t.fgt --insts 5")).unwrap();
        assert_eq!(p.out_of_scope_flags(), vec!["--insts"]);
        let p = parse(&args("client --workloads all --trace t.fgt")).unwrap();
        assert_eq!(p.out_of_scope_flags(), vec!["--workloads"]);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(matches!(
            parse(&args("fig7a --insts")),
            Err(ArgError::Bad(_))
        ));
        assert!(matches!(
            parse(&args("fig7a --insts banana")),
            Err(ArgError::Bad(_))
        ));
        assert!(matches!(
            parse(&args("fig7a --jobs 0")),
            Err(ArgError::Bad(_))
        ));
        assert!(matches!(
            parse(&args("fig7a --wat 1")),
            Err(ArgError::Bad(_))
        ));
        // Flags of removed features are unknown, not silently accepted.
        for flag in [
            "--pipeline",
            "--warmup",
            "--samples",
            "--scenario",
            "--baseline",
            "--check",
            "--profile",
        ] {
            assert!(matches!(
                parse(&args(&format!("fig7a {flag} 2"))),
                Err(ArgError::Bad(m)) if m == format!("unknown flag {flag}")
            ));
        }
        assert!(matches!(parse(&args("a b")), Err(ArgError::Bad(_))));
        assert!(matches!(
            parse(&args("loadgen --sessions 0")),
            Err(ArgError::Bad(_))
        ));
    }

    #[test]
    fn help_and_version_escapes() {
        assert!(matches!(parse(&args("")), Err(ArgError::Help)));
        assert!(matches!(parse(&args("--help")), Err(ArgError::Help)));
        assert!(matches!(parse(&args("fig7a -h")), Err(ArgError::Help)));
        assert!(matches!(parse(&args("--version")), Err(ArgError::Version)));
    }
}
