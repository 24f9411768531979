//! Hand-rolled argument parsing for the `fireguard` CLI.
//!
//! The container is offline-vendored, so no `clap`: a small parser that
//! supports `--flag value` and `--flag=value`, one- and two-word
//! subcommands (`fig7a`, `trace record`), and `help`/`--help`/`-h`/
//! `--version` escapes.
//!
//! Every flag is declared once, as a row of [`FLAGS`]: its canonical
//! name, aliases, value kind and *scope*, the subcommands it applies to.
//! `parse` looks a flag up before it takes a value, checks the value by
//! kind and keeps it under the canonical name; commands read it back
//! through the typed getters ([`Parsed::switch`], [`Parsed::text`],
//! [`Parsed::num`], [`Parsed::seconds`]). Out-of-scope flags are rejected
//! with a message, never silently ignored. A new flag is one `FLAGS` row
//! plus the getter call that reads it (and its line in `usage`).

use fireguard_soc::Format;
use std::time::Duration;
use Kind::{Count, Positive, Seconds, Switch, Text};

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

/// How a flag's value is taken and checked.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Takes no value; on when given.
    Switch,
    /// Free text: a path, an address or a csv list.
    Text,
    /// An unsigned integer.
    Count,
    /// An integer of at least 1.
    Positive,
    /// A positive number of seconds that a `Duration` can hold.
    Seconds,
    /// An output format: `human`, `jsonl` or `csv`.
    Format,
}

/// One flag: canonical name, aliases, value kind, and the subcommands it
/// applies to ([`FIG`] for every figure, [`ALL`] for every subcommand).
pub type Flag = (
    &'static str,
    &'static [&'static str],
    Kind,
    &'static [&'static str],
);

/// Scope marker: every figure/table subcommand (any name that is not a
/// [`crate::COMMANDS`] row).
const FIG: &str = "<figure>";
/// Scope marker: every subcommand.
const ALL: &str = "<all>";

/// The subcommands that analyse a `.fgt` recording.
const SESSION: &[&str] = &["trace replay", "client", "loadgen"];
/// The subcommands that deploy kernels on engines: a sweep and every
/// [`SESSION`] command.
const DEPLOY: &[&str] = &["sweep", "trace replay", "client", "loadgen"];
/// The subcommands that take an attack campaign: a sweep runs it at every
/// grid point, so silent configurations show in the detections column.
const CAMPAIGN: &[&str] = &["trace record", "sweep"];

/// Every flag the CLI accepts.
pub const FLAGS: &[Flag] = &[
    ("--format", &[], Kind::Format, &[ALL]),
    ("--insts", &[], Positive, &[FIG, "sweep", "trace record"]),
    ("--quick", &[], Switch, &[FIG, "sweep", "trace record"]),
    // loadgen: the routed session ids and the chaos kill schedule;
    // chaos-net: the per-connection fault schedule.
    (
        "--seed",
        &[],
        Count,
        &[FIG, "sweep", "trace record", "loadgen", "chaos-net"],
    ),
    ("--jobs", &[], Positive, &[FIG, "sweep", "loadgen"]),
    ("--workloads", &[], Text, &["sweep"]),
    ("--kernel", &["--kernels"], Text, DEPLOY),
    ("--ucores", &[], Text, DEPLOY),
    ("--ha", &[], Switch, DEPLOY),
    ("--filter-width", &["--filter-widths"], Text, DEPLOY),
    ("--model", &["--models"], Text, DEPLOY),
    ("--mapper-width", &[], Positive, SESSION),
    (
        "--addr",
        &[],
        Text,
        &["serve", "router", "client", "loadgen", "stats", "chaos-net"],
    ),
    ("--metrics-addr", &[], Text, &["serve", "router"]),
    (
        "--trace-out",
        &[],
        Text,
        &["serve", "router", "client", "loadgen", "chaos-net"],
    ),
    ("--workers", &[], Positive, &["serve"]),
    ("--max-sessions", &[], Count, &["serve", "router"]),
    ("--idle-timeout", &[], Seconds, &["serve", "router"]),
    ("--journal-dir", &[], Text, &["router"]),
    ("--max-live-sessions", &[], Count, &["router"]),
    ("--max-buffered-mb", &[], Positive, &["router"]),
    ("--chaos-net", &[], Switch, &["loadgen"]),
    ("--fault-every", &[], Count, &["loadgen", "chaos-net"]),
    ("--max-delay-ms", &[], Count, &["loadgen", "chaos-net"]),
    ("--upstream", &[], Text, &["chaos-net"]),
    ("--sessions", &[], Positive, &["loadgen"]),
    ("--duration", &[], Seconds, &["loadgen"]),
    ("--bucket-ms", &[], Positive, &["loadgen"]),
    ("--chaos", &[], Switch, &["loadgen"]),
    ("--routed", &[], Switch, &["loadgen"]),
    ("--backends", &[], Positive, &["router", "loadgen"]),
    ("--backend-addrs", &[], Text, &["router"]),
    ("--backend-workers", &[], Positive, &["router", "loadgen"]),
    ("--kills", &[], Count, &["loadgen"]),
    ("--out", &[], Text, &["trace record"]),
    ("--trace", &[], Text, SESSION),
    ("--workload", &[], Text, &["trace record"]),
    ("--attacks", &[], Text, CAMPAIGN),
    ("--attack-count", &[], Positive, CAMPAIGN),
    ("--attack-start", &[], Count, CAMPAIGN),
    ("--attack-end", &[], Count, CAMPAIGN),
    ("--attack-seed", &[], Count, CAMPAIGN),
    ("--batch", &[], Positive, &["client", "loadgen"]),
];

/// A flag's checked value.
#[derive(Debug)]
enum Value {
    On,
    Text(String),
    Num(u64),
    Seconds(Duration),
    Format(Format),
}

/// The parsed command line.
#[derive(Debug)]
pub struct Parsed {
    /// The subcommand: a figure name, a [`crate::COMMANDS`] name, or an
    /// unknown word that `run` refuses.
    pub command: String,
    /// Every flag given, with its checked value; a repeated flag keeps its
    /// first place and its last value.
    values: Vec<(&'static Flag, Value)>,
}

impl Parsed {
    /// The value given for `name`, which must be a canonical `FLAGS` name
    /// of one of `kinds` (any kind when `kinds` is empty).
    fn get(&self, name: &str, kinds: &[Kind]) -> Option<&Value> {
        debug_assert!(
            FLAGS
                .iter()
                .any(|f| f.0 == name && (kinds.is_empty() || kinds.contains(&f.2))),
            "{name} is not a declared {kinds:?} flag"
        );
        self.values
            .iter()
            .find(|(f, _)| f.0 == name)
            .map(|(_, v)| v)
    }

    /// Whether switch `name` was given.
    pub fn switch(&self, name: &str) -> bool {
        self.get(name, &[Switch]).is_some()
    }

    /// The text given for `name`.
    pub fn text(&self, name: &str) -> Option<&str> {
        match self.get(name, &[Text])? {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// The number given for `name`, a count or positive flag. Values are
    /// checked as `u64`, which `usize` holds on the 64-bit hosts the
    /// simulator runs on.
    pub fn num<T: TryFrom<u64>>(&self, name: &str) -> Option<T> {
        match self.get(name, &[Count, Positive])? {
            Value::Num(n) => T::try_from(*n).ok(),
            _ => None,
        }
    }

    /// The duration given for `name`, a seconds flag.
    pub fn seconds(&self, name: &str) -> Option<Duration> {
        match self.get(name, &[Seconds])? {
            Value::Seconds(d) => Some(*d),
            _ => None,
        }
    }

    /// The `--format` given, human by default.
    pub fn format(&self) -> Format {
        match self.get("--format", &[Kind::Format]) {
            Some(Value::Format(f)) => *f,
            _ => Format::Human,
        }
    }

    /// Refuses the first of `flags` that was given, as requiring `needed`:
    /// without that mode it would be silently ignored.
    pub fn require(&self, flags: &[&str], needed: &str) -> Result<(), String> {
        match flags.iter().find(|name| self.get(name, &[]).is_some()) {
            Some(name) => Err(format!("{name} requires {needed}")),
            None => Ok(()),
        }
    }

    /// The given flags that do not apply to `self.command`, by name — so
    /// commands can reject them instead of silently ignoring them.
    pub fn out_of_scope_flags(&self) -> Vec<&'static str> {
        let figure = !crate::COMMANDS.iter().any(|c| c.0 == self.command);
        let applies = |s: &&str| *s == ALL || *s == self.command || (*s == FIG && figure);
        self.values
            .iter()
            .filter(|(f, _)| !f.3.iter().any(applies))
            .map(|(f, _)| f.0)
            .collect()
    }
}

/// Parses `argv` (without the program name).
pub fn parse(argv: &[String]) -> Result<Parsed, ArgError> {
    let bad = |msg: String| Err(ArgError::Bad(msg));
    let mut values: Vec<(&'static Flag, Value)> = Vec::new();
    let mut words: Vec<&str> = Vec::new();
    let mut it = argv.iter().map(String::as_str);
    while let Some(arg) = it.next() {
        match arg {
            "help" | "--help" | "-h" => return Err(ArgError::Help),
            "--version" | "-V" => return Err(ArgError::Version),
            _ if !arg.starts_with("--") => words.push(arg),
            _ => {
                let (given, inline) = match arg.split_once('=') {
                    Some((name, value)) => (name, Some(value)),
                    None => (arg, None),
                };
                let Some(flag) = FLAGS.iter().find(|f| f.0 == given || f.1.contains(&given)) else {
                    return bad(format!("unknown flag {given}"));
                };
                let value = match (flag.2, inline) {
                    (Switch, None) => Value::On,
                    (Switch, Some(_)) => return bad(format!("flag {given} takes no value")),
                    (kind, inline) => match inline.or_else(|| it.next()) {
                        Some(v) => check(kind, given, v).map_err(ArgError::Bad)?,
                        None => return bad(format!("flag {arg} expects a value")),
                    },
                };
                match values.iter_mut().find(|(f, _)| f.0 == flag.0) {
                    Some(slot) => slot.1 = value,
                    None => values.push((flag, value)),
                }
            }
        }
    }

    let (command, extra) = match words.as_slice() {
        [] => return Err(ArgError::Help),
        ["trace"] => {
            return bad(
                "trace expects a sub-subcommand: `fireguard trace record` or \
                 `fireguard trace replay`"
                    .to_owned(),
            )
        }
        ["trace", sub @ ("record" | "replay"), extra @ ..] => (format!("trace {sub}"), extra),
        ["trace", other, ..] => {
            return bad(format!(
                "unknown trace subcommand {other:?} (expected record or replay)"
            ))
        }
        [cmd, extra @ ..] => ((*cmd).to_owned(), extra),
    };
    if let Some(word) = extra.first() {
        return bad(format!(
            "expected one subcommand, got {command:?} and {word:?}"
        ));
    }
    Ok(Parsed { command, values })
}

/// Checks `value` for a flag of `kind`, given as `name`.
fn check(kind: Kind, name: &str, value: &str) -> Result<Value, String> {
    let expects = || format!("flag {name} expects a number, got {value:?}");
    Ok(match kind {
        Switch => Value::On,
        Text => Value::Text(value.to_owned()),
        Count => Value::Num(value.parse().map_err(|_| expects())?),
        Positive => match value.parse().map_err(|_| expects())? {
            0 => return Err(format!("{name} must be at least 1")),
            n => Value::Num(n),
        },
        Seconds => {
            let secs: f64 = value.parse().map_err(|_| expects())?;
            match Duration::try_from_secs_f64(secs) {
                Ok(d) if secs > 0.0 => Value::Seconds(d),
                _ => return Err(format!("{name} must be a positive number of seconds")),
            }
        }
        Kind::Format => Value::Format(value.parse()?),
    })
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
        assert_eq!(p.num("--insts"), Some(2000u64));
        assert_eq!(p.num("--jobs"), Some(4usize));
        assert_eq!(p.format(), Format::Csv);
        assert!(p.out_of_scope_flags().is_empty());
    }

    #[test]
    fn equals_syntax_and_sweep_flags() {
        let p = parse(&args("sweep --kernel=asan,pmc --ucores=2,4 --ha --quick")).unwrap();
        assert_eq!(p.command, "sweep");
        assert_eq!(p.text("--kernel"), Some("asan,pmc"));
        assert_eq!(p.text("--ucores"), Some("2,4"));
        assert!(p.switch("--ha"));
        assert!(p.switch("--quick"));
        assert!(p.out_of_scope_flags().is_empty());
    }

    #[test]
    fn two_word_trace_subcommands() {
        let p = parse(&args(
            "trace record --workload x264 --out /tmp/x.fgt --insts 2000",
        ))
        .unwrap();
        assert_eq!(p.command, "trace record");
        assert_eq!(p.text("--workload"), Some("x264"));
        assert_eq!(p.text("--out"), Some("/tmp/x.fgt"));
        assert!(p.out_of_scope_flags().is_empty());

        let p = parse(&args("trace replay --trace /tmp/x.fgt --kernel asan")).unwrap();
        assert_eq!(p.command, "trace replay");
        assert_eq!(p.text("--trace"), Some("/tmp/x.fgt"));

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
        assert_eq!(p.text("--addr"), Some("127.0.0.1:4780"));
        assert_eq!(p.num("--sessions"), Some(4usize));
        assert_eq!(p.num("--batch"), Some(256usize));
        assert!(p.out_of_scope_flags().is_empty());
    }

    #[test]
    fn router_and_chaos_flags_parse() {
        let p = parse(&args(
            "router --addr 127.0.0.1:0 --backends 3 --backend-workers 2 --max-sessions 8",
        ))
        .unwrap();
        assert_eq!(p.command, "router");
        assert_eq!(p.num("--backends"), Some(3usize));
        assert_eq!(p.num("--backend-workers"), Some(2usize));
        assert_eq!(p.num("--max-sessions"), Some(8u64));
        assert!(p.out_of_scope_flags().is_empty());

        let p = parse(&args(
            "loadgen --trace t.fgt --sessions 8 --chaos --kills 4 --duration 2.5 \
             --bucket-ms 250 --seed 11 --backends 2",
        ))
        .unwrap();
        assert!(p.switch("--chaos"));
        assert_eq!(p.num("--kills"), Some(4usize));
        assert_eq!(p.seconds("--duration"), Some(Duration::from_secs_f64(2.5)));
        assert_eq!(p.num("--bucket-ms"), Some(250u64));
        assert_eq!(p.num("--seed"), Some(11u64));
        assert!(p.out_of_scope_flags().is_empty());

        let p = parse(&args("loadgen --trace t.fgt --routed --addr 127.0.0.1:9")).unwrap();
        assert!(p.switch("--routed"));
        assert!(p.out_of_scope_flags().is_empty());
    }

    #[test]
    fn telemetry_flags_parse_and_have_scopes() {
        let p = parse(&args(
            "serve --addr 127.0.0.1:0 --metrics-addr 127.0.0.1:9900 --trace-out /tmp/s.jsonl",
        ))
        .unwrap();
        assert_eq!(p.text("--metrics-addr"), Some("127.0.0.1:9900"));
        assert_eq!(p.text("--trace-out"), Some("/tmp/s.jsonl"));
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
             --idle-timeout 2.5",
        ))
        .unwrap();
        assert_eq!(p.text("--journal-dir"), Some("/tmp/j"));
        assert_eq!(p.num("--max-live-sessions"), Some(64u64));
        assert_eq!(p.num("--max-buffered-mb"), Some(128u64));
        assert_eq!(
            p.seconds("--idle-timeout"),
            Some(Duration::from_secs_f64(2.5))
        );
        assert!(p.out_of_scope_flags().is_empty());

        let p = parse(&args(
            "chaos-net --upstream 127.0.0.1:4781 --addr 127.0.0.1:0 \
             --seed 9 --fault-every 32 --max-delay-ms 3",
        ))
        .unwrap();
        assert_eq!(p.command, "chaos-net");
        assert_eq!(p.text("--upstream"), Some("127.0.0.1:4781"));
        assert_eq!(p.num("--fault-every"), Some(32u64));
        assert_eq!(p.num("--max-delay-ms"), Some(3u64));
        assert!(p.out_of_scope_flags().is_empty());

        let p = parse(&args(
            "loadgen --trace t.fgt --chaos --chaos-net --fault-every 48",
        ))
        .unwrap();
        assert!(p.switch("--chaos") && p.switch("--chaos-net"));
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

    #[test]
    fn every_flag_is_declared_once_with_a_known_scope() {
        let mut spellings: Vec<&str> = Vec::new();
        for (name, aliases, _, scope) in FLAGS {
            for spelling in std::iter::once(name).chain(aliases.iter()) {
                assert!(spelling.starts_with("--"), "{spelling}");
                assert!(
                    !spellings.contains(spelling),
                    "{spelling} is declared twice"
                );
                spellings.push(spelling);
            }
            for s in *scope {
                let known = [FIG, ALL].contains(s) || crate::COMMANDS.iter().any(|c| c.0 == *s);
                assert!(known, "{name} names an unknown subcommand {s:?}");
            }
        }
    }

    #[test]
    fn unrepresentable_seconds_are_refused() {
        for (cmd, flag) in [
            ("serve --idle-timeout 1e20", "--idle-timeout"),
            ("router --idle-timeout 1e20", "--idle-timeout"),
            ("loadgen --duration 1e20", "--duration"),
        ] {
            assert!(
                matches!(parse(&args(cmd)), Err(ArgError::Bad(m))
                    if m == format!("{flag} must be a positive number of seconds")),
                "{cmd}"
            );
        }
        // A `Duration` holds 1e19 s, so that still parses.
        let p = parse(&args("router --idle-timeout 1e19")).unwrap();
        assert_eq!(
            p.seconds("--idle-timeout"),
            Some(Duration::from_secs_f64(1e19))
        );
    }

    #[test]
    fn a_trailing_unknown_flag_is_unknown_not_valueless() {
        assert!(matches!(
            parse(&args("table2 --bogus")),
            Err(ArgError::Bad(m)) if m == "unknown flag --bogus"
        ));
    }

    #[test]
    fn a_switch_given_a_value_is_refused() {
        for (cmd, flag) in [("table2 --quick=1", "--quick"), ("sweep --ha=yes", "--ha")] {
            assert!(
                matches!(parse(&args(cmd)), Err(ArgError::Bad(m))
                    if m == format!("flag {flag} takes no value")),
                "{cmd}"
            );
        }
    }

    #[test]
    fn a_repeated_out_of_scope_flag_is_named_once() {
        let p = parse(&args("serve --insts 1 --insts 2")).unwrap();
        assert_eq!(p.out_of_scope_flags(), vec!["--insts"]);
        let p = parse(&args("fig7a --insts 1 --insts 2")).unwrap();
        assert_eq!(p.num("--insts"), Some(2u64), "the last value wins");
    }

    #[test]
    fn a_stray_word_after_the_subcommand_is_named() {
        assert!(matches!(
            parse(&args("trace record extra")),
            Err(ArgError::Bad(m)) if m == r#"expected one subcommand, got "trace record" and "extra""#
        ));
    }
}
