//! Hand-rolled argument parsing for the `fireguard` CLI.
//!
//! The container is offline-vendored, so no `clap`: a small parser that
//! supports `--flag value` and `--flag=value`, one- and two-word
//! subcommands (`fig7a`, `trace record`), and `help`/`--help`/`-h`/
//! `--version` escapes.
//!
//! Every flag is declared once, as a row of [`FLAGS`]: its canonical
//! name, aliases and value kind. `parse` looks a flag up before it takes
//! a value, checks the value by kind and keeps it under the canonical
//! name; commands read it back through the typed getters
//! ([`Parsed::switch`], [`Parsed::text`], [`Parsed::num`],
//! [`Parsed::seconds`], [`Parsed::format`]), and each read marks the flag.
//! A handler reads a flag only in the mode that uses it, then calls
//! [`Parsed::finish`] before any side effect, which refuses every given
//! flag that no getter read: a flag is never silently ignored. A new flag
//! is one `FLAGS` row plus the getter call that reads it (and its line in
//! `usage`).

use fireguard_soc::Format;
use std::cell::Cell;
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

/// One flag: canonical name, aliases and value kind.
pub type Flag = (&'static str, &'static [&'static str], Kind);

/// Every flag the CLI accepts.
pub const FLAGS: &[Flag] = &[
    ("--format", &[], Kind::Format),
    ("--insts", &[], Positive),
    ("--quick", &[], Switch),
    ("--seed", &[], Count),
    ("--jobs", &[], Positive),
    ("--workloads", &[], Text),
    ("--kernel", &["--kernels"], Text),
    ("--ucores", &[], Text),
    ("--ha", &[], Switch),
    ("--filter-width", &["--filter-widths"], Text),
    ("--model", &["--models"], Text),
    ("--mapper-width", &[], Positive),
    ("--addr", &[], Text),
    ("--metrics-addr", &[], Text),
    ("--trace-out", &[], Text),
    ("--workers", &[], Positive),
    ("--max-sessions", &[], Count),
    ("--idle-timeout", &[], Seconds),
    ("--journal-dir", &[], Text),
    ("--max-live-sessions", &[], Count),
    ("--max-buffered-mb", &[], Positive),
    ("--chaos-net", &[], Switch),
    ("--fault-every", &[], Count),
    ("--max-delay-ms", &[], Count),
    ("--upstream", &[], Text),
    ("--sessions", &[], Positive),
    ("--duration", &[], Seconds),
    ("--bucket-ms", &[], Positive),
    ("--chaos", &[], Switch),
    ("--routed", &[], Switch),
    ("--backends", &[], Positive),
    ("--backend-addrs", &[], Text),
    ("--backend-workers", &[], Positive),
    ("--kills", &[], Count),
    ("--out", &[], Text),
    ("--trace", &[], Text),
    ("--workload", &[], Text),
    ("--attacks", &[], Text),
    ("--attack-count", &[], Positive),
    ("--attack-start", &[], Count),
    ("--attack-end", &[], Count),
    ("--attack-seed", &[], Count),
    ("--batch", &[], Positive),
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
    /// Every flag given, with its checked value and whether a getter has
    /// read it; a repeated flag keeps its first place and its last value.
    values: Vec<(&'static Flag, Value, Cell<bool>)>,
}

impl Parsed {
    /// The value given for `name`, which must be a canonical `FLAGS` name
    /// of one of `kinds`; marks the flag read.
    fn get(&self, name: &str, kinds: &[Kind]) -> Option<&Value> {
        debug_assert!(
            FLAGS.iter().any(|f| f.0 == name && kinds.contains(&f.2)),
            "{name} is not a declared {kinds:?} flag"
        );
        let (_, value, read) = self.values.iter().find(|(f, ..)| f.0 == name)?;
        read.set(true);
        Some(value)
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

    /// Refuses every given flag that no getter has read: this run has no
    /// use for it, and dropping it silently would hide that. A handler
    /// calls it after its last read and before any side effect.
    pub fn finish(&self) -> Result<(), String> {
        let unread: Vec<&str> = self
            .values
            .iter()
            .filter(|(.., read)| !read.get())
            .map(|(f, ..)| f.0)
            .collect();
        let verb = match unread.len() {
            0 => return Ok(()),
            1 => "does",
            _ => "do",
        };
        Err(format!(
            "{} {verb} not apply to this {} run",
            unread.join(", "),
            self.command
        ))
    }
}

/// Parses `argv` (without the program name).
pub fn parse(argv: &[String]) -> Result<Parsed, ArgError> {
    let bad = |msg: String| Err(ArgError::Bad(msg));
    let mut values: Vec<(&'static Flag, Value, Cell<bool>)> = Vec::new();
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
                match values.iter_mut().find(|(f, ..)| f.0 == flag.0) {
                    Some(slot) => slot.1 = value,
                    None => values.push((flag, value, Cell::new(false))),
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
    }

    #[test]
    fn equals_syntax_and_sweep_flags() {
        let p = parse(&args("sweep --kernel=asan,pmc --ucores=2,4 --ha --quick")).unwrap();
        assert_eq!(p.command, "sweep");
        assert_eq!(p.text("--kernel"), Some("asan,pmc"));
        assert_eq!(p.text("--ucores"), Some("2,4"));
        assert!(p.switch("--ha"));
        assert!(p.switch("--quick"));
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

        let p = parse(&args("loadgen --trace t.fgt --routed --addr 127.0.0.1:9")).unwrap();
        assert!(p.switch("--routed"));
    }

    #[test]
    fn telemetry_flags_parse_and_have_scopes() {
        let p = parse(&args(
            "serve --addr 127.0.0.1:0 --metrics-addr 127.0.0.1:9900 --trace-out /tmp/s.jsonl",
        ))
        .unwrap();
        assert_eq!(p.text("--metrics-addr"), Some("127.0.0.1:9900"));
        assert_eq!(p.text("--trace-out"), Some("/tmp/s.jsonl"));

        let p = parse(&args("stats --addr 127.0.0.1:9900,127.0.0.1:9901")).unwrap();
        assert_eq!(p.command, "stats");
        assert_eq!(p.text("--addr"), Some("127.0.0.1:9900,127.0.0.1:9901"));
    }

    #[test]
    fn router_flags_have_scopes() {
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

        let p = parse(&args(
            "chaos-net --upstream 127.0.0.1:4781 --addr 127.0.0.1:0 \
             --seed 9 --fault-every 32 --max-delay-ms 3",
        ))
        .unwrap();
        assert_eq!(p.command, "chaos-net");
        assert_eq!(p.text("--upstream"), Some("127.0.0.1:4781"));
        assert_eq!(p.num("--fault-every"), Some(32u64));
        assert_eq!(p.num("--max-delay-ms"), Some(3u64));

        let p = parse(&args(
            "loadgen --trace t.fgt --chaos --chaos-net --fault-every 48",
        ))
        .unwrap();
        assert!(p.switch("--chaos") && p.switch("--chaos-net"));
        assert_eq!(p.num("--fault-every"), Some(48u64));
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
        // A figure reads its budget and `--jobs`, never `--ucores`.
        let p = parse(&args("fig10 --ucores 8,12 --insts 2000")).unwrap();
        crate::fig_opts(&p).unwrap();
        assert_eq!(
            p.finish(),
            Err("--ucores does not apply to this fig10 run".to_owned())
        );
        let p = parse(&args("serve --sessions 4")).unwrap();
        assert_eq!(
            p.finish(),
            Err("--sessions does not apply to this serve run".to_owned())
        );
        // A session command reads `--trace` and the deployment flags; the
        // budget and the sweep grid belong to the recording.
        for (cmd, text) in [
            (
                "trace replay --trace t.fgt --insts 5",
                "--insts does not apply to this trace replay run",
            ),
            (
                "client --workloads all --trace t.fgt",
                "--workloads does not apply to this client run",
            ),
        ] {
            let p = parse(&args(cmd)).unwrap();
            assert_eq!(p.text("--trace"), Some("t.fgt"));
            assert_eq!(p.finish(), Err(text.to_owned()), "{cmd}");
        }
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
    fn every_flag_is_declared_once() {
        let mut spellings: Vec<&str> = Vec::new();
        for (name, aliases, _) in FLAGS {
            for spelling in std::iter::once(name).chain(aliases.iter()) {
                assert!(spelling.starts_with("--"), "{spelling}");
                assert!(
                    !spellings.contains(spelling),
                    "{spelling} is declared twice"
                );
                spellings.push(spelling);
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
    fn finish_passes_once_every_given_flag_is_read() {
        let p = parse(&args("fig7a --insts 2000 --format csv")).unwrap();
        assert_eq!(p.num("--insts"), Some(2000u64));
        assert_eq!(p.format(), Format::Csv);
        assert_eq!(p.finish(), Ok(()));
        assert_eq!(parse(&args("list")).unwrap().finish(), Ok(()));
    }

    #[test]
    fn finish_names_an_unread_flag_by_its_canonical_name() {
        let p = parse(&args("trace replay --trace t.fgt --kernels asan")).unwrap();
        assert_eq!(p.text("--trace"), Some("t.fgt"));
        assert_eq!(
            p.finish(),
            Err("--kernel does not apply to this trace replay run".to_owned())
        );
    }

    #[test]
    fn a_repeated_out_of_scope_flag_is_named_once() {
        let p = parse(&args("serve --insts 1 --insts 2")).unwrap();
        assert_eq!(
            p.finish(),
            Err("--insts does not apply to this serve run".to_owned())
        );
        let p = parse(&args("fig7a --insts 1 --insts 2")).unwrap();
        assert_eq!(p.num("--insts"), Some(2u64), "the last value wins");
        assert_eq!(p.finish(), Ok(()));
    }

    #[test]
    fn finish_names_every_unread_flag_in_the_order_given() {
        let p = parse(&args(
            "client --workloads all --trace t.fgt --chaos --workloads x --ha",
        ))
        .unwrap();
        assert_eq!(p.text("--trace"), Some("t.fgt"));
        assert_eq!(
            p.finish(),
            Err("--workloads, --chaos, --ha do not apply to this client run".to_owned())
        );
    }

    #[test]
    fn a_stray_word_after_the_subcommand_is_named() {
        assert!(matches!(
            parse(&args("trace record extra")),
            Err(ArgError::Bad(m)) if m == r#"expected one subcommand, got "trace record" and "extra""#
        ));
    }
}
