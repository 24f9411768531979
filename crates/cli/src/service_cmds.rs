//! Drivers for the streaming subcommands: `trace record`, `trace replay`,
//! `serve`, `router`, `client`, and `loadgen`.
//!
//! Each driver turns parsed flags into library calls (`fireguard-trace`
//! codec, `fireguard-soc` experiments, `fireguard-server` sessions) and
//! renders the outcome as a standard [`Report`], so `--format human|jsonl|
//! csv` works for the service layer exactly as it does for the figures.

use crate::args::Parsed;
use fireguard_bench::figures::FigOpts;
use fireguard_server::chaos::detection_keys;
use fireguard_server::{
    netem, run_chaos, run_loadgen, run_session, BackendMode, ChaosOptions, LoadgenOptions,
    NetemOptions, Sample, SessionConfig, TraceSink, WireFaults,
};
use fireguard_soc::report::percentile;
use fireguard_soc::{
    baseline_cycles, capture_events, run_fireguard_events, Cell, EngineConfig, ExperimentConfig,
    KernelId, ProgrammingModel, Report, RunResult, Table, MAX_ENGINES,
};
use fireguard_trace::codec::{self, TraceMeta};
use fireguard_trace::{AttackKind, AttackPlan, TraceInst};
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::sync::Arc;
use std::time::Duration;

/// Default service address when `--addr` is not given.
pub const DEFAULT_ADDR: &str = "127.0.0.1:4780";

/// Default `--idle-timeout` of serve and router.
const IDLE_TIMEOUT: Duration = Duration::from_secs(30);

/// Resolves a `--kernel` spelling through the plugin registry. Both the
/// accepted names and the error message come from the registry, so the
/// valid-kernel list can never go stale when a new plugin lands.
pub fn parse_kernel(s: &str) -> Result<KernelId, String> {
    fireguard_soc::parse_kernel_name(s).ok_or_else(|| {
        format!(
            "unknown kernel {:?} (expected one of: {})",
            s.trim(),
            fireguard_soc::canonical_names().join(", ")
        )
    })
}

pub fn parse_model(s: &str) -> Result<ProgrammingModel, String> {
    match s.trim().to_ascii_lowercase().as_str() {
        "conventional" => Ok(ProgrammingModel::Conventional),
        "duffs" | "duff" => Ok(ProgrammingModel::Duffs),
        "unrolled" | "unroll" => Ok(ProgrammingModel::Unrolled),
        "hybrid" | "proposed" => Ok(ProgrammingModel::Hybrid),
        other => Err(format!(
            "unknown model {other:?} (expected conventional, duffs, unrolled, or hybrid)"
        )),
    }
}

fn parse_attack_kind(s: &str) -> Result<AttackKind, String> {
    match s.trim().to_ascii_lowercase().as_str() {
        "ret-hijack" | "rethijack" | "hijack" => Ok(AttackKind::RetHijack),
        "oob" | "out-of-bounds" => Ok(AttackKind::OutOfBounds),
        "uaf" | "use-after-free" => Ok(AttackKind::UseAfterFree),
        "bounds" | "bounds-violation" => Ok(AttackKind::BoundsViolation),
        other => Err(format!(
            "unknown attack kind {other:?} (expected ret-hijack, oob, uaf, or bounds)"
        )),
    }
}

/// Resolves the `--attacks` campaign flags into an [`AttackPlan`], shared
/// by `trace record` and `sweep`. `None` when `--attacks` was not given.
pub(crate) fn attack_plan(p: &Parsed, insts: u64) -> Result<Option<AttackPlan>, String> {
    let Some(csv) = p.text("--attacks") else {
        return Ok(None);
    };
    let kinds = csv
        .split(',')
        .map(parse_attack_kind)
        .collect::<Result<Vec<_>, _>>()?;
    let count = p.num("--attack-count").unwrap_or(50);
    let start = p.num("--attack-start").unwrap_or(insts / 10);
    let end = p.num("--attack-end").unwrap_or(insts);
    if start >= end {
        return Err(format!("empty attack window [{start}, {end})"));
    }
    Ok(Some(AttackPlan::campaign(
        &kinds,
        count,
        start,
        end,
        p.num("--attack-seed").unwrap_or(1),
    )))
}

/// A PARSEC workload name (`--workload`, one `--workloads` entry).
pub fn parse_workload(s: &str) -> Result<&str, String> {
    let known = fireguard_soc::experiments::workloads();
    if known.contains(&s) {
        return Ok(s);
    }
    Err(format!(
        "unknown workload {s:?} (expected one of: {})",
        known.join(", ")
    ))
}

/// `--kernel`: a csv of registry names (default asan), or `all` for every
/// registered kernel, which the caller deploys in one system; the flag
/// says which. Shared by `sweep` and the session commands.
pub fn kernels(p: &Parsed) -> Result<(Vec<KernelId>, bool), String> {
    Ok(match p.text("--kernel") {
        None => (vec![KernelId::ASAN], false),
        Some(s) if s.trim().eq_ignore_ascii_case("all") => (
            fireguard_soc::registry().iter().map(|s| s.id()).collect(),
            true,
        ),
        Some(csv) => (
            csv.split(',').map(parse_kernel).collect::<Result<_, _>>()?,
            false,
        ),
    })
}

fn positive(s: &str) -> Option<usize> {
    s.trim().parse().ok().filter(|&n| n >= 1)
}

/// One `--ucores` point: µcores per kernel.
pub fn parse_ucores(s: &str) -> Result<EngineConfig, String> {
    positive(s)
        .map(EngineConfig::Ucores)
        .ok_or_else(|| format!("bad --ucores {s:?} (expected a positive integer)"))
}

/// The µcores each of `kernels` deployed together gets without
/// `--ucores`: 4, split evenly when a wide deployment would not fit the
/// engine fabric, so `--kernel all` works out of the box.
pub fn default_ucores(kernels: usize) -> EngineConfig {
    EngineConfig::Ucores((MAX_ENGINES / kernels).clamp(1, 4))
}

/// One `--filter-width` point.
pub fn parse_filter_width(s: &str) -> Result<usize, String> {
    positive(s).ok_or_else(|| format!("bad --filter-width {s:?} (expected a positive integer)"))
}

/// The analysis configuration shared by `trace replay`, `client` and
/// `loadgen`: one point of `sweep`'s deployment axes, so one or more
/// kernels (comma-separated; `all` = every registered kernel) on µcores
/// or HAs, plus the filter, model and mapper knobs.
/// Defaults mirror `sweep` (ASan on 4 µcores, hybrid µ-programs, 4-wide
/// filter, scalar mapper).
fn session_experiment(p: &Parsed, meta: &TraceMeta) -> Result<ExperimentConfig, String> {
    let (kinds, _) = kernels(p)?;
    let engine = match (p.text("--ucores"), p.switch("--ha")) {
        (Some(_), true) => return Err("--ucores and --ha are mutually exclusive".to_owned()),
        (Some(s), false) => parse_ucores(s)?,
        (None, true) => EngineConfig::Ha,
        (None, false) => default_ucores(kinds.len()),
    };
    let filter_width = p.text("--filter-width").map_or(Ok(4), parse_filter_width)?;
    let model = p
        .text("--model")
        .map_or(Ok(ProgrammingModel::Hybrid), parse_model)?;
    let mut cfg = ExperimentConfig::new(&meta.workload)
        .seed(meta.seed)
        .insts(meta.insts)
        .model(model)
        .filter_width(filter_width)
        .mapper_width(p.num("--mapper-width").unwrap_or(1));
    cfg.kernels = kinds.into_iter().map(|k| (k, engine)).collect();
    // Capacity and structural limits fail here as a clean CLI error — the
    // same validation a served HELLO goes through — never a panic inside
    // the system constructor.
    SessionConfig::from_experiment(&cfg, meta.baseline_cycles)
        .validate()
        .map_err(|e| format!("invalid session config: {e}"))?;
    Ok(cfg)
}

fn read_trace_file(path: &str) -> Result<(TraceMeta, Vec<TraceInst>), String> {
    let f = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    codec::read_trace(&mut BufReader::new(f)).map_err(|e| format!("cannot read {path}: {e}"))
}

/// Opens the span sink at the `--trace-out` path, if one was given.
fn trace_sink(path: Option<&str>) -> Result<Option<Arc<TraceSink>>, String> {
    match path {
        None => Ok(None),
        Some(path) => TraceSink::to_file(path)
            .map(Some)
            .map_err(|e| format!("cannot create --trace-out {path}: {e}")),
    }
}

fn engine_label(cfg: &ExperimentConfig) -> String {
    cfg.kernels
        .iter()
        .map(|(k, e)| match e {
            EngineConfig::Ucores(n) => format!("{}x{n}u", k.name()),
            EngineConfig::Ha => format!("{}xHA", k.name()),
        })
        .collect::<Vec<_>>()
        .join("+")
}

/// The one-row session/replay result table shared by `trace replay` and
/// `client`, so the two outputs cannot drift apart. `lats` must already
/// be attack-filtered and sorted ascending.
fn session_table(
    cfg: &ExperimentConfig,
    committed: u64,
    cycles: u64,
    slowdown: f64,
    packets: u64,
    detections: u64,
    lats: &[f64],
) -> Table {
    let lat_cell = |p: f64| {
        if lats.is_empty() {
            Cell::Missing
        } else {
            Cell::Float {
                v: percentile(lats, p),
                prec: 1,
            }
        }
    };
    let mut t = Table::new(&[
        ("workload", 14),
        ("engine", 12),
        ("insts", 9),
        ("cycles", 11),
        ("slowdown", 9),
        ("packets", 10),
        ("detections", 11),
        ("p50_ns", 9),
        ("p99_ns", 9),
    ]);
    t.row(vec![
        Cell::Str(cfg.workload.clone()),
        Cell::Str(engine_label(cfg)),
        Cell::Int(committed as i64),
        Cell::Int(cycles as i64),
        Cell::slowdown(slowdown),
        Cell::Int(packets as i64),
        Cell::Int(detections as i64),
        lat_cell(50.0),
        lat_cell(99.0),
    ]);
    t
}

fn result_table(cfg: &ExperimentConfig, r: &RunResult) -> Table {
    session_table(
        cfg,
        r.committed,
        r.cycles,
        r.slowdown,
        r.packets,
        r.detections.len() as u64,
        &r.attack_latencies_ns(),
    )
}

// ---- trace record ----------------------------------------------------------

pub fn record_report(p: &Parsed, opts: &FigOpts) -> Result<Report, String> {
    let (insts, seed) = (opts.insts, opts.seed);
    let workload = p
        .text("--workload")
        .ok_or("trace record requires --workload <name>")?;
    let workload = parse_workload(workload)?;
    let out_path = p
        .text("--out")
        .ok_or("trace record requires --out <file>")?;

    let mut cfg = ExperimentConfig::new(workload).seed(seed).insts(insts);
    if let Some(plan) = attack_plan(p, insts)? {
        cfg = cfg.attacks(plan);
    }
    p.finish()?;

    let base = baseline_cycles(workload, seed, insts);
    let events = capture_events(&cfg);
    let meta = TraceMeta {
        workload: workload.to_owned(),
        seed,
        insts,
        baseline_cycles: base,
        events: events.len() as u64,
    };
    let f = File::create(out_path).map_err(|e| format!("cannot create {out_path}: {e}"))?;
    let mut w = BufWriter::new(f);
    codec::write_trace(&mut w, &meta, &events).map_err(|e| format!("write failed: {e}"))?;
    let bytes = std::fs::metadata(out_path).map(|m| m.len()).unwrap_or(0);

    let mut r = Report::new();
    r.text(format!("recorded {out_path}"));
    r.blank();
    let mut t = Table::new(&[
        ("workload", 14),
        ("seed", 8),
        ("insts", 9),
        ("events", 9),
        ("baseline", 11),
        ("bytes", 10),
        ("B/event", 8),
    ]);
    t.row(vec![
        Cell::Str(workload.to_owned()),
        Cell::Int(seed as i64),
        Cell::Int(insts as i64),
        Cell::Int(events.len() as i64),
        Cell::Int(base as i64),
        Cell::Int(bytes as i64),
        Cell::Float {
            v: bytes as f64 / events.len().max(1) as f64,
            prec: 2,
        },
    ]);
    r.table(t);
    Ok(r)
}

// ---- trace replay ----------------------------------------------------------

pub fn replay_report(p: &Parsed) -> Result<Report, String> {
    let path = p
        .text("--trace")
        .ok_or("trace replay requires --trace <file>")?;
    let (meta, events) = read_trace_file(path)?;
    let cfg = session_experiment(p, &meta)?;
    p.finish()?;
    let result = run_fireguard_events(&cfg, events, meta.baseline_cycles);

    let mut r = Report::new();
    r.text(format!(
        "replay of {path}: {} events, commit budget {}",
        meta.events, meta.insts
    ));
    r.blank();
    r.table(result_table(&cfg, &result));
    Ok(r)
}

// ---- client ----------------------------------------------------------------

pub fn client_report(p: &Parsed) -> Result<Report, String> {
    let path = p.text("--trace").ok_or("client requires --trace <file>")?;
    let addr = p.text("--addr").unwrap_or(DEFAULT_ADDR);
    let (meta, events) = read_trace_file(path)?;
    let cfg = session_experiment(p, &meta)?;
    let session = SessionConfig::from_experiment(&cfg, meta.baseline_cycles);
    let batch = p.num("--batch").unwrap_or(fireguard_server::DEFAULT_BATCH);
    let trace_out = p.text("--trace-out");
    p.finish()?;
    let trace = trace_sink(trace_out)?;
    let out = run_session(addr, &session, Arc::new(events), batch)
        .map_err(|e| format!("session against {addr} failed: {e}"))?;
    // The client-side timeline entry: one span summarising the session as
    // this end observed it (the server's sink holds the per-batch detail).
    if let Some(sink) = &trace {
        sink.emit(
            "client.session",
            None,
            vec![
                ("addr", addr.into()),
                ("events_sent", out.events_sent.into()),
                ("wall_ms", (out.wall.as_secs_f64() * 1e3).into()),
                ("alarms", (out.alarms.len() as u64).into()),
            ],
        );
    }

    let lats: Vec<f64> = {
        let mut v: Vec<f64> = out
            .alarms
            .iter()
            .filter(|d| d.attack)
            .map(|d| d.latency_ns)
            .collect();
        v.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        v
    };
    let mut r = Report::new();
    r.text(format!(
        "session against {addr}: {} events streamed in {:.1} ms",
        out.events_sent,
        out.wall.as_secs_f64() * 1e3
    ));
    r.blank();
    r.table(session_table(
        &cfg,
        out.summary.committed,
        out.summary.cycles,
        out.summary.slowdown,
        out.summary.packets,
        out.summary.detections,
        &lats,
    ));
    Ok(r)
}

// ---- loadgen ---------------------------------------------------------------

pub fn loadgen_report(p: &Parsed) -> Result<Report, String> {
    let path = p.text("--trace").ok_or("loadgen requires --trace <file>")?;
    // --chaos-net layers the seeded wire-fault proxy onto the chaos
    // fleet, so the gate asserts parity while the network lies too.
    if p.switch("--chaos") || p.switch("--chaos-net") {
        return chaos_report(p, path);
    }
    let addr = p.text("--addr").unwrap_or(DEFAULT_ADDR);
    let sessions = p.num("--sessions").unwrap_or(4);
    let concurrency = p
        .num("--jobs")
        .unwrap_or_else(fireguard_soc::default_workers);
    let (meta, events) = read_trace_file(path)?;
    let cfg = session_experiment(p, &meta)?;
    let session = SessionConfig::from_experiment(&cfg, meta.baseline_cycles);
    // Whether the recording carries ground-truth attacks, for the
    // zero-alarm warning below (a benign trace is *expected* to be silent).
    let has_attacks = events.iter().any(|e| e.attack.is_some());
    let mut opts = LoadgenOptions {
        sessions,
        concurrency,
        batch: p.num("--batch").unwrap_or(fireguard_server::DEFAULT_BATCH),
        duration: p.seconds("--duration"),
        bucket: Duration::from_millis(p.num("--bucket-ms").unwrap_or(1000)),
        // Only resumable sessions draw ids from the seed.
        routed: p.switch("--routed").then(|| p.num("--seed").unwrap_or(42)),
        trace: None,
    };
    let trace_out = p.text("--trace-out");
    p.finish()?;
    opts.trace = trace_sink(trace_out)?;
    let agg = run_loadgen(addr, &session, Arc::new(events), &opts);
    if agg.ok_sessions == 0 {
        return Err(format!(
            "all sessions failed: {}",
            agg.first_error.unwrap_or_else(|| "unknown".to_owned())
        ));
    }

    let mut r = Report::new();
    r.text(format!(
        "loadgen against {addr}: {} sessions ({} concurrent), workload {}",
        agg.ok_sessions + agg.failed_sessions,
        agg.workers,
        meta.workload
    ));
    if let Some(e) = &agg.first_error {
        r.text(format!(
            "warning: {} sessions failed; first error: {e}",
            agg.failed_sessions
        ));
    }
    if has_attacks && agg.detections == 0 {
        // The recording injects attacks yet nothing alarmed: either the
        // kernel selection cannot see this attack class, or the campaign
        // window misses every vulnerable commit (the blackscholes/
        // streamcluster shape). Loud, because a silent detector looks
        // identical to a working one in the throughput row.
        r.text(
            "warning: alarms=0 — the recording carries an attack campaign but no \
             session raised a detection (check --kernel against the attack kinds)"
                .to_owned(),
        );
    }
    if p.format() == fireguard_soc::Format::Jsonl {
        // Machine-readable runs surface the pool shape (mirrors the
        // sweep's workers= line) so throughput numbers are
        // self-documenting.
        r.text(format!("workers={}", agg.workers));
        if opts.routed.is_some() {
            r.text(format!("reconnects={}", agg.reconnects));
            r.text(format!(
                "p50_reconnect_ms={:.3} p99_reconnect_ms={:.3}",
                agg.p50_reconnect_ms, agg.p99_reconnect_ms
            ));
        }
    }
    r.blank();
    let mut t = Table::new(&[
        ("sessions", 9),
        ("failed", 7),
        ("events", 11),
        ("committed", 11),
        ("wall_ms", 9),
        ("events/s", 12),
        ("ns/event", 9),
        ("detections", 11),
        ("p50_ns", 9),
        ("p99_ns", 9),
    ]);
    t.row(vec![
        Cell::Int(agg.ok_sessions as i64),
        Cell::Int(agg.failed_sessions as i64),
        Cell::Int(agg.events as i64),
        Cell::Int(agg.committed as i64),
        Cell::Float {
            v: agg.wall.as_secs_f64() * 1e3,
            prec: 1,
        },
        Cell::Float {
            v: agg.events_per_sec,
            prec: 0,
        },
        Cell::Float {
            v: if agg.events_per_sec > 0.0 {
                1e9 / agg.events_per_sec
            } else {
                0.0
            },
            prec: 1,
        },
        Cell::Int(agg.detections as i64),
        if agg.detections == 0 {
            Cell::Missing
        } else {
            Cell::Float {
                v: agg.p50_latency_ns,
                prec: 1,
            }
        },
        if agg.detections == 0 {
            Cell::Missing
        } else {
            Cell::Float {
                v: agg.p99_latency_ns,
                prec: 1,
            }
        },
    ]);
    r.table(t);
    if agg.buckets.len() > 1 {
        r.blank();
        r.text(format!(
            "latency histogram ({} ms buckets, by session completion time):",
            opts.bucket.as_millis()
        ));
        r.table(bucket_table(&agg.buckets));
    }
    Ok(r)
}

/// The soak histogram: one row per completion-time window. Reconnect
/// latency (client-observed disconnect → resumed-ACK) rides along per
/// bucket so a soak under churn shows *when* resumes got slow, not just
/// how many happened.
fn bucket_table(buckets: &[fireguard_server::LatencyBucket]) -> Table {
    let mut t = Table::new(&[
        ("bucket_s", 9),
        ("sessions", 9),
        ("detections", 11),
        ("p50_ns", 10),
        ("p99_ns", 10),
        ("p50_wall_ms", 12),
        ("p99_wall_ms", 12),
        ("reconnects", 11),
        ("p50_rec_ms", 11),
        ("p99_rec_ms", 11),
    ]);
    for b in buckets {
        let lat = |v: f64| {
            if b.detections == 0 {
                Cell::Missing
            } else {
                Cell::Float { v, prec: 1 }
            }
        };
        let wall = |v: f64| {
            if b.sessions == 0 {
                Cell::Missing
            } else {
                Cell::Float { v, prec: 1 }
            }
        };
        let rec = |v: f64| {
            if b.reconnects == 0 {
                Cell::Missing
            } else {
                Cell::Float { v, prec: 3 }
            }
        };
        t.row(vec![
            Cell::Float {
                v: b.start.as_secs_f64(),
                prec: 1,
            },
            Cell::Int(b.sessions as i64),
            Cell::Int(b.detections as i64),
            lat(b.p50_latency_ns),
            lat(b.p99_latency_ns),
            wall(b.p50_wall_ms),
            wall(b.p99_wall_ms),
            Cell::Int(b.reconnects as i64),
            rec(b.p50_reconnect_ms),
            rec(b.p99_reconnect_ms),
        ]);
    }
    t
}

/// `loadgen --chaos`: spawn a router fleet, soak it with resumable
/// sessions while a seeded schedule kills backends, then *assert* the
/// outcome — zero lost sessions and every session's detection set
/// bit-identical to the offline run of the same recording. A violated
/// assertion is a command error (non-zero exit), because this subcommand
/// doubles as the CI chaos gate.
fn chaos_report(p: &Parsed, path: &str) -> Result<Report, String> {
    let wire_faults = p.switch("--chaos-net").then(|| {
        let d = WireFaults::default();
        WireFaults {
            fault_every: p.num("--fault-every").unwrap_or(d.fault_every),
            max_delay_ms: p.num("--max-delay-ms").unwrap_or(d.max_delay_ms),
        }
    });
    let (meta, events) = read_trace_file(path)?;
    let cfg = session_experiment(p, &meta)?;
    let session = SessionConfig::from_experiment(&cfg, meta.baseline_cycles);
    let mut opts = ChaosOptions {
        sessions: p.num("--sessions").unwrap_or(8),
        concurrency: p.num("--jobs").unwrap_or(8),
        batch: p.num("--batch").unwrap_or(fireguard_server::DEFAULT_BATCH),
        duration: p.seconds("--duration"),
        backends: p.num("--backends").unwrap_or(2),
        backend_workers: p.num("--backend-workers").unwrap_or(2),
        kills: p.num("--kills").unwrap_or(4),
        seed: p.num("--seed").unwrap_or(7),
        drop_client_after_acks: None,
        wire_faults,
        trace: None,
    };
    let trace_out = p.text("--trace-out");
    p.finish()?;
    opts.trace = trace_sink(trace_out)?;

    // The parity reference: the identical recording through the offline
    // engine (loopback tests pin offline == direct serve, so this is
    // also the direct-run reference).
    let reference = run_fireguard_events(&cfg, events.clone(), meta.baseline_cycles);
    let ref_keys = detection_keys(&reference.detections);

    let out = run_chaos(&session, Arc::new(events), &opts)
        .map_err(|e| format!("chaos setup failed: {e}"))?;
    if out.lost_sessions > 0 {
        return Err(format!(
            "chaos lost {} of {} sessions; first error: {}",
            out.lost_sessions,
            out.lost_sessions + out.ok_sessions,
            out.first_error.unwrap_or_else(|| "unknown".to_owned())
        ));
    }
    for (i, o) in out.outcomes.iter().enumerate() {
        if detection_keys(&o.outcome.alarms) != ref_keys {
            return Err(format!(
                "chaos session {i} diverged: {} alarms vs {} offline \
                 (detections must be bit-identical to a direct run)",
                o.outcome.alarms.len(),
                reference.detections.len()
            ));
        }
    }

    let mut r = Report::new();
    r.text(format!(
        "chaos: router + {} backends, {} sessions, {} kills scheduled (seed {}), workload {}",
        opts.backends, out.ok_sessions, opts.kills, opts.seed, meta.workload
    ));
    if let Some(wf) = opts.wire_faults {
        r.text(format!(
            "chaos-net: seeded wire-fault proxy interposed (fault every ~{} frames, \
             {} faults injected)",
            wf.fault_every, out.wire_faults
        ));
    }
    r.text(format!(
        "zero lost sessions; every detection set bit-identical to the offline run \
         ({} detections each)",
        reference.detections.len()
    ));
    if p.format() == fireguard_soc::Format::Jsonl {
        r.text(format!("workers={}", opts.concurrency));
        r.text(format!("backends={}", opts.backends));
        if opts.wire_faults.is_some() {
            r.text(format!("wire_faults={}", out.wire_faults));
        }
    }
    r.blank();
    let mut t = Table::new(&[
        ("sessions", 9),
        ("lost", 5),
        ("kills", 6),
        ("failovers", 10),
        ("resumes", 8),
        ("reconnects", 11),
        ("events", 11),
        ("wall_ms", 9),
        ("detections", 11),
    ]);
    t.row(vec![
        Cell::Int(out.ok_sessions as i64),
        Cell::Int(out.lost_sessions as i64),
        Cell::Int(out.kills as i64),
        Cell::Int(out.failovers as i64),
        Cell::Int(out.resumes as i64),
        Cell::Int(out.reconnects as i64),
        Cell::Int(out.events_forwarded as i64),
        Cell::Float {
            v: out.wall.as_secs_f64() * 1e3,
            prec: 1,
        },
        Cell::Int(
            out.outcomes
                .iter()
                .map(|o| o.outcome.alarms.len() as i64)
                .sum(),
        ),
    ]);
    r.table(t);
    Ok(r)
}

// ---- foreground services ---------------------------------------------------

/// A started foreground service: the lines announcing it, and the wait
/// for it to stop.
type Started = (Vec<String>, Box<dyn FnOnce()>);

/// The foreground contract serve, router and chaos-net share; returns the
/// process exit code. `opts` is the command's options read from its
/// flags, or its usage error (exit 2). [`Parsed::finish`] runs before the
/// `--trace-out` sink opens; `start` gets the options and the sink and
/// starts the service, or names the exit code and message it failed
/// with. The announcement goes to stdout, flushed, so scripts that start
/// on port 0 discover the real port.
fn run_foreground<O>(
    p: &Parsed,
    opts: Result<O, String>,
    start: impl FnOnce(O, Option<Arc<TraceSink>>) -> Result<Started, (i32, String)>,
) -> i32 {
    let fail = |code: i32, msg: String| {
        eprintln!("fireguard: {msg}");
        code
    };
    let trace_out = p.text("--trace-out");
    let opts = match opts.and_then(|o| p.finish().map(|()| o)) {
        Ok(o) => o,
        Err(e) => return fail(2, e),
    };
    let trace = match trace_sink(trace_out) {
        Ok(t) => t,
        Err(e) => return fail(1, e),
    };
    let (lines, join) = match start(opts, trace) {
        Ok(started) => started,
        Err((code, e)) => return fail(code, e),
    };
    for line in lines {
        println!("{line}");
    }
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    join();
    0
}

/// Runs the service in the foreground; returns the process exit code.
pub fn serve_cmd(p: &Parsed) -> i32 {
    let opts = fireguard_server::ServeOptions {
        addr: p.text("--addr").unwrap_or(DEFAULT_ADDR).to_owned(),
        workers: p
            .num("--workers")
            .unwrap_or_else(fireguard_soc::default_workers),
        max_sessions: p.num("--max-sessions"),
        metrics_addr: p.text("--metrics-addr").map(str::to_owned),
        idle_timeout: p.seconds("--idle-timeout").unwrap_or(IDLE_TIMEOUT),
        trace: None,
    };
    run_foreground(p, Ok(opts), |mut opts, trace| {
        opts.trace = trace;
        let workers = opts.workers;
        let handle = fireguard_server::serve(opts).map_err(|e| (1, format!("cannot bind: {e}")))?;
        let mut lines = vec![format!(
            "fireguard-serve: listening on {} ({workers} workers)",
            handle.local_addr()
        )];
        // The metrics endpoint follows the same contract: announce the
        // bound address so a scraper started against port 0 can find it.
        if let Some(m) = handle.metrics_addr() {
            lines.push(format!("fireguard-serve: metrics on {m}"));
        }
        Ok((lines, Box::new(move || handle.join())))
    })
}

// ---- router ----------------------------------------------------------------

/// Default router address when `--addr` is not given (one past serve's).
pub const DEFAULT_ROUTER_ADDR: &str = "127.0.0.1:4781";

/// Runs the router tier in the foreground; returns the process exit code.
pub fn router_cmd(p: &Parsed) -> i32 {
    let fleet = match (p.num("--backends"), p.text("--backend-addrs")) {
        (Some(_), Some(_)) => {
            Err("--backends (spawn) and --backend-addrs (extern) are mutually exclusive".to_owned())
        }
        // Extern backends are never spawned: there are no workers to size.
        (_, Some(csv)) => {
            let addrs = csv.split(',').map(|s| s.trim().to_owned()).collect();
            Ok((BackendMode::Extern(addrs), None))
        }
        (n, None) => Ok((
            BackendMode::Spawn(n.unwrap_or(2)),
            p.num("--backend-workers"),
        )),
    };
    let opts = fleet.map(|(backends, workers)| fireguard_server::RouterOptions {
        addr: p.text("--addr").unwrap_or(DEFAULT_ROUTER_ADDR).to_owned(),
        backends,
        backend_workers: workers.unwrap_or(2),
        max_sessions: p.num("--max-sessions"),
        metrics_addr: p.text("--metrics-addr").map(str::to_owned),
        idle_timeout: p.seconds("--idle-timeout").unwrap_or(IDLE_TIMEOUT),
        max_live_sessions: p.num("--max-live-sessions"),
        max_buffered_bytes: p
            .num("--max-buffered-mb")
            .map(|mb: u64| mb.saturating_mul(1 << 20)),
        journal_dir: p.text("--journal-dir").map(std::path::PathBuf::from),
        ..fireguard_server::RouterOptions::default()
    });
    run_foreground(p, opts, |mut opts, trace| {
        opts.trace = trace;
        let handle =
            fireguard_server::route(opts).map_err(|e| (1, format!("cannot start router: {e}")))?;
        let mut lines = vec![format!(
            "fireguard-router: listening on {} ({} backends)",
            handle.local_addr(),
            handle.backends()
        )];
        if let Some(m) = handle.metrics_addr() {
            lines.push(format!("fireguard-router: metrics on {m}"));
        }
        for (slot, addr) in handle.backend_addrs().iter().enumerate() {
            lines.push(match addr {
                Some(a) => format!("fireguard-router: backend {slot} at {a}"),
                None => format!("fireguard-router: backend {slot} down"),
            });
        }
        Ok((lines, Box::new(move || handle.join())))
    })
}

// ---- chaos-net -------------------------------------------------------------

/// Default chaos-net listen address when `--addr` is not given (one past
/// the router's).
pub const DEFAULT_NETEM_ADDR: &str = "127.0.0.1:4782";

/// Runs the seeded wire-fault proxy in the foreground; returns the
/// process exit code. Clients dial this address instead of the upstream
/// router/serve; the proxy relays frames and injects seeded faults
/// (drops, delays, duplicates, truncations, corruptions, disconnects).
pub fn chaos_net_cmd(p: &Parsed) -> i32 {
    let upstream = p
        .text("--upstream")
        .ok_or_else(|| "chaos-net requires --upstream <host:port> (the honest address)".to_owned());
    let opts = upstream.map(|upstream| {
        let defaults = NetemOptions::default();
        NetemOptions {
            listen: p.text("--addr").unwrap_or(DEFAULT_NETEM_ADDR).to_owned(),
            upstream: upstream.to_owned(),
            seed: p.num("--seed").unwrap_or(defaults.seed),
            fault_every: p.num("--fault-every").unwrap_or(defaults.fault_every),
            max_delay_ms: p.num("--max-delay-ms").unwrap_or(defaults.max_delay_ms),
            trace: None,
        }
    });
    run_foreground(p, opts, |mut opts, trace| {
        opts.trace = trace;
        let (seed, fault_every, upstream) = (opts.seed, opts.fault_every, opts.upstream.clone());
        let handle = netem(opts).map_err(|e| (1, format!("cannot bind chaos-net proxy: {e}")))?;
        let line = format!(
            "fireguard-chaos-net: listening on {} -> {upstream} \
             (seed {seed}, fault every ~{fault_every} frames)",
            handle.local_addr()
        );
        Ok((vec![line], Box::new(move || handle.join())))
    })
}

// ---- stats -----------------------------------------------------------------

/// Sums every sample named `name` in a scrape (across label sets), or
/// `None` when the endpoint does not emit the series at all — so a serve
/// scrape renders `-` for router-only series instead of a fake zero.
fn series_total(samples: &[Sample], name: &str) -> Option<u64> {
    let mut any = false;
    let mut total = 0u64;
    for s in samples.iter().filter(|s| s.name == name) {
        any = true;
        total += s.count();
    }
    any.then_some(total)
}

/// `fireguard stats`: scrape one or more live `--metrics-addr` endpoints
/// (comma-separated in `--addr`; serve and router mix freely) and render
/// per-target health plus the fleet-wide per-kernel packet/verdict/alarm
/// aggregate. A router scrape already folds its spawned backends in
/// (`backend`-labelled series), so scraping a router counts its whole
/// fleet.
pub fn stats_report(p: &Parsed) -> Result<Report, String> {
    let spec = p.text("--addr").ok_or(
        "stats requires --addr <host:port[,host:port,...]> naming one or more \
         --metrics-addr endpoints",
    )?;
    let targets: Vec<&str> = spec
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .collect();
    if targets.is_empty() {
        return Err("stats: --addr named no endpoints".to_owned());
    }
    p.finish()?;
    let mut scrapes: Vec<(&str, Vec<Sample>)> = Vec::new();
    for t in &targets {
        let samples =
            fireguard_server::scrape(t).map_err(|e| format!("scrape of {t} failed: {e}"))?;
        scrapes.push((t, samples));
    }
    let series: usize = scrapes.iter().map(|(_, s)| s.len()).sum();

    let mut r = Report::new();
    r.text(format!(
        "stats: {} endpoint{} scraped, {series} series",
        targets.len(),
        if targets.len() == 1 { "" } else { "s" }
    ));
    r.blank();

    // Per-target health: session/event/alarm totals, plus the router-only
    // series where the endpoint emits them.
    let target_col = targets.iter().map(|t| t.len()).max().unwrap_or(0).max(8);
    let mut t = Table::new(&[
        ("target", target_col),
        ("sessions", 9),
        ("completed", 10),
        ("failed", 7),
        ("events", 12),
        ("alarms", 8),
        ("failovers", 10),
        ("resumes", 8),
        ("backends_up", 12),
    ]);
    let opt = |v: Option<u64>| match v {
        Some(n) => Cell::Int(n as i64),
        None => Cell::Missing,
    };
    for (target, samples) in &scrapes {
        t.row(vec![
            Cell::Str((*target).to_owned()),
            opt(series_total(samples, "fireguard_sessions_started_total")),
            opt(series_total(samples, "fireguard_sessions_completed_total")),
            opt(series_total(samples, "fireguard_sessions_failed_total")),
            opt(series_total(samples, "fireguard_events_total")),
            opt(series_total(samples, "fireguard_alarms_total")),
            opt(series_total(samples, "fireguard_router_failovers_total")),
            opt(series_total(samples, "fireguard_router_resumes_total")),
            opt(series_total(samples, "fireguard_router_backends_up")),
        ]);
    }
    r.table(t);

    // The fleet-wide per-kernel aggregate: packets/verdicts/alarms summed
    // over every target and backend label, keyed by the registry's
    // canonical kernel name and presented in registry order.
    let mut tallies: Vec<(String, [u64; 3])> = Vec::new();
    for (_, samples) in &scrapes {
        for s in samples {
            let col = match s.name.as_str() {
                "fireguard_kernel_packets_total" => 0,
                "fireguard_kernel_verdicts_total" => 1,
                "fireguard_kernel_alarms_total" => 2,
                _ => continue,
            };
            let kernel = s.label_value("kernel").unwrap_or("unknown").to_owned();
            match tallies.iter_mut().find(|(k, _)| *k == kernel) {
                Some((_, row)) => row[col] += s.count(),
                None => {
                    let mut row = [0u64; 3];
                    row[col] = s.count();
                    tallies.push((kernel, row));
                }
            }
        }
    }
    let canonical = fireguard_soc::canonical_names();
    tallies.sort_by_key(|(k, _)| {
        canonical
            .iter()
            .position(|c| c == k)
            .unwrap_or(canonical.len())
    });
    r.blank();
    if tallies.is_empty() {
        r.text("no per-kernel traffic yet (run a session, then scrape again)");
    } else {
        r.text("per-kernel fleet aggregate:");
        let kernel_col = tallies
            .iter()
            .map(|(k, _)| k.len())
            .max()
            .unwrap_or(0)
            .max(8);
        let mut k = Table::new(&[
            ("kernel", kernel_col),
            ("packets", 12),
            ("verdicts", 10),
            ("alarms", 8),
        ]);
        for (kernel, [packets, verdicts, alarms]) in &tallies {
            k.row(vec![
                Cell::Str(kernel.clone()),
                Cell::Int(*packets as i64),
                Cell::Int(*verdicts as i64),
                Cell::Int(*alarms as i64),
            ]);
        }
        r.table(k);
    }
    Ok(r)
}
