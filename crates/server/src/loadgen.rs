//! The load generator: N concurrent sessions against one service,
//! aggregated into throughput and detection-latency statistics.
//!
//! Parallelism here is across *live sessions*, not pre-expanded jobs: a
//! hand-rolled worker pool (atomic cursor + threads, as in
//! [`fireguard_soc::sweep`]) opens up to `concurrency` simultaneous
//! sessions and keeps opening new ones until the run's exit condition is
//! met — a session count, a soak duration, or both (each is a floor).
//!
//! Latency statistics are bucketed per completion-time window, not
//! computed once over the whole run: a soak that degrades halfway
//! through shows up as a p99 step in the affected buckets instead of
//! being averaged away (the same lesson the sweep reporting learned).

use crate::client::{run_routed_session, run_session, RoutedOptions, SessionOutcome};
use crate::net::run_pool;
use crate::proto::SessionConfig;
use fireguard_soc::report::percentile;
use fireguard_telemetry::TraceSink;
use fireguard_trace::TraceInst;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Load-generation shape: how many sessions, how hard, for how long.
#[derive(Debug, Clone)]
pub struct LoadgenOptions {
    /// Minimum sessions to run (a floor, even when `duration` is set).
    pub sessions: usize,
    /// Maximum concurrent sessions.
    pub concurrency: usize,
    /// Events per EVENTS frame.
    pub batch: usize,
    /// Soak mode: keep opening sessions until this much wall-clock has
    /// elapsed (and the `sessions` floor is met).
    pub duration: Option<Duration>,
    /// Completion-time bucket width for the latency histogram.
    pub bucket: Duration,
    /// `Some(seed)` opens resumable *routed* sessions (ticketed ids
    /// derived from the seed) instead of plain ones — required against a
    /// router under chaos, meaningless against a plain `serve`.
    pub routed: Option<u64>,
    /// Optional structured span sink (`--trace-out`); one span per
    /// session completion.
    pub trace: Option<Arc<TraceSink>>,
}

impl Default for LoadgenOptions {
    fn default() -> Self {
        LoadgenOptions {
            sessions: 4,
            concurrency: 4,
            batch: crate::client::DEFAULT_BATCH,
            duration: None,
            bucket: Duration::from_secs(1),
            routed: None,
            trace: None,
        }
    }
}

/// One completion-time window's latency statistics. A session lands in
/// the bucket its *completion* falls into; its detection latencies and
/// wall time are attributed there.
#[derive(Debug, Clone)]
pub struct LatencyBucket {
    /// Window start, as an offset from the run start.
    pub start: Duration,
    /// Sessions completing in this window.
    pub sessions: usize,
    /// True (attack) detections those sessions raised.
    pub detections: u64,
    /// Median simulated detection latency (ns) in this window.
    pub p50_latency_ns: f64,
    /// 99th-percentile simulated detection latency (ns).
    pub p99_latency_ns: f64,
    /// Median session wall time (ms) — the metric that actually moves
    /// when backends die mid-soak (simulated latencies don't).
    pub p50_wall_ms: f64,
    /// 99th-percentile session wall time (ms).
    pub p99_wall_ms: f64,
    /// Successful resumes by sessions completing in this window.
    pub reconnects: u64,
    /// Median router reconnect latency (ms): transport death to the
    /// resumed connection's ACK (0 when no reconnects landed here).
    pub p50_reconnect_ms: f64,
    /// 99th-percentile router reconnect latency (ms).
    pub p99_reconnect_ms: f64,
}

/// Aggregate outcome of a load-generation run.
#[derive(Debug, Clone)]
pub struct LoadgenOutcome {
    /// Sessions that completed successfully.
    pub ok_sessions: usize,
    /// Sessions that failed (connect/protocol/server errors).
    pub failed_sessions: usize,
    /// Total events streamed across successful sessions.
    pub events: u64,
    /// Total instructions committed server-side.
    pub committed: u64,
    /// Total detections raised.
    pub detections: u64,
    /// Wall-clock duration of the whole run.
    pub wall: Duration,
    /// Aggregate throughput: events streamed per wall-clock second.
    pub events_per_sec: f64,
    /// Median simulated detection latency (ns) across every alarm.
    pub p50_latency_ns: f64,
    /// 99th-percentile simulated detection latency (ns).
    pub p99_latency_ns: f64,
    /// Worker threads the pool actually ran.
    pub workers: usize,
    /// Transport deaths survived via resume (routed mode only).
    pub reconnects: u64,
    /// Median router reconnect latency (ms) across every resume.
    pub p50_reconnect_ms: f64,
    /// 99th-percentile router reconnect latency (ms).
    pub p99_reconnect_ms: f64,
    /// Per-completion-window latency histogram (empty windows included,
    /// so the series is contiguous from the first to the last completion).
    pub buckets: Vec<LatencyBucket>,
    /// First failure message, if any (for diagnostics).
    pub first_error: Option<String>,
}

/// Runs sessions against `addr` per `opts`, all streaming the same
/// `events` under the same `cfg`.
pub fn run_loadgen(
    addr: &str,
    cfg: &SessionConfig,
    events: Arc<Vec<TraceInst>>,
    opts: &LoadgenOptions,
) -> LoadgenOutcome {
    let started = Instant::now();
    // (outcome, reconnects survived, per-reconnect recovery latencies ms)
    type SessionResult = Result<(SessionOutcome, u32, Vec<f64>), String>;
    let (threads, results) = run_pool(
        started,
        opts.sessions,
        opts.concurrency,
        opts.duration,
        |i| -> SessionResult {
            match opts.routed {
                Some(seed) => run_routed_session(
                    addr,
                    cfg,
                    Arc::clone(&events),
                    RoutedOptions {
                        batch: opts.batch,
                        ..RoutedOptions::new(seed.wrapping_add(1 + i as u64))
                    },
                )
                .map(|r| {
                    let lats = r
                        .reconnect_latencies
                        .iter()
                        .map(|d| d.as_secs_f64() * 1e3)
                        .collect();
                    (r.outcome, r.reconnects, lats)
                })
                .map_err(|e| e.to_string()),
                None => run_session(addr, cfg, Arc::clone(&events), opts.batch)
                    .map(|o| (o, 0, Vec::new()))
                    .map_err(|e| e.to_string()),
            }
        },
    );

    let mut ok = 0usize;
    let mut failed = 0usize;
    let mut events_total = 0u64;
    let mut committed = 0u64;
    let mut detections = 0u64;
    let mut reconnects = 0u64;
    let mut latencies: Vec<f64> = Vec::new();
    let mut reconnect_lats_all: Vec<f64> = Vec::new();
    let mut first_error = None;
    // Per-window accumulators, indexed by completion offset / bucket.
    #[derive(Default)]
    struct Acc {
        sessions: usize,
        lats: Vec<f64>,
        walls: Vec<f64>,
        reconnects: u64,
        reconnect_lats: Vec<f64>,
    }
    let bucket = opts.bucket.max(Duration::from_millis(1));
    let mut accs: Vec<Acc> = Vec::new();
    for (_, offset, out) in results {
        match out {
            Ok((o, rc, rc_lats)) => {
                ok += 1;
                reconnects += u64::from(rc);
                events_total += o.events_sent;
                committed += o.summary.committed;
                detections += o.summary.detections;
                if let Some(t) = &opts.trace {
                    t.emit(
                        "loadgen.session",
                        None,
                        vec![
                            ("wall_ms", (o.wall.as_secs_f64() * 1e3).into()),
                            ("detections", o.summary.detections.into()),
                            ("reconnects", u64::from(rc).into()),
                        ],
                    );
                }
                // True detections only, matching `client`/`trace replay`
                // (RunResult::attack_latencies_ns) so p50/p99 are
                // comparable across the three subcommands.
                let lats: Vec<f64> = o
                    .alarms
                    .iter()
                    .filter(|d| d.attack)
                    .map(|d| d.latency_ns)
                    .collect();
                let idx = (offset.as_nanos() / bucket.as_nanos()) as usize;
                if accs.len() <= idx {
                    accs.resize_with(idx + 1, Acc::default);
                }
                accs[idx].sessions += 1;
                accs[idx].walls.push(o.wall.as_secs_f64() * 1e3);
                accs[idx].lats.extend_from_slice(&lats);
                accs[idx].reconnects += u64::from(rc);
                accs[idx].reconnect_lats.extend_from_slice(&rc_lats);
                latencies.extend_from_slice(&lats);
                reconnect_lats_all.extend_from_slice(&rc_lats);
            }
            Err(e) => {
                failed += 1;
                if let Some(t) = &opts.trace {
                    t.emit(
                        "loadgen.session_failed",
                        None,
                        vec![("error", e.as_str().into())],
                    );
                }
                first_error.get_or_insert(e);
            }
        }
    }
    let buckets = accs
        .into_iter()
        .enumerate()
        .map(|(i, mut a)| {
            for v in [&mut a.lats, &mut a.walls, &mut a.reconnect_lats] {
                v.sort_by(f64::total_cmp);
            }
            LatencyBucket {
                start: bucket * i as u32,
                sessions: a.sessions,
                detections: a.lats.len() as u64,
                p50_latency_ns: percentile(&a.lats, 50.0),
                p99_latency_ns: percentile(&a.lats, 99.0),
                p50_wall_ms: percentile(&a.walls, 50.0),
                p99_wall_ms: percentile(&a.walls, 99.0),
                reconnects: a.reconnects,
                p50_reconnect_ms: percentile(&a.reconnect_lats, 50.0),
                p99_reconnect_ms: percentile(&a.reconnect_lats, 99.0),
            }
        })
        .collect();
    latencies.sort_by(f64::total_cmp);
    reconnect_lats_all.sort_by(f64::total_cmp);
    let wall = started.elapsed();
    let secs = wall.as_secs_f64();
    LoadgenOutcome {
        ok_sessions: ok,
        failed_sessions: failed,
        events: events_total,
        committed,
        detections,
        wall,
        events_per_sec: if secs > 0.0 {
            events_total as f64 / secs
        } else {
            0.0
        },
        p50_latency_ns: percentile(&latencies, 50.0),
        p99_latency_ns: percentile(&latencies, 99.0),
        workers: threads,
        reconnects,
        p50_reconnect_ms: percentile(&reconnect_lats_all, 50.0),
        p99_reconnect_ms: percentile(&reconnect_lats_all, 99.0),
        buckets,
        first_error,
    }
}
