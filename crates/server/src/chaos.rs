//! The chaos harness: a router fleet under deliberate, *deterministic*
//! backend slaughter.
//!
//! A chaos run spawns an in-process router with `backends` spawned
//! services, opens `sessions` resumable routed sessions, and — while
//! they stream — executes a seeded kill schedule against the backend
//! fleet. The schedule is keyed to the router's *progress clock*
//! ([`crate::router::RouterHandle::events_forwarded`]), not wall-clock
//! time: kill `k`
//! fires when the fleet has accepted its `k`-th share of the expected
//! event volume, and the victim slot comes from a [`SimRng`] stream. The
//! same seed therefore produces the same pressure pattern on any
//! machine, fast or slow, and the pass criterion is outcome-shaped, not
//! timing-shaped: every session completes, and its detection set is
//! bit-identical to an undisturbed run's.
//!
//! [`SimRng`]: fireguard_trace::SimRng

use crate::client::{run_routed_session, RoutedOptions, RoutedOutcome};
use crate::net::run_pool;
use crate::netem::{netem, NetemHandle, NetemOptions};
use crate::proto::SessionConfig;
use crate::router::{route, BackendMode, RouterOptions};
use fireguard_soc::Detection;
use fireguard_telemetry::TraceSink;
use fireguard_trace::{SimRng, TraceInst};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Chaos-run shape: fleet size, session load, and kill pressure.
#[derive(Debug, Clone)]
pub struct ChaosOptions {
    /// Concurrent routed sessions to run (a floor when `duration` is set).
    pub sessions: usize,
    /// Maximum simultaneously open sessions.
    pub concurrency: usize,
    /// Events per EVENTS frame.
    pub batch: usize,
    /// Soak: keep opening sessions until this much wall-clock elapsed.
    pub duration: Option<Duration>,
    /// Backend slots behind the router.
    pub backends: usize,
    /// Worker threads per spawned backend.
    pub backend_workers: usize,
    /// Backend kills to schedule across the expected event volume.
    pub kills: usize,
    /// Seed for the kill schedule (thresholds and victim slots) and the
    /// session ids.
    pub seed: u64,
    /// Also sever each client transport after this many ACKs, forcing
    /// the resume path on top of backend failovers.
    pub drop_client_after_acks: Option<u64>,
    /// When set, interpose the seeded wire-fault proxy between every
    /// client and the router, so the network lies while backends die.
    pub wire_faults: Option<WireFaults>,
    /// Structured span sink shared by the spawned router (failovers,
    /// resumes, sheds) and the netem proxy (`net.fault`).
    pub trace: Option<Arc<TraceSink>>,
}

/// Wire-fault pressure for a chaos run (see [`mod@crate::netem`]).
#[derive(Debug, Clone, Copy)]
pub struct WireFaults {
    /// Mean frames between injected faults per connection direction.
    pub fault_every: u64,
    /// Upper bound for the `delay` fault, in milliseconds.
    pub max_delay_ms: u64,
}

impl Default for WireFaults {
    fn default() -> Self {
        WireFaults {
            fault_every: 64,
            max_delay_ms: 5,
        }
    }
}

impl Default for ChaosOptions {
    fn default() -> Self {
        ChaosOptions {
            sessions: 8,
            concurrency: 8,
            batch: crate::client::DEFAULT_BATCH,
            duration: None,
            backends: 2,
            backend_workers: 2,
            kills: 4,
            seed: 7,
            drop_client_after_acks: None,
            wire_faults: None,
            trace: None,
        }
    }
}

/// What the chaos run did and what survived it.
#[derive(Debug)]
pub struct ChaosOutcome {
    /// Sessions that completed with a summary.
    pub ok_sessions: usize,
    /// Sessions lost (any terminal failure) — the headline number, which
    /// a healthy fleet keeps at zero.
    pub lost_sessions: usize,
    /// Every successful session's outcome, in session-index order.
    pub outcomes: Vec<RoutedOutcome>,
    /// Backends actually killed by the schedule.
    pub kills: u64,
    /// Backend failovers the router performed.
    pub failovers: u64,
    /// Client resumes the router served.
    pub resumes: u64,
    /// Client-side reconnects summed over sessions.
    pub reconnects: u64,
    /// Fresh events the router accepted.
    pub events_forwarded: u64,
    /// Wire faults the netem proxy injected (0 when not enabled).
    pub wire_faults: u64,
    /// Wall-clock duration of the run.
    pub wall: Duration,
    /// First failure message, if any session was lost.
    pub first_error: Option<String>,
}

/// The seeded kill schedule: `(event_threshold, victim_slot)` pairs,
/// sorted by threshold. Thresholds split the expected fresh-event volume
/// into `kills + 1` roughly equal spans with ±25% seeded jitter, so
/// kills land mid-stream rather than at quiet edges.
pub fn kill_schedule(
    seed: u64,
    kills: usize,
    backends: usize,
    expected_events: u64,
) -> Vec<(u64, usize)> {
    let mut rng = SimRng::seed_from_u64(seed ^ 0xC4A0_5C4A_05C4_A05C);
    let spacing = expected_events / (kills as u64 + 1);
    (0..kills)
        .map(|k| {
            let base = spacing * (k as u64 + 1);
            let jitter = rng.range_u64(0, (spacing / 2).max(1));
            let at = base.saturating_sub(spacing / 4).saturating_add(jitter);
            (at, rng.range_usize(backends.max(1)))
        })
        .collect()
}

/// Runs the full chaos experiment: router + fleet up, sessions through,
/// kills in, everything joined and torn down before returning.
///
/// # Errors
///
/// Only setup failures (router bind / backend spawn). Lost sessions are
/// *data*, reported in the outcome — callers assert on them.
pub fn run_chaos(
    cfg: &SessionConfig,
    events: Arc<Vec<TraceInst>>,
    opts: &ChaosOptions,
) -> std::io::Result<ChaosOutcome> {
    let started = Instant::now();
    let router = route(RouterOptions {
        backends: BackendMode::Spawn(opts.backends),
        backend_workers: opts.backend_workers,
        drop_client_after_acks: opts.drop_client_after_acks,
        trace: opts.trace.clone(),
        ..RouterOptions::default()
    })?;
    // With wire faults on, clients dial the proxy; otherwise the router.
    let proxy = match opts.wire_faults {
        Some(wf) => Some(netem(NetemOptions {
            upstream: router.local_addr().to_string(),
            seed: opts.seed ^ 0x4E45_5445_4D5F_5746, // "NETEM_WF"
            fault_every: wf.fault_every,
            max_delay_ms: wf.max_delay_ms,
            trace: opts.trace.clone(),
            ..NetemOptions::default()
        })?),
        None => None,
    };
    let addr = proxy
        .as_ref()
        .map_or_else(|| router.local_addr(), NetemHandle::local_addr)
        .to_string();

    // The saboteur: walks the schedule as the progress clock passes each
    // threshold. In soak mode the schedule repeats (freshly seeded
    // victims) one expected-volume span at a time.
    let sessions_done = AtomicBool::new(false);
    let expected = (events.len() as u64)
        .saturating_mul(opts.sessions.max(1) as u64)
        .max(1);
    let saboteur = || {
        let mut round = 0u64;
        let mut base = 0u64;
        let mut schedule = kill_schedule(opts.seed, opts.kills, router.backends(), expected);
        let mut idx = 0usize;
        loop {
            if sessions_done.load(Ordering::SeqCst) {
                return;
            }
            if schedule.is_empty() {
                return;
            }
            if idx >= schedule.len() {
                // Soak: derive the next round's schedule, offset by
                // the volume already consumed.
                round += 1;
                base += expected;
                schedule = kill_schedule(
                    opts.seed ^ (round << 32),
                    opts.kills,
                    router.backends(),
                    expected,
                );
                idx = 0;
            }
            let (threshold, slot) = schedule[idx];
            if router.events_forwarded() >= base + threshold {
                // A miss (slot already down) still advances the
                // schedule — determinism over body count.
                let _ = router.kill_backend(slot);
                idx += 1;
            } else {
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    };

    // The saboteur runs for as long as the session pool does.
    let mut results = std::thread::scope(|scope| {
        scope.spawn(saboteur);
        let (_, results) = run_pool(
            started,
            opts.sessions,
            opts.concurrency,
            opts.duration,
            |i| {
                run_routed_session(
                    &addr,
                    cfg,
                    Arc::clone(&events),
                    RoutedOptions {
                        batch: opts.batch,
                        ..RoutedOptions::new(opts.seed.wrapping_add(1 + i as u64))
                    },
                )
                .map_err(|e| e.to_string())
            },
        );
        sessions_done.store(true, Ordering::SeqCst);
        results
    });

    results.sort_by_key(|&(i, _, _)| i);
    let mut outcomes = Vec::new();
    let mut lost = 0usize;
    let mut reconnects = 0u64;
    let mut first_error = None;
    for (_, _, r) in results {
        match r {
            Ok(o) => {
                reconnects += u64::from(o.reconnects);
                outcomes.push(o);
            }
            Err(e) => {
                lost += 1;
                first_error.get_or_insert(e);
            }
        }
    }

    let outcome = ChaosOutcome {
        ok_sessions: outcomes.len(),
        lost_sessions: lost,
        outcomes,
        kills: router.kills(),
        failovers: router.failovers(),
        resumes: router.resumes(),
        reconnects,
        events_forwarded: router.events_forwarded(),
        wire_faults: proxy.as_ref().map_or(0, NetemHandle::faults),
        wall: started.elapsed(),
        first_error,
    };
    if let Some(p) = proxy {
        p.shutdown();
    }
    router.shutdown();
    Ok(outcome)
}

/// Sorted, bit-exact keys for a detection set — the currency of every
/// parity assertion (routed == direct == offline).
pub fn detection_keys(alarms: &[Detection]) -> Vec<(u64, u64, usize, bool)> {
    let mut keys: Vec<_> = alarms
        .iter()
        .map(|d| (d.seq, d.latency_ns.to_bits(), d.kernel_slot, d.attack))
        .collect();
    keys.sort_unstable();
    keys
}
