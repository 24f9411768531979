//! The threaded TCP service: a `Listener` feeding a session worker
//! pool, and the per-session analysis pipeline.
//!
//! # Session lifecycle
//!
//! ```text
//! client                                server worker
//!   ── HELLO {SessionConfig} ──────────▶  validate, build FireGuardSystem
//!   ── EVENTS batch ───────────────────▶  decode the one batch held
//!   ── EVENTS batch ───────────────────▶        │ (core pulls on demand)
//!   ◀─────────────────────── ALARMS ──  periodic drain of kernel alarms
//!   ── END ────────────────────────────▶  stream exhausts, backlog drains
//!   ◀─────────────────────── SUMMARY ──  final RunResult scalars
//! ```
//!
//! The last frame is the session's one verdict: the SUMMARY of a run that
//! reached its commit target, or an ERROR that says why it did not —
//! never both.
//!
//! # Backpressure
//!
//! The analysis is *pull-driven*: the simulated core fetches events from
//! the one decoded batch a session holds, and the next EVENTS frame is
//! read from the socket only once that batch is spent. Every batch
//! decodes on its own, so the session keeps no codec state. When analysis
//! falls behind, the server simply stops reading, the kernel TCP window
//! closes, and the client's sender blocks — commit-stage backpressure
//! reproduced end-to-end over the wire. In the reverse direction, ALARMS
//! writes block when a slow client stops reading responses, which stalls
//! analysis and therefore also stops event intake; a slow reader
//! throttles exactly its own session.

use crate::metrics::{serve_metrics, MetricsHandle};
use crate::net::{lock, send_error, Listener};
use crate::proto::{
    self, FrameReader, FrameWriter, SessionConfig, Summary, ALARMS, END, EVENTS, HELLO, SUMMARY,
};
use fireguard_soc::{try_build_system, Detection};
use fireguard_telemetry::{FleetCounters, Sample, TraceSink};
use fireguard_trace::codec::EventDecoder;
use fireguard_trace::TraceInst;
use std::collections::HashMap;
use std::io::{BufReader, BufWriter};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How often (in fast cycles) a session drains kernel alarms into ALARMS
/// frames. Small enough for online delivery, large enough to amortize the
/// frame overhead.
pub const OBSERVE_EVERY: u64 = 4096;

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Address to bind (e.g. `127.0.0.1:4780`; port 0 = ephemeral).
    pub addr: String,
    /// Session worker threads (concurrent sessions).
    pub workers: usize,
    /// Accept at most this many sessions, then stop (None = serve forever).
    pub max_sessions: Option<u64>,
    /// Optional admin metrics endpoint (`--metrics-addr`; port 0 =
    /// ephemeral). Serves the fleet counter snapshot; see
    /// [`crate::metrics`].
    pub metrics_addr: Option<String>,
    /// Optional structured span sink (`--trace-out`); session lifecycle
    /// events are emitted here.
    pub trace: Option<Arc<TraceSink>>,
    /// Per-read silence budget (`--idle-timeout`): a session whose
    /// transport goes this long without producing a byte is reaped with
    /// an ERROR frame — a slowloris client pins no worker.
    pub idle_timeout: Duration,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: "127.0.0.1:4780".to_owned(),
            workers: fireguard_soc::default_workers(),
            max_sessions: None,
            metrics_addr: None,
            trace: None,
            idle_timeout: Duration::from_secs(30),
        }
    }
}

/// Renders a [`FleetCounters`] snapshot with the fleet-standard labels:
/// registry canonical kernel names (wire-id indexed) and instruction
/// class names. Both the serve and router metrics endpoints expose
/// exactly this, so `fireguard stats` can aggregate across tiers.
pub fn fleet_samples(fleet: &FleetCounters) -> Vec<Sample> {
    let kernel_names = fireguard_soc::canonical_names();
    let class_names: Vec<&str> = fireguard_trace::InstClass::ALL
        .iter()
        .map(|c| c.name())
        .collect();
    fleet.samples(&kernel_names, &class_names)
}

/// A running service: the accept thread plus its session worker pool.
///
/// Obtained from [`serve`]; the service runs until [`ServerHandle::join`]
/// observes the session budget exhausting, or [`ServerHandle::shutdown`]
/// is called.
pub struct ServerHandle {
    listener: Listener,
    sessions_served: Arc<AtomicU64>,
    live: LiveSessions,
    workers: Vec<JoinHandle<()>>,
    fleet: Arc<FleetCounters>,
    metrics: Option<MetricsHandle>,
}

/// Duplicated handles of every in-flight session socket, keyed by an
/// accept-order id, so [`ServerHandle::abort`] can sever live sessions.
type LiveSessions = Arc<Mutex<HashMap<u64, TcpStream>>>;

impl ServerHandle {
    /// The actual bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr()
    }

    /// Sessions fully handled so far.
    pub fn sessions_served(&self) -> u64 {
        self.sessions_served.load(Ordering::Relaxed)
    }

    /// The live fleet counters this service folds session telemetry into.
    pub fn counters(&self) -> &Arc<FleetCounters> {
        &self.fleet
    }

    /// The bound metrics endpoint address, when one was requested.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics.as_ref().map(MetricsHandle::local_addr)
    }

    /// Blocks until the service stops accepting (session budget reached or
    /// [`ServerHandle::shutdown`] from another handle clone-less context)
    /// and every in-flight session finishes.
    pub fn join(mut self) {
        self.listener.join();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        if let Some(m) = self.metrics.take() {
            m.shutdown();
        }
    }

    /// Requests a graceful stop (no new sessions; in-flight sessions
    /// finish) and waits for it.
    pub fn shutdown(self) {
        self.listener.stop();
        self.join();
    }

    /// Kills the service *abruptly*: in-flight sessions have their sockets
    /// severed mid-stream instead of finishing. This is the crash lever
    /// the chaos harness pulls — from a peer's point of view an aborted
    /// backend is indistinguishable from a process that died.
    pub fn abort(mut self) {
        self.listener.stop();
        sever_live(&self.live);
        self.listener.join();
        // A connection that was queued but not yet picked up when we
        // severed the map would still be served normally; keep severing
        // until every worker has exited so the kill is decisive.
        while self.workers.iter().any(|h| !h.is_finished()) {
            sever_live(&self.live);
            std::thread::sleep(Duration::from_millis(2));
        }
        self.join();
    }
}

fn sever_live(live: &LiveSessions) {
    let streams: Vec<TcpStream> = {
        let mut map = lock(live);
        map.drain().map(|(_, s)| s).collect()
    };
    for s in streams {
        let _ = s.shutdown(Shutdown::Both);
    }
}

/// Binds `opts.addr` and spawns the accept loop plus `opts.workers`
/// session workers — a hand-rolled pool in the style of
/// [`fireguard_soc::sweep`], except the jobs are *live sessions* arriving
/// over TCP rather than a pre-expanded grid.
///
/// # Errors
///
/// Propagates the bind failure.
pub fn serve(opts: ServeOptions) -> std::io::Result<ServerHandle> {
    let socket = TcpListener::bind(&opts.addr)?;
    let sessions_served = Arc::new(AtomicU64::new(0));
    let live: LiveSessions = Arc::new(Mutex::new(HashMap::new()));
    let next_session_id = Arc::new(AtomicU64::new(0));
    let fleet = Arc::new(FleetCounters::default());
    let metrics = match &opts.metrics_addr {
        Some(addr) => {
            let fleet = Arc::clone(&fleet);
            Some(serve_metrics(
                addr,
                Arc::new(move || fleet_samples(&fleet)),
            )?)
        }
        None => None,
    };
    let workers = opts.workers.max(1);
    // The connection queue is bounded at the worker count: when every
    // worker is busy and the queue is full, accept itself back-pressures.
    let (tx, rx) = mpsc::sync_channel::<TcpStream>(workers);
    let rx = Arc::new(Mutex::new(rx));

    let worker_handles: Vec<JoinHandle<()>> = (0..workers)
        .map(|_| {
            let rx = Arc::clone(&rx);
            let served = Arc::clone(&sessions_served);
            let live = Arc::clone(&live);
            let next_id = Arc::clone(&next_session_id);
            let fleet = Arc::clone(&fleet);
            let trace = opts.trace.clone();
            let idle_timeout = opts.idle_timeout.max(Duration::from_millis(10));
            std::thread::spawn(move || loop {
                let conn = { lock(&rx).recv() };
                let Ok(stream) = conn else {
                    break; // accept loop is gone: drain complete
                };
                // Register a duplicated handle so `abort` can sever this
                // session while it runs.
                let id = next_id.fetch_add(1, Ordering::Relaxed);
                if let Ok(dup) = stream.try_clone() {
                    lock(&live).insert(id, dup);
                }
                handle_session(stream, idle_timeout, id, &fleet, trace.as_deref());
                lock(&live).remove(&id);
                served.fetch_add(1, Ordering::Relaxed);
            })
        })
        .collect();

    // Dropping `tx` when the loop ends lets the workers drain the queue
    // and exit.
    let listener = Listener::spawn(socket, opts.max_sessions, move |stream| {
        let _ = tx.send(stream);
    })?;

    Ok(ServerHandle {
        listener,
        sessions_served,
        live,
        workers: worker_handles,
        fleet,
        metrics,
    })
}

/// The bounded, pull-driven event source for one session.
///
/// `next()` reads the next EVENTS frame only once the previous one is
/// spent, so the session holds exactly the one batch it last received,
/// sized by the client's frame; everything further back sits in the
/// kernel socket buffer or, once that fills, blocks the client — that
/// *is* the backpressure.
struct SocketEvents {
    reader: FrameReader<BufReader<TcpStream>>,
    /// The undelivered rest of the last decoded batch.
    pending: std::vec::IntoIter<TraceInst>,
    done: bool,
    error: Arc<Mutex<Option<String>>>,
}

impl SocketEvents {
    fn fail(&mut self, msg: String) {
        *lock(&self.error) = Some(msg);
        self.done = true;
    }
}

impl Iterator for SocketEvents {
    type Item = TraceInst;

    fn next(&mut self) -> Option<TraceInst> {
        loop {
            if let Some(t) = self.pending.next() {
                return Some(t);
            }
            if self.done {
                return None;
            }
            match self.reader.read() {
                Ok(Some((EVENTS, payload))) => match EventDecoder::new().decode_batch(&payload) {
                    Ok(batch) => self.pending = batch.into_iter(),
                    Err(e) => self.fail(format!("bad EVENTS frame: {e}")),
                },
                Ok(Some((END, _))) => self.done = true,
                Ok(Some((tag, _))) => self.fail(format!("unexpected frame tag {tag}")),
                Ok(None) => self.fail("connection closed mid-stream".to_owned()),
                Err(e) => self.fail(format!("frame error: {e}")),
            }
        }
    }
}

/// Runs one complete session on the calling worker thread. All failures
/// are answered with a best-effort ERROR frame; none can take the service
/// down.
fn handle_session(
    stream: TcpStream,
    idle_timeout: Duration,
    session_id: u64,
    fleet: &FleetCounters,
    trace: Option<&TraceSink>,
) {
    let _ = stream.set_nodelay(true);
    // A wedged client (no frames, no close, a stalled half-frame) must not
    // pin a worker forever: `idle_timeout` of silence ends the session
    // with an ERROR frame.
    let _ = stream.set_read_timeout(Some(idle_timeout));
    let reader = match stream.try_clone() {
        Ok(s) => FrameReader::new(BufReader::new(s)),
        Err(_) => return,
    };
    let drain = stream.try_clone();
    let mut writer = FrameWriter::new(BufWriter::new(stream));
    session_inner(reader, &mut writer, session_id, fleet, trace);
    let _ = writer.flush();
    // The session may not have consumed the client's whole stream (the
    // capture margin past the commit target stays unread). Closing with
    // unread bytes in the receive buffer raises an RST that can destroy
    // the in-flight verdict, so: half-close our write side (the client's
    // next read sees clean EOF and closes), then drain the remaining
    // client bytes to EOF. Bounded by the read timeout and a byte cap so
    // a hostile trickler cannot hold the worker.
    if let Ok(mut d) = drain {
        let _ = d.shutdown(std::net::Shutdown::Write);
        // The drain only has to outlive the client's close-after-verdict;
        // a few seconds of silence means the peer is gone or hostile
        // either way.
        let _ = d.set_read_timeout(Some(idle_timeout.min(Duration::from_secs(5))));
        let mut buf = [0u8; 8192];
        let mut budget: u64 = 64 << 20;
        loop {
            match std::io::Read::read(&mut d, &mut buf) {
                Ok(0) | Err(_) => break,
                Ok(n) => {
                    budget = budget.saturating_sub(n as u64);
                    if budget == 0 {
                        break;
                    }
                }
            }
        }
    }
}

fn session_inner(
    mut reader: FrameReader<BufReader<TcpStream>>,
    writer: &mut FrameWriter<BufWriter<TcpStream>>,
    session_id: u64,
    fleet: &FleetCounters,
    trace: Option<&TraceSink>,
) {
    let hello = match reader.read() {
        Ok(Some((HELLO, payload))) => payload,
        Ok(Some((tag, _))) => {
            return send_error(writer, &format!("expected HELLO, got frame tag {tag}"));
        }
        Ok(None) => return,
        Err(e) => return send_error(writer, &format!("bad first frame: {e}")),
    };
    let cfg = match SessionConfig::decode(&hello) {
        Ok(cfg) => cfg,
        Err(e) => return send_error(writer, &format!("bad HELLO: {e}")),
    };
    if let Err(msg) = cfg.validate() {
        return send_error(writer, &format!("refused session: {msg}"));
    }
    // From here on the session counts: a decoded, validated HELLO started
    // it, and every exit path below is either ok or failed.
    fleet.sessions_started.fetch_add(1, Ordering::Relaxed);
    if let Some(t) = trace {
        t.emit(
            "session.hello",
            Some(session_id),
            vec![
                ("workload", cfg.workload.as_str().into()),
                ("insts", cfg.insts.into()),
                ("kernels", (cfg.kernels.len() as u64).into()),
            ],
        );
    }
    let fail = |msg: &str| {
        fleet.sessions_failed.fetch_add(1, Ordering::Relaxed);
        if let Some(t) = trace {
            t.emit(
                "session.error",
                Some(session_id),
                vec![("error", msg.into())],
            );
        }
    };

    let error = Arc::new(Mutex::new(None));
    let events = SocketEvents {
        reader,
        pending: Vec::new().into_iter(),
        done: false,
        error: Arc::clone(&error),
    };

    // validate() already bounds the config, but the constructor's own
    // capacity check is the final authority — surface its refusal as an
    // ERROR frame too, never a worker panic.
    let mut sys = match try_build_system(&cfg.to_experiment(), Box::new(events)) {
        Ok(sys) => sys,
        Err(e) => {
            let msg = format!("refused session: {e}");
            fail(&msg);
            return send_error(writer, &msg);
        }
    };
    let mut write_err = false;
    let result = sys.run_insts_observed(
        cfg.insts,
        cfg.baseline_cycles,
        OBSERVE_EVERY,
        &mut |batch: &[Detection]| {
            if !write_err {
                let ok = writer
                    .write(ALARMS, &proto::encode_alarms(batch))
                    .and_then(|()| writer.flush())
                    .is_ok();
                write_err = !ok;
            }
            if let Some(t) = trace {
                t.emit(
                    "session.alarms",
                    Some(session_id),
                    vec![("count", (batch.len() as u64).into())],
                );
            }
        },
    );

    // Whatever happens next (clean finish, stream error, short stream),
    // the engine ran: fold its counters into the fleet aggregate now.
    fleet.events.fetch_add(result.committed, Ordering::Relaxed);
    fleet
        .alarms
        .fetch_add(result.detections.len() as u64, Ordering::Relaxed);
    let slot_wire: Vec<(usize, u8)> = sys
        .kernel_slots()
        .iter()
        .map(|&(slot, id)| (slot, id.wire()))
        .collect();
    fleet.fold_session(&sys.telemetry(), &slot_wire);

    // One verdict: the ERROR of an incomplete run, or the SUMMARY of a
    // complete one — a partial summary never goes out.
    let partial = match lock(&error).take() {
        // The stream broke before the commit target.
        Some(msg) => Some(format!("stream error: {msg}")),
        // A clean END, but short of the negotiated commit budget.
        None if result.committed < cfg.insts => Some(format!(
            "stream ended after {} of {} instructions",
            result.committed, cfg.insts
        )),
        None => None,
    };
    if let Some(msg) = partial {
        fail(&msg);
        return send_error(writer, &msg);
    }
    let _ = writer.write(SUMMARY, &Summary::from_result(&result).encode());
    fleet.sessions_ok.fetch_add(1, Ordering::Relaxed);
    if let Some(t) = trace {
        t.emit(
            "session.summary",
            Some(session_id),
            vec![
                ("committed", result.committed.into()),
                ("detections", (result.detections.len() as u64).into()),
                ("slowdown", result.slowdown.into()),
            ],
        );
    }
}
