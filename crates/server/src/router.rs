//! The fleet router tier: one front-end TCP process consistent-hashing
//! sessions over N `serve` backends, with transparent failover and
//! client-side session resume.
//!
//! # Topology
//!
//! ```text
//! client ──┐                    ┌── backend 0 (serve)
//! client ──┼──▶ router ── ring ─┼── backend 1 (serve)
//! client ──┘     │              └── backend 2 (serve)
//!                └ health checker: probe / mark down / respawn
//! ```
//!
//! The router speaks the existing framed protocol *transparently*: a
//! HELLO payload is stored opaque and forwarded verbatim (the backend
//! judges its version and config); an EVENTS batch is decoded only to
//! check that it continues the session's journal, then journaled and
//! forwarded as received, since every payload decodes on its own; ALARMS
//! are decoded only to deduplicate across failovers.
//! A plain [`run_session`](crate::run_session) client works unmodified; a
//! client that opens with a [`SessionTicket`] additionally gets ACK
//! frames and may *resume* the session on a fresh connection if its
//! transport dies.
//!
//! # Zero lost sessions
//!
//! Formally: for every session whose client follows the resume protocol,
//! the client observes exactly the alarm sequence and summary an
//! uninterrupted direct session would have produced — no alarm lost,
//! none delivered twice — regardless of how many backends die mid-stream
//! (as long as some backend eventually serves). The mechanism is
//! buffering + determinism: the router journals the session's full event
//! prefix, replays its payloads to a fresh backend on failover, and
//! suppresses the alarms the replay re-raises (analysis is deterministic,
//! so the first `k` alarms of a replayed incarnation are bit-identical to
//! the `k` already logged). Client-side loss is covered the same way: the resume
//! ticket carries how many alarms the client holds, and the router
//! re-sends the missing tail from its buffer.

use crate::journal::{recover_journals, Journal};
use crate::metrics::{serve_metrics, MetricsHandle};
use crate::net::{lock, send_error, Listener, LOCK_POISONS};
use crate::proto::{
    self, FrameReader, FrameWriter, SessionTicket, ACK, ALARMS, BUSY, END, ERROR, EVENTS, HELLO,
    RETRYABLE_ERROR_PREFIX, SESSION, SUMMARY,
};
use crate::ring::{mix, Ring, DEFAULT_REPLICAS};
use crate::service::{fleet_samples, serve, ServeOptions, ServerHandle};
use fireguard_telemetry::{FieldVal, Sample, TraceSink};
use fireguard_trace::codec::EventDecoder;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::io::{self, BufReader, BufWriter};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a driver keeps retrying for a live backend before giving the
/// session up with an ERROR frame.
const ROUTE_PATIENCE: Duration = Duration::from_secs(5);

/// How long a resume waits for the previous driver to let go of the
/// session before answering "session busy".
const ATTACH_PATIENCE: Duration = Duration::from_secs(5);

/// How long a ghost driver (client transport died mid-session) keeps
/// driving the backend while waiting for a resume. Past it the driver
/// parks the session: it stays in the table (and, with a journal dir, on
/// disk) so a later resume still replays it. The linger ends at once
/// when the router stops accepting, since no resume can arrive then.
///
/// It also bounds how long a *finished* session waits, with no driver,
/// for a resume to collect its verdict: past it the health thread
/// forgets the session and removes its journal.
const GHOST_LINGER: Duration = Duration::from_secs(60);

/// Health-check period.
const HEALTH_EVERY: Duration = Duration::from_millis(100);

/// Ceiling on *consecutive* failovers without a single backend
/// round-trip — past this the fleet is clearly sick and the session is
/// parked (ticketed) or failed (anonymous) instead of thrashing in a
/// connect/replay hot loop. Any decoded backend frame resets the
/// budget, so a long session under sustained-but-survivable fault
/// pressure is never killed merely for surviving many faults.
const MAX_FAILOVERS: u32 = 32;

/// Where the router's backends come from.
#[derive(Debug, Clone)]
pub enum BackendMode {
    /// Spawn `n` in-process [`serve`] instances on ephemeral ports; dead
    /// ones are respawned (the chaos harness's mode).
    Spawn(usize),
    /// Route over externally managed services; dead ones are probed and
    /// re-admitted when they answer again, never respawned. Note the
    /// health probe opens (and immediately closes) a connection, which a
    /// backend running with a `--max-sessions` budget counts against it.
    Extern(Vec<String>),
}

/// Router configuration.
#[derive(Debug, Clone)]
pub struct RouterOptions {
    /// Address to bind (port 0 = ephemeral).
    pub addr: String,
    /// Backend fleet.
    pub backends: BackendMode,
    /// Worker threads per spawned backend.
    pub backend_workers: usize,
    /// Accept at most this many connections (resumes included), then
    /// stop (None = forever).
    pub max_sessions: Option<u64>,
    /// Fault injection: sever each *ticketed* client connection after
    /// this many ACKs, simulating client↔router transport loss. Session
    /// state survives, so a resuming client must still observe a
    /// lossless session — this is how the resume path is exercised
    /// deterministically in tests.
    pub drop_client_after_acks: Option<u64>,
    /// Optional admin metrics endpoint (`--metrics-addr`). The router's
    /// exposition includes its own routing counters plus, in spawn mode,
    /// each live backend's fleet counters labeled `backend="<slot>"` —
    /// one scrape sees the whole fleet.
    pub metrics_addr: Option<String>,
    /// Optional structured span sink (`--trace-out`); failover, resume,
    /// and ghost-driver transitions are emitted here.
    pub trace: Option<Arc<TraceSink>>,
    /// Client-leg read timeout (`--idle-timeout`): a connection that
    /// produces no frame for this long is reaped (slowloris defense).
    /// A session wedged with neither client nor backend progress for
    /// twice this duration is failed.
    pub idle_timeout: Duration,
    /// Admission budget (`--max-live-sessions`): over this many
    /// concurrently live sessions, *fresh* sessions are refused with a
    /// clean BUSY frame. Resumes are always admitted.
    pub max_live_sessions: Option<u64>,
    /// Admission budget (`--max-buffered-mb`, stored in bytes): when the
    /// bytes journaled across live sessions exceed it, fresh sessions get
    /// BUSY.
    pub max_buffered_bytes: Option<u64>,
    /// Durable journal directory (`--journal-dir`): each ticketed
    /// session's state is one `<id>.fgj` file here, synced before the
    /// router acts on it, so a router *process* crash is resumable: at
    /// startup the router rebuilds the session table from the journals a
    /// previous router left here. `None` = ephemeral journals in the OS
    /// temp dir (failover-safe, not crash-safe).
    pub journal_dir: Option<PathBuf>,
}

impl Default for RouterOptions {
    fn default() -> Self {
        RouterOptions {
            addr: "127.0.0.1:0".to_owned(),
            backends: BackendMode::Spawn(2),
            backend_workers: 2,
            max_sessions: None,
            drop_client_after_acks: None,
            metrics_addr: None,
            trace: None,
            idle_timeout: Duration::from_secs(30),
            max_live_sessions: None,
            max_buffered_bytes: None,
            journal_dir: None,
        }
    }
}

// ---- backend pool ----------------------------------------------------------

/// One backend slot's health state machine:
///
/// ```text
///            kill / probe failure
///      Up ───────────────────────────▶ Down
///       ▲                              │
///       └──────── revive (respawn or successful re-probe)
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotState {
    /// Healthy: takes new sessions.
    Up,
    /// Dead: routed around until revived.
    Down,
}

struct Slot {
    state: SlotState,
    /// Bumped on every revival so stale death reports are ignored.
    generation: u64,
    addr: Option<SocketAddr>,
    /// The in-process service (spawn mode only).
    handle: Option<ServerHandle>,
}

struct BackendPool {
    slots: Vec<Mutex<Slot>>,
    ring: Ring,
    /// `Some(workers)` = spawn mode; `None` = extern.
    spawn: Option<usize>,
    kills: AtomicU64,
}

impl BackendPool {
    fn build(opts: &RouterOptions) -> std::io::Result<Self> {
        match &opts.backends {
            BackendMode::Spawn(n) => {
                let n = (*n).max(1);
                let workers = opts.backend_workers.max(1);
                let mut slots = Vec::with_capacity(n);
                for _ in 0..n {
                    let handle = spawn_backend(workers)?;
                    slots.push(Mutex::new(Slot {
                        state: SlotState::Up,
                        generation: 0,
                        addr: Some(handle.local_addr()),
                        handle: Some(handle),
                    }));
                }
                Ok(BackendPool {
                    ring: Ring::new(n, DEFAULT_REPLICAS),
                    slots,
                    spawn: Some(workers),
                    kills: AtomicU64::new(0),
                })
            }
            BackendMode::Extern(addrs) => {
                if addrs.is_empty() {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidInput,
                        "router needs at least one backend address",
                    ));
                }
                let mut slots = Vec::with_capacity(addrs.len());
                for a in addrs {
                    let addr = a.to_socket_addrs()?.next().ok_or_else(|| {
                        std::io::Error::new(
                            std::io::ErrorKind::InvalidInput,
                            format!("backend address {a} did not resolve"),
                        )
                    })?;
                    slots.push(Mutex::new(Slot {
                        state: SlotState::Up,
                        generation: 0,
                        addr: Some(addr),
                        handle: None,
                    }));
                }
                Ok(BackendPool {
                    ring: Ring::new(addrs.len(), DEFAULT_REPLICAS),
                    slots,
                    spawn: None,
                    kills: AtomicU64::new(0),
                })
            }
        }
    }

    fn len(&self) -> usize {
        self.slots.len()
    }

    fn lock_slot(&self, slot: usize) -> MutexGuard<'_, Slot> {
        lock(&self.slots[slot])
    }

    fn addrs(&self) -> Vec<Option<SocketAddr>> {
        (0..self.len()).map(|s| self.lock_slot(s).addr).collect()
    }

    /// Routes `key` to a live slot: `(slot, addr, generation)`.
    fn route(&self, key: u64) -> Option<(usize, SocketAddr, u64)> {
        let idx = self.ring.route(key, |s| {
            let sl = self.lock_slot(s);
            sl.state == SlotState::Up && sl.addr.is_some()
        })?;
        let sl = self.lock_slot(idx);
        if sl.state != SlotState::Up {
            return None; // lost a race with a kill; caller retries
        }
        sl.addr.map(|a| (idx, a, sl.generation))
    }

    /// Reports slot death observed at `generation`; stale reports (the
    /// slot already revived) are ignored.
    fn mark_down(&self, slot: usize, generation: u64) {
        let handle = {
            let mut sl = self.lock_slot(slot);
            if sl.generation != generation || sl.state == SlotState::Down {
                return;
            }
            sl.state = SlotState::Down;
            sl.handle.take()
        };
        if let Some(h) = handle {
            h.abort();
        }
    }

    /// Abruptly kills a spawned backend (in-flight sessions are severed
    /// mid-stream) — the chaos harness's lever. Returns false for extern
    /// slots and already-down slots.
    fn kill(&self, slot: usize) -> bool {
        let handle = {
            let mut sl = self.lock_slot(slot);
            if sl.state == SlotState::Down {
                return false;
            }
            match sl.handle.take() {
                Some(h) => {
                    sl.state = SlotState::Down;
                    h
                }
                None => return false,
            }
        };
        self.kills.fetch_add(1, Ordering::Relaxed);
        handle.abort();
        true
    }

    /// Brings a Down slot back: spawn mode starts a fresh service on a
    /// new ephemeral port; extern mode probes the fixed address and
    /// re-admits the slot when it answers.
    fn revive(&self, slot: usize) -> bool {
        match self.spawn {
            Some(workers) => {
                let mut sl = self.lock_slot(slot);
                if sl.state != SlotState::Down || sl.handle.is_some() {
                    return false;
                }
                match spawn_backend(workers) {
                    Ok(h) => {
                        sl.addr = Some(h.local_addr());
                        sl.handle = Some(h);
                        sl.generation += 1;
                        sl.state = SlotState::Up;
                        true
                    }
                    Err(_) => false,
                }
            }
            None => {
                let addr = {
                    let sl = self.lock_slot(slot);
                    if sl.state != SlotState::Down {
                        return false;
                    }
                    match sl.addr {
                        Some(a) => a,
                        None => return false,
                    }
                };
                if TcpStream::connect_timeout(&addr, Duration::from_millis(250)).is_ok() {
                    let mut sl = self.lock_slot(slot);
                    if sl.state == SlotState::Down {
                        sl.generation += 1;
                        sl.state = SlotState::Up;
                        return true;
                    }
                }
                false
            }
        }
    }

    fn shutdown(&self) {
        for slot in 0..self.len() {
            let handle = self.lock_slot(slot).handle.take();
            if let Some(h) = handle {
                h.shutdown();
            }
        }
    }
}

fn spawn_backend(workers: usize) -> std::io::Result<ServerHandle> {
    serve(ServeOptions {
        addr: "127.0.0.1:0".to_owned(),
        workers,
        ..ServeOptions::default()
    })
}

// ---- session state ---------------------------------------------------------

/// One routed session: its journal, which is everything the router
/// remembers about it (the HELLO, the event prefix, END, the alarm log
/// deduplicated across failovers, the verdict), and which driver owns it.
struct SessionBuf {
    journal: Journal,
    /// Since when no driver owns this session; `None` while one does.
    detached: Option<Instant>,
    /// A resuming connection asked the current (ghost) driver to let go.
    takeover: bool,
}

type SessionRef = Arc<Mutex<SessionBuf>>;

#[derive(Default)]
struct SessionTable {
    map: Mutex<HashMap<u64, SessionRef>>,
}

impl SessionTable {
    fn forget(&self, session: &SessionRef) {
        lock(&self.map).retain(|_, v| !Arc::ptr_eq(v, session));
    }

    /// Forgets every finished session that no driver has owned for
    /// [`GHOST_LINGER`]; dropping its journal removes the file. Otherwise
    /// a verdict that no client confirms (the ACK was lost, the client
    /// gave up, or the session was recovered after it left) would stay
    /// until the router exits.
    fn expire_finished(&self) {
        let sessions: Vec<SessionRef> = lock(&self.map).values().cloned().collect();
        for session in sessions {
            let expired = {
                let s = lock(&session);
                s.journal.done() && s.detached.is_some_and(|t| t.elapsed() >= GHOST_LINGER)
            };
            if expired {
                self.forget(&session);
            }
        }
    }
}

/// Router-wide counters (monotonic; the chaos scheduler keys off
/// `events`).
#[derive(Default)]
struct RouterStats {
    /// Fresh events accepted into session buffers (replays not counted).
    events: AtomicU64,
    /// Sessions whose terminal frame (SUMMARY or ERROR) was produced.
    sessions: AtomicU64,
    /// Backend incarnation changes forced by backend death.
    failovers: AtomicU64,
    /// Successful client resumes.
    resumes: AtomicU64,
    /// Fresh sessions refused with BUSY by the admission controller.
    shed: AtomicU64,
    /// Currently live (admitted, not yet finished) connections.
    live: AtomicU64,
}

/// The router's exposition: its own routing counters, backend liveness,
/// and (spawn mode) each live backend's fleet counters labeled
/// `backend="<slot>"` — one scrape covers the whole fleet.
fn router_samples(pool: &BackendPool, stats: &RouterStats, journaled: &AtomicU64) -> Vec<Sample> {
    let mut out = vec![
        Sample::new(
            "fireguard_router_events_total",
            stats.events.load(Ordering::Relaxed),
        ),
        Sample::new(
            "fireguard_router_sessions_total",
            stats.sessions.load(Ordering::Relaxed),
        ),
        Sample::new(
            "fireguard_router_failovers_total",
            stats.failovers.load(Ordering::Relaxed),
        ),
        Sample::new(
            "fireguard_router_resumes_total",
            stats.resumes.load(Ordering::Relaxed),
        ),
        Sample::new(
            "fireguard_router_kills_total",
            pool.kills.load(Ordering::Relaxed),
        ),
        Sample::new(
            "fireguard_router_journal_bytes",
            journaled.load(Ordering::Relaxed),
        ),
        Sample::new(
            "fireguard_router_sessions_shed_total",
            stats.shed.load(Ordering::Relaxed),
        ),
        Sample::new(
            "fireguard_router_live_sessions",
            stats.live.load(Ordering::Relaxed),
        ),
        Sample::new(
            "fireguard_router_lock_poison_total",
            LOCK_POISONS.load(Ordering::Relaxed),
        ),
    ];
    let mut up = 0u64;
    for slot in 0..pool.len() {
        // Clone the counters handle under the slot lock, sample unlocked.
        let (state, counters) = {
            let sl = pool.lock_slot(slot);
            (
                sl.state,
                sl.handle.as_ref().map(|h| Arc::clone(h.counters())),
            )
        };
        if state == SlotState::Up {
            up += 1;
        }
        if let Some(c) = counters {
            let slot_label = slot.to_string();
            out.extend(
                fleet_samples(&c)
                    .into_iter()
                    .map(|s| s.label("backend", &slot_label)),
            );
        }
    }
    out.push(Sample::new("fireguard_router_backends_up", up));
    out
}

// ---- handle ----------------------------------------------------------------

/// A running router: accept loop, health checker, per-session drivers,
/// and the backend pool. Obtained from [`route`].
pub struct RouterHandle {
    listener: Listener,
    /// Stops the health checker.
    stop: Arc<AtomicBool>,
    pool: Arc<BackendPool>,
    shared: Arc<Shared>,
    health: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
    metrics: Option<MetricsHandle>,
}

impl RouterHandle {
    /// The actual bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr()
    }

    /// Number of backend slots.
    pub fn backends(&self) -> usize {
        self.pool.len()
    }

    /// Current backend addresses by slot (`None` while a slot is down
    /// with no address).
    pub fn backend_addrs(&self) -> Vec<Option<SocketAddr>> {
        self.pool.addrs()
    }

    /// Fresh events accepted into session buffers so far — the monotonic
    /// progress clock the chaos kill schedule is keyed to.
    pub fn events_forwarded(&self) -> u64 {
        self.shared.stats.events.load(Ordering::Relaxed)
    }

    /// Sessions that reached a terminal frame.
    pub fn sessions_completed(&self) -> u64 {
        self.shared.stats.sessions.load(Ordering::Relaxed)
    }

    /// Backend failovers performed.
    pub fn failovers(&self) -> u64 {
        self.shared.stats.failovers.load(Ordering::Relaxed)
    }

    /// Client resumes served.
    pub fn resumes(&self) -> u64 {
        self.shared.stats.resumes.load(Ordering::Relaxed)
    }

    /// Backends abruptly killed via [`kill_backend`](Self::kill_backend).
    pub fn kills(&self) -> u64 {
        self.pool.kills.load(Ordering::Relaxed)
    }

    /// Fresh sessions refused with a BUSY frame by the admission
    /// controller.
    pub fn sessions_shed(&self) -> u64 {
        self.shared.stats.shed.load(Ordering::Relaxed)
    }

    /// The bound metrics endpoint address, when one was requested.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics.as_ref().map(MetricsHandle::local_addr)
    }

    /// Abruptly kills the backend in `slot` (spawn mode), severing its
    /// in-flight sessions; the health checker respawns it. Returns
    /// whether a live backend was actually killed.
    pub fn kill_backend(&self, slot: usize) -> bool {
        slot < self.pool.len() && self.pool.kill(slot)
    }

    /// Blocks until the accept budget is spent and every connection
    /// drains, then tears the fleet down.
    pub fn join(mut self) {
        self.listener.join();
        // The accept loop has ended, so the list is complete.
        let conns = std::mem::take(&mut *lock(&self.conns));
        for h in conns {
            let _ = h.join();
        }
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.health.take() {
            let _ = h.join();
        }
        if let Some(m) = self.metrics.take() {
            m.shutdown();
        }
        self.pool.shutdown();
    }

    /// Requests a stop (no new connections; in-flight sessions finish)
    /// and waits for the fleet to drain.
    pub fn shutdown(self) {
        self.listener.stop();
        self.join();
    }
}

/// Shared router state every connection handler needs, bundled once so
/// the accept loop hands each driver a single `Arc`.
struct Shared {
    pool: Arc<BackendPool>,
    table: SessionTable,
    stats: RouterStats,
    /// Bytes journaled across every live session.
    journal_bytes: Arc<AtomicU64>,
    anon_ids: AtomicU64,
    drop_after: Option<u64>,
    trace: Option<Arc<TraceSink>>,
    idle_timeout: Duration,
    /// Cleared when the accept loop exits (on stop or a spent
    /// `max_sessions` budget): no resume can reach a ghost any more.
    accepting: AtomicBool,
    max_live_sessions: Option<u64>,
    max_buffered_bytes: Option<u64>,
    journal_dir: Option<PathBuf>,
}

impl Shared {
    fn trace(&self) -> Option<&TraceSink> {
        self.trace.as_deref()
    }

    /// Opens a new session, owned by the driver registering it. Its
    /// journal is durable under the journal dir (if any) when `durable`,
    /// else ephemeral.
    fn open_session(&self, name: &str, durable: bool, hello: Vec<u8>) -> io::Result<SessionRef> {
        let dir = self.journal_dir.as_deref().filter(|_| durable);
        let journal = Journal::open(name, hello, dir, Arc::clone(&self.journal_bytes))?;
        Ok(Arc::new(Mutex::new(SessionBuf {
            journal,
            detached: None,
            takeover: false,
        })))
    }
}

/// Owned by the accept loop: clears [`Shared::accepting`] the moment the
/// loop ends, whether on stop or because its budget is spent.
struct Accepting(Arc<Shared>);

impl Drop for Accepting {
    fn drop(&mut self) {
        self.0.accepting.store(false, Ordering::SeqCst);
    }
}

/// Binds the router and spawns its accept loop, health checker, and
/// backend fleet.
///
/// # Errors
///
/// Propagates bind/spawn/resolve failures, and scan failures of an
/// existing journal directory.
pub fn route(opts: RouterOptions) -> std::io::Result<RouterHandle> {
    let socket = TcpListener::bind(&opts.addr)?;

    let pool = Arc::new(BackendPool::build(&opts)?);
    let stop = Arc::new(AtomicBool::new(false));
    let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
    let shared = Arc::new(Shared {
        pool: Arc::clone(&pool),
        table: SessionTable::default(),
        stats: RouterStats::default(),
        journal_bytes: Arc::default(),
        anon_ids: AtomicU64::new(0),
        drop_after: opts.drop_client_after_acks,
        trace: opts.trace.clone(),
        idle_timeout: opts.idle_timeout.max(Duration::from_millis(10)),
        accepting: AtomicBool::new(true),
        max_live_sessions: opts.max_live_sessions,
        max_buffered_bytes: opts.max_buffered_bytes,
        journal_dir: opts.journal_dir.clone(),
    });

    // Crash recovery: rebuild the session table from the journals a
    // previous router process left in the durable directory. Each
    // recovered session sits detached until its client resumes (or, if
    // it has its verdict, until it expires); the resume ACK tells the
    // client where the recovered prefix ends.
    if let Some(dir) = shared.journal_dir.as_deref().filter(|d| d.is_dir()) {
        for (id, journal) in recover_journals(dir, &shared.journal_bytes)? {
            if let Some(t) = shared.trace() {
                t.emit(
                    "router.recover",
                    Some(mix(id)),
                    vec![
                        ("events", journal.len().into()),
                        ("alarms", (journal.alarms().len() as u64).into()),
                    ],
                );
            }
            let buf = SessionBuf {
                journal,
                detached: Some(Instant::now()),
                takeover: false,
            };
            lock(&shared.table.map).insert(id, Arc::new(Mutex::new(buf)));
        }
    }

    let metrics = match &opts.metrics_addr {
        Some(addr) => {
            let shared = Arc::clone(&shared);
            Some(serve_metrics(
                addr,
                Arc::new(move || {
                    router_samples(&shared.pool, &shared.stats, &shared.journal_bytes)
                }),
            )?)
        }
        None => None,
    };

    let health = {
        let shared = Arc::clone(&shared);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let pool = &shared.pool;
            while !stop.load(Ordering::SeqCst) {
                for slot in 0..pool.len() {
                    let (state, addr, generation) = {
                        let sl = pool.lock_slot(slot);
                        (sl.state, sl.addr, sl.generation)
                    };
                    match state {
                        SlotState::Down => {
                            pool.revive(slot);
                        }
                        SlotState::Up => {
                            if let Some(addr) = addr {
                                // A connect probe: cheap, and decisive
                                // for a killed backend whose listener is
                                // gone.
                                match TcpStream::connect_timeout(&addr, Duration::from_millis(250))
                                {
                                    Ok(s) => drop(s),
                                    Err(_) => pool.mark_down(slot, generation),
                                }
                            }
                        }
                    }
                }
                shared.table.expire_finished();
                std::thread::sleep(HEALTH_EVERY);
            }
        })
    };

    let listener = {
        let accepting = Accepting(Arc::clone(&shared));
        let conns = Arc::clone(&conns);
        Listener::spawn(socket, opts.max_sessions, move |stream| {
            let shared = Arc::clone(&accepting.0);
            let h = std::thread::spawn(move || {
                // A panicking driver must not take the router down (locks
                // it held recover via `lock`); log and count the event.
                let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    handle_conn(stream, &shared)
                }));
                if caught.is_err() {
                    if let Some(t) = shared.trace() {
                        t.emit("router.panic", None, vec![("driver", 1u64.into())]);
                    }
                }
            });
            // Dropping a finished connection's handle frees its thread's
            // stack; kept until shutdown, every connection ever served
            // would stay mapped and partly resident.
            let mut conns = lock(&conns);
            conns.retain(|h| !h.is_finished());
            conns.push(h);
        })?
    };

    Ok(RouterHandle {
        listener,
        stop,
        pool,
        shared,
        health: Some(health),
        conns,
        metrics,
    })
}

// ---- per-connection driver -------------------------------------------------

/// Which leg of a session an inbox message came from.
#[derive(Clone, Copy)]
enum Leg {
    Client,
    /// Backend incarnation `n`; a message from any other incarnation is
    /// stale and ignored.
    Backend(u64),
}

enum Msg {
    /// A frame from one leg.
    Frame(Leg, u8, Vec<u8>),
    /// The leg's transport ended. `None` is a clean EOF at a frame
    /// boundary: the peer hung up. `Some` is damage — a torn frame, an
    /// oversized header, a checksum mismatch, or a read error such as the
    /// idle read timeout — so an anonymous session still draws a clean
    /// ERROR.
    Gone(Leg, Option<String>),
}

/// Forwards one leg's frames into the driver inbox until its transport
/// ends (or the driver is gone).
fn spawn_reader(
    mut reader: FrameReader<BufReader<TcpStream>>,
    leg: Leg,
    tx: mpsc::Sender<Msg>,
) -> JoinHandle<()> {
    std::thread::spawn(move || loop {
        let msg = match reader.read() {
            Ok(Some((tag, payload))) => Msg::Frame(leg, tag, payload),
            Ok(None) => Msg::Gone(leg, None),
            Err(e) => Msg::Gone(leg, Some(e.to_string())),
        };
        let gone = matches!(msg, Msg::Gone(..));
        if tx.send(msg).is_err() || gone {
            return;
        }
    })
}

/// RAII live-connection counter: admission control compares against it,
/// and it must decrement on *every* exit path, including panics.
struct LiveGuard<'a>(&'a AtomicU64);

impl<'a> LiveGuard<'a> {
    fn enter(counter: &'a AtomicU64) -> (Self, u64) {
        let live = counter.fetch_add(1, Ordering::Relaxed) + 1;
        (LiveGuard(counter), live)
    }
}

impl Drop for LiveGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The admission controller's verdict for a *fresh* session (resumes are
/// always admitted — a session the router accepted is never orphaned by
/// its own overload policy). `live` includes the connection asking.
fn admit_fresh(shared: &Shared, live: u64) -> Result<(), String> {
    if let Some(max) = shared.max_live_sessions {
        if live > max {
            return Err(format!("router busy: {live} live sessions (max {max})"));
        }
    }
    if let Some(max) = shared.max_buffered_bytes {
        let buffered = shared.journal_bytes.load(Ordering::Relaxed);
        if buffered > max {
            return Err(format!(
                "router busy: {buffered} journal bytes buffered (max {max})"
            ));
        }
    }
    Ok(())
}

fn shed(shared: &Shared, writer: &mut FrameWriter<BufWriter<TcpStream>>, reason: &str) {
    shared.stats.shed.fetch_add(1, Ordering::Relaxed);
    if let Some(t) = shared.trace() {
        t.emit("router.shed", None, vec![("reason", reason.into())]);
    }
    let _ = writer.write(BUSY, reason.as_bytes());
    let _ = writer.flush();
}

/// Drives one client connection end to end. Runs on its own thread; all
/// failure modes end in a best-effort ERROR (or BUSY) frame, never a
/// panic.
fn handle_conn(stream: TcpStream, shared: &Shared) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(shared.idle_timeout));
    let mut reader = match stream.try_clone() {
        Ok(s) => FrameReader::new(BufReader::new(s)),
        Err(_) => return,
    };
    let mut writer = match stream.try_clone() {
        Ok(s) => FrameWriter::new(BufWriter::new(s)),
        Err(_) => return,
    };
    let (_live, live_now) = LiveGuard::enter(&shared.stats.live);

    // Frame 1: SESSION (ticketed, resumable) or HELLO (anonymous
    // passthrough — byte-transparent for existing clients).
    let (key, session, ticketed, resume_from) = match reader.read() {
        Ok(Some((SESSION, payload))) => {
            let ticket = match SessionTicket::decode(&payload) {
                Ok(t) => t,
                Err(e) => return send_error(&mut writer, &format!("bad SESSION ticket: {e}")),
            };
            if ticket.resume {
                match attach_resume(&shared.table, ticket.id) {
                    Ok(session) => (mix(ticket.id), session, true, Some(ticket.alarms_received)),
                    Err(msg) => return send_error(&mut writer, &msg),
                }
            } else {
                if let Err(reason) = admit_fresh(shared, live_now) {
                    return shed(shared, &mut writer, &reason);
                }
                // Frame 2 must be the HELLO for the new session.
                let hello = match reader.read() {
                    Ok(Some((HELLO, p))) => p,
                    Ok(Some((tag, _))) => {
                        return send_error(
                            &mut writer,
                            &format!("expected HELLO after SESSION, got frame tag {tag}"),
                        );
                    }
                    Ok(None) => return,
                    Err(e) => return send_error(&mut writer, &format!("bad frame: {e}")),
                };
                // The id is checked and the journal opened under the table
                // lock: a fresh journal replaces any file of its id, so a
                // duplicate must never reach `open`.
                let mut map = lock(&shared.table.map);
                let opened = match map.entry(ticket.id) {
                    Entry::Occupied(_) => {
                        Err(format!("session id {} already registered", ticket.id))
                    }
                    Entry::Vacant(slot) => shared
                        .open_session(&ticket.id.to_string(), true, hello)
                        .map(|s| Arc::clone(slot.insert(s)))
                        .map_err(|e| format!("session journal: {e}")),
                };
                drop(map);
                match opened {
                    Ok(session) => (mix(ticket.id), session, true, None),
                    Err(msg) => return send_error(&mut writer, &msg),
                }
            }
        }
        Ok(Some((HELLO, hello))) => {
            // Anonymous: no ticket, no ACKs, no resume — pure transparent
            // routing (still gets buffered-replay failover for free). The
            // journal is always ephemeral: with no ticket there is nothing
            // a post-crash router could hand back.
            if let Err(reason) = admit_fresh(shared, live_now) {
                return shed(shared, &mut writer, &reason);
            }
            let id = shared.anon_ids.fetch_add(1, Ordering::Relaxed);
            let session = match shared.open_session(&format!("anon-{id}"), false, hello) {
                Ok(s) => s,
                Err(e) => return send_error(&mut writer, &format!("session journal: {e}")),
            };
            (mix(0x0A0A_0A0A ^ id), session, false, None)
        }
        Ok(Some((tag, _))) => {
            return send_error(&mut writer, &format!("expected HELLO, got frame tag {tag}"));
        }
        Ok(None) => return,
        Err(e) => return send_error(&mut writer, &format!("bad first frame: {e}")),
    };

    let mut driver = Driver::new(shared, stream, reader, writer, key, session, ticketed);
    match resume_from.and_then(|alarms_received| driver.resume(alarms_received)) {
        Some(exit) => driver.close(exit, None),
        None => driver.run(),
    }
}

/// Attaches to an existing session for resume, asking a ghost driver to
/// let go if one still owns it.
fn attach_resume(table: &SessionTable, id: u64) -> Result<SessionRef, String> {
    let session = {
        let map = lock(&table.map);
        match map.get(&id) {
            Some(s) => Arc::clone(s),
            None => return Err(format!("unknown session id {id}")),
        }
    };
    let deadline = Instant::now() + ATTACH_PATIENCE;
    loop {
        {
            let mut s = lock(&session);
            if s.detached.is_some() {
                s.detached = None;
                s.takeover = false;
                drop(s);
                return Ok(session);
            }
            s.takeover = true;
        }
        if Instant::now() >= deadline {
            return Err(format!("session busy: id {id} still attached"));
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn shutdown_both(stream: &TcpStream) {
    let _ = stream.shutdown(Shutdown::Both);
}

/// How a driver ends. [`Driver::close`] is the only place that acts on
/// it.
enum Exit {
    /// Unrecoverable: record the terminal ERROR, send it to a live
    /// client, forget the session.
    Fatal(String),
    /// Infrastructure trouble on a ticketed session: emit `router.park`
    /// with the reason and keep the session for a resume.
    Park(&'static str),
    /// Leave quietly and keep the session: a ghost handing over to a
    /// resume, or a resume preamble whose write failed.
    LetGo,
    /// The client left an anonymous session: forget it quietly.
    Release,
    /// The verdict is journaled and sent — just now from the backend, or
    /// from the journal on a resume: half-close, wait for the client's
    /// terminal ACK, and forget a ticketed session only once it arrived.
    Finish,
}

/// Why a message handler stops pumping the current backend incarnation.
enum Stop {
    /// The backend leg broke: connect a new incarnation and replay.
    FailOver,
    Exit(Exit),
}

/// The one ending for a failed journal write: the client is never sent a
/// frame that the journal lacks.
fn journal_failed(e: io::Error) -> Option<Stop> {
    let msg = format!("session journal write failed: {e}");
    Some(Stop::Exit(Exit::Fatal(msg)))
}

/// One backend incarnation and everything that is per-connection about
/// it. A failover drops it and connects a new one.
struct Backend {
    slot: usize,
    generation: u64,
    socket: TcpStream,
    writer: FrameWriter<BufWriter<TcpStream>>,
    end_sent: bool,
    /// Alarms this incarnation has reported; the first `alarms.len()` of
    /// them are deterministic repeats of the log.
    seen: u64,
}

impl Backend {
    fn send(&mut self, tag: u8, payload: &[u8]) -> bool {
        self.writer
            .write(tag, payload)
            .and_then(|()| self.writer.flush())
            .is_ok()
    }

    /// Replays the journaled prefix to this incarnation: the stored HELLO,
    /// then every journaled EVENTS payload as the client sent it.
    fn replay(&mut self, j: &mut Journal) -> bool {
        let w = &mut self.writer;
        let mut ok = w.write(HELLO, j.hello()).is_ok()
            && j.replay(|payload| w.write(EVENTS, payload)).is_ok();
        if ok && j.ended() {
            ok = w.write(END, &[]).is_ok();
            self.end_sent = true;
        }
        ok && w.flush().is_ok()
    }
}

/// One session's driver: pumps client frames into the session journal
/// and backend frames out to the client, failing over across backend
/// incarnations, and going "ghost" (client-less but still driving the
/// backend) when the client transport dies mid-session.
///
/// Each inbox message is handled by one method that returns
/// `Option<Stop>`. [`Driver::run`] turns [`Stop::FailOver`] into the next
/// incarnation and hands every [`Exit`] to [`Driver::close`].
struct Driver<'a> {
    shared: &'a Shared,
    /// Consistent-hash key, also the session id on spans.
    key: u64,
    session: SessionRef,
    ticketed: bool,
    client: TcpStream,
    writer: FrameWriter<BufWriter<TcpStream>>,
    client_reader: JoinHandle<()>,
    tx: mpsc::Sender<Msg>,
    rx: mpsc::Receiver<Msg>,
    client_alive: bool,
    ghost_since: Option<Instant>,
    acks_sent: u64,
    /// Backend incarnation counter (per driver).
    inc: u64,
    /// Consecutive failovers since the last decoded backend frame.
    failovers: u32,
}

impl<'a> Driver<'a> {
    /// Takes over a handshaken client connection and starts its reader.
    fn new(
        shared: &'a Shared,
        client: TcpStream,
        reader: FrameReader<BufReader<TcpStream>>,
        writer: FrameWriter<BufWriter<TcpStream>>,
        key: u64,
        session: SessionRef,
        ticketed: bool,
    ) -> Self {
        // The driver inbox. Unbounded by design: the router buffers the
        // whole stream anyway, and a bounded inbox could deadlock the
        // driver↔backend↔reader cycle (driver blocked writing EVENTS, the
        // backend blocked writing ALARMS, the reader blocked enqueueing).
        let (tx, rx) = mpsc::channel();
        let client_reader = spawn_reader(reader, Leg::Client, tx.clone());
        Driver {
            shared,
            key,
            session,
            ticketed,
            client,
            writer,
            client_reader,
            tx,
            rx,
            client_alive: true,
            ghost_since: None,
            acks_sent: 0,
            inc: 0,
            failovers: 0,
        }
    }

    /// The resume preamble: ACK where the replay starts and re-deliver
    /// the alarm tail the client missed. A session that finished while
    /// the client was away is served entirely from the buffer — its
    /// stored verdict, then [`Exit::Finish`] — with no backend involved.
    fn resume(&mut self, alarms_received: u64) -> Option<Exit> {
        self.shared.stats.resumes.fetch_add(1, Ordering::Relaxed);
        self.span(
            "router.resume",
            vec![("alarms_received", alarms_received.into())],
        );
        let (ack, tail, verdict) = {
            let j = &lock(&self.session).journal;
            let from = (alarms_received as usize).min(j.alarms().len());
            (
                proto::encode_ack(j.len()),
                j.alarms()[from..].to_vec(),
                j.verdict().map(|(tag, p)| (tag, p.to_vec())),
            )
        };
        let mut ok = self.tell_client(ACK, &ack);
        if ok && !tail.is_empty() {
            ok = self.tell_client(ALARMS, &proto::encode_alarms(&tail));
        }
        if !ok {
            return Some(Exit::LetGo);
        }
        let (tag, payload) = verdict?;
        self.tell_client(tag, &payload);
        Some(Exit::Finish)
    }

    /// Runs the session to its end: connect, replay and pump one backend
    /// incarnation after another, then [`close`](Self::close).
    fn run(mut self) {
        let (exit, backend) = loop {
            let Some(mut b) = self.connect() else {
                break (self.trouble("no live backends", "no live backends"), None);
            };
            match self.pump(&mut b) {
                Stop::Exit(exit) => break (exit, Some(b)),
                Stop::FailOver => {
                    if let Some(exit) = self.fail_over(&b) {
                        break (exit, Some(b));
                    }
                }
            }
        };
        self.close(exit, backend.as_ref());
    }

    /// Routes and connects the next backend incarnation, patiently: the
    /// health checker may be mid-way through reviving the whole fleet.
    fn connect(&mut self) -> Option<Backend> {
        let pool = &*self.shared.pool;
        let deadline = Instant::now() + ROUTE_PATIENCE;
        loop {
            if let Some((slot, addr, generation)) = pool.route(self.key) {
                match TcpStream::connect_timeout(&addr, Duration::from_millis(500)) {
                    Ok(socket) => {
                        if let Ok(b) = self.open_backend(slot, generation, socket) {
                            return Some(b);
                        }
                    }
                    Err(_) => {
                        pool.mark_down(slot, generation);
                        pool.revive(slot);
                    }
                }
            }
            if Instant::now() >= deadline {
                return None;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// Wraps a connected backend socket as the next incarnation and
    /// spawns its reader — BEFORE the replay, so alarm frames raised
    /// mid-replay drain into the inbox instead of filling the socket and
    /// deadlocking the replay write.
    fn open_backend(
        &mut self,
        slot: usize,
        generation: u64,
        socket: TcpStream,
    ) -> std::io::Result<Backend> {
        let _ = socket.set_nodelay(true);
        let writer = FrameWriter::new(BufWriter::new(socket.try_clone()?));
        let reader = FrameReader::new(BufReader::new(socket.try_clone()?));
        self.inc += 1;
        spawn_reader(reader, Leg::Backend(self.inc), self.tx.clone());
        Ok(Backend {
            slot,
            generation,
            socket,
            writer,
            end_sent: false,
            seen: 0,
        })
    }

    /// Replays the journal to incarnation `b`, then pumps the inbox until
    /// a handler stops it.
    fn pump(&mut self, b: &mut Backend) -> Stop {
        if !b.replay(&mut lock(&self.session).journal) {
            return Stop::FailOver;
        }
        loop {
            if !self.client_alive {
                if let Some(exit) = self.ghost_exit() {
                    return Stop::Exit(exit);
                }
            }
            let wait = if self.client_alive {
                // Twice the per-read idle budget: both legs must be
                // silent that long before the session counts as wedged.
                self.shared.idle_timeout.saturating_mul(2)
            } else {
                Duration::from_millis(25)
            };
            // The driver holds a sender, so the inbox never disconnects:
            // an error here is a timeout.
            let Ok(msg) = self.rx.recv_timeout(wait) else {
                if !self.client_alive {
                    continue; // ghost: just re-check takeover/linger
                }
                // Neither client nor backend frames for the full budget:
                // the session is wedged — end it. Ticketed sessions park
                // (a resume un-wedges both legs).
                let msg = "router session idle timeout";
                return Stop::Exit(self.trouble(msg, msg));
            };
            let stop = match msg {
                // Frames from a severed client leg are untrustworthy;
                // drop them and let the resume re-deliver.
                Msg::Frame(Leg::Client, ..) | Msg::Gone(Leg::Client, _) if !self.client_alive => {
                    None
                }
                Msg::Frame(Leg::Client, tag, payload) => self.on_client_frame(b, tag, &payload),
                Msg::Gone(Leg::Client, damage) => self.on_client_gone(damage),
                Msg::Frame(Leg::Backend(i), tag, payload) if i == self.inc => {
                    self.on_backend_frame(b, tag, &payload)
                }
                // The backend died before its verdict: fail over and
                // replay.
                Msg::Gone(Leg::Backend(i), _) if i == self.inc => Some(Stop::FailOver),
                Msg::Frame(Leg::Backend(_), ..) | Msg::Gone(Leg::Backend(_), _) => None, // stale
            };
            if let Some(stop) = stop {
                return stop;
            }
        }
    }

    /// A ghost driver (no client) yields to a resuming connection as soon
    /// as one asks. Without one it parks the session after
    /// [`GHOST_LINGER`], or at once when the router has stopped accepting
    /// and no resume can reach it any more: the backend is released, but
    /// the journaled state stays in the table (and, with a journal dir,
    /// on disk) for a later resume.
    fn ghost_exit(&mut self) -> Option<Exit> {
        let since = *self.ghost_since.get_or_insert_with(Instant::now);
        if lock(&self.session).takeover {
            Some(Exit::LetGo)
        } else if !self.shared.accepting.load(Ordering::SeqCst) {
            Some(Exit::Park("router closing"))
        } else if since.elapsed() >= GHOST_LINGER {
            Some(Exit::Park("ghost linger expired"))
        } else {
            None
        }
    }

    fn on_client_frame(&mut self, b: &mut Backend, tag: u8, payload: &[u8]) -> Option<Stop> {
        match tag {
            EVENTS => self.on_events(b, payload),
            END => {
                if let Err(e) = lock(&self.session).journal.end() {
                    return journal_failed(e);
                }
                if b.end_sent {
                    return None;
                }
                b.end_sent = true;
                (!b.send(END, &[])).then_some(Stop::FailOver)
            }
            // The terminal delivery ACK follows the verdict, which ends
            // the pump: `close` looks for it. One that comes earlier
            // confirms nothing.
            ACK => None,
            // An impossible tag after the handshake is wire damage, not
            // a client bug.
            tag => self.client_fault(format!("unexpected frame tag {tag}")),
        }
    }

    /// Journals a client EVENTS batch that continues the journal exactly,
    /// forwards it as received, and ACKs a ticketed client.
    fn on_events(&mut self, b: &mut Backend, payload: &[u8]) -> Option<Stop> {
        let batch = match EventDecoder::new().decode_batch(payload) {
            Ok(batch) => batch,
            Err(e) => return self.client_fault(format!("bad EVENTS frame: {e}")),
        };
        // The batch must start at the journaled count and run on without a
        // gap or a repeat: a conforming client resumes at the ACK, so
        // either means the wire lost or duplicated something. Recoverable
        // for ticketed sessions (sever + resume), fatal for anonymous.
        let n = lock(&self.session).journal.len();
        if let Some((t, want)) = batch.iter().zip(n..).find(|(t, want)| t.seq != *want) {
            return self.client_fault(format!("event seq {} out of order, expected {want}", t.seq));
        }
        let events = batch.len() as u64;
        if let Err(e) = lock(&self.session).journal.push(payload, events) {
            return journal_failed(e);
        }
        self.shared
            .stats
            .events
            .fetch_add(events, Ordering::Relaxed);
        if !b.send(EVENTS, payload) {
            return Some(Stop::FailOver);
        }
        if self.ticketed && self.client_alive {
            let buffered = lock(&self.session).journal.len();
            if self.tell_client(ACK, &proto::encode_ack(buffered)) {
                self.acks_sent += 1;
                if self.shared.drop_after == Some(self.acks_sent) {
                    // Fault injection: sever the client link abruptly;
                    // the session state survives for resume.
                    shutdown_both(&self.client);
                }
            }
        }
        None
    }

    fn on_client_gone(&mut self, damage: Option<String>) -> Option<Stop> {
        match damage {
            Some(e) => self.client_fault(format!("bad frame: {e}")),
            // Anonymous sessions cannot resume.
            None if !self.ticketed => Some(Stop::Exit(Exit::Release)),
            None => {
                // Ticketed and unfinished: go ghost — keep driving the
                // backend so already-streamed events still yield their
                // detections; a resume picks the session up.
                self.client_alive = false;
                let buffered = lock(&self.session).journal.len();
                self.span("router.ghost", vec![("events_buffered", buffered.into())]);
                None
            }
        }
    }

    fn on_backend_frame(&mut self, b: &mut Backend, tag: u8, payload: &[u8]) -> Option<Stop> {
        match tag {
            ALARMS => self.on_alarms(b, payload),
            // The backend saw transport damage on our leg (a torn or
            // corrupted frame, a dropped connection): fail over; the
            // replay heals.
            ERROR if payload.starts_with(RETRYABLE_ERROR_PREFIX.as_bytes()) => {
                self.backend_fault(String::from_utf8_lossy(payload).into_owned())
            }
            SUMMARY | ERROR => self.commit_verdict(tag, payload),
            // Anything else from a backend is wire damage too — replay,
            // don't kill the session.
            tag => self.backend_fault(format!("unexpected frame tag {tag}")),
        }
    }

    fn on_alarms(&mut self, b: &mut Backend, payload: &[u8]) -> Option<Stop> {
        let ds = match proto::decode_alarms(payload) {
            Ok(ds) => ds,
            // A garbled ALARMS frame means the backend leg is damaged;
            // failover replays and the deterministic engines re-raise
            // everything.
            Err(e) => return self.backend_fault(format!("bad ALARMS: {e}")),
        };
        // A decoded ALARMS frame is a live round-trip: this incarnation
        // connected, replayed, and spoke protocol. Reset the failover
        // budget so it bounds consecutive *silent* failovers (a hot
        // loop), not total failovers over a long session's lifetime
        // under sustained-but-survivable fault pressure.
        self.failovers = 0;
        // Deduplicate across failovers: analysis is deterministic, so a
        // replayed incarnation re-raises the logged prefix
        // bit-identically; only the tail past the log is new. Fresh
        // alarms hit the journal *before* they are released to the
        // client, so a post-crash recovery never re-raises a delivered
        // alarm out of order.
        let fresh = {
            let mut s = lock(&self.session);
            let skip = (s.journal.alarms().len() as u64).saturating_sub(b.seen);
            b.seen += ds.len() as u64;
            let fresh = &ds[(skip as usize).min(ds.len())..];
            if fresh.is_empty() {
                return None;
            }
            if let Err(e) = s.journal.log_alarms(fresh) {
                return journal_failed(e);
            }
            fresh
        };
        self.tell_client(ALARMS, &proto::encode_alarms(fresh));
        None
    }

    /// Retires a broken incarnation: its slot is marked down (the health
    /// checker revives it) and the session moves on to the next one,
    /// unless the failover budget is spent.
    fn fail_over(&mut self, b: &Backend) -> Option<Exit> {
        let _ = b.socket.shutdown(Shutdown::Both);
        self.shared.pool.mark_down(b.slot, b.generation);
        self.shared.pool.revive(b.slot);
        self.shared.stats.failovers.fetch_add(1, Ordering::Relaxed);
        self.failovers += 1;
        self.span(
            "router.failover",
            vec![
                ("slot", (b.slot as u64).into()),
                ("nth", u64::from(self.failovers).into()),
            ],
        );
        (self.failovers > MAX_FAILOVERS).then(|| {
            self.trouble(
                "failover budget exhausted",
                "session failed over too many times",
            )
        })
    }

    /// Transient infrastructure trouble — no routable backend, an
    /// exhausted failover budget, a wedged transport — is not a verdict
    /// on a *ticketed* session: its journal is intact and a resume can
    /// pick it up once the fleet recovers. Park it (quiet client sever +
    /// detach, table entry kept) instead of forging an ERROR; the
    /// client's retry machine turns the severed leg into a resume.
    /// Anonymous sessions have no resume path and draw the fatal ERROR.
    fn trouble(&self, park_reason: &'static str, fatal_msg: &str) -> Exit {
        if self.ticketed {
            Exit::Park(park_reason)
        } else {
            Exit::Fatal(fatal_msg.to_owned())
        }
    }

    /// Damage on the client leg. A ticketed session severs the leg
    /// quietly and goes ghost: the client sees EOF and resumes from the
    /// last ACK. The damage proves nothing about who
    /// lied, so no verdict is forged. An anonymous session cannot resume
    /// and draws a clean ERROR.
    fn client_fault(&mut self, err: String) -> Option<Stop> {
        if !self.ticketed {
            return Some(Stop::Exit(Exit::Fatal(err)));
        }
        shutdown_both(&self.client);
        self.client_alive = false;
        self.span("router.client_fault", vec![("error", err.into())]);
        None
    }

    /// Damage on the backend leg: record it and fail over.
    fn backend_fault(&self, err: String) -> Option<Stop> {
        self.span("router.backend_fault", vec![("error", err.into())]);
        Some(Stop::FailOver)
    }

    /// Commits the backend's verdict — its SUMMARY, or an ERROR no
    /// failover heals: journal it, count the session, forward it and end
    /// the driver. A failed journal write ends the session instead.
    fn commit_verdict(&mut self, tag: u8, payload: &[u8]) -> Option<Stop> {
        if let Err(msg) = self.record_verdict(tag, payload) {
            return Some(Stop::Exit(Exit::Fatal(msg)));
        }
        self.tell_client(tag, payload);
        Some(Stop::Exit(Exit::Finish))
    }

    /// Journals the verdict and counts the session; a driver records at
    /// most one, since it never pumps a finished session. A failed journal
    /// write returns the message that ends the session instead.
    fn record_verdict(&self, tag: u8, payload: &[u8]) -> Result<(), String> {
        lock(&self.session)
            .journal
            .set_verdict(tag, payload)
            .map_err(|e| format!("session journal write failed: {e}"))?;
        self.shared.stats.sessions.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Sends one frame to a live client; a failed write turns the driver
    /// into a ghost. Returns whether the client is still alive.
    fn tell_client(&mut self, tag: u8, payload: &[u8]) -> bool {
        let w = &mut self.writer;
        self.client_alive =
            self.client_alive && w.write(tag, payload).and_then(|()| w.flush()).is_ok();
        self.client_alive
    }

    fn span(&self, name: &'static str, fields: Vec<(&'static str, FieldVal)>) {
        if let Some(t) = self.shared.trace() {
            t.emit(name, Some(self.key), fields);
        }
    }

    /// The one teardown for every ending. The backend leg (if any) is cut
    /// first; the session is detached before the client reader is joined,
    /// so a resume never waits on a slow drain.
    fn close(mut self, exit: Exit, backend: Option<&Backend>) {
        if let Some(b) = backend {
            let _ = b.socket.shutdown(Shutdown::Both);
        }
        let finish = matches!(exit, Exit::Finish);
        match exit {
            Exit::Fatal(msg) => {
                let msg = self
                    .record_verdict(ERROR, msg.as_bytes())
                    .err()
                    .unwrap_or(msg);
                self.tell_client(ERROR, msg.as_bytes());
                self.shared.table.forget(&self.session);
            }
            Exit::Park(reason) => {
                let buffered = lock(&self.session).journal.len();
                self.span(
                    "router.park",
                    vec![
                        ("reason", reason.into()),
                        ("events_buffered", buffered.into()),
                    ],
                );
            }
            Exit::LetGo => {}
            Exit::Release => self.shared.table.forget(&self.session),
            Exit::Finish => {
                // Clean completion: mirror the backend's half-close
                // discipline so the client's final read sees EOF.
                let _ = self.writer.flush();
                let _ = self.client.shutdown(Shutdown::Write);
            }
        }
        lock(&self.session).detached = Some(Instant::now());
        let acked = finish && self.await_ack();
        shutdown_both(&self.client);
        let _ = self.client_reader.join();
        if finish {
            // A write that succeeded only proves the frames left this
            // process — through a faulting wire that is not delivery. A
            // ticketed verdict counts as delivered only once the client's
            // terminal ACK arrived; otherwise the entry stays, so the
            // next resume collects the verdict from the buffer instead of
            // drawing "unknown session id". The reader has ended, so an
            // ACK it queued after the wait is in the inbox.
            let ack = |m: Msg| matches!(m, Msg::Frame(Leg::Client, ACK, _));
            if !self.ticketed || acked || self.rx.try_iter().any(ack) {
                self.shared.table.forget(&self.session);
            }
        }
    }

    /// Waits, in 25 ms steps, for the client's terminal ACK after a
    /// verdict while the client reader runs. The wait ends at the ACK,
    /// when the client leaves, when the router stops accepting, or after
    /// `idle_timeout`, so a client that holds its socket open cannot hold
    /// the router's shutdown. Returns whether the ACK came.
    fn await_ack(&self) -> bool {
        let since = Instant::now();
        while !self.client_reader.is_finished()
            && self.shared.accepting.load(Ordering::SeqCst)
            && since.elapsed() < self.shared.idle_timeout
        {
            match self.rx.recv_timeout(Duration::from_millis(25)) {
                Ok(Msg::Frame(Leg::Client, ACK, _)) => return true,
                Ok(Msg::Gone(Leg::Client, _)) => return false,
                _ => {}
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    /// The router keeps a handle only for connections still running: a
    /// finished connection's thread is released at the next accept, not
    /// at shutdown.
    #[test]
    fn finished_connection_threads_are_released() {
        let router = route(RouterOptions {
            backends: BackendMode::Spawn(1),
            backend_workers: 1,
            ..RouterOptions::default()
        })
        .expect("router starts");
        for _ in 0..20 {
            // An empty ERROR frame where the HELLO belongs draws an ERROR
            // and ends the connection.
            let mut s = TcpStream::connect(router.local_addr()).expect("connect");
            s.write_all(&[ERROR, 0]).expect("send");
            let mut r = FrameReader::new(BufReader::new(s));
            while let Ok(Some(_)) = r.read() {}
            std::thread::sleep(Duration::from_millis(5));
        }
        let held = lock(&router.conns).len();
        assert!(
            held <= 2,
            "{held} connection handles held after 20 finished"
        );
        router.shutdown();
    }

    /// The health thread's sweep forgets a finished session once no
    /// driver has owned it for the linger, and its journal file goes with
    /// it; a session still owned, detached only lately, or unfinished
    /// stays.
    #[test]
    fn finished_sessions_expire_after_the_linger() {
        let dir = std::env::temp_dir().join(format!("fg-router-expire-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let table = SessionTable::default();
        let long_ago = Instant::now()
            .checked_sub(GHOST_LINGER + Duration::from_secs(1))
            .expect("the clock reaches back past the linger");
        // (id, finished, detached since)
        let sessions = [
            (1, true, Some(long_ago)),
            (2, true, Some(Instant::now())),
            (3, true, None),
            (4, false, Some(long_ago)),
        ];
        for (id, finished, detached) in sessions {
            let mut journal =
                Journal::open(&id.to_string(), b"h".to_vec(), Some(&dir), Arc::default())
                    .expect("journal opens");
            if finished {
                journal.set_verdict(SUMMARY, b"sum").expect("verdict");
            }
            let buf = SessionBuf {
                journal,
                detached,
                takeover: false,
            };
            lock(&table.map).insert(id, Arc::new(Mutex::new(buf)));
        }
        table.expire_finished();
        let mut kept: Vec<u64> = lock(&table.map).keys().copied().collect();
        kept.sort_unstable();
        assert_eq!(kept, [2, 3, 4]);
        assert!(
            !dir.join("1.fgj").exists(),
            "the expired journal is removed"
        );
        assert!(
            dir.join("4.fgj").exists(),
            "a parked session keeps its journal"
        );
        drop(table);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
