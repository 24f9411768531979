//! The client side of a streaming session: connect, send the HELLO,
//! stream a pre-captured event vector, and collect the online alarms +
//! summary.
//!
//! Sending and receiving run on separate threads (events out, frames in),
//! so a long session can never deadlock on full TCP buffers in both
//! directions: alarms are consumed while events are still being written.
//!
//! A plain session is one connection `attempt`; a routed session loops
//! over attempts, resuming after each transport death.

use crate::net::lock;
use crate::proto::{
    decode_ack, decode_alarms, FrameReader, FrameWriter, SessionConfig, SessionTicket, Summary,
    ACK, ALARMS, BUSY, END, ERROR, EVENTS, HELLO, SESSION, SUMMARY,
};
use fireguard_soc::Detection;
use fireguard_trace::codec::EventEncoder;
use fireguard_trace::{SimRng, TraceInst};
use std::io::{BufReader, BufWriter};
use std::net::{Shutdown, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Events per EVENTS frame (amortizes framing without growing latency).
pub const DEFAULT_BATCH: usize = 512;

/// Consecutive reconnects without progress before a routed session gives
/// up. An attempt made progress if an ACK passed every earlier ACK or new
/// alarms arrived; progress also resets the backoff.
const MAX_RECONNECTS: u32 = 8;

/// Everything a finished session produced.
#[derive(Debug, Clone)]
pub struct SessionOutcome {
    /// Detections streamed online (ALARMS frames), in arrival order.
    pub alarms: Vec<Detection>,
    /// The final session summary.
    pub summary: Summary,
    /// Events streamed to the server.
    pub events_sent: u64,
    /// Wall-clock duration of the whole session.
    pub wall: Duration,
}

/// Client-side failure modes.
#[derive(Debug)]
pub enum ClientError {
    /// Connection or transport failure.
    Io(std::io::Error),
    /// A frame that would not decode.
    Codec(fireguard_trace::codec::CodecError),
    /// The server refused or aborted the session (ERROR frame).
    Server(String),
    /// The server violated the protocol (e.g. closed before SUMMARY).
    Protocol(String),
    /// The session config failed validation before anything was sent.
    Config(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Codec(e) => write!(f, "codec error: {e}"),
            ClientError::Server(m) => write!(f, "server error: {m}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::Config(m) => write!(f, "invalid session config: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<fireguard_trace::codec::CodecError> for ClientError {
    fn from(e: fireguard_trace::codec::CodecError) -> Self {
        ClientError::Codec(e)
    }
}

/// Runs one complete session against `addr`: HELLO, the full event
/// stream in `batch`-sized frames, END, then collects ALARMS until the
/// SUMMARY arrives.
///
/// # Errors
///
/// Any [`ClientError`]; an ERROR frame from the server maps to
/// [`ClientError::Server`].
pub fn run_session(
    addr: &str,
    cfg: &SessionConfig,
    events: Arc<Vec<TraceInst>>,
    batch: usize,
) -> Result<SessionOutcome, ClientError> {
    // Validate-and-encode before touching the network: a config the
    // server would refuse anyway never opens a connection.
    let hello = cfg.encode().map_err(ClientError::Config)?;

    let started = Instant::now();
    let mut alarms = Vec::new();
    let (verdict, sent) = attempt(
        addr,
        &hello,
        &events,
        None,
        batch.max(1),
        &mut alarms,
        &mut Acks::default(),
    )?;
    // A panicked sender is a session error, not a client-process abort.
    let sent =
        sent.map_err(|_| ClientError::Protocol("sender thread panicked mid-session".to_owned()))?;
    let summary = match verdict {
        Attempt::Finished(summary) => summary,
        Attempt::Refused(msg) | Attempt::Shed(msg) => return Err(ClientError::Server(msg)),
        // The server may stop reading as soon as its commit target is
        // reached, so the sender can legitimately die on a broken pipe —
        // only surface its error if the session as a whole failed.
        Attempt::Retry => {
            return Err(match sent {
                Err(e) => ClientError::Io(e),
                Ok(()) => ClientError::Protocol("connection closed before SUMMARY".to_owned()),
            });
        }
    };
    Ok(SessionOutcome {
        alarms,
        summary,
        events_sent: events.len() as u64,
        wall: started.elapsed(),
    })
}

// ---- routed (resumable) sessions -------------------------------------------

/// How a routed session identifies and protects itself.
#[derive(Debug, Clone, Copy)]
pub struct RoutedOptions {
    /// Fleet-unique session id (consistent-hash key at the router).
    pub session_id: u64,
    /// Events per EVENTS frame.
    pub batch: usize,
}

impl RoutedOptions {
    /// Defaults for `session_id`: [`DEFAULT_BATCH`] events per frame.
    pub fn new(session_id: u64) -> Self {
        RoutedOptions {
            session_id,
            batch: DEFAULT_BATCH,
        }
    }
}

/// A finished routed session: the plain outcome plus how bumpy the ride
/// was.
#[derive(Debug, Clone)]
pub struct RoutedOutcome {
    /// The session outcome — alarm-for-alarm identical to what an
    /// uninterrupted direct session would have produced.
    pub outcome: SessionOutcome,
    /// Transport deaths survived by resuming (0 = clean run).
    pub reconnects: u32,
    /// Per-reconnect recovery latency: transport death to the resumed
    /// connection's ACK. One entry per *successful* resume; a resume that
    /// itself died extends the same gap rather than starting a new one.
    pub reconnect_latencies: Vec<Duration>,
}

/// One connection attempt's verdict.
enum Attempt {
    /// The SUMMARY arrived — terminal.
    Finished(Summary),
    /// The transport died (or the session was momentarily busy); a routed
    /// session resumes.
    Retry,
    /// Load-shed with a BUSY frame (its text) *before* the session
    /// registered; a routed session's next attempt must be a fresh open,
    /// not a resume.
    Shed(String),
    /// The server refused the session outright — terminal.
    Refused(String),
}

/// How an attempt's sender thread ended.
type Sent = std::thread::Result<std::io::Result<()>>;

/// The ACKs a routed session has heard: the highest event count any ACK
/// carried, and when the latest attempt's resume was acknowledged.
#[derive(Default)]
struct Acks {
    high: u64,
    resumed_at: Option<Instant>,
}

/// Capped exponential backoff with deterministic, seeded jitter: attempt
/// `n` sleeps a uniform draw from `[cap/2, cap]` where
/// `cap = min(5ms << n, 500ms)`. Seeding by `(session_id, attempt)` keeps
/// chaos runs reproducible while decorrelating concurrent sessions (no
/// thundering herd on a router restart).
fn reconnect_backoff(session_id: u64, attempt: u32) -> Duration {
    const BASE_MS: u64 = 5;
    const CAP_MS: u64 = 500;
    let cap = BASE_MS.checked_shl(attempt).unwrap_or(CAP_MS).min(CAP_MS);
    let mut rng =
        SimRng::seed_from_u64(session_id ^ (u64::from(attempt) << 32) ^ 0xBAC0_FF5E_0DE1_A75D);
    Duration::from_millis(rng.range_u64(cap / 2, cap + 1))
}

/// Runs one complete *resumable* session through a router: opens with a
/// [`SessionTicket`], streams events, and — when the transport dies
/// mid-session — reconnects and resumes from the router's last ACK,
/// replaying only the unacknowledged tail. The alarm stream is lossless
/// and duplicate-free across any number of reconnects (the resume ticket
/// reports how many alarms arrived, and the router re-sends the rest).
///
/// Requires a router peer: a plain [`serve`](crate::serve) answers the
/// SESSION frame with an ERROR.
///
/// # Errors
///
/// Any [`ClientError`]; transport failures surface only after
/// `MAX_RECONNECTS` (8) consecutive attempts made no progress.
pub fn run_routed_session(
    addr: &str,
    cfg: &SessionConfig,
    events: Arc<Vec<TraceInst>>,
    opts: RoutedOptions,
) -> Result<RoutedOutcome, ClientError> {
    let hello = cfg.encode().map_err(ClientError::Config)?;
    let started = Instant::now();
    let batch = opts.batch.max(1);

    let mut alarms: Vec<Detection> = Vec::new();
    let mut acks = Acks::default();
    let mut reconnects = 0u32;
    // Attempts since the last one that made progress.
    let mut stalled = 0u32;
    let mut first = true;
    // Recovery-latency clock: set when a transport dies, cleared when a
    // resume's ACK lands — the gap is one reconnect latency sample.
    let mut disconnected_at: Option<Instant> = None;
    let mut reconnect_latencies: Vec<Duration> = Vec::new();
    loop {
        let before = (acks.high, alarms.len());
        let ticket = SessionTicket {
            id: opts.session_id,
            resume: !first,
            alarms_received: alarms.len() as u64,
        };
        let attempt = attempt(
            addr,
            &hello,
            &events,
            Some(ticket),
            batch,
            &mut alarms,
            &mut acks,
        )
        .map(|(verdict, _)| verdict);
        if let (Some(death), Some(ack)) = (disconnected_at, acks.resumed_at.take()) {
            reconnect_latencies.push(ack.saturating_duration_since(death));
            disconnected_at = None;
        }
        // Every arm that does not end the session names the error it ends
        // with once the reconnect budget is spent.
        let give_up = match attempt {
            Ok(Attempt::Finished(summary)) => {
                return Ok(RoutedOutcome {
                    outcome: SessionOutcome {
                        alarms,
                        summary,
                        events_sent: events.len() as u64,
                        wall: started.elapsed(),
                    },
                    reconnects,
                    reconnect_latencies,
                });
            }
            Ok(Attempt::Refused(msg)) => {
                // A resume the router does not recognize, with nothing
                // delivered yet, means the *registration* was lost on the
                // wire (the opening SESSION+HELLO never survived to the
                // router). Nothing observable happened: start over fresh.
                if first || !alarms.is_empty() || !msg.starts_with("unknown session id") {
                    return Err(ClientError::Server(msg));
                }
                first = true;
                ClientError::Server(msg)
            }
            // BUSY arrives before the session registers, so the next
            // attempt must open fresh (`first` stays as it was).
            Ok(Attempt::Shed(_)) => ClientError::Server(format!(
                "session {} shed by admission control after {} attempts",
                opts.session_id, reconnects
            )),
            // The transport died; connect-level failures are retryable too
            // (the router may be briefly unreachable).
            lost => {
                first = false;
                disconnected_at.get_or_insert_with(Instant::now);
                match lost {
                    Err(e) => e,
                    _ => ClientError::Protocol(format!(
                        "session {} gave up after {} reconnects",
                        opts.session_id, reconnects
                    )),
                }
            }
        };
        let progress = acks.high > before.0 || alarms.len() > before.1;
        stalled = if progress { 1 } else { stalled + 1 };
        if stalled > MAX_RECONNECTS {
            return Err(give_up);
        }
        reconnects += 1;
        std::thread::sleep(reconnect_backoff(opts.session_id, stalled));
    }
}

/// One connection's worth of a session: the handshake (a plain HELLO, or
/// a routed ticket), the event stream from wherever the server says it
/// starts, and frames collected until the verdict or transport death.
/// `alarms` and `acks` accumulate across attempts — the alarm count
/// doubles as the resume ticket's `alarms_received`.
fn attempt(
    addr: &str,
    hello: &[u8],
    events: &Arc<Vec<TraceInst>>,
    ticket: Option<SessionTicket>,
    batch: usize,
    alarms: &mut Vec<Detection>,
    acks: &mut Acks,
) -> Result<(Attempt, Sent), ClientError> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let routed = ticket.is_some();
    let mut reader = FrameReader::new(BufReader::new(stream.try_clone()?));

    // The handshake: a routed ticket, then the HELLO; a resume sends its
    // ticket alone.
    let mut writer = FrameWriter::new(BufWriter::new(stream.try_clone()?));
    if let Some(t) = ticket {
        writer.write(SESSION, &t.encode())?;
    }
    let resume = ticket.is_some_and(|t| t.resume);
    if !resume {
        writer.write(HELLO, hello)?;
    }
    writer.flush()?;

    // Where the (re)play starts: a fresh session streams everything; a
    // resume first hears the router's ACK for what it already buffered.
    let start = if resume {
        match reader.read() {
            Ok(Some((ACK, payload))) => {
                acks.resumed_at = Some(Instant::now());
                let n = decode_ack(&payload)?;
                acks.high = acks.high.max(n);
                n as usize
            }
            refusal => {
                let verdict = match refusal {
                    // A ghost driver may still be letting go; that's a
                    // timing accident, not a refusal.
                    Ok(Some((ERROR, msg))) if msg.starts_with(b"session busy") => Attempt::Retry,
                    Ok(Some((ERROR, msg))) => Attempt::Refused(text(&msg)),
                    Ok(Some((BUSY, msg))) => Attempt::Shed(text(&msg)),
                    Ok(Some((tag, _))) => {
                        return Err(ClientError::Protocol(format!(
                            "expected ACK on resume, got frame tag {tag}"
                        )));
                    }
                    Ok(None) | Err(_) => Attempt::Retry,
                };
                // No sender ran, so none failed.
                return Ok((verdict, Ok(Ok(()))));
            }
        }
    } else {
        0
    };

    // The write side is shared with the sender thread: a routed session's
    // terminal delivery ACK (below) must ride the *same* writer so the
    // per-connection frame index stays continuous.
    let writer = Arc::new(Mutex::new(writer));
    let sender = {
        let events = Arc::clone(events);
        let writer = Arc::clone(&writer);
        std::thread::spawn(move || -> std::io::Result<()> {
            let mut enc = EventEncoder::new();
            for chunk in events[start.min(events.len())..].chunks(batch) {
                let bytes = enc.encode_batch(chunk);
                lock(&writer).write(EVENTS, &bytes)?;
            }
            let mut w = lock(&writer);
            w.write(END, &[])?;
            w.flush()
        })
    };

    // A torn frame ends a plain session with its codec error; a routed
    // session treats it like EOF: the transport died — or lied — and the
    // session resumes.
    let mut next = || match reader.read() {
        Err(e) if !routed => Err(ClientError::Codec(e)),
        frame => Ok(frame.unwrap_or(None)),
    };
    let verdict = loop {
        match next()? {
            Some((ALARMS, payload)) => alarms.extend(decode_alarms(&payload)?),
            Some((ACK, payload)) if routed => {
                // Progress bookkeeping only; correctness needs no action.
                acks.high = acks.high.max(decode_ack(&payload)?);
            }
            Some((SUMMARY, payload)) => break Attempt::Finished(Summary::decode(&payload)?),
            Some((ERROR, msg)) => break Attempt::Refused(text(&msg)),
            // Admission control said no — a clean, deliberate refusal (a
            // router under load, not a broken one).
            Some((BUSY, msg)) => break Attempt::Shed(text(&msg)),
            Some((tag, _)) => {
                let _ = stream.shutdown(Shutdown::Both);
                let _ = sender.join();
                return Err(ClientError::Protocol(format!("unexpected frame tag {tag}")));
            }
            None => break Attempt::Retry,
        }
    };
    if routed {
        if matches!(verdict, Attempt::Finished(_) | Attempt::Refused(_)) {
            // Terminal delivery ACK, after a SUMMARY or an ERROR: through
            // a faulting wire, the router's successful verdict write
            // proves nothing — it holds the session resumable until this
            // frame confirms the verdict arrived.
            let mut w = lock(&writer);
            let _ = w.write(ACK, &[]).and_then(|()| w.flush());
        }
        // Unblock the sender: the reader's verdict decides, not its
        // errors.
        let _ = stream.shutdown(Shutdown::Both);
    }
    // A plain server drains the stream after its verdict, so a plain
    // sender runs to END on its own.
    Ok((verdict, sender.join()))
}

/// An ERROR or BUSY payload as text.
fn text(payload: &[u8]) -> String {
    String::from_utf8_lossy(payload).into_owned()
}
