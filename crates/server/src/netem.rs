//! The seeded wire-fault proxy: a frame-aware TCP interposer that makes
//! the network lie on purpose.
//!
//! `netem` sits between a client and a router (or a router and a
//! backend) and forwards framed traffic byte-exactly — until its seeded
//! fault schedule fires. Faults are clocked by *progress* (frames
//! forwarded per direction), not wall-clock time, so the same seed
//! reproduces the same damage pattern on any machine:
//!
//! - **delay** — the frame is held for a bounded, seeded number of
//!   milliseconds, then forwarded intact (the only non-lossy fault);
//! - **drop** — the frame vanishes;
//! - **corrupt** — one byte past the tag is flipped;
//! - **truncate** — only a seeded prefix of the frame's bytes leave;
//! - **duplicate** — the frame is forwarded twice;
//! - **disconnect** — the connection dies mid-stream, frame unsent.
//!
//! Every lossy fault also severs the connection immediately after the
//! damage: a real broken link does not politely resynchronize, and the
//! framed protocol has no way to skip garbage mid-stream — recovery is
//! the *session* layer's job (resume tickets + frame-checksum detection),
//! which is exactly the machinery under test.
//!
//! Two frame classes are never faulted: the first `HANDSHAKE_GRACE` (2)
//! frames of each direction (SESSION/HELLO — damaging the handshake
//! yields a terminal refusal, not a retryable transport error) and
//! ERROR/BUSY frames (they are checksum-exempt plain frames whose
//! corruption would forge a *terminal* verdict out of a transport
//! hiccup). Everything else — EVENTS, ACK, ALARMS, SUMMARY, END — is
//! fair game; the chaos contract (zero lost sessions, detections
//! bit-identical to offline) must hold anyway.
//!
//! The proxy parses frames (it must know byte boundaries; the tag says
//! whether a checksum word follows, [`checksummed`]) but never re-encodes
//! them: forwarded frames are bit-identical to what was read. It accepts
//! through the tier's one `Listener` and splices each connection on its
//! own thread pair.

use crate::net::{lock, Listener};
use crate::proto::{checksummed, BUSY, ERROR, MAX_FRAME};
use fireguard_telemetry::TraceSink;
use fireguard_trace::codec::{put_uvarint, read_uvarint};
use fireguard_trace::SimRng;
use std::io::{self, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Frames per direction exempt at the head of each connection, so the
/// handshake (SESSION, HELLO) always survives.
const HANDSHAKE_GRACE: u64 = 2;

/// Wire-fault proxy configuration.
#[derive(Debug, Clone)]
pub struct NetemOptions {
    /// Address to bind (port 0 = ephemeral).
    pub listen: String,
    /// Where honest traffic would have gone (router or backend address).
    pub upstream: String,
    /// Seed for every per-connection, per-direction fault schedule.
    pub seed: u64,
    /// Mean frames between faults per direction (each gap is drawn
    /// uniformly from `1..2*fault_every`). 0 disables fault injection
    /// entirely (pure relay).
    pub fault_every: u64,
    /// Upper bound for the `delay` fault, in milliseconds.
    pub max_delay_ms: u64,
    /// Structured trace sink for `net.fault` spans.
    pub trace: Option<Arc<TraceSink>>,
}

impl Default for NetemOptions {
    fn default() -> Self {
        NetemOptions {
            listen: "127.0.0.1:0".into(),
            upstream: String::new(),
            seed: 7,
            fault_every: 64,
            max_delay_ms: 5,
            trace: None,
        }
    }
}

/// A running wire-fault proxy.
pub struct NetemHandle {
    listener: Listener,
    faults: Arc<AtomicU64>,
    /// The live connections' sockets, tagged with their connection index;
    /// a connection's entries go when its splice ends.
    conns: Arc<Mutex<Vec<(u64, TcpStream)>>>,
    pairs: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl NetemHandle {
    /// The proxy's listening address (clients dial this instead of the
    /// upstream).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr()
    }

    /// Faults injected so far, across all connections and directions.
    pub fn faults(&self) -> u64 {
        self.faults.load(Ordering::Relaxed)
    }

    /// Stops accepting, severs every live connection, and joins all
    /// proxy threads.
    pub fn shutdown(mut self) {
        self.stop_all();
    }

    /// Blocks until the proxy stops (foreground `chaos-net` mode — the
    /// accept loop only exits when the process is killed).
    pub fn join(mut self) {
        self.listener.join();
    }

    fn stop_all(&mut self) {
        self.listener.stop();
        self.listener.join();
        for (_, s) in lock(&self.conns).drain(..) {
            let _ = s.shutdown(Shutdown::Both);
        }
        for h in lock(&self.pairs).drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for NetemHandle {
    fn drop(&mut self) {
        self.stop_all();
    }
}

/// Starts the proxy.
///
/// # Errors
///
/// Only bind failures; per-connection trouble (including an unreachable
/// upstream) surfaces to the affected client as a severed connection,
/// which is the point.
pub fn netem(opts: NetemOptions) -> io::Result<NetemHandle> {
    let socket = TcpListener::bind(&opts.listen)?;
    let faults = Arc::new(AtomicU64::new(0));
    let conns: Arc<Mutex<Vec<(u64, TcpStream)>>> = Arc::new(Mutex::new(Vec::new()));
    let pairs: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

    let listener = {
        let faults = Arc::clone(&faults);
        let conns = Arc::clone(&conns);
        let pairs = Arc::clone(&pairs);
        let mut conn_index = 0u64;
        Listener::spawn(socket, None, move |client| {
            let index = conn_index;
            conn_index += 1;
            if let Ok(c) = client.try_clone() {
                lock(&conns).push((index, c));
            }
            let opts = opts.clone();
            let faults = Arc::clone(&faults);
            let conns = Arc::clone(&conns);
            let h = std::thread::spawn(move || {
                splice(client, index, &opts, &faults, &conns);
                lock(&conns).retain(|(i, _)| *i != index);
            });
            // As in the router: a finished splice's handle goes at the
            // next accept, so a long-running proxy holds only live ones.
            let mut pairs = lock(&pairs);
            pairs.retain(|h| !h.is_finished());
            pairs.push(h);
        })?
    };

    Ok(NetemHandle {
        listener,
        faults,
        conns,
        pairs,
    })
}

/// One proxied connection: dial upstream, pump both directions, join.
fn splice(
    client: TcpStream,
    index: u64,
    opts: &NetemOptions,
    faults: &Arc<AtomicU64>,
    conns: &Arc<Mutex<Vec<(u64, TcpStream)>>>,
) {
    let _ = client.set_nodelay(true);
    let upstream = match TcpStream::connect(&opts.upstream) {
        Ok(s) => s,
        Err(_) => {
            let _ = client.shutdown(Shutdown::Both);
            return;
        }
    };
    let _ = upstream.set_nodelay(true);
    if let Ok(u) = upstream.try_clone() {
        lock(conns).push((index, u));
    }

    let pump_cfg = |dir: &'static str, dir_salt: u64| PumpCfg {
        dir,
        seed: pump_seed(opts.seed, index, dir_salt),
        fault_every: opts.fault_every,
        max_delay_ms: opts.max_delay_ms,
        faults: Arc::clone(faults),
        trace: opts.trace.clone(),
    };
    let c2s = {
        let (Ok(from), Ok(to)) = (client.try_clone(), upstream.try_clone()) else {
            let _ = client.shutdown(Shutdown::Both);
            let _ = upstream.shutdown(Shutdown::Both);
            return;
        };
        let cfg = pump_cfg("c2s", 0x0C25);
        std::thread::spawn(move || pump(from, to, cfg))
    };
    pump(upstream, client, pump_cfg("s2c", 0x52C5));
    let _ = c2s.join();
}

fn pump_seed(seed: u64, index: u64, dir_salt: u64) -> u64 {
    seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ dir_salt
}

struct PumpCfg {
    dir: &'static str,
    seed: u64,
    fault_every: u64,
    max_delay_ms: u64,
    faults: Arc<AtomicU64>,
    trace: Option<Arc<TraceSink>>,
}

/// ERROR and BUSY pass the proxy unfaulted (see module docs).
fn exempt(tag: u8) -> bool {
    tag == ERROR || tag == BUSY
}

/// Reads one raw frame: its tag and its full byte image (header ‖ payload
/// ‖ the checksum word, when the tag carries one).
fn read_raw<R: Read>(r: &mut R) -> io::Result<Option<(u8, Vec<u8>)>> {
    let mut tag = [0u8; 1];
    loop {
        match r.read(&mut tag) {
            Ok(0) => return Ok(None),
            Ok(_) => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len =
        read_uvarint(r).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame too large",
        ));
    }
    let mut bytes = vec![tag[0]];
    put_uvarint(&mut bytes, len);
    let payload_at = bytes.len();
    let sum = if checksummed(tag[0]) { 4 } else { 0 };
    bytes.resize(payload_at + len as usize + sum, 0);
    r.read_exact(&mut bytes[payload_at..])?;
    Ok(Some((tag[0], bytes)))
}

fn sever(a: &TcpStream, b: &TcpStream) {
    let _ = a.shutdown(Shutdown::Both);
    let _ = b.shutdown(Shutdown::Both);
}

const FAULT_KINDS: [&str; 6] = [
    "delay",
    "drop",
    "corrupt",
    "truncate",
    "duplicate",
    "disconnect",
];

/// One direction of one proxied connection.
fn pump(from: TcpStream, mut to: TcpStream, cfg: PumpCfg) {
    let Ok(from_raw) = from.try_clone() else {
        sever(&from, &to);
        return;
    };
    let mut r = BufReader::new(from);
    let mut rng = SimRng::seed_from_u64(cfg.seed);
    let gap = |rng: &mut SimRng| rng.range_u64(1, (2 * cfg.fault_every).max(2));
    let mut due = if cfg.fault_every == 0 {
        0
    } else {
        gap(&mut rng)
    };
    let mut forwarded = 0u64;
    loop {
        let Ok(Some((tag, mut bytes))) = read_raw(&mut r) else {
            sever(&from_raw, &to);
            return;
        };
        // ERROR/BUSY pass untouched and don't advance the fault clock.
        if exempt(tag) {
            if to.write_all(&bytes).is_err() {
                sever(&from_raw, &to);
                return;
            }
            continue;
        }
        forwarded += 1;
        let fire = cfg.fault_every != 0 && forwarded > HANDSHAKE_GRACE && {
            due = due.saturating_sub(1);
            due == 0
        };
        if !fire {
            if to.write_all(&bytes).is_err() {
                sever(&from_raw, &to);
                return;
            }
            continue;
        }
        due = gap(&mut rng);
        let kind = rng.range_usize(FAULT_KINDS.len());
        cfg.faults.fetch_add(1, Ordering::Relaxed);
        if let Some(t) = cfg.trace.as_deref() {
            t.emit(
                "net.fault",
                None,
                vec![
                    ("dir", cfg.dir.into()),
                    ("kind", FAULT_KINDS[kind].into()),
                    ("frame", forwarded.into()),
                    ("tag", u64::from(tag).into()),
                ],
            );
        }
        match kind {
            // delay: hold, then forward intact — the only survivable one.
            0 => {
                let ms = rng.range_u64(0, cfg.max_delay_ms.max(1) + 1);
                std::thread::sleep(Duration::from_millis(ms));
                if to.write_all(&bytes).is_err() {
                    sever(&from_raw, &to);
                    return;
                }
            }
            // drop: the frame vanishes; the stream is now desynchronized.
            1 => {
                sever(&from_raw, &to);
                return;
            }
            // corrupt: flip one byte past the tag (never the tag itself —
            // a forged ERROR tag would fake a terminal verdict).
            2 => {
                let at = 1 + rng.range_usize(bytes.len() - 1);
                bytes[at] ^= 1 + rng.range_usize(255) as u8;
                let _ = to.write_all(&bytes);
                sever(&from_raw, &to);
                return;
            }
            // truncate: a prefix leaves, the tail never does.
            3 => {
                let cut = rng.range_usize(bytes.len());
                let _ = to.write_all(&bytes[..cut]);
                sever(&from_raw, &to);
                return;
            }
            // duplicate: the frame arrives twice (index-bound checksums
            // make the receiver catch the replay).
            4 => {
                let _ = to.write_all(&bytes);
                let _ = to.write_all(&bytes);
                sever(&from_raw, &to);
                return;
            }
            // disconnect: the link dies, frame unsent.
            _ => {
                sever(&from_raw, &to);
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A finished connection's sockets and splice thread are released
    /// while the proxy runs, not only at shutdown: after 20 proxied
    /// connections end, the handle holds at most the last one's.
    #[test]
    fn finished_connections_are_released() {
        let upstream = TcpListener::bind("127.0.0.1:0").expect("upstream binds");
        let upstream_addr = upstream.local_addr().expect("bound").to_string();
        // The upstream hangs up on every connection at once.
        let hang_up = std::thread::spawn(move || upstream.incoming().take(20).for_each(drop));
        let proxy = netem(NetemOptions {
            upstream: upstream_addr,
            fault_every: 0,
            ..NetemOptions::default()
        })
        .expect("proxy starts");
        // One deadline for the whole run, so a proxy that never releases
        // anything fails in seconds rather than once per connection.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        for _ in 0..20 {
            let mut s = TcpStream::connect(proxy.local_addr()).expect("connect");
            // The upstream's hang-up reaches the client as EOF.
            let _ = s.read(&mut [0u8; 1]);
            // Let the splice end and drop its sockets before the next
            // accept prunes the finished handles.
            while !lock(&proxy.conns).is_empty() && std::time::Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        hang_up.join().expect("the upstream exits");
        let (sockets, handles) = (lock(&proxy.conns).len(), lock(&proxy.pairs).len());
        assert!(
            sockets <= 2 && handles <= 2,
            "{sockets} sockets and {handles} handles held after 20 finished connections"
        );
        proxy.shutdown();
    }
}
