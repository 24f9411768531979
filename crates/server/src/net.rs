//! The service tier's shared plumbing: one accept loop ([`Listener`]),
//! one poison-tolerant lock ([`lock`]), one ERROR-frame writer
//! ([`send_error`]) and one session pool ([`run_pool`]). Serve, the
//! router, the chaos-net proxy and the metrics endpoint each run exactly
//! one [`Listener`].
//!
//! A listener blocks in `accept` on its own thread; nothing polls. Its
//! stop path sets a flag and wakes the blocked `accept` with one
//! loopback connect, which the loop drops unserved.

use crate::proto::{FrameWriter, ERROR};
use std::io::{self, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long the accept loop backs off after an accept error, so a
/// persistent one (EMFILE, ENFILE) cannot spin the thread.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(5);

/// A bound TCP listener whose accept loop runs on its own thread and
/// hands each connection to the caller's closure.
#[derive(Debug)]
pub(crate) struct Listener {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Listener {
    /// Runs the accept loop over `socket` on its own thread, handing
    /// every accepted connection to `on_conn` until `budget` connections
    /// (when set) have been handed over or [`Listener::stop`] is called.
    /// The closure, and everything it owns, is dropped the moment the
    /// loop ends; the socket closes with it. Callers bind `socket` before
    /// anything else they start, so a busy port fails fast.
    pub(crate) fn spawn(
        socket: TcpListener,
        budget: Option<u64>,
        mut on_conn: impl FnMut(TcpStream) + Send + 'static,
    ) -> io::Result<Listener> {
        let local_addr = socket.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut left = budget;
                while left != Some(0) {
                    let conn = socket.accept();
                    // Whatever woke the accept, a stopped listener serves
                    // nothing more: the wake connection is dropped here.
                    if stop.load(Ordering::SeqCst) {
                        return;
                    }
                    match conn {
                        Ok((stream, _)) => {
                            left = left.map(|n| n - 1);
                            on_conn(stream);
                        }
                        Err(_) => std::thread::sleep(ACCEPT_BACKOFF),
                    }
                }
            })
        };
        Ok(Listener {
            local_addr,
            stop,
            thread: Some(thread),
        })
    }

    /// The bound address (resolves port 0).
    pub(crate) fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Ends the accept loop without waiting for it: sets the stop flag,
    /// then wakes a blocked `accept` with one loopback connect.
    pub(crate) fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        // A loop that already ended has closed its socket; the port may
        // belong to someone else by now.
        if !self.thread.as_ref().is_some_and(|t| !t.is_finished()) {
            return;
        }
        let mut wake = self.local_addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake.ip() {
                IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
            });
        }
        // If the backlog is full, `accept` is not blocked and sees the
        // flag on its own; the connect only has to not hang.
        let _ = TcpStream::connect_timeout(&wake, Duration::from_secs(1));
    }

    /// Waits for the accept loop to end (budget spent or stopped).
    pub(crate) fn join(&mut self) {
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Poisoned locks recovered by [`lock`] so far, across every server lock
/// in the process (`fireguard_router_lock_poison_total`).
pub(crate) static LOCK_POISONS: AtomicU64 = AtomicU64::new(0);

/// Locks `m`, recovering (and counting) a poisoned guard. A thread that
/// panicked while holding a server lock must not cascade the panic
/// through every thread that touches it; the data under each server lock
/// stays valid because every critical section is a small, atomic
/// mutation.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| {
        LOCK_POISONS.fetch_add(1, Ordering::Relaxed);
        poisoned.into_inner()
    })
}

/// Best-effort ERROR frame: the session is over either way.
pub(crate) fn send_error<W: Write>(w: &mut FrameWriter<W>, msg: &str) {
    let _ = w.write(ERROR, msg.as_bytes());
    let _ = w.flush();
}

/// The session pool both soak runs ([`crate::run_loadgen`] and
/// [`crate::run_chaos`]) share: worker threads pull session indices off
/// one atomic cursor and keep opening sessions while `i < sessions` or
/// the soak `duration`, counted from `started`, has not run out. Returns
/// the thread count and, in completion order, each session's
/// `(index, completion offset from started, result)`.
pub(crate) fn run_pool<T: Send>(
    started: Instant,
    sessions: usize,
    concurrency: usize,
    duration: Option<Duration>,
    session: impl Fn(usize) -> T + Sync,
) -> (usize, Vec<(usize, Duration, T)>) {
    let threads = if duration.is_some() {
        concurrency.max(1)
    } else {
        concurrency.clamp(1, sessions.max(1))
    };
    let cursor = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let tx = tx.clone();
            let (cursor, session) = (&cursor, &session);
            scope.spawn(move || loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let more = i < sessions || duration.is_some_and(|d| started.elapsed() < d);
                if !more {
                    break;
                }
                let out = session(i);
                let _ = tx.send((i, started.elapsed(), out));
            });
        }
    });
    drop(tx);
    (threads, rx.into_iter().collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stop_wakes_a_blocked_accept() {
        let socket = TcpListener::bind("127.0.0.1:0").expect("bind");
        let mut listener = Listener::spawn(socket, None, drop).expect("spawn");
        // Give the loop time to block in `accept`. Only the wake connect
        // can end a blocked accept, so a stop without it would hang.
        std::thread::sleep(Duration::from_millis(50));
        let (done, stopped) = mpsc::channel();
        std::thread::spawn(move || {
            listener.stop();
            listener.join();
            let _ = done.send(());
        });
        stopped
            .recv_timeout(Duration::from_secs(10))
            .expect("stop() wakes the blocked accept");
    }

    #[test]
    fn budget_ends_the_loop_and_closes_the_socket() {
        let (tx, rx) = mpsc::channel();
        let socket = TcpListener::bind("127.0.0.1:0").expect("bind");
        let mut listener = Listener::spawn(socket, Some(2), move |s| {
            let _ = tx.send(s);
        })
        .expect("spawn");
        let addr = listener.local_addr();
        let _first = TcpStream::connect(addr).expect("first connect");
        let _second = TcpStream::connect(addr).expect("second connect");
        listener.join();
        assert_eq!(rx.iter().count(), 2, "both connections handed over");
        let third = TcpStream::connect(addr).expect_err("listener closed");
        assert_eq!(third.kind(), io::ErrorKind::ConnectionRefused);
    }
}
