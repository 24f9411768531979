//! The live metrics plane: a tiny admin TCP endpoint (`--metrics-addr`)
//! that answers every HTTP request (e.g. `GET /metrics HTTP/1.0`) with a
//! `200 OK` and a Prometheus-style text exposition of the current counter
//! snapshot — point a real scraper at it. [`scrape`] is the client half
//! `fireguard stats` speaks.
//!
//! The endpoint is read-only and lives on its own listener, so the
//! session protocol (and its pinned byte-level fixtures) is untouched.

use crate::net::Listener;
use crate::proto::MAX_FRAME;
use fireguard_telemetry::{parse_exposition, render_exposition, Sample};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// Produces the current samples on demand — each scrape sees live values.
pub type SampleSource = Arc<dyn Fn() -> Vec<Sample> + Send + Sync>;

/// A running metrics endpoint. Dropping the handle leaks the thread;
/// call [`MetricsHandle::shutdown`] (the owning service does, from its
/// own shutdown path).
#[derive(Debug)]
pub struct MetricsHandle {
    listener: Listener,
}

impl MetricsHandle {
    /// The bound address (`--metrics-addr 127.0.0.1:0` resolves here).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr()
    }

    /// Stops the accept loop and joins the endpoint thread.
    pub fn shutdown(mut self) {
        self.listener.stop();
        self.listener.join();
    }
}

/// Starts a metrics endpoint on `addr` serving whatever `source`
/// produces at scrape time.
///
/// # Errors
///
/// Bind failures.
pub fn serve_metrics(addr: &str, source: SampleSource) -> io::Result<MetricsHandle> {
    // Scrapes are cheap and rare (a human, a CI step, a scraper on a
    // multi-second period): serving inline keeps the endpoint
    // single-threaded and unfloodable.
    let listener = Listener::spawn(TcpListener::bind(addr)?, None, move |stream| {
        let _ = handle_scrape(&stream, &source);
    })?;
    Ok(MetricsHandle { listener })
}

fn handle_scrape(mut stream: &TcpStream, source: &SampleSource) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.set_write_timeout(Some(Duration::from_secs(5)))?;
    // Drain the request head (best effort), answer 200.
    let mut buf = [0u8; 1024];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                if buf[..n].windows(4).any(|w| w == b"\r\n\r\n")
                    || buf[..n].windows(2).any(|w| w == b"\n\n")
                {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let body = render_exposition(&source());
    write!(
        stream,
        "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
        body.len(),
        body
    )?;
    stream.flush()
}

/// Scrapes a metrics endpoint over HTTP and parses the exposition into
/// samples — the client half `fireguard stats` uses.
///
/// # Errors
///
/// Connect and transport failures. A non-200 answer, one longer than
/// [`MAX_FRAME`] bytes, non-UTF-8 text or a malformed exposition maps to
/// [`std::io::ErrorKind::InvalidData`].
pub fn scrape(addr: &str) -> io::Result<Vec<Sample>> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.write_all(b"GET /metrics HTTP/1.0\r\n\r\n")?;
    // One byte past the cap tells an oversized answer from one that fits.
    let mut answer = Vec::new();
    stream.take(MAX_FRAME + 1).read_to_end(&mut answer)?;
    if answer.len() as u64 > MAX_FRAME {
        return Err(invalid(format!("answer exceeds {MAX_FRAME} bytes")));
    }
    let text = String::from_utf8(answer).map_err(|_| invalid("non-UTF-8 answer".to_owned()))?;
    let (head, body) = text.split_once("\r\n\r\n").unwrap_or((&text, ""));
    let status = head.lines().next().unwrap_or_default();
    if !status.starts_with("HTTP/1.") || status.split_whitespace().nth(1) != Some("200") {
        return Err(invalid(format!("unexpected answer: {status}")));
    }
    parse_exposition(body).map_err(invalid)
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed_source() -> SampleSource {
        Arc::new(|| {
            vec![
                Sample::new("fireguard_packets_total", 42),
                Sample::new("fireguard_kernel_packets_total", 7).label("kernel", "asan"),
            ]
        })
    }

    #[test]
    fn scrape_round_trips() {
        let h = serve_metrics("127.0.0.1:0", fixed_source()).expect("bind");
        let samples = scrape(&h.local_addr().to_string()).expect("scrape");
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[0].count(), 42);
        assert_eq!(samples[1].label_value("kernel"), Some("asan"));
        h.shutdown();
    }

    #[test]
    fn http_scrape_serves_a_valid_exposition() {
        let h = serve_metrics("127.0.0.1:0", fixed_source()).expect("bind");
        let mut stream = TcpStream::connect(h.local_addr()).expect("connect");
        stream
            .write_all(b"GET /metrics HTTP/1.0\r\n\r\n")
            .expect("request");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("response");
        assert!(response.starts_with("HTTP/1.0 200 OK"));
        let body = response.split("\r\n\r\n").nth(1).expect("body");
        let parsed = parse_exposition(body).expect("valid exposition");
        assert_eq!(parsed.len(), 2);
        h.shutdown();
    }

    /// A one-shot endpoint that answers its first request with `answer`.
    fn raw_endpoint(answer: Vec<u8>) -> Listener {
        let socket = TcpListener::bind("127.0.0.1:0").expect("bind");
        Listener::spawn(socket, Some(1), move |mut stream| {
            let mut request = [0u8; 64];
            let _ = stream.read(&mut request);
            let _ = stream.write_all(&answer);
        })
        .expect("spawn")
    }

    #[test]
    fn scrape_refuses_an_error_status_and_an_oversized_answer() {
        let mut oversized = b"HTTP/1.0 200 OK\r\n\r\n".to_vec();
        oversized.resize(MAX_FRAME as usize + 2, b'#');
        for answer in [
            b"HTTP/1.0 500 Internal Server Error\r\n\r\n".to_vec(),
            oversized,
        ] {
            let mut endpoint = raw_endpoint(answer);
            let err = scrape(&endpoint.local_addr().to_string()).expect_err("refused");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
            endpoint.join();
        }
    }
}
