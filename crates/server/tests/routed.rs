//! Router-tier integration tests: routed == direct == offline parity
//! across every workload, transparent protocol passthrough, session
//! resume under injected transport faults, and verdicts served from the
//! router's buffer.

use fireguard_server::chaos::detection_keys;
use fireguard_server::proto::{
    self, FrameReader, FrameWriter, Summary, ACK, ALARMS, END, ERROR, EVENTS, SESSION, SUMMARY,
};
use fireguard_server::{
    route, run_routed_session, run_session, serve, BackendMode, ClientError, RoutedOptions,
    RouterOptions, ServeOptions, SessionConfig, TraceSink,
};
use fireguard_soc::{
    baseline_cycles, capture_events, run_fireguard, Detection, ExperimentConfig, KernelId,
};
use fireguard_trace::codec::EventEncoder;
use fireguard_trace::{AttackKind, AttackPlan};
use std::io::{BufReader, BufWriter, Write as _};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

fn router_opts() -> RouterOptions {
    RouterOptions {
        backends: BackendMode::Spawn(2),
        backend_workers: 2,
        ..RouterOptions::default()
    }
}

fn attack_experiment(workload: &str, insts: u64) -> ExperimentConfig {
    let plan = AttackPlan::campaign(
        &[AttackKind::RetHijack],
        6,
        insts / 10,
        insts.saturating_sub(insts / 5),
        3,
    );
    ExperimentConfig::new(workload)
        .kernel(KernelId::SHADOW_STACK, 4)
        .insts(insts)
        .attacks(plan)
}

/// Per-workload alarm floors for `attack_experiment(w, 5_000)`, measured
/// against the offline engine. Detection is deterministic, so the exact
/// counts are stable: blackscholes and streamcluster stay genuinely
/// silent — their campaign windows land where no return hijack commits —
/// and are pinned at 0; every other workload must reach its measured
/// count. A drift here is a deliberate detection-behavior change, never
/// an accident.
fn alarm_floor(workload: &str) -> usize {
    match workload {
        "blackscholes" => 0,
        "bodytrack" => 4,
        "dedup" => 6,
        "ferret" => 1,
        "fluidanimate" => 4,
        "freqmine" => 4,
        "streamcluster" => 0,
        "swaptions" => 3,
        "x264" => 2,
        other => panic!("no alarm floor recorded for workload {other}"),
    }
}

/// The tentpole parity property over the whole workload suite: for every
/// workload (each with an attack campaign so alarms actually flow), a
/// session routed through the fleet front-end produces detection sets
/// and summaries bit-identical to a direct `serve` session, which in
/// turn is bit-identical to the offline engine. One router (2 spawned
/// backends) and one direct serve live for the whole sweep, so sessions
/// also exercise backend reuse and consistent-hash spread.
#[test]
fn routed_matches_direct_and_offline_for_every_workload() {
    let router = route(router_opts()).expect("router starts");
    let direct = serve(ServeOptions {
        addr: "127.0.0.1:0".to_owned(),
        workers: 2,
        ..ServeOptions::default()
    })
    .expect("serve starts");
    let routed_addr = router.local_addr().to_string();
    let direct_addr = direct.local_addr().to_string();

    let mut alarmed = 0usize;
    for (i, workload) in fireguard_soc::experiments::workloads().iter().enumerate() {
        let cfg = attack_experiment(workload, 5_000);
        let offline = run_fireguard(&cfg);
        let base = baseline_cycles(&cfg.workload, cfg.seed, cfg.insts);
        let events = Arc::new(capture_events(&cfg));
        let session = SessionConfig::from_experiment(&cfg, base);

        let d = run_session(&direct_addr, &session, Arc::clone(&events), 512)
            .unwrap_or_else(|e| panic!("{workload}: direct session failed: {e}"));
        // Anonymous passthrough: the stock client, unchanged, through the
        // router.
        let r = run_session(&routed_addr, &session, Arc::clone(&events), 512)
            .unwrap_or_else(|e| panic!("{workload}: routed session failed: {e}"));
        // Ticketed: the resumable protocol, no faults injected.
        let t = run_routed_session(
            &routed_addr,
            &session,
            Arc::clone(&events),
            RoutedOptions::new(1000 + i as u64),
        )
        .unwrap_or_else(|e| panic!("{workload}: ticketed session failed: {e}"));
        assert_eq!(t.reconnects, 0, "{workload}: no faults, no reconnects");

        let offline_keys = detection_keys(&offline.detections);
        for (label, out) in [("direct", &d), ("routed", &r), ("ticketed", &t.outcome)] {
            assert_eq!(
                detection_keys(&out.alarms),
                offline_keys,
                "{workload}: {label} detections diverge from offline"
            );
            assert_eq!(
                out.summary.committed, offline.committed,
                "{workload} {label}"
            );
            assert_eq!(out.summary.cycles, offline.cycles, "{workload} {label}");
            assert_eq!(out.summary.packets, offline.packets, "{workload} {label}");
            assert_eq!(
                out.summary.slowdown.to_bits(),
                offline.slowdown.to_bits(),
                "{workload} {label}"
            );
            assert_eq!(
                out.summary.detections as usize,
                offline.detections.len(),
                "{workload} {label}"
            );
        }
        let floor = alarm_floor(workload);
        if floor == 0 {
            // Pinned silence: these campaigns genuinely raise nothing at
            // this scale, so any alarm is a behavior change to explain.
            assert!(
                d.alarms.is_empty(),
                "{workload}: expected a silent campaign, got {} alarms",
                d.alarms.len()
            );
        } else {
            assert!(
                d.alarms.len() >= floor,
                "{workload}: only {} alarms, floor is {floor}",
                d.alarms.len()
            );
            alarmed += 1;
        }
    }
    assert_eq!(alarmed, 7, "alarm-floor table drifted from the suite");
    direct.shutdown();
    router.shutdown();
}

/// Injected client-transport faults (the router severs the client link
/// after every ACK) force a resume per batch; the final alarm stream must
/// still be lossless and duplicate-free, bit-identical to offline. Each
/// resume makes progress, so the client's default budget never runs out.
#[test]
fn resume_survives_injected_transport_faults() {
    let cfg = attack_experiment("ferret", 12_000);
    let offline = run_fireguard(&cfg);
    let base = baseline_cycles(&cfg.workload, cfg.seed, cfg.insts);
    let events = Arc::new(capture_events(&cfg));
    let session = SessionConfig::from_experiment(&cfg, base);

    let router = route(RouterOptions {
        drop_client_after_acks: Some(1),
        ..router_opts()
    })
    .expect("router starts");
    let addr = router.local_addr().to_string();
    let out = run_routed_session(&addr, &session, Arc::clone(&events), RoutedOptions::new(7))
        .expect("session survives the faults");
    assert!(
        out.reconnects > 0,
        "the fault injection must actually trigger resumes"
    );
    assert_eq!(router.resumes(), u64::from(out.reconnects));
    assert_eq!(
        detection_keys(&out.outcome.alarms),
        detection_keys(&offline.detections),
        "alarms after resumes must be lossless and duplicate-free"
    );
    assert_eq!(out.outcome.summary.committed, offline.committed);
    router.shutdown();
}

/// Resuming an id the router never saw is a clean refusal, not a hang.
#[test]
fn resuming_an_unknown_session_id_is_refused() {
    let router = route(router_opts()).expect("router starts");
    let addr = router.local_addr();

    let stream = TcpStream::connect(addr).expect("connect");
    let ticket = proto::SessionTicket {
        id: 424242,
        resume: true,
        alarms_received: 0,
    };
    let mut w = stream.try_clone().expect("clone");
    proto::write_frame(&mut w, SESSION, &ticket.encode()).expect("send ticket");
    let mut r = BufReader::new(stream);
    match proto::read_frame(&mut r).expect("a frame comes back") {
        Some((tag, payload)) => {
            assert_eq!(tag, proto::ERROR);
            let msg = String::from_utf8_lossy(&payload).into_owned();
            assert!(
                msg.contains("unknown session id"),
                "unexpected refusal: {msg}"
            );
        }
        None => panic!("connection closed without an ERROR frame"),
    }
    router.shutdown();
}

/// Two live connections claiming the same session id: the second is
/// refused (a fresh SESSION ticket never steals a registered id).
#[test]
fn duplicate_session_ids_are_refused() {
    let router = route(router_opts()).expect("router starts");
    let addr = router.local_addr();

    // Register id 5 and keep the connection open. The router ACKs a
    // ticketed session's events only once its id is registered, so
    // waiting for that ACK orders the two registrations.
    let cfg = attack_experiment("ferret", 3_000);
    let session = SessionConfig::from_experiment(&cfg, 0);
    let hello = session.encode().expect("valid config");
    let first = TcpStream::connect(addr).expect("connect");
    let ticket = proto::SessionTicket {
        id: 5,
        resume: false,
        alarms_received: 0,
    };
    let mut w = FrameWriter::new(first.try_clone().expect("clone"));
    w.write(SESSION, &ticket.encode()).expect("ticket");
    w.write(proto::HELLO, &hello).expect("hello");
    let events = EventEncoder::new().encode_batch(&capture_events(&cfg)[..64]);
    w.write(proto::EVENTS, &events).expect("events");
    w.flush().expect("flush");
    let mut r1 = FrameReader::new(BufReader::new(first.try_clone().expect("clone")));
    loop {
        match r1.read().expect("frames until ACK") {
            Some((proto::ACK, _)) => break,
            Some(_) => continue,
            None => panic!("first session closed before its ACK"),
        }
    }

    // Second connection, same id.
    let second = TcpStream::connect(addr).expect("connect");
    let mut w2 = FrameWriter::new(second.try_clone().expect("clone"));
    w2.write(SESSION, &ticket.encode()).expect("ticket");
    w2.write(proto::HELLO, &hello).expect("hello");
    w2.flush().expect("flush");
    let mut r2 = FrameReader::new(BufReader::new(second));
    // The router may interleave ACKs before the refusal; scan for ERROR.
    let msg = loop {
        match r2.read().expect("frames until refusal") {
            Some((proto::ERROR, payload)) => break String::from_utf8_lossy(&payload).into_owned(),
            Some(_) => continue,
            None => panic!("closed without an ERROR frame"),
        }
    };
    assert!(msg.contains("already registered"), "unexpected: {msg}");
    drop((first, w, r1));
    router.shutdown();
}

/// A ghost session (its client gone mid-stream) parks at once when the
/// router shuts down: with the accept loop stopped no resume can reach
/// it, so waiting out the ghost linger would only stall the shutdown.
#[test]
fn shutdown_parks_a_ghost_session_at_once() {
    let sink = TraceSink::memory();
    let router = route(RouterOptions {
        trace: Some(Arc::clone(&sink)),
        ..router_opts()
    })
    .expect("router starts");

    let cfg = attack_experiment("ferret", 3_000);
    let hello = SessionConfig::from_experiment(&cfg, 0)
        .encode()
        .expect("valid config");
    let stream = TcpStream::connect(router.local_addr()).expect("connect");
    let ticket = proto::SessionTicket {
        id: 11,
        resume: false,
        alarms_received: 0,
    };
    let mut w = FrameWriter::new(stream.try_clone().expect("clone"));
    w.write(SESSION, &ticket.encode()).expect("ticket");
    w.write(proto::HELLO, &hello).expect("hello");
    let events = EventEncoder::new().encode_batch(&capture_events(&cfg)[..64]);
    w.write(EVENTS, &events).expect("events");
    w.flush().expect("flush");
    let mut r = FrameReader::new(BufReader::new(stream.try_clone().expect("clone")));
    loop {
        match r.read().expect("frames until ACK") {
            Some((ACK, _)) => break,
            Some(_) => continue,
            None => panic!("session closed before its ACK"),
        }
    }
    drop((stream, w, r));
    router.shutdown();

    let parks: Vec<String> = sink
        .events()
        .iter()
        .filter(|e| e.span == "router.park")
        .map(|e| e.to_json())
        .collect();
    assert_eq!(parks.len(), 1, "one park per ghost: {parks:?}");
    assert!(
        parks[0].contains(r#""reason":"router closing""#),
        "unexpected park: {}",
        parks[0]
    );
}

/// A client that reads its verdict but keeps its socket open without the
/// terminal ACK does not hold the router's shutdown: the driver stops
/// waiting for the ACK once the router stops accepting, long before the
/// 30 s idle timeout would end the client's leg.
#[test]
fn shutdown_does_not_wait_on_a_client_that_holds_its_socket_open() {
    let router = route(router_opts()).expect("router starts");
    let cfg = attack_experiment("ferret", 3_000);
    let base = baseline_cycles(&cfg.workload, cfg.seed, cfg.insts);
    let hello = SessionConfig::from_experiment(&cfg, base)
        .encode()
        .expect("valid config");
    let stream = TcpStream::connect(router.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");
    let ticket = proto::SessionTicket {
        id: 31,
        resume: false,
        alarms_received: 0,
    };
    let mut w = BufWriter::new(stream.try_clone().expect("clone"));
    proto::write_frame(&mut w, SESSION, &ticket.encode()).expect("ticket");
    proto::write_frame(&mut w, proto::HELLO, &hello).expect("hello");
    let mut w = FrameWriter::new(w);
    let mut enc = EventEncoder::new();
    for chunk in capture_events(&cfg).chunks(512) {
        w.write(EVENTS, &enc.encode_batch(chunk)).expect("events");
    }
    w.write(END, &[]).and_then(|()| w.flush()).expect("end");
    let mut reader = FrameReader::new(BufReader::new(stream.try_clone().expect("clone")));
    loop {
        match reader.read().expect("frames until the verdict") {
            Some((SUMMARY, _)) => break,
            Some(_) => continue,
            None => panic!("session closed before its SUMMARY"),
        }
    }

    let started = Instant::now();
    router.shutdown();
    let took = started.elapsed();
    assert!(
        took < Duration::from_secs(5),
        "shutdown waited {took:?} on a client that kept its socket open"
    );
    drop((stream, w, reader));
}

/// Resumes session `id` on a fresh connection and reads the verdict the
/// router serves from its buffer: the ACK, every alarm past zero, the
/// summary, then EOF. Sends the terminal delivery ACK when `confirm`.
fn resume_finished(addr: SocketAddr, id: u64, confirm: bool) -> (u64, Vec<Detection>, Summary) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");
    let ticket = proto::SessionTicket {
        id,
        resume: true,
        alarms_received: 0,
    };
    let mut w = BufWriter::new(stream.try_clone().expect("clone"));
    proto::write_frame(&mut w, SESSION, &ticket.encode()).expect("ticket");
    w.flush().expect("flush");
    let mut reader = FrameReader::new(BufReader::new(stream.try_clone().expect("clone")));
    let ack = match reader.read().expect("resume preamble") {
        Some((ACK, p)) => proto::decode_ack(&p).expect("ack decodes"),
        other => panic!("expected ACK on resume, got {other:?}"),
    };
    let mut alarms = Vec::new();
    let summary = loop {
        match reader.read().expect("buffered verdict") {
            Some((ALARMS, p)) => alarms.extend(proto::decode_alarms(&p).expect("alarms decode")),
            Some((SUMMARY, p)) => break Summary::decode(&p).expect("summary decodes"),
            other => panic!("unexpected frame {other:?}"),
        }
    };
    assert!(
        matches!(reader.read(), Ok(None)),
        "the router half-closes after a buffered verdict"
    );
    if confirm {
        let mut w = FrameWriter::new(BufWriter::new(stream));
        w.write(ACK, &[])
            .and_then(|()| w.flush())
            .expect("terminal ACK");
    }
    (ack, alarms, summary)
}

/// A session that finishes while its client is away is served from the
/// router's buffer on resume, for as long as the client has not
/// confirmed delivery: a resume without the terminal ACK leaves it in
/// place, and only the ACKed one lets the router forget it and remove
/// its durable journal.
#[test]
fn finished_session_is_served_from_the_buffer_until_acked() {
    let cfg = attack_experiment("dedup", 5_000);
    let offline = run_fireguard(&cfg);
    let base = baseline_cycles(&cfg.workload, cfg.seed, cfg.insts);
    let events = capture_events(&cfg);
    let hello = SessionConfig::from_experiment(&cfg, base)
        .encode()
        .expect("valid config");
    let dir = std::env::temp_dir().join(format!("fg-routed-buffer-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let router = route(RouterOptions {
        journal_dir: Some(dir.clone()),
        ..router_opts()
    })
    .expect("router starts");
    let addr = router.local_addr();

    // Stream everything plus END, then half-close instead of dropping:
    // a socket closed over unread frames draws an RST, and the router
    // might never read the END.
    let stream = TcpStream::connect(addr).expect("connect");
    let mut w = BufWriter::new(stream.try_clone().expect("clone"));
    let ticket = proto::SessionTicket {
        id: 21,
        resume: false,
        alarms_received: 0,
    };
    proto::write_frame(&mut w, SESSION, &ticket.encode()).expect("ticket");
    proto::write_frame(&mut w, proto::HELLO, &hello).expect("hello");
    let mut w = FrameWriter::new(w);
    let mut enc = EventEncoder::new();
    for chunk in events.chunks(512) {
        w.write(EVENTS, &enc.encode_batch(chunk)).expect("events");
    }
    w.write(END, &[]).and_then(|()| w.flush()).expect("end");
    stream.shutdown(Shutdown::Write).expect("half-close");
    let deadline = Instant::now() + Duration::from_secs(60);
    while router.sessions_completed() < 1 {
        assert!(Instant::now() < deadline, "the session never finished");
        std::thread::sleep(Duration::from_millis(10));
    }
    drop((stream, w));

    let expected = detection_keys(&offline.detections);
    assert!(!expected.is_empty(), "the campaign must raise alarms");
    let journal = dir.join("21.fgj");
    for confirm in [false, true] {
        assert!(journal.exists(), "an unconfirmed verdict keeps its journal");
        let (ack, alarms, summary) = resume_finished(addr, 21, confirm);
        assert_eq!(ack, events.len() as u64, "every event was journaled");
        assert_eq!(detection_keys(&alarms), expected, "confirm={confirm}");
        assert_eq!(summary.committed, offline.committed, "confirm={confirm}");
        assert_eq!(summary.cycles, offline.cycles, "confirm={confirm}");
        assert_eq!(
            summary.slowdown.to_bits(),
            offline.slowdown.to_bits(),
            "confirm={confirm}"
        );
    }

    // Delivery confirmed: the router forgets the session and removes its
    // journal, so a further resume is refused.
    let deadline = Instant::now() + Duration::from_secs(30);
    while journal.exists() {
        assert!(Instant::now() < deadline, "the journal outlived delivery");
        std::thread::sleep(Duration::from_millis(10));
    }
    let stream = TcpStream::connect(addr).expect("connect");
    let ticket = proto::SessionTicket {
        id: 21,
        resume: true,
        alarms_received: 0,
    };
    let mut w = stream.try_clone().expect("clone");
    proto::write_frame(&mut w, SESSION, &ticket.encode()).expect("ticket");
    match proto::read_frame(&mut BufReader::new(stream)).expect("a frame comes back") {
        Some((ERROR, p)) => {
            let msg = String::from_utf8_lossy(&p).into_owned();
            assert!(msg.contains("unknown session id"), "unexpected: {msg}");
        }
        other => panic!("expected a refusal, got {other:?}"),
    }
    router.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Reads frames until EOF: the alarms, and every other frame but the
/// ACKs — the verdict — in order.
fn read_to_eof(
    reader: &mut FrameReader<impl std::io::Read>,
) -> (Vec<Detection>, Vec<(u8, Vec<u8>)>) {
    let (mut alarms, mut verdicts) = (Vec::new(), Vec::new());
    while let Some((tag, p)) = reader.read().expect("frames verify") {
        match tag {
            ALARMS => alarms.extend(proto::decode_alarms(&p).expect("alarms decode")),
            ACK => {}
            _ => verdicts.push((tag, p)),
        }
    }
    (alarms, verdicts)
}

/// A stream that ends short of its commit target has one verdict through
/// the router too: the backend's ERROR, journaled and forwarded alone. A
/// resume that the client never confirmed is served that ERROR from the
/// journal, after the ACK and the alarm tail, and no partial SUMMARY.
#[test]
fn a_short_stream_resumes_as_its_error_alone() {
    // Return hijacks inside the 2 000 events that arrive, so the short
    // session raises alarms before its ERROR.
    let plan = AttackPlan::campaign(&[AttackKind::RetHijack], 6, 200, 1_800, 3);
    let exp = attack_experiment("ferret", 50_000).attacks(plan);
    let events: Vec<_> = exp.trace().take(2_000).collect();
    let hello = SessionConfig::from_experiment(&exp, 0)
        .encode()
        .expect("valid config");
    let dir = std::env::temp_dir().join(format!("fg-routed-short-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let router = route(RouterOptions {
        journal_dir: Some(dir.clone()),
        ..router_opts()
    })
    .expect("router starts");
    let addr = router.local_addr();

    // Stream 2 000 of the 50 000 instructions and END, read the live
    // frames to EOF, and hang up without the terminal ACK.
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");
    let ticket = proto::SessionTicket {
        id: 23,
        resume: false,
        alarms_received: 0,
    };
    let mut w = BufWriter::new(stream.try_clone().expect("clone"));
    proto::write_frame(&mut w, SESSION, &ticket.encode()).expect("ticket");
    proto::write_frame(&mut w, proto::HELLO, &hello).expect("hello");
    let mut w = FrameWriter::new(w);
    let mut enc = EventEncoder::new();
    for chunk in events.chunks(512) {
        w.write(EVENTS, &enc.encode_batch(chunk)).expect("events");
    }
    w.write(END, &[]).and_then(|()| w.flush()).expect("end");
    let mut reader = FrameReader::new(BufReader::new(stream.try_clone().expect("clone")));
    let (live_alarms, live) = read_to_eof(&mut reader);
    drop((stream, w, reader));
    assert!(!live_alarms.is_empty(), "the campaign raises alarms");
    assert_eq!(live.len(), 1, "one verdict frame: {live:?}");
    let (tag, msg) = &live[0];
    let msg = String::from_utf8_lossy(msg).into_owned();
    assert_eq!(*tag, ERROR, "the verdict is an ERROR: {msg}");
    assert!(msg.starts_with("stream ended after "), "got: {msg}");
    assert!(
        dir.join("23.fgj").exists(),
        "an unconfirmed verdict keeps its journal"
    );

    // The resume is served from the journal: ACK, alarm tail, the ERROR.
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");
    let ticket = proto::SessionTicket {
        resume: true,
        ..ticket
    };
    proto::write_frame(&mut &stream, SESSION, &ticket.encode()).expect("ticket");
    let mut reader = FrameReader::new(BufReader::new(&stream));
    match reader.read().expect("resume preamble") {
        Some((ACK, p)) => assert_eq!(proto::decode_ack(&p).expect("ack decodes"), 2_000),
        other => panic!("expected ACK on resume, got {other:?}"),
    }
    let (alarms, resumed) = read_to_eof(&mut reader);
    assert_eq!(
        detection_keys(&alarms),
        detection_keys(&live_alarms),
        "the alarm tail"
    );
    assert_eq!(resumed, live, "the stored verdict is the ERROR alone");
    drop(reader);
    drop(stream);
    router.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A ticketed session whose verdict is a backend's ERROR is forgotten
/// once the client has it: the client confirms every verdict it reads,
/// not only a SUMMARY. The router runs over one extern backend, a
/// stand-in serve that refuses every HELLO.
#[test]
fn an_error_verdict_is_forgotten_once_delivered() {
    let backend = TcpListener::bind("127.0.0.1:0").expect("stand-in backend binds");
    let backend_addr = backend.local_addr().expect("bound").to_string();
    std::thread::spawn(move || {
        for conn in backend.incoming().flatten() {
            std::thread::spawn(move || {
                // Health probes hang up at once. A session is refused after
                // its HELLO, then drained to EOF.
                let mut r = FrameReader::new(BufReader::new(&conn));
                if let Ok(Some((proto::HELLO, _))) = r.read() {
                    let refusal = b"refused session: stand-in backend";
                    let _ = proto::write_frame(&mut &conn, ERROR, refusal);
                    let _ = conn.shutdown(Shutdown::Write);
                    while let Ok(Some(_)) = r.read() {}
                }
            });
        }
    });
    let router = route(RouterOptions {
        backends: BackendMode::Extern(vec![backend_addr]),
        ..router_opts()
    })
    .expect("router starts");
    let cfg = attack_experiment("ferret", 3_000);
    let session = SessionConfig::from_experiment(&cfg, 0);
    let events = Arc::new(capture_events(&cfg));
    let addr = router.local_addr();
    let err = run_routed_session(&addr.to_string(), &session, events, RoutedOptions::new(61))
        .expect_err("the backend refuses every session");
    assert!(
        err.to_string()
            .contains("refused session: stand-in backend"),
        "got: {err}"
    );

    // Delivered and confirmed, the session is forgotten: a resume is
    // refused instead of served the stored ERROR again.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stream = TcpStream::connect(addr).expect("connect");
        let ticket = proto::SessionTicket {
            id: 61,
            resume: true,
            alarms_received: 0,
        };
        proto::write_frame(&mut &stream, SESSION, &ticket.encode()).expect("ticket");
        match FrameReader::new(BufReader::new(&stream)).read() {
            Ok(Some((ERROR, p))) if p.starts_with(b"unknown session id") => break,
            other => assert!(
                Instant::now() < deadline,
                "the delivered ERROR verdict is still kept: {other:?}"
            ),
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    router.shutdown();
}

/// The router sends a client's EVENTS payloads on as received and
/// replays them, unchanged, on failover. It runs over one extern stand-in
/// backend that records every EVENTS payload per connection and drops its
/// first connection after two of them. The client's 300-event batches
/// arrive byte for byte on both connections.
#[test]
fn events_are_forwarded_and_replayed_byte_for_byte() {
    let backend = TcpListener::bind("127.0.0.1:0").expect("stand-in backend binds");
    let backend_addr = backend.local_addr().expect("bound").to_string();
    let recorded: Arc<Mutex<Vec<Vec<Vec<u8>>>>> = Arc::default();
    let rec = Arc::clone(&recorded);
    std::thread::spawn(move || {
        for conn in backend.incoming().flatten() {
            let rec = Arc::clone(&rec);
            std::thread::spawn(move || {
                // Health probes hang up at once; a session opens with HELLO.
                let mut r = FrameReader::new(BufReader::new(&conn));
                if !matches!(r.read(), Ok(Some((proto::HELLO, _)))) {
                    return;
                }
                let nth = {
                    let mut rec = rec.lock().expect("lock");
                    rec.push(Vec::new());
                    rec.len() - 1
                };
                loop {
                    match r.read() {
                        Ok(Some((EVENTS, p))) => {
                            let mut rec = rec.lock().expect("lock");
                            rec[nth].push(p);
                            if nth == 0 && rec[nth].len() == 2 {
                                let _ = conn.shutdown(Shutdown::Both);
                                return;
                            }
                        }
                        Ok(Some((END, _))) => {
                            let refusal = b"refused session: stand-in backend";
                            let _ = proto::write_frame(&mut &conn, ERROR, refusal);
                            let _ = conn.shutdown(Shutdown::Write);
                            while let Ok(Some(_)) = r.read() {}
                            return;
                        }
                        _ => return,
                    }
                }
            });
        }
    });
    let router = route(RouterOptions {
        backends: BackendMode::Extern(vec![backend_addr]),
        ..router_opts()
    })
    .expect("router starts");

    let cfg = attack_experiment("ferret", 3_000);
    let hello = SessionConfig::from_experiment(&cfg, 0)
        .encode()
        .expect("valid config");
    let mut enc = EventEncoder::new();
    let payloads: Vec<Vec<u8>> = capture_events(&cfg)[..3_000]
        .chunks(300)
        .map(|c| enc.encode_batch(c))
        .collect();
    let stream = TcpStream::connect(router.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");
    let mut w = FrameWriter::new(BufWriter::new(stream.try_clone().expect("clone")));
    w.write(proto::HELLO, &hello).expect("hello");
    for p in &payloads {
        w.write(EVENTS, p).expect("events");
    }
    w.write(END, &[]).and_then(|()| w.flush()).expect("end");
    let (_, verdicts) = read_to_eof(&mut FrameReader::new(BufReader::new(&stream)));
    drop((w, stream));
    assert_eq!(
        verdicts,
        [(ERROR, b"refused session: stand-in backend".to_vec())],
        "the stand-in's verdict, forwarded"
    );
    let rec = recorded.lock().expect("lock");
    assert_eq!(rec.len(), 2, "one failover");
    assert!(rec[0] == payloads[..2], "forwarded as the client sent them");
    assert!(rec[1] == payloads, "replayed and forwarded byte for byte");
    drop(rec);
    router.shutdown();
}

/// The router takes an EVENTS batch only if it continues the journal
/// exactly. An anonymous session whose second batch repeats a journaled
/// seq, or skips one, ends with the one ERROR that names the seq.
#[test]
fn a_batch_that_repeats_or_skips_a_seq_ends_an_anonymous_session() {
    let router = route(router_opts()).expect("router starts");
    let cfg = attack_experiment("ferret", 3_000);
    let hello = SessionConfig::from_experiment(&cfg, 0)
        .encode()
        .expect("valid config");
    let events = capture_events(&cfg);
    for (second, seq) in [(&events[..512], 0), (&events[513..1_024], 513)] {
        let stream = TcpStream::connect(router.local_addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .expect("timeout");
        let mut w = FrameWriter::new(BufWriter::new(stream.try_clone().expect("clone")));
        w.write(proto::HELLO, &hello).expect("hello");
        for batch in [&events[..512], second] {
            w.write(EVENTS, &EventEncoder::new().encode_batch(batch))
                .expect("events");
        }
        w.flush().expect("flush");
        let (_, verdicts) = read_to_eof(&mut FrameReader::new(BufReader::new(&stream)));
        let msg = format!("event seq {seq} out of order, expected 512");
        assert_eq!(verdicts, [(ERROR, msg.into_bytes())]);
    }
    router.shutdown();
}

/// A ticketed client that re-sends an acked batch is severed without a
/// verdict, as for any wire damage. It then resumes from the ACK, which
/// the repeat did not move, and finishes with offline-exact detections.
#[test]
fn a_ticketed_client_that_resends_an_acked_batch_is_severed_and_resumes() {
    let cfg = attack_experiment("ferret", 3_000);
    let offline = run_fireguard(&cfg);
    let base = baseline_cycles(&cfg.workload, cfg.seed, cfg.insts);
    let events = capture_events(&cfg);
    let hello = SessionConfig::from_experiment(&cfg, base)
        .encode()
        .expect("valid config");
    let router = route(router_opts()).expect("router starts");
    let addr = router.local_addr();
    let connect = || {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .expect("timeout");
        let w = FrameWriter::new(BufWriter::new(stream.try_clone().expect("clone")));
        (w, FrameReader::new(BufReader::new(stream)))
    };
    let mut alarms = Vec::new();
    let mut ticket = proto::SessionTicket {
        id: 41,
        resume: false,
        alarms_received: 0,
    };

    let (mut w, mut r) = connect();
    w.write(SESSION, &ticket.encode()).expect("ticket");
    w.write(proto::HELLO, &hello).expect("hello");
    let batch = EventEncoder::new().encode_batch(&events[..512]);
    w.write(EVENTS, &batch)
        .and_then(|()| w.flush())
        .expect("events");
    loop {
        match r.read().expect("frames until the ACK") {
            Some((ALARMS, p)) => alarms.extend(proto::decode_alarms(&p).expect("alarms")),
            Some((ACK, p)) => break assert_eq!(proto::decode_ack(&p).expect("ack"), 512),
            other => panic!("unexpected frame {other:?}"),
        }
    }
    // The acked batch again, in a correctly checksummed frame: the
    // router severs the connection, with no verdict.
    w.write(EVENTS, &batch)
        .and_then(|()| w.flush())
        .expect("repeat");
    while let Ok(Some((tag, p))) = r.read() {
        match tag {
            ALARMS => alarms.extend(proto::decode_alarms(&p).expect("alarms")),
            ACK => {}
            tag => panic!("a repeat draws a sever, not frame tag {tag}"),
        }
    }
    drop((w, r));

    ticket.resume = true;
    ticket.alarms_received = alarms.len() as u64;
    let (mut w, mut r) = connect();
    w.write(SESSION, &ticket.encode())
        .and_then(|()| w.flush())
        .expect("resume ticket");
    match r.read().expect("resume preamble") {
        Some((ACK, p)) => assert_eq!(proto::decode_ack(&p).expect("ack"), 512),
        other => panic!("expected ACK on resume, got {other:?}"),
    }
    for chunk in events[512..].chunks(512) {
        w.write(EVENTS, &EventEncoder::new().encode_batch(chunk))
            .expect("events");
    }
    w.write(END, &[]).and_then(|()| w.flush()).expect("end");
    let summary = loop {
        match r.read().expect("frames until the verdict") {
            Some((ALARMS, p)) => alarms.extend(proto::decode_alarms(&p).expect("alarms")),
            Some((ACK, _)) => {}
            Some((SUMMARY, p)) => break Summary::decode(&p).expect("summary decodes"),
            other => panic!("unexpected frame {other:?}"),
        }
    };
    let _ = w.write(ACK, &[]).and_then(|()| w.flush());
    assert_eq!(detection_keys(&alarms), detection_keys(&offline.detections));
    assert_eq!(summary.committed, offline.committed);
    assert_eq!(summary.slowdown.to_bits(), offline.slowdown.to_bits());
    drop((w, r));
    router.shutdown();
}

/// An idle timeout too long to double (`--idle-timeout 1e19` on the
/// CLI) must not overflow the router's wedge budget: a plain session
/// through such a router still ends with the offline summary.
#[test]
fn an_unbounded_idle_timeout_still_serves_a_session() {
    let router = route(RouterOptions {
        idle_timeout: Duration::MAX,
        ..router_opts()
    })
    .expect("router starts");
    let cfg = attack_experiment("ferret", 3_000);
    let offline = run_fireguard(&cfg);
    let base = baseline_cycles(&cfg.workload, cfg.seed, cfg.insts);
    let session = SessionConfig::from_experiment(&cfg, base);
    let events = Arc::new(capture_events(&cfg));
    // On a deadline, so a router session that dies midway fails the test
    // instead of leaving the client waiting forever.
    let (tx, rx) = std::sync::mpsc::channel();
    let addr = router.local_addr().to_string();
    let client = std::thread::spawn(move || {
        let _ = tx.send(run_session(&addr, &session, events, 512));
    });
    let out = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("the routed session ends within 60 s")
        .expect("the routed session completes");
    client.join().expect("the client thread exits cleanly");
    assert_eq!(out.summary.committed, offline.committed);
    assert_eq!(out.summary.cycles, offline.cycles);
    assert_eq!(out.summary.packets, offline.packets);
    assert_eq!(out.summary.slowdown.to_bits(), offline.slowdown.to_bits());
    assert_eq!(out.summary.detections as usize, offline.detections.len());
    assert_eq!(
        detection_keys(&out.alarms),
        detection_keys(&offline.detections)
    );
    router.shutdown();
}

/// A plain `serve` is not a router: the SESSION frame is refused with an
/// ERROR, so a misdirected resumable client fails fast and loudly.
#[test]
fn plain_serve_refuses_ticketed_sessions() {
    let direct = serve(ServeOptions {
        addr: "127.0.0.1:0".to_owned(),
        workers: 1,
        ..ServeOptions::default()
    })
    .expect("serve starts");
    let cfg = attack_experiment("ferret", 3_000);
    let session = SessionConfig::from_experiment(&cfg, 0);
    let events = Arc::new(capture_events(&cfg));
    let err = run_routed_session(
        &direct.local_addr().to_string(),
        &session,
        events,
        RoutedOptions::new(1),
    )
    .expect_err("a plain serve must refuse the SESSION frame");
    match err {
        ClientError::Server(_) | ClientError::Protocol(_) => {}
        other => panic!("expected a server refusal, got: {other}"),
    }
    direct.shutdown();
}
