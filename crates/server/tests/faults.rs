//! Hostile-world fault suite: the service and router tiers under wire
//! garbage, corrupted frames, slowloris clients, bounded-memory journal
//! pressure, admission-control sheds, router-process crashes, and the
//! full seeded wire-fault proxy — always with the same pass criterion as
//! the chaos suite: no panics, no lost sessions, and detection sets
//! bit-identical to the offline engine.

use fireguard_server::chaos::detection_keys;
use fireguard_server::proto::{
    self, FrameReader, FrameWriter, SessionTicket, Summary, ACK, ALARMS, BUSY, END, ERROR, EVENTS,
    HELLO, MAX_FRAME, SESSION, SUMMARY,
};
use fireguard_server::{
    route, run_chaos, run_routed_session, run_session, serve, BackendMode, ChaosOptions,
    ClientError, Journal, RoutedOptions, RouterOptions, ServeOptions, SessionConfig, WireFaults,
};
use fireguard_soc::{
    baseline_cycles, capture_events, run_fireguard, Detection, ExperimentConfig, KernelId,
};
use fireguard_trace::codec::{put_uvarint, EventEncoder};
use fireguard_trace::{AttackKind, AttackPlan, SimRng, TraceInst};
use proptest::prelude::*;
use std::io::{BufReader, BufWriter, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

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

/// Offline reference + wire inputs for one workload, shared per test.
fn fixture(
    workload: &str,
    insts: u64,
) -> (fireguard_soc::RunResult, SessionConfig, Arc<Vec<TraceInst>>) {
    let cfg = attack_experiment(workload, insts);
    let offline = run_fireguard(&cfg);
    let base = baseline_cycles(&cfg.workload, cfg.seed, cfg.insts);
    let session = SessionConfig::from_experiment(&cfg, base);
    let events = Arc::new(capture_events(&cfg));
    (offline, session, events)
}

// ---- wire garbage ------------------------------------------------------

/// One serve + one router, shared by every fuzz case (and asserted to
/// still work afterwards by `fuzzed_servers_still_complete_good_sessions`).
/// Short idle timeouts so a garbage header that promises a payload which
/// never arrives is reaped quickly instead of wedging a worker.
fn fuzz_addrs() -> &'static (String, String) {
    static ADDRS: OnceLock<(String, String)> = OnceLock::new();
    ADDRS.get_or_init(|| {
        let s = serve(ServeOptions {
            addr: "127.0.0.1:0".to_owned(),
            workers: 2,
            idle_timeout: Duration::from_millis(100),
            ..ServeOptions::default()
        })
        .expect("fuzz serve starts");
        let r = route(RouterOptions {
            idle_timeout: Duration::from_millis(100),
            ..router_opts()
        })
        .expect("fuzz router starts");
        let addrs = (s.local_addr().to_string(), r.local_addr().to_string());
        // Leak the handles: the servers live for the whole test binary.
        std::mem::forget(s);
        std::mem::forget(r);
        addrs
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary bytes fired at a live serve socket and a live router
    /// socket must never panic or wedge either tier: the connection ends
    /// in a clean ERROR/BUSY frame or a clean close, within the read
    /// timeout. (A panic in a session thread would poison shared state
    /// and show up as a hang or a failed follow-up session.)
    #[test]
    fn garbage_bytes_never_panic_serve_or_router(seed in any::<u64>(), len in 1usize..1200) {
        let (serve_addr, router_addr) = fuzz_addrs();
        let mut rng = SimRng::seed_from_u64(seed);
        let bytes: Vec<u8> = (0..len).map(|_| (rng.next_u64() & 0xFF) as u8).collect();
        for addr in [serve_addr.as_str(), router_addr.as_str()] {
            let mut s = TcpStream::connect(addr).expect("connect");
            s.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
            // The peer may ERROR-and-close mid-write; a broken pipe here
            // is a valid refusal, not a test failure.
            let _ = s.write_all(&bytes);
            let _ = s.shutdown(Shutdown::Write);
            let mut reader = FrameReader::new(BufReader::new(s));
            // Anything short of a frame (clean close, torn frame) ends
            // the conversation; whole frames must be refusals.
            while let Ok(Some((tag, _))) = reader.read() {
                prop_assert!(
                    tag == ERROR || tag == BUSY || tag == ACK,
                    "garbage drew unexpected frame tag {tag}"
                );
            }
        }
    }
}

/// After (any amount of) fuzzing, the shared fuzz servers still complete
/// an honest session with offline-exact detections — garbage on one
/// connection never corrupts another.
#[test]
fn fuzzed_servers_still_complete_good_sessions() {
    let (serve_addr, router_addr) = fuzz_addrs();
    let (offline, session, events) = fixture("ferret", 4_000);
    let expected = detection_keys(&offline.detections);

    let d = run_session(serve_addr, &session, Arc::clone(&events), 512)
        .expect("direct session survives a fuzzed server");
    assert_eq!(detection_keys(&d.alarms), expected);

    let t = run_routed_session(router_addr, &session, events, RoutedOptions::new(0xF0_0D))
        .expect("ticketed session survives a fuzzed router");
    assert_eq!(detection_keys(&t.outcome.alarms), expected);
    assert_eq!(t.outcome.summary.committed, offline.committed);
}

// ---- mid-session corrupted frames ---------------------------------------

/// A connection that completes its handshake honestly and then turns
/// hostile — an undecodable EVENTS payload under a valid checksum, so the
/// batch decoder is what refuses it, or a frame header promising more
/// than MAX_FRAME — draws a clean ERROR frame and a teardown, on both the
/// serve and the router path. Never a panic, never silence.
#[test]
fn corrupted_and_oversized_frames_get_clean_errors() {
    let (_, session, _) = fixture("ferret", 3_000);
    let hello = session.encode().expect("valid config");
    let s = serve(ServeOptions {
        addr: "127.0.0.1:0".to_owned(),
        workers: 2,
        idle_timeout: Duration::from_millis(500),
        ..ServeOptions::default()
    })
    .expect("serve starts");
    let r = route(RouterOptions {
        idle_timeout: Duration::from_millis(500),
        ..router_opts()
    })
    .expect("router starts");

    let hostile_payloads: [&[u8]; 2] = [
        &[0xFF; 64],   // undecodable EVENTS batch
        &[0x01, 0x02], // truncated batch header
    ];
    for (who, addr) in [
        ("serve", s.local_addr().to_string()),
        ("router", r.local_addr().to_string()),
    ] {
        eprintln!("=== target {who} at {addr}");
        for payload in hostile_payloads {
            eprintln!("  case: payload len {}", payload.len());
            assert_error_after_hello(&addr, &hello, "bad EVENTS frame", |w| {
                w.write(EVENTS, payload)
            });
        }
        // An oversized frame header: tag + a length past MAX_FRAME. The
        // reader must reject the header without trying to buffer it.
        eprintln!("  case: oversized header");
        assert_error_after_hello(&addr, &hello, "frame declares", |w| {
            let mut head = vec![EVENTS];
            put_uvarint(&mut head, MAX_FRAME + 1);
            w.get_mut().write_all(&head)
        });
    }
}

/// Sends a valid HELLO then `hostile` bytes; asserts the peer answers
/// with an ERROR frame whose reason contains `want`, and then closes.
fn assert_error_after_hello<F>(addr: &str, hello: &[u8], want: &str, hostile: F)
where
    F: FnOnce(&mut FrameWriter<BufWriter<TcpStream>>) -> std::io::Result<()>,
{
    let s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut w = FrameWriter::new(BufWriter::new(s.try_clone().expect("clone")));
    w.write(HELLO, hello).expect("hello");
    hostile(&mut w).expect("hostile bytes sent");
    w.flush().expect("flush");
    let mut reader = FrameReader::new(BufReader::new(s));
    let mut saw_error = false;
    loop {
        match reader.read() {
            Ok(Some((ERROR, msg))) => {
                let msg = String::from_utf8_lossy(&msg);
                assert!(
                    msg.contains(want),
                    "{addr}: ERROR reason {msg:?} lacks {want:?}"
                );
                saw_error = true;
            }
            Ok(Some(_)) => {} // ACKs and alarms racing the teardown
            Ok(None) | Err(_) => break,
        }
    }
    assert!(saw_error, "{addr}: hostile frame must draw a clean ERROR");
}

/// Checksummed framing catches in-flight corruption the length framing
/// can't: a ticketed client's EVENTS frame with one flipped payload byte
/// is severed *quietly* (no ERROR — the damage proves nothing about who
/// lied), the session survives as a ghost, and an honest resume then
/// completes with offline-exact detections.
#[test]
fn corrupted_checked_frame_is_severed_then_resume_completes() {
    let (offline, session, events) = fixture("dedup", 5_000);
    let router = route(router_opts()).expect("router starts");
    let addr = router.local_addr().to_string();
    let hello = session.encode().expect("valid config");

    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("timeout");
    {
        let mut w = BufWriter::new(stream.try_clone().expect("clone"));
        let ticket = SessionTicket {
            id: 777,
            resume: false,
            alarms_received: 0,
        };
        proto::write_frame(&mut w, SESSION, &ticket.encode()).expect("ticket");
        proto::write_frame(&mut w, HELLO, &hello).expect("hello");
        w.flush().expect("flush");
    }
    // Render a correctly-checksummed first EVENTS frame (index 0), then
    // flip one payload byte so the trailing sum no longer matches.
    let payload = EventEncoder::new().encode_batch(&events[..256]);
    let mut raw = Vec::new();
    {
        let mut fw = FrameWriter::new(&mut raw);
        fw.write(EVENTS, &payload).expect("render frame");
        fw.flush().expect("flush");
    }
    raw[16] ^= 0xFF;
    stream.write_all(&raw).expect("send corrupted frame");

    // Ticketed wire damage severs without a verdict: EOF, no ERROR.
    let mut reader = FrameReader::new(BufReader::new(stream.try_clone().expect("clone")));
    match reader.read() {
        Ok(None) | Err(_) => {}
        Ok(Some((tag, _))) => panic!("expected a quiet sever, got frame tag {tag}"),
    }

    // The honest resume replays from the (empty) journal and completes.
    let mut alarms = Vec::new();
    let summary = manual_resume(&addr, 777, &mut alarms, &events, 512);
    assert_eq!(
        detection_keys(&alarms),
        detection_keys(&offline.detections),
        "detections after corruption + resume diverge from offline"
    );
    assert_eq!(summary.committed, offline.committed);
    assert_eq!(summary.slowdown.to_bits(), offline.slowdown.to_bits());
    assert!(
        router.resumes() >= 1,
        "the sever must be healed by a resume"
    );
}

/// Hand-rolled SESSION-ticket resume: ACK tells us where the buffered
/// prefix ends; we re-send the rest and collect the verdict.
fn manual_resume(
    addr: &str,
    id: u64,
    alarms: &mut Vec<Detection>,
    events: &[TraceInst],
    batch: usize,
) -> Summary {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");
    let mut reader = FrameReader::new(BufReader::new(stream.try_clone().expect("clone")));
    {
        let mut w = BufWriter::new(stream.try_clone().expect("clone"));
        let ticket = SessionTicket {
            id,
            resume: true,
            alarms_received: alarms.len() as u64,
        };
        proto::write_frame(&mut w, SESSION, &ticket.encode()).expect("ticket");
        w.flush().expect("flush");
    }
    let start = match reader.read().expect("resume preamble") {
        Some((ACK, p)) => proto::decode_ack(&p).expect("ack decodes") as usize,
        other => panic!("expected ACK on resume, got {other:?}"),
    };
    assert!(start <= events.len(), "ACK within the stream");
    let mut w = FrameWriter::new(BufWriter::new(stream));
    let mut enc = EventEncoder::new();
    for chunk in events[start..].chunks(batch) {
        w.write(EVENTS, &enc.encode_batch(chunk)).expect("events");
    }
    w.write(END, &[]).expect("end");
    w.flush().expect("flush");
    let summary = loop {
        match reader.read().expect("verdict stream") {
            Some((ALARMS, p)) => {
                alarms.extend(proto::decode_alarms(&p).expect("alarms decode"));
            }
            Some((ACK, _)) => {}
            Some((SUMMARY, p)) => break Summary::decode(&p).expect("summary decodes"),
            Some((ERROR, m)) => panic!("resume errored: {}", String::from_utf8_lossy(&m)),
            other => panic!("unexpected frame {other:?}"),
        }
    };
    // Terminal delivery ACK, like the real client: the router holds the
    // session resumable until the verdict is confirmed received.
    let _ = w.write(ACK, &[]).and_then(|()| w.flush());
    summary
}

// ---- slowloris ----------------------------------------------------------

/// A client that connects and then says nothing is reaped after the
/// idle timeout, and the worker it was wedging serves the next honest
/// session. `workers: 1` makes the proof airtight: the good session can
/// only complete if the slowloris was evicted.
#[test]
fn slowloris_is_reaped_and_the_worker_freed() {
    let (offline, session, events) = fixture("x264", 3_000);
    let s = serve(ServeOptions {
        addr: "127.0.0.1:0".to_owned(),
        workers: 1,
        idle_timeout: Duration::from_millis(200),
        ..ServeOptions::default()
    })
    .expect("serve starts");
    let addr = s.local_addr().to_string();

    let idle = TcpStream::connect(&addr).expect("slowloris connects");
    idle.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");

    let out = run_session(&addr, &session, events, 512)
        .expect("honest session completes once the slowloris is reaped");
    assert_eq!(
        detection_keys(&out.alarms),
        detection_keys(&offline.detections)
    );

    // The silent connection itself was torn down (ERROR or EOF).
    let mut reader = BufReader::new(idle);
    loop {
        match proto::read_frame(&mut reader) {
            Ok(Some((ERROR, _))) => {}
            Ok(Some((tag, _))) => panic!("slowloris got unexpected frame tag {tag}"),
            Ok(None) | Err(_) => break,
        }
    }
}

/// The router's client leg reaps silent connections the same way.
#[test]
fn router_reaps_silent_connections() {
    let router = route(RouterOptions {
        idle_timeout: Duration::from_millis(200),
        ..router_opts()
    })
    .expect("router starts");
    let idle = TcpStream::connect(router.local_addr()).expect("connect");
    idle.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let mut reader = BufReader::new(idle);
    loop {
        match proto::read_frame(&mut reader) {
            Ok(Some((ERROR, _))) => {}
            Ok(Some((tag, _))) => panic!("unexpected frame tag {tag}"),
            Ok(None) | Err(_) => break, // reaped
        }
    }
}

// ---- bounded-memory journals ---------------------------------------------

/// The journal contract over the whole workload suite: every batch of a
/// ~5000-event session is journaled to disk as received — and with the
/// router severing the client link every 2 ACKs, every session also
/// resumes off that journal. Detections stay bit-identical to offline
/// throughout.
#[test]
fn journal_spill_plus_resume_holds_parity_for_every_workload() {
    let router = route(RouterOptions {
        drop_client_after_acks: Some(2),
        ..router_opts()
    })
    .expect("router starts");
    let addr = router.local_addr().to_string();

    for (i, workload) in fireguard_soc::experiments::workloads().iter().enumerate() {
        let (offline, session, events) = fixture(workload, 5_000);
        let out = run_routed_session(
            &addr,
            &session,
            events,
            RoutedOptions::new(5_000 + i as u64),
        )
        .unwrap_or_else(|e| panic!("{workload}: session under journal pressure failed: {e}"));
        assert!(
            out.reconnects > 0,
            "{workload}: client faults must force resumes"
        );
        assert_eq!(
            detection_keys(&out.outcome.alarms),
            detection_keys(&offline.detections),
            "{workload}: detections diverge under journal spill + resume"
        );
        assert_eq!(
            out.outcome.summary.committed, offline.committed,
            "{workload}"
        );
        assert_eq!(
            out.outcome.summary.slowdown.to_bits(),
            offline.slowdown.to_bits(),
            "{workload}"
        );
    }
}

// ---- admission control ----------------------------------------------------

/// Over the live-session budget, fresh sessions — ticketed and anonymous
/// alike — are refused with a clean BUSY frame, which both client state
/// machines surface as a server-side refusal (never a protocol error or
/// a hang). The shed counter records every refusal.
#[test]
fn admission_control_sheds_fresh_sessions_with_busy() {
    let (_, session, events) = fixture("swaptions", 2_000);
    let router = route(RouterOptions {
        max_live_sessions: Some(0),
        ..router_opts()
    })
    .expect("router starts");
    let addr = router.local_addr().to_string();

    let err = run_routed_session(&addr, &session, Arc::clone(&events), RoutedOptions::new(9))
        .expect_err("a zero-budget router must shed the session");
    match err {
        ClientError::Server(msg) => assert!(
            msg.contains("shed by admission control"),
            "unexpected shed message: {msg}"
        ),
        other => panic!("expected a server refusal, got {other:?}"),
    }

    let err = run_session(&addr, &session, events, 512)
        .expect_err("anonymous fresh sessions are shed too");
    match err {
        ClientError::Server(msg) => {
            assert!(msg.contains("busy"), "unexpected BUSY reason: {msg}");
        }
        other => panic!("expected a server refusal, got {other:?}"),
    }

    assert!(router.sessions_shed() >= 2, "every refusal is counted");
}

/// The byte budget counts every journaled batch, with or without a
/// journal dir: once a ticketed session's first EVENTS batch is ACKed,
/// its journal holds more than a one-byte budget, and the next fresh
/// session is refused with BUSY.
#[test]
fn the_journal_byte_budget_sheds_fresh_sessions() {
    let (_, session, events) = fixture("ferret", 3_000);
    let router = route(RouterOptions {
        max_buffered_bytes: Some(1),
        ..router_opts()
    })
    .expect("router starts");
    let addr = router.local_addr();

    let first = TcpStream::connect(addr).expect("connect");
    first
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("timeout");
    let ticket = SessionTicket {
        id: 91,
        resume: false,
        alarms_received: 0,
    };
    let mut w = FrameWriter::new(first.try_clone().expect("clone"));
    w.write(SESSION, &ticket.encode()).expect("ticket");
    w.write(HELLO, &session.encode().expect("valid config"))
        .expect("hello");
    w.write(EVENTS, &EventEncoder::new().encode_batch(&events[..512]))
        .expect("events");
    w.flush().expect("flush");
    let mut r = FrameReader::new(BufReader::new(first.try_clone().expect("clone")));
    loop {
        match r.read().expect("frames until ACK") {
            Some((ACK, _)) => break,
            Some(_) => continue,
            None => panic!("the session closed before its ACK"),
        }
    }

    let err = run_session(&addr.to_string(), &session, events, 512)
        .expect_err("a journaled batch puts the router over its byte budget");
    match err {
        ClientError::Server(msg) => assert!(
            msg.starts_with("router busy: ") && msg.contains(" journal bytes buffered (max 1)"),
            "unexpected BUSY reason: {msg}"
        ),
        other => panic!("expected a server refusal, got {other:?}"),
    }
    assert_eq!(router.sessions_shed(), 1);
    drop((first, w, r));
    router.shutdown();
}

// ---- router-process crash recovery -----------------------------------------

/// A router process crash (simulated as `kill -9` leaves the disk: a
/// durable journal with a recorded HELLO and an event prefix, no
/// terminal record) is recoverable: a new router given the same journal
/// dir rebuilds the session from its journal at startup, ACKs the
/// journaled prefix, replays it to a fresh backend, and the resumed
/// client finishes with offline-exact detections.
#[test]
fn crashed_router_journals_are_recovered_from_the_journal_dir() {
    let (offline, session, events) = fixture("bodytrack", 5_000);
    let dir = std::env::temp_dir().join(format!("fg-faults-recover-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // The crashed router's legacy: 500 events journaled in 100-event
    // batches.
    let hello = session.encode().expect("valid config");
    {
        let mut j = Journal::open("4242", hello, Some(&dir), Default::default())
            .expect("journal opens with its HELLO");
        for chunk in events[..500].chunks(100) {
            let payload = EventEncoder::new().encode_batch(chunk);
            j.push(&payload, chunk.len() as u64).expect("push");
        }
        drop(j); // durable + no verdict: the file stays behind
    }

    let router = route(RouterOptions {
        journal_dir: Some(dir.clone()),
        ..router_opts()
    })
    .expect("recovering router starts");
    let addr = router.local_addr().to_string();

    let mut alarms = Vec::new();
    let summary = manual_resume(&addr, 4242, &mut alarms, &events, 512);
    assert_eq!(
        detection_keys(&alarms),
        detection_keys(&offline.detections),
        "post-crash resume diverges from offline"
    );
    assert_eq!(summary.committed, offline.committed);
    assert_eq!(summary.cycles, offline.cycles);
    assert_eq!(summary.slowdown.to_bits(), offline.slowdown.to_bits());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A durable journal left by an older build fails its resume cleanly. Its
/// HELLO frame holds a version-1 HELLO, which the backend refuses when the
/// router replays it; the router forwards that refusal as the session's
/// terminal ERROR — no panic, no hang — and then serves a fresh session.
#[test]
fn older_build_journal_fails_its_resume_cleanly() {
    let dir = std::env::temp_dir().join(format!("fg-faults-old-journal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("journal dir");
    // `77.fgj` is one HELLO frame holding the 13-byte version-1 HELLO for
    // workload "x", seed 0, insts 1, baseline 0, PMC on 4 µcores, hybrid
    // model, filter width 4, MA-stage ISAX and mapper width 1.
    let v1_hello = [1, 1, b'x', 0, 1, 0, 1, 0, 4, 3, 4, 0, 1];
    let mut journal = Vec::new();
    proto::write_frame(&mut journal, HELLO, &v1_hello).expect("frame rendered");
    std::fs::write(dir.join("77.fgj"), journal).expect("journal written");

    let router = route(RouterOptions {
        journal_dir: Some(dir.clone()),
        ..router_opts()
    })
    .expect("recovering router starts");
    let addr = router.local_addr().to_string();

    let stream = TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let ticket = SessionTicket {
        id: 77,
        resume: true,
        alarms_received: 0,
    };
    let mut w = FrameWriter::new(&stream);
    w.write(SESSION, &ticket.encode()).expect("ticket");
    let mut reader = FrameReader::new(BufReader::new(&stream));
    match reader.read().expect("resume preamble") {
        Some((ACK, p)) => assert_eq!(proto::decode_ack(&p).expect("ack decodes"), 0),
        other => panic!("expected ACK on resume, got {other:?}"),
    }
    let msg = match reader.read().expect("a refusal, not a timeout") {
        Some((ERROR, m)) => String::from_utf8_lossy(&m).into_owned(),
        other => panic!("expected a terminal ERROR, got {other:?}"),
    };
    assert!(msg.contains("unsupported format version 1"), "got: {msg}");
    assert!(
        matches!(reader.read(), Ok(None)),
        "the router closes after the verdict"
    );
    drop((reader, w));
    drop(stream);

    let (offline, session, events) = fixture("ferret", 3_000);
    let out = run_routed_session(&addr, &session, events, RoutedOptions::new(78))
        .expect("the same router serves a fresh session");
    assert_eq!(
        detection_keys(&out.outcome.alarms),
        detection_keys(&offline.detections)
    );
    assert_eq!(out.outcome.summary.committed, offline.committed);
    router.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A journal write that fails ends the session with an ERROR naming the
/// session journal: the router never acts on state the disk lacks. Here
/// `<id>.fgj` is a symlink to `/dev/full`, so the durable HELLO frame
/// cannot be written and the session is refused at registration.
#[cfg(unix)]
#[test]
fn a_failed_journal_write_fails_the_session_naming_the_journal() {
    let (_, session, events) = fixture("ferret", 3_000);
    let dir = std::env::temp_dir().join(format!("fg-faults-full-journal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("journal dir");
    std::os::unix::fs::symlink("/dev/full", dir.join("31.fgj")).expect("symlink to /dev/full");
    let router = route(RouterOptions {
        journal_dir: Some(dir.clone()),
        ..router_opts()
    })
    .expect("router starts");
    let addr = router.local_addr().to_string();
    let err = run_routed_session(&addr, &session, events, RoutedOptions::new(31))
        .expect_err("a journal that cannot be written must fail the session");
    assert!(err.to_string().contains("session journal"), "got: {err}");
    router.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

// ---- the network lies: chaos-net ------------------------------------------

/// The full hostile world, per workload: backends die on the seeded kill
/// schedule while the netem proxy drops, delays, duplicates, truncates,
/// corrupts, and disconnects frames in both directions — and every
/// failover replays the journal file. Zero sessions lost, every detection
/// set bit-identical to offline, across all nine workloads.
#[test]
fn chaos_net_soak_loses_nothing_for_every_workload() {
    let mut total_faults = 0u64;
    for (i, workload) in fireguard_soc::experiments::workloads().iter().enumerate() {
        let (offline, session, events) = fixture(workload, 4_000);
        let out = run_chaos(
            &session,
            events,
            &ChaosOptions {
                sessions: 2,
                concurrency: 2,
                batch: 128,
                backends: 2,
                kills: 2,
                seed: 7 + i as u64,
                wire_faults: Some(WireFaults {
                    fault_every: 6,
                    max_delay_ms: 2,
                }),
                ..ChaosOptions::default()
            },
        )
        .unwrap_or_else(|e| panic!("{workload}: chaos-net setup failed: {e}"));

        assert_eq!(
            out.lost_sessions, 0,
            "{workload}: lost sessions under chaos-net; first error: {:?}",
            out.first_error
        );
        assert_eq!(out.ok_sessions, 2, "{workload}");
        assert!(
            out.wire_faults > 0,
            "{workload}: the proxy must actually inject faults"
        );
        total_faults += out.wire_faults;
        let expected = detection_keys(&offline.detections);
        for (s, o) in out.outcomes.iter().enumerate() {
            assert_eq!(
                detection_keys(&o.outcome.alarms),
                expected,
                "{workload} session {s}: detections diverge under chaos-net"
            );
            assert_eq!(o.outcome.summary.committed, offline.committed);
            assert_eq!(
                o.outcome.summary.slowdown.to_bits(),
                offline.slowdown.to_bits()
            );
        }
    }
    assert!(
        total_faults > 9,
        "the soak must have seen real wire pressure"
    );
}
