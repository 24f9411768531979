//! Router-tier integration tests: routed == direct == offline parity
//! across every workload, transparent protocol passthrough, session
//! resume under injected transport faults, and fleet administration
//! (drain/restore).

use fireguard_server::chaos::detection_keys;
use fireguard_server::proto::{self, SESSION};
use fireguard_server::{
    route, run_routed_session, run_session, serve, BackendMode, ClientError, RoutedOptions,
    RouterOptions, ServeOptions, SessionConfig,
};
use fireguard_soc::{baseline_cycles, capture_events, run_fireguard, ExperimentConfig, KernelId};
use fireguard_trace::codec::EventEncoder;
use fireguard_trace::{AttackKind, AttackPlan};
use std::io::BufReader;
use std::net::TcpStream;
use std::sync::Arc;

fn router_opts() -> RouterOptions {
    RouterOptions {
        backends: BackendMode::Spawn(2),
        backend_workers: 2,
        observe_every: 1024,
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
        observe_every: 1024,
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
/// after every 2 ACKs) force repeated resumes; the final alarm stream
/// must still be lossless and duplicate-free, bit-identical to offline.
#[test]
fn resume_survives_injected_transport_faults() {
    let cfg = attack_experiment("ferret", 12_000);
    let offline = run_fireguard(&cfg);
    let base = baseline_cycles(&cfg.workload, cfg.seed, cfg.insts);
    let events = Arc::new(capture_events(&cfg));
    let session = SessionConfig::from_experiment(&cfg, base);

    let router = route(RouterOptions {
        drop_client_after_acks: Some(2),
        ..router_opts()
    })
    .expect("router starts");
    let addr = router.local_addr().to_string();
    let out = run_routed_session(
        &addr,
        &session,
        Arc::clone(&events),
        RoutedOptions {
            max_reconnects: 64,
            ..RoutedOptions::new(7)
        },
    )
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

/// Draining a backend routes new sessions around it; restoring it brings
/// it back. Sessions succeed throughout.
#[test]
fn drain_and_restore_route_around_a_backend() {
    let cfg = attack_experiment("swaptions", 4_000);
    let base = baseline_cycles(&cfg.workload, cfg.seed, cfg.insts);
    let events = Arc::new(capture_events(&cfg));
    let session = SessionConfig::from_experiment(&cfg, base);

    let router = route(router_opts()).expect("router starts");
    let addr = router.local_addr().to_string();
    assert!(router.drain_backend(0), "slot 0 was up");
    assert!(!router.drain_backend(0), "already draining");
    for i in 0..4u64 {
        let out = run_routed_session(
            &addr,
            &session,
            Arc::clone(&events),
            RoutedOptions::new(50 + i),
        )
        .expect("sessions succeed with one slot draining");
        // The 4-wide core may overshoot the commit target by one burst.
        assert!(out.outcome.summary.committed >= cfg.insts);
    }
    assert!(router.restore_backend(0), "restore succeeds");
    assert!(!router.restore_backend(0), "already up");
    let out = run_routed_session(&addr, &session, events, RoutedOptions::new(99))
        .expect("session succeeds after restore");
    assert!(out.outcome.summary.committed >= cfg.insts);
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
    let mut w = first.try_clone().expect("clone");
    proto::write_frame(&mut w, SESSION, &ticket.encode()).expect("ticket");
    proto::write_frame(&mut w, proto::HELLO, &hello).expect("hello");
    let events = EventEncoder::new().encode_batch(&capture_events(&cfg)[..64]);
    proto::write_frame(&mut w, proto::EVENTS, &events).expect("events");
    use std::io::Write as _;
    w.flush().expect("flush");
    let mut r1 = BufReader::new(first.try_clone().expect("clone"));
    loop {
        match proto::read_frame(&mut r1).expect("frames until ACK") {
            Some((proto::ACK, _)) => break,
            Some(_) => continue,
            None => panic!("first session closed before its ACK"),
        }
    }

    // Second connection, same id.
    let second = TcpStream::connect(addr).expect("connect");
    let mut w2 = second.try_clone().expect("clone");
    proto::write_frame(&mut w2, SESSION, &ticket.encode()).expect("ticket");
    proto::write_frame(&mut w2, proto::HELLO, &hello).expect("hello");
    w2.flush().expect("flush");
    let mut r2 = BufReader::new(second);
    // The router may interleave ACKs before the refusal; scan for ERROR.
    let msg = loop {
        match proto::read_frame(&mut r2).expect("frames until refusal") {
            Some((proto::ERROR, payload)) => break String::from_utf8_lossy(&payload).into_owned(),
            Some(_) => continue,
            None => panic!("closed without an ERROR frame"),
        }
    };
    assert!(msg.contains("already registered"), "unexpected: {msg}");
    drop(first);
    router.shutdown();
}

/// A plain `serve` is not a router: the SESSION frame is refused with an
/// ERROR, so a misdirected resumable client fails fast and loudly.
#[test]
fn plain_serve_refuses_ticketed_sessions() {
    let direct = serve(ServeOptions {
        addr: "127.0.0.1:0".to_owned(),
        workers: 1,
        observe_every: 1024,
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
        RoutedOptions {
            max_reconnects: 0,
            ..RoutedOptions::new(1)
        },
    )
    .expect_err("a plain serve must refuse the SESSION frame");
    match err {
        ClientError::Server(_) | ClientError::Protocol(_) => {}
        other => panic!("expected a server refusal, got: {other}"),
    }
    direct.shutdown();
}
