//! End-to-end loopback tests: a live `fireguard-server` must report
//! exactly what the equivalent offline `run_fireguard` run reports.

use fireguard_server::{
    run_loadgen, run_session, serve, ClientError, LoadgenOptions, ServeOptions, SessionConfig,
};
use fireguard_soc::{baseline_cycles, capture_events, run_fireguard, ExperimentConfig, KernelId};
use fireguard_trace::{AttackKind, AttackPlan};
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;

/// Hand-encodes a HELLO, bypassing the library encoder's validation —
/// for playing a hostile client against the server. Assumes the
/// hybrid-model/MA-stage defaults the loopback configs here use.
fn raw_hello(cfg: &SessionConfig) -> Vec<u8> {
    use fireguard_trace::codec::{put_string, put_uvarint};
    let mut b = Vec::new();
    put_uvarint(&mut b, fireguard_server::PROTO_VERSION);
    put_string(&mut b, &cfg.workload);
    put_uvarint(&mut b, cfg.seed);
    put_uvarint(&mut b, cfg.insts);
    put_uvarint(&mut b, cfg.baseline_cycles);
    b.push(cfg.kernels.len() as u8);
    for (kind, engine) in &cfg.kernels {
        b.push(kind.wire());
        put_uvarint(
            &mut b,
            match engine {
                fireguard_soc::EngineConfig::Ha => 0,
                fireguard_soc::EngineConfig::Ucores(n) => *n as u64,
            },
        );
    }
    b.push(3); // hybrid model
    put_uvarint(&mut b, cfg.filter_width as u64);
    b.push(0); // MA-stage ISAX
    put_uvarint(&mut b, cfg.mapper_width as u64);
    b
}

fn loopback_opts(workers: usize, max_sessions: Option<u64>) -> ServeOptions {
    ServeOptions {
        addr: "127.0.0.1:0".to_owned(),
        workers,
        max_sessions,
        ..ServeOptions::default()
    }
}

fn attack_experiment(insts: u64) -> ExperimentConfig {
    let plan = AttackPlan::campaign(
        &[AttackKind::RetHijack],
        6,
        insts / 10,
        insts.saturating_sub(insts / 5),
        3,
    );
    ExperimentConfig::new("ferret")
        .kernel(KernelId::SHADOW_STACK, 4)
        .insts(insts)
        .attacks(plan)
}

/// Every client frame size serves the same session: batch 1 refills the
/// server's event queue on every event, 4096 far less often than the
/// default 512.
#[test]
fn served_session_matches_offline_run() {
    let cfg = attack_experiment(12_000);
    let offline = run_fireguard(&cfg);
    let base = baseline_cycles(&cfg.workload, cfg.seed, cfg.insts);
    let events = Arc::new(capture_events(&cfg));
    let mut off: Vec<(u64, u64)> = offline
        .detections
        .iter()
        .map(|d| (d.seq, d.latency_ns.to_bits()))
        .collect();
    off.sort_unstable();

    let handle = serve(loopback_opts(2, None)).expect("bind loopback");
    let addr = handle.local_addr().to_string();
    let session = SessionConfig::from_experiment(&cfg, base);
    for batch in [1, 512, 4096] {
        let out = run_session(&addr, &session, Arc::clone(&events), batch)
            .unwrap_or_else(|e| panic!("batch {batch}: session fails: {e}"));

        // The wire adds transport, not semantics: every scalar matches the
        // offline run, and the online alarms are the offline detections.
        assert_eq!(out.summary.committed, offline.committed, "batch {batch}");
        assert_eq!(out.summary.cycles, offline.cycles, "batch {batch}");
        assert_eq!(out.summary.packets, offline.packets, "batch {batch}");
        assert_eq!(
            out.summary.baseline_cycles, offline.baseline_cycles,
            "batch {batch}"
        );
        assert_eq!(
            out.summary.slowdown.to_bits(),
            offline.slowdown.to_bits(),
            "batch {batch}"
        );
        assert_eq!(
            out.summary.detections as usize,
            offline.detections.len(),
            "batch {batch}"
        );
        assert_eq!(out.alarms.len(), offline.detections.len(), "batch {batch}");
        assert!(!out.alarms.is_empty(), "the campaign raises alarms");

        let mut served: Vec<(u64, u64)> = out
            .alarms
            .iter()
            .map(|d| (d.seq, d.latency_ns.to_bits()))
            .collect();
        served.sort_unstable();
        assert_eq!(
            served, off,
            "batch {batch}: served alarms == offline detections"
        );
    }
    handle.shutdown();
}

/// The generality contract over the wire: every registered kernel —
/// including the post-paper taint and MTE plugins — negotiates a session
/// by registry id and reports exactly the offline result.
#[test]
fn served_sessions_match_offline_for_new_kernels() {
    let handle = serve(loopback_opts(2, None)).expect("bind loopback");
    let addr = handle.local_addr().to_string();
    for (id, attack, insts) in [
        // Taint sources fire from the first I/O-window access; UaF-style
        // attacks need the workload's first frees (dedup's allocation
        // lifetime is ~30k instructions), so MTE runs a longer stream.
        (KernelId::TAINT, AttackKind::BoundsViolation, 10_000u64),
        (KernelId::MTE, AttackKind::UseAfterFree, 26_000),
    ] {
        let plan = AttackPlan::campaign(&[attack], 8, insts * 6 / 10, insts - insts / 10, 3);
        let cfg = ExperimentConfig::new("dedup")
            .kernel(id, 4)
            .insts(insts)
            .attacks(plan);
        let offline = run_fireguard(&cfg);
        let base = baseline_cycles(&cfg.workload, cfg.seed, cfg.insts);
        let events = Arc::new(capture_events(&cfg));
        let session = SessionConfig::from_experiment(&cfg, base);
        let out = run_session(&addr, &session, events, 512).expect("session succeeds");
        assert_eq!(out.summary.committed, offline.committed, "{id}");
        assert_eq!(out.summary.cycles, offline.cycles, "{id}");
        assert_eq!(out.summary.packets, offline.packets, "{id}");
        assert_eq!(out.summary.detections as usize, offline.detections.len());
        assert!(
            !out.alarms.is_empty(),
            "{id}: the campaign must raise alarms over the wire"
        );
    }
    handle.shutdown();
}

/// A HELLO naming an unregistered kernel id gets a clean ERROR frame —
/// never a hang or a panic — and the service survives to serve the next
/// session (the satellite wire-compatibility contract).
#[test]
fn unknown_kernel_id_in_hello_gets_an_error_frame() {
    let handle = serve(loopback_opts(1, None)).expect("bind loopback");
    let addr = handle.local_addr();

    // A structurally valid HELLO whose kernel byte is unregistered (99).
    let good = SessionConfig::from_experiment(
        &ExperimentConfig::new("swaptions")
            .kernel(KernelId::PMC, 4)
            .insts(2_000),
        0,
    );
    let mut payload = good.encode().expect("valid config encodes");
    // Kernel id byte offset: version ‖ len ‖ workload ‖ seed ‖ insts ‖
    // baseline ‖ count — for "swaptions"/seed 42/insts 2000/baseline 0
    // the varints are 1+1+9+1+2+1+1 bytes, so the id byte is at 16.
    // Derive it robustly instead: the byte equal to PMC's wire id right
    // after the kernel-count byte (count 1).
    let at = payload
        .windows(2)
        .position(|w| w == [1, KernelId::PMC.wire()])
        .expect("count ‖ kernel-id bytes present")
        + 1;
    payload[at] = 99;
    let mut s = TcpStream::connect(addr).unwrap();
    fireguard_server::proto::write_frame(&mut s, fireguard_server::proto::HELLO, &payload).unwrap();
    let (tag, msg) = fireguard_server::proto::read_frame(&mut s)
        .unwrap()
        .expect("server answers, not hangs");
    assert_eq!(tag, fireguard_server::proto::ERROR);
    assert!(
        String::from_utf8_lossy(&msg).contains("unknown kernel id"),
        "got: {}",
        String::from_utf8_lossy(&msg)
    );
    drop(s);

    // Service still healthy.
    let events = Arc::new(capture_events(
        &ExperimentConfig::new("swaptions")
            .kernel(KernelId::PMC, 4)
            .insts(2_000),
    ));
    let out = run_session(&addr.to_string(), &good, events, 512).expect("healthy session");
    // The 4-wide core may overshoot the commit target by up to a burst.
    assert!(out.summary.committed >= 2_000 && out.summary.committed < 2_004);
    handle.shutdown();
}

#[test]
fn concurrent_sessions_are_isolated_and_deterministic() {
    let cfg = attack_experiment(5_000);
    let base = baseline_cycles(&cfg.workload, cfg.seed, cfg.insts);
    let events = Arc::new(capture_events(&cfg));
    let session = SessionConfig::from_experiment(&cfg, base);

    let handle = serve(loopback_opts(4, None)).expect("bind loopback");
    let addr = handle.local_addr().to_string();

    let outcomes: Vec<_> = (0..4)
        .map(|_| {
            let addr = addr.clone();
            let session = session.clone();
            let events = Arc::clone(&events);
            std::thread::spawn(move || run_session(&addr, &session, events, 256))
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|h| h.join().expect("no panic").expect("session succeeds"))
        .collect();
    handle.shutdown();

    let first = &outcomes[0].summary;
    for o in &outcomes[1..] {
        assert_eq!(o.summary, *first, "identical sessions, identical results");
    }
}

#[test]
fn loadgen_aggregates_across_sessions() {
    let cfg = attack_experiment(4_000);
    let base = baseline_cycles(&cfg.workload, cfg.seed, cfg.insts);
    let events = Arc::new(capture_events(&cfg));
    let session = SessionConfig::from_experiment(&cfg, base);

    let handle = serve(loopback_opts(2, None)).expect("bind loopback");
    let addr = handle.local_addr().to_string();
    let agg = run_loadgen(
        &addr,
        &session,
        Arc::clone(&events),
        &LoadgenOptions {
            sessions: 4,
            concurrency: 2,
            batch: 512,
            ..LoadgenOptions::default()
        },
    );
    handle.shutdown();

    assert_eq!(agg.ok_sessions, 4, "first error: {:?}", agg.first_error);
    assert_eq!(agg.failed_sessions, 0);
    assert_eq!(agg.events, 4 * events.len() as u64);
    assert!(agg.committed >= 4 * 4_000);
    assert!(agg.events_per_sec > 0.0);
    assert!(agg.detections > 0);
    assert!(agg.p99_latency_ns >= agg.p50_latency_ns);
    assert!(agg.p50_latency_ns > 0.0);
    assert_eq!(agg.workers, 2, "pool shape is surfaced");
    assert_eq!(agg.reconnects, 0);
    let bucketed: usize = agg.buckets.iter().map(|b| b.sessions).sum();
    assert_eq!(bucketed, 4, "every session lands in a completion bucket");
}

#[test]
fn malformed_hello_gets_an_error_frame_not_a_crash() {
    let handle = serve(loopback_opts(1, None)).expect("bind loopback");
    let addr = handle.local_addr();

    // Garbage HELLO payload.
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(&[fireguard_server::proto::HELLO, 4, 0xFF, 0xFF, 0xFF, 0xFF])
        .unwrap();
    s.flush().unwrap();
    let frame = fireguard_server::proto::read_frame(&mut s).unwrap();
    let (tag, msg) = frame.expect("server answers");
    assert_eq!(tag, fireguard_server::proto::ERROR);
    assert!(!msg.is_empty());
    drop(s); // close promptly so the single worker is free again

    // A structurally valid HELLO that violates provisioning limits.
    let mut cfg = SessionConfig::from_experiment(
        &ExperimentConfig::new("swaptions").kernel(KernelId::PMC, 4),
        0,
    );
    cfg.kernels = vec![(KernelId::PMC, fireguard_soc::EngineConfig::Ucores(40))];
    // The client-side encoder refuses this config, so build the hostile
    // HELLO bytes by hand — the *server* must refuse it too.
    let mut s = TcpStream::connect(addr).unwrap();
    fireguard_server::proto::write_frame(&mut s, fireguard_server::proto::HELLO, &raw_hello(&cfg))
        .unwrap();
    let (tag, msg) = fireguard_server::proto::read_frame(&mut s)
        .unwrap()
        .expect("server answers");
    assert_eq!(tag, fireguard_server::proto::ERROR);
    assert!(String::from_utf8_lossy(&msg).contains("refused"));
    drop(s);

    // The service is still alive after both abuses.
    let exp = ExperimentConfig::new("swaptions")
        .kernel(KernelId::PMC, 2)
        .insts(3_000);
    let events = Arc::new(capture_events(&exp));
    let good = SessionConfig::from_experiment(&exp, 0);
    let out = run_session(&addr.to_string(), &good, events, 512).expect("healthy session");
    assert_eq!(out.summary.committed, 3_000);
    handle.shutdown();
}

/// A stream that ends short of its commit target ends the session with
/// one ERROR that says so, and no SUMMARY: the run is incomplete, so it
/// has no summary to give.
#[test]
fn truncated_stream_yields_one_error_and_no_summary() {
    use fireguard_server::proto::{FrameReader, FrameWriter, END, ERROR, EVENTS, HELLO, SUMMARY};
    use fireguard_trace::codec::EventEncoder;
    use std::io::BufReader;

    let handle = serve(loopback_opts(1, None)).expect("bind loopback");
    let addr = handle.local_addr();

    let exp = ExperimentConfig::new("swaptions")
        .kernel(KernelId::PMC, 2)
        .insts(50_000);
    // Only 2 000 of the 50 000 committed instructions ever arrive, then
    // the client ends the stream: the server must answer with an ERROR,
    // not hang.
    let events: Vec<_> = exp.trace().take(2_000).collect();
    let session = SessionConfig::from_experiment(&exp, 0);
    let err = run_session(&addr.to_string(), &session, Arc::new(events.clone()), 512)
        .expect_err("partial stream is an error");
    match err {
        ClientError::Server(msg) => assert!(msg.contains("stream"), "got: {msg}"),
        other => panic!("expected a server error, got {other:?}"),
    }

    // The same short stream, frame by frame, ending in a clean END.
    let stream = TcpStream::connect(addr).unwrap();
    let mut w = FrameWriter::new(&stream);
    w.write(HELLO, &session.encode().expect("valid config"))
        .unwrap();
    let mut enc = EventEncoder::new();
    for chunk in events.chunks(512) {
        w.write(EVENTS, &enc.encode_batch(chunk)).unwrap();
    }
    w.write(END, &[]).and_then(|()| w.flush()).unwrap();
    let mut reader = FrameReader::new(BufReader::new(&stream));
    let mut frames = Vec::new();
    while let Some(frame) = reader.read().expect("the server's frames verify") {
        frames.push(frame);
    }
    drop((w, reader));
    drop(stream);
    let (tag, msg) = frames.last().expect("the server answers");
    let msg = String::from_utf8_lossy(msg);
    assert_eq!(*tag, ERROR, "the session ends with an ERROR");
    assert!(
        msg.starts_with("stream ended after ") && msg.ends_with(" of 50000 instructions"),
        "got: {msg}"
    );
    assert!(
        frames.iter().all(|(tag, _)| *tag != SUMMARY),
        "an incomplete run sends no SUMMARY"
    );
    handle.shutdown();
}

/// The wide-verdict proof over the wire: all six registered kernels in
/// one session — verdict bits 0..=5, beyond the paper's four kernels —
/// report exactly the offline result, including alarms attributed to the
/// high (≥4) verdict slots.
#[test]
fn six_kernel_session_matches_offline_run() {
    let plan = AttackPlan::campaign(
        &[
            AttackKind::RetHijack,
            AttackKind::UseAfterFree,
            AttackKind::BoundsViolation,
        ],
        9,
        15_600,
        23_400,
        3,
    );
    let mut cfg = ExperimentConfig::new("dedup").insts(26_000).attacks(plan);
    for spec in fireguard_soc::registry() {
        cfg = cfg.kernel(spec.id(), 2);
    }
    assert_eq!(cfg.kernels.len(), 6, "every registered kernel rides along");

    let offline = run_fireguard(&cfg);
    let base = baseline_cycles(&cfg.workload, cfg.seed, cfg.insts);
    let events = Arc::new(capture_events(&cfg));
    let session = SessionConfig::from_experiment(&cfg, base);

    let handle = serve(loopback_opts(2, None)).expect("bind loopback");
    let out = run_session(
        &handle.local_addr().to_string(),
        &session,
        Arc::clone(&events),
        512,
    )
    .expect("wide session succeeds");
    handle.shutdown();

    assert_eq!(out.summary.committed, offline.committed);
    assert_eq!(out.summary.cycles, offline.cycles);
    assert_eq!(out.summary.packets, offline.packets);
    assert_eq!(out.summary.slowdown.to_bits(), offline.slowdown.to_bits());
    assert_eq!(out.summary.detections as usize, offline.detections.len());

    let mut served: Vec<(u64, usize)> = out.alarms.iter().map(|d| (d.seq, d.kernel_slot)).collect();
    let mut off: Vec<(u64, usize)> = offline
        .detections
        .iter()
        .map(|d| (d.seq, d.kernel_slot))
        .collect();
    served.sort_unstable();
    off.sort_unstable();
    assert_eq!(served, off, "per-kernel verdict slots match offline");
    assert!(
        out.alarms.iter().any(|d| d.kernel_slot >= 4),
        "a verdict slot beyond the paper kernels raised alarms over the wire"
    );
}

/// Hostile capacity abuse: a HELLO naming more kernels than the verdict
/// field holds gets an ERROR frame, never a worker panic, and the service
/// survives.
#[test]
fn oversized_hello_gets_an_error_frame() {
    use fireguard_server::proto::{read_frame, write_frame, ERROR, HELLO};

    let handle = serve(loopback_opts(1, None)).expect("bind loopback");
    let addr = handle.local_addr();
    let base_exp = ExperimentConfig::new("swaptions")
        .kernel(KernelId::PMC, 1)
        .insts(1_000);
    let mut cfg = SessionConfig::from_experiment(&base_exp, 0);

    // Nine kernels: beyond even the 8-bit verdict field.
    cfg.kernels = vec![(KernelId::PMC, fireguard_soc::EngineConfig::Ucores(1)); 9];
    let mut s = TcpStream::connect(addr).unwrap();
    write_frame(&mut s, HELLO, &raw_hello(&cfg)).unwrap();
    let (tag, msg) = read_frame(&mut s).unwrap().expect("server answers");
    assert_eq!(tag, ERROR);
    assert!(
        String::from_utf8_lossy(&msg).contains("implausible kernel count"),
        "got: {}",
        String::from_utf8_lossy(&msg)
    );
    drop(s);

    // The service is still alive.
    let events = Arc::new(capture_events(&base_exp));
    let good = SessionConfig::from_experiment(&base_exp, 0);
    let out = run_session(&addr.to_string(), &good, events, 512).expect("healthy session");
    assert!(out.summary.committed >= 1_000);
    handle.shutdown();
}

#[test]
fn max_sessions_budget_stops_the_service() {
    let exp = ExperimentConfig::new("swaptions")
        .kernel(KernelId::PMC, 2)
        .insts(2_000);
    let events = Arc::new(capture_events(&exp));
    let session = SessionConfig::from_experiment(&exp, 0);

    let handle = serve(loopback_opts(2, Some(2))).expect("bind loopback");
    let addr = handle.local_addr().to_string();
    for _ in 0..2 {
        run_session(&addr, &session, Arc::clone(&events), 512).expect("session succeeds");
    }
    // The budget is spent: join returns on its own.
    handle.join();
}

/// A raw listener standing in for `serve` pins the bytes a plain session
/// puts on the wire: HELLO, the EVENTS batches and END, each after the
/// HELLO with its checksum word, and nothing after them — no SESSION
/// ticket, no terminal ACK.
#[test]
fn plain_session_sends_hello_events_end_and_nothing_more() {
    use fireguard_server::proto::{
        encode_alarms, FrameReader, FrameWriter, ALARMS, END, EVENTS, HELLO, SUMMARY,
    };
    use fireguard_server::Summary;
    use fireguard_soc::{Detection, RunResult};
    use fireguard_trace::codec::EventDecoder;
    use std::io::{BufReader, Read};
    use std::net::{Shutdown, TcpListener};

    let exp = ExperimentConfig::new("swaptions")
        .kernel(KernelId::PMC, 2)
        .insts(3_000);
    let events = Arc::new(capture_events(&exp));
    let session = SessionConfig::from_experiment(&exp, 0);
    let alarms = vec![Detection {
        seq: 17,
        latency_ns: 42.5,
        attack: true,
        kernel_slot: 0,
    }];
    let summary = Summary {
        committed: 3_000,
        detections: 1,
        ..Summary::from_result(&RunResult::default())
    };

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("bound address").to_string();
    let server = {
        let (alarms, summary) = (alarms.clone(), summary.clone());
        std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            // The reader verifies each checksummed frame's word against
            // its tag, payload and frame index.
            let mut reader = FrameReader::new(BufReader::new(stream.try_clone().expect("clone")));
            let mut frames = Vec::new();
            loop {
                let frame = reader
                    .read()
                    .expect("whole frame, checksum intact")
                    .expect("END before EOF");
                let end = frame.0 == END;
                frames.push(frame);
                if end {
                    break;
                }
            }
            let mut w = FrameWriter::new(&stream);
            w.write(ALARMS, &encode_alarms(&alarms)).expect("ALARMS");
            w.write(SUMMARY, &summary.encode()).expect("SUMMARY");
            stream.shutdown(Shutdown::Write).expect("close");
            let mut after = Vec::new();
            reader
                .get_mut()
                .read_to_end(&mut after)
                .expect("read to EOF");
            (frames, after)
        })
    };
    let out = run_session(&addr, &session, Arc::clone(&events), 256).expect("session succeeds");
    let (frames, after) = server.join().expect("stand-in server");

    assert_eq!(
        frames[0],
        (HELLO, session.encode().expect("valid config")),
        "HELLO first, plain, with the encoded config"
    );
    assert_eq!(frames[frames.len() - 1], (END, Vec::new()));
    let mut decoder = EventDecoder::new();
    let mut streamed = Vec::new();
    for (tag, payload) in &frames[1..frames.len() - 1] {
        assert_eq!(*tag, EVENTS, "only EVENTS between HELLO and END");
        streamed.extend(decoder.decode_batch(payload).expect("EVENTS decode"));
    }
    assert_eq!(streamed, *events, "the EVENTS frames carry the input");
    assert!(after.is_empty(), "{} bytes arrived after END", after.len());
    assert_eq!(out.alarms, alarms);
    assert_eq!(out.summary, summary);
    assert_eq!(out.events_sent, events.len() as u64);
}

/// A plain session carries the frame checksum too. One flipped bit in a
/// mid-stream EVENTS payload — a flip the event codec alone decodes into
/// a valid batch of different events — ends the session with an ERROR
/// naming the checksum mismatch. No SUMMARY comes before that ERROR, so
/// `run_session` returns the error, never a summary computed from damaged
/// events.
#[test]
fn plain_session_detects_a_corrupted_events_frame() {
    use fireguard_server::proto::{FrameReader, FrameWriter, END, ERROR, EVENTS, HELLO, SUMMARY};
    use fireguard_trace::codec::{EventDecoder, EventEncoder};
    use std::io::{BufReader, Read};
    use std::net::{Shutdown, TcpListener};

    let exp = ExperimentConfig::new("swaptions")
        .kernel(KernelId::PMC, 2)
        .insts(3_000);
    let events = capture_events(&exp);
    let session = SessionConfig::from_experiment(&exp, 0);

    // The bytes a client sends in 256-event frames, and a bit to flip in
    // the third EVENTS payload.
    let mut w = FrameWriter::new(Vec::new());
    w.write(HELLO, &session.encode().expect("valid config"))
        .unwrap();
    let (mut enc, mut dec) = (EventEncoder::new(), EventDecoder::new());
    let mut flip = None;
    for (i, chunk) in events.chunks(256).enumerate() {
        let payload = enc.encode_batch(chunk);
        w.write(EVENTS, &payload).unwrap();
        if i == 2 {
            let at = (payload.len() / 2..payload.len())
                .find(|&k| {
                    let mut bad = payload.clone();
                    bad[k] ^= 1;
                    dec.clone()
                        .decode_batch(&bad)
                        .is_ok_and(|batch| batch != chunk)
                })
                .expect("a flip that still decodes");
            // The 4-byte checksum word follows the payload.
            flip = Some(w.get_mut().len() - 4 - payload.len() + at);
        }
        dec.decode_batch(&payload).expect("the stream decodes");
    }
    w.write(END, &[]).unwrap();
    let flip = flip.expect("the session has a third EVENTS frame");
    let mut wire = std::mem::take(w.get_mut());
    wire[flip] ^= 1;

    let handle = serve(loopback_opts(1, None)).expect("bind loopback");
    let stream = TcpStream::connect(handle.local_addr()).unwrap();
    (&stream).write_all(&wire).unwrap();
    let mut reader = FrameReader::new(BufReader::new(&stream));
    let mut tags = Vec::new();
    let mut last = Vec::new();
    while let Some((tag, payload)) = reader.read().expect("the server's frames verify") {
        tags.push(tag);
        last = payload;
    }
    drop(reader);
    drop(stream);
    let msg = String::from_utf8_lossy(&last).into_owned();
    assert_eq!(tags.last(), Some(&ERROR), "the session ends with an ERROR");
    assert!(msg.contains("checksum mismatch"), "got: {msg}");
    assert!(!tags.contains(&SUMMARY), "no SUMMARY before the ERROR");

    // The same bit flipped between `run_session` and the service.
    let relay = TcpListener::bind("127.0.0.1:0").expect("bind relay");
    let relay_addr = relay.local_addr().unwrap().to_string();
    let upstream = handle.local_addr();
    let relay = std::thread::spawn(move || {
        let (mut client, _) = relay.accept().expect("accept");
        let mut server = TcpStream::connect(upstream).expect("connect");
        let (mut down, mut up) = (server.try_clone().unwrap(), client.try_clone().unwrap());
        let back = std::thread::spawn(move || {
            let _ = std::io::copy(&mut down, &mut up);
            let _ = up.shutdown(Shutdown::Write);
        });
        let (mut seen, mut buf) = (0, [0u8; 4096]);
        while let Ok(n @ 1..) = client.read(&mut buf) {
            if (seen..seen + n).contains(&flip) {
                buf[flip - seen] ^= 1;
            }
            seen += n;
            if server.write_all(&buf[..n]).is_err() {
                break;
            }
        }
        let _ = server.shutdown(Shutdown::Write);
        back.join().expect("relay back-copy");
    });
    let err = run_session(&relay_addr, &session, Arc::new(events), 256)
        .expect_err("a damaged stream is an error, not a summary");
    match err {
        ClientError::Server(msg) => assert!(msg.contains("checksum mismatch"), "got: {msg}"),
        other => panic!("expected a server error, got {other:?}"),
    }
    relay.join().expect("relay");
    handle.shutdown();
}
