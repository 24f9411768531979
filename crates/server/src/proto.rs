//! The `fireguard-serve` wire protocol: framed messages over TCP.
//!
//! Every message is one **frame**: a 1-byte tag, a varint payload length,
//! the payload and, on most frames, a 4-byte checksum word.
//!
//! | tag | frame   | direction | payload                                          |
//! |-----|---------|-----------|--------------------------------------------------|
//! | 1   | HELLO   | c → s     | `uvarint` [`PROTO_VERSION`] ‖ [`SessionConfig`]  |
//! | 2   | EVENTS  | c → s     | a self-contained [`EventEncoder`] batch (`varint count ‖ events`) |
//! | 3   | END     | c → s     | empty — the commit stream is complete            |
//! | 4   | SESSION | c → r     | a [`SessionTicket`]; precedes HELLO when present |
//! | 16  | ALARMS  | s → c     | a batch of [`Detection`]s raised since the last   |
//! | 17  | SUMMARY | s → c     | a complete run's [`Summary`]; the session is over |
//! | 18  | ERROR   | s → c     | a UTF-8 message; the session is over             |
//! | 19  | ACK     | r ↔ c     | r → c: `uvarint` events buffered; c → r: empty, the verdict arrived |
//! | 21  | BUSY    | r → c     | a UTF-8 reason; the fresh session is refused     |
//!
//! **Checksums.** Every frame except SESSION and HELLO (the handshake) and
//! ERROR and BUSY (which can come before it) carries a trailing
//! FNV-1a-32 word over `tag ‖ LE64 frame-index ‖ payload`, where the
//! index counts checksummed frames per connection and direction from 0.
//! Binding the index detects duplication, reordering and silent frame
//! loss as well as payload corruption — essential for the event delta
//! codec, where a damaged EVENTS frame would otherwise decode into
//! plausible garbage. The rule depends on the tag alone
//! ([`checksummed`]), so it holds on every connection, plain or routed.
//!
//! **One verdict.** A session ends in exactly one SUMMARY or one ERROR,
//! never both: SUMMARY only for a run that reached its commit target on
//! an intact stream, otherwise the ERROR that says why it did not.
//!
//! **Self-contained batches.** Every EVENTS payload decodes on its own:
//! the codec starts each batch from a fresh prediction context, so no
//! codec state lives in a connection. That is what version 5 means: a
//! version-4 peer predicted each batch from the one before, so its second
//! batch would decode into wrong events, and the two versions refuse each
//! other's HELLO. Event payloads are byte-identical to the batches inside
//! a `.fgt` file, so a recorded trace streams to a live service, and a
//! router journals, forwards and replays a client's batch, as received.
//! All decode failures are [`CodecError`]s — a hostile or broken peer can
//! never panic the service.
//!
//! [`EventEncoder`]: fireguard_trace::codec::EventEncoder

use fireguard_kernels::{KernelId, ProgrammingModel};
use fireguard_soc::report::BottleneckBreakdown;
use fireguard_soc::{
    Detection, EngineConfig, ExperimentConfig, RunResult, MAX_ENGINES, MAX_KERNELS,
};
use fireguard_trace::codec::{put_string, put_uvarint, read_uvarint, CodecError, Cursor};
use fireguard_ucore::IsaxMode;
use std::io::{self, Read, Write};

/// The one protocol version this build speaks. A HELLO naming any other
/// is refused with [`CodecError::UnsupportedVersion`].
pub const PROTO_VERSION: u64 = 5;
/// Hard bound on any frame payload (4 MiB) — enforced on both sides.
pub const MAX_FRAME: u64 = 1 << 22;

/// Client→server: session configuration (must be the first frame).
pub const HELLO: u8 = 1;
/// Client→server: a batch of encoded commit events.
pub const EVENTS: u8 = 2;
/// Client→server: end of the commit stream.
pub const END: u8 = 3;
/// Client→router: a [`SessionTicket`] naming a resumable session. Only the
/// router tier speaks this frame — when present it precedes HELLO, and a
/// plain `serve` backend answers it with an ERROR frame, never silence.
pub const SESSION: u8 = 4;
/// Server→client: detections raised since the previous ALARMS frame.
pub const ALARMS: u8 = 16;
/// Server→client: the summary of a complete run — the session's verdict.
pub const SUMMARY: u8 = 17;
/// Server→client: a fatal session error (UTF-8 message payload) — the
/// session's verdict when it ends without a SUMMARY.
pub const ERROR: u8 = 18;
/// Router→client: cumulative event acknowledgement for a ticketed session
/// (payload: `uvarint n`, the count of contiguously buffered events — the
/// absolute seq a resumed replay starts from). Never sent on plain HELLO
/// sessions, so existing clients see an unchanged frame vocabulary.
pub const ACK: u8 = 19;
/// Router→client: the router is over its admission budget and refuses the
/// *fresh* session cleanly (UTF-8 reason payload) instead of dropping the
/// connection. Resume tickets are never answered with BUSY — a session the
/// router already accepted is always allowed back in.
pub const BUSY: u8 = 21;

/// ERROR payloads with this prefix mark a *transport* failure between a
/// router and its backend (the stream died mid-session), as opposed to a
/// semantic refusal. The router treats them as retryable: it discards the
/// incarnation and fails the session over instead of surfacing the error.
pub const RETRYABLE_ERROR_PREFIX: &str = "stream error: ";

/// Writes one frame with no checksum word (`tag ‖ varint len ‖ payload`):
/// the shape of the frames [`checksummed`] exempts. Connections write
/// through a [`FrameWriter`].
///
/// # Errors
///
/// Propagates I/O errors from `w`.
pub fn write_frame<W: Write>(w: &mut W, tag: u8, payload: &[u8]) -> io::Result<()> {
    let mut head = vec![tag];
    put_uvarint(&mut head, payload.len() as u64);
    w.write_all(&head)?;
    w.write_all(payload)
}

/// Reads one frame with no checksum word; `Ok(None)` on clean EOF at a
/// frame boundary. Connections read through a [`FrameReader`].
///
/// # Errors
///
/// [`CodecError::Oversized`] beyond [`MAX_FRAME`], [`CodecError::Truncated`]
/// on EOF inside a frame, or the underlying I/O error.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<(u8, Vec<u8>)>, CodecError> {
    let mut tag = [0u8; 1];
    match r.read(&mut tag) {
        Ok(0) => return Ok(None),
        Ok(_) => {}
        Err(e) if e.kind() == io::ErrorKind::Interrupted => return read_frame(r),
        Err(e) => return Err(CodecError::Io(e)),
    }
    let len = read_uvarint(r)?;
    if len > MAX_FRAME {
        return Err(CodecError::Oversized {
            what: "frame",
            len,
            max: MAX_FRAME,
        });
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)
        .map_err(|_| CodecError::Truncated("frame payload"))?;
    Ok(Some((tag[0], payload)))
}

/// Whether a frame with `tag` carries the trailing checksum word: every
/// frame except the handshake (SESSION, HELLO) and the two that can come
/// before it (ERROR, BUSY). Exempt frames do not advance the frame index.
pub fn checksummed(tag: u8) -> bool {
    !matches!(tag, SESSION | HELLO | ERROR | BUSY)
}

// FNV-1a-32 over `tag ‖ LE64 frame-index ‖ payload`.
fn frame_checksum(tag: u8, index: u64, payload: &[u8]) -> u32 {
    const FNV_OFFSET: u32 = 0x811c_9dc5;
    const FNV_PRIME: u32 = 0x0100_0193;
    let mut h = FNV_OFFSET;
    let mut step = |b: u8| {
        h ^= u32::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    };
    step(tag);
    for b in index.to_le_bytes() {
        step(b);
    }
    for &b in payload {
        step(b);
    }
    h
}

/// A per-connection framed writer: a [`checksummed`] frame gets its
/// trailing index-bound checksum word, an exempt one is written as by
/// [`write_frame`].
#[derive(Debug)]
pub struct FrameWriter<W: Write> {
    w: W,
    index: u64,
}

impl<W: Write> FrameWriter<W> {
    /// Wraps `w`, a fresh connection (frame index 0).
    pub fn new(w: W) -> Self {
        FrameWriter { w, index: 0 }
    }

    /// Wraps `w` to continue a stream that already holds `frames`
    /// checksummed frames, such as a reopened session journal.
    pub fn continuing(w: W, frames: u64) -> Self {
        FrameWriter { w, index: frames }
    }

    /// Writes one frame.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    pub fn write(&mut self, tag: u8, payload: &[u8]) -> io::Result<()> {
        write_frame(&mut self.w, tag, payload)?;
        if checksummed(tag) {
            let sum = frame_checksum(tag, self.index, payload);
            self.w.write_all(&sum.to_le_bytes())?;
            self.index += 1;
        }
        Ok(())
    }

    /// Flushes the underlying writer.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    pub fn flush(&mut self) -> io::Result<()> {
        self.w.flush()
    }

    /// The underlying writer (for shutdown/half-close plumbing).
    pub fn get_mut(&mut self) -> &mut W {
        &mut self.w
    }
}

/// A per-connection framed reader; the dual of [`FrameWriter`]. It
/// verifies the checksum word of every [`checksummed`] frame and fails
/// with [`CodecError::ChecksumMismatch`] on any corruption, duplication,
/// reordering or loss the wire introduced.
#[derive(Debug)]
pub struct FrameReader<R: Read> {
    r: R,
    index: u64,
}

impl<R: Read> FrameReader<R> {
    /// Wraps `r`, a fresh connection (frame index 0).
    pub fn new(r: R) -> Self {
        FrameReader { r, index: 0 }
    }

    /// Reads one frame; `Ok(None)` on clean EOF at a frame boundary.
    ///
    /// # Errors
    ///
    /// Everything [`read_frame`] can return, plus
    /// [`CodecError::ChecksumMismatch`] when a checksummed frame fails
    /// verification and [`CodecError::Truncated`] when the checksum word
    /// itself is cut short.
    pub fn read(&mut self) -> Result<Option<(u8, Vec<u8>)>, CodecError> {
        let Some((tag, payload)) = read_frame(&mut self.r)? else {
            return Ok(None);
        };
        if checksummed(tag) {
            let mut sum = [0u8; 4];
            self.r
                .read_exact(&mut sum)
                .map_err(|_| CodecError::Truncated("frame checksum"))?;
            let stored = u32::from_le_bytes(sum);
            let computed = frame_checksum(tag, self.index, &payload);
            if stored != computed {
                return Err(CodecError::ChecksumMismatch {
                    expected: u64::from(stored),
                    found: u64::from(computed),
                });
            }
            self.index += 1;
        }
        Ok(Some((tag, payload)))
    }

    /// The underlying reader.
    pub fn get_mut(&mut self) -> &mut R {
        &mut self.r
    }
}

// ---- session tickets (router tier) -----------------------------------------

/// The SESSION frame payload: identifies a resumable routed session.
///
/// A router client opens every connection with one of these *before* its
/// HELLO. `resume == false` registers a fresh session under `id`;
/// `resume == true` re-attaches to the buffered state of a session whose
/// transport died, carrying how many alarms the client already holds so
/// the router can re-deliver exactly the missing tail (zero lost, zero
/// duplicated detections).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionTicket {
    /// Client-chosen session identity (hashed onto the backend ring).
    pub id: u64,
    /// Re-attach to existing buffered state instead of starting fresh.
    pub resume: bool,
    /// Alarms the client has already received (resume only; the router
    /// re-sends from this index). Ignored when `resume` is false.
    pub alarms_received: u64,
}

impl SessionTicket {
    /// Encodes the SESSION payload
    /// (`uvarint id ‖ u8 resume ‖ [uvarint alarms_received]`).
    pub fn encode(&self) -> Vec<u8> {
        let mut b = Vec::new();
        put_uvarint(&mut b, self.id);
        b.push(u8::from(self.resume));
        if self.resume {
            put_uvarint(&mut b, self.alarms_received);
        }
        b
    }

    /// Decodes a SESSION payload.
    ///
    /// # Errors
    ///
    /// Any structural decode failure.
    pub fn decode(payload: &[u8]) -> Result<Self, CodecError> {
        let mut cur = Cursor::new(payload);
        let id = cur.uvarint("session id")?;
        let resume = match cur.u8("session mode")? {
            0 => false,
            1 => true,
            _ => return Err(CodecError::Corrupt("session mode not 0/1")),
        };
        let alarms_received = if resume {
            cur.uvarint("session alarms received")?
        } else {
            0
        };
        if !cur.is_empty() {
            return Err(CodecError::Corrupt("trailing bytes after session ticket"));
        }
        Ok(SessionTicket {
            id,
            resume,
            alarms_received,
        })
    }
}

/// Encodes an ACK payload: `events` is the count of contiguously buffered
/// events (equivalently: the absolute seq the next expected event carries).
pub fn encode_ack(events: u64) -> Vec<u8> {
    let mut b = Vec::new();
    put_uvarint(&mut b, events);
    b
}

/// Decodes an ACK payload.
///
/// # Errors
///
/// Any structural decode failure.
pub fn decode_ack(payload: &[u8]) -> Result<u64, CodecError> {
    let mut cur = Cursor::new(payload);
    let events = cur.uvarint("ack events")?;
    if !cur.is_empty() {
        return Err(CodecError::Corrupt("trailing bytes after ack"));
    }
    Ok(events)
}

// ---- session configuration -------------------------------------------------

/// The per-session experiment configuration carried by the HELLO frame: the
/// full [`ExperimentConfig`] surface (minus the attack plan, which lives in
/// the event stream itself) plus the pinned baseline-cycle denominator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionConfig {
    /// Workload label (reporting only — the server never regenerates it).
    pub workload: String,
    /// Trace seed (reporting only).
    pub seed: u64,
    /// Commit budget: the server runs until this many instructions commit.
    pub insts: u64,
    /// Bare-core cycles for the same stream (0 = unknown; slowdown = 1.0).
    pub baseline_cycles: u64,
    /// Kernels and their engine provisioning, in verdict-bit order.
    pub kernels: Vec<(KernelId, EngineConfig)>,
    /// µ-program style.
    pub model: ProgrammingModel,
    /// Event-filter width.
    pub filter_width: usize,
    /// ISAX placement.
    pub isax: IsaxMode,
    /// Mapper width.
    pub mapper_width: usize,
}

// Kernel bytes on the wire are the registry's stable ids
// (`KernelId::wire`): 0 = PMC, 1 = shadow stack, 2 = ASan, 3 = UaF —
// pinned forever for compatibility — with newer registered kernels taking
// the next ids (4 = taint, 5 = MTE). Decoding is registry-driven, so a
// HELLO naming an unregistered id is a clean `CodecError` (the service
// answers with an ERROR frame), never a panic.
fn kernel_from_u8(v: u8) -> Result<KernelId, CodecError> {
    KernelId::from_wire(v).ok_or(CodecError::Corrupt("unknown kernel id"))
}

fn model_to_u8(m: ProgrammingModel) -> u8 {
    match m {
        ProgrammingModel::Conventional => 0,
        ProgrammingModel::Duffs => 1,
        ProgrammingModel::Unrolled => 2,
        ProgrammingModel::Hybrid => 3,
    }
}

fn model_from_u8(v: u8) -> Result<ProgrammingModel, CodecError> {
    Ok(match v {
        0 => ProgrammingModel::Conventional,
        1 => ProgrammingModel::Duffs,
        2 => ProgrammingModel::Unrolled,
        3 => ProgrammingModel::Hybrid,
        _ => return Err(CodecError::Corrupt("unknown programming model")),
    })
}

impl SessionConfig {
    /// Builds a session from an experiment description and its pinned
    /// baseline (e.g. from a `.fgt` header).
    pub fn from_experiment(cfg: &ExperimentConfig, baseline_cycles: u64) -> Self {
        SessionConfig {
            workload: cfg.workload.clone(),
            seed: cfg.seed,
            insts: cfg.insts,
            baseline_cycles,
            kernels: cfg.kernels.clone(),
            model: cfg.model,
            filter_width: cfg.filter_width,
            isax: cfg.isax,
            mapper_width: cfg.mapper_width,
        }
    }

    /// The equivalent in-process experiment (attacks: none — the stream
    /// carries them).
    pub fn to_experiment(&self) -> ExperimentConfig {
        let mut cfg = ExperimentConfig::new(&self.workload)
            .seed(self.seed)
            .insts(self.insts)
            .model(self.model)
            .filter_width(self.filter_width)
            .isax(self.isax)
            .mapper_width(self.mapper_width);
        cfg.kernels = self.kernels.clone();
        cfg
    }

    /// Validates the structural limits the system constructor asserts, so
    /// a hostile HELLO is refused with an error frame instead of a panic.
    ///
    /// # Errors
    ///
    /// A human-readable refusal reason.
    pub fn validate(&self) -> Result<(), String> {
        if self.insts == 0 {
            return Err("insts must be at least 1".into());
        }
        if self.kernels.is_empty() {
            return Err("at least one kernel is required".into());
        }
        if self.kernels.len() > MAX_KERNELS {
            return Err(format!(
                "{} kernels requested (max {MAX_KERNELS})",
                self.kernels.len()
            ));
        }
        let engines: usize = self
            .kernels
            .iter()
            .map(|(_, e)| match e {
                EngineConfig::Ucores(n) => *n,
                EngineConfig::Ha => 1,
            })
            .sum();
        if engines == 0 || engines > MAX_ENGINES {
            return Err(format!("{engines} engines requested (1..={MAX_ENGINES})"));
        }
        if self
            .kernels
            .iter()
            .any(|(_, e)| matches!(e, EngineConfig::Ucores(0)))
        {
            return Err("a kernel needs at least one µcore".into());
        }
        if self.filter_width == 0 || self.filter_width > 8 {
            return Err(format!("filter width {} (1..=8)", self.filter_width));
        }
        if self.mapper_width == 0 || self.mapper_width > 8 {
            return Err(format!("mapper width {} (1..=8)", self.mapper_width));
        }
        Ok(())
    }

    /// Encodes the HELLO payload (`uvarint PROTO_VERSION ‖ config`).
    ///
    /// Encoding validates first — an out-of-range config (e.g. more
    /// kernels than the verdict field holds) is refused here rather than
    /// silently truncated onto the wire.
    ///
    /// # Errors
    ///
    /// The [`validate`](Self::validate) refusal reason.
    pub fn encode(&self) -> Result<Vec<u8>, String> {
        self.validate()?;
        let mut b = Vec::new();
        put_uvarint(&mut b, PROTO_VERSION);
        put_string(&mut b, &self.workload);
        put_uvarint(&mut b, self.seed);
        put_uvarint(&mut b, self.insts);
        put_uvarint(&mut b, self.baseline_cycles);
        b.push(self.kernels.len() as u8);
        for (kind, engine) in &self.kernels {
            b.push(kind.wire());
            // 0 encodes the hardware accelerator; n > 0 encodes n µcores.
            put_uvarint(
                &mut b,
                match engine {
                    EngineConfig::Ha => 0,
                    EngineConfig::Ucores(n) => *n as u64,
                },
            );
        }
        b.push(model_to_u8(self.model));
        put_uvarint(&mut b, self.filter_width as u64);
        b.push(match self.isax {
            IsaxMode::MaStage => 0,
            IsaxMode::PostCommit => 1,
        });
        put_uvarint(&mut b, self.mapper_width as u64);
        Ok(b)
    }

    /// Decodes a HELLO payload.
    ///
    /// # Errors
    ///
    /// [`CodecError::UnsupportedVersion`] for any version but
    /// [`PROTO_VERSION`], or any structural decode failure.
    pub fn decode(payload: &[u8]) -> Result<Self, CodecError> {
        let mut cur = Cursor::new(payload);
        let version = cur.uvarint("hello version")?;
        if version != PROTO_VERSION {
            return Err(CodecError::UnsupportedVersion(version));
        }
        let workload = cur.string(1024, "hello workload")?;
        let seed = cur.uvarint("hello seed")?;
        let insts = cur.uvarint("hello insts")?;
        let baseline_cycles = cur.uvarint("hello baseline")?;
        let n_kernels = cur.u8("hello kernel count")?;
        if n_kernels as usize > MAX_KERNELS {
            return Err(CodecError::Corrupt("implausible kernel count"));
        }
        let mut kernels = Vec::with_capacity(n_kernels as usize);
        for _ in 0..n_kernels {
            let kind = kernel_from_u8(cur.u8("hello kernel id")?)?;
            let engines = cur.uvarint("hello engine count")?;
            if engines > 64 {
                return Err(CodecError::Corrupt("implausible engine count"));
            }
            let engine = if engines == 0 {
                EngineConfig::Ha
            } else {
                EngineConfig::Ucores(engines as usize)
            };
            kernels.push((kind, engine));
        }
        let model = model_from_u8(cur.u8("hello model")?)?;
        let filter_width = cur.uvarint("hello filter width")? as usize;
        let isax = match cur.u8("hello isax")? {
            0 => IsaxMode::MaStage,
            1 => IsaxMode::PostCommit,
            _ => return Err(CodecError::Corrupt("unknown isax mode")),
        };
        let mapper_width = cur.uvarint("hello mapper width")? as usize;
        if !cur.is_empty() {
            return Err(CodecError::Corrupt("trailing bytes after hello"));
        }
        Ok(SessionConfig {
            workload,
            seed,
            insts,
            baseline_cycles,
            kernels,
            model,
            filter_width,
            isax,
            mapper_width,
        })
    }
}

// ---- alarms ----------------------------------------------------------------

/// Encodes a batch of detections as an ALARMS payload.
pub fn encode_alarms(detections: &[Detection]) -> Vec<u8> {
    let mut b = Vec::new();
    put_uvarint(&mut b, detections.len() as u64);
    for d in detections {
        put_uvarint(&mut b, d.seq);
        b.extend_from_slice(&d.latency_ns.to_bits().to_le_bytes());
        b.push(u8::from(d.attack));
        put_uvarint(&mut b, d.kernel_slot as u64);
    }
    b
}

/// Decodes an ALARMS payload.
///
/// # Errors
///
/// Any structural decode failure.
pub fn decode_alarms(payload: &[u8]) -> Result<Vec<Detection>, CodecError> {
    let mut cur = Cursor::new(payload);
    let count = cur.uvarint("alarm count")?;
    // Each alarm needs at least 11 payload bytes (seq ≥ 1, latency 8,
    // ground truth 1, slot ≥ 1), so bounding the count by the payload
    // length rejects hostile counts before any allocation.
    if count > payload.len() as u64 / 11 {
        return Err(CodecError::Corrupt("implausible alarm count"));
    }
    let mut out = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let seq = cur.uvarint("alarm seq")?;
        let latency_ns = f64::from_bits(cur.u64le("alarm latency")?);
        let attack = match cur.u8("alarm ground truth")? {
            0 => false,
            1 => true,
            _ => return Err(CodecError::Corrupt("alarm ground truth not 0/1")),
        };
        let kernel_slot = cur.uvarint("alarm kernel slot")? as usize;
        out.push(Detection {
            seq,
            latency_ns,
            attack,
            kernel_slot,
        });
    }
    if !cur.is_empty() {
        return Err(CodecError::Corrupt("trailing bytes after alarms"));
    }
    Ok(out)
}

// ---- summary ---------------------------------------------------------------

/// The final SUMMARY frame: every scalar of the session's [`RunResult`]
/// (detections travelled separately, in ALARMS frames, and are summarized
/// here by count).
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Instructions committed.
    pub committed: u64,
    /// Fast-domain cycles taken.
    pub cycles: u64,
    /// Baseline cycles the slowdown was computed against.
    pub baseline_cycles: u64,
    /// Main-core slowdown.
    pub slowdown: f64,
    /// Analysis packets produced.
    pub packets: u64,
    /// Packets with no subscriber.
    pub unclaimed_packets: u64,
    /// Stall attribution.
    pub bottlenecks: BottleneckBreakdown,
    /// Total detections raised over the session.
    pub detections: u64,
    /// Wire tail, 1 of 4: the judging width. Peers that ran threaded
    /// judging stages reported their width and three stall totals in
    /// these four trailing varints. This build judges serially and always
    /// sends width 1 and zero stalls; the decoder still accepts any values
    /// an older peer sends, or a payload that ends at `detections`.
    pub pipeline_width: u64,
    /// Wire tail, 2 of 4: generation-stage stalls (always 0 here).
    pub pipeline_gen_stalls: u64,
    /// Wire tail, 3 of 4: judging-stage stalls (always 0 here).
    pub pipeline_judge_stalls: u64,
    /// Wire tail, 4 of 4: core waits on judged batches (always 0 here).
    ///
    /// None of the four is a simulation output, so parity checks never
    /// compare them.
    pub pipeline_core_waits: u64,
}

impl Summary {
    /// Summarizes a finished run.
    pub fn from_result(r: &RunResult) -> Self {
        Summary {
            committed: r.committed,
            cycles: r.cycles,
            baseline_cycles: r.baseline_cycles,
            slowdown: r.slowdown,
            packets: r.packets,
            unclaimed_packets: r.unclaimed_packets,
            bottlenecks: r.bottlenecks,
            detections: r.detections.len() as u64,
            pipeline_width: 1,
            pipeline_gen_stalls: 0,
            pipeline_judge_stalls: 0,
            pipeline_core_waits: 0,
        }
    }

    /// Encodes the SUMMARY payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut b = Vec::new();
        put_uvarint(&mut b, self.committed);
        put_uvarint(&mut b, self.cycles);
        put_uvarint(&mut b, self.baseline_cycles);
        b.extend_from_slice(&self.slowdown.to_bits().to_le_bytes());
        put_uvarint(&mut b, self.packets);
        put_uvarint(&mut b, self.unclaimed_packets);
        put_uvarint(&mut b, self.bottlenecks.filter);
        put_uvarint(&mut b, self.bottlenecks.mapper);
        put_uvarint(&mut b, self.bottlenecks.cdc);
        put_uvarint(&mut b, self.bottlenecks.ucore);
        put_uvarint(&mut b, self.detections);
        // The optional wire tail (see `pipeline_width`). Decoders accept
        // payloads that end at `detections`, so pre-tail recordings remain
        // readable.
        put_uvarint(&mut b, self.pipeline_width);
        put_uvarint(&mut b, self.pipeline_gen_stalls);
        put_uvarint(&mut b, self.pipeline_judge_stalls);
        put_uvarint(&mut b, self.pipeline_core_waits);
        b
    }

    /// Decodes a SUMMARY payload.
    ///
    /// # Errors
    ///
    /// Any structural decode failure.
    pub fn decode(payload: &[u8]) -> Result<Self, CodecError> {
        let mut cur = Cursor::new(payload);
        let committed = cur.uvarint("summary committed")?;
        let cycles = cur.uvarint("summary cycles")?;
        let baseline_cycles = cur.uvarint("summary baseline")?;
        let slowdown = f64::from_bits(cur.u64le("summary slowdown")?);
        let packets = cur.uvarint("summary packets")?;
        let unclaimed_packets = cur.uvarint("summary unclaimed")?;
        let bottlenecks = BottleneckBreakdown {
            filter: cur.uvarint("summary filter stalls")?,
            mapper: cur.uvarint("summary mapper stalls")?,
            cdc: cur.uvarint("summary cdc stalls")?,
            ucore: cur.uvarint("summary ucore stalls")?,
        };
        let detections = cur.uvarint("summary detections")?;
        // The pipeline tail is optional: a payload ending here decodes
        // with serial defaults (pre-tail peers and journaled frames).
        let (pipeline_width, pipeline_gen_stalls, pipeline_judge_stalls, pipeline_core_waits) =
            if cur.is_empty() {
                (1, 0, 0, 0)
            } else {
                (
                    cur.uvarint("summary pipeline width")?,
                    cur.uvarint("summary gen stalls")?,
                    cur.uvarint("summary judge stalls")?,
                    cur.uvarint("summary core waits")?,
                )
            };
        if !cur.is_empty() {
            return Err(CodecError::Corrupt("trailing bytes after summary"));
        }
        Ok(Summary {
            committed,
            cycles,
            baseline_cycles,
            slowdown,
            packets,
            unclaimed_packets,
            bottlenecks,
            detections,
            pipeline_width,
            pipeline_gen_stalls,
            pipeline_judge_stalls,
            pipeline_core_waits,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_config() -> SessionConfig {
        SessionConfig {
            workload: "dedup".into(),
            seed: 9,
            insts: 30_000,
            baseline_cycles: 12_345,
            kernels: vec![
                (KernelId::ASAN, EngineConfig::Ucores(4)),
                (KernelId::SHADOW_STACK, EngineConfig::Ha),
            ],
            model: ProgrammingModel::Hybrid,
            filter_width: 4,
            isax: IsaxMode::MaStage,
            mapper_width: 1,
        }
    }

    /// All six registered kernels, one µcore each — a session past the
    /// four paper kernels, using verdict bits 4 and 5.
    fn wide_config() -> SessionConfig {
        let mut cfg = sample_config();
        cfg.kernels = fireguard_soc::registry()
            .iter()
            .map(|spec| (spec.id(), EngineConfig::Ucores(1)))
            .collect();
        cfg
    }

    #[test]
    fn hello_round_trips() {
        for cfg in [sample_config(), wide_config()] {
            assert_eq!(SessionConfig::decode(&cfg.encode().unwrap()).unwrap(), cfg);
            cfg.validate().expect("sample config is valid");
        }
        assert_eq!(wide_config().kernels.len(), 6, "all registered kernels");
    }

    /// Wire-format regression pin: the kernel bytes 0–3 decode to the four
    /// paper kernels **forever**, new kernels extend the sequence without
    /// renumbering, and an unknown id is a clean decode error (which the
    /// service answers with an ERROR frame — see the service tests), never
    /// a hang or panic.
    #[test]
    fn kernel_wire_ids_are_pinned() {
        let expected: &[(u8, &str)] = &[
            (0, "PMC"),
            (1, "Shadow"),
            (2, "Sanitizer"),
            (3, "UaF"),
            (4, "Taint"),
            (5, "MTE"),
        ];
        for &(wire, name) in expected {
            let id = KernelId::from_wire(wire).expect("registered id");
            assert_eq!(id.wire(), wire);
            assert_eq!(id.name(), name, "wire id {wire} renamed/renumbered");
        }
        assert!(matches!(
            kernel_from_u8(6),
            Err(CodecError::Corrupt("unknown kernel id"))
        ));
        assert!(kernel_from_u8(250).is_err());

        // A byte-level HELLO fixture: version 5, workload "x", seed 0,
        // insts 1, baseline 0, one kernel (id byte ‖ 4 µcores), hybrid
        // model, filter width 4, MA-stage ISAX, mapper width 1. Each paper
        // kernel id must decode from these exact bytes.
        for &(wire, _) in expected {
            let payload: Vec<u8> = vec![
                5, // protocol version
                1, b'x', // workload
                0,    // seed
                1,    // insts
                0,    // baseline cycles
                1,    // kernel count
                wire, 4, // kernel id byte + engine count
                3, // hybrid model
                4, // filter width
                0, // MA-stage ISAX
                1, // mapper width
            ];
            let cfg = SessionConfig::decode(&payload)
                .unwrap_or_else(|e| panic!("pinned HELLO bytes for id {wire} broke: {e}"));
            assert_eq!(
                cfg.kernels,
                vec![(KernelId::from_wire(wire).unwrap(), EngineConfig::Ucores(4))]
            );
            // And the encoder reproduces the same kernel byte (offset 7:
            // version ‖ len ‖ "x" ‖ seed ‖ insts ‖ baseline ‖ count) —
            // the session re-encodes byte-identically.
            assert_eq!(cfg.encode().unwrap(), payload, "HELLO bytes moved");
            assert_eq!(cfg.encode().unwrap()[7], wire, "kernel id byte moved");
        }

        // The same fixture with an unregistered id byte fails cleanly.
        let mut bad: Vec<u8> = vec![5, 1, b'x', 0, 1, 0, 1, 99, 4, 3, 4, 0, 1];
        assert!(SessionConfig::decode(&bad).is_err());
        bad[7] = 5; // highest registered id still decodes
        assert!(SessionConfig::decode(&bad).is_ok());
    }

    #[test]
    fn new_kernel_sessions_round_trip() {
        for id in [KernelId::TAINT, KernelId::MTE] {
            let mut cfg = sample_config();
            cfg.kernels = vec![(id, EngineConfig::Ucores(4))];
            assert_eq!(SessionConfig::decode(&cfg.encode().unwrap()).unwrap(), cfg);
            cfg.validate().expect("taint/mte sessions validate");
        }
    }

    #[test]
    fn hello_decode_rejects_garbage() {
        assert!(SessionConfig::decode(&[]).is_err());
        assert!(SessionConfig::decode(&[0xFF; 64]).is_err());
        // Every version but 5 — the retired 1 to 4, and any future one —
        // is refused before the config is read.
        let mut other = sample_config().encode().unwrap();
        for version in [1u8, 2, 3, 4, 9] {
            other[0] = version;
            assert!(matches!(
                SessionConfig::decode(&other),
                Err(CodecError::UnsupportedVersion(v)) if v == u64::from(version)
            ));
        }
    }

    #[test]
    fn encode_refuses_invalid_configs() {
        // More kernels than the verdict field holds: encode() refuses
        // instead of truncating the count byte onto the wire.
        let mut cfg = sample_config();
        cfg.kernels = vec![(KernelId::PMC, EngineConfig::Ucores(1)); MAX_KERNELS + 1];
        assert!(cfg.encode().is_err());
        let mut cfg = sample_config();
        cfg.insts = 0;
        assert!(cfg.encode().is_err());
    }

    #[test]
    fn validation_catches_structural_limits() {
        let mut cfg = sample_config();
        cfg.kernels.clear();
        assert!(cfg.validate().is_err());
        let mut cfg = sample_config();
        cfg.kernels = vec![(KernelId::ASAN, EngineConfig::Ucores(17))];
        assert!(cfg.validate().is_err());
        let mut cfg = sample_config();
        cfg.insts = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn alarms_round_trip() {
        let ds = vec![
            Detection {
                seq: 7,
                latency_ns: 123.456,
                attack: true,
                kernel_slot: 1,
            },
            Detection {
                seq: 9_000_000,
                latency_ns: 0.25,
                attack: false,
                kernel_slot: 0,
            },
        ];
        let back = decode_alarms(&encode_alarms(&ds)).unwrap();
        assert_eq!(back, ds);
    }

    #[test]
    fn hostile_alarm_count_is_rejected_before_allocation() {
        let mut b = Vec::new();
        put_uvarint(&mut b, 1_000_000); // declares 1M alarms in a 3-byte payload
        assert!(matches!(
            decode_alarms(&b),
            Err(CodecError::Corrupt("implausible alarm count"))
        ));
    }

    #[test]
    fn summary_round_trips_bit_exactly() {
        let s = Summary {
            committed: 30_000,
            cycles: 41_234,
            baseline_cycles: 40_000,
            slowdown: 1.030_85,
            packets: 12_000,
            unclaimed_packets: 0,
            bottlenecks: BottleneckBreakdown {
                filter: 1,
                mapper: 2,
                cdc: 3,
                ucore: 4,
            },
            detections: 17,
            pipeline_width: 3,
            pipeline_gen_stalls: 101,
            pipeline_judge_stalls: 7,
            pipeline_core_waits: 55,
        };
        let back = Summary::decode(&s.encode()).unwrap();
        assert_eq!(back.slowdown.to_bits(), s.slowdown.to_bits());
        assert_eq!(back, s);
    }

    #[test]
    fn summary_without_pipeline_tail_decodes_to_serial_defaults() {
        // A pre-tail SUMMARY payload (ends at `detections`) must still
        // decode: the tail fields come back as width 1, zero stalls.
        let s = Summary {
            committed: 10,
            cycles: 20,
            baseline_cycles: 15,
            slowdown: 1.5,
            packets: 4,
            unclaimed_packets: 0,
            bottlenecks: BottleneckBreakdown::default(),
            detections: 0,
            pipeline_width: 1,
            pipeline_gen_stalls: 0,
            pipeline_judge_stalls: 0,
            pipeline_core_waits: 0,
        };
        let mut bytes = s.encode();
        // The serial tail is four one-byte varints: width 1 (0x01), then
        // three zero stalls.
        bytes.truncate(bytes.len() - 4);
        assert_eq!(Summary::decode(&bytes).unwrap(), s);
    }

    #[test]
    fn session_tickets_round_trip() {
        let fresh = SessionTicket {
            id: 0xFEED_BEEF,
            resume: false,
            alarms_received: 0,
        };
        assert_eq!(SessionTicket::decode(&fresh.encode()).unwrap(), fresh);
        let resumed = SessionTicket {
            id: 7,
            resume: true,
            alarms_received: 41,
        };
        assert_eq!(SessionTicket::decode(&resumed.encode()).unwrap(), resumed);
        // A fresh ticket never carries the alarm count on the wire: for
        // the same id, resuming costs exactly the alarm-count varint.
        let fresh7 = SessionTicket {
            resume: false,
            alarms_received: 0,
            ..resumed
        };
        assert_eq!(fresh7.encode().len() + 1, resumed.encode().len());
    }

    #[test]
    fn session_ticket_decode_rejects_garbage() {
        assert!(SessionTicket::decode(&[]).is_err());
        // Mode byte outside 0/1.
        assert!(matches!(
            SessionTicket::decode(&[7, 2]),
            Err(CodecError::Corrupt("session mode not 0/1"))
        ));
        // Trailing bytes after a fresh ticket.
        assert!(matches!(
            SessionTicket::decode(&[7, 0, 9]),
            Err(CodecError::Corrupt("trailing bytes after session ticket"))
        ));
        // Resume without the alarm count.
        assert!(SessionTicket::decode(&[7, 1]).is_err());
    }

    #[test]
    fn acks_round_trip() {
        for n in [0u64, 1, 511, u64::from(u32::MAX) + 7] {
            assert_eq!(decode_ack(&encode_ack(n)).unwrap(), n);
        }
        assert!(decode_ack(&[]).is_err());
        let mut b = encode_ack(3);
        b.push(0);
        assert!(matches!(
            decode_ack(&b),
            Err(CodecError::Corrupt("trailing bytes after ack"))
        ));
    }

    #[test]
    fn frames_round_trip_and_reject_oversize() {
        let mut buf = Vec::new();
        write_frame(&mut buf, HELLO, b"abc").unwrap();
        write_frame(&mut buf, END, b"").unwrap();
        let mut r = buf.as_slice();
        assert_eq!(read_frame(&mut r).unwrap(), Some((HELLO, b"abc".to_vec())));
        assert_eq!(read_frame(&mut r).unwrap(), Some((END, Vec::new())));
        assert_eq!(read_frame(&mut r).unwrap(), None);

        let mut huge = vec![EVENTS];
        put_uvarint(&mut huge, MAX_FRAME + 1);
        assert!(matches!(
            read_frame(&mut huge.as_slice()),
            Err(CodecError::Oversized { .. })
        ));
    }

    #[test]
    fn checked_frames_round_trip_and_plain_mode_matches_classic() {
        // An exempt frame is byte-identical to write_frame; a checksummed
        // one is write_frame's bytes plus the 4-byte word.
        for (tag, extra) in [(HELLO, 0), (EVENTS, 4)] {
            let mut plain = Vec::new();
            write_frame(&mut plain, tag, b"abc").unwrap();
            let mut fw = FrameWriter::new(Vec::new());
            fw.write(tag, b"abc").unwrap();
            let framed = fw.get_mut().as_slice();
            assert_eq!(framed.len(), plain.len() + extra, "tag {tag}");
            assert_eq!(&framed[..plain.len()], plain.as_slice(), "tag {tag}");
        }

        // Checked frames round-trip through a reader.
        let mut fw = FrameWriter::new(Vec::new());
        fw.write(EVENTS, b"abc").unwrap();
        fw.write(END, b"").unwrap();
        let buf = std::mem::take(fw.get_mut());
        let mut fr = FrameReader::new(buf.as_slice());
        assert_eq!(fr.read().unwrap(), Some((EVENTS, b"abc".to_vec())));
        assert_eq!(fr.read().unwrap(), Some((END, Vec::new())));
        assert_eq!(fr.read().unwrap(), None);
    }

    #[test]
    fn checked_reader_detects_corruption_duplication_and_truncation() {
        let mut fw = FrameWriter::new(Vec::new());
        fw.write(EVENTS, b"payload").unwrap();
        let good = std::mem::take(fw.get_mut());

        // Flip one payload byte: checksum mismatch.
        let mut bad = good.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x40;
        let mut fr = FrameReader::new(bad.as_slice());
        // `expected` is the word the frame carries, `found` the sum of
        // the damaged payload (after the tag and the 1-byte length).
        let stored = u32::from_le_bytes(bad[bad.len() - 4..].try_into().unwrap());
        let computed = frame_checksum(EVENTS, 0, &bad[2..bad.len() - 4]);
        match fr.read() {
            Err(CodecError::ChecksumMismatch { expected, found }) => {
                assert_eq!(expected, u64::from(stored), "expected is the stored word");
                assert_eq!(found, u64::from(computed), "found is recomputed");
            }
            other => panic!("expected a checksum mismatch, got {other:?}"),
        }

        // Duplicate the frame verbatim: the second copy carries the
        // index-0 checksum where index 1 is expected — the delta codec
        // would have decoded it into plausible garbage, the index binding
        // refuses it instead.
        let mut dup = good.clone();
        dup.extend_from_slice(&good);
        let mut fr = FrameReader::new(dup.as_slice());
        assert!(fr.read().unwrap().is_some());
        assert!(matches!(
            fr.read(),
            Err(CodecError::ChecksumMismatch { .. })
        ));

        // Cut the checksum word short: clean truncation error.
        let cut = &good[..good.len() - 2];
        let mut fr = FrameReader::new(cut);
        assert!(matches!(fr.read(), Err(CodecError::Truncated(_))));
    }

    #[test]
    fn error_and_busy_frames_are_checksum_exempt() {
        let mut fw = FrameWriter::new(Vec::new());
        fw.write(ERROR, b"nope").unwrap();
        fw.write(BUSY, b"shed").unwrap();
        fw.write(SESSION, b"id").unwrap();
        fw.write(HELLO, b"cfg").unwrap();
        fw.write(ALARMS, b"x").unwrap();
        let buf = std::mem::take(fw.get_mut());

        // The exempt frames parse with a *plain* reader…
        let mut plain = buf.as_slice();
        for (tag, payload) in [
            (ERROR, &b"nope"[..]),
            (BUSY, b"shed"),
            (SESSION, b"id"),
            (HELLO, b"cfg"),
        ] {
            assert_eq!(
                read_frame(&mut plain).unwrap(),
                Some((tag, payload.to_vec()))
            );
        }

        // …and a checked reader sees all five, with ALARMS carrying
        // frame index 0 (exempt frames do not advance the index).
        let mut fr = FrameReader::new(buf.as_slice());
        assert_eq!(fr.read().unwrap(), Some((ERROR, b"nope".to_vec())));
        assert_eq!(fr.read().unwrap(), Some((BUSY, b"shed".to_vec())));
        assert_eq!(fr.read().unwrap(), Some((SESSION, b"id".to_vec())));
        assert_eq!(fr.read().unwrap(), Some((HELLO, b"cfg".to_vec())));
        assert_eq!(fr.read().unwrap(), Some((ALARMS, b"x".to_vec())));
        assert_eq!(fr.read().unwrap(), None);
    }
}
