//! The `fireguard-serve` wire protocol: framed messages over TCP.
//!
//! Every message is one **frame**: a 1-byte tag, a varint payload length,
//! and the payload. Client→server tags are [`HELLO`], [`EVENTS`] and
//! [`END`]; server→client tags are [`ALARMS`], [`SUMMARY`] and [`ERROR`].
//!
//! | frame   | direction | payload                                          |
//! |---------|-----------|--------------------------------------------------|
//! | HELLO   | c → s     | protocol version + [`SessionConfig`]             |
//! | EVENTS  | c → s     | an [`EventEncoder`] batch (`varint count ‖ events`) |
//! | END     | c → s     | empty — the commit stream is complete            |
//! | ALARMS  | s → c     | a batch of [`Detection`]s raised since the last   |
//! | SUMMARY | s → c     | the session's final [`Summary`]                  |
//! | ERROR   | s → c     | a UTF-8 message; the session is over             |
//!
//! Event payloads are byte-identical to the batches inside a `.fgt` file
//! (both sides keep a stateful [`EventEncoder`]/`EventDecoder` pair per
//! session), so a recorded trace streams to a live service without
//! re-encoding. All decode failures are [`CodecError`]s — a hostile or
//! broken peer can never panic the service.
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

/// Protocol version 1: the original HELLO (no capability field, verdict
/// nibble semantics — at most [`V1_MAX_KERNELS`] kernels per session).
pub const PROTO_V1: u64 = 1;
/// Protocol version 2: HELLO carries a capability uvarint after the
/// version; sessions may request packet-layout-v2 features.
pub const PROTO_V2: u64 = 2;
/// The newest protocol version this build speaks. A client only *emits*
/// v2 when its config needs a v2 capability; v2 is negotiated, never
/// assumed, so v1 peers interoperate unchanged.
pub const PROTO_VERSION: u64 = PROTO_V2;
/// Capability bit (v2 HELLO): the session uses the layout-v2 8-bit
/// verdict field, lifting the kernel ceiling from [`V1_MAX_KERNELS`] to
/// [`fireguard_soc::MAX_KERNELS`].
pub const CAP_WIDE_VERDICT: u64 = 1 << 0;
/// The v1 kernel ceiling (the packet layout v1 verdict nibble). A HELLO
/// naming more kernels must negotiate [`CAP_WIDE_VERDICT`] via v2.
pub const V1_MAX_KERNELS: usize = 4;
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
/// Server→client: the final session summary.
pub const SUMMARY: u8 = 17;
/// Server→client: a fatal session error (UTF-8 message payload).
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

/// Capability bit (v2 HELLO): every post-handshake frame in **both**
/// directions carries a trailing 4-byte FNV-1a-32 checksum over
/// `tag ‖ LE64 frame-index ‖ payload`, where the frame index counts
/// checksummed frames per direction from 0 on each connection. Binding the
/// index detects duplication, reordering and silent frame loss as well as
/// payload corruption — essential for the stateful event delta codec, where
/// a replayed EVENTS frame would otherwise decode into plausible garbage.
/// ERROR and BUSY frames are exempt (they can precede or outlive the
/// negotiated session) and do not advance the index.
pub const CAP_FRAME_CHECKSUM: u64 = 1 << 1;

/// ERROR payloads with this prefix mark a *transport* failure between a
/// router and its backend (the stream died mid-session), as opposed to a
/// semantic refusal. The router treats them as retryable: it discards the
/// incarnation and fails the session over instead of surfacing the error.
pub const RETRYABLE_ERROR_PREFIX: &str = "stream error: ";

/// Writes one frame (`tag ‖ varint len ‖ payload`).
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

/// Reads one frame; `Ok(None)` on clean EOF at a frame boundary.
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

// ---- checked framing (CAP_FRAME_CHECKSUM) -----------------------------------

// FNV-1a-32 over `tag ‖ LE64 frame-index ‖ payload` — the per-frame
// integrity word appended after the payload when CAP_FRAME_CHECKSUM is
// negotiated.
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

// ERROR and BUSY frames are never checksummed: they can be emitted before
// the HELLO that negotiates the capability (ticket refusals, admission
// shedding) and after a session's framing state is already torn down.
fn checksum_exempt(tag: u8) -> bool {
    tag == ERROR || tag == BUSY
}

/// A per-connection framed writer. In *checked* mode (negotiated via
/// [`CAP_FRAME_CHECKSUM`]) every non-exempt frame carries a trailing
/// 4-byte index-bound checksum; in plain mode it writes classic
/// `tag ‖ varint len ‖ payload` frames, byte-identical to [`write_frame`].
#[derive(Debug)]
pub struct FrameWriter<W: Write> {
    w: W,
    checked: bool,
    index: u64,
}

impl<W: Write> FrameWriter<W> {
    /// Wraps `w`; `checked` selects checksummed framing.
    pub fn new(w: W, checked: bool) -> Self {
        FrameWriter {
            w,
            checked,
            index: 0,
        }
    }

    /// Switches checksummed framing on/off (used right after the
    /// handshake frames, which always travel plain).
    pub fn set_checked(&mut self, on: bool) {
        self.checked = on;
    }

    /// Writes one frame under the connection's negotiated framing.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    pub fn write(&mut self, tag: u8, payload: &[u8]) -> io::Result<()> {
        if !self.checked || checksum_exempt(tag) {
            return write_frame(&mut self.w, tag, payload);
        }
        let sum = frame_checksum(tag, self.index, payload);
        let mut head = vec![tag];
        put_uvarint(&mut head, payload.len() as u64);
        self.w.write_all(&head)?;
        self.w.write_all(payload)?;
        self.w.write_all(&sum.to_le_bytes())?;
        self.index += 1;
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

/// A per-connection framed reader; the dual of [`FrameWriter`]. In checked
/// mode it verifies the trailing index-bound checksum of every non-exempt
/// frame and fails with [`CodecError::ChecksumMismatch`] on any corruption,
/// duplication, reordering or truncation the wire introduced.
#[derive(Debug)]
pub struct FrameReader<R: Read> {
    r: R,
    checked: bool,
    index: u64,
}

impl<R: Read> FrameReader<R> {
    /// Wraps `r`; `checked` selects checksummed framing.
    pub fn new(r: R, checked: bool) -> Self {
        FrameReader {
            r,
            checked,
            index: 0,
        }
    }

    /// Switches checksum verification on/off (used right after the
    /// handshake frames, which always travel plain).
    pub fn set_checked(&mut self, on: bool) {
        self.checked = on;
    }

    /// Reads one frame; `Ok(None)` on clean EOF at a frame boundary.
    ///
    /// # Errors
    ///
    /// Everything [`read_frame`] can return, plus
    /// [`CodecError::ChecksumMismatch`] when a checked frame fails
    /// verification and [`CodecError::Truncated`] when the checksum word
    /// itself is cut short.
    pub fn read(&mut self) -> Result<Option<(u8, Vec<u8>)>, CodecError> {
        let Some((tag, payload)) = read_frame(&mut self.r)? else {
            return Ok(None);
        };
        if !self.checked || checksum_exempt(tag) {
            return Ok(Some((tag, payload)));
        }
        let mut sum = [0u8; 4];
        self.r
            .read_exact(&mut sum)
            .map_err(|_| CodecError::Truncated("frame checksum"))?;
        let found = u32::from_le_bytes(sum);
        let expected = frame_checksum(tag, self.index, &payload);
        if found != expected {
            return Err(CodecError::ChecksumMismatch {
                expected: u64::from(expected),
                found: u64::from(found),
            });
        }
        self.index += 1;
        Ok(Some((tag, payload)))
    }

    /// The underlying reader.
    pub fn get_mut(&mut self) -> &mut R {
        &mut self.r
    }
}

/// Peeks the capability bits out of a HELLO payload without fully decoding
/// it (tolerant: any malformation reads as "no capabilities"). The router
/// uses this to pick the framing discipline for each leg while forwarding
/// the HELLO bytes verbatim, so backends negotiate identically.
pub fn hello_caps(payload: &[u8]) -> u64 {
    let mut cur = Cursor::new(payload);
    match cur.uvarint("hello version") {
        Ok(v) if v >= PROTO_V2 => cur.uvarint("hello caps").unwrap_or(0),
        _ => 0,
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

/// The per-session experiment negotiation carried by the HELLO frame: the
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

    /// The protocol version this config goes on the wire as: [`PROTO_V1`]
    /// whenever the session fits v1 semantics (so the bytes stay identical
    /// to what historical encoders produced), [`PROTO_V2`] only when a v2
    /// capability is actually needed. v2 is negotiated, never assumed.
    pub fn wire_version(&self) -> u64 {
        if self.kernels.len() > V1_MAX_KERNELS {
            PROTO_V2
        } else {
            PROTO_V1
        }
    }

    /// The capability bits a v2 HELLO for this config carries.
    pub fn caps(&self) -> u64 {
        if self.kernels.len() > V1_MAX_KERNELS {
            CAP_WIDE_VERDICT
        } else {
            0
        }
    }

    /// Encodes the HELLO payload (including the protocol version; a v2
    /// HELLO additionally carries the capability bits right after it).
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
        let version = self.wire_version();
        put_uvarint(&mut b, version);
        if version >= PROTO_V2 {
            put_uvarint(&mut b, self.caps());
        }
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

    /// Encodes the HELLO payload with `extra` capability bits OR-ed into
    /// the negotiated set. Any extra bit forces a v2 HELLO (capabilities
    /// only exist in v2); `encode_with_caps(0)` is byte-identical to
    /// [`encode`](Self::encode), so historical v1 wire bytes never move.
    ///
    /// # Errors
    ///
    /// The [`validate`](Self::validate) refusal reason.
    pub fn encode_with_caps(&self, extra: u64) -> Result<Vec<u8>, String> {
        if extra == 0 {
            return self.encode();
        }
        self.validate()?;
        let mut b = Vec::new();
        put_uvarint(&mut b, PROTO_V2);
        put_uvarint(&mut b, self.caps() | extra);
        let tail = self.encode()?;
        let skip = if self.wire_version() >= PROTO_V2 {
            2
        } else {
            1
        };
        b.extend_from_slice(&tail[skip..]);
        Ok(b)
    }

    /// Decodes a HELLO payload (v1 or v2).
    ///
    /// A v1 HELLO implies an empty capability set; a v2 HELLO carries its
    /// capability bits after the version (unknown bits are ignored for
    /// forward compatibility). Either way, a session naming more than
    /// [`V1_MAX_KERNELS`] kernels without [`CAP_WIDE_VERDICT`] negotiated
    /// is refused — a v1 peer can never be handed 8-bit verdict state it
    /// does not understand.
    ///
    /// # Errors
    ///
    /// [`CodecError::UnsupportedVersion`] for a future protocol, or any
    /// structural decode failure.
    pub fn decode(payload: &[u8]) -> Result<Self, CodecError> {
        let mut cur = Cursor::new(payload);
        let version = cur.uvarint("hello version")?;
        if version != PROTO_V1 && version != PROTO_V2 {
            return Err(CodecError::UnsupportedVersion(version));
        }
        let caps = if version >= PROTO_V2 {
            cur.uvarint("hello caps")?
        } else {
            0
        };
        let workload = cur.string(1024, "hello workload")?;
        let seed = cur.uvarint("hello seed")?;
        let insts = cur.uvarint("hello insts")?;
        let baseline_cycles = cur.uvarint("hello baseline")?;
        let n_kernels = cur.u8("hello kernel count")?;
        if n_kernels as usize > MAX_KERNELS {
            return Err(CodecError::Corrupt("implausible kernel count"));
        }
        if n_kernels as usize > V1_MAX_KERNELS && caps & CAP_WIDE_VERDICT == 0 {
            return Err(CodecError::Corrupt("wide verdict not negotiated"));
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

    /// All six registered kernels, one µcore each — a layout-v2 session
    /// that can only travel as a v2 HELLO.
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
        let cfg = sample_config();
        assert_eq!(SessionConfig::decode(&cfg.encode().unwrap()).unwrap(), cfg);
        cfg.validate().expect("sample config is valid");
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

        // A byte-level HELLO fixture: version 1, workload "x", seed 0,
        // insts 1, baseline 0, one kernel (id byte ‖ 4 µcores), hybrid
        // model, filter width 4, MA-stage ISAX, mapper width 1. Each paper
        // kernel id must decode from these exact bytes.
        for &(wire, _) in expected {
            let payload: Vec<u8> = vec![
                1, // protocol version
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
            // a ≤4-kernel session re-encodes as byte-identical v1.
            assert_eq!(cfg.encode().unwrap(), payload, "v1 HELLO bytes moved");
            assert_eq!(cfg.encode().unwrap()[7], wire, "kernel id byte moved");
        }

        // The same fixture with an unregistered id byte fails cleanly.
        let mut bad: Vec<u8> = vec![1, 1, b'x', 0, 1, 0, 1, 99, 4, 3, 4, 0, 1];
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
        let mut future = sample_config().encode().unwrap();
        future[0] = 9; // protocol version 9
        assert!(matches!(
            SessionConfig::decode(&future),
            Err(CodecError::UnsupportedVersion(9))
        ));
    }

    /// The v1↔v2 negotiation matrix: small sessions stay v1 on the wire,
    /// wide sessions carry the capability bit, and a wide session that
    /// *didn't* negotiate it is refused.
    #[test]
    fn wide_sessions_negotiate_v2() {
        // ≤4 kernels: v1 on the wire, no caps field.
        let small = sample_config();
        assert_eq!(small.wire_version(), PROTO_V1);
        assert_eq!(small.caps(), 0);
        assert_eq!(small.encode().unwrap()[0], PROTO_V1 as u8);

        // >4 kernels: v2 + CAP_WIDE_VERDICT, and it round-trips.
        let wide = wide_config();
        assert_eq!(wide.kernels.len(), 6, "all registered kernels");
        assert_eq!(wide.wire_version(), PROTO_V2);
        assert_eq!(wide.caps(), CAP_WIDE_VERDICT);
        let bytes = wide.encode().unwrap();
        assert_eq!(bytes[0], PROTO_V2 as u8);
        assert_eq!(bytes[1] as u64, CAP_WIDE_VERDICT);
        assert_eq!(SessionConfig::decode(&bytes).unwrap(), wide);
    }

    #[test]
    fn wide_session_without_negotiated_cap_is_refused() {
        // A v2 HELLO whose caps field lacks CAP_WIDE_VERDICT but names
        // more than four kernels: refused, never silently accepted.
        let mut bytes = wide_config().encode().unwrap();
        assert_eq!(bytes[1] as u64, CAP_WIDE_VERDICT);
        bytes[1] = 0;
        assert!(matches!(
            SessionConfig::decode(&bytes),
            Err(CodecError::Corrupt("wide verdict not negotiated"))
        ));

        // A hand-built *v1* HELLO naming five kernels (caps implicitly
        // empty) is refused the same way — a v1 peer cannot smuggle a
        // wide session in.
        let mut v1: Vec<u8> = vec![1, 1, b'x', 0, 1, 0, 5];
        for wire in 0..5u8 {
            v1.push(wire); // kernel id
            v1.push(1); // one µcore
        }
        v1.extend_from_slice(&[3, 4, 0, 1]); // model, filter, isax, mapper
        assert!(matches!(
            SessionConfig::decode(&v1),
            Err(CodecError::Corrupt("wide verdict not negotiated"))
        ));
    }

    #[test]
    fn unknown_v2_capability_bits_are_ignored() {
        // Forward compatibility: a future client may set bits we don't
        // know; the session still decodes on this build.
        let wide = wide_config();
        let mut bytes = wide.encode().unwrap();
        bytes[1] = (CAP_WIDE_VERDICT | (1 << 3)) as u8;
        assert_eq!(SessionConfig::decode(&bytes).unwrap(), wide);
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
        // Plain mode: byte-identical to write_frame.
        let mut plain = Vec::new();
        write_frame(&mut plain, EVENTS, b"abc").unwrap();
        let mut fw = FrameWriter::new(Vec::new(), false);
        fw.write(EVENTS, b"abc").unwrap();
        assert_eq!(fw.get_mut().as_slice(), plain.as_slice());

        // Checked mode round-trips through a checked reader.
        let mut fw = FrameWriter::new(Vec::new(), true);
        fw.write(EVENTS, b"abc").unwrap();
        fw.write(END, b"").unwrap();
        let buf = std::mem::take(fw.get_mut());
        let mut fr = FrameReader::new(buf.as_slice(), true);
        assert_eq!(fr.read().unwrap(), Some((EVENTS, b"abc".to_vec())));
        assert_eq!(fr.read().unwrap(), Some((END, Vec::new())));
        assert_eq!(fr.read().unwrap(), None);
    }

    #[test]
    fn checked_reader_detects_corruption_duplication_and_truncation() {
        let mut fw = FrameWriter::new(Vec::new(), true);
        fw.write(EVENTS, b"payload").unwrap();
        let good = std::mem::take(fw.get_mut());

        // Flip one payload byte: checksum mismatch.
        let mut bad = good.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x40;
        let mut fr = FrameReader::new(bad.as_slice(), true);
        assert!(matches!(
            fr.read(),
            Err(CodecError::ChecksumMismatch { .. })
        ));

        // Duplicate the frame verbatim: the second copy carries the
        // index-0 checksum where index 1 is expected — the delta codec
        // would have decoded it into plausible garbage, the index binding
        // refuses it instead.
        let mut dup = good.clone();
        dup.extend_from_slice(&good);
        let mut fr = FrameReader::new(dup.as_slice(), true);
        assert!(fr.read().unwrap().is_some());
        assert!(matches!(
            fr.read(),
            Err(CodecError::ChecksumMismatch { .. })
        ));

        // Cut the checksum word short: clean truncation error.
        let cut = &good[..good.len() - 2];
        let mut fr = FrameReader::new(cut, true);
        assert!(matches!(fr.read(), Err(CodecError::Truncated(_))));
    }

    #[test]
    fn error_and_busy_frames_are_checksum_exempt() {
        let mut fw = FrameWriter::new(Vec::new(), true);
        fw.write(ERROR, b"nope").unwrap();
        fw.write(BUSY, b"shed").unwrap();
        fw.write(ALARMS, b"x").unwrap();
        let buf = std::mem::take(fw.get_mut());

        // The exempt frames parse with a *plain* reader…
        let mut plain = buf.as_slice();
        assert_eq!(
            read_frame(&mut plain).unwrap(),
            Some((ERROR, b"nope".to_vec()))
        );
        assert_eq!(
            read_frame(&mut plain).unwrap(),
            Some((BUSY, b"shed".to_vec()))
        );

        // …and a checked reader sees all three, with ALARMS carrying
        // frame index 0 (exempt frames do not advance the index).
        let mut fr = FrameReader::new(buf.as_slice(), true);
        assert_eq!(fr.read().unwrap(), Some((ERROR, b"nope".to_vec())));
        assert_eq!(fr.read().unwrap(), Some((BUSY, b"shed".to_vec())));
        assert_eq!(fr.read().unwrap(), Some((ALARMS, b"x".to_vec())));
    }

    #[test]
    fn hello_caps_peeks_without_decoding() {
        let small = sample_config();
        assert_eq!(hello_caps(&small.encode().unwrap()), 0);
        let wide = wide_config();
        assert_eq!(hello_caps(&wide.encode().unwrap()), CAP_WIDE_VERDICT);
        let checked = small.encode_with_caps(CAP_FRAME_CHECKSUM).unwrap();
        assert_eq!(hello_caps(&checked), CAP_FRAME_CHECKSUM);
        // Tolerant on garbage: no capabilities, never an error.
        assert_eq!(hello_caps(&[]), 0);
        assert_eq!(hello_caps(&[0xFF]), 0);
    }

    #[test]
    fn encode_with_caps_forces_v2_and_preserves_the_config() {
        let small = sample_config();
        // Zero extra caps: byte-identical to the classic encoding.
        assert_eq!(small.encode_with_caps(0).unwrap(), small.encode().unwrap());
        // An extra cap forces v2; the config still round-trips (the
        // checksum bit is unknown to decode() and ignored).
        let bytes = small.encode_with_caps(CAP_FRAME_CHECKSUM).unwrap();
        assert_eq!(bytes[0] as u64, PROTO_V2);
        assert_eq!(bytes[1] as u64, CAP_FRAME_CHECKSUM);
        assert_eq!(SessionConfig::decode(&bytes).unwrap(), small);
        // A wide config keeps its own caps alongside the extra one.
        let wide = wide_config();
        let bytes = wide.encode_with_caps(CAP_FRAME_CHECKSUM).unwrap();
        assert_eq!(bytes[1] as u64, CAP_WIDE_VERDICT | CAP_FRAME_CHECKSUM);
        assert_eq!(SessionConfig::decode(&bytes).unwrap(), wide);
    }
}
