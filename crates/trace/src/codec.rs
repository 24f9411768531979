//! The `.fgt` binary trace codec: a versioned, length-prefixed wire format
//! for [`TraceInst`] streams.
//!
//! FireGuard's premise is *online* analysis: commit events stream off the
//! fast core into the guardian engines. This module makes that stream a
//! first-class artifact — any workload×attack profile can be captured once
//! (`fireguard trace record`), stored compactly, and replayed forever
//! (`fireguard trace replay`, `fireguard client`) with bit-exact results.
//!
//! # Wire format
//!
//! Every multi-byte integer is a LEB128 **varint**; signed quantities are
//! zigzag-mapped first. Per event the encoder emits:
//!
//! | field        | encoding                                            |
//! |--------------|-----------------------------------------------------|
//! | flags        | 1 byte (presence bits + attack kind, see below)     |
//! | seq          | varint delta from the expected next sequence number |
//! | pc           | zigzag varint delta from the previous event's PC    |
//! | inst         | 4 bytes little-endian (raw RV64 encoding)           |
//! | mem_addr     | zigzag varint delta from the previous memory address|
//! | ctrl target  | zigzag varint delta from this event's PC            |
//! | ctrl site id | varint                                              |
//! | heap base    | zigzag varint delta from the previous heap base     |
//! | heap size    | varint                                              |
//!
//! Optional fields appear only when their flag bit is set. The flags byte:
//! bit 0 = has memory address, bit 1 = has control flow, bit 2 = control
//! taken, bit 3 = has heap event, bit 4 = heap event is a free, bits 5–7 =
//! attack ground truth (0 = none, 1–4 = the [`AttackGroundTruth`] kinds).
//! The instruction *class* is never serialized: it is recomputed from the
//! raw encoding on decode, which keeps the two fields consistent by
//! construction.
//!
//! Events travel in **length-prefixed batches** (`varint len ‖ varint
//! count ‖ events`). Every batch starts from a fresh prediction context,
//! so a payload decodes on its own: a recorded batch is a valid `EVENTS`
//! frame body of the `fireguard-server` wire protocol at any point of any
//! connection, and a router can journal, forward and replay a client's
//! batch exactly as it arrived.
//!
//! # Container layout (`.fgt` files)
//!
//! ```text
//! magic  "FGT1"
//! u8     container version (2)
//! varint header length, then the header:
//!          varint workload-name length ‖ UTF-8 name
//!          varint seed ‖ varint insts ‖ varint baseline_cycles
//!          varint event count
//! batches: (varint payload length > 0 ‖ payload)*
//! end:     varint 0
//! u64le  FNV-1a checksum over all batch payloads
//! ```
//!
//! Decoding is total: truncated input, bad magic/version, impossible flag
//! combinations, oversized batches, count mismatches and checksum failures
//! all surface as [`CodecError`]s, never panics.

use crate::event::{AttackGroundTruth, ControlFlow, HeapEvent, TraceInst};
use fireguard_isa::Instruction;
use std::io::{self, Read, Write};

/// File magic for `.fgt` trace containers.
pub const MAGIC: [u8; 4] = *b"FGT1";
/// Current container version. Version 1 carried the prediction context
/// from one batch into the next, so its batches do not decode alone.
pub const VERSION: u8 = 2;
/// Events per batch written by [`write_trace`].
pub const BATCH_EVENTS: usize = 4096;
/// Upper bound on the event count any single batch may declare; decoders
/// reject larger counts before allocating (a hostile-input guard).
pub const MAX_BATCH_EVENTS: u64 = 65_536;
/// Upper bound on any length prefix a decoder will follow (4 MiB).
pub const MAX_SECTION_BYTES: u64 = 1 << 22;
/// The fewest bytes one encoded event can take: flags, a one-byte seq
/// varint, a one-byte pc varint and the 4-byte instruction word.
const MIN_EVENT_BYTES: usize = 7;

const F_MEM: u8 = 1 << 0;
const F_CTRL: u8 = 1 << 1;
const F_TAKEN: u8 = 1 << 2;
const F_HEAP: u8 = 1 << 3;
const F_HEAP_FREE: u8 = 1 << 4;
const ATTACK_SHIFT: u8 = 5;

/// Everything that can go wrong while decoding a trace or a wire frame.
#[derive(Debug)]
pub enum CodecError {
    /// An underlying I/O failure.
    Io(io::Error),
    /// The input does not start with [`MAGIC`].
    BadMagic,
    /// The container/protocol version is not supported.
    UnsupportedVersion(u64),
    /// The input ended inside the named structure.
    Truncated(&'static str),
    /// A structurally impossible value was decoded.
    Corrupt(&'static str),
    /// A length or count prefix exceeds its hard bound.
    Oversized {
        /// What carried the oversized prefix.
        what: &'static str,
        /// The declared value.
        len: u64,
        /// The enforced maximum.
        max: u64,
    },
    /// The header-declared event count does not match the stream.
    CountMismatch {
        /// Count declared by the header.
        expected: u64,
        /// Events actually present.
        found: u64,
    },
    /// A stored FNV-1a checksum does not match the data it covers.
    ChecksumMismatch {
        /// Checksum stored in the file or frame.
        expected: u64,
        /// Checksum recomputed from the data.
        found: u64,
    },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Io(e) => write!(f, "i/o error: {e}"),
            CodecError::BadMagic => write!(f, "not a FireGuard trace (bad magic)"),
            CodecError::UnsupportedVersion(v) => write!(f, "unsupported format version {v}"),
            CodecError::Truncated(what) => write!(f, "truncated input inside {what}"),
            CodecError::Corrupt(what) => write!(f, "corrupt input: {what}"),
            CodecError::Oversized { what, len, max } => {
                write!(f, "{what} declares {len} bytes/entries (max {max})")
            }
            CodecError::CountMismatch { expected, found } => {
                write!(f, "header declares {expected} events, stream holds {found}")
            }
            CodecError::ChecksumMismatch { expected, found } => {
                write!(
                    f,
                    "checksum mismatch: stored {expected:#018x}, computed {found:#018x}"
                )
            }
        }
    }
}

impl std::error::Error for CodecError {}

impl From<io::Error> for CodecError {
    fn from(e: io::Error) -> Self {
        CodecError::Io(e)
    }
}

// ---- varint primitives -----------------------------------------------------

/// Appends `v` as a LEB128 varint.
pub fn put_uvarint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Appends `v` zigzag-mapped as a varint.
pub fn put_ivarint(buf: &mut Vec<u8>, v: i64) {
    put_uvarint(buf, ((v << 1) ^ (v >> 63)) as u64);
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Reads one LEB128 varint from `r` (at most 10 bytes).
///
/// # Errors
///
/// [`CodecError::Truncated`] if the input ends mid-varint,
/// [`CodecError::Corrupt`] if the varint overruns 64 bits.
pub fn read_uvarint<R: Read>(r: &mut R) -> Result<u64, CodecError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let mut byte = [0u8; 1];
        r.read_exact(&mut byte)
            .map_err(|_| CodecError::Truncated("varint"))?;
        let b = byte[0];
        if shift == 63 && b > 1 {
            return Err(CodecError::Corrupt("varint exceeds 64 bits"));
        }
        v |= u64::from(b & 0x7F) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(CodecError::Corrupt("varint exceeds 64 bits"));
        }
    }
}

/// A bounds-checked read cursor over an in-memory payload.
#[derive(Debug)]
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Wraps `buf` with the cursor at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Reads `n` raw bytes.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] if fewer than `n` bytes remain.
    pub fn bytes(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated(what));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] on empty input.
    pub fn u8(&mut self, what: &'static str) -> Result<u8, CodecError> {
        Ok(self.bytes(1, what)?[0])
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] if fewer than four bytes remain.
    pub fn u32le(&mut self, what: &'static str) -> Result<u32, CodecError> {
        let b = self.bytes(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] if fewer than eight bytes remain.
    pub fn u64le(&mut self, what: &'static str) -> Result<u64, CodecError> {
        let b = self.bytes(8, what)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a varint.
    ///
    /// # Errors
    ///
    /// Propagates [`read_uvarint`] failures.
    pub fn uvarint(&mut self, what: &'static str) -> Result<u64, CodecError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.u8(what)?;
            if shift == 63 && b > 1 {
                return Err(CodecError::Corrupt("varint exceeds 64 bits"));
            }
            v |= u64::from(b & 0x7F) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err(CodecError::Corrupt("varint exceeds 64 bits"));
            }
        }
    }

    /// Reads a zigzag varint.
    ///
    /// # Errors
    ///
    /// Propagates [`Cursor::uvarint`] failures.
    pub fn ivarint(&mut self, what: &'static str) -> Result<i64, CodecError> {
        Ok(unzigzag(self.uvarint(what)?))
    }

    /// Reads a varint-length-prefixed UTF-8 string, at most `max` bytes.
    ///
    /// # Errors
    ///
    /// [`CodecError::Oversized`] beyond `max`, [`CodecError::Corrupt`] on
    /// invalid UTF-8, [`CodecError::Truncated`] on short input.
    pub fn string(&mut self, max: u64, what: &'static str) -> Result<String, CodecError> {
        let len = self.uvarint(what)?;
        if len > max {
            return Err(CodecError::Oversized { what, len, max });
        }
        let bytes = self.bytes(len as usize, what)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::Corrupt("invalid UTF-8 string"))
    }
}

/// Appends a varint-length-prefixed UTF-8 string.
pub fn put_string(buf: &mut Vec<u8>, s: &str) {
    put_uvarint(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

// ---- event codec -----------------------------------------------------------

fn attack_bits(a: Option<AttackGroundTruth>) -> u8 {
    match a {
        None => 0,
        Some(AttackGroundTruth::RetHijack) => 1,
        Some(AttackGroundTruth::OutOfBounds) => 2,
        Some(AttackGroundTruth::UseAfterFree) => 3,
        Some(AttackGroundTruth::BoundsViolation) => 4,
    }
}

fn attack_from_bits(bits: u8) -> Result<Option<AttackGroundTruth>, CodecError> {
    Ok(match bits {
        0 => None,
        1 => Some(AttackGroundTruth::RetHijack),
        2 => Some(AttackGroundTruth::OutOfBounds),
        3 => Some(AttackGroundTruth::UseAfterFree),
        4 => Some(AttackGroundTruth::BoundsViolation),
        _ => return Err(CodecError::Corrupt("unknown attack kind")),
    })
}

/// Event encoder: holds the delta-prediction context (expected next
/// sequence number, previous PC / memory address / heap base) within one
/// batch. [`encode_batch`](Self::encode_batch) resets it first, so every
/// payload decodes alone, with any [`EventDecoder`].
#[derive(Debug, Clone, Default)]
pub struct EventEncoder {
    next_seq: u64,
    prev_pc: u64,
    prev_mem: u64,
    prev_heap: u64,
}

impl EventEncoder {
    /// A fresh encoder (all prediction context zero).
    pub fn new() -> Self {
        Self::default()
    }

    fn encode_into(&mut self, buf: &mut Vec<u8>, t: &TraceInst) {
        let mut flags = 0u8;
        if t.mem_addr.is_some() {
            flags |= F_MEM;
        }
        if let Some(cf) = t.control {
            flags |= F_CTRL;
            if cf.taken {
                flags |= F_TAKEN;
            }
        }
        match t.heap {
            Some(HeapEvent::Malloc { .. }) => flags |= F_HEAP,
            Some(HeapEvent::Free { .. }) => flags |= F_HEAP | F_HEAP_FREE,
            None => {}
        }
        flags |= attack_bits(t.attack) << ATTACK_SHIFT;
        buf.push(flags);
        put_uvarint(buf, t.seq.wrapping_sub(self.next_seq));
        self.next_seq = t.seq.wrapping_add(1);
        put_ivarint(buf, (t.pc as i64).wrapping_sub(self.prev_pc as i64));
        self.prev_pc = t.pc;
        buf.extend_from_slice(&t.inst.raw().to_le_bytes());
        if let Some(addr) = t.mem_addr {
            put_ivarint(buf, (addr as i64).wrapping_sub(self.prev_mem as i64));
            self.prev_mem = addr;
        }
        if let Some(cf) = t.control {
            put_ivarint(buf, (cf.target as i64).wrapping_sub(t.pc as i64));
            put_uvarint(buf, u64::from(cf.static_id));
        }
        match t.heap {
            Some(HeapEvent::Malloc { base, size }) | Some(HeapEvent::Free { base, size }) => {
                put_ivarint(buf, (base as i64).wrapping_sub(self.prev_heap as i64));
                self.prev_heap = base;
                put_uvarint(buf, size);
            }
            None => {}
        }
    }

    /// Encodes `events` as one self-contained batch payload (`varint
    /// count ‖ events`), predicted from a fresh context.
    pub fn encode_batch(&mut self, events: &[TraceInst]) -> Vec<u8> {
        *self = Self::default();
        let mut buf = Vec::with_capacity(events.len() * 12 + 4);
        put_uvarint(&mut buf, events.len() as u64);
        for t in events {
            self.encode_into(&mut buf, t);
        }
        buf
    }
}

/// Event decoder, the mirror of [`EventEncoder`]: each batch decodes
/// from a fresh context.
#[derive(Debug, Clone, Default)]
pub struct EventDecoder {
    next_seq: u64,
    prev_pc: u64,
    prev_mem: u64,
    prev_heap: u64,
}

impl EventDecoder {
    /// A fresh decoder (all prediction context zero).
    pub fn new() -> Self {
        Self::default()
    }

    fn decode_from(&mut self, cur: &mut Cursor<'_>) -> Result<TraceInst, CodecError> {
        let flags = cur.u8("event flags")?;
        if flags & F_TAKEN != 0 && flags & F_CTRL == 0 {
            return Err(CodecError::Corrupt("taken bit without control flow"));
        }
        if flags & F_HEAP_FREE != 0 && flags & F_HEAP == 0 {
            return Err(CodecError::Corrupt("free bit without heap event"));
        }
        let attack = attack_from_bits(flags >> ATTACK_SHIFT)?;
        let seq = self.next_seq.wrapping_add(cur.uvarint("event seq")?);
        self.next_seq = seq.wrapping_add(1);
        let pc = (self.prev_pc as i64).wrapping_add(cur.ivarint("event pc")?) as u64;
        self.prev_pc = pc;
        let inst = Instruction::from_raw(cur.u32le("event inst")?);
        let mem_addr = if flags & F_MEM != 0 {
            let addr = (self.prev_mem as i64).wrapping_add(cur.ivarint("event mem addr")?) as u64;
            self.prev_mem = addr;
            Some(addr)
        } else {
            None
        };
        let control = if flags & F_CTRL != 0 {
            let target = (pc as i64).wrapping_add(cur.ivarint("event ctrl target")?) as u64;
            let static_id = cur.uvarint("event ctrl site")?;
            let static_id =
                u32::try_from(static_id).map_err(|_| CodecError::Corrupt("ctrl site id > u32"))?;
            Some(ControlFlow {
                taken: flags & F_TAKEN != 0,
                target,
                static_id,
            })
        } else {
            None
        };
        let heap = if flags & F_HEAP != 0 {
            let base = (self.prev_heap as i64).wrapping_add(cur.ivarint("event heap base")?) as u64;
            self.prev_heap = base;
            let size = cur.uvarint("event heap size")?;
            Some(if flags & F_HEAP_FREE != 0 {
                HeapEvent::Free { base, size }
            } else {
                HeapEvent::Malloc { base, size }
            })
        } else {
            None
        };
        Ok(TraceInst {
            seq,
            pc,
            class: inst.class(),
            inst,
            mem_addr,
            control,
            heap,
            attack,
        })
    }

    /// Decodes one batch payload produced by [`EventEncoder::encode_batch`],
    /// whatever batches came before it.
    ///
    /// # Errors
    ///
    /// [`CodecError::Oversized`] if the batch declares more than
    /// [`MAX_BATCH_EVENTS`] events; [`CodecError::Corrupt`] if the payload
    /// is too short to hold the declared count or bytes trail the declared
    /// events; [`CodecError::Truncated`] on short input or a
    /// [`CodecError::Corrupt`] impossible flag combination or attack kind
    /// in any event. Both count checks run before the output is allocated.
    pub fn decode_batch(&mut self, payload: &[u8]) -> Result<Vec<TraceInst>, CodecError> {
        *self = Self::default();
        let mut cur = Cursor::new(payload);
        let count = cur.uvarint("batch count")?;
        if count > MAX_BATCH_EVENTS {
            return Err(CodecError::Oversized {
                what: "event batch",
                len: count,
                max: MAX_BATCH_EVENTS,
            });
        }
        if count > (cur.remaining() / MIN_EVENT_BYTES) as u64 {
            return Err(CodecError::Corrupt("implausible batch count"));
        }
        let mut out = Vec::with_capacity(count as usize);
        for _ in 0..count {
            out.push(self.decode_from(&mut cur)?);
        }
        if !cur.is_empty() {
            return Err(CodecError::Corrupt("trailing bytes after batch events"));
        }
        Ok(out)
    }
}

// ---- container -------------------------------------------------------------

/// Metadata pinned in a `.fgt` header: enough to rebuild the equivalent
/// in-process experiment and its slowdown denominator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceMeta {
    /// Workload name the trace was generated from.
    pub workload: String,
    /// Generator seed.
    pub seed: u64,
    /// Commit budget the capture was sized for (the replay target).
    pub insts: u64,
    /// Bare-core cycles for the same workload/seed/insts — the slowdown
    /// denominator, pinned at record time so replay needs no regeneration.
    pub baseline_cycles: u64,
    /// Events stored in the container (`insts` + the capture margin).
    pub events: u64,
}

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    let mut h = hash;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Writes a complete `.fgt` container to `out`.
///
/// # Errors
///
/// Propagates I/O errors from `out`.
pub fn write_trace<W: Write>(
    out: &mut W,
    meta: &TraceMeta,
    events: &[TraceInst],
) -> io::Result<()> {
    out.write_all(&MAGIC)?;
    out.write_all(&[VERSION])?;
    let mut header = Vec::new();
    put_string(&mut header, &meta.workload);
    put_uvarint(&mut header, meta.seed);
    put_uvarint(&mut header, meta.insts);
    put_uvarint(&mut header, meta.baseline_cycles);
    put_uvarint(&mut header, events.len() as u64);
    let mut prefix = Vec::new();
    put_uvarint(&mut prefix, header.len() as u64);
    out.write_all(&prefix)?;
    out.write_all(&header)?;

    let mut enc = EventEncoder::new();
    let mut checksum = FNV_OFFSET;
    for chunk in events.chunks(BATCH_EVENTS) {
        let payload = enc.encode_batch(chunk);
        checksum = fnv1a(checksum, &payload);
        let mut prefix = Vec::new();
        put_uvarint(&mut prefix, payload.len() as u64);
        out.write_all(&prefix)?;
        out.write_all(&payload)?;
    }
    out.write_all(&[0])?; // end-of-batches marker
    out.write_all(&checksum.to_le_bytes())?;
    out.flush()
}

fn read_exact_vec<R: Read>(r: &mut R, n: usize, what: &'static str) -> Result<Vec<u8>, CodecError> {
    let mut buf = vec![0u8; n];
    r.read_exact(&mut buf)
        .map_err(|_| CodecError::Truncated(what))?;
    Ok(buf)
}

/// Reads the header of a `.fgt` container, leaving `inp` positioned at the
/// first batch.
///
/// # Errors
///
/// [`CodecError::BadMagic`], [`CodecError::UnsupportedVersion`], or any
/// header decode failure.
pub fn read_trace_header<R: Read>(inp: &mut R) -> Result<TraceMeta, CodecError> {
    let magic = read_exact_vec(inp, 4, "magic")?;
    if magic != MAGIC {
        return Err(CodecError::BadMagic);
    }
    let version = read_exact_vec(inp, 1, "version")?[0];
    if version != VERSION {
        return Err(CodecError::UnsupportedVersion(u64::from(version)));
    }
    let header_len = read_uvarint(inp)?;
    if header_len > MAX_SECTION_BYTES {
        return Err(CodecError::Oversized {
            what: "header",
            len: header_len,
            max: MAX_SECTION_BYTES,
        });
    }
    let header = read_exact_vec(inp, header_len as usize, "header")?;
    let mut cur = Cursor::new(&header);
    let meta = TraceMeta {
        workload: cur.string(1024, "workload name")?,
        seed: cur.uvarint("seed")?,
        insts: cur.uvarint("insts")?,
        baseline_cycles: cur.uvarint("baseline cycles")?,
        events: cur.uvarint("event count")?,
    };
    if !cur.is_empty() {
        return Err(CodecError::Corrupt("trailing bytes after header"));
    }
    Ok(meta)
}

/// Reads a complete `.fgt` container: header, every batch, end marker and
/// checksum.
///
/// # Errors
///
/// Any [`CodecError`]; notably [`CodecError::CountMismatch`] when the
/// stream disagrees with its header and [`CodecError::ChecksumMismatch`]
/// when payload bytes were altered.
pub fn read_trace<R: Read>(inp: &mut R) -> Result<(TraceMeta, Vec<TraceInst>), CodecError> {
    let meta = read_trace_header(inp)?;
    let mut dec = EventDecoder::new();
    let mut events = Vec::new();
    let mut checksum = FNV_OFFSET;
    loop {
        let len = read_uvarint(inp)?;
        if len == 0 {
            break;
        }
        if len > MAX_SECTION_BYTES {
            return Err(CodecError::Oversized {
                what: "batch",
                len,
                max: MAX_SECTION_BYTES,
            });
        }
        let payload = read_exact_vec(inp, len as usize, "batch payload")?;
        checksum = fnv1a(checksum, &payload);
        events.extend(dec.decode_batch(&payload)?);
        if events.len() as u64 > meta.events {
            return Err(CodecError::CountMismatch {
                expected: meta.events,
                found: events.len() as u64,
            });
        }
    }
    if events.len() as u64 != meta.events {
        return Err(CodecError::CountMismatch {
            expected: meta.events,
            found: events.len() as u64,
        });
    }
    let stored = read_exact_vec(inp, 8, "checksum")?;
    let stored = u64::from_le_bytes(stored.try_into().expect("eight bytes"));
    if stored != checksum {
        return Err(CodecError::ChecksumMismatch {
            expected: stored,
            found: checksum,
        });
    }
    Ok((meta, events))
}

/// Encodes `events` to an in-memory `.fgt` container (testing convenience).
pub fn encode_trace(meta: &TraceMeta, events: &[TraceInst]) -> Vec<u8> {
    let mut buf = Vec::new();
    write_trace(&mut buf, meta, events).expect("writing to a Vec cannot fail");
    buf
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AttackKind, AttackPlan, AttackingTrace, TraceGenerator, WorkloadProfile};

    fn sample_events(n: usize) -> Vec<TraceInst> {
        let g = TraceGenerator::new(WorkloadProfile::parsec("dedup").unwrap(), 7);
        if n < 256 {
            return g.take(n).collect();
        }
        let plan = AttackPlan::campaign(
            &[
                AttackKind::RetHijack,
                AttackKind::OutOfBounds,
                AttackKind::UseAfterFree,
                AttackKind::BoundsViolation,
            ],
            8,
            n as u64 / 4,
            n as u64 / 2,
            3,
        );
        AttackingTrace::new(g, plan).take(n).collect()
    }

    fn meta_for(events: &[TraceInst]) -> TraceMeta {
        TraceMeta {
            workload: "dedup".to_owned(),
            seed: 7,
            insts: events.len() as u64 / 2,
            baseline_cycles: 1234,
            events: events.len() as u64,
        }
    }

    #[test]
    fn varint_round_trip() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_uvarint(&mut buf, v);
            assert_eq!(Cursor::new(&buf).uvarint("v").unwrap(), v);
        }
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            let mut buf = Vec::new();
            put_ivarint(&mut buf, v);
            assert_eq!(Cursor::new(&buf).ivarint("v").unwrap(), v);
        }
    }

    #[test]
    fn event_stream_round_trips_exactly() {
        let events = sample_events(10_000);
        let mut enc = EventEncoder::new();
        let mut dec = EventDecoder::new();
        for chunk in events.chunks(777) {
            let payload = enc.encode_batch(chunk);
            let back = dec.decode_batch(&payload).expect("decodes");
            assert_eq!(back, chunk);
        }
    }

    #[test]
    fn container_round_trips_exactly() {
        let events = sample_events(5_000);
        let meta = meta_for(&events);
        let bytes = encode_trace(&meta, &events);
        let (m2, e2) = read_trace(&mut bytes.as_slice()).expect("reads back");
        assert_eq!(m2, meta);
        assert_eq!(e2, events);
    }

    #[test]
    fn encoding_is_compact() {
        let events = sample_events(10_000);
        let bytes = encode_trace(&meta_for(&events), &events);
        let per_event = bytes.len() as f64 / events.len() as f64;
        // A naive fixed-layout TraceInst is ~64 bytes; deltas + varints
        // should stay well under 16.
        assert!(per_event < 16.0, "codec too fat: {per_event:.1} B/event");
    }

    #[test]
    fn truncation_at_any_point_is_an_error_not_a_panic() {
        let events = sample_events(64);
        let bytes = encode_trace(&meta_for(&events), &events);
        for cut in 0..bytes.len() {
            let r = read_trace(&mut &bytes[..cut]);
            assert!(r.is_err(), "prefix of {cut} bytes decoded successfully");
        }
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        let events = sample_events(8);
        let mut bytes = encode_trace(&meta_for(&events), &events);
        let mut wrong = bytes.clone();
        wrong[0] = b'X';
        assert!(matches!(
            read_trace(&mut wrong.as_slice()),
            Err(CodecError::BadMagic)
        ));
        // Version 1 chained the prediction context across batches: its
        // later batches would decode wrongly, so the file is refused.
        for version in [1, 99] {
            bytes[4] = version;
            assert!(matches!(
                read_trace(&mut bytes.as_slice()),
                Err(CodecError::UnsupportedVersion(v)) if v == u64::from(version)
            ));
        }
    }

    #[test]
    fn payload_corruption_trips_the_checksum() {
        let events = sample_events(256);
        let bytes = encode_trace(&meta_for(&events), &events);
        // Flip one bit in every payload byte position after the header;
        // decoding must fail (checksum at minimum) and never panic.
        let start = bytes.len() - 64; // deep inside the last batch
        for i in start..bytes.len() - 9 {
            let mut b = bytes.clone();
            b[i] ^= 0x40;
            assert!(read_trace(&mut b.as_slice()).is_err(), "flip at {i}");
        }
    }

    #[test]
    fn count_mismatch_is_detected() {
        let events = sample_events(31);
        let mut bytes = encode_trace(&meta_for(&events), &events);
        // The event count is the final varint of the header: 31 = 0x1f in
        // one byte, at offset 5 (magic+version) + 1 (header-length prefix)
        // + header_len - 1. Bump it to 32 without touching the payloads.
        let header_len = bytes[5] as usize;
        let count_at = 6 + header_len - 1;
        assert_eq!(bytes[count_at], 31);
        bytes[count_at] = 32;
        assert!(matches!(
            read_trace(&mut bytes.as_slice()),
            Err(CodecError::CountMismatch { .. })
        ));
    }

    #[test]
    fn corrupt_flags_are_rejected() {
        // taken bit without control flow
        let payload = {
            let mut b = Vec::new();
            put_uvarint(&mut b, 1); // one event
            b.push(F_TAKEN);
            b
        };
        assert!(matches!(
            EventDecoder::new().decode_batch(&payload),
            Err(CodecError::Corrupt(_))
        ));
        // attack kind 7 is undefined
        let payload = {
            let mut b = Vec::new();
            put_uvarint(&mut b, 1);
            b.push(7 << ATTACK_SHIFT);
            b
        };
        assert!(matches!(
            EventDecoder::new().decode_batch(&payload),
            Err(CodecError::Corrupt(_))
        ));
    }

    #[test]
    fn oversized_batch_count_is_rejected_before_allocation() {
        let mut b = Vec::new();
        put_uvarint(&mut b, MAX_BATCH_EVENTS + 1);
        assert!(matches!(
            EventDecoder::new().decode_batch(&b),
            Err(CodecError::Oversized { .. })
        ));
    }

    #[test]
    fn batch_count_beyond_the_payload_is_rejected_before_allocation() {
        // A 3-byte payload declaring 65,536 events: within the batch cap,
        // but with no bytes left to hold even one event.
        let mut b = Vec::new();
        put_uvarint(&mut b, MAX_BATCH_EVENTS);
        assert_eq!(b.len(), 3);
        assert!(matches!(
            EventDecoder::new().decode_batch(&b),
            Err(CodecError::Corrupt("implausible batch count"))
        ));
        // The bound is exact: 14 bytes hold two smallest (7-byte) events
        // but not a third.
        let minimal = [0u8, 0, 0, 0x13, 0, 0, 0];
        let two_minimal = |count: u64| {
            let mut b = Vec::new();
            put_uvarint(&mut b, count);
            b.extend_from_slice(&minimal);
            b.extend_from_slice(&minimal);
            EventDecoder::new().decode_batch(&b)
        };
        assert_eq!(two_minimal(2).expect("two minimal events").len(), 2);
        assert!(matches!(
            two_minimal(3),
            Err(CodecError::Corrupt("implausible batch count"))
        ));
    }
}
