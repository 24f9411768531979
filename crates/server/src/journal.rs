//! Session journals: the one record of a routed session.
//!
//! A routed session must be replayable — failover re-feeds a fresh backend
//! the full event prefix — and resumable: a SESSION-ticket resume needs
//! how much of the stream is safely buffered, which alarms the client was
//! shown and whether the verdict is in. A [`Journal`] holds all of it: the
//! HELLO, the event prefix, whether END was seen, the alarm log and the
//! verdict: one SUMMARY or one ERROR. Only the methods that write the
//! durable frame first can change that state.
//!
//! Events accumulate in a small in-RAM tail ring; when the ring fills, the
//! whole tail is *spilled* to the journal file as one freshly
//! delta-encoded EVENTS frame (the [`EventEncoder`] starts cleanly at any
//! seq, a property the workspace proptests pin), so router memory is
//! O(tail + file handle) per session, not O(events). Replay walks the
//! spilled frames — each decoded with a fresh [`EventDecoder`] — followed
//! by the live tail, handing the caller contiguous event slices to
//! re-encode onto whatever connection is being rebuilt.
//!
//! The file is a stream of protocol frames written by a [`FrameWriter`]
//! and read back by a [`FrameReader`], so it has the wire's framing and
//! index-bound checksums. Journals come in two flavors:
//!
//! - **Ephemeral** (no `--journal-dir`): the file holds EVENTS frames only,
//!   lives in the OS temp directory under a process-unique name, is
//!   created at the first spill and removed on drop. Survives backend
//!   failover, not a router crash.
//! - **Durable** (`--journal-dir <dir>`): `<id>.fgj` is created anew with
//!   the HELLO frame and also gets an ALARMS frame per alarm batch, END
//!   and the verdict frame, each synced to disk before the method
//!   recording it returns — so before the router acts on it. Once the
//!   session has its verdict the file is removed on drop; until then a
//!   router *process* crash (`kill -9`) leaves enough on disk for a router
//!   started with `--resume-journals <dir>` to rebuild the session via
//!   [`recover_journals`]. Events still in the RAM tail at crash time are
//!   absent from the recovered journal; the resume ACK shrinks accordingly
//!   and the client re-sends them.
//!
//! Recovery reads frames until the first one it cannot use — cut short by
//! the crash or failing its checksum — truncates the file there and keeps
//! appending after it. A file that does not start with a HELLO frame is
//! skipped and left untouched. SUMMARY and ERROR frames fill the one
//! verdict slot and the last one wins, so a file an older build wrote for
//! a short session (a partial SUMMARY, then its ERROR) recovers as the
//! ERROR.

use crate::proto::{
    checksummed, decode_alarms, encode_alarms, FrameReader, FrameWriter, ALARMS, END, ERROR,
    EVENTS, HELLO, SUMMARY,
};
use fireguard_soc::Detection;
use fireguard_trace::codec::{
    read_uvarint, CodecError, EventDecoder, EventEncoder, MAX_BATCH_EVENTS,
};
use fireguard_trace::TraceInst;
use std::collections::VecDeque;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufReader, BufWriter};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default in-RAM tail capacity (events) before a journal spills to disk.
pub const DEFAULT_JOURNAL_TAIL: usize = 4096;

/// Shared router-wide journal gauges, updated by every [`Journal`] the
/// router owns so the metrics plane and the admission controller see
/// aggregate journal pressure without walking the session table.
#[derive(Debug, Clone, Default)]
pub struct JournalGauges {
    /// Bytes currently buffered on disk across all live journals.
    pub bytes: Arc<AtomicU64>,
    /// Events spilled to disk since the router started (monotonic).
    pub spilled_events: Arc<AtomicU64>,
}

/// The record of one routed session: its HELLO, a bounded-memory event
/// buffer (RAM tail ring + disk spill), END, the alarm log and the
/// verdict, in one file of frames.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    durable: bool,
    hello: Vec<u8>,
    ended: bool,
    alarms: Vec<Detection>,
    /// The verdict frame, SUMMARY or ERROR, once recorded.
    verdict: Option<(u8, Vec<u8>)>,
    tail: VecDeque<TraceInst>,
    tail_cap: usize,
    spilled: u64,
    file: Option<FrameWriter<BufWriter<File>>>,
    bytes: u64,
    gauges: JournalGauges,
    remove_on_drop: bool,
}

// Process-unique suffix for ephemeral journal file names: two routers in
// the same process (or two processes sharing the temp dir) can journal
// sessions with identical ids without clobbering each other.
static EPHEMERAL_SEQ: AtomicU64 = AtomicU64::new(0);

// Bytes one frame takes in the file: tag, varint length, payload and, on a
// checksummed frame, the checksum word.
fn frame_bytes(tag: u8, len: usize) -> u64 {
    let varint = (u64::BITS - (len as u64 | 1).leading_zeros()).div_ceil(7);
    1 + u64::from(varint) + len as u64 + if checksummed(tag) { 4 } else { 0 }
}

impl Journal {
    // A journal with no state yet; `open` and recovery fill it in.
    fn blank(path: PathBuf, durable: bool, tail_cap: usize, gauges: JournalGauges) -> Self {
        let tail_cap = tail_cap.clamp(1, MAX_BATCH_EVENTS as usize);
        Journal {
            path,
            durable,
            hello: Vec::new(),
            ended: false,
            alarms: Vec::new(),
            verdict: None,
            tail: VecDeque::with_capacity(tail_cap.min(DEFAULT_JOURNAL_TAIL)),
            tail_cap,
            spilled: 0,
            file: None,
            bytes: 0,
            gauges,
            remove_on_drop: !durable,
        }
    }

    /// Opens a fresh journal for session `name`, registered with `hello`.
    /// `dir = Some(..)` selects durable mode: `<name>.fgj` is created anew
    /// there, replacing any stale file, and starts with the synced HELLO
    /// frame. `None` selects an ephemeral journal in the OS temp
    /// directory.
    ///
    /// # Errors
    ///
    /// Directory-creation failures and, when durable, the HELLO write.
    pub fn open(
        name: &str,
        hello: Vec<u8>,
        tail_cap: usize,
        dir: Option<&Path>,
        gauges: JournalGauges,
    ) -> io::Result<Self> {
        let durable = dir.is_some();
        let (dir, file_stem) = match dir {
            Some(d) => (d.to_path_buf(), name.to_string()),
            None => (
                std::env::temp_dir(),
                format!(
                    "fireguard-journal-{}-{}-{name}",
                    std::process::id(),
                    EPHEMERAL_SEQ.fetch_add(1, Ordering::Relaxed)
                ),
            ),
        };
        fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{file_stem}.fgj"));
        let mut j = Journal::blank(path, durable, tail_cap, gauges);
        // A file that never got its HELLO holds no session.
        j.remove_on_drop = true;
        j.record(HELLO, &hello)?;
        j.remove_on_drop = !durable;
        j.hello = hello;
        Ok(j)
    }

    /// Appends one frame to the file, creating the file anew on first use.
    fn append(&mut self, tag: u8, payload: &[u8]) -> io::Result<()> {
        let w = match &mut self.file {
            Some(w) => w,
            None => self
                .file
                .insert(FrameWriter::new(BufWriter::new(File::create(&self.path)?))),
        };
        w.write(tag, payload)?;
        w.flush()?;
        let grew = frame_bytes(tag, payload.len());
        self.bytes += grew;
        self.gauges.bytes.fetch_add(grew, Ordering::Relaxed);
        Ok(())
    }

    /// Writes a state frame to a durable journal and syncs it, so the disk
    /// learns it before the router acts on it. An ephemeral journal keeps
    /// its state in memory only.
    fn record(&mut self, tag: u8, payload: &[u8]) -> io::Result<()> {
        if !self.durable {
            return Ok(());
        }
        self.append(tag, payload)?;
        let w = self.file.as_mut().expect("the frame was just written");
        w.get_mut().get_ref().sync_data()
    }

    /// Appends one event; spills the whole RAM tail to disk when the ring
    /// fills. RAM usage never exceeds `tail_cap` events.
    ///
    /// # Errors
    ///
    /// Spill-file I/O failures.
    pub fn push(&mut self, ev: TraceInst) -> io::Result<()> {
        self.tail.push_back(ev);
        if self.tail.len() >= self.tail_cap {
            let batch: Vec<TraceInst> = self.tail.drain(..).collect();
            // Flushed, not synced: a spill lost to a crash only shrinks
            // the recovery ACK, and the client re-sends the tail.
            self.append(EVENTS, &EventEncoder::new().encode_batch(&batch))?;
            self.spilled += batch.len() as u64;
            self.gauges
                .spilled_events
                .fetch_add(batch.len() as u64, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Total buffered events: spilled + RAM tail. This is the resume-ACK
    /// value — the absolute seq the next expected event carries.
    pub fn len(&self) -> u64 {
        self.spilled + self.tail.len() as u64
    }

    /// True when no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events spilled to disk (not counting the RAM tail).
    pub fn spilled(&self) -> u64 {
        self.spilled
    }

    /// The verbatim HELLO payload the session registered with.
    pub fn hello(&self) -> &[u8] {
        &self.hello
    }

    /// Whether the client's END is recorded.
    pub fn ended(&self) -> bool {
        self.ended
    }

    /// Every alarm released to the client, in order.
    pub fn alarms(&self) -> &[Detection] {
        &self.alarms
    }

    /// Whether the session has its verdict.
    pub fn done(&self) -> bool {
        self.verdict.is_some()
    }

    /// The verdict frame, `(SUMMARY | ERROR, payload)`; `None` while the
    /// session runs.
    pub fn verdict(&self) -> Option<(u8, &[u8])> {
        self.verdict.as_ref().map(|(tag, p)| (*tag, p.as_slice()))
    }

    /// Records that the client finished its commit stream.
    ///
    /// # Errors
    ///
    /// Journal write failures.
    pub fn end(&mut self) -> io::Result<()> {
        if !self.ended {
            self.record(END, &[])?;
            self.ended = true;
        }
        Ok(())
    }

    /// Logs an alarm batch **before** it is released to the client, so a
    /// post-crash router never re-delivers (or loses) a detection.
    ///
    /// # Errors
    ///
    /// Journal write failures.
    pub fn log_alarms(&mut self, fresh: &[Detection]) -> io::Result<()> {
        if self.durable {
            self.record(ALARMS, &encode_alarms(fresh))?;
        }
        self.alarms.extend_from_slice(fresh);
        Ok(())
    }

    /// Records the verdict — `tag` is SUMMARY or ERROR — unless one is
    /// recorded already. The file goes on drop: the session needs nothing
    /// more from it.
    ///
    /// # Errors
    ///
    /// Journal write failures.
    pub fn set_verdict(&mut self, tag: u8, payload: &[u8]) -> io::Result<()> {
        self.remove_on_drop = true;
        if self.verdict.is_none() {
            self.record(tag, payload)?;
            self.verdict = Some((tag, payload.to_vec()));
        }
        Ok(())
    }

    /// Replays the full buffered prefix — every spilled EVENTS frame
    /// (decoded with a fresh [`EventDecoder`]) and then the RAM tail —
    /// through `f` as contiguous event slices, in order. The caller
    /// re-encodes them with whatever per-connection encoder the new
    /// incarnation uses; spilled bytes are never forwarded verbatim because
    /// the receiving decoder's delta state is continuous across the whole
    /// connection.
    ///
    /// # Errors
    ///
    /// Journal-file I/O, checksum or decode failures (the file was damaged
    /// on disk), or whatever `f` raises.
    pub fn replay<F>(&mut self, mut f: F) -> Result<(), CodecError>
    where
        F: FnMut(&[TraceInst]) -> io::Result<()>,
    {
        if self.spilled > 0 {
            if let Some(w) = self.file.as_mut() {
                w.flush()?;
            }
            let mut r = FrameReader::new(BufReader::new(File::open(&self.path)?));
            let mut replayed = 0u64;
            while replayed < self.spilled {
                let (tag, payload) = r.read()?.ok_or(CodecError::Truncated("journal"))?;
                if tag == EVENTS {
                    let events = EventDecoder::new().decode_batch(&payload)?;
                    f(&events)?;
                    replayed += events.len() as u64;
                }
            }
        }
        let (a, b) = self.tail.as_slices();
        if !a.is_empty() {
            f(a)?;
        }
        if !b.is_empty() {
            f(b)?;
        }
        Ok(())
    }
}

impl Drop for Journal {
    fn drop(&mut self) {
        self.gauges.bytes.fetch_sub(self.bytes, Ordering::Relaxed);
        if self.remove_on_drop {
            self.file = None;
            let _ = fs::remove_file(&self.path);
        }
    }
}

// ---- crash recovery ---------------------------------------------------------

/// Scans a `--journal-dir` for sessions a crashed router left behind and
/// rebuilds their journals, as `(id, journal)` in id order. Each journal
/// ends at its first frame that is cut short or fails its checksum: the
/// file is truncated there, and the journal keeps appending after it.
///
/// # Errors
///
/// Directory-scan I/O failures. Individually unreadable sessions are
/// skipped, not fatal — recovery salvages what it can.
pub fn recover_journals(
    dir: &Path,
    tail_cap: usize,
    gauges: &JournalGauges,
) -> io::Result<Vec<(u64, Journal)>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.extension().and_then(|e| e.to_str()) != Some("fgj") {
            continue;
        }
        let Some(id) = path
            .file_stem()
            .and_then(|s| s.to_str())
            .and_then(|s| s.parse::<u64>().ok())
        else {
            continue;
        };
        if let Some(j) = recover_one(path, tail_cap, gauges) {
            out.push((id, j));
        }
    }
    out.sort_by_key(|(id, _)| *id);
    Ok(out)
}

fn recover_one(path: PathBuf, tail_cap: usize, gauges: &JournalGauges) -> Option<Journal> {
    let mut r = FrameReader::new(BufReader::new(File::open(&path).ok()?));
    // Not a journal this build wrote: leave it untouched.
    let Ok(Some((HELLO, hello))) = r.read() else {
        return None;
    };
    let mut j = Journal::blank(path, true, tail_cap, gauges.clone());
    let (mut valid, mut frames) = (frame_bytes(HELLO, hello.len()), 0u64);
    j.hello = hello;
    while let Ok(Some((tag, payload))) = r.read() {
        let size = frame_bytes(tag, payload.len());
        match tag {
            EVENTS => match read_uvarint(&mut payload.as_slice()) {
                Ok(n) => j.spilled += n,
                Err(_) => break,
            },
            ALARMS => match decode_alarms(&payload) {
                Ok(a) => j.alarms.extend(a),
                Err(_) => break,
            },
            END => j.ended = true,
            SUMMARY | ERROR => j.verdict = Some((tag, payload)),
            _ => break,
        }
        valid += size;
        frames += u64::from(checksummed(tag));
    }
    let f = OpenOptions::new().append(true).open(&j.path).ok()?;
    f.set_len(valid).ok()?;
    j.file = Some(FrameWriter::continuing(BufWriter::new(f), frames));
    j.bytes = valid;
    gauges.bytes.fetch_add(valid, Ordering::Relaxed);
    j.remove_on_drop = j.done();
    Some(j)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fireguard_soc::{capture_events, ExperimentConfig, KernelId};
    use fireguard_trace::codec::EventEncoder;

    fn events(n: u64) -> Vec<TraceInst> {
        let cfg = ExperimentConfig::new("dedup")
            .kernel(KernelId::PMC, 2)
            .insts(n);
        capture_events(&cfg)
    }

    fn collect(j: &mut Journal) -> Vec<TraceInst> {
        let mut got = Vec::new();
        j.replay(|chunk| {
            got.extend_from_slice(chunk);
            Ok(())
        })
        .unwrap();
        got
    }

    fn detections() -> Vec<Detection> {
        vec![
            Detection {
                seq: 7,
                latency_ns: 12.5,
                attack: true,
                kernel_slot: 1,
            },
            Detection {
                seq: 90,
                latency_ns: 0.25,
                attack: false,
                kernel_slot: 0,
            },
        ]
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("fg-journal-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn spill_and_replay_reproduce_the_stream_bit_exactly() {
        let evs = events(3000);
        let mut j = Journal::open("t1", Vec::new(), 64, None, JournalGauges::default()).unwrap();
        for &e in &evs {
            j.push(e).unwrap();
        }
        assert_eq!(j.len(), evs.len() as u64);
        assert!(j.spilled() >= evs.len() as u64 - 64, "spill engaged");
        assert!(j.bytes > 0);
        assert_eq!(collect(&mut j), evs);
        // Replay is repeatable — failover can happen more than once.
        assert_eq!(collect(&mut j), evs);
    }

    #[test]
    fn ram_tail_is_bounded_by_the_cap() {
        let evs = events(2000);
        let mut j = Journal::open("t2", Vec::new(), 32, None, JournalGauges::default()).unwrap();
        for &e in &evs {
            j.push(e).unwrap();
            assert!(j.tail.len() < 32, "RAM tail exceeded its cap");
        }
        assert_eq!(collect(&mut j), evs);
    }

    #[test]
    fn ephemeral_journal_removes_its_file_on_drop() {
        let evs = events(500);
        let mut j = Journal::open("t3", Vec::new(), 16, None, JournalGauges::default()).unwrap();
        for &e in &evs {
            j.push(e).unwrap();
        }
        let path = j.path.clone();
        assert!(path.exists(), "spill file exists while live");
        drop(j);
        assert!(!path.exists(), "spill file removed on drop");
    }

    #[test]
    fn gauges_track_bytes_and_release_them_on_drop() {
        let gauges = JournalGauges::default();
        let evs = events(1000);
        let mut j = Journal::open("t4", Vec::new(), 16, None, gauges.clone()).unwrap();
        for &e in &evs {
            j.push(e).unwrap();
        }
        assert_eq!(gauges.bytes.load(Ordering::Relaxed), j.bytes);
        assert!(gauges.spilled_events.load(Ordering::Relaxed) >= 1000 - 16);
        drop(j);
        assert_eq!(gauges.bytes.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn durable_journal_survives_a_simulated_crash_and_recovers() {
        let dir = temp_dir("recover");
        let gauges = JournalGauges::default();
        let evs = events(1500);
        let alarms = detections();
        {
            let hello = b"hello-bytes".to_vec();
            let mut j = Journal::open("42", hello, 64, Some(&dir), gauges.clone()).unwrap();
            for &e in &evs {
                j.push(e).unwrap();
            }
            j.log_alarms(&alarms).unwrap();
            j.end().unwrap();
            // Simulated crash: leak the journal so Drop never runs and the
            // file stays behind exactly as `kill -9` would leave it.
            std::mem::forget(j);
        }
        gauges.bytes.store(0, Ordering::Relaxed); // fresh router process

        let recovered = recover_journals(&dir, 64, &gauges).unwrap();
        assert_eq!(recovered.len(), 1);
        let (id, mut j) = recovered.into_iter().next().unwrap();
        assert_eq!(id, 42);
        assert_eq!(j.hello(), b"hello-bytes");
        assert!(j.ended());
        assert_eq!(j.alarms(), alarms);
        assert!(!j.done() && j.verdict().is_none());
        assert_eq!(gauges.bytes.load(Ordering::Relaxed), j.bytes);
        // The RAM tail died with the process: the recovered prefix is the
        // spilled part only, and it replays bit-exactly.
        let n = j.len() as usize;
        assert!(n >= evs.len() - 64 && n <= evs.len());
        assert_eq!(collect(&mut j), evs[..n]);
        // Appending the "re-sent" tail continues the stream seamlessly.
        for &e in &evs[n..] {
            j.push(e).unwrap();
        }
        assert_eq!(j.len(), evs.len() as u64);
        assert_eq!(collect(&mut j), evs);

        // Verdict reached → file removed on drop.
        j.set_verdict(SUMMARY, b"sum").unwrap();
        let p = j.path.clone();
        drop(j);
        assert!(!p.exists(), "completed journal cleaned up");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_discards_a_partial_trailing_batch() {
        let dir = temp_dir("truncate");
        let gauges = JournalGauges::default();
        let evs = events(600);
        {
            let mut j = Journal::open("7", b"h".to_vec(), 50, Some(&dir), gauges.clone()).unwrap();
            for &e in &evs {
                j.push(e).unwrap();
            }
            std::mem::forget(j);
        }
        // Chop bytes off the file's final frame, as a crash mid-write
        // would.
        let spill = dir.join("7.fgj");
        let full = fs::read(&spill).unwrap();
        fs::write(&spill, &full[..full.len() - 3]).unwrap();

        let gauges = JournalGauges::default();
        let (_, mut j) = recover_journals(&dir, 50, &gauges)
            .unwrap()
            .into_iter()
            .next()
            .unwrap();
        let n = j.len() as usize;
        assert!(n < evs.len(), "truncated batch was discarded");
        assert_eq!(collect(&mut j), evs[..n]);
        // The file was truncated back to a frame boundary, so appending
        // the missing events yields a well-formed journal again.
        for &e in &evs[n..] {
            j.push(e).unwrap();
        }
        assert_eq!(collect(&mut j), evs);
        j.remove_on_drop = true;
        drop(j);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_fresh_journal_replaces_a_stale_file_of_the_same_id() {
        let dir = temp_dir("stale");
        let evs = events(600);
        {
            // A crashed router's session 9.
            let mut j = Journal::open(
                "9",
                b"old".to_vec(),
                50,
                Some(&dir),
                JournalGauges::default(),
            )
            .unwrap();
            for &e in &evs[..500] {
                j.push(e).unwrap();
            }
            j.log_alarms(&detections()).unwrap();
            j.end().unwrap();
            std::mem::forget(j);
        }
        {
            // A router that did not recover it registers id 9 afresh.
            let mut j = Journal::open(
                "9",
                b"new".to_vec(),
                50,
                Some(&dir),
                JournalGauges::default(),
            )
            .unwrap();
            for &e in &evs[..120] {
                j.push(e).unwrap();
            }
            std::mem::forget(j);
        }
        let mut recovered = recover_journals(&dir, 50, &JournalGauges::default()).unwrap();
        assert_eq!(recovered.len(), 1);
        let (id, mut j) = recovered.pop().unwrap();
        assert_eq!(id, 9);
        assert_eq!(j.hello(), b"new");
        assert!(
            !j.ended() && j.alarms().is_empty(),
            "nothing of the old session"
        );
        assert_eq!(j.len(), 100, "the new session's two spilled frames");
        assert_eq!(collect(&mut j), evs[..100]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_file_in_the_old_spill_format_is_skipped_untouched() {
        let dir = temp_dir("old-format");
        // `u32le byte-len ‖ u32le event-count ‖ batch`, as older builds
        // spilled, with no HELLO frame in front.
        let batch = EventEncoder::new().encode_batch(&events(100)[..64]);
        let mut old = (batch.len() as u32).to_le_bytes().to_vec();
        old.extend_from_slice(&64u32.to_le_bytes());
        old.extend_from_slice(&batch);
        assert_ne!(
            old[0], HELLO,
            "this fixture must not open like a HELLO frame"
        );
        let path = dir.join("5.fgj");
        fs::write(&path, &old).unwrap();

        let recovered = recover_journals(&dir, 50, &JournalGauges::default()).unwrap();
        assert!(recovered.is_empty(), "no HELLO frame, no session");
        assert_eq!(fs::read(&path).unwrap(), old, "the file is left as it was");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_journal_holds_one_verdict_and_recovery_keeps_the_last() {
        let dir = temp_dir("verdict");
        // An older build journaled a short session's partial SUMMARY and
        // then the ERROR that said why: it recovers as that ERROR.
        let error = b"stream ended after 2000 of 50000 instructions";
        let mut w = FrameWriter::new(Vec::new());
        w.write(HELLO, b"h").unwrap();
        w.write(SUMMARY, b"partial").unwrap();
        w.write(ERROR, error).unwrap();
        fs::write(dir.join("8.fgj"), w.get_mut()).unwrap();
        let (_, mut j) = recover_journals(&dir, 50, &JournalGauges::default())
            .unwrap()
            .pop()
            .unwrap();
        assert_eq!(j.verdict(), Some((ERROR, &error[..])));
        // A recorded verdict stays: a later one is neither kept nor written.
        j.set_verdict(SUMMARY, b"late").unwrap();
        assert_eq!(j.verdict(), Some((ERROR, &error[..])));
        drop(j);
        assert!(
            !dir.join("8.fgj").exists(),
            "a finished journal goes on drop"
        );

        let mut fresh =
            Journal::open("9", b"h".to_vec(), 50, Some(&dir), JournalGauges::default()).unwrap();
        fresh.set_verdict(SUMMARY, b"sum").unwrap();
        fresh.set_verdict(ERROR, b"late").unwrap();
        assert_eq!(fresh.verdict(), Some((SUMMARY, &b"sum"[..])));
        std::mem::forget(fresh);
        let (_, nine) = recover_journals(&dir, 50, &JournalGauges::default())
            .unwrap()
            .pop()
            .unwrap();
        assert_eq!(nine.verdict(), Some((SUMMARY, &b"sum"[..])), "one frame");
        drop(nine);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_flipped_byte_ends_recovery_at_the_frame_before_it() {
        let dir = temp_dir("flip");
        let evs = events(600);
        {
            let mut j = Journal::open("3", b"h".to_vec(), 50, Some(&dir), JournalGauges::default())
                .unwrap();
            for &e in &evs[..120] {
                j.push(e).unwrap();
            }
            std::mem::forget(j);
        }
        // The file is HELLO and two EVENTS frames of 50 events each; the
        // flipped byte sits in the second one's payload, just before its
        // 4-byte checksum word.
        let path = dir.join("3.fgj");
        let mut bytes = fs::read(&path).unwrap();
        let at = bytes.len() - 10;
        bytes[at] ^= 0x20;
        fs::write(&path, &bytes).unwrap();

        let (_, mut j) = recover_journals(&dir, 50, &JournalGauges::default())
            .unwrap()
            .pop()
            .unwrap();
        assert_eq!(j.len(), 50, "recovery stops at the frame before the damage");
        assert_eq!(collect(&mut j), evs[..50]);
        // The damaged frame was cut off, so appending continues cleanly.
        for &e in &evs[50..120] {
            j.push(e).unwrap();
        }
        assert_eq!(collect(&mut j), evs[..120]);
        let _ = fs::remove_dir_all(&dir);
    }
}
