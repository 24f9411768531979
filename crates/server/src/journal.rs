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
//! Every EVENTS payload decodes on its own, so the journal stores each
//! client batch as one EVENTS frame, byte for byte as received, and
//! replay hands the same payloads back for the router to forward
//! unchanged. No event is held in memory: router memory is O(file
//! handle) per session, not O(events).
//!
//! The file is a stream of protocol frames written by a [`FrameWriter`]
//! and read back by a [`FrameReader`], so it has the wire's framing and
//! index-bound checksums. EVENTS frames go through the file's buffer
//! without a flush of their own: replay flushes before it reads, and a
//! durable state frame flushes them ahead of itself. Journals come in two
//! flavors:
//!
//! - **Ephemeral** (no `--journal-dir`): the file holds EVENTS frames only,
//!   lives in the OS temp directory under a process-unique name, is
//!   created at the first batch and removed on drop. Survives backend
//!   failover, not a router crash.
//! - **Durable** (`--journal-dir <dir>`): `<id>.fgj` is created anew with
//!   the HELLO frame and also gets an ALARMS frame per alarm batch, END
//!   and the verdict frame, each synced to disk before the method
//!   recording it returns — so before the router acts on it. Once the
//!   session has its verdict the file is removed on drop; until then a
//!   router *process* crash (`kill -9`) leaves enough on disk for the
//!   next router started with that `--journal-dir` to rebuild the session
//!   via [`recover_journals`]. EVENTS frames still in the buffer at crash
//!   time are absent from the recovered journal; the resume ACK shrinks
//!   accordingly and the client re-sends them.
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
use fireguard_trace::codec::{read_uvarint, CodecError};
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufReader, BufWriter};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The record of one routed session: its HELLO, the client's EVENTS
/// payloads as received, END, the alarm log and the verdict, in one file
/// of frames.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    durable: bool,
    hello: Vec<u8>,
    ended: bool,
    alarms: Vec<Detection>,
    /// The verdict frame, SUMMARY or ERROR, once recorded.
    verdict: Option<(u8, Vec<u8>)>,
    /// Events in the journaled EVENTS frames.
    events: u64,
    file: Option<FrameWriter<BufWriter<File>>>,
    bytes: u64,
    /// Bytes journaled across all of the router's live journals, so the
    /// metrics plane and the admission controller see aggregate journal
    /// pressure without walking the session table.
    total_bytes: Arc<AtomicU64>,
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
    fn blank(path: PathBuf, durable: bool, total_bytes: Arc<AtomicU64>) -> Self {
        Journal {
            path,
            durable,
            hello: Vec::new(),
            ended: false,
            alarms: Vec::new(),
            verdict: None,
            events: 0,
            file: None,
            bytes: 0,
            total_bytes,
            remove_on_drop: !durable,
        }
    }

    /// Opens a fresh journal for session `name`, registered with `hello`.
    /// `dir = Some(..)` selects durable mode: `<name>.fgj` is created anew
    /// there, replacing any stale file, and starts with the synced HELLO
    /// frame. `None` selects an ephemeral journal in the OS temp
    /// directory. The journal counts its bytes into `total_bytes`, the
    /// router-wide gauge, until it is dropped.
    ///
    /// # Errors
    ///
    /// Directory-creation failures and, when durable, the HELLO write.
    pub fn open(
        name: &str,
        hello: Vec<u8>,
        dir: Option<&Path>,
        total_bytes: Arc<AtomicU64>,
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
        let mut j = Journal::blank(path, durable, total_bytes);
        // A file that never got its HELLO holds no session.
        j.remove_on_drop = true;
        j.record(HELLO, &hello)?;
        j.remove_on_drop = !durable;
        j.hello = hello;
        Ok(j)
    }

    /// Appends one frame to the file's buffer, creating the file anew on
    /// first use.
    fn append(&mut self, tag: u8, payload: &[u8]) -> io::Result<()> {
        let w = match &mut self.file {
            Some(w) => w,
            None => self
                .file
                .insert(FrameWriter::new(BufWriter::new(File::create(&self.path)?))),
        };
        w.write(tag, payload)?;
        let grew = frame_bytes(tag, payload.len());
        self.bytes += grew;
        self.total_bytes.fetch_add(grew, Ordering::Relaxed);
        Ok(())
    }

    /// Writes a state frame to a durable journal and syncs it, together
    /// with every buffered frame ahead of it, so the disk learns it before
    /// the router acts on it. An ephemeral journal keeps its state in
    /// memory only.
    fn record(&mut self, tag: u8, payload: &[u8]) -> io::Result<()> {
        if !self.durable {
            return Ok(());
        }
        self.append(tag, payload)?;
        let w = self.file.as_mut().expect("the frame was just written");
        w.flush()?;
        w.get_mut().get_ref().sync_data()
    }

    /// Appends one client EVENTS payload holding `events` events, as
    /// received.
    ///
    /// # Errors
    ///
    /// Journal-file I/O failures.
    pub fn push(&mut self, payload: &[u8], events: u64) -> io::Result<()> {
        self.append(EVENTS, payload)?;
        self.events += events;
        Ok(())
    }

    /// Events journaled. This is the resume-ACK value — the absolute seq
    /// the next expected event carries.
    pub fn len(&self) -> u64 {
        self.events
    }

    /// True when no events are journaled.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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

    /// Replays the journaled prefix: hands every EVENTS payload to `f`,
    /// unchanged and in order, for the caller to forward as it is.
    ///
    /// # Errors
    ///
    /// Journal-file I/O or checksum failures (the file was damaged on
    /// disk), or whatever `f` raises.
    pub fn replay<F>(&mut self, mut f: F) -> Result<(), CodecError>
    where
        F: FnMut(&[u8]) -> io::Result<()>,
    {
        if self.events == 0 {
            return Ok(());
        }
        if let Some(w) = self.file.as_mut() {
            w.flush()?;
        }
        let mut r = FrameReader::new(BufReader::new(File::open(&self.path)?));
        let mut replayed = 0u64;
        while replayed < self.events {
            let (tag, payload) = r.read()?.ok_or(CodecError::Truncated("journal"))?;
            if tag == EVENTS {
                replayed += read_uvarint(&mut payload.as_slice())?;
                f(&payload)?;
            }
        }
        Ok(())
    }
}

impl Drop for Journal {
    fn drop(&mut self) {
        self.total_bytes.fetch_sub(self.bytes, Ordering::Relaxed);
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
/// Each recovered journal counts its bytes into `total_bytes`.
///
/// # Errors
///
/// Directory-scan I/O failures. Individually unreadable sessions are
/// skipped, not fatal — recovery salvages what it can.
pub fn recover_journals(
    dir: &Path,
    total_bytes: &Arc<AtomicU64>,
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
        if let Some(j) = recover_one(path, total_bytes) {
            out.push((id, j));
        }
    }
    out.sort_by_key(|(id, _)| *id);
    Ok(out)
}

fn recover_one(path: PathBuf, total_bytes: &Arc<AtomicU64>) -> Option<Journal> {
    let mut r = FrameReader::new(BufReader::new(File::open(&path).ok()?));
    // Not a journal this build wrote: leave it untouched.
    let Ok(Some((HELLO, hello))) = r.read() else {
        return None;
    };
    let mut j = Journal::blank(path, true, Arc::clone(total_bytes));
    let (mut valid, mut frames) = (frame_bytes(HELLO, hello.len()), 0u64);
    j.hello = hello;
    while let Ok(Some((tag, payload))) = r.read() {
        let size = frame_bytes(tag, payload.len());
        match tag {
            EVENTS => match read_uvarint(&mut payload.as_slice()) {
                Ok(n) => j.events += n,
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
    total_bytes.fetch_add(valid, Ordering::Relaxed);
    j.remove_on_drop = j.done();
    Some(j)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fireguard_soc::{capture_events, ExperimentConfig, KernelId};
    use fireguard_trace::codec::{EventDecoder, EventEncoder};
    use fireguard_trace::TraceInst;

    fn events(n: u64) -> Vec<TraceInst> {
        let cfg = ExperimentConfig::new("dedup")
            .kernel(KernelId::PMC, 2)
            .insts(n);
        capture_events(&cfg)
    }

    // Pushes `evs` as `batch`-event payloads, as a client sends them.
    fn push_all(j: &mut Journal, evs: &[TraceInst], batch: usize) {
        for chunk in evs.chunks(batch) {
            let payload = EventEncoder::new().encode_batch(chunk);
            j.push(&payload, chunk.len() as u64).unwrap();
        }
    }

    fn payloads(j: &mut Journal) -> Vec<Vec<u8>> {
        let mut got = Vec::new();
        j.replay(|p| {
            got.push(p.to_vec());
            Ok(())
        })
        .unwrap();
        got
    }

    fn collect(j: &mut Journal) -> Vec<TraceInst> {
        payloads(j)
            .iter()
            .flat_map(|p| EventDecoder::new().decode_batch(p).unwrap())
            .collect()
    }

    // A simulated crash once the buffer has reached the disk: Drop never
    // runs, so the file stays exactly as `kill -9` would leave it.
    fn crash_flushed(mut j: Journal) {
        j.file
            .as_mut()
            .expect("the journal has a file")
            .flush()
            .unwrap();
        std::mem::forget(j);
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
        let mut j = Journal::open("t1", Vec::new(), None, Arc::default()).unwrap();
        push_all(&mut j, &evs, 64);
        assert_eq!(j.len(), evs.len() as u64);
        assert!(j.bytes > 0);
        assert_eq!(collect(&mut j), evs);
        // Replay is repeatable — failover can happen more than once.
        assert_eq!(collect(&mut j), evs);
    }

    #[test]
    fn replay_hands_back_each_payload_as_pushed() {
        let evs = events(2000);
        let mut j = Journal::open("t2", Vec::new(), None, Arc::default()).unwrap();
        let mut pushed = Vec::new();
        for chunk in [
            &evs[..1480],
            &evs[1480..1487],
            &evs[1487..1999],
            &evs[1999..],
        ] {
            let payload = EventEncoder::new().encode_batch(chunk);
            j.push(&payload, chunk.len() as u64).unwrap();
            pushed.push(payload);
        }
        // The last pushes wait in the file's buffer; replay flushes them
        // first.
        assert!(fs::metadata(&j.path).unwrap().len() < j.bytes);
        assert_eq!(payloads(&mut j), pushed, "byte for byte, in order");
        assert_eq!(fs::metadata(&j.path).unwrap().len(), j.bytes);
    }

    #[test]
    fn ephemeral_journal_removes_its_file_on_drop() {
        let evs = events(500);
        let mut j = Journal::open("t3", Vec::new(), None, Arc::default()).unwrap();
        push_all(&mut j, &evs, 16);
        let path = j.path.clone();
        assert!(path.exists(), "journal file exists while live");
        drop(j);
        assert!(!path.exists(), "journal file removed on drop");
    }

    #[test]
    fn gauges_track_bytes_and_release_them_on_drop() {
        let gauge = Arc::new(AtomicU64::new(0));
        let evs = events(1000);
        let mut j = Journal::open("t4", Vec::new(), None, Arc::clone(&gauge)).unwrap();
        push_all(&mut j, &evs, 16);
        assert_eq!(gauge.load(Ordering::Relaxed), j.bytes);
        drop(j);
        assert_eq!(gauge.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn durable_journal_survives_a_simulated_crash_and_recovers() {
        let dir = temp_dir("recover");
        let gauge = Arc::new(AtomicU64::new(0));
        let evs = events(1500);
        let alarms = detections();
        let synced = evs.len() - 100;
        {
            let hello = b"hello-bytes".to_vec();
            let mut j = Journal::open("42", hello, Some(&dir), Arc::clone(&gauge)).unwrap();
            push_all(&mut j, &evs[..synced], 64);
            // The synced ALARMS frame takes every batch ahead of it to disk.
            j.log_alarms(&alarms).unwrap();
            // This batch is still in the buffer when the process dies.
            push_all(&mut j, &evs[synced..], 512);
            // Simulated crash: leak the journal so Drop never runs and the
            // file stays behind exactly as `kill -9` would leave it.
            std::mem::forget(j);
        }
        gauge.store(0, Ordering::Relaxed); // fresh router process

        let recovered = recover_journals(&dir, &gauge).unwrap();
        assert_eq!(recovered.len(), 1);
        let (id, mut j) = recovered.into_iter().next().unwrap();
        assert_eq!(id, 42);
        assert_eq!(j.hello(), b"hello-bytes");
        assert!(!j.ended());
        assert_eq!(j.alarms(), alarms);
        assert!(!j.done() && j.verdict().is_none());
        assert_eq!(gauge.load(Ordering::Relaxed), j.bytes);
        // The buffered batch died with the process: the recovered prefix
        // ends at the synced frame, and it replays bit-exactly.
        assert_eq!(j.len(), synced as u64);
        assert_eq!(collect(&mut j), evs[..synced]);
        // Appending the "re-sent" tail continues the stream seamlessly.
        push_all(&mut j, &evs[synced..], 512);
        assert_eq!(j.len(), evs.len() as u64);
        // A second crash right after END: the synced END frame takes the
        // still-buffered re-sent batch to disk with it, and both survive
        // recovery.
        j.end().unwrap();
        std::mem::forget(j);
        gauge.store(0, Ordering::Relaxed);
        let (_, mut j) = recover_journals(&dir, &gauge).unwrap().pop().unwrap();
        assert!(j.ended());
        assert_eq!(j.alarms(), alarms);
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
        let gauge = Arc::new(AtomicU64::new(0));
        let evs = events(600);
        {
            let mut j = Journal::open("7", b"h".to_vec(), Some(&dir), Arc::clone(&gauge)).unwrap();
            push_all(&mut j, &evs, 50);
            crash_flushed(j);
        }
        // Chop bytes off the file's final frame, as a crash mid-write
        // would.
        let file = dir.join("7.fgj");
        let full = fs::read(&file).unwrap();
        fs::write(&file, &full[..full.len() - 3]).unwrap();

        let gauge = Arc::new(AtomicU64::new(0));
        let (_, mut j) = recover_journals(&dir, &gauge)
            .unwrap()
            .into_iter()
            .next()
            .unwrap();
        let n = j.len() as usize;
        assert!(n < evs.len(), "truncated batch was discarded");
        assert_eq!(collect(&mut j), evs[..n]);
        // The file was truncated back to a frame boundary, so appending
        // the missing events yields a well-formed journal again.
        push_all(&mut j, &evs[n..], 50);
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
            let mut j = Journal::open("9", b"old".to_vec(), Some(&dir), Arc::default()).unwrap();
            push_all(&mut j, &evs[..500], 50);
            j.log_alarms(&detections()).unwrap();
            j.end().unwrap();
            std::mem::forget(j);
        }
        {
            // A router that did not recover it registers id 9 afresh.
            let mut j = Journal::open("9", b"new".to_vec(), Some(&dir), Arc::default()).unwrap();
            push_all(&mut j, &evs[..120], 50);
            crash_flushed(j);
        }
        let mut recovered = recover_journals(&dir, &Arc::default()).unwrap();
        assert_eq!(recovered.len(), 1);
        let (id, mut j) = recovered.pop().unwrap();
        assert_eq!(id, 9);
        assert_eq!(j.hello(), b"new");
        assert!(
            !j.ended() && j.alarms().is_empty(),
            "nothing of the old session"
        );
        assert_eq!(j.len(), 120, "the new session's three EVENTS frames");
        assert_eq!(collect(&mut j), evs[..120]);
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

        let recovered = recover_journals(&dir, &Arc::default()).unwrap();
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
        let (_, mut j) = recover_journals(&dir, &Arc::default())
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

        let mut fresh = Journal::open("9", b"h".to_vec(), Some(&dir), Arc::default()).unwrap();
        fresh.set_verdict(SUMMARY, b"sum").unwrap();
        fresh.set_verdict(ERROR, b"late").unwrap();
        assert_eq!(fresh.verdict(), Some((SUMMARY, &b"sum"[..])));
        std::mem::forget(fresh);
        let (_, nine) = recover_journals(&dir, &Arc::default())
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
            let mut j = Journal::open("3", b"h".to_vec(), Some(&dir), Arc::default()).unwrap();
            push_all(&mut j, &evs[..100], 50);
            crash_flushed(j);
        }
        // The file is HELLO and two EVENTS frames of 50 events each; the
        // flipped byte sits in the second one's payload, just before its
        // 4-byte checksum word.
        let path = dir.join("3.fgj");
        let mut bytes = fs::read(&path).unwrap();
        let at = bytes.len() - 10;
        bytes[at] ^= 0x20;
        fs::write(&path, &bytes).unwrap();

        let (_, mut j) = recover_journals(&dir, &Arc::default())
            .unwrap()
            .pop()
            .unwrap();
        assert_eq!(j.len(), 50, "recovery stops at the frame before the damage");
        assert_eq!(collect(&mut j), evs[..50]);
        // The damaged frame was cut off, so appending continues cleanly.
        push_all(&mut j, &evs[50..120], 50);
        assert_eq!(collect(&mut j), evs[..120]);
        let _ = fs::remove_dir_all(&dir);
    }
}
