//! The [`Source`] abstraction: anything that can feed time-ordered
//! [`PacketRecord`]s to the detection pipeline in batches.
//!
//! Historically the ingest loop was hard-wired to an `L6TR` trace file,
//! which forces every workload through a materialize-then-scan cycle: the
//! fleet simulator must write the whole trace to disk (or RAM) before the
//! first packet reaches a detector. At paper scale — 2.14 B packets — that
//! trace is ~100 GB and the materialization dominates the run. `Source`
//! decouples the pipeline from the file: a session pulls batches from *any*
//! source, and each source defines its own resumable position space so
//! checkpoint/resume keeps working.
//!
//! Five implementations exist:
//!
//! - [`MaterializedSource`] — an in-memory, already-sorted record vector
//!   (what the simulators and tests produce). Positions are record indices.
//! - [`FileStreamSource`] — a bounded-memory streaming decoder over an
//!   `L6TR` file (wrapping [`TraceReader`]). Positions are byte offsets,
//!   exactly as session checkpoints always recorded them, so pre-existing
//!   checkpoints resume unchanged.
//! - [`TailSource`] — a live, non-blocking tail of an `L6TR` file another
//!   process is still writing, following truncation and rotation. Positions
//!   are byte offsets within the current file.
//! - `FleetSource` (in `lumen6-scanners`, which depends on this crate) —
//!   synthesizes batches directly from the fleet actors in timestamp order,
//!   never materializing a trace. Positions are record indices.
//! - `ParallelFleetSource` (also in `lumen6-scanners`) — the same stream,
//!   generated by N worker threads and reassembled by a deterministic
//!   merge; byte-identical to `FleetSource` at any thread count, and its
//!   positions are interchangeable with `FleetSource`'s, so a checkpoint
//!   written at one `gen_threads` resumes at any other.
//!
//! The two `L6TR` sources share the decoder: [`FileStreamSource`] delegates
//! to [`TraceReader::fill`], and [`TailSource`] validates the header and
//! decodes its read window with the same header check and record parser
//! the reader uses, so both accept and reject exactly the same bytes.
//!
//! The [`TracePosition`] type is reused as the position for all sources;
//! its `offset` field is *source-defined* (bytes for the file stream,
//! record index for the others). A position is only meaningful to the kind
//! of source that produced it — the same contract a byte offset always had.

use crate::batch::RecordBatch;
use crate::codec::{
    check_header, decode_record_at, note_decode_error, CodecError, TracePosition, TraceReader,
    HEADER_LEN, MAX_RECORD_LEN,
};
use crate::record::PacketRecord;
use lumen6_obs::MetricsRegistry;
use std::fs::{self, File};
use std::io::{self, Read as _, Seek as _};
use std::path::{Path, PathBuf};

/// Result of one non-blocking [`Source::poll_fill`] pull.
///
/// Finite sources only ever report `Filled` or `Eof`; `Pending` exists for
/// live sources (a [`TailSource`] over a file another process is still
/// writing) where "no records right now" is not "no records ever". A
/// scheduler multiplexing many sessions reacts to `Pending` by moving on to
/// another tenant instead of blocking a worker thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FillOutcome {
    /// `out` holds this many records (≥ 1).
    Filled(usize),
    /// No records are available right now, but the stream has not ended —
    /// poll again later.
    Pending,
    /// End of stream; no further records will ever arrive.
    Eof,
}

/// A resumable, batch-oriented producer of time-ordered packet records.
///
/// # Contract
///
/// - [`fill`](Source::fill) clears `out`, appends up to `max` records in
///   non-decreasing timestamp order (continuing from the previous call),
///   and returns how many it appended. Returning `0` means end of stream;
///   callers must treat `max == 0` as unsupported (implementations may
///   still produce one record).
/// - [`position`](Source::position) identifies the boundary after the last
///   record returned, in the source's own offset space; feeding it to
///   [`resume`](Source::resume) on a source of the same kind over the same
///   underlying data continues the stream exactly there.
/// - Sources that can skip malformed records report the running total via
///   [`skipped`](Source::skipped).
pub trait Source: Send {
    /// Clears `out` and appends up to `max` records; `Ok(0)` = end of
    /// stream. Errors follow [`CodecError`] semantics: records decoded
    /// before an error are delivered first (as a short batch), the error
    /// surfaces on the next call, and the source fuses after it.
    fn fill(&mut self, out: &mut RecordBatch, max: usize) -> Result<usize, CodecError>;

    /// Non-blocking variant of [`fill`](Source::fill): clears `out`,
    /// appends up to `max` records, and distinguishes "nothing *yet*"
    /// ([`FillOutcome::Pending`]) from "nothing *ever again*"
    /// ([`FillOutcome::Eof`]). The default delegates to `fill`, which is
    /// correct for every finite source (they never need to wait); live
    /// sources like [`TailSource`] override it and never block.
    fn poll_fill(&mut self, out: &mut RecordBatch, max: usize) -> Result<FillOutcome, CodecError> {
        match self.fill(out, max)? {
            0 => Ok(FillOutcome::Eof),
            n => Ok(FillOutcome::Filled(n)),
        }
    }

    /// The resumable position after the most recently delivered record.
    fn position(&self) -> TracePosition;

    /// Repositions the stream at `at` (a value previously obtained from
    /// [`position`](Source::position) on the same kind of source).
    fn resume(&mut self, at: TracePosition) -> Result<(), CodecError>;

    /// Malformed records skipped so far (permissive decoding); `0` for
    /// sources that cannot produce malformed records.
    fn skipped(&self) -> u64 {
        0
    }
}

/// A [`Source`] over an in-memory, time-sorted record vector. Positions are
/// record indices.
///
/// ```
/// use lumen6_trace::{MaterializedSource, PacketRecord, RecordBatch, Source};
/// let recs: Vec<PacketRecord> =
///     (0..10).map(|i| PacketRecord::tcp(i, 1, 2, 1000, 22, 60)).collect();
/// let mut src = MaterializedSource::new(recs.clone());
/// let mut batch = RecordBatch::new();
/// assert_eq!(src.fill(&mut batch, 4).unwrap(), 4);
/// let pos = src.position();
/// assert_eq!(pos.offset, 4);
/// src.resume(pos).unwrap();
/// assert_eq!(src.fill(&mut batch, 100).unwrap(), 6);
/// assert_eq!(src.fill(&mut batch, 100).unwrap(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct MaterializedSource {
    records: Vec<PacketRecord>,
    pos: usize,
}

impl MaterializedSource {
    /// Wraps a time-sorted record vector.
    pub fn new(records: Vec<PacketRecord>) -> Self {
        MaterializedSource { records, pos: 0 }
    }

    /// Total records (consumed and not).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

impl Source for MaterializedSource {
    fn fill(&mut self, out: &mut RecordBatch, max: usize) -> Result<usize, CodecError> {
        out.clear();
        let n = max.min(self.records.len() - self.pos);
        for r in &self.records[self.pos..self.pos + n] {
            out.push(*r);
        }
        self.pos += n;
        Ok(n)
    }

    fn position(&self) -> TracePosition {
        TracePosition {
            offset: self.pos as u64,
            prev_ts: if self.pos > 0 {
                self.records[self.pos - 1].ts_ms
            } else {
                0
            },
        }
    }

    fn resume(&mut self, at: TracePosition) -> Result<(), CodecError> {
        let pos = usize::try_from(at.offset).unwrap_or(usize::MAX);
        if pos > self.records.len() {
            return Err(CodecError::Io(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "resume offset {pos} beyond materialized trace of {} records",
                    self.records.len()
                ),
            )));
        }
        self.pos = pos;
        Ok(())
    }
}

/// A [`Source`] streaming an `L6TR` trace file in bounded memory. Positions
/// are byte offsets — the same values session checkpoints have always
/// stored, so existing checkpoints resume through this source unchanged.
#[derive(Debug)]
pub struct FileStreamSource {
    path: PathBuf,
    reader: TraceReader<File>,
    permissive: bool,
}

impl FileStreamSource {
    /// Opens `path` and validates the `L6TR` header.
    pub fn open(path: &Path) -> Result<Self, CodecError> {
        Ok(FileStreamSource {
            path: path.to_path_buf(),
            reader: TraceReader::new(File::open(path)?)?,
            permissive: false,
        })
    }

    /// Enables or disables permissive decoding (recoverable per-record
    /// errors are skipped and counted instead of ending the stream).
    pub fn permissive(mut self, yes: bool) -> Self {
        self.permissive = yes;
        self.reader = self.reader.permissive(yes);
        self
    }
}

impl Source for FileStreamSource {
    fn fill(&mut self, out: &mut RecordBatch, max: usize) -> Result<usize, CodecError> {
        self.reader.fill(out, max)
    }

    fn position(&self) -> TracePosition {
        self.reader.position()
    }

    fn resume(&mut self, at: TracePosition) -> Result<(), CodecError> {
        let file = File::open(&self.path)?;
        self.reader = TraceReader::resume(file, at)?.permissive(self.permissive);
        Ok(())
    }

    fn skipped(&self) -> u64 {
        self.reader.skipped()
    }
}

/// Whether two metadata handles describe the same file. Rotation-by-rename
/// is detected by inode identity on Unix; elsewhere only in-place
/// truncation (length shrink) is detectable.
#[cfg(unix)]
fn same_file(a: &fs::Metadata, b: &fs::Metadata) -> bool {
    use std::os::unix::fs::MetadataExt;
    a.dev() == b.dev() && a.ino() == b.ino()
}

#[cfg(not(unix))]
fn same_file(_a: &fs::Metadata, _b: &fs::Metadata) -> bool {
    true
}

/// A live [`Source`] tailing an `L6TR` file that another process is still
/// writing — the daemon-side ingest the one-shot [`FileStreamSource`]
/// cannot provide.
///
/// Each [`poll_fill`](Source::poll_fill) stats the file and decodes only
/// the *complete* records appended since the last poll:
///
/// - a **partial trailing record** (the writer is mid-append) is never
///   consumed; the poll returns what precedes it and retries the same
///   boundary next time;
/// - **truncation in place** (the file shrank below the read offset)
///   restarts decode from the header, counted under
///   `trace.tail.truncations`;
/// - **rotation by rename** (the path now names a different inode) drains
///   the remaining complete records of the old incarnation from the held
///   handle, then switches to the successor file and counts
///   `trace.tail.rotations`. A partial record stranded at the end of a
///   rotated-away file can never complete and is discarded (counted under
///   `trace.tail.discarded_bytes`);
/// - recoverable per-record decode errors follow the same permissive
///   quarantine contract as [`FileStreamSource`].
///
/// A tail never ends on its own: end of stream is declared out of band by
/// creating the [`eof_marker`](TailSource::eof_marker) sentinel file next
/// to the trace, after which a fully drained tail reports
/// [`FillOutcome::Eof`]. The blocking [`fill`](Source::fill) sleeps between
/// polls until then.
///
/// [`position`](Source::position)/[`resume`](Source::resume) carry byte
/// offsets within the *current incarnation*: a position taken before a
/// rotation resumes into the successor file's offset space, exactly like
/// re-opening a [`FileStreamSource`] on the new file.
#[derive(Debug)]
pub struct TailSource {
    path: PathBuf,
    file: Option<File>,
    /// Byte offset of the next un-decoded byte in the current incarnation.
    offset: u64,
    prev_ts: u64,
    header_done: bool,
    permissive: bool,
    done: bool,
    pending_err: Option<CodecError>,
    skipped: u64,
    rotations: u64,
    truncations: u64,
    window: Vec<u8>,
}

impl TailSource {
    /// Tails `path`. The file does not have to exist yet: polls report
    /// [`FillOutcome::Pending`] until the writer creates it.
    pub fn open(path: &Path) -> Self {
        TailSource {
            path: path.to_path_buf(),
            file: None,
            offset: 0,
            prev_ts: 0,
            header_done: false,
            permissive: false,
            done: false,
            pending_err: None,
            skipped: 0,
            rotations: 0,
            truncations: 0,
            window: Vec::new(),
        }
    }

    /// Enables or disables permissive decoding (recoverable per-record
    /// errors are skipped and counted instead of ending the stream).
    pub fn permissive(mut self, yes: bool) -> Self {
        self.permissive = yes;
        self
    }

    /// The sentinel path whose existence declares `path` finished: create
    /// this file when no further records will be appended and the tail
    /// reports [`FillOutcome::Eof`] once fully drained.
    pub fn eof_marker(path: &Path) -> PathBuf {
        PathBuf::from(format!("{}.eof", path.display()))
    }

    /// Rotations (path renamed to a new inode) observed so far.
    pub fn rotations(&self) -> u64 {
        self.rotations
    }

    /// In-place truncations observed so far.
    pub fn truncations(&self) -> u64 {
        self.truncations
    }

    /// Discards the current incarnation and re-opens `path` from the top.
    fn restart_incarnation(&mut self) {
        self.file = None;
        self.offset = 0;
        self.prev_ts = 0;
        self.header_done = false;
    }

    /// Decodes complete records from `[offset, flen)` of the held file into
    /// `out`. Returns `Ok(true)` if decoding is blocked on a partial
    /// trailing record (more bytes needed), `Ok(false)` once everything
    /// available was consumed or `out` holds `max` records.
    fn decode_available(
        &mut self,
        out: &mut RecordBatch,
        max: usize,
        flen: u64,
    ) -> Result<bool, CodecError> {
        let Some(file) = self.file.as_mut() else {
            return Ok(false);
        };
        if !self.header_done {
            if flen < HEADER_LEN as u64 {
                return Ok(flen > 0);
            }
            let mut header = [0u8; HEADER_LEN];
            file.seek(io::SeekFrom::Start(0))?;
            file.read_exact(&mut header)?;
            check_header(&header)?;
            self.header_done = true;
            self.offset = HEADER_LEN as u64;
        }
        // Each window holds the rest of this poll's budget: `max - out.len()`
        // records at the worst-case encoded length. Records skipped in
        // permissive mode take window space without filling `out`, so a
        // window that ends before end-of-file is followed by the next one.
        loop {
            let avail = flen.saturating_sub(self.offset);
            if avail == 0 || out.len() >= max {
                return Ok(false);
            }
            // The read may come up short if the file shrinks mid-poll;
            // decode only what actually arrived.
            let want = usize::try_from(avail)
                .unwrap_or(usize::MAX)
                .min((max - out.len()).saturating_mul(MAX_RECORD_LEN));
            self.window.resize(want, 0);
            file.seek(io::SeekFrom::Start(self.offset))?;
            let mut got = 0;
            while got < want {
                let n = file.read(&mut self.window[got..])?;
                if n == 0 {
                    break;
                }
                got += n;
            }
            let data = &self.window[..got];
            let at_eof = self.offset + got as u64 >= flen;
            let mut pos = 0usize;
            let mut failed = None;
            while out.len() < max {
                match decode_record_at(data, &mut pos, &mut self.prev_ts) {
                    Ok(r) => out.push(r),
                    // The window ends inside (or right after) a record,
                    // which is left unconsumed.
                    Err(CodecError::Truncated) => break,
                    Err(e) if self.permissive && e.is_recoverable() => {
                        self.skipped += 1;
                        MetricsRegistry::global()
                            .counter(&format!("trace.tail.skipped.{}", e.kind()))
                            .inc();
                    }
                    Err(e) => {
                        failed = Some(e);
                        break;
                    }
                }
            }
            // Commit what was consumed even on an error, so the position
            // matches the file reader's: past a bad record, before a
            // framing error.
            self.offset += pos as u64;
            match failed {
                Some(e) if out.is_empty() => return Err(e),
                Some(e) => {
                    self.pending_err = Some(e);
                    return Ok(false);
                }
                None => {}
            }
            if at_eof {
                // Bytes left over at end-of-file with budget to spare are
                // the writer's partial trailing record.
                return Ok(out.len() < max && pos < data.len());
            }
            if pos == 0 {
                // No progress: the file shrank mid-poll. The next poll
                // sees the truncation.
                return Ok(false);
            }
        }
    }

    /// One poll over at most two incarnations of the file: the first pass
    /// drains the current file; if it rotated away empty, the second pass
    /// reads the successor.
    fn poll_incarnations(
        &mut self,
        out: &mut RecordBatch,
        max: usize,
    ) -> Result<FillOutcome, CodecError> {
        for _ in 0..2 {
            if self.file.is_none() {
                match File::open(&self.path) {
                    Ok(f) => self.file = Some(f),
                    Err(e) if e.kind() == io::ErrorKind::NotFound => {
                        return Ok(FillOutcome::Pending)
                    }
                    Err(e) => return Err(e.into()),
                }
            }
            let (flen, rotated) = {
                let Some(file) = self.file.as_ref() else {
                    return Ok(FillOutcome::Pending);
                };
                let hmeta = file.metadata()?;
                let rotated = match fs::metadata(&self.path) {
                    Ok(m) => !same_file(&m, &hmeta),
                    // Renamed away with no successor yet: treat as rotated
                    // and wait for the new file.
                    Err(e) if e.kind() == io::ErrorKind::NotFound => true,
                    Err(e) => return Err(e.into()),
                };
                (hmeta.len(), rotated)
            };
            if !rotated && flen < self.offset {
                // Truncated in place: the offset space restarted, so must we.
                self.truncations += 1;
                MetricsRegistry::global()
                    .counter("trace.tail.truncations")
                    .inc();
                self.restart_incarnation();
                continue;
            }
            let blocked_on_partial = self.decode_available(out, max, flen)?;
            if !out.is_empty() {
                return Ok(FillOutcome::Filled(out.len()));
            }
            if rotated {
                // Old incarnation fully drained of complete records. A
                // stranded partial tail can never complete — discard it.
                let consumed = if self.header_done {
                    HEADER_LEN as u64
                } else {
                    0
                };
                let stranded = flen.saturating_sub(self.offset.max(consumed));
                if stranded > 0 {
                    MetricsRegistry::global()
                        .counter("trace.tail.discarded_bytes")
                        .add(stranded);
                }
                self.rotations += 1;
                MetricsRegistry::global()
                    .counter("trace.tail.rotations")
                    .inc();
                self.restart_incarnation();
                continue;
            }
            if Self::eof_marker(&self.path).exists() {
                if self.offset >= flen && !blocked_on_partial {
                    self.done = true;
                    return Ok(FillOutcome::Eof);
                }
                // Declared finished mid-record: genuine truncation.
                return Err(CodecError::Truncated);
            }
            return Ok(FillOutcome::Pending);
        }
        Ok(FillOutcome::Pending)
    }
}

impl Source for TailSource {
    /// Blocking drive of the tail: sleeps between polls until records or
    /// the [`eof_marker`](TailSource::eof_marker) arrive. Prefer
    /// [`poll_fill`](Source::poll_fill) in anything multiplexing sessions.
    fn fill(&mut self, out: &mut RecordBatch, max: usize) -> Result<usize, CodecError> {
        loop {
            match self.poll_fill(out, max)? {
                FillOutcome::Filled(n) => return Ok(n),
                FillOutcome::Eof => return Ok(0),
                FillOutcome::Pending => std::thread::sleep(std::time::Duration::from_millis(2)),
            }
        }
    }

    fn poll_fill(&mut self, out: &mut RecordBatch, max: usize) -> Result<FillOutcome, CodecError> {
        out.clear();
        if self.done {
            return Ok(FillOutcome::Eof);
        }
        let polled = match self.pending_err.take() {
            Some(e) => Err(e),
            None => self.poll_incarnations(out, max.max(1)),
        };
        // Every error ends the tail and is counted once under
        // `trace.codec.errors.<kind>`, as the file reader counts its own.
        polled.inspect_err(|e| {
            self.done = true;
            note_decode_error(e);
        })
    }

    fn position(&self) -> TracePosition {
        TracePosition {
            offset: self.offset,
            prev_ts: self.prev_ts,
        }
    }

    fn resume(&mut self, at: TracePosition) -> Result<(), CodecError> {
        self.file = None;
        self.done = false;
        self.pending_err = None;
        if at.offset < HEADER_LEN as u64 {
            self.offset = 0;
            self.prev_ts = 0;
            self.header_done = false;
        } else {
            self.offset = at.offset;
            self.prev_ts = at.prev_ts;
            self.header_done = true;
        }
        Ok(())
    }

    fn skipped(&self) -> u64 {
        self.skipped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::encode;

    fn recs(n: u64) -> Vec<PacketRecord> {
        (0..n)
            .map(|i| PacketRecord::tcp(i * 7, i as u128, (i * 3) as u128, 1, 22, 60))
            .collect()
    }

    fn write_trace(records: &[PacketRecord]) -> tempdir::ScopedFile {
        let bytes = encode(records).expect("encode");
        tempdir::ScopedFile::with_bytes(&bytes)
    }

    /// Minimal scoped temp-file helper (no external tempfile dep).
    mod tempdir {
        use std::path::{Path, PathBuf};

        pub struct ScopedFile {
            path: PathBuf,
        }

        impl ScopedFile {
            pub fn with_bytes(bytes: &[u8]) -> Self {
                use std::sync::atomic::{AtomicU64, Ordering};
                static SEQ: AtomicU64 = AtomicU64::new(0);
                let path = std::env::temp_dir().join(format!(
                    "lumen6-source-test-{}-{}",
                    std::process::id(),
                    SEQ.fetch_add(1, Ordering::Relaxed)
                ));
                std::fs::write(&path, bytes).expect("write temp trace");
                ScopedFile { path }
            }

            pub fn path(&self) -> &Path {
                &self.path
            }
        }

        impl Drop for ScopedFile {
            fn drop(&mut self) {
                let _ = std::fs::remove_file(&self.path);
            }
        }
    }

    fn drain(src: &mut dyn Source, max: usize) -> Vec<PacketRecord> {
        let mut out = Vec::new();
        let mut batch = RecordBatch::new();
        loop {
            let n = src.fill(&mut batch, max).expect("fill");
            if n == 0 {
                break;
            }
            out.extend(batch.iter());
        }
        out
    }

    #[test]
    fn materialized_source_yields_everything_in_batches() {
        let want = recs(1000);
        for max in [1, 7, 256, 5000] {
            let mut src = MaterializedSource::new(want.clone());
            assert_eq!(drain(&mut src, max), want, "max={max}");
        }
    }

    #[test]
    fn materialized_source_position_resume_roundtrip() {
        let want = recs(100);
        let mut src = MaterializedSource::new(want.clone());
        let mut batch = RecordBatch::new();
        assert_eq!(src.fill(&mut batch, 40).unwrap(), 40);
        let pos = src.position();
        assert_eq!(pos.offset, 40);
        assert_eq!(pos.prev_ts, want[39].ts_ms);
        // A fresh source resumed at that position yields exactly the tail.
        let mut fresh = MaterializedSource::new(want.clone());
        fresh.resume(pos).unwrap();
        assert_eq!(drain(&mut fresh, 33), want[40..].to_vec());
        // Beyond-end offsets are rejected, not a panic.
        assert!(fresh
            .resume(TracePosition {
                offset: 101,
                prev_ts: 0
            })
            .is_err());
    }

    #[test]
    fn file_stream_source_matches_materialized() {
        let want = recs(2_000);
        let f = write_trace(&want);
        for max in [1, 64, 4096] {
            let mut src = FileStreamSource::open(f.path()).expect("open");
            assert_eq!(drain(&mut src, max), want, "max={max}");
        }
    }

    #[test]
    fn file_stream_source_resume_continues_exactly() {
        let want = recs(1_500);
        let f = write_trace(&want);
        let mut src = FileStreamSource::open(f.path()).expect("open");
        let mut batch = RecordBatch::new();
        let mut head = Vec::new();
        for _ in 0..3 {
            src.fill(&mut batch, 250).unwrap();
            head.extend(batch.iter());
        }
        let pos = src.position();
        assert_eq!(
            pos.prev_ts,
            head.last().map_or(0, |r: &PacketRecord| r.ts_ms)
        );
        let mut fresh = FileStreamSource::open(f.path()).expect("open");
        fresh.resume(pos).unwrap();
        head.extend(drain(&mut fresh, 123));
        assert_eq!(head, want);
    }

    #[test]
    fn file_stream_source_surfaces_error_after_partial_batch_then_fuses() {
        let want = recs(10);
        let bytes = encode(&want).expect("encode");
        let cut = &bytes[..bytes.len() - 3];
        let f = tempdir::ScopedFile::with_bytes(cut);
        let mut src = FileStreamSource::open(f.path()).expect("open");
        let mut batch = RecordBatch::new();
        // Everything before the cut arrives as (possibly short) batches...
        let mut got = 0;
        let err = loop {
            match src.fill(&mut batch, 4) {
                Ok(0) => panic!("stream must end in an error, not EOF"),
                Ok(n) => got += n,
                Err(e) => break e,
            }
        };
        assert_eq!(got, 9, "records before the truncation decode fine");
        assert!(matches!(err, CodecError::Truncated));
        // Fused after the error.
        assert_eq!(src.fill(&mut batch, 4).unwrap(), 0);
    }

    #[test]
    fn file_stream_source_missing_file_is_io() {
        let err = FileStreamSource::open(Path::new("/nonexistent/lumen6-nope.l6tr")).unwrap_err();
        assert!(matches!(err, CodecError::Io(_)));
    }

    /// A scoped temp directory for tail tests that rewrite/rename files.
    struct ScopedDir {
        path: PathBuf,
    }

    impl ScopedDir {
        fn new(tag: &str) -> Self {
            use std::sync::atomic::{AtomicU64, Ordering};
            static SEQ: AtomicU64 = AtomicU64::new(0);
            let path = std::env::temp_dir().join(format!(
                "lumen6-tail-{tag}-{}-{}",
                std::process::id(),
                SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::create_dir_all(&path).expect("create temp dir");
            ScopedDir { path }
        }

        fn file(&self, name: &str) -> PathBuf {
            self.path.join(name)
        }
    }

    impl Drop for ScopedDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.path);
        }
    }

    fn poll_all(src: &mut TailSource, max: usize) -> (Vec<PacketRecord>, FillOutcome) {
        let mut out = Vec::new();
        let mut batch = RecordBatch::new();
        loop {
            match src.poll_fill(&mut batch, max).expect("poll") {
                FillOutcome::Filled(_) => out.extend(batch.iter()),
                other => return (out, other),
            }
        }
    }

    #[test]
    fn tail_source_partial_trailing_record_is_never_consumed() {
        let want = recs(20);
        let bytes = encode(&want).expect("encode");
        let dir = ScopedDir::new("partial");
        let path = dir.file("t.l6tr");
        // Write everything except the last 4 bytes: the final record is a
        // partial tail the writer has not finished appending.
        std::fs::write(&path, &bytes[..bytes.len() - 4]).unwrap();

        let mut src = TailSource::open(&path);
        let (got, state) = poll_all(&mut src, 7);
        assert_eq!(got, want[..19], "only complete records delivered");
        assert_eq!(state, FillOutcome::Pending, "partial tail means pending");
        assert_eq!(src.skipped(), 0);

        // The writer completes the record and declares EOF.
        std::fs::write(&path, &bytes).unwrap();
        std::fs::write(TailSource::eof_marker(&path), b"").unwrap();
        let mut batch = RecordBatch::new();
        assert_eq!(
            src.poll_fill(&mut batch, 100).unwrap(),
            FillOutcome::Filled(1)
        );
        assert_eq!(batch.get(0), want[19]);
        assert_eq!(src.poll_fill(&mut batch, 100).unwrap(), FillOutcome::Eof);
    }

    #[test]
    fn tail_source_sees_appends_between_polls() {
        let want = recs(300);
        let bytes = encode(&want).expect("encode");
        let dir = ScopedDir::new("append");
        let path = dir.file("t.l6tr");
        // Nothing on disk yet: the tail waits for the writer.
        let mut src = TailSource::open(&path);
        let mut batch = RecordBatch::new();
        assert_eq!(src.poll_fill(&mut batch, 10).unwrap(), FillOutcome::Pending);

        // Appear in three installments, each an exact record boundary plus
        // a ragged cut, polled in between.
        let cuts = [bytes.len() / 3, 2 * bytes.len() / 3, bytes.len()];
        let mut got = Vec::new();
        for cut in cuts {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let (part, state) = poll_all(&mut src, 64);
            got.extend(part);
            assert_eq!(state, FillOutcome::Pending, "cut={cut}");
        }
        std::fs::write(TailSource::eof_marker(&path), b"").unwrap();
        let (rest, state) = poll_all(&mut src, 64);
        got.extend(rest);
        assert_eq!(state, FillOutcome::Eof);
        assert_eq!(got, want);
        assert_eq!(src.rotations(), 0);
        assert_eq!(src.truncations(), 0);
    }

    #[test]
    fn tail_source_truncation_restarts_from_header() {
        let first = recs(50);
        let second: Vec<PacketRecord> = (0..30u64)
            .map(|i| PacketRecord::udp(1_000_000 + i, 0xaa, i as u128, 1, 53, 90))
            .collect();
        let dir = ScopedDir::new("trunc");
        let path = dir.file("t.l6tr");
        std::fs::write(&path, encode(&first).unwrap()).unwrap();

        let reg = MetricsRegistry::global();
        let trunc_before = reg.counter("trace.tail.truncations").get();

        let mut src = TailSource::open(&path);
        let (got, state) = poll_all(&mut src, 16);
        assert_eq!(got, first);
        assert_eq!(state, FillOutcome::Pending);

        // The writer truncates and starts a fresh stream in place.
        std::fs::write(&path, encode(&second).unwrap()).unwrap();
        std::fs::write(TailSource::eof_marker(&path), b"").unwrap();
        let (got, state) = poll_all(&mut src, 16);
        assert_eq!(got, second, "decode restarted from the new header");
        assert_eq!(state, FillOutcome::Eof);
        assert_eq!(src.truncations(), 1);
        assert!(reg.counter("trace.tail.truncations").get() > trunc_before);
    }

    #[cfg(unix)]
    #[test]
    fn tail_source_rotation_by_rename_drains_old_then_follows_new() {
        let old_recs = recs(40);
        let new_recs: Vec<PacketRecord> = (0..25u64)
            .map(|i| PacketRecord::tcp(9_000_000 + i, 0xbb, i as u128, 1, 443, 60))
            .collect();
        let dir = ScopedDir::new("rotate");
        let path = dir.file("t.l6tr");
        std::fs::write(&path, encode(&old_recs).unwrap()).unwrap();

        let reg = MetricsRegistry::global();
        let rot_before = reg.counter("trace.tail.rotations").get();

        let mut src = TailSource::open(&path);
        let mut batch = RecordBatch::new();
        // Read part of the old file, then rotate underneath the tail.
        assert_eq!(
            src.poll_fill(&mut batch, 15).unwrap(),
            FillOutcome::Filled(15)
        );
        let mut got: Vec<PacketRecord> = batch.iter().collect();
        std::fs::rename(&path, dir.file("t.l6tr.1")).unwrap();
        std::fs::write(&path, encode(&new_recs).unwrap()).unwrap();
        std::fs::write(TailSource::eof_marker(&path), b"").unwrap();

        let (rest, state) = poll_all(&mut src, 15);
        got.extend(rest);
        assert_eq!(state, FillOutcome::Eof);
        let mut want = old_recs.clone();
        want.extend(&new_recs);
        assert_eq!(got, want, "old incarnation drained before the successor");
        assert_eq!(src.rotations(), 1);
        assert!(reg.counter("trace.tail.rotations").get() > rot_before);
    }

    #[test]
    fn tail_source_permissive_quarantines_field_overflow() {
        // Reuse the codec test vector: record 5 has an out-of-range dport.
        let (bytes, expected) = crate::codec::tests_support::bytes_with_bad_dport();
        let dir = ScopedDir::new("quarantine");
        let path = dir.file("t.l6tr");
        std::fs::write(&path, &bytes).unwrap();
        std::fs::write(TailSource::eof_marker(&path), b"").unwrap();

        let reg = MetricsRegistry::global();
        let skip_before = reg.counter("trace.tail.skipped.field_overflow").get();

        let mut src = TailSource::open(&path).permissive(true);
        let (got, state) = poll_all(&mut src, 4);
        assert_eq!(got, expected);
        assert_eq!(state, FillOutcome::Eof);
        assert_eq!(src.skipped(), 1);
        assert!(reg.counter("trace.tail.skipped.field_overflow").get() > skip_before);

        // Strict mode surfaces the same stream as an error instead.
        let mut strict = TailSource::open(&path);
        let mut batch = RecordBatch::new();
        let err = loop {
            match strict.poll_fill(&mut batch, 4) {
                Ok(FillOutcome::Filled(_)) => {}
                Ok(other) => panic!("strict tail must error, got {other:?}"),
                Err(e) => break e,
            }
        };
        assert!(matches!(err, CodecError::FieldOverflow("dport", _)));
        // Fused after the error.
        assert_eq!(strict.poll_fill(&mut batch, 4).unwrap(), FillOutcome::Eof);
    }

    #[test]
    fn tail_source_position_resume_roundtrip() {
        let want = recs(200);
        let dir = ScopedDir::new("resume");
        let path = dir.file("t.l6tr");
        std::fs::write(&path, encode(&want).unwrap()).unwrap();
        std::fs::write(TailSource::eof_marker(&path), b"").unwrap();

        let mut src = TailSource::open(&path);
        let mut batch = RecordBatch::new();
        assert_eq!(
            src.poll_fill(&mut batch, 80).unwrap(),
            FillOutcome::Filled(80)
        );
        let pos = src.position();
        assert_eq!(pos.prev_ts, batch.get(79).ts_ms);

        let mut fresh = TailSource::open(&path);
        fresh.resume(pos).unwrap();
        let (tail, state) = poll_all(&mut fresh, 33);
        assert_eq!(state, FillOutcome::Eof);
        assert_eq!(tail, want[80..].to_vec());
    }

    /// What draining a source to its end yields: the records, the skip
    /// count, the final position, and the kind of the error that ended it
    /// (`None` at a clean end of stream).
    #[derive(Debug, PartialEq)]
    struct Drained {
        records: Vec<PacketRecord>,
        skipped: u64,
        position: TracePosition,
        error: Option<&'static str>,
    }

    fn drain_to_end(src: &mut dyn Source, max: usize) -> Drained {
        let mut records = Vec::new();
        let mut batch = RecordBatch::new();
        let error = loop {
            match src.fill(&mut batch, max) {
                Ok(0) => break None,
                Ok(_) => records.extend(batch.iter()),
                Err(e) => break Some(e.kind()),
            }
        };
        Drained {
            records,
            skipped: src.skipped(),
            position: src.position(),
            error,
        }
    }

    #[test]
    fn file_and_tail_decode_agree() {
        let clean = encode(&recs(30)).expect("encode");
        let (overflow, _) = crate::codec::tests_support::bytes_with_bad_dport();
        let cut = &clean[..clean.len() - 3];
        let mut bad_magic = clean.clone();
        bad_magic[..4].copy_from_slice(b"NOPE");
        let cases: [(&str, &[u8], bool); 5] = [
            ("clean", &clean, false),
            ("overflow-permissive", &overflow, true),
            ("overflow-strict", &overflow, false),
            ("cut-mid-record", cut, false),
            ("bad-magic", &bad_magic, false),
        ];
        // Batch size 1 puts every error first in its batch; 4 puts the
        // strict overflow (record 5) after a record in the same batch.
        for ((name, bytes, permissive), max) in cases.into_iter().flat_map(|c| [(c, 1), (c, 4)]) {
            let dir = ScopedDir::new("agree");
            let path = dir.file("t.l6tr");
            std::fs::write(&path, bytes).unwrap();
            std::fs::write(TailSource::eof_marker(&path), b"").unwrap();
            let file = match FileStreamSource::open(&path) {
                Ok(src) => drain_to_end(&mut src.permissive(permissive), max),
                // A header the reader rejects consumed nothing.
                Err(e) => Drained {
                    records: Vec::new(),
                    skipped: 0,
                    position: TracePosition {
                        offset: 0,
                        prev_ts: 0,
                    },
                    error: Some(e.kind()),
                },
            };
            let tail = drain_to_end(&mut TailSource::open(&path).permissive(permissive), max);
            assert_eq!(file, tail, "{name} max={max}");
            let want_error = match name {
                "clean" | "overflow-permissive" => None,
                "overflow-strict" => Some("field_overflow"),
                "cut-mid-record" => Some("truncated"),
                _ => Some("bad_magic"),
            };
            assert_eq!(tail.error, want_error, "{name} max={max}");
        }
    }

    #[test]
    fn tail_source_counts_fatal_decode_errors() {
        let mut bytes = encode(&recs(5)).expect("encode");
        bytes[..4].copy_from_slice(b"NOPE");
        let dir = ScopedDir::new("badmagic");
        let path = dir.file("t.l6tr");
        std::fs::write(&path, &bytes).unwrap();

        let reg = MetricsRegistry::global();
        let before = reg.counter("trace.codec.errors.bad_magic").get();

        let mut src = TailSource::open(&path);
        let mut batch = RecordBatch::new();
        let err = src.poll_fill(&mut batch, 4).unwrap_err();
        assert!(matches!(err, CodecError::BadMagic(_)));
        // Fused after the error.
        assert_eq!(src.poll_fill(&mut batch, 4).unwrap(), FillOutcome::Eof);

        // Tests share the global registry, so assert monotone growth
        // rather than exact deltas.
        assert!(reg.counter("trace.codec.errors.bad_magic").get() > before);
    }
}
