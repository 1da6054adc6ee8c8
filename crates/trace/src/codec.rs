//! Compact binary trace format with streaming reader/writer.
//!
//! Layout:
//!
//! ```text
//! magic  b"L6TR"          4 bytes
//! version u8              currently 1
//! record*:
//!   delta_ts  varint      ms since previous record (first: since 0)
//!   src       16 bytes    big-endian u128
//!   dst       16 bytes    big-endian u128
//!   proto     1 byte      IP next-header value
//!   sport     varint
//!   dport     varint
//!   len       varint
//! ```
//!
//! Timestamps must be non-decreasing (delta encoding); the writer enforces
//! this. Varints are LEB128 (7 bits per byte). The format is intentionally
//! simple: a 439-day scaled trace (a few million records) encodes in tens of
//! MB and reads back at memory bandwidth.

use crate::batch::RecordBatch;
use crate::record::{PacketRecord, Transport};
use bytes::{BufMut, BytesMut};
use lumen6_obs::MetricsRegistry;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::io::{self, Read, Write};

/// Locally accumulated decode telemetry, flushed to the global
/// [`MetricsRegistry`] when the owning reader drops — per-record cost is a
/// plain `u64` increment, with zero atomic operations on the hot path.
#[derive(Debug, Default)]
struct DecodeStats {
    records: u64,
    bytes: u64,
    refills: u64,
}

impl DecodeStats {
    fn flush(&mut self) {
        let reg = MetricsRegistry::global();
        if self.records > 0 {
            reg.counter("trace.codec.records_decoded").add(self.records);
        }
        if self.bytes > 0 {
            reg.counter("trace.codec.bytes_read").add(self.bytes);
        }
        if self.refills > 0 {
            reg.counter("trace.codec.refills").add(self.refills);
        }
        // Zero field-by-field: `*self = default()` would drop the old value
        // and recurse through this Drop impl.
        self.records = 0;
        self.bytes = 0;
        self.refills = 0;
    }
}

impl Drop for DecodeStats {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Counts one decode error under `trace.codec.errors.<variant>`. Errors are
/// rare, so these hit the global registry directly.
pub(crate) fn note_decode_error(e: &CodecError) {
    MetricsRegistry::global()
        .counter(&format!("trace.codec.errors.{}", e.kind()))
        .inc();
}

/// File magic.
pub const MAGIC: &[u8; 4] = b"L6TR";
/// Current format version.
pub const VERSION: u8 = 1;

/// Errors from decoding a trace stream.
#[derive(Debug)]
pub enum CodecError {
    /// Stream did not start with the `L6TR` magic.
    BadMagic([u8; 4]),
    /// Unsupported format version.
    BadVersion(u8),
    /// Stream ended in the middle of a record.
    Truncated,
    /// A varint exceeded 64 bits.
    VarintOverflow,
    /// A varint-decoded port or length exceeded its field width.
    FieldOverflow(&'static str, u64),
    /// Underlying I/O error.
    Io(io::Error),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::BadMagic(m) => write!(f, "bad magic {m:?} (expected \"L6TR\")"),
            CodecError::BadVersion(v) => write!(f, "unsupported trace version {v}"),
            CodecError::Truncated => write!(f, "trace stream truncated mid-record"),
            CodecError::VarintOverflow => write!(f, "varint exceeds 64 bits"),
            CodecError::FieldOverflow(name, v) => write!(f, "field {name} out of range: {v}"),
            CodecError::Io(e) => write!(f, "I/O error: {e}"),
        }
    }
}

impl CodecError {
    /// Stable machine-readable error-kind label, used for per-kind
    /// quarantine and metrics counters (`trace.codec.errors.<kind>`).
    pub fn kind(&self) -> &'static str {
        match self {
            CodecError::BadMagic(_) => "bad_magic",
            CodecError::BadVersion(_) => "bad_version",
            CodecError::Truncated => "truncated",
            CodecError::VarintOverflow => "varint_overflow",
            CodecError::FieldOverflow(..) => "field_overflow",
            CodecError::Io(_) => "io",
        }
    }

    /// Whether decoding can continue past this error. Only
    /// [`CodecError::FieldOverflow`] is record-local: every field of the
    /// offending record was consumed before validation failed, so the next
    /// record starts at a known offset. Framing errors (truncation, varint
    /// overflow, I/O) leave the stream position unknowable.
    pub fn is_recoverable(&self) -> bool {
        matches!(self, CodecError::FieldOverflow(..))
    }
}

impl std::error::Error for CodecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CodecError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CodecError {
    fn from(e: io::Error) -> Self {
        CodecError::Io(e)
    }
}

fn put_varint(buf: &mut BytesMut, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

/// Streaming writer for the `L6TR` format.
///
/// Records must be appended in non-decreasing timestamp order; `append`
/// panics otherwise (a programming error — traces are canonical-sorted).
pub struct TraceWriter<W: Write> {
    sink: W,
    buf: BytesMut,
    prev_ts: u64,
    count: u64,
}

impl<W: Write> TraceWriter<W> {
    /// Creates a writer and emits the header.
    pub fn new(mut sink: W) -> Result<Self, CodecError> {
        sink.write_all(MAGIC)?;
        sink.write_all(&[VERSION])?;
        Ok(TraceWriter {
            sink,
            buf: BytesMut::with_capacity(64 * 1024),
            prev_ts: 0,
            count: 0,
        })
    }

    /// Appends one record.
    pub fn append(&mut self, r: &PacketRecord) -> Result<(), CodecError> {
        assert!(
            r.ts_ms >= self.prev_ts,
            "trace records must be time-sorted: {} < {}",
            r.ts_ms,
            self.prev_ts
        );
        put_varint(&mut self.buf, r.ts_ms - self.prev_ts);
        self.prev_ts = r.ts_ms;
        self.buf.put_u128(r.src);
        self.buf.put_u128(r.dst);
        self.buf.put_u8(r.proto.to_byte());
        put_varint(&mut self.buf, u64::from(r.sport));
        put_varint(&mut self.buf, u64::from(r.dport));
        put_varint(&mut self.buf, u64::from(r.len));
        self.count += 1;
        if self.buf.len() >= 60 * 1024 {
            self.sink.write_all(&self.buf)?;
            self.buf.clear();
        }
        Ok(())
    }

    /// Number of records appended so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Flushes buffered records and returns the sink.
    pub fn finish(mut self) -> Result<W, CodecError> {
        self.sink.write_all(&self.buf)?;
        self.sink.flush()?;
        Ok(self.sink)
    }
}

/// Encodes a whole slice to an in-memory buffer.
pub fn encode(records: &[PacketRecord]) -> Result<Vec<u8>, CodecError> {
    let mut w = TraceWriter::new(Vec::new())?;
    for r in records {
        w.append(r)?;
    }
    w.finish()
}

/// Decodes a whole buffer, failing on the first malformed record.
pub fn decode(data: &[u8]) -> Result<Vec<PacketRecord>, CodecError> {
    TraceReader::new(data)?.collect()
}

/// Length of the `L6TR` header: the magic plus the version byte.
pub(crate) const HEADER_LEN: usize = MAGIC.len() + 1;

/// Upper bound on one encoded record: 10-byte timestamp varint, two 16-byte
/// addresses, protocol byte, and three ≤3-byte port/length varints.
pub(crate) const MAX_RECORD_LEN: usize = 10 + 16 + 16 + 1 + 3 * 3;

/// Refill granularity of the streaming reader.
const STREAM_BUF_LEN: usize = 64 * 1024;

/// Validates an `L6TR` header: the one header check, shared by
/// [`TraceReader`] and the tailing source.
pub(crate) fn check_header(header: &[u8; HEADER_LEN]) -> Result<(), CodecError> {
    let [m0, m1, m2, m3, version] = *header;
    let magic = [m0, m1, m2, m3];
    if &magic != MAGIC {
        return Err(CodecError::BadMagic(magic));
    }
    if version != VERSION {
        return Err(CodecError::BadVersion(version));
    }
    Ok(())
}

fn slice_varint(data: &[u8], pos: &mut usize) -> Result<u64, CodecError> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let Some(&byte) = data.get(*pos) else {
            return Err(CodecError::Truncated);
        };
        *pos += 1;
        if shift >= 64 || (shift == 63 && byte > 1) {
            return Err(CodecError::VarintOverflow);
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

fn slice_u128(data: &[u8], pos: &mut usize) -> Result<u128, CodecError> {
    let end = *pos + 16;
    let bytes = data.get(*pos..end).ok_or(CodecError::Truncated)?;
    *pos = end;
    // The `.get` above guarantees 16 bytes; map the impossible length
    // mismatch to Truncated rather than carrying a panic path.
    let arr: [u8; 16] = bytes.try_into().map_err(|_| CodecError::Truncated)?;
    Ok(u128::from_be_bytes(arr))
}

/// Decodes one record from `data` at `*pos`, delta-decoding its timestamp
/// against `*prev_ts` — the one `L6TR` record parser, behind both
/// [`TraceReader`] and the tailing source's read window.
///
/// On success the cursor and the timestamp base both advance past the
/// record. [`CodecError::FieldOverflow`] also advances them (every field of
/// the offending record was consumed before range validation failed), so
/// permissive callers can skip the record and stay aligned. Framing errors
/// (`Truncated`, `VarintOverflow`) leave both untouched, so a tailing
/// caller can retry the same boundary once more bytes arrive.
///
/// Forced inline: with plain `#[inline]` the compiler keeps it out of line
/// in the reader's per-record loop, which costs about a quarter of
/// file-decode throughput.
#[inline(always)]
pub(crate) fn decode_record_at(
    data: &[u8],
    pos: &mut usize,
    prev_ts: &mut u64,
) -> Result<PacketRecord, CodecError> {
    let mut p = *pos;
    let delta = slice_varint(data, &mut p)?;
    let src = slice_u128(data, &mut p)?;
    let dst = slice_u128(data, &mut p)?;
    let proto = Transport::from_byte(*data.get(p).ok_or(CodecError::Truncated)?);
    p += 1;
    let sport = slice_varint(data, &mut p)?;
    let dport = slice_varint(data, &mut p)?;
    let len = slice_varint(data, &mut p)?;
    *pos = p;
    *prev_ts += delta;
    if sport > u64::from(u16::MAX) {
        return Err(CodecError::FieldOverflow("sport", sport));
    }
    if dport > u64::from(u16::MAX) {
        return Err(CodecError::FieldOverflow("dport", dport));
    }
    if len > u64::from(u16::MAX) {
        return Err(CodecError::FieldOverflow("len", len));
    }
    Ok(PacketRecord {
        ts_ms: *prev_ts,
        src,
        dst,
        proto,
        sport: sport as u16,
        dport: dport as u16,
        len: len as u16,
    })
}

/// A resumable decode position inside an `L6TR` stream: the byte offset of
/// the next un-decoded record plus the delta-decoding state at that point.
/// Recorded in session checkpoints so a killed run can reopen the trace,
/// [`TraceReader::resume`] at this position, and continue decoding
/// mid-file as if never interrupted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TracePosition {
    /// Absolute byte offset of the next record (header included in count).
    pub offset: u64,
    /// Timestamp of the record preceding `offset` (delta-decode base).
    pub prev_ts: u64,
}

/// Streaming `L6TR` reader over any [`Read`] source in bounded memory.
///
/// Only a 64 KiB refill window plus at most one partial record is ever
/// buffered, so decoding a multi-gigabyte trace costs the same memory as
/// decoding a kilobyte one. Two ways to drain it:
///
/// - as an [`Iterator`] of `Result<PacketRecord, CodecError>`, which fuses
///   after the first error;
/// - batch-wise with [`fill`](Self::fill), which delivers the records
///   decoded before an error first and the error on the next call.
///
/// In [`permissive`](Self::permissive) mode, record-local errors
/// ([`CodecError::is_recoverable`]) are skipped and counted instead of
/// ending the stream.
#[derive(Debug)]
pub struct TraceReader<R: Read> {
    src: R,
    buf: Vec<u8>,
    pos: usize,
    eof: bool,
    prev_ts: u64,
    failed: bool,
    /// An error [`fill`](Self::fill) held back so the records decoded
    /// before it could be delivered first.
    pending_err: Option<CodecError>,
    /// Total bytes pulled from `src`, header included.
    fed: u64,
    /// Skip recoverable per-record errors instead of fusing.
    permissive: bool,
    /// Records skipped in permissive mode.
    skipped: u64,
    stats: DecodeStats,
}

impl<R: Read> TraceReader<R> {
    /// Validates the header and prepares for streaming decode. Reads only
    /// the header, so opening many readers stays cheap: the refill window
    /// fills on the first decode.
    pub fn new(mut src: R) -> Result<Self, CodecError> {
        let mut header = [0u8; HEADER_LEN];
        src.read_exact(&mut header)
            .map_err(|e| match e.kind() {
                io::ErrorKind::UnexpectedEof => CodecError::Truncated,
                _ => CodecError::Io(e),
            })
            .and_then(|()| check_header(&header))
            .inspect_err(note_decode_error)?;
        Ok(Self::raw(src, HEADER_LEN as u64, 0))
    }

    /// Resumes decoding mid-stream at a [`TracePosition`] previously taken
    /// with [`position`](Self::position). Seeks `src` to the recorded byte
    /// offset and restores the delta-decode state; the header is not
    /// re-validated (the position can only have come from a successful
    /// decode of the same stream).
    pub fn resume(mut src: R, at: TracePosition) -> Result<Self, CodecError>
    where
        R: io::Seek,
    {
        src.seek(io::SeekFrom::Start(at.offset))?;
        Ok(Self::raw(src, at.offset, at.prev_ts))
    }

    fn raw(src: R, fed: u64, prev_ts: u64) -> Self {
        TraceReader {
            src,
            buf: Vec::with_capacity(STREAM_BUF_LEN + MAX_RECORD_LEN),
            pos: 0,
            eof: false,
            prev_ts,
            failed: false,
            pending_err: None,
            fed,
            permissive: false,
            skipped: 0,
            stats: DecodeStats {
                bytes: fed,
                ..DecodeStats::default()
            },
        }
    }

    /// Enables or disables permissive mode: recoverable per-record errors
    /// (field overflows) are skipped — counted in [`skipped`](Self::skipped)
    /// and under `trace.codec.skipped.<kind>` — instead of fusing the
    /// reader. Framing errors still end the stream.
    pub fn permissive(mut self, yes: bool) -> Self {
        self.permissive = yes;
        self
    }

    /// Records skipped so far in permissive mode.
    pub fn skipped(&self) -> u64 {
        self.skipped
    }

    /// The current decode position: byte offset of the next un-decoded
    /// record and the timestamp base it will be delta-decoded against.
    /// Valid input to [`resume`](Self::resume) on a fresh reader over the
    /// same stream.
    pub fn position(&self) -> TracePosition {
        TracePosition {
            offset: self.fed - (self.buf.len() - self.pos) as u64,
            prev_ts: self.prev_ts,
        }
    }

    /// Clears `out` and decodes up to `max` records into it, reusing its
    /// column capacity; returns how many, `Ok(0)` at end of stream.
    ///
    /// Records decoded before an error are delivered first as a short
    /// batch, the error surfaces on the next call, and the reader fuses
    /// after it: every later call returns `Ok(0)`. This is the
    /// [`Source::fill`](crate::Source::fill) contract.
    pub fn fill(&mut self, out: &mut RecordBatch, max: usize) -> Result<usize, CodecError> {
        out.clear();
        if let Some(e) = self.pending_err.take() {
            return Err(e);
        }
        while out.len() < max {
            match self.next() {
                Some(Ok(r)) => out.push(r),
                Some(Err(e)) if out.is_empty() => return Err(e),
                Some(Err(e)) => {
                    self.pending_err = Some(e);
                    break;
                }
                None => break,
            }
        }
        Ok(out.len())
    }

    /// Ensures a whole record's worth of bytes is buffered unless the source
    /// is exhausted, sliding the unconsumed tail to the front first. Reads
    /// land directly in the reused window buffer — no intermediate stack
    /// array, no per-refill allocation.
    fn refill(&mut self) -> Result<(), CodecError> {
        let tail = self.buf.len() - self.pos;
        self.buf.copy_within(self.pos.., 0);
        self.buf.truncate(tail);
        self.pos = 0;
        self.stats.refills += 1;
        while !self.eof && self.buf.len() < MAX_RECORD_LEN {
            let old = self.buf.len();
            self.buf.resize(old + STREAM_BUF_LEN, 0);
            let n = match self.src.read(&mut self.buf[old..]) {
                Ok(n) => n,
                Err(e) => {
                    // Keep `position()` consistent: drop the zeroed tail
                    // before surfacing the error.
                    self.buf.truncate(old);
                    return Err(e.into());
                }
            };
            self.buf.truncate(old + n);
            if n == 0 {
                self.eof = true;
            } else {
                self.stats.bytes += n as u64;
                self.fed += n as u64;
            }
        }
        Ok(())
    }

    fn next_record(&mut self) -> Result<Option<PacketRecord>, CodecError> {
        if self.buf.len() - self.pos < MAX_RECORD_LEN && !self.eof {
            self.refill()?;
        }
        if self.pos == self.buf.len() {
            return Ok(None);
        }
        // At least MAX_RECORD_LEN bytes remain, or the source hit EOF: an
        // out-of-bytes error here is genuine truncation.
        decode_record_at(&self.buf, &mut self.pos, &mut self.prev_ts).map(Some)
    }
}

impl<R: Read> Iterator for TraceReader<R> {
    type Item = Result<PacketRecord, CodecError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        loop {
            match self.next_record() {
                Ok(Some(r)) => {
                    self.stats.records += 1;
                    return Some(Ok(r));
                }
                Ok(None) => return None,
                Err(e) if self.permissive && e.is_recoverable() => {
                    self.skipped += 1;
                    MetricsRegistry::global()
                        .counter(&format!("trace.codec.skipped.{}", e.kind()))
                        .inc();
                    continue;
                }
                Err(e) => {
                    self.failed = true;
                    note_decode_error(&e);
                    return Some(Err(e));
                }
            }
        }
    }
}

/// Shared fixtures for codec-level tests in this crate.
#[cfg(test)]
pub(crate) mod tests_support {
    use super::*;

    /// Encodes one record with an out-of-range dport varint (recoverable
    /// field overflow) surrounded by good records. Returns the encoded
    /// bytes and the records a permissive decoder should deliver.
    pub(crate) fn bytes_with_bad_dport() -> (Vec<u8>, Vec<PacketRecord>) {
        let good: Vec<PacketRecord> = (0..10u64)
            .map(|i| PacketRecord::tcp(i * 100, 1, 0xd0 + i as u128, 1, 22, 60))
            .collect();
        let mut buf = BytesMut::with_capacity(1024);
        let mut out = MAGIC.to_vec();
        out.push(VERSION);
        let mut prev = 0u64;
        for (i, r) in good.iter().enumerate() {
            put_varint(&mut buf, r.ts_ms - prev);
            prev = r.ts_ms;
            buf.put_u128(r.src);
            buf.put_u128(r.dst);
            buf.put_u8(r.proto.to_byte());
            put_varint(&mut buf, u64::from(r.sport));
            // Record 5 claims dport 70_000: decodes, fails range validation.
            put_varint(&mut buf, if i == 5 { 70_000 } else { u64::from(r.dport) });
            put_varint(&mut buf, u64::from(r.len));
        }
        out.extend_from_slice(&buf);
        let expected: Vec<PacketRecord> = good
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != 5)
            .map(|(_, r)| *r)
            .collect();
        (out, expected)
    }
}

#[cfg(test)]
mod tests {
    use super::tests_support::bytes_with_bad_dport;
    use super::*;

    fn sample() -> Vec<PacketRecord> {
        vec![
            PacketRecord::tcp(0, 10, 20, 40000, 22, 60),
            PacketRecord::tcp(5, u128::MAX, 0, 65535, 65535, 65535),
            PacketRecord::udp(5, 1, 2, 500, 500, 120),
            PacketRecord::icmpv6_echo(1_000_000, 3, 4, 96),
        ]
    }

    /// Drains `reader` with [`TraceReader::fill`] in batches of `max`,
    /// returning the batch sizes, the records, and the error that ended the
    /// stream (`None` at clean end of stream).
    fn fill_all<R: Read>(
        reader: &mut TraceReader<R>,
        max: usize,
    ) -> (Vec<usize>, Vec<PacketRecord>, Option<CodecError>) {
        let mut batch = RecordBatch::new();
        let (mut sizes, mut all) = (Vec::new(), Vec::new());
        loop {
            match reader.fill(&mut batch, max) {
                Ok(0) => return (sizes, all, None),
                Ok(n) => {
                    sizes.push(n);
                    all.extend(batch.iter());
                }
                Err(e) => return (sizes, all, Some(e)),
            }
        }
    }

    #[test]
    fn roundtrip() {
        let recs = sample();
        let bytes = encode(&recs).unwrap();
        assert_eq!(decode(&bytes).unwrap(), recs);
    }

    #[test]
    fn empty_trace_roundtrips() {
        let bytes = encode(&[]).unwrap();
        assert_eq!(bytes.len(), HEADER_LEN);
        assert!(decode(&bytes).unwrap().is_empty());
    }

    #[test]
    fn bad_magic_rejected() {
        let err = TraceReader::new(&b"NOPE\x01"[..]).unwrap_err();
        assert!(matches!(err, CodecError::BadMagic(_)));
    }

    #[test]
    fn bad_version_rejected() {
        let err = TraceReader::new(&b"L6TR\x63"[..]).unwrap_err();
        assert!(matches!(err, CodecError::BadVersion(0x63)));
    }

    #[test]
    fn truncated_header_rejected() {
        assert!(matches!(
            TraceReader::new(&b"L6T"[..]).unwrap_err(),
            CodecError::Truncated
        ));
    }

    #[test]
    fn truncated_record_surfaces_error_once() {
        let bytes = encode(&sample()).unwrap();
        let cut = &bytes[..bytes.len() - 3];
        let mut reader = TraceReader::new(cut).unwrap();
        let mut errs = 0;
        let mut oks = 0;
        for item in reader.by_ref() {
            match item {
                Ok(_) => oks += 1,
                Err(_) => errs += 1,
            }
        }
        assert_eq!(errs, 1, "exactly one error then stop");
        assert_eq!(oks, 3, "records before the cut decode fine");
        assert!(reader.next().is_none(), "iterator is fused after error");
    }

    #[test]
    #[should_panic(expected = "time-sorted")]
    fn writer_rejects_time_regression() {
        let mut w = TraceWriter::new(Vec::new()).unwrap();
        w.append(&PacketRecord::tcp(10, 1, 2, 1, 22, 60)).unwrap();
        w.append(&PacketRecord::tcp(9, 1, 2, 1, 22, 60)).unwrap();
    }

    #[test]
    fn varint_boundaries() {
        let mut recs = Vec::new();
        let mut ts = 0;
        for delta in [0u64, 1, 127, 128, 16383, 16384, u32::MAX as u64] {
            ts += delta;
            recs.push(PacketRecord::tcp(ts, 7, 8, 0, 0, 0));
        }
        let bytes = encode(&recs).unwrap();
        assert_eq!(decode(&bytes).unwrap(), recs);
    }

    #[test]
    fn garbage_after_header_is_an_error_not_a_panic() {
        let mut bytes = b"L6TR\x01".to_vec();
        bytes.extend_from_slice(&[0xff; 7]); // endless varint + truncation
        let reader = TraceReader::new(&bytes[..]).unwrap();
        let items: Vec<_> = reader.collect();
        assert_eq!(items.len(), 1);
        assert!(items[0].is_err());
    }

    #[test]
    fn writer_counts() {
        let mut w = TraceWriter::new(Vec::new()).unwrap();
        for r in sample() {
            w.append(&r).unwrap();
        }
        assert_eq!(w.count(), 4);
    }

    /// A reader that returns at most `cap` bytes per `read` call, to
    /// exercise partial-read refill paths.
    struct Dribble<'a> {
        data: &'a [u8],
        cap: usize,
    }

    impl Read for Dribble<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            let n = self.data.len().min(self.cap).min(out.len());
            out[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    #[test]
    fn streaming_matches_materialized() {
        let recs: Vec<PacketRecord> = (0..10_000u64)
            .map(|i| PacketRecord::tcp(i * 3, i as u128, (i * 7) as u128, 1, 22, 60))
            .collect();
        let bytes = encode(&recs).unwrap();
        let streamed: Result<Vec<_>, _> = TraceReader::new(&bytes[..]).unwrap().collect();
        assert_eq!(streamed.unwrap(), recs);
        // Same through a source that trickles 7 bytes at a time, forcing
        // the header and records to span refill boundaries.
        let dribbled: Result<Vec<_>, _> = TraceReader::new(Dribble {
            data: &bytes,
            cap: 7,
        })
        .unwrap()
        .collect();
        assert_eq!(dribbled.unwrap(), recs);
    }

    #[test]
    fn fill_partitions_exactly_and_reuses_capacity() {
        let recs: Vec<PacketRecord> = (0..1_000u64)
            .map(|i| PacketRecord::udp(i, i as u128, 9, 1, 53, 80))
            .collect();
        let bytes = encode(&recs).unwrap();
        let mut reader = TraceReader::new(&bytes[..]).unwrap();
        let (sizes, all, err) = fill_all(&mut reader, 300);
        assert!(err.is_none());
        assert_eq!(sizes, vec![300, 300, 300, 100]);
        assert_eq!(all, recs);
        // The stream stays ended: further calls keep returning 0 and leave
        // the reused batch cleared.
        let mut batch = RecordBatch::new();
        batch.push(recs[0]);
        assert_eq!(reader.fill(&mut batch, 300).unwrap(), 0);
        assert!(batch.is_empty());
        // An empty trace ends on the first call.
        let empty = encode(&[]).unwrap();
        assert_eq!(
            fill_all(&mut TraceReader::new(&empty[..]).unwrap(), 10).0,
            vec![]
        );
    }

    #[test]
    fn fill_delivers_partial_batch_before_error_then_fuses() {
        let bytes = encode(&sample()).unwrap();
        let cut = &bytes[..bytes.len() - 3];
        let mut reader = TraceReader::new(cut).unwrap();
        let mut batch = RecordBatch::new();
        assert_eq!(
            reader.fill(&mut batch, 100).unwrap(),
            3,
            "records before the cut arrive first"
        );
        assert_eq!(batch.iter().collect::<Vec<_>>(), sample()[..3]);
        assert!(matches!(
            reader.fill(&mut batch, 100),
            Err(CodecError::Truncated)
        ));
        assert_eq!(
            reader.fill(&mut batch, 100).unwrap(),
            0,
            "fused after error"
        );
    }

    #[test]
    fn position_resume_matches_full_decode() {
        let recs: Vec<PacketRecord> = (0..5_000u64)
            .map(|i| PacketRecord::tcp(i * 11, i as u128, (i * 3) as u128, 1, 22, 60))
            .collect();
        let bytes = encode(&recs).unwrap();
        // Decode the first half, record the position, resume in a fresh
        // reader over a cursor, and check the concatenation is exact.
        let mut first = TraceReader::new(io::Cursor::new(bytes.clone())).unwrap();
        let mut head: Vec<PacketRecord> = Vec::new();
        for _ in 0..2_500 {
            head.push(first.next().unwrap().unwrap());
        }
        let pos = first.position();
        assert_eq!(pos.prev_ts, head.last().unwrap().ts_ms);
        drop(first);
        let tail: Result<Vec<_>, _> = TraceReader::resume(io::Cursor::new(bytes), pos)
            .unwrap()
            .collect();
        head.extend(tail.unwrap());
        assert_eq!(head, recs);
    }

    #[test]
    fn position_at_eof_is_stream_length() {
        let bytes = encode(&sample()).unwrap();
        let mut r = TraceReader::new(&bytes[..]).unwrap();
        while r.next().is_some() {}
        assert_eq!(r.position().offset, bytes.len() as u64);
    }

    #[test]
    fn fill_position_resumes_at_batch_boundary() {
        let recs: Vec<PacketRecord> = (0..900u64)
            .map(|i| PacketRecord::udp(i * 2, i as u128, 5, 1, 53, 80))
            .collect();
        let bytes = encode(&recs).unwrap();
        let mut reader = TraceReader::new(io::Cursor::new(bytes.clone())).unwrap();
        let mut batch = RecordBatch::new();
        assert_eq!(reader.fill(&mut batch, 400).unwrap(), 400);
        let pos = reader.position();
        drop(reader);
        let rest: Result<Vec<_>, _> = TraceReader::resume(io::Cursor::new(bytes), pos)
            .unwrap()
            .collect();
        let mut all: Vec<PacketRecord> = batch.iter().collect();
        all.extend(rest.unwrap());
        assert_eq!(all, recs);
    }

    #[test]
    fn strict_mode_fuses_on_field_overflow() {
        let (bytes, _) = bytes_with_bad_dport();
        let items: Vec<_> = TraceReader::new(&bytes[..]).unwrap().collect();
        assert_eq!(items.len(), 6, "five good records then the error");
        assert!(matches!(
            items.last().unwrap(),
            Err(CodecError::FieldOverflow("dport", 70_000))
        ));
    }

    #[test]
    fn permissive_mode_skips_field_overflow() {
        let (bytes, expected) = bytes_with_bad_dport();
        let mut r = TraceReader::new(&bytes[..]).unwrap().permissive(true);
        let got: Result<Vec<_>, _> = r.by_ref().collect();
        assert_eq!(got.unwrap(), expected);
        assert_eq!(r.skipped(), 1);
    }

    #[test]
    fn permissive_mode_still_fuses_on_truncation() {
        let bytes = encode(&sample()).unwrap();
        let cut = &bytes[..bytes.len() - 3];
        let mut r = TraceReader::new(cut).unwrap().permissive(true);
        let (mut oks, mut errs) = (0, 0);
        for item in r.by_ref() {
            match item {
                Ok(_) => oks += 1,
                Err(e) => {
                    assert!(!e.is_recoverable());
                    errs += 1;
                }
            }
        }
        assert_eq!((oks, errs), (3, 1));
        assert_eq!(r.skipped(), 0);
    }

    #[test]
    fn fill_permissive_skips_field_overflow() {
        let (bytes, expected) = bytes_with_bad_dport();
        let mut reader = TraceReader::new(&bytes[..]).unwrap().permissive(true);
        let (_, all, err) = fill_all(&mut reader, 4);
        assert!(err.is_none());
        assert_eq!(all, expected);
        assert_eq!(reader.skipped(), 1);
    }

    #[test]
    fn truncation_at_every_cut_is_a_typed_error_never_a_panic() {
        let bytes = encode(&sample()).unwrap();
        for cut in 0..bytes.len() {
            match TraceReader::new(&bytes[..cut]) {
                Ok(mut reader) => {
                    if let (_, _, Some(e)) = fill_all(&mut reader, 2) {
                        assert!(
                            matches!(e, CodecError::Truncated | CodecError::VarintOverflow),
                            "cut={cut}: unexpected {e}"
                        );
                    }
                }
                Err(e) => assert!(
                    matches!(e, CodecError::Truncated),
                    "cut={cut}: header error should be Truncated, got {e}"
                ),
            }
        }
    }

    #[test]
    fn bit_flips_are_typed_errors_never_panics() {
        let recs: Vec<PacketRecord> = (0..20u64)
            .map(|i| PacketRecord::tcp(i * 50, 3, 0xb0 + i as u128, 1, 443, 60))
            .collect();
        let clean = encode(&recs).unwrap();
        // Flip every bit of every byte in turn; each corrupted stream must
        // decode to records and/or typed errors — never panic, never loop.
        for byte in 0..clean.len() {
            for bit in 0..8 {
                let mut bad = clean.clone();
                bad[byte] ^= 1 << bit;
                match TraceReader::new(&bad[..]) {
                    Ok(mut reader) => {
                        let mut batch = RecordBatch::new();
                        let mut steps = 0;
                        while let Ok(1..) = reader.fill(&mut batch, 7) {
                            steps += 1;
                            assert!(steps <= recs.len() + 2, "byte={byte} bit={bit}: runaway");
                        }
                    }
                    Err(e) => assert!(
                        matches!(e, CodecError::BadMagic(_) | CodecError::BadVersion(_)),
                        "byte={byte} bit={bit}: header flip should be magic/version, got {e}"
                    ),
                }
            }
        }
    }

    #[test]
    fn corrupt_input_increments_quarantine_counters() {
        let reg = MetricsRegistry::global();
        let before_trunc = reg.counter("trace.codec.errors.truncated").get();
        let before_skip = reg.counter("trace.codec.skipped.field_overflow").get();

        let bytes = encode(&sample()).unwrap();
        let cut = &bytes[..bytes.len() - 3];
        let _ = TraceReader::new(cut).unwrap().count();

        let (bad, _) = bytes_with_bad_dport();
        let _ = TraceReader::new(&bad[..]).unwrap().permissive(true).count();

        // Tests share the global registry, so assert monotone growth
        // rather than exact deltas.
        assert!(reg.counter("trace.codec.errors.truncated").get() > before_trunc);
        assert!(reg.counter("trace.codec.skipped.field_overflow").get() > before_skip);
    }

    #[test]
    fn large_buffered_write_flushes() {
        // Exceed the 60 KiB internal buffer to exercise the flush path.
        let recs: Vec<PacketRecord> = (0..4000u64)
            .map(|i| PacketRecord::tcp(i, i as u128, 1, 1, 22, 60))
            .collect();
        let bytes = encode(&recs).unwrap();
        assert_eq!(decode(&bytes).unwrap().len(), 4000);
    }
}
