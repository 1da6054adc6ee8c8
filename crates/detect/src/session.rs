//! Fault-tolerant streaming ingest: the unified [`Detect`] trait, the
//! [`DetectorBuilder`], out-of-order tolerance, and checkpoint/resume.
//!
//! The paper's vantage point captures continuously for 15 months; an ingest
//! that loses all in-memory run state on restart, or aborts on the first
//! corrupt record, cannot reproduce that operationally. This module wraps
//! any detector backend in a [`Session`] that survives all three failure
//! modes:
//!
//! 1. **Crashes** — [`Checkpoint`]s capture the complete pipeline state
//!    (detector runs and sketches, the reorder buffer, the trace byte
//!    offset) with an integrity checksum, written atomically (temp file +
//!    rename). A killed run resumed from its last checkpoint produces a
//!    report *byte-identical* to an uninterrupted run — a subprocess-tested
//!    invariant.
//! 2. **Reordering** — real multi-machine logs are never globally
//!    time-ordered. A bounded [`ReorderBuffer`] with a configurable
//!    watermark re-sorts slightly-late packets before `observe`; packets
//!    later than the watermark are counted and dropped, never silently
//!    mis-eventized.
//! 3. **Corrupt records** — recoverable decode errors (field overflows)
//!    quarantine-and-skip with per-kind `lumen6-obs` counters instead of
//!    aborting (framing errors still abort: stream alignment is lost).
//!
//! The three detector backends — [`ScanDetector`], [`MultiLevelDetector`],
//! and the sharded pipeline — all implement [`Detect`], so the CLI and the
//! experiment harness dispatch through one code path chosen by
//! [`DetectorBuilder`]. Snapshots use one uniform per-level format: a
//! checkpoint written by a sharded run restores into a sequential run and
//! vice versa, and the shard count may change across a resume.

use crate::aggregate::AggLevel;
use crate::detector::{ScanDetector, ScanDetectorConfig};
use crate::event::ScanReport;
use crate::multi::MultiLevelDetector;
use crate::parallel::{ShardPlan, ShardedDetector};
use crate::snapshot::{DetectorSnapshot, LevelState, SnapshotError};
use lumen6_obs::MetricsRegistry;
use lumen6_trace::{
    CodecError, FileStreamSource, FillOutcome, PacketRecord, RecordBatch, Source, TracePosition,
};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::fmt;
use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

// ---------------------------------------------------------------------------
// The unified detector trait
// ---------------------------------------------------------------------------

/// The unified push interface over all detector backends.
///
/// Unlike [`ScanDetector::observe`], the trait's `observe` returns nothing:
/// the sharded backend processes packets on worker threads and cannot
/// return closed events synchronously, so every implementation accumulates
/// mid-stream events internally and reports them from [`finish`].
///
/// [`finish`]: Detect::finish
pub trait Detect: Send {
    /// Feeds one packet. Records must arrive in non-decreasing time order
    /// (wrap the detector in a [`Session`] with a watermark if they don't).
    fn observe(&mut self, r: &PacketRecord);

    /// Feeds a columnar batch, equivalent to observing each record in
    /// order. The default loops over [`observe`](Detect::observe); every
    /// backend overrides it with a grouped path that looks up per-source
    /// run state once per (source, batch).
    fn observe_batch(&mut self, batch: &RecordBatch) {
        for i in 0..batch.len() {
            self.observe(&batch.get(i));
        }
    }

    /// Closes runs idle since before `now_ms - timeout`, bounding state
    /// size in a long-running deployment. Report-neutral: events closed
    /// here are identical to what [`finish`](Detect::finish) would emit.
    fn flush_idle(&mut self, now_ms: u64);

    /// Packets observed so far.
    fn observed(&self) -> u64;

    /// The aggregation levels this detector reports on.
    fn levels(&self) -> Vec<AggLevel>;

    /// The complete serializable per-level state (see
    /// [`LevelState`]). `&mut` because the sharded backend must quiesce its
    /// workers to collect it; sequential backends do not mutate.
    fn state(&mut self) -> Vec<LevelState>;

    /// A versioned [`DetectorSnapshot`] wrapping [`state`](Detect::state).
    fn snapshot(&mut self) -> DetectorSnapshot {
        DetectorSnapshot::new(self.state())
    }

    /// Ends the stream and returns the per-level reports, each sorted by
    /// `(start_ms, source)`.
    fn finish(self: Box<Self>) -> BTreeMap<AggLevel, ScanReport>;
}

impl Detect for ScanDetector {
    fn observe(&mut self, r: &PacketRecord) {
        if let Some(e) = ScanDetector::observe(self, r) {
            self.pending.push(e);
        }
    }

    fn observe_batch(&mut self, batch: &RecordBatch) {
        let events = ScanDetector::observe_batch(self, batch);
        self.pending.extend(events);
    }

    fn flush_idle(&mut self, now_ms: u64) {
        let events = ScanDetector::flush_idle(self, now_ms);
        self.pending.extend(events);
    }

    fn observed(&self) -> u64 {
        ScanDetector::observed(self)
    }

    fn levels(&self) -> Vec<AggLevel> {
        vec![self.config().agg]
    }

    fn state(&mut self) -> Vec<LevelState> {
        vec![ScanDetector::state(self)]
    }

    fn finish(self: Box<Self>) -> BTreeMap<AggLevel, ScanReport> {
        let mut this = *self;
        let lvl = this.config().agg;
        let mut events = std::mem::take(&mut this.pending);
        events.extend(ScanDetector::finish(this));
        events.sort_by_key(|e| (e.start_ms, e.source));
        BTreeMap::from([(lvl, ScanReport::new(events))])
    }
}

impl Detect for MultiLevelDetector {
    fn observe(&mut self, r: &PacketRecord) {
        MultiLevelDetector::observe(self, r);
    }

    fn observe_batch(&mut self, batch: &RecordBatch) {
        MultiLevelDetector::observe_batch(self, batch);
    }

    fn flush_idle(&mut self, now_ms: u64) {
        MultiLevelDetector::flush_idle(self, now_ms);
    }

    fn observed(&self) -> u64 {
        MultiLevelDetector::observed(self)
    }

    fn levels(&self) -> Vec<AggLevel> {
        MultiLevelDetector::levels(self)
    }

    fn state(&mut self) -> Vec<LevelState> {
        MultiLevelDetector::state(self)
    }

    fn finish(self: Box<Self>) -> BTreeMap<AggLevel, ScanReport> {
        MultiLevelDetector::finish(*self)
    }
}

impl Detect for ShardedDetector {
    fn observe(&mut self, r: &PacketRecord) {
        ShardedDetector::observe(self, r);
    }

    fn observe_batch(&mut self, batch: &RecordBatch) {
        ShardedDetector::observe_batch(self, batch);
    }

    fn flush_idle(&mut self, now_ms: u64) {
        ShardedDetector::flush_idle(self, now_ms);
    }

    fn observed(&self) -> u64 {
        ShardedDetector::observed(self)
    }

    fn levels(&self) -> Vec<AggLevel> {
        ShardedDetector::levels(self).to_vec()
    }

    fn state(&mut self) -> Vec<LevelState> {
        ShardedDetector::state(self)
    }

    fn finish(self: Box<Self>) -> BTreeMap<AggLevel, ScanReport> {
        ShardedDetector::finish(*self)
    }
}

// ---------------------------------------------------------------------------
// DetectorBuilder
// ---------------------------------------------------------------------------

/// Which execution backend a [`DetectorBuilder`] realizes a detector on.
///
/// The backend is orthogonal to *what* is detected (configuration and
/// aggregation levels live on the builder): the sequential and sharded
/// pipelines produce identical reports and interchangeable snapshots, so
/// the choice is purely an execution-resource decision and is made at
/// [`build`](DetectorBuilder::build) /
/// [`restore`](DetectorBuilder::restore) time — including across a resume,
/// where the checkpoint may have been written by the other backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The single-threaded reference pipeline.
    Sequential,
    /// The sharded parallel pipeline (identical output, see
    /// [`crate::parallel`]).
    Sharded(ShardPlan),
}

impl Default for Backend {
    fn default() -> Self {
        Backend::Sharded(ShardPlan::default())
    }
}

impl Backend {
    /// Resolves the CLI escape hatches: `sequential` wins, an explicit
    /// `threads = N` pins the shard count, otherwise one shard per core.
    pub fn from_flags(threads: Option<usize>, sequential: bool) -> Self {
        if sequential {
            Backend::Sequential
        } else {
            match threads {
                Some(n) if n > 0 => Backend::Sharded(ShardPlan::with_shards(n)),
                _ => Backend::default(),
            }
        }
    }

    /// Whether callers may fan their own loops out across threads.
    pub fn is_parallel(&self) -> bool {
        matches!(self, Backend::Sharded(_))
    }
}

/// Chooses and constructs a detector backend behind the [`Detect`] trait —
/// the one code path `lumen6 detect`, `lumen6 serve`, and the experiment
/// harness dispatch through.
///
/// The builder holds the detection *shape* (base configuration and
/// aggregation levels); the execution [`Backend`] is passed to
/// [`build`](Self::build) so one builder can realize detectors on
/// different backends.
///
/// ```
/// use lumen6_detect::prelude::*;
/// use lumen6_trace::PacketRecord;
///
/// let mut det = DetectorBuilder::new(ScanDetectorConfig::default())
///     .levels(&AggLevel::PAPER_LEVELS)
///     .build(Backend::Sequential);
/// for i in 0..150u64 {
///     det.observe(&PacketRecord::tcp(i * 1_000, 7, 0xd000 + u128::from(i), 1, 22, 60));
/// }
/// let reports = det.finish();
/// assert_eq!(reports[&AggLevel::L64].scans(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct DetectorBuilder {
    base: ScanDetectorConfig,
    levels: Vec<AggLevel>,
}

impl DetectorBuilder {
    /// A single-level builder at `base.agg`.
    pub fn new(base: ScanDetectorConfig) -> Self {
        let levels = vec![base.agg];
        DetectorBuilder { base, levels }
    }

    /// Detect at these aggregation levels (the base config's `agg` field is
    /// overridden per level).
    pub fn levels(mut self, levels: &[AggLevel]) -> Self {
        self.levels = levels.to_vec();
        self
    }

    /// Constructs a fresh detector on the given backend: the sharded
    /// pipeline when `backend` carries a plan, a plain [`ScanDetector`]
    /// for a single sequential level, and a [`MultiLevelDetector`]
    /// otherwise.
    pub fn build(&self, backend: Backend) -> Box<dyn Detect> {
        match (backend, self.levels.as_slice()) {
            (Backend::Sharded(plan), levels) => {
                Box::new(ShardedDetector::new(levels, self.base.clone(), plan))
            }
            (Backend::Sequential, [lvl]) => {
                let mut cfg = self.base.clone();
                cfg.agg = *lvl;
                Box::new(ScanDetector::new(cfg))
            }
            (Backend::Sequential, levels) => {
                Box::new(MultiLevelDetector::new(levels, self.base.clone()))
            }
        }
    }

    /// Reconstructs a detector from a snapshot on the given backend. The
    /// snapshot's embedded per-level configurations are authoritative
    /// (they were validated at checkpoint time); only the backend choice
    /// (sequential vs sharded, and the shard plan) applies, which is what
    /// makes a checkpoint portable across backends and shard counts.
    pub fn restore(
        &self,
        backend: Backend,
        snapshot: &DetectorSnapshot,
    ) -> Result<Box<dyn Detect>, SnapshotError> {
        snapshot.check_version()?;
        if snapshot.levels.is_empty() {
            return Err(SnapshotError("snapshot has no levels".into()));
        }
        Ok(match (backend, snapshot.levels.as_slice()) {
            (Backend::Sharded(plan), states) => {
                Box::new(ShardedDetector::from_state(states, plan)?)
            }
            (Backend::Sequential, [state]) => Box::new(ScanDetector::from_state(state)),
            (Backend::Sequential, states) => Box::new(MultiLevelDetector::from_state(states)),
        })
    }
}

// ---------------------------------------------------------------------------
// Out-of-order tolerance
// ---------------------------------------------------------------------------

/// Heap entry ordered by `(ts, seq)`: timestamp first, arrival order as the
/// tiebreaker so equal-timestamp packets release in arrival order.
#[derive(Debug, Clone, Copy)]
struct Entry {
    ts: u64,
    seq: u64,
    rec: PacketRecord,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        (self.ts, self.seq) == (other.ts, other.seq)
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.ts, self.seq).cmp(&(other.ts, other.seq))
    }
}

/// Bounded reorder buffer with a time watermark.
///
/// Packets are held until the maximum timestamp seen exceeds theirs by more
/// than `watermark_ms`, then released in timestamp order — so the detector
/// always sees a non-decreasing stream as long as disorder stays within the
/// watermark. Packets arriving *later* than the watermark (timestamp below
/// `max_seen - watermark_ms`, i.e. after their release horizon has passed)
/// are counted and dropped: feeding them through would either corrupt run
/// accounting or force unbounded buffering.
///
/// A watermark of 0 disables the buffer entirely (pure passthrough, nothing
/// dropped), preserving the detectors' native mild-disorder tolerance for
/// sorted simulator output.
#[derive(Debug)]
pub struct ReorderBuffer {
    watermark_ms: u64,
    heap: BinaryHeap<Reverse<Entry>>,
    seq: u64,
    max_ts: u64,
    late_dropped: u64,
}

impl ReorderBuffer {
    /// A buffer releasing packets `watermark_ms` behind the newest seen.
    pub fn new(watermark_ms: u64) -> Self {
        ReorderBuffer {
            watermark_ms,
            heap: BinaryHeap::new(),
            seq: 0,
            max_ts: 0,
            late_dropped: 0,
        }
    }

    /// The configured watermark.
    pub fn watermark_ms(&self) -> u64 {
        self.watermark_ms
    }

    /// Packets dropped for arriving beyond the watermark.
    pub fn late_dropped(&self) -> u64 {
        self.late_dropped
    }

    /// Packets currently buffered.
    pub fn pending(&self) -> usize {
        self.heap.len()
    }

    /// Feeds one packet; appends every packet whose release horizon passed
    /// to `out`, in timestamp order.
    pub fn push(&mut self, rec: PacketRecord, out: &mut Vec<PacketRecord>) {
        if self.watermark_ms == 0 {
            out.push(rec);
            return;
        }
        let horizon = self.max_ts.saturating_sub(self.watermark_ms);
        if rec.ts_ms < horizon {
            self.late_dropped += 1;
            return;
        }
        self.heap.push(Reverse(Entry {
            ts: rec.ts_ms,
            seq: self.seq,
            rec,
        }));
        self.seq += 1;
        self.max_ts = self.max_ts.max(rec.ts_ms);
        let horizon = self.max_ts.saturating_sub(self.watermark_ms);
        while self.heap.peek().is_some_and(|Reverse(e)| e.ts <= horizon) {
            if let Some(Reverse(e)) = self.heap.pop() {
                // lumen6: allow(L009, out is a flow-through buffer the caller drains every step; volume per call is bounded by the heap, which the watermark caps)
                out.push(e.rec);
            }
        }
    }

    /// End of stream: releases everything still buffered, in order.
    pub fn drain(&mut self, out: &mut Vec<PacketRecord>) {
        while let Some(Reverse(e)) = self.heap.pop() {
            // lumen6: allow(L009, end-of-stream flush of the remaining heap; bounded by the watermark and runs once)
            out.push(e.rec);
        }
    }

    /// Serializable state (entries sorted by release order).
    pub fn state(&self) -> ReorderState {
        let mut entries: Vec<Entry> = self.heap.iter().map(|Reverse(e)| *e).collect();
        entries.sort_unstable();
        ReorderState {
            watermark_ms: self.watermark_ms,
            max_ts: self.max_ts,
            late_dropped: self.late_dropped,
            entries: entries.into_iter().map(|e| e.rec).collect(),
        }
    }

    /// Rebuilds a buffer from serialized state; buffered entries keep their
    /// relative release order.
    pub fn from_state(st: &ReorderState) -> Self {
        let heap = st
            .entries
            .iter()
            .enumerate()
            .map(|(i, rec)| {
                Reverse(Entry {
                    ts: rec.ts_ms,
                    seq: i as u64,
                    rec: *rec,
                })
            })
            .collect();
        ReorderBuffer {
            watermark_ms: st.watermark_ms,
            heap,
            seq: st.entries.len() as u64,
            max_ts: st.max_ts,
            late_dropped: st.late_dropped,
        }
    }
}

/// Serialized [`ReorderBuffer`] contents, part of a [`Checkpoint`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReorderState {
    /// The configured watermark.
    pub watermark_ms: u64,
    /// Maximum timestamp seen so far.
    pub max_ts: u64,
    /// Packets dropped as beyond-watermark late.
    pub late_dropped: u64,
    /// Buffered packets in release order.
    pub entries: Vec<PacketRecord>,
}

// ---------------------------------------------------------------------------
// Checkpoints
// ---------------------------------------------------------------------------

/// Header magic for checkpoint files.
const CHECKPOINT_MAGIC: &str = "L6CK";
/// Checkpoint framing version.
const CHECKPOINT_FRAME_VERSION: u32 = 1;

/// FNV-1a 64-bit over a byte string — the checkpoint integrity checksum.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The complete durable state of a [`Session`] at one stream position:
/// resuming from a checkpoint reproduces the uninterrupted run byte for
/// byte.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Trace byte offset and delta-decode state to resume the reader at.
    pub position: TracePosition,
    /// Records pulled from the trace so far (including late-dropped ones).
    pub records_done: u64,
    /// Recoverable decode errors skipped so far.
    pub decode_skipped: u64,
    /// Detector state.
    pub detector: DetectorSnapshot,
    /// Reorder buffer contents.
    pub reorder: ReorderState,
    /// Checkpoints written before this one, plus one.
    pub checkpoints_written: u64,
    /// Simulation time of the last periodic idle flush (0 = none yet).
    pub last_flush_ms: u64,
}

impl Checkpoint {
    /// Writes the checkpoint atomically: serialize, checksum, write to
    /// `<path>.tmp`, fsync, rename over `path`. A crash mid-write leaves
    /// the previous checkpoint intact. Before the rename, any existing
    /// checkpoint is *copied* (not renamed — a crash between the two
    /// operations must leave `path` valid) to
    /// [`prev_path`](Self::prev_path), so one generation of history
    /// survives even a corruption of the main file that slips past the
    /// atomic rename (torn disk writes, operator accidents);
    /// [`load_newest`](Self::load_newest) falls back to it.
    pub fn save(&self, path: &Path) -> Result<(), SessionError> {
        let body = serde_json::to_string(self).map_err(|e| SessionError::Corrupt(e.to_string()))?;
        let header = format!(
            "{CHECKPOINT_MAGIC} v{CHECKPOINT_FRAME_VERSION} {:016x} {}\n",
            fnv1a(body.as_bytes()),
            body.len()
        );
        let tmp = path.with_extension("tmp");
        {
            let mut f = File::create(&tmp)?;
            f.write_all(header.as_bytes())?;
            f.write_all(body.as_bytes())?;
            f.sync_all()?;
        }
        if path.exists() {
            fs::copy(path, Self::prev_path(path))?;
        }
        fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Where [`save`](Self::save) keeps the previous checkpoint
    /// generation: `<path>.prev` (extension appended, not replaced).
    pub fn prev_path(path: &Path) -> PathBuf {
        let mut os = path.as_os_str().to_os_string();
        os.push(".prev");
        PathBuf::from(os)
    }

    /// Loads the newest *valid* checkpoint at `path`: the main file when
    /// it verifies, else the `.prev` generation when the main file is
    /// corrupt (bad framing, checksum, or deserialization). A missing main
    /// file is still an error — callers probe existence first, and a clean
    /// start must not silently resume from stale history.
    pub fn load_newest(path: &Path) -> Result<Self, SessionError> {
        match Self::load(path) {
            Err(SessionError::Corrupt(main_err)) => {
                let prev = Self::prev_path(path);
                if prev.exists() {
                    Self::load(&prev)
                } else {
                    Err(SessionError::Corrupt(main_err))
                }
            }
            other => other,
        }
    }

    /// Loads and verifies a checkpoint written by [`save`](Self::save).
    pub fn load(path: &Path) -> Result<Self, SessionError> {
        let data = fs::read_to_string(path)?;
        let (header, body) = data
            .split_once('\n')
            .ok_or_else(|| SessionError::Corrupt("missing checkpoint header".into()))?;
        let mut parts = header.split(' ');
        let magic = parts.next().unwrap_or_default();
        let version = parts.next().unwrap_or_default();
        let checksum = parts.next().unwrap_or_default();
        let len = parts.next().unwrap_or_default();
        if magic != CHECKPOINT_MAGIC {
            return Err(SessionError::Corrupt(format!(
                "bad checkpoint magic {magic:?}"
            )));
        }
        if version != format!("v{CHECKPOINT_FRAME_VERSION}") {
            return Err(SessionError::Corrupt(format!(
                "unsupported checkpoint framing {version:?}"
            )));
        }
        if len.parse::<usize>().ok() != Some(body.len()) {
            return Err(SessionError::Corrupt(format!(
                "checkpoint length mismatch: header says {len}, body is {}",
                body.len()
            )));
        }
        let expect = u64::from_str_radix(checksum, 16).map_err(|_| {
            SessionError::Corrupt(format!("bad checkpoint checksum field {checksum:?}"))
        })?;
        let actual = fnv1a(body.as_bytes());
        if actual != expect {
            return Err(SessionError::Corrupt(format!(
                "checkpoint checksum mismatch: header {expect:016x}, body {actual:016x}"
            )));
        }
        let ck: Checkpoint =
            serde_json::from_str(body).map_err(|e| SessionError::Corrupt(e.to_string()))?;
        ck.detector
            .check_version()
            .map_err(SessionError::Snapshot)?;
        Ok(ck)
    }
}

/// When and where a [`Session`] checkpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Checkpoint file path (also probed for auto-resume).
    pub path: PathBuf,
    /// Write a checkpoint every this many records. 0 disables periodic
    /// writes (the file is still probed for resume).
    pub every_records: u64,
    /// Stop the session (without finishing) after this many checkpoint
    /// writes — a deterministic stand-in for `kill -9` in resume tests.
    pub stop_after: Option<u64>,
}

// ---------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------

/// Session-layer configuration, orthogonal to the detector configuration.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Reorder-buffer watermark; 0 = passthrough (sorted input).
    pub watermark_ms: u64,
    /// Checkpointing policy; `None` runs without durability.
    pub checkpoint: Option<CheckpointPolicy>,
    /// Call `flush_idle` whenever stream time advances this far past the
    /// last flush; 0 disables. Report-neutral at any cadence.
    pub flush_idle_every_ms: u64,
    /// Abort on recoverable decode errors instead of quarantine-and-skip.
    pub strict: bool,
    /// Records staged per [`Detect::observe_batch`] call on the hot path.
    /// Values ≤ 1 feed single-record batches. Any value produces reports
    /// and checkpoints byte-identical to per-record ingest; this only
    /// trades latency of mid-stream event collection against lookup
    /// amortization.
    pub batch: usize,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            watermark_ms: 0,
            checkpoint: None,
            flush_idle_every_ms: 0,
            strict: false,
            batch: DEFAULT_SESSION_BATCH,
        }
    }
}

/// Default [`SessionConfig::batch`]: large enough to amortize per-source
/// lookups on bursty scan traffic, small enough that mid-stream events
/// surface promptly.
pub const DEFAULT_SESSION_BATCH: usize = 4096;

/// Outcome of [`Session::run`]: the stream finished, or the session stopped
/// deliberately after `stop_after` checkpoints.
#[derive(Debug)]
pub enum SessionOutcome {
    /// End of stream: final per-level reports and run statistics.
    Finished(SessionReport),
    /// Stopped by [`CheckpointPolicy::stop_after`]; resume from the
    /// checkpoint file to continue.
    Stopped {
        /// Checkpoints written over the session's whole life.
        checkpoints_written: u64,
        /// Records ingested over the session's whole life.
        records_done: u64,
    },
}

/// What one [`Session::step`] call did — the re-entrant analog of
/// [`SessionOutcome`], with the non-terminal states a scheduler needs to
/// multiplex many sessions on a bounded worker pool.
#[derive(Debug)]
pub enum Step {
    /// Ingested up to one batch of records; call again for more.
    Ingested(usize),
    /// The source has no data right now (a tailed file awaiting its
    /// writer). Re-poll later; stepping again immediately just spins.
    Pending,
    /// Stopped by [`CheckpointPolicy::stop_after`] (deliberate mid-stream
    /// stop for resume tests). Further steps continue the stream.
    Stopped {
        /// Checkpoints written over the session's whole life.
        checkpoints_written: u64,
        /// Records ingested over the session's whole life.
        records_done: u64,
    },
    /// End of stream: final reports. The session is finished; subsequent
    /// steps return [`SessionError::Done`].
    Finished(SessionReport),
}

/// Final output of a completed session.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionReport {
    /// Per-level scan reports, each sorted by `(start_ms, source)`.
    pub reports: BTreeMap<AggLevel, ScanReport>,
    /// Records ingested (including late-dropped).
    pub records: u64,
    /// Packets dropped as beyond-watermark late.
    pub late_dropped: u64,
    /// Recoverable decode errors skipped.
    pub decode_skipped: u64,
    /// Checkpoints written.
    pub checkpoints_written: u64,
}

/// Errors from [`Session`] runs and checkpoint IO.
#[derive(Debug)]
pub enum SessionError {
    /// Filesystem failure (trace or checkpoint file).
    Io(io::Error),
    /// Unrecoverable trace decode failure.
    Codec(CodecError),
    /// Snapshot version/shape mismatch on restore.
    Snapshot(SnapshotError),
    /// Checkpoint file failed framing or checksum validation.
    Corrupt(String),
    /// The session already delivered its final report; it cannot be
    /// stepped or reported again.
    Done,
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Io(e) => write!(f, "session io error: {e}"),
            SessionError::Codec(e) => write!(f, "session decode error: {e}"),
            SessionError::Snapshot(e) => write!(f, "session restore error: {e}"),
            SessionError::Corrupt(m) => write!(f, "corrupt checkpoint: {m}"),
            SessionError::Done => write!(f, "session already finished"),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<io::Error> for SessionError {
    fn from(e: io::Error) -> Self {
        SessionError::Io(e)
    }
}

impl From<CodecError> for SessionError {
    fn from(e: CodecError) -> Self {
        // Unwrap I/O failures (file missing, permission, disk) to the Io
        // variant so callers classify them as filesystem problems, exactly
        // as when the session opened files itself; only genuine decode
        // failures surface as Codec.
        match e {
            CodecError::Io(io) => SessionError::Io(io),
            other => SessionError::Codec(other),
        }
    }
}

/// Flushes the staged columnar batch to the detector's grouped path.
///
/// Staging never crosses an ordering point: the stage is flushed before
/// every `flush_idle` and before every checkpoint snapshot, so the
/// detector state at those points — and therefore every checkpoint byte —
/// is identical to per-record ingest.
fn flush_staged(reg: &MetricsRegistry, det: &mut Box<dyn Detect>, staged: &mut RecordBatch) {
    if !staged.is_empty() {
        reg.histogram("detect.session.batch_size")
            .record(staged.len() as u64);
        det.observe_batch(staged);
        staged.clear();
    }
}

/// The live in-flight state of a started [`Session`]: detector, reorder
/// buffer, counters, and the reusable ingest scratch buffers.
struct RunState {
    det: Box<dyn Detect>,
    reorder: ReorderBuffer,
    /// Records pulled from the source over the session's whole life
    /// (including pre-resume history from the checkpoint).
    records_done: u64,
    ckpts: u64,
    /// Decode skips accumulated before this process attached (from the
    /// resumed checkpoint); the live source's own count is added on top.
    skipped_before: u64,
    /// Last observed `src.skipped()`, kept so [`Session::finish_now`] and
    /// [`Session::report_now`] can account skips without the source.
    src_skipped: u64,
    last_flush: u64,
    staged: RecordBatch,
    incoming: RecordBatch,
    ready: Vec<PacketRecord>,
    /// Checkpointed position to [`Source::resume`] at on the first step.
    resume_at: Option<TracePosition>,
}

/// Fault-tolerant streaming ingest over any [`Detect`] backend.
///
/// [`Session::run`] drives a trace file end to end: it auto-resumes from
/// the checkpoint file when one exists, re-sorts mildly disordered input,
/// quarantines corrupt records, and checkpoints periodically. See the
/// module docs for the guarantees.
///
/// The session is *re-entrant*: [`step`](Self::step) performs one bounded
/// unit of ingest and returns, so a scheduler (the `lumen6 serve` daemon)
/// can multiplex many sessions over a fixed worker pool. `run`/`run_source`
/// are thin wrappers that loop `step` to a terminal state. A step-driven
/// session produces reports and checkpoint bytes identical to a
/// `run_source`-driven one — both execute the same loop body.
pub struct Session {
    builder: DetectorBuilder,
    backend: Backend,
    config: SessionConfig,
    state: Option<RunState>,
    finished: bool,
}

impl Session {
    /// A session dispatching through `builder` on `backend` under
    /// `config`.
    pub fn new(builder: DetectorBuilder, backend: Backend, config: SessionConfig) -> Self {
        Session {
            builder,
            backend,
            config,
            state: None,
            finished: false,
        }
    }

    /// The session-layer configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// Records ingested so far (0 until the first step; includes
    /// checkpoint-resumed history afterwards).
    pub fn records_done(&self) -> u64 {
        self.state.as_ref().map_or(0, |st| st.records_done)
    }

    /// Whether the session delivered its final report.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Runs the session over `trace` (an L6TR file). If the checkpoint
    /// file exists, the run resumes from it; otherwise it starts fresh.
    ///
    /// Equivalent to [`run_source`](Self::run_source) over a
    /// [`FileStreamSource`] (permissive unless [`SessionConfig::strict`]).
    pub fn run(self, trace: &Path) -> Result<SessionOutcome, SessionError> {
        let permissive = !self.config.strict;
        let mut src = FileStreamSource::open(trace)?.permissive(permissive);
        self.run_source(&mut src)
    }

    /// Runs the session over any [`Source`] to a terminal state by looping
    /// [`step`](Self::step) — a trace file, an in-memory record vector, a
    /// tailed growing file, or a fused generator. `Pending` outcomes (a
    /// tail awaiting its writer) are waited out with a short sleep.
    pub fn run_source(mut self, src: &mut dyn Source) -> Result<SessionOutcome, SessionError> {
        loop {
            match self.step(src)? {
                Step::Ingested(_) => {}
                Step::Pending => std::thread::sleep(std::time::Duration::from_millis(2)),
                Step::Stopped {
                    checkpoints_written,
                    records_done,
                } => {
                    return Ok(SessionOutcome::Stopped {
                        checkpoints_written,
                        records_done,
                    })
                }
                Step::Finished(report) => return Ok(SessionOutcome::Finished(report)),
            }
        }
    }

    /// Lazily builds the run state: loads the newest valid checkpoint when
    /// the policy's file exists (recording the position to resume the
    /// source at on the next step), otherwise starts fresh.
    fn ensure_state(&mut self) -> Result<(), SessionError> {
        if self.finished {
            return Err(SessionError::Done);
        }
        if self.state.is_some() {
            return Ok(());
        }
        let resume = match &self.config.checkpoint {
            Some(p) if p.path.exists() => Some(Checkpoint::load_newest(&p.path)?),
            _ => None,
        };
        let batch_cap = self.config.batch.max(1);
        let st = match resume {
            Some(ck) => RunState {
                det: self
                    .builder
                    .restore(self.backend, &ck.detector)
                    .map_err(SessionError::Snapshot)?,
                reorder: ReorderBuffer::from_state(&ck.reorder),
                records_done: ck.records_done,
                ckpts: ck.checkpoints_written,
                skipped_before: ck.decode_skipped,
                src_skipped: 0,
                last_flush: ck.last_flush_ms,
                staged: RecordBatch::with_capacity(batch_cap),
                incoming: RecordBatch::with_capacity(batch_cap),
                ready: Vec::new(),
                resume_at: Some(ck.position),
            },
            None => RunState {
                det: self.builder.build(self.backend),
                reorder: ReorderBuffer::new(self.config.watermark_ms),
                records_done: 0,
                ckpts: 0,
                skipped_before: 0,
                src_skipped: 0,
                last_flush: 0,
                staged: RecordBatch::with_capacity(batch_cap),
                incoming: RecordBatch::with_capacity(batch_cap),
                ready: Vec::new(),
                resume_at: None,
            },
        };
        self.state = Some(st);
        Ok(())
    }

    /// Performs one bounded unit of ingest: pull at most one batch from
    /// `src`, feed it through the reorder buffer into the detector, and
    /// checkpoint if a boundary was crossed.
    ///
    /// The first step lazily initializes: if the checkpoint file exists
    /// the session restores from it and `src` is
    /// [`Source::resume`]d at the
    /// checkpointed position — so the same `src` must be passed to every
    /// step of one session.
    ///
    /// Pulls are capped at [`SessionConfig::batch`] records and never
    /// cross a checkpoint boundary, so checkpoints are taken at exactly
    /// the same record counts and stream positions — and with the same
    /// bytes — as per-record or `run_source`-driven ingest.
    pub fn step(&mut self, src: &mut dyn Source) -> Result<Step, SessionError> {
        let reg = MetricsRegistry::global();
        self.ensure_state()?;
        let Some(st) = self.state.as_mut() else {
            return Err(SessionError::Done);
        };
        if let Some(pos) = st.resume_at.take() {
            src.resume(pos)?;
            reg.counter("detect.session.resumes").add(1);
        }

        let batch_cap = self.config.batch.max(1);
        let every = self
            .config
            .checkpoint
            .as_ref()
            .map_or(0, |p| p.every_records);
        // Never pull past the next checkpoint boundary: `position()`
        // right after the fill is then exactly the post-boundary-record
        // position a per-record loop would checkpoint at.
        let want = if every > 0 {
            let until = every - (st.records_done % every);
            batch_cap.min(usize::try_from(until).unwrap_or(usize::MAX))
        } else {
            batch_cap
        };
        let outcome = {
            let t = lumen6_obs::StageTimer::new(reg.histogram("detect.session.source_fill_us"));
            let outcome = src.poll_fill(&mut st.incoming, want)?;
            t.stop();
            outcome
        };
        st.src_skipped = src.skipped();
        let n = match outcome {
            FillOutcome::Pending => return Ok(Step::Pending),
            FillOutcome::Eof => return self.finish_now().map(Step::Finished),
            FillOutcome::Filled(n) => n,
        };

        reg.counter("source.records").add(n as u64);
        let flush_every = self.config.flush_idle_every_ms;
        if st.reorder.watermark_ms() == 0 {
            // Passthrough: stage `incoming` column by column, in chunks
            // that end at the batch capacity and at the first row that is
            // due an idle flush — the same detector batches and flush
            // points as the per-record loop below.
            st.records_done += n as u64;
            let ts = st.incoming.ts_ms();
            let mut i = 0;
            while i < n {
                if flush_every > 0 && ts[i] >= st.last_flush + flush_every {
                    flush_staged(reg, &mut st.det, &mut st.staged);
                    st.det.flush_idle(ts[i]);
                    st.last_flush = ts[i];
                    reg.counter("detect.session.idle_flushes").add(1);
                }
                let mut end = n.min(i + (batch_cap - st.staged.len()));
                if flush_every > 0 {
                    let due = st.last_flush + flush_every;
                    if let Some(k) = ts[i + 1..end].iter().position(|&t| t >= due) {
                        end = i + 1 + k;
                    }
                }
                st.staged.extend_from_range(&st.incoming, i..end);
                if st.staged.len() >= batch_cap {
                    flush_staged(reg, &mut st.det, &mut st.staged);
                }
                i = end;
            }
        } else {
            for i in 0..n {
                let rec = st.incoming.get(i);
                st.records_done += 1;
                st.reorder.push(rec, &mut st.ready);
                for r in st.ready.drain(..) {
                    if flush_every > 0 && r.ts_ms >= st.last_flush + flush_every {
                        // Flush at the watermark horizon: every future
                        // detector input is ≥ `r.ts_ms - watermark`, so
                        // closures here match what end-of-stream finish
                        // would emit.
                        flush_staged(reg, &mut st.det, &mut st.staged);
                        st.det
                            .flush_idle(r.ts_ms.saturating_sub(st.reorder.watermark_ms()));
                        st.last_flush = r.ts_ms;
                        reg.counter("detect.session.idle_flushes").add(1);
                    }
                    st.staged.push(r);
                    if st.staged.len() >= batch_cap {
                        flush_staged(reg, &mut st.det, &mut st.staged);
                    }
                }
            }
        }

        if let Some(policy) = &self.config.checkpoint {
            if policy.every_records > 0 && st.records_done % policy.every_records == 0 {
                flush_staged(reg, &mut st.det, &mut st.staged);
                st.ckpts += 1;
                let ck = Checkpoint {
                    position: src.position(),
                    records_done: st.records_done,
                    decode_skipped: st.skipped_before + st.src_skipped,
                    detector: st.det.snapshot(),
                    reorder: st.reorder.state(),
                    checkpoints_written: st.ckpts,
                    last_flush_ms: st.last_flush,
                };
                ck.save(&policy.path)?;
                reg.counter("detect.session.checkpoints_written").add(1);
                if policy.stop_after.is_some_and(|n| st.ckpts >= n) {
                    reg.counter("detect.session.stops").add(1);
                    return Ok(Step::Stopped {
                        checkpoints_written: st.ckpts,
                        records_done: st.records_done,
                    });
                }
            }
        }
        Ok(Step::Ingested(n))
    }

    /// Writes a checkpoint at the session's current position, off the
    /// periodic record-count grid — the graceful-shutdown drain path.
    /// Returns `false` without writing when the session has no checkpoint
    /// policy, has not started, or already finished. Subsequent periodic
    /// checkpoints stay on the absolute record-count grid, so a run
    /// resumed from an off-grid checkpoint still reproduces every later
    /// on-grid checkpoint byte for byte.
    pub fn checkpoint_now(&mut self, src: &mut dyn Source) -> Result<bool, SessionError> {
        let reg = MetricsRegistry::global();
        let Some(policy) = self.config.checkpoint.clone() else {
            return Ok(false);
        };
        if self.finished {
            return Ok(false);
        }
        let Some(st) = self.state.as_mut() else {
            return Ok(false);
        };
        flush_staged(reg, &mut st.det, &mut st.staged);
        st.src_skipped = src.skipped();
        st.ckpts += 1;
        let ck = Checkpoint {
            position: src.position(),
            records_done: st.records_done,
            decode_skipped: st.skipped_before + st.src_skipped,
            detector: st.det.snapshot(),
            reorder: st.reorder.state(),
            checkpoints_written: st.ckpts,
            last_flush_ms: st.last_flush,
        };
        ck.save(&policy.path)?;
        reg.counter("detect.session.checkpoints_written").add(1);
        Ok(true)
    }

    /// Ends the stream now: drains the reorder buffer, flushes staged
    /// records, and returns the final report. Called by [`step`] on end
    /// of stream, and directly by the daemon's graceful-shutdown drain
    /// (where the tailed source may never reach EOF). The session is
    /// finished afterwards; a session that never started finishes over an
    /// empty (or checkpoint-restored) stream.
    ///
    /// [`step`]: Self::step
    pub fn finish_now(&mut self) -> Result<SessionReport, SessionError> {
        let reg = MetricsRegistry::global();
        self.ensure_state()?;
        let Some(mut st) = self.state.take() else {
            return Err(SessionError::Done);
        };
        self.finished = true;
        st.reorder.drain(&mut st.ready);
        st.staged.extend(st.ready.drain(..));
        flush_staged(reg, &mut st.det, &mut st.staged);
        let late = st.reorder.late_dropped();
        let skipped = st.skipped_before + st.src_skipped;
        reg.counter("detect.session.late_dropped").add(late);
        let reports = st.det.finish();
        Ok(SessionReport {
            reports,
            records: st.records_done,
            late_dropped: late,
            decode_skipped: skipped,
            checkpoints_written: st.ckpts,
        })
    }

    /// A point-in-time [`SessionReport`] *without* ending the session —
    /// the daemon's periodic per-tenant publication. Implemented by
    /// snapshotting the live detector, restoring the snapshot into a
    /// throwaway clone, feeding it the staged and still-buffered records,
    /// and finishing the clone; the live pipeline is untouched, so the
    /// next checkpoint stays byte-identical to an unpublished run.
    pub fn report_now(&mut self) -> Result<SessionReport, SessionError> {
        self.ensure_state()?;
        let Some(st) = self.state.as_mut() else {
            return Err(SessionError::Done);
        };
        let snap = st.det.snapshot();
        let mut clone = self
            .builder
            .restore(self.backend, &snap)
            .map_err(SessionError::Snapshot)?;
        if !st.staged.is_empty() {
            clone.observe_batch(&st.staged);
        }
        for rec in st.reorder.state().entries {
            clone.observe(&rec);
        }
        let reports = clone.finish();
        Ok(SessionReport {
            reports,
            records: st.records_done,
            late_dropped: st.reorder.late_dropped(),
            decode_skipped: st.skipped_before + st.src_skipped,
            checkpoints_written: st.ckpts,
        })
    }
}
