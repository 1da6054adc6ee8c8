//! Parallel fused generation: [`FleetSource`]'s actor expansion spread
//! across N generator threads with a deterministic k-way merge.
//!
//! [`FleetSource`](crate::FleetSource) is generation-bound: every record
//! costs several RNG draws, and a single thread expanding all actors caps
//! fused throughput well below what the detector backends can absorb.
//! [`ParallelFleetSource`] partitions the fleet's actors round-robin across
//! N worker threads. Each worker runs its actors' [`ActorStream`]s and a
//! *local* merge over them, emits time-sliced sorted runs (a
//! [`RecordBatch`] plus the per-record stream index) into a bounded
//! channel, and the consumer k-way-merges the lane heads together with the
//! materialized artifact/noise streams.
//!
//! # Determinism
//!
//! The output is byte-identical to [`FleetSource`](crate::FleetSource) for
//! the same [`World`], regardless of thread count or scheduling:
//!
//! - The sequential merge delivers records in ascending (timestamp, stream
//!   index) order, where the stream index is the actor's fleet position
//!   (artifacts and noise follow at indices A and A+1). That key is a total
//!   order over the *record sequence itself*, not over any runtime state.
//! - Every worker emits its own subset already sorted by that key (its
//!   local merge uses the same key restricted to its actors), so each lane
//!   is a sorted run of a disjoint subset.
//! - The consumer pops the smallest (timestamp, stream index) among the
//!   lane heads and the fixed-stream cursors. Merging disjoint sorted
//!   subsequences of one totally ordered sequence reconstructs that
//!   sequence exactly — no scheduling order can change which key is
//!   smallest.
//! - Both merges drain runs: each worker's local merge is
//!   [`drain_runs`], the sequential source's own helper, and the consumer
//!   keeps delivering from the chosen input while its next key stays
//!   below the second-smallest head. A run ends exactly where a
//!   record-at-a-time merge would switch inputs, so runs change the cost,
//!   not the order.
//! - The capture filter ([`FirewallCapture::logs`]) is a pure per-record
//!   predicate, so applying it worker-side before the merge deletes the
//!   same records it would delete after, and cuts channel volume.
//!
//! The alternative design — routing each actor partition straight into a
//! shard of the sharded detector, skipping the merge — was rejected:
//! `ShardedDetector` shards by *aggregated source prefix*, which does not
//! align with actor identity (one actor's sources can span shards, and a
//! shard's sources span actors), so partition-aligned routing would change
//! observation order per shard and break byte-identity with the sequential
//! backends.
//!
//! # Bounded memory
//!
//! Worker-side buffering is the same per-actor release heaps as the fused
//! source. Channel-side buffering is bounded by construction: each lane
//! circulates exactly [`LANE_DEPTH`] recycled run buffers of at most
//! [`RUN_RECORDS`] records each — a worker that outruns the consumer
//! blocks waiting for a free buffer, it never allocates more. The
//! [`peak_buffered_records`](ParallelFleetSource::peak_buffered_records)
//! accessor (and its pinned test) covers all three tiers: worker heap
//! entries, records in flight in the channels, and the consumer-held lane
//! heads.
//!
//! # Telemetry
//!
//! Per-record accounting stays allocation- and atomic-free; counters are
//! flushed at run boundaries (`scanners.fleet.packets_emitted.*`, same
//! names as the sequential source). Pipeline health metrics:
//! `scanners.parallel.merge_stalls` (consumer blocked on an empty lane —
//! generation is the bottleneck), `scanners.parallel.recycle_stalls` is
//! implicit in its absence (a worker blocked for a free buffer shows up as
//! zero stalls and full channels), `scanners.parallel.channel_depth`
//! (runs in flight), and `scanners.parallel.buffered_records` (total
//! buffered across all tiers).

use crate::actor::ScannerActor;
use crate::fleet::World;
use crate::fleet_source::{drain_runs, fixed_streams, ActorStream, FixedStream, RunInputs};
use lumen6_telescope::{CaptureConfig, FirewallCapture};
use lumen6_trace::{CodecError, PacketRecord, RecordBatch, Source, TracePosition};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Records per emitted run: large enough to amortize channel traffic, small
/// enough that a lane's circulation set stays in cache.
const RUN_RECORDS: usize = 4_096;

/// Run buffers circulating per lane. Total channel-side buffering per lane
/// is `LANE_DEPTH * RUN_RECORDS` records, by construction.
const LANE_DEPTH: usize = 4;

/// One sorted run from a generator thread: filtered records plus the
/// per-record global stream index (the merge tie-break key).
#[derive(Debug)]
struct Run {
    recs: RecordBatch,
    si: Vec<u32>,
}

impl Run {
    fn new() -> Run {
        Run {
            recs: RecordBatch::with_capacity(RUN_RECORDS),
            si: Vec::with_capacity(RUN_RECORDS),
        }
    }
}

/// Shared occupancy accounting for one lane, updated at run boundaries
/// (never per record).
#[derive(Debug, Default)]
struct LaneStats {
    /// Runs currently in the data channel (sent minus received).
    runs_in_flight: AtomicU64,
    /// Filtered records currently in the data channel.
    records_in_flight: AtomicU64,
    /// Release-heap entries held worker-side, sampled per run.
    held_entries: AtomicU64,
}

/// Consumer-side state of one generator thread.
#[derive(Debug)]
struct Lane {
    data: Option<Receiver<Run>>,
    recycle: Option<SyncSender<Run>>,
    handle: Option<JoinHandle<()>>,
    stats: Arc<LaneStats>,
    head: Option<Run>,
    cursor: usize,
    done: bool,
}

/// A generator worker's merge inputs: its actors, keyed by (global stream
/// index, local position).
struct WorkerInputs<'a> {
    actors: &'a [ScannerActor],
    streams: &'a mut [ActorStream],
    counter_of_pos: &'a [usize],
    pending: &'a mut [u64],
    run: &'a mut Run,
}

impl RunInputs for WorkerInputs<'_> {
    type Key = (usize, usize);

    fn peek_ts(&mut self, (ai, pos): (usize, usize)) -> Option<u64> {
        self.streams[pos].peek_ts(&self.actors[ai])
    }

    fn take(&mut self, (ai, pos): (usize, usize), limit: u64) -> Option<(PacketRecord, u64)> {
        self.streams[pos].take(&self.actors[ai], limit)
    }

    fn emitted(&mut self, (_, pos): (usize, usize), n: u64) {
        self.pending[self.counter_of_pos[pos]] += n;
    }

    fn deliver(&mut self, (ai, _): (usize, usize), rec: PacketRecord, n: usize) {
        self.run.recs.push_repeated(rec, n);
        let len = self.run.si.len() + n;
        self.run.si.resize(len, ai as u32);
    }
}

/// Expands `actor_ids`' streams, locally merged by the global (timestamp,
/// stream index) key, and ships filtered sorted runs until exhausted or
/// the consumer disconnects.
fn generator_worker(
    world: Arc<World>,
    actor_ids: Vec<usize>,
    capture: CaptureConfig,
    data: SyncSender<Run>,
    recycle: Receiver<Run>,
    stats: Arc<LaneStats>,
) {
    let cfg = world.config();
    let (seed, intensity) = (cfg.seed, cfg.intensity);
    let mut streams: Vec<ActorStream> = actor_ids
        .iter()
        .map(|&ai| ActorStream::new(&world.fleet.actors[ai], seed, intensity))
        .collect();
    // Local merge frontier: (timestamp, (global stream index, local
    // position)). The global index orders; the position locates.
    let mut merge: BinaryHeap<Reverse<(u64, (usize, usize))>> = BinaryHeap::new();
    for (pos, s) in streams.iter_mut().enumerate() {
        let ai = actor_ids[pos];
        if let Some(ts) = s.peek_ts(&world.fleet.actors[ai]) {
            merge.push(Reverse((ts, (ai, pos))));
        }
    }
    // Pre-filter emission counters, one per distinct target-strategy kind
    // among this worker's actors — same names as the sequential source, so
    // totals are partition-invariant.
    let reg = lumen6_obs::MetricsRegistry::global();
    let mut counters: Vec<lumen6_obs::Counter> = Vec::new();
    let mut index_of: std::collections::BTreeMap<&'static str, usize> = Default::default();
    let counter_of_pos: Vec<usize> = actor_ids
        .iter()
        .map(|&ai| {
            let kind = world.fleet.actors[ai].targets.kind();
            *index_of.entry(kind).or_insert_with(|| {
                counters.push(reg.counter(&format!("scanners.fleet.packets_emitted.{kind}")));
                counters.len() - 1
            })
        })
        .collect();
    let mut pending = vec![0u64; counters.len()];

    let filter = FirewallCapture::new(&world.deployment, capture);
    loop {
        // Bounded by construction: the only buffers are the LANE_DEPTH
        // runs circulating through the recycle channel.
        let Ok(mut run) = recycle.recv() else {
            return; // consumer dropped the lane
        };
        run.recs.clear();
        run.si.clear();
        // The same run drain as the sequential source; fewer than
        // RUN_RECORDS means this worker's actors are exhausted.
        let mut inputs = WorkerInputs {
            actors: &world.fleet.actors,
            streams: &mut streams,
            counter_of_pos: &counter_of_pos,
            pending: &mut pending,
            run: &mut run,
        };
        drain_runs(&mut merge, &mut inputs, &filter, RUN_RECORDS);
        for (c, n) in counters.iter().zip(pending.iter_mut()) {
            if *n > 0 {
                c.add(*n);
                *n = 0;
            }
        }
        stats.held_entries.store(
            streams.iter().map(|s| s.heap.len() as u64).sum(),
            Ordering::Relaxed,
        );
        if run.recs.is_empty() {
            // Exhausted: dropping `data` disconnects the lane, which the
            // consumer reads as this lane's end of stream.
            return;
        }
        stats.runs_in_flight.fetch_add(1, Ordering::Relaxed);
        stats
            .records_in_flight
            .fetch_add(run.recs.len() as u64, Ordering::Relaxed);
        if data.send(run).is_err() {
            return; // consumer dropped the lane
        }
    }
}

/// A [`Source`] producing the same record sequence as
/// [`FleetSource`](crate::FleetSource) — byte-identical for any thread
/// count — with `ActorStream` expansion spread across generator threads.
/// See the module docs for the determinism argument.
#[derive(Debug)]
pub struct ParallelFleetSource {
    world: Arc<World>,
    capture: CaptureConfig,
    gen_threads: usize,
    lanes: Vec<Lane>,
    /// Materialized artifact and noise streams (base size; intensity
    /// repeats are applied at delivery).
    fixed: [FixedStream; 2],
    delivered: u64,
    prev_ts: u64,
    fixed_counters: [lumen6_obs::Counter; 2],
    fixed_pending: [u64; 2],
    merge_stalls: lumen6_obs::Counter,
    runs_merged: lumen6_obs::Counter,
    depth_gauge: lumen6_obs::Gauge,
    buffered_gauge: lumen6_obs::Gauge,
    threads_gauge: lumen6_obs::Gauge,
    peak_buffered: u64,
}

impl ParallelFleetSource {
    /// Builds a parallel fused source over `world` with the default
    /// capture filter. `gen_threads` is clamped to `1..=actor count`.
    pub fn new(world: World, gen_threads: usize) -> ParallelFleetSource {
        ParallelFleetSource::with_capture(world, CaptureConfig::default(), gen_threads)
    }

    /// Builds a parallel fused source with an explicit capture filter.
    pub fn with_capture(
        world: World,
        capture: CaptureConfig,
        gen_threads: usize,
    ) -> ParallelFleetSource {
        let world = Arc::new(world);
        let gen_threads = gen_threads.max(1).min(world.fleet.actors.len().max(1));
        let fixed = fixed_streams(&world);
        let reg = lumen6_obs::MetricsRegistry::global();
        let mut src = ParallelFleetSource {
            world,
            capture,
            gen_threads,
            lanes: Vec::new(),
            fixed,
            delivered: 0,
            prev_ts: 0,
            fixed_counters: [
                reg.counter("scanners.fleet.packets_emitted.artifacts"),
                reg.counter("scanners.fleet.packets_emitted.noise"),
            ],
            fixed_pending: [0, 0],
            merge_stalls: reg.counter("scanners.parallel.merge_stalls"),
            runs_merged: reg.counter("scanners.parallel.runs_merged"),
            depth_gauge: reg.gauge("scanners.parallel.channel_depth"),
            buffered_gauge: reg.gauge("scanners.parallel.buffered_records"),
            threads_gauge: reg.gauge("scanners.parallel.gen_threads"),
            peak_buffered: 0,
        };
        src.start();
        src
    }

    /// The world this source generates from.
    pub fn world(&self) -> &World {
        &self.world
    }

    /// Records delivered (post-filter) so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Effective generator thread count (after clamping).
    pub fn gen_threads(&self) -> usize {
        self.gen_threads
    }

    /// Peak buffered records observed so far, across all tiers: worker
    /// release-heap entries, records in flight in the lane channels, and
    /// consumer-held lane heads. Sampled at fill boundaries; the pinned
    /// bounded-memory test asserts it does not scale with trace length.
    pub fn peak_buffered_records(&self) -> u64 {
        self.peak_buffered
    }

    /// Spawns the generator threads and primes the fixed-stream cursors.
    fn start(&mut self) {
        let actors = self.world.fleet.actors.len();
        let n = self.gen_threads;
        self.threads_gauge.set(n as i64);
        self.lanes = (0..n)
            .map(|k| {
                // Round-robin partition: balances the per-kind expansion
                // cost better than contiguous blocks, and keeps each
                // lane's id list ascending (so its runs are sorted runs
                // of a disjoint subset).
                let ids: Vec<usize> = (k..actors).step_by(n).collect();
                let (data_tx, data_rx) = sync_channel::<Run>(LANE_DEPTH);
                let (recycle_tx, recycle_rx) = sync_channel::<Run>(LANE_DEPTH);
                for _ in 0..LANE_DEPTH {
                    // Seed the circulation set. Capacity equals the buffer
                    // count, so recycling sends can never block.
                    let _ = recycle_tx.send(Run::new());
                }
                let stats = Arc::new(LaneStats::default());
                let worker_world = Arc::clone(&self.world);
                let worker_capture = self.capture.clone();
                let worker_stats = Arc::clone(&stats);
                let handle = std::thread::spawn(move || {
                    generator_worker(
                        worker_world,
                        ids,
                        worker_capture,
                        data_tx,
                        recycle_rx,
                        worker_stats,
                    );
                });
                Lane {
                    data: Some(data_rx),
                    recycle: Some(recycle_tx),
                    handle: Some(handle),
                    stats,
                    head: None,
                    cursor: 0,
                    done: false,
                }
            })
            .collect();
        for f in &mut self.fixed {
            f.rewind();
        }
    }

    /// Disconnects all lanes and joins the generator threads. Dropping the
    /// channel endpoints unblocks workers stuck in `send` (data) or `recv`
    /// (recycle), so the joins cannot deadlock.
    fn shutdown(&mut self) {
        for lane in &mut self.lanes {
            lane.data = None;
            lane.recycle = None;
            lane.head = None;
        }
        for lane in &mut self.lanes {
            if let Some(h) = lane.handle.take() {
                let _ = h.join();
            }
        }
        self.lanes.clear();
    }

    /// Rewinds to the beginning: restarts the generator threads (same
    /// seed, same draws) and resets the fixed cursors.
    fn rewind(&mut self) {
        self.shutdown();
        self.delivered = 0;
        self.prev_ts = 0;
        self.start();
    }

    /// Ensures lane `li` has an unconsumed head record, blocking for the
    /// worker's next run when the current one is drained. Returns `false`
    /// once the lane is exhausted.
    fn ensure_head(&mut self, li: usize) -> bool {
        if self.lanes[li].done {
            return false;
        }
        loop {
            {
                let lane = &self.lanes[li];
                if let Some(run) = &lane.head {
                    if lane.cursor < run.recs.len() {
                        return true;
                    }
                }
            }
            // Drained (or never had) a head: recycle it, fetch the next.
            if let Some(run) = self.lanes[li].head.take() {
                self.lanes[li].cursor = 0;
                if let Some(tx) = &self.lanes[li].recycle {
                    let _ = tx.send(run); // worker gone: buffer just drops
                }
            }
            let next = {
                let lane = &self.lanes[li];
                match &lane.data {
                    None => None,
                    Some(rx) => match rx.try_recv() {
                        Ok(run) => Some(run),
                        Err(TryRecvError::Empty) => {
                            // Generation is behind the merge: the stall
                            // counter is the "generators are the
                            // bottleneck" occupancy signal.
                            self.merge_stalls.add(1);
                            rx.recv().ok()
                        }
                        Err(TryRecvError::Disconnected) => None,
                    },
                }
            };
            match next {
                Some(run) => {
                    self.runs_merged.add(1);
                    let lane = &mut self.lanes[li];
                    lane.stats.runs_in_flight.fetch_sub(1, Ordering::Relaxed);
                    lane.stats
                        .records_in_flight
                        .fetch_sub(run.recs.len() as u64, Ordering::Relaxed);
                    lane.head = Some(run);
                    lane.cursor = 0;
                    // Workers never send empty runs, so the next loop
                    // iteration returns true.
                }
                None => {
                    let lane = &mut self.lanes[li];
                    lane.done = true;
                    lane.data = None;
                    lane.recycle = None;
                    return false;
                }
            }
        }
    }

    /// Samples channel/heap occupancy into the gauges and the peak
    /// tracker. Called at fill boundaries, never per record.
    fn sample_buffering(&mut self) {
        let mut runs = 0u64;
        let mut buffered = 0u64;
        for lane in &self.lanes {
            runs += lane.stats.runs_in_flight.load(Ordering::Relaxed);
            buffered += lane.stats.records_in_flight.load(Ordering::Relaxed);
            buffered += lane.stats.held_entries.load(Ordering::Relaxed);
            if let Some(run) = &lane.head {
                buffered += (run.recs.len() - lane.cursor) as u64;
            }
        }
        self.depth_gauge.set(runs as i64);
        self.buffered_gauge.set(buffered as i64);
        self.peak_buffered = self.peak_buffered.max(buffered);
    }

    /// Produces up to `max` logged records, appending to `out` when given
    /// (resume-skip passes `None`). Returns how many were produced; fewer
    /// than `max` means end of stream.
    ///
    /// Like [`drain_runs`], the merge works in runs: once the smallest
    /// (timestamp, stream index) head is chosen, its input keeps
    /// delivering while its next key stays below the second-smallest head
    /// — a contiguous slice of a lane's run, or whole run-length entries
    /// of a fixed stream.
    fn produce(&mut self, mut out: Option<&mut RecordBatch>, max: usize) -> usize {
        let world = Arc::clone(&self.world);
        // Consumer-side filter for the fixed streams only — actor records
        // arrive pre-filtered from the workers.
        let filter = FirewallCapture::new(&world.deployment, self.capture.clone());
        let actors = world.fleet.actors.len();
        let lanes = self.lanes.len();
        let mut produced = 0usize;
        while produced < max {
            // The candidate with the smallest (timestamp, stream index)
            // key is next — exactly the sequential merge order — and the
            // second-smallest key bounds its run.
            let mut best: Option<((u64, u32), usize)> = None;
            let mut bound: Option<(u64, u32)> = None;
            let mut offer = |key: (u64, u32), src: usize| match best {
                Some((b, _)) if b < key => {
                    if bound.is_none_or(|n| key < n) {
                        bound = Some(key);
                    }
                }
                _ => {
                    bound = best.map(|(b, _)| b);
                    best = Some((key, src));
                }
            };
            for li in 0..lanes {
                if !self.ensure_head(li) {
                    continue;
                }
                let lane = &self.lanes[li];
                let Some(run) = &lane.head else { continue };
                offer((run.recs.ts_ms()[lane.cursor], run.si[lane.cursor]), li);
            }
            for (fi, f) in self.fixed.iter().enumerate() {
                if let Some(ts) = f.peek_ts() {
                    offer((ts, (actors + fi) as u32), lanes + fi);
                }
            }
            let Some((_, src)) = best else {
                break; // all lanes and fixed streams exhausted
            };
            if src < lanes {
                let lane = &mut self.lanes[src];
                let Some(run) = &lane.head else {
                    continue; // unreachable: ensure_head confirmed it
                };
                let start = lane.cursor;
                let limit = run.recs.len().min(start + (max - produced));
                let (ts, si) = (run.recs.ts_ms(), &run.si);
                let mut end = start + 1;
                while end < limit && bound.is_none_or(|b| (ts[end], si[end]) < b) {
                    end += 1;
                }
                lane.cursor = end;
                produced += end - start;
                self.prev_ts = ts[end - 1];
                if let Some(batch) = out.as_deref_mut() {
                    batch.extend_from_range(&run.recs, start..end);
                }
            } else {
                let fi = src - lanes;
                let si = (actors + fi) as u32;
                let f = &mut self.fixed[fi];
                while let Some((rec, n)) = f.take((max - produced) as u64) {
                    self.fixed_pending[fi] += n;
                    if filter.logs(&rec) {
                        // n ≤ max - produced, a usize.
                        let n = n as usize;
                        produced += n;
                        self.prev_ts = rec.ts_ms;
                        if let Some(batch) = out.as_deref_mut() {
                            batch.push_repeated(rec, n);
                        }
                    }
                    let next_below_bound = f
                        .peek_ts()
                        .is_some_and(|ts| bound.is_none_or(|b| (ts, si) < b));
                    if produced == max || !next_below_bound {
                        break;
                    }
                }
            }
        }
        self.delivered += produced as u64;
        for fi in 0..2 {
            if self.fixed_pending[fi] > 0 {
                self.fixed_counters[fi].add(self.fixed_pending[fi]);
                self.fixed_pending[fi] = 0;
            }
        }
        self.sample_buffering();
        produced
    }
}

impl Drop for ParallelFleetSource {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl Source for ParallelFleetSource {
    fn fill(&mut self, out: &mut RecordBatch, max: usize) -> Result<usize, CodecError> {
        out.clear();
        Ok(self.produce(Some(out), max))
    }

    fn position(&self) -> TracePosition {
        TracePosition {
            offset: self.delivered,
            prev_ts: self.prev_ts,
        }
    }

    fn resume(&mut self, at: TracePosition) -> Result<(), CodecError> {
        self.rewind();
        let mut remaining = at.offset;
        while remaining > 0 {
            let step = usize::try_from(remaining).unwrap_or(usize::MAX).min(65_536);
            let n = self.produce(None, step);
            if n == 0 {
                return Err(CodecError::Io(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!(
                        "resume offset {} beyond fleet stream of {} records",
                        at.offset, self.delivered
                    ),
                )));
            }
            remaining -= n as u64;
        }
        if at.offset > 0 && self.prev_ts != at.prev_ts {
            return Err(CodecError::Io(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "resume timestamp mismatch at offset {}: checkpoint recorded {} but the \
                     regenerated stream has {} (was the checkpoint taken against a different \
                     seed or fleet configuration?)",
                    at.offset, at.prev_ts, self.prev_ts
                ),
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::FleetConfig;
    use crate::fleet_source::FleetSource;
    use lumen6_telescope::DeploymentConfig;
    use proptest::prelude::*;

    fn tiny_config(seed: u64, intensity: f64, end_day: u64) -> FleetConfig {
        FleetConfig {
            seed,
            intensity,
            end_day,
            ..FleetConfig::small()
        }
    }

    fn drain(src: &mut dyn Source, max: usize) -> Vec<PacketRecord> {
        let mut out = Vec::new();
        let mut batch = RecordBatch::new();
        loop {
            let n = src.fill(&mut batch, max).expect("fill is infallible");
            if n == 0 {
                break;
            }
            out.extend(batch.iter());
        }
        out
    }

    #[test]
    fn parallel_matches_sequential_fused_across_thread_counts() {
        let cfg = tiny_config(42, 1.0, 14);
        let expected = {
            let mut src = FleetSource::new(World::build(cfg.clone()));
            drain(&mut src, 4096)
        };
        assert!(expected.len() > 1_000, "trace too small to be meaningful");
        for n in [1, 2, 4, 8] {
            let mut src = ParallelFleetSource::new(World::build(cfg.clone()), n);
            assert_eq!(drain(&mut src, 4096), expected, "gen_threads={n}");
        }
    }

    #[test]
    fn parallel_matches_at_fractional_and_high_intensity() {
        for intensity in [0.3, 10.0] {
            let cfg = tiny_config(7, intensity, 7);
            let expected = {
                let mut src = FleetSource::new(World::build(cfg.clone()));
                drain(&mut src, 512)
            };
            let mut src = ParallelFleetSource::new(World::build(cfg.clone()), 3);
            assert_eq!(drain(&mut src, 512), expected, "intensity={intensity}");
        }
    }

    #[test]
    fn position_resume_continues_exactly_across_thread_counts() {
        let cfg = tiny_config(42, 1.0, 10);
        let full = {
            let mut src = ParallelFleetSource::new(World::build(cfg.clone()), 2);
            drain(&mut src, 256)
        };
        assert!(full.len() > 500);
        let mut src = ParallelFleetSource::new(World::build(cfg.clone()), 2);
        let mut batch = RecordBatch::new();
        let mut head = Vec::new();
        for _ in 0..3 {
            src.fill(&mut batch, 200).expect("fill");
            head.extend(batch.iter());
        }
        let pos = src.position();
        assert_eq!(pos.offset, 600);
        // A checkpoint written by a 2-thread run resumes under a different
        // gen-thread count: the position is a property of the record
        // sequence, which is thread-count-invariant.
        for n in [1, 4] {
            let mut fresh = ParallelFleetSource::new(World::build(cfg.clone()), n);
            fresh.resume(pos).expect("resume");
            let mut rest = head.clone();
            rest.extend(drain(&mut fresh, 333));
            assert_eq!(rest, full, "resume with gen_threads={n}");
        }
        // And the plain fused source accepts the same position (and vice
        // versa): the two implementations share the position contract.
        let mut fused = FleetSource::new(World::build(cfg));
        fused
            .resume(pos)
            .expect("fused resume of parallel position");
        head.extend(drain(&mut fused, 333));
        assert_eq!(head, full);
    }

    #[test]
    fn resume_inside_run_length_entries_continues_exactly() {
        // At intensity 3 every probe and every fixed-stream record is one
        // 3-copy entry, so the delivered stream is a sequence of triples
        // and any offset not divisible by 3 splits an entry. Fill sizes 1,
        // 7 and 97 stop there; a fresh source of either kind resumed at
        // that position must finish the split entry and continue exactly.
        let cfg = tiny_config(42, 3.0, 6);
        let expected = World::build(cfg.clone()).cdn_trace();
        assert!(expected.len() > 3_000, "trace too small to be meaningful");
        let sources: [fn(World) -> Box<dyn Source>; 2] = [
            |w| Box::new(FleetSource::new(w)),
            |w| Box::new(ParallelFleetSource::new(w, 2)),
        ];
        for (kind, make) in sources.iter().enumerate() {
            for (max, fills) in [(1usize, 1_000), (7, 151), (97, 11)] {
                let mut straight = make(World::build(cfg.clone()));
                assert_eq!(
                    drain(straight.as_mut(), max),
                    expected,
                    "straight drain, source {kind}, max={max}"
                );
                let mut src = make(World::build(cfg.clone()));
                let mut batch = RecordBatch::new();
                let mut head = Vec::new();
                for _ in 0..fills {
                    src.fill(&mut batch, max).expect("fill");
                    head.extend(batch.iter());
                }
                let pos = src.position();
                let at = usize::try_from(pos.offset).expect("offset fits");
                assert_eq!(at, max * fills);
                assert!(
                    at % 3 != 0 && expected[at - 1] == expected[at],
                    "position {at} does not split an entry"
                );
                for (resumed_kind, fresh_make) in sources.iter().enumerate() {
                    let mut fresh = fresh_make(World::build(cfg.clone()));
                    fresh.resume(pos).expect("resume");
                    let mut all = head.clone();
                    all.extend(drain(fresh.as_mut(), max));
                    assert_eq!(
                        all, expected,
                        "source {kind} -> {resumed_kind} resumed at {at}, max={max}"
                    );
                }
            }
        }
    }

    #[test]
    fn resume_rejects_foreign_positions() {
        let cfg = tiny_config(42, 1.0, 7);
        let n = {
            let mut src = ParallelFleetSource::new(World::build(cfg.clone()), 2);
            drain(&mut src, 512).len() as u64
        };
        let mut s2 = ParallelFleetSource::new(World::build(cfg.clone()), 2);
        assert!(s2
            .resume(TracePosition {
                offset: n + 1,
                prev_ts: 0,
            })
            .is_err());
        let mut s3 = ParallelFleetSource::new(World::build(cfg), 2);
        assert!(s3
            .resume(TracePosition {
                offset: 10,
                prev_ts: u64::MAX,
            })
            .is_err());
    }

    #[test]
    fn peak_buffered_records_do_not_scale_with_trace_length() {
        // The bounded-memory claim under parallel generation: buffering
        // (worker heaps + channel runs + consumer heads) is set by the
        // lane depth and concurrent session budgets, not by how many days
        // the trace spans.
        fn run(end_day: u64) -> (u64, u64) {
            let mut src = ParallelFleetSource::new(World::build(tiny_config(42, 1.0, end_day)), 4);
            let mut batch = RecordBatch::new();
            while src.fill(&mut batch, 1024).expect("fill") > 0 {}
            (src.peak_buffered_records(), src.delivered())
        }
        let (peak_short, total_short) = run(14);
        let (peak_long, total_long) = run(42);
        assert!(
            total_long > total_short * 2,
            "window did not grow the trace: {total_short} → {total_long}"
        );
        assert!(
            peak_long < peak_short * 2,
            "peak buffering scaled with trace length: {peak_short} → {peak_long} \
             while the trace grew {total_short} → {total_long}"
        );
        assert!(
            peak_long > 0,
            "peak tracker never observed any buffered records"
        );
    }

    proptest! {
        /// Differential battery: parallel fused == fused for arbitrary
        /// seeds across the gen-threads × batch × intensity grid.
        #[test]
        fn parallel_matches_fused_for_arbitrary_configs(
            seed in 0u64..1_000,
            gen_threads in prop_oneof![Just(1usize), Just(2), Just(4), Just(8)],
            intensity_milli in prop_oneof![Just(100u64), Just(1_000), Just(25_000)],
            max in prop_oneof![Just(1usize), Just(64), Just(8_192)],
        ) {
            let cfg = FleetConfig {
                seed,
                intensity: intensity_milli as f64 / 1_000.0,
                end_day: 4,
                deployment: DeploymentConfig {
                    machines: 40,
                    ases: 5,
                    dns_pairs: 25,
                    ..Default::default()
                },
                noise_sources_per_day: 4,
                ..FleetConfig::small()
            };
            let expected = {
                let mut src = FleetSource::new(World::build(cfg.clone()));
                drain(&mut src, max)
            };
            let mut src = ParallelFleetSource::new(World::build(cfg), gen_threads);
            prop_assert_eq!(drain(&mut src, max), expected);
        }
    }
}
