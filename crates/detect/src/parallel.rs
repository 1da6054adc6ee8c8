//! Sharded parallel multi-level scan detection.
//!
//! Eventization state is keyed by the *aggregated* source prefix, which
//! makes detection embarrassingly parallel across sources: partition the
//! packet stream by source prefix, run an independent
//! [`MultiLevelDetector`] per partition, and merge. The partition key is the
//! **coarsest** configured aggregation level — two addresses equal at a
//! finer level are necessarily equal at every coarser one, so hashing the
//! coarsest prefix routes all packets that share state at *any* level to
//! the same shard. Within a shard packets arrive in stream order (one FIFO
//! channel per shard), so each per-source run accumulates exactly as it
//! would sequentially.
//!
//! The unit of work shipped to a shard is a columnar
//! [`RecordBatch`] sub-batch, not a rowified `Vec<PacketRecord>`: the
//! router computes the routing key over the `src` column in one pass
//! ([`kernels::route_column`](crate::kernels::route_column)), scatters rows
//! column-to-column into per-shard staging batches
//! ([`RecordBatch::extend_from_indices`]), and each worker feeds the
//! sub-batch straight into its backend's grouped
//! [`observe_batch`](MultiLevelDetector::observe_batch) — so the columnar
//! decode layout survives end to end and the per-shard FxHash run state
//! stays hot. Drained sub-batches are returned through a recycle channel
//! and reissued as staging buffers, so the steady-state router allocates
//! nothing.
//!
//! The merge is deterministic: per level, `(start_ms, source)` is unique —
//! one source's runs have distinct start times and distinct sources are
//! distinct keys — so sorting the concatenated shard outputs by that key is
//! a total order, independent of shard count and thread scheduling. The
//! result is byte-identical to [`detect_multi`](crate::multi::detect_multi)
//! (a property-tested invariant, see `crates/detect/tests/`).
//!
//! ```
//! use lumen6_detect::parallel::{detect_multi_sharded, ShardPlan};
//! use lumen6_detect::{AggLevel, ScanDetectorConfig};
//! use lumen6_trace::PacketRecord;
//!
//! let recs: Vec<PacketRecord> = (0..200u64)
//!     .map(|i| PacketRecord::tcp(i * 1000, 7, 0xd000 + i as u128, 1, 22, 60))
//!     .collect();
//! let reports = detect_multi_sharded(
//!     &recs,
//!     &AggLevel::PAPER_LEVELS,
//!     ScanDetectorConfig::default(),
//!     ShardPlan::with_shards(4),
//! );
//! assert_eq!(reports[&AggLevel::L128].scans(), 1);
//! ```

use crate::aggregate::AggLevel;
use crate::detector::ScanDetectorConfig;
use crate::event::{ScanEvent, ScanReport};
use crate::kernels::{route, route_column};
use crate::multi::MultiLevelDetector;
use crate::snapshot::{LevelState, SnapshotError};
use lumen6_obs::{Gauge, Histogram, MetricsRegistry};
use lumen6_trace::{PacketRecord, RecordBatch};
use std::collections::BTreeMap;
use std::sync::mpsc::{channel, sync_channel, Receiver, SyncSender, TrySendError};
use std::thread::JoinHandle;
use std::time::Instant;

/// Control-plane message to a shard worker. Besides packet sub-batches, the
/// router can ask workers to garbage-collect idle runs or to report their
/// serializable state mid-stream (for checkpointing) without tearing the
/// pipeline down.
enum ShardMsg {
    /// A columnar sub-batch of packets to observe, in stream order. The
    /// worker returns the emptied batch through the recycle channel.
    Batch(RecordBatch),
    /// Close runs idle since before `now - timeout` (see
    /// [`MultiLevelDetector::flush_idle`]).
    FlushIdle(u64),
    /// Send the worker's per-level state back through the provided channel.
    Snapshot(SyncSender<Vec<LevelState>>),
}

/// How a sharded detection run is laid out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPlan {
    /// Number of worker shards. Clamped to at least 1.
    pub shards: usize,
    /// Packets per sub-batch handed to a shard channel. Batching amortizes
    /// channel synchronization; the value does not affect results.
    pub batch: usize,
    /// Batches allowed in flight per shard before the router blocks.
    /// Bounds pipeline memory to roughly
    /// `shards * depth * batch * size_of::<PacketRecord>()`.
    pub depth: usize,
}

impl Default for ShardPlan {
    /// One shard per available hardware thread.
    fn default() -> Self {
        ShardPlan::with_shards(
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        )
    }
}

impl ShardPlan {
    /// A plan with an explicit shard count and default batching.
    pub fn with_shards(shards: usize) -> Self {
        ShardPlan {
            shards: shards.max(1),
            batch: 4096,
            depth: 4,
        }
    }
}

/// Sharded multi-level detector with the same push interface as
/// [`MultiLevelDetector`]: feed time-ordered packets via
/// [`observe`](Self::observe) or columnar batches via
/// [`observe_batch`](Self::observe_batch), then [`finish`](Self::finish).
///
/// Worker threads are spawned on construction and joined by `finish`;
/// dropping without finishing shuts the workers down and discards results.
#[derive(Debug)]
pub struct ShardedDetector {
    senders: Vec<SyncSender<ShardMsg>>,
    workers: Vec<JoinHandle<BTreeMap<AggLevel, Vec<ScanEvent>>>>,
    /// Per-shard columnar staging buffers; swapped against a spare (never
    /// reallocated) when full.
    buffers: Vec<RecordBatch>,
    /// Free list of empty sub-batches. Workers return drained batches
    /// through `recycle`; the router refills this list from it before ever
    /// allocating a fresh batch.
    spares: Vec<RecordBatch>,
    recycle: Receiver<RecordBatch>,
    /// Scratch for the columnar routing kernel, reused across batches.
    routes: Vec<u32>,
    /// Per-shard row-index scratch for the column-wise scatter, reused
    /// across batches.
    shard_idxs: Vec<Vec<u32>>,
    levels: Vec<AggLevel>,
    coarsest: AggLevel,
    batch: usize,
    observed: u64,
    // Telemetry accumulated locally (plain integers on the hot path) and
    // flushed to the global registry at flush windows or in `finish`.
    routed: Vec<u64>,
    window_routed: Vec<u64>,
    batches_sent: u64,
    stalls: u64,
    /// Rows per sub-batch actually shipped (`detect.shard.batch_rows`).
    batch_rows: Histogram,
    /// Max/mean routed per shard over the last flush window, in permille
    /// (`detect.shard.imbalance`; 1000 = perfectly balanced).
    imbalance: Gauge,
}

impl ShardedDetector {
    /// Spawns `plan.shards` workers, each owning a [`MultiLevelDetector`]
    /// over `levels` with the shared base configuration.
    pub fn new(levels: &[AggLevel], base: ScanDetectorConfig, plan: ShardPlan) -> Self {
        let shards = plan.shards.max(1);
        Self::build(levels, base, plan, vec![None; shards], 0)
    }

    /// Rebuilds a sharded detector from a uniform per-level snapshot (as
    /// produced by [`state`](Self::state), [`MultiLevelDetector::state`],
    /// or [`ScanDetector::state`](crate::ScanDetector::state)). The shard
    /// count may differ from the snapshotting run: open runs and pending
    /// events are re-partitioned by the deterministic routing hash, which
    /// keys on the coarsest-level prefix and therefore lands every run on
    /// one owning shard regardless of shard count.
    pub fn from_state(states: &[LevelState], plan: ShardPlan) -> Result<Self, SnapshotError> {
        let base = states
            .first()
            .map(|s| s.config.clone())
            .ok_or_else(|| SnapshotError("snapshot has no levels".into()))?;
        let levels: Vec<AggLevel> = states.iter().map(|s| s.config.agg).collect();
        let shards = plan.shards.max(1);
        let coarsest = levels.iter().copied().min().unwrap_or(AggLevel::L128);

        // Empty per-shard per-level skeletons, then deal out runs and
        // pending events by routing hash. Counters are whole-stream values,
        // not per-shard state, so they ride on shard 0 and re-sum on the
        // next snapshot/finish.
        let mut parts: Vec<Vec<LevelState>> = (0..shards)
            .map(|_| {
                states
                    .iter()
                    .map(|s| LevelState {
                        config: s.config.clone(),
                        observed: 0,
                        runs_opened: 0,
                        runs: Vec::new(),
                        pending: Vec::new(),
                    })
                    .collect()
            })
            .collect();
        for (li, st) in states.iter().enumerate() {
            parts[0][li].observed = st.observed;
            parts[0][li].runs_opened = st.runs_opened;
            for run in &st.runs {
                let sh = route(coarsest, shards, run.source.bits());
                parts[sh][li].runs.push(run.clone());
            }
            for e in &st.pending {
                let sh = route(coarsest, shards, e.source.bits());
                parts[sh][li].pending.push(e.clone());
            }
        }
        let observed = states.first().map_or(0, |s| s.observed);
        Ok(Self::build(
            &levels,
            base,
            plan,
            parts.into_iter().map(Some).collect(),
            observed,
        ))
    }

    fn build(
        levels: &[AggLevel],
        base: ScanDetectorConfig,
        plan: ShardPlan,
        initial: Vec<Option<Vec<LevelState>>>,
        observed: u64,
    ) -> Self {
        let shards = plan.shards.max(1);
        debug_assert_eq!(initial.len(), shards);
        let coarsest = levels.iter().copied().min().unwrap_or(AggLevel::L128);
        let batch = plan.batch.max(1);
        // lumen6: allow(L009, recycle channel is bounded by construction: batches in circulation never exceed shards*(depth+1), pinned by staging_buffers_are_recycled_not_reallocated)
        let (recycle_tx, recycle) = channel::<RecordBatch>();
        let mut senders = Vec::with_capacity(shards);
        let mut workers = Vec::with_capacity(shards);
        for init in initial {
            let (tx, rx) = sync_channel::<ShardMsg>(plan.depth.max(1));
            let levels = levels.to_vec();
            let base = base.clone();
            let recycle_tx = recycle_tx.clone();
            workers.push(std::thread::spawn(move || {
                let started = Instant::now();
                let mut det = match init {
                    Some(states) => MultiLevelDetector::from_state(&states),
                    None => MultiLevelDetector::new(&levels, base),
                };
                while let Ok(msg) = rx.recv() {
                    match msg {
                        // The columnar batch path: the sub-batch feeds the
                        // backend's grouped observe_batch directly, then
                        // goes back to the router for reuse (send fails
                        // only after the router is gone — nothing to
                        // recycle to, so the batch is simply dropped).
                        ShardMsg::Batch(mut batch) => {
                            det.observe_batch(&batch);
                            batch.clear();
                            let _ = recycle_tx.send(batch);
                        }
                        ShardMsg::FlushIdle(now_ms) => det.flush_idle(now_ms),
                        ShardMsg::Snapshot(reply) => {
                            let _ = reply.send(det.state());
                        }
                    }
                }
                let out: BTreeMap<AggLevel, Vec<ScanEvent>> = det
                    .finish()
                    .into_iter()
                    .map(|(lvl, report)| (lvl, report.events))
                    .collect();
                MetricsRegistry::global()
                    .histogram("detect.parallel.worker_wall_us")
                    .record_duration(started.elapsed());
                out
            }));
            senders.push(tx);
        }
        let reg = MetricsRegistry::global();
        ShardedDetector {
            senders,
            workers,
            buffers: (0..shards)
                .map(|_| RecordBatch::with_capacity(batch))
                .collect(),
            spares: Vec::new(),
            recycle,
            routes: Vec::new(),
            shard_idxs: vec![Vec::new(); shards],
            levels: levels.to_vec(),
            coarsest,
            batch,
            observed,
            routed: vec![0; shards],
            window_routed: vec![0; shards],
            batches_sent: 0,
            stalls: 0,
            batch_rows: reg.histogram("detect.shard.batch_rows"),
            imbalance: reg.gauge("detect.shard.imbalance"),
        }
    }

    /// Number of worker shards.
    pub fn shards(&self) -> usize {
        self.workers.len()
    }

    /// The configured aggregation levels.
    pub fn levels(&self) -> &[AggLevel] {
        &self.levels
    }

    /// Number of packets routed so far.
    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// The shard owning all state for `src` (and every source sharing its
    /// coarsest-level prefix).
    #[inline]
    fn shard_of(&self, src: u128) -> usize {
        route(self.coarsest, self.senders.len(), src)
    }

    /// Routes one packet to its owning shard. Packets must arrive in
    /// non-decreasing time order, as for the sequential detectors.
    pub fn observe(&mut self, r: &PacketRecord) {
        self.observed += 1;
        let shard = self.shard_of(r.src);
        self.routed[shard] += 1;
        self.window_routed[shard] += 1;
        self.buffers[shard].push(*r);
        if self.buffers[shard].len() >= self.batch {
            self.flush_shard(shard);
        }
    }

    /// Routes a columnar batch to the owning shards: one
    /// [`route_column`] pass over the `src` column (memoized for
    /// consecutive same-source rows), a per-shard row-index build, then a
    /// column-wise gather into the per-shard staging batches
    /// ([`RecordBatch::extend_from_indices`]) — writes stay contiguous per
    /// column and no `PacketRecord` is materialized on the way. When the
    /// whole batch routes to one shard (run-clustered traffic), the
    /// scatter degenerates to seven contiguous column copies. Results are
    /// identical to calling [`observe`](Self::observe) per record; staged
    /// sub-batches may briefly exceed `ShardPlan::batch` by up to one
    /// input batch before they flush.
    pub fn observe_batch(&mut self, batch: &RecordBatch) {
        let mut routes = std::mem::take(&mut self.routes);
        route_column(batch.src(), self.coarsest, self.senders.len(), &mut routes);
        let mut idxs = std::mem::take(&mut self.shard_idxs);
        let uniform = match routes.first() {
            Some(&f) if routes.iter().all(|&s| s == f) => Some(f as usize),
            _ => None,
        };
        if let Some(shard) = uniform {
            self.routed[shard] += batch.len() as u64;
            self.window_routed[shard] += batch.len() as u64;
            self.buffers[shard].extend_from_batch(batch);
            if self.buffers[shard].len() >= self.batch {
                self.flush_shard(shard);
            }
        } else {
            for (i, &shard) in routes.iter().enumerate() {
                idxs[shard as usize].push(i as u32);
            }
            for (shard, rows) in idxs.iter_mut().enumerate() {
                if rows.is_empty() {
                    continue;
                }
                let n = rows.len() as u64;
                self.routed[shard] += n;
                self.window_routed[shard] += n;
                self.buffers[shard].extend_from_indices(batch, rows);
                rows.clear();
                if self.buffers[shard].len() >= self.batch {
                    self.flush_shard(shard);
                }
            }
        }
        self.observed += batch.len() as u64;
        self.routes = routes;
        self.shard_idxs = idxs;
    }

    /// A shard's channel can only close while the pipeline is live if its
    /// worker panicked. Joining the dead worker retrieves the original
    /// payload so the root cause — not a secondary send/recv error —
    /// surfaces at the call site that observed the failure.
    fn propagate_worker_panic(&mut self, shard: usize) -> ! {
        if shard < self.workers.len() {
            if let Err(payload) = self.workers.remove(shard).join() {
                std::panic::resume_unwind(payload);
            }
        }
        // lumen6: allow(L001, a live shard channel closed but its worker exited cleanly: unreachable by construction, and the router has no error channel to its caller)
        panic!("shard {shard} channel closed but its worker exited cleanly");
    }

    /// An empty sub-batch to stage into: refills the free list from the
    /// workers' recycle channel first, and only allocates when the pipeline
    /// has fewer batches in circulation than it needs (start-up, or every
    /// shard's depth fully in flight).
    fn take_spare(&mut self) -> RecordBatch {
        while let Ok(b) = self.recycle.try_recv() {
            debug_assert!(b.is_empty(), "workers recycle cleared batches");
            self.spares.push(b);
        }
        self.spares
            .pop()
            .unwrap_or_else(|| RecordBatch::with_capacity(self.batch))
    }

    /// Ships shard `shard`'s staged sub-batch, swapping in a recycled spare
    /// so staging never reallocates.
    fn flush_shard(&mut self, shard: usize) {
        let spare = self.take_spare();
        let full = std::mem::replace(&mut self.buffers[shard], spare);
        self.batch_rows.record(full.len() as u64);
        self.send_batch(shard, full);
    }

    /// Sends one sub-batch to a shard, counting a stall when the bounded
    /// channel is full and the router has to block on the worker.
    fn send_batch(&mut self, shard: usize, batch: RecordBatch) {
        self.batches_sent += 1;
        match self.senders[shard].try_send(ShardMsg::Batch(batch)) {
            Ok(()) => {}
            Err(TrySendError::Full(msg)) => {
                self.stalls += 1;
                if self.senders[shard].send(msg).is_err() {
                    self.propagate_worker_panic(shard);
                }
            }
            Err(TrySendError::Disconnected(_)) => self.propagate_worker_panic(shard),
        }
    }

    /// Flushes buffered sub-batches so every worker has seen the stream up
    /// to the current position. Must precede any control message whose
    /// effect depends on stream position (flush-idle, snapshot). Ends a
    /// flush window: publishes the routing-skew gauge for the window just
    /// closed.
    fn drain_buffers(&mut self) {
        for shard in 0..self.buffers.len() {
            if !self.buffers[shard].is_empty() {
                self.flush_shard(shard);
            }
        }
        self.publish_imbalance();
    }

    /// Publishes `detect.shard.imbalance` — max/mean packets routed per
    /// shard over the window since the last publish, in permille (1000 =
    /// perfectly balanced) — and starts a new window. Windows with no
    /// traffic leave the gauge untouched.
    fn publish_imbalance(&mut self) {
        let total: u64 = self.window_routed.iter().sum();
        if total == 0 {
            return;
        }
        let max = self.window_routed.iter().copied().fold(0, u64::max);
        let mean = total as f64 / self.window_routed.len() as f64;
        self.imbalance
            .set((max as f64 / mean * 1000.0).round() as i64);
        for w in &mut self.window_routed {
            *w = 0;
        }
    }

    /// Closes runs idle since before `now - timeout` on every shard.
    /// Report-neutral, like [`MultiLevelDetector::flush_idle`].
    pub fn flush_idle(&mut self, now_ms: u64) {
        self.drain_buffers();
        for shard in 0..self.senders.len() {
            if self.senders[shard]
                .send(ShardMsg::FlushIdle(now_ms))
                .is_err()
            {
                self.propagate_worker_panic(shard);
            }
        }
    }

    /// Serializable snapshot of the complete pipeline state, merged across
    /// shards into the same uniform per-level form the sequential detectors
    /// produce — so a sharded checkpoint restores into any backend. The
    /// pipeline keeps running afterwards.
    pub fn state(&mut self) -> Vec<LevelState> {
        self.drain_buffers();
        // One rendezvous channel per shard; workers reply with their state
        // once they have consumed everything queued before the request.
        let mut replies = Vec::with_capacity(self.senders.len());
        for shard in 0..self.senders.len() {
            let (reply_tx, reply_rx) = sync_channel(1);
            if self.senders[shard]
                .send(ShardMsg::Snapshot(reply_tx))
                .is_err()
            {
                self.propagate_worker_panic(shard);
            }
            replies.push(reply_rx);
        }
        let mut merged: Option<Vec<LevelState>> = None;
        for (shard, rx) in replies.into_iter().enumerate() {
            let Ok(states) = rx.recv() else {
                self.propagate_worker_panic(shard)
            };
            match &mut merged {
                None => merged = Some(states),
                Some(acc) => {
                    for (a, b) in acc.iter_mut().zip(states) {
                        // lumen6: allow(L001, every shard detector is built from the single config captured in new(), so a merge mismatch cannot occur)
                        a.merge(b).expect("shards share one config");
                    }
                }
            }
        }
        let mut out = merged.unwrap_or_default();
        for lvl in &mut out {
            lvl.normalize();
        }
        out
    }

    /// Ends the stream: flushes buffered sub-batches, joins the workers,
    /// and merges per-shard events into per-level reports sorted by
    /// `(start_ms, source)`.
    pub fn finish(mut self) -> BTreeMap<AggLevel, ScanReport> {
        self.drain_buffers();
        // Closing the channels ends each worker's recv loop.
        self.senders.clear();

        let reg = MetricsRegistry::global();
        for (shard, &n) in self.routed.iter().enumerate() {
            reg.counter(&format!("detect.parallel.shard.{shard}.packets_routed"))
                .add(n);
        }
        reg.counter("detect.parallel.batches_sent")
            .add(self.batches_sent);
        reg.counter("detect.parallel.channel_full_stalls")
            .add(self.stalls);

        let mut merged: BTreeMap<AggLevel, Vec<ScanEvent>> =
            self.levels.iter().map(|&lvl| (lvl, Vec::new())).collect();
        for worker in self.workers.drain(..) {
            let shard_events = match worker.join() {
                Ok(events) => events,
                // Re-raise the worker's own panic payload: the root cause,
                // not a generic "worker panicked" message.
                Err(payload) => std::panic::resume_unwind(payload),
            };
            for (lvl, events) in shard_events {
                merged.entry(lvl).or_default().extend(events);
            }
        }
        let merge_timer = reg.stage("detect.parallel.merge_us");
        let out = merged
            .into_iter()
            .map(|(lvl, mut events)| {
                events.sort_by_key(|e| (e.start_ms, e.source));
                (lvl, ScanReport::new(events))
            })
            .collect();
        drop(merge_timer);
        out
    }
}

/// Runs sharded multi-level detection over a complete time-sorted slice.
/// Row-major input is routed per record — one fused transpose straight
/// into the per-shard columnar staging buffers, with no intermediate
/// batch. (Already-columnar input, e.g. decoded `RecordBatch` chunks,
/// should go through [`ShardedDetector::observe_batch`] instead, whose
/// vectorized route-and-scatter is the only copy on that path.) Workers
/// consume columnar sub-batches either way.
///
/// Produces output identical to
/// [`detect_multi`](crate::multi::detect_multi) for any shard count.
pub fn detect_multi_sharded(
    records: &[PacketRecord],
    levels: &[AggLevel],
    base: ScanDetectorConfig,
    plan: ShardPlan,
) -> BTreeMap<AggLevel, ScanReport> {
    let mut det = ShardedDetector::new(levels, base, plan);
    for r in records {
        det.observe(r);
    }
    det.finish()
}

/// Runs sharded detection over a packet stream without materializing it —
/// pair with [`lumen6_trace::TraceReader`] to keep peak memory
/// independent of trace size. Row-major input routes per record straight
/// into the columnar staging buffers (see [`detect_multi_sharded`]).
pub fn detect_multi_sharded_stream(
    records: impl IntoIterator<Item = PacketRecord>,
    levels: &[AggLevel],
    base: ScanDetectorConfig,
    plan: ShardPlan,
) -> BTreeMap<AggLevel, ScanReport> {
    let mut det = ShardedDetector::new(levels, base, plan);
    for r in records {
        det.observe(&r);
    }
    det.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multi::detect_multi;

    fn workload() -> Vec<PacketRecord> {
        // Several sources across distinct /48s and /64s, one spread /64,
        // a timeout split, and sub-threshold noise.
        let mut recs = Vec::new();
        for s in 0..6u64 {
            let src = ((0x2001_0db8_0000_0000u128 + u128::from(s)) << 64) | 0x1;
            for i in 0..120u64 {
                recs.push(PacketRecord::tcp(
                    s * 77 + i * 1000,
                    src,
                    0xa000 + u128::from(s) * 0x1000 + u128::from(i),
                    1,
                    22,
                    60,
                ));
            }
        }
        // Spread /64: 100 /128s, one packet each.
        for i in 0..100u64 {
            recs.push(PacketRecord::tcp(
                i * 500,
                0x2600_0000_0000_0000_0000_0000_0000_0000u128 + u128::from(i),
                0xb000 + u128::from(i),
                1,
                443,
                60,
            ));
        }
        // Second burst past the timeout for source 0.
        let src0 = (0x2001_0db8_0000_0000u128 << 64) | 0x1;
        for i in 0..110u64 {
            recs.push(PacketRecord::tcp(
                8_000_000 + i * 1000,
                src0,
                0xc000 + u128::from(i),
                1,
                22,
                60,
            ));
        }
        // Noise below min_dsts.
        for i in 0..40u64 {
            recs.push(PacketRecord::udp(
                i * 2000,
                0x99,
                0xd000 + u128::from(i),
                1,
                53,
                80,
            ));
        }
        lumen6_trace::sort_by_time(&mut recs);
        recs
    }

    #[test]
    fn identical_to_sequential_for_all_shard_counts() {
        let recs = workload();
        let seq = detect_multi(
            &recs,
            &AggLevel::PAPER_LEVELS,
            ScanDetectorConfig::default(),
        );
        for shards in [1, 2, 3, 4, 8, 17] {
            let par = detect_multi_sharded(
                &recs,
                &AggLevel::PAPER_LEVELS,
                ScanDetectorConfig::default(),
                ShardPlan {
                    shards,
                    batch: 64,
                    depth: 2,
                },
            );
            assert_eq!(par, seq, "{shards} shards");
        }
    }

    #[test]
    fn identical_with_dsts_and_sketch() {
        let recs = workload();
        let cfg = ScanDetectorConfig {
            keep_dsts: true,
            ..Default::default()
        };
        let seq = detect_multi(&recs, &AggLevel::PAPER_LEVELS, cfg.clone());
        let par = detect_multi_sharded(
            &recs,
            &AggLevel::PAPER_LEVELS,
            cfg,
            ShardPlan::with_shards(4),
        );
        assert_eq!(par, seq);

        let sk = ScanDetectorConfig {
            sketch: Some((64, 12).into()),
            ..Default::default()
        };
        let seq = detect_multi(&recs, &[AggLevel::L64], sk.clone());
        let par = detect_multi_sharded(&recs, &[AggLevel::L64], sk, ShardPlan::with_shards(3));
        assert_eq!(par, seq);
    }

    #[test]
    fn streaming_entry_point_matches() {
        let recs = workload();
        let seq = detect_multi(
            &recs,
            &AggLevel::PAPER_LEVELS,
            ScanDetectorConfig::default(),
        );
        let par = detect_multi_sharded_stream(
            recs.iter().copied(),
            &AggLevel::PAPER_LEVELS,
            ScanDetectorConfig::default(),
            ShardPlan::with_shards(2),
        );
        assert_eq!(par, seq);
    }

    #[test]
    fn row_and_batch_ingest_mix_matches_sequential() {
        // Interleaving per-record observe with columnar observe_batch must
        // land every row in the same staging buffers in stream order.
        let recs = workload();
        let seq = detect_multi(
            &recs,
            &AggLevel::PAPER_LEVELS,
            ScanDetectorConfig::default(),
        );
        let mut det = ShardedDetector::new(
            &AggLevel::PAPER_LEVELS,
            ScanDetectorConfig::default(),
            ShardPlan {
                shards: 3,
                batch: 50,
                depth: 2,
            },
        );
        let mut staged = RecordBatch::new();
        for (i, part) in recs.chunks(37).enumerate() {
            if i % 2 == 0 {
                for r in part {
                    det.observe(r);
                }
            } else {
                staged.clear();
                staged.extend(part.iter().copied());
                det.observe_batch(&staged);
            }
        }
        assert_eq!(det.observed(), recs.len() as u64);
        assert_eq!(det.finish(), seq);
    }

    #[test]
    fn staging_buffers_are_recycled_not_reallocated() {
        // After the pipeline warms up, every shipped sub-batch comes back
        // through the recycle channel: the router should hold at most
        // shards * (depth + 1) + spares batches in circulation, and the
        // spares list should actually be fed (proving reuse, not fresh
        // allocation per flush).
        let recs = workload();
        let mut det = ShardedDetector::new(
            &AggLevel::PAPER_LEVELS,
            ScanDetectorConfig::default(),
            ShardPlan {
                shards: 2,
                batch: 16,
                depth: 2,
            },
        );
        let mut staged = RecordBatch::new();
        for part in recs.chunks(64) {
            staged.clear();
            staged.extend(part.iter().copied());
            det.observe_batch(&staged);
        }
        assert!(det.batches_sent > 10, "sent {}", det.batches_sent);
        // state() is a rendezvous: workers have consumed (and recycled)
        // every sub-batch queued before it returns. The next take_spare
        // must therefore find returned batches on the free list instead of
        // allocating.
        det.state();
        let recycled = det.take_spare();
        assert!(recycled.is_empty());
        assert!(
            !det.spares.is_empty(),
            "recycle channel returned no batches to the free list"
        );
        det.finish();
    }

    #[test]
    fn empty_stream() {
        let out = detect_multi_sharded(
            &[],
            &AggLevel::PAPER_LEVELS,
            ScanDetectorConfig::default(),
            ShardPlan::default(),
        );
        assert_eq!(out.len(), 3);
        assert!(out.values().all(|r| r.scans() == 0));
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let det = ShardedDetector::new(
            &[AggLevel::L64],
            ScanDetectorConfig::default(),
            ShardPlan {
                shards: 0,
                batch: 0,
                depth: 0,
            },
        );
        assert_eq!(det.shards(), 1);
        let out = det.finish();
        assert_eq!(out[&AggLevel::L64].scans(), 0);
    }

    #[test]
    fn observed_counts_routed_packets() {
        let recs = workload();
        let mut det = ShardedDetector::new(
            &AggLevel::PAPER_LEVELS,
            ScanDetectorConfig::default(),
            ShardPlan::with_shards(2),
        );
        for r in &recs {
            det.observe(r);
        }
        assert_eq!(det.observed(), recs.len() as u64);
        det.finish();
    }

    #[test]
    fn routing_is_deterministic_and_level_consistent() {
        // All packets whose /48s are equal must land on the same shard when
        // /48 is the coarsest level.
        let det = ShardedDetector::new(
            &AggLevel::PAPER_LEVELS,
            ScanDetectorConfig::default(),
            ShardPlan::with_shards(7),
        );
        let base: u128 = 0x2001_0db8_0001_0000_0000_0000_0000_0000;
        let first = det.shard_of(base);
        for host in 1..2_000u128 {
            assert_eq!(det.shard_of(base | host), first);
            assert_eq!(det.shard_of(base | (host << 64)), first);
        }
        det.finish();
    }
}
