//! The streaming large-scale scan detector (paper §2.2).
//!
//! A *scan* is a maximal sequence of packets from one aggregated source in
//! which consecutive packets are never more than `timeout` apart, targeting
//! at least `min_dsts` distinct destination addresses. The defaults are the
//! paper's: 100 destinations, 3 600 s timeout. Aggregation is applied to the
//! source address *before* detection, so a /48 can qualify while none of its
//! /64s does.
//!
//! The detector is a push-based stream processor: feed it time-ordered
//! [`PacketRecord`]s via [`ScanDetector::observe`], which returns an event
//! whenever a source's previous activity run closes (by exceeding the
//! timeout) and qualified as a scan. Call [`ScanDetector::finish`] at end of
//! stream to flush all open runs. [`ScanDetector::flush_idle`] lets a
//! long-running IDS garbage-collect idle state without ending the stream.

use crate::aggregate::AggLevel;
use crate::event::{ScanEvent, ScanReport};
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::sketch::{DistinctCounter, SketchConfig};
use crate::snapshot::{CounterState, LevelState, RunState};
use lumen6_addr::Ipv6Prefix;
use lumen6_trace::{PacketRecord, RecordBatch, Transport};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Configuration of the large-scale scan definition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScanDetectorConfig {
    /// Source aggregation level applied before detection.
    pub agg: AggLevel,
    /// Minimum distinct destination addresses for a run to qualify as a
    /// scan. The paper uses 100 (and studies 50 in the sensitivity analysis;
    /// related work used 25 or 5).
    pub min_dsts: u64,
    /// Maximum packet inter-arrival time within one scan, in milliseconds.
    /// The paper uses one hour (3 600 000 ms) and studies 30 and 15 minutes.
    pub timeout_ms: u64,
    /// Retain the full destination-address set on emitted events (needed for
    /// targeting analysis; costs memory, so off for IDS use).
    pub keep_dsts: bool,
    /// If set, per-source distinct counters spill from exact sets to
    /// HyperLogLog sketches per [`SketchConfig`]. Sketched events cannot
    /// retain destination sets. Deserialization also accepts the legacy
    /// `[spill_threshold, precision]` tuple encoding.
    pub sketch: Option<SketchConfig>,
}

impl Default for ScanDetectorConfig {
    fn default() -> Self {
        ScanDetectorConfig {
            agg: AggLevel::L64,
            min_dsts: 100,
            timeout_ms: 3_600_000,
            keep_dsts: false,
            sketch: None,
        }
    }
}

impl ScanDetectorConfig {
    /// The paper's configuration at a given aggregation level.
    pub fn paper(agg: AggLevel) -> Self {
        ScanDetectorConfig {
            agg,
            ..Default::default()
        }
    }

    /// Same configuration with destination retention enabled.
    pub fn with_dsts(mut self) -> Self {
        self.keep_dsts = true;
        self
    }

    /// The `(spill_threshold, precision)` pair threaded into every per-run
    /// [`DistinctCounter::insert`] — the single authority for the sketch
    /// fallback, replacing the two hard-coded `(usize::MAX, 12)` sites the
    /// observe paths used to carry separately.
    ///
    /// With `sketch: None` the detector is exact: the `usize::MAX` spill
    /// threshold means no counter ever spills, so the accompanying
    /// precision (the default 12) exists only to give the hot path a
    /// concrete value and never builds a sketch. With `sketch: Some(..)`
    /// both values come from the config, precision clamped to the supported
    /// `4..=16`.
    ///
    /// Precision trades estimate error for memory: a sketch holds
    /// `2^precision` one-byte registers with ≈`1.04/sqrt(2^precision)`
    /// relative error — 12 → 4 KiB at ≈1.6%, 14 → 16 KiB at ≈0.8%,
    /// 16 → 64 KiB at ≈0.4%. At paper-scale intensities (~100x more
    /// distinct sources) the 1.6% default visibly skews Table 1 source
    /// counts, so high-intensity sketched runs should raise it
    /// (`--sketch-precision` on the CLI).
    pub fn sketch_params(&self) -> (usize, u8) {
        self.sketch
            .map_or((usize::MAX, crate::sketch::DEFAULT_PRECISION), |s| {
                let s = s.clamped();
                (s.spill_threshold, s.precision)
            })
    }

    /// Normalizes the configuration: clamps any sketch precision into the
    /// supported range. Applied when a detector is constructed or restored
    /// from a snapshot, so out-of-range values from hand-edited configs or
    /// foreign checkpoints never linger in live state (where they would
    /// poison [`HyperLogLog::merge`](crate::HyperLogLog::merge) later).
    #[must_use]
    fn normalized(mut self) -> Self {
        self.sketch = self.sketch.map(SketchConfig::clamped);
        self
    }
}

/// Per-source accumulation state for one activity run.
#[derive(Debug)]
struct SourceRun {
    start_ms: u64,
    last_ms: u64,
    packets: u64,
    dsts: DistinctCounter,
    dst_list: Option<FxHashSet<u128>>,
    srcs: DistinctCounter,
    ports: FxHashMap<(Transport, u16), u64>,
}

impl SourceRun {
    fn new(ts: u64, keep_dsts: bool) -> Self {
        SourceRun {
            start_ms: ts,
            last_ms: ts,
            packets: 0,
            dsts: DistinctCounter::new(),
            dst_list: keep_dsts.then(FxHashSet::default),
            srcs: DistinctCounter::new(),
            ports: FxHashMap::default(),
        }
    }

    /// Adds one packet to the run: the single per-row update behind both
    /// [`ScanDetector::observe_aggregated`] and the batched replay.
    ///
    /// `memo` holds what this run was last given. A dst or src equal to
    /// the memo's is already in its counter, and inserting it again would
    /// change no exact set, sketch or `keep_dsts` list, so the insert is
    /// skipped. Packets to the same service are summed in the memo and
    /// added to `ports` once the service changes. Call
    /// [`settle`](Self::settle) before the run is read or replaced.
    #[inline]
    fn absorb(
        &mut self,
        memo: &mut RepeatMemo,
        ts_ms: u64,
        src: u128,
        dst: u128,
        service: (Transport, u16),
        (spill, precision): (usize, u8),
    ) {
        self.last_ms = self.last_ms.max(ts_ms);
        self.packets += 1;
        if memo.dst != Some(dst) {
            self.dsts.insert(dst, spill, precision);
            if let Some(list) = self.dst_list.as_mut() {
                list.insert(dst);
            }
            memo.dst = Some(dst);
        }
        if memo.src != Some(src) {
            self.srcs.insert(src, spill, precision);
            memo.src = Some(src);
        }
        match &mut memo.port {
            Some((k, n)) if *k == service => *n += 1,
            pending => {
                if let Some((k, n)) = pending.replace((service, 1)) {
                    *self.ports.entry(k).or_default() += n;
                }
            }
        }
    }

    /// Adds the memo's pending service count to the run and resets the
    /// memo, which then describes no run: due at a timeout split (before
    /// the old run is emitted) and at the end of a group replay.
    fn settle(&mut self, memo: &mut RepeatMemo) {
        if let Some((k, n)) = memo.port.take() {
            *self.ports.entry(k).or_default() += n;
        }
        *memo = RepeatMemo::default();
    }
}

/// What one [`SourceRun`] was last given during a replay (see
/// [`SourceRun::absorb`]): the last dst and src inserted, and a pending
/// `(service, count)` not yet added to `ports`. Scan traffic repeats these
/// from row to row, so the memos skip most hash operations.
#[derive(Debug, Default)]
struct RepeatMemo {
    dst: Option<u128>,
    src: Option<u128>,
    port: Option<((Transport, u16), u64)>,
}

/// Reusable grouping scratch for [`ScanDetector::observe_batch`]: index
/// vectors and closure buffers survive across batches so the batched path
/// allocates nothing in steady state. Never serialized — it carries no
/// detector state between batches.
#[derive(Debug, Default)]
struct BatchScratch {
    /// Masked (aggregated) source bits per row, one
    /// [`kernels::aggregate_column`](crate::kernels::aggregate_column) pass
    /// per batch.
    keys: Vec<u128>,
    /// Masked source → position in `groups` for the batch being processed.
    index: FxHashMap<u128, usize>,
    /// Per-source record indices (into the batch), in arrival order.
    groups: Vec<(u128, Vec<u32>)>,
    /// Recycled index vectors.
    pool: Vec<Vec<u32>>,
    /// Closed events tagged with the batch index of the closing record, so
    /// emission order can be restored to exact arrival order.
    closed: Vec<(u32, ScanEvent)>,
    /// Columnar staging for the record-slice entry point
    /// ([`ScanDetector::observe_records`]), reused across calls.
    rows: RecordBatch,
}

/// Memory-footprint snapshot of a running detector (what an operator
/// dashboards: per-source state is the thing that grows under attack).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DetectorMemory {
    /// Sources with an open activity run.
    pub open_runs: usize,
    /// Exact destination-set entries held across all runs.
    pub exact_dst_entries: usize,
    /// Runs whose destination counter spilled to a HyperLogLog sketch.
    pub sketched_runs: usize,
    /// Distinct (service → count) histogram entries across all runs.
    pub port_entries: usize,
}

/// Streaming large-scale scan detector. See the module docs for usage.
///
/// ```
/// use lumen6_detect::{ScanDetector, ScanDetectorConfig, AggLevel};
/// use lumen6_trace::PacketRecord;
///
/// let mut det = ScanDetector::new(ScanDetectorConfig::paper(AggLevel::L64));
/// // 150 probes to distinct destinations, one second apart.
/// for i in 0..150u64 {
///     let pkt = PacketRecord::tcp(i * 1_000, 0x2001, 0xd000 + i as u128, 1, 22, 60);
///     assert!(det.observe(&pkt).is_none()); // still within one run
/// }
/// let events = det.finish();
/// assert_eq!(events.len(), 1);
/// assert_eq!(events[0].distinct_dsts, 150);
/// ```
#[derive(Debug)]
pub struct ScanDetector {
    config: ScanDetectorConfig,
    runs: FxHashMap<Ipv6Prefix, SourceRun>,
    observed: u64,
    runs_opened: u64,
    /// Mid-stream events accumulated when this detector is driven through
    /// the unified [`Detect`](crate::session::Detect) trait (whose `observe`
    /// returns nothing); empty when driven via the inherent API.
    pub(crate) pending: Vec<ScanEvent>,
    scratch: BatchScratch,
    /// Batched-path statistics: records ingested via `observe_batch` and
    /// how many of them hit the last-source memo (consecutive records from
    /// the same aggregated source, the common shape of scan traffic).
    batch_records: u64,
    memo_hits: u64,
}

impl ScanDetector {
    /// Creates a detector with the given configuration.
    pub fn new(config: ScanDetectorConfig) -> Self {
        ScanDetector {
            config: config.normalized(),
            runs: FxHashMap::default(),
            observed: 0,
            runs_opened: 0,
            pending: Vec::new(),
            scratch: BatchScratch::default(),
            batch_records: 0,
            memo_hits: 0,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &ScanDetectorConfig {
        &self.config
    }

    /// Number of packets observed so far.
    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// Number of sources with an open activity run (IDS memory footprint).
    pub fn open_runs(&self) -> usize {
        self.runs.len()
    }

    /// Total activity runs ever opened (first packet of a new source, or
    /// the first packet after a timeout split).
    pub fn runs_opened(&self) -> u64 {
        self.runs_opened
    }

    /// Detailed memory snapshot (see [`DetectorMemory`]).
    pub fn memory(&self) -> DetectorMemory {
        let mut m = DetectorMemory {
            open_runs: self.runs.len(),
            ..Default::default()
        };
        for run in self.runs.values() {
            match &run.dsts {
                crate::sketch::DistinctCounter::Exact(set) => m.exact_dst_entries += set.len(),
                crate::sketch::DistinctCounter::Sketch(_) => m.sketched_runs += 1,
            }
            m.port_entries += run.ports.len();
        }
        m
    }

    /// Feeds one packet. Returns a scan event if this packet's arrival
    /// closed a qualifying previous run of the same source (i.e. the gap to
    /// the source's last packet exceeded the timeout).
    ///
    /// Records are expected in non-decreasing time order; a timestamp below
    /// a source's last seen time is tolerated and treated as simultaneous
    /// (gap zero), which keeps the detector robust to mildly disordered
    /// input without growing events backwards in time.
    pub fn observe(&mut self, r: &PacketRecord) -> Option<ScanEvent> {
        let source = self.config.agg.source_of(r.src);
        self.observe_aggregated(source, r)
    }

    /// [`observe`](Self::observe) with the source aggregation already
    /// applied. Callers that fan one packet out to several detectors (the
    /// multi-level and sharded pipelines) compute each aggregation once and
    /// pass it here instead of having every detector re-mask the address.
    ///
    /// `source` must equal `self.config().agg.source_of(r.src)`; passing
    /// anything else corrupts per-source state attribution.
    pub fn observe_aggregated(
        &mut self,
        source: Ipv6Prefix,
        r: &PacketRecord,
    ) -> Option<ScanEvent> {
        debug_assert_eq!(source, self.config.agg.source_of(r.src));
        self.observed += 1;
        let sketch = self.config.sketch_params();

        let mut closed = None;
        let run = match self.runs.entry(source) {
            std::collections::hash_map::Entry::Occupied(mut occ) => {
                let gap = r.ts_ms.saturating_sub(occ.get().last_ms);
                if gap > self.config.timeout_ms {
                    let old = std::mem::replace(
                        occ.get_mut(),
                        SourceRun::new(r.ts_ms, self.config.keep_dsts),
                    );
                    self.runs_opened += 1;
                    closed = Self::emit(&self.config, source, old);
                }
                occ.into_mut()
            }
            std::collections::hash_map::Entry::Vacant(vac) => {
                self.runs_opened += 1;
                vac.insert(SourceRun::new(r.ts_ms, self.config.keep_dsts))
            }
        };

        let mut memo = RepeatMemo::default();
        run.absorb(&mut memo, r.ts_ms, r.src, r.dst, (r.proto, r.dport), sketch);
        run.settle(&mut memo);

        closed
    }

    /// Feeds a decoded [`RecordBatch`] (struct-of-arrays) through the
    /// batched hot path. Returns every scan event closed by records in the
    /// batch, in exact arrival order — byte-for-byte the same events, state,
    /// and ordering as feeding each record through
    /// [`observe`](Self::observe) individually.
    ///
    /// The batch is grouped by aggregated source prefix first, so the
    /// per-source run state is looked up in the runs map once per
    /// (source, batch) instead of once per packet. The grouping key is the
    /// masked source column produced by one
    /// [`kernels::aggregate_column`](crate::kernels::aggregate_column) pass
    /// — a single AND per row — and a last-source memo makes the grouping
    /// itself O(1) per record for bursty scan traffic.
    ///
    /// Each group's replay reads only the `ts`, `src`, `dst`, `proto` and
    /// `dport` columns and keeps three repeat memos for the run it feeds:
    /// the last dst and the last src inserted, and a pending
    /// `((proto, dport), n)` count. A row whose dst or src equals the memo
    /// skips that insert, which is exact because a repeated insert changes
    /// no exact set, sketch or `keep_dsts` list. The pending count is added
    /// to the run's service histogram once, when the service changes. At a
    /// timeout split the pending count goes to the old run before it is
    /// emitted and all three memos reset; at group end the pending count
    /// is added too.
    pub fn observe_batch(&mut self, batch: &RecordBatch) -> Vec<ScanEvent> {
        let n = batch.len();
        let sketch = self.config.sketch_params();
        let keep = self.config.keep_dsts;
        let timeout = self.config.timeout_ms;
        let agg = self.config.agg;
        let mut scratch = std::mem::take(&mut self.scratch);
        let BatchScratch {
            keys,
            index,
            groups,
            pool,
            closed,
            rows: _,
        } = &mut scratch;

        // Phase 1: mask the source column down to the aggregation level in
        // one columnar pass, then group record indices by masked source,
        // preserving arrival order within each group. Consecutive
        // same-source records (the dominant pattern under scan traffic)
        // skip the map entirely.
        crate::kernels::aggregate_column(batch.src(), agg, keys);
        let mut last: Option<(u128, usize)> = None;
        let mut memo_hits = 0u64;
        for (i, &key) in keys.iter().enumerate() {
            let gi = match last {
                Some((k, g)) if k == key => {
                    memo_hits += 1;
                    g
                }
                _ => *index.entry(key).or_insert_with(|| {
                    let g = groups.len();
                    groups.push((key, pool.pop().unwrap_or_default()));
                    g
                }),
            };
            groups[gi].1.push(i as u32);
            last = Some((key, gi));
        }

        // Phase 2: one runs-map lookup per (source, batch), then replay the
        // group's records against the held run. Per-source state depends
        // only on that source's subsequence, so processing groups out of
        // arrival order cannot change any run or counter.
        let (ts_col, src_col, dst_col) = (batch.ts_ms(), batch.src(), batch.dst());
        let (proto_col, dport_col) = (batch.proto(), batch.dport());
        let mut opened = 0u64;
        for (key, idxs) in groups.iter_mut() {
            // The key bits are already masked, so this re-mask is identity.
            let source = Ipv6Prefix::new(*key, agg.len());
            let run = match self.runs.entry(source) {
                std::collections::hash_map::Entry::Occupied(occ) => occ.into_mut(),
                std::collections::hash_map::Entry::Vacant(vac) => {
                    opened += 1;
                    let first_ts = batch.ts_ms()[idxs[0] as usize];
                    vac.insert(SourceRun::new(first_ts, keep))
                }
            };
            let mut memo = RepeatMemo::default();
            for &i in idxs.iter() {
                let row = i as usize;
                let ts = ts_col[row];
                debug_assert_eq!(source, agg.source_of(src_col[row]));
                if ts.saturating_sub(run.last_ms) > timeout {
                    // The pending service count belongs to the old run, and
                    // the memos must not describe the new one.
                    run.settle(&mut memo);
                    let old = std::mem::replace(run, SourceRun::new(ts, keep));
                    opened += 1;
                    if let Some(e) = Self::emit(&self.config, source, old) {
                        closed.push((i, e));
                    }
                }
                run.absorb(
                    &mut memo,
                    ts,
                    src_col[row],
                    dst_col[row],
                    (proto_col[row], dport_col[row]),
                    sketch,
                );
            }
            run.settle(&mut memo);
        }

        // Phase 3: restore exact arrival order for the closure events (a
        // record closes at most one run, so sorting by batch index alone is
        // total) and recycle the scratch buffers.
        closed.sort_unstable_by_key(|&(i, _)| i);
        let out: Vec<ScanEvent> = closed.drain(..).map(|(_, e)| e).collect();
        for (_, mut v) in groups.drain(..) {
            v.clear();
            pool.push(v);
        }
        index.clear();
        self.scratch = scratch;
        self.observed += n as u64;
        self.runs_opened += opened;
        self.batch_records += n as u64;
        self.memo_hits += memo_hits;
        out
    }

    /// [`observe_batch`](Self::observe_batch) over a plain record slice:
    /// stages the rows into a reused columnar scratch batch, then runs the
    /// same grouped path. Off the hot paths — the sharded pipeline ships
    /// columnar sub-batches directly — but kept for slice-shaped callers
    /// and tests.
    pub fn observe_records(&mut self, records: &[PacketRecord]) -> Vec<ScanEvent> {
        let mut rows = std::mem::take(&mut self.scratch.rows);
        rows.clear();
        rows.extend(records.iter().copied());
        let out = self.observe_batch(&rows);
        self.scratch.rows = rows;
        out
    }

    /// Records ingested through the batched path and how many hit the
    /// last-source memo, for the obs hit-rate counters.
    pub fn batch_stats(&self) -> (u64, u64) {
        (self.batch_records, self.memo_hits)
    }

    /// Closes and returns qualifying runs idle since before
    /// `now - timeout`. Lets a long-running deployment bound state size.
    pub fn flush_idle(&mut self, now_ms: u64) -> Vec<ScanEvent> {
        let deadline = now_ms.saturating_sub(self.config.timeout_ms);
        let idle: Vec<Ipv6Prefix> = self
            .runs
            .iter()
            .filter(|(_, run)| run.last_ms < deadline)
            .map(|(s, _)| *s)
            .collect();
        let mut out = Vec::new();
        for s in idle {
            if let Some(run) = self.runs.remove(&s) {
                if let Some(e) = Self::emit(&self.config, s, run) {
                    out.push(e);
                }
            }
        }
        out
    }

    /// Ends the stream: closes every open run and returns the qualifying
    /// events, sorted by (start time, source) for determinism.
    ///
    /// If the batch path was used, flushes its telemetry
    /// (`detect.batch.records` / `detect.batch.memo_hits`) to the global
    /// metrics registry — accumulated as plain integers during the stream
    /// so the hot path stays free of atomics.
    pub fn finish(mut self) -> Vec<ScanEvent> {
        if self.batch_records > 0 {
            let reg = lumen6_obs::MetricsRegistry::global();
            reg.counter("detect.batch.records").add(self.batch_records);
            reg.counter("detect.batch.memo_hits").add(self.memo_hits);
        }
        let mut out: Vec<ScanEvent> = self
            .runs
            .drain()
            .filter_map(|(s, run)| Self::emit(&self.config, s, run))
            .collect();
        out.sort_by_key(|e| (e.start_ms, e.source));
        out
    }

    fn emit(config: &ScanDetectorConfig, source: Ipv6Prefix, run: SourceRun) -> Option<ScanEvent> {
        let distinct = run.dsts.count();
        if distinct < config.min_dsts {
            return None;
        }
        let ports: BTreeMap<(Transport, u16), u64> = run.ports.into_iter().collect();
        let dsts = run.dst_list.map(|set| {
            let mut v: Vec<u128> = set.into_iter().collect();
            v.sort_unstable();
            v
        });
        Some(ScanEvent {
            source,
            agg: config.agg,
            start_ms: run.start_ms,
            end_ms: run.last_ms,
            packets: run.packets,
            distinct_dsts: distinct,
            distinct_srcs: run.srcs.count(),
            ports: ports.into_iter().collect(),
            dsts,
        })
    }

    /// Serializable snapshot of the complete detector state: configuration,
    /// counters, every open run, and any trait-accumulated pending events.
    /// Order-sensitive collections are sorted, so two detectors in the same
    /// logical state produce identical snapshots.
    pub fn state(&self) -> LevelState {
        let mut runs: Vec<RunState> = self
            .runs
            .iter()
            .map(|(source, run)| RunState {
                source: *source,
                start_ms: run.start_ms,
                last_ms: run.last_ms,
                packets: run.packets,
                dsts: CounterState::from(&run.dsts),
                dst_list: run.dst_list.as_ref().map(|set| {
                    let mut v: Vec<u128> = set.iter().copied().collect();
                    v.sort_unstable();
                    v
                }),
                srcs: CounterState::from(&run.srcs),
                ports: {
                    let mut v: Vec<((Transport, u16), u64)> =
                        run.ports.iter().map(|(&k, &n)| (k, n)).collect();
                    v.sort_unstable_by_key(|&(k, _)| k);
                    v
                },
            })
            .collect();
        runs.sort_by_key(|r| r.source);
        LevelState {
            config: self.config.clone(),
            observed: self.observed,
            runs_opened: self.runs_opened,
            runs,
            pending: self.pending.clone(),
        }
    }

    /// Rebuilds a detector from a [`state`](Self::state) snapshot. The
    /// snapshot's embedded configuration is authoritative.
    pub fn from_state(state: &LevelState) -> Self {
        let runs = state
            .runs
            .iter()
            .map(|r| {
                (
                    r.source,
                    SourceRun {
                        start_ms: r.start_ms,
                        last_ms: r.last_ms,
                        packets: r.packets,
                        dsts: DistinctCounter::from(&r.dsts),
                        dst_list: r.dst_list.as_ref().map(|v| v.iter().copied().collect()),
                        srcs: DistinctCounter::from(&r.srcs),
                        ports: r.ports.iter().copied().collect(),
                    },
                )
            })
            .collect();
        ScanDetector {
            config: state.config.clone().normalized(),
            runs,
            observed: state.observed,
            runs_opened: state.runs_opened,
            pending: state.pending.clone(),
            scratch: BatchScratch::default(),
            batch_records: 0,
            memo_hits: 0,
        }
    }
}

/// Runs the detector over a complete, time-sorted slice and returns the full
/// report (mid-stream closures plus end-of-stream flush).
pub fn detect(records: &[PacketRecord], config: ScanDetectorConfig) -> ScanReport {
    let mut det = ScanDetector::new(config);
    let mut events = Vec::new();
    for r in records {
        if let Some(e) = det.observe(r) {
            events.push(e);
        }
    }
    events.extend(det.finish());
    events.sort_by_key(|e| (e.start_ms, e.source));
    ScanReport::new(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    const HOUR: u64 = 3_600_000;

    /// `n` packets from `src`, one per second, to distinct destinations.
    fn burst(src: u128, t0: u64, n: u64, dport: u16) -> Vec<PacketRecord> {
        (0..n)
            .map(|i| PacketRecord::tcp(t0 + i * 1000, src, 0xdd00 + i as u128, 40000, dport, 60))
            .collect()
    }

    #[test]
    fn hundred_destinations_qualifies() {
        let recs = burst(1, 0, 100, 22);
        let report = detect(&recs, ScanDetectorConfig::paper(AggLevel::L128));
        assert_eq!(report.scans(), 1);
        let e = &report.events[0];
        assert_eq!(e.packets, 100);
        assert_eq!(e.distinct_dsts, 100);
        assert_eq!(e.distinct_srcs, 1);
        assert_eq!(e.start_ms, 0);
        assert_eq!(e.end_ms, 99_000);
    }

    #[test]
    fn ninety_nine_destinations_does_not() {
        let recs = burst(1, 0, 99, 22);
        let report = detect(&recs, ScanDetectorConfig::paper(AggLevel::L128));
        assert_eq!(report.scans(), 0);
    }

    #[test]
    fn repeated_destinations_do_not_count_twice() {
        // 200 packets but only 50 distinct destinations.
        let mut recs = Vec::new();
        for i in 0..200u64 {
            recs.push(PacketRecord::tcp(i * 1000, 1, (i % 50) as u128, 1, 22, 60));
        }
        let report = detect(&recs, ScanDetectorConfig::paper(AggLevel::L128));
        assert_eq!(report.scans(), 0);
    }

    #[test]
    fn timeout_splits_events() {
        let mut recs = burst(1, 0, 100, 22);
        recs.extend(burst(1, 100_000 + HOUR + 1, 100, 22));
        let report = detect(&recs, ScanDetectorConfig::paper(AggLevel::L128));
        assert_eq!(report.scans(), 2);
        assert_eq!(report.sources(), 1);
    }

    #[test]
    fn gap_exactly_at_timeout_does_not_split() {
        // Last packet of first burst at t=99_000; next packet exactly
        // `timeout` later must stay in the same event (strictly-greater gap
        // splits).
        let mut recs = burst(1, 0, 100, 22);
        recs.extend(burst(1, 99_000 + HOUR, 100, 23));
        let report = detect(&recs, ScanDetectorConfig::paper(AggLevel::L128));
        assert_eq!(report.scans(), 1);
        assert_eq!(report.events[0].packets, 200);
    }

    #[test]
    fn gap_one_ms_over_timeout_splits() {
        let mut recs = burst(1, 0, 100, 22);
        recs.extend(burst(1, 99_000 + HOUR + 1, 100, 22));
        let report = detect(&recs, ScanDetectorConfig::paper(AggLevel::L128));
        assert_eq!(report.scans(), 2);
    }

    /// A mixed workload: interleaved sources, a timeout split, and
    /// sub-threshold noise — exercises memo hits, group reuse, and
    /// mid-batch closures.
    fn mixed_workload() -> Vec<PacketRecord> {
        let mut recs = Vec::new();
        for s in 0..5u64 {
            recs.extend(burst(0x2001_0000 + u128::from(s), s * 137, 110 + s, 22));
        }
        recs.extend(burst(0x2001_0000, 200_000 + HOUR + 1, 120, 443));
        recs.extend(burst(0x9999, 50_000, 20, 53)); // below min_dsts
        lumen6_trace::sort_by_time(&mut recs);
        recs
    }

    /// Feeds `recs` per record and in batches of several sizes (including
    /// size 1 and the whole input), and asserts equal mid-stream events,
    /// `state()`, counters and final events.
    fn assert_batched_matches_per_record(cfg: &ScanDetectorConfig, recs: &[PacketRecord]) {
        let mut per_record = ScanDetector::new(cfg.clone());
        let mut per_events = Vec::new();
        for r in recs {
            per_events.extend(per_record.observe(r));
        }
        let per_state = per_record.state();
        let per_observed = per_record.observed();
        let per_opened = per_record.runs_opened();
        let per_final = per_record.finish();

        // Awkward batch sizes: mid-run splits, size-1 batches.
        for chunk in [1usize, 2, 7, 64, recs.len().max(1)] {
            let mut batched = ScanDetector::new(cfg.clone());
            let mut bat_events = Vec::new();
            for part in recs.chunks(chunk) {
                let batch: RecordBatch = part.iter().copied().collect();
                bat_events.extend(batched.observe_batch(&batch));
            }
            assert_eq!(bat_events, per_events, "chunk={chunk}: events");
            assert_eq!(batched.state(), per_state, "chunk={chunk}: snapshot state");
            assert_eq!(batched.observed(), per_observed);
            assert_eq!(batched.runs_opened(), per_opened);
            assert_eq!(batched.finish(), per_final, "chunk={chunk}: final events");
        }
    }

    #[test]
    fn observe_batch_matches_per_record() {
        for cfg in [
            ScanDetectorConfig::paper(AggLevel::L128),
            ScanDetectorConfig::paper(AggLevel::L64),
            ScanDetectorConfig {
                keep_dsts: true,
                ..ScanDetectorConfig::paper(AggLevel::L128)
            },
            ScanDetectorConfig {
                sketch: Some((64, 12).into()),
                ..ScanDetectorConfig::paper(AggLevel::L128)
            },
        ] {
            assert_batched_matches_per_record(&cfg, &mixed_workload());
        }
    }

    /// A small-threshold config so that runs of a handful of rows emit
    /// events, whose packet counts, distinct counts and ports then show up
    /// in the comparison.
    fn tiny_cfg() -> ScanDetectorConfig {
        ScanDetectorConfig {
            min_dsts: 1,
            ..ScanDetectorConfig::paper(AggLevel::L128)
        }
    }

    #[test]
    fn repeat_memos_reset_at_timeout_split_inside_one_group() {
        // One source; the row after the gap repeats the dst, src and port
        // of the row before it, so a memo carried over the split would
        // skip the new run's first dst and src inserts and misattribute
        // the pending port count.
        let (src, d1, d2) = (0x2001_0db8, 0xd1, 0xd2);
        let mut recs = vec![
            PacketRecord::tcp(0, src, d1, 1, 22, 60),
            PacketRecord::tcp(10, src, d1, 1, 22, 60),
            PacketRecord::tcp(20, src, d2, 1, 22, 60),
        ];
        let t = 20 + HOUR + 1;
        recs.extend([
            PacketRecord::tcp(t, src, d2, 1, 22, 60),
            PacketRecord::tcp(t + 10, src, d2, 1, 22, 60),
            PacketRecord::tcp(t + 20, src, d1, 1, 443, 60),
        ]);
        assert_batched_matches_per_record(&tiny_cfg(), &recs);

        let mut det = ScanDetector::new(tiny_cfg());
        let batch: RecordBatch = recs.iter().copied().collect();
        let closed = det.observe_batch(&batch);
        assert_eq!(closed.len(), 1);
        assert_eq!(closed[0].packets, 3);
        assert_eq!(closed[0].distinct_dsts, 2);
        assert_eq!(closed[0].ports, vec![((Transport::Tcp, 22), 3)]);
        let state = det.state();
        let run = &state.runs[0];
        assert_eq!(run.packets, 3);
        assert_eq!(
            run.ports,
            vec![((Transport::Tcp, 22), 2), ((Transport::Tcp, 443), 1)]
        );
        let open = det.finish();
        assert_eq!(open[0].distinct_dsts, 2, "d2 counted in the new run");
        assert_eq!(open[0].distinct_srcs, 1, "src counted in the new run");
    }

    #[test]
    fn repeat_memo_port_pattern_a_b_a() {
        let src = 0x2001_0db8;
        let ports = [22u16, 80, 22, 22, 80, 22];
        let recs: Vec<PacketRecord> = ports
            .iter()
            .enumerate()
            .map(|(i, &p)| PacketRecord::tcp(i as u64, src, 0xd0 + (i as u128 % 2), 1, p, 60))
            .collect();
        assert_batched_matches_per_record(&tiny_cfg(), &recs);

        let mut det = ScanDetector::new(tiny_cfg());
        det.observe_batch(&recs.iter().copied().collect());
        assert_eq!(
            det.state().runs[0].ports,
            vec![((Transport::Tcp, 22), 4), ((Transport::Tcp, 80), 2)]
        );
    }

    #[test]
    fn repeat_memos_across_sketch_spill_with_keep_dsts() {
        // The dst counter spills after 4 distinct dsts; repeats land right
        // before, at and after the spill, and the src column alternates
        // inside one /64 so the src memo both hits and misses.
        let cfg = ScanDetectorConfig {
            agg: AggLevel::L64,
            keep_dsts: true,
            sketch: Some(SketchConfig::spill_at(4)),
            ..tiny_cfg()
        };
        let dsts = [1u128, 2, 3, 4, 4, 4, 5, 5, 6, 3, 3, 7, 7, 8];
        let recs: Vec<PacketRecord> = dsts
            .iter()
            .enumerate()
            .map(|(i, &d)| {
                let src = 0x2001_0db8 + (i as u128 / 3 % 2);
                PacketRecord::udp(i as u64 * 1000, src, 0xdd00 + d, 1, 53, 60)
            })
            .collect();
        assert_batched_matches_per_record(&cfg, &recs);
        let mut det = ScanDetector::new(cfg);
        det.observe_batch(&recs.iter().copied().collect());
        assert!(matches!(det.state().runs[0].dsts, CounterState::Sketch(_)));
        assert_eq!(det.state().runs[0].dst_list.as_ref().map(Vec::len), Some(8));
    }

    #[test]
    fn observe_records_slice_path_matches_batch_path() {
        let recs = mixed_workload();
        let cfg = ScanDetectorConfig::paper(AggLevel::L64);
        let mut a = ScanDetector::new(cfg.clone());
        let mut b = ScanDetector::new(cfg);
        let batch: RecordBatch = recs.iter().copied().collect();
        assert_eq!(a.observe_batch(&batch), b.observe_records(&recs));
        assert_eq!(a.state(), b.state());
    }

    #[test]
    fn batch_memo_counts_consecutive_same_source_lookups() {
        let recs = burst(7, 0, 100, 22);
        let mut det = ScanDetector::new(ScanDetectorConfig::paper(AggLevel::L128));
        det.observe_records(&recs);
        let (records, memo_hits) = det.batch_stats();
        assert_eq!(records, 100);
        assert_eq!(memo_hits, 99, "every record after the first memo-hits");
    }

    #[test]
    fn mid_stream_emission_on_gap() {
        let mut det = ScanDetector::new(ScanDetectorConfig::paper(AggLevel::L128));
        for r in burst(1, 0, 100, 22) {
            assert!(det.observe(&r).is_none());
        }
        // First packet after the timeout closes and emits the run.
        let r = PacketRecord::tcp(99_000 + HOUR + 1, 1, 9, 1, 22, 60);
        let e = det.observe(&r).expect("qualifying run closes");
        assert_eq!(e.distinct_dsts, 100);
        // The trailing single packet does not qualify.
        assert!(det.finish().is_empty());
    }

    #[test]
    fn aggregation_merges_spread_sources() {
        // 100 distinct /128 sources in one /64, each sending ONE packet to a
        // distinct destination: invisible at /128, a scan at /64. This is
        // the paper's central methodological point.
        let base: u128 = 0x2001_0db8_0000_0000_0000_0000_0000_0000;
        let recs: Vec<PacketRecord> = (0..100u64)
            .map(|i| PacketRecord::tcp(i * 1000, base + i as u128, 0xee00 + i as u128, 1, 22, 60))
            .collect();
        let at128 = detect(&recs, ScanDetectorConfig::paper(AggLevel::L128));
        assert_eq!(at128.scans(), 0);
        let at64 = detect(&recs, ScanDetectorConfig::paper(AggLevel::L64));
        assert_eq!(at64.scans(), 1);
        assert_eq!(at64.events[0].distinct_srcs, 100);
        assert_eq!(at64.events[0].source.len(), 64);
    }

    #[test]
    fn forty_eight_can_qualify_when_no_64_does() {
        // Two /64s in one /48, each targeting 60 destinations: no /64 scan,
        // one /48 scan (Table 2, AS#18 situation).
        let p64a: u128 = 0x2001_0db8_0001_0000_0000_0000_0000_0001;
        let p64b: u128 = 0x2001_0db8_0001_0001_0000_0000_0000_0001;
        let mut recs = burst(p64a, 0, 60, 22);
        recs.extend(burst(p64b, 500, 60, 22));
        // Distinct destinations across the two bursts:
        for (i, r) in recs.iter_mut().enumerate() {
            r.dst = 0xaa00 + i as u128;
        }
        lumen6_trace::sort_by_time(&mut recs);
        assert_eq!(
            detect(&recs, ScanDetectorConfig::paper(AggLevel::L64)).scans(),
            0
        );
        let at48 = detect(&recs, ScanDetectorConfig::paper(AggLevel::L48));
        assert_eq!(at48.scans(), 1);
        assert_eq!(at48.events[0].distinct_dsts, 120);
    }

    #[test]
    fn keep_dsts_returns_sorted_targets() {
        let recs = burst(1, 0, 100, 22);
        let report = detect(&recs, ScanDetectorConfig::paper(AggLevel::L128).with_dsts());
        let dsts = report.events[0].dsts.as_ref().unwrap();
        assert_eq!(dsts.len(), 100);
        assert!(dsts.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(dsts[0], 0xdd00);
    }

    #[test]
    fn ports_histogram_accumulates() {
        let mut recs = burst(1, 0, 100, 22);
        recs.extend(burst(1, 100_000, 50, 443));
        let report = detect(&recs, ScanDetectorConfig::paper(AggLevel::L128));
        let e = &report.events[0];
        assert_eq!(e.num_ports(), 2);
        assert!(e.targets(Transport::Tcp, 22));
        assert_eq!(e.top_port().unwrap(), ((Transport::Tcp, 22), 100));
    }

    #[test]
    fn flush_idle_bounds_state() {
        let mut det = ScanDetector::new(ScanDetectorConfig::paper(AggLevel::L128));
        for r in burst(1, 0, 100, 22) {
            det.observe(&r);
        }
        for r in burst(2, HOUR, 5, 22) {
            det.observe(&r);
        }
        assert_eq!(det.open_runs(), 2);
        // Source 1 idle since 99s; flush at a time where only it is expired.
        let flushed = det.flush_idle(99_000 + HOUR + 1);
        assert_eq!(flushed.len(), 1);
        assert_eq!(det.open_runs(), 1);
        // Non-qualifying idle runs are dropped silently.
        let flushed2 = det.flush_idle(HOUR + 5_000 + HOUR + 1);
        assert!(flushed2.is_empty());
        assert_eq!(det.open_runs(), 0);
    }

    #[test]
    fn out_of_order_timestamp_tolerated() {
        let mut recs = burst(1, 10_000, 100, 22);
        // A straggler 5 s in the past.
        recs.push(PacketRecord::tcp(5_000, 1, 0xffff, 1, 22, 60));
        let report = detect(&recs, ScanDetectorConfig::paper(AggLevel::L128));
        assert_eq!(report.scans(), 1);
        let e = &report.events[0];
        assert_eq!(e.packets, 101);
        // Event does not extend backwards past its first-seen packet.
        assert_eq!(e.start_ms, 10_000);
    }

    #[test]
    fn sketched_detection_close_to_exact() {
        let recs = burst(1, 0, 5_000, 22);
        let exact = detect(&recs, ScanDetectorConfig::paper(AggLevel::L128));
        let mut cfg = ScanDetectorConfig::paper(AggLevel::L128);
        cfg.sketch = Some(SketchConfig::spill_at(256));
        let sketched = detect(&recs, cfg);
        assert_eq!(exact.scans(), 1);
        assert_eq!(sketched.scans(), 1);
        let a = exact.events[0].distinct_dsts as f64;
        let b = sketched.events[0].distinct_dsts as f64;
        assert!((a - b).abs() / a < 0.05, "exact={a} sketched={b}");
    }

    #[test]
    fn min_dsts_five_matches_loose_definition() {
        let recs = burst(1, 0, 7, 22);
        let mut cfg = ScanDetectorConfig::paper(AggLevel::L128);
        cfg.min_dsts = 5;
        assert_eq!(detect(&recs, cfg).scans(), 1);
        assert_eq!(
            detect(&recs, ScanDetectorConfig::paper(AggLevel::L128)).scans(),
            0
        );
    }

    #[test]
    fn memory_snapshot_tracks_state_and_spills() {
        let mut cfg = ScanDetectorConfig::paper(AggLevel::L128);
        cfg.sketch = Some(SketchConfig::spill_at(64));
        let mut det = ScanDetector::new(cfg);
        // Source 1: 200 distinct destinations → spills past 64.
        for r in burst(1, 0, 200, 22) {
            det.observe(&r);
        }
        // Source 2: 10 destinations → stays exact.
        for r in burst(2, 0, 10, 23) {
            det.observe(&r);
        }
        let m = det.memory();
        assert_eq!(m.open_runs, 2);
        assert_eq!(m.sketched_runs, 1);
        assert_eq!(m.exact_dst_entries, 10);
        assert_eq!(m.port_entries, 2);
        // Sketch caps the per-source footprint: the spilled run no longer
        // contributes destination entries.
        let empty = ScanDetector::new(ScanDetectorConfig::default());
        assert_eq!(empty.memory(), DetectorMemory::default());
    }

    #[test]
    fn empty_input_empty_report() {
        let report = detect(&[], ScanDetectorConfig::default());
        assert_eq!(report.scans(), 0);
        assert_eq!(report.packets(), 0);
    }

    #[test]
    fn construction_and_restore_clamp_sketch_precision() {
        use crate::sketch::{DEFAULT_PRECISION, MAX_PRECISION};
        let cfg = ScanDetectorConfig {
            sketch: Some(SketchConfig {
                spill_threshold: 64,
                precision: 99,
            }),
            ..Default::default()
        };
        let det = ScanDetector::new(cfg);
        assert_eq!(
            det.config().sketch.map(|s| s.precision),
            Some(MAX_PRECISION)
        );
        // Simulate a foreign snapshot carrying an unclamped precision: the
        // restore boundary must normalize it too, so a restored detector
        // can always merge sketches with a freshly built one.
        let mut state = det.state();
        state.config.sketch = Some(SketchConfig {
            spill_threshold: 64,
            precision: 99,
        });
        let back = ScanDetector::from_state(&state);
        assert_eq!(back.config().sketch_params(), (64, MAX_PRECISION));
        // And the exact (no-sketch) default never spills.
        assert_eq!(
            ScanDetectorConfig::default().sketch_params(),
            (usize::MAX, DEFAULT_PRECISION)
        );
    }
}
