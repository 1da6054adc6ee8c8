//! One-pass simultaneous detection at several aggregation levels.
//!
//! The paper's Table 1 and Fig. 2 report /128, /64, and /48 results side by
//! side, and its discussion (§5) suggests IDSes "track simultaneously
//! various aggregations". Re-reading a multi-month trace once per level is
//! wasteful; [`MultiLevelDetector`] fans each packet out to one
//! [`ScanDetector`] per level in a single pass. The ablation bench
//! `adaptive_vs_fixed` compares this against the naive multi-pass loop.

use crate::aggregate::AggLevel;
use crate::detector::{ScanDetector, ScanDetectorConfig};
use crate::event::{ScanEvent, ScanReport};
use crate::snapshot::LevelState;
use lumen6_addr::Ipv6Prefix;
use lumen6_trace::{PacketRecord, RecordBatch};
use std::collections::BTreeMap;

/// Simultaneous multi-level scan detection.
#[derive(Debug)]
pub struct MultiLevelDetector {
    detectors: Vec<(AggLevel, ScanDetector)>,
    /// Mid-stream events per level, in arrival order.
    pending: BTreeMap<AggLevel, Vec<ScanEvent>>,
}

impl MultiLevelDetector {
    /// Creates one detector per level, sharing the base configuration
    /// (whose own `agg` field is overridden per level).
    pub fn new(levels: &[AggLevel], base: ScanDetectorConfig) -> Self {
        let detectors = levels
            .iter()
            .map(|&lvl| {
                let mut cfg = base.clone();
                cfg.agg = lvl;
                (lvl, ScanDetector::new(cfg))
            })
            .collect();
        MultiLevelDetector {
            detectors,
            pending: BTreeMap::new(),
        }
    }

    /// The paper's three levels with the paper's scan definition.
    pub fn paper() -> Self {
        Self::new(&AggLevel::PAPER_LEVELS, ScanDetectorConfig::default())
    }

    /// The configured aggregation levels, in detection order.
    pub fn levels(&self) -> Vec<AggLevel> {
        self.detectors.iter().map(|(lvl, _)| *lvl).collect()
    }

    /// Packets observed so far (every level sees every packet).
    pub fn observed(&self) -> u64 {
        self.detectors.first().map_or(0, |(_, det)| det.observed())
    }

    /// Feeds one packet to every level.
    ///
    /// The source aggregation is computed once per packet and narrowed from
    /// the previous level when levels are ordered fine-to-coarse (as
    /// [`AggLevel::PAPER_LEVELS`] is), instead of every detector re-masking
    /// the full 128-bit address.
    pub fn observe(&mut self, r: &PacketRecord) {
        let mut prev: Option<Ipv6Prefix> = None;
        for (lvl, det) in &mut self.detectors {
            let source = match prev {
                Some(p) if p.len() >= lvl.len() => p.aggregate(lvl.len()),
                _ => lvl.source_of(r.src),
            };
            prev = Some(source);
            if let Some(e) = det.observe_aggregated(source, r) {
                self.pending.entry(*lvl).or_default().push(e);
            }
        }
    }

    /// Feeds a columnar batch to every level via the grouped batch path
    /// (see [`ScanDetector::observe_batch`]). Equivalent to calling
    /// [`observe`](Self::observe) on each record in order; the per-level
    /// grouping pass amortizes source aggregation and run-state lookups
    /// across the batch instead of narrowing prefixes per packet.
    pub fn observe_batch(&mut self, batch: &RecordBatch) {
        for (lvl, det) in &mut self.detectors {
            let events = det.observe_batch(batch);
            if !events.is_empty() {
                self.pending.entry(*lvl).or_default().extend(events);
            }
        }
    }

    /// [`observe_batch`](Self::observe_batch) over a plain record slice:
    /// stages the rows into one columnar batch that every level reads.
    pub fn observe_records(&mut self, records: &[PacketRecord]) {
        let batch: RecordBatch = records.iter().copied().collect();
        self.observe_batch(&batch);
    }

    /// Closes runs idle since before `now - timeout` at every level,
    /// collecting qualifying events into the pending set that
    /// [`finish`](Self::finish) reports. Report-neutral: an event closed
    /// here is identical to the one `finish` would eventually emit, so
    /// flushing at any cadence never changes the final reports.
    pub fn flush_idle(&mut self, now_ms: u64) {
        for (lvl, det) in &mut self.detectors {
            let events = det.flush_idle(now_ms);
            if !events.is_empty() {
                self.pending.entry(*lvl).or_default().extend(events);
            }
        }
    }

    /// Serializable per-level snapshot of the complete detector state,
    /// including mid-stream pending events.
    pub fn state(&self) -> Vec<LevelState> {
        self.detectors
            .iter()
            .map(|(lvl, det)| {
                let mut st = det.state();
                if let Some(p) = self.pending.get(lvl) {
                    st.pending.extend(p.iter().cloned());
                }
                st
            })
            .collect()
    }

    /// Rebuilds a multi-level detector from per-level snapshots (each
    /// state's embedded configuration, including its level, is
    /// authoritative).
    pub fn from_state(states: &[LevelState]) -> Self {
        let mut pending = BTreeMap::new();
        let detectors = states
            .iter()
            .map(|st| {
                let mut det = ScanDetector::from_state(st);
                let lvl = det.config().agg;
                let p = std::mem::take(&mut det.pending);
                if !p.is_empty() {
                    pending.insert(lvl, p);
                }
                (lvl, det)
            })
            .collect();
        MultiLevelDetector { detectors, pending }
    }

    /// Ends the stream and returns the per-level reports.
    ///
    /// Flushes per-level telemetry (`detect.multi.l<len>.runs_opened` /
    /// `.events_closed`) to the global metrics registry — counts accumulate
    /// as plain integers during the stream, so observation stays free of
    /// atomics.
    pub fn finish(mut self) -> BTreeMap<AggLevel, ScanReport> {
        let reg = lumen6_obs::MetricsRegistry::global();
        let mut out = BTreeMap::new();
        for (lvl, det) in self.detectors {
            let opened = det.runs_opened();
            let mut events = self.pending.remove(&lvl).unwrap_or_default();
            events.extend(det.finish());
            events.sort_by_key(|e| (e.start_ms, e.source));
            reg.counter(&format!("detect.multi.l{}.runs_opened", lvl.len()))
                .add(opened);
            reg.counter(&format!("detect.multi.l{}.events_closed", lvl.len()))
                .add(events.len() as u64);
            out.insert(lvl, ScanReport::new(events));
        }
        out
    }
}

/// Convenience: runs multi-level detection over a complete sorted slice.
pub fn detect_multi(
    records: &[PacketRecord],
    levels: &[AggLevel],
    base: ScanDetectorConfig,
) -> BTreeMap<AggLevel, ScanReport> {
    let mut det = MultiLevelDetector::new(levels, base);
    for r in records {
        det.observe(r);
    }
    det.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::detect;

    fn spread_scan() -> Vec<PacketRecord> {
        // 100 /128s across one /64, each one packet to a distinct dst, plus
        // one heavy /128 hitting 150 dsts.
        let base: u128 = 0x2001_0db8_0000_0000_0000_0000_0000_0000;
        let heavy: u128 = 0x2001_0db9_0000_0000_0000_0000_0000_0001;
        let mut recs: Vec<PacketRecord> = (0..100u64)
            .map(|i| PacketRecord::tcp(i * 1000, base + i as u128, 0xa000 + i as u128, 1, 22, 60))
            .collect();
        recs.extend(
            (0..150u64).map(|i| PacketRecord::tcp(i * 900, heavy, 0xb000 + i as u128, 1, 22, 60)),
        );
        lumen6_trace::sort_by_time(&mut recs);
        recs
    }

    #[test]
    fn single_pass_equals_multi_pass() {
        let recs = spread_scan();
        let multi = detect_multi(
            &recs,
            &AggLevel::PAPER_LEVELS,
            ScanDetectorConfig::default(),
        );
        for lvl in AggLevel::PAPER_LEVELS {
            let single = detect(&recs, ScanDetectorConfig::paper(lvl));
            let m = &multi[&lvl];
            assert_eq!(m.scans(), single.scans(), "level {lvl}");
            assert_eq!(m.packets(), single.packets(), "level {lvl}");
            assert_eq!(m.source_set(), single.source_set(), "level {lvl}");
        }
    }

    #[test]
    fn levels_see_different_pictures() {
        let recs = spread_scan();
        let multi = detect_multi(
            &recs,
            &AggLevel::PAPER_LEVELS,
            ScanDetectorConfig::default(),
        );
        // /128: only the heavy source qualifies. /64: heavy + spread = 2.
        assert_eq!(multi[&AggLevel::L128].scans(), 1);
        assert_eq!(multi[&AggLevel::L64].scans(), 2);
        assert_eq!(multi[&AggLevel::L48].scans(), 2);
    }

    #[test]
    fn empty_input() {
        let multi = detect_multi(&[], &AggLevel::PAPER_LEVELS, ScanDetectorConfig::default());
        assert!(multi.values().all(|r| r.scans() == 0));
    }

    #[test]
    fn mid_stream_events_are_collected() {
        // Two bursts separated by more than the timeout: the first event is
        // emitted mid-stream and must appear in the final report.
        let mut recs: Vec<PacketRecord> = (0..100u64)
            .map(|i| PacketRecord::tcp(i * 1000, 1, 0xa000 + i as u128, 1, 22, 60))
            .collect();
        recs.extend(
            (0..100u64)
                .map(|i| PacketRecord::tcp(8_000_000 + i * 1000, 1, 0xa000 + i as u128, 1, 22, 60)),
        );
        let multi = detect_multi(&recs, &[AggLevel::L128], ScanDetectorConfig::default());
        assert_eq!(multi[&AggLevel::L128].scans(), 2);
    }
}
