//! Property tests for detector invariants: conservation, event separation,
//! and monotonicity in the scan-definition parameters.

use lumen6_detect::detector::detect;
use lumen6_detect::{AggLevel, ScanDetectorConfig};
use lumen6_trace::PacketRecord;
use proptest::prelude::*;
use std::collections::HashMap;

/// Generates a random but time-sorted workload with a handful of sources and
/// destinations, deltas small enough that both split and no-split cases occur.
fn arb_workload() -> impl Strategy<Value = Vec<PacketRecord>> {
    proptest::collection::vec((0u64..200_000, 0u8..6, 0u16..300, 1u16..5), 1..300).prop_map(
        |steps| {
            let mut ts = 0u64;
            steps
                .into_iter()
                .map(|(dt, src, dst, port)| {
                    ts += dt;
                    PacketRecord::tcp(
                        ts,
                        (u128::from(src) << 64) | 1,
                        u128::from(dst),
                        40_000,
                        port,
                        60,
                    )
                })
                .collect()
        },
    )
}

fn cfg(min_dsts: u64, timeout_ms: u64) -> ScanDetectorConfig {
    ScanDetectorConfig {
        agg: AggLevel::L64,
        min_dsts,
        timeout_ms,
        keep_dsts: true,
        sketch: None,
    }
}

/// Interleaves records one-per-source while preserving each source's own
/// order — consecutive rows almost always route to *different* shards,
/// defeating the columnar router's last-source memo and maximally
/// fragmenting the per-shard staging buffers.
fn round_robin_by_source(recs: &[PacketRecord]) -> Vec<PacketRecord> {
    let mut groups: Vec<(u128, std::collections::VecDeque<PacketRecord>)> = Vec::new();
    for r in recs {
        match groups.iter_mut().find(|(s, _)| *s == r.src) {
            Some((_, g)) => g.push_back(*r),
            None => groups.push((r.src, std::iter::once(*r).collect())),
        }
    }
    let mut out = Vec::with_capacity(recs.len());
    while out.len() < recs.len() {
        for (_, g) in &mut groups {
            if let Some(r) = g.pop_front() {
                out.push(r);
            }
        }
    }
    out
}

/// The three adversarial arrival orders the batch-routed sharded
/// differential tests sweep. Each preserves every source's internal time
/// order (what detection state depends on) while stressing a different
/// router behavior.
fn apply_ordering(recs: &[PacketRecord], ordering: usize) -> Vec<PacketRecord> {
    match ordering {
        // Every row shares one source: all sub-batches land on one shard
        // and the other shards only ever see flush/finish control messages.
        0 => recs
            .iter()
            .map(|r| PacketRecord {
                src: recs[0].src,
                ..*r
            })
            .collect(),
        // Round-robin across sources: worst case for the routing memo.
        1 => round_robin_by_source(recs),
        // Stable-sorted by source: the stream arrives source-clustered, so
        // each flush window routes long runs to a single shard (worst-case
        // imbalance within a window).
        _ => {
            let mut v = recs.to_vec();
            v.sort_by_key(|r| r.src);
            v
        }
    }
}

proptest! {
    /// With min_dsts = 1, every packet belongs to exactly one event.
    #[test]
    fn conservation_at_min_dsts_one(recs in arb_workload(), timeout in 1_000u64..100_000) {
        let report = detect(&recs, cfg(1, timeout));
        let total: u64 = report.events.iter().map(|e| e.packets).sum();
        prop_assert_eq!(total, recs.len() as u64);
        // Per-event port histograms also conserve packets.
        for e in &report.events {
            let by_port: u64 = e.ports.iter().map(|(_, n)| n).sum();
            prop_assert_eq!(by_port, e.packets);
        }
    }

    /// Qualifying events never contain more packets than the input, and
    /// distinct_dsts is bounded by packets.
    #[test]
    fn events_are_bounded(recs in arb_workload()) {
        let report = detect(&recs, cfg(10, 50_000));
        let total: u64 = report.events.iter().map(|e| e.packets).sum();
        prop_assert!(total <= recs.len() as u64);
        for e in &report.events {
            prop_assert!(e.distinct_dsts <= e.packets);
            prop_assert!(e.distinct_srcs <= e.packets);
            prop_assert!(e.start_ms <= e.end_ms);
            prop_assert_eq!(e.dsts.as_ref().unwrap().len() as u64, e.distinct_dsts);
        }
    }

    /// Same-source events are separated by more than the timeout.
    #[test]
    fn event_separation(recs in arb_workload(), timeout in 1_000u64..100_000) {
        let report = detect(&recs, cfg(1, timeout));
        let mut per_source: HashMap<_, Vec<(u64, u64)>> = HashMap::new();
        for e in &report.events {
            per_source.entry(e.source).or_default().push((e.start_ms, e.end_ms));
        }
        for spans in per_source.values_mut() {
            spans.sort();
            for w in spans.windows(2) {
                prop_assert!(w[1].0 > w[0].1 + timeout,
                    "events {:?} and {:?} closer than timeout {}", w[0], w[1], timeout);
            }
        }
    }

    /// Lowering min_dsts can only add scans (superset of sources).
    #[test]
    fn min_dsts_monotone(recs in arb_workload()) {
        let strict = detect(&recs, cfg(50, 50_000));
        let loose = detect(&recs, cfg(5, 50_000));
        prop_assert!(loose.scans() >= strict.scans());
        let loose_sources = loose.source_set();
        for s in strict.source_set() {
            prop_assert!(loose_sources.contains(&s));
        }
    }

    /// Raising the timeout can only merge runs: every source detected with a
    /// short timeout is detected with a longer one.
    #[test]
    fn timeout_monotone_in_sources(recs in arb_workload()) {
        let short = detect(&recs, cfg(20, 5_000));
        let long = detect(&recs, cfg(20, 500_000));
        let long_sources = long.source_set();
        for s in short.source_set() {
            prop_assert!(long_sources.contains(&s));
        }
        // Scan *events* can only shrink or stay equal in number when runs merge.
        prop_assert!(long.scans() <= short.scans() || short.scans() == 0);
    }

    /// Coarser aggregation never loses scan packets when every run
    /// qualifies (min_dsts = 1): the same packets regroup into fewer sources.
    #[test]
    fn aggregation_conserves_packets_at_min_one(recs in arb_workload()) {
        let fine = detect(&recs, ScanDetectorConfig { agg: AggLevel::L128, ..cfg(1, 50_000) });
        let coarse = detect(&recs, ScanDetectorConfig { agg: AggLevel::L48, ..cfg(1, 50_000) });
        prop_assert_eq!(fine.packets(), coarse.packets());
        prop_assert!(coarse.sources() <= fine.sources());
    }

    /// Artifact prefilter invariants: kept + removed = input, and kept
    /// packets are exactly the input minus removed-source-day packets
    /// (order preserved).
    #[test]
    fn prefilter_conserves_and_preserves_order(recs in arb_workload()) {
        use lumen6_detect::ArtifactFilter;
        let (kept, report) = ArtifactFilter::default().filter(&recs);
        prop_assert_eq!(kept.len() as u64 + report.removed_packets, recs.len() as u64);
        prop_assert_eq!(report.input_packets, recs.len() as u64);
        prop_assert!(kept.windows(2).all(|w| w[0].ts_ms <= w[1].ts_ms));
        // Removed-by-service totals match the removed packet count.
        let by_service: u64 = report.removed_by_service.iter().map(|(_, n)| n).sum();
        prop_assert_eq!(by_service, report.removed_packets);
        // Idempotence: filtering the kept stream removes nothing new
        // (sources that survived were below the duplicate fraction, and
        // removal never changes a surviving source's own packets).
        let (kept2, report2) = ArtifactFilter::default().filter(&kept);
        prop_assert_eq!(kept2.len(), kept.len());
        prop_assert_eq!(report2.removed_packets, 0);
    }

    /// The sharded parallel pipeline is exactly equivalent to the
    /// sequential multi-level detector — same events, same order, same
    /// reports — for any workload, shard count, and batch geometry.
    #[test]
    fn sharded_equals_sequential(
        recs in arb_workload(),
        shards in 1usize..9,
        batch in 1usize..600,
        depth in 1usize..5,
    ) {
        use lumen6_detect::multi::detect_multi;
        use lumen6_detect::{detect_multi_sharded, ShardPlan};
        let levels = [AggLevel::L128, AggLevel::L64, AggLevel::L48];
        let base = cfg(5, 20_000);
        let seq = detect_multi(&recs, &levels, base.clone());
        let par = detect_multi_sharded(&recs, &levels, base, ShardPlan { shards, batch, depth });
        prop_assert_eq!(par, seq);
    }

    /// Sharded single-level detection with destination retention and
    /// sketched counters also matches the sequential run exactly.
    #[test]
    fn sharded_equals_sequential_with_sketch(recs in arb_workload(), shards in 1usize..6) {
        use lumen6_detect::multi::detect_multi;
        use lumen6_detect::{detect_multi_sharded, ShardPlan};
        let base = ScanDetectorConfig { sketch: Some((16, 12).into()), ..cfg(3, 30_000) };
        let levels = [AggLevel::L64];
        let seq = detect_multi(&recs, &levels, base.clone());
        let par = detect_multi_sharded(&recs, &levels, base, ShardPlan { shards, batch: 17, depth: 2 });
        prop_assert_eq!(par, seq);
    }

    /// The streaming detector with flush_idle produces the same qualifying
    /// events as the batch run (GC must never change results).
    #[test]
    fn flush_idle_is_transparent(recs in arb_workload()) {
        use lumen6_detect::ScanDetector;
        let config = cfg(5, 20_000);
        let batch = detect(&recs, config.clone());

        let mut det = ScanDetector::new(config);
        let mut events = Vec::new();
        for (i, r) in recs.iter().enumerate() {
            if let Some(e) = det.observe(r) {
                events.push(e);
            }
            if i % 37 == 0 {
                events.extend(det.flush_idle(r.ts_ms));
            }
        }
        events.extend(det.finish());
        events.sort_by_key(|e| (e.start_ms, e.source));
        let mut batch_events = batch.events.clone();
        batch_events.sort_by_key(|e| (e.start_ms, e.source));
        prop_assert_eq!(events, batch_events);
    }

    /// The columnar batch path is exactly equivalent to per-record observe
    /// across all three backends — single-level, multi-level, and sharded:
    /// same snapshots, same reports (events in the same order), for any
    /// workload and batch geometry.
    #[test]
    fn batched_equals_per_record_all_backends(
        recs in arb_workload(),
        chunk in 1usize..400,
    ) {
        use lumen6_detect::{Backend, DetectorBuilder, ShardPlan};
        use lumen6_trace::RecordBatch;
        let base = cfg(5, 20_000);
        let levels = [AggLevel::L128, AggLevel::L64, AggLevel::L48];
        let builders = [
            (DetectorBuilder::new(base.clone()), Backend::Sequential),
            (
                DetectorBuilder::new(base.clone()).levels(&levels),
                Backend::Sequential,
            ),
            (
                DetectorBuilder::new(base).levels(&levels),
                Backend::Sharded(ShardPlan {
                    shards: 3,
                    batch: 64,
                    depth: 2,
                }),
            ),
        ];
        for (builder, backend) in builders {
            let mut per = builder.build(backend);
            for r in &recs {
                per.observe(r);
            }
            let mut bat = builder.build(backend);
            for part in recs.chunks(chunk) {
                let b: RecordBatch = part.iter().copied().collect();
                bat.observe_batch(&b);
            }
            prop_assert_eq!(per.state(), bat.state());
            prop_assert_eq!(per.finish(), bat.finish());
        }
    }

    /// A checkpoint written mid-batch is byte-identical to one written by
    /// per-record ingest at the same stream position, and resuming from it
    /// reproduces the uninterrupted per-record report exactly. Half the
    /// cases also flush idle runs every `idle` ms of stream time, so the
    /// points where a batch is cut for an idle flush are pinned down to
    /// checkpoint bytes as well.
    #[test]
    fn checkpoint_resume_byte_identical_across_batch_sizes(
        recs in arb_workload(),
        batch in 2usize..300,
        every in 10u64..120,
        idle in prop_oneof![Just(0u64), 100_000u64..2_000_000],
    ) {
        use lumen6_detect::{
            Backend, CheckpointPolicy, DetectorBuilder, Session, SessionConfig, SessionOutcome,
        };
        use lumen6_trace::TraceWriter;
        use std::io::Write as _;
        use std::sync::atomic::{AtomicU64, Ordering};

        static CASE: AtomicU64 = AtomicU64::new(0);
        let id = CASE.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "lumen6-ckpt-prop-{}-{id}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("t.l6tr");
        let mut w = TraceWriter::new(std::io::BufWriter::new(
            std::fs::File::create(&trace).unwrap(),
        ))
        .unwrap();
        for r in &recs {
            w.append(r).unwrap();
        }
        w.finish().unwrap().flush().unwrap();

        let levels = [AggLevel::L128, AggLevel::L64];
        let builder = DetectorBuilder::new(cfg(5, 20_000)).levels(&levels);

        // Uninterrupted per-record reference.
        let reference = match Session::new(
            builder.clone(),
            Backend::Sequential,
            SessionConfig { batch: 1, flush_idle_every_ms: idle, ..Default::default() },
        )
        .run(&trace)
        .unwrap()
        {
            SessionOutcome::Finished(rep) => rep,
            SessionOutcome::Stopped { .. } => unreachable!("no checkpoint policy"),
        };

        let mut reports = Vec::new();
        let mut first_checkpoints = Vec::new();
        for b in [1usize, batch] {
            let ck = dir.join(format!("ck-{b}"));
            let stop_cfg = SessionConfig {
                checkpoint: Some(CheckpointPolicy {
                    path: ck.clone(),
                    every_records: every,
                    stop_after: Some(1),
                }),
                flush_idle_every_ms: idle,
                batch: b,
                ..Default::default()
            };
            let report = match Session::new(builder.clone(), Backend::Sequential, stop_cfg)
                .run(&trace)
                .unwrap()
            {
                SessionOutcome::Stopped { .. } => {
                    first_checkpoints.push(std::fs::read(&ck).unwrap());
                    // Resume (the checkpoint file is probed automatically).
                    let resume_cfg = SessionConfig {
                        checkpoint: Some(CheckpointPolicy {
                            path: ck,
                            every_records: every,
                            stop_after: None,
                        }),
                        flush_idle_every_ms: idle,
                        batch: b,
                        ..Default::default()
                    };
                    match Session::new(builder.clone(), Backend::Sequential, resume_cfg)
                        .run(&trace)
                        .unwrap()
                    {
                        SessionOutcome::Finished(rep) => rep,
                        SessionOutcome::Stopped { .. } => unreachable!("no stop_after"),
                    }
                }
                // Stream shorter than one checkpoint interval.
                SessionOutcome::Finished(rep) => rep,
            };
            reports.push(report);
        }
        if first_checkpoints.len() == 2 {
            prop_assert_eq!(
                &first_checkpoints[0],
                &first_checkpoints[1],
                "mid-batch checkpoint differs from per-record checkpoint"
            );
        }
        prop_assert_eq!(&reports[0], &reports[1]);
        prop_assert_eq!(&reports[0].reports, &reference.reports);
        prop_assert_eq!(reports[0].records, reference.records);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Out-of-order tolerance: feeding any within-watermark shuffle of a
    /// workload through the reorder buffer yields exactly the sorted-stream
    /// report, with nothing dropped. Arrival order is a jitter-sort: each
    /// record's sort key is its timestamp plus a jitter below half the
    /// watermark, so two records only ever swap when their true timestamps
    /// are within the watermark of each other.
    #[test]
    fn reorder_buffer_recovers_sorted_report(
        recs in arb_workload(),
        jitter_seed in 0u64..1_000_000,
        watermark in 1_000u64..50_000,
    ) {
        use lumen6_detect::{Backend, DetectorBuilder, ReorderBuffer};
        let config = cfg(5, 20_000);
        let sorted_report = detect(&recs, config.clone());

        let mut arrival: Vec<(u64, usize)> = recs
            .iter()
            .enumerate()
            .map(|(i, r)| {
                // Cheap deterministic per-record jitter in [0, watermark/2).
                let h = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ jitter_seed;
                (r.ts_ms + h % (watermark / 2).max(1), i)
            })
            .collect();
        arrival.sort_unstable();

        let mut buf = ReorderBuffer::new(watermark);
        let mut det = DetectorBuilder::new(config).build(Backend::Sequential);
        let mut ready = Vec::new();
        for &(_, i) in &arrival {
            buf.push(recs[i], &mut ready);
            for r in ready.drain(..) {
                det.observe(&r);
            }
        }
        buf.drain(&mut ready);
        for r in ready.drain(..) {
            det.observe(&r);
        }
        prop_assert_eq!(buf.late_dropped(), 0);
        let reports = det.finish();
        let got = &reports[&AggLevel::L64];
        prop_assert_eq!(&got.events, &sorted_report.events);
    }
}

// The grid tests below sweep 12 shard×batch combinations (and a
// three-session checkpoint round-trip) *inside* each case, so each case
// covers far more executions than a single property run suggests.
proptest! {
    /// The batch-routed columnar sharded pipeline is differentially equal
    /// to the sequential multi-level detector — same mid-stream state, same
    /// final state, same reports — over the full shards {1,2,4,8} × batch
    /// {1,7,8192} grid under all three adversarial arrival orders.
    #[test]
    fn batch_routed_sharded_grid_matches_sequential(
        recs in arb_workload(),
        ordering in 0usize..3,
    ) {
        use lumen6_detect::{Backend, DetectorBuilder, ShardPlan};
        use lumen6_trace::RecordBatch;

        let recs = apply_ordering(&recs, ordering);
        let levels = [AggLevel::L128, AggLevel::L64, AggLevel::L48];
        let base = cfg(3, 20_000);
        let half = recs.len() / 2;

        let mut seq = DetectorBuilder::new(base.clone())
            .levels(&levels)
            .build(Backend::Sequential);
        let mut staged = RecordBatch::with_capacity(recs.len());
        staged.extend(recs[..half].iter().copied());
        seq.observe_batch(&staged);
        let seq_mid = seq.state();
        staged.clear();
        staged.extend(recs[half..].iter().copied());
        seq.observe_batch(&staged);
        let seq_end = seq.state();
        let seq_report = seq.finish();

        for shards in [1usize, 2, 4, 8] {
            for batch in [1usize, 7, 8192] {
                let plan = ShardPlan { shards, batch, depth: 2 };
                let mut par = DetectorBuilder::new(base.clone())
                    .levels(&levels)
                    .build(Backend::Sharded(plan));
                let mut b = RecordBatch::with_capacity(batch.min(recs.len()));
                for part in recs[..half].chunks(batch) {
                    b.clear();
                    b.extend(part.iter().copied());
                    par.observe_batch(&b);
                }
                let par_mid = par.state();
                prop_assert_eq!(
                    &par_mid, &seq_mid,
                    "mid-stream state diverged: shards={} batch={} ordering={}",
                    shards, batch, ordering
                );
                for part in recs[half..].chunks(batch) {
                    b.clear();
                    b.extend(part.iter().copied());
                    par.observe_batch(&b);
                }
                let par_end = par.state();
                prop_assert_eq!(
                    &par_end, &seq_end,
                    "final state diverged: shards={} batch={} ordering={}",
                    shards, batch, ordering
                );
                let par_report = par.finish();
                prop_assert_eq!(
                    &par_report, &seq_report,
                    "report diverged: shards={} batch={} ordering={}",
                    shards, batch, ordering
                );
            }
        }
    }

    /// A checkpoint written by a sharded session is byte-identical to one
    /// written by a sequential session at the same stream position — under
    /// any shard count, sub-batch size, and adversarial arrival order —
    /// and resuming the sharded session reproduces the uninterrupted
    /// sequential report exactly.
    #[test]
    fn sharded_checkpoint_bytes_match_sequential(
        recs in arb_workload(),
        shards in 1usize..9,
        batch_ix in 0usize..3,
        ordering in 0usize..3,
        every in 10u64..120,
    ) {
        use lumen6_detect::{
            Backend, CheckpointPolicy, DetectorBuilder, Session, SessionConfig, SessionOutcome,
            ShardPlan,
        };
        use lumen6_trace::TraceWriter;
        use std::io::Write as _;
        use std::sync::atomic::{AtomicU64, Ordering};

        static CASE: AtomicU64 = AtomicU64::new(0);
        let id = CASE.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "lumen6-shck-prop-{}-{id}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let batch = [1usize, 7, 8192][batch_ix];
        // The trace codec delta-encodes timestamps, so a session's input is
        // necessarily time-sorted: keep the adversarial *source* arrival
        // order but reassign the workload's own timestamps in sorted order.
        let mut recs = apply_ordering(&recs, ordering);
        let mut ts: Vec<u64> = recs.iter().map(|r| r.ts_ms).collect();
        ts.sort_unstable();
        for (r, t) in recs.iter_mut().zip(ts) {
            r.ts_ms = t;
        }
        let trace = dir.join("t.l6tr");
        let mut w = TraceWriter::new(std::io::BufWriter::new(
            std::fs::File::create(&trace).unwrap(),
        ))
        .unwrap();
        for r in &recs {
            w.append(r).unwrap();
        }
        w.finish().unwrap().flush().unwrap();

        let levels = [AggLevel::L128, AggLevel::L64];
        let builder = DetectorBuilder::new(cfg(5, 20_000)).levels(&levels);
        let plan = ShardPlan { shards, batch, depth: 2 };

        // Uninterrupted sequential reference.
        let reference = match Session::new(
            builder.clone(),
            Backend::Sequential,
            SessionConfig { batch: 1, ..Default::default() },
        )
        .run(&trace)
        .unwrap()
        {
            SessionOutcome::Finished(rep) => rep,
            SessionOutcome::Stopped { .. } => unreachable!("no checkpoint policy"),
        };

        let mut checkpoints = Vec::new();
        let mut reports = Vec::new();
        for (backend, b) in [
            (Backend::Sequential, 1usize),
            (Backend::Sharded(plan), batch),
        ] {
            let ck = dir.join(format!("ck-{b}-{}", checkpoints.len()));
            let stop_cfg = SessionConfig {
                checkpoint: Some(CheckpointPolicy {
                    path: ck.clone(),
                    every_records: every,
                    stop_after: Some(1),
                }),
                batch: b,
                ..Default::default()
            };
            let report = match Session::new(builder.clone(), backend, stop_cfg)
                .run(&trace)
                .unwrap()
            {
                SessionOutcome::Stopped { .. } => {
                    checkpoints.push(std::fs::read(&ck).unwrap());
                    let resume_cfg = SessionConfig {
                        checkpoint: Some(CheckpointPolicy {
                            path: ck,
                            every_records: every,
                            stop_after: None,
                        }),
                        batch: b,
                        ..Default::default()
                    };
                    match Session::new(builder.clone(), backend, resume_cfg)
                        .run(&trace)
                        .unwrap()
                    {
                        SessionOutcome::Finished(rep) => rep,
                        SessionOutcome::Stopped { .. } => unreachable!("no stop_after"),
                    }
                }
                // Stream shorter than one checkpoint interval.
                SessionOutcome::Finished(rep) => rep,
            };
            reports.push(report);
        }
        if checkpoints.len() == 2 {
            prop_assert_eq!(
                &checkpoints[0],
                &checkpoints[1],
                "sharded checkpoint bytes differ from sequential \
                 (shards={} batch={} ordering={})",
                shards, batch, ordering
            );
        }
        prop_assert_eq!(&reports[0].reports, &reference.reports);
        prop_assert_eq!(&reports[1].reports, &reference.reports);
        prop_assert_eq!(reports[1].records, reference.records);
        std::fs::remove_dir_all(&dir).ok();
    }
}
