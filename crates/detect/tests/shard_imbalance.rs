//! The `detect.shard.imbalance` gauge is process-global and every sharded
//! detector writes it, so this test runs in a binary of its own: with other
//! sharded tests in the same process it would read their value.

use lumen6_detect::{AggLevel, ScanDetectorConfig, ShardPlan, ShardedDetector};
use lumen6_trace::{PacketRecord, RecordBatch};

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
fn imbalance_gauge_is_published_in_permille() {
    use lumen6_obs::MetricsRegistry;
    let recs = workload();
    let mut det = ShardedDetector::new(
        &AggLevel::PAPER_LEVELS,
        ScanDetectorConfig::default(),
        ShardPlan::with_shards(4),
    );
    let mut staged = RecordBatch::new();
    staged.extend(recs.iter().copied());
    det.observe_batch(&staged);
    det.finish();
    let g = MetricsRegistry::global()
        .gauge("detect.shard.imbalance")
        .get();
    // max/mean >= 1 by definition; a wildly skewed 4-shard split of
    // this workload would read 4000.
    assert!((1000..=4000).contains(&g), "imbalance {g}");
}
