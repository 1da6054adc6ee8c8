//! Low-volume background noise sources.
//!
//! The dense cluster near the origin of the paper's Fig. 1 heatmap: the
//! majority of source /64s contact very few destinations with very few
//! packets and are neither scans nor repetitive-enough artifacts — stray
//! unsolicited traffic. This generator mints ephemeral sources that send a
//! handful of packets to one or a few telescope addresses and disappear.

use lumen6_trace::{PacketRecord, Transport, DAY_MS};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Generates `sources_per_day` ephemeral noise sources for each day of
/// `[day_start, day_end)`, targeting addresses drawn from `telescope_addrs`.
///
/// The output is time-sorted. A source's burst starts at least an hour
/// before the end of its day and lasts at most 19 gaps of under a minute,
/// so every record falls inside the day that generated it and sorting
/// each day on its own yields exactly the stable global time-sort.
pub fn generate(
    telescope_addrs: &[u128],
    sources_per_day: usize,
    day_start: u64,
    day_end: u64,
    seed: u64,
) -> Vec<PacketRecord> {
    assert!(!telescope_addrs.is_empty(), "need telescope addresses");
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x0153_e5e5);
    let mut out = Vec::new();
    for day in day_start..day_end {
        let begin = out.len();
        push_day(&mut rng, telescope_addrs, sources_per_day, day, &mut out);
        lumen6_trace::sort_by_time(&mut out[begin..]);
    }
    out
}

/// Appends one day's noise records to `out`, unsorted, drawing from `rng`
/// in generation order.
fn push_day(
    rng: &mut SmallRng,
    telescope_addrs: &[u128],
    sources_per_day: usize,
    day: u64,
    out: &mut Vec<PacketRecord>,
) {
    for _ in 0..sources_per_day {
        // Random source /64 anywhere in 2000::/3-ish space.
        let net64: u64 = 0x2000_0000_0000_0000 | (rng.gen::<u64>() >> 3);
        let src = ((net64 as u128) << 64) | u128::from(rng.gen::<u64>());
        let n_dsts = rng.gen_range(1..=5usize);
        let dsts: Vec<u128> = (0..n_dsts)
            .map(|_| telescope_addrs[rng.gen_range(0..telescope_addrs.len())])
            .collect();
        let packets = rng.gen_range(1..=20u64);
        let t0 = day * DAY_MS + rng.gen_range(0..DAY_MS - 3_600_000);
        for k in 0..packets {
            let dst = dsts[rng.gen_range(0..dsts.len())];
            let proto = if rng.gen_bool(0.7) {
                Transport::Tcp
            } else {
                Transport::Udp
            };
            out.push(PacketRecord {
                ts_ms: t0 + k * rng.gen_range(1_000u64..60_000),
                src,
                dst,
                proto,
                sport: rng.gen_range(1024..65000),
                dport: [53u16, 123, 161, 1900, 5060, 6881, 3074, 27015][rng.gen_range(0usize..8)],
                len: rng.gen_range(40..1400),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noise_is_low_volume_per_source() {
        let telescope: Vec<u128> = (1..=100u128).map(|i| i << 16).collect();
        let recs = generate(&telescope, 30, 0, 3, 11);
        assert!(!recs.is_empty());
        // Group by source: every source touches ≤ 5 destinations.
        let mut per_src: std::collections::HashMap<u128, std::collections::HashSet<u128>> =
            Default::default();
        for r in &recs {
            per_src.entry(r.src).or_default().insert(r.dst);
        }
        assert_eq!(per_src.len(), 90, "one entry per minted source");
        assert!(per_src.values().all(|d| d.len() <= 5));
        assert!(recs.windows(2).all(|w| w[0].ts_ms <= w[1].ts_ms));
    }

    #[test]
    fn noise_never_qualifies_as_scan() {
        let telescope: Vec<u128> = (1..=500u128).map(|i| i << 16).collect();
        let recs = generate(&telescope, 50, 0, 5, 7);
        let report =
            lumen6_detect::detector::detect(&recs, lumen6_detect::ScanDetectorConfig::default());
        assert_eq!(report.scans(), 0);
    }

    #[test]
    fn deterministic() {
        let telescope: Vec<u128> = (1..=10u128).collect();
        assert_eq!(
            generate(&telescope, 5, 0, 2, 3),
            generate(&telescope, 5, 0, 2, 3)
        );
    }

    #[test]
    fn per_day_sort_equals_global_stable_sort() {
        let telescope: Vec<u128> = (1..=50u128).map(|i| i << 20).collect();
        let (days, seed) = (4..9u64, 5u64);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x0153_e5e5);
        let mut unsorted = Vec::new();
        for day in days.clone() {
            let begin = unsorted.len();
            push_day(&mut rng, &telescope, 60, day, &mut unsorted);
            let (t0, t1) = (day * DAY_MS, (day + 1) * DAY_MS);
            assert!(unsorted.len() > begin, "day {day} generated nothing");
            assert!(
                unsorted[begin..]
                    .iter()
                    .all(|r| (t0..t1).contains(&r.ts_ms)),
                "a record of day {day} left its day"
            );
        }
        let mut global = unsorted;
        global.sort_by_key(|r| r.ts_ms); // stable
        assert_eq!(generate(&telescope, 60, days.start, days.end, seed), global);
    }

    #[test]
    #[should_panic(expected = "telescope addresses")]
    fn empty_telescope_panics() {
        generate(&[], 1, 0, 1, 0);
    }
}
