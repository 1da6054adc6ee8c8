//! Packet-record model, binary trace codec, and simulation time utilities.
//!
//! Everything downstream of the traffic generators — the detection pipeline,
//! the analysis modules, the CLI — consumes a stream of [`PacketRecord`]s:
//! the (timestamp, source, destination, transport, ports, length) tuple that
//! a firewall log line or a packet-header capture reduces to. This crate
//! defines that record, a compact binary on-disk format for it
//! ([`codec`]), and the simulation clock ([`time`]): milliseconds since
//! 2021-01-01T00:00:00Z, the start of the paper's measurement window, with a
//! from-scratch proleptic-Gregorian calendar for labeling days and weeks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod codec;
pub mod pcap;
pub mod record;
pub mod source;
pub mod time;

pub use batch::RecordBatch;
pub use codec::{CodecError, TracePosition, TraceReader, TraceWriter};
pub use record::{PacketRecord, Transport};
pub use source::{FileStreamSource, FillOutcome, MaterializedSource, Source, TailSource};
pub use time::{SimTime, DAY_MS, HOUR_MS, MINUTE_MS, WEEK_MS};

/// Sorts records by timestamp (stable), the canonical trace order.
pub fn sort_by_time(records: &mut [PacketRecord]) {
    records.sort_by_key(|r| r.ts_ms);
}

/// Merges multiple traces, each already sorted by timestamp, into one sorted
/// trace. Used to combine per-actor generated traffic into a vantage-point
/// view.
pub fn merge_sorted(traces: Vec<Vec<PacketRecord>>) -> Vec<PacketRecord> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    let total: usize = traces.iter().map(std::vec::Vec::len).sum();
    let mut out = Vec::with_capacity(total);
    // Heap of (next timestamp, trace index, position).
    let mut heap: BinaryHeap<Reverse<(u64, usize, usize)>> = BinaryHeap::new();
    for (i, t) in traces.iter().enumerate() {
        if let Some(r) = t.first() {
            heap.push(Reverse((r.ts_ms, i, 0)));
        }
    }
    while let Some(Reverse((_, i, pos))) = heap.pop() {
        out.push(traces[i][pos]);
        if pos + 1 < traces[i].len() {
            heap.push(Reverse((traces[i][pos + 1].ts_ms, i, pos + 1)));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(ts: u64) -> PacketRecord {
        PacketRecord::tcp(ts, 1, 2, 1000, 22, 60)
    }

    #[test]
    fn merge_sorted_interleaves() {
        let a = vec![rec(1), rec(5), rec(9)];
        let b = vec![rec(2), rec(3)];
        let c = vec![];
        let m = merge_sorted(vec![a, b, c]);
        let ts: Vec<u64> = m.iter().map(|r| r.ts_ms).collect();
        assert_eq!(ts, vec![1, 2, 3, 5, 9]);
    }

    #[test]
    fn merge_sorted_empty() {
        assert!(merge_sorted(vec![]).is_empty());
        assert!(merge_sorted(vec![vec![], vec![]]).is_empty());
    }

    #[test]
    fn sort_by_time_orders() {
        let mut v = vec![rec(5), rec(1), rec(3)];
        sort_by_time(&mut v);
        assert_eq!(v.iter().map(|r| r.ts_ms).collect::<Vec<_>>(), vec![1, 3, 5]);
    }
}
