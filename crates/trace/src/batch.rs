//! Reusable struct-of-arrays record batches for the columnar ingest path.
//!
//! Decoding into a fresh `Vec<PacketRecord>` per chunk would churn one
//! 56-byte-per-record allocation per chunk at telescope ingest rates, and
//! the array-of-structs layout wastes cache on stages that touch only a
//! column or two (the detector's grouping pass reads sources; the reorder
//! buffer reads timestamps). A [`RecordBatch`] holds the same records as seven parallel
//! column vectors and is designed to be **reused**: `clear()` keeps the
//! capacity, so a steady-state decode loop allocates nothing.
//!
//! The columns are kept private behind push/get accessors to preserve the
//! equal-length invariant; read-only column slices are exposed for stages
//! that genuinely want columnar access.

use crate::record::{PacketRecord, Transport};

/// A struct-of-arrays batch of packet records (see the module docs).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecordBatch {
    ts_ms: Vec<u64>,
    src: Vec<u128>,
    dst: Vec<u128>,
    proto: Vec<Transport>,
    sport: Vec<u16>,
    dport: Vec<u16>,
    len: Vec<u16>,
}

impl RecordBatch {
    /// An empty batch.
    pub fn new() -> Self {
        RecordBatch::default()
    }

    /// An empty batch with every column pre-sized for `n` records.
    pub fn with_capacity(n: usize) -> Self {
        RecordBatch {
            ts_ms: Vec::with_capacity(n),
            src: Vec::with_capacity(n),
            dst: Vec::with_capacity(n),
            proto: Vec::with_capacity(n),
            sport: Vec::with_capacity(n),
            dport: Vec::with_capacity(n),
            len: Vec::with_capacity(n),
        }
    }

    /// Number of records in the batch.
    pub fn len(&self) -> usize {
        self.ts_ms.len()
    }

    /// Whether the batch holds no records.
    pub fn is_empty(&self) -> bool {
        self.ts_ms.is_empty()
    }

    /// Drops all records but keeps the column capacity (the reuse point).
    pub fn clear(&mut self) {
        self.ts_ms.clear();
        self.src.clear();
        self.dst.clear();
        self.proto.clear();
        self.sport.clear();
        self.dport.clear();
        self.len.clear();
    }

    /// Appends one record.
    pub fn push(&mut self, r: PacketRecord) {
        self.ts_ms.push(r.ts_ms);
        self.src.push(r.src);
        self.dst.push(r.dst);
        self.proto.push(r.proto);
        self.sport.push(r.sport);
        self.dport.push(r.dport);
        self.len.push(r.len);
    }

    /// Appends `n` copies of one record — seven column fills, the landing
    /// path of fused generation, where intensity repeats of one probe are
    /// delivered as a single run-length take. Equivalent to `n` calls to
    /// [`push`](RecordBatch::push); `n = 0` is a no-op.
    pub fn push_repeated(&mut self, r: PacketRecord, n: usize) {
        let len = self.ts_ms.len() + n;
        self.ts_ms.resize(len, r.ts_ms);
        self.src.resize(len, r.src);
        self.dst.resize(len, r.dst);
        self.proto.resize(len, r.proto);
        self.sport.resize(len, r.sport);
        self.dport.resize(len, r.dport);
        self.len.resize(len, r.len);
    }

    /// Appends every record of `other` — seven contiguous column copies,
    /// the fast path of the sharded router when an entire input batch
    /// routes to one shard (run-clustered traffic).
    pub fn extend_from_batch(&mut self, other: &RecordBatch) {
        self.ts_ms.extend_from_slice(&other.ts_ms);
        self.src.extend_from_slice(&other.src);
        self.dst.extend_from_slice(&other.dst);
        self.proto.extend_from_slice(&other.proto);
        self.sport.extend_from_slice(&other.sport);
        self.dport.extend_from_slice(&other.dport);
        self.len.extend_from_slice(&other.len);
    }

    /// Appends rows `range` of `other` — seven contiguous column copies,
    /// the path by which the parallel fused merge hands a lane's sorted
    /// run to the consumer. Panics if the range is out of bounds, like
    /// slice indexing.
    pub fn extend_from_range(&mut self, other: &RecordBatch, range: std::ops::Range<usize>) {
        self.ts_ms.extend_from_slice(&other.ts_ms[range.clone()]);
        self.src.extend_from_slice(&other.src[range.clone()]);
        self.dst.extend_from_slice(&other.dst[range.clone()]);
        self.proto.extend_from_slice(&other.proto[range.clone()]);
        self.sport.extend_from_slice(&other.sport[range.clone()]);
        self.dport.extend_from_slice(&other.dport[range.clone()]);
        self.len.extend_from_slice(&other.len[range]);
    }

    /// Appends the rows of `other` selected by `idxs`, one column at a
    /// time — the scatter primitive of the sharded router, which partitions
    /// one decoded batch into per-shard sub-batches. Gathering per column
    /// keeps every write contiguous (and no `PacketRecord` is materialized
    /// in between). Panics if any index is `>= other.len()`, like slice
    /// indexing.
    pub fn extend_from_indices(&mut self, other: &RecordBatch, idxs: &[u32]) {
        self.ts_ms
            .extend(idxs.iter().map(|&i| other.ts_ms[i as usize]));
        self.src.extend(idxs.iter().map(|&i| other.src[i as usize]));
        self.dst.extend(idxs.iter().map(|&i| other.dst[i as usize]));
        self.proto
            .extend(idxs.iter().map(|&i| other.proto[i as usize]));
        self.sport
            .extend(idxs.iter().map(|&i| other.sport[i as usize]));
        self.dport
            .extend(idxs.iter().map(|&i| other.dport[i as usize]));
        self.len.extend(idxs.iter().map(|&i| other.len[i as usize]));
    }

    /// Reassembles record `i`. Columns are `Copy`, so this is a gather of
    /// seven loads, not an allocation. Panics if `i >= len()`, like slice
    /// indexing.
    #[inline]
    pub fn get(&self, i: usize) -> PacketRecord {
        PacketRecord {
            ts_ms: self.ts_ms[i],
            src: self.src[i],
            dst: self.dst[i],
            proto: self.proto[i],
            sport: self.sport[i],
            dport: self.dport[i],
            len: self.len[i],
        }
    }

    /// Iterates the records in order (reassembled on the fly).
    pub fn iter(&self) -> impl Iterator<Item = PacketRecord> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }

    /// The timestamp column (milliseconds), row-aligned with every other
    /// column accessor.
    pub fn ts_ms(&self) -> &[u64] {
        &self.ts_ms
    }

    /// The source-address column.
    pub fn src(&self) -> &[u128] {
        &self.src
    }

    /// The destination-address column.
    pub fn dst(&self) -> &[u128] {
        &self.dst
    }

    /// The transport-protocol column.
    pub fn proto(&self) -> &[Transport] {
        &self.proto
    }

    /// The destination-port column. Together with [`proto`](Self::proto)
    /// it keys the detector's per-run service histogram.
    pub fn dport(&self) -> &[u16] {
        &self.dport
    }
}

impl FromIterator<PacketRecord> for RecordBatch {
    fn from_iter<I: IntoIterator<Item = PacketRecord>>(iter: I) -> Self {
        let iter = iter.into_iter();
        let mut b = RecordBatch::with_capacity(iter.size_hint().0);
        for r in iter {
            b.push(r);
        }
        b
    }
}

impl Extend<PacketRecord> for RecordBatch {
    fn extend<I: IntoIterator<Item = PacketRecord>>(&mut self, iter: I) {
        for r in iter {
            self.push(r);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(i: u64) -> PacketRecord {
        PacketRecord::tcp(
            i,
            0x2001 + u128::from(i),
            0xdd00 + u128::from(i),
            4000,
            22,
            60,
        )
    }

    #[test]
    fn push_get_roundtrips() {
        let mut b = RecordBatch::new();
        for i in 0..10 {
            b.push(rec(i));
        }
        assert_eq!(b.len(), 10);
        for i in 0..10 {
            assert_eq!(b.get(i as usize), rec(i));
        }
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut b = RecordBatch::with_capacity(64);
        for i in 0..64 {
            b.push(rec(i));
        }
        b.clear();
        assert!(b.is_empty());
        assert!(b.ts_ms.capacity() >= 64);
    }

    #[test]
    fn iter_and_from_iterator_match() {
        let recs: Vec<PacketRecord> = (0..20).map(rec).collect();
        let b: RecordBatch = recs.iter().copied().collect();
        let back: Vec<PacketRecord> = b.iter().collect();
        assert_eq!(back, recs);
    }

    #[test]
    fn extend_from_indices_scatters_whole_rows() {
        let recs: Vec<PacketRecord> = (0..12).map(rec).collect();
        let b: RecordBatch = recs.iter().copied().collect();
        let evens: Vec<u32> = (0..b.len() as u32).step_by(2).collect();
        let odds: Vec<u32> = (1..b.len() as u32).step_by(2).collect();
        let mut even = RecordBatch::new();
        let mut odd = RecordBatch::new();
        even.extend_from_indices(&b, &evens);
        odd.extend_from_indices(&b, &odds);
        assert_eq!(even.len() + odd.len(), b.len());
        for (k, &i) in evens.iter().enumerate() {
            assert_eq!(even.get(k), recs[i as usize]);
        }
        for (k, &i) in odds.iter().enumerate() {
            assert_eq!(odd.get(k), recs[i as usize]);
        }
    }

    #[test]
    fn push_repeated_equals_n_pushes() {
        let r = PacketRecord::udp(77, 0x2001_0db8, 0xdd07, 5353, 137, 92);
        for n in [0usize, 1, 2, 5, 64] {
            // Start from a non-empty batch so the fill appends rather
            // than initializes.
            let mut fill: RecordBatch = (0..3).map(rec).collect();
            let mut pushed = fill.clone();
            fill.push_repeated(r, n);
            for _ in 0..n {
                pushed.push(r);
            }
            // Derived equality compares every column, not just the
            // exposed ones.
            assert_eq!(fill, pushed, "n={n}");
            assert_eq!(fill.len(), 3 + n);
            assert!(fill.iter().skip(3).all(|x| x == r));
        }
        let mut empty = RecordBatch::new();
        empty.push_repeated(r, 0);
        assert_eq!(empty, RecordBatch::new(), "n = 0 is a no-op");
    }

    #[test]
    fn extend_from_batch_appends_all_rows() {
        let a: RecordBatch = (0..5).map(rec).collect();
        let b: RecordBatch = (5..9).map(rec).collect();
        let mut out = RecordBatch::new();
        out.extend_from_batch(&a);
        out.extend_from_batch(&b);
        let back: Vec<PacketRecord> = out.iter().collect();
        let want: Vec<PacketRecord> = (0..9).map(rec).collect();
        assert_eq!(back, want);
    }

    #[test]
    fn extend_from_range_appends_the_slice() {
        let src: RecordBatch = (0..10).map(rec).collect();
        let mut out: RecordBatch = (100..102).map(rec).collect();
        out.extend_from_range(&src, 3..7);
        out.extend_from_range(&src, 9..9);
        let back: Vec<PacketRecord> = out.iter().collect();
        let want: Vec<PacketRecord> = [100, 101, 3, 4, 5, 6].into_iter().map(rec).collect();
        assert_eq!(back, want);
    }

    #[test]
    fn columns_expose_soa_view() {
        let mut b = RecordBatch::new();
        b.extend((0..5).map(rec));
        assert_eq!(b.ts_ms(), &[0, 1, 2, 3, 4]);
        assert_eq!(b.src()[3], 0x2001 + 3);
        assert_eq!(b.dst()[4], 0xdd00 + 4);
        assert_eq!(b.proto(), &[Transport::Tcp; 5]);
        assert_eq!(b.dport(), &[22; 5]);
    }
}
