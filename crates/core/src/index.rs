//! Segment interval index.
//!
//! §VII names "segment indexing techniques to process highly segmented
//! datasets" as future work: the join's state scan is linear in the number
//! of buffered segments, which hurts when unmodeled attributes fragment
//! streams into many small segments. This index keeps segments sorted by
//! start time with an augmented running maximum of end times, giving
//! `O(log n + k)` overlap queries (`k` = matches) instead of `O(n)` scans.

use pulse_math::{Span, EPS};
use pulse_model::Segment;

/// An interval index over segments, keyed by their valid time spans.
///
/// Optimized for streaming insertion (spans arrive roughly ordered by
/// start) and windowed expiry.
#[derive(Debug, Default)]
pub struct SegmentIndex {
    /// Sorted by `span.lo`.
    entries: Vec<Segment>,
    /// `max_hi[i]` = max of `entries[0..=i].span.hi` — the classic
    /// augmentation that lets overlap scans stop early.
    max_hi: Vec<f64>,
}

impl SegmentIndex {
    pub fn new() -> Self {
        SegmentIndex::default()
    }

    /// Number of indexed segments.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Inserts a segment (cheap when spans arrive in start order; falls
    /// back to sorted insertion otherwise).
    pub fn insert(&mut self, seg: Segment) {
        let pos = if self.entries.last().is_none_or(|l| l.span.lo <= seg.span.lo + EPS) {
            self.entries.len()
        } else {
            self.entries.partition_point(|e| e.span.lo <= seg.span.lo)
        };
        self.entries.insert(pos, seg);
        self.rebuild_from(pos);
    }

    fn rebuild_from(&mut self, pos: usize) {
        self.max_hi.truncate(pos);
        for i in pos..self.entries.len() {
            let prev = if i == 0 { f64::NEG_INFINITY } else { self.max_hi[i - 1] };
            self.max_hi.push(prev.max(self.entries[i].span.hi));
        }
    }

    /// Removes every segment ending at or before `t`.
    pub fn expire_before(&mut self, t: f64) {
        let before = self.entries.len();
        self.entries.retain(|e| e.span.hi > t);
        if self.entries.len() != before {
            self.rebuild_from(0);
        }
    }

    /// All segments whose spans overlap `q`, in start order.
    pub fn overlapping(&self, q: Span) -> Vec<&Segment> {
        self.candidates(q).iter().filter(|e| e.span.overlaps(&q)).collect()
    }

    /// The run of segments that may overlap `q`, in start order: those
    /// starting before `q.hi`, minus the prefix whose running maximum end
    /// cannot reach `q.lo`. Filtering it by `overlaps(q)` gives
    /// [`Self::overlapping`] without collecting.
    pub(crate) fn candidates(&self, q: Span) -> &[Segment] {
        let end = self.entries.partition_point(|e| e.span.lo < q.hi - EPS);
        // `max_hi` never decreases, so the pruned prefix is a partition.
        let start = self.max_hi[..end].partition_point(|&m| m <= q.lo + EPS);
        &self.entries[start..end]
    }

    /// Segments containing the time instant `t`.
    pub fn stabbing(&self, t: f64) -> Vec<&Segment> {
        self.overlapping(Span::new(t, t)).into_iter().filter(|s| s.span.contains(t)).collect()
    }

    /// Iterates all segments in start order.
    pub fn iter(&self) -> impl Iterator<Item = &Segment> {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pulse_math::Poly;

    fn seg(key: u64, lo: f64, hi: f64) -> Segment {
        Segment::single(key, Span::new(lo, hi), Poly::zero())
    }

    #[test]
    fn ordered_insert_and_overlap() {
        let mut idx = SegmentIndex::new();
        idx.insert(seg(1, 0.0, 5.0));
        idx.insert(seg(2, 2.0, 3.0));
        idx.insert(seg(3, 6.0, 8.0));
        let hits = idx.overlapping(Span::new(2.5, 6.5));
        let keys: Vec<u64> = hits.iter().map(|s| s.key).collect();
        assert_eq!(keys, vec![1, 2, 3]);
        let hits = idx.overlapping(Span::new(5.5, 5.9));
        assert!(hits.is_empty());
    }

    #[test]
    fn out_of_order_insert() {
        let mut idx = SegmentIndex::new();
        idx.insert(seg(2, 4.0, 6.0));
        idx.insert(seg(1, 0.0, 2.0)); // earlier start after a later one
        let keys: Vec<u64> = idx.iter().map(|s| s.key).collect();
        assert_eq!(keys, vec![1, 2]);
        assert_eq!(idx.overlapping(Span::new(1.0, 5.0)).len(), 2);
    }

    #[test]
    fn long_segment_not_missed_by_pruning() {
        let mut idx = SegmentIndex::new();
        idx.insert(seg(1, 0.0, 100.0)); // long span
        for i in 1..50 {
            idx.insert(seg(i + 1, i as f64, i as f64 + 0.5));
        }
        // Query far to the right: only the long segment (and the local
        // short one) overlap — the augmented max prevents an early stop.
        let hits = idx.overlapping(Span::new(80.0, 80.1));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].key, 1);
    }

    #[test]
    fn stabbing_queries() {
        let mut idx = SegmentIndex::new();
        idx.insert(seg(1, 0.0, 2.0));
        idx.insert(seg(2, 1.0, 3.0));
        let hits = idx.stabbing(1.5);
        assert_eq!(hits.len(), 2);
        let hits = idx.stabbing(2.5);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].key, 2);
        assert!(idx.stabbing(9.0).is_empty());
    }

    #[test]
    fn expiry() {
        let mut idx = SegmentIndex::new();
        idx.insert(seg(1, 0.0, 1.0));
        idx.insert(seg(2, 0.5, 5.0));
        idx.insert(seg(3, 2.0, 3.0));
        idx.expire_before(1.5);
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.overlapping(Span::new(0.0, 10.0)).len(), 2);
    }

    #[test]
    fn matches_linear_scan_on_random_layout() {
        let mut idx = SegmentIndex::new();
        let mut all = Vec::new();
        // Deterministic pseudo-random spans (LCG).
        let mut rngf = {
            let mut s = 9876543u64;
            move || {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (s >> 11) as f64 / (1u64 << 53) as f64
            }
        };
        for k in 0..200 {
            let lo = rngf() * 100.0;
            let len = rngf() * 10.0 + 0.01;
            let s = seg(k, lo, lo + len);
            all.push(s.clone());
            idx.insert(s);
        }
        for _ in 0..50 {
            let lo = rngf() * 100.0;
            let q = Span::new(lo, lo + rngf() * 5.0 + 0.01);
            let mut want: Vec<u64> =
                all.iter().filter(|s| s.span.overlaps(&q)).map(|s| s.key).collect();
            want.sort_unstable();
            let mut got: Vec<u64> = idx.overlapping(q).iter().map(|s| s.key).collect();
            got.sort_unstable();
            assert_eq!(got, want, "query {q:?}");
        }
    }
}
