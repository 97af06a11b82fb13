//! Piecewise models with online update semantics.
//!
//! §II-B: "for two adjacent input segments overlapping temporally, the
//! successor segment acts as an update to the preceding segment for the
//! overlap". [`Piecewise`] maintains that invariant for one key's worth of
//! segments, supports point evaluation, and is reused by the min/max
//! aggregate's envelope state (§III-B).

use crate::segment::Segment;
use pulse_math::{Span, EPS};

/// An ordered, non-overlapping sequence of segments for a single entity.
#[derive(Debug, Clone, Default)]
pub struct Piecewise {
    segments: Vec<Segment>,
}

impl Piecewise {
    pub fn new() -> Self {
        Piecewise { segments: Vec::new() }
    }

    /// The pieces in time order.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Number of pieces.
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// True when no pieces are present.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Overall covered span, if any (gaps allowed inside).
    pub fn extent(&self) -> Option<Span> {
        match (self.segments.first(), self.segments.last()) {
            (Some(a), Some(b)) => Some(Span::new(a.span.lo, b.span.hi)),
            _ => None,
        }
    }

    /// Inserts a segment, applying update semantics: any existing piece
    /// overlapping the newcomer's span is truncated (or removed) in the
    /// overlap — the newcomer wins, since pieces appear sequentially online.
    pub fn insert(&mut self, seg: Segment) {
        let mut out: Vec<Segment> = Vec::with_capacity(self.segments.len() + 1);
        for old in self.segments.drain(..) {
            if old.span.hi <= seg.span.lo + EPS || old.span.lo >= seg.span.hi - EPS {
                out.push(old);
                continue;
            }
            // Keep the non-overlapped head of the old piece, if any.
            if let Some(head) = old.truncated_at(seg.span.lo) {
                if head.span.len() > EPS {
                    out.push(head);
                }
            }
            // Keep the non-overlapped tail of the old piece, if any.
            if old.span.hi > seg.span.hi + EPS {
                out.push(old.restricted(Span::new(seg.span.hi, old.span.hi)));
            }
        }
        out.push(seg);
        out.sort_by(|a, b| a.span.lo.total_cmp(&b.span.lo));
        self.segments = out;
    }

    /// The piece valid at time `t`, if any.
    pub fn piece_at(&self, t: f64) -> Option<&Segment> {
        // Binary search over sorted starts, then verify containment.
        let idx = self.segments.partition_point(|s| s.span.lo <= t + EPS);
        idx.checked_sub(1)
            .map(|i| &self.segments[i])
            .filter(|s| s.span.contains(t) || (t - s.span.hi).abs() <= EPS && s.span.is_point())
    }

    /// Evaluates model slot `slot` at `t`, if covered.
    pub fn eval(&self, slot: usize, t: f64) -> Option<f64> {
        self.piece_at(t).map(|s| s.eval(slot, t))
    }

    /// Drops every piece that ends at or before `t` (state bounding via the
    /// reference timestamp's monotonicity, §II-B).
    pub fn expire_before(&mut self, t: f64) {
        self.segments.retain(|s| s.span.hi > t + EPS);
    }

    /// Pieces overlapping the given span.
    pub fn overlapping(&self, span: Span) -> impl Iterator<Item = &Segment> {
        self.segments.iter().filter(move |s| s.span.overlaps(&span))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pulse_math::Poly;

    fn seg(lo: f64, hi: f64, level: f64) -> Segment {
        Segment::single(1, Span::new(lo, hi), Poly::constant(level))
    }

    #[test]
    fn sequential_inserts_stay_sorted() {
        let mut pw = Piecewise::new();
        pw.insert(seg(0.0, 1.0, 1.0));
        pw.insert(seg(1.0, 2.0, 2.0));
        pw.insert(seg(2.0, 3.0, 3.0));
        assert_eq!(pw.len(), 3);
        assert_eq!(pw.eval(0, 0.5), Some(1.0));
        assert_eq!(pw.eval(0, 1.5), Some(2.0));
        assert_eq!(pw.eval(0, 2.5), Some(3.0));
        assert_eq!(pw.eval(0, 3.5), None);
        assert_eq!(pw.extent(), Some(Span::new(0.0, 3.0)));
    }

    #[test]
    fn successor_truncates_overlap() {
        let mut pw = Piecewise::new();
        pw.insert(seg(0.0, 10.0, 1.0));
        pw.insert(seg(4.0, 6.0, 2.0)); // punches a hole in the middle
        assert_eq!(pw.len(), 3);
        assert_eq!(pw.eval(0, 2.0), Some(1.0));
        assert_eq!(pw.eval(0, 5.0), Some(2.0));
        assert_eq!(pw.eval(0, 8.0), Some(1.0)); // old tail survives
    }

    #[test]
    fn successor_replaces_entirely() {
        let mut pw = Piecewise::new();
        pw.insert(seg(2.0, 4.0, 1.0));
        pw.insert(seg(0.0, 10.0, 2.0));
        assert_eq!(pw.len(), 1);
        assert_eq!(pw.eval(0, 3.0), Some(2.0));
    }

    #[test]
    fn update_wins_on_exact_overlap_prefix() {
        let mut pw = Piecewise::new();
        pw.insert(seg(0.0, 10.0, 1.0));
        pw.insert(seg(5.0, 10.0, 2.0));
        assert_eq!(pw.len(), 2);
        assert_eq!(pw.eval(0, 4.9), Some(1.0));
        assert_eq!(pw.eval(0, 5.1), Some(2.0));
    }

    #[test]
    fn expiry_bounds_state() {
        let mut pw = Piecewise::new();
        pw.insert(seg(0.0, 1.0, 1.0));
        pw.insert(seg(1.0, 2.0, 2.0));
        pw.insert(seg(2.0, 3.0, 3.0));
        pw.expire_before(1.5);
        // [0,1) fully expired; [1,2) still has live tail; [2,3) untouched.
        assert_eq!(pw.len(), 2);
        assert_eq!(pw.eval(0, 0.5), None);
    }

    #[test]
    fn overlapping_query() {
        let mut pw = Piecewise::new();
        pw.insert(seg(0.0, 1.0, 1.0));
        pw.insert(seg(2.0, 3.0, 2.0));
        let hits: Vec<_> = pw.overlapping(Span::new(0.5, 2.5)).collect();
        assert_eq!(hits.len(), 2);
        let hits: Vec<_> = pw.overlapping(Span::new(1.2, 1.8)).collect();
        assert!(hits.is_empty());
    }
}
