//! Query lineage — which input segments caused each output segment.
//!
//! §IV-B: joins and aggregates have no unique inverse from outputs alone,
//! but "we may invert these operators given both the outputs and the inputs
//! that caused them". Properties 1 (temporal sub-ranges) and 2 (keys
//! functionally determine models) guarantee each output segment has a
//! unique causing set; this store records it, plus a snapshot of every
//! segment, so bound inversion can walk from query outputs back to source
//! segments. The paper notes lineage is cheap "due to a segment's
//! compactness" — snapshots here are a span plus a few coefficients.

use parking_lot::Mutex;
use pulse_model::{Segment, SegmentId};
use std::collections::HashMap;
use std::sync::Arc;

/// Shared handle operators use to record lineage.
pub type SharedLineage = Arc<Mutex<LineageStore>>;

/// Creates a fresh shared store.
pub fn shared() -> SharedLineage {
    Arc::new(Mutex::new(LineageStore::default()))
}

/// The lineage graph plus segment snapshots.
#[derive(Debug, Default)]
pub struct LineageStore {
    parents: HashMap<SegmentId, Vec<SegmentId>>,
    snapshots: HashMap<SegmentId, Segment>,
}

impl LineageStore {
    /// Snapshots a segment. A plan snapshots each pushed source segment
    /// once, and an operator snapshots only what it emits (via
    /// [`Self::emit`]), so every segment is copied in here once.
    pub fn register(&mut self, seg: &Segment) {
        self.snapshots.insert(seg.id, seg.clone());
    }

    /// Records that `out` was caused by `parents`.
    pub fn record(&mut self, out: SegmentId, parents: &[SegmentId]) {
        self.parents.insert(out, parents.to_vec());
    }

    /// Convenience: snapshot an output and record its parents.
    pub fn emit(&mut self, out: &Segment, parents: &[SegmentId]) {
        self.register(out);
        self.record(out.id, parents);
    }

    /// Direct parents of a segment (empty for sources).
    pub fn parents_of(&self, id: SegmentId) -> &[SegmentId] {
        self.parents.get(&id).map_or(&[], Vec::as_slice)
    }

    /// Snapshot lookup.
    pub fn segment(&self, id: SegmentId) -> Option<&Segment> {
        self.snapshots.get(&id)
    }

    /// Transitive closure down to source segments (those with no recorded
    /// parents), deduplicated. Each node is expanded once — diamond-shaped
    /// lineage (shared ancestors along several paths) stays linear instead
    /// of re-walking the shared subgraph per path.
    pub fn sources_of(&self, id: SegmentId) -> Vec<SegmentId> {
        let mut visited = std::collections::HashSet::new();
        let mut out = Vec::new();
        let mut stack = vec![id];
        while let Some(cur) = stack.pop() {
            if !visited.insert(cur) {
                continue;
            }
            let ps = self.parents_of(cur);
            if ps.is_empty() {
                out.push(cur);
            } else {
                stack.extend_from_slice(ps);
            }
        }
        out.sort();
        out
    }

    /// Drops lineage for segments entirely before `t` (state bounding).
    pub fn gc_before(&mut self, t: f64) {
        let LineageStore { parents, snapshots } = self;
        snapshots.retain(|_, s| s.span.hi >= t);
        parents.retain(|id, _| snapshots.contains_key(id));
    }

    /// Number of snapshots held (for memory accounting in experiments).
    pub fn len(&self) -> usize {
        self.snapshots.len()
    }

    /// True when the store holds nothing.
    pub fn is_empty(&self) -> bool {
        self.snapshots.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pulse_math::{Poly, Span};

    fn seg(lo: f64, hi: f64) -> Segment {
        Segment::single(1, Span::new(lo, hi), Poly::zero())
    }

    #[test]
    fn record_and_walk() {
        let mut store = LineageStore::default();
        let (a, b) = (seg(0.0, 1.0), seg(0.0, 1.0));
        let mid = seg(0.2, 0.8);
        let out = seg(0.3, 0.6);
        for s in [&a, &b, &mid, &out] {
            store.register(s);
        }
        store.record(mid.id, &[a.id, b.id]);
        store.record(out.id, &[mid.id]);
        assert_eq!(store.parents_of(out.id), &[mid.id]);
        assert_eq!(store.sources_of(out.id), {
            let mut v = vec![a.id, b.id];
            v.sort();
            v
        });
        // A source is its own source-set.
        assert_eq!(store.sources_of(a.id), vec![a.id]);
    }

    #[test]
    fn gc_drops_expired() {
        let mut store = LineageStore::default();
        let old = seg(0.0, 1.0);
        let new = seg(5.0, 6.0);
        store.register(&old);
        store.register(&new);
        store.record(new.id, &[old.id]);
        store.gc_before(2.0);
        assert!(store.segment(old.id).is_none());
        assert!(store.segment(new.id).is_some());
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn shared_handle_is_cloneable() {
        let s = shared();
        let s2 = s.clone();
        s.lock().register(&seg(0.0, 1.0));
        assert_eq!(s2.lock().len(), 1);
    }
}
