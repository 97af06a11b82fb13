//! An order-insensitive digest of a run's result segments.
//!
//! Each segment hashes to one word over its content: key, span bounds,
//! model coefficients and unmodeled values, bit for bit, but never its
//! id, since ids come from a process-wide counter and differ from run to
//! run. The digest sums the mixed words, so any emission order (and any
//! shard count) of the same segments gives the same digest. It streams:
//! the timed loop folds results in as they come back, without storing
//! them and without allocating.

/// Multiset digest of result segments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Fingerprint {
    sum: u64,
    /// Segments folded in.
    pub count: u64,
}

impl Fingerprint {
    /// Folds in one segment's content hash (see [`hash_words`]).
    pub fn add(&mut self, h: u64) {
        self.sum = self.sum.wrapping_add(mix(h));
        self.count += 1;
    }

    /// Printable form: `count:digest`.
    pub fn hex(&self) -> String {
        format!("{}:{:016x}", self.count, self.sum)
    }
}

/// splitmix64's finalizer.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Order-sensitive hash of one segment's content words.
pub fn hash_words(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0x243F_6A88_85A3_08D3, |h, w| mix(h ^ w))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pulse_api::segment_hash;
    use pulse::math::{Poly, Span};
    use pulse::model::{Segment, SegmentId};

    fn seg(id: u64, key: u64, lo: f64) -> Segment {
        Segment {
            id: SegmentId(id),
            key,
            span: Span::new(lo, lo + 1.0),
            models: vec![Poly::linear(lo, 0.5)],
            unmodeled: vec![1.5],
        }
    }

    fn digest(segs: &[Segment]) -> Fingerprint {
        let mut f = Fingerprint::default();
        for s in segs {
            f.add(segment_hash(s));
        }
        f
    }

    #[test]
    fn ignores_ids_and_order() {
        let a = [seg(1, 7, 0.0), seg(2, 3, 1.0)];
        let b = [seg(90, 3, 1.0), seg(80, 7, 0.0)];
        assert_eq!(digest(&a), digest(&b));
        assert_eq!(digest(&a).count, 2);
    }

    #[test]
    fn sees_content() {
        let base = digest(&[seg(1, 7, 0.0)]);
        assert_ne!(base, digest(&[seg(1, 8, 0.0)]), "key");
        assert_ne!(base, digest(&[seg(1, 7, 0.25)]), "span and model");
        let mut other = seg(1, 7, 0.0);
        other.unmodeled[0] = 2.5;
        assert_ne!(base, digest(&[other]), "unmodeled values");
        // A repeated segment counts twice: the digest is a multiset.
        assert_ne!(base, digest(&[seg(1, 7, 0.0), seg(2, 7, 0.0)]));
    }
}
