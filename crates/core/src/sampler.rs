//! Output sampling — turning result segments back into tuples.
//!
//! §III-C: "Once the processed segment reaches an output stream, we produce
//! output tuples via a sampling process. For selective operators, this
//! requires a user-defined sampling rate"; for aggregates the rate is
//! inferred from the window's slide parameter.

use pulse_math::EPS;
use pulse_model::{Segment, Tuple};

/// Samples result segments onto a fixed time grid.
#[derive(Debug, Clone, Copy)]
pub struct Sampler {
    /// Samples per second.
    pub rate: f64,
}

impl Sampler {
    /// User-specified output rate (selective operators).
    pub fn new(rate: f64) -> Self {
        assert!(rate > 0.0, "sampling rate must be positive");
        Sampler { rate }
    }

    /// Rate inferred from an aggregate's slide: one output per window close.
    pub fn from_slide(slide: f64) -> Self {
        Sampler::new(1.0 / slide)
    }

    /// Tuples for one segment: every grid point within its span (a point
    /// segment yields exactly one tuple at its instant).
    pub fn sample_segment(&self, seg: &Segment) -> Vec<Tuple> {
        let eval = |t: f64| -> Tuple {
            let mut values: Vec<f64> = seg.models.iter().map(|m| m.eval(t)).collect();
            values.extend_from_slice(&seg.unmodeled);
            Tuple::new(seg.key, t, values)
        };
        if seg.span.is_point() {
            return vec![eval(seg.span.lo)];
        }
        let step = 1.0 / self.rate;
        let mut t = (seg.span.lo / step).ceil() * step;
        if t < seg.span.lo {
            t = seg.span.lo;
        }
        let mut out = Vec::new();
        while t < seg.span.hi - EPS {
            out.push(eval(t));
            t += step;
        }
        out
    }

    /// Tuples for a batch of segments, time-ordered.
    pub fn sample(&self, segs: &[Segment]) -> Vec<Tuple> {
        let mut out: Vec<Tuple> = segs.iter().flat_map(|s| self.sample_segment(s)).collect();
        out.sort_by(|a, b| a.ts.total_cmp(&b.ts));
        out
    }

    /// [`Self::sample`] plus staleness accounting against the input
    /// watermark (the max tuple timestamp the runtime has ingested).
    /// Samples at or before the watermark are *settled* — the inputs that
    /// could invalidate them have been seen; samples beyond it are
    /// *speculative*, riding on the predictive models (the whole point of
    /// Pulse, but worth measuring: how far ahead of its inputs the system
    /// answers, and how much of the output is still exposed to revision).
    pub fn sample_with_watermark(
        &self,
        segs: &[Segment],
        watermark: f64,
    ) -> (Vec<Tuple>, SampleStaleness) {
        let out = self.sample(segs);
        let mut st = SampleStaleness::default();
        for t in &out {
            if t.ts <= watermark + EPS {
                st.settled += 1;
            } else {
                st.speculative += 1;
                st.max_lead = st.max_lead.max(t.ts - watermark);
            }
        }
        (out, st)
    }
}

/// How a batch of output samples stands relative to the input watermark.
#[derive(Debug, Clone, Copy, Default, PartialEq, serde::Serialize)]
pub struct SampleStaleness {
    /// Samples at or behind the watermark (inputs already seen).
    pub settled: u64,
    /// Samples ahead of the watermark (predictions still exposed to
    /// revision by future arrivals).
    pub speculative: u64,
    /// Furthest any sample ran ahead of the watermark, in stream seconds.
    pub max_lead: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use pulse_math::{Poly, Span};

    #[test]
    fn samples_on_grid() {
        let s = Segment::single(1, Span::new(0.25, 1.05), Poly::linear(0.0, 2.0));
        let tuples = Sampler::new(10.0).sample_segment(&s);
        // Grid points 0.3, 0.4, …, 1.0 → 8 samples.
        assert_eq!(tuples.len(), 8);
        assert!((tuples[0].ts - 0.3).abs() < 1e-9);
        assert!((tuples[0].values[0] - 0.6).abs() < 1e-9);
        assert!((tuples.last().unwrap().ts - 1.0).abs() < 1e-9);
    }

    #[test]
    fn point_segment_yields_one_tuple() {
        let s = Segment::single(3, Span::point(2.5), Poly::linear(1.0, 2.0));
        let tuples = Sampler::new(1.0).sample_segment(&s);
        assert_eq!(tuples.len(), 1);
        assert_eq!(tuples[0].ts, 2.5);
        assert_eq!(tuples[0].values[0], 6.0);
        assert_eq!(tuples[0].key, 3);
    }

    #[test]
    fn unmodeled_values_carried_through() {
        let s = Segment::new(0, Span::new(0.0, 1.0), vec![Poly::constant(1.0)], vec![7.0, 8.0]);
        let tuples = Sampler::new(2.0).sample_segment(&s);
        assert_eq!(tuples[0].values, vec![1.0, 7.0, 8.0]);
    }

    #[test]
    fn from_slide_rate() {
        let s = Sampler::from_slide(2.0);
        assert!((s.rate - 0.5).abs() < 1e-12);
    }

    #[test]
    fn batch_sampling_sorted() {
        let a = Segment::single(1, Span::new(1.0, 2.0), Poly::constant(1.0));
        let b = Segment::single(2, Span::new(0.0, 1.0), Poly::constant(2.0));
        let tuples = Sampler::new(2.0).sample(&[a, b]);
        assert!(tuples.windows(2).all(|w| w[0].ts <= w[1].ts));
    }

    #[test]
    fn watermark_splits_settled_from_speculative() {
        // Span [0, 2) at 2 Hz → samples at 0.0, 0.5, 1.0, 1.5.
        let s = Segment::single(1, Span::new(0.0, 2.0), Poly::constant(1.0));
        let (tuples, st) = Sampler::new(2.0).sample_with_watermark(&[s], 0.75);
        assert_eq!(tuples.len(), 4);
        assert_eq!(st.settled, 2, "0.0 and 0.5 are behind the watermark");
        assert_eq!(st.speculative, 2);
        assert!((st.max_lead - 0.75).abs() < 1e-9, "1.5 − 0.75");
        // Watermark past the span: everything settled, no lead.
        let s = Segment::single(1, Span::new(0.0, 2.0), Poly::constant(1.0));
        let (_, st) = Sampler::new(2.0).sample_with_watermark(&[s], 10.0);
        assert_eq!((st.settled, st.speculative), (4, 0));
        assert_eq!(st.max_lead, 0.0);
    }
}
