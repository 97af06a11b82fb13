//! Historical processing (§II-A): model once, query many times.
//!
//! "Applications replay a historical stream as input to a large number of
//! queries with different user-supplied analytical functions or a range of
//! parameter values … the cost of modeling can be amortized across many
//! queries." [`HistoricalStore`] owns that amortization: it runs the
//! modeling component over an archived tuple stream once and serves any
//! number of what-if queries from the compact segment form.

use crate::plan::{CPlan, TransformError};
use crate::sampler::Sampler;
use pulse_model::{FitConfig, Segment, StreamFitter, Tuple};
use pulse_stream::LogicalPlan;

/// A modeled historical archive of one stream.
pub struct HistoricalStore {
    segments: Vec<Segment>,
    tuples_in: u64,
}

impl HistoricalStore {
    /// Models an archived stream: online segmentation over the whole
    /// replay, using the value indices in `modeled` (schema modeled order).
    pub fn build(tuples: &[Tuple], fit: FitConfig, modeled: Vec<usize>) -> Self {
        let mut fitter = StreamFitter::new(fit, modeled);
        let mut segments = Vec::new();
        for t in tuples {
            segments.extend(fitter.push(t));
        }
        segments.extend(fitter.finish());
        segments.sort_by(|a, b| a.span.lo.total_cmp(&b.span.lo));
        HistoricalStore { segments, tuples_in: tuples.len() as u64 }
    }

    /// Wraps pre-modeled segments (e.g. ground truth or a saved archive).
    pub fn from_segments(mut segments: Vec<Segment>) -> Self {
        segments.sort_by(|a, b| a.span.lo.total_cmp(&b.span.lo));
        let n = segments.len() as u64;
        HistoricalStore { segments, tuples_in: n }
    }

    /// The archive's segments.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Compression achieved by modeling (tuples per segment).
    pub fn compression(&self) -> f64 {
        if self.segments.is_empty() {
            0.0
        } else {
            self.tuples_in as f64 / self.segments.len() as f64
        }
    }

    /// Runs one what-if query over the archive, returning result segments.
    /// The plan must be single-source (the archive stream is source 0).
    pub fn run(&self, query: &LogicalPlan) -> Result<Vec<Segment>, TransformError> {
        let mut plan = CPlan::compile(query)?;
        let mut out = Vec::new();
        for s in &self.segments {
            out.extend(plan.push(0, s));
        }
        out.extend(plan.finish());
        Ok(out)
    }

    /// Runs a what-if query and samples its results (rate from the given
    /// sampler — typically [`Sampler::from_slide`] for aggregates).
    pub fn run_sampled(
        &self,
        query: &LogicalPlan,
        sampler: Sampler,
    ) -> Result<Vec<Tuple>, TransformError> {
        Ok(sampler.sample(&self.run(query)?))
    }

    /// Persists the archive (binary segment format; see
    /// `pulse_model::archive`).
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        pulse_model::archive::save(path, &self.segments)
    }

    /// Loads a previously saved archive.
    pub fn load(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        Ok(Self::from_segments(pulse_model::archive::load(path)?))
    }

    /// Runs a whole parameter sweep, pairing each query with its results.
    pub fn sweep<'q>(
        &self,
        queries: &'q [LogicalPlan],
    ) -> Result<Vec<(&'q LogicalPlan, Vec<Segment>)>, TransformError> {
        queries.iter().map(|q| Ok((q, self.run(q)?))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pulse_math::CmpOp;
    use pulse_model::{AttrKind, CheckMode, Expr, Pred, Schema};
    use pulse_stream::{AggFunc, LogicalOp, PortRef};

    fn archive() -> (Vec<Tuple>, Schema) {
        let schema = Schema::of(&[("x", AttrKind::Modeled)]);
        let tuples: Vec<Tuple> = (0..800)
            .map(|i| {
                let ts = i as f64 * 0.1;
                // Triangle wave: rises for 20 s, falls for 20 s.
                let phase = ts % 40.0;
                let v = if phase < 20.0 { phase } else { 40.0 - phase };
                Tuple::new(1, ts, vec![v])
            })
            .collect();
        (tuples, schema)
    }

    fn filter_query(schema: &Schema, thr: f64) -> LogicalPlan {
        let mut lp = LogicalPlan::new(vec![schema.clone()]);
        lp.add(
            LogicalOp::Filter { pred: Pred::cmp(Expr::attr(0), CmpOp::Gt, Expr::c(thr)) },
            vec![PortRef::Source(0)],
        );
        lp
    }

    #[test]
    fn build_compresses_and_serves_queries() {
        let (tuples, schema) = archive();
        let fit = FitConfig { max_error: 0.05, check: CheckMode::NewPoint, ..Default::default() };
        let store = HistoricalStore::build(&tuples, fit, vec![0]);
        assert!(store.compression() > 20.0, "triangle wave should compress well");
        // What-if sweep over thresholds: higher threshold → less time above.
        let queries: Vec<LogicalPlan> =
            [5.0, 10.0, 15.0].iter().map(|&t| filter_query(&schema, t)).collect();
        let results = store.sweep(&queries).unwrap();
        let coverage: Vec<f64> =
            results.iter().map(|(_, segs)| segs.iter().map(|s| s.span.len()).sum()).collect();
        assert!(coverage[0] > coverage[1] && coverage[1] > coverage[2], "{coverage:?}");
    }

    #[test]
    fn sampled_results_respect_predicate() {
        let (tuples, schema) = archive();
        let fit = FitConfig { max_error: 0.05, check: CheckMode::NewPoint, ..Default::default() };
        let store = HistoricalStore::build(&tuples, fit, vec![0]);
        let q = filter_query(&schema, 10.0);
        let sampled = store.run_sampled(&q, Sampler::new(5.0)).unwrap();
        assert!(!sampled.is_empty());
        assert!(sampled.iter().all(|t| t.values[0] > 10.0 - 0.1));
    }

    #[test]
    fn aggregate_what_if() {
        let (tuples, schema) = archive();
        let fit = FitConfig { max_error: 0.05, check: CheckMode::NewPoint, ..Default::default() };
        let store = HistoricalStore::build(&tuples, fit, vec![0]);
        let mut lp = LogicalPlan::new(vec![schema]);
        lp.add(
            LogicalOp::Aggregate {
                func: AggFunc::Avg,
                attr: 0,
                width: 40.0,
                slide: 20.0,
                group_by_key: true,
            },
            vec![PortRef::Source(0)],
        );
        let out = store.run(&lp).unwrap();
        assert!(!out.is_empty());
        // Average of a symmetric triangle wave over a full period = 10.
        let wf = &out[0];
        let v = wf.models[0].eval(wf.span.mid());
        assert!((v - 10.0).abs() < 0.5, "avg {v}");
    }

    #[test]
    fn save_load_roundtrip() {
        let (tuples, schema) = archive();
        let fit = FitConfig { max_error: 0.05, check: CheckMode::NewPoint, ..Default::default() };
        let store = HistoricalStore::build(&tuples, fit, vec![0]);
        let dir = std::env::temp_dir().join("pulse-hist-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("arch.plse");
        store.save(&path).unwrap();
        let loaded = HistoricalStore::load(&path).unwrap();
        let q = filter_query(&schema, 10.0);
        assert_eq!(store.run(&q).unwrap().len(), loaded.run(&q).unwrap().len());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn from_segments_roundtrip() {
        let (tuples, schema) = archive();
        let fit = FitConfig { max_error: 0.05, check: CheckMode::NewPoint, ..Default::default() };
        let a = HistoricalStore::build(&tuples, fit, vec![0]);
        let b = HistoricalStore::from_segments(a.segments().to_vec());
        let q = filter_query(&schema, 10.0);
        assert_eq!(a.run(&q).unwrap().len(), b.run(&q).unwrap().len());
    }
}
