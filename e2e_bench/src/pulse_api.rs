//! Every call the benchmark makes into Pulse goes through this file.
//!
//! The rest of the benchmark sees one [`Runtime`] whatever the driver
//! (`PulseRuntime`, `ShardedRuntime` or `HybridRuntime`), so an API change
//! such as folding the drivers into one, or dropping caller-side
//! `gc_before`, is an edit here and nowhere else. Only public entry points
//! are used, the way an application would use them: SQL text into
//! `parse_query`, then a runtime constructor, then the feed calls.

use crate::fingerprint::{hash_words, Fingerprint};
use pulse::core::runtime::Predictor;
use pulse::core::{HybridRuntime, PulseRuntime, RuntimeConfig, ShardedRuntime};
use pulse::obs::prof::Phase;
use pulse::sql::{parse_query, Catalog, Compiled};
use pulse::stream::{partition_rewrite, Calibration, HybridPlan};
use pulse::workload::{moving, nyse, MovingConfig, MovingObjectGen, NyseConfig, NyseGen};
use std::time::Instant;

pub use pulse::core::RuntimeStats as Stats;
pub use pulse::model::{Segment, Tuple};

/// Tuples per runtime call: the batch the sharded workers receive, and
/// the chunk single-runtime feeds hand to `on_pairs`.
pub const BATCH: usize = pulse::core::DEFAULT_BATCH;

/// NYSE-style trades, time-ordered.
pub fn nyse_stream(symbols: usize, rate: f64, tick_noise: f64, seed: u64, secs: f64) -> Vec<Tuple> {
    NyseGen::new(NyseConfig { symbols, rate, drift_duration: 2.0, tick_noise, seed }).generate(secs)
}

/// Moving-object samples, time-ordered.
pub fn moving_stream(
    objects: usize,
    sample_dt: f64,
    leg_duration: f64,
    noise: f64,
    seed: u64,
    secs: f64,
) -> Vec<Tuple> {
    MovingObjectGen::new(MovingConfig {
        objects,
        sample_dt,
        leg_duration,
        noise,
        seed,
        ..Default::default()
    })
    .generate(secs)
}

/// The streams queries may name.
fn catalog() -> Catalog {
    Catalog::new().stream("trades", nyse::schema(), Some("symbol")).stream(
        "objects",
        moving::schema(),
        Some("id"),
    )
}

/// A parsed and compiled query.
pub struct Query(Compiled);

/// Parses and compiles SQL text.
pub fn parse(sql: &str) -> Result<Query, String> {
    parse_query(sql, &catalog()).map(Query).map_err(|e| e.to_string())
}

impl Query {
    /// The query's `ERROR WITHIN` fraction, if it has one.
    pub fn error_within(&self) -> Option<f64> {
        self.0.error_within
    }

    /// One predictor per source: the MODEL clause where the query gives
    /// one, otherwise the adaptive linear modeler over the source schema.
    fn predictors(&self) -> Vec<Predictor> {
        let c = &self.0;
        c.plan
            .sources
            .iter()
            .enumerate()
            .map(|(i, schema)| match c.models.get(i).cloned().flatten() {
                Some(sm) => Predictor::Clause(sm),
                None => Predictor::AdaptiveLinear(schema.clone()),
            })
            .collect()
    }
}

/// A query split by the partition rewrite into sharded branches plus a
/// serial merge stage.
pub struct Rewritten(HybridPlan);

/// Runs the partition rewrite; `None` when it does not apply.
pub fn rewrite(q: &Query) -> Option<Rewritten> {
    partition_rewrite(&q.0.plan).map(Rewritten)
}

/// Which runtime executes the query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    Single,
    Sharded(usize),
    Hybrid(usize),
}

/// Input calibration for the shadow auditor (see `RuntimeConfig`).
#[derive(Debug, Clone, Copy)]
pub struct AuditCalibration {
    pub noise: f64,
    pub max_slope: f64,
    pub sample_dt: f64,
    pub max_abs: f64,
}

/// The runtime settings a workload chooses; everything else stays at the
/// library defaults (obs, profiler, flight recorder and auditing off).
#[derive(Debug, Clone, Copy)]
pub struct Settings {
    pub horizon: f64,
    pub bound: f64,
    /// Audit 1 in `rate` keys against the discrete reference.
    pub audit: Option<(u64, AuditCalibration)>,
}

impl Settings {
    fn config(&self) -> RuntimeConfig {
        let mut cfg =
            RuntimeConfig { horizon: self.horizon, bound: self.bound, ..Default::default() };
        if let Some((rate, c)) = self.audit {
            cfg.audit_rate = rate;
            cfg.calibration = Calibration {
                noise: c.noise,
                max_slope: c.max_slope,
                sample_dt: c.sample_dt,
                max_abs: c.max_abs,
            };
        }
        cfg
    }
}

/// Turns the live metrics registry and the violation-path phase profiler
/// on or off, process-wide. Only the traced run turns them on.
pub fn set_observed(on: bool) {
    pulse::obs::set_enabled(on);
    pulse::obs::set_prof_enabled(on);
}

/// Nanoseconds the runtime's own `runtime.violation_path_ns` histogram has
/// recorded so far (only while observed).
pub fn violation_path_ns() -> u64 {
    pulse::obs::global().snapshot().histogram("runtime.violation_path_ns").map_or(0, |h| h.sum_ns)
}

/// Content hash of one result segment, blind to its id.
pub fn segment_hash(s: &Segment) -> u64 {
    let words = [s.key, s.span.lo.to_bits(), s.span.hi.to_bits(), s.models.len() as u64]
        .into_iter()
        .chain(s.models.iter().flat_map(|p| {
            std::iter::once(p.coeffs().len() as u64).chain(p.coeffs().iter().map(|c| c.to_bits()))
        }))
        .chain(s.unmodeled.iter().map(|u| u.to_bits()));
    hash_words(words)
}

fn fold(fp: &mut Fingerprint, outs: Vec<Segment>) {
    for s in &outs {
        fp.add(segment_hash(s));
    }
}

/// Per-operator counters of a single-runtime plan.
#[derive(Debug, Clone)]
pub struct NodeCounts {
    /// `<index>_<operator>`, e.g. `2_join`.
    pub name: String,
    pub systems_solved: u64,
    pub comparisons: u64,
}

/// Violation-path phase times.
#[derive(Debug, Clone, Copy, Default)]
pub struct Phases(pulse::obs::PhaseTable);

impl Phases {
    /// Adds another runtime's phase times.
    pub fn absorb(&mut self, other: &Phases) {
        self.0.absorb(&other.0);
    }

    /// `(phase, ns)` for every phase, pipeline-ordered.
    pub fn ns(&self) -> Vec<(&'static str, u64)> {
        Phase::ALL.iter().map(|p| (p.name(), self.0.ns(*p))).collect()
    }

    /// Nanoseconds attributed to the violation path (all but `validate`).
    pub fn violation_ns(&self) -> u64 {
        self.0.violation_ns()
    }

    /// `(ns, samples)` of the sampled suppressed-path `validate` phase.
    pub fn validate_sample(&self) -> (u64, u64) {
        (self.0.ns(Phase::Validate), self.0.count(Phase::Validate))
    }
}

/// What a runtime reports once its stream has ended.
#[derive(Debug, Clone, Default)]
pub struct Totals {
    pub stats: Stats,
    pub accuracy_keys: u64,
    pub slack_keys: u64,
    pub phases: Phases,
    /// Single runtime only.
    pub nodes: Vec<NodeCounts>,
    /// Lineage entries still held when the stream ended (single runtime).
    pub lineage_resident: Option<usize>,
    /// `(checks, breaches)` of the shadow auditor, when auditing was on.
    pub audit: Option<(u64, u64)>,
}

/// A running query, whichever driver executes it.
// One per pass, so the single runtime's larger size costs nothing.
#[allow(clippy::large_enum_variant)]
pub enum Runtime {
    Single(PulseRuntime),
    Sharded(ShardedRuntime),
    Hybrid(HybridRuntime),
}

impl Runtime {
    /// Builds the runtime, spawning worker threads for the sharded
    /// drivers. `Driver::Hybrid` needs the rewritten plan.
    pub fn build(
        q: &Query,
        rewritten: Option<&Rewritten>,
        driver: Driver,
        settings: &Settings,
    ) -> Result<Runtime, String> {
        let (preds, cfg, plan) = (q.predictors(), settings.config(), &q.0.plan);
        Ok(match driver {
            Driver::Single => Runtime::Single(
                PulseRuntime::with_predictors(preds, plan, cfg).map_err(|e| e.to_string())?,
            ),
            Driver::Sharded(n) => Runtime::Sharded(
                ShardedRuntime::new(preds, plan, cfg, n).map_err(|e| e.to_string())?,
            ),
            Driver::Hybrid(n) => {
                let hp = rewritten.ok_or("the hybrid driver needs the partition rewrite")?;
                Runtime::Hybrid(
                    HybridRuntime::new(preds, &hp.0, cfg, n).map_err(|e| e.to_string())?,
                )
            }
        })
    }

    /// Hands one chunk (at most [`BATCH`] tuples) to the runtime and folds
    /// any results it returns into `fp`.
    pub fn feed(&mut self, chunk: &[(usize, &Tuple)], fp: &mut Fingerprint) {
        match self {
            Runtime::Single(rt) => fold(fp, rt.on_pairs(chunk)),
            Runtime::Sharded(rt) => chunk.iter().for_each(|(s, t)| rt.on_tuple(*s, t)),
            Runtime::Hybrid(rt) => chunk.iter().for_each(|(s, t)| rt.on_tuple(*s, t)),
        }
    }

    /// [`Self::feed`], also pushing the duration in ns of every public call
    /// it makes: one `on_pairs` call for the single runtime, one `on_tuple`
    /// call per tuple for the sharded drivers.
    pub fn feed_timed(
        &mut self,
        chunk: &[(usize, &Tuple)],
        fp: &mut Fingerprint,
        ns: &mut Vec<u64>,
    ) {
        let timed = |ns: &mut Vec<u64>, f: &mut dyn FnMut()| {
            let t0 = Instant::now();
            f();
            ns.push(t0.elapsed().as_nanos() as u64);
        };
        match self {
            Runtime::Single(rt) => {
                let mut outs = Vec::new();
                timed(ns, &mut || outs = rt.on_pairs(chunk));
                fold(fp, outs);
            }
            Runtime::Sharded(rt) => {
                for (s, t) in chunk {
                    timed(ns, &mut || rt.on_tuple(*s, t));
                }
            }
            Runtime::Hybrid(rt) => {
                for (s, t) in chunk {
                    timed(ns, &mut || rt.on_tuple(*s, t));
                }
            }
        }
    }

    /// Drops lineage older than stream time `t`.
    pub fn gc_before(&mut self, t: f64) {
        match self {
            Runtime::Single(rt) => rt.gc_before(t),
            Runtime::Sharded(rt) => rt.gc_before(t),
            Runtime::Hybrid(rt) => rt.gc_before(t),
        }
    }

    /// Rounds a warm-up prefix length up so that, once [`Self::barrier`]
    /// returns after feeding it, every tuple fed has been processed. The
    /// hybrid driver has no public barrier, but its `on_tuple` drains every
    /// worker at each `SYNC_EVERY`-th tuple.
    pub fn barrier_len(&self, n: usize) -> usize {
        match self {
            Runtime::Hybrid(_) => n.div_ceil(HybridRuntime::SYNC_EVERY) * HybridRuntime::SYNC_EVERY,
            _ => n,
        }
    }

    /// Waits until the workers have processed every tuple fed so far. The
    /// sharded driver's `trace_events` flushes every shard and waits for
    /// each one's reply; it copies empty rings while tracing is off.
    pub fn barrier(&mut self) {
        if let Runtime::Sharded(rt) = self {
            rt.trace_events();
        }
    }

    /// Counters so far (single runtime; the sharded drivers report only
    /// at finish).
    pub fn stats(&self) -> Option<Stats> {
        match self {
            Runtime::Single(rt) => Some(rt.stats()),
            _ => None,
        }
    }

    /// Batches queued per shard (sharded driver only).
    pub fn queue_depths(&self) -> Vec<u64> {
        match self {
            Runtime::Sharded(rt) => (0..rt.shards()).map(|s| rt.queue_depth(s)).collect(),
            _ => Vec::new(),
        }
    }

    /// The worker owning `key` (sharded drivers only).
    pub fn shard_of(&self, key: u64) -> Option<usize> {
        match self {
            Runtime::Single(_) => None,
            Runtime::Sharded(rt) => Some(rt.shard_of(key)),
            Runtime::Hybrid(rt) => Some(rt.shard_of(key)),
        }
    }

    /// Ends the stream: folds the remaining results into `fp` (for the
    /// sharded drivers, all of them) and reports the totals.
    pub fn finish(self, fp: &mut Fingerprint) -> Totals {
        match self {
            Runtime::Single(rt) => {
                let v = rt.validator().stats();
                let plan = rt.plan();
                Totals {
                    stats: rt.stats(),
                    accuracy_keys: v.accuracy_keys,
                    slack_keys: v.slack_keys,
                    phases: Phases(*rt.phases()),
                    nodes: (0..plan.len())
                        .map(|i| {
                            let m = plan.node_metrics(i);
                            NodeCounts {
                                name: format!("{i}_{}", plan.op(i).name()),
                                systems_solved: m.systems_solved,
                                comparisons: m.comparisons,
                            }
                        })
                        .collect(),
                    lineage_resident: Some(plan.lineage().lock().len()),
                    audit: rt.audit_ledger().map(|l| (l.checks, l.breaches)),
                }
            }
            Runtime::Sharded(rt) => {
                let run = rt.finish();
                fold(fp, run.outputs);
                Totals {
                    stats: run.stats,
                    accuracy_keys: run.validator.accuracy_keys,
                    slack_keys: run.validator.slack_keys,
                    phases: Phases(run.phases),
                    audit: (run.audit.audited_keys() > 0)
                        .then_some((run.audit.checks, run.audit.breaches)),
                    ..Default::default()
                }
            }
            Runtime::Hybrid(rt) => {
                let run = rt.finish();
                fold(fp, run.outputs);
                Totals {
                    stats: run.stats,
                    accuracy_keys: run.validator.accuracy_keys,
                    slack_keys: run.validator.slack_keys,
                    phases: Phases(run.phases),
                    ..Default::default()
                }
            }
        }
    }
}
