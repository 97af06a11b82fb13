//! One benchmark run of one workload: passes, correctness checks, and the
//! metrics they yield.
//!
//! A *pass* builds a fresh runtime from the SQL text, feeds the warm-up
//! prefix (set-up), then feeds the rest of the stream, either closed loop
//! (as fast as the runtime takes it) or open loop (at a fixed wall rate),
//! and ends the stream. A run repeats closed-loop passes until its time
//! budget is spent and reports medians across them.

use crate::alloc;
use crate::fingerprint::Fingerprint;
use crate::loadgen::{self, Replay};
use crate::pulse_api::{self, Driver, Phases, Runtime, Totals, Tuple, BATCH};
use crate::stats::{median, quantile};
use crate::trace::Recorder;
use crate::workloads::Workload;
use std::time::Instant;

/// Tuples between `gc_before` calls, and the lineage they keep, follow
/// the scaling sweep: every 50,000 tuples, drop lineage older than
/// `gc_lag` stream seconds.
const GC_EVERY: usize = 50_000;

/// How the part of the stream after the warm-up prefix is fed.
#[derive(Debug, Clone, Copy)]
enum Feed {
    Closed,
    /// Open loop over the first `n` tuples after warm-up.
    Open {
        n: usize,
    },
}

#[derive(Debug, Clone, Copy)]
struct PassSpec {
    feed: Feed,
    driver: Driver,
    audit: bool,
}

/// Per-call split of a traced single-runtime closed loop: a call is quiet
/// when validation absorbed every tuple in it. The others took the
/// violation path for `violations` of their tuples.
#[derive(Debug, Clone, Copy, Default)]
struct CallSplit {
    quiet_ns: u64,
    quiet_tuples: u64,
    quiet_allocs: u64,
    viol_ns: u64,
    viol_tuples: u64,
    viol_allocs: u64,
    violations: u64,
}

impl CallSplit {
    fn add(&mut self, o: &CallSplit) {
        self.quiet_ns += o.quiet_ns;
        self.quiet_tuples += o.quiet_tuples;
        self.quiet_allocs += o.quiet_allocs;
        self.viol_ns += o.viol_ns;
        self.viol_tuples += o.viol_tuples;
        self.viol_allocs += o.viol_allocs;
        self.violations += o.violations;
    }
}

/// What one pass measured.
#[derive(Debug, Default)]
struct Pass {
    setup_s: f64,
    parse_ns: u64,
    rewrite_ns: u64,
    build_ns: u64,
    warmup_ns: u64,
    /// Tuples fed in all, warm-up included.
    fed: u64,
    timed_tuples: u64,
    timed_ns: u64,
    timed_allocs: u64,
    /// Live-heap high-water mark over set-up and timed part, in bytes.
    peak_bytes: u64,
    gc_ns: u64,
    finish_ns: u64,
    totals: Totals,
    fp: Fingerprint,
    replay: Option<Replay>,
    // Traced passes only.
    call_ns: Vec<u64>,
    split: CallSplit,
    depth_sum: f64,
    depth_samples: u64,
    /// Largest worker's share of the timed tuples over the mean share.
    key_skew: Option<f64>,
    viol_path_ns: u64,
}

impl Pass {
    fn tuples_per_s(&self) -> f64 {
        self.timed_tuples as f64 / (self.timed_ns as f64 * 1e-9)
    }
}

/// The input a run shares across its passes.
struct Stream<'a> {
    w: &'a Workload,
    input: &'a [Tuple],
    pairs: Vec<(usize, &'a Tuple)>,
    warm: usize,
}

impl Stream<'_> {
    /// Calls `gc_before` once another `GC_EVERY` tuples have gone by;
    /// returns when it ran, for the traced run's span.
    fn gc_due(
        &self,
        rt: &mut Runtime,
        seen: usize,
        next_gc: &mut usize,
        p: &mut Pass,
    ) -> Option<(Instant, Instant)> {
        if seen <= *next_gc {
            return None;
        }
        let t0 = Instant::now();
        rt.gc_before(self.pairs[seen - 1].1.ts - self.w.gc_lag());
        let t1 = Instant::now();
        p.gc_ns += (t1 - t0).as_nanos() as u64;
        *next_gc += GC_EVERY;
        Some((t0, t1))
    }

    fn pass(&self, spec: PassSpec, rec: &mut Recorder) -> Result<Pass, String> {
        let w = self.w;
        let mut p = Pass::default();
        rec.next_run();
        rec.open("pass");
        let viol0 = if rec.enabled { pulse_api::violation_path_ns() } else { 0 };
        alloc::reset_peak();
        let live0 = alloc::snapshot().live;

        let setup = Instant::now();
        let q = rec.span("sql.parse_compile", || pulse_api::parse(w.sql))?;
        p.parse_ns = setup.elapsed().as_nanos() as u64;
        let t = Instant::now();
        let rewritten = if w.rewrite {
            let r = rec.span("opt.partition_rewrite", || pulse_api::rewrite(&q));
            Some(r.ok_or("the partition rewrite does not apply")?)
        } else {
            None
        };
        p.rewrite_ns = t.elapsed().as_nanos() as u64;
        let settings = w.settings(self.input, q.error_within(), spec.audit);
        let t = Instant::now();
        let mut rt = rec.span("runtime.build", || {
            Runtime::build(&q, rewritten.as_ref(), spec.driver, &settings)
        })?;
        p.build_ns = t.elapsed().as_nanos() as u64;

        let t = Instant::now();
        rec.open("runtime.warmup");
        let warm = rt.barrier_len(self.warm).min(self.pairs.len());
        let (mut seen, mut next_gc) = (0, GC_EVERY);
        for chunk in self.pairs[..warm].chunks(BATCH) {
            rt.feed(chunk, &mut p.fp);
            seen += chunk.len();
            self.gc_due(&mut rt, seen, &mut next_gc, &mut p);
        }
        rt.barrier();
        rec.close();
        p.warmup_ns = t.elapsed().as_nanos() as u64;
        p.setup_s = setup.elapsed().as_secs_f64();

        let end = match spec.feed {
            Feed::Closed => self.pairs.len(),
            Feed::Open { n } => (warm + n).min(self.pairs.len()),
        };
        let rest = &self.pairs[warm..end];
        if rec.enabled {
            p.key_skew = shard_skew(&rt, rest);
            p.call_ns.reserve(rest.len() + BATCH);
        }
        let allocs0 = alloc::allocs();
        let start = Instant::now();
        // A single runtime hands its results back from each feed call, so
        // they are all in hand when the last call returns; the sharded
        // drivers hand them back from `finish()`.
        let results_from_feed = rt.stats().is_some();
        rec.open("timed");
        match spec.feed {
            Feed::Closed if rec.enabled => {
                let route = match spec.driver {
                    Driver::Single => "runtime.on_pairs",
                    Driver::Sharded(_) => "shard.route",
                    Driver::Hybrid(_) => "hybrid.route",
                };
                for chunk in rest.chunks(BATCH) {
                    let s0 = rt.stats();
                    let a0 = alloc::allocs();
                    let t0 = Instant::now();
                    rt.feed_timed(chunk, &mut p.fp, &mut p.call_ns);
                    let t1 = Instant::now();
                    let allocs = alloc::allocs() - a0;
                    rec.record(route, t0, t1);
                    if let (Some(s0), Some(s1)) = (s0, rt.stats()) {
                        let (ns, n) = ((t1 - t0).as_nanos() as u64, chunk.len() as u64);
                        let sp = &mut p.split;
                        let unabsorbed = n - (s1.suppressed - s0.suppressed);
                        if unabsorbed == 0 {
                            sp.quiet_ns += ns;
                            sp.quiet_tuples += n;
                            sp.quiet_allocs += allocs;
                        } else {
                            sp.viol_ns += ns;
                            sp.viol_tuples += n;
                            sp.viol_allocs += allocs;
                            sp.violations += unabsorbed;
                        }
                    }
                    let depths = rt.queue_depths();
                    if !depths.is_empty() {
                        p.depth_sum += depths.iter().sum::<u64>() as f64 / depths.len() as f64;
                        p.depth_samples += 1;
                    }
                    seen += chunk.len();
                    if let Some((g0, g1)) = self.gc_due(&mut rt, seen, &mut next_gc, &mut p) {
                        rec.record("runtime.gc_before", g0, g1);
                    }
                }
            }
            Feed::Closed => {
                for chunk in rest.chunks(BATCH) {
                    rt.feed(chunk, &mut p.fp);
                    seen += chunk.len();
                    self.gc_due(&mut rt, seen, &mut next_gc, &mut p);
                }
            }
            Feed::Open { .. } => {
                let speedup = w.open_loop_rate.expect("open loop has a rate") / w.stream_rate();
                let replay = loadgen::replay(
                    rest,
                    |(_, t)| t.ts,
                    speedup,
                    |chunk| {
                        let t0 = Instant::now();
                        rt.feed(chunk, &mut p.fp);
                        seen += chunk.len();
                        self.gc_due(&mut rt, seen, &mut next_gc, &mut p);
                        rec.record("runtime.on_pairs", t0, Instant::now());
                    },
                );
                p.replay = Some(replay);
            }
        }
        let (in_hand, allocs_in_hand) = (start.elapsed(), alloc::allocs());
        let t = Instant::now();
        let finish = match spec.driver {
            Driver::Single => "runtime.finish",
            Driver::Sharded(_) => "shard.finish",
            Driver::Hybrid(_) => "hybrid.finish",
        };
        p.totals = rec.span(finish, || rt.finish(&mut p.fp));
        p.finish_ns = t.elapsed().as_nanos() as u64;
        let (timed, allocs) = if results_from_feed {
            (in_hand, allocs_in_hand)
        } else {
            (start.elapsed(), alloc::allocs())
        };
        p.timed_ns = timed.as_nanos() as u64;
        p.timed_allocs = allocs - allocs0;
        rec.close();
        p.peak_bytes = alloc::snapshot().peak.saturating_sub(live0);
        p.timed_tuples = rest.len() as u64;
        p.fed = end as u64;
        if rec.enabled {
            p.viol_path_ns = pulse_api::violation_path_ns() - viol0;
        }
        rec.close();
        Ok(p)
    }

    /// Closed-loop passes until `budget` seconds of timed feeding (and at
    /// least `min` passes) are done.
    fn closed_passes(
        &self,
        rec: &mut Recorder,
        budget: f64,
        min: usize,
        out: &mut Vec<Pass>,
    ) -> Result<(), String> {
        let spec = PassSpec { feed: Feed::Closed, driver: self.w.driver, audit: false };
        let (mut n, mut timed) = (0, 0.0);
        while n < min || timed < budget {
            let p = self.pass(spec, rec)?;
            timed += p.timed_ns as f64 * 1e-9;
            n += 1;
            out.push(p);
        }
        Ok(())
    }
}

/// Largest worker's tuple count over the mean, for the sharded drivers.
fn shard_skew(rt: &Runtime, rest: &[(usize, &Tuple)]) -> Option<f64> {
    let mut counts: Vec<u64> = Vec::new();
    for (_, t) in rest {
        let s = rt.shard_of(t.key)?;
        if counts.len() <= s {
            counts.resize(s + 1, 0);
        }
        counts[s] += 1;
    }
    let max = *counts.iter().max()?;
    Some(max as f64 / (rest.len() as f64 / counts.len() as f64))
}

/// One metric as the final JSON line carries it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything a run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Human-readable report lines.
    pub lines: Vec<String>,
    pub correct: bool,
    /// Tuples fed, over every pass.
    pub attempted: u64,
    /// Tuples not accounted for, or all of them when a check failed.
    pub failed: u64,
    /// The metrics of the final JSON line.
    pub metrics: Vec<Metric>,
    /// The traced run's spans, as JSON.
    pub spans: Option<String>,
}

impl Outcome {
    fn say(&mut self, line: String) {
        self.lines.push(line);
    }

    /// Adds a metric to the JSON line and reports it.
    fn metric(&mut self, name: &str, value: f64, unit: &'static str, note: &str) {
        self.say(format!("  {name:<44} {value:>16.4} {unit}{note}"));
        self.metrics.push(Metric { name: name.to_string(), value, unit });
    }

    /// Reports a metric that the final JSON line does not carry (it
    /// applies to this workload only).
    fn extra(&mut self, name: &str, value: Option<f64>, unit: &str) {
        match value {
            Some(v) => self.say(format!("  {name:<44} {v:>16.4} {unit}")),
            None => self.say(format!("  {name:<44} {:>16} ({unit})", "n/a")),
        }
    }

    fn check(&mut self, what: &str, ok: bool) {
        self.say(format!("check {}: {what}", if ok { "ok" } else { "FAILED" }));
        self.correct &= ok;
    }

    /// The final line: `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The fastest pass's throughput. Every closed-loop pass of a run does
/// the same work on the same input; what varies is interference from the
/// rest of the machine (other tenants, clock changes), which only ever
/// slows a pass down. So the fastest pass is the steadiest estimate of the
/// program's own speed, as in the figure harnesses' `best_of`.
fn best_tuples_per_s(passes: &[Pass]) -> f64 {
    passes.iter().map(Pass::tuples_per_s).fold(f64::NAN, f64::max)
}

fn med(values: impl IntoIterator<Item = f64>) -> f64 {
    median(&mut values.into_iter().collect::<Vec<_>>()).unwrap_or(f64::NAN)
}

fn ratio(num: f64, den: f64) -> Option<f64> {
    (den > 0.0).then(|| num / den)
}

const MIB: f64 = 1024.0 * 1024.0;

/// Longest open-loop replay, in wall seconds: enough for a p99 resting on
/// hundreds of samples at either replay rate.
const OPEN_LOOP_S: f64 = 2.0;

/// Runs `w` on the input made from `seed` for about `seconds` of timed
/// feeding. With `traced`, reports the per-layer metrics instead of the
/// end-to-end ones.
pub fn run(w: &Workload, seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let input = w.input(seed);
    let s = Stream {
        w,
        input: &input,
        pairs: input.iter().map(|t| (0, t)).collect(),
        warm: w.warmup_len(&input),
    };
    let mut o = Outcome { correct: true, ..Default::default() };
    o.say(format!(
        "workload {} seed {seed}: {} tuples, warm-up prefix {} tuples, driver {:?}",
        w.name,
        input.len(),
        s.warm,
        w.driver
    ));
    // The open loop replays at most OPEN_LOOP_S of wall time; the closed
    // loop, which carries the JSON line's metrics, gets the rest.
    let open_s = w.open_loop_rate.map(|_| OPEN_LOOP_S.min(seconds / 4.0));
    let open_n = w.open_loop_rate.zip(open_s).map(|(r, s)| (r * s) as usize);
    let closed_budget = seconds - open_s.unwrap_or(0.0);

    // Untraced closed-loop passes: the end-to-end numbers, or the traced
    // run's baseline for the tracing overhead.
    let mut plain = Recorder::new(false);
    let mut closed = Vec::new();
    let budget = if traced { closed_budget / 2.0 } else { closed_budget };
    s.closed_passes(&mut plain, budget, if traced { 1 } else { 3 }, &mut closed)?;
    let mut traced_passes = Vec::new();
    let mut rec = Recorder::new(traced);
    if traced {
        pulse_api::set_observed(true);
        s.closed_passes(&mut rec, closed_budget / 2.0, 1, &mut traced_passes)?;
    }
    let open = match open_n {
        Some(n) => {
            let spec = PassSpec { feed: Feed::Open { n }, driver: w.driver, audit: false };
            Some(s.pass(spec, &mut rec)?)
        }
        None => None,
    };
    pulse_api::set_observed(false);

    // Correctness checks, with one untimed extra pass where the workload
    // has a reference to compare against.
    let full: Vec<&Pass> = closed.iter().chain(&traced_passes).collect();
    let fp = full[0].fp;
    o.check(
        &format!("{} closed-loop passes agree on the output fingerprint {}", full.len(), fp.hex()),
        fp.count > 0 && full.iter().all(|p| p.fp == fp),
    );
    let reference = match (w.name, w.driver) {
        ("nyse-macd", _) => {
            let spec = PassSpec { feed: Feed::Closed, driver: Driver::Single, audit: true };
            let p = s.pass(spec, &mut plain)?;
            let (checks, breaches) = p.totals.audit.unwrap_or((0, 0));
            o.check(
                &format!("audited pass (1 in 64 keys): {checks} comparisons, {breaches} breaches"),
                checks > 0 && breaches == 0,
            );
            Some(p)
        }
        (_, Driver::Sharded(_)) => {
            let spec = PassSpec { feed: Feed::Closed, driver: Driver::Single, audit: false };
            let p = s.pass(spec, &mut plain)?;
            o.check(
                &format!("single-runtime fingerprint {} equals the sharded one", p.fp.hex()),
                p.fp == fp,
            );
            Some(p)
        }
        _ => None,
    };
    let all: Vec<&Pass> = full.iter().copied().chain(&open).chain(&reference).collect();
    o.attempted = all.iter().map(|p| p.fed).sum();
    let lost: u64 = all
        .iter()
        .map(|p| p.fed.abs_diff(p.totals.stats.tuples_in) + p.totals.stats.model_errors)
        .sum();
    o.check(&format!("every tuple fed is counted in tuples_in ({lost} unaccounted)"), lost == 0);
    if !o.correct {
        o.failed = o.attempted;
    } else {
        o.failed = lost;
    }
    let failed_frac = o.failed as f64 / o.attempted as f64;

    let latency = open.as_ref().and_then(|p| p.replay.as_ref()).map(|r| {
        let mut us: Vec<f64> = r.latency_ns.iter().map(|&ns| ns as f64 * 1e-3).collect();
        (quantile(&mut us, 0.5), quantile(&mut us, 0.99), us.len())
    });
    if !traced {
        let note = format!(" (median of {} closed-loop passes)", closed.len());
        o.say("end-to-end:".to_string());
        let tps = format!(
            " (fastest of {} closed-loop passes; median {:.1})",
            closed.len(),
            med(closed.iter().map(Pass::tuples_per_s))
        );
        o.metric("tuples_per_s", best_tuples_per_s(&closed), "tuples/s", &tps);
        match latency {
            Some((Some(p50), Some(p99), n)) => {
                let rate = w.open_loop_rate.unwrap_or(0.0);
                o.say(format!("  {:<44} {p50:>16.4} us (open loop at {rate} tuples/s, {n} samples)", "latency_p50_us"));
                o.say(format!("  {:<44} {p99:>16.4} us ({n} samples)", "latency_p99_us"));
            }
            _ => o.say(
                "  latency_p50_us, latency_p99_us: not measured (this driver returns results only from finish())"
                    .to_string(),
            ),
        }
        let setups = closed.iter().chain(&open).map(|p| p.setup_s);
        let n_setup = closed.len() + open.iter().count();
        o.metric("setup_s", med(setups), "s", &format!(" (median of {n_setup} set-ups)"));
        o.metric(
            "allocs_per_tuple",
            med(closed.iter().map(|p| p.timed_allocs as f64 / p.timed_tuples as f64)),
            "count",
            &note,
        );
        o.metric(
            "peak_heap_mb",
            med(closed.iter().map(|p| p.peak_bytes as f64 / MIB)),
            "MiB",
            &note,
        );
        o.say(format!("  {:<44} {failed_frac:>16.4} ratio", "failed_frac"));
    } else {
        per_layer(&mut o, w, &closed, &traced_passes, open.as_ref(), &rec);
        o.spans = Some(rec.to_json());
    }
    if o.metrics.iter().any(|m| !m.value.is_finite()) {
        o.check("every reported metric is a finite number", false);
        o.failed = o.attempted;
    }
    Ok(o)
}

/// The traced run's per-layer metrics.
fn per_layer(
    o: &mut Outcome,
    w: &Workload,
    plain: &[Pass],
    traced: &[Pass],
    open: Option<&Pass>,
    rec: &Recorder,
) {
    let passes: Vec<&Pass> = traced.iter().chain(open).collect();
    let sum = |f: &dyn Fn(&Pass) -> u64| traced.iter().map(f).sum::<u64>() as f64;
    let tuples_in = sum(&|p| p.totals.stats.tuples_in);
    // Tuples on the violation path: every tuple validation did not absorb,
    // whether its bound was violated or its key had no live prediction
    // (unseen, or past the horizon).
    let violations = tuples_in - sum(&|p| p.totals.stats.suppressed);
    o.say(format!(
        "per-layer ({} untraced + {} traced closed-loop passes{}):",
        plain.len(),
        traced.len(),
        if open.is_some() { " + 1 traced open-loop pass" } else { "" }
    ));
    o.metric(
        "sql.parse_compile_us",
        med(passes.iter().map(|p| p.parse_ns as f64 * 1e-3)),
        "us",
        "",
    );
    o.metric("runtime.build_ms", med(passes.iter().map(|p| p.build_ns as f64 * 1e-6)), "ms", "");
    o.metric("runtime.warmup_s", med(passes.iter().map(|p| p.warmup_ns as f64 * 1e-9)), "s", "");
    let stat = |f: &dyn Fn(&Pass) -> u64| ratio(sum(f), tuples_in).unwrap_or(0.0);
    o.metric("runtime.suppressed_frac", stat(&|p| p.totals.stats.suppressed), "ratio", "");
    o.metric(
        "runtime.violations_per_ktuple",
        1e3 * stat(&|p| p.totals.stats.violations),
        "count",
        "",
    );
    o.metric("runtime.outputs_per_ktuple", 1e3 * stat(&|p| p.totals.stats.outputs), "count", "");
    o.metric("runtime.gc_ms", med(traced.iter().map(|p| p.gc_ns as f64 * 1e-6)), "ms", "");
    let keys = sum(&|p| p.totals.slack_keys + p.totals.accuracy_keys);
    o.metric(
        "validate.slack_key_frac",
        ratio(sum(&|p| p.totals.slack_keys), keys).unwrap_or(0.0),
        "ratio",
        "",
    );
    let mut phases = Phases::default();
    for p in traced {
        phases.absorb(&p.totals.phases);
    }
    for (name, ns) in phases.ns() {
        let v = ratio(ns as f64, violations).unwrap_or(0.0);
        o.metric(&format!("phase.{name}.ns_per_violation"), v, "ns", "");
    }
    let attributed = phases.violation_ns() as f64;
    let coverage = ratio(attributed, sum(&|p| p.viol_path_ns)).unwrap_or(1.0);
    o.metric("phase.coverage", coverage, "ratio", "");
    let (base, with) = (best_tuples_per_s(plain), best_tuples_per_s(traced));
    o.metric("trace.overhead_frac", 1.0 - with / base, "ratio", "");

    o.say(format!("per-layer, {} only (not in the JSON line):", w.name));
    let single = w.driver == Driver::Single;
    if w.rewrite {
        o.extra(
            "opt.partition_rewrite_us",
            Some(med(passes.iter().map(|p| p.rewrite_ns as f64 * 1e-3))),
            "us",
        );
    }
    if single {
        let mut sp = CallSplit::default();
        for p in traced {
            sp.add(&p.split);
        }
        // The quiet cost per tuple comes from quiet calls; when a workload
        // has none, from the profiler's sampled suppressed-path time.
        let (vns, vcount) = phases.validate_sample();
        let quiet_ns = ratio(sp.quiet_ns as f64, sp.quiet_tuples as f64)
            .or_else(|| ratio(vns as f64, vcount as f64));
        let quiet_allocs = ratio(sp.quiet_allocs as f64, sp.quiet_tuples as f64);
        let per_viol = |total: u64, quiet: Option<f64>| {
            ratio(total as f64 - quiet.unwrap_or(0.0) * sp.viol_tuples as f64, sp.violations as f64)
        };
        o.extra("runtime.quiet_ns_per_tuple", quiet_ns, "ns");
        o.extra("runtime.ns_per_violation", per_viol(sp.viol_ns, quiet_ns), "ns");
        o.extra("runtime.allocs_per_quiet_tuple", quiet_allocs, "count");
        o.extra("runtime.allocs_per_violation", per_viol(sp.viol_allocs, quiet_allocs), "count");
        o.say(format!(
            "    ({} quiet calls' tuples, {} tuples in calls with {} violations)",
            sp.quiet_tuples, sp.viol_tuples, sp.violations
        ));
        if let Some(last) = traced.last() {
            for n in &last.totals.nodes {
                let st = last.totals.stats;
                let v = (st.tuples_in - st.suppressed) as f64;
                o.extra(
                    &format!("cops.{}.systems_solved_per_violation", n.name),
                    ratio(n.systems_solved as f64, v),
                    "count",
                );
                o.extra(
                    &format!("cops.{}.comparisons_per_violation", n.name),
                    ratio(n.comparisons as f64, v),
                    "count",
                );
            }
            o.extra(
                "lineage.resident_segments",
                last.totals.lineage_resident.map(|n| n as f64),
                "count",
            );
        }
    }
    if let Some(r) = open.and_then(|p| p.replay.as_ref()) {
        let mut calls: Vec<f64> = r.call_ns.iter().map(|&ns| ns as f64 * 1e-3).collect();
        o.extra("runtime.call_us_p50", quantile(&mut calls, 0.5), "us");
        o.extra("runtime.call_us_p99", quantile(&mut calls, 0.99), "us");
        let busy: u64 = r.call_ns.iter().sum();
        o.extra("runtime.busy_frac", ratio(busy as f64, r.wall_ns as f64), "ratio");
        let mut late: Vec<f64> = r.late_ns.iter().map(|&ns| ns as f64 * 1e-6).collect();
        o.extra("loadgen.late_ms_p99", quantile(&mut late, 0.99), "ms");
        o.say(format!(
            "    ({} calls, {} tuples in the open loop)",
            r.call_ns.len(),
            r.late_ns.len()
        ));
    }
    let route_ns = sum(&|p| p.call_ns.iter().sum());
    let routed = sum(&|p| p.timed_tuples);
    let finish_ms = med(traced.iter().map(|p| p.finish_ns as f64 * 1e-6));
    match w.driver {
        Driver::Sharded(n) => {
            o.extra("shard.route_ns_per_tuple", ratio(route_ns, routed), "ns");
            let mut calls: Vec<f64> =
                traced.iter().flat_map(|p| p.call_ns.iter().map(|&ns| ns as f64 * 1e-3)).collect();
            o.extra("shard.route_call_us_p99", quantile(&mut calls, 0.99), "us");
            let depth = traced.iter().map(|p| p.depth_sum).sum::<f64>();
            let samples = traced.iter().map(|p| p.depth_samples).sum::<u64>();
            o.extra("shard.queue_depth_mean", ratio(depth, samples as f64), "batches");
            o.extra("shard.key_skew", traced.last().and_then(|p| p.key_skew), "ratio");
            o.extra("shard.finish_ms", Some(finish_ms), "ms");
            o.say(format!("    ({n} shards; the queue holds at most 4 batches)"));
        }
        Driver::Hybrid(_) => {
            o.extra("hybrid.route_ns_per_tuple", ratio(route_ns, routed), "ns");
            o.extra("hybrid.finish_ms", Some(finish_ms), "ms");
            let merged = sum(&|p| p.fp.count);
            o.extra("hybrid.merge_outputs_per_ktuple", ratio(1e3 * merged, tuples_in), "count");
        }
        Driver::Single => {}
    }
    o.say("self time by span (all traced passes):".to_string());
    for (name, (n, total, own)) in rec.self_times() {
        o.say(format!(
            "  {name:<24} {n:>8} spans {:>12.3} ms total {:>12.3} ms self",
            total as f64 * 1e-6,
            own as f64 * 1e-6
        ));
    }
}
