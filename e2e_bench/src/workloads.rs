//! The four workloads: inputs made from the seed, the query text, and the
//! runtime settings. Each one stresses one layer and leaves another nearly
//! idle; README.md records why each was chosen.

use crate::pulse_api::{self, AuditCalibration, Driver, Settings, Tuple};

/// NYSE stream: symbols, aggregate trades per stream-second, and length.
const NYSE_SYMBOLS: usize = 1_000;
const NYSE_RATE: f64 = 3_000.0;
const NYSE_SECS: f64 = 90.0;

/// Moving objects: count, sampling interval and length. 10k keys keep the
/// validator's per-key state well out of cache, as with a real fleet.
const OBJECTS: usize = 1_000;
const SAMPLE_DT: f64 = 0.1;
const MOVING_SECS: f64 = 120.0;

/// MACD over a 5 s and a 20 s moving average (advance 2 s), joined on
/// symbol within 2 s.
const MACD_SQL: &str = "select symbol, s.ap - l.ap as diff \
     from (select symbol, avg(price) as ap from trades [size 5 advance 2]) as s \
     join (select symbol, avg(price) as ap from trades [size 20 advance 2]) as l \
     on (s.symbol = l.symbol) within 2 \
     where s.ap > l.ap";

/// Fig. 5i's position filter, with the moving objects' MODEL clause.
const FILTER_SQL: &str = "select * from objects \
     model x = x + vx * t, y = y + vy * t \
     where x < 0 \
     error within 1 %";

/// A global (ungrouped) minimum: not key-partitionable, so it runs as
/// sharded per-key partial envelopes plus a serial merge stage.
const GLOBAL_MIN_SQL: &str = "select min(price) as lo from trades [size 5 advance 2]";

/// One benchmark workload.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub sql: &'static str,
    pub driver: Driver,
    /// Whether the query goes through the partition rewrite first.
    pub rewrite: bool,
    pub horizon: f64,
    /// Absolute accuracy bound; `None` takes the query's `ERROR WITHIN`
    /// fraction of the input's mean |first attribute|.
    pub bound: Option<f64>,
    /// Longest window in the query, in stream seconds (0 without one).
    pub longest_window: f64,
    /// Open-loop replay rate in tuples per wall second; `None` for the
    /// drivers that return results only at `finish()`.
    pub open_loop_rate: Option<f64>,
}

pub const NAMES: [&str; 4] =
    ["nyse-macd", "nyse-macd-sharded", "moving-filter", "nyse-globalmin-hybrid"];

/// Shards for the sharded drivers: one per available core.
fn shards() -> usize {
    std::thread::available_parallelism().map_or(2, |n| n.get())
}

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        let macd = Workload {
            name: "nyse-macd",
            sql: MACD_SQL,
            driver: Driver::Single,
            rewrite: false,
            horizon: 5.0,
            bound: Some(0.05),
            longest_window: 20.0,
            open_loop_rate: Some(30_000.0),
        };
        Some(match name {
            "nyse-macd" => macd,
            "nyse-macd-sharded" => Workload {
                name: "nyse-macd-sharded",
                driver: Driver::Sharded(shards()),
                open_loop_rate: None,
                ..macd
            },
            "moving-filter" => Workload {
                name: "moving-filter",
                sql: FILTER_SQL,
                horizon: 10.0,
                bound: None,
                longest_window: 0.0,
                open_loop_rate: Some(2_500_000.0),
                ..macd
            },
            "nyse-globalmin-hybrid" => Workload {
                name: "nyse-globalmin-hybrid",
                sql: GLOBAL_MIN_SQL,
                driver: Driver::Hybrid(shards()),
                rewrite: true,
                longest_window: 5.0,
                open_loop_rate: None,
                ..macd
            },
            _ => return None,
        })
    }

    /// Whether the workload reads the NYSE stream (else moving objects).
    fn is_nyse(&self) -> bool {
        self.name.starts_with("nyse")
    }

    /// The input stream for `seed`: the same seed gives the same tuples.
    pub fn input(&self, seed: u64) -> Vec<Tuple> {
        if self.is_nyse() {
            pulse_api::nyse_stream(NYSE_SYMBOLS, NYSE_RATE, 0.002, seed, NYSE_SECS)
        } else {
            pulse_api::moving_stream(OBJECTS, SAMPLE_DT, 10.0, 0.05, seed, MOVING_SECS)
        }
    }

    /// Tuples per stream-second of the input.
    pub fn stream_rate(&self) -> f64 {
        if self.is_nyse() {
            NYSE_RATE
        } else {
            OBJECTS as f64 / SAMPLE_DT
        }
    }

    /// Runtime settings for this input (auditing as requested).
    pub fn settings(&self, input: &[Tuple], error_within: Option<f64>, audit: bool) -> Settings {
        let bound = self.bound.unwrap_or_else(|| {
            let mean_abs =
                input.iter().map(|t| t.values[0].abs()).sum::<f64>() / input.len() as f64;
            error_within.unwrap_or(0.01) * mean_abs
        });
        // NYSE calibration: prices start in 20..200 with per-second drift
        // ≤ 0.1% of price and tick noise ≤ 0.2% of price; each symbol
        // trades once per symbols/rate seconds.
        let calibration = AuditCalibration {
            noise: 0.5,
            max_slope: 5.0,
            sample_dt: NYSE_SYMBOLS as f64 / NYSE_RATE,
            max_abs: 210.0,
        };
        Settings {
            horizon: self.horizon,
            bound,
            audit: (audit && self.is_nyse()).then_some((64, calibration)),
        }
    }

    /// Stream seconds of lineage a run keeps: `gc_before(now − lag)`.
    pub fn gc_lag(&self) -> f64 {
        10.0 * self.horizon
    }

    /// Length of the warm-up prefix: every key has been seen, so every key
    /// has a model, and the longest window has closed once.
    pub fn warmup_len(&self, input: &[Tuple]) -> usize {
        let mut seen = std::collections::HashSet::new();
        let all_keys = input.iter().map(|t| t.key).collect::<std::collections::HashSet<_>>().len();
        let keys_done = input
            .iter()
            .position(|t| seen.insert(t.key) && seen.len() == all_keys)
            .map_or(input.len(), |i| i + 1);
        let window_done = match self.longest_window {
            0.0 => 0,
            w => input.iter().position(|t| t.ts > w).map_or(input.len(), |i| i + 1),
        };
        keys_done.max(window_done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_seed() {
        for name in NAMES {
            let w = Workload::by_name(name).unwrap();
            let (a, b, c) = (w.input(3), w.input(3), w.input(4));
            assert!(!a.is_empty());
            assert_eq!(a, b, "{name}: same seed, same tuples");
            assert_ne!(a, c, "{name}: another seed, other tuples");
        }
    }

    #[test]
    fn warmup_covers_keys_and_the_longest_window() {
        let w = Workload::by_name("nyse-macd").unwrap();
        let input = w.input(1);
        let n = w.warmup_len(&input);
        assert!(input[n - 1].ts > 20.0 && input[n - 2].ts <= 20.0);
        let f = Workload::by_name("moving-filter").unwrap();
        let input = f.input(1);
        // No window: one sample of every object.
        assert_eq!(f.warmup_len(&input), OBJECTS);
    }
}
