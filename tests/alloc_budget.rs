//! Allocation budget of the warm violation path.
//!
//! A counting global allocator tallies the heap allocations this test's
//! thread makes while a small MACD stream runs through
//! `PulseRuntime::on_pairs`. After a warm-up that closes the longest
//! window and grows every reused buffer, the allocations per violation
//! (tuples in minus tuples suppressed) must stay within the budget. The
//! count is deterministic for a given input, so the budget guards against
//! allocation regressions without timing jitter.
//!
//! Run with `cargo test --test alloc_budget -- --nocapture` to see the
//! measured figure.

use pulse::core::runtime::Predictor;
use pulse::core::{PulseRuntime, RuntimeConfig};
use pulse::sql::{parse_query, Catalog};
use pulse::workload::{nyse, NyseConfig, NyseGen};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Forwards to the system allocator, counting calls per thread.
struct CountingAlloc;

thread_local! {
    // Const-initialized and without a destructor, so touching it never
    // allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the `GlobalAlloc` contract holds exactly as it does for `System`; the
// counter neither allocates nor touches the memory handed out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// MACD over a 5 s and a 20 s moving average, joined on symbol.
const MACD_SQL: &str = "select symbol, s.ap - l.ap as diff \
     from (select symbol, avg(price) as ap from trades [size 5 advance 2]) as s \
     join (select symbol, avg(price) as ap from trades [size 20 advance 2]) as l \
     on (s.symbol = l.symbol) within 2 \
     where s.ap > l.ap";

/// Measured at 41.52 allocations per violation (120.85 before the
/// window-function kernels, register-once lineage and reused push and
/// inversion buffers); the budget leaves about 10% headroom.
const BUDGET_PER_VIOLATION: f64 = 45.5;

#[test]
fn warm_violation_path_stays_within_allocation_budget() {
    let catalog = Catalog::new().stream("trades", nyse::schema(), Some("symbol"));
    let q = parse_query(MACD_SQL, &catalog).expect("MACD parses");
    let horizon = 5.0;
    let mut rt = PulseRuntime::with_predictors(
        vec![Predictor::AdaptiveLinear(nyse::schema())],
        &q.plan,
        RuntimeConfig { horizon, bound: 0.05, ..Default::default() },
    )
    .expect("MACD compiles");
    // 40 symbols at 3 trades per symbol-second, as the benchmark's NYSE
    // workload, over 80 s of stream time.
    let trades = NyseGen::new(NyseConfig {
        symbols: 40,
        rate: 120.0,
        drift_duration: 2.0,
        tick_noise: 0.002,
        seed: 7,
    })
    .generate(80.0);
    let pairs: Vec<(usize, _)> = trades.iter().map(|t| (0, t)).collect();
    // Warm-up: the 20 s window closes and every buffer reaches its
    // working size.
    let warm = pairs.partition_point(|(_, t)| t.ts < 30.0);
    let feed = |rt: &mut PulseRuntime, chunk: &[(usize, &pulse::model::Tuple)]| {
        let outs = rt.on_pairs(chunk);
        let now = chunk.last().expect("non-empty chunk").1.ts;
        rt.gc_before(now - 10.0 * horizon);
        outs.len()
    };
    for chunk in pairs[..warm].chunks(256) {
        feed(&mut rt, chunk);
    }

    let before = rt.stats();
    let a0 = allocs();
    let mut outputs = 0;
    for chunk in pairs[warm..].chunks(256) {
        outputs += feed(&mut rt, chunk);
    }
    let spent = allocs() - a0;
    let after = rt.stats();

    let tuples = after.tuples_in - before.tuples_in;
    let violations = tuples - (after.suppressed - before.suppressed);
    assert!(violations > 1000, "too few violations to measure: {violations}");
    assert!(outputs > 0, "the stream produced no MACD output");
    let per_violation = spent as f64 / violations as f64;
    println!(
        "alloc budget: {spent} allocations over {tuples} tuples and {violations} violations \
         = {per_violation:.2} per violation (budget {BUDGET_PER_VIOLATION})"
    );
    assert!(
        per_violation <= BUDGET_PER_VIOLATION,
        "{per_violation:.2} allocations per violation exceeds the budget of \
         {BUDGET_PER_VIOLATION}"
    );
}
