//! The counting allocator, installed as this test binary's global
//! allocator. One test only: the counters are process-wide, and a second
//! test thread would allocate concurrently.

use pulse_e2e_bench::alloc::{self, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn with_capacity_registers_one_allocation_of_its_size() {
    let before = alloc::snapshot();
    let v: Vec<u64> = Vec::with_capacity(1000);
    let after = alloc::snapshot();
    assert_eq!(after.allocs - before.allocs, 1);
    assert_eq!(after.bytes - before.bytes, 8000);
    assert_eq!(after.live - before.live, 8000);
    assert!(after.peak >= after.live);
    drop(std::hint::black_box(v));
    assert_eq!(alloc::snapshot().live, before.live);
    alloc::reset_peak();
    let reset = alloc::snapshot();
    assert!(reset.peak >= reset.live && reset.peak < reset.live + alloc::GRAIN as u64);
}
