//! A counting global allocator: every heap allocation and reallocation
//! made by any thread of the process bumps a counter, and live bytes are
//! tracked with a resettable high-water mark.
//!
//! Install it in a binary with
//! `#[global_allocator] static A: CountingAlloc = CountingAlloc;`.
//! The counters are process-wide, so readings taken around a call include
//! whatever other threads allocate meanwhile (the sharded workers, by
//! design).
//!
//! Counting must not serialize the threads it watches: one shared atomic
//! bumped ~60 times per tuple by every shard worker erased the sharded
//! driver's speed-up. So each thread counts into its own cache-line-sized
//! slot, and readers sum the slots. The high-water mark needs one global
//! live count; threads fold their net growth into it only once it passes
//! [`GRAIN`] bytes, so the mark is exact to within `GRAIN` per thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};

/// Forwards to the system allocator and counts.
pub struct CountingAlloc;

/// Net bytes a thread may allocate or free before it folds them into the
/// global live count behind the high-water mark.
pub const GRAIN: i64 = 64 * 1024;

const SLOTS: usize = 32;

#[repr(align(128))]
struct Slot {
    allocs: AtomicU64,
    bytes: AtomicU64,
    live: AtomicI64,
}

#[allow(clippy::declare_interior_mutable_const)]
const EMPTY: Slot =
    Slot { allocs: AtomicU64::new(0), bytes: AtomicU64::new(0), live: AtomicI64::new(0) };
static COUNTS: [Slot; SLOTS] = [EMPTY; SLOTS];
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);
/// Live bytes as folded in by the threads (lags the exact sum by less
/// than `GRAIN` per thread).
static FOLDED: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

thread_local! {
    // Const-initialized and without destructors, so reading them never
    // allocates and works at any point of a thread's life.
    static SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
    static UNFOLDED: Cell<i64> = const { Cell::new(0) };
}

fn slot() -> &'static Slot {
    let i = SLOT
        .try_with(|s| {
            if s.get() == usize::MAX {
                s.set(NEXT_SLOT.fetch_add(1, Ordering::Relaxed) % SLOTS);
            }
            s.get()
        })
        .unwrap_or(0);
    &COUNTS[i]
}

/// Records `delta` live bytes (negative when freed), counting a call when
/// `call` is set.
fn note(call: bool, requested: u64, delta: i64) {
    let s = slot();
    if call {
        s.allocs.fetch_add(1, Ordering::Relaxed);
        s.bytes.fetch_add(requested, Ordering::Relaxed);
    }
    s.live.fetch_add(delta, Ordering::Relaxed);
    let _ = UNFOLDED.try_with(|u| {
        let pending = u.get() + delta;
        if pending.abs() >= GRAIN {
            let live = FOLDED.fetch_add(pending, Ordering::Relaxed) + pending;
            PEAK.fetch_max(live, Ordering::Relaxed);
            u.set(0);
        } else {
            u.set(pending);
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are plain statistics
// and never influence what is allocated.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's guarantees for `layout` pass through as-is.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            note(true, layout.size() as u64, layout.size() as i64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            note(true, layout.size() as u64, layout.size() as i64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by this allocator (hence by `System`)
        // for `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        note(false, 0, -(layout.size() as i64));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller's guarantees for `ptr`, `layout` and
        // `new_size` pass through as-is.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            let delta = new_size as i64 - layout.size() as i64;
            note(true, delta.max(0) as u64, delta);
        }
        p
    }
}

/// A reading of the counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// Allocations plus reallocations so far.
    pub allocs: u64,
    /// Bytes requested by those calls (growth only for reallocations).
    pub bytes: u64,
    /// Bytes currently live.
    pub live: u64,
    /// Highest live byte count since the last [`reset_peak`] (to within
    /// [`GRAIN`] per thread).
    pub peak: u64,
}

/// Reads every counter.
pub fn snapshot() -> AllocSnapshot {
    let sum = |f: fn(&Slot) -> i64| COUNTS.iter().map(f).sum::<i64>();
    let live = sum(|s| s.live.load(Ordering::Relaxed)).max(0);
    AllocSnapshot {
        allocs: allocs(),
        bytes: sum(|s| s.bytes.load(Ordering::Relaxed) as i64) as u64,
        live: live as u64,
        peak: PEAK.load(Ordering::Relaxed).max(live) as u64,
    }
}

/// Allocations plus reallocations so far.
pub fn allocs() -> u64 {
    COUNTS.iter().map(|s| s.allocs.load(Ordering::Relaxed)).sum()
}

/// Restarts the high-water mark at the current live byte count.
pub fn reset_peak() {
    PEAK.store(FOLDED.load(Ordering::Relaxed), Ordering::Relaxed);
}
