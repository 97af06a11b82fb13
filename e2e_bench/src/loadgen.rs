//! The open-loop driver: replays a stream at a fixed wall rate, a constant
//! speed-up of its own timestamps, whatever the system does meanwhile.
//!
//! Each loop iteration hands every due tuple (at most [`BATCH`]) to one
//! call. A tuple's latency runs from its due time to the return of the
//! call that took it, so a stall is charged to every tuple that fell due
//! while it lasted, not only to the one being processed.

use crate::pulse_api::BATCH;
use std::time::Instant;

/// What one replay measured.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    /// Per tuple, in feed order: call return minus due time, ns.
    pub latency_ns: Vec<u64>,
    /// Per tuple: call start minus due time, ns (how late the generator
    /// handed the tuple over).
    pub late_ns: Vec<u64>,
    /// Per call: duration, ns.
    pub call_ns: Vec<u64>,
    /// Wall time from the first due time to the last return, ns.
    pub wall_ns: u64,
}

/// Replays `items`, whose stream timestamps are `ts(item)`, at `speedup`×
/// stream time, calling `call` with each run of due items. Waits for the
/// next due time by spinning, so the schedule does not depend on the
/// scheduler's wake-up latency.
pub fn replay<T>(
    items: &[T],
    ts: impl Fn(&T) -> f64,
    speedup: f64,
    mut call: impl FnMut(&[T]),
) -> Replay {
    let n = items.len();
    let mut r = Replay {
        latency_ns: Vec::with_capacity(n),
        late_ns: Vec::with_capacity(n),
        ..Default::default()
    };
    let Some(first) = items.first() else { return r };
    let t0 = ts(first);
    let due_ns = |i: usize| ((ts(&items[i]) - t0) / speedup * 1e9) as u64;
    let start = Instant::now();
    let mut next = 0;
    while next < n {
        let mut now = start.elapsed().as_nanos() as u64;
        while due_ns(next) > now {
            std::hint::spin_loop();
            now = start.elapsed().as_nanos() as u64;
        }
        let mut end = next + 1;
        while end < n && end - next < BATCH && due_ns(end) <= now {
            end += 1;
        }
        call(&items[next..end]);
        let done = start.elapsed().as_nanos() as u64;
        r.call_ns.push(done - now);
        for i in next..end {
            let due = due_ns(i);
            r.latency_ns.push(done - due);
            r.late_ns.push(now - due);
        }
        r.wall_ns = done;
        next = end;
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn a_stall_is_charged_to_every_tuple_due_during_it() {
        // 2,000 tuples at 100k/s wall: one due every 10 µs, 20 ms in all.
        let items: Vec<f64> = (0..2_000).map(|i| i as f64 * 1e-5).collect();
        let stall = Duration::from_millis(5);
        let mut first = true;
        let mut stall_end_ns = 0u64;
        let start = Instant::now();
        let r = replay(
            &items,
            |t| *t,
            1.0,
            |_| {
                if std::mem::take(&mut first) {
                    std::thread::sleep(stall);
                    stall_end_ns = start.elapsed().as_nanos() as u64;
                }
            },
        );
        assert_eq!(r.latency_ns.len(), items.len());
        // `start` precedes the replay's own clock, so this end is late by
        // microseconds at most, never early: the 50 µs slack covers that.
        let stall_end_s = stall_end_ns as f64 * 1e-9;
        let mut charged = 0;
        for (i, &t) in items.iter().enumerate() {
            if t < stall_end_s {
                let owed = ((stall_end_s - t) * 1e9) as u64;
                assert!(
                    r.latency_ns[i] + 50_000 >= owed,
                    "tuple {i} due at {t}s charged {} ns, stall owed {owed} ns",
                    r.latency_ns[i]
                );
                assert!(r.late_ns[i] <= r.latency_ns[i]);
                charged += 1;
            }
        }
        // Every tuple due within the 5 ms stall waited for it, and the
        // backlog drained in calls of at most one batch.
        assert!(charged >= 500, "{charged} tuples fell due during the stall");
        assert!(r.call_ns.len() >= charged / BATCH);
    }

    #[test]
    fn an_idle_system_keeps_the_schedule() {
        let items: Vec<f64> = (0..200).map(|i| i as f64 * 1e-4).collect();
        let r = replay(&items, |t| *t, 10.0, |_| {});
        // 200 tuples 10 µs apart (after the 10× speed-up): ≈ 2 ms of wall.
        assert!(r.wall_ns >= 1_990_000, "{}", r.wall_ns);
        // Nine in ten tuples handed over within 1 ms of their due time (a
        // shared machine may preempt the spinning thread now and then).
        let mut late: Vec<f64> = r.late_ns.iter().map(|&l| l as f64).collect();
        assert!(crate::stats::quantile(&mut late, 0.9).unwrap() < 1e6);
    }
}
