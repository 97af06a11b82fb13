//! In-memory spans for the traced run, recorded around the benchmark's
//! calls into Pulse (never inside the program) and written out once, when
//! the benchmark ends.

use std::collections::BTreeMap;
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    /// ns since the recorder was created.
    start: u64,
    end: u64,
    id: u32,
    /// The enclosing span, if any.
    parent: Option<u32>,
    /// The pass (one runtime, set up and fed) the span belongs to.
    run: u32,
}

/// Records spans with a stack of open ones. A disabled recorder records
/// nothing, so untraced passes run the same code at no cost.
pub struct Recorder {
    pub enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    run: u32,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder { enabled, origin: Instant::now(), spans: Vec::new(), open: Vec::new(), run: 0 }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Starts the spans of a new pass.
    pub fn next_run(&mut self) {
        self.run += 1;
    }

    /// Opens a span under the innermost open one; close it with [`Self::close`].
    pub fn open(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let id = self.spans.len() as u32;
        let start = self.ns(Instant::now());
        let parent = self.open.last().copied();
        self.spans.push(Span { name, start, end: start, id, parent, run: self.run });
        self.open.push(id);
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        if !self.enabled {
            return;
        }
        let id = self.open.pop().expect("close matches an open span");
        self.spans[id as usize].end = self.ns(Instant::now());
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.open(name);
        let out = f();
        self.close();
        out
    }

    /// Adds a finished span `[start, end)` under the innermost open one.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let id = self.spans.len() as u32;
        let (start, end) = (self.ns(start), self.ns(end));
        let parent = self.open.last().copied();
        self.spans.push(Span { name, start, end, id, parent, run: self.run });
    }

    /// Per span name: (spans, total ns, self ns). A span's self time is
    /// its duration minus the part of it its children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p as usize].push((s.start, s.end));
            }
        }
        let mut out = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(children.iter_mut()) {
            let total = s.end - s.start;
            let covered = covered_ns(kids, s.start, s.end);
            let e = out.entry(s.name).or_insert((0, 0, 0));
            e.0 += 1;
            e.1 += total;
            e.2 += total - covered;
        }
        out
    }

    /// The spans as a JSON array, one object per line.
    pub fn to_json(&self) -> String {
        let lines: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"id\":{},\"parent\":{},\"run\":{}}}",
                    s.name, s.start, s.end, s.id, parent, s.run
                )
            })
            .collect();
        format!("[\n{}\n]\n", lines.join(",\n"))
    }
}

/// ns of `[lo, hi)` covered by the union of `intervals` (sorted in place).
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut covered, mut reach) = (0, lo);
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Overlapping and nested children count once.
        let mut kids = vec![(30, 50), (10, 20), (15, 25), (45, 60), (90, 120)];
        assert_eq!(covered_ns(&mut kids, 0, 100), 15 + 30 + 10);
    }

    #[test]
    fn spans_nest_and_attribute_self_time() {
        let mut r = Recorder::new(true);
        r.next_run();
        r.span("outer", || std::thread::sleep(std::time::Duration::from_millis(2)));
        r.open("outer");
        let t = Instant::now();
        r.record("inner", t, t + std::time::Duration::from_millis(1));
        r.close();
        let s = &r.spans;
        assert_eq!(s.len(), 3);
        assert_eq!((s[2].parent, s[2].run), (Some(1), 1));
        let times = r.self_times();
        let (n, total, own) = times["outer"];
        assert_eq!(n, 2);
        assert!(total >= 2_000_000 && own <= total);
        assert_eq!(times["inner"].0, 1);
        assert!(r.to_json().contains("\"name\":\"inner\""));
        let mut off = Recorder::new(false);
        off.span("outer", || ());
        assert!(off.spans.is_empty());
    }
}
