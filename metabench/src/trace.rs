//! The benchmark's own span recorder.
//!
//! Spans are opened from the benchmark's code around calls into each
//! layer's public functions; the program itself is not touched. Every
//! span carries a name, a start and end on one monotonic clock, the span
//! that was open on the same thread when it started (or an explicit
//! parent for spans opened on client threads), and the run id. Records
//! stay in memory and are written out once, when the run ends.
//!
//! A disabled tracer (untraced runs) records nothing: `span` then costs
//! one branch.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRecord {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    enabled: bool,
    run_id: String,
    epoch: Instant,
    next_id: AtomicU64,
    records: Mutex<Vec<SpanRecord>>,
}

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Ends its span when dropped.
pub struct Guard<'a> {
    tracer: &'a Tracer,
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start_ns: u64,
}

impl Tracer {
    pub fn new(enabled: bool, run_id: String) -> Tracer {
        Tracer {
            enabled,
            run_id,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            records: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under this thread's innermost open span.
    pub fn span(&self, name: &'static str) -> Option<Guard<'_>> {
        if !self.enabled {
            return None;
        }
        let parent = OPEN.with(|s| s.borrow().last().copied());
        Some(self.open(name, parent))
    }

    /// Opens a span under an explicit parent (a span of another thread).
    pub fn span_under(&self, name: &'static str, parent: Option<u64>) -> Option<Guard<'_>> {
        if !self.enabled {
            return None;
        }
        Some(self.open(name, parent))
    }

    fn open(&self, name: &'static str, parent: Option<u64>) -> Guard<'_> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        OPEN.with(|s| s.borrow_mut().push(id));
        Guard {
            tracer: self,
            id,
            parent,
            name,
            start_ns: self.now_ns(),
        }
    }

    /// The id of this thread's innermost open span.
    pub fn current(&self) -> Option<u64> {
        OPEN.with(|s| s.borrow().last().copied())
    }

    pub fn records(&self) -> Vec<SpanRecord> {
        self.records
            .lock()
            .expect("a thread panicked while recording a span")
            .clone()
    }

    /// Every record as one JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for r in self.records() {
            let parent = r.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"run\":\"{}\",\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                self.run_id, r.id, parent, r.name, r.start_ns, r.end_ns
            );
        }
        out
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let end_ns = self.tracer.now_ns();
        OPEN.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|&id| id == self.id) {
                s.remove(pos);
            }
        });
        // A poisoned record list has already failed the run; dropping a
        // span must not panic on top of it.
        if let Ok(mut records) = self.tracer.records.lock() {
            records.push(SpanRecord {
                id: self.id,
                parent: self.parent,
                name: self.name,
                start_ns: self.start_ns,
                end_ns,
            });
        }
    }
}

/// Length of the union of `[start, end)` intervals.
fn union_ns(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Per-name aggregate over a set of records.
#[derive(Debug, Clone, Default)]
pub struct LayerTime {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Indexed view of a finished trace.
pub struct Analysis {
    records: Vec<SpanRecord>,
    children: BTreeMap<u64, Vec<usize>>,
}

impl Analysis {
    pub fn new(records: Vec<SpanRecord>) -> Analysis {
        let mut children: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        for (i, r) in records.iter().enumerate() {
            if let Some(p) = r.parent {
                children.entry(p).or_default().push(i);
            }
        }
        Analysis { records, children }
    }

    /// The part of `r`'s interval its children cover (concurrent children
    /// counted once).
    pub fn covered_ns(&self, r: &SpanRecord) -> u64 {
        let kids = self.children.get(&r.id).map_or(&[][..], |v| v.as_slice());
        union_ns(
            kids.iter()
                .map(|&i| {
                    let k = &self.records[i];
                    (k.start_ns.max(r.start_ns), k.end_ns.min(r.end_ns))
                })
                .filter(|(s, e)| e > s)
                .collect(),
        )
    }

    /// A span's self time: its duration minus what its children cover.
    pub fn self_ns(&self, r: &SpanRecord) -> u64 {
        r.dur_ns().saturating_sub(self.covered_ns(r))
    }

    pub fn named(&self, name: &str) -> impl Iterator<Item = &SpanRecord> + '_ {
        let name = name.to_string();
        self.records.iter().filter(move |r| r.name == name)
    }

    /// The records at or below any span called `root`.
    pub fn within(&self, root: &str) -> Analysis {
        let by_id: BTreeMap<u64, &SpanRecord> = self.records.iter().map(|r| (r.id, r)).collect();
        let inside = |r: &SpanRecord| {
            let mut cur = Some(r);
            while let Some(c) = cur {
                if c.name == root {
                    return true;
                }
                cur = c.parent.and_then(|p| by_id.get(&p).copied());
            }
            false
        };
        Analysis::new(self.records.iter().filter(|r| inside(r)).cloned().collect())
    }

    /// Calls, total and self time per span name.
    pub fn by_name(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for r in &self.records {
            let t = out.entry(r.name).or_default();
            t.calls += 1;
            t.total_ns += r.dur_ns();
            t.self_ns += self.self_ns(r);
        }
        out
    }

    /// Mean duration in seconds of the spans called `name` (0 if none).
    pub fn mean_s(&self, name: &str) -> f64 {
        let (n, sum) = self
            .named(name)
            .fold((0u64, 0u64), |(n, s), r| (n + 1, s + r.dur_ns()));
        if n == 0 {
            0.0
        } else {
            sum as f64 / n as f64 / 1e9
        }
    }

    /// Smallest share of a container span (any span called `name`) that
    /// its children cover, with the container's total duration.
    pub fn min_coverage(&self, name: &str) -> Option<(f64, u64)> {
        let mut worst: Option<(f64, u64)> = None;
        for r in self.named(name) {
            if r.dur_ns() == 0 {
                continue;
            }
            let share = self.covered_ns(r) as f64 / r.dur_ns() as f64;
            if worst.is_none_or(|(w, _)| share < w) {
                worst = Some((share, r.dur_ns()));
            }
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps_once() {
        assert_eq!(union_ns(vec![(0, 10), (5, 15), (20, 30)]), 25);
        assert_eq!(union_ns(vec![]), 0);
    }

    #[test]
    fn self_time_excludes_children() {
        let t = Tracer::new(true, "t".to_string());
        {
            let _outer = t.span("outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            let _inner = t.span("inner");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let a = Analysis::new(t.records());
        let outer = a.named("outer").next().unwrap().clone();
        let inner = a.named("inner").next().unwrap().clone();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(a.self_ns(&outer) + inner.dur_ns(), outer.dur_ns());
    }
}
