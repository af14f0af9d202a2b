//! In-memory spans recorded around the benchmark's calls into the
//! simulator's public functions.
//!
//! Each thread keeps its own buffer; [`span`] opens a span whose parent is
//! the innermost span still open on that thread, and the returned guard
//! closes it. With tracing off (the default, and the mode every end-to-end
//! number is measured in) a span costs one thread-local flag read.
//! [`take`] drains the thread's spans; [`self_times`] turns them into
//! per-layer self times.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed (or still open, `end_ns == 0`) span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `cluster.tick_sample`.
    pub name: &'static str,
    /// Nanoseconds since the thread's trace origin.
    pub start_ns: u64,
    /// Nanoseconds since the thread's trace origin.
    pub end_ns: u64,
    /// Index of the enclosing span in the same buffer.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

struct Buffer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static BUFFER: RefCell<Buffer> = RefCell::new(Buffer {
        origin: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
    });
}

/// Turns span recording on or off for the calling thread.
pub fn set_enabled(on: bool) {
    ENABLED.with(|e| e.set(on));
}

/// True when the calling thread records spans.
pub fn enabled() -> bool {
    ENABLED.with(Cell::get)
}

/// Closes its span when dropped.
#[must_use = "the span closes when the guard drops"]
pub struct Guard(Option<usize>);

/// Opens a span named `name` on the calling thread.
pub fn span(name: &'static str) -> Guard {
    if !enabled() {
        return Guard(None);
    }
    BUFFER.with(|b| {
        let mut b = b.borrow_mut();
        let start_ns = b.origin.elapsed().as_nanos() as u64;
        let parent = b.open.last().copied();
        let idx = b.spans.len();
        b.spans.push(Span { name, start_ns, end_ns: 0, parent });
        b.open.push(idx);
        Guard(Some(idx))
    })
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(idx) = self.0 {
            BUFFER.with(|b| {
                let mut b = b.borrow_mut();
                let end_ns = b.origin.elapsed().as_nanos() as u64;
                b.spans[idx].end_ns = end_ns;
                if b.open.last() == Some(&idx) {
                    b.open.pop();
                }
            });
        }
    }
}

/// Drains the calling thread's recorded spans.
pub fn take() -> Vec<Span> {
    BUFFER.with(|b| {
        let mut b = b.borrow_mut();
        b.open.clear();
        std::mem::take(&mut b.spans)
    })
}

/// Appends spans drained by one [`take`] to `dst`, keeping parent links.
pub fn append(dst: &mut Vec<Span>, src: Vec<Span>) {
    let offset = dst.len();
    dst.extend(src.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + offset);
        s
    }));
}

/// Per-name totals: `(count, total ns, self ns)`, where a span's self time
/// is its duration minus the durations of its direct children.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, child) in spans.iter().zip(&child_ns) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_ns();
        e.2 += s.dur_ns().saturating_sub(*child);
    }
    out
}

/// Self time in nanoseconds of every span below the `job` roots: the part
/// of the jobs' time some layer span accounts for.
pub fn layer_self_ns(spans: &[Span]) -> f64 {
    self_times(spans)
        .iter()
        .filter(|(name, _)| **name != "job")
        .map(|(_, (_, _, self_ns))| *self_ns as f64)
        .sum()
}

/// Durations in nanoseconds of every span named `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns() as f64).collect()
}

/// Self times in nanoseconds of every span named `name`.
pub fn self_durations(spans: &[Span], name: &str) -> Vec<f64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(&child_ns)
        .filter(|(s, _)| s.name == name)
        .map(|(s, c)| s.dur_ns().saturating_sub(*c) as f64)
        .collect()
}

/// Renders spans as JSON lines (`thread` distinguishes buffers merged from
/// several threads; `parent` indexes within the same thread's list).
pub fn to_jsonl(threads: &[Vec<Span>]) -> String {
    let mut out = String::new();
    for (t, spans) in threads.iter().enumerate() {
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"thread\":{t},\"id\":{i},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}\n",
                s.name, s.start_ns, s.end_ns
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let spans = vec![
            Span { name: "job", start_ns: 0, end_ns: 100, parent: None },
            Span { name: "a", start_ns: 10, end_ns: 40, parent: Some(0) },
            Span { name: "b", start_ns: 15, end_ns: 25, parent: Some(1) },
            Span { name: "a", start_ns: 50, end_ns: 60, parent: Some(0) },
        ];
        let t = self_times(&spans);
        assert_eq!(t["job"], (1, 100, 60));
        assert_eq!(t["a"], (2, 40, 30));
        assert_eq!(t["b"], (1, 10, 10));
        assert_eq!(self_durations(&spans, "a"), vec![20.0, 10.0]);
    }

    #[test]
    fn disabled_thread_records_nothing() {
        set_enabled(false);
        {
            let _g = span("x");
        }
        assert!(take().is_empty());
        set_enabled(true);
        {
            let _outer = span("outer");
            let _inner = span("inner");
        }
        set_enabled(false);
        let spans = take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
    }
}
