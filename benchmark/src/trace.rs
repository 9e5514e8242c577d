//! In-memory span recorder for the traced run.
//!
//! One span per public call into a layer: name, start, end, parent span
//! and the cell (or lint pass) it belongs to. Spans stay in memory until
//! the run ends; [`Tracer::write_jsonl`] writes them out on request. A
//! span's self time is its duration minus the time its children cover;
//! the replay is single-threaded, so children never overlap.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    cell: u32,
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    stack: Vec<u32>,
    cells: Vec<String>,
}

/// Records nested spans. Shared by reference so that closures handed to
/// the program (the `write_estimated` rate estimate) can record too.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    inner: RefCell<Inner>,
}

/// Self time and call count of every span with one name.
#[derive(Clone, Copy, Debug, Default)]
pub struct Agg {
    pub self_ns: u64,
    pub calls: u64,
}

impl Agg {
    pub fn self_ms(self) -> f64 {
        self.self_ns as f64 / 1e6
    }

    /// Mean self time per call, in `unit_ns` nanoseconds (0 without calls).
    pub fn mean(self, unit_ns: f64) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.calls as f64 / unit_ns
        }
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { on: true, epoch: Instant::now(), inner: RefCell::new(Inner::default()) }
    }

    /// A recorder that records nothing: the replay's untraced baseline.
    pub fn off() -> Tracer {
        Tracer { on: false, ..Tracer::new() }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts a new cell (or lint pass): later spans carry its label.
    pub fn begin_cell(&self, label: String) {
        if !self.on {
            return;
        }
        self.inner.borrow_mut().cells.push(label);
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let idx = {
            let mut inner = self.inner.borrow_mut();
            let idx = inner.spans.len() as u32;
            let parent = inner.stack.last().copied().unwrap_or(NO_PARENT);
            let cell = inner.cells.len().saturating_sub(1) as u32;
            inner.spans.push(Span { name, start_ns: self.now_ns(), end_ns: 0, parent, cell });
            inner.stack.push(idx);
            idx
        };
        let out = f();
        let end = self.now_ns();
        let mut inner = self.inner.borrow_mut();
        inner.stack.pop();
        inner.spans[idx as usize].end_ns = end;
        out
    }

    /// Self time and calls per span name over everything recorded.
    pub fn aggregate(&self) -> BTreeMap<&'static str, Agg> {
        let inner = self.inner.borrow();
        let mut child_ns = vec![0u64; inner.spans.len()];
        for s in &inner.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
        for (s, child) in inner.spans.iter().zip(child_ns) {
            let a = out.entry(s.name).or_default();
            a.self_ns += (s.end_ns - s.start_ns).saturating_sub(child);
            a.calls += 1;
        }
        out
    }

    /// Writes one JSON object per span, in start order.
    pub fn write_jsonl(&self, path: &str) -> std::io::Result<()> {
        let inner = self.inner.borrow();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in inner.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT { -1 } else { i64::from(s.parent) };
            let cell = inner.cells.get(s.cell as usize).map_or("", String::as_str);
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"cell\": \"{cell}\"}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
