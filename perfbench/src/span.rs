//! In-memory spans around the benchmark's calls into each layer.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call. `name` is `<layer>.<call>`; times are nanoseconds since
/// the tracer was made.
#[derive(Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    pub op: u32,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end - self.start
    }

    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Records spans when on; when off every call is a plain pass-through.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    op: u32,
    open: Vec<usize>,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            op: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span that may hold child spans; a new root starts a new op.
    pub fn begin(&mut self, name: &'static str) -> Option<usize> {
        if !self.on {
            return None;
        }
        if self.open.is_empty() {
            self.op += 1;
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.now(),
            end: 0,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(idx);
        Some(idx)
    }

    pub fn end(&mut self, idx: Option<usize>) {
        if let Some(idx) = idx {
            self.open.pop();
            self.spans[idx].end = self.now();
        }
    }

    /// Times `f` as a leaf span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let idx = self.begin(name);
        let out = f();
        self.end(idx);
        out
    }

    /// Id of the last op begun.
    pub fn op(&self) -> u32 {
        self.op
    }

    /// Self time of every span: its duration less the time its children
    /// cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.ns());
            }
        }
        own
    }

    /// Self time per layer over the spans of `ops`.
    pub fn layer_self_ns(&self, ops: &dyn Fn(u32) -> bool) -> BTreeMap<&'static str, u64> {
        let mut by_layer = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            if ops(s.op) {
                *by_layer.entry(s.layer()).or_insert(0) += own;
            }
        }
        by_layer
    }

    /// The spans as JSON lines, with op kinds from `kind_of`.
    pub fn jsonl(&self, kind_of: &dyn Fn(u32) -> String) -> String {
        let own = self.self_ns();
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"parent\":{parent},\"op\":{},\"kind\":\"{}\"}}",
                s.name,
                s.start,
                s.end,
                own[i],
                s.op,
                kind_of(s.op)
            );
        }
        out
    }
}
