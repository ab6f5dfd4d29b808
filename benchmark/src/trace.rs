//! In-memory spans around the harness's calls into each layer.
//!
//! A span is (name, start, end, parent span, request id, key); spans are
//! held in memory and written as JSON lines when the run ends. A layer's
//! self time is its span minus the part its child spans cover. Spans
//! wrap calls into *public* functions only - nothing inside the crates
//! is instrumented.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub struct Span {
    name: u16,
    pub parent: Option<u32>,
    /// Spans of one replayed request share this id.
    pub request: u32,
    /// Index of the workload key the request replays.
    pub key: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    epoch: Instant,
    names: Vec<String>,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            names: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn name_id(&mut self, name: &str) -> u16 {
        match self.names.iter().position(|n| n == name) {
            Some(i) => i as u16,
            None => {
                self.names.push(name.to_string());
                (self.names.len() - 1) as u16
            }
        }
    }

    pub fn name(&self, span: &Span) -> &str {
        &self.names[span.name as usize]
    }

    /// Every distinct span name recorded so far.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a root span.
    pub fn open_root(&mut self, name: &str, request: u32, key: u32) -> u32 {
        let id = self.push(name, None, request, key);
        // The clock is read last so bookkeeping stays outside the span.
        self.spans[id as usize].start_ns = self.now_ns();
        id
    }

    /// Opens a child span of `parent`, in the same request.
    pub fn open(&mut self, name: &str, parent: u32) -> u32 {
        let id = self.push_child(name, parent);
        self.spans[id as usize].start_ns = self.now_ns();
        id
    }

    fn push_child(&mut self, name: &str, parent: u32) -> u32 {
        let (request, key) = {
            let p = &self.spans[parent as usize];
            (p.request, p.key)
        };
        self.push(name, Some(parent), request, key)
    }

    fn push(&mut self, name: &str, parent: Option<u32>, request: u32, key: u32) -> u32 {
        let name = self.name_id(name);
        self.spans.push(Span {
            name,
            parent,
            request,
            key,
            start_ns: 0,
            end_ns: 0,
        });
        (self.spans.len() - 1) as u32
    }

    /// Runs `f` inside a child span of `parent`.
    pub fn child<T>(&mut self, name: &str, parent: u32, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Closes a span (clock read first).
    pub fn close(&mut self, id: u32) {
        let now = self.now_ns();
        self.spans[id as usize].end_ns = now;
    }

    /// Records a child whose duration the callee itself reported (the
    /// per-pass times in `Optimized::passes`), laid out from `start_ns`.
    pub fn reported(&mut self, name: &str, parent: u32, start_ns: u64, duration_ns: u64) {
        let id = self.push_child(name, parent) as usize;
        self.spans[id].start_ns = start_ns;
        self.spans[id].end_ns = start_ns + duration_ns;
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for span in &self.spans {
            if let Some(p) = span.parent {
                own[p as usize] = own[p as usize].saturating_sub(span.duration_ns());
            }
        }
        own
    }

    /// Writes one JSON object per span: `id`, `parent` (or null),
    /// `request`, `key` (the workload key's name), `name`, `start_ns`,
    /// `end_ns`, `self_ns`.
    pub fn write_jsonl(&self, path: &Path, key_names: &[&str]) -> std::io::Result<()> {
        let own = self.self_times_ns();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"parent\": {parent}, \"request\": {}, \"key\": \"{}\", \
                 \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}",
                span.request,
                key_names[span.key as usize],
                self.name(span),
                span.start_ns,
                span.end_ns,
                own[id]
            )?;
        }
        out.flush()
    }
}
