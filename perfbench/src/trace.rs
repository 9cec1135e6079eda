//! In-memory span recorder for the traced run. Spans are recorded only in
//! the benchmark's own code, around its calls into each layer; they are
//! written out once, when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span: a name, start and end (ns since the recorder was
/// made), the span that caused it, and the reclaim (or request) it
/// belongs to.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub reclaim: u32,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, reclaim: u32) -> usize {
        let now = self.now_ns();
        self.spans.push(Span { name, start_ns: now, end_ns: now, parent, reclaim });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Run `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        reclaim: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, reclaim);
        let out = f();
        self.close(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration of every span with this name, in ms.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans.iter().filter(|s| s.name == name).map(Span::ms).fold(0.0, |a, b| a + b)
    }

    /// Per span, the summed duration of its child spans, in ms. Children
    /// of one span run one after another, so their durations add up.
    fn child_ms(&self) -> Vec<f64> {
        let mut child_ms = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ms[p] += s.ms();
            }
        }
        child_ms
    }

    /// Summed self time of every span with this name, in ms: each span's
    /// duration minus the part its child spans cover.
    pub fn self_ms(&self, name: &str) -> f64 {
        let child_ms = self.child_ms();
        self.spans
            .iter()
            .zip(child_ms)
            .filter(|(s, _)| s.name == name)
            .map(|(s, c)| s.ms() - c)
            .fold(0.0, |a, b| a + b)
    }

    /// The lowest share, in %, of a `root`-named span's wall time that its
    /// child spans cover.
    pub fn min_child_coverage_pct(&self, root: &str) -> f64 {
        let child_ms = self.child_ms();
        self.spans
            .iter()
            .zip(child_ms)
            .filter(|(s, _)| s.name == root && s.end_ns > s.start_ns)
            .map(|(s, c)| 100.0 * c / s.ms())
            .fold(f64::INFINITY, f64::min)
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"reclaim\":{}}}",
                s.name, s.start_ns, s.end_ns, s.reclaim
            )?;
        }
        out.flush()
    }
}
