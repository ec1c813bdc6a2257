//! In-memory spans recorded around calls into the program's modules.
//!
//! A span has a name, a start and end (ns since the recorder was
//! made), the span that caused it, and the request it belongs to.
//! Spans stay in memory while the run measures and are written out as
//! JSON lines when it ends; a layer's self time is its duration minus
//! the part covered by its child spans.

use std::io::Write;
use std::time::Instant;

/// The benchmark's one clock read; every timing starts here.
pub fn now() -> Instant {
    // dpsd-allow(no-wallclock-in-core): measuring elapsed time is this program's job; no answer it checks depends on a clock
    Instant::now()
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans; disabled recorders time nothing and keep nothing.
pub struct Recorder {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            origin: now(),
            enabled,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span and returns its result.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.enabled {
            return f();
        }
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
        });
        out
    }

    /// Opens a span whose children are recorded before it closes;
    /// returns its index for [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, request: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, index: usize) {
        self.spans[index].end_ns = self.now_ns();
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another recorder's spans (e.g. one per client thread),
    /// re-basing their times and parent indices onto this recorder.
    pub fn absorb(&mut self, other: Recorder) {
        let shift = other.origin.duration_since(self.origin).as_nanos() as u64;
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            start_ns: s.start_ns + shift,
            end_ns: s.end_ns + shift,
            parent: s.parent.map(|p| p + base),
            ..s
        }));
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| s.duration_ns().saturating_sub(c))
            .collect()
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, self_ns)) in self.spans.iter().zip(self.self_times_ns()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"request\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
                s.name, s.request, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut r = Recorder::new(true);
        let root = r.open("root", 7, None);
        r.span("child", 7, Some(root), || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        r.close(root);
        let selfs = r.self_times_ns();
        let spans = r.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(selfs[0], spans[0].duration_ns() - spans[1].duration_ns());
        assert_eq!(selfs[1], spans[1].duration_ns());
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut r = Recorder::new(false);
        assert_eq!(r.span("x", 0, None, || 5), 5);
        assert!(r.spans().is_empty());
    }
}
