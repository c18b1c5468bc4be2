//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into the program's
//! public functions: name, start, end, parent span and job id. They stay in
//! memory until the run ends and are then written out as JSON lines.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's origin.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `routing.route`.
    pub name: &'static str,
    /// Start, ns since origin.
    pub start: u64,
    /// End, ns since origin.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Job the span belongs to.
    pub job: u32,
}

impl Span {
    /// Duration in ns.
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

/// Records spans as a stack: a span opened while another is open becomes
/// its child.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// An empty recorder.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span.
    pub fn begin(&mut self, name: &'static str, job: u32) -> usize {
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            job,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn end(&mut self, id: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end = self.now();
    }

    /// Runs `f` inside a leaf span named `name`.
    pub fn leaf<T>(&mut self, name: &'static str, job: u32, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, job);
        let out = f();
        self.end(id);
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Duration in ns of span `id`.
    pub fn duration(&self, id: usize) -> u64 {
        self.spans[id].duration()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"job\":{}}}",
                s.name, s.start, s.end, s.job
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part its children cover
/// (children are sequential and nested, so that part is their sum).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child_sum = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_sum[p] += s.duration();
        }
    }
    spans
        .iter()
        .zip(&child_sum)
        .map(|(s, &c)| s.duration() - c)
        .collect()
}

/// Per-stage attribution of the job spans named `root`.
#[derive(Debug, Default)]
pub struct Attribution {
    /// Total self time (ns) per span name, root spans excluded.
    pub stage_self_ns: BTreeMap<&'static str, u64>,
    /// Total self time (ns) of the root spans: time inside a job that no
    /// stage span covers.
    pub unattributed_ns: u64,
    /// Total duration (ns) of the root spans.
    pub job_ns: u64,
    /// Jobs whose stage self times plus remainder did not sum to the job
    /// span (always empty unless the recorder is broken).
    pub unbalanced_jobs: Vec<u32>,
}

/// Attributes every root span's time to the stages beneath it.
pub fn attribute(spans: &[Span], root: &str) -> Attribution {
    let selfs = self_times(spans);
    // Index of the root span each span belongs to.
    let mut root_of: Vec<Option<usize>> = vec![None; spans.len()];
    let mut per_root_sum: BTreeMap<usize, u64> = BTreeMap::new();
    let mut out = Attribution::default();
    for (i, s) in spans.iter().enumerate() {
        root_of[i] = if s.name == root {
            Some(i)
        } else {
            s.parent.and_then(|p| root_of[p])
        };
        let Some(r) = root_of[i] else { continue };
        *per_root_sum.entry(r).or_default() += selfs[i];
        if i == r {
            out.unattributed_ns += selfs[i];
            out.job_ns += s.duration();
        } else {
            *out.stage_self_ns.entry(s.name).or_default() += selfs[i];
        }
    }
    for (&r, &sum) in &per_root_sum {
        if sum != spans[r].duration() {
            out.unbalanced_jobs.push(spans[r].job);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_sum_to_the_job_span() {
        let mut t = Tracer::new();
        let job = t.begin("job", 0);
        t.leaf("a", 0, || std::hint::black_box((0..1000).sum::<u64>()));
        let b = t.begin("b", 0);
        t.leaf("c", 0, || std::hint::black_box((0..1000).sum::<u64>()));
        t.end(b);
        t.end(job);
        let a = attribute(t.spans(), "job");
        let total: u64 = a.stage_self_ns.values().sum::<u64>() + a.unattributed_ns;
        assert_eq!(total, a.job_ns);
        assert!(a.unbalanced_jobs.is_empty());
        assert_eq!(a.stage_self_ns.len(), 3);
    }
}
