//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, a start and end, the span that caused it, and the
//! request it belongs to. Spans stay in memory while the run measures and are
//! written out once, at the end. A layer's self time is its span's duration
//! minus the time its child spans cover.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Identifier, unique within the tracer.
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// Layer boundary the span covers.
    pub name: &'static str,
    /// Request the span belongs to.
    pub request: u64,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
}

/// Collects spans from any thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            epoch: Instant::now(),
            next_id: AtomicU64::new(0),
            spans: Mutex::new(Vec::with_capacity(1 << 16)),
        }
    }
}

impl Tracer {
    /// Reserves a span id, so children can name their parent before the
    /// parent span is recorded.
    pub fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a finished span under a reserved id.
    pub fn record(
        &self,
        id: u64,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let span = Span {
            id,
            parent,
            name,
            request,
            start_ns: ns(start),
            end_ns: ns(end),
        };
        self.spans.lock().expect("span mutex poisoned").push(span);
    }

    /// Runs `f` as a leaf span.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.id();
        let start = Instant::now();
        let out = f();
        self.record(id, name, parent, request, start, Instant::now());
        out
    }

    /// Self times in µs of every span named `name`: duration minus the time
    /// covered by its children.
    pub fn self_times_us(&self, name: &str) -> Vec<f64> {
        let spans = self.spans.lock().expect("span mutex poisoned");
        let mut child_ns: HashMap<u64, u64> = HashMap::new();
        for span in spans.iter() {
            if let Some(parent) = span.parent {
                *child_ns.entry(parent).or_default() += span.end_ns - span.start_ns;
            }
        }
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| {
                let own = (s.end_ns - s.start_ns)
                    .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
                own as f64 / 1e3
            })
            .collect()
    }

    /// Whole durations in µs of every span named `name`, children included.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        let spans = self.spans.lock().expect("span mutex poisoned");
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// Start offsets in µs of each child named `child` from its parent's
    /// start: how late the child began.
    pub fn start_offsets_us(&self, child: &str) -> Vec<f64> {
        let spans = self.spans.lock().expect("span mutex poisoned");
        let starts: HashMap<u64, u64> = spans.iter().map(|s| (s.id, s.start_ns)).collect();
        spans
            .iter()
            .filter(|s| s.name == child)
            .filter_map(|s| {
                let parent_start = starts.get(&s.parent?)?;
                Some(s.start_ns.saturating_sub(*parent_start) as f64 / 1e3)
            })
            .collect()
    }

    /// Writes every span as one tab-separated line: id, parent, name,
    /// request, start ns, end ns.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tname\trequest\tstart_ns\tend_ns")?;
        for s in self.spans.lock().expect("span mutex poisoned").iter() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{}\t{parent}\t{}\t{}\t{}\t{}",
                s.id, s.name, s.request, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
