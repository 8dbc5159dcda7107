//! In-memory span recorder. Spans are kept in memory while the run
//! measures and written as JSON lines when it ends.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub request: u64,
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

/// Collects spans from any thread. When disabled, `record` only
/// allocates an id.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Reserves an id, so that children recorded before their parent
    /// closes can name it.
    pub fn reserve(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a span under a reserved id.
    pub fn record(
        &self,
        id: u64,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        let span = Span {
            id,
            parent,
            request,
            name,
            start,
            end,
        };
        self.spans
            .lock()
            .expect("span buffer poisoned by a panicking thread")
            .push(span);
    }

    /// Reserves an id and records a finished span in one call.
    pub fn leaf(
        &self,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.reserve();
        self.record(id, name, parent, request, start, end);
        id
    }

    /// Copies out every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span buffer poisoned by a panicking thread")
            .clone()
    }

    /// Writes `header` and then one JSON object per span
    /// (`id`, `parent`, `request`, `name`, `start_us`, `end_us`, times
    /// relative to the recorder's creation).
    pub fn write_jsonl(&self, path: &std::path::Path, header: &str) -> std::io::Result<()> {
        use std::io::Write as _;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::new();
        out.push_str(header);
        out.push('\n');
        for s in self.spans() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.id,
                parent,
                s.request,
                s.name,
                (s.start - self.epoch).as_secs_f64() * 1e6,
                (s.end - self.epoch).as_secs_f64() * 1e6,
            );
        }
        let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
        file.write_all(out.as_bytes())?;
        file.flush()
    }
}
