//! Spans recorded by the benchmark around its calls into each layer.
//! They stay in memory while the workload runs and are written out
//! once, when it has ended.

use crate::measure::Host;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed interval at a layer boundary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer and call, e.g. `schedule.dsa.optimize`.
    pub name: &'static str,
    /// Nanoseconds from the tracer's origin.
    pub start_ns: u64,
    /// Nanoseconds from the tracer's origin.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// What the span belongs to: the pass or the request.
    pub id: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An open span, to be handed back to [`Tracer::exit`].
#[must_use]
pub struct Open(usize);

/// The in-memory span store of one traced run.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// An empty store whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, id: u64) -> Open {
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.stack.last().copied(),
            id,
        });
        self.stack.push(index);
        // Read the clock last, so the bookkeeping above is charged to
        // the parent and not to the layer being measured.
        self.spans[index].start_ns = self.ns(Instant::now());
        Open(index)
    }

    /// Closes the innermost open span, which must be `open`.
    pub fn exit(&mut self, open: Open) {
        let end = self.ns(Instant::now());
        assert_eq!(
            self.stack.pop(),
            Some(open.0),
            "spans close innermost first"
        );
        self.spans[open.0].end_ns = end;
    }

    /// Records a span whose ends were observed elsewhere (a request's
    /// due, admit and completion instants) and returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        id: u64,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        let start_ns = self.ns(start);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: self.ns(end).max(start_ns),
            parent,
            id,
        });
        self.spans.len() - 1
    }

    /// Every span so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration and count of the spans called `name`.
    pub fn total(&self, name: &str) -> (u64, usize) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(ns, n), s| (ns + s.duration_ns(), n + 1))
    }

    /// Mean duration of the spans called `name`, microseconds; 0 when
    /// there are none.
    pub fn mean_us(&self, name: &str) -> f64 {
        match self.total(name) {
            (_, 0) => 0.0,
            (ns, n) => ns as f64 / n as f64 / 1e3,
        }
    }

    /// Summed self time of the spans called `name`: duration minus the
    /// duration of their direct children (children of one parent are
    /// opened one after another here, so they never overlap).
    pub fn self_ns(&self, name: &str) -> u64 {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                covered[parent] += span.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(&covered)
            .filter(|(s, _)| s.name == name)
            .map(|(s, c)| s.duration_ns().saturating_sub(*c))
            .sum()
    }

    /// Writes every span as one JSON document.
    ///
    /// # Errors
    ///
    /// Any error of creating the directory or writing the file.
    pub fn write_json(&self, path: &Path, workload: &str, host: Host) -> std::io::Result<()> {
        let mut out = String::with_capacity(64 + self.spans.len() * 96);
        let _ = write!(
            out,
            "{{\"workload\": \"{workload}\", \"host_threads\": {}, \"worker_threads\": {}, \
             \"oversubscribed\": {}, \"spans\": [",
            host.host_threads,
            host.worker_threads,
            host.oversubscribed()
        );
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{sep}{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"id\": {}}}",
                s.name, s.start_ns, s.end_ns, s.id
            );
        }
        out.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut t = Tracer::new();
        let pass = t.enter("pass", 1);
        let a = t.enter("stage", 1);
        std::thread::sleep(Duration::from_millis(2));
        t.exit(a);
        let b = t.enter("stage", 1);
        t.exit(b);
        t.exit(pass);
        assert_eq!(t.spans().len(), 3);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[2].parent, Some(0));
        assert_eq!(t.spans()[0].parent, None);
        let (pass_ns, _) = t.total("pass");
        let (stage_ns, n) = t.total("stage");
        assert_eq!(n, 2);
        assert!(stage_ns >= 2_000_000);
        assert_eq!(t.self_ns("pass"), pass_ns - stage_ns);
        assert_eq!(t.self_ns("stage"), stage_ns);
        assert!(t.mean_us("stage") >= 1_000.0);
        assert_eq!(t.mean_us("absent"), 0.0);
    }

    #[test]
    fn recorded_spans_keep_their_parent_and_id() {
        let mut t = Tracer::new();
        let t0 = Instant::now();
        let t1 = t0 + Duration::from_micros(300);
        let request = t.record("request", 9, t0, t1, None);
        let child = t.record(
            "request.served",
            9,
            t0 + Duration::from_micros(100),
            t1,
            Some(request),
        );
        assert_eq!(t.spans()[child].parent, Some(request));
        assert_eq!(t.spans()[child].id, 9);
        assert_eq!(t.self_ns("request"), 100_000);
    }

    #[test]
    fn json_lists_every_span() {
        let mut t = Tracer::new();
        let a = t.enter("a", 3);
        t.exit(a);
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-{}", std::process::id()));
        let path = dir.join("trace-test.json");
        t.write_json(&path, "test", Host::with_threads(2)).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(text.contains("\"workload\": \"test\""));
        assert!(text.contains("\"name\": \"a\""));
        assert!(text.contains("\"parent\": null"));
        assert!(text.contains("\"id\": 3"));
    }
}
