//! In-memory spans recorded from the benchmark's own files, around the
//! calls into each layer. Nothing here touches the program under test:
//! tracing inside the crates is a later change.
//!
//! A span is a name, a start, an end, the name of the span that caused
//! it and an id; the spans of one request share the id (its sequence
//! number in the replayed stream). The spans stay in memory while the
//! traced pass runs and are written out as JSON lines when it ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use serde::Serialize;

use crate::stats;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Span {
    /// Layer-qualified name, e.g. `service.tcp.call`.
    pub name: String,
    /// Name of the span one level up that caused this one (empty at the
    /// top).
    pub parent: String,
    /// Shared by every span of one request, pass or round.
    pub id: u64,
    /// Start, in ns since the recorder was made.
    pub start_ns: u64,
    /// End, in ns since the recorder was made.
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span store of one traced pass.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// An empty recorder; span times count from now.
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&mut self, name: &str, parent: &str, id: u64, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.push(name, parent, id, start, Instant::now());
        out
    }

    /// Records a span whose ends were read elsewhere (a scheduler wrapper,
    /// another thread).
    pub fn push(&mut self, name: &str, parent: &str, id: u64, start: Instant, end: Instant) {
        self.spans.push(Span {
            name: name.to_string(),
            parent: parent.to_string(),
            id,
            start_ns: (start - self.epoch).as_nanos() as u64,
            end_ns: (end - self.epoch).as_nanos() as u64,
        });
    }

    /// Durations of every span called `name`, in µs, in recording order.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect()
    }

    /// Median duration of the spans called `name`, in µs (0 if none).
    pub fn p50_us(&self, name: &str) -> f64 {
        stats::median(&self.durations_us(name))
    }

    /// Self time of every span called `name`, in µs: its duration minus
    /// the spans called `child` that share its id. The three replay depths
    /// of one request are recorded in separate passes, so "covers" is by
    /// id, not by wall-clock containment; children of one parent never
    /// overlap, so their durations add.
    pub fn self_us(&self, name: &str, child: &str) -> Vec<f64> {
        let mut covered: BTreeMap<u64, u64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == child) {
            *covered.entry(s.id).or_default() += s.duration_ns();
        }
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| {
                let inner = covered.get(&s.id).copied().unwrap_or(0);
                (s.duration_ns() as f64 - inner as f64) / 1e3
            })
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let line = serde_json::to_string(s).map_err(std::io::Error::other)?;
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_is_duration_minus_children_of_the_same_id() {
        let mut r = Recorder::new();
        let t = r.epoch;
        let at = |us: u64| t + Duration::from_micros(us);
        // Request 1: tcp 0..100, in-process 10..40 inside it, execute 20..25.
        r.push("tcp", "", 1, at(0), at(100));
        r.push("inproc", "tcp", 1, at(10), at(40));
        r.push("execute", "inproc", 1, at(20), at(25));
        // Request 2 has no children recorded.
        r.push("tcp", "", 2, at(200), at(260));
        assert_eq!(r.self_us("tcp", "inproc"), vec![70.0, 60.0]);
        assert_eq!(r.self_us("inproc", "execute"), vec![25.0]);
        assert_eq!(r.self_us("execute", "nothing"), vec![5.0]);
        // The budget telescopes: the self times of request 1 sum to its
        // top-level duration.
        assert_eq!(70.0 + 25.0 + 5.0, r.durations_us("tcp")[0]);
        assert_eq!(r.p50_us("tcp"), 80.0);
    }

    #[test]
    fn spans_round_trip_as_json_lines() {
        let mut r = Recorder::new();
        r.time("compile", "round", 3, || std::hint::black_box(1 + 1));
        let dir = crate::out_dir().join(format!("test-spans-{}", std::process::id()));
        let path = dir.join("trace.jsonl");
        r.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(text.lines().count(), 1);
        assert!(text.contains("\"name\":\"compile\""));
        assert!(text.contains("\"parent\":\"round\""));
        assert!(text.contains("\"id\":3"));
    }
}
