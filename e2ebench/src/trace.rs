//! In-memory spans recorded around calls into each crate, written out
//! when the run ends.
//!
//! A span has a name, a start and an end (relative to the tracer's
//! origin), the span that caused it, and the request (job or batch) it
//! belongs to. Self time is a span's duration minus the part of it that
//! its children cover.

use mm_engine::json::ObjBuilder;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer or call name.
    pub name: &'static str,
    /// Index of the causing span.
    pub parent: Option<usize>,
    /// The job or batch the span belongs to.
    pub request: usize,
    /// Start, relative to the tracer origin.
    pub start: Duration,
    /// End, relative to the tracer origin.
    pub end: Duration,
}

impl Span {
    /// The span's duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

/// Collects spans in memory.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Records a finished span and returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: usize,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            name,
            parent,
            request,
            start: start.saturating_duration_since(self.origin),
            end: end.saturating_duration_since(self.origin),
        });
        self.spans.len() - 1
    }

    /// Runs `f` and records it as a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: usize,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, parent, request, start, Instant::now());
        out
    }

    /// Opens a span whose end is set later with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: usize) -> usize {
        let now = Instant::now();
        self.record(name, parent, request, now, now)
    }

    /// Ends a span opened with [`Tracer::open`].
    pub fn close(&mut self, id: usize) {
        self.spans[id].end = self.origin.elapsed();
    }

    /// Moves `other`'s spans into this tracer, re-based onto its clock.
    pub fn absorb(&mut self, other: Tracer) {
        let shift = other.origin.saturating_duration_since(self.origin);
        let base = self.spans.len();
        for mut s in other.spans {
            s.start += shift;
            s.end += shift;
            s.parent = s.parent.map(|p| p + base);
            self.spans.push(s);
        }
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total milliseconds of spans named `name` whose parent is named
    /// `parent` (`None` = any parent).
    pub fn total_ms(&self, name: &str, parent: Option<&str>) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .filter(|s| parent.is_none_or(|p| s.parent.is_some_and(|i| self.spans[i].name == p)))
            .map(Span::ms)
            .sum()
    }

    /// Self time of every span: its duration minus the union of its
    /// children's intervals (clipped to it).
    pub fn self_ms(&self) -> Vec<f64> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        self.spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut iv: Vec<(Duration, Duration)> = children[i]
                    .iter()
                    .map(|&c| {
                        (
                            self.spans[c].start.max(s.start),
                            self.spans[c].end.min(s.end),
                        )
                    })
                    .filter(|(a, b)| a < b)
                    .collect();
                iv.sort();
                let mut covered = Duration::ZERO;
                let mut cursor = s.start;
                for (a, b) in iv {
                    let a = a.max(cursor);
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
                s.ms() - covered.as_secs_f64() * 1e3
            })
            .collect()
    }

    /// Writes every span as one JSON line (`id`, `parent`, `request`,
    /// `name`, `start_ms`, `end_ms`, `self_ms`).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for ((id, s), self_ms) in self.spans.iter().enumerate().zip(self.self_ms()) {
            let mut b = ObjBuilder::new().field("id", id);
            if let Some(p) = s.parent {
                b = b.field("parent", p);
            }
            let line = b
                .field("request", s.request)
                .field("name", s.name)
                .field("start_ms", s.start.as_secs_f64() * 1e3)
                .field("end_ms", s.end.as_secs_f64() * 1e3)
                .field("self_ms", self_ms)
                .build()
                .to_json();
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_child_intervals() {
        let mut t = Tracer::new();
        let o = t.origin;
        let at = |ms: u64| o + Duration::from_millis(ms);
        let job = t.record("job", None, 0, at(0), at(100));
        t.record("place", Some(job), 0, at(10), at(40));
        t.record("route", Some(job), 0, at(30), at(60));
        let self_ms = t.self_ms();
        assert!((self_ms[0] - 50.0).abs() < 1e-9, "{self_ms:?}");
        assert!((self_ms[1] - 30.0).abs() < 1e-9);
        assert!((t.total_ms("place", Some("job")) - 30.0).abs() < 1e-9);
        assert_eq!(t.total_ms("place", Some("other")), 0.0);
    }
}
