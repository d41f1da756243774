//! Spans around the calls into each layer. Recorded from the
//! benchmark's side of the public API (tracing inside the program is
//! a later change), kept in memory, written as JSON lines at exit.

use crate::json::escape;
use std::io::{self, Write};
use std::time::Instant;

pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects nested spans on one thread. A disabled tracer runs the
/// closures and records nothing; the same replay driven by an enabled
/// and a disabled tracer gives the tracing overhead.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Run `f` inside a span named `name`, child of whichever span is
    /// open on this tracer.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A span's duration minus the part its child spans cover.
    pub fn self_ns(&self, id: usize) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::duration_ns)
            .sum();
        self.spans[id].duration_ns().saturating_sub(children)
    }

    /// Total duration of every span called `name`, in milliseconds.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .sum::<u64>() as f64
            / 1e6
    }

    /// Share of the root spans' time that lies inside a named child:
    /// one minus the roots' own self time over their duration.
    pub fn attributed_ratio(&self) -> f64 {
        let roots: Vec<usize> = (0..self.spans.len())
            .filter(|&i| self.spans[i].parent.is_none())
            .collect();
        let total: u64 = roots.iter().map(|&i| self.spans[i].duration_ns()).sum();
        let own: u64 = roots.iter().map(|&i| self.self_ns(i)).sum();
        if total == 0 {
            0.0
        } else {
            1.0 - own as f64 / total as f64
        }
    }

    pub fn write_jsonl(&self, workload: &str, out: &mut impl Write) -> io::Result<()> {
        for s in &self.spans {
            let parent = match s.parent {
                Some(p) => p.to_string(),
                None => "null".to_string(),
            };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"workload\":\"{}\"}}",
                escape(&s.name),
                s.start_ns,
                s.end_ns,
                escape(workload)
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;

    #[test]
    fn nesting_self_time_and_attribution() {
        let mut tr = Tracer::new(true);
        tr.span("root", |tr| {
            tr.span("child", |tr| {
                tr.span("leaf", |_| {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                });
            });
            tr.span("child", |_| ());
        });
        let names: Vec<_> = tr.spans().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["root", "child", "leaf", "child"]);
        assert_eq!(tr.spans()[2].parent, Some(1));
        assert_eq!(tr.spans()[3].parent, Some(0));
        assert!(tr.self_ns(1) < tr.spans()[1].duration_ns());
        assert!(tr.total_ms("child") >= 2.0);
        assert!(tr.attributed_ratio() > 0.5 && tr.attributed_ratio() <= 1.0);

        let mut out = Vec::new();
        tr.write_jsonl("w", &mut out).unwrap();
        let lines: Vec<_> = std::str::from_utf8(&out).unwrap().lines().collect();
        assert_eq!(lines.len(), 4);
        let leaf = Value::parse(lines[2]).unwrap();
        assert_eq!(leaf.get("parent").and_then(Value::as_f64), Some(1.0));
        assert_eq!(leaf.get("workload").and_then(Value::as_str), Some("w"));
        assert_eq!(
            Value::parse(lines[0]).unwrap().get("parent"),
            Some(&Value::Null)
        );
    }

    #[test]
    fn a_disabled_tracer_runs_the_work_and_records_nothing() {
        let mut tr = Tracer::new(false);
        assert_eq!(tr.span("x", |tr| tr.span("y", |_| 7)), 7);
        assert!(tr.spans().is_empty());
    }
}
