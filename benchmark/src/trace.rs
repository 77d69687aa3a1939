//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps every call it makes into a layer in a span. Spans
//! stay in memory and are written out as JSON lines when the run ends.
//! A disabled tracer records nothing and adds one branch per call, so
//! the untraced runs that produce the end-to-end metrics pay nothing.

use std::io::Write;
use std::time::Instant;

/// One recorded interval on the host clock.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call, `<layer>.<call>` (e.g. `core.try_run`).
    pub name: &'static str,
    /// What the call ran on: an engine, a matrix, a probe.
    pub tag: &'static str,
    /// Operation id; spans of one operation share it.
    pub op: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn off() -> Self {
        Tracer {
            on: false,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn on() -> Self {
        Tracer {
            on: true,
            ..Tracer::off()
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span; `f` receives the tracer so it can open
    /// child spans.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        tag: &'static str,
        op: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        let parent = self.stack.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            tag,
            op,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of its
    /// interval covered by its children.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let (mut covered, mut reach) = (0, s.start_ns);
                for (a, b) in kids {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                s.dur_ns() - covered
            })
            .collect()
    }

    /// Durations in seconds of every span named `name` (and tagged `tag`,
    /// when given), in recording order.
    pub fn durations_s(&self, name: &str, tag: Option<&str>) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && tag.is_none_or(|t| s.tag == t))
            .map(|s| s.dur_ns() as f64 * 1e-9)
            .collect()
    }

    pub fn total_s(&self, name: &str, tag: Option<&str>) -> f64 {
        self.durations_s(name, tag).iter().sum()
    }

    /// Writes one JSON object per span, in recording order.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, (s, self_ns)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"tag\":\"{}\",\"op\":{},\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
                s.name, s.tag, s.op, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            tag: "",
            op: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children_at_every_level() {
        let t = Tracer {
            spans: vec![
                span("root", None, 0, 100),
                span("a", Some(0), 10, 40),
                span("a.inner", Some(1), 15, 25),
                span("b", Some(0), 50, 90),
            ],
            ..Tracer::on()
        };
        assert_eq!(t.self_ns(), vec![30, 20, 10, 40]);
        // Self times of a tree add up to the root's duration.
        assert_eq!(t.self_ns().iter().sum::<u64>(), 100);
    }

    #[test]
    fn recorded_spans_nest_and_cover_their_children() {
        let mut t = Tracer::on();
        let v = t.span("outer", "x", 1, |t| {
            t.span("inner", "y", 1, |_| std::hint::black_box(41)) + 1
        });
        assert_eq!(v, 42);
        let s = t.spans();
        assert_eq!((s.len(), s[1].parent), (2, Some(0)));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let total: u64 = t.self_ns().iter().sum();
        assert_eq!(total, s[0].dur_ns());
        assert_eq!(t.durations_s("inner", Some("y")).len(), 1);
        assert!(t.durations_s("inner", Some("z")).is_empty());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        assert_eq!(t.span("a", "", 0, |t| t.span("b", "", 0, |_| 3)), 3);
        assert!(t.spans().is_empty());
    }
}
