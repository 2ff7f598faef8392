//! Spans the benchmark records around its own calls into each layer, kept
//! in memory and written out when the run ends.

use pa_core::{Clock, TraceReport};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

/// One span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Enclosing span; `None` for a request root.
    pub parent: Option<usize>,
    /// Layer-qualified name, e.g. `sql.parse` or `engine.aggregate`.
    pub name: String,
    /// The request (query or append) the span belongs to.
    pub request: u64,
    /// Open time, nanoseconds on the recorder's clock.
    pub start_ns: u64,
    /// Close time, nanoseconds on the recorder's clock.
    pub end_ns: u64,
}

impl Span {
    /// Wall nanoseconds between open and close.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span store. Its clock is the one the engine stamps its own
/// operator spans with, so both land on one time line.
pub struct Recorder {
    clock: Arc<dyn Clock>,
    spans: Vec<Span>,
}

impl Recorder {
    /// An empty recorder reading `clock`.
    pub fn new(clock: Arc<dyn Clock>) -> Recorder {
        Recorder {
            clock,
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.clock.now().as_nanos() as u64
    }

    fn push(&mut self, name: String, parent: Option<usize>, request: u64, start_ns: u64) -> usize {
        self.spans.push(Span {
            parent,
            name,
            request,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    /// Open a span now; [`Recorder::close`] ends it.
    pub fn open(&mut self, name: &str, parent: Option<usize>, request: u64) -> usize {
        let now = self.now();
        self.push(name.to_string(), parent, request, now)
    }

    /// End span `id` now.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now();
    }

    /// Run `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &str, parent: usize, request: u64, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, Some(parent), request);
        let out = f();
        self.close(id);
        out
    }

    /// Attach the engine's own trace below `parent`: its root becomes
    /// `core.query`, each operator `engine.<label>` and each worker
    /// `engine.<label>.worker`.
    pub fn attach(&mut self, parent: usize, request: u64, report: &TraceReport) {
        let mut ids: BTreeMap<u32, usize> = BTreeMap::new();
        // Reports list parents before children.
        for s in report.spans() {
            let (name, up) = match s.parent.and_then(|p| ids.get(&p).copied()) {
                None => ("core.query".to_string(), parent),
                Some(up) if self.spans[up].name == "core.query" => {
                    (format!("engine.{}", s.label), up)
                }
                Some(up) => (format!("{}.{}", self.spans[up].name, s.label), up),
            };
            let id = self.push(name, Some(up), request, s.start_ns);
            self.spans[id].end_ns = s.end_ns;
            ids.insert(s.id, id);
        }
    }

    /// All spans, in the order they were opened or attached.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of its
    /// interval that its children cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (id, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(id);
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .map(|(s, kids)| {
                let mut iv: Vec<(u64, u64)> = kids
                    .iter()
                    .map(|&c| {
                        let c = &self.spans[c];
                        (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns))
                    })
                    .filter(|(a, b)| a < b)
                    .collect();
                iv.sort_unstable();
                let mut covered = 0;
                let mut reach = s.start_ns;
                for (a, b) in iv {
                    let a = a.max(reach);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                s.duration_ns() - covered
            })
            .collect()
    }

    /// The spans as a JSON array, each with its self time.
    pub fn to_json(&self) -> String {
        let self_ns = self.self_ns();
        let mut out = String::from("[");
        for (id, (s, own)) in self.spans.iter().zip(self_ns).enumerate() {
            if id > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                out,
                "{{\"id\": {id}, \"parent\": {parent}, \"name\": \"{}\", \"request\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {own}}}",
                s.name, s.request, s.start_ns, s.end_ns
            )
            .expect("write to String");
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pa_core::SystemClock;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut r = Recorder::new(SystemClock::shared());
        let mut at = |name: &str, parent, start, end| {
            let id = r.push(name.to_string(), parent, 0, start);
            r.spans[id].end_ns = end;
            id
        };
        let root = at("request", None, 0, 100);
        at("a", Some(root), 10, 40);
        at("b", Some(root), 30, 50);
        at("c", Some(root), 90, 120);
        assert_eq!(r.self_ns()[root], 100 - 40 - 10);
    }
}
