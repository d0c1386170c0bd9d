//! Benchmark-side spans: recorded in memory around calls into each layer,
//! reduced to per-name self time, and written as a Chrome `trace_event`
//! document when the run ends.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span. Times are seconds since the recorder's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    /// Small per-thread index (1 = the thread that created the recorder).
    pub tid: u64,
}

impl Span {
    pub fn dur(&self) -> f64 {
        self.end - self.start
    }
}

/// Collects spans of one traced run. Spans may close on any thread.
pub struct Recorder {
    origin: Instant,
    run_id: String,
    spans: Mutex<Vec<Span>>,
    next_id: AtomicUsize,
    threads: Mutex<Vec<std::thread::ThreadId>>,
}

impl Recorder {
    pub fn new(run_id: impl Into<String>) -> Self {
        Self {
            origin: Instant::now(),
            run_id: run_id.into(),
            spans: Mutex::new(Vec::new()),
            next_id: AtomicUsize::new(1),
            threads: Mutex::new(vec![std::thread::current().id()]),
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    fn tid(&self) -> u64 {
        let me = std::thread::current().id();
        let mut threads = self.threads.lock().expect("thread table poisoned");
        let idx = match threads.iter().position(|t| *t == me) {
            Some(i) => i,
            None => {
                threads.push(me);
                threads.len() - 1
            }
        };
        idx as u64 + 1
    }

    /// Runs `f(id)` inside a span named `name` under `parent` and returns
    /// its value; `id` is the new span's id, for nesting child spans.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce(usize) -> R,
    ) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = self.now();
        let out = f(id);
        let end = self.now();
        let tid = self.tid();
        self.spans.lock().expect("span buffer poisoned").push(Span {
            id,
            parent,
            name,
            start,
            end,
            tid,
        });
        out
    }

    /// The spans recorded so far, in start order.
    pub fn spans(&self) -> Vec<Span> {
        let mut v = self.spans.lock().expect("span buffer poisoned").clone();
        v.sort_by(|a, b| a.start.total_cmp(&b.start).then(a.id.cmp(&b.id)));
        v
    }

    /// Chrome `trace_event` JSON of every span (complete `X` events, µs),
    /// each carrying its run id and parent id in `args`.
    pub fn chrome_json(&self, host_cores: usize) -> String {
        let spans = self.spans();
        let mut out = String::from("{\"traceEvents\":[\n");
        let threads = self.threads.lock().expect("thread table poisoned").len();
        for t in 1..=threads {
            out.push_str(&format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{t},\
                 \"args\":{{\"name\":\"bench-{t}\"}}}},\n"
            ));
        }
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"run_id\":\"{}\",\"span_id\":{},\"parent\":{parent}}}}}{}\n",
                s.name,
                s.tid,
                s.start * 1e6,
                s.dur() * 1e6,
                self.run_id,
                s.id,
                if i + 1 == spans.len() { "" } else { "," }
            ));
        }
        out.push_str(&format!(
            "],\"displayTimeUnit\":\"ms\",\"droppedEvents\":0,\"hostCores\":{host_cores}}}\n"
        ));
        out
    }
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals (clipped to the span).
pub fn self_times(spans: &[Span]) -> BTreeMap<usize, f64> {
    let mut children: BTreeMap<usize, Vec<(f64, f64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut iv: Vec<(f64, f64)> = children
                .get(&s.id)
                .into_iter()
                .flatten()
                .map(|&(a, b)| (a.max(s.start), b.min(s.end)))
                .filter(|(a, b)| b > a)
                .collect();
            iv.sort_by(|x, y| x.0.total_cmp(&y.0));
            let mut covered = 0.0;
            let mut cur: Option<(f64, f64)> = None;
            for (a, b) in iv {
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            (s.id, s.dur() - covered)
        })
        .collect()
}

/// Summed self time per span name.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let selfs = self_times(spans);
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.name).or_insert(0.0) += selfs[&s.id];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start: f64, end: f64) -> Span {
        Span {
            id,
            parent,
            name: "s",
            start,
            end,
            tid: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, None, 0.0, 10.0),
            // Overlapping children (two threads) cover [1, 6].
            span(2, Some(1), 1.0, 4.0),
            span(3, Some(1), 2.0, 6.0),
            // Disjoint child covers [8, 9]; grandchild is not subtracted
            // from the root.
            span(4, Some(1), 8.0, 9.0),
            span(5, Some(4), 8.0, 8.5),
        ];
        let st = self_times(&spans);
        assert!((st[&1] - 4.0).abs() < 1e-12, "{st:?}");
        assert!((st[&4] - 0.5).abs() < 1e-12, "{st:?}");
        assert!((st[&2] - 3.0).abs() < 1e-12, "{st:?}");
    }

    #[test]
    fn recorder_nests_and_exports_chrome_events() {
        let rec = Recorder::new("run-1");
        rec.span("outer", None, |outer| {
            rec.span("inner", Some(outer), |_| ());
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "outer");
        assert_eq!(spans[1].parent, Some(spans[0].id));
        let json = rec.chrome_json(2);
        assert!(json.starts_with("{\"traceEvents\":["), "{json}");
        assert!(json.contains("\"name\":\"inner\",\"ph\":\"X\""), "{json}");
        assert!(json.contains("\"run_id\":\"run-1\""), "{json}");
        assert!(json.contains("\"hostCores\":2"), "{json}");
    }
}
