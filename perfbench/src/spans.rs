//! Spans recorded by the benchmark around its calls into each crate.
//!
//! A span has a name, a start and end, the span that was open when it
//! began (its parent), and the id of the job it belongs to, so the spans
//! of one (program, config) simulation can be grouped. Spans stay in
//! memory and are written out once, at exit. A span's self time is its
//! duration minus the part of it that its children cover.
//!
//! [`Tracer::span`] times the call whether or not tracing is on — the
//! benchmark's metrics come from those durations — and only records the
//! span when it is on, so an untraced run pays two clock reads per call.

use std::time::{Duration, Instant};

use hydra_stats::Json;

/// One recorded span; times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What was called, e.g. `pipeline.run`.
    pub name: &'static str,
    /// The job this span belongs to, if any (see [`Tracer::job`]).
    pub job: Option<u32>,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
}

/// Total and self time of every span with one name.
#[derive(Debug, Clone, PartialEq)]
pub struct SelfTime {
    /// Span name.
    pub name: &'static str,
    /// Spans with this name.
    pub count: u64,
    /// Sum of their durations, in seconds.
    pub total_s: f64,
    /// Sum of their self times, in seconds.
    pub self_s: f64,
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    jobs: Vec<String>,
}

impl Tracer {
    /// A tracer that records spans only when `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            jobs: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Registers a job label and returns its id (0 when tracing is off).
    pub fn job(&mut self, label: impl FnOnce() -> String) -> u32 {
        if !self.on {
            return 0;
        }
        self.jobs.push(label());
        (self.jobs.len() - 1) as u32
    }

    /// Runs `f` inside a span named `name` and returns its result with
    /// the call's duration.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        job: Option<u32>,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, Duration) {
        if !self.on {
            let t0 = Instant::now();
            let out = f(self);
            return (out, t0.elapsed());
        }
        let idx = self.spans.len();
        let start = Instant::now();
        self.spans.push(Span {
            name,
            job,
            parent: self.open.last().copied(),
            start_ns: self.ns(start),
            end_ns: 0,
        });
        self.open.push(idx);
        let out = f(self);
        let end = Instant::now();
        self.open.pop();
        self.spans[idx].end_ns = self.ns(end);
        (out, end - start)
    }

    /// Records a span timed elsewhere (the engine's jobs, whose start
    /// times are reconstructed from their durations) as a child of the
    /// currently open span.
    pub fn record(&mut self, name: &'static str, job: Option<u32>, start: Instant, end: Instant) {
        if self.on {
            self.spans.push(Span {
                name,
                job,
                parent: self.open.last().copied(),
                start_ns: self.ns(start),
                end_ns: self.ns(end),
            });
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total and self time per span name, in first-seen order.
    pub fn self_times(&self) -> Vec<SelfTime> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut out: Vec<SelfTime> = Vec::new();
        for (s, kids) in self.spans.iter().zip(children) {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let self_ns = dur.saturating_sub(covered(kids, s.start_ns, s.end_ns));
            let row = match out.iter_mut().position(|r| r.name == s.name) {
                Some(i) => &mut out[i],
                None => {
                    out.push(SelfTime {
                        name: s.name,
                        count: 0,
                        total_s: 0.0,
                        self_s: 0.0,
                    });
                    out.last_mut().expect("just pushed")
                }
            };
            row.count += 1;
            row.total_s += dur as f64 * 1e-9;
            row.self_s += self_ns as f64 * 1e-9;
        }
        out
    }

    /// The spans, job labels and self-time table as one JSON document.
    pub fn to_json(&self, workload: &str, seed: u64) -> Json {
        let opt = |v: Option<u64>| v.map_or(Json::Null, Json::int);
        let self_time = self.self_times().into_iter().map(|r| {
            Json::obj([
                ("name", Json::str(r.name)),
                ("count", Json::int(r.count)),
                ("total_s", Json::num(r.total_s)),
                ("self_s", Json::num(r.self_s)),
            ])
        });
        let jobs = self.jobs.iter().enumerate().map(|(i, label)| {
            Json::obj([
                ("id", Json::int(i as u64)),
                ("label", Json::str(label.as_str())),
            ])
        });
        let spans = self.spans.iter().map(|s| {
            Json::obj([
                ("name", Json::str(s.name)),
                ("job", opt(s.job.map(u64::from))),
                ("parent", opt(s.parent.map(|p| p as u64))),
                ("start_ns", Json::int(s.start_ns)),
                ("end_ns", Json::int(s.end_ns)),
            ])
        });
        Json::obj([
            ("workload", Json::str(workload)),
            ("seed", Json::int(seed)),
            ("self_time", Json::arr(self_time)),
            ("jobs", Json::arr(jobs)),
            ("spans", Json::arr(spans)),
        ])
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        assert_eq!(covered(vec![(10, 20), (15, 30), (40, 50)], 0, 45), 25);
    }

    #[test]
    fn nested_spans_record_parents_and_parse_as_json() {
        let mut t = Tracer::new(true);
        let job = t.job(|| "go \"x\"".to_string());
        let ((), _) = t.span("outer", None, |t| {
            t.span("inner", Some(job), |_| ());
        });
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        let rows = t.self_times();
        assert_eq!(rows[0].name, "outer");
        assert!(rows[0].self_s <= rows[0].total_s);
        let doc = t.to_json("w", 1);
        assert_eq!(Json::parse(&doc.to_string()), Ok(doc));
    }

    #[test]
    fn an_untraced_tracer_records_nothing_but_still_times() {
        let mut t = Tracer::new(false);
        let (v, d) = t.span("x", None, |_| 7);
        assert_eq!(v, 7);
        assert!(d <= Duration::from_secs(1));
        assert!(t.spans().is_empty());
    }
}
