//! The benchmark's own span recorder.
//!
//! Spans are recorded only around the benchmark's calls into the system's
//! public functions (no instrumentation inside the runtime). They nest in
//! three levels — iteration, job, layer call — and are kept in memory
//! until the run ends, when [`to_json`] writes them out.

use std::time::Instant;

/// One recorded interval of host time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// What the interval covers: `iteration`, `job`, or the name of the
    /// public function called (e.g. `ptdf::run`).
    pub name: &'static str,
    /// Host nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Host nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Job the span belongs to (unique within a run).
    pub job: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span (`None` while recording is off).
#[must_use = "pass the handle back to Recorder::exit"]
pub struct Open(Option<usize>);

/// Records properly nested spans on one host thread. While `on` is false
/// [`Recorder::enter`] and [`Recorder::exit`] are a branch each.
pub struct Recorder {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Recorder {
    /// A recorder with recording switched on or off.
    pub fn new(on: bool) -> Self {
        Recorder {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Switches recording on or off between iterations.
    pub fn set_on(&mut self, on: bool) {
        assert!(self.stack.is_empty(), "toggled with spans open");
        self.on = on;
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, job: u32) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            job,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Closes the innermost open span, which must be `open`.
    pub fn exit(&mut self, open: Open) {
        if let Some(id) = open.0 {
            let end = self.now_ns();
            assert_eq!(self.stack.pop(), Some(id), "spans closed out of order");
            self.spans[id].end_ns = end;
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, job: u32, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name, job);
        let out = f();
        self.exit(open);
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (children clipped to the parent and merged, so
/// an overlap is never subtracted twice).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// For every root span (one without a parent — the iterations), the sum
/// of the self times of it and all its descendants minus its duration.
/// Zero means the self times tile the root's wall exactly; a positive
/// value means children overlapped each other or escaped their parent.
pub fn tile_errors(spans: &[Span]) -> Vec<(usize, i64)> {
    let selfs = self_times(spans);
    let mut root_of: Vec<usize> = Vec::with_capacity(spans.len());
    let mut sums: Vec<u64> = vec![0; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        // A parent always precedes its children (it is opened first).
        let root = s.parent.map_or(i, |p| root_of[p]);
        root_of.push(root);
        sums[root] += selfs[i];
    }
    spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.parent.is_none())
        .map(|(i, s)| (i, sums[i] as i64 - s.dur_ns() as i64))
        .collect()
}

/// Total self time per span name, in first-seen order.
pub fn self_by_name(spans: &[Span]) -> Vec<(&'static str, u64)> {
    let selfs = self_times(spans);
    let mut out: Vec<(&'static str, u64)> = Vec::new();
    for (s, t) in spans.iter().zip(selfs) {
        match out.iter_mut().find(|(n, _)| *n == s.name) {
            Some(slot) => slot.1 += t,
            None => out.push((s.name, t)),
        }
    }
    out
}

/// The spans as a JSON array (one object per span, in recording order).
pub fn to_json(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut out = String::from("[\n");
    for (i, (s, self_ns)) in spans.iter().zip(selfs).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "  {{\"id\": {i}, \"name\": \"{}\", \"job\": {}, \"parent\": {parent}, \
             \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {self_ns}}}",
            s.name, s.job, s.start_ns, s.end_ns
        ));
        out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    out.push_str("]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            job: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_and_tiles_the_root() {
        let spans = vec![
            span("iteration", 0, 100, None),
            span("job", 10, 60, Some(0)),
            span("ptdf::run", 12, 40, Some(1)),
            span("kernel", 40, 55, Some(1)),
            span("job", 60, 95, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![15, 7, 28, 15, 35]);
        assert_eq!(tile_errors(&spans), vec![(0, 0)]);
        assert_eq!(
            self_by_name(&spans),
            vec![
                ("iteration", 15),
                ("job", 42),
                ("ptdf::run", 28),
                ("kernel", 15)
            ]
        );
    }

    #[test]
    fn overlapping_children_break_the_tile() {
        // Two siblings overlapping by 10 ns: the parent's self time counts
        // the covered union once, so the subtree sums to more than its wall.
        let spans = vec![
            span("iteration", 0, 100, None),
            span("a", 0, 50, Some(0)),
            span("b", 40, 100, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![0, 50, 60]);
        assert_eq!(tile_errors(&spans), vec![(0, 10)]);
    }

    #[test]
    fn recorder_nests_and_stays_off_when_asked() {
        let mut rec = Recorder::new(true);
        let it = rec.enter("iteration", 0);
        let v = rec.time("job", 1, || 7);
        rec.exit(it);
        assert_eq!(v, 7);
        assert_eq!(rec.spans().len(), 2);
        assert_eq!(rec.spans()[1].parent, Some(0));
        assert_eq!(tile_errors(rec.spans()), vec![(0, 0)]);
        rec.set_on(false);
        let it = rec.enter("iteration", 2);
        rec.exit(it);
        assert_eq!(rec.spans().len(), 2);
    }
}
