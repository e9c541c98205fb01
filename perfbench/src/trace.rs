//! Spans around the benchmark's calls into each layer, kept in memory
//! and written at exit as a Chrome trace (opens in Perfetto) plus a
//! per-layer self-time summary.
//!
//! A span's layer is its name up to the first `.` (`snap.delta_capture`
//! is in `snap`). Roots are named `op` (one per op, carrying the op id)
//! or are probes outside any op. A span's self time is its duration
//! minus its direct children's durations, so the self times of an op's
//! tree add up to the op's duration exactly; the root's own self time is
//! the remainder no layer call accounts for.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// The op id of spans recorded outside any op (set-up, probes).
pub const NO_OP: u64 = u64::MAX;

/// One timed call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `layer.call`, or `op` for an op's root.
    pub name: &'static str,
    /// The op this span belongs to, or [`NO_OP`].
    pub op: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Timed after its parent rather than inside it: a step replayed
    /// in-process on behalf of a parent the benchmark cannot see into.
    pub replayed: bool,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer: the name up to the first `.`; roots are `bench`.
    pub fn layer(&self) -> &'static str {
        self.name
            .split('.')
            .next()
            .filter(|_| self.name.contains('.'))
            .unwrap_or("bench")
    }
}

/// Records nested spans when on; passes calls straight through when off.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    op: u64,
    stack: Vec<usize>,
    /// Every span, in start order.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// A tracer; `on == false` records nothing.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            op: NO_OP,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Tags the spans that follow with `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Opens a span; close it with [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
            replayed: false,
        });
        self.stack.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let end = self.now_ns();
        if let Some(i) = self.stack.pop() {
            self.spans[i].end_ns = end;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Records an already-timed interval as a child of the innermost
    /// open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.stack.last().copied(),
            start_ns: at(start),
            end_ns: at(end),
            replayed: false,
        });
    }

    /// Makes every root recorded from index `first` on a replayed child
    /// of span `parent`, and returns their summed duration.
    pub fn adopt(&mut self, first: usize, parent: usize) -> i64 {
        let mut sum = 0;
        for s in self.spans.iter_mut().skip(first) {
            if s.parent.is_none() {
                s.parent = Some(parent);
                s.replayed = true;
                sum += s.dur_ns() as i64;
            }
        }
        sum
    }
}

/// Each span's self time: its duration minus its direct children's.
pub fn self_times(spans: &[Span]) -> Vec<i64> {
    let mut out: Vec<i64> = spans.iter().map(|s| s.dur_ns() as i64).collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p] -= s.dur_ns() as i64;
        }
    }
    out
}

/// Self time and call count of one layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTotal {
    /// Summed self time, nanoseconds.
    pub self_ns: i64,
    /// Spans counted.
    pub calls: u64,
}

/// Per-layer totals over the op trees only (roots named `op` and their
/// descendants); `bench` is the unattributed remainder.
pub fn layer_summary(spans: &[Span]) -> BTreeMap<&'static str, LayerTotal> {
    let selfs = self_times(spans);
    let mut in_op = vec![false; spans.len()];
    let mut out: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        in_op[i] = match s.parent {
            None => s.name == "op",
            Some(p) => in_op[p],
        };
        if in_op[i] {
            let t = out.entry(s.layer()).or_default();
            t.self_ns += selfs[i];
            t.calls += 1;
        }
    }
    out
}

/// For every op root, `(op id, duration, sum of self times in its
/// tree)`. The two agree exactly when spans nest.
pub fn op_balance(spans: &[Span]) -> Vec<(u64, i64, i64)> {
    let selfs = self_times(spans);
    let mut root_of: Vec<Option<usize>> = vec![None; spans.len()];
    let mut sums: BTreeMap<usize, i64> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        root_of[i] = match s.parent {
            None if s.name == "op" => Some(i),
            None => None,
            Some(p) => root_of[p],
        };
        if let Some(r) = root_of[i] {
            *sums.entry(r).or_default() += selfs[i];
        }
    }
    sums.into_iter()
        .map(|(r, sum)| (spans[r].op, spans[r].dur_ns() as i64, sum))
        .collect()
}

/// Chrome trace-event JSON: one complete (`X`) event per span, with the
/// op id and the parent index in `args`. Replayed spans go on a second
/// track, since they do not nest inside their parent in time.
pub fn chrome_json(spans: &[Span], workload: &str) -> String {
    let mut s = String::with_capacity(spans.len() * 120 + 64);
    s.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, sp) in spans.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let op = if sp.op == NO_OP {
            "null".to_string()
        } else {
            sp.op.to_string()
        };
        let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            s,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op\":{op},\"span\":{i},\"parent\":{parent},\"workload\":\"{workload}\"}}}}",
            sp.name,
            sp.layer(),
            if sp.replayed { 2 } else { 1 },
            sp.start_ns as f64 / 1e3,
            sp.dur_ns() as f64 / 1e3,
        );
    }
    s.push_str("]}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, op: u64, parent: Option<usize>, a: u64, b: u64) -> Span {
        Span {
            name,
            op,
            parent,
            start_ns: a,
            end_ns: b,
            replayed: false,
        }
    }

    fn sample() -> Vec<Span> {
        vec![
            span("op", 0, None, 0, 100),
            span("core.run", 0, Some(0), 10, 70),
            span("cpu.step", 0, Some(1), 20, 30),
            span("snap.delta_capture", 0, Some(0), 75, 95),
            span("obs.render", NO_OP, None, 100, 110),
        ]
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        assert_eq!(self_times(&sample()), vec![20, 50, 10, 20, 10]);
    }

    #[test]
    fn op_self_times_add_up_to_the_op() {
        assert_eq!(op_balance(&sample()), vec![(0, 100, 100)]);
    }

    #[test]
    fn layer_summary_covers_op_trees_and_names_the_remainder() {
        let sum = layer_summary(&sample());
        assert_eq!(
            sum["bench"],
            LayerTotal {
                self_ns: 20,
                calls: 1
            }
        );
        assert_eq!(
            sum["core"],
            LayerTotal {
                self_ns: 50,
                calls: 1
            }
        );
        assert_eq!(sum["cpu"].self_ns, 10);
        assert_eq!(sum["snap"].self_ns, 20);
        assert!(!sum.contains_key("obs"), "probes are outside every op");
        let total: i64 = sum.values().map(|t| t.self_ns).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn tracer_nests_and_is_free_when_off() {
        let mut t = Tracer::new(true);
        t.set_op(3);
        t.enter("op");
        let v = t.span("core.run", || 41 + 1);
        t.exit();
        assert_eq!(v, 42);
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[1].op, 3);
        assert!(t.spans[0].end_ns >= t.spans[1].end_ns);
        let bal = op_balance(&t.spans);
        assert_eq!(bal[0].1, bal[0].2);

        let mut off = Tracer::new(false);
        off.enter("op");
        assert_eq!(off.span("core.run", || 7), 7);
        off.exit();
        assert!(off.spans.is_empty());
    }

    #[test]
    fn adopted_replay_steps_leave_the_remainder_on_the_op() {
        let mut t = Tracer::new(true);
        t.set_op(0);
        let t0 = Instant::now();
        t.record("op", t0, t0 + std::time::Duration::from_micros(100));
        t.record(
            "snap.fork_child",
            t0 + std::time::Duration::from_micros(120),
            t0 + std::time::Duration::from_micros(150),
        );
        assert_eq!(t.adopt(1, 0), 30_000);
        assert!(t.spans[1].replayed);
        assert_eq!(self_times(&t.spans), vec![70_000, 30_000]);
        assert_eq!(op_balance(&t.spans), vec![(0, 100_000, 100_000)]);
        assert!(chrome_json(&t.spans, "vaxd_fork").contains("\"tid\":2"));
    }

    #[test]
    fn chrome_export_is_one_event_per_span() {
        let json = chrome_json(&sample(), "e8_vm");
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 5);
        assert!(json.contains("\"name\":\"snap.delta_capture\",\"cat\":\"snap\""));
        assert!(json.contains("\"op\":null"));
    }
}
