//! Outside-in tracing: spans around the benchmark's calls into each crate's public API,
//! plus a forwarding [`SearchProblem`] that times the per-step calls the MCTS engine makes.
//!
//! Spans are kept in memory and written out when the run ends. Per-step calls (tens of
//! thousands of `action_count` calls per search) are not spans: they are aggregated as
//! call count + nanoseconds under the span that was open when they ran. A span's self time
//! is its duration minus the time covered by its child spans and aggregates.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use mctsui_core::InterfaceSearchProblem;
use mctsui_difftree::{DiffTree, RuleApplication};
use mctsui_mcts::SearchProblem;

use crate::util::json_str;

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, `<crate>.<what>`.
    pub name: &'static str,
    /// Request (generation or session) the span belongs to.
    pub request: u64,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

/// Calls aggregated under one span: count and total nanoseconds.
#[derive(Debug, Clone)]
pub struct Aggregate {
    /// Index of the enclosing span.
    pub parent: usize,
    /// Layer name.
    pub name: &'static str,
    /// Number of calls.
    pub calls: u64,
    /// Total time of the calls.
    pub ns: u64,
}

/// A single-threaded span recorder.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    aggregates: Vec<Aggregate>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            aggregates: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open span.
    pub fn begin(&mut self, name: &'static str, request: u64) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            request,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open span.
    pub fn end(&mut self, id: usize) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost-first"
        );
        self.spans[id].end_ns = self.now_ns();
    }

    /// Run `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, request);
        let out = f();
        self.end(id);
        out
    }

    /// Attach aggregated calls to span `parent`.
    pub fn aggregate(&mut self, parent: usize, name: &'static str, calls: u64, ns: u64) {
        if calls > 0 {
            self.aggregates.push(Aggregate {
                parent,
                name,
                calls,
                ns,
            });
        }
    }

    /// Duration of span `id` in nanoseconds.
    pub fn duration_ns(&self, id: usize) -> u64 {
        self.spans[id].end_ns - self.spans[id].start_ns
    }

    /// Self time per layer name, in nanoseconds: each span's duration minus its children
    /// (spans and aggregates); each aggregate counts whole.
    pub fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                covered[parent] += span.end_ns - span.start_ns;
            }
        }
        for agg in &self.aggregates {
            covered[agg.parent] += agg.ns;
        }
        let mut out = BTreeMap::new();
        for (id, span) in self.spans.iter().enumerate() {
            let own = (span.end_ns - span.start_ns).saturating_sub(covered[id]);
            *out.entry(span.name).or_insert(0) += own;
        }
        for agg in &self.aggregates {
            *out.entry(agg.name).or_insert(0) += agg.ns;
        }
        out
    }

    /// Total calls recorded under a layer name (spans and aggregated calls).
    pub fn calls(&self, name: &str) -> u64 {
        let spans = self.spans.iter().filter(|s| s.name == name).count() as u64;
        let aggregated: u64 = self
            .aggregates
            .iter()
            .filter(|a| a.name == name)
            .map(|a| a.calls)
            .sum();
        spans + aggregated
    }

    /// Append another tracer's spans (a second client thread) as separate roots.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        let shift = other.epoch.saturating_duration_since(self.epoch).as_nanos() as u64;
        for mut span in other.spans {
            span.parent = span.parent.map(|p| p + offset);
            span.start_ns += shift;
            span.end_ns += shift;
            self.spans.push(span);
        }
        for mut agg in other.aggregates {
            agg.parent += offset;
            self.aggregates.push(agg);
        }
    }

    /// The spans and aggregates as a JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":{},\"request\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
                json_str(s.name),
                s.request,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string())
            ));
        }
        out.push_str("],\"aggregates\":[");
        for (i, a) in self.aggregates.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"parent\":{},\"name\":{},\"calls\":{},\"ns\":{}}}",
                a.parent,
                json_str(a.name),
                a.calls,
                a.ns
            ));
        }
        out.push_str("]}");
        out
    }
}

/// The per-step calls a [`TracedProblem`] times, with their layer names.
pub const STEP_LAYERS: [&str; 8] = [
    "difftree.action_count",
    "difftree.nth_action",
    "difftree.apply",
    "difftree.actions",
    "core.initial_state",
    "cost.context",
    "cost.plan",
    "cost.eval",
];

/// A forwarding [`SearchProblem`] around [`InterfaceSearchProblem`] that times every call.
///
/// Before each `reward` it calls `context_for` and then `plan_for`, timing each, so the
/// reward's own time is the evaluation with the plan cached. Every method is forwarded
/// explicitly: the trait's `action_count`/`nth_action` defaults materialise the whole
/// fanout, and a wrapper relying on them would measure a different program.
pub struct TracedProblem {
    inner: Arc<InterfaceSearchProblem>,
    counters: [Cell<(u64, u64)>; 8],
    best: Cell<f64>,
    improvements: Cell<u64>,
}

impl TracedProblem {
    /// Wrap a problem.
    pub fn new(inner: Arc<InterfaceSearchProblem>) -> Self {
        Self {
            inner,
            counters: Default::default(),
            best: Cell::new(f64::NEG_INFINITY),
            improvements: Cell::new(0),
        }
    }

    fn timed<T>(&self, layer: usize, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let ns = start.elapsed().as_nanos() as u64;
        let (calls, total) = self.counters[layer].get();
        self.counters[layer].set((calls + 1, total + ns));
        out
    }

    /// `(calls, ns)` per entry of [`STEP_LAYERS`] since the last [`TracedProblem::drain`].
    pub fn drain(&self) -> Vec<(&'static str, u64, u64)> {
        STEP_LAYERS
            .iter()
            .zip(&self.counters)
            .map(|(name, cell)| {
                let (calls, ns) = cell.replace((0, 0));
                (*name, calls, ns)
            })
            .collect()
    }

    /// Reward calls since creation that beat every earlier reward (the first reward, the
    /// search root's prologue evaluation, does not count).
    pub fn improvements(&self) -> u64 {
        self.improvements.get()
    }
}

impl SearchProblem for TracedProblem {
    type State = DiffTree;
    type Action = RuleApplication;

    fn initial_state(&self) -> DiffTree {
        self.timed(4, || self.inner.initial_state())
    }

    fn actions(&self, state: &DiffTree) -> Vec<RuleApplication> {
        self.timed(3, || self.inner.actions(state))
    }

    fn apply(&self, state: &DiffTree, action: &RuleApplication) -> Option<DiffTree> {
        self.timed(2, || self.inner.apply(state, action))
    }

    fn action_count(&self, state: &DiffTree) -> usize {
        self.timed(0, || self.inner.action_count(state))
    }

    fn nth_action(&self, state: &DiffTree, index: usize) -> Option<RuleApplication> {
        self.timed(1, || self.inner.nth_action(state, index))
    }

    fn reward(&self, state: &DiffTree, eval_seed: u64) -> f64 {
        self.timed(5, || self.inner.context_for(state));
        self.timed(6, || self.inner.plan_for(state));
        let reward = self.timed(7, || self.inner.reward(state, eval_seed));
        let best = self.best.get();
        if reward > best {
            if best > f64::NEG_INFINITY {
                self.improvements.set(self.improvements.get() + 1);
            }
            self.best.set(reward);
        }
        reward
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_aggregates() {
        let mut t = Tracer::new();
        let root = t.begin("root", 0);
        let child = t.begin("child", 0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.aggregate(child, "step", 3, 1_000_000);
        t.end(child);
        t.end(root);
        let selfs = t.self_ns();
        let sum: u64 = selfs.values().sum();
        assert_eq!(sum, t.duration_ns(root));
        assert_eq!(selfs["step"], 1_000_000);
        assert_eq!(t.calls("step"), 3);
    }
}
