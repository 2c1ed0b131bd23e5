//! Tracing from outside the library: wrappers that implement the public
//! [`Protocol`] and [`Scheduler`] traits, forward every call to the wrapped
//! value and time it, plus the in-memory span log the traced run writes out
//! at exit.
//!
//! Hot calls (one per guard evaluation, activation or selection) are not
//! recorded as spans: each one is added to a per-layer counter, and the
//! counters are folded into the enclosing cell or recovery span.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use rand::RngCore;
use selfstab_graph::{Graph, NodeId};
use selfstab_runtime::scheduler::SchedulerContext;
use selfstab_runtime::view::NeighborView;
use selfstab_runtime::{EnabledWriter, Protocol, Scheduler, StateStore};

/// Calls into one layer: how many were made, how many of them were timed,
/// and the total time of the timed ones.
///
/// A clock read costs about 50 ns on the guests this runs on, as much as a
/// whole activation under a central daemon, so calls that run once per step
/// are timed on a pseudo-random one in [`SAMPLE_PERIOD`], the clock's own
/// cost is taken off each timing, and the total is estimated as
/// `ns * calls / sampled`.
#[derive(Debug, Default)]
pub struct Layer {
    ns: AtomicU64,
    calls: AtomicU64,
    sampled: AtomicU64,
}

/// One in this many per-step calls is timed.
pub const SAMPLE_PERIOD: u64 = 16;

/// Adds `by` to a statistic and returns its old value. Every field is a
/// statistic that publishes no other data, hence `Relaxed`; and only the
/// simulation's own thread calls the wrappers (the default `SimOptions`
/// run every phase on the calling thread), so a plain load and store
/// replaces the costlier atomic read-modify-write.
fn bump(counter: &AtomicU64, by: u64) -> u64 {
    let old = counter.load(Ordering::Relaxed);
    counter.store(old + by, Ordering::Relaxed);
    old
}

/// What the two clock reads around an empty call cost: the least of a
/// thousand tries, measured once.
fn clock_overhead_ns() -> u64 {
    static OVERHEAD: OnceLock<u64> = OnceLock::new();
    *OVERHEAD.get_or_init(|| {
        (0..1000)
            .map(|_| Instant::now().elapsed().as_nanos() as u64)
            .min()
            .unwrap_or(0)
    })
}

impl Layer {
    /// Runs `f`, timing it when call number `calls` is drawn for timing
    /// (every call when `period` is 1).
    fn timed<T>(&self, period: u64, f: impl FnOnce() -> T) -> T {
        let call = bump(&self.calls, 1);
        if period > 1 && !crate::cells::derive(call, 0x5A3).is_multiple_of(period) {
            return f();
        }
        let overhead = clock_overhead_ns();
        let started = Instant::now();
        let value = f();
        let ns = started.elapsed().as_nanos() as u64;
        bump(&self.ns, ns.saturating_sub(overhead));
        bump(&self.sampled, 1);
        value
    }

    fn snapshot(&self) -> LayerSnapshot {
        LayerSnapshot {
            ns: self.ns.load(Ordering::Relaxed),
            calls: self.calls.load(Ordering::Relaxed),
            sampled: self.sampled.load(Ordering::Relaxed),
        }
    }
}

#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct LayerSnapshot {
    ns: u64,
    pub calls: u64,
    sampled: u64,
}

impl LayerSnapshot {
    fn since(&self, earlier: &LayerSnapshot) -> LayerSnapshot {
        LayerSnapshot {
            ns: self.ns - earlier.ns,
            calls: self.calls - earlier.calls,
            sampled: self.sampled - earlier.sampled,
        }
    }

    /// Estimated total seconds spent in all calls.
    pub fn seconds(&self) -> f64 {
        if self.sampled == 0 {
            0.0
        } else {
            self.ns as f64 * self.calls as f64 / self.sampled as f64 / 1e9
        }
    }
}

/// Per-layer call counters shared by the wrappers of one traced run.
#[derive(Debug, Default)]
pub struct Counters {
    pub select: Layer,
    pub guard: Layer,
    pub activate: Layer,
    pub check: Layer,
    selected: AtomicU64,
    executed: AtomicU64,
}

/// A copy of [`Counters`] at one instant; differences of two snapshots
/// describe the calls made in between.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Snapshot {
    pub select: LayerSnapshot,
    pub guard: LayerSnapshot,
    pub activate: LayerSnapshot,
    pub check: LayerSnapshot,
    /// Processes the scheduler selected, and activations that executed.
    pub selected: u64,
    pub executed: u64,
}

impl Counters {
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            select: self.select.snapshot(),
            guard: self.guard.snapshot(),
            activate: self.activate.snapshot(),
            check: self.check.snapshot(),
            selected: self.selected.load(Ordering::Relaxed),
            executed: self.executed.load(Ordering::Relaxed),
        }
    }
}

impl Snapshot {
    /// The calls made since `earlier`.
    pub fn since(&self, earlier: &Snapshot) -> Snapshot {
        Snapshot {
            select: self.select.since(&earlier.select),
            guard: self.guard.since(&earlier.guard),
            activate: self.activate.since(&earlier.activate),
            check: self.check.since(&earlier.check),
            selected: self.selected - earlier.selected,
            executed: self.executed - earlier.executed,
        }
    }

    /// Estimated seconds in the scheduler, guard, activation and check
    /// calls together.
    pub fn children_s(&self) -> f64 {
        self.select.seconds()
            + self.guard.seconds()
            + self.activate.seconds()
            + self.check.seconds()
    }

    /// Named values for a span's counter list.
    pub fn fields(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("select_s", self.select.seconds()),
            ("select_calls", self.select.calls as f64),
            ("selected", self.selected as f64),
            ("guard_s", self.guard.seconds()),
            ("guard_calls", self.guard.calls as f64),
            ("activate_s", self.activate.seconds()),
            ("activate_calls", self.activate.calls as f64),
            ("executed", self.executed as f64),
            ("check_s", self.check.seconds()),
            ("check_calls", self.check.calls as f64),
        ]
    }
}

/// A protocol that forwards every method, the kernel hooks and the
/// `*_store` overrides included, to `inner`, and times the guard,
/// activation and predicate-check calls.
pub struct TracedProtocol<'c, P> {
    pub inner: P,
    counters: &'c Counters,
}

impl<'c, P> TracedProtocol<'c, P> {
    pub fn new(inner: P, counters: &'c Counters) -> Self {
        TracedProtocol { inner, counters }
    }
}

impl<P: Protocol> Protocol for TracedProtocol<'_, P> {
    type State = P::State;
    type Comm = P::Comm;

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn arbitrary_state(&self, graph: &Graph, p: NodeId, rng: &mut dyn RngCore) -> P::State {
        self.inner.arbitrary_state(graph, p, rng)
    }

    fn comm(&self, p: NodeId, state: &P::State) -> P::Comm {
        self.inner.comm(p, state)
    }

    fn is_enabled(
        &self,
        graph: &Graph,
        p: NodeId,
        state: &P::State,
        view: &NeighborView<'_, P::Comm>,
    ) -> bool {
        self.counters.guard.timed(SAMPLE_PERIOD, || {
            self.inner.is_enabled(graph, p, state, view)
        })
    }

    fn activate(
        &self,
        graph: &Graph,
        p: NodeId,
        state: &P::State,
        view: &NeighborView<'_, P::Comm>,
        rng: &mut dyn RngCore,
    ) -> Option<P::State> {
        let next = self.counters.activate.timed(SAMPLE_PERIOD, || {
            self.inner.activate(graph, p, state, view, rng)
        });
        if next.is_some() {
            bump(&self.counters.executed, 1);
        }
        next
    }

    fn comm_bits(&self, graph: &Graph, p: NodeId) -> u64 {
        self.inner.comm_bits(graph, p)
    }

    fn state_bits(&self, graph: &Graph, p: NodeId) -> u64 {
        self.inner.state_bits(graph, p)
    }

    fn is_legitimate(&self, graph: &Graph, config: &[P::State]) -> bool {
        self.counters
            .check
            .timed(1, || self.inner.is_legitimate(graph, config))
    }

    fn is_silent_config(&self, graph: &Graph, config: &[P::State]) -> bool {
        self.counters
            .check
            .timed(1, || self.inner.is_silent_config(graph, config))
    }

    fn is_legitimate_store(&self, graph: &Graph, config: &StateStore<P::State>) -> bool {
        self.counters
            .check
            .timed(1, || self.inner.is_legitimate_store(graph, config))
    }

    fn is_silent_store(&self, graph: &Graph, config: &StateStore<P::State>) -> bool {
        self.counters
            .check
            .timed(1, || self.inner.is_silent_store(graph, config))
    }

    fn has_bulk_guard_kernel(&self) -> bool {
        self.inner.has_bulk_guard_kernel()
    }

    fn refresh_guards_bulk(
        &self,
        graph: &Graph,
        config: &StateStore<P::State>,
        comm: &StateStore<P::Comm>,
        dirty: &[NodeId],
        out: &mut EnabledWriter<'_>,
    ) -> bool {
        // Untimed: the default options every workload uses leave guard
        // kernels off, so this is never reached.
        self.inner
            .refresh_guards_bulk(graph, config, comm, dirty, out)
    }
}

/// A scheduler that forwards to `inner` and times every selection.
pub struct TracedScheduler<'c, S> {
    inner: S,
    counters: &'c Counters,
}

impl<'c, S> TracedScheduler<'c, S> {
    pub fn new(inner: S, counters: &'c Counters) -> Self {
        TracedScheduler { inner, counters }
    }
}

impl<S: Scheduler> Scheduler for TracedScheduler<'_, S> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn select(&mut self, ctx: &SchedulerContext<'_>, rng: &mut dyn RngCore, out: &mut Vec<NodeId>) {
        self.counters
            .select
            .timed(SAMPLE_PERIOD, || self.inner.select(ctx, rng, out));
        bump(&self.counters.selected, out.len() as u64);
    }
}

/// One recorded span: a named interval with its parent and the counters
/// folded into it.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub counters: Vec<(&'static str, f64)>,
}

/// The traced run's span log, kept in memory until the run ends.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl SpanLog {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id.
    pub fn open(&mut self, name: impl Into<String>, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            parent,
            start_ns,
            end_ns: start_ns,
            counters: Vec::new(),
        });
        self.spans.len() - 1
    }

    /// Closes span `id` with its counters and returns its duration in
    /// seconds.
    pub fn close(&mut self, id: usize, counters: &[(&'static str, f64)]) -> f64 {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.counters.extend_from_slice(counters);
        (span.end_ns - span.start_ns) as f64 / 1e9
    }

    /// Records an already measured interval that ended just now.
    pub fn record(
        &mut self,
        name: impl Into<String>,
        parent: Option<usize>,
        seconds: f64,
        counters: &[(&'static str, f64)],
    ) {
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            parent,
            start_ns: end_ns.saturating_sub((seconds * 1e9) as u64),
            end_ns,
            counters: counters.to_vec(),
        });
    }

    /// The spans as a JSON array, one object per span.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let counters: Vec<String> = span
                .counters
                .iter()
                .map(|(k, v)| format!("\"{k}\": {v}"))
                .collect();
            out.push_str(&format!(
                "  {{\"id\": {id}, \"parent\": {parent}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"counters\": {{{}}}}}{}\n",
                span.name,
                span.start_ns,
                span.end_ns,
                counters.join(", "),
                if id + 1 == self.spans.len() { "" } else { "," }
            ));
        }
        out.push(']');
        out
    }
}
