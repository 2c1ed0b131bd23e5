//! Shared pieces of the simulation workloads: seed derivation, the
//! independent output oracles, and one simulation cell run either plain or
//! through the tracing wrappers.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use selfstab_analysis::campaign::DaemonSpec;
use selfstab_core::{Coloring, Matching, Mis};
use selfstab_graph::{verify, Graph};
use selfstab_runtime::{Protocol, RunStats, Scheduler, SimOptions, Simulation};

use crate::layers::{Counters, TracedProtocol, TracedScheduler};

/// Step budget of every convergence run, the campaign default
/// (`ExperimentConfig::default().max_steps`).
pub const MAX_STEPS: u64 = 2_000_000;

/// Derives an independent seed for input `stream` from the workload seed
/// (splitmix64 finalizer).
pub fn derive(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A protocol whose final configuration can be checked by the independent
/// `selfstab_graph::verify` predicates.
pub trait Oracle: Protocol + Clone {
    /// Whether `config` is a correct output of the protocol's problem.
    fn output_ok(&self, graph: &Graph, config: &[Self::State]) -> bool;
}

impl Oracle for Mis {
    fn output_ok(&self, graph: &Graph, config: &[Self::State]) -> bool {
        verify::is_maximal_independent_set(graph, &Mis::output(config))
    }
}

impl Oracle for Coloring {
    fn output_ok(&self, graph: &Graph, config: &[Self::State]) -> bool {
        verify::is_proper_coloring(graph, &Coloring::output(config))
    }
}

impl Oracle for Matching {
    /// The matched edges are those of Figure 10's `inMM` predicate: mutual
    /// `PR` pointers, with `cur` on the edge at one end at least. They are
    /// collected here in O(m); `Matching::output` finds the same set with a
    /// linear search per edge, which takes seconds at n = 10⁵.
    fn output_ok(&self, graph: &Graph, config: &[Self::State]) -> bool {
        let mut edges = Vec::new();
        for p in graph.nodes() {
            let state = config[p.index()];
            let Some(port) = state.pr.filter(|port| port.index() < graph.degree(p)) else {
                continue;
            };
            let q = graph.neighbor(p, port);
            let back = graph.port_to(q, p);
            let q_state = config[q.index()];
            if q_state.pr == back && (state.cur == port || back == Some(q_state.cur)) {
                edges.push(if p < q { (p, q) } else { (q, p) });
            }
        }
        edges.sort_unstable();
        edges.dedup();
        verify::is_maximal_matching(graph, &edges)
    }
}

/// An arbitrary initial configuration, drawn exactly as
/// `Simulation::new` draws one.
pub fn arbitrary_config<P: Protocol>(graph: &Graph, protocol: &P, seed: u64) -> Vec<P::State> {
    let mut rng = StdRng::seed_from_u64(seed);
    graph
        .nodes()
        .map(|p| protocol.arbitrary_state(graph, p, &mut rng))
        .collect()
}

/// Sum of activations over every process.
pub fn activations(stats: &RunStats) -> u64 {
    stats.processes().iter().map(|p| p.activations).sum()
}

/// What one convergence cell produced.
pub struct CellRun<S> {
    /// Construction through extraction of the final configuration.
    pub total_s: f64,
    pub construct_s: f64,
    pub run_s: f64,
    pub silent: bool,
    pub legitimate: bool,
    pub stats: RunStats,
    pub guard_evals: u64,
    pub config: Vec<S>,
}

/// Builds a simulation from `config` and runs it until silent, timing
/// construction and run separately.
pub fn converge<P: Protocol, S: Scheduler>(
    graph: &Graph,
    protocol: P,
    scheduler: S,
    config: &[P::State],
    seed: u64,
) -> CellRun<P::State> {
    let total = Instant::now();
    let started = Instant::now();
    let mut sim = Simulation::with_config(
        graph,
        protocol,
        scheduler,
        config.to_vec(),
        seed,
        SimOptions::default(),
    );
    let construct_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let report = sim.run_until_silent(MAX_STEPS);
    let run_s = started.elapsed().as_secs_f64();
    let guard_evals = sim.guard_evaluations();
    let (config, stats, _) = sim.into_parts();
    CellRun {
        total_s: total.elapsed().as_secs_f64(),
        construct_s,
        run_s,
        silent: report.silent,
        legitimate: report.legitimate,
        stats,
        guard_evals,
        config,
    }
}

/// [`converge`] with the protocol and scheduler wrapped in the tracing
/// layers when `counters` is given.
pub fn converge_cell<P: Oracle>(
    graph: &Graph,
    protocol: &P,
    daemon: DaemonSpec,
    config: &[P::State],
    seed: u64,
    counters: Option<&Counters>,
) -> (CellRun<P::State>, bool) {
    let run = match counters {
        None => converge(graph, protocol.clone(), daemon.build(graph), config, seed),
        Some(c) => converge(
            graph,
            TracedProtocol::new(protocol.clone(), c),
            TracedScheduler::new(daemon.build(graph), c),
            config,
            seed,
        ),
    };
    let ok = run.silent && run.legitimate && protocol.output_ok(graph, &run.config);
    (run, ok)
}
