//! The convergence workloads: the paper's protocols run to silence from
//! arbitrary configurations.
//!
//! * `converge-central` — 32 instances each of MIS on `ring(1500)` and
//!   `ba(1500,3)` and MATCHING on `ring(1500)` under the campaign's
//!   `central-random` daemon: one activation per step but O(n) selection
//!   and a full silence predicate every step, so the scheduler and check
//!   layers dominate.
//! * `converge-dense` — n = 10⁵ under synchronous and distributed-random
//!   daemons: Θ(n) activations per step, so guard refresh, activation and
//!   merge dominate, over a working set larger than a core's L2.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use selfstab_analysis::campaign::DaemonSpec;
use selfstab_core::{Coloring, Matching, Mis};
use selfstab_graph::{generators, Graph};
use selfstab_runtime::{Protocol, SimOptions, Simulation};

use crate::cells::{activations, arbitrary_config, converge_cell, derive, Oracle};
use crate::layers::Snapshot;
use crate::{Bench, Layers, Tracer, UnitOutcome};

#[derive(Clone, Copy, PartialEq)]
enum Family {
    Ring(usize),
    /// Barabási–Albert with `n` processes attaching to 3 each.
    Ba(usize),
}

#[derive(Clone, Copy)]
enum Kind {
    Mis,
    Coloring,
    Matching,
}

/// A protocol with its arbitrary initial configuration.
enum Input {
    Mis(Mis, Vec<<Mis as Protocol>::State>),
    Coloring(Coloring, Vec<<Coloring as Protocol>::State>),
    Matching(Matching, Vec<<Matching as Protocol>::State>),
}

struct Cell {
    graph: usize,
    daemon: DaemonSpec,
    input: Input,
    sim_seed: u64,
}

/// The prepared inputs of a convergence workload.
pub struct Cells {
    graphs: Vec<Graph>,
    cells: Vec<Cell>,
}

fn build_graph(family: Family, seed: u64) -> Graph {
    match family {
        Family::Ring(n) => generators::ring(n),
        Family::Ba(n) => generators::barabasi_albert(n, 3, &mut StdRng::seed_from_u64(seed))
            .expect("n > 3 processes"),
    }
}

/// Builds the graphs, protocols and arbitrary configurations of
/// `instances` independent copies of the cells in `specs`, and constructs
/// each cell's simulation once. Rings are shared; every instance draws its
/// own Barabási–Albert graph and its own configurations.
fn prepare(seed: u64, specs: &[(Kind, Family, DaemonSpec)], instances: u64) -> (Cells, f64) {
    let mut keys: Vec<(Family, u64)> = Vec::new();
    let mut graphs = Vec::new();
    let mut graph_s = 0.0;
    let mut cells = Vec::new();
    for instance in 0..instances {
        for (i, &(kind, family, daemon)) in specs.iter().enumerate() {
            let key = match family {
                Family::Ring(_) => (family, 0),
                Family::Ba(_) => (family, instance),
            };
            let graph_index = match keys.iter().position(|&k| k == key) {
                Some(j) => j,
                None => {
                    let started = Instant::now();
                    graphs.push(build_graph(
                        family,
                        derive(seed, 1 + 1000 * instance + i as u64),
                    ));
                    graph_s += started.elapsed().as_secs_f64();
                    keys.push(key);
                    graphs.len() - 1
                }
            };
            let graph = &graphs[graph_index];
            let stream = 1000 * instance + i as u64;
            let config_seed = derive(seed, 100 + stream);
            let input = match kind {
                Kind::Mis => {
                    let p = Mis::with_greedy_coloring(graph);
                    let c = arbitrary_config(graph, &p, config_seed);
                    construct_once(graph, &p, &c, daemon);
                    Input::Mis(p, c)
                }
                Kind::Coloring => {
                    let p = Coloring::new(graph);
                    let c = arbitrary_config(graph, &p, config_seed);
                    construct_once(graph, &p, &c, daemon);
                    Input::Coloring(p, c)
                }
                Kind::Matching => {
                    let p = Matching::with_greedy_coloring(graph);
                    let c = arbitrary_config(graph, &p, config_seed);
                    construct_once(graph, &p, &c, daemon);
                    Input::Matching(p, c)
                }
            };
            cells.push(Cell {
                graph: graph_index,
                daemon,
                input,
                sim_seed: derive(seed, 200 + stream),
            });
        }
    }
    (Cells { graphs, cells }, graph_s)
}

/// The simulation construction that belongs to set-up.
fn construct_once<P: Protocol + Clone>(
    graph: &Graph,
    p: &P,
    config: &[P::State],
    daemon: DaemonSpec,
) {
    let sim = Simulation::with_config(
        graph,
        p.clone(),
        daemon.build(graph),
        config.to_vec(),
        0,
        SimOptions::default(),
    );
    std::hint::black_box(&sim);
}

/// Runs one cell and folds its figures into `out`.
fn run_cell<P: Oracle>(
    graph: &Graph,
    protocol: &P,
    config: &[P::State],
    cell: &Cell,
    tracer: Option<&mut Tracer>,
    out: &mut UnitOutcome,
) {
    let counters = tracer.as_ref().map(|t| &t.counters);
    let before = counters.map(|c| c.snapshot()).unwrap_or_default();
    let (run, ok) = converge_cell(
        graph,
        protocol,
        cell.daemon,
        config,
        cell.sim_seed,
        counters,
    );
    out.seconds += run.total_s;
    out.latencies_ms.push(run.total_s * 1e3);
    let work = activations(&run.stats);
    out.work += work;
    out.attempted += 1;
    out.failed += u64::from(!ok);
    out.digest.push(run.stats.digest());
    if let Some(t) = tracer {
        let d = t.counters.snapshot().since(&before);
        let mut fields = d.fields();
        fields.push(("construct_s", run.construct_s));
        fields.push(("run_s", run.run_s));
        let span = format!("cell {} {}", protocol.name(), cell.daemon.name());
        t.spans.record(span, t.parent, run.total_s, &fields);
        fold(
            &mut out.layers,
            &d,
            run.construct_s,
            run.run_s,
            run.stats.steps,
            work,
            run.guard_evals,
            run.stats.total_read_operations(),
        );
    }
}

/// Adds one traced run's figures to the unit's per-layer values.
#[allow(clippy::too_many_arguments)]
pub fn fold(
    layers: &mut Layers,
    d: &Snapshot,
    construct_s: f64,
    run_s: f64,
    steps: u64,
    activations: u64,
    guard_evals: u64,
    reads: u64,
) {
    let mut add = |name: &'static str, value: f64| *layers.entry(name).or_default() += value;
    add("executor.construct_s", construct_s);
    add("executor.step_self_s", run_s - d.children_s());
    add("executor.steps", steps as f64);
    add("executor.activations", activations as f64);
    add("executor.guard_evals", guard_evals as f64);
    add("scheduler.select_s", d.select.seconds());
    add("protocol.guard_s", d.guard.seconds());
    add("protocol.guard_calls", d.guard.calls as f64);
    add("protocol.activate_s", d.activate.seconds());
    add("protocol.activate_calls", d.activate.calls as f64);
    add("check.s", d.check.seconds());
    add("check.calls", d.check.calls as f64);
    // Totals the ratios below are computed from.
    add("select_calls", d.select.calls as f64);
    add("selected", d.selected as f64);
    add("executed", d.executed as f64);
    add("reads", reads as f64);
}

/// Turns the totals left by [`fold`] into the per-layer ratios.
pub fn finish(layers: &mut Layers) {
    let get = |layers: &Layers, name: &str| layers.get(name).copied().unwrap_or(0.0);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let activations = get(layers, "executor.activations");
    let ratios = [
        (
            "executor.guard_evals_per_activation",
            ratio(get(layers, "executor.guard_evals"), activations),
        ),
        (
            "scheduler.select_ns_per_call",
            ratio(
                get(layers, "scheduler.select_s") * 1e9,
                get(layers, "select_calls"),
            ),
        ),
        (
            "protocol.executed_share",
            ratio(get(layers, "executed"), get(layers, "selected")),
        ),
        (
            "protocol.reads_per_activation",
            ratio(get(layers, "reads"), activations),
        ),
    ];
    for (name, value) in ratios {
        layers.insert(name, value);
    }
    for total in ["select_calls", "selected", "executed", "reads"] {
        layers.remove(total);
    }
}

/// The layers whose self times partition a simulation unit.
const SIM_SELF_TIMES: &[&str] = &[
    "executor.construct_s",
    "executor.step_self_s",
    "scheduler.select_s",
    "protocol.guard_s",
    "protocol.activate_s",
    "check.s",
];

impl Cells {
    fn unit(&self, mut tracer: Option<&mut Tracer>) -> UnitOutcome {
        let mut out = UnitOutcome::default();
        for cell in &self.cells {
            let graph = &self.graphs[cell.graph];
            let t = tracer.as_deref_mut();
            match &cell.input {
                Input::Mis(p, c) => run_cell(graph, p, c, cell, t, &mut out),
                Input::Coloring(p, c) => run_cell(graph, p, c, cell, t, &mut out),
                Input::Matching(p, c) => run_cell(graph, p, c, cell, t, &mut out),
            }
        }
        if tracer.is_some() {
            finish(&mut out.layers);
        }
        out
    }
}

/// `converge-central`.
pub struct Central(Cells);

impl Bench for Central {
    const NOMINAL_UNIT_S: f64 = 2.0;
    const SETUP_REPS: usize = 21;
    const SELF_TIMES: &'static [&'static str] = SIM_SELF_TIMES;

    /// Thirty-two instances at n = 1,500 rather than one at n = 10⁴: the
    /// early-exit silence check makes a cell's cost per activation differ
    /// 2-3x between seeds, and the latency percentiles need many cells to
    /// stop resting on the few slowest.
    fn setup(seed: u64) -> Result<(Self, f64), String> {
        let central = DaemonSpec::CentralRandomEnabled;
        let n = 1_500;
        let (cells, graph_s) = prepare(
            seed,
            &[
                (Kind::Mis, Family::Ring(n), central),
                (Kind::Mis, Family::Ba(n), central),
                (Kind::Matching, Family::Ring(n), central),
            ],
            32,
        );
        Ok((Central(cells), graph_s))
    }

    fn unit(&self, tracer: Option<&mut Tracer>) -> UnitOutcome {
        self.0.unit(tracer)
    }
}

/// `converge-dense`, run by hand only: host memory contention moves it
/// too much for `BENCHMARK.json` (see README.md).
pub struct Dense(Cells);

impl Bench for Dense {
    const NOMINAL_UNIT_S: f64 = 2.0;
    const SETUP_REPS: usize = 9;
    const SELF_TIMES: &'static [&'static str] = SIM_SELF_TIMES;

    fn setup(seed: u64) -> Result<(Self, f64), String> {
        let sync = DaemonSpec::Synchronous;
        let dr = DaemonSpec::DistributedRandom(0.5);
        let n = 100_000;
        let (cells, graph_s) = prepare(
            seed,
            &[
                (Kind::Mis, Family::Ba(n), sync),
                (Kind::Mis, Family::Ring(n), dr),
                (Kind::Coloring, Family::Ring(n), dr),
                (Kind::Matching, Family::Ring(n), sync),
            ],
            1,
        );
        Ok((Dense(cells), graph_s))
    }

    fn unit(&self, tracer: Option<&mut Tracer>) -> UnitOutcome {
        self.0.unit(tracer)
    }
}
