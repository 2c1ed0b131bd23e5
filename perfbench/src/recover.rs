//! The `recover` workload: MIS and COLORING are stabilized once on each of
//! 24 `ba(2500,3)` graphs during set-up; every unit restarts each protocol
//! from its stabilized configuration and cycles E14's fault scenarios
//! (`FaultPlanSpec::recovery_set` at a 1% load) through `run_fault_plan`
//! under `central-round-robin`: 960 distinct recoveries per unit. Many
//! small graphs rather than a few of 10⁴ processes: recovery latencies have
//! a long tail (COLORING's slowest recoveries), and with 240 recoveries of
//! `ba(10⁴,3)` per unit the p90's spread over six seeds was 0.28.
//!
//! Under this daemon selection is O(1), so the cost is single-activation
//! stepping, dirty-set repair after injection and the per-round predicate
//! checks. `central-random` is not used: under it MIS stays guard-enabled
//! after silence, no round completes, and `run_fault_plan` never reports
//! recovery.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use selfstab_analysis::campaign::{DaemonSpec, FaultPlanSpec};
use selfstab_core::{Coloring, Mis};
use selfstab_graph::{generators, Graph};
use selfstab_runtime::telemetry::metrics;
use selfstab_runtime::{
    run_fault_plan, FaultInjector, FaultLoad, FaultPlan, Protocol, Scheduler, SimOptions,
    Simulation,
};

use crate::cells::{activations, arbitrary_config, converge, derive, Oracle, MAX_STEPS};
use crate::converge::{finish, fold};
use crate::layers::{Counters, SpanLog, TracedProtocol, TracedScheduler};
use crate::{Bench, Tracer, UnitOutcome};

/// Graphs per unit.
const GRAPHS: u64 = 24;
/// Processes per graph.
const N: usize = 2_500;
/// Fault-plan runs per protocol and graph in a unit: the five scenarios of
/// the recovery set, cycled.
const RECOVERIES: usize = 20;

pub struct Recover(Vec<Instance>);

/// One graph with both protocols' stabilized configurations.
struct Instance {
    graph: Graph,
    mis: (Mis, Vec<<Mis as Protocol>::State>),
    coloring: (Coloring, Vec<<Coloring as Protocol>::State>),
    fault_seed: u64,
    sim_seed: u64,
}

/// Runs `protocol` to silence from an arbitrary configuration and returns
/// the stabilized configuration.
fn stabilize<P: Oracle>(graph: &Graph, protocol: &P, seed: u64) -> Result<Vec<P::State>, String> {
    let config = arbitrary_config(graph, protocol, seed);
    let daemon = DaemonSpec::DistributedRandom(0.5);
    let run = converge(graph, protocol.clone(), daemon.build(graph), &config, seed);
    if run.silent && run.legitimate && protocol.output_ok(graph, &run.config) {
        Ok(run.config)
    } else {
        Err(format!(
            "{} did not stabilize during set-up",
            protocol.name()
        ))
    }
}

impl Bench for Recover {
    const NOMINAL_UNIT_S: f64 = 2.6;
    const SETUP_REPS: usize = 7;
    const SELF_TIMES: &'static [&'static str] = &[
        "executor.construct_s",
        "executor.step_self_s",
        "scheduler.select_s",
        "protocol.guard_s",
        "protocol.activate_s",
        "check.s",
        "faults.inject_s",
    ];

    fn setup(seed: u64) -> Result<(Self, f64), String> {
        let mut graph_s = 0.0;
        let mut instances = Vec::new();
        for i in 0..GRAPHS {
            let stream = |k: u64| derive(seed, 10 * i + k);
            let started = Instant::now();
            let graph = generators::barabasi_albert(N, 3, &mut StdRng::seed_from_u64(stream(1)))
                .expect("n > 3 processes");
            graph_s += started.elapsed().as_secs_f64();
            let mis = Mis::with_greedy_coloring(&graph);
            let mis_config = stabilize(&graph, &mis, stream(2))?;
            let coloring = Coloring::new(&graph);
            let coloring_config = stabilize(&graph, &coloring, stream(3))?;
            instances.push(Instance {
                graph,
                mis: (mis, mis_config),
                coloring: (coloring, coloring_config),
                fault_seed: stream(4),
                sim_seed: stream(5),
            });
        }
        Ok((Recover(instances), graph_s))
    }

    fn unit(&self, tracer: Option<&mut Tracer>) -> UnitOutcome {
        let Some(tracer) = tracer else {
            return self.pass(None);
        };
        let mut out = self.pass(Some(&mut *tracer));
        // The fault layer is timed by the runtime's own injection
        // histogram. It records only while metrics are on, and metrics also
        // time every step, so it gets a second, untimed pass of the same
        // work instead of sharing the wrapped one.
        let registry = metrics::global();
        let inject_ns = registry.fault_histogram().total_ns();
        metrics::set_enabled(true);
        let span = tracer.spans.open("faults pass (metrics on)", tracer.parent);
        let check = self.pass(None);
        metrics::set_enabled(false);
        let inject_s = (registry.fault_histogram().total_ns() - inject_ns) as f64 / 1e9;
        tracer.spans.close(span, &[("inject_s", inject_s)]);
        out.attempted += 1;
        out.failed += u64::from(check.digest != out.digest);
        out.layers.insert("faults.inject_s", inject_s);
        // The wrapped recoveries include their injections.
        *out.layers.entry("executor.step_self_s").or_default() -= inject_s;
        finish(&mut out.layers);
        out
    }
}

impl Recover {
    /// Every graph's and protocol's recoveries of one unit.
    fn pass(&self, mut tracer: Option<&mut Tracer>) -> UnitOutcome {
        let mut out = UnitOutcome::default();
        let plans: Vec<FaultPlan> = FaultPlanSpec::recovery_set(FaultLoad::Fraction(0.01))
            .iter()
            .map(FaultPlanSpec::build)
            .collect();
        for instance in &self.0 {
            let (mis, mis_config) = &instance.mis;
            instance.protocol(mis, mis_config, &plans, tracer.as_deref_mut(), &mut out);
            let (coloring, coloring_config) = &instance.coloring;
            instance.protocol(
                coloring,
                coloring_config,
                &plans,
                tracer.as_deref_mut(),
                &mut out,
            );
        }
        out
    }
}

impl Instance {
    /// Recovers `protocol` from every fault plan run of one unit.
    fn protocol<P: Oracle>(
        &self,
        protocol: &P,
        stabilized: &[P::State],
        plans: &[FaultPlan],
        tracer: Option<&mut Tracer>,
        out: &mut UnitOutcome,
    ) {
        let graph = &self.graph;
        let scheduler = DaemonSpec::CentralRoundRobin.build(graph);
        let config = match tracer {
            None => self.drive(protocol.clone(), scheduler, stabilized, plans, None, out),
            Some(Tracer {
                counters,
                spans,
                parent,
            }) => self.drive(
                TracedProtocol::new(protocol.clone(), counters),
                TracedScheduler::new(scheduler, counters),
                stabilized,
                plans,
                Some((counters, spans, *parent)),
                out,
            ),
        };
        // The final configuration must be a correct output too.
        out.attempted += 1;
        out.failed += u64::from(!protocol.output_ok(graph, &config));
    }

    /// Builds the simulation and runs the fault plans; returns the final
    /// configuration.
    fn drive<P: Protocol, S: Scheduler>(
        &self,
        protocol: P,
        scheduler: S,
        stabilized: &[P::State],
        plans: &[FaultPlan],
        mut trace: Option<(&Counters, &mut SpanLog, Option<usize>)>,
        out: &mut UnitOutcome,
    ) -> Vec<P::State> {
        let graph = &self.graph;
        let started = Instant::now();
        let mut sim = Simulation::with_config(
            graph,
            protocol,
            scheduler,
            stabilized.to_vec(),
            self.sim_seed,
            SimOptions::default(),
        );
        let construct_s = started.elapsed().as_secs_f64();
        out.seconds += construct_s;
        out.extra_ms.push(construct_s * 1e3);
        *out.layers.entry("executor.construct_s").or_default() += construct_s;
        let mut injector = FaultInjector::new(graph);
        let mut rng = StdRng::seed_from_u64(self.fault_seed);
        for i in 0..RECOVERIES {
            let before = trace
                .as_ref()
                .map(|(c, _, _)| c.snapshot())
                .unwrap_or_default();
            let (guard_evals, reads, activations_before) = (
                sim.guard_evaluations(),
                sim.stats().total_read_operations(),
                activations(sim.stats()),
            );
            let started = Instant::now();
            let telemetry = run_fault_plan(
                &mut sim,
                &plans[i % plans.len()],
                &mut injector,
                &mut rng,
                MAX_STEPS,
            );
            let seconds = started.elapsed().as_secs_f64();
            out.seconds += seconds;
            out.latencies_ms.push(seconds * 1e3);
            out.attempted += 1;
            out.failed += u64::from(!(telemetry.recovered && telemetry.legitimate));
            if let Some((counters, spans, parent)) = trace.as_mut() {
                let d = counters.snapshot().since(&before);
                let victims: usize = telemetry.injections.iter().map(|r| r.victims).sum();
                let mut fields = d.fields();
                fields.push(("victims", victims as f64));
                spans.record(
                    format!("recovery {} {i}", sim.protocol().name()),
                    *parent,
                    seconds,
                    &fields,
                );
                fold(
                    &mut out.layers,
                    &d,
                    0.0,
                    seconds,
                    telemetry.steps,
                    activations(sim.stats()) - activations_before,
                    sim.guard_evaluations() - guard_evals,
                    sim.stats().total_read_operations() - reads,
                );
                let mut add =
                    |name: &'static str, value: f64| *out.layers.entry(name).or_default() += value;
                add("faults.victims", victims as f64);
                add("faults.recovery_steps", telemetry.steps as f64);
                add(
                    "faults.recovery_rounds",
                    telemetry.recovery_rounds.unwrap_or(0) as f64,
                );
            }
        }
        out.work += activations(sim.stats());
        out.digest.push(sim.stats().digest());
        sim.into_parts().0
    }
}
