//! Mid-round fault injection keeps the incremental enabled set sound,
//! under every daemon.
//!
//! [`Simulation::set_state`] mutates configuration outside the normal
//! activation path; its dirty-marking (victim + whole neighborhood) must
//! leave the maintained enabled set equal to a from-scratch recomputation
//! regardless of *when* the injection lands and *which* daemon drives the
//! run. Two daemons carry extra cross-step state that an injection does
//! not pass through — [`LocallyCentral`] holds its shuffle scratch across
//! steps, and [`Fair`]'s window bookkeeping never sees the injected
//! process as "selected" — so this regression test drives an incremental
//! executor and a [`SimOptions::with_full_recompute`] reference in
//! lockstep, injecting the same faults **mid-round**, and asserts after
//! every injection and every step that the two agree on the enabled
//! flags, the configuration, and the observable statistics.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use selfstab_graph::{generators, Graph, NodeId, Port};
use selfstab_runtime::faults::{BallCenter, FaultInjector, FaultLoad, FaultModel};
use selfstab_runtime::protocol::Protocol;
use selfstab_runtime::scheduler::{
    CentralRandom, CentralRoundRobin, DistributedRandom, Fair, LocallyCentral, Scheduler,
    StarvingAdversary, Synchronous,
};
use selfstab_runtime::view::NeighborView;
use selfstab_runtime::{SimOptions, Simulation};

/// Minimum-propagation protocol (the executor test workhorse): guards read
/// every neighbor, so every injection flips guards across the whole
/// victim neighborhood — the worst case for dirty-marking.
struct MinValue;

impl Protocol for MinValue {
    type State = u32;
    type Comm = u32;

    fn name(&self) -> &'static str {
        "min-value"
    }

    fn arbitrary_state(&self, _graph: &Graph, _p: NodeId, rng: &mut dyn RngCore) -> u32 {
        rand::Rng::gen_range(rng, 0..1000)
    }

    fn comm(&self, _p: NodeId, state: &u32) -> u32 {
        *state
    }

    fn is_enabled(
        &self,
        graph: &Graph,
        p: NodeId,
        state: &u32,
        view: &NeighborView<'_, u32>,
    ) -> bool {
        (0..graph.degree(p)).any(|i| view.read(Port::new(i)) < state)
    }

    fn activate(
        &self,
        graph: &Graph,
        p: NodeId,
        state: &u32,
        view: &NeighborView<'_, u32>,
        _rng: &mut dyn RngCore,
    ) -> Option<u32> {
        let min = (0..graph.degree(p))
            .map(|i| *view.read(Port::new(i)))
            .min()
            .unwrap_or(*state);
        (min < *state).then_some(min)
    }

    fn comm_bits(&self, _graph: &Graph, _p: NodeId) -> u64 {
        32
    }

    fn state_bits(&self, _graph: &Graph, _p: NodeId) -> u64 {
        32
    }

    fn is_legitimate(&self, _graph: &Graph, config: &[u32]) -> bool {
        let min = config.iter().min().copied().unwrap_or(0);
        config.iter().all(|&v| v == min)
    }
}

/// The structured fault models an injection cycle rotates through.
fn models() -> [FaultModel; 4] {
    [
        FaultModel::Uniform(FaultLoad::Count(2)),
        FaultModel::DegreeTargeted(FaultLoad::Count(2)),
        FaultModel::Ball {
            center: BallCenter::Random,
            radius: 1,
        },
        FaultModel::StuckAt(FaultLoad::Count(1)),
    ]
}

/// Drives the incremental executor and the full-recompute reference in
/// lockstep under one daemon, injecting identical faults mid-round, and
/// asserts the enabled sets (and every observable) never diverge.
fn assert_fault_equivalence<S: Scheduler>(graph: &Graph, make: impl Fn() -> S, daemon: &str) {
    let seed = 0xFA017;
    let mut fast = Simulation::new(graph, MinValue, make(), seed, SimOptions::default());
    let mut reference = Simulation::new(
        graph,
        MinValue,
        make(),
        seed,
        SimOptions::default().with_full_recompute(),
    );
    let mut fast_injector = FaultInjector::new(graph);
    let mut reference_injector = FaultInjector::new(graph);
    let mut fast_rng = StdRng::seed_from_u64(99);
    let mut reference_rng = StdRng::seed_from_u64(99);

    let models = models();
    for cycle in 0..12usize {
        // 7 steps between injections: coprime with every round length in
        // play, so injections keep landing mid-round (verified below to
        // actually happen at least once per daemon).
        for _ in 0..7 {
            fast.step();
            reference.step();
            assert_eq!(
                fast.enabled_set().to_flags(),
                reference.enabled_set().to_flags(),
                "{daemon}: enabled sets diverged while stepping (cycle {cycle})"
            );
        }
        let model = models[cycle % models.len()];
        let fast_victims = fast_injector
            .inject(&mut fast, model, &mut fast_rng)
            .to_vec();
        let reference_victims = reference_injector
            .inject(&mut reference, model, &mut reference_rng)
            .to_vec();
        assert_eq!(
            fast_victims, reference_victims,
            "{daemon}: victim selection must be executor-independent"
        );
        assert_eq!(
            fast.config(),
            reference.config(),
            "{daemon}: configurations diverged right after injection (cycle {cycle}, {model})"
        );
        // The heart of the regression: the post-injection enabled set of
        // the incremental executor equals the full recomputation's.
        assert_eq!(
            fast.enabled_set().to_flags(),
            reference.enabled_set().to_flags(),
            "{daemon}: post-injection enabled set diverged (cycle {cycle}, {model})"
        );
    }
    // After the storm, both runs settle to the same silent point with the
    // same observable statistics.
    let fast_report = fast.run_until_silent(100_000);
    let reference_report = reference.run_until_silent(100_000);
    assert_eq!(fast_report, reference_report, "{daemon}: reports diverged");
    assert!(fast_report.silent, "{daemon}: must re-stabilize");
    assert_eq!(fast.config(), reference.config());
    assert_eq!(fast.stats(), reference.stats(), "{daemon}: stats diverged");
}

#[test]
fn post_injection_enabled_set_matches_full_recompute_under_every_daemon() {
    let grid = generators::grid(4, 5);
    assert_fault_equivalence(&grid, || Synchronous, "synchronous");
    assert_fault_equivalence(&grid, CentralRoundRobin::new, "central-round-robin");
    assert_fault_equivalence(&grid, CentralRandom::enabled_only, "central-random-enabled");
    assert_fault_equivalence(&grid, || DistributedRandom::new(0.4), "distributed-random");
    // The two daemons the audit singled out: LocallyCentral holds shuffle
    // scratch across steps; Fair's window bookkeeping never marks injected
    // processes as selected.
    assert_fault_equivalence(&grid, || LocallyCentral::new(&grid, 0.5), "locally-central");
    assert_fault_equivalence(
        &grid,
        || Fair::new(DistributedRandom::new(0.05), 4),
        "fair(distributed-random)",
    );
    assert_fault_equivalence(
        &grid,
        || Fair::new(StarvingAdversary::new(), 3),
        "fair(starving-adversary)",
    );
}

#[test]
fn injections_do_land_mid_round() {
    // Sanity for the test above: with 7 steps per cycle under a one-
    // process-per-step daemon on 20 processes, injections land strictly
    // inside rounds (not at boundaries) — the timing the dirty-marking
    // audit is about.
    let graph = generators::grid(4, 5);
    let mut sim = Simulation::new(
        &graph,
        MinValue,
        CentralRoundRobin::new(),
        1,
        SimOptions::default(),
    );
    let mut mid_round = 0u32;
    for _ in 0..12 {
        sim.run_steps(7);
        if !sim.steps().is_multiple_of(graph.node_count() as u64) {
            mid_round += 1;
        }
        sim.set_state(NodeId::new(3), 0);
    }
    assert!(mid_round >= 10, "injections overwhelmingly land mid-round");
}
