//! Property tests for the struct-of-arrays state store.
//!
//! Two layers:
//!
//! * **Store vs model**: a columnar [`StateStore`] driven by a random
//!   get/set/roundtrip op sequence must behave exactly like the reference
//!   `Vec` model it was built from.
//! * **Execution equivalence**: a simulation using the SoA layout — with
//!   and without the bulk guard-kernel path — must be observably identical
//!   to the array-of-structs baseline under random interleavings of steps
//!   and structured fault injections, for every daemon and at
//!   `step_workers ∈ {1, 4}`. Layout and guard-refresh strategy are
//!   storage/executor concerns; if either ever leaked into configurations,
//!   enabled sets, executed lists or statistics, these properties would
//!   shrink to a minimal witness.

use proptest::prelude::*;
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
use selfstab_runtime::{EnabledWriter, SimOptions, Simulation, StateStore};

/// Minimum propagation with a randomized descent (mirrors the protocol of
/// `parallel_step_equivalence.rs`): guards read every neighbor and the
/// activation draws from the per-activation RNG, so divergence anywhere —
/// layout, RNG streams, dirty routing — lands in the configuration.
struct NoisyMin;

impl Protocol for NoisyMin {
    type State = u32;
    type Comm = u32;

    fn name(&self) -> &'static str {
        "noisy-min"
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
        rng: &mut dyn RngCore,
    ) -> Option<u32> {
        let min = (0..graph.degree(p))
            .map(|i| *view.read(Port::new(i)))
            .min()
            .unwrap_or(*state);
        if min >= *state {
            return None;
        }
        let jitter = (rng.next_u64() & 1) as u32;
        Some(min.saturating_sub(jitter.min(min)))
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

    fn has_bulk_guard_kernel(&self) -> bool {
        true
    }

    /// Bulk form of the guard: a direct scan over the `u32` columns. The
    /// kernel lanes below route dirty batches through this path, so any
    /// disagreement with the scalar `is_enabled` above shrinks to a
    /// minimal witness.
    fn refresh_guards_bulk(
        &self,
        graph: &Graph,
        config: &StateStore<u32>,
        comm: &StateStore<u32>,
        dirty: &[NodeId],
        out: &mut EnabledWriter<'_>,
    ) -> bool {
        let (Some(state), Some(comm)) = (config.columns(), comm.columns()) else {
            return false;
        };
        for &p in dirty {
            let own = state[p.index()];
            let enabled = graph
                .neighbor_slice(p)
                .iter()
                .any(|q| comm[q.index()] < own);
            out.write(p, enabled);
        }
        true
    }
}

/// One random interleaving element: execute a step, or inject a structured
/// fault (index into [`models`]).
#[derive(Debug, Clone, Copy)]
enum Op {
    Step,
    Inject(usize),
}

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

/// One executor lane: a simulation in some layout/worker configuration
/// plus its own (identically seeded) fault stream.
struct Lane<'g, S: Scheduler> {
    label: &'static str,
    sim: Simulation<'g, NoisyMin, S>,
    injector: FaultInjector,
    fault_rng: StdRng,
}

/// Drives the AoS baseline and the SoA lanes — sequential and 4-worker
/// sharded, each with the scalar guard walk and with the bulk
/// guard-kernel path forced on — through one op interleaving in lockstep
/// and asserts that no observable ever diverges.
fn assert_soa_equivalence<S: Scheduler>(
    graph: &Graph,
    make: impl Fn() -> S,
    seed: u64,
    ops: &[Op],
    daemon: &str,
) {
    let lane = |label: &'static str, options: SimOptions| Lane {
        label,
        sim: Simulation::new(graph, NoisyMin, make(), seed, options),
        injector: FaultInjector::new(graph),
        fault_rng: StdRng::seed_from_u64(seed ^ 0x5EED),
    };
    let mut baseline = lane("aos", SimOptions::default());
    let mut soa_lanes = [
        lane("soa", SimOptions::default().with_soa_layout()),
        lane(
            "soa-w4",
            SimOptions::default()
                .with_soa_layout()
                .with_step_workers(4)
                .with_parallel_work_threshold(0),
        ),
        lane(
            "soa+k",
            SimOptions::default()
                .with_soa_layout()
                .with_guard_kernels()
                .with_guard_kernel_threshold(0),
        ),
        lane(
            "soa+k-w4",
            SimOptions::default()
                .with_soa_layout()
                .with_guard_kernels()
                .with_guard_kernel_threshold(0)
                .with_step_workers(4)
                .with_parallel_work_threshold(0),
        ),
    ];
    assert!(!baseline.sim.state_store().is_soa());
    for lane in &soa_lanes {
        assert!(lane.sim.state_store().is_soa(), "u32 state is columnar");
        assert!(lane.sim.comm_store().is_soa());
    }

    let models = models();
    for (i, &op) in ops.iter().enumerate() {
        match op {
            Op::Step => {
                let expected = baseline.sim.step();
                for lane in &mut soa_lanes {
                    let outcome = lane.sim.step();
                    let label = lane.label;
                    prop_assert_eq!(
                        outcome,
                        expected,
                        "{}/{}: step outcome diverged at op {}",
                        daemon,
                        label,
                        i
                    );
                    prop_assert_eq!(
                        lane.sim.last_executed(),
                        baseline.sim.last_executed(),
                        "{}/{}: executed list diverged at op {}",
                        daemon,
                        label,
                        i
                    );
                }
            }
            Op::Inject(m) => {
                let model = models[m % models.len()];
                let expected = baseline
                    .injector
                    .inject(&mut baseline.sim, model, &mut baseline.fault_rng)
                    .to_vec();
                for lane in &mut soa_lanes {
                    let victims = lane
                        .injector
                        .inject(&mut lane.sim, model, &mut lane.fault_rng)
                        .to_vec();
                    prop_assert_eq!(
                        &victims,
                        &expected,
                        "{}/{}: victims diverged at op {}",
                        daemon,
                        lane.label,
                        i
                    );
                }
            }
        }
        // The heart of the property: the decoded configuration and the
        // maintained enabled set are byte-identical across layouts after
        // every operation.
        let expected_config = baseline.sim.config_vec();
        let expected_flags = baseline.sim.enabled_set().to_flags();
        for lane in &mut soa_lanes {
            prop_assert_eq!(
                lane.sim.config_vec(),
                expected_config.clone(),
                "{}/{}: configuration diverged at op {}",
                daemon,
                lane.label,
                i
            );
            prop_assert_eq!(
                lane.sim.enabled_set().to_flags(),
                expected_flags,
                "{}/{}: enabled flags diverged at op {}",
                daemon,
                lane.label,
                i
            );
        }
    }
    // Settle: same silent point, same stats, same report.
    let expected_report = baseline.sim.run_until_silent(100_000);
    prop_assert!(expected_report.silent, "{}: baseline must settle", daemon);
    for lane in &mut soa_lanes {
        let report = lane.sim.run_until_silent(100_000);
        prop_assert_eq!(
            report,
            expected_report,
            "{}/{}: reports diverged",
            daemon,
            lane.label
        );
        prop_assert_eq!(lane.sim.config_vec(), baseline.sim.config_vec());
        prop_assert_eq!(
            lane.sim.stats(),
            baseline.sim.stats(),
            "{}/{}: stats diverged",
            daemon,
            lane.label
        );
    }
}

/// Dispatches a daemon index to a concrete scheduler type (all seven).
fn run_with_daemon(graph: &Graph, daemon_idx: usize, seed: u64, ops: &[Op]) {
    match daemon_idx {
        0 => assert_soa_equivalence(graph, || Synchronous, seed, ops, "synchronous"),
        1 => assert_soa_equivalence(graph, CentralRoundRobin::new, seed, ops, "round-robin"),
        2 => assert_soa_equivalence(
            graph,
            CentralRandom::enabled_only,
            seed,
            ops,
            "central-random",
        ),
        3 => assert_soa_equivalence(
            graph,
            || DistributedRandom::new(0.4),
            seed,
            ops,
            "distributed-random",
        ),
        4 => assert_soa_equivalence(
            graph,
            || LocallyCentral::new(graph, 0.5),
            seed,
            ops,
            "locally-central",
        ),
        5 => assert_soa_equivalence(
            graph,
            || Fair::new(DistributedRandom::new(0.05), 4),
            seed,
            ops,
            "fair(distributed-random)",
        ),
        _ => assert_soa_equivalence(
            graph,
            || Fair::new(StarvingAdversary::new(), 3),
            seed,
            ops,
            "fair(starving-adversary)",
        ),
    }
}

/// Derives a random step/inject interleaving from one seed (the vendored
/// proptest exposes scalar range strategies; sequences are derived).
fn ops_from_seed(seed: u64) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed);
    let len = rand::Rng::gen_range(&mut rng, 5..30usize);
    (0..len)
        .map(|_| {
            if rand::Rng::gen_range(&mut rng, 0..5u32) == 0 {
                Op::Inject(rand::Rng::gen_range(&mut rng, 0..4usize))
            } else {
                Op::Step
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A columnar store driven by a random op sequence behaves exactly
    /// like the `Vec` it was built from.
    #[test]
    fn columnar_store_matches_vec_model(
        len in 1usize..200,
        fill_seed in 0u64..1_000_000,
        op_seed in 0u64..1_000_000,
    ) {
        let mut fill = StdRng::seed_from_u64(fill_seed);
        let mut model: Vec<u32> = (0..len)
            .map(|_| rand::Rng::gen_range(&mut fill, 0..10_000u32))
            .collect();
        let mut store = StateStore::from_vec(model.clone(), true);
        prop_assert!(store.is_soa());
        prop_assert_eq!(store.len(), model.len());
        let mut ops = StdRng::seed_from_u64(op_seed);
        for _ in 0..100 {
            let i = rand::Rng::gen_range(&mut ops, 0..len);
            prop_assert_eq!(store.get(i), model[i]);
            prop_assert_eq!(store.with_row(i, |v| *v), model[i]);
            let value = rand::Rng::gen_range(&mut ops, 0..10_000u32);
            store.set(i, &value);
            model[i] = value;
        }
        prop_assert_eq!(store.to_vec(), model.clone());
        prop_assert_eq!(store.into_vec(), model);
    }

    /// SoA executions (sequential and 4-worker sharded) are observably
    /// identical to the AoS baseline under random step/fault
    /// interleavings, for every daemon.
    #[test]
    fn soa_execution_matches_aos_under_every_daemon(
        daemon_idx in 0usize..7,
        seed in 0u64..1_000_000,
        ops_seed in 0u64..1_000_000,
    ) {
        let graph = generators::grid(4, 5);
        let ops = ops_from_seed(ops_seed);
        run_with_daemon(&graph, daemon_idx, seed, &ops);
    }
}
