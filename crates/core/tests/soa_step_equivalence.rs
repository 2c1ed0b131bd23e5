//! Differential acceptance test for the struct-of-arrays state layout.
//!
//! Every protocol in this crate declares a columnar layout in
//! [`selfstab_core::columns`]. This test pins the acceptance criterion of
//! the SoA migration: for each real protocol, an execution on the columnar
//! store — sequential and 4-worker sharded — is **byte-identical** to the
//! array-of-structs baseline at every observation point: step outcomes,
//! executed lists, decoded configurations, maintained enabled sets,
//! silence/legitimacy verdicts (which route through the streaming
//! `is_*_store` overrides in SoA mode), statistics and final reports.
//!
//! The drive alternates structured fault injections with short step bursts,
//! so the comparison covers corrupted configurations, repair waves and the
//! silent regime, not just clean convergence.

use rand::rngs::StdRng;
use rand::SeedableRng;
use selfstab_core::coloring::Coloring;
use selfstab_core::matching::Matching;
use selfstab_core::mis::Mis;
use selfstab_core::spanning::LeaderElection;
use selfstab_core::transformer::{ColoringSpec, RoundRobinChecker};
use selfstab_graph::{generators, Graph, Identifiers};
use selfstab_runtime::faults::{BallCenter, FaultInjector, FaultLoad, FaultModel};
use selfstab_runtime::scheduler::DistributedRandom;
use selfstab_runtime::{Protocol, SimOptions, Simulation};

/// One executor lane: a simulation in some layout/worker configuration plus
/// its own (identically seeded) fault stream.
struct Lane<'g, P: Protocol> {
    label: &'static str,
    sim: Simulation<'g, P, DistributedRandom>,
    injector: FaultInjector,
    fault_rng: StdRng,
}

fn models() -> [FaultModel; 3] {
    [
        FaultModel::Uniform(FaultLoad::Fraction(0.25)),
        FaultModel::Ball {
            center: BallCenter::Random,
            radius: 1,
        },
        FaultModel::DegreeTargeted(FaultLoad::Count(3)),
    ]
}

/// Runs the AoS baseline against the sequential and 4-worker SoA lanes in
/// lockstep through fault/repair cycles and asserts that no observable
/// ever diverges.
fn assert_layout_equivalence<P: Protocol>(
    graph: &Graph,
    make: impl Fn() -> P,
    seed: u64,
    name: &str,
) {
    let lane = |label: &'static str, options: SimOptions| Lane {
        label,
        sim: Simulation::new(graph, make(), DistributedRandom::new(0.5), seed, options),
        injector: FaultInjector::new(graph),
        fault_rng: StdRng::seed_from_u64(seed ^ 0xFA17),
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
    ];
    assert!(!baseline.sim.state_store().is_soa());
    for lane in &soa_lanes {
        assert!(
            lane.sim.state_store().is_soa(),
            "{name}: protocol state must have a columnar layout"
        );
        assert!(
            lane.sim.comm_store().is_soa(),
            "{name}: protocol comm must have a columnar layout"
        );
    }

    let models = models();
    for cycle in 0..8 {
        let model = models[cycle % models.len()];
        let expected_victims = baseline
            .injector
            .inject(&mut baseline.sim, model, &mut baseline.fault_rng)
            .to_vec();
        for lane in &mut soa_lanes {
            let victims = lane
                .injector
                .inject(&mut lane.sim, model, &mut lane.fault_rng)
                .to_vec();
            assert_eq!(
                victims, expected_victims,
                "{name}/{}: victims diverged at cycle {cycle}",
                lane.label
            );
        }
        for step in 0..9 {
            let expected_outcome = baseline.sim.step();
            let expected_config = baseline.sim.config_vec();
            let expected_flags = baseline.sim.enabled_set().to_flags();
            let expected_silent = baseline.sim.is_silent();
            let expected_legit = baseline.sim.is_legitimate();
            for lane in &mut soa_lanes {
                let outcome = lane.sim.step();
                assert_eq!(
                    outcome, expected_outcome,
                    "{name}/{}: step outcome diverged at cycle {cycle} step {step}",
                    lane.label
                );
                assert_eq!(
                    lane.sim.last_executed(),
                    baseline.sim.last_executed(),
                    "{name}/{}: executed list diverged at cycle {cycle} step {step}",
                    lane.label
                );
                assert_eq!(
                    lane.sim.config_vec(),
                    expected_config,
                    "{name}/{}: configuration diverged at cycle {cycle} step {step}",
                    lane.label
                );
                assert_eq!(
                    lane.sim.enabled_set().to_flags(),
                    expected_flags,
                    "{name}/{}: enabled flags diverged at cycle {cycle} step {step}",
                    lane.label
                );
                // These route through the streaming `is_silent_store` /
                // `is_legitimate_store` overrides in SoA mode and the
                // slice predicates in AoS mode — the verdicts must agree.
                assert_eq!(
                    lane.sim.is_silent(),
                    expected_silent,
                    "{name}/{}: silence verdict diverged at cycle {cycle} step {step}",
                    lane.label
                );
                assert_eq!(
                    lane.sim.is_legitimate(),
                    expected_legit,
                    "{name}/{}: legitimacy verdict diverged at cycle {cycle} step {step}",
                    lane.label
                );
            }
        }
    }

    // Settle: same silent point, same verdicts, same stats.
    let expected_report = baseline.sim.run_until_silent(1_000_000);
    assert!(expected_report.silent, "{name}: baseline must settle");
    assert!(baseline.sim.is_legitimate());
    for lane in &mut soa_lanes {
        let report = lane.sim.run_until_silent(1_000_000);
        assert_eq!(
            report, expected_report,
            "{name}/{}: final reports diverged",
            lane.label
        );
        assert!(
            lane.sim.is_legitimate(),
            "{name}/{}: silent but not legitimate",
            lane.label
        );
        assert_eq!(
            lane.sim.config_vec(),
            baseline.sim.config_vec(),
            "{name}/{}: final configurations diverged",
            lane.label
        );
        assert_eq!(
            lane.sim.stats(),
            baseline.sim.stats(),
            "{name}/{}: stats diverged",
            lane.label
        );
    }
}

#[test]
fn coloring_soa_matches_aos() {
    let graph = generators::ring(24);
    assert_layout_equivalence(&graph, || Coloring::new(&graph), 11, "coloring");
}

#[test]
fn mis_soa_matches_aos() {
    let graph = generators::grid(5, 6);
    assert_layout_equivalence(&graph, || Mis::with_greedy_coloring(&graph), 22, "mis");
}

#[test]
fn matching_soa_matches_aos() {
    let mut rng = StdRng::seed_from_u64(7);
    let graph = generators::gnp_connected(20, 0.25, &mut rng).expect("valid parameters");
    assert_layout_equivalence(
        &graph,
        || Matching::with_greedy_coloring(&graph),
        33,
        "matching",
    );
}

#[test]
fn leader_election_soa_matches_aos() {
    let graph = generators::grid(4, 5);
    assert_layout_equivalence(
        &graph,
        || LeaderElection::new(&graph, Identifiers::sequential(graph.node_count())),
        44,
        "leader-election",
    );
}

#[test]
fn checker_transformer_soa_matches_aos() {
    let graph = generators::ring(18);
    assert_layout_equivalence(
        &graph,
        || RoundRobinChecker::new(ColoringSpec::new(&graph)),
        55,
        "rr-checker(coloring)",
    );
}
