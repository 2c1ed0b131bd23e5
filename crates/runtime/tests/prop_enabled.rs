//! The packed [`EnabledSet`] against a plain `Vec<bool>` model.
//!
//! The property drives random flip batches through
//! [`EnabledSet::apply_flips`], split across 1–4 contiguous node-range
//! "shards" the way the executor's guard-refresh phase stages them, with
//! flips that toggle a process back within one batch, at sizes on both
//! sides of the 64-bit word and 4,096-process block boundaries. After
//! every batch it checks `count`, `is_enabled`, `iter`, `to_nodes`,
//! `to_flags` and `select(r) == iter().nth(r)` for every rank.
//!
//! The golden test pins the first 1,000 picks of
//! `CentralRandom::enabled_only` on a fixed ring and seed to the sequence
//! the scan-based selection produced before the rank index existed: the
//! same draw must pick the same process.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use selfstab_graph::{generators, NodeId};
use selfstab_runtime::enabled::EnabledSet;
use selfstab_runtime::guarded::{ActionContext, GuardedAction, GuardedProtocol};
use selfstab_runtime::scheduler::CentralRandom;
use selfstab_runtime::{SimOptions, Simulation};

/// Sizes at and around the word (64) and block (4,096) boundaries.
const EDGE_SIZES: [usize; 8] = [0, 1, 63, 64, 65, 4095, 4096, 4097];

fn assert_matches_model(set: &EnabledSet, model: &[bool]) {
    let expected: Vec<NodeId> = (0..model.len())
        .filter(|&i| model[i])
        .map(NodeId::new)
        .collect();
    assert_eq!(set.node_count(), model.len());
    assert_eq!(set.count(), expected.len());
    assert_eq!(set.any(), !expected.is_empty());
    for (i, &enabled) in model.iter().enumerate() {
        assert_eq!(set.is_enabled(NodeId::new(i)), enabled, "process {i}");
    }
    assert_eq!(set.iter().collect::<Vec<_>>(), expected);
    assert_eq!(set.to_nodes(), expected);
    assert_eq!(set.to_flags(), model);
    // `walk` yields iter().nth(r) for r = 0, 1, ... in turn.
    let mut walk = set.iter();
    for rank in 0..=set.count() {
        assert_eq!(set.select(rank), walk.next(), "rank {rank}");
    }
    assert_eq!(set.select(set.count() + 7), None);
    set.assert_index_consistent();
    assert_eq!(*set, EnabledSet::from_flags(model.to_vec()));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn enabled_set_matches_a_bool_vector_model(
        size in 0usize..10,
        batches in 1usize..6,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = EDGE_SIZES
            .get(size)
            .copied()
            .unwrap_or_else(|| rng.gen_range(0..20_000));
        let mut set = EnabledSet::new(n);
        let mut model = vec![false; n];
        assert_matches_model(&set, &model);
        for _ in 0..batches {
            if n == 0 {
                set.apply_flips(&[]);
                assert_matches_model(&set, &model);
                continue;
            }
            // Sparse batches, and now and then one that flips everything.
            let batch: Vec<NodeId> = if rng.gen_bool(0.1) {
                (0..n).map(NodeId::new).collect()
            } else {
                let len = rng.gen_range(0..n.min(300) + 1);
                let mut batch: Vec<NodeId> =
                    (0..len).map(|_| NodeId::new(rng.gen_range(0..n))).collect();
                // Toggle some of them back within the same batch.
                for i in 0..len / 4 {
                    batch.push(batch[i * 3 % len]);
                }
                batch
            };
            // Contiguous node-range shards, applied in shard order, each
            // with its flips in batch order (as the executor stages them).
            let shards = rng.gen_range(1..5usize);
            let mut cuts: Vec<usize> = (1..shards).map(|_| rng.gen_range(0..n + 1)).collect();
            cuts.push(0);
            cuts.push(n);
            cuts.sort_unstable();
            for range in cuts.windows(2) {
                let shard_flips: Vec<NodeId> = batch
                    .iter()
                    .copied()
                    .filter(|p| (range[0]..range[1]).contains(&p.index()))
                    .collect();
                set.apply_flips(&shard_flips);
            }
            for p in &batch {
                model[p.index()] ^= true;
            }
            assert_matches_model(&set, &model);
        }
    }
}

/// The first picks of the golden sequence, and an FNV-1a digest over all
/// 1,000 picks (each as a little-endian `u32`), produced by the
/// scan-based `iter().nth(rank)` selection.
const GOLDEN_FIRST_PICKS: [u32; 10] = [3573, 3272, 8311, 7379, 72, 9795, 6632, 8864, 136, 6961];
const GOLDEN_DIGEST: u64 = 0xf40b_00ea_6228_61ee;

#[test]
fn central_random_enabled_only_picks_match_the_scan_based_sequence() {
    // Min-propagation over random values on a 10,000-process ring: about
    // two thirds of the ring starts enabled and the set changes at every
    // step, across three rank blocks.
    let adopt_min = GuardedAction::new(
        "adopt-smaller-value",
        |ctx: &ActionContext<'_, '_, u32, u32>| ctx.neighbor_comms().any(|v| v < ctx.state),
        |ctx, _rng| ctx.neighbor_comms().copied().min().unwrap_or(*ctx.state),
    );
    let protocol = GuardedProtocol::new(
        "min-propagation",
        vec![adopt_min],
        |_, _, rng| rng.gen_range(0..1_000u32),
        |_, state| *state,
        |_, _| 32,
        |_, _| 32,
        |_, _| false,
    );
    let graph = generators::ring(10_000);
    let mut sim = Simulation::new(
        &graph,
        protocol,
        CentralRandom::enabled_only(),
        2009,
        SimOptions::default(),
    );
    let mut picks = Vec::with_capacity(1_000);
    for _ in 0..1_000 {
        sim.step();
        picks.push(sim.last_selected()[0].index() as u32);
    }
    let digest = picks.iter().fold(0xcbf2_9ce4_8422_2325u64, |hash, pick| {
        pick.to_le_bytes().iter().fold(hash, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    });
    assert_eq!(picks[..10], GOLDEN_FIRST_PICKS);
    assert_eq!(digest, GOLDEN_DIGEST);
}
