//! The sparse/dense equivalence contract for `DynamicGradientNode`: the
//! O(degree) sparse neighbor-state map must produce executions
//! **bit-identical** to the dense O(n) reference defined here
//! (`DenseDynamicGradientNode`) across churned scenarios — flap,
//! partition-heal, grow, shrink — on both engines, at every shard count.
//! The sparse layout is what lets the 100k-node
//! scale runs (E15) carry this algorithm at all; this file is what keeps
//! it honest.

use gcs_testkit::prelude::*;
use gradient_clock_sync::algorithms::{DynamicGradientNode, DynamicGradientParams, SyncMsg};
use gradient_clock_sync::dynamic::ChurnSchedule;
use gradient_clock_sync::sim::{Context, Execution, Node, NodeId, TimerId};
use proptest::prelude::*;

/// The dense reference implementation of [`DynamicGradientNode`]: the
/// same weak/strong discipline over a per-node `Vec<Option<f64>>` of
/// length `n` — O(n) state per node, O(n²) fleet-wide, so never a scale
/// run. Parameter validation and the slack formula come from the node
/// under test (`tiers`); only the per-peer layout differs.
#[derive(Debug)]
struct DenseDynamicGradientNode {
    tiers: DynamicGradientNode,
    /// Per-peer hardware time the current link formed; `None` while the
    /// link is down. `NEG_INFINITY` marks links live since startup.
    formed_hw: Vec<Option<f64>>,
}

impl DenseDynamicGradientNode {
    fn new(n: usize, params: DynamicGradientParams) -> Self {
        Self {
            tiers: DynamicGradientNode::new(params),
            formed_hw: vec![None; n],
        }
    }
}

impl Node<SyncMsg> for DenseDynamicGradientNode {
    fn on_start(&mut self, ctx: &mut Context<'_, SyncMsg>) {
        for &peer in ctx.neighbors() {
            self.formed_hw[peer] = Some(f64::NEG_INFINITY);
        }
        ctx.set_timer(self.tiers.params().period);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, SyncMsg>, _timer: TimerId) {
        let value = ctx.logical_now();
        ctx.send_to_neighbors(&SyncMsg::Clock(value));
        ctx.set_timer(self.tiers.params().period);
    }

    fn on_topology_change(&mut self, ctx: &mut Context<'_, SyncMsg>, peer: NodeId, up: bool) {
        self.formed_hw[peer] = if up { Some(ctx.hw_now()) } else { None };
    }

    fn on_message(&mut self, ctx: &mut Context<'_, SyncMsg>, from: NodeId, msg: &SyncMsg) {
        if let SyncMsg::Clock(value) = msg {
            let age = match self.formed_hw[from] {
                Some(formed) => ctx.hw_now() - formed,
                None => 0.0,
            };
            let target = value - self.tiers.kappa_at_age(age) * ctx.distance_to(from);
            if target > ctx.logical_now() {
                ctx.set_logical(target);
            }
        }
    }
}

const PARAMS: DynamicGradientParams = DynamicGradientParams {
    period: 1.0,
    kappa_strong: 0.5,
    kappa_weak: 6.0,
    window: 20.0,
};

/// The churn families the dynamic-network algorithm must survive.
#[derive(Debug, Clone, Copy, PartialEq)]
enum ChurnFamily {
    Flap,
    PartitionHeal,
    Grow,
    Shrink,
}

fn churn_for(family: ChurnFamily, n: usize, horizon: f64) -> ChurnSchedule {
    match family {
        ChurnFamily::Flap => ChurnSchedule::periodic_flap(0, 1, 10.0, horizon - 10.0),
        ChurnFamily::PartitionHeal => ChurnSchedule::partition_and_heal(
            &[(0, n - 1), (n / 2 - 1, n / 2)],
            horizon * 0.25,
            horizon * 0.6,
        ),
        ChurnFamily::Grow => ChurnSchedule::growing_network(n, n / 2, 4.0),
        ChurnFamily::Shrink => ChurnSchedule::shrinking_network(n, n / 2, 4.0),
    }
}

fn churned_scenario(family: ChurnFamily, seed: u64) -> Scenario {
    let n = 8;
    let horizon = 60.0;
    Scenario::ring(n)
        .named(format!("sparse_vs_dense_{family:?}_s{seed}"))
        .churn(churn_for(family, n, horizon))
        .drift_walk(0.02, 10.0, 0.005)
        .uniform_delay(0.1, 0.9)
        .seed(seed)
        .horizon(horizon)
}

fn sparse_run(scenario: &Scenario) -> Execution<SyncMsg> {
    scenario.run_with(|_, _| DynamicGradientNode::new(PARAMS))
}

fn dense_run(scenario: &Scenario) -> Execution<SyncMsg> {
    scenario.run_with(|_, n| DenseDynamicGradientNode::new(n, PARAMS))
}

const FAMILIES: [ChurnFamily; 4] = [
    ChurnFamily::Flap,
    ChurnFamily::PartitionHeal,
    ChurnFamily::Grow,
    ChurnFamily::Shrink,
];

fn family_strategy() -> impl Strategy<Value = ChurnFamily> {
    (0usize..FAMILIES.len()).prop_map(|i| FAMILIES[i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // Single-heap engine: sparse ≡ dense, bit for bit.
    #[test]
    fn sparse_matches_dense_on_single_heap(family in family_strategy(), seed in 1u64..10_000) {
        let scenario = churned_scenario(family, seed);
        let sparse = sparse_run(&scenario);
        let dense = dense_run(&scenario);
        prop_assert_eq!(
            fingerprint(&sparse),
            fingerprint(&dense),
            "family {:?} seed {}: sparse diverged from the dense reference",
            family,
            seed
        );
        assert_bit_identical(&dense, &sparse);
    }

    // Sharded engine, across shard counts: the sparse node on the
    // parallel engine still reproduces the dense reference on the single
    // heap, bit for bit.
    #[test]
    fn sparse_matches_dense_across_shards_and_knobs(
        family in family_strategy(),
        seed in 1u64..10_000,
        shards in (0usize..3).prop_map(|i| [2usize, 3, 8][i]),
    ) {
        let scenario = churned_scenario(family, seed);
        let dense = dense_run(&scenario);
        let sparse =
            scenario.run_sharded_with(shards, |_, _| DynamicGradientNode::new(PARAMS));
        prop_assert_eq!(
            fingerprint(&dense),
            fingerprint(&sparse),
            "family {:?} seed {} shards {}: sharded sparse diverged from the \
             single-heap dense reference",
            family,
            seed,
            shards
        );
        assert_bit_identical(&dense, &sparse);
    }
}

/// One deterministic smoke per family, so a plain `cargo test` exercises
/// all four churn shapes even if proptest happens to sample few.
#[test]
fn every_family_matches_once() {
    for family in [
        ChurnFamily::Flap,
        ChurnFamily::PartitionHeal,
        ChurnFamily::Grow,
        ChurnFamily::Shrink,
    ] {
        let scenario = churned_scenario(family, 7);
        let dense = dense_run(&scenario);
        assert_bit_identical(&dense, &sparse_run(&scenario));
        assert_bit_identical(
            &dense,
            &scenario.run_sharded_with(4, |_, _| DynamicGradientNode::new(PARAMS)),
        );
    }
}

#[test]
#[should_panic(expected = "kappa_weak must be at least kappa_strong")]
fn dense_reference_validates_identically() {
    let _ = DenseDynamicGradientNode::new(
        2,
        DynamicGradientParams {
            period: 1.0,
            kappa_strong: 1.0,
            kappa_weak: 0.5,
            window: 10.0,
        },
    );
}
