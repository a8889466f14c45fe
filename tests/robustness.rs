//! Robustness extension: behaviour under model violations the paper does
//! not consider — message loss and node crashes. The gradient algorithms
//! should degrade gracefully (local synchronization survives), and the
//! deterministic-replay machinery must keep working with faults injected.
//!
//! Fault scenarios are built with `gcs-testkit`: lossy delays come from
//! `Scenario::message_loss`, and boxed algorithms (`AlgorithmKind::build`)
//! go straight into the fault injectors.

use gcs_testkit::prelude::*;
use gradient_clock_sync::algorithms::fault::{CrashingNode, SilencedNode};
use gradient_clock_sync::algorithms::{AlgorithmKind, SyncMsg};
use gradient_clock_sync::sim::Execution;

fn lossy(kind: AlgorithmKind, loss: f64, seed: u64) -> Scenario {
    let scenario = Scenario::line(6)
        .algorithm(kind)
        .drift_walk(0.02, 10.0, 0.005)
        .fixed_delay(0.5)
        .seed(seed)
        .horizon(200.0);
    if loss > 0.0 {
        scenario.message_loss(loss)
    } else {
        scenario
    }
}

#[test]
fn gradient_survives_heavy_message_loss() {
    let kind = AlgorithmKind::Gradient {
        period: 0.5,
        kappa: 0.5,
    };
    let lossless = lossy(kind, 0.0, 3).run();
    let degraded = lossy(kind, 0.5, 3).run();
    // Some degradation is expected, but neighbors must stay coupled: worst
    // adjacent skew under 50% loss stays within a few multiples of the
    // lossless case (not unbounded drift).
    let base = worst_adjacent_skew(&lossless, 50.0, 1.0);
    let worse = worst_adjacent_skew(&degraded, 50.0, 1.0);
    assert!(
        worse < base.max(0.5) * 6.0,
        "50% loss blew up adjacent skew: {base} -> {worse}"
    );
}

#[test]
fn validity_holds_under_loss_and_crashes() {
    // Faults can break synchronization but never validity: logical clocks
    // keep advancing at >= the hardware rate.
    let kind = AlgorithmKind::Gradient {
        period: 1.0,
        kappa: 0.5,
    };
    let exec = lossy(kind, 0.3, 11).run();
    assert_validity(&exec);

    let exec: Execution<SyncMsg> = Scenario::line(4).horizon(60.0).run_with(|id, nn| {
        let crash_at = if id == 1 { 15.0 } else { f64::MAX / 2.0 };
        CrashingNode::new(AlgorithmKind::Max { period: 1.0 }.build(id, nn), crash_at)
    });
    assert_validity(&exec);
}

#[test]
fn lossy_executions_are_deterministic() {
    let kind = AlgorithmKind::Max { period: 1.0 };
    let scenario = lossy(kind, 0.4, 17);
    let a = scenario.run();
    let b = scenario.run();
    assert_bit_identical(&a, &b);
    // Dropped messages are recorded as dropped in both runs.
    use gradient_clock_sync::sim::MessageStatus;
    let drops = |e: &Execution<SyncMsg>| {
        e.messages()
            .iter()
            .filter(|m| m.status == MessageStatus::Dropped)
            .count()
    };
    assert_eq!(drops(&a), drops(&b));
    assert!(drops(&a) > 0);
}

#[test]
fn partition_heals_after_silence() {
    // Node 2 of a 5-line goes silent for a while; after it resumes, the
    // two sides re-converge.
    let kind = AlgorithmKind::Max { period: 1.0 };
    let exec: Execution<SyncMsg> = Scenario::line(5)
        .constant_rates(&[1.02, 1.01, 1.0, 0.99, 0.98])
        .horizon(160.0)
        .run_with(|id, nn| {
            let (from, to) = if id == 2 { (20.0, 60.0) } else { (1e17, 2e17) };
            SilencedNode::new(kind.build(id, nn), from, to)
        });
    // During the partition, cross skew grows…
    let mid_skew = exec.skew(0, 4, 60.0).abs();
    // …after healing, the max algorithm re-couples both sides.
    let end_skew = exec.skew(0, 4, 160.0).abs();
    assert!(
        end_skew < mid_skew + 1.0,
        "healing failed: {mid_skew} -> {end_skew}"
    );
    assert!(end_skew < 6.0, "end skew {end_skew}");
}

#[test]
fn crashed_source_strands_tree_sync_but_not_gradient() {
    use gradient_clock_sync::algorithms::{TreeSyncNode, TreeSyncParams};
    // Tree-sync clients lose their source; gradient keeps peers coupled.
    let rates = [1.0, 1.02, 0.98, 1.01];
    let tree: Execution<SyncMsg> = Scenario::star(4)
        .constant_rates(&rates)
        .horizon(300.0)
        .run_with(|id, _| {
            let crash_at = if id == 0 { 30.0 } else { f64::MAX / 2.0 };
            CrashingNode::new(TreeSyncNode::new(id, TreeSyncParams::default()), crash_at)
        });
    // Clients drift apart after the source dies (rates 1.02 vs 0.98).
    let stranded = tree.skew(1, 2, 300.0).abs();
    assert!(
        stranded > 5.0,
        "clients should drift once the source is dead, got {stranded}"
    );

    // Gradient peers on a line keep gossiping without node 0.
    let line: Execution<SyncMsg> = Scenario::line(4)
        .constant_rates(&rates)
        .horizon(300.0)
        .run_with(|id, nn| {
            let crash_at = if id == 0 { 30.0 } else { f64::MAX / 2.0 };
            CrashingNode::new(
                AlgorithmKind::Gradient {
                    period: 1.0,
                    kappa: 0.5,
                }
                .build(id, nn),
                crash_at,
            )
        });
    let coupled = line.skew(1, 2, 300.0).abs();
    assert!(
        coupled < 3.0,
        "gradient peers should stay coupled without node 0, got {coupled}"
    );
}
