//! Quickstart: run a gradient clock-synchronization algorithm on a line of
//! drifting nodes and inspect the resulting skews.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use gradient_clock_sync::core::analysis::{GradientProfile, SkewMatrix};
use gradient_clock_sync::core::problem::ValidityCondition;
use gradient_clock_sync::prelude::*;

fn main() {
    // A line of 16 nodes: d(i, j) = |i - j|, diameter 15.
    let n = 16;
    let topology = Topology::line(n);

    // Hardware clocks drift within ±1%, re-randomized every 20 time units.
    let rho = DriftBound::new(0.01).expect("valid drift bound");
    let drift = DriftModel::new(rho, 20.0, 0.002);
    let horizon = 600.0;
    let schedules = drift.generate_network(42, n, horizon);

    // Message delays are uniform in [0.1, 0.9] × distance.
    let delays = UniformDelay::new(0.1, 0.9, 7);

    // Every node runs the jump-based gradient algorithm.
    let sim = SimulationBuilder::new(topology)
        .schedules(schedules)
        .delay_policy(delays)
        .build_with(|_, _| GradientNode::new(GradientParams::default()))
        .expect("simulation builds");
    let exec = sim.try_execute_until(horizon).expect("the quickstart run");

    // 1. The algorithm satisfies the paper's validity condition.
    let violations = ValidityCondition::default().check(&exec);
    println!("validity violations: {}", violations.len());

    // 2. Instantaneous skews at the end of the run.
    let matrix = SkewMatrix::at(&exec, horizon);
    if let Some((worst, (i, j))) = matrix.max_abs() {
        println!("worst final skew: {worst:.3} between nodes {i} and {j}");
    }

    // 3. The empirical gradient: worst skew per distance over the run.
    let profile = GradientProfile::measure_sampled(&exec, horizon * 0.25, 200);
    println!("\ndistance -> worst observed skew");
    for (d, skew) in profile.rows() {
        let bar = "#".repeat((skew * 40.0) as usize + 1);
        println!("{d:>6.1}   {skew:>7.4}  {bar}");
    }
    println!(
        "\nnearby nodes are tightly synchronized; skew grows with distance — \
         the gradient property in action."
    );
}
