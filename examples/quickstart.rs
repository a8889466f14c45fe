//! Quickstart: run a gradient clock-synchronization algorithm on a line of
//! drifting nodes and inspect the resulting skews.
//!
//! ```text
//! cargo run --example quickstart
//! ```

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

    // 2. Replay the run through two probes at 201 evenly spaced instants
    //    of its last three quarters: the global skew and, per distance,
    //    the worst skew (the empirical gradient).
    let from = horizon * 0.25;
    let mut global = GlobalSkewObserver::new();
    let mut profile = GradientProfileObserver::new();
    observe_execution(
        &exec,
        from,
        (horizon - from) / 200.0,
        &mut [&mut global, &mut profile],
    );
    println!(
        "worst global skew: {:.3} at t = {}",
        global.worst(),
        global.worst_at()
    );

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
