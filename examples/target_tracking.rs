//! Target tracking (the paper's second motivating application).
//!
//! Two sensors measure an object's speed: each records the logical time at
//! which the object passes, and `v = d / Δt`. The error in `Δt` is the
//! clock skew between the sensors, so the *relative* velocity error is
//! `skew / (d / v)` — for a fixed accuracy target, the tolerable skew
//! grows linearly with the sensor separation. That is precisely the
//! gradient property: nearby sensor pairs need tight synchronization,
//! faraway pairs don't.
//!
//! ```text
//! cargo run --example target_tracking
//! ```

use gradient_clock_sync::algorithms::AlgorithmKind;
use gradient_clock_sync::clocks::drift::DriftModel;
use gradient_clock_sync::prelude::*;

fn main() {
    let n = 24;
    let topology = Topology::line(n);
    let rho = DriftBound::new(0.01).expect("valid drift bound");
    let drift = DriftModel::new(rho, 15.0, 0.003);
    let horizon = 500.0;

    // The object crosses the line at constant speed: it passes node i at
    // real time t0 + i / v.
    let speed = 0.25; // nodes per time unit
    let t0 = horizon * 0.55;

    println!("object speed {speed} nodes/time; sensors record logical passage times");
    println!(
        "{:<14} {:>10} {:>14} {:>14} {:>12}",
        "algorithm", "separation", "true_dt", "measured_dt", "vel_error_%"
    );

    for kind in [
        AlgorithmKind::Max { period: 1.0 },
        AlgorithmKind::Gradient {
            period: 1.0,
            kappa: 0.25,
        },
    ] {
        let sim = SimulationBuilder::new(topology.clone())
            .schedules(drift.generate_network(99, n, horizon))
            .delay_policy(UniformDelay::new(0.2, 0.8, 3))
            .build_with(|id, nn| kind.build(id, nn))
            .expect("simulation builds");
        let exec = sim.try_execute_until(horizon).expect("the tracking run");

        for separation in [1usize, 4, 16] {
            let a = 2;
            let b = a + separation;
            // Real crossing times at the two sensors.
            let ta = t0 + a as f64 / speed;
            let tb = t0 + b as f64 / speed;
            // The sensors *record* logical times.
            let la = exec.logical_at(a, ta);
            let lb = exec.logical_at(b, tb);
            let true_dt = tb - ta;
            let measured_dt = lb - la;
            let v_est = separation as f64 / measured_dt;
            let err = ((v_est - speed) / speed * 100.0).abs();
            println!(
                "{:<14} {:>10} {:>14.4} {:>14.4} {:>12.3}",
                kind.name(),
                separation,
                true_dt,
                measured_dt,
                err
            );
        }
    }

    println!(
        "\nvelocity error = skew / true_dt: for gradient synchronization the \
         skew grows no faster than the separation, so the error stays \
         bounded at every scale — faraway pairs tolerate the same relative \
         error with much looser clocks."
    );
}
