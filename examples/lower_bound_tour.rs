//! A guided tour of the paper's lower-bound constructions.
//!
//! Walks through (1) the folklore Ω(d) shifting argument, (2) the Add Skew
//! lemma, (3) the Bounded Increase lemma's speed-up transformation, and
//! (4) the main theorem's iterated construction — each executed against a
//! real algorithm, with the paper's guarantees checked as it goes.
//!
//! ```text
//! cargo run --release --example lower_bound_tour
//! ```

use gradient_clock_sync::algorithms::{AlgorithmKind, SyncMsg};
use gradient_clock_sync::core::lower_bound::bounded_increase::{max_increase_over_nodes, SpeedUp};
use gradient_clock_sync::core::lower_bound::shift::demonstrate_omega_d;
use gradient_clock_sync::core::lower_bound::{
    AddSkew, AddSkewParams, MainTheorem, MainTheoremConfig,
};
use gradient_clock_sync::prelude::*;

fn main() {
    let rho = DriftBound::new(0.5).expect("valid drift bound");
    let kind = AlgorithmKind::Gradient {
        period: 1.0,
        kappa: 0.5,
    };

    // ------------------------------------------------------------------
    println!("== 1. Folklore Ω(d) (Section 5) ==");
    for d in [1.0, 8.0, 64.0] {
        let r = demonstrate_omega_d(rho, d, 0.0, |id, n| kind.build(id, n))
            .expect("construction applies");
        println!(
            "  d = {d:>4}: witnessed skew {:.3} (guaranteed ≥ {:.3}, valid: {})",
            r.witnessed_skew, r.guaranteed, r.valid
        );
    }

    // ------------------------------------------------------------------
    println!("\n== 2. Add Skew lemma (Lemma 6.1) ==");
    let n = 32;
    let tau = rho.tau();
    let alpha = SimulationBuilder::new(Topology::line(n))
        .schedules(vec![RateSchedule::constant(1.0); n])
        .build_with(|id, nn| kind.build(id, nn))
        .expect("simulation builds")
        .try_execute_until(tau * (n as f64 - 1.0))
        .expect("the nominal line run");
    let outcome = AddSkew::new(rho)
        .apply::<SyncMsg>(&alpha, AddSkewParams::suffix(0, n - 1))
        .expect("preconditions hold");
    let rep = &outcome.report;
    println!(
        "  pair (0, {}): skew {:.3} -> {:.3} (gain {:.3}, guaranteed ≥ {:.3})",
        n - 1,
        rep.skew_before,
        rep.skew_after,
        rep.gain,
        rep.guaranteed_gain
    );
    println!(
        "  β is valid ({} messages within [d/4, 3d/4]), duration {:.2} vs α's {:.2}",
        rep.validation.messages_checked, rep.beta_end, rep.alpha_end
    );

    // ------------------------------------------------------------------
    println!("\n== 3. Bounded Increase lemma (Lemma 7.1) ==");
    let (inc, node, at) = max_increase_over_nodes(&alpha, tau);
    println!("  fastest unit-window increase in α: {inc:.3} at node {node} (t = {at:.2})");
    let speedup = SpeedUp::new(rho)
        .apply(&alpha, node, (alpha.horizon() * 0.8).max(tau))
        .expect("speed-up applies");
    println!(
        "  after speeding node {node} by ρ/4 for τ: logical advance {:.3}, worst \
         neighbor skew {:?}",
        speedup.report.logical_advance,
        speedup
            .report
            .worst_neighbor_skew()
            .map(|(j, s)| (j, (s * 1000.0).round() / 1000.0)),
    );

    // ------------------------------------------------------------------
    println!("\n== 4. Main theorem (Theorem 8.1) ==");
    let report = MainTheorem::new(MainTheoremConfig::practical(65, rho))
        .run(|id, nn| kind.build(id, nn))
        .expect("construction runs");
    println!(
        "  line of {} nodes (diameter {}), log D / log log D = {:.3}",
        report.nodes, report.diameter, report.log_ratio
    );
    for r in &report.rounds {
        println!(
            "  round {}: span {:>3}, gain {:.3}, adjacent skew {:.3} \
             (paper floor {:.3}), prefix exact: {}",
            r.k,
            r.span,
            r.add_skew_gain,
            r.best_adjacent_skew,
            r.paper_adjacent_guarantee,
            r.prefix_ok
        );
    }
    println!(
        "  => adjacent nodes (distance 1) end with skew {:.3}: synchronization \
         quality between neighbors depends on the size of the whole network.",
        report.final_adjacent_skew
    );
}
