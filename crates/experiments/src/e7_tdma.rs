//! E7 — the TDMA implication (Section 1).
//!
//! The paper: *"the TDMA protocol with a fixed slot granularity will fail
//! as the network grows, even if the maximum degree of each node stays
//! constant."*
//!
//! Nodes share the medium by logical-clock-driven TDMA: with `r` slots of
//! length `s`, node `i` transmits whenever `⌊(L_i mod r·s)/s⌋ = i mod r`.
//! Two nodes within interference range (here: distance ≤ 2 on the line)
//! collide when both believe the current instant lies in their slot. With
//! a fixed slot length, any skew ≥ one slot between nearby nodes can cause
//! collisions — and the Section-2 scenario shows max-style algorithms let
//! nearby skew grow with the *diameter*, so the collision rate rises with
//! network size while the gradient algorithm's stays flat.

use gcs_algorithms::{AlgorithmKind, SyncMsg};
use gcs_clocks::RateSchedule;
use gcs_net::{AdversarialDelay, DelayOutcome, Topology};
use gcs_sim::{Execution, SimulationBuilder};

use crate::table::fnum;
use crate::{Scale, SweepRunner, Table};

/// Number of TDMA slots per frame (spatial reuse factor).
pub const SLOTS: usize = 4;
/// Slot length in logical time.
pub const SLOT_LEN: f64 = 0.5;
/// Guard band at each slot edge: a node transmits only in
/// `[slot_start + GUARD, slot_end - GUARD]`, tolerating skew up to
/// `2·GUARD` between slot neighbours.
pub const GUARD: f64 = 0.15;

/// Fraction of sampled instants at which some pair of interfering nodes
/// transmit simultaneously.
pub fn collision_fraction(exec: &Execution<SyncMsg>, from_t: f64, samples: usize) -> f64 {
    let n = exec.node_count();
    let horizon = exec.horizon();
    let frame = SLOTS as f64 * SLOT_LEN;
    let mut collisions = 0usize;
    for k in 0..samples {
        let t = from_t + (horizon - from_t) * k as f64 / samples as f64;
        let transmitting: Vec<bool> = (0..n)
            .map(|i| {
                let l = exec.logical_at(i, t).rem_euclid(frame);
                let slot = (l / SLOT_LEN).floor() as usize;
                let within = l - slot as f64 * SLOT_LEN;
                slot == i % SLOTS && (GUARD..=SLOT_LEN - GUARD).contains(&within)
            })
            .collect();
        let mut hit = false;
        'outer: for i in 0..n {
            if !transmitting[i] {
                continue;
            }
            for (j, &tx_j) in transmitting.iter().enumerate().skip(i + 1) {
                if tx_j && exec.topology().distance(i, j) <= 2.0 {
                    hit = true;
                    break 'outer;
                }
            }
        }
        if hit {
            collisions += 1;
        }
    }
    collisions as f64 / samples as f64
}

/// Runs the line scenario: a fast node at one end with a long-haul gossip
/// link to the far end whose delay collapses mid-run — the Section-2
/// dynamics at TDMA scale. Public so the `tdma_slots` example can
/// visualize the same execution the experiment measures.
pub fn line_scenario(kind: AlgorithmKind, n: usize, horizon: f64) -> Execution<SyncMsg> {
    let topology = Topology::line(n);
    let switch = horizon * 0.5;
    // Long-range gossip between the endpoints plus neighbor gossip: node 0
    // also talks directly to the far end (distance n-1), whose delay
    // collapses mid-run.
    let far = n - 1;
    let line = topology.clone();
    let policy = AdversarialDelay::new(move |from, to, _seq, send| {
        let d = line.distance(from, to);
        if (from, to) == (0, far) && send >= switch {
            DelayOutcome::Delay(0.0)
        } else {
            DelayOutcome::Delay(d / 2.0)
        }
    });
    let mut rates = vec![1.0; n];
    rates[0] = 1.04;
    SimulationBuilder::new(topology)
        .schedules(rates.into_iter().map(RateSchedule::constant).collect())
        .delay_policy(policy)
        // Wrap: node 0 additionally gossips to the far end so the
        // diameter-scale jump can happen in one hop.
        .build_with(|id, n| LongHaul {
            inner: kind.build(id, n),
            far: (id == 0).then_some(far),
            period: 1.0,
            own_timer: None,
        })
        .expect("the TDMA line builds")
        .try_execute_until(horizon)
        .expect("the TDMA run")
}

/// Wrapper node: behaves like `inner`, and (if `far` is set) also sends
/// its clock to the far node every period. Wrapper-owned timer ids are
/// tracked so the inner algorithm's timers are delegated untouched.
struct LongHaul {
    inner: Box<dyn gcs_sim::Node<SyncMsg>>,
    far: Option<usize>,
    period: f64,
    own_timer: Option<u64>,
}

impl std::fmt::Debug for LongHaul {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LongHaul")
            .field("far", &self.far)
            .field("period", &self.period)
            .finish_non_exhaustive()
    }
}

impl gcs_sim::Node<SyncMsg> for LongHaul {
    fn on_start(&mut self, ctx: &mut gcs_sim::Context<'_, SyncMsg>) {
        self.inner.on_start(ctx);
        if self.far.is_some() {
            self.own_timer = Some(ctx.set_timer(self.period));
        }
    }
    fn on_timer(&mut self, ctx: &mut gcs_sim::Context<'_, SyncMsg>, timer: u64) {
        if self.own_timer == Some(timer) {
            let far = self.far.expect("own timer implies far link");
            let v = ctx.logical_now();
            ctx.send(far, SyncMsg::Clock(v));
            self.own_timer = Some(ctx.set_timer(self.period));
        } else {
            self.inner.on_timer(ctx, timer);
        }
    }
    fn on_message(&mut self, ctx: &mut gcs_sim::Context<'_, SyncMsg>, from: usize, msg: &SyncMsg) {
        self.inner.on_message(ctx, from, msg);
    }
}

/// Runs the experiment.
#[must_use]
pub fn run(scale: Scale) -> Vec<Table> {
    let sizes: Vec<usize> = match scale {
        Scale::Quick => vec![8, 16],
        Scale::Full => vec![8, 16, 32, 64],
    };
    let samples = match scale {
        Scale::Quick => 400,
        Scale::Full => 2000,
    };

    let mut table = Table::new(
        "e7",
        &format!(
            "TDMA with fixed slots (r={SLOTS}, slot={SLOT_LEN}): collision \
             fraction vs network size"
        ),
        &[
            "algorithm",
            "nodes",
            "collision_fraction",
            "worst_adjacent_skew",
        ],
    );

    // Size × algorithm cells, swept in parallel in row order.
    let algorithms = [
        AlgorithmKind::Max { period: 1.0 },
        AlgorithmKind::Gradient {
            period: 1.0,
            kappa: 0.125,
        },
    ];
    let cells: Vec<(usize, AlgorithmKind)> = sizes
        .iter()
        .flat_map(|&n| algorithms.iter().map(move |&kind| (n, kind)))
        .collect();
    let rows = SweepRunner::new().map(&cells, |_, &(n, kind)| {
        let horizon = 10.0 * n as f64;
        let exec = line_scenario(kind, n, horizon);
        let fraction = collision_fraction(&exec, horizon * 0.25, samples);
        let mut worst_adj = 0.0_f64;
        for i in 0..n - 1 {
            worst_adj =
                worst_adj.max(gcs_core::analysis::max_abs_skew(&exec, i, i + 1, horizon * 0.25).0);
        }
        vec![
            kind.name().to_string(),
            n.to_string(),
            fnum(fraction),
            fnum(worst_adj),
        ]
    });
    for row in rows {
        table.row_owned(row);
    }

    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_collisions_grow_with_size() {
        let tables = run(Scale::Quick);
        let rows: Vec<_> = tables[0].rows().iter().filter(|r| r[0] == "max").collect();
        let small: f64 = rows.first().unwrap()[3].parse().unwrap();
        let large: f64 = rows.last().unwrap()[3].parse().unwrap();
        assert!(
            large > small,
            "max adjacent skew must grow with size: {small} -> {large}"
        );
    }

    #[test]
    fn gradient_keeps_collision_rate_low() {
        let tables = run(Scale::Quick);
        for row in tables[0].rows() {
            if row[0] == "gradient" {
                let frac: f64 = row[2].parse().unwrap();
                assert!(frac < 0.2, "gradient collision fraction {frac}");
            }
        }
    }
}
