//! Sensor-network data fusion (the paper's first motivating application).
//!
//! A parent sensor fuses readings from its children. Readings carry
//! logical-clock timestamps; fusion is *consistent* only when sibling
//! timestamps of the same physical event agree within a tolerance. The
//! siblings are physically adjacent (distance 1-2), while the network is
//! much larger — exactly the regime where the gradient property matters:
//! a max-style algorithm lets a faraway fast clock yank one sibling ahead
//! of another, corrupting fusion, while a gradient algorithm keeps
//! siblings consistent regardless of network size.
//!
//! ```text
//! cargo run --example sensor_fusion
//! ```

use gradient_clock_sync::algorithms::{AlgorithmKind, SyncMsg};
use gradient_clock_sync::net::{AdversarialDelay, DelayOutcome};
use gradient_clock_sync::prelude::*;
use gradient_clock_sync::sim::Execution;

/// Physical events happen at known real times; each sensor timestamps them
/// with its logical clock. Fusion of an event is consistent when the two
/// sibling timestamps differ by less than `tolerance`.
fn fusion_failures(
    exec: &Execution<SyncMsg>,
    a: usize,
    b: usize,
    tolerance: f64,
) -> (usize, usize, f64) {
    let mut failures = 0;
    let mut events = 0;
    let mut worst = 0.0_f64;
    let mut t = exec.horizon() * 0.3;
    while t < exec.horizon() {
        let ts_a = exec.logical_at(a, t);
        let ts_b = exec.logical_at(b, t);
        events += 1;
        let gap = (ts_a - ts_b).abs();
        worst = worst.max(gap);
        if gap > tolerance {
            failures += 1;
        }
        t += 0.43; // physical events arrive steadily
    }
    (failures, events, worst)
}

fn run_network(kind: AlgorithmKind, n: usize) -> Execution<SyncMsg> {
    // A line network: the fusion pair sits at one end (nodes 1 and 2,
    // children of parent 0); the far end hosts a fast-drifting node whose
    // clock value sweeps the network.
    let topology = Topology::line(n);
    let horizon = 22.0 * (n as f64 - 1.0);
    let switch = 20.0 * (n as f64 - 1.0);
    let far = n - 1;
    let line = topology.clone();
    // The adversary uses maximal delays, then collapses the link toward
    // node 1 — the Section-2 dynamics hitting a fusion group.
    let policy = AdversarialDelay::new(move |from, to, _seq, send| {
        let d = line.distance(from, to);
        if (from, to) == (far, 1) && send >= switch {
            DelayOutcome::Delay(0.0)
        } else {
            DelayOutcome::Delay(d)
        }
    });
    let mut rates = vec![1.0; n];
    rates[far] = 1.05;
    SimulationBuilder::new(topology)
        .schedules(rates.into_iter().map(RateSchedule::constant).collect())
        .delay_policy(policy)
        .build_with(|id, n| -> Box<dyn Node<SyncMsg>> {
            let node = kind.build(id, n);
            // The far node also reports long-haul to child 1 (data
            // mule / long link), carrying its clock with it.
            if id == far {
                Box::new(LongLink {
                    inner: node,
                    peer: 1,
                    own_timer: None,
                })
            } else {
                node
            }
        })
        .expect("simulation builds")
        .try_execute_until(horizon)
        .expect("the sensor-fusion run")
}

/// Wrapper adding a periodic long-haul clock report to one peer.
struct LongLink {
    inner: Box<dyn Node<SyncMsg>>,
    peer: usize,
    own_timer: Option<u64>,
}

impl std::fmt::Debug for LongLink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LongLink")
            .field("peer", &self.peer)
            .finish_non_exhaustive()
    }
}

impl Node<SyncMsg> for LongLink {
    fn on_start(&mut self, ctx: &mut gradient_clock_sync::sim::Context<'_, SyncMsg>) {
        self.inner.on_start(ctx);
        self.own_timer = Some(ctx.set_timer(1.0));
    }
    fn on_timer(&mut self, ctx: &mut gradient_clock_sync::sim::Context<'_, SyncMsg>, timer: u64) {
        if self.own_timer == Some(timer) {
            let v = ctx.logical_now();
            ctx.send(self.peer, SyncMsg::Clock(v));
            self.own_timer = Some(ctx.set_timer(1.0));
        } else {
            self.inner.on_timer(ctx, timer);
        }
    }
    fn on_message(
        &mut self,
        ctx: &mut gradient_clock_sync::sim::Context<'_, SyncMsg>,
        from: usize,
        msg: &SyncMsg,
    ) {
        self.inner.on_message(ctx, from, msg);
    }
}

fn main() {
    let tolerance = 2.5; // fusion tolerates this much sibling timestamp skew
    println!("fusion pair: nodes 1 and 2 (adjacent); tolerance {tolerance}");
    println!(
        "{:<14} {:>8} {:>10} {:>8} {:>12}",
        "algorithm", "network", "failures", "events", "worst_gap"
    );
    for n in [8usize, 16, 32] {
        for kind in [
            AlgorithmKind::Max { period: 1.0 },
            AlgorithmKind::GradientRate {
                period: 1.0,
                threshold: 0.5,
                boost: 1.25,
            },
        ] {
            let exec = run_network(kind, n);
            let (failures, events, worst) = fusion_failures(&exec, 1, 2, tolerance);
            println!(
                "{:<14} {:>8} {:>10} {:>8} {:>12.3}",
                kind.name(),
                n,
                failures,
                events,
                worst
            );
        }
    }
    println!(
        "\nthe max algorithm's worst sibling gap scales with the network size \
         (a faraway fast clock reaches one sibling a full delay before the \
         other), so any fixed tolerance eventually fails; the rate-based \
         gradient algorithm's gap stays flat no matter how large the \
         network grows."
    );
}
