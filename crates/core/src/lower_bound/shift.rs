//! The folklore `f(d) = Ω(d)` lower bound (Section 5, item 1).
//!
//! The paper sketches the classical shifting argument of Lundelius-Welch
//! and Lynch: two nodes at distance `d` cannot tell which of them is ahead
//! when message delays can be skewed by `d` in either direction, so some
//! execution gives them `Ω(d)` skew.
//!
//! The executable realization here drives the same conclusion through the
//! drift-based Add Skew machinery (a pure delay-shift would require
//! translating a node's entire timeline, which has no finite starting
//! point): run a nominal execution `α` on a two-node network at distance
//! `d`, then build the indistinguishable `β` in which the pair's skew grew
//! by at least `d/12`. Since the two executions are indistinguishable and
//! their skews differ by `Ω(d)`, at least one of them exhibits skew
//! `≥ d/24` — for *any* synchronization algorithm.

use std::fmt;

use gcs_clocks::{DriftBound, RateSchedule};
use gcs_net::Topology;
use gcs_sim::{Node, NodeId, SimError, SimulationBuilder};

use super::add_skew::{AddSkew, AddSkewError, AddSkewParams};

/// Report of one Ω(d) demonstration.
#[derive(Debug, Clone)]
pub struct ShiftReport {
    /// The distance between the two nodes.
    pub distance: f64,
    /// Directed skew at the end of the nominal execution `α`.
    pub skew_alpha: f64,
    /// Directed skew at the end of the transformed execution `β`.
    pub skew_beta: f64,
    /// `max(|skew_alpha|, |skew_beta|)`: the skew the algorithm provably
    /// exhibits in one of two indistinguishable executions.
    pub witnessed_skew: f64,
    /// The guaranteed lower bound on `witnessed_skew`: `d/24`.
    pub guaranteed: f64,
    /// Whether the transformed execution passed model validation.
    pub valid: bool,
}

impl fmt::Display for ShiftReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "omega(d) at d={}: witnessed skew {:.4} (guaranteed {:.4})",
            self.distance, self.witnessed_skew, self.guaranteed
        )
    }
}

/// Errors from the Ω(d) demonstration.
#[derive(Debug)]
pub enum ShiftError {
    /// Building or running the simulation failed.
    Sim(SimError),
    /// The Add Skew construction was rejected.
    AddSkew(AddSkewError),
}

impl fmt::Display for ShiftError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShiftError::Sim(e) => write!(f, "simulation error: {e}"),
            ShiftError::AddSkew(e) => write!(f, "add-skew error: {e}"),
        }
    }
}

impl std::error::Error for ShiftError {}

impl From<SimError> for ShiftError {
    fn from(e: SimError) -> Self {
        ShiftError::Sim(e)
    }
}

impl From<AddSkewError> for ShiftError {
    fn from(e: AddSkewError) -> Self {
        ShiftError::AddSkew(e)
    }
}

/// Demonstrates `f(d) = Ω(d)` against the algorithm produced by `make`:
/// runs a nominal two-node execution at distance `d`, transforms it, and
/// reports the skew the algorithm must exhibit in one of the two
/// indistinguishable executions.
///
/// `warmup` extends the nominal run before the construction's window so
/// the algorithm reaches steady state (use `0.0` for none).
///
/// # Errors
///
/// Propagates simulation and Add Skew errors.
pub fn demonstrate_omega_d<M, N, F>(
    bound: DriftBound,
    d: f64,
    warmup: f64,
    make: F,
) -> Result<ShiftReport, ShiftError>
where
    M: Clone + fmt::Debug + 'static,
    N: Node<M> + 'static,
    F: FnMut(NodeId, usize) -> N,
{
    assert!(d >= 1.0, "distances are normalized to at least 1");
    let tau = bound.tau();
    let topology = Topology::from_matrix(vec![0.0, d, d, 0.0], d).expect("valid 2-node matrix");
    let horizon = warmup + tau * d;
    let alpha = SimulationBuilder::new(topology)
        .schedules(vec![RateSchedule::constant(1.0); 2])
        .build_with(make)?
        .try_execute_until(horizon)?;

    let outcome = AddSkew::new(bound).apply(&alpha, AddSkewParams::suffix(0, 1))?;
    let r = &outcome.report;
    let witnessed = r.skew_alpha_abs_max();
    Ok(ShiftReport {
        distance: d,
        skew_alpha: r.skew_before,
        skew_beta: r.skew_after,
        witnessed_skew: witnessed,
        guaranteed: d / 24.0,
        valid: r.validation.is_valid(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_sim::Context;

    #[derive(Debug)]
    struct Max;
    impl Node<f64> for Max {
        fn on_start(&mut self, ctx: &mut Context<'_, f64>) {
            ctx.set_timer(1.0);
        }
        fn on_timer(&mut self, ctx: &mut Context<'_, f64>, _t: u64) {
            let v = ctx.logical_now();
            ctx.send_to_neighbors(&v);
            ctx.set_timer(1.0);
        }
        fn on_message(&mut self, ctx: &mut Context<'_, f64>, _f: NodeId, m: &f64) {
            if *m > ctx.logical_now() {
                ctx.set_logical(*m);
            }
        }
    }

    #[derive(Debug)]
    struct Calm;
    impl Node<f64> for Calm {
        fn on_start(&mut self, _ctx: &mut Context<'_, f64>) {}
        fn on_message(&mut self, _ctx: &mut Context<'_, f64>, _f: NodeId, _m: &f64) {}
    }

    fn rho() -> DriftBound {
        DriftBound::new(0.5).unwrap()
    }

    #[test]
    fn omega_d_holds_for_max_algorithm() {
        for d in [1.0, 4.0, 16.0] {
            let r = demonstrate_omega_d(rho(), d, 0.0, |_, _| Max).unwrap();
            assert!(r.valid, "d = {d}");
            assert!(
                r.witnessed_skew >= r.guaranteed - 1e-9,
                "d = {d}: witnessed {} < guaranteed {}",
                r.witnessed_skew,
                r.guaranteed
            );
        }
    }

    #[test]
    fn omega_d_holds_for_silent_algorithm() {
        let r = demonstrate_omega_d(rho(), 8.0, 0.0, |_, _| Calm).unwrap();
        assert!(r.witnessed_skew >= r.guaranteed - 1e-9);
    }

    #[test]
    fn witnessed_skew_scales_linearly() {
        let r1 = demonstrate_omega_d(rho(), 2.0, 0.0, |_, _| Max).unwrap();
        let r2 = demonstrate_omega_d(rho(), 32.0, 0.0, |_, _| Max).unwrap();
        assert!(r2.witnessed_skew >= 8.0 * r1.witnessed_skew.max(1e-6) - 1e-6);
    }

    #[test]
    fn warmup_is_respected() {
        let r = demonstrate_omega_d(rho(), 4.0, 10.0, |_, _| Max).unwrap();
        assert!(r.valid);
        assert!(r.witnessed_skew >= r.guaranteed - 1e-9);
    }

    #[test]
    fn report_display_mentions_distance() {
        let r = demonstrate_omega_d(rho(), 4.0, 0.0, |_, _| Max).unwrap();
        assert!(format!("{r}").contains("d=4"));
    }
}
