//! Conformance harness for the gradient clock synchronization workspace.
//!
//! Every future scaling or performance PR is verified against this crate:
//! it packages the three ingredients the integration suite (and any new
//! workload) needs, so tests describe *scenarios and properties* instead of
//! re-wiring simulators by hand:
//!
//! - [`scenario`]: declarative scenario builders — topology shapes
//!   (line/ring/grid/star/complete/random-geometric) × drift models
//!   (nominal/constant/spread/random-walk) × delay policies
//!   (fixed-fraction/uniform/broadcast, with optional message loss) ×
//!   algorithm, all under one seed.
//! - [`snapshot`]: golden-snapshot capture of [`gcs_sim::Execution`]
//!   traces. Fingerprints are **bit-exact** (every `f64` is rendered via
//!   `to_bits`), so equality of fingerprints is equality of executions, and
//!   on-disk goldens lock in deterministic replay across releases.
//! - [`oracle`]: skew oracles — [`oracle::assert_global_skew_bound`],
//!   [`oracle::assert_gradient_property`], validity checks, and the
//!   four-observer [`oracle::StreamedMetrics`] bundle.
//!
//! # Example
//!
//! ```
//! use gcs_algorithms::AlgorithmKind;
//! use gcs_testkit::prelude::*;
//!
//! let scenario = Scenario::line(6)
//!     .algorithm(AlgorithmKind::Gradient { period: 1.0, kappa: 0.5 })
//!     .drift_walk(0.02, 10.0, 0.005)
//!     .uniform_delay(0.1, 0.9)
//!     .seed(7)
//!     .horizon(80.0);
//! let exec = scenario.run();
//!
//! // Re-running the same scenario replays the execution bit-identically.
//! assert_bit_identical(&exec, &scenario.run());
//! assert_validity(&exec);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod oracle;
pub mod scenario;
pub mod snapshot;

pub use oracle::{
    assert_global_skew_bound, assert_gradient_property, assert_stabilization, assert_validity,
    assert_validity_in, assert_weak_gradient_property, for_each_live_edge_sample, streamed_metrics,
    worst_adjacent_skew, LiveEdgeSample, StreamedMetrics,
};
pub use scenario::{DelaySpec, DriftSpec, Scenario};
pub use snapshot::{
    assert_bit_identical, assert_matches_golden, assert_text_matches_golden, digest, fingerprint,
};

pub mod prelude {
    //! One-stop imports for conformance tests.

    pub use crate::oracle::{
        assert_global_skew_bound, assert_gradient_property, assert_stabilization, assert_validity,
        assert_validity_in, assert_weak_gradient_property, for_each_live_edge_sample,
        streamed_metrics, worst_adjacent_skew, LiveEdgeSample, StreamedMetrics,
    };
    pub use crate::scenario::{DelaySpec, DriftSpec, Scenario};
    pub use crate::snapshot::{
        assert_bit_identical, assert_matches_golden, assert_text_matches_golden, digest,
        fingerprint,
    };
}
