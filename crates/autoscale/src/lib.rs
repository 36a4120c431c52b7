//! # parva-autoscale — ParvaGPU under fluctuating request rates
//!
//! The paper motivates its low scheduling overhead with "environments with
//! fluctuating request rates" (§IV-A: MIG-serving's slow algorithm is ruled
//! out for exactly that reason) and sketches the runtime story in §III-F:
//! when a service's rate or SLO changes, only that service is re-configured,
//! its segments are relocated, and unaffected GPUs keep serving; shadow
//! processes bridge the brief MIG/MPS reconfiguration window.
//!
//! This crate holds the two pieces of that story the control loops share:
//!
//! * [`DemandEstimator`] turns *observed* per-service arrivals into the
//!   rates the incremental allocator plans against — the `parvad` daemon's
//!   closed loop runs on it;
//! * [`shadow`] builds and simulates the §III-F shadow-process window for
//!   capacity that goes dark — the fleet orchestrator runs it on every
//!   displacement.
//!
//! What a re-slice costs is priced once, for the fleet and the daemon
//! alike, by [`parva_serve::recovery`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod estimator;
pub mod shadow;

pub use estimator::DemandEstimator;
pub use shadow::{
    displacement_window, simulate_displacement_window, simulate_window, DisplacementWindow,
    DisruptionReport,
};
