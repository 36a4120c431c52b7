//! # parva-serve — the cluster serving simulator
//!
//! Executes a [`parva_deploy::Deployment`] against synthetic client load,
//! replacing the paper's live inference servers on A100 fleets. For each
//! service a Poisson arrival process offers requests at the Table IV rate;
//! requests are routed to the service's segments/partitions by weighted
//! round-robin (capacity-proportional, as a front-end load balancer would),
//! queued, batched greedily (a free process takes up to its configured batch
//! from the queue), and executed with service times from the calibrated
//! performance model — including MPS saturation dynamics within a segment
//! and true inter-workload interference κ for MPS co-residents (the
//! schedulers only ever saw *estimates*, which is exactly how mispredictions
//! become SLO violations here).
//!
//! Measurements mirror the paper's §IV-B/C:
//!
//! * **SLO compliance** — fraction of *batches* whose worst request latency
//!   met the client SLO (Fig. 8's metric),
//! * **SM activity** — per server, accumulated compute-occupancy time over
//!   the measurement window (the DCGM semantics behind Eq. 3's internal
//!   slack),
//! * full latency histograms per service.
//!
//! One engine ([`Engine`]) runs every simulation. [`Simulation`] builds
//! it, advances it through a warm-up/measurement/drain window and reports;
//! the `parvad` daemon builds it with a window that never closes, advances
//! it epoch by epoch, swaps deployments under the live traffic between
//! epochs, and checkpoints its whole state through `serde`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod recovery;
#[cfg(test)]
mod reference;
pub mod report;
pub mod resilience;
pub mod router;
pub mod sim;
pub mod simulation;

pub use recovery::{RecoveryOp, RecoverySimReport, RecoverySpec};
pub use report::{
    ClassReport, EpochObservation, ResilienceCounters, ServerActivity, ServiceReport,
    ServingReport, StreamReport, StreamServiceReport, TenantReport,
};
pub use resilience::ResilienceSpec;
pub use router::Router;
pub use sim::{ArrivalProcess, Engine, IngressClass, ServingConfig};
pub use simulation::Simulation;
