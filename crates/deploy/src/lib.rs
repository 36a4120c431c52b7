//! # parva-deploy — deployment vocabulary shared by all schedulers
//!
//! Defines the types every scheduler in this workspace produces and consumes:
//!
//! * [`ServiceSpec`] / [`Slo`] — a registered inference service: model,
//!   request rate and SLO latency (the client input of paper Fig. 2).
//! * [`Tenant`] / [`SloClass`] — the multi-tenant identity a service binds
//!   to: admission quota, fair-share weight and billing rate.
//! * [`Segment`] — "an MPS-activated MIG instance" (paper §I): a service's
//!   operating triplet plus its predicted throughput and latency.
//! * [`MigDeployment`] — segments placed on MIG-partitioned GPUs (ParvaGPU,
//!   MIG-serving).
//! * [`MpsDeployment`] — fractional MPS partitions on whole GPUs (gpulet,
//!   iGniter).
//! * [`DeploymentDiff`] — the §III-F minimal diff between two deployment
//!   maps: which slots are kept, and the [`ReconfigOp`]s (destroy, create,
//!   MPS retune) that turn one map into the other.
//! * [`Scheduler`] — the common trait: services in, deployment out, plus the
//!   capability matrix of the paper's Table I.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod capability;
pub mod diff;
pub mod error;
pub mod mig_deployment;
pub mod mps_deployment;
pub mod scheduler;
pub mod segment;
pub mod service;
pub mod tenant;

pub use capability::{Capabilities, OverheadClass, SpatialScheduling};
pub use diff::{DeploymentDiff, ReconfigOp, Slot};
pub use error::ScheduleError;
pub use mig_deployment::{MigDeployment, PlacedSegment};
pub use mps_deployment::{MpsDeployment, MpsGpu, MpsPartition};
pub use scheduler::{Deployment, Scheduler};
pub use segment::Segment;
pub use service::{ServiceSpec, Slo};
pub use tenant::{tenant_of, SloClass, Tenant};
