//! # parva-cluster — cloud-node packing and cost accounting
//!
//! The paper's whole motivation is cost: "the pay-per-use nature of cloud
//! environments requires paying additional costs for any underutilized
//! resources" (§I), and the evaluation rents GPUs by the *node* — "multiple
//! Amazon p4de.24xlarge instances, each equipped with eight A100 GPUs"
//! (§IV-A). A deployment map therefore translates to money only through
//! node granularity: 9 GPUs cost two full p4de nodes, not 9/8 of one.
//!
//! This crate closes that last mile:
//!
//! * [`NodeType`] — cloud instance types (p4de/p4d) with GPU count, vCPUs,
//!   host memory and hourly price;
//! * [`PricingPlan`] — on-demand / reserved / spot multipliers;
//! * [`pack`](mod@pack) — mapping a deployment's GPUs onto nodes,
//!   honouring the per-node vCPU budget consumed by inference-server
//!   processes;
//! * [`CostReport`] — per-scheduler dollars (hourly/monthly) and savings
//!   versus a baseline, turning Figure 5's GPU counts into the cost claim
//!   the paper states in prose ("ParvaGPU can further reduce costs by the
//!   same percentages", §IV-B1).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod billing;
pub mod cost;
pub mod node;
pub mod pack;

pub use billing::{BillingReport, BillingRow, FollowTheSunRow};
pub use cost::{CostReport, PricingPlan};
pub use node::NodeType;
pub use pack::{pack, NodePlan, PackedNode, VCPUS_PER_PROCESS};
