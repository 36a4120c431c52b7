//! # parva-fleet — heterogeneous multi-node fleet orchestration
//!
//! The paper's evaluation assumes a static, homogeneous pool of A100 nodes
//! (§IV-A), but its own cost argument — "the pay-per-use nature of cloud
//! environments" (§I) — only bites in a *dynamic* fleet: nodes are
//! heterogeneous (§V names the whole A100→H200→B200 ladder), spot capacity
//! vanishes, GPUs fail, and demand drifts. This crate simulates that living
//! cluster and makes the ParvaGPU machinery recover through it:
//!
//! * [`node`] — the inventory: [`NodePool`]s over
//!   [`parva_mig::GpuModel::CATALOG`] instance types with per-pool
//!   [`parva_cluster::PricingPlan`]s and spot exposure; nodes die
//!   ([`Fleet::kill`]) and arrive ([`Fleet::grant`]).
//! * [`event`] — the seeded chaos stream: node failures, spot preemptions,
//!   scale-up grants, load shifts. Deterministic per seed.
//! * [`placer`] — logical → physical anchoring: the scheduler's anonymous
//!   A100-geometry GPUs are assigned to concrete slots with per-model
//!   memory feasibility and per-node vCPU budgets, sticky-first so
//!   recoveries migrate as little as possible.
//! * [`orchestrator`] — the event-driven control loop: on each event it
//!   re-runs the two-stage scheduler *incrementally* (the §III-F path via
//!   [`parva_core::allocator`] and [`parva_core::reconfigure`]), quantifies
//!   the disruption window with
//!   [`parva_autoscale::simulate_displacement_window`], re-anchors and
//!   re-packs the surviving nodes, and serves the next interval in the DES
//!   simulator to prove SLO compliance returned.
//! * [`migration`] — the physical diff each recovery implies: moved
//!   segments, GPU MIG re-flashes (serialized per node), stranded GPCs, an
//!   analytic recovery latency, and the lowering of the plan into serving-
//!   DES recovery ops ([`MigrationPlan::to_recovery_spec`]) so weight
//!   copies and re-flashes compete with live traffic and the disruption
//!   dip is *measured*, not assumed. Spot two-minute warnings
//!   ([`FleetEvent::PreemptionWarning`]) pre-copy weights and pre-flash
//!   targets before the capacity dies, shrinking the measured dip toward
//!   the control-plane delay.
//! * [`pack`] / [`report`] — node-granularity cost under mixed pricing and
//!   the per-event [`FleetReport`].
//!
//! Entry point: [`run_chaos`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod migration;
pub mod node;
pub mod orchestrator;
pub mod pack;
pub mod placer;
pub mod report;
pub mod simcache;

pub use event::{next_event, next_event_with, ChaosProfile, FleetEvent};

pub use migration::MigrationPlan;
pub use node::{Fleet, FleetNode, FleetSpec, GpuSlot, NodePool};
pub use orchestrator::{
    emit_billing_gauges, event_label, run_chaos, run_chaos_sink, FleetConfig, FleetError,
    FleetOrchestrator, RecoveryOutcome, DEFAULT_MAX_REPLACEMENTS,
};
pub use pack::{FleetPacking, NodeUsage};
pub use placer::{
    place_on_fleet, place_sticky, translate_placement, FleetPlacement, PlacementError,
};
pub use report::{EventOutcome, FleetReport, RECOVERY_TOLERANCE};
pub use simcache::SimCache;

/// The demo service mix used by the chaos surfaces (`parvactl fleet`, the
/// `fleet_chaos` bench binary and example): four CNN services sized to fit
/// comfortably inside [`FleetSpec::mixed_demo`]'s base capacity so chaos
/// runs exercise recovery, not capacity planning. Companion to
/// [`FleetSpec::mixed_demo`].
#[must_use]
pub fn demo_services() -> Vec<parva_deploy::ServiceSpec> {
    use parva_perf::Model;
    vec![
        parva_deploy::ServiceSpec::new(0, Model::ResNet50, 700.0, 205.0),
        parva_deploy::ServiceSpec::new(1, Model::MobileNetV2, 500.0, 167.0),
        parva_deploy::ServiceSpec::new(2, Model::DenseNet121, 300.0, 183.0),
        parva_deploy::ServiceSpec::new(3, Model::Vgg16, 200.0, 400.0),
    ]
}
