//! # parva-region — multi-region fleet federation
//!
//! The paper validates ParvaGPU inside one 8×A100 cluster (§IV-A); a
//! production deployment serving a global user base runs several cloud
//! regions with different prices, different spot markets and real
//! distance between them. This crate federates multiple
//! [`parva_fleet::FleetSpec`]s into a region topology and makes the
//! ParvaGPU machinery survive region-scale events:
//!
//! * [`spec`] — the topology: [`RegionSpec`]s (fleet, price index, demand
//!   share, sun phase) plus the symmetric [`RttMatrix`].
//! * [`router`] — geo-aware demand routing: live regions serve locally;
//!   evacuated regions' demand spills to surviving regions weighted by
//!   capacity over distance, each flow carrying its RTT.
//! * [`event`] — the federation chaos stream: region-local fleet events
//!   plus region evacuation and failback.
//! * [`orchestrator`] — the [`Federation`] control loop: one
//!   [`parva_fleet::FleetOrchestrator`] per region, retargeted every
//!   interval through the §III-F incremental path, with cross-region
//!   failover when a region can no longer host its plan, and DES serving
//!   with the RTT charged against the SLO
//!   ([`parva_serve::Simulation::ingress`]).
//! * [`report`] — the deterministic per-interval [`FederationReport`].
//!
//! Entry point: [`run_federation`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod orchestrator;
pub mod report;
pub mod router;
pub mod spec;

pub use event::{next_region_event, next_region_event_with, RegionEvent};
pub use orchestrator::{
    run_federation, run_federation_sink, EvacuationDrill, Federation, FederationConfig,
    FederationError, FollowTheSun,
};
pub use report::{FederationReport, IntervalOutcome, RegionOutcome};
pub use router::{
    inbound, route_demand, route_demand_fair, route_from_fair, spill_excess, Demand, Flow,
    RTT_HALF_MS,
};
pub use spec::{FederationSpec, RegionSpec, RttMatrix};

/// The demo *global* service mix for federation surfaces. Rates are
/// full-planet totals (split across regions by demand share), sized so a
/// region's share spans several segments — losing a region then forces
/// real re-placement in the survivors, not just headroom absorption. The
/// SLO spread matters too: the sub-210 ms services cannot cross the
/// us-east ↔ ap-south ocean (210 ms RTT), while VGG-16's 400 ms SLO can
/// spill anywhere — exercising the router's per-service feasibility
/// filter.
#[must_use]
pub fn demo_services() -> Vec<parva_deploy::ServiceSpec> {
    use parva_perf::Model;
    vec![
        parva_deploy::ServiceSpec::new(0, Model::ResNet50, 4200.0, 205.0),
        parva_deploy::ServiceSpec::new(1, Model::MobileNetV2, 3400.0, 167.0),
        parva_deploy::ServiceSpec::new(2, Model::DenseNet121, 1500.0, 183.0),
        parva_deploy::ServiceSpec::new(3, Model::Vgg16, 900.0, 400.0),
    ]
}
