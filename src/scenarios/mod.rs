//! Evaluation scenarios: the paper's Table IV tables plus the declarative
//! experiment layer.
//!
//! This module re-exports everything from `parva-scenarios` (the Table IV
//! scenario data, diurnal curves, spot-warning budgets) and adds the
//! workspace's declarative experiment API on top:
//!
//! * [`ScenarioSpec`] — a serde (JSON) description of an entire
//!   experiment: service mix, GPU catalog slice, fleet pools and chaos
//!   trace, optional regions and drills, windows, seeds. One schema spans
//!   the whole range from a single-GPU serving run to a multi-region
//!   chaos federation; [`ScenarioSpec::run`] dispatches to the right
//!   engine and returns a tagged [`ScenarioReport`].
//! * `registry` — the named built-in specs behind `parvactl run <name>`.
//!
//! The spec layer lives in this facade crate (not `parva-scenarios`)
//! because it sits *above* `fleet` and `region` in the dependency graph —
//! `parva-scenarios` is below both.

mod registry;
mod spec;

pub use parva_scenarios::*;
pub use registry::{builtin_specs, spec_by_name, spec_names};
pub use spec::{
    ClassSplit, DiurnalSpec, FederationSource, FleetSource, Mode, ObservabilitySpec,
    ScenarioReport, ScenarioSpec, ServiceEntry, SpotMarketSpec, StreamingSpec, TenantSpec, Window,
    Workload,
};
