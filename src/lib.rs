//! # ParvaGPU — spatial GPU sharing for large-scale DNN inference
//!
//! This is the facade crate of the ParvaGPU workspace, a full reproduction of
//! *“ParvaGPU: Efficient Spatial GPU Sharing for Large-Scale DNN Inference in
//! Cloud Environments”* (SC 2024). It re-exports the public API of every
//! subsystem crate so downstream users can depend on a single crate:
//!
//! * [`mig`] — A100/H100 MIG geometry (profiles, 19 configurations, placement)
//! * [`perf`] — analytic DNN workload performance/memory model
//! * [`profile`] — the Profiler (instance × batch × process sweeps)
//! * [`deploy`] — shared deployment vocabulary and the `Scheduler` trait
//! * [`des`] — deterministic discrete-event simulation engine
//! * [`serve`] — cluster serving simulator (requests, batching, SLO tracking)
//! * [`core`] — the ParvaGPU Segment Configurator and Segment Allocator
//! * [`baselines`] — GSLICE, gpulet, iGniter, PARIS+ELSA and MIG-serving
//!   reimplementations (the paper's Table I comparison set)
//! * [`scenarios`] — the paper's Table IV evaluation scenarios, plus the
//!   declarative [`scenarios::ScenarioSpec`] experiment layer behind
//!   `parvactl run`
//! * [`metrics`] — internal slack, external fragmentation, SLO compliance
//! * [`obs`] — structured observability: request/recovery trace spans
//!   (Chrome/Perfetto `trace_event` JSON), deterministic time-series
//!   gauges, and orchestrator self-profiling — zero-cost when disabled
//! * [`nvml`] — simulated NVML/DCGM layer: instance lifecycle, minimal-diff
//!   reconfiguration (§III-F), SM-activity telemetry
//! * [`cluster`] — p4de.24xlarge node packing and cost accounting
//! * [`fleet`] — heterogeneous multi-node fleet orchestration: failures,
//!   spot preemption, live migration, event-driven recovery
//! * [`region`] — multi-region fleet federation: geo-aware routing with
//!   RTT charged against the SLO, region evacuation, cross-region
//!   failover, per-region pricing
//!
//! ## Quickstart
//!
//! ```
//! use parvagpu::prelude::*;
//!
//! // Profile a model zoo once (paper §III-C), then schedule services.
//! let profiles = ProfileBook::builtin();
//! let services = vec![
//!     ServiceSpec::new(0, Model::ResNet50, 800.0, 200.0),
//!     ServiceSpec::new(1, Model::MobileNetV2, 600.0, 150.0),
//! ];
//! let scheduler = ParvaGpu::new(&profiles);
//! let deployment = scheduler.schedule(&services).expect("feasible");
//! assert!(deployment.gpu_count() >= 1);
//! ```

pub mod cli;

pub use parva_autoscale as autoscale;
pub use parva_baselines as baselines;
pub use parva_cluster as cluster;
pub use parva_core as core;
pub use parva_deploy as deploy;
pub use parva_des as des;
pub use parva_fleet as fleet;
pub use parva_metrics as metrics;
pub use parva_mig as mig;
pub use parva_nvml as nvml;
pub use parva_obs as obs;
pub use parva_perf as perf;
pub use parva_profile as profile;
pub use parva_region as region;
pub mod scenarios;
pub use parva_serve as serve;
pub use parvad as daemon;

/// Convenience re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::scenarios::{ScenarioReport, ScenarioSpec};
    #[allow(deprecated)] // kept for downstream users until the oracle path is removed
    pub use parva_autoscale::run_traced;
    pub use parva_autoscale::{DemandEstimator, RateTrace};
    pub use parva_baselines::{Gpulet, Gslice, IGniter, MigServing, ParisElsa};
    pub use parva_core::{ParvaGpu, ParvaGpuSingle, ParvaGpuUnoptimized};
    pub use parva_deploy::{Deployment, ScheduleError, Scheduler, ServiceSpec, Slo};
    pub use parva_fleet::{run_chaos, FleetConfig, FleetReport, FleetSpec};
    pub use parva_metrics::{external_fragmentation, internal_slack};
    pub use parva_mig::{GpuModel, GpuState, InstanceProfile};
    pub use parva_obs::{MetricsLog, Recorder, SelfProfiler, TraceEvent, TraceSink};
    pub use parva_perf::Model;
    pub use parva_profile::ProfileBook;
    pub use parva_region::{run_federation, FederationConfig, FederationReport, FederationSpec};
    pub use parva_scenarios::Scenario;
    pub use parva_serve::{
        ArrivalProcess, Engine, IngressClass, RecoverySpec, ResilienceSpec, ServingConfig,
        ServingReport, Simulation,
    };
    pub use parvad::{AutoscalePolicy, Daemon, PodSpec};
}
