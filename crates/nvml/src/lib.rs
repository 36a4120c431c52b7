//! # parva-nvml — simulated NVML/DCGM management layer
//!
//! The layer a production deployment of ParvaGPU would drive through the
//! NVIDIA Management Library: device enumeration, MIG mode control, GPU
//! instance lifecycle, and DCGM-style telemetry fields. No MIG-capable
//! hardware is available in this reproduction (repro band: "MIG hardware
//! gate; NVML crates thin but workable"), so this crate provides a faithful
//! in-memory twin of the API *surface* the scheduler's deployment stage
//! needs:
//!
//! * [`SimNvml`] — a fleet of simulated devices with NVML-shaped calls
//!   (`device_count`, MIG mode toggles, `create_gpu_instance` /
//!   `destroy_gpu_instance` with real placement validation via
//!   [`parva_mig::GpuState`], NVIDIA-style UUIDs and profile names);
//! * [`telemetry`] — DCGM field groups (SM activity, memory used, …) with
//!   windowed sampling, the counters behind the paper's Eq. 3 internal-slack
//!   metric (§IV-B2 cites DCGM's SM-activity semantics directly);
//! * [`apply`] — executing a [`parva_deploy::MigDeployment`] against the
//!   fleet, translating the deployment map into instance operations, and
//!   executing the **minimal-diff reconfiguration** (paper §III-F:
//!   "services whose placement has not changed do not require
//!   reconfiguration") that [`parva_deploy::DeploymentDiff`] computes
//!   between two deployment maps — only its destroy/create/retune ops;
//! * [`reconcile`](mod@reconcile) — level-based repair: observe the live
//!   fleet, diff it against the target map, converge — so manual
//!   deletions, driver resets and stray instances are healed idempotently.
//!
//! Everything is deterministic and in-memory; swapping [`SimNvml`] for a
//! thin binding over the real NVML preserves the call sequence.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apply;
pub mod device;
pub mod error;
pub mod reconcile;
pub mod telemetry;

pub use apply::{apply_deployment, apply_diff, fleet_matches, AppliedInstance};
pub use device::{Device, GpuInstance, InstanceId, SimNvml};
pub use error::NvmlError;
pub use reconcile::{reconcile, reconcile_plan, ReconcileReport};
pub use telemetry::{FieldId, FieldSample, TelemetryStore};
