//! Service specifications: what a client registers with the system.

use parva_perf::Model;
use serde::{Deserialize, Serialize};

/// A service-level objective on inference latency.
///
/// Following the paper (§IV-A, citing Nexus): the *scheduler-internal* latency
/// budget is half of the client-facing SLO, leaving the other half for
/// request queuing on the server.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Slo {
    /// Client-facing end-to-end latency bound, milliseconds.
    pub latency_ms: f64,
}

impl Slo {
    /// Create an SLO from the client-facing latency bound.
    #[must_use]
    pub const fn from_latency_ms(latency_ms: f64) -> Self {
        Self { latency_ms }
    }

    /// The internal execution-latency target used by all scheduling
    /// algorithms: half the SLO (paper §IV-A, "the internal latency within
    /// the algorithm is set to half of the target latency").
    #[must_use]
    pub fn internal_target_ms(&self) -> f64 {
        self.latency_ms / 2.0
    }
}

/// A registered DNN inference service (paper Table II: `id`, `lat`,
/// `req_rate`; the algorithm-output fields live in `parva-core::Service`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServiceSpec {
    /// Service identification number.
    pub id: u32,
    /// The DNN model served.
    pub model: Model,
    /// Offered request rate, requests per second.
    pub request_rate_rps: f64,
    /// The client-facing SLO.
    pub slo: Slo,
    /// Owning tenant id; `0` (the default) means untenanted. See
    /// [`crate::Tenant`].
    #[serde(default, skip_serializing_if = "is_untenanted")]
    pub tenant: u32,
}

fn is_untenanted(tenant: &u32) -> bool {
    *tenant == 0
}

impl ServiceSpec {
    /// Create a service spec from model, rate and SLO latency (ms).
    #[must_use]
    pub fn new(id: u32, model: Model, request_rate_rps: f64, slo_latency_ms: f64) -> Self {
        Self {
            id,
            model,
            request_rate_rps,
            slo: Slo::from_latency_ms(slo_latency_ms),
            tenant: 0,
        }
    }

    /// Builder: bind this service to a tenant.
    #[must_use]
    pub fn with_tenant(mut self, tenant: u32) -> Self {
        self.tenant = tenant;
        self
    }

    /// A throughput-only service: no meaningful latency bound, just a rate
    /// to sustain. This is the paper's proposed adaptation for HPC and DNN
    /// *training* workloads (§VI: "by modifying the SLO conditions in the
    /// developed algorithms, it can also be adapted for high-performance
    /// computing (HPC) applications and DNN training workloads") — the
    /// Configurator then simply picks the most GPC-efficient triplets.
    #[must_use]
    pub fn throughput_only(id: u32, model: Model, request_rate_rps: f64) -> Self {
        // A week of latency budget: effectively unbounded, but still finite
        // so every validity check and histogram stays well-behaved.
        Self::new(id, model, request_rate_rps, 7.0 * 24.0 * 3_600.0 * 1_000.0)
    }

    /// Validity check: positive rate and latency.
    #[must_use]
    pub fn is_valid(&self) -> bool {
        self.request_rate_rps > 0.0
            && self.slo.latency_ms > 0.0
            && self.request_rate_rps.is_finite()
            && self.slo.latency_ms.is_finite()
    }
}

impl std::fmt::Display for ServiceSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "svc#{} {} @{:.0} req/s, SLO {:.0} ms",
            self.id, self.model, self.request_rate_rps, self.slo.latency_ms
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn internal_target_is_half_slo() {
        let slo = Slo::from_latency_ms(200.0);
        assert_eq!(slo.internal_target_ms(), 100.0);
    }

    #[test]
    fn spec_construction() {
        let s = ServiceSpec::new(3, Model::ResNet50, 829.0, 205.0);
        assert_eq!(s.id, 3);
        assert_eq!(s.slo.internal_target_ms(), 102.5);
        assert!(s.is_valid());
    }

    #[test]
    fn invalid_specs_detected() {
        assert!(!ServiceSpec::new(0, Model::Vgg16, 0.0, 100.0).is_valid());
        assert!(!ServiceSpec::new(0, Model::Vgg16, 10.0, 0.0).is_valid());
        assert!(!ServiceSpec::new(0, Model::Vgg16, f64::NAN, 100.0).is_valid());
        assert!(!ServiceSpec::new(0, Model::Vgg16, 10.0, f64::INFINITY).is_valid());
    }

    #[test]
    fn untenanted_spec_serializes_without_tenant_field() {
        let s = ServiceSpec::new(3, Model::ResNet50, 829.0, 205.0);
        let json = serde_json::to_string(&s).unwrap();
        assert!(!json.contains("tenant"), "{json}");
        let back: ServiceSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.tenant, 0);
    }

    #[test]
    fn tenant_binding_round_trips() {
        let s = ServiceSpec::new(3, Model::ResNet50, 829.0, 205.0).with_tenant(7);
        let json = serde_json::to_string(&s).unwrap();
        assert!(json.contains("\"tenant\":7"), "{json}");
        let back: ServiceSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn display_format() {
        let s = ServiceSpec::new(1, Model::MobileNetV2, 677.0, 167.0);
        let d = s.to_string();
        assert!(d.contains("svc#1") && d.contains("MobileNetV2"));
    }
}
