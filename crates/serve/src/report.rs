//! Serving measurement reports.

use crate::recovery::RecoverySimReport;
use parva_des::LatencyHistogram;
use serde::{Deserialize, Serialize, Value};

/// Per-service serving outcome.
#[derive(Debug, Clone, Deserialize)]
pub struct ServiceReport {
    /// Service id.
    pub service_id: u32,
    /// Offered requests during the measurement window.
    pub offered: u64,
    /// Requests completed during the window.
    pub completed: u64,
    /// Batches completed during the window.
    pub batches: u64,
    /// Batches whose worst request latency exceeded the client SLO.
    pub violated_batches: u64,
    /// Requests completed within the client SLO.
    pub completed_within_slo: u64,
    /// Per-request latency distribution (ms).
    pub latency: LatencyHistogram,
    /// Requests rejected at ingress because the owning tenant was over its
    /// admission quota. Always zero without tenant quotas.
    #[serde(default)]
    pub rejected: u64,
    /// Per-attempt queueing timeouts fired in-window. Always zero without
    /// a resilience policy ([`crate::ResilienceSpec`]).
    #[serde(default)]
    pub timeouts: u64,
    /// Timed-out requests re-enqueued (post-backoff) in-window.
    #[serde(default)]
    pub retries: u64,
    /// Requests dropped by queue-depth load shedding in-window.
    #[serde(default)]
    pub shed: u64,
    /// Hedge copies dispatched to a second server in-window.
    #[serde(default)]
    pub hedges: u64,
    /// Batched requests whose hedge copy won the race in-window.
    #[serde(default)]
    pub hedge_wins: u64,
}

// Hand-written so quota-free runs serialize exactly as before the tenant
// layer existed (`rejected` only when non-zero) and resilience-free runs
// exactly as before the resilience layer existed (counters only when
// non-zero).
impl Serialize for ServiceReport {
    fn to_value(&self) -> Value {
        let mut map = vec![
            (String::from("service_id"), self.service_id.to_value()),
            (String::from("offered"), self.offered.to_value()),
            (String::from("completed"), self.completed.to_value()),
            (String::from("batches"), self.batches.to_value()),
            (
                String::from("violated_batches"),
                self.violated_batches.to_value(),
            ),
            (
                String::from("completed_within_slo"),
                self.completed_within_slo.to_value(),
            ),
            (String::from("latency"), self.latency.to_value()),
        ];
        if self.rejected != 0 {
            map.push((String::from("rejected"), self.rejected.to_value()));
        }
        for (key, v) in [
            ("timeouts", self.timeouts),
            ("retries", self.retries),
            ("shed", self.shed),
            ("hedges", self.hedges),
            ("hedge_wins", self.hedge_wins),
        ] {
            if v != 0 {
                map.push((String::from(key), v.to_value()));
            }
        }
        Value::Map(map)
    }
}

/// Rollup of the resilience counters across services — the shape the
/// fleet/region layers attach to their per-event/per-region outcomes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResilienceCounters {
    /// Per-attempt queueing timeouts fired in-window.
    pub timeouts: u64,
    /// Timed-out requests re-enqueued (post-backoff) in-window.
    pub retries: u64,
    /// Requests dropped by queue-depth load shedding in-window.
    pub shed: u64,
    /// Hedge copies dispatched to a second server in-window.
    pub hedges: u64,
    /// Batched requests whose hedge copy won the race in-window.
    pub hedge_wins: u64,
}

impl ResilienceCounters {
    /// Did anything at all happen?
    #[must_use]
    pub fn is_zero(&self) -> bool {
        *self == Self::default()
    }

    /// Accumulate another rollup into this one.
    pub fn add(&mut self, other: &Self) {
        self.timeouts += other.timeouts;
        self.retries += other.retries;
        self.shed += other.shed;
        self.hedges += other.hedges;
        self.hedge_wins += other.hedge_wins;
    }
}

impl ServiceReport {
    /// SLO compliance rate over batches (1.0 when no batch completed).
    #[must_use]
    pub fn compliance_rate(&self) -> f64 {
        if self.batches == 0 {
            1.0
        } else {
            1.0 - self.violated_batches as f64 / self.batches as f64
        }
    }

    /// Request-level SLO compliance: in-SLO completions over *offered*
    /// requests, so requests a crippled deployment never serves count as
    /// violations. The batch-level [`ServiceReport::compliance_rate`]
    /// (the paper's Fig. 8 metric) is blind to dropped traffic — a service
    /// with zero capacity completes zero batches and scores 1.0 there;
    /// this metric scores it 0.0. Used by the §III-F disruption analysis.
    #[must_use]
    pub fn request_compliance_rate(&self) -> f64 {
        if self.offered == 0 {
            1.0
        } else {
            (self.completed_within_slo as f64 / self.offered as f64).min(1.0)
        }
    }
}

/// Per-ingress-class serving outcome (see
/// [`Simulation::ingress`](crate::Simulation::ingress)): one row per
/// `(service, class)`.
/// Latencies here *include* the class's network term, so a spilled class's
/// histogram directly shows the RTT-shifted distribution its remote users
/// experience.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClassReport {
    /// Owning service id.
    pub service_id: u32,
    /// Class index within the service (0 = local by convention).
    pub class: usize,
    /// Network latency charged to every request of this class, ms.
    pub network_ms: f64,
    /// Offered requests during the measurement window.
    pub offered: u64,
    /// Requests completed during the window.
    pub completed: u64,
    /// Requests completed within the client SLO (network term included).
    pub completed_within_slo: u64,
    /// Per-request latency distribution including the network term (ms).
    pub latency: LatencyHistogram,
}

impl ClassReport {
    /// Request-level SLO compliance of this class: in-SLO completions over
    /// offered requests (1.0 when nothing was offered).
    #[must_use]
    pub fn request_compliance_rate(&self) -> f64 {
        if self.offered == 0 {
            1.0
        } else {
            (self.completed_within_slo as f64 / self.offered as f64).min(1.0)
        }
    }
}

/// Per-tenant serving rollup: the sum of the tenant's service rows plus
/// admission-control accounting. Only present when the run was configured
/// with tenants ([`crate::Simulation::tenants`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TenantReport {
    /// Tenant id.
    pub tenant: u32,
    /// Tenant display name (may be empty).
    #[serde(default)]
    pub name: String,
    /// Requests offered by the tenant's services during the window.
    pub offered: u64,
    /// Requests admitted past the quota gate (`offered - rejected`).
    pub admitted: u64,
    /// Requests rejected at ingress (over quota).
    pub rejected: u64,
    /// Requests completed during the window.
    pub completed: u64,
    /// Requests completed within their service's SLO.
    pub completed_within_slo: u64,
    /// Merged per-request latency distribution across the tenant's
    /// services (ms).
    pub latency: LatencyHistogram,
}

impl TenantReport {
    /// SLO attainment against *offered* load: rejected requests count as
    /// misses, so quota pressure is visible (1.0 when nothing offered).
    #[must_use]
    pub fn attainment(&self) -> f64 {
        if self.offered == 0 {
            1.0
        } else {
            (self.completed_within_slo as f64 / self.offered as f64).min(1.0)
        }
    }

    /// Fraction of offered requests admitted past the quota gate.
    #[must_use]
    pub fn admission_rate(&self) -> f64 {
        if self.offered == 0 {
            1.0
        } else {
            self.admitted as f64 / self.offered as f64
        }
    }
}

/// Per-server (segment or partition) activity for the slack metric.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ServerActivity {
    /// Owning service.
    pub service_id: u32,
    /// SMs allocated to this server.
    pub sms: f64,
    /// Measured SM activity ∈ [0, 1] over the window (DCGM semantics).
    pub activity: f64,
}

/// Full serving report for one deployment run.
#[derive(Debug, Clone, Deserialize)]
pub struct ServingReport {
    /// Measurement window length, seconds.
    pub duration_s: f64,
    /// Per-service outcomes, ordered by service id.
    pub services: Vec<ServiceReport>,
    /// Per-server activity (order follows the deployment's server list).
    pub servers: Vec<ServerActivity>,
    /// Per-ingress-class outcomes, service-major then class order. Runs
    /// without [`Simulation::ingress`](crate::Simulation::ingress) classes
    /// have exactly one (local) class per service.
    #[serde(default)]
    pub classes: Vec<ClassReport>,
    /// What the DES measured about recovery work riding this window
    /// ([`Simulation::recovery`](crate::Simulation::recovery)); `None`
    /// when no recovery was simulated.
    #[serde(default)]
    pub recovery: Option<RecoverySimReport>,
    /// Per-tenant rollups ([`TenantReport`]); empty (and omitted from the
    /// serialized form) when the run had no tenants configured.
    #[serde(default)]
    pub tenants: Vec<TenantReport>,
}

// Hand-written so tenant-free runs serialize exactly as before the tenant
// layer existed: `tenants` is emitted only when non-empty.
impl Serialize for ServingReport {
    fn to_value(&self) -> Value {
        let mut map = vec![
            (String::from("duration_s"), self.duration_s.to_value()),
            (String::from("services"), self.services.to_value()),
            (String::from("servers"), self.servers.to_value()),
            (String::from("classes"), self.classes.to_value()),
            (String::from("recovery"), self.recovery.to_value()),
        ];
        if !self.tenants.is_empty() {
            map.push((String::from("tenants"), self.tenants.to_value()));
        }
        Value::Map(map)
    }
}

impl ServingReport {
    /// Batch-weighted SLO compliance across services (Fig. 8's y-axis).
    #[must_use]
    pub fn overall_compliance_rate(&self) -> f64 {
        let batches: u64 = self.services.iter().map(|s| s.batches).sum();
        if batches == 0 {
            return 1.0;
        }
        let violated: u64 = self.services.iter().map(|s| s.violated_batches).sum();
        1.0 - violated as f64 / batches as f64
    }

    /// Offered-request-weighted SLO compliance across services, counting
    /// unserved requests as violations (see
    /// [`ServiceReport::request_compliance_rate`]).
    #[must_use]
    pub fn overall_request_compliance_rate(&self) -> f64 {
        let offered: u64 = self.services.iter().map(|s| s.offered).sum();
        if offered == 0 {
            return 1.0;
        }
        let within: u64 = self.services.iter().map(|s| s.completed_within_slo).sum();
        (within as f64 / offered as f64).min(1.0)
    }

    /// GPU internal slack (paper Eq. 3): `1 − Σ(SMᵢ·Aᵢ) / Σ SMᵢ`.
    #[must_use]
    pub fn internal_slack(&self) -> f64 {
        let sm_total: f64 = self.servers.iter().map(|s| s.sms).sum();
        if sm_total <= 0.0 {
            return 0.0;
        }
        let weighted: f64 = self.servers.iter().map(|s| s.sms * s.activity).sum();
        1.0 - weighted / sm_total
    }

    /// The report for one service, if present.
    #[must_use]
    pub fn service(&self, id: u32) -> Option<&ServiceReport> {
        self.services.iter().find(|s| s.service_id == id)
    }

    /// The per-class rows of one service, class order.
    #[must_use]
    pub fn classes_of(&self, id: u32) -> Vec<&ClassReport> {
        self.classes.iter().filter(|c| c.service_id == id).collect()
    }

    /// Sum of the resilience counters across services; `None` when no
    /// resilience mechanism fired (including every resilience-free run).
    #[must_use]
    pub fn resilience_totals(&self) -> Option<ResilienceCounters> {
        let mut total = ResilienceCounters::default();
        for s in &self.services {
            total.add(&ResilienceCounters {
                timeouts: s.timeouts,
                retries: s.retries,
                shed: s.shed,
                hedges: s.hedges,
                hedge_wins: s.hedge_wins,
            });
        }
        (!total.is_zero()).then_some(total)
    }
}

/// What one service did during the last completed epoch of an
/// epoch-stepped run ([`Engine::step_epoch`](crate::Engine::step_epoch))
/// — the *observed* demand signal a closed-loop autoscaler estimates from
/// (never the oracle spec rate).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EpochObservation {
    /// Service id (the spec's `id`, not the engine index).
    pub service: u32,
    /// Requests that arrived during the epoch.
    pub offered: u64,
    /// Requests whose batch completed during the epoch.
    pub completed: u64,
    /// Completed requests that met the client SLO (network term included).
    pub within_slo: u64,
}

impl EpochObservation {
    /// SLO attainment among the epoch's completions (1.0 when idle).
    #[must_use]
    pub fn attainment(&self) -> f64 {
        if self.completed == 0 {
            1.0
        } else {
            self.within_slo as f64 / self.completed as f64
        }
    }
}

/// Cumulative report of an epoch-stepped run
/// ([`Engine::stream_report`](crate::Engine::stream_report)).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StreamReport {
    /// Epochs completed.
    pub epochs: u64,
    /// Simulation time reached, ms.
    pub sim_ms: f64,
    /// Per-service cumulative outcomes, in engine service order.
    pub services: Vec<StreamServiceReport>,
}

/// Cumulative outcome of one service across every completed epoch.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StreamServiceReport {
    /// Service id.
    pub id: u32,
    /// Requests offered.
    pub offered: u64,
    /// Requests completed.
    pub completed: u64,
    /// Completions that met the client SLO.
    pub within_slo: u64,
    /// `within_slo / completed` (1.0 when nothing completed).
    pub attainment: f64,
    /// Mean measured latency, ms.
    pub mean_ms: f64,
    /// 99th-percentile measured latency, ms.
    pub p99_ms: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn svc(id: u32, batches: u64, violated: u64) -> ServiceReport {
        ServiceReport {
            service_id: id,
            offered: batches * 8,
            completed: batches * 8,
            batches,
            violated_batches: violated,
            completed_within_slo: batches * 8 - violated * 8,
            latency: LatencyHistogram::new(),
            rejected: 0,
            timeouts: 0,
            retries: 0,
            shed: 0,
            hedges: 0,
            hedge_wins: 0,
        }
    }

    #[test]
    fn compliance_math() {
        let r = svc(0, 200, 7);
        assert!((r.compliance_rate() - 0.965).abs() < 1e-12);
        assert_eq!(svc(0, 0, 0).compliance_rate(), 1.0);
    }

    #[test]
    fn overall_compliance_weighted_by_batches() {
        let report = ServingReport {
            duration_s: 10.0,
            services: vec![svc(0, 100, 0), svc(1, 300, 30)],
            servers: vec![],
            classes: vec![],
            recovery: None,
            tenants: vec![],
        };
        // 30 violations / 400 batches.
        assert!((report.overall_compliance_rate() - 0.925).abs() < 1e-12);
    }

    #[test]
    fn internal_slack_eq3() {
        let report = ServingReport {
            duration_s: 10.0,
            services: vec![],
            servers: vec![
                ServerActivity {
                    service_id: 0,
                    sms: 42.0,
                    activity: 1.0,
                },
                ServerActivity {
                    service_id: 1,
                    sms: 42.0,
                    activity: 0.5,
                },
            ],
            classes: vec![],
            recovery: None,
            tenants: vec![],
        };
        // 1 - (42 + 21)/84 = 0.25.
        assert!((report.internal_slack() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn empty_report_defaults() {
        let report = ServingReport {
            duration_s: 1.0,
            services: vec![],
            servers: vec![],
            classes: vec![],
            recovery: None,
            tenants: vec![],
        };
        assert_eq!(report.overall_compliance_rate(), 1.0);
        assert_eq!(report.internal_slack(), 0.0);
        assert!(report.service(3).is_none());
    }
}
