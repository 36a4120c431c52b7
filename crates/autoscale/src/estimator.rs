//! Observed-demand estimation: the closed-loop autoscaler's demand signal.
//!
//! The paper's §III-F reconfiguration path takes a *known* new request rate
//! — an oracle. A real control plane never has one: it only sees what
//! arrived. [`DemandEstimator`] is the bridge: feed it per-epoch observed
//! arrival rates (from [`parva_serve::Engine::last_epoch`] gauges or
//! any other measured source), and it produces per-service demand
//! estimates — a trailing-window mean with a configurable headroom factor —
//! which [`DemandEstimator::demand_specs`] turns into the `ServiceSpec`
//! rates the incremental allocator plans against.
//!
//! The `parvad` daemon's closed loop is the one consumer: it observes each
//! epoch's arrival counts and plans against [`DemandEstimator::demand_specs`]
//! on its decision cadence.
//!
//! The estimator state is `serde`-serializable so a suspended daemon
//! resumes its control decisions bit-identically.

use parva_deploy::ServiceSpec;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Trailing-window demand estimator over observed per-service arrival
/// rates.
///
/// With `window = 1` and `headroom = 1.0` the estimate is exactly the last
/// observation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DemandEstimator {
    window: usize,
    headroom: f64,
    history: Vec<VecDeque<f64>>,
}

impl DemandEstimator {
    /// An estimator for `services` services averaging the last `window`
    /// observations (clamped to ≥ 1). Headroom starts at 1.0.
    #[must_use]
    pub fn new(services: usize, window: usize) -> Self {
        Self {
            window: window.max(1),
            headroom: 1.0,
            history: vec![VecDeque::new(); services],
        }
    }

    /// Builder: multiply every estimate by `headroom` (provisioning
    /// safety margin against demand growth within the actuation lag).
    ///
    /// # Panics
    /// Non-finite or non-positive headroom.
    #[must_use]
    pub fn with_headroom(mut self, headroom: f64) -> Self {
        assert!(
            headroom.is_finite() && headroom > 0.0,
            "headroom must be positive"
        );
        self.headroom = headroom;
        self
    }

    /// Number of services tracked.
    #[must_use]
    pub fn services(&self) -> usize {
        self.history.len()
    }

    /// Record one epoch's observed arrival rates (req/s, one per service).
    /// A longer slice than [`DemandEstimator::services`] grows the tracked
    /// set (newly admitted pods); a shorter one leaves the tail untouched.
    pub fn observe(&mut self, observed_rps: &[f64]) {
        if observed_rps.len() > self.history.len() {
            self.history.resize_with(observed_rps.len(), VecDeque::new);
        }
        for (h, &r) in self.history.iter_mut().zip(observed_rps) {
            h.push_back(if r.is_finite() && r > 0.0 { r } else { 0.0 });
            while h.len() > self.window {
                h.pop_front();
            }
        }
    }

    /// Record observed arrival *counts* over an epoch of `epoch_s` seconds
    /// — the shape an epoch-stepped engine's gauges come in.
    ///
    /// # Panics
    /// Non-positive `epoch_s`.
    pub fn observe_counts(&mut self, counts: &[u64], epoch_s: f64) {
        assert!(epoch_s > 0.0, "epoch duration must be positive");
        let rates: Vec<f64> = counts.iter().map(|&c| c as f64 / epoch_s).collect();
        self.observe(&rates);
    }

    /// Headroom-free demand estimate of service `i`: the trailing-window
    /// mean of its observed rates. `None` until the first observation.
    #[must_use]
    pub fn estimate(&self, i: usize) -> Option<f64> {
        let h = self.history.get(i)?;
        if h.is_empty() {
            return None;
        }
        Some(h.iter().sum::<f64>() / h.len() as f64)
    }

    /// Turn `base` specs into allocator input: each service's rate becomes
    /// `headroom × estimate` (falling back to the base rate until its
    /// first observation — the initial plan has nothing observed yet).
    /// SLO, model and tenant pass through unchanged.
    #[must_use]
    pub fn demand_specs(&self, base: &[ServiceSpec]) -> Vec<ServiceSpec> {
        base.iter()
            .enumerate()
            .map(|(i, s)| {
                let rate = match self.estimate(i) {
                    Some(e) => self.headroom * e,
                    None => s.request_rate_rps,
                };
                ServiceSpec {
                    // A zero-rate service is still deployed at a minimal
                    // footprint: the allocator needs a positive rate.
                    request_rate_rps: rate.max(s.request_rate_rps * 1e-3),
                    ..*s
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parva_perf::Model;

    #[test]
    fn trailing_window_mean() {
        let mut e = DemandEstimator::new(1, 3);
        assert_eq!(e.estimate(0), None);
        e.observe(&[100.0]);
        e.observe(&[200.0]);
        assert_eq!(e.estimate(0), Some(150.0));
        e.observe(&[300.0]);
        e.observe(&[400.0]); // evicts the 100.0 sample
        assert_eq!(e.estimate(0), Some(300.0));
    }

    #[test]
    fn window_one_tracks_last_observation_exactly() {
        let mut e = DemandEstimator::new(2, 1);
        e.observe(&[7.0, 9.0]);
        e.observe(&[70.0, 90.0]);
        assert_eq!(e.estimate(0), Some(70.0));
        assert_eq!(e.estimate(1), Some(90.0));
    }

    #[test]
    fn demand_specs_apply_headroom_and_fallback() {
        let base = vec![
            ServiceSpec::new(0, Model::ResNet50, 600.0, 205.0),
            ServiceSpec::new(1, Model::MobileNetV2, 500.0, 167.0),
        ];
        let mut e = DemandEstimator::new(2, 1).with_headroom(1.2);
        e.observe(&[400.0, 0.0]);
        let specs = e.demand_specs(&base);
        assert!((specs[0].request_rate_rps - 480.0).abs() < 1e-9);
        // Observed-zero service keeps a minimal positive footprint.
        assert!(specs[1].request_rate_rps > 0.0);
        assert!(specs[1].request_rate_rps < 1.0);
        // SLOs pass through.
        assert_eq!(specs[0].slo.latency_ms, 205.0);
    }

    #[test]
    fn unobserved_services_fall_back_to_base_rate() {
        let base = vec![ServiceSpec::new(0, Model::ResNet50, 600.0, 205.0)];
        let e = DemandEstimator::new(1, 4);
        assert_eq!(e.demand_specs(&base)[0].request_rate_rps, 600.0);
    }

    #[test]
    fn observe_counts_divides_by_epoch() {
        let mut e = DemandEstimator::new(1, 1);
        e.observe_counts(&[250], 0.5);
        assert_eq!(e.estimate(0), Some(500.0));
    }

    #[test]
    fn admitting_a_service_grows_the_tracked_set() {
        let mut e = DemandEstimator::new(1, 2);
        e.observe(&[10.0]);
        e.observe(&[10.0, 99.0]);
        assert_eq!(e.services(), 2);
        assert_eq!(e.estimate(1), Some(99.0));
    }

    #[test]
    fn snapshot_round_trips() {
        let mut e = DemandEstimator::new(3, 5).with_headroom(1.15);
        e.observe(&[1.0, 2.0, 3.0]);
        e.observe(&[4.0, 5.0, 6.0]);
        let restored = DemandEstimator::from_value(&e.to_value()).unwrap();
        assert_eq!(e, restored);
    }
}
