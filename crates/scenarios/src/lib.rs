//! # parva-scenarios — the paper's evaluation scenarios (Table IV)
//!
//! Six scenarios combining the 11 DNN models with varying request rates
//! (req/s) and SLO latencies (ms), copied verbatim from Table IV:
//!
//! * **S1** — six of S2's models (reduced service count),
//! * **S2** — all 11 models at moderate rates,
//! * **S3/S4** — increasing request rates at fixed SLO latencies,
//! * **S5** — high rates with strict SLOs,
//! * **S6** — the highest rates at S2's SLOs.
//!
//! [`Scenario::scaled`] replicates a scenario's services k-fold for the
//! model-scalability experiment of Figs. 10–11.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use parva_deploy::ServiceSpec;
use parva_perf::Model;
use serde::{Deserialize, Serialize};

/// One of the paper's six evaluation scenarios.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum Scenario {
    S1,
    S2,
    S3,
    S4,
    S5,
    S6,
}

/// `(rate req/s, SLO ms)` per model; `None` = model absent from scenario.
type Row = [Option<(f64, f64)>; 11];

const S1: Row = [
    Some((19.0, 6_434.0)), // BERT-large
    Some((353.0, 183.0)),  // DenseNet-121
    None,                  // DenseNet-169
    None,                  // DenseNet-201
    Some((460.0, 419.0)),  // InceptionV3
    Some((677.0, 167.0)),  // MobileNetV2
    None,                  // ResNet-101
    None,                  // ResNet-152
    Some((829.0, 205.0)),  // ResNet-50
    None,                  // VGG-16
    Some((354.0, 397.0)),  // VGG-19
];

const S2: Row = [
    Some((19.0, 6_434.0)),
    Some((353.0, 183.0)),
    Some((308.0, 217.0)),
    Some((276.0, 169.0)),
    Some((460.0, 419.0)),
    Some((677.0, 167.0)),
    Some((393.0, 212.0)),
    Some((281.0, 213.0)),
    Some((829.0, 205.0)),
    Some((410.0, 400.0)),
    Some((354.0, 397.0)),
];

const S3: Row = [
    Some((46.0, 4_294.0)),
    Some((728.0, 126.0)),
    Some((633.0, 150.0)),
    Some((493.0, 119.0)),
    Some((1_051.0, 282.0)),
    Some((1_546.0, 113.0)),
    Some((760.0, 144.0)),
    Some((543.0, 146.0)),
    Some((1_463.0, 138.0)),
    Some((780.0, 227.0)),
    Some((673.0, 265.0)),
];

const S4: Row = [
    Some((69.0, 4_294.0)),
    Some((1_091.0, 126.0)),
    Some((949.0, 150.0)),
    Some((739.0, 119.0)),
    Some((1_576.0, 282.0)),
    Some((2_318.0, 113.0)),
    Some((1_140.0, 144.0)),
    Some((815.0, 146.0)),
    Some((2_195.0, 138.0)),
    Some((1_169.0, 227.0)),
    Some((1_010.0, 265.0)),
];

const S5: Row = [
    Some((843.0, 2_153.0)),
    Some((2_228.0, 69.0)),
    Some((3_507.0, 84.0)),
    Some((1_513.0, 70.0)),
    Some((3_815.0, 146.0)),
    Some((5_009.0, 59.0)),
    Some((1_874.0, 77.0)),
    Some((1_340.0, 80.0)),
    Some((2_796.0, 72.0)),
    Some((1_773.0, 115.0)),
    Some((1_531.0, 134.0)),
];

const S6: Row = [
    Some((1_264.0, 6_434.0)),
    Some((3_342.0, 183.0)),
    Some((5_260.0, 217.0)),
    Some((2_269.0, 169.0)),
    Some((5_722.0, 419.0)),
    Some((7_513.0, 167.0)),
    Some((2_811.0, 212.0)),
    Some((2_010.0, 213.0)),
    Some((4_196.0, 205.0)),
    Some((2_659.0, 400.0)),
    Some((2_296.0, 397.0)),
];

impl Scenario {
    /// All six scenarios in paper order.
    pub const ALL: [Scenario; 6] = [
        Scenario::S1,
        Scenario::S2,
        Scenario::S3,
        Scenario::S4,
        Scenario::S5,
        Scenario::S6,
    ];

    fn row(self) -> &'static Row {
        match self {
            Scenario::S1 => &S1,
            Scenario::S2 => &S2,
            Scenario::S3 => &S3,
            Scenario::S4 => &S4,
            Scenario::S5 => &S5,
            Scenario::S6 => &S6,
        }
    }

    /// The paper's label, e.g. `"S3"`.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Scenario::S1 => "S1",
            Scenario::S2 => "S2",
            Scenario::S3 => "S3",
            Scenario::S4 => "S4",
            Scenario::S5 => "S5",
            Scenario::S6 => "S6",
        }
    }

    /// The scenario's services with ids 0..n in Table IV column order.
    #[must_use]
    pub fn services(self) -> Vec<ServiceSpec> {
        let mut out = Vec::new();
        for (model, cell) in Model::ALL.iter().zip(self.row()) {
            if let Some((rate, slo)) = cell {
                out.push(ServiceSpec::new(out.len() as u32, *model, *rate, *slo));
            }
        }
        out
    }

    /// Replicate the scenario's services `k`-fold with distinct ids — the
    /// predictor scalability experiment of Figs. 10–11 ("incrementally
    /// increase the number of services in S5 … from 1 to 10 fold").
    #[must_use]
    pub fn scaled(self, k: u32) -> Vec<ServiceSpec> {
        let base = self.services();
        let mut out = Vec::with_capacity(base.len() * k as usize);
        for rep in 0..k.max(1) {
            for spec in &base {
                out.push(ServiceSpec::new(
                    rep * base.len() as u32 + spec.id,
                    spec.model,
                    spec.request_rate_rps,
                    spec.slo.latency_ms,
                ));
            }
        }
        out
    }

    /// Aggregate offered request rate, req/s.
    #[must_use]
    pub fn total_rate_rps(self) -> f64 {
        self.services().iter().map(|s| s.request_rate_rps).sum()
    }
}

impl std::fmt::Display for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Phase-offset diurnal demand multiplier — how a region's offered load
/// follows the sun.
///
/// `hour_utc` is the global wall clock; `phase_hours` shifts a region's
/// local day against it (a region at UTC+6 peaks six hours before the
/// reference region). The multiplier swings sinusoidally between `low`
/// (local 3 a.m. trough) and `high` (local 3 p.m. peak). At phase 0 it is
/// also the day the `parvad` daemon's diurnal drivers replay.
///
/// # Panics
/// Panics unless `0 < low <= high`.
#[must_use]
pub fn diurnal_multiplier(hour_utc: f64, low: f64, high: f64, phase_hours: f64) -> f64 {
    assert!(
        low > 0.0 && high >= low && low.is_finite() && high.is_finite(),
        "need 0 < low <= high"
    );
    let local = (hour_utc + phase_hours).rem_euclid(24.0);
    let mid = f64::midpoint(low, high);
    let amp = (high - low) / 2.0;
    // Trough at local hour 0 (≈ 3 a.m.), peak half a day later.
    mid - amp * (2.0 * std::f64::consts::PI * local / 24.0).cos()
}

/// Cloud spot two-minute reclaim warning, seconds (AWS/GCP/Azure all give
/// ~120 s of notice before pulling a spot instance).
pub const SPOT_WARNING_S: f64 = 120.0;

/// How many GiB of model weights a spot warning buys time to pre-copy at
/// `link_gib_per_s` of host-to-device bandwidth. A recovery whose total
/// copy volume exceeds this budget cannot be fully staged before the
/// capacity dies and must pay its window live.
#[must_use]
pub fn warning_precopy_budget_gib(link_gib_per_s: f64) -> f64 {
    SPOT_WARNING_S * link_gib_per_s.max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn s1_has_six_services() {
        // Paper: "Scenario 1 is designed to observe performance changes when
        // the number of services is reduced, using six models from S2".
        assert_eq!(Scenario::S1.services().len(), 6);
    }

    #[test]
    fn s2_through_s6_have_eleven_services() {
        for s in [
            Scenario::S2,
            Scenario::S3,
            Scenario::S4,
            Scenario::S5,
            Scenario::S6,
        ] {
            assert_eq!(s.services().len(), 11, "{s}");
        }
    }

    #[test]
    fn s1_is_a_subset_of_s2() {
        let s2 = Scenario::S2.services();
        for svc in Scenario::S1.services() {
            let twin = s2.iter().find(|t| t.model == svc.model).unwrap();
            assert_eq!(twin.request_rate_rps, svc.request_rate_rps);
            assert_eq!(twin.slo.latency_ms, svc.slo.latency_ms);
        }
    }

    #[test]
    fn s4_rates_grow_from_s3_at_same_slos() {
        // Paper: "Scenarios 3 and 4 explore increasing request rates while
        // maintaining the same SLO latency".
        let s3 = Scenario::S3.services();
        let s4 = Scenario::S4.services();
        for (a, b) in s3.iter().zip(&s4) {
            assert_eq!(a.slo.latency_ms, b.slo.latency_ms);
            assert!(b.request_rate_rps > a.request_rate_rps);
        }
    }

    #[test]
    fn s6_uses_s2_slos_with_higher_rates() {
        let s2 = Scenario::S2.services();
        let s6 = Scenario::S6.services();
        for (a, b) in s2.iter().zip(&s6) {
            assert_eq!(a.slo.latency_ms, b.slo.latency_ms);
            assert!(b.request_rate_rps > a.request_rate_rps);
        }
    }

    #[test]
    fn spot_check_table_iv_values() {
        let s5 = Scenario::S5.services();
        let bert = &s5[0];
        assert_eq!(bert.model, Model::BertLarge);
        assert_eq!(bert.request_rate_rps, 843.0);
        assert_eq!(bert.slo.latency_ms, 2_153.0);
        let mnv2 = s5.iter().find(|s| s.model == Model::MobileNetV2).unwrap();
        assert_eq!(mnv2.request_rate_rps, 5_009.0);
        assert_eq!(mnv2.slo.latency_ms, 59.0);
    }

    #[test]
    fn scaling_replicates_with_unique_ids() {
        let scaled = Scenario::S5.scaled(10);
        assert_eq!(scaled.len(), 110);
        let mut ids: Vec<u32> = scaled.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 110, "duplicate service ids");
    }

    #[test]
    fn scaled_one_equals_base() {
        let base = Scenario::S3.services();
        let scaled = Scenario::S3.scaled(1);
        assert_eq!(base, scaled);
    }

    #[test]
    fn total_rates_ordered() {
        // S2 < S3 < S4 < S5 < S6 in aggregate offered load.
        let rates: Vec<f64> = [
            Scenario::S2,
            Scenario::S3,
            Scenario::S4,
            Scenario::S5,
            Scenario::S6,
        ]
        .iter()
        .map(|s| s.total_rate_rps())
        .collect();
        for w in rates.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn all_services_valid() {
        for sc in Scenario::ALL {
            for s in sc.services() {
                assert!(s.is_valid(), "{sc}: {s}");
            }
        }
    }

    #[test]
    fn diurnal_multiplier_swings_between_bounds() {
        for h in 0..48 {
            let m = diurnal_multiplier(f64::from(h) * 0.5, 0.4, 1.2, 0.0);
            assert!((0.4 - 1e-12..=1.2 + 1e-12).contains(&m), "{m}");
        }
        // Trough at phase-local hour 0, peak at hour 12.
        assert!((diurnal_multiplier(0.0, 0.4, 1.2, 0.0) - 0.4).abs() < 1e-12);
        assert!((diurnal_multiplier(12.0, 0.4, 1.2, 0.0) - 1.2).abs() < 1e-12);
    }

    #[test]
    fn warning_budget_scales_with_bandwidth() {
        assert!((warning_precopy_budget_gib(22.0) - 2_640.0).abs() < 1e-9);
        assert_eq!(warning_precopy_budget_gib(0.0), 0.0);
        assert_eq!(warning_precopy_budget_gib(-5.0), 0.0);
    }

    #[test]
    fn demand_follows_the_sun() {
        // A region 6 hours ahead peaks 6 hours earlier on the UTC clock.
        let (low, high) = (0.5, 1.0);
        assert!((diurnal_multiplier(6.0, low, high, 6.0) - high).abs() < 1e-12);
        assert!((diurnal_multiplier(18.0, low, high, 6.0) - low).abs() < 1e-12);
        // Offsetting the clock by the phase difference maps one region's
        // curve onto the other's.
        for h in 0..24 {
            let a = diurnal_multiplier(f64::from(h), low, high, 9.5);
            let b = diurnal_multiplier(f64::from(h) + 9.5, low, high, 0.0);
            assert!((a - b).abs() < 1e-12, "hour {h}");
        }
        // Phase wraps modulo 24.
        assert_eq!(
            diurnal_multiplier(3.0, low, high, 25.0),
            diurnal_multiplier(3.0, low, high, 1.0)
        );
    }
}
