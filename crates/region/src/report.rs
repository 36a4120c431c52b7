//! The federation run report: per-interval, per-region recovery and
//! serving accounting. Deterministic per seed, like
//! [`parva_fleet::FleetReport`].

use crate::event::RegionEvent;
use parva_cluster::BillingReport;
use parva_serve::ResilienceCounters;
use serde::{Deserialize, Serialize};

/// Tolerance for [`IntervalOutcome::attains`]: with DES-measured recovery,
/// an interval's compliance carries the *measured* dip of its own event
/// (an unannounced failure in the final interval shows up there, by
/// design) plus ~1% of window-edge sampling noise. A federation that
/// genuinely failed to re-place capacity sits several percent lower.
pub const ATTAINMENT_TOLERANCE: f64 = 0.01;

/// One region's row in one interval.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegionOutcome {
    /// Region index.
    pub region: usize,
    /// Region name.
    pub name: String,
    /// Whether the region's fleet was serving this interval.
    pub active: bool,
    /// Demand originating in this region, req/s.
    pub offered_rps: f64,
    /// Traffic routed into this region's fleet (local + inbound spill),
    /// req/s.
    pub routed_in_rps: f64,
    /// Inbound cross-region traffic, req/s.
    pub spill_in_rps: f64,
    /// This region's demand served elsewhere, req/s.
    pub spill_out_rps: f64,
    /// Request-level SLO compliance of the traffic served here (1.0 when
    /// the region served nothing).
    pub compliance: f64,
    /// p99 latency of locally-originated traffic served here, ms.
    pub local_p99_ms: f64,
    /// Worst p99 latency across inbound spilled classes, ms (0 when no
    /// spill arrived) — includes the RTT term.
    pub spilled_p99_ms: f64,
    /// Segments drained or displaced here this interval.
    pub displaced_segments: usize,
    /// Logical GPUs reconfigured through the §III-F path.
    pub reconfigured_gpus: usize,
    /// Segments that physically moved during recovery/retarget.
    pub migrated_segments: usize,
    /// Replacement nodes provisioned this interval.
    pub replacement_nodes: usize,
    /// DES-measured end-to-end recovery latency of this interval's
    /// migration work (control plane + per-node serialized re-flashes +
    /// PCIe-queued weight copies riding the serving traffic), ms; 0 when
    /// nothing physically moved.
    pub recovery_latency_ms: f64,
    /// Weights staged ahead of the capacity loss by cross-region pre-copy
    /// (evacuation notice / spot warning), GiB.
    pub precopied_gib: f64,
    /// Nodes in service after the interval's recovery.
    pub nodes_in_service: usize,
    /// Hourly cost of the in-service fleet at regional prices, USD.
    pub usd_per_hour: f64,
    /// Resilience-policy activity (timeouts, retries, sheds, hedges) in the
    /// traffic served here; `None` (and omitted from the serialized form)
    /// when the run had no resilience policy or nothing fired.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub resilience: Option<ResilienceCounters>,
}

/// One federation interval.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IntervalOutcome {
    /// Interval index (0 = undisturbed baseline).
    pub interval: usize,
    /// The injected event.
    pub event: RegionEvent,
    /// Regions that were forced into failover this interval because their
    /// fleet could no longer host its plan.
    pub forced_failovers: Vec<usize>,
    /// Per-region rows, region order.
    pub regions: Vec<RegionOutcome>,
    /// Offered-weighted request compliance across the whole federation;
    /// demand that found no active region counts as violated.
    pub global_compliance: f64,
    /// Total cross-region traffic this interval, req/s.
    pub spilled_rps: f64,
    /// Demand that found no active region, req/s.
    pub unrouted_rps: f64,
    /// Total hourly cost across regions at regional prices, USD.
    pub usd_per_hour: f64,
}

impl IntervalOutcome {
    /// Did this interval's federation-wide SLO attainment stay at or above
    /// `baseline` (within [`ATTAINMENT_TOLERANCE`])?
    #[must_use]
    pub fn attains(&self, baseline: f64) -> bool {
        self.global_compliance + ATTAINMENT_TOLERANCE >= baseline
    }
}

/// Full outcome of a federation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FederationReport {
    /// Master seed of the run.
    pub seed: u64,
    /// Region names, index order.
    pub region_names: Vec<String>,
    /// The undisturbed interval 0.
    pub baseline: IntervalOutcome,
    /// Disturbed intervals, 1-based.
    pub intervals: Vec<IntervalOutcome>,
    /// The operator's per-tenant P&L, one row per (interval, tenant)
    /// including the interval-0 baseline, aggregated across regions.
    /// `None` (and omitted from the serialized form) when the run had no
    /// tenants configured.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub billing: Option<BillingReport>,
}

impl FederationReport {
    /// Baseline federation-wide compliance.
    #[must_use]
    pub fn baseline_compliance(&self) -> f64 {
        self.baseline.global_compliance
    }

    /// The last interval's federation-wide compliance.
    #[must_use]
    pub fn final_compliance(&self) -> f64 {
        self.intervals
            .last()
            .map_or(self.baseline.global_compliance, |i| i.global_compliance)
    }

    /// The worst per-interval compliance dip below baseline.
    #[must_use]
    pub fn worst_dip(&self) -> f64 {
        self.intervals
            .iter()
            .map(|i| (self.baseline.global_compliance - i.global_compliance).max(0.0))
            .fold(0.0, f64::max)
    }

    /// Total cross-region traffic integrated over intervals, req/s·ivl.
    #[must_use]
    pub fn total_spilled_rps(&self) -> f64 {
        self.intervals.iter().map(|i| i.spilled_rps).sum()
    }

    /// Worst p99 of spilled traffic anywhere in the run, ms.
    #[must_use]
    pub fn worst_spilled_p99_ms(&self) -> f64 {
        self.intervals
            .iter()
            .flat_map(|i| i.regions.iter())
            .map(|r| r.spilled_p99_ms)
            .fold(0.0, f64::max)
    }

    /// Slowest DES-measured recovery across regions and intervals, ms.
    #[must_use]
    pub fn worst_recovery_latency_ms(&self) -> f64 {
        self.intervals
            .iter()
            .flat_map(|i| i.regions.iter())
            .map(|r| r.recovery_latency_ms)
            .fold(0.0, f64::max)
    }

    /// Total weights staged by cross-region pre-copy over the run, GiB.
    #[must_use]
    pub fn total_precopied_gib(&self) -> f64 {
        self.intervals
            .iter()
            .flat_map(|i| i.regions.iter())
            .map(|r| r.precopied_gib)
            .sum()
    }

    /// Did the final interval recover to the baseline attainment level?
    #[must_use]
    pub fn recovered(&self) -> bool {
        self.intervals
            .last()
            .is_none_or(|i| i.attains(self.baseline.global_compliance))
    }

    /// Render as a human-readable table.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = format!(
            "federation run (seed {}): {} regions ({}), baseline compliance {:.2}% at ${:.2}/h\n\
             {:<4} {:<40} {:>4} {:>9} {:>9} {:>9} {:>9}\n",
            self.seed,
            self.region_names.len(),
            self.region_names.join(", "),
            self.baseline.global_compliance * 100.0,
            self.baseline.usd_per_hour,
            "ivl",
            "event",
            "act",
            "spill rps",
            "unrouted",
            "global %",
            "$/h"
        );
        for i in &self.intervals {
            let active = i.regions.iter().filter(|r| r.active).count();
            let failover = if i.forced_failovers.is_empty() {
                String::new()
            } else {
                format!(" [forced failover: {:?}]", i.forced_failovers)
            };
            out.push_str(&format!(
                "{:<4} {:<40} {:>4} {:>9.0} {:>9.0} {:>9.2} {:>9.2}{}\n",
                i.interval,
                i.event.to_string(),
                active,
                i.spilled_rps,
                i.unrouted_rps,
                i.global_compliance * 100.0,
                i.usd_per_hour,
                failover
            ));
        }
        out.push_str(&format!(
            "total spill {:.0} req/s·ivl, worst spilled p99 {:.0} ms, worst dip {:.2}%, \
             worst measured recovery {:.0} ms, {:.1} GiB pre-copied, {}\n",
            self.total_spilled_rps(),
            self.worst_spilled_p99_ms(),
            self.worst_dip() * 100.0,
            self.worst_recovery_latency_ms(),
            self.total_precopied_gib(),
            if self.recovered() {
                "final interval back at baseline attainment"
            } else {
                "FINAL INTERVAL BELOW BASELINE"
            }
        ));
        for (r, name) in self.region_names.iter().enumerate() {
            let rows: Vec<&RegionOutcome> = self
                .intervals
                .iter()
                .filter_map(|i| i.regions.get(r))
                .collect();
            let downtime = rows.iter().filter(|x| !x.active).count();
            let migrations: usize = rows.iter().map(|x| x.migrated_segments).sum();
            let spill_in: f64 = rows.iter().map(|x| x.spill_in_rps).sum();
            out.push_str(&format!(
                "  {name}: {} interval(s) dark, {} segment migration(s), {:.0} req/s·ivl absorbed from peers\n",
                downtime, migrations, spill_in
            ));
        }
        if let Some(billing) = &self.billing {
            out.push_str(&billing.render());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(interval: usize, compliance: f64) -> IntervalOutcome {
        IntervalOutcome {
            interval,
            event: RegionEvent::Quiet,
            forced_failovers: vec![],
            regions: vec![],
            global_compliance: compliance,
            spilled_rps: 100.0,
            unrouted_rps: 0.0,
            usd_per_hour: 50.0,
        }
    }

    #[test]
    fn summary_math_and_render() {
        let report = FederationReport {
            seed: 9,
            region_names: vec!["a".into(), "b".into()],
            baseline: outcome(0, 1.0),
            intervals: vec![outcome(1, 0.92), outcome(2, 1.0)],
            billing: None,
        };
        assert!((report.worst_dip() - 0.08).abs() < 1e-12);
        assert!(report.recovered());
        assert_eq!(report.final_compliance(), 1.0);
        assert!((report.total_spilled_rps() - 200.0).abs() < 1e-12);
        let rendered = report.render();
        assert!(rendered.contains("federation run"));
        assert!(rendered.contains("back at baseline"));
    }

    #[test]
    fn unrecovered_run_is_loud() {
        let report = FederationReport {
            seed: 9,
            region_names: vec![],
            baseline: outcome(0, 1.0),
            intervals: vec![outcome(1, 0.5)],
            billing: None,
        };
        assert!(!report.recovered());
        assert!(report.render().contains("BELOW BASELINE"));
    }
}
