//! The chaos-run report: per-event recovery accounting plus fleet summary.

use crate::event::FleetEvent;
use crate::migration::MigrationPlan;
use parva_cluster::BillingReport;
use parva_serve::ResilienceCounters;
use serde::{Deserialize, Serialize};

/// Tolerance for [`EventOutcome::recovered`]: request-level window
/// compliance carries ~1% sampling noise from the window edge (requests
/// offered near the end complete during the drain period and count against
/// the metric), which moves with the deployment shape and offered rate. A
/// genuinely unrecovered fleet — lost capacity never re-placed — drops by
/// several percent or more, far past this band.
pub const RECOVERY_TOLERANCE: f64 = 0.01;

/// What one event did to the fleet and how the orchestrator recovered.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EventOutcome {
    /// Interval index (1-based; interval 0 is the undisturbed baseline).
    pub interval: usize,
    /// The injected event.
    pub event: FleetEvent,
    /// Segments whose capacity was lost at the instant of the event.
    pub displaced_segments: usize,
    /// Replacement nodes the control plane provisioned because the
    /// surviving fleet could not host the deployment.
    pub replacement_nodes: usize,
    /// The physical migration the recovery required.
    pub migration: MigrationPlan,
    /// Request-level compliance just before the event (control window).
    pub compliance_before: f64,
    /// Request-level compliance during the disruption window with the lost
    /// capacity dark for the whole window and no shadows (the analytic
    /// worst-case dip).
    pub compliance_during: f64,
    /// Request-level compliance during the window with §III-F shadow
    /// processes bridging the lost capacity.
    pub compliance_shadowed: f64,
    /// Request-level compliance *measured* by the DES with the recovery
    /// (re-flashes, weight copies, control plane) riding the event queue
    /// alongside the serving traffic: affected servers are dark only until
    /// their recovery op completes. Falls back to `compliance_during` when
    /// the DES recovery path is disabled.
    pub compliance_measured: f64,
    /// Request-level compliance of the recovered deployment serving the
    /// next interval (steady state after recovery). Same basis as
    /// `compliance_before`, so [`EventOutcome::recovered`] compares like
    /// with like.
    pub compliance_after: f64,
    /// Batch-level compliance of the recovered steady state (the paper's
    /// Fig. 8 metric, blind to dropped traffic — kept for comparison).
    pub compliance_after_batch: f64,
    /// Simulated end-to-end recovery latency measured from the DES event
    /// timeline, ms (0 when the event required no physical work). The
    /// analytic estimate stays in `migration.recovery_latency_ms`.
    pub simulated_recovery_ms: f64,
    /// Weights staged ahead of the loss by predictive pre-copy, GiB
    /// (non-zero only for honored warnings / evacuation notices).
    pub precopied_gib: f64,
    /// Nodes in service after recovery.
    pub nodes_in_service: usize,
    /// Hourly cost of the in-service fleet after recovery, USD.
    pub usd_per_hour: f64,
    /// GPUs stranded on dead nodes (capacity paid for but unreachable —
    /// zero unless billing outlives the failure).
    pub lost_gpus: usize,
    /// Resilience counters (timeouts, retries, sheds, hedges) summed
    /// across services of the interval's DES-measured window — or, when
    /// the event required no simulated recovery, the recovered steady
    /// state. `None` (and omitted from the serialized form) when the run
    /// had no resilience policy or nothing fired.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub resilience: Option<ResilienceCounters>,
}

impl EventOutcome {
    /// The analytic worst-case compliance dip (control − blackout window,
    /// the whole window dark).
    #[must_use]
    pub fn compliance_dip(&self) -> f64 {
        (self.compliance_before - self.compliance_during).max(0.0)
    }

    /// The *measured* compliance dip: control minus the DES window in
    /// which recovery events compete with serving traffic. At most the
    /// analytic dip, and near zero when pre-copy prepared the recovery.
    #[must_use]
    pub fn measured_dip(&self) -> f64 {
        (self.compliance_before - self.compliance_measured).max(0.0)
    }

    /// Did steady-state compliance return to at least the pre-event level
    /// (within [`RECOVERY_TOLERANCE`])? Both sides are request-level
    /// (in-SLO completions over offered), so a recovered fleet that
    /// quietly drops traffic cannot score as recovered the way the
    /// batch-level metric would.
    #[must_use]
    pub fn recovered(&self) -> bool {
        self.compliance_after + RECOVERY_TOLERANCE >= self.compliance_before
    }
}

/// Full outcome of a chaos run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetReport {
    /// Master seed of the run (event stream + serving arrivals).
    pub seed: u64,
    /// Baseline (interval 0) batch-level compliance of the undisturbed
    /// fleet.
    pub baseline_compliance: f64,
    /// Baseline hourly cost, USD.
    pub baseline_usd_per_hour: f64,
    /// Per-event outcomes, interval order.
    pub events: Vec<EventOutcome>,
    /// The operator's per-tenant P&L, one row per (interval, tenant)
    /// including the interval-0 baseline. `None` (and omitted from the
    /// serialized form) when the run had no tenants configured.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub billing: Option<BillingReport>,
}

impl FleetReport {
    /// Total segments migrated across all recoveries.
    #[must_use]
    pub fn total_migrations(&self) -> usize {
        self.events
            .iter()
            .map(|e| e.migration.migrated_segments)
            .sum()
    }

    /// Total GPU re-flashes across all recoveries.
    #[must_use]
    pub fn total_reflashes(&self) -> usize {
        self.events.iter().map(|e| e.migration.reflashed_gpus).sum()
    }

    /// Total replacement nodes provisioned across all recoveries.
    #[must_use]
    pub fn total_replacements(&self) -> usize {
        self.events.iter().map(|e| e.replacement_nodes).sum()
    }

    /// The worst analytic (whole-window blackout) compliance dip.
    #[must_use]
    pub fn worst_dip(&self) -> f64 {
        self.events
            .iter()
            .map(EventOutcome::compliance_dip)
            .fold(0.0, f64::max)
    }

    /// The worst DES-measured compliance dip.
    #[must_use]
    pub fn worst_measured_dip(&self) -> f64 {
        self.events
            .iter()
            .map(EventOutcome::measured_dip)
            .fold(0.0, f64::max)
    }

    /// The slowest single recovery by the analytic estimate, ms.
    #[must_use]
    pub fn worst_recovery_latency_ms(&self) -> f64 {
        self.events
            .iter()
            .map(|e| e.migration.recovery_latency_ms)
            .fold(0.0, f64::max)
    }

    /// The slowest single recovery measured from DES events, ms.
    #[must_use]
    pub fn worst_simulated_recovery_ms(&self) -> f64 {
        self.events
            .iter()
            .map(|e| e.simulated_recovery_ms)
            .fold(0.0, f64::max)
    }

    /// Total weights staged ahead of capacity losses by predictive
    /// pre-copy across the run, GiB.
    #[must_use]
    pub fn total_precopied_gib(&self) -> f64 {
        self.events.iter().map(|e| e.precopied_gib).sum()
    }

    /// Whether every event's steady state recovered to the pre-event level.
    #[must_use]
    pub fn fully_recovered(&self) -> bool {
        self.events.iter().all(EventOutcome::recovered)
    }

    /// Render as a human-readable table. `dip %` is the DES-measured dip
    /// (`est dip %` keeps the analytic whole-window blackout estimate for
    /// comparison), and `sim ms` / `est ms` pair the measured and analytic
    /// recovery latencies the same way.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = format!(
            "chaos run (seed {}): baseline compliance {:.2}% at ${:.2}/h\n\
             {:<4} {:<34} {:>5} {:>5} {:>7} {:>7} {:>9} {:>9} {:>7} {:>7} {:>6} {:>9}\n",
            self.seed,
            self.baseline_compliance * 100.0,
            self.baseline_usd_per_hour,
            "ivl",
            "event",
            "disp",
            "mig",
            "reflash",
            "dip %",
            "est dip %",
            "after %",
            "sim ms",
            "est ms",
            "nodes",
            "$/h"
        );
        for e in &self.events {
            out.push_str(&format!(
                "{:<4} {:<34} {:>5} {:>5} {:>7} {:>7.2} {:>9.2} {:>9.2} {:>7.0} {:>7.0} {:>6} {:>9.2}\n",
                e.interval,
                e.event.to_string(),
                e.displaced_segments,
                e.migration.migrated_segments,
                e.migration.reflashed_gpus,
                e.measured_dip() * 100.0,
                e.compliance_dip() * 100.0,
                e.compliance_after * 100.0,
                e.simulated_recovery_ms,
                e.migration.recovery_latency_ms,
                e.nodes_in_service,
                e.usd_per_hour
            ));
        }
        out.push_str(&format!(
            "total: {} migrations, {} re-flashes, {} replacement node(s), {:.1} GiB pre-copied, \
             worst measured dip {:.2}% (analytic {:.2}%), worst recovery {:.0} ms simulated \
             ({:.0} ms analytic), {}\n",
            self.total_migrations(),
            self.total_reflashes(),
            self.total_replacements(),
            self.total_precopied_gib(),
            self.worst_measured_dip() * 100.0,
            self.worst_dip() * 100.0,
            self.worst_simulated_recovery_ms(),
            self.worst_recovery_latency_ms(),
            if self.fully_recovered() {
                "all events recovered"
            } else {
                "UNRECOVERED EVENTS"
            }
        ));
        if let Some(billing) = &self.billing {
            out.push_str(&billing.render());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parva_serve::recovery::CONTROL_PLANE_MS;

    fn outcome(dip: f64, after: f64) -> EventOutcome {
        EventOutcome {
            interval: 1,
            event: FleetEvent::Quiet,
            displaced_segments: 0,
            replacement_nodes: 0,
            migration: MigrationPlan {
                migrated_segments: 2,
                reflashed_gpus: 1,
                reflash_waves: 1,
                weight_copy_gib: 0.5,
                stranded_gpcs: 0,
                recovery_latency_ms: CONTROL_PLANE_MS,
                ops: vec![],
            },
            compliance_before: 1.0,
            compliance_during: 1.0 - dip,
            compliance_shadowed: 1.0,
            compliance_measured: 1.0 - dip / 2.0,
            compliance_after: after,
            compliance_after_batch: after,
            simulated_recovery_ms: CONTROL_PLANE_MS,
            precopied_gib: 0.0,
            nodes_in_service: 2,
            usd_per_hour: 50.0,
            lost_gpus: 0,
            resilience: None,
        }
    }

    #[test]
    fn summary_math() {
        let report = FleetReport {
            seed: 1,
            baseline_compliance: 1.0,
            baseline_usd_per_hour: 60.0,
            events: vec![outcome(0.2, 1.0), outcome(0.05, 0.9)],
            billing: None,
        };
        assert_eq!(report.total_migrations(), 4);
        assert_eq!(report.total_reflashes(), 2);
        assert!((report.worst_dip() - 0.2).abs() < 1e-12);
        assert!((report.worst_measured_dip() - 0.1).abs() < 1e-12);
        assert!((report.worst_simulated_recovery_ms() - CONTROL_PLANE_MS).abs() < 1e-12);
        assert!(!report.fully_recovered());
        let rendered = report.render();
        assert!(rendered.contains("chaos run"));
        assert!(rendered.contains("UNRECOVERED"));
    }

    #[test]
    fn recovered_tolerates_rounding() {
        let e = outcome(0.1, 1.0);
        assert!(e.recovered());
        assert!((e.compliance_dip() - 0.1).abs() < 1e-12);
        assert!((e.measured_dip() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn degraded_request_compliance_is_not_reported_recovered() {
        // The old check compared request-level `compliance_before` against
        // *batch-level* `compliance_after`. A fleet that drops traffic
        // after recovery completes fewer batches but each one in SLO —
        // batch compliance 1.0 — and scored as recovered. With both sides
        // request-level, it cannot.
        let mut e = outcome(0.0, 0.9);
        e.compliance_after_batch = 1.0; // every *completed* batch in SLO
        assert!(
            !e.recovered(),
            "dropping traffic must not count as recovered"
        );
        assert!(e.compliance_after_batch > e.compliance_after);
    }
}
