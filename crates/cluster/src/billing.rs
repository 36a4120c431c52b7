//! Per-tenant profit & loss: revenue for in-SLO completions minus the
//! tenant's share of node cost.
//!
//! "No DNN Left Behind" argues inference should be planned for the
//! *operator* across tenants, not per model. This module gives that
//! argument a ledger: every chaos/federation interval yields one
//! [`BillingRow`] per tenant — requests offered, completed within SLO,
//! revenue earned at the tenant's contracted rate, and the slice of the
//! fleet's hourly node bill attributed to the tenant by offered-rate share.
//! Rows only exist when tenants are configured, so single-tenant reports
//! are byte-identical to the pre-tenant era.

use serde::{Deserialize, Serialize};

/// One interval's follow-the-sun ledger entry: how much overnight demand
/// was shipped to cheaper daytime regions and what the shift was worth.
/// The counterfactual (`local_usd_per_hour`) prices the same fleets
/// retargeted to the *unshifted* demand — a pure pricing question, so no
/// second serving simulation is run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FollowTheSunRow {
    /// Interval index (0 = baseline).
    pub interval: usize,
    /// Overnight demand shifted cross-region this interval, req/s.
    pub shifted_rps: f64,
    /// Actual federation cost with the shift applied, USD/h.
    pub usd_per_hour: f64,
    /// Counterfactual cost had every region kept its demand local, USD/h.
    pub local_usd_per_hour: f64,
    /// USD saved over the interval's wall-clock span
    /// (`(local − actual) × hours`); negative when the shift lost money.
    pub saved_usd: f64,
}

/// One tenant's P&L for one interval.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BillingRow {
    /// Interval index (0 = baseline).
    pub interval: usize,
    /// Tenant id.
    pub tenant: u32,
    /// Tenant display name (may be empty).
    #[serde(default)]
    pub tenant_name: String,
    /// Requests offered by the tenant's services in the measured window.
    pub offered: u64,
    /// Requests rejected at admission (over quota).
    #[serde(default)]
    pub rejected: u64,
    /// Requests completed within their SLO.
    pub completed_within_slo: u64,
    /// Revenue earned: in-SLO completions × contracted USD per 1k requests.
    pub revenue_usd: f64,
    /// Node cost attributed to this tenant for the interval (offered-rate
    /// share of the fleet's hourly bill, scaled to the measured window).
    pub cost_usd: f64,
}

impl BillingRow {
    /// Operating margin for the interval: revenue minus attributed cost.
    #[must_use]
    pub fn margin_usd(&self) -> f64 {
        self.revenue_usd - self.cost_usd
    }

    /// Fraction of offered requests completed within SLO (1.0 when no
    /// requests were offered).
    #[must_use]
    pub fn attainment(&self) -> f64 {
        if self.offered == 0 {
            1.0
        } else {
            self.completed_within_slo as f64 / self.offered as f64
        }
    }
}

/// The operator's P&L across tenants and intervals.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct BillingReport {
    /// One row per (interval, tenant), interval-major.
    pub rows: Vec<BillingRow>,
    /// Follow-the-sun ledger, one row per interval in which overnight
    /// demand actually shifted. Empty when the optimizer is off (and
    /// omitted from the serialized form, so pre-optimizer reports are
    /// byte-identical).
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub follow_the_sun: Vec<FollowTheSunRow>,
}

impl BillingReport {
    /// Total revenue across all rows, USD.
    #[must_use]
    pub fn revenue_usd(&self) -> f64 {
        self.rows.iter().map(|r| r.revenue_usd).sum()
    }

    /// Total attributed node cost across all rows, USD.
    #[must_use]
    pub fn cost_usd(&self) -> f64 {
        self.rows.iter().map(|r| r.cost_usd).sum()
    }

    /// Total margin across all rows, USD.
    #[must_use]
    pub fn margin_usd(&self) -> f64 {
        self.revenue_usd() - self.cost_usd()
    }

    /// Net USD saved by follow-the-sun shifts across the run (0 when the
    /// optimizer never fired; negative when shifting lost money overall).
    #[must_use]
    pub fn follow_the_sun_savings_usd(&self) -> f64 {
        self.follow_the_sun.iter().map(|r| r.saved_usd).sum()
    }

    /// All rows for one tenant, in interval order.
    pub fn tenant_rows(&self, tenant: u32) -> impl Iterator<Item = &BillingRow> {
        self.rows.iter().filter(move |r| r.tenant == tenant)
    }

    /// Distinct tenant ids in first-appearance order.
    #[must_use]
    pub fn tenants(&self) -> Vec<u32> {
        let mut seen = Vec::new();
        for r in &self.rows {
            if !seen.contains(&r.tenant) {
                seen.push(r.tenant);
            }
        }
        seen
    }

    /// Human-readable per-tenant totals plus, when the follow-the-sun
    /// optimizer fired, its shift-by-shift ledger.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        if !self.follow_the_sun.is_empty() {
            out.push_str("follow-the-sun: ivl  shifted rps   actual $/h    local $/h    saved $\n");
            for r in &self.follow_the_sun {
                out.push_str(&format!(
                    "                {:<4} {:>11.0} {:>12.2} {:>12.2} {:>10.2}\n",
                    r.interval, r.shifted_rps, r.usd_per_hour, r.local_usd_per_hour, r.saved_usd
                ));
            }
            out.push_str(&format!(
                "follow-the-sun total: {:+.2} USD over the run\n",
                self.follow_the_sun_savings_usd()
            ));
            if self.rows.is_empty() {
                return out;
            }
        }
        out.push_str(
            "tenant            offered  rejected   in-SLO   revenue$     cost$   margin$\n",
        );
        for t in self.tenants() {
            let mut offered = 0u64;
            let mut rejected = 0u64;
            let mut within = 0u64;
            let mut revenue = 0.0f64;
            let mut cost = 0.0f64;
            let mut name = String::new();
            for r in self.tenant_rows(t) {
                offered += r.offered;
                rejected += r.rejected;
                within += r.completed_within_slo;
                revenue += r.revenue_usd;
                cost += r.cost_usd;
                if name.is_empty() {
                    name.clone_from(&r.tenant_name);
                }
            }
            let label = if name.is_empty() {
                format!("#{t}")
            } else {
                format!("#{t} {name}")
            };
            out.push_str(&format!(
                "{label:<16} {offered:>8} {rejected:>9} {within:>8} {revenue:>10.2} {cost:>9.2} {margin:>9.2}\n",
                margin = revenue - cost,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(interval: usize, tenant: u32, within: u64, revenue: f64, cost: f64) -> BillingRow {
        BillingRow {
            interval,
            tenant,
            tenant_name: String::new(),
            offered: within + 10,
            rejected: 2,
            completed_within_slo: within,
            revenue_usd: revenue,
            cost_usd: cost,
        }
    }

    #[test]
    fn margins_and_totals() {
        let report = BillingReport {
            rows: vec![
                row(0, 1, 100, 5.0, 3.0),
                row(0, 2, 50, 2.0, 3.5),
                row(1, 1, 80, 4.0, 3.0),
            ],
            follow_the_sun: Vec::new(),
        };
        assert!((report.revenue_usd() - 11.0).abs() < 1e-12);
        assert!((report.cost_usd() - 9.5).abs() < 1e-12);
        assert!((report.margin_usd() - 1.5).abs() < 1e-12);
        assert_eq!(report.tenants(), vec![1, 2]);
        assert_eq!(report.tenant_rows(1).count(), 2);
        assert!(report.rows[1].margin_usd() < 0.0);
    }

    #[test]
    fn attainment_handles_zero_offered() {
        let mut r = row(0, 1, 90, 1.0, 1.0);
        assert!((r.attainment() - 0.9).abs() < 1e-12);
        r.offered = 0;
        assert_eq!(r.attainment(), 1.0);
    }

    #[test]
    fn serde_round_trip() {
        let report = BillingReport {
            rows: vec![row(3, 9, 7, 0.7, 0.1)],
            follow_the_sun: Vec::new(),
        };
        let json = serde_json::to_string(&report).unwrap();
        let back: BillingReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn render_lists_each_tenant_once() {
        let report = BillingReport {
            rows: vec![
                row(0, 1, 1, 0.0, 0.0),
                row(1, 1, 1, 0.0, 0.0),
                row(0, 2, 1, 0.0, 0.0),
            ],
            follow_the_sun: Vec::new(),
        };
        let text = report.render();
        assert_eq!(text.matches("#1").count(), 1);
        assert_eq!(text.matches("#2").count(), 1);
    }
}
