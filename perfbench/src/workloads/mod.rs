//! The five workloads and the output checks they share.
//!
//! A pass runs a workload's fixed sequence of ops on the inputs of one
//! round, drawn from the round's seed (`stats::mix(seed, round)`): the
//! sample paths, spec seeds, daemons and rate jitter differ from round to
//! round, so a run averages over many of them, while the same round seed
//! always gives the same inputs and byte-identical outputs.

pub mod federation;
pub mod parvad;
pub mod plan;
pub mod table4;
pub mod traced;

use crate::record::Ctx;
use parvagpu::deploy::{MigDeployment, ServiceSpec};
use parvagpu::scenarios::ScenarioReport;

/// A seeded workload.
pub trait Workload: Sized {
    /// Nominal wall time of one untraced pass, output checks included, on
    /// the reference host (2-core Xeon), s. Sets how many rounds of work
    /// `--seconds` asks for (half of it at this pass time), so the work
    /// behind the digest and the modelled figures is fixed for a given
    /// `--seconds` on every commit.
    const PASS_S: f64;

    /// Build what every round shares (profile books, schedulers, specs)
    /// and warm up with the first op of the round seeded `seed`.
    fn setup(seed: u64, ctx: &mut Ctx) -> Result<Self, String>;

    /// Run one pass: draw the round's inputs from `seed` (untimed), then
    /// every op, in order.
    fn pass(&mut self, ctx: &mut Ctx, seed: u64);
}

/// A plan is valid and provisions at least each service's rate.
pub fn check_plan(deployment: &MigDeployment, specs: &[ServiceSpec]) -> Result<(), String> {
    if !deployment.validate() {
        return Err("deployment fails its structural validate()".into());
    }
    for s in specs {
        let capacity = deployment.capacity_of(s.id);
        if capacity < s.request_rate_rps {
            return Err(format!(
                "service {} planned for {capacity:.1} req/s below its rate {:.1}",
                s.id, s.request_rate_rps
            ));
        }
    }
    Ok(())
}

/// Simulated requests offered in the serving windows `report` describes,
/// and how many of them completed within their SLO. Counts the report's
/// outputs, never engine work: a memoized probe offers the same requests
/// as a simulated one.
///
/// Fleet reports carry request-level compliance per disturbed interval
/// (each at the spec's full demand); federation reports carry per-region
/// offered rates and a global compliance per interval, baseline included.
pub fn served(report: &ScenarioReport, demand_rps: f64, window_s: f64) -> (f64, f64) {
    match report {
        ScenarioReport::Serve(r) => (
            r.services.iter().map(|s| s.offered as f64).sum(),
            r.services
                .iter()
                .map(|s| s.completed_within_slo as f64)
                .sum(),
        ),
        ScenarioReport::Fleet(r) => {
            let per_interval = demand_rps * window_s;
            (
                per_interval * r.events.len() as f64,
                r.events
                    .iter()
                    .map(|e| per_interval * e.compliance_after)
                    .sum(),
            )
        }
        ScenarioReport::Region(r) => std::iter::once(&r.baseline)
            .chain(&r.intervals)
            .map(|i| {
                let offered: f64 = i.regions.iter().map(|g| g.offered_rps).sum::<f64>() * window_s;
                (offered, offered * i.global_compliance)
            })
            .fold((0.0, 0.0), |(o, w), (io, iw)| (o + io, w + iw)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parvagpu::scenarios::spec_by_name;

    #[test]
    fn served_counts_report_outputs_not_des_events() {
        let spec = spec_by_name("quickstart").expect("registered").quick();
        let before = parvagpu::des::counters::snapshot();
        let report = spec.run().expect("quickstart runs");
        let events = parvagpu::des::counters::snapshot().delta(&before).events;
        let ScenarioReport::Serve(r) = &report else {
            panic!("quickstart is a serve spec")
        };
        let (offered, within) = served(&report, 0.0, 0.0);
        let expected: u64 = r.services.iter().map(|s| s.offered).sum();
        assert_eq!(offered, expected as f64);
        assert!(within <= offered && within > 0.0);
        // Each request costs the engine several events; the count must not
        // follow them.
        assert!(
            events as f64 > 1.5 * offered,
            "{events} events, {offered} offered"
        );

        // A fleet report counts demand x window per disturbed interval,
        // whatever its probes cost or however many the cache answered.
        let spec = spec_by_name("fleet_chaos").expect("registered").quick();
        let demand: f64 = spec
            .workload
            .services()
            .expect("demo services")
            .iter()
            .map(|s| s.request_rate_rps)
            .sum();
        let report = spec.run().expect("fleet_chaos runs");
        let ScenarioReport::Fleet(r) = &report else {
            panic!("fleet_chaos is a fleet spec")
        };
        let (offered, within) = served(&report, demand, spec.window.duration_s);
        let intervals = r.events.len() as f64;
        assert!(intervals > 0.0);
        assert_eq!(offered, demand * spec.window.duration_s * intervals);
        assert!(within <= offered);
    }
}
