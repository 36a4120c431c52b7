//! `federation`: every fleet and region builtin at full scale, each at a
//! spec seed drawn from the round's seed. One op is one spec run to its
//! report, serialized.
//!
//! Untraced passes call `ScenarioSpec::run`. It keeps the orchestrator
//! self-profile to itself, so traced passes make the calls it makes —
//! the profile book, then `run_chaos_sink` / `run_federation_sink` with
//! profiling on — and read the fleet and region phases from the profile.
//! Both roads must produce byte-identical reports; the pass digests
//! check it.

use super::{served, Workload};
use crate::record::Ctx;
use crate::stats::mix;
use parvagpu::deploy::Tenant;
use parvagpu::fleet::{run_chaos_sink, ChaosProfile, FleetConfig};
use parvagpu::obs::{NullSink, SelfProfiler};
use parvagpu::region::{run_federation_sink, FederationConfig};
use parvagpu::scenarios::{
    spec_by_name, Mode, ScenarioReport, ScenarioSpec, SpotMarketSpec, TenantSpec,
};

/// The fleet and region builtins, registry order.
const SPECS: [&str; 7] = [
    "fleet_chaos",
    "spot_heavy",
    "region_failover",
    "evacuation_drill",
    "diurnal",
    "follow_the_sun",
    "multi_tenant",
];

/// Nodes in every catalogue node type carry eight GPUs.
const GPUS_PER_NODE: f64 = 8.0;

pub struct Federation {
    /// Each builtin spec and its total demand, req/s.
    specs: Vec<(ScenarioSpec, f64)>,
}

impl Workload for Federation {
    const PASS_S: f64 = 0.31;

    fn setup(seed: u64, ctx: &mut Ctx) -> Result<Self, String> {
        let specs = SPECS
            .iter()
            .map(|name| {
                let spec = spec_by_name(name).ok_or(format!("no builtin {name}"))?;
                let demand = spec
                    .workload
                    .services()?
                    .iter()
                    .map(|s| s.request_rate_rps)
                    .sum();
                Ok((spec, demand))
            })
            .collect::<Result<_, String>>()?;
        let w = Self { specs };
        // Warm up on one region spec, region_failover.
        w.op(ctx, 2, seed);
        Ok(w)
    }

    fn pass(&mut self, ctx: &mut Ctx, seed: u64) {
        for i in 0..self.specs.len() {
            self.op(ctx, i, seed);
        }
    }
}

impl Federation {
    fn op(&self, ctx: &mut Ctx, i: usize, seed: u64) {
        let (builtin, demand) = &self.specs[i];
        let spec = &ScenarioSpec {
            seed: mix(seed, i as u64),
            ..builtin.clone()
        };
        ctx.op(
            |ctx| {
                let report = if ctx.tracing() {
                    run_profiled(spec, ctx)?
                } else {
                    spec.run()?
                };
                let json = ctx.encode(&report)?;
                Ok((report, json))
            },
            |out, (report, json)| {
                let resume = out.round_trip::<ScenarioReport>(json)?;
                out.resumes.push(resume);
                let (offered, within) = served(report, *demand, spec.window.duration_s);
                out.served(offered, within);
                out.gpus += provisioned_gpus(report);
                Ok(())
            },
        );
    }
}

/// Mean GPUs in service over the report's intervals.
fn provisioned_gpus(report: &ScenarioReport) -> f64 {
    let nodes: Vec<f64> = match report {
        ScenarioReport::Fleet(r) => r.events.iter().map(|e| e.nodes_in_service as f64).collect(),
        ScenarioReport::Region(r) => std::iter::once(&r.baseline)
            .chain(&r.intervals)
            .map(|i| i.regions.iter().map(|g| g.nodes_in_service as f64).sum())
            .collect(),
        ScenarioReport::Serve(_) => Vec::new(),
    };
    GPUS_PER_NODE * nodes.iter().sum::<f64>() / nodes.len().max(1) as f64
}

/// `ScenarioSpec::run` for fleet and region specs, with the orchestrator
/// self-profile turned on and its phases added to the pass's figures.
fn run_profiled(spec: &ScenarioSpec, ctx: &mut Ctx) -> Result<ScenarioReport, String> {
    spec.validate()?;
    let mut services = spec.workload.services()?;
    let next_id = services.iter().map(|s| s.id + 1).max().unwrap_or(0);
    for (offset, pod) in (0u32..).zip(&spec.pods) {
        services.push(pod.to_service_spec(next_id + offset)?);
    }
    for t in &spec.tenants {
        for s in services.iter_mut().filter(|s| t.services.contains(&s.id)) {
            s.tenant = t.id;
        }
    }
    let tenants: Vec<Tenant> = spec.tenants.iter().map(TenantSpec::to_tenant).collect();
    let serving = spec.serving_config();
    let book = ctx.book();
    let (report, profile) = match &spec.mode {
        Mode::Fleet {
            fleet,
            intervals,
            analytic_recovery,
        } => {
            let market = spec.spot_markets.first();
            let config = FleetConfig {
                seed: spec.seed,
                intervals: (*intervals).max(1),
                serving,
                des_recovery: !analytic_recovery,
                tenants,
                chaos: market.map_or_else(ChaosProfile::default, SpotMarketSpec::chaos_profile),
                spot_discount: market.and_then(|m| m.discount),
                resilience: spec.resilience,
                ..FleetConfig::default()
            };
            let pools = fleet.resolve();
            let (report, profile) = ctx
                .layer("fleet.run", || {
                    run_chaos_sink(&book, &services, &pools, &config, &mut NullSink, true)
                })
                .map_err(|e| e.to_string())?;
            (ScenarioReport::Fleet(report), profile)
        }
        Mode::Region {
            federation,
            intervals,
            drill,
            diurnal,
            follow_the_sun,
        } => {
            let mut config = FederationConfig {
                seed: spec.seed,
                intervals: (*intervals).max(1),
                serving,
                drill: *drill,
                follow_the_sun: *follow_the_sun,
                tenants,
                region_chaos: spec
                    .spot_markets
                    .iter()
                    .map(SpotMarketSpec::chaos_profile)
                    .collect(),
                spot_discounts: spec.spot_markets.iter().map(|m| m.discount).collect(),
                resilience: spec.resilience,
                ..FederationConfig::default()
            };
            if let Some(d) = diurnal {
                config.diurnal_low = d.low;
                config.diurnal_high = d.high;
                config.hours_per_interval = d.hours_per_interval;
            }
            let topology = federation.resolve();
            let (report, profile) = ctx
                .layer("region.run", || {
                    run_federation_sink(&book, &services, &topology, &config, &mut NullSink, true)
                })
                .map_err(|e| e.to_string())?;
            (ScenarioReport::Region(report), profile)
        }
        Mode::Serve { .. } => return Err(format!("{} is not a fleet or region spec", spec.name)),
    };
    add_phases(ctx, &profile);
    Ok(report)
}

/// Add the profile's phase wall times to the pass's per-layer figures.
fn add_phases(ctx: &mut Ctx, profile: &SelfProfiler) {
    for p in profile.stats() {
        let key = match (p.layer, p.name) {
            ("fleet", "schedule") => "fleet.schedule_ms",
            ("fleet", "plan") => "fleet.plan_ms",
            ("fleet", "probe-fanout") => "fleet.probe-fanout_ms",
            ("fleet", "merge") => "fleet.merge_ms",
            ("region", "event-apply") => "region.event-apply_ms",
            ("region", "route") => "region.route_ms",
            ("region", "retarget") => "region.retarget_ms",
            ("region", "measure") => "region.measure_ms",
            ("region", "follow-the-sun") => "region.follow-the-sun_ms",
            _ => continue,
        };
        ctx.out().count(key, p.wall_nanos as f64 / 1e6);
    }
}
