//! `plan`: the planner alone, no DES. ParvaGPU schedules S1–S6 and S5
//! scaled ×1…×20 (Figs. 9/11), every service's rate jittered ±10% by the
//! round's seed, then applies one §III-F `update_service` per service at a
//! seeded new rate (×0.5–2, so most updates re-place segments), each update
//! building on the last. One op is one schedule or update call: the
//! paper's scheduling delay.

use super::{check_plan, Workload};
use crate::record::Ctx;
use crate::stats::uniform;
use parvagpu::core::{allocator::allocate, configure, reconfigure::update_service, ParvaGpu};
use parvagpu::core::{ReconfigOutcome, Service};
use parvagpu::deploy::{MigDeployment, ServiceSpec};
use parvagpu::profile::ProfileBook;
use parvagpu::scenarios::Scenario;

/// Largest S5 replication (Fig. 11's x-axis).
const MAX_SCALE: u32 = 20;

pub struct Plan {
    book: ProfileBook,
    sched: ParvaGpu,
    /// Each plan's services at their nominal rates.
    sets: Vec<Vec<ServiceSpec>>,
}

/// A round's plans: each one's jittered services, and the rate each
/// service is updated to.
type Round = Vec<(Vec<ServiceSpec>, Vec<f64>)>;

impl Workload for Plan {
    const PASS_S: f64 = 1.2;

    fn setup(seed: u64, ctx: &mut Ctx) -> Result<Self, String> {
        let book = ctx.book();
        let sched = ParvaGpu::new(&book);
        let sets = Scenario::ALL
            .iter()
            .map(|s| s.services())
            .chain((1..=MAX_SCALE).map(|k| Scenario::S5.scaled(k)))
            .collect();
        let w = Self { book, sched, sets };
        let round = w.round(seed);
        for p in 0..Scenario::ALL.len() {
            w.schedule(ctx, &round, p);
        }
        Ok(w)
    }

    fn pass(&mut self, ctx: &mut Ctx, seed: u64) {
        let round = self.round(seed);
        for p in 0..round.len() {
            let Some((mut services, mut deployment)) = self.schedule(ctx, &round, p) else {
                continue;
            };
            // Each Table IV plan is saved and loaded back on its own; the
            // scaled plans only join the digest, as the vendored parser
            // needs seconds for a ×20 plan's JSON.
            if p < Scenario::ALL.len() {
                let out = ctx.out();
                let saved = out.save(&deployment);
                out.check(saved);
            }
            let (specs, rates) = &round[p];
            for (spec, &rate) in specs.iter().zip(rates) {
                let updated = ServiceSpec::new(spec.id, spec.model, rate, spec.slo.latency_ms);
                let outcome = ctx.op(
                    |ctx| {
                        ctx.layer("core.update", || {
                            update_service(&self.sched, &deployment, &services, updated)
                        })
                        .map_err(|e| e.to_string())
                    },
                    |out, o: &ReconfigOutcome| {
                        check_plan(&o.deployment, std::slice::from_ref(&updated))?;
                        if o.service.configured_capacity_rps() < rate {
                            return Err(format!("service {} configured below its rate", spec.id));
                        }
                        out.record(format!("{}:{:?}", spec.id, o.reconfigured_gpus).as_bytes());
                        out.served(rate, rate);
                        Ok(())
                    },
                );
                if let Some(o) = outcome {
                    deployment = o.deployment;
                    if let Some(slot) = services.iter_mut().find(|s| s.spec.id == spec.id) {
                        *slot = o.service;
                    }
                }
            }
            let json = serde_json::to_string(&deployment).expect("a plan serializes");
            ctx.out().record(json.as_bytes());
        }
    }
}

impl Plan {
    /// The round's plans: every service's rate jittered ±10%, and the rate
    /// each is then updated to.
    fn round(&self, seed: u64) -> Round {
        (0u64..)
            .zip(&self.sets)
            .map(|(p, specs)| {
                let salt = |i: usize, what: u64| (p << 32) | ((i as u64) << 2) | what;
                let jittered: Vec<ServiceSpec> = specs
                    .iter()
                    .enumerate()
                    .map(|(i, s)| {
                        let rate = s.request_rate_rps * uniform(seed, salt(i, 0), 0.9, 1.1);
                        ServiceSpec::new(s.id, s.model, rate, s.slo.latency_ms)
                    })
                    .collect();
                let updates = jittered
                    .iter()
                    .enumerate()
                    .map(|(i, s)| s.request_rate_rps * uniform(seed, salt(i, 1), 0.5, 2.0))
                    .collect();
                (jittered, updates)
            })
            .collect()
    }

    /// Schedule plan `p` of `round` from scratch: the Configurator then
    /// the Allocator, the two stages of `ParvaGpu::plan`.
    fn schedule(
        &self,
        ctx: &mut Ctx,
        round: &Round,
        p: usize,
    ) -> Option<(Vec<Service>, MigDeployment)> {
        let specs = &round[p].0;
        ctx.op(
            |ctx| {
                let services = ctx
                    .layer("core.configure", || {
                        configure(specs, &self.book, self.sched.max_procs())
                    })
                    .map_err(|e| e.to_string())?;
                let deployment = ctx.layer("core.allocate", || {
                    allocate(&services, self.sched.allocator_config())
                });
                Ok((services, deployment))
            },
            |out, (_, deployment)| {
                check_plan(deployment, specs)?;
                if p >= Scenario::ALL.len() {
                    let json = serde_json::to_string(deployment).map_err(|e| e.to_string())?;
                    out.record(json.as_bytes());
                }
                let rate: f64 = specs.iter().map(|s| s.request_rate_rps).sum();
                out.served(rate, rate);
                out.gpus += deployment.gpu_count() as f64;
                Ok(())
            },
        )
    }
}
