//! `table4`: the paper's pipeline on Table IV S1–S6. ParvaGPU plans each
//! scenario, the batch serving DES serves the default window (2 s warm-up,
//! 10 s measured, 5 s drain) under Poisson arrivals at the round's sample
//! path, and the report is serialized. One op is one scenario.

use super::{check_plan, Workload};
use crate::record::Ctx;
use crate::stats::mix;
use parvagpu::core::{allocator::allocate, configure, ParvaGpu};
use parvagpu::deploy::{Deployment, Scheduler, ServiceSpec};
use parvagpu::profile::ProfileBook;
use parvagpu::scenarios::Scenario;
use parvagpu::serve::{ServingReport, Simulation};

pub struct Table4 {
    book: ProfileBook,
    sched: ParvaGpu,
    /// Each scenario's services.
    scenarios: Vec<Vec<ServiceSpec>>,
}

impl Workload for Table4 {
    const PASS_S: f64 = 0.22;

    fn setup(seed: u64, ctx: &mut Ctx) -> Result<Self, String> {
        let book = ctx.book();
        let sched = ParvaGpu::new(&book);
        let scenarios = Scenario::ALL.iter().map(|s| s.services()).collect();
        let w = Self {
            book,
            sched,
            scenarios,
        };
        w.op(ctx, 0, mix(seed, 0));
        Ok(w)
    }

    fn pass(&mut self, ctx: &mut Ctx, seed: u64) {
        for i in 0..self.scenarios.len() {
            self.op(ctx, i, mix(seed, i as u64));
        }
    }
}

impl Table4 {
    fn op(&self, ctx: &mut Ctx, i: usize, des_seed: u64) {
        let specs = &self.scenarios[i];
        ctx.op(
            |ctx| {
                // Traced passes split `schedule` into the two calls it makes,
                // so each stage gets its own span; the plan is identical.
                let deployment = if ctx.tracing() {
                    let services = ctx
                        .layer("core.configure", || {
                            configure(specs, &self.book, self.sched.max_procs())
                        })
                        .map_err(|e| e.to_string())?;
                    Deployment::Mig(ctx.layer("core.allocate", || {
                        allocate(&services, self.sched.allocator_config())
                    }))
                } else {
                    self.sched.schedule(specs).map_err(|e| e.to_string())?
                };
                let report = ctx.layer("serve.run", || {
                    Simulation::new(&deployment, specs).seed(des_seed).run()
                });
                let json = ctx.encode(&report)?;
                Ok((deployment, report, json))
            },
            |out, (deployment, report, json)| {
                let mig = deployment.as_mig().ok_or("ParvaGPU plans on MIG")?;
                check_plan(mig, specs)?;
                out.round_trip::<Deployment>(
                    &serde_json::to_string(deployment).map_err(|e| e.to_string())?,
                )?;
                let resume = out.round_trip::<ServingReport>(json)?;
                out.resumes.push(resume);
                let offered: u64 = report.services.iter().map(|s| s.offered).sum();
                let within: u64 = report.services.iter().map(|s| s.completed_within_slo).sum();
                out.served(offered as f64, within as f64);
                out.gpus += deployment.gpu_count() as f64;
                Ok(())
            },
        );
    }
}
