//! `traced`: the serve-mode builtins `quickstart`, `single_node_mps`,
//! `retry_storm` and `llm` at CI scale (`ScenarioSpec::quick`), each at a
//! spec seed drawn from the round's seed and run three ways: through `run_observed`, exported in memory to
//! Chrome trace JSON and gauge JSONL, and audited by recounting the trace
//! with `obs::analyze` as `parvactl trace audit` does. One op is one spec.

use super::{served, Workload};
use crate::record::Ctx;
use crate::stats::mix;
use parvagpu::deploy::ServiceSpec;
use parvagpu::mig::GpuModel;
use parvagpu::obs::analyze::{parse_trace, recompute_serving, ServingRecount};
use parvagpu::perf::Model;
use parvagpu::profile::{ProfileBook, SweepGrid};
use parvagpu::scenarios::{spec_by_name, Mode, ScenarioReport, ScenarioSpec};
use parvagpu::serve::ServingReport;

const SPECS: [&str; 4] = ["quickstart", "single_node_mps", "retry_storm", "llm"];

pub struct Traced {
    /// Each builtin spec and the GPUs its scheduler plans for it.
    specs: Vec<(ScenarioSpec, f64)>,
}

impl Workload for Traced {
    const PASS_S: f64 = 0.22;

    fn setup(seed: u64, ctx: &mut Ctx) -> Result<Self, String> {
        let specs = SPECS
            .iter()
            .map(|name| {
                let spec = spec_by_name(name)
                    .ok_or(format!("no builtin {name}"))?
                    .quick();
                let gpus = planned_gpus(&spec, ctx)?;
                Ok((spec, gpus))
            })
            .collect::<Result<_, String>>()?;
        let w = Self { specs };
        w.op(ctx, 0, seed);
        Ok(w)
    }

    fn pass(&mut self, ctx: &mut Ctx, seed: u64) {
        for i in 0..self.specs.len() {
            self.op(ctx, i, seed);
        }
    }
}

impl Traced {
    fn op(&self, ctx: &mut Ctx, i: usize, seed: u64) {
        let (builtin, gpus) = &self.specs[i];
        let spec = &ScenarioSpec {
            seed: mix(seed, i as u64),
            ..builtin.clone()
        };
        ctx.op(
            |ctx| {
                let (report, rec) = ctx.layer("obs.observed_run", || spec.run_observed())?;
                let (chrome, lines, gauges) = ctx.layer("obs.export", || {
                    (rec.chrome_trace(), rec.trace_jsonl(), rec.metrics_jsonl())
                });
                // The audit reads the line-delimited form, as it does from
                // streamed shards: the vendored parser takes minutes on a
                // full-scale Chrome document.
                let recount = ctx.layer("obs.audit", || {
                    parse_trace(&lines).and_then(|events| recompute_serving(&events))
                })?;
                if ctx.tracing() {
                    let out = ctx.out();
                    out.count("obs.trace_events", rec.events.len() as f64);
                    out.count("obs.trace_bytes", chrome.len() as f64);
                    out.count("obs.gauge_rows", rec.metrics.len() as f64);
                }
                let json = ctx.encode(&report)?;
                Ok((report, recount, gauges, json))
            },
            |out, (report, recount, gauges, json)| {
                let ScenarioReport::Serve(r) = report else {
                    return Err(format!("{} is not a serve spec", spec.name));
                };
                check_recount(r, recount)?;
                let resume = out.round_trip::<ScenarioReport>(json)?;
                out.resumes.push(resume);
                out.record(gauges.as_bytes());
                let (offered, within) = served(report, 0.0, 0.0);
                out.served(offered, within);
                out.gpus += gpus;
                Ok(())
            },
        );
    }
}

/// The trace recount agrees with the report on every service's offered,
/// completed and within-SLO requests.
pub fn check_recount(report: &ServingReport, recount: &ServingRecount) -> Result<(), String> {
    for s in &report.services {
        let counted = recount
            .service(u64::from(s.service_id))
            .map_or((0, 0, 0), |c| {
                (c.offered, c.completed, c.completed_within_slo)
            });
        let reported = (s.offered, s.completed, s.completed_within_slo);
        if counted != reported {
            return Err(format!(
                "service {}: trace recounts (offered, completed, within SLO) = {counted:?}, \
                 report says {reported:?}",
                s.service_id
            ));
        }
    }
    Ok(())
}

/// GPUs the spec's scheduler plans for its services, on the spec's GPU.
fn planned_gpus(spec: &ScenarioSpec, ctx: &mut Ctx) -> Result<f64, String> {
    let Mode::Serve { scheduler, gpu, .. } = &spec.mode else {
        return Err(format!("{} is not a serve spec", spec.name));
    };
    let services: Vec<ServiceSpec> = spec.workload.services()?;
    let book = match gpu {
        Some(name) => {
            let gpu = GpuModel::CATALOG
                .iter()
                .copied()
                .find(|g| g.name.eq_ignore_ascii_case(name))
                .ok_or(format!("unknown GPU {name}"))?;
            let mut models: Vec<Model> = Vec::new();
            for s in &services {
                if !models.contains(&s.model) {
                    models.push(s.model);
                }
            }
            ProfileBook::measure_on(&models, &SweepGrid::paper_default(), gpu)
        }
        None => ctx.book(),
    };
    let name = if scheduler.is_empty() {
        "parvagpu"
    } else {
        scheduler
    };
    let deployment = parvagpu::cli::make_scheduler(name, &book)?
        .schedule(&services)
        .map_err(|e| e.to_string())?;
    Ok(deployment.gpu_count() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Ctx;
    use std::time::Instant;

    #[test]
    fn doctored_report_fails_its_check_and_counts_as_failed() {
        let spec = spec_by_name("quickstart").expect("registered").quick();
        let (report, rec) = spec.run_observed().expect("quickstart runs");
        let ScenarioReport::Serve(good) = report else {
            panic!("quickstart is a serve spec")
        };
        let recount = recompute_serving(&parse_trace(&rec.trace_jsonl()).expect("trace parses"))
            .expect("trace recounts");
        check_recount(&good, &recount).expect("an honest report passes");

        let mut doctored = good.clone();
        doctored.services[0].completed_within_slo += 1;
        assert!(check_recount(&doctored, &recount).is_err());

        let mut ctx = Ctx::new(Instant::now());
        ctx.begin_pass(false);
        let honest = ctx.op(|_| Ok(good.clone()), |_, r| check_recount(r, &recount));
        let caught = ctx.op(|_| Ok(doctored.clone()), |_, r| check_recount(r, &recount));
        assert!(honest.is_some() && caught.is_none());
        let pass = ctx.end_pass();
        assert_eq!((pass.attempted, pass.failed), (2, 1));
        assert_eq!(crate::op_fail_frac(&[pass]), 0.5);
    }
}
