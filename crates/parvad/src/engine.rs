//! The daemon proper: serving engine + closed-loop autoscaler.
//!
//! [`Daemon`] owns everything a running control plane is: the serving DES
//! ([`parva_serve::Engine`], the same engine every batch simulation runs,
//! here with a window that never closes), the observed-demand estimator,
//! the live deployment, the admitted pods and the autoscaling policy. The
//! whole struct is `serde`-serializable, which is what makes
//! [`crate::checkpoint`] trivial and *complete*: there is no daemon state
//! outside this struct, so a resumed daemon is the suspended daemon.
//!
//! The control loop (one call to [`Daemon::step`] per epoch):
//!
//! 1. advance the engine one epoch — requests arrive, batch, complete —
//!    and log the epoch's `parvad-epoch` / `parvad-service` gauge rows;
//! 2. feed the epoch's *observed* per-service arrival counts to the
//!    [`DemandEstimator`] (the autoscaler never sees the injected demand
//!    multipliers — only their consequences);
//! 3. every `decide_every` epochs, run [`Daemon::decide`]: turn estimates
//!    into target rates, skip services within the hysteresis band, re-plan
//!    the rest through the paper's §III-F incremental path
//!    ([`parva_core::reconfigure::update_service`]), and actuate through
//!    the measured-recovery path.
//!
//! Actuation (after a decision or a pod admission) diffs the deployment
//! before it against the one after and prices that one net diff with the
//! fleet's recovery model ([`parva_serve::lower_diff`]): a GPU whose
//! layout changed re-flashes, every created segment copies its model's
//! weights, and a GPU that only swapped services copies without a
//! re-flash. Logical GPU `g` sits on node `g / GPUS_PER_NODE`, eight GPUs
//! to a node. Those GPUs go dark for the simulated recovery latency before
//! serving again.

use crate::pod::PodSpec;
use parva_autoscale::DemandEstimator;
use parva_core::{reconfigure, ParvaGpu, Service};
use parva_deploy::{Deployment, DeploymentDiff, MigDeployment, ServiceSpec};
use parva_obs::{Row, TraceSink};
use parva_profile::ProfileBook;
use parva_serve::{lower_diff, ArrivalProcess, Engine, RecoverySpec, ResilienceSpec, Simulation};
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// GPUs per node: logical GPU `g` re-flashes and copies on node
/// `g / GPUS_PER_NODE`.
const GPUS_PER_NODE: usize = 8;

/// Closed-loop autoscaler policy knobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AutoscalePolicy {
    /// Run a scaling decision every this many epochs (0 = never).
    pub decide_every: u64,
    /// Demand-estimator trailing window, epochs.
    pub window: usize,
    /// Provisioning headroom multiplied into every demand estimate.
    pub headroom: f64,
    /// Relative rate change (vs the last plan) below which a service is
    /// left alone — the anti-flapping band.
    pub hysteresis: f64,
}

impl Default for AutoscalePolicy {
    fn default() -> Self {
        Self {
            decide_every: 4,
            window: 4,
            headroom: 1.1,
            hysteresis: 0.15,
        }
    }
}

/// Live per-service status, shaped for the control socket.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceStatus {
    /// Daemon-assigned service id.
    pub id: u32,
    /// Pod name (or `svc-<id>` for services present at boot).
    pub name: String,
    /// Model display name.
    pub model: String,
    /// Current replica count (placed segments).
    pub replicas: u64,
    /// Headroom-free observed-demand estimate, req/s (0 until observed).
    pub demand_est_rps: f64,
    /// Rate the current deployment was last planned for, req/s.
    pub planned_rps: f64,
    /// Requests offered in the last completed epoch.
    pub offered: u64,
    /// Requests completed in the last completed epoch.
    pub completed: u64,
    /// SLO attainment over the last completed epoch.
    pub slo_attainment: f64,
}

/// Live daemon status, shaped for the control socket.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DaemonStatus {
    /// Completed epochs.
    pub epoch: u64,
    /// Simulation time, ms.
    pub sim_ms: f64,
    /// GPUs in the live deployment.
    pub gpus: u64,
    /// Servers currently dark (recovery in progress).
    pub dark_servers: u64,
    /// Whether the daemon is draining (no new admissions).
    pub draining: bool,
    /// Autoscale decisions taken.
    pub decisions: u64,
    /// Incremental reconfigurations applied (services re-planned).
    pub reconfigs: u64,
    /// GPUs that paid recovery work (a re-flash, a weight copy or both)
    /// across all decisions and admissions.
    pub churned_gpus: u64,
    /// Σ (deployment size × epochs) — the provisioning bill, GPU-epochs.
    pub gpu_epochs: u64,
    /// Per-service rows.
    pub services: Vec<ServiceStatus>,
}

/// The serving daemon: engine, estimator, deployment and autoscaler in one
/// serializable state machine.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Daemon {
    /// Admission-time specs: the *true* base demand and SLOs. The engine's
    /// offered load is `base × multiplier`; the autoscaler must rediscover
    /// it from observations.
    base: Vec<ServiceSpec>,
    /// What the allocator last planned against (post-estimate rates).
    planned: Vec<ServiceSpec>,
    /// Pod name per service (boot services get `svc-<id>`).
    names: Vec<String>,
    /// Injected demand multiplier per service (the world, not the plan).
    multipliers: Vec<f64>,
    /// Configured services (Table II state for the incremental path).
    services: Vec<Service>,
    /// The live MIG deployment (the engine keeps only the servers built
    /// from it).
    deployment: MigDeployment,
    /// The serving DES, advanced one epoch per step.
    engine: Engine,
    /// Simulated length of one epoch, µs.
    epoch_us: u64,
    /// Observed-demand estimator.
    estimator: DemandEstimator,
    /// Autoscaler policy.
    policy: AutoscalePolicy,
    /// Pods admitted over the control socket.
    pods: Vec<PodSpec>,
    decisions: u64,
    reconfigs: u64,
    churned_gpus: u64,
    gpu_epochs: u64,
    draining: bool,
    next_id: u32,
}

impl Daemon {
    /// Boot a daemon serving `specs` from epoch 0, advancing `epoch_us`
    /// simulated microseconds per step.
    ///
    /// # Errors
    /// Initial plan infeasibility, as a string.
    ///
    /// # Panics
    /// A zero `epoch_us`.
    pub fn new(
        specs: &[ServiceSpec],
        arrivals: ArrivalProcess,
        seed: u64,
        epoch_us: u64,
        policy: AutoscalePolicy,
    ) -> Result<Self, String> {
        let (services, deployment) = Self::scheduler()
            .plan(specs)
            .map_err(|e| format!("initial plan infeasible: {e}"))?;
        assert!(epoch_us > 0, "epoch must be positive");
        // Serving forever: no warm-up and a window that never closes, so
        // every request counts; the default resilience policy drains dark
        // servers at the router while a reconfiguration recovers them.
        let health_checked = ResilienceSpec::default();
        let engine = Simulation::new(&Deployment::Mig(deployment.clone()), specs)
            .window(0.0, f64::MAX, 0.0)
            .seed(seed)
            .arrivals(arrivals)
            .resilience(&health_checked)
            .engine();
        let estimator =
            DemandEstimator::new(specs.len(), policy.window.max(1)).with_headroom(policy.headroom);
        let next_id = specs.iter().map(|s| s.id + 1).max().unwrap_or(0);
        Ok(Self {
            base: specs.to_vec(),
            planned: specs.to_vec(),
            names: specs.iter().map(|s| format!("svc-{}", s.id)).collect(),
            multipliers: vec![1.0; specs.len()],
            services,
            deployment,
            engine,
            epoch_us,
            estimator,
            policy,
            pods: Vec::new(),
            decisions: 0,
            reconfigs: 0,
            churned_gpus: 0,
            gpu_epochs: 0,
            draining: false,
            next_id,
        })
    }

    /// Check what a checkpoint's checksum cannot vouch for: a positive
    /// epoch, and one entry per service in every per-service list. `Err`
    /// names the broken invariant.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.epoch_us == 0 {
            return Err("invalid daemon state: epoch_us > 0 does not hold".to_string());
        }
        let n = self.base.len();
        let lens = [
            ("planned", self.planned.len()),
            ("names", self.names.len()),
            ("multipliers", self.multipliers.len()),
            ("services", self.services.len()),
        ];
        match lens.iter().find(|&&(_, len)| len != n) {
            Some((list, len)) => Err(format!(
                "invalid daemon state: base, planned, names, multipliers and services \
                 must all have the same length (base has {n}, {list} has {len})"
            )),
            None => Ok(()),
        }
    }

    fn scheduler() -> &'static ParvaGpu {
        // A pure function of the builtin profile book: built once per
        // process, never serialized into checkpoints.
        static SCHEDULER: OnceLock<ParvaGpu> = OnceLock::new();
        SCHEDULER.get_or_init(|| ParvaGpu::new(&ProfileBook::builtin()))
    }

    /// Completed epochs.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.engine.epoch()
    }

    /// Whether the daemon refuses new admissions.
    #[must_use]
    pub fn draining(&self) -> bool {
        self.draining
    }

    /// Σ (deployment size × epochs): the provisioning bill so far.
    #[must_use]
    pub fn gpu_epochs(&self) -> u64 {
        self.gpu_epochs
    }

    /// The underlying serving engine (read-only).
    #[must_use]
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Cumulative serving report.
    #[must_use]
    pub fn report(&self) -> parva_serve::StreamReport {
        self.engine.stream_report()
    }

    /// One epoch's duration in seconds.
    fn epoch_seconds(&self) -> f64 {
        self.epoch_us as f64 * 1e-6
    }

    /// Advance one epoch and run the control loop.
    pub fn step<S: TraceSink>(&mut self, sink: &mut S) {
        self.engine.step_epoch(self.epoch_us, sink);
        self.log_epoch(sink);
        let counts: Vec<u64> = self.engine.last_epoch().iter().map(|o| o.offered).collect();
        self.estimator.observe_counts(&counts, self.epoch_seconds());
        self.gpu_epochs += self.deployment.gpu_count() as u64;
        if self.policy.decide_every > 0
            && self.engine.epoch().is_multiple_of(self.policy.decide_every)
        {
            self.decide(sink);
        }
    }

    /// The epoch's gauge rows: one `parvad-epoch` rollup, then one
    /// `parvad-service` row per service.
    fn log_epoch<S: TraceSink>(&self, sink: &mut S) {
        let obs = self.engine.last_epoch();
        let offered: u64 = obs.iter().map(|o| o.offered).sum();
        let completed: u64 = obs.iter().map(|o| o.completed).sum();
        let within: u64 = obs.iter().map(|o| o.within_slo).sum();
        let attainment = if completed == 0 {
            1.0
        } else {
            within as f64 / completed as f64
        };
        sink.sample(
            Row::new()
                .str("kind", "parvad-epoch")
                .u64("epoch", self.engine.epoch())
                .f64("t_ms", self.engine.now().micros() as f64 / 1000.0)
                .u64("offered", offered)
                .u64("completed", completed)
                .u64("within_slo", within)
                .f64("slo_attainment", attainment)
                .u64("queue_depth", self.engine.queue_depth() as u64)
                .u64("dark_servers", self.engine.dark_servers() as u64)
                .u64("gpus", self.deployment.gpu_count() as u64),
        );
        for o in obs {
            sink.sample(
                Row::new()
                    .str("kind", "parvad-service")
                    .u64("epoch", self.engine.epoch())
                    .u64("service", u64::from(o.service))
                    .u64("offered", o.offered)
                    .u64("completed", o.completed)
                    .u64("within_slo", o.within_slo)
                    .f64("slo_attainment", o.attainment())
                    .f64("rate_obs_rps", o.offered as f64 / self.epoch_seconds())
                    .u64(
                        "replicas",
                        self.deployment.segments_of(o.service).count() as u64,
                    ),
            );
        }
    }

    /// One autoscale decision: estimate demand, re-plan out-of-band
    /// services incrementally, actuate with measured recovery.
    pub fn decide<S: TraceSink>(&mut self, sink: &mut S) {
        self.decisions += 1;
        let demand = self.estimator.demand_specs(&self.base);
        let scheduler = Self::scheduler();
        // The deployment before the first re-plan: actuation diffs it
        // against the final one.
        let mut before: Option<MigDeployment> = None;
        let mut applied: u64 = 0;
        let mut infeasible: u64 = 0;
        for (i, d) in demand.iter().enumerate() {
            let current = self.planned[i].request_rate_rps;
            let rel = (d.request_rate_rps - current).abs() / current.max(f64::MIN_POSITIVE);
            if rel <= self.policy.hysteresis {
                continue;
            }
            match reconfigure::update_service(scheduler, &self.deployment, &self.services, *d) {
                Ok(out) => {
                    let old = std::mem::replace(&mut self.deployment, out.deployment);
                    before.get_or_insert(old);
                    let slot = self
                        .services
                        .iter_mut()
                        .find(|s| s.spec.id == d.id)
                        .expect("planned service exists");
                    *slot = out.service;
                    self.planned[i] = *d;
                    applied += 1;
                }
                Err(_) => {
                    // Demand spike the fleet cannot absorb right now: keep
                    // serving on the old plan rather than dying.
                    infeasible += 1;
                }
            }
        }
        self.reconfigs += applied;
        let churned = before.map_or(0, |before| self.actuate(&before, sink));
        sink.sample(
            Row::new()
                .str("kind", "parvad-decision")
                .u64("epoch", self.engine.epoch())
                .u64("decision", self.decisions)
                .u64("applied", applied)
                .u64("infeasible", infeasible)
                .u64("churned_gpus", churned)
                .u64("gpus", self.deployment.gpu_count() as u64),
        );
    }

    /// Serve the live deployment and the planned rates, moving from
    /// `before`: the one net diff between the two deployments is lowered
    /// to recovery ops, whose GPUs go dark until their re-flash and weight
    /// copy finish. Returns how many GPUs paid recovery work.
    fn actuate<S: TraceSink>(&mut self, before: &MigDeployment, sink: &mut S) -> u64 {
        let diff = DeploymentDiff::between(before.slots(), self.deployment.slots());
        let ops = lower_diff(&diff, |g| (g / GPUS_PER_NODE, true, Some(g)));
        let recovery = RecoverySpec::from_ops(ops, 0.0);
        let churned = recovery.ops.len() as u64;
        self.churned_gpus += churned;
        self.engine.reconfigure(
            &Deployment::Mig(self.deployment.clone()),
            &self.planned,
            Some(&recovery),
            sink,
        );
        churned
    }

    /// Admit a pod: validate, plan it incrementally into the live
    /// deployment, start serving it. Returns the assigned service id.
    ///
    /// # Errors
    /// Validation failures, duplicate names, a draining daemon, or an
    /// infeasible placement — all as strings, the daemon keeps serving.
    pub fn submit<S: TraceSink>(&mut self, pod: &PodSpec, sink: &mut S) -> Result<u32, String> {
        pod.validate()?;
        if self.draining {
            return Err("daemon is draining; not admitting new pods".to_string());
        }
        if self.names.iter().any(|n| n == &pod.name) {
            return Err(format!("pod name {:?} already admitted", pod.name));
        }
        let id = self.next_id;
        let spec = pod.to_service_spec(id)?;
        let out =
            reconfigure::update_service(Self::scheduler(), &self.deployment, &self.services, spec)
                .map_err(|e| format!("admission failed: {e}"))?;
        let before = std::mem::replace(&mut self.deployment, out.deployment);
        self.services.push(out.service);
        self.base.push(spec);
        self.planned.push(spec);
        self.names.push(pod.name.clone());
        self.multipliers.push(1.0);
        self.pods.push(pod.clone());
        self.next_id = id + 1;
        self.reconfigs += 1;
        self.actuate(&before, sink);
        Ok(id)
    }

    /// Inject a true-demand multiplier for one service (the world changing,
    /// not a control action — the autoscaler only sees the fallout).
    ///
    /// # Errors
    /// Unknown service or non-positive multiplier.
    pub fn scale(&mut self, service: u32, multiplier: f64) -> Result<(), String> {
        if !(multiplier.is_finite() && multiplier > 0.0) {
            return Err("multiplier must be positive".to_string());
        }
        let idx = self
            .base
            .iter()
            .position(|s| s.id == service)
            .ok_or_else(|| format!("unknown service {service}"))?;
        self.multipliers[idx] = multiplier;
        self.engine.set_demand_multiplier(&self.multipliers);
        Ok(())
    }

    /// Inject one multiplier across every service (diurnal drivers).
    ///
    /// # Panics
    /// Non-positive multiplier.
    pub fn scale_all(&mut self, multiplier: f64) {
        assert!(
            multiplier.is_finite() && multiplier > 0.0,
            "multiplier must be positive"
        );
        for m in &mut self.multipliers {
            *m = multiplier;
        }
        self.engine.set_demand_multiplier(&self.multipliers);
    }

    /// Stop admitting new pods; the engine keeps serving what it has.
    pub fn drain(&mut self) {
        self.draining = true;
    }

    /// Live status snapshot for the control socket.
    #[must_use]
    pub fn status(&self) -> DaemonStatus {
        let last = self.engine.last_epoch();
        DaemonStatus {
            epoch: self.engine.epoch(),
            sim_ms: self.engine.now().micros() as f64 / 1000.0,
            gpus: self.deployment.gpu_count() as u64,
            dark_servers: self.engine.dark_servers() as u64,
            draining: self.draining,
            decisions: self.decisions,
            reconfigs: self.reconfigs,
            churned_gpus: self.churned_gpus,
            gpu_epochs: self.gpu_epochs,
            services: self
                .base
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    let obs = last.get(i);
                    let completed = obs.map_or(0, |o| o.completed);
                    let within = obs.map_or(0, |o| o.within_slo);
                    ServiceStatus {
                        id: s.id,
                        name: self.names[i].clone(),
                        model: s.model.name().to_string(),
                        replicas: self.deployment.segments_of(s.id).count() as u64,
                        demand_est_rps: self.estimator.estimate(i).unwrap_or(0.0),
                        planned_rps: self.planned[i].request_rate_rps,
                        offered: obs.map_or(0, |o| o.offered),
                        completed,
                        slo_attainment: if completed == 0 {
                            1.0
                        } else {
                            within as f64 / completed as f64
                        },
                    }
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GaugeLog;
    use parva_obs::{ArgValue, NullSink, Recorder};
    use parva_perf::{Model, PerfParams};
    use std::collections::BTreeMap;

    fn boot(policy: AutoscalePolicy) -> Daemon {
        let specs = vec![
            ServiceSpec::new(1, Model::ResNet50, 400.0, 40.0),
            ServiceSpec::new(2, Model::MobileNetV2, 300.0, 30.0),
        ];
        Daemon::new(&specs, ArrivalProcess::Poisson, 11, 500_000, policy).unwrap()
    }

    #[test]
    fn steps_serve_and_observe() {
        let mut d = boot(AutoscalePolicy::default());
        let mut sink = NullSink;
        for _ in 0..4 {
            d.step(&mut sink);
        }
        let st = d.status();
        assert_eq!(st.epoch, 4);
        assert!(st.services.iter().any(|s| s.completed > 0));
        assert!(st.services[0].demand_est_rps > 0.0);
        assert_eq!(st.gpu_epochs, 4 * st.gpus);
    }

    #[test]
    fn autoscaler_tracks_a_demand_drop() {
        let mut d = boot(AutoscalePolicy {
            decide_every: 2,
            window: 2,
            ..AutoscalePolicy::default()
        });
        let mut sink = NullSink;
        let gpus_before = d.status().gpus;
        d.scale_all(0.3);
        for _ in 0..8 {
            d.step(&mut sink);
        }
        let st = d.status();
        assert!(st.decisions > 0);
        assert!(
            st.gpus <= gpus_before,
            "shrinking demand must not grow the fleet"
        );
        assert!(st.reconfigs > 0, "a 70% demand drop must trigger re-plans");
    }

    #[test]
    fn submit_admits_and_serves_a_pod() {
        let mut d = boot(AutoscalePolicy::default());
        let mut log = GaugeLog::new();
        let pod = PodSpec::new("bert-qa", Model::BertLarge, 130.0, 80.0);
        let id = d.submit(&pod, &mut log).unwrap();
        assert_eq!(id, 3);
        // Duplicate names are rejected; the daemon keeps serving.
        assert!(d.submit(&pod, &mut log).unwrap_err().contains("already"));
        for _ in 0..3 {
            d.step(&mut log);
        }
        let st = d.status();
        let bert = st.services.iter().find(|s| s.id == id).unwrap();
        assert_eq!(bert.name, "bert-qa");
        assert!(bert.replicas > 0);
        assert!(bert.offered > 0, "admitted pod must receive traffic");
    }

    #[test]
    fn admission_pays_the_fleet_recovery_model() {
        // Every created BERT-Large segment copies its own weights, summed
        // per GPU, and every re-flash takes the fleet's 800 ms.
        let mut d = boot(AutoscalePolicy::default());
        let mut rec = Recorder::new(0);
        let pod = PodSpec::new("bert-qa", Model::BertLarge, 130.0, 80.0);
        let id = d.submit(&pod, &mut rec).unwrap();

        let bert_gib = PerfParams::for_model(Model::BertLarge).weights_gib;
        assert!((bert_gib - 1.40).abs() < 1e-12);
        let mut per_gpu: BTreeMap<usize, f64> = BTreeMap::new();
        for ps in d.deployment.segments_of(id) {
            *per_gpu.entry(ps.gpu).or_insert(0.0) += bert_gib;
        }
        let mut want: Vec<f64> = per_gpu.into_values().collect();
        let spans = |name: &'static str| rec.events.iter().filter(move |e| e.name == name);
        let mut copied: Vec<f64> = spans("copy")
            .map(|e| match e.args.iter().find(|(k, _)| *k == "gib") {
                Some((_, ArgValue::F64(gib))) => *gib,
                other => panic!("copy span without a gib: {other:?}"),
            })
            .collect();
        want.sort_by(f64::total_cmp);
        copied.sort_by(f64::total_cmp);
        assert!(!want.is_empty());
        assert_eq!(copied, want);

        let reflashes: Vec<u64> = spans("reflash").map(|e| e.dur_us).collect();
        assert!(!reflashes.is_empty(), "admission must re-flash a GPU");
        assert!(reflashes.iter().all(|&us| us == 800_000), "{reflashes:?}");
    }

    #[test]
    fn drain_refuses_admission() {
        let mut d = boot(AutoscalePolicy::default());
        d.drain();
        let err = d
            .submit(
                &PodSpec::new("late", Model::ResNet50, 100.0, 10.0),
                &mut NullSink,
            )
            .unwrap_err();
        assert!(err.contains("draining"));
    }

    #[test]
    fn checkpoint_resume_is_bit_identical() {
        let policy = AutoscalePolicy {
            decide_every: 3,
            ..AutoscalePolicy::default()
        };
        let mut control = boot(policy);
        let mut interrupted = boot(policy);
        let mut control_log = GaugeLog::new();
        let mut resumed_log = GaugeLog::new();
        for _ in 0..4 {
            control.step(&mut control_log);
            interrupted.step(&mut resumed_log);
        }
        // Suspend mid-run: serialize, drop, decode, continue.
        let frozen = crate::checkpoint::encode_checkpoint(&interrupted).unwrap();
        drop(interrupted);
        let mut resumed: Daemon = crate::checkpoint::decode_checkpoint(&frozen).unwrap();
        for _ in 0..5 {
            control.step(&mut control_log);
            resumed.step(&mut resumed_log);
        }
        assert_eq!(control_log.to_jsonl(), resumed_log.to_jsonl());
        assert_eq!(
            serde_json::to_string(&control.status()).unwrap(),
            serde_json::to_string(&resumed.status()).unwrap()
        );
    }

    /// Drop every `key` entry from the maps in `v`; returns how many of
    /// the dropped values were not zero.
    fn strip_key(v: &mut serde::Value, key: &str) -> usize {
        match v {
            serde::Value::Map(entries) => {
                let nonzero = entries
                    .iter()
                    .filter(|(k, v)| {
                        k == key && !matches!(v, serde::Value::Int(0) | serde::Value::UInt(0))
                    })
                    .count();
                entries.retain(|(k, _)| k != key);
                nonzero
                    + entries
                        .iter_mut()
                        .map(|(_, v)| strip_key(v, key))
                        .sum::<usize>()
            }
            serde::Value::Seq(items) => items.iter_mut().map(|v| strip_key(v, key)).sum(),
            _ => 0,
        }
    }

    #[test]
    fn checkpoint_from_before_armed_deadlines_resumes_bit_identically() {
        // v3 checkpoints written before servers remembered their armed
        // batching deadline have no `armed` keys. The field then reads as
        // nothing armed, so each server arms its head's deadline again,
        // next to the one the old checkpoint already queued.
        let policy = AutoscalePolicy {
            decide_every: 3,
            ..AutoscalePolicy::default()
        };
        let mut control = boot(policy);
        let mut interrupted = boot(policy);
        let mut control_log = GaugeLog::new();
        let mut resumed_log = GaugeLog::new();
        for _ in 0..4 {
            control.step(&mut control_log);
            interrupted.step(&mut resumed_log);
        }
        let mut state = serde::Serialize::to_value(&interrupted);
        drop(interrupted);
        assert!(
            strip_key(&mut state, "armed") > 0,
            "no server had a deadline armed: the old form would equal the new"
        );
        let old_form = crate::checkpoint::encode_checkpoint(&state).unwrap();
        assert!(!old_form.contains("\"armed\""));
        let mut resumed: Daemon = crate::checkpoint::decode_checkpoint(&old_form).unwrap();
        for _ in 0..5 {
            control.step(&mut control_log);
            resumed.step(&mut resumed_log);
        }
        assert_eq!(control_log.to_jsonl(), resumed_log.to_jsonl());
        assert_eq!(
            serde_json::to_string(&control.report()).unwrap(),
            serde_json::to_string(&resumed.report()).unwrap()
        );
        assert_eq!(
            serde_json::to_string(&control.status()).unwrap(),
            serde_json::to_string(&resumed.status()).unwrap()
        );
    }
}
