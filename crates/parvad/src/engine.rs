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
//!    the measured-recovery path — re-sliced GPUs go dark for a real
//!    reflash + weight-copy latency before serving again.

use crate::pod::PodSpec;
use parva_autoscale::DemandEstimator;
use parva_core::{reconfigure, ParvaGpu, Service};
use parva_deploy::{Deployment, MigDeployment, ServiceSpec};
use parva_obs::{Row, TraceSink};
use parva_profile::ProfileBook;
use parva_serve::{ArrivalProcess, Engine, RecoveryOp, RecoverySpec, ResilienceSpec, Simulation};
use serde::{Deserialize, Serialize};

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
    /// Control-plane reaction delay before physical work starts, ms.
    pub control_plane_ms: f64,
    /// One MIG re-flash on a churned GPU, ms.
    pub reflash_ms: f64,
    /// Host-to-device weight-copy bandwidth per node, GiB/s.
    pub link_gib_per_s: f64,
    /// Model weights copied onto each churned GPU, GiB.
    pub copy_gib: f64,
}

impl Default for AutoscalePolicy {
    fn default() -> Self {
        Self {
            decide_every: 4,
            window: 4,
            headroom: 1.1,
            hysteresis: 0.15,
            control_plane_ms: 50.0,
            reflash_ms: 400.0,
            link_gib_per_s: 16.0,
            copy_gib: 1.0,
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
    /// GPUs physically re-sliced across all decisions.
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

    fn scheduler() -> ParvaGpu {
        // Pure function of the builtin profile book — reconstructed at each
        // decision rather than serialized into checkpoints.
        ParvaGpu::new(&ProfileBook::builtin())
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
        let mut churned: Vec<usize> = Vec::new();
        let mut applied: u64 = 0;
        let mut infeasible: u64 = 0;
        for (i, d) in demand.iter().enumerate() {
            let current = self.planned[i].request_rate_rps;
            let rel = (d.request_rate_rps - current).abs() / current.max(f64::MIN_POSITIVE);
            if rel <= self.policy.hysteresis {
                continue;
            }
            match reconfigure::update_service(&scheduler, &self.deployment, &self.services, *d) {
                Ok(out) => {
                    self.deployment = out.deployment;
                    let slot = self
                        .services
                        .iter_mut()
                        .find(|s| s.spec.id == d.id)
                        .expect("planned service exists");
                    *slot = out.service;
                    self.planned[i] = *d;
                    churned.extend(out.reconfigured_gpus);
                    applied += 1;
                }
                Err(_) => {
                    // Demand spike the fleet cannot absorb right now: keep
                    // serving on the old plan rather than dying.
                    infeasible += 1;
                }
            }
        }
        churned.sort_unstable();
        churned.dedup();
        if applied > 0 {
            self.reconfigs += applied;
            self.churned_gpus += churned.len() as u64;
            let recovery = self.recovery_for(&churned);
            self.engine.reconfigure(
                &Deployment::Mig(self.deployment.clone()),
                &self.planned,
                recovery.as_ref(),
                sink,
            );
        }
        sink.sample(
            Row::new()
                .str("kind", "parvad-decision")
                .u64("epoch", self.engine.epoch())
                .u64("decision", self.decisions)
                .u64("applied", applied)
                .u64("infeasible", infeasible)
                .u64("churned_gpus", churned.len() as u64)
                .u64("gpus", self.deployment.gpu_count() as u64),
        );
    }

    /// Lower churned-GPU indices to a measured-recovery plan: each
    /// re-sliced GPU pays the control-plane delay, a MIG re-flash
    /// (serialized per 8-GPU node) and a weight copy before serving again.
    fn recovery_for(&self, churned: &[usize]) -> Option<RecoverySpec> {
        if churned.is_empty() {
            return None;
        }
        Some(RecoverySpec {
            start_ms: 0.0,
            control_plane_ms: self.policy.control_plane_ms,
            reflash_ms: self.policy.reflash_ms,
            link_gib_per_s: self.policy.link_gib_per_s,
            ops: churned
                .iter()
                .map(|&g| RecoveryOp {
                    node: g / 8,
                    logical_gpu: Some(g),
                    reflash: true,
                    copy_gib: self.policy.copy_gib,
                    prepared: false,
                })
                .collect(),
        })
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
            reconfigure::update_service(&Self::scheduler(), &self.deployment, &self.services, spec)
                .map_err(|e| format!("admission failed: {e}"))?;
        self.deployment = out.deployment;
        self.services.push(out.service);
        self.base.push(spec);
        self.planned.push(spec);
        self.names.push(pod.name.clone());
        self.multipliers.push(1.0);
        self.pods.push(pod.clone());
        self.next_id = id + 1;
        let mut churned = out.reconfigured_gpus;
        churned.sort_unstable();
        churned.dedup();
        self.reconfigs += 1;
        self.churned_gpus += churned.len() as u64;
        let recovery = self.recovery_for(&churned);
        self.engine.reconfigure(
            &Deployment::Mig(self.deployment.clone()),
            &self.planned,
            recovery.as_ref(),
            sink,
        );
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
    use parva_obs::NullSink;
    use parva_perf::Model;

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
}
