//! The resilient request lifecycle: timeouts, budgeted retries, hedging,
//! load shedding and health-checked routing.
//!
//! Real inference frontends do not treat a request as fire-and-forget: a
//! request that sits too long in a queue times out and is retried (with
//! exponential backoff), a tail-latency-sensitive client hedges a second
//! copy after a quantile delay, an overloaded replica sheds instead of
//! queueing unboundedly, and the load balancer drains replicas it knows to
//! be dark. Whether those mechanisms produce graceful degradation or a
//! metastable retry storm is a *policy* question — the classic failure mode
//! is retry amplification: under overload every timeout injects another
//! request, offered load doubles and redoubles, queueing delay exceeds the
//! timeout for every request, and goodput collapses to zero even after the
//! original overload subsides. The industry fix is a **retry budget**: a
//! token bucket capping cluster-wide retry injection so retries help at the
//! margin but cannot become the dominant traffic class.
//!
//! [`ResilienceSpec`] configures all of it. Every field is serde-defaulted
//! and every mechanism is individually disableable; an absent `resilience`
//! block (or an [inert](ResilienceSpec::is_inert) one) leaves the serving
//! engine on its original code path and the report byte-identical —
//! property-tested against the frozen reference, the same discipline as
//! tenant neutrality.

use serde::{Deserialize, Serialize};

/// Frontend resilience policy for a serving run.
///
/// All fields have inert-leaning defaults; the spec block can name any
/// subset. Semantics:
///
/// * **Timeout + retries** — a request that has waited `timeout_ms` in a
///   queue (minus its ingress class's network term, floored at zero) is
///   pulled out and, if it has attempts left *and* the retry budget admits,
///   re-enqueued after an exponential backoff with optional jitter; a
///   request that exhausts retries (or is denied by the budget) dies and
///   counts against SLO attainment exactly like an unserved request.
/// * **Retry budget** — one token bucket across the whole run refilled at
///   `retry_budget_rps`; `0` means unbudgeted (every eligible timeout
///   retries — the retry-storm configuration).
/// * **Hedging** — when `hedge_quantile ∈ (0, 1)`, a queued request fires a
///   second copy onto another replica after the service's observed
///   `hedge_quantile` latency (its SLO × quantile until enough completions
///   have been observed). Whichever copy is drafted into a batch first
///   wins; the twin is cancelled at that instant, so at most one copy ever
///   executes.
/// * **Load shedding** — an arrival or retry routed to a server whose
///   queue already holds `shed_queue_depth` requests is dropped on the
///   floor (counted, never served). `0` disables.
/// * **Health-checked routing** — the router zero-weights servers whose
///   GPU has recovery work outstanding and re-admits them on
///   `GpuRecovered`, like a health-checked load balancer draining dark
///   replicas toward live ones.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct ResilienceSpec {
    /// Per-attempt queueing timeout, ms (`0` disables timeouts/retries).
    pub timeout_ms: f64,
    /// Retry attempts after the first (`0` = fail fast on timeout).
    pub max_retries: u32,
    /// First retry's backoff delay, ms.
    pub backoff_base_ms: f64,
    /// Backoff growth per attempt (attempt `n` waits `base · mult^(n-1)`).
    pub backoff_multiplier: f64,
    /// Multiplicative backoff jitter fraction in `[0, 1]`: the delay is
    /// scaled by `1 + jitter · U(0, 1)` drawn from the run's seeded RNG.
    pub jitter: f64,
    /// Cluster-wide retry budget, retries/s (`0` = unbudgeted).
    pub retry_budget_rps: f64,
    /// Latency quantile after which a queued request hedges (`0` disables).
    pub hedge_quantile: f64,
    /// Per-server queue depth beyond which new work is shed (`0` disables).
    pub shed_queue_depth: u32,
    /// Drain dark/recovering servers at the router (on by default — the
    /// whole point of a health-checked frontend).
    pub health_checked: bool,
}

impl Default for ResilienceSpec {
    fn default() -> Self {
        Self {
            timeout_ms: 0.0,
            max_retries: 0,
            backoff_base_ms: 25.0,
            backoff_multiplier: 2.0,
            jitter: 0.0,
            retry_budget_rps: 0.0,
            hedge_quantile: 0.0,
            shed_queue_depth: 0,
            health_checked: true,
        }
    }
}

impl ResilienceSpec {
    /// Does this spec change *any* engine behavior? An inert spec — no
    /// timeout, no hedging, no shedding, health checks off — runs the
    /// original code path and is byte-identical to no spec at all.
    /// `health_checked: true` alone is **not** inert: it reroutes traffic
    /// whenever recovery work darkens a server.
    #[must_use]
    pub fn is_inert(&self) -> bool {
        self.timeout_ms <= 0.0
            && self.hedge_quantile <= 0.0
            && self.shed_queue_depth == 0
            && !self.health_checked
    }

    /// Validate every field (finite, in range). Returns a description of
    /// the first violation.
    ///
    /// # Errors
    /// When any field is non-finite or out of its documented range.
    pub fn validate(&self) -> Result<(), String> {
        let finite_nonneg = |name: &str, v: f64| {
            if v.is_finite() && v >= 0.0 {
                Ok(())
            } else {
                Err(format!("resilience.{name} must be finite and >= 0"))
            }
        };
        finite_nonneg("timeout_ms", self.timeout_ms)?;
        finite_nonneg("backoff_base_ms", self.backoff_base_ms)?;
        finite_nonneg("retry_budget_rps", self.retry_budget_rps)?;
        if !self.backoff_multiplier.is_finite() || self.backoff_multiplier < 1.0 {
            return Err("resilience.backoff_multiplier must be finite and >= 1".into());
        }
        if !self.jitter.is_finite() || !(0.0..=1.0).contains(&self.jitter) {
            return Err("resilience.jitter must be in [0, 1]".into());
        }
        if !self.hedge_quantile.is_finite() || !(0.0..1.0).contains(&self.hedge_quantile) {
            return Err("resilience.hedge_quantile must be in [0, 1)".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    #[test]
    fn defaults_are_inert_except_health_checks() {
        let d = ResilienceSpec::default();
        assert!(!d.is_inert(), "health_checked defaults on");
        assert!(ResilienceSpec {
            health_checked: false,
            ..d
        }
        .is_inert());
        d.validate().expect("defaults validate");
    }

    #[test]
    fn round_trips_through_the_value_tree() {
        let spec = ResilienceSpec {
            timeout_ms: 250.0,
            max_retries: 3,
            backoff_base_ms: 10.0,
            backoff_multiplier: 1.5,
            jitter: 0.2,
            retry_budget_rps: 80.0,
            hedge_quantile: 0.95,
            shed_queue_depth: 512,
            health_checked: false,
        };
        let back = ResilienceSpec::from_value(&spec.to_value()).unwrap();
        assert_eq!(spec, back);
    }

    #[test]
    fn partial_map_fills_defaults() {
        let v = Value::Map(vec![
            (String::from("timeout_ms"), Value::Float(100.0)),
            (String::from("max_retries"), Value::Int(2)),
        ]);
        let spec = ResilienceSpec::from_value(&v).unwrap();
        assert_eq!(spec.timeout_ms, 100.0);
        assert_eq!(spec.max_retries, 2);
        assert_eq!(spec.backoff_base_ms, 25.0);
        assert_eq!(spec.backoff_multiplier, 2.0);
        assert!(spec.health_checked);
    }

    #[test]
    fn validation_rejects_out_of_range() {
        let with = |patch: fn(&mut ResilienceSpec)| {
            let mut s = ResilienceSpec::default();
            patch(&mut s);
            s
        };
        assert!(with(|s| s.jitter = 1.5).validate().is_err());
        assert!(with(|s| s.hedge_quantile = 1.0).validate().is_err());
        assert!(with(|s| s.backoff_multiplier = 0.5).validate().is_err());
        assert!(with(|s| s.timeout_ms = f64::NAN).validate().is_err());
    }
}
