//! Geo-aware demand routing at the rate level.
//!
//! The per-request deficit router of `parva-serve` balances traffic
//! *within* a region; this module decides how much of each region's
//! offered demand is served *where*. The policy mirrors production
//! geo-DNS / anycast steering:
//!
//! * a region with a live fleet serves its own demand locally (RTT 0);
//! * demand from an evacuated or failed region spills to surviving
//!   regions, weighted by their capacity and discounted by distance —
//!   a destination twice as far (in RTT) receives proportionally less,
//!   so most spilled traffic lands in the nearest healthy region;
//! * spill is **SLO-feasibility-filtered** per service: a destination
//!   whose RTT would eat more than [`SPILL_MAX_SLO_FRACTION`] of the
//!   service's latency SLO gets no share (no point shipping 205 ms-SLO
//!   traffic over a 210 ms ocean round-trip). When *no* destination is
//!   feasible the filter relaxes to best-effort — degraded service beats
//!   dropped service;
//! * overload excess (a region that can no longer host its routed plan)
//!   re-spills the same way, excluding the overloaded region.
//!
//! Every cross-region flow carries its RTT so the serving simulator can
//! charge it against the SLO (see [`parva_serve::IngressClass`]).

use crate::spec::RttMatrix;
use parva_deploy::Tenant;
use serde::{Deserialize, Serialize};

/// Distance soft-decay constant: a destination `RTT_HALF_MS` away gets
/// half the weight of an equally-sized co-located one.
pub const RTT_HALF_MS: f64 = 100.0;

/// Largest fraction of a service's SLO the spill RTT may consume before
/// the destination is excluded (the rest is queueing + service budget).
pub const SPILL_MAX_SLO_FRACTION: f64 = 0.75;

/// One source region's demand for one service.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Demand {
    /// Service id.
    pub service: u32,
    /// Offered rate, req/s.
    pub rate_rps: f64,
    /// The service's latency SLO, ms (bounds how far it may spill).
    pub slo_ms: f64,
    /// Owning tenant id (`0` = untenanted).
    #[serde(default)]
    pub tenant: u32,
}

/// One routed traffic stream: demand of `service` originating in `src`,
/// served by `dst`'s fleet, with the RTT it pays on the way.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Flow {
    /// Region the demand originates in.
    pub src: usize,
    /// Region whose fleet serves it.
    pub dst: usize,
    /// Service id.
    pub service: u32,
    /// Routed rate, req/s.
    pub rate_rps: f64,
    /// Round-trip time charged to every request of this flow, ms.
    pub rtt_ms: f64,
    /// Owning tenant id (`0` = untenanted), copied from the demand.
    #[serde(default)]
    pub tenant: u32,
}

/// Geo weight of a destination: capacity over softened distance.
fn geo_weight(capacity_weight: f64, rtt_ms: f64) -> f64 {
    capacity_weight / (1.0 + rtt_ms / RTT_HALF_MS)
}

/// Split one source region's demand across destinations.
fn route_source(
    src: usize,
    offered: &[Demand],
    active: &[bool],
    capacity_weight: &[f64],
    rtt: &RttMatrix,
    out: &mut Vec<Flow>,
) {
    if active[src] {
        for d in offered {
            if d.rate_rps > 0.0 {
                out.push(Flow {
                    src,
                    dst: src,
                    service: d.service,
                    rate_rps: d.rate_rps,
                    rtt_ms: 0.0,
                    tenant: d.tenant,
                });
            }
        }
        return;
    }
    let candidates: Vec<usize> = (0..active.len())
        .filter(|&d| active[d] && capacity_weight[d] > 0.0)
        .collect();
    if candidates.is_empty() {
        return; // nowhere to go: the caller accounts this as unrouted
    }
    for demand in offered {
        if demand.rate_rps <= 0.0 {
            continue;
        }
        // SLO-feasible destinations first; best-effort when none is.
        let feasible: Vec<usize> = candidates
            .iter()
            .copied()
            .filter(|&d| rtt.rtt_ms(src, d) <= demand.slo_ms * SPILL_MAX_SLO_FRACTION)
            .collect();
        let pool: &[usize] = if feasible.is_empty() {
            &candidates
        } else {
            &feasible
        };
        let weights: Vec<(usize, f64)> = pool
            .iter()
            .map(|&d| (d, geo_weight(capacity_weight[d], rtt.rtt_ms(src, d))))
            .collect();
        let total: f64 = weights.iter().map(|(_, w)| w).sum();
        if total <= 0.0 {
            continue;
        }
        for &(d, w) in &weights {
            out.push(Flow {
                src,
                dst: d,
                service: demand.service,
                rate_rps: demand.rate_rps * w / total,
                rtt_ms: rtt.rtt_ms(src, d),
                tenant: demand.tenant,
            });
        }
    }
}

/// Allocation floor below which a share is considered exhausted (req/s).
const FAIR_EPS: f64 = 1e-9;

/// The effective fair-share weight of tenant `id` under `tenants`
/// (unknown or untenanted ids weigh `1.0`, like an unconfigured tenant).
fn tenant_weight(tenants: &[Tenant], id: u32) -> f64 {
    parva_deploy::tenant_of(tenants, id).map_or(1.0, Tenant::effective_weight)
}

/// Split one spilling source's demand across destinations **weighted-fair
/// across tenants**: each destination's aggregate absorption stays
/// proportional to its geo weight (capacity over softened distance — the
/// legacy invariant), but destinations fill nearest-first and, inside each
/// destination, tenants share the absorption budget by weighted max-min
/// water-filling on their [`Tenant::effective_weight`]. A heavy tenant
/// therefore lands more of its spill in the nearest (lowest-RTT) healthy
/// region, while a light tenant is pushed toward farther destinations —
/// its share of each destination is *bounded by its weight*, not by how
/// much traffic it happens to offer. Per-service SLO feasibility still
/// gates every allocation; demand feasible nowhere degrades to the legacy
/// best-effort split.
#[allow(clippy::cast_precision_loss)]
fn route_source_fair(
    src: usize,
    offered: &[Demand],
    active: &[bool],
    capacity_weight: &[f64],
    rtt: &RttMatrix,
    tenants: &[Tenant],
    out: &mut Vec<Flow>,
) {
    if active[src] {
        // Local serving is not contended: identical to the legacy path.
        route_source(src, offered, active, capacity_weight, rtt, out);
        return;
    }
    let candidates: Vec<usize> = (0..active.len())
        .filter(|&d| active[d] && capacity_weight[d] > 0.0)
        .collect();
    if candidates.is_empty() {
        return; // nowhere to go: the caller accounts this as unrouted
    }
    let demands: Vec<&Demand> = offered.iter().filter(|d| d.rate_rps > 0.0).collect();
    let total: f64 = demands.iter().map(|d| d.rate_rps).sum();
    if total <= 0.0 {
        return;
    }

    // Destination budgets: the aggregate each destination would absorb
    // under the legacy geo-weighted split, filled nearest-first.
    let mut dests: Vec<(usize, f64, f64)> = candidates
        .iter()
        .map(|&d| {
            let r = rtt.rtt_ms(src, d);
            (d, r, geo_weight(capacity_weight[d], r))
        })
        .collect();
    let weight_sum: f64 = dests.iter().map(|(_, _, w)| w).sum();
    if weight_sum <= 0.0 {
        return;
    }
    dests.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));

    let mut remaining: Vec<f64> = demands.iter().map(|d| d.rate_rps).collect();
    // alloc[i][j] = rate of demand i routed to dests[j].
    let mut alloc = vec![vec![0.0f64; dests.len()]; demands.len()];
    let mut carry = 0.0; // budget a destination could not place rolls onward
    for (j, &(_, rtt_ms, w)) in dests.iter().enumerate() {
        let mut budget = total * w / weight_sum + carry;
        loop {
            // Tenants with SLO-feasible unplaced demand at this destination.
            let mut per_tenant: std::collections::BTreeMap<u32, f64> =
                std::collections::BTreeMap::new();
            for (i, demand) in demands.iter().enumerate() {
                if remaining[i] > FAIR_EPS && rtt_ms <= demand.slo_ms * SPILL_MAX_SLO_FRACTION {
                    *per_tenant.entry(demand.tenant).or_insert(0.0) += remaining[i];
                }
            }
            if per_tenant.is_empty() || budget <= FAIR_EPS {
                break;
            }
            let weight_total: f64 = per_tenant.keys().map(|&t| tenant_weight(tenants, t)).sum();
            let mut placed = 0.0;
            for (&t, &feasible) in &per_tenant {
                let fair = budget * tenant_weight(tenants, t) / weight_total;
                let take = fair.min(feasible);
                if take <= FAIR_EPS {
                    continue;
                }
                // Spread the tenant's grant across its feasible services
                // proportional to their unplaced rates.
                for (i, demand) in demands.iter().enumerate() {
                    if demand.tenant == t
                        && remaining[i] > FAIR_EPS
                        && rtt_ms <= demand.slo_ms * SPILL_MAX_SLO_FRACTION
                    {
                        let part = take * remaining[i] / feasible;
                        alloc[i][j] += part;
                        remaining[i] -= part;
                    }
                }
                placed += take;
            }
            budget -= placed;
            if placed <= FAIR_EPS {
                break; // every feasible tenant is capped: water level reached
            }
        }
        carry = budget.max(0.0);
    }

    // Whatever is still unplaced either outran its feasible destinations'
    // budgets or fits nowhere. Place it geo-weighted over its *feasible*
    // destinations first (budgets are advisory; the SLO filter is not),
    // degrading to the legacy all-candidates best-effort split only when
    // no destination is feasible — degraded service beats dropped service.
    for (i, demand) in demands.iter().enumerate() {
        if remaining[i] <= FAIR_EPS {
            continue;
        }
        let feasible_sum: f64 = dests
            .iter()
            .filter(|&&(_, rtt_ms, _)| rtt_ms <= demand.slo_ms * SPILL_MAX_SLO_FRACTION)
            .map(|&(_, _, w)| w)
            .sum();
        for (j, &(_, rtt_ms, w)) in dests.iter().enumerate() {
            if feasible_sum > 0.0 {
                if rtt_ms <= demand.slo_ms * SPILL_MAX_SLO_FRACTION {
                    alloc[i][j] += remaining[i] * w / feasible_sum;
                }
            } else {
                alloc[i][j] += remaining[i] * w / weight_sum;
            }
        }
        remaining[i] = 0.0;
    }

    for (i, demand) in demands.iter().enumerate() {
        for (j, &(d, rtt_ms, _)) in dests.iter().enumerate() {
            if alloc[i][j] > FAIR_EPS {
                out.push(Flow {
                    src,
                    dst: d,
                    service: demand.service,
                    rate_rps: alloc[i][j],
                    rtt_ms,
                    tenant: demand.tenant,
                });
            }
        }
    }
}

/// Route every region's offered demand (`offered[r]` = region `r`'s
/// per-service [`Demand`] rows) across the federation.
///
/// `active[r]` marks regions with a live fleet; `capacity_weight[r]` is a
/// relative size proxy (e.g. alive GPU count). Demand of an inactive
/// region that finds no active destination is silently dropped — the
/// caller compares routed vs. offered totals to account it.
#[must_use]
pub fn route_demand(
    offered: &[Vec<Demand>],
    active: &[bool],
    capacity_weight: &[f64],
    rtt: &RttMatrix,
) -> Vec<Flow> {
    let mut out = Vec::new();
    for (src, o) in offered.iter().enumerate() {
        route_source(src, o, active, capacity_weight, rtt, &mut out);
    }
    out
}

/// [`route_demand`] with tenant-weighted-fair spill: when `tenants` is
/// non-empty, each evacuated source's spill is apportioned by
/// `route_source_fair` (nearest-destination budgets shared across
/// tenants by fair-share weight); when `tenants` is empty this is exactly
/// [`route_demand`].
#[must_use]
pub fn route_demand_fair(
    offered: &[Vec<Demand>],
    active: &[bool],
    capacity_weight: &[f64],
    rtt: &RttMatrix,
    tenants: &[Tenant],
) -> Vec<Flow> {
    if tenants.is_empty() {
        return route_demand(offered, active, capacity_weight, rtt);
    }
    let mut out = Vec::new();
    for (src, o) in offered.iter().enumerate() {
        route_source_fair(src, o, active, capacity_weight, rtt, tenants, &mut out);
    }
    out
}

/// Route `demand` away from its true origin `src` across the regions
/// marked active in `mask` (with `src` treated as unavailable even if
/// the mask says otherwise). The per-service SLO filter and the RTT
/// carried by each flow are evaluated from `src`'s own RTT row, so
/// rerouted traffic is never undercharged for the distance its users
/// actually pay.
#[must_use]
pub fn route_from(
    src: usize,
    demand: &[Demand],
    mask: &[bool],
    capacity_weight: &[f64],
    rtt: &RttMatrix,
) -> Vec<Flow> {
    let mut mask = mask.to_vec();
    mask[src] = false;
    let mut out = Vec::new();
    route_source(src, demand, &mask, capacity_weight, rtt, &mut out);
    out
}

/// [`route_from`] with tenant-weighted-fair spill (see
/// [`route_demand_fair`]); empty `tenants` is exactly [`route_from`].
#[must_use]
pub fn route_from_fair(
    src: usize,
    demand: &[Demand],
    mask: &[bool],
    capacity_weight: &[f64],
    rtt: &RttMatrix,
    tenants: &[Tenant],
) -> Vec<Flow> {
    if tenants.is_empty() {
        return route_from(src, demand, mask, capacity_weight, rtt);
    }
    let mut mask = mask.to_vec();
    mask[src] = false;
    let mut out = Vec::new();
    route_source_fair(src, demand, &mask, capacity_weight, rtt, tenants, &mut out);
    out
}

/// Re-spill overload excess out of region `over`: the per-service excess
/// demand is split across the *other* active regions by the same rules,
/// sourced at `over` (its RTT row prices the detour). For excess whose
/// true origin is a third region, use [`route_from`] with that origin
/// instead, so the RTT charge follows the users rather than the
/// overloaded middlebox.
#[must_use]
pub fn spill_excess(
    over: usize,
    excess: &[Demand],
    active: &[bool],
    capacity_weight: &[f64],
    rtt: &RttMatrix,
) -> Vec<Flow> {
    route_from(over, excess, active, capacity_weight, rtt)
}

/// Sum the flows routed into `dst`, per service id (ascending).
#[must_use]
pub fn inbound(flows: &[Flow], dst: usize) -> Vec<(u32, f64)> {
    let mut per: std::collections::BTreeMap<u32, f64> = std::collections::BTreeMap::new();
    for f in flows.iter().filter(|f| f.dst == dst) {
        *per.entry(f.service).or_insert(0.0) += f.rate_rps;
    }
    per.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rtt3() -> RttMatrix {
        RttMatrix::from_upper(3, &[80.0, 210.0, 140.0])
    }

    fn demand(service: u32, rate_rps: f64, slo_ms: f64) -> Demand {
        Demand {
            service,
            rate_rps,
            slo_ms,
            tenant: 0,
        }
    }

    fn tenant_demand(service: u32, rate_rps: f64, slo_ms: f64, tenant: u32) -> Demand {
        Demand {
            service,
            rate_rps,
            slo_ms,
            tenant,
        }
    }

    fn offered3() -> Vec<Vec<Demand>> {
        vec![
            vec![demand(0, 500.0, 400.0), demand(1, 300.0, 400.0)],
            vec![demand(0, 300.0, 400.0), demand(1, 180.0, 400.0)],
            vec![demand(0, 200.0, 400.0), demand(1, 120.0, 400.0)],
        ]
    }

    #[test]
    fn active_regions_serve_locally() {
        let flows = route_demand(&offered3(), &[true; 3], &[32.0, 24.0, 24.0], &rtt3());
        assert!(flows.iter().all(|f| f.src == f.dst && f.rtt_ms == 0.0));
        let total: f64 = flows.iter().map(|f| f.rate_rps).sum();
        assert!((total - 1600.0).abs() < 1e-9);
    }

    #[test]
    fn evacuated_demand_spills_nearest_heavy() {
        // Region 0 down; its demand splits over 1 (80 ms) and 2 (210 ms).
        let flows = route_demand(
            &offered3(),
            &[false, true, true],
            &[32.0, 24.0, 24.0],
            &rtt3(),
        );
        let spilled: Vec<&Flow> = flows.iter().filter(|f| f.src == 0).collect();
        assert!(spilled.iter().all(|f| f.dst != 0));
        assert!(spilled.iter().all(|f| f.rtt_ms > 0.0));
        // Conservation per service.
        let s0: f64 = spilled
            .iter()
            .filter(|f| f.service == 0)
            .map(|f| f.rate_rps)
            .sum();
        assert!((s0 - 500.0).abs() < 1e-9);
        // Geo-awareness: equal capacity ⇒ the nearer region takes more.
        let to_1: f64 = spilled
            .iter()
            .filter(|f| f.dst == 1)
            .map(|f| f.rate_rps)
            .sum();
        let to_2: f64 = spilled
            .iter()
            .filter(|f| f.dst == 2)
            .map(|f| f.rate_rps)
            .sum();
        assert!(
            to_1 > to_2,
            "nearer region got {to_1:.0} vs farther {to_2:.0}"
        );
        // And the RTT carried matches the matrix.
        for f in &spilled {
            assert_eq!(f.rtt_ms, rtt3().rtt_ms(0, f.dst));
        }
    }

    #[test]
    fn slo_infeasible_destinations_get_nothing() {
        // A 205 ms SLO cannot absorb a 210 ms RTT (nor 0.75·205 = 154):
        // everything must go to the 80 ms region. The 400 ms SLO service
        // may use both.
        let offered = vec![
            vec![demand(0, 400.0, 205.0), demand(1, 200.0, 400.0)],
            vec![],
            vec![],
        ];
        let flows = route_demand(&offered, &[false, true, true], &[10.0, 10.0, 10.0], &rtt3());
        let tight_to_far: f64 = flows
            .iter()
            .filter(|f| f.service == 0 && f.dst == 2)
            .map(|f| f.rate_rps)
            .sum();
        assert_eq!(tight_to_far, 0.0, "205 ms SLO crossed a 210 ms RTT");
        let tight_near: f64 = flows
            .iter()
            .filter(|f| f.service == 0 && f.dst == 1)
            .map(|f| f.rate_rps)
            .sum();
        assert!((tight_near - 400.0).abs() < 1e-9);
        let loose_to_far: f64 = flows
            .iter()
            .filter(|f| f.service == 1 && f.dst == 2)
            .map(|f| f.rate_rps)
            .sum();
        assert!(loose_to_far > 0.0, "400 ms SLO may use the far region");
    }

    #[test]
    fn no_feasible_destination_degrades_to_best_effort() {
        // A 50 ms SLO fits nowhere; the demand must still be served (and
        // will violate) rather than dropped.
        let offered = vec![vec![demand(0, 100.0, 50.0)], vec![], vec![]];
        let flows = route_demand(&offered, &[false, true, true], &[10.0, 10.0, 10.0], &rtt3());
        let total: f64 = flows.iter().map(|f| f.rate_rps).sum();
        assert!((total - 100.0).abs() < 1e-9);
    }

    #[test]
    fn spill_weights_follow_capacity() {
        // Same distance, 3× capacity ⇒ 3× share.
        let rtt = RttMatrix::from_upper(3, &[100.0, 100.0, 50.0]);
        let offered = vec![vec![demand(0, 400.0, 1000.0)], vec![], vec![]];
        let flows = route_demand(&offered, &[false, true, true], &[0.0, 30.0, 10.0], &rtt);
        let to_1: f64 = flows
            .iter()
            .filter(|f| f.dst == 1)
            .map(|f| f.rate_rps)
            .sum();
        let to_2: f64 = flows
            .iter()
            .filter(|f| f.dst == 2)
            .map(|f| f.rate_rps)
            .sum();
        assert!((to_1 / to_2 - 3.0).abs() < 1e-9);
    }

    #[test]
    fn no_active_region_drops_demand() {
        let flows = route_demand(&offered3(), &[false; 3], &[1.0; 3], &rtt3());
        assert!(flows.is_empty());
    }

    #[test]
    fn route_from_prices_rtt_from_the_true_origin() {
        // Traffic originating at region 0 is rerouted away from an
        // overloaded region 1: the flows must carry region 0's RTTs (not
        // region 1's) and respect region 0's SLO feasibility — a 205 ms
        // SLO cannot land in region 2 (210 ms from its users) even though
        // region 2 is only 140 ms from the overloaded middlebox.
        let flows = route_from(
            0,
            &[demand(0, 100.0, 205.0), demand(1, 100.0, 400.0)],
            &[true, false, true],
            &[10.0, 10.0, 10.0],
            &rtt3(),
        );
        for f in &flows {
            assert_eq!(f.src, 0);
            assert_ne!(f.dst, 0, "route_from must route away from src");
            assert_eq!(f.rtt_ms, rtt3().rtt_ms(0, f.dst));
        }
        // The tight-SLO service found no feasible destination (region 1
        // masked out, region 2 infeasible) and degraded to best-effort on
        // region 2 — but still priced at its true 210 ms.
        let tight: Vec<&Flow> = flows.iter().filter(|f| f.service == 0).collect();
        assert!(tight.iter().all(|f| f.dst == 2 && f.rtt_ms == 210.0));
    }

    #[test]
    fn excess_respill_excludes_the_overloaded_region() {
        let flows = spill_excess(
            1,
            &[demand(0, 90.0, 1000.0)],
            &[true, true, true],
            &[32.0, 24.0, 24.0],
            &rtt3(),
        );
        assert!(!flows.is_empty());
        assert!(flows.iter().all(|f| f.dst != 1 && f.src == 1));
        let total: f64 = flows.iter().map(|f| f.rate_rps).sum();
        assert!((total - 90.0).abs() < 1e-9);
    }

    #[test]
    fn inbound_aggregates_per_service() {
        let flows = route_demand(
            &offered3(),
            &[false, true, true],
            &[32.0, 24.0, 24.0],
            &rtt3(),
        );
        let into_1 = inbound(&flows, 1);
        assert_eq!(into_1.len(), 2);
        // Local 300 + a share of the 500 spilled.
        assert!(into_1[0].1 > 300.0);
        let all: f64 = (0..3)
            .flat_map(|d| inbound(&flows, d))
            .map(|(_, r)| r)
            .sum();
        assert!((all - 1600.0).abs() < 1e-9);
    }

    fn two_tenants(heavy: f64, light: f64) -> Vec<Tenant> {
        vec![
            Tenant::new(1, "heavy").with_weight(heavy),
            Tenant::new(2, "light").with_weight(light),
        ]
    }

    #[test]
    fn fair_routing_without_tenants_matches_legacy() {
        let flows = route_demand(
            &offered3(),
            &[false, true, true],
            &[32.0, 24.0, 24.0],
            &rtt3(),
        );
        let fair = route_demand_fair(
            &offered3(),
            &[false, true, true],
            &[32.0, 24.0, 24.0],
            &rtt3(),
            &[],
        );
        assert_eq!(flows, fair, "empty tenant set must not change routing");
    }

    #[test]
    fn fair_split_conserves_per_tenant_and_per_destination() {
        // Two tenants spill from region 0. Aggregate absorption per
        // destination must match the legacy geo-weight proportions, and
        // every tenant's demand must be fully routed.
        let offered = vec![
            vec![
                tenant_demand(0, 300.0, 1000.0, 1),
                tenant_demand(1, 300.0, 1000.0, 2),
            ],
            vec![],
            vec![],
        ];
        let weights = [0.0, 24.0, 24.0];
        let flows = route_demand_fair(
            &offered,
            &[false, true, true],
            &weights,
            &rtt3(),
            &two_tenants(3.0, 1.0),
        );
        for t in [1u32, 2u32] {
            let routed: f64 = flows
                .iter()
                .filter(|f| f.tenant == t)
                .map(|f| f.rate_rps)
                .sum();
            assert!((routed - 300.0).abs() < 1e-6, "tenant {t} lost traffic");
        }
        // Aggregate per destination follows geo weight (80 ms vs 210 ms).
        let w1 = geo_weight(24.0, 80.0);
        let w2 = geo_weight(24.0, 210.0);
        let to_1: f64 = flows
            .iter()
            .filter(|f| f.dst == 1)
            .map(|f| f.rate_rps)
            .sum();
        let to_2: f64 = flows
            .iter()
            .filter(|f| f.dst == 2)
            .map(|f| f.rate_rps)
            .sum();
        assert!((to_1 / to_2 - w1 / w2).abs() < 1e-6, "{to_1} vs {to_2}");
    }

    #[test]
    fn heavier_tenant_takes_the_nearer_destination() {
        // Equal offered rates, weight 3 vs 1: the heavy tenant's share of
        // the nearest destination's budget is 3× the light tenant's.
        let offered = vec![
            vec![
                tenant_demand(0, 300.0, 1000.0, 1),
                tenant_demand(1, 300.0, 1000.0, 2),
            ],
            vec![],
            vec![],
        ];
        let flows = route_demand_fair(
            &offered,
            &[false, true, true],
            &[0.0, 24.0, 24.0],
            &rtt3(),
            &two_tenants(3.0, 1.0),
        );
        let near = |t: u32| -> f64 {
            flows
                .iter()
                .filter(|f| f.dst == 1 && f.tenant == t)
                .map(|f| f.rate_rps)
                .sum()
        };
        // The nearest destination's budget is under the heavy tenant's
        // full demand, so the 3:1 fair shares bind exactly.
        assert!(
            (near(1) / near(2) - 3.0).abs() < 1e-6,
            "heavy {:.1} vs light {:.1}",
            near(1),
            near(2)
        );
        // And the light tenant's displaced traffic lands farther out, not
        // nowhere: conservation still holds.
        let light_total: f64 = flows
            .iter()
            .filter(|f| f.tenant == 2)
            .map(|f| f.rate_rps)
            .sum();
        assert!((light_total - 300.0).abs() < 1e-6);
    }

    #[test]
    fn fair_split_respects_slo_feasibility() {
        // The heavy tenant's 205 ms SLO cannot cross the 210 ms ocean: its
        // whole demand must land in the 80 ms region regardless of budget,
        // pushing the light (loose-SLO) tenant's spill outward.
        let offered = vec![
            vec![
                tenant_demand(0, 200.0, 205.0, 1),
                tenant_demand(1, 200.0, 400.0, 2),
            ],
            vec![],
            vec![],
        ];
        let flows = route_demand_fair(
            &offered,
            &[false, true, true],
            &[0.0, 10.0, 10.0],
            &rtt3(),
            &two_tenants(1.0, 1.0),
        );
        let tight_far: f64 = flows
            .iter()
            .filter(|f| f.tenant == 1 && f.dst == 2)
            .map(|f| f.rate_rps)
            .sum();
        assert_eq!(tight_far, 0.0, "205 ms SLO crossed a 210 ms RTT");
        let tight_near: f64 = flows
            .iter()
            .filter(|f| f.tenant == 1 && f.dst == 1)
            .map(|f| f.rate_rps)
            .sum();
        assert!((tight_near - 200.0).abs() < 1e-6);
        let total: f64 = flows.iter().map(|f| f.rate_rps).sum();
        assert!(
            (total - 400.0).abs() < 1e-6,
            "conservation under the filter"
        );
    }

    #[test]
    fn fair_split_degrades_to_best_effort_when_nothing_fits() {
        // A 50 ms SLO fits nowhere; the fair router must still place it
        // (legacy best-effort) rather than drop it.
        let offered = vec![vec![tenant_demand(0, 100.0, 50.0, 1)], vec![], vec![]];
        let flows = route_demand_fair(
            &offered,
            &[false, true, true],
            &[10.0, 10.0, 10.0],
            &rtt3(),
            &two_tenants(2.0, 1.0),
        );
        let total: f64 = flows.iter().map(|f| f.rate_rps).sum();
        assert!((total - 100.0).abs() < 1e-9);
    }

    #[test]
    fn route_from_fair_masks_the_source() {
        let flows = route_from_fair(
            1,
            &[tenant_demand(0, 90.0, 1000.0, 1)],
            &[true, true, true],
            &[32.0, 24.0, 24.0],
            &rtt3(),
            &two_tenants(1.0, 1.0),
        );
        assert!(!flows.is_empty());
        assert!(flows
            .iter()
            .all(|f| f.dst != 1 && f.src == 1 && f.tenant == 1));
        let total: f64 = flows.iter().map(|f| f.rate_rps).sum();
        assert!((total - 90.0).abs() < 1e-9);
    }
}
