//! Node-level repacking and mixed-pricing cost of the recovered fleet.
//!
//! After every recovery the orchestrator re-derives the node-granularity
//! view the paper's cost argument lives at (§I, §IV-B1): which nodes are in
//! service, their GPU/vCPU occupancy (via `parva_cluster`'s `PackedNode`
//! building blocks and per-process vCPU accounting), what the surviving
//! mixed-pricing fleet costs per hour, and what an idealized homogeneous
//! re-pack ([`parva_cluster::pack()`]) of the same logical deployment would
//! rent — the consolidation headroom left on the table.

use crate::node::Fleet;
use crate::placer::FleetPlacement;
use parva_cluster::{pack, NodeType, PackedNode, VCPUS_PER_PROCESS};
use parva_deploy::{Deployment, MigDeployment};
use serde::{Deserialize, Serialize};

/// One in-service node's occupancy after a recovery.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeUsage {
    /// The node id.
    pub node: usize,
    /// Occupancy in `parva_cluster` terms (logical GPU indices + vCPUs).
    pub packed: PackedNode,
    /// Hourly price under the node's own pricing plan, USD.
    pub usd_per_hour: f64,
}

/// The node-granularity view of a placed deployment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetPacking {
    /// In-service nodes, id order.
    pub nodes: Vec<NodeUsage>,
    /// GPUs rented on in-service nodes but hosting nothing.
    pub idle_gpus: usize,
    /// Total hourly cost of the in-service nodes, USD (mixed pricing).
    pub usd_per_hour: f64,
    /// Node count an idealized homogeneous re-pack of the same logical
    /// deployment onto p4de nodes would need (consolidation reference).
    pub homogeneous_repack_nodes: usize,
}

impl FleetPacking {
    /// Derive the node view of `(deployment, placement)` on `fleet`, at
    /// the reference region's prices.
    #[must_use]
    pub fn derive(deployment: &MigDeployment, placement: &FleetPlacement, fleet: &Fleet) -> Self {
        Self::derive_in_region(deployment, placement, fleet, 1.0)
    }

    /// Like [`FleetPacking::derive`], with every node hour priced through
    /// the hosting region's price index (see
    /// [`parva_cluster::PricingPlan::node_usd_per_hour_in_region`]).
    #[must_use]
    pub fn derive_in_region(
        deployment: &MigDeployment,
        placement: &FleetPlacement,
        fleet: &Fleet,
        region_multiplier: f64,
    ) -> Self {
        Self::derive_priced(deployment, placement, fleet, region_multiplier, None)
    }

    /// Like [`FleetPacking::derive_in_region`], with an optional spot-market
    /// discount override: when `Some`, spot-priced node hours rent at
    /// `on-demand × discount` instead of the built-in spot multiplier (see
    /// [`parva_cluster::PricingPlan::node_usd_per_hour_in_region_with`]).
    /// `None` reproduces the legacy prices bit-exactly.
    #[must_use]
    pub fn derive_priced(
        deployment: &MigDeployment,
        placement: &FleetPlacement,
        fleet: &Fleet,
        region_multiplier: f64,
        spot_discount: Option<f64>,
    ) -> Self {
        let mut nodes: Vec<NodeUsage> = Vec::new();
        for id in placement.nodes_in_service() {
            let gpu_indices: Vec<usize> = placement
                .slots
                .iter()
                .filter(|(_, s)| s.node == id)
                .map(|(logical, _)| *logical)
                .collect();
            let vcpus_used: u32 = gpu_indices
                .iter()
                .flat_map(|&logical| deployment.segments_on(logical))
                .map(|ps| ps.segment.triplet.procs)
                .sum::<u32>()
                * VCPUS_PER_PROCESS;
            let node = fleet.node(id);
            nodes.push(NodeUsage {
                node: id,
                packed: PackedNode {
                    gpu_indices,
                    vcpus_used,
                },
                usd_per_hour: node.pricing.node_usd_per_hour_in_region_with(
                    node.node,
                    region_multiplier,
                    spot_discount,
                ),
            });
        }
        let rented: usize = nodes
            .iter()
            .map(|n| usize::from(fleet.node(n.node).node.gpus))
            .sum();
        let used: usize = nodes.iter().map(|n| n.packed.gpu_indices.len()).sum();
        let usd_per_hour = nodes.iter().map(|n| n.usd_per_hour).sum();
        let homogeneous_repack_nodes = pack(
            &Deployment::Mig(deployment.clone()),
            NodeType::P4DE_24XLARGE,
        )
        .node_count();
        Self {
            nodes,
            idle_gpus: rented - used,
            usd_per_hour,
            homogeneous_repack_nodes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::FleetSpec;
    use crate::placer::place_on_fleet;
    use parva_deploy::Segment;
    use parva_mig::InstanceProfile;
    use parva_perf::Model;
    use parva_profile::Triplet;

    #[test]
    fn packing_accounts_vcpus_and_dollars() {
        let fleet = Fleet::provision(&FleetSpec::mixed_demo(1));
        let mut d = MigDeployment::new();
        for i in 0..3 {
            d.place_first_fit(Segment {
                service_id: i,
                model: Model::ResNet50,
                triplet: Triplet::new(InstanceProfile::G7, 8, 3),
                throughput_rps: 1000.0,
                latency_ms: 10.0,
            });
        }
        let p = place_on_fleet(&d, &fleet).unwrap();
        let packing = FleetPacking::derive(&d, &p, &fleet);
        let total_gpus: usize = packing
            .nodes
            .iter()
            .map(|n| n.packed.gpu_indices.len())
            .sum();
        assert_eq!(total_gpus, 3);
        let total_vcpus: u32 = packing.nodes.iter().map(|n| n.packed.vcpus_used).sum();
        assert_eq!(total_vcpus, 3 * 3 * VCPUS_PER_PROCESS);
        assert!(packing.usd_per_hour > 0.0);
        assert_eq!(packing.homogeneous_repack_nodes, 1);
        // Mixed pricing: the reserved p4de hour is cheaper than on-demand.
        for n in &packing.nodes {
            let node = fleet.node(n.node);
            assert!(n.usd_per_hour <= node.node.on_demand_usd_per_hour + 1e-9);
        }
    }

    #[test]
    fn spot_discount_reprices_only_spot_nodes() {
        let fleet = Fleet::provision(&FleetSpec::mixed_demo(2));
        let mut d = MigDeployment::new();
        for i in 0..8 {
            d.place_first_fit(Segment {
                service_id: i,
                model: Model::ResNet50,
                triplet: Triplet::new(InstanceProfile::G7, 8, 3),
                throughput_rps: 1000.0,
                latency_ms: 10.0,
            });
        }
        let p = place_on_fleet(&d, &fleet).unwrap();
        let base = FleetPacking::derive(&d, &p, &fleet);
        let none = FleetPacking::derive_priced(&d, &p, &fleet, 1.0, None);
        assert_eq!(base, none, "None discount must reproduce legacy prices");
        let deep = FleetPacking::derive_priced(&d, &p, &fleet, 1.0, Some(0.1));
        for (a, b) in base.nodes.iter().zip(&deep.nodes) {
            let node = fleet.node(a.node);
            if matches!(node.pricing, parva_cluster::PricingPlan::Spot) {
                assert!(b.usd_per_hour < a.usd_per_hour);
            } else {
                assert_eq!(a.usd_per_hour, b.usd_per_hour);
            }
        }
    }
}
