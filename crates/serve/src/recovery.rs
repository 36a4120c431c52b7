//! Recovery work lowered into the serving DES.
//!
//! A fleet recovery (node failure, spot preemption, planned evacuation) is
//! not instantaneous: the control plane reacts, target GPUs re-flash their
//! MIG layout (serialized per node by the NVML driver), and migrated
//! segments reload weights over the target node's PCIe link (one copy
//! stream at full bandwidth; concurrent copies queue). While a GPU's
//! recovery is outstanding, its servers are **dark**: requests routed to
//! them queue but no batch launches, so the disruption-window compliance
//! dip is *measured* against live traffic instead of assumed.
//!
//! [`RecoverySpec`] is the lowered form a fleet-level migration plan hands
//! to [`Simulation::recovery`](crate::Simulation::recovery): one
//! [`RecoveryOp`] per affected physical GPU, carrying the hosting node (the
//! contention domain), whether the GPU re-flashes, how many GiB of weights
//! it receives, and which logical GPU of the recovered deployment it hosts.
//! Ops that were **prepared** ahead of the capacity loss — §III-F shadow
//! pre-copy on a spot two-minute warning, or cross-region pre-copy on an
//! evacuation notice — skip their re-flash and copy entirely; only the
//! control-plane delay remains.

use serde::{Deserialize, Serialize};

/// Recovery work for one physical GPU of the recovered deployment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecoveryOp {
    /// Physical node hosting the GPU — the re-flash serialization and PCIe
    /// contention domain.
    pub node: usize,
    /// Logical GPU (of the *recovered* deployment) living on this physical
    /// GPU; `None` for vacated GPUs that re-flash to empty (they host no
    /// servers but still occupy the node's re-flash lock).
    pub logical_gpu: Option<usize>,
    /// Whether the GPU's MIG layout changes (destroy + create instances).
    pub reflash: bool,
    /// Model weights copied onto this GPU, GiB.
    pub copy_gib: f64,
    /// Work already done before the capacity loss (predictive pre-copy +
    /// pre-flash): the op costs nothing but the control-plane delay.
    pub prepared: bool,
}

/// A migration plan lowered to DES recovery events.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecoverySpec {
    /// Sim time at which the capacity loss hits and recovery begins,
    /// milliseconds from simulation start (typically the measurement-window
    /// start, so the dip lands inside the window).
    pub start_ms: f64,
    /// Scheduler + control-plane reaction delay before any physical work
    /// starts, ms.
    pub control_plane_ms: f64,
    /// One MIG re-flash (destroy + create instances via NVML), ms.
    /// Re-flashes on the same node serialize.
    pub reflash_ms: f64,
    /// Host-to-device weight-copy bandwidth of one node's PCIe link, GiB/s.
    /// Concurrent copies to the same node queue FIFO.
    pub link_gib_per_s: f64,
    /// Per-GPU recovery work, deterministic order.
    pub ops: Vec<RecoveryOp>,
}

impl RecoverySpec {
    /// Is there any work to simulate?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Total weights still to copy (unprepared ops), GiB.
    #[must_use]
    pub fn pending_copy_gib(&self) -> f64 {
        self.ops
            .iter()
            .filter(|o| !o.prepared)
            .map(|o| o.copy_gib)
            .sum()
    }

    /// Total weights already staged by predictive pre-copy, GiB.
    #[must_use]
    pub fn prepared_gib(&self) -> f64 {
        self.ops
            .iter()
            .filter(|o| o.prepared)
            .map(|o| o.copy_gib)
            .sum()
    }

    /// Mark every op prepared (weights pre-copied, targets pre-flashed) —
    /// what a honored two-minute warning or evacuation notice buys.
    #[must_use]
    pub fn prepared(mut self) -> Self {
        for op in &mut self.ops {
            op.prepared = true;
        }
        self
    }
}

/// What the DES measured about one recovery.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecoverySimReport {
    /// Recovery start, ms from simulation start.
    pub started_ms: f64,
    /// Simulated end-to-end recovery latency: control plane + contended
    /// re-flash waves + queued weight copies, ms. Zero when the spec had
    /// no ops.
    pub latency_ms: f64,
    /// Servers that were dark at recovery start.
    pub dark_servers: usize,
    /// GPU re-flashes actually performed (prepared ops skip theirs).
    pub reflashes_done: usize,
    /// Weights copied during the window, GiB (prepared ops skip theirs).
    pub copied_gib: f64,
    /// Weights that had been staged ahead of the loss, GiB.
    pub precopied_gib: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> RecoverySpec {
        RecoverySpec {
            start_ms: 0.0,
            control_plane_ms: 150.0,
            reflash_ms: 800.0,
            link_gib_per_s: 22.0,
            ops: vec![
                RecoveryOp {
                    node: 0,
                    logical_gpu: Some(1),
                    reflash: true,
                    copy_gib: 2.0,
                    prepared: false,
                },
                RecoveryOp {
                    node: 0,
                    logical_gpu: None,
                    reflash: true,
                    copy_gib: 0.0,
                    prepared: false,
                },
            ],
        }
    }

    #[test]
    fn prepared_zeroes_pending_work() {
        let s = spec();
        assert!((s.pending_copy_gib() - 2.0).abs() < 1e-12);
        assert_eq!(s.prepared_gib(), 0.0);
        let p = s.prepared();
        assert_eq!(p.pending_copy_gib(), 0.0);
        assert!((p.prepared_gib() - 2.0).abs() < 1e-12);
        assert!(!p.is_empty());
    }
}
