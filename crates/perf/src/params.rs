//! Per-model calibration parameters of the batch-cycle performance model.
//!
//! The values are synthetic but anchored: InceptionV3 reproduces the paper's
//! quoted §III-B throughput/latency points, and the remaining models are
//! scaled by their relative cost so the Table IV scenarios produce GPU
//! fleets of the same order as the paper's Figure 5.

use crate::model::Model;
use serde::{Deserialize, Serialize};

/// CUDA context overhead per MPS process, GiB (driver + allocator pools).
pub const CTX_GIB_PER_PROCESS: f64 = 0.3;

/// MPS kernel-overlap efficiency factor η (paper-observed slight super-unity
/// packing when homogeneous kernels share an instance).
pub const ETA: f64 = 0.90;

/// Calibration parameters of one workload (all times in milliseconds).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PerfParams {
    /// Fixed compute per batch (kernel-count dominated), divided by GPCs.
    pub c0: f64,
    /// Compute per sample, divided by GPCs.
    pub c1: f64,
    /// Non-parallelizable compute per batch (Amdahl tail), GPC-independent.
    pub serial: f64,
    /// Fixed non-SM overhead per batch (host work, launches).
    pub o0: f64,
    /// Per-sample non-SM overhead (H2D/D2H transfer).
    pub o1: f64,
    /// Model weights in GiB (fp16/fp32 mix as served).
    pub weights_gib: f64,
    /// Activation/workspace memory per in-flight sample, GiB.
    pub act_gib_per_sample: f64,
}

impl PerfParams {
    /// Calibrated parameters for a built-in model.
    #[must_use]
    pub const fn for_model(model: Model) -> PerfParams {
        // (c0, c1, serial, o0, o1, weights, act/sample)
        let (c0, c1, serial, o0, o1, w, a) = match model {
            Model::BertLarge => (15.0, 30.0, 2.0, 0.5, 0.30, 1.40, 0.20),
            Model::DenseNet121 => (2.6, 2.40, 0.5, 0.2, 0.10, 0.04, 0.09),
            Model::DenseNet169 => (3.4, 3.10, 0.6, 0.2, 0.11, 0.06, 0.11),
            Model::DenseNet201 => (4.2, 3.80, 0.7, 0.2, 0.12, 0.08, 0.13),
            Model::InceptionV3 => (2.0, 1.85, 0.6, 0.2, 0.55, 0.11, 0.10),
            Model::MobileNetV2 => (0.9, 0.80, 0.2, 0.2, 0.05, 0.02, 0.06),
            Model::ResNet101 => (3.3, 3.10, 0.6, 0.2, 0.10, 0.18, 0.11),
            Model::ResNet152 => (4.8, 4.40, 0.8, 0.2, 0.12, 0.24, 0.13),
            Model::ResNet50 => (1.9, 1.70, 0.4, 0.2, 0.09, 0.10, 0.09),
            Model::Vgg16 => (3.9, 4.10, 0.5, 0.2, 0.12, 0.55, 0.12),
            Model::Vgg19 => (4.5, 4.80, 0.5, 0.2, 0.13, 0.57, 0.13),
            // §V LLM workloads: one request = one bounded-length generation.
            // Weight memory is the paper's quoted figure (7 / 5 / 41 GB);
            // compute scales with parameter count, and the KV-cache makes
            // the per-sample activation footprint an order of magnitude
            // larger than the CNNs'.
            Model::LlamaLite7B => (110.0, 55.0, 5.0, 1.0, 0.40, 7.0, 0.50),
            Model::Guanaco7B => (130.0, 65.0, 6.0, 1.0, 0.40, 5.0, 0.50),
            Model::Guanaco65B => (850.0, 420.0, 30.0, 2.0, 0.80, 41.0, 1.50),
        };
        PerfParams {
            c0,
            c1,
            serial,
            o0,
            o1,
            weights_gib: w,
            act_gib_per_sample: a,
        }
    }

    /// Relative memory-bandwidth intensity in `[0, 1]`: GiB moved per ms of
    /// compute per sample, normalized. Drives the heterogeneous-MPS
    /// interference coefficients (models that stream more data per unit of
    /// compute contend harder for L2/DRAM, paper §II-A).
    #[must_use]
    pub fn memory_intensity(&self) -> f64 {
        let ratio = self.act_gib_per_sample / self.c1; // GiB per compute-ms
        (ratio / 0.075).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_models_have_positive_params() {
        for m in Model::ALL {
            let p = PerfParams::for_model(m);
            assert!(p.c0 > 0.0 && p.c1 > 0.0 && p.serial >= 0.0, "{m}");
            assert!(p.o0 >= 0.0 && p.o1 >= 0.0, "{m}");
            assert!(p.weights_gib > 0.0 && p.act_gib_per_sample > 0.0, "{m}");
        }
    }

    #[test]
    fn bert_is_the_heaviest() {
        let bert = PerfParams::for_model(Model::BertLarge);
        for m in Model::ALL {
            if m != Model::BertLarge {
                assert!(PerfParams::for_model(m).c1 < bert.c1, "{m}");
            }
        }
    }

    #[test]
    fn mobilenet_is_the_lightest() {
        let mnv2 = PerfParams::for_model(Model::MobileNetV2);
        for m in Model::ALL {
            if m != Model::MobileNetV2 {
                assert!(PerfParams::for_model(m).c1 > mnv2.c1, "{m}");
            }
        }
    }

    #[test]
    fn weights_track_parameter_counts() {
        // Weight memory must be ordered consistently with Table IV parameter
        // counts within each family.
        let w = |m: Model| PerfParams::for_model(m).weights_gib;
        assert!(w(Model::Vgg19) > w(Model::Vgg16));
        assert!(w(Model::ResNet152) > w(Model::ResNet101));
        assert!(w(Model::ResNet101) > w(Model::ResNet50));
        assert!(w(Model::DenseNet201) > w(Model::DenseNet169));
        assert!(w(Model::DenseNet169) > w(Model::DenseNet121));
        assert!(w(Model::BertLarge) > w(Model::Vgg19));
    }

    #[test]
    fn memory_intensity_in_unit_range() {
        for m in Model::ALL {
            let mi = PerfParams::for_model(m).memory_intensity();
            assert!((0.0..=1.0).contains(&mi), "{m}: {mi}");
        }
    }

    #[test]
    fn densenets_more_memory_intense_than_vggs() {
        // DenseNets are famously bandwidth-bound; VGG is compute-bound.
        let mi = |m: Model| PerfParams::for_model(m).memory_intensity();
        assert!(mi(Model::DenseNet121) > mi(Model::Vgg16));
    }
}
