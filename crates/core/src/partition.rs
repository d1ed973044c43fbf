//! Step 1 — HW/SW partitioning (§IV): enumerate the tensorize choices of
//! every workload against the candidate intrinsics.

use tensor_ir::intrinsics::{self, IntrinsicKind};
use tensor_ir::matching::{find_tensorize_choices, MatchOptions, TensorizeChoice};
use tensor_ir::workload::TensorApp;

/// The partition space of one workload: its legal choices per intrinsic.
#[derive(Debug, Clone)]
pub struct WorkloadPartition {
    /// Workload name.
    pub workload: String,
    /// (intrinsic, legal tensorize choices) pairs.
    pub per_intrinsic: Vec<(IntrinsicKind, Vec<TensorizeChoice>)>,
}

impl WorkloadPartition {
    /// Total number of tensorize choices across intrinsics.
    pub fn total_choices(&self) -> usize {
        self.per_intrinsic.iter().map(|(_, v)| v.len()).sum()
    }
}

/// Enumerates the partition space of an application against the four
/// common intrinsics (or a caller-selected subset). PE count sizes the
/// intrinsic geometry, but matching only depends on structure.
pub fn partition_app(app: &TensorApp, kinds: &[IntrinsicKind], pes: u64) -> Vec<WorkloadPartition> {
    let opts = MatchOptions::default();
    app.workloads
        .iter()
        .map(|w| {
            let per_intrinsic = kinds
                .iter()
                .map(|&k| {
                    let intr = intrinsics::intrinsic_for(k, pes);
                    (k, find_tensorize_choices(&w.comp, &intr.comp, &opts))
                })
                .collect();
            WorkloadPartition {
                workload: w.name.clone(),
                per_intrinsic,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensor_ir::suites;
    use tensor_ir::workload::TensorApp;

    /// The intrinsics that can implement at least one sub-workload.
    fn viable_kinds(p: &WorkloadPartition) -> Vec<IntrinsicKind> {
        p.per_intrinsic
            .iter()
            .filter(|(_, v)| !v.is_empty())
            .map(|(k, _)| *k)
            .collect()
    }

    #[test]
    fn conv_app_partitions_against_all_intrinsics() {
        let app = TensorApp::new(
            "t",
            vec![suites::conv2d_workload("c", 64, 64, 28, 28, 3, 3)],
        );
        let parts = partition_app(&app, &IntrinsicKind::ALL, 64);
        assert_eq!(parts.len(), 1);
        let p = &parts[0];
        // §VII-B: conv can be tiled into DOT, GEMV, GEMM, and CONV2D
        // sub-workloads.
        assert_eq!(viable_kinds(p).len(), 4);
        assert!(p.total_choices() > 6);
    }

    #[test]
    fn gemm_app_cannot_use_conv2d_intrinsic() {
        let app = TensorApp::new("t", vec![suites::gemm_workload("g", 64, 64, 64)]);
        let parts = partition_app(&app, &IntrinsicKind::ALL, 64);
        let viable = viable_kinds(&parts[0]);
        assert!(viable.contains(&IntrinsicKind::Dot));
        assert!(viable.contains(&IntrinsicKind::Gemv));
        assert!(viable.contains(&IntrinsicKind::Gemm));
        // §VII-B: "Only 2D convolutions can be tiled into CONV2D
        // sub-workloads".
        assert!(!viable.contains(&IntrinsicKind::Conv2d));
    }

    #[test]
    fn mttkrp_stage1_matches_gemv_and_gemm_fused_only_gemv() {
        // Fused MTTKRP only admits GEMV/DOT; the two-stage split opens GEMM
        // for stage 1 (§VII-B).
        let fused = TensorApp::new("t", vec![suites::mttkrp_workload("m", 64, 64, 64, 64)]);
        let parts = partition_app(&fused, &[IntrinsicKind::Gemv, IntrinsicKind::Gemm], 64);
        let viable = viable_kinds(&parts[0]);
        assert!(viable.contains(&IntrinsicKind::Gemv));
        assert!(!viable.contains(&IntrinsicKind::Gemm));
        let (s1, _) = suites::mttkrp_stages("m", 64, 64, 64, 64);
        let staged = TensorApp::new("t", vec![s1]);
        let parts = partition_app(&staged, &[IntrinsicKind::Gemv, IntrinsicKind::Gemm], 64);
        assert!(viable_kinds(&parts[0]).contains(&IntrinsicKind::Gemm));
    }

    #[test]
    fn subset_of_kinds_is_respected() {
        let app = TensorApp::new("t", vec![suites::gemm_workload("g", 64, 64, 64)]);
        let parts = partition_app(&app, &[IntrinsicKind::Dot], 64);
        assert_eq!(parts[0].per_intrinsic.len(), 1);
    }
}
