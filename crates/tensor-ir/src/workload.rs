//! Workloads and tensor applications.
//!
//! A [`Workload`] is a computation with concrete extents (one "layer" of an
//! application). A [`TensorApp`] bundles the workloads of one application —
//! HASCO designs *one* accelerator shared by all workloads of an app and one
//! optimized software program per workload (§III).

use crate::complexity;
use crate::expr::Computation;
use runtime::{Fingerprinter, StableFingerprint};
use serde::{Deserialize, Serialize};

/// A concrete tensor computation instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Workload {
    /// Unique name within its application (e.g. `"resnet_conv3_2"`).
    pub name: String,
    /// The computation with concrete extents.
    pub comp: Computation,
}

impl StableFingerprint for Workload {
    // The name is reporting-only: two workloads with identical loop nests
    // map, schedule, and cost identically, so they share a fingerprint
    // (and thus memoized evaluations).
    fn fingerprint_into(&self, fp: &mut Fingerprinter) {
        self.comp.fingerprint_into(fp);
    }
}

runtime::wire_struct!(Workload { name, comp });

impl Workload {
    /// Creates a workload, asserting the computation is valid.
    ///
    /// # Panics
    /// Panics if the computation fails validation; workloads come from
    /// trusted suite constructors.
    pub fn new(name: impl Into<String>, comp: Computation) -> Self {
        comp.validate().expect("workload computation must be valid");
        Workload {
            name: name.into(),
            comp,
        }
    }

    /// Total floating-point operations (see [`complexity::flops`]).
    pub fn flops(&self) -> u64 {
        complexity::flops(&self.comp)
    }

    /// Total multiply-accumulate operations.
    pub fn macs(&self) -> u64 {
        complexity::macs(&self.comp)
    }

    /// Total bytes touched in DRAM assuming each tensor is read/written once.
    pub fn footprint_bytes(&self, dtype_bytes: u64) -> u64 {
        complexity::footprint_bytes(&self.comp, dtype_bytes)
    }
}

impl std::fmt::Display for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} [{}]", self.name, self.comp.notation())
    }
}

/// A tensor application: a set of workloads sharing one accelerator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TensorApp {
    /// Application name (e.g. `"resnet50"`).
    pub name: String,
    /// The workloads (layers).
    pub workloads: Vec<Workload>,
}

runtime::wire_struct!(TensorApp { name, workloads });

impl TensorApp {
    /// Creates an application from workloads.
    pub fn new(name: impl Into<String>, workloads: Vec<Workload>) -> Self {
        TensorApp {
            name: name.into(),
            workloads,
        }
    }

    /// Minimum and maximum per-workload FLOPs — the "Compute Complexity"
    /// column of Table I.
    pub fn complexity_range(&self) -> (u64, u64) {
        let mut lo = u64::MAX;
        let mut hi = 0;
        for w in &self.workloads {
            let f = w.flops();
            lo = lo.min(f);
            hi = hi.max(f);
        }
        if self.workloads.is_empty() {
            (0, 0)
        } else {
            (lo, hi)
        }
    }

    /// Number of workloads.
    pub fn len(&self) -> usize {
        self.workloads.len()
    }

    /// True when the app has no workloads.
    pub fn is_empty(&self) -> bool {
        self.workloads.is_empty()
    }
}

impl std::fmt::Display for TensorApp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} ({} workloads)", self.name, self.workloads.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suites;

    #[test]
    fn workload_flops_gemm() {
        let w = suites::gemm_workload("g", 64, 64, 64);
        // 2 * i * k * j
        assert_eq!(w.flops(), 2 * 64 * 64 * 64);
        assert_eq!(w.macs(), 64 * 64 * 64);
    }

    #[test]
    fn workload_footprint_counts_all_tensors() {
        let w = suites::gemm_workload("g", 4, 8, 16);
        // M: 4*8, N: 8*16, L: 4*16 elements, 4 bytes each.
        assert_eq!(w.footprint_bytes(4), (4 * 8 + 8 * 16 + 4 * 16) * 4);
    }

    #[test]
    fn app_ranges() {
        let app = TensorApp::new(
            "toy",
            vec![
                suites::gemm_workload("a", 8, 8, 8),
                suites::gemm_workload("b", 32, 32, 32),
            ],
        );
        let (lo, hi) = app.complexity_range();
        assert_eq!(lo, 2 * 8 * 8 * 8);
        assert_eq!(hi, 2 * 32 * 32 * 32);
        assert_eq!(app.len(), 2);
        assert!(!app.is_empty());
    }

    #[test]
    fn empty_app_range_is_zero() {
        let app = TensorApp::new("empty", vec![]);
        assert_eq!(app.complexity_range(), (0, 0));
        assert!(app.is_empty());
    }

    #[test]
    #[should_panic(expected = "valid")]
    fn invalid_workload_panics() {
        let comp = Computation {
            name: "bad".into(),
            indices: vec![],
            output: crate::Access::simple("O", []),
            inputs: vec![],
        };
        let _ = Workload::new("bad", comp);
    }
}
