//! The four hardware intrinsics HASCO uses to decompose workloads (§IV-B):
//! dot product, GEMV, GEMM, and 2-D convolution.
//!
//! An intrinsic is itself a small [`Computation`] with fixed extents; the
//! extents are determined by the accelerator's PE array shape, but the
//! matcher only looks at the structure ("the matching does not decide the
//! range of each node, such that the size of the sub-workload is flexible").

use crate::expr::Computation;
use runtime::{Fingerprinter, StableFingerprint};
use serde::{Deserialize, Serialize};

/// The intrinsic families supported by HASCO's generators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum IntrinsicKind {
    /// `C = Σ_i A[i] * B[i]`
    Dot,
    /// `C[i] = Σ_j A[i,j] * B[j]`
    Gemv,
    /// `L[i,j] = Σ_k M[i,k] * N[k,j]`
    Gemm,
    /// `C[k,x,y] = Σ_{c,r,s} A[c,x+r,y+s] * B[k,c,r,s]` with fixed `r×s`
    Conv2d,
}

impl StableFingerprint for IntrinsicKind {
    fn fingerprint_into(&self, fp: &mut Fingerprinter) {
        fp.write_u32(match self {
            IntrinsicKind::Dot => 0,
            IntrinsicKind::Gemv => 1,
            IntrinsicKind::Gemm => 2,
            IntrinsicKind::Conv2d => 3,
        });
    }
}

runtime::wire_enum!(IntrinsicKind {
    0 => Dot,
    1 => Gemv,
    2 => Gemm,
    3 => Conv2d,
});

impl IntrinsicKind {
    /// All four intrinsic kinds, in increasing dimensionality order.
    pub const ALL: [IntrinsicKind; 4] = [
        IntrinsicKind::Dot,
        IntrinsicKind::Gemv,
        IntrinsicKind::Gemm,
        IntrinsicKind::Conv2d,
    ];

    /// Short lower-case name used across reports.
    pub fn name(&self) -> &'static str {
        match self {
            IntrinsicKind::Dot => "dot",
            IntrinsicKind::Gemv => "gemv",
            IntrinsicKind::Gemm => "gemm",
            IntrinsicKind::Conv2d => "conv2d",
        }
    }
}

impl std::fmt::Display for IntrinsicKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A hardware intrinsic: a kind plus its computation (with fixed extents).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Intrinsic {
    /// The intrinsic family.
    pub kind: IntrinsicKind,
    /// The intrinsic's computation (structure used by the matcher, extents
    /// used by the cost model).
    pub comp: Computation,
}

impl std::fmt::Display for Intrinsic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind, self.comp.notation())
    }
}

/// Dot-product intrinsic `C = Σ A[i] * B[i]` over `n` elements.
pub fn dot_intrinsic(n: u64) -> Intrinsic {
    let comp = Computation::builder("dot")
        .reduction("i", n)
        .output("C", &[])
        .input("A", &["i"])
        .input("B", &["i"])
        .build()
        .expect("dot intrinsic is valid");
    Intrinsic {
        kind: IntrinsicKind::Dot,
        comp,
    }
}

/// GEMV intrinsic `C[i] = Σ_j A[i,j] * B[j]`.
pub fn gemv_intrinsic(i: u64, j: u64) -> Intrinsic {
    let comp = Computation::builder("gemv")
        .spatial("i", i)
        .reduction("j", j)
        .output("C", &["i"])
        .input("A", &["i", "j"])
        .input("B", &["j"])
        .build()
        .expect("gemv intrinsic is valid");
    Intrinsic {
        kind: IntrinsicKind::Gemv,
        comp,
    }
}

/// GEMM intrinsic `L[i,j] = Σ_k M[i,k] * N[k,j]`.
pub fn gemm_intrinsic(i: u64, k: u64, j: u64) -> Intrinsic {
    let comp = Computation::builder("gemm")
        .spatial("i", i)
        .spatial("j", j)
        .reduction("k", k)
        .output("L", &["i", "j"])
        .input("M", &["i", "k"])
        .input("N", &["k", "j"])
        .build()
        .expect("gemm intrinsic is valid");
    Intrinsic {
        kind: IntrinsicKind::Gemm,
        comp,
    }
}

/// CONV2D intrinsic with a fixed `r × s` filter (the paper's experiments fix
/// it at 3 × 3) and a small fixed output tile.
pub fn conv2d_intrinsic(k: u64, c: u64, r: u64, s: u64) -> Intrinsic {
    let comp = Computation::builder("conv2d")
        .spatial("k", k)
        .spatial("x", 4)
        .spatial("y", 4)
        .reduction("c", c)
        .reduction("r", r)
        .reduction("s", s)
        .output("C", &["k", "x", "y"])
        .input("A", &["c", "x+r", "y+s"])
        .input("B", &["k", "c", "r", "s"])
        .build()
        .expect("conv2d intrinsic is valid");
    Intrinsic {
        kind: IntrinsicKind::Conv2d,
        comp,
    }
}

/// AXPY-style intrinsic `Y[i] = a * X[i]` (the scalar `a` is a 0-dim
/// tensor). Appears as choice #4 in the paper's Fig. 4; it is not one of
/// the four generator-supported intrinsics but the matcher handles it.
pub fn axpy_intrinsic(n: u64) -> Computation {
    Computation::builder("axpy")
        .spatial("i", n)
        .output("Y", &["i"])
        .input("a", &[])
        .input("X", &["i"])
        .build()
        .expect("axpy intrinsic is valid")
}

/// Builds an intrinsic of the given kind with default sizes derived from a
/// PE count (used by the hardware generators).
pub fn intrinsic_for(kind: IntrinsicKind, pes: u64) -> Intrinsic {
    let side = (pes as f64).sqrt().floor().max(1.0) as u64;
    match kind {
        IntrinsicKind::Dot => dot_intrinsic(pes.max(1)),
        IntrinsicKind::Gemv => gemv_intrinsic(side.max(1), side.max(1)),
        IntrinsicKind::Gemm => gemm_intrinsic(side.max(1), side.max(1), side.max(1)),
        IntrinsicKind::Conv2d => conv2d_intrinsic(side.max(1), side.max(1), 3, 3),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_intrinsics_validate() {
        for i in [
            dot_intrinsic(64),
            gemv_intrinsic(8, 8),
            gemm_intrinsic(16, 16, 16),
            conv2d_intrinsic(8, 8, 3, 3),
        ] {
            assert!(i.comp.validate().is_ok(), "{i}");
        }
    }

    #[test]
    fn macs_per_call() {
        // One call performs one MAC per iteration point.
        assert_eq!(dot_intrinsic(64).comp.iteration_points(), 64);
        assert_eq!(gemm_intrinsic(16, 16, 16).comp.iteration_points(), 4096);
        assert_eq!(gemv_intrinsic(8, 4).comp.iteration_points(), 32);
        assert_eq!(
            conv2d_intrinsic(8, 8, 3, 3).comp.iteration_points(),
            8 * 4 * 4 * 8 * 9
        );
    }

    #[test]
    fn names_and_display() {
        assert_eq!(IntrinsicKind::Gemm.name(), "gemm");
        assert_eq!(IntrinsicKind::Dot.to_string(), "dot");
        assert!(gemm_intrinsic(4, 4, 4).to_string().contains("L[i,j]"));
        assert_eq!(IntrinsicKind::ALL.len(), 4);
    }

    #[test]
    fn intrinsic_for_derives_square_shapes() {
        let g = intrinsic_for(IntrinsicKind::Gemm, 64);
        assert_eq!(
            g.comp.index_by_name("i").map(|i| g.comp.index(i).extent),
            Some(8)
        );
        let d = intrinsic_for(IntrinsicKind::Dot, 64);
        assert_eq!(d.comp.iteration_points(), 64);
        let v = intrinsic_for(IntrinsicKind::Gemv, 64);
        assert_eq!(v.kind, IntrinsicKind::Gemv);
        let c = intrinsic_for(IntrinsicKind::Conv2d, 64);
        assert_eq!(c.kind, IntrinsicKind::Conv2d);
    }
}
