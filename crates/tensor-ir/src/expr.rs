//! Tensor computations as sum-of-products loop programs.
//!
//! A [`Computation`] is one assignment of the form
//!
//! ```text
//! Out[spatial...] = Σ_{reduction...}  In1[aff...] * In2[aff...] * ...
//! ```
//!
//! where each tensor dimension is indexed by an affine sum of loop variables
//! (`A[c, x + r, y + s]`). This form covers every benchmark in the paper:
//! GEMM, GEMV, dot product, AXPY, 2-D convolution, TTM, and MTTKRP.

use crate::index::{IndexId, IndexKind, IndexVar};
use crate::IrError;
use runtime::{Fingerprinter, StableFingerprint};
use serde::{Deserialize, Serialize};

/// One dimension of a tensor access: a sum of loop variables with unit
/// coefficients, e.g. `x + r` in `A[c, x + r, y + s]`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct AffineDim {
    /// The loop variables summed to form this subscript.
    pub terms: Vec<IndexId>,
}

impl AffineDim {
    /// A dimension indexed by a single loop variable.
    pub fn var(id: IndexId) -> Self {
        AffineDim { terms: vec![id] }
    }

    /// A dimension indexed by a sum of loop variables (e.g. `x + r`).
    pub fn sum(ids: impl IntoIterator<Item = IndexId>) -> Self {
        AffineDim {
            terms: ids.into_iter().collect(),
        }
    }

    /// Returns `true` when the subscript is a single variable.
    pub fn is_simple(&self) -> bool {
        self.terms.len() == 1
    }
}

/// A tensor access: tensor name plus one [`AffineDim`] per dimension.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Access {
    /// Name of the accessed tensor (`"A"`, `"B"`, ...).
    pub tensor: String,
    /// Per-dimension subscripts.
    pub dims: Vec<AffineDim>,
}

impl Access {
    /// Builds an access from single-variable subscripts.
    pub fn simple(tensor: impl Into<String>, ids: impl IntoIterator<Item = IndexId>) -> Self {
        Access {
            tensor: tensor.into(),
            dims: ids.into_iter().map(AffineDim::var).collect(),
        }
    }

    /// Builds an access from explicit affine dims.
    pub fn new(tensor: impl Into<String>, dims: Vec<AffineDim>) -> Self {
        Access {
            tensor: tensor.into(),
            dims,
        }
    }

    /// Iterates over every index-variable occurrence in the access, in
    /// left-to-right dimension order.
    pub fn index_occurrences(&self) -> impl Iterator<Item = IndexId> + '_ {
        self.dims.iter().flat_map(|d| d.terms.iter().copied())
    }

    /// Returns `true` if the access mentions `id` in any dimension.
    pub fn uses(&self, id: IndexId) -> bool {
        self.index_occurrences().any(|o| o == id)
    }
}

impl StableFingerprint for AffineDim {
    fn fingerprint_into(&self, fp: &mut Fingerprinter) {
        self.terms.fingerprint_into(fp);
    }
}

impl StableFingerprint for Access {
    // Tensor names distinguish which operand is accessed (two inputs with
    // identical subscripts but different tensors are different programs).
    fn fingerprint_into(&self, fp: &mut Fingerprinter) {
        fp.write_str(&self.tensor);
        self.dims.fingerprint_into(fp);
    }
}

runtime::wire_struct!(AffineDim { terms });
runtime::wire_struct!(Access { tensor, dims });

/// A tensor computation: `output = Σ_{reductions} Π inputs`.
///
/// # Example
/// ```
/// use tensor_ir::{Computation, IndexVar, Access};
/// // GEMM: L[i, j] = Σ_k M[i, k] * N[k, j]
/// let comp = Computation::builder("gemm")
///     .spatial("i", 64)
///     .spatial("j", 64)
///     .reduction("k", 64)
///     .output("L", &["i", "j"])
///     .input("M", &["i", "k"])
///     .input("N", &["k", "j"])
///     .build()
///     .unwrap();
/// assert_eq!(comp.indices.len(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Computation {
    /// Name of the computation (used in reports and generated code).
    pub name: String,
    /// Loop-variable table; [`IndexId`]s are positions into this table.
    pub indices: Vec<IndexVar>,
    /// The output access. May only use spatial indices.
    pub output: Access,
    /// The product terms on the right-hand side.
    pub inputs: Vec<Access>,
}

impl StableFingerprint for Computation {
    // The computation name is cosmetic; the loop nest structure (index
    // table, output access, input accesses) is what evaluation sees.
    fn fingerprint_into(&self, fp: &mut Fingerprinter) {
        self.indices.fingerprint_into(fp);
        self.output.fingerprint_into(fp);
        self.inputs.fingerprint_into(fp);
    }
}

runtime::wire_struct!(Computation {
    name,
    indices,
    output,
    inputs,
});

impl Computation {
    /// Starts a [`ComputationBuilder`], the ergonomic way to construct
    /// computations by index name.
    pub fn builder(name: impl Into<String>) -> ComputationBuilder {
        ComputationBuilder::new(name)
    }

    /// Looks up an index variable by id.
    ///
    /// # Panics
    /// Panics if `id` is out of range; ids must come from this computation.
    #[allow(clippy::should_implement_trait)] // domain term: an *index variable*
    pub fn index(&self, id: IndexId) -> &IndexVar {
        &self.indices[id.0]
    }

    /// Looks up an index id by name.
    pub fn index_by_name(&self, name: &str) -> Option<IndexId> {
        self.indices
            .iter()
            .position(|v| v.name == name)
            .map(IndexId)
    }

    /// Ids of all spatial indices, in declaration order.
    pub fn spatial_indices(&self) -> Vec<IndexId> {
        self.filter_indices(IndexKind::Spatial)
    }

    /// Ids of all reduction indices, in declaration order.
    pub fn reduction_indices(&self) -> Vec<IndexId> {
        self.filter_indices(IndexKind::Reduction)
    }

    fn filter_indices(&self, kind: IndexKind) -> Vec<IndexId> {
        self.indices
            .iter()
            .enumerate()
            .filter(|(_, v)| v.kind == kind)
            .map(|(i, _)| IndexId(i))
            .collect()
    }

    /// Product of all loop extents — the size of the iteration space.
    pub fn iteration_points(&self) -> u64 {
        self.indices.iter().map(|v| v.extent).product()
    }

    /// The shape (extent per dimension) of an accessed tensor, computed from
    /// the affine subscripts: the extent of `x + r` is
    /// `extent(x) + extent(r) - 1` (the convolution input-halo rule).
    pub fn tensor_shape(&self, access: &Access) -> Vec<u64> {
        access
            .dims
            .iter()
            .map(|d| {
                let s: u64 = d.terms.iter().map(|t| self.index(*t).extent).sum();
                s + 1 - d.terms.len() as u64
            })
            .collect()
    }

    /// Number of elements in an accessed tensor.
    pub fn tensor_elements(&self, access: &Access) -> u64 {
        self.tensor_shape(access).iter().product()
    }

    /// Validates the structural invariants listed on [`IrError`].
    ///
    /// # Errors
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), IrError> {
        if self.inputs.is_empty() {
            return Err(IrError::NoInputs);
        }
        for v in &self.indices {
            if v.extent == 0 {
                return Err(IrError::ZeroExtent(v.name.clone()));
            }
        }
        for acc in std::iter::once(&self.output).chain(self.inputs.iter()) {
            for d in &acc.dims {
                if d.terms.is_empty() {
                    return Err(IrError::EmptyAffineDim(acc.tensor.clone()));
                }
                for t in &d.terms {
                    if t.0 >= self.indices.len() {
                        return Err(IrError::UnknownIndex(t.0));
                    }
                }
            }
        }
        for occ in self.output.index_occurrences() {
            if self.index(occ).is_reduction() {
                return Err(IrError::ReductionInOutput(self.index(occ).name.clone()));
            }
        }
        for (i, v) in self.indices.iter().enumerate() {
            if v.is_spatial() && !self.output.uses(IndexId(i)) {
                return Err(IrError::SpatialNotInOutput(v.name.clone()));
            }
        }
        Ok(())
    }

    /// Renders the computation in the paper's notation, e.g.
    /// `L[i,j] = sum_{k} M[i,k] * N[k,j]`.
    pub fn notation(&self) -> String {
        let fmt_access = |a: &Access| {
            let dims: Vec<String> = a
                .dims
                .iter()
                .map(|d| {
                    d.terms
                        .iter()
                        .map(|t| self.index(*t).name.clone())
                        .collect::<Vec<_>>()
                        .join("+")
                })
                .collect();
            format!("{}[{}]", a.tensor, dims.join(","))
        };
        let reds: Vec<String> = self
            .reduction_indices()
            .iter()
            .map(|r| self.index(*r).name.clone())
            .collect();
        let rhs: Vec<String> = self.inputs.iter().map(fmt_access).collect();
        if reds.is_empty() {
            format!("{} = {}", fmt_access(&self.output), rhs.join(" * "))
        } else {
            format!(
                "{} = sum_{{{}}} {}",
                fmt_access(&self.output),
                reds.join(","),
                rhs.join(" * ")
            )
        }
    }
}

impl std::fmt::Display for Computation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.name, self.notation())
    }
}

/// Builder for [`Computation`] that resolves index names to ids and supports
/// affine subscripts written as `"x+r"`.
#[derive(Debug, Clone)]
pub struct ComputationBuilder {
    name: String,
    indices: Vec<IndexVar>,
    output: Option<Access>,
    inputs: Vec<Access>,
}

impl ComputationBuilder {
    /// Creates an empty builder.
    pub fn new(name: impl Into<String>) -> Self {
        ComputationBuilder {
            name: name.into(),
            indices: Vec::new(),
            output: None,
            inputs: Vec::new(),
        }
    }

    /// Declares a spatial loop.
    pub fn spatial(mut self, name: &str, extent: u64) -> Self {
        self.indices.push(IndexVar::spatial(name, extent));
        self
    }

    /// Declares a reduction loop.
    pub fn reduction(mut self, name: &str, extent: u64) -> Self {
        self.indices.push(IndexVar::reduction(name, extent));
        self
    }

    fn resolve(&self, spec: &str) -> AffineDim {
        let terms = spec
            .split('+')
            .map(|part| {
                let part = part.trim();
                let pos = self
                    .indices
                    .iter()
                    .position(|v| v.name == part)
                    .unwrap_or_else(|| {
                        panic!("unknown index `{part}` in computation `{}`", self.name)
                    });
                IndexId(pos)
            })
            .collect();
        AffineDim { terms }
    }

    /// Sets the output access. Dims are index names, possibly `"x+r"` sums.
    ///
    /// # Panics
    /// Panics if a dim names an undeclared index.
    pub fn output(mut self, tensor: &str, dims: &[&str]) -> Self {
        let dims = dims.iter().map(|d| self.resolve(d)).collect();
        self.output = Some(Access::new(tensor, dims));
        self
    }

    /// Adds an input (product-term) access.
    ///
    /// # Panics
    /// Panics if a dim names an undeclared index.
    pub fn input(mut self, tensor: &str, dims: &[&str]) -> Self {
        let dims = dims.iter().map(|d| self.resolve(d)).collect();
        self.inputs.push(Access::new(tensor, dims));
        self
    }

    /// Finalizes and validates the computation.
    ///
    /// # Errors
    /// Returns [`IrError`] when a structural invariant is violated.
    ///
    /// # Panics
    /// Panics if no output was set.
    pub fn build(self) -> Result<Computation, IrError> {
        let comp = Computation {
            name: self.name,
            indices: self.indices,
            output: self.output.expect("computation builder: output not set"),
            inputs: self.inputs,
        };
        comp.validate()?;
        Ok(comp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gemm() -> Computation {
        Computation::builder("gemm")
            .spatial("i", 16)
            .spatial("j", 32)
            .reduction("k", 64)
            .output("L", &["i", "j"])
            .input("M", &["i", "k"])
            .input("N", &["k", "j"])
            .build()
            .unwrap()
    }

    fn conv() -> Computation {
        Computation::builder("conv2d")
            .spatial("k", 64)
            .spatial("x", 56)
            .spatial("y", 56)
            .reduction("c", 64)
            .reduction("r", 3)
            .reduction("s", 3)
            .output("C", &["k", "x", "y"])
            .input("A", &["c", "x+r", "y+s"])
            .input("B", &["k", "c", "r", "s"])
            .build()
            .unwrap()
    }

    #[test]
    fn builder_resolves_names() {
        let g = gemm();
        assert_eq!(g.index_by_name("k"), Some(IndexId(2)));
        assert_eq!(g.spatial_indices(), vec![IndexId(0), IndexId(1)]);
        assert_eq!(g.reduction_indices(), vec![IndexId(2)]);
    }

    #[test]
    fn iteration_points_is_extent_product() {
        assert_eq!(gemm().iteration_points(), 16 * 32 * 64);
    }

    #[test]
    fn tensor_shape_applies_halo_rule() {
        let c = conv();
        // A[c, x+r, y+s] has shape [64, 56+3-1, 56+3-1].
        let a = &c.inputs[0];
        assert_eq!(c.tensor_shape(a), vec![64, 58, 58]);
        assert_eq!(c.tensor_elements(a), 64 * 58 * 58);
        // B is a plain 4-D tensor.
        assert_eq!(c.tensor_shape(&c.inputs[1]), vec![64, 64, 3, 3]);
    }

    #[test]
    fn notation_matches_paper_style() {
        assert_eq!(gemm().notation(), "L[i,j] = sum_{k} M[i,k] * N[k,j]");
        assert_eq!(
            conv().notation(),
            "C[k,x,y] = sum_{c,r,s} A[c,x+r,y+s] * B[k,c,r,s]"
        );
    }

    #[test]
    fn validate_rejects_reduction_in_output() {
        let bad = Computation::builder("bad")
            .spatial("i", 4)
            .reduction("k", 4)
            .output("O", &["i", "k"])
            .input("A", &["i", "k"])
            .build();
        assert_eq!(bad.unwrap_err(), IrError::ReductionInOutput("k".into()));
    }

    #[test]
    fn validate_rejects_dangling_spatial() {
        let bad = Computation::builder("bad")
            .spatial("i", 4)
            .spatial("j", 4)
            .output("O", &["i"])
            .input("A", &["i", "j"])
            .build();
        assert_eq!(bad.unwrap_err(), IrError::SpatialNotInOutput("j".into()));
    }

    #[test]
    fn validate_rejects_zero_extent() {
        let bad = Computation::builder("bad")
            .spatial("i", 0)
            .output("O", &["i"])
            .input("A", &["i"])
            .build();
        assert_eq!(bad.unwrap_err(), IrError::ZeroExtent("i".into()));
    }

    #[test]
    fn validate_rejects_no_inputs() {
        let comp = Computation {
            name: "empty".into(),
            indices: vec![IndexVar::spatial("i", 4)],
            output: Access::simple("O", [IndexId(0)]),
            inputs: vec![],
        };
        assert_eq!(comp.validate().unwrap_err(), IrError::NoInputs);
    }

    #[test]
    fn access_uses_detects_occurrences() {
        let c = conv();
        let a = &c.inputs[0];
        let r = c.index_by_name("r").unwrap();
        let k = c.index_by_name("k").unwrap();
        assert!(a.uses(r)); // inside x+r
        assert!(!a.uses(k));
        assert_eq!(a.index_occurrences().count(), 5); // c, x, r, y, s
    }

    #[test]
    #[should_panic(expected = "unknown index")]
    fn builder_panics_on_unknown_name() {
        let _ = Computation::builder("bad")
            .spatial("i", 4)
            .output("O", &["z"]);
    }

    #[test]
    fn affine_dim_helpers() {
        let d = AffineDim::var(IndexId(0));
        assert!(d.is_simple());
        let s = AffineDim::sum([IndexId(0), IndexId(1)]);
        assert!(!s.is_simple());
    }
}
