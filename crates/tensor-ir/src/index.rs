//! Loop index variables.
//!
//! Every tensor computation in HASCO is a perfectly nested loop program; the
//! loop variables are the atoms of the IR. An index is either *spatial*
//! (appears in the output tensor, fully parallel) or *reduction* (summed
//! over). The distinction is load-bearing for the tensorize matcher: an
//! intrinsic's reduction index may only absorb a reduction loop of the
//! compute workload, otherwise the decomposed program produces incorrect
//! results (choice #2 of Fig. 4 in the paper).

use runtime::wire::{Reader, Wire};
use runtime::{Fingerprinter, StableFingerprint};
use serde::{Deserialize, Serialize};

/// Identifier of an index variable within one [`Computation`].
///
/// Ids are positions into [`Computation::indices`], so they are only
/// meaningful relative to their owning computation.
///
/// [`Computation`]: crate::expr::Computation
/// [`Computation::indices`]: crate::expr::Computation::indices
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct IndexId(pub usize);

impl std::fmt::Display for IndexId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "i{}", self.0)
    }
}

/// Whether a loop variable is parallel (spatial) or contracted (reduction).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IndexKind {
    /// The index appears in the output tensor; iterations are independent.
    Spatial,
    /// The index is summed over; iterations accumulate into the output.
    Reduction,
}

impl std::fmt::Display for IndexKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IndexKind::Spatial => write!(f, "spatial"),
            IndexKind::Reduction => write!(f, "reduction"),
        }
    }
}

/// A loop index variable: a name, a trip count, and a [`IndexKind`].
///
/// # Example
/// ```
/// use tensor_ir::{IndexVar, IndexKind};
/// let k = IndexVar::spatial("k", 64);
/// assert_eq!(k.extent, 64);
/// assert_eq!(k.kind, IndexKind::Spatial);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct IndexVar {
    /// Human-readable loop name (`"k"`, `"x"`, ...).
    pub name: String,
    /// Trip count of the loop. Must be nonzero for a valid computation.
    pub extent: u64,
    /// Spatial or reduction.
    pub kind: IndexKind,
}

impl IndexVar {
    /// Creates a spatial (parallel, output-indexing) loop variable.
    pub fn spatial(name: impl Into<String>, extent: u64) -> Self {
        IndexVar {
            name: name.into(),
            extent,
            kind: IndexKind::Spatial,
        }
    }

    /// Creates a reduction (contracted) loop variable.
    pub fn reduction(name: impl Into<String>, extent: u64) -> Self {
        IndexVar {
            name: name.into(),
            extent,
            kind: IndexKind::Reduction,
        }
    }

    /// Returns `true` if the variable is spatial.
    pub fn is_spatial(&self) -> bool {
        self.kind == IndexKind::Spatial
    }

    /// Returns `true` if the variable is a reduction.
    pub fn is_reduction(&self) -> bool {
        self.kind == IndexKind::Reduction
    }
}

impl std::fmt::Display for IndexVar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}({})", self.name, self.extent)
    }
}

impl StableFingerprint for IndexId {
    fn fingerprint_into(&self, fp: &mut Fingerprinter) {
        fp.write_usize(self.0);
    }
}

impl StableFingerprint for IndexKind {
    fn fingerprint_into(&self, fp: &mut Fingerprinter) {
        fp.write_bool(matches!(self, IndexKind::Reduction));
    }
}

impl StableFingerprint for IndexVar {
    // The name is cosmetic (ids are positional); extent and kind are what
    // schedules and cost models see.
    fn fingerprint_into(&self, fp: &mut Fingerprinter) {
        fp.write_u64(self.extent);
        self.kind.fingerprint_into(fp);
    }
}

impl Wire for IndexId {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        usize::decode(r).map(IndexId)
    }
}

runtime::wire_enum!(IndexKind {
    0 => Spatial,
    1 => Reduction,
});
runtime::wire_struct!(IndexVar { name, extent, kind });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spatial_constructor_sets_kind() {
        let v = IndexVar::spatial("x", 56);
        assert!(v.is_spatial());
        assert!(!v.is_reduction());
        assert_eq!(v.name, "x");
        assert_eq!(v.extent, 56);
    }

    #[test]
    fn reduction_constructor_sets_kind() {
        let v = IndexVar::reduction("c", 64);
        assert!(v.is_reduction());
        assert!(!v.is_spatial());
    }

    #[test]
    fn display_formats() {
        assert_eq!(IndexVar::spatial("x", 7).to_string(), "x(7)");
        assert_eq!(IndexId(3).to_string(), "i3");
        assert_eq!(IndexKind::Spatial.to_string(), "spatial");
        assert_eq!(IndexKind::Reduction.to_string(), "reduction");
    }

    #[test]
    fn index_id_ordering_follows_position() {
        assert!(IndexId(0) < IndexId(1));
        assert_eq!(IndexId(2), IndexId(2));
    }
}
