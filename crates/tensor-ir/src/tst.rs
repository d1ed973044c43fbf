//! Tensor syntax trees (TSTs), the paper's unified HW/SW IR (§IV-B).
//!
//! A TST makes the loop and tensor structure of a computation explicit:
//! internal nodes are operations (`Sum`, `Mul`, `Add`, tensor indexing) and
//! leaves are loop-index occurrences. Both the compute workload and the
//! hardware intrinsic are lowered to TSTs, and the two-step matcher compares
//! them via lowest common ancestors (LCAs) of leaf pairs.

use crate::expr::Computation;
use crate::index::IndexId;
use serde::{Deserialize, Serialize};

/// Operation carried by an internal TST node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TstOp {
    /// Reduction over one or more indices (the `Σ` at the root).
    Sum,
    /// Product of the input accesses.
    Mul,
    /// Affine addition inside a subscript (`x + r`).
    Add,
    /// A tensor indexing node (`[]`); its children are the subscripts.
    Access,
}

impl std::fmt::Display for TstOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TstOp::Sum => write!(f, "sum"),
            TstOp::Mul => write!(f, "*"),
            TstOp::Add => write!(f, "+"),
            TstOp::Access => write!(f, "[]"),
        }
    }
}

/// One node of a [`Tst`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum TstNode {
    /// An operation node.
    Internal {
        /// The operation.
        op: TstOp,
        /// Child node ids.
        children: Vec<usize>,
        /// For [`TstOp::Access`] nodes, the tensor name.
        tensor: Option<String>,
    },
    /// A loop-index occurrence.
    Leaf {
        /// The referenced loop variable.
        index: IndexId,
    },
}

/// A tensor syntax tree stored as an arena of [`TstNode`]s.
///
/// # Example
/// ```
/// use tensor_ir::{Computation, Tst};
/// let gemm = Computation::builder("gemm")
///     .spatial("i", 16).spatial("j", 16).reduction("k", 16)
///     .output("L", &["i", "j"])
///     .input("M", &["i", "k"]).input("N", &["k", "j"])
///     .build().unwrap();
/// let tst = Tst::from_computation(&gemm);
/// assert_eq!(tst.leaves().len(), 4); // i, k, k, j
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Tst {
    nodes: Vec<TstNode>,
    root: usize,
    parent: Vec<Option<usize>>,
    depth: Vec<usize>,
    leaves: Vec<usize>,
}

impl Tst {
    /// Lowers a computation's right-hand side into a TST.
    ///
    /// The root is a `Sum` node when the computation has reduction indices
    /// (matching the paper's Fig. 5(b)), otherwise the `Mul` node directly.
    pub fn from_computation(comp: &Computation) -> Self {
        let mut nodes: Vec<TstNode> = Vec::new();
        let mut access_ids = Vec::new();
        for acc in &comp.inputs {
            let mut dim_ids = Vec::new();
            for dim in &acc.dims {
                if dim.terms.len() == 1 {
                    nodes.push(TstNode::Leaf {
                        index: dim.terms[0],
                    });
                    dim_ids.push(nodes.len() - 1);
                } else {
                    let mut leaf_ids = Vec::new();
                    for t in &dim.terms {
                        nodes.push(TstNode::Leaf { index: *t });
                        leaf_ids.push(nodes.len() - 1);
                    }
                    nodes.push(TstNode::Internal {
                        op: TstOp::Add,
                        children: leaf_ids,
                        tensor: None,
                    });
                    dim_ids.push(nodes.len() - 1);
                }
            }
            nodes.push(TstNode::Internal {
                op: TstOp::Access,
                children: dim_ids,
                tensor: Some(acc.tensor.clone()),
            });
            access_ids.push(nodes.len() - 1);
        }
        let mul = if access_ids.len() == 1 {
            access_ids[0]
        } else {
            nodes.push(TstNode::Internal {
                op: TstOp::Mul,
                children: access_ids,
                tensor: None,
            });
            nodes.len() - 1
        };
        let root = if comp.reduction_indices().is_empty() {
            mul
        } else {
            nodes.push(TstNode::Internal {
                op: TstOp::Sum,
                children: vec![mul],
                tensor: None,
            });
            nodes.len() - 1
        };
        Self::finish(nodes, root)
    }

    fn finish(nodes: Vec<TstNode>, root: usize) -> Self {
        let mut parent = vec![None; nodes.len()];
        let mut depth = vec![0usize; nodes.len()];
        let mut stack = vec![root];
        while let Some(n) = stack.pop() {
            if let TstNode::Internal { children, .. } = &nodes[n] {
                for &c in children {
                    parent[c] = Some(n);
                    depth[c] = depth[n] + 1;
                    stack.push(c);
                }
            }
        }
        // Leaves in left-to-right order: walk DFS preserving child order.
        let mut leaves = Vec::new();
        let mut dfs = vec![root];
        while let Some(n) = dfs.pop() {
            match &nodes[n] {
                TstNode::Leaf { .. } => leaves.push(n),
                TstNode::Internal { children, .. } => {
                    for &c in children.iter().rev() {
                        dfs.push(c);
                    }
                }
            }
        }
        Tst {
            nodes,
            root,
            parent,
            depth,
            leaves,
        }
    }

    /// Node id of the root.
    pub fn root(&self) -> usize {
        self.root
    }

    /// Total number of nodes (`l` in the paper's complexity bound).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` if the tree is empty (never the case for trees built
    /// by [`Tst::from_computation`]).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Node accessor.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn node(&self, id: usize) -> &TstNode {
        &self.nodes[id]
    }

    /// Ids of all leaf nodes, in left-to-right source order.
    pub fn leaves(&self) -> &[usize] {
        &self.leaves
    }

    /// The loop index referenced by a leaf node.
    ///
    /// # Panics
    /// Panics if `id` is not a leaf.
    pub fn leaf_index(&self, id: usize) -> IndexId {
        match &self.nodes[id] {
            TstNode::Leaf { index } => *index,
            TstNode::Internal { .. } => panic!("node {id} is not a leaf"),
        }
    }

    /// The operation of an internal node.
    ///
    /// # Panics
    /// Panics if `id` is a leaf.
    pub fn op(&self, id: usize) -> TstOp {
        match &self.nodes[id] {
            TstNode::Internal { op, .. } => *op,
            TstNode::Leaf { .. } => panic!("node {id} is a leaf"),
        }
    }

    /// Lowest common ancestor of two nodes (naive pointer-chasing; TSTs have
    /// at most ~100 nodes per the paper).
    ///
    /// # Panics
    /// Panics if the nodes are not in the same tree.
    pub fn lca(&self, a: usize, b: usize) -> usize {
        let (mut a, mut b) = (a, b);
        while self.depth[a] > self.depth[b] {
            a = self.parent[a].expect("node has no parent");
        }
        while self.depth[b] > self.depth[a] {
            b = self.parent[b].expect("node has no parent");
        }
        while a != b {
            a = self.parent[a].expect("disjoint trees");
            b = self.parent[b].expect("disjoint trees");
        }
        a
    }

    /// Renders the tree as an s-expression, useful in test failures.
    pub fn to_sexpr(&self, comp: &Computation) -> String {
        fn rec(t: &Tst, comp: &Computation, n: usize, out: &mut String) {
            match &t.nodes[n] {
                TstNode::Leaf { index } => out.push_str(&comp.index(*index).name),
                TstNode::Internal {
                    op,
                    children,
                    tensor,
                } => {
                    out.push('(');
                    match tensor {
                        Some(name) => out.push_str(&format!("[]{name}")),
                        None => out.push_str(&op.to_string()),
                    }
                    for &c in children {
                        out.push(' ');
                        rec(t, comp, c, out);
                    }
                    out.push(')');
                }
            }
        }
        let mut s = String::new();
        rec(self, comp, self.root, &mut s);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Computation;

    fn gemm() -> Computation {
        Computation::builder("gemm")
            .spatial("i", 16)
            .spatial("j", 16)
            .reduction("k", 16)
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
    fn gemm_tree_has_four_leaves() {
        let c = gemm();
        let t = Tst::from_computation(&c);
        assert_eq!(t.leaves().len(), 4);
        assert_eq!(t.to_sexpr(&c), "(sum (* ([]M i k) ([]N k j)))");
    }

    #[test]
    fn conv_tree_has_nine_leaves() {
        let c = conv();
        let t = Tst::from_computation(&c);
        // Paper §IV-B: "The compute tree has nine leaf nodes".
        assert_eq!(t.leaves().len(), 9);
        assert_eq!(
            t.to_sexpr(&c),
            "(sum (* ([]A c (+ x r) (+ y s)) ([]B k c r s)))"
        );
    }

    #[test]
    fn lca_within_one_access_is_the_access_node() {
        let c = gemm();
        let t = Tst::from_computation(&c);
        let leaves = t.leaves();
        // First two leaves are i and k inside M.
        let lca = t.lca(leaves[0], leaves[1]);
        assert_eq!(t.op(lca), TstOp::Access);
    }

    #[test]
    fn lca_across_accesses_is_mul() {
        let c = gemm();
        let t = Tst::from_computation(&c);
        let leaves = t.leaves();
        // i (in M) and j (in N).
        let lca = t.lca(leaves[0], leaves[3]);
        assert_eq!(t.op(lca), TstOp::Mul);
    }

    #[test]
    fn lca_of_affine_siblings_is_add() {
        let c = conv();
        let t = Tst::from_computation(&c);
        // Leaves in order: c, x, r, y, s (A), then k, c, r, s (B).
        let leaves = t.leaves();
        let x = leaves[1];
        let r = leaves[2];
        assert_eq!(t.leaf_index(x), c.index_by_name("x").unwrap());
        assert_eq!(t.leaf_index(r), c.index_by_name("r").unwrap());
        assert_eq!(t.op(t.lca(x, r)), TstOp::Add);
        // y (under one Add) and c (direct child): LCA is the A access node.
        let cc = leaves[0];
        let y = leaves[3];
        assert_eq!(t.op(t.lca(cc, y)), TstOp::Access);
    }

    #[test]
    fn single_input_no_reduction_has_access_root() {
        // Copy: O[i] = A[i]
        let c = Computation::builder("copy")
            .spatial("i", 8)
            .output("O", &["i"])
            .input("A", &["i"])
            .build()
            .unwrap();
        let t = Tst::from_computation(&c);
        assert_eq!(t.op(t.root()), TstOp::Access);
        assert_eq!(t.leaves().len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    fn dot_product_tree_shape() {
        let c = Computation::builder("dot")
            .reduction("i", 64)
            .output("C", &[])
            .input("A", &["i"])
            .input("B", &["i"])
            .build()
            .unwrap();
        let t = Tst::from_computation(&c);
        assert_eq!(t.to_sexpr(&c), "(sum (* ([]A i) ([]B i)))");
        assert_eq!(t.leaves().len(), 2);
    }

    #[test]
    fn depth_and_parent_consistent() {
        let c = conv();
        let t = Tst::from_computation(&c);
        for &l in t.leaves() {
            // Walk to root; must terminate at root with decreasing depth.
            let mut n = l;
            let mut steps = 0;
            while let Some(p) = t.parent[n] {
                assert!(t.depth[p] + 1 == t.depth[n]);
                n = p;
                steps += 1;
                assert!(steps < t.len());
            }
            assert_eq!(n, t.root());
        }
    }
}
