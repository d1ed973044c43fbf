//! The two-step tensorize matching algorithm (§IV-B of the paper).
//!
//! Given a compute workload and a hardware intrinsic, both lowered to
//! [`Tst`]s, the matcher enumerates every legal *tensorize choice*: a subset
//! of the compute tree's leaves plus a bijection onto the intrinsic tree's
//! leaves such that
//!
//! 1. **index matching** — the bijection is consistent on repeated indices
//!    (if two intrinsic leaves denote the same loop variable, their images
//!    must denote the same compute variable, and vice versa), spatial
//!    intrinsic indices map to spatial compute indices, reductions to
//!    reductions (this is what makes Fig. 4's choice #2 illegal), and a
//!    selected compute variable's *total* occurrence count must equal the
//!    intrinsic variable's — an occurrence left outside the subset would
//!    make the intrinsic operand secretly vary across intrinsic
//!    iterations. This is what limits MTTKRP's second stage to GEMV
//!    sub-workloads (§VII-B);
//! 2. **structure matching** — for every pair of matched leaves, the lowest
//!    common ancestor in the intrinsic tree and in the compute tree carry
//!    the same operation.
//!
//! The paper reports six legal choices for mapping a 2-D convolution onto a
//! GEMM intrinsic after examining 126 (= C(9,4)) leaf subsets. Four of them
//! pass the strict LCA test; the remaining two pair a spatial loop with a
//! reduction loop from the *same* affine window (`x` with `r`, or `y` with
//! `s`) and therefore require a local data rearrangement of the overlapping
//! input window. We reproduce all six with
//! [`MatchOptions::allow_rearrangement`] (the default) and the strict four
//! with it disabled; choices that need the rearrangement are flagged so the
//! cost model can charge for it.

use crate::expr::Computation;
use crate::index::IndexId;
use crate::tst::{Tst, TstOp};
use runtime::{Fingerprinter, StableFingerprint};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Options controlling the matcher.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatchOptions {
    /// Accept choices whose structure match only succeeds up to a local data
    /// rearrangement (an `Add` node on the compute side where the intrinsic
    /// has a plain access). The paper allows these ("different node orders
    /// give different tensorize choices with data rearrangements, like the
    /// matrix transpositions of choice #3").
    pub allow_rearrangement: bool,
    /// Fold choices that differ only by permuting the intrinsic's spatial
    /// indices (transposed variants) into one choice.
    pub fold_transposed: bool,
    /// Upper bound on returned choices (safety valve for large trees).
    pub max_choices: usize,
}

impl Default for MatchOptions {
    fn default() -> Self {
        MatchOptions {
            allow_rearrangement: true,
            fold_transposed: true,
            max_choices: 4096,
        }
    }
}

impl MatchOptions {
    /// Strict structural matching: no rearrangement, keep transposed
    /// variants distinct.
    pub fn strict() -> Self {
        MatchOptions {
            allow_rearrangement: false,
            fold_transposed: false,
            max_choices: 4096,
        }
    }
}

/// A legal way to decompose a computation into sub-workloads executed by a
/// hardware intrinsic.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TensorizeChoice {
    /// Name of the matched intrinsic computation.
    pub intrinsic: String,
    /// Mapping from intrinsic index variables to compute index variables.
    /// Sorted by intrinsic index id.
    pub var_map: Vec<(IndexId, IndexId)>,
    /// Whether the choice relies on a local data rearrangement (overlapping
    /// window linearization / transposition).
    pub needs_rearrangement: bool,
}

impl StableFingerprint for TensorizeChoice {
    fn fingerprint_into(&self, fp: &mut Fingerprinter) {
        fp.write_str(&self.intrinsic);
        self.var_map.fingerprint_into(fp);
        fp.write_bool(self.needs_rearrangement);
    }
}

runtime::wire_struct!(TensorizeChoice {
    intrinsic,
    var_map,
    needs_rearrangement,
});

impl TensorizeChoice {
    /// The compute-side loop variables absorbed by the intrinsic.
    pub fn tensorized_indices(&self) -> Vec<IndexId> {
        let mut v: Vec<IndexId> = self.var_map.iter().map(|&(_, c)| c).collect();
        v.sort();
        v.dedup();
        v
    }

    /// Human-readable description, e.g. `gemm{i<-k, j<-x, k<-c}`.
    pub fn describe(&self, compute: &Computation, intrinsic: &Computation) -> String {
        let pairs: Vec<String> = self
            .var_map
            .iter()
            .map(|&(q, c)| format!("{}<-{}", intrinsic.index(q).name, compute.index(c).name))
            .collect();
        let star = if self.needs_rearrangement { "*" } else { "" };
        format!("{}{{{}}}{}", self.intrinsic, pairs.join(", "), star)
    }
}

/// Statistics of one matcher run, mirroring the counts reported in §IV-B.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MatchStats {
    /// Number of leaf subsets examined (C(m, n)).
    pub subsets_examined: usize,
    /// Number of leaf bijections that passed index matching.
    pub index_matches: usize,
    /// Number of bijections that also passed structure matching.
    pub structure_matches: usize,
}

/// Finds all legal tensorize choices for `compute` against `intrinsic`.
///
/// # Example
/// ```
/// use tensor_ir::{suites, intrinsics, matching::{find_tensorize_choices, MatchOptions}};
/// let conv = suites::conv2d_workload("c", 64, 64, 56, 56, 3, 3);
/// let gemm = intrinsics::gemm_intrinsic(16, 16, 16);
/// let choices = find_tensorize_choices(&conv.comp, &gemm.comp, &MatchOptions::default());
/// assert_eq!(choices.len(), 6); // as reported in the paper, §IV-B
/// ```
pub fn find_tensorize_choices(
    compute: &Computation,
    intrinsic: &Computation,
    opts: &MatchOptions,
) -> Vec<TensorizeChoice> {
    find_tensorize_choices_with_stats(compute, intrinsic, opts).0
}

/// Like [`find_tensorize_choices`] but also returns [`MatchStats`].
pub fn find_tensorize_choices_with_stats(
    compute: &Computation,
    intrinsic: &Computation,
    opts: &MatchOptions,
) -> (Vec<TensorizeChoice>, MatchStats) {
    let ctst = Tst::from_computation(compute);
    let qtst = Tst::from_computation(intrinsic);
    let mut stats = MatchStats::default();

    let q_leaves: Vec<usize> = qtst.leaves().to_vec();
    let c_leaves: Vec<usize> = ctst.leaves().to_vec();
    // Total occurrence count of each compute variable across the whole
    // compute tree (for the coverage condition of index matching).
    let mut c_totals: BTreeMap<IndexId, usize> = BTreeMap::new();
    for &l in &c_leaves {
        *c_totals.entry(ctst.leaf_index(l)).or_insert(0) += 1;
    }
    let n = q_leaves.len();
    let m = c_leaves.len();
    if n == 0 || n > m {
        return (Vec::new(), stats);
    }

    // Group intrinsic leaves by their index variable.
    let q_groups = group_by_var(&qtst, &q_leaves);

    /// A candidate's var-level mapping plus its rearrangement flag.
    type ChoiceKey = (Vec<(IndexId, IndexId)>, bool);
    /// A [`ChoiceKey`] widened by the sorted spatial image (fold key).
    type FoldKey = (Vec<IndexId>, Vec<(IndexId, IndexId)>, bool);
    let mut seen: BTreeSet<ChoiceKey> = BTreeSet::new();
    let mut fold_keys: BTreeSet<FoldKey> = BTreeSet::new();
    let mut out = Vec::new();

    for subset in Combinations::new(m, n) {
        stats.subsets_examined += 1;
        let chosen: Vec<usize> = subset.iter().map(|&i| c_leaves[i]).collect();
        let c_groups = group_by_var(&ctst, &chosen);
        if c_groups.len() != q_groups.len() {
            continue;
        }
        // Coverage: every selected compute variable must appear in the
        // subset with all of its occurrences.
        if c_groups.iter().any(|(cv, occ)| c_totals[cv] != occ.len()) {
            continue;
        }
        // Enumerate var-level bijections preserving (group size, kind).
        for var_bij in var_bijections(intrinsic, compute, &q_groups, &c_groups) {
            // Enumerate leaf-level bijections within each matched group.
            for leaf_bij in leaf_bijections(&q_groups, &c_groups, &var_bij) {
                stats.index_matches += 1;
                if let Some(needs_rearrangement) = structure_match(&qtst, &ctst, &leaf_bij, opts) {
                    stats.structure_matches += 1;
                    let mut var_map: Vec<(IndexId, IndexId)> =
                        var_bij.iter().map(|(&q, &c)| (q, c)).collect();
                    var_map.sort();
                    if !seen.insert((var_map.clone(), needs_rearrangement)) {
                        continue;
                    }
                    if opts.fold_transposed {
                        let key = fold_key(intrinsic, &var_map, needs_rearrangement);
                        if !fold_keys.insert(key) {
                            continue;
                        }
                    }
                    out.push(TensorizeChoice {
                        intrinsic: intrinsic.name.clone(),
                        var_map,
                        needs_rearrangement,
                    });
                    if out.len() >= opts.max_choices {
                        return (out, stats);
                    }
                }
            }
        }
    }
    (out, stats)
}

fn fold_key(
    intrinsic: &Computation,
    var_map: &[(IndexId, IndexId)],
    needs: bool,
) -> (Vec<IndexId>, Vec<(IndexId, IndexId)>, bool) {
    // Spatial intrinsic vars: keep only the *set* of compute vars they bind.
    let mut spatial: Vec<IndexId> = var_map
        .iter()
        .filter(|&&(q, _)| intrinsic.index(q).is_spatial())
        .map(|&(_, c)| c)
        .collect();
    spatial.sort();
    let reductions: Vec<(IndexId, IndexId)> = var_map
        .iter()
        .filter(|&&(q, _)| intrinsic.index(q).is_reduction())
        .copied()
        .collect();
    (spatial, reductions, needs)
}

type VarGroups = Vec<(IndexId, Vec<usize>)>;

fn group_by_var(tst: &Tst, leaves: &[usize]) -> VarGroups {
    let mut map: BTreeMap<IndexId, Vec<usize>> = BTreeMap::new();
    for &l in leaves {
        map.entry(tst.leaf_index(l)).or_default().push(l);
    }
    map.into_iter().collect()
}

/// All bijections between intrinsic and compute variable groups that
/// preserve occurrence count and index kind.
fn var_bijections(
    intrinsic: &Computation,
    compute: &Computation,
    q_groups: &VarGroups,
    c_groups: &VarGroups,
) -> Vec<BTreeMap<IndexId, IndexId>> {
    let mut result = Vec::new();
    let mut used = vec![false; c_groups.len()];
    let mut current: Vec<usize> = Vec::with_capacity(q_groups.len());

    #[allow(clippy::too_many_arguments)] // recursive worker threading its whole state
    fn rec(
        qi: usize,
        intrinsic: &Computation,
        compute: &Computation,
        q_groups: &VarGroups,
        c_groups: &VarGroups,
        used: &mut [bool],
        current: &mut Vec<usize>,
        result: &mut Vec<BTreeMap<IndexId, IndexId>>,
    ) {
        if qi == q_groups.len() {
            let map = q_groups
                .iter()
                .zip(current.iter())
                .map(|((qv, _), &ci)| (*qv, c_groups[ci].0))
                .collect();
            result.push(map);
            return;
        }
        let (qv, q_occ) = &q_groups[qi];
        for ci in 0..c_groups.len() {
            if used[ci] {
                continue;
            }
            let (cv, c_occ) = &c_groups[ci];
            if q_occ.len() != c_occ.len() {
                continue;
            }
            if intrinsic.index(*qv).kind != compute.index(*cv).kind {
                continue;
            }
            used[ci] = true;
            current.push(ci);
            rec(
                qi + 1,
                intrinsic,
                compute,
                q_groups,
                c_groups,
                used,
                current,
                result,
            );
            current.pop();
            used[ci] = false;
        }
    }
    rec(
        0,
        intrinsic,
        compute,
        q_groups,
        c_groups,
        &mut used,
        &mut current,
        &mut result,
    );
    result
}

/// For a fixed variable bijection, all leaf-level bijections (permuting
/// occurrences within each group).
fn leaf_bijections(
    q_groups: &VarGroups,
    c_groups: &VarGroups,
    var_bij: &BTreeMap<IndexId, IndexId>,
) -> Vec<Vec<(usize, usize)>> {
    let mut per_group: Vec<Vec<Vec<(usize, usize)>>> = Vec::new();
    for (qv, q_occ) in q_groups {
        let cv = var_bij[qv];
        let c_occ = &c_groups
            .iter()
            .find(|(v, _)| *v == cv)
            .expect("var in groups")
            .1;
        let mut group_opts = Vec::new();
        for perm in permutations(c_occ.len()) {
            let pairs: Vec<(usize, usize)> = q_occ
                .iter()
                .zip(perm.iter())
                .map(|(&q, &p)| (q, c_occ[p]))
                .collect();
            group_opts.push(pairs);
        }
        per_group.push(group_opts);
    }
    // Cartesian product across groups.
    let mut result: Vec<Vec<(usize, usize)>> = vec![Vec::new()];
    for group_opts in per_group {
        let mut next = Vec::new();
        for base in &result {
            for opt in &group_opts {
                let mut combined = base.clone();
                combined.extend_from_slice(opt);
                next.push(combined);
            }
        }
        result = next;
    }
    result
}

fn permutations(n: usize) -> Vec<Vec<usize>> {
    if n == 0 {
        return vec![Vec::new()];
    }
    let mut out = Vec::new();
    let mut items: Vec<usize> = (0..n).collect();
    heap_permute(&mut items, n, &mut out);
    out
}

fn heap_permute(items: &mut Vec<usize>, k: usize, out: &mut Vec<Vec<usize>>) {
    if k == 1 {
        out.push(items.clone());
        return;
    }
    for i in 0..k {
        heap_permute(items, k - 1, out);
        if k.is_multiple_of(2) {
            items.swap(i, k - 1);
        } else {
            items.swap(0, k - 1);
        }
    }
}

/// Structure matching: checks every pair of matched leaves. Returns
/// `Some(needs_rearrangement)` on success, `None` on failure.
fn structure_match(
    qtst: &Tst,
    ctst: &Tst,
    leaf_bij: &[(usize, usize)],
    opts: &MatchOptions,
) -> Option<bool> {
    let mut needs = false;
    for a in 0..leaf_bij.len() {
        for b in (a + 1)..leaf_bij.len() {
            let (qa, ca) = leaf_bij[a];
            let (qb, cb) = leaf_bij[b];
            let q_op = qtst.op(qtst.lca(qa, qb));
            let c_op = ctst.op(ctst.lca(ca, cb));
            if q_op == c_op {
                continue;
            }
            // Relaxed case: intrinsic expects a plain access but the compute
            // leaves share an affine window — legal with a rearrangement.
            if opts.allow_rearrangement && q_op == TstOp::Access && c_op == TstOp::Add {
                needs = true;
                continue;
            }
            return None;
        }
    }
    Some(needs)
}

/// Iterator over k-combinations of `0..n` in lexicographic order.
struct Combinations {
    n: usize,
    k: usize,
    current: Vec<usize>,
    done: bool,
}

impl Combinations {
    fn new(n: usize, k: usize) -> Self {
        Combinations {
            n,
            k,
            current: (0..k).collect(),
            done: k > n,
        }
    }
}

impl Iterator for Combinations {
    type Item = Vec<usize>;

    fn next(&mut self) -> Option<Vec<usize>> {
        if self.done {
            return None;
        }
        let result = self.current.clone();
        // Advance.
        let (n, k) = (self.n, self.k);
        if k == 0 {
            self.done = true;
            return Some(result);
        }
        let mut i = k;
        loop {
            if i == 0 {
                self.done = true;
                break;
            }
            i -= 1;
            if self.current[i] != i + n - k {
                self.current[i] += 1;
                for j in (i + 1)..k {
                    self.current[j] = self.current[j - 1] + 1;
                }
                break;
            }
        }
        Some(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intrinsics;
    use crate::suites;

    fn conv() -> Computation {
        suites::conv2d_workload("conv", 64, 64, 56, 56, 3, 3).comp
    }

    /// The compute variable `choice` assigns to an intrinsic variable.
    fn image_of(choice: &TensorizeChoice, intrinsic_var: IndexId) -> Option<IndexId> {
        choice
            .var_map
            .iter()
            .find(|&&(q, _)| q == intrinsic_var)
            .map(|&(_, c)| c)
    }

    #[test]
    fn combinations_count_is_binomial() {
        assert_eq!(Combinations::new(9, 4).count(), 126);
        assert_eq!(Combinations::new(5, 5).count(), 1);
        assert_eq!(Combinations::new(4, 0).count(), 1);
        assert_eq!(Combinations::new(3, 4).count(), 0);
    }

    #[test]
    fn combinations_are_sorted_and_unique() {
        let all: Vec<Vec<usize>> = Combinations::new(6, 3).collect();
        assert_eq!(all.len(), 20);
        for c in &all {
            assert!(c.windows(2).all(|w| w[0] < w[1]));
        }
        let set: std::collections::BTreeSet<_> = all.iter().collect();
        assert_eq!(set.len(), 20);
    }

    #[test]
    fn conv_to_gemm_examines_126_subsets_and_finds_6_choices() {
        // Reproduces §IV-B: "the matching examines 126 leaf subsets and
        // finds six legal tensorize choices".
        let gemm = intrinsics::gemm_intrinsic(16, 16, 16);
        let (choices, stats) =
            find_tensorize_choices_with_stats(&conv(), &gemm.comp, &MatchOptions::default());
        assert_eq!(stats.subsets_examined, 126);
        assert_eq!(choices.len(), 6);
    }

    #[test]
    fn conv_to_gemm_strict_finds_4_choices_without_rearrangement() {
        let gemm = intrinsics::gemm_intrinsic(16, 16, 16);
        let mut opts = MatchOptions::strict();
        opts.fold_transposed = true;
        let choices = find_tensorize_choices(&conv(), &gemm.comp, &opts);
        assert_eq!(choices.len(), 4);
        assert!(choices.iter().all(|c| !c.needs_rearrangement));
    }

    #[test]
    fn conv_to_gemm_reduction_maps_to_reduction() {
        let gemm = intrinsics::gemm_intrinsic(16, 16, 16);
        let conv = conv();
        let gk = gemm.comp.index_by_name("k").unwrap();
        for ch in find_tensorize_choices(&conv, &gemm.comp, &MatchOptions::default()) {
            let image = image_of(&ch, gk).unwrap();
            assert!(
                conv.index(image).is_reduction(),
                "choice {ch:?} maps reduction to spatial"
            );
        }
    }

    #[test]
    fn conv_spatial_side_is_k_plus_x_or_y() {
        // §VII-B: "three loops of convolutions match the GEMM intrinsic:
        // k, x/y, and c/r/s".
        let gemm = intrinsics::gemm_intrinsic(16, 16, 16);
        let conv = conv();
        let ck = conv.index_by_name("k").unwrap();
        for ch in find_tensorize_choices(&conv, &gemm.comp, &MatchOptions::default()) {
            let spatials: Vec<IndexId> = ch
                .var_map
                .iter()
                .filter(|&&(q, _)| gemm.comp.index(q).is_spatial())
                .map(|&(_, c)| c)
                .collect();
            assert!(
                spatials.contains(&ck),
                "k must always be tensorized: {ch:?}"
            );
        }
    }

    #[test]
    fn rearrangement_choices_pair_window_loops() {
        let gemm = intrinsics::gemm_intrinsic(16, 16, 16);
        let conv = conv();
        let choices = find_tensorize_choices(&conv, &gemm.comp, &MatchOptions::default());
        let rearranged: Vec<_> = choices.iter().filter(|c| c.needs_rearrangement).collect();
        assert_eq!(rearranged.len(), 2);
        let x = conv.index_by_name("x").unwrap();
        let r = conv.index_by_name("r").unwrap();
        let y = conv.index_by_name("y").unwrap();
        let s = conv.index_by_name("s").unwrap();
        for ch in rearranged {
            let vars = ch.tensorized_indices();
            let xr = vars.contains(&x) && vars.contains(&r);
            let ys = vars.contains(&y) && vars.contains(&s);
            assert!(xr || ys, "rearranged choice must pair a window: {ch:?}");
        }
    }

    #[test]
    fn gemm_to_gemv_has_choices() {
        let gemm_wl = suites::gemm_workload("g", 256, 256, 256);
        let gemv = intrinsics::gemv_intrinsic(16, 16);
        let choices = find_tensorize_choices(&gemm_wl.comp, &gemv.comp, &MatchOptions::default());
        assert!(!choices.is_empty());
        // GEMV's reduction j must bind GEMM's reduction k.
        let gj = gemv.comp.index_by_name("j").unwrap();
        let gk = gemm_wl.comp.index_by_name("k").unwrap();
        for ch in &choices {
            assert_eq!(image_of(ch, gj), Some(gk));
        }
    }

    #[test]
    fn gemm_to_dot_matches_reduction_only() {
        let gemm_wl = suites::gemm_workload("g", 64, 64, 64);
        let dot = intrinsics::dot_intrinsic(64);
        let choices = find_tensorize_choices(&gemm_wl.comp, &dot.comp, &MatchOptions::default());
        assert_eq!(choices.len(), 1);
        assert_eq!(choices[0].tensorized_indices().len(), 1);
    }

    #[test]
    fn conv_to_conv2d_intrinsic_matches_identically() {
        let conv2d = intrinsics::conv2d_intrinsic(16, 8, 3, 3);
        let choices = find_tensorize_choices(&conv(), &conv2d.comp, &MatchOptions::default());
        assert!(!choices.is_empty());
        // The full 9-leaf match covers all six conv loops.
        assert!(choices.iter().any(|c| c.tensorized_indices().len() == 6));
    }

    #[test]
    fn mttkrp_gemv_covers_four_loops_across_stages() {
        // §VII-B: "the GEMV intrinsic benefits four loops represented by
        // i, k, l, and j in MTTKRP" — over its two stages.
        let (s1, s2) = suites::mttkrp_stages("m", 128, 128, 128, 128);
        let gemv = intrinsics::gemv_intrinsic(16, 16);
        let mut covered: BTreeSet<String> = BTreeSet::new();
        for (wl, comp) in [(&s1, &s1.comp), (&s2, &s2.comp)] {
            let _ = wl;
            for ch in find_tensorize_choices(comp, &gemv.comp, &MatchOptions::default()) {
                for idx in ch.tensorized_indices() {
                    covered.insert(comp.index(idx).name.clone());
                }
            }
        }
        for name in ["i", "k", "l", "j"] {
            assert!(
                covered.contains(name),
                "GEMV should cover loop {name}: {covered:?}"
            );
        }
    }

    #[test]
    fn mttkrp_gemm_matches_stage1_only() {
        // §VII-B: "Only the first A×B stage can be divided into GEMM
        // sub-workloads and accelerated by the GEMM intrinsic."
        let gemm = intrinsics::gemm_intrinsic(16, 16, 16);
        let opts = MatchOptions::default();
        let fused = suites::mttkrp_workload("m", 128, 128, 128, 128);
        assert!(find_tensorize_choices(&fused.comp, &gemm.comp, &opts).is_empty());
        let (s1, s2) = suites::mttkrp_stages("m", 128, 128, 128, 128);
        let c1 = find_tensorize_choices(&s1.comp, &gemm.comp, &opts);
        assert!(!c1.is_empty(), "stage 1 is a matricized GEMM");
        // Stage 2 is a per-j batched contraction — the GEMM operand M[i,k]
        // cannot secretly vary with j, so no GEMM choice exists.
        assert!(find_tensorize_choices(&s2.comp, &gemm.comp, &opts).is_empty());
        // The GEMM choices on stage 1 bind l (the reduction) plus j and one
        // of i/k — "three loops represented by i/k, l, and j".
        let l = s1.comp.index_by_name("l").unwrap();
        let j = s1.comp.index_by_name("j").unwrap();
        for ch in &c1 {
            let vars = ch.tensorized_indices();
            assert!(vars.contains(&l));
            assert!(vars.contains(&j));
        }
    }

    #[test]
    fn intrinsic_larger_than_compute_yields_nothing() {
        let tiny = Computation::builder("tiny")
            .spatial("i", 4)
            .output("O", &["i"])
            .input("A", &["i"])
            .build()
            .unwrap();
        let gemm = intrinsics::gemm_intrinsic(16, 16, 16);
        assert!(find_tensorize_choices(&tiny, &gemm.comp, &MatchOptions::default()).is_empty());
    }

    #[test]
    fn max_choices_truncates() {
        let gemm = intrinsics::gemm_intrinsic(16, 16, 16);
        let opts = MatchOptions {
            max_choices: 2,
            ..Default::default()
        };
        let choices = find_tensorize_choices(&conv(), &gemm.comp, &opts);
        assert_eq!(choices.len(), 2);
    }

    #[test]
    fn describe_is_informative() {
        let gemm = intrinsics::gemm_intrinsic(16, 16, 16);
        let conv = conv();
        let choices = find_tensorize_choices(&conv, &gemm.comp, &MatchOptions::default());
        let desc = choices[0].describe(&conv, &gemm.comp);
        assert!(desc.starts_with("gemm{"));
        assert!(desc.contains("<-"));
    }

    #[test]
    fn fig4_gemv_choices_on_gemm_match_paper() {
        // Fig. 4: four tensorize choices for GEMM against vector
        // intrinsics. #1 (columns of N as GEMV vectors) and #3 (rows of M,
        // with transposition) are legal; #2 — treating a *row* of N as the
        // reduced vector — is illegal because it contracts GEMM's spatial
        // j and "outputs incorrect results".
        let gemm_wl = suites::gemm_workload("g", 64, 64, 64);
        let gemv = intrinsics::gemv_intrinsic(16, 16);
        let opts = MatchOptions {
            fold_transposed: false,
            ..Default::default()
        };
        let choices = find_tensorize_choices(&gemm_wl.comp, &gemv.comp, &opts);
        // Exactly the #1 and #3 mappings.
        assert_eq!(choices.len(), 2);
        let gi = gemv.comp.index_by_name("i").unwrap();
        let gj = gemv.comp.index_by_name("j").unwrap();
        let wi = gemm_wl.comp.index_by_name("i").unwrap();
        let wj = gemm_wl.comp.index_by_name("j").unwrap();
        let wk = gemm_wl.comp.index_by_name("k").unwrap();
        let spatial_images: BTreeSet<_> =
            choices.iter().map(|c| image_of(c, gi).unwrap()).collect();
        assert_eq!(spatial_images, BTreeSet::from([wi, wj]));
        for c in &choices {
            // The GEMV reduction always contracts GEMM's k — never the
            // spatial j (Fig. 4's illegal choice #2).
            assert_eq!(image_of(c, gj), Some(wk));
        }
    }

    #[test]
    fn fig4_axpy_choice_on_gemm() {
        // Fig. 4 choice #4: "multiply an element of M and a row of N to
        // match AXPY". The AXPY vector loop binds one of GEMM's spatial
        // loops; the scalar operand is implicit.
        let gemm_wl = suites::gemm_workload("g", 64, 64, 64);
        let axpy = intrinsics::axpy_intrinsic(16);
        let opts = MatchOptions {
            fold_transposed: false,
            ..Default::default()
        };
        let choices = find_tensorize_choices(&gemm_wl.comp, &axpy, &opts);
        assert!(!choices.is_empty());
        let ai = axpy.index_by_name("i").unwrap();
        for c in &choices {
            let img = image_of(c, ai).unwrap();
            assert!(gemm_wl.comp.index(img).is_spatial(), "{c:?}");
        }
    }

    #[test]
    fn permutations_are_exhaustive() {
        assert_eq!(permutations(0).len(), 1);
        assert_eq!(permutations(1).len(), 1);
        assert_eq!(permutations(3).len(), 6);
        let p4 = permutations(4);
        assert_eq!(p4.len(), 24);
        let set: BTreeSet<_> = p4.iter().collect();
        assert_eq!(set.len(), 24);
    }
}
