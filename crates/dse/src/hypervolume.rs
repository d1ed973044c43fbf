//! Exact hypervolume indicator (minimization) via the "hypervolume by
//! slicing objectives" (HSO) recursion.
//!
//! "In multi-objective optimizations, the hypervolume indicator measures
//! the size of the space dominated by a set of design points" (§VII-C).
//! MOBO's Monte-Carlo EHVI calls it once per posterior sample — 192
//! candidates × 24 samples per acquisition — on fronts of only a few
//! points, so the cost is allocation and copying, not the recursion's
//! asymptotics (While, Bradstreet & Barone, IEEE TEC 2012, give the
//! exact-HV algorithms this follows). The recursion therefore runs on a
//! flat row-major coordinate buffer: each depth slices the points by
//! index in reusable [`HvScratch`] buffers, projections are prefixes of
//! the same rows, and the 2-D level closes with a running minimum
//! instead of a 1-D recursion per slice. [`adds_nothing`] lets EHVI skip
//! samples whose improvement is exactly zero without calling HSO at all.

use crate::pareto::dominates;

/// Reusable buffers for [`hypervolume_flat`]: per recursion depth, the
/// slice order on that depth's last axis and the Pareto-filtered
/// projection handed one depth down. Holding one across calls makes
/// repeated hypervolume computations allocation-free.
#[derive(Debug, Clone, Default)]
pub struct HvScratch {
    front: Vec<usize>,
    in_box: Vec<usize>,
    levels: Vec<Level>,
}

#[derive(Debug, Clone, Default)]
struct Level {
    sorted: Vec<usize>,
    kept: Vec<usize>,
}

/// Hypervolume of `points` with respect to `reference` (all objectives
/// minimized; points not strictly better than the reference in every
/// objective contribute only their clipped region).
///
/// # Panics
/// Panics if a point's dimensionality differs from the reference's.
pub fn hypervolume(points: &[Vec<f64>], reference: &[f64]) -> f64 {
    let d = reference.len();
    let mut coords = Vec::with_capacity(points.len() * d);
    for p in points {
        assert_eq!(p.len(), d, "point dimensionality mismatch");
        coords.extend_from_slice(p);
    }
    hypervolume_flat(&coords, reference, &mut HvScratch::default())
}

/// [`hypervolume`] over points packed row-major in `coords`
/// (`reference.len()` values per point), reusing `scratch`'s buffers.
/// Bit-identical to [`hypervolume`] on the same points in the same order.
///
/// # Panics
/// Panics if `reference` is empty or `coords.len()` is not a multiple of
/// `reference.len()`.
pub fn hypervolume_flat(coords: &[f64], reference: &[f64], scratch: &mut HvScratch) -> f64 {
    let d = reference.len();
    assert!(
        d > 0 && coords.len().is_multiple_of(d),
        "point dimensionality mismatch"
    );
    let row = |i: usize| &coords[i * d..(i + 1) * d];
    // Clip to the reference box and drop points outside it.
    scratch.in_box.clear();
    scratch.in_box.extend(
        (0..coords.len() / d).filter(|&i| row(i).iter().zip(reference).all(|(x, r)| x < r)),
    );
    // Keep only the non-dominated subset.
    pareto_filter(coords, d, d, &scratch.in_box, &mut scratch.front);
    // Depths d down to 2 each slice once; the 1-D level needs no buffers.
    if scratch.levels.len() < d - 1 {
        scratch.levels.resize_with(d - 1, Level::default);
    }
    hso(coords, d, reference, &scratch.front, &mut scratch.levels)
}

/// True when adding `point` to the row-major `front` leaves its
/// hypervolume bit-for-bit unchanged because [`hypervolume`] drops the
/// point before slicing: it lies outside the reference box, or an in-box
/// front point weakly dominates it (a dominator or an earlier duplicate
/// — in both cases the front's own survivors are unchanged too).
pub fn adds_nothing(front: &[f64], point: &[f64], reference: &[f64]) -> bool {
    let inside = |p: &[f64]| p.iter().zip(reference).all(|(x, r)| x < r);
    !inside(point)
        || front
            .chunks_exact(reference.len())
            .any(|f| inside(f) && f.iter().zip(point).all(|(a, b)| a <= b))
}

/// Writes to `out` the members of `pts` whose first `dims` coordinates
/// are non-dominated among `pts` (first occurrence wins among exact
/// duplicates), in `pts` order — [`crate::pareto::pareto_indices`] over
/// the projected rows.
fn pareto_filter(coords: &[f64], stride: usize, dims: usize, pts: &[usize], out: &mut Vec<usize>) {
    let proj = |i: usize| &coords[i * stride..i * stride + dims];
    out.clear();
    'outer: for (i, &a) in pts.iter().enumerate() {
        for (j, &b) in pts.iter().enumerate() {
            if i != j && (dominates(proj(b), proj(a)) || (proj(a) == proj(b) && j < i)) {
                continue 'outer;
            }
        }
        out.push(a);
    }
}

/// HSO over the rows `pts` of `coords`, projected onto the first
/// `reference.len()` axes: slice along the last one and recurse on each
/// slice's non-dominated projection, `levels[0]` holding this depth's
/// buffers.
fn hso(
    coords: &[f64],
    stride: usize,
    reference: &[f64],
    pts: &[usize],
    levels: &mut [Level],
) -> f64 {
    let d = reference.len();
    let at = |i: usize, axis: usize| coords[i * stride + axis];
    if pts.is_empty() {
        return 0.0;
    }
    if d == 1 {
        let best = pts.iter().map(|&i| at(i, 0)).fold(f64::INFINITY, f64::min);
        return (reference[0] - best).max(0.0);
    }
    // Slice along the last objective.
    let axis = d - 1;
    let (level, deeper) = levels.split_first_mut().expect("one level per depth");
    let sorted = &mut level.sorted;
    sorted.clear();
    sorted.extend_from_slice(pts);
    sorted.sort_by(|&a, &b| {
        at(a, axis)
            .partial_cmp(&at(b, axis))
            .expect("no NaN objectives")
    });
    let mut volume = 0.0;
    // In 2-D every slice's projection is 1-D, whose hypervolume is the
    // reference minus the smallest active coordinate: a running minimum.
    let mut best = f64::INFINITY;
    for k in 0..sorted.len() {
        if d == 2 {
            best = best.min(at(sorted[k], 0));
        }
        let z_lo = at(sorted[k], axis);
        let z_hi = match sorted.get(k + 1) {
            Some(&next) => at(next, axis),
            None => reference[axis],
        };
        let depth = z_hi - z_lo;
        if depth <= 0.0 {
            continue;
        }
        let sub = if d == 2 {
            (reference[0] - best).max(0.0)
        } else {
            // Points active in this slice: those with coordinate <= z_lo.
            // Non-dominated filtering of the projection keeps the
            // recursion cheap.
            pareto_filter(coords, stride, axis, &sorted[..=k], &mut level.kept);
            hso(coords, stride, &reference[..axis], &level.kept, deeper)
        };
        volume += depth * sub;
    }
    volume
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pareto;
    use proptest::prelude::*;

    /// The `Vec<Vec<f64>>` HSO recursion the flat routine replaced, kept
    /// as the bit-exactness oracle.
    fn oracle(points: &[Vec<f64>], reference: &[f64]) -> f64 {
        let clipped: Vec<Vec<f64>> = points
            .iter()
            .filter(|p| p.iter().zip(reference.iter()).all(|(x, r)| x < r))
            .cloned()
            .collect();
        let refs: Vec<&[f64]> = clipped.iter().map(|v| v.as_slice()).collect();
        let idx = pareto::pareto_indices(&refs);
        let front: Vec<Vec<f64>> = idx.into_iter().map(|i| clipped[i].clone()).collect();
        oracle_hso(&front, reference)
    }

    fn oracle_hso(points: &[Vec<f64>], reference: &[f64]) -> f64 {
        let d = reference.len();
        if points.is_empty() {
            return 0.0;
        }
        if d == 1 {
            let best = points.iter().map(|p| p[0]).fold(f64::INFINITY, f64::min);
            return (reference[0] - best).max(0.0);
        }
        let axis = d - 1;
        let mut sorted: Vec<&Vec<f64>> = points.iter().collect();
        sorted.sort_by(|a, b| a[axis].partial_cmp(&b[axis]).expect("no NaN objectives"));
        let mut volume = 0.0;
        for k in 0..sorted.len() {
            let z_lo = sorted[k][axis];
            let z_hi = if k + 1 < sorted.len() {
                sorted[k + 1][axis]
            } else {
                reference[axis]
            };
            let depth = z_hi - z_lo;
            if depth <= 0.0 {
                continue;
            }
            let active: Vec<Vec<f64>> = sorted[..=k].iter().map(|p| p[..axis].to_vec()).collect();
            let refs: Vec<&[f64]> = active.iter().map(|v| v.as_slice()).collect();
            let idx = pareto::pareto_indices(&refs);
            let proj: Vec<Vec<f64>> = idx.into_iter().map(|i| active[i].clone()).collect();
            volume += depth * oracle_hso(&proj, &reference[..axis]);
        }
        volume
    }

    /// A coordinate in a unit reference box: half the time from a small
    /// grid (signed zeros, exact ties, the box face at 1.0, and values
    /// outside it), half the time continuous.
    fn coord() -> impl Strategy<Value = f64> {
        const GRID: [f64; 8] = [-0.0, 0.0, 0.25, 0.5, 0.75, 1.0, 1.1, 1.3];
        prop_oneof![(0usize..GRID.len()).prop_map(|k| GRID[k]), -0.1f64..1.2]
    }

    fn rows() -> impl Strategy<Value = Vec<Vec<f64>>> {
        prop::collection::vec(prop::collection::vec(coord(), 3), 0..7)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn flat_hso_matches_oracle_bit_for_bit(
            d in 1usize..4,
            raw in rows(),
            extra in prop::collection::vec(coord(), 3),
            dup in 0usize..8,
            slack in prop::collection::vec(0.0f64..0.3, 3),
        ) {
            let reference = vec![1.0; d];
            let mut front: Vec<Vec<f64>> = raw.iter().map(|p| p[..d].to_vec()).collect();
            // An exact duplicate and a dominated extra, when there is a
            // point to copy.
            if let Some(p) = front.get(dup).cloned() {
                let worse = p.iter().zip(&slack).map(|(x, s)| x + s).collect();
                front.push(p);
                front.push(worse);
            }
            let extra = extra[..d].to_vec();
            let mut augmented = front.clone();
            augmented.push(extra.clone());

            let base = hypervolume(&front, &reference);
            prop_assert_eq!(base.to_bits(), oracle(&front, &reference).to_bits());
            let hv = hypervolume(&augmented, &reference);
            prop_assert_eq!(hv.to_bits(), oracle(&augmented, &reference).to_bits());

            // One scratch reused across dimensionalities stays exact.
            let mut scratch = HvScratch::default();
            let flat: Vec<f64> = augmented.concat();
            prop_assert_eq!(hypervolume_flat(&[0.5; 3], &[1.0; 3], &mut scratch).to_bits(), 0.125f64.to_bits());
            prop_assert_eq!(hypervolume_flat(&flat, &reference, &mut scratch).to_bits(), hv.to_bits());

            // A skipped sample's improvement is exactly zero.
            if adds_nothing(&front.concat(), &extra, &reference) {
                prop_assert_eq!(hv.to_bits(), base.to_bits());
            }
        }
    }

    #[test]
    fn single_point_2d() {
        let hv = hypervolume(&[vec![1.0, 1.0]], &[3.0, 3.0]);
        assert!((hv - 4.0).abs() < 1e-12);
    }

    #[test]
    fn two_overlapping_points_2d() {
        // [1,2] and [2,1] vs ref [3,3]: 2 + 2 - 1 = 3.
        let hv = hypervolume(&[vec![1.0, 2.0], vec![2.0, 1.0]], &[3.0, 3.0]);
        assert!((hv - 3.0).abs() < 1e-12);
    }

    #[test]
    fn dominated_point_adds_nothing() {
        let base = hypervolume(&[vec![1.0, 1.0]], &[3.0, 3.0]);
        let more = hypervolume(&[vec![1.0, 1.0], vec![2.0, 2.0]], &[3.0, 3.0]);
        assert!((base - more).abs() < 1e-12);
    }

    #[test]
    fn point_outside_reference_is_ignored() {
        let hv = hypervolume(&[vec![4.0, 1.0]], &[3.0, 3.0]);
        assert_eq!(hv, 0.0);
        let hv2 = hypervolume(&[vec![4.0, 1.0], vec![1.0, 1.0]], &[3.0, 3.0]);
        assert!((hv2 - 4.0).abs() < 1e-12);
    }

    #[test]
    fn single_point_3d_is_box_volume() {
        let hv = hypervolume(&[vec![1.0, 1.0, 1.0]], &[2.0, 3.0, 4.0]);
        assert!((hv - 1.0 * 2.0 * 3.0).abs() < 1e-12);
    }

    #[test]
    fn three_d_union() {
        // Two boxes: [0,0,0] to ref [2,2,2] clipped at... points [1,1,0] and
        // [0,0,1] vs ref [2,2,2]:
        // box A = (2-1)(2-1)(2-0) = 2; box B = (2)(2)(2-1) = 4;
        // overlap = (2-1)(2-1)(2-1) = 1; union = 5.
        let hv = hypervolume(
            &[vec![1.0, 1.0, 0.0], vec![0.0, 0.0, 1.0]],
            &[2.0, 2.0, 2.0],
        );
        assert!((hv - 5.0).abs() < 1e-12, "hv = {hv}");
    }

    #[test]
    fn adding_nondominated_point_grows_hv() {
        let r = [10.0, 10.0, 10.0];
        let a = hypervolume(&[vec![5.0, 5.0, 5.0]], &r);
        let b = hypervolume(&[vec![5.0, 5.0, 5.0], vec![1.0, 9.0, 9.0]], &r);
        assert!(b > a);
    }

    #[test]
    fn hv_is_permutation_invariant() {
        let pts = vec![
            vec![1.0, 5.0, 3.0],
            vec![2.0, 2.0, 4.0],
            vec![4.0, 1.0, 1.0],
        ];
        let r = [6.0, 6.0, 6.0];
        let a = hypervolume(&pts, &r);
        let mut rev = pts.clone();
        rev.reverse();
        let b = hypervolume(&rev, &r);
        assert!((a - b).abs() < 1e-9);
    }

    #[test]
    fn empty_front_is_zero() {
        assert_eq!(hypervolume(&[], &[1.0, 1.0]), 0.0);
    }

    #[test]
    fn adds_nothing_exactly_when_dropped_before_slicing() {
        let front = [0.2, 0.6, 0.6, 0.2];
        let r = [1.0, 1.0];
        assert!(adds_nothing(&front, &[1.0, 0.1], &r), "on the box face");
        assert!(adds_nothing(&front, &[0.6, 0.2], &r), "duplicate");
        assert!(adds_nothing(&front, &[0.7, 0.9], &r), "dominated");
        assert!(!adds_nothing(&front, &[0.1, 0.9], &r), "extends the front");
        assert!(!adds_nothing(&front, &[0.5, 0.5], &r), "fills a notch");
        // An out-of-box front point is clipped away, so it shadows nothing.
        assert!(!adds_nothing(&[1.2, 0.0], &[0.5, 0.5], &r));
    }
}
