//! Problem abstraction shared by all DSE algorithms.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::pareto;

/// A point in a discrete search space: one choice index per dimension.
pub type Point = Vec<usize>;

/// A discrete search space described by its per-dimension cardinalities.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SearchSpace {
    /// Number of choices in each dimension.
    pub dim_sizes: Vec<usize>,
}

impl SearchSpace {
    /// Creates a space.
    ///
    /// # Panics
    /// Panics if any dimension has zero choices.
    pub fn new(dim_sizes: Vec<usize>) -> Self {
        assert!(
            dim_sizes.iter().all(|&s| s > 0),
            "dimensions must be non-empty"
        );
        SearchSpace { dim_sizes }
    }

    /// Number of dimensions.
    pub fn len(&self) -> usize {
        self.dim_sizes.len()
    }

    /// True when the space has no dimensions.
    pub fn is_empty(&self) -> bool {
        self.dim_sizes.is_empty()
    }

    /// Total point count.
    pub fn size(&self) -> u64 {
        self.dim_sizes.iter().map(|&s| s as u64).product()
    }

    /// Uniformly random point.
    pub fn random_point<R: Rng + ?Sized>(&self, rng: &mut R) -> Point {
        self.dim_sizes
            .iter()
            .map(|&s| rng.gen_range(0..s))
            .collect()
    }

    /// Normalizes a point into `[0, 1]^d`.
    pub fn normalize(&self, p: &Point) -> Vec<f64> {
        p.iter()
            .zip(self.dim_sizes.iter())
            .map(|(&c, &s)| {
                if s <= 1 {
                    0.0
                } else {
                    c as f64 / (s - 1) as f64
                }
            })
            .collect()
    }

    /// True when `p` has the right shape and in-range coordinates.
    pub fn contains(&self, p: &Point) -> bool {
        p.len() == self.dim_sizes.len() && p.iter().zip(&self.dim_sizes).all(|(&c, &s)| c < s)
    }

    /// Single-step neighbors of a point.
    pub fn neighbors(&self, p: &Point) -> Vec<Point> {
        let mut out = Vec::new();
        for (i, &c) in p.iter().enumerate() {
            if c > 0 {
                let mut q = p.clone();
                q[i] -= 1;
                out.push(q);
            }
            if c + 1 < self.dim_sizes[i] {
                let mut q = p.clone();
                q[i] += 1;
                out.push(q);
            }
        }
        out
    }
}

/// A black-box multi-objective minimization problem over a discrete space.
///
/// Evaluations may be expensive ("it takes minutes to hours to model,
/// implement, and profile accelerators per trial"); optimizers are budgeted
/// by evaluation count.
pub trait Problem {
    /// The search space.
    fn space(&self) -> &SearchSpace;

    /// Number of objectives (all minimized).
    fn num_objectives(&self) -> usize;

    /// Evaluates a point, returning `None` when the point is infeasible
    /// (e.g. the generator rejects the configuration).
    fn evaluate(&mut self, point: &Point) -> Option<Vec<f64>>;

    /// Evaluates a batch of points, returning objective vectors **in
    /// submission order**. The default runs serially; problems backed by a
    /// parallel evaluation runtime (e.g. the co-design `HwProblem`)
    /// override this to fan the batch out to worker threads. Overrides
    /// must return exactly what repeated [`Problem::evaluate`] calls
    /// would, so thread count never changes optimizer trajectories.
    fn evaluate_batch(&mut self, points: &[Point]) -> Vec<Option<Vec<f64>>> {
        points.iter().map(|p| self.evaluate(p)).collect()
    }
}

/// One recorded evaluation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Evaluation {
    /// The evaluated point.
    pub point: Point,
    /// Its objective vector (minimization).
    pub objectives: Vec<f64>,
}

runtime::wire_struct!(Evaluation { point, objectives });

/// The full history of an optimizer run, in evaluation order.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct OptimizerResult {
    /// Optimizer name.
    pub optimizer: String,
    /// Every feasible evaluation, in order.
    pub evaluations: Vec<Evaluation>,
    /// Number of infeasible probes (not counted in `evaluations`).
    pub infeasible: usize,
}

runtime::wire_struct!(OptimizerResult {
    optimizer,
    evaluations,
    infeasible,
});

impl OptimizerResult {
    /// Creates an empty result for an optimizer.
    pub fn new(optimizer: impl Into<String>) -> Self {
        OptimizerResult {
            optimizer: optimizer.into(),
            evaluations: Vec::new(),
            infeasible: 0,
        }
    }

    /// Indices of the non-dominated evaluations.
    pub fn pareto_indices(&self) -> Vec<usize> {
        let objs: Vec<&[f64]> = self
            .evaluations
            .iter()
            .map(|e| e.objectives.as_slice())
            .collect();
        pareto::pareto_indices(&objs)
    }

    /// The non-dominated evaluations.
    pub fn pareto_front(&self) -> Vec<&Evaluation> {
        self.pareto_indices()
            .into_iter()
            .map(|i| &self.evaluations[i])
            .collect()
    }

    /// Hypervolume of the front formed by the first `n` evaluations, for
    /// each `n` in `1..=len` — the convergence curve of Fig. 10.
    pub fn hypervolume_history(&self, reference: &[f64]) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.evaluations.len());
        let mut front: Vec<Vec<f64>> = Vec::new();
        for e in &self.evaluations {
            front.push(e.objectives.clone());
            let refs: Vec<&[f64]> = front.iter().map(|v| v.as_slice()).collect();
            let idx = pareto::pareto_indices(&refs);
            let nd: Vec<Vec<f64>> = idx.into_iter().map(|i| front[i].clone()).collect();
            out.push(crate::hypervolume::hypervolume(&nd, reference));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn space_basics() {
        let s = SearchSpace::new(vec![3, 4, 5]);
        assert_eq!(s.size(), 60);
        assert_eq!(s.len(), 3);
        assert!(s.contains(&vec![2, 3, 4]));
        assert!(!s.contains(&vec![3, 0, 0]));
        assert!(!s.contains(&vec![0, 0]));
    }

    #[test]
    fn normalize_unit_cube() {
        let s = SearchSpace::new(vec![2, 1]);
        assert_eq!(s.normalize(&vec![1, 0]), vec![1.0, 0.0]);
    }

    #[test]
    fn random_points_in_space() {
        let s = SearchSpace::new(vec![7, 9]);
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..50 {
            assert!(s.contains(&s.random_point(&mut rng)));
        }
    }

    #[test]
    fn neighbors_edge_cases() {
        let s = SearchSpace::new(vec![3]);
        assert_eq!(s.neighbors(&vec![0]), vec![vec![1]]);
        assert_eq!(s.neighbors(&vec![2]), vec![vec![1]]);
        assert_eq!(s.neighbors(&vec![1]).len(), 2);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_dim_panics() {
        let _ = SearchSpace::new(vec![3, 0]);
    }

    #[test]
    fn result_pareto_and_best() {
        let mut r = OptimizerResult::new("test");
        r.evaluations.push(Evaluation {
            point: vec![0],
            objectives: vec![1.0, 2.0],
        });
        r.evaluations.push(Evaluation {
            point: vec![1],
            objectives: vec![2.0, 1.0],
        });
        r.evaluations.push(Evaluation {
            point: vec![2],
            objectives: vec![3.0, 3.0],
        });
        assert_eq!(r.pareto_indices(), vec![0, 1]);
        assert_eq!(r.pareto_front().len(), 2);
    }

    #[test]
    fn hypervolume_history_is_monotone() {
        let mut r = OptimizerResult::new("test");
        r.evaluations.push(Evaluation {
            point: vec![0],
            objectives: vec![3.0, 3.0],
        });
        r.evaluations.push(Evaluation {
            point: vec![1],
            objectives: vec![1.0, 4.0],
        });
        r.evaluations.push(Evaluation {
            point: vec![2],
            objectives: vec![2.0, 2.0],
        });
        let hv = r.hypervolume_history(&[5.0, 5.0]);
        assert_eq!(hv.len(), 3);
        assert!(hv.windows(2).all(|w| w[1] >= w[0] - 1e-12));
    }
}
