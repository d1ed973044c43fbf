//! Design-space exploration algorithms for HASCO (§V-B, Algorithm 1).
//!
//! This crate implements the hardware DSE machinery of the paper from
//! scratch:
//!
//! * [`mobo::Mobo`] — multi-objective Bayesian optimization with a
//!   Gaussian-process surrogate per objective and a hypervolume-based
//!   probability-of-improvement acquisition function (the paper's method);
//! * [`nsga2::Nsga2`] — the NSGA-II genetic algorithm \[22\] baseline;
//! * [`random::RandomSearch`] — the random-search baseline;
//! * [`pareto`] / [`hypervolume`] — Pareto-set maintenance and the exact
//!   hypervolume indicator used to compare convergence (Fig. 10).
//!
//! All optimizers minimize a vector of objectives over a discrete
//! [`problem::SearchSpace`] through the [`problem::Problem`] trait, and
//! record every evaluation so benches can replay convergence histories.
//!
//! # Example
//!
//! ```
//! use dse::problem::{Problem, SearchSpace, Point};
//! use dse::random::RandomSearch;
//! use dse::Optimizer;
//!
//! struct Toy(SearchSpace);
//! impl Problem for Toy {
//!     fn space(&self) -> &SearchSpace { &self.0 }
//!     fn num_objectives(&self) -> usize { 2 }
//!     fn evaluate(&mut self, p: &Point) -> Option<Vec<f64>> {
//!         Some(vec![p[0] as f64, (10 - p[1]) as f64])
//!     }
//! }
//! let mut toy = Toy(SearchSpace::new(vec![11, 11]));
//! let result = RandomSearch::new(42).run(&mut toy, 20);
//! assert!(!result.pareto_front().is_empty());
//! ```

pub mod gp;
pub mod hypervolume;
pub mod linalg;
pub mod mobo;
pub mod nsga2;
pub mod pareto;
pub mod problem;
pub mod progress;
pub mod random;
pub mod staged;

pub use problem::{Evaluation, OptimizerResult, Point, Problem, SearchSpace};
pub use progress::{BatchUpdate, NoProgress, Progress};
pub use staged::rank_top_k;

/// A budgeted multi-objective optimizer over a discrete space.
pub trait Optimizer {
    /// Runs the optimizer for at most `max_evals` problem evaluations and
    /// returns the full evaluation history.
    ///
    /// Equivalent to [`Optimizer::run_with_progress`] with [`NoProgress`]
    /// — same trajectory, evaluation for evaluation.
    fn run(&mut self, problem: &mut dyn Problem, max_evals: usize) -> OptimizerResult {
        self.run_with_progress(problem, max_evals, &NoProgress)
    }

    /// Like [`Optimizer::run`], but reports every evaluated batch to
    /// `progress` (from the driver thread, in an order independent of the
    /// problem's internal parallelism) and stops early — returning the
    /// history so far — when the observer answers `false`.
    fn run_with_progress(
        &mut self,
        problem: &mut dyn Problem,
        max_evals: usize,
        progress: &dyn Progress,
    ) -> OptimizerResult;

    /// Name for reports.
    fn name(&self) -> &'static str;
}

#[cfg(test)]
mod batch_seam_tests {
    //! The seam contract: an optimizer driven through a problem with a
    //! custom `evaluate_batch` (here instrumented, as a parallel runtime
    //! would be) produces exactly the history the serial default produces.

    use crate::mobo::Mobo;
    use crate::nsga2::Nsga2;
    use crate::problem::{Point, Problem, SearchSpace};
    use crate::Optimizer;

    fn objectives(p: &Point) -> Option<Vec<f64>> {
        // A hole makes infeasible paths exercise too.
        if (p[0] + p[1]).is_multiple_of(5) {
            return None;
        }
        let x = p[0] as f64 / 12.0;
        let y = p[1] as f64 / 12.0;
        Some(vec![0.1 + x * x + y, 0.1 + (1.0 - x) * (1.0 - x) + y])
    }

    struct Serial(SearchSpace);
    impl Problem for Serial {
        fn space(&self) -> &SearchSpace {
            &self.0
        }
        fn num_objectives(&self) -> usize {
            2
        }
        fn evaluate(&mut self, p: &Point) -> Option<Vec<f64>> {
            objectives(p)
        }
    }

    struct Batched {
        space: SearchSpace,
        batch_calls: usize,
        largest_batch: usize,
    }
    impl Problem for Batched {
        fn space(&self) -> &SearchSpace {
            &self.space
        }
        fn num_objectives(&self) -> usize {
            2
        }
        fn evaluate(&mut self, p: &Point) -> Option<Vec<f64>> {
            objectives(p)
        }
        fn evaluate_batch(&mut self, points: &[Point]) -> Vec<Option<Vec<f64>>> {
            self.batch_calls += 1;
            self.largest_batch = self.largest_batch.max(points.len());
            points.iter().map(objectives).collect()
        }
    }

    fn space() -> SearchSpace {
        SearchSpace::new(vec![13, 13])
    }

    #[test]
    fn optimizers_route_batches_through_the_seam() {
        let mut b = Batched {
            space: space(),
            batch_calls: 0,
            largest_batch: 0,
        };
        let _ = Nsga2::new(3).with_population(6).run(&mut b, 30);
        assert!(b.batch_calls > 0, "NSGA-II never used the batch seam");
        assert!(b.largest_batch > 1, "NSGA-II batches were all singletons");

        let mut b = Batched {
            space: space(),
            batch_calls: 0,
            largest_batch: 0,
        };
        let _ = Mobo::new(3).with_prior_samples(6).run(&mut b, 12);
        assert!(b.largest_batch > 1, "MOBO prior burst was not batched");
    }

    #[test]
    fn batched_and_serial_histories_are_identical() {
        for seed in 0..3 {
            let mut s = Serial(space());
            let mut b = Batched {
                space: space(),
                batch_calls: 0,
                largest_batch: 0,
            };
            assert_eq!(
                Nsga2::new(seed).with_population(5).run(&mut s, 25),
                Nsga2::new(seed).with_population(5).run(&mut b, 25),
                "nsga2 seed {seed}"
            );

            let mut s = Serial(space());
            let mut b = Batched {
                space: space(),
                batch_calls: 0,
                largest_batch: 0,
            };
            assert_eq!(
                Mobo::new(seed).with_prior_samples(5).run(&mut s, 15),
                Mobo::new(seed).with_prior_samples(5).run(&mut b, 15),
                "mobo seed {seed}"
            );
        }
    }
}
