//! Experiment harnesses regenerating every table and figure of the HASCO
//! paper (§VII). Each module exposes a `run(scale)` function returning a
//! structured result plus a printable report; the `bin/` targets are thin
//! wrappers, and `benches/experiments.rs` replays everything for
//! `cargo bench`.
//!
//! | module   | paper artifact |
//! |----------|----------------|
//! | `table1` | Table I — benchmark tensor computations |
//! | `fig2`   | Fig. 2 — motivational GA_L/GA_S case study |
//! | `fig7`   | Fig. 7 — tensorize choices & hardware intrinsics |
//! | `fig8`   | Fig. 8 — latency/power/area ground-truth correlations |
//! | `fig9`   | Fig. 9 — metric landscapes + DSE final points |
//! | `fig10`  | Fig. 10 — hypervolume vs. trials (Random/NSGA-II/MOBO) |
//! | `fig11`  | Fig. 11 — ResNet software comparison |
//! | `table2` | Table II — constrained Pareto solutions per method |
//! | `table3` | Table III — edge/cloud co-design scenarios |

pub mod cli;
pub mod common;
pub mod fig10;
pub mod fig11;
pub mod fig2;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod table1;
pub mod table2;
pub mod table3;

/// How big an experiment run should be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced budgets/workload subsets — used by `cargo bench` and CI.
    Quick,
    /// Paper-sized budgets (trial counts as in §VII).
    Paper,
}
