//! Software optimization and interface generation for HASCO (§VI).
//!
//! A [`schedule::Schedule`] fixes a tensorize choice, the tensorized tile
//! sizes, the outer loop order, and outer-loop fusion — exactly the factors
//! of the paper's software primitives (`split`, `reorder`, `fuse`,
//! `tensorize`), so the schedule itself is the paper's primitive sequence
//! (Fig. 5(c)) and [`codegen`] renders programs from it. Schedules lower
//! to [`accel_model::ExecutionPlan`]s through a classic tile-reuse
//! analysis ([`lowering`]) and to accelerator instruction streams
//! ([`interface`], §VI-C).
//!
//! The design space is explored the paper's way (§VI-B): a pool of random
//! candidate schedules is maintained; the heuristic step picks the top-k by
//! `value(p) = exp(-(l_p - l*)/l*)`; the Q-learning step (a from-scratch
//! 4-layer MLP DQN, [`qlearn`]) picks which revision to apply to each
//! valuable candidate.
//!
//! # Example
//!
//! ```
//! use accel_model::arch::AcceleratorConfig;
//! use tensor_ir::{suites, intrinsics::IntrinsicKind};
//! use sw_opt::explorer::{SoftwareExplorer, ExplorerOptions};
//!
//! let cfg = AcceleratorConfig::builder(IntrinsicKind::Gemm).build().unwrap();
//! let wl = suites::gemm_workload("g", 256, 256, 256);
//! let mut opts = ExplorerOptions::default();
//! opts.rounds = 4;
//! opts.pool = 8;
//! let best = SoftwareExplorer::new(1).optimize(&wl, &cfg, &opts).unwrap();
//! assert!(best.metrics.latency_cycles > 0.0);
//! ```

pub mod codegen;
pub mod explorer;
pub mod heuristic;
pub mod interface;
pub mod lowering;
pub mod nn;
pub mod qlearn;
pub mod schedule;

pub use explorer::{ExplorerOptions, OptimizedSoftware, SoftwareExplorer};
pub use schedule::Schedule;

/// Errors produced while building or exploring schedules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SwError {
    /// No tensorize choice matches the workload against the accelerator's
    /// intrinsic.
    NoTensorizeChoice {
        /// Workload name.
        workload: String,
        /// Intrinsic name.
        intrinsic: String,
    },
    /// The schedule's sub-tensors exceed the scratchpad capacity.
    ScratchpadOverflow {
        /// Required bytes.
        required: u64,
        /// Available bytes.
        available: u64,
    },
    /// The schedule references an index the workload does not have.
    BadIndex(usize),
    /// The outer loop order is not a permutation of the workload's loops.
    BadOrder,
    /// A tile size was zero or exceeded the loop extent.
    BadTile {
        /// The loop name.
        index: String,
        /// The offending tile.
        tile: u64,
    },
    /// No valid schedule could be generated within the sampling budget.
    NoValidSchedule,
}

impl std::fmt::Display for SwError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SwError::NoTensorizeChoice {
                workload,
                intrinsic,
            } => {
                write!(
                    f,
                    "no tensorize choice maps `{workload}` onto intrinsic `{intrinsic}`"
                )
            }
            SwError::ScratchpadOverflow {
                required,
                available,
            } => {
                write!(
                    f,
                    "schedule needs {required} B of scratchpad, only {available} B present"
                )
            }
            SwError::BadIndex(i) => write!(f, "schedule references unknown index {i}"),
            SwError::BadOrder => write!(f, "outer order is not a permutation of the loops"),
            SwError::BadTile { index, tile } => {
                write!(f, "tile {tile} is invalid for loop `{index}`")
            }
            SwError::NoValidSchedule => write!(f, "no valid schedule found within budget"),
        }
    }
}

impl std::error::Error for SwError {}
