//! HASCO: agile hardware/software co-design for tensor computation.
//!
//! This crate is the paper's primary contribution (§III, Fig. 3): given an
//! input description — the workloads of a tensor application, a hardware
//! generation method, and latency/power constraints — HASCO produces a
//! *holistic solution*: one accelerator shared by all workloads, a
//! tensorize interface per workload, and an optimized software program per
//! workload.
//!
//! The three steps of the co-design flow map onto:
//!
//! 1. **HW/SW partitioning** ([`partition`]) — tensor syntax trees plus the
//!    two-step matcher enumerate the tensorize choices;
//! 2. **Solution generation** ([`codesign`]) — multi-objective Bayesian
//!    optimization explores accelerator parameters (using the *optimized
//!    software latency* as the performance metric), while the heuristic +
//!    Q-learning explorer optimizes the software for each candidate
//!    accelerator;
//! 3. **Solution tuning** ([`tuning`]) — Pareto-optimal accelerators are
//!    checked against the user constraints and the best feasible point is
//!    selected (falling back to the least-violating one).
//!
//! # Example
//!
//! ```
//! use hasco::input::{Constraints, GenerationMethod, InputDescription};
//! use hasco::codesign::{CoDesigner, CoDesignOptions};
//! use tensor_ir::{suites, workload::TensorApp};
//!
//! let app = TensorApp::new("toy", vec![suites::gemm_workload("g", 128, 128, 128)]);
//! let input = InputDescription {
//!     app,
//!     method: GenerationMethod::Gemmini,
//!     constraints: Constraints::default(),
//! };
//! let mut opts = CoDesignOptions::quick(7);
//! opts.hw_trials = 6;
//! let solution = CoDesigner::new(opts).run(&input).unwrap();
//! assert!(solution.total.latency_ms > 0.0);
//! ```

pub mod codesign;
pub mod engine;
pub mod event;
mod finals;
pub mod input;
pub mod partition;
mod pricing;
pub mod remote;
pub mod report;
pub mod solution;
mod stores;
pub mod tuning;

pub use codesign::{CoDesignOptions, CoDesigner, OptimizerKind};
pub use engine::{AdmittedJob, CampaignOutcome, CoDesignRequest, Engine, EngineConfig, JobHandle};
pub use event::{EventStream, RunEvent};
pub use input::{Constraints, GenerationMethod, InputDescription};
pub use report::{CampaignStats, RunStats};
pub use solution::{Solution, WorkloadSolution};

/// Errors produced by the co-design flow.
#[derive(Debug, Clone, PartialEq)]
pub enum HascoError {
    /// The application has no workloads.
    EmptyApp,
    /// The run options combine into something silently degenerate
    /// ([`CoDesignOptions::validate`] explains the specific combination).
    InvalidOptions(String),
    /// The job was cancelled ([`engine::JobHandle::cancel`]) before it
    /// produced a solution.
    Cancelled,
    /// The hardware DSE produced no feasible accelerator.
    NoFeasibleAccelerator,
    /// Software exploration failed for a workload on the chosen
    /// accelerator.
    Software(String),
    /// Hardware generation failed.
    Hardware(String),
    /// A network transport failure between a remote client/worker and the
    /// serving engine (connection loss, protocol violation). Never raised
    /// by in-process runs.
    Transport(String),
}

impl std::fmt::Display for HascoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HascoError::EmptyApp => write!(f, "application has no workloads"),
            HascoError::InvalidOptions(msg) => write!(f, "invalid co-design options: {msg}"),
            HascoError::Cancelled => write!(f, "job was cancelled"),
            HascoError::NoFeasibleAccelerator => {
                write!(f, "hardware DSE found no feasible accelerator")
            }
            HascoError::Software(msg) => write!(f, "software exploration failed: {msg}"),
            HascoError::Hardware(msg) => write!(f, "hardware generation failed: {msg}"),
            HascoError::Transport(msg) => write!(f, "transport failed: {msg}"),
        }
    }
}

impl std::error::Error for HascoError {}

runtime::wire_enum!(HascoError {
    0 => EmptyApp,
    1 => InvalidOptions(msg),
    2 => Cancelled,
    3 => NoFeasibleAccelerator,
    4 => Software(msg),
    5 => Hardware(msg),
    6 => Transport(msg),
});
