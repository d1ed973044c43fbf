//! Spatial accelerator micro-architecture model for HASCO.
//!
//! This crate is the reproduction's substitute for the paper's evaluation
//! substrate (Maestro \[41\] for the hardware-DSE study and the Vivado/FPGA
//! prototypes elsewhere; see DESIGN.md §1). It models the accelerator
//! template of the paper's Fig. 1 — a 1-D/2-D PE array, a banked scratchpad
//! with optional per-PE local memories, and a DMA controller to DRAM — and
//! estimates **latency**, **power**, and **area** for a mapped workload.
//!
//! Two evaluation paths are provided, mirroring the paper's
//! "Model / Profile / Simulate" box (Fig. 3):
//!
//! * [`cost::CostModel`] — the fast analytical model used inside DSE loops;
//! * [`sim::TraceSimulator`] — an instruction-trace simulator that executes
//!   the load/store/compute streams generated for a schedule, with
//!   double-buffered DMA/compute overlap.
//!
//! # Example
//!
//! ```
//! use accel_model::{arch::AcceleratorConfig, plan::ExecutionPlan, cost::CostModel};
//! use tensor_ir::intrinsics::IntrinsicKind;
//!
//! let cfg = AcceleratorConfig::builder(IntrinsicKind::Gemm)
//!     .pe_array(16, 16)
//!     .scratchpad_kb(256)
//!     .banks(4)
//!     .build()
//!     .unwrap();
//! let plan = ExecutionPlan::compute_only(1_000_000, 1_000_000, 100);
//! let m = CostModel::default().evaluate(&cfg, &plan);
//! assert!(m.latency_cycles > 0.0 && m.area_mm2 > 0.0);
//! ```

pub mod arch;
pub mod area;
pub mod backend;
pub mod cost;
pub mod energy;
pub mod isa;
pub mod metrics;
pub mod plan;
pub mod sim;
pub mod tech;

pub use arch::{AcceleratorConfig, Dataflow, Interconnect, PeArray};
pub use backend::{
    AnalyticBackend, BackendKind, CostBackend, SurrogateBackend, SurrogateSnapshot, TraceSimBackend,
};
pub use cost::CostModel;
pub use metrics::Metrics;
pub use plan::{ExecutionPlan, TensorTraffic};

/// Errors produced while constructing accelerator configurations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArchError {
    /// PE array dimension was zero.
    EmptyPeArray,
    /// Scratchpad must be large enough for at least one word per bank.
    ScratchpadTooSmall {
        /// The offending size.
        bytes: u64,
    },
    /// Bank count must be nonzero and not exceed scratchpad words.
    BadBankCount {
        /// The offending bank count.
        banks: u32,
    },
    /// DMA burst length must be nonzero.
    ZeroBurst,
    /// Bus width must be a nonzero multiple of 8 bits.
    BadBusWidth {
        /// The offending width in bits.
        bits: u32,
    },
}

impl std::fmt::Display for ArchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArchError::EmptyPeArray => write!(f, "PE array has a zero dimension"),
            ArchError::ScratchpadTooSmall { bytes } => {
                write!(f, "scratchpad of {bytes} bytes is too small")
            }
            ArchError::BadBankCount { banks } => write!(f, "invalid bank count {banks}"),
            ArchError::ZeroBurst => write!(f, "DMA burst length must be nonzero"),
            ArchError::BadBusWidth { bits } => write!(f, "invalid bus width {bits} bits"),
        }
    }
}

impl std::error::Error for ArchError {}
