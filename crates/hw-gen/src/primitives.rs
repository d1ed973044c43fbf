//! The hardware primitives of the paper's Fig. 6 and the `createArch`
//! description API of Listing 2.
//!
//! "We use a sequence of the parametric hardware primitives to form the
//! skeleton of a spatial accelerator, and the primitive factors (accelerator
//! parameters) compose the design space."

use accel_model::{AcceleratorConfig, Dataflow, Interconnect};
use serde::{Deserialize, Serialize};
use tensor_ir::intrinsics::IntrinsicKind;

/// One parametric hardware primitive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HwPrimitive {
    /// `reshapeArray(x, y)` — organize PEs into a 2-D array (1-D if a
    /// dimension is 1). Also fixes the intrinsic size.
    ReshapeArray {
        /// PE rows.
        rows: u32,
        /// PE columns.
        cols: u32,
    },
    /// `linkPEs(pattern)` — PE interconnect.
    LinkPes {
        /// The interconnect pattern.
        pattern: Interconnect,
    },
    /// `addCache(size)` — embed a scratchpad shared by all PEs.
    AddCache {
        /// Capacity in bytes.
        bytes: u64,
    },
    /// `distributeCache(c)` — distribute part of the memory into per-PE
    /// local memories.
    DistributeCache {
        /// Local memory per PE in bytes.
        bytes_per_pe: u64,
    },
    /// `partitionBanks(c, num)` — partition the scratchpad into banks.
    PartitionBanks {
        /// Bank count.
        banks: u32,
    },
    /// `burstTransfer(c, len, buswd)` — DMA controller between the cache
    /// and DRAM.
    BurstTransfer {
        /// Burst length in bytes.
        burst_bytes: u64,
        /// Bus width in bits.
        bus_width_bits: u32,
    },
}

impl std::fmt::Display for HwPrimitive {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HwPrimitive::ReshapeArray { rows, cols } => write!(f, "reshapeArray({rows}, {cols})"),
            HwPrimitive::LinkPes { pattern } => write!(f, "linkPEs(\"{pattern}\")"),
            HwPrimitive::AddCache { bytes } => write!(f, "addCache({bytes})"),
            HwPrimitive::DistributeCache { bytes_per_pe } => {
                write!(f, "distributeCache({bytes_per_pe})")
            }
            HwPrimitive::PartitionBanks { banks } => write!(f, "partitionBanks({banks})"),
            HwPrimitive::BurstTransfer {
                burst_bytes,
                bus_width_bits,
            } => {
                write!(f, "burstTransfer({burst_bytes}, {bus_width_bits})")
            }
        }
    }
}

/// An accelerator described as a primitive sequence (the paper's
/// `acc = createArch(method, intrinsic)` object).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArchDescription {
    /// Generation method name (`"chisel"`, `"gemmini"`, ...).
    pub method: String,
    /// The hardware intrinsic family.
    pub intrinsic: IntrinsicKind,
    /// The primitive sequence, in application order.
    pub primitives: Vec<HwPrimitive>,
    /// The dataflow (selected by the generator, not a Fig. 6 primitive).
    pub dataflow: Dataflow,
}

impl ArchDescription {
    /// Starts a description — the paper's `createArch`.
    pub fn new(method: impl Into<String>, intrinsic: IntrinsicKind) -> Self {
        ArchDescription {
            method: method.into(),
            intrinsic,
            primitives: Vec::new(),
            dataflow: Dataflow::OutputStationary,
        }
    }

    /// Appends `reshapeArray`.
    pub fn reshape_array(&mut self, rows: u32, cols: u32) -> &mut Self {
        self.primitives
            .push(HwPrimitive::ReshapeArray { rows, cols });
        self
    }

    /// Appends `linkPEs`.
    pub fn link_pes(&mut self, pattern: Interconnect) -> &mut Self {
        self.primitives.push(HwPrimitive::LinkPes { pattern });
        self
    }

    /// Appends `addCache`.
    pub fn add_cache(&mut self, bytes: u64) -> &mut Self {
        self.primitives.push(HwPrimitive::AddCache { bytes });
        self
    }

    /// Appends `distributeCache`.
    pub fn distribute_cache(&mut self, bytes_per_pe: u64) -> &mut Self {
        self.primitives
            .push(HwPrimitive::DistributeCache { bytes_per_pe });
        self
    }

    /// Appends `partitionBanks`.
    pub fn partition_banks(&mut self, banks: u32) -> &mut Self {
        self.primitives.push(HwPrimitive::PartitionBanks { banks });
        self
    }

    /// Appends `burstTransfer`.
    pub fn burst_transfer(&mut self, burst_bytes: u64, bus_width_bits: u32) -> &mut Self {
        self.primitives.push(HwPrimitive::BurstTransfer {
            burst_bytes,
            bus_width_bits,
        });
        self
    }

    /// Sets the dataflow.
    pub fn with_dataflow(&mut self, dataflow: Dataflow) -> &mut Self {
        self.dataflow = dataflow;
        self
    }

    /// Lowers the primitive sequence to a concrete accelerator
    /// configuration. Later primitives override earlier ones (the paper's
    /// sequences set each knob once).
    ///
    /// # Errors
    /// Returns the configuration's validation error if the sequence
    /// describes an illegal accelerator.
    pub fn to_config(&self) -> Result<AcceleratorConfig, accel_model::ArchError> {
        let mut b = AcceleratorConfig::builder(self.intrinsic);
        b.name(format!("{}-{}", self.method, self.intrinsic));
        b.dataflow(self.dataflow);
        for p in &self.primitives {
            match *p {
                HwPrimitive::ReshapeArray { rows, cols } => {
                    b.pe_array(rows, cols);
                }
                HwPrimitive::LinkPes { pattern } => {
                    b.interconnect(pattern);
                }
                HwPrimitive::AddCache { bytes } => {
                    b.scratchpad_kb(bytes / 1024);
                }
                HwPrimitive::DistributeCache { bytes_per_pe } => {
                    b.local_mem_bytes(bytes_per_pe);
                }
                HwPrimitive::PartitionBanks { banks } => {
                    b.banks(banks);
                }
                HwPrimitive::BurstTransfer {
                    burst_bytes,
                    bus_width_bits,
                } => {
                    b.dma(burst_bytes, bus_width_bits);
                }
            }
        }
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn listing2() -> ArchDescription {
        let mut acc = ArchDescription::new("chisel", IntrinsicKind::Gemm);
        acc.reshape_array(16, 16)
            .link_pes(Interconnect::Systolic)
            .add_cache(256 * 1024)
            .burst_transfer(64, 128);
        acc
    }

    #[test]
    fn listing2_lowers_to_expected_config() {
        let cfg = listing2().to_config().unwrap();
        assert_eq!(cfg.pes(), 256);
        assert_eq!(cfg.scratchpad_bytes, 256 * 1024);
        assert_eq!(cfg.interconnect, Interconnect::Systolic);
        assert_eq!(cfg.dma_burst_bytes, 64);
        assert_eq!(cfg.bus_width_bits, 128);
    }

    #[test]
    fn later_primitives_override() {
        let mut acc = listing2();
        acc.reshape_array(8, 8).partition_banks(8);
        let cfg = acc.to_config().unwrap();
        assert_eq!(cfg.pes(), 64);
        assert_eq!(cfg.banks, 8);
    }

    #[test]
    fn distribute_cache_sets_local_memory() {
        let mut acc = listing2();
        acc.distribute_cache(1024);
        assert_eq!(acc.to_config().unwrap().local_mem_bytes, 1024);
    }

    #[test]
    fn invalid_sequence_is_rejected() {
        let mut acc = listing2();
        acc.reshape_array(0, 16);
        assert!(acc.to_config().is_err());
    }

    #[test]
    fn dataflow_is_carried_through() {
        let mut acc = listing2();
        acc.with_dataflow(Dataflow::WeightStationary);
        assert_eq!(
            acc.to_config().unwrap().dataflow,
            Dataflow::WeightStationary
        );
    }

    #[test]
    fn primitive_display() {
        assert_eq!(
            HwPrimitive::PartitionBanks { banks: 4 }.to_string(),
            "partitionBanks(4)"
        );
        assert_eq!(
            HwPrimitive::DistributeCache { bytes_per_pe: 512 }.to_string(),
            "distributeCache(512)"
        );
    }
}
