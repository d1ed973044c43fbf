//! Accelerator configurations — the template of the paper's Fig. 1.

use crate::ArchError;
use runtime::{Fingerprinter, StableFingerprint};
use serde::{Deserialize, Serialize};
use tensor_ir::intrinsics::{self, Intrinsic, IntrinsicKind};

/// Interconnection pattern between PEs (the `linkPEs` primitive of Fig. 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Interconnect {
    /// No PE-to-PE links; all operands come from the scratchpad.
    None,
    /// Systolic nearest-neighbor links (data flows through the array).
    Systolic,
    /// Full crossbar between PEs.
    Full,
}

impl std::fmt::Display for Interconnect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Interconnect::None => write!(f, "none"),
            Interconnect::Systolic => write!(f, "systolic"),
            Interconnect::Full => write!(f, "full"),
        }
    }
}

/// How tensors are distributed and reused across the PE array \[41\].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Dataflow {
    /// Outputs stay in PE registers; inputs stream.
    OutputStationary,
    /// Weights (second operand) pinned in PEs.
    WeightStationary,
    /// Inputs (first operand) pinned in PEs.
    InputStationary,
}

impl Dataflow {
    /// All supported dataflows.
    pub const ALL: [Dataflow; 3] = [
        Dataflow::OutputStationary,
        Dataflow::WeightStationary,
        Dataflow::InputStationary,
    ];
}

impl std::fmt::Display for Dataflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Dataflow::OutputStationary => write!(f, "output-stationary"),
            Dataflow::WeightStationary => write!(f, "weight-stationary"),
            Dataflow::InputStationary => write!(f, "input-stationary"),
        }
    }
}

/// Shape of the PE array (`reshapeArray` primitive). A 1-D array has
/// `rows == 1` or `cols == 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PeArray {
    /// Number of PE rows.
    pub rows: u32,
    /// Number of PE columns.
    pub cols: u32,
}

impl PeArray {
    /// Creates a PE array shape.
    pub fn new(rows: u32, cols: u32) -> Self {
        PeArray { rows, cols }
    }

    /// Total PE count.
    pub fn count(&self) -> u64 {
        self.rows as u64 * self.cols as u64
    }

    /// True when the array is one-dimensional.
    pub fn is_linear(&self) -> bool {
        self.rows == 1 || self.cols == 1
    }
}

impl std::fmt::Display for PeArray {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}x{}", self.rows, self.cols)
    }
}

/// A complete spatial accelerator instance (one point of the hardware design
/// space). Construct through [`AcceleratorConfig::builder`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AcceleratorConfig {
    /// Display name of the instance.
    pub name: String,
    /// The hardware intrinsic family this accelerator implements.
    pub intrinsic: IntrinsicKind,
    /// PE array shape.
    pub pe: PeArray,
    /// PE interconnect pattern.
    pub interconnect: Interconnect,
    /// Dataflow.
    pub dataflow: Dataflow,
    /// Shared scratchpad capacity in bytes (`addCache`).
    pub scratchpad_bytes: u64,
    /// Scratchpad bank count (`partitionBanks`).
    pub banks: u32,
    /// Per-PE local memory in bytes (`distributeCache`), 0 if none.
    pub local_mem_bytes: u64,
    /// DMA burst length in bytes (`burstTransfer`).
    pub dma_burst_bytes: u64,
    /// DRAM bus width in bits (`burstTransfer`).
    pub bus_width_bits: u32,
    /// Clock frequency in MHz.
    pub freq_mhz: u64,
    /// Element size in bytes.
    pub dtype_bytes: u64,
}

impl AcceleratorConfig {
    /// Starts a builder for the given intrinsic kind with the defaults of
    /// the paper's Listing 2 (systolic, 256 KB scratchpad, 64 B bursts,
    /// 128-bit bus).
    pub fn builder(intrinsic: IntrinsicKind) -> AcceleratorConfigBuilder {
        AcceleratorConfigBuilder::new(intrinsic)
    }

    /// Total PE count.
    pub fn pes(&self) -> u64 {
        self.pe.count()
    }

    /// The concrete intrinsic computation this configuration implements:
    /// the intrinsic geometry is derived from the PE array shape (the
    /// `reshapeArray` primitive "specifies the PE array shape and the
    /// intrinsic size").
    pub fn intrinsic_comp(&self) -> Intrinsic {
        let (r, c) = (self.pe.rows as u64, self.pe.cols as u64);
        // Spatial engines stream their reduction dimension deep per call
        // (Gemmini-style systolic arrays take the full k stream; GEMV
        // engines stream long vectors) — the spatial extents come from the
        // PE array shape, the reduction depth is a fixed 64/128-element
        // stream.
        match self.intrinsic {
            IntrinsicKind::Dot => intrinsics::dot_intrinsic(self.pes()),
            IntrinsicKind::Gemv => intrinsics::gemv_intrinsic(self.pes(), 128),
            IntrinsicKind::Gemm => intrinsics::gemm_intrinsic(r, 128, c),
            IntrinsicKind::Conv2d => intrinsics::conv2d_intrinsic(r, c, 3, 3),
        }
    }

    /// DRAM bus bandwidth in bytes per cycle.
    pub fn bus_bytes_per_cycle(&self) -> f64 {
        self.bus_width_bits as f64 / 8.0
    }

    /// Scratchpad bandwidth in bytes per cycle: each bank port delivers a
    /// PE-array-row-wide word per cycle (as Gemmini-style scratchpads do),
    /// so bandwidth scales with both the bank count and the array width.
    pub fn spad_bytes_per_cycle(&self) -> f64 {
        let row_width = self.pe.rows.max(self.pe.cols) as f64;
        self.banks as f64 * self.dtype_bytes as f64 * row_width
    }

    /// Converts cycles to milliseconds at the configured frequency.
    pub fn cycles_to_ms(&self, cycles: f64) -> f64 {
        cycles / (self.freq_mhz as f64 * 1e3)
    }

    /// Validates the configuration invariants.
    ///
    /// # Errors
    /// Returns an [`ArchError`] describing the first violation.
    pub fn validate(&self) -> Result<(), ArchError> {
        if self.pe.rows == 0 || self.pe.cols == 0 {
            return Err(ArchError::EmptyPeArray);
        }
        if self.scratchpad_bytes < self.banks as u64 * self.dtype_bytes {
            return Err(ArchError::ScratchpadTooSmall {
                bytes: self.scratchpad_bytes,
            });
        }
        if self.banks == 0 {
            return Err(ArchError::BadBankCount { banks: self.banks });
        }
        if self.dma_burst_bytes == 0 {
            return Err(ArchError::ZeroBurst);
        }
        if self.bus_width_bits == 0 || !self.bus_width_bits.is_multiple_of(8) {
            return Err(ArchError::BadBusWidth {
                bits: self.bus_width_bits,
            });
        }
        Ok(())
    }
}

impl StableFingerprint for AcceleratorConfig {
    // Every field the cost model or lowering can observe, in declaration
    // order; the display name is cosmetic and deliberately excluded so
    // renamed copies of one configuration share memoized evaluations.
    fn fingerprint_into(&self, fp: &mut Fingerprinter) {
        self.intrinsic.fingerprint_into(fp);
        fp.write_u32(self.pe.rows);
        fp.write_u32(self.pe.cols);
        fp.write_u32(match self.interconnect {
            Interconnect::None => 0,
            Interconnect::Systolic => 1,
            Interconnect::Full => 2,
        });
        fp.write_u32(match self.dataflow {
            Dataflow::OutputStationary => 0,
            Dataflow::WeightStationary => 1,
            Dataflow::InputStationary => 2,
        });
        fp.write_u64(self.scratchpad_bytes);
        fp.write_u32(self.banks);
        fp.write_u64(self.local_mem_bytes);
        fp.write_u64(self.dma_burst_bytes);
        fp.write_u32(self.bus_width_bits);
        fp.write_u64(self.freq_mhz);
        fp.write_u64(self.dtype_bytes);
    }
}

runtime::wire_struct!(PeArray { rows, cols });
runtime::wire_enum!(Interconnect {
    0 => None,
    1 => Systolic,
    2 => Full,
});
runtime::wire_enum!(Dataflow {
    0 => OutputStationary,
    1 => WeightStationary,
    2 => InputStationary,
});
runtime::wire_struct!(AcceleratorConfig {
    name,
    intrinsic,
    pe,
    interconnect,
    dataflow,
    scratchpad_bytes,
    banks,
    local_mem_bytes,
    dma_burst_bytes,
    bus_width_bits,
    freq_mhz,
    dtype_bytes,
});

impl std::fmt::Display for AcceleratorConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} [{} {} PEs, {} KB spad x{} banks, {} dataflow]",
            self.name,
            self.intrinsic,
            self.pe,
            self.scratchpad_bytes / 1024,
            self.banks,
            self.dataflow
        )
    }
}

/// Builder for [`AcceleratorConfig`] (non-consuming terminal per the Rust
/// API guidelines).
#[derive(Debug, Clone)]
pub struct AcceleratorConfigBuilder {
    cfg: AcceleratorConfig,
}

impl AcceleratorConfigBuilder {
    fn new(intrinsic: IntrinsicKind) -> Self {
        AcceleratorConfigBuilder {
            cfg: AcceleratorConfig {
                name: format!("{intrinsic}-accel"),
                intrinsic,
                pe: PeArray::new(16, 16),
                interconnect: Interconnect::Systolic,
                dataflow: Dataflow::OutputStationary,
                scratchpad_bytes: 256 * 1024,
                banks: 4,
                local_mem_bytes: 0,
                dma_burst_bytes: 64,
                bus_width_bits: 128,
                freq_mhz: 500,
                dtype_bytes: 2,
            },
        }
    }

    /// Sets the instance name.
    pub fn name(&mut self, name: impl Into<String>) -> &mut Self {
        self.cfg.name = name.into();
        self
    }

    /// Sets the PE array shape (`reshapeArray`).
    pub fn pe_array(&mut self, rows: u32, cols: u32) -> &mut Self {
        self.cfg.pe = PeArray::new(rows, cols);
        self
    }

    /// Sets the interconnect pattern (`linkPEs`).
    pub fn interconnect(&mut self, i: Interconnect) -> &mut Self {
        self.cfg.interconnect = i;
        self
    }

    /// Sets the dataflow.
    pub fn dataflow(&mut self, d: Dataflow) -> &mut Self {
        self.cfg.dataflow = d;
        self
    }

    /// Sets the scratchpad size in KiB (`addCache`).
    pub fn scratchpad_kb(&mut self, kb: u64) -> &mut Self {
        self.cfg.scratchpad_bytes = kb * 1024;
        self
    }

    /// Sets the scratchpad bank count (`partitionBanks`).
    pub fn banks(&mut self, banks: u32) -> &mut Self {
        self.cfg.banks = banks;
        self
    }

    /// Sets the per-PE local memory in bytes (`distributeCache`).
    pub fn local_mem_bytes(&mut self, bytes: u64) -> &mut Self {
        self.cfg.local_mem_bytes = bytes;
        self
    }

    /// Sets DMA burst length and bus width (`burstTransfer`).
    pub fn dma(&mut self, burst_bytes: u64, bus_width_bits: u32) -> &mut Self {
        self.cfg.dma_burst_bytes = burst_bytes;
        self.cfg.bus_width_bits = bus_width_bits;
        self
    }

    /// Sets the clock frequency in MHz.
    pub fn freq_mhz(&mut self, mhz: u64) -> &mut Self {
        self.cfg.freq_mhz = mhz;
        self
    }

    /// Sets the element size in bytes.
    pub fn dtype_bytes(&mut self, bytes: u64) -> &mut Self {
        self.cfg.dtype_bytes = bytes;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    /// Returns [`ArchError`] if an invariant is violated.
    pub fn build(&self) -> Result<AcceleratorConfig, ArchError> {
        self.cfg.validate()?;
        Ok(self.cfg.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_are_listing2_like() {
        let cfg = AcceleratorConfig::builder(IntrinsicKind::Gemm)
            .build()
            .unwrap();
        assert_eq!(cfg.pe.count(), 256);
        assert_eq!(cfg.scratchpad_bytes, 256 * 1024);
        assert_eq!(cfg.interconnect, Interconnect::Systolic);
    }

    #[test]
    fn builder_is_chainable() {
        let cfg = AcceleratorConfig::builder(IntrinsicKind::Gemv)
            .name("ga_s")
            .pe_array(8, 8)
            .scratchpad_kb(128)
            .banks(2)
            .local_mem_bytes(512)
            .dma(128, 256)
            .freq_mhz(200)
            .dtype_bytes(4)
            .dataflow(Dataflow::WeightStationary)
            .interconnect(Interconnect::Full)
            .build()
            .unwrap();
        assert_eq!(cfg.name, "ga_s");
        assert_eq!(cfg.pes(), 64);
        assert_eq!(cfg.bus_bytes_per_cycle(), 32.0);
        // 2 banks x 4 B x 8-wide array rows.
        assert_eq!(cfg.spad_bytes_per_cycle(), 64.0);
    }

    #[test]
    fn intrinsic_geometry_follows_pe_array() {
        let cfg = AcceleratorConfig::builder(IntrinsicKind::Gemm)
            .pe_array(8, 4)
            .build()
            .unwrap();
        let intr = cfg.intrinsic_comp();
        let i = intr.comp.index_by_name("i").unwrap();
        let j = intr.comp.index_by_name("j").unwrap();
        assert_eq!(intr.comp.index(i).extent, 8);
        assert_eq!(intr.comp.index(j).extent, 4);
    }

    #[test]
    fn dot_intrinsic_uses_all_pes() {
        let cfg = AcceleratorConfig::builder(IntrinsicKind::Dot)
            .pe_array(1, 64)
            .build()
            .unwrap();
        assert_eq!(cfg.intrinsic_comp().comp.iteration_points(), 64);
        assert!(cfg.pe.is_linear());
    }

    #[test]
    fn validation_rejects_bad_configs() {
        assert_eq!(
            AcceleratorConfig::builder(IntrinsicKind::Gemm)
                .pe_array(0, 4)
                .build()
                .unwrap_err(),
            ArchError::EmptyPeArray
        );
        assert!(matches!(
            AcceleratorConfig::builder(IntrinsicKind::Gemm)
                .banks(0)
                .build()
                .unwrap_err(),
            ArchError::BadBankCount { .. }
        ));
        assert_eq!(
            AcceleratorConfig::builder(IntrinsicKind::Gemm)
                .dma(0, 128)
                .build()
                .unwrap_err(),
            ArchError::ZeroBurst
        );
        assert!(matches!(
            AcceleratorConfig::builder(IntrinsicKind::Gemm)
                .dma(64, 12)
                .build()
                .unwrap_err(),
            ArchError::BadBusWidth { .. }
        ));
    }

    #[test]
    fn cycles_to_ms_uses_frequency() {
        let cfg = AcceleratorConfig::builder(IntrinsicKind::Gemm)
            .freq_mhz(1000)
            .build()
            .unwrap();
        assert!((cfg.cycles_to_ms(1_000_000.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn display_is_informative() {
        let cfg = AcceleratorConfig::builder(IntrinsicKind::Gemm)
            .build()
            .unwrap();
        let s = cfg.to_string();
        assert!(s.contains("16x16"));
        assert!(s.contains("256 KB"));
    }
}
