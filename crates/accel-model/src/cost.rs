//! The analytical cost model: latency + energy + area → [`Metrics`].
//!
//! Latency decomposes into three engines that can overlap:
//!
//! * **compute** — `macs_padded / PEs` streaming cycles plus a per-call
//!   pipeline fill/drain overhead that depends on the interconnect (a
//!   systolic array pays `rows + cols` per invocation, so over-provisioned
//!   arrays on small workloads *lose* latency — the effect visible in the
//!   paper's Fig. 9(a));
//! * **scratchpad** — PE-side traffic at one word per bank per cycle;
//! * **DMA** — per-tensor burst traffic, where non-contiguous tile slices
//!   cap the effective burst length (tensorize choice `b` of Fig. 7(c)).
//!
//! With double buffering the slowest engine hides the others (plus a small
//! imbalance tax); without it the phases serialize.

use crate::arch::{AcceleratorConfig, Dataflow, Interconnect};
use crate::area;
use crate::energy;
use crate::metrics::Metrics;
use crate::plan::ExecutionPlan;
use crate::tech::TechParams;

/// The analytical model with its technology constants.
#[derive(Debug, Clone, Default)]
pub struct CostModel {
    /// Technology constants used for energy/area.
    pub tech: TechParams,
}

impl CostModel {
    /// Creates a model with explicit technology parameters.
    pub fn new(tech: TechParams) -> Self {
        CostModel { tech }
    }

    /// Per-intrinsic-call pipeline fill/drain overhead in cycles.
    pub fn call_overhead_cycles(&self, cfg: &AcceleratorConfig) -> f64 {
        let rows = cfg.pe.rows as f64;
        let cols = cfg.pe.cols as f64;
        // 1-D vector engines load their lanes in parallel from the wide
        // scratchpad port; only 2-D systolic arrays pay the diagonal
        // fill/drain wavefront.
        if cfg.pe.is_linear() && cfg.interconnect != Interconnect::None {
            return (cfg.pes() as f64).log2().max(1.0) + 4.0;
        }
        match cfg.interconnect {
            // No forwarding links: operands are re-fetched from the
            // scratchpad and results drained one PE at a time.
            Interconnect::None => 2.0 * (rows + cols),
            Interconnect::Systolic => rows + cols,
            Interconnect::Full => (cfg.pes() as f64).log2().max(1.0) + 2.0,
        }
    }

    /// Streaming efficiency of the PE array (1.0 = one MAC per PE per
    /// cycle).
    pub fn stream_efficiency(&self, cfg: &AcceleratorConfig) -> f64 {
        let base = match cfg.interconnect {
            Interconnect::None => 0.5, // operand fetch serializes
            Interconnect::Systolic => 1.0,
            Interconnect::Full => 1.0,
        };
        base * self.dataflow_efficiency(cfg)
    }

    /// Small dataflow/intrinsic affinity factor: a dataflow that keeps the
    /// dominant-reuse operand stationary wastes fewer cycles re-staging it.
    pub fn dataflow_efficiency(&self, cfg: &AcceleratorConfig) -> f64 {
        use tensor_ir::intrinsics::IntrinsicKind as K;
        match (cfg.intrinsic, cfg.dataflow) {
            (K::Gemm, Dataflow::OutputStationary) => 1.0,
            (K::Gemm, Dataflow::WeightStationary) => 0.95,
            (K::Gemm, Dataflow::InputStationary) => 0.92,
            (K::Conv2d, Dataflow::WeightStationary) => 1.0,
            (K::Conv2d, Dataflow::OutputStationary) => 0.96,
            (K::Conv2d, Dataflow::InputStationary) => 0.9,
            (K::Gemv, Dataflow::OutputStationary) => 1.0,
            (K::Gemv, _) => 0.93,
            (K::Dot, _) => 1.0,
        }
    }

    /// Compute-engine cycles of `calls` intrinsic calls executing `macs`
    /// MACs: streaming cycles plus per-call fill/drain.
    pub(crate) fn calls_cycles(&self, cfg: &AcceleratorConfig, calls: u64, macs: u64) -> f64 {
        let stream = macs as f64 / (cfg.pes() as f64 * self.stream_efficiency(cfg)).max(1e-9);
        stream + calls as f64 * self.call_overhead_cycles(cfg)
    }

    /// Scratchpad-engine cycles of `bytes` of PE-side traffic through the
    /// banks (the share served by local memories does not occupy bank
    /// bandwidth).
    pub(crate) fn spad_bytes_cycles(&self, cfg: &AcceleratorConfig, bytes: u64) -> f64 {
        let local = energy::local_service_fraction(cfg);
        bytes as f64 * (1.0 - local) / cfg.spad_bytes_per_cycle().max(1e-9)
    }

    /// DMA cycles of one transfer of `bytes` in `run`-byte contiguous runs:
    /// one descriptor setup per run plus wire time. Runs shorter than the
    /// configured burst still pay a full setup, longer runs amortize it
    /// across `run / burst` back-to-back beats at ~no extra cost.
    pub(crate) fn dma_transfer_cycles(&self, cfg: &AcceleratorConfig, bytes: u64, run: u64) -> f64 {
        let run = run.max(1).max(cfg.dma_burst_bytes.min(8));
        let setups = (bytes as f64 / run as f64).ceil();
        setups * self.tech.burst_overhead_cycles + bytes as f64 / cfg.bus_bytes_per_cycle()
    }

    /// DMA-engine cycles: Σ per tensor of burst setups + wire time.
    pub fn dma_cycles(&self, cfg: &AcceleratorConfig, plan: &ExecutionPlan) -> f64 {
        let mut cycles = 0.0;
        for t in plan.dram_reads.iter().chain(plan.dram_writes.iter()) {
            cycles += self.dma_transfer_cycles(cfg, t.bytes, t.avg_contiguous_run);
        }
        cycles
    }

    /// On-chip cycles of `calls` intrinsic calls executing `macs` MACs
    /// over `spad_bytes` of scratchpad traffic: the PE array and the
    /// scratchpad ports work in parallel, so the slower one bounds them.
    pub(crate) fn onchip_cycles(
        &self,
        cfg: &AcceleratorConfig,
        calls: u64,
        macs: u64,
        spad_bytes: u64,
    ) -> f64 {
        let compute = self.calls_cycles(cfg, calls, macs);
        compute.max(self.spad_bytes_cycles(cfg, spad_bytes))
    }

    /// The two engines a plan's latency overlaps: on-chip cycles and DMA
    /// cycles.
    pub(crate) fn engine_cycles(
        &self,
        cfg: &AcceleratorConfig,
        plan: &ExecutionPlan,
    ) -> (f64, f64) {
        let calls = plan.intrinsic_calls;
        let onchip = self.onchip_cycles(cfg, calls, plan.macs_padded, plan.spad_traffic_bytes);
        (onchip, self.dma_cycles(cfg, plan))
    }

    /// Serial data-rearrangement cycles (round trip through the bus plus a
    /// shuffle cost).
    pub fn rearrange_cycles(&self, cfg: &AcceleratorConfig, plan: &ExecutionPlan) -> f64 {
        if plan.rearrange_bytes == 0 {
            return 0.0;
        }
        // Rearrangement is a host-side elementwise gather: a round trip
        // over the bus plus ~1 cycle per two bytes of shuffled data.
        let wire = 2.0 * plan.rearrange_bytes as f64 / cfg.bus_bytes_per_cycle();
        let shuffle = plan.rearrange_bytes as f64 / 2.0;
        wire + shuffle
    }

    /// Total latency in cycles.
    pub fn latency_cycles(&self, cfg: &AcceleratorConfig, plan: &ExecutionPlan) -> f64 {
        let (onchip, dma) = self.engine_cycles(cfg, plan);
        let overlapped = if plan.double_buffered {
            // The slower engine hides the faster, modulo a per-stage
            // imbalance tax and a one-stage prologue.
            let prologue = if plan.stages > 0 {
                dma / plan.stages as f64
            } else {
                0.0
            };
            onchip.max(dma) + 0.1 * onchip.min(dma) + prologue
        } else {
            onchip + dma
        };
        overlapped + self.rearrange_cycles(cfg, plan) + plan.host_control_cycles as f64
    }

    /// Full evaluation: latency, energy, power, area, throughput.
    pub fn evaluate(&self, cfg: &AcceleratorConfig, plan: &ExecutionPlan) -> Metrics {
        let latency_cycles = self.latency_cycles(cfg, plan).max(1.0);
        let latency_ms = cfg.cycles_to_ms(latency_cycles);
        let dyn_e = energy::dynamic_energy(cfg, plan, &self.tech);
        let area_mm2 = area::area(cfg, &self.tech).total_mm2();
        let leak_mw = area_mm2 * self.tech.leakage_mw_per_mm2;
        // pJ → µJ, ms → s: power(mW) = energy(µJ) / time(ms).
        let dyn_uj = dyn_e.total_pj() / 1e6;
        let leak_uj = leak_mw * latency_ms;
        let energy_uj = dyn_uj + leak_uj;
        let power_mw = energy_uj / latency_ms;
        let throughput_mops = if latency_ms > 0.0 {
            (2.0 * plan.macs_useful as f64) / (latency_ms * 1e3)
        } else {
            0.0
        };
        Metrics {
            latency_cycles,
            latency_ms,
            energy_uj,
            power_mw,
            area_mm2,
            throughput_mops,
            utilization: plan.utilization(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::TensorTraffic;
    use tensor_ir::intrinsics::IntrinsicKind;

    fn cfg(rows: u32, cols: u32) -> AcceleratorConfig {
        AcceleratorConfig::builder(IntrinsicKind::Gemm)
            .pe_array(rows, cols)
            .build()
            .unwrap()
    }

    fn traffic_plan() -> ExecutionPlan {
        let mut p = ExecutionPlan::compute_only(4_000_000, 4_200_000, 1000);
        p.dram_reads.push(TensorTraffic::new("A", 512_000, 128));
        p.dram_reads.push(TensorTraffic::new("B", 512_000, 128));
        p.dram_writes.push(TensorTraffic::new("C", 128_000, 128));
        p.spad_traffic_bytes = 2_000_000;
        p.stages = 50;
        p.double_buffered = true;
        p
    }

    /// A plan whose latency is dominated by the PE array, not memory.
    fn compute_bound_plan() -> ExecutionPlan {
        let mut p = ExecutionPlan::compute_only(40_000_000, 40_000_000, 1000);
        p.dram_reads.push(TensorTraffic::new("A", 100_000, 128));
        p.dram_writes.push(TensorTraffic::new("C", 50_000, 128));
        p.spad_traffic_bytes = 500_000;
        p.stages = 50;
        p.double_buffered = true;
        p
    }

    #[test]
    fn more_pes_speed_up_large_work() {
        let m = CostModel::default();
        let p = compute_bound_plan();
        let small = m.latency_cycles(&cfg(8, 8), &p);
        let big = m.latency_cycles(&cfg(16, 16), &p);
        assert!(big < small);
    }

    #[test]
    fn call_overhead_punishes_overprovisioned_arrays() {
        // Small workload, many calls: a 32x32 array pays more fill/drain
        // than it gains — the Fig. 9(a) effect.
        let m = CostModel::default();
        let mut p = ExecutionPlan::compute_only(50_000, 50_000, 2000);
        p.spad_traffic_bytes = 10_000;
        let lat16 = m.latency_cycles(&cfg(16, 16), &p);
        // On the 32x32 array the same tiles are mostly padding: 4X the
        // executed MACs, same call count.
        let mut p32 = p.clone();
        p32.macs_padded = 200_000;
        let lat32 = m.latency_cycles(&cfg(32, 32), &p32);
        assert!(
            lat32 > lat16,
            "over-provisioned array should be slower: {lat32} vs {lat16}"
        );
    }

    #[test]
    fn banks_increase_spad_bandwidth() {
        let m = CostModel::default();
        let mut one = cfg(16, 16);
        one.banks = 1;
        let mut eight = cfg(16, 16);
        eight.banks = 8;
        let bytes = traffic_plan().spad_traffic_bytes;
        assert!(m.spad_bytes_cycles(&eight, bytes) < m.spad_bytes_cycles(&one, bytes));
    }

    #[test]
    fn non_contiguous_traffic_costs_more_dma() {
        let m = CostModel::default();
        let c = cfg(16, 16);
        let mut contig = ExecutionPlan::compute_only(1, 1, 1);
        contig
            .dram_reads
            .push(TensorTraffic::new("A", 1_000_000, 256));
        let mut strided = ExecutionPlan::compute_only(1, 1, 1);
        strided
            .dram_reads
            .push(TensorTraffic::new("A", 1_000_000, 8));
        assert!(m.dma_cycles(&c, &strided) > 2.0 * m.dma_cycles(&c, &contig));
    }

    #[test]
    fn double_buffering_hides_dma() {
        let m = CostModel::default();
        let c = cfg(16, 16);
        let mut serial = traffic_plan();
        serial.double_buffered = false;
        let buffered = traffic_plan();
        assert!(m.latency_cycles(&c, &buffered) < m.latency_cycles(&c, &serial));
    }

    #[test]
    fn rearrangement_adds_serial_latency() {
        let m = CostModel::default();
        let c = cfg(16, 16);
        let base = traffic_plan();
        let mut with_rearrange = traffic_plan();
        with_rearrange.rearrange_bytes = 4_000_000;
        assert!(m.latency_cycles(&c, &with_rearrange) > m.latency_cycles(&c, &base));
    }

    #[test]
    fn evaluate_produces_consistent_metrics() {
        let m = CostModel::default();
        let c = cfg(16, 16);
        let metrics = m.evaluate(&c, &traffic_plan());
        assert!(metrics.latency_ms > 0.0);
        assert!(metrics.power_mw > 0.0);
        assert!(metrics.area_mm2 > 0.0);
        assert!(metrics.throughput_mops > 0.0);
        assert!((0.9..1.0).contains(&metrics.utilization));
        // Energy must equal power * time.
        assert!((metrics.energy_uj - metrics.power_mw * metrics.latency_ms).abs() < 1e-6);
    }

    #[test]
    fn systolic_beats_unconnected_array() {
        let m = CostModel::default();
        let p = compute_bound_plan();
        let sys = cfg(16, 16);
        let mut none = cfg(16, 16);
        none.interconnect = Interconnect::None;
        assert!(m.latency_cycles(&sys, &p) < m.latency_cycles(&none, &p));
    }

    #[test]
    fn ga_l_vs_ga_s_power_and_throughput_shape() {
        // §II-C: GA_L (16x16, 256 KB) vs GA_S (8x8, 128 KB): more area, more
        // power, higher peak throughput.
        let m = CostModel::default();
        let ga_l = cfg(16, 16);
        let mut ga_s = cfg(8, 8);
        ga_s.scratchpad_bytes = 128 * 1024;
        let p = compute_bound_plan();
        let ml = m.evaluate(&ga_l, &p);
        let ms = m.evaluate(&ga_s, &p);
        assert!(ml.area_mm2 > ms.area_mm2);
        assert!(ml.throughput_mops > ms.throughput_mops);
        assert!(ml.power_mw > ms.power_mw);
    }

    #[test]
    fn latency_is_at_least_one_cycle() {
        let m = CostModel::default();
        let metrics = m.evaluate(&cfg(16, 16), &ExecutionPlan::compute_only(0, 0, 0));
        assert!(metrics.latency_cycles >= 1.0);
    }
}
