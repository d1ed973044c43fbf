//! Technology constants for the energy/area models.
//!
//! Order-of-magnitude figures for a 28 nm process. Only *relative* behaviour
//! matters for reproducing the paper's trends (who wins, where crossovers
//! fall); the constants are deliberately round numbers.

use serde::{Deserialize, Serialize};

/// Per-operation energy and per-unit area constants.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TechParams {
    /// Energy per multiply-accumulate, picojoules.
    pub e_mac_pj: f64,
    /// Base scratchpad energy per byte accessed, picojoules (scaled with
    /// capacity by [`TechParams::spad_energy_per_byte`]).
    pub e_spad_base_pj: f64,
    /// Local (per-PE) memory energy per byte, picojoules.
    pub e_local_pj: f64,
    /// DRAM energy per byte, picojoules.
    pub e_dram_pj: f64,
    /// NoC energy per byte-hop, picojoules.
    pub e_hop_pj: f64,
    /// Data rearrangement energy per byte (shuffle network / CPU assist).
    pub e_rearrange_pj: f64,
    /// PE area, mm² (MAC + registers + control).
    pub a_pe_mm2: f64,
    /// SRAM area per KiB, mm².
    pub a_sram_mm2_per_kb: f64,
    /// Extra area fraction per additional scratchpad bank (periphery).
    pub bank_overhead_frac: f64,
    /// Fixed DMA engine area, mm².
    pub a_dma_mm2: f64,
    /// Fixed controller/decoder area, mm².
    pub a_ctrl_mm2: f64,
    /// Leakage power per mm², milliwatts.
    pub leakage_mw_per_mm2: f64,
    /// DMA fixed overhead per burst, cycles.
    pub burst_overhead_cycles: f64,
}

impl Default for TechParams {
    fn default() -> Self {
        TechParams {
            e_mac_pj: 0.8,
            e_spad_base_pj: 0.6,
            e_local_pj: 0.15,
            e_dram_pj: 16.0,
            e_hop_pj: 0.06,
            e_rearrange_pj: 4.0,
            a_pe_mm2: 0.012,
            a_sram_mm2_per_kb: 0.045,
            bank_overhead_frac: 0.03,
            a_dma_mm2: 0.25,
            a_ctrl_mm2: 0.35,
            leakage_mw_per_mm2: 6.0,
            burst_overhead_cycles: 18.0,
        }
    }
}

impl runtime::StableFingerprint for TechParams {
    // Every constant changes every backend's metrics, so all of them key
    // memoized evaluation results (a cache shared across a `--tech-sweep`
    // must never serve one node's prices for another's).
    fn fingerprint_into(&self, fp: &mut runtime::Fingerprinter) {
        for f in self.to_array() {
            fp.write_f64(f);
        }
    }
}

runtime::wire_struct!(TechParams {
    e_mac_pj,
    e_spad_base_pj,
    e_local_pj,
    e_dram_pj,
    e_hop_pj,
    e_rearrange_pj,
    a_pe_mm2,
    a_sram_mm2_per_kb,
    bank_overhead_frac,
    a_dma_mm2,
    a_ctrl_mm2,
    leakage_mw_per_mm2,
    burst_overhead_cycles,
});

impl TechParams {
    /// Every constant in a fixed order — the one canonical flattening of
    /// the fingerprint, and the order the [`Wire`](runtime::wire::Wire)
    /// encoding declares its fields in. Extending the struct means
    /// extending both, which also versions every derived fingerprint.
    pub fn to_array(&self) -> [f64; 13] {
        [
            self.e_mac_pj,
            self.e_spad_base_pj,
            self.e_local_pj,
            self.e_dram_pj,
            self.e_hop_pj,
            self.e_rearrange_pj,
            self.a_pe_mm2,
            self.a_sram_mm2_per_kb,
            self.bank_overhead_frac,
            self.a_dma_mm2,
            self.a_ctrl_mm2,
            self.leakage_mw_per_mm2,
            self.burst_overhead_cycles,
        ]
    }

    /// The named technology profiles swept by `--tech-sweep`: the default
    /// 28 nm constants plus a denser and an older node, scaled with the
    /// usual first-order trends (dynamic energy and area shrink faster
    /// than leakage improves; DRAM interface energy moves least).
    pub fn profiles() -> [(&'static str, TechParams); 3] {
        let base = TechParams::default();
        let scaled = |energy: f64, dram: f64, area: f64, leak: f64, burst: f64| TechParams {
            e_mac_pj: base.e_mac_pj * energy,
            e_spad_base_pj: base.e_spad_base_pj * energy,
            e_local_pj: base.e_local_pj * energy,
            e_dram_pj: base.e_dram_pj * dram,
            e_hop_pj: base.e_hop_pj * energy,
            e_rearrange_pj: base.e_rearrange_pj * energy,
            a_pe_mm2: base.a_pe_mm2 * area,
            a_sram_mm2_per_kb: base.a_sram_mm2_per_kb * area,
            bank_overhead_frac: base.bank_overhead_frac,
            a_dma_mm2: base.a_dma_mm2 * area,
            a_ctrl_mm2: base.a_ctrl_mm2 * area,
            leakage_mw_per_mm2: base.leakage_mw_per_mm2 * leak,
            burst_overhead_cycles: (base.burst_overhead_cycles * burst).round(),
        };
        [
            ("28nm", base.clone()),
            ("16nm", scaled(0.55, 0.80, 0.45, 0.85, 0.75)),
            ("40nm", scaled(1.80, 1.25, 1.90, 1.40, 1.35)),
        ]
    }

    /// Scratchpad energy per byte for a given capacity: grows with the
    /// square root of capacity (longer word/bit lines), normalized so a
    /// 128 KiB scratchpad costs exactly [`TechParams::e_spad_base_pj`].
    pub fn spad_energy_per_byte(&self, capacity_bytes: u64) -> f64 {
        let kb = (capacity_bytes as f64 / 1024.0).max(1.0);
        self.e_spad_base_pj * (kb / 128.0).sqrt().max(0.25)
    }

    /// Area of a scratchpad with the given capacity and bank count.
    pub fn spad_area_mm2(&self, capacity_bytes: u64, banks: u32) -> f64 {
        let kb = capacity_bytes as f64 / 1024.0;
        let base = kb * self.a_sram_mm2_per_kb;
        base * (1.0 + self.bank_overhead_frac * banks.saturating_sub(1) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spad_energy_grows_with_capacity() {
        let t = TechParams::default();
        let small = t.spad_energy_per_byte(64 * 1024);
        let big = t.spad_energy_per_byte(1024 * 1024);
        assert!(big > small);
        assert!((t.spad_energy_per_byte(128 * 1024) - t.e_spad_base_pj).abs() < 1e-12);
    }

    #[test]
    fn spad_energy_has_floor() {
        let t = TechParams::default();
        assert!(t.spad_energy_per_byte(1) >= t.e_spad_base_pj * 0.25);
    }

    #[test]
    fn banking_adds_area() {
        let t = TechParams::default();
        let a1 = t.spad_area_mm2(256 * 1024, 1);
        let a8 = t.spad_area_mm2(256 * 1024, 8);
        assert!(a8 > a1);
        assert!((a8 / a1 - 1.21).abs() < 1e-9); // 7 extra banks * 3 %
    }

    #[test]
    fn defaults_are_positive() {
        let t = TechParams::default();
        assert!(t.e_mac_pj > 0.0 && t.e_dram_pj > t.e_spad_base_pj);
        assert!(t.a_pe_mm2 > 0.0 && t.leakage_mw_per_mm2 > 0.0);
    }

    #[test]
    fn array_round_trip_is_exact() {
        use runtime::wire::{from_bytes, to_bytes};
        for (name, t) in TechParams::profiles() {
            // The wire layout is the flattening, and it decodes back.
            let bytes = to_bytes(&t);
            assert_eq!(bytes, to_bytes(&t.to_array().to_vec())[8..], "{name}");
            assert_eq!(from_bytes::<TechParams>(&bytes), Some(t), "{name}");
        }
    }

    #[test]
    fn profiles_are_distinct_and_ordered_by_node() {
        use runtime::StableFingerprint;
        let profiles = TechParams::profiles();
        assert_eq!(profiles[0].1, TechParams::default());
        let fps: Vec<_> = profiles.iter().map(|(_, t)| t.fingerprint()).collect();
        assert!(fps[0] != fps[1] && fps[1] != fps[2] && fps[0] != fps[2]);
        let mac = |i: usize| profiles[i].1.e_mac_pj;
        assert!(mac(1) < mac(0) && mac(0) < mac(2), "denser node = less pJ");
    }
}
