//! Performance metrics returned by the cost model and the simulator.

use serde::{Deserialize, Serialize};

/// Latency, power, area, and derived metrics of one evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Metrics {
    /// End-to-end latency in accelerator cycles.
    pub latency_cycles: f64,
    /// End-to-end latency in milliseconds at the configured frequency.
    pub latency_ms: f64,
    /// Total dynamic + leakage energy, microjoules.
    pub energy_uj: f64,
    /// Average power, milliwatts.
    pub power_mw: f64,
    /// Accelerator area, mm².
    pub area_mm2: f64,
    /// Useful throughput, MOPS (2 ops per useful MAC over wall time).
    pub throughput_mops: f64,
    /// Useful-MAC fraction (1.0 = no padding waste).
    pub utilization: f64,
}

runtime::wire_struct!(Metrics {
    latency_cycles,
    latency_ms,
    energy_uj,
    power_mw,
    area_mm2,
    throughput_mops,
    utilization,
});

impl Metrics {
    /// The three objectives of the hardware DSE (§V-B), all to be
    /// *minimized*: latency (cycles), power (mW), area (mm²).
    pub fn objectives(&self) -> [f64; 3] {
        [self.latency_cycles, self.power_mw, self.area_mm2]
    }

    /// Pareto dominance on (latency, power, area): true if `self` is no
    /// worse in all objectives and strictly better in at least one.
    pub fn dominates(&self, other: &Metrics) -> bool {
        let a = self.objectives();
        let b = other.objectives();
        let mut strictly = false;
        for i in 0..3 {
            if a[i] > b[i] {
                return false;
            }
            if a[i] < b[i] {
                strictly = true;
            }
        }
        strictly
    }

    /// Sums latency/energy across sequentially executed workloads sharing
    /// one accelerator (area is unchanged; power re-averaged).
    pub fn sequential(parts: &[Metrics]) -> Metrics {
        assert!(!parts.is_empty(), "sequential() needs at least one part");
        let latency_cycles: f64 = parts.iter().map(|m| m.latency_cycles).sum();
        let latency_ms: f64 = parts.iter().map(|m| m.latency_ms).sum();
        let energy_uj: f64 = parts.iter().map(|m| m.energy_uj).sum();
        let area_mm2 = parts.iter().map(|m| m.area_mm2).fold(0.0, f64::max);
        let power_mw = if latency_ms > 0.0 {
            energy_uj / latency_ms
        } else {
            0.0
        };
        let total_util: f64 = parts
            .iter()
            .map(|m| m.utilization * m.latency_cycles)
            .sum::<f64>();
        let utilization = if latency_cycles > 0.0 {
            total_util / latency_cycles
        } else {
            1.0
        };
        let ops: f64 = parts.iter().map(|m| m.throughput_mops * m.latency_ms).sum();
        let throughput_mops = if latency_ms > 0.0 {
            ops / latency_ms
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
            utilization,
        }
    }
}

impl std::fmt::Display for Metrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "latency {:.3} ms ({:.0} cycles), power {:.1} mW, area {:.2} mm2, {:.1} MOPS, util {:.0}%",
            self.latency_ms,
            self.latency_cycles,
            self.power_mw,
            self.area_mm2,
            self.throughput_mops,
            self.utilization * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(lat: f64, pow: f64, area: f64) -> Metrics {
        Metrics {
            latency_cycles: lat,
            latency_ms: lat / 1e6,
            energy_uj: pow * lat / 1e6,
            power_mw: pow,
            area_mm2: area,
            throughput_mops: 1.0,
            utilization: 1.0,
        }
    }

    #[test]
    fn dominance_requires_strict_improvement() {
        let a = m(1.0, 1.0, 1.0);
        let b = m(1.0, 1.0, 1.0);
        assert!(!a.dominates(&b));
        let c = m(0.5, 1.0, 1.0);
        assert!(c.dominates(&a));
        assert!(!a.dominates(&c));
    }

    #[test]
    fn dominance_fails_on_tradeoff() {
        let a = m(0.5, 2.0, 1.0);
        let b = m(1.0, 1.0, 1.0);
        assert!(!a.dominates(&b));
        assert!(!b.dominates(&a));
    }

    #[test]
    fn sequential_sums_latency_keeps_area() {
        let total = Metrics::sequential(&[m(100.0, 10.0, 5.0), m(300.0, 20.0, 5.0)]);
        assert!((total.latency_cycles - 400.0).abs() < 1e-9);
        assert!((total.area_mm2 - 5.0).abs() < 1e-9);
        // Power is the energy-weighted average: (10*100 + 20*300)/400 = 17.5.
        assert!((total.power_mw - 17.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one part")]
    fn sequential_rejects_empty() {
        let _ = Metrics::sequential(&[]);
    }

    #[test]
    fn display_mentions_all_metrics() {
        let s = m(1000.0, 5.0, 2.0).to_string();
        assert!(s.contains("mW") && s.contains("mm2") && s.contains("MOPS"));
    }
}
