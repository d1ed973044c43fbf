//! Input descriptions (the left box of the paper's Fig. 3): workloads,
//! hardware generation method, and constraints.

use serde::{Deserialize, Serialize};
use tensor_ir::intrinsics::IntrinsicKind;
use tensor_ir::workload::TensorApp;

/// User constraints on the holistic solution (the paper's examples:
/// "latency: 10 ms, power: 15 watt").
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Constraints {
    /// Maximum end-to-end latency in milliseconds.
    pub max_latency_ms: Option<f64>,
    /// Maximum average power in milliwatts.
    pub max_power_mw: Option<f64>,
    /// Maximum accelerator area in mm².
    pub max_area_mm2: Option<f64>,
}

runtime::wire_struct!(Constraints {
    max_latency_ms,
    max_power_mw,
    max_area_mm2,
});

impl Constraints {
    /// A latency + power constraint pair (the Table II/III form).
    pub fn latency_power(max_latency_ms: f64, max_power_mw: f64) -> Self {
        Constraints {
            max_latency_ms: Some(max_latency_ms),
            max_power_mw: Some(max_power_mw),
            max_area_mm2: None,
        }
    }

    /// True when the metrics satisfy every set constraint.
    pub fn satisfied_by(&self, m: &accel_model::Metrics) -> bool {
        self.max_latency_ms.is_none_or(|c| m.latency_ms <= c)
            && self.max_power_mw.is_none_or(|c| m.power_mw <= c)
            && self.max_area_mm2.is_none_or(|c| m.area_mm2 <= c)
    }

    /// Relative violation magnitude (0.0 when satisfied); used to pick the
    /// least-violating fallback solution.
    pub fn violation(&self, m: &accel_model::Metrics) -> f64 {
        let mut v = 0.0;
        if let Some(c) = self.max_latency_ms {
            v += ((m.latency_ms - c) / c).max(0.0);
        }
        if let Some(c) = self.max_power_mw {
            v += ((m.power_mw - c) / c).max(0.0);
        }
        if let Some(c) = self.max_area_mm2 {
            v += ((m.area_mm2 - c) / c).max(0.0);
        }
        v
    }
}

/// Which generator builds the accelerator (Fig. 3's "Hardware Generation").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GenerationMethod {
    /// The built-in Chisel generator with the given intrinsic.
    Chisel(IntrinsicKind),
    /// The Gemmini systolic GEMM generator.
    Gemmini,
}

impl GenerationMethod {
    /// The intrinsic family the generated accelerators implement.
    pub fn intrinsic(&self) -> IntrinsicKind {
        match self {
            GenerationMethod::Chisel(k) => *k,
            GenerationMethod::Gemmini => IntrinsicKind::Gemm,
        }
    }
}

runtime::wire_enum!(GenerationMethod {
    0 => Chisel(kind),
    1 => Gemmini,
});

/// The full input description.
#[derive(Debug, Clone)]
pub struct InputDescription {
    /// The tensor application (all workloads share one accelerator).
    pub app: TensorApp,
    /// The hardware generation method.
    pub method: GenerationMethod,
    /// The user constraints.
    pub constraints: Constraints,
}

runtime::wire_struct!(InputDescription {
    app,
    method,
    constraints,
});

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(lat: f64, pow: f64, area: f64) -> accel_model::Metrics {
        accel_model::Metrics {
            latency_cycles: lat * 1e6,
            latency_ms: lat,
            energy_uj: pow * lat,
            power_mw: pow,
            area_mm2: area,
            throughput_mops: 1.0,
            utilization: 1.0,
        }
    }

    #[test]
    fn unset_constraints_always_satisfied() {
        let c = Constraints::default();
        assert!(c.satisfied_by(&metrics(1e9, 1e9, 1e9)));
        assert_eq!(c.violation(&metrics(1e9, 1e9, 1e9)), 0.0);
    }

    #[test]
    fn latency_power_constraint_checks_both() {
        let c = Constraints::latency_power(10.0, 2000.0);
        assert!(c.satisfied_by(&metrics(9.0, 1999.0, 50.0)));
        assert!(!c.satisfied_by(&metrics(11.0, 1999.0, 50.0)));
        assert!(!c.satisfied_by(&metrics(9.0, 2100.0, 50.0)));
    }

    #[test]
    fn violation_is_relative_and_additive() {
        let c = Constraints::latency_power(10.0, 1000.0);
        let v = c.violation(&metrics(20.0, 1500.0, 1.0));
        assert!((v - (1.0 + 0.5)).abs() < 1e-12);
    }

    #[test]
    fn method_intrinsics() {
        assert_eq!(GenerationMethod::Gemmini.intrinsic(), IntrinsicKind::Gemm);
        assert_eq!(
            GenerationMethod::Chisel(IntrinsicKind::Conv2d).intrinsic(),
            IntrinsicKind::Conv2d
        );
    }
}
