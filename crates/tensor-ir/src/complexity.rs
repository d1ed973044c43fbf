//! Compute-complexity accounting (the "Compute Complexity" column of the
//! paper's Table I).

use crate::expr::Computation;

/// Floating-point operations of a computation: one multiply per extra input
/// factor plus one accumulate, per iteration point. For the common two-input
/// case this is the textbook `2·Π(extents)`; for MTTKRP's three-tensor
/// product it is `3·Π(extents)`.
pub fn flops(comp: &Computation) -> u64 {
    let ops_per_point = comp.inputs.len().max(2) as u64;
    ops_per_point * comp.iteration_points()
}

/// Multiply-accumulate count: one MAC per iteration point (the unit the
/// accelerator model charges).
pub fn macs(comp: &Computation) -> u64 {
    comp.iteration_points()
}

/// Total DRAM bytes if every tensor (inputs and output) is transferred once.
pub fn footprint_bytes(comp: &Computation, dtype_bytes: u64) -> u64 {
    let inputs: u64 = comp.inputs.iter().map(|a| comp.tensor_elements(a)).sum();
    (inputs + comp.tensor_elements(&comp.output)) * dtype_bytes
}

/// Formats an op count the way the paper does: `255M`, `5.9G`, `16K`.
pub fn format_ops(ops: u64) -> String {
    const K: f64 = 1e3;
    const M: f64 = 1e6;
    const G: f64 = 1e9;
    let x = ops as f64;
    if x >= G {
        format!("{:.1}G", x / G)
    } else if x >= M {
        format!("{:.0}M", x / M)
    } else if x >= K {
        format!("{:.0}K", x / K)
    } else {
        format!("{ops}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suites;

    #[test]
    fn gemm_flops_are_2nmk() {
        let w = suites::gemm_workload("g", 10, 20, 30);
        assert_eq!(flops(&w.comp), 2 * 10 * 20 * 30);
    }

    #[test]
    fn mttkrp_flops_are_3x() {
        let w = suites::mttkrp_workload("m", 10, 10, 10, 10);
        assert_eq!(flops(&w.comp), 3 * 10_000);
        assert_eq!(macs(&w.comp), 10_000);
    }

    #[test]
    fn conv_flops() {
        let w = suites::conv2d_workload("c", 64, 64, 56, 56, 3, 3);
        assert_eq!(flops(&w.comp), 2 * 64 * 64 * 56 * 56 * 9);
    }

    #[test]
    fn format_matches_paper_style() {
        assert_eq!(format_ops(255_000_000), "255M");
        assert_eq!(format_ops(5_900_000_000), "5.9G");
        assert_eq!(format_ops(16_000), "16K");
        assert_eq!(format_ops(999), "999");
        assert_eq!(format_ops(4_300_000_000), "4.3G");
    }
}
