//! Hand-rolled binary codec for every type that crosses the wire.
//!
//! The vendored `serde` is a marker-trait shim (no derive-driven codegen),
//! so the protocol encodes by hand, the same way the memo cache's
//! persisted image does: little-endian fixed-width integers, `f64` as
//! [`f64::to_bits`] (bit-exact round trips — determinism forbids any
//! text-float detour), length-prefixed strings and sequences, and
//! one-byte tags for enums and options. Framing, checksumming, and
//! truncation handling live a layer down in [`runtime::persist`]; decode
//! here assumes a checksum-validated payload and returns `None` on any
//! structural mismatch, which the transport surfaces as a protocol error.

use std::collections::BTreeMap;

use accel_model::arch::{AcceleratorConfig, Dataflow, Interconnect, PeArray};
use accel_model::tech::TechParams;
use accel_model::{BackendKind, Metrics};
use dse::problem::{Evaluation, OptimizerResult};
use hasco::codesign::CoDesignOptions;
use hasco::engine::{CampaignOutcome, CoDesignRequest};
use hasco::event::{CampaignEvent, RunEvent};
use hasco::input::{Constraints, GenerationMethod, InputDescription};
use hasco::remote::RemoteEvalRequest;
use hasco::solution::{Solution, WorkloadSolution};
use hasco::{HascoError, OptimizerKind, RunStats};
use runtime::CacheStats;
use sw_opt::explorer::ExplorerOptions;
use sw_opt::schedule::Schedule;
use tensor_ir::expr::{Access, AffineDim, Computation};
use tensor_ir::index::{IndexId, IndexKind, IndexVar};
use tensor_ir::intrinsics::IntrinsicKind;
use tensor_ir::matching::TensorizeChoice;
use tensor_ir::workload::{TensorApp, Workload};

/// A cursor over a decoded payload.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps a payload.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Takes the next `n` bytes, or `None` past the end.
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let slice = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(slice)
    }

    /// True once the whole payload was consumed — decoders require this
    /// so trailing garbage can't hide in a valid-looking message.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }
}

/// Symmetric binary encoding. `decode` must accept exactly what `encode`
/// produced (a bit-exact round trip) and reject everything else with
/// `None`.
pub trait Wire: Sized {
    /// Appends this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Decodes one value from the cursor.
    fn decode(r: &mut Reader<'_>) -> Option<Self>;
}

impl Wire for u8 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }
    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        r.take(1).and_then(|b| b.first()).copied()
    }
}

impl Wire for u32 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        r.take(4)
            .and_then(|b| b.try_into().ok())
            .map(u32::from_le_bytes)
    }
}

impl Wire for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        r.take(8)
            .and_then(|b| b.try_into().ok())
            .map(u64::from_le_bytes)
    }
}

impl Wire for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        usize::try_from(u64::decode(r)?).ok()
    }
}

impl Wire for f64 {
    fn encode(&self, out: &mut Vec<u8>) {
        self.to_bits().encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        u64::decode(r).map(f64::from_bits)
    }
}

impl Wire for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        match u8::decode(r)? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}

impl Wire for String {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        let len = usize::decode(r)?;
        String::from_utf8(r.take(len)?.to_vec()).ok()
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        match u8::decode(r)? {
            0 => Some(None),
            1 => Some(Some(T::decode(r)?)),
            _ => None,
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        for item in self {
            item.encode(out);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        let len = usize::decode(r)?;
        // No speculative preallocation from the wire length: a corrupt
        // count fails on the first short `take`, not in the allocator.
        let mut items = Vec::new();
        for _ in 0..len {
            items.push(T::decode(r)?);
        }
        Some(items)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        Some((A::decode(r)?, B::decode(r)?))
    }
}

impl<K: Wire + Ord, V: Wire> Wire for BTreeMap<K, V> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        for (k, v) in self {
            k.encode(out);
            v.encode(out);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        let len = usize::decode(r)?;
        let mut map = BTreeMap::new();
        for _ in 0..len {
            let k = K::decode(r)?;
            let v = V::decode(r)?;
            // `encode` writes keys strictly ascending; anything else
            // (a repeat, or keys out of order) would decode to a map
            // that re-encodes to different bytes.
            if map.last_key_value().is_some_and(|(last, _)| *last >= k) {
                return None;
            }
            map.insert(k, v);
        }
        Some(map)
    }
}

impl<T: Wire, E: Wire> Wire for Result<T, E> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Ok(v) => {
                out.push(0);
                v.encode(out);
            }
            Err(e) => {
                out.push(1);
                e.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        match u8::decode(r)? {
            0 => Some(Ok(T::decode(r)?)),
            1 => Some(Err(E::decode(r)?)),
            _ => None,
        }
    }
}

/// Implements [`Wire`] for a struct with all-[`Wire`] public fields,
/// encoded in declaration order.
macro_rules! wire_struct {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl Wire for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                $(self.$field.encode(out);)+
            }
            fn decode(r: &mut Reader<'_>) -> Option<Self> {
                Some(Self { $($field: Wire::decode(r)?),+ })
            }
        }
    };
}

/// Implements [`Wire`] for a fieldless enum as a one-byte tag.
macro_rules! wire_enum_unit {
    ($ty:ty { $($tag:literal => $variant:path),+ $(,)? }) => {
        impl Wire for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                match self { $($variant => out.push($tag)),+ }
            }
            fn decode(r: &mut Reader<'_>) -> Option<Self> {
                match u8::decode(r)? { $($tag => Some($variant),)+ _ => None }
            }
        }
    };
}

// ---- tensor-ir ----------------------------------------------------------

impl Wire for IndexId {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        usize::decode(r).map(IndexId)
    }
}

wire_enum_unit!(IndexKind {
    0 => IndexKind::Spatial,
    1 => IndexKind::Reduction,
});
wire_struct!(IndexVar { name, extent, kind });
wire_struct!(AffineDim { terms });
wire_struct!(Access { tensor, dims });
wire_struct!(Computation {
    name,
    indices,
    output,
    inputs,
});
wire_struct!(Workload { name, comp });
wire_struct!(TensorApp { name, workloads });
wire_enum_unit!(IntrinsicKind {
    0 => IntrinsicKind::Dot,
    1 => IntrinsicKind::Gemv,
    2 => IntrinsicKind::Gemm,
    3 => IntrinsicKind::Conv2d,
});
wire_struct!(TensorizeChoice {
    intrinsic,
    var_map,
    needs_rearrangement,
});

// ---- accel-model --------------------------------------------------------

wire_struct!(PeArray { rows, cols });
wire_enum_unit!(Interconnect {
    0 => Interconnect::None,
    1 => Interconnect::Systolic,
    2 => Interconnect::Full,
});
wire_enum_unit!(Dataflow {
    0 => Dataflow::OutputStationary,
    1 => Dataflow::WeightStationary,
    2 => Dataflow::InputStationary,
});
wire_struct!(AcceleratorConfig {
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
wire_struct!(Metrics {
    latency_cycles,
    latency_ms,
    energy_uj,
    power_mw,
    area_mm2,
    throughput_mops,
    utilization,
});
wire_enum_unit!(BackendKind {
    0 => BackendKind::Analytic,
    1 => BackendKind::TraceSim,
    2 => BackendKind::Calibrated,
    3 => BackendKind::Surrogate,
});

impl Wire for TechParams {
    fn encode(&self, out: &mut Vec<u8>) {
        for v in self.to_array() {
            v.encode(out);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        let mut a = [0.0f64; 13];
        for slot in &mut a {
            *slot = f64::decode(r)?;
        }
        Some(TechParams::from_array(a))
    }
}

// ---- sw-opt / dse -------------------------------------------------------

wire_struct!(ExplorerOptions {
    pool,
    rounds,
    top_k,
    max_pool,
    use_qlearning,
    fixed_choice,
});
wire_struct!(Schedule {
    choice,
    tiles,
    outer_order,
    fuse_outer,
});
wire_struct!(Evaluation { point, objectives });
wire_struct!(OptimizerResult {
    optimizer,
    evaluations,
    infeasible,
});

// ---- hasco core ---------------------------------------------------------

wire_struct!(Constraints {
    max_latency_ms,
    max_power_mw,
    max_area_mm2,
});

impl Wire for GenerationMethod {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            GenerationMethod::Chisel(k) => {
                out.push(0);
                k.encode(out);
            }
            GenerationMethod::Gemmini => out.push(1),
        }
    }
    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        match u8::decode(r)? {
            0 => Some(GenerationMethod::Chisel(IntrinsicKind::decode(r)?)),
            1 => Some(GenerationMethod::Gemmini),
            _ => None,
        }
    }
}

wire_struct!(InputDescription {
    app,
    method,
    constraints,
});
wire_enum_unit!(OptimizerKind {
    0 => OptimizerKind::Mobo,
    1 => OptimizerKind::Nsga2,
    2 => OptimizerKind::Random,
    3 => OptimizerKind::Anneal,
});

impl Wire for CoDesignOptions {
    fn encode(&self, out: &mut Vec<u8>) {
        self.hw_trials.encode(out);
        self.mobo_prior.encode(out);
        self.sw_inner.encode(out);
        self.sw_final.encode(out);
        self.tuning_rounds.encode(out);
        self.seed.encode(out);
        self.threads.encode(out);
        self.work_stealing.encode(out);
        self.cache_capacity.encode(out);
        self.backend.encode(out);
        self.refine_backend.encode(out);
        self.refine_top_k.encode(out);
        self.adaptive_refinement.encode(out);
        self.tech.encode(out);
        self.optimizer.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        // Start from a constructed options value (the struct is not
        // `Default`) and overwrite every wire-carried field.
        let mut opts = CoDesignOptions::quick(0);
        opts.hw_trials = Wire::decode(r)?;
        opts.mobo_prior = Wire::decode(r)?;
        opts.sw_inner = Wire::decode(r)?;
        opts.sw_final = Wire::decode(r)?;
        opts.tuning_rounds = Wire::decode(r)?;
        opts.seed = Wire::decode(r)?;
        opts.threads = Wire::decode(r)?;
        opts.work_stealing = Wire::decode(r)?;
        opts.cache_capacity = Wire::decode(r)?;
        opts.backend = Wire::decode(r)?;
        opts.refine_backend = Wire::decode(r)?;
        opts.refine_top_k = Wire::decode(r)?;
        opts.adaptive_refinement = Wire::decode(r)?;
        opts.tech = Wire::decode(r)?;
        opts.optimizer = Wire::decode(r)?;
        Some(opts)
    }
}

wire_struct!(CoDesignRequest {
    input,
    options,
    label,
});
wire_struct!(CacheStats {
    hits,
    misses,
    inserts,
    evictions,
});
wire_struct!(RunStats {
    hw_evaluations,
    sw_explorations,
    refine_explorations,
    backend,
    refine_backend,
    refine_topk_trajectory,
    surrogate_samples,
    surrogate_trusted,
    warm_cache_entries,
    cache,
});
wire_struct!(WorkloadSolution {
    workload,
    schedule,
    metrics,
    program,
});
wire_struct!(Solution {
    accelerator,
    per_workload,
    total,
    meets_constraints,
    hw_history,
    stats,
});
wire_struct!(CampaignOutcome {
    label,
    solution,
    shared_with,
});
wire_struct!(RemoteEvalRequest {
    backend,
    tech,
    seed,
    sw_opts,
    workload,
    config,
});

impl Wire for HascoError {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            HascoError::EmptyApp => out.push(0),
            HascoError::InvalidOptions(msg) => {
                out.push(1);
                msg.encode(out);
            }
            HascoError::Cancelled => out.push(2),
            HascoError::NoFeasibleAccelerator => out.push(3),
            HascoError::Software(msg) => {
                out.push(4);
                msg.encode(out);
            }
            HascoError::Hardware(msg) => {
                out.push(5);
                msg.encode(out);
            }
            HascoError::Transport(msg) => {
                out.push(6);
                msg.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        Some(match u8::decode(r)? {
            0 => HascoError::EmptyApp,
            1 => HascoError::InvalidOptions(String::decode(r)?),
            2 => HascoError::Cancelled,
            3 => HascoError::NoFeasibleAccelerator,
            4 => HascoError::Software(String::decode(r)?),
            5 => HascoError::Hardware(String::decode(r)?),
            6 => HascoError::Transport(String::decode(r)?),
            _ => return None,
        })
    }
}

impl Wire for RunEvent {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            RunEvent::Started { label, workloads } => {
                out.push(0);
                label.encode(out);
                workloads.encode(out);
            }
            RunEvent::Partitioned { workload, choices } => {
                out.push(1);
                workload.encode(out);
                choices.encode(out);
            }
            RunEvent::BatchEvaluated {
                optimizer,
                phase,
                batch,
                evaluated,
                feasible,
            } => {
                out.push(2);
                optimizer.encode(out);
                phase.encode(out);
                batch.encode(out);
                evaluated.encode(out);
                feasible.encode(out);
            }
            RunEvent::Refined {
                batch,
                survivors,
                budget,
            } => {
                out.push(3);
                batch.encode(out);
                survivors.encode(out);
                budget.encode(out);
            }
            RunEvent::SoftwareOptimized {
                workload,
                rounds,
                latency_ms,
            } => {
                out.push(4);
                workload.encode(out);
                rounds.encode(out);
                latency_ms.encode(out);
            }
            RunEvent::Tuned {
                round,
                meets_constraints,
            } => {
                out.push(5);
                round.encode(out);
                meets_constraints.encode(out);
            }
            RunEvent::Solved {
                meets_constraints,
                latency_ms,
            } => {
                out.push(6);
                meets_constraints.encode(out);
                latency_ms.encode(out);
            }
            RunEvent::Cancelled => out.push(7),
            RunEvent::Failed { error } => {
                out.push(8);
                error.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        Some(match u8::decode(r)? {
            0 => RunEvent::Started {
                label: Wire::decode(r)?,
                workloads: Wire::decode(r)?,
            },
            1 => RunEvent::Partitioned {
                workload: Wire::decode(r)?,
                choices: Wire::decode(r)?,
            },
            2 => RunEvent::BatchEvaluated {
                optimizer: Wire::decode(r)?,
                phase: Wire::decode(r)?,
                batch: Wire::decode(r)?,
                evaluated: Wire::decode(r)?,
                feasible: Wire::decode(r)?,
            },
            3 => RunEvent::Refined {
                batch: Wire::decode(r)?,
                survivors: Wire::decode(r)?,
                budget: Wire::decode(r)?,
            },
            4 => RunEvent::SoftwareOptimized {
                workload: Wire::decode(r)?,
                rounds: Wire::decode(r)?,
                latency_ms: Wire::decode(r)?,
            },
            5 => RunEvent::Tuned {
                round: Wire::decode(r)?,
                meets_constraints: Wire::decode(r)?,
            },
            6 => RunEvent::Solved {
                meets_constraints: Wire::decode(r)?,
                latency_ms: Wire::decode(r)?,
            },
            7 => RunEvent::Cancelled,
            8 => RunEvent::Failed {
                error: Wire::decode(r)?,
            },
            _ => return None,
        })
    }
}

impl Wire for CampaignEvent {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            CampaignEvent::Planned {
                scenarios,
                unique_jobs,
                deduplicated,
            } => {
                out.push(0);
                scenarios.encode(out);
                unique_jobs.encode(out);
                deduplicated.encode(out);
            }
            CampaignEvent::Job { label, event } => {
                out.push(1);
                label.encode(out);
                event.encode(out);
            }
            CampaignEvent::ScenarioDone {
                label,
                shared_with,
                completed,
                total,
            } => {
                out.push(2);
                label.encode(out);
                shared_with.encode(out);
                completed.encode(out);
                total.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        Some(match u8::decode(r)? {
            0 => CampaignEvent::Planned {
                scenarios: Wire::decode(r)?,
                unique_jobs: Wire::decode(r)?,
                deduplicated: Wire::decode(r)?,
            },
            1 => CampaignEvent::Job {
                label: Wire::decode(r)?,
                event: Wire::decode(r)?,
            },
            2 => CampaignEvent::ScenarioDone {
                label: Wire::decode(r)?,
                shared_with: Wire::decode(r)?,
                completed: Wire::decode(r)?,
                total: Wire::decode(r)?,
            },
            _ => return None,
        })
    }
}

/// Encodes one value to a fresh buffer.
pub fn to_bytes<T: Wire>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.encode(&mut out);
    out
}

/// Decodes one value, requiring the payload to be fully consumed.
pub fn from_bytes<T: Wire>(bytes: &[u8]) -> Option<T> {
    let mut r = Reader::new(bytes);
    let value = T::decode(&mut r)?;
    r.is_exhausted().then_some(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Wire + std::fmt::Debug>(value: &T) -> T {
        let bytes = to_bytes(value);
        from_bytes(&bytes).expect("round trip decodes")
    }

    /// Debug output for these types prints floats in shortest-round-trip
    /// form, so Debug equality is bit equality for everything we care
    /// about (no NaNs in the domain).
    fn assert_roundtrip<T: Wire + std::fmt::Debug>(value: &T) {
        assert_eq!(format!("{value:?}"), format!("{:?}", roundtrip(value)));
    }

    #[test]
    fn primitives_round_trip() {
        assert_roundtrip(&0u8);
        assert_roundtrip(&u64::MAX);
        assert_roundtrip(&(-0.0f64));
        assert_roundtrip(&1.000000000000004f64);
        assert_roundtrip(&Some("labelled".to_string()));
        assert_roundtrip(&Option::<u64>::None);
        assert_roundtrip(&vec![1usize, 2, 3]);
    }

    #[test]
    fn request_and_workload_round_trip() {
        let app = TensorApp::new(
            "toy",
            vec![
                tensor_ir::suites::gemm_workload("g", 64, 32, 16),
                tensor_ir::suites::gemm_workload("h", 8, 8, 8),
            ],
        );
        let input = InputDescription {
            app,
            method: GenerationMethod::Chisel(IntrinsicKind::Gemm),
            constraints: Constraints::latency_power(4.0, 900.0),
        };
        let mut opts = CoDesignOptions::quick(1234)
            .with_threads(3)
            .with_work_stealing(false);
        opts.refine_top_k = 2;
        opts.refine_backend = BackendKind::TraceSim;
        let request = CoDesignRequest::new(input, opts).with_label("wire-test");
        let back: CoDesignRequest = roundtrip(&request);
        // The request fingerprint hashes everything that can change a
        // solution, so fingerprint equality covers all of that at once.
        assert_eq!(request.fingerprint(), back.fingerprint());
        assert_eq!(request.label, back.label);
        // Thread count and stealing are outside the fingerprint; they
        // still travel, and a worker must honor the non-defaults.
        assert_eq!(back.options.threads, 3);
        assert!(!back.options.work_stealing);
    }

    #[test]
    fn events_and_errors_round_trip() {
        assert_roundtrip(&RunEvent::Started {
            label: "x".into(),
            workloads: 3,
        });
        assert_roundtrip(&RunEvent::Solved {
            meets_constraints: true,
            latency_ms: 1.25,
        });
        assert_roundtrip(&RunEvent::Cancelled);
        assert_roundtrip(&CampaignEvent::ScenarioDone {
            label: "a".into(),
            shared_with: Some("b".into()),
            completed: 2,
            total: 9,
        });
        assert_roundtrip(&HascoError::InvalidOptions("bad".into()));
        assert_roundtrip(&HascoError::Transport("conn reset".into()));
        let res: Result<u64, HascoError> = Err(HascoError::Cancelled);
        assert_roundtrip(&res);
    }

    #[test]
    fn trailing_garbage_and_truncation_are_rejected() {
        let mut bytes = to_bytes(&RunEvent::Cancelled);
        assert!(from_bytes::<RunEvent>(&bytes).is_some());
        bytes.push(7);
        assert!(from_bytes::<RunEvent>(&bytes).is_none());
        let event = to_bytes(&RunEvent::Started {
            label: "abc".into(),
            workloads: 1,
        });
        assert!(from_bytes::<RunEvent>(&event[..event.len() - 1]).is_none());
        assert!(from_bytes::<RunEvent>(&[99]).is_none());
    }

    #[test]
    fn maps_with_unsorted_or_repeated_keys_are_rejected() {
        let map = BTreeMap::from([(IndexId(0), 8u64), (IndexId(2), 16)]);
        let bytes = to_bytes(&map);
        assert_eq!(from_bytes::<BTreeMap<IndexId, u64>>(&bytes), Some(map));
        // Entries are (key u64, value u64) after the 8-byte count; the
        // second key sits at offset 24. Out of order, then repeated.
        for key in [0u8, 1] {
            let mut bad = bytes.clone();
            bad[24..32].copy_from_slice(&[0; 8]);
            bad[24] = key;
            bad[8] = 1;
            assert_eq!(
                from_bytes::<BTreeMap<IndexId, u64>>(&bad),
                None,
                "key {key}"
            );
        }
    }
}
