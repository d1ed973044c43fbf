//! The engine's store of completed final explorations (step 3, §VI-B).
//!
//! A job ends by re-optimizing the software "thoroughly" on the chosen
//! accelerator. That exploration is a pure function of the workload's
//! loop nest, the accelerator config, the `sw_final` options, the seed and
//! the final tier's backend, so the engine keeps every completed one,
//! keyed like the pair memo ([`key`]), and a job that prices a known
//! final reads it instead of exploring again.
//!
//! Jobs read and write the store live, with no per-job snapshot. A hit
//! returns bit for bit what the exploration would have returned, and it is
//! counted in neither [`RunStats`](crate::report::RunStats) nor the event
//! stream (`SoftwareOptimized` carries the stored rounds), so when an
//! entry becomes visible to a job cannot change any result. Only
//! explorations that ran all their rounds are stored: one cut short by a
//! cancel is not the pure function's value.
//!
//! Entries stay wire-encoded until a hit, so restoring an image decodes
//! none of them. The store persists beside the pair memo, as the second
//! section of the same [`Image`](runtime::Image).

use accel_model::arch::AcceleratorConfig;
use accel_model::Metrics;
use runtime::{EncodedStore, Fingerprint, Key128, StableFingerprint};
use sw_opt::explorer::ExplorerOptions;
use sw_opt::schedule::Schedule;
use tensor_ir::workload::Workload;

/// One completed final exploration of one workload.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Final {
    /// The best schedule found.
    pub schedule: Schedule,
    /// Its metrics on the accelerator.
    pub metrics: Metrics,
    /// Revision rounds the exploration ran.
    pub rounds: usize,
}

runtime::wire_struct!(Final {
    schedule,
    metrics,
    rounds,
});

/// The engine-wide finals store; see the module docs.
pub(crate) type FinalsStore = EncodedStore<Final>;

/// The key of `workload`'s final exploration on `cfg`: the workload's
/// loop nest, the `sw_final` options, the seed and the final tier's
/// backend fingerprint (which covers the tech constants), extended by the
/// accelerator config — the pair memo's recipe.
pub(crate) fn key(
    workload: &Workload,
    cfg: &AcceleratorConfig,
    sw_final: &ExplorerOptions,
    seed: u64,
    backend: Fingerprint,
) -> (u64, u64) {
    let mut key = Key128::of(|fp| {
        workload.fingerprint_into(fp);
        sw_final.fingerprint_into(fp);
        fp.write_u64(seed);
        fp.write_u64(backend.0);
    });
    key.feed(|fp| cfg.fingerprint_into(fp));
    key.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensor_ir::intrinsics::IntrinsicKind;
    use tensor_ir::suites;

    #[test]
    fn final_key_is_pinned() {
        // Final keys are persisted in `--cache` images: a moved key turns
        // every stored final into a miss.
        let cfg = AcceleratorConfig::builder(IntrinsicKind::Gemm)
            .pe_array(8, 8)
            .build()
            .unwrap();
        let key = key(
            &suites::gemm_workload("g2", 256, 128, 64),
            &cfg,
            &crate::CoDesignOptions::quick(0).sw_final,
            3,
            Fingerprint(0x1234),
        );
        assert_eq!(key, (0x4db8c51109472d7f, 0xcd5685e170f5d6c6));
    }
}
