//! `marioh-store`: the persistence layer of the MARIOH serving stack.
//!
//! MARIOH's pipeline is deterministic — identical `(input, method,
//! params, seed)` always yields the same reconstruction — which makes
//! three ROADMAP items one storage subsystem:
//!
//! * **Canonical specs** ([`spec`]): a [`JobSpec`] has a canonical byte
//!   encoding and a SHA-256 [`SpecHash`] that is independent of JSON key
//!   order, whitespace, omitted-vs-explicit defaults, and non-semantic
//!   knobs (`threads`, `throttle_ms`) — two specs hash equal iff they
//!   describe the same computation.
//! * **Job records** ([`store::JobStore`]): lifecycle state, progress,
//!   and results, behind a trait with an in-memory implementation
//!   ([`store::MemoryStore`], extracted from the server's `JobManager`)
//!   and a durable one ([`disk::DiskStore`]) built on an append-only
//!   record log + snapshot — a restarted server serves pre-crash results
//!   and re-queues interrupted jobs.
//! * **Artifacts** ([`store::ArtifactStore`]): a content-addressed cache
//!   keyed by spec hash, holding [`JobResult`]s (repeat submissions
//!   answer instantly, marked `cached`) and trained models
//!   ([`marioh_core::SavedModel`], including the donor's post-training
//!   RNG state so transfer jobs reproduce the donor bit-for-bit), plus
//!   named models for `marioh model export/import`.
//!
//! The server's `JobManager` is orchestration only — queueing, worker
//! wakeup, cancellation tokens — over `Arc<dyn JobStore>` +
//! `Arc<dyn ArtifactStore>`; everything that outlives a process lives
//! here. On-disk format versions and their migration notes are tracked
//! in `crates/store/FORMATS.md` (CI refuses version bumps without a
//! note).

#![warn(missing_docs)]

pub mod compress;
pub mod disk;
pub mod hash;
pub mod json;
pub mod segment;
pub mod spec;
pub mod store;

pub use disk::{decode_result, encode_result, DiskStore, StoreTuning, STORE_FORMAT_VERSION};
pub use hash::SpecHash;
pub use json::Json;
pub use spec::{
    variant_by_name, JobInput, JobParams, JobResult, JobSpec, JobStatus, JobView, ModelRef,
    Transition, MAX_THROTTLE_MS,
};
pub use store::{
    ArtifactStats, ArtifactStore, JobStore, MemoryStore, ModelEntry, StoreCounters,
    DEFAULT_RETAINED_JOBS,
};

#[cfg(test)]
mod format_guard {
    /// The format-version ledger must name every version in use; CI runs
    /// the same check textually so a bump without a migration note fails
    /// even before tests run.
    #[test]
    fn formats_md_documents_the_current_versions() {
        let ledger = include_str!("../FORMATS.md");
        for (what, version) in [
            ("store", crate::STORE_FORMAT_VERSION),
            ("model", marioh_core::MODEL_FORMAT_VERSION),
            ("result", crate::disk::RESULT_FORMAT_VERSION),
        ] {
            let heading = format!("## {what} v{version}");
            assert!(
                ledger.contains(&heading),
                "FORMATS.md is missing a {heading:?} migration note — \
                 document the format change before bumping the constant"
            );
        }
    }
}
