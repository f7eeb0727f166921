//! # octo-clone — static MicroIR clone fingerprinting and ℓ retrieval.
//!
//! The OCTOPOCS paper takes the shared vulnerable function set ℓ as an
//! *input*; this crate discovers it. Every function is fingerprinted
//! with normalized instruction-sequence shingles (canonical block order,
//! window-local register numbering, relative branch offsets — see
//! [`fingerprint`]) plus callgraph-context features, and candidate
//! shared/cloned pairs between a source S and a fleet of targets are
//! retrieved and scored ([`retrieve`]).
//!
//! Retrieval is the cheap, high-recall stage of a retrieve-then-validate
//! design: candidates flow into the batch verification oracle
//! (`octopocs scan`), which reforms and replays the PoC to decide
//! whether the clone is actually triggerable.
#![warn(missing_docs)]

pub mod fingerprint;
pub mod retrieve;

pub use fingerprint::{
    containment, context_similarity, fingerprint_function, fingerprint_program, ContextFeatures,
    FuncFingerprint, ProgramFingerprints, SHINGLE_K,
};
pub use retrieve::{
    retrieve_from_fingerprints, retrieve_pairs, Candidate, CloneParams, CONTAINMENT_WEIGHT,
};
