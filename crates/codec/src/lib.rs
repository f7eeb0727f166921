//! `octo-codec`: the workspace's one JSON reader, one JSON string
//! escaper and one FNV-1a hasher.
//!
//! Everything the reproduction hands to users or to other processes is
//! JSON — verdict documents, fault plans, the daemon's wire protocol and
//! journal, Chrome traces — and every stable key it derives (artifact
//! cache prefixes, blob checksums, clone fingerprints) is FNV-1a. Both
//! live here so there is exactly one grammar and one hash to keep
//! correct. The crate has no dependencies, so the bottom layers
//! (`octo-obs`, `octo-trace`, `octo-sched`) can use it too.
//!
//! - [`json`]: [`parse_json`] into a [`JsonValue`] tree (objects in
//!   source order, nesting capped at [`json::MAX_DEPTH`]) and
//!   [`json_escape`] for hand-rendered documents.
//! - [`Fnv`] / [`fnv64`]: 64-bit FNV-1a, incremental or one-shot.

#![warn(missing_docs)]

mod fnv;
pub mod json;

pub use fnv::{fnv64, Fnv};
pub use json::{json_escape, parse_json, JsonValue};
