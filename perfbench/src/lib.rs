//! A seeded time-to-verdict benchmark for the OctoPoCs reproduction.
//!
//! Two workloads drive the program through its public API: `table2` (the
//! 15 Table II pairs as one batch) and `scan` (clone retrieval over a
//! seeded fleet, then verification). The traced run adds probes of the
//! serve layer through a spawned `octopocsd`. Every verdict is checked
//! against the hand-written Table II answer. See `BENCHMARK.md`.

pub mod check;
mod daemon;
pub mod gen;
mod layers;
mod pass;
pub mod stats;
pub mod workloads;
