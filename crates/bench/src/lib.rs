//! # octo-bench — the benchmark harness regenerating the paper's tables.
//!
//! One binary per evaluation artefact (see `DESIGN.md`, experiment index):
//!
//! | binary | artefact |
//! |---|---|
//! | `table2` | Table II — verification results for the 15 pairs (add `--latest` for the §V-B latest-version findings) |
//! | `table3` | Table III — context-aware vs context-free taint analysis |
//! | `table4` | Table IV — naive vs directed symbolic execution |
//! | `table5` | Table V — AFLFast / AFLGo / OctoPoCs time-to-verdict (`--full` for the paper's 20-hour virtual budget) |
//! | `survey` | §II-A PoC-type survey percentages |
//!
//! The library half holds the row types (serialisable via the [`json`]
//! module, built on `octo-codec`) and plain-text table rendering shared
//! by the binaries and the Criterion benches.
#![warn(missing_docs)]

pub mod json;
pub mod render;
pub mod rows;

pub use render::render_table;
pub use rows::*;
