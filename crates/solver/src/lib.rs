//! # octo-solver — byte-level constraint solver (the Z3 / angr-solver substitute).
//!
//! OctoPoCs solves two families of constraints (paper §III-B/C):
//!
//! 1. *guiding-input constraints*: branch conditions collected by directed
//!    symbolic execution over a fully symbolic input file, and
//! 2. *crash-primitive constraints*: byte equalities pinning each bunch of
//!    the original PoC at the file position where the execution of `T`
//!    enters the shared code area (`sym[5:9] == 0x41` in the paper's
//!    Fig. 5 example).
//!
//! Both families are constraints over the *bytes of one input file*, which
//! is the fragment this solver implements: expressions are 64-bit terms
//! over [`Expr::Byte`] variables (one per file offset), and solving
//! produces a concrete byte assignment — the reformed PoC.
//!
//! The solver is complete for the fragment the symbolic executor emits:
//! constraint normalisation decomposes equality with byte concatenations
//! into per-byte facts, domain propagation prunes each byte's 256-value
//! domain, and a bounded backtracking search covers residual multi-byte
//! constraints.
//!
//! [`ConstraintSet::solve_with`] splits the set into connected components by shared input bytes
//! (independence slicing, as in KLEE) and solves each component on its
//! own: any `Unsat` component makes the set `Unsat`, then any `Unknown`
//! makes it `Unknown`, else the component models merge. Constraints over
//! at most one byte are solved together directly. Each component over two
//! or more bytes is memoized, keyed by its constraints and budgets, in a
//! memo that every clone of the set shares — in the directed engine, the
//! forks, fallback states and branch probes of one run — and that is
//! freed with the run's last state. So a branch check that adds
//! `in[119] == 66` does not re-solve the 2-byte word constraints an
//! earlier check on the same path already settled. Counters follow the
//! work actually done: `SolverCounters::interval_refutations` counts
//! refutations computed, so a memo hit does not count its refutation
//! again; `SolverCounters::memo_hits` counts the hits.
//!
//! `Unsat` answers are what drive the paper's *loop-dead* and
//! Type-III ("vulnerability not triggerable") verdicts, so unsoundness in
//! either direction would corrupt the evaluation — the property tests check
//! models against their constraint sets, cross-check `Unsat` by
//! exhaustive enumeration on small instances, and check that slicing
//! returns the verdict and model the whole-set engine reaches.
//!
//! ```
//! use octo_solver::{Expr, Cond, Constraint, ConstraintSet, SolveResult};
//!
//! // "the 2-byte little-endian word at offsets 4..6 equals 0x1234"
//! let word = Expr::concat_le(4, 2);
//! let mut set = ConstraintSet::new();
//! set.push(Constraint::new(word, Expr::val(0x1234), Cond::Eq));
//! match set.solve() {
//!     SolveResult::Sat(model) => {
//!         assert_eq!(model.byte(4), 0x34);
//!         assert_eq!(model.byte(5), 0x12);
//!     }
//!     other => panic!("expected sat, got {other:?}"),
//! }
//! ```
#![warn(missing_docs)]

pub mod constraint;
pub mod domain;
pub mod expr;
pub mod interval;
pub mod simplify;
pub mod solve;

pub use constraint::{Cond, Constraint, ConstraintSet};
pub use domain::ByteDomain;
pub use expr::{Expr, ExprRef};
pub use interval::{eval_interval, Interval};
pub use solve::{Model, SolveLimits, SolveResult, SolverCounters};
