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

/// Corpus wall time each mode of an overhead bench must cover. One
/// ~0.15 s corpus pass cannot resolve a 3% budget: on a shared 2-core
/// machine, an A/A run of [`interleaved`] read ±4–6% at 2 s per mode
/// and ±3% at 6 s.
pub const MODE_SECONDS: f64 = 5.0;

/// One mode's result from [`interleaved`].
#[derive(Debug, Clone)]
pub struct ModeRun<T> {
    /// Median wall seconds over the mode's passes.
    pub seconds: f64,
    /// Median over rounds of this mode's wall divided by mode 0's wall
    /// in the same round (1.0 for mode 0 itself).
    pub ratio: f64,
    /// What the mode's last pass returned besides its wall.
    pub last: T,
}

/// Runs `modes` measurement modes interleaved, one `pass(mode)` each per
/// round, until every mode has covered [`MODE_SECONDS`] of wall (and at
/// least 3 rounds); `pass` returns its wall seconds first. Returns the
/// round count and one [`ModeRun`] per mode.
///
/// Each mode is compared with mode 0 round by round, so slow drift of
/// the machine (page cache, thermals, co-tenants) cancels out of the
/// ratio, and the median drops the rounds a burst of foreign load hit.
pub fn interleaved<T>(
    modes: usize,
    mut pass: impl FnMut(usize) -> (f64, T),
) -> (usize, Vec<ModeRun<T>>) {
    let mut walls: Vec<Vec<f64>> = vec![Vec::new(); modes];
    let mut last: Vec<Option<T>> = (0..modes).map(|_| None).collect();
    while walls[0].len() < 3 || walls.iter().any(|w| w.iter().sum::<f64>() < MODE_SECONDS) {
        for mode in 0..modes {
            let (seconds, extra) = pass(mode);
            walls[mode].push(seconds);
            last[mode] = Some(extra);
        }
    }
    let runs = walls
        .iter()
        .zip(last)
        .map(|(w, last)| ModeRun {
            seconds: median(w.clone()),
            ratio: median(w.iter().zip(&walls[0]).map(|(x, base)| x / base).collect()),
            last: last.expect("at least 3 rounds"),
        })
        .collect();
    (walls[0].len(), runs)
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}
