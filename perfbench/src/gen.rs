//! Seeded input generation. Every input a workload hands the program —
//! the transformed targets and the scan fleet — is a pure function of
//! `--seed`, so the same seed replays the same run.
//!
//! Targets are varied with the clone transforms of `octo_corpus::variants`
//! applied to each pair's shared functions only. Register renaming, block
//! reordering and prologue embedding keep the program's semantics, so the
//! Table II answer of the base pair stays the known answer of the variant.

use octo_corpus::variants::{embed_prologue, permute_registers, reorder_blocks, semantic_edit};
use octo_corpus::{all_pairs, Expected, SoftwarePair};
use octo_ir::{Function, Program};
use octopocs::{BatchJob, ScanSource, ScanTarget};

/// SplitMix64: small, seedable, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator whose whole stream is fixed by `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// A clone transform applied to every shared function of a target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transform {
    /// The target as shipped in the corpus.
    Identity,
    /// Seeded bijective renaming of non-parameter registers.
    Renamed(u64),
    /// Seeded permutation of the non-entry blocks.
    Reordered(u64),
    /// The body embedded behind a host prologue block.
    Inlined,
    /// A near-miss decoy: a seeded renaming, then every constant and
    /// operand order perturbed. Retrieval must reject it.
    Decoy(u64),
}

impl Transform {
    /// A transform drawn from `rng` that changes a target's text but not
    /// the work it executes: identity, renaming or reordering. (Inlining
    /// adds a prologue that runs on every call, which in idx03's hot loop
    /// would let the seed rather than the program move the pass time.)
    pub fn draw_relabeling(rng: &mut Rng) -> Transform {
        let seed = rng.next_u64();
        match rng.below(3) {
            0 => Transform::Identity,
            1 => Transform::Renamed(seed),
            _ => Transform::Reordered(seed),
        }
    }

    /// Short label for job and target names.
    pub fn label(self) -> String {
        match self {
            Transform::Identity => "identity".to_string(),
            Transform::Renamed(s) => format!("renamed:{s:016x}"),
            Transform::Reordered(s) => format!("reordered:{s:016x}"),
            Transform::Inlined => "inlined".to_string(),
            Transform::Decoy(s) => format!("decoy:{s:016x}"),
        }
    }

    fn apply(self, f: &Function) -> Function {
        match self {
            Transform::Identity => f.clone(),
            Transform::Renamed(seed) => permute_registers(f, seed),
            Transform::Reordered(seed) => reorder_blocks(f, seed),
            Transform::Inlined => embed_prologue(f),
            Transform::Decoy(seed) => semantic_edit(&permute_registers(f, seed)),
        }
    }
}

/// `pair.t` with `tf` applied to each shared function; the entry
/// function and the helpers stay untouched.
fn transform_target(pair: &SoftwarePair, tf: Transform) -> Program {
    let funcs: Vec<Function> = pair
        .t
        .iter()
        .map(|(_, f)| {
            if pair.shared.contains(&f.name) {
                tf.apply(f)
            } else {
                f.clone()
            }
        })
        .collect();
    let entry = pair.t.func(pair.t.entry()).name.clone();
    Program::from_functions(funcs, &entry).expect("clone transforms keep the program valid")
}

/// One job with its hand-written answer (Table II).
#[derive(Debug, Clone)]
pub struct Case {
    /// The job as the program receives it.
    pub job: BatchJob,
    /// The known verdict.
    pub expected: Expected,
}

fn case(pair: &SoftwarePair, tf: Transform) -> Case {
    Case {
        job: BatchJob {
            name: format!("{} [{}]", pair.display_name(), tf.label()),
            s: pair.s.clone(),
            t: transform_target(pair, tf),
            poc: pair.poc.clone(),
            shared: pair.shared.clone(),
        },
        expected: pair.expected,
    }
}

/// The `table2` job set: the 15 Table II pairs in row order, each target
/// under a relabeling transform drawn from the seed.
pub fn table2_cases(seed: u64) -> Vec<Case> {
    let mut rng = Rng::new(seed ^ 0x7461_626c_6532);
    all_pairs()
        .iter()
        .map(|pair| case(pair, Transform::draw_relabeling(&mut rng)))
        .collect()
}

/// One fleet member of the `scan` workload.
#[derive(Debug, Clone)]
pub struct FleetTarget {
    /// The target as the scan receives it.
    pub target: ScanTarget,
    /// The Table II row whose target it was derived from.
    pub base_idx: u32,
    /// Whether it is a true clone (must be retrieved) or a decoy (must
    /// not expand into a job).
    pub positive: bool,
}

/// The `scan` inputs: every Table II source against a fleet in which each
/// base target contributes three seeded positives (renamed, reordered,
/// inlined) and three seeded decoys.
pub fn scan_inputs(seed: u64) -> (Vec<ScanSource>, Vec<FleetTarget>) {
    let mut rng = Rng::new(seed ^ 0x7363_616e);
    let pairs = all_pairs();
    let sources = pairs
        .iter()
        .map(|p| ScanSource {
            name: format!("idx{:02}", p.idx),
            s: p.s.clone(),
            poc: p.poc.clone(),
        })
        .collect();
    let mut fleet = Vec::new();
    for pair in &pairs {
        let kinds = [
            Transform::Renamed(rng.next_u64()),
            Transform::Reordered(rng.next_u64()),
            Transform::Inlined,
            Transform::Decoy(rng.next_u64()),
            Transform::Decoy(rng.next_u64()),
            Transform::Decoy(rng.next_u64()),
        ];
        for tf in kinds {
            fleet.push(FleetTarget {
                target: ScanTarget {
                    name: format!("t{:02}-{}", pair.idx, tf.label()),
                    t: transform_target(pair, tf),
                },
                base_idx: pair.idx,
                positive: !matches!(tf, Transform::Decoy(_)),
            });
        }
    }
    (sources, fleet)
}
