//! AFL-style edge coverage.

use octo_codec::Fnv;
use octo_ir::{BlockId, FuncId};
use octo_vm::Hook;

/// Size of the coverage map (power of two). AFL uses 64 KiB for real
/// binaries; MicroIR corpus programs have at most a few hundred edges, so
/// a 4 KiB map keeps the per-execution classify/hash/merge scans cheap
/// while preserving AFL's collision behaviour.
pub const MAP_SIZE: usize = 1 << 12;

/// A hit-count map over hashed control-flow edges.
#[derive(Clone)]
pub struct Bitmap {
    map: Vec<u8>,
}

impl Bitmap {
    /// An all-zero map.
    pub fn new() -> Bitmap {
        Bitmap {
            map: vec![0; MAP_SIZE],
        }
    }

    /// Raw bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.map
    }

    /// Saturating increment of one slot.
    pub fn hit(&mut self, index: usize) {
        let slot = &mut self.map[index & (MAP_SIZE - 1)];
        *slot = slot.saturating_add(1);
    }

    /// Clears all slots.
    pub fn reset(&mut self) {
        self.map.iter_mut().for_each(|b| *b = 0);
    }

    /// Number of non-zero slots (edges covered).
    pub fn count_edges(&self) -> usize {
        self.map.iter().filter(|&&b| b != 0).count()
    }

    /// AFL's hit-count bucketing: collapse raw counts into the classic
    /// 8-bucket classes so loop iteration noise does not look like new
    /// coverage.
    pub fn classify(&mut self) {
        for b in self.map.iter_mut() {
            *b = bucket(*b);
        }
    }

    /// Merges `trace` (already classified) into this virgin map. Returns
    /// `true` when the trace contains coverage not seen before.
    pub fn merge_has_new(&mut self, trace: &Bitmap) -> bool {
        let mut new = false;
        for (v, t) in self.map.iter_mut().zip(trace.map.iter()) {
            if *t != 0 && (*v & *t) != *t {
                *v |= *t;
                new = true;
            }
        }
        new
    }

    /// A stable 64-bit hash of the classified trace — AFLFast's path
    /// identifier (used for the path-frequency statistic `f(i)`).
    pub fn path_hash(&self) -> u64 {
        // FNV-1a over non-zero (index, value) pairs.
        let mut h = Fnv::new();
        for (i, &b) in self.map.iter().enumerate() {
            if b != 0 {
                h.write(&[(i & 0xFF) as u8, (i >> 8) as u8, b]);
            }
        }
        h.finish()
    }
}

impl Default for Bitmap {
    fn default() -> Bitmap {
        Bitmap::new()
    }
}

impl std::fmt::Debug for Bitmap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Bitmap({} edges)", self.count_edges())
    }
}

fn bucket(count: u8) -> u8 {
    match count {
        0 => 0,
        1 => 1,
        2 => 2,
        3 => 4,
        4..=7 => 8,
        8..=15 => 16,
        16..=31 => 32,
        32..=127 => 64,
        _ => 128,
    }
}

/// Hashes an intraprocedural edge into a map slot (the `cur_location ^
/// prev_location >> 1` trick, precomputed per edge).
pub fn edge_index(func: FuncId, from: BlockId, to: BlockId) -> usize {
    let mut h: u64 = 0x9e37_79b9_7f4a_7c15;
    for v in [u64::from(func.0), u64::from(from.0), u64::from(to.0)] {
        h ^= v
            .wrapping_add(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(h << 6)
            .wrapping_add(h >> 2);
    }
    (h as usize) & (MAP_SIZE - 1)
}

/// VM hook recording edge coverage plus the set of blocks entered (the
/// block set feeds AFLGo's seed-distance computation).
#[derive(Debug)]
pub struct CoverageHook {
    /// The per-execution trace map.
    pub trace: Bitmap,
    /// Blocks entered during the execution.
    pub blocks: Vec<(FuncId, BlockId)>,
}

impl CoverageHook {
    /// A fresh hook with empty trace.
    pub fn new() -> CoverageHook {
        CoverageHook {
            trace: Bitmap::new(),
            blocks: Vec::new(),
        }
    }

    /// Clears the trace for the next execution.
    pub fn reset(&mut self) {
        self.trace.reset();
        self.blocks.clear();
    }
}

impl Default for CoverageHook {
    fn default() -> CoverageHook {
        CoverageHook::new()
    }
}

impl Hook for CoverageHook {
    fn on_edge(&mut self, func: FuncId, from: BlockId, to: BlockId) {
        self.trace.hit(edge_index(func, from, to));
        self.blocks.push((func, to));
    }

    fn on_call(&mut self, callee: FuncId, _args: &[u64], _depth: usize) {
        self.blocks.push((callee, BlockId(0)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucketing_is_monotone_classes() {
        assert_eq!(bucket(0), 0);
        assert_eq!(bucket(1), 1);
        assert_eq!(bucket(2), 2);
        assert_eq!(bucket(3), 4);
        assert_eq!(bucket(5), 8);
        assert_eq!(bucket(200), 128);
    }

    #[test]
    fn merge_detects_new_coverage() {
        let mut virgin = Bitmap::new();
        let mut trace = Bitmap::new();
        trace.hit(10);
        trace.classify();
        assert!(virgin.merge_has_new(&trace));
        assert!(!virgin.merge_has_new(&trace)); // second time: nothing new
                                                // Higher hit bucket on the same edge is new coverage again.
        let mut trace2 = Bitmap::new();
        for _ in 0..5 {
            trace2.hit(10);
        }
        trace2.classify();
        assert!(virgin.merge_has_new(&trace2));
    }

    #[test]
    fn path_hash_distinguishes_paths() {
        let mut a = Bitmap::new();
        a.hit(3);
        a.classify();
        let mut b = Bitmap::new();
        b.hit(4);
        b.classify();
        assert_ne!(a.path_hash(), b.path_hash());
        assert_eq!(a.path_hash(), a.clone().path_hash());
    }

    #[test]
    fn edge_index_spreads() {
        let a = edge_index(FuncId(0), BlockId(0), BlockId(1));
        let b = edge_index(FuncId(0), BlockId(1), BlockId(0));
        let c = edge_index(FuncId(1), BlockId(0), BlockId(1));
        assert!(
            a != b || b != c,
            "edge hash should direction/function-sensitive"
        );
        assert!(a < MAP_SIZE && b < MAP_SIZE && c < MAP_SIZE);
    }

    #[test]
    fn count_edges() {
        let mut m = Bitmap::new();
        assert_eq!(m.count_edges(), 0);
        m.hit(1);
        m.hit(1);
        m.hit(9);
        assert_eq!(m.count_edges(), 2);
    }
}
