//! The solving engine: independence slicing, a shared component memo,
//! domain propagation and bounded backtracking search.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::rc::Rc;

use crate::constraint::{Constraint, ConstraintSet};
use crate::domain::ByteDomain;

thread_local! {
    static SOLVES: Cell<u64> = const { Cell::new(0) };
    static UNSAT_RESULTS: Cell<u64> = const { Cell::new(0) };
    static INTERVAL_REFUTATIONS: Cell<u64> = const { Cell::new(0) };
    static MEMO_HITS: Cell<u64> = const { Cell::new(0) };
}

/// Snapshot of the thread-local solver activity counters.
///
/// Every [`ConstraintSet::solve_with`] entry (including
/// [`ConstraintSet::quick_feasible`] pre-checks) bumps `solves`; `Unsat`
/// results bump `unsat_results`; refutations proven by interval
/// reasoning alone bump `interval_refutations`; rewrite-rule firings in
/// the simplifier bump `simplify_rewrites`; components answered from the
/// solve memo bump `memo_hits`. Callers take two snapshots
/// and diff them with [`SolverCounters::since`] to attribute work to a
/// region — the counters are per-thread, so a verification job measures
/// only itself.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverCounters {
    /// Solver entries (full solves and propagation-only pre-checks).
    pub solves: u64,
    /// Solves that returned `Unsat`.
    pub unsat_results: u64,
    /// Constraints refuted by interval reasoning during propagation
    /// (refutations computed: a memo hit does not count one again).
    pub interval_refutations: u64,
    /// Simplifier rewrite rules fired.
    pub simplify_rewrites: u64,
    /// Independent components answered from the solve memo.
    pub memo_hits: u64,
}

impl SolverCounters {
    /// Reads the current thread's counters.
    pub fn snapshot() -> SolverCounters {
        SolverCounters {
            solves: SOLVES.with(Cell::get),
            unsat_results: UNSAT_RESULTS.with(Cell::get),
            interval_refutations: INTERVAL_REFUTATIONS.with(Cell::get),
            simplify_rewrites: crate::simplify::rewrites_total(),
            memo_hits: MEMO_HITS.with(Cell::get),
        }
    }

    /// The activity between `earlier` and this snapshot.
    pub fn since(&self, earlier: &SolverCounters) -> SolverCounters {
        SolverCounters {
            solves: self.solves.wrapping_sub(earlier.solves),
            unsat_results: self.unsat_results.wrapping_sub(earlier.unsat_results),
            interval_refutations: self
                .interval_refutations
                .wrapping_sub(earlier.interval_refutations),
            simplify_rewrites: self
                .simplify_rewrites
                .wrapping_sub(earlier.simplify_rewrites),
            memo_hits: self.memo_hits.wrapping_sub(earlier.memo_hits),
        }
    }
}

fn bump(cell: &'static std::thread::LocalKey<Cell<u64>>) {
    cell.with(|c| c.set(c.get().wrapping_add(1)));
}

/// Budgets bounding a solve. With the defaults, every constraint set the
/// reproduction's pipeline emits solves well inside the limits; `Unknown`
/// results indicate the budget was hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolveLimits {
    /// Maximum search-tree nodes (0 = propagation only, no search).
    pub max_nodes: u64,
    /// Maximum pairwise support checks per propagation round.
    pub max_pair_work: u64,
}

impl Default for SolveLimits {
    fn default() -> SolveLimits {
        SolveLimits {
            max_nodes: 200_000,
            max_pair_work: 2_000_000,
        }
    }
}

/// A satisfying byte assignment.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Model {
    bytes: BTreeMap<u32, u8>,
}

impl Model {
    /// Creates a model from explicit assignments.
    pub fn from_bytes(bytes: BTreeMap<u32, u8>) -> Model {
        Model { bytes }
    }

    /// The value of the byte at `offset` (unconstrained bytes default to 0,
    /// matching the zero-filled symbolic input file).
    pub fn byte(&self, offset: u32) -> u8 {
        self.bytes.get(&offset).copied().unwrap_or(0)
    }

    /// Offsets that are explicitly constrained.
    pub fn assigned(&self) -> impl Iterator<Item = (u32, u8)> + '_ {
        self.bytes.iter().map(|(&o, &v)| (o, v))
    }

    /// Materialises a concrete file of `len` bytes.
    pub fn to_file(&self, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        for (&off, &v) in &self.bytes {
            if (off as usize) < len {
                out[off as usize] = v;
            }
        }
        out
    }

    /// The highest constrained offset plus one (minimum file length that
    /// carries every assignment).
    pub fn required_len(&self) -> usize {
        self.bytes
            .keys()
            .next_back()
            .map(|&o| o as usize + 1)
            .unwrap_or(0)
    }
}

/// Outcome of a solve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveResult {
    /// Satisfiable, with a witness model.
    Sat(Model),
    /// Proven unsatisfiable.
    Unsat,
    /// Budget exhausted before a verdict.
    Unknown,
    /// Produced only under `octo-faults` injection (the `solver-solve`
    /// site): the solve was abandoned at entry. Consumers treat it like
    /// `Unknown`, except that the directed engine surfaces it as a
    /// distinct, retryable `fault-injected` outcome.
    Injected,
}

impl SolveResult {
    /// The model, if satisfiable.
    pub fn model(&self) -> Option<&Model> {
        match self {
            SolveResult::Sat(m) => Some(m),
            _ => None,
        }
    }

    /// Whether the result is `Sat`.
    pub fn is_sat(&self) -> bool {
        matches!(self, SolveResult::Sat(_))
    }
}

impl ConstraintSet {
    /// Solves the set with default limits.
    pub fn solve(&self) -> SolveResult {
        self.solve_with(SolveLimits::default())
    }

    /// Solves the set with explicit limits.
    pub fn solve_with(&self, limits: SolveLimits) -> SolveResult {
        bump(&SOLVES);
        // Fault-injection site: abandon the solve at entry (after the
        // counter bump, so solver accounting stays truthful about the
        // attempt). Inert without an installed fault context.
        if octo_faults::should_inject(octo_faults::FaultSite::SolverSolve) {
            return SolveResult::Injected;
        }
        // Flight-recorder bracket around the whole entry. The payload
        // (an Instant read and a counter snapshot) is gated on a live
        // recorder so the batch hot path stays untouched.
        let traced = octo_trace::is_active().then(|| {
            octo_trace::emit(octo_trace::TraceKind::SolverBegin {
                constraints: self.len() as u64,
            });
            (
                std::time::Instant::now(),
                INTERVAL_REFUTATIONS.with(Cell::get),
            )
        });
        let result = if self.is_trivially_false() {
            // Normalisation proved the contradiction and dropped the
            // offending constraint from the item list; the search below
            // must not mistake the empty list for satisfiability.
            SolveResult::Unsat
        } else {
            self.solve_sliced(limits)
        };
        if result == SolveResult::Unsat {
            bump(&UNSAT_RESULTS);
        }
        if let Some((start, refutations_before)) = traced {
            octo_trace::emit(octo_trace::TraceKind::SolverEnd {
                result: match &result {
                    SolveResult::Sat(_) => "sat",
                    SolveResult::Unsat => "unsat",
                    SolveResult::Unknown => "unknown",
                    SolveResult::Injected => "injected",
                },
                micros: start.elapsed().as_micros() as u64,
                refutations: INTERVAL_REFUTATIONS.with(Cell::get) - refutations_before,
            });
        }
        result
    }

    /// Propagation-only feasibility pre-check (used by directed symbolic
    /// execution to prune branches without paying for a full solve).
    ///
    /// `false` means *definitely unsatisfiable*; `true` means "not
    /// refuted by propagation" (the full solve may still say `Unsat`).
    pub fn quick_feasible(&self) -> bool {
        if self.is_trivially_false() {
            return false;
        }
        let limits = SolveLimits {
            max_nodes: 0,
            max_pair_work: 200_000,
        };
        !matches!(self.solve_with(limits), SolveResult::Unsat)
    }

    /// Solves each independent component under `limits` and merges the
    /// answers: any `Unsat` wins, then any `Unknown`, else the union of
    /// the component models. Each component's model is the first
    /// solution in the same MRV order the whole-set search would use, so
    /// unless a budget is hit the merge equals the whole-set model.
    fn solve_sliced(&self, limits: SolveLimits) -> SolveResult {
        let (direct, shared) = slice(self.items());
        let mut bytes = BTreeMap::new();
        let mut unknown = false;
        let results = std::iter::once(Solver::new(&direct, limits).solve())
            .chain(shared.into_iter().map(|c| self.memo().solve(c, limits)));
        for result in results {
            match result {
                SolveResult::Sat(model) => bytes.extend(model.bytes),
                SolveResult::Unsat => return SolveResult::Unsat,
                SolveResult::Unknown | SolveResult::Injected => unknown = true,
            }
        }
        if unknown {
            SolveResult::Unknown
        } else {
            SolveResult::Sat(Model::from_bytes(bytes))
        }
    }
}

/// Splits `items` into connected components by shared input bytes
/// (union-find over [`Constraint::vars`]). Returns the constraints over
/// at most one byte, which cost ≤ 256 evaluations each and are solved
/// together directly, and each component over two or more bytes,
/// ordered by first constraint. Both keep the set's order.
fn slice(items: &[Constraint]) -> (Vec<Constraint>, Vec<Vec<Constraint>>) {
    fn find(parent: &mut [usize], mut i: usize) -> usize {
        while parent[i] != i {
            parent[i] = parent[parent[i]];
            i = parent[i];
        }
        i
    }
    let mut parent: Vec<usize> = (0..items.len()).collect();
    // The first constraint referencing each byte.
    let mut owner: HashMap<u32, usize> = HashMap::new();
    for (i, c) in items.iter().enumerate() {
        for v in c.vars() {
            let o = *owner.entry(v).or_insert(i);
            let (a, b) = (find(&mut parent, i), find(&mut parent, o));
            parent[a.max(b)] = a.min(b);
        }
    }
    // Distinct bytes per component root.
    let mut width = vec![0usize; items.len()];
    for &o in owner.values() {
        width[find(&mut parent, o)] += 1;
    }
    let mut direct = Vec::new();
    let mut shared: Vec<Vec<Constraint>> = Vec::new();
    let mut slot = vec![usize::MAX; items.len()];
    for (i, c) in items.iter().enumerate() {
        let root = find(&mut parent, i);
        if width[root] < 2 {
            direct.push(c.clone());
            continue;
        }
        if slot[root] == usize::MAX {
            slot[root] = shared.len();
            shared.push(Vec::new());
        }
        shared[slot[root]].push(c.clone());
    }
    (direct, shared)
}

/// Memo key: a component's constraints in order, plus the budgets.
type MemoKey = (Vec<Constraint>, u64, u64);

/// Component answers shared by a [`ConstraintSet`] and all its clones —
/// in the directed engine, every fork, fallback state and branch probe
/// of one run. Freed with the last set that holds it.
#[derive(Clone, Default)]
pub(crate) struct SolveMemo(Rc<RefCell<HashMap<MemoKey, SolveResult>>>);

impl SolveMemo {
    /// Solves one component, answering from the memo when this run has
    /// already solved it under the same budgets.
    fn solve(&self, items: Vec<Constraint>, limits: SolveLimits) -> SolveResult {
        let key = (items, limits.max_nodes, limits.max_pair_work);
        if let Some(hit) = self.0.borrow().get(&key) {
            bump(&MEMO_HITS);
            return hit.clone();
        }
        let result = Solver::new(&key.0, limits).solve();
        self.0.borrow_mut().insert(key, result.clone());
        result
    }
}

impl fmt::Debug for SolveMemo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SolveMemo({} entries)", self.0.borrow().len())
    }
}

struct Solver<'a> {
    constraints: &'a [Constraint],
    /// Sorted variable offsets.
    vars: Vec<u32>,
    /// Domain per variable (indexed like `vars`).
    domains: Vec<ByteDomain>,
    /// Variable indices used by each constraint.
    cvars: Vec<Vec<usize>>,
    limits: SolveLimits,
    nodes: u64,
    budget_hit: bool,
}

impl<'a> Solver<'a> {
    fn new(constraints: &'a [Constraint], limits: SolveLimits) -> Solver<'a> {
        let vars: Vec<u32> = constraints
            .iter()
            .flat_map(Constraint::vars)
            .collect::<BTreeSet<u32>>()
            .into_iter()
            .collect();
        let index: BTreeMap<u32, usize> = vars.iter().enumerate().map(|(i, &v)| (v, i)).collect();
        let cvars = constraints
            .iter()
            .map(|c| c.vars().into_iter().map(|v| index[&v]).collect())
            .collect();
        Solver {
            constraints,
            domains: vec![ByteDomain::full(); vars.len()],
            vars,
            cvars,
            limits,
            nodes: 0,
            budget_hit: false,
        }
    }

    fn solve(mut self) -> SolveResult {
        if self.constraints.is_empty() {
            return SolveResult::Sat(Model::default());
        }
        if !self.propagate() {
            return SolveResult::Unsat;
        }
        // Try the cheap completion first: every variable at its domain
        // minimum. If that satisfies everything we are done without search.
        if let Some(model) = self.try_min_completion() {
            return SolveResult::Sat(model);
        }
        if self.limits.max_nodes == 0 {
            return SolveResult::Unknown;
        }
        let mut assignment: Vec<Option<u8>> =
            self.domains.iter().map(ByteDomain::as_singleton).collect();
        match self.search(&mut assignment) {
            Some(model) => SolveResult::Sat(model),
            None if self.budget_hit => SolveResult::Unknown,
            None => SolveResult::Unsat,
        }
    }

    /// Runs propagation to a fixpoint. Returns false on contradiction.
    fn propagate(&mut self) -> bool {
        let mut pair_work = 0u64;
        loop {
            let mut changed = false;
            for (ci, c) in self.constraints.iter().enumerate() {
                let free: Vec<usize> = self.cvars[ci]
                    .iter()
                    .copied()
                    .filter(|&vi| self.domains[vi].as_singleton().is_none())
                    .collect();
                match free.len() {
                    0 => {
                        let ok = c.eval(&|off| self.singleton_of(off)).unwrap_or(false);
                        if !ok {
                            return false;
                        }
                    }
                    1 => {
                        let vi = free[0];
                        let off = self.vars[vi];
                        let mut keep = ByteDomain::empty();
                        for cand in self.domains[vi].iter() {
                            let ok = c
                                .eval(&|o| {
                                    if o == off {
                                        Some(cand)
                                    } else {
                                        self.singleton_of(o)
                                    }
                                })
                                .unwrap_or(false);
                            if ok {
                                keep.insert(cand);
                            }
                        }
                        changed |= self.domains[vi].intersect(&keep);
                        if self.domains[vi].is_empty() {
                            return false;
                        }
                    }
                    // Wide constraints: per-variable filtering is too
                    // expensive, but interval reasoning can still
                    // refute impossible bounds (e.g. a byte sum that
                    // cannot reach the required constant).
                    _ if free.len() >= 3 && self.interval_refuted(c) => {
                        bump(&INTERVAL_REFUTATIONS);
                        return false;
                    }
                    _ if free.len() >= 3 => {}
                    2 => {
                        let (a, b) = (free[0], free[1]);
                        let work =
                            u64::from(self.domains[a].len()) * u64::from(self.domains[b].len());
                        if pair_work + work > self.limits.max_pair_work {
                            continue;
                        }
                        pair_work += work;
                        changed |= self.pair_filter(ci, a, b);
                        changed |= self.pair_filter(ci, b, a);
                        if self.domains[a].is_empty() || self.domains[b].is_empty() {
                            return false;
                        }
                    }
                    _ => {}
                }
            }
            if !changed {
                return true;
            }
        }
    }

    /// Removes values of `target` that have no support in `other` for
    /// constraint `ci`. Returns whether the domain changed.
    fn pair_filter(&mut self, ci: usize, target: usize, other: usize) -> bool {
        let c = &self.constraints[ci];
        let (t_off, o_off) = (self.vars[target], self.vars[other]);
        let mut keep = ByteDomain::empty();
        for tv in self.domains[target].iter() {
            let supported = self.domains[other].iter().any(|ov| {
                c.eval(&|off| {
                    if off == t_off {
                        Some(tv)
                    } else if off == o_off {
                        Some(ov)
                    } else {
                        self.singleton_of(off)
                    }
                })
                .unwrap_or(false)
            });
            if supported {
                keep.insert(tv);
            }
        }
        self.domains[target].intersect(&keep)
    }

    fn singleton_of(&self, off: u32) -> Option<u8> {
        let vi = self.vars.binary_search(&off).ok()?;
        self.domains[vi].as_singleton()
    }

    /// Interval-refutation check for one constraint against the current
    /// domains. `true` = definitely unsatisfiable.
    fn interval_refuted(&self, c: &Constraint) -> bool {
        let bounds = |off: u32| -> Option<(u8, u8)> {
            let vi = self.vars.binary_search(&off).ok()?;
            let d = &self.domains[vi];
            Some((d.min()?, d.max()?))
        };
        let (Some(l), Some(r)) = (
            crate::interval::eval_interval(&c.lhs, &bounds),
            crate::interval::eval_interval(&c.rhs, &bounds),
        ) else {
            return false;
        };
        crate::interval::refutes(c.cond, &l, &r)
    }

    /// Tries completing with every domain's minimum value.
    fn try_min_completion(&self) -> Option<Model> {
        let bytes: BTreeMap<u32, u8> = self
            .vars
            .iter()
            .zip(self.domains.iter())
            .map(|(&off, d)| Some((off, d.min()?)))
            .collect::<Option<_>>()?;
        let lookup = |off: u32| bytes.get(&off).copied();
        if self
            .constraints
            .iter()
            .all(|c| c.eval(&lookup) == Some(true))
        {
            Some(Model::from_bytes(bytes))
        } else {
            None
        }
    }

    fn search(&mut self, assignment: &mut Vec<Option<u8>>) -> Option<Model> {
        self.nodes += 1;
        if self.nodes > self.limits.max_nodes {
            self.budget_hit = true;
            return None;
        }
        // Check constraints whose variables are all assigned; prune early.
        for (ci, c) in self.constraints.iter().enumerate() {
            let all = self.cvars[ci].iter().all(|&vi| assignment[vi].is_some());
            if all {
                let ok = c
                    .eval(&|off| {
                        let vi = self.vars.binary_search(&off).ok()?;
                        assignment[vi]
                    })
                    .unwrap_or(false);
                if !ok {
                    return None;
                }
            }
        }
        // Select the unassigned variable with the smallest domain (MRV).
        let next = (0..self.vars.len())
            .filter(|&vi| assignment[vi].is_none())
            .min_by_key(|&vi| self.domains[vi].len());
        let Some(vi) = next else {
            // Complete assignment — already checked above.
            let bytes = self
                .vars
                .iter()
                .zip(assignment.iter())
                .map(|(&off, v)| (off, v.expect("complete")))
                .collect();
            return Some(Model::from_bytes(bytes));
        };
        let candidates: Vec<u8> = self.domains[vi].iter().collect();
        for v in candidates {
            assignment[vi] = Some(v);
            if let Some(model) = self.search(assignment) {
                return Some(model);
            }
            if self.budget_hit {
                assignment[vi] = None;
                return None;
            }
        }
        assignment[vi] = None;
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::Cond;
    use crate::expr::{Expr, ExprRef};
    use octo_ir::BinOp;
    use proptest::prelude::*;

    fn sat_model(set: &ConstraintSet) -> Model {
        match set.solve() {
            SolveResult::Sat(m) => {
                assert!(
                    set.eval_file(&m.to_file(m.required_len().max(1))),
                    "model does not satisfy set"
                );
                m
            }
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn solves_byte_equalities() {
        let mut set = ConstraintSet::new();
        set.assert_byte(0, b'G');
        set.assert_byte(5, b'a');
        let m = sat_model(&set);
        assert_eq!(m.byte(0), b'G');
        assert_eq!(m.byte(5), b'a');
        assert_eq!(m.byte(3), 0);
        assert_eq!(m.required_len(), 6);
    }

    #[test]
    fn solves_word_equality() {
        let mut set = ConstraintSet::new();
        set.push(Constraint::new(
            Expr::concat_le(2, 4),
            Expr::val(0xDEAD_BEEF),
            Cond::Eq,
        ));
        let m = sat_model(&set);
        assert_eq!(m.byte(2), 0xEF);
        assert_eq!(m.byte(5), 0xDE);
    }

    #[test]
    fn detects_direct_conflict() {
        let mut set = ConstraintSet::new();
        set.assert_byte(0, 1);
        set.assert_byte(0, 2);
        assert_eq!(set.solve(), SolveResult::Unsat);
        assert!(!set.quick_feasible());
    }

    #[test]
    fn injected_fault_abandons_the_solve_at_entry() {
        use std::sync::Arc;

        let mut set = ConstraintSet::new();
        set.assert_byte(0, b'G');
        // Fire on the 1st solver call only: the next call is clean.
        let plan = Arc::new(octo_faults::FaultPlan::new(0).nth(
            octo_faults::FaultSite::SolverSolve,
            None,
            1,
        ));
        let ctx = Arc::new(octo_faults::JobFaults::new(&plan, 0));
        {
            let _g = octo_faults::install(&ctx);
            assert_eq!(set.solve(), SolveResult::Injected);
            assert!(set.solve().is_sat(), "occurrence 2 must solve normally");
            // An injected pre-check is "not refuted", mirroring Unknown.
            assert!(!SolveResult::Injected.is_sat());
            assert_eq!(SolveResult::Injected.model(), None);
        }
        assert!(set.solve().is_sat(), "no context: injection inert");
        assert_eq!(ctx.fired(), 1);
    }

    #[test]
    fn solves_inequalities() {
        let mut set = ConstraintSet::new();
        // 10 <= b0 < 20 and b0 != 15
        set.push(Constraint::new(Expr::val(10), Expr::byte(0), Cond::Ule));
        set.push(Constraint::new(Expr::byte(0), Expr::val(20), Cond::Ult));
        set.push(Constraint::new(Expr::byte(0), Expr::val(15), Cond::Ne));
        let m = sat_model(&set);
        let v = m.byte(0);
        assert!((10..20).contains(&v) && v != 15);
    }

    #[test]
    fn unsat_empty_interval() {
        let mut set = ConstraintSet::new();
        set.push(Constraint::new(Expr::val(200), Expr::byte(0), Cond::Ule));
        set.push(Constraint::new(Expr::byte(0), Expr::val(100), Cond::Ult));
        assert_eq!(set.solve(), SolveResult::Unsat);
    }

    #[test]
    fn solves_arithmetic_relation() {
        // b0 + b1 == 100 with b0 == 30
        let mut set = ConstraintSet::new();
        let sum = Expr::bin(BinOp::Add, Expr::byte(0), Expr::byte(1));
        set.push(Constraint::new(sum, Expr::val(100), Cond::Eq));
        set.assert_byte(0, 30);
        let m = sat_model(&set);
        assert_eq!(m.byte(1), 70);
    }

    #[test]
    fn solves_two_free_vars_via_pair_propagation() {
        // b0 * b1 == 35 → {1*35, 5*7, 7*5, 35*1}
        let mut set = ConstraintSet::new();
        let prod = Expr::bin(BinOp::Mul, Expr::byte(0), Expr::byte(1));
        set.push(Constraint::new(prod, Expr::val(35), Cond::Eq));
        let m = sat_model(&set);
        assert_eq!(u32::from(m.byte(0)) * u32::from(m.byte(1)), 35);
    }

    #[test]
    fn solves_three_var_constraint_via_search() {
        // b0 + b1 + b2 == 600 (requires values above 85 — search territory)
        let mut set = ConstraintSet::new();
        let sum = Expr::bin(
            BinOp::Add,
            Expr::bin(BinOp::Add, Expr::byte(0), Expr::byte(1)),
            Expr::byte(2),
        );
        set.push(Constraint::new(sum, Expr::val(600), Cond::Eq));
        // Pin two to force the third.
        set.assert_byte(0, 250);
        set.assert_byte(1, 200);
        let m = sat_model(&set);
        assert_eq!(m.byte(2), 150);
    }

    #[test]
    fn unsat_three_var_is_proven() {
        let mut set = ConstraintSet::new();
        let sum = Expr::bin(
            BinOp::Add,
            Expr::bin(BinOp::Add, Expr::byte(0), Expr::byte(1)),
            Expr::byte(2),
        );
        // Max possible is 765.
        set.push(Constraint::new(Expr::val(766), Expr::byte(3), Cond::Ule));
        set.push(Constraint::new(sum, Expr::byte(3), Cond::Eq));
        assert_eq!(set.solve(), SolveResult::Unsat);
    }

    #[test]
    fn signed_comparisons() {
        // sign-extended-ish: interpret byte as small value, require
        // (b0 - 5) <s 0  →  b0 < 5 in small range
        let mut set = ConstraintSet::new();
        let shifted = Expr::bin(BinOp::Sub, Expr::byte(0), Expr::val(5));
        set.push(Constraint::new(shifted, Expr::val(0), Cond::Slt));
        let m = sat_model(&set);
        assert!(m.byte(0) < 5);
    }

    #[test]
    fn quick_feasible_accepts_satisfiable() {
        let mut set = ConstraintSet::new();
        set.assert_byte(0, 7);
        assert!(set.quick_feasible());
    }

    #[test]
    fn empty_set_is_sat() {
        let set = ConstraintSet::new();
        assert!(set.solve().is_sat());
    }

    #[test]
    fn counters_attribute_solver_activity() {
        let before = SolverCounters::snapshot();

        let mut set = ConstraintSet::new();
        set.assert_byte(0, 7);
        assert!(set.solve().is_sat());
        assert!(set.quick_feasible());

        // An interval-refutable wide constraint: b0+b1+b2 (max 765) must
        // equal 1000.
        let mut wide = ConstraintSet::new();
        let sum = Expr::bin(
            BinOp::Add,
            Expr::bin(BinOp::Add, Expr::byte(0), Expr::byte(1)),
            Expr::byte(2),
        );
        wide.push(Constraint::new(sum, Expr::val(1000), Cond::Eq));
        assert_eq!(wide.solve(), SolveResult::Unsat);

        let d = SolverCounters::snapshot().since(&before);
        assert!(d.solves >= 3, "solve + quick_feasible + unsat: {d:?}");
        assert!(d.unsat_results >= 1, "{d:?}");
        assert!(d.interval_refutations >= 1, "{d:?}");
    }

    #[test]
    fn simplify_rewrites_are_counted() {
        let before = SolverCounters::snapshot();
        let e = Expr::bin(BinOp::Add, Expr::val(2), Expr::val(40));
        assert_eq!(crate::simplify::simplify(&e).as_const(), Some(42));
        let d = SolverCounters::snapshot().since(&before);
        assert!(d.simplify_rewrites >= 1, "{d:?}");
    }

    #[test]
    fn model_to_file_truncates() {
        let mut set = ConstraintSet::new();
        set.assert_byte(10, 0xAA);
        let m = sat_model(&set);
        let f = m.to_file(4);
        assert_eq!(f.len(), 4);
        assert!(f.iter().all(|&b| b == 0));
    }

    #[test]
    fn solver_entries_are_bracketed_in_the_flight_record() {
        use octo_trace::{FlightRecorder, TraceKind};
        use std::sync::Arc;

        let mut set = ConstraintSet::new();
        set.assert_byte(0, 0x41);
        // Without a recorder: nothing is emitted anywhere to check, but
        // the solve itself must be unaffected.
        assert!(set.solve().is_sat());

        let rec = Arc::new(FlightRecorder::new(64));
        let guard = octo_trace::install(&rec, 2, 1);
        assert!(set.solve().is_sat());
        drop(guard);
        let events = rec.snapshot();
        assert_eq!(events.len(), 2, "one begin + one end: {events:?}");
        assert!(matches!(
            events[0].kind,
            TraceKind::SolverBegin { constraints: 1 }
        ));
        let TraceKind::SolverEnd { result, .. } = &events[1].kind else {
            panic!("expected SolverEnd, got {:?}", events[1].kind);
        };
        assert_eq!(*result, "sat");

        // An unsat set reports "unsat" in the bracket.
        let rec = Arc::new(FlightRecorder::new(64));
        let guard = octo_trace::install(&rec, 0, 0);
        let mut bad = ConstraintSet::new();
        bad.assert_byte(0, 1);
        bad.assert_byte(0, 2);
        assert_eq!(bad.solve(), SolveResult::Unsat);
        drop(guard);
        let ends: Vec<_> = rec
            .snapshot()
            .into_iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    TraceKind::SolverEnd {
                        result: "unsat",
                        ..
                    }
                )
            })
            .collect();
        assert_eq!(ends.len(), 1, "exactly one unsat solver exit");
    }

    #[test]
    fn independent_bytes_split_into_components() {
        let mut set = ConstraintSet::new();
        let prod = Expr::bin(BinOp::Mul, Expr::byte(0), Expr::byte(1));
        set.push(Constraint::new(prod, Expr::val(35), Cond::Eq));
        set.assert_byte(7, 1);
        set.push(Constraint::new(Expr::byte(8), Expr::val(9), Cond::Ult));
        let word = Expr::bin(BinOp::Add, Expr::byte(5), Expr::byte(6));
        set.push(Constraint::new(word, Expr::val(9), Cond::Ult));
        let sum = Expr::bin(BinOp::Add, Expr::byte(1), Expr::byte(2));
        set.push(Constraint::new(sum, Expr::val(9), Cond::Ult));
        let (direct, shared) = slice(set.items());
        let at = |cs: &[Constraint]| -> Vec<usize> {
            cs.iter()
                .map(|c| set.items().iter().position(|x| x == c).unwrap())
                .collect()
        };
        assert_eq!(at(&direct), vec![1, 2], "bytes 7 and 8 stand alone");
        let shared: Vec<Vec<usize>> = shared.iter().map(|c| at(c)).collect();
        assert_eq!(shared, vec![vec![0, 4], vec![3]], "bytes 0-2 chain; 5-6");
    }

    #[test]
    fn clones_share_the_memo_and_keep_untouched_components() {
        // b0 * b1 == 35: a 2-byte component, so it goes into the memo.
        let mut set = ConstraintSet::new();
        let prod = Expr::bin(BinOp::Mul, Expr::byte(0), Expr::byte(1));
        set.push(Constraint::new(prod, Expr::val(35), Cond::Eq));
        let first = sat_model(&set);

        let before = SolverCounters::snapshot();
        let mut fork = set.clone();
        fork.assert_byte(9, 0x41);
        let second = sat_model(&fork);
        let d = SolverCounters::snapshot().since(&before);
        assert_eq!(d.memo_hits, 1, "the fork reuses the parent's answer: {d:?}");
        assert_eq!(
            (second.byte(0), second.byte(1)),
            (first.byte(0), first.byte(1))
        );
        assert_eq!(second.byte(9), 0x41);
        // A fresh set starts its own memo.
        let mut fresh = ConstraintSet::new();
        fresh.extend(set.items().iter().cloned());
        let before = SolverCounters::snapshot();
        sat_model(&fresh);
        assert_eq!(SolverCounters::snapshot().since(&before).memo_hits, 0);
        // The memo prints tersely, not its contents.
        assert!(
            format!("{set:?}").contains("SolveMemo(1 entries)"),
            "{set:?}"
        );
    }

    /// A small random expression over the bytes `base..base + width`.
    fn arb_expr(base: u32, width: u32) -> BoxedStrategy<ExprRef> {
        let leaf = prop_oneof![
            (base..base + width).prop_map(Expr::byte),
            (0u64..300).prop_map(Expr::val),
        ];
        leaf.prop_recursive(2, 8, 2, |inner| {
            (
                prop_oneof![
                    Just(BinOp::Add),
                    Just(BinOp::Sub),
                    Just(BinOp::Mul),
                    Just(BinOp::And),
                    Just(BinOp::Or),
                    Just(BinOp::Xor),
                ],
                inner.clone(),
                inner,
            )
                .prop_map(|(op, a, b)| Expr::bin(op, a, b))
        })
        .boxed()
    }

    fn arb_cond() -> impl Strategy<Value = Cond> {
        prop_oneof![
            Just(Cond::Eq),
            Just(Cond::Ne),
            Just(Cond::Ult),
            Just(Cond::Ule),
            Just(Cond::Slt),
            Just(Cond::Sle),
        ]
    }

    /// Up to three constraints over the bytes `base..base + 2`.
    fn arb_group(base: u32, min: usize) -> impl Strategy<Value = Vec<(ExprRef, Cond, u64)>> {
        prop::collection::vec((arb_expr(base, 2), arb_cond(), 0u64..300), min..4)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Slicing is invisible: on sets over 4-6 bytes with at least two
        /// components, whenever the whole-set engine reaches a verdict the
        /// sliced solve returns the same verdict and the same model.
        #[test]
        fn sliced_solve_matches_the_whole_set_engine(
            a in arb_group(0, 1),
            b in arb_group(2, 1),
            c in arb_group(4, 0),
        ) {
            let mut set = ConstraintSet::new();
            for (lhs, cond, k) in a.into_iter().chain(b).chain(c) {
                set.push(Constraint::new(lhs, Expr::val(k), cond));
            }
            prop_assume!(!set.is_trivially_false());
            let (direct, shared) = slice(set.items());
            let alone: BTreeSet<u32> = direct.iter().flat_map(Constraint::vars).collect();
            prop_assume!(shared.len() + alone.len() >= 2);
            let whole = Solver::new(set.items(), SolveLimits::default()).solve();
            prop_assume!(whole != SolveResult::Unknown);
            prop_assert_eq!(set.solve(), whole);
        }
    }
}
