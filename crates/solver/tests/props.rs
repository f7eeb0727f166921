//! Property tests for the constraint solver.
//!
//! The solver's verdicts carry evaluation weight in the reproduction
//! (Unsat ⇒ the paper's Type-III "not triggerable"), so both directions
//! are checked: models must satisfy their constraint sets, and Unsat
//! answers are cross-checked by exhaustive enumeration on small instances.

use octo_ir::BinOp;
use octo_solver::{Cond, Constraint, ConstraintSet, Expr, ExprRef, SolveResult};
use proptest::prelude::*;

/// A small random expression over up to `vars` input bytes.
fn arb_expr(vars: u32, depth: u32) -> BoxedStrategy<ExprRef> {
    let leaf = prop_oneof![
        (0..vars).prop_map(Expr::byte),
        (0u64..300).prop_map(Expr::val),
    ];
    leaf.prop_recursive(depth, 16, 2, |inner| {
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

/// `e` with every input byte moved `by` offsets up.
fn shift_bytes(e: &ExprRef, by: u32) -> ExprRef {
    match &**e {
        Expr::Const(_) => e.clone(),
        Expr::Byte(o) => Expr::byte(o + by),
        Expr::Concat(parts) => std::rc::Rc::new(Expr::Concat(
            parts.iter().map(|p| shift_bytes(p, by)).collect(),
        )),
        Expr::Bin(op, a, b) => Expr::bin(*op, shift_bytes(a, by), shift_bytes(b, by)),
        Expr::Un(op, a) => Expr::un(*op, shift_bytes(a, by)),
    }
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any model returned by the solver satisfies every constraint.
    #[test]
    fn sat_models_satisfy_their_sets(
        exprs in prop::collection::vec((arb_expr(3, 2), arb_cond(), 0u64..300), 1..5)
    ) {
        let mut set = ConstraintSet::new();
        for (lhs, cond, k) in exprs {
            set.push(Constraint::new(lhs, Expr::val(k), cond));
        }
        if let SolveResult::Sat(model) = set.solve() {
            let file = model.to_file(model.required_len().max(3));
            prop_assert!(set.eval_file(&file), "model does not satisfy set");
        }
    }

    /// On instances with ≤ 2 byte variables, Sat/Unsat answers agree with
    /// exhaustive enumeration.
    #[test]
    fn verdicts_match_exhaustive_enumeration(
        exprs in prop::collection::vec((arb_expr(2, 1), arb_cond(), 0u64..300), 1..4)
    ) {
        let mut set = ConstraintSet::new();
        for (lhs, cond, k) in &exprs {
            set.push(Constraint::new(lhs.clone(), Expr::val(*k), *cond));
        }
        let verdict = set.solve();
        let mut any = false;
        'outer: for b0 in 0u16..=255 {
            for b1 in 0u16..=255 {
                if set.eval_file(&[b0 as u8, b1 as u8]) {
                    any = true;
                    break 'outer;
                }
            }
        }
        match verdict {
            SolveResult::Sat(_) => prop_assert!(any, "solver said Sat but no witness exists"),
            SolveResult::Unsat => prop_assert!(!any, "solver said Unsat but a witness exists"),
            SolveResult::Unknown => {} // budget — no claim
            SolveResult::Injected => prop_assert!(false, "no fault plan is installed"),
        }
    }

    /// Two independent components over ≤ 2 bytes each: the solver's
    /// Sat/Unsat matches exhaustive enumeration of both components
    /// (2 × 65,536 assignments), and its models satisfy the whole set.
    #[test]
    fn sliced_verdicts_match_exhaustive_enumeration(
        a in prop::collection::vec((arb_expr(2, 1), arb_cond(), 0u64..300), 1..3),
        b in prop::collection::vec((arb_expr(2, 1), arb_cond(), 0u64..300), 1..3),
    ) {
        // `b` is written over bytes 0..2 and shifted to bytes 2..4.
        let shift = |e: &ExprRef| shift_bytes(e, 2);
        let (mut left, mut right, mut set) =
            (ConstraintSet::new(), ConstraintSet::new(), ConstraintSet::new());
        for (lhs, cond, k) in &a {
            left.push(Constraint::new(lhs.clone(), Expr::val(*k), *cond));
            set.push(Constraint::new(lhs.clone(), Expr::val(*k), *cond));
        }
        for (lhs, cond, k) in &b {
            right.push(Constraint::new(shift(lhs), Expr::val(*k), *cond));
            set.push(Constraint::new(shift(lhs), Expr::val(*k), *cond));
        }
        let witness = |part: &ConstraintSet, at: usize| {
            (0..=u16::MAX).any(|v| {
                let mut file = [0u8; 4];
                file[at..at + 2].copy_from_slice(&v.to_le_bytes());
                part.eval_file(&file)
            })
        };
        let any = witness(&left, 0) && witness(&right, 2);
        match set.solve() {
            SolveResult::Sat(model) => {
                prop_assert!(any, "solver said Sat but no witness exists");
                prop_assert!(set.eval_file(&model.to_file(4)), "model does not satisfy set");
            }
            SolveResult::Unsat => prop_assert!(!any, "solver said Unsat but a witness exists"),
            SolveResult::Unknown => {} // budget — no claim
            SolveResult::Injected => prop_assert!(false, "no fault plan is installed"),
        }
    }

    /// Simplification preserves evaluation on random inputs.
    #[test]
    fn simplify_preserves_semantics(
        e in arb_expr(3, 3),
        input in prop::collection::vec(any::<u8>(), 3)
    ) {
        let s = octo_solver::simplify::simplify(&e);
        prop_assert_eq!(e.eval_file(&input), s.eval_file(&input));
    }

    /// Simplification is idempotent.
    #[test]
    fn simplify_is_idempotent(e in arb_expr(3, 3)) {
        let once = octo_solver::simplify::simplify(&e);
        let twice = octo_solver::simplify::simplify(&once);
        prop_assert_eq!(once, twice);
    }

    /// `quick_feasible` never refutes a satisfiable set (no false Unsat
    /// from the propagation-only pre-check).
    #[test]
    fn quick_feasible_is_sound(
        exprs in prop::collection::vec((arb_expr(2, 1), arb_cond(), 0u64..300), 1..4)
    ) {
        let mut set = ConstraintSet::new();
        for (lhs, cond, k) in exprs {
            set.push(Constraint::new(lhs, Expr::val(k), cond));
        }
        if let SolveResult::Sat(_) = set.solve() {
            prop_assert!(set.quick_feasible(), "quick check refuted a sat set");
        }
    }
}

#[test]
fn exhausted_budget_reports_unknown_not_a_wrong_verdict() {
    use octo_solver::{SolveLimits, SolveResult};
    // A genuinely unsatisfiable 3-variable constraint that propagation
    // alone cannot refute: b0 + b1 + b2 == 766 (max is 765), written so
    // no pairwise filter sees the contradiction, with a node budget too
    // small to finish the search.
    let mut set = ConstraintSet::new();
    let sum = Expr::bin(
        BinOp::Add,
        Expr::bin(BinOp::Add, Expr::byte(0), Expr::byte(1)),
        Expr::byte(2),
    );
    set.push(Constraint::new(sum, Expr::val(766), Cond::Eq));
    match set.solve_with(SolveLimits {
        max_nodes: 3,
        max_pair_work: 0,
    }) {
        SolveResult::Unknown => {}
        SolveResult::Unsat => {} // propagation may still catch it — fine
        SolveResult::Sat(m) => {
            panic!("budget exhaustion produced a bogus model: {m:?}")
        }
        SolveResult::Injected => panic!("no fault plan is installed"),
    }
    // With a real budget the verdict is Unsat.
    assert_eq!(set.solve(), SolveResult::Unsat);
}
