//! Property-based tests (proptest) for the IR crate: expression
//! simplification is semantics-preserving, atom canonicalization is
//! involution-stable, and the parser round-trips pretty-printed
//! expressions and formulas — parsed source text, map reads and writes
//! included, structurally.

use proptest::prelude::*;

use acspec_ir::expr::{Atom, Expr, Formula, RelOp};
use acspec_ir::interp::{eval_expr, eval_formula, State, Value};
use acspec_ir::parse::{parse_expr, parse_formula};

const VARS: [&str; 3] = ["x", "y", "z"];

fn expr_strategy() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (-5i64..6).prop_map(Expr::Int),
        (0usize..3).prop_map(|i| Expr::var(VARS[i])),
    ];
    leaf.prop_recursive(3, 32, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Add(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Sub(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Mul(Box::new(a), Box::new(b))),
            inner.prop_map(|a| Expr::Neg(Box::new(a))),
        ]
    })
}

fn rel_strategy() -> impl Strategy<Value = RelOp> {
    prop_oneof![
        Just(RelOp::Eq),
        Just(RelOp::Ne),
        Just(RelOp::Lt),
        Just(RelOp::Le),
        Just(RelOp::Gt),
        Just(RelOp::Ge),
    ]
}

fn formula_strategy() -> impl Strategy<Value = Formula> {
    let atom = (rel_strategy(), expr_strategy(), expr_strategy())
        .prop_map(|(op, a, b)| Formula::Rel(op, a, b));
    let leaf = prop_oneof![Just(Formula::True), Just(Formula::False), atom];
    leaf.prop_recursive(3, 24, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(|f| Formula::Not(Box::new(f))),
            prop::collection::vec(inner.clone(), 2..4).prop_map(Formula::And),
            prop::collection::vec(inner.clone(), 2..4).prop_map(Formula::Or),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| Formula::Implies(Box::new(a), Box::new(b))),
            (inner.clone(), inner).prop_map(|(a, b)| Formula::Iff(Box::new(a), Box::new(b))),
        ]
    })
}

/// Integer-valued source text, map reads and `write(m, a, b)[a]`
/// included.
fn int_src_strategy() -> impl Strategy<Value = String> {
    let leaf = prop_oneof![
        (0usize..3).prop_map(|i| VARS[i].to_string()),
        (0i64..10).prop_map(|n| n.to_string()),
    ];
    leaf.prop_recursive(2, 16, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("({a} + {b})")),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("({a} - {b})")),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("({a} * {b})")),
            inner.clone().prop_map(|a| format!("m[{a}]")),
            (inner.clone(), inner).prop_map(|(a, b)| format!("write(m, {a}, {b})[{a}]")),
        ]
    })
}

/// Formula source text over every connective the parser accepts.
fn formula_src_strategy() -> impl Strategy<Value = String> {
    let ops = prop::sample::select(vec!["==", "!=", "<", "<=", ">", ">="]);
    let atom = (int_src_strategy(), ops, int_src_strategy())
        .prop_map(|(a, op, b)| format!("{a} {op} {b}"));
    atom.prop_recursive(3, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("({a} && {b})")),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("({a} || {b})")),
            inner.clone().prop_map(|a| format!("!({a})")),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("({a} ==> {b})")),
            (inner.clone(), inner).prop_map(|(a, b)| format!("({a} <==> {b})")),
        ]
    })
}

fn state(vals: &[i64; 3]) -> State {
    let mut st = State::new();
    for (name, &v) in VARS.iter().zip(vals) {
        st.set(*name, Value::Int(v));
    }
    st
}

proptest! {
    #[test]
    fn fold_consts_preserves_semantics(
        e in expr_strategy(),
        vals in [-3i64..4, -3i64..4, -3i64..4],
    ) {
        let st = state(&vals);
        let before = eval_expr(&st, &e).expect("evaluates");
        let after = eval_expr(&st, &e.fold_consts()).expect("evaluates");
        prop_assert_eq!(before, after);
    }

    #[test]
    fn fold_consts_is_idempotent(e in expr_strategy()) {
        let once = e.fold_consts();
        let twice = once.fold_consts();
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn atom_canonicalization_preserves_semantics(
        op in rel_strategy(),
        a in expr_strategy(),
        b in expr_strategy(),
        vals in [-3i64..4, -3i64..4, -3i64..4],
    ) {
        let st = state(&vals);
        let original = Formula::Rel(op, a.clone(), b.clone());
        let want = eval_formula(&st, &original).expect("evaluates");
        let (atom, polarity) = Atom::from_rel(op, a, b);
        let lit = atom.to_literal_formula(polarity);
        let got = eval_formula(&st, &lit).expect("evaluates");
        prop_assert_eq!(got, want);
    }

    #[test]
    fn atom_ops_are_canonical(
        op in rel_strategy(),
        a in expr_strategy(),
        b in expr_strategy(),
    ) {
        let (atom, _) = Atom::from_rel(op, a, b);
        prop_assert!(
            matches!(atom.op, RelOp::Eq | RelOp::Lt | RelOp::Le),
            "non-canonical op {:?}",
            atom.op
        );
        // Eq orders operands.
        if atom.op == RelOp::Eq {
            prop_assert!(atom.lhs <= atom.rhs);
        }
    }

    #[test]
    fn expr_pretty_print_parses_back(e in expr_strategy()) {
        let printed = e.to_string();
        let reparsed = parse_expr(&printed)
            .unwrap_or_else(|err| panic!("`{printed}` failed to re-parse: {err}"));
        // Round trip compares semantics (precedence may reassociate
        // prints of equal meaning, so compare by evaluation).
        for vals in [[-2i64, 0, 3], [1, 1, 1], [-3, 2, -1]] {
            let st = state(&vals);
            prop_assert_eq!(
                eval_expr(&st, &e).expect("evaluates"),
                eval_expr(&st, &reparsed).expect("evaluates"),
                "mismatch for `{}` at {:?}", printed, vals
            );
        }
    }

    #[test]
    fn formula_pretty_print_parses_back(f in formula_strategy()) {
        let printed = f.to_string();
        let reparsed = parse_formula(&printed)
            .unwrap_or_else(|err| panic!("`{printed}` failed to re-parse: {err}"));
        for vals in [[-2i64, 0, 3], [1, 1, 1], [-3, 2, -1], [0, 0, 0]] {
            let st = state(&vals);
            prop_assert_eq!(
                eval_formula(&st, &f).expect("evaluates"),
                eval_formula(&st, &reparsed).expect("evaluates"),
                "mismatch for `{}` at {:?}", printed, vals
            );
        }
    }

    #[test]
    fn parsed_formula_pretty_prints_to_itself(src in formula_src_strategy()) {
        // A parsed formula survives print-then-parse structurally: the
        // printer brackets exactly what the parser needs.
        let f = parse_formula(&src).unwrap_or_else(|err| panic!("`{src}`: {err}"));
        let printed = f.to_string();
        let reparsed = parse_formula(&printed)
            .unwrap_or_else(|err| panic!("`{printed}` failed to re-parse: {err}"));
        prop_assert_eq!(reparsed, f, "`{}` printed as `{}`", src, printed);
    }

    #[test]
    fn negation_is_involutive_semantically(
        f in formula_strategy(),
        vals in [-3i64..4, -3i64..4, -3i64..4],
    ) {
        let st = state(&vals);
        let double_neg = Formula::not(Formula::not(f.clone()));
        prop_assert_eq!(
            eval_formula(&st, &f).expect("evaluates"),
            eval_formula(&st, &double_neg).expect("evaluates")
        );
    }

    #[test]
    fn subst_then_eval_equals_eval_in_updated_state(
        f in formula_strategy(),
        vals in [-3i64..4, -3i64..4, -3i64..4],
        replacement in -3i64..4,
    ) {
        // f[c/x] evaluated at σ  ==  f evaluated at σ[x ↦ c].
        let substituted = f.subst("x", &Expr::Int(replacement));
        let st = state(&vals);
        let mut st2 = state(&vals);
        st2.set("x", Value::Int(replacement));
        prop_assert_eq!(
            eval_formula(&st, &substituted).expect("evaluates"),
            eval_formula(&st2, &f).expect("evaluates")
        );
    }
}
