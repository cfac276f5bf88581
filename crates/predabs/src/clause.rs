//! Clauses and cubes over a predicate set `Q` (§2.4).

use acspec_ir::expr::{Atom, Formula};

/// A literal over `Q`: predicate index plus polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QLit {
    /// Index into the predicate set.
    pub pred: usize,
    /// Polarity (`true` = the predicate itself).
    pub positive: bool,
}

impl QLit {
    /// The complementary literal.
    #[must_use]
    pub fn negated(self) -> QLit {
        QLit {
            pred: self.pred,
            positive: !self.positive,
        }
    }
}

/// A disjunction of literals over `Q`, kept sorted and deduplicated.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QClause(Vec<QLit>);

impl QClause {
    /// Creates a clause, normalizing literal order and duplicates.
    pub fn new(mut lits: Vec<QLit>) -> QClause {
        lits.sort_unstable();
        lits.dedup();
        QClause(lits)
    }

    /// The literals, in sorted order.
    pub fn lits(&self) -> &[QLit] {
        &self.0
    }

    /// Number of literals.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True if the clause is empty (equivalent to `false`).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// True if the clause contains both a literal and its negation.
    pub fn is_tautology(&self) -> bool {
        self.0
            .windows(2)
            .any(|w| w[0].pred == w[1].pred && w[0].positive != w[1].positive)
    }

    /// True if `self` subsumes `other` (`self ⊆ other`).
    pub fn subsumes(&self, other: &QClause) -> bool {
        self.0.iter().all(|l| other.0.contains(l))
    }

    /// Renders the clause as a formula over the predicate set.
    pub fn to_formula(&self, preds: &[Atom]) -> Formula {
        Formula::or(
            self.0
                .iter()
                .map(|l| preds[l.pred].to_literal_formula(l.positive))
                .collect(),
        )
    }
}

impl FromIterator<QLit> for QClause {
    fn from_iter<I: IntoIterator<Item = QLit>>(iter: I) -> QClause {
        QClause::new(iter.into_iter().collect())
    }
}

/// Renders a set of clauses as the conjunction `⋀(C)` (§2.4; the empty
/// set is `true`).
pub fn clauses_to_formula(clauses: &[QClause], preds: &[Atom]) -> Formula {
    Formula::and(clauses.iter().map(|c| c.to_formula(preds)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use acspec_ir::expr::{Expr, RelOp};

    fn lit(p: usize, pos: bool) -> QLit {
        QLit {
            pred: p,
            positive: pos,
        }
    }

    #[test]
    fn normalization_sorts_and_dedupes() {
        let c = QClause::new(vec![lit(2, true), lit(0, false), lit(2, true)]);
        assert_eq!(c.lits(), &[lit(0, false), lit(2, true)]);
    }

    #[test]
    fn tautology_detection() {
        let c = QClause::new(vec![lit(1, true), lit(1, false)]);
        assert!(c.is_tautology());
        let c = QClause::new(vec![lit(1, true), lit(2, false)]);
        assert!(!c.is_tautology());
    }

    #[test]
    fn subsumption() {
        let small = QClause::new(vec![lit(0, true)]);
        let big = QClause::new(vec![lit(0, true), lit(1, false)]);
        assert!(small.subsumes(&big));
        assert!(!big.subsumes(&small));
        assert!(small.subsumes(&small));
    }

    #[test]
    fn rendering() {
        let preds = vec![
            Atom::from_rel(RelOp::Eq, Expr::var("x"), Expr::Int(0)).0,
            Atom::from_rel(RelOp::Lt, Expr::var("x"), Expr::var("y")).0,
        ];
        let c = QClause::new(vec![lit(0, false), lit(1, true)]);
        let f = c.to_formula(&preds);
        assert_eq!(f.to_string(), "x != 0 || x < y");
        let empty: Vec<QClause> = vec![];
        assert_eq!(clauses_to_formula(&empty, &preds), Formula::True);
    }
}
