//! Constant folding.
//!
//! Performance models are evaluated on every task start, which in a large
//! simulation means millions of evaluations. Folding constant subtrees once
//! at parse time removes most of that cost for mostly-constant models (one
//! of the design-choice ablations listed in DESIGN.md §4).

use crate::ast::Expr;
use crate::eval::Context;

impl Expr {
    /// Returns an equivalent expression with every constant subtree
    /// collapsed to a literal. IEEE semantics are preserved exactly because
    /// folding runs the same evaluator the runtime uses.
    pub fn fold_constants(&self) -> Expr {
        if self.is_constant() {
            // A constant subtree can still fail finiteness (e.g. `1/0`);
            // keep such trees unfolded so the runtime error surfaces with
            // the original expression intact.
            if let Ok(v) = self.eval_raw(&Context::new()) {
                return Expr::Num(v);
            }
            return self.clone();
        }
        match self {
            Expr::Num(_) | Expr::Var(_) => self.clone(),
            Expr::Unary(op, e) => Expr::Unary(*op, Box::new(e.fold_constants())),
            Expr::Binary(op, l, r) => Expr::Binary(
                *op,
                Box::new(l.fold_constants()),
                Box::new(r.fold_constants()),
            ),
            Expr::Call(f, args) => Expr::Call(*f, args.iter().map(Expr::fold_constants).collect()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_tree_collapses() {
        let e = Expr::parse("1 + 2 * 3").unwrap().fold_constants();
        assert_eq!(e, Expr::Num(7.0));
    }

    #[test]
    fn variables_block_folding_locally_only() {
        let e = Expr::parse("(1 + 2) * n + (4 / 2)")
            .unwrap()
            .fold_constants();
        // Folds the two constant subtrees but keeps the variable.
        assert_eq!(e.to_string(), "((3 * n) + 2)");
    }

    #[test]
    fn folding_preserves_value() {
        let src = "1e12 / num_nodes + 2e8 * log2(min(num_nodes, 64)) - (3 + 4) ^ 2";
        let orig = Expr::parse(src).unwrap();
        let folded = orig.fold_constants();
        for n in [1, 2, 7, 64, 1000] {
            let ctx = Context::with_num_nodes(n);
            assert_eq!(orig.eval(&ctx), folded.eval(&ctx), "mismatch at n={n}");
        }
    }

    #[test]
    fn nan_subtree_left_unfolded() {
        let e = Expr::parse("0 / 0 + n").unwrap();
        let folded = e.fold_constants();
        // The 0/0 subtree stays so evaluation reports NotFinite, same as
        // the unfolded expression would.
        let ctx = {
            let mut c = Context::new();
            c.set("n", 1.0);
            c
        };
        assert_eq!(e.eval(&ctx), folded.eval(&ctx));
    }

    #[test]
    fn folding_is_idempotent() {
        let e = Expr::parse("2 * 3 + n * (4 - 1)").unwrap();
        let once = e.fold_constants();
        let twice = once.fold_constants();
        assert_eq!(once, twice);
    }
}
