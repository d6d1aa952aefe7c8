//! σ — tuple filter.

use super::Operator;
use crate::error::Result;
use crate::expr::Expr;
use crate::tuple::Tuple;

/// Emits exactly the input tuples whose predicate holds (NULL = drop).
pub struct Select {
    pred: Expr,
}

impl Select {
    /// Filter by `pred`, evaluated with the tuple as relation 0.
    pub fn new(pred: Expr) -> Select {
        Select { pred }
    }
}

impl Operator for Select {
    fn on_tuple(&mut self, _port: usize, t: &Tuple, out: &mut Vec<Tuple>) -> Result<()> {
        if self.pred.eval_bool(&[t])? {
            out.push(t.clone());
        }
        Ok(())
    }

    fn process_batch(&mut self, _port: usize, batch: &[Tuple], out: &mut Vec<Tuple>) -> Result<()> {
        for t in batch {
            if self.pred.eval_bool(&[t])? {
                out.push(t.clone());
            }
        }
        Ok(())
    }

    // Filtering is stateless; a punctuation changes nothing.
    fn punctuation_sensitive(&self) -> bool {
        false
    }

    fn name(&self) -> &str {
        "select"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::BinOp;
    use crate::time::Timestamp;
    use crate::value::Value;

    #[test]
    fn filters() {
        let mut s = Select::new(Expr::bin(BinOp::Ge, Expr::col(0), Expr::lit(10i64)));
        let mut out = Vec::new();
        for v in [5i64, 10, 15] {
            let t = Tuple::new(vec![Value::Int(v)], Timestamp::ZERO, 0);
            s.on_tuple(0, &t, &mut out).unwrap();
        }
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn null_predicate_drops() {
        let mut s = Select::new(Expr::eq(Expr::col(0), Expr::lit(1i64)));
        let mut out = Vec::new();
        let t = Tuple::new(vec![Value::Null], Timestamp::ZERO, 0);
        s.on_tuple(0, &t, &mut out).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn type_errors_propagate() {
        let mut s = Select::new(Expr::col(0)); // non-boolean column
        let t = Tuple::new(vec![Value::Int(3)], Timestamp::ZERO, 0);
        assert!(s.on_tuple(0, &t, &mut Vec::new()).is_err());
    }
}
