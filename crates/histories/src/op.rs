//! Processes, variables, values and operations (paper §2).
//!
//! The paper considers a finite set of sequential application processes
//! `ap_1 … ap_n` interacting via shared variables `x_1 … x_m`. Each variable
//! is accessed through read and write operations; every variable has the
//! initial value `⊥` (bottom).

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of an application process (`ap_i` in the paper). Dense,
/// zero-based.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ProcId(pub usize);

impl ProcId {
    /// The underlying index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Debug for ProcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl fmt::Display for ProcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Identifier of a shared variable (`x_h` in the paper). Dense, zero-based.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct VarId(pub usize);

impl VarId {
    /// The underlying index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Debug for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// A value stored in a shared variable. `Bottom` is the initial value `⊥`;
/// writes always store an `Int`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Value {
    /// The initial value `⊥`.
    Bottom,
    /// An application value.
    Int(i64),
}

impl Value {
    /// Whether this is the initial value.
    pub fn is_bottom(self) -> bool {
        matches!(self, Value::Bottom)
    }

    /// The integer payload, if any.
    pub fn as_int(self) -> Option<i64> {
        match self {
            Value::Bottom => None,
            Value::Int(v) => Some(v),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Bottom => write!(f, "⊥"),
            Value::Int(v) => write!(f, "{v}"),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Whether an operation reads or writes its variable.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum OpKind {
    /// A read operation `r_i(x)v`.
    Read,
    /// A write operation `w_i(x)v`.
    Write,
}

/// One read or write operation in a history.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Operation {
    /// The invoking application process.
    pub proc: ProcId,
    /// Position of this operation in the invoking process's local history
    /// (0-based program-order index).
    pub pos: usize,
    /// Read or write.
    pub kind: OpKind,
    /// The accessed variable.
    pub var: VarId,
    /// The value written (for writes) or returned (for reads).
    pub value: Value,
}

impl Operation {
    /// Whether this is a read.
    pub fn is_read(&self) -> bool {
        self.kind == OpKind::Read
    }

    /// Whether this is a write.
    pub fn is_write(&self) -> bool {
        self.kind == OpKind::Write
    }

    /// `w_i(x)v` / `r_i(x)v` notation used throughout the paper.
    pub(crate) fn notation(&self) -> String {
        let k = match self.kind {
            OpKind::Read => "r",
            OpKind::Write => "w",
        };
        format!("{}{}({}){}", k, self.proc.index() + 1, self.var, self.value)
    }
}

impl fmt::Debug for Operation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.notation())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_predicates() {
        assert!(Value::Bottom.is_bottom());
        assert!(!Value::Int(3).is_bottom());
        assert_eq!(Value::Int(3).as_int(), Some(3));
        assert_eq!(Value::Bottom.as_int(), None);
        assert_eq!(Value::from(7), Value::Int(7));
    }

    #[test]
    fn notation_matches_paper_style() {
        let w = Operation {
            proc: ProcId(0),
            pos: 0,
            kind: OpKind::Write,
            var: VarId(0),
            value: Value::Int(5),
        };
        assert_eq!(w.notation(), "w1(x0)5");
        assert!(w.is_write());
        let r = Operation {
            proc: ProcId(2),
            pos: 1,
            kind: OpKind::Read,
            var: VarId(1),
            value: Value::Bottom,
        };
        assert_eq!(r.notation(), "r3(x1)⊥");
        assert!(r.is_read());
    }

    #[test]
    fn ids_display() {
        assert_eq!(format!("{}", ProcId(2)), "p2");
        assert_eq!(format!("{}", VarId(4)), "x4");
        assert_eq!(ProcId(3).index(), 3);
        assert_eq!(VarId(3).index(), 3);
    }

    #[test]
    fn value_ordering_puts_bottom_first() {
        assert!(Value::Bottom < Value::Int(i64::MIN));
    }
}
