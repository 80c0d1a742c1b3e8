//! Two-input gate primitives.

use std::fmt;
use std::str::FromStr;

/// The kind (Boolean function) of a netlist node.
///
/// The set covers all practically used one- and two-input standard cells:
/// constants, buffer/inverter, the six symmetric two-input functions and the
/// four asymmetric inhibition/implication functions. This is the universe
/// from which CGP function sets (Γ in the paper) are drawn.
///
/// Unary gates ([`GateKind::Buf`], [`GateKind::Not`]) and constants read
/// only their first operand slot; the second operand is ignored but must
/// still be a valid signal so that every node is uniformly binary — exactly
/// the convention Cartesian Genetic Programming uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum GateKind {
    /// Constant logic 0.
    Const0,
    /// Constant logic 1.
    Const1,
    /// Buffer: `a`.
    Buf,
    /// Inverter: `!a`.
    Not,
    /// `a & b`.
    And,
    /// `!(a & b)`.
    Nand,
    /// `a | b`.
    Or,
    /// `!(a | b)`.
    Nor,
    /// `a ^ b`.
    Xor,
    /// `!(a ^ b)`.
    Xnor,
    /// Inhibition: `a & !b`.
    AndNotB,
    /// Inhibition: `!a & b`.
    AndNotA,
    /// Implication: `a | !b`.
    OrNotB,
    /// Implication: `!a | b`.
    OrNotA,
}

impl GateKind {
    /// All gate kinds, in discriminant order.
    pub const ALL: [GateKind; 14] = [
        GateKind::Const0,
        GateKind::Const1,
        GateKind::Buf,
        GateKind::Not,
        GateKind::And,
        GateKind::Nand,
        GateKind::Or,
        GateKind::Nor,
        GateKind::Xor,
        GateKind::Xnor,
        GateKind::AndNotB,
        GateKind::AndNotA,
        GateKind::OrNotB,
        GateKind::OrNotA,
    ];

    /// Evaluates the gate on 64 input vectors at once.
    ///
    /// Each bit position of `a`/`b` is an independent simulation lane.
    #[inline]
    #[must_use]
    pub fn eval_words(self, a: u64, b: u64) -> u64 {
        match self {
            GateKind::Const0 => 0,
            GateKind::Const1 => !0,
            GateKind::Buf => a,
            GateKind::Not => !a,
            GateKind::And => a & b,
            GateKind::Nand => !(a & b),
            GateKind::Or => a | b,
            GateKind::Nor => !(a | b),
            GateKind::Xor => a ^ b,
            GateKind::Xnor => !(a ^ b),
            GateKind::AndNotB => a & !b,
            GateKind::AndNotA => !a & b,
            GateKind::OrNotB => a | !b,
            GateKind::OrNotA => !a | b,
        }
    }

    /// Evaluates the gate on a single pair of Boolean values.
    #[inline]
    #[must_use]
    pub fn eval_bool(self, a: bool, b: bool) -> bool {
        let to = |x: bool| if x { !0u64 } else { 0 };
        self.eval_words(to(a), to(b)) & 1 == 1
    }

    /// The gate's 4-bit truth table: bit `(a << 1) | b` is the output for
    /// inputs `(a, b)` — the opcode form a BDD `apply` takes, so every
    /// kind (constants and unary gates included) compiles the same way.
    #[inline]
    #[must_use]
    pub fn truth_table(self) -> u8 {
        // Lane `(a << 1) | b` of these two words carries the inputs `(a, b)`.
        (self.eval_words(0b1100, 0b1010) & 0xF) as u8
    }

    /// Number of operands the gate actually reads (0, 1 or 2).
    #[must_use]
    pub fn arity(self) -> usize {
        match self {
            GateKind::Const0 | GateKind::Const1 => 0,
            GateKind::Buf | GateKind::Not => 1,
            _ => 2,
        }
    }

    /// Whether swapping the operands leaves the function unchanged.
    #[must_use]
    pub fn is_symmetric(self) -> bool {
        !matches!(self, GateKind::AndNotB | GateKind::AndNotA | GateKind::OrNotB | GateKind::OrNotA)
    }

    /// Canonical lowercase name (`"nand"`, `"xor"`, …).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            GateKind::Const0 => "const0",
            GateKind::Const1 => "const1",
            GateKind::Buf => "buf",
            GateKind::Not => "not",
            GateKind::And => "and",
            GateKind::Nand => "nand",
            GateKind::Or => "or",
            GateKind::Nor => "nor",
            GateKind::Xor => "xor",
            GateKind::Xnor => "xnor",
            GateKind::AndNotB => "andnb",
            GateKind::AndNotA => "andna",
            GateKind::OrNotB => "ornb",
            GateKind::OrNotA => "orna",
        }
    }
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error returned when parsing an unknown gate name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseGateError(String);

impl fmt::Display for ParseGateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown gate kind `{}`", self.0)
    }
}

impl std::error::Error for ParseGateError {}

impl FromStr for GateKind {
    type Err = ParseGateError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        GateKind::ALL
            .iter()
            .copied()
            .find(|k| k.name() == s)
            .ok_or_else(|| ParseGateError(s.to_owned()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_words_matches_truth_tables() {
        // lanes: bit0=(a=0,b=0) bit1=(a=1,b=0) bit2=(a=0,b=1) bit3=(a=1,b=1)
        let a = 0b1010u64;
        let b = 0b1100u64;
        let cases = [
            (GateKind::And, 0b1000),
            (GateKind::Nand, 0b0111),
            (GateKind::Or, 0b1110),
            (GateKind::Nor, 0b0001),
            (GateKind::Xor, 0b0110),
            (GateKind::Xnor, 0b1001),
            (GateKind::AndNotB, 0b0010),
            (GateKind::AndNotA, 0b0100),
            (GateKind::OrNotB, 0b1011),
            (GateKind::OrNotA, 0b1101),
            (GateKind::Buf, 0b1010),
            (GateKind::Not, !0b1010u64),
            (GateKind::Const0, 0),
            (GateKind::Const1, !0),
        ];
        for (kind, expect) in cases {
            assert_eq!(kind.eval_words(a, b) & 0xF, expect & 0xF, "gate {kind} wrong");
        }
    }

    #[test]
    fn eval_bool_consistent_with_words() {
        for kind in GateKind::ALL {
            for (a, b) in [(false, false), (true, false), (false, true), (true, true)] {
                let w = kind.eval_words(if a { !0 } else { 0 }, if b { !0 } else { 0 }) & 1 == 1;
                assert_eq!(kind.eval_bool(a, b), w, "{kind} mismatch at ({a},{b})");
                let bit = (u8::from(a) << 1) | u8::from(b);
                assert_eq!(kind.truth_table() >> bit & 1 == 1, w, "{kind} truth table");
            }
        }
    }

    #[test]
    fn symmetry_flags_are_correct() {
        for kind in GateKind::ALL {
            let sym = (0..4).all(|i| {
                let a = i & 1 == 1;
                let b = i & 2 == 2;
                kind.eval_bool(a, b) == kind.eval_bool(b, a)
            });
            // For unary/const gates symmetry check must account for
            // operand-a-only reads: Buf/Not are not symmetric functions of
            // (a, b) but is_symmetric() reports true since b is ignored in
            // hardware terms. Skip those.
            if kind.arity() == 2 {
                assert_eq!(kind.is_symmetric(), sym, "{kind}");
            }
        }
    }

    #[test]
    fn name_round_trips() {
        for kind in GateKind::ALL {
            let parsed: GateKind = kind.name().parse().expect("parse back");
            assert_eq!(parsed, kind);
        }
        assert!("bogus".parse::<GateKind>().is_err());
    }

    #[test]
    fn arity_reflects_reads() {
        assert_eq!(GateKind::Const0.arity(), 0);
        assert_eq!(GateKind::Not.arity(), 1);
        assert_eq!(GateKind::Nand.arity(), 2);
    }
}
