//! The CGP node function set Γ.

use crate::CgpError;
use apx_gates::GateKind;

/// An ordered set of gate kinds available to CGP nodes.
///
/// The gene value of a node's function is an index into this set, so the
/// set's order is part of the chromosome encoding (chromosomes serialized
/// with one set must be deserialized with the same set).
#[derive(Debug, PartialEq, Eq)]
pub struct FunctionSet {
    kinds: Vec<GateKind>,
}

impl Clone for FunctionSet {
    fn clone(&self) -> Self {
        FunctionSet { kinds: self.kinds.clone() }
    }

    /// Copies `source` into `self` reusing the allocation.
    fn clone_from(&mut self, source: &Self) {
        self.kinds.clone_from(&source.kinds);
    }
}

impl FunctionSet {
    /// The paper's Γ: all standard one/two-input gates
    /// (buffer, inverter, AND, NAND, OR, NOR, XOR, XNOR).
    #[must_use]
    pub fn standard() -> Self {
        FunctionSet {
            kinds: vec![
                GateKind::Buf,
                GateKind::Not,
                GateKind::And,
                GateKind::Nand,
                GateKind::Or,
                GateKind::Nor,
                GateKind::Xor,
                GateKind::Xnor,
            ],
        }
    }

    /// Extended set additionally containing constants and the asymmetric
    /// inhibition/implication gates.
    #[must_use]
    pub fn extended() -> Self {
        FunctionSet { kinds: GateKind::ALL.to_vec() }
    }

    /// A custom set.
    ///
    /// # Errors
    ///
    /// Returns [`CgpError::EmptyFunctionSet`] if `kinds` is empty.
    /// Duplicates are removed, keeping first occurrences.
    pub fn new(kinds: Vec<GateKind>) -> Result<Self, CgpError> {
        let mut seen = Vec::new();
        for k in kinds {
            if !seen.contains(&k) {
                seen.push(k);
            }
        }
        if seen.is_empty() {
            return Err(CgpError::EmptyFunctionSet);
        }
        Ok(FunctionSet { kinds: seen })
    }

    /// Number of functions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// Whether the set is empty (never true for constructed sets).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// Gate kind at gene value `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    #[must_use]
    pub fn kind(&self, index: usize) -> GateKind {
        self.kinds[index]
    }

    /// Gene value of `kind`, if present.
    #[must_use]
    pub fn index_of(&self, kind: GateKind) -> Option<usize> {
        self.kinds.iter().position(|&k| k == kind)
    }

    /// Iterates over the kinds in gene order.
    pub fn iter(&self) -> impl Iterator<Item = GateKind> + '_ {
        self.kinds.iter().copied()
    }
}

impl Default for FunctionSet {
    fn default() -> Self {
        Self::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_from_reuses_the_allocation() {
        let mut target = FunctionSet::extended();
        let kinds = target.kinds.as_ptr();
        target.clone_from(&FunctionSet::standard());
        assert_eq!(target, FunctionSet::standard());
        assert_eq!(target.kinds.as_ptr(), kinds);
    }

    #[test]
    fn standard_set_has_eight_gates() {
        let s = FunctionSet::standard();
        assert_eq!(s.len(), 8);
        assert_eq!(s.index_of(GateKind::And), Some(2));
        assert_eq!(s.kind(2), GateKind::And);
        assert_eq!(s.index_of(GateKind::Const0), None);
    }

    #[test]
    fn extended_covers_all() {
        let s = FunctionSet::extended();
        for kind in GateKind::ALL {
            assert!(s.index_of(kind).is_some(), "{kind}");
        }
    }

    #[test]
    fn custom_set_dedups() {
        let s = FunctionSet::new(vec![GateKind::And, GateKind::And, GateKind::Or]).unwrap();
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn empty_set_is_rejected() {
        assert_eq!(FunctionSet::new(vec![]), Err(CgpError::EmptyFunctionSet));
    }
}
