//! Semantic verification on ROBDD planes: equivalence proofs, canonical
//! function identity and exact output ranges.
//!
//! The structural passes of this crate answer "is this netlist
//! well-formed"; this module answers "what function does it compute",
//! using `apx_bdd` as the reasoning engine. Three capabilities:
//!
//! 1. **Equivalence checking** ([`prove_equiv`]): both netlists compile
//!    to per-output-bit BDD planes under one shared manager; canonicity
//!    makes node-id equality *function* equality, so the comparison is a
//!    constant-time id check per output. Inequality yields a concrete
//!    counterexample input ([`Equiv::Differs`]); diagrams that outgrow
//!    the node budget degrade to [`Equiv::Unknown`] instead of blowing
//!    up (multiplier BDDs are exponential in operand width under any
//!    variable order).
//! 2. **Canonical functional digest** ([`functional_digest`]): a hash of
//!    the canonically renumbered plane subgraph under the fixed input-
//!    index variable order. Two netlists get the same digest iff they
//!    compute the same output function vector — invariant under wiring
//!    permutation, dead nodes and any gate-level restructuring.
//!    [`class_representatives`] groups netlists into equivalence classes
//!    by it; the component library's `dedup_semantic` stage, the cache
//!    GC's equivalence-class collapse and `netlist_lint`'s census all
//!    call that one rule.
//! 3. **Exact output ranges** ([`output_ranges`]): per weighted-operand
//!    value, the exact min/max achievable output word via greedy max-sat
//!    descent over the restricted planes — the tightening the WMED
//!    bracket pass ([`crate::wmed_bounds`]) substitutes for its ternary
//!    candidate sets when the netlist fits the budget.
//!
//! [`prove_seed`] closes the loop on the generators themselves: every
//! [`Operator::seed_circuit`] is proved equivalent to an *independent*
//! plane-arithmetic rendering of the reference function (ripple/shift-add
//! directly on BDD planes, not on `apx_arith` gate structures). To stay
//! tractable at symbolic-only widths it pins each weighted-operand value
//! and proves the `2^width` residual cofactors separately — constant ×
//! operand planes stay polynomial where the monolithic multiplier
//! diagram explodes.
//!
//! # Budget semantics
//!
//! Every entry point takes (or defaults) a node budget checked between
//! gate applications. Exceeding it returns `Unknown`/`None` — never a
//! wrong answer. Callers treat that as "fall back to the structural /
//! ternary result", so the budget only trades precision, never
//! soundness.

use crate::fnv_u128;
use apx_arith::{EvalBackend, Operator};
use apx_bdd::{Bdd, NodeId, FALSE};
use apx_gates::Netlist;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt::Write as _;

/// Default node budget for semantic analyses: comfortably admits every
/// exhaustive-width component (a 10-bit array multiplier's monolithic
/// planes stay well under it) while bounding wide-width blowups to a few
/// tens of megabytes before degrading to `Unknown`.
pub const SEMANTIC_NODE_BUDGET: usize = 1 << 21;

/// Verdict of an equivalence proof.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Equiv {
    /// The two netlists compute identical output function vectors.
    Equal,
    /// The netlists differ; `witness` is one input assignment (netlist
    /// input order) on which their outputs disagree.
    Differs {
        /// Counterexample input assignment, one `bool` per netlist input.
        witness: Vec<bool>,
    },
    /// The proof outgrew the node budget before completing — no verdict.
    Unknown {
        /// The budget (in BDD nodes) that was exhausted.
        budget: usize,
    },
}

/// Compiles `nl` to output planes given one BDD function per primary
/// input, checking the node budget before every gate and after the
/// last. `None` = budget exhausted.
fn compile(bdd: &mut Bdd, nl: &Netlist, inputs: &[NodeId], budget: usize) -> Option<Vec<NodeId>> {
    let planes = nl.propagate(inputs, |kind, a, b| {
        (bdd.num_nodes() <= budget).then(|| bdd.apply(a, b, kind.truth_table()))
    })?;
    (bdd.num_nodes() <= budget).then_some(planes)
}

/// Asserts the arity half of the component contract — the same
/// preconditions the bounds pass and the evaluator enforce.
fn assert_component_arity(nl: &Netlist, op: Operator, width: u32, role: &str) {
    assert!(
        op.supports_width(width, EvalBackend::Symbolic),
        "operand width {width} outside {op}'s evaluable range"
    );
    let ni = op.num_inputs(width);
    assert_eq!(nl.num_inputs(), ni, "{role}: a width-{width} {op} netlist must have {ni} inputs");
    let no = op.num_outputs(width);
    assert_eq!(nl.num_outputs(), no, "{role}: a width-{width} {op} netlist must have {no} outputs");
}

/// Proves or refutes functional equivalence of two `width`-bit `op`
/// netlists under the default [`SEMANTIC_NODE_BUDGET`].
///
/// # Panics
///
/// Panics if `width` is unsupported or either netlist's arity
/// contradicts the operator contract.
#[must_use]
pub fn prove_equiv(a: &Netlist, b: &Netlist, op: Operator, width: u32) -> Equiv {
    prove_equiv_with_budget(a, b, op, width, SEMANTIC_NODE_BUDGET)
}

/// [`prove_equiv`] under an explicit node budget.
///
/// Both netlists compile into *one* manager over the shared input
/// variables (variable `i` = netlist input `i`), so ROBDD canonicity
/// reduces the miter to an id comparison per output plane; a genuine
/// difference XORs the first differing planes and extracts a model as
/// the counterexample.
///
/// # Panics
///
/// Same contract as [`prove_equiv`].
#[must_use]
pub fn prove_equiv_with_budget(
    a: &Netlist,
    b: &Netlist,
    op: Operator,
    width: u32,
    budget: usize,
) -> Equiv {
    assert_component_arity(a, op, width, "left operand");
    assert_component_arity(b, op, width, "right operand");
    let ni = op.num_inputs(width);
    let mut bdd = Bdd::new(ni as u32);
    let vars: Vec<NodeId> = (0..ni).map(|i| bdd.var(i as u32)).collect();
    let Some(pa) = compile(&mut bdd, a, &vars, budget) else {
        return Equiv::Unknown { budget };
    };
    let Some(pb) = compile(&mut bdd, b, &vars, budget) else {
        return Equiv::Unknown { budget };
    };
    for (&fa, &fb) in pa.iter().zip(&pb) {
        if fa != fb {
            let miter = bdd.xor(fa, fb);
            let witness =
                bdd.some_model(miter).expect("distinct canonical planes differ somewhere");
            return Equiv::Differs { witness };
        }
    }
    Equiv::Equal
}

/// Canonical 128-bit digest of the *function* a netlist computes, under
/// the default [`SEMANTIC_NODE_BUDGET`] — see
/// [`functional_digest_with_budget`].
#[must_use]
pub fn functional_digest(nl: &Netlist) -> Option<u128> {
    functional_digest_with_budget(nl, SEMANTIC_NODE_BUDGET)
}

/// Canonical 128-bit digest of the function `nl` computes: the hash of
/// its canonically renumbered output-plane subgraph under the fixed
/// input-index variable order ([`Bdd::export_planes`]).
///
/// Canonicity argument: the ROBDD of each output bit is unique for the
/// fixed variable order, and the export renumbers nodes by a
/// deterministic traversal of that unique graph — so any two netlists
/// computing the same `inputs -> outputs` function vector serialize to
/// identical bytes, regardless of wiring permutations, dead nodes or
/// gate-level restructuring. Distinct functions differ in at least one
/// plane graph, so collisions are only those of the 128-bit hash itself.
///
/// Returns `None` when the planes outgrow `budget` (or the input count
/// exceeds the manager's variable cap) — callers fall back to structural
/// identity, which is strictly finer and therefore still sound for
/// dedup.
#[must_use]
pub fn functional_digest_with_budget(nl: &Netlist, budget: usize) -> Option<u128> {
    let ni = nl.num_inputs();
    if ni as u32 > apx_bdd::MAX_VARS {
        return None;
    }
    let mut bdd = Bdd::new(ni as u32);
    let vars: Vec<NodeId> = (0..ni).map(|i| bdd.var(i as u32)).collect();
    let planes = compile(&mut bdd, nl, &vars, budget)?;
    let (triples, roots) = bdd.export_planes(&planes);
    let mut canonical = String::new();
    let _ = write!(canonical, "fd {ni} {}", roots.len());
    for (var, lo, hi) in &triples {
        let _ = write!(canonical, " {var}:{lo}:{hi}");
    }
    for r in &roots {
        let _ = write!(canonical, " r{r}");
    }
    Some(fnv_u128(&canonical))
}

/// The equivalence-class rule: for each member `(op, width, signed,
/// netlist)`, the index of its class representative.
///
/// A class is the members of one `(op, width, signed)` component class
/// whose [`functional_digest`]s agree — the same function, however it is
/// wired. A member whose planes outgrow the node budget keeps its
/// structural identity: it is its own class. The representative is the
/// member `prefer` orders first (`prefer(i, j)` compares members `i` and
/// `j`): members are scanned in input order, and a later member replaces
/// the held one only when it is strictly preferred, so ties keep the
/// earliest.
///
/// A member is its own representative exactly when it survives a
/// collapse of every class to one member, so the number of such members
/// is the number of distinct functions.
#[must_use]
pub fn class_representatives(
    members: &[(Operator, u32, bool, &Netlist)],
    mut prefer: impl FnMut(usize, usize) -> Ordering,
) -> Vec<usize> {
    let classes: Vec<Option<(Operator, u32, bool, u128)>> = members
        .iter()
        .map(|&(op, width, signed, nl)| functional_digest(nl).map(|d| (op, width, signed, d)))
        .collect();
    let mut held: HashMap<(Operator, u32, bool, u128), usize> = HashMap::new();
    for (i, class) in classes.iter().enumerate() {
        if let Some(class) = class {
            held.entry(*class)
                .and_modify(|j| {
                    if prefer(i, *j).is_lt() {
                        *j = i;
                    }
                })
                .or_insert(i);
        }
    }
    classes.iter().enumerate().map(|(i, class)| class.map_or(i, |c| held[&c])).collect()
}

/// Exact per-weighted-operand output ranges of a `width`-bit `op`
/// netlist, in **biased** output space (`raw ^ top_bit` when `signed` —
/// the order-isomorphic encoding the WMED bracket pass compares in).
///
/// Entry `x` of the result is `(min, max)`: the exact extreme biased
/// output words achievable when the weighted operand is pinned to raw
/// encoding `x` and the remaining inputs range freely. Both extremes are
/// *achieved* by some free assignment, so `[min, max]` is the exact
/// interval hull of the achievable output set.
///
/// Returns `None` when the monolithic planes outgrow `budget` — the
/// caller keeps its ternary candidate sets.
///
/// # Panics
///
/// Panics if `width` is unsupported or the netlist's arity contradicts
/// the operator contract.
#[must_use]
pub fn output_ranges(
    nl: &Netlist,
    op: Operator,
    width: u32,
    signed: bool,
    budget: usize,
) -> Option<Vec<(u64, u64)>> {
    assert_component_arity(nl, op, width, "range analysis");
    let ni = op.num_inputs(width);
    if ni as u32 > apx_bdd::MAX_VARS {
        return None;
    }
    let mut bdd = Bdd::new(ni as u32);
    let vars: Vec<NodeId> = (0..ni).map(|i| bdd.var(i as u32)).collect();
    let mut planes = compile(&mut bdd, nl, &vars, budget)?;
    if signed {
        // Bias the top plane: `raw ^ top_bit` complements the sign bit.
        let top = planes.len() - 1;
        planes[top] = bdd.not(planes[top]);
    }
    let mut ranges = Vec::with_capacity(1 << width);
    for x in 0..(1u64 << width) {
        // The weighted operand is netlist inputs `0..width` — the
        // root-most variables, so a plain descend pins them.
        let restricted: Vec<NodeId> =
            planes.iter().map(|&p| bdd.descend(p, width, |v| (x >> v) & 1 == 1)).collect();
        let min = bdd.min_value(&restricted);
        let max = bdd.max_value(&restricted);
        ranges.push((min, max));
        if bdd.num_nodes() > budget {
            return None;
        }
    }
    Some(ranges)
}

/// Little-endian ripple addition of two equal-length plane vectors,
/// modulo `2^n` (the final carry is dropped).
fn ripple_add_mod(bdd: &mut Bdd, a: &[NodeId], b: &[NodeId]) -> Vec<NodeId> {
    debug_assert_eq!(a.len(), b.len());
    let mut carry = FALSE;
    let mut sum = Vec::with_capacity(a.len());
    for (&pa, &pb) in a.iter().zip(b) {
        let axb = bdd.xor(pa, pb);
        sum.push(bdd.xor(axb, carry));
        let gen = bdd.and(pa, pb);
        let prop = bdd.and(axb, carry);
        carry = bdd.or(gen, prop);
    }
    sum
}

/// Extends a plane vector to `n` planes: sign-extension (repeat the top
/// plane) when `signed`, zero-extension otherwise.
fn extend(planes: &[NodeId], n: usize, signed: bool) -> Vec<NodeId> {
    let mut v = planes.to_vec();
    let pad = if signed { *v.last().expect("operands have at least one bit") } else { FALSE };
    v.resize(n, pad);
    v
}

/// `a * b` as `n` output planes, modulo `2^n`: both operands are
/// sign/zero-extended to `n` bits and shift-added row by row — the
/// two's-complement identity `(a * b) mod 2^n = (a_ext * b_ext) mod 2^n`
/// makes one code path serve both signednesses.
fn mul_planes(bdd: &mut Bdd, a: &[NodeId], b: &[NodeId], n: usize, signed: bool) -> Vec<NodeId> {
    let aext = extend(a, n, signed);
    let bext = extend(b, n, signed);
    let mut acc = vec![FALSE; n];
    for (j, &bj) in bext.iter().enumerate() {
        if bj == FALSE {
            continue;
        }
        let row: Vec<NodeId> =
            (0..n).map(|k| if k < j { FALSE } else { bdd.and(aext[k - j], bj) }).collect();
        acc = ripple_add_mod(bdd, &acc, &row);
    }
    acc
}

/// The reference function of a `width`-bit `op` instance rendered
/// directly as plane arithmetic over the given input planes (netlist
/// input layout: `a` in `0..w`, `b` in `w..2w`, `acc` above for MAC).
///
/// This is deliberately *not* built from `apx_arith` netlists — ripple
/// and shift-add on planes is an independent rendering of
/// [`Operator::exact_value`], so proving a seed circuit against it is a
/// genuine cross-implementation check.
fn reference_planes(
    bdd: &mut Bdd,
    op: Operator,
    width: u32,
    signed: bool,
    inputs: &[NodeId],
) -> Vec<NodeId> {
    let w = width as usize;
    let (a, rest) = inputs.split_at(w);
    match op {
        Operator::Mul => mul_planes(bdd, a, rest, 2 * w, signed),
        Operator::Add => {
            let n = w + 1;
            let aext = extend(a, n, signed);
            let bext = extend(rest, n, signed);
            ripple_add_mod(bdd, &aext, &bext)
        }
        Operator::Mac => {
            let n = op.acc_width(width) as usize;
            let (b, acc) = rest.split_at(w);
            let prod = mul_planes(bdd, a, b, n, signed);
            ripple_add_mod(bdd, &prod, acc)
        }
    }
}

/// Statically proves `op.seed_circuit(width, signed)` equivalent to the
/// reference function under the default [`SEMANTIC_NODE_BUDGET`].
#[must_use]
pub fn prove_seed(op: Operator, width: u32, signed: bool) -> Equiv {
    prove_seed_with_budget(op, width, signed, SEMANTIC_NODE_BUDGET)
}

/// [`prove_seed`] under an explicit node budget.
///
/// The proof pins each weighted-operand value `x` and compares the seed
/// circuit's cofactor planes to the reference cofactor (constant ×
/// operand), clearing the manager between values. Monolithic multiplier
/// diagrams are exponential in `width` under any variable order;
/// constant-times-operand cofactors stay polynomial, so this covers the
/// full symbolic width range the seeds are used at — `2^width` small
/// proofs instead of one intractable one. Equivalence of every cofactor
/// is equivalence of the functions.
///
/// # Panics
///
/// Panics if `width` is outside the operator's symbolic range.
#[must_use]
pub fn prove_seed_with_budget(op: Operator, width: u32, signed: bool, budget: usize) -> Equiv {
    assert!(
        op.supports_width(width, EvalBackend::Symbolic),
        "operand width {width} outside {op}'s evaluable range"
    );
    let seed = op.seed_circuit(width, signed);
    let ni = op.num_inputs(width);
    let w = width as usize;
    let free = ni - w;
    let mut bdd = Bdd::new(free as u32);
    for x in 0..(1u64 << width) {
        bdd.clear();
        let inputs: Vec<NodeId> = (0..ni)
            .map(|i| if i < w { Bdd::constant((x >> i) & 1 == 1) } else { bdd.var((i - w) as u32) })
            .collect();
        let Some(planes) = compile(&mut bdd, &seed, &inputs, budget) else {
            return Equiv::Unknown { budget };
        };
        let reference = reference_planes(&mut bdd, op, width, signed, &inputs);
        if bdd.num_nodes() > budget {
            return Equiv::Unknown { budget };
        }
        for (&fs, &fr) in planes.iter().zip(&reference) {
            if fs != fr {
                let miter = bdd.xor(fs, fr);
                let model =
                    bdd.some_model(miter).expect("distinct canonical planes differ somewhere");
                let witness =
                    (0..ni).map(|i| if i < w { (x >> i) & 1 == 1 } else { model[i - w] }).collect();
                return Equiv::Differs { witness };
            }
        }
    }
    Equiv::Equal
}

#[cfg(test)]
mod tests {
    use super::*;
    use apx_gates::GateKind;

    /// Rebuilds a netlist with its gate list re-derived through
    /// `compact()` plus `extra` dead XOR gates appended — same function,
    /// different structure.
    fn with_dead_padding(nl: &Netlist, extra: usize) -> Netlist {
        let ni = nl.num_inputs();
        let mut nodes = nl.nodes().to_vec();
        for k in 0..extra {
            let a = apx_gates::SignalId((k % ni) as u32);
            nodes.push(apx_gates::Node { kind: GateKind::Xor, a, b: a });
        }
        Netlist::new(ni, nodes, nl.outputs().to_vec()).expect("padding preserves validity")
    }

    #[test]
    fn seed_is_equivalent_to_itself_and_to_its_padded_form() {
        for op in Operator::ALL {
            let nl = op.seed_circuit(3, false);
            assert_eq!(prove_equiv(&nl, &nl, op, 3), Equiv::Equal);
            let padded = with_dead_padding(&nl, 7);
            assert_eq!(prove_equiv(&nl, &padded, op, 3), Equiv::Equal, "{op}");
            assert_eq!(functional_digest(&nl), functional_digest(&padded), "{op}");
        }
    }

    #[test]
    fn differs_returns_a_genuine_counterexample() {
        let op = Operator::Add;
        let width = 4u32;
        let exact = op.seed_circuit(width, false);
        let mut outputs = exact.outputs().to_vec();
        // Truncate the LSB to a constant: differs on any odd-sum input.
        let mut nodes = exact.nodes().to_vec();
        let zero = apx_gates::SignalId((exact.num_inputs() + nodes.len()) as u32);
        nodes.push(apx_gates::Node {
            kind: GateKind::Const0,
            a: apx_gates::SignalId(0),
            b: apx_gates::SignalId(0),
        });
        outputs[0] = zero;
        let broken = Netlist::new(exact.num_inputs(), nodes, outputs).unwrap();
        match prove_equiv(&exact, &broken, op, width) {
            Equiv::Differs { witness } => {
                assert_ne!(exact.eval_bool(&witness), broken.eval_bool(&witness));
            }
            other => panic!("expected Differs, got {other:?}"),
        }
        assert_ne!(functional_digest(&exact), functional_digest(&broken));
    }

    #[test]
    fn budget_exhaustion_degrades_to_unknown() {
        let op = Operator::Mul;
        let nl = op.seed_circuit(4, false);
        assert_eq!(prove_equiv_with_budget(&nl, &nl, op, 4, 8), Equiv::Unknown { budget: 8 });
        assert_eq!(functional_digest_with_budget(&nl, 8), None);
        assert_eq!(output_ranges(&nl, op, 4, false, 8), None);
        assert_eq!(prove_seed_with_budget(op, 4, false, 8), Equiv::Unknown { budget: 8 });
    }

    #[test]
    fn output_ranges_match_enumeration() {
        for op in Operator::ALL {
            for signed in [false, true] {
                let width = 2u32;
                let nl = op.seed_circuit(width, signed);
                let ni = op.num_inputs(width);
                let out_bits = op.num_outputs(width) as u32;
                let top = if signed { 1u64 << (out_bits - 1) } else { 0 };
                let ranges = output_ranges(&nl, op, width, signed, SEMANTIC_NODE_BUDGET).unwrap();
                let free = ni - width as usize;
                for (x, &(min, max)) in ranges.iter().enumerate() {
                    let mut want_min = u64::MAX;
                    let mut want_max = 0u64;
                    for f in 0..(1u64 << free) {
                        let mut assign = vec![false; ni];
                        for (i, slot) in assign.iter_mut().enumerate().take(width as usize) {
                            *slot = (x >> i) & 1 == 1;
                        }
                        for (i, slot) in assign.iter_mut().enumerate().skip(width as usize) {
                            *slot = (f >> (i - width as usize)) & 1 == 1;
                        }
                        let out = nl.eval_bool(&assign);
                        let raw: u64 =
                            out.iter().enumerate().map(|(j, &b)| u64::from(b) << j).sum();
                        let biased = raw ^ top;
                        want_min = want_min.min(biased);
                        want_max = want_max.max(biased);
                    }
                    assert_eq!((min, max), (want_min, want_max), "{op} signed={signed} x={x}");
                }
            }
        }
    }

    #[test]
    fn every_seed_proves_at_small_widths() {
        for op in Operator::ALL {
            for signed in [false, true] {
                for width in 1..=3u32 {
                    assert_eq!(
                        prove_seed(op, width, signed),
                        Equiv::Equal,
                        "{op} w={width} signed={signed}"
                    );
                }
            }
        }
    }
}
