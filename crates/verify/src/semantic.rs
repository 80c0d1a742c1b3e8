//! Semantic verification on ROBDD planes: canonical function identity
//! and seed-circuit proofs.
//!
//! The component lint of this crate answers "does this netlist fit its
//! declared component"; this module answers "what function does it
//! compute", using `apx_bdd` as the reasoning engine. Two capabilities:
//!
//! 1. **Canonical functional digest** ([`functional_digest`]): a hash of
//!    the canonically renumbered plane subgraph under the fixed input-
//!    index variable order. Two netlists get the same digest iff they
//!    compute the same output function vector — invariant under wiring
//!    permutation, dead nodes and any gate-level restructuring.
//!    [`class_representatives`] groups netlists into equivalence classes
//!    in two stages: a cheap simulation signature (a few tiles of input
//!    vectors) separates members, and only members whose signatures
//!    collide get an exact key — a hash of a simulation of every input
//!    vector at enumerable widths, this digest past the cap. The
//!    signature can only send members to the exact key, never merge
//!    them, so the classes are those of exact keys alone. The component
//!    library's `dedup_semantic` stage, the cache GC's equivalence-class
//!    collapse and `netlist_lint`'s census all call that one rule.
//!    Diagrams that outgrow the node budget degrade to `None` instead of
//!    blowing up (multiplier BDDs are exponential in operand width under
//!    any variable order); past the cap the signature spares them
//!    wherever it separates.
//! 2. **Seed proofs** ([`prove_seed`]) close the loop on the generators
//!    themselves: every [`Operator::seed_circuit`] is proved equivalent
//!    to an *independent* plane-arithmetic rendering of the reference
//!    function (ripple/shift-add directly on BDD planes, not on
//!    `apx_arith` gate structures). To stay tractable at symbolic-only
//!    widths it pins each weighted-operand value and proves the
//!    `2^width` residual cofactors separately — constant × operand
//!    planes stay polynomial where the monolithic multiplier diagram
//!    explodes. Canonicity makes each comparison a constant-time id
//!    check per output plane; a difference yields a concrete
//!    counterexample input ([`Equiv::Differs`]).
//!
//! # Budget semantics
//!
//! Every entry point takes (or defaults) a node budget checked between
//! gate applications. Exceeding it returns `Unknown`/`None` — never a
//! wrong answer. Callers treat that as "fall back to the structural
//! result", so the budget only trades precision, never soundness.

use crate::exhaustive::{signature, table_hash};
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

/// Verdict of an equivalence proof ([`prove_seed`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Equiv {
    /// The two sides compute identical output function vectors.
    Equal,
    /// The two sides differ; `witness` is one input assignment (netlist
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
/// that compute the same function, however they are wired. The rule
/// decides it in two stages:
///
/// 1. **Signature.** Every member gets a 128-bit simulation signature:
///    its outputs on a fixed handful of input vectors (two tiles of the
///    enumeration and two of a fixed-seed pseudo-random stream). A
///    member whose `(op, width, signed, signature)` no other member
///    shares is its own class. A member whose input count is not its
///    operator's, or whose width is outside the operator's range, is not
///    simulated: it shares a signature with every such member of its
///    component class.
/// 2. **Exact key.** Only members that share a signature get the exact
///    function identity, a 128-bit hash of the full output behaviour: at
///    exhaustively enumerable widths it is simulated on every input
///    vector (no BDD is built), and past the enumeration cap it is the
///    [`functional_digest`]. A member past the cap whose planes outgrow
///    the node budget keeps its structural identity: it is its own
///    class. Members of a class share the signature and the exact key.
///
/// The partition is the one keying every member by its exact key alone
/// would give. Equal functions always share a signature, so they reach
/// the exact stage together and get one key. Members a signature splits
/// compute different functions, which their exact keys would split too:
/// two different functions can merge only if both their signatures and
/// their exact keys collide. The signature only spares exact keys; it
/// never decides a merge.
///
/// The representative is the member `prefer` orders first (`prefer(i,
/// j)` compares members `i` and `j`): members are scanned in input
/// order, and a later member replaces the held one only when it is
/// strictly preferred, so ties keep the earliest.
///
/// A member is its own representative exactly when it survives a
/// collapse of every class to one member, so the number of such members
/// is the number of distinct functions.
#[must_use]
pub fn class_representatives(
    members: &[(Operator, u32, bool, &Netlist)],
    prefer: impl FnMut(usize, usize) -> Ordering,
) -> Vec<usize> {
    classes_and_exact_keys(members, prefer).0
}

/// [`class_representatives`], plus how many exact keys it computed.
fn classes_and_exact_keys(
    members: &[(Operator, u32, bool, &Netlist)],
    mut prefer: impl FnMut(usize, usize) -> Ordering,
) -> (Vec<usize>, usize) {
    /// A component class plus a signature (`None` past the input
    /// arity).
    type Sig = (Operator, u32, bool, Option<u128>);
    let sigs: Vec<Sig> = members
        .iter()
        .map(|&(op, width, signed, nl)| {
            let simulable = op.supports_width(width, EvalBackend::Symbolic)
                && nl.num_inputs() == op.num_inputs(width);
            (op, width, signed, simulable.then(|| signature(nl, op, width)))
        })
        .collect();
    let mut sharers: HashMap<Sig, usize> = HashMap::new();
    for sig in &sigs {
        *sharers.entry(*sig).or_default() += 1;
    }
    let mut exact_keys = 0;
    // `None` marks a member that is its own class: a signature no other
    // member shares, or planes past the node budget.
    let classes: Vec<Option<(Sig, u128)>> = members
        .iter()
        .zip(&sigs)
        .map(|(&(op, width, _, nl), &sig)| {
            if sharers[&sig] == 1 {
                return None;
            }
            exact_keys += 1;
            let key =
                if op.supports_exhaustive_width(width) && nl.num_inputs() == op.num_inputs(width) {
                    Some(table_hash(nl, op, width))
                } else {
                    functional_digest(nl)
                };
            key.map(|k| (sig, k))
        })
        .collect();
    let mut held: HashMap<(Sig, u128), usize> = HashMap::new();
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
    let reps = classes.iter().enumerate().map(|(i, class)| class.map_or(i, |c| held[&c])).collect();
    (reps, exact_keys)
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
    use apx_arith::{
        array_multiplier, broken_array_multiplier, lower_or_adder, ripple_carry_adder,
        truncated_multiplier,
    };
    use apx_cgp::{Chromosome, FunctionSet};
    use apx_gates::{GateKind, NetlistBuilder, SignalId};

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

    /// `nl` re-encoded as a chromosome on a grid `extra` columns wider
    /// and decoded again — same function, a padded gate list.
    fn reencoded(nl: &Netlist, extra: usize) -> Netlist {
        let funcs = FunctionSet::extended();
        Chromosome::from_netlist(nl, &funcs, nl.gate_count() + extra)
            .expect("generated circuits fit the extended function set")
            .decode_full()
    }

    /// `nl` with output 0 flipped on the one input vector `v` (bit `i`
    /// drives input `i`): a different function that agrees with `nl` on
    /// every other vector.
    fn with_flipped_vector(nl: &Netlist, v: u64) -> Netlist {
        let ni = nl.num_inputs();
        let mut b = NetlistBuilder::new(ni);
        let inputs: Vec<SignalId> = (0..ni).map(|i| b.input(i)).collect();
        let mut outs = b.embed(nl, &inputs);
        let mut hit = b.const1();
        for (i, &x) in inputs.iter().enumerate() {
            hit = if (v >> i) & 1 == 1 { b.and(hit, x) } else { b.and_not(hit, x) };
        }
        outs[0] = b.xor(outs[0], hit);
        b.outputs(&outs);
        b.finish().expect("an embedded netlist plus a minterm is valid")
    }

    /// The rule over unsigned members, ties kept by input order, and the
    /// exact keys it computed.
    fn classes(members: &[(Operator, u32, &Netlist)]) -> (Vec<usize>, usize) {
        let members: Vec<_> = members.iter().map(|&(op, w, nl)| (op, w, false, nl)).collect();
        classes_and_exact_keys(&members, |_, _| Ordering::Equal)
    }

    /// Operand values `a`, `b` as a vector in netlist input order.
    fn vector(width: u32, a: u64, b: u64) -> u64 {
        a | b << width
    }

    #[test]
    fn a_wide_multiplier_family_needs_no_exact_key() {
        let family = [
            array_multiplier(12),
            truncated_multiplier(12, 2),
            truncated_multiplier(12, 5),
            truncated_multiplier(12, 9),
            broken_array_multiplier(12, 10, 0),
            broken_array_multiplier(12, 12, 6),
            broken_array_multiplier(12, 8, 4),
        ];
        let members: Vec<_> = family.iter().map(|nl| (Operator::Mul, 12, nl)).collect();
        assert_eq!(classes(&members), ((0..family.len()).collect(), 0));
    }

    #[test]
    fn equal_twins_get_exact_keys_and_share_a_class() {
        // Dead padding and the chromosome round trip keep the function, so
        // each twin shares its original's signature and exact key (the
        // table hash at width 8, the digest past the cap at width 12).
        // The other members' signatures are unique: they get no key.
        let (mul, add) = (truncated_multiplier(8, 3), lower_or_adder(12, 4));
        let pool = [
            (Operator::Mul, 8, mul.clone()),
            (Operator::Mul, 8, array_multiplier(8)),
            (Operator::Mul, 8, with_dead_padding(&mul, 5)),
            (Operator::Add, 12, ripple_carry_adder(12)),
            (Operator::Add, 12, add.clone()),
            (Operator::Mul, 8, reencoded(&mul, 7)),
            (Operator::Add, 12, with_dead_padding(&add, 3)),
            (Operator::Mul, 8, broken_array_multiplier(8, 6, 4)),
            (Operator::Add, 12, reencoded(&add, 9)),
            (Operator::Add, 12, lower_or_adder(12, 2)),
        ];
        let members: Vec<_> = pool.iter().map(|(op, w, nl)| (*op, *w, nl)).collect();
        assert_eq!(classes(&members), (vec![0, 1, 0, 3, 4, 0, 4, 7, 4, 9], 6));
    }

    #[test]
    fn a_near_twin_shares_the_signature_but_not_the_class() {
        // The near-twin differs on one vector that no signature tile
        // covers, so the signatures collide and the exact key separates
        // the two: the table hash at width 8, the digest past the cap.
        let cases = [
            (Operator::Mul, 8, array_multiplier(8), vector(8, 77, 201)),
            (Operator::Add, 12, ripple_carry_adder(12), vector(12, 1234, 3210)),
        ];
        for (op, width, nl, v) in &cases {
            let near = with_flipped_vector(nl, *v);
            assert_eq!(signature(&near, *op, *width), signature(nl, *op, *width), "{op} w{width}");
            assert_eq!(classes(&[(*op, *width, nl), (*op, *width, &near)]), (vec![0, 1], 2));
        }
    }

    #[test]
    #[ignore = "release only: each width-12 array multiplier digest runs ~1 s to the node budget"]
    fn wide_multiplier_twins_past_the_cap() {
        // Past the cap a multiplier's exact key is its BDD digest. A
        // re-encoded twin and a one-vector near-twin share the original's
        // signature, so all three get keys. Where the digest fits (a
        // broken-array multiplier) the twin shares the class and the
        // near-twin does not. The exact array multiplier's planes outgrow
        // the node budget, so each of its three members stays its own
        // class, as when every member is digested.
        for (nl, twin_rep) in [(broken_array_multiplier(12, 6, 0), 0), (array_multiplier(12), 1)] {
            let twin = reencoded(&nl, 5);
            let near = with_flipped_vector(&nl, vector(12, 2741, 1591));
            let sig = |nl| signature(nl, Operator::Mul, 12);
            assert_eq!(sig(&near), sig(&nl), "the near-twin's vector is on no signature tile");
            let members =
                [(Operator::Mul, 12, &nl), (Operator::Mul, 12, &twin), (Operator::Mul, 12, &near)];
            assert_eq!(classes(&members), (vec![0, twin_rep, 2], 3));
        }
    }

    #[test]
    fn seed_is_equivalent_to_itself_and_to_its_padded_form() {
        for op in Operator::ALL {
            let nl = op.seed_circuit(3, false);
            let digest = functional_digest(&nl);
            assert!(digest.is_some(), "{op}: a width-3 seed fits the budget");
            assert_eq!(functional_digest(&nl), digest, "{op}: a fresh manager");
            assert_eq!(functional_digest(&with_dead_padding(&nl, 7)), digest, "{op}");
        }
    }

    #[test]
    fn budget_exhaustion_degrades_to_unknown() {
        let op = Operator::Mul;
        let nl = op.seed_circuit(4, false);
        assert_eq!(functional_digest_with_budget(&nl, 8), None);
        assert_eq!(prove_seed_with_budget(op, 4, false, 8), Equiv::Unknown { budget: 8 });
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
