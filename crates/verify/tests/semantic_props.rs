//! Property-based contract of the semantic layer: `functional_digest`
//! must be invariant under dead-node padding and gate reordering on
//! every netlist the pipeline can produce — all three operators, widths
//! 2–6 (where enumeration stays tractable), both signednesses — and
//! `class_representatives`, which separates members by a simulation
//! signature and keys only colliding ones exactly (a simulated table
//! hash at enumerable widths, the digest past the cap), must return
//! exactly the classes of digesting every member (so the digest
//! separates exactly the functions the truth tables separate, and the
//! signature never changes a class).

use apx_arith::Operator;
use apx_cgp::{Chromosome, FunctionSet};
use apx_gates::{GateKind, Netlist, Node, SignalId};
use apx_rng::Xoshiro256;
use apx_verify::{class_representatives, functional_digest};
use proptest::prelude::*;
use std::cmp::Ordering;
use std::collections::HashMap;

/// The full truth table of a netlist: one output-word row per input
/// assignment, in assignment order.
fn truth_table(nl: &Netlist) -> Vec<u64> {
    let ni = nl.num_inputs();
    assert!(ni <= 16, "truth tables are only enumerable at small arity");
    (0..(1u64 << ni))
        .map(|x| {
            let assign: Vec<bool> = (0..ni).map(|i| (x >> i) & 1 == 1).collect();
            nl.eval_bool(&assign).iter().enumerate().map(|(j, &b)| u64::from(b) << j).sum()
        })
        .collect()
}

/// A random CGP netlist with the operator's component arity.
fn random_component(op: Operator, width: u32, seed: u64) -> Netlist {
    let mut rng = Xoshiro256::from_seed(seed);
    let c = Chromosome::random(
        op.num_inputs(width),
        op.num_outputs(width),
        24,
        &FunctionSet::extended(),
        &mut rng,
    );
    c.decode_active()
}

/// `nl` with `extra` dead gates appended — same function, different
/// structure.
fn with_dead_padding(nl: &Netlist, extra: usize) -> Netlist {
    let ni = nl.num_inputs();
    let mut nodes = nl.nodes().to_vec();
    for k in 0..extra {
        let a = SignalId((k % ni) as u32);
        nodes.push(Node { kind: GateKind::Xor, a, b: a });
    }
    Netlist::new(ni, nodes, nl.outputs().to_vec()).expect("padding preserves validity")
}

/// Re-derives `nl` through a chromosome re-encoding on a wider grid —
/// the library's own normalization path, which renumbers gates. The
/// function is untouched; the gate list is reordered/padded.
fn reencoded(nl: &Netlist, extra_cols: usize) -> Option<Netlist> {
    let funcs = FunctionSet::extended();
    let c = Chromosome::from_netlist(nl, &funcs, nl.gate_count() + extra_cols).ok()?;
    Some(c.decode_full())
}

/// The `(op, width)` grid with enumerable truth tables (≤ 14 input
/// bits): `Mul`/`Add` at widths 2–6, `Mac` at 2–3.
fn enumerable_grid() -> Vec<(Operator, u32)> {
    let mut grid = Vec::new();
    for op in Operator::ALL {
        for width in 2..=6u32 {
            if op.num_inputs(width) <= 14 {
                grid.push((op, width));
            }
        }
    }
    grid
}

/// `nl` with one gate's function swapped for another — often, but not
/// always, a different function.
fn single_gate_mutation(nl: &Netlist, rng: &mut Xoshiro256) -> Netlist {
    let mut nodes = nl.nodes().to_vec();
    if let Some(node) = nodes.get_mut(rng.gen_range(nl.gate_count().max(1))) {
        let kinds = GateKind::ALL.len();
        let at = GateKind::ALL.iter().position(|&k| k == node.kind).expect("a known kind");
        node.kind = GateKind::ALL[(at + 1 + rng.gen_range(kinds - 1)) % kinds];
    }
    Netlist::new(nl.num_inputs(), nodes, nl.outputs().to_vec()).expect("same wiring stays valid")
}

/// The equivalence-class rule with every member digested — the
/// reference `class_representatives` must reproduce.
fn digest_every_member(
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

/// Both class rules over `members`, preferring fewer gates, then the
/// earlier member.
fn both_rules(members: &[(Operator, u32, bool, &Netlist)]) -> (Vec<usize>, Vec<usize>) {
    let prefer = |i: usize, j: usize| {
        members[i].3.gate_count().cmp(&members[j].3.gate_count()).then(i.cmp(&j))
    };
    (class_representatives(members, prefer), digest_every_member(members, prefer))
}

#[test]
fn past_the_cap_the_rule_equals_digesting_every_member() {
    // Width-11 multipliers are past the enumeration cap: no table hash,
    // so members whose signatures collide are digested, and the rule must
    // give the digest rule's classes, padded copies collapsing onto their
    // originals.
    let (op, width) = (Operator::Mul, 11);
    assert!(!op.supports_exhaustive_width(width));
    let mut pool = Vec::new();
    for seed in 0..3u64 {
        let nl = random_component(op, width, seed);
        pool.push(with_dead_padding(&nl, 3));
        pool.push(nl);
    }
    let members: Vec<_> = pool.iter().map(|nl| (op, width, false, nl)).collect();
    let (got, want) = both_rules(&members);
    assert_eq!(got, want);
    assert!(got.iter().enumerate().any(|(i, &rep)| rep != i), "padded copies share a class");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn digest_is_invariant_under_padding_and_reordering(
        seed in any::<u64>(),
        extra in 1usize..=12,
    ) {
        // Dead-node padding and the chromosome re-encoding round trip
        // (which renumbers and pads the gate list) must never move the
        // digest; truth tables confirm the function really is unchanged.
        for (op, width) in enumerable_grid() {
            let nl = random_component(op, width, seed ^ u64::from(width));
            let digest = functional_digest(&nl);
            prop_assert!(digest.is_some(), "{op} w{width}: tiny netlists fit the budget");
            let padded = with_dead_padding(&nl, extra);
            prop_assert_eq!(truth_table(&nl), truth_table(&padded));
            prop_assert_eq!(functional_digest(&padded), digest, "{} w{}: padding", op, width);
            if let Some(re) = reencoded(&nl, extra) {
                prop_assert_eq!(truth_table(&nl), truth_table(&re));
                prop_assert_eq!(functional_digest(&re), digest, "{} w{}: re-encoding", op, width);
            }
        }
    }

    #[test]
    fn table_hash_classes_equal_the_digest_rule_classes(seed in any::<u64>()) {
        // One shuffled list over every operator at widths 2–8, plus `Add`
        // at width 11, past the cap, where colliding signatures are
        // confirmed by (cheap) adder digests: random components mixed with
        // same-function copies (dead padding, the re-encoding round trip),
        // a copy under the other signedness and single-gate mutants. Each
        // copy is a coin flip, so a function occurs once, twice or more,
        // in one component class or under both signednesses.
        let mut rng = Xoshiro256::from_seed(seed);
        let mut pool: Vec<(Operator, u32, bool, Netlist)> = Vec::new();
        for op in Operator::ALL {
            let wide = (op == Operator::Add).then_some(11);
            for width in (2..=8u32).filter(|&w| op.supports_exhaustive_width(w)).chain(wide) {
                for _ in 0..3 {
                    let signed = rng.next_u64() % 2 == 1;
                    let nl = random_component(op, width, rng.next_u64());
                    if rng.next_u64() % 2 == 1 {
                        let padded = with_dead_padding(&nl, 1 + rng.gen_range(4));
                        pool.push((op, width, signed, padded));
                    }
                    if rng.next_u64() % 2 == 1 {
                        if let Some(re) = reencoded(&nl, 1 + rng.gen_range(6)) {
                            pool.push((op, width, signed, re));
                        }
                    }
                    if rng.next_u64() % 2 == 1 {
                        pool.push((op, width, !signed, nl.clone()));
                    }
                    if rng.next_u64() % 2 == 1 {
                        pool.push((op, width, signed, single_gate_mutation(&nl, &mut rng)));
                    }
                    pool.push((op, width, signed, nl));
                }
            }
        }
        rng.shuffle(&mut pool);
        let members: Vec<_> = pool.iter().map(|(op, w, s, nl)| (*op, *w, *s, nl)).collect();
        let (got, want) = both_rules(&members);
        prop_assert_eq!(got, want);
    }
}
