//! Cross-validation of the static WMED brackets against the exhaustive
//! evaluator: on every `(operator, width, signedness, distribution)`
//! cell of the grid, the bracket must contain the evaluator's reported
//! WMED bit-for-bit-as-computed — for exact seeds, conventional
//! approximations, random CGP circuits and degenerate constants alike.

use apx_arith::Operator;
use apx_cgp::{Chromosome, FunctionSet};
use apx_dist::Pmf;
use apx_gates::{Netlist, NetlistBuilder};
use apx_metrics::CircuitEvaluator;
use apx_rng::Xoshiro256;
use apx_verify::wmed_bounds;

/// A constant-zero netlist with the operator's exact arity.
fn constant_zero(op: Operator, width: u32) -> Netlist {
    let mut b = NetlistBuilder::new(op.num_inputs(width));
    let zero = b.const0();
    b.outputs(&vec![zero; op.num_outputs(width)]);
    b.finish().unwrap()
}

/// The candidate pool for one grid cell: exact seed, constants, random
/// CGP phenotypes, plus the conventional approximations where the
/// encoding has a family.
fn candidates(op: Operator, width: u32, signed: bool) -> Vec<Netlist> {
    let mut pool = vec![op.seed_circuit(width, signed), constant_zero(op, width)];
    let funcs = FunctionSet::extended();
    for seed in 0..4u64 {
        let mut rng = Xoshiro256::from_seed(0xB0D5 ^ seed ^ (u64::from(width) << 32));
        let c =
            Chromosome::random(op.num_inputs(width), op.num_outputs(width), 30, &funcs, &mut rng);
        pool.push(c.decode_active());
    }
    if op == Operator::Mul && !signed {
        for k in 1..width.min(4) {
            pool.push(apx_arith::truncated_multiplier(width, k));
        }
        if width >= 3 {
            pool.push(apx_arith::broken_array_multiplier(width, width, width));
        }
    }
    if op == Operator::Add && !signed {
        for k in 1..width {
            pool.push(apx_arith::lower_or_adder(width, k));
            pool.push(apx_arith::truncated_adder(width, k));
        }
    }
    pool
}

#[test]
fn brackets_contain_the_exhaustive_wmed_across_the_grid() {
    for op in Operator::ALL {
        // Plus the width the library tier's bound pass runs at: 8-bit
        // multipliers, also under the `library_reuse` benchmark's PMF.
        for width in (2..=6u32).chain((op == Operator::Mul).then_some(8)) {
            if !op.supports_exhaustive_width(width) {
                continue;
            }
            for signed in [false, true] {
                let mut pmfs =
                    vec![Pmf::uniform(width), Pmf::half_normal(width, f64::from(width) * 1.5)];
                if width == 8 {
                    pmfs.push(Pmf::normal(8, 64.0, 16.0));
                }
                for pmf in &pmfs {
                    let evaluator = CircuitEvaluator::for_operator(op, width, signed, pmf).unwrap();
                    for (i, nl) in candidates(op, width, signed).iter().enumerate() {
                        let wmed = evaluator.stats(nl).wmed;
                        let bounds = wmed_bounds(nl, op, width, signed, pmf);
                        assert!(
                            bounds.wmed_lo <= bounds.wmed_hi,
                            "{op} w={width} signed={signed} cand={i}: inverted {bounds:?}"
                        );
                        assert!(
                            bounds.contains(wmed),
                            "{op} w={width} signed={signed} cand={i}: \
                             wmed {wmed} outside {bounds:?}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn brackets_contain_the_wmed_under_measured_distributions() {
    // A lumpy measured PMF (many zero-weight operands) exercises the
    // weight-skipping fast path.
    let samples: Vec<i64> = (0..200).map(|i| i64::from(i % 5)).collect();
    let pmf = Pmf::from_samples_i64(4, &samples, false).unwrap();
    let op = Operator::Mul;
    let evaluator = CircuitEvaluator::for_operator(op, 4, false, &pmf).unwrap();
    for nl in candidates(op, 4, false) {
        let wmed = evaluator.stats(&nl).wmed;
        let bounds = wmed_bounds(&nl, op, 4, false, &pmf);
        assert!(bounds.contains(wmed), "wmed {wmed} outside {bounds:?}");
    }
}

#[test]
fn tight_brackets_separate_clearly_different_candidates() {
    // The pruning use case: a candidate whose *lower* bound exceeds
    // another's *upper* bound is provably worse — check the brackets are
    // tight enough to make that separation on constant circuits.
    let op = Operator::Mul;
    let width = 4u32;
    let pmf = Pmf::uniform(width);
    let zero = constant_zero(op, width);
    let mut b = NetlistBuilder::new(op.num_inputs(width));
    let one = b.const1();
    b.outputs(&vec![one; op.num_outputs(width)]);
    let ones = b.finish().unwrap();

    let bz = wmed_bounds(&zero, op, width, false, &pmf);
    let bo = wmed_bounds(&ones, op, width, false, &pmf);
    assert!(
        bz.wmed_hi < bo.wmed_lo,
        "all-ones must be provably worse than all-zeros under uniform inputs: {bz:?} vs {bo:?}"
    );
}
