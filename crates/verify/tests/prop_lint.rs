//! Property-based contract: every netlist the pipeline itself produces —
//! arithmetic generators, random CGP genomes, mutation chains, operator
//! seed circuits — passes the lint with zero errors.

use apx_arith::Operator;
use apx_cgp::{mutate, Chromosome, FunctionSet};
use apx_rng::Xoshiro256;
use apx_verify::{has_errors, lint_component, lint_netlist, structural_hash};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_chromosomes_pass_every_lint_pass(
        seed in any::<u64>(),
        ni in 2usize..=6,
        no in 1usize..=4,
        cols in 4usize..=40,
        extended in any::<bool>(),
    ) {
        let funcs = if extended { FunctionSet::extended() } else { FunctionSet::standard() };
        let mut rng = Xoshiro256::from_seed(seed);
        let c = Chromosome::random(ni, no, cols, &funcs, &mut rng);
        prop_assert!(c.is_valid());
        prop_assert!(!has_errors(&lint_netlist(&c.decode_full())));
        prop_assert!(!has_errors(&lint_netlist(&c.decode_active())));
    }

    #[test]
    fn mutation_chains_never_break_the_lint(
        seed in any::<u64>(),
        steps in 1usize..=60,
        h in 1usize..=4,
    ) {
        let funcs = FunctionSet::standard();
        let mut rng = Xoshiro256::from_seed(seed);
        let mut c = Chromosome::random(4, 3, 30, &funcs, &mut rng);
        for _ in 0..steps {
            mutate(&mut c, h, &mut rng);
            prop_assert!(c.is_valid());
            prop_assert!(!has_errors(&lint_netlist(&c.decode_active())));
        }
    }

    #[test]
    fn structural_hash_is_stable_under_dead_gene_padding(
        seed in any::<u64>(),
        extra_cols in 0usize..=20,
    ) {
        // Re-encoding a netlist on a wider grid only adds dead padding:
        // the hash (the library's dedup identity) must not change.
        let funcs = FunctionSet::standard();
        let mut rng = Xoshiro256::from_seed(seed);
        let c = Chromosome::random(4, 3, 15, &funcs, &mut rng);
        let active = c.decode_active();
        let wider = Chromosome::from_netlist(&active, &funcs, active.gate_count() + extra_cols);
        prop_assume!(active.gate_count() > 0);
        let wider = wider.unwrap();
        prop_assert_eq!(structural_hash(&active), structural_hash(&wider.decode_active()));
        prop_assert_eq!(structural_hash(&active), structural_hash(&wider.decode_full()));
    }
}

#[test]
fn every_generator_netlist_is_component_clean() {
    // The operator seed circuits and the conventional approximations all
    // satisfy their declared component contract with zero errors.
    for op in Operator::ALL {
        for signed in [false, true] {
            for width in 2..=4u32 {
                if !op.supports_exhaustive_width(width) {
                    continue;
                }
                let nl = op.seed_circuit(width, signed);
                let diags = lint_component(&nl, op, width);
                assert!(!has_errors(&diags), "{op} w={width} signed={signed}: {diags:?}");
            }
        }
    }
    for w in 2..=6u32 {
        assert!(!has_errors(&lint_component(&apx_arith::array_multiplier(w), Operator::Mul, w)));
        for k in 1..w {
            assert!(!has_errors(&lint_component(
                &apx_arith::truncated_multiplier(w, k),
                Operator::Mul,
                w
            )));
        }
    }
}
