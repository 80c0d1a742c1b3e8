//! Property-based tests on error-metric invariants.

use apx_arith::{
    baugh_wooley_broken, broken_array_multiplier, truncated_multiplier, OpTable, Operator,
};
use apx_dist::Pmf;
use apx_gates::{GateKind, Netlist, Node, SignalId};
use apx_metrics::{table_stats, CircuitEvaluator, ErrorStats, EvalBackend};
use apx_rng::Xoshiro256;
use proptest::prelude::*;

/// Random multiplier-arity netlist. Operands always point strictly
/// earlier, so validation passes by construction; any node the outputs
/// never reach is dead — the same inactive genetic material CGP's neutral
/// drift accumulates, which the evaluators must tolerate.
fn random_netlist(width: u32, gates: usize, seed: u64) -> Netlist {
    let mut rng = Xoshiro256::from_seed(seed);
    let ni = 2 * width as usize;
    let mut nodes = Vec::with_capacity(gates);
    for k in 0..gates {
        nodes.push(random_node(ni + k, &mut rng));
    }
    let total = ni + gates;
    let outputs = (0..ni).map(|_| SignalId(rng.gen_range(total) as u32)).collect();
    Netlist::new(ni, nodes, outputs).expect("operands always precede consumers")
}

/// Random node whose operands are drawn from the `sigs` earlier signals.
fn random_node(sigs: usize, rng: &mut Xoshiro256) -> Node {
    Node {
        kind: GateKind::ALL[rng.gen_range(GateKind::ALL.len())],
        a: SignalId(rng.gen_range(sigs) as u32),
        b: SignalId(rng.gen_range(sigs) as u32),
    }
}

/// Asserts two [`ErrorStats`] are equal down to the last mantissa bit.
fn assert_stats_identical(a: &ErrorStats, b: &ErrorStats) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.med.to_bits(), b.med.to_bits());
    prop_assert_eq!(a.wmed.to_bits(), b.wmed.to_bits());
    prop_assert_eq!(a.wce.to_bits(), b.wce.to_bits());
    prop_assert_eq!(a.error_rate.to_bits(), b.error_rate.to_bits());
    prop_assert_eq!(a.mred.to_bits(), b.mred.to_bits());
    prop_assert_eq!(a.max_abs_error, b.max_abs_error);
    Ok(())
}

/// Random netlist with `op`'s arity at `width` (same construction as
/// [`random_netlist`], generalized beyond multipliers).
fn random_op_netlist(op: Operator, width: u32, gates: usize, seed: u64) -> Netlist {
    let mut rng = Xoshiro256::from_seed(seed);
    let ni = op.num_inputs(width);
    let no = op.num_outputs(width);
    let mut nodes = Vec::with_capacity(gates);
    for k in 0..gates {
        nodes.push(random_node(ni + k, &mut rng));
    }
    let total = ni + gates;
    let outputs = (0..no).map(|_| SignalId(rng.gen_range(total) as u32)).collect();
    Netlist::new(ni, nodes, outputs).expect("operands always precede consumers")
}

/// A seed-circuit mutant: `mutations` random node rewrites applied to
/// `op`'s exact circuit — the realistic CGP workload (mostly-correct
/// arithmetic structure), as opposed to [`random_op_netlist`]'s garbage
/// logic.
fn mutated_seed(op: Operator, width: u32, signed: bool, mutations: usize, seed: u64) -> Netlist {
    let mut rng = Xoshiro256::from_seed(seed);
    let base = op.seed_circuit(width, signed);
    let ni = base.num_inputs();
    let mut nodes = base.nodes().to_vec();
    for _ in 0..mutations {
        let k = rng.gen_range(nodes.len());
        nodes[k] = random_node(ni + k, &mut rng);
    }
    Netlist::new(ni, nodes, base.outputs().to_vec()).expect("mutation preserves topology")
}

/// The three PMF families the backend-equivalence contract is tested
/// under: uniform, a discretized normal, and a "measured-lumpy" mass
/// with a handful of spikes (the shape real application histograms
/// take — most encodings never occur).
fn pmf_flavor(width: u32, signed: bool, flavor: u8, salt: u64) -> Pmf {
    let n = 1usize << width;
    match flavor % 3 {
        0 => Pmf::uniform(width),
        1 if signed => Pmf::signed_normal(width, 1.0, f64::from(1u32 << (width - 1)) / 2.0),
        1 => Pmf::normal(width, f64::from(1u32 << (width - 1)), f64::from(width)),
        _ => {
            let mut rng = Xoshiro256::from_seed(salt);
            let mut weights = vec![0.0f64; n];
            for _ in 0..4 {
                weights[rng.gen_range(n)] += 1.0 + rng.gen_range(7) as f64;
            }
            Pmf::from_weights(width, weights).expect("spikes guarantee positive mass")
        }
    }
}

/// Random approximate 4-bit multiplier: exact product XOR a bounded
/// perturbation selected by the proptest input.
fn perturbed_table(mask: u8, salt: u64) -> OpTable {
    OpTable::from_fn(4, false, |a, b| {
        let exact = a * b;
        // Deterministic pseudo-random perturbation per entry.
        let h = (a as u64)
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add((b as u64).wrapping_mul(0xBF58476D1CE4E5B9))
            .wrapping_add(salt);
        exact ^ ((h as i64) & (mask as i64))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn wmed_is_bounded_by_wce(mask in 0u8..32, salt in any::<u64>(),
                              weights in proptest::collection::vec(0.0f64..5.0, 16)) {
        prop_assume!(weights.iter().sum::<f64>() > 0.0);
        let pmf = Pmf::from_weights(4, weights).unwrap();
        let approx = perturbed_table(mask, salt);
        let exact = OpTable::exact_mul(4, false);
        let s = table_stats(&approx, &exact, &pmf);
        prop_assert!(s.wmed <= s.wce + 1e-12);
        prop_assert!(s.med <= s.wce + 1e-12);
        prop_assert!(s.wmed >= 0.0 && s.med >= 0.0);
        prop_assert!((0.0..=1.0).contains(&s.error_rate));
    }

    #[test]
    fn zero_error_rate_iff_exact(mask in 0u8..16, salt in any::<u64>()) {
        let approx = perturbed_table(mask, salt);
        let exact = OpTable::exact_mul(4, false);
        let s = table_stats(&approx, &exact, &Pmf::uniform(4));
        prop_assert_eq!(s.error_rate == 0.0, s.max_abs_error == 0);
        prop_assert_eq!(s.med == 0.0, s.max_abs_error == 0);
    }

    #[test]
    fn wmed_is_linear_in_the_distribution(
        mask in 1u8..32,
        salt in any::<u64>(),
        wa in proptest::collection::vec(0.1f64..5.0, 16),
        wb in proptest::collection::vec(0.1f64..5.0, 16),
        t in 0.0f64..=1.0,
    ) {
        // WMED = Σ_x D(x)·row(x) is linear in D, so mixing distributions
        // mixes WMEDs.
        let a = Pmf::from_weights(4, wa).unwrap();
        let b = Pmf::from_weights(4, wb).unwrap();
        let approx = perturbed_table(mask, salt);
        let exact = OpTable::exact_mul(4, false);
        let wmed_a = table_stats(&approx, &exact, &a).wmed;
        let wmed_b = table_stats(&approx, &exact, &b).wmed;
        let wmed_mix = table_stats(&approx, &exact, &a.mix(&b, t)).wmed;
        let expect = (1.0 - t) * wmed_a + t * wmed_b;
        prop_assert!((wmed_mix - expect).abs() < 1e-12,
            "mix {wmed_mix} vs convex {expect}");
    }

    #[test]
    fn netlist_evaluator_agrees_with_tables(trunc in 0u32..8) {
        let nl = apx_arith::truncated_multiplier(4, trunc);
        let pmf = Pmf::half_normal(4, 3.0);
        let eval = CircuitEvaluator::new(4, false, &pmf).unwrap();
        let approx = OpTable::from_netlist(&nl, 4, false).unwrap();
        let exact = OpTable::exact_mul(4, false);
        let expect = table_stats(&approx, &exact, &pmf);
        let got = eval.stats(&nl);
        prop_assert!((got.wmed - expect.wmed).abs() < 1e-12);
        prop_assert!((got.wce - expect.wce).abs() < 1e-12);
        prop_assert!((got.mred - expect.mred).abs() < 1e-9);
    }

    #[test]
    fn bounded_evaluation_never_lies(trunc in 1u32..8, limit_scale in 0.1f64..3.0) {
        let nl = apx_arith::truncated_multiplier(4, trunc);
        let eval = CircuitEvaluator::new(4, false, &Pmf::uniform(4)).unwrap();
        let truth = eval.wmed(&nl);
        let limit = truth * limit_scale;
        match eval.wmed_bounded(&nl, limit) {
            Some(v) => {
                prop_assert!((v - truth).abs() < 1e-12);
                prop_assert!(truth <= limit + 1e-15);
            }
            None => prop_assert!(truth > limit),
        }
    }

    /// The backend seam's core contract: on any netlist — dead nodes,
    /// constant outputs, garbage logic included — the scalar reference and
    /// the bit-parallel engine produce identical `ErrorStats` down to the
    /// last bit, and identical bounded verdicts.
    #[test]
    fn scalar_and_bitpar_stats_bit_identical(
        width in 2u32..=6,
        signed in any::<bool>(),
        gates in 1usize..48,
        seed in any::<u64>(),
        limit_scale in 0.0f64..2.0,
    ) {
        let nl = random_netlist(width, gates, seed);
        let pmf = Pmf::half_normal(width, f64::from(1u32 << (width - 1)));
        let fast =
            CircuitEvaluator::with_backend(width, signed, &pmf, EvalBackend::BitParallel).unwrap();
        let slow = CircuitEvaluator::with_backend(width, signed, &pmf, EvalBackend::Scalar).unwrap();
        assert_stats_identical(&fast.stats(&nl), &slow.stats(&nl))?;
        // Bounded verdicts (feasible value and abort decision alike).
        let limit = limit_scale * fast.stats(&nl).wmed;
        prop_assert_eq!(
            fast.wmed_bounded(&nl, limit).map(f64::to_bits),
            slow.wmed_bounded(&nl, limit).map(f64::to_bits)
        );
    }
}

proptest! {
    // The wide shapes walk up to 2048 positions per step; fewer cases
    // keep the suite fast in debug builds.
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The incremental protocol's core contract: a delta evaluation against
    /// a cached parent state — through arbitrary chains of CGP-shaped
    /// mutations and commits — returns exactly what a from-scratch bounded
    /// evaluation of the child returns, abort decision included.
    ///
    /// The shapes cover the whole chunk walk: `mul` at width 6 fits in the
    /// one-tile chunks (13 error planes), while `mul` and `add` at width 8
    /// (17 and 10 planes) and `mac` at width 4 (10 planes) also run the
    /// growing chunks and a truncated last chunk. Holes in the PMF drop
    /// weighted positions, which leaves tail tiles; every step is also
    /// scored without a limit, so every chunk is walked.
    ///
    /// Like a CGP offspring, a step redraws 1–5 nodes (repeats allowed),
    /// may redirect an output, and may rewire a redrawn node onto a node
    /// that is dead in the base; `spare` appends dead nodes to the base,
    /// as a CGP grid's spare columns do. So dead cone nodes come alive,
    /// and the cone-local neededness and the flags each call clears are
    /// checked against the full pass.
    #[test]
    fn delta_matches_full_over_mutation_chains(
        shape in 0usize..4,
        trunc in 0u32..8,
        signed in any::<bool>(),
        holes in any::<bool>(),
        seed in any::<u64>(),
        limit_scale in 0.0f64..2.0,
        spare in 0usize..24,
        redirect in 0.0f64..0.6,
        revive in 0.0f64..0.6,
    ) {
        let (op, w) =
            [(Operator::Mul, 6u32), (Operator::Mul, 8), (Operator::Add, 8), (Operator::Mac, 4)]
                [shape];
        let ni = op.num_inputs(w);
        let mut rng = Xoshiro256::from_seed(seed);
        let weights: Vec<f64> = Pmf::half_normal(w, 16.0)
            .iter()
            .map(|p| if holes && rng.bernoulli(0.25) { 0.0 } else { p })
            .collect();
        prop_assume!(weights.iter().any(|&p| p > 0.0));
        let pmf = Pmf::from_weights(w, weights).unwrap();
        let eval =
            CircuitEvaluator::for_operator_with_backend(op, w, signed, &pmf, EvalBackend::BitParallel)
                .unwrap();
        let mut base = match op {
            Operator::Mul => apx_arith::truncated_multiplier(w, trunc),
            _ => mutated_seed(op, w, signed, trunc as usize, seed),
        };
        let mut nodes = base.nodes().to_vec();
        for _ in 0..spare {
            nodes.push(random_node(ni + nodes.len(), &mut rng));
        }
        base = Netlist::new(ni, nodes, base.outputs().to_vec()).unwrap();
        let mut state = eval.new_state(&base);
        let limit = limit_scale * (eval.wmed(&base) + 1e-4);
        for _ in 0..12 {
            let active = base.active_mask();
            let dead: Vec<u32> =
                (ni..base.num_signals()).filter(|&s| !active[s]).map(|s| s as u32).collect();
            let mut nodes = base.nodes().to_vec();
            let mut outputs = base.outputs().to_vec();
            let mut changed = Vec::new();
            for _ in 0..1 + rng.gen_range(5) {
                let k = rng.gen_range(base.gate_count());
                let mut node = random_node(ni + k, &mut rng);
                let earlier: Vec<u32> =
                    dead.iter().copied().filter(|&s| (s as usize) < ni + k).collect();
                if let (true, Some(&s)) = (rng.bernoulli(revive), rng.choose(&earlier)) {
                    node.a = SignalId(s);
                }
                nodes[k] = node;
                changed.push(k as u32);
            }
            if rng.bernoulli(redirect) {
                // Onto a redrawn node, a dead one or any signal.
                let j = rng.gen_range(outputs.len());
                let redrawn = ni as u32 + *rng.choose(&changed).unwrap();
                let target = match rng.gen_range(3) {
                    0 => redrawn,
                    1 => rng.choose(&dead).copied().unwrap_or(redrawn),
                    _ => rng.gen_range(base.num_signals()) as u32,
                };
                outputs[j] = SignalId(target);
            }
            let child = Netlist::new(ni, nodes, outputs).unwrap();
            // A superset changed list (extra indices whose definition is
            // unchanged) must be harmless — equality pruning absorbs them.
            if rng.bernoulli(0.3) {
                changed.push(rng.gen_range(base.gate_count()) as u32);
            }
            for limit in [limit, f64::INFINITY] {
                let got = eval.wmed_bounded_delta(&mut state, &child, &changed, limit);
                let want = eval.wmed_bounded(&child, limit);
                prop_assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits), "{op} w{w}");
            }
            if rng.bernoulli(0.5) {
                eval.commit_state(&mut state, &child, &changed);
                base = child;
            }
        }
    }
}

proptest! {
    // The symbolic cases build BDDs per weighted operand value; fewer,
    // fatter cases keep the suite fast in debug builds.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The tentpole contract of the symbolic backend: on every operator,
    /// width, signedness and PMF family the exhaustive backends can reach,
    /// a symbolic evaluator returns the same `ErrorStats`, the same WMED
    /// and the same bounded verdict as the enumeration backends down to
    /// the last mantissa bit — on garbage random netlists and realistic
    /// seed-circuit mutants alike. Its column exercises the ROBDD model
    /// counter only where a weighted row fills whole blocks (`free >= 6`,
    /// WMED and bounded verdicts); full `stats()` and WMED at `free < 6`
    /// read lanes with the bit-parallel simulator on every backend but
    /// `scalar`.
    #[test]
    fn symbolic_is_bit_identical_to_enumeration(
        op_idx in 0usize..3,
        width_raw in 2u32..=8,
        signed in any::<bool>(),
        gates in 1usize..40,
        mutations in 1usize..6,
        seed in any::<u64>(),
        flavor in 0u8..3,
        limit_scale in 0.0f64..2.0,
    ) {
        let op = [Operator::Mul, Operator::Add, Operator::Mac][op_idx];
        // Clamp to the width range *all* backends support (mac: 2..=4).
        let width = width_raw.min(op.max_width(EvalBackend::Scalar));
        let pmf = pmf_flavor(width, signed, flavor, seed);
        let fast =
            CircuitEvaluator::for_operator_with_backend(op, width, signed, &pmf, EvalBackend::BitParallel)
                .unwrap();
        let slow =
            CircuitEvaluator::for_operator_with_backend(op, width, signed, &pmf, EvalBackend::Scalar)
                .unwrap();
        let sym =
            CircuitEvaluator::for_operator_with_backend(op, width, signed, &pmf, EvalBackend::Symbolic)
                .unwrap();
        for nl in [
            random_op_netlist(op, width, gates, seed),
            mutated_seed(op, width, signed, mutations, seed),
        ] {
            let want = fast.wmed(&nl);
            prop_assert_eq!(want.to_bits(), sym.wmed(&nl).to_bits(), "wmed {op} w{width}");
            prop_assert_eq!(want.to_bits(), slow.wmed(&nl).to_bits(), "scalar {op} w{width}");
            let limit = limit_scale * want;
            prop_assert_eq!(
                fast.wmed_bounded(&nl, limit).map(f64::to_bits),
                sym.wmed_bounded(&nl, limit).map(f64::to_bits),
                "bounded {op} w{width}"
            );
            assert_stats_identical(&fast.stats(&nl), &sym.stats(&nl))?;
        }
    }
}

proptest! {
    // Each symbolic width-11 evaluation builds BDDs for every weighted row;
    // few cases and few spikes keep the suite fast in debug builds.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Past the cap the width puts multipliers on the streamed bit-parallel
    /// engine; the symbolic engine is its reference there. On rewritten
    /// seeds under a few-spike PMF both must return the same WMED bits and
    /// the same bounded verdicts, whether a row completes or the streamed
    /// walk aborts inside it.
    #[test]
    fn streamed_wide_wmed_matches_symbolic(
        signed in any::<bool>(),
        mutations in 1usize..6,
        seed in any::<u64>(),
        limit_scale in 0.0f64..2.0,
    ) {
        let (op, width) = (Operator::Mul, 11);
        prop_assert_eq!(op.backend(width), EvalBackend::BitParallel);
        let pmf = pmf_flavor(width, signed, 2, seed);
        let fast = CircuitEvaluator::for_operator(op, width, signed, &pmf).unwrap();
        let sym =
            CircuitEvaluator::for_operator_with_backend(op, width, signed, &pmf, EvalBackend::Symbolic)
                .unwrap();
        let nl = mutated_seed(op, width, signed, mutations, seed);
        let want = sym.wmed(&nl);
        prop_assert_eq!(fast.wmed(&nl).to_bits(), want.to_bits());
        for limit in [limit_scale * want, want, want / 2.0] {
            prop_assert_eq!(
                fast.wmed_bounded(&nl, limit).map(f64::to_bits),
                sym.wmed_bounded(&nl, limit).map(f64::to_bits),
                "bounded at {}", limit
            );
        }
    }
}

/// Appends a `Const0` node and routes output `bit` through it — the
/// canonical one-bit truncation (bit 0's WMED has a closed form).
fn zero_output_bit(nl: &Netlist, bit: usize) -> Netlist {
    let ni = nl.num_inputs();
    let mut nodes = nl.nodes().to_vec();
    let zero = SignalId((ni + nodes.len()) as u32);
    nodes.push(Node { kind: GateKind::Const0, a: SignalId(0), b: SignalId(0) });
    let mut outputs = nl.outputs().to_vec();
    outputs[bit] = zero;
    Netlist::new(ni, nodes, outputs).expect("appending a node preserves validity")
}

/// Width-12 multipliers: far beyond the exhaustive backends (a 2^24-vector
/// domain), exactly scored by the symbolic engine. The exact seed must
/// come back 0.0; zeroing output bit 0 of the product loses exactly 1
/// whenever `x0 ∧ y0`. With the distribution mass split evenly between
/// `x = 1` (odd: bit-0 errors on the `2^11` odd `y`) and `x = 2` (even:
/// never errs), the closed-form WMED is `0.5 · 2^11 / (2^12 · 2^24) =
/// 2^-26` — dyadic, hence f64-exact. The two-spike PMF keeps this variant
/// fast enough for debug builds (the engine only visits weighted rows);
/// [`symbolic_wide_multiplier_uniform_full_pass`] covers the full domain.
#[test]
fn symbolic_wide_multiplier_matches_closed_form() {
    let mut weights = vec![0.0f64; 1 << 12];
    weights[1] = 1.0;
    weights[2] = 1.0;
    let pmf = Pmf::from_weights(12, weights).unwrap();
    let eval = CircuitEvaluator::with_backend(12, false, &pmf, EvalBackend::Symbolic).unwrap();
    let seed = Operator::Mul.seed_circuit(12, false);
    assert_eq!(eval.wmed(&seed), 0.0);
    let truncated = zero_output_bit(&seed, 0);
    let expect = (0.25f64) / (1u64 << 24) as f64;
    assert_eq!(eval.wmed(&truncated).to_bits(), expect.to_bits());
    // The bounded analogue aborts below the closed form and completes
    // above it.
    assert_eq!(eval.wmed_bounded(&truncated, expect / 2.0), None);
    assert_eq!(
        eval.wmed_bounded(&truncated, expect * 2.0).map(f64::to_bits),
        Some(expect.to_bits())
    );
}

/// The full-domain version: uniform PMF (every one of the 4096 operand
/// values weighted) and the complete wide-statistics pass. Runs in
/// release only — a debug build spends minutes rebuilding the 12×12
/// multiplier's BDDs 4096 times over.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow without optimizations; CI runs it in the step \
              `cargo test --release -p apx_metrics --test prop_metrics symbolic_wide`"
)]
fn symbolic_wide_multiplier_uniform_full_pass() {
    let pmf = Pmf::uniform(12);
    let eval = CircuitEvaluator::with_backend(12, false, &pmf, EvalBackend::Symbolic).unwrap();
    let truncated = zero_output_bit(&Operator::Mul.seed_circuit(12, false), 0);
    let expect = (0.25f64) / (1u64 << 24) as f64;
    assert_eq!(eval.wmed(&truncated).to_bits(), expect.to_bits());
    let stats = eval.stats(&truncated);
    assert_eq!(stats.wmed.to_bits(), expect.to_bits());
    assert_eq!(stats.max_abs_error, 1);
    assert_eq!(stats.error_rate, 0.25);
    assert!(stats.mred.is_nan(), "mred is NaN on the wide-stats path");
}

/// The full-domain `stats()` walk past the cap on both wide engines: the
/// streamed bit-parallel one (which the width picks for multipliers) and
/// the symbolic reference. Truncated, zeroed-bit and broken multipliers at
/// width 11 (signed and unsigned) and width 12, under a non-dyadic PMF,
/// must give the same statistics bit for bit (`mred` is `NaN` on both).
/// Release only: the symbolic side takes seconds per candidate optimized.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow without optimizations; CI runs it in the step \
              `cargo test --release -p apx_metrics --test prop_metrics symbolic_wide`"
)]
fn symbolic_wide_stats_match_streamed_bitpar() {
    for (width, signed) in [(11u32, false), (11, true), (12, false)] {
        let (op, half) = (Operator::Mul, f64::from(1u32 << (width - 1)));
        let (pmf, candidates) = if signed {
            let seed = op.seed_circuit(width, true);
            (
                Pmf::signed_normal(width, 1.0, half / 4.0),
                [
                    baugh_wooley_broken(width, width, width - 3),
                    zero_output_bit(&seed, width as usize),
                    baugh_wooley_broken(width, width - 3, 4),
                ],
            )
        } else {
            let seed = op.seed_circuit(width, false);
            (
                Pmf::half_normal(width, half / 3.0),
                [
                    truncated_multiplier(width, width - 3),
                    zero_output_bit(&seed, width as usize),
                    broken_array_multiplier(width, width - 3, 4),
                ],
            )
        };
        let fast = CircuitEvaluator::for_operator(op, width, signed, &pmf).unwrap();
        assert_eq!(fast.backend(), EvalBackend::BitParallel);
        let sym = CircuitEvaluator::for_operator_with_backend(
            op,
            width,
            signed,
            &pmf,
            EvalBackend::Symbolic,
        )
        .unwrap();
        let want = sym.stats_batch(&candidates, candidates.len());
        for (i, (got, want)) in fast.stats_batch(&candidates, 1).iter().zip(&want).enumerate() {
            let at = format!("w{width} signed={signed} candidate {i}");
            assert!(want.max_abs_error > 1, "{at}: trivial candidate");
            assert_eq!(got.med.to_bits(), want.med.to_bits(), "{at}: med");
            assert_eq!(got.wmed.to_bits(), want.wmed.to_bits(), "{at}: wmed");
            assert_eq!(got.wce.to_bits(), want.wce.to_bits(), "{at}: wce");
            assert_eq!(got.error_rate.to_bits(), want.error_rate.to_bits(), "{at}: er");
            assert_eq!(got.max_abs_error, want.max_abs_error, "{at}: max_abs_error");
            assert!(got.mred.is_nan() && want.mred.is_nan(), "{at}: mred");
        }
    }
}

/// Same closed form for the adder: output bit 0 of `x + y` is `x0 ⊕ y0`,
/// set on half of all pairs, so zeroing it gives WMED `(1/2) / 2^13 =
/// 2^-14` at width 12 under a uniform PMF.
#[test]
fn symbolic_wide_adder_matches_closed_form() {
    let op = Operator::Add;
    let pmf = Pmf::uniform(12);
    let eval =
        CircuitEvaluator::for_operator_with_backend(op, 12, false, &pmf, EvalBackend::Symbolic)
            .unwrap();
    let seed = op.seed_circuit(12, false);
    assert_eq!(eval.wmed(&seed), 0.0);
    let truncated = zero_output_bit(&seed, 0);
    let expect = 0.5f64 / (1u64 << 13) as f64;
    assert_eq!(eval.wmed(&truncated).to_bits(), expect.to_bits());
    let stats = eval.stats(&truncated);
    assert_eq!(stats.wmed.to_bits(), expect.to_bits());
    assert_eq!(stats.max_abs_error, 1);
    assert_eq!(stats.error_rate, 0.5);
    assert!(stats.mred.is_nan(), "mred is NaN on the wide-stats path");
}

/// The 8-bit MAC (33 netlist inputs — the widest evaluable point of the
/// whole system) scores its own seed as exactly zero error.
#[test]
fn symbolic_eight_bit_mac_seed_is_exact() {
    let op = Operator::Mac;
    let pmf = Pmf::half_normal(8, 48.0);
    let eval =
        CircuitEvaluator::for_operator_with_backend(op, 8, false, &pmf, EvalBackend::Symbolic)
            .unwrap();
    let seed = op.seed_circuit(8, false);
    assert_eq!(eval.wmed(&seed), 0.0);
}
