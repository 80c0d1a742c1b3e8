//! Property-based tests on the operator-generic evaluator: adder and MAC
//! scoring checked against independent functional golden models
//! ([`apx_arith::adders_approx::loa_model`],
//! [`apx_arith::adders_approx::truncated_adder_model`],
//! [`apx_arith::mac::mac_model`]), on both evaluation backends.

use apx_arith::adders_approx::{loa_model, truncated_adder_model};
use apx_arith::mac::{mac_model, mac_unit};
use apx_arith::{
    baugh_wooley_broken, lower_or_adder, sign_extend, truncated_adder, truncated_multiplier,
    OpTable, Operator,
};
use apx_dist::Pmf;
use apx_gates::{GateKind, Netlist, Node, SignalId};
use apx_metrics::{CircuitEvaluator, ErrorMatrix, ErrorStats, EvalBackend};
use apx_rng::Xoshiro256;
use proptest::prelude::*;

/// Random netlist of arbitrary arity (cf. `prop_metrics::random_netlist`,
/// which is fixed to multiplier arity). Operands always point strictly
/// earlier, so validation passes by construction; unreachable nodes are
/// the inactive genetic material the evaluators must tolerate.
fn random_netlist(ni: usize, no: usize, gates: usize, seed: u64) -> Netlist {
    let mut rng = Xoshiro256::from_seed(seed);
    let mut nodes = Vec::with_capacity(gates);
    for k in 0..gates {
        nodes.push(random_node(ni + k, &mut rng));
    }
    let total = ni + gates;
    let outputs = (0..no).map(|_| SignalId(rng.gen_range(total) as u32)).collect();
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

/// Asserts two error matrices are equal cell for cell, to the last bit.
fn assert_matrices_identical(
    a: &ErrorMatrix,
    b: &ErrorMatrix,
    at: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.n(), b.n(), "{}", at);
    for x in 0..a.n() {
        for y in 0..a.n() {
            prop_assert_eq!(
                a.get(x, y).to_bits(),
                b.get(x, y).to_bits(),
                "{} cell ({}, {})",
                at,
                x,
                y
            );
        }
    }
    Ok(())
}

/// Evaluators for one operator instance on both backends.
fn both_backends(
    op: Operator,
    width: u32,
    signed: bool,
    pmf: &Pmf,
) -> (CircuitEvaluator, CircuitEvaluator) {
    let fast = CircuitEvaluator::for_operator_with_backend(
        op,
        width,
        signed,
        pmf,
        EvalBackend::BitParallel,
    )
    .unwrap();
    let slow =
        CircuitEvaluator::for_operator_with_backend(op, width, signed, pmf, EvalBackend::Scalar)
            .unwrap();
    (fast, slow)
}

/// Reference WMED of an unsigned `width`-bit adder given its functional
/// model, computed straight from the definition:
/// `Σ_a D(a) · Σ_b |(a+b) − model(a,b)| / (2^w · 2^(w+1))`.
fn adder_wmed(width: u32, pmf: &Pmf, model: impl Fn(u64, u64) -> u64) -> f64 {
    let n = 1u64 << width;
    let norm = f64::from(1u32 << width) * f64::from(1u32 << (width + 1));
    let mut wmed = 0.0;
    for a in 0..n {
        let mut row = 0u64;
        for b in 0..n {
            row += (a + b).abs_diff(model(a, b));
        }
        wmed += pmf.prob(a as usize) * row as f64;
    }
    wmed / norm
}

/// Reference WMED of a `width`-bit MAC built around the multiplier behind
/// `table`, brute-forced over the full `a × b × acc` grid via
/// [`mac_model`]. The exact reference is computed independently as the
/// wrap-around `acc + a·b` in `n = 2w + 1` accumulator bits.
fn mac_wmed(table: &OpTable, width: u32, signed: bool, pmf: &Pmf) -> f64 {
    let n = 2 * width + 1;
    let mask_n = (1u64 << n) - 1;
    let na = 1u64 << width;
    let interp = |raw: u64, bits: u32| if signed { sign_extend(raw, bits) } else { raw as i64 };
    // free = ni − w = (2w + n) − w = 3w + 1 enumeration bits besides `a`.
    let norm = (1u64 << (3 * width + 1)) as f64 * (1u64 << n) as f64;
    let mut wmed = 0.0;
    for a_raw in 0..na {
        let a = interp(a_raw, width);
        let mut row = 0u64;
        for b_raw in 0..na {
            let b = interp(b_raw, width);
            for acc_raw in 0..=mask_n {
                let acc = interp(acc_raw, n);
                let exact = interp(acc.wrapping_add(a * b) as u64 & mask_n, n);
                row += exact.abs_diff(mac_model(table, a, b, acc, n));
            }
        }
        wmed += pmf.prob(a_raw as usize) * row as f64;
    }
    wmed / norm
}

/// Every operator's exact seed circuit scores a perfect zero on both
/// backends, signed and unsigned — the invariant seeded evolution and the
/// library's `Family::Exact` entries stand on.
#[test]
fn exact_seeds_score_zero_on_both_backends() {
    for op in Operator::ALL {
        for signed in [false, true] {
            for width in 2..=4u32 {
                let pmf = Pmf::half_normal(width, f64::from(1u32 << (width - 1)));
                let seed = op.seed_circuit(width, signed);
                let (fast, slow) = both_backends(op, width, signed, &pmf);
                for (name, eval) in [("bitpar", &fast), ("scalar", &slow)] {
                    let s = eval.stats(&seed);
                    assert_eq!(s.max_abs_error, 0, "{op} w={width} signed={signed} {name}");
                    assert_eq!(s.wmed, 0.0, "{op} w={width} signed={signed} {name}");
                    assert_eq!(s.error_rate, 0.0, "{op} w={width} signed={signed} {name}");
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The adder evaluator agrees with the LOA golden model on the full
    /// `k` ladder, both backends, to within float round-off.
    #[test]
    fn adder_evaluator_matches_the_loa_golden_model(
        width in 2u32..=6,
        k_sel in 0u32..16,
        scale in 0.5f64..4.0,
    ) {
        let k = k_sel % (width + 1);
        let pmf = Pmf::half_normal(width, scale * f64::from(width));
        let expect = adder_wmed(width, &pmf, |a, b| loa_model(width, k, a, b));
        let nl = lower_or_adder(width, k);
        let (fast, slow) = both_backends(Operator::Add, width, false, &pmf);
        let got = fast.wmed(&nl);
        prop_assert!((got - expect).abs() < 1e-12, "w={width} k={k}: {got} vs {expect}");
        prop_assert_eq!(got.to_bits(), slow.wmed(&nl).to_bits());
        assert_stats_identical(&fast.stats(&nl), &slow.stats(&nl))?;
    }

    /// Same contract for the truncated-adder golden model; `k == 0` must
    /// score an exact zero.
    #[test]
    fn adder_evaluator_matches_the_truncated_golden_model(
        width in 2u32..=6,
        k_sel in 0u32..16,
        scale in 0.5f64..4.0,
    ) {
        let k = k_sel % (width + 1);
        let pmf = Pmf::half_normal(width, scale * f64::from(width));
        let expect = adder_wmed(width, &pmf, |a, b| truncated_adder_model(k, a, b));
        let nl = truncated_adder(width, k);
        let (fast, slow) = both_backends(Operator::Add, width, false, &pmf);
        let got = fast.wmed(&nl);
        prop_assert!((got - expect).abs() < 1e-12, "w={width} k={k}: {got} vs {expect}");
        if k == 0 {
            prop_assert_eq!(got, 0.0);
        }
        prop_assert_eq!(got.to_bits(), slow.wmed(&nl).to_bits());
    }

    /// The MAC evaluator agrees with a brute-force [`mac_model`] sweep for
    /// an unsigned MAC built around a truncated multiplier.
    #[test]
    fn mac_evaluator_matches_the_golden_model(
        width in 2u32..=3,
        trunc_sel in 0u32..16,
        scale in 0.5f64..4.0,
    ) {
        let trunc = trunc_sel % (2 * width + 1);
        let n = Operator::Mac.acc_width(width);
        let pmf = Pmf::half_normal(width, scale * f64::from(width));
        let mul = truncated_multiplier(width, trunc);
        let table = OpTable::from_netlist(&mul, width, false).unwrap();
        let expect = mac_wmed(&table, width, false, &pmf);
        let mac = mac_unit(&mul, width, n, false);
        let (fast, slow) = both_backends(Operator::Mac, width, false, &pmf);
        let got = fast.wmed(&mac);
        prop_assert!((got - expect).abs() < 1e-12, "w={width} trunc={trunc}: {got} vs {expect}");
        prop_assert_eq!(got.to_bits(), slow.wmed(&mac).to_bits());
    }

    /// Signed variant: a broken-carry Baugh-Wooley multiplier inside the
    /// MAC, scored against the same brute-force model in two's complement.
    #[test]
    fn signed_mac_evaluator_matches_the_golden_model(
        width in 2u32..=3,
        hbl_sel in 0u32..8,
        vbl_sel in 0u32..8,
        scale in 0.5f64..4.0,
    ) {
        let hbl = hbl_sel % (width + 1);
        let vbl = vbl_sel % (2 * width + 1);
        let n = Operator::Mac.acc_width(width);
        let pmf = Pmf::half_normal(width, scale * f64::from(width));
        let mul = baugh_wooley_broken(width, hbl, vbl);
        let table = OpTable::from_netlist(&mul, width, true).unwrap();
        let expect = mac_wmed(&table, width, true, &pmf);
        let mac = mac_unit(&mul, width, n, true);
        let (fast, slow) = both_backends(Operator::Mac, width, true, &pmf);
        let got = fast.wmed(&mac);
        prop_assert!(
            (got - expect).abs() < 1e-12,
            "w={width} hbl={hbl} vbl={vbl}: {got} vs {expect}"
        );
        prop_assert_eq!(got.to_bits(), slow.wmed(&mac).to_bits());
    }

    /// The backend seam's contract extends to every operator arity: on
    /// arbitrary netlists — dead nodes, garbage logic included — scalar
    /// and bit-parallel stats and error matrices are identical to the
    /// last bit, and so are bounded verdicts.
    #[test]
    fn operator_backends_bit_identical_on_random_netlists(
        op_sel in 0usize..3,
        w_sel in 0u32..8,
        signed in any::<bool>(),
        gates in 1usize..48,
        seed in any::<u64>(),
        limit_scale in 0.0f64..2.0,
    ) {
        let op = Operator::ALL[op_sel];
        // Mac instances carry the accumulator operand: keep ni <= 20.
        let width = if op == Operator::Mac { 2 + w_sel % 3 } else { 2 + w_sel % 5 };
        let nl = random_netlist(op.num_inputs(width), op.num_outputs(width), gates, seed);
        let pmf = Pmf::half_normal(width, f64::from(1u32 << (width - 1)));
        let (fast, slow) = both_backends(op, width, signed, &pmf);
        assert_stats_identical(&fast.stats(&nl), &slow.stats(&nl))?;
        let at = format!("{op} w{width} signed={signed}");
        assert_matrices_identical(&fast.error_matrix(&nl), &slow.error_matrix(&nl), &at)?;
        let limit = limit_scale * fast.stats(&nl).wmed;
        prop_assert_eq!(
            fast.wmed_bounded(&nl, limit).map(f64::to_bits),
            slow.wmed_bounded(&nl, limit).map(f64::to_bits)
        );
    }
}

/// `op`'s exact seed with `rewrites` random node rewrites (random gate
/// kind, operands drawn from earlier signals): a candidate whose error
/// no conventional family produces.
fn rewritten_seed(op: Operator, width: u32, signed: bool, rewrites: usize, seed: u64) -> Netlist {
    let mut rng = Xoshiro256::from_seed(seed);
    let base = op.seed_circuit(width, signed);
    let ni = base.num_inputs();
    let mut nodes = base.nodes().to_vec();
    for _ in 0..rewrites {
        let k = rng.gen_range(nodes.len());
        nodes[k] = random_node(ni + k, &mut rng);
    }
    Netlist::new(ni, nodes, base.outputs().to_vec()).expect("rewrites preserve topology")
}

/// The width the library tier re-scores at, past the debug suite's
/// random-netlist widths (2–6 for `mul` and `add`): bit-parallel `stats`
/// and `error_matrix` against the scalar reference for the exact seed, a
/// conventional design and a rewritten seed, for signed and unsigned
/// multipliers and for the adder. Release only: the scalar reference
/// interprets all 2^16 vectors one at a time.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow without optimizations; CI runs it in the step \
              `cargo test --release -p apx_metrics --test prop_operators width8`"
)]
fn width8_bitpar_matches_the_scalar_reference() {
    let width = 8;
    let cases = [
        (Operator::Mul, false, truncated_multiplier(width, 6)),
        (Operator::Mul, true, baugh_wooley_broken(width, width - 2, 5)),
        (Operator::Add, false, lower_or_adder(width, 4)),
    ];
    for (op, signed, conventional) in cases {
        let pmf = if signed {
            Pmf::signed_normal(width, 3.0, 20.0)
        } else {
            Pmf::half_normal(width, 48.0)
        };
        let (fast, slow) = both_backends(op, width, signed, &pmf);
        let candidates = [
            op.seed_circuit(width, signed),
            conventional,
            rewritten_seed(op, width, signed, 6, 0x0808),
        ];
        for (i, nl) in candidates.iter().enumerate() {
            let at = format!("{op} w{width} signed={signed} candidate {i}");
            let stats = fast.stats(nl);
            assert!(i == 0 || stats.max_abs_error > 0, "{at}: the candidate is exact");
            assert_stats_identical(&stats, &slow.stats(nl))
                .unwrap_or_else(|e| panic!("{at}: {e:?}"));
            assert_matrices_identical(&fast.error_matrix(nl), &slow.error_matrix(nl), &at)
                .unwrap_or_else(|e| panic!("{e:?}"));
        }
    }
}
