//! Wide-width evaluator benchmark: WMED throughput of the symbolic
//! (ROBDD model-counting) backend against the bit-parallel engine,
//! per operator and operand width.
//!
//! The grid covers every width each backend can evaluate. The
//! bit-parallel backend enumerates adders up to width 10 and MACs up to
//! width 4 (20 netlist inputs), and multipliers at every width: past the
//! cap it streams only the weighted operand rows (12/14/16-bit cells).
//! The symbolic engine covers every cell, continuing alone to the 12/14/
//! 16-bit adders and the 6/8-bit MACs (up to 33 inputs). Wherever both
//! backends run, their WMED scores are asserted bit-identical before any
//! timing is recorded. The two backends share no reference: the
//! bit-parallel one scores against [`Operator::exact_value`] (its streamed
//! rows build their exact planes from it), the symbolic one against the
//! BDDs of the exact seed circuit, so each multiplier cell also checks the
//! seed circuit against the reference function.
//!
//! Each cell scores three candidates (the operator's exact seed circuit
//! and two one-bit output truncations of it) under a measured-lumpy PMF
//! with [`SPIKES`] weighted operand values — the shape application
//! histograms take, and the quantity both engines' cost scales with past
//! the cap (neither enumerates the `2^width` domain there).
//!
//! Results land in `results/BENCH_symbolic.json` so the wide-width
//! performance trajectory is tracked from PR to PR. No scale knobs: the
//! workload is fixed and deterministic so the numbers compare across
//! runs. Full `APX_*` knob reference: `crates/bench/README.md`.

use apx_arith::{EvalBackend, Operator};
use apx_bench::{bench_wide_json, results_dir, WideCell};
use apx_core::SweepStats;
use apx_dist::Pmf;
use apx_gates::{GateKind, Netlist, Node, SignalId};
use apx_metrics::CircuitEvaluator;
use apx_rng::Xoshiro256;
use std::time::Instant;

/// Weighted operand values in each cell's PMF.
const SPIKES: usize = 64;

/// Deterministic "measured" histogram: [`SPIKES`] random spikes of random
/// integer mass, everything else zero.
fn lumpy_pmf(width: u32, seed: u64) -> Pmf {
    let n = 1usize << width;
    let mut rng = Xoshiro256::from_seed(seed);
    let mut weights = vec![0.0f64; n];
    for _ in 0..SPIKES {
        weights[rng.gen_range(n)] += 1.0 + rng.gen_range(15) as f64;
    }
    Pmf::from_weights(width, weights).expect("spikes guarantee positive mass")
}

/// The canonical approximate candidate: `nl` with output `bit` routed
/// through a fresh `Const0` node.
fn zero_output_bit(nl: &Netlist, bit: usize) -> Netlist {
    let ni = nl.num_inputs();
    let mut nodes = nl.nodes().to_vec();
    let zero = SignalId((ni + nodes.len()) as u32);
    nodes.push(Node { kind: GateKind::Const0, a: SignalId(0), b: SignalId(0) });
    let mut outputs = nl.outputs().to_vec();
    outputs[bit] = zero;
    Netlist::new(ni, nodes, outputs).expect("appending a node preserves validity")
}

fn main() {
    println!("=== bench_wide: per-width WMED throughput, symbolic vs bitpar ===\n");
    let mut cells: Vec<WideCell> = Vec::new();
    for op in [Operator::Mul, Operator::Add, Operator::Mac] {
        let widths: &[u32] = match op {
            Operator::Mul | Operator::Add => &[6, 8, 10, 12, 14, 16],
            Operator::Mac => &[4, 6, 8],
        };
        for &width in widths {
            let pmf = lumpy_pmf(width, 0xA11CE ^ (u64::from(width) << 8));
            let seed = op.seed_circuit(width, false);
            let candidates = [seed.clone(), zero_output_bit(&seed, 0), zero_output_bit(&seed, 1)];
            let mut reference: Option<Vec<u64>> = None;
            for backend in [EvalBackend::BitParallel, EvalBackend::Symbolic] {
                if !op.supports_width(width, backend) {
                    continue;
                }
                let eval =
                    CircuitEvaluator::for_operator_with_backend(op, width, false, &pmf, backend)
                        .expect("grid widths are evaluable by construction");
                let start = Instant::now();
                let scores: Vec<f64> = candidates.iter().map(|nl| eval.wmed(nl)).collect();
                let wall = start.elapsed().as_secs_f64();
                let bits: Vec<u64> = scores.iter().map(|s| s.to_bits()).collect();
                match &reference {
                    None => reference = Some(bits),
                    Some(prev) => assert_eq!(
                        prev, &bits,
                        "{op} w{width}: backends disagree — the bit-identity contract is broken"
                    ),
                }
                let evaluations = candidates.len() as u64;
                println!(
                    "{op:<4} w{width:<3} {:<9} {evaluations} evals in {wall:>9.4} s   \
                     ({:>10.2} evals/s)   wmed(seed) = {:.3e}",
                    backend.name(),
                    SweepStats::rate(evaluations, wall),
                    scores[0]
                );
                cells.push(WideCell {
                    op,
                    width,
                    backend: backend.name(),
                    evaluations,
                    wall_seconds: wall,
                    // Untimed: the seed's mred, for the JSON record. Past
                    // exhaustive widths it is `NaN` by the wide-width
                    // stats contract (lands as JSON `null`) — asserted
                    // rather than paid for, since a full-domain stats pass
                    // costs seconds to minutes per wide cell.
                    mred: if op.supports_exhaustive_width(width) {
                        eval.stats(&candidates[0]).mred
                    } else {
                        f64::NAN
                    },
                });
            }
        }
    }
    let json = bench_wide_json(SPIKES, &cells);
    let path = results_dir().join("BENCH_symbolic.json");
    std::fs::write(&path, &json).expect("write BENCH_symbolic.json");
    println!("\nJSON written to {}", path.display());
}
