//! Switching-activity analysis.
//!
//! [`ActivityReport`] estimates per-node switching activity from sampled
//! stimuli, which the technology library turns into dynamic power.

use crate::{Netlist, TileSim, TILE};

/// Per-node switching-activity estimate.
///
/// `toggle_rate[s]` is the probability that signal `s` changes value between
/// two consecutive stimulus vectors, estimated by Monte-Carlo simulation
/// with a caller-provided stimulus generator, so non-uniform application
/// input distributions (the whole point of the paper) are honoured.
///
/// Only the primary inputs and the outputs' live cone are simulated. A dead
/// node never reaches an output, so its `toggle_rate` reads 0; dead gates
/// draw no power in the technology model either.
#[derive(Debug, Clone, PartialEq)]
pub struct ActivityReport {
    /// Per-signal toggle probability between consecutive vectors.
    pub toggle_rate: Vec<f64>,
    /// Number of stimulus vectors used.
    pub samples: usize,
}

impl ActivityReport {
    /// Estimates switching activity of `netlist` under a stimulus source.
    ///
    /// `stimulus` is called once per 64-vector block, in block order, and
    /// must fill one word per primary input (lane `l` = vector `l` of the
    /// block); the slice keeps its words between calls. Consecutive lanes
    /// are treated as consecutive points in time, which matches the
    /// data-streaming operation of a MAC array or filter pipeline.
    ///
    /// `blocks` controls accuracy; 64 × `blocks` vectors are simulated, one
    /// [`TileSim`] column per block.
    ///
    /// # Panics
    ///
    /// Panics if `blocks == 0`.
    #[must_use]
    pub fn estimate<F>(netlist: &Netlist, blocks: usize, mut stimulus: F) -> Self
    where
        F: FnMut(&mut [u64]),
    {
        assert!(blocks > 0, "need at least one stimulus block");
        let ni = netlist.num_inputs();
        let active = netlist.active_mask();
        let mut toggles = vec![0u64; netlist.num_signals()];
        // Each simulated signal's lane 63 in the previous block.
        let mut last = vec![0u64; netlist.num_signals()];
        let mut sim = TileSim::new(netlist);
        let mut block = vec![0u64; ni];
        for first in (0..blocks).step_by(TILE) {
            let cols = TILE.min(blocks - first);
            for t in 0..cols {
                stimulus(&mut block);
                for (row, &word) in sim.inputs_mut().chunks_exact_mut(TILE).zip(&block) {
                    row[t] = word;
                }
            }
            sim.run();
            for (s, (count, carry)) in toggles.iter_mut().zip(&mut last).enumerate() {
                if s >= ni && !active[s] {
                    continue;
                }
                let row = &sim.signal_row(s)[..cols];
                // Lane `l` against lane `l − 1`, and lane 0 against the
                // previous block's lane 63 (the very first lane against
                // itself).
                let mut prev = if first == 0 { row[0] & 1 } else { *carry };
                for &w in row {
                    *count += u64::from((w ^ (w << 1 | prev)).count_ones());
                    prev = w >> 63;
                }
                *carry = prev;
            }
        }
        let samples = blocks * 64;
        let transitions = (samples - 1) as f64;
        ActivityReport {
            toggle_rate: toggles.iter().map(|&c| c as f64 / transitions).collect(),
            samples,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GateKind, NetlistBuilder, SignalId};
    use apx_rng::Xoshiro256;

    fn xor_and_netlist() -> Netlist {
        let mut b = NetlistBuilder::new(2);
        let (x, y) = (b.input(0), b.input(1));
        let s = b.xor(x, y);
        let c = b.and(x, y);
        b.outputs(&[s, c]);
        b.finish().unwrap()
    }

    fn uniform(nl: &Netlist, blocks: usize, rng: &mut Xoshiro256) -> ActivityReport {
        ActivityReport::estimate(nl, blocks, |inputs| inputs.fill_with(|| rng.next_u64()))
    }

    #[test]
    fn uniform_activity_of_xor_is_half() {
        let nl = xor_and_netlist();
        let mut rng = Xoshiro256::from_seed(11);
        let report = uniform(&nl, 256, &mut rng);
        // XOR of two uniform bits: toggle rate 0.5.
        let xor_sig = 2; // first node
        assert!((report.toggle_rate[xor_sig] - 0.5).abs() < 0.02);
        // AND of two uniform bits: P(1) = 0.25, toggle = 2*0.25*0.75 = 0.375.
        let and_sig = 3;
        assert!((report.toggle_rate[and_sig] - 0.375).abs() < 0.02);
    }

    #[test]
    fn constant_stimulus_never_toggles() {
        let nl = xor_and_netlist();
        let report = ActivityReport::estimate(&nl, 8, |inputs| {
            inputs[0] = !0;
            inputs[1] = !0;
        });
        for s in 0..nl.num_signals() {
            assert_eq!(report.toggle_rate[s], 0.0, "signal {s}");
        }
    }

    #[test]
    fn activity_sample_count() {
        let nl = xor_and_netlist();
        let mut rng = Xoshiro256::from_seed(1);
        let report = uniform(&nl, 4, &mut rng);
        assert_eq!(report.samples, 256);
    }

    #[test]
    fn toggle_rates_match_a_vector_by_vector_walk() {
        // Random netlists with dead nodes, over one partial tile, whole
        // tiles and ragged multi-tile runs: every input and live node must
        // count exactly the toggles of a one-vector-at-a-time `eval_bool`
        // walk of the same stimulus stream (block and tile boundaries
        // included), and every dead node must read 0.
        let mut rng = Xoshiro256::from_seed(2024);
        let mut dead_seen = 0;
        for trial in 0..8 {
            let ni = 2 + rng.gen_range(9);
            let n_nodes = 10 + rng.gen_range(30);
            let mut b = NetlistBuilder::new(ni);
            for k in 0..n_nodes {
                let kind = *rng.choose(&GateKind::ALL).unwrap();
                let a = SignalId(rng.gen_range(ni + k) as u32);
                let bb = SignalId(rng.gen_range(ni + k) as u32);
                b.push(kind, a, bb);
            }
            let outs: Vec<SignalId> =
                (0..3).map(|_| SignalId(rng.gen_range(ni + n_nodes) as u32)).collect();
            b.outputs(&outs);
            let nl = b.finish().unwrap();
            // The same gates with every signal as an output: `eval_bool`
            // then reports each signal's value per vector.
            let all: Vec<SignalId> = (0..nl.num_signals() as u32).map(SignalId).collect();
            let probe = Netlist::new(ni, nl.nodes().to_vec(), all).unwrap();
            let active = nl.active_mask();
            dead_seen += active[ni..].iter().filter(|&&a| !a).count();
            for blocks in [1, 5, 16, 19, 48] {
                // Biased inputs as well as uniform ones, so the rates vary.
                let stream: Vec<u64> = (0..blocks * ni)
                    .map(|_| match rng.gen_range(3) {
                        0 => rng.next_u64(),
                        1 => rng.next_u64() & rng.next_u64(),
                        _ => rng.next_u64() | rng.next_u64(),
                    })
                    .collect();
                let mut next = stream.chunks_exact(ni);
                let report = ActivityReport::estimate(&nl, blocks, |inputs| {
                    inputs.copy_from_slice(next.next().unwrap());
                });
                let mut want = vec![0u64; nl.num_signals()];
                let mut prev: Option<Vec<bool>> = None;
                for v in 0..blocks * 64 {
                    let (block, lane) = (v / 64, v % 64);
                    let bits: Vec<bool> =
                        (0..ni).map(|i| (stream[block * ni + i] >> lane) & 1 == 1).collect();
                    let now = probe.eval_bool(&bits);
                    if let Some(prev) = &prev {
                        for (count, (p, n)) in want.iter_mut().zip(prev.iter().zip(&now)) {
                            *count += u64::from(p != n);
                        }
                    }
                    prev = Some(now);
                }
                let transitions = (blocks * 64 - 1) as f64;
                for (s, &count) in want.iter().enumerate() {
                    let got = report.toggle_rate[s];
                    if s < ni || active[s] {
                        let want = count as f64 / transitions;
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "trial {trial}, {blocks} blocks, signal {s}"
                        );
                    } else {
                        assert_eq!(got, 0.0, "trial {trial}, {blocks} blocks, dead signal {s}");
                    }
                }
            }
        }
        assert!(dead_seen > 0, "no trial had a dead node");
    }
}
