//! Switching-activity analysis.
//!
//! [`ActivityReport`] estimates per-node switching activity from sampled
//! stimuli, which the technology library turns into dynamic power.

use crate::{BlockSim, Netlist};
use apx_rng::Xoshiro256;

/// Per-node switching-activity estimate.
///
/// `toggle_rate[s]` is the probability that signal `s` changes value between
/// two consecutive stimulus vectors; `one_prob[s]` is its static probability
/// of being 1. Both are estimated by Monte-Carlo simulation with a
/// caller-provided stimulus generator, so non-uniform application input
/// distributions (the whole point of the paper) are honoured.
#[derive(Debug, Clone, PartialEq)]
pub struct ActivityReport {
    /// Per-signal probability of logic 1.
    pub one_prob: Vec<f64>,
    /// Per-signal toggle probability between consecutive vectors.
    pub toggle_rate: Vec<f64>,
    /// Number of stimulus vectors used.
    pub samples: usize,
}

impl ActivityReport {
    /// Estimates switching activity of `netlist` under a stimulus source.
    ///
    /// `stimulus` is called once per 64-vector block and must fill one word
    /// per primary input (lane `l` = vector `l` of the block). Consecutive
    /// lanes are treated as consecutive points in time, which matches the
    /// data-streaming operation of a MAC array or filter pipeline.
    ///
    /// `blocks` controls accuracy; 64 × `blocks` vectors are simulated.
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
        let n_sig = netlist.num_signals();
        let mut ones = vec![0u64; n_sig];
        let mut toggles = vec![0u64; n_sig];
        let mut prev_last_bits: Option<Vec<bool>> = None;
        let mut sim = BlockSim::new(netlist);
        let mut inputs = vec![0u64; netlist.num_inputs()];
        for _ in 0..blocks {
            stimulus(&mut inputs);
            sim.run(netlist, &inputs);
            let words = sim.signal_words();
            for (s, &w) in words.iter().enumerate() {
                ones[s] += w.count_ones() as u64;
                // Toggles inside the block: XOR with self shifted by one lane.
                let shifted = w >> 1;
                let within = (w ^ shifted) & (u64::MAX >> 1);
                toggles[s] += within.count_ones() as u64;
            }
            // Toggle across the block boundary.
            if let Some(prev) = &prev_last_bits {
                for (s, &w) in words.iter().enumerate() {
                    if prev[s] != (w & 1 == 1) {
                        toggles[s] += 1;
                    }
                }
            }
            prev_last_bits = Some(words.iter().map(|&w| (w >> 63) & 1 == 1).collect());
        }
        let samples = blocks * 64;
        let transitions = (samples - 1) as f64;
        ActivityReport {
            one_prob: ones.iter().map(|&c| c as f64 / samples as f64).collect(),
            toggle_rate: toggles.iter().map(|&c| c as f64 / transitions).collect(),
            samples,
        }
    }

    /// Estimates activity under *uniform random* stimuli.
    #[must_use]
    pub fn estimate_uniform(netlist: &Netlist, blocks: usize, rng: &mut Xoshiro256) -> Self {
        Self::estimate(netlist, blocks, |inputs| {
            for w in inputs.iter_mut() {
                *w = rng.next_u64();
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetlistBuilder;

    fn xor_and_netlist() -> Netlist {
        let mut b = NetlistBuilder::new(2);
        let (x, y) = (b.input(0), b.input(1));
        let s = b.xor(x, y);
        let c = b.and(x, y);
        b.outputs(&[s, c]);
        b.finish().unwrap()
    }

    #[test]
    fn uniform_activity_of_xor_is_half() {
        let nl = xor_and_netlist();
        let mut rng = Xoshiro256::from_seed(11);
        let report = ActivityReport::estimate_uniform(&nl, 256, &mut rng);
        // XOR of two uniform bits: P(1) = 0.5, toggle rate 0.5.
        let xor_sig = 2; // first node
        assert!((report.one_prob[xor_sig] - 0.5).abs() < 0.02);
        assert!((report.toggle_rate[xor_sig] - 0.5).abs() < 0.02);
        // AND of two uniform bits: P(1) = 0.25, toggle = 2*0.25*0.75 = 0.375.
        let and_sig = 3;
        assert!((report.one_prob[and_sig] - 0.25).abs() < 0.02);
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
        assert_eq!(report.one_prob[0], 1.0);
    }

    #[test]
    fn activity_sample_count() {
        let nl = xor_and_netlist();
        let mut rng = Xoshiro256::from_seed(1);
        let report = ActivityReport::estimate_uniform(&nl, 4, &mut rng);
        assert_eq!(report.samples, 256);
    }
}
