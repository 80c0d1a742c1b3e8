//! The machine-speed reference: a fixed CPU kernel that depends on no
//! code of the repository. A run times it between reps, on as many
//! threads as the workload uses, and reports its times in *reference
//! seconds*: measured seconds × [`NOMINAL_S`] ÷ the kernel time measured
//! around them. On a shared host whose speed drifts with its neighbours' load,
//! the kernel slows with the workload, so the ratio moves less than the
//! raw time; a change to the program moves both the raw time and the
//! ratio, because the kernel never runs repository code.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::Instant;

/// 64-bit words per signal: one truth table over 16 inputs, the size of
/// a width-8 multiplier's bit-parallel signal.
const WORDS: usize = 1 << 10;
/// Primary-input signals of the kernel's netlist.
const INPUTS: usize = 16;
/// Signals in total: inputs plus gates.
const SIGNALS: usize = 96;
/// Passes over the netlist per thread.
const PASSES: usize = 5_000;

/// Kernel time that maps to one reference second per second: about the
/// median kernel time on 2 threads of a 2-vCPU x86-64 VM at 2.0 GHz.
pub const NOMINAL_S: f64 = 0.15;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// One thread's share of the kernel, in `signals` (`SIGNALS × WORDS`
/// words): `passes` bit-parallel evaluations of a random two-input gate
/// netlist, its gates drawn afresh on every pass from `stream`. Returns a
/// checksum so the work cannot be optimised away.
#[must_use]
pub fn kernel(signals: &mut [u64], stream: u64, passes: usize) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15 ^ stream;
    for word in &mut signals[..INPUTS * WORDS] {
        *word = xorshift(&mut x);
    }
    let mut sum = 0u64;
    for _ in 0..passes {
        for g in INPUTS..SIGNALS {
            let r = xorshift(&mut x);
            let (a, b) = ((r as usize) % g, ((r >> 20) as usize) % g);
            let (inputs, rest) = signals.split_at_mut(g * WORDS);
            let (pa, pb) = (&inputs[a * WORDS..][..WORDS], &inputs[b * WORDS..][..WORDS]);
            let out = rest[..WORDS].iter_mut().zip(pa).zip(pb);
            match (r >> 40) % 4 {
                0 => out.for_each(|((o, p), q)| *o = p & q),
                1 => out.for_each(|((o, p), q)| *o = p | q),
                2 => out.for_each(|((o, p), q)| *o = p ^ q),
                _ => out.for_each(|((o, p), q)| *o = !(p & q)),
            }
        }
        let last = &signals[(SIGNALS - 1) * WORDS..];
        sum = sum.wrapping_add(last.iter().map(|w| u64::from(w.count_ones())).sum());
    }
    sum
}

/// One kernel thread: told to go, it runs its share and sends back the
/// checksum.
struct Worker {
    go: Sender<()>,
    done: Receiver<u64>,
    handle: JoinHandle<()>,
}

/// The kernel's threads, started once and kept for the whole run. Threads
/// started afresh for every timing would each take an allocator arena
/// from the workload's threads and make its peak memory grow from rep to
/// rep.
pub struct Reference {
    workers: Vec<Worker>,
}

impl Reference {
    /// Starts a kernel on `threads` threads.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        let workers = (0..threads.max(1))
            .map(|t| {
                let (go, go_rx) = channel::<()>();
                let (done_tx, done) = channel();
                let handle = std::thread::spawn(move || {
                    let mut buffer = vec![0; SIGNALS * WORDS];
                    while go_rx.recv().is_ok() {
                        if done_tx.send(kernel(&mut buffer, t as u64, PASSES)).is_err() {
                            break;
                        }
                    }
                });
                Worker { go, done, handle }
            })
            .collect();
        Reference { workers }
    }

    /// Wall time, in seconds, of the kernel on all its threads at once.
    ///
    /// # Panics
    ///
    /// If a kernel thread has died (it cannot fail on its own).
    pub fn time_s(&mut self) -> f64 {
        let start = Instant::now();
        for w in &self.workers {
            w.go.send(()).expect("kernel thread alive");
        }
        for w in &self.workers {
            std::hint::black_box(w.done.recv().expect("kernel thread alive"));
        }
        start.elapsed().as_secs_f64()
    }
}

impl Drop for Reference {
    /// Stops the kernel threads and waits for each to end.
    fn drop(&mut self) {
        for Worker { go, done, handle } in self.workers.drain(..) {
            drop((go, done));
            let _ = handle.join();
        }
    }
}

/// `seconds` in reference seconds, given the kernel time `reference`
/// measured around them (0 when no kernel time was measured).
#[must_use]
pub fn to_reference_s(seconds: f64, reference: f64) -> f64 {
    crate::report::ratio(seconds * NOMINAL_S, reference)
}

/// Every timed rep's wall time in reference seconds. Rep `reps[k]` took
/// `walls[k]` seconds and ran between kernel timings `reference[reps[k]]`
/// and `reference[reps[k] + 1]`; it is scaled by their mean.
#[must_use]
pub fn scale_reps(reps: &[usize], walls: &[f64], reference: &[f64]) -> Vec<f64> {
    reps.iter()
        .zip(walls)
        .map(|(&rep, &wall)| to_reference_s(wall, (reference[rep] + reference[rep + 1]) / 2.0))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_per_stream() {
        let mut buffer = vec![0; SIGNALS * WORDS];
        let first = kernel(&mut buffer, 3, 4);
        assert_eq!(kernel(&mut buffer, 3, 4), first, "a used buffer changes nothing");
        assert_ne!(kernel(&mut buffer, 4, 4), first, "each thread gets its own netlists");
        assert!(Reference::new(2).time_s() > 0.0);
    }

    #[test]
    fn reference_seconds_scale_by_nominal_over_measured() {
        // A kernel that ran at its nominal time leaves seconds unchanged.
        assert!((to_reference_s(4.0, NOMINAL_S) - 4.0).abs() < 1e-12);
        // A machine running at half speed halves the reported time.
        assert!((to_reference_s(4.0, 2.0 * NOMINAL_S) - 2.0).abs() < 1e-12);
        assert_eq!(to_reference_s(4.0, 0.0), 0.0, "no kernel time measured");
    }

    #[test]
    fn each_rep_is_scaled_by_the_kernel_timings_around_it() {
        let n = NOMINAL_S;
        // Rep 1 failed, so only reps 0 and 2 were timed.
        let scaled = scale_reps(&[0, 2], &[3.0, 5.0], &[n, 3.0 * n, n, 2.0 * n]);
        assert_eq!(scaled.len(), 2);
        assert!((scaled[0] - 3.0 / 2.0).abs() < 1e-12, "mean of timings 0 and 1 is 2n");
        assert!((scaled[1] - 5.0 / 1.5).abs() < 1e-12, "mean of timings 2 and 3 is 1.5n");
    }
}
