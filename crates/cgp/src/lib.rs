//! Cartesian Genetic Programming (CGP) for circuit approximation.
//!
//! Implements the representation and search algorithm of the paper's
//! §III-B/C:
//!
//! * [`Chromosome`] — the integer-string encoding of a combinational
//!   circuit on a `1 × c` grid of two-input nodes (`r = 1`, `n_a = 2`,
//!   unlimited levels-back), including redundant (inactive) genes that
//!   enable neutral genetic drift;
//! * [`FunctionSet`] — the node function set Γ ("all standard two-input
//!   gates" in the paper's experiments);
//! * [`mutate`] — point mutation of up to `h` randomly selected genes;
//! * [`evolve`] — the `(1 + λ)` evolution strategy with neutral-drift
//!   parent replacement;
//! * [`evolve_seeded`] — the same strategy warm-started from a set of
//!   candidate chromosomes (e.g. a component library re-scored under a
//!   new data distribution): the best of seed-parent-plus-seeds becomes
//!   the initial parent.
//!
//! The fitness function is supplied by the caller (the paper's Eq. 1 lives
//! in `apx-core`), so this crate stays application-agnostic.
//!
//! # Examples
//!
//! Seed CGP with an exact 2-bit multiplier and (trivially) re-evolve it:
//!
//! ```
//! use apx_cgp::{Chromosome, EvolutionConfig, FunctionSet, evolve};
//!
//! let seed_netlist = apx_arith::array_multiplier(2);
//! let seed = Chromosome::from_netlist(&seed_netlist, &FunctionSet::standard(), 20)?;
//! let result = evolve(
//!     &seed,
//!     |c: &Chromosome| c.decode_active().active_gate_count() as f64,
//!     &EvolutionConfig { max_iterations: 50, ..EvolutionConfig::default() },
//! );
//! assert!(result.best_fitness <= seed.decode_active().active_gate_count() as f64);
//! # Ok::<(), apx_cgp::CgpError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod function_set;
mod genome;
mod mutation;
mod search;
mod serialize;

pub use error::CgpError;
pub use function_set::FunctionSet;
pub use genome::Chromosome;
pub use mutation::mutate;
pub use search::{evolve, evolve_seeded, EvolutionConfig, EvolutionResult, FitnessFn};
