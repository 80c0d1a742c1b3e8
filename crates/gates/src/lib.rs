//! Gate-level netlist representation and fast bit-parallel simulation.
//!
//! This crate is the lowest-level substrate of the `distapprox`
//! reproduction: every circuit manipulated by the CGP-based approximation
//! flow — exact multipliers, truncated/broken-array baselines, evolved
//! candidates — is a [`Netlist`]: a topologically ordered list of two-input
//! gates over a set of primary inputs.
//!
//! Simulation is *bit-parallel*: every signal is a `u64` word whose 64 bits
//! carry 64 independent input vectors. Exhaustively evaluating an 8×8-bit
//! multiplier (2^16 input vectors) therefore costs `1024 × gates` word
//! operations — a few hundred microseconds — which is what makes
//! evolutionary circuit approximation practical in pure Rust.
//!
//! # Examples
//!
//! Build a 1-bit full adder and simulate it exhaustively:
//!
//! ```
//! use apx_gates::{NetlistBuilder, Exhaustive};
//!
//! let mut b = NetlistBuilder::new(3); // a, b, cin
//! let (a, bi, cin) = (b.input(0), b.input(1), b.input(2));
//! let axb = b.xor(a, bi);
//! let sum = b.xor(axb, cin);
//! let ab = b.and(a, bi);
//! let cc = b.and(axb, cin);
//! let carry = b.or(ab, cc);
//! b.outputs(&[sum, carry]);
//! let adder = b.finish().expect("valid netlist");
//!
//! let table = Exhaustive::new(3).output_table(&adder);
//! // inputs (a,b,cin) = (1,1,0) -> index 0b011 = 3 -> sum=0 carry=1 -> 0b10
//! assert_eq!(table[3], 0b10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
mod blif;
mod dot;
mod error;
mod gate;
mod level;
mod netlist;
mod sim;

pub use analysis::ActivityReport;
pub use blif::to_blif;
pub use dot::to_dot;
pub use error::NetlistError;
pub use gate::GateKind;
pub use level::fanout_cone;
pub use netlist::{Netlist, NetlistBuilder, Node, SignalId};
pub use sim::{eval_row, unpack_lanes, Exhaustive, TileSim, TILE};
