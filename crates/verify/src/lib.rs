//! Static netlist analysis: lint, dataflow and provable error bounds.
//!
//! The sweep pipeline ingests netlists from places it does not control —
//! cache directories written by other runs, harvested library candidates,
//! eventually foreign BLIF designs. Parse-level checks catch torn files,
//! but a well-formed file can still encode a netlist that violates the
//! contracts downstream code relies on (operand indices out of range,
//! wrong arity for its declared operator, …). This crate is the static
//! gate in front of that trust boundary, in three passes:
//!
//! 1. **Structural lint** ([`lint_parts`], [`lint_netlist`],
//!    [`lint_component`]): node-index bounds (which, over a
//!    topologically ordered node list, *is* acyclicity), output wiring
//!    and per-[`Operator`] width contracts — each violation a named,
//!    span-carrying [`Diagnostic`] instead of a bare "corrupt". Raw CGP
//!    genomes need no pass here: `Chromosome::from_text` already rejects
//!    every gene past its bound on each cache read.
//! 2. **Dataflow** ([`propagate_constants`], [`constant_signals`]):
//!    ternary constant propagation over the gate list, reporting
//!    provably-constant (stuck-at) outputs and dead nodes as warnings,
//!    plus [`structural_hash`] — the canonical digest the component
//!    library dedups by.
//! 3. **Bound analysis** ([`wmed_bounds`]): per-output ternary interval
//!    analysis, yielding a provable `[lo, hi]` bracket on the circuit's
//!    WMED without scoring the candidate. No workspace code calls it: at
//!    width 8 it costs ~8× the exact statistics pass it could spare
//!    (cost note on [`wmed_bounds_weighted`]), so the component library
//!    re-scores every candidate exactly instead.
//!
//! Severity is deliberately two-tier: [`Severity::Error`] marks contract
//! violations (the netlist must not be evaluated), while
//! [`Severity::Warning`] marks findings that are *expected* of evolved
//! approximate circuits (a stuck output is often exactly how a candidate
//! saves area) and only inform audits.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bounds;
mod exhaustive;
mod semantic;

pub use bounds::{wmed_bounds, wmed_bounds_weighted, ErrorBounds};
pub use semantic::{
    class_representatives, functional_digest, functional_digest_with_budget, prove_equiv,
    prove_equiv_with_budget, prove_seed, prove_seed_with_budget, Equiv, SEMANTIC_NODE_BUDGET,
};

use apx_arith::{EvalBackend, Operator};
use apx_dist::{fnv1a64, FNV1A64_OFFSET};
use apx_gates::{Netlist, Node, SignalId};
use std::fmt::{self, Write as _};

/// How bad a [`Diagnostic`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational finding, legitimate in evolved approximate circuits.
    Warning,
    /// Contract violation: the netlist must not be evaluated.
    Error,
}

/// Where in the netlist a [`Diagnostic`] points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Span {
    /// The netlist as a whole.
    Netlist,
    /// Node `k` of the node list (signal `num_inputs + k`).
    Node(usize),
    /// Output slot `k` of the output list.
    Output(usize),
}

/// One named finding of the static analyzer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Diagnostic {
    /// A node reads a signal at or above its own position — a forward
    /// (or self) reference, impossible in a topologically ordered list.
    OperandOutOfRange {
        /// Offending node index.
        node: usize,
        /// Which operand slot (`'a'` or `'b'`).
        operand: char,
        /// The out-of-range signal id.
        signal: u32,
        /// Exclusive bound the operand had to stay under.
        limit: u32,
    },
    /// An output slot points past the last signal of the netlist.
    OutputOutOfRange {
        /// Offending output slot.
        output: usize,
        /// The out-of-range signal id.
        signal: u32,
        /// Exclusive bound (the netlist's signal count).
        limit: u32,
    },
    /// The netlist declares no outputs at all.
    NoOutputs,
    /// The declared operand width is outside the operator's evaluable
    /// range, so no arity contract even exists to check against.
    UnsupportedWidth {
        /// The declared operator.
        op: Operator,
        /// The unsupported width.
        width: u32,
    },
    /// The netlist's input count contradicts its declared operator/width.
    InputArity {
        /// The declared operator.
        op: Operator,
        /// The declared operand width.
        width: u32,
        /// Inputs the contract requires.
        expected: usize,
        /// Inputs the netlist has.
        got: usize,
    },
    /// The netlist's output count contradicts its declared operator/width.
    OutputArity {
        /// The declared operator.
        op: Operator,
        /// The declared operand width.
        width: u32,
        /// Outputs the contract requires.
        expected: usize,
        /// Outputs the netlist has.
        got: usize,
    },
    /// An output is provably constant for every input vector.
    StuckOutput {
        /// Offending output slot.
        output: usize,
        /// The constant value it is stuck at.
        value: bool,
    },
    /// A node outside the transitive fan-in of every output.
    DeadNode {
        /// The unreachable node's index.
        node: usize,
    },
}

impl Diagnostic {
    /// Stable kebab-case name — the key audit tables tally under.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Diagnostic::OperandOutOfRange { .. } => "operand-out-of-range",
            Diagnostic::OutputOutOfRange { .. } => "output-out-of-range",
            Diagnostic::NoOutputs => "no-outputs",
            Diagnostic::UnsupportedWidth { .. } => "unsupported-width",
            Diagnostic::InputArity { .. } => "input-arity",
            Diagnostic::OutputArity { .. } => "output-arity",
            Diagnostic::StuckOutput { .. } => "stuck-output",
            Diagnostic::DeadNode { .. } => "dead-node",
        }
    }

    /// Error for contract violations, warning for findings that are
    /// legitimate in approximate circuits.
    #[must_use]
    pub fn severity(&self) -> Severity {
        match self {
            Diagnostic::StuckOutput { .. } | Diagnostic::DeadNode { .. } => Severity::Warning,
            _ => Severity::Error,
        }
    }

    /// The location the finding points at.
    #[must_use]
    pub fn span(&self) -> Span {
        match *self {
            Diagnostic::OperandOutOfRange { node, .. } | Diagnostic::DeadNode { node } => {
                Span::Node(node)
            }
            Diagnostic::OutputOutOfRange { output, .. }
            | Diagnostic::StuckOutput { output, .. } => Span::Output(output),
            Diagnostic::NoOutputs
            | Diagnostic::UnsupportedWidth { .. }
            | Diagnostic::InputArity { .. }
            | Diagnostic::OutputArity { .. } => Span::Netlist,
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Diagnostic::OperandOutOfRange { node, operand, signal, limit } => write!(
                f,
                "operand-out-of-range: node {node} operand {operand} reads signal {signal} \
                 (must be < {limit})"
            ),
            Diagnostic::OutputOutOfRange { output, signal, limit } => write!(
                f,
                "output-out-of-range: output {output} reads signal {signal} (must be < {limit})"
            ),
            Diagnostic::NoOutputs => write!(f, "no-outputs: the netlist declares no outputs"),
            Diagnostic::UnsupportedWidth { op, width } => {
                write!(f, "unsupported-width: {op} does not support operand width {width}")
            }
            Diagnostic::InputArity { op, width, expected, got } => write!(
                f,
                "input-arity: a width-{width} {op} netlist must have {expected} inputs, got {got}"
            ),
            Diagnostic::OutputArity { op, width, expected, got } => write!(
                f,
                "output-arity: a width-{width} {op} netlist must have {expected} outputs, \
                 got {got}"
            ),
            Diagnostic::StuckOutput { output, value } => {
                write!(f, "stuck-output: output {output} is constant {}", u8::from(value))
            }
            Diagnostic::DeadNode { node } => {
                write!(f, "dead-node: node {node} feeds no output")
            }
        }
    }
}

/// Whether any diagnostic in `diags` is a contract violation.
#[must_use]
pub fn has_errors(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.severity() == Severity::Error)
}

/// Structural lint over the raw parts of a netlist — the checks
/// [`Netlist::new`] enforces by construction, re-run here over data that
/// never went through the constructor (decoded cache text, foreign
/// formats) and reported as named diagnostics instead of one error.
///
/// Over a topologically ordered node list the operand bound `signal <
/// num_inputs + k` *is* the acyclicity proof: no node can reach itself.
#[must_use]
pub fn lint_parts(num_inputs: usize, nodes: &[Node], outputs: &[SignalId]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    if outputs.is_empty() {
        diags.push(Diagnostic::NoOutputs);
    }
    for (k, node) in nodes.iter().enumerate() {
        let limit = (num_inputs + k) as u32;
        if node.a.0 >= limit {
            diags.push(Diagnostic::OperandOutOfRange {
                node: k,
                operand: 'a',
                signal: node.a.0,
                limit,
            });
        }
        if node.b.0 >= limit {
            diags.push(Diagnostic::OperandOutOfRange {
                node: k,
                operand: 'b',
                signal: node.b.0,
                limit,
            });
        }
    }
    let limit = (num_inputs + nodes.len()) as u32;
    for (k, out) in outputs.iter().enumerate() {
        if out.0 >= limit {
            diags.push(Diagnostic::OutputOutOfRange { output: k, signal: out.0, limit });
        }
    }
    diags
}

/// Full lint of a constructed [`Netlist`]: the structural pass plus — on
/// structurally clean netlists — the dataflow warnings (stuck-at outputs
/// via ternary constant propagation, dead nodes via reachability).
///
/// Structural errors suppress the dataflow pass: propagating through a
/// netlist with out-of-range operands would read unrelated signals.
#[must_use]
pub fn lint_netlist(netlist: &Netlist) -> Vec<Diagnostic> {
    let mut diags = lint_parts(netlist.num_inputs(), netlist.nodes(), netlist.outputs());
    if has_errors(&diags) {
        return diags;
    }
    let vals = constant_signals(netlist);
    for (k, out) in netlist.outputs().iter().enumerate() {
        if let Some(value) = vals[out.index()] {
            diags.push(Diagnostic::StuckOutput { output: k, value });
        }
    }
    let active = netlist.active_mask();
    for k in 0..netlist.gate_count() {
        if !active[netlist.num_inputs() + k] {
            diags.push(Diagnostic::DeadNode { node: k });
        }
    }
    diags
}

/// [`lint_netlist`] plus the declared-component contract: the netlist
/// must have exactly the input/output arity of a `width`-bit instance of
/// `op` (the invariant `CircuitEvaluator` otherwise only asserts at
/// evaluation time).
#[must_use]
pub fn lint_component(netlist: &Netlist, op: Operator, width: u32) -> Vec<Diagnostic> {
    let mut diags = lint_netlist(netlist);
    // A width is lintable if *any* backend can evaluate it; the symbolic
    // backend has the widest range.
    if op.supports_width(width, EvalBackend::Symbolic) {
        let expected = op.num_inputs(width);
        if netlist.num_inputs() != expected {
            diags.push(Diagnostic::InputArity { op, width, expected, got: netlist.num_inputs() });
        }
        let expected = op.num_outputs(width);
        if netlist.num_outputs() != expected {
            diags.push(Diagnostic::OutputArity { op, width, expected, got: netlist.num_outputs() });
        }
    } else {
        diags.push(Diagnostic::UnsupportedWidth { op, width });
    }
    diags
}

/// Ternary constant propagation: given each primary input as known
/// (`Some`) or unknown (`None`), computes the provable value of every
/// signal. A gate's output is `Some` exactly when every combination of
/// its unknown operands agrees — per-gate exact, so `And(x, 0)` folds to
/// `Some(false)` even though `x` is unknown.
///
/// # Panics
///
/// Panics if `inputs.len() != netlist.num_inputs()`.
#[must_use]
pub fn propagate_constants(netlist: &Netlist, inputs: &[Option<bool>]) -> Vec<Option<bool>> {
    assert_eq!(inputs.len(), netlist.num_inputs(), "one ternary value per primary input");
    fn candidates(v: Option<bool>) -> &'static [bool] {
        match v {
            Some(false) => &[false],
            Some(true) => &[true],
            None => &[false, true],
        }
    }
    let mut vals: Vec<Option<bool>> = Vec::with_capacity(netlist.num_signals());
    vals.extend_from_slice(inputs);
    for node in netlist.nodes() {
        let (av, bv) = (vals[node.a.index()], vals[node.b.index()]);
        let mut folded: Option<Option<bool>> = None;
        for &a in candidates(av) {
            for &b in candidates(bv) {
                let r = node.kind.eval_bool(a, b);
                folded = match folded {
                    None => Some(Some(r)),
                    Some(Some(prev)) if prev == r => Some(Some(r)),
                    _ => Some(None),
                };
            }
        }
        vals.push(folded.unwrap_or(None));
    }
    vals
}

/// The provably-constant signals of a netlist with *all* inputs unknown:
/// `Some(v)` marks a signal stuck at `v` for every input vector.
#[must_use]
pub fn constant_signals(netlist: &Netlist) -> Vec<Option<bool>> {
    propagate_constants(netlist, &vec![None; netlist.num_inputs()])
}

/// Canonical 128-bit structural hash of a netlist — dead nodes and
/// unused operand slots do not change identity, so a chromosome
/// re-encoded on a wider grid hashes like its original. The component
/// library's dedup identity (`LibraryEntry::digest`) is this hash, so a
/// verify-side audit and the library agree on which netlists are "the
/// same circuit".
#[must_use]
pub fn structural_hash(netlist: &Netlist) -> u128 {
    let compact = netlist.compact();
    let mut canonical = String::new();
    let _ = write!(canonical, "nl {} {}", compact.num_inputs(), compact.num_outputs());
    for node in compact.nodes() {
        let _ = write!(canonical, " {}:{}:{}", node.kind.name(), node.a.0, node.b.0);
    }
    for out in compact.outputs() {
        let _ = write!(canonical, " o{}", out.0);
    }
    fnv_u128(&canonical)
}

/// Offset basis of the low stream of the crate's 128-bit hashes (the
/// high stream starts at [`FNV1A64_OFFSET`]).
const FNV_LO_OFFSET: u64 = FNV1A64_OFFSET ^ 0x9E37_79B9_7F4A_7C15;

/// The crate's canonical-string-to-128-bit hash: two independently
/// seeded FNV-1a-64 streams over the same bytes (shared by the
/// structural hash and the semantic functional digest).
fn fnv_u128(canonical: &str) -> u128 {
    let hi = fnv1a64(canonical.as_bytes(), FNV1A64_OFFSET);
    let lo = fnv1a64(canonical.as_bytes(), FNV_LO_OFFSET);
    (u128::from(hi) << 64) | u128::from(lo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use apx_gates::NetlistBuilder;

    fn adder() -> Netlist {
        apx_arith::ripple_carry_adder(4)
    }

    #[test]
    fn clean_netlists_produce_no_diagnostics() {
        assert!(lint_netlist(&adder()).is_empty());
        assert!(lint_component(&adder(), Operator::Add, 4).is_empty());
        assert!(lint_netlist(&apx_arith::array_multiplier(4)).is_empty());
        assert!(lint_component(&apx_arith::array_multiplier(4), Operator::Mul, 4).is_empty());
    }

    #[test]
    fn each_structural_diagnostic_fires_on_a_minimally_broken_netlist() {
        let nl = adder();
        let (ni, nodes, outputs) = (nl.num_inputs(), nl.nodes().to_vec(), nl.outputs().to_vec());

        // Minimal break 1: first node reads itself (forward reference).
        let mut bad = nodes.clone();
        bad[0].a = SignalId(ni as u32);
        let diags = lint_parts(ni, &bad, &outputs);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].name(), "operand-out-of-range");
        assert_eq!(diags[0].severity(), Severity::Error);
        assert_eq!(diags[0].span(), Span::Node(0));

        // Minimal break 2: the `b` slot of a later node jumps ahead.
        let mut bad = nodes.clone();
        bad[3].b = SignalId((ni + nodes.len()) as u32);
        let diags = lint_parts(ni, &bad, &outputs);
        assert_eq!(diags.len(), 1);
        assert!(matches!(diags[0], Diagnostic::OperandOutOfRange { node: 3, operand: 'b', .. }));

        // Minimal break 3: one output past the last signal.
        let mut bad = outputs.clone();
        bad[2] = SignalId(nl.num_signals() as u32);
        let diags = lint_parts(ni, &nodes, &bad);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].name(), "output-out-of-range");
        assert_eq!(diags[0].span(), Span::Output(2));

        // Minimal break 4: no outputs at all.
        let diags = lint_parts(ni, &nodes, &[]);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0], Diagnostic::NoOutputs);
        assert_eq!(diags[0].span(), Span::Netlist);
    }

    #[test]
    fn width_contract_diagnostics_fire() {
        let nl = adder(); // 8 inputs, 5 outputs
        let diags = lint_component(&nl, Operator::Mul, 4);
        assert_eq!(diags.len(), 1, "8 inputs fit Mul w4; 5 outputs do not: {diags:?}");
        assert_eq!(
            diags[0],
            Diagnostic::OutputArity { op: Operator::Mul, width: 4, expected: 8, got: 5 }
        );
        let diags = lint_component(&nl, Operator::Add, 3);
        assert_eq!(
            diags,
            vec![
                Diagnostic::InputArity { op: Operator::Add, width: 3, expected: 6, got: 8 },
                Diagnostic::OutputArity { op: Operator::Add, width: 3, expected: 4, got: 5 },
            ]
        );
        // Width 11 is evaluable on the symbolic backend, so it lints for
        // arity instead of being rejected; width 17 exceeds every backend.
        let diags = lint_component(&nl, Operator::Mul, 11);
        assert_eq!(
            diags,
            vec![
                Diagnostic::InputArity { op: Operator::Mul, width: 11, expected: 22, got: 8 },
                Diagnostic::OutputArity { op: Operator::Mul, width: 11, expected: 22, got: 5 },
            ]
        );
        let diags = lint_component(&nl, Operator::Mul, 17);
        assert_eq!(diags, vec![Diagnostic::UnsupportedWidth { op: Operator::Mul, width: 17 }]);
        assert!(has_errors(&diags));
    }

    #[test]
    fn constant_propagation_is_per_gate_exact() {
        // y0 = and(x0, const0) is provably 0 even though x0 is unknown;
        // y1 = or(x0, const1) is provably 1; y2 = xor(x0, x0) is NOT
        // folded (ternary propagation is per-gate, not per-path — the
        // two operand reads are treated independently).
        let mut b = NetlistBuilder::new(1);
        let x = b.input(0);
        let zero = b.const0();
        let one = b.const1();
        let y0 = b.and(x, zero);
        let y1 = b.or(x, one);
        let y2 = b.xor(x, x);
        b.outputs(&[y0, y1, y2]);
        let nl = b.finish().unwrap();
        let vals = constant_signals(&nl);
        assert_eq!(vals[y0.index()], Some(false));
        assert_eq!(vals[y1.index()], Some(true));
        assert_eq!(vals[y2.index()], None, "per-gate ternary analysis cannot see x ^ x = 0");

        let diags = lint_netlist(&nl);
        let stuck: Vec<_> = diags.iter().filter(|d| d.name() == "stuck-output").collect();
        assert_eq!(stuck.len(), 2);
        assert!(diags.iter().all(|d| d.severity() == Severity::Warning));
        assert!(!has_errors(&diags));
    }

    #[test]
    fn pinned_inputs_flow_through() {
        let nl = adder();
        // a = 0b0011, b unknown: sum bit 0 = a0 xor b0 stays unknown,
        // but pinning b too makes everything constant.
        let mut inputs = vec![None; 8];
        for (i, v) in [true, true, false, false].into_iter().enumerate() {
            inputs[i] = Some(v);
        }
        let vals = propagate_constants(&nl, &inputs);
        assert!(nl.outputs().iter().any(|o| vals[o.index()].is_none()));
        for (i, v) in [true, false, true, false].into_iter().enumerate() {
            inputs[4 + i] = Some(v);
        }
        let vals = propagate_constants(&nl, &inputs);
        // 3 + 5 = 8 = 0b01000 over (s0..s3, carry).
        let got: Vec<bool> = nl.outputs().iter().map(|o| vals[o.index()].unwrap()).collect();
        assert_eq!(got, [false, false, false, true, false]);
    }

    #[test]
    fn dead_nodes_are_reported() {
        let mut b = NetlistBuilder::new(2);
        let (x, y) = (b.input(0), b.input(1));
        let live = b.and(x, y);
        let dead = b.xor(x, y);
        let _ = dead;
        b.outputs(&[live]);
        let nl = b.finish().unwrap();
        let diags = lint_netlist(&nl);
        assert_eq!(diags, vec![Diagnostic::DeadNode { node: 1 }]);
        assert_eq!(diags[0].severity(), Severity::Warning);
        assert_eq!(diags[0].span(), Span::Node(1));
    }

    #[test]
    fn structural_errors_suppress_the_dataflow_pass() {
        // `lint_netlist` on a valid netlist never sees raw broken parts
        // (the constructor rejects them), so exercise the guard through
        // `lint_parts` + the documented contract: errors short-circuit.
        let nl = adder();
        let mut bad = nl.nodes().to_vec();
        bad[0].a = SignalId(500);
        let diags = lint_parts(nl.num_inputs(), &bad, nl.outputs());
        assert!(has_errors(&diags));
        assert!(diags.iter().all(|d| d.severity() == Severity::Error));
    }

    #[test]
    fn display_names_match_diagnostic_names() {
        let samples = [
            Diagnostic::OperandOutOfRange { node: 0, operand: 'a', signal: 9, limit: 4 },
            Diagnostic::OutputOutOfRange { output: 1, signal: 9, limit: 4 },
            Diagnostic::NoOutputs,
            Diagnostic::UnsupportedWidth { op: Operator::Mac, width: 9 },
            Diagnostic::InputArity { op: Operator::Mul, width: 4, expected: 8, got: 7 },
            Diagnostic::OutputArity { op: Operator::Mul, width: 4, expected: 8, got: 7 },
            Diagnostic::StuckOutput { output: 0, value: true },
            Diagnostic::DeadNode { node: 3 },
        ];
        for d in samples {
            assert!(d.to_string().starts_with(d.name()), "{d} vs {}", d.name());
        }
    }

    #[test]
    fn structural_hash_ignores_dead_nodes() {
        let mut b = NetlistBuilder::new(2);
        let (x, y) = (b.input(0), b.input(1));
        let live = b.and(x, y);
        b.outputs(&[live]);
        let lean = b.finish().unwrap();

        let mut b = NetlistBuilder::new(2);
        let (x, y) = (b.input(0), b.input(1));
        let live = b.and(x, y);
        let _dead = b.xor(x, y);
        b.outputs(&[live]);
        let fat = b.finish().unwrap();

        assert_eq!(structural_hash(&lean), structural_hash(&fat));
        let mut b = NetlistBuilder::new(2);
        let (x, y) = (b.input(0), b.input(1));
        let live = b.or(x, y);
        b.outputs(&[live]);
        let other = b.finish().unwrap();
        assert_ne!(structural_hash(&lean), structural_hash(&other));
    }
}
