//! The netlist intermediate representation.

use crate::{GateKind, NetlistError};

/// Identifier of a signal inside a [`Netlist`].
///
/// Signals `0 .. num_inputs` are primary inputs; signal `num_inputs + k` is
/// the output of node `k`. The numbering matches the addressing scheme of
/// Cartesian Genetic Programming (paper §III-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SignalId(pub u32);

impl SignalId {
    /// Raw index as `usize`.
    #[inline]
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u32> for SignalId {
    fn from(v: u32) -> Self {
        SignalId(v)
    }
}

/// One two-input gate instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Node {
    /// Boolean function computed by the node.
    pub kind: GateKind,
    /// First operand.
    pub a: SignalId,
    /// Second operand (ignored by unary/constant gates, must still be valid).
    pub b: SignalId,
}

/// A combinational circuit: topologically ordered two-input gates.
///
/// Invariants (checked by [`NetlistBuilder::finish`] and [`Netlist::validate`]):
///
/// * every node's operands refer to primary inputs or to *earlier* nodes
///   (the list is a topological order; no feedback is representable);
/// * every output refers to a valid signal;
/// * there is at least one output.
///
/// The structure intentionally permits *redundant* (dead) nodes — CGP relies
/// on inactive genetic material for neutral drift. Use [`Netlist::compact`]
/// to strip dead nodes before cost estimation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Netlist {
    num_inputs: usize,
    nodes: Vec<Node>,
    outputs: Vec<SignalId>,
}

impl Netlist {
    /// Creates a netlist from raw parts, validating all invariants.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError`] if an operand or output references a signal
    /// that does not exist or is not strictly earlier in the order, or if
    /// `outputs` is empty.
    pub fn new(
        num_inputs: usize,
        nodes: Vec<Node>,
        outputs: Vec<SignalId>,
    ) -> Result<Self, NetlistError> {
        let nl = Netlist { num_inputs, nodes, outputs };
        nl.validate()?;
        Ok(nl)
    }

    /// Number of primary inputs.
    #[inline]
    #[must_use]
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Number of primary outputs.
    #[inline]
    #[must_use]
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// All gate instances in topological order.
    #[inline]
    #[must_use]
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Primary output signals.
    #[inline]
    #[must_use]
    pub fn outputs(&self) -> &[SignalId] {
        &self.outputs
    }

    /// Total number of gate instances, including dead ones.
    #[inline]
    #[must_use]
    pub fn gate_count(&self) -> usize {
        self.nodes.len()
    }

    /// Total number of signals (inputs + node outputs).
    #[inline]
    #[must_use]
    pub fn num_signals(&self) -> usize {
        self.num_inputs + self.nodes.len()
    }

    /// Checks all structural invariants.
    ///
    /// # Errors
    ///
    /// See [`Netlist::new`].
    pub fn validate(&self) -> Result<(), NetlistError> {
        if self.outputs.is_empty() {
            return Err(NetlistError::NoOutputs);
        }
        for (k, node) in self.nodes.iter().enumerate() {
            let limit = (self.num_inputs + k) as u32;
            if node.a.0 >= limit {
                return Err(NetlistError::ForwardReference { node: k, operand: node.a });
            }
            if node.b.0 >= limit {
                return Err(NetlistError::ForwardReference { node: k, operand: node.b });
            }
        }
        let total = self.num_signals() as u32;
        for (k, out) in self.outputs.iter().enumerate() {
            if out.0 >= total {
                return Err(NetlistError::InvalidOutput { output: k, signal: *out });
            }
        }
        Ok(())
    }

    /// Replaces node `k`'s definition, checking it as
    /// [`Netlist::validate`] would, and returns the previous one.
    ///
    /// This is how an incremental caller turns one netlist into a
    /// same-shape neighbour (and back) without rebuilding it.
    ///
    /// # Errors
    ///
    /// [`NetlistError::ForwardReference`] if an operand is not strictly
    /// earlier than the node; the netlist is then left unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `k >= self.gate_count()`.
    pub fn set_node(&mut self, k: usize, node: Node) -> Result<Node, NetlistError> {
        let limit = (self.num_inputs + k) as u32;
        let slot = &mut self.nodes[k];
        for operand in [node.a, node.b] {
            if operand.0 >= limit {
                return Err(NetlistError::ForwardReference { node: k, operand });
            }
        }
        Ok(std::mem::replace(slot, node))
    }

    /// Redirects output `j` to `signal`, checking it as
    /// [`Netlist::validate`] would, and returns the previous signal.
    ///
    /// # Errors
    ///
    /// [`NetlistError::InvalidOutput`] if `signal` does not exist; the
    /// netlist is then left unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.num_outputs()`.
    pub fn set_output(&mut self, j: usize, signal: SignalId) -> Result<SignalId, NetlistError> {
        let total = self.num_signals() as u32;
        let slot = &mut self.outputs[j];
        if signal.0 >= total {
            return Err(NetlistError::InvalidOutput { output: j, signal });
        }
        Ok(std::mem::replace(slot, signal))
    }

    /// Marks signals in the transitive fan-in of the outputs.
    ///
    /// Returns one flag per signal (inputs first, then nodes). A node whose
    /// flag is `false` is dead genetic material and contributes nothing to
    /// function, area or power.
    #[must_use]
    pub fn active_mask(&self) -> Vec<bool> {
        let mut active = Vec::new();
        self.fill_active_mask(&mut active);
        active
    }

    /// [`Netlist::active_mask`] into a caller-owned buffer, which is
    /// overwritten (and resized to one flag per signal), so a caller that
    /// refreshes the mask repeatedly allocates nothing.
    pub fn fill_active_mask(&self, active: &mut Vec<bool>) {
        active.clear();
        active.resize(self.num_signals(), false);
        for out in &self.outputs {
            active[out.index()] = true;
        }
        for k in (0..self.nodes.len()).rev() {
            let sig = self.num_inputs + k;
            if active[sig] {
                let node = &self.nodes[k];
                match node.kind.arity() {
                    0 => {}
                    1 => active[node.a.index()] = true,
                    _ => {
                        active[node.a.index()] = true;
                        active[node.b.index()] = true;
                    }
                }
            }
        }
    }

    /// Number of *live* gates (transitive fan-in of the outputs).
    #[must_use]
    pub fn active_gate_count(&self) -> usize {
        self.active_mask()[self.num_inputs..].iter().filter(|&&a| a).count()
    }

    /// Returns an equivalent netlist with all dead nodes removed.
    ///
    /// Outputs, inputs and the functions computed are unchanged; only
    /// inactive nodes disappear and node indices are renumbered.
    #[must_use]
    pub fn compact(&self) -> Netlist {
        let active = self.active_mask();
        let mut remap = vec![u32::MAX; self.num_signals()];
        for (i, slot) in remap.iter_mut().enumerate().take(self.num_inputs) {
            *slot = i as u32;
        }
        let mut nodes = Vec::with_capacity(self.active_gate_count());
        for (k, node) in self.nodes.iter().enumerate() {
            let sig = self.num_inputs + k;
            if !active[sig] {
                continue;
            }
            let map = |s: SignalId, used: bool| -> SignalId {
                if used {
                    SignalId(remap[s.index()])
                } else {
                    // Unused operand slots of unary/const gates may point at
                    // dead signals; retarget them to input 0 (or signal 0).
                    SignalId(0)
                }
            };
            let arity = node.kind.arity();
            let new_node =
                Node { kind: node.kind, a: map(node.a, arity >= 1), b: map(node.b, arity >= 2) };
            remap[sig] = (self.num_inputs + nodes.len()) as u32;
            nodes.push(new_node);
        }
        let outputs = self.outputs.iter().map(|o| SignalId(remap[o.index()])).collect();
        Netlist { num_inputs: self.num_inputs, nodes, outputs }
    }

    /// Pushes one value per primary input through every gate in
    /// topological order and returns the values at the outputs — the one
    /// traversal behind Boolean evaluation and BDD compilation.
    ///
    /// `gate` computes a node's value from its kind and its two operand
    /// values (unary and constant gates receive their ignored operand
    /// too). Returning `None` stops the traversal, and `propagate` then
    /// returns `None` (a budgeted compiler gives up this way).
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != self.num_inputs()`.
    pub fn propagate<T: Copy>(
        &self,
        inputs: &[T],
        mut gate: impl FnMut(GateKind, T, T) -> Option<T>,
    ) -> Option<Vec<T>> {
        assert_eq!(inputs.len(), self.num_inputs, "input arity mismatch");
        let mut values = Vec::with_capacity(self.num_signals());
        values.extend_from_slice(inputs);
        for node in &self.nodes {
            let v = gate(node.kind, values[node.a.index()], values[node.b.index()])?;
            values.push(v);
        }
        Some(self.outputs.iter().map(|o| values[o.index()]).collect())
    }

    /// Evaluates the netlist on a single Boolean input vector.
    ///
    /// Intended for cross-checking the bit-parallel simulator and for tiny
    /// circuits; use [`crate::Exhaustive`] / [`crate::TileSim`] for
    /// anything performance-sensitive.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != self.num_inputs()`.
    #[must_use]
    pub fn eval_bool(&self, inputs: &[bool]) -> Vec<bool> {
        self.propagate(inputs, |kind, a, b| Some(kind.eval_bool(a, b)))
            .expect("Boolean evaluation never stops early")
    }

    /// Per-signal logic depth (primary inputs are depth 0).
    ///
    /// Dead nodes still get a depth; use together with
    /// [`Netlist::active_mask`] when only the live cone matters.
    #[must_use]
    pub fn depths(&self) -> Vec<u32> {
        let mut depth = vec![0u32; self.num_signals()];
        for (k, node) in self.nodes.iter().enumerate() {
            let sig = self.num_inputs + k;
            depth[sig] = match node.kind.arity() {
                0 => 0,
                1 => depth[node.a.index()] + 1,
                _ => depth[node.a.index()].max(depth[node.b.index()]) + 1,
            };
        }
        depth
    }

    /// Logic depth of the deepest primary output (unit gate delay).
    #[must_use]
    pub fn depth(&self) -> u32 {
        let depths = self.depths();
        self.outputs.iter().map(|o| depths[o.index()]).max().unwrap_or(0)
    }
}

/// Incremental constructor for [`Netlist`] (non-consuming builder).
///
/// Gate helper methods ([`NetlistBuilder::and`], [`NetlistBuilder::xor`], …)
/// append a node and return its output [`SignalId`], which makes structural
/// generators (adders, multiplier arrays) read like dataflow descriptions.
///
/// # Examples
///
/// ```
/// use apx_gates::NetlistBuilder;
///
/// let mut b = NetlistBuilder::new(2);
/// let (x, y) = (b.input(0), b.input(1));
/// let s = b.xor(x, y);
/// b.outputs(&[s]);
/// let xor_gate = b.finish().unwrap();
/// assert_eq!(xor_gate.gate_count(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct NetlistBuilder {
    num_inputs: usize,
    nodes: Vec<Node>,
    outputs: Vec<SignalId>,
}

impl NetlistBuilder {
    /// Starts a netlist with `num_inputs` primary inputs.
    #[must_use]
    pub fn new(num_inputs: usize) -> Self {
        NetlistBuilder { num_inputs, nodes: Vec::new(), outputs: Vec::new() }
    }

    /// Signal id of primary input `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_inputs`.
    #[must_use]
    pub fn input(&self, i: usize) -> SignalId {
        assert!(i < self.num_inputs, "input index out of range");
        SignalId(i as u32)
    }

    /// Appends a node computing `kind(a, b)` and returns its output signal.
    pub fn push(&mut self, kind: GateKind, a: SignalId, b: SignalId) -> SignalId {
        let id = SignalId((self.num_inputs + self.nodes.len()) as u32);
        self.nodes.push(Node { kind, a, b });
        id
    }

    /// Constant-0 signal (adds a `Const0` node).
    pub fn const0(&mut self) -> SignalId {
        let z = SignalId(0);
        self.push(GateKind::Const0, z, z)
    }

    /// Constant-1 signal (adds a `Const1` node).
    pub fn const1(&mut self) -> SignalId {
        let z = SignalId(0);
        self.push(GateKind::Const1, z, z)
    }

    /// `!a`.
    pub fn not(&mut self, a: SignalId) -> SignalId {
        self.push(GateKind::Not, a, a)
    }

    /// `a & b`.
    pub fn and(&mut self, a: SignalId, b: SignalId) -> SignalId {
        self.push(GateKind::And, a, b)
    }

    /// `!(a & b)`.
    pub fn nand(&mut self, a: SignalId, b: SignalId) -> SignalId {
        self.push(GateKind::Nand, a, b)
    }

    /// `a | b`.
    pub fn or(&mut self, a: SignalId, b: SignalId) -> SignalId {
        self.push(GateKind::Or, a, b)
    }

    /// `!(a | b)`.
    pub fn nor(&mut self, a: SignalId, b: SignalId) -> SignalId {
        self.push(GateKind::Nor, a, b)
    }

    /// `a ^ b`.
    pub fn xor(&mut self, a: SignalId, b: SignalId) -> SignalId {
        self.push(GateKind::Xor, a, b)
    }

    /// `!(a ^ b)`.
    pub fn xnor(&mut self, a: SignalId, b: SignalId) -> SignalId {
        self.push(GateKind::Xnor, a, b)
    }

    /// `a & !b`.
    pub fn and_not(&mut self, a: SignalId, b: SignalId) -> SignalId {
        self.push(GateKind::AndNotB, a, b)
    }

    /// Majority of three signals (carry logic): `ab | ac | bc`.
    pub fn majority(&mut self, a: SignalId, b: SignalId, c: SignalId) -> SignalId {
        let ab = self.and(a, b);
        let axb = self.xor(a, b);
        let c_sel = self.and(axb, c);
        self.or(ab, c_sel)
    }

    /// Full adder: returns `(sum, carry)`.
    pub fn full_adder(&mut self, a: SignalId, b: SignalId, cin: SignalId) -> (SignalId, SignalId) {
        let axb = self.xor(a, b);
        let sum = self.xor(axb, cin);
        let ab = self.and(a, b);
        let cc = self.and(axb, cin);
        let carry = self.or(ab, cc);
        (sum, carry)
    }

    /// Half adder: returns `(sum, carry)`.
    pub fn half_adder(&mut self, a: SignalId, b: SignalId) -> (SignalId, SignalId) {
        (self.xor(a, b), self.and(a, b))
    }

    /// Instantiates `netlist` as a sub-circuit.
    ///
    /// `input_map[i]` supplies the signal that drives the sub-circuit's
    /// primary input `i`. All nodes of `netlist` are copied (with operands
    /// remapped) and the sub-circuit's output signals are returned. This is
    /// how composite datapaths (e.g. a MAC = multiplier + accumulator adder)
    /// are assembled from independently generated blocks.
    ///
    /// # Panics
    ///
    /// Panics if `input_map.len() != netlist.num_inputs()` or if an entry of
    /// `input_map` is not yet a valid signal in the builder.
    pub fn embed(&mut self, netlist: &Netlist, input_map: &[SignalId]) -> Vec<SignalId> {
        assert_eq!(input_map.len(), netlist.num_inputs(), "embed: input map arity mismatch");
        let current = (self.num_inputs + self.nodes.len()) as u32;
        for sig in input_map {
            assert!(sig.0 < current, "embed: input map references future signal");
        }
        let inner_inputs = netlist.num_inputs();
        let mut remap: Vec<SignalId> = Vec::with_capacity(netlist.num_signals());
        remap.extend_from_slice(input_map);
        for node in netlist.nodes() {
            let a = remap[node.a.index()];
            let b = remap[node.b.index()];
            let new_id = self.push(node.kind, a, b);
            remap.push(new_id);
        }
        debug_assert_eq!(remap.len(), inner_inputs + netlist.gate_count());
        netlist.outputs().iter().map(|o| remap[o.index()]).collect()
    }

    /// Declares the primary outputs (replacing any previous declaration).
    pub fn outputs(&mut self, outs: &[SignalId]) -> &mut Self {
        self.outputs = outs.to_vec();
        self
    }

    /// Number of nodes appended so far.
    #[must_use]
    pub fn gate_count(&self) -> usize {
        self.nodes.len()
    }

    /// Finalizes and validates the netlist.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError`] if outputs were never declared or any
    /// invariant fails (see [`Netlist::new`]).
    pub fn finish(&self) -> Result<Netlist, NetlistError> {
        Netlist::new(self.num_inputs, self.nodes.clone(), self.outputs.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_adder_netlist() -> Netlist {
        let mut b = NetlistBuilder::new(3);
        let (x, y, c) = (b.input(0), b.input(1), b.input(2));
        let (s, co) = b.full_adder(x, y, c);
        b.outputs(&[s, co]);
        b.finish().unwrap()
    }

    #[test]
    fn full_adder_truth_table() {
        let nl = full_adder_netlist();
        for v in 0..8u32 {
            let bits = [(v & 1) == 1, (v & 2) == 2, (v & 4) == 4];
            let out = nl.eval_bool(&bits);
            let expect = bits.iter().filter(|&&x| x).count() as u32;
            let got = out[0] as u32 + ((out[1] as u32) << 1);
            assert_eq!(got, expect, "popcount mismatch for {v:03b}");
        }
    }

    #[test]
    fn propagate_stops_when_the_gate_step_does() {
        let nl = full_adder_netlist();
        // Gate depth per signal: the outputs see their logic depth.
        let depth = nl.propagate(&[0u32; 3], |_, a, b| Some(a.max(b) + 1)).unwrap();
        assert_eq!(depth, vec![2, 3]);
        // A step that gives up after three gates ends the traversal there.
        let mut applied = 0;
        let stopped = nl.propagate(&[false; 3], |kind, a, b| {
            applied += 1;
            (applied <= 3).then(|| kind.eval_bool(a, b))
        });
        assert_eq!(stopped, None);
        assert_eq!(applied, 4);
    }

    #[test]
    fn validate_rejects_forward_reference() {
        let nodes = vec![Node { kind: GateKind::And, a: SignalId(0), b: SignalId(5) }];
        let err = Netlist::new(2, nodes, vec![SignalId(2)]).unwrap_err();
        assert!(matches!(err, NetlistError::ForwardReference { .. }));
    }

    #[test]
    fn validate_rejects_bad_output() {
        let err = Netlist::new(2, vec![], vec![SignalId(9)]).unwrap_err();
        assert!(matches!(err, NetlistError::InvalidOutput { .. }));
    }

    #[test]
    fn validate_rejects_no_outputs() {
        let err = Netlist::new(2, vec![], vec![]).unwrap_err();
        assert!(matches!(err, NetlistError::NoOutputs));
    }

    #[test]
    fn self_reference_is_forward_reference() {
        // Node 0's output is signal 2; referencing it from itself is illegal.
        let nodes = vec![Node { kind: GateKind::And, a: SignalId(2), b: SignalId(0) }];
        assert!(Netlist::new(2, nodes, vec![SignalId(2)]).is_err());
    }

    #[test]
    fn active_mask_finds_dead_nodes() {
        let mut b = NetlistBuilder::new(2);
        let (x, y) = (b.input(0), b.input(1));
        let live = b.and(x, y);
        let _dead = b.or(x, y);
        b.outputs(&[live]);
        let nl = b.finish().unwrap();
        assert_eq!(nl.gate_count(), 2);
        assert_eq!(nl.active_gate_count(), 1);
        let mask = nl.active_mask();
        assert!(mask[live.index()]);
        assert!(!mask[3]); // the OR node
    }

    #[test]
    fn compact_preserves_function() {
        let mut b = NetlistBuilder::new(3);
        let (x, y, c) = (b.input(0), b.input(1), b.input(2));
        let _dead1 = b.nor(x, y);
        let (s, co) = b.full_adder(x, y, c);
        let _dead2 = b.xnor(s, co);
        b.outputs(&[s, co]);
        let nl = b.finish().unwrap();
        let compacted = nl.compact();
        assert!(compacted.gate_count() < nl.gate_count());
        assert_eq!(compacted.gate_count(), compacted.active_gate_count());
        for v in 0..8u32 {
            let bits = [(v & 1) == 1, (v & 2) == 2, (v & 4) == 4];
            assert_eq!(nl.eval_bool(&bits), compacted.eval_bool(&bits));
        }
        compacted.validate().expect("compacted netlist stays valid");
    }

    #[test]
    fn depth_of_full_adder() {
        let nl = full_adder_netlist();
        // sum path: xor -> xor = 2; carry path: xor -> and -> or = 3.
        assert_eq!(nl.depth(), 3);
    }

    #[test]
    fn majority_gate_votes() {
        let mut b = NetlistBuilder::new(3);
        let (x, y, c) = (b.input(0), b.input(1), b.input(2));
        let m = b.majority(x, y, c);
        b.outputs(&[m]);
        let nl = b.finish().unwrap();
        for v in 0..8u32 {
            let bits = [(v & 1) == 1, (v & 2) == 2, (v & 4) == 4];
            let expect = bits.iter().filter(|&&x| x).count() >= 2;
            assert_eq!(nl.eval_bool(&bits)[0], expect);
        }
    }

    #[test]
    fn embed_composes_circuits() {
        // Embed a full adder twice to build a 2-bit ripple adder.
        let fa = full_adder_netlist();
        let mut b = NetlistBuilder::new(4); // a0 a1 b0 b1
        let zero = b.const0();
        let lo = b.embed(&fa, &[SignalId(0), SignalId(2), zero]);
        let hi = b.embed(&fa, &[SignalId(1), SignalId(3), lo[1]]);
        b.outputs(&[lo[0], hi[0], hi[1]]);
        let nl = b.finish().unwrap();
        for v in 0..16u32 {
            let bits: Vec<bool> = (0..4).map(|i| (v >> i) & 1 == 1).collect();
            let a = v & 3;
            let bb = (v >> 2) & 3;
            let out = nl.eval_bool(&bits);
            let got = out[0] as u32 + ((out[1] as u32) << 1) + ((out[2] as u32) << 2);
            assert_eq!(got, a + bb, "{a}+{bb}");
        }
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn embed_rejects_wrong_arity() {
        let fa = full_adder_netlist();
        let mut b = NetlistBuilder::new(2);
        let x = b.input(0);
        b.embed(&fa, &[x, x]);
    }

    #[test]
    fn outputs_may_tap_primary_inputs() {
        let mut b = NetlistBuilder::new(2);
        let x = b.input(0);
        b.outputs(&[x]);
        let nl = b.finish().unwrap();
        assert_eq!(nl.eval_bool(&[true, false]), vec![true]);
        assert_eq!(nl.active_gate_count(), 0);
    }
}
