//! The CGP chromosome: an integer-string circuit encoding.

use crate::{CgpError, FunctionSet};
use apx_gates::{Netlist, NetlistBuilder, Node, SignalId};
use apx_rng::Xoshiro256;

/// A CGP chromosome on a `1 × cols` grid (`r = 1`, `n_a = 2`).
///
/// The genotype is `S = cols · 3 + n_o` integers (paper §III-B): each node
/// holds two connection genes and one function gene, followed by one gene
/// per primary output. Connection genes address primary inputs
/// (`0 .. n_i`) or earlier nodes (`n_i + k`), so feedback is
/// unrepresentable by construction. Nodes not reachable from the outputs
/// are *inactive* — they are carried along and mutated (neutral drift) but
/// cost nothing in hardware.
#[derive(Debug, PartialEq, Eq)]
pub struct Chromosome {
    ni: usize,
    no: usize,
    cols: usize,
    funcs: FunctionSet,
    /// Layout: `[a_0, b_0, f_0, a_1, b_1, f_1, …, out_0, …, out_{no-1}]`.
    genes: Vec<u32>,
}

impl Clone for Chromosome {
    fn clone(&self) -> Self {
        Chromosome {
            ni: self.ni,
            no: self.no,
            cols: self.cols,
            funcs: self.funcs.clone(),
            genes: self.genes.clone(),
        }
    }

    /// Copies `source` into `self` reusing the gene and function-set
    /// allocations: the evolution loop overwrites its offspring buffers
    /// with the parent every generation.
    fn clone_from(&mut self, source: &Self) {
        self.ni = source.ni;
        self.no = source.no;
        self.cols = source.cols;
        self.funcs.clone_from(&source.funcs);
        self.genes.clone_from(&source.genes);
    }
}

impl Chromosome {
    /// Encodes a seed netlist onto a grid with `cols` columns.
    ///
    /// The netlist's gates occupy the first columns; remaining columns are
    /// filled with inactive buffer nodes reading input 0, providing the
    /// spare genetic material CGP needs (the paper sizes `c` at 320–490
    /// for the 8-bit multiplier seeds).
    ///
    /// # Errors
    ///
    /// * [`CgpError::GridTooSmall`] if `cols < netlist.gate_count()`;
    /// * [`CgpError::UnsupportedGate`] if a gate kind is not in `funcs`.
    pub fn from_netlist(
        netlist: &Netlist,
        funcs: &FunctionSet,
        cols: usize,
    ) -> Result<Self, CgpError> {
        if cols < netlist.gate_count() {
            return Err(CgpError::GridTooSmall { needed: netlist.gate_count(), cols });
        }
        let ni = netlist.num_inputs();
        let no = netlist.num_outputs();
        let mut genes = Vec::with_capacity(cols * 3 + no);
        for node in netlist.nodes() {
            let f = funcs.index_of(node.kind).ok_or(CgpError::UnsupportedGate(node.kind))?;
            genes.push(node.a.0);
            genes.push(node.b.0);
            genes.push(f as u32);
        }
        // Pad with inactive buffers of input 0 (or the first available
        // function if the set lacks Buf).
        let pad_func = funcs.index_of(apx_gates::GateKind::Buf).unwrap_or(0) as u32;
        for _ in netlist.gate_count()..cols {
            genes.push(0);
            genes.push(0);
            genes.push(pad_func);
        }
        for out in netlist.outputs() {
            genes.push(out.0);
        }
        Ok(Chromosome { ni, no, cols, funcs: funcs.clone(), genes })
    }

    /// A uniformly random chromosome (used by tests and restarts).
    ///
    /// # Panics
    ///
    /// Panics if `ni == 0`, `no == 0` or `cols == 0`.
    #[must_use]
    pub fn random(
        ni: usize,
        no: usize,
        cols: usize,
        funcs: &FunctionSet,
        rng: &mut Xoshiro256,
    ) -> Self {
        assert!(ni > 0 && no > 0 && cols > 0, "dimensions must be positive");
        let mut genes = Vec::with_capacity(cols * 3 + no);
        for k in 0..cols {
            let limit = ni + k;
            genes.push(rng.gen_range(limit) as u32);
            genes.push(rng.gen_range(limit) as u32);
            genes.push(rng.gen_range(funcs.len()) as u32);
        }
        for _ in 0..no {
            genes.push(rng.gen_range(ni + cols) as u32);
        }
        Chromosome { ni, no, cols, funcs: funcs.clone(), genes }
    }

    /// Assembles a chromosome from raw parts (internal; used by the text
    /// parser, which validates afterwards).
    pub(crate) fn from_parts(
        ni: usize,
        no: usize,
        cols: usize,
        funcs: FunctionSet,
        genes: Vec<u32>,
    ) -> Self {
        Chromosome { ni, no, cols, funcs, genes }
    }

    /// Number of primary inputs.
    #[must_use]
    pub fn num_inputs(&self) -> usize {
        self.ni
    }

    /// Number of primary outputs.
    #[must_use]
    pub fn num_outputs(&self) -> usize {
        self.no
    }

    /// Number of grid columns (= candidate nodes).
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The function set this chromosome is encoded against.
    #[must_use]
    pub fn function_set(&self) -> &FunctionSet {
        &self.funcs
    }

    /// Raw genes (node triples followed by output genes).
    #[must_use]
    pub fn genes(&self) -> &[u32] {
        &self.genes
    }

    /// Total gene count `S = 3·cols + no`.
    #[must_use]
    pub fn len(&self) -> usize {
        self.genes.len()
    }

    /// Whether the chromosome has no genes (never true once constructed).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.genes.is_empty()
    }

    pub(crate) fn genes_mut(&mut self) -> &mut [u32] {
        &mut self.genes
    }

    /// Upper bound (exclusive) for the value of gene `idx`, encoding the
    /// CGP legality rule: connection genes address earlier signals only,
    /// function genes address the function set, output genes any signal.
    #[must_use]
    pub fn gene_bound(&self, idx: usize) -> u32 {
        if idx < 3 * self.cols {
            let node = idx / 3;
            match idx % 3 {
                0 | 1 => (self.ni + node) as u32,
                _ => self.funcs.len() as u32,
            }
        } else {
            (self.ni + self.cols) as u32
        }
    }

    /// Checks every gene against [`Chromosome::gene_bound`].
    #[must_use]
    pub fn is_valid(&self) -> bool {
        self.genes.iter().enumerate().all(|(i, &g)| g < self.gene_bound(i))
    }

    /// Node `k` of the grid, as [`Chromosome::decode_full`] decodes it.
    ///
    /// # Panics
    ///
    /// Panics if `k >= self.cols()` or the node's function gene is out of
    /// range.
    #[must_use]
    pub fn node(&self, k: usize) -> Node {
        assert!(k < self.cols, "node {k} out of range");
        let g = &self.genes[3 * k..3 * k + 3];
        Node { kind: self.funcs.kind(g[2] as usize), a: SignalId(g[0]), b: SignalId(g[1]) }
    }

    /// Decodes the full grid into a netlist (inactive nodes included).
    ///
    /// # Panics
    ///
    /// Panics if the chromosome is invalid (should be impossible through
    /// this crate's APIs).
    #[must_use]
    pub fn decode_full(&self) -> Netlist {
        let nodes: Vec<Node> = (0..self.cols).map(|k| self.node(k)).collect();
        let outputs: Vec<SignalId> =
            self.genes[3 * self.cols..].iter().map(|&g| SignalId(g)).collect();
        Netlist::new(self.ni, nodes, outputs).expect("chromosome encodes a valid netlist")
    }

    /// Decodes only the active cone — the phenotype that is simulated,
    /// costed and eventually shipped.
    #[must_use]
    pub fn decode_active(&self) -> Netlist {
        // Mark active nodes by walking back from the outputs, then build
        // the compacted netlist directly (cheaper than decode_full +
        // compact for large, mostly dead grids).
        let ni = self.ni;
        let mut active = vec![false; ni + self.cols];
        let mut stack: Vec<usize> = Vec::new();
        for &out in &self.genes[3 * self.cols..] {
            let s = out as usize;
            if !active[s] {
                active[s] = true;
                stack.push(s);
            }
        }
        while let Some(s) = stack.pop() {
            if s < ni {
                continue;
            }
            let k = s - ni;
            let kind = self.funcs.kind(self.genes[3 * k + 2] as usize);
            let arity = kind.arity();
            if arity >= 1 {
                let a = self.genes[3 * k] as usize;
                if !active[a] {
                    active[a] = true;
                    stack.push(a);
                }
            }
            if arity >= 2 {
                let b = self.genes[3 * k + 1] as usize;
                if !active[b] {
                    active[b] = true;
                    stack.push(b);
                }
            }
        }
        let mut remap = vec![u32::MAX; ni + self.cols];
        for (i, slot) in remap.iter_mut().enumerate().take(ni) {
            *slot = i as u32;
        }
        let mut b = NetlistBuilder::new(ni);
        for k in 0..self.cols {
            let sig = ni + k;
            if !active[sig] {
                continue;
            }
            let kind = self.funcs.kind(self.genes[3 * k + 2] as usize);
            let arity = kind.arity();
            let a =
                if arity >= 1 { SignalId(remap[self.genes[3 * k] as usize]) } else { SignalId(0) };
            let bb = if arity >= 2 { SignalId(remap[self.genes[3 * k + 1] as usize]) } else { a };
            remap[sig] = b.push(kind, a, bb).0;
        }
        let outputs: Vec<SignalId> =
            self.genes[3 * self.cols..].iter().map(|&g| SignalId(remap[g as usize])).collect();
        b.outputs(&outputs);
        b.finish().expect("active decode produces a valid netlist")
    }

    /// Number of active nodes (the phenotype size).
    #[must_use]
    pub fn active_count(&self) -> usize {
        self.decode_active().gate_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apx_arith::{array_multiplier, baugh_wooley_multiplier};
    use apx_gates::Exhaustive;

    fn equivalent(a: &Netlist, b: &Netlist) -> bool {
        assert_eq!(a.num_inputs(), b.num_inputs());
        let ex = Exhaustive::new(a.num_inputs());
        ex.output_table(a) == ex.output_table(b)
    }

    #[test]
    fn clone_from_copies_into_the_existing_buffers() {
        let mut rng = Xoshiro256::from_seed(5);
        let source = Chromosome::random(8, 8, 120, &FunctionSet::standard(), &mut rng);
        let mut target = Chromosome::random(8, 8, 120, &FunctionSet::extended(), &mut rng);
        let genes = target.genes.as_ptr();
        target.clone_from(&source);
        assert_eq!(target, source);
        assert_eq!(target.genes.as_ptr(), genes, "the gene buffer is reused");
    }

    #[test]
    fn encode_decode_preserves_function() {
        let nl = array_multiplier(3);
        let funcs = FunctionSet::standard();
        let chrom = Chromosome::from_netlist(&nl, &funcs, nl.gate_count() + 25).unwrap();
        assert!(chrom.is_valid());
        assert!(equivalent(&nl, &chrom.decode_full()));
        assert!(equivalent(&nl, &chrom.decode_active()));
    }

    #[test]
    fn encode_decode_signed_multiplier() {
        // Baugh-Wooley uses Const1 nodes -> needs the extended set.
        let nl = baugh_wooley_multiplier(3);
        let funcs = FunctionSet::extended();
        let chrom = Chromosome::from_netlist(&nl, &funcs, nl.gate_count()).unwrap();
        assert!(equivalent(&nl, &chrom.decode_active()));
    }

    #[test]
    fn standard_set_rejects_const_gates() {
        let nl = baugh_wooley_multiplier(3);
        let err = Chromosome::from_netlist(&nl, &FunctionSet::standard(), 500).unwrap_err();
        assert!(matches!(err, CgpError::UnsupportedGate(_)));
    }

    #[test]
    fn grid_too_small_is_rejected() {
        let nl = array_multiplier(4);
        let err = Chromosome::from_netlist(&nl, &FunctionSet::standard(), 3).unwrap_err();
        assert!(matches!(err, CgpError::GridTooSmall { .. }));
    }

    #[test]
    fn padding_nodes_are_inactive() {
        let nl = array_multiplier(3);
        let funcs = FunctionSet::standard();
        let chrom = Chromosome::from_netlist(&nl, &funcs, nl.gate_count() + 100).unwrap();
        assert_eq!(chrom.cols(), nl.gate_count() + 100);
        // Active cone unchanged by padding.
        assert_eq!(chrom.decode_active().gate_count(), nl.compact().gate_count());
    }

    #[test]
    fn random_chromosomes_are_valid_and_decodable() {
        let mut rng = Xoshiro256::from_seed(5);
        let funcs = FunctionSet::extended();
        for _ in 0..50 {
            let c = Chromosome::random(4, 3, 30, &funcs, &mut rng);
            assert!(c.is_valid());
            let nl = c.decode_full();
            nl.validate().unwrap();
            let active = c.decode_active();
            assert!(equivalent(&nl, &active));
        }
    }

    #[test]
    fn gene_bounds_follow_cgp_rules() {
        let mut rng = Xoshiro256::from_seed(1);
        let c = Chromosome::random(4, 2, 10, &FunctionSet::standard(), &mut rng);
        assert_eq!(c.gene_bound(0), 4); // node 0 input: only primary inputs
        assert_eq!(c.gene_bound(2), 8); // function gene
        assert_eq!(c.gene_bound(3), 5); // node 1 input: inputs + node 0
        assert_eq!(c.gene_bound(c.len() - 1), 14); // output gene
        assert_eq!(c.len(), 32);
    }

    #[test]
    fn active_count_matches_compact() {
        let nl = array_multiplier(4);
        let chrom =
            Chromosome::from_netlist(&nl, &FunctionSet::standard(), nl.gate_count() + 50).unwrap();
        assert_eq!(chrom.active_count(), nl.compact().gate_count());
    }
}
