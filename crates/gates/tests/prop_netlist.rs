//! Property-based tests on netlist invariants.

use apx_gates::{Exhaustive, GateKind, Netlist, NetlistBuilder, NetlistError, Node, SignalId};
use proptest::prelude::*;

/// Gene lists for [`netlist_from`]: one `(a, b, function)` triple per node
/// and 1–4 output picks, each reduced modulo the signals in reach.
type Genes = (Vec<(u32, u32, usize)>, Vec<u32>);

/// Strategy: 1..=`max_nodes` node genes and 1–4 output genes.
fn arb_genes(max_nodes: usize) -> impl Strategy<Value = Genes> {
    (1..=max_nodes).prop_flat_map(|n| {
        let genes = proptest::collection::vec((any::<u32>(), any::<u32>(), 0usize..14), n);
        let outs = proptest::collection::vec(any::<u32>(), 1..=4);
        (genes, outs)
    })
}

/// The valid netlist with `ni` inputs that `genes` encode. Outputs pick
/// random signals, so most netlists carry dead nodes.
fn netlist_from(ni: usize, (genes, outs): &Genes) -> Netlist {
    let mut b = NetlistBuilder::new(ni);
    for (k, (a, bb, f)) in genes.iter().enumerate() {
        let limit = (ni + k) as u32;
        let kind = GateKind::ALL[*f];
        b.push(kind, SignalId(a % limit), SignalId(bb % limit));
    }
    let total = (ni + genes.len()) as u32;
    let outputs: Vec<SignalId> = outs.iter().map(|o| SignalId(o % total)).collect();
    b.outputs(&outputs);
    b.finish().expect("constructed within bounds")
}

/// Strategy: an arbitrary valid netlist with `ni` inputs.
fn arb_netlist(ni: usize, max_nodes: usize) -> impl Strategy<Value = Netlist> {
    arb_genes(max_nodes)
        .prop_map(move |genes| netlist_from(ni, &genes))
        .prop_filter("non-trivial", |nl| nl.gate_count() > 0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn compact_preserves_function(nl in arb_netlist(4, 24)) {
        let compacted = nl.compact();
        prop_assert!(compacted.gate_count() <= nl.gate_count());
        prop_assert_eq!(compacted.gate_count(), compacted.active_gate_count());
        let ex = Exhaustive::new(4);
        prop_assert_eq!(ex.output_table(&nl), ex.output_table(&compacted));
    }

    #[test]
    fn active_mask_is_consistent_with_stats(nl in arb_netlist(5, 20)) {
        // The mask is closed under fan-in: outputs are active, and so is
        // every operand an active gate reads.
        let active = nl.active_mask();
        prop_assert!(nl.outputs().iter().all(|o| active[o.index()]));
        for (k, node) in nl.nodes().iter().enumerate() {
            if active[nl.num_inputs() + k] {
                let reads = [node.a, node.b];
                prop_assert!(reads[..node.kind.arity()].iter().all(|s| active[s.index()]));
            }
        }
        prop_assert!(nl.active_gate_count() <= nl.gate_count());
        prop_assert_eq!(nl.compact().gate_count(), nl.active_gate_count());
    }

    #[test]
    fn exhaustive_table_matches_bool_eval(genes in arb_genes(24)) {
        // Every input count from 2 to 12: one partial block (fewer than 6
        // inputs), 2–8 blocks (a ragged tile) and whole tiles of 16 blocks.
        for ni in 2..=12 {
            let nl = netlist_from(ni, &genes);
            let table = Exhaustive::new(ni).output_table(&nl);
            prop_assert_eq!(table.len(), 1 << ni);
            for (v, &table_word) in table.iter().enumerate() {
                let bits: Vec<bool> = (0..ni).map(|i| (v >> i) & 1 == 1).collect();
                let outs = nl.eval_bool(&bits);
                let packed: u64 = outs.iter().enumerate().map(|(k, &o)| (o as u64) << k).sum();
                prop_assert_eq!(table_word, packed, "ni={} vector {}", ni, v);
            }
        }
    }

    #[test]
    fn depth_bounds_active_gate_count(nl in arb_netlist(4, 24)) {
        // Depth can never exceed the number of active gates.
        let depths = nl.depths();
        let max_out_depth = nl.outputs().iter().map(|o| depths[o.index()]).max().unwrap();
        prop_assert!(max_out_depth as usize <= nl.active_gate_count());
    }

    #[test]
    fn embed_is_functionally_transparent(nl in arb_netlist(3, 12)) {
        // Embedding a netlist behind pass-through inputs preserves it.
        let mut b = NetlistBuilder::new(3);
        let inputs: Vec<SignalId> = (0..3).map(|i| b.input(i)).collect();
        let outs = b.embed(&nl, &inputs);
        b.outputs(&outs);
        let wrapped = b.finish().unwrap();
        let ex = Exhaustive::new(3);
        prop_assert_eq!(ex.output_table(&nl), ex.output_table(&wrapped));
    }

    #[test]
    fn checked_patches_reject_what_validate_rejects(
        nl in arb_netlist(4, 24),
        pick in any::<u32>(),
        past in 0u32..8,
        kind in 0usize..14,
    ) {
        // A node patch that reads itself or a later signal, and an output
        // patch past the last signal, fail with the error `validate`
        // reports and leave the netlist as it was.
        let k = pick as usize % nl.gate_count();
        let limit = (nl.num_inputs() + k) as u32;
        let total = nl.num_signals() as u32;
        let mut patched = nl.clone();
        let forward = SignalId(limit + past);
        for (a, b) in [(forward, SignalId(0)), (SignalId(0), forward)] {
            let node = Node { kind: GateKind::ALL[kind], a, b };
            prop_assert_eq!(
                patched.set_node(k, node),
                Err(NetlistError::ForwardReference { node: k, operand: forward })
            );
            prop_assert_eq!(&patched, &nl);
        }
        let j = pick as usize % nl.num_outputs();
        let missing = SignalId(total + past);
        prop_assert_eq!(
            patched.set_output(j, missing),
            Err(NetlistError::InvalidOutput { output: j, signal: missing })
        );
        prop_assert_eq!(&patched, &nl);

        // A legal patch yields exactly the netlist `Netlist::new` builds
        // from the patched parts, and undoing it restores the original.
        let (a, b) = (SignalId(pick % limit), SignalId(limit - 1));
        let node = Node { kind: GateKind::ALL[kind], a, b };
        let old_node = patched.set_node(k, node).unwrap();
        let old_out = patched.set_output(j, SignalId(pick % total)).unwrap();
        let mut nodes = nl.nodes().to_vec();
        nodes[k] = node;
        let mut outputs = nl.outputs().to_vec();
        outputs[j] = SignalId(pick % total);
        prop_assert_eq!(&patched, &Netlist::new(nl.num_inputs(), nodes, outputs).unwrap());
        patched.set_node(k, old_node).unwrap();
        patched.set_output(j, old_out).unwrap();
        prop_assert_eq!(&patched, &nl);
    }
}
