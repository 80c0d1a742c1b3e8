//! Fanout-cone extraction.
//!
//! A [`Netlist`] stores its gates in topological order, which is all the
//! evaluation engine in `apx_metrics` needs to simulate it: it walks the
//! nodes in netlist order. Incremental re-evaluation needs one more
//! structural view, the **fanout cone**: given a set of changed nodes, the
//! set of nodes whose value can differ because of the change. A CGP
//! mutation touches a handful of nodes, and only their forward closure has
//! to be re-simulated against the cached signal rows.

use crate::Netlist;

/// Forward closure of a set of changed nodes.
///
/// Returns the sorted node indices whose output word can change when the
/// definitions of `sources` change: the sources themselves plus every node
/// that transitively reads one of them. Because a [`Netlist`] is
/// topologically ordered this is a single forward scan — no reverse
/// adjacency is ever materialized.
///
/// Nodes whose gate ignores an operand slot (unary gates, constants) do
/// not propagate taint through the ignored slot.
///
/// # Panics
///
/// Panics if a source index is out of range.
///
/// # Examples
///
/// ```
/// use apx_gates::{fanout_cone, NetlistBuilder};
///
/// let mut b = NetlistBuilder::new(2);
/// let (x, y) = (b.input(0), b.input(1));
/// let a = b.and(x, y);   // node 0
/// let o = b.or(x, y);    // node 1 (independent of node 0)
/// let s = b.xor(a, y);   // node 2 (reads node 0)
/// b.outputs(&[o, s]);
/// let nl = b.finish().unwrap();
///
/// assert_eq!(fanout_cone(&nl, &[0]), vec![0, 2]);
/// assert_eq!(fanout_cone(&nl, &[1]), vec![1]);
/// ```
#[must_use]
pub fn fanout_cone(netlist: &Netlist, sources: &[u32]) -> Vec<u32> {
    let ni = netlist.num_inputs();
    let mut dirty = vec![false; netlist.num_signals()];
    let mut first = usize::MAX;
    for &s in sources {
        let k = s as usize;
        assert!(k < netlist.gate_count(), "source node {k} out of range");
        dirty[ni + k] = true;
        first = first.min(k);
    }
    let mut cone = Vec::new();
    if first == usize::MAX {
        return cone;
    }
    for (k, node) in netlist.nodes().iter().enumerate().skip(first) {
        let sig = ni + k;
        let tainted = dirty[sig]
            || match node.kind.arity() {
                0 => false,
                1 => dirty[node.a.index()],
                _ => dirty[node.a.index()] || dirty[node.b.index()],
            };
        if tainted {
            dirty[sig] = true;
            cone.push(k as u32);
        }
    }
    cone
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GateKind, NetlistBuilder, SignalId};
    use apx_rng::Xoshiro256;

    fn random_netlist(rng: &mut Xoshiro256, ni: usize, n_nodes: usize) -> Netlist {
        let mut b = NetlistBuilder::new(ni);
        for k in 0..n_nodes {
            let limit = ni + k;
            let kind = *rng.choose(&GateKind::ALL).unwrap();
            let a = SignalId(rng.gen_range(limit) as u32);
            let bb = SignalId(rng.gen_range(limit) as u32);
            b.push(kind, a, bb);
        }
        let total = ni + n_nodes;
        let outs: Vec<SignalId> = (0..4).map(|_| SignalId(rng.gen_range(total) as u32)).collect();
        b.outputs(&outs);
        b.finish().unwrap()
    }

    #[test]
    fn fanout_cone_matches_brute_force_resimulation() {
        // A node belongs to the cone of {s} iff flipping s's definition can
        // change it; over-approximation is structural, so check the cone is
        // closed and sound: every node outside the cone reads only clean
        // signals.
        let mut rng = Xoshiro256::from_seed(13);
        for _ in 0..20 {
            let nl = random_netlist(&mut rng, 4, 30);
            let src = rng.gen_range(nl.gate_count()) as u32;
            let cone = fanout_cone(&nl, &[src]);
            assert!(cone.contains(&src));
            assert!(cone.windows(2).all(|w| w[0] < w[1]), "sorted, deduped");
            let in_cone = |s: SignalId| {
                s.index() >= nl.num_inputs()
                    && cone.contains(&((s.index() - nl.num_inputs()) as u32))
            };
            for (k, node) in nl.nodes().iter().enumerate() {
                if cone.contains(&(k as u32)) {
                    continue;
                }
                let arity = node.kind.arity();
                assert!(arity == 0 || !in_cone(node.a), "clean node {k} reads dirty a");
                assert!(arity < 2 || !in_cone(node.b), "clean node {k} reads dirty b");
            }
        }
    }

    #[test]
    fn fanout_cone_of_nothing_is_empty() {
        let mut rng = Xoshiro256::from_seed(14);
        let nl = random_netlist(&mut rng, 4, 10);
        assert!(fanout_cone(&nl, &[]).is_empty());
    }

    #[test]
    fn unary_gates_do_not_propagate_through_ignored_slot() {
        let mut b = NetlistBuilder::new(1);
        let x = b.input(0);
        let n0 = b.and(x, x); // node 0
                              // Node 1: Not reads only slot a (= x); slot b points at node 0 but
                              // is ignored.
        let n1 = b.push(GateKind::Not, x, n0);
        b.outputs(&[n1]);
        let nl = b.finish().unwrap();
        assert_eq!(fanout_cone(&nl, &[0]), vec![0], "Not's b slot is dead");
    }
}
