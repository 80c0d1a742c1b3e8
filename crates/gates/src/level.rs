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

/// Forward closure of a set of changed nodes, into caller-owned buffers.
///
/// Fills `cone` with the sorted node indices whose output word can change
/// when the definitions of `sources` change: the sources themselves plus
/// every node that transitively reads one of them. Because a [`Netlist`]
/// is topologically ordered this is a single forward scan from the first
/// source — no reverse adjacency is ever materialized.
///
/// `marks` is per-signal scratch (`netlist.num_signals()` flags) that must
/// be all `false` on entry. Only the cone's flags are set, and they are
/// cleared again before return, so a caller that keeps both buffers
/// across calls allocates nothing and never clears the whole array.
///
/// Nodes whose gate ignores an operand slot (unary gates, constants) do
/// not propagate taint through the ignored slot.
///
/// # Panics
///
/// Panics if a source index is out of range or `marks` has the wrong
/// length.
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
/// let mut marks = vec![false; nl.num_signals()];
/// let mut cone = Vec::new();
/// fanout_cone(&nl, &[0], &mut marks, &mut cone);
/// assert_eq!(cone, [0, 2]);
/// fanout_cone(&nl, &[1], &mut marks, &mut cone);
/// assert_eq!(cone, [1]);
/// assert!(marks.iter().all(|&m| !m), "the scratch flags are left clear");
/// ```
pub fn fanout_cone(netlist: &Netlist, sources: &[u32], marks: &mut [bool], cone: &mut Vec<u32>) {
    let ni = netlist.num_inputs();
    assert_eq!(marks.len(), netlist.num_signals(), "one scratch flag per signal");
    cone.clear();
    let mut first = usize::MAX;
    for &s in sources {
        let k = s as usize;
        assert!(k < netlist.gate_count(), "source node {k} out of range");
        marks[ni + k] = true;
        first = first.min(k);
    }
    if first == usize::MAX {
        return;
    }
    // Branch-free taint: every scanned node is written to the next cone
    // slot, and the slot is kept only when the node is tainted.
    let tail = &netlist.nodes()[first..];
    cone.resize(tail.len(), 0);
    let mut len = 0;
    for (k, node) in (first..).zip(tail) {
        let arity = node.kind.arity();
        let tainted = marks[ni + k]
            | (marks[node.a.index()] & (arity >= 1))
            | (marks[node.b.index()] & (arity >= 2));
        marks[ni + k] = tainted;
        cone[len] = k as u32;
        len += usize::from(tainted);
    }
    cone.truncate(len);
    for &k in cone.iter() {
        marks[ni + k as usize] = false;
    }
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

    /// The cone of `sources` through fresh buffers.
    fn cone_of(nl: &Netlist, sources: &[u32]) -> Vec<u32> {
        let mut marks = vec![false; nl.num_signals()];
        let mut cone = vec![7; 3];
        fanout_cone(nl, sources, &mut marks, &mut cone);
        assert!(marks.iter().all(|&m| !m), "scratch flags left set");
        cone
    }

    #[test]
    fn fanout_cone_matches_brute_force_resimulation() {
        // A node belongs to the cone of {s} iff flipping s's definition can
        // change it; over-approximation is structural, so check the cone is
        // closed and sound: every node outside the cone reads only clean
        // signals, and every cone node is a source or reads a cone node
        // through a slot its gate uses. One pair of buffers serves every
        // call, as in the incremental engine.
        let mut rng = Xoshiro256::from_seed(13);
        let mut marks = vec![false; 4 + 30];
        let mut cone = Vec::new();
        for _ in 0..40 {
            let nl = random_netlist(&mut rng, 4, 30);
            let sources: Vec<u32> =
                (0..1 + rng.gen_range(5)).map(|_| rng.gen_range(nl.gate_count()) as u32).collect();
            fanout_cone(&nl, &sources, &mut marks, &mut cone);
            assert!(marks.iter().all(|&m| !m), "scratch flags left set");
            assert!(sources.iter().all(|s| cone.contains(s)));
            assert!(cone.windows(2).all(|w| w[0] < w[1]), "sorted, deduped");
            let in_cone = |s: SignalId| {
                s.index() >= nl.num_inputs()
                    && cone.contains(&((s.index() - nl.num_inputs()) as u32))
            };
            for (k, node) in nl.nodes().iter().enumerate() {
                let reads = [node.a, node.b];
                let tainted = reads[..node.kind.arity()].iter().any(|&s| in_cone(s));
                let member = cone.contains(&(k as u32));
                assert_eq!(member, tainted || sources.contains(&(k as u32)), "node {k}");
            }
        }
    }

    #[test]
    fn fanout_cone_of_nothing_is_empty() {
        let mut rng = Xoshiro256::from_seed(14);
        let nl = random_netlist(&mut rng, 4, 10);
        assert!(cone_of(&nl, &[]).is_empty());
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
        assert_eq!(cone_of(&nl, &[0]), vec![0], "Not's b slot is dead");
    }
}
