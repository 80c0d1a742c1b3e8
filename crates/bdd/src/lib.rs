//! A small reduced ordered binary decision diagram (ROBDD) package.
//!
//! This is the substrate for the `symbolic` evaluator backend in
//! `apx_metrics`: it has to represent the characteristic functions of
//! approximate-vs-exact output differences and answer *model-count*
//! queries about them exactly, and it has to do so without external
//! dependencies (the workspace builds offline, like `apx_verify`).
//!
//! Design notes:
//!
//! - One [`Bdd`] value is a whole manager: an append-only node table
//!   with the two terminals at fixed indices, a unique table enforcing
//!   canonicity, and an apply cache. Node handles are plain `u32`
//!   indices ([`NodeId`]); they stay valid until [`Bdd::clear`].
//! - [`Bdd::apply`] takes the two-input truth table of the connective
//!   as a 4-bit opcode, so every binary gate in `apx_gates` maps onto
//!   a single code path (mirroring how the bit-parallel engine drives
//!   one word-wise kernel per gate kind).
//! - `apply` answers its terminal cases before the cache lookup: both
//!   operands terminals, `f == g`, or one operand a terminal, whenever
//!   the result is `FALSE`, `TRUE` or the other operand (`XOR(FALSE, g)
//!   = g`, `AND(FALSE, g) = FALSE`, `XOR(g, g) = FALSE`). The recursion
//!   it skips would only rebuild an existing diagram or collapse to a
//!   terminal, so it creates no node: node creation order, every
//!   [`NodeId`] and [`Bdd::num_nodes`] are the same as with the full
//!   recursion (node-budget verdicts built on them cannot move). The
//!   complement cases (`NOT g`) still recurse, because they build
//!   nodes.
//! - Model counting is memoized per node and answers "how many
//!   assignments of variables `from..nvars` satisfy this subfunction"
//!   — the primitive the symbolic engine uses both for whole rows and
//!   for 64-lane blocks (after [`Bdd::descend`]ing the block prefix).
//!
//! The variable order is fixed at construction: callers choose the
//! order by how they map problem bits to variable indices (variable 0
//! is the root-most level).

/// Handle to a node in a [`Bdd`] manager.
///
/// `0` and `1` are the constant-false and constant-true terminals of
/// every manager; all other ids are decision nodes. Handles are only
/// meaningful for the manager that produced them and are invalidated
/// by [`Bdd::clear`].
pub type NodeId = u32;

/// The constant-false terminal (in every manager).
pub const FALSE: NodeId = 0;
/// The constant-true terminal (in every manager).
pub const TRUE: NodeId = 1;

/// 4-bit truth-table opcodes for [`Bdd::apply`].
///
/// Bit `(a << 1) | b` of the opcode is the connective's output for
/// inputs `(a, b)`.
pub mod opcode {
    /// `a AND b`.
    pub const AND: u8 = 0b1000;
    /// `a OR b`.
    pub const OR: u8 = 0b1110;
    /// `a XOR b`.
    pub const XOR: u8 = 0b0110;
    /// `NOT a` (ignores `b`).
    pub const NOT_A: u8 = 0b0011;
    /// `a AND NOT b`.
    pub const AND_NOT_B: u8 = 0b0100;
}

/// A decision node: branch variable plus low (variable = 0) and high
/// (variable = 1) successors. Terminals use `var == nvars` so the
/// "skipped levels" arithmetic in counting needs no special cases.
#[derive(Clone, Copy, Debug)]
struct Node {
    var: u32,
    lo: NodeId,
    hi: NodeId,
}

/// Open-addressed `u64 -> u32` map with key `0` reserved as "empty".
///
/// The std `HashMap` would work, but the unique and apply tables are
/// the innermost loops of every symbolic evaluation; a flat
/// power-of-two table with a strong multiplicative hash keeps probes
/// short and allocation-free on the hot path.
struct U64Map {
    keys: Vec<u64>,
    vals: Vec<u32>,
    len: usize,
}

impl U64Map {
    fn with_capacity(cap: usize) -> Self {
        let cap = cap.next_power_of_two().max(64);
        U64Map { keys: vec![0; cap], vals: vec![0; cap], len: 0 }
    }

    fn clear(&mut self) {
        self.keys.iter_mut().for_each(|k| *k = 0);
        self.len = 0;
    }

    #[inline]
    fn slot(keys: &[u64], key: u64) -> usize {
        // splitmix64-style finalizer: full-width avalanche so the low
        // bits used for masking depend on every key bit.
        let mut h = key;
        h ^= h >> 33;
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^= h >> 33;
        (h as usize) & (keys.len() - 1)
    }

    #[inline]
    fn get(&self, key: u64) -> Option<u32> {
        debug_assert_ne!(key, 0);
        let mask = self.keys.len() - 1;
        let mut i = Self::slot(&self.keys, key);
        loop {
            let k = self.keys[i];
            if k == key {
                return Some(self.vals[i]);
            }
            if k == 0 {
                return None;
            }
            i = (i + 1) & mask;
        }
    }

    #[inline]
    fn insert(&mut self, key: u64, val: u32) {
        debug_assert_ne!(key, 0);
        if self.len * 4 >= self.keys.len() * 3 {
            self.grow();
        }
        let mask = self.keys.len() - 1;
        let mut i = Self::slot(&self.keys, key);
        loop {
            let k = self.keys[i];
            if k == 0 {
                self.keys[i] = key;
                self.vals[i] = val;
                self.len += 1;
                return;
            }
            if k == key {
                self.vals[i] = val;
                return;
            }
            i = (i + 1) & mask;
        }
    }

    fn grow(&mut self) {
        let old_keys = std::mem::take(&mut self.keys);
        let old_vals = std::mem::take(&mut self.vals);
        self.keys = vec![0; old_keys.len() * 2];
        self.vals = vec![0; old_keys.len() * 2];
        self.len = 0;
        for (k, v) in old_keys.into_iter().zip(old_vals) {
            if k != 0 {
                self.insert(k, v);
            }
        }
    }
}

/// Memoized model count: `u64::MAX` marks "not computed yet". Real
/// counts stay below `2^nvars <= 2^MAX_VARS`, far from the sentinel.
const COUNT_UNSET: u64 = u64::MAX;

/// Hard cap on variables per manager. The symbolic evaluator needs at
/// most 33 (an 8-bit MAC has `4w + 1 = 33` input bits); the cap keeps
/// packed table keys and count shifts trivially in range.
pub const MAX_VARS: u32 = 48;

/// Node-id ceiling implied by the packed unique-table key layout
/// (`var:6 | lo:29 | hi:29`).
const MAX_NODES: usize = 1 << 29;

/// An ROBDD manager: node table, unique table, apply cache, count memo.
pub struct Bdd {
    nvars: u32,
    nodes: Vec<Node>,
    unique: U64Map,
    cache: U64Map,
    counts: Vec<u64>,
}

impl Bdd {
    /// New manager over variables `0..nvars` (variable 0 is root-most).
    ///
    /// # Panics
    /// If `nvars` exceeds [`MAX_VARS`].
    #[must_use]
    pub fn new(nvars: u32) -> Self {
        assert!(nvars <= MAX_VARS, "Bdd supports at most {MAX_VARS} variables, got {nvars}");
        let terminals =
            [Node { var: nvars, lo: FALSE, hi: FALSE }, Node { var: nvars, lo: TRUE, hi: TRUE }];
        Bdd {
            nvars,
            nodes: terminals.to_vec(),
            unique: U64Map::with_capacity(1 << 12),
            cache: U64Map::with_capacity(1 << 12),
            counts: vec![0, 1],
        }
    }

    /// Number of variables this manager was created with.
    #[must_use]
    pub fn num_vars(&self) -> u32 {
        self.nvars
    }

    /// Live node count (including the two terminals).
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Drops every node except the terminals, invalidating all handles.
    ///
    /// Capacity is retained, so a caller that builds one diagram per
    /// weighted operand value pays the allocation cost once.
    pub fn clear(&mut self) {
        self.nodes.truncate(2);
        self.counts.clear();
        self.counts.extend_from_slice(&[0, 1]);
        self.unique.clear();
        self.cache.clear();
    }

    /// The terminal for `value`.
    #[must_use]
    pub fn constant(value: bool) -> NodeId {
        if value {
            TRUE
        } else {
            FALSE
        }
    }

    /// The single-variable function `v`.
    ///
    /// # Panics
    /// If `v` is out of range.
    pub fn var(&mut self, v: u32) -> NodeId {
        assert!(v < self.nvars, "variable {v} out of range (nvars = {})", self.nvars);
        self.mk(v, FALSE, TRUE)
    }

    #[inline]
    fn var_of(&self, f: NodeId) -> u32 {
        self.nodes[f as usize].var
    }

    /// Canonical node constructor: reduction plus unique-table sharing.
    fn mk(&mut self, var: u32, lo: NodeId, hi: NodeId) -> NodeId {
        if lo == hi {
            return lo;
        }
        debug_assert!(var < self.var_of(lo) && var < self.var_of(hi));
        let key = (u64::from(var) << 58) | (u64::from(lo) << 29) | u64::from(hi);
        if let Some(id) = self.unique.get(key) {
            return id;
        }
        assert!(self.nodes.len() < MAX_NODES, "BDD node table overflow");
        let id = self.nodes.len() as NodeId;
        self.nodes.push(Node { var, lo, hi });
        self.counts.push(COUNT_UNSET);
        self.unique.insert(key, id);
        id
    }

    /// Combines `f` and `g` under the 4-bit truth-table opcode `tt`
    /// (see [`opcode`]): bit `(a << 1) | b` of `tt` is the output for
    /// input values `(a, b)`.
    pub fn apply(&mut self, f: NodeId, g: NodeId, tt: u8) -> NodeId {
        debug_assert!(tt < 16);
        if let Some(r) = Self::terminal_case(f, g, tt) {
            return r;
        }
        let key = (u64::from(f) << 33) | (u64::from(g) << 4) | u64::from(tt);
        if let Some(id) = self.cache.get(key) {
            return id;
        }
        let (vf, vg) = (self.var_of(f), self.var_of(g));
        let m = vf.min(vg);
        let (f0, f1) =
            if vf == m { (self.nodes[f as usize].lo, self.nodes[f as usize].hi) } else { (f, f) };
        let (g0, g1) =
            if vg == m { (self.nodes[g as usize].lo, self.nodes[g as usize].hi) } else { (g, g) };
        let lo = self.apply(f0, g0, tt);
        let hi = self.apply(f1, g1, tt);
        let r = self.mk(m, lo, hi);
        self.cache.insert(key, r);
        r
    }

    /// `apply(f, g, tt)` when the opcode alone decides it: both operands
    /// terminals, or one operand `h` left free (`f == g`, or the other
    /// operand a terminal) and the connective restricted to `h` constant
    /// or the identity. `None` when both operands are distinct decision
    /// nodes, and for the complement `NOT h`, which has to be built.
    ///
    /// The recursion these cases skip would only rebuild `h` or collapse
    /// to a terminal, so every `mk` it made would find an existing node:
    /// skipping it creates no node and changes no node id.
    #[inline]
    fn terminal_case(f: NodeId, g: NodeId, tt: u8) -> Option<NodeId> {
        if f <= 1 && g <= 1 {
            return Some(NodeId::from((tt >> ((f << 1) | g)) & 1));
        }
        // `(h, on0, on1)`: the free operand and the output for h = 0, 1.
        let (h, on0, on1) = if f == g {
            (f, tt & 1, (tt >> 3) & 1)
        } else if f <= 1 {
            (g, (tt >> (f << 1)) & 1, (tt >> ((f << 1) | 1)) & 1)
        } else if g <= 1 {
            (f, (tt >> g) & 1, (tt >> (2 | g)) & 1)
        } else {
            return None;
        };
        match (on0, on1) {
            (0, 1) => Some(h),
            (1, 0) => None,
            _ => Some(NodeId::from(on0)),
        }
    }

    /// `f AND g`.
    pub fn and(&mut self, f: NodeId, g: NodeId) -> NodeId {
        self.apply(f, g, opcode::AND)
    }

    /// `f OR g`.
    pub fn or(&mut self, f: NodeId, g: NodeId) -> NodeId {
        self.apply(f, g, opcode::OR)
    }

    /// `f XOR g`.
    pub fn xor(&mut self, f: NodeId, g: NodeId) -> NodeId {
        self.apply(f, g, opcode::XOR)
    }

    /// `NOT f`.
    pub fn not(&mut self, f: NodeId) -> NodeId {
        self.apply(f, f, opcode::NOT_A)
    }

    /// Evaluates `f` under a complete assignment.
    #[must_use]
    pub fn eval(&self, f: NodeId, assign: impl Fn(u32) -> bool) -> bool {
        let mut n = f;
        while n > 1 {
            let node = self.nodes[n as usize];
            n = if assign(node.var) { node.hi } else { node.lo };
        }
        n == TRUE
    }

    /// Follows the assignment for every variable `< to_var`, returning
    /// the node that represents `f` restricted to that prefix. The
    /// result's branch variable is `>= to_var`.
    #[must_use]
    pub fn descend(&self, f: NodeId, to_var: u32, assign: impl Fn(u32) -> bool) -> NodeId {
        let mut n = f;
        while self.var_of(n) < to_var {
            let node = self.nodes[n as usize];
            n = if assign(node.var) { node.hi } else { node.lo };
        }
        n
    }

    /// Number of satisfying assignments of variables `from..nvars`.
    ///
    /// `f`'s branch variable must be `>= from` (true for anything
    /// returned by [`Bdd::descend`] with `to_var = from`). Counts are
    /// memoized per node, so repeated block queries against the same
    /// diagram are cheap.
    ///
    /// # Panics
    /// If `f` branches on a variable above `from`.
    pub fn count_from(&mut self, f: NodeId, from: u32) -> u64 {
        let v = self.var_of(f);
        assert!(v >= from, "count_from: node branches on var {v} above the requested level {from}");
        self.count(f) << (v - from)
    }

    /// Memoized count over variables `var(f)..nvars`.
    fn count(&mut self, f: NodeId) -> u64 {
        let memo = self.counts[f as usize];
        if memo != COUNT_UNSET {
            return memo;
        }
        let Node { var, lo, hi } = self.nodes[f as usize];
        let cl = self.count(lo) << (self.var_of(lo) - var - 1);
        let ch = self.count(hi) << (self.var_of(hi) - var - 1);
        let c = cl + ch;
        self.counts[f as usize] = c;
        c
    }

    /// Canonical export of the subgraph reachable from `roots`.
    ///
    /// Decision nodes are renumbered by first visit of a deterministic
    /// depth-first walk (roots in order, low child before high); the
    /// terminals keep ids `0` and `1`. Returns the renumbered nodes as
    /// `(var, lo, hi)` triples (index `k` holds new id `k + 2`) plus the
    /// renumbered roots.
    ///
    /// Because ROBDDs are canonical per manager and the walk order
    /// depends only on the reachable graph shape, two plane lists
    /// representing the same function vector under the same variable
    /// order export *identical* data — whatever order their nodes were
    /// interned in. That makes the export a canonical function identity,
    /// the substrate for `apx_verify`'s functional digest.
    #[must_use]
    pub fn export_planes(&self, roots: &[NodeId]) -> (Vec<(u32, NodeId, NodeId)>, Vec<NodeId>) {
        const UNSEEN: NodeId = NodeId::MAX;
        let mut remap: Vec<NodeId> = vec![UNSEEN; self.nodes.len()];
        remap[FALSE as usize] = FALSE;
        remap[TRUE as usize] = TRUE;
        let mut order: Vec<NodeId> = Vec::new();
        let mut stack: Vec<NodeId> = Vec::new();
        for &root in roots {
            stack.push(root);
            while let Some(n) = stack.pop() {
                if remap[n as usize] != UNSEEN {
                    continue;
                }
                remap[n as usize] = (2 + order.len()) as NodeId;
                order.push(n);
                let node = self.nodes[n as usize];
                stack.push(node.hi);
                stack.push(node.lo);
            }
        }
        let triples = order
            .iter()
            .map(|&old| {
                let node = self.nodes[old as usize];
                (node.var, remap[node.lo as usize], remap[node.hi as usize])
            })
            .collect();
        (triples, roots.iter().map(|&r| remap[r as usize]).collect())
    }

    /// Maximum of the little-endian plane vector (`planes[k]` is output
    /// bit `k`) over *all* variable assignments: a greedy most-significant
    /// -bit-first descent that keeps the satisfiable restriction — the
    /// max-sat primitive behind `apx_verify`'s exact range pass.
    ///
    /// # Panics
    /// If more than 64 planes are given.
    pub fn max_value(&mut self, planes: &[NodeId]) -> u64 {
        assert!(planes.len() <= 64, "plane vectors are u64-valued");
        let mut reach = TRUE;
        let mut val = 0u64;
        for (k, &p) in planes.iter().enumerate().rev() {
            let t = self.and(reach, p);
            if t != FALSE {
                val |= 1u64 << k;
                reach = t;
            }
        }
        val
    }

    /// Minimum of the little-endian plane vector over all assignments —
    /// the dual of [`Bdd::max_value`] (greedily zero each bit instead).
    ///
    /// # Panics
    /// If more than 64 planes are given.
    pub fn min_value(&mut self, planes: &[NodeId]) -> u64 {
        assert!(planes.len() <= 64, "plane vectors are u64-valued");
        let mut reach = TRUE;
        let mut val = 0u64;
        for (k, &p) in planes.iter().enumerate().rev() {
            let np = self.not(p);
            let t = self.and(reach, np);
            if t == FALSE {
                // Every assignment consistent with the prefix has this
                // bit set; `reach AND p` equals `reach`, already minimal.
                val |= 1u64 << k;
            } else {
                reach = t;
            }
        }
        val
    }

    /// One satisfying assignment of `f` (variables the chosen path does
    /// not constrain default to `false`), or `None` for the constant-
    /// false terminal.
    ///
    /// Reduction guarantees every decision node has a non-FALSE child
    /// (`lo == hi` collapses when a node is made), so greedily following the
    /// first non-FALSE child always reaches TRUE.
    #[must_use]
    pub fn some_model(&self, f: NodeId) -> Option<Vec<bool>> {
        if f == FALSE {
            return None;
        }
        let mut assign = vec![false; self.nvars as usize];
        let mut n = f;
        while n > 1 {
            let node = self.nodes[n as usize];
            if node.lo != FALSE {
                n = node.lo;
            } else {
                assign[node.var as usize] = true;
                n = node.hi;
            }
        }
        Some(assign)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apx_rng::Xoshiro256;

    /// Truth-table oracle alongside a BDD built by the same ops.
    fn random_pair(bdd: &mut Bdd, nvars: u32, ops: usize, seed: u64) -> (NodeId, Vec<bool>) {
        let n = 1usize << nvars;
        let mut rng = Xoshiro256::from_seed(seed);
        let mut funcs: Vec<(NodeId, Vec<bool>)> = (0..nvars)
            .map(|v| {
                let table = (0..n).map(|x| (x >> v) & 1 == 1).collect();
                (bdd.var(v), table)
            })
            .collect();
        for _ in 0..ops {
            let a = rng.gen_range(funcs.len());
            let b = rng.gen_range(funcs.len());
            let tt = rng.gen_range(16) as u8;
            let id = bdd.apply(funcs[a].0, funcs[b].0, tt);
            let table = (0..n)
                .map(|x| {
                    let bit = (usize::from(funcs[a].1[x]) << 1) | usize::from(funcs[b].1[x]);
                    tt >> bit & 1 == 1
                })
                .collect();
            funcs.push((id, table));
        }
        funcs.pop().unwrap()
    }

    /// `apply` without its terminal cases: every call past the
    /// both-terminals base case goes through `cache` and recurses. The
    /// reference the terminal cases are held to.
    fn reference_apply(bdd: &mut Bdd, cache: &mut U64Map, f: NodeId, g: NodeId, tt: u8) -> NodeId {
        if f <= 1 && g <= 1 {
            return NodeId::from((tt >> ((f << 1) | g)) & 1);
        }
        let key = (u64::from(f) << 33) | (u64::from(g) << 4) | u64::from(tt);
        if let Some(id) = cache.get(key) {
            return id;
        }
        let m = bdd.var_of(f).min(bdd.var_of(g));
        let split = |n: NodeId| {
            let node = bdd.nodes[n as usize];
            if node.var == m {
                (node.lo, node.hi)
            } else {
                (n, n)
            }
        };
        let ((f0, f1), (g0, g1)) = (split(f), split(g));
        let lo = reference_apply(bdd, cache, f0, g0, tt);
        let hi = reference_apply(bdd, cache, f1, g1, tt);
        let r = bdd.mk(m, lo, hi);
        cache.insert(key, r);
        r
    }

    #[test]
    fn terminal_cases_create_no_node() {
        // `apply` and the reference recursion side by side in two
        // managers, over random streams of all 16 opcodes with terminal
        // and repeated operands mixed in: after every op both return the
        // same id and hold the same nodes, so node ids and node counts
        // (and any node budget checked against them) cannot tell the
        // two apart. Operands favour recent results, which keeps the
        // diagrams growing; many ops create several nodes, so a changed
        // creation order would show as a changed id.
        let nvars = 8;
        for seed in 0..20 {
            let mut fast = Bdd::new(nvars);
            let mut slow = Bdd::new(nvars);
            let mut cache = U64Map::with_capacity(64);
            let mut pool: Vec<NodeId> = (0..nvars).map(|v| fast.var(v)).collect();
            assert_eq!(pool, (0..nvars).map(|v| slow.var(v)).collect::<Vec<_>>());
            let mut rng = Xoshiro256::from_seed(0x7E4A + seed);
            for step in 0..400 {
                let pick = |rng: &mut Xoshiro256| {
                    let back = if rng.gen_range(2) == 0 { pool.len() } else { pool.len().min(8) };
                    pool[pool.len() - 1 - rng.gen_range(back)]
                };
                let (a, b) = match rng.gen_range(4) {
                    0 => (rng.gen_range(2) as NodeId, pick(&mut rng)),
                    1 => (pick(&mut rng), rng.gen_range(2) as NodeId),
                    2 => {
                        let h = pick(&mut rng);
                        (h, h)
                    }
                    _ => (pick(&mut rng), pick(&mut rng)),
                };
                let tt = rng.gen_range(16) as u8;
                let got = fast.apply(a, b, tt);
                let want = reference_apply(&mut slow, &mut cache, a, b, tt);
                assert_eq!(got, want, "seed {seed} step {step}: apply({a}, {b}, {tt:#06b})");
                assert_eq!(fast.num_nodes(), slow.num_nodes(), "seed {seed} step {step}");
                if got > TRUE {
                    pool.push(got);
                }
            }
        }
    }

    #[test]
    fn terminal_shapes_match_truth_tables() {
        // Every opcode on every operand shape the terminal cases answer.
        // Each result matches the truth table; unless it is the
        // complement of `g` (which still recurses), it is `FALSE`, `TRUE`
        // or `g` itself and no node was created.
        let mut bdd = Bdd::new(4);
        let x: Vec<NodeId> = (0..4).map(|v| bdd.var(v)).collect();
        let (x01, x23) = (bdd.and(x[0], x[1]), bdd.or(x[2], x[3]));
        let g = bdd.xor(x01, x23);
        let value = |bdd: &Bdd, f: NodeId, a: u32| bdd.eval(f, |v| (a >> v) & 1 == 1);
        for tt in 0..16u8 {
            for (f, h) in [(FALSE, g), (TRUE, g), (g, FALSE), (g, TRUE), (g, g)] {
                let before = bdd.num_nodes();
                let r = bdd.apply(f, h, tt);
                let mut complement = true;
                for a in 0..16 {
                    let bit = (u32::from(value(&bdd, f, a)) << 1) | u32::from(value(&bdd, h, a));
                    let want = (tt >> bit) & 1 == 1;
                    assert_eq!(value(&bdd, r, a), want, "apply({f}, {h}, {tt:#06b}) at {a}");
                    complement &= want != value(&bdd, g, a);
                }
                if !complement {
                    assert!([FALSE, TRUE, g].contains(&r), "apply({f}, {h}, {tt:#06b})");
                    assert_eq!(bdd.num_nodes(), before, "apply({f}, {h}, {tt:#06b})");
                }
            }
        }
    }

    #[test]
    fn terminals_and_variables() {
        let mut bdd = Bdd::new(3);
        assert_eq!(Bdd::constant(false), FALSE);
        assert_eq!(Bdd::constant(true), TRUE);
        let x = bdd.var(1);
        assert!(bdd.eval(x, |v| v == 1));
        assert!(!bdd.eval(x, |v| v != 1));
        // Canonicity: the same variable is the same node.
        assert_eq!(x, bdd.var(1));
    }

    #[test]
    fn apply_matches_truth_tables() {
        for seed in 0..20 {
            let mut bdd = Bdd::new(6);
            let (id, table) = random_pair(&mut bdd, 6, 40, 0xB0D0 + seed);
            for (x, want) in table.iter().enumerate() {
                assert_eq!(bdd.eval(id, |v| (x >> v) & 1 == 1), *want, "seed {seed} x {x}");
            }
        }
    }

    #[test]
    fn counting_matches_enumeration() {
        for seed in 0..20 {
            let mut bdd = Bdd::new(8);
            let (id, table) = random_pair(&mut bdd, 8, 60, 0xC0DE + seed);
            let want = table.iter().filter(|b| **b).count() as u64;
            assert_eq!(bdd.count_from(id, 0), want, "seed {seed}");
        }
    }

    #[test]
    fn descend_then_count_partitions_the_space() {
        // Counting each prefix block and summing must reproduce the
        // global count — the exact query pattern of the symbolic
        // evaluator's per-block accumulation.
        for seed in 0..10 {
            let mut bdd = Bdd::new(9);
            let (id, _) = random_pair(&mut bdd, 9, 50, 0x5EED + seed);
            let total = bdd.count_from(id, 0);
            let split = 3u32;
            let mut sum = 0;
            for block in 0u32..1 << split {
                let sub = bdd.descend(id, split, |v| (block >> v) & 1 == 1);
                sum += bdd.count_from(sub, split);
            }
            assert_eq!(sum, total, "seed {seed}");
        }
    }

    #[test]
    fn clear_resets_and_reuses() {
        let mut bdd = Bdd::new(4);
        let x = bdd.var(0);
        let y = bdd.var(1);
        let f = bdd.and(x, y);
        assert_eq!(bdd.count_from(f, 0), 4);
        bdd.clear();
        assert_eq!(bdd.num_nodes(), 2);
        let x = bdd.var(0);
        let y = bdd.var(1);
        let g = bdd.or(x, y);
        assert_eq!(bdd.count_from(g, 0), 12);
    }

    #[test]
    fn reduction_collapses_redundant_tests() {
        let mut bdd = Bdd::new(2);
        let x = bdd.var(0);
        let nx = bdd.not(x);
        let tauto = bdd.or(x, nx);
        assert_eq!(tauto, TRUE);
        let contra = bdd.and(x, nx);
        assert_eq!(contra, FALSE);
    }

    #[test]
    #[should_panic(expected = "count_from")]
    fn count_above_descended_level_panics() {
        let mut bdd = Bdd::new(4);
        let x = bdd.var(0);
        // x branches on var 0, which is above level 2.
        bdd.count_from(x, 2);
    }

    #[test]
    fn extreme_values_match_enumeration() {
        // Random 3-plane vectors over 6 variables against a brute-force
        // min/max over all 64 assignments.
        for seed in 0..20 {
            let mut bdd = Bdd::new(6);
            let mut planes = Vec::new();
            let mut tables = Vec::new();
            for k in 0..3 {
                let (id, table) = random_pair(&mut bdd, 6, 25, 0xE57 + seed * 8 + k);
                planes.push(id);
                tables.push(table);
            }
            let values: Vec<u64> = (0..64)
                .map(|x| tables.iter().enumerate().map(|(k, t)| u64::from(t[x]) << k).sum::<u64>())
                .collect();
            let want_max = *values.iter().max().unwrap();
            let want_min = *values.iter().min().unwrap();
            assert_eq!(bdd.max_value(&planes), want_max, "seed {seed}");
            assert_eq!(bdd.min_value(&planes), want_min, "seed {seed}");
        }
    }

    #[test]
    fn some_model_satisfies_and_false_has_none() {
        let mut bdd = Bdd::new(5);
        assert_eq!(bdd.some_model(FALSE), None);
        assert_eq!(bdd.some_model(TRUE), Some(vec![false; 5]));
        for seed in 0..20 {
            let (id, table) = random_pair(&mut bdd, 5, 30, 0x50DE + seed);
            match bdd.some_model(id) {
                None => assert_eq!(id, FALSE),
                Some(assign) => {
                    let x: usize =
                        assign.iter().enumerate().map(|(v, &b)| usize::from(b) << v).sum();
                    assert!(table[x], "seed {seed}: model {assign:?} does not satisfy");
                }
            }
            bdd.clear();
        }
    }

    #[test]
    fn export_is_canonical_across_interning_orders() {
        // Build the same two functions in managers that intern nodes in
        // different orders: the exports must be identical.
        let build = |flip: bool| {
            let mut bdd = Bdd::new(4);
            if flip {
                // Intern unrelated clutter first to shift raw node ids.
                let a = bdd.var(3);
                let b = bdd.var(2);
                let _ = bdd.xor(a, b);
            }
            let x = bdd.var(0);
            let y = bdd.var(1);
            let z = bdd.var(2);
            let f = bdd.and(x, y);
            let g = bdd.or(f, z);
            bdd.export_planes(&[f, g])
        };
        assert_eq!(build(false), build(true));
    }

    #[test]
    fn export_remaps_terminals_and_roots_consistently() {
        let mut bdd = Bdd::new(3);
        let x = bdd.var(0);
        let (triples, roots) = bdd.export_planes(&[FALSE, x, TRUE, x]);
        assert_eq!(roots, vec![FALSE, 2, TRUE, 2]);
        assert_eq!(triples, vec![(0, FALSE, TRUE)]);
    }
}
