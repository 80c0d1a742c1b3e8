//! Component-library mode: autoAx-style reuse of already-built
//! circuits across design-space explorations.
//!
//! A paper-scale sweep re-runs CGP from scratch for every `(distribution,
//! threshold)` point, yet the expensive artifact — an approximate
//! multiplier, adder or MAC — does not care which distribution it was
//! evolved under:
//! its WMED under a *new* [`Pmf`](apx_dist::Pmf) is one
//! [`CircuitEvaluator`] statistics pass, no evolution at all (this is
//! exactly the cheap re-scoring that makes autoAx-style library reuse
//! work; Mrazek et al., DAC'19). This
//! module turns the per-task [`crate::cache`] into such a reusable
//! library:
//!
//! * [`ComponentLibrary`] scans a cache directory
//!   ([`SweepCache::scan`]), deduplicates harvested chromosomes within
//!   each component class by a structural digest of their active
//!   netlist, ingests conventionally
//!   designed circuits — the [`apx_approxlib`] multipliers and the
//!   approximate adders of [`apx_arith::adders_approx`] — through the
//!   same unified [`LibraryEntry`] form, and indexes everything by
//!   `(operator, width, signedness)`;
//! * [`ComponentLibrary::rescore`] re-prices every matching candidate
//!   under the current sweep's distribution — full [`ErrorStats`] from
//!   one statistics pass per candidate on the backend operator and width
//!   pick ([`CircuitEvaluator::stats_batch`], fanned out on `apx_pool`;
//!   exhaustive only up to the enumeration cap) plus the
//!   technology-library area — yielding a
//!   [`RescoredLibrary`]: a deterministic ranking with a per-
//!   distribution Pareto front of `(WMED, area)` that keeps each
//!   candidate's [`Provenance`];
//! * [`run_sweep`](crate::run_sweep) consults the result (see
//!   [`LibraryConfig`](crate::LibraryConfig)): a candidate already
//!   meeting a task's threshold is taken directly (`library_hits`),
//!   otherwise the best candidates seed the CGP population
//!   ([`apx_cgp::evolve_seeded`], `seeded_evolutions`) instead of every
//!   run starting from the operator's exact seed circuit.
//!
//! Determinism is preserved end to end: scans are key-sorted (never
//! filesystem order), re-scoring is bit-identical to the sweep's own
//! statistics pass for any thread count, and all rankings are total
//! orders (ties broken by error bits, then name). An empty library is a
//! guaranteed no-op: the sweep behaves bit-for-bit as if library mode
//! were off.

use crate::cache::{CacheKey, ScannedEntry, SweepCache};
use crate::flow::EvolvedCircuit;
use crate::pareto_indices;
use apx_approxlib::{Family, MultiplierLibrary};
use apx_arith::{lower_or_adder, ripple_carry_adder, truncated_adder, Operator};
use apx_cgp::{Chromosome, FunctionSet};
use apx_gates::Netlist;
use apx_metrics::{CircuitEvaluator, ErrorStats};
use apx_techlib::{area_of, TechLibrary};
use apx_verify::{class_representatives, has_errors, lint_component, structural_hash, Diagnostic};
use std::collections::{HashMap, HashSet};
use std::path::Path;

/// Which exploration produced a library candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Provenance {
    /// Harvested from a sweep-cache entry: a CGP run checkpointed under
    /// `source_key` by some earlier (possibly differently-distributed)
    /// exploration.
    Evolved {
        /// The content-addressed key the entry was stored under.
        source_key: CacheKey,
    },
    /// A conventionally designed circuit: an [`apx_approxlib`]
    /// multiplier (truncated, broken-array, zero-guarded, … — the
    /// paper's §IV baselines) or an [`apx_arith::adders_approx`] adder
    /// (lower-OR, truncated).
    Conventional {
        /// The approxlib construction family.
        family: Family,
    },
}

/// One candidate of a [`ComponentLibrary`] — the unified form behind
/// which evolved cache entries and conventional [`apx_approxlib`]
/// designs become indistinguishable to the sweep.
#[derive(Debug, Clone)]
pub struct LibraryEntry {
    /// Stable display name (`evo_<key prefix>` or the approxlib name).
    pub name: String,
    /// The genotype: evolved entries keep their stored chromosome;
    /// conventional netlists are encoded onto an exact-fit CGP grid so
    /// they can seed an evolution like any other candidate.
    pub chromosome: Chromosome,
    /// The active-cone phenotype (`chromosome.decode_active()`), the
    /// object every re-scoring pass evaluates.
    pub netlist: Netlist,
    /// The arithmetic operator the candidate implements.
    pub op: Operator,
    /// Operand width in bits.
    pub width: u32,
    /// Two's-complement operand encoding.
    pub signed: bool,
    /// [`structural_hash`] of the netlist (dedup identity within the
    /// entry's component class; dead nodes do not count).
    pub digest: u128,
    /// Where the candidate came from.
    pub provenance: Provenance,
}

/// A library candidate's structural identity: its component class and
/// the [`structural_hash`] of its netlist.
type StructuralKey = (Operator, u32, bool, u128);

impl LibraryEntry {
    fn structural_key(&self) -> StructuralKey {
        (self.op, self.width, self.signed, self.digest)
    }
}

/// A deduplicated, `(operator, width, signedness)`-indexed collection of
/// candidate circuits harvested from sweep caches and conventional
/// libraries.
#[derive(Debug, Clone, Default)]
pub struct ComponentLibrary {
    entries: Vec<LibraryEntry>,
    /// The structural identities of `entries`. The digest encodes only
    /// the netlist, so it is keyed by component class as well: one
    /// netlist may be a member of several classes.
    structural: HashSet<StructuralKey>,
    /// Full stored task results by cache key, for exact replay: when a
    /// sweep task's own key shows up here, the stored entry *is* what
    /// that task would compute, bit for bit.
    exact: HashMap<CacheKey, (Operator, u32, bool, EvolvedCircuit)>,
    /// Scanned entries the `apx_verify` ingest gate refused, with the
    /// diagnoses — named findings instead of silently orphaned entries.
    rejected: Vec<(CacheKey, Vec<Diagnostic>)>,
    /// Running total of entries removed by
    /// [`dedup_semantic`](Self::dedup_semantic).
    semantic_dups: usize,
}

impl ComponentLibrary {
    /// An empty library.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of deduplicated candidates.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the library holds no candidates.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All candidates, in deterministic ingestion order.
    pub fn entries(&self) -> impl Iterator<Item = &LibraryEntry> {
        self.entries.iter()
    }

    /// The candidates matching one component class, in deterministic
    /// ingestion order — the `(operator, width, signedness)` index a
    /// sweep draws from.
    pub fn candidates(
        &self,
        op: Operator,
        width: u32,
        signed: bool,
    ) -> impl Iterator<Item = &LibraryEntry> {
        self.entries.iter().filter(move |e| e.op == op && e.width == width && e.signed == signed)
    }

    /// Scanned entries the static ingest gate refused, in scan order,
    /// each with the full list of named diagnostics that disqualified it.
    #[must_use]
    pub fn rejected(&self) -> &[(CacheKey, Vec<Diagnostic>)] {
        &self.rejected
    }

    /// The stored task result for `key`, when this library harvested the
    /// exact entry an `(op, width, signed)` sweep task would compute.
    /// Replaying it is bit-identical to a cache hit (the key is
    /// content-addressed over everything that shapes the result).
    #[must_use]
    pub fn exact_match(
        &self,
        key: CacheKey,
        op: Operator,
        width: u32,
        signed: bool,
    ) -> Option<&EvolvedCircuit> {
        self.exact
            .get(&key)
            .filter(|(o, w, s, _)| *o == op && *w == width && *s == signed)
            .map(|(_, _, _, m)| m)
    }

    /// Harvests every intact entry of the sweep cache at `dir`
    /// (deduplicating against what is already present) and returns how
    /// many new candidates were added. A missing directory adds nothing.
    pub fn scan_cache(&mut self, dir: impl AsRef<Path>) -> usize {
        let mut added = 0;
        for scanned in SweepCache::new(dir.as_ref()).scan() {
            if self.ingest_scanned(scanned) {
                added += 1;
            }
        }
        added
    }

    /// Ingests one already-[`scan`](SweepCache::scan)ned cache entry —
    /// the building block of [`scan_cache`](Self::scan_cache), exposed so
    /// callers that have a scan in hand (the garbage collector of
    /// [`crate::cache`], a future persisted-front loader) can build a
    /// library without re-reading the directory. Returns whether the
    /// entry became a *new* candidate (structural duplicates only extend
    /// the exact-replay index).
    ///
    /// Ingestion order matters for provenance: when several keys store
    /// structurally identical netlists, the first ingested key becomes
    /// the candidate's `source_key`, exactly as in a (key-sorted)
    /// directory scan.
    ///
    /// Every entry passes the `apx_verify` static gate first: a netlist
    /// violating its declared-component contract is recorded under
    /// [`rejected`](Self::rejected) with its named diagnostics and
    /// ingested as neither candidate nor exact replay.
    pub fn ingest_scanned(&mut self, scanned: ScannedEntry) -> bool {
        let diags = lint_component(&scanned.circuit.netlist, scanned.op, scanned.width);
        if has_errors(&diags) {
            self.rejected.push((scanned.key, diags));
            return false;
        }
        let name = format!("evo_{}", &scanned.key.hex()[..12]);
        let entry = LibraryEntry {
            name,
            digest: structural_hash(&scanned.circuit.netlist),
            chromosome: scanned.circuit.chromosome.clone(),
            netlist: scanned.circuit.netlist.clone(),
            op: scanned.op,
            width: scanned.width,
            signed: scanned.signed,
            provenance: Provenance::Evolved { source_key: scanned.key },
        };
        let added = self.insert(entry);
        self.exact
            .insert(scanned.key, (scanned.op, scanned.width, scanned.signed, scanned.circuit));
        added
    }

    /// Ingests every entry of a conventional [`MultiplierLibrary`] —
    /// truncated, broken-array and zero-guarded designs become seed
    /// candidates exactly like cached evolutions. Returns how many new
    /// candidates were added (structural duplicates of already-present
    /// entries are skipped).
    pub fn ingest_conventional(&mut self, lib: &MultiplierLibrary) -> usize {
        let designs = lib.iter().map(|e| (e.name.as_str(), &e.netlist, e.family));
        self.ingest_designs(designs, Operator::Mul, lib.width(), lib.is_signed())
    }

    /// Ingests the conventionally designed approximate adders of
    /// [`apx_arith::adders_approx`] for one unsigned operand width: the
    /// lower-OR family (`k` OR-approximated LSB columns), the truncated
    /// family (`k` dropped LSB columns) and the exact ripple-carry
    /// reference, all indexed under [`Operator::Add`]. Returns how many
    /// new candidates were added (structural duplicates are skipped, as
    /// with every other ingestion path).
    pub fn ingest_conventional_adders(&mut self, width: u32) -> usize {
        let mut designs: Vec<(String, Netlist, Family)> =
            vec![("exact_ripple".into(), ripple_carry_adder(width), Family::Exact)];
        for k in 1..=width {
            designs.push((format!("loa_{k}"), lower_or_adder(width, k), Family::LowerOr { k }));
        }
        for k in 1..width {
            designs.push((
                format!("trunc_add_{k}"),
                truncated_adder(width, k),
                Family::Truncated { trunc_cols: k },
            ));
        }
        let designs =
            designs.iter().map(|(name, netlist, family)| (name.as_str(), netlist, *family));
        self.ingest_designs(designs, Operator::Add, width, false)
    }

    /// Ingests conventional `(name, netlist, family)` designs of one
    /// component class in order, each re-encoded on an exact-fit CGP
    /// grid: the netlist *is* the genotype, no slack. The extended
    /// function set covers every `GateKind`, so encoding only fails on
    /// truly foreign netlists — those are skipped. Returns how many new
    /// candidates were added.
    fn ingest_designs<'d>(
        &mut self,
        designs: impl IntoIterator<Item = (&'d str, &'d Netlist, Family)>,
        op: Operator,
        width: u32,
        signed: bool,
    ) -> usize {
        let funcs = FunctionSet::extended();
        let mut added = 0;
        for (name, netlist, family) in designs {
            let Ok(chromosome) = Chromosome::from_netlist(netlist, &funcs, netlist.gate_count())
            else {
                continue;
            };
            let netlist = chromosome.decode_active();
            let entry = LibraryEntry {
                name: name.to_owned(),
                digest: structural_hash(&netlist),
                chromosome,
                netlist,
                op,
                width,
                signed,
                provenance: Provenance::Conventional { family },
            };
            if self.insert(entry) {
                added += 1;
            }
        }
        added
    }

    fn insert(&mut self, entry: LibraryEntry) -> bool {
        if !self.structural.insert(entry.structural_key()) {
            return false;
        }
        self.entries.push(entry);
        true
    }

    /// Collapses **semantic** duplicates: the stage after structural
    /// dedup. Entries that compute the same function — wiring
    /// permutations, dead nodes and gate-level restructurings of one
    /// circuit — would occupy duplicate slots in every re-scored ranking
    /// (identical error statistics under *any* distribution). Each
    /// equivalence class ([`class_representatives`]) is reduced to its
    /// selection-preferred member: the entry the `(area, WMED, name)`
    /// ranking would list first, i.e. minimal technology area under
    /// `tech` with ties broken by name. [`RescoredLibrary::best_meeting`]
    /// is therefore provably unchanged; only redundant seed slots are
    /// freed for functionally distinct candidates.
    ///
    /// The exact-replay index and the rejected list are untouched —
    /// key-addressed replays do not depend on which candidate represents
    /// a function class.
    ///
    /// Returns how many entries this call removed; the running total is
    /// [`semantic_dups`](Self::semantic_dups).
    pub fn dedup_semantic(&mut self, tech: &TechLibrary) -> usize {
        let entries = &self.entries;
        let members: Vec<_> =
            entries.iter().map(|e| (e.op, e.width, e.signed, &e.netlist)).collect();
        let keep: Vec<bool> = class_representatives(&members, |i, j| {
            let (a, b) = (&entries[i], &entries[j]);
            area_of(&a.netlist, tech)
                .total_cmp(&area_of(&b.netlist, tech))
                .then_with(|| a.name.cmp(&b.name))
        })
        .into_iter()
        .enumerate()
        .map(|(i, rep)| rep == i)
        .collect();
        let removed = keep.iter().filter(|&&k| !k).count();
        if removed > 0 {
            let mut it = keep.iter();
            self.entries.retain(|_| *it.next().expect("one keep flag per entry"));
            self.structural = self.entries.iter().map(LibraryEntry::structural_key).collect();
            self.semantic_dups += removed;
        }
        removed
    }

    /// Total entries removed by [`dedup_semantic`](Self::dedup_semantic)
    /// over this library's lifetime.
    #[must_use]
    pub fn semantic_dups(&self) -> usize {
        self.semantic_dups
    }

    /// Re-prices every candidate matching the evaluator's component
    /// class (operator, width, signedness) under the evaluator's
    /// distribution: one statistics pass per candidate on the backend the
    /// operator and width pick (exhaustive enumeration up to the cap; past
    /// it, streamed rows for multipliers and symbolic counting for adders
    /// and MACs), fanned out over `threads` pool workers and
    /// bit-identical to a sequential pass, plus the technology-library
    /// area. The returned ranking is a total order, so selection never
    /// depends on thread count or ingestion accidents.
    #[must_use]
    pub fn rescore(
        &self,
        evaluator: &CircuitEvaluator,
        tech: &TechLibrary,
        threads: usize,
    ) -> RescoredLibrary<'_> {
        let matching: Vec<&LibraryEntry> = self
            .candidates(evaluator.operator(), evaluator.width(), evaluator.is_signed())
            .collect();
        let netlists: Vec<Netlist> = matching.iter().map(|e| e.netlist.clone()).collect();
        let stats = evaluator.stats_batch(&netlists, threads);
        let mut candidates: Vec<RescoredCandidate<'_>> = matching
            .into_iter()
            .zip(stats)
            .map(|(entry, stats)| RescoredCandidate {
                area: area_of(&entry.netlist, tech),
                entry,
                stats,
            })
            .collect();
        candidates.sort_by(|a, b| {
            a.area
                .total_cmp(&b.area)
                .then_with(|| a.stats.wmed.total_cmp(&b.stats.wmed))
                .then_with(|| a.entry.name.cmp(&b.entry.name))
        });
        RescoredLibrary { candidates }
    }
}

/// One candidate re-priced under a specific distribution.
#[derive(Debug, Clone)]
pub struct RescoredCandidate<'a> {
    /// The underlying library candidate (with its provenance).
    pub entry: &'a LibraryEntry,
    /// Exact error statistics under the re-scoring distribution —
    /// bit-identical to what [`run_sweep`](crate::run_sweep) would report
    /// for the same chromosome.
    pub stats: ErrorStats,
    /// Technology-library area of the candidate's active netlist (the
    /// cost axis of Eq. 1).
    pub area: f64,
}

/// A [`ComponentLibrary`] re-priced under one distribution: candidates in
/// ascending `(area, WMED bits, name)` order.
#[derive(Debug, Clone)]
pub struct RescoredLibrary<'a> {
    candidates: Vec<RescoredCandidate<'a>>,
}

impl<'a> RescoredLibrary<'a> {
    /// All re-scored candidates, cheapest first.
    #[must_use]
    pub fn candidates(&self) -> &[RescoredCandidate<'a>] {
        &self.candidates
    }

    /// The cheapest candidate whose re-scored WMED meets `threshold` —
    /// the library-hit rule: taking it satisfies the task's Eq. 1
    /// constraint with zero evolutions.
    #[must_use]
    pub fn best_meeting(&self, threshold: f64) -> Option<&RescoredCandidate<'a>> {
        self.candidates.iter().find(|c| c.stats.wmed <= threshold)
    }

    /// Up to `max` seed candidates for a CGP run constrained by
    /// `threshold`: candidates meeting the budget first (cheapest first —
    /// each is a feasible, finite-fitness starting point), then the
    /// near-misses by ascending WMED. Deterministic like every ranking
    /// here.
    #[must_use]
    pub fn seeds(&self, threshold: f64, max: usize) -> Vec<&RescoredCandidate<'a>> {
        let mut ranked: Vec<&RescoredCandidate<'a>> = self.candidates.iter().collect();
        ranked.sort_by(|a, b| {
            let (fa, fb) = (a.stats.wmed <= threshold, b.stats.wmed <= threshold);
            fb.cmp(&fa)
                .then_with(|| {
                    if fa && fb {
                        a.area.total_cmp(&b.area)
                    } else {
                        a.stats.wmed.total_cmp(&b.stats.wmed)
                    }
                })
                .then_with(|| a.entry.name.cmp(&b.entry.name))
        });
        ranked.truncate(max);
        ranked
    }

    /// The `(WMED, area)` Pareto front of this distribution's re-scored
    /// library, provenance preserved — the autoAx-style per-distribution
    /// trade-off view.
    #[must_use]
    pub fn pareto(&self) -> Vec<&RescoredCandidate<'a>> {
        let points: Vec<(f64, f64)> =
            self.candidates.iter().map(|c| (c.stats.wmed, c.area)).collect();
        pareto_indices(&points).into_iter().map(|i| &self.candidates[i]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apx_dist::Pmf;

    fn evoapprox4() -> ComponentLibrary {
        let mut lib = ComponentLibrary::new();
        lib.ingest_conventional(&MultiplierLibrary::truncated_family(4));
        lib
    }

    #[test]
    fn conventional_ingestion_unifies_and_deduplicates() {
        let mut lib = evoapprox4();
        let n = lib.len();
        assert!(n > 4, "truncated family should yield several candidates");
        // Re-ingesting the same family adds nothing (structural dedup).
        assert_eq!(lib.ingest_conventional(&MultiplierLibrary::truncated_family(4)), 0);
        assert_eq!(lib.len(), n);
        // A different width lands in a different index slice.
        assert!(lib.ingest_conventional(&MultiplierLibrary::truncated_family(3)) > 0);
        assert_eq!(lib.candidates(Operator::Mul, 4, false).count(), n);
        assert!(lib.candidates(Operator::Mul, 3, false).count() > 0);
        assert_eq!(lib.candidates(Operator::Mul, 4, true).count(), 0, "signedness separates");
        for e in lib.entries() {
            assert!(matches!(e.provenance, Provenance::Conventional { .. }));
            // The chromosome and phenotype agree by construction.
            assert_eq!(structural_hash(&e.chromosome.decode_active()), e.digest);
        }
    }

    #[test]
    fn conventional_families_ingest_past_the_table_width_limit() {
        // Ingestion reads netlists only, so a family of 13-bit multipliers
        // (past `OpTable`'s 12-bit limit) constructs and ingests like any
        // other, and asking it for a table is an error, not a panic.
        let unsigned = MultiplierLibrary::evoapprox_like(13);
        let signed = MultiplierLibrary::broken_family_signed(13);
        let mut lib = ComponentLibrary::new();
        let added = lib.ingest_conventional(&unsigned) + lib.ingest_conventional(&signed);
        assert!(added > 20, "expected both families' candidates, got {added}");
        assert_eq!(
            lib.candidates(Operator::Mul, 13, false).count()
                + lib.candidates(Operator::Mul, 13, true).count(),
            added
        );
        for e in lib.entries() {
            assert_eq!((e.netlist.num_inputs(), e.netlist.num_outputs()), (26, 26), "{}", e.name);
        }
        let exact = unsigned.get("exact_array").expect("the family holds its exact entry");
        assert_eq!(exact.table().unwrap_err(), apx_arith::TableError::BadWidth(13));
    }

    #[test]
    fn conventional_adders_land_under_the_add_operator() {
        let mut lib = evoapprox4();
        let n_mul = lib.candidates(Operator::Mul, 4, false).count();
        let added = lib.ingest_conventional_adders(4);
        assert!(added > 4, "adder families should yield several candidates, got {added}");
        // Re-ingesting adds nothing (structural dedup).
        assert_eq!(lib.ingest_conventional_adders(4), 0);
        // The operator axis separates: multipliers are untouched, adders
        // only show up under `Operator::Add`.
        assert_eq!(lib.candidates(Operator::Mul, 4, false).count(), n_mul);
        assert_eq!(lib.candidates(Operator::Add, 4, false).count(), added);
        assert_eq!(lib.candidates(Operator::Add, 4, true).count(), 0);
        let mut saw_loa = false;
        let mut saw_trunc = false;
        for e in lib.candidates(Operator::Add, 4, false) {
            assert_eq!(e.netlist.num_inputs(), 8);
            assert_eq!(e.netlist.num_outputs(), 5);
            match e.provenance {
                Provenance::Conventional { family: Family::LowerOr { .. } } => saw_loa = true,
                Provenance::Conventional { family: Family::Truncated { .. } } => saw_trunc = true,
                _ => {}
            }
        }
        assert!(saw_loa && saw_trunc);
        // The exact ripple adder re-scores to zero WMED; approximations
        // rank above it by error.
        let eval =
            CircuitEvaluator::for_operator(Operator::Add, 4, false, &Pmf::uniform(4)).unwrap();
        let rescored = lib.rescore(&eval, &TechLibrary::nangate45(), 2);
        assert_eq!(rescored.candidates().len(), added);
        let exact = rescored.candidates().iter().find(|c| c.entry.name == "exact_ripple").unwrap();
        assert_eq!(exact.stats.wmed, 0.0);
        assert!(rescored.candidates().iter().any(|c| c.stats.wmed > 0.0));
    }

    #[test]
    fn digest_ignores_dead_nodes_but_separates_structures() {
        let nl = apx_arith::array_multiplier(3);
        let chrom =
            Chromosome::from_netlist(&nl, &FunctionSet::extended(), nl.gate_count() + 30).unwrap();
        // Same circuit on a padded grid: digest unchanged.
        assert_eq!(structural_hash(&nl), structural_hash(&chrom.decode_active()));
        assert_ne!(structural_hash(&nl), structural_hash(&apx_arith::truncated_multiplier(3, 1)));
    }

    /// A library candidate under a chosen name and component class.
    fn named_entry(name: &str, signed: bool, netlist: Netlist) -> LibraryEntry {
        let chromosome =
            Chromosome::from_netlist(&netlist, &FunctionSet::extended(), netlist.gate_count())
                .unwrap();
        LibraryEntry {
            name: name.to_owned(),
            digest: structural_hash(&netlist),
            chromosome,
            netlist,
            op: Operator::Mul,
            width: 3,
            signed,
            provenance: Provenance::Conventional { family: Family::Exact },
        }
    }

    /// `nl` with the operands of every symmetric two-input gate swapped:
    /// one function, a different structure, the same area.
    fn operands_swapped(nl: &Netlist) -> Netlist {
        let nodes = nl
            .nodes()
            .iter()
            .map(|n| {
                if n.kind.arity() == 2 && n.kind.is_symmetric() {
                    apx_gates::Node { a: n.b, b: n.a, ..*n }
                } else {
                    *n
                }
            })
            .collect();
        Netlist::new(nl.num_inputs(), nodes, nl.outputs().to_vec()).unwrap()
    }

    /// `nl` with output 0 routed through two inverters: one function, a
    /// different structure, more area.
    fn double_negated(nl: &Netlist) -> Netlist {
        let mut nodes = nl.nodes().to_vec();
        let mut outputs = nl.outputs().to_vec();
        for _ in 0..2 {
            let prev = outputs[0];
            outputs[0] = apx_gates::SignalId((nl.num_inputs() + nodes.len()) as u32);
            nodes.push(apx_gates::Node { kind: apx_gates::GateKind::Not, a: prev, b: prev });
        }
        Netlist::new(nl.num_inputs(), nodes, outputs).unwrap()
    }

    #[test]
    fn semantic_dedup_keeps_the_area_then_name_preferred_member_per_class() {
        let tech = TechLibrary::nangate45();
        let exact = apx_arith::array_multiplier(3);
        let swapped = operands_swapped(&exact);
        let negated = double_negated(&exact);
        assert_ne!(structural_hash(&exact), structural_hash(&swapped));
        assert_eq!(area_of(&exact, &tech).to_bits(), area_of(&swapped, &tech).to_bits());
        assert!(area_of(&negated, &tech) > area_of(&exact, &tech));

        let mut lib = ComponentLibrary::new();
        // The class of unsigned 3-bit multipliers holds three netlists of
        // one function: `m_exact` is held first, `0_negated` loses on area
        // despite its name, and the later `a_swapped` ties on area and
        // wins on name.
        for entry in [
            named_entry("m_exact", false, exact.clone()),
            named_entry("0_negated", false, negated),
            named_entry("trunc", false, apx_arith::truncated_multiplier(3, 1)),
            named_entry("a_swapped", false, swapped.clone()),
            // The same function again, but as a signed component: another
            // class, so nothing to collapse it with.
            named_entry("signed_twin", true, double_negated(&swapped)),
        ] {
            assert!(lib.insert(entry));
        }
        assert_eq!(lib.dedup_semantic(&tech), 2);
        assert_eq!(lib.semantic_dups(), 2);
        let names: Vec<&str> = lib.entries().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["trunc", "a_swapped", "signed_twin"], "ingestion order is kept");

        // A second pass finds nothing new; the running total stays.
        assert_eq!(lib.dedup_semantic(&tech), 0);
        assert_eq!(lib.semantic_dups(), 2);
        // The structural index follows the survivors: a removed netlist
        // is new again, a kept one is still a duplicate.
        assert!(lib.insert(named_entry("m_exact", false, exact)));
        assert!(!lib.insert(named_entry("dup", false, swapped)));
    }

    #[test]
    fn rescoring_ranks_deterministically_and_fronts_are_nondominated() {
        let lib = evoapprox4();
        let pmf = Pmf::half_normal(4, 3.0);
        let eval = CircuitEvaluator::new(4, false, &pmf).unwrap();
        let tech = TechLibrary::nangate45();
        let a = lib.rescore(&eval, &tech, 1);
        let b = lib.rescore(&eval, &tech, 4);
        assert_eq!(a.candidates().len(), lib.len());
        for (x, y) in a.candidates().iter().zip(b.candidates()) {
            assert_eq!(x.entry.name, y.entry.name, "thread count changed the ranking");
            assert_eq!(x.stats.wmed.to_bits(), y.stats.wmed.to_bits());
            assert_eq!(x.area.to_bits(), y.area.to_bits());
        }
        // Sorted cheapest-first.
        for w in a.candidates().windows(2) {
            assert!(w[0].area <= w[1].area);
        }
        // Every candidate re-scored under an evaluator is *really* its
        // WMED: the exact multiplier scores zero.
        let exact = a.candidates().iter().find(|c| c.entry.name == "exact_array").unwrap();
        assert_eq!(exact.stats.wmed, 0.0);
        // Pareto front: no member dominated by any candidate.
        let front = a.pareto();
        assert!(!front.is_empty());
        for f in &front {
            for c in a.candidates() {
                assert!(
                    !(c.stats.wmed <= f.stats.wmed
                        && c.area <= f.area
                        && (c.stats.wmed < f.stats.wmed || c.area < f.area)),
                    "{} dominates front member {}",
                    c.entry.name,
                    f.entry.name
                );
            }
        }
    }

    #[test]
    fn hit_and_seed_selection_respect_the_threshold() {
        let lib = evoapprox4();
        let eval = CircuitEvaluator::new(4, false, &Pmf::uniform(4)).unwrap();
        let tech = TechLibrary::nangate45();
        let rescored = lib.rescore(&eval, &tech, 2);
        // A generous budget admits an approximate (cheaper-than-exact)
        // candidate; the hit is the cheapest admissible one.
        let hit = rescored.best_meeting(0.05).expect("loose budget must hit");
        assert!(hit.stats.wmed <= 0.05);
        for c in rescored.candidates() {
            if c.stats.wmed <= 0.05 {
                assert!(hit.area <= c.area);
            }
        }
        // An impossible budget hits nothing but still yields seeds, the
        // nearest-miss first.
        assert!(rescored.best_meeting(-1.0).is_none());
        let seeds = rescored.seeds(-1.0, 3);
        assert_eq!(seeds.len(), 3);
        for w in seeds.windows(2) {
            assert!(w[0].stats.wmed <= w[1].stats.wmed);
        }
        // Feasible seeds come before infeasible ones.
        let mid = rescored.candidates()[rescored.candidates().len() / 2].stats.wmed;
        let seeded = rescored.seeds(mid, rescored.candidates().len());
        let first_infeasible =
            seeded.iter().position(|c| c.stats.wmed > mid).unwrap_or(seeded.len());
        assert!(seeded[..first_infeasible].iter().all(|c| c.stats.wmed <= mid));
        assert!(seeded[first_infeasible..].iter().all(|c| c.stats.wmed > mid));
    }

    /// A scanned entry whose netlist drives every output to a fixed bit
    /// of `pattern`.
    fn constant_scanned(op: Operator, width: u32, pattern: u64, salt: u64) -> ScannedEntry {
        let mut b = apx_gates::NetlistBuilder::new(op.num_inputs(width));
        let zero = b.const0();
        let one = b.const1();
        let outs: Vec<_> = (0..op.num_outputs(width))
            .map(|k| if (pattern >> k) & 1 == 1 { one } else { zero })
            .collect();
        b.outputs(&outs);
        let netlist = b.finish().unwrap();
        let mut entry = scanned_from(op, width, netlist, salt);
        entry.circuit.name = format!("const_{pattern}");
        entry
    }

    fn scanned_from(op: Operator, width: u32, netlist: Netlist, salt: u64) -> ScannedEntry {
        let funcs = FunctionSet::extended();
        let chromosome = Chromosome::from_netlist(&netlist, &funcs, netlist.gate_count()).unwrap();
        let netlist = chromosome.decode_active();
        ScannedEntry {
            key: crate::cache::task_key(
                &crate::flow::FlowConfig::default(),
                &Pmf::uniform(8),
                0.25,
                0,
                salt,
            ),
            op,
            width,
            signed: false,
            circuit: EvolvedCircuit {
                name: format!("scan_{salt}"),
                chromosome,
                netlist,
                threshold: 0.25,
                run: 0,
                stats: ErrorStats {
                    med: 0.0,
                    wmed: 0.0,
                    wce: 0.0,
                    error_rate: 0.0,
                    mred: 0.0,
                    max_abs_error: 0,
                },
                estimate: apx_techlib::CircuitEstimate {
                    area_um2: 0.0,
                    delay_ns: 0.0,
                    leakage_uw: 0.0,
                    dynamic_uw: 0.0,
                    clock_mhz: 0.0,
                },
                evaluations: 1,
            },
        }
    }

    #[test]
    fn ingest_gate_rejects_invalid_netlists_with_named_diagnostics() {
        // A (Mul, 3) entry must have 6 outputs; hand it a 4-output
        // netlist and the static gate must refuse it with a *named*
        // diagnosis — no candidate, no exact-replay index entry.
        let mut b = apx_gates::NetlistBuilder::new(6);
        let x = b.input(0);
        let y = b.input(1);
        let g = b.and(x, y);
        b.outputs(&[g, x, y, g]);
        let bad = scanned_from(Operator::Mul, 3, b.finish().unwrap(), 1);
        let bad_key = bad.key;

        let mut lib = ComponentLibrary::new();
        assert!(!lib.ingest_scanned(bad));
        assert!(lib.is_empty(), "a rejected entry must not become a candidate");
        assert!(
            lib.exact_match(bad_key, Operator::Mul, 3, false).is_none(),
            "a rejected entry must not be replayable either"
        );
        assert_eq!(lib.rejected().len(), 1);
        let (key, diags) = &lib.rejected()[0];
        assert_eq!(*key, bad_key);
        assert!(
            diags.iter().any(|d| d.name() == "output-arity"),
            "the rejection names its diagnosis: {diags:?}"
        );

        // A contract-clean entry sails through the same gate.
        let good = constant_scanned(Operator::Mul, 3, 0, 2);
        let good_key = good.key;
        assert!(lib.ingest_scanned(good));
        assert_eq!(lib.len(), 1);
        assert!(lib.exact_match(good_key, Operator::Mul, 3, false).is_some());
        assert_eq!(lib.rejected().len(), 1, "accepting an entry does not grow the reject log");
    }

    #[test]
    fn structural_dedup_stays_within_a_component_class() {
        // One constant-zero netlist stored as an unsigned and as a signed
        // 3-bit multiplier: the same structural digest, two classes.
        let unsigned = constant_scanned(Operator::Mul, 3, 0, 20);
        let signed_twin =
            |salt| ScannedEntry { signed: true, ..constant_scanned(Operator::Mul, 3, 0, salt) };
        let signed = signed_twin(21);
        assert_eq!(
            structural_hash(&unsigned.circuit.netlist),
            structural_hash(&signed.circuit.netlist)
        );
        let zero = unsigned.circuit.netlist.clone();

        let mut lib = ComponentLibrary::new();
        assert!(lib.ingest_scanned(unsigned));
        assert!(lib.ingest_scanned(signed), "a twin in another class is a new candidate");
        assert_eq!(lib.candidates(Operator::Mul, 3, false).count(), 1);
        assert_eq!(lib.candidates(Operator::Mul, 3, true).count(), 1);

        // A twin in the same class is still a duplicate: it only extends
        // the exact-replay index.
        let again = signed_twin(22);
        let again_key = again.key;
        assert!(!lib.ingest_scanned(again));
        assert!(lib.exact_match(again_key, Operator::Mul, 3, true).is_some());

        // The index a semantic dedup pass rebuilds keeps both classes.
        assert!(lib.insert(named_entry("zero_negated", false, double_negated(&zero))));
        assert_eq!(lib.dedup_semantic(&TechLibrary::nangate45()), 1);
        assert_eq!(lib.candidates(Operator::Mul, 3, false).count(), 1);
        assert_eq!(lib.candidates(Operator::Mul, 3, true).count(), 1);
        assert!(!lib.ingest_scanned(constant_scanned(Operator::Mul, 3, 0, 23)));
        assert!(!lib.ingest_scanned(signed_twin(24)));
    }
}
