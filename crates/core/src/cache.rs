//! Content-addressed persistence for completed sweep tasks.
//!
//! At paper scale one `(distribution × threshold × run)` task is a CGP run
//! of ~10^6 generations — hours of compute per grid — yet the figure
//! binaries used to re-evolve identical tasks from scratch and a killed
//! sweep lost everything. This module gives [`run_sweep`](crate::run_sweep)
//! a durable memo: every completed task is written to disk keyed by *what
//! was computed*, so re-running the same configuration (the same binary
//! after Ctrl-C, a figure regenerated at the same scale, another shard of
//! a distributed run) loads the finished entries and computes only the
//! missing tail. Note that the master seed participates in every key (via
//! the per-task seed), so two binaries only share entries if they
//! configure the *same* seeded grid — the stock figure binaries use
//! distinct seeds and therefore maintain disjoint key sets in one shared
//! directory.
//!
//! # Key derivation
//!
//! A cache key is a 128-bit FNV-1a digest (two 64-bit passes with distinct
//! offset bases) of a canonical description of everything that determines
//! a task's result bit for bit:
//!
//! * the distribution as content — [`Pmf::content_digest`] over the exact
//!   probability bit patterns;
//! * the component class and operand encoding: the [`Operator`] name,
//!   `width`, `signed`;
//! * the task itself: the WMED `threshold` (IEEE-754 bits, not a decimal
//!   rendering), the `run` index, and the per-task RNG seed (which folds
//!   in the master seed and the task's grid position, see
//!   `flow::task_seed`);
//! * the CGP knobs: `iterations`, `lambda`, `mutations`, `cols_slack`;
//! * the estimate knob: `activity_blocks`;
//! * a format tag (`apx-sweep-task v2`) — bump it whenever the evolution
//!   or estimation algorithm changes meaning, which atomically orphans
//!   every stale entry instead of replaying it.
//!
//! Anything *not* in the key must not influence the stored bytes: display
//! names, distribution order, thread counts and shard splits all map to
//! the same entries, which is what makes a warm run bit-identical to a
//! cold one.
//!
//! # Entry format
//!
//! One task per file, `<32 hex digits>.sweep` under the cache directory, a
//! line-oriented text format in the spirit of `apx_cgp::serialize`:
//!
//! ```text
//! apxsweep v3
//! key 9f…e2
//! op mul 8 unsigned
//! threshold 3f50624dd2f1a9fc
//! run 0
//! evaluations 804
//! stats 3f1a… 3f08… 3f30… 3fe0… 3f2b… 37
//! estimate 40c3… 3ff4… 4059… 408e… 4093…
//! cgp 16 16 490
//! funcs buf not and nand or nor xor xnor
//! genes 0 1 2 …
//! ```
//!
//! The `op` line records the component class and operand encoding so a
//! directory can be *scanned* — [`SweepCache::scan`] turns an overnight
//! cache into the raw material of
//! [`crate::library::ComponentLibrary`], which indexes entries by
//! `(operator, width, signedness)` and re-scores them under new
//! distributions. v3 prefixed the operator name to the line (v2 carried
//! only `width signed`, v1 had no line at all); older entries simply
//! stop matching and are recomputed; strict rejection is the upgrade
//! path.
//!
//! Every `f64` is stored as the 16-hex-digit IEEE-754 bit pattern —
//! round-tripping is exact by construction, never `{:.17}`-approximate.
//! The phenotype netlist is not stored: it is re-derived from the
//! chromosome (`decode_active` is deterministic), and the chromosome line
//! reuses the existing `.cgp` serialization. Loading is strict: a missing
//! line, a short field list, a key mismatch or trailing bytes all reject
//! the entry (the caller recomputes — corruption can cost time, never
//! correctness).
//!
//! # Atomicity
//!
//! [`SweepCache::store`] writes to a per-process temp file in the cache
//! directory and `rename`s it into place, so a killed run leaves either no
//! entry or a complete one — never a torn file that a resume would have to
//! distrust. Concurrent writers (two shards finishing the same key) race
//! benignly: both rename complete, identical bytes. A writer killed
//! *between* write and rename does leave its `.{key}.tmp.{pid}` file
//! behind; such litter is invisible to loads and scans, counted by
//! [`cache_dir_stats`] (`tmp_litter`), and deleted by [`gc_cache_dir`]
//! once stale.
//!
//! # Garbage collection
//!
//! [`gc_cache_dir`] is the eviction policy an orchestrated overnight
//! exploration runs after its grid completes: keep every live-grid key
//! (exact resume stays bit-identical) plus, per
//! `(operator, width, signedness)`, the `(WMED, area)` Pareto set of
//! components under the live
//! distributions (what autoAx-style library reuse could still take), and
//! drop dominated historical entries, corrupt files and stale temp
//! litter. See [`GcConfig`] / [`GcReport`].
//!
//! The sweep driver decides *where* the cache lives
//! ([`SweepConfig::cache_dir`](crate::SweepConfig)); the figure binaries
//! default it to `results/cache/` and expose the `APX_CACHE_DIR`
//! environment knob (empty or `off` disables caching entirely).

use crate::flow::{EvolvedCircuit, FlowConfig};
use crate::library::{ComponentLibrary, Provenance};
use crate::pareto_indices;
use apx_arith::{EvalBackend, Operator};
use apx_cgp::Chromosome;
use apx_dist::{fnv1a64, Pmf, FNV1A64_OFFSET};
use apx_metrics::{CircuitEvaluator, ErrorStats};
use apx_techlib::{CircuitEstimate, TechLibrary};
use std::collections::{BTreeSet, HashSet};
use std::fmt;
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, SystemTime};

/// Version tag mixed into every key and written into every entry. Bump it
/// whenever the semantics of a stored task change (evolution algorithm,
/// estimate model, seed derivation): old entries then simply stop
/// matching instead of resurfacing as wrong results.
const FORMAT_TAG: &str = "apx-sweep-task v2";

/// Magic first line of an entry file. Bumped to v3 when the operator name
/// joined the `op` line (v2 had added the line with only the operand
/// encoding); v1/v2 files are rejected by the strict loader and
/// transparently recomputed.
const MAGIC: &str = "apxsweep v3";

/// A 128-bit content-addressed cache key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    hi: u64,
    lo: u64,
}

impl CacheKey {
    /// The key as 32 lowercase hex digits (also the entry's file stem).
    #[must_use]
    pub fn hex(&self) -> String {
        format!("{:016x}{:016x}", self.hi, self.lo)
    }

    /// Parses the 32-lowercase-hex-digit form produced by
    /// [`CacheKey::hex`] (e.g. a cache entry's file stem). `None` on any
    /// other shape, uppercase digits included: an entry is only ever
    /// found, loaded and deleted under the name `hex` gives its key, so a
    /// file under another spelling must read as corrupt, not as a second
    /// copy of that key.
    #[must_use]
    pub fn from_hex(s: &str) -> Option<Self> {
        if s.len() != 32 || !s.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')) {
            return None;
        }
        Some(CacheKey {
            hi: u64::from_str_radix(&s[..16], 16).ok()?,
            lo: u64::from_str_radix(&s[16..], 16).ok()?,
        })
    }
}

impl fmt::Display for CacheKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}{:016x}", self.hi, self.lo)
    }
}

/// Derives the content-addressed key of one sweep task (see the module
/// docs for exactly which inputs participate and why).
#[must_use]
pub fn task_key(
    flow: &FlowConfig,
    pmf: &Pmf,
    threshold: f64,
    run: usize,
    task_seed: u64,
) -> CacheKey {
    let canonical = format!(
        "{FORMAT_TAG}\npmf {:016x}\nop {} width {} signed {}\nthreshold {:016x}\nrun {run}\n\
         task_seed {task_seed:016x}\niterations {} lambda {} mutations {} cols_slack {}\n\
         activity_blocks {}\n",
        pmf.content_digest(),
        flow.operator.name(),
        flow.width,
        flow.signed,
        threshold.to_bits(),
        flow.iterations,
        flow.lambda,
        flow.mutations,
        flow.cols_slack,
        flow.activity_blocks,
    );
    // Two independent 64-bit passes (standard offset basis, then a
    // decorrelated one) make accidental collisions across a design-space
    // exploration astronomically unlikely without any external hash dep.
    CacheKey {
        hi: fnv1a64(canonical.as_bytes(), FNV1A64_OFFSET),
        lo: fnv1a64(canonical.as_bytes(), FNV1A64_OFFSET ^ 0x9E37_79B9_7F4A_7C15),
    }
}

/// A directory of completed sweep tasks, one file per [`CacheKey`].
#[derive(Debug, Clone)]
pub struct SweepCache {
    dir: PathBuf,
}

impl SweepCache {
    /// Opens (without touching the filesystem) a cache rooted at `dir`.
    /// The directory is created lazily on the first [`store`](Self::store).
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        SweepCache { dir: dir.into() }
    }

    /// The cache directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path_of(&self, key: CacheKey) -> PathBuf {
        self.dir.join(format!("{}.sweep", key.hex()))
    }

    /// Loads the completed task stored under `key`, or `None` when the
    /// entry is absent, truncated, corrupt, belongs to a different key or
    /// carries a netlist the static lint finds an error in (for instance
    /// an output count that contradicts its `op` line) — a rejected entry
    /// is indistinguishable from a miss, so the caller always falls back
    /// to recomputing (and then overwrites the bad file).
    ///
    /// The returned circuit carries the *stored* task data; its display
    /// `name` is whatever the storing run used, and
    /// [`run_sweep`](crate::run_sweep) re-stamps it for the current
    /// configuration.
    #[must_use]
    pub fn load(&self, key: CacheKey) -> Option<EvolvedCircuit> {
        let text = std::fs::read_to_string(self.path_of(key)).ok()?;
        let e = entry_from_text(&text, key)?;
        // Exact replay hands the netlist straight to figures and
        // evaluators, so every build lints it against its declared
        // component contract first.
        let diags = apx_verify::lint_component(&e.circuit.netlist, e.op, e.width);
        (!apx_verify::has_errors(&diags)).then_some(e.circuit)
    }

    /// Atomically stores `entry` under `key`: the bytes are written to a
    /// per-process temp file in the cache directory and renamed into
    /// place, so no interleaving of crashes and concurrent writers can
    /// leave a torn file behind.
    ///
    /// `op`, `width` and `signed` record the component class and operand
    /// encoding in the entry's `op` line so directory scans can index the
    /// entry without guessing.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors (unwritable directory, full disk). Callers
    /// inside the sweep treat a failed store as "cache disabled for this
    /// task" — the computed result is still returned.
    pub fn store(
        &self,
        key: CacheKey,
        entry: &EvolvedCircuit,
        op: Operator,
        width: u32,
        signed: bool,
    ) -> io::Result<PathBuf> {
        std::fs::create_dir_all(&self.dir)?;
        let path = self.path_of(key);
        let tmp = self.dir.join(format!(".{}.tmp.{}", key.hex(), std::process::id()));
        std::fs::write(&tmp, entry_to_text(entry, key, op, width, signed))?;
        match std::fs::rename(&tmp, &path) {
            Ok(()) => Ok(path),
            Err(e) => {
                // Never leave temp litter next to real entries.
                let _ = std::fs::remove_file(&tmp);
                Err(e)
            }
        }
    }

    /// Scans the whole directory: every intact `*.sweep` entry, keyed and
    /// tagged with its operand encoding, in deterministic (key-sorted)
    /// order regardless of filesystem enumeration order.
    ///
    /// Corrupt, truncated, foreign or v1 files are silently skipped — a
    /// scan is a best-effort harvest (the library layer treats the cache
    /// as found material), unlike the keyed [`SweepCache::load`] path
    /// where a rejected entry triggers a recompute. A missing directory
    /// scans as empty.
    #[must_use]
    pub fn scan(&self) -> Vec<ScannedEntry> {
        walk_dir(&self.dir).map(|walk| walk.entries).unwrap_or_default()
    }
}

/// One entry harvested by [`SweepCache::scan`].
#[derive(Debug, Clone)]
pub struct ScannedEntry {
    /// The content-addressed key the entry was stored under.
    pub key: CacheKey,
    /// The component class (from the entry's `op` line).
    pub op: Operator,
    /// Operand width in bits (from the entry's `op` line).
    pub width: u32,
    /// Two's-complement operand encoding.
    pub signed: bool,
    /// The stored task result.
    pub circuit: EvolvedCircuit,
}

/// Aggregate shape of a cache directory ([`cache_dir_stats`]) — the
/// maintenance view an operator checks before pointing a library-mode
/// sweep (or, later, an orchestrator's garbage collector) at an overnight
/// cache.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheDirStats {
    /// `*.sweep` files present.
    pub files: usize,
    /// Files that parse as intact entries.
    pub entries: usize,
    /// Files rejected by the strict loader (torn, foreign, stale format).
    pub corrupt: usize,
    /// Total size of all `*.sweep` files in bytes.
    pub total_bytes: u64,
    /// Orphaned writer temp files (`.{key}.tmp.{pid}`): litter left by a
    /// writer killed between `fs::write` and `rename` in
    /// [`SweepCache::store`]. Invisible to loads and scans, but they
    /// accumulate forever unless a [`gc_cache_dir`] pass removes them.
    pub tmp_litter: usize,
    /// Intact entries per `(operator, width, signed)` component class and
    /// operand encoding.
    pub per_op: std::collections::BTreeMap<(Operator, u32, bool), usize>,
}

/// Walks `dir` and summarizes its `*.sweep` population: file and intact
/// entry counts, total bytes, and per-`(operator, width, signedness)`
/// entry counts. A missing directory reports all zeros.
#[must_use]
pub fn cache_dir_stats(dir: &Path) -> CacheDirStats {
    let Ok(walk) = walk_dir(dir) else {
        return CacheDirStats::default();
    };
    let mut per_op = std::collections::BTreeMap::new();
    for e in &walk.entries {
        *per_op.entry((e.op, e.width, e.signed)).or_insert(0) += 1;
    }
    CacheDirStats {
        files: walk.entries.len() + walk.corrupt.len(),
        entries: walk.entries.len(),
        corrupt: walk.corrupt.len(),
        total_bytes: walk.sweep_bytes,
        tmp_litter: walk.litter.len(),
        per_op,
    }
}

/// One pass over a cache directory, every file sorted into what the
/// cache owns. Foreign files (no `.sweep` suffix, not writer litter) are
/// left out.
struct DirWalk {
    /// Intact `*.sweep` entries in key order, regardless of filesystem
    /// enumeration order.
    entries: Vec<ScannedEntry>,
    /// `*.sweep` files the strict loader rejects (torn, foreign, stale
    /// format).
    corrupt: Vec<PathBuf>,
    /// Writer temp files with their age by mtime (`None` when unknown).
    litter: Vec<(PathBuf, Option<Duration>)>,
    /// Total size of all `*.sweep` files in bytes.
    sweep_bytes: u64,
}

/// Walks `dir` once for [`SweepCache::scan`], [`cache_dir_stats`] and
/// [`gc_cache_dir`].
///
/// # Errors
///
/// The `read_dir` error, a missing directory included.
fn walk_dir(dir: &Path) -> io::Result<DirWalk> {
    let read = std::fs::read_dir(dir)?;
    let now = SystemTime::now();
    let mut walk =
        DirWalk { entries: Vec::new(), corrupt: Vec::new(), litter: Vec::new(), sweep_bytes: 0 };
    for f in read.filter_map(Result::ok) {
        let path = f.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if is_tmp_litter(name) {
            let age = f
                .metadata()
                .and_then(|m| m.modified())
                .ok()
                .and_then(|t| now.duration_since(t).ok());
            walk.litter.push((path, age));
            continue;
        }
        let Some(stem) = name.strip_suffix(".sweep") else {
            continue;
        };
        walk.sweep_bytes += f.metadata().map_or(0, |m| m.len());
        let parsed = CacheKey::from_hex(stem).and_then(|key| {
            let text = std::fs::read_to_string(&path).ok()?;
            entry_from_text(&text, key)
        });
        match parsed {
            Some(e) => walk.entries.push(e),
            None => walk.corrupt.push(path),
        }
    }
    walk.entries.sort_by_key(|e| (e.key.hi, e.key.lo));
    Ok(walk)
}

/// Whether `name` matches the `.{key}.tmp.{pid}` pattern of
/// [`SweepCache::store`]'s temp files. Dotfiles that real entries can
/// never collide with — entry names are bare hex stems.
fn is_tmp_litter(name: &str) -> bool {
    name.starts_with('.') && name.contains(".tmp.")
}

/// Policy of one [`gc_cache_dir`] pass.
///
/// Survival is the union of two rules; everything else in the directory
/// that belongs to the cache (entries, corrupt files, stale temp litter)
/// is deleted:
///
/// * **live keys** — every intact entry whose [`CacheKey`] is in `keep`
///   survives untouched. Callers pass the content-addressed keys of the
///   grid they are still serving ([`crate::grid_keys`]), so an exact
///   warm resume stays bit-identical after collection;
/// * **Pareto front** — per `(operator, width, signedness)` group, the
///   autoAx-style component view: all candidates are re-scored
///   ([`ComponentLibrary::rescore`]) under each matching-width
///   distribution in `distributions` and every `(WMED, area)` front
///   member survives (union over the distributions). Dominated historical
///   entries — the ones a library-mode sweep would never take — are
///   dropped. A group no distribution applies to falls back to the
///   *stored* statistics (the WMED each entry was evolved under), so GC
///   never silently deletes a whole foreign group.
#[derive(Debug, Clone)]
pub struct GcConfig {
    /// Content-addressed keys of the live grid — kept unconditionally.
    pub keep: HashSet<CacheKey>,
    /// Distributions to re-score candidates under (typically the live
    /// sweep's PMFs). Applied to every `(operator, width, signedness)`
    /// group of matching width.
    pub distributions: Vec<Pmf>,
    /// Worker threads for the re-scoring passes.
    pub threads: usize,
    /// Temp files younger than this are left alone — they may belong to a
    /// *live* writer between `fs::write` and `rename`. An orchestrator
    /// that just joined all of its shard processes can safely use
    /// [`Duration::ZERO`].
    pub tmp_ttl: Duration,
}

impl Default for GcConfig {
    /// Keep nothing special, no re-scoring distributions (stored-stats
    /// fronts), one thread and a 15-minute temp-file grace period —
    /// orders of magnitude longer than any write-to-rename window.
    fn default() -> Self {
        GcConfig {
            keep: HashSet::new(),
            distributions: Vec::new(),
            threads: 1,
            tmp_ttl: Duration::from_secs(15 * 60),
        }
    }
}

/// What one [`gc_cache_dir`] pass did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Intact entries found before collection.
    pub entries_before: usize,
    /// Entries kept because their key is in [`GcConfig::keep`].
    pub kept_live: usize,
    /// Additional entries kept as `(WMED, area)` Pareto front members.
    pub kept_pareto: usize,
    /// Dominated historical entries deleted.
    pub evicted: usize,
    /// Corrupt / stale-format `*.sweep` files deleted (they are treated
    /// as misses by every reader, so removal is always safe).
    pub corrupt_removed: usize,
    /// Stale writer temp files deleted.
    pub tmp_removed: usize,
    /// Pareto-kept entries dropped as functional-equivalence duplicates
    /// of another survivor (see [`gc_cache_dir`]); these are deleted and
    /// counted under [`evicted`](GcReport::evicted) as well.
    pub collapsed: usize,
    /// Total bytes reclaimed.
    pub bytes_freed: u64,
}

impl GcReport {
    /// Intact entries surviving the pass.
    #[must_use]
    pub fn kept(&self) -> usize {
        self.kept_live + self.kept_pareto
    }
}

/// Removes `path`, tolerating a concurrent removal, and adds its size to
/// `bytes_freed`. Returns whether a file was actually deleted.
fn remove_counted(path: &Path, bytes_freed: &mut u64) -> io::Result<bool> {
    let len = std::fs::metadata(path).map_or(0, |m| m.len());
    match std::fs::remove_file(path) {
        Ok(()) => {
            *bytes_freed += len;
            Ok(true)
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(false),
        Err(e) => Err(e),
    }
}

/// Garbage-collects a sweep cache directory (policy: [`GcConfig`]).
///
/// Without eviction an overnight design-space exploration is append-only:
/// every historical key stays behind forever and `cache_stats` only
/// watches the pile grow. This pass keeps exactly what still has value —
/// the live grid's exact checkpoints plus the per-encoding Pareto set of
/// components a library-mode sweep could ever take — and deletes the
/// dominated remainder, corrupt files and stale temp litter. Surviving
/// files are never rewritten, so everything kept is bit-identical before
/// and after.
///
/// A missing directory is a no-op reporting all zeros.
///
/// # Errors
///
/// Propagates I/O errors other than concurrent-removal races (an entry
/// vanishing between scan and delete is tolerated).
pub fn gc_cache_dir(dir: &Path, cfg: &GcConfig) -> io::Result<GcReport> {
    let mut report = GcReport::default();
    let walk = match walk_dir(dir) {
        Ok(walk) => walk,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(report),
        Err(e) => return Err(e),
    };
    // The walk yields entries in key order: survivor selection (and dedup
    // provenance) must not depend on filesystem enumeration order.
    let scanned = walk.entries;
    report.entries_before = scanned.len();

    let mut survivors: HashSet<CacheKey> = HashSet::new();
    for e in &scanned {
        if cfg.keep.contains(&e.key) {
            survivors.insert(e.key);
        }
    }
    report.kept_live = survivors.len();

    let groups: BTreeSet<(Operator, u32, bool)> =
        scanned.iter().map(|e| (e.op, e.width, e.signed)).collect();
    if !groups.is_empty() {
        // The candidate library (a deep copy of every netlist) is only
        // worth building when some group will actually be re-scored; a
        // stored-stats-only pass reads `scanned` directly.
        let needs_rescoring =
            groups.iter().any(|(_, w, _)| cfg.distributions.iter().any(|p| p.width() == *w));
        let mut lib = ComponentLibrary::new();
        if needs_rescoring {
            for e in &scanned {
                lib.ingest_scanned(e.clone());
            }
        }
        let tech = TechLibrary::nangate45();
        for &(op, width, signed) in &groups {
            let mut rescored_any = false;
            for pmf in cfg.distributions.iter().filter(|p| p.width() == width) {
                // Construction only fails on width/PMF mismatches, both
                // excluded by the filter above — but stay graceful.
                let Ok(evaluator) = CircuitEvaluator::for_operator(op, width, signed, pmf) else {
                    continue;
                };
                let rescored = lib.rescore(&evaluator, &tech, cfg.threads.max(1));
                for c in rescored.pareto() {
                    if let Provenance::Evolved { source_key } = c.entry.provenance {
                        survivors.insert(source_key);
                    }
                }
                rescored_any = true;
            }
            if !rescored_any {
                // No distribution covers this group: keep the front of
                // the stored statistics instead of deleting blindly.
                let group: Vec<&ScannedEntry> = scanned
                    .iter()
                    .filter(|e| e.op == op && e.width == width && e.signed == signed)
                    .collect();
                let points: Vec<(f64, f64)> = group
                    .iter()
                    .map(|e| (e.circuit.stats.wmed, e.circuit.estimate.area_um2))
                    .collect();
                for i in pareto_indices(&points) {
                    survivors.insert(group[i].key);
                }
            }
        }
    }
    // Equivalence-class collapse: Pareto-kept survivors that compute the
    // same function would re-score identically under every distribution,
    // so one representative per class is enough — the selection-preferred
    // member (smallest stored area, ties by key, matching the library's
    // `dedup_semantic` order). Live keys are exempt.
    let pareto_kept: Vec<&ScannedEntry> = scanned
        .iter()
        .filter(|e| survivors.contains(&e.key) && !cfg.keep.contains(&e.key))
        .collect();
    let members: Vec<_> =
        pareto_kept.iter().map(|e| (e.op, e.width, e.signed, &e.circuit.netlist)).collect();
    let reps = apx_verify::class_representatives(&members, |i, j| {
        let (a, b) = (pareto_kept[i], pareto_kept[j]);
        a.circuit
            .estimate
            .area_um2
            .total_cmp(&b.circuit.estimate.area_um2)
            .then_with(|| (a.key.hi, a.key.lo).cmp(&(b.key.hi, b.key.lo)))
    });
    for (i, (e, rep)) in pareto_kept.iter().zip(reps).enumerate() {
        if rep != i {
            survivors.remove(&e.key);
            report.collapsed += 1;
        }
    }
    report.kept_pareto = survivors.len() - report.kept_live;

    let cache = SweepCache::new(dir);
    for e in &scanned {
        if !survivors.contains(&e.key)
            && remove_counted(&cache.path_of(e.key), &mut report.bytes_freed)?
        {
            report.evicted += 1;
        }
    }
    for path in &walk.corrupt {
        if remove_counted(path, &mut report.bytes_freed)? {
            report.corrupt_removed += 1;
        }
    }
    // Litter younger than the grace period may belong to a live writer.
    for (path, age) in &walk.litter {
        if age.is_some_and(|age| age >= cfg.tmp_ttl)
            && remove_counted(path, &mut report.bytes_freed)?
        {
            report.tmp_removed += 1;
        }
    }
    Ok(report)
}

fn push_f64_bits(out: &mut String, values: &[f64]) {
    for v in values {
        let _ = write!(out, " {:016x}", v.to_bits());
    }
}

/// Serializes one completed task to the entry format (module docs).
fn entry_to_text(
    m: &EvolvedCircuit,
    key: CacheKey,
    op: Operator,
    width: u32,
    signed: bool,
) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{MAGIC}");
    let _ = writeln!(s, "key {}", key.hex());
    let _ = writeln!(s, "op {} {width} {}", op.name(), if signed { "signed" } else { "unsigned" });
    let _ = writeln!(s, "threshold {:016x}", m.threshold.to_bits());
    let _ = writeln!(s, "run {}", m.run);
    let _ = writeln!(s, "evaluations {}", m.evaluations);
    s.push_str("stats");
    push_f64_bits(
        &mut s,
        &[m.stats.med, m.stats.wmed, m.stats.wce, m.stats.error_rate, m.stats.mred],
    );
    let _ = writeln!(s, " {}", m.stats.max_abs_error);
    s.push_str("estimate");
    push_f64_bits(
        &mut s,
        &[
            m.estimate.area_um2,
            m.estimate.delay_ns,
            m.estimate.leakage_uw,
            m.estimate.dynamic_uw,
            m.estimate.clock_mhz,
        ],
    );
    s.push('\n');
    s.push_str(&m.chromosome.to_text());
    s
}

/// Parses an entry, validating it belongs to `key`. `None` on any defect.
fn entry_from_text(text: &str, key: CacheKey) -> Option<ScannedEntry> {
    let mut lines = text.lines();
    if lines.next()? != MAGIC {
        return None;
    }
    if lines.next()? != format!("key {}", key.hex()) {
        return None;
    }
    let op_line = field(lines.next()?, "op", 3)?;
    let op: Operator = op_line.values[0].parse().ok()?;
    let width: u32 = op_line.values[1].parse().ok()?;
    let signed = match op_line.values[2] {
        "signed" => true,
        "unsigned" => false,
        _ => return None,
    };
    // Accept any width some backend can evaluate (the symbolic range is
    // the widest): wide-width sweep results must survive a cache round
    // trip even when re-read under an enumeration backend.
    if !op.supports_width(width, EvalBackend::Symbolic) {
        return None;
    }
    let threshold = f64::from_bits(field(lines.next()?, "threshold", 1)?.parse_hex()?);
    let run = field(lines.next()?, "run", 1)?.parse_dec()?;
    let evaluations = field(lines.next()?, "evaluations", 1)?.parse_dec()?;

    let stats_line = field(lines.next()?, "stats", 6)?;
    let s = stats_line.f64s::<5>()?;
    let stats = ErrorStats {
        med: s[0],
        wmed: s[1],
        wce: s[2],
        error_rate: s[3],
        mred: s[4],
        max_abs_error: stats_line.values.last()?.parse().ok()?,
    };
    let est_line = field(lines.next()?, "estimate", 5)?;
    let e = est_line.f64s::<5>()?;
    let estimate = CircuitEstimate {
        area_um2: e[0],
        delay_ns: e[1],
        leakage_uw: e[2],
        dynamic_uw: e[3],
        clock_mhz: e[4],
    };

    // The remainder is exactly one `.cgp` chromosome; `from_text` rejects
    // truncation and trailing bytes itself.
    let rest: Vec<&str> = lines.collect();
    let chromosome = Chromosome::from_text(&rest.join("\n")).ok()?;
    if chromosome.num_inputs() != op.num_inputs(width) {
        return None; // the `op` line must agree with the genotype
    }
    let netlist = chromosome.decode_active();
    Some(ScannedEntry {
        key,
        op,
        width,
        signed,
        circuit: EvolvedCircuit {
            name: String::new(), // re-stamped by the caller for its grid
            chromosome,
            netlist,
            threshold,
            run,
            stats,
            estimate,
            evaluations,
        },
    })
}

/// One parsed `tag v1 v2 …` line with exactly `expected` values.
struct Fields<'a> {
    values: Vec<&'a str>,
}

impl Fields<'_> {
    fn parse_hex(&self) -> Option<u64> {
        u64::from_str_radix(self.values[0], 16).ok()
    }

    fn parse_dec<T: std::str::FromStr>(&self) -> Option<T> {
        self.values[0].parse().ok()
    }

    fn f64s<const N: usize>(&self) -> Option<[f64; N]> {
        let mut out = [0.0; N];
        for (o, v) in out.iter_mut().zip(&self.values) {
            *o = f64::from_bits(u64::from_str_radix(v, 16).ok()?);
        }
        Some(out)
    }
}

fn field<'a>(line: &'a str, tag: &str, expected: usize) -> Option<Fields<'a>> {
    let mut parts = line.split_whitespace();
    if parts.next()? != tag {
        return None;
    }
    let values: Vec<&str> = parts.collect();
    (values.len() == expected).then_some(Fields { values })
}

#[cfg(test)]
mod tests {
    use super::*;
    use apx_cgp::FunctionSet;
    use apx_rng::Xoshiro256;
    use proptest::prelude::*;

    /// Per-test unique scratch directory (parallel test binaries must not
    /// race on a shared fixed path — see the report-module regression).
    fn scratch(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("apx_cache_test_{}_{tag}", std::process::id()))
    }

    fn some_key(salt: u64) -> CacheKey {
        task_key(&FlowConfig::default(), &Pmf::uniform(8), 0.01, 0, salt)
    }

    /// A synthetic but structurally valid entry with every field driven
    /// from `seed`, including awkward float values (negative zero,
    /// subnormals, huge magnitudes). Multiplier-shaped (3-bit operands,
    /// `2w` inputs and outputs) so entries stored as `(Mul, 3)` satisfy
    /// the component contract the static lint enforces at load/ingest.
    fn synthetic_entry(seed: u64) -> EvolvedCircuit {
        let mut rng = Xoshiro256::from_seed(seed);
        let chromosome = Chromosome::random(6, 6, 20, &FunctionSet::extended(), &mut rng);
        let mut f = |i: usize| match i % 4 {
            0 => -0.0,
            1 => f64::from_bits(1), // smallest subnormal
            2 => rng.f64() * 1e300,
            _ => rng.f64(),
        };
        let netlist = chromosome.decode_active();
        EvolvedCircuit {
            name: format!("D_t{}_r{}", seed % 7, seed % 3),
            chromosome,
            netlist,
            threshold: f(3),
            run: (seed % 25) as usize,
            stats: ErrorStats {
                med: f(0),
                wmed: f(1),
                wce: f(2),
                error_rate: f(3),
                mred: f(2),
                max_abs_error: (seed as i64).rotate_left(17),
            },
            estimate: CircuitEstimate {
                area_um2: f(2),
                delay_ns: f(3),
                leakage_uw: f(0),
                dynamic_uw: f(1),
                clock_mhz: f(2),
            },
            evaluations: seed.rotate_left(29),
        }
    }

    fn assert_bit_identical(a: &EvolvedCircuit, b: &EvolvedCircuit) {
        assert_eq!(a.chromosome, b.chromosome);
        assert_eq!(a.run, b.run);
        assert_eq!(a.evaluations, b.evaluations);
        assert_eq!(a.threshold.to_bits(), b.threshold.to_bits());
        for (x, y) in [
            (a.stats.med, b.stats.med),
            (a.stats.wmed, b.stats.wmed),
            (a.stats.wce, b.stats.wce),
            (a.stats.error_rate, b.stats.error_rate),
            (a.stats.mred, b.stats.mred),
            (a.estimate.area_um2, b.estimate.area_um2),
            (a.estimate.delay_ns, b.estimate.delay_ns),
            (a.estimate.leakage_uw, b.estimate.leakage_uw),
            (a.estimate.dynamic_uw, b.estimate.dynamic_uw),
            (a.estimate.clock_mhz, b.estimate.clock_mhz),
        ] {
            // Stricter than PartialEq: -0.0 must stay -0.0.
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert_eq!(a.stats.max_abs_error, b.stats.max_abs_error);
        assert_eq!(a.netlist.gate_count(), b.netlist.gate_count());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn store_load_round_trips_bit_for_bit(seed in 0u64..u64::MAX, salt in 0u64..u64::MAX) {
            let entry = synthetic_entry(seed);
            let key = some_key(salt);
            let signed = seed % 2 == 0;
            let dir = scratch("prop");
            let cache = SweepCache::new(&dir);
            cache.store(key, &entry, Operator::Mul, 3, signed).expect("store");
            let back = cache.load(key).expect("hit");
            assert_bit_identical(&entry, &back);
            // In-memory round trip agrees with the on-disk one, and the
            // `op` line round-trips the operand encoding.
            let back2 =
                entry_from_text(&entry_to_text(&entry, key, Operator::Mul, 3, signed), key)
                    .expect("parse");
            assert_bit_identical(&entry, &back2.circuit);
            assert_eq!(back2.signed, signed);
            assert_eq!(back2.width as usize, entry.netlist.num_inputs() / 2);
            assert_eq!(back2.key, key);
        }
    }

    #[test]
    fn missing_entry_is_a_miss() {
        let cache = SweepCache::new(scratch("missing"));
        assert!(cache.load(some_key(1)).is_none());
    }

    #[test]
    fn corrupt_and_truncated_entries_are_rejected_not_panicked() {
        let entry = synthetic_entry(42);
        let key = some_key(42);
        let text = entry_to_text(&entry, key, Operator::Mul, 3, false);
        assert!(entry_from_text(&text, key).is_some(), "sanity: intact entry loads");

        // Truncation at every line boundary (a killed non-atomic writer).
        let lines: Vec<&str> = text.lines().collect();
        for n in 0..lines.len() {
            let cut = lines[..n].join("\n");
            assert!(entry_from_text(&cut, key).is_none(), "truncated to {n} lines accepted");
        }
        // Truncation mid-line and single-byte corruption in the genes.
        assert!(entry_from_text(&text[..text.len() - 3], key).is_none());
        assert!(entry_from_text(&text.replace("genes", "genus"), key).is_none());
        // Trailing garbage / doubled entry.
        assert!(entry_from_text(&format!("{text}{text}"), key).is_none());
        assert!(entry_from_text(&format!("{text}trailing junk\n"), key).is_none());
        // Wrong magic or an entry stored under another key.
        assert!(entry_from_text(&text.replace(MAGIC, "apxsweep v1"), key).is_none());
        assert!(entry_from_text(&text.replace(MAGIC, "apxsweep v2"), key).is_none());
        assert!(entry_from_text(&text, some_key(43)).is_none());
        // A tampered `op` line (bad encoding word, zero width, width that
        // contradicts the genotype) is a defect, not a guess.
        for bad in [
            "op sideways 3 unsigned", // unknown operator token
            "op mul 3 sideways",      // bad encoding word
            "op mul 0 unsigned",      // zero width
            "op mul 4 unsigned",      // width contradicting the genotype
            "op 3 unsigned",          // v2 line shape (no operator)
        ] {
            assert!(
                entry_from_text(&text.replace("op mul 3 unsigned", bad), key).is_none(),
                "`{bad}` accepted"
            );
        }

        // End to end: a corrupt file on disk behaves as a miss.
        let dir = scratch("corrupt");
        let cache = SweepCache::new(&dir);
        let path = cache.store(key, &entry, Operator::Mul, 3, false).expect("store");
        std::fs::write(&path, &text.as_bytes()[..40]).unwrap();
        assert!(cache.load(key).is_none());
    }

    #[test]
    fn keys_separate_every_input_that_shapes_the_result() {
        let flow = FlowConfig::default();
        let pmf = Pmf::uniform(8);
        let base = task_key(&flow, &pmf, 0.01, 0, 7);
        assert_eq!(base, task_key(&flow.clone(), &pmf.clone(), 0.01, 0, 7), "deterministic");
        let variants = [
            task_key(&flow, &Pmf::half_normal(8, 48.0), 0.01, 0, 7),
            task_key(&flow, &pmf, 0.02, 0, 7),
            task_key(&flow, &pmf, 0.01, 1, 7),
            task_key(&flow, &pmf, 0.01, 0, 8),
            task_key(&FlowConfig { iterations: 3_000, ..flow.clone() }, &pmf, 0.01, 0, 7),
            task_key(&FlowConfig { lambda: 5, ..flow.clone() }, &pmf, 0.01, 0, 7),
            task_key(&FlowConfig { mutations: 6, ..flow.clone() }, &pmf, 0.01, 0, 7),
            task_key(&FlowConfig { cols_slack: 61, ..flow.clone() }, &pmf, 0.01, 0, 7),
            task_key(&FlowConfig { signed: true, ..flow.clone() }, &pmf, 0.01, 0, 7),
            task_key(&FlowConfig { operator: Operator::Add, ..flow.clone() }, &pmf, 0.01, 0, 7),
            task_key(&FlowConfig { activity_blocks: 47, ..flow.clone() }, &pmf, 0.01, 0, 7),
        ];
        let mut seen = std::collections::HashSet::from([base]);
        for v in variants {
            assert!(seen.insert(v), "key failed to separate a result-shaping input");
        }
        // Thresholds that differ only in bits invisible to `{:e}`-style
        // printing still separate (keys hash the IEEE bits).
        let tiny = f64::from_bits(0.01f64.to_bits() + 1);
        assert_ne!(task_key(&flow, &pmf, 0.01, 0, 7), task_key(&flow, &pmf, tiny, 0, 7));
    }

    #[test]
    fn store_is_atomic_in_place_and_leaves_no_temp_litter() {
        let dir = scratch("atomic");
        let _ = std::fs::remove_dir_all(&dir);
        let cache = SweepCache::new(&dir);
        let key = some_key(9);
        cache.store(key, &synthetic_entry(9), Operator::Mul, 3, false).expect("store");
        // Overwrite with different content: still one file, new content.
        cache.store(key, &synthetic_entry(10), Operator::Mul, 3, false).expect("overwrite");
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec![format!("{}.sweep", key.hex())]);
        let back = cache.load(key).expect("hit");
        assert_bit_identical(&synthetic_entry(10), &back);
    }

    #[test]
    fn entries_failing_the_static_lint_are_misses() {
        // A parseable `mul 3 unsigned` entry whose genotype has the
        // operator's 6 inputs but only 4 of its 6 outputs: the codec
        // accepts it, the lint must not.
        let mut entry = synthetic_entry(77);
        let mut rng = Xoshiro256::from_seed(77);
        entry.chromosome = Chromosome::random(6, 4, 20, &FunctionSet::extended(), &mut rng);
        entry.netlist = entry.chromosome.decode_active();
        let key = some_key(77);
        let cache = SweepCache::new(scratch("lint_miss"));
        let path = cache.store(key, &entry, Operator::Mul, 3, false).expect("store");
        let text = std::fs::read_to_string(path).unwrap();
        assert_eq!(entry_from_text(&text, key).expect("parses").circuit.netlist.num_outputs(), 4);
        assert!(cache.load(key).is_none(), "an entry with lint errors replays as a miss");
    }

    #[test]
    fn cache_key_hex_round_trips_and_rejects_other_shapes() {
        for salt in [0u64, 7, u64::MAX] {
            let key = some_key(salt);
            assert_eq!(CacheKey::from_hex(&key.hex()), Some(key));
        }
        for bad in [
            "",
            "xyz",
            "0123",
            &"f".repeat(31),
            &"f".repeat(33),
            &"g".repeat(32),
            "0123456789ABCDEF0123456789abcdef",
            &some_key(7).hex().to_uppercase(),
        ] {
            assert_eq!(CacheKey::from_hex(bad), None, "`{bad}` accepted");
        }
    }

    #[test]
    fn scan_harvests_intact_entries_in_key_order_and_skips_damage() {
        let dir = scratch("scan");
        let _ = std::fs::remove_dir_all(&dir);
        let cache = SweepCache::new(&dir);
        assert!(cache.scan().is_empty(), "missing directory scans as empty");

        let mut stored: Vec<(CacheKey, EvolvedCircuit, bool)> =
            (0..5u64).map(|i| (some_key(i), synthetic_entry(100 + i), i % 2 == 0)).collect();
        for (key, entry, signed) in &stored {
            cache.store(*key, entry, Operator::Mul, 3, *signed).expect("store");
        }
        // Damage one entry, add a foreign file and a misnamed file: all
        // three must be skipped without failing the scan.
        let victim = dir.join(format!("{}.sweep", stored[0].0.hex()));
        std::fs::write(&victim, b"apxsweep v2\ngarbage\n").unwrap();
        std::fs::write(dir.join("README.txt"), b"not an entry").unwrap();
        std::fs::write(dir.join("nothex.sweep"), b"apxsweep v2\n").unwrap();

        let scanned = cache.scan();
        assert_eq!(scanned.len(), 4, "one damaged entry dropped");
        stored.remove(0);
        stored.sort_by_key(|(k, _, _)| (k.hi, k.lo));
        for (got, (key, entry, signed)) in scanned.iter().zip(&stored) {
            assert_eq!(got.key, *key);
            assert_eq!(got.op, Operator::Mul);
            assert_eq!(got.signed, *signed);
            assert_eq!(got.width as usize, entry.netlist.num_inputs() / 2);
            assert_bit_identical(&got.circuit, entry);
        }
        let hexes: Vec<String> = scanned.iter().map(|e| e.key.hex()).collect();
        let mut sorted = hexes.clone();
        sorted.sort();
        assert_eq!(hexes, sorted, "scan order is key-sorted, not filesystem order");

        // The maintenance view agrees with the scan.
        let stats = cache_dir_stats(&dir);
        assert_eq!(stats.files, 6, "five stored + one misnamed .sweep");
        assert_eq!(stats.entries, 4);
        assert_eq!(stats.corrupt, 2);
        assert!(stats.total_bytes > 0);
        assert_eq!(stats.per_op.values().sum::<usize>(), 4);
        assert_eq!(
            stats.per_op.keys().map(|&(op, w, _)| (op, w)).collect::<Vec<_>>(),
            vec![(Operator::Mul, 3), (Operator::Mul, 3)]
        );
        assert_eq!(cache_dir_stats(&scratch("scan_missing")), CacheDirStats::default());
    }

    /// A synthetic entry whose stored `(wmed, area)` point is pinned —
    /// the stored-stats fallback front of the GC is then fully
    /// controllable.
    fn pinned_entry(seed: u64, wmed: f64, area: f64) -> EvolvedCircuit {
        let mut m = synthetic_entry(seed);
        m.stats.wmed = wmed;
        m.estimate.area_um2 = area;
        m
    }

    #[test]
    fn gc_on_missing_and_empty_dirs_is_a_noop() {
        let cfg = GcConfig::default();
        assert_eq!(gc_cache_dir(&scratch("gc_missing"), &cfg).unwrap(), GcReport::default());
        let dir = scratch("gc_empty");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        assert_eq!(gc_cache_dir(&dir, &cfg).unwrap(), GcReport::default());
    }

    #[test]
    fn gc_clears_an_all_corrupt_dir_and_spares_foreign_files() {
        let dir = scratch("gc_corrupt");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(format!("{}.sweep", some_key(1).hex())), b"garbage\n").unwrap();
        std::fs::write(dir.join(format!("{}.sweep", some_key(2).hex())), b"apxsweep v2\n").unwrap();
        std::fs::write(dir.join("nothex.sweep"), b"also damaged").unwrap();
        std::fs::write(dir.join("README.txt"), b"not cache material").unwrap();

        let report = gc_cache_dir(&dir, &GcConfig::default()).unwrap();
        assert_eq!(report.entries_before, 0);
        assert_eq!(report.corrupt_removed, 3);
        assert_eq!(report.evicted, 0);
        assert!(report.bytes_freed > 0);
        let left: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(left, vec!["README.txt"], "foreign files are never touched");
    }

    #[test]
    fn gc_removes_an_uppercase_named_copy_of_an_entry() {
        // A copy under the uppercase spelling of a key is not a second
        // entry: every reader counts it corrupt, so GC deletes it and the
        // survivors match what the directory then holds.
        let dir = scratch("gc_uppercase");
        let _ = std::fs::remove_dir_all(&dir);
        let key = some_key(20);
        let entry = SweepCache::new(&dir)
            .store(key, &synthetic_entry(20), Operator::Mul, 3, false)
            .unwrap();
        let copy = dir.join(format!("{}.sweep", key.hex().to_uppercase()));
        assert_ne!(copy, entry, "the key has hex letters to uppercase");
        std::fs::copy(&entry, &copy).unwrap();
        assert_eq!(cache_dir_stats(&dir).corrupt, 1);

        let report = gc_cache_dir(&dir, &GcConfig::default()).unwrap();
        assert_eq!(report.corrupt_removed, 1);
        assert!(!copy.exists(), "the uppercase copy is gone");
        assert!(entry.exists(), "the entry itself survives");
        assert_eq!(report.kept(), cache_dir_stats(&dir).entries);
    }

    #[test]
    fn gc_keeps_live_keys_and_stored_stats_front_drops_dominated() {
        let dir = scratch("gc_front");
        let _ = std::fs::remove_dir_all(&dir);
        let cache = SweepCache::new(&dir);
        // A (front), B (front), C dominated by A, D dominated but live.
        let population = [
            (some_key(10), pinned_entry(10, 0.10, 5.0)),
            (some_key(11), pinned_entry(11, 0.20, 4.0)),
            (some_key(12), pinned_entry(12, 0.15, 6.0)),
            (some_key(13), pinned_entry(13, 0.30, 9.0)),
        ];
        for (key, entry) in &population {
            cache.store(*key, entry, Operator::Mul, 3, false).unwrap();
        }
        let bytes_of = |key: CacheKey| std::fs::read(dir.join(format!("{}.sweep", key.hex()))).ok();
        let before: Vec<_> = population.iter().map(|(k, _)| bytes_of(*k)).collect();

        let cfg = GcConfig { keep: HashSet::from([population[3].0]), ..GcConfig::default() };
        let report = gc_cache_dir(&dir, &cfg).unwrap();
        assert_eq!(report.entries_before, 4);
        assert_eq!(report.kept_live, 1);
        assert_eq!(report.kept_pareto, 2);
        assert_eq!(report.kept(), 3);
        assert_eq!(report.evicted, 1);
        assert!(report.bytes_freed > 0);

        // Survivors are bit-identical, the dominated entry is gone.
        for (i, (key, _)) in population.iter().enumerate() {
            let now = bytes_of(*key);
            if i == 2 {
                assert_eq!(now, None, "dominated entry must be evicted");
            } else {
                assert_eq!(now, before[i], "survivor rewritten by GC");
            }
        }
        // Idempotent: a second pass finds nothing left to do.
        let again = gc_cache_dir(&dir, &cfg).unwrap();
        assert_eq!(again.evicted, 0);
        assert_eq!(again.entries_before, 3);
        assert_eq!(again.kept(), 3);
    }

    #[test]
    fn gc_collapses_equivalence_classes_among_pareto_survivors() {
        let dir = scratch("gc_collapse");
        let _ = std::fs::remove_dir_all(&dir);
        let cache = SweepCache::new(&dir);
        let proto = synthetic_entry(42);
        let pin = |wmed: f64, area: f64| {
            let mut e = proto.clone();
            e.stats.wmed = wmed;
            e.estimate.area_um2 = area;
            e
        };
        // k1/k2 share one netlist (one function; both points are stored-
        // front non-dominated), k3 is a different function, k4 repeats
        // the shared function but is *live*.
        let (k1, k2, k3, k4) = (some_key(101), some_key(102), some_key(103), some_key(104));
        cache.store(k1, &pin(0.10, 5.0), Operator::Mul, 3, false).unwrap();
        cache.store(k2, &pin(0.05, 6.0), Operator::Mul, 3, false).unwrap();
        cache.store(k3, &pinned_entry(43, 0.01, 7.0), Operator::Mul, 3, false).unwrap();
        cache.store(k4, &pin(0.90, 9.0), Operator::Mul, 3, false).unwrap();

        let cfg = GcConfig { keep: HashSet::from([k4]), ..GcConfig::default() };
        let report = gc_cache_dir(&dir, &cfg).unwrap();
        assert_eq!(report.entries_before, 4);
        assert_eq!(report.kept_live, 1);
        assert_eq!(report.collapsed, 1, "one of the two equivalent front entries goes");
        assert_eq!(report.kept_pareto, 2);
        assert_eq!(report.evicted, 1);
        let exists = |k: CacheKey| dir.join(format!("{}.sweep", k.hex())).exists();
        assert!(exists(k1), "the smaller-area class representative survives");
        assert!(!exists(k2), "its equivalent duplicate is collapsed");
        assert!(exists(k3), "a distinct function is untouched");
        assert!(exists(k4), "live keys are never collapsed, even as duplicates");
    }

    #[test]
    fn gc_rescored_front_survives_under_a_distribution() {
        // With a distribution supplied the front comes from *re-scoring*
        // (stored stats are ignored): entries whose stored stats look
        // dominated but whose netlists are genuinely non-dominated under
        // the PMF must survive, and vice versa.
        let dir = scratch("gc_rescore");
        let _ = std::fs::remove_dir_all(&dir);
        let cache = SweepCache::new(&dir);
        let keys: Vec<CacheKey> = (0..6u64).map(|i| some_key(20 + i)).collect();
        for (i, key) in keys.iter().enumerate() {
            // Stored stats say "everyone is dominated by entry 0"; the
            // rescored truth depends only on the actual circuits — which
            // must be multiplier-shaped (2w outputs) to be evaluable.
            let mut entry = pinned_entry(20 + i as u64, 0.5 + i as f64, 100.0);
            let mut rng = Xoshiro256::from_seed(9000 + i as u64);
            entry.chromosome = Chromosome::random(6, 6, 20, &FunctionSet::extended(), &mut rng);
            entry.netlist = entry.chromosome.decode_active();
            cache.store(*key, &entry, Operator::Mul, 3, false).unwrap();
        }
        let pmf = Pmf::uniform(3);
        let cfg = GcConfig { distributions: vec![pmf.clone()], ..GcConfig::default() };
        let report = gc_cache_dir(&dir, &cfg).unwrap();
        assert_eq!(report.entries_before, 6);
        assert_eq!(report.kept_live, 0);
        assert!(report.kept_pareto >= 1, "a rescored front is never empty");
        assert_eq!(report.kept_pareto + report.evicted, 6);

        // The survivors are exactly a non-dominated set under the PMF:
        // re-score what's left and check nobody dominates anybody.
        let mut lib = ComponentLibrary::new();
        assert_eq!(lib.scan_cache(&dir), report.kept_pareto);
        let evaluator = CircuitEvaluator::new(3, false, &pmf).unwrap();
        let rescored = lib.rescore(&evaluator, &TechLibrary::nangate45(), 1);
        assert_eq!(rescored.pareto().len(), rescored.candidates().len());
    }

    #[test]
    fn tmp_litter_is_counted_and_collected_when_stale() {
        let dir = scratch("gc_tmp");
        let _ = std::fs::remove_dir_all(&dir);
        let cache = SweepCache::new(&dir);
        let key = some_key(77);
        cache.store(key, &synthetic_entry(77), Operator::Mul, 3, false).unwrap();
        // Fabricate the orphan a writer killed between write and rename
        // leaves behind.
        let orphan = dir.join(format!(".{}.tmp.424242", some_key(78).hex()));
        std::fs::write(&orphan, b"half-written entry").unwrap();

        let stats = cache_dir_stats(&dir);
        assert_eq!(stats.tmp_litter, 1);
        assert_eq!(stats.files, 1, "litter is not a .sweep file");
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.corrupt, 0, "litter is litter, not corruption");
        assert_eq!(cache.scan().len(), 1, "scans never see litter");

        // Young litter is protected (it may belong to a live writer)...
        let grace = GcConfig { tmp_ttl: Duration::from_secs(3600), ..GcConfig::default() };
        let kept = gc_cache_dir(&dir, &grace).unwrap();
        assert_eq!(kept.tmp_removed, 0);
        assert!(orphan.exists());
        // ...stale litter is deleted; the intact entry (its own front)
        // survives untouched.
        let now = GcConfig { tmp_ttl: Duration::ZERO, ..GcConfig::default() };
        let swept = gc_cache_dir(&dir, &now).unwrap();
        assert_eq!(swept.tmp_removed, 1);
        assert_eq!(swept.evicted, 0);
        assert_eq!(swept.kept(), 1);
        assert!(!orphan.exists());
        assert!(cache.load(key).is_some());
        assert_eq!(cache_dir_stats(&dir).tmp_litter, 0);
    }
}
