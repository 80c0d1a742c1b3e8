//! A library of conventionally designed approximate multipliers.
//!
//! The paper compares its evolved circuits against three kinds of
//! pre-existing designs (§IV, §V-C):
//!
//! * **truncated array multipliers** (Jiang et al. \[1\]),
//! * **broken-array multipliers** (Mahdiani et al. \[13\]),
//! * the **EvoApprox8b** library \[3\] and the zero-exact multipliers of
//!   Mrazek et al. \[6\].
//!
//! EvoApprox8b itself is a published artifact we cannot download in this
//! offline reproduction; [`MultiplierLibrary::evoapprox_like`] plays its
//! role with a spread of truncated/broken configurations covering the same
//! error range (see ARCHITECTURE.md), and `apx-core` can extend the library with
//! uniformly-evolved multipliers — which is literally how EvoApprox8b was
//! built.
//!
//! These conventional designs are no longer comparison-only: they feed
//! `apx_core::library::ComponentLibrary` as seed candidates (ingested
//! behind the same unified `LibraryEntry` form as cached evolutions), so
//! a library-mode sweep can take a truncated or broken-array multiplier
//! directly when it already meets a task's WMED budget, or warm-start a
//! CGP run from it — the autoAx-style reuse the paper's baselines were
//! previously excluded from.
//!
//! # Examples
//!
//! ```
//! use apx_approxlib::MultiplierLibrary;
//!
//! let lib = MultiplierLibrary::evoapprox_like(8);
//! assert!(lib.len() > 10);
//! for entry in lib.iter() {
//!     assert_eq!(entry.netlist.num_inputs(), 16);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use apx_arith::{
    array_multiplier, baugh_wooley_broken, baugh_wooley_multiplier, broken_array_multiplier,
    truncated_multiplier, OpTable,
};
use apx_gates::{Netlist, NetlistBuilder, SignalId};

/// Which construction produced a library entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Family {
    /// Exact reference multiplier.
    Exact,
    /// Truncated design (array multiplier or adder) with `trunc_cols`
    /// dropped LSB columns.
    Truncated {
        /// Number of dropped LSB columns.
        trunc_cols: u32,
    },
    /// Lower-OR approximate adder: the `k` least significant columns are
    /// replaced by a carry-free bitwise OR (Mahdiani et al. \[13\]).
    LowerOr {
        /// Number of OR-approximated LSB columns.
        k: u32,
    },
    /// Broken-array multiplier with the given break levels.
    BrokenArray {
        /// Horizontal break level.
        hbl: u32,
        /// Vertical break level.
        vbl: u32,
    },
    /// A base multiplier wrapped to multiply exactly by zero.
    ZeroGuard,
    /// Produced by CGP evolution (added by `apx-core`).
    Evolved,
}

/// One multiplier of the library: gate-level + functional views.
#[derive(Debug, Clone)]
pub struct LibEntry {
    /// Unique human-readable name, e.g. `"bam_h6_v5"`.
    pub name: String,
    /// Gate-level implementation (crate input/output conventions).
    pub netlist: Netlist,
    /// Exhaustive functional view.
    pub table: OpTable,
    /// Construction family.
    pub family: Family,
}

/// A collection of same-width approximate multipliers.
#[derive(Debug, Clone)]
pub struct MultiplierLibrary {
    width: u32,
    signed: bool,
    entries: Vec<LibEntry>,
}

impl MultiplierLibrary {
    /// An empty library.
    #[must_use]
    pub fn new(width: u32, signed: bool) -> Self {
        MultiplierLibrary { width, signed, entries: Vec::new() }
    }

    /// Operand width of every entry.
    #[must_use]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Whether entries are signed multipliers.
    #[must_use]
    pub fn is_signed(&self) -> bool {
        self.signed
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the library is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over entries.
    pub fn iter(&self) -> impl Iterator<Item = &LibEntry> {
        self.entries.iter()
    }

    /// Looks an entry up by name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&LibEntry> {
        self.entries.iter().find(|e| e.name == name)
    }

    /// Adds an entry built from a netlist.
    ///
    /// # Panics
    ///
    /// Panics if the netlist does not match the library's width/signedness
    /// conventions or the name is already taken.
    pub fn push_netlist(&mut self, name: impl Into<String>, netlist: Netlist, family: Family) {
        let name = name.into();
        assert!(self.get(&name).is_none(), "duplicate entry name {name}");
        let table = OpTable::from_netlist(&netlist, self.width, self.signed)
            .expect("netlist must match library conventions");
        self.entries.push(LibEntry { name, netlist, table, family });
    }

    /// The truncated-array family: `k = 1 ..= width + width/2` dropped
    /// columns plus the exact reference.
    #[must_use]
    pub fn truncated_family(width: u32) -> Self {
        let mut lib = Self::new(width, false);
        lib.push_netlist("exact_array", array_multiplier(width), Family::Exact);
        for k in 1..=(width + width / 2) {
            lib.push_netlist(
                format!("trunc_{k}"),
                truncated_multiplier(width, k),
                Family::Truncated { trunc_cols: k },
            );
        }
        lib
    }

    /// The broken-array (BAM) family over a representative grid of break
    /// levels.
    #[must_use]
    pub fn broken_family(width: u32) -> Self {
        let mut lib = Self::new(width, false);
        lib.push_netlist("exact_array", array_multiplier(width), Family::Exact);
        for hbl in [width, width - 1, width - 2, width.saturating_sub(3).max(1)] {
            for vbl in 0..=(width + width / 2) {
                if hbl == width && vbl == 0 {
                    continue; // that's the exact multiplier
                }
                let name = format!("bam_h{hbl}_v{vbl}");
                if lib.get(&name).is_some() {
                    continue;
                }
                lib.push_netlist(
                    name,
                    broken_array_multiplier(width, hbl, vbl),
                    Family::BrokenArray { hbl, vbl },
                );
            }
        }
        lib
    }

    /// Signed broken Baugh-Wooley family (the BAM baseline of the NN case
    /// study, where operands are two's complement).
    #[must_use]
    pub fn broken_family_signed(width: u32) -> Self {
        let mut lib = Self::new(width, true);
        lib.push_netlist("exact_bw", baugh_wooley_multiplier(width), Family::Exact);
        for hbl in [width, width - 1, width - 2] {
            for vbl in 0..=(width + width / 2) {
                if hbl == width && vbl == 0 {
                    continue;
                }
                let name = format!("bwbam_h{hbl}_v{vbl}");
                lib.push_netlist(
                    name,
                    baugh_wooley_broken(width, hbl, vbl),
                    Family::BrokenArray { hbl, vbl },
                );
            }
        }
        lib
    }

    /// Zero-guarded signed family: broken Baugh-Wooley multipliers wrapped
    /// so multiplication by zero is exact (Mrazek et al. \[6\] — crucial for
    /// NNs whose weight distributions have a heavy spike at 0).
    #[must_use]
    pub fn zero_guard_family_signed(width: u32) -> Self {
        let mut lib = Self::new(width, true);
        lib.push_netlist("exact_bw", baugh_wooley_multiplier(width), Family::Exact);
        for (hbl, vbl) in Self::signed_break_grid(width) {
            let base = baugh_wooley_broken(width, hbl, vbl);
            lib.push_netlist(
                format!("zg_bwbam_h{hbl}_v{vbl}"),
                zero_guarded(&base, width),
                Family::ZeroGuard,
            );
        }
        lib
    }

    fn signed_break_grid(width: u32) -> Vec<(u32, u32)> {
        let mut grid = Vec::new();
        for hbl in [width, width - 1, width - 2] {
            for vbl in (0..=(width + width / 2)).step_by(2) {
                if hbl == width && vbl == 0 {
                    continue;
                }
                grid.push((hbl, vbl));
            }
        }
        grid
    }

    /// The EvoApprox8b stand-in: a mixed unsigned set of truncated and
    /// broken-array multipliers spanning the same error range as the
    /// published library.
    #[must_use]
    pub fn evoapprox_like(width: u32) -> Self {
        let mut lib = Self::new(width, false);
        lib.push_netlist("exact_array", array_multiplier(width), Family::Exact);
        for k in 1..=(width + width / 2) {
            lib.push_netlist(
                format!("trunc_{k}"),
                truncated_multiplier(width, k),
                Family::Truncated { trunc_cols: k },
            );
        }
        for hbl in [width - 1, width - 2] {
            for vbl in (0..=width).step_by(2) {
                lib.push_netlist(
                    format!("bam_h{hbl}_v{vbl}"),
                    broken_array_multiplier(width, hbl, vbl),
                    Family::BrokenArray { hbl, vbl },
                );
            }
        }
        lib
    }
}

/// Wraps a multiplier so that multiplication by zero is exact: the output
/// is forced to 0 whenever either operand is 0 (Mrazek et al. \[6\]).
///
/// Adds an OR-reduction tree per operand plus one masking AND per output
/// bit — a small, fixed overhead.
///
/// # Panics
///
/// Panics if `multiplier` does not follow the `2·width`-input /
/// `2·width`-output convention.
#[must_use]
pub fn zero_guarded(multiplier: &Netlist, width: u32) -> Netlist {
    let w = width as usize;
    assert_eq!(multiplier.num_inputs(), 2 * w, "multiplier input arity");
    assert_eq!(multiplier.num_outputs(), 2 * w, "multiplier output arity");
    let mut b = NetlistBuilder::new(2 * w);
    let inputs: Vec<SignalId> = (0..2 * w).map(|i| b.input(i)).collect();
    let product = b.embed(multiplier, &inputs);
    let or_reduce = |b: &mut NetlistBuilder, bits: &[SignalId]| -> SignalId {
        let mut acc = bits[0];
        for &bit in &bits[1..] {
            acc = b.or(acc, bit);
        }
        acc
    };
    let a_nz = or_reduce(&mut b, &inputs[..w]);
    let b_nz = or_reduce(&mut b, &inputs[w..]);
    let enable = b.and(a_nz, b_nz);
    let outputs: Vec<SignalId> = product.iter().map(|&p| b.and(p, enable)).collect();
    b.outputs(&outputs);
    b.finish().expect("zero-guard wrapper is structurally valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use apx_dist::Pmf;
    use apx_metrics::med_of_table;
    use apx_techlib::{area_of, TechLibrary};

    #[test]
    fn truncated_family_error_grows_with_k() {
        let lib = MultiplierLibrary::truncated_family(6);
        let mut last = -1.0;
        for k in 1..=9u32 {
            let e = med_of_table(&lib.get(&format!("trunc_{k}")).unwrap().table);
            assert!(e > last, "k={k}: {e} vs {last}");
            last = e;
        }
    }

    #[test]
    fn exact_entries_have_zero_error() {
        for lib in [
            MultiplierLibrary::truncated_family(6),
            MultiplierLibrary::broken_family(6),
            MultiplierLibrary::evoapprox_like(6),
        ] {
            let exact = lib.get("exact_array").unwrap();
            assert_eq!(med_of_table(&exact.table), 0.0);
            assert_eq!(exact.family, Family::Exact);
        }
    }

    #[test]
    fn library_names_are_unique() {
        let lib = MultiplierLibrary::evoapprox_like(8);
        let mut names: Vec<&str> = lib.iter().map(|e| e.name.as_str()).collect();
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(before, names.len());
        assert!(before > 10, "expected a meaningful library, got {before}");
    }

    #[test]
    fn zero_guard_is_exact_on_zero_operands() {
        let base = baugh_wooley_broken(4, 3, 4);
        let guarded = zero_guarded(&base, 4);
        let gt = OpTable::from_netlist(&guarded, 4, true).unwrap();
        let bt = OpTable::from_netlist(&base, 4, true).unwrap();
        for v in -8i64..8 {
            assert_eq!(gt.get(0, v), 0, "0*{v}");
            assert_eq!(gt.get(v, 0), 0, "{v}*0");
        }
        // Non-zero operands keep the base behaviour.
        for a in -8i64..8 {
            for b in -8i64..8 {
                if a != 0 && b != 0 {
                    assert_eq!(gt.get(a, b), bt.get(a, b), "{a}*{b}");
                }
            }
        }
    }

    #[test]
    fn zero_guard_matches_table_wrapper() {
        // Netlist-level and table-level zero guards agree.
        let base = truncated_multiplier(4, 5);
        let guarded = zero_guarded(&base, 4);
        let gt = OpTable::from_netlist(&guarded, 4, false).unwrap();
        let bt = OpTable::from_netlist(&base, 4, false).unwrap().with_zero_guard();
        for a in 0..16i64 {
            for b in 0..16i64 {
                assert_eq!(gt.get(a, b), bt.get(a, b), "{a}*{b}");
            }
        }
    }

    #[test]
    fn zero_guard_helps_under_zero_heavy_distribution() {
        // A distribution with most mass at 0 must prefer the guarded
        // multiplier: that's the paper's argument for [6].
        let width = 6;
        let base = baugh_wooley_broken(width, 4, 6);
        let guarded = zero_guarded(&base, width);
        let mut weights = vec![1.0; 64];
        weights[0] = 200.0; // heavy spike at zero, like NN weights
        let pmf = Pmf::from_weights(width, weights).unwrap();
        let eval = apx_metrics::CircuitEvaluator::new(width, true, &pmf).unwrap();
        let wmed_base = eval.wmed(&base);
        let wmed_guarded = eval.wmed(&guarded);
        assert!(wmed_guarded < wmed_base, "guarded {wmed_guarded} vs base {wmed_base}");
    }

    #[test]
    fn families_trade_area_for_error() {
        let lib = MultiplierLibrary::broken_family(8);
        let tech = TechLibrary::nangate45();
        let exact_area = area_of(&lib.get("exact_array").unwrap().netlist, &tech);
        for entry in lib.iter() {
            if entry.family != Family::Exact {
                assert!(
                    area_of(&entry.netlist, &tech) <= exact_area,
                    "{} larger than exact",
                    entry.name
                );
            }
        }
    }

    #[test]
    fn signed_families_are_signed() {
        let lib = MultiplierLibrary::broken_family_signed(6);
        assert!(lib.is_signed());
        let exact = lib.get("exact_bw").unwrap();
        assert_eq!(exact.table.get(-32, 31), -32 * 31);
        let zg = MultiplierLibrary::zero_guard_family_signed(6);
        assert!(zg.len() > 5);
        for e in zg.iter() {
            if e.family == Family::ZeroGuard {
                assert_eq!(e.table.get(0, -17), 0);
            }
        }
    }

    #[test]
    #[should_panic(expected = "duplicate entry name")]
    fn duplicate_names_panic() {
        let mut lib = MultiplierLibrary::new(4, false);
        lib.push_netlist("m", array_multiplier(4), Family::Exact);
        lib.push_netlist("m", array_multiplier(4), Family::Exact);
    }
}
