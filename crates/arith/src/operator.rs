//! The operator seam: which arithmetic function a circuit approximates.
//!
//! The paper's method (distribution-weighted error driving CGP) is
//! operator-agnostic — §III describes it for combinational components in
//! general. [`Operator`] is the one value that captures everything the
//! rest of the stack needs to know about a component class:
//!
//! * its **reference function** ([`Operator::exact_value`]) — the golden
//!   model both evaluation backends score candidates against;
//! * its **operand encoding** — how many netlist inputs/outputs a
//!   `width`-bit instance has ([`Operator::num_inputs`] /
//!   [`Operator::num_outputs`]) and how the exhaustive enumeration vector
//!   maps onto them (the PMF-weighted operand always occupies the top
//!   `width` bits, so distribution weights group into contiguous blocks);
//! * its **seed circuit** ([`Operator::seed_circuit`]) — the exact
//!   conventional design a CGP run starts from.
//!
//! Everything downstream (the `apx_metrics` evaluator, the `apx_core`
//! flow/sweep/cache/library, the `apx_bench` binaries) takes an
//! `Operator` value instead of hard-coding multiplication.

use crate::mac::{accumulator_width, mac_unit};
use crate::{
    array_multiplier, baugh_wooley_multiplier, ripple_carry_adder, sign_extend,
    signed_ripple_adder, EvalBackend,
};
use apx_gates::Netlist;

/// Exhaustive enumeration of the whole domain, with its per-block tables,
/// is capped at this many input bits — the same practical bound the
/// evaluator's `2^(2w)` multiplier grids obey. `scalar` is always
/// subject to it, and so is `bitpar` for adders and MACs.
const MAX_INPUT_BITS: u32 = 20;

/// Past the enumeration cap evaluation goes one weighted operand row at a
/// time — model-counted on `symbolic`, streamed through the simulator on
/// `bitpar` for multipliers — and never touches a table sized by the
/// domain, so this cap is set by representation limits instead: exact
/// per-row error sums must stay inside `u64` and per-operand weight
/// tables stay small. 33 input bits admits 16×16 multipliers/adders and
/// the 8-bit MAC (`4w + 1 = 33`).
const MAX_ROW_INPUT_BITS: u32 = 33;

/// The products a MAC accumulates per output in the default sizing rule
/// (`n = 2w + 1` guard bit — one wrap-free accumulation step).
const MAC_DEPTH: usize = 2;

/// A circuit family the pipeline can evolve: the reference function, the
/// operand encoding and the exact seed design, as one value.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Operator {
    /// `width`×`width` multiplication: `2w` inputs (`a`, `b`), `2w`
    /// product bits. The paper's primary component class.
    #[default]
    Mul,
    /// `width`-bit addition with carry-out: `2w` inputs (`a`, `b`),
    /// `w + 1` sum bits (no wrap — the signed sum of two `w`-bit values
    /// always fits `w + 1` two's-complement bits).
    Add,
    /// Multiply-accumulate processing element ([`crate::mac::mac_unit`]):
    /// inputs `a`, `b` (`w` bits each) and `acc` (`n = 2w + 1` bits),
    /// outputs the `n`-bit wrap-around `acc + a·b`.
    Mac,
}

impl Operator {
    /// Every operator, in canonical (cache/report) order.
    pub const ALL: [Operator; 3] = [Operator::Mul, Operator::Add, Operator::Mac];

    /// Canonical lower-case name — the token used in cache entry headers,
    /// key preimages and JSON reports.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Operator::Mul => "mul",
            Operator::Add => "add",
            Operator::Mac => "mac",
        }
    }

    /// The accumulator width of a `width`-bit instance (MAC only).
    #[must_use]
    pub fn acc_width(self, width: u32) -> u32 {
        match self {
            Operator::Mac => accumulator_width(width, MAC_DEPTH),
            _ => 0,
        }
    }

    /// Number of netlist inputs of a `width`-bit instance.
    #[must_use]
    pub fn num_inputs(self, width: u32) -> usize {
        match self {
            Operator::Mul | Operator::Add => 2 * width as usize,
            Operator::Mac => 2 * width as usize + self.acc_width(width) as usize,
        }
    }

    /// Number of netlist outputs of a `width`-bit instance.
    #[must_use]
    pub fn num_outputs(self, width: u32) -> usize {
        match self {
            Operator::Mul => 2 * width as usize,
            Operator::Add => width as usize + 1,
            Operator::Mac => self.acc_width(width) as usize,
        }
    }

    /// Whether `width` is evaluable by *exhaustive enumeration*: positive,
    /// and the full `2^inputs` vector space fits the simulation budget
    /// (`1..=10` for `Mul`/`Add`, `1..=4` for `Mac` whose instances carry
    /// the extra accumulator operand).
    #[must_use]
    pub fn supports_exhaustive_width(self, width: u32) -> bool {
        width >= 1 && self.num_inputs(width) <= MAX_INPUT_BITS as usize
    }

    /// The backend a `width`-bit instance is evaluated on, a pure
    /// function of operator and width: [`EvalBackend::BitParallel`] for
    /// `Mul` at every width and wherever exhaustive enumeration fits
    /// ([`Operator::supports_exhaustive_width`]); [`EvalBackend::Symbolic`]
    /// for `Add` and `Mac` beyond it. The backends agree bit for bit where
    /// both run, so speed decides: past the cap, streaming a multiplier's
    /// weighted rows beats its BDDs (which blow up for multiplication),
    /// while adders' and MACs' BDDs stay small and beat enumeration.
    #[must_use]
    pub fn backend(self, width: u32) -> EvalBackend {
        if self == Operator::Mul || self.supports_exhaustive_width(width) {
            EvalBackend::BitParallel
        } else {
            EvalBackend::Symbolic
        }
    }

    /// Whether `width` is evaluable for this operator *on the given
    /// backend*. `scalar`, and `bitpar` for `Add`/`Mac`, are capped by
    /// [`Operator::supports_exhaustive_width`]; `bitpar` streams `Mul`
    /// rows up to width 16, and `symbolic` reaches `1..=16` for
    /// `Mul`/`Add` and `1..=8` for `Mac`.
    #[must_use]
    pub fn supports_width(self, width: u32, backend: EvalBackend) -> bool {
        let rows_past_cap = match backend {
            EvalBackend::Scalar => false,
            EvalBackend::BitParallel => self == Operator::Mul,
            EvalBackend::Symbolic => true,
        };
        let cap = if rows_past_cap { MAX_ROW_INPUT_BITS } else { MAX_INPUT_BITS };
        width >= 1 && self.num_inputs(width) <= cap as usize
    }

    /// The widest operand this operator can be evaluated at on `backend`.
    #[must_use]
    pub fn max_width(self, backend: EvalBackend) -> u32 {
        let mut w = 1;
        while self.supports_width(w + 1, backend) {
            w += 1;
        }
        w
    }

    /// The exact (reference) output for one enumeration vector `v` of a
    /// `width`-bit instance, as the interpreted integer the error metrics
    /// subtract from a candidate's output.
    ///
    /// The enumeration layout puts the PMF-weighted operand `a` in the
    /// **top** `width` bits of `v` (so one distribution weight covers a
    /// contiguous block of vectors), `b` in the low `width` bits, and —
    /// for `Mac` — `acc` in between:
    ///
    /// ```text
    ///   Mul/Add:  v = [ a : w bits ][ b : w bits ]
    ///   Mac:      v = [ a : w bits ][ acc : n bits ][ b : w bits ]
    /// ```
    #[must_use]
    pub fn exact_value(self, width: u32, signed: bool, v: u64) -> i64 {
        let w = width;
        let mask_w = (1u64 << w) - 1;
        let free = (self.num_inputs(width) - width as usize) as u32;
        let a = interp(signed, v >> free, w);
        let b = interp(signed, v & mask_w, w);
        match self {
            Operator::Mul => a * b,
            Operator::Add => a + b,
            Operator::Mac => {
                let n = self.acc_width(width);
                let acc = interp(signed, (v >> w) & ((1u64 << n) - 1), n);
                let raw = acc.wrapping_add(a * b) as u64 & ((1u64 << n) - 1);
                interp(signed, raw, n)
            }
        }
    }

    /// The exact conventional seed design a CGP run of this operator
    /// starts from (the 100 % reference every threshold trivially admits).
    ///
    /// # Panics
    ///
    /// Panics if `width` is not supported by any backend
    /// ([`Operator::supports_width`] with the widest, symbolic, range).
    #[must_use]
    pub fn seed_circuit(self, width: u32, signed: bool) -> Netlist {
        assert!(
            self.supports_width(width, EvalBackend::Symbolic),
            "operand width {width} outside the {} operator's evaluable range",
            self.name()
        );
        match (self, signed) {
            (Operator::Mul, false) => array_multiplier(width),
            (Operator::Mul, true) => baugh_wooley_multiplier(width),
            (Operator::Add, false) => ripple_carry_adder(width),
            (Operator::Add, true) => signed_ripple_adder(width),
            (Operator::Mac, signed) => {
                let mul =
                    if signed { baugh_wooley_multiplier(width) } else { array_multiplier(width) };
                mac_unit(&mul, width, self.acc_width(width), signed)
            }
        }
    }
}

impl std::fmt::Display for Operator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Operator {
    type Err = String;

    /// Parses a canonical operator name. Fail-loud like every other
    /// config surface: anything but `mul`/`add`/`mac` is an error naming
    /// the valid tokens.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "mul" => Ok(Operator::Mul),
            "add" => Ok(Operator::Add),
            "mac" => Ok(Operator::Mac),
            other => Err(format!("unknown operator {other:?} (expected mul, add or mac)")),
        }
    }
}

/// Interprets the low `bits` of `raw` — two's complement when `signed`.
#[inline]
fn interp(signed: bool, raw: u64, bits: u32) -> i64 {
    if signed {
        sign_extend(raw, bits)
    } else {
        (raw & ((1u64 << bits) - 1)) as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apx_gates::Exhaustive;

    #[test]
    fn names_round_trip() {
        for op in Operator::ALL {
            assert_eq!(op.name().parse::<Operator>().unwrap(), op);
        }
        assert!("sideways".parse::<Operator>().is_err());
        assert!("MUL".parse::<Operator>().is_err(), "names are case-sensitive tokens");
    }

    #[test]
    fn arity_and_width_support() {
        assert_eq!(Operator::Mul.num_inputs(8), 16);
        assert_eq!(Operator::Mul.num_outputs(8), 16);
        assert_eq!(Operator::Add.num_inputs(8), 16);
        assert_eq!(Operator::Add.num_outputs(8), 9);
        assert_eq!(Operator::Mac.acc_width(4), 9);
        assert_eq!(Operator::Mac.num_inputs(4), 17);
        assert_eq!(Operator::Mac.num_outputs(4), 9);
        for op in [Operator::Mul, Operator::Add] {
            assert!(op.supports_exhaustive_width(1) && op.supports_exhaustive_width(10));
            assert!(!op.supports_exhaustive_width(0) && !op.supports_exhaustive_width(11));
        }
        assert!(Operator::Mac.supports_exhaustive_width(4));
        assert!(!Operator::Mac.supports_exhaustive_width(5), "4w+1 input bits exceed the budget");
    }

    #[test]
    fn backend_width_ranges() {
        let (scalar, bitpar, sym) =
            (EvalBackend::Scalar, EvalBackend::BitParallel, EvalBackend::Symbolic);
        // The scalar backend, and bitpar for adders and MACs, track the
        // exhaustive cap exactly.
        for (ops, b) in
            [(&Operator::ALL[..], scalar), (&[Operator::Add, Operator::Mac][..], bitpar)]
        {
            for &op in ops {
                for w in 0..=20 {
                    assert_eq!(
                        op.supports_width(w, b),
                        op.supports_exhaustive_width(w),
                        "{op} {b}"
                    );
                }
            }
        }
        assert_eq!(Operator::Mul.max_width(scalar), 10);
        assert_eq!(Operator::Add.max_width(bitpar), 10);
        assert_eq!(Operator::Mac.max_width(bitpar), 4);
        // Bitpar streams multipliers' rows as far as the symbolic engine
        // reaches.
        for b in [bitpar, sym] {
            assert!(Operator::Mul.supports_width(16, b));
            assert!(!Operator::Mul.supports_width(17, b));
            assert_eq!(Operator::Mul.max_width(b), 16);
        }
        assert!(Operator::Add.supports_width(16, sym));
        assert!(!Operator::Add.supports_width(17, sym));
        assert_eq!(Operator::Add.max_width(sym), 16);
        assert!(Operator::Mac.supports_width(8, sym));
        assert!(!Operator::Mac.supports_width(9, sym));
        assert_eq!(Operator::Mac.max_width(sym), 8);
        for b in [scalar, bitpar, sym] {
            assert!(!Operator::Mul.supports_width(0, b), "zero width is never evaluable");
        }
        // Operator and width pick the backend: bit-parallel for every
        // multiplier; for adders and MACs up to the exhaustive cap, with
        // symbolic past it.
        for w in 1..=16 {
            assert_eq!(Operator::Mul.backend(w), bitpar, "mul w={w}");
        }
        for op in [Operator::Add, Operator::Mac] {
            let cap = op.max_width(bitpar);
            for w in 1..=op.max_width(sym) {
                let want = if w <= cap { bitpar } else { sym };
                assert_eq!(op.backend(w), want, "{op} w={w}");
            }
        }
    }

    /// Every operator's seed circuit reproduces its reference function on
    /// the full enumeration grid — the contract the evaluator's "exact
    /// seed has zero error" invariant stands on.
    #[test]
    fn seed_circuits_match_the_reference_function() {
        for op in Operator::ALL {
            for signed in [false, true] {
                for width in 2..=3u32 {
                    let nl = op.seed_circuit(width, signed);
                    let ni = op.num_inputs(width);
                    let out_bits = op.num_outputs(width) as u32;
                    assert_eq!(nl.num_inputs(), ni, "{op} w={width}");
                    assert_eq!(nl.num_outputs(), out_bits as usize, "{op} w={width}");
                    let free = (ni - width as usize) as u32;
                    let table = Exhaustive::new(ni).output_table(&nl);
                    // The netlist enumerates its inputs in index order
                    // (input i ← bit i); the operator layout puts `a` on
                    // top. Remap each direct vector into layout form.
                    for direct in 0..table.len() as u64 {
                        let a = direct & ((1u64 << width) - 1);
                        let rest = direct >> width; // b, then acc for Mac
                        let v = (a << free) | rest_to_layout(op, width, rest);
                        let got = interp(signed, table[direct as usize], out_bits);
                        assert_eq!(
                            got,
                            op.exact_value(width, signed, v),
                            "{op} w={width} signed={signed} direct={direct}"
                        );
                    }
                }
            }
        }
    }

    /// Maps the post-`a` part of a direct input vector (`b`, then `acc`)
    /// into the enumeration layout's `[acc][b]` arrangement.
    fn rest_to_layout(op: Operator, width: u32, rest: u64) -> u64 {
        match op {
            Operator::Mul | Operator::Add => rest,
            Operator::Mac => {
                let b = rest & ((1u64 << width) - 1);
                let acc = rest >> width;
                (acc << width) | b
            }
        }
    }

    #[test]
    fn add_reference_never_wraps() {
        // Signed w-bit sums always fit w+1 two's-complement bits.
        for v in 0..(1u64 << 8) {
            let exact = Operator::Add.exact_value(4, true, v);
            assert!((-(1i64 << 4)..(1i64 << 4)).contains(&exact));
        }
    }

    #[test]
    fn mac_reference_wraps_like_the_model() {
        let op = Operator::Mac;
        let w = 2u32;
        let n = op.acc_width(w);
        let table = crate::OpTable::exact_mul(w, true);
        for v in 0..(1u64 << op.num_inputs(w)) {
            let a = interp(true, v >> (w + n), w);
            let b = interp(true, v & 3, w);
            let acc = interp(true, (v >> w) & ((1u64 << n) - 1), n);
            assert_eq!(op.exact_value(w, true, v), crate::mac::mac_model(&table, a, b, acc, n));
        }
    }
}
