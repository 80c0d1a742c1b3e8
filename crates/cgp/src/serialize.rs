//! Plain-text chromosome serialization.
//!
//! A deliberately simple line-oriented format (no external dependencies)
//! so evolved circuits can be checked into a repository and reloaded:
//!
//! ```text
//! cgp 16 16 490
//! funcs buf not and nand or nor xor xnor
//! genes 0 1 2 0 2 4 …
//! ```

use crate::{CgpError, Chromosome, FunctionSet};
use apx_gates::GateKind;
use std::fmt::Write as _;

impl Chromosome {
    /// Serializes the chromosome to the textual `.cgp` format.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "cgp {} {} {}", self.num_inputs(), self.num_outputs(), self.cols());
        let names: Vec<&str> = self.function_set().iter().map(apx_gates::GateKind::name).collect();
        let _ = writeln!(s, "funcs {}", names.join(" "));
        let genes: Vec<String> = self.genes().iter().map(u32::to_string).collect();
        let _ = writeln!(s, "genes {}", genes.join(" "));
        s
    }

    /// Parses a chromosome from the textual `.cgp` format.
    ///
    /// # Errors
    ///
    /// Returns [`CgpError::Parse`] on any structural problem and validates
    /// the gene string against the CGP legality rules.
    pub fn from_text(text: &str) -> Result<Self, CgpError> {
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let header = lines.next().ok_or_else(|| parse_err("missing header"))?;
        let mut parts = header.split_whitespace();
        if parts.next() != Some("cgp") {
            return Err(parse_err("header must start with `cgp`"));
        }
        let ni: usize = next_num(&mut parts, "ni")?;
        let no: usize = next_num(&mut parts, "no")?;
        let cols: usize = next_num(&mut parts, "cols")?;
        if ni == 0 || no == 0 || cols == 0 {
            return Err(parse_err("dimensions must be positive"));
        }
        // Every signal (inputs, then one per column) is addressed by a
        // `u32` gene, and the gene count must be representable: a header
        // past either is damage, not a genome.
        let gene_count = cols.checked_mul(3).and_then(|g| g.checked_add(no));
        let signals = ni.checked_add(cols).and_then(|n| u32::try_from(n).ok());
        let (Some(expected), Some(_)) = (gene_count, signals) else {
            return Err(parse_err("dimensions overflow the gene count or the u32 signal space"));
        };

        let funcs_line = lines.next().ok_or_else(|| parse_err("missing funcs line"))?;
        let mut fparts = funcs_line.split_whitespace();
        if fparts.next() != Some("funcs") {
            return Err(parse_err("second line must start with `funcs`"));
        }
        let kinds: Result<Vec<GateKind>, _> = fparts.map(str::parse).collect();
        let kinds = kinds.map_err(|e| parse_err(&e.to_string()))?;
        let funcs = FunctionSet::new(kinds)?;

        let genes_line = lines.next().ok_or_else(|| parse_err("missing genes line"))?;
        let mut gparts = genes_line.split_whitespace();
        if gparts.next() != Some("genes") {
            return Err(parse_err("third line must start with `genes`"));
        }
        let genes: Result<Vec<u32>, _> = gparts.map(str::parse).collect();
        let genes = genes.map_err(|e| parse_err(&format!("bad gene: {e}")))?;
        if genes.len() != expected {
            return Err(parse_err(&format!("expected {expected} genes, found {}", genes.len())));
        }
        // Anything after the three sections is not ours: a fourth
        // non-empty line means the caller handed us a concatenation or a
        // corrupt container (e.g. a damaged sweep-cache entry), and
        // silently ignoring it would mask the damage.
        if let Some(extra) = lines.next() {
            return Err(parse_err(&format!("unexpected trailing content: {extra:?}")));
        }
        let chrom = Chromosome::from_parts(ni, no, cols, funcs, genes);
        if !chrom.is_valid() {
            return Err(parse_err("gene values violate CGP legality rules"));
        }
        Ok(chrom)
    }
}

fn parse_err(msg: &str) -> CgpError {
    CgpError::Parse(msg.to_owned())
}

fn next_num<'a, I: Iterator<Item = &'a str>>(iter: &mut I, what: &str) -> Result<usize, CgpError> {
    iter.next()
        .ok_or_else(|| parse_err(&format!("missing {what}")))?
        .parse()
        .map_err(|_| parse_err(&format!("invalid {what}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use apx_arith::array_multiplier;
    use apx_gates::Exhaustive;
    use apx_rng::Xoshiro256;

    #[test]
    fn round_trip_preserves_everything() {
        let nl = array_multiplier(3);
        let chrom =
            Chromosome::from_netlist(&nl, &FunctionSet::standard(), nl.gate_count() + 20).unwrap();
        let text = chrom.to_text();
        let back = Chromosome::from_text(&text).unwrap();
        assert_eq!(chrom, back);
        let ex = Exhaustive::new(6);
        assert_eq!(ex.output_table(&chrom.decode_active()), ex.output_table(&back.decode_active()));
    }

    #[test]
    fn round_trip_random_chromosomes() {
        let mut rng = Xoshiro256::from_seed(31);
        for _ in 0..20 {
            let c = Chromosome::random(5, 4, 30, &FunctionSet::extended(), &mut rng);
            assert_eq!(Chromosome::from_text(&c.to_text()).unwrap(), c);
        }
    }

    #[test]
    fn rejects_malformed_inputs() {
        assert!(Chromosome::from_text("").is_err());
        assert!(Chromosome::from_text("bogus 1 2 3").is_err());
        assert!(Chromosome::from_text("cgp 2 1 1\nfuncs and\ngenes 0 1").is_err());
        assert!(Chromosome::from_text("cgp 2 1 1\nfuncs banana\ngenes 0 1 0 0").is_err());
        // Out-of-bound gene (node 0 may only reference inputs 0..2).
        assert!(Chromosome::from_text("cgp 2 1 1\nfuncs and\ngenes 5 0 0 2").is_err());
        // Zero dimensions.
        assert!(Chromosome::from_text("cgp 0 1 1\nfuncs and\ngenes 0 0 0 0").is_err());
        // A gene count `3·cols + no` or signal count `ni + cols` that
        // overflows `usize`, and one that fits `usize` but not the `u32`
        // gene values (every bound would wrap to a small number).
        for header in
            ["cgp 16 16 18446744073709551615", "cgp 18446744073709551615 1 1", "cgp 4294967297 1 1"]
        {
            let text = format!("{header}\nfuncs and\ngenes 0 0 0 1");
            assert!(Chromosome::from_text(&text).is_err(), "`{header}` accepted");
        }
        // Trailing content (two concatenated chromosomes, stray line).
        let valid = "cgp 2 1 1\nfuncs and\ngenes 0 1 0 2\n";
        assert!(Chromosome::from_text(valid).is_ok());
        assert!(Chromosome::from_text(&format!("{valid}{valid}")).is_err());
        assert!(Chromosome::from_text(&format!("{valid}junk")).is_err());
    }

    #[test]
    fn rejects_each_gene_at_its_bound() {
        // Geometry: 2 inputs, 1 output, 2 columns, 4 functions.
        let text = |genes: &[u32]| {
            let genes: Vec<String> = genes.iter().map(u32::to_string).collect();
            format!("cgp 2 1 2\nfuncs and or xor nand\ngenes {}", genes.join(" "))
        };
        let clean = [0, 1, 2, 2, 0, 3, 3];
        let chrom = Chromosome::from_text(&text(&clean)).unwrap();

        // An operand reading its own node, a function code naming no
        // gate, an output past the grid: each gene set to its bound.
        for (gene, bound) in [(3, 3), (5, 4), (6, 4)] {
            assert_eq!(chrom.gene_bound(gene), bound);
            let mut bad = clean;
            bad[gene] = bound;
            assert!(Chromosome::from_text(&text(&bad)).is_err(), "gene {gene} at {bound}");
            bad[gene] = bound - 1;
            assert!(Chromosome::from_text(&text(&bad)).is_ok(), "gene {gene} at {}", bound - 1);
        }
    }

    #[test]
    fn accepts_valid_hand_written_text() {
        // 2 inputs, 1 output, 1 node: and(in0, in1) -> out = node.
        let c = Chromosome::from_text("cgp 2 1 1\nfuncs and\ngenes 0 1 0 2").unwrap();
        let nl = c.decode_active();
        assert_eq!(nl.eval_bool(&[true, true]), vec![true]);
        assert_eq!(nl.eval_bool(&[true, false]), vec![false]);
    }
}
