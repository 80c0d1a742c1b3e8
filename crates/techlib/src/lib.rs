//! Technology-library cost model for gate-level netlists.
//!
//! The paper scores evolved circuits by *estimated area* during the search
//! (Eq. 1) and re-synthesizes the best candidates with Synopsys Design
//! Compiler on a 45 nm process for the final power numbers. This crate is
//! the reproduction's substitute for both steps (see ARCHITECTURE.md):
//!
//! * [`TechLibrary`] holds per-gate-kind [`CellParams`] — area, intrinsic
//!   delay, leakage and switching energy — with values inspired by the
//!   NanGate 45 nm Open Cell Library at `Vdd = 1 V`;
//! * [`area_of`] / [`delay_of`] are the cheap estimators used inside the
//!   CGP fitness loop (only *active* gates count);
//! * [`estimate`] combines structure with a switching-[`ActivityReport`]
//!   (measured under the application's data distribution) into a full
//!   [`CircuitEstimate`]: dynamic + leakage power and the power-delay
//!   product reported in the paper's figures.
//!
//! # Examples
//!
//! ```
//! use apx_gates::NetlistBuilder;
//! use apx_techlib::{TechLibrary, area_of, delay_of};
//!
//! let mut b = NetlistBuilder::new(2);
//! let s = b.xor(b.input(0), b.input(1));
//! b.outputs(&[s]);
//! let nl = b.finish().unwrap();
//! let lib = TechLibrary::nangate45();
//! assert!(area_of(&nl, &lib) > 0.0);
//! assert!(delay_of(&nl, &lib) > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use apx_dist::Pmf;
use apx_gates::{ActivityReport, GateKind, Netlist};
use apx_rng::Xoshiro256;

/// Physical parameters of one standard cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellParams {
    /// Cell area in µm².
    pub area_um2: f64,
    /// Intrinsic propagation delay in ns.
    pub delay_ns: f64,
    /// Leakage power in nW.
    pub leakage_nw: f64,
    /// Energy per output transition in fJ.
    pub switch_energy_fj: f64,
}

const NUM_KINDS: usize = GateKind::ALL.len();

/// A technology library: one [`CellParams`] per [`GateKind`].
#[derive(Debug, Clone, PartialEq)]
pub struct TechLibrary {
    name: String,
    cells: [CellParams; NUM_KINDS],
}

/// `kind`'s slot in a cell table: its discriminant, which is its position
/// in [`GateKind::ALL`] (`GateKind` is `#[repr(u8)]` and `ALL` lists it in
/// declaration order).
fn kind_index(kind: GateKind) -> usize {
    kind as usize
}

impl TechLibrary {
    /// 45 nm library with NanGate-OCL-inspired cell parameters
    /// (`Vdd = 1 V`, typical corner). Constants and buffers are modelled as
    /// tie cells / small drivers.
    #[must_use]
    pub fn nangate45() -> Self {
        use GateKind::*;
        let mut cells =
            [CellParams { area_um2: 0.0, delay_ns: 0.0, leakage_nw: 0.0, switch_energy_fj: 0.0 };
                NUM_KINDS];
        let mut set = |kind: GateKind, area, delay, leak, energy| {
            cells[kind_index(kind)] = CellParams {
                area_um2: area,
                delay_ns: delay,
                leakage_nw: leak,
                switch_energy_fj: energy,
            };
        };
        set(Const0, 0.266, 0.000, 0.3, 0.0);
        set(Const1, 0.266, 0.000, 0.3, 0.0);
        set(Buf, 0.798, 0.030, 1.5, 0.8);
        set(Not, 0.532, 0.010, 1.2, 0.6);
        set(And, 1.064, 0.040, 2.3, 1.2);
        set(Nand, 0.798, 0.015, 1.8, 0.8);
        set(Or, 1.064, 0.045, 2.3, 1.2);
        set(Nor, 0.798, 0.020, 1.9, 0.8);
        set(Xor, 1.596, 0.055, 3.0, 1.8);
        set(Xnor, 1.596, 0.055, 3.1, 1.8);
        set(AndNotB, 1.064, 0.042, 2.4, 1.3);
        set(AndNotA, 1.064, 0.042, 2.4, 1.3);
        set(OrNotB, 1.064, 0.047, 2.4, 1.3);
        set(OrNotA, 1.064, 0.047, 2.4, 1.3);
        TechLibrary { name: "nangate45".to_owned(), cells }
    }

    /// Unit library: every cell costs area 1, delay 1, leakage 1, energy 1
    /// (constants cost 0). Useful for structure-only comparisons and tests.
    #[must_use]
    pub fn unit() -> Self {
        let mut cells =
            [CellParams { area_um2: 1.0, delay_ns: 1.0, leakage_nw: 1.0, switch_energy_fj: 1.0 };
                NUM_KINDS];
        for kind in [GateKind::Const0, GateKind::Const1] {
            cells[kind_index(kind)] =
                CellParams { area_um2: 0.0, delay_ns: 0.0, leakage_nw: 0.0, switch_energy_fj: 0.0 };
        }
        TechLibrary { name: "unit".to_owned(), cells }
    }

    /// Library name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Parameters of `kind`'s cell.
    #[must_use]
    pub fn cell(&self, kind: GateKind) -> &CellParams {
        &self.cells[kind_index(kind)]
    }

    /// Replaces the parameters of one cell (for calibration studies).
    pub fn set_cell(&mut self, kind: GateKind, params: CellParams) {
        self.cells[kind_index(kind)] = params;
    }
}

impl Default for TechLibrary {
    fn default() -> Self {
        Self::nangate45()
    }
}

/// Total cell area of the *active* gates, in µm².
///
/// This is the fitness cost of Eq. 1 — dead CGP genes cost nothing.
#[must_use]
pub fn area_of(netlist: &Netlist, lib: &TechLibrary) -> f64 {
    let active = netlist.active_mask();
    let ni = netlist.num_inputs();
    netlist
        .nodes()
        .iter()
        .enumerate()
        .filter(|(k, _)| active[ni + k])
        .map(|(_, node)| lib.cell(node.kind).area_um2)
        .sum()
}

/// Critical-path delay through the active cone, in ns.
#[must_use]
pub fn delay_of(netlist: &Netlist, lib: &TechLibrary) -> f64 {
    let ni = netlist.num_inputs();
    let mut arrival = vec![0.0f64; netlist.num_signals()];
    for (k, node) in netlist.nodes().iter().enumerate() {
        let t_in = match node.kind.arity() {
            0 => 0.0,
            1 => arrival[node.a.index()],
            _ => arrival[node.a.index()].max(arrival[node.b.index()]),
        };
        arrival[ni + k] = t_in + lib.cell(node.kind).delay_ns;
    }
    netlist.outputs().iter().map(|o| arrival[o.index()]).fold(0.0, f64::max)
}

/// Leakage power of the active gates, in nW.
#[must_use]
pub fn leakage_of(netlist: &Netlist, lib: &TechLibrary) -> f64 {
    let active = netlist.active_mask();
    let ni = netlist.num_inputs();
    netlist
        .nodes()
        .iter()
        .enumerate()
        .filter(|(k, _)| active[ni + k])
        .map(|(_, node)| lib.cell(node.kind).leakage_nw)
        .sum()
}

/// Full physical estimate of a circuit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CircuitEstimate {
    /// Active-cell area in µm².
    pub area_um2: f64,
    /// Critical-path delay in ns.
    pub delay_ns: f64,
    /// Leakage power in µW.
    pub leakage_uw: f64,
    /// Dynamic (switching) power in µW at the estimate's clock.
    pub dynamic_uw: f64,
    /// Clock frequency used for the dynamic component, in MHz.
    pub clock_mhz: f64,
}

impl CircuitEstimate {
    /// Total power (dynamic + leakage) in µW.
    #[must_use]
    pub fn power_uw(&self) -> f64 {
        self.dynamic_uw + self.leakage_uw
    }

    /// Total power in mW (the unit of the paper's Fig. 3/5).
    #[must_use]
    pub fn power_mw(&self) -> f64 {
        self.power_uw() / 1000.0
    }

    /// Power-delay product in fJ (µW × ns), the paper's Fig. 6 metric.
    #[must_use]
    pub fn pdp_fj(&self) -> f64 {
        self.power_uw() * self.delay_ns
    }
}

/// Default clock for power estimates (MHz).
pub const DEFAULT_CLOCK_MHZ: f64 = 1000.0;

/// Combines structure and measured switching activity into a
/// [`CircuitEstimate`].
///
/// `activity` must come from [`ActivityReport::estimate`] on the same
/// netlist. Dynamic power is `Σ_active E_sw · toggle_rate · f`; dead gates
/// contribute nothing.
///
/// # Panics
///
/// Panics if `activity` was computed for a different netlist shape.
#[must_use]
pub fn estimate(
    netlist: &Netlist,
    lib: &TechLibrary,
    activity: &ActivityReport,
    clock_mhz: f64,
) -> CircuitEstimate {
    assert_eq!(
        activity.toggle_rate.len(),
        netlist.num_signals(),
        "activity report does not match netlist"
    );
    let active = netlist.active_mask();
    let ni = netlist.num_inputs();
    let mut dynamic_uw = 0.0;
    for (k, node) in netlist.nodes().iter().enumerate() {
        let sig = ni + k;
        if !active[sig] {
            continue;
        }
        let e_fj = lib.cell(node.kind).switch_energy_fj;
        // fJ · toggles/cycle · MHz = 1e-15 J · 1e6 /s = 1e-9 W = 1e-3 µW.
        dynamic_uw += e_fj * activity.toggle_rate[sig] * clock_mhz * 1e-3;
    }
    CircuitEstimate {
        area_um2: area_of(netlist, lib),
        delay_ns: delay_of(netlist, lib),
        leakage_uw: leakage_of(netlist, lib) / 1000.0,
        dynamic_uw,
        clock_mhz,
    }
}

/// Estimates a two-operand circuit under its application distribution:
/// operand A (inputs `0..w`) follows `pmf_a`, operand B and any further
/// inputs are uniform. `blocks` 64-vector blocks of stimuli are simulated.
///
/// This mirrors the paper's methodology of reporting power for the data
/// the application actually feeds the component.
///
/// # Panics
///
/// Panics if the netlist has fewer than `pmf_a.width()` inputs or
/// `blocks == 0`.
#[must_use]
pub fn estimate_under_pmf(
    netlist: &Netlist,
    lib: &TechLibrary,
    pmf_a: &Pmf,
    clock_mhz: f64,
    blocks: usize,
    rng: &mut Xoshiro256,
) -> CircuitEstimate {
    let w = pmf_a.width() as usize;
    assert!(netlist.num_inputs() >= w, "netlist narrower than the pmf operand");
    let sampler = pmf_a.sampler();
    let activity = ActivityReport::estimate(netlist, blocks, |inputs| {
        // Operand A: per-lane samples from the distribution.
        inputs[..w].fill(0);
        for lane in 0..64 {
            let x = sampler.sample(rng) as u64;
            for (i, word) in inputs[..w].iter_mut().enumerate() {
                *word |= ((x >> i) & 1) << lane;
            }
        }
        // Everything else: uniform random.
        for word in &mut inputs[w..] {
            *word = rng.next_u64();
        }
    });
    estimate(netlist, lib, &activity, clock_mhz)
}

#[cfg(test)]
mod tests {
    use super::*;
    use apx_arith::{array_multiplier, truncated_multiplier, Operator};
    use apx_gates::{NetlistBuilder, Node, SignalId};

    fn xor_netlist() -> Netlist {
        let mut b = NetlistBuilder::new(2);
        let s = b.xor(b.input(0), b.input(1));
        b.outputs(&[s]);
        b.finish().unwrap()
    }

    #[test]
    fn unit_library_counts_gates() {
        let lib = TechLibrary::unit();
        let nl = array_multiplier(4);
        assert_eq!(area_of(&nl, &lib), nl.active_gate_count() as f64);
        assert_eq!(delay_of(&nl, &lib), nl.depth() as f64);
    }

    #[test]
    fn dead_gates_cost_nothing() {
        let mut b = NetlistBuilder::new(2);
        let (x, y) = (b.input(0), b.input(1));
        let live = b.and(x, y);
        let _dead = b.xor(x, y);
        b.outputs(&[live]);
        let nl = b.finish().unwrap();
        let lib = TechLibrary::nangate45();
        assert!((area_of(&nl, &lib) - lib.cell(GateKind::And).area_um2).abs() < 1e-12);
    }

    #[test]
    fn truncation_reduces_all_costs() {
        let lib = TechLibrary::nangate45();
        let exact = array_multiplier(8);
        let trunc = truncated_multiplier(8, 8);
        assert!(area_of(&trunc, &lib) < area_of(&exact, &lib));
        assert!(leakage_of(&trunc, &lib) < leakage_of(&exact, &lib));
        assert!(delay_of(&trunc, &lib) <= delay_of(&exact, &lib));
    }

    #[test]
    fn estimate_produces_plausible_multiplier_power() {
        let lib = TechLibrary::nangate45();
        let nl = array_multiplier(8);
        let mut rng = Xoshiro256::from_seed(3);
        let est = estimate_under_pmf(&nl, &lib, &Pmf::uniform(8), DEFAULT_CLOCK_MHZ, 64, &mut rng);
        // An exact 8-bit multiplier at 45 nm / 1 GHz: tens to hundreds µW.
        assert!(est.power_uw() > 20.0 && est.power_uw() < 2000.0, "power {} µW", est.power_uw());
        // Delay of a ripple array: on the order of a nanosecond.
        assert!(est.delay_ns > 0.3 && est.delay_ns < 5.0, "delay {}", est.delay_ns);
        assert!(est.pdp_fj() > 0.0);
        assert!((est.power_mw() - est.power_uw() / 1000.0).abs() < 1e-12);
    }

    #[test]
    fn constant_stimulus_means_no_dynamic_power() {
        let lib = TechLibrary::nangate45();
        let nl = xor_netlist();
        let activity = ActivityReport::estimate(&nl, 4, |inputs| {
            inputs[0] = !0;
            inputs[1] = 0;
        });
        let est = estimate(&nl, &lib, &activity, DEFAULT_CLOCK_MHZ);
        assert_eq!(est.dynamic_uw, 0.0);
        assert!(est.leakage_uw > 0.0);
        assert!(est.power_uw() > 0.0);
    }

    #[test]
    fn skewed_distribution_changes_power() {
        // A point-mass distribution on x freezes operand A -> lower power
        // than uniform stimulation.
        let lib = TechLibrary::nangate45();
        let nl = array_multiplier(6);
        let mut weights = vec![0.0; 64];
        weights[0] = 1.0;
        let frozen = Pmf::from_weights(6, weights).unwrap();
        let mut rng1 = Xoshiro256::from_seed(9);
        let mut rng2 = Xoshiro256::from_seed(9);
        let est_frozen = estimate_under_pmf(&nl, &lib, &frozen, DEFAULT_CLOCK_MHZ, 64, &mut rng1);
        let est_uniform =
            estimate_under_pmf(&nl, &lib, &Pmf::uniform(6), DEFAULT_CLOCK_MHZ, 64, &mut rng2);
        assert!(est_frozen.dynamic_uw < est_uniform.dynamic_uw);
    }

    #[test]
    fn dynamic_power_is_pinned_bit_for_bit() {
        // `dynamic_uw` bits at 1/4/16/17/48 stimulus blocks: (a) an 8-bit
        // array multiplier, (b) the same gates with output 15 moved onto an
        // appended `Const0` node, which leaves three gates dead, and (c) the
        // 4-bit MAC seed.
        let lib = TechLibrary::nangate45();
        let mul = array_multiplier(8);
        let mut nodes = mul.nodes().to_vec();
        nodes.push(Node { kind: GateKind::Const0, a: SignalId(0), b: SignalId(0) });
        let mut outputs = mul.outputs().to_vec();
        outputs[15] = SignalId(mul.num_signals() as u32);
        let rerouted = Netlist::new(mul.num_inputs(), nodes, outputs).unwrap();
        assert_eq!(rerouted.gate_count() - rerouted.active_gate_count(), 3);
        let mac = Operator::Mac.seed_circuit(4, false);
        let cases = [
            (
                &mul,
                Pmf::half_normal(8, 64.0),
                [
                    0x4060_7d41_d41d_41d3,
                    0x4060_822e_fbc8_9567,
                    0x4060_771a_9371_a935,
                    0x4060_69a7_eb46_6aec,
                    0x4060_4182_cae6_3dda,
                ],
            ),
            (
                &rerouted,
                Pmf::half_normal(8, 64.0),
                [
                    0x4060_7d41_d41d_41d3,
                    0x4060_8060_6060_6065,
                    0x4060_754d_5354_d534,
                    0x4060_67f5_d370_ff7c,
                    0x4060_3ff5_dd05_9e56,
                ],
            ),
            (
                &mac,
                Pmf::half_normal(4, 3.0),
                [
                    0x4042_a702_7027_026d,
                    0x4043_4db4_1a80_e74e,
                    0x4042_e0fe_a60f_ea62,
                    0x4042_fb3e_20b0_59ae,
                    0x4042_e55f_ea20_4f7d,
                ],
            ),
        ];
        for (case, (nl, pmf, pinned)) in cases.iter().enumerate() {
            for (blocks, &bits) in [1, 4, 16, 17, 48].into_iter().zip(pinned) {
                let mut rng = Xoshiro256::from_seed(7);
                let est = estimate_under_pmf(nl, &lib, pmf, DEFAULT_CLOCK_MHZ, blocks, &mut rng);
                assert_eq!(
                    est.dynamic_uw.to_bits(),
                    bits,
                    "case {case}, {blocks} blocks: {} µW",
                    est.dynamic_uw
                );
            }
        }
    }

    #[test]
    fn pdp_is_power_times_delay() {
        let est = CircuitEstimate {
            area_um2: 10.0,
            delay_ns: 2.0,
            leakage_uw: 1.0,
            dynamic_uw: 4.0,
            clock_mhz: 1000.0,
        };
        assert!((est.pdp_fj() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn cell_slots_follow_the_kind_list() {
        for (i, &kind) in GateKind::ALL.iter().enumerate() {
            assert_eq!(kind_index(kind), i, "{kind:?}");
        }
    }

    #[test]
    fn set_cell_overrides_parameters() {
        let mut lib = TechLibrary::unit();
        lib.set_cell(
            GateKind::Xor,
            CellParams { area_um2: 5.0, delay_ns: 1.0, leakage_nw: 1.0, switch_energy_fj: 1.0 },
        );
        let nl = xor_netlist();
        assert_eq!(area_of(&nl, &lib), 5.0);
        assert_eq!(lib.name(), "unit");
    }
}
