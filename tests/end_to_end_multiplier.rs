//! Integration: the full distribution-driven multiplier flow
//! (CGP × metrics × techlib × approxlib working together).

use distapprox::prelude::*;

fn flow(width: u32, pmf: &Pmf, budget: f64, iterations: u64, seed: u64) -> EvolvedCircuit {
    let cfg = FlowConfig {
        width,
        thresholds: vec![budget],
        iterations,
        seed,
        threads: 2,
        activity_blocks: 8,
        ..FlowConfig::default()
    };
    evolve_circuits(pmf, &cfg)
        .expect("flow runs")
        .circuits
        .into_iter()
        .next()
        .expect("one multiplier")
}

#[test]
fn evolved_multiplier_respects_budget_and_shrinks() {
    let pmf = Pmf::half_normal(5, 6.0);
    let budget = 5e-3;
    let m = flow(5, &pmf, budget, 800, 1);
    assert!(m.stats.wmed <= budget);
    let exact = array_multiplier(5);
    let tech = TechLibrary::nangate45();
    assert!(
        area_of(&m.netlist, &tech) < area_of(&exact.compact(), &tech),
        "approximation should be smaller than the exact seed"
    );
}

#[test]
fn distribution_tailoring_beats_mismatched_evaluation() {
    // Evolve for a half-normal distribution; its WMED under that
    // distribution must be no worse than under the uniform metric
    // (it concentrated its errors on unlikely operands).
    let width = 5;
    let d2 = Pmf::half_normal(width, 6.0);
    let m = flow(width, &d2, 1e-2, 800, 3);
    let wmeds = cross_wmed(&m.netlist, width, false, &[d2, Pmf::uniform(width)]).unwrap();
    assert!(wmeds[0] <= 1e-2, "in-distribution budget respected");
    assert!(
        wmeds[0] <= wmeds[1] + 1e-12,
        "tailored WMED {} should not exceed uniform MED {}",
        wmeds[0],
        wmeds[1]
    );
}

#[test]
fn evolved_chromosomes_round_trip_through_text() {
    let pmf = Pmf::uniform(4);
    let m = flow(4, &pmf, 1e-2, 300, 5);
    let text = m.chromosome.to_text();
    let back = Chromosome::from_text(&text).expect("parses back");
    let ex = distapprox::gates::Exhaustive::new(8);
    assert_eq!(
        ex.output_table(&back.decode_active()),
        ex.output_table(&m.netlist),
        "serialized chromosome encodes the same function"
    );
}

#[test]
fn pareto_front_of_library_multipliers_is_sane() {
    let lib = MultiplierLibrary::evoapprox_like(6);
    let exact = OpTable::exact_mul(6, false);
    let pmf = Pmf::uniform(6);
    let tech = TechLibrary::nangate45();
    let points: Vec<(f64, f64)> = lib
        .iter()
        .map(|e| {
            let stats = table_stats(e.table().unwrap(), &exact, &pmf);
            (stats.wmed, area_of(&e.netlist, &tech))
        })
        .collect();
    let front = pareto_indices(&points);
    assert!(!front.is_empty());
    // The exact multiplier (error 0) is always on the front.
    let exact_idx =
        lib.iter().position(|e| e.name == "exact_array").expect("library has the exact entry");
    assert!(front.contains(&exact_idx));
    // The front is strictly decreasing in area along increasing error.
    for pair in front.windows(2) {
        assert!(points[pair[1]].0 >= points[pair[0]].0);
        assert!(points[pair[1]].1 < points[pair[0]].1);
    }
}

#[test]
fn zero_threshold_reproduces_exact_seed() {
    let pmf = Pmf::uniform(4);
    let cfg = FlowConfig {
        width: 4,
        thresholds: vec![0.0],
        iterations: 50,
        threads: 1,
        activity_blocks: 4,
        ..FlowConfig::default()
    };
    let result = evolve_circuits(&pmf, &cfg).unwrap();
    let m = &result.circuits[0];
    assert_eq!(m.stats.max_abs_error, 0);
    assert_eq!(m.stats.error_rate, 0.0);
}
