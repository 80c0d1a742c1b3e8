//! Approximate Gaussian image filtering (the paper's Fig. 5 scenario).
//!
//! Builds a 3×3 Gaussian filter whose nine coefficient multiplications run
//! through approximate multipliers of increasing aggressiveness, and
//! reports PSNR against the exact filter together with estimated power.
//!
//! Run with: `cargo run --release --example gaussian_filter`

use distapprox::core::report::TextTable;
use distapprox::imgproc::{average_filter_psnr, synth, Kernel3};
use distapprox::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let kernel = Kernel3::gaussian(1.0);
    println!("3x3 Gaussian kernel (sum = 256): {:?}", kernel.coeffs());
    println!(
        "distinct coefficients {:?} -> the multiplier's x operand is always small\n",
        kernel.distinct_coeffs()
    );

    // 25 synthetic scenes stand in for the paper's 25 test images.
    let images = synth::test_images(25, 64, 64, 2024);

    // The filter's coefficient distribution: only the kernel values occur.
    let mut weights = vec![0.0f64; 256];
    for &c in kernel.coeffs() {
        weights[c as usize] += 1.0;
    }
    let coeff_pmf = Pmf::from_weights(8, weights)?;

    let tech = TechLibrary::nangate45();
    let mut rng = Xoshiro256::from_seed(99);
    let library = MultiplierLibrary::evoapprox_like(8);

    let mut table = TextTable::new(vec!["multiplier", "PSNR [dB]", "power [mW]", "area [um2]"]);
    for entry in library.iter() {
        let psnr = average_filter_psnr(&images, &kernel, entry.table()?, 80.0);
        let est = estimate_under_pmf(&entry.netlist, &tech, &coeff_pmf, 1000.0, 32, &mut rng);
        table.row(vec![
            entry.name.clone(),
            format!("{psnr:.2}"),
            format!("{:.4}", est.power_mw()),
            format!("{:.1}", est.area_um2),
        ]);
    }
    println!("{}", table.to_text());
    println!(
        "Multipliers that stay exact for small x (the kernel coefficients)\n\
         keep PSNR high even when they are aggressively wrong elsewhere —\n\
         the effect the paper exploits by evolving for distribution D2."
    );
    Ok(())
}
