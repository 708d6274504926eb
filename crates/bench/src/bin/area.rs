//! Regenerates the §IV-C area statement: the multi-mode region relative to
//! static side-by-side implementation, and the FIR area relative to the
//! generic filter.

use mm_bench::{run_set, BenchmarkSet, RunConfig};
use mm_flow::report::render_table;
use mm_flow::{CombinedMetrics, Stats};
use mm_netlist::LutCircuit;

fn main() {
    let config = RunConfig::from_args(std::env::args().skip(1));
    let mut rows = Vec::new();
    for set in config.sets() {
        let metrics = run_set(set, &config);
        let ratios: Vec<f64> = metrics
            .iter()
            .map(|m: &CombinedMetrics| 100.0 * m.area_vs_static())
            .collect();
        let s = Stats::of(&ratios);
        rows.push(vec![
            set.name().to_string(),
            format!("{:.0}% [{:.0}..{:.0}]", s.mean, s.min, s.max),
        ]);
    }
    println!("\nArea of the multi-mode region relative to static implementation");
    println!("(paper: ~50% for RegExp and MCNC)\n");
    print!("{}", render_table(&["set", "area vs static"], &rows));

    if config.sets().contains(&BenchmarkSet::Fir) {
        let generic = mm_gen::fir_generic_reference(4).lut_count();
        let suite = mm_gen::fir_suite(4);
        let sizes: Vec<usize> = suite.iter().map(LutCircuit::lut_count).collect();
        let max = *sizes.iter().max().expect("nonempty suite");
        let avg = sizes.iter().sum::<usize>() as f64 / sizes.len() as f64;
        println!("\nAdaptive filtering vs the generic FIR (paper: region = 33% of generic,");
        println!("specialised filter 3x smaller than generic):");
        println!("  generic FIR:              {generic} LUTs");
        println!("  specialised filters:      avg {avg:.0} LUTs (max {max})");
        println!(
            "  region vs generic:        {:.0}%",
            100.0 * (max as f64 * 1.2) / generic as f64
        );
        println!(
            "  specialised vs generic:   {:.1}x smaller",
            generic as f64 / avg
        );
    }
}
