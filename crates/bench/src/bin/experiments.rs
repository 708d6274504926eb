//! Runs the complete evaluation (Table I + Figures 5, 6, 7 + area) in one
//! pass, computing each pair's flows once.
//!
//! Pairs fan out across the `mm-engine` thread pool (`--threads N`,
//! default one per CPU) with optional stage caching (`--cache DIR`); the
//! tail of the run prints the measured parallel wall clock against the
//! summed serial cost of the jobs (and against a measured serial re-run
//! with `--compare-serial`).

use mm_bench::{
    fig5_row, fig6_rows, fig7_row, run_set_engine, table1_row, BenchmarkSet, RunConfig,
};
use mm_flow::report::render_table;
use mm_flow::{CombinedMetrics, Stats};
use mm_netlist::LutCircuit;
use std::time::{Duration, Instant};

fn main() {
    let config = RunConfig::from_args(std::env::args().skip(1));
    let t0 = Instant::now();

    println!("== Table I: Size of the LUT circuits used in the experiments ==");
    println!("(paper: RegExp 224/243/261, FIR 235/302/371, MCNC 264/310/404)\n");
    let rows: Vec<Vec<String>> = config.sets().into_iter().map(table1_row).collect();
    print!("{}", render_table(&["set", "min", "avg", "max"], &rows));

    let engine = config.engine();
    let mut all: Vec<(BenchmarkSet, Vec<CombinedMetrics>)> = Vec::new();
    let mut serial_cost = Duration::ZERO;
    let mut cached_results = 0usize;
    let parallel_t0 = Instant::now();
    for set in config.sets() {
        eprintln!(
            "running {} pairs on {} threads...",
            set.name(),
            engine.threads()
        );
        let set_t0 = Instant::now();
        let (metrics, report) = run_set_engine(set, &config, &engine);
        serial_cost += report.serial_estimate();
        cached_results += report.stats.results_from_cache;
        eprintln!(
            "  [{}] {} pairs in {:?} ({} results, {} placements from cache)",
            set.name(),
            metrics.len(),
            set_t0.elapsed(),
            report.stats.results_from_cache,
            report.stats.placements_from_cache,
        );
        all.push((set, metrics));
    }
    let parallel_wall = parallel_t0.elapsed();

    println!("\n== Fig. 5: Reconfiguration speed up of DCS compared to MDR ==");
    println!("(paper: 4.6x-5.1x; mean [min..max])\n");
    let rows: Vec<Vec<String>> = all.iter().map(|(s, m)| fig5_row(*s, m)).collect();
    print!(
        "{}",
        render_table(
            &["set", "MDR (base)", "DCS-Edge matching", "DCS-Wire length"],
            &rows
        )
    );

    println!("\n== Fig. 6: Relative contribution of LUTs and routing in reconf. time ==");
    println!("(paper, RegExp: MDR routing-heavy; Diff ~5x less routing; DCS ~4x less again)\n");
    let rows: Vec<Vec<String>> = all.iter().flat_map(|(s, m)| fig6_rows(*s, m)).collect();
    print!(
        "{}",
        render_table(
            &["scenario", "LUT bits", "routing bits", "LUT %", "routing %"],
            &rows
        )
    );

    println!("\n== Fig. 7: Wire usage of an individual mode relative to MDR ==");
    println!("(paper: WL-opt +24% avg [11..35] RegExp/FIR, up to +45% MCNC; edge >2x possible)\n");
    let rows: Vec<Vec<String>> = all.iter().map(|(s, m)| fig7_row(*s, m)).collect();
    print!(
        "{}",
        render_table(
            &["set", "MDR (base)", "DCS-Edge matching", "DCS-Wire length"],
            &rows
        )
    );

    println!("\n== Area (paper §IV-C: ~50% of static for RegExp/MCNC; FIR 33% of generic) ==\n");
    let mut rows = Vec::new();
    for (set, metrics) in &all {
        let ratios: Vec<f64> = metrics.iter().map(|m| 100.0 * m.area_vs_static()).collect();
        let s = Stats::of(&ratios);
        rows.push(vec![
            set.name().to_string(),
            format!("{:.0}% [{:.0}..{:.0}]", s.mean, s.min, s.max),
        ]);
    }
    print!("{}", render_table(&["set", "area vs static"], &rows));
    if all.iter().any(|(s, _)| *s == BenchmarkSet::Fir) {
        let generic = mm_gen::fir_generic_reference(4).lut_count();
        let suite = mm_gen::fir_suite(4);
        let sizes: Vec<usize> = suite.iter().map(LutCircuit::lut_count).collect();
        let max = *sizes.iter().max().expect("nonempty");
        let avg = sizes.iter().sum::<usize>() as f64 / sizes.len() as f64;
        println!(
            "\nFIR vs generic: region {:.0}% of generic; specialised {:.1}x smaller",
            100.0 * (max as f64 * 1.2) / generic as f64,
            generic as f64 / avg
        );
    }

    // ---- serial vs parallel wall clock --------------------------------------
    eprintln!();
    eprintln!(
        "suite execution: parallel wall {:?} on {} threads vs serial cost {:?} ({:.2}x)",
        parallel_wall,
        engine.threads(),
        serial_cost,
        serial_cost.as_secs_f64() / parallel_wall.as_secs_f64().max(1e-9),
    );
    if config.compare_serial {
        eprintln!("re-running the whole suite serially for a measured comparison...");
        let serial_engine = mm_engine::Engine::new(mm_engine::EngineOptions {
            threads: 1,
            cache_dir: None,
            ..Default::default()
        })
        .expect("serial engine");
        let st0 = Instant::now();
        for set in config.sets() {
            let jobs = mm_bench::pair_jobs(set, &config);
            let _ = serial_engine.run(jobs);
        }
        let measured = st0.elapsed();
        // The serial reference is uncached; if the parallel pass was
        // cache-warmed, the ratio measures cache warmth, not threads —
        // say so rather than reporting a bogus thread speed-up.
        eprintln!(
            "measured serial wall {measured:?} vs parallel wall {parallel_wall:?} ({:.2}x{})",
            measured.as_secs_f64() / parallel_wall.as_secs_f64().max(1e-9),
            if cached_results > 0 {
                format!("; NOTE: parallel pass served {cached_results} results from cache")
            } else {
                String::new()
            },
        );
    }

    eprintln!("\ntotal runtime {:?}", t0.elapsed());
}
