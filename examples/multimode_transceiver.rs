//! The paper's motivating scenario: "a mobile transceiver that supports
//! different communication standards … but only uses one at any given
//! time". Here the two standards are two intrusion-detection pattern
//! matchers; the example runs the full MDR-vs-DCS comparison on the pair
//! and prints the per-pair version of Figures 5–7.
//!
//! ```sh
//! cargo run --release --example multimode_transceiver
//! ```

use multimode::flow::{run_combined_n, FlowOptions};
use multimode::gen::regex::RegexEngine;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Two protocol monitors that never run simultaneously.
    let http = RegexEngine::compile(
        r"GET /(login|admin|api/v[12])/[a-z0-9_/]{4,}\?(session|token)=[0-9a-f]{16}",
        4,
    )?;
    let dns = RegexEngine::compile(
        r"\x00[\x01\x1c]\x00\x01(.[a-z0-9-]{8,}){2,}\x00\x00[\x01\x1c]tunnel",
        4,
    )?;
    println!(
        "mode 0 (HTTP monitor): {} NFA states, {} LUTs",
        http.state_count(),
        http.lut_circuit().lut_count()
    );
    println!(
        "mode 1 (DNS monitor):  {} NFA states, {} LUTs",
        dns.state_count(),
        dns.lut_circuit().lut_count()
    );

    // Sanity: the matchers really work before we commit them to silicon.
    assert!(http.matches(b"GET /admin/users/list?session=0123456789abcdef HTTP/1.1"));
    assert!(!http.matches(b"GET /index.html HTTP/1.1"));

    let modes = [http.into_lut_circuit(), dns.into_lut_circuit()];

    let mut options = FlowOptions::default();
    options.placer.inner_num = 2.0;
    println!("\nrunning MDR + DCS (edge matching) + DCS (wire length)...");
    let m = run_combined_n(&modes, &options, "transceiver")?;

    println!(
        "\nregion {0}x{0}; channel widths: MDR {1}, DCS-edge {2}, DCS-wl {3}",
        m.grid, m.width_mdr, m.width_edge, m.width_wirelength
    );
    println!("\nreconfiguration cost (bits rewritten on a mode switch):");
    println!("  MDR  (full region): {}", m.mdr);
    println!("  Diff (changed bits): {}", m.diff);
    println!("  DCS  edge matching: {}", m.dcs_edge);
    println!("  DCS  wire length:   {}", m.dcs_wirelength);
    println!(
        "\nspeed-up vs MDR (paper Fig. 5): edge {:.2}x, wire-length {:.2}x",
        m.speedup_edge(),
        m.speedup_wirelength()
    );
    println!(
        "wire usage per active mode vs MDR (paper Fig. 7): edge {:.0}%, wire-length {:.0}%",
        100.0 * m.wire_ratio_edge(),
        100.0 * m.wire_ratio_wirelength()
    );
    println!(
        "area vs static side-by-side implementation: {:.0}%",
        100.0 * m.area_vs_static()
    );
    Ok(())
}
