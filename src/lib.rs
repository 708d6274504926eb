//! # multimode — combined implementation of multi-mode circuits
//!
//! Facade crate re-exporting the whole tool-flow stack. See the individual
//! crates for details:
//!
//! * [`boolexpr`] — Boolean mode algebra (mode sets, activation functions).
//! * [`netlist`] — gate-level IR and k-LUT circuits, BLIF I/O.
//! * [`synth`] — AIG-based synthesis and k-LUT technology mapping.
//! * [`arch`] — island-style FPGA model and routing-resource graph.
//! * [`place`] — VPR-style annealing placer and multi-mode combined placement.
//! * [`route`] — PathFinder router with mode-aware wire sharing.
//! * [`bitstream`] — configuration memory model and rewrite-cost metrics.
//! * [`gen`] — multi-mode benchmark generators (regex engines, FIR, MCNC-like),
//!   combinable into N-mode problems (`all_tuples`, `fir_mode_tuples`).
//! * [`flow`] — the paper's tool flow: merging, MDR and DCS flows, and the
//!   N-mode combined comparison (`run_combined_n`), a stage plan that
//!   joins the MDR and both DCS flows' summaries.
//! * [`engine`] — parallel batch execution with content-addressed stage
//!   caching (`mmflow batch` and the serve protocol live on top of it).
//!
//! # Quickstart
//!
//! ```no_run
//! use multimode::flow::{DcsFlow, FlowOptions, MultiModeInput};
//! use multimode::gen::regex::RegexEngine;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Two modes of a tiny network-monitor transceiver.
//! let a = RegexEngine::compile("GET /index", 4)?.into_lut_circuit();
//! let b = RegexEngine::compile("POST /login", 4)?.into_lut_circuit();
//!
//! let input = MultiModeInput::new(vec![a, b])?;
//! let result = DcsFlow::new(FlowOptions::default()).run(&input)?;
//! println!("parameterized routing bits: {}", result.parameterized_routing_bits());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub use mm_arch as arch;
pub use mm_bitstream as bitstream;
pub use mm_boolexpr as boolexpr;
pub use mm_engine as engine;
pub use mm_flow as flow;
pub use mm_gen as gen;
pub use mm_netlist as netlist;
pub use mm_place as place;
pub use mm_route as route;
pub use mm_synth as synth;
