//! The paper's experiment driver (§IV): for each multi-mode circuit, run
//! MDR and both DCS variants on the *same* fabric and collect the metrics
//! behind Table I and Figures 5–7.
//!
//! The comparison is defined for **any mode count** N ≥ 1, not just the
//! paper's pairs: the MDR flow anneals and routes one single-mode
//! implementation per mode, and the diff cost averages over all ordered
//! mode pairs.
//!
//! Fabric sizing follows the paper per implementation: the array is sized
//! for the biggest mode (+20% area, shared by all flows — the
//! reconfigurable region is one physical resource), while each flow's
//! channel width is its own minimum +20% (MDR's width is the maximum over
//! its modes). Reconfiguration costs are therefore measured on the fabric
//! each tool flow would actually provision, exactly as a per-flow VPR run
//! would report them.
//!
//! The comparison is no separate code path: [`crate::stage::combined_plan`]
//! builds it from the plain flows' own stages — three placement nodes, the
//! `mdr-summary` node and the `dcs-summary` node of each placement cost —
//! and a pure `combine` join that assembles [`CombinedMetrics`] from the
//! three summaries. A batch engine therefore shares placements *and*
//! routed summaries between combined jobs and plain `dcs`/`mdr` jobs.
//! [`run_combined_n`] executes that plan uncached; with
//! [`FlowOptions::intra_parallelism`] `== 1` every stage runs serially, and
//! the metrics are identical either way.

use crate::stage::{combined_plan, Artifact, NoHooks};
use crate::{FlowError, FlowOptions, MultiModeInput};
use mm_bitstream::{speedup, RewriteCost};
use mm_netlist::LutCircuit;

/// All per-problem measurements used by the figures, for any mode count.
#[derive(Debug, Clone, PartialEq)]
pub struct CombinedMetrics {
    /// Human-readable id, e.g. `regexp0+regexp3`.
    pub name: String,
    /// Array side length (shared region).
    pub grid: usize,
    /// MDR channel width (max over modes, +20%).
    pub width_mdr: usize,
    /// Channel width of the edge-matched tunable circuit (+20%).
    pub width_edge: usize,
    /// Channel width of the wire-length tunable circuit (+20%).
    pub width_wirelength: usize,
    /// Reconfiguration cost of MDR (full region).
    pub mdr: RewriteCost,
    /// Diff-based rewrite (all LUT bits + differing routing cells),
    /// averaged over ordered mode pairs.
    pub diff: RewriteCost,
    /// DCS with edge-matching combined placement.
    pub dcs_edge: RewriteCost,
    /// DCS with wire-length combined placement.
    pub dcs_wirelength: RewriteCost,
    /// Mean wires per active mode under MDR.
    pub wires_mdr: f64,
    /// Mean wires per active mode under DCS edge matching.
    pub wires_edge: f64,
    /// Mean wires per active mode under DCS wire-length.
    pub wires_wirelength: f64,
    /// Tunable-circuit statistics (wire-length variant).
    pub tunable_stats: crate::TunableStats,
    /// Logic blocks of each mode (area bookkeeping).
    pub mode_luts: Vec<usize>,
}

impl CombinedMetrics {
    /// Fig. 5: reconfiguration speed-up of DCS (edge matching) over MDR.
    #[must_use]
    pub fn speedup_edge(&self) -> f64 {
        speedup(&self.mdr, &self.dcs_edge)
    }

    /// Fig. 5: reconfiguration speed-up of DCS (wire length) over MDR.
    #[must_use]
    pub fn speedup_wirelength(&self) -> f64 {
        speedup(&self.mdr, &self.dcs_wirelength)
    }

    /// Fig. 7: per-mode wire usage of DCS edge matching relative to MDR.
    #[must_use]
    pub fn wire_ratio_edge(&self) -> f64 {
        self.wires_edge / self.wires_mdr
    }

    /// Fig. 7: per-mode wire usage of DCS wire-length relative to MDR.
    #[must_use]
    pub fn wire_ratio_wirelength(&self) -> f64 {
        self.wires_wirelength / self.wires_mdr
    }

    /// §IV-C area: the multi-mode region (largest mode, +20%) relative to
    /// implementing all modes statically side by side.
    #[must_use]
    pub fn area_vs_static(&self) -> f64 {
        let max = *self.mode_luts.iter().max().expect("at least one mode") as f64;
        let sum: usize = self.mode_luts.iter().sum();
        max / sum as f64
    }
}

/// Runs the full comparison for one N-mode problem, straight from the
/// mode circuits: input validation, then an uncached execution of the
/// [`combined_plan`] stage graph (the placement and summary stages of the
/// plain flows fan out, the pure `combine` stage joins them).
///
/// # Errors
///
/// Fails on invalid inputs or if any flow cannot place or route.
pub fn run_combined_n(
    circuits: &[LutCircuit],
    options: &FlowOptions,
    name: impl Into<String>,
) -> Result<CombinedMetrics, FlowError> {
    let input = MultiModeInput::new(circuits.to_vec())?;
    let run = combined_plan(input, *options).execute(&NoHooks, options.intra_parallelism);
    match run.artifact? {
        Artifact::Combined(mut metrics) => {
            metrics.name = name.into();
            Ok(metrics)
        }
        other => Err(FlowError::Internal(format!(
            "combined plan resolved to a {:?} artifact",
            other.kind()
        ))),
    }
}
