//! Routed timing analysis — thin shims over the [`mm_sta`] crate.
//!
//! The paper evaluates wire length because it "correlates with power usage
//! and performance (maximum clock frequency) of a circuit" (§IV-C). The
//! `mm-sta` crate makes that link concrete: a levelized static timing
//! analysis over the *routed* connections (unit delay per wire segment,
//! [`LUT_DELAY`] per LUT), so the per-mode critical path of an MDR
//! implementation can be compared against the same mode inside the merged
//! tunable circuit.
//!
//! This module keeps the flow-level entry points. The N-ary
//! [`dcs_timing`] / [`mdr_timing`] functions analyze every mode and
//! propagate STA errors (a connection missing from the routing, a cyclic
//! circuit) as [`FlowError`] instead of silently defaulting delays to
//! zero or panicking, which is what the pre-`mm-sta` implementation did.

use crate::{DcsResult, FlowError, MdrResult, MultiModeInput};

/// Delay of one LUT traversal in wire-segment units (re-exported from
/// [`mm_sta`], the owner of the delay model).
pub const LUT_DELAY: f64 = mm_sta::LUT_DELAY;

/// Per-mode timing summary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingReport {
    /// Longest register-to-register / pad-to-pad path delay.
    pub critical_path: f64,
    /// Mean routed delay of a connection (wires per connection).
    pub mean_connection_delay: f64,
    /// Number of circuit connections analyzed.
    pub connections: usize,
}

impl TimingReport {
    fn from_analysis(a: &mm_sta::TimingAnalysis) -> Self {
        Self {
            critical_path: a.critical_path,
            mean_connection_delay: a.mean_connection_delay(),
            connections: a.connections.len(),
        }
    }
}

/// Timing of every mode inside the merged tunable circuit of a DCS
/// result.
///
/// # Errors
///
/// Fails if the routing does not cover a mode's connections or a circuit
/// is combinationally cyclic — conditions the old implementation hid as
/// zero delays or a panic.
pub fn dcs_timing(
    input: &MultiModeInput,
    result: &DcsResult,
) -> Result<Vec<TimingReport>, FlowError> {
    let nets = result.tunable.route_nets(&result.rrg);
    input
        .circuits()
        .iter()
        .enumerate()
        .map(|(mode, circuit)| {
            let placement = &result.placement.modes[mode];
            mm_sta::analyze_routed(
                circuit,
                |b| placement.site_of(b),
                &result.rrg,
                &nets,
                &result.routing,
                mode,
            )
            .map(|a| TimingReport::from_analysis(&a))
            .map_err(|e| FlowError::Internal(format!("DCS mode '{}' STA: {e}", circuit.name())))
        })
        .collect()
}

/// Timing of every mode in its standalone MDR implementation.
///
/// # Errors
///
/// See [`dcs_timing`].
pub fn mdr_timing(
    input: &MultiModeInput,
    result: &MdrResult,
) -> Result<Vec<TimingReport>, FlowError> {
    input
        .circuits()
        .iter()
        .enumerate()
        .map(|(mode, circuit)| {
            let placement = &result.placements[mode];
            let nets = mm_route::nets_for_circuit(
                circuit,
                &result.rrg,
                mm_boolexpr::ModeSet::single(0),
                |b| placement.site_of(b),
            );
            mm_sta::analyze_routed(
                circuit,
                |b| placement.site_of(b),
                &result.rrg,
                &nets,
                &result.routings[mode],
                0,
            )
            .map(|a| TimingReport::from_analysis(&a))
            .map_err(|e| FlowError::Internal(format!("MDR mode '{}' STA: {e}", circuit.name())))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DcsFlow, FlowOptions, MdrFlow};
    use mm_netlist::{LutCircuit, TruthTable};

    fn random_circuit(name: &str, n_inputs: usize, n_luts: usize, seed: u64) -> LutCircuit {
        mm_gen::seeded_test_circuit(name, n_inputs, n_luts, seed)
    }

    #[test]
    fn timing_reports_are_plausible() {
        let input = MultiModeInput::new(vec![
            random_circuit("m0", 5, 18, 61),
            random_circuit("m1", 5, 20, 62),
        ])
        .unwrap();
        let mut options = FlowOptions::default();
        options.placer.inner_num = 1.0;
        let mdr = MdrFlow::new(options).run(&input).unwrap();
        let dcs = DcsFlow::new(options).run(&input).unwrap();

        let mdr_reports = mdr_timing(&input, &mdr).unwrap();
        let dcs_reports = dcs_timing(&input, &dcs).unwrap();
        for mode in 0..2 {
            let tm = mdr_reports[mode];
            let td = dcs_reports[mode];
            assert!(tm.critical_path >= LUT_DELAY, "mode {mode}: {tm:?}");
            assert!(td.critical_path >= LUT_DELAY, "mode {mode}: {td:?}");
            assert!(tm.connections > 0);
            assert_eq!(
                td.connections, tm.connections,
                "same circuit, same connection count"
            );
            assert!(tm.mean_connection_delay > 0.0);
            // The merged implementation pays a bounded latency penalty —
            // the timing analogue of the paper's bounded wire overhead.
            assert!(
                td.critical_path <= tm.critical_path * 3.0,
                "mode {mode}: DCS {td:?} vs MDR {tm:?}"
            );
        }
    }

    #[test]
    fn combinational_depth_contributes() {
        // A 3-LUT chain must have critical path ≥ 3 LUT delays.
        let mut c = LutCircuit::new("chain", 4);
        let a = c.add_input("a").unwrap();
        let g1 = c
            .add_lut("g1", vec![a], TruthTable::var(1, 0), false)
            .unwrap();
        let g2 = c
            .add_lut("g2", vec![g1], TruthTable::var(1, 0), false)
            .unwrap();
        let g3 = c
            .add_lut("g3", vec![g2], TruthTable::var(1, 0), false)
            .unwrap();
        c.add_output("y", g3).unwrap();
        let input = MultiModeInput::new(vec![c]).unwrap();
        let mut options = FlowOptions::default();
        options.placer.inner_num = 1.0;
        let mdr = MdrFlow::new(options).run(&input).unwrap();
        let t = mdr_timing(&input, &mdr).unwrap()[0];
        assert!(t.critical_path >= 3.0 * LUT_DELAY);
    }

    #[test]
    fn dcs_critical_paths_match_timing_reports() {
        // `DcsResult::critical_paths` (what timing jobs record) and the
        // flow-level reports are the same analysis.
        let input = MultiModeInput::new(vec![
            random_circuit("m0", 5, 14, 91),
            random_circuit("m1", 5, 16, 92),
        ])
        .unwrap();
        let mut options = FlowOptions::default();
        options.placer.inner_num = 1.0;
        let dcs = DcsFlow::new(options).run(&input).unwrap();
        let cps = dcs.critical_paths(input.circuits()).unwrap();
        let reports = dcs_timing(&input, &dcs).unwrap();
        assert_eq!(cps.len(), reports.len());
        for (cp, r) in cps.iter().zip(&reports) {
            assert_eq!(cp.to_bits(), r.critical_path.to_bits());
        }
    }
}
