//! End-to-end integration tests: the full tool flow on multi-LUT circuits,
//! including a three-mode merge (the paper's `m1 m0` encoding) and the
//! complete MDR-vs-DCS experiment invariants.

use multimode::flow::{run_combined_n, DcsFlow, FlowOptions, MdrFlow, MultiModeInput};
use multimode::netlist::{BlockId, LutCircuit, TruthTable};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_circuit(name: &str, n_inputs: usize, n_luts: usize, seed: u64) -> LutCircuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = LutCircuit::new(name, 4);
    let mut drivers: Vec<BlockId> = (0..n_inputs)
        .map(|i| c.add_input(format!("i{i}")).unwrap())
        .collect();
    for j in 0..n_luts {
        let fanin = rng.gen_range(2..=4.min(drivers.len()));
        let mut ins = Vec::new();
        while ins.len() < fanin {
            let d = drivers[rng.gen_range(0..drivers.len())];
            if !ins.contains(&d) {
                ins.push(d);
            }
        }
        let tt = TruthTable::from_bits(ins.len(), rng.gen());
        let id = c
            .add_lut(format!("n{j}"), ins, tt, rng.gen_bool(0.2))
            .unwrap();
        drivers.push(id);
    }
    for t in 0..3 {
        let d = drivers[drivers.len() - 1 - t];
        c.add_output(format!("o{t}"), d).unwrap();
    }
    c
}

fn quick_options() -> FlowOptions {
    let mut o = FlowOptions::default();
    o.placer.inner_num = 1.0;
    o
}

#[test]
fn full_pair_experiment_invariants() {
    let input = MultiModeInput::new(vec![
        random_circuit("m0", 6, 30, 101),
        random_circuit("m1", 6, 34, 102),
    ])
    .unwrap();
    let m = run_combined_n(input.circuits(), &quick_options(), "it").unwrap();

    // Headline orderings of the paper.
    assert!(m.speedup_wirelength() > 1.0, "DCS-wl beats MDR");
    assert!(m.speedup_edge() > 1.0, "DCS-edge beats MDR");
    assert!(
        m.diff.routing_bits < m.mdr.routing_bits,
        "diff < full region"
    );
    // LUT bits are always fully rewritten in every scenario.
    assert_eq!(m.mdr.lut_bits, m.diff.lut_bits);
    assert_eq!(m.mdr.lut_bits, m.dcs_edge.lut_bits);
    assert_eq!(m.mdr.lut_bits, m.dcs_wirelength.lut_bits);
    // Wire accounting sane: DCS can never use fewer wires per mode than
    // half of MDR (it implements the same circuits).
    assert!(m.wire_ratio_wirelength() > 0.5);
    assert!(m.wire_ratio_edge() > 0.5);
    // Two similar-size modes share one region: area halves, roughly.
    let area = m.area_vs_static();
    assert!(area > 0.4 && area < 0.7, "area ratio {area}");
}

#[test]
fn three_mode_flow() {
    // Three modes need two mode bits; code 3 is a don't-care.
    let circuits = vec![
        random_circuit("a", 5, 14, 201),
        random_circuit("b", 5, 16, 202),
        random_circuit("c", 5, 12, 203),
    ];
    let input = MultiModeInput::new(circuits).unwrap();
    assert_eq!(input.space().bit_count(), 2);

    let result = DcsFlow::new(quick_options()).run(&input).unwrap();
    assert!(result.routing.success);
    let stats = result.tunable.stats();
    assert_eq!(stats.modes, 3);
    // The region holds the largest mode; all three stack onto it.
    assert!(stats.tunable_luts >= 16);
    assert!(stats.tunable_luts <= 16 * 3);

    // Parameterized expressions may now genuinely use both mode bits.
    let mdr = MdrFlow::new(quick_options()).run(&input).unwrap();
    assert!(
        result.dcs_cost().total() < mdr.mdr_cost().total(),
        "DCS wins with three modes too"
    );
    // Every pairwise diff is bounded by the full region.
    for a in 0..3 {
        for b in 0..3 {
            if a != b {
                assert!(mdr.diff_cost(a, b).routing_bits <= mdr.mdr_cost().routing_bits);
            }
        }
    }
}

#[test]
fn single_mode_degenerates_to_static() {
    // One mode: the "multi-mode" circuit is static — no parameterized bits.
    let input = MultiModeInput::new(vec![random_circuit("only", 5, 15, 301)]).unwrap();
    let result = DcsFlow::new(quick_options()).run(&input).unwrap();
    assert_eq!(result.parameterized_routing_bits(), 0);
    assert!(result.param.static_on_bits() > 0);
}

#[test]
fn deterministic_experiments() {
    let input = MultiModeInput::new(vec![
        random_circuit("m0", 5, 12, 401),
        random_circuit("m1", 5, 12, 402),
    ])
    .unwrap();
    let a = run_combined_n(input.circuits(), &quick_options(), "d1").unwrap();
    let b = run_combined_n(input.circuits(), &quick_options(), "d2").unwrap();
    assert_eq!(a.mdr, b.mdr);
    assert_eq!(a.dcs_wirelength, b.dcs_wirelength);
    assert_eq!(a.wires_mdr, b.wires_mdr);
}

#[test]
fn modes_of_different_sizes() {
    // A small mode shares the region of a large one: area = max, not sum.
    let input = MultiModeInput::new(vec![
        random_circuit("big", 6, 40, 501),
        random_circuit("small", 4, 8, 502),
    ])
    .unwrap();
    let m = run_combined_n(input.circuits(), &quick_options(), "asym").unwrap();
    let area = m.area_vs_static();
    assert!(area > 0.7, "region is dominated by the big mode: {area}");
    assert!(m.speedup_wirelength() > 1.0);
}
