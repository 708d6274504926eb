//! Criterion micro-benchmarks of the optimized hot paths against their
//! naive baselines — the counterpart of `mmflow bench --json`, for quick
//! local iteration on the router/placer/flow performance work.
//!
//! * `router/optimized` — scratch-arena + bounding-box PathFinder,
//!   router reused across iterations (steady state, zero per-net
//!   allocations).
//! * `router/reference_baseline` — the naive pre-optimization
//!   formulation (fresh heap + hash maps per search, full-fabric
//!   exploration, whole-graph overuse scans).
//! * `router/optimized_no_bbox` — isolates the arena from the pruning.
//! * `annealer/optimized` — a full combined-placement annealing sweep on
//!   the flat, allocation-free cost model.
//! * `annealer/naive_baseline` — the same sweep on the hash-map
//!   reference model (byte-identical placements, so the ratio is a pure
//!   data-structure speedup).
//! * `placer/mdr_place_serial` / `placer/mdr_place_parallel` — the
//!   intra-job parallel per-mode MDR annealing.
//! * `flow/pair_route_stage` — the routing half of the combined
//!   comparison on precomputed placements: the MDR flow plus the DCS
//!   flow under both placement costs.

use criterion::{criterion_group, criterion_main, Criterion};
use mm_bench::perf::{placer_workload, router_workload, small_pair_input, PerfConfig};
use mm_flow::{DcsFlow, FlowOptions, MdrFlow, MultiModeInput};
use mm_place::CostKind;
use mm_place::{place_combined, place_combined_reference};
use mm_route::reference::route_reference;
use mm_route::Router;

fn smoke_config() -> PerfConfig {
    PerfConfig {
        smoke: true,
        reps: 1,
        threads: 0,
    }
}

fn bench_router(c: &mut Criterion) {
    let (rrg, nets, options) = router_workload(&smoke_config());

    let mut router = Router::new(&rrg, options);
    let _ = router.route(&nets); // warm the arena
    c.bench_function("router/optimized", |b| {
        b.iter(|| router.route(std::hint::black_box(&nets)).success)
    });

    c.bench_function("router/reference_baseline", |b| {
        b.iter(|| {
            route_reference(
                &rrg,
                options.without_bbox().with_full_reroute(),
                std::hint::black_box(&nets),
            )
            .success
        })
    });

    let mut router_nb = Router::new(&rrg, options.without_bbox());
    let _ = router_nb.route(&nets);
    c.bench_function("router/optimized_no_bbox", |b| {
        b.iter(|| router_nb.route(std::hint::black_box(&nets)).success)
    });
}

fn pair_input() -> (MultiModeInput, FlowOptions) {
    small_pair_input()
}

fn bench_annealer(c: &mut Criterion) {
    let (circuits, arch, options) = placer_workload(&smoke_config());
    c.bench_function("annealer/optimized", |b| {
        b.iter(|| {
            place_combined(std::hint::black_box(&circuits), &arch, &options)
                .unwrap()
                .1
                .moves
        })
    });
    c.bench_function("annealer/naive_baseline", |b| {
        b.iter(|| {
            place_combined_reference(std::hint::black_box(&circuits), &arch, &options)
                .unwrap()
                .1
                .moves
        })
    });
}

fn bench_placer(c: &mut Criterion) {
    let (input, options) = pair_input();
    let mut serial = options;
    serial.intra_parallelism = 1;
    c.bench_function("placer/mdr_place_serial", |b| {
        b.iter(|| MdrFlow::new(serial).place(&input).unwrap().len())
    });
    c.bench_function("placer/mdr_place_parallel", |b| {
        b.iter(|| MdrFlow::new(options).place(&input).unwrap().len())
    });
}

fn bench_flow(c: &mut Criterion) {
    let (input, options) = pair_input();
    let mdr = MdrFlow::new(options);
    let mdr_placements = mdr.place(&input).expect("mdr places");
    let dcs: Vec<_> = [CostKind::EdgeMatching, CostKind::WireLength]
        .into_iter()
        .map(|cost| {
            let flow = DcsFlow::new(options).with_cost(cost);
            let placement = flow.place(&input).expect("dcs places");
            (flow, placement)
        })
        .collect();
    c.bench_function("flow/pair_route_stage", |b| {
        b.iter(|| {
            let mut width = mdr
                .run_with_placements(&input, mdr_placements.clone())
                .unwrap()
                .arch
                .channel_width;
            for (flow, placement) in &dcs {
                width += flow
                    .run_with_placement(&input, placement.clone())
                    .unwrap()
                    .arch
                    .channel_width;
            }
            width
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_router, bench_annealer, bench_placer, bench_flow
}
criterion_main!(benches);
