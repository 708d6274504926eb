//! The traced decomposition of a DCS job into the crates' public calls,
//! and the per-layer report.
//!
//! [`decompose`] re-runs what the engine's `place-dcs` and `dcs-summary`
//! stages run, one public function at a time, with a span around each:
//!
//! * `place` — `mm_place::place_combined` (its `PlaceStats` give moves
//!   and temperatures);
//! * `tunable` — `verify_placement`, `TunableCircuit::from_placement`,
//!   `verify_projection`, and `route_nets` for the final route;
//! * `width` — `mm_route::min_channel_width` with the same net closure;
//!   each probe is timed between successive calls of the closure, so a
//!   probe span holds the probe's routing plus the next probe's graph
//!   build. `ok` is `width >= min_width`. Per-probe iterations come from
//!   replaying every probed width through `Router::route` after the job
//!   span closes (a `replay` span, not counted in the job's time);
//! * `rrg` — `RoutingGraph::build` of the final route and of the replays
//!   (a replay rebuilds exactly the graph its probe built);
//! * `route` — `Router::route` at the chosen width, with the engine's
//!   growth retries;
//! * `config` — `ConfigModel::new`, `verify_routing`,
//!   `ParamConfig::from_routing`;
//! * `sta` — `DcsResult::critical_paths` (timing jobs).
//!
//! Timing jobs have no public entry for their criticality-driven route,
//! so their `route` span times the smallest public call containing it,
//! `DcsFlow::run_with_placement` at the resolved width — which also
//! holds that job's tunable extraction, final graph build, placement
//! estimated STA and config.

use crate::report::Metrics;
use crate::trace::Tracer;
use mm_arch::RoutingGraph;
use mm_bitstream::{ConfigModel, ParamConfig};
use mm_engine::json::{self, Value};
use mm_engine::{FlowKind, Job};
use mm_flow::{DcsFlow, FlowOptions, MultiModeInput, TunableCircuit, WidthChoice};
use mm_place::{place_combined, CostKind, PlacerOptions};
use mm_route::{min_channel_width, relaxed_width, verify_routing, Router, RouterOptions};
use std::time::Instant;

/// What the decomposition must reproduce of the engine's record.
#[derive(Debug, PartialEq)]
pub struct Parity {
    channel_width: usize,
    param_bits: usize,
    mdr_routing_bits: usize,
    wires: Vec<usize>,
    critical_paths: Option<Vec<f64>>,
}

impl Parity {
    /// The same fields read from a `dcs` record line.
    pub fn from_record(record: &str) -> Option<Self> {
        let v = json::parse(record).ok()?;
        let m = v.get("metrics")?;
        let usizes = |key: &str| -> Option<Vec<usize>> {
            m.get(key)?.as_arr()?.iter().map(Value::as_usize).collect()
        };
        Some(Self {
            channel_width: m.get("channel_width")?.as_usize()?,
            param_bits: m.get("param_bits")?.as_usize()?,
            mdr_routing_bits: m.get("mdr_cost")?.get("routing_bits")?.as_usize()?,
            wires: usizes("wires")?,
            critical_paths: match m.get("critical_paths") {
                Some(cp) => Some(
                    cp.as_arr()?
                        .iter()
                        .map(Value::as_f64)
                        .collect::<Option<_>>()?,
                ),
                None => None,
            },
        })
    }
}

/// Per-layer counters the spans do not carry.
#[derive(Debug, Default)]
pub struct Counters {
    place_moves: usize,
    place_temperatures: usize,
    rrg_builds: usize,
    probes: usize,
    probes_failed: usize,
    width_iterations: usize,
    width_iterations_failed: usize,
    route_iterations: usize,
    growth_retries: usize,
    sta_calls: usize,
}

/// Runs one DCS job layer by layer under `tracer` (request `request`)
/// and returns what it computed.
pub fn decompose(
    job: &Job,
    request: usize,
    tracer: &mut Tracer,
    n: &mut Counters,
) -> Result<Parity, String> {
    let FlowKind::Dcs(cost) = job.flow else {
        return Err(format!("{}: only dcs jobs are decomposed", job.name));
    };
    let opts = job.options;
    let input = MultiModeInput::new(job.circuits.clone()).map_err(|e| e.to_string())?;
    let base = opts.base_arch(&input);
    let modes = input.mode_count();
    let router = RouterOptions {
        mode_count: modes,
        ..opts.router
    };
    let span = tracer.open("job", None, request);
    let root = Some(span);

    let placer = PlacerOptions {
        cost,
        ..opts.placer
    };
    let (placement, stats) = tracer
        .time("place", root, request, || {
            place_combined(input.circuits(), &base, &placer)
        })
        .map_err(|e| e.to_string())?;
    n.place_moves += stats.moves;
    n.place_temperatures += stats.temperatures;

    let tunable = tracer.time("tunable", root, request, || -> Result<_, String> {
        mm_place::verify_placement(input.circuits(), &base, &placement)?;
        let t = TunableCircuit::from_placement(input.circuits(), &placement, &base)
            .map_err(|e| e.to_string())?;
        t.verify_projection(input.circuits(), &placement)?;
        Ok(t)
    })?;

    let (width, probes) = match opts.width {
        WidthChoice::Fixed(w) => (w, None),
        WidthChoice::Relaxed => {
            let wspan = tracer.open("width", root, request);
            let mut calls: Vec<(Instant, usize)> = Vec::new();
            let found = min_channel_width(&base, &router, opts.max_width, |rrg| {
                calls.push((Instant::now(), rrg.arch().channel_width));
                tunable.route_nets(rrg)
            });
            let end = Instant::now();
            tracer.close(wspan);
            let min = found
                .ok_or("width search found no routable width")?
                .min_width;
            for (i, &(start, w)) in calls.iter().enumerate() {
                let stop = calls.get(i + 1).map_or(end, |c| c.0);
                let name = if w >= min { "probe" } else { "probe_failed" };
                tracer.record(name, Some(wspan), request, start, stop);
            }
            n.probes += calls.len();
            n.probes_failed += calls.iter().filter(|c| c.1 < min).count();
            (relaxed_width(min), Some((calls, min)))
        }
    };

    let parity = if matches!(cost, CostKind::Timing { .. }) {
        let fixed = FlowOptions {
            width: WidthChoice::Fixed(width),
            ..opts
        };
        let r = tracer
            .time("route", root, request, || {
                DcsFlow::new(fixed)
                    .with_cost(cost)
                    .run_with_placement(&input, placement)
            })
            .map_err(|e| e.to_string())?;
        let cps = tracer
            .time("sta", root, request, || r.critical_paths(input.circuits()))
            .map_err(|e| e.to_string())?;
        n.sta_calls += modes;
        Parity {
            channel_width: r.arch.channel_width,
            param_bits: r.parameterized_routing_bits(),
            mdr_routing_bits: r.mdr_cost().routing_bits,
            wires: (0..modes).map(|m| r.wires_in_mode(m)).collect(),
            critical_paths: Some(cps),
        }
    } else {
        // The engine's route-with-growth: +1, +2, +4, … tracks.
        let mut grow = 0usize;
        let (arch, rrg, nets, routing) = loop {
            let w = (width + grow).min(opts.max_width);
            let arch = base.with_channel_width(w);
            let rrg = tracer.time("rrg", root, request, || RoutingGraph::build(&arch));
            n.rrg_builds += 1;
            let nets = tracer.time("tunable", root, request, || tunable.route_nets(&rrg));
            let routing = tracer.time("route", root, request, || {
                Router::new(&rrg, router).route(&nets)
            });
            n.route_iterations += routing.iterations;
            if routing.success {
                break (arch, rrg, nets, routing);
            }
            if routing.unrouted_sinks > 0 || w >= opts.max_width {
                return Err(format!("{}: final route failed at width {w}", job.name));
            }
            n.growth_retries += 1;
            grow = if grow == 0 { 1 } else { grow * 2 };
        };
        let (model, param) = tracer.time("config", root, request, || -> Result<_, String> {
            let model = ConfigModel::new(&arch, &rrg);
            verify_routing(&rrg, &nets, &routing, modes)?;
            Ok((model, ParamConfig::from_routing(&routing, input.space())))
        })?;
        Parity {
            channel_width: arch.channel_width,
            param_bits: param.parameterized_bits(),
            mdr_routing_bits: model.mdr_cost().routing_bits,
            wires: (0..modes).map(|m| routing.wires_in_mode(&rrg, m)).collect(),
            critical_paths: None,
        }
    };
    tracer.close(span);

    if let Some((calls, min)) = probes {
        let replay = tracer.open("replay", None, request);
        for &(_, w) in &calls {
            let arch = base.with_channel_width(w);
            let rrg = tracer.time("rrg", Some(replay), request, || RoutingGraph::build(&arch));
            n.rrg_builds += 1;
            let routing = Router::new(&rrg, router).route(&tunable.route_nets(&rrg));
            if routing.success != (w >= min) {
                return Err(format!(
                    "{}: replay of width {w} disagrees with the search (min {min})",
                    job.name
                ));
            }
            n.width_iterations += routing.iterations;
            if !routing.success {
                n.width_iterations_failed += routing.iterations;
            }
        }
        tracer.close(replay);
    }
    Ok(parity)
}

/// Engine-layer measurements (`Job::compile`/`fingerprint`,
/// `Engine::execute_job`, `JobResult::to_json_line`, `CacheStats`,
/// cache-hit `StageTiming`s).
#[derive(Debug, Default)]
pub struct EngineLayer {
    /// `Job::compile` + `Job::fingerprint` time.
    pub compile_ms: f64,
    /// Execution time the engine reports per job (`JobResult::duration`).
    pub execute_ms: f64,
    /// `JobResult::to_json_line` time.
    pub jsonl_ms: f64,
    /// Stage nodes served from the cache.
    pub hits: u64,
    /// Stage nodes recomputed.
    pub misses: u64,
    /// Stage-cache writes.
    pub writes: u64,
    /// Corrupt (quarantined) cache entries.
    pub corrupt: u64,
    /// Time of stage nodes served from the cache.
    pub hit_node_ms: f64,
}

impl EngineLayer {
    /// Times `Job::compile` and `Job::fingerprint` of `jobs`.
    pub fn time_compile(&mut self, jobs: &[Job]) {
        let t = Instant::now();
        for job in jobs {
            std::hint::black_box(job.compile().is_ok());
            std::hint::black_box(job.fingerprint());
        }
        self.compile_ms += t.elapsed().as_secs_f64() * 1e3;
    }

    /// Folds in executed results: their durations, cache-hit stage
    /// times, and the time to render each record.
    pub fn add_results(&mut self, results: &[mm_engine::JobResult]) {
        for r in results {
            self.execute_ms += r.duration.as_secs_f64() * 1e3;
            self.hit_node_ms += r
                .stages
                .iter()
                .filter(|s| s.cache == mm_flow::stage::CacheOutcome::Hit)
                .map(|s| s.duration.as_secs_f64() * 1e3)
                .sum::<f64>();
            let t = Instant::now();
            std::hint::black_box(r.to_json_line());
            self.jsonl_ms += t.elapsed().as_secs_f64() * 1e3;
        }
    }

    /// Adds a batch's cache counters: stage nodes served from the cache
    /// (disk or the in-memory memo) and recomputed, from its
    /// `EngineStats`; entries written and quarantined, from its
    /// `CacheStats`.
    pub fn add_cache(&mut self, stats: &mm_engine::EngineStats, cache: mm_engine::CacheStats) {
        self.hits += stats.stages_from_cache as u64;
        self.misses += stats.stages_recomputed as u64;
        self.writes += cache.writes;
        self.corrupt += cache.corrupt;
    }
}

/// Serve-layer measurements.
#[derive(Debug, Default)]
pub struct ServeLayer {
    /// Median socket round trip minus median in-process execution of
    /// the same batch.
    pub overhead_ms: f64,
    /// Busy-frame or reconnect retries.
    pub busy_retries: u64,
    /// Highest shard queue depth any summary frame reported.
    pub queue_peak: usize,
    /// Tail batch latency of the untraced loop (p99 when it has ten
    /// samples beyond it; see `report::tail_quantile`).
    pub batch_ms_p99: f64,
}

/// Every per-layer metric of one traced run.
#[derive(Debug, Default)]
pub struct LayerReport {
    /// Flow-layer counters.
    pub counters: Counters,
    /// Engine layer.
    pub engine: EngineLayer,
    /// Serve layer.
    pub serve: ServeLayer,
    /// Suite generation time.
    pub gen_ms: f64,
    /// Traced wall time over untraced wall time.
    pub overhead_ratio: f64,
}

impl LayerReport {
    /// Emits every per-layer metric (zero where the workload does not
    /// exercise a layer), in `BENCHMARK.json` order.
    pub fn emit(&self, tracer: &Tracer, out: &mut Metrics) {
        let c = &self.counters;
        let job_ms = tracer.total_ms("job", None);
        let ms = |name: &str| tracer.total_ms(name, Some("job"));
        let share = |ms: f64| if job_ms > 0.0 { ms / job_ms } else { 0.0 };
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let (place, width, route, tunable, config) = (
            ms("place"),
            ms("width"),
            ms("route"),
            ms("tunable"),
            ms("config"),
        );

        out.push("place.ms", place, "ms");
        out.push("place.share", share(place), "ratio");
        out.push("place.moves", c.place_moves as f64, "count");
        out.push("place.temperatures", c.place_temperatures as f64, "count");
        out.push(
            "place.moves_per_s",
            ratio(c.place_moves as f64, place / 1e3),
            "1/s",
        );
        out.push("rrg.builds", c.rrg_builds as f64, "count");
        out.push("rrg.ms", tracer.total_ms("rrg", None), "ms");
        out.push("width.ms", width, "ms");
        out.push("width.share", share(width), "ratio");
        out.push("width.probes", c.probes as f64, "count");
        out.push("width.probes_failed", c.probes_failed as f64, "count");
        out.push(
            "width.failed_ms",
            tracer.total_ms("probe_failed", Some("width")),
            "ms",
        );
        out.push(
            "width.ok_ratio",
            ratio((c.probes - c.probes_failed) as f64, c.probes as f64),
            "ratio",
        );
        out.push("width.iterations", c.width_iterations as f64, "count");
        out.push(
            "width.iterations_failed",
            c.width_iterations_failed as f64,
            "count",
        );
        out.push("route.ms", route, "ms");
        out.push("route.share", share(route), "ratio");
        out.push("route.iterations", c.route_iterations as f64, "count");
        out.push("route.growth_retries", c.growth_retries as f64, "count");
        out.push("tunable.ms", tunable, "ms");
        out.push("tunable.share", share(tunable), "ratio");
        out.push("config.ms", config, "ms");
        out.push("config.share", share(config), "ratio");
        out.push("sta.ms", ms("sta"), "ms");
        out.push("sta.calls", c.sta_calls as f64, "count");
        out.push(
            "trace.coverage",
            share(place + width + route + tunable + config),
            "ratio",
        );

        let e = &self.engine;
        out.push("engine.compile_ms", e.compile_ms, "ms");
        out.push("engine.execute_ms", e.execute_ms, "ms");
        out.push("engine.jsonl_ms", e.jsonl_ms, "ms");
        out.push("cache.hits", e.hits as f64, "count");
        out.push("cache.misses", e.misses as f64, "count");
        out.push("cache.writes", e.writes as f64, "count");
        out.push("cache.corrupt", e.corrupt as f64, "count");
        out.push(
            "cache.hit_ratio",
            ratio(e.hits as f64, (e.hits + e.misses) as f64),
            "ratio",
        );
        out.push("cache.hit_node_ms", e.hit_node_ms, "ms");

        out.push("serve.overhead_ms", self.serve.overhead_ms, "ms");
        out.push(
            "serve.busy_retries",
            self.serve.busy_retries as f64,
            "count",
        );
        out.push("serve.queue_peak", self.serve.queue_peak as f64, "count");
        out.push("serve.batch_ms_p99", self.serve.batch_ms_p99, "ms");
        out.push("gen.ms", self.gen_ms, "ms");
        out.push("trace.overhead_ratio", self.overhead_ratio, "ratio");
    }
}
