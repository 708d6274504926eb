//! The `serve-warm` workload: a real `mm-serve` server on a Unix socket
//! over a stage cache filled during set-up, driven by closed-loop client
//! connections that resubmit batches until the run's time is up. Every
//! job is a cache hit, so no flow work runs: the reactor, scheduler,
//! the engine's cache and memo reads and JSONL framing are measured.

use crate::inputs::{Expected, Inputs};
use crate::layers::{EngineLayer, LayerReport};
use crate::plan::{self, Scale, Workload};
use crate::report::{self, Metrics, Quality};
use crate::trace::Tracer;
use crate::{Outcome, Run};
use mm_engine::json::Value;
use mm_engine::protocol::BatchRequest;
use mm_engine::{Engine, EngineOptions};
use mm_serve::{Client, Listen, ServeOptions, ServeReport, Server, ServerHandle};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Set-ups per run, half before the measured loop and half after it, so
/// that they sample the host over the whole run; `setup_s` is their
/// median.
const SETUP_REPS: usize = 10;

/// Submission attempts per batch beyond the first (busy backoff).
const RETRIES: u32 = 8;

/// A server running on its own thread.
struct Running {
    listen: Listen,
    handle: ServerHandle,
    thread: JoinHandle<std::io::Result<ServeReport>>,
}

impl Running {
    fn start(socket: &Path, cache: &Path, workers: usize) -> Result<Self, String> {
        let listen = Listen::Unix(socket.to_path_buf());
        let server = Server::bind(
            &listen,
            &ServeOptions {
                threads: workers,
                cache_dir: Some(cache.to_path_buf()),
                ..ServeOptions::default()
            },
        )
        .map_err(|e| format!("bind {}: {e}", socket.display()))?;
        let handle = server.handle();
        let thread = std::thread::spawn(move || server.run());
        let running = Self {
            listen,
            handle,
            thread,
        };
        let ready = Client::connect(&running.listen).and_then(|mut c| c.ping());
        if let Err(e) = ready {
            let _ = running.stop();
            return Err(format!("server did not answer: {e}"));
        }
        Ok(running)
    }

    /// Drains the server and joins its thread.
    fn stop(self) -> Result<ServeReport, String> {
        self.handle.shutdown();
        self.thread
            .join()
            .map_err(|_| "server thread panicked".to_string())?
            .map_err(|e| format!("server: {e}"))
    }
}

/// One set-up: inputs, batch spec files, a warmed cache and a server.
struct Setup {
    inputs: Inputs,
    batches: Vec<(String, Vec<usize>)>,
    /// The warm-up's record per job name (batch-engine bytes).
    batch_records: HashMap<String, String>,
    cache: PathBuf,
    server: Running,
}

fn setup(
    dir: &Path,
    specs: &[plan::JobSpec],
    batch_size: usize,
    workers: usize,
    expected: &Expected,
) -> Result<(Setup, usize), String> {
    let inputs = Inputs::build(dir, specs)?;
    let n = specs.len();
    let mut batches = Vec::with_capacity(n);
    for b in 0..n {
        let members: Vec<usize> = (0..batch_size.min(n))
            .map(|i| (b * batch_size + i) % n)
            .collect();
        let path = inputs.write_spec(&format!("batch{b}.json"), &members)?;
        let abs = std::fs::canonicalize(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        batches.push((abs.to_string_lossy().into_owned(), members));
    }
    // Warm the cache through the batch engine; the server reads what it
    // wrote. One engine thread: with two, the warm-up's wall time would
    // depend on which jobs the seed's order runs side by side.
    let cache = dir.join("cache");
    let engine = Engine::new(EngineOptions {
        threads: 1,
        cache_dir: Some(cache.clone()),
        result_memo: 0,
    })
    .map_err(|e| format!("{}: {e}", cache.display()))?;
    let mut failed = 0;
    let mut batch_records = HashMap::new();
    for r in engine.run(inputs.jobs.clone()).results {
        let line = r.to_json_line();
        if let Err(e) = expected.check(&line) {
            eprintln!("warm-up: {e}");
            failed += 1;
        }
        batch_records.insert(r.name, line);
    }
    let server = Running::start(&dir.join("s.sock"), &cache, workers)?;
    Ok((
        Setup {
            inputs,
            batches,
            batch_records,
            cache,
            server,
        },
        failed,
    ))
}

/// What one client connection saw.
#[derive(Default)]
struct ClientLog {
    latencies_ms: Vec<f64>,
    jobs: usize,
    failed: usize,
    retries: u64,
    queue_peak: usize,
    cache: EngineLayer,
}

/// A closed loop: send a batch, wait for its summary frame, check its
/// records, send the next — until `deadline`.
fn client_loop(
    s: &Setup,
    expected: &Expected,
    first: usize,
    stride: usize,
    deadline: Instant,
    mut tracer: Option<&mut Tracer>,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut client = match Client::connect(&s.server.listen) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("client {first}: {e}");
            log.failed += 1;
            log.jobs += 1;
            return log;
        }
    };
    let mut b = first;
    while Instant::now() < deadline {
        let (spec, members) = &s.batches[b % s.batches.len()];
        b += stride;
        let request = BatchRequest::new(spec.as_str());
        let mut records: Vec<String> = Vec::with_capacity(members.len());
        let start = Instant::now();
        let outcome = client.submit_with_retries(&request, RETRIES, |r| {
            records.push(r.to_string());
            Ok(())
        });
        let end = Instant::now();
        log.jobs += members.len();
        let summary = match outcome {
            Ok(Ok(o)) => o,
            Ok(Err(rejection)) => {
                eprintln!("batch refused: {rejection}");
                log.failed += members.len();
                continue;
            }
            Err(e) => {
                eprintln!("batch failed: {e}");
                log.failed += members.len();
                break;
            }
        };
        if let Some(t) = tracer.as_deref_mut() {
            t.record("serve.batch", None, b, start, end);
        }
        log.latencies_ms.push((end - start).as_secs_f64() * 1e3);
        log.retries += u64::from(summary.retries);
        log.queue_peak = log.queue_peak.max(queue_peak(&summary.summary));
        add_cache(&mut log.cache, &summary.summary);
        let mut bad = members.len().saturating_sub(records.len());
        for (record, &j) in records.iter().zip(members) {
            let name = &s.inputs.jobs[j].name;
            let same_as_batch = s.batch_records.get(name) == Some(record);
            match expected.check_named(name, record) {
                Ok(()) if same_as_batch => {}
                Ok(()) => {
                    eprintln!("serve record for '{name}' differs from the batch record");
                    bad += 1;
                }
                Err(e) => {
                    eprintln!("{e}");
                    bad += 1;
                }
            }
        }
        log.failed += bad.min(members.len());
    }
    log
}

fn queue_peak(summary: &Value) -> usize {
    summary
        .get("shards")
        .and_then(Value::as_arr)
        .map_or(0, |shards| {
            shards
                .iter()
                .filter_map(|s| s.get("peak_queued").and_then(Value::as_usize))
                .max()
                .unwrap_or(0)
        })
}

/// Adds a summary frame's cache counters, with the meaning
/// [`crate::layers::EngineLayer::add_cache`] gives them.
fn add_cache(total: &mut EngineLayer, summary: &Value) {
    let get = |k: &str| {
        summary
            .get("cache")
            .and_then(|c| c.get(k))
            .and_then(Value::as_u64)
            .unwrap_or(0)
    };
    total.hits += get("stages_from_cache");
    total.misses += get("stages_recomputed");
    total.writes += get("writes");
    total.corrupt += get("quarantined");
}

/// Drives `connections` closed loops for `length`.
fn drive(
    s: &Setup,
    expected: &Expected,
    connections: usize,
    length: Duration,
    traced: bool,
) -> (Vec<ClientLog>, f64, Tracer) {
    let deadline = Instant::now() + length;
    let start = Instant::now();
    let mut tracers: Vec<Tracer> = (0..connections).map(|_| Tracer::new()).collect();
    let logs = std::thread::scope(|scope| {
        let handles: Vec<_> = tracers
            .iter_mut()
            .enumerate()
            .map(|(c, t)| {
                let t = traced.then_some(t);
                scope.spawn(move || client_loop(s, expected, c, connections, deadline, t))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    let wall = start.elapsed().as_secs_f64();
    let mut tracer = tracers.swap_remove(0);
    for other in tracers {
        tracer.absorb(other);
    }
    (logs, wall, tracer)
}

/// Jobs the set-ups' warm-ups ran, and how many of them failed.
#[derive(Clone, Copy, Default)]
struct Warmup {
    jobs: usize,
    failed: usize,
}

/// Sets up `reps` times, appending each set-up's wall time to `times`
/// and its warm-up to `warm`, and returns the last set-up with its
/// server still running.
#[allow(clippy::too_many_arguments)]
fn set_ups(
    run: &Run,
    specs: &[plan::JobSpec],
    batch_size: usize,
    workers: usize,
    expected: &Expected,
    reps: usize,
    times: &mut Vec<f64>,
    warm: &mut Warmup,
) -> Result<Setup, String> {
    let mut current: Option<Setup> = None;
    for _ in 0..reps {
        if let Some(old) = current.take() {
            old.server.stop()?;
            let _ = std::fs::remove_dir_all(&old.inputs.dir);
        }
        let dir = run.work.join(format!("setup{}", times.len()));
        let t = Instant::now();
        let (s, failed) = setup(&dir, specs, batch_size, workers, expected)?;
        times.push(t.elapsed().as_secs_f64());
        warm.jobs += s.inputs.jobs.len();
        warm.failed += failed;
        current = Some(s);
    }
    current.ok_or_else(|| "no set-up".to_string())
}

/// Runs `serve-warm`.
pub fn run(run: &Run, workload: Workload) -> Result<Outcome, String> {
    let specs = plan::draw(workload, run.seed, run.scale);
    let expected = Expected::load(&run.expected, workload)?;
    let batch_size = if run.scale == Scale::Full { 4 } else { 2 };
    let reps = if run.trace || run.scale == Scale::Tiny {
        1
    } else {
        SETUP_REPS / 2
    };
    let workers = workload.threads();
    let mut setup_s = Vec::with_capacity(2 * reps);
    let mut warm = Warmup::default();
    let s = set_ups(
        run,
        &specs,
        batch_size,
        workers,
        &expected,
        reps,
        &mut setup_s,
        &mut warm,
    )?;
    if run.trace {
        let result = traced(run, workload, &s, &expected, warm);
        let stopped = s.server.stop();
        let outcome = result?;
        stopped?;
        return Ok(outcome);
    }

    let (logs, wall, _) = drive(&s, &expected, workload.connections(), run.seconds, false);
    let mut quality = Quality::default();
    for job in &s.inputs.jobs {
        quality.add(&s.batch_records[&job.name]);
    }
    s.server.stop()?;
    let _ = std::fs::remove_dir_all(&s.inputs.dir);
    if run.scale == Scale::Full {
        let last = set_ups(
            run,
            &specs,
            batch_size,
            workers,
            &expected,
            reps,
            &mut setup_s,
            &mut warm,
        )?;
        last.server.stop()?;
        let _ = std::fs::remove_dir_all(&last.inputs.dir);
    }
    Ok(untraced(
        workload,
        &logs,
        wall,
        s.batches[0].1.len(),
        warm,
        &setup_s,
        &quality,
    ))
}

/// The end-to-end metrics of an untraced run. `ok_rate` counts the
/// warm-ups' jobs and failures with the clients'.
fn untraced(
    workload: Workload,
    logs: &[ClientLog],
    wall: f64,
    batch_jobs: usize,
    warm: Warmup,
    setup_s: &[f64],
    quality: &Quality,
) -> Outcome {
    let latencies: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.latencies_ms.iter().copied())
        .collect();
    let served: usize = logs.iter().map(|l| l.jobs).sum();
    let served_failed: usize = logs.iter().map(|l| l.failed).sum();
    let attempted = served + warm.jobs;
    let failed = served_failed + warm.failed;
    let fail_rate = failed as f64 / attempted.max(1) as f64;
    let (q, tail_ms) = report::tail(&latencies);
    eprintln!(
        "{}: {} batches of {batch_jobs} jobs on {} connections, fail_rate {fail_rate:.4}, batch_ms p{} {tail_ms:.3} over {} samples",
        workload.name(),
        latencies.len(),
        workload.connections(),
        q * 100.0,
        latencies.len()
    );
    report::print_setup(setup_s);
    let mut m = Metrics::default();
    m.push(
        "jobs_per_s",
        (served - served_failed) as f64 / wall,
        "jobs/s",
    );
    m.push("batch_ms_p50", report::median(&latencies), "ms");
    m.push("ok_rate", 1.0 - fail_rate, "ratio");
    m.push("setup_s", report::median(setup_s), "s");
    m.push("peak_rss_mb", report::peak_rss_mb(), "MiB");
    quality.emit(&mut m);
    Outcome {
        metrics: m,
        attempted: attempted.max(1),
        failed,
    }
}

/// The traced run: half the time untraced, half with a span per batch;
/// then every distinct batch executed in process on an engine over the
/// same warm cache, for the engine-layer numbers and the transport
/// overhead (socket round trip minus in-process execution).
fn traced(
    run: &Run,
    workload: Workload,
    s: &Setup,
    expected: &Expected,
    warm: Warmup,
) -> Result<Outcome, String> {
    let half = run.seconds / 2;
    let conns = workload.connections();
    let (plain, _, _) = drive(s, expected, conns, half, false);
    let (logs, _, mut tracer) = drive(s, expected, conns, half, true);
    let med = |logs: &[ClientLog]| {
        let all: Vec<f64> = logs
            .iter()
            .flat_map(|l| l.latencies_ms.iter().copied())
            .collect();
        report::median(&all)
    };

    let mut layers = LayerReport {
        gen_ms: s.inputs.gen_ms,
        ..LayerReport::default()
    };
    layers.overhead_ratio = med(&logs) / med(&plain);
    let untraced: Vec<f64> = plain
        .iter()
        .flat_map(|l| l.latencies_ms.iter().copied())
        .collect();
    layers.serve.batch_ms_p99 = report::tail(&untraced).1;
    for l in &logs {
        layers.serve.busy_retries += l.retries;
        layers.serve.queue_peak = layers.serve.queue_peak.max(l.queue_peak);
        layers.engine.hits += l.cache.hits;
        layers.engine.misses += l.cache.misses;
        layers.engine.writes += l.cache.writes;
        layers.engine.corrupt += l.cache.corrupt;
    }

    // In process: the same engine configuration the server uses.
    let engine = Engine::new(EngineOptions {
        threads: workload.threads(),
        cache_dir: Some(s.cache.clone()),
        result_memo: 4096,
    })
    .map_err(|e| format!("{}: {e}", s.cache.display()))?;
    let batch_jobs = |members: &[usize]| -> Vec<mm_engine::Job> {
        members.iter().map(|&j| s.inputs.jobs[j].clone()).collect()
    };
    let mut failed = warm.failed;
    // One pass fills the memo, as the server's did during the loops.
    for (_, members) in &s.batches {
        let results = engine.run(batch_jobs(members)).results;
        layers.engine.add_results(&results);
        for r in &results {
            if s.batch_records.get(&r.name) != Some(&r.to_json_line()) {
                eprintln!(
                    "in-process record for '{}' differs from the batch record",
                    r.name
                );
                failed += 1;
            }
        }
    }
    layers.engine.time_compile(&s.inputs.jobs);
    let mut inproc = Vec::new();
    for (b, (_, members)) in s
        .batches
        .iter()
        .cycle()
        .take(8 * s.batches.len())
        .enumerate()
    {
        let jobs = batch_jobs(members);
        let start = Instant::now();
        std::hint::black_box(engine.run(jobs));
        tracer.record("engine.batch", None, b, start, Instant::now());
        inproc.push(start.elapsed().as_secs_f64() * 1e3);
    }
    layers.serve.overhead_ms = med(&logs) - report::median(&inproc);

    let path = run.trace_path(workload);
    tracer
        .write(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!(
        "{}: {} spans written to {}",
        workload.name(),
        tracer.spans().len(),
        path.display()
    );
    let mut m = Metrics::default();
    layers.emit(&tracer, &mut m);
    let attempted = warm.jobs + plain.iter().chain(&logs).map(|l| l.jobs).sum::<usize>();
    failed += plain.iter().chain(&logs).map(|l| l.failed).sum::<usize>();
    Ok(Outcome {
        metrics: m,
        attempted: attempted.max(1),
        failed,
    })
}
