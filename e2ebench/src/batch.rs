//! The batch workloads (`paper-relaxed`, `paper-fixed`): the drawn job
//! set runs through `mm_engine::Engine` on an empty stage cache, round
//! after round, for as many rounds as bring the measured time nearest
//! the run's length.

use crate::inputs::{Expected, Inputs};
use crate::layers::{decompose, LayerReport, Parity};
use crate::plan::{self, JobSpec, Scale, Workload};
use crate::report::{self, Metrics, Quality};
use crate::trace::Tracer;
use crate::{Outcome, Run};
use mm_engine::{BatchReport, Engine, EngineOptions, Job, JobResult};
use std::path::Path;
use std::time::{Duration, Instant};

/// Set-ups per run, half before the measured rounds and half after, so
/// that they sample the host over the whole run; `setup_s` is their
/// median.
const SETUP_REPS: usize = 20;

/// Builds the inputs `reps` times, appending each build's wall time to
/// `times`, and returns the last build.
fn set_up(
    run: &Run,
    specs: &[JobSpec],
    reps: usize,
    times: &mut Vec<f64>,
) -> Result<Inputs, String> {
    let mut inputs: Option<Inputs> = None;
    for _ in 0..reps {
        let dir = run.work.join(format!("setup{}", times.len()));
        let t = Instant::now();
        let built = Inputs::build(&dir, specs)?;
        times.push(t.elapsed().as_secs_f64());
        if let Some(old) = inputs.replace(built) {
            let _ = std::fs::remove_dir_all(&old.dir);
        }
    }
    inputs.ok_or_else(|| "no set-up".to_string())
}

/// One cold round: a fresh engine on an empty cache directory runs every
/// job. Returns the engine's report and the batch's wall time.
fn round(
    workload: Workload,
    jobs: &[Job],
    cache: &Path,
) -> Result<(BatchReport, Duration), String> {
    // A cache directory left by an interrupted run must not warm this one.
    let _ = std::fs::remove_dir_all(cache);
    let engine = Engine::new(EngineOptions {
        threads: workload.threads(),
        cache_dir: Some(cache.to_path_buf()),
        result_memo: 0,
    })
    .map_err(|e| format!("{}: {e}", cache.display()))?;
    let jobs = jobs.to_vec();
    let t = Instant::now();
    let report = engine.run_streamed(jobs, |_| {});
    let wall = t.elapsed();
    let _ = std::fs::remove_dir_all(cache);
    Ok((report, wall))
}

/// Checks every record of a round; returns the record lines and, per
/// job, whether it failed (error outcome or byte mismatch).
fn check(results: &[JobResult], expected: &Expected) -> (Vec<String>, Vec<bool>) {
    let lines: Vec<String> = results.iter().map(JobResult::to_json_line).collect();
    let bad = results
        .iter()
        .zip(&lines)
        .map(|(r, line)| {
            let verdict = match &r.outcome {
                Err(e) => Err(format!(
                    "job {} failed in {}: {}",
                    r.name, e.stage, e.message
                )),
                Ok(_) => expected.check(line),
            };
            verdict.map_err(|e| eprintln!("{e}")).is_err()
        })
        .collect();
    (lines, bad)
}

/// Runs a batch workload.
pub fn run(run: &Run, workload: Workload) -> Result<Outcome, String> {
    let specs = plan::draw(workload, run.seed, run.scale);
    let expected = Expected::load(&run.expected, workload)?;
    let reps = if run.trace || run.scale == Scale::Tiny {
        1
    } else {
        SETUP_REPS / 2
    };
    let mut setup_s = Vec::with_capacity(2 * reps);
    let inputs = set_up(run, &specs, reps, &mut setup_s)?;
    let cache = run.work.join("cache");

    if run.trace {
        return traced(run, workload, &inputs, &expected, &cache);
    }

    let mut walls = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let mut quality = Quality::default();
    let start = Instant::now();
    loop {
        let (BatchReport { results, .. }, wall) = round(workload, &inputs.jobs, &cache)?;
        let (lines, bad) = check(&results, &expected);
        if walls.is_empty() {
            lines.iter().for_each(|l| quality.add(l));
            for r in &results {
                eprintln!("job {} {:.1} ms", r.name, r.duration.as_secs_f64() * 1e3);
            }
        }
        attempted += results.len();
        failed += bad.iter().filter(|&&b| b).count();
        walls.push(wall.as_secs_f64());
        // Another round only if it ends nearer the run's length than
        // stopping now does.
        if start.elapsed() + wall / 2 >= run.seconds {
            break;
        }
    }
    if run.scale == Scale::Full {
        let _ = std::fs::remove_dir_all(&inputs.dir);
        let last = set_up(run, &specs, reps, &mut setup_s)?;
        let _ = std::fs::remove_dir_all(&last.dir);
    }

    let batch_ms: Vec<f64> = walls.iter().map(|w| w * 1e3).collect();
    eprintln!(
        "{}: {} rounds of {} jobs, fail_rate {:.4}",
        workload.name(),
        walls.len(),
        inputs.jobs.len(),
        failed as f64 / attempted as f64,
    );
    report::print_setup(&setup_s);
    let mut m = Metrics::default();
    m.push(
        "jobs_per_s",
        attempted as f64 / walls.iter().sum::<f64>(),
        "jobs/s",
    );
    m.push("batch_ms_p50", report::median(&batch_ms), "ms");
    m.push("ok_rate", 1.0 - failed as f64 / attempted as f64, "ratio");
    m.push("setup_s", report::median(&setup_s), "s");
    m.push("peak_rss_mb", report::peak_rss_mb(), "MiB");
    quality.emit(&mut m);
    Ok(Outcome {
        metrics: m,
        attempted,
        failed,
    })
}

/// The traced run: one untraced round through the engine, then the same
/// jobs decomposed layer by layer; each decomposition must reproduce its
/// record's width, parameterized bits, MDR bits and wires.
fn traced(
    run: &Run,
    workload: Workload,
    inputs: &Inputs,
    expected: &Expected,
    cache: &Path,
) -> Result<Outcome, String> {
    let mut layers = LayerReport {
        gen_ms: inputs.gen_ms,
        ..LayerReport::default()
    };
    let (report, untraced) = round(workload, &inputs.jobs, cache)?;
    let results = report.results;
    let (lines, mut bad) = check(&results, expected);
    layers.engine.add_results(&results);
    layers.engine.add_cache(&report.stats, report.cache);
    layers.engine.time_compile(&inputs.jobs);

    let mut tracer = Tracer::new();
    let t = Instant::now();
    for (i, (job, line)) in inputs.jobs.iter().zip(&lines).enumerate() {
        let parity = decompose(job, i, &mut tracer, &mut layers.counters);
        match (parity, Parity::from_record(line)) {
            (Ok(got), Some(want)) if got == want => {}
            (Ok(got), want) => {
                eprintln!(
                    "{}: traced layers disagree with the record: {got:?} vs {want:?}",
                    job.name
                );
                bad[i] = true;
            }
            (Err(e), _) => {
                eprintln!("{}: traced run failed: {e}", job.name);
                bad[i] = true;
            }
        }
    }
    layers.overhead_ratio = t.elapsed().as_secs_f64() / untraced.as_secs_f64();
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
    Ok(Outcome {
        metrics: m,
        attempted: results.len(),
        failed: bad.iter().filter(|&&b| b).count(),
    })
}
