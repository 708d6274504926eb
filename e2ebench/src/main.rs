//! End-to-end and per-layer benchmark of `mmflow` on the paper's
//! generated suites (see `README.md` next to this crate).
//!
//! ```text
//! mm-e2ebench --workload <paper-relaxed|paper-fixed|serve-warm> --seed N
//!             --seconds S --trace <0|1>
//! mm-e2ebench --write-expected [--workload W]
//! mm-e2ebench --list-jobs --workload W --seed N
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (end-to-end metrics untraced,
//! per-layer metrics traced). Any failed job or record that differs
//! from its expected bytes makes the run exit 1.

mod batch;
mod inputs;
mod layers;
mod plan;
mod report;
mod serve;
mod trace;

use plan::{Scale, Workload};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// One benchmark invocation.
pub struct Run {
    /// The workload seed.
    pub seed: u64,
    /// How long the run measures.
    pub seconds: Duration,
    /// Traced (per-layer) run.
    pub trace: bool,
    /// Job-set size.
    pub scale: Scale,
    /// Scratch directory, removed at exit.
    pub work: PathBuf,
    /// Directory of the expected records.
    pub expected: PathBuf,
    /// Directory the span files go to.
    pub trace_dir: PathBuf,
}

impl Run {
    /// Where a traced run writes its spans.
    pub fn trace_path(&self, workload: Workload) -> PathBuf {
        self.trace_dir
            .join(format!("{}-seed{}.jsonl", workload.name(), self.seed))
    }
}

/// What a workload run produced.
pub struct Outcome {
    /// The metrics to print.
    pub metrics: report::Metrics,
    /// Jobs attempted.
    pub attempted: usize,
    /// Jobs failed, refused or byte-mismatched.
    pub failed: usize,
}

const USAGE: &str = "usage: mm-e2ebench --workload <paper-relaxed|paper-fixed|serve-warm> \
--seed N --seconds S --trace <0|1> [--scale full|tiny] [--expected DIR] [--work-dir DIR] \
[--trace-dir DIR]\n       mm-e2ebench --write-expected [--workload W] [--expected DIR]\n       \
mm-e2ebench --list-jobs --workload W --seed N [--scale full|tiny]";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    scale: Scale,
    expected: PathBuf,
    work: Option<PathBuf>,
    trace_dir: PathBuf,
    write_expected: bool,
    list_jobs: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 10,
        trace: false,
        scale: Scale::Full,
        expected: default_expected(),
        work: None,
        trace_dir: PathBuf::from(".bench_trace"),
        write_expected: false,
        list_jobs: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                a.workload = Some(Workload::parse(&v).ok_or(format!("unknown workload '{v}'"))?);
            }
            "--seed" => a.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => a.seconds = value()?.parse().map_err(|_| "bad --seconds")?,
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace '{other}' (0|1)")),
                }
            }
            "--scale" => {
                a.scale = match value()?.as_str() {
                    "full" => Scale::Full,
                    "tiny" => Scale::Tiny,
                    other => return Err(format!("bad --scale '{other}' (full|tiny)")),
                }
            }
            "--expected" => a.expected = value()?.into(),
            "--work-dir" => a.work = Some(value()?.into()),
            "--trace-dir" => a.trace_dir = value()?.into(),
            "--write-expected" => a.write_expected = true,
            "--list-jobs" => a.list_jobs = true,
            "-h" | "--help" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

fn real_main() -> Result<ExitCode, String> {
    let args = parse_args()?;
    if args.write_expected {
        let workloads = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
        for w in workloads {
            write_expected(w, &args.expected)?;
        }
        return Ok(ExitCode::SUCCESS);
    }
    let workload = args
        .workload
        .ok_or(format!("--workload is required\n{USAGE}"))?;
    if args.list_jobs {
        let inputs_dir = scratch_dir(args.work.as_ref())?;
        let built =
            inputs::Inputs::build(&inputs_dir, &plan::draw(workload, args.seed, args.scale));
        let _ = std::fs::remove_dir_all(&inputs_dir);
        for job in built?.jobs {
            println!("{}", job.name);
        }
        return Ok(ExitCode::SUCCESS);
    }
    let run = Run {
        seed: args.seed,
        seconds: Duration::from_secs(args.seconds.max(1)),
        trace: args.trace,
        scale: args.scale,
        work: scratch_dir(args.work.as_ref())?,
        expected: args.expected,
        trace_dir: args.trace_dir,
    };
    let result = match workload {
        Workload::PaperRelaxed | Workload::PaperFixed => batch::run(&run, workload),
        Workload::ServeWarm => serve::run(&run, workload),
    };
    let _ = std::fs::remove_dir_all(&run.work);
    let outcome = result?;
    let correct = outcome.failed == 0;
    println!(
        "{}",
        outcome
            .metrics
            .result_line(correct, outcome.attempted, outcome.failed)
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `e2ebench/expected` under the current directory (the repository
/// root the benchmark is run from), else next to this crate's manifest.
fn default_expected() -> PathBuf {
    let here = PathBuf::from("e2ebench/expected");
    if here.is_dir() {
        here
    } else {
        PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/expected"))
    }
}

/// A fresh per-process scratch directory under `base` (default
/// `.bench_work` in the current directory).
fn scratch_dir(base: Option<&PathBuf>) -> Result<PathBuf, String> {
    let base = base
        .cloned()
        .unwrap_or_else(|| PathBuf::from(".bench_work"));
    let dir = base.join(format!("run-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// Runs every pool job of `workload` through the engine (no cache) and
/// writes the records, sorted by name, as its expected file.
fn write_expected(workload: Workload, dir: &std::path::Path) -> Result<(), String> {
    let work = scratch_dir(None)?;
    let pool = plan::pool(workload);
    let built = inputs::Inputs::build(&work, &pool);
    let _ = std::fs::remove_dir_all(&work);
    let jobs = built?.jobs;
    eprintln!("{}: running {} pool jobs", workload.name(), jobs.len());
    let engine =
        mm_engine::Engine::new(mm_engine::EngineOptions::default()).map_err(|e| e.to_string())?;
    let mut lines = Vec::with_capacity(jobs.len());
    let mut failed = Vec::new();
    for r in engine.run(jobs).results {
        match &r.outcome {
            Ok(_) => lines.push(r.to_json_line()),
            Err(e) => failed.push(format!("{} ({}: {})", r.name, e.stage, e.message)),
        }
    }
    if !failed.is_empty() {
        return Err(format!(
            "{} pool jobs failed:\n  {}",
            failed.len(),
            failed.join("\n  ")
        ));
    }
    lines.sort();
    let path = inputs::Expected::path(dir, workload);
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    std::fs::write(&path, lines.join("\n") + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("wrote {} records to {}", lines.len(), path.display());
    Ok(())
}
