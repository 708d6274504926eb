//! Set-up: generate the suites, write them as BLIF plus a JSON spec, and
//! build the engine's jobs from that spec; and the expected records the
//! outputs are checked against.

use crate::plan::{JobSpec, Suite, Workload, K};
use mm_engine::json::{self, ObjBuilder, Value};
use mm_engine::Job;
use mm_flow::FlowOptions;
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The generated inputs of one set-up.
pub struct Inputs {
    /// Where the BLIF files and spec files live.
    pub dir: PathBuf,
    /// Time spent in the suite generators.
    pub gen_ms: f64,
    /// The engine jobs, in draw order, built from `spec`.
    pub jobs: Vec<Job>,
    /// One spec-file entry per job.
    entries: Vec<Value>,
}

impl Inputs {
    /// Generates every suite the jobs use, writes `dir/<suite>/*.blif`
    /// and `dir/jobs.json`, and loads the jobs back through
    /// [`mm_engine::load_spec`] — the path `mmflow batch` takes.
    pub fn build(dir: &Path, specs: &[JobSpec]) -> Result<Self, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let t0 = Instant::now();
        let mut suites = BTreeMap::new();
        for spec in specs {
            suites
                .entry(spec.suite)
                .or_insert_with(|| spec.suite.generate());
        }
        let gen_ms = t0.elapsed().as_secs_f64() * 1e3;

        for (suite, circuits) in &suites {
            let sub = dir.join(suite.name());
            std::fs::create_dir_all(&sub).map_err(|e| format!("{}: {e}", sub.display()))?;
            for c in circuits {
                let path = sub.join(format!("{}.blif", c.name()));
                std::fs::write(&path, mm_netlist::blif::to_blif(c))
                    .map_err(|e| format!("{}: {e}", path.display()))?;
            }
        }
        let entries: Vec<Value> = specs
            .iter()
            .map(|s| entry(s, &suites[&s.suite], s.suite))
            .collect();
        let mut inputs = Self {
            dir: dir.to_path_buf(),
            gen_ms,
            jobs: Vec::new(),
            entries,
        };
        let all: Vec<usize> = (0..specs.len()).collect();
        let spec = inputs.write_spec("jobs.json", &all)?;
        inputs.jobs = load(&spec)?;
        for (job, s) in inputs.jobs.iter().zip(specs) {
            let want = s.name(&suites[&s.suite]);
            if job.name != want {
                return Err(format!("spec job '{}' loaded as '{want}'", job.name));
            }
        }
        Ok(inputs)
    }

    /// Writes a spec file holding the jobs at `indices` and returns its
    /// path.
    pub fn write_spec(&self, file: &str, indices: &[usize]) -> Result<PathBuf, String> {
        let doc = ObjBuilder::new()
            .field("k", K)
            .field(
                "jobs",
                Value::Arr(indices.iter().map(|&i| self.entries[i].clone()).collect()),
            )
            .build();
        let path = self.dir.join(file);
        std::fs::write(&path, doc.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(path)
    }
}

fn entry(spec: &JobSpec, circuits: &[mm_netlist::LutCircuit], suite: Suite) -> Value {
    let modes = spec
        .tuple
        .iter()
        .map(|&i| Value::Str(format!("{}/{}.blif", suite.name(), circuits[i].name())))
        .collect();
    let mut b = ObjBuilder::new()
        .field("name", spec.name(circuits))
        .field("modes", Value::Arr(modes))
        .field("flow", spec.flow)
        .field("seed", spec.seed as f64);
    if let Some(cost) = spec.cost {
        b = b.field("cost", cost);
    }
    if let Some(w) = spec.width {
        b = b.field("width", w);
    }
    b.build()
}

/// Loads a spec file into engine jobs.
pub fn load(spec: &Path) -> Result<Vec<Job>, String> {
    let path = spec.to_str().ok_or("spec path is not UTF-8")?;
    Ok(mm_engine::load_spec(path, &FlowOptions::default(), K)?.jobs)
}

/// The committed expected records of one workload, keyed by job name.
pub struct Expected {
    by_name: HashMap<String, String>,
}

impl Expected {
    /// The expected-records file of `workload` under `dir`.
    pub fn path(dir: &Path, workload: Workload) -> PathBuf {
        dir.join(format!("{}.jsonl", workload.name()))
    }

    /// Loads `dir/<workload>.jsonl`.
    pub fn load(dir: &Path, workload: Workload) -> Result<Self, String> {
        let path = Self::path(dir, workload);
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut by_name = HashMap::new();
        for line in text.lines().filter(|l| !l.is_empty()) {
            by_name.insert(record_name(line)?, line.to_string());
        }
        Ok(Self { by_name })
    }

    /// Checks one produced record against its expected bytes.
    pub fn check(&self, record: &str) -> Result<(), String> {
        self.check_named(&record_name(record)?, record)
    }

    /// [`Expected::check`] for a record whose job name is known, without
    /// parsing it.
    pub fn check_named(&self, name: &str, record: &str) -> Result<(), String> {
        match self.by_name.get(name) {
            Some(want) if want == record => Ok(()),
            Some(want) => Err(format!(
                "record mismatch for '{name}':\n  got  {record}\n  want {want}"
            )),
            None => Err(format!("no expected record for '{name}': {record}")),
        }
    }
}

/// The `name` member of a record line.
pub fn record_name(record: &str) -> Result<String, String> {
    json::parse(record)?
        .get("name")
        .and_then(Value::as_str)
        .map(ToString::to_string)
        .ok_or_else(|| format!("record without a name: {record}"))
}
