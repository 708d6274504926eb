//! The batch engine: a generic stage-plan executor with fan-out,
//! caching, streaming and summary.
//!
//! # Execution model
//!
//! [`Engine::run_streamed`] fans the jobs of a batch out across the
//! work-stealing pool ([`crate::pool`]) and emits every [`JobResult`] —
//! in job order, through a reorder buffer — as soon as it and all its
//! predecessors are done. Each job is independent and seeded, so:
//!
//! * with `threads == 1` the batch runs strictly sequentially;
//! * with any thread count the emitted result records are **byte
//!   identical** to the sequential run (verified by the integration
//!   tests — this is the engine's determinism contract).
//!
//! Each job [compiles](Job::compile) to a typed
//! [`StagePlan`](mm_flow::stage::StagePlan) — annealing nodes fanning
//! into summary nodes, which a `combined` plan joins in a pure `combine`
//! root — and runs through the plan
//! executor, which schedules ready nodes onto the pool (within the
//! job's intra-parallelism budget) and records per-node wall clock and
//! cache outcome. There is no per-flavor execution code here: `dcs`,
//! `mdr` and `pair`/`combined` differ only in the plan they compile to.
//! Every job runs through [`Engine::execute_plan`]; a caller that
//! already compiled the job (the serve admission path, which derives
//! the scheduling fingerprint from the plan) hands the plan over
//! instead of compiling twice.
//!
//! # Stage caching
//!
//! With a cache configured, the engine's [`PlanHooks`] key every node by
//! SHA-256 over its structural fingerprint — stage name, stage params,
//! the canonical input BLIFs and the fingerprints of its dependencies,
//! composed recursively. Two namespaces fall out of the artifact kind:
//!
//! * `result` — summaries and combine roots. A root hit skips the
//!   whole plan; a summary hit skips its routing and everything only it
//!   demanded.
//! * `placement` — the expensive annealing legs. A hit skips annealing
//!   and re-runs only routing/extraction. Placement fingerprints
//!   exclude router options, so jobs differing only in routing
//!   configuration share annealing work.
//!
//! Because the placement and summary nodes of a `pair` job carry **the
//! same** fingerprints as plain `mdr`/`dcs` jobs on the same mode list
//! (labels are display only), placements and routed summaries flow
//! freely between combined jobs and plain jobs in either direction —
//! sharing is structural, not special-cased. Failures are never cached.

use crate::cache::{CacheStats, StageCache};
use crate::hash::Sha256;
use crate::job::{
    self, multi_placement_from, placements_from, placements_value, BatchSpec, Job, JobCacheInfo,
    JobError, JobOutcome, JobResult,
};
use crate::json::{ObjBuilder, Value};
use mm_flow::pool;
use mm_flow::stage::{
    Artifact, ArtifactKind, CacheOutcome, Lookup, PlanHooks, PlanNode, StagePlan, StageTiming,
};
use mm_flow::{FlowError, FlowOptions};
use mm_netlist::{blif, LutCircuit};
use std::cell::Cell;
use std::collections::HashMap;
use std::hash::Hash;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Engine configuration.
#[derive(Debug, Clone, Default)]
pub struct EngineOptions {
    /// Worker threads; `0` means one per available CPU.
    pub threads: usize,
    /// Stage-cache root; `None` disables caching.
    pub cache_dir: Option<PathBuf>,
    /// In-memory memo capacity in entries (`0` disables both memos).
    /// The result memo keeps the most recent `result`-stage values keyed
    /// by the same content-addressed key as the disk cache, so a
    /// long-running service re-serving identical legs skips the file
    /// read *and* the JSON text parse on every warm hit. The parse memo
    /// of [`Engine::load_spec`] keeps as many parsed input BLIFs, keyed
    /// by their full bytes, and holds at most [`PARSE_MEMO_BYTES`] of
    /// source text. Purely an acceleration layer: records are
    /// byte-identical with the memos on or off.
    pub result_memo: usize,
}

/// Aggregated execution counters of one batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Jobs executed.
    pub jobs: usize,
    /// Jobs that produced a result.
    pub ok: usize,
    /// Jobs that failed.
    pub failed: usize,
    /// Jobs whose final result came from the cache.
    pub results_from_cache: usize,
    /// Jobs whose placement stage came from the cache.
    pub placements_from_cache: usize,
    /// Flow stages actually executed across the batch (0 on a fully warm
    /// cache — the "zero recomputation" acceptance check).
    pub stages_recomputed: usize,
    /// Plan nodes served from the cache across the batch — placements,
    /// summaries and roots alike (the node-level dual of
    /// `stages_recomputed`; a combined job whose root misses can still
    /// hit its three summary nodes).
    pub stages_from_cache: usize,
    /// Wall clock summed over every resolved plan node in the batch —
    /// the stage-level serial estimate (cache lookups included).
    pub stage_time: Duration,
    /// On-disk cache entries that failed validation during the batch and
    /// were quarantined (then transparently recomputed). Nonzero means
    /// the store was corrupted — and that the corruption never reached a
    /// record.
    pub quarantined: usize,
}

impl EngineStats {
    /// Aggregates the counters from finished results — every number in
    /// the summary is derived from the per-job [`JobCacheInfo`] records,
    /// so batch-level and per-job accounting can never disagree.
    #[must_use]
    pub fn from_results(results: &[JobResult]) -> Self {
        let ok = results.iter().filter(|r| r.outcome.is_ok()).count();
        let stage_timings = results.iter().flat_map(|r| &r.stages);
        Self {
            jobs: results.len(),
            ok,
            failed: results.len() - ok,
            results_from_cache: results.iter().filter(|r| r.cache.result_hit).count(),
            placements_from_cache: results.iter().filter(|r| r.cache.placement_hit).count(),
            stages_recomputed: results.iter().map(|r| r.cache.stages_recomputed).sum(),
            stages_from_cache: stage_timings
                .clone()
                .filter(|s| s.cache == CacheOutcome::Hit)
                .count(),
            stage_time: stage_timings.map(|s| s.duration).sum(),
            quarantined: results.iter().map(|r| r.cache.store.corrupt as usize).sum(),
        }
    }
}

/// The outcome of one batch.
#[derive(Debug)]
pub struct BatchReport {
    /// Per-job results, in job order.
    pub results: Vec<JobResult>,
    /// Aggregated counters.
    pub stats: EngineStats,
    /// Low-level cache counters (zeroes when caching is disabled).
    pub cache: CacheStats,
    /// Wall-clock time of the whole batch.
    pub wall: Duration,
    /// Worker threads used.
    pub threads: usize,
}

impl BatchReport {
    /// The report of a finished batch. Its stage-cache counters are the
    /// sum of the jobs' own ([`JobCacheInfo::store`]), so batches that
    /// share an engine never count each other's activity.
    #[must_use]
    pub fn from_results(results: Vec<JobResult>, wall: Duration, threads: usize) -> Self {
        Self {
            stats: EngineStats::from_results(&results),
            cache: results.iter().map(|r| r.cache.store).sum(),
            results,
            wall,
            threads,
        }
    }

    /// Sum of per-job execution times — what a strictly serial run would
    /// have cost (directly comparable to `wall` for the parallel
    /// speed-up).
    #[must_use]
    pub fn serial_estimate(&self) -> Duration {
        self.results.iter().map(|r| r.duration).sum()
    }

    /// The aggregated summary as one JSON line (this *does* contain
    /// timings and cache counters, unlike the per-job records).
    #[must_use]
    pub fn summary_json(&self) -> String {
        self.summary_value().to_json()
    }

    /// The summary as a JSON value — what the serve protocol embeds in
    /// its trailer frame.
    #[must_use]
    pub fn summary_value(&self) -> crate::json::Value {
        let serial = self.serial_estimate();
        let speedup = if self.wall.as_secs_f64() > 0.0 {
            serial.as_secs_f64() / self.wall.as_secs_f64()
        } else {
            1.0
        };
        ObjBuilder::new()
            .field("jobs", self.stats.jobs)
            .field("ok", self.stats.ok)
            .field("failed", self.stats.failed)
            .field("threads", self.threads)
            .field("wall_ms", self.wall.as_millis() as u64)
            .field("serial_estimate_ms", serial.as_millis() as u64)
            .field("stage_time_ms", self.stats.stage_time.as_millis() as u64)
            .field("parallel_speedup", (speedup * 100.0).round() / 100.0)
            .field(
                "cache",
                ObjBuilder::new()
                    .field("results_from_cache", self.stats.results_from_cache)
                    .field("placements_from_cache", self.stats.placements_from_cache)
                    .field("stages_recomputed", self.stats.stages_recomputed)
                    .field("stages_from_cache", self.stats.stages_from_cache)
                    .field("hits", self.cache.hits)
                    .field("misses", self.cache.misses)
                    .field("writes", self.cache.writes)
                    .field("quarantined", self.cache.corrupt)
                    .build(),
            )
            .build()
    }
}

/// The batch-execution engine.
#[derive(Debug)]
pub struct Engine {
    threads: usize,
    cache: Option<StageCache>,
    memo: Option<Mutex<Memo<String, Value>>>,
    inputs: Option<Mutex<Memo<(usize, String), LutCircuit>>>,
}

/// The most source text the parse memo of [`Engine::load_spec`] holds.
pub const PARSE_MEMO_BYTES: usize = 32 << 20;

/// A bounded in-memory memo with generation eviction: a memo that is
/// full — in entries, or in the summed byte weights of its entries — is
/// wiped wholesale before the next insert. Warm steady-state working
/// sets far below the bounds never evict, and the bounds hold without
/// per-entry recency bookkeeping.
///
/// The engine keeps two: `result`-stage values under the disk cache's
/// content key (hits re-parse through [`JobOutcome::from_value`] with
/// the *current* job's name — a disk hit minus the I/O), and parsed
/// input circuits under `(k, full BLIF text)`, weighted by the text's
/// length.
#[derive(Debug)]
struct Memo<K, V> {
    entries: HashMap<K, V>,
    capacity: usize,
    ceiling: usize,
    held: usize,
}

impl<K: Hash + Eq, V> Memo<K, V> {
    fn new(capacity: usize, ceiling: usize) -> Self {
        Self {
            entries: HashMap::new(),
            capacity,
            ceiling,
            held: 0,
        }
    }

    fn get<Q>(&self, key: &Q) -> Option<&V>
    where
        K: std::borrow::Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.entries.get(key)
    }

    /// Inserts `value` weighing `bytes` (a function of `key`); an entry
    /// heavier than the whole ceiling is not kept.
    fn put(&mut self, key: K, value: V, bytes: usize) {
        if bytes > self.ceiling {
            return;
        }
        if !self.entries.contains_key(&key) {
            if self.entries.len() >= self.capacity || self.held + bytes > self.ceiling {
                self.entries.clear();
                self.held = 0;
            }
            self.held += bytes;
        }
        self.entries.insert(key, value);
    }
}

impl Engine {
    /// Creates an engine (opening the cache directory if configured).
    ///
    /// # Errors
    ///
    /// Fails if the cache root cannot be created.
    pub fn new(options: EngineOptions) -> std::io::Result<Self> {
        let threads = if options.threads == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            options.threads
        };
        let cache = options.cache_dir.map(StageCache::open).transpose()?;
        let entries = options.result_memo;
        Ok(Self {
            threads,
            cache,
            memo: (entries > 0).then(|| Mutex::new(Memo::new(entries, usize::MAX))),
            inputs: (entries > 0).then(|| Mutex::new(Memo::new(entries, PARSE_MEMO_BYTES))),
        })
    }

    /// The resolved worker-thread count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The stage cache, if enabled.
    #[must_use]
    pub fn cache(&self) -> Option<&StageCache> {
        self.cache.as_ref()
    }

    /// Loads a batch like [`job::load_spec_with_modes`], through the
    /// engine's parse memo: every mode BLIF is read from disk, and one
    /// whose bytes were parsed before at the same `k` is reused instead
    /// of parsed again. The key is the file's content, never its path or
    /// mtime, so a changed file is always re-parsed; parse errors are
    /// not memoized. Alongside the batch come the jobs' load-time cache
    /// provenance ([`JobCacheInfo::inputs_parsed`] and
    /// [`JobCacheInfo::inputs_reused`]), in job order.
    ///
    /// # Errors
    ///
    /// Fails like [`job::load_spec_with_modes`].
    pub fn load_spec(
        &self,
        spec: &str,
        base: &FlowOptions,
        k: usize,
        modes: Option<usize>,
    ) -> Result<(BatchSpec, Vec<JobCacheInfo>), String> {
        let mut reused = Vec::new();
        let batch = job::load_spec_reading(spec, base, k, modes, &mut |path: &Path, k| {
            let text = job::read_blif_text(path)?;
            let (circuit, hit) = self
                .parse_input(text, k)
                .map_err(|e| format!("{}: {e}", path.display()))?;
            reused.push(hit);
            Ok(circuit)
        })?;
        // Files are read once per mode in job order, so each job's
        // inputs are the next `circuits.len()` reads (a generated suite
        // reads none).
        let mut reused = reused.into_iter();
        let infos = batch
            .jobs
            .iter()
            .map(|job| {
                let mut info = JobCacheInfo::default();
                for hit in reused.by_ref().take(job.circuits.len()) {
                    if hit {
                        info.inputs_reused += 1;
                    } else {
                        info.inputs_parsed += 1;
                    }
                }
                info
            })
            .collect();
        Ok((batch, infos))
    }

    /// Parses one BLIF text through the parse memo; `true` marks a
    /// memo hit.
    fn parse_input(
        &self,
        text: String,
        k: usize,
    ) -> Result<(LutCircuit, bool), mm_netlist::NetlistError> {
        let Some(memo) = &self.inputs else {
            return Ok((blif::from_blif(&text, k)?, false));
        };
        let key = (k, text);
        if let Some(circuit) = memo.lock().expect("parse memo lock").get(&key) {
            return Ok((circuit.clone(), true));
        }
        // Parsed outside the lock: concurrent loads of different inputs
        // must not serialize on it.
        let circuit = blif::from_blif(&key.1, k)?;
        let bytes = key.1.len();
        memo.lock()
            .expect("parse memo lock")
            .put(key, circuit.clone(), bytes);
        Ok((circuit, false))
    }

    /// Runs a batch, discarding the stream.
    #[must_use]
    pub fn run(&self, jobs: Vec<Job>) -> BatchReport {
        self.run_streamed(jobs, |_| {})
    }

    /// Runs a batch, invoking `sink` with every result **in job order**
    /// as soon as it (and all its predecessors) completed.
    #[must_use]
    pub fn run_streamed(&self, jobs: Vec<Job>, sink: impl FnMut(&JobResult) + Send) -> BatchReport {
        self.run_streamed_cancellable(jobs, None, sink)
    }

    /// [`Engine::run_streamed`] with a cancellation flag: once `cancel`
    /// is set (typically from the sink, e.g. on a broken output pipe),
    /// jobs that have not started yet fail fast with a "cancelled"
    /// error instead of running their flows. In-flight jobs finish.
    #[must_use]
    pub fn run_streamed_cancellable(
        &self,
        mut jobs: Vec<Job>,
        cancel: Option<&std::sync::atomic::AtomicBool>,
        mut sink: impl FnMut(&JobResult) + Send,
    ) -> BatchReport {
        let t0 = Instant::now();
        let n = jobs.len();
        // Budget intra-job parallelism instead of letting it multiply
        // with the job fan-out: jobs in "auto" mode (0) share the worker
        // count — a lone job may use every worker for its internal
        // stages, a full batch pins each job to one thread. Explicit
        // per-job settings are respected, and results are identical at
        // any setting (the flows' intra tasks are independently seeded).
        let concurrent = self.threads.min(n.max(1)).max(1);
        let intra_budget = (self.threads / concurrent).max(1);
        for job in &mut jobs {
            if job.options.intra_parallelism == 0 {
                job.options.intra_parallelism = intra_budget;
            }
        }
        let results = pool::run_ordered(
            jobs,
            self.threads,
            |_, job| {
                if cancel.is_some_and(|c| c.load(Ordering::Relaxed)) {
                    JobResult::failed(
                        &job.name,
                        job.flow,
                        JobError::engine("cancelled before execution"),
                    )
                } else {
                    self.execute_job(&job)
                }
            },
            |_, result| sink(result),
        );
        let report = BatchReport::from_results(results, t0.elapsed(), self.threads);
        debug_assert_eq!(report.stats.jobs, n);
        report
    }

    /// Runs one job outside any batch — compiling it, then
    /// [`Engine::execute_plan`]; the result's duration covers both.
    ///
    /// A failing job returns a [`JobResult`] with a structured
    /// [`JobError`] outcome; this never panics on infeasible inputs.
    #[must_use]
    pub fn execute_job(&self, job: &Job) -> JobResult {
        let t0 = Instant::now();
        let mut result = self.execute_plan(job, &job.compile(), JobCacheInfo::default());
        result.duration = t0.elapsed();
        result
    }

    /// Runs one job through its precompiled `plan` ([`Job::compile`] of
    /// `job`) — the engine's one execution path, and the entry point a
    /// long-running service uses to multiplex jobs from many connections
    /// onto one shared worker pool while keeping the engine's cache
    /// semantics. `cache` is the provenance the job gathered before it
    /// ran (its [`Engine::load_spec`] inputs); execution adds the rest,
    /// derived from the plan executor's per-node telemetry so batch
    /// counters and stage timings can never disagree.
    ///
    /// A failing job returns a [`JobResult`] with a structured
    /// [`JobError`] outcome; this never panics on infeasible inputs.
    #[must_use]
    pub fn execute_plan(
        &self,
        job: &Job,
        plan: &Result<StagePlan, FlowError>,
        mut cache: JobCacheInfo,
    ) -> JobResult {
        let t0 = Instant::now();
        let (outcome, stages) = match plan {
            Ok(plan) => self.run_plan(job, plan, &mut cache),
            Err(e) => (Err(JobError::from_flow(e)), Vec::new()),
        };
        JobResult {
            name: job.name.clone(),
            flow: job.flow,
            outcome,
            cache,
            duration: t0.elapsed(),
            stages,
        }
    }

    /// Runs `plan` through the executor with the engine's cache hooks,
    /// folding the per-node outcomes into `info`: placement hits, the
    /// computed nodes, and `result_hit` only when the root itself hit
    /// (summary hits below a missing root are not result hits).
    fn run_plan(
        &self,
        job: &Job,
        plan: &StagePlan,
        info: &mut JobCacheInfo,
    ) -> (Result<JobOutcome, JobError>, Vec<StageTiming>) {
        let hooks = EngineHooks {
            cache: self.cache.as_ref(),
            memo: self.memo.as_ref(),
            job,
            tally: Cell::new(CacheStats::default()),
        };
        let run = plan.execute(&hooks, job.options.intra_parallelism);
        info.store += hooks.tally.get();
        for stage in &run.stages {
            match stage.cache {
                CacheOutcome::Hit if stage.kind.is_placement() => {
                    info.placement_hit = true;
                    info.placement_hits += 1;
                }
                CacheOutcome::Hit => {}
                CacheOutcome::Miss | CacheOutcome::Uncached => info.stages_recomputed += 1,
            }
        }
        // A summary hit need not be the root (a combined plan joins three
        // summary nodes). A root hit seals the plan before anything else
        // is looked up, so it is the one resolved stage.
        info.result_hit = matches!(&run.stages[..], [only] if only.cache == CacheOutcome::Hit);
        let outcome = match run.artifact {
            Ok(Artifact::Dcs(s)) => Ok(JobOutcome::Dcs(s)),
            Ok(Artifact::Mdr(s)) => Ok(JobOutcome::Mdr(s)),
            Ok(Artifact::Combined(mut m)) => {
                // Plans are nameless (names would poison fingerprint
                // sharing); the engine restores the job's name here.
                m.name = job.name.clone();
                Ok(JobOutcome::Pair(m))
            }
            Ok(other) => Err(JobError::engine(format!(
                "plan resolved to a {:?} artifact instead of a summary",
                other.kind()
            ))),
            Err(e) => Err(JobError::from_flow(&e)),
        };
        (outcome, run.stages)
    }
}

/// The engine's cache integration with the plan executor: nodes are
/// keyed by SHA-256 over their structural fingerprint, placements and
/// summaries land in separate namespaces, and summary values are
/// additionally memoized in memory (a disk hit back-fills the memo).
struct EngineHooks<'a> {
    cache: Option<&'a StageCache>,
    memo: Option<&'a Mutex<Memo<String, Value>>>,
    job: &'a Job,
    /// This job's disk-cache activity (lookups and stores run on the
    /// executor's calling thread).
    tally: Cell<CacheStats>,
}

impl EngineHooks<'_> {
    /// The on-disk key of one node: the structural fingerprint, hashed
    /// (fingerprints are readable but unbounded; keys must be file
    /// names).
    fn key(node: &PlanNode) -> String {
        let mut h = Sha256::new();
        h.field(b"mm-engine-v2");
        h.field(node.fingerprint().as_bytes());
        h.finish_hex()
    }

    fn namespace(kind: ArtifactKind) -> &'static str {
        if kind.is_placement() {
            "placement"
        } else {
            "result"
        }
    }

    /// Decodes a cached value into the artifact kind the node declares;
    /// `None` (shape mismatch, wrong kind) is treated as a miss by the
    /// caller.
    fn decode(&self, kind: ArtifactKind, v: &crate::json::Value) -> Option<Artifact> {
        match kind {
            ArtifactKind::MdrPlacements => {
                placements_from(&self.job.circuits, v).map(|p| Artifact::MdrPlacements(Arc::new(p)))
            }
            ArtifactKind::CombinedPlacement => multi_placement_from(&self.job.circuits, v)
                .map(|p| Artifact::CombinedPlacement(Arc::new(p))),
            summary => {
                let artifact = match JobOutcome::from_value(v, &self.job.name)? {
                    JobOutcome::Dcs(s) => Artifact::Dcs(s),
                    JobOutcome::Mdr(s) => Artifact::Mdr(s),
                    JobOutcome::Pair(m) => Artifact::Combined(m),
                };
                (artifact.kind() == summary).then_some(artifact)
            }
        }
    }

    fn encode(&self, artifact: &Artifact) -> crate::json::Value {
        match artifact {
            Artifact::MdrPlacements(p) => placements_value(&self.job.circuits, p),
            Artifact::CombinedPlacement(p) => placements_value(&self.job.circuits, &p.modes),
            Artifact::Dcs(s) => JobOutcome::Dcs(s.clone()).to_value(),
            Artifact::Mdr(s) => JobOutcome::Mdr(s.clone()).to_value(),
            Artifact::Combined(m) => JobOutcome::Pair(m.clone()).to_value(),
        }
    }
}

impl PlanHooks for EngineHooks<'_> {
    fn lookup(&self, node: &PlanNode) -> Lookup {
        let kind = node.output_kind();
        let cacheable_in_memo = !kind.is_placement() && self.memo.is_some();
        if self.cache.is_none() && !cacheable_in_memo {
            return Lookup::Uncached;
        }
        let key = Self::key(node);
        // Fastest first: the in-memory memo (summaries only), then the
        // disk cache.
        if cacheable_in_memo {
            let memo = self.memo.expect("checked").lock().expect("memo lock");
            if let Some(artifact) = memo.get(&key).and_then(|v| self.decode(kind, v)) {
                return Lookup::Hit(artifact);
            }
        }
        if let Some(cache) = self.cache {
            let mut tally = self.tally.get();
            let found = cache.get(Self::namespace(kind), &key, &mut tally);
            self.tally.set(tally);
            if let Some(v) = found {
                if let Some(artifact) = self.decode(kind, &v) {
                    if cacheable_in_memo {
                        if let Some(memo) = self.memo {
                            memo.lock().expect("memo lock").put(key, v, 0);
                        }
                    }
                    return Lookup::Hit(artifact);
                }
            }
        }
        Lookup::Miss
    }

    fn store(&self, node: &PlanNode, artifact: &Artifact) {
        let kind = node.output_kind();
        if self.cache.is_none() && (kind.is_placement() || self.memo.is_none()) {
            return;
        }
        let key = Self::key(node);
        let value = self.encode(artifact);
        if let Some(cache) = self.cache {
            let mut tally = self.tally.get();
            cache.put(Self::namespace(kind), &key, &value, &mut tally);
            self.tally.set(tally);
        }
        if !kind.is_placement() {
            if let Some(memo) = self.memo {
                memo.lock().expect("memo lock").put(key, value, 0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_resolution() {
        let e = Engine::new(EngineOptions {
            threads: 3,
            cache_dir: None,
            ..Default::default()
        })
        .unwrap();
        assert_eq!(e.threads(), 3);
        let auto = Engine::new(EngineOptions::default()).unwrap();
        assert!(auto.threads() >= 1);
        assert!(auto.cache().is_none());
    }

    const AND2: &str = ".model a\n.inputs x y\n.outputs f\n.names x y f\n11 1\n.end\n";
    const OR2: &str = ".model a\n.inputs x y\n.outputs f\n.names x y f\n1- 1\n-1 1\n.end\n";

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mm_engine_memo_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A directory spec of one job per entry of `groups`, each holding
    /// one `m.blif` with the given text.
    fn write_groups(dir: &Path, groups: &[&str]) {
        for (g, text) in groups.iter().enumerate() {
            let group = dir.join(format!("g{g}"));
            std::fs::create_dir_all(&group).unwrap();
            std::fs::write(group.join("m.blif"), text).unwrap();
        }
    }

    fn memo_engine(result_memo: usize) -> Engine {
        Engine::new(EngineOptions {
            threads: 1,
            cache_dir: None,
            result_memo,
        })
        .unwrap()
    }

    /// (parsed, reused) per job of one `Engine::load_spec`.
    fn load(engine: &Engine, dir: &Path) -> Result<Vec<(usize, usize)>, String> {
        let (_, infos) =
            engine.load_spec(dir.to_str().unwrap(), &FlowOptions::default(), 4, None)?;
        Ok(infos
            .iter()
            .map(|i| (i.inputs_parsed, i.inputs_reused))
            .collect())
    }

    #[test]
    fn the_same_bytes_under_two_paths_are_parsed_once() {
        let dir = tmp_dir("paths");
        write_groups(&dir, &[AND2, AND2, OR2]);
        let engine = memo_engine(16);
        assert_eq!(load(&engine, &dir).unwrap(), [(1, 0), (0, 1), (1, 0)]);
        assert_eq!(load(&engine, &dir).unwrap(), [(0, 1), (0, 1), (0, 1)]);
        // The memo is transparent: the jobs equal the free loader's.
        let (batch, _) = engine
            .load_spec(dir.to_str().unwrap(), &FlowOptions::default(), 4, None)
            .unwrap();
        let plain = job::load_spec(dir.to_str().unwrap(), &FlowOptions::default(), 4).unwrap();
        for (a, b) in batch.jobs.iter().zip(&plain.jobs) {
            assert_eq!(blif::to_blif(&a.circuits[0]), blif::to_blif(&b.circuits[0]));
        }
        // `k` is part of the key: the same bytes at another LUT width
        // parse afresh.
        let (_, infos) = engine
            .load_spec(dir.to_str().unwrap(), &FlowOptions::default(), 5, None)
            .unwrap();
        assert_eq!(infos[0].inputs_parsed, 1);
        // With the memos disabled every read is a parse.
        assert_eq!(
            load(&memo_engine(0), &dir).unwrap(),
            [(1, 0), (1, 0), (1, 0)]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_blif_that_failed_to_parse_parses_once_it_is_fixed() {
        let dir = tmp_dir("fixed");
        write_groups(&dir, &[".model a\n.inputs x\n.names x y z\n1 1\n"]);
        let engine = memo_engine(16);
        let err = load(&engine, &dir).unwrap_err();
        assert!(err.contains("m.blif"), "{err}");
        assert!(
            load(&engine, &dir).is_err(),
            "the same bad bytes fail again"
        );
        write_groups(&dir, &[AND2]);
        assert_eq!(load(&engine, &dir).unwrap(), [(1, 0)]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_parse_memo_never_holds_more_than_its_ceiling() {
        let ceiling = 1000;
        let mut memo: Memo<(usize, String), usize> = Memo::new(64, ceiling);
        let mut rng = 0x2545_f491_4f6c_dd1d_u64;
        for i in 0..2000 {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let len = (rng % 1200) as usize;
            let key = (4, format!("{i}:{}", "x".repeat(len)));
            let bytes = key.1.len();
            memo.put(key, i, bytes);
            let held: usize = memo.entries.keys().map(|(_, text)| text.len()).sum();
            assert_eq!(memo.held, held, "the weight bookkeeping is exact");
            assert!(memo.held <= ceiling, "{} > {ceiling}", memo.held);
            assert!(memo.entries.len() <= 64);
        }
        // An entry heavier than the whole ceiling is never kept.
        memo.put((4, "y".repeat(ceiling + 1)), 0, ceiling + 1);
        assert!(memo.get(&(4, "y".repeat(ceiling + 1))).is_none());
    }
}
