//! What each workload runs: the job pools and the seeded draw.
//!
//! Every job a workload can ever run lies in a finite pool (suite tuple
//! × flow × width policy × placer seed), and the committed expected
//! records cover every pool entry, so a run under any `--seed` is
//! checked byte for byte. The seed picks, per run, the drawn tuples and
//! one placer seed from [`PLACER_SEEDS`]; the program itself only ever
//! sees the generated BLIF files and spec.

use mm_netlist::LutCircuit;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// LUT width of every generated suite.
pub const K: usize = 4;

/// The channel width of the `paper-fixed` and `serve-warm` jobs. Every
/// pool job of those workloads routes at this width without growth.
pub const FIXED_WIDTH: usize = 20;

/// Placer seeds a run may draw; the first is the flow's default seed.
pub const PLACER_SEEDS: [u64; 4] = [0x5eed, 1, 2, 3];

/// The timing-driven cost of the STA-carrying jobs.
pub const TIMING_COST: &str = "timing:0.6";

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cold DCS wire-length batch at the paper's relaxed width.
    PaperRelaxed,
    /// The same suites at [`FIXED_WIDTH`], plus 3-mode and timing jobs.
    PaperFixed,
    /// A warm `mm-serve` socket re-serving cached jobs.
    ServeWarm,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperRelaxed,
        Workload::PaperFixed,
        Workload::ServeWarm,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperRelaxed => "paper-relaxed",
            Workload::PaperFixed => "paper-fixed",
            Workload::ServeWarm => "serve-warm",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Engine threads (batch workloads) or server workers (serve-warm).
    /// One engine thread keeps a batch's wall time the sum of its jobs,
    /// so every job's saving shows; two threads let the longest job set
    /// the makespan.
    pub fn threads(self) -> usize {
        match self {
            Workload::PaperRelaxed | Workload::PaperFixed => 1,
            Workload::ServeWarm => 2,
        }
    }

    /// Closed-loop client connections (serve-warm only).
    pub fn connections(self) -> usize {
        match self {
            Workload::ServeWarm => 2,
            _ => 0,
        }
    }
}

/// One of the generated suites.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Suite {
    /// Regular-expression engines.
    Regexp,
    /// Low-pass / high-pass FIR filters.
    Fir,
    /// MCNC-class general circuits.
    Mcnc,
    /// Deep register-to-register chains (timing-sensitive).
    Deeplogic,
    /// One hub fanning out to many consumers.
    Broadcast,
}

impl Suite {
    /// Every suite.
    pub const ALL: [Suite; 5] = [
        Suite::Regexp,
        Suite::Fir,
        Suite::Mcnc,
        Suite::Deeplogic,
        Suite::Broadcast,
    ];

    /// The suite's name (also its BLIF subdirectory).
    pub fn name(self) -> &'static str {
        match self {
            Suite::Regexp => "regexp",
            Suite::Fir => "fir",
            Suite::Mcnc => "mcnc",
            Suite::Deeplogic => "deeplogic",
            Suite::Broadcast => "broadcast",
        }
    }

    /// Generates the suite's circuits (the `gen` layer).
    pub fn generate(self) -> Vec<LutCircuit> {
        match self {
            Suite::Regexp => mm_gen::regexp_suite(K),
            Suite::Fir => mm_gen::fir_suite(K),
            Suite::Mcnc => mm_gen::mcnc_suite(K),
            Suite::Deeplogic => mm_gen::deeplogic_suite(K),
            Suite::Broadcast => mm_gen::broadcast_suite(K),
        }
    }

    /// The suite's `modes`-ary tuples, as `mmflow batch suite:<name>`
    /// enumerates them.
    pub fn tuples(self, modes: usize) -> Vec<Vec<usize>> {
        match self {
            Suite::Fir => mm_gen::fir_mode_tuples(modes),
            _ => mm_gen::all_tuples(mm_gen::SUITE_SIZE, modes),
        }
    }
}

/// One benchmark job: a suite tuple and how to run it.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// The suite the modes come from.
    pub suite: Suite,
    /// Circuit indices into the suite, in mode order.
    pub tuple: Vec<usize>,
    /// `dcs`, `mdr` or `combined`.
    pub flow: &'static str,
    /// Placement cost for `dcs` jobs (`None` = wire length).
    pub cost: Option<&'static str>,
    /// Fixed channel width, or `None` for the relaxed width search.
    pub width: Option<usize>,
    /// Placer seed.
    pub seed: u64,
}

impl JobSpec {
    fn new(suite: Suite, tuple: Vec<usize>, width: Option<usize>, seed: u64) -> Self {
        Self {
            suite,
            tuple,
            flow: "dcs",
            cost: None,
            width,
            seed,
        }
    }

    fn with_flow(mut self, flow: &'static str) -> Self {
        self.flow = flow;
        self
    }

    fn with_timing(mut self) -> Self {
        self.cost = Some(TIMING_COST);
        self
    }

    /// The job's unique name: it spells every input of the record, so
    /// the expected records are keyed by it.
    pub fn name(&self, circuits: &[LutCircuit]) -> String {
        let modes: Vec<&str> = self.tuple.iter().map(|&i| circuits[i].name()).collect();
        let flow = match self.cost {
            Some(cost) => format!("{}-{cost}", self.flow),
            None => self.flow.to_string(),
        };
        let width = self
            .width
            .map_or_else(|| "relaxed".to_string(), |w| format!("w{w}"));
        format!("{}/{flow}/{width}/s{:x}", modes.join("+"), self.seed)
    }
}

/// The seeded draw of one run, on the workspace's vendored `rand`. A
/// change to that generator changes which pool jobs a seed draws, never
/// whether their records pass the check.
#[derive(Debug, Clone)]
pub struct Draw(StdRng);

impl Draw {
    /// A draw stream for `seed` and `workload`.
    pub fn new(seed: u64, workload: Workload) -> Self {
        let salt = match workload {
            Workload::PaperRelaxed => 0x0001_7e1a_7ed0,
            Workload::PaperFixed => 0x0002_f1ed_0000,
            Workload::ServeWarm => 0x0003_5e7e_0000,
        };
        Self(StdRng::seed_from_u64(seed ^ salt))
    }

    fn below(&mut self, n: usize) -> usize {
        self.0.gen_range(0..n)
    }

    /// `count` distinct elements of `items`, in draw order.
    fn pick<T: Clone>(&mut self, items: &[T], count: usize) -> Vec<T> {
        let mut pool: Vec<T> = items.to_vec();
        pool.shuffle(&mut self.0);
        pool.truncate(count);
        pool
    }
}

/// How big a run's job set is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark proper.
    Full,
    /// A seconds-long smoke run over the same pools (tests only).
    Tiny,
}

/// The fixed heavy tuples of `paper-relaxed` (one per paper suite, at
/// the default placer seed). A relaxed regexp/fir/mcnc job takes 3–28 s
/// and its cost varies 3× across tuples, so drawing them would make the
/// run-to-run spread of every timing exceed its bound; the drawn
/// deeplogic and broadcast jobs carry the seed's variety instead.
fn relaxed_heavy() -> Vec<JobSpec> {
    let seed = PLACER_SEEDS[0];
    vec![
        // alu24+intc32: the cheapest relaxed mcnc pair.
        JobSpec::new(Suite::Mcnc, vec![0, 4], None, seed),
        // regexp1+regexp4
        JobSpec::new(Suite::Regexp, vec![1, 4], None, seed),
        // fir_lp7+fir_hp7
        JobSpec::new(Suite::Fir, vec![7, 17], None, seed),
    ]
}

/// The distinct jobs one run of `workload` executes for `seed`. Batch
/// workloads repeat this set (on a fresh cache) until the run's time is
/// up; serve-warm cycles batches over it.
pub fn draw(workload: Workload, seed: u64, scale: Scale) -> Vec<JobSpec> {
    let mut rng = Draw::new(seed, workload);
    let placer = PLACER_SEEDS[rng.below(PLACER_SEEDS.len())];
    let pairs = |suite: Suite, rng: &mut Draw, n: usize, width: Option<usize>| -> Vec<JobSpec> {
        rng.pick(&suite.tuples(2), n)
            .into_iter()
            .map(|t| JobSpec::new(suite, t, width, placer))
            .collect()
    };
    match (workload, scale) {
        (Workload::PaperRelaxed, Scale::Full) => {
            let mut jobs = relaxed_heavy();
            jobs.extend(pairs(Suite::Deeplogic, &mut rng, 2, None));
            jobs.extend(timing_deeplogic(1, None, placer));
            jobs.extend(pairs(Suite::Broadcast, &mut rng, 3, None));
            jobs
        }
        (Workload::PaperRelaxed, Scale::Tiny) => {
            let mut jobs = pairs(Suite::Broadcast, &mut rng, 2, None);
            jobs.extend(timing_deeplogic(1, None, placer));
            jobs
        }
        (Workload::PaperFixed, scale) => {
            let w = Some(FIXED_WIDTH);
            let mut jobs = Vec::new();
            if scale == Scale::Full {
                jobs.extend(triples(w, placer));
                // Three pairs per suite keep the round's cost steady
                // across seeds.
                for suite in Suite::ALL {
                    jobs.extend(pairs(suite, &mut rng, 3, w));
                }
                jobs.extend(timing_deeplogic(2, w, placer));
            } else {
                jobs.extend(pairs(Suite::Broadcast, &mut rng, 1, w));
                jobs.extend(timing_deeplogic(1, w, placer));
            }
            jobs
        }
        (Workload::ServeWarm, scale) => {
            // The seed orders the jobs, which decides each batch's mix.
            let jobs = serve_jobs(scale, placer);
            let n = jobs.len();
            rng.pick(&jobs, n)
        }
    }
}

/// The `serve-warm` job set at one placer seed. Fixed tuples: serve-warm
/// measures no flow work, and the broadcast pairs' sizes differ 8×, so
/// drawn tuples would only spread the quality sums across seeds.
fn serve_jobs(scale: Scale, seed: u64) -> Vec<JobSpec> {
    let w = Some(FIXED_WIDTH);
    let broadcast: &[[usize; 2]] = match scale {
        Scale::Full => &[[0, 2], [1, 3]],
        Scale::Tiny => &[[0, 1]],
    };
    let mut jobs = Vec::new();
    for t in broadcast {
        for flow in ["dcs", "mdr", "combined"] {
            jobs.push(JobSpec::new(Suite::Broadcast, t.to_vec(), w, seed).with_flow(flow));
        }
    }
    if scale == Scale::Full {
        for flow in ["dcs", "mdr"] {
            jobs.push(JobSpec::new(Suite::Deeplogic, vec![1, 2], w, seed).with_flow(flow));
        }
    }
    jobs.extend(timing_deeplogic(1, w, seed));
    jobs
}

/// The 3-mode jobs of `paper-fixed`, two per paper suite. Fixed, not
/// drawn: a 3-mode job costs up to three pairs and its cost varies by
/// half across tuples, so drawn tuples made one seed's round 15% dearer
/// than another's. None of them is one of the unroutable 3-mode jobs
/// `README.md` lists.
const TRIPLES: [(Suite, [usize; 3]); 6] = [
    // alu24+plax+mult10, alu24+mult10+intc32
    (Suite::Mcnc, [0, 1, 2]),
    (Suite::Mcnc, [0, 2, 4]),
    // fir_lp1+fir_hp1+fir_lp2, fir_lp6+fir_hp6+fir_lp7
    (Suite::Fir, [1, 11, 2]),
    (Suite::Fir, [6, 16, 7]),
    // regexp0+regexp1+regexp3, regexp0+regexp2+regexp4
    (Suite::Regexp, [0, 1, 3]),
    (Suite::Regexp, [0, 2, 4]),
];

fn triples(width: Option<usize>, seed: u64) -> Vec<JobSpec> {
    TRIPLES
        .iter()
        .map(|(suite, t)| JobSpec::new(*suite, t.to_vec(), width, seed))
        .collect()
}

/// The deeplogic pairs of the `timing:0.6` jobs. Fixed, not drawn: a
/// pair's critical paths move by up to 60% between pairs but by about
/// 5% between placer seeds, so drawn pairs would spread
/// `critical_path_sum` across seeds far beyond its bound.
const TIMING_TUPLES: [[usize; 2]; 2] = [[0, 4], [1, 4]];

fn timing_deeplogic(n: usize, width: Option<usize>, seed: u64) -> Vec<JobSpec> {
    TIMING_TUPLES[..n]
        .iter()
        .map(|t| JobSpec::new(Suite::Deeplogic, t.to_vec(), width, seed).with_timing())
        .collect()
}

/// Every job any seed can draw for `workload`, at either scale — what
/// the committed expected records cover.
pub fn pool(workload: Workload) -> Vec<JobSpec> {
    let mut jobs = Vec::new();
    let add_pairs = |suite: Suite, width: Option<usize>, modes: usize, jobs: &mut Vec<JobSpec>| {
        for seed in PLACER_SEEDS {
            for t in suite.tuples(modes) {
                jobs.push(JobSpec::new(suite, t, width, seed));
            }
        }
    };
    match workload {
        Workload::PaperRelaxed => {
            jobs.extend(relaxed_heavy());
            add_pairs(Suite::Deeplogic, None, 2, &mut jobs);
            add_pairs(Suite::Broadcast, None, 2, &mut jobs);
            timing_pool(None, &mut jobs);
        }
        Workload::PaperFixed => {
            let w = Some(FIXED_WIDTH);
            for seed in PLACER_SEEDS {
                jobs.extend(triples(w, seed));
            }
            for suite in Suite::ALL {
                add_pairs(suite, w, 2, &mut jobs);
            }
            timing_pool(w, &mut jobs);
        }
        Workload::ServeWarm => {
            for seed in PLACER_SEEDS {
                for job in serve_jobs(Scale::Full, seed)
                    .into_iter()
                    .chain(serve_jobs(Scale::Tiny, seed))
                {
                    if !jobs.contains(&job) {
                        jobs.push(job);
                    }
                }
            }
        }
    }
    jobs
}

fn timing_pool(width: Option<usize>, jobs: &mut Vec<JobSpec>) {
    for seed in PLACER_SEEDS {
        jobs.extend(timing_deeplogic(TIMING_TUPLES.len(), width, seed));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draws_repeat_per_seed_and_stay_in_the_pool() {
        for workload in Workload::ALL {
            let pool = pool(workload);
            for scale in [Scale::Full, Scale::Tiny] {
                for seed in 0..40 {
                    let jobs = draw(workload, seed, scale);
                    assert_eq!(jobs, draw(workload, seed, scale));
                    assert!(!jobs.is_empty());
                    for job in &jobs {
                        assert!(pool.contains(job), "{job:?} outside the {workload:?} pool");
                    }
                }
            }
        }
    }

    #[test]
    fn seeds_vary_the_draw() {
        let a = draw(Workload::PaperFixed, 1, Scale::Full);
        assert!((2..10).any(|s| draw(Workload::PaperFixed, s, Scale::Full) != a));
    }
}
