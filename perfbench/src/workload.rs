//! The three workloads and their untraced, timed runs.
//!
//! Every workload measures every end-to-end metric; they differ in the
//! dataset family, the transport, and the share of the run each kind of
//! operation takes:
//!
//! * `carcino-learn` — many small carcinogenesis datasets, in-process:
//!   per dataset the sequential baseline and one learning run per
//!   strategy. An in-process service phase then answers coverage jobs on
//!   some of the datasets.
//! * `mesh-learn-tcp` — mesh datasets, one-shot learning runs over real
//!   `p2mdie-worker` processes (spawn and KB ship on every run), each
//!   checked against the in-process run. A TCP service phase then answers
//!   coverage jobs on some of the datasets.
//! * `mesh-serve-tcp` — one resident TCP service answering a closed loop
//!   of coverage jobs for the whole run, with a learning job every 250th
//!   submission (strategies in rotation, each with a fresh partition seed).
//!
//! Generated datasets differ a lot in difficulty from seed to seed, so the
//! learning workloads cover several datasets per run, and a metric is
//! averaged over datasets (see [`Samples`]).

use crate::stats::{self, Outcome, Tally};
use p2mdie_cluster::CostModel;
use p2mdie_core::{
    run_parallel, run_sequential_timed, JobOutput, JobSpec, ParallelConfig, ParallelReport,
    Service, ServiceConfig, Strategy, TcpConfig, TransportKind,
};
use p2mdie_datasets::Dataset;
use p2mdie_ilp::bitset::Bitset;
use p2mdie_ilp::engine::IlpEngine;
use p2mdie_ilp::examples::Examples;
use p2mdie_ilp::settings::Width;
use p2mdie_logic::clause::Clause;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Worker ranks in every mesh (`p`).
pub const WORKERS: usize = 2;

/// Coverage jobs per service phase of a learning workload, and the least
/// the serving workload answers: one batch for a p99 with ten samples
/// beyond it.
pub const MIN_JOBS: usize = 1000;

/// Every this-many-th submission on the serving workload is a learning job.
pub const LEARN_EVERY: usize = 250;

/// Timed repetitions of each set-up step, and of the serving workload's
/// sequential baseline.
const REPEATS: usize = 5;

/// Share of `--seconds` after which the learning workloads start no new
/// learning pass.
const LEARN_SHARE: f64 = 0.5;

/// Searches behind the serving workload's rule pool.
pub const SERVE_POOL_SEARCHES: usize = 8;

/// Longest a run goes on, whatever `--seconds` says.
const HARD_STOP: Duration = Duration::from_secs(150);

/// A workload, by the name the command line and `BENCHMARK.json` use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Prover-bound: in-process learning on carcinogenesis datasets.
    CarcinoLearn,
    /// Communication-bound: one-shot learning over TCP worker processes.
    MeshLearnTcp,
    /// Per-job overhead: a resident TCP service under a closed loop.
    MeshServeTcp,
}

impl Workload {
    /// All workloads, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::CarcinoLearn,
        Workload::MeshLearnTcp,
        Workload::MeshServeTcp,
    ];

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CarcinoLearn => "carcino-learn",
            Workload::MeshLearnTcp => "mesh-learn-tcp",
            Workload::MeshServeTcp => "mesh-serve-tcp",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// How many datasets one run covers. Generated datasets differ a lot
    /// in difficulty from seed to seed, so a run covers several to
    /// keep its figures comparable across seeds.
    pub fn datasets(self) -> usize {
        match self {
            Workload::CarcinoLearn => 32,
            Workload::MeshLearnTcp => 6,
            Workload::MeshServeTcp => 1,
        }
    }

    /// Generates the `i`-th dataset of a run with seed `seed`.
    pub fn dataset(self, seed: u64, i: usize) -> Dataset {
        let s = sub_seed(seed, i as u64);
        match self {
            Workload::CarcinoLearn => p2mdie_datasets::carcinogenesis(0.1, s),
            Workload::MeshLearnTcp | Workload::MeshServeTcp => p2mdie_datasets::mesh(1.0, s),
        }
    }

    /// The learning workloads' service phase: on how many datasets it runs
    /// [`MIN_JOBS`] coverage jobs, and how many searches seed each
    /// dataset's rule pool. Carcinogenesis rule costs differ a lot between
    /// datasets, so that workload spreads its jobs over more of them.
    pub fn service_phase(self) -> (usize, usize) {
        match self {
            Workload::CarcinoLearn => (16, 2),
            Workload::MeshLearnTcp | Workload::MeshServeTcp => (2, 4),
        }
    }

    /// Pipeline width of the workload's learning runs.
    pub fn width(self) -> Width {
        match self {
            Workload::CarcinoLearn => Width::Limit(10),
            Workload::MeshLearnTcp | Workload::MeshServeTcp => Width::Unlimited,
        }
    }

    /// Does the workload run its mesh as worker processes over TCP?
    pub fn tcp(self) -> bool {
        self != Workload::CarcinoLearn
    }

    /// The one-shot learning configuration for a dataset seed.
    pub fn config(self, pseed: u64, strategy: Strategy) -> ParallelConfig {
        let cfg = ParallelConfig::new(WORKERS, self.width(), pseed).with_strategy(strategy);
        if self.tcp() {
            cfg.with_transport(TransportKind::Tcp(TcpConfig::default()))
        } else {
            cfg
        }
    }

    /// Starts a resident service of the workload's transport.
    pub fn service(self, engine: &IlpEngine) -> Service {
        let cfg = ServiceConfig::new(WORKERS);
        if self.tcp() {
            Service::new_tcp(engine, cfg, &TcpConfig::default())
        } else {
            Service::new(engine, cfg)
        }
    }
}

/// SplitMix64 of `seed` and `i`: the seed of a run's `i`-th input.
pub fn sub_seed(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A small deterministic generator for job order (xorshift64*).
pub struct Rng(u64);

impl Rng {
    /// Seeds the generator.
    pub fn new(seed: u64) -> Rng {
        Rng(sub_seed(seed, 0x5EED) | 1)
    }

    /// Next value below `n`.
    pub fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) as usize % n.max(1)
    }
}

/// Candidate rules for coverage jobs: the best good rules of searches
/// seeded from several positives drawn with `seed`, so rule cost varies.
/// Each comes with its `(pos, neg)` cover from [`IlpEngine::evaluate`], the
/// answer every coverage job is checked against.
pub struct RulePool {
    /// The rules.
    pub rules: Vec<Clause>,
    /// Their expected `(pos, neg)` counts over all examples.
    pub expected: Vec<(u32, u32)>,
}

impl RulePool {
    /// Good rules kept from each search.
    const PER_SEARCH: usize = 6;

    /// Builds the pool for a dataset from the first `searches` searches
    /// that find good rules, trying at most one search per positive. The
    /// pool is empty when no search finds a good rule.
    pub fn build(ds: &Dataset, seed: u64, searches: usize) -> RulePool {
        let mut rng = Rng::new(seed);
        let mut rules: Vec<Clause> = Vec::new();
        let mut fruitful = 0;
        for _ in 0..ds.examples.num_pos() {
            if fruitful == searches {
                break;
            }
            let example = &ds.examples.pos[rng.below(ds.examples.num_pos())];
            let Some(bottom) = ds.engine.saturate(example) else {
                continue;
            };
            let out = ds.engine.search(&bottom, &ds.examples, None, &[]);
            let fresh: Vec<Clause> = out
                .good
                .iter()
                .map(|r| r.shape.to_clause(&bottom))
                .filter(|c| !rules.contains(c))
                .take(Self::PER_SEARCH)
                .collect();
            fruitful += usize::from(!fresh.is_empty());
            rules.extend(fresh);
        }
        RulePool::from_rules(ds, rules)
    }

    fn from_rules(ds: &Dataset, rules: Vec<Clause>) -> RulePool {
        let expected = rules
            .iter()
            .map(|r| {
                let c = ds.engine.evaluate(r, &ds.examples, None, None);
                (c.pos_count(), c.neg_count())
            })
            .collect();
        RulePool { rules, expected }
    }
}

/// Training accuracy of `theory` on `examples`, recounted from scratch: a
/// positive is right when some rule covers it, a negative when none does.
pub fn train_acc(engine: &IlpEngine, examples: &Examples, theory: &[Clause]) -> f64 {
    let mut pos = Bitset::new(examples.num_pos());
    let mut neg = Bitset::new(examples.num_neg());
    for rule in theory {
        let c = engine.evaluate(rule, examples, None, None);
        pos.union_with(&c.pos);
        neg.union_with(&c.neg);
    }
    let right = pos.count() + (examples.num_neg() - neg.count());
    right as f64 / examples.len() as f64
}

/// The samples of one run, by end-to-end metric name and sample group: a
/// dataset, or one learning job of the serving workload. A metric is the
/// interquartile mean over groups of each group's median. Generated inputs
/// differ a lot in difficulty, so averaging over groups keeps a run's
/// figure comparable across seeds; trimming the outer quartiles, and the
/// median within a group, drop outliers.
#[derive(Default)]
struct Samples(BTreeMap<String, BTreeMap<usize, Vec<f64>>>);

impl Samples {
    fn push(&mut self, name: impl Into<String>, group: usize, value: f64) {
        let by_group = self.0.entry(name.into()).or_default();
        by_group.entry(group).or_default().push(value);
    }

    fn value(&self, name: &str) -> f64 {
        let Some(by_group) = self.0.get(name) else {
            return f64::NAN;
        };
        let medians: Vec<f64> = by_group.values().map(|v| stats::median(v)).collect();
        stats::interquartile_mean(&medians)
    }

    fn count(&self, name: &str) -> usize {
        self.0
            .get(name)
            .map_or(0, |d| d.values().map(Vec::len).sum())
    }

    /// Records a group's coverage-job latencies as batches of
    /// [`stats::P99_BATCH`] consecutive jobs: each batch's median and p99
    /// (ten samples beyond it) are one sample each, so a burst of outside
    /// interference moves one batch, not the figure. An incomplete last
    /// batch is dropped.
    fn jobs(&mut self, group: usize, latencies_ms: &[f64]) {
        for batch in latencies_ms.chunks_exact(stats::P99_BATCH) {
            self.push("job_p50_ms", group, stats::median(batch));
            self.push("job_p99_ms", group, stats::percentile(batch, 99.0));
        }
    }

    /// Records one checked learning run of `strategy` in a group.
    #[allow(clippy::too_many_arguments)]
    fn learning(
        &mut self,
        group: usize,
        strategy: Strategy,
        wall: f64,
        cpu: f64,
        vspeedup: f64,
        mb: f64,
        acc: f64,
    ) {
        let sfx = suffix(strategy);
        self.push(format!("learn_wall_s{sfx}"), group, wall);
        self.push(format!("learn_cpu_s{sfx}"), group, cpu);
        self.push(format!("vspeedup{sfx}"), group, vspeedup);
        self.push(format!("comm_mb{sfx}"), group, mb);
        self.push(format!("train_acc{sfx}"), group, acc);
    }
}

/// The end-to-end result of one run.
pub struct RunResult {
    /// `(name, value, unit)` in `BENCHMARK.json` order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Operations and failures.
    pub tally: Tally,
    /// Extra lines for the human-readable report.
    pub notes: Vec<String>,
}

/// Names and units of the end-to-end metrics, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 14] = [
    ("setup_s", "s"),
    ("learn_wall_s", "s"),
    ("learn_cpu_s", "s"),
    ("seq_wall_s", "s"),
    ("vspeedup", "ratio"),
    ("vspeedup.search_partition", "ratio"),
    ("vspeedup.constraint_driven", "ratio"),
    ("learn_wall_s.search_partition", "s"),
    ("learn_wall_s.constraint_driven", "s"),
    ("comm_mb", "MB"),
    ("train_acc", "fraction"),
    ("job_p50_ms", "ms"),
    ("ok_frac", "fraction"),
    ("rss_peak_mb", "MB"),
];

/// Strategy suffix used in metric names (`""` for the default).
pub fn suffix(s: Strategy) -> String {
    match s {
        Strategy::DataPipeline => String::new(),
        other => format!(".{}", other.label().replace('-', "_")),
    }
}

/// Compares two runs of the same seed, such as a TCP run and its in-process
/// twin: theory, epochs and per-rank steps must agree. Virtual time is
/// left to the caller: a TCP run also sends each worker its `Configure`
/// and `LoadPartition` bootstrap messages, and the cost model charges for
/// them.
pub fn same_decisions(a: &ParallelReport, b: &ParallelReport) -> Result<(), String> {
    let diffs = [
        ("theory", a.clauses() != b.clauses()),
        ("epochs", a.epochs != b.epochs),
        ("worker_steps", a.worker_steps != b.worker_steps),
    ];
    match diffs.iter().find(|(_, differs)| *differs) {
        None => Ok(()),
        Some((what, _)) => Err(format!("runs differ in {what}")),
    }
}

/// One coverage job evaluating pool rule `k`, timed submit→wait and
/// checked against its [`IlpEngine::evaluate`] counts. The latency goes to
/// `latencies`; a failed job counts as missing every latency bound.
pub fn coverage_job(
    svc: &Service,
    examples: &Examples,
    pool: &RulePool,
    k: usize,
    latencies: &mut Vec<f64>,
    tally: &mut Tally,
) {
    let expected = &pool.expected[k..=k];
    let spec = JobSpec::coverage(examples.clone(), vec![pool.rules[k].clone()]);
    let t = Instant::now();
    let outcome = match svc.submit(spec) {
        Err(e) => Outcome::Refused(e.to_string()),
        Ok(h) => {
            let out = h.wait();
            let ms = t.elapsed().as_secs_f64() * 1e3;
            match out.output {
                Some(JobOutput::Coverage(c)) if c == expected => {
                    latencies.push(ms);
                    Outcome::Ok
                }
                Some(JobOutput::Coverage(c)) => {
                    Outcome::Wrong(format!("coverage job: {c:?} != evaluate {expected:?}"))
                }
                _ => Outcome::Errored(format!("coverage job: {:?}", out.error)),
            }
        }
    };
    if outcome != Outcome::Ok {
        latencies.push(f64::INFINITY);
    }
    tally.record(outcome);
}

/// A learning job for the service and what its result must be.
struct LearnJob {
    /// Sample group: one per learning job, so a metric is taken over jobs.
    group: usize,
    pseed: u64,
    strategy: Strategy,
    /// Theory of the one-shot run with the same seed and strategy.
    reference: Vec<Clause>,
    /// Virtual time of the sequential baseline on the same dataset.
    seq_vtime: f64,
}

/// One learning job on the service, timed submit→wait with the CPU of this
/// process and its live worker processes, checked against the theory of
/// the one-shot run with the same seed and strategy.
fn learn_job(
    svc: &Service,
    ds: &Dataset,
    job: &LearnJob,
    samples: &mut Samples,
    tally: &mut Tally,
) {
    let spec = JobSpec::learn(ds.examples.clone())
        .with_seed(job.pseed)
        .with_width(Workload::MeshServeTcp.width())
        .with_strategy(job.strategy);
    let cpu0 = stats::self_cpu().own + stats::live_children_cpu();
    let t = Instant::now();
    let outcome = svc.submit(spec).map(|h| h.wait());
    let wall = t.elapsed().as_secs_f64();
    let cpu = stats::self_cpu().own + stats::live_children_cpu() - cpu0;
    let out = match outcome {
        Err(e) => return tally.record(Outcome::Refused(e.to_string())),
        Ok(out) => out,
    };
    let Some(JobOutput::Learned(learned)) = &out.output else {
        return tally.record(Outcome::Errored(format!("learn job: {:?}", out.error)));
    };
    let theory: Vec<Clause> = learned.theory.iter().map(|r| r.clause.clone()).collect();
    if theory != job.reference {
        return tally.record(Outcome::Wrong(format!(
            "{} learn job theory differs from the one-shot run",
            job.strategy.label()
        )));
    }
    tally.record(Outcome::Ok);
    samples.learning(
        job.group,
        job.strategy,
        wall,
        cpu,
        job.seq_vtime / out.accounting.vtime,
        out.accounting.bytes as f64 / 1e6,
        train_acc(&ds.engine, &ds.examples, &theory),
    );
}

/// Wall seconds since `t`.
fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// The state of one timed run.
struct Run {
    w: Workload,
    seed: u64,
    started: Instant,
    /// No run goes on past this, whatever `--seconds` says.
    hard_stop: Instant,
    model: CostModel,
    tally: Tally,
    samples: Samples,
    /// Every coverage-job latency, for the log.
    latencies: Vec<f64>,
    /// Wall seconds per phase, for the log.
    phases: Vec<(&'static str, f64)>,
}

/// Runs `w` for about `seconds` with inputs from `seed`, untraced.
pub fn run(w: Workload, seed: u64, seconds: f64) -> RunResult {
    let started = Instant::now();
    let mut run = Run {
        w,
        seed,
        started,
        hard_stop: started + HARD_STOP,
        model: CostModel::beowulf_2005(),
        tally: Tally::default(),
        samples: Samples::default(),
        latencies: Vec::new(),
        phases: Vec::new(),
    };
    match w {
        Workload::MeshServeTcp => run.serve(started + Duration::from_secs_f64(seconds)),
        _ => run.learn(started + Duration::from_secs_f64(seconds * LEARN_SHARE)),
    }
    run.finish()
}

impl Run {
    fn phase(&mut self, name: &'static str, since: Instant) {
        self.phases.push((name, secs(since)));
    }

    /// The serving workload: one resident service answering a closed loop
    /// of coverage jobs until `deadline`, a learning job every
    /// [`LEARN_EVERY`]th submission.
    fn serve(&mut self, deadline: Instant) {
        let w = self.w;
        let seed = self.seed;
        // Set-up: dataset generation, engine build and service start
        // (spawn, handshake and KB ship) until a first empty coverage job
        // returns; several times so the median is steady.
        let mut started = None;
        for attempt in 0..REPEATS {
            if let Some((old, _)) = started.take() {
                shutdown(old, &mut self.tally);
            }
            let t = Instant::now();
            let ds = w.dataset(seed, 0);
            let svc = w.service(&ds.engine);
            let first = svc.submit(JobSpec::coverage(ds.examples.clone(), Vec::new()));
            let ok = matches!(first.map(|h| h.wait().output), Ok(Some(JobOutput::Coverage(c))) if c.is_empty());
            self.samples.push("setup_s", 0, secs(t));
            self.tally.check(ok, || {
                format!("service start {attempt}: first empty job failed")
            });
            started = Some((svc, ds));
        }
        let (svc, ds) = started.expect("service started");
        self.phase("setup", self.started);

        let t = Instant::now();
        let mut seq_vtime = f64::NAN;
        for _ in 0..REPEATS {
            let seq = run_sequential_timed(&ds.engine, &ds.examples, &self.model);
            self.samples.push("seq_wall_s", 0, seq.wall.as_secs_f64());
            seq_vtime = seq.vtime;
        }
        let pool = RulePool::build(&ds, seed, SERVE_POOL_SEARCHES);
        assert!(
            !pool.rules.is_empty(),
            "no candidate rules for coverage jobs"
        );
        self.phase("baseline and pool", t);

        let t = Instant::now();
        let mut rng = Rng::new(seed ^ 0xC0FE);
        let (mut submitted, mut learned) = (0usize, 0usize);
        let mut latencies = Vec::new();
        while (latencies.len() < MIN_JOBS || Instant::now() < deadline)
            && Instant::now() < self.hard_stop
        {
            submitted += 1;
            if submitted % LEARN_EVERY != 0 {
                let k = rng.below(pool.rules.len());
                coverage_job(
                    &svc,
                    &ds.examples,
                    &pool,
                    k,
                    &mut latencies,
                    &mut self.tally,
                );
                continue;
            }
            // Learning jobs rotate over the strategies, each with a fresh
            // partition seed, checked against the one-shot run with the
            // same seed (run untimed, just before).
            let strategy = Strategy::ALL[learned % Strategy::ALL.len()];
            let pseed = sub_seed(seed, 4000 + learned as u64);
            let cfg = ParallelConfig::new(WORKERS, w.width(), pseed).with_strategy(strategy);
            match run_parallel(&ds.engine, &ds.examples, &cfg) {
                Ok(r) => {
                    let job = LearnJob {
                        group: learned,
                        pseed,
                        strategy,
                        reference: r.clauses(),
                        seq_vtime,
                    };
                    learn_job(&svc, &ds, &job, &mut self.samples, &mut self.tally);
                }
                Err(e) => self.tally.record(Outcome::Errored(format!(
                    "reference {}: {e}",
                    strategy.label()
                ))),
            }
            learned += 1;
        }
        shutdown(svc, &mut self.tally);
        self.samples.jobs(0, &latencies);
        self.latencies = latencies;
        self.phase("job loop", t);
    }

    /// The learning workloads: passes over the run's datasets (the
    /// sequential baseline and one learning run per strategy on each)
    /// until `learn_budget`, then a service phase.
    fn learn(&mut self, learn_budget: Instant) {
        let (w, seed) = (self.w, self.seed);
        let k = w.datasets();
        let pseeds: Vec<u64> = (0..k).map(|i| sub_seed(seed, 1000 + i as u64)).collect();
        // Set-up: dataset generation and engine build, several times per
        // dataset so the median is steady.
        let mut datasets = Vec::with_capacity(k);
        for i in 0..k {
            for rep in 0..REPEATS {
                let t = Instant::now();
                let ds = w.dataset(seed, i);
                self.samples.push("setup_s", i, secs(t));
                if rep == 0 {
                    datasets.push(ds);
                }
            }
        }
        self.phase("setup", self.started);

        // References for the TCP runs: the in-process run with the same
        // seed and KB shipping, which TCP must match.
        let t = Instant::now();
        let mut reference: BTreeMap<(usize, &'static str), ParallelReport> = BTreeMap::new();
        if w.tcp() {
            for (i, ds) in datasets.iter().enumerate() {
                for s in Strategy::ALL {
                    let cfg = ParallelConfig::new(WORKERS, w.width(), pseeds[i])
                        .with_strategy(s)
                        .with_kb_shipping();
                    match run_parallel(&ds.engine, &ds.examples, &cfg) {
                        Ok(r) => {
                            reference.insert((i, s.label()), r);
                        }
                        Err(e) => self
                            .tally
                            .record(Outcome::Errored(format!("reference {}: {e}", s.label()))),
                    }
                }
            }
            self.phase("in-process references", t);
        }

        // The first pass's theory and virtual-time bits; every later pass
        // must reproduce them exactly.
        let t = Instant::now();
        let mut first: BTreeMap<(usize, &'static str), (Vec<Clause>, u64)> = BTreeMap::new();
        let mut pass = 0;
        while pass == 0 || (Instant::now() < learn_budget && Instant::now() < self.hard_stop) {
            for (i, ds) in datasets.iter().enumerate() {
                let seq = run_sequential_timed(&ds.engine, &ds.examples, &self.model);
                self.samples.push("seq_wall_s", i, seq.wall.as_secs_f64());
                for s in Strategy::ALL {
                    let cpu0 = stats::self_cpu().total();
                    let t = Instant::now();
                    let res = run_parallel(&ds.engine, &ds.examples, &w.config(pseeds[i], s));
                    let wall = secs(t);
                    let cpu = stats::self_cpu().total() - cpu0;
                    let rep = match res {
                        Ok(r) => r,
                        Err(e) => {
                            self.tally
                                .record(Outcome::Errored(format!("{}: {e}", s.label())));
                            continue;
                        }
                    };
                    let key = (i, s.label());
                    let theory = rep.clauses();
                    let check = if rep.stalled {
                        Err("run stalled".to_owned())
                    } else {
                        reference
                            .get(&key)
                            .map_or(Ok(()), |local| same_decisions(&rep, local))
                    }
                    .and_then(|()| match first.get(&key) {
                        Some((t0, vt0)) if *t0 != theory || *vt0 != rep.vtime.to_bits() => {
                            Err("theory or virtual time changed between passes".to_owned())
                        }
                        _ => Ok(()),
                    });
                    if let Err(e) = check {
                        self.tally
                            .record(Outcome::Wrong(format!("{} dataset {i}: {e}", s.label())));
                        continue;
                    }
                    self.tally.record(Outcome::Ok);
                    if pass == 0 {
                        let acc = train_acc(&ds.engine, &ds.examples, &theory);
                        let vspeedup = seq.vtime / rep.vtime;
                        self.samples
                            .learning(i, s, wall, cpu, vspeedup, rep.megabytes(), acc);
                        first.insert(key, (theory, rep.vtime.to_bits()));
                    } else {
                        let sfx = suffix(s);
                        self.samples.push(format!("learn_wall_s{sfx}"), i, wall);
                        self.samples.push(format!("learn_cpu_s{sfx}"), i, cpu);
                    }
                }
            }
            pass += 1;
        }
        self.phase("learning passes", t);
        self.phases.push(("passes", pass as f64));

        // A service phase on the first few datasets with candidate rules:
        // coverage jobs drawn from each dataset's own rule pool, as on the
        // serving workload.
        let t = Instant::now();
        let (job_datasets, searches) = w.service_phase();
        let pools = datasets.iter().enumerate().filter_map(|(i, ds)| {
            let pool = RulePool::build(ds, sub_seed(seed, 2000 + i as u64), searches);
            (!pool.rules.is_empty()).then_some((i, ds, pool))
        });
        for (i, ds, pool) in pools.take(job_datasets) {
            let svc = w.service(&ds.engine);
            let mut rng = Rng::new(sub_seed(seed, 3000 + i as u64));
            let mut latencies = Vec::with_capacity(MIN_JOBS);
            for _ in 0..MIN_JOBS {
                let k = rng.below(pool.rules.len());
                coverage_job(
                    &svc,
                    &ds.examples,
                    &pool,
                    k,
                    &mut latencies,
                    &mut self.tally,
                );
            }
            shutdown(svc, &mut self.tally);
            self.samples.jobs(i, &latencies);
            self.latencies.extend(latencies);
        }
        self.phase("service phase", t);
    }

    fn finish(self) -> RunResult {
        let lat = &self.latencies;
        let phases: Vec<String> = self
            .phases
            .iter()
            .map(|(n, v)| format!("{n} {v:.2}"))
            .collect();
        let counts: Vec<String> = ["setup_s", "seq_wall_s", "learn_wall_s", "vspeedup"]
            .iter()
            .map(|n| format!("{n} n={}", self.samples.count(n)))
            .collect();
        let notes = vec![
            format!("phases (s): {}", phases.join(", ")),
            format!(
                "samples: {}, job_p50_ms n={} batches of {} jobs",
                counts.join(", "),
                self.samples.count("job_p50_ms"),
                stats::P99_BATCH
            ),
            format!(
                "coverage-job latency ms: {}; job_p99_ms {:.4} (per-batch p99, not declared: \
                 varies too much from run to run to gate on); p90 {:.4}, max {:.4}",
                stats::summarize(lat),
                self.samples.value("job_p99_ms"),
                stats::percentile(lat, 90.0),
                stats::percentile(lat, 100.0)
            ),
        ];
        let metrics = END_TO_END
            .iter()
            .map(|&(name, unit)| {
                let value = match name {
                    "ok_frac" => 1.0 - self.tally.failed_frac(),
                    "rss_peak_mb" => stats::rss_peak_mb(),
                    _ => self.samples.value(name),
                };
                (name.to_owned(), value, unit)
            })
            .collect();
        RunResult {
            metrics,
            tally: self.tally,
            notes,
        }
    }
}

fn shutdown(svc: Service, tally: &mut Tally) {
    if let Err(e) = svc.shutdown() {
        tally.record(Outcome::Errored(format!("service shutdown: {e}")));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_follow_the_seed() {
        assert_eq!(sub_seed(7, 3), sub_seed(7, 3));
        assert_ne!(sub_seed(7, 3), sub_seed(7, 4));
        assert_ne!(sub_seed(7, 3), sub_seed(8, 3));
        let draw = |seed| {
            let mut r = Rng::new(seed);
            (0..32).map(|_| r.below(10)).collect::<Vec<_>>()
        };
        assert_eq!(draw(1), draw(1));
        assert_ne!(draw(1), draw(2));
        assert!(draw(3).iter().all(|&k| k < 10));
    }

    #[test]
    fn metrics_average_datasets_and_batch_job_latencies() {
        let mut s = Samples::default();
        // Dataset 0: median of its passes; dataset 1 one sample.
        for v in [1.0, 9.0, 2.0] {
            s.push("learn_wall_s", 0, v);
        }
        s.push("learn_wall_s", 1, 4.0);
        assert_eq!(s.value("learn_wall_s"), 3.0);
        assert_eq!(s.count("learn_wall_s"), 4);
        // Five groups: the outer ones are trimmed.
        for (g, v) in [(2, 100.0), (3, 3.0), (4, -50.0)] {
            s.push("learn_wall_s", g, v);
        }
        assert_eq!(s.value("learn_wall_s"), 3.0);
        assert!(s.value("seq_wall_s").is_nan());
        // Three batches of 1000 jobs plus a partial one (dropped): one
        // batch has a burst of slow jobs beyond its p99, another a failed
        // job; the median batch decides.
        let mut lat = Vec::new();
        for (slow, value) in [(10, 50.0), (11, 8.0), (12, f64::INFINITY)] {
            let mut batch = vec![1.0; 1000 - slow];
            batch.extend(std::iter::repeat_n(value, slow));
            lat.extend(batch);
        }
        lat.extend([1e6; 999]);
        s.jobs(0, &lat);
        assert_eq!(s.count("job_p99_ms"), 3);
        assert_eq!(s.value("job_p99_ms"), 8.0);
        assert_eq!(s.value("job_p50_ms"), 1.0);
    }

    #[test]
    fn rule_pool_answers_match_evaluate() {
        let ds = p2mdie_datasets::trains(10, 3);
        let pool = RulePool::build(&ds, 5, 2);
        assert!(!pool.rules.is_empty());
        assert_eq!(pool.rules.len(), pool.expected.len());
        let c = ds.engine.evaluate(&pool.rules[0], &ds.examples, None, None);
        assert_eq!(pool.expected[0], (c.pos_count(), c.neg_count()));
    }

    #[test]
    fn train_acc_is_recounted_from_the_theory() {
        let ds = p2mdie_datasets::trains(10, 3);
        // The empty theory gets exactly the negatives right.
        let empty = train_acc(&ds.engine, &ds.examples, &[]);
        assert_eq!(
            empty,
            ds.examples.num_neg() as f64 / ds.examples.len() as f64
        );
        let cfg = ParallelConfig::new(WORKERS, Width::Unlimited, 1);
        let rep = run_parallel(&ds.engine, &ds.examples, &cfg).expect("learning run");
        let acc = train_acc(&ds.engine, &ds.examples, &rep.clauses());
        assert!(acc > empty && acc <= 1.0, "{acc}");
        assert_eq!(same_decisions(&rep, &rep), Ok(()));
    }
}
