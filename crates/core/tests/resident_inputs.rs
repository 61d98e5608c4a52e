//! Differential tests for resident job inputs. A resident worker keeps the
//! example subset of the last job it was shipped, and the scheduler sends
//! a job whose example set, partition seed and layout match the previous
//! job's as a `SubmitResident` frame without examples. The coverage role
//! reads the resident base KB in place and copies it at its first write.
//!
//! Whatever mix of jobs runs, each result must equal the same job run
//! alone: coverage counts equal `IlpEngine::evaluate`, learn jobs match
//! the one-shot run, baseline jobs the standalone baseline, rule searches
//! a fresh service. Every coverage query also scores a probe rule,
//! `eastbound(A) :- eastbound(A)`, which covers nothing over the clean KB
//! and covers the eastbound trains as soon as a learned `eastbound` rule
//! sits in it: a `MarkCovered` that reached the base KB shows up there.

use p2mdie_cluster::{run_cluster, ClusterError, CostModel};
use p2mdie_core::baselines::{run_coverage_parallel, EvalGranularity};
use p2mdie_core::driver::{run_parallel, ParallelConfig};
use p2mdie_core::job::{JobOutcome, JobOutput, JobSpec, JobState};
use p2mdie_core::protocol::{Msg, WorkerConfig, WorkerRole};
use p2mdie_core::remote::{run_remote_worker, TcpConfig};
use p2mdie_core::scheduler::{Service, ServiceConfig};
use p2mdie_core::strategy::Strategy as SearchStrategy;
use p2mdie_datasets::Dataset;
use p2mdie_ilp::examples::Examples;
use p2mdie_ilp::settings::Width;
use p2mdie_logic::clause::{Clause, Literal};
use p2mdie_logic::term::Term;
use p2mdie_obs::metrics;
use proptest::collection;
use proptest::prelude::*;
use std::sync::{mpsc, Mutex, MutexGuard};
use std::time::Duration;

const WORKERS: usize = 2;
const WIDTH: Width = Width::Limit(10);
const WORKER_BIN: &str = env!("CARGO_BIN_EXE_p2mdie-worker");
const WATCHDOG: Duration = Duration::from_secs(120);

/// Rank registries are per process: tests that read the path counters
/// must not share them with a concurrently running service.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Runs `f` on a watchdog thread; a hang fails the test instead of
/// stalling the suite.
fn bounded<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> R {
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(WATCHDOG) {
        Ok(r) => {
            let _ = handle.join();
            r
        }
        Err(_) => panic!("multi-process run exceeded the {WATCHDOG:?} watchdog (hang?)"),
    }
}

/// The trains problem, two example sets over its one KB, and the rules
/// every coverage query scores: the learned theory plus the probe.
struct Fixture {
    ds: Dataset,
    sets: [Examples; 2],
    rules: Vec<Clause>,
}

fn fixture() -> Fixture {
    let ds = p2mdie_datasets::trains(16, 5);
    let ex = &ds.examples;
    let subset = Examples::new(ex.pos[2..].to_vec(), ex.neg[1..6].to_vec());
    let mut rules = run_parallel(&ds.engine, ex, &ParallelConfig::new(WORKERS, WIDTH, 5))
        .unwrap()
        .clauses();
    assert!(!rules.is_empty(), "the reference run must learn a rule");
    let eastbound = ds.syms.intern("eastbound");
    let head = Literal::new(eastbound, vec![Term::Var(0)]);
    rules.push(Clause::new(head.clone(), vec![head]));
    Fixture {
        sets: [ds.examples.clone(), subset],
        ds,
        rules,
    }
}

/// One job of a randomized mix: its kind, example set and partition seed.
#[derive(Clone, Copy, Debug)]
enum Plan {
    Coverage(usize, u64),
    Learn(usize, u64),
    Baseline(usize, u64),
    RuleSearch(usize, u64),
}

fn plan_strategy() -> impl Strategy<Value = Plan> {
    prop_oneof![
        (0usize..2, 1u64..4).prop_map(|(s, seed)| Plan::Coverage(s, seed)),
        (0usize..2, 1u64..4).prop_map(|(s, seed)| Plan::Coverage(s, seed)),
        (0usize..2, 1u64..4).prop_map(|(s, seed)| Plan::Learn(s, seed)),
        (0usize..2, 1u64..4).prop_map(|(s, seed)| Plan::Baseline(s, seed)),
        (0usize..2, 1u64..4).prop_map(|(s, seed)| Plan::RuleSearch(s, seed)),
    ]
}

impl Plan {
    fn spec(self, f: &Fixture) -> JobSpec {
        match self {
            Plan::Coverage(s, seed) => {
                JobSpec::coverage(f.sets[s].clone(), f.rules.clone()).with_seed(seed)
            }
            Plan::Learn(s, seed) => JobSpec::learn(f.sets[s].clone())
                .with_seed(seed)
                .with_width(WIDTH),
            Plan::Baseline(s, seed) => {
                JobSpec::baseline(f.sets[s].clone(), EvalGranularity::PerLevel).with_seed(seed)
            }
            Plan::RuleSearch(s, seed) => JobSpec::rule_search(f.sets[s].clone()).with_seed(seed),
        }
    }

    /// Asserts `outcome` equals this job run alone.
    fn check(self, f: &Fixture, outcome: &JobOutcome) {
        assert_eq!(
            outcome.state,
            JobState::Done,
            "{self:?}: job failed: {:?}",
            outcome.error
        );
        match self {
            Plan::Coverage(s, _) => {
                for (rule, counts) in f.rules.iter().zip(outcome.coverage()) {
                    let cov = f.ds.engine.evaluate(rule, &f.sets[s], None, None);
                    assert_eq!(
                        (cov.pos_count(), cov.neg_count()),
                        *counts,
                        "{self:?}: coverage drifted from IlpEngine::evaluate"
                    );
                }
            }
            Plan::Learn(s, seed) => {
                let solo = run_parallel(
                    &f.ds.engine,
                    &f.sets[s],
                    &ParallelConfig::new(WORKERS, WIDTH, seed),
                )
                .unwrap();
                let learned = outcome.learned();
                assert_eq!(learned.theory, solo.theory, "{self:?}: theory drifted");
                assert_eq!(learned.epochs, solo.epochs, "{self:?}: epochs drifted");
                assert_eq!(learned.set_aside, solo.set_aside, "{self:?}: set-aside");
                assert_eq!(
                    outcome.accounting.worker_steps, solo.worker_steps,
                    "{self:?}: per-rank worker steps drifted"
                );
            }
            Plan::Baseline(s, seed) => {
                let solo = run_coverage_parallel(
                    &f.ds.engine,
                    &f.sets[s],
                    WORKERS,
                    EvalGranularity::PerLevel,
                    CostModel::beowulf_2005(),
                    seed,
                )
                .unwrap();
                let Some(JobOutput::BaselineLearned {
                    theory,
                    epochs,
                    set_aside,
                }) = &outcome.output
                else {
                    panic!(
                        "{self:?}: expected a baseline output, got {:?}",
                        outcome.output
                    );
                };
                assert_eq!(theory, &solo.theory, "{self:?}: theory drifted");
                assert_eq!(*epochs, solo.epochs, "{self:?}: epochs drifted");
                assert_eq!(*set_aside, solo.set_aside, "{self:?}: set-aside drifted");
            }
            Plan::RuleSearch(..) => {
                let service = Service::new(&f.ds.engine, ServiceConfig::new(WORKERS));
                let solo = service.submit(self.spec(f)).unwrap().wait();
                service.shutdown().unwrap();
                let (Some(JobOutput::Rules(got)), Some(JobOutput::Rules(want))) =
                    (&outcome.output, &solo.output)
                else {
                    panic!("{self:?}: expected rule bags, got {:?}", outcome.output);
                };
                assert_eq!(got, want, "{self:?}: rule bag drifted from a fresh service");
            }
        }
    }
}

/// Submits `plan` and waits for it, so dispatch order is submission order.
fn run_one(service: &Service, f: &Fixture, plan: Plan) -> JobOutcome {
    let outcome = service.submit(plan.spec(f)).unwrap().wait();
    plan.check(f, &outcome);
    outcome
}

/// Reads one of rank 0's `scheduler_job_inputs_total` counters.
fn inputs_taken(path: &str) -> u64 {
    metrics::rank_registry(0)
        .snapshot()
        .counter(&format!("scheduler_job_inputs_total{{path=\"{path}\"}}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A fixed prefix — a coverage job and a hit, a baseline-learn job that
    /// writes `MarkCovered` rules on the resident inputs, coverage again,
    /// then learn and rule-search jobs on a new deal of the same set —
    /// followed by a random interleaving of every job kind over two
    /// example sets and several seeds. Each job equals its solo run, and
    /// the probe rule never covers anything.
    #[test]
    fn resident_inputs_match_solo_runs(
        seed in 1u64..4,
        set in 0usize..2,
        tail in collection::vec(plan_strategy(), 2..7),
        submit_order in collection::vec(0usize..64, 7),
    ) {
        let _serial = serial();
        let f = fixture();
        let service = Service::new(&f.ds.engine, ServiceConfig::new(WORKERS));
        let other_seed = seed % 3 + 1;
        let prefix = [
            Plan::Coverage(set, seed),
            Plan::Coverage(set, seed),
            Plan::Baseline(set, seed),
            Plan::Coverage(set, seed),
            // Same set, new seed: must ship; then a hit on the new deal.
            Plan::Learn(set, other_seed),
            Plan::RuleSearch(set, other_seed),
            Plan::Learn(set, other_seed),
        ];
        for plan in prefix {
            run_one(&service, &f, plan);
        }
        let mut order: Vec<usize> = (0..tail.len()).collect();
        order.sort_by_key(|&i| submit_order.get(i).copied().unwrap_or(0));
        let handles: Vec<_> = order
            .iter()
            .map(|&i| (tail[i], service.submit(tail[i].spec(&f)).expect("queue fits the mix")))
            .collect();
        for (plan, handle) in handles {
            plan.check(&f, &handle.wait());
        }
        let report = service.shutdown().unwrap();
        prop_assert_eq!(report.jobs_run as usize, prefix.len() + tail.len());
        prop_assert_eq!(report.dropped_sends, 0);
    }
}

/// N identical coverage jobs ship their inputs once and then find them
/// resident; a learn job with a new seed ships again; a baseline-learn job
/// over those inputs is a hit that copies the KB once per rank.
#[test]
fn repeated_coverage_jobs_take_the_resident_path() {
    const N: u64 = 5;
    let _serial = serial();
    metrics::reset_rank_registries();
    let f = fixture();
    let service = Service::new(&f.ds.engine, ServiceConfig::new(WORKERS));
    let outcomes: Vec<JobOutcome> = (0..N)
        .map(|_| run_one(&service, &f, Plan::Coverage(0, 1)))
        .collect();
    assert_eq!(
        (inputs_taken("shipped"), inputs_taken("resident")),
        (1, N - 1)
    );
    assert!(
        outcomes[1].accounting.bytes < outcomes[0].accounting.bytes,
        "a resident job must ship fewer bytes ({} vs {})",
        outcomes[1].accounting.bytes,
        outcomes[0].accounting.bytes
    );
    assert_eq!(
        outcomes[1].accounting.worker_steps, outcomes[0].accounting.worker_steps,
        "both paths run the same work"
    );

    run_one(&service, &f, Plan::Learn(0, 9));
    assert_eq!(
        (inputs_taken("shipped"), inputs_taken("resident")),
        (2, N - 1)
    );
    run_one(&service, &f, Plan::Baseline(0, 9));
    assert_eq!((inputs_taken("shipped"), inputs_taken("resident")), (2, N));
    // A different layout over the same set and seed is a miss.
    let replicated = JobSpec::learn(f.sets[0].clone())
        .with_seed(9)
        .with_width(WIDTH)
        .with_strategy(SearchStrategy::SearchPartition);
    assert_eq!(
        service.submit(replicated).unwrap().wait().state,
        JobState::Done
    );
    assert_eq!((inputs_taken("shipped"), inputs_taken("resident")), (3, N));

    let report = service.shutdown().unwrap();
    for (rank, snap) in report.worker_metrics.iter().enumerate() {
        assert_eq!(
            snap.counter("worker_kb_copies_total"),
            1,
            "rank {}: only the baseline-learn job copies the KB",
            rank + 1
        );
    }
    let dump = metrics::rank_registry(0).snapshot().prometheus();
    assert!(
        dump.contains(&format!(
            "scheduler_job_inputs_total{{path=\"resident\"}} {N}"
        )),
        "the Prometheus dump must carry the path counter:\n{dump}"
    );
}

/// The TCP twin over real `p2mdie-worker` processes: the first job arrives
/// through the worker's bootstrap, the next ones are resident hits — a
/// coverage query, a baseline-learn job that copies the KB in the worker
/// process, and a coverage query that must not see its rules.
#[test]
fn tcp_bootstrap_job_then_resident_hits() {
    let _serial = serial();
    metrics::reset_rank_registries();
    let f = std::sync::Arc::new(fixture());
    let plans = [
        Plan::Coverage(1, 2),
        Plan::Coverage(1, 2),
        Plan::Baseline(1, 2),
        Plan::Coverage(1, 2),
    ];
    let shared = std::sync::Arc::clone(&f);
    let (outcomes, report) = bounded(move || {
        let f = &*shared;
        let service = Service::new_tcp(
            &f.ds.engine,
            ServiceConfig::new(WORKERS),
            &TcpConfig::with_worker_bin(WORKER_BIN),
        );
        let outcomes: Vec<JobOutcome> = plans
            .iter()
            .map(|plan| service.submit(plan.spec(f)).unwrap().wait())
            .collect();
        (outcomes, service.shutdown().unwrap())
    });
    for (plan, outcome) in plans.iter().zip(&outcomes) {
        plan.check(&f, outcome);
    }
    assert_eq!((inputs_taken("shipped"), inputs_taken("resident")), (1, 3));
    assert!(outcomes[1].accounting.bytes < outcomes[0].accounting.bytes);
    assert_eq!(report.dropped_sends, 0);
    for (rank, snap) in report.worker_metrics.iter().enumerate() {
        assert_eq!(
            snap.counter("worker_kb_copies_total"),
            1,
            "rank {}: the worker process copies its KB once, for the baseline job",
            rank + 1
        );
    }
}

fn coverage_config(f: &Fixture) -> Box<WorkerConfig> {
    Box::new(WorkerConfig {
        role: WorkerRole::Coverage,
        modes: f.ds.engine.modes.clone(),
        settings: f.ds.engine.settings.clone(),
        strategy: SearchStrategy::DataPipeline,
        strategy_seed: 0,
    })
}

/// Drives one worker running [`run_remote_worker`] with `frames` and
/// returns how the run failed.
fn unexpected_frame_error(frames: Vec<Msg>) -> ClusterError {
    let f = fixture();
    let mut frames = Some(frames);
    let err = run_cluster(
        1,
        CostModel::free(),
        |ep| {
            ep.send(1, &Msg::KbSnapshot(Box::new(f.ds.engine.kb.to_snapshot())));
            for frame in frames.take().expect("master runs once") {
                ep.send(1, &frame);
            }
            // Drains replies until the worker's failure poisons the mesh.
            while ep.recv_from(1).is_ok() {}
        },
        |ep| {
            run_remote_worker(ep);
        },
    )
    .unwrap_err();
    eprintln!("surfaced: {err}");
    err
}

/// A resident frame before any examples were shipped, or in the middle of
/// a job, fails the run with an error naming the worker's rank.
#[test]
fn unexpected_resident_frame_fails_rank_tagged() {
    let f = fixture();
    let resident = || Msg::SubmitResident {
        id: 7,
        config: coverage_config(&f),
    };
    let at_bootstrap = unexpected_frame_error(vec![resident()]);
    let mid_job = unexpected_frame_error(vec![
        Msg::SubmitJob {
            id: 6,
            config: coverage_config(&f),
            pos: f.sets[0].pos.clone(),
            neg: f.sets[0].neg.clone(),
        },
        resident(),
    ]);
    for err in [at_bootstrap, mid_job] {
        match &err {
            ClusterError::WorkerPanicked { rank, message } => {
                assert_eq!(*rank, 1, "{err}");
                assert!(message.contains("worker 1"), "{err}");
                assert!(message.contains("SubmitResident"), "{err}");
            }
            other => panic!("expected a panic tagged with rank 1, got {other}"),
        }
    }
}
