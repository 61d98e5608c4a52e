//! ILP as a service: one resident p²-mdie mesh serving several jobs.
//!
//! A [`Service`] builds the cluster once — workers adopt the compiled KB
//! snapshot at construction and then stay resident — and every submission
//! after that ships only its job description (examples, settings, rules to
//! score). Here two coverage queries and a full learning run are submitted
//! concurrently over one standing two-worker mesh; the mesh multiplexes
//! them back to back, and no job's accepted rules reach the resident KB.
//! A client then re-scores the theory one query at a time: each query
//! whose inputs match the previous job's runs on the example subsets the
//! workers kept, so only the rules travel. The closing counters show
//! which path each job's inputs took (`shipped` or `resident`) and how
//! often a worker copied the KB (only a baseline-learn job writes to it).
//!
//! ```sh
//! cargo run --release --example service
//! ```

use p2mdie::core::baselines::EvalGranularity;
use p2mdie::core::driver::{run_parallel, ParallelConfig};
use p2mdie::core::job::{JobSpec, JobState};
use p2mdie::core::scheduler::{Service, ServiceConfig};
use p2mdie::ilp::settings::Width;
use p2mdie::obs::{metrics, MetricEntry, MetricsSnapshot};

fn main() {
    let ds = p2mdie::datasets::trains(20, 5);
    let workers = 2;
    let width = Width::Limit(10);

    // Rules for the coverage queries: what a fresh one-shot run learns.
    // (Also the reference the service's learning job must reproduce.)
    let reference = run_parallel(
        &ds.engine,
        &ds.examples,
        &ParallelConfig::new(workers, width, 5),
    )
    .expect("one-shot reference run");
    let rules = reference.clauses();

    println!(
        "dataset: {} ({} pos / {} neg), resident mesh: {workers} workers, Beowulf-2005\n",
        ds.name,
        ds.examples.num_pos(),
        ds.examples.num_neg()
    );

    // Build the mesh once. The compiled KB ships to every worker here and
    // never again.
    let service = Service::new(&ds.engine, ServiceConfig::new(workers));

    // Submit all three jobs up front: the handles return immediately and
    // the scheduler multiplexes the queue over the standing workers.
    let full_theory = service
        .submit(JobSpec::coverage(ds.examples.clone(), rules.clone()))
        .expect("submit coverage #1");
    let first_rule = service
        .submit(JobSpec::coverage(
            ds.examples.clone(),
            vec![rules[0].clone()],
        ))
        .expect("submit coverage #2");
    let learn = service
        .submit(
            JobSpec::learn(ds.examples.clone())
                .with_seed(5)
                .with_width(width),
        )
        .expect("submit learn");
    println!(
        "submitted: {} (coverage, {} rules), {} (coverage, 1 rule), {} (learning run)\n",
        full_theory.id(),
        rules.len(),
        first_rule.id(),
        learn.id()
    );

    // Coverage query #1: global (pos, neg) counts for the whole theory.
    let outcome = full_theory.wait();
    assert_eq!(outcome.state, JobState::Done, "{:?}", outcome.error);
    println!(
        "{} — theory coverage over the full example set:",
        outcome.id
    );
    for (rule, (pos, neg)) in rules.iter().zip(outcome.coverage()) {
        println!("  ({pos:>3}+/{neg:>2}-)  {}", rule.display(&ds.syms));
    }
    println!(
        "  [{} B / {} msgs / {:.3} s virtual]\n",
        outcome.accounting.bytes, outcome.accounting.messages, outcome.accounting.vtime
    );

    // Coverage query #2: just the first rule.
    let outcome = first_rule.wait();
    assert_eq!(outcome.state, JobState::Done, "{:?}", outcome.error);
    let (pos, neg) = outcome.coverage()[0];
    println!(
        "{} — first rule alone covers {pos}+/{neg}-  [{} B / {} msgs]\n",
        outcome.id, outcome.accounting.bytes, outcome.accounting.messages
    );

    // The learning run: a complete p²-mdie induction as one queued job,
    // bit-identical to the one-shot entry point with the same seed.
    let outcome = learn.wait();
    assert_eq!(outcome.state, JobState::Done, "{:?}", outcome.error);
    let learned = outcome.learned();
    println!(
        "{} — learned theory ({} epochs):",
        outcome.id, learned.epochs
    );
    for rule in &learned.theory {
        println!(
            "  [epoch {}, origin w{}] ({}+/{}-)  {}",
            rule.epoch,
            rule.origin,
            rule.pos,
            rule.neg,
            rule.clause.display(&ds.syms)
        );
    }
    assert_eq!(
        learned.theory, reference.theory,
        "a service learning job must match the one-shot run bit for bit"
    );
    println!("  identical to the fresh-mesh one-shot run with the same seed\n");

    // A closed-loop client: the whole theory, then each rule alone, one
    // query at a time over the same examples. A query whose examples and
    // partition seed match the previous job's finds its inputs resident
    // and ships only its rules; one after the learning run (seed 5, not
    // the default 42) ships the example subsets again.
    let queries: Vec<Vec<_>> = std::iter::once(rules.clone())
        .chain(rules.iter().map(|r| vec![r.clone()]))
        .collect();
    for query in &queries {
        let outcome = service
            .submit(JobSpec::coverage(ds.examples.clone(), query.clone()))
            .expect("submit coverage")
            .wait();
        assert_eq!(outcome.state, JobState::Done, "{:?}", outcome.error);
        println!(
            "{} — {} rule(s) re-scored  [{} B / {} msgs]",
            outcome.id,
            query.len(),
            outcome.accounting.bytes,
            outcome.accounting.messages
        );
    }
    // A baseline-learn job on the same inputs writes accepted rules: each
    // worker copies the resident KB at its first write, and the copy dies
    // with the job.
    let outcome = service
        .submit(JobSpec::baseline(
            ds.examples.clone(),
            EvalGranularity::PerLevel,
        ))
        .expect("submit baseline")
        .wait();
    assert_eq!(outcome.state, JobState::Done, "{:?}", outcome.error);
    println!(
        "{} — baseline-learn run on the resident inputs\n",
        outcome.id
    );

    let report = service.shutdown().expect("clean shutdown");
    let job_bytes: u64 = report.total_bytes;
    println!(
        "service lifetime: {} jobs over one mesh — {} B / {} msgs total, \
         master vtime {:.3} s, {} dropped sends",
        report.jobs_run,
        job_bytes,
        report.total_messages,
        report.master_vtime,
        report.dropped_sends
    );
    let inputs: Vec<MetricEntry> = metrics::rank_registry(0)
        .snapshot()
        .entries
        .into_iter()
        .filter(|e| e.name.starts_with("scheduler_job_inputs_total"))
        .collect();
    println!("\njob inputs (rank 0):");
    print!("{}", MetricsSnapshot::from_entries(inputs).prometheus());
    for (i, snap) in report.worker_metrics.iter().enumerate() {
        println!(
            "worker {}: worker_kb_copies_total {}",
            i + 1,
            snap.counter("worker_kb_copies_total")
        );
    }
}
