//! The traced run: per-layer metrics for one workload.
//!
//! It runs apart from the timed runs, on the workload's first dataset.
//! Span-based rows come from the `epoch`, `stage` and `send` records the
//! program already emits, read back from the flight recorder (in-process
//! meshes) or from the merged per-rank JSONL files that `P2MDIE_TRACE`
//! makes worker processes write (TCP meshes). The other rows time the
//! benchmark's own calls into each module's public functions on the same
//! inputs. The prover hot counters are on for the traced learning runs;
//! over TCP they see only this (master) process.

use crate::stats::{self, Outcome, Tally};
use crate::workload::{self, same_decisions, sub_seed, RulePool, RunResult, Workload, WORKERS};
use p2mdie_cluster::{
    from_bytes, to_bytes, worker_connect, CostModel, Envelope, MasterRendezvous, Transport,
    TransportEvent,
};
use p2mdie_core::{
    run_parallel, run_sequential_timed, JobOutput, JobSpec, ParallelReport, Service, ServiceConfig,
    Strategy, TcpConfig,
};
use p2mdie_datasets::Dataset;
use p2mdie_logic::clause::{Clause, Literal};
use p2mdie_logic::kb::KnowledgeBase;
use p2mdie_logic::snapshot::KbSnapshot;
use p2mdie_logic::symbol::SymbolTable;
use p2mdie_obs::metrics::{self, hot};
use p2mdie_obs::trace::{self, TraceConfig};
use p2mdie_obs::{MetricEntry, MetricValue, MetricsSnapshot, Phase, Trace};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Where the traced run writes its layer table, metric snapshots and
/// trace files, relative to the directory the benchmark runs from.
const OUT_DIR: &str = "perfbench/out";

/// Repetitions of each traced and untraced data-pipeline run.
const REPS: usize = 5;

/// Names and units of the per-layer metrics, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("datasets.gen_ms", "ms"),
    ("logic.kb.clone_ms", "ms"),
    ("logic.snapshot.bytes", "bytes"),
    ("logic.snapshot.encode_ms", "ms"),
    ("logic.snapshot.decode_ms", "ms"),
    ("logic.prover.steps", "count"),
    ("logic.prover.ns_per_step", "ns"),
    ("logic.prover.posting_probe_hits", "count"),
    ("logic.prover.posting_probe_hit_frac", "fraction"),
    ("logic.prover.batch_occupancy_mean", "goals"),
    ("ilp.bottom.calls", "count"),
    ("ilp.bottom.busy_ms", "ms"),
    ("ilp.bottom.body_lits_mean", "literals"),
    ("ilp.search.calls", "count"),
    ("ilp.search.busy_ms", "ms"),
    ("ilp.search.nodes", "count"),
    ("ilp.search.us_per_node", "us"),
    ("ilp.search.good_frac", "fraction"),
    ("ilp.coverage.calls", "count"),
    ("ilp.coverage.busy_ms", "ms"),
    ("ilp.coverage.ns_per_example", "ns"),
    ("cluster.codec.encode_mb_s", "MB/s"),
    ("cluster.codec.decode_mb_s", "MB/s"),
    ("cluster.bytes.master", "bytes"),
    ("cluster.bytes.pipeline", "bytes"),
    ("cluster.bytes.constraint", "bytes"),
    ("cluster.messages", "count"),
    ("cluster.net.rtt_us", "us"),
    ("core.remote.spawn_ms", "ms"),
    ("core.master.epochs", "count"),
    ("core.master.epoch_ms", "ms"),
    ("core.worker.stage_busy_frac.r1", "fraction"),
    ("core.worker.stage_busy_frac.r2", "fraction"),
    ("core.worker.wait_ms.r1", "ms"),
    ("core.worker.wait_ms.r2", "ms"),
    ("core.worker.step_imbalance", "ratio"),
    ("core.scheduler.job_overhead_ms", "ms"),
    ("core.scheduler.job_p99_ms", "ms"),
    ("core.strategy.step_ratio.search_partition", "ratio"),
    ("core.strategy.step_ratio.constraint_driven", "ratio"),
    ("core.strategy.constraint_bytes", "bytes"),
    ("obs.trace_overhead_frac", "fraction"),
    ("calib.speedup_error", "fraction"),
    ("calib.unattributed_frac", "fraction"),
];

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median wall milliseconds of `reps` calls of `f`.
fn time_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            ms(t.elapsed())
        })
        .collect();
    stats::median(&samples)
}

/// What the span records of one traced data-pipeline run say.
#[derive(Debug, Default)]
struct SpanFacts {
    epochs: usize,
    epoch_ms_total: f64,
    /// Per worker rank: (busy ms inside `stage` spans, rank wall ms).
    stage: BTreeMap<u32, (f64, f64)>,
    master_bytes: u64,
    pipeline_bytes: u64,
    sends: u64,
}

/// Pairs `B`/`E` records per rank (in emission order) and sums the wall
/// time of `epoch` spans on the master and `stage` spans on the workers;
/// sums `send` bytes by sending side.
fn span_facts(trace: &Trace) -> SpanFacts {
    let mut facts = SpanFacts::default();
    let mut by_rank: BTreeMap<u32, Vec<&p2mdie_obs::Event>> = BTreeMap::new();
    for ev in &trace.events {
        by_rank.entry(ev.rank).or_default().push(ev);
    }
    for (rank, mut evs) in by_rank {
        evs.sort_by_key(|e| e.seq);
        let first = evs.first().map_or(0, |e| e.wall_ns);
        let last = evs.last().map_or(0, |e| e.wall_ns);
        let mut open: Vec<(&str, u64)> = Vec::new();
        let mut busy_ns = 0u64;
        for ev in evs {
            match ev.phase {
                Phase::Begin => open.push((&ev.name, ev.wall_ns)),
                Phase::End => {
                    let Some(pos) = open.iter().rposition(|(n, _)| *n == ev.name) else {
                        continue;
                    };
                    let (name, t0) = open.remove(pos);
                    let dur = ev.wall_ns.saturating_sub(t0);
                    match name {
                        "epoch" if rank == 0 => {
                            facts.epochs += 1;
                            facts.epoch_ms_total += dur as f64 / 1e6;
                        }
                        "stage" if rank > 0 => busy_ns += dur,
                        _ => {}
                    }
                }
                Phase::Instant if ev.name == "send" => {
                    let bytes = ev
                        .args
                        .iter()
                        .find(|(k, _)| k == "bytes")
                        .and_then(|(_, v)| match v {
                            p2mdie_obs::Value::U64(b) => Some(*b),
                            _ => None,
                        })
                        .unwrap_or(0);
                    facts.sends += 1;
                    if rank == 0 {
                        facts.master_bytes += bytes;
                    } else {
                        facts.pipeline_bytes += bytes;
                    }
                }
                Phase::Instant => {}
            }
        }
        if rank > 0 {
            let wall_ms = last.saturating_sub(first) as f64 / 1e6;
            facts.stage.insert(rank, (busy_ns as f64 / 1e6, wall_ms));
        }
    }
    facts
}

/// One data-pipeline run of the workload with the flight recorder on:
/// an in-process session, or `P2MDIE_TRACE` for the worker processes of
/// a TCP mesh (the spawner merges the per-rank files into `base`).
fn traced_run(
    w: Workload,
    ds: &Dataset,
    pseed: u64,
    base: &Path,
) -> (Result<ParallelReport, String>, f64, Option<Trace>) {
    let cfg = w.config(pseed, Strategy::DataPipeline);
    if w.tcp() {
        let base = base.to_string_lossy().into_owned();
        // Set while no other thread of this process runs.
        std::env::set_var("P2MDIE_TRACE", &base);
        let t = Instant::now();
        let res = run_parallel(&ds.engine, &ds.examples, &cfg);
        let wall = ms(t.elapsed());
        std::env::remove_var("P2MDIE_TRACE");
        let trace = std::fs::read_to_string(&base)
            .ok()
            .and_then(|text| Trace::from_jsonl(&text).ok());
        (res.map_err(|e| e.to_string()), wall, trace)
    } else {
        trace::start(TraceConfig::default());
        let t = Instant::now();
        let res = run_parallel(&ds.engine, &ds.examples, &cfg);
        let wall = ms(t.elapsed());
        let trace = trace::finish().map(|(t, _)| t);
        (res.map_err(|e| e.to_string()), wall, trace)
    }
}

/// Median small-frame round trip, in microseconds, on a loopback pair
/// built with the mesh's own rendezvous.
fn loopback_rtt_us(trips: usize) -> Result<f64, String> {
    let timeout = Duration::from_secs(10);
    let rv = MasterRendezvous::bind("127.0.0.1:0").map_err(|e| e.message)?;
    let addr = rv.local_addr().map_err(|e| e.message)?.to_string();
    let echo = std::thread::spawn(move || -> Result<(), String> {
        let (mut t, _) = worker_connect(&addr, 1, timeout).map_err(|e| e.message)?;
        while let TransportEvent::Envelope(env) = t.recv() {
            t.send(0, Envelope { from: 1, ..env });
        }
        Ok(())
    });
    let result = rv
        .accept_workers(1, CostModel::beowulf_2005(), timeout)
        .map_err(|e| e.message)
        .and_then(|mut t| {
            let mut rtts = Vec::with_capacity(trips);
            for i in 0..trips {
                let env = Envelope {
                    from: 0,
                    arrival: 0.0,
                    poison: false,
                    payload: to_bytes(&(i as u64)),
                };
                let start = Instant::now();
                if !t.send(1, env) {
                    return Err("loopback send failed".to_owned());
                }
                match t.recv() {
                    TransportEvent::Envelope(_) => rtts.push(start.elapsed().as_secs_f64() * 1e6),
                    other => return Err(format!("loopback recv: {other:?}")),
                }
            }
            Ok(stats::median(&rtts))
        });
    // Dropping the master transport closed the link; the echo ends.
    let echoed = echo.join().map_err(|_| "echo thread panicked".to_owned())?;
    let rtt = result?;
    echoed?;
    Ok(rtt)
}

/// Milliseconds from `Service::new_tcp` until a first empty coverage job
/// returns.
fn tcp_service_ready_ms(ds: &Dataset) -> Result<f64, String> {
    let t = Instant::now();
    let svc = Service::new_tcp(
        &ds.engine,
        ServiceConfig::new(WORKERS),
        &TcpConfig::default(),
    );
    let first = svc
        .submit(JobSpec::coverage(ds.examples.clone(), Vec::new()))
        .map_err(|e| e.to_string())?
        .wait();
    let ready = ms(t.elapsed());
    svc.shutdown().map_err(|e| e.to_string())?;
    match first.output {
        Some(JobOutput::Coverage(c)) if c.is_empty() => Ok(ready),
        _ => Err(format!("first empty job: {:?}", first.error)),
    }
}

/// Adds a `rank` label to a metric name.
fn with_rank(name: &str, rank: usize) -> String {
    match name.split_once('{') {
        Some((base, rest)) => format!("{base}{{rank=\"{rank}\",{rest}"),
        None => format!("{name}{{rank=\"{rank}\"}}"),
    }
}

/// Runs the traced pass of `w` on its first dataset.
pub fn run(w: Workload, seed: u64) -> RunResult {
    let mut tally = Tally::default();
    let mut notes = Vec::new();
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let out = Path::new(OUT_DIR);
    std::fs::create_dir_all(out).expect("create perfbench/out");
    let stem = format!("{}-seed{seed}", w.name());

    // datasets
    m.insert("datasets.gen_ms", time_ms(5, || w.dataset(seed, 0)));
    let ds = w.dataset(seed, 0);
    let pseed = sub_seed(seed, 1000);
    let model = CostModel::beowulf_2005();

    // Learning runs: the sequential baseline, untraced and traced
    // data-pipeline runs alternating, then the other strategies.
    let seq = run_sequential_timed(&ds.engine, &ds.examples, &model);
    let seq_wall_ms = ms(seq.wall);
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut last: Option<(ParallelReport, Option<Trace>)> = None;
    for rep in 0..REPS {
        let cfg = w.config(pseed, Strategy::DataPipeline);
        let t = Instant::now();
        let untraced = run_parallel(&ds.engine, &ds.examples, &cfg);
        plain.push(ms(t.elapsed()));
        if rep == REPS - 1 {
            hot::reset();
        }
        hot::enable();
        let base = out.join(format!("{stem}.trace{rep}.jsonl"));
        let (res, wall, trace) = traced_run(w, &ds, pseed, &base);
        hot::disable();
        traced.push(wall);
        // Tracing must not change what the run decides.
        match (untraced, res) {
            (Ok(u), Ok(r)) => {
                let same = same_decisions(&r, &u).and_then(|()| {
                    if r.vtime.to_bits() == u.vtime.to_bits() {
                        Ok(())
                    } else {
                        Err("traced run differs in virtual time".to_owned())
                    }
                });
                tally.record(match same {
                    Ok(()) => Outcome::Ok,
                    Err(e) => Outcome::Wrong(format!("traced vs untraced: {e}")),
                });
                last = Some((r, trace));
            }
            (Err(e), _) => tally.record(Outcome::Errored(format!("untraced run: {e}"))),
            (_, Err(e)) => tally.record(Outcome::Errored(format!("traced run: {e}"))),
        }
    }
    let (dp, trace) = last.expect("a traced data-pipeline run succeeded");
    let trace = trace.unwrap_or_default();
    tally.check(!trace.events.is_empty(), || {
        "traced run recorded nothing".into()
    });
    let facts = span_facts(&trace);
    notes.push(format!(
        "traced data-pipeline run: {} records, {} epoch spans, wall ms untraced {:?} traced {:?}",
        trace.events.len(),
        facts.epochs,
        plain,
        traced
    ));
    let mut strat: BTreeMap<&'static str, ParallelReport> = BTreeMap::new();
    for s in [Strategy::SearchPartition, Strategy::ConstraintDriven] {
        match run_parallel(&ds.engine, &ds.examples, &w.config(pseed, s)) {
            Ok(r) => {
                strat.insert(s.label(), r);
            }
            Err(e) => tally.record(Outcome::Errored(format!("{}: {e}", s.label()))),
        }
    }

    // logic
    let dp_steps: u64 = dp.worker_steps.iter().sum();
    m.insert("logic.kb.clone_ms", time_ms(20, || ds.engine.kb.clone()));
    let snap_bytes = to_bytes(&ds.engine.kb.to_snapshot());
    m.insert("logic.snapshot.bytes", snap_bytes.len() as f64);
    m.insert(
        "logic.snapshot.encode_ms",
        time_ms(10, || to_bytes(&ds.engine.kb.to_snapshot())),
    );
    let decode_ms = time_ms(10, || {
        let snap: KbSnapshot = from_bytes(snap_bytes.clone()).expect("snapshot decodes");
        KnowledgeBase::from_snapshot(snap, SymbolTable::new()).expect("snapshot restores")
    });
    m.insert("logic.snapshot.decode_ms", decode_ms);
    m.insert("logic.prover.steps", dp_steps as f64);
    m.insert(
        "logic.prover.ns_per_step",
        seq_wall_ms * 1e6 / seq.steps as f64,
    );
    // ilp: saturation of every positive, searches from the first few
    // bottoms, coverage of the job pool's rules. The hot counters stay on
    // for these calls, so they also count prover work on the workload's
    // inputs when the learning run's workers are other processes.
    let pool = RulePool::build(&ds, seed, workload::SERVE_POOL_SEARCHES);
    assert!(
        !pool.rules.is_empty(),
        "no candidate rules for coverage jobs"
    );
    hot::enable();
    let mut bottoms = Vec::new();
    let mut busy = Duration::ZERO;
    for ex in &ds.examples.pos {
        let t = Instant::now();
        let b = ds.engine.saturate(ex);
        busy += t.elapsed();
        bottoms.extend(b);
    }
    m.insert("ilp.bottom.calls", ds.examples.num_pos() as f64);
    m.insert("ilp.bottom.busy_ms", ms(busy));
    m.insert(
        "ilp.bottom.body_lits_mean",
        bottoms.iter().map(|b| b.body_len()).sum::<usize>() as f64 / bottoms.len() as f64,
    );
    let (mut nodes, mut good, mut busy) = (0usize, 0usize, Duration::ZERO);
    let searched = bottoms.len().min(6);
    for b in &bottoms[..searched] {
        let t = Instant::now();
        let o = ds.engine.search(b, &ds.examples, None, &[]);
        busy += t.elapsed();
        nodes += o.nodes;
        good += o.good.len();
    }
    m.insert("ilp.search.calls", searched as f64);
    m.insert("ilp.search.busy_ms", ms(busy));
    m.insert("ilp.search.nodes", nodes as f64);
    m.insert("ilp.search.us_per_node", ms(busy) * 1e3 / nodes as f64);
    m.insert("ilp.search.good_frac", good as f64 / nodes as f64);
    let eval_ms: Vec<f64> = pool
        .rules
        .iter()
        .map(|r| time_ms(3, || ds.engine.evaluate(r, &ds.examples, None, None)))
        .collect();
    let eval_total: f64 = eval_ms.iter().sum();
    m.insert("ilp.coverage.calls", pool.rules.len() as f64);
    m.insert("ilp.coverage.busy_ms", eval_total);
    m.insert(
        "ilp.coverage.ns_per_example",
        eval_total * 1e6 / (pool.rules.len() * ds.examples.len()) as f64,
    );
    hot::disable();
    let hot_entries = hot::entries();
    let hot = MetricsSnapshot::from_entries(hot_entries.clone());
    let hits = hot.counter("prover_posting_probe_hits_total") as f64;
    let misses = hot.counter("prover_posting_probe_misses_total") as f64;
    m.insert("logic.prover.posting_probe_hits", hits);
    m.insert(
        "logic.prover.posting_probe_hit_frac",
        hits / (hits + misses),
    );
    let occupancy = match hot.get("prover_batch_occupancy") {
        Some(MetricValue::Histogram { count, sum, .. }) => *sum as f64 / *count as f64,
        _ => f64::NAN,
    };
    m.insert("logic.prover.batch_occupancy_mean", occupancy);
    // Raw counters that read 0 on some workloads: reported, but not
    // declared as metrics.
    let raw = [
        ("logic.prover.posting_probe_misses", misses, "count"),
        (
            "logic.prover.all_ground_kernel",
            hot.counter("prover_all_ground_kernel_total") as f64,
            "count",
        ),
    ];

    // cluster: codec throughput on the workload's own payloads.
    let examples = (ds.examples.pos.clone(), ds.examples.neg.clone());
    let theory: Vec<Clause> = dp.clauses();
    let ex_bytes = to_bytes(&examples);
    let th_bytes = to_bytes(&theory);
    let total_mb = (snap_bytes.len() + ex_bytes.len() + th_bytes.len()) as f64 / 1e6;
    let snapshot = ds.engine.kb.to_snapshot();
    let enc_ms = time_ms(10, || {
        (to_bytes(&snapshot), to_bytes(&examples), to_bytes(&theory))
    });
    let dec_ms = time_ms(10, || {
        let s: KbSnapshot = from_bytes(snap_bytes.clone()).expect("snapshot decodes");
        let e: (Vec<Literal>, Vec<Literal>) = from_bytes(ex_bytes.clone()).expect("examples");
        let t: Vec<Clause> = from_bytes(th_bytes.clone()).expect("theory decodes");
        (s, e, t)
    });
    m.insert("cluster.codec.encode_mb_s", total_mb / (enc_ms / 1e3));
    m.insert("cluster.codec.decode_mb_s", total_mb / (dec_ms / 1e3));
    m.insert("cluster.bytes.master", facts.master_bytes as f64);
    m.insert("cluster.bytes.pipeline", facts.pipeline_bytes as f64);
    let cd = strat.get(Strategy::ConstraintDriven.label());
    m.insert(
        "cluster.bytes.constraint",
        cd.map_or(f64::NAN, |r| r.constraint_bytes as f64),
    );
    m.insert("cluster.messages", dp.total_messages as f64);
    tally.check(facts.sends == dp.total_messages, || {
        format!(
            "send records {} != reported messages {}",
            facts.sends, dp.total_messages
        )
    });
    match loopback_rtt_us(500) {
        Ok(us) => {
            m.insert("cluster.net.rtt_us", us);
        }
        Err(e) => tally.record(Outcome::Errored(format!("loopback rtt: {e}"))),
    }

    // core
    let mut ready = Vec::new();
    for _ in 0..3 {
        match tcp_service_ready_ms(&ds) {
            Ok(v) => ready.push(v),
            Err(e) => tally.record(Outcome::Errored(format!("service start: {e}"))),
        }
    }
    let spawn_ms = stats::median(&ready) - decode_ms;
    m.insert("core.remote.spawn_ms", spawn_ms);
    m.insert("core.master.epochs", facts.epochs as f64);
    m.insert(
        "core.master.epoch_ms",
        facts.epoch_ms_total / facts.epochs as f64,
    );
    for r in 1..=WORKERS as u32 {
        let (busy, wall) = facts.stage.get(&r).copied().unwrap_or((f64::NAN, f64::NAN));
        let (bf, wm) = match r {
            1 => ("core.worker.stage_busy_frac.r1", "core.worker.wait_ms.r1"),
            _ => ("core.worker.stage_busy_frac.r2", "core.worker.wait_ms.r2"),
        };
        m.insert(bf, busy / wall);
        m.insert(wm, wall - busy);
    }
    let steps: Vec<f64> = dp.worker_steps.iter().map(|&s| s as f64).collect();
    let mean_steps = steps.iter().sum::<f64>() / steps.len() as f64;
    m.insert(
        "core.worker.step_imbalance",
        steps.iter().cloned().fold(0.0, f64::max) / mean_steps,
    );

    // Job overhead: coverage-job latency on the workload's service minus
    // the in-process evaluation of the same rule; and the latency tail.
    let svc = w.service(&ds.engine);
    let mut rng = workload::Rng::new(seed ^ 0xC0FE);
    let mut latencies = Vec::with_capacity(workload::MIN_JOBS);
    let mut overhead = Vec::with_capacity(workload::MIN_JOBS);
    for _ in 0..workload::MIN_JOBS {
        let k = rng.below(pool.rules.len());
        workload::coverage_job(&svc, &ds.examples, &pool, k, &mut latencies, &mut tally);
        overhead.extend(latencies.last().map(|l| l - eval_ms[k]));
    }
    let worker_snaps = if w.tcp() { svc.metrics().ok() } else { None };
    if let Err(e) = svc.shutdown() {
        tally.record(Outcome::Errored(format!("service shutdown: {e}")));
    }
    m.insert("core.scheduler.job_overhead_ms", stats::median(&overhead));
    m.insert(
        "core.scheduler.job_p99_ms",
        stats::percentile(&latencies, 99.0),
    );
    for s in [Strategy::SearchPartition, Strategy::ConstraintDriven] {
        let key = match s {
            Strategy::SearchPartition => "core.strategy.step_ratio.search_partition",
            _ => "core.strategy.step_ratio.constraint_driven",
        };
        let ratio = strat.get(s.label()).map_or(f64::NAN, |r| {
            r.worker_steps.iter().sum::<u64>() as f64 / dp_steps as f64
        });
        m.insert(key, ratio);
    }
    m.insert(
        "core.strategy.constraint_bytes",
        cd.map_or(f64::NAN, |r| r.constraint_bytes as f64),
    );

    // obs and calibration
    let plain_ms = stats::median(&plain);
    let traced_ms = stats::median(&traced);
    m.insert("obs.trace_overhead_frac", traced_ms / plain_ms - 1.0);
    let vspeedup = seq.vtime / dp.vtime;
    m.insert(
        "calib.speedup_error",
        (seq_wall_ms / plain_ms) / vspeedup - 1.0,
    );
    let attributed = facts.epoch_ms_total + if w.tcp() { spawn_ms } else { 0.0 };
    m.insert(
        "calib.unattributed_frac",
        1.0 - attributed / traced.last().copied().unwrap_or(f64::NAN),
    );

    // Metric snapshots beside the layer table.
    let mut entries = hot_entries;
    for rank in 0..=WORKERS {
        let snap = match (&worker_snaps, rank) {
            (Some(ws), r) if r >= 1 => ws.get(r - 1).cloned().unwrap_or_default(),
            _ => metrics::rank_registry(rank).snapshot(),
        };
        entries.extend(snap.entries.into_iter().map(|e| MetricEntry {
            name: with_rank(&e.name, rank),
            value: e.value,
        }));
    }
    let snapshot = MetricsSnapshot::from_entries(entries);
    let metrics: Vec<(String, f64, &'static str)> = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            (
                name.to_owned(),
                m.get(name).copied().unwrap_or(f64::NAN),
                unit,
            )
        })
        .collect();
    for (n, v, u) in raw {
        notes.push(format!("{n} (as read): {v} {u}"));
    }
    let table: String = metrics
        .iter()
        .map(|(n, v, u)| (n.as_str(), *v, *u))
        .chain(raw)
        .map(|(n, v, u)| format!("{n}\t{v}\t{u}\n"))
        .collect();
    for (file, text) in [
        (format!("{stem}.layers.tsv"), table),
        (format!("{stem}.prom"), snapshot.prometheus()),
        (format!("{stem}.metrics.json"), snapshot.to_json(2)),
    ] {
        let path = out.join(file);
        std::fs::write(&path, text).expect("write per-layer output");
        notes.push(format!("wrote {}", path.display()));
    }
    RunResult {
        metrics,
        tally,
        notes,
    }
}
