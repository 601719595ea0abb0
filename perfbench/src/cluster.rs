//! `cluster_drain`: a backlog of multi-seed small jobs drained in
//! process by two `pool::run` hosts (`Spool::with_host`) with one worker
//! each, in rounds for the run's duration. No HTTP.
//!
//! A round enqueues a fresh backlog (the set-up), then both hosts drain
//! it; every job is due when the drain starts. Each drained result must
//! equal that job's single-process `synthesize_multi` reference bit for
//! bit, whichever host ran which seed. Every end-to-end figure is the
//! median over rounds of that round's value, so a disk stall that
//! spans a round or two does not move it. Runs by hand only: its
//! figures follow the disk's fsync latency, and README.md gives the
//! spread that keeps it out of `BENCHMARK.json`.

use crate::common::{
    epoch_now, median, peak_rss_mb, quantile, secs, Report, Score, Scratch, SplitMix,
};
use crate::jobs::{self, JobSpec, ResultTotals, RC_LADDER};
use astrx_oblx::jobs::{f64_from_value, u64_from_value, JobRequest};
use astrx_oblx::oblx::OblxState;
use astrx_oblx::{astrx, synthesize_multi, CompiledProblem, SynthesisOptions};
use oblx_runtime::pool::{self, PoolOptions, RunStats};
use oblx_runtime::spool::Spool;
use oblx_telemetry::Snapshot;
use std::sync::atomic::AtomicBool;
use std::time::{Duration, Instant};

/// Jobs per backlog: a multiple of the mix's six kinds, large enough
/// to leave ten samples above a round's p95.
const JOBS: usize = 216;
/// Hosts sharing the spool, one worker each.
const HOSTS: usize = 2;
/// Pause after removing a drained spool.
const SETTLE: Duration = Duration::from_millis(200);
/// Proposals between the checkpoints each seed writes.
const CHECKPOINT_EVERY: usize = 250;

fn options(spec: &JobSpec) -> SynthesisOptions {
    SynthesisOptions {
        moves_budget: spec.moves,
        quench_patience: jobs::QUENCH,
        seed: 0,
        ..SynthesisOptions::default()
    }
}

/// A job's outcome, bit for bit: what the drained result record holds
/// and the single-process `synthesize_multi` reference must match.
#[derive(Debug, PartialEq)]
struct Reference {
    best_seed: Option<u64>,
    fixed_cost: Option<u64>,
    best_cost: Option<u64>,
    state: Vec<u64>,
}

fn state_bits(state: &OblxState) -> Vec<u64> {
    state
        .user
        .iter()
        .chain(&state.nodes)
        .map(|v| v.to_bits())
        .collect()
}

/// One drained backlog.
struct Round {
    setup_s: f64,
    submit_ms: Vec<f64>,
    drain_s: f64,
    /// `(due, phases)` per job, due = drain start (Unix seconds).
    phases: Vec<(f64, jobs::Phases)>,
    totals: ResultTotals,
}

impl Round {
    /// Due → `done` event, ms, per finished job.
    fn done_ms(&self) -> Vec<f64> {
        self.phases
            .iter()
            .filter_map(|(due, p)| p.done.map(|d| 1e3 * (d - due)))
            .collect()
    }
}

/// Enqueues `specs` into a fresh spool, drains it with `HOSTS` pools,
/// and checks every result against its reference.
fn round(
    round: usize,
    report: &mut Report,
    scratch: &Scratch,
    compiled: &CompiledProblem,
    specs: &[JobSpec],
    references: &[Reference],
) -> Round {
    let dir = scratch.fresh(&format!("spool-{round}"));
    let t = Instant::now();
    let spool = Spool::open(&dir).expect("spool opens");
    let mut submit_ms = Vec::with_capacity(specs.len());
    let mut ids = Vec::with_capacity(specs.len());
    for (i, spec) in specs.iter().enumerate() {
        let due = Instant::now();
        let job = spool
            .submit(JobRequest {
                name: format!("rc-{i}"),
                source: RC_LADDER.to_string(),
                deck: String::new(),
                options: options(spec),
                seeds: spec.seeds.clone(),
                priority: 0,
            })
            .expect("submit succeeds");
        submit_ms.push(1e3 * secs(due));
        ids.push(job.id);
    }
    let setup_s = secs(t);

    let opts = PoolOptions {
        workers: 1,
        checkpoint_every: CHECKPOINT_EVERY,
        drain: true,
        lease_timeout: Duration::from_secs(30),
        portfolio: false,
    };
    let shutdown = AtomicBool::new(false);
    let due = epoch_now();
    let t = Instant::now();
    let stats: Vec<RunStats> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..HOSTS)
            .map(|h| {
                let host = spool.clone().with_host(format!("h{h}"));
                let (opts, shutdown) = (&opts, &shutdown);
                scope.spawn(move || pool::run(&host, opts, shutdown))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("pool host does not panic"))
            .collect()
    });
    let drain_s = secs(t);

    let mut totals = ResultTotals::default();
    let panicked: usize = stats.iter().map(|s| s.seeds_panicked).sum();
    report.check(panicked == 0, || format!("{panicked} seed(s) panicked"));
    let mut phases = Vec::with_capacity(ids.len());
    for (id, reference) in ids.iter().zip(references) {
        let record = spool.done(id);
        if let Some(state) = jobs::check_result(report, compiled, id, record.as_ref(), &mut totals)
        {
            let record = record.expect("a decoded state implies a record");
            let bits = |key: &str| record.get(key).and_then(|v| f64_from_value(v).ok());
            let got = Reference {
                best_seed: record.get("best_seed").and_then(|v| u64_from_value(v).ok()),
                fixed_cost: bits("fixed_cost").map(f64::to_bits),
                best_cost: bits("best_cost").map(f64::to_bits),
                state: state_bits(&state),
            };
            report.check(got == *reference, || {
                format!("job {id}: drained result {got:?} != synthesize_multi {reference:?}")
            });
        }
        phases.push((due, jobs::phases(&spool, id)));
    }
    // Drop this round's spool now and let the disk settle, so neither
    // its files nor their removal weigh on the next round's timing.
    scratch.remove(&dir);
    std::thread::sleep(SETTLE);
    Round {
        setup_s,
        submit_ms,
        drain_s,
        phases,
        totals,
    }
}

pub fn run(scratch: &Scratch, seed: u64, seconds: f64, trace: bool) -> Report {
    let mut rng = SplitMix::new(seed, 3);
    let specs = jobs::balanced_mix(&mut rng, JOBS, &[2, 3, 4], &[200, 400]);
    let compiled = astrx::compile_source(RC_LADDER).expect("ladder deck compiles");
    let references: Vec<Reference> = specs
        .iter()
        .map(|spec| {
            let m = synthesize_multi(&compiled, &options(spec), &spec.seeds, 1)
                .expect("reference synthesis succeeds");
            let fixed = m
                .runs
                .iter()
                .find(|r| r.seed == m.best_seed)
                .map(|r| r.fixed_cost);
            Reference {
                best_seed: Some(m.best_seed),
                fixed_cost: fixed.map(f64::to_bits),
                best_cost: Some(m.best.best_cost.to_bits()),
                state: state_bits(&m.best.state),
            }
        })
        .collect();

    let mut report = Report::default();
    let mut untraced_rate = Vec::new();
    if trace {
        // The untraced pass the overhead is measured against.
        let mut quiet = Report::default();
        let start = Instant::now();
        while untraced_rate.is_empty() || secs(start) < seconds {
            let r = round(
                untraced_rate.len(),
                &mut quiet,
                scratch,
                &compiled,
                &specs,
                &references,
            );
            untraced_rate.push(JOBS as f64 / r.drain_s);
        }
        report.attempted += quiet.attempted;
        report.failed += quiet.failed;
        report.notes.append(&mut quiet.notes);
        oblx_telemetry::reset();
        oblx_telemetry::set_enabled(true);
    }

    let mut rounds = Vec::new();
    let start = Instant::now();
    while rounds.is_empty() || secs(start) < seconds {
        rounds.push(round(
            rounds.len() + 1000,
            &mut report,
            scratch,
            &compiled,
            &specs,
            &references,
        ));
    }
    let rates: Vec<f64> = rounds.iter().map(|r| JOBS as f64 / r.drain_s).collect();
    report.note(format!(
        "{} rounds of {JOBS} jobs on {HOSTS} hosts; {} done samples; jobs/s per round {:?}",
        rounds.len(),
        rounds.iter().map(|r| r.done_ms().len()).sum::<usize>(),
        rates.iter().map(|r| format!("{r:.1}")).collect::<Vec<_>>()
    ));

    let per_round =
        |f: &dyn Fn(&Round) -> f64| -> f64 { median(&rounds.iter().map(f).collect::<Vec<_>>()) };
    if trace {
        oblx_telemetry::set_enabled(false);
        let snap = Snapshot::capture();
        let phases: Vec<(f64, jobs::Phases)> =
            rounds.iter().flat_map(|r| r.phases.clone()).collect();
        let coverage = jobs::runtime_layer(&mut report, &phases, &snap);
        report.set("bench.trace_coverage", coverage);
        report.set(
            "bench.trace_overhead_frac",
            median(&untraced_rate) / median(&rates) - 1.0,
        );
        return report;
    }
    report.set("setup_s", per_round(&|r| r.setup_s));
    report.set("synth_s", per_round(&|r| r.totals.synth_s));
    report.set(
        "moves_per_s",
        per_round(&|r| r.totals.attempted / r.totals.synth_s),
    );
    let mut score = Score::default();
    rounds.iter().for_each(|r| score.merge(&r.totals.score));
    score.publish(&mut report);
    report.set("submit_ms_p50", per_round(&|r| quantile(&r.submit_ms, 0.5)));
    report.set(
        "submit_ms_p95",
        per_round(&|r| quantile(&r.submit_ms, 0.95)),
    );
    report.set("done_ms_p50", per_round(&|r| quantile(&r.done_ms(), 0.5)));
    report.set("done_ms_p95", per_round(&|r| quantile(&r.done_ms(), 0.95)));
    report.set("jobs_per_s", median(&rates));
    report.set("peak_rss_mb", peak_rss_mb());
    report
}
