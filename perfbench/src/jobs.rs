//! What the two spool workloads share: the tiny deck their jobs
//! synthesize, the seeded job mix, per-job phase timings read back from
//! each job's event log, and the checks on a finished job's result.

use crate::common::{median, quantile, Report, Score, SplitMix};
use astrx_oblx::cost::CostEvaluator;
use astrx_oblx::jobs::f64_from_value;
use astrx_oblx::json::Value;
use astrx_oblx::oblx::OblxState;
use astrx_oblx::{verify_design, AdaptiveWeights, CompiledProblem};
use oblx_runtime::events::EventLog;
use oblx_runtime::spool::Spool;
use oblx_telemetry::Snapshot;

/// A two-section RC ladder lowpass: two variables, one objective, one
/// spec. A seed costs a few milliseconds, so the spool and HTTP layers,
/// not the annealer, carry these workloads. The ladder's response is a
/// function of `s·R·C` alone, so the gap between AWE's dominant pole
/// and the simulator's −3 dB knee is the same share for every design:
/// the spool workloads' simulator comparison reads one steady value,
/// which only a change to AWE or to the simulator can move.
pub const RC_LADDER: &str = "\
.title rc ladder bench
.var R 1k 1Meg log
.var C 1p 1n log
.jig acjig
vin in 0 0 ac 1
r1 in mid 'R'
c1 mid 0 'C'
r2 mid out 'R'
c2 out 0 'C'
.pz tf v(out) vin
.endjig
.bias
vin in 0 1
r1 in mid 'R'
c1 mid 0 'C'
r2 mid out 'R'
c2 out 0 'C'
.endbias
.obj bw 'pole(tf, 1)' good=1Meg bad=1k
.spec rc 'R*C' good=1u bad=1m
";

/// The ladder deck with its `.endjig` line cut: a parse error the edge must
/// answer with 422.
pub fn malformed_deck() -> String {
    RC_LADDER.replace(".endjig\n", "")
}

/// Quench patience of every spool job.
pub const QUENCH: usize = 100;

/// One job of the seeded mix.
#[derive(Debug, Clone)]
pub struct JobSpec {
    pub seeds: Vec<u64>,
    pub moves: usize,
}

/// `n` jobs cycling through every (seed count, move budget) pair, so
/// each workload seed offers the same work, in seeded order with
/// seeded annealing seeds.
pub fn balanced_mix(rng: &mut SplitMix, n: usize, seeds: &[u64], moves: &[usize]) -> Vec<JobSpec> {
    let combos: Vec<(u64, usize)> = seeds
        .iter()
        .flat_map(|&s| moves.iter().map(move |&m| (s, m)))
        .collect();
    let mut jobs: Vec<JobSpec> = (0..n)
        .map(|i| {
            let (count, moves) = combos[i % combos.len()];
            JobSpec {
                seeds: (0..count).map(|_| rng.anneal_seed()).collect(),
                moves,
            }
        })
        .collect();
    rng.shuffle(&mut jobs);
    jobs
}

/// Event-log timestamps (Unix seconds) of one job.
#[derive(Debug, Clone, Default)]
pub struct Phases {
    pub submitted: Option<f64>,
    pub started: Option<f64>,
    pub last_seed_done: Option<f64>,
    pub done: Option<f64>,
}

/// Reads job `id`'s event log.
pub fn phases(spool: &Spool, id: &str) -> Phases {
    let mut p = Phases::default();
    for event in EventLog::open(spool, id).read() {
        let ts = event.get("ts").and_then(Value::as_f64);
        match event.get("event").and_then(Value::as_str) {
            Some("submitted") => p.submitted = ts,
            Some("started") => p.started = ts,
            Some("seed_done") => {
                p.last_seed_done = ts.map(|t| p.last_seed_done.map_or(t, |last| last.max(t)));
            }
            Some("done") => p.done = ts,
            _ => {}
        }
    }
    p
}

/// Sums over finished jobs' result records, for `synth_s`,
/// `moves_per_s` and the simulator checks.
#[derive(Debug, Default)]
pub struct ResultTotals {
    pub synth_s: f64,
    pub attempted: f64,
    pub score: Score,
}

impl ResultTotals {
    pub fn publish(&self, report: &mut Report) {
        report.set("synth_s", self.synth_s);
        report.set("moves_per_s", self.attempted / self.synth_s);
        self.score.publish(report);
    }
}

fn decode_state(record: &Value) -> Option<OblxState> {
    let list = |key: &str| -> Option<Vec<f64>> {
        record
            .get("state")?
            .get(key)?
            .as_arr()?
            .iter()
            .map(|v| f64_from_value(v).ok())
            .collect()
    };
    Some(OblxState {
        user: list("user")?,
        nodes: list("nodes")?,
    })
}

/// Checks a job's result record: status `ok`, and its best design
/// replays through the simulator. Adds its seed runs and simulator
/// comparison to `totals`; returns the decoded best state.
pub fn check_result(
    report: &mut Report,
    compiled: &CompiledProblem,
    id: &str,
    record: Option<&Value>,
    totals: &mut ResultTotals,
) -> Option<OblxState> {
    let Some(record) = record else {
        report.check(false, || format!("job {id}: no result record"));
        return None;
    };
    let status = record.get("status").and_then(Value::as_str);
    report.check(status == Some("ok"), || {
        format!("job {id}: status {status:?}")
    });
    for run in record.get("runs").and_then(Value::as_arr).unwrap_or(&[]) {
        totals.synth_s += run
            .get("wall_seconds")
            .and_then(Value::as_f64)
            .unwrap_or(0.0);
        totals.attempted += run.get("attempted").and_then(Value::as_f64).unwrap_or(0.0);
    }
    let Some(state) = decode_state(record) else {
        report.check(false, || format!("job {id}: result has no best state"));
        return None;
    };
    let predicted = CostEvaluator::new(compiled)
        .record(&state.user, &state.nodes)
        .and_then(|r| {
            CostEvaluator::new(compiled)
                .cost_of_record(&r, &AdaptiveWeights::frozen_final(compiled))
        });
    let verified = predicted.and_then(|b| {
        let names = compiled.problem.specs.iter().map(|g| g.name.clone());
        verify_design(compiled, &state, &names.zip(b.measured).collect::<Vec<_>>())
    });
    match verified {
        Ok(v) => totals.score.add(compiled, &v),
        Err(e) => report.check(false, || format!("job {id}: verify_design: {e}")),
    }
    Some(state)
}

/// The `runtime.*` layer from per-job event phases (queue wait measured
/// from `due` when the log has no `submitted` event) and the telemetry
/// snapshot. The phases tile each job's due→done time, so the returned
/// trace coverage is the share of jobs whose log holds every phase.
pub fn runtime_layer(report: &mut Report, jobs: &[(f64, Phases)], snap: &Snapshot) -> f64 {
    let (mut queue, mut run, mut fin) = (vec![], vec![], vec![]);
    for (due, p) in jobs {
        let (Some(started), Some(last), Some(done)) = (p.started, p.last_seed_done, p.done) else {
            continue;
        };
        queue.push(1e3 * (started - p.submitted.unwrap_or(*due)));
        run.push(1e3 * (last - started));
        fin.push(1e3 * (done - last));
    }
    report.set("runtime.queue_wait_ms_p50", quantile(&queue, 0.5));
    report.set("runtime.queue_wait_ms_p95", quantile(&queue, 0.95));
    report.set("runtime.run_ms_p50", median(&run));
    report.set("runtime.finalize_ms_p50", median(&fin));
    let (busy, idle) = snap
        .workers
        .iter()
        .fold((0u64, 0u64), |(b, i), w| (b + w.busy_ns, i + w.idle_ns));
    report.set(
        "runtime.worker_util",
        busy as f64 / (busy + idle).max(1) as f64,
    );
    report.set("runtime.seeds_stolen", snap.counter("seed_stolen") as f64);
    report.set(
        "runtime.leases_acquired",
        snap.counter("lease_acquired") as f64,
    );
    report.set("runtime.leases_reaped", snap.counter("lease_reaped") as f64);
    run.len() as f64 / jobs.len().max(1) as f64
}
