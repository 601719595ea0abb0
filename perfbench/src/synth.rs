//! `synth_small` / `synth_large`: a fixed seed set of one benchmark
//! circuit through `oblx::synthesize` on one thread, repeated in rounds
//! for the run's duration.
//!
//! A job here is one annealing seed: its deck is compiled (the same
//! acceptance step the HTTP edge runs before `201`) and synthesized,
//! back to back on one thread (a closed loop of one client). The
//! compile's own figures (`setup_s`, `submit_ms_*`) are timed apart,
//! in blocks of repeated calls before each job. Each
//! seed's result is replayed through the independent simulator once;
//! later rounds must reproduce the first round's best cost bit for bit.
//!
//! The traced run wraps `OblxProblem` in [`Traced`], an `AnnealProblem`
//! adapter that times every call into the problem from outside, and
//! runs it under `Annealer::run` with the options `synthesize` builds.

use crate::common::{median, peak_rss_mb, quantile, secs, Report, Score, SplitMix};
use astrx_oblx::bench_suite;
use astrx_oblx::oblx::{move_class, OblxState};
use astrx_oblx::{astrx, oblx, verify_design, CompiledProblem, OblxProblem, SynthesisOptions};
use oblx_anneal::{AnnealOptions, AnnealProblem, Annealer, DirtySet};
use oblx_telemetry::Snapshot;
use std::time::Instant;

/// One synthesis workload: a circuit, its seed-set size and move
/// budget (every other option at its default).
#[derive(Debug, Clone, Copy)]
pub struct Circuit {
    bench: &'static str,
    seeds: usize,
    moves: usize,
}

/// Simple OTA: 20-node jigs on the dense AWE engine.
pub const SMALL: Circuit = Circuit {
    bench: "Simple OTA",
    seeds: 4,
    moves: 4000,
};

/// Folded Cascode: 41-node jigs on the sparse AWE engine.
pub const LARGE: Circuit = Circuit {
    bench: "Folded Cascode",
    seeds: 3,
    moves: 3000,
};

/// Timed around every job, in blocks of repeated calls: `COMPILE_BLOCKS`
/// blocks of `COMPILE_BLOCK` deck compiles (`submit_ms_*`) and one block
/// of `SETUP_BLOCK` set-ups (`setup_s`). The VM switches between fast
/// and slow phases a fraction of a second long; spread over the whole
/// run, these samples see the same mix of phases as the synthesis does,
/// where one window at the start would catch one phase or the other.
const COMPILE_BLOCKS: usize = 8;
const COMPILE_BLOCK: usize = 8;
const SETUP_BLOCK: usize = 5;
/// The verified KCL residual allowed at a synthesized design (A).
const KCL_LIMIT: f64 = 1e-8;

fn options(c: Circuit, seed: u64) -> SynthesisOptions {
    SynthesisOptions {
        moves_budget: c.moves,
        seed,
        ..SynthesisOptions::default()
    }
}

fn compile(c: Circuit) -> CompiledProblem {
    let bench = bench_suite::by_name(c.bench).expect("built-in benchmark");
    astrx::compile(bench.problem().expect("built-in deck parses")).expect("built-in deck compiles")
}

/// Mean time of `reps` calls of `op`, s.
fn per_call(reps: usize, mut op: impl FnMut()) -> f64 {
    let t = Instant::now();
    (0..reps).for_each(|_| op());
    secs(t) / reps as f64
}

/// `COMPILE_BLOCKS` samples of the deck compile (parse + compile), ms
/// per compile.
fn compile_ms(c: Circuit) -> impl Iterator<Item = f64> {
    (0..COMPILE_BLOCKS).map(move |_| {
        1e3 * per_call(COMPILE_BLOCK, || {
            std::hint::black_box(compile(c));
        })
    })
}

/// One sample of the set-up (parse + compile + `OblxProblem::new`), s
/// per set-up.
fn setup_s(c: Circuit) -> f64 {
    per_call(SETUP_BLOCK, || {
        let compiled = compile(c);
        std::hint::black_box(OblxProblem::new(&compiled, options(c, 1)));
    })
}

/// Replays a result through `verify_design` into `score`, counting
/// failures.
fn verify(
    report: &mut Report,
    score: &mut Score,
    compiled: &CompiledProblem,
    seed: u64,
    r: &astrx_oblx::SynthesisResult,
) {
    report.check(r.kcl_max <= KCL_LIMIT, || {
        format!("seed {seed}: OBLX KCL residual {:.3e} A", r.kcl_max)
    });
    match verify_design(compiled, &r.state, &r.measured) {
        Ok(v) => {
            report.check(v.op_residual <= KCL_LIMIT, || {
                format!(
                    "seed {seed}: simulator KCL residual {:.3e} A",
                    v.op_residual
                )
            });
            score.add(compiled, &v);
        }
        Err(e) => report.check(false, || format!("seed {seed}: verify_design: {e}")),
    }
}

pub fn run(c: Circuit, seed: u64, seconds: f64, trace: bool) -> Report {
    let mut rng = SplitMix::new(seed, 1);
    let mut seeds: Vec<u64> = (1..=c.seeds as u64).collect();
    let mut report = Report::default();
    report.note(format!(
        "{}: {} moves, annealing seeds 1..={}",
        c.bench, c.moves, c.seeds
    ));
    if trace {
        traced(&mut report, c, &seeds, seconds);
        return report;
    }
    let mut setup = Vec::new();
    let mut submit_ms = Vec::new();
    let mut done_ms = Vec::new();
    let mut round_s = Vec::new();
    let mut round_rate = Vec::new();
    let mut first = vec![0u64; seeds.len()];
    let mut score = Score::default();
    let start = Instant::now();
    while round_s.is_empty() || secs(start) < seconds {
        let (mut synth, mut attempted) = (0.0, 0usize);
        rng.shuffle(&mut seeds);
        for &s in &seeds {
            submit_ms.extend(compile_ms(c));
            setup.push(setup_s(c));
            let due = Instant::now();
            let compiled = compile(c);
            let t = Instant::now();
            let result = oblx::synthesize(&compiled, &options(c, s));
            synth += secs(t);
            done_ms.push(1e3 * secs(due));
            let r = match result {
                Ok(r) => r,
                Err(e) => {
                    report.check(false, || format!("seed {s}: synthesize: {e}"));
                    continue;
                }
            };
            attempted += r.attempted;
            let i = s as usize - 1;
            if round_s.is_empty() {
                first[i] = r.best_cost.to_bits();
                verify(&mut report, &mut score, &compiled, s, &r);
            } else {
                let same = first[i] == r.best_cost.to_bits();
                report.check(same, || {
                    format!("seed {s}: best cost differs between rounds")
                });
            }
        }
        round_s.push(synth);
        round_rate.push(attempted as f64 / synth);
    }
    let n = done_ms.len();
    report.note(format!(
        "{} rounds, {n} jobs, {} compile blocks; synth_s per round {:?}",
        round_s.len(),
        submit_ms.len(),
        round_s
            .iter()
            .map(|s| format!("{s:.3}"))
            .collect::<Vec<_>>()
    ));
    report.set("setup_s", median(&setup));
    report.set("synth_s", median(&round_s));
    report.set("moves_per_s", median(&round_rate));
    score.publish(&mut report);
    report.set("submit_ms_p50", quantile(&submit_ms, 0.5));
    report.set("submit_ms_p95", quantile(&submit_ms, 0.95));
    report.set("done_ms_p50", quantile(&done_ms, 0.5));
    report.set("done_ms_p95", quantile(&done_ms, 0.95));
    report.set("jobs_per_s", n as f64 / (done_ms.iter().sum::<f64>() / 1e3));
    report.set("peak_rss_mb", peak_rss_mb());
    report
}

/// Per-call timings the adapter collects.
#[derive(Default)]
struct Timings {
    newton_us: Vec<f64>,
    newton_none: usize,
    local_s: f64,
    /// `(µs, class of the move it scored)`; `None` for the engine's
    /// own re-scoring of current/best states.
    cost_us: Vec<(f64, Option<usize>)>,
}

fn is_newton(class: usize) -> bool {
    matches!(
        class,
        move_class::NEWTON_FULL | move_class::NEWTON_PARTIAL | move_class::USER_WITH_NEWTON
    )
}

/// The tracing adapter: forwards every `AnnealProblem` call to the
/// wrapped `OblxProblem`, timing move proposals per class and cost
/// evaluations per the class of the move they score.
struct Traced<'a> {
    inner: OblxProblem<'a>,
    t: Timings,
    last_class: Option<usize>,
}

impl AnnealProblem for Traced<'_> {
    type State = OblxState;

    fn initial_state(&mut self) -> OblxState {
        self.inner.initial_state()
    }

    fn cost(&mut self, state: &OblxState) -> f64 {
        let t = Instant::now();
        let c = self.inner.cost(state);
        self.t.cost_us.push((1e6 * secs(t), None));
        c
    }

    fn move_classes(&self) -> usize {
        self.inner.move_classes()
    }

    fn propose(
        &mut self,
        state: &OblxState,
        class: usize,
        scale: f64,
        rng: &mut dyn rand::Rng,
    ) -> Option<OblxState> {
        self.propose_dirty(state, class, scale, rng).map(|(s, _)| s)
    }

    fn propose_dirty(
        &mut self,
        state: &OblxState,
        class: usize,
        scale: f64,
        rng: &mut dyn rand::Rng,
    ) -> Option<(OblxState, DirtySet)> {
        let t = Instant::now();
        let out = self.inner.propose_dirty(state, class, scale, rng);
        let dt = secs(t);
        if is_newton(class) {
            self.t.newton_us.push(1e6 * dt);
            self.t.newton_none += usize::from(out.is_none());
        } else {
            self.t.local_s += dt;
        }
        self.last_class = Some(class);
        out
    }

    fn cost_moved(&mut self, state: &OblxState, dirty: &DirtySet) -> f64 {
        let t = Instant::now();
        let c = self.inner.cost_moved(state, dirty);
        self.t.cost_us.push((1e6 * secs(t), self.last_class.take()));
        c
    }

    fn telemetry_names(&self) -> Vec<String> {
        self.inner.telemetry_names()
    }

    fn telemetry(&mut self, state: &OblxState) -> Vec<f64> {
        self.inner.telemetry(state)
    }

    fn frozen(&mut self, state: &OblxState) -> bool {
        self.inner.frozen(state)
    }
}

/// The traced run, in rounds for the run's duration: per seed, the
/// untraced `synthesize` reference, then the same seed through the
/// adapter with telemetry on. Totals are reported per round.
fn traced(report: &mut Report, c: Circuit, seeds: &[u64], seconds: f64) {
    let compiled = compile(c);
    let mut compile_samples = Vec::new();
    let mut t = Timings::default();
    let (mut untraced_s, mut traced_s, mut rounds) = (0.0, 0.0, 0usize);
    let mut verify_ms = Vec::new();
    oblx_telemetry::reset();
    let start = Instant::now();
    while rounds == 0 || secs(start) < seconds {
        for &s in seeds {
            compile_samples.extend(compile_ms(c));
            let opts = options(c, s);
            let clock = Instant::now();
            let reference = match oblx::synthesize(&compiled, &opts) {
                Ok(r) => r,
                Err(e) => {
                    report.check(false, || format!("seed {s}: synthesize: {e}"));
                    continue;
                }
            };
            untraced_s += secs(clock);
            if rounds == 0 {
                let clock = Instant::now();
                verify(report, &mut Score::default(), &compiled, s, &reference);
                verify_ms.push(1e3 * secs(clock));
            }
            let mut problem = Traced {
                inner: OblxProblem::new(&compiled, opts.clone()),
                t: std::mem::take(&mut t),
                last_class: None,
            };
            // The engine options `synthesize_controlled` builds.
            let mut annealer = Annealer::new(AnnealOptions {
                moves_budget: opts.moves_budget,
                seed: opts.seed,
                trace_every: opts.trace_every,
                quench_patience: opts.quench_patience,
                ..AnnealOptions::default()
            });
            oblx_telemetry::set_enabled(true);
            let clock = Instant::now();
            let result = annealer.run(&mut problem);
            traced_s += secs(clock);
            oblx_telemetry::set_enabled(false);
            t = problem.t;
            report.check(
                reference.best_cost.to_bits() == result.best_cost.to_bits(),
                || {
                    format!(
                        "seed {s}: traced best cost {:e} != synthesize {:e}",
                        result.best_cost, reference.best_cost
                    )
                },
            );
        }
        rounds += 1;
    }
    let snap = Snapshot::capture();

    let per_round = 1.0 / rounds as f64;
    let (traced_s, untraced_s) = (traced_s * per_round, untraced_s * per_round);
    let newton_s = per_round * t.newton_us.iter().sum::<f64>() / 1e6;
    let local_s = per_round * t.local_s;
    let cost_s = per_round * t.cost_us.iter().map(|(us, _)| us).sum::<f64>() / 1e6;
    let all_cost: Vec<f64> = t.cost_us.iter().map(|(us, _)| *us).collect();
    let after = |newton: bool| -> Vec<f64> {
        t.cost_us
            .iter()
            .filter(|(_, class)| class.is_some_and(|k| is_newton(k) == newton))
            .map(|(us, _)| *us)
            .collect()
    };
    let counter = |name| per_round * snap.counter(name) as f64;
    let paths = ["eval_cold", "eval_full", "eval_incremental", "eval_cached"]
        .map(counter)
        .iter()
        .sum::<f64>();
    let awe = snap
        .spans
        .iter()
        .find(|(n, _)| *n == "awe_analyze")
        .map(|(_, h)| (per_round * h.sum as f64 / 1e9, per_round * h.count as f64))
        .unwrap_or_default();
    let shifts = counter("awe_shift_applied") + counter("awe_shift_rejected");
    report.note(format!(
        "traced: {rounds} rounds of {} seeds; per round {:.0} Newton proposals, {:.0} cost \
         calls, {traced_s:.3} s traced, {untraced_s:.3} s untraced",
        seeds.len(),
        per_round * t.newton_us.len() as f64,
        per_round * all_cost.len() as f64,
    ));

    report.set("astrx.compile_ms", median(&compile_samples));
    report.set("oblx.newton_s", newton_s);
    report.set("oblx.newton_us_p50", median(&t.newton_us));
    report.set("oblx.newton_calls", per_round * t.newton_us.len() as f64);
    report.set(
        "oblx.newton_none_frac",
        t.newton_none as f64 / t.newton_us.len().max(1) as f64,
    );
    report.set("oblx.local_move_s", local_s);
    report.set("cost.eval_s", cost_s);
    report.set("cost.eval_calls", per_round * all_cost.len() as f64);
    report.set("cost.eval_us_p50", median(&all_cost));
    report.set("cost.eval_us_p99", quantile(&all_cost, 0.99));
    report.set("cost.after_newton_us_p50", median(&after(true)));
    report.set("cost.after_local_us_p50", median(&after(false)));
    report.set("cost.path_full", counter("eval_full"));
    report.set("cost.path_incremental", counter("eval_incremental"));
    report.set("cost.path_cached", counter("eval_cached"));
    report.set("cost.path_failed", counter("eval_failure"));
    report.set(
        "cost.reuse_frac",
        (counter("eval_incremental") + counter("eval_cached")) / paths.max(1.0),
    );
    report.set("awe.analyze_s", awe.0);
    report.set("awe.analyze_calls", awe.1);
    report.set("awe.shift_applied", counter("awe_shift_applied"));
    report.set("awe.shift_rejected", counter("awe_shift_rejected"));
    report.set(
        "awe.shift_useful_frac",
        counter("awe_shift_applied") / shifts.max(1.0),
    );
    report.set("linalg.lu_factors", counter("lu_factor"));
    report.set("linalg.sparse_refactors", counter("sparse_refactor"));
    report.set("linalg.sparse_fallbacks", counter("sparse_fallback"));
    let attributed = newton_s + local_s + cost_s;
    report.set("anneal.engine_self_s", traced_s - attributed);
    report.set("verify.verify_ms", median(&verify_ms));
    let coverage = attributed / traced_s;
    report.check(coverage >= 0.95, || {
        format!("trace coverage {coverage:.4} < 0.95")
    });
    report.set("bench.trace_coverage", coverage);
    report.set("bench.trace_overhead_frac", traced_s / untraced_s - 1.0);
}
