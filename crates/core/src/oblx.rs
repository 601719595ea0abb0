//! OBLX — the annealing solution library.
//!
//! OBLX minimizes the cost function ASTRX compiled. The annealing state
//! is the variable vector `x`: discrete (log-grid) device geometries and
//! continuous values among the user variables, plus the continuous
//! relaxed-dc node voltages. The move set mixes random perturbations
//! with full and partial Newton–Raphson jumps on the node voltages
//! (paper §V.A); Hustin statistics in `oblx-anneal` decide the mix.

use crate::astrx::CompiledProblem;
use crate::cost::{CostBreakdown, CostEvaluator};
use crate::weights::{AdaptiveWeights, WeightsSnapshot};
use oblx_anneal::{
    AnnealCheckpoint, AnnealOptions, AnnealProblem, Annealer, ControlledOutcome, Directive,
    DirtySet, Trace,
};
use oblx_netlist::VarScale;
use rand::{Rng, RngExt};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Synthesis run options.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthesisOptions {
    /// Annealing move budget.
    pub moves_budget: usize,
    /// RNG seed.
    pub seed: u64,
    /// Trace sampling interval (0 disables).
    pub trace_every: usize,
    /// Evaluations between adaptive-weight updates.
    pub weight_update_every: usize,
    /// Discrete grid density (points per decade on log variables).
    pub points_per_decade: usize,
    /// Quench patience (greedy attempts without improvement).
    pub quench_patience: usize,
    /// AWE model order used inside the cost function.
    pub awe_order: usize,
    /// Ablation switch: disable the Newton–Raphson move classes
    /// (forces purely random node-voltage exploration).
    pub disable_newton_moves: bool,
    /// Ablation switch: freeze all weights at 1 (no adaptation, no
    /// KCL ramp).
    pub disable_adaptive_weights: bool,
}

impl Default for SynthesisOptions {
    fn default() -> Self {
        SynthesisOptions {
            moves_budget: 40_000,
            seed: 1,
            trace_every: 0,
            weight_update_every: 500,
            points_per_decade: 25,
            quench_patience: 2_000,
            awe_order: crate::cost::AWE_ORDER,
            disable_newton_moves: false,
            disable_adaptive_weights: false,
        }
    }
}

/// The annealing state: user-variable values plus relaxed-dc node
/// voltages.
#[derive(Debug, Clone, PartialEq)]
pub struct OblxState {
    /// User variable values in declaration order.
    pub user: Vec<f64>,
    /// Free bias-node voltages in node-var order.
    pub nodes: Vec<f64>,
}

/// Result of a synthesis run.
#[derive(Debug, Clone)]
pub struct SynthesisResult {
    /// Best configuration found.
    pub state: OblxState,
    /// Its cost.
    pub best_cost: f64,
    /// Cost decomposition at the best configuration (final weights).
    pub breakdown: CostBreakdown,
    /// `(goal name, measured value)` pairs at the best configuration.
    pub measured: Vec<(String, f64)>,
    /// `(variable name, value)` pairs.
    pub variables: Vec<(String, f64)>,
    /// Worst KCL residual at the best configuration (A).
    pub kcl_max: f64,
    /// Annealing trace (empty unless tracing was enabled).
    pub trace: Trace,
    /// Total proposals.
    pub attempted: usize,
    /// Total cost evaluations.
    pub evaluations: usize,
    /// Wall-clock seconds for the run.
    pub wall_seconds: f64,
    /// Mean milliseconds per circuit evaluation — Table 2's
    /// "time/ckt. eval" row.
    pub ms_per_eval: f64,
    /// Cost evaluations per wall-clock second.
    pub evals_per_sec: f64,
    /// Annealing proposals per wall-clock second.
    pub moves_per_sec: f64,
    /// Fraction of evaluations served without a full plan update
    /// (incremental re-evaluations plus exact-state cache hits). Zero
    /// when the evaluator runs without a precompiled plan.
    pub cache_hit_ratio: f64,
}

impl SynthesisResult {
    /// The value of a named user variable.
    pub fn var(&self, name: &str) -> Option<f64> {
        self.variables
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// The measured value of a named goal.
    pub fn measure(&self, name: &str) -> Option<f64> {
        self.measured
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }
}

/// The OBLX annealing problem: binds the compiled cost function to the
/// generic annealing engine.
pub struct OblxProblem<'a> {
    compiled: &'a CompiledProblem,
    evaluator: CostEvaluator<'a>,
    weights: AdaptiveWeights,
    opts: SynthesisOptions,
    evals: usize,
    grid_steps: Vec<f64>,
    node_lo: f64,
    node_hi: f64,
}

/// Move-class indices (public so diagnostics can name them).
pub mod move_class {
    /// Perturb one user variable (grid step for discrete, range step
    /// for continuous).
    pub const USER_SINGLE: usize = 0;
    /// Perturb a couple of user variables together.
    pub const USER_MULTI: usize = 1;
    /// Perturb one relaxed-dc node voltage.
    pub const NODE_SINGLE: usize = 2;
    /// Jitter all node voltages slightly.
    pub const NODE_ALL: usize = 3;
    /// Full Newton–Raphson jump toward dc-correctness.
    pub const NEWTON_FULL: usize = 4;
    /// Damped (30%) Newton–Raphson step.
    pub const NEWTON_PARTIAL: usize = 5;
    /// Compound move: perturb one user variable, then immediately
    /// Newton-correct the node voltages. Without this, any geometry
    /// change late in the run breaks Kirchhoff correctness and is
    /// rejected by the (by-then dominant) KCL weights — the compound
    /// move keeps geometry exploration alive after dc lock-in.
    pub const USER_WITH_NEWTON: usize = 6;
    /// Number of classes.
    pub const COUNT: usize = 7;

    /// Human-readable class names, indexed by class constant (used by
    /// telemetry snapshots and diagnostics).
    pub const NAMES: [&str; COUNT] = [
        "user_single",
        "user_multi",
        "node_single",
        "node_all",
        "newton_full",
        "newton_partial",
        "user_with_newton",
    ];
}

impl<'a> OblxProblem<'a> {
    /// Creates the problem for a compiled description.
    pub fn new(compiled: &'a CompiledProblem, opts: SynthesisOptions) -> Self {
        // Cold path, once per problem: label the telemetry move-class
        // slots so snapshots render real names instead of `class<i>`.
        oblx_telemetry::set_class_names(&move_class::NAMES);
        let evaluator = CostEvaluator::with_awe_order(compiled, opts.awe_order);
        // Node-voltage exploration range: span of determined voltages
        // (the supplies) widened by a volt on each side.
        let (lo, hi) = evaluator.determined_span();
        let grid_steps = compiled
            .user_vars
            .iter()
            .map(|v| match v.scale {
                VarScale::Log => {
                    (v.max / v.min).ln()
                        / ((v.max / v.min).log10() * opts.points_per_decade as f64).max(1.0)
                }
                VarScale::Lin => (v.max - v.min) / 100.0,
            })
            .collect();
        OblxProblem {
            compiled,
            evaluator,
            weights: AdaptiveWeights::new(compiled),
            opts,
            evals: 0,
            grid_steps,
            node_lo: lo - 1.0,
            node_hi: hi + 1.0,
        }
    }

    /// The adaptive weights (final values after a run).
    pub fn weights(&self) -> &AdaptiveWeights {
        &self.weights
    }

    /// Number of cost evaluations so far.
    pub fn evaluations(&self) -> usize {
        self.evals
    }

    /// Snaps a user-variable value onto its grid and range.
    fn clamp_user(&self, i: usize, value: f64) -> f64 {
        let decl = &self.compiled.user_vars[i];
        let v = value.clamp(decl.min, decl.max);
        if decl.continuous {
            return v;
        }
        match decl.scale {
            VarScale::Log => {
                let step = self.grid_steps[i];
                let k = ((v / decl.min).ln() / step).round();
                (decl.min * (k * step).exp()).clamp(decl.min, decl.max)
            }
            VarScale::Lin => {
                let step = self.grid_steps[i];
                let k = ((v - decl.min) / step).round();
                (decl.min + k * step).clamp(decl.min, decl.max)
            }
        }
    }

    fn perturb_user(&self, state: &OblxState, i: usize, scale: f64, rng: &mut dyn Rng) -> f64 {
        let decl = &self.compiled.user_vars[i];
        let r = rng.random::<f64>() * 2.0 - 1.0;
        let value = match decl.scale {
            VarScale::Log => {
                // Multiplicative walk: up to 2 decades at full scale.
                let span = (decl.max / decl.min).log10().min(2.0);
                state.user[i] * 10f64.powf(r * scale * span)
            }
            VarScale::Lin => state.user[i] + r * scale * (decl.max - decl.min) * 0.5,
        };
        self.clamp_user(i, value)
    }

    /// Newton–Raphson move on node voltages: a step of `alpha` times
    /// the evaluator's Newton step, clamped to ±1 V per node and to the
    /// node range.
    fn newton_move(&mut self, state: &OblxState, alpha: f64) -> Option<OblxState> {
        let delta = self.evaluator.newton_step(&state.user, &state.nodes)?;
        let mut next = state.clone();
        for (k, d) in delta.iter().enumerate() {
            let step = (alpha * d).clamp(-1.0, 1.0);
            next.nodes[k] = (next.nodes[k] + step).clamp(self.node_lo, self.node_hi);
        }
        Some(next)
    }
}

impl AnnealProblem for OblxProblem<'_> {
    type State = OblxState;

    fn initial_state(&mut self) -> OblxState {
        let user = self.compiled.initial_user_values();
        let mid = 0.5 * (self.node_lo + self.node_hi);
        OblxState {
            user: user
                .iter()
                .enumerate()
                .map(|(i, &v)| self.clamp_user(i, v))
                .collect(),
            nodes: vec![mid; self.compiled.node_vars.len()],
        }
    }

    fn cost(&mut self, state: &OblxState) -> f64 {
        self.evals += 1;
        let b = self
            .evaluator
            .evaluate(&state.user, &state.nodes, &self.weights);
        if !b.failed {
            self.weights.observe(&b.violation, &b.kcl_violation);
        }
        if !self.opts.disable_adaptive_weights
            && self.evals.is_multiple_of(self.opts.weight_update_every)
        {
            let progress = self.evals as f64 / self.opts.moves_budget.max(1) as f64;
            self.weights.adapt(progress.min(1.0));
        }
        b.total
    }

    fn move_classes(&self) -> usize {
        move_class::COUNT
    }

    fn propose(
        &mut self,
        state: &OblxState,
        class: usize,
        scale: f64,
        rng: &mut dyn Rng,
    ) -> Option<OblxState> {
        self.propose_dirty(state, class, scale, rng).map(|(s, _)| s)
    }

    /// Proposes a move together with the set of variables it touched.
    /// The dirty set is a *superset* declaration: every variable whose
    /// value may differ from `state` is listed (validated in debug
    /// builds), which is what lets an incremental evaluator skip
    /// untouched devices and jigs downstream.
    fn propose_dirty(
        &mut self,
        state: &OblxState,
        class: usize,
        scale: f64,
        rng: &mut dyn Rng,
    ) -> Option<(OblxState, DirtySet)> {
        let nu = state.user.len();
        let nn = state.nodes.len();
        let proposed = match class {
            move_class::USER_SINGLE if nu > 0 => {
                let i = (rng.next_u64() as usize) % nu;
                let mut next = state.clone();
                next.user[i] = self.perturb_user(state, i, scale, rng);
                Some((next, DirtySet::of(vec![i], Vec::new())))
            }
            move_class::USER_MULTI if nu > 1 => {
                let mut next = state.clone();
                let count = 2 + (rng.next_u64() as usize) % nu.min(3);
                let mut touched = Vec::with_capacity(count);
                for _ in 0..count {
                    let i = (rng.next_u64() as usize) % nu;
                    next.user[i] = self.perturb_user(&next, i, scale * 0.5, rng);
                    touched.push(i);
                }
                Some((next, DirtySet::of(touched, Vec::new())))
            }
            move_class::NODE_SINGLE if nn > 0 => {
                let k = (rng.next_u64() as usize) % nn;
                let mut next = state.clone();
                let r = rng.random::<f64>() * 2.0 - 1.0;
                next.nodes[k] = (next.nodes[k] + r * scale * 0.5 * (self.node_hi - self.node_lo))
                    .clamp(self.node_lo, self.node_hi);
                Some((next, DirtySet::of(Vec::new(), vec![k])))
            }
            move_class::NODE_ALL if nn > 0 => {
                let mut next = state.clone();
                for v in next.nodes.iter_mut() {
                    let r = rng.random::<f64>() * 2.0 - 1.0;
                    *v = (*v + r * scale * 0.1 * (self.node_hi - self.node_lo))
                        .clamp(self.node_lo, self.node_hi);
                }
                Some((next, DirtySet::of(Vec::new(), (0..nn).collect())))
            }
            move_class::NEWTON_FULL if nn > 0 && !self.opts.disable_newton_moves => self
                .newton_move(state, 1.0)
                .map(|s| (s, DirtySet::of(Vec::new(), (0..nn).collect()))),
            move_class::NEWTON_PARTIAL if nn > 0 && !self.opts.disable_newton_moves => self
                .newton_move(state, 0.3)
                .map(|s| (s, DirtySet::of(Vec::new(), (0..nn).collect()))),
            move_class::USER_WITH_NEWTON if nu > 0 && nn > 0 && !self.opts.disable_newton_moves => {
                let i = (rng.next_u64() as usize) % nu;
                let mut next = state.clone();
                next.user[i] = self.perturb_user(state, i, scale, rng);
                // Two Newton sweeps re-establish dc at the new geometry.
                let mut corrected = self.newton_move(&next, 1.0)?;
                corrected.user = next.user;
                if let Some(again) = self.newton_move(&corrected, 1.0) {
                    corrected.nodes = again.nodes;
                }
                Some((corrected, DirtySet::of(vec![i], (0..nn).collect())))
            }
            _ => None,
        };
        #[cfg(debug_assertions)]
        if let Some((next, dirty)) = &proposed {
            validate_dirty(state, next, dirty);
        }
        proposed
    }

    fn telemetry_names(&self) -> Vec<String> {
        vec![
            "kcl_max".into(),
            "c_dc".into(),
            "c_perf".into(),
            "c_obj".into(),
        ]
    }

    fn telemetry(&mut self, state: &OblxState) -> Vec<f64> {
        let b = self
            .evaluator
            .evaluate(&state.user, &state.nodes, &self.weights);
        vec![b.kcl_max, b.c_dc, b.c_perf, b.c_obj]
    }
}

/// Debug check of the dirty-set contract: every variable whose value
/// differs (bitwise) between `state` and `next` must be declared.
#[cfg(debug_assertions)]
fn validate_dirty(state: &OblxState, next: &OblxState, dirty: &DirtySet) {
    if dirty.all {
        return;
    }
    for (i, (a, b)) in state.user.iter().zip(next.user.iter()).enumerate() {
        assert!(
            a.to_bits() == b.to_bits() || dirty.primary_dirty(i),
            "move changed user var {i} without declaring it dirty"
        );
    }
    for (k, (a, b)) in state.nodes.iter().zip(next.nodes.iter()).enumerate() {
        assert!(
            a.to_bits() == b.to_bits() || dirty.aux_dirty(k),
            "move changed node voltage {k} without declaring it dirty"
        );
    }
}

/// A complete, serializable image of a synthesis run in flight: the
/// engine-side [`AnnealCheckpoint`] plus the problem-side state the
/// engine cannot see (adaptive weights, the evaluation counter that
/// paces weight adaptation, accumulated wall time). Both halves are cut
/// at the same instant, so restoring the pair continues the run
/// **bit-identically** — the determinism contract is verified by the
/// runtime crate's round-trip property test.
#[derive(Debug, Clone)]
pub struct SynthesisCheckpoint {
    /// Seed of the run this checkpoint belongs to (sanity-checked on
    /// resume: resuming under different options is a caller bug).
    pub seed: u64,
    /// Move budget of the run this checkpoint belongs to.
    pub moves_budget: usize,
    /// Engine state (RNG, schedule, move statistics, configurations).
    pub engine: AnnealCheckpoint<OblxState>,
    /// Adaptive-weight state.
    pub weights: WeightsSnapshot,
    /// Cost evaluations so far (paces the weight-adaptation cadence).
    pub evals: usize,
    /// Wall-clock seconds consumed before this checkpoint, across all
    /// resumed segments.
    pub wall_seconds: f64,
}

/// Outcome of [`synthesize_controlled`].
#[derive(Debug, Clone)]
pub enum SynthesisOutcome {
    /// The run finished.
    Complete(Box<SynthesisResult>),
    /// A hook stopped the run; resume later from this checkpoint.
    Interrupted(Box<SynthesisCheckpoint>),
}

/// Runs a full OBLX synthesis on a compiled problem.
///
/// # Errors
///
/// [`crate::cost::EvalFailure`] if even the *best* configuration found
/// cannot be evaluated — which indicates a structurally broken problem
/// rather than a poor optimum.
pub fn synthesize(
    compiled: &CompiledProblem,
    opts: &SynthesisOptions,
) -> Result<SynthesisResult, crate::cost::EvalFailure> {
    match synthesize_controlled(compiled, opts, None, 0, |_| Directive::Continue)? {
        SynthesisOutcome::Complete(r) => Ok(*r),
        SynthesisOutcome::Interrupted(_) => unreachable!("no hook ever issued Stop"),
    }
}

/// Runs an OBLX synthesis under external control: every
/// `checkpoint_every` proposals a [`SynthesisCheckpoint`] is cut and
/// handed to `hook`, which may persist it and/or stop the run
/// ([`Directive::Stop`]). Passing a previously cut checkpoint as
/// `resume` continues that run bit-identically — the warm-up probe is
/// skipped and the RNG, schedule, move statistics, adaptive weights and
/// evaluation counters all pick up exactly where they stood.
///
/// With `checkpoint_every == 0` and no `resume` this is exactly
/// [`synthesize`].
///
/// # Panics
///
/// If `resume` was cut under a different seed or move budget than
/// `opts` carries — mixing checkpoints across runs would silently
/// produce garbage, so it is rejected loudly.
///
/// # Errors
///
/// [`crate::cost::EvalFailure`] as for [`synthesize`].
pub fn synthesize_controlled(
    compiled: &CompiledProblem,
    opts: &SynthesisOptions,
    resume: Option<&SynthesisCheckpoint>,
    checkpoint_every: usize,
    mut hook: impl FnMut(&SynthesisCheckpoint) -> Directive,
) -> Result<SynthesisOutcome, crate::cost::EvalFailure> {
    let start = Instant::now();
    let mut problem = OblxProblem::new(compiled, opts.clone());
    let prior_wall = resume.map_or(0.0, |c| c.wall_seconds);
    let engine_resume = resume.map(|c| {
        assert_eq!(c.seed, opts.seed, "checkpoint cut under a different seed");
        assert_eq!(
            c.moves_budget, opts.moves_budget,
            "checkpoint cut under a different move budget"
        );
        problem.weights = AdaptiveWeights::from_snapshot(c.weights.clone());
        problem.evals = c.evals;
        c.engine.clone()
    });
    let mut annealer = Annealer::new(AnnealOptions {
        moves_budget: opts.moves_budget,
        seed: opts.seed,
        trace_every: opts.trace_every,
        quench_patience: opts.quench_patience,
        ..AnnealOptions::default()
    });
    let (seed, budget) = (opts.seed, opts.moves_budget);
    let mut stopped: Option<SynthesisCheckpoint> = None;
    let outcome = annealer.run_controlled(
        &mut problem,
        engine_resume,
        checkpoint_every,
        |p, engine_ck| {
            let ck = SynthesisCheckpoint {
                seed,
                moves_budget: budget,
                engine: engine_ck.clone(),
                weights: p.weights.snapshot(),
                evals: p.evals,
                wall_seconds: prior_wall + start.elapsed().as_secs_f64(),
            };
            let directive = hook(&ck);
            if directive == Directive::Stop {
                stopped = Some(ck);
            }
            directive
        },
    );
    let result = match outcome {
        ControlledOutcome::Interrupted(_) => {
            let ck = stopped.expect("Stop directive recorded its checkpoint");
            return Ok(SynthesisOutcome::Interrupted(Box::new(ck)));
        }
        ControlledOutcome::Complete(result) => result,
    };
    let wall = prior_wall + start.elapsed().as_secs_f64();
    let evaluations = problem.evaluations();
    let stats = problem.evaluator.stats();

    // Final scoring with the final weights, surfacing any failure.
    let breakdown = problem.evaluator.try_evaluate(
        &result.best_state.user,
        &result.best_state.nodes,
        &problem.weights,
    )?;

    let measured: Vec<(String, f64)> = compiled
        .problem
        .specs
        .iter()
        .zip(breakdown.measured.iter())
        .map(|(g, &v)| (g.name.clone(), v))
        .collect();
    let variables: Vec<(String, f64)> = compiled
        .user_vars
        .iter()
        .zip(result.best_state.user.iter())
        .map(|(d, &v)| (d.name.clone(), v))
        .collect();

    Ok(SynthesisOutcome::Complete(Box::new(SynthesisResult {
        kcl_max: breakdown.kcl_max,
        best_cost: result.best_cost,
        breakdown,
        measured,
        variables,
        state: result.best_state,
        trace: result.trace,
        attempted: result.attempted,
        evaluations,
        wall_seconds: wall,
        ms_per_eval: if evaluations > 0 {
            1000.0 * wall / evaluations as f64
        } else {
            0.0
        },
        evals_per_sec: if wall > 0.0 {
            evaluations as f64 / wall
        } else {
            0.0
        },
        moves_per_sec: if wall > 0.0 {
            result.attempted as f64 / wall
        } else {
            0.0
        },
        cache_hit_ratio: stats.cache_hit_ratio(),
    })))
}

/// Per-seed summary from [`synthesize_multi`].
#[derive(Debug, Clone)]
pub struct SeedRunStats {
    /// The RNG seed of the run.
    pub seed: u64,
    /// Frozen-final-weight cost of the run's best state (the
    /// cross-run commensurable score); `+inf` if the run failed.
    pub fixed_cost: f64,
    /// Best annealing cost the run reported (`NaN` if it failed).
    pub best_cost: f64,
    /// Worst KCL residual at the run's best state (`NaN` if failed).
    pub kcl_max: f64,
    /// Cost evaluations spent by the run.
    pub evaluations: usize,
    /// Wall-clock seconds of the run.
    pub wall_seconds: f64,
    /// Cost evaluations per second of the run.
    pub evals_per_sec: f64,
    /// Fraction of evaluations served incrementally or from cache.
    pub cache_hit_ratio: f64,
    /// Whether the run failed (its best state was unevaluable).
    pub failed: bool,
}

/// Result of a multi-seed synthesis.
#[derive(Debug, Clone)]
pub struct MultiSynthesisResult {
    /// The winning run's full result.
    pub best: SynthesisResult,
    /// The seed that produced [`MultiSynthesisResult::best`].
    pub best_seed: u64,
    /// Per-seed statistics, in the order the seeds were given.
    pub runs: Vec<SeedRunStats>,
    /// Wall-clock seconds for the whole multi-seed run.
    pub wall_seconds: f64,
    /// Worker threads actually used.
    pub threads: usize,
}

/// Runs [`synthesize`] once per seed, distributing the runs over up to
/// `threads` worker threads, and returns the best result under the
/// frozen end-of-run weights — the paper's best-of-several-overnight-
/// runs protocol, parallelized.
///
/// Each per-seed run is completely independent (its own evaluator,
/// weights and RNG), so the outcome is bit-identical for any thread
/// count; ties on `fixed_cost` break toward the earlier seed in
/// `seeds`.
///
/// # Panics
///
/// If `seeds` is empty.
///
/// # Errors
///
/// The first failing seed's [`crate::cost::EvalFailure`] if *every*
/// seed fails.
pub fn synthesize_multi(
    compiled: &CompiledProblem,
    opts: &SynthesisOptions,
    seeds: &[u64],
    threads: usize,
) -> Result<MultiSynthesisResult, crate::cost::EvalFailure> {
    synthesize_multi_with(compiled, opts, seeds, threads, |_, run_opts| {
        synthesize(compiled, run_opts)
    })
}

/// The generalized multi-seed driver behind [`synthesize_multi`]:
/// `run_one(seed, opts)` performs one per-seed run (it may checkpoint,
/// resume, or emit events around the core synthesis — the runtime crate
/// does all three), and the driver distributes seeds over up to
/// `threads` workers and aggregates outcomes exactly as
/// [`synthesize_multi`] does, preserving its thread-invariance
/// guarantee as long as `run_one` is per-seed deterministic.
///
/// # Panics
///
/// If `seeds` is empty.
///
/// # Errors
///
/// The first failing seed's [`crate::cost::EvalFailure`] if *every*
/// seed fails.
pub fn synthesize_multi_with<F>(
    compiled: &CompiledProblem,
    opts: &SynthesisOptions,
    seeds: &[u64],
    threads: usize,
    run_one: F,
) -> Result<MultiSynthesisResult, crate::cost::EvalFailure>
where
    F: Fn(u64, &SynthesisOptions) -> Result<SynthesisResult, crate::cost::EvalFailure> + Sync,
{
    assert!(
        !seeds.is_empty(),
        "synthesize_multi needs at least one seed"
    );
    let start = Instant::now();
    let workers = threads.max(1).min(seeds.len());
    type SeedOutcome = Result<SynthesisResult, crate::cost::EvalFailure>;
    let slots: Vec<Mutex<Option<SeedOutcome>>> = seeds.iter().map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= seeds.len() {
                    break;
                }
                let run_opts = SynthesisOptions {
                    seed: seeds[i],
                    ..opts.clone()
                };
                let outcome = run_one(seeds[i], &run_opts);
                *slots[i].lock().unwrap() = Some(outcome);
            });
        }
    });

    let mut runs = Vec::with_capacity(seeds.len());
    let mut best: Option<(f64, usize, SynthesisResult)> = None;
    let mut first_err = None;
    for (i, (&seed, slot)) in seeds.iter().zip(slots).enumerate() {
        let outcome = slot
            .into_inner()
            .unwrap()
            .expect("worker pool covered every seed");
        match outcome {
            Ok(r) => {
                let fc = fixed_cost(compiled, &r.state);
                runs.push(SeedRunStats {
                    seed,
                    fixed_cost: fc,
                    best_cost: r.best_cost,
                    kcl_max: r.kcl_max,
                    evaluations: r.evaluations,
                    wall_seconds: r.wall_seconds,
                    evals_per_sec: r.evals_per_sec,
                    cache_hit_ratio: r.cache_hit_ratio,
                    failed: false,
                });
                let key = if fc.is_nan() { f64::INFINITY } else { fc };
                if best.as_ref().is_none_or(|(bk, _, _)| key < *bk) {
                    best = Some((key, i, r));
                }
            }
            Err(e) => {
                runs.push(SeedRunStats {
                    seed,
                    fixed_cost: f64::INFINITY,
                    best_cost: f64::NAN,
                    kcl_max: f64::NAN,
                    evaluations: 0,
                    wall_seconds: 0.0,
                    evals_per_sec: 0.0,
                    cache_hit_ratio: 0.0,
                    failed: true,
                });
                if first_err.is_none() {
                    first_err = Some(e);
                }
            }
        }
    }
    match best {
        Some((_, i, r)) => Ok(MultiSynthesisResult {
            best: r,
            best_seed: seeds[i],
            runs,
            wall_seconds: start.elapsed().as_secs_f64(),
            threads: workers,
        }),
        None => Err(first_err.expect("no best implies at least one error")),
    }
}

/// Evaluates a configuration under the *frozen end-of-run* weight set
/// (uniform goal weights, full KCL ramp) — the commensurable score for
/// comparing results across independent annealing runs, as in the
/// paper's best-of-several-overnight-runs protocol.
pub fn fixed_cost(compiled: &CompiledProblem, state: &OblxState) -> f64 {
    let mut ev = CostEvaluator::new(compiled);
    let w = AdaptiveWeights::frozen_final(compiled);
    ev.evaluate(&state.user, &state.nodes, &w).total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::astrx::compile_source;

    fn compiled() -> CompiledProblem {
        compile_source(include_str!("testdata/diffamp.ox")).unwrap()
    }

    #[test]
    fn grid_snapping_log() {
        let c = compiled();
        let p = OblxProblem::new(&c, SynthesisOptions::default());
        // W in [2u, 500u] log grid.
        let snapped = p.clamp_user(0, 37.3e-6);
        assert!((2e-6..=500e-6).contains(&snapped));
        // Snapping twice is identity.
        assert_eq!(p.clamp_user(0, snapped), snapped);
        // Out of range clamps.
        assert_eq!(p.clamp_user(0, 1e-3), 500e-6);
        assert_eq!(p.clamp_user(0, 0.0), 2e-6);
    }

    #[test]
    fn continuous_vars_not_snapped() {
        let c = compiled();
        let p = OblxProblem::new(&c, SynthesisOptions::default());
        // Vb (index 3) is continuous.
        assert_eq!(p.clamp_user(3, 1.2345), 1.2345);
    }

    #[test]
    fn newton_move_reduces_kcl_error() {
        let c = compiled();
        let mut p = OblxProblem::new(&c, SynthesisOptions::default());
        let state = p.initial_state();
        let w = AdaptiveWeights::new(&c);
        let before = p
            .evaluator
            .try_evaluate(&state.user, &state.nodes, &w)
            .unwrap()
            .kcl_max;
        let mut s = state.clone();
        for _ in 0..20 {
            match p.newton_move(&s, 1.0) {
                Some(next) => s = next,
                None => break,
            }
        }
        let after = p
            .evaluator
            .try_evaluate(&s.user, &s.nodes, &w)
            .unwrap()
            .kcl_max;
        assert!(
            after < before * 1e-3,
            "newton must slash kcl error: {before} -> {after}"
        );
        assert!(after < 1e-7, "converged to dc point: {after}");
    }

    #[test]
    fn short_synthesis_run_improves_cost_and_converges_dc() {
        let c = compiled();
        let opts = SynthesisOptions {
            moves_budget: 3_000,
            seed: 11,
            trace_every: 100,
            quench_patience: 300,
            ..SynthesisOptions::default()
        };
        // Initial cost for comparison.
        let mut p0 = OblxProblem::new(&c, opts.clone());
        let init = p0.initial_state();
        let init_cost = p0.cost(&init);

        let result = synthesize(&c, &opts).unwrap();
        assert!(
            result.best_cost < init_cost,
            "synthesis must improve: {init_cost} -> {}",
            result.best_cost
        );
        // Relaxed dc must have annealed to near-correctness.
        assert!(
            result.kcl_max < 1e-6,
            "kcl residual at best = {}",
            result.kcl_max
        );
        // Trace recorded the Fig. 2 series.
        assert!(result.trace.series("kcl_max").is_some());
        assert!(result.evaluations > 1000);
        assert!(result.ms_per_eval > 0.0);
        // Throughput telemetry is populated, and the precompiled plan
        // served a nonzero share of evaluations without full updates.
        assert!(result.evals_per_sec > 0.0);
        assert!(result.moves_per_sec > 0.0);
        assert!(
            result.cache_hit_ratio > 0.0 && result.cache_hit_ratio <= 1.0,
            "cache hit ratio = {}",
            result.cache_hit_ratio
        );
        // Variables within their declared ranges.
        for (decl, (_, v)) in c.user_vars.iter().zip(result.variables.iter()) {
            assert!(*v >= decl.min && *v <= decl.max);
        }
    }

    #[test]
    fn multi_seed_is_thread_invariant_and_picks_best() {
        let c = compiled();
        let opts = SynthesisOptions {
            moves_budget: 600,
            quench_patience: 100,
            ..SynthesisOptions::default()
        };
        let seeds = [3u64, 5, 9];
        let seq = synthesize_multi(&c, &opts, &seeds, 1).unwrap();
        let par = synthesize_multi(&c, &opts, &seeds, 3).unwrap();
        assert_eq!(seq.threads, 1);
        assert_eq!(par.threads, 3);
        // Identical outcome regardless of thread count.
        assert_eq!(seq.best_seed, par.best_seed);
        assert_eq!(seq.best.best_cost.to_bits(), par.best.best_cost.to_bits());
        assert_eq!(seq.best.state, par.best.state);
        assert_eq!(seq.runs.len(), seeds.len());
        for (a, b) in seq.runs.iter().zip(par.runs.iter()) {
            assert_eq!(a.seed, b.seed);
            assert_eq!(a.fixed_cost.to_bits(), b.fixed_cost.to_bits());
            assert!(!a.failed && !b.failed);
        }
        // The winner carries the minimum frozen-final cost.
        let min = seq
            .runs
            .iter()
            .map(|r| r.fixed_cost)
            .fold(f64::INFINITY, f64::min);
        let winner = seq.runs.iter().find(|r| r.seed == seq.best_seed).unwrap();
        assert_eq!(winner.fixed_cost.to_bits(), min.to_bits());
    }

    #[test]
    fn interrupted_synthesis_resumes_bit_identically() {
        let c = compiled();
        let opts = SynthesisOptions {
            moves_budget: 900,
            seed: 7,
            quench_patience: 150,
            trace_every: 100,
            ..SynthesisOptions::default()
        };
        let full = synthesize(&c, &opts).unwrap();

        // Stop after ~a third of the budget, then resume to completion.
        let outcome = synthesize_controlled(&c, &opts, None, 50, |ck| {
            if ck.engine.attempted >= 300 {
                Directive::Stop
            } else {
                Directive::Continue
            }
        })
        .unwrap();
        let ck = match outcome {
            SynthesisOutcome::Interrupted(ck) => *ck,
            SynthesisOutcome::Complete(_) => panic!("must stop mid-run"),
        };
        assert_eq!(ck.engine.attempted, 300);
        assert!(ck.evals > 0);

        let resumed = match synthesize_controlled(&c, &opts, Some(&ck), 0, |_| Directive::Continue)
            .unwrap()
        {
            SynthesisOutcome::Complete(r) => *r,
            SynthesisOutcome::Interrupted(_) => unreachable!(),
        };
        assert_eq!(full.best_cost.to_bits(), resumed.best_cost.to_bits());
        assert_eq!(full.state, resumed.state);
        assert_eq!(full.attempted, resumed.attempted);
        assert_eq!(full.evaluations, resumed.evaluations);
        assert_eq!(full.kcl_max.to_bits(), resumed.kcl_max.to_bits());
        assert_eq!(full.trace.points, resumed.trace.points);
        for ((na, va), (nb, vb)) in full.measured.iter().zip(resumed.measured.iter()) {
            assert_eq!(na, nb);
            assert_eq!(va.to_bits(), vb.to_bits());
        }
    }

    #[test]
    fn synthesis_is_deterministic_per_seed() {
        let c = compiled();
        let opts = SynthesisOptions {
            moves_budget: 800,
            seed: 3,
            quench_patience: 100,
            ..SynthesisOptions::default()
        };
        let a = synthesize(&c, &opts).unwrap();
        let b = synthesize(&c, &opts).unwrap();
        assert_eq!(a.best_cost.to_bits(), b.best_cost.to_bits());
        assert_eq!(a.state, b.state);
    }
}
