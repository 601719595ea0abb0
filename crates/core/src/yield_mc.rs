//! Monte-Carlo mismatch analysis — the *yield* half of the paper's
//! closing future-work item ("the manual designer was willing to trade
//! nominal performance for better estimated yield").
//!
//! Each sample draws an independent threshold-voltage offset for every
//! MOS device (Pelgrom-style mismatch, `σ ∝ 1/√(W·L)`), re-solves the
//! bias, re-measures every goal through the simulator path, and checks
//! the constraints. The pass fraction is the estimated parametric
//! yield.

use crate::astrx::CompiledProblem;
use crate::cost::{normalized, EvalFailure};
use crate::oblx::OblxState;
use crate::verify::verify_design_with;
use oblx_netlist::SpecKind;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashMap;

/// Options for the Monte-Carlo run.
#[derive(Debug, Clone, Copy)]
pub struct YieldOptions {
    /// Number of Monte-Carlo samples.
    pub samples: usize,
    /// Pelgrom coefficient `A_vt` (V·m): `σ_vto = A_vt/√(W·L)`.
    /// A 1990s-era 2µ process sits around 20–40 mV·µm.
    pub a_vt: f64,
    /// RNG seed.
    pub seed: u64,
    /// Constraint slack: a goal counts as passed when its normalized
    /// violation `z ≤ slack` (0 = hard pass).
    pub slack: f64,
}

impl Default for YieldOptions {
    fn default() -> Self {
        YieldOptions {
            samples: 100,
            a_vt: 25e-9, // 25 mV·µm in V·m
            seed: 1,
            slack: 0.02,
        }
    }
}

/// Result of a Monte-Carlo yield estimate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct YieldResult {
    /// Samples attempted.
    pub samples: usize,
    /// Samples where the bias solved and every constraint passed.
    pub passed: usize,
    /// Samples whose bias failed to solve at all (counted as fails).
    pub bias_failures: usize,
    /// Per-constraint failure counts, in goal order (objectives get 0).
    pub failures_by_goal: Vec<(String, usize)>,
}

impl YieldResult {
    /// The estimated parametric yield in `[0, 1]`.
    pub fn yield_fraction(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.passed as f64 / self.samples as f64
        }
    }
}

/// Standard-normal sample via Box–Muller (no external distributions
/// crate needed).
fn normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.random::<f64>().max(1e-12);
    let u2: f64 = rng.random::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Runs the Monte-Carlo mismatch analysis on a synthesized design.
///
/// # Errors
///
/// [`EvalFailure`] only for structural problems (the nominal design
/// cannot even be assembled); per-sample bias failures are *counted*,
/// not propagated — a sample that cannot bias has failed yield.
pub fn yield_mc(
    compiled: &CompiledProblem,
    state: &OblxState,
    opts: &YieldOptions,
) -> Result<YieldResult, EvalFailure> {
    // Nominal must assemble; its device geometries set the Pelgrom
    // sigmas.
    let vars = compiled.var_map(&state.user);
    let bias = oblx_mna::SizedCircuit::build(&compiled.bias_netlist, &vars, &compiled.lib)
        .map_err(|e| EvalFailure::Build(e.to_string()))?;

    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut passed = 0usize;
    let mut bias_failures = 0usize;
    let mut failures: Vec<usize> = vec![0; compiled.problem.specs.len()];

    for _ in 0..opts.samples {
        // Draw one vto offset per device, in bias-circuit order so a
        // seed fixes every draw; the same offset applies to that device
        // (by name) in the bias circuit and in every jig.
        let offsets: HashMap<&str, f64> = bias
            .mosfets
            .iter()
            .map(|m| {
                let sigma = opts.a_vt / (m.w * m.l).max(1e-18).sqrt();
                (m.name.as_str(), sigma * normal(&mut rng))
            })
            .collect();
        let perturb = |ckt: &mut oblx_mna::SizedCircuit| {
            for m in ckt.mosfets.iter_mut() {
                if let Some(&dv) = offsets.get(m.name.as_str()) {
                    m.model.shift_vto(dv);
                }
            }
        };
        match verify_design_with(compiled, state, &[], &perturb) {
            Ok(v) => {
                let mut ok = true;
                for ((goal, (_, _, sim)), fail_count) in compiled
                    .problem
                    .specs
                    .iter()
                    .zip(v.rows.iter())
                    .zip(failures.iter_mut())
                {
                    if goal.kind == SpecKind::Constraint && normalized(goal, *sim) > opts.slack {
                        ok = false;
                        *fail_count += 1;
                    }
                }
                if ok {
                    passed += 1;
                }
            }
            Err(_) => bias_failures += 1,
        }
    }

    Ok(YieldResult {
        samples: opts.samples,
        passed,
        bias_failures,
        failures_by_goal: compiled
            .problem
            .specs
            .iter()
            .map(|g| g.name.clone())
            .zip(failures)
            .collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench_suite;
    use crate::oblx::{synthesize, SynthesisOptions};

    #[test]
    fn yield_degrades_with_mismatch_sigma() {
        let b = bench_suite::simple_ota();
        let compiled = crate::astrx::compile(b.problem().unwrap()).unwrap();
        // 20k moves: enough budget that convergence does not hinge on
        // one lucky trajectory (the AWE guard rails make the cost
        // surface stricter than when this test was first seeded).
        let result = synthesize(
            &compiled,
            &SynthesisOptions {
                moves_budget: 20_000,
                seed: 1,
                quench_patience: 400,
                ..SynthesisOptions::default()
            },
        )
        .unwrap();

        // Zero mismatch: yield is determined by the nominal margins
        // alone and must be 0% or 100% — and with a generous slack, a
        // converged design passes.
        let clean = yield_mc(
            &compiled,
            &result.state,
            &YieldOptions {
                samples: 8,
                a_vt: 0.0,
                slack: 0.25,
                ..YieldOptions::default()
            },
        )
        .unwrap();
        assert_eq!(clean.passed, 8, "nominal design passes with slack");

        // Brutal mismatch (500 mV·µm): yield must collapse.
        let noisy = yield_mc(
            &compiled,
            &result.state,
            &YieldOptions {
                samples: 16,
                a_vt: 500e-9,
                slack: 0.25,
                ..YieldOptions::default()
            },
        )
        .unwrap();
        assert!(
            noisy.yield_fraction() < clean.yield_fraction(),
            "mismatch must cost yield: {} vs {}",
            noisy.yield_fraction(),
            clean.yield_fraction()
        );
        // The failure table names at least one guilty constraint (or a
        // bias failure occurred).
        let total_failures: usize =
            noisy.failures_by_goal.iter().map(|(_, n)| n).sum::<usize>() + noisy.bias_failures;
        assert!(total_failures > 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let b = bench_suite::simple_ota();
        let compiled = crate::astrx::compile(b.problem().unwrap()).unwrap();
        let result = synthesize(
            &compiled,
            &SynthesisOptions {
                moves_budget: 3_000,
                seed: 2,
                quench_patience: 200,
                ..SynthesisOptions::default()
            },
        )
        .unwrap();
        // Brutal mismatch, so that samples fail on several goals and
        // the whole failure table depends on every draw.
        let opts = YieldOptions {
            samples: 6,
            a_vt: 500e-9,
            ..YieldOptions::default()
        };
        let first = yield_mc(&compiled, &result.state, &opts).unwrap();
        let failures: usize = first.failures_by_goal.iter().map(|(_, n)| n).sum();
        assert!(failures + first.bias_failures > 0, "{first:?}");
        for _ in 0..4 {
            assert_eq!(yield_mc(&compiled, &result.state, &opts).unwrap(), first);
        }
    }
}
