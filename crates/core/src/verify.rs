//! Independent verification — the "Simulation" columns of Tables 2/3.
//!
//! A synthesized design is replayed through the SPICE-class path: a
//! full Newton–Raphson bias solve (`oblx-mna::solve_dc`), jig
//! linearization at *that* operating point, and direct per-frequency
//! complex ac measurements. Every goal expression is then re-evaluated
//! against the simulator-side quantities, giving the
//! `OBLX prediction / simulation` pairs the paper uses to demonstrate
//! accuracy.

use crate::astrx::{determined_voltages, fill_bias_vector, CompiledProblem};
use crate::cost::{area_of, jig_device_ops, EvalFailure};
use crate::oblx::{OblxState, SynthesisResult};
use oblx_mna::{ac, solve_dc_with, DcOptions, LinearSystem, OpPoint, SizedCircuit};
use oblx_netlist::{builtin_call, EvalContext, EvalError, Expr};
use std::collections::HashMap;

/// A verified design: simulator-side measurements for each goal.
#[derive(Debug, Clone)]
pub struct VerifiedDesign {
    /// `(goal name, OBLX prediction, simulated value)` triples.
    pub rows: Vec<(String, f64, f64)>,
    /// The Newton-solved bias operating point.
    pub op_residual: f64,
    /// Simulated static power (W).
    pub power: f64,
    /// Active area (m²).
    pub area: f64,
}

impl VerifiedDesign {
    /// Worst relative discrepancy between prediction and simulation
    /// over all goals (the paper's "prediction error" axis of Fig. 3).
    pub fn worst_relative_error(&self) -> f64 {
        self.rows
            .iter()
            .map(|(_, p, s)| {
                let denom = s.abs().max(1e-12);
                (p - s).abs() / denom
            })
            .fold(0.0, f64::max)
    }
}

/// A jig system with its stimulus source name and output probe.
type JigSystem = (LinearSystem, String, oblx_mna::OutputSelector);

struct SimContext<'a> {
    vars: &'a HashMap<String, f64>,
    op: &'a OpPoint,
    systems: &'a HashMap<String, JigSystem>,
    power: f64,
    area: f64,
}

impl EvalContext for SimContext<'_> {
    fn lookup_var(&self, name: &str) -> Result<f64, EvalError> {
        self.vars
            .get(name)
            .copied()
            .ok_or_else(|| EvalError::UnknownVar(name.to_string()))
    }

    fn lookup_path(&self, path: &[String]) -> Result<f64, EvalError> {
        if path.len() >= 2 {
            let device = path[..path.len() - 1].join(".");
            let quantity = &path[path.len() - 1];
            if let Some(v) = self.op.device_quantity(&device, quantity) {
                return Ok(v);
            }
        }
        Err(EvalError::UnknownPath(path.join(".")))
    }

    fn call(&self, name: &str, args: &[Expr], values: &[Option<f64>]) -> Result<f64, EvalError> {
        let sys = |k: usize| -> Result<&JigSystem, EvalError> {
            let handle = match args.get(k) {
                Some(Expr::Var(h)) => h,
                _ => return Err(EvalError::BadArguments(name.to_string())),
            };
            self.systems
                .get(handle)
                .ok_or_else(|| EvalError::UnknownVar(handle.clone()))
        };
        let bad = || EvalError::BadArguments(name.to_string());
        match name {
            "dc_gain" => {
                let (s, src, out) = sys(0)?;
                ac::dc_gain(s, src, *out).map_err(|_| bad())
            }
            "dcv" => {
                let (s, src, out) = sys(0)?;
                Ok(s.transfer(src, *out, 0.0).map_err(|_| bad())?.re)
            }
            "ugf" => {
                let (s, src, out) = sys(0)?;
                ac::unity_gain_frequency(s, src, *out).map_err(|_| bad())
            }
            "phase_margin" => {
                let (s, src, out) = sys(0)?;
                ac::phase_margin(s, src, *out).map_err(|_| bad())
            }
            "gain_at" => {
                let (s, src, out) = sys(0)?;
                let f = values.get(1).copied().flatten().ok_or_else(bad)?;
                ac::gain_at(s, src, *out, f).map_err(|_| bad())
            }
            "pole" => {
                // The simulator has no pole extraction; approximate the
                // k-th pole as the −3 dB knee found by sweeping — only
                // k = 1 is supported on the simulator side.
                let (s, src, out) = sys(0)?;
                let k = values.get(1).copied().flatten().ok_or_else(bad)?;
                if k as usize != 1 {
                    return Err(bad());
                }
                let a0 = ac::dc_gain(s, src, *out).map_err(|_| bad())?;
                let target = a0 / 2.0f64.sqrt();
                let mut lo = 1.0e-1f64;
                let mut hi = 1.0e12f64;
                for _ in 0..60 {
                    let mid = (lo * hi).sqrt();
                    if ac::gain_at(s, src, *out, mid).map_err(|_| bad())? > target {
                        lo = mid;
                    } else {
                        hi = mid;
                    }
                }
                Ok((lo * hi).sqrt())
            }
            "zero" => {
                // The direct simulator has no zero extraction; build a
                // reduced-order model at the Newton-solved operating
                // point (simulation-grade bias) and read its zeros.
                let (sys_ref, src, out) = sys(0)?;
                let k = values.get(1).copied().flatten().ok_or_else(bad)?;
                let model = oblx_awe::analyze(sys_ref, src, *out, crate::cost::AWE_ORDER)
                    .map_err(|_| bad())?;
                let z = model.zero(k as usize).ok_or_else(bad)?;
                let f = z.norm() / (2.0 * std::f64::consts::PI);
                Ok(if z.re > 0.0 { -f } else { f })
            }
            "power" => Ok(self.power),
            "area" => Ok(self.area),
            _ => builtin_call(name, args, values),
        }
    }
}

/// Verifies a synthesized configuration through the full simulator.
///
/// # Errors
///
/// [`EvalFailure`] when the design cannot be assembled, bias-solved, or
/// measured.
pub fn verify_design(
    compiled: &CompiledProblem,
    state: &OblxState,
    predictions: &[(String, f64)],
) -> Result<VerifiedDesign, EvalFailure> {
    verify_design_with(compiled, state, predictions, &|_| {})
}

/// [`verify_design`] with a perturbation hook applied to **every**
/// assembled circuit (bias and jigs) before analysis — the injection
/// point for Monte-Carlo mismatch (`yield_mc`) and similar what-if
/// studies. The hook sees each [`SizedCircuit`] after assembly, so
/// per-instance device edits are possible.
///
/// # Errors
///
/// As for [`verify_design`].
pub fn verify_design_with(
    compiled: &CompiledProblem,
    state: &OblxState,
    predictions: &[(String, f64)],
    perturb: &dyn Fn(&mut SizedCircuit),
) -> Result<VerifiedDesign, EvalFailure> {
    let vars = compiled.var_map(&state.user);
    let mut bias = SizedCircuit::build(&compiled.bias_netlist, &vars, &compiled.lib)
        .map_err(|e| EvalFailure::Build(e.to_string()))?;
    perturb(&mut bias);

    // Full Newton solve, warm-started from the annealed node voltages.
    let det = determined_voltages(&bias);
    let mut x0 = vec![0.0; bias.dim()];
    fill_bias_vector(&det, &state.nodes, &mut x0);
    // BSIM-style models carry numeric derivatives, so the achievable
    // Newton floor is looser than for analytic level-1; 10 nA residual
    // is far below any measured quantity's sensitivity.
    let dc_opts = DcOptions {
        max_iters: 300,
        abstol_i: 1e-8,
        ..DcOptions::default()
    };
    let op = solve_dc_with(&bias, &dc_opts, Some(&x0))
        .map_err(|e| EvalFailure::Build(format!("bias solve: {e}")))?;

    // Jig systems at the solved operating point.
    let mut systems = HashMap::new();
    for jig in &compiled.jigs {
        if jig.analyses.is_empty() {
            continue;
        }
        let mut ckt = SizedCircuit::build(&jig.netlist, &vars, &compiled.lib)
            .map_err(|e| EvalFailure::Build(e.to_string()))?;
        perturb(&mut ckt);
        let (jig_mos, jig_bjt, jig_diode) =
            jig_device_ops(&bias, &ckt, &op.mos_ops, &op.bjt_ops, &op.diode_ops)?;
        let sys = LinearSystem::from_device_ops(&ckt, &jig_mos, &jig_bjt, &jig_diode);
        for a in &jig.analyses {
            let out = sys
                .output_selector(&a.out_p, a.out_m.as_deref())
                .ok_or_else(|| EvalFailure::Awe(format!("bad probe in `{}`", a.name)))?;
            systems.insert(a.name.clone(), (sys.clone(), a.source.clone(), out));
        }
    }

    let power = op.static_power(&bias);
    let area = area_of(&bias);
    let ctx = SimContext {
        vars: &vars,
        op: &op,
        systems: &systems,
        power,
        area,
    };

    let mut rows = Vec::new();
    for goal in &compiled.problem.specs {
        let sim = goal
            .expr
            .eval(&ctx)
            .map_err(|e| EvalFailure::Goal(format!("{}: {e}", goal.name)))?;
        let pred = predictions
            .iter()
            .find(|(n, _)| n == &goal.name)
            .map(|(_, v)| *v)
            .unwrap_or(f64::NAN);
        rows.push((goal.name.clone(), pred, sim));
    }

    Ok(VerifiedDesign {
        rows,
        op_residual: op.residual,
        power,
        area,
    })
}

/// Measures the **actual slew rate** of a synthesized design by a
/// nonlinear transient step response in the named jig — the measurement
/// the paper replaces with a designer expression inside the loop. The
/// stimulus is the jig's first `.pz` source, stepped by `delta` volts;
/// the readout is the maximum |dv/dt| at the analysis output.
///
/// # Errors
///
/// [`EvalFailure`] when the jig cannot be assembled, a `.pz` card is
/// missing, or the transient fails to converge.
pub fn transient_slew(
    compiled: &CompiledProblem,
    state: &OblxState,
    jig_name: &str,
    delta: f64,
) -> Result<f64, EvalFailure> {
    let vars = compiled.var_map(&state.user);
    let jig = compiled
        .jigs
        .iter()
        .find(|j| j.name == jig_name)
        .ok_or_else(|| EvalFailure::Build(format!("no jig `{jig_name}`")))?;
    let analysis = jig
        .analyses
        .first()
        .ok_or_else(|| EvalFailure::Build(format!("jig `{jig_name}` has no .pz card")))?;
    let ckt = SizedCircuit::build(&jig.netlist, &vars, &compiled.lib)
        .map_err(|e| EvalFailure::Build(e.to_string()))?;
    let out_idx = ckt
        .nodes
        .get(&analysis.out_p)
        .ok_or_else(|| EvalFailure::Build(format!("no node `{}`", analysis.out_p)))?;

    // Time scale from the load at the output: assume tens of µA into
    // ~1 pF ⇒ sub-µs events; 1000 steps across 2 µs resolves slews
    // from ~10 kV/s up.
    let opts = oblx_mna::TranOptions {
        dt: 2.0e-9,
        t_stop: 2.0e-6,
        ..oblx_mna::TranOptions::default()
    };
    let w = oblx_mna::step_response(&ckt, &analysis.source, delta, &opts)
        .map_err(|e| EvalFailure::Build(format!("transient: {e}")))?;
    let mut slew = w.max_slew(out_idx);
    if let Some(m) = &analysis.out_m {
        if let Some(mi) = ckt.nodes.get(m) {
            slew += w.max_slew(mi);
        }
    }
    Ok(slew)
}

/// Measures the **actual output swing** of a synthesized design by a
/// dc transfer sweep in the named jig: the stimulus source walks
/// ±`span` volts around its bias and the output excursion is taken over
/// the region where the incremental gain stays above 25% of its peak.
///
/// # Errors
///
/// [`EvalFailure`] as for [`transient_slew`].
pub fn swept_swing(
    compiled: &CompiledProblem,
    state: &OblxState,
    jig_name: &str,
    span: f64,
) -> Result<f64, EvalFailure> {
    let vars = compiled.var_map(&state.user);
    let jig = compiled
        .jigs
        .iter()
        .find(|j| j.name == jig_name)
        .ok_or_else(|| EvalFailure::Build(format!("no jig `{jig_name}`")))?;
    let analysis = jig
        .analyses
        .first()
        .ok_or_else(|| EvalFailure::Build(format!("jig `{jig_name}` has no .pz card")))?;
    let ckt = SizedCircuit::build(&jig.netlist, &vars, &compiled.lib)
        .map_err(|e| EvalFailure::Build(e.to_string()))?;
    let out_idx = ckt
        .nodes
        .get(&analysis.out_p)
        .ok_or_else(|| EvalFailure::Build(format!("no node `{}`", analysis.out_p)))?;
    // Source bias value.
    let src_idx = ckt
        .linear_names
        .iter()
        .position(|n| n == &analysis.source)
        .ok_or_else(|| EvalFailure::Build(format!("no source `{}`", analysis.source)))?;
    let bias = match ckt.linear[src_idx] {
        oblx_mna::LinElement::Vsource { dc, .. } => dc,
        _ => return Err(EvalFailure::Build("stimulus is not a V source".into())),
    };
    let points = oblx_mna::dc_sweep(&ckt, &analysis.source, bias - span, bias + span, 81)
        .map_err(|e| EvalFailure::Build(format!("sweep: {e}")))?;
    Ok(oblx_mna::sweep::swing_from_sweep(&points, out_idx, 0.25))
}

/// Convenience: verify a [`SynthesisResult`] directly.
///
/// # Errors
///
/// As for [`verify_design`].
pub fn verify_result(
    compiled: &CompiledProblem,
    result: &SynthesisResult,
) -> Result<VerifiedDesign, EvalFailure> {
    verify_design(compiled, &result.state, &result.measured)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::astrx::compile_source;
    use crate::oblx::{synthesize, SynthesisOptions};

    #[test]
    fn oblx_prediction_matches_simulation() {
        // The paper's central accuracy claim: after synthesis, AWE-based
        // predictions of the small-signal specs match the independent
        // simulator almost exactly (Table 2).
        let c = compile_source(include_str!("testdata/diffamp.ox")).unwrap();
        let result = synthesize(
            &c,
            &SynthesisOptions {
                moves_budget: 4_000,
                seed: 2,
                quench_patience: 500,
                ..SynthesisOptions::default()
            },
        )
        .unwrap();
        let verified = verify_result(&c, &result).unwrap();
        assert_eq!(verified.rows.len(), 3);
        for (name, pred, sim) in &verified.rows {
            let rel = (pred - sim).abs() / sim.abs().max(1e-12);
            assert!(
                rel < 0.05,
                "{name}: oblx {pred} vs sim {sim} ({:.2}% off)",
                rel * 100.0
            );
        }
        assert!(verified.op_residual < 1e-9);
        assert!(verified.power > 0.0 && verified.area > 0.0);
        assert!(verified.worst_relative_error() < 0.05);
    }
}
