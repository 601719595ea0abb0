//! The relaxed-dc formulation, cross-checked against the full
//! Newton–Raphson solver — paper §V.B and Fig. 2.

use astrx_oblx::astrx::{determined_voltages, CompiledProblem};
use astrx_oblx::bench_suite;
use astrx_oblx::cost::CostEvaluator;
use astrx_oblx::oblx::{move_class, synthesize, OblxProblem, SynthesisOptions};
use astrx_oblx::AdaptiveWeights;
use oblx_anneal::AnnealProblem;
use oblx_linalg::{Lu, Mat};
use oblx_mna::dc::linearize_at;
use oblx_mna::{solve_dc_with, DcOptions, SizedCircuit};
use oblx_netlist::ElementKind;
use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};

fn compiled(name: &str) -> CompiledProblem {
    let b = bench_suite::by_name(name).expect("benchmark");
    astrx_oblx::astrx::compile(b.problem().expect("parses")).expect("compiles")
}

/// For every benchmark: evaluating the cost at the Newton-solved node
/// voltages must produce a (near-)zero KCL penalty, and perturbing the
/// voltages must produce a large one. This is the contract between the
/// relaxed-dc cost terms and real Kirchhoff correctness.
#[test]
fn kcl_terms_vanish_exactly_at_newton_solution() {
    for name in ["Simple OTA", "OTA", "Two-Stage", "BiCMOS Two-Stage"] {
        let c = compiled(name);
        let mut ev = CostEvaluator::new(&c);
        let user = c.initial_user_values();
        let vars = c.var_map(&user);
        let bias = SizedCircuit::build(&c.bias_netlist, &vars, &c.lib).expect("builds");
        let opts = DcOptions {
            abstol_i: 1e-8,
            max_iters: 300,
            ..DcOptions::default()
        };
        let op = solve_dc_with(&bias, &opts, None)
            .unwrap_or_else(|e| panic!("{name}: newton failed: {e}"));
        let det = determined_voltages(&bias);
        let nodes: Vec<f64> = det
            .iter()
            .enumerate()
            .filter(|(_, d)| d.is_none())
            .map(|(i, _)| op.v[i])
            .collect();
        assert_eq!(nodes.len(), c.node_vars.len(), "{name}");

        let w = AdaptiveWeights::new(&c);
        let at = ev
            .try_evaluate(&user, &nodes, &w)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            at.kcl_max < 1e-6,
            "{name}: kcl at solution {:.2e}",
            at.kcl_max
        );

        let off: Vec<f64> = nodes.iter().map(|v| v + 0.5).collect();
        let away = ev.try_evaluate(&user, &off, &w).expect("evaluates");
        assert!(
            away.kcl_max > 100.0 * at.kcl_max.max(1e-12),
            "{name}: perturbed kcl {:.2e} vs {:.2e}",
            away.kcl_max,
            at.kcl_max
        );
    }
}

/// Newton moves must converge the bias point from an arbitrary start
/// "at least as reliably as a detailed circuit simulator" (§V.A).
#[test]
fn newton_moves_converge_bias_for_benchmarks() {
    for name in ["Simple OTA", "OTA", "Folded Cascode"] {
        let c = compiled(name);
        let mut p = OblxProblem::new(&c, SynthesisOptions::default());
        let mut state = p.initial_state();
        let mut ev = CostEvaluator::new(&c);
        let w = AdaptiveWeights::new(&c);
        let mut kcl = f64::INFINITY;
        // Alternate full Newton jumps (class 4) as the annealer would.
        for _ in 0..40 {
            let mut rng = rand_stub();
            if let Some(next) = p.propose(&state, 4, 1.0, &mut rng) {
                state = next;
            }
            kcl = ev
                .try_evaluate(&state.user, &state.nodes, &w)
                .map(|b| b.kcl_max)
                .unwrap_or(f64::INFINITY);
            if kcl < 1e-9 {
                break;
            }
        }
        assert!(kcl < 1e-7, "{name}: newton moves stalled at {kcl:.2e} A");
    }
}

/// The Fig. 2 trace: KCL error must decay by orders of magnitude from
/// the early annealing phase to freeze-out.
#[test]
fn fig2_kcl_error_decays_over_run() {
    let c = compiled("Simple OTA");
    let result = synthesize(
        &c,
        &SynthesisOptions {
            moves_budget: 10_000,
            seed: 5,
            trace_every: 200,
            quench_patience: 500,
            ..SynthesisOptions::default()
        },
    )
    .expect("synthesis");
    let series = result.trace.series("kcl_max").expect("traced");
    assert!(series.len() > 20);
    // Compare the worst early residual to the final residual.
    let early_max = series
        .iter()
        .take(series.len() / 4)
        .map(|(_, v)| *v)
        .fold(0.0f64, f64::max);
    assert!(
        result.kcl_max < early_max / 1e3,
        "kcl should collapse: early max {early_max:.2e} → final {:.2e}",
        result.kcl_max
    );
}

/// User-variable indices that feed a linear bias element value; moving
/// one forces the full case of a slot update.
fn linear_vars(c: &CompiledProblem) -> Vec<usize> {
    let mut out = Vec::new();
    for el in &c.bias_netlist.elements {
        let expr = match &el.kind {
            ElementKind::Resistor { value }
            | ElementKind::Capacitor { value }
            | ElementKind::Inductor { value } => value,
            ElementKind::Vsource { dc, .. } | ElementKind::Isource { dc, .. } => dc,
            ElementKind::Vcvs { gain, .. } => gain,
            ElementKind::Vccs { gm, .. } => gm,
            _ => continue,
        };
        for name in expr.variables() {
            if let Some(i) = c.user_vars.iter().position(|v| v.name == name) {
                if !out.contains(&i) {
                    out.push(i);
                }
            }
        }
    }
    out
}

/// The Newton step on the cold path, kept here as the oracle: a fresh
/// bias circuit from the netlist, `linearize_at`, the free-node block
/// and a dense LU.
fn cold_newton_step(c: &CompiledProblem, user: &[f64], nodes: &[f64]) -> Option<Vec<f64>> {
    let bias = SizedCircuit::build(&c.bias_netlist, &c.var_map(user), &c.lib).ok()?;
    let det = determined_voltages(&bias);
    let mut x = vec![0.0; bias.dim()];
    let mut free = Vec::new();
    for (i, dv) in det.iter().enumerate() {
        x[i] = match dv {
            Some(v) => *v,
            None => {
                free.push(i);
                nodes.get(free.len() - 1).copied().unwrap_or(0.0)
            }
        };
    }
    let (jac, f) = linearize_at(&bias, &x, 1.0, 1e-12);
    if free.is_empty() {
        return None;
    }
    let nf = free.len();
    let mut jff = Mat::zeros(nf, nf);
    let mut rhs = vec![0.0; nf];
    for (r, &nr) in free.iter().enumerate() {
        rhs[r] = -f[nr];
        for (c, &nc) in free.iter().enumerate() {
            jff[(r, c)] = jac.get(nr, nc);
        }
    }
    Some(Lu::factor(jff).ok()?.solve(&rhs))
}

/// `CostEvaluator::newton_step` equals the cold path bit for bit along
/// a seeded walk of annealing moves (Newton moves included), with a
/// linear-bias-variable move every fifth step (the full update) and an
/// unbindable state every seventh (both `None`). BiCMOS Two-Stage
/// covers bipolar and diode operating points.
#[test]
fn newton_step_matches_cold_path_bit_for_bit() {
    let bits = |d: &Option<Vec<f64>>| -> Option<Vec<u64>> {
        d.as_ref().map(|v| v.iter().map(|x| x.to_bits()).collect())
    };
    for name in ["Simple OTA", "Folded Cascode", "BiCMOS Two-Stage"] {
        let c = compiled(name);
        let linear = linear_vars(&c);
        assert!(!linear.is_empty(), "{name} has linear bias variables");
        let mut p = OblxProblem::new(&c, SynthesisOptions::default());
        let mut ev = CostEvaluator::new(&c);
        let mut rng = StdRng::seed_from_u64(17);
        let mut state = p.initial_state();
        let (mut some, mut none) = (0, 0);
        for step in 0..60 {
            let mut probe = state.clone();
            if step % 7 == 6 {
                let i = rng.next_u64() as usize % probe.user.len();
                probe.user[i] = f64::NAN;
            } else if step % 5 == 4 {
                let i = linear[rng.next_u64() as usize % linear.len()];
                let v = &c.user_vars[i];
                state.user[i] = v.min + rng.random::<f64>() * (v.max - v.min);
                probe = state.clone();
            } else {
                let class = rng.next_u64() as usize % move_class::COUNT;
                if let Some(next) = p.propose(&state, class, 0.5, &mut rng) {
                    state = next;
                    probe = state.clone();
                }
            }
            let got = ev.newton_step(&probe.user, &probe.nodes);
            let want = cold_newton_step(&c, &probe.user, &probe.nodes);
            assert_eq!(bits(&got), bits(&want), "{name}, step {step}");
            if got.is_some() {
                some += 1;
            } else {
                none += 1;
            }
        }
        assert!(some > 40 && none >= 8, "{name}: {some} steps, {none} None");
    }
}

/// A deterministic `Rng` for the Newton-move test (the move ignores
/// randomness, but the trait needs one).
fn rand_stub() -> impl rand::Rng {
    use rand::SeedableRng;
    rand::rngs::StdRng::seed_from_u64(0)
}
