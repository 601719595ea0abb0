//! Property test for the precompiled-plan evaluator: after an arbitrary
//! sequence of single-variable, multi-variable, linear-bias-variable
//! and node-voltage moves — including exact revisits that hit the state
//! cache — the persistent evaluator must report the same
//! `CostBreakdown` as the reference evaluation (`record`) of the same
//! state, component by component, within 1e-12 relative.
//!
//! The circuit is an input: the section IV diff amp, Simple OTA (dim-24
//! jigs), Folded Cascode (41-node jigs) and BiCMOS Two-Stage (bipolar
//! operating points). Every jig runs on the one sparse AWE engine.

use astrx_oblx::cost::{CostBreakdown, CostEvaluator};
use astrx_oblx::{bench_suite, AdaptiveWeights, CompiledProblem};
use oblx_mna::{solve_dc, SizedCircuit};
use oblx_netlist::ElementKind;
use proptest::prelude::*;

const DIFFAMP: &str = include_str!("../crates/core/src/testdata/diffamp.ox");

/// The circuits under test; `None` is the diff amp test deck.
const CIRCUITS: [Option<&str>; 4] = [
    None,
    Some("Simple OTA"),
    Some("Folded Cascode"),
    Some("BiCMOS Two-Stage"),
];

fn compiled(circuit: Option<&str>) -> CompiledProblem {
    match circuit {
        None => astrx_oblx::astrx::compile_source(DIFFAMP).expect("diffamp compiles"),
        Some(name) => {
            let b = bench_suite::by_name(name).expect("benchmark exists");
            astrx_oblx::compile(b.problem().expect("parses")).expect("compiles")
        }
    }
}

/// User-variable indices that feed a linear bias element value. Moving
/// one changes the determined voltages and the KCL matrix, so the
/// evaluator must take the full case of its slot update.
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

/// Free-node voltages of the Newton bias point at the initial sizing,
/// so the walk stays where the AWE models are meaningful.
fn newton_nodes(c: &CompiledProblem) -> Option<Vec<f64>> {
    let vars = c.var_map(&c.initial_user_values());
    let bias = SizedCircuit::build(&c.bias_netlist, &vars, &c.lib).ok()?;
    let op = solve_dc(&bias).ok()?;
    Some(
        astrx_oblx::astrx::determined_voltages(&bias)
            .iter()
            .enumerate()
            .filter(|(_, d)| d.is_none())
            .map(|(i, _)| op.v[i])
            .collect(),
    )
}

/// Sets user variable `i` at fraction `r` of its range (log-scaled when
/// the range is positive).
fn set_in_range(c: &CompiledProblem, user: &mut [f64], i: usize, r: f64) {
    let v = &c.user_vars[i];
    user[i] = if v.min > 0.0 {
        v.min * (v.max / v.min).powf(r)
    } else {
        v.min + r * (v.max - v.min)
    };
}

fn close(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a - b).abs() <= 1e-12 * a.abs().max(b.abs()).max(1.0)
}

fn check_equal(plan: &CostBreakdown, full: &CostBreakdown) -> Result<(), TestCaseError> {
    prop_assert!(plan.failed == full.failed, "failed flag diverged");
    for (name, a, b) in [
        ("c_obj", plan.c_obj, full.c_obj),
        ("c_perf", plan.c_perf, full.c_perf),
        ("c_dev", plan.c_dev, full.c_dev),
        ("c_dc", plan.c_dc, full.c_dc),
        ("total", plan.total, full.total),
        ("kcl_max", plan.kcl_max, full.kcl_max),
    ] {
        prop_assert!(close(a, b), "{name}: incremental {a} vs full {b}");
    }
    for (vec_name, pv, fv) in [
        ("measured", &plan.measured, &full.measured),
        ("violation", &plan.violation, &full.violation),
        ("kcl_violation", &plan.kcl_violation, &full.kcl_violation),
    ] {
        prop_assert!(pv.len() == fv.len(), "{vec_name} length diverged");
        for (i, (a, b)) in pv.iter().zip(fv.iter()).enumerate() {
            prop_assert!(
                close(*a, *b),
                "{vec_name}[{i}]: incremental {a} vs full {b}"
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Replay a pseudo-random move sequence on one circuit through one
    /// persistent evaluator (exercising the full and dirty-set cases of
    /// its slot update, and the cached rescore) and cross-check every
    /// visited state against the reference evaluation of a second
    /// evaluator.
    #[test]
    fn prop_incremental_matches_full_after_move_sequence(
        circuit in 0usize..CIRCUITS.len(),
        seed in 0u64..10_000,
    ) {
        let c = compiled(CIRCUITS[circuit]);
        let linear = linear_vars(&c);
        prop_assert!(!linear.is_empty(), "{:?} has linear bias variables", CIRCUITS[circuit]);
        let mut ev = CostEvaluator::new(&c);
        let reference = CostEvaluator::new(&c);
        let w = AdaptiveWeights::new(&c);

        // Deterministic pseudo-random walk from the seed.
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut next = || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (s >> 11) as f64 / (1u64 << 53) as f64
        };

        let mut user = c.initial_user_values();
        let mut nodes = newton_nodes(&c).expect("the initial bias point solves");
        let mut visited: Vec<(Vec<f64>, Vec<f64>)> = Vec::new();

        for step in 0..24 {
            // Every sixth move changes a linear bias variable; the rest
            // are drawn at random. Occasionally an old state is
            // revisited exactly, which must be served from the cache.
            let kind = if step % 6 == 5 { 5 } else { (next() * 5.0) as usize };
            match kind {
                0 if !visited.is_empty() => {
                    let k = (next() * visited.len() as f64) as usize % visited.len();
                    let (u, n) = visited[k].clone();
                    user = u;
                    nodes = n;
                }
                1 => {
                    // Single user variable, in range.
                    let i = (next() * user.len() as f64) as usize % user.len();
                    set_in_range(&c, &mut user, i, next());
                }
                2 => {
                    // A couple of user variables at once.
                    for _ in 0..2 {
                        let i = (next() * user.len() as f64) as usize % user.len();
                        set_in_range(&c, &mut user, i, next());
                    }
                }
                3 => {
                    // Single node voltage — the dirty-set sweet spot.
                    if !nodes.is_empty() {
                        let k = (next() * nodes.len() as f64) as usize % nodes.len();
                        nodes[k] += next() - 0.5;
                    }
                }
                5 => {
                    let i = linear[(next() * linear.len() as f64) as usize % linear.len()];
                    set_in_range(&c, &mut user, i, next());
                }
                _ => {
                    // Jitter all nodes.
                    for v in nodes.iter_mut() {
                        *v += 0.2 * (next() - 0.5);
                    }
                }
            }
            visited.push((user.clone(), nodes.clone()));

            let plan_path = ev.try_evaluate(&user, &nodes, &w);
            let full_path = reference
                .record(&user, &nodes)
                .and_then(|r| reference.cost_of_record(&r, &w));
            match (plan_path, full_path) {
                (Ok(p), Ok(f)) => check_equal(&p, &f)?,
                (Err(_), Err(_)) => {}
                (p, f) => prop_assert!(
                    false,
                    "paths disagree on evaluability: plan {:?} vs full {:?}",
                    p.map(|b| b.total),
                    f.map(|b| b.total)
                ),
            }
        }

        // Beyond the first evaluation, the walk must have taken both
        // cases of the slot update.
        let stats = ev.stats();
        prop_assert!(stats.full > 1 && stats.incremental > 0, "{stats:?}");
    }
}
