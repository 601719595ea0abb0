//! Shared fixtures for the table/figure regeneration benches.
//!
//! Every bench in `benches/` regenerates one table or figure of the
//! paper: it prints the measured rows (so EXPERIMENTS.md can quote
//! them) and times the kernel that the paper's corresponding metric
//! depends on.

use astrx_oblx::astrx::{compile, determined_voltages, CompiledProblem};
use astrx_oblx::bench_suite::Benchmark;
use astrx_oblx::cost::jig_device_ops;
use oblx_mna::{solve_dc_with, DcOptions, LinearSystem, OpPoint, OutputSelector, SizedCircuit};
use std::collections::HashMap;

/// Compiles a benchmark, panicking with its name on failure (benches
/// are allowed to be loud).
pub fn compiled(b: &Benchmark) -> CompiledProblem {
    compile(b.problem().unwrap_or_else(|e| panic!("{}: {e}", b.name)))
        .unwrap_or_else(|e| panic!("{}: {e}", b.name))
}

/// Newton-solves the bias circuit of a compiled benchmark at its
/// default sizing: the bias circuit, its operating point, and the
/// variable map.
pub fn newton_bias(c: &CompiledProblem) -> (SizedCircuit, OpPoint, HashMap<String, f64>) {
    let vars = c.var_map(&c.initial_user_values());
    let bias = SizedCircuit::build(&c.bias_netlist, &vars, &c.lib).expect("bias builds");
    let opts = DcOptions {
        abstol_i: 1e-8,
        max_iters: 300,
        ..DcOptions::default()
    };
    let op = solve_dc_with(&bias, &opts, None).expect("newton converges");
    (bias, op, vars)
}

/// The free-node voltages of [`newton_bias`] (the relaxed-dc state of
/// a dc-correct point).
pub fn newton_nodes(c: &CompiledProblem) -> Vec<f64> {
    let (bias, op, _) = newton_bias(c);
    determined_voltages(&bias)
        .iter()
        .enumerate()
        .filter(|(_, d)| d.is_none())
        .map(|(i, _)| op.v[i])
        .collect()
}

/// Builds the first jig's linearized system at the Newton-solved bias
/// point: `(system, source name, output probe)`.
pub fn first_jig_system(c: &CompiledProblem) -> (LinearSystem, String, OutputSelector) {
    let (bias, op, vars) = newton_bias(c);
    let jig = &c.jigs[0];
    let ckt = SizedCircuit::build(&jig.netlist, &vars, &c.lib).expect("jig builds");
    let (mos, bjt, diode) = jig_device_ops(&bias, &ckt, &op.mos_ops, &op.bjt_ops, &op.diode_ops)
        .expect("bias counterpart");
    let sys = LinearSystem::from_device_ops(&ckt, &mos, &bjt, &diode);
    let a = &jig.analyses[0];
    let out = sys
        .output_selector(&a.out_p, a.out_m.as_deref())
        .expect("probe resolves");
    (sys, a.source.clone(), out)
}

/// Environment-tunable synthesis budget for the heavyweight benches.
pub fn synthesis_budget(default: usize) -> usize {
    std::env::var("OBLX_MOVES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}
