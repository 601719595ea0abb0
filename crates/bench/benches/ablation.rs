//! Ablations of the design choices DESIGN.md calls out: what the
//! Newton–Raphson move family, the adaptive weights, and the AWE model
//! order each buy. Each configuration runs the same Simple OTA
//! synthesis with a fixed budget and seed; the printout compares final
//! KCL residual and fixed-weight cost, and criterion times one short
//! run per configuration.

use astrx_oblx::bench_suite;
use astrx_oblx::oblx::{fixed_cost, synthesize, SynthesisOptions};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

struct Config {
    label: &'static str,
    opts: SynthesisOptions,
}

fn configs(moves: usize) -> Vec<Config> {
    let base = SynthesisOptions {
        moves_budget: moves,
        seed: 1,
        quench_patience: 500,
        ..SynthesisOptions::default()
    };
    vec![
        Config {
            label: "full (newton + adaptive weights, q=8)",
            opts: base.clone(),
        },
        Config {
            label: "no newton moves",
            opts: SynthesisOptions {
                disable_newton_moves: true,
                ..base.clone()
            },
        },
        Config {
            label: "no adaptive weights",
            opts: SynthesisOptions {
                disable_adaptive_weights: true,
                ..base.clone()
            },
        },
        Config {
            label: "awe order 2",
            opts: SynthesisOptions {
                awe_order: 2,
                ..base.clone()
            },
        },
    ]
}

fn print_ablation() {
    let compiled = oblx_bench::compiled(&bench_suite::simple_ota());
    let moves = oblx_bench::synthesis_budget(15_000);
    println!("\nAblation (Simple OTA, {moves} moves, seed 1):");
    println!(
        "{:<42} {:>12} {:>12} {:>10}",
        "configuration", "kcl (A)", "fixed cost", "pred err %"
    );
    for cfg in configs(moves) {
        let r = match synthesize(&compiled, &cfg.opts) {
            Ok(r) => r,
            Err(e) => {
                println!("{:<42} best state unevaluable: {e}", cfg.label);
                continue;
            }
        };
        let score = fixed_cost(&compiled, &r.state);
        let err = astrx_oblx::verify::verify_result(&compiled, &r)
            .map(|v| 100.0 * v.worst_relative_error())
            .unwrap_or(f64::NAN);
        println!(
            "{:<42} {:>12.3e} {:>12.3} {:>10.2}",
            cfg.label, r.kcl_max, score, err
        );
    }
    println!(
        "\nExpected shape: dropping Newton moves leaves KCL error orders of\n\
         magnitude higher; dropping adaptive weights leaves constraints\n\
         unbalanced; low AWE order degrades prediction accuracy.\n"
    );
}

fn bench(c: &mut Criterion) {
    print_ablation();
    let compiled = oblx_bench::compiled(&bench_suite::simple_ota());
    let mut g = c.benchmark_group("ablation_short_run");
    g.sample_size(10);
    for cfg in configs(1_500) {
        g.bench_function(cfg.label, |bench| {
            bench.iter(|| black_box(synthesize(&compiled, &cfg.opts).map(|r| r.best_cost)))
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
