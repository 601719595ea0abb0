//! Telemetry hot-path overhead check: the same incremental cost
//! evaluation measured with recording disabled and enabled.
//!
//! The contract is that disabled telemetry costs one relaxed atomic
//! load per instrumented site and enabled telemetry stays under 5%
//! on the `cost_eval_incremental` hot path. The final line prints a
//! machine-greppable verdict (`TELEMETRY_OVERHEAD_OK pct=…` or
//! `TELEMETRY_OVERHEAD_FAIL pct=…`) for the CI smoke job.

use astrx_oblx::bench_suite;
use astrx_oblx::cost::CostEvaluator;
use astrx_oblx::AdaptiveWeights;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let b = bench_suite::by_name("Two-Stage").expect("Two-Stage benchmark exists");
    let compiled = oblx_bench::compiled(&b);
    let w = AdaptiveWeights::new(&compiled);
    let user0 = compiled.initial_user_values();
    let nodes0 = oblx_bench::newton_nodes(&compiled);

    let mut ev = CostEvaluator::new(&compiled);

    let mut g = c.benchmark_group("telemetry_overhead");

    // Incremental node-move evaluation, recording off (the default).
    {
        oblx_telemetry::set_enabled(false);
        let user = user0.clone();
        let mut nodes = nodes0.clone();
        g.bench_function("incremental_node_off", |bench| {
            bench.iter(|| {
                nodes[0] += 1e-12;
                black_box(ev.evaluate(&user, &nodes, &w).total)
            })
        });
    }

    // The same walk with every counter, histogram and span recording.
    {
        oblx_telemetry::reset();
        oblx_telemetry::set_enabled(true);
        let user = user0.clone();
        let mut nodes = nodes0.clone();
        g.bench_function("incremental_node_on", |bench| {
            bench.iter(|| {
                nodes[0] += 1e-12;
                black_box(ev.evaluate(&user, &nodes, &w).total)
            })
        });
        oblx_telemetry::set_enabled(false);
        let snap = oblx_telemetry::Snapshot::capture();
        assert!(
            snap.counter("eval_incremental") > 0,
            "the enabled pass must actually record"
        );
    }
    g.finish();

    let median = |name: &str| {
        c.results()
            .iter()
            .find(|(n, _)| n == &format!("telemetry_overhead/{name}"))
            .map(|(_, t)| *t)
            .expect("bench ran")
    };
    let off = median("incremental_node_off");
    let on = median("incremental_node_on");
    let pct = 100.0 * (on - off) / off;
    println!(
        "\ntelemetry off {:.2} µs/eval, on {:.2} µs/eval",
        off * 1e6,
        on * 1e6
    );
    let verdict = if pct < 5.0 {
        "TELEMETRY_OVERHEAD_OK"
    } else {
        "TELEMETRY_OVERHEAD_FAIL"
    };
    println!("{verdict} pct={pct:.2}");
}

criterion_group!(benches, bench);
criterion_main!(benches);
