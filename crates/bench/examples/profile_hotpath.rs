//! Throwaway stage profiler for the incremental eval hot path.

use astrx_oblx::bench_suite;
use oblx_awe::{analyze_batch, analyze_with};
use oblx_linalg::Lu;
use std::hint::black_box;
use std::time::Instant;

fn main() {
    let b = bench_suite::by_name("Two-Stage").expect("exists");
    let c = oblx_bench::compiled(&b);
    let (sys, src, out) = oblx_bench::first_jig_system(&c);
    let dim = sys.dim();
    let nnz_g = sys.g.as_slice().iter().filter(|v| **v != 0.0).count();
    let nnz_c = sys.c.as_slice().iter().filter(|v| **v != 0.0).count();
    println!(
        "dim = {dim}, nnz(G) = {nnz_g} ({:.1}%), nnz(C) = {nnz_c} ({:.1}%)",
        100.0 * nnz_g as f64 / (dim * dim) as f64,
        100.0 * nnz_c as f64 / (dim * dim) as f64
    );

    let bvec = sys.input_vector(&src).unwrap();
    let n = 2000usize;

    // LU factor (with clone, as the hot path does).
    let t = Instant::now();
    for _ in 0..n {
        black_box(Lu::factor(sys.g.clone()).unwrap());
    }
    println!(
        "lu_factor+clone   {:8.2} us",
        t.elapsed().as_secs_f64() * 1e6 / n as f64
    );

    // Transpose solves (2q = 16) against one factorization.
    let lu = Lu::factor(sys.g.clone()).unwrap();
    let t = Instant::now();
    let mut x = Vec::new();
    let mut scratch = Vec::new();
    for _ in 0..n {
        for _ in 0..16 {
            lu.solve_transpose_into(&bvec, &mut x, &mut scratch);
            black_box(&x);
        }
    }
    println!(
        "16 x solve_T      {:8.2} us",
        t.elapsed().as_secs_f64() * 1e6 / n as f64
    );

    // Full analyze_batch (3 jobs sharing a probe, like the deduped jig).
    let jobs: Vec<(&[f64], _)> = vec![(bvec.as_slice(), out); 3];
    let t = Instant::now();
    for _ in 0..n {
        black_box(analyze_batch(&sys, &jobs, 8).unwrap());
    }
    println!(
        "analyze_batch x3  {:8.2} us  (cold: engine built per call)",
        t.elapsed().as_secs_f64() * 1e6 / n as f64
    );

    // Sparse primitive costs on the same system.
    {
        let map = sys.stamp_map();
        let (mut g_vals, mut c_vals) = (Vec::new(), Vec::new());
        sys.sparse_vals_into(&mut g_vals, &mut c_vals);
        let mut slu = oblx_linalg::SparseLu::symbolic(map.dim(), map.entries()).unwrap();
        let t = Instant::now();
        for _ in 0..n {
            slu.refactor(black_box(&g_vals)).unwrap();
        }
        println!(
            "sparse refactor   {:8.2} us  (nnz {} fill {})",
            t.elapsed().as_secs_f64() * 1e6 / n as f64,
            slu.nnz(),
            slu.fill_nnz()
        );
        let mut x = Vec::new();
        let mut sc = Vec::new();
        let t = Instant::now();
        for _ in 0..n {
            for _ in 0..16 {
                slu.solve_transpose_into(&bvec, &mut x, &mut sc);
                black_box(&x);
            }
        }
        println!(
            "16 x sparse T     {:8.2} us",
            t.elapsed().as_secs_f64() * 1e6 / n as f64
        );
    }

    // Engine-reuse path: symbolic amortized, as the eval plan runs it.
    let mut engine = oblx_awe::AweEngine::for_system(&sys);
    engine.load(&sys);
    let t = Instant::now();
    for _ in 0..n {
        black_box(oblx_awe::analyze_batch_with(&mut engine, &jobs, 8).unwrap());
    }
    println!(
        "batch_with x3     {:8.2} us  (plan path: refactor+solves+fits)",
        t.elapsed().as_secs_f64() * 1e6 / n as f64
    );

    // Telemetry accounting of one analyze_batch: how many fits/shifts.
    oblx_telemetry::reset();
    oblx_telemetry::set_enabled(true);
    black_box(analyze_batch(&sys, &jobs, 8).unwrap());
    let snap = oblx_telemetry::Snapshot::capture();
    oblx_telemetry::set_enabled(false);
    println!(
        "per batch: {} fits, shift {}+/{}-",
        snap.counter("awe_fit"),
        snap.counter("awe_shift_applied"),
        snap.counter("awe_shift_rejected")
    );

    // fit_model timing on the moment sequence of the fitted model.
    let mu = analyze_with(&sys, &bvec, out, 8)
        .unwrap()
        .moments()
        .to_vec();
    let t = Instant::now();
    for _ in 0..n {
        black_box(oblx_awe::moments::fit_model(&mu, 8).unwrap());
    }
    println!(
        "fit_model q8      {:8.2} us",
        t.elapsed().as_secs_f64() * 1e6 / n as f64
    );

    // fit + first (uncached) ugf scan, as the shift gate pays per job.
    let t = Instant::now();
    for _ in 0..n {
        let m = oblx_awe::moments::fit_model(&mu, 8).unwrap();
        black_box(oblx_awe::unity_gain_frequency(&m));
    }
    println!(
        "fit+ugf_uncached  {:8.2} us",
        t.elapsed().as_secs_f64() * 1e6 / n as f64
    );

    // Restamp cost.
    let (mut sys2, _, _) = oblx_bench::first_jig_system(&c);
    let (bias, op, vars) = oblx_bench::newton_bias(&c);
    let ckt = oblx_mna::SizedCircuit::build(&c.jigs[0].netlist, &vars, &c.lib).unwrap();
    let (mos, _, _) =
        astrx_oblx::cost::jig_device_ops(&bias, &ckt, &op.mos_ops, &op.bjt_ops, &op.diode_ops)
            .unwrap();
    let t = Instant::now();
    for _ in 0..n {
        sys2.restamp(&ckt, &mos, &[], &[]);
        black_box(&sys2);
    }
    println!(
        "restamp           {:8.2} us",
        t.elapsed().as_secs_f64() * 1e6 / n as f64
    );

    // MOS op evaluation cost (all 8 devices).
    let t = Instant::now();
    for _ in 0..n {
        for m in &bias.mosfets {
            black_box(m.model.op(m.w, m.l, 1.0, 2.0, 0.0, 0.0));
        }
    }
    println!(
        "8 mos ops         {:8.2} us",
        t.elapsed().as_secs_f64() * 1e6 / n as f64
    );

    score_breakdown();
}

// ---- appended: score + fit breakdown ----
fn score_breakdown() {
    use astrx_oblx::{AdaptiveWeights, CostEvaluator};
    let b = bench_suite::by_name("Two-Stage").expect("exists");
    let c = oblx_bench::compiled(&b);
    let nodes = oblx_bench::newton_nodes(&c);
    let user = c.initial_user_values();
    let w = AdaptiveWeights::new(&c);
    let mut ev = CostEvaluator::new(&c);
    ev.evaluate(&user, &nodes, &w);
    let n = 2000usize;

    // Cached rescore (score-only floor).
    let t = Instant::now();
    for _ in 0..n {
        black_box(ev.evaluate(&user, &nodes, &w));
    }
    println!(
        "cached_rescore    {:8.2} us",
        t.elapsed().as_secs_f64() * 1e6 / n as f64
    );

    // ugf / pm on the real fitted models.
    let (sys, src, out) = oblx_bench::first_jig_system(&c);
    let bvec = sys.input_vector(&src).unwrap();
    let jobs: Vec<(&[f64], _)> = vec![(bvec.as_slice(), out); 3];
    let models = analyze_batch(&sys, &jobs, 8).unwrap();
    let m0 = &models[0];
    let t = Instant::now();
    for _ in 0..n {
        black_box(oblx_awe::unity_gain_frequency(black_box(m0)));
    }
    println!(
        "ugf               {:8.2} us",
        t.elapsed().as_secs_f64() * 1e6 / n as f64
    );
    let t = Instant::now();
    for _ in 0..n {
        black_box(oblx_awe::phase_margin(black_box(m0)));
    }
    println!(
        "phase_margin      {:8.2} us",
        t.elapsed().as_secs_f64() * 1e6 / n as f64
    );
    println!("model order       {}", m0.order());

    // Span decomposition of the real incremental-node move.
    let mut nodes2 = nodes.clone();
    oblx_telemetry::reset();
    oblx_telemetry::set_enabled(true);
    let t = Instant::now();
    for _ in 0..n {
        nodes2[0] += 1e-12;
        black_box(ev.evaluate(&user, &nodes2, &w));
    }
    let total = t.elapsed().as_secs_f64() * 1e6 / n as f64;
    let snap = oblx_telemetry::Snapshot::capture();
    oblx_telemetry::set_enabled(false);
    println!("incremental move  {total:8.2} us (telemetry on), spans per move:");
    for (name, h) in &snap.spans {
        if h.count > 0 {
            println!(
                "    {name:<16} {:8.2} us  ({:.1} calls)",
                h.sum as f64 / 1e3 / n as f64,
                h.count as f64 / n as f64
            );
        }
    }

    // Fit internals on the moment sequence of the fitted model.
    oblx_telemetry::reset();
    oblx_telemetry::set_enabled(true);
    black_box(oblx_awe::moments::fit_model(m0.moments(), 8).unwrap());
    let snap = oblx_telemetry::Snapshot::capture();
    oblx_telemetry::set_enabled(false);
    let orders: Vec<String> = snap
        .fit_orders
        .iter()
        .enumerate()
        .filter(|(_, n)| **n > 0)
        .map(|(q, n)| format!("q{q}:{n}"))
        .collect();
    println!("accepted order(s) {}", orders.join(" "));

    // Aberth on a representative denominator (order = accepted).
    let q = m0.order().max(1);
    let coeffs: Vec<f64> = (0..=q).map(|k| 1.0 + 0.3 * k as f64).collect();
    let t = Instant::now();
    for _ in 0..n {
        black_box(oblx_linalg::Poly::from_real(black_box(&coeffs)).roots());
    }
    println!(
        "aberth q{q}         {:8.2} us",
        t.elapsed().as_secs_f64() * 1e6 / n as f64
    );
}
