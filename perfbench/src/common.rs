//! Shared plumbing: the report, metric names and units, the simulator
//! score, exact-sample statistics, the seed-derived generator, and the
//! scratch directory.

use astrx_oblx::cost::normalized;
use astrx_oblx::{CompiledProblem, VerifiedDesign};
use oblx_netlist::SpecKind;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// End-to-end metrics, printed with `--trace 0`: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 11] = [
    ("setup_s", "s"),
    ("synth_s", "s"),
    ("moves_per_s", "1/s"),
    ("specs_met_frac", "ratio"),
    ("sim_err_max", "ratio"),
    ("submit_ms_p50", "ms"),
    ("submit_ms_p95", "ms"),
    ("done_ms_p50", "ms"),
    ("done_ms_p95", "ms"),
    ("jobs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Simulator-agreement metrics: 0 is a real reading for them (no spec
/// met, exact agreement), so the non-zero check skips them.
const MAY_BE_ZERO: [&str; 2] = ["specs_met_frac", "sim_err_max"];

/// Per-layer metrics, printed with `--trace 1`: `(name, unit)`. A layer
/// a workload does not exercise reads 0 there.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("astrx.compile_ms", "ms"),
    ("oblx.newton_s", "s"),
    ("oblx.newton_us_p50", "us"),
    ("oblx.newton_calls", "count"),
    ("oblx.newton_none_frac", "ratio"),
    ("oblx.local_move_s", "s"),
    ("cost.eval_s", "s"),
    ("cost.eval_calls", "count"),
    ("cost.eval_us_p50", "us"),
    ("cost.eval_us_p99", "us"),
    ("cost.after_newton_us_p50", "us"),
    ("cost.after_local_us_p50", "us"),
    ("cost.path_full", "count"),
    ("cost.path_incremental", "count"),
    ("cost.path_cached", "count"),
    ("cost.path_failed", "count"),
    ("cost.reuse_frac", "ratio"),
    ("awe.analyze_s", "s"),
    ("awe.analyze_calls", "count"),
    ("awe.shift_applied", "count"),
    ("awe.shift_rejected", "count"),
    ("awe.shift_useful_frac", "ratio"),
    ("linalg.lu_factors", "count"),
    ("linalg.sparse_refactors", "count"),
    ("linalg.sparse_fallbacks", "count"),
    ("anneal.engine_self_s", "s"),
    ("verify.verify_ms", "ms"),
    ("api.post_ms_p50", "ms"),
    ("api.post_ms_p95", "ms"),
    ("api.poll_ms_p50", "ms"),
    ("api.poll_ms_p95", "ms"),
    ("api.http_4xx", "count"),
    ("api.http_5xx", "count"),
    ("api.admission_rejected", "count"),
    ("runtime.queue_wait_ms_p50", "ms"),
    ("runtime.queue_wait_ms_p95", "ms"),
    ("runtime.run_ms_p50", "ms"),
    ("runtime.finalize_ms_p50", "ms"),
    ("runtime.worker_util", "ratio"),
    ("runtime.seeds_stolen", "count"),
    ("runtime.leases_acquired", "count"),
    ("runtime.leases_reaped", "count"),
    ("bench.trace_coverage", "ratio"),
    ("bench.trace_overhead_frac", "ratio"),
    ("bench.gen_late_ms_max", "ms"),
    ("bench.detect_lag_ms_p50", "ms"),
];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (synthesis runs, requests, jobs).
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// Metric values by name (units come from the tables above).
    pub metrics: Vec<(&'static str, f64)>,
    /// Human-readable lines printed before the result: sample counts
    /// and the reason for every failed check.
    pub notes: Vec<String>,
}

impl Report {
    /// Records a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.retain(|(n, _)| *n != name);
        self.metrics.push((name, value));
    }

    /// Records a check: counts it as attempted, and as failed (with the
    /// reason kept for the printout) when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(format!("FAILED: {}", what()));
        }
    }

    /// Records an informational line (sample counts, settings).
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Prints the notes and the one-line JSON result, and turns the
    /// outcome into the exit code: non-zero when a check failed.
    pub fn print(mut self, trace: bool) -> ExitCode {
        let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        if !trace {
            // A timing or throughput that reads 0 measured nothing.
            for (name, _) in END_TO_END {
                let value = self.get(name);
                let zero_ok = MAY_BE_ZERO.contains(&name);
                if !(value.is_finite() && (zero_ok || value != 0.0)) {
                    self.failed += 1;
                    self.notes.push(format!(
                        "FAILED: metric {name} = {value} (must be finite{})",
                        if zero_ok { "" } else { ", non-zero" }
                    ));
                }
            }
        }
        for line in &self.notes {
            println!("# {line}");
        }
        let correct = self.failed == 0 && self.attempted > 0;
        let metrics: Vec<String> = table
            .iter()
            .map(|(name, unit)| {
                let v = self.get(name);
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
        if correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }

    fn get(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }
}

/// What the simulator says about a set of synthesized designs: spec
/// goals met, and the worst OBLX-vs-simulation relative error.
#[derive(Debug, Default)]
pub struct Score {
    pub specs: usize,
    pub specs_met: usize,
    pub sim_err_max: f64,
}

impl Score {
    /// Adds one design's `verify_design` result.
    pub fn add(&mut self, compiled: &CompiledProblem, v: &VerifiedDesign) {
        self.sim_err_max = self.sim_err_max.max(v.worst_relative_error());
        for (goal, (_, _, simulated)) in compiled.problem.specs.iter().zip(&v.rows) {
            if goal.kind == SpecKind::Constraint {
                self.specs += 1;
                self.specs_met += usize::from(normalized(goal, *simulated) <= 0.0);
            }
        }
    }

    /// Folds in another set of designs.
    pub fn merge(&mut self, other: &Score) {
        self.specs += other.specs;
        self.specs_met += other.specs_met;
        self.sim_err_max = self.sim_err_max.max(other.sim_err_max);
    }

    /// Sets `specs_met_frac` and `sim_err_max`.
    pub fn publish(&self, report: &mut Report) {
        report.set(
            "specs_met_frac",
            self.specs_met as f64 / self.specs.max(1) as f64,
        );
        report.set("sim_err_max", self.sim_err_max);
    }
}

/// Exact nearest-rank quantile of `samples` (`q` in `[0, 1]`); 0 for
/// no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Wall-clock now as Unix seconds, the clock of the spool's event logs.
pub fn epoch_now() -> f64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0.0, |d| d.as_secs_f64())
}

/// SplitMix64: the benchmark's only source of randomness, seeded by the
/// workload seed, so one seed always yields the same inputs.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64, stream: u64) -> SplitMix {
        SplitMix(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.range(0, i as u64) as usize);
        }
    }

    /// A positive annealing seed below 2^31 (the HTTP API takes seeds
    /// as JSON integers).
    pub fn anneal_seed(&mut self) -> u64 {
        1 + self.next_u64() % ((1 << 31) - 1)
    }
}

/// The process's peak resident set (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// A per-run scratch directory under `.perfbench_tmp/` in the working
/// directory (the checkout root), removed when dropped.
pub struct Scratch {
    root: PathBuf,
}

impl Scratch {
    pub fn new(workload: &str, seed: u64) -> Scratch {
        let root =
            Path::new(".perfbench_tmp").join(format!("{workload}-{seed}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        Scratch { root }
    }

    /// Removes a directory made by [`Scratch::fresh`] (or the scratch
    /// root), then fsyncs its parent. The fsync commits the removal to
    /// the file system's journal now, so the cost of freeing its blocks
    /// is paid here and not by the next timed fsync.
    pub fn remove(&self, dir: &Path) {
        let _ = std::fs::remove_dir_all(dir);
        let parent = dir.parent().unwrap_or(Path::new("."));
        if let Ok(parent) = std::fs::File::open(parent) {
            let _ = parent.sync_all();
        }
    }

    /// A fresh, empty subdirectory.
    pub fn fresh(&self, name: &str) -> PathBuf {
        let dir = self.root.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch directory is writable");
        dir
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        self.remove(&self.root.clone());
        // Leave no empty parent behind either (fails while a concurrent
        // run still holds its own subdirectory, which is fine).
        let _ = std::fs::remove_dir(".perfbench_tmp");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use astrx_oblx::json::{self, Value};

    /// The metric tables must match `BENCHMARK.json` name for name.
    #[test]
    fn tables_match_benchmark_json() {
        let text = include_str!("../../BENCHMARK.json");
        let doc = json::parse(text).expect("BENCHMARK.json parses");
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed: Vec<(String, String)> = doc
                .get(key)
                .and_then(Value::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Value::as_str).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 10.0);
        assert_eq!(quantile(&v, 0.95), 19.0);
        assert_eq!(quantile(&v, 1.0), 20.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
