//! `service_open`: an open loop of small seeded jobs sent through
//! `oblx-api` over fresh connections at one fixed Poisson rate, below
//! capacity, with the in-process worker pool behind it.
//!
//! Arrivals are `N = RATE × seconds` uniform order statistics over the
//! run's seconds: a Poisson process conditioned on its count, so every
//! seed offers the same number of jobs at the same mean rate. One
//! thread sends each job when it is due; a second polls
//! `GET /v1/jobs/:id` for the jobs in flight, so reads run beside the
//! submit writes. Latency is timed from each job's due time. A few
//! malformed decks must be answered `422`. Quotas are off, because every
//! request comes from one address. Runs by hand only: its latencies
//! follow the disk's fsync latency, and README.md gives the spread that
//! keeps it out of `BENCHMARK.json`.

use crate::common::{epoch_now, median, peak_rss_mb, quantile, secs, Report, Scratch, SplitMix};
use crate::http;
use crate::jobs::{self, JobSpec, ResultTotals, RC_LADDER};
use astrx_oblx::astrx;
use astrx_oblx::json::{self, Value};
use oblx_api::server::{Server, ServerOptions};
use oblx_runtime::pool::{self, PoolOptions};
use oblx_runtime::spool::Spool;
use oblx_telemetry::Snapshot;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Offered load, jobs per second, over the run's seconds.
const RATE: f64 = 24.0;
/// One job in `MALFORMED_EVERY` carries a broken deck.
const MALFORMED_EVERY: usize = 16;
/// Seconds of set-up timed per run, in blocks of `SETUP_BLOCK` services
/// started back to back; `setup_s` is the median time per start.
const SETUP_WINDOW: f64 = 1.0;
const SETUP_BLOCK: usize = 8;
/// Pause between two polling sweeps over the jobs in flight.
const POLL_PAUSE: Duration = Duration::from_millis(50);
/// How long after the last arrival unfinished jobs count as failed.
const GRACE: Duration = Duration::from_secs(60);

/// One job of the schedule.
struct Arrival {
    /// Offset from the schedule start.
    at: Duration,
    /// `None` for a malformed deck.
    spec: Option<JobSpec>,
}

/// The seeded schedule: arrival times and the balanced job mix with
/// `1/MALFORMED_EVERY` malformed decks, in seeded order.
fn schedule(seed: u64, seconds: f64) -> Vec<Arrival> {
    let n = (RATE * seconds).round().max(1.0) as usize;
    let mut rng = SplitMix::new(seed, 2);
    let mut times: Vec<f64> = (0..n).map(|_| rng.unit() * seconds).collect();
    times.sort_by(f64::total_cmp);
    let bad = n / MALFORMED_EVERY;
    let mut kinds: Vec<Option<JobSpec>> =
        jobs::balanced_mix(&mut rng, n - bad, &[1, 2], &[60, 120])
            .into_iter()
            .map(Some)
            .chain(std::iter::repeat_with(|| None).take(bad))
            .collect();
    rng.shuffle(&mut kinds);
    times
        .into_iter()
        .zip(kinds)
        .map(|(t, spec)| Arrival {
            at: Duration::from_secs_f64(t),
            spec,
        })
        .collect()
}

fn body(i: usize, spec: Option<&JobSpec>) -> String {
    let (source, seeds, moves) = match spec {
        Some(s) => (RC_LADDER.to_string(), s.seeds.clone(), s.moves),
        None => (jobs::malformed_deck(), vec![1], 60),
    };
    json::ObjBuilder::new()
        .field("name", format!("job-{i}"))
        .field("source", source)
        .field(
            "seeds",
            Value::Arr(seeds.iter().map(|&s| Value::Int(s as i64)).collect()),
        )
        .field("moves", moves)
        .field("quench", jobs::QUENCH)
        .build()
        .to_json()
}

/// A running service: the HTTP edge plus the worker pool.
struct Service {
    spool: Spool,
    server: Server,
    pool: JoinHandle<()>,
    shutdown: Arc<AtomicBool>,
}

impl Service {
    fn start(spool: Spool) -> Service {
        let shutdown = Arc::new(AtomicBool::new(false));
        let opts = ServerOptions {
            quota_rate: 0.0,
            ..ServerOptions::default()
        };
        let server = Server::start(spool.clone(), &opts, Arc::clone(&shutdown)).expect("binds");
        let pool = {
            let (spool, shutdown) = (spool.clone(), Arc::clone(&shutdown));
            std::thread::spawn(move || {
                // One worker, so the second core stays with the HTTP
                // edge and the generator.
                let opts = PoolOptions {
                    workers: 1,
                    ..PoolOptions::default()
                };
                pool::run(&spool, &opts, &shutdown);
            })
        };
        Service {
            spool,
            server,
            pool,
            shutdown,
        }
    }

    fn stop(self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.server.join();
        self.pool.join().expect("pool thread does not panic");
    }
}

/// A job the edge accepted, as the poller tracks it.
#[derive(Clone)]
struct InFlight {
    id: String,
    due_epoch: f64,
}

/// What one pass over the schedule measured.
#[derive(Default)]
struct Pass {
    /// Due → `201`, ms, per accepted job.
    submit_ms: Vec<f64>,
    post_ms: Vec<f64>,
    poll_ms: Vec<f64>,
    /// Polls answered 404 for a job the edge had accepted.
    poll_404: usize,
    late_ms_max: f64,
    /// `(id, Unix seconds)` at which a poll first saw the job done.
    detected: Vec<(String, f64)>,
    /// Accepted job ids, and `(due, phases)` for each.
    ids: Vec<String>,
    phases: Vec<(f64, jobs::Phases)>,
    /// Schedule start and the last `done` event, Unix seconds.
    start_epoch: f64,
    last_done_epoch: f64,
    totals: ResultTotals,
    metrics: Option<Value>,
}

/// Checks a response's status against `want`.
fn check_status(report: &Mutex<Report>, what: &str, got: Result<u16, String>, want: u16) {
    let mut report = report.lock().expect("report lock");
    match got {
        Ok(code) => report.check(code == want, || format!("{what}: HTTP {code}, want {want}")),
        Err(e) => report.check(false, || format!("{what}: {e}")),
    }
}

/// Polls the jobs in flight until the sender is done and none is left.
fn poll(
    addr: SocketAddr,
    report: &Mutex<Report>,
    in_flight: &Mutex<Vec<InFlight>>,
    sending: &AtomicBool,
    pass: &Mutex<Pass>,
    deadline: &Mutex<Option<Instant>>,
) {
    loop {
        let ids: Vec<String> = in_flight
            .lock()
            .expect("in-flight lock")
            .iter()
            .map(|j| j.id.clone())
            .collect();
        if ids.is_empty() && !sending.load(Ordering::SeqCst) {
            return;
        }
        for id in ids {
            let t = Instant::now();
            let resp = http::request(addr, "GET", &format!("/v1/jobs/{id}"), "");
            pass.lock().expect("pass lock").poll_ms.push(1e3 * secs(t));
            let resp = match resp {
                Ok(r) => r,
                Err(e) => {
                    check_status(report, &format!("GET job {id}"), Err(e.to_string()), 200);
                    continue;
                }
            };
            if resp.status != 200 {
                // A job moving between spool directories can read as
                // 404 for an instant, so a 404 is counted, not failed.
                let transient = resp.status == 404;
                pass.lock().expect("pass lock").poll_404 += usize::from(transient);
                if !transient {
                    check_status(report, &format!("GET job {id}"), Ok(resp.status), 200);
                }
                continue;
            }
            let state = json::parse(&resp.body).ok();
            if state
                .as_ref()
                .and_then(|s| s.get("state")?.as_str().map(String::from))
                == Some("done".to_string())
            {
                let seen = epoch_now();
                let mut jobs = in_flight.lock().expect("in-flight lock");
                jobs.retain(|j| j.id != id);
                pass.lock().expect("pass lock").detected.push((id, seen));
            }
        }
        let past_deadline = deadline
            .lock()
            .expect("deadline lock")
            .is_some_and(|d| Instant::now() > d);
        if past_deadline {
            let mut jobs = in_flight.lock().expect("in-flight lock");
            let mut report = report.lock().expect("report lock");
            for j in jobs.drain(..) {
                report.check(false, || {
                    format!("job {} not done {GRACE:?} after the last arrival", j.id)
                });
            }
            return;
        }
        std::thread::sleep(POLL_PAUSE);
    }
}

/// Runs the schedule once against a fresh service.
fn pass(report: &mut Report, scratch: &Scratch, arrivals: &[Arrival], name: &str) -> Pass {
    let service = Service::start(Spool::open(scratch.fresh(name)).expect("spool opens"));
    let addr = service.server.addr();
    let shared_report = Mutex::new(std::mem::take(report));
    let in_flight: Mutex<Vec<InFlight>> = Mutex::new(Vec::new());
    let mut accepted: Vec<InFlight> = Vec::new();
    let sending = AtomicBool::new(true);
    let shared = Mutex::new(Pass::default());
    let deadline = Mutex::new(None);

    std::thread::scope(|scope| {
        scope.spawn(|| {
            poll(
                addr,
                &shared_report,
                &in_flight,
                &sending,
                &shared,
                &deadline,
            )
        });
        let start = Instant::now();
        let start_epoch = epoch_now();
        shared.lock().expect("pass lock").start_epoch = start_epoch;
        for (i, a) in arrivals.iter().enumerate() {
            let due = start + a.at;
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let late_ms = 1e3 * Instant::now().saturating_duration_since(due).as_secs_f64();
            let sent = Instant::now();
            let resp = http::request(addr, "POST", "/v1/jobs", &body(i, a.spec.as_ref()));
            {
                let mut p = shared.lock().expect("pass lock");
                p.late_ms_max = p.late_ms_max.max(late_ms);
                p.post_ms.push(1e3 * secs(sent));
                if a.spec.is_some() {
                    p.submit_ms.push(1e3 * due.elapsed().as_secs_f64());
                }
            }
            let want = if a.spec.is_some() { 201 } else { 422 };
            let status = resp.as_ref().map(|r| r.status).map_err(ToString::to_string);
            check_status(&shared_report, &format!("POST job-{i}"), status, want);
            let Some(r) = resp.ok().filter(|r| r.status == 201 && want == 201) else {
                continue;
            };
            let id = json::parse(&r.body)
                .ok()
                .and_then(|v| v.get("id")?.as_str().map(String::from));
            let Some(id) = id else {
                let mut report = shared_report.lock().expect("report lock");
                report.check(false, || format!("POST job-{i}: 201 without a job id"));
                continue;
            };
            let job = InFlight {
                id,
                due_epoch: start_epoch + a.at.as_secs_f64(),
            };
            in_flight.lock().expect("in-flight lock").push(job.clone());
            accepted.push(job);
        }
        *deadline.lock().expect("deadline lock") = Some(Instant::now() + GRACE);
        sending.store(false, Ordering::SeqCst);
    });

    let mut p = shared.into_inner().expect("pass lock");
    let mut report_back = shared_report.into_inner().expect("report lock");
    let compiled = astrx::compile_source(RC_LADDER).expect("ladder deck compiles");
    for job in accepted {
        let record = service.spool.done(&job.id);
        jobs::check_result(
            &mut report_back,
            &compiled,
            &job.id,
            record.as_ref(),
            &mut p.totals,
        );
        let phases = jobs::phases(&service.spool, &job.id);
        if let Some(done) = phases.done {
            p.last_done_epoch = p.last_done_epoch.max(done);
        }
        p.phases.push((job.due_epoch, phases));
        p.ids.push(job.id);
    }
    p.metrics = http::request(addr, "GET", "/v1/metrics", "")
        .ok()
        .and_then(|r| json::parse(&r.body).ok());
    service.stop();
    *report = report_back;
    p
}

/// Milliseconds from each job's `done` event to the poll that saw it.
fn detect_lag_ms(p: &Pass) -> Vec<f64> {
    p.detected
        .iter()
        .filter_map(|(id, seen)| {
            let i = p.ids.iter().position(|i| i == id)?;
            let done = p.phases[i].1.done?;
            Some(1e3 * (seen - done))
        })
        .collect()
}

fn counter(metrics: Option<&Value>, name: &str) -> f64 {
    metrics
        .and_then(|m| m.get("counters")?.get(name)?.as_f64())
        .unwrap_or(0.0)
}

pub fn run(scratch: &Scratch, seed: u64, seconds: f64, trace: bool) -> Report {
    let arrivals = schedule(seed, seconds);
    let mut report = Report::default();
    // The set-up's services share spools that stay empty, so timing
    // them makes no file churn for the measured pass to pay for.
    let spools: Vec<Spool> = (0..SETUP_BLOCK)
        .map(|i| Spool::open(scratch.fresh(&format!("setup-{i}"))).expect("spool opens"))
        .collect();
    let mut setup = Vec::new();
    let window = Instant::now();
    while setup.is_empty() || secs(window) < SETUP_WINDOW {
        let spools = spools.clone();
        let t = Instant::now();
        let services: Vec<Service> = spools.into_iter().map(Service::start).collect();
        setup.push(secs(t) / SETUP_BLOCK as f64);
        services.into_iter().for_each(Service::stop);
    }
    let untraced = trace.then(|| pass(&mut report, scratch, &arrivals, "untraced"));
    if trace {
        oblx_telemetry::reset();
        oblx_telemetry::set_enabled(true);
    }
    let p = pass(&mut report, scratch, &arrivals, "spool");
    let done_ms: Vec<f64> = p
        .phases
        .iter()
        .filter_map(|(due, ph)| ph.done.map(|d| 1e3 * (d - due)))
        .collect();
    report.note(format!(
        "{} arrivals at {RATE}/s ({} malformed); {} submit, {} done, {} poll samples; \
         {} polls saw an accepted job as 404; generator at most {:.2} ms late",
        arrivals.len(),
        arrivals.iter().filter(|a| a.spec.is_none()).count(),
        p.submit_ms.len(),
        done_ms.len(),
        p.poll_ms.len(),
        p.poll_404,
        p.late_ms_max
    ));

    if trace {
        oblx_telemetry::set_enabled(false);
        let snap = Snapshot::capture();
        let m = p.metrics.as_ref();
        report.set("api.post_ms_p50", quantile(&p.post_ms, 0.5));
        report.set("api.post_ms_p95", quantile(&p.post_ms, 0.95));
        report.set("api.poll_ms_p50", quantile(&p.poll_ms, 0.5));
        report.set("api.poll_ms_p95", quantile(&p.poll_ms, 0.95));
        report.set("api.http_4xx", counter(m, "http_4xx"));
        report.set("api.http_5xx", counter(m, "http_5xx"));
        report.set(
            "api.admission_rejected",
            counter(m, "http_admission_rejected"),
        );
        let coverage = jobs::runtime_layer(&mut report, &p.phases, &snap);
        report.set("bench.trace_coverage", coverage);
        let base = untraced.map_or(f64::NAN, |u| {
            median(
                &u.phases
                    .iter()
                    .filter_map(|(due, ph)| ph.done.map(|d| d - due))
                    .collect::<Vec<_>>(),
            )
        });
        report.set(
            "bench.trace_overhead_frac",
            median(&done_ms) / (1e3 * base) - 1.0,
        );
        report.set("bench.gen_late_ms_max", p.late_ms_max);
        report.set("bench.detect_lag_ms_p50", median(&detect_lag_ms(&p)));
        return report;
    }
    report.set("setup_s", median(&setup));
    p.totals.publish(&mut report);
    report.set("submit_ms_p50", quantile(&p.submit_ms, 0.5));
    report.set("submit_ms_p95", quantile(&p.submit_ms, 0.95));
    report.set("done_ms_p50", quantile(&done_ms, 0.5));
    report.set("done_ms_p95", quantile(&done_ms, 0.95));
    report.set(
        "jobs_per_s",
        done_ms.len() as f64 / (p.last_done_epoch - p.start_epoch),
    );
    report.set("peak_rss_mb", peak_rss_mb());
    report
}
