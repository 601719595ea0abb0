//! End-to-end smoke of the HTTP edge, from the wire: malformed decks
//! and deeply nested input come back as structured 4xx with the
//! parser's line/column; a real
//! deck runs to completion through the in-process pool; results and
//! event streams fetch; cancel works over HTTP; a flood beyond the
//! admission bound sheds 429s while the service keeps working; the
//! per-client quota engages; and the shipped binary boots, serves, and
//! drains on SIGTERM.

mod common;

use astrx_oblx::json::Value;
use common::*;
use oblx_api::server::{Server, ServerOptions};
use oblx_runtime::pool::{self, PoolOptions};
use oblx_runtime::spool::Spool;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Starts an edge over a fresh spool; `pool_workers > 0` also runs an
/// in-process worker pool on the same shutdown flag.
fn start(
    tag: &str,
    opts: ServerOptions,
    pool_workers: usize,
) -> (
    Server,
    Arc<AtomicBool>,
    Option<std::thread::JoinHandle<pool::RunStats>>,
    std::path::PathBuf,
) {
    let dir = temp_dir(tag);
    let shutdown = Arc::new(AtomicBool::new(false));
    let spool = Spool::open(dir.join("spool")).unwrap();
    let server = Server::start(spool, &opts, Arc::clone(&shutdown)).unwrap();
    let pool_thread = (pool_workers > 0).then(|| {
        let spool = Spool::open(dir.join("spool")).unwrap();
        let flag = Arc::clone(&shutdown);
        std::thread::spawn(move || {
            let opts = PoolOptions {
                workers: pool_workers,
                checkpoint_every: 50,
                drain: false,
                ..PoolOptions::default()
            };
            pool::run(&spool, &opts, &flag)
        })
    });
    (server, shutdown, pool_thread, dir)
}

fn stop(
    server: Server,
    shutdown: &AtomicBool,
    pool_thread: Option<std::thread::JoinHandle<pool::RunStats>>,
    dir: &std::path::Path,
) {
    shutdown.store(true, Ordering::SeqCst);
    server.join();
    if let Some(t) = pool_thread {
        t.join().unwrap();
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn malformed_deck_is_a_structured_422_with_location() {
    let (server, shutdown, pool, dir) = start("parse", ServerOptions::default(), 0);
    let addr = server.addr();

    let body = astrx_oblx::json::ObjBuilder::new()
        .field("name", "bad")
        .field("source", "* a comment line\nthis is not a card\n")
        .build()
        .to_json();
    let resp = post(addr, "/v1/jobs", &body);
    assert_eq!(resp.status, 422, "body: {}", resp.text());
    let err = resp.json();
    let err = err.get("error").expect("error object");
    assert_eq!(err.get("kind").unwrap().as_str(), Some("parse"));
    let line = err.get("line").and_then(Value::as_int).expect("line field");
    assert!(line >= 1, "1-based line, got {line}");
    assert!(
        !err.get("message").unwrap().as_str().unwrap().is_empty(),
        "message is not empty"
    );

    // When the parser knows the column, the edge carries it too.
    let body = astrx_oblx::json::ObjBuilder::new()
        .field("source", "* top\n.spec sr 'unterminated rest\n")
        .build()
        .to_json();
    let resp = post(addr, "/v1/jobs", &body);
    assert_eq!(resp.status, 422);
    let err = resp.json();
    let err = err.get("error").expect("error object");
    assert_eq!(err.get("line").and_then(Value::as_int), Some(2));
    assert_eq!(err.get("column").and_then(Value::as_int), Some(10));

    // Not-JSON and wrong-shape bodies are 400s, not connection drops.
    assert_eq!(post(addr, "/v1/jobs", "not json at all").status, 400);
    assert_eq!(post(addr, "/v1/jobs", "[1,2,3]").status, 400);
    assert_eq!(
        post(addr, "/v1/jobs", r#"{"source":"x","typo_field":1}"#).status,
        400
    );
    // An unknown process deck is a 422 with its own kind.
    let ota = astrx_oblx::bench_suite::by_name("Simple OTA").unwrap();
    let body = astrx_oblx::json::ObjBuilder::new()
        .field("source", ota.source)
        .field("deck", "no-such-deck")
        .build()
        .to_json();
    let resp = post(addr, "/v1/jobs", &body);
    assert_eq!(resp.status, 422);
    assert_eq!(
        resp.json()
            .get("error")
            .unwrap()
            .get("kind")
            .unwrap()
            .as_str(),
        Some("unknown_deck")
    );
    // Named-benchmark submits validate too.
    assert_eq!(
        post(addr, "/v1/jobs", r#"{"bench":"No Such Bench"}"#).status,
        400
    );
    assert_eq!(
        post(addr, "/v1/jobs", r#"{"bench":"Simple OTA","source":"x"}"#).status,
        400
    );
    // Nothing malformed ever entered the queue.
    let spool = Spool::open(dir.join("spool")).unwrap();
    assert!(
        spool.pending().is_empty(),
        "edge validation kept the queue clean"
    );
    stop(server, &shutdown, pool, &dir);
}

/// Decks whose every evaluation would fail — a jig device with no bias
/// counterpart, a `.pz` stimulus that is not a source — are a 422 that
/// names the culprit, and never enter the queue.
#[test]
fn unevaluable_decks_are_a_structured_422() {
    let (server, shutdown, pool, dir) = start("unevaluable", ServerOptions::default(), 0);
    let addr = server.addr();
    let diffamp = include_str!("../../core/src/testdata/diffamp.ox");
    let unbiased = diffamp.replace(
        "cl2 out- 0 1p",
        "cl2 out- 0 1p\nm9 out+ in+ nvss nvss nmos w=10u l=2u",
    );
    let not_a_source = diffamp.replace(".pz tf v(out+) vin", ".pz tf v(out+) cl1");
    for (source, culprit) in [(unbiased, "m9"), (not_a_source, "cl1")] {
        let body = astrx_oblx::json::ObjBuilder::new()
            .field("name", "unevaluable")
            .field("source", source.as_str())
            .build()
            .to_json();
        let resp = post(addr, "/v1/jobs", &body);
        assert_eq!(resp.status, 422, "{culprit}: {}", resp.text());
        let err = resp.json();
        let err = err.get("error").expect("error object");
        assert_eq!(err.get("kind").unwrap().as_str(), Some("compile"));
        let message = err.get("message").unwrap().as_str().unwrap();
        assert!(message.contains(&format!("`{culprit}`")), "{message}");
    }
    let spool = Spool::open(dir.join("spool")).unwrap();
    assert!(spool.pending().is_empty(), "nothing entered the queue");
    stop(server, &shutdown, pool, &dir);
}

/// A deeply nested JSON body or deck expression is a structured error,
/// not a stack overflow that aborts the whole server.
#[test]
fn deeply_nested_input_is_a_structured_error() {
    let (server, shutdown, pool, dir) = start("nested", ServerOptions::default(), 0);
    let addr = server.addr();
    let resp = post(addr, "/v1/jobs", &"[".repeat(100_000));
    assert_eq!(resp.status, 400, "{}", resp.text());
    let err = resp.json();
    let err = err.get("error").expect("error object");
    assert_eq!(err.get("kind").unwrap().as_str(), Some("bad_request"));

    let diffamp = include_str!("../../core/src/testdata/diffamp.ox");
    let deep = format!(
        "cl2 out- 0 '{}1p{}'",
        "(".repeat(100_000),
        ")".repeat(100_000)
    );
    let source = diffamp.replace("cl2 out- 0 1p", &deep);
    let body = astrx_oblx::json::ObjBuilder::new()
        .field("source", source.as_str())
        .build()
        .to_json();
    let resp = post(addr, "/v1/jobs", &body);
    assert_eq!(resp.status, 422, "{}", resp.text());
    let err = resp.json();
    let err = err.get("error").expect("error object");
    assert_eq!(err.get("kind").unwrap().as_str(), Some("parse"));
    assert!(err.get("line").and_then(Value::as_int).is_some());
    assert!(err.get("column").and_then(Value::as_int).is_some());

    // The server is still up.
    assert_eq!(get(addr, "/v1/metrics").status, 200);
    stop(server, &shutdown, pool, &dir);
}

#[test]
fn lifecycle_submit_run_result_events_over_http() {
    // Quotas off: the test polls faster than any sane client budget.
    let opts = ServerOptions {
        quota_rate: 0.0,
        ..ServerOptions::default()
    };
    let (server, shutdown, pool, dir) = start("life", opts, 2);
    let addr = server.addr();

    let resp = post(addr, "/v1/jobs", &ota_submit_body("ota-http", 2, 3000));
    assert_eq!(resp.status, 201, "body: {}", resp.text());
    let created = resp.json();
    let id = created.get("id").unwrap().as_str().unwrap().to_string();
    assert_eq!(created.get("seeds").unwrap().as_int(), Some(2));

    // Result before completion is a 409, not a 404 and not an empty 200.
    let early = get(addr, &format!("/v1/jobs/{id}/result"));
    if early.status == 200 {
        // The pool can legitimately already be done on a fast machine.
    } else {
        assert_eq!(early.status, 409);
        assert_eq!(
            early
                .json()
                .get("error")
                .unwrap()
                .get("kind")
                .unwrap()
                .as_str(),
            Some("not_ready")
        );
    }

    let state = wait_for_state(addr, &id, &["done"], 120);
    assert_eq!(state.get("status").unwrap().as_str(), Some("ok"));

    let result = get(addr, &format!("/v1/jobs/{id}/result"));
    assert_eq!(result.status, 200);
    let record = result.json();
    assert_eq!(record.get("status").unwrap().as_str(), Some("ok"));
    assert_eq!(record.get("format").unwrap().as_str(), Some("oblx-result"));

    // The event log tells the whole story, as NDJSON over one chunked
    // response that ends because the job is terminal.
    let events = get(addr, &format!("/v1/jobs/{id}/events"));
    assert_eq!(events.status, 200);
    assert_eq!(events.header("transfer-encoding"), Some("chunked"));
    let kinds: Vec<String> = astrx_oblx::json::parse_lines(&events.text())
        .iter()
        .filter_map(|e| e.get("event").and_then(Value::as_str).map(str::to_string))
        .collect();
    for expected in ["submitted", "started", "seed_done", "done"] {
        assert!(
            kinds.iter().any(|k| k == expected),
            "missing `{expected}` in {kinds:?}"
        );
    }

    // Unknown jobs are clean 404s on every job route.
    assert_eq!(get(addr, "/v1/jobs/j999999").status, 404);
    assert_eq!(get(addr, "/v1/jobs/j999999/result").status, 404);
    assert_eq!(get(addr, "/v1/jobs/j999999/events").status, 404);
    assert_eq!(
        request(addr, "DELETE", "/v1/jobs/j999999", None).status,
        404
    );

    // The metrics endpoint serves the live telemetry snapshot.
    let metrics = get(addr, "/v1/metrics");
    assert_eq!(metrics.status, 200);
    assert!(metrics.json().get("counters").is_some(), "snapshot shape");
    stop(server, &shutdown, pool, &dir);
}

#[test]
fn cancel_over_http_reaches_the_cancelled_state() {
    let opts = ServerOptions {
        quota_rate: 0.0,
        ..ServerOptions::default()
    };
    let (server, shutdown, pool, dir) = start("cancel", opts, 2);
    let addr = server.addr();

    // Plenty of budget so the job is still in flight when the DELETE
    // lands; the pool's checkpoint interval (50 moves) bounds how long
    // a running seed takes to notice the tombstone.
    let resp = post(addr, "/v1/jobs", &ota_submit_body("ota-cancel", 8, 500_000));
    assert_eq!(resp.status, 201);
    let id = resp.json().get("id").unwrap().as_str().unwrap().to_string();
    wait_for_state(addr, &id, &["queued", "running"], 30);

    let del = request(addr, "DELETE", &format!("/v1/jobs/{id}"), None);
    assert_eq!(del.status, 200, "body: {}", del.text());
    assert_eq!(del.json().get("cancelled").unwrap().as_bool(), Some(true));

    let state = wait_for_state(addr, &id, &["cancelled"], 120);
    assert_eq!(state.get("state").unwrap().as_str(), Some("cancelled"));

    // The result store serves the cancellation record.
    let result = get(addr, &format!("/v1/jobs/{id}/result"));
    assert_eq!(result.status, 200);
    assert_eq!(
        result.json().get("status").unwrap().as_str(),
        Some("cancelled")
    );

    // Cancelling again is idempotent, not an error.
    let again = request(addr, "DELETE", &format!("/v1/jobs/{id}"), None);
    assert_eq!(again.status, 200);
    assert_eq!(
        again.json().get("phase").unwrap().as_str(),
        Some("already_cancelled")
    );

    // And the event log recorded the terminal transition.
    let events = get(addr, &format!("/v1/jobs/{id}/events?follow=0"));
    assert!(
        events.text().contains("job_cancelled"),
        "events: {}",
        events.text()
    );
    stop(server, &shutdown, pool, &dir);
}

#[test]
fn keep_alive_serves_many_requests_then_caps_the_connection() {
    let opts = ServerOptions {
        quota_rate: 0.0,
        keepalive_max_requests: 3,
        ..ServerOptions::default()
    };
    let (server, shutdown, pool, dir) = start("keepalive", opts, 0);
    let addr = server.addr();

    let mut conn = std::net::TcpStream::connect(addr).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    // Requests 1 and 2 persist; request 3 hits the per-connection cap
    // and the server announces the close.
    let r1 = request_on(&mut conn, "GET", "/v1/metrics");
    assert_eq!(r1.status, 200);
    assert_eq!(r1.header("connection"), Some("keep-alive"));
    let r2 = request_on(&mut conn, "GET", "/v1/metrics");
    assert_eq!(r2.status, 200);
    assert_eq!(r2.header("connection"), Some("keep-alive"));
    let r3 = request_on(&mut conn, "GET", "/v1/metrics");
    assert_eq!(r3.status, 200);
    assert_eq!(r3.header("connection"), Some("close"));
    // And the socket really is closed now.
    use std::io::Read as _;
    let mut rest = Vec::new();
    assert_eq!(conn.read_to_end(&mut rest).unwrap(), 0, "EOF after cap");

    // A client that asks for close gets close, cap or no cap.
    let r = get(addr, "/v1/metrics");
    assert_eq!(r.status, 200);
    assert_eq!(r.header("connection"), Some("close"));

    // An idle keep-alive connection is reclaimed by the idle timeout.
    let opts = ServerOptions {
        quota_rate: 0.0,
        keepalive_idle_timeout: Duration::from_millis(100),
        ..ServerOptions::default()
    };
    let (server2, shutdown2, pool2, dir2) = start("keepalive-idle", opts, 0);
    let mut conn = std::net::TcpStream::connect(server2.addr()).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let r = request_on(&mut conn, "GET", "/v1/metrics");
    assert_eq!(r.header("connection"), Some("keep-alive"));
    let mut rest = Vec::new();
    assert_eq!(
        conn.read_to_end(&mut rest).unwrap(),
        0,
        "idle connection closed by the server"
    );
    stop(server2, &shutdown2, pool2, &dir2);
    stop(server, &shutdown, pool, &dir);
}

#[test]
fn cluster_view_reports_hosts_and_worker_state() {
    let opts = ServerOptions {
        quota_rate: 0.0,
        ..ServerOptions::default()
    };
    let (server, shutdown, pool, dir) = start("cluster", opts, 1);
    let addr = server.addr();

    // The in-process pool announces itself with a host heartbeat and a
    // worker snapshot shortly after starting; poll until the cluster
    // view reflects it.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    let v = loop {
        let resp = get(addr, "/v1/cluster");
        assert_eq!(resp.status, 200);
        let v = resp.json();
        // The heartbeat and the worker snapshot are separate atomic
        // writes; wait until both have landed.
        let seen = v.get("hosts").and_then(Value::as_arr).is_some_and(|hosts| {
            hosts.iter().any(|h| {
                h.get("worker_state")
                    .and_then(Value::as_arr)
                    .is_some_and(|rows| !rows.is_empty())
            })
        });
        if seen {
            break v;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "no host appeared in /v1/cluster within 30s"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    let hosts = v.get("hosts").and_then(Value::as_arr).unwrap();
    assert_eq!(hosts.len(), 1, "one daemon over this spool");
    let h = &hosts[0];
    assert!(!h.get("host").and_then(Value::as_str).unwrap().is_empty());
    assert_eq!(h.get("workers").and_then(Value::as_int), Some(1));
    let rows = h.get("worker_state").and_then(Value::as_arr).unwrap();
    assert_eq!(rows.len(), 1, "one worker row for the one worker");
    assert!(rows[0].get("busy").and_then(Value::as_bool).is_some());
    assert!(v.get("leases").and_then(Value::as_int).is_some());

    stop(server, &shutdown, pool, &dir);
}

#[test]
fn flood_beyond_admission_sheds_429_and_the_service_survives() {
    let opts = ServerOptions {
        threads: 1,
        admission_capacity: 2,
        quota_rate: 0.0, // isolate admission from the quota limiter
        read_timeout: Duration::from_millis(300),
        ..ServerOptions::default()
    };
    let (server, shutdown, pool, dir) = start("flood", opts, 0);
    let addr = server.addr();

    // Open a burst of connections that send nothing: each occupies the
    // single worker for a read-timeout, so the admission queue fills
    // and the rest must be shed at the door with 429.
    let mut conns = Vec::new();
    for _ in 0..12 {
        let c = std::net::TcpStream::connect(addr).unwrap();
        c.set_read_timeout(Some(Duration::from_millis(500)))
            .unwrap();
        conns.push(c);
    }
    let mut shed = 0;
    for mut c in conns {
        use std::io::Read as _;
        let mut buf = Vec::new();
        let _ = c.read_to_end(&mut buf);
        if !buf.is_empty() {
            let text = String::from_utf8_lossy(&buf);
            if text.starts_with("HTTP/1.1 429") {
                assert!(text.contains("admission"), "shed body names the cause");
                shed += 1;
            }
        }
    }
    assert!(shed >= 1, "at least some of the flood was shed with 429");

    // The flood is over; the edge still answers real requests.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let resp = get(addr, "/v1/metrics");
        if resp.status == 200 {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "edge never recovered");
        std::thread::sleep(Duration::from_millis(50));
    }
    stop(server, &shutdown, pool, &dir);
}

#[test]
fn quota_limiter_engages_per_client() {
    let opts = ServerOptions {
        quota_rate: 1.0,
        quota_burst: 2.0,
        ..ServerOptions::default()
    };
    let (server, shutdown, pool, dir) = start("quota", opts, 0);
    let addr = server.addr();

    // The burst allowance passes, then the bucket is dry.
    assert_eq!(get(addr, "/v1/metrics").status, 200);
    assert_eq!(get(addr, "/v1/metrics").status, 200);
    let throttled = get(addr, "/v1/metrics");
    assert_eq!(throttled.status, 429);
    assert_eq!(
        throttled
            .json()
            .get("error")
            .unwrap()
            .get("kind")
            .unwrap()
            .as_str(),
        Some("quota")
    );
    stop(server, &shutdown, pool, &dir);
}

#[test]
#[cfg(unix)]
fn the_binary_boots_serves_and_drains_on_sigterm() {
    use std::io::BufRead as _;
    let dir = temp_dir("bin");
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_oblx-api"))
        .args(["serve", "--dir"])
        .arg(dir.join("spool"))
        .args(["--addr", "127.0.0.1:0", "--no-pool", "--rate", "0"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("oblx-api spawns");
    let stdout = child.stdout.take().unwrap();
    let mut lines = std::io::BufReader::new(stdout).lines();
    let addr: std::net::SocketAddr = loop {
        let line = lines.next().expect("stdout open").expect("stdout readable");
        if let Some(rest) = line.strip_prefix("listening on ") {
            break rest.parse().expect("printed address parses");
        }
    };

    let resp = get(addr, "/v1/metrics");
    assert_eq!(resp.status, 200);
    let resp = post(addr, "/v1/jobs", &ota_submit_body("bin-job", 1, 500));
    assert_eq!(resp.status, 201);

    let kill = std::process::Command::new("kill")
        .arg(child.id().to_string())
        .status()
        .unwrap();
    assert!(kill.success());
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    let status = loop {
        if let Some(s) = child.try_wait().unwrap() {
            break s;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "binary ignored SIGTERM"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(status.success(), "graceful exit 0, got {status}");
    let _ = std::fs::remove_dir_all(&dir);
}
