//! Stress test for the spool under concurrent HTTP submits, direct
//! claims, and cancels — the exact contention pattern of one edge
//! process fronting several `oblxd` daemons on a shared spool.
//!
//! Invariants checked after the storm:
//! * no job is lost — every accepted submission reaches exactly one
//!   terminal set (`done/` or `cancelled/`);
//! * no job is double-claimed — the claimers' combined id multiset has
//!   no duplicates;
//! * nothing is left behind — queue and running are empty, and nothing
//!   was quarantined as corrupt.

mod common;

use astrx_oblx::json::ObjBuilder;
use common::*;
use oblx_api::server::{Server, ServerOptions};
use oblx_runtime::spool::Spool;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

const SUBMITTERS: usize = 4;
const JOBS_PER_SUBMITTER: usize = 12;
const CLAIMERS: usize = 4;

#[test]
fn concurrent_submit_claim_cancel_loses_nothing() {
    let dir = temp_dir("race");
    let shutdown = Arc::new(AtomicBool::new(false));
    let opts = ServerOptions {
        threads: 4,
        quota_rate: 0.0,
        ..ServerOptions::default()
    };
    let server = Server::start(
        Spool::open(dir.join("spool")).unwrap(),
        &opts,
        Arc::clone(&shutdown),
    )
    .unwrap();
    let addr = server.addr();
    let spool = Spool::open(dir.join("spool")).unwrap();

    let submitted: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let claimed: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let done_submitting = AtomicBool::new(false);

    std::thread::scope(|s| {
        // Submitters: HTTP POSTs racing each other through the edge.
        for t in 0..SUBMITTERS {
            let submitted = &submitted;
            s.spawn(move || {
                for i in 0..JOBS_PER_SUBMITTER {
                    let resp = post(
                        addr,
                        "/v1/jobs",
                        &ota_submit_body(&format!("race-{t}-{i}"), 1, 100),
                    );
                    assert_eq!(resp.status, 201, "submit failed: {}", resp.text());
                    let id = resp.json().get("id").unwrap().as_str().unwrap().to_string();
                    submitted.lock().unwrap().push(id);
                }
            });
        }
        // Claimers: play the role of `oblxd` workers — claim, honor a
        // tombstone if one raced in, otherwise complete with a stub
        // record (running real synthesis here would only slow the
        // contention window down).
        for _ in 0..CLAIMERS {
            let spool = Spool::open(dir.join("spool")).unwrap();
            let claimed = &claimed;
            let done_submitting = &done_submitting;
            s.spawn(move || loop {
                match spool.claim_next() {
                    Some(job) => {
                        claimed.lock().unwrap().push(job.id.clone());
                        if spool.cancel_requested(&job.id) {
                            spool
                                .complete_cancelled(&job.id, &job.request.name)
                                .unwrap();
                        } else {
                            let record = ObjBuilder::new()
                                .field("format", "oblx-result")
                                .field("version", 1i64)
                                .field("id", job.id.as_str())
                                .field("name", job.request.name.as_str())
                                .field("status", "ok")
                                .build();
                            spool.complete(&job.id, &record).unwrap();
                        }
                    }
                    None => {
                        if done_submitting.load(Ordering::SeqCst) && spool.pending().is_empty() {
                            break;
                        }
                        std::thread::yield_now();
                    }
                }
            });
        }
        // A canceller: fires DELETEs at ids as they appear, racing the
        // claimers for each job.
        {
            let submitted = &submitted;
            let done_submitting = &done_submitting;
            s.spawn(move || {
                let mut hit = 0usize;
                let mut seen = 0usize;
                while !(done_submitting.load(Ordering::SeqCst)
                    && seen == SUBMITTERS * JOBS_PER_SUBMITTER)
                {
                    let ids: Vec<String> = {
                        let lock = submitted.lock().unwrap();
                        lock[seen..].to_vec()
                    };
                    for id in ids {
                        seen += 1;
                        // Cancel every third job to interleave all
                        // three operations on the same directories.
                        if hit.is_multiple_of(3) {
                            let resp = request(addr, "DELETE", &format!("/v1/jobs/{id}"), None);
                            assert!(
                                [200, 404, 409].contains(&resp.status),
                                "unexpected cancel status {}: {}",
                                resp.status,
                                resp.text()
                            );
                        }
                        hit += 1;
                    }
                    std::thread::yield_now();
                }
            });
        }
        // Submitters finish first; signal the draining threads.
        // (Scoped threads: the spawns above joined here would deadlock
        // the claimers' exit condition, so flip the flag from a
        // dedicated watcher once the submitted count is full.)
        let submitted = &submitted;
        let done_submitting = &done_submitting;
        s.spawn(move || {
            while submitted.lock().unwrap().len() < SUBMITTERS * JOBS_PER_SUBMITTER {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            done_submitting.store(true, Ordering::SeqCst);
        });
    });

    let submitted = submitted.into_inner().unwrap();
    let claimed = claimed.into_inner().unwrap();
    assert_eq!(submitted.len(), SUBMITTERS * JOBS_PER_SUBMITTER);

    // No duplicate ids were ever handed out by the edge.
    let unique_submitted: HashSet<&String> = submitted.iter().collect();
    assert_eq!(
        unique_submitted.len(),
        submitted.len(),
        "duplicate job ids issued"
    );

    // No job was double-claimed.
    let unique_claimed: HashSet<&String> = claimed.iter().collect();
    assert_eq!(
        unique_claimed.len(),
        claimed.len(),
        "a job was claimed twice"
    );

    // Every job reached exactly one terminal set; none are lost in
    // queue/, running/, or corrupt/.
    let done: HashSet<String> = spool.done_ids().into_iter().collect();
    let cancelled: HashSet<String> = spool.cancelled_ids().into_iter().collect();
    assert!(
        done.is_disjoint(&cancelled),
        "a job is both done and cancelled"
    );
    for id in &submitted {
        assert!(
            done.contains(id) || cancelled.contains(id),
            "job {id} was lost (neither done nor cancelled)"
        );
    }
    assert_eq!(done.len() + cancelled.len(), submitted.len());
    assert!(spool.pending().is_empty(), "queue/ not drained");
    assert!(spool.running().is_empty(), "running/ not empty");
    assert!(
        std::fs::read_dir(spool.corrupt_dir())
            .map(|d| d.count())
            .unwrap_or(0)
            == 0,
        "jobs were quarantined during the race"
    );

    shutdown.store(true, Ordering::SeqCst);
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A job claimed for finalizing sits in none of `queue/`, `running/`,
/// `done/` and `cancelled/`: its spec is parked under `ckpt/` until
/// the terminal record lands. `GET /v1/jobs/:id` must still find it.
#[test]
fn a_job_between_running_and_done_is_found() {
    let dir = temp_dir("finalize");
    let shutdown = Arc::new(AtomicBool::new(false));
    let opts = ServerOptions {
        quota_rate: 0.0,
        ..ServerOptions::default()
    };
    let server = Server::start(
        Spool::open(dir.join("spool")).unwrap(),
        &opts,
        Arc::clone(&shutdown),
    )
    .unwrap();
    let addr = server.addr();
    let spool = Spool::open(dir.join("spool")).unwrap();
    let state = |id: &str| {
        let resp = get(addr, &format!("/v1/jobs/{id}"));
        assert_eq!(resp.status, 200, "job {id}: {}", resp.text());
        let state = resp
            .json()
            .get("state")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string();
        state
    };

    let resp = post(addr, "/v1/jobs", &ota_submit_body("finalize", 1, 100));
    assert_eq!(resp.status, 201, "submit failed: {}", resp.text());
    let id = resp.json().get("id").unwrap().as_str().unwrap().to_string();
    assert_eq!(state(&id), "queued");

    let job = spool.claim_next().expect("the job is queued");
    assert_eq!(job.id, id);
    assert_eq!(state(&id), "running");

    assert!(spool.claim_finalize(&id), "finalize claim");
    assert_eq!(state(&id), "running");

    let record = ObjBuilder::new()
        .field("format", "oblx-result")
        .field("version", 1i64)
        .field("id", id.as_str())
        .field("name", "finalize")
        .field("status", "ok")
        .build();
    spool.complete(&id, &record).unwrap();
    assert_eq!(
        state(&id),
        "done",
        "the terminal record wins over the parked spec"
    );

    shutdown.store(true, Ordering::SeqCst);
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}
