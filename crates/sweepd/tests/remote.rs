//! End-to-end tests for TCP remote workers: registration handshake,
//! lease fencing, heartbeat-driven migration of a partitioned worker,
//! and reconnect-with-resume. The "worker" here is an in-process fake
//! speaking the wire protocol directly, so every network event (silence,
//! disconnect, stale completion) is scripted rather than emergent.

#![cfg(unix)]

mod common;

use std::io::Write;
use std::net::Shutdown;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use checkpoint::manifest::JournalRecord;
use common::{dial, good_fp, hello, journal_records, scratch, wait_for as tick_wait};
use sweepd::{parse_manifest, wire, Daemon, DaemonConfig};

/// Remote-only fleet: zero local slots, every worker joins over TCP.
fn config(dir: &Path) -> DaemonConfig {
    let script = common::write_worker_script(dir);
    let mut cfg = DaemonConfig::new(
        vec!["/bin/sh".to_string(), script.display().to_string()],
        dir.join("state"),
    );
    cfg.workers = 0;
    cfg.heartbeat_deadline = Duration::from_millis(600);
    cfg.heartbeat_ms = 50;
    cfg.backoff_base_ms = 10;
    cfg.backoff_cap_ms = 100;
    cfg
}

/// Starts the worker listener plus a background ticker; returns the
/// bound address.
fn start(daemon: &Arc<Daemon>) -> std::net::SocketAddr {
    let addr = common::start_listener(daemon);
    common::start_ticker(daemon);
    addr
}

/// A worker process on another host: its pid never matches a child of
/// the daemon's.
fn remote(token: &str, worker: &str) -> wire::Hello {
    hello(token, worker, std::process::id())
}

#[test]
fn remote_worker_registers_and_completes_sweep() {
    let dir = scratch("complete");
    let cfg = config(&dir);
    let state_dir = cfg.state_dir.clone();
    let daemon = Daemon::new(cfg);
    let addr = start(&daemon);

    let id = daemon
        .submit(parse_manifest(br#"{"experiment":"faults","finalize":false}"#).unwrap())
        .expect("submit");

    let mut conn = dial(addr, &remote("", "w-remote-1"));
    let (session, gen, resume) = conn.welcome();
    assert!(!session.is_empty());
    assert_eq!(gen, 0, "fresh registration starts at generation 0");
    assert_eq!(resume, None);
    let hb = conn.start_heartbeats();
    let server = std::thread::spawn(move || conn.serve_until_exit());

    tick_wait(&daemon, "sweep done", |d| {
        d.sweep_views()
            .iter()
            .any(|v| v.id == id && v.status == "done")
    });
    let (view, cells) = daemon.sweep_detail(id).expect("detail");
    assert_eq!(view.done, 2);
    assert_eq!(view.failed, 0);
    assert!(cells.iter().all(|c| c.status == "done"));

    let workers = daemon.worker_views();
    assert_eq!(workers.len(), 1, "remote-only fleet: {workers:?}");
    assert_eq!(workers[0].kind, "remote");
    assert_eq!(workers[0].pid, 0, "remote slots have no local pid");
    assert_eq!(
        workers[0].name, "w-remote-1",
        "healthz reports the self-reported worker identity"
    );

    // Every lease and completion is fence-tagged with the same
    // nonzero generation, and leases name the worker's self-reported
    // identity.
    let records = journal_records(&state_dir, id);
    let mut lease_gens = std::collections::BTreeMap::new();
    for r in &records {
        if let JournalRecord::Lease(l) = r {
            assert_eq!(l.worker, "w-remote-1");
            let g = l.gen.expect("remote leases are fence-tagged");
            assert!(g > 0, "fence generations start at 1");
            lease_gens.insert(l.key.clone(), g);
        }
    }
    assert_eq!(lease_gens.len(), 2);
    for r in &records {
        if let JournalRecord::Cell(c) = r {
            assert_eq!(
                c.gen,
                Some(lease_gens[&c.key]),
                "completion echoes its lease fence"
            );
        }
    }

    daemon.begin_drain();
    tick_wait(&daemon, "fleet drained", |d| d.alive_workers() == 0);
    assert!(!daemon.unfinished());
    hb.store(true, Ordering::Relaxed);
    server.join().unwrap();
}

#[test]
fn handshake_rejects_version_and_fingerprint_mismatches() {
    let dir = scratch("reject");
    let daemon = Daemon::new(config(&dir));
    let addr = start(&daemon);

    let conn = dial(
        addr,
        &wire::Hello {
            proto: wire::PROTO_VERSION + 1,
            ..remote("", "w-old")
        },
    );
    match &conn.reply {
        wire::HandshakeReply::Reject { reason } => {
            assert!(reason.contains("protocol version mismatch"), "{reason}");
        }
        other => panic!("version skew must be rejected, got {other:?}"),
    }

    let conn = dial(
        addr,
        &wire::Hello {
            fingerprint: good_fp() ^ 1,
            ..remote("", "w-skewed")
        },
    );
    match &conn.reply {
        wire::HandshakeReply::Reject { reason } => {
            assert!(reason.contains("fingerprint mismatch"), "{reason}");
        }
        other => panic!("config skew must be rejected, got {other:?}"),
    }

    assert_eq!(
        daemon.worker_views().len(),
        0,
        "rejected dials leave no slots"
    );
    daemon.begin_drain();
}

#[test]
fn partitioned_remote_worker_expires_and_cell_migrates() {
    let dir = scratch("partition");
    let cfg = config(&dir);
    let state_dir = cfg.state_dir.clone();
    let daemon = Daemon::new(cfg);
    let addr = start(&daemon);

    let id = daemon
        .submit(parse_manifest(br#"{"experiment":"faults","finalize":false}"#).unwrap())
        .expect("submit");

    // W1 takes a lease, then partitions: heartbeats stop, the socket
    // stays open. Only the heartbeat deadline can detect this.
    let mut w1 = dial(addr, &remote("", "w-r1"));
    let w1_hb = w1.start_heartbeats();
    let (k1, g1) = w1.next_run();
    w1_hb.store(true, Ordering::Relaxed);

    let mut w2 = dial(addr, &remote("", "w-r2"));
    let _w2_hb = w2.start_heartbeats();
    let (k2, g2) = w2.next_run();
    assert_ne!(k1, k2);
    w2.send_done(&k2, g2).expect("send done");

    // The deadline fires, W1's lease migrates, and W2 (idle, already
    // bound to the sweep) picks the cell up on the next tick.
    let (k1_retry, g1_retry) = w2.next_run();
    assert_eq!(k1_retry, k1, "the partitioned worker's cell must migrate");
    assert!(g1_retry > g1, "the re-lease must carry a newer fence");
    w2.send_done(&k1, g1_retry).expect("send done");

    tick_wait(&daemon, "sweep done after migration", |d| {
        d.sweep_views()
            .iter()
            .any(|v| v.id == id && v.status == "done")
    });

    // The healed partition's stale completion must change nothing: its
    // slot is gone and its fence generation is superseded.
    w1.send_done(&k1, g1).expect("send done");
    std::thread::sleep(Duration::from_millis(200));

    let records = journal_records(&state_dir, id);
    let k1_leases: Vec<(u32, String)> = records
        .iter()
        .filter_map(|r| match r {
            JournalRecord::Lease(l) if l.key == k1 => Some((l.attempt, l.worker.clone())),
            _ => None,
        })
        .collect();
    assert_eq!(
        k1_leases.iter().map(|(a, _)| *a).collect::<Vec<_>>(),
        vec![0, 1],
        "cell must be re-leased exactly once: {k1_leases:?}"
    );
    assert_eq!(k1_leases[0].1, "w-r1");
    assert_eq!(k1_leases[1].1, "w-r2");
    let fails: Vec<String> = records
        .iter()
        .filter_map(|r| match r {
            JournalRecord::Failed(f) => Some(f.error.clone()),
            _ => None,
        })
        .collect();
    assert_eq!(fails.len(), 1, "exactly one charged attempt: {fails:?}");
    assert!(fails[0].contains("heartbeat expired"), "{}", fails[0]);
    let done = records
        .iter()
        .filter(|r| matches!(r, JournalRecord::Cell(_)))
        .count();
    assert_eq!(
        done, 2,
        "the stale completion must not append a third record"
    );

    daemon.begin_drain();
    let server = std::thread::spawn(move || w2.serve_until_exit());
    tick_wait(&daemon, "fleet drained", |d| d.alive_workers() == 0);
    assert!(!daemon.unfinished());
    server.join().unwrap();
}

#[test]
fn reconnect_resumes_lease_and_fences_stale_generations() {
    let dir = scratch("resume");
    let mut cfg = config(&dir);
    // Generous deadline: the redial must comfortably win the race
    // against heartbeat expiry (the deadline doubles as the grace
    // window for exactly this reconnect).
    cfg.heartbeat_deadline = Duration::from_secs(5);
    let state_dir = cfg.state_dir.clone();
    let daemon = Daemon::new(cfg);
    let addr = start(&daemon);

    let id = daemon
        .submit(parse_manifest(br#"{"experiment":"faults","finalize":false}"#).unwrap())
        .expect("submit");

    // First connection: register, take a lease, then lose the link
    // before completing (the done frame is "lost in flight").
    let mut conn = dial(addr, &remote("", "w-re"));
    let (token, gen0, _) = conn.welcome();
    assert_eq!(gen0, 0);
    let hb1 = conn.start_heartbeats();
    let (k1, g1) = conn.next_run();
    hb1.store(true, Ordering::Relaxed);
    conn.stream.shutdown(Shutdown::Both).unwrap();
    drop(conn);

    // Redial with the session token: same slot, bumped generation,
    // and the welcome names the still-held lease.
    let mut conn = dial(addr, &remote(&token, "w-re"));
    let (session, gen, resume) = conn.welcome();
    assert_eq!(session, token, "resume keeps the session token");
    assert_eq!(gen, 1, "each reconnect bumps the link generation");
    assert_eq!(
        resume.as_deref(),
        Some(k1.as_str()),
        "welcome names the held lease"
    );
    let _hb2 = conn.start_heartbeats();

    // A completion echoing the wrong fence generation — or none at
    // all — is dropped and the lease survives.
    conn.send_done(&k1, g1 + 999).expect("send done");
    let unfenced = format!("{{\"ev\":\"done\",\"key\":\"{k1}\",\"hash\":1,\"result\":\"{{}}\"}}\n");
    conn.stream.write_all(unfenced.as_bytes()).unwrap();
    std::thread::sleep(Duration::from_millis(300));
    let (view, cells) = daemon.sweep_detail(id).expect("detail");
    assert_eq!(view.done, 0, "fenced completion must not land");
    let cell = cells.iter().find(|c| c.key == k1).unwrap();
    assert_eq!(cell.status, "leased", "the fenced lease must survive");

    // Re-sending with the original fence completes the cell, and the
    // worker then finishes the rest of the sweep over the new link.
    conn.send_done(&k1, g1).expect("send done");
    let (k2, g2) = conn.next_run();
    assert_ne!(k2, k1);
    conn.send_done(&k2, g2).expect("send done");
    tick_wait(&daemon, "sweep done after resume", |d| {
        d.sweep_views()
            .iter()
            .any(|v| v.id == id && v.status == "done")
    });

    // One slot for the whole story: the redial re-attached instead of
    // registering a second worker.
    let workers = daemon.worker_views();
    assert_eq!(workers.len(), 1, "{workers:?}");
    assert_eq!(workers[0].kind, "remote");
    assert_eq!(workers[0].restarts, 1, "resume counts as a re-attach");

    // No attempt was ever charged: the disconnect stayed within the
    // grace window and the fenced frame is not a failure.
    let records = journal_records(&state_dir, id);
    assert!(
        !records
            .iter()
            .any(|r| matches!(r, JournalRecord::Failed(_))),
        "no failures expected: {records:?}"
    );
    let leases = records
        .iter()
        .filter(|r| matches!(r, JournalRecord::Lease(_)))
        .count();
    assert_eq!(leases, 2, "one lease per cell, none re-leased");

    daemon.begin_drain();
    let server = std::thread::spawn(move || conn.serve_until_exit());
    tick_wait(&daemon, "fleet drained", |d| d.alive_workers() == 0);
    assert!(!daemon.unfinished());
    server.join().unwrap();
}
