//! End-to-end supervision tests for the daemon's local slots.
//!
//! The daemon spawns a `/bin/sh` stand-in into each local slot (see
//! `common::write_worker_script`): it answers `--grid` and otherwise
//! only anchors the child's lifetime — reaping and SIGTERM act on it.
//! The protocol side of each child is played from the test thread,
//! which dials the worker listener with the child's pid, so every
//! failure mode is deterministic: a worker that completes cells, one
//! that goes silent mid-lease (heartbeat expiry → crash migration),
//! fleets below the floor (shedding). Timing margins are generous for
//! slow CI boxes.

#![cfg(unix)]

mod common;

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use checkpoint::manifest::JournalRecord;
use common::{
    dial, drive_locals, hello, journal_records, scratch, sigterm_seen, start_listener,
    write_worker_script, Reply,
};
use serde::value::Value;
use sweepd::{parse_manifest, CancelError, Daemon, DaemonConfig};

fn config(dir: &Path) -> DaemonConfig {
    let script = write_worker_script(dir);
    let mut cfg = DaemonConfig::new(
        vec!["/bin/sh".to_string(), script.display().to_string()],
        dir.join("state"),
    );
    cfg.heartbeat_deadline = Duration::from_millis(1000);
    cfg.heartbeat_ms = 50;
    cfg.backoff_base_ms = 10;
    cfg.backoff_cap_ms = 100;
    cfg
}

/// Ticks the daemon until `pred` holds or the deadline passes.
fn tick_until(daemon: &Daemon, what: &str, pred: impl Fn(&Daemon) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while Instant::now() < deadline {
        daemon.tick();
        if pred(daemon) {
            return;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!("timed out waiting for: {what}");
}

fn done(id: u64) -> impl Fn(&Daemon) -> bool {
    move |d| {
        d.sweep_views()
            .iter()
            .any(|v| v.id == id && v.status == "done")
    }
}

/// Every cell completes on its first lease.
fn complete(_key: &str) -> Reply {
    Reply::Done
}

/// Cell `b`'s first lease gets `first`; every other lease completes.
fn b_first(first: fn() -> Reply) -> impl Fn(&str) -> Reply + Send + Sync {
    let attempted = AtomicBool::new(false);
    move |key| {
        if key == "b" && !attempted.swap(true, Ordering::SeqCst) {
            first()
        } else {
            Reply::Done
        }
    }
}

#[test]
fn sweep_runs_to_completion_with_leases_journaled() {
    let dir = scratch("complete");
    let cfg = config(&dir);
    let state_dir = cfg.state_dir.clone();
    let daemon = Daemon::new(cfg);
    let addr = start_listener(&daemon);
    drive_locals(&daemon, addr, complete);

    let manifest = parse_manifest(br#"{"experiment":"faults","finalize":false}"#).unwrap();
    let id = daemon.submit(manifest).expect("submit");
    tick_until(&daemon, "sweep done", done(id));

    let (view, cells) = daemon.sweep_detail(id).expect("detail");
    assert_eq!(view.done, 2);
    assert_eq!(view.failed, 0);
    assert!(cells.iter().all(|c| c.status == "done"));

    // The journal holds a lease per cell and both completions, and
    // resumes cleanly (leases compact away; completions replay).
    let records = journal_records(&state_dir, id);
    let leases: Vec<_> = records
        .iter()
        .filter_map(|r| match r {
            JournalRecord::Lease(l) => Some(l.key.clone()),
            _ => None,
        })
        .collect();
    let mut done: Vec<_> = records
        .iter()
        .filter_map(|r| match r {
            JournalRecord::Cell(c) => Some((c.key.clone(), c.result_json.clone())),
            _ => None,
        })
        .collect();
    done.sort();
    assert_eq!(leases, vec!["a".to_string(), "b".to_string()]);
    assert_eq!(
        done,
        vec![
            ("a".to_string(), "{\"v\":1}".to_string()),
            ("b".to_string(), "{\"v\":2}".to_string()),
        ]
    );

    daemon.begin_drain();
    tick_until(&daemon, "fleet drained", |d| d.alive_workers() == 0);
    assert!(!daemon.unfinished());
}

#[test]
fn dead_worker_is_detected_and_cell_migrates() {
    let dir = scratch("migrate");
    let cfg = config(&dir);
    let state_dir = cfg.state_dir.clone();
    let daemon = Daemon::new(cfg);
    let addr = start_listener(&daemon);
    // Cell "b" hangs silently (its worker stops heartbeating) on the
    // first attempt; the retried lease succeeds.
    drive_locals(&daemon, addr, b_first(|| Reply::GoSilent));

    let manifest = parse_manifest(br#"{"experiment":"faults","finalize":false}"#).unwrap();
    let id = daemon.submit(manifest).expect("submit");
    tick_until(&daemon, "sweep done after migration", done(id));

    // The journal tells the whole story: cell "b" leased twice
    // (attempts 0 and 1), one failed attempt naming the heartbeat
    // expiry, and exactly one completion per cell.
    let records = journal_records(&state_dir, id);
    let b_leases: Vec<(u32, String)> = records
        .iter()
        .filter_map(|r| match r {
            JournalRecord::Lease(l) if l.key == "b" => Some((l.attempt, l.worker.clone())),
            _ => None,
        })
        .collect();
    assert_eq!(
        b_leases.iter().map(|(a, _)| *a).collect::<Vec<_>>(),
        vec![0, 1],
        "cell b must be re-leased once: {b_leases:?}"
    );
    assert_ne!(
        b_leases[0].1, b_leases[1].1,
        "the retry must migrate to the surviving worker: {b_leases:?}"
    );
    let fails: Vec<String> = records
        .iter()
        .filter_map(|r| match r {
            JournalRecord::Failed(f) => Some(f.error.clone()),
            _ => None,
        })
        .collect();
    assert_eq!(fails.len(), 1, "exactly one failed attempt: {fails:?}");
    assert!(
        fails[0].contains("heartbeat expired"),
        "failure must name the heartbeat: {}",
        fails[0]
    );
    let done_count = records
        .iter()
        .filter(|r| matches!(r, JournalRecord::Cell(_)))
        .count();
    assert_eq!(done_count, 2);

    daemon.begin_drain();
    tick_until(&daemon, "fleet drained", |d| d.alive_workers() == 0);
}

#[test]
fn fleet_below_floor_sheds_lowest_priority_sweep() {
    let dir = scratch("shed");
    let mut cfg = config(&dir);
    cfg.workers = 1;
    cfg.fleet_floor = 2; // unmeetable: degradation is permanent
    let daemon = Daemon::new(cfg);
    let addr = start_listener(&daemon);
    drive_locals(&daemon, addr, complete);

    let low = daemon
        .submit(
            parse_manifest(br#"{"experiment":"faults","priority":1,"finalize":false}"#).unwrap(),
        )
        .expect("submit low");
    let high = daemon
        .submit(
            parse_manifest(br#"{"experiment":"faults","priority":5,"finalize":false}"#).unwrap(),
        )
        .expect("submit high");

    tick_until(&daemon, "low-priority sweep shed", |d| {
        d.sweep_views()
            .iter()
            .any(|v| v.id == low && v.status == "shed")
    });
    let views = daemon.sweep_views();
    let low_view = views.iter().find(|v| v.id == low).unwrap();
    assert!(
        low_view.detail.contains("fleet degradation"),
        "shed reason must be structured: {:?}",
        low_view.detail
    );

    // The surviving sweep still completes on the degraded fleet.
    tick_until(&daemon, "high-priority sweep done", done(high));

    daemon.begin_drain();
    tick_until(&daemon, "fleet drained", |d| d.alive_workers() == 0);
    assert!(!daemon.unfinished());
}

/// One raw HTTP exchange against the server (one request per
/// connection, so each call dials fresh).
fn http(addr: SocketAddr, request: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(request.as_bytes()).expect("write");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    response
}

/// The JSON body of an HTTP response.
fn body(response: &str) -> Value {
    let (_, body) = response.split_once("\r\n\r\n").expect("response body");
    serde_json::from_str(body.trim()).expect("JSON body")
}

#[test]
fn http_control_plane_round_trips() {
    let dir = scratch("http");
    let daemon = Daemon::new(config(&dir));
    let waddr = start_listener(&daemon);
    drive_locals(&daemon, waddr, complete);

    let (addr_tx, addr_rx) = std::sync::mpsc::channel();
    {
        let daemon = Arc::clone(&daemon);
        std::thread::spawn(move || {
            sweepd::server::serve(&daemon, "127.0.0.1:0", move |addr| {
                addr_tx.send(addr).unwrap();
            })
            .expect("serve");
        });
    }
    let addr = addr_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("server bound");
    common::start_ticker(&daemon);

    // Malformed manifest → structured 400 naming the field.
    let bad = http(
        addr,
        "POST /sweeps HTTP/1.1\r\nContent-Length: 20\r\n\r\n{\"experiment\":\"no\"}x",
    );
    assert!(bad.starts_with("HTTP/1.1 400"), "{bad}");

    // Valid manifest → 201 with the sweep id.
    let body_json = r#"{"experiment":"faults","finalize":false}"#;
    let created = http(
        addr,
        &format!(
            "POST /sweeps HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body_json}",
            body_json.len()
        ),
    );
    assert!(created.starts_with("HTTP/1.1 201"), "{created}");
    assert!(created.contains("{\"id\":1}"), "{created}");

    // Progress streams from GET /sweeps/1 until done.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let status = http(addr, "GET /sweeps/1 HTTP/1.1\r\n\r\n");
        assert!(status.starts_with("HTTP/1.1 200"), "{status}");
        if status.contains("\"status\":\"done\"") {
            break;
        }
        assert!(Instant::now() < deadline, "sweep never finished: {status}");
        std::thread::sleep(Duration::from_millis(50));
    }

    // Health reports the spawned children as local slots with pids.
    let health = http(addr, "GET /healthz HTTP/1.1\r\n\r\n");
    assert!(health.contains("\"status\":\"ok\""), "{health}");
    let workers = body(&health);
    let workers = workers.get("workers").and_then(Value::as_array).unwrap();
    assert_eq!(workers.len(), 2, "{health}");
    for w in workers {
        assert_eq!(w.get("kind").and_then(Value::as_str), Some("local"));
        assert!(
            w.get("pid").and_then(Value::as_u64).unwrap() > 0,
            "{health}"
        );
    }
    assert!(http(addr, "GET /sweeps/99 HTTP/1.1\r\n\r\n").starts_with("HTTP/1.1 404"));

    // Cancel routes: a finished sweep is terminal (409 naming the
    // state), an unknown id is 404.
    let conflict = http(addr, "POST /sweeps/1/cancel HTTP/1.1\r\n\r\n");
    assert!(conflict.starts_with("HTTP/1.1 409"), "{conflict}");
    assert!(conflict.contains("already done"), "{conflict}");
    assert!(http(addr, "POST /sweeps/99/cancel HTTP/1.1\r\n\r\n").starts_with("HTTP/1.1 404"));

    // Shutdown drains and the accept loop winds down.
    let bye = http(addr, "POST /shutdown HTTP/1.1\r\n\r\n");
    assert!(bye.starts_with("HTTP/1.1 202"), "{bye}");
    common::wait_for(&daemon, "fleet drained", |d| d.alive_workers() == 0);
    assert!(!daemon.unfinished());
}

#[test]
fn cancel_revokes_leases_and_collects_inflight_checkpoints() {
    let dir = scratch("cancel");
    let cfg = config(&dir);
    let state_dir = cfg.state_dir.clone();
    let daemon = Daemon::new(cfg);
    let addr = start_listener(&daemon);
    // Cell "a" completes; cell "b" runs forever (with heartbeats), so
    // only a cancel can end the sweep.
    drive_locals(&daemon, addr, |key| {
        if key == "b" {
            Reply::Hang
        } else {
            Reply::Done
        }
    });

    let manifest = parse_manifest(br#"{"experiment":"faults","finalize":false}"#).unwrap();
    let id = daemon.submit(manifest).expect("submit");
    tick_until(&daemon, "cell b leased", |d| {
        d.sweep_detail(id)
            .is_some_and(|(_, cells)| cells.iter().any(|c| c.key == "b" && c.status == "leased"))
    });

    // Plant an orphaned in-flight checkpoint, as a worker killed
    // mid-cell would leave behind.
    let sweep_dir = state_dir.join(format!("sweep-{id}"));
    let orphan = sweep_dir.join("inflight-b.ckpt");
    std::fs::write(&orphan, b"{}").unwrap();

    assert_eq!(daemon.cancel(id), Ok(true));
    assert_eq!(daemon.cancel(id), Ok(false), "second cancel is idempotent");
    assert_eq!(daemon.cancel(99), Err(CancelError::NotFound));

    assert!(
        !orphan.exists(),
        "cancel must gc orphaned inflight checkpoints"
    );
    let (view, cells) = daemon.sweep_detail(id).expect("detail");
    assert_eq!(view.status, "cancelled");
    assert!(
        cells.iter().all(|c| c.status != "leased"),
        "cancel must revoke every lease: {cells:?}"
    );
    assert!(
        daemon.worker_views().iter().all(|w| w.lease.is_empty()),
        "workers must not report revoked leases"
    );

    daemon.begin_drain();
    tick_until(&daemon, "fleet drained", |d| d.alive_workers() == 0);
    assert!(
        !daemon.unfinished(),
        "a cancelled sweep is not resumable work"
    );
}

#[test]
fn leased_cell_past_wall_clock_budget_is_charged_and_retried() {
    let dir = scratch("timeout");
    let cfg = config(&dir);
    let state_dir = cfg.state_dir.clone();
    let daemon = Daemon::new(cfg);
    let addr = start_listener(&daemon);
    // Cell "b" keeps heartbeating but never finishes on the first
    // attempt — only the wall-clock budget can unwedge it.
    drive_locals(&daemon, addr, b_first(|| Reply::Hang));

    let manifest =
        parse_manifest(br#"{"experiment":"faults","cell_timeout_s":1,"finalize":false}"#).unwrap();
    let id = daemon.submit(manifest).expect("submit");
    tick_until(&daemon, "sweep done after cell timeout", done(id));

    let records = journal_records(&state_dir, id);
    let fails: Vec<String> = records
        .iter()
        .filter_map(|r| match r {
            JournalRecord::Failed(f) if f.key == "b" => Some(f.error.clone()),
            _ => None,
        })
        .collect();
    assert!(
        fails.iter().any(|e| e.contains("wall-clock budget")),
        "timeout must be journaled with a structured reason: {fails:?}"
    );
    // The over-budget child was asked to checkpoint and exit: SIGTERM
    // went to the process the daemon spawned.
    assert!(
        sigterm_seen(&dir),
        "the timed-out worker must be SIGTERMed before any drain"
    );

    daemon.begin_drain();
    tick_until(&daemon, "fleet drained", |d| d.alive_workers() == 0);
}

#[test]
fn unpaired_hellos_land_in_fresh_remote_slots() {
    let dir = scratch("unpaired");
    let mut cfg = config(&dir);
    cfg.workers = 1;
    cfg.heartbeat_deadline = Duration::from_secs(5);
    let daemon = Daemon::new(cfg);
    let addr = start_listener(&daemon);
    common::start_ticker(&daemon);

    let id = daemon
        .submit(parse_manifest(br#"{"experiment":"faults","finalize":false}"#).unwrap())
        .expect("submit");
    common::wait_for(&daemon, "local child spawned", |d| {
        d.worker_views().first().is_some_and(|w| w.pid != 0)
    });
    let child_pid = daemon.worker_views()[0].pid as u32;

    // A hello whose pid matches no spawned child is a remote worker,
    // even over loopback: it gets a slot of its own.
    let stranger = std::process::id();
    assert_ne!(stranger, child_pid);
    let mut remote = dial(addr, &hello("", "w-stranger", stranger));
    remote.welcome();
    let views = daemon.worker_views();
    assert_eq!(views.len(), 2, "{views:?}");
    assert_eq!(views[1].kind, "remote");
    assert_eq!(views[1].name, "w-stranger");
    assert_eq!(views[1].pid, 0, "remote slots have no local pid");

    // The child's own hello pairs with its slot instead.
    let mut local = dial(addr, &hello("", "w-child", child_pid));
    local.welcome();
    let views = daemon.worker_views();
    assert_eq!(
        views.len(),
        2,
        "the child must not get a second slot: {views:?}"
    );
    assert_eq!(views[0].kind, "local");
    assert_eq!(
        views[0].name, "w-0",
        "a spawned child keeps its slot identity"
    );
    assert_eq!(u64::from(child_pid), views[0].pid);

    let _hb_remote = remote.start_heartbeats();
    let _hb_local = local.start_heartbeats();
    let remote = std::thread::spawn(move || remote.serve_until_exit());
    let local = std::thread::spawn(move || local.serve_until_exit());
    common::wait_for(&daemon, "sweep done", done(id));

    daemon.begin_drain();
    common::wait_for(&daemon, "fleet drained", |d| d.alive_workers() == 0);
    remote.join().unwrap();
    local.join().unwrap();
}

/// A `sweepd` process, killed if the test fails before it drains.
struct Sweepd(std::process::Child);

impl Drop for Sweepd {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Reads the daemon's stderr until it has logged both addresses.
fn addresses(stderr: impl Read + Send + 'static) -> (SocketAddr, SocketAddr) {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        for line in BufReader::new(stderr).lines() {
            let Ok(line) = line else { return };
            for prefix in ["sweepd: listening on ", "sweepd: workers on "] {
                if let Some(addr) = line.strip_prefix(prefix) {
                    let _ = tx.send((prefix, addr.parse::<SocketAddr>().unwrap()));
                }
            }
        }
    });
    let (mut ctl, mut wrk) = (None, None);
    while ctl.is_none() || wrk.is_none() {
        let (prefix, addr) = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("sweepd logs its addresses");
        if prefix.contains("listening") {
            ctl = Some(addr);
        } else {
            wrk = Some(addr);
        }
    }
    (ctl.unwrap(), wrk.unwrap())
}

#[test]
fn local_slot_comes_up_over_the_auto_bound_listener() {
    let dir = scratch("autobind");
    let script = write_worker_script(&dir);
    // No --worker-listen: local slots make the daemon bind one itself.
    let mut sweepd = Sweepd(
        Command::new(env!("CARGO_BIN_EXE_sweepd"))
            .args(["--listen", "127.0.0.1:0", "--workers", "1"])
            .args(["--worker-cmd", "/bin/sh", "--worker-cmd"])
            .arg(&script)
            .arg("--state-dir")
            .arg(dir.join("state"))
            .args(["--heartbeat-ms", "50", "--heartbeat-deadline-ms", "5000"])
            .stdin(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn sweepd"),
    );
    let (addr, waddr) = addresses(sweepd.0.stderr.take().unwrap());
    assert!(waddr.ip().is_loopback(), "auto-bound on loopback: {waddr}");

    let manifest = r#"{"experiment":"faults","finalize":false}"#;
    let created = http(
        addr,
        &format!(
            "POST /sweeps HTTP/1.1\r\nContent-Length: {}\r\n\r\n{manifest}",
            manifest.len()
        ),
    );
    assert!(created.starts_with("HTTP/1.1 201"), "{created}");

    let deadline = Instant::now() + Duration::from_secs(30);
    let pid = loop {
        let health = body(&http(addr, "GET /healthz HTTP/1.1\r\n\r\n"));
        let w = &health.get("workers").and_then(Value::as_array).unwrap()[0];
        let pid = w.get("pid").and_then(Value::as_u64).unwrap();
        if pid != 0 {
            break pid as u32;
        }
        assert!(Instant::now() < deadline, "the local child never spawned");
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut child = dial(waddr, &hello("", "w-child", pid));
    child.welcome();
    let _hb = child.start_heartbeats();
    let served = std::thread::spawn(move || child.serve_until_exit());

    let deadline = Instant::now() + Duration::from_secs(30);
    while !http(addr, "GET /sweeps/1 HTTP/1.1\r\n\r\n").contains("\"status\":\"done\"") {
        assert!(Instant::now() < deadline, "sweep never finished");
        std::thread::sleep(Duration::from_millis(50));
    }
    let health = body(&http(addr, "GET /healthz HTTP/1.1\r\n\r\n"));
    let workers = health.get("workers").and_then(Value::as_array).unwrap();
    assert_eq!(workers.len(), 1, "{workers:?}");
    assert_eq!(
        workers[0].get("kind").and_then(Value::as_str),
        Some("local")
    );
    assert_eq!(workers[0].get("alive").and_then(Value::as_bool), Some(true));
    assert_eq!(
        workers[0].get("pid").and_then(Value::as_u64),
        Some(u64::from(pid))
    );

    assert!(http(addr, "POST /shutdown HTTP/1.1\r\n\r\n").starts_with("HTTP/1.1 202"));
    let status = sweepd.0.wait().expect("sweepd exits");
    assert!(status.success(), "drained with every sweep done: {status}");
    served.join().unwrap();
}
