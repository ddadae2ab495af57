//! Shared harness for the sweepd integration tests: a `/bin/sh` stand-in
//! for the experiments binary, the worker listener, and an in-process
//! worker (`Conn`) that speaks the wire protocol directly, so every
//! worker-side event (silence, disconnect, stale completion) is
//! scripted rather than emergent.

#![allow(dead_code)] // each test crate uses a different subset

use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use checkpoint::manifest::{Journal, JournalHeader, JournalRecord};
use checkpoint::FORMAT_VERSION;
use serde::value::Value;
use sweepd::{remote, wire, Daemon};

pub fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sweepd-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Writes the stand-in for the experiments binary. `--grid` prints a
/// two-cell grid; any other invocation is a spawned local worker, which
/// here is only a lifetime anchor: the protocol side is played from the
/// test thread (dash has no `/dev/tcp` to dial with). The anchor traps
/// SIGTERM, leaves a `sigterm-<pid>` marker in `dir`, and exits 3; it
/// also exits once its daemon is gone, so a failed test leaks nothing.
pub fn write_worker_script(dir: &Path) -> PathBuf {
    let path = dir.join("fake-worker.sh");
    let script = format!(
        r#"#!/bin/sh
if [ "$1" = "--grid" ]; then
  printf '%s\n' '{{"experiment":"faults","sweep_hash":77,"seed":42,"cells":[{{"key":"a","hash":1}},{{"key":"b","hash":2}}]}}'
  exit 0
fi
trap ': > {dir}/sigterm-$$; exit 3' TERM
while kill -0 $PPID 2>/dev/null; do sleep 1 & wait $!; done
"#,
        dir = dir.display()
    );
    std::fs::write(&path, script).unwrap();
    use std::os::unix::fs::PermissionsExt;
    std::fs::set_permissions(&path, std::fs::Permissions::from_mode(0o755)).unwrap();
    path
}

/// Whether any spawned anchor in `dir` has received SIGTERM.
pub fn sigterm_seen(dir: &Path) -> bool {
    std::fs::read_dir(dir).unwrap().flatten().any(|e| {
        e.file_name()
            .to_str()
            .is_some_and(|n| n.starts_with("sigterm-"))
    })
}

/// Starts the worker listener; returns the bound address once the
/// daemon knows it.
pub fn start_listener(daemon: &Arc<Daemon>) -> SocketAddr {
    let (addr_tx, addr_rx) = mpsc::channel();
    let daemon = Arc::clone(daemon);
    std::thread::spawn(move || {
        remote::serve_workers(daemon, "127.0.0.1:0", move |addr| {
            addr_tx.send(addr).unwrap();
        })
        .expect("worker listener");
    });
    addr_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("listener bound")
}

/// Ticks the daemon from a background thread until it has drained.
pub fn start_ticker(daemon: &Arc<Daemon>) {
    let daemon = Arc::clone(daemon);
    std::thread::spawn(move || {
        while !(daemon.draining() && daemon.alive_workers() == 0) {
            daemon.tick();
            std::thread::sleep(Duration::from_millis(20));
        }
    });
}

/// Waits until `pred` holds (something else ticks the daemon).
pub fn wait_for(daemon: &Daemon, what: &str, pred: impl Fn(&Daemon) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while Instant::now() < deadline {
        if pred(daemon) {
            return;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!("timed out waiting for: {what}");
}

pub fn journal_records(state_dir: &Path, sweep_id: u64) -> Vec<JournalRecord> {
    let path = state_dir
        .join(format!("sweep-{sweep_id}"))
        .join("faults.manifest.jsonl");
    let header = JournalHeader {
        version: FORMAT_VERSION,
        config_hash: 77,
        seed: 42,
    };
    let (_, records) = Journal::open_resume_records(&path, &header).expect("journal parses");
    records
}

pub fn good_fp() -> u64 {
    wire::fingerprint(sweepd::manifest::SUPPORTED_EXPERIMENTS)
}

/// A current-protocol hello with the daemon's fingerprint.
pub fn hello(token: &str, worker: &str, pid: u32) -> wire::Hello {
    wire::Hello {
        proto: wire::PROTO_VERSION,
        fingerprint: good_fp(),
        token: token.to_string(),
        worker: worker.to_string(),
        pid,
    }
}

/// Dials the coordinator and completes the handshake; returns the
/// stream, a buffered reader over its clone, and the parsed reply.
pub fn dial(addr: SocketAddr, hello: &wire::Hello) -> Conn {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(wire::render_hello(hello).as_bytes())
        .unwrap();
    stream.flush().unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).expect("handshake reply");
    let reply = wire::parse_reply(line.trim_end()).expect("reply parses");
    Conn {
        stream,
        reader,
        reply,
    }
}

pub struct Conn {
    pub stream: TcpStream,
    pub reader: BufReader<TcpStream>,
    pub reply: wire::HandshakeReply,
}

impl Conn {
    pub fn welcome(&self) -> (String, u64, Option<String>) {
        match &self.reply {
            wire::HandshakeReply::Welcome {
                session,
                gen,
                resume,
                ..
            } => (session.clone(), *gen, resume.clone()),
            wire::HandshakeReply::Reject { reason } => panic!("rejected: {reason}"),
        }
    }

    /// Spawns a heartbeat thread over a clone of the stream; returns
    /// its stop flag (the thread also exits on write failure).
    pub fn start_heartbeats(&self) -> Arc<AtomicBool> {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let mut hb = self.stream.try_clone().unwrap();
        std::thread::spawn(move || {
            let mut seq = 0u64;
            while !flag.load(Ordering::Relaxed) {
                let frame = format!("{{\"ev\":\"hb\",\"seq\":{seq}}}\n");
                if hb
                    .write_all(frame.as_bytes())
                    .and_then(|()| hb.flush())
                    .is_err()
                {
                    return;
                }
                seq += 1;
                std::thread::sleep(Duration::from_millis(50));
            }
        });
        stop
    }

    /// Blocks until the next `run` command; returns `(key, fence gen)`.
    pub fn next_run(&mut self) -> (String, u64) {
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut line = String::new();
        while Instant::now() < deadline {
            line.clear();
            if self.reader.read_line(&mut line).expect("read command") == 0 {
                panic!("coordinator closed the stream while waiting for a run");
            }
            if let Some(run) = parse_run(&line) {
                return run;
            }
        }
        panic!("timed out waiting for a run command");
    }

    pub fn send_done(&mut self, key: &str, gen: u64) -> std::io::Result<()> {
        let hash = if key == "a" { 1 } else { 2 };
        let frame = format!(
            "{{\"ev\":\"done\",\"key\":\"{key}\",\"hash\":{hash},\"result\":\"{{\\\"v\\\":{hash}}}\",\"gen\":{gen}}}\n"
        );
        self.stream.write_all(frame.as_bytes())?;
        self.stream.flush()
    }

    /// Serves until the coordinator sends `exit`, completing every run
    /// with the echoed fence generation. Shuts the socket down on the
    /// way out so the heartbeat thread's clone cannot hold it open.
    pub fn serve_until_exit(&mut self) {
        let mut line = String::new();
        loop {
            line.clear();
            match self.reader.read_line(&mut line) {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
            if line.contains("\"op\":\"exit\"") {
                break;
            }
            if let Some((key, gen)) = parse_run(&line) {
                if self.send_done(&key, gen).is_err() {
                    break;
                }
            }
        }
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}

pub fn parse_run(line: &str) -> Option<(String, u64)> {
    let v: Value = serde_json::from_str(line.trim_end()).ok()?;
    if v.get("op").and_then(Value::as_str) != Some("run") {
        return None;
    }
    // Run commands are self-contained: the sweep context rides along
    // instead of arriving in a separate bind frame.
    let dir = v.get("dir").and_then(Value::as_str)?;
    assert!(!dir.is_empty(), "run must carry the sweep dir");
    assert_eq!(v.get("seed").and_then(Value::as_u64), Some(42));
    assert!(v.get("ckpt_interval").and_then(Value::as_u64).is_some());
    let key = v.get("key").and_then(Value::as_str)?.to_string();
    let gen = v.get("gen").and_then(Value::as_u64)?;
    Some((key, gen))
}

/// What a stand-in local worker does with one run command.
pub enum Reply {
    /// Complete the cell with the echoed fence.
    Done,
    /// Keep heartbeating but never answer.
    Hang,
    /// Stop heartbeating and never answer: the process looks hung.
    GoSilent,
}

/// Plays the protocol side of the daemon's spawned children: whenever a
/// local slot shows a child pid not seen before, dials in with that pid
/// (so the hello pairs with the slot) and answers each run command for
/// cell `key` with `reply(key)`. Runs until the daemon drains.
pub fn drive_locals(
    daemon: &Arc<Daemon>,
    addr: SocketAddr,
    reply: impl Fn(&str) -> Reply + Send + Sync + 'static,
) {
    let daemon = Arc::clone(daemon);
    let reply: Arc<dyn Fn(&str) -> Reply + Send + Sync> = Arc::new(reply);
    std::thread::spawn(move || {
        let mut dialed = BTreeSet::new();
        while !daemon.draining() {
            for w in daemon.worker_views() {
                if w.kind == "local" && w.pid != 0 && dialed.insert(w.pid) {
                    let conn = dial(addr, &hello("", "ignored", w.pid as u32));
                    let reply = Arc::clone(&reply);
                    std::thread::spawn(move || serve_local(conn, reply.as_ref()));
                }
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    });
}

fn serve_local(mut conn: Conn, reply: &(dyn Fn(&str) -> Reply + Send + Sync)) {
    // Liveness is the daemon's heartbeat deadline; a hanging cell must
    // not time the reader out.
    conn.stream.set_read_timeout(None).unwrap();
    let hb = conn.start_heartbeats();
    let mut line = String::new();
    loop {
        line.clear();
        match conn.reader.read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        let Some((key, gen)) = parse_run(&line) else {
            continue;
        };
        match reply(&key) {
            Reply::Done => {
                if conn.send_done(&key, gen).is_err() {
                    break;
                }
            }
            Reply::Hang => {}
            Reply::GoSilent => hb.store(true, Ordering::Relaxed),
        }
    }
    hb.store(true, Ordering::Relaxed);
}
