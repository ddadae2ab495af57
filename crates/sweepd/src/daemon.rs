//! The sweep-service core: sweep state, the supervised worker fleet,
//! and the supervision tick.
//!
//! # Supervision model
//!
//! The daemon owns a fleet of worker *slots*. A slot holds at most one
//! live worker, and every worker speaks the same [`crate::wire`]
//! protocol over a framed TCP link. Local slots are fixed at startup:
//! the daemon spawns `metanmp-experiments --connect <loopback worker
//! addr>` into each, and the child dials back and registers like any
//! other worker. Its hello carries its pid, which pairs the connection
//! with the slot that spawned it; until that hello arrives the child is
//! *starting* and takes no lease, and its heartbeat deadline already
//! runs, so a child that never dials in dies by the ordinary deadline
//! and respawns under backoff. Remote slots are appended as workers
//! register on their own and are never respawned by the daemon — a
//! remote worker that dies simply redials. The only difference between
//! the two is the child handle: reaping, SIGTERM (cell cancel and
//! drain) and kill act on it. Each link's read side is drained by a
//! dedicated reader thread that timestamps every delivered frame
//! (heartbeats included) and forwards protocol events to the supervisor
//! over a channel.
//!
//! The supervision tick, run every few tens of milliseconds:
//!
//! 1. applies worker events (completions journaled idempotently,
//!    errors charged against the cell's retry budget),
//! 2. declares workers dead when their last output line is older than
//!    the heartbeat deadline, and cancels leases older than the cell's
//!    wall-clock budget,
//! 3. reaps exited children; a death while holding a lease journals a
//!    [`FailRecord`] and returns the cell to the pending queue —
//!    *crash migration*: the next lease (any healthy worker) resumes
//!    from the cell's `inflight-<key>.ckpt` byte-identically,
//! 4. sheds the lowest-priority sweeps (structured reason, never
//!    silent) while the live fleet is below the floor,
//! 5. advances sweep lifecycle (all cells done → optional finalize
//!    pass producing the standard artifacts),
//! 6. leases pending cells to idle workers and respawns dead slots
//!    under jittered exponential backoff.
//!
//! # Lease fencing
//!
//! Every lease carries a daemon-global, monotonically increasing
//! *fence generation*. The run command echoes it to the worker, the
//! worker echoes it back on `done`/`err`, and a completion whose echo
//! does not match the live lease's generation is counted under
//! `sweepd.cells.fenced` and dropped: a worker that was partitioned
//! away, had its cell migrated, and later reconnects cannot overwrite
//! the replacement's result. The journal applies the same rule on
//! resume (see `checkpoint::manifest`), so fencing holds even across a
//! daemon restart.
//!
//! # Liveness and reconnection
//!
//! The reader thread timestamps each *delivered* frame, so a network
//! partition (or a scripted [`faultsim::Netem`] partition window)
//! starves the timestamp exactly like a hung process and triggers the
//! same crash-migration path. A worker that lost its connection redials
//! with its session token: if its slot is still live, the link is
//! re-attached in place (a new generation invalidates the stale reader)
//! and the welcome names any still-held lease so the worker can re-send
//! a completion that was lost in flight; if the slot was already
//! reaped, the worker observes a fresh registration (empty resume) and
//! knows its old lease migrated.
//!
//! The journal under each sweep's directory is the single source of
//! truth: `faults.manifest.jsonl` with the exact header the in-process
//! sweep would write, so `metanmp-experiments faults --resume <dir>`
//! replays a daemon-run sweep into byte-identical `results/` artifacts.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use checkpoint::manifest::{cell_record_fenced, FailRecord, Journal, JournalHeader, LeaseRecord};
use checkpoint::FORMAT_VERSION;
use faultsim::{Backoff, NetDir, Netem, NetemConfig, Scenario};
use serde::value::Value;
use serde::{Deserialize, Serialize};

use crate::manifest::SweepManifest;
use crate::wire;

/// Worker identity used in lease records and status views for
/// daemon-spawned workers (remote workers name themselves in their
/// registration hello).
fn worker_name(slot: usize) -> String {
    format!("w-{slot}")
}

/// Daemon-wide configuration, fixed at startup.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Worker command prefix (the experiments binary, or a stand-in
    /// under test); mode flags are appended per invocation.
    pub worker_cmd: Vec<String>,
    /// Local worker slots in the fleet: children the daemon spawns,
    /// which dial back to the worker listener. Zero is allowed: a
    /// daemon can run entirely on remote workers attached over TCP.
    pub workers: usize,
    /// Root directory for per-sweep state (`<state_dir>/sweep-<id>/`).
    pub state_dir: PathBuf,
    /// A worker whose last output line is older than this is dead.
    pub heartbeat_deadline: Duration,
    /// Heartbeat period passed to workers via `--heartbeat-ms`.
    pub heartbeat_ms: u64,
    /// Minimum healthy fleet; below it, low-priority sweeps are shed.
    pub fleet_floor: usize,
    /// Default per-cell wall-clock budget (manifest can override).
    pub default_cell_timeout_s: Option<u64>,
    /// Default per-cell retry budget (manifest can override).
    pub default_retry_budget: u32,
    /// Base respawn backoff in milliseconds.
    pub backoff_base_ms: u64,
    /// Respawn backoff cap in milliseconds.
    pub backoff_cap_ms: u64,
    /// Seed for the jittered respawn backoff (deterministic in tests).
    pub backoff_seed: u64,
    /// `--ckpt-interval` forwarded to workers and the finalize pass.
    pub ckpt_interval: u64,
    /// How long a drain waits for workers to persist and exit before
    /// escalating to SIGKILL.
    pub drain_grace: Duration,
    /// Scripted network-fault schedule applied to worker links (`net*`
    /// directives; an empty scenario is a byte-exact no-op). Streams
    /// are numbered in registration order, starting at 0, counting
    /// local children and remote workers alike.
    pub netem: Scenario,
}

impl DaemonConfig {
    /// Reasonable defaults around a worker command.
    pub fn new(worker_cmd: Vec<String>, state_dir: PathBuf) -> Self {
        DaemonConfig {
            worker_cmd,
            workers: 2,
            state_dir,
            heartbeat_deadline: Duration::from_millis(2000),
            heartbeat_ms: 100,
            fleet_floor: 1,
            default_cell_timeout_s: None,
            default_retry_budget: 2,
            backoff_base_ms: 50,
            backoff_cap_ms: 5000,
            backoff_seed: 0x5eed_5eed_5eed_5eed,
            ckpt_interval: 256,
            drain_grace: Duration::from_secs(10),
            netem: Scenario::empty(),
        }
    }
}

/// Image of the `--grid` one-shot output.
#[derive(Serialize, Deserialize, Debug)]
struct GridDoc {
    experiment: String,
    sweep_hash: u64,
    seed: u64,
    cells: Vec<GridCell>,
}

#[derive(Serialize, Deserialize, Debug)]
struct GridCell {
    key: String,
    hash: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CellStatus {
    Pending,
    Leased,
    Done,
    Failed,
}

#[derive(Debug)]
struct Cell {
    key: String,
    hash: u64,
    attempts: u32,
    status: CellStatus,
}

/// Lifecycle of a submitted sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SweepStatus {
    /// Cells are being leased and computed.
    Running,
    /// All cells done; the finalize pass is producing artifacts.
    Finalizing,
    /// Complete (artifacts under the sweep directory when finalized).
    Done,
    /// Failed with a structured reason.
    Failed(String),
    /// Shed under fleet degradation, with the structured reason.
    Shed(String),
    /// Cancelled on request; in-flight checkpoints are collected.
    Cancelled,
}

impl SweepStatus {
    fn label(&self) -> &'static str {
        match self {
            SweepStatus::Running => "running",
            SweepStatus::Finalizing => "finalizing",
            SweepStatus::Done => "done",
            SweepStatus::Failed(_) => "failed",
            SweepStatus::Shed(_) => "shed",
            SweepStatus::Cancelled => "cancelled",
        }
    }

    fn detail(&self) -> String {
        match self {
            SweepStatus::Failed(r) | SweepStatus::Shed(r) => r.clone(),
            _ => String::new(),
        }
    }

    /// Whether resumable work would be lost if the daemon exited now.
    fn unfinished(&self) -> bool {
        matches!(self, SweepStatus::Running | SweepStatus::Finalizing)
    }
}

struct Sweep {
    id: u64,
    manifest: SweepManifest,
    dir: PathBuf,
    cells: Vec<Cell>,
    journal: Journal,
    status: SweepStatus,
    finalize_child: Option<Child>,
}

impl Sweep {
    fn cell_timeout(&self, cfg: &DaemonConfig) -> Option<Duration> {
        self.manifest
            .cell_timeout_s
            .or(cfg.default_cell_timeout_s)
            .map(Duration::from_secs)
    }

    fn retry_budget(&self, cfg: &DaemonConfig) -> u32 {
        self.manifest
            .retry_budget
            .unwrap_or(cfg.default_retry_budget)
    }

    fn has_pending(&self) -> bool {
        self.status == SweepStatus::Running
            && self.cells.iter().any(|c| c.status == CellStatus::Pending)
    }
}

/// Events parsed off a worker's link by its reader thread. `gen` is
/// the fence generation echoed from the run command.
#[derive(Debug)]
enum WorkerEvent {
    Done {
        key: String,
        result: String,
        gen: Option<u64>,
    },
    Err {
        key: String,
        error: String,
        gen: Option<u64>,
    },
    Interrupted {
        key: String,
    },
    Eof,
}

fn parse_event(line: &str) -> Option<WorkerEvent> {
    let v: Value = serde_json::from_str(line).ok()?;
    let get_str = |k: &str| v.get(k).and_then(Value::as_str).map(str::to_string);
    let gen = v.get("gen").and_then(Value::as_u64);
    match v.get("ev").and_then(Value::as_str)? {
        "done" => Some(WorkerEvent::Done {
            key: get_str("key")?,
            result: get_str("result")?,
            gen,
        }),
        "err" => Some(WorkerEvent::Err {
            key: get_str("key")?,
            error: get_str("error").unwrap_or_default(),
            gen,
        }),
        "interrupted" => Some(WorkerEvent::Interrupted {
            key: get_str("key")?,
        }),
        // Heartbeats carry no payload the supervisor needs: the reader
        // thread already timestamped the frame.
        _ => None,
    }
}

struct LeaseInfo {
    sweep_id: u64,
    key: String,
    started: Instant,
    /// Fence generation journaled with the lease and echoed by the
    /// worker; completions with a different echo are fenced.
    gen: u64,
}

/// A registered worker's TCP connection, coordinator side.
struct TcpLink {
    writer: TcpStream,
    /// Session token the worker redials with.
    session: String,
    /// Netem stream id (registration order), kept across resumes.
    stream: u64,
    /// Coordinator-side egress fault injector, when active.
    netem: Option<Netem>,
}

struct Proc {
    /// The process handle of a daemon-spawned worker; `None` for a
    /// worker that dialed in on its own.
    child: Option<Child>,
    /// The registered link; `None` while a spawned child has not said
    /// hello yet (it is *starting*, and takes no lease).
    link: Option<TcpLink>,
    /// Identity in lease records and `/healthz`: `w-<slot>` for a
    /// spawned child, the hello's self-reported name otherwise.
    name: String,
    /// Updated by the reader thread on every delivered frame; set at
    /// spawn, so the heartbeat deadline also bounds a child's dial-in.
    last_line: Arc<Mutex<Instant>>,
    /// Generation guard: events from a previous incarnation of this
    /// slot (or a superseded connection) are ignored.
    gen: u64,
    lease: Option<LeaseInfo>,
    drain_signaled: bool,
}

impl Proc {
    fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    fn session(&self) -> Option<&str> {
        self.link.as_ref().map(|l| l.session.as_str())
    }

    /// Registered and not holding a lease.
    fn idle(&self) -> bool {
        self.link.is_some() && self.lease.is_none()
    }

    /// Sends one protocol line. Frames pass through the egress fault
    /// injector, so a scripted drop silently loses the command —
    /// exactly the failure the lease timeouts exist to absorb.
    fn send_line(&mut self, line: &str) -> std::io::Result<()> {
        let Some(TcpLink { writer, netem, .. }) = self.link.as_mut() else {
            return Err(std::io::ErrorKind::NotConnected.into());
        };
        let frames = match netem.as_mut() {
            Some(n) => n.apply(line.as_bytes().to_vec()),
            None => vec![line.as_bytes().to_vec()],
        };
        for f in frames {
            writer.write_all(&f)?;
            writer.write_all(b"\n")?;
        }
        writer.flush()
    }

    /// Releases egress frames whose scripted delay has elapsed (quiet
    /// links would otherwise hold them forever).
    fn pump_egress(&mut self) {
        let Some(TcpLink {
            writer,
            netem: Some(n),
            ..
        }) = self.link.as_mut()
        else {
            return;
        };
        for f in n.tick() {
            if writer
                .write_all(&f)
                .and_then(|()| writer.write_all(b"\n"))
                .is_err()
            {
                return;
            }
        }
        let _ = writer.flush();
    }

    /// Hard-stops the worker: shuts down the socket, kills and reaps a
    /// spawned child.
    fn terminate(&mut self) {
        if let Some(link) = &self.link {
            let _ = link.writer.shutdown(Shutdown::Both);
        }
        if let Some(child) = self.child.as_mut() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }

    /// Non-blocking exit check of a spawned child (a dialed-in worker
    /// is reaped via heartbeat expiry or EOF).
    fn try_reap(&mut self) -> Option<ExitStatus> {
        self.child.as_mut()?.try_wait().ok().flatten()
    }

    /// Best-effort cooperative cancellation of the in-flight cell: a
    /// spawned child gets SIGTERM; a dialed-in worker cannot be
    /// preempted — its eventual stale completion is fenced instead.
    fn signal_cell_cancel(&mut self) {
        if self.child.is_some() {
            send_sigterm(self.pid());
        }
    }

    /// One-shot drain signal: SIGTERM a spawned child (checkpoint +
    /// exit 3), send the exit op to a dialed-in worker.
    fn signal_drain(&mut self) {
        if self.drain_signaled {
            return;
        }
        self.drain_signaled = true;
        if self.child.is_some() {
            send_sigterm(self.pid());
        } else {
            let _ = self.send_line("{\"op\":\"exit\"}");
        }
    }
}

/// Whether a slot belongs to the fixed local fleet (the daemon spawns
/// its worker) or was appended by a remote registration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotKind {
    Local,
    Remote,
}

struct Slot {
    kind: SlotKind,
    proc: Option<Proc>,
    restarts: u64,
    /// Consecutive deaths, feeding the backoff exponent; reset by a
    /// successful cell completion.
    deaths: u32,
    backoff: Backoff,
    respawn_after: Instant,
    next_gen: u64,
}

impl Slot {
    /// An empty slot whose respawns jitter with `backoff_seed`.
    fn vacant(kind: SlotKind, cfg: &DaemonConfig, backoff_seed: u64) -> Self {
        Slot {
            kind,
            proc: None,
            restarts: 0,
            deaths: 0,
            backoff: Backoff::with_jitter(
                cfg.backoff_base_ms,
                cfg.backoff_cap_ms,
                200,
                backoff_seed,
            ),
            respawn_after: Instant::now(),
            next_gen: 0,
        }
    }
}

struct State {
    sweeps: BTreeMap<u64, Sweep>,
    slots: Vec<Slot>,
    next_id: u64,
    drain_started: Option<Instant>,
    /// Session token → slot index for reconnect-with-resume.
    sessions: BTreeMap<String, usize>,
    next_session: u64,
    /// Netem stream ids, assigned in registration order.
    next_stream: u64,
    /// Where spawned children dial in: the loopback form of the worker
    /// listener's bound address, once it is bound.
    worker_addr: Option<SocketAddr>,
    /// Daemon-global fence generation; starts at 1 so 0 stays the
    /// journal's "unfenced legacy record" sentinel.
    next_fence: u64,
}

/// The daemon: shared between the HTTP server threads (submission and
/// status), the worker listener, and the supervisor thread (ticks).
pub struct Daemon {
    cfg: DaemonConfig,
    state: Mutex<State>,
    events_tx: Sender<(usize, u64, WorkerEvent)>,
    events_rx: Mutex<Receiver<(usize, u64, WorkerEvent)>>,
    draining: AtomicBool,
}

/// Why a cancel request was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CancelError {
    /// No sweep with the given id.
    NotFound,
    /// The sweep already reached the named terminal state.
    Terminal(String),
}

/// Summary of one sweep for `GET /sweeps`.
#[derive(Serialize, Deserialize, Debug)]
pub struct SweepView {
    /// Sweep id.
    pub id: u64,
    /// Experiment name.
    pub experiment: String,
    /// Sweep seed.
    pub seed: u64,
    /// Scheduling priority.
    pub priority: i64,
    /// Lifecycle label: `running|finalizing|done|failed|shed|cancelled`.
    pub status: String,
    /// Structured reason for `failed`/`shed`, else empty.
    pub detail: String,
    /// Total cells in the grid.
    pub total: u64,
    /// Completed cells.
    pub done: u64,
    /// Cells currently leased to workers.
    pub leased: u64,
    /// Cells waiting for a worker.
    pub pending: u64,
    /// Cells that exhausted their retry budget.
    pub failed: u64,
}

/// Per-cell detail for `GET /sweeps/:id`.
#[derive(Serialize, Deserialize, Debug)]
pub struct CellView {
    /// Cell key.
    pub key: String,
    /// `pending|leased|done|failed`.
    pub status: String,
    /// Failed attempts so far.
    pub attempts: u32,
}

/// Worker-slot health for `GET /healthz`.
#[derive(Serialize, Deserialize, Debug)]
pub struct WorkerView {
    /// Slot index.
    pub idx: u64,
    /// Worker identity as it appears in lease journal records:
    /// `w-<idx>` for locals, the self-reported hello name for remotes
    /// (empty while a slot is vacant).
    pub name: String,
    /// Whether a live process occupies the slot.
    pub alive: bool,
    /// Spawned child's pid, also while it is starting (0 when the slot
    /// is vacant or remote).
    pub pid: u64,
    /// Times this slot respawned (local) or re-attached (remote).
    pub restarts: u64,
    /// Key of the currently leased cell, empty when idle.
    pub lease: String,
    /// `local` (the daemon spawns the slot's worker) or `remote`.
    pub kind: String,
}

impl Daemon {
    /// Creates a daemon (no workers spawned until work arrives).
    pub fn new(cfg: DaemonConfig) -> Arc<Self> {
        let (tx, rx) = mpsc::channel();
        let seed = |i: usize| cfg.backoff_seed.wrapping_add(i as u64);
        let slots = (0..cfg.workers)
            .map(|i| Slot::vacant(SlotKind::Local, &cfg, seed(i)))
            .collect();
        Arc::new(Daemon {
            cfg,
            state: Mutex::new(State {
                sweeps: BTreeMap::new(),
                slots,
                next_id: 1,
                drain_started: None,
                sessions: BTreeMap::new(),
                next_session: 1,
                next_stream: 0,
                worker_addr: None,
                next_fence: 1,
            }),
            events_tx: tx,
            events_rx: Mutex::new(rx),
            draining: AtomicBool::new(false),
        })
    }

    /// The daemon's configuration.
    pub fn config(&self) -> &DaemonConfig {
        &self.cfg
    }

    /// Enumerates the sweep grid by running the worker command's
    /// `--grid` one-shot mode.
    fn fetch_grid(&self, manifest: &SweepManifest) -> Result<GridDoc, String> {
        let cmd = &self.cfg.worker_cmd;
        let output = Command::new(&cmd[0])
            .args(&cmd[1..])
            .arg("--grid")
            .arg(&manifest.experiment)
            .arg("--seed")
            .arg(manifest.seed.to_string())
            .stdin(Stdio::null())
            .output()
            .map_err(|e| format!("spawning grid command {:?}: {e}", cmd[0]))?;
        if !output.status.success() {
            return Err(format!(
                "grid command exited with {}: {}",
                output.status,
                String::from_utf8_lossy(&output.stderr).trim()
            ));
        }
        let stdout = String::from_utf8_lossy(&output.stdout);
        let line = stdout
            .lines()
            .rev()
            .find(|l| !l.trim().is_empty())
            .ok_or_else(|| "grid command produced no output".to_string())?;
        let doc: GridDoc =
            serde_json::from_str(line).map_err(|e| format!("parsing grid output: {e}"))?;
        if doc.experiment != manifest.experiment || doc.seed != manifest.seed {
            return Err(format!(
                "grid command answered for {:?} seed {} instead of {:?} seed {}",
                doc.experiment, doc.seed, manifest.experiment, manifest.seed
            ));
        }
        if doc.cells.is_empty() {
            return Err("grid has no cells".to_string());
        }
        Ok(doc)
    }

    /// Registers a sweep: enumerates its grid, creates the per-sweep
    /// directory and journal, and queues every cell.
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason when the daemon is draining, the
    /// grid command fails, or the journal cannot be created.
    pub fn submit(&self, manifest: SweepManifest) -> Result<u64, String> {
        if self.draining.load(Ordering::SeqCst) {
            return Err("daemon is draining; not accepting new sweeps".into());
        }
        let grid = self.fetch_grid(&manifest)?;
        let mut st = self.state.lock().expect("daemon state");
        let id = st.next_id;
        st.next_id += 1;
        let dir = self.cfg.state_dir.join(format!("sweep-{id}"));
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        // The journal is the one the in-process sweep would write, so
        // `--resume <dir>` (the finalize pass, or a manual rerun)
        // replays daemon-computed cells directly.
        let path = dir.join(format!("{}.manifest.jsonl", manifest.experiment));
        let header = JournalHeader {
            version: FORMAT_VERSION,
            config_hash: grid.sweep_hash,
            seed: manifest.seed,
        };
        let journal = Journal::create(&path, &header)
            .map_err(|e| format!("creating journal {}: {e}", path.display()))?;
        let cells = grid
            .cells
            .into_iter()
            .map(|c| Cell {
                key: c.key,
                hash: c.hash,
                attempts: 0,
                status: CellStatus::Pending,
            })
            .collect();
        st.sweeps.insert(
            id,
            Sweep {
                id,
                manifest,
                dir,
                cells,
                journal,
                status: SweepStatus::Running,
                finalize_child: None,
            },
        );
        Ok(id)
    }

    /// Cancels a running or finalizing sweep: revokes its leases
    /// (stale completions are subsequently fenced), kills any finalize
    /// pass, marks the sweep cancelled, and garbage-collects orphaned
    /// `inflight-<key>.ckpt` files under its directory.
    ///
    /// Returns `Ok(true)` when this call performed the cancel and
    /// `Ok(false)` when the sweep was already cancelled (idempotent).
    ///
    /// # Errors
    ///
    /// [`CancelError::NotFound`] for an unknown id,
    /// [`CancelError::Terminal`] when the sweep already finished,
    /// failed, or was shed.
    pub fn cancel(&self, id: u64) -> Result<bool, CancelError> {
        let mut st = self.state.lock().expect("daemon state");
        let status = match st.sweeps.get(&id) {
            None => return Err(CancelError::NotFound),
            Some(s) => s.status.clone(),
        };
        match status {
            SweepStatus::Cancelled => Ok(false),
            SweepStatus::Done | SweepStatus::Failed(_) | SweepStatus::Shed(_) => {
                Err(CancelError::Terminal(status.label().to_string()))
            }
            SweepStatus::Running | SweepStatus::Finalizing => {
                for slot in st.slots.iter_mut() {
                    if let Some(p) = slot.proc.as_mut() {
                        if p.lease.as_ref().is_some_and(|l| l.sweep_id == id) {
                            p.lease = None;
                        }
                    }
                }
                let sweep = st.sweeps.get_mut(&id).expect("checked above");
                if let Some(mut child) = sweep.finalize_child.take() {
                    let _ = child.kill();
                    let _ = child.wait();
                }
                for cell in sweep.cells.iter_mut() {
                    if cell.status == CellStatus::Leased {
                        cell.status = CellStatus::Pending;
                    }
                }
                sweep.status = SweepStatus::Cancelled;
                gc_inflight(&sweep.dir);
                obs::counter_add("sweepd.sweeps.cancelled", 1);
                Ok(true)
            }
        }
    }

    /// Records where spawned children dial in: the loopback form of the
    /// worker listener's bound address (a wildcard bind is reached over
    /// loopback of the same family).
    ///
    /// # Errors
    ///
    /// Returns a reason when local slots exist but the listener is
    /// bound to a specific non-loopback address, which spawned children
    /// could not pair over.
    pub(crate) fn set_worker_addr(&self, bound: SocketAddr) -> Result<(), String> {
        let ip = match bound.ip() {
            IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
            IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
            ip => ip,
        };
        if !ip.is_loopback() {
            if self.cfg.workers == 0 {
                return Ok(());
            }
            return Err(format!(
                "local worker slots dial back over loopback, but the worker listener \
                 is bound to {bound}; bind a loopback or wildcard address"
            ));
        }
        self.state.lock().expect("daemon state").worker_addr =
            Some(SocketAddr::new(ip, bound.port()));
        Ok(())
    }

    /// Registers a worker after its hello frame was read from `peer`.
    /// A first-contact hello from a loopback peer whose pid matches a
    /// starting spawned child attaches to that child's slot; any other
    /// fresh hello appends a remote slot. Writes the welcome/reject
    /// reply itself (handshake frames bypass netem by design — the
    /// chaos scope is the steady-state stream).
    ///
    /// # Errors
    ///
    /// Returns the rejection reason; the reject frame has already been
    /// written to the socket on a best-effort basis.
    pub(crate) fn register(
        &self,
        hello: &wire::Hello,
        peer: IpAddr,
        mut stream: TcpStream,
        leftover: Vec<u8>,
    ) -> Result<(), String> {
        let mut reject = |reason: String| -> Result<(), String> {
            let _ = stream.write_all(wire::render_reject(&reason).as_bytes());
            let _ = stream.flush();
            Err(reason)
        };
        if hello.proto != wire::PROTO_VERSION {
            return reject(format!(
                "protocol version mismatch: worker speaks {}, coordinator speaks {}",
                hello.proto,
                wire::PROTO_VERSION
            ));
        }
        let expected = wire::fingerprint(crate::manifest::SUPPORTED_EXPERIMENTS);
        if hello.fingerprint != expected {
            return reject(format!(
                "config fingerprint mismatch: worker {:#018x}, coordinator {:#018x} \
                 (builds disagree on the supported experiment set)",
                hello.fingerprint, expected
            ));
        }
        if self.draining() {
            return reject("daemon is draining; not accepting workers".into());
        }

        let mut st = self.state.lock().expect("daemon state");

        // Reconnect-with-resume: a known session token whose slot is
        // still live re-attaches the link in place.
        if !hello.token.is_empty() {
            if let Some(&idx) = st.sessions.get(&hello.token) {
                let live = st.slots[idx]
                    .proc
                    .as_ref()
                    .is_some_and(|p| p.session() == Some(hello.token.as_str()));
                if live {
                    return self.resume(&mut st, idx, hello, stream, leftover);
                }
                // The slot was reaped since: fall through to a fresh
                // registration so the worker observes the migration.
                st.sessions.remove(&hello.token);
            }
        }

        let child_slot = if hello.token.is_empty() && peer.is_loopback() {
            st.slots.iter().position(|s| {
                s.proc
                    .as_ref()
                    .is_some_and(|p| p.link.is_none() && p.pid() == hello.pid)
            })
        } else {
            None
        };
        let gen = child_slot
            .and_then(|idx| st.slots[idx].proc.as_ref())
            .map_or(0, |p| p.gen);
        let session = format!("s{}", st.next_session);
        st.next_session += 1;
        let stream_id = st.next_stream;
        st.next_stream += 1;
        let reader = stream
            .try_clone()
            .map_err(|e| format!("cloning worker stream: {e}"))?;
        stream
            .write_all(wire::render_welcome(&session, gen, None).as_bytes())
            .and_then(|()| stream.flush())
            .map_err(|e| format!("writing welcome: {e}"))?;
        let (ingress, egress) = self.injectors(stream_id);
        let link = TcpLink {
            writer: stream,
            session: session.clone(),
            stream: stream_id,
            netem: egress,
        };
        let idx = match child_slot {
            Some(idx) => {
                let proc = st.slots[idx].proc.as_mut().expect("starting slot");
                proc.link = Some(link);
                if let Ok(mut t) = proc.last_line.lock() {
                    *t = Instant::now();
                }
                idx
            }
            None => {
                let seed = self.cfg.backoff_seed.wrapping_add(0x7e_0000 + stream_id);
                let mut slot = Slot::vacant(SlotKind::Remote, &self.cfg, seed);
                slot.proc = Some(Proc {
                    child: None,
                    link: Some(link),
                    name: hello.worker.clone(),
                    last_line: Arc::new(Mutex::new(Instant::now())),
                    gen,
                    lease: None,
                    drain_signaled: false,
                });
                slot.next_gen = 1;
                st.slots.push(slot);
                obs::counter_add("sweepd.remote.registered", 1);
                st.slots.len() - 1
            }
        };
        let last_line = Arc::clone(&st.slots[idx].proc.as_ref().expect("just linked").last_line);
        spawn_link_reader(
            idx,
            gen,
            reader,
            leftover,
            ingress,
            last_line,
            self.events_tx.clone(),
        );
        st.sessions.insert(session, idx);
        Ok(())
    }

    /// Re-attaches a redialing worker to its live slot: the stale
    /// socket is shut down, a new generation invalidates its reader,
    /// and the welcome names the still-held lease (if any) so the
    /// worker can re-send a completion lost in flight.
    fn resume(
        &self,
        st: &mut State,
        idx: usize,
        hello: &wire::Hello,
        mut stream: TcpStream,
        leftover: Vec<u8>,
    ) -> Result<(), String> {
        let slot = &mut st.slots[idx];
        let gen = slot.next_gen;
        slot.next_gen += 1;
        slot.restarts = slot.restarts.saturating_add(1);
        let proc = slot.proc.as_mut().expect("live slot checked");
        let resume_key = proc.lease.as_ref().map(|l| l.key.clone());
        let welcome = wire::render_welcome(&hello.token, gen, resume_key.as_deref());
        stream
            .write_all(welcome.as_bytes())
            .and_then(|()| stream.flush())
            .map_err(|e| format!("writing resume welcome: {e}"))?;
        let reader = stream
            .try_clone()
            .map_err(|e| format!("cloning worker stream: {e}"))?;
        let link = proc.link.as_mut().expect("a session implies a link");
        let _ = link.writer.shutdown(Shutdown::Both);
        link.writer = stream;
        // Fresh per-connection injectors: netem frame counters are
        // per-connection by design (documented in DESIGN §17).
        let (ingress, egress) = self.injectors(link.stream);
        link.netem = egress;
        proc.gen = gen;
        proc.drain_signaled = false;
        if let Ok(mut t) = proc.last_line.lock() {
            *t = Instant::now();
        }
        spawn_link_reader(
            idx,
            gen,
            reader,
            leftover,
            ingress,
            Arc::clone(&proc.last_line),
            self.events_tx.clone(),
        );
        obs::counter_add("sweepd.remote.reconnects", 1);
        Ok(())
    }

    /// Ingress and egress fault injectors for one connection on netem
    /// stream `stream_id`; `(None, None)` when the scenario leaves the
    /// stream alone.
    fn injectors(&self, stream_id: u64) -> (Option<Netem>, Option<Netem>) {
        let cfg = NetemConfig::from_scenario(&self.cfg.netem, stream_id);
        if !cfg.is_active() {
            return (None, None);
        }
        (
            Some(Netem::new(cfg.clone(), stream_id, NetDir::Ingress)),
            Some(Netem::new(cfg, stream_id, NetDir::Egress)),
        )
    }

    /// Starts a graceful drain: stop leasing, SIGTERM workers so they
    /// persist in-flight checkpoints, exit once the fleet is reaped.
    pub fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
    }

    /// Whether a drain has been requested.
    pub fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Whether any sweep still holds resumable work.
    pub fn unfinished(&self) -> bool {
        let st = self.state.lock().expect("daemon state");
        st.sweeps.values().any(|s| s.status.unfinished())
    }

    /// Summaries of all sweeps, newest first.
    pub fn sweep_views(&self) -> Vec<SweepView> {
        let st = self.state.lock().expect("daemon state");
        st.sweeps.values().rev().map(view_of).collect()
    }

    /// Summary plus per-cell detail for one sweep.
    pub fn sweep_detail(&self, id: u64) -> Option<(SweepView, Vec<CellView>)> {
        let st = self.state.lock().expect("daemon state");
        let sweep = st.sweeps.get(&id)?;
        let cells = sweep
            .cells
            .iter()
            .map(|c| CellView {
                key: c.key.clone(),
                status: match c.status {
                    CellStatus::Pending => "pending",
                    CellStatus::Leased => "leased",
                    CellStatus::Done => "done",
                    CellStatus::Failed => "failed",
                }
                .to_string(),
                attempts: c.attempts,
            })
            .collect();
        Some((view_of(sweep), cells))
    }

    /// Health of every worker slot.
    pub fn worker_views(&self) -> Vec<WorkerView> {
        let st = self.state.lock().expect("daemon state");
        st.slots
            .iter()
            .enumerate()
            .map(|(i, s)| WorkerView {
                idx: i as u64,
                name: s.proc.as_ref().map_or(String::new(), |p| p.name.clone()),
                alive: s.proc.is_some(),
                pid: s.proc.as_ref().map_or(0, |p| u64::from(p.pid())),
                restarts: s.restarts,
                lease: s
                    .proc
                    .as_ref()
                    .and_then(|p| p.lease.as_ref())
                    .map_or(String::new(), |l| l.key.clone()),
                kind: match s.kind {
                    SlotKind::Local => "local",
                    SlotKind::Remote => "remote",
                }
                .to_string(),
            })
            .collect()
    }

    /// Count of live worker processes (local and remote).
    pub fn alive_workers(&self) -> usize {
        let st = self.state.lock().expect("daemon state");
        st.slots.iter().filter(|s| s.proc.is_some()).count()
    }

    /// One supervision pass. The server runs this in a loop; tests call
    /// it directly for deterministic stepping.
    pub fn tick(&self) {
        let mut st = self.state.lock().expect("daemon state");
        let cfg = &self.cfg;
        let now = Instant::now();

        // 1. Worker events.
        {
            let rx = self.events_rx.lock().expect("event channel");
            while let Ok((slot_idx, gen, event)) = rx.try_recv() {
                apply_event(cfg, &mut st, slot_idx, gen, event);
            }
        }

        // 1b. Release scripted egress delays on quiet remote links.
        for slot in st.slots.iter_mut() {
            if let Some(p) = slot.proc.as_mut() {
                p.pump_egress();
            }
        }

        // 2. Liveness deadlines and cell wall-clock budgets.
        for idx in 0..st.slots.len() {
            let (stale, timed_out) = {
                let Some(proc) = st.slots[idx].proc.as_ref() else {
                    continue;
                };
                let stale = proc
                    .last_line
                    .lock()
                    .map(|t| t.elapsed() > cfg.heartbeat_deadline)
                    .unwrap_or(true);
                let timed_out = proc.lease.as_ref().and_then(|l| {
                    let sweep = st.sweeps.get(&l.sweep_id)?;
                    let budget = sweep.cell_timeout(cfg)?;
                    (l.started.elapsed() > budget).then_some((l.sweep_id, budget))
                });
                (stale, timed_out)
            };
            if stale {
                let reason = format!(
                    "worker {} heartbeat expired (no output for {:?})",
                    proc_name(&st, idx),
                    cfg.heartbeat_deadline
                );
                kill_slot(cfg, &mut st, idx, &reason, now);
                continue;
            }
            if let Some((sweep_id, budget)) = timed_out {
                // Cooperative cancellation: SIGTERM makes a spawned
                // child persist the in-flight checkpoint and exit 3 (a
                // dialed-in worker cannot be preempted; its eventual
                // stale completion is fenced). The attempt is charged
                // now so the lease cannot wedge the fleet, and a retry
                // resumes from the checkpoint.
                let lease = st.slots[idx]
                    .proc
                    .as_mut()
                    .and_then(|p| p.lease.take())
                    .expect("timed-out lease");
                let reason = format!(
                    "cell {:?} exceeded its {}s wall-clock budget on worker {}",
                    lease.key,
                    budget.as_secs(),
                    proc_name(&st, idx),
                );
                charge_attempt(cfg, &mut st, sweep_id, &lease.key, &reason);
                if let Some(p) = st.slots[idx].proc.as_mut() {
                    p.signal_cell_cancel();
                }
            }
        }

        // 3. Reap exited spawned children.
        for idx in 0..st.slots.len() {
            let exited = match st.slots[idx].proc.as_mut() {
                Some(p) => p.try_reap(),
                None => continue,
            };
            if let Some(status) = exited {
                let reason = format!("worker {} exited with {status}", proc_name(&st, idx));
                kill_slot(cfg, &mut st, idx, &reason, now);
            }
        }

        // 4. Fleet health and degradation.
        let alive = st.slots.iter().filter(|s| s.proc.is_some()).count();
        obs::gauge_set("sweepd.workers.alive", alive as f64);
        if alive < cfg.fleet_floor {
            shed_low_priority(cfg, &mut st, alive);
        }

        // 5. Sweep lifecycle: completion and finalize.
        advance_sweeps(cfg, &mut st);

        // 6. Leasing and respawn — or drain.
        if self.draining.load(Ordering::SeqCst) {
            drain_fleet(cfg, &mut st, now);
        } else {
            assign_work(cfg, &mut st, now);
        }
    }

    /// Runs supervision ticks until a drain completes. Returns `true`
    /// when all sweeps finished (exit 0), `false` when resumable work
    /// remains (exit 3).
    pub fn run_supervisor(&self, tick_interval: Duration) -> bool {
        loop {
            self.tick();
            if self.draining() {
                let st = self.state.lock().expect("daemon state");
                let live = st.slots.iter().filter(|s| s.proc.is_some()).count();
                let finalizing = st
                    .sweeps
                    .values()
                    .any(|s| s.status == SweepStatus::Finalizing);
                if live == 0 && !finalizing {
                    break;
                }
            }
            std::thread::sleep(tick_interval);
        }
        !self.unfinished()
    }
}

/// The identity of the worker in slot `idx`, for failure reasons.
fn proc_name(st: &State, idx: usize) -> String {
    st.slots[idx]
        .proc
        .as_ref()
        .map_or_else(|| worker_name(idx), |p| p.name.clone())
}

fn view_of(sweep: &Sweep) -> SweepView {
    let count = |s: CellStatus| sweep.cells.iter().filter(|c| c.status == s).count() as u64;
    SweepView {
        id: sweep.id,
        experiment: sweep.manifest.experiment.clone(),
        seed: sweep.manifest.seed,
        priority: sweep.manifest.priority,
        status: sweep.status.label().to_string(),
        detail: sweep.status.detail(),
        total: sweep.cells.len() as u64,
        done: count(CellStatus::Done),
        leased: count(CellStatus::Leased),
        pending: count(CellStatus::Pending),
        failed: count(CellStatus::Failed),
    }
}

/// Applies one worker event, guarded by the slot generation and the
/// lease fence.
fn apply_event(cfg: &DaemonConfig, st: &mut State, slot_idx: usize, gen: u64, event: WorkerEvent) {
    let Some(proc) = st.slots[slot_idx].proc.as_mut() else {
        return;
    };
    if proc.gen != gen {
        return; // event from a previous incarnation of the slot
    }
    match event {
        WorkerEvent::Done {
            key,
            result,
            gen: fence,
        } => {
            let Some(lease) = proc.lease.take() else {
                return; // completion for a cancelled lease; checkpoint covers it
            };
            if lease.key != key {
                proc.lease = Some(lease);
                return;
            }
            if fence != Some(lease.gen) {
                // Stale (or missing) echo: the worker is finishing an
                // attempt whose lease was superseded (e.g. timeout →
                // re-lease of the same cell to the same worker). The
                // live lease stays.
                proc.lease = Some(lease);
                obs::counter_add("sweepd.cells.fenced", 1);
                return;
            }
            st.slots[slot_idx].deaths = 0;
            let Some(sweep) = st.sweeps.get_mut(&lease.sweep_id) else {
                return;
            };
            let Some(cell) = sweep.cells.iter_mut().find(|c| c.key == key) else {
                return;
            };
            if cell.status == CellStatus::Done {
                return; // idempotent: journal already has it
            }
            let record = cell_record_fenced(&key, cell.hash, result, lease.gen);
            if let Err(e) = sweep.journal.append(&record) {
                sweep.status = SweepStatus::Failed(format!("journal append: {e}"));
                return;
            }
            cell.status = CellStatus::Done;
        }
        WorkerEvent::Err {
            key,
            error,
            gen: fence,
        } => {
            let Some(lease) = proc.lease.take() else {
                return;
            };
            if lease.key != key {
                proc.lease = Some(lease);
                return;
            }
            // An error without an echo is a worker reporting a lease it
            // lost the state for (it reconnected mid-cell): charge it.
            if fence.is_some_and(|g| g != lease.gen) {
                proc.lease = Some(lease);
                obs::counter_add("sweepd.cells.fenced", 1);
                return;
            }
            let reason = format!("worker {}: {error}", proc.name);
            charge_attempt(cfg, st, lease.sweep_id, &key, &reason);
        }
        WorkerEvent::Interrupted { key } => {
            // The worker persisted the in-flight checkpoint and is
            // exiting; the cell goes back to pending without charging
            // an attempt (a cancelled lease was already charged when
            // the timeout fired).
            if let Some(lease) = proc.lease.take() {
                if lease.key == key {
                    if let Some(sweep) = st.sweeps.get_mut(&lease.sweep_id) {
                        if let Some(cell) = sweep.cells.iter_mut().find(|c| c.key == key) {
                            if cell.status == CellStatus::Leased {
                                cell.status = CellStatus::Pending;
                            }
                        }
                    }
                } else {
                    proc.lease = Some(lease);
                }
            }
        }
        WorkerEvent::Eof => {
            // Spawned child: the reap pass collects the exit status,
            // and the heartbeat deadline covers a child that lost its
            // link but lingers (it redials with its token). Dialed-in
            // worker with no lease: a clean disconnect — retire the
            // slot now instead of waiting out the deadline. A *leased*
            // one keeps its slot: the deadline is the reconnect grace
            // window.
            if proc.child.is_none() && proc.lease.is_none() {
                if let Some(mut p) = st.slots[slot_idx].proc.take() {
                    if let Some(session) = p.session().map(str::to_string) {
                        st.sessions.remove(&session);
                    }
                    p.terminate();
                }
            }
        }
    }
}

/// Charges a failed attempt against a cell: journals the failure,
/// returns the cell to pending within budget, otherwise fails the cell
/// and its sweep.
fn charge_attempt(cfg: &DaemonConfig, st: &mut State, sweep_id: u64, key: &str, reason: &str) {
    let Some(sweep) = st.sweeps.get_mut(&sweep_id) else {
        return;
    };
    let budget = sweep.retry_budget(cfg);
    let Some(cell) = sweep.cells.iter_mut().find(|c| c.key == key) else {
        return;
    };
    if cell.status == CellStatus::Done {
        return;
    }
    let attempt = cell.attempts;
    cell.attempts += 1;
    let _ = sweep.journal.append_failed(&FailRecord {
        key: key.to_string(),
        attempt,
        error: reason.to_string(),
    });
    if cell.attempts > budget {
        cell.status = CellStatus::Failed;
        sweep.status = SweepStatus::Failed(format!(
            "cell {key:?} exhausted its retry budget ({budget}): {reason}"
        ));
    } else {
        cell.status = CellStatus::Pending;
    }
}

/// Tears down a slot's link after a death or forced kill: journals the
/// orphaned lease, requeues its cell (crash migration), schedules a
/// backed-off respawn (local slots; a retired remote slot waits for
/// its worker to redial, which lands in a fresh slot).
fn kill_slot(cfg: &DaemonConfig, st: &mut State, idx: usize, reason: &str, now: Instant) {
    let Some(mut proc) = st.slots[idx].proc.take() else {
        return;
    };
    if let Some(session) = proc.session().map(str::to_string) {
        st.sessions.remove(&session);
    }
    proc.terminate();
    if let Some(lease) = proc.lease.take() {
        obs::counter_add("sweepd.cells.migrated", 1);
        charge_attempt(
            cfg,
            st,
            lease.sweep_id,
            &lease.key,
            &format!("{reason} while holding the lease"),
        );
    }
    let slot = &mut st.slots[idx];
    let attempt = slot.deaths;
    slot.deaths = slot.deaths.saturating_add(1);
    slot.respawn_after = now + Duration::from_millis(slot.backoff.delay(attempt));
}

/// Sheds every running sweep except the single highest-priority one
/// while the fleet is below its floor.
fn shed_low_priority(cfg: &DaemonConfig, st: &mut State, alive: usize) {
    let mut running: Vec<(i64, u64)> = st
        .sweeps
        .values()
        .filter(|s| s.status == SweepStatus::Running)
        .map(|s| (s.manifest.priority, s.id))
        .collect();
    if running.len() <= 1 {
        return;
    }
    // Keep the highest priority (ties: oldest id); shed the rest.
    running.sort_by_key(|&(priority, id)| (std::cmp::Reverse(priority), id));
    for &(priority, id) in &running[1..] {
        let reason = format!(
            "shed under fleet degradation: {alive} worker(s) alive, floor is {}; \
             priority {priority} lost to priority {}",
            cfg.fleet_floor, running[0].0
        );
        if let Some(sweep) = st.sweeps.get_mut(&id) {
            sweep.status = SweepStatus::Shed(reason);
            obs::counter_add("sweepd.sweeps.shed", 1);
        }
    }
}

/// Moves completed sweeps into (and out of) the finalize pass.
fn advance_sweeps(cfg: &DaemonConfig, st: &mut State) {
    for sweep in st.sweeps.values_mut() {
        match sweep.status {
            SweepStatus::Running if sweep.cells.iter().all(|c| c.status == CellStatus::Done) => {
                if sweep.manifest.finalize {
                    match spawn_finalize(cfg, sweep) {
                        Ok(child) => {
                            sweep.finalize_child = Some(child);
                            sweep.status = SweepStatus::Finalizing;
                        }
                        Err(e) => {
                            sweep.status =
                                SweepStatus::Failed(format!("spawning finalize pass: {e}"));
                        }
                    }
                } else {
                    sweep.status = SweepStatus::Done;
                    gc_inflight(&sweep.dir);
                }
            }
            SweepStatus::Running => {}
            SweepStatus::Finalizing => {
                let Some(child) = sweep.finalize_child.as_mut() else {
                    sweep.status = SweepStatus::Failed("finalize child lost".into());
                    continue;
                };
                match child.try_wait() {
                    Ok(Some(status)) if status.success() => {
                        sweep.finalize_child = None;
                        sweep.status = SweepStatus::Done;
                        gc_inflight(&sweep.dir);
                    }
                    Ok(Some(status)) => {
                        sweep.finalize_child = None;
                        sweep.status =
                            SweepStatus::Failed(format!("finalize pass exited with {status}"));
                    }
                    Ok(None) => {}
                    Err(e) => {
                        sweep.finalize_child = None;
                        sweep.status = SweepStatus::Failed(format!("waiting on finalize: {e}"));
                    }
                }
            }
            _ => {}
        }
    }
}

/// Removes orphaned `inflight-<key>.ckpt` files under a finished or
/// cancelled sweep's directory. Returns the number removed.
fn gc_inflight(dir: &std::path::Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    let mut removed = 0u64;
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else {
            continue;
        };
        if name.starts_with("inflight-")
            && name.ends_with(".ckpt")
            && std::fs::remove_file(entry.path()).is_ok()
        {
            removed += 1;
        }
    }
    if removed > 0 {
        obs::counter_add("sweepd.gc.removed", removed);
    }
    removed
}

/// The finalize pass: a single-process resume over the sweep journal,
/// producing the standard artifacts byte-identically to an
/// uninterrupted in-process run.
fn spawn_finalize(cfg: &DaemonConfig, sweep: &Sweep) -> std::io::Result<Child> {
    let cmd = &cfg.worker_cmd;
    Command::new(&cmd[0])
        .args(&cmd[1..])
        .arg(&sweep.manifest.experiment)
        .arg("--resume")
        .arg(&sweep.dir)
        .arg("--seed")
        .arg(sweep.manifest.seed.to_string())
        .arg("--ckpt-interval")
        .arg(cfg.ckpt_interval.to_string())
        .arg("--jobs")
        .arg("1")
        .current_dir(&sweep.dir)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .spawn()
}

/// Leases pending cells to idle workers, sweeps in priority order; any
/// registered worker can take any sweep's cell, since every run command
/// is self-contained. While cells are still pending, vacant local slots
/// past their backoff spawn a child.
fn assign_work(cfg: &DaemonConfig, st: &mut State, now: Instant) {
    let mut order: Vec<(i64, u64)> = st
        .sweeps
        .values()
        .filter(|s| s.has_pending())
        .map(|s| (s.manifest.priority, s.id))
        .collect();
    order.sort_by_key(|&(priority, id)| (std::cmp::Reverse(priority), id));

    for &(_, sweep_id) in &order {
        while st.sweeps.get(&sweep_id).is_some_and(Sweep::has_pending) {
            let Some(idx) = st
                .slots
                .iter()
                .position(|s| s.proc.as_ref().is_some_and(Proc::idle))
            else {
                break; // fleet saturated
            };
            lease_next(cfg, st, sweep_id, idx);
        }
    }

    let Some(addr) = st.worker_addr else {
        return; // the worker listener is not bound yet
    };
    if !st.sweeps.values().any(Sweep::has_pending) {
        return;
    }
    for idx in 0..st.slots.len() {
        let slot = &st.slots[idx];
        if slot.kind != SlotKind::Local || slot.proc.is_some() || now < slot.respawn_after {
            continue;
        }
        if let Err(e) = spawn_worker(cfg, idx, addr, st) {
            // Spawn failure counts as a death: back off and let a
            // later tick retry.
            let slot = &mut st.slots[idx];
            let attempt = slot.deaths;
            slot.deaths = slot.deaths.saturating_add(1);
            slot.respawn_after = now + Duration::from_millis(slot.backoff.delay(attempt));
            eprintln!("sweepd: spawning worker {}: {e}", worker_name(idx));
        }
    }
}

/// Leases the sweep's next pending cell to slot `idx` and sends the
/// fence-tagged run command down the worker's link. Run commands are
/// self-contained (dir/seed/ckpt-interval inline), so a delayed or
/// reordered frame can never leave a worker mis-bound.
fn lease_next(cfg: &DaemonConfig, st: &mut State, sweep_id: u64, idx: usize) {
    let fence = st.next_fence;
    let Some(worker) = st.slots[idx].proc.as_ref().map(|p| p.name.clone()) else {
        return;
    };
    let Some(sweep) = st.sweeps.get_mut(&sweep_id) else {
        return;
    };
    let exp = sweep.manifest.experiment.clone();
    let seed = sweep.manifest.seed;
    let dir = sweep.dir.display().to_string();
    let Some(cell) = sweep
        .cells
        .iter_mut()
        .find(|c| c.status == CellStatus::Pending)
    else {
        return;
    };
    let lease = LeaseRecord {
        key: cell.key.clone(),
        worker,
        attempt: cell.attempts,
        gen: Some(fence),
    };
    if let Err(e) = sweep.journal.append_lease(&lease) {
        sweep.status = SweepStatus::Failed(format!("journal lease append: {e}"));
        return;
    }
    cell.status = CellStatus::Leased;
    let key = cell.key.clone();
    st.next_fence += 1;
    let Some(proc) = st.slots[idx].proc.as_mut() else {
        return;
    };
    let json = |s: &str| serde_json::to_string(&s).unwrap_or_else(|_| "\"\"".into());
    let cmd = format!(
        "{{\"op\":\"run\",\"exp\":{},\"key\":{},\"gen\":{fence},\"dir\":{},\"seed\":{seed},\"ckpt_interval\":{}}}",
        json(&exp),
        json(&key),
        json(&dir),
        cfg.ckpt_interval,
    );
    // A failed send means the link is dying; the heartbeat deadline (or
    // the reap pass, for a spawned child) journals the orphaned lease
    // and requeues the cell.
    let _ = proc.send_line(&cmd);
    proc.lease = Some(LeaseInfo {
        sweep_id,
        key,
        started: Instant::now(),
        gen: fence,
    });
}

/// Spawns a local slot's worker, which dials back to `addr` and stays
/// *starting* until its hello pairs it with the slot.
fn spawn_worker(
    cfg: &DaemonConfig,
    idx: usize,
    addr: SocketAddr,
    st: &mut State,
) -> std::io::Result<()> {
    let cmd = &cfg.worker_cmd;
    let child = Command::new(&cmd[0])
        .args(&cmd[1..])
        .arg("--connect")
        .arg(addr.to_string())
        .arg("--heartbeat-ms")
        .arg(cfg.heartbeat_ms.to_string())
        .arg("--jobs")
        .arg("1")
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .spawn()?;
    let slot = &mut st.slots[idx];
    let gen = slot.next_gen;
    slot.next_gen += 1;
    slot.restarts = slot.restarts.saturating_add(u64::from(gen > 0));
    if gen > 0 {
        obs::counter_add("sweepd.worker.restarts", 1);
    }
    slot.proc = Some(Proc {
        child: Some(child),
        link: None,
        name: worker_name(idx),
        last_line: Arc::new(Mutex::new(Instant::now())),
        gen,
        lease: None,
        drain_signaled: false,
    });
    Ok(())
}

/// Reader thread for a worker link: reassembles frames with the shared
/// [`wire`] codec, passes each through the ingress fault injector, and
/// timestamps only *delivered* frames — so a scripted partition window
/// starves the liveness timestamp exactly like a real one. A protocol
/// violation (oversized frame, invalid UTF-8) drops the connection.
fn spawn_link_reader(
    idx: usize,
    gen: u64,
    stream: TcpStream,
    leftover: Vec<u8>,
    mut netem: Option<Netem>,
    last_line: Arc<Mutex<Instant>>,
    tx: Sender<(usize, u64, WorkerEvent)>,
) {
    std::thread::spawn(move || {
        let mut stream = stream;
        let mut buf = leftover;
        let mut chunk = [0u8; 4096];
        'conn: loop {
            loop {
                let step = match wire::parse_frame(&buf) {
                    Ok(wire::FrameStatus::Complete { line, consumed }) => {
                        Some((line.as_bytes().to_vec(), consumed))
                    }
                    Ok(wire::FrameStatus::Incomplete) => None,
                    Err(_) => break 'conn,
                };
                let Some((frame, consumed)) = step else { break };
                buf.drain(..consumed);
                let delivered = match netem.as_mut() {
                    Some(n) => n.apply(frame),
                    None => vec![frame],
                };
                for f in delivered {
                    if let Ok(mut t) = last_line.lock() {
                        *t = Instant::now();
                    }
                    let Ok(text) = String::from_utf8(f) else {
                        continue; // a corrupted frame still proved liveness
                    };
                    if let Some(event) = parse_event(&text) {
                        if tx.send((idx, gen, event)).is_err() {
                            return;
                        }
                    }
                }
            }
            match stream.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
        let _ = tx.send((idx, gen, WorkerEvent::Eof));
    });
}

/// Drains the fleet: one drain signal per worker (SIGTERM for spawned
/// children, the exit op for dialed-in workers — cooperative checkpoint
/// + exit 3), escalate to a hard kill past the grace window.
fn drain_fleet(cfg: &DaemonConfig, st: &mut State, now: Instant) {
    let started = *st.drain_started.get_or_insert(now);
    let escalate = now.duration_since(started) > cfg.drain_grace;
    for idx in 0..st.slots.len() {
        if st.slots[idx].proc.is_none() {
            continue;
        }
        if escalate {
            let reason = format!("worker {} killed after drain grace", proc_name(st, idx));
            kill_slot(cfg, st, idx, &reason, now);
        } else if let Some(proc) = st.slots[idx].proc.as_mut() {
            proc.signal_drain();
        }
    }
}

/// Sends SIGTERM (cooperative drain) to a process.
#[cfg(unix)]
fn send_sigterm(pid: u32) {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    const SIGTERM: i32 = 15;
    // Best-effort: a vanished pid is already what we wanted.
    unsafe {
        let _ = kill(pid as i32, SIGTERM);
    }
}

#[cfg(not(unix))]
fn send_sigterm(_pid: u32) {}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A connected loopback socket pair: (daemon side, worker side).
    fn socket_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let worker = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (daemon_side, _) = listener.accept().unwrap();
        (daemon_side, worker)
    }

    fn hello(pid: u32) -> wire::Hello {
        wire::Hello {
            proto: wire::PROTO_VERSION,
            fingerprint: wire::fingerprint(crate::manifest::SUPPORTED_EXPERIMENTS),
            token: String::new(),
            worker: "w-dialer".into(),
            pid,
        }
    }

    /// Pairing needs both the child's pid and a loopback peer: a hello
    /// that carries the pid from another host (sockets cannot fake a
    /// non-loopback peer on one machine, hence the unit test) is a
    /// remote worker.
    #[test]
    fn only_a_loopback_hello_with_the_child_pid_pairs_with_its_slot() {
        let mut cfg = DaemonConfig::new(vec!["sleep".into()], std::env::temp_dir());
        cfg.workers = 1;
        let daemon = Daemon::new(cfg);
        let child = Command::new("sleep").arg("30").spawn().unwrap();
        let pid = child.id();
        daemon.state.lock().unwrap().slots[0].proc = Some(Proc {
            child: Some(child),
            link: None,
            name: worker_name(0),
            last_line: Arc::new(Mutex::new(Instant::now())),
            gen: 0,
            lease: None,
            drain_signaled: false,
        });
        let far = IpAddr::V4(Ipv4Addr::new(192, 0, 2, 7));
        let near = IpAddr::V4(Ipv4Addr::LOCALHOST);

        let mut keep = Vec::new();
        for (peer, pid) in [(far, pid), (near, pid.wrapping_add(1))] {
            let (daemon_side, worker_side) = socket_pair();
            keep.push(worker_side);
            daemon
                .register(&hello(pid), peer, daemon_side, Vec::new())
                .unwrap();
        }
        {
            let st = daemon.state.lock().unwrap();
            assert_eq!(st.slots.len(), 3, "both dialers get slots of their own");
            assert!(st.slots[0].proc.as_ref().unwrap().link.is_none());
            assert!(st.slots[1..].iter().all(|s| s.kind == SlotKind::Remote));
        }

        let (daemon_side, worker_side) = socket_pair();
        keep.push(worker_side);
        daemon
            .register(&hello(pid), near, daemon_side, Vec::new())
            .unwrap();
        let mut st = daemon.state.lock().unwrap();
        assert_eq!(st.slots.len(), 3, "the child pairs with its own slot");
        let proc = st.slots[0].proc.as_mut().unwrap();
        assert!(proc.idle());
        assert_eq!(proc.name, "w-0");
        proc.terminate();
    }

    #[test]
    fn children_dial_the_loopback_form_of_the_listener() {
        let mut cfg = DaemonConfig::new(vec!["true".into()], std::env::temp_dir());
        cfg.workers = 1;
        let daemon = Daemon::new(cfg);
        let worker_addr = || daemon.state.lock().unwrap().worker_addr;
        daemon
            .set_worker_addr("0.0.0.0:7000".parse().unwrap())
            .unwrap();
        assert_eq!(worker_addr(), Some("127.0.0.1:7000".parse().unwrap()));
        daemon
            .set_worker_addr("[::]:7001".parse().unwrap())
            .unwrap();
        assert_eq!(worker_addr(), Some("[::1]:7001".parse().unwrap()));
        daemon
            .set_worker_addr("127.0.0.2:7002".parse().unwrap())
            .unwrap();
        assert_eq!(worker_addr(), Some("127.0.0.2:7002".parse().unwrap()));
        let e = daemon
            .set_worker_addr("192.0.2.7:7003".parse().unwrap())
            .unwrap_err();
        assert!(e.contains("loopback"), "{e}");
    }
}
