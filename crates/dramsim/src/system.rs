//! The memory system: per-channel FR-FCFS scheduling over bank state
//! machines with full DDR4 timing constraints.
//!
//! The scheduler is *command-accurate without a tick loop*: for each
//! scheduled burst it computes the earliest legal issue cycles of the
//! PRE/ACT/column commands given every constraint (tRCD, tRP, tRC,
//! tRRD_S/L, tFAW, tCCD_S/L, tWR, bus occupancy), then advances state.
//! This matches the fidelity a trace-driven Ramulator run provides for
//! this study — latency, bandwidth, row-buffer behavior, and energy —
//! at a fraction of the cost.
//!
//! Service is *streamed*: a channel is drained as requests arrive,
//! down to one burst short of the FR-FCFS window, rather than buffering
//! every burst until [`MemorySystem::try_service_all`]. While a channel
//! holds at least `sched_window` bursts, each pick looks only at the
//! window's head entries, and bursts enqueued later cannot change them;
//! so the early drains issue exactly the picks, timings and fault draws
//! a single deferred drain would. Per-channel accumulators fold into
//! the system totals only at the `try_service_all` barrier, in channel
//! order, which keeps the f64 energy sums in the same order too. A
//! fault model with a stalled-rank mask keeps the deferred drain:
//! stalled bursts rotate to the queue tail, so later enqueues would
//! reorder them.

use std::collections::VecDeque;

use faultsim::ecc::{self, EccOutcome};
use faultsim::{
    FaultConfig, FaultError, FaultInjector, FaultStats, MemError, MemErrorKind, Watchdog,
    WatchdogError,
};

use crate::address::{AddressMapper, Location};
use crate::audit;
use crate::config::DramConfig;
use crate::request::{Completion, Locality, Request, RequestId, RequestKind};
use crate::snapshot::{
    BankSnapshot, BurstState, ChannelSnapshot, InjectorSnapshot, RankSnapshot, SystemState,
};
use crate::stats::MemoryStats;

/// Simulated-time activity slices within this many cycles of each
/// other coalesce into one trace segment, keeping trace files small
/// while still showing rank-level overlap.
const ACTIVITY_GAP: u64 = 64;

#[derive(Debug, Clone, Default)]
struct BankState {
    open_row: Option<u64>,
    /// Earliest cycle the next ACT may issue (tRC from the last ACT,
    /// tRP from the last PRE).
    next_act: u64,
    /// Earliest cycle a column command may issue (tRCD from ACT).
    next_col: u64,
    /// Earliest cycle a PRE may issue (tRAS from ACT, tWR after write
    /// data).
    next_pre: u64,
}

#[derive(Debug, Clone)]
struct RankState {
    banks: Vec<BankState>,
    /// Issue cycles of the most recent activates (for tFAW).
    act_window: VecDeque<u64>,
    /// Earliest cycle the next ACT may issue per rank-level rule.
    next_act_any: u64,
    next_act_group: Vec<u64>,
    next_col_any: u64,
    next_col_group: Vec<u64>,
    /// When the rank-local data interface becomes free.
    local_bus_free: u64,
    /// Last refresh epoch observed (epoch = cycle / tREFI).
    refresh_epoch: u64,
    /// Telemetry: open coalesced busy window `(start, end)` in cycles.
    activity: Option<(u64, u64)>,
    /// Telemetry: data cycles on this rank since the last flush.
    busy_tally: u64,
}

impl RankState {
    fn new(config: &DramConfig) -> Self {
        RankState {
            banks: vec![BankState::default(); config.banks_per_rank()],
            act_window: VecDeque::new(),
            next_act_any: 0,
            next_act_group: vec![0; config.bank_groups],
            next_col_any: 0,
            next_col_group: vec![0; config.bank_groups],
            local_bus_free: 0,
            refresh_epoch: 0,
            activity: None,
            busy_tally: 0,
        }
    }
}

/// Telemetry tallies accumulated per channel between flushes, so the
/// per-burst hot path touches only local memory; [`MemorySystem::service_all`]
/// publishes them to the global registry once per call.
#[derive(Debug, Clone, Copy, Default)]
struct ChanTally {
    bursts: u64,
    bytes: u64,
    row_hits: u64,
    row_misses: u64,
}

#[derive(Debug, Clone)]
struct ChannelState {
    ranks: Vec<RankState>,
    bus_free: u64,
    queue: VecDeque<Burst>,
    tally: ChanTally,
    /// Protocol-checker mirror for this channel (zero-sized no-op
    /// without the `audit` feature); violations accumulate per channel
    /// and drain in channel order at the barrier.
    checker: audit::ChannelChecker,
    /// One-shot scheduler perturbation (audit test hook).
    #[cfg(feature = "audit")]
    perturb: audit::Perturbation,
}

#[derive(Debug, Clone, Copy)]
struct Burst {
    id: RequestId,
    addr: u64,
    /// Decoded once at enqueue (and snapshot restore): FR-FCFS probes
    /// every candidate's row on every pick, so re-mapping `addr` per
    /// probe made scheduling cost a decode per window entry.
    loc: Location,
    kind: RequestKind,
    locality: Locality,
    arrival: u64,
}

/// Result of servicing all queued requests. Per-request timing is
/// read back with [`MemorySystem::completion`].
#[derive(Debug, Clone)]
pub struct Report {
    /// Cumulative statistics after servicing.
    pub stats: MemoryStats,
    /// Cumulative fault-injection accounting (all zero when no fault
    /// model is attached).
    pub faults: FaultStats,
}

/// A DDR4 memory system.
///
/// ```
/// use dramsim::{DramConfig, MemorySystem, Request};
/// let mut sys = MemorySystem::new(DramConfig::default());
/// let id = sys.enqueue(Request::read(0, 64));
/// sys.service_all();
/// let t = sys.completion(id).expect("serviced");
/// // Idle-bank read: ACT@0, RD@tRCD, data at tRCD+tCL .. +tBL.
/// assert_eq!(t.finish, 16 + 16 + 4);
/// ```
#[derive(Debug)]
pub struct MemorySystem {
    config: DramConfig,
    mapper: AddressMapper,
    channels: Vec<ChannelState>,
    /// What each channel's service loop produced since the last
    /// barrier, in channel order.
    outcomes: Vec<ChannelOutcome>,
    stats: MemoryStats,
    /// (bursts remaining, first data_start, last finish) per request,
    /// updated as each burst retires.
    pending: Vec<(usize, u64, u64)>,
    next_id: usize,
    /// Telemetry: the stats already published as counter deltas.
    flushed: MemoryStats,
    /// Per-channel fault injectors, one stream lane per channel (lane =
    /// channel index, so a single-channel system reproduces the legacy
    /// single-injector schedule exactly). Empty when no fault model is
    /// attached, which keeps every code path bit-identical to a build
    /// without fault wiring.
    injectors: Vec<FaultInjector>,
    /// Cumulative fault-injection accounting.
    fault_stats: FaultStats,
    /// Telemetry: the fault stats already published as counter deltas.
    flushed_faults: FaultStats,
    /// System-level audit accumulators (violations drained from the
    /// per-channel checkers in channel order, plus the retirement
    /// ledger).
    #[cfg(feature = "audit")]
    audit: AuditAccum,
}

/// Audit-layer accumulators owned by the system (as opposed to the
/// per-channel checker mirrors). Not part of a snapshot: audit state is
/// per-process diagnostics; a restored system re-seeds its mirrors
/// conservatively and restarts the ledger from the queued remainder.
#[cfg(feature = "audit")]
#[derive(Debug, Default)]
struct AuditAccum {
    violations: Vec<audit::AuditError>,
    commands: u64,
    refreshes: u64,
    /// Violations already published as telemetry counter deltas.
    flushed_violations: u64,
    /// Bursts expected per request id (parallel to `pending`).
    expected: Vec<usize>,
    /// Bursts actually retired per request id.
    serviced: Vec<usize>,
    /// Refresh energy already accounted before this process observed
    /// the system (non-zero only after a snapshot restore).
    refresh_pj_base: f64,
}

impl MemorySystem {
    /// Creates an idle memory system.
    pub fn new(config: DramConfig) -> Self {
        let ranks_per_channel = config.dimms_per_channel * config.ranks_per_dimm;
        let channels = (0..config.channels)
            .map(|ch| ChannelState {
                ranks: (0..ranks_per_channel)
                    .map(|_| RankState::new(&config))
                    .collect(),
                bus_free: 0,
                queue: VecDeque::new(),
                tally: ChanTally::default(),
                checker: audit::ChannelChecker::new(
                    ch,
                    ranks_per_channel,
                    config.banks_per_rank(),
                    config.bank_groups,
                ),
                #[cfg(feature = "audit")]
                perturb: audit::Perturbation::None,
            })
            .collect();
        MemorySystem {
            mapper: AddressMapper::new(config),
            channels,
            outcomes: fresh_outcomes(&config),
            stats: MemoryStats::default(),
            pending: Vec::new(),
            next_id: 0,
            flushed: MemoryStats::default(),
            injectors: Vec::new(),
            fault_stats: FaultStats::default(),
            flushed_faults: FaultStats::default(),
            #[cfg(feature = "audit")]
            audit: AuditAccum::default(),
            config,
        }
    }

    /// Creates a memory system with a fault model attached.
    pub fn with_faults(config: DramConfig, faults: FaultConfig) -> Self {
        let mut sys = MemorySystem::new(config);
        sys.set_faults(faults);
        sys
    }

    /// Attaches (or replaces) the fault model. An inactive
    /// configuration (all rates zero, empty stall mask) detaches the
    /// injectors entirely, so zero-rate runs take the exact fault-free
    /// code path.
    ///
    /// One injector is created per channel, each drawing from its own
    /// stream lane, so a channel's fault schedule depends only on its
    /// own service order (see [`FaultInjector::with_lane`]).
    ///
    /// Attach the model before enqueueing: bursts already drained
    /// through a full scheduling window were serviced under the model
    /// attached at the time.
    pub fn set_faults(&mut self, faults: FaultConfig) {
        self.injectors = if faults.is_active() {
            (0..self.config.channels)
                .map(|ch| FaultInjector::with_lane(faults, ch as u64))
                .collect()
        } else {
            Vec::new()
        };
    }

    /// Cumulative fault-injection accounting (all zero when no fault
    /// model is attached), as of the last `try_service_all` barrier.
    pub fn fault_stats(&self) -> &FaultStats {
        &self.fault_stats
    }

    /// Rank-health census `(healthy, degraded, tripped)` over every
    /// global rank, derived from the persistent-fault schedule (the
    /// same classification serving-layer circuit breakers use).
    /// `None` when no fault model is attached, so fault-free runs
    /// report no census at all.
    pub fn rank_health_census(&self) -> Option<(u64, u64, u64)> {
        let inj = self.injectors.first()?;
        Some(inj.rank_health_tallies(self.config.total_ranks(), self.config.banks_per_rank()))
    }

    /// The configuration this system was built with.
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    /// Cumulative statistics (updated by [`MemorySystem::service_all`]).
    pub fn stats(&self) -> &MemoryStats {
        &self.stats
    }

    /// Timing of a request once its last burst has retired; `None`
    /// while any of its bursts is still queued (or for an unknown id).
    ///
    /// A request may retire in an early drain during a later
    /// [`MemorySystem::enqueue`], before the `service_all` barrier; its
    /// completion never changes after that.
    pub fn completion(&self, id: RequestId) -> Option<Completion> {
        match *self.pending.get(id.0)? {
            (0, data_start, finish) => Some(Completion {
                id,
                data_start,
                finish,
            }),
            _ => None,
        }
    }

    /// Queues a request; larger-than-burst requests are split into
    /// sequential bursts and complete when their last burst finishes.
    ///
    /// A channel whose queue reaches a full FR-FCFS window is drained
    /// down to `sched_window - 1` bursts right away (see the module
    /// docs for why that is exact), so a queue never holds more than a
    /// window unless a stalled-rank mask is attached.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is zero.
    pub fn enqueue(&mut self, req: Request) -> RequestId {
        assert!(req.bytes > 0, "request must transfer at least one byte");
        let id = RequestId(self.next_id);
        self.next_id += 1;
        let bursts = req.bytes.div_ceil(self.config.burst_bytes);
        self.pending.push((bursts, u64::MAX, 0));
        #[cfg(feature = "audit")]
        {
            self.audit.expected.push(bursts);
            self.audit.serviced.push(0);
        }
        let window = self.config.sched_window.max(1);
        let streamed = self.streams();
        for i in 0..bursts {
            let addr = req.addr + (i * self.config.burst_bytes) as u64;
            let loc = self.mapper.map(addr);
            let queue = &mut self.channels[loc.channel].queue;
            queue.push_back(Burst {
                id,
                addr,
                loc,
                kind: req.kind,
                locality: req.locality,
                arrival: req.arrival_cycle,
            });
            if streamed && queue.len() >= window {
                self.worker(loc.channel).drain(window - 1);
            }
        }
        id
    }

    /// Whether channels drain as requests arrive. A stalled-rank mask
    /// rotates stalled bursts to the queue tail, where later enqueues
    /// would overtake them, so it keeps the deferred drain.
    fn streams(&self) -> bool {
        self.injectors
            .first()
            .is_none_or(|inj| inj.config().stalled_rank_mask == 0)
    }

    /// The service loop of channel `ch`, borrowing exactly that
    /// channel's state, injector lane and accumulators plus the shared
    /// completion ledger.
    fn worker(&mut self, ch: usize) -> ChannelWorker<'_> {
        ChannelWorker {
            config: &self.config,
            ch,
            state: &mut self.channels[ch],
            injector: self.injectors.get_mut(ch),
            out: &mut self.outcomes[ch],
            pending: &mut self.pending,
            #[cfg(feature = "audit")]
            serviced: &mut self.audit.serviced,
        }
    }

    /// Services every queued request with per-channel FR-FCFS
    /// scheduling and folds what the channels produced since the last
    /// call into the cumulative statistics.
    ///
    /// Bank and bus state persists across calls, so a later
    /// `service_all` continues from the current timeline.
    ///
    /// # Panics
    ///
    /// Panics (with the structured [`FaultError`] in the message) if an
    /// attached fault model raises an unrecoverable fault; use
    /// [`MemorySystem::try_service_all`] when faults are enabled.
    pub fn service_all(&mut self) -> Report {
        match self.try_service_all() {
            Ok(report) => report,
            Err(e) => panic!(
                "service_all aborted on an injected fault ({e}); \
                 use try_service_all for fault-aware runs"
            ),
        }
    }

    /// Fallible variant of [`MemorySystem::service_all`]: an
    /// unrecoverable injected fault (uncorrectable ECC beyond the retry
    /// budget, watchdog trip on a deadlocked channel) aborts with a
    /// structured [`FaultError`] instead of completing. Without an
    /// active fault model this never fails.
    ///
    /// This is the barrier of the streamed service: every channel
    /// drains its remaining bursts, then the per-channel accumulators
    /// fold into the system totals in fixed channel order.
    ///
    /// A fault aborts only its own channel, which stops draining at
    /// the fault — also when it was raised by an early drain inside
    /// [`MemorySystem::enqueue`] — and keeps its unserviced bursts
    /// queued; bursts already serviced keep their timeline effects.
    /// Every other channel still drains, and the lowest-indexed
    /// channel's error is reported here. Telemetry is flushed either
    /// way so the trip is visible in the registry.
    pub fn try_service_all(&mut self) -> Result<Report, FaultError> {
        for ch in 0..self.channels.len() {
            self.worker(ch).drain(0);
        }
        let mut outcomes = std::mem::replace(&mut self.outcomes, fresh_outcomes(&self.config));
        let mut aborted = None;
        for out in &mut outcomes {
            self.stats.merge(&out.stats);
            self.fault_stats.merge(&out.fault_stats);
            if aborted.is_none() {
                aborted = out.error.take();
            }
        }
        #[cfg(feature = "audit")]
        for ch in &mut self.channels {
            let (mut violations, commands, refreshes) = ch.checker.take_delta();
            self.audit.violations.append(&mut violations);
            self.audit.commands += commands;
            self.audit.refreshes += refreshes;
        }
        // Background energy for the newly elapsed span.
        let elapsed_s = self.stats.elapsed_cycles as f64 * self.config.cycle_seconds();
        let ranks = self.config.total_ranks() as f64;
        self.stats.energy.background_pj =
            self.config.energy.background_mw_per_rank * 1e-3 * ranks * elapsed_s * 1e12;
        self.flush_telemetry(&outcomes);
        if let Some(e) = aborted {
            return Err(e);
        }

        // The health census is a point-in-time classification, not a
        // counter: set it on the emitted report (idempotent across
        // service calls) rather than folding it into the accumulator.
        let mut faults = self.fault_stats;
        if let Some((h, d, t)) = self.rank_health_census() {
            faults.ranks_healthy = h;
            faults.ranks_degraded = d;
            faults.ranks_tripped = t;
        }
        Ok(Report {
            stats: self.stats,
            faults,
        })
    }

    /// Publishes accumulated telemetry tallies to the global registry.
    ///
    /// Called once per [`MemorySystem::service_all`] with the channel
    /// outcomes of that barrier, so the per-burst hot path never takes
    /// the registry lock; global counters receive the delta since the
    /// previous flush, histograms merge.
    fn flush_telemetry(&mut self, outcomes: &[ChannelOutcome]) {
        if !obs::is_enabled() {
            return;
        }
        #[cfg(feature = "audit")]
        {
            let total = self.audit.violations.len() as u64;
            obs::counter_add(
                "audit.protocol_violations",
                total - self.audit.flushed_violations,
            );
            self.audit.flushed_violations = total;
        }
        let (d, f) = (&self.stats, &self.flushed);
        obs::counter_add("dram.reads", d.reads - f.reads);
        obs::counter_add("dram.writes", d.writes - f.writes);
        obs::counter_add("dram.row_hits", d.row_hits - f.row_hits);
        obs::counter_add("dram.row_misses", d.row_misses - f.row_misses);
        obs::counter_add("dram.activates", d.activates - f.activates);
        obs::counter_add("dram.precharges", d.precharges - f.precharges);
        obs::counter_add(
            "dram.broadcast_transfers",
            d.broadcast_transfers - f.broadcast_transfers,
        );
        obs::counter_add("dram.channel_bytes", d.channel_bytes - f.channel_bytes);
        obs::counter_add("dram.local_bytes", d.local_bytes - f.local_bytes);
        obs::counter_add(
            "dram.channel_bus_busy_cycles",
            d.channel_bus_busy_cycles - f.channel_bus_busy_cycles,
        );
        obs::counter_add(
            "dram.local_bus_busy_cycles",
            d.local_bus_busy_cycles - f.local_bus_busy_cycles,
        );
        obs::gauge_set("dram.row_hit_rate", self.stats.row_hit_rate());
        obs::gauge_set("dram.elapsed_cycles", self.stats.elapsed_cycles as f64);
        obs::gauge_set("dram.energy_total_pj", self.stats.energy.total_pj());
        obs::gauge_set("dram.energy_bus_pj", self.stats.energy.bus_pj());
        let mut latency = obs::Histogram::new();
        let mut queue_depth = obs::Histogram::new();
        let mut bank_acts = vec![0u64; self.config.banks_per_rank()];
        for out in outcomes {
            latency.merge(&out.latency_hist);
            queue_depth.merge(&out.queue_depth_hist);
            for (total, n) in bank_acts.iter_mut().zip(&out.bank_act_tally) {
                *total += n;
            }
        }
        obs::hist_merge("dram.burst_latency_cycles", &latency);
        obs::hist_merge("dram.sched_queue_depth", &queue_depth);
        for (b, n) in bank_acts.into_iter().enumerate() {
            obs::counter_add(&format!("dram.bank{b}.activates"), n);
        }
        let rpd = self.config.ranks_per_dimm;
        // Closed activity windows, in channel order.
        for (ch, out) in outcomes.iter().enumerate() {
            for &(r, start, dur) in &out.slices {
                obs::sim_slice(
                    &format!("dram ch{ch} dimm{} rank{}", r / rpd, r % rpd),
                    "data",
                    start,
                    dur,
                );
            }
        }
        for (ch, channel) in self.channels.iter_mut().enumerate() {
            let t = std::mem::take(&mut channel.tally);
            obs::counter_add(&format!("dram.ch{ch}.bursts"), t.bursts);
            obs::counter_add(&format!("dram.ch{ch}.bytes"), t.bytes);
            obs::counter_add(&format!("dram.ch{ch}.row_hits"), t.row_hits);
            obs::counter_add(&format!("dram.ch{ch}.row_misses"), t.row_misses);
            for (r, rank) in channel.ranks.iter_mut().enumerate() {
                if rank.busy_tally > 0 {
                    obs::counter_add(
                        &format!("dram.ch{ch}.dimm{}.rank{}.busy_cycles", r / rpd, r % rpd),
                        rank.busy_tally,
                    );
                    rank.busy_tally = 0;
                }
                if let Some((s, e)) = rank.activity.take() {
                    obs::sim_slice(
                        &format!("dram ch{ch} dimm{} rank{}", r / rpd, r % rpd),
                        "data",
                        s,
                        e - s,
                    );
                }
            }
        }
        self.flushed = self.stats;
        self.fault_stats.delta(&self.flushed_faults).publish();
        self.flushed_faults = self.fault_stats;
    }

    /// Builds a system directly from a state image: `new` under the
    /// image's configuration, then [`checkpoint::Restore::restore`].
    pub fn from_state(state: &SystemState) -> Result<Self, checkpoint::RestoreError> {
        let mut sys = MemorySystem::new(state.config);
        checkpoint::Restore::restore(&mut sys, state)?;
        Ok(sys)
    }

    /// Installs a one-shot scheduler perturbation on channel 0 — the
    /// audit layer's self-test hook (see [`audit::Perturbation`]): the
    /// next eligible command on that channel actually issues with the
    /// perturbed timing, so a working checker must flag it.
    #[cfg(feature = "audit")]
    pub fn audit_perturb(&mut self, perturbation: audit::Perturbation) {
        if let Some(ch) = self.channels.first_mut() {
            ch.perturb = perturbation;
        }
    }

    /// The audit layer's verdict on everything observed so far:
    /// protocol violations drained from the per-channel checkers plus
    /// the conservation invariants (every enqueued burst retires
    /// exactly once, energy components match their per-command closed
    /// forms). With `expect_drained`, bursts still queued — e.g. behind
    /// a tripped watchdog — are violations too.
    ///
    /// Without the `audit` feature this returns a default report with
    /// `enabled == false`; callers should treat that as "not audited",
    /// not as "clean" (see [`audit::AuditReport::is_clean`]).
    ///
    /// Complete at a `service_all` barrier, where the per-channel
    /// checkers drain. Violations are per-process: a system restored
    /// from a snapshot re-seeds its mirrors from the image and audits
    /// from that point on, carrying over only the command and refresh
    /// counts observed since the last barrier.
    pub fn audit_report(&self, expect_drained: bool) -> audit::AuditReport {
        #[cfg(feature = "audit")]
        {
            let mut report = audit::AuditReport {
                enabled: true,
                commands_checked: self.audit.commands,
                refresh_events: self.audit.refreshes,
                violations: self.audit.violations.clone(),
            };
            self.check_retirement(expect_drained, &mut report);
            self.check_energy(&mut report);
            report
        }
        #[cfg(not(feature = "audit"))]
        {
            let _ = expect_drained;
            audit::AuditReport::default()
        }
    }

    /// Conservation: every request's bursts are either retired exactly
    /// once or still queued, and the completion ledger agrees with the
    /// queues.
    #[cfg(feature = "audit")]
    fn check_retirement(&self, expect_drained: bool, report: &mut audit::AuditReport) {
        let mut queued = vec![0usize; self.audit.expected.len()];
        for ch in &self.channels {
            for b in &ch.queue {
                if let Some(q) = queued.get_mut(b.id.0) {
                    *q += 1;
                }
            }
        }
        let ledger = self.audit.expected.iter().zip(&self.audit.serviced);
        for (id, ((&expected, &serviced), &in_queue)) in ledger.zip(&queued).enumerate() {
            let violation = if serviced > expected {
                Some(format!(
                    "request {id} retired {serviced} bursts but only {expected} were enqueued"
                ))
            } else if serviced + in_queue != expected {
                Some(format!(
                    "request {id}: {expected} bursts enqueued, {serviced} retired, \
                     {in_queue} queued — {} lost",
                    expected - serviced - in_queue
                ))
            } else if self.pending[id].0 != in_queue {
                Some(format!(
                    "request {id}: completion ledger says {} bursts outstanding \
                     but {in_queue} are queued",
                    self.pending[id].0
                ))
            } else if expect_drained && in_queue != 0 {
                Some(format!(
                    "request {id} still has {in_queue} of {expected} bursts queued \
                     at end of run"
                ))
            } else {
                None
            };
            if let Some(message) = violation {
                report.violations.push(audit::AuditError {
                    constraint: audit::Constraint::Retirement,
                    message,
                    trace: Vec::new(),
                });
            }
        }
    }

    /// Conservation: each energy component equals its per-command
    /// closed form over the cumulative counters (1 ppm relative
    /// tolerance for float re-association).
    #[cfg(feature = "audit")]
    fn check_energy(&self, report: &mut audit::AuditReport) {
        let s = &self.stats;
        let e = &self.config.energy;
        let bits = (self.config.burst_bytes * 8) as f64;
        let bank_bursts = (s.row_hits + s.row_misses) as f64;
        let channel_transfers = (s.channel_bytes / self.config.burst_bytes as u64) as f64;
        let elapsed_s = s.elapsed_cycles as f64 * self.config.cycle_seconds();
        let checks = [
            (
                "activate_pj",
                s.energy.activate_pj,
                s.activates as f64 * e.act_pre_pj,
            ),
            (
                "array_pj",
                s.energy.array_pj,
                bank_bursts * bits * e.array_pj_per_bit,
            ),
            (
                "io_pj",
                s.energy.io_pj,
                (channel_transfers - s.broadcast_transfers as f64) * bits * e.io_pj_per_bit,
            ),
            (
                "broadcast_io_pj",
                s.energy.broadcast_io_pj,
                s.broadcast_transfers as f64 * bits * e.io_pj_per_bit * e.broadcast_io_factor,
            ),
            (
                "local_io_pj",
                s.energy.local_io_pj,
                s.local_bytes as f64 * 8.0 * e.local_pj_per_bit,
            ),
            (
                "refresh_pj",
                s.energy.refresh_pj - self.audit.refresh_pj_base,
                self.audit.refreshes as f64 * e.refresh_pj,
            ),
            (
                "background_pj",
                s.energy.background_pj,
                e.background_mw_per_rank
                    * 1e-3
                    * self.config.total_ranks() as f64
                    * elapsed_s
                    * 1e12,
            ),
        ];
        for (name, actual, closed_form) in checks {
            if (actual - closed_form).abs() > 1e-6 * closed_form.abs().max(1.0) {
                report.violations.push(audit::AuditError {
                    constraint: audit::Constraint::Energy,
                    message: format!(
                        "{name} = {actual} diverges from its closed form {closed_form}"
                    ),
                    trace: Vec::new(),
                });
            }
        }
    }
}

/// Everything one channel's service loop produced since the last
/// `try_service_all` barrier. Early drains inside `enqueue` keep adding
/// to it; the barrier folds it into the system totals in fixed channel
/// order, so every accumulator — the f64 energy tallies included — sees
/// the same fold sequence as one deferred drain.
#[derive(Debug)]
struct ChannelOutcome {
    /// Stats delta (`elapsed_cycles` is the local max finish;
    /// [`MemoryStats::merge`] max-merges it).
    stats: MemoryStats,
    /// Fault-accounting delta.
    fault_stats: FaultStats,
    latency_hist: obs::Histogram,
    queue_depth_hist: obs::Histogram,
    bank_act_tally: Vec<u64>,
    /// Closed activity windows: `(linear rank, start cycle, duration)`.
    slices: Vec<(usize, u64, u64)>,
    /// Abort raised by the fault pipeline, if any. The channel stops
    /// draining until the barrier reports it; bursts serviced before
    /// it keep their timeline effects.
    error: Option<FaultError>,
}

impl ChannelOutcome {
    fn new(banks: usize) -> Self {
        ChannelOutcome {
            stats: MemoryStats::default(),
            fault_stats: FaultStats::default(),
            latency_hist: obs::Histogram::new(),
            queue_depth_hist: obs::Histogram::new(),
            bank_act_tally: vec![0; banks],
            slices: Vec::new(),
            error: None,
        }
    }
}

fn fresh_outcomes(config: &DramConfig) -> Vec<ChannelOutcome> {
    (0..config.channels)
        .map(|_| ChannelOutcome::new(config.banks_per_rank()))
        .collect()
}

/// One channel's FR-FCFS service loop: mutable access to exactly its
/// channel's state, that channel's injector lane and accumulators, and
/// the completion ledger. Telemetry is buffered in the outcome and
/// published at the barrier, never from the per-burst hot path.
struct ChannelWorker<'a> {
    config: &'a DramConfig,
    ch: usize,
    state: &'a mut ChannelState,
    injector: Option<&'a mut FaultInjector>,
    out: &'a mut ChannelOutcome,
    pending: &'a mut [(usize, u64, u64)],
    #[cfg(feature = "audit")]
    serviced: &'a mut [usize],
}

impl ChannelWorker<'_> {
    /// Services bursts until at most `keep` remain queued. A channel
    /// holding a deferred fault does not drain.
    fn drain(mut self, keep: usize) {
        if self.out.error.is_none() {
            if let Err(e) = self.service(keep) {
                self.out.error = Some(e);
            }
        }
    }

    fn injector_ref(&self) -> &FaultInjector {
        self.injector
            .as_deref()
            .expect("fault path requires an attached injector")
    }

    fn injector_mut(&mut self) -> &mut FaultInjector {
        self.injector
            .as_deref_mut()
            .expect("fault path requires an attached injector")
    }

    /// Global rank index of a location, unique across channels (used to
    /// key persistent faults and the stall mask).
    fn global_rank(&self, loc: &Location) -> usize {
        let ranks_per_channel = self.config.dimms_per_channel * self.config.ranks_per_dimm;
        self.ch * ranks_per_channel + loc.dimm * self.config.ranks_per_dimm + loc.rank
    }

    fn record_serviced(&mut self, id: RequestId, data_start: u64, finish: u64) {
        let entry = &mut self.pending[id.0];
        entry.0 -= 1;
        entry.1 = entry.1.min(data_start);
        entry.2 = entry.2.max(finish);
        #[cfg(feature = "audit")]
        {
            self.serviced[id.0] += 1;
        }
        self.out.stats.elapsed_cycles = self.out.stats.elapsed_cycles.max(finish);
    }

    /// The FR-FCFS service loop. With an injector attached, every burst
    /// runs through the transient/persistent fault pipeline after issue,
    /// and a watchdog bounds no-progress rounds once only stalled-rank
    /// bursts remain; without one, both are no-ops.
    fn service(&mut self, keep: usize) -> Result<(), FaultError> {
        let cfg = self.injector.as_deref().map(|inj| *inj.config());
        let mut watchdog = Watchdog::new(cfg.map_or(0, |c| c.watchdog_limit));
        while self.state.queue.len() > keep {
            self.out
                .queue_depth_hist
                .record(self.state.queue.len() as u64);
            let pick = self.pick_fr_fcfs();
            let burst = &self.state.queue[pick];
            let loc = burst.loc;
            let bus_only = matches!(burst.locality, Locality::Broadcast | Locality::DirectSend);
            let global_rank = self.global_rank(&loc);

            if !bus_only
                && self
                    .injector
                    .as_deref()
                    .is_some_and(|inj| inj.rank_is_stalled(global_rank))
            {
                // A permanently stalled rank never retires its bursts:
                // rotate to the back of the queue and count a
                // no-progress round. Without the watchdog this loop
                // would spin forever once only stalled-rank bursts
                // remain.
                let b = self.state.queue.remove(pick).expect("pick in range");
                self.state.queue.push_back(b);
                if watchdog.stall() {
                    self.out.fault_stats.watchdog_trips += 1;
                    let mut stuck: Vec<u64> =
                        self.state.queue.iter().map(|b| b.id.0 as u64).collect();
                    stuck.sort_unstable();
                    stuck.dedup();
                    return Err(WatchdogError {
                        site: format!("dramsim.channel[{}]", self.ch),
                        waited: watchdog.rounds_since_progress(),
                        stuck_requests: stuck,
                    }
                    .into());
                }
                continue;
            }

            let b = self.state.queue.remove(pick).expect("pick in range");
            let (data_start, finish) = self.issue_burst(&b, loc);
            let extra = match &cfg {
                Some(cfg) => self.apply_burst_faults(&b, &loc, global_rank, cfg)?,
                None => 0,
            };
            self.record_serviced(b.id, data_start, finish + extra);
            watchdog.progress();
        }
        Ok(())
    }

    /// Runs one serviced burst through the transient/persistent fault
    /// pipeline and returns the extra completion latency it incurred.
    ///
    /// * Read bursts draw transient bit flips; SEC-DED corrects
    ///   single-bit errors in-line, detects double-bit errors and
    ///   retries the access with exponential backoff (each retry
    ///   re-drawing the fault schedule), and raises a
    ///   [`MemErrorKind::UncorrectableEcc`] error once the retry budget
    ///   is exhausted. Triple-bit flips escape silently.
    /// * Accesses landing on a stuck-at row or failed bank are remapped
    ///   to spare resources, costing an indirection penalty per access.
    /// * Transient unit stalls add their configured cycle cost.
    fn apply_burst_faults(
        &mut self,
        burst: &Burst,
        loc: &Location,
        global_rank: usize,
        cfg: &FaultConfig,
    ) -> Result<u64, FaultError> {
        if matches!(burst.locality, Locality::Broadcast | Locality::DirectSend) {
            // Bus-only transfers touch no DRAM array; their fault modes
            // (drops/corruption) live in the broadcast layer upstream.
            return Ok(0);
        }
        let t = self.config.timing;
        let mut extra = 0u64;

        // --- Transient bit flips under SEC-DED (reads only). ---
        if burst.kind == RequestKind::Read {
            let flips = self.injector_mut().next_read_flips();
            if flips > 0 {
                self.out.fault_stats.injected_bit_flips += u64::from(flips);
                let mut outcome = ecc::outcome_for_flips(flips);
                let mut attempt = 0u32;
                loop {
                    match outcome {
                        EccOutcome::Clean => break,
                        EccOutcome::Corrected => {
                            self.out.fault_stats.ecc_corrected += 1;
                            break;
                        }
                        EccOutcome::SilentMiss => {
                            self.out.fault_stats.ecc_silent_miss += 1;
                            break;
                        }
                        EccOutcome::DetectedUncorrectable => {
                            self.out.fault_stats.ecc_detected += 1;
                            if attempt >= cfg.retry_limit {
                                self.out.fault_stats.mem_errors += 1;
                                return Err(MemError {
                                    request: burst.id.0 as u64,
                                    rank: global_rank,
                                    bank: loc.bank_in_rank(self.config),
                                    row: loc.row,
                                    kind: MemErrorKind::UncorrectableEcc,
                                }
                                .into());
                            }
                            // Bounded retry with exponential backoff,
                            // then a full re-read of the column.
                            self.out.fault_stats.read_retries += 1;
                            extra += (cfg.retry_backoff_cycles << attempt) + t.t_cl + t.t_bl;
                            attempt += 1;
                            let reflips = self.injector_mut().next_read_flips();
                            if reflips > 0 {
                                self.out.fault_stats.injected_bit_flips += u64::from(reflips);
                            }
                            outcome = ecc::outcome_for_flips(reflips);
                        }
                    }
                }
            }
        }

        // --- Persistent stuck-at faults: remap to spares. ---
        if self
            .injector_ref()
            .bank_is_failed(global_rank, loc.bank_in_rank(self.config))
        {
            self.out.fault_stats.bank_remaps += 1;
            extra += t.t_rc;
        } else if self.injector_ref().row_is_stuck(
            global_rank,
            loc.bank_in_rank(self.config),
            loc.row,
        ) {
            self.out.fault_stats.row_remaps += 1;
            extra += t.t_rp + t.t_rcd;
        }

        // --- Transient rank-AU stalls. ---
        let stall = self.injector_mut().next_stall_cycles(global_rank as u64);
        if stall > 0 {
            self.out.fault_stats.stall_events += 1;
            self.out.fault_stats.stall_cycles += stall;
            extra += stall;
        }
        Ok(extra)
    }

    /// FR-FCFS: the oldest row-hit burst within the scheduling window,
    /// else the oldest burst.
    fn pick_fr_fcfs(&self) -> usize {
        let window = self.config.sched_window.min(self.state.queue.len());
        for (i, b) in self.state.queue.iter().take(window).enumerate() {
            if matches!(b.locality, Locality::Broadcast | Locality::DirectSend) {
                continue; // bus-only transfers have no row to hit
            }
            let loc = b.loc;
            let rank = &self.state.ranks[loc.dimm * self.config.ranks_per_dimm + loc.rank];
            let bank = &rank.banks[loc.bank_in_rank(self.config)];
            if bank.open_row == Some(loc.row) {
                return i;
            }
        }
        0
    }

    fn issue_burst(&mut self, burst: &Burst, loc: Location) -> (u64, u64) {
        let t = self.config.timing;
        let e = self.config.energy;
        let bits = (self.config.burst_bytes * 8) as f64;

        if matches!(burst.locality, Locality::Broadcast | Locality::DirectSend) {
            // Pure bus transfer latched by DIMM buffer chips; no DRAM
            // bank activity.
            let data_start = self.state.bus_free.max(burst.arrival);
            let finish = data_start + t.t_bl;
            self.state.bus_free = finish;
            self.out.stats.writes += 1;
            self.out.stats.channel_bus_busy_cycles += t.t_bl;
            self.out.stats.channel_bytes += self.config.burst_bytes as u64;
            if burst.locality == Locality::Broadcast {
                self.out.stats.broadcast_transfers += 1;
                self.out.stats.energy.broadcast_io_pj +=
                    bits * e.io_pj_per_bit * e.broadcast_io_factor;
            } else {
                self.out.stats.energy.io_pj += bits * e.io_pj_per_bit;
            }
            self.state.tally.bursts += 1;
            self.state.tally.bytes += self.config.burst_bytes as u64;
            self.out
                .latency_hist
                .record(finish.saturating_sub(burst.arrival));
            self.state.checker.observe_bus_only(data_start, finish);
            return (data_start, finish);
        }

        let ranks_per_dimm = self.config.ranks_per_dimm;
        let bank_idx = loc.bank_in_rank(self.config);
        let group = loc.bank_group;
        let rank_idx = loc.dimm * ranks_per_dimm + loc.rank;
        let rank = &mut self.state.ranks[rank_idx];

        // --- Periodic refresh (tREFI/tRFC): when the burst's epoch
        // advances past the rank's last observed refresh, the rank
        // stalls for tRFC and every open row is closed.
        let approx_t = burst.arrival.max(rank.next_act_any).max(rank.next_col_any);
        // `checked_div` doubles as the "refresh disabled" gate: tREFI of
        // zero yields `None` and skips the whole block.
        if let Some(epoch) = approx_t.checked_div(t.t_refi) {
            if epoch > rank.refresh_epoch {
                let refreshes = epoch - rank.refresh_epoch;
                rank.refresh_epoch = epoch;
                let resume = epoch * t.t_refi + t.t_rfc;
                rank.next_act_any = rank.next_act_any.max(resume);
                rank.next_col_any = rank.next_col_any.max(resume);
                for bank in &mut rank.banks {
                    bank.open_row = None;
                    bank.next_act = bank.next_act.max(resume);
                }
                self.out.stats.energy.refresh_pj += refreshes as f64 * e.refresh_pj;
                self.state
                    .checker
                    .observe_refresh(rank_idx, epoch, refreshes, resume, &t);
            }
        }

        // --- Row management. ---
        let hit = rank.banks[bank_idx].open_row == Some(loc.row);
        if !hit {
            let bank = &mut rank.banks[bank_idx];
            let mut act_earliest = bank.next_act.max(burst.arrival);
            #[cfg(feature = "audit")]
            let skip_pre =
                audit::take_perturb(&mut self.state.perturb, audit::Perturbation::SkipPrecharge);
            #[cfg(not(feature = "audit"))]
            let skip_pre = false;
            if bank.open_row.is_some() && !skip_pre {
                // Conflict: precharge first.
                let pre = bank.next_pre.max(burst.arrival);
                #[cfg(feature = "audit")]
                let pre = if audit::take_perturb(
                    &mut self.state.perturb,
                    audit::Perturbation::EarlyPrecharge,
                ) {
                    pre.saturating_sub(1)
                } else {
                    pre
                };
                act_earliest = act_earliest.max(pre + t.t_rp);
                self.out.stats.precharges += 1;
                self.state.checker.observe_pre(rank_idx, bank_idx, pre, &t);
            }
            // Rank-level activation constraints.
            act_earliest = act_earliest
                .max(rank.next_act_group[group])
                .max(rank.next_act_any);
            if rank.act_window.len() >= 4 {
                let fourth_back = rank.act_window[rank.act_window.len() - 4];
                act_earliest = act_earliest.max(fourth_back + t.t_faw);
            }
            let act = act_earliest;
            #[cfg(feature = "audit")]
            let act =
                if audit::take_perturb(&mut self.state.perturb, audit::Perturbation::EarlyActivate)
                {
                    act.saturating_sub(1)
                } else {
                    act
                };
            let bank = &mut rank.banks[bank_idx];
            bank.open_row = Some(loc.row);
            bank.next_act = act + t.t_rc;
            bank.next_col = act + t.t_rcd;
            bank.next_pre = act + (t.t_rc - t.t_rp); // tRAS
            rank.next_act_any = act + t.t_rrd_s;
            rank.next_act_group[group] = act + t.t_rrd_l;
            rank.act_window.push_back(act);
            while rank.act_window.len() > 4 {
                rank.act_window.pop_front();
            }
            self.out.stats.activates += 1;
            self.out.stats.row_misses += 1;
            self.out.stats.energy.activate_pj += e.act_pre_pj;
            self.state
                .checker
                .observe_act(rank_idx, bank_idx, group, loc.row, act, &t);
        } else {
            self.out.stats.row_hits += 1;
        }

        // --- Column command. ---
        let bus_free = match burst.locality {
            Locality::Channel => self.state.bus_free,
            Locality::RankLocal => rank.local_bus_free,
            Locality::Broadcast | Locality::DirectSend => {
                unreachable!("handled above")
            }
        };
        let col = rank.banks[bank_idx]
            .next_col
            .max(burst.arrival)
            .max(rank.next_col_any)
            .max(rank.next_col_group[group])
            .max(bus_free.saturating_sub(t.t_cl));
        #[cfg(feature = "audit")]
        let col = if audit::take_perturb(&mut self.state.perturb, audit::Perturbation::EarlyColumn)
        {
            col.saturating_sub(1)
        } else {
            col
        };
        let data_start = (col + t.t_cl).max(bus_free);
        let finish = data_start + t.t_bl;
        rank.next_col_any = col + t.t_ccd_s;
        rank.next_col_group[group] = col + t.t_ccd_l;
        if burst.kind == RequestKind::Write {
            let bank = &mut rank.banks[bank_idx];
            bank.next_pre = bank.next_pre.max(finish + t.t_wr);
            self.out.stats.writes += 1;
        } else {
            self.out.stats.reads += 1;
        }
        self.state.checker.observe_col(
            rank_idx,
            bank_idx,
            group,
            loc.row,
            burst.kind,
            col,
            data_start,
            finish,
            burst.locality,
            &t,
        );

        match burst.locality {
            Locality::Channel => {
                self.state.bus_free = finish;
                self.out.stats.channel_bus_busy_cycles += t.t_bl;
                self.out.stats.channel_bytes += self.config.burst_bytes as u64;
                self.out.stats.energy.io_pj += bits * e.io_pj_per_bit;
            }
            Locality::RankLocal => {
                let rank = &mut self.state.ranks[rank_idx];
                rank.local_bus_free = finish;
                self.out.stats.local_bus_busy_cycles += t.t_bl;
                self.out.stats.local_bytes += self.config.burst_bytes as u64;
                self.out.stats.energy.local_io_pj += bits * e.local_pj_per_bit;
            }
            Locality::Broadcast | Locality::DirectSend => unreachable!(),
        }
        self.out.stats.energy.array_pj += bits * e.array_pj_per_bit;

        self.out
            .latency_hist
            .record(finish.saturating_sub(burst.arrival));
        if !hit {
            self.out.bank_act_tally[bank_idx] += 1;
        }
        self.state.tally.bursts += 1;
        self.state.tally.bytes += self.config.burst_bytes as u64;
        if hit {
            self.state.tally.row_hits += 1;
        } else {
            self.state.tally.row_misses += 1;
        }
        let rank = &mut self.state.ranks[rank_idx];
        rank.busy_tally += t.t_bl;
        if obs::is_enabled() {
            // Coalesce per-rank busy windows into gap-merged segments
            // so the simulated-time trace stays compact; closed windows
            // are buffered and emitted at the flush barrier.
            match rank.activity {
                Some((s, e)) if data_start <= e + ACTIVITY_GAP => {
                    rank.activity = Some((s, e.max(finish)));
                }
                Some((s, e)) => {
                    self.out.slices.push((rank_idx, s, e - s));
                    rank.activity = Some((data_start, finish));
                }
                None => rank.activity = Some((data_start, finish)),
            }
        }
        (data_start, finish)
    }
}

impl checkpoint::Snapshot for MemorySystem {
    type State = SystemState;

    /// Captures the complete scheduler state.
    ///
    /// Sound at any `enqueue` or `service_all` boundary: besides the
    /// queues and bank state, the image carries each channel's
    /// in-flight stats, fault tallies and deferred fault from early
    /// drains, plus its audit checker's command and refresh counts.
    /// Telemetry-only accumulators (histograms, per-rank busy windows)
    /// are not part of the image.
    fn snapshot(&self) -> SystemState {
        SystemState {
            config: self.config,
            stats: self.stats,
            flushed: self.flushed,
            fault_stats: self.fault_stats,
            flushed_faults: self.flushed_faults,
            pending: self.pending.clone(),
            next_id: self.next_id,
            injector: self.injectors.first().map(|first| InjectorSnapshot {
                config: *first.config(),
                states: self
                    .injectors
                    .iter()
                    .map(checkpoint::Snapshot::snapshot)
                    .collect(),
            }),
            channels: self
                .channels
                .iter()
                .zip(&self.outcomes)
                .map(|(ch, out)| ChannelSnapshot {
                    ranks: ch
                        .ranks
                        .iter()
                        .map(|r| RankSnapshot {
                            banks: r
                                .banks
                                .iter()
                                .map(|b| BankSnapshot {
                                    open_row: b.open_row,
                                    next_act: b.next_act,
                                    next_col: b.next_col,
                                    next_pre: b.next_pre,
                                })
                                .collect(),
                            act_window: r.act_window.iter().copied().collect(),
                            next_act_any: r.next_act_any,
                            next_act_group: r.next_act_group.clone(),
                            next_col_any: r.next_col_any,
                            next_col_group: r.next_col_group.clone(),
                            local_bus_free: r.local_bus_free,
                            refresh_epoch: r.refresh_epoch,
                        })
                        .collect(),
                    bus_free: ch.bus_free,
                    queue: ch
                        .queue
                        .iter()
                        .map(|b| BurstState {
                            id: b.id.0,
                            addr: b.addr,
                            kind: b.kind,
                            locality: b.locality,
                            arrival: b.arrival,
                        })
                        .collect(),
                    stats: out.stats,
                    fault_stats: out.fault_stats,
                    error: out.error.clone(),
                    audit_counts: ch.checker.counts(),
                })
                .collect(),
        }
    }
}

impl checkpoint::Restore for MemorySystem {
    fn restore(&mut self, state: &SystemState) -> Result<(), checkpoint::RestoreError> {
        use checkpoint::RestoreError;
        if state.config != self.config {
            return Err(RestoreError::new(
                "memory-system snapshot was taken under a different DRAM configuration",
            ));
        }
        if state.channels.len() != self.config.channels {
            return Err(RestoreError::new(format!(
                "snapshot has {} channels, configuration expects {}",
                state.channels.len(),
                self.config.channels
            )));
        }
        let ranks_per_channel = self.config.dimms_per_channel * self.config.ranks_per_dimm;
        let banks = self.config.banks_per_rank();
        let groups = self.config.bank_groups;
        if state.next_id != state.pending.len() {
            return Err(RestoreError::new(format!(
                "snapshot next_id {} disagrees with {} pending entries",
                state.next_id,
                state.pending.len()
            )));
        }
        for (c, ch) in state.channels.iter().enumerate() {
            if ch.ranks.len() != ranks_per_channel {
                return Err(RestoreError::new(format!(
                    "channel {c}: snapshot has {} ranks, configuration expects {ranks_per_channel}",
                    ch.ranks.len()
                )));
            }
            for (r, rank) in ch.ranks.iter().enumerate() {
                if rank.banks.len() != banks
                    || rank.next_act_group.len() != groups
                    || rank.next_col_group.len() != groups
                {
                    return Err(RestoreError::new(format!(
                        "channel {c} rank {r}: bank/group layout disagrees with configuration"
                    )));
                }
            }
            for b in &ch.queue {
                if b.id >= state.pending.len() {
                    return Err(RestoreError::new(format!(
                        "channel {c}: queued burst references unknown request {}",
                        b.id
                    )));
                }
            }
        }

        self.injectors = match &state.injector {
            Some(snap) => {
                if snap.states.len() != self.config.channels {
                    return Err(RestoreError::new(format!(
                        "snapshot has {} injector lanes, configuration expects {}",
                        snap.states.len(),
                        self.config.channels
                    )));
                }
                snap.states
                    .iter()
                    .enumerate()
                    .map(|(ch, s)| {
                        let mut inj = FaultInjector::with_lane(snap.config, ch as u64);
                        checkpoint::Restore::restore(&mut inj, s).map(|()| inj)
                    })
                    .collect::<Result<Vec<_>, _>>()?
            }
            None => Vec::new(),
        };
        self.stats = state.stats;
        self.flushed = state.flushed;
        self.fault_stats = state.fault_stats;
        self.flushed_faults = state.flushed_faults;
        self.pending = state.pending.clone();
        self.next_id = state.next_id;
        self.channels = state
            .channels
            .iter()
            .enumerate()
            .map(|(ch_idx, ch)| ChannelState {
                ranks: ch
                    .ranks
                    .iter()
                    .map(|r| RankState {
                        banks: r
                            .banks
                            .iter()
                            .map(|b| BankState {
                                open_row: b.open_row,
                                next_act: b.next_act,
                                next_col: b.next_col,
                                next_pre: b.next_pre,
                            })
                            .collect(),
                        act_window: r.act_window.iter().copied().collect(),
                        next_act_any: r.next_act_any,
                        next_act_group: r.next_act_group.clone(),
                        next_col_any: r.next_col_any,
                        next_col_group: r.next_col_group.clone(),
                        local_bus_free: r.local_bus_free,
                        refresh_epoch: r.refresh_epoch,
                        activity: None,
                        busy_tally: 0,
                    })
                    .collect(),
                bus_free: ch.bus_free,
                queue: ch
                    .queue
                    .iter()
                    .map(|b| Burst {
                        id: RequestId(b.id),
                        addr: b.addr,
                        loc: self.mapper.map(b.addr),
                        kind: b.kind,
                        locality: b.locality,
                        arrival: b.arrival,
                    })
                    .collect(),
                tally: ChanTally::default(),
                checker: audit::ChannelChecker::new(ch_idx, ranks_per_channel, banks, groups),
                #[cfg(feature = "audit")]
                perturb: audit::Perturbation::None,
            })
            .collect();
        // In-flight accumulators of early drains; telemetry-only parts
        // restart empty.
        self.outcomes = state
            .channels
            .iter()
            .map(|ch| ChannelOutcome {
                stats: ch.stats,
                fault_stats: ch.fault_stats,
                error: ch.error.clone(),
                ..ChannelOutcome::new(banks)
            })
            .collect();
        // Audit state is per-process apart from the checker counts
        // since the image's last barrier: the retirement ledger
        // restarts from the pending set, the mirrors re-seed from the
        // snapshot's open rows, refresh epochs and counts, and the
        // refresh-energy baseline absorbs the pJ folded before that
        // barrier, so the closed form covers the refreshes counted
        // since it.
        #[cfg(feature = "audit")]
        {
            self.audit = AuditAccum {
                expected: state.pending.iter().map(|&(n, _, _)| n).collect(),
                serviced: vec![0; state.pending.len()],
                refresh_pj_base: state.stats.energy.refresh_pj,
                ..AuditAccum::default()
            };
            for (ch_state, snap) in self.channels.iter_mut().zip(&state.channels) {
                ch_state.checker.reseed(snap);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Request;

    fn single_channel() -> DramConfig {
        DramConfig {
            channels: 1,
            ..DramConfig::default()
        }
    }

    /// The completion of request `i`, which must have retired.
    #[track_caller]
    fn done(sys: &MemorySystem, i: usize) -> Completion {
        sys.completion(RequestId(i)).expect("request retired")
    }

    /// Every request's completion, in enqueue order.
    fn all_done(sys: &MemorySystem) -> Vec<Option<Completion>> {
        (0..sys.next_id)
            .map(|i| sys.completion(RequestId(i)))
            .collect()
    }

    #[test]
    fn idle_read_latency() {
        let mut sys = MemorySystem::new(single_channel());
        sys.enqueue(Request::read(0, 64));
        let r = sys.service_all();
        let t = done(&sys, 0);
        // ACT@0, RD@tRCD=16, data @ 32..36.
        assert_eq!(t.data_start, 32);
        assert_eq!(t.finish, 36);
        assert_eq!(r.stats.activates, 1);
        assert_eq!(r.stats.row_misses, 1);
    }

    #[test]
    fn row_hit_is_faster() {
        let cfg = single_channel();
        let mut sys = MemorySystem::new(cfg);
        sys.enqueue(Request::read(0, 64));
        sys.enqueue(Request::read(64 * cfg.channels as u64, 64)); // same row, next column
        let r = sys.service_all();
        assert_eq!(r.stats.row_hits, 1);
        // Second read: col at tCCD_L after first col (same bank group),
        // data 16+6+16=38..42 — well before a fresh ACT would allow.
        assert_eq!(done(&sys, 1).finish, 42);
    }

    #[test]
    fn row_conflict_requires_precharge() {
        let cfg = single_channel();
        let mut sys = MemorySystem::new(cfg);
        let mapper = AddressMapper::new(cfg);
        let base = mapper.compose(Location {
            channel: 0,
            dimm: 0,
            rank: 0,
            bank_group: 0,
            bank: 0,
            row: 0,
            column: 0,
        });
        let other_row = mapper.compose(Location {
            channel: 0,
            dimm: 0,
            rank: 0,
            bank_group: 0,
            bank: 0,
            row: 1,
            column: 0,
        });
        sys.enqueue(Request::read(base, 64));
        sys.enqueue(Request::read(other_row, 64));
        let r = sys.service_all();
        assert_eq!(r.stats.precharges, 1);
        assert_eq!(r.stats.activates, 2);
        // Second: PRE at tRAS=39, ACT at 39+16=55 (=tRC), RD at 71,
        // data 87..91.
        assert_eq!(done(&sys, 1).finish, 91);
    }

    #[test]
    fn tfaw_throttles_activates() {
        let cfg = single_channel();
        let mut sys = MemorySystem::new(cfg);
        let mapper = AddressMapper::new(cfg);
        // Five activates to five different bank groups/banks of rank 0.
        for i in 0..5 {
            let loc = Location {
                channel: 0,
                dimm: 0,
                rank: 0,
                bank_group: i % 4,
                bank: i / 4,
                row: 0,
                column: 0,
            };
            sys.enqueue(Request::read(mapper.compose(loc), 64));
        }
        let r = sys.service_all();
        assert_eq!(r.stats.activates, 5);
        // ACTs at 0, 4, 8, 12 (tRRD_S); the fifth must wait for
        // tFAW=26 from the first: data at 26+16+16=58..62.
        assert_eq!(done(&sys, 4).finish, 62);
    }

    #[test]
    fn rank_local_streams_run_in_parallel() {
        let cfg = single_channel();
        let mapper = AddressMapper::new(cfg);
        // Stream A: rank 0; stream B: rank 1. Rank-local.
        let mut one = MemorySystem::new(cfg);
        for col in 0..32 {
            let loc = Location {
                channel: 0,
                dimm: 0,
                rank: 0,
                bank_group: col % 4,
                bank: 0,
                row: 0,
                column: col,
            };
            one.enqueue(Request::local_read(mapper.compose(loc), 64));
        }
        let single_elapsed = one.service_all().stats.elapsed_cycles;

        let mut two = MemorySystem::new(cfg);
        for rank in 0..2 {
            for col in 0..32 {
                let loc = Location {
                    channel: 0,
                    dimm: 0,
                    rank,
                    bank_group: col % 4,
                    bank: 0,
                    row: 0,
                    column: col,
                };
                two.enqueue(Request::local_read(mapper.compose(loc), 64));
            }
        }
        let double_elapsed = two.service_all().stats.elapsed_cycles;
        // Twice the work on two ranks should cost nearly no extra time.
        assert!(
            double_elapsed < single_elapsed + single_elapsed / 4,
            "double = {double_elapsed}, single = {single_elapsed}"
        );
    }

    #[test]
    fn channel_reads_serialize_on_bus() {
        let cfg = single_channel();
        let mapper = AddressMapper::new(cfg);
        let mut sys = MemorySystem::new(cfg);
        for rank in 0..2 {
            for col in 0..16 {
                let loc = Location {
                    channel: 0,
                    dimm: 0,
                    rank,
                    bank_group: col % 4,
                    bank: 0,
                    row: 0,
                    column: col,
                };
                sys.enqueue(Request::read(mapper.compose(loc), 64));
            }
        }
        let r = sys.service_all();
        // 32 bursts × tBL=4 = 128 data cycles minimum on one shared bus.
        assert!(r.stats.elapsed_cycles >= 128);
        assert_eq!(r.stats.channel_bus_busy_cycles, 128);
    }

    #[test]
    fn broadcast_occupies_bus_once_with_higher_energy() {
        let cfg = single_channel();
        let mut sys = MemorySystem::new(cfg);
        sys.enqueue(Request::broadcast_write(0, 64));
        let r = sys.service_all();
        assert_eq!(r.stats.broadcast_transfers, 1);
        assert_eq!(r.stats.activates, 0); // no bank activity
        assert!(r.stats.energy.broadcast_io_pj > 0.0);
        // Energy factor: one broadcast costs more than one normal
        // transfer of the same size would on I/O.
        let mut plain = MemorySystem::new(cfg);
        plain.enqueue(Request::write(0, 64));
        let p = plain.service_all();
        assert!(r.stats.energy.broadcast_io_pj > p.stats.energy.io_pj);
    }

    #[test]
    fn multi_burst_requests_complete_at_last_burst() {
        let cfg = single_channel();
        let mut sys = MemorySystem::new(cfg);
        let id = sys.enqueue(Request::read(0, 256)); // 4 bursts
        let r = sys.service_all();
        let c = done(&sys, id.0);
        assert!(c.finish > c.data_start + 4);
        assert_eq!(r.stats.reads, 4);
    }

    #[test]
    fn multi_channel_spreads_load() {
        let mut one = MemorySystem::new(single_channel());
        let mut four = MemorySystem::new(DramConfig::default());
        for i in 0..64u64 {
            one.enqueue(Request::read(i * 64, 64));
            four.enqueue(Request::read(i * 64, 64));
        }
        let t1 = one.service_all().stats.elapsed_cycles;
        let t4 = four.service_all().stats.elapsed_cycles;
        assert!(
            (t4 as f64) < t1 as f64 * 0.5,
            "four channels should be much faster: {t4} vs {t1}"
        );
    }

    #[test]
    fn stats_accumulate_across_service_calls() {
        let mut sys = MemorySystem::new(single_channel());
        let first = sys.enqueue(Request::read(0, 64));
        sys.service_all();
        let before = sys.completion(first);
        let second = sys.enqueue(Request::read(1 << 20, 64));
        assert_eq!(sys.completion(second), None, "queued, not yet serviced");
        let r = sys.service_all();
        assert_eq!(r.stats.reads, 2);
        assert!(sys.completion(second).is_some());
        assert_eq!(sys.completion(first), before, "completions are final");
    }

    #[test]
    fn sequential_stream_achieves_high_bandwidth() {
        let cfg = DramConfig::default();
        let mut sys = MemorySystem::new(cfg);
        let total_bytes = 64 * 1024;
        for i in 0..(total_bytes / 64) as u64 {
            sys.enqueue(Request::read(i * 64, 64));
        }
        let r = sys.service_all();
        let bw = r.stats.effective_bandwidth(&cfg);
        let peak = cfg.system_peak_bandwidth();
        assert!(
            bw > 0.5 * peak,
            "sequential bandwidth {bw:.2e} below half of peak {peak:.2e}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one byte")]
    fn zero_byte_request_panics() {
        let mut sys = MemorySystem::new(single_channel());
        sys.enqueue(Request::read(0, 0));
    }

    #[test]
    fn refresh_blocks_the_rank_and_closes_rows() {
        let cfg = single_channel();
        let t = cfg.timing;
        let mut sys = MemorySystem::new(cfg);
        // A read just before the refresh epoch boundary opens a row...
        sys.enqueue(Request::read(0, 64).at_cycle(0));
        // ...and one arriving after tREFI must wait out tRFC and
        // re-activate the (closed) row.
        sys.enqueue(Request::read(0, 64).at_cycle(t.t_refi + 1));
        let r = sys.service_all();
        assert_eq!(r.stats.row_misses, 2, "row closed by refresh");
        assert!(
            done(&sys, 1).data_start >= t.t_refi + t.t_rfc,
            "second read must wait out the refresh window: {} < {}",
            done(&sys, 1).data_start,
            t.t_refi + t.t_rfc
        );
        assert!(r.stats.energy.refresh_pj > 0.0);
    }

    #[test]
    fn refresh_can_be_disabled() {
        let mut cfg = single_channel();
        cfg.timing.t_refi = 0;
        let mut sys = MemorySystem::new(cfg);
        sys.enqueue(Request::read(0, 64).at_cycle(0));
        sys.enqueue(Request::read(0, 64).at_cycle(100_000));
        let r = sys.service_all();
        assert_eq!(r.stats.row_hits, 1, "row survives without refresh");
        assert_eq!(r.stats.energy.refresh_pj, 0.0);
    }

    #[test]
    fn completions_respect_arrival() {
        let mut sys = MemorySystem::new(single_channel());
        sys.enqueue(Request::read(0, 64).at_cycle(1000));
        sys.service_all();
        assert!(done(&sys, 0).data_start >= 1000);
    }

    #[test]
    fn zero_rate_faults_are_bit_identical_to_no_faults() {
        let mut plain = MemorySystem::new(single_channel());
        let mut faulty = MemorySystem::with_faults(single_channel(), FaultConfig::off());
        for i in 0..64u64 {
            plain.enqueue(Request::read(i * 64, 64));
            faulty.enqueue(Request::read(i * 64, 64));
        }
        let a = plain.service_all();
        let b = faulty.try_service_all().expect("zero-rate cannot fail");
        assert_eq!(a.stats, b.stats);
        assert_eq!(all_done(&plain), all_done(&faulty));
        assert!(b.faults.is_empty());
    }

    #[test]
    fn same_seed_same_faulty_report() {
        let cfg = FaultConfig {
            seed: 42,
            bit_flip_rate: 0.05,
            stall_rate: 0.02,
            stuck_row_rate: 0.01,
            ..FaultConfig::off()
        };
        let run = || {
            let mut sys = MemorySystem::with_faults(single_channel(), cfg);
            for i in 0..256u64 {
                sys.enqueue(Request::read(i * 64, 64));
            }
            sys.try_service_all().expect("recoverable faults only")
        };
        let a = run();
        let b = run();
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.faults, b.faults);
        assert!(a.faults.total_injected() > 0, "rates must inject something");
    }

    #[test]
    fn ecc_detections_retry_and_add_latency() {
        let cfg = FaultConfig {
            seed: 7,
            bit_flip_rate: 1.0, // every read faults; ~12 % double-bit
            retry_limit: 50,    // high budget so the run completes
            ..FaultConfig::off()
        };
        let mut faulty = MemorySystem::with_faults(single_channel(), cfg);
        let mut plain = MemorySystem::new(single_channel());
        for i in 0..512u64 {
            faulty.enqueue(Request::read(i * 64, 64));
            plain.enqueue(Request::read(i * 64, 64));
        }
        let f = faulty.try_service_all().expect("retry budget covers it");
        let p = plain.service_all();
        assert!(f.faults.ecc_corrected > 0);
        assert!(f.faults.ecc_detected > 0);
        assert!(f.faults.read_retries > 0);
        assert!(
            f.stats.elapsed_cycles > p.stats.elapsed_cycles,
            "retries must cost cycles: {} vs {}",
            f.stats.elapsed_cycles,
            p.stats.elapsed_cycles
        );
    }

    #[test]
    fn exhausted_retries_raise_mem_error() {
        let cfg = FaultConfig {
            seed: 3,
            bit_flip_rate: 1.0,
            retry_limit: 0, // first double-bit detection is fatal
            ..FaultConfig::off()
        };
        let mut sys = MemorySystem::with_faults(single_channel(), cfg);
        for i in 0..512u64 {
            sys.enqueue(Request::read(i * 64, 64));
        }
        match sys.try_service_all() {
            Err(FaultError::Mem(e)) => {
                assert_eq!(e.kind, MemErrorKind::UncorrectableEcc);
                assert_eq!(sys.fault_stats().mem_errors, 1);
            }
            other => panic!("expected an uncorrectable ECC error, got {other:?}"),
        }
    }

    #[test]
    fn stalled_rank_trips_watchdog_naming_stuck_requests() {
        let cfg = FaultConfig {
            stalled_rank_mask: 0b1, // global rank 0 never retires
            watchdog_limit: 100,
            ..FaultConfig::off()
        };
        let mapper = AddressMapper::new(single_channel());
        let mut sys = MemorySystem::with_faults(single_channel(), cfg);
        let mut expected = Vec::new();
        for col in 0..4 {
            let loc = Location {
                channel: 0,
                dimm: 0,
                rank: 0,
                bank_group: 0,
                bank: 0,
                row: 0,
                column: col,
            };
            expected.push(sys.enqueue(Request::read(mapper.compose(loc), 64)).0 as u64);
        }
        match sys.try_service_all() {
            Err(FaultError::Watchdog(e)) => {
                assert_eq!(e.site, "dramsim.channel[0]");
                assert_eq!(e.waited, 100, "trips after exactly the limit");
                assert_eq!(e.stuck_requests, expected, "names every stuck request");
                assert_eq!(sys.fault_stats().watchdog_trips, 1);
            }
            other => panic!("expected a watchdog trip, got {other:?}"),
        }
    }

    #[test]
    fn stalled_rank_does_not_block_other_ranks() {
        // Requests on rank 1 retire even while rank 0 is dead; only the
        // stuck remainder trips the watchdog.
        let cfg = FaultConfig {
            stalled_rank_mask: 0b1,
            watchdog_limit: 50,
            ..FaultConfig::off()
        };
        let mapper = AddressMapper::new(single_channel());
        let mut sys = MemorySystem::with_faults(single_channel(), cfg);
        let stuck = sys.enqueue(Request::read(
            mapper.compose(Location {
                channel: 0,
                dimm: 0,
                rank: 0,
                bank_group: 0,
                bank: 0,
                row: 0,
                column: 0,
            }),
            64,
        ));
        sys.enqueue(Request::read(
            mapper.compose(Location {
                channel: 0,
                dimm: 0,
                rank: 1,
                bank_group: 0,
                bank: 0,
                row: 0,
                column: 0,
            }),
            64,
        ));
        match sys.try_service_all() {
            Err(FaultError::Watchdog(e)) => {
                assert_eq!(e.stuck_requests, vec![stuck.0 as u64]);
            }
            other => panic!("expected a watchdog trip, got {other:?}"),
        }
        // The healthy rank's stats registered its read.
        assert_eq!(sys.stats().reads, 1);
    }

    #[test]
    fn snapshot_restore_continues_timeline_exactly() {
        use checkpoint::Snapshot;
        let faults = FaultConfig {
            seed: 42,
            bit_flip_rate: 0.05,
            stall_rate: 0.02,
            stuck_row_rate: 0.01,
            ..FaultConfig::off()
        };
        // Reference: one system services two batches back to back.
        let mut reference = MemorySystem::with_faults(single_channel(), faults);
        for i in 0..128u64 {
            reference.enqueue(Request::read(i * 64, 64));
        }
        reference.try_service_all().expect("recoverable faults");

        // Snapshot at the service boundary, restore into a fresh
        // system, then feed both the second batch.
        let state = reference.snapshot();
        let mut resumed = MemorySystem::from_state(&state).expect("valid state");
        for i in 128..256u64 {
            reference.enqueue(Request::read(i * 64, 64));
            resumed.enqueue(Request::read(i * 64, 64));
        }
        let a = reference.try_service_all().expect("recoverable faults");
        let b = resumed.try_service_all().expect("recoverable faults");
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.faults, b.faults);
        assert_eq!(all_done(&reference), all_done(&resumed));
    }

    #[test]
    fn restore_rejects_config_mismatch() {
        use checkpoint::{Restore, Snapshot};
        let sys = MemorySystem::new(single_channel());
        let state = sys.snapshot();
        let mut other = MemorySystem::new(DramConfig::default());
        assert!(other.restore(&state).is_err(), "channel count differs");

        let mut tampered = state.clone();
        tampered.channels[0].ranks.pop();
        let mut same_cfg = MemorySystem::new(single_channel());
        assert!(same_cfg.restore(&tampered).is_err(), "rank layout differs");
    }

    /// Request `i` of a mixed multi-channel stream: every locality,
    /// reads and writes, multi-burst requests, and row conflicts.
    fn mixed_request(i: u64) -> Request {
        match i % 6 {
            0 => Request::write(i * 4096, 64),
            1 => Request::local_read(i * 64, 128),
            2 => Request::broadcast_write(i * 64, 64),
            3 => Request::read(i * 64, 256),
            4 => Request::local_write((i % 32) * 4096, 64),
            _ => Request::read((i % 16) * 4096, 64),
        }
    }

    #[test]
    fn channel_queues_never_exceed_the_window() {
        let faults = FaultConfig {
            seed: 5,
            bit_flip_rate: 0.01,
            stall_rate: 0.01,
            ..FaultConfig::off()
        };
        let systems = [
            MemorySystem::new(DramConfig::default()),
            MemorySystem::with_faults(DramConfig::default(), faults),
        ];
        for mut sys in systems {
            let window = sys.config().sched_window;
            for i in 0..2048 {
                sys.enqueue(mixed_request(i));
                for (ch, c) in sys.channels.iter().enumerate() {
                    assert!(
                        c.queue.len() < window,
                        "request {i}: channel {ch} holds {} bursts",
                        c.queue.len()
                    );
                }
            }
            sys.try_service_all().expect("recoverable faults only");
            assert!(sys.channels.iter().all(|c| c.queue.is_empty()));
        }

        // A stalled-rank mask keeps the deferred drain.
        let stalled = FaultConfig {
            stalled_rank_mask: 0b10,
            ..FaultConfig::off()
        };
        let mut sys = MemorySystem::with_faults(single_channel(), stalled);
        for i in 0..64u64 {
            sys.enqueue(Request::read(i * 64, 64));
        }
        assert_eq!(sys.channels[0].queue.len(), 64);
    }

    #[test]
    fn ecc_abort_in_an_early_drain_surfaces_at_the_barrier() {
        use checkpoint::Snapshot;
        // Channel 0 carries reads, which draw bit flips; channel 1 only
        // writes, which never fault. Every read flips bits and the
        // first double-bit detection is fatal.
        let cfg = DramConfig {
            channels: 2,
            ..DramConfig::default()
        };
        let faults = FaultConfig {
            seed: 3,
            bit_flip_rate: 1.0,
            retry_limit: 0,
            ..FaultConfig::off()
        };
        let mapper = AddressMapper::new(cfg);
        let mut sys = MemorySystem::with_faults(cfg, faults);
        for i in 0..400usize {
            let addr = mapper.compose(Location {
                channel: i % 2,
                dimm: 0,
                rank: (i / 2) % 2,
                bank_group: (i / 4) % 4,
                bank: 0,
                row: ((i / 16) % 8) as u64,
                column: (i / 2) % 64,
            });
            if i % 2 == 0 {
                sys.enqueue(Request::read(addr, 64));
            } else {
                sys.enqueue(Request::write(addr, 64));
            }
        }
        assert!(
            sys.outcomes[0].error.is_some(),
            "the abort is raised by an early drain"
        );
        assert!(
            sys.channels[0].queue.len() > cfg.sched_window,
            "the aborted channel stops draining"
        );
        let mut resumed = MemorySystem::from_state(&sys.snapshot()).expect("valid state");

        // Tallies and errors recorded from the deferred drain, which
        // serviced everything inside `try_service_all`.
        let first_error = "Mem(MemError { request: 20, rank: 0, bank: 4, row: 1, \
                           kind: UncorrectableEcc })";
        let first_stats = "MemoryStats { reads: 11, writes: 200, row_hits: 0, row_misses: 211, \
             activates: 211, precharges: 195, broadcast_transfers: 0, \
             channel_bus_busy_cycles: 844, local_bus_busy_cycles: 0, channel_bytes: 13504, \
             local_bytes: 0, elapsed_cycles: 1744, energy: EnergyBreakdown { \
             activate_pj: 422000.0, array_pj: 162048.0, io_pj: 648192.0, broadcast_io_pj: 0.0, \
             local_io_pj: 0.0, background_pj: 581333.3333333334, refresh_pj: 0.0 } }";
        let first_faults = "FaultStats { injected_bit_flips: 12, ecc_corrected: 10, \
             ecc_detected: 1, ecc_silent_miss: 0, read_retries: 0, row_remaps: 0, \
             bank_remaps: 0, broadcast_drops: 0, broadcast_corruptions: 0, \
             broadcast_retries: 0, broadcast_fallbacks: 0, stall_events: 0, stall_cycles: 0, \
             watchdog_trips: 0, mem_errors: 1, ranks_healthy: 0, ranks_degraded: 0, \
             ranks_tripped: 0 }";
        // A snapshot taken while the fault was deferred reports it too.
        for sys in [&mut sys, &mut resumed] {
            let e = sys
                .try_service_all()
                .expect_err("the deferred abort surfaces");
            assert_eq!(format!("{e:?}"), first_error);
            assert_eq!(format!("{:?}", sys.stats()), first_stats);
            assert_eq!(format!("{:?}", sys.fault_stats()), first_faults);
            // The healthy channel drained fully.
            assert!(sys.channels[1].queue.is_empty());
            for i in (1..400).step_by(2) {
                assert!(sys.completion(RequestId(i)).is_some(), "write {i}");
            }
        }

        // The next barrier resumes the aborted channel at its head.
        let e = sys.try_service_all().expect_err("every read flips bits");
        assert_eq!(
            format!("{e:?}"),
            "Mem(MemError { request: 42, rank: 1, bank: 8, row: 2, kind: UncorrectableEcc })"
        );
        assert_eq!((sys.stats().reads, sys.stats().row_misses), (22, 222));
        assert_eq!(sys.fault_stats().mem_errors, 2);
        assert_eq!(sys.fault_stats().injected_bit_flips, 24);
    }

    #[test]
    fn snapshot_between_barriers_continues_exactly() {
        use checkpoint::Snapshot;
        let faults = FaultConfig {
            seed: 8,
            bit_flip_rate: 0.02,
            stall_rate: 0.02,
            ..FaultConfig::off()
        };
        let mut reference = MemorySystem::with_faults(DramConfig::default(), faults);
        for i in 0..600 {
            reference.enqueue(mixed_request(i));
        }
        assert!(
            reference.outcomes.iter().all(|o| o.stats.reads > 0),
            "early drains are in flight on every channel"
        );
        let state = reference.snapshot();
        let json = serde_json::to_string(&state).expect("serialize");
        let back: SystemState = serde_json::from_str(&json).expect("deserialize");
        let mut resumed = MemorySystem::from_state(&back).expect("valid state");
        for i in 600..1200 {
            reference.enqueue(mixed_request(i));
            resumed.enqueue(mixed_request(i));
        }
        let a = reference.try_service_all().expect("recoverable faults");
        let b = resumed.try_service_all().expect("recoverable faults");
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.faults, b.faults);
        assert_eq!(all_done(&reference), all_done(&resumed));
        assert_eq!(reference.audit_report(true), resumed.audit_report(true));
    }

    #[test]
    fn persistent_remaps_are_counted() {
        let cfg = FaultConfig {
            seed: 11,
            stuck_row_rate: 0.2,
            failed_bank_rate: 0.1,
            ..FaultConfig::off()
        };
        let mut sys = MemorySystem::with_faults(single_channel(), cfg);
        for i in 0..512u64 {
            sys.enqueue(Request::read(i * 4096, 64)); // spread rows
        }
        let r = sys.try_service_all().expect("remaps are recoverable");
        assert!(
            r.faults.row_remaps + r.faults.bank_remaps > 0,
            "high rates over 512 spread accesses must remap something"
        );
    }

    #[test]
    fn audit_report_disabled_without_feature() {
        let mut sys = MemorySystem::new(single_channel());
        sys.enqueue(Request::read(0, 64));
        sys.service_all();
        let report = sys.audit_report(true);
        assert_eq!(report.enabled, crate::audit::is_enabled());
        if !crate::audit::is_enabled() {
            assert!(!report.is_clean(), "disabled audit must not read as clean");
        }
    }

    /// The audit self-tests below exercise the live checker, so they
    /// only exist under the feature.
    #[cfg(feature = "audit")]
    mod audit_tests {
        use super::*;
        use crate::audit::{AuditReport, Constraint, Perturbation};

        /// A workload that exercises every command class the checker
        /// knows: row hits/misses/conflicts, reads and writes, all four
        /// localities, multi-burst requests, and periodic refresh.
        fn mixed_workload(sys: &mut MemorySystem) {
            let t = sys.config().timing;
            for i in 0..512u64 {
                match i % 7 {
                    0 => sys.enqueue(Request::write(i * 4096, 64)),
                    1 => sys.enqueue(Request::local_read(i * 64, 128)),
                    2 => sys.enqueue(Request::broadcast_write(i * 64, 64)),
                    3 => sys.enqueue(Request::direct_send(i * 64, 64)),
                    4 => sys.enqueue(Request::read(i * 64, 256)),
                    // Revisit early rows to force conflicts, and push a
                    // tail past the refresh interval.
                    5 => sys.enqueue(Request::read((i % 16) * 4096, 64)),
                    _ => sys.enqueue(Request::read(i * 64, 64).at_cycle(i * t.t_refi / 256)),
                };
            }
        }

        #[test]
        fn audit_is_clean_on_a_mixed_workload() {
            let mut sys = MemorySystem::new(single_channel());
            mixed_workload(&mut sys);
            sys.service_all();
            let report = sys.audit_report(true);
            assert!(report.is_clean(), "{}", report.summary());
            assert!(report.commands_checked > 512);
            assert!(report.refresh_events > 0, "workload must cross tREFI");
        }

        #[test]
        fn audit_is_clean_under_fault_retries() {
            // Every read faults; retries must not register as
            // double-retirement or break the energy closed forms.
            let cfg = FaultConfig {
                seed: 7,
                bit_flip_rate: 1.0,
                stall_rate: 0.05,
                stuck_row_rate: 0.05,
                retry_limit: 50,
                ..FaultConfig::off()
            };
            let mut sys = MemorySystem::with_faults(single_channel(), cfg);
            for i in 0..512u64 {
                sys.enqueue(Request::read(i * 64, 64));
            }
            let r = sys.try_service_all().expect("retry budget covers it");
            assert!(r.faults.read_retries > 0, "faults must actually retry");
            let report = sys.audit_report(true);
            assert!(report.is_clean(), "{}", report.summary());
        }

        #[test]
        fn audit_survives_snapshot_restore() {
            use checkpoint::Snapshot;
            let mut sys = MemorySystem::new(single_channel());
            mixed_workload(&mut sys);
            sys.service_all();
            let state = sys.snapshot();
            let mut resumed = MemorySystem::from_state(&state).expect("valid state");
            for i in 0..64u64 {
                // Same rows again: conflicts against restored open rows.
                resumed.enqueue(Request::read((i % 16) * 4096, 64));
            }
            resumed.service_all();
            let report = resumed.audit_report(true);
            assert!(report.is_clean(), "{}", report.summary());
            assert!(report.commands_checked > 64);
        }

        #[test]
        fn undrained_queue_is_a_retirement_violation() {
            let cfg = FaultConfig {
                stalled_rank_mask: 0b1,
                watchdog_limit: 50,
                ..FaultConfig::off()
            };
            let mut sys = MemorySystem::with_faults(single_channel(), cfg);
            sys.enqueue(Request::read(0, 64)); // rank 0: never retires
            assert!(sys.try_service_all().is_err(), "watchdog must trip");
            // Not expecting a drained system: bursts may sit queued.
            assert!(sys.audit_report(false).is_clean());
            // Expecting drained: the stuck burst is a violation.
            let report = sys.audit_report(true);
            assert_eq!(report.violations.len(), 1, "{}", report.summary());
            assert_eq!(report.violations[0].constraint, Constraint::Retirement);
        }

        /// Runs `first`, installs the perturbation, runs `second`, and
        /// returns the audit report — the self-test harness proving the
        /// checker catches a deliberately broken scheduler.
        fn perturbed_run(
            perturbation: Perturbation,
            first: Option<Request>,
            second: Request,
        ) -> AuditReport {
            let mut sys = MemorySystem::new(single_channel());
            if let Some(req) = first {
                sys.enqueue(req);
                sys.service_all();
                assert!(sys.audit_report(true).is_clean(), "clean before perturbing");
            }
            sys.audit_perturb(perturbation);
            sys.enqueue(second);
            sys.service_all();
            sys.audit_report(true)
        }

        fn conflict_pair() -> (Request, Request) {
            let mapper = AddressMapper::new(single_channel());
            let same_bank = |row| {
                mapper.compose(Location {
                    channel: 0,
                    dimm: 0,
                    rank: 0,
                    bank_group: 0,
                    bank: 0,
                    row,
                    column: 0,
                })
            };
            (
                Request::read(same_bank(0), 64),
                Request::read(same_bank(1), 64),
            )
        }

        #[track_caller]
        fn assert_exactly(report: &AuditReport, constraint: Constraint) {
            assert_eq!(
                report.violations.len(),
                1,
                "want exactly one {constraint} violation; {}",
                report.summary()
            );
            let v = &report.violations[0];
            assert_eq!(v.constraint, constraint);
            assert!(!v.trace.is_empty(), "violation must carry a trace tail");
        }

        #[test]
        fn early_column_trips_trcd() {
            // Idle read: ACT@0, RD perturbed to 15 < tRCD=16.
            let report = perturbed_run(Perturbation::EarlyColumn, None, Request::read(0, 64));
            assert_exactly(&report, Constraint::Trcd);
        }

        #[test]
        fn early_activate_trips_trp() {
            // Conflict: PRE@39, ACT perturbed to 54 < 39 + tRP.
            let (a, b) = conflict_pair();
            let report = perturbed_run(Perturbation::EarlyActivate, Some(a), b);
            assert_exactly(&report, Constraint::Trp);
        }

        #[test]
        fn early_precharge_trips_tras() {
            // Conflict: PRE perturbed to 38 < ACT@0 + tRAS=39.
            let (a, b) = conflict_pair();
            let report = perturbed_run(Perturbation::EarlyPrecharge, Some(a), b);
            assert_exactly(&report, Constraint::Tras);
        }

        #[test]
        fn early_precharge_after_write_trips_twr() {
            // Write data ends at 36, next_pre = 36 + tWR = 54; the
            // perturbed PRE@53 satisfies tRAS but lands inside tWR.
            let (a, b) = conflict_pair();
            let write = Request::write(a.addr, 64);
            let report = perturbed_run(Perturbation::EarlyPrecharge, Some(write), b);
            assert_exactly(&report, Constraint::Twr);
        }

        #[test]
        fn skipped_precharge_trips_act_on_open_row() {
            let (a, b) = conflict_pair();
            let report = perturbed_run(Perturbation::SkipPrecharge, Some(a), b);
            assert_exactly(&report, Constraint::ActOnOpenRow);
        }

        #[test]
        fn unconsumed_perturbation_changes_nothing() {
            // EarlyPrecharge never fires on a conflict-free run; the
            // results and the audit stay those of a clean system.
            let mut sys = MemorySystem::new(single_channel());
            sys.audit_perturb(Perturbation::EarlyPrecharge);
            sys.enqueue(Request::read(0, 64));
            sys.service_all();
            assert_eq!(done(&sys, 0).finish, 36);
            assert!(sys.audit_report(true).is_clean());
        }
    }
}
