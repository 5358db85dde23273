//! Algorithm 2 (loss recovery) as [`omnireduce_simnet`] actors: the
//! retransmission protocol running over a simulated lossy fabric, with
//! simulated timers — the deterministic counterpart of the wall-clock
//! measurement in `fig21_loss`.
//!
//! The actors are simnet drivers of the *same machines* as the executable
//! recovery engines ([`crate::recovery`]): [`RecWorkerMachine`] and
//! [`RecAggMachine`]. Only the bytes, the timers and the counters are
//! the simulator's own: packet payloads are elided (the simulator
//! charges exact encoded sizes and drops packets per the NICs' loss
//! probability), timers are simulated-time `ctx.set_timer` tokens, and
//! flight lanes record simulated nanoseconds. The simulator deploys no
//! hot standby.
//!
//! The aggregator actor never halts (it must stay able to serve result
//! retransmissions after the last multicast); the run ends when the
//! event queue drains — i.e. when every worker has finished and no timer
//! remains armed.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use omnireduce_simnet::{ActorId, Ctx, NicConfig, Process, SimTime, Simulator};
use omnireduce_telemetry::{FlightEventKind, FlightLane, LaneRole, Telemetry, NO_BLOCK};
use omnireduce_tensor::NonZeroBitmap;
use omnireduce_transport::codec::ENTRY_HEADER_BYTES;

use crate::config::{DegradedMode, OmniConfig};
use crate::layout::StreamLayout;
use crate::proto::{Admit, Answer, Expiry, Offer, RecAggMachine, RecWorkerMachine, RtoPolicy};
use crate::recovery::{RecoveryAggCounters, RecoveryCounters, Resend};
use crate::sim::{SimEntry, SimOutcome};

/// Retransmission-timer policy for the simulated recovery protocol —
/// the simulated mirror of the `adaptive_rto`/`rto_min`/`rto_max`/
/// `max_retransmits` knobs of [`OmniConfig`].
#[derive(Debug, Clone, Copy)]
pub struct SimRtoConfig {
    /// When true, estimate the RTO from observed (simulated) RTTs;
    /// when false, always arm `initial`.
    pub adaptive: bool,
    /// Initial RTO (and the fixed RTO when `adaptive` is false).
    pub initial: SimTime,
    /// Lower clamp for the adaptive RTO.
    pub min: SimTime,
    /// Upper clamp for the adaptive RTO (including backoff).
    pub max: SimTime,
    /// Consecutive unanswered retransmissions of one slot before the
    /// worker gives up on the shard and halts as *failed* (reported in
    /// [`SimOutcome::failed_workers`]). Keeps a simulation with a dead
    /// or unreachable peer bounded instead of re-arming timers forever.
    pub max_retransmits: u32,
}

impl SimRtoConfig {
    /// The pre-robustness policy: a fixed timeout, with a large (but
    /// finite — simulations must drain) retry budget.
    pub fn fixed(t: SimTime) -> Self {
        SimRtoConfig {
            adaptive: false,
            initial: t,
            min: t,
            max: t,
            max_retransmits: 1000,
        }
    }

    /// Adaptive RTO with the given initial value and clamp range.
    pub fn adaptive(initial: SimTime, min: SimTime, max: SimTime) -> Self {
        SimRtoConfig {
            adaptive: true,
            initial,
            min,
            max,
            max_retransmits: 10,
        }
    }

    /// Sets the retry budget.
    pub fn with_max_retransmits(mut self, n: u32) -> Self {
        assert!(n >= 1, "retry budget must be positive");
        self.max_retransmits = n;
        self
    }
    /// The machine policy this configures (no standby in the simulator).
    fn policy(&self) -> RtoPolicy {
        let d = |t: SimTime| Duration::from_nanos(t.as_nanos());
        RtoPolicy {
            adaptive: self.adaptive,
            initial: d(self.initial),
            min: d(self.min),
            max: d(self.max),
            max_retransmits: self.max_retransmits,
            hot_standby: false,
        }
    }
}

/// Membership schedule for a simulated run: scripted worker departures
/// (the simulated mirror of a crashed worker in [`ChaosNetwork`]) and
/// the aggregator's eviction policy. Departed workers go permanently
/// silent at the given simulated time; the aggregator evicts silent,
/// waited-on workers, bumps the membership epoch, and completes the
/// affected phases degraded — emitting the same `Eviction`/`EpochChange`
/// flight events as the live engine so the reconstructor and omnistat
/// attribution work identically on simulated traces.
///
/// [`ChaosNetwork`]: omnireduce_transport::fault::ChaosNetwork
#[derive(Debug, Clone)]
pub struct SimMembership {
    /// Per-worker departure time (index = worker id; `None` = stays).
    pub depart_at: Vec<Option<SimTime>>,
    /// Silence threshold after which a waited-on worker is evicted.
    pub eviction_timeout: SimTime,
}

impl SimMembership {
    /// A schedule in which nobody departs but eviction is armed.
    pub fn stable(n: usize, eviction_timeout: SimTime) -> Self {
        SimMembership {
            depart_at: vec![None; n],
            eviction_timeout,
        }
    }

    /// Marks worker `w` as departing (going silent) at `t`.
    pub fn depart(mut self, w: usize, t: SimTime) -> Self {
        self.depart_at[w] = Some(t);
        self
    }
}

/// Simulated recovery-protocol message.
#[derive(Debug, Clone)]
pub enum RecMsg {
    /// Worker → aggregator (data and/or acks for one phase).
    Data {
        /// Stream id.
        stream: usize,
        /// Phase version bit.
        ver: u8,
        /// Sending worker.
        wid: usize,
        /// Membership epoch the sender believes is current (mirrors the
        /// wire header's epoch byte; free on the wire, so `msg_bytes`
        /// is unchanged).
        epoch: u8,
        /// Entries (acks carry `values: 0`).
        entries: Vec<SimEntry>,
    },
    /// Aggregator → worker(s).
    Result {
        /// Stream id.
        stream: usize,
        /// Completed phase version.
        ver: u8,
        /// Membership epoch at completion; workers adopt newer epochs.
        epoch: u8,
        /// Per-column aggregated entries.
        entries: Vec<SimEntry>,
    },
    /// Aggregator → worker: a phase in progress lacks the worker's
    /// contribution (an entry-less packet on the wire).
    Nack {
        /// Stream id.
        stream: usize,
        /// Stalled phase version.
        ver: u8,
    },
}

fn msg_bytes(stream_id: u16, entries: &[SimEntry]) -> usize {
    omnireduce_transport::codec::block_header_bytes(stream_id)
        + entries
            .iter()
            .map(|e| ENTRY_HEADER_BYTES + 4 * e.values)
            .sum::<usize>()
}

/// A simulated entry for `o` carrying `values` payload values.
fn sim_entry(o: Offer, values: usize) -> SimEntry {
    SimEntry {
        block: o.block,
        col: o.col,
        next: o.next,
        values,
    }
}

/// Worker actor: the simnet driver of [`RecWorkerMachine`].
struct RecWorker {
    cfg: OmniConfig,
    wid: usize,
    /// Armed with this worker's bitmap before the run starts.
    machine: RecWorkerMachine,
    shards: Vec<ActorId>,
    /// Per stream: the outstanding packet's entries, for resends.
    packets: Vec<Option<Vec<SimEntry>>>,
    /// Per stream: bumped on every arm and on every answer, so a timer
    /// token from an earlier packet is recognized as stale.
    timer_gen: Vec<u32>,
    /// Scheduled departure (simulated crash): the worker goes silent at
    /// this time and halts.
    depart_at: Option<SimTime>,
    /// Departed, or gave up on an unreachable shard: ignores everything.
    halted: bool,
    /// Shared sink for failed worker ids, read by the driver.
    failed_sink: Arc<Mutex<Vec<usize>>>,
    counters: RecoveryCounters,
    /// Flight lane recording simulated-time protocol events
    /// (`record_at` with sim ns — never the wall clock).
    flight: FlightLane,
}

fn timer_token(stream: usize, generation: u32) -> u64 {
    ((stream as u64) << 32) | generation as u64
}

/// Worker timer token for the scripted departure (never collides with
/// `timer_token`: that would need 2³² streams).
const DEPART_TOKEN: u64 = u64::MAX;
/// Aggregator timer token for the eviction sweep (the aggregator arms
/// no other timers).
const SWEEP_TOKEN: u64 = u64::MAX;

impl RecWorker {
    fn record(&self, ctx: &Ctx<RecMsg>, kind: FlightEventKind, block: u64, shard: usize, aux: u64) {
        let (shard, wid) = (shard as u16, self.wid as u16);
        self.flight
            .record_at(ctx.now().as_nanos(), kind, 0, block, shard, wid, aux);
    }

    /// Sends stream `g`'s packet of `entries` and arms its timer for
    /// `rto`.
    fn transmit(&mut self, ctx: &mut Ctx<RecMsg>, g: usize, entries: Vec<SimEntry>, rto: Duration) {
        let bytes = msg_bytes(self.cfg.stream_id, &entries);
        self.counters.bytes_sent.add(bytes as u64);
        let shard = self.machine.shard_of(g);
        let msg = RecMsg::Data {
            stream: g,
            ver: self.machine.ver(g),
            wid: self.wid,
            epoch: self.machine.epoch(),
            entries,
        };
        ctx.send(self.shards[shard], msg, bytes);
        self.counters.note_rto(rto, self.machine.srtt(shard));
        self.timer_gen[g] += 1;
        let token = timer_token(g, self.timer_gen[g]);
        ctx.set_timer(SimTime::from_nanos(rto.as_nanos() as u64), token);
    }

    /// Sends stream `g`'s next packet and arms its timer.
    fn send_new(&mut self, ctx: &mut Ctx<RecMsg>, g: usize, entries: Vec<SimEntry>) {
        let bytes = msg_bytes(self.cfg.stream_id, &entries) as u64;
        let blocks = entries.iter().filter(|e| e.values > 0).count() as u64;
        self.counters.packets_sent.inc();
        self.counters.blocks_sent.add(blocks);
        if let Some(first) = entries.first() {
            let shard = self.machine.shard_of(g);
            self.record(
                ctx,
                FlightEventKind::PacketTx,
                first.block as u64,
                shard,
                bytes,
            );
        }
        self.packets[g] = Some(entries.clone());
        let rto = self.machine.sent(g, ctx.now().as_nanos());
        self.transmit(ctx, g, entries, rto);
    }

    /// Sends stream `g`'s outstanding packet again and re-arms its timer.
    fn resend(&mut self, ctx: &mut Ctx<RecMsg>, g: usize, why: Resend, rto: Duration) {
        let entries = self.packets[g].clone().expect("outstanding packet");
        let shard = self.machine.shard_of(g);
        let bytes = msg_bytes(self.cfg.stream_id, &entries) as u64;
        let block = entries.first().map_or(NO_BLOCK, |e| e.block as u64);
        self.counters.retransmissions.inc();
        if let Resend::Nack = why {
            self.counters.solicited_retransmissions.inc();
        }
        for (kind, aux) in why.events(bytes) {
            self.record(ctx, kind, block, shard, aux);
        }
        self.transmit(ctx, g, entries, rto);
    }

    fn on_result(
        &mut self,
        ctx: &mut Ctx<RecMsg>,
        g: usize,
        ver: u8,
        epoch: u8,
        entries: &[SimEntry],
    ) {
        let shard = self.machine.shard_of(g);
        let head = self.machine.on_result(g, ver, epoch, ctx.now().as_nanos());
        if head.adopted_epoch {
            self.record(
                ctx,
                FlightEventKind::EpochChange,
                NO_BLOCK,
                shard,
                epoch as u64,
            );
        }
        self.record(
            ctx,
            FlightEventKind::ResultRx,
            NO_BLOCK,
            shard,
            entries.len() as u64,
        );
        if !head.fresh {
            self.counters.stale_results_ignored.inc();
            return;
        }
        // Cancel the answered packet's timer.
        self.timer_gen[g] += 1;
        self.packets[g] = None;
        let layout = *self.machine.layout();
        let reply: Vec<SimEntry> = entries
            .iter()
            .filter_map(|e| match self.machine.answer(g, e.col, e.next)? {
                Answer::Data(o) => Some(sim_entry(o, layout.block_range(o.block).len())),
                Answer::Ack(o) => Some(sim_entry(o, 0)),
            })
            .collect();
        if !reply.is_empty() {
            self.send_new(ctx, g, reply);
        } else if self.machine.round_done() {
            self.record(ctx, FlightEventKind::RoundEnd, NO_BLOCK, 0, 0);
            ctx.halt();
        }
    }
}

impl Process<RecMsg> for RecWorker {
    fn on_start(&mut self, ctx: &mut Ctx<RecMsg>) {
        self.record(ctx, FlightEventKind::RoundStart, NO_BLOCK, 0, 0);
        let layout = *self.machine.layout();
        for g in layout.active_streams() {
            let mut entries = Vec::with_capacity(layout.width());
            self.machine.first_row(g, |o| {
                entries.push(sim_entry(o, layout.block_range(o.block).len()))
            });
            self.send_new(ctx, g, entries);
        }
        if let Some(t) = self.depart_at {
            ctx.set_timer(t, DEPART_TOKEN);
        }
        if self.machine.round_done() {
            ctx.halt();
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<RecMsg>, _from: ActorId, msg: RecMsg) {
        if self.halted {
            return;
        }
        match msg {
            RecMsg::Result {
                stream,
                ver,
                epoch,
                entries,
            } => self.on_result(ctx, stream, ver, epoch, &entries),
            RecMsg::Nack { stream, ver } => {
                if let Some(rto) = self.machine.on_nack(stream, ver) {
                    self.resend(ctx, stream, Resend::Nack, rto);
                }
            }
            RecMsg::Data { .. } => panic!("worker got data"),
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<RecMsg>, token: u64) {
        if self.halted {
            return;
        }
        if token == DEPART_TOKEN {
            // Scripted crash: go permanently silent. The aggregator
            // will evict this worker once its silence exceeds the
            // membership plan's eviction timeout.
            self.halted = true;
            ctx.halt();
            return;
        }
        let g = (token >> 32) as usize;
        if self.timer_gen[g] != token as u32 {
            return; // a timer of an answered or resent packet
        }
        self.counters.timer_fires.inc();
        match self.machine.on_timer(g, ctx.now().as_nanos()) {
            Expiry::Idle => {}
            Expiry::Retransmit {
                rto,
                backoff,
                waited_ns,
            } => {
                if backoff {
                    self.counters.backoffs.inc();
                }
                self.resend(ctx, g, Resend::Timer { waited_ns }, rto);
            }
            Expiry::FailOver { .. } => unreachable!("the simulator deploys no standby"),
            Expiry::GiveUp { .. } => {
                // The shard is unreachable: halt as failed so the
                // simulation drains instead of re-arming timers forever.
                self.halted = true;
                self.counters.peer_unresponsive.inc();
                self.failed_sink
                    .lock()
                    .expect("failed sink poisoned")
                    .push(self.wid);
                ctx.halt();
            }
        }
    }
}

/// Aggregator shard actor: the simnet driver of [`RecAggMachine`] with
/// a data marker for arithmetic, retaining whole result messages.
struct RecAgg {
    cfg: OmniConfig,
    shard: usize,
    workers: Vec<ActorId>,
    machine: RecAggMachine<bool, RecMsg>,
    counters: RecoveryAggCounters,
    /// Flight lane recording simulated-time protocol events.
    flight: FlightLane,
    /// Eviction sweep period; `None` disables the sweep (every entry
    /// point without a [`SimMembership`] plan).
    sweep_tick: Option<SimTime>,
}

impl RecAgg {
    fn record(&self, ctx: &Ctx<RecMsg>, kind: FlightEventKind, block: u64, wid: usize, aux: u64) {
        let (shard, wid) = (self.shard as u16, wid as u16);
        self.flight
            .record_at(ctx.now().as_nanos(), kind, 0, block, shard, wid, aux);
    }

    fn complete_if_ready(&mut self, ctx: &mut Ctx<RecMsg>, g: usize, v: usize) {
        if !self.machine.ready(g, v) {
            return;
        }
        let layout = *self.machine.layout();
        let mut entries = Vec::with_capacity(layout.width());
        let degraded = self.machine.complete(g, v, |o, &mut touched| {
            let values = if touched {
                layout.block_range(o.block).len()
            } else {
                0
            };
            entries.push(sim_entry(o, values));
        });
        if degraded {
            self.counters.degraded_completions.inc();
        }
        self.counters.results_sent.inc();
        if let Some(first) = entries.first() {
            let (block, len, all) = (first.block as u64, entries.len() as u64, u16::MAX as usize);
            self.record(ctx, FlightEventKind::SlotRelease, block, all, v as u64);
            self.record(ctx, FlightEventKind::ResultTx, block, all, len);
        }
        let bytes = msg_bytes(self.cfg.stream_id, &entries);
        let epoch = self.machine.epoch();
        let result = RecMsg::Result {
            stream: g,
            ver: v as u8,
            epoch,
            entries,
        };
        for w in self.machine.recipients() {
            ctx.send(self.workers[w], result.clone(), bytes);
        }
        self.machine.retain(g, v, result);
    }
}

impl Process<RecMsg> for RecAgg {
    fn on_start(&mut self, ctx: &mut Ctx<RecMsg>) {
        // Never halts: stays able to retransmit results. The run ends
        // when the queue drains.
        self.machine.start(ctx.now().as_nanos());
    }

    fn on_message(&mut self, ctx: &mut Ctx<RecMsg>, _from: ActorId, msg: RecMsg) {
        let RecMsg::Data {
            stream: g,
            ver,
            wid,
            epoch,
            entries,
        } = msg
        else {
            panic!("aggregator got non-data");
        };
        let v = (ver & 1) as usize;
        let was_busy = self.machine.busy();
        let first = entries.first().map(|e| e.block as u64);
        let admit = self
            .machine
            .on_data(g, ver, wid, epoch, ctx.now().as_nanos());
        // Zombies of evicted workers and pre-admission stragglers are
        // dropped unseen; everything else is keyed like the sender's
        // PacketTx so the reconstructor pairs tx with rx.
        if matches!(admit, Admit::Zombie { .. } | Admit::StaleEpoch) {
            return;
        }
        if let Some(block) = first {
            let (now, shard, len) = (
                ctx.now().as_nanos(),
                self.shard as u16,
                entries.len() as u64,
            );
            let kind = FlightEventKind::PacketRx;
            self.flight
                .record_at(now, kind, 0, block, shard, wid as u16, len);
        }
        match admit {
            Admit::Zombie { .. } | Admit::StaleEpoch => unreachable!(),
            Admit::Resend(result) => {
                self.counters.duplicates_ignored.inc();
                if let Some(result @ RecMsg::Result { entries, .. }) = result {
                    self.counters.result_retransmissions.inc();
                    let bytes = msg_bytes(self.cfg.stream_id, entries);
                    ctx.send(self.workers[wid], result.clone(), bytes);
                }
                return;
            }
            Admit::Nack => {
                self.counters.duplicates_ignored.inc();
                let bytes = msg_bytes(self.cfg.stream_id, &[]);
                for w in self.machine.missing(g, v) {
                    self.counters.nacks_sent.inc();
                    self.record(ctx, FlightEventKind::NackTx, NO_BLOCK, w, 0);
                    ctx.send(self.workers[w], RecMsg::Nack { stream: g, ver }, bytes);
                }
                return;
            }
            Admit::Fresh {
                opened,
                lateness_ns,
                ..
            } => {
                if let Some(h) = self.counters.contrib_delay.get(wid) {
                    h.record(lateness_ns);
                }
                if let (true, Some(block)) = (opened, first) {
                    self.record(ctx, FlightEventKind::SlotOccupy, block, wid, v as u64);
                }
            }
        }
        if !was_busy && self.machine.busy() {
            // Idle→busy edge: a new round starts; arm the eviction sweep.
            if let Some(tick) = self.sweep_tick {
                ctx.set_timer(tick, SWEEP_TOKEN);
            }
        }
        for e in &entries {
            *self.machine.fold(g, ver, e.col, e.block, e.next) |= e.values > 0;
        }
        self.complete_if_ready(ctx, g, v);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<RecMsg>, token: u64) {
        debug_assert_eq!(token, SWEEP_TOKEN);
        let Some(tick) = self.sweep_tick else {
            return;
        };
        if !self.machine.busy() {
            // Fully idle: nothing is owed, so nobody can be evicted.
            // Not re-arming lets the event queue drain; the next
            // idle→busy edge re-arms the sweep.
            return;
        }
        while let Some(ev) = self.machine.sweep(ctx.now().as_nanos()) {
            debug_assert!(!ev.abort, "a membership plan drops workers");
            self.counters.evictions.inc();
            self.record(
                ctx,
                FlightEventKind::Eviction,
                NO_BLOCK,
                ev.worker,
                ev.idle_ns,
            );
            let epoch = self.machine.epoch() as u64;
            self.record(
                ctx,
                FlightEventKind::EpochChange,
                NO_BLOCK,
                ev.worker,
                epoch,
            );
            for (g, v) in self.machine.in_flight() {
                self.complete_if_ready(ctx, g, v);
            }
        }
        if self.machine.busy() {
            ctx.set_timer(tick, SWEEP_TOKEN);
        }
    }
}

/// Simulates one Algorithm 2 AllReduce over a lossy fabric.
///
/// `loss` is the per-packet drop probability applied on every NIC;
/// `timeout` the workers' (fixed) retransmission timeout; `seed` drives
/// the loss process (runs are deterministic per seed). For the adaptive
/// RTO policy use [`simulate_recovery_allreduce_with_telemetry`] with a
/// [`SimRtoConfig`].
pub fn simulate_recovery_allreduce(
    cfg: &OmniConfig,
    worker_nic: NicConfig,
    agg_nic: NicConfig,
    loss: f64,
    timeout: SimTime,
    bitmaps: &[NonZeroBitmap],
    seed: u64,
) -> SimOutcome {
    simulate_recovery_allreduce_with_telemetry(
        cfg,
        worker_nic,
        agg_nic,
        loss,
        SimRtoConfig::fixed(timeout),
        bitmaps,
        seed,
        None,
    )
}

/// Like [`simulate_recovery_allreduce`], but takes the full
/// retransmission policy ([`SimRtoConfig`]) and reports loss-path
/// counters (`core.sim_recovery.*`) and fabric counters (`simnet.*`)
/// into `telemetry` when one is given.
#[allow(clippy::too_many_arguments)]
pub fn simulate_recovery_allreduce_with_telemetry(
    cfg: &OmniConfig,
    worker_nic: NicConfig,
    agg_nic: NicConfig,
    loss: f64,
    rto: SimRtoConfig,
    bitmaps: &[NonZeroBitmap],
    seed: u64,
    telemetry: Option<&Telemetry>,
) -> SimOutcome {
    simulate_recovery_allreduce_with_membership(
        cfg, worker_nic, agg_nic, loss, rto, bitmaps, seed, 1, None, telemetry,
    )
}

/// Like [`simulate_recovery_allreduce_with_telemetry`], with a scripted
/// [`SimMembership`] plan: departed workers go silent at simulated
/// times and the aggregator evicts them, completing the collective
/// degraded — the simulated mirror of the live engine's elastic
/// membership, emitting the same `Eviction`/`EpochChange` flight
/// events. Without a plan this is byte-for-byte the plain simulation.
/// `threads` selects the simnet engine's thread count (1 = sequential
/// drain; >1 = conservative parallel windows with identical output).
///
/// `completion` covers the *surviving* workers only; departed workers
/// halt at their scripted time and are excluded.
#[allow(clippy::too_many_arguments)]
pub fn simulate_recovery_allreduce_with_membership(
    cfg: &OmniConfig,
    worker_nic: NicConfig,
    agg_nic: NicConfig,
    loss: f64,
    rto: SimRtoConfig,
    bitmaps: &[NonZeroBitmap],
    seed: u64,
    threads: usize,
    membership: Option<&SimMembership>,
    telemetry: Option<&Telemetry>,
) -> SimOutcome {
    cfg.validate();
    if let Some(m) = membership {
        assert_eq!(m.depart_at.len(), cfg.num_workers, "plan/worker mismatch");
    }
    assert_eq!(bitmaps.len(), cfg.num_workers);
    let mut sim: Simulator<RecMsg> = Simulator::new(seed);
    sim.set_threads(threads.max(1));
    if let Some(t) = telemetry {
        sim.attach_telemetry(t.clone());
    }
    let prefix = "core.sim_recovery";
    let counters = RecoveryCounters::new(telemetry, prefix);
    let agg_counters = RecoveryAggCounters::new(telemetry, prefix, cfg.num_workers);
    let worker_nics: Vec<_> = (0..cfg.num_workers)
        .map(|_| sim.add_nic(worker_nic.with_loss(loss)))
        .collect();
    let shard_nics: Vec<_> = (0..cfg.num_aggregators)
        .map(|_| sim.add_nic(agg_nic.with_loss(loss)))
        .collect();
    let worker_ids: Vec<ActorId> = (0..cfg.num_workers).map(ActorId).collect();
    let shard_ids: Vec<ActorId> = (0..cfg.num_aggregators)
        .map(|a| ActorId(cfg.num_workers + a))
        .collect();
    let failed_sink: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
    // Flight lanes carry *simulated* nanoseconds (`record_at`), so a
    // recording from a lossy sim run feeds the same reconstructor as a
    // live chaos run.
    let flight_lane = |name: &str, role, actor| match telemetry {
        Some(t) => t.flight().lane(name, role, actor),
        None => FlightLane::disabled(),
    };
    let streams = StreamLayout::new(
        cfg.block_spec(),
        cfg.fusion,
        cfg.total_streams(),
        cfg.tensor_len,
    )
    .total_streams();
    for (w, bm) in bitmaps.iter().enumerate() {
        let mut machine = RecWorkerMachine::new(cfg, w, rto.policy());
        machine.start_round(bm.clone());
        sim.add_actor(
            worker_nics[w],
            Box::new(RecWorker {
                cfg: cfg.clone(),
                wid: w,
                machine,
                shards: shard_ids.clone(),
                packets: vec![None; streams],
                timer_gen: vec![0; streams],
                depart_at: membership.and_then(|m| m.depart_at[w]),
                halted: false,
                failed_sink: failed_sink.clone(),
                counters: counters.clone(),
                flight: flight_lane(&format!("worker{w}"), LaneRole::Worker, w as u16),
            }),
        );
    }
    // The aggregators run without a standby; a membership plan drops
    // silent workers after its eviction timeout.
    let mut agg_cfg = cfg.clone();
    agg_cfg.hot_standby = false;
    agg_cfg.degraded_mode = DegradedMode::DropWorker;
    if let Some(m) = membership {
        agg_cfg.worker_eviction_timeout = Duration::from_nanos(m.eviction_timeout.as_nanos());
    }
    let sweep_tick =
        membership.map(|m| SimTime::from_nanos((m.eviction_timeout.as_nanos() / 4).max(1_000)));
    for (a, nic) in shard_nics.iter().enumerate() {
        sim.add_actor(
            *nic,
            Box::new(RecAgg {
                cfg: cfg.clone(),
                shard: a,
                workers: worker_ids.clone(),
                machine: RecAggMachine::new(&agg_cfg, a, false, || false),
                counters: agg_counters.clone(),
                flight: flight_lane(&format!("agg{a}"), LaneRole::Aggregator, a as u16),
                sweep_tick,
            }),
        );
    }
    let report = sim.run();
    let completion = worker_ids
        .iter()
        .filter(|w| membership.is_none_or(|m| m.depart_at[w.0].is_none()))
        .map(|w| report.finished_at[w.0].expect("worker finished"))
        .max()
        .unwrap_or(SimTime::ZERO);
    let worker_tx_bytes = (0..cfg.num_workers)
        .map(|w| report.nic_stats[w].bytes_tx)
        .sum();
    let shard_rx_bytes = shard_nics
        .iter()
        .map(|n| report.nic_stats[n.0].bytes_rx)
        .collect();
    let mut failed_workers = failed_sink.lock().expect("failed sink poisoned").clone();
    failed_workers.sort_unstable();
    SimOutcome {
        completion,
        report,
        worker_tx_bytes,
        shard_rx_bytes,
        failed_workers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::bitmaps_from_sets;
    use omnireduce_simnet::Bandwidth;
    use omnireduce_tensor::gen::{worker_block_sets, OverlapMode};

    fn setup(n: usize, len: usize, sparsity: f64) -> (OmniConfig, Vec<NonZeroBitmap>) {
        let cfg = OmniConfig::new(n, len)
            .with_block_size(256)
            .with_fusion(4)
            .with_streams(8)
            .with_aggregators(n);
        let nblocks = cfg.block_spec().block_count(len);
        let sets = worker_block_sets(n, nblocks, sparsity, OverlapMode::Random, 3);
        (cfg, bitmaps_from_sets(&sets))
    }

    fn nic() -> NicConfig {
        NicConfig::symmetric(Bandwidth::gbps(10.0), SimTime::from_micros(15))
    }

    fn run(loss: f64, seed: u64) -> SimOutcome {
        let (cfg, bms) = setup(4, 1 << 20, 0.5);
        simulate_recovery_allreduce(
            &cfg,
            nic(),
            nic(),
            loss,
            SimTime::from_micros(500),
            &bms,
            seed,
        )
    }

    #[test]
    fn lossless_recovery_close_to_basic_protocol() {
        // With zero loss, the recovery protocol costs only the ack
        // packets relative to the lossless engine — same order of time.
        let (cfg, bms) = setup(4, 1 << 20, 0.5);
        let spec = crate::sim::SimSpec::dedicated(
            cfg.clone(),
            Bandwidth::gbps(10.0),
            SimTime::from_micros(15),
        );
        let basic = crate::sim::simulate_allreduce(&spec, &bms).completion;
        let rec = run(0.0, 1).completion;
        let ratio = rec.as_secs_f64() / basic.as_secs_f64();
        assert!(
            (0.8..2.0).contains(&ratio),
            "recovery {rec} vs basic {basic} (ratio {ratio})"
        );
    }

    #[test]
    fn completes_under_loss() {
        for loss in [0.0001, 0.001, 0.01] {
            let out = run(loss, 7);
            assert!(out.completion > SimTime::ZERO, "loss {loss}");
        }
    }

    #[test]
    fn loss_increases_completion_time() {
        let clean = run(0.0, 5).completion;
        let lossy = run(0.01, 5).completion;
        assert!(
            lossy > clean,
            "1% loss ({lossy}) should exceed lossless ({clean})"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(run(0.005, 9).completion, run(0.005, 9).completion);
    }

    #[test]
    fn departed_worker_is_evicted_and_sim_completes_degraded() {
        let (cfg, bms) = setup(4, 1 << 18, 0.5);
        // Worker 3 crashes mid-stream (the clean run takes ~0.9 ms).
        let plan = SimMembership::stable(4, SimTime::from_micros(1_000))
            .depart(3, SimTime::from_micros(200));
        let run = |seed| {
            let telemetry = Telemetry::with_observability(0, 1 << 16);
            let out = simulate_recovery_allreduce_with_membership(
                &cfg,
                nic(),
                nic(),
                0.0,
                SimRtoConfig::fixed(SimTime::from_micros(500)),
                &bms,
                seed,
                1,
                Some(&plan),
                Some(&telemetry),
            );
            (out, telemetry.flight().snapshot())
        };
        let (out, rec) = run(3);
        // Survivors stall on the dead worker until the eviction fires,
        // then complete degraded: strictly slower than the clean run,
        // and no survivor exhausts its retry budget.
        let clean = simulate_recovery_allreduce_with_membership(
            &cfg,
            nic(),
            nic(),
            0.0,
            SimRtoConfig::fixed(SimTime::from_micros(500)),
            &bms,
            3,
            1,
            None,
            None,
        );
        assert!(
            out.completion > clean.completion,
            "degraded {} vs clean {}",
            out.completion,
            clean.completion
        );
        assert!(out.failed_workers.is_empty(), "{:?}", out.failed_workers);
        // The simulated trace carries the same membership events a live
        // chaos run would: the eviction and its epoch bump.
        let count = |kind: FlightEventKind| {
            rec.lanes
                .iter()
                .flat_map(|l| l.events.iter())
                .filter(|e| e.kind == kind)
                .count()
        };
        // Every shard waiting on the departed worker evicts it
        // independently (per-shard membership, as in the live engine).
        let evictions = count(FlightEventKind::Eviction);
        assert!(
            (1..=cfg.num_aggregators).contains(&evictions),
            "evictions: {evictions}"
        );
        assert!(
            count(FlightEventKind::EpochChange) >= evictions,
            "no epoch change recorded"
        );
        // Deterministic per seed, membership events included.
        let (out2, rec2) = run(3);
        assert_eq!(out.completion, out2.completion);
        assert_eq!(rec.total_events(), rec2.total_events());
    }

    #[test]
    fn stable_membership_plan_matches_plain_simulation() {
        let (cfg, bms) = setup(4, 1 << 18, 0.5);
        let go = |plan: Option<&SimMembership>| {
            simulate_recovery_allreduce_with_membership(
                &cfg,
                nic(),
                nic(),
                0.002,
                SimRtoConfig::fixed(SimTime::from_micros(500)),
                &bms,
                21,
                1,
                plan,
                None,
            )
        };
        // An armed eviction sweep with nobody departing must not change
        // the protocol: same completion time to the nanosecond.
        let plan = SimMembership::stable(4, SimTime::from_micros(50_000));
        assert_eq!(go(None).completion, go(Some(&plan)).completion);
    }

    /// Regression: with an armed eviction sweep, a retransmission
    /// duplicate that lands *after* its phase completed used to flip
    /// the shard back to busy with nothing in flight — no completion
    /// ever cleared the flag again, the sweep timer re-armed forever
    /// and the event queue never drained. This exact shape (4 workers,
    /// 2^12 elements, loss 0.002, seed 21: worker 1's stream-3 packet
    /// drops, everyone retransmits at the fixed RTO, workers 2 and 3's
    /// duplicates trail the completion) livelocked before the fix.
    #[test]
    fn trailing_duplicate_does_not_wedge_the_armed_sweep() {
        let (cfg, bms) = setup(4, 1 << 12, 0.5);
        let plan = SimMembership::stable(4, SimTime::from_micros(50_000));
        let out = simulate_recovery_allreduce_with_membership(
            &cfg,
            nic(),
            nic(),
            0.002,
            SimRtoConfig::fixed(SimTime::from_micros(500)),
            &bms,
            21,
            1,
            Some(&plan),
            None,
        );
        assert!(out.failed_workers.is_empty());
        // The whole run is a few hundred events; a wedged sweep burns
        // the full 2-billion budget instead.
        assert!(out.report.events < 10_000, "events: {}", out.report.events);
    }

    #[test]
    fn heavy_loss_still_terminates() {
        let (cfg, bms) = setup(2, 1 << 16, 0.5);
        let out = simulate_recovery_allreduce(
            &cfg,
            nic(),
            nic(),
            0.10,
            SimTime::from_micros(300),
            &bms,
            11,
        );
        assert!(out.completion > SimTime::ZERO);
    }
}
