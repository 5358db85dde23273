//! Loss-recovery engines (Algorithm 2, Appendix A): OmniReduce over a
//! network that may drop or duplicate packets but, like the paper's DPDK
//! deployment, does not reorder packets between a pair of nodes
//! ([`omnireduce_transport::LossyNetwork`] guarantees this). These are
//! the thread drivers of [`RecWorkerMachine`] and [`RecAggMachine`]; the
//! protocol itself is described in [`crate::proto`].

use std::time::{Duration, Instant};

use omnireduce_telemetry::{
    Counter, FlightEventKind, FlightLane, Gauge, Histogram, LaneRole, Telemetry, NO_BLOCK,
};
use omnireduce_tensor::{NonZeroBitmap, Tensor};
use omnireduce_transport::timer::TimerQueue;
use omnireduce_transport::{
    codec, BufferPool, CheckpointDelta, Entry, Message, NodeId, Packet, PacketKind, Transport,
    TransportError,
};

use crate::config::OmniConfig;
use crate::error::ProtocolError;
use crate::proto::{
    Admit, Answer, Expiry, JoinVerdict, RecAggMachine, RecWorkerMachine, RtoPolicy,
};
use crate::slot::ColAccumulator;
use crate::wire::{decode_next, encode_next};

/// Traffic counters for the recovery worker.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Distinct data/ack packets sent (excluding retransmissions).
    pub packets_sent: u64,
    /// Retransmissions triggered by timer expiry.
    pub retransmissions: u64,
    /// Wire bytes sent, including retransmissions.
    pub bytes_sent: u64,
    /// Blocks transmitted as data entries (excluding retransmissions).
    pub blocks_sent: u64,
    /// Retransmission-timer expirations handled.
    pub timer_fires: u64,
    /// Results ignored because they were stale (finished stream) or
    /// carried an already-processed phase version.
    pub stale_results_ignored: u64,
    /// Exponential-backoff events: timer expirations that doubled the
    /// RTO before retransmitting (adaptive mode only).
    pub backoffs: u64,
    /// Retransmissions solicited by an aggregator NACK (the shard told
    /// us our contribution to a stalled phase is missing). Also counted
    /// in [`RecoveryStats::retransmissions`].
    pub solicited_retransmissions: u64,
    /// Shards re-targeted from the primary aggregator to its hot
    /// standby after the retry budget ran out (at most one per shard
    /// per run).
    pub failovers: u64,
}

/// Registry mirrors of [`RecoveryStats`] under a prefix: `core.recovery`
/// live, `core.sim_recovery` in the simulator. Detached no-ops without a
/// registry.
#[derive(Clone)]
pub(crate) struct RecoveryCounters {
    pub(crate) packets_sent: Counter,
    pub(crate) retransmissions: Counter,
    pub(crate) bytes_sent: Counter,
    pub(crate) blocks_sent: Counter,
    pub(crate) timer_fires: Counter,
    pub(crate) stale_results_ignored: Counter,
    pub(crate) backoffs: Counter,
    pub(crate) peer_unresponsive: Counter,
    pub(crate) solicited_retransmissions: Counter,
    failovers: Counter,
    /// `.shutdown_errors`: departure announcements that failed to send
    /// (the wind-down path keeps going instead of aborting on the first
    /// dead lane).
    shutdown_errors: Counter,
    /// `.rto`: the RTO armed for each sent packet, in µs.
    rto: Histogram,
    /// `.rto_ns`: the last armed RTO, in ns — the live level the
    /// time-series RTO-inflation detector watches.
    rto_ns: Gauge,
    /// `.srtt_ns`: the estimator's smoothed RTT, in ns (0 until the first
    /// un-retransmitted sample), published beside `rto_ns` so inflation
    /// can be told apart from genuine RTT growth.
    srtt_ns: Gauge,
}

impl RecoveryCounters {
    pub(crate) fn new(telemetry: Option<&Telemetry>, prefix: &str) -> Self {
        let name = |n: &str| format!("{prefix}.{n}");
        let c = |n| telemetry.map_or_else(Counter::detached, |t| t.counter(&name(n)));
        let g = |n| telemetry.map_or_else(Gauge::default, |t| t.gauge(&name(n)));
        RecoveryCounters {
            packets_sent: c("packets_sent"),
            retransmissions: c("retransmissions"),
            bytes_sent: c("bytes_sent"),
            blocks_sent: c("blocks_sent"),
            timer_fires: c("timer_fires"),
            stale_results_ignored: c("stale_results_ignored"),
            backoffs: c("backoffs"),
            peer_unresponsive: c("peer_unresponsive"),
            solicited_retransmissions: c("solicited_retransmissions"),
            failovers: c("failovers"),
            shutdown_errors: c("shutdown_errors"),
            rto: telemetry.map_or_else(Histogram::detached, |t| t.histogram(&name("rto"))),
            rto_ns: g("rto_ns"),
            srtt_ns: g("srtt_ns"),
        }
    }

    /// Records an RTO about to be armed, beside the smoothed RTT.
    pub(crate) fn note_rto(&self, rto: Duration, srtt: Option<Duration>) {
        self.rto.record(rto.as_micros() as u64);
        self.rto_ns.set(rto.as_nanos() as u64);
        self.srtt_ns.set(srtt.map_or(0, |d| d.as_nanos() as u64));
    }
}

/// Flight-recorder pairing key for a fused message: its first entry's
/// block ([`NO_BLOCK`] for empty/control messages). Sender and receiver
/// derive the key from the same packet, so tx and rx events match.
fn first_block(msg: &Message) -> u64 {
    match msg {
        Message::Block(p) => p.entries.first().map_or(NO_BLOCK, |e| e.block as u64),
        _ => NO_BLOCK,
    }
}

/// Why an outstanding packet goes out again.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Resend {
    /// Its timer expired after `waited_ns` of waiting.
    Timer { waited_ns: u64 },
    /// Its shard failed over to the standby.
    Failover,
    /// The shard NACKed it.
    Nack,
}

impl Resend {
    /// The flight events of a resend of `wire_bytes`, as `(kind, aux)`:
    /// the cause, then a re-keyed `PacketTx` so the aggregator's
    /// eventual rx pairs with this resend, not the lost original.
    pub(crate) fn events(self, wire_bytes: u64) -> impl Iterator<Item = (FlightEventKind, u64)> {
        use FlightEventKind::*;
        let (cause, kind) = match self {
            // aux = time burnt waiting so far: the recovery overhead.
            Resend::Timer { waited_ns } => (Some((RtoFire, waited_ns)), Retransmit),
            Resend::Failover => (None, Retransmit),
            Resend::Nack => (Some((NackRx, 0)), SolicitedResend),
        };
        cause
            .into_iter()
            .chain([(kind, wire_bytes), (PacketTx, wire_bytes)])
    }
}

/// Worker engine with Algorithm 2 loss recovery: the thread driver of
/// [`RecWorkerMachine`]. It owns the transport, the packets (pooled
/// buffers, kept per stream for retransmission), the timers and the
/// counters; the machine decides everything else.
pub struct RecoveryWorker<T: Transport> {
    transport: T,
    cfg: OmniConfig,
    wid: u16,
    machine: RecWorkerMachine,
    /// Per stream: the outstanding packet, resent on timeout or NACK.
    packets: Vec<Option<Message>>,
    /// Origin of the machine's `now_ns`.
    clock: Instant,
    stats: RecoveryStats,
    /// Wire bytes sent per destination shard (index = shard), so
    /// multi-aggregator deployments can account each shard's traffic
    /// independently (DESIGN §10).
    shard_bytes: Vec<u64>,
    counters: RecoveryCounters,
    /// Protocol flight lane (no-op unless the registry's flight
    /// recorder is enabled).
    flight: FlightLane,
    /// AllReduce rounds completed — the flight recorder's round key.
    /// Private (not part of [`RecoveryStats`]) so chaos-replay equality
    /// on stats stays byte-exact.
    rounds: u64,
    /// Freelists for outgoing packet buffers (payloads and entry lists
    /// are checked out per packet and recycled when the packet's phase
    /// is answered — DESIGN §9).
    pool: BufferPool,
}

impl<T: Transport> RecoveryWorker<T> {
    /// Creates the engine; the transport's node id is the worker id.
    pub fn new(transport: T, cfg: OmniConfig) -> Self {
        cfg.validate();
        let wid = transport.local_id().0;
        assert!(
            (wid as usize) < cfg.num_workers,
            "node {wid} is not a worker"
        );
        let machine = RecWorkerMachine::new(&cfg, wid as usize, RtoPolicy::of(&cfg));
        RecoveryWorker {
            transport,
            wid,
            packets: vec![None; machine.layout().total_streams()],
            machine,
            clock: Instant::now(),
            stats: RecoveryStats::default(),
            shard_bytes: vec![0; cfg.num_aggregators],
            counters: RecoveryCounters::new(None, ""),
            flight: FlightLane::disabled(),
            rounds: 0,
            pool: BufferPool::for_block_size(cfg.block_size),
            cfg,
        }
    }

    /// Like [`RecoveryWorker::new`], but mirrors loss-path counters into
    /// `telemetry`'s `core.recovery.*` counters and records protocol
    /// flight events on a `worker{wid}` lane when the registry's flight
    /// recorder is enabled.
    pub fn with_telemetry(transport: T, cfg: OmniConfig, telemetry: &Telemetry) -> Self {
        let mut w = Self::new(transport, cfg);
        w.counters = RecoveryCounters::new(Some(telemetry), "core.recovery");
        w.flight = telemetry
            .flight()
            .lane(&format!("worker{}", w.wid), LaneRole::Worker, w.wid);
        w
    }

    /// Traffic counters so far.
    pub fn stats(&self) -> RecoveryStats {
        self.stats
    }

    /// Wire bytes sent to each aggregator shard (index = shard). Sums
    /// to [`RecoveryStats::bytes_sent`].
    pub fn shard_bytes(&self) -> &[u64] {
        &self.shard_bytes
    }

    fn now_ns(&self) -> u64 {
        self.clock.elapsed().as_nanos() as u64
    }

    /// Records a flight event of this worker's lane about `shard`.
    fn record(&self, kind: FlightEventKind, block: u64, shard: usize, aux: u64) {
        let (round, shard) = (self.rounds as u32, shard as u16);
        self.flight.record(kind, round, block, shard, self.wid, aux);
    }

    /// The node `shard`'s packets go to: the primary, or the standby
    /// once the shard failed over.
    fn target(&self, shard: usize) -> u16 {
        if self.machine.on_standby(shard) {
            self.cfg.standby_node(shard)
        } else {
            self.cfg.aggregator_node(shard)
        }
    }

    /// Arms stream `g`'s retransmission timer.
    fn arm(&self, timers: &mut TimerQueue<usize>, g: usize, rto: Duration) {
        let srtt = self.machine.srtt(self.machine.shard_of(g));
        self.counters.note_rto(rto, srtt);
        timers.arm(g, Instant::now(), rto);
    }

    /// Runs one AllReduce with loss recovery.
    ///
    /// Fails fast instead of hanging: if `max_retransmits` consecutive
    /// retransmissions of any slot go unanswered, returns
    /// [`ProtocolError::PeerUnresponsive`] (the aggregator for that
    /// shard is presumed dead).
    pub fn allreduce(&mut self, tensor: &mut Tensor) -> Result<(), ProtocolError> {
        assert_eq!(tensor.len(), self.cfg.tensor_len, "tensor length mismatch");
        let round = self.rounds as u32;
        self.flight
            .record(FlightEventKind::RoundStart, round, NO_BLOCK, 0, self.wid, 0);
        let encode_t0 = self.flight.now_ns();
        self.machine
            .start_round(NonZeroBitmap::build(tensor, self.cfg.block_spec()));
        let layout = *self.machine.layout();
        let width = layout.width();
        let mut timers: TimerQueue<usize> = TimerQueue::new();
        for g in layout.active_streams() {
            let mut entries = self.pool.checkout_entries();
            let pool = &mut self.pool;
            self.machine.first_row(g, |o| {
                let mut data = pool.checkout_f32();
                data.extend_from_slice(&tensor[layout.block_range(o.block)]);
                entries.push(Entry::data(
                    o.block,
                    encode_next(o.next, o.col, width),
                    data,
                ));
            });
            self.send_new(g, entries, &mut timers)?;
        }
        let encode_ns = self.flight.now_ns().saturating_sub(encode_t0);
        self.record(FlightEventKind::Encode, NO_BLOCK, 0, encode_ns);

        while !self.machine.round_done() {
            let timeout = timers
                .until_next(Instant::now())
                .unwrap_or(Duration::from_secs(3600));
            match self.transport.recv_timeout(timeout)? {
                Some((_, Message::Block(p))) if p.kind == PacketKind::Result => {
                    self.on_result(&p, tensor, &mut timers)?;
                }
                Some((_, Message::Block(p))) if p.kind == PacketKind::Nack => {
                    let g = p.slot as usize;
                    if let Some(rto) = self.machine.on_nack(g, p.ver) {
                        self.resend(g, Resend::Nack, rto, &mut timers)?;
                    }
                }
                Some((from, Message::Welcome { epoch, .. })) => {
                    // An unsolicited `Welcome` carrying a newer epoch is
                    // the aggregator's zombie answer (`DegradedMode::
                    // Rejoin`): we were evicted. Fail fast so the caller
                    // can `join()` and retry. One at our own epoch
                    // duplicates a join reply.
                    let shard = from.index().saturating_sub(self.cfg.num_workers)
                        % self.cfg.num_aggregators;
                    if self.machine.evicted_by(shard, epoch) {
                        return Err(ProtocolError::Evicted {
                            worker: self.wid as usize,
                            epoch,
                        });
                    }
                }
                Some(_) => {} // ignore anything else
                None => {
                    let now = Instant::now();
                    while let Some(g) = timers.pop_expired(now) {
                        self.on_expiry(g, &mut timers)?;
                    }
                }
            }
        }
        self.rounds += 1;
        self.flight
            .record(FlightEventKind::RoundEnd, round, NO_BLOCK, 0, self.wid, 0);
        Ok(())
    }

    /// Handles a result: writes its blocks into `tensor` and answers
    /// every active column with data or an ack.
    fn on_result(
        &mut self,
        p: &Packet,
        tensor: &mut Tensor,
        timers: &mut TimerQueue<usize>,
    ) -> Result<(), TransportError> {
        let g = p.slot as usize;
        let shard = self.machine.shard_of(g);
        let head = self.machine.on_result(g, p.ver, p.epoch, self.now_ns());
        if head.adopted_epoch {
            self.record(
                FlightEventKind::EpochChange,
                NO_BLOCK,
                shard,
                p.epoch.into(),
            );
        }
        let entries = p.entries.len() as u64;
        self.record(FlightEventKind::ResultRx, NO_BLOCK, shard, entries);
        if !head.fresh {
            self.stats.stale_results_ignored += 1;
            self.counters.stale_results_ignored.inc();
            return Ok(());
        }
        timers.cancel(&g);
        if let Some(downtime) = head.failover_ns {
            // The standby answered: the shard has recovered.
            self.record(FlightEventKind::FailoverEnd, NO_BLOCK, shard, downtime);
        }
        // The answered packet's buffers return before the reply is built.
        if let Some(old) = self.packets[g].take() {
            self.pool.recycle_message(old);
        }
        let layout = *self.machine.layout();
        let width = layout.width();
        let mut reply = self.pool.checkout_entries();
        for entry in &p.entries {
            let (col, requested) = decode_next(entry.next, width);
            if !entry.data.is_empty() {
                tensor.copy_slice_at(layout.block_range(entry.block).start, &entry.data);
            }
            match self.machine.answer(g, col, requested) {
                Some(Answer::Data(o)) => {
                    let mut data = self.pool.checkout_f32();
                    data.extend_from_slice(&tensor[layout.block_range(o.block)]);
                    reply.push(Entry::data(o.block, encode_next(o.next, col, width), data));
                }
                Some(Answer::Ack(o)) => {
                    reply.push(Entry::ack(o.block, encode_next(o.next, col, width)));
                }
                None => {}
            }
        }
        if reply.is_empty() {
            // Every column got ∞: the stream is finished.
            self.pool.checkin_entries(reply);
            return Ok(());
        }
        self.send_new(g, reply, timers)
    }

    /// Handles stream `g`'s expired timer: retransmit, fail over, or
    /// give up.
    fn on_expiry(&mut self, g: usize, timers: &mut TimerQueue<usize>) -> Result<(), ProtocolError> {
        self.stats.timer_fires += 1;
        self.counters.timer_fires.inc();
        let shard = self.machine.shard_of(g);
        match self.machine.on_timer(g, self.now_ns()) {
            Expiry::Idle => {}
            Expiry::Retransmit {
                rto,
                backoff,
                waited_ns,
            } => {
                if backoff {
                    self.stats.backoffs += 1;
                    self.counters.backoffs.inc();
                }
                self.resend(g, Resend::Timer { waited_ns }, rto, timers)?;
            }
            Expiry::FailOver { resend } => {
                self.note_failover(shard);
                for (g2, rto) in resend {
                    self.resend(g2, Resend::Failover, rto, timers)?;
                }
            }
            Expiry::GiveUp {
                retransmits,
                waited_ns,
            } => {
                // The shard's aggregator (and standby, if any) is
                // unresponsive: fail fast, don't retransmit forever.
                self.counters.peer_unresponsive.inc();
                return Err(ProtocolError::PeerUnresponsive {
                    peer: self.target(shard),
                    stream: g,
                    retransmits,
                    elapsed: Duration::from_nanos(waited_ns),
                });
            }
        }
        Ok(())
    }

    /// Counts and records `shard`'s failover to its standby.
    fn note_failover(&mut self, shard: usize) {
        self.stats.failovers += 1;
        self.counters.failovers.inc();
        let (round, primary) = (self.rounds as u32, self.cfg.aggregator_node(shard));
        let kind = FlightEventKind::FailoverBegin;
        self.flight
            .record(kind, round, NO_BLOCK, shard as u16, primary, 0);
    }

    /// Builds stream `g`'s next data packet from `entries`, sends it and
    /// arms its timer.
    fn send_new(
        &mut self,
        g: usize,
        entries: Vec<Entry>,
        timers: &mut TimerQueue<usize>,
    ) -> Result<(), TransportError> {
        let blocks = entries.iter().filter(|e| !e.is_ack()).count() as u64;
        let msg = Message::Block(Packet {
            kind: PacketKind::Data,
            ver: self.machine.ver(g),
            slot: g as u16,
            stream: self.cfg.stream_id,
            wid: self.wid,
            epoch: self.machine.epoch(),
            entries,
        });
        let wire_bytes = codec::encoded_len(&msg) as u64;
        let shard = self.machine.shard_of(g);
        self.stats.blocks_sent += blocks;
        self.stats.packets_sent += 1;
        self.stats.bytes_sent += wire_bytes;
        self.counters.blocks_sent.add(blocks);
        self.counters.packets_sent.inc();
        self.counters.bytes_sent.add(wire_bytes);
        self.shard_bytes[shard] += wire_bytes;
        // One flight event per fused message, keyed by the first
        // entry's block (the aggregator mirrors the key on PacketRx).
        let block = first_block(&msg);
        self.record(FlightEventKind::PacketTx, block, shard, wire_bytes);
        self.transport.send(NodeId(self.target(shard)), &msg)?;
        let rto = self.machine.sent(g, self.now_ns());
        self.arm(timers, g, rto);
        self.packets[g] = Some(msg);
        Ok(())
    }

    /// Sends stream `g`'s outstanding packet again — to the shard's
    /// current target — and re-arms its timer with `rto`.
    fn resend(
        &mut self,
        g: usize,
        why: Resend,
        rto: Duration,
        timers: &mut TimerQueue<usize>,
    ) -> Result<(), TransportError> {
        let shard = self.machine.shard_of(g);
        let msg = self.packets[g].as_ref().expect("outstanding packet");
        let wire_bytes = codec::encoded_len(msg) as u64;
        let block = first_block(msg);
        self.stats.retransmissions += 1;
        self.stats.bytes_sent += wire_bytes;
        self.counters.retransmissions.inc();
        self.counters.bytes_sent.add(wire_bytes);
        self.shard_bytes[shard] += wire_bytes;
        if let Resend::Nack = why {
            self.stats.solicited_retransmissions += 1;
            self.counters.solicited_retransmissions.inc();
        }
        for (kind, aux) in why.events(wire_bytes) {
            self.record(kind, block, shard, aux);
        }
        self.transport.send(NodeId(self.target(shard)), msg)?;
        self.arm(timers, g, rto);
        Ok(())
    }

    /// Negotiates (re)admission with every shard: sends `Join` and
    /// blocks until the matching `Welcome` installs the group's current
    /// membership epoch and this shard's per-stream phase cursors.
    ///
    /// Implicit initial membership makes this optional at startup (a
    /// fresh group is at epoch 0 with all cursors 0, which is exactly
    /// how the engine initializes); it is required after this worker
    /// has been evicted ([`ProtocolError::Evicted`]) or restarted,
    /// because by then the cursors have moved on.
    ///
    /// The aggregator defers admission to the next full-idle round
    /// boundary, so this can block for up to a round. Retries follow
    /// the same budget/failover rules as the data path.
    pub fn join(&mut self) -> Result<(), ProtocolError> {
        // Drain queued traffic first: everything received before the
        // (re)join — results from phases we were evicted out of, and
        // zombie-data `Welcome` replies — belongs to a membership state
        // we are about to supersede. Leaving an old `Welcome` queued
        // would let `join_shard` adopt its epoch and return while the
        // real admission reply (a strictly newer epoch) stays buffered,
        // aborting the next round with a spurious `Evicted`.
        while self.transport.recv_timeout(Duration::ZERO)?.is_some() {}
        for a in 0..self.cfg.num_aggregators {
            self.join_shard(a)?;
        }
        Ok(())
    }

    fn join_shard(&mut self, shard: usize) -> Result<(), ProtocolError> {
        let msg = Message::Join { wid: self.wid };
        let mut retx: u32 = 0;
        loop {
            self.transport.send(NodeId(self.target(shard)), &msg)?;
            let rto = self.machine.rto(shard);
            self.counters.note_rto(rto, self.machine.srtt(shard));
            let deadline = Instant::now() + rto;
            while let Some(left) = deadline
                .checked_duration_since(Instant::now())
                .filter(|d| !d.is_zero())
            {
                match self.transport.recv_timeout(left)? {
                    Some((_, Message::Welcome { epoch, vers })) => {
                        let Some(adopted) = self.machine.install_welcome(shard, epoch, &vers)
                        else {
                            // A zombie answer from before our admission.
                            continue;
                        };
                        if adopted {
                            self.record(
                                FlightEventKind::EpochChange,
                                NO_BLOCK,
                                shard,
                                epoch as u64,
                            );
                        }
                        return Ok(());
                    }
                    // Stale traffic from phases we are no longer part
                    // of; the cursor install supersedes all of it.
                    Some(_) => {}
                    None => break,
                }
            }
            retx += 1;
            if retx <= self.cfg.max_retransmits {
                continue;
            }
            if self.machine.fail_over(shard, self.now_ns()) {
                self.note_failover(shard);
                retx = 0;
                continue;
            }
            self.counters.peer_unresponsive.inc();
            return Err(ProtocolError::PeerUnresponsive {
                peer: self.target(shard),
                stream: shard,
                retransmits: retx - 1,
                elapsed: rto,
            });
        }
    }

    /// Announces departure to every shard — and, when a hot standby is
    /// configured, to the standbys too (they track goodbyes so they can
    /// wind down without ever being promoted).
    ///
    /// Wind-down is symmetric: every lane is attempted even if an
    /// earlier one fails, failed announcements are counted in
    /// `core.recovery.shutdown_errors`, and the first error is returned
    /// after all attempts.
    pub fn shutdown(self) -> Result<(), TransportError> {
        let mut first_err = None;
        for a in 0..self.cfg.num_aggregators {
            let mut targets = vec![self.target(a)];
            if self.cfg.hot_standby && !self.machine.on_standby(a) {
                targets.push(self.cfg.standby_node(a));
            }
            for t in targets {
                if let Err(e) = self.transport.send(NodeId(t), &Message::Shutdown) {
                    self.counters.shutdown_errors.inc();
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

/// Loss-path counters of the recovery aggregator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryAggregatorStats {
    /// Result multicasts performed.
    pub results_sent: u64,
    /// Duplicate packets that triggered a result retransmission.
    pub result_retransmissions: u64,
    /// Duplicate or retransmitted packets discarded by the seen-bit
    /// check without being aggregated (includes the ones that triggered
    /// a result retransmission).
    pub duplicates_ignored: u64,
    /// Workers evicted for unresponsiveness.
    pub evictions: u64,
    /// Phases completed without one or more evicted workers'
    /// contributions ([`crate::config::DegradedMode::DropWorker`]).
    pub degraded_completions: u64,
    /// Data packets from already-evicted workers, dropped on arrival.
    pub evicted_packets_dropped: u64,
    /// Solicited-retransmission requests sent to workers whose
    /// contribution a stalled phase was missing (receiver-driven
    /// recovery).
    pub nacks_sent: u64,
    /// Data packets rejected because they carried a membership epoch
    /// older than the sender's admission epoch (a rejoined worker's
    /// pre-eviction stragglers, dropped deterministically — DESIGN §12).
    pub stale_epoch_dropped: u64,
    /// Workers admitted (or re-admitted) at a round boundary via
    /// `Join`/`Welcome`; each admission bumps the membership epoch.
    pub joins_admitted: u64,
    /// Checkpoint deltas replicated to the hot standby (primaries only).
    pub checkpoints_sent: u64,
    /// Checkpoint deltas applied from the primary (standbys only).
    pub checkpoints_applied: u64,
}

/// Registry mirrors of [`RecoveryAggregatorStats`] under `<prefix>.agg`.
#[derive(Clone)]
pub(crate) struct RecoveryAggCounters {
    pub(crate) results_sent: Counter,
    pub(crate) result_retransmissions: Counter,
    pub(crate) duplicates_ignored: Counter,
    pub(crate) evictions: Counter,
    pub(crate) degraded_completions: Counter,
    pub(crate) nacks_sent: Counter,
    stale_epoch_dropped: Counter,
    joins_admitted: Counter,
    checkpoints_sent: Counter,
    checkpoints_applied: Counter,
    /// `.agg.worker.<w>.contrib_delay_ns`: per worker, how long after a
    /// phase opened this worker's contribution arrived (0 for the phase
    /// opener). The time-series sampler derives the windowed p99 the
    /// straggler-drift detector compares across peers. Empty when
    /// detached.
    pub(crate) contrib_delay: Vec<Histogram>,
}

impl RecoveryAggCounters {
    pub(crate) fn new(telemetry: Option<&Telemetry>, prefix: &str, num_workers: usize) -> Self {
        let c = |n: &str| {
            telemetry.map_or_else(Counter::detached, |t| {
                t.counter(&format!("{prefix}.agg.{n}"))
            })
        };
        RecoveryAggCounters {
            results_sent: c("results_sent"),
            result_retransmissions: c("result_retransmissions"),
            duplicates_ignored: c("duplicates_ignored"),
            evictions: c("evictions"),
            degraded_completions: c("degraded_completions"),
            nacks_sent: c("nacks_sent"),
            stale_epoch_dropped: c("stale_epoch_dropped"),
            joins_admitted: c("joins_admitted"),
            checkpoints_sent: c("checkpoints_sent"),
            checkpoints_applied: c("checkpoints_applied"),
            contrib_delay: telemetry.map_or_else(Vec::new, |t| {
                let h = |w| t.histogram(&format!("{prefix}.agg.worker.{w}.contrib_delay_ns"));
                (0..num_workers).map(h).collect()
            }),
        }
    }
}

/// Aggregator engine with Algorithm 2 loss recovery: the thread driver
/// of [`RecAggMachine`] over f32 [`ColAccumulator`]s. It owns the
/// transport, the result packets (pooled, retained by the machine), the
/// eviction tick and the counters; the machine decides everything else.
pub struct RecoveryAggregator<T: Transport> {
    transport: T,
    cfg: OmniConfig,
    shard: usize,
    machine: RecAggMachine<ColAccumulator, Message>,
    /// Origin of the machine's `now_ns`.
    clock: Instant,
    /// Loss-path counters.
    pub stats: RecoveryAggregatorStats,
    counters: RecoveryAggCounters,
    /// Protocol flight lane (no-op unless the registry's flight
    /// recorder is enabled).
    flight: FlightLane,
    /// Freelists for result-packet buffers (DESIGN §9): retired results
    /// are recycled when their version's state is reused.
    pool: BufferPool,
}

impl<T: Transport> RecoveryAggregator<T> {
    /// Creates the engine for the shard whose node id matches the
    /// transport's. Nodes `W..W+A` are primaries; with
    /// [`OmniConfig::hot_standby`], nodes `W+A..W+2A` are the matching
    /// standbys (standby `s` shares primary `s`'s shard).
    pub fn new(transport: T, cfg: OmniConfig) -> Self {
        cfg.validate();
        let node = transport.local_id().0 as usize;
        assert!(
            node >= cfg.num_workers && node < cfg.mesh_size(),
            "node {node} is not an aggregator"
        );
        let rel = node - cfg.num_workers;
        let shard = rel % cfg.num_aggregators;
        let (n, deterministic) = (cfg.num_workers, cfg.deterministic);
        let machine = RecAggMachine::new(&cfg, shard, rel >= cfg.num_aggregators, || {
            ColAccumulator::new(n, deterministic)
        });
        RecoveryAggregator {
            transport,
            shard,
            machine,
            clock: Instant::now(),
            stats: RecoveryAggregatorStats::default(),
            counters: RecoveryAggCounters::new(None, "", 0),
            flight: FlightLane::disabled(),
            pool: BufferPool::for_block_size(cfg.block_size),
            cfg,
        }
    }

    /// Like [`RecoveryAggregator::new`], but mirrors loss-path counters
    /// into `telemetry`'s `core.recovery.agg.*` counters and records
    /// protocol flight events on an `agg{shard}` lane when the
    /// registry's flight recorder is enabled.
    pub fn with_telemetry(transport: T, cfg: OmniConfig, telemetry: &Telemetry) -> Self {
        let mut a = Self::new(transport, cfg);
        a.counters = RecoveryAggCounters::new(Some(telemetry), "core.recovery", a.cfg.num_workers);
        let lane_name = if a.machine.is_standby() {
            format!("standby{}", a.shard)
        } else {
            format!("agg{}", a.shard)
        };
        a.flight = telemetry
            .flight()
            .lane(&lane_name, LaneRole::Aggregator, a.shard as u16);
        a.pool =
            BufferPool::for_block_size(a.cfg.block_size).with_telemetry("recovery_agg", telemetry);
        a
    }

    fn now_ns(&self) -> u64 {
        self.clock.elapsed().as_nanos() as u64
    }

    /// Serves until every worker says `Shutdown` or has been evicted.
    ///
    /// A worker the shard is still waiting on that stays silent for
    /// [`OmniConfig::worker_eviction_timeout`] is evicted: in
    /// [`crate::config::DegradedMode::DropWorker`] the collective completes without it
    /// (the phase-completion count is renormalized to the survivors);
    /// in [`crate::config::DegradedMode::Abort`] this returns
    /// [`ProtocolError::WorkerEvicted`].
    pub fn run(&mut self) -> Result<(), ProtocolError> {
        // Poll granularity for the eviction sweep: fine enough to
        // detect eviction promptly, coarse enough to stay off the hot
        // path.
        let tick = (self.cfg.worker_eviction_timeout / 4)
            .clamp(Duration::from_millis(1), Duration::from_millis(100));
        self.machine.start(self.now_ns());
        loop {
            if let Some((from, msg)) = self.transport.recv_timeout(tick)? {
                match msg {
                    Message::Block(p) if p.kind == PacketKind::Data => self.handle_data(p)?,
                    Message::Join { wid } => self.handle_join(wid as usize)?,
                    Message::Checkpoint(delta) if self.machine.is_standby() => {
                        self.apply_checkpoint(delta)
                    }
                    // Finished worker: stop multicasting to it (its
                    // endpoint may already be gone).
                    Message::Shutdown => self.machine.on_shutdown(from.index(), self.now_ns()),
                    _ => {} // tolerate anything else on a lossy fabric
                }
            }
            self.admit_pending()?;
            self.sweep_evictions()?;
            if self.machine.finished() {
                return Ok(());
            }
        }
    }

    /// Sends `msg` toward worker `w`, best effort.
    fn send_to(&self, w: usize, msg: &Message) -> Result<(), TransportError> {
        crate::wire::send_best_effort(&self.transport, NodeId(self.cfg.worker_node(w)), msg)
    }

    /// Sends worker `w` the current epoch and phase cursors.
    fn send_welcome(&self, w: usize) -> Result<(), TransportError> {
        let welcome = Message::Welcome {
            epoch: self.machine.epoch(),
            vers: self.machine.ver_cursors(),
        };
        self.send_to(w, &welcome)
    }

    /// Replicates a checkpoint delta to this shard's hot standby.
    fn replicate(&mut self, delta: CheckpointDelta) -> Result<(), TransportError> {
        let msg = Message::Checkpoint(delta);
        self.stats.checkpoints_sent += 1;
        self.counters.checkpoints_sent.inc();
        self.record(
            FlightEventKind::CheckpointTx,
            NO_BLOCK,
            u16::MAX,
            codec::encoded_len(&msg) as u64,
        );
        crate::wire::send_best_effort(
            &self.transport,
            NodeId(self.cfg.standby_node(self.shard)),
            &msg,
        )
    }

    /// Records a flight event of this shard's lane.
    fn record(&self, kind: FlightEventKind, block: u64, wid: u16, aux: u64) {
        self.flight
            .record(kind, 0, block, self.shard as u16, wid, aux);
    }

    /// Records an epoch bump caused by `wid` (`u16::MAX`: the primary).
    fn note_epoch(&self, wid: u16) {
        let epoch = self.machine.epoch() as u64;
        self.record(FlightEventKind::EpochChange, NO_BLOCK, wid, epoch);
    }

    /// Handles a worker's `Join`: a member gets an immediate idempotent
    /// `Welcome`; an evicted (or departed) worker is admitted at the next
    /// full-idle round boundary.
    fn handle_join(&mut self, w: usize) -> Result<(), TransportError> {
        match self.machine.on_join(w, self.now_ns()) {
            JoinVerdict::Ignore => Ok(()),
            JoinVerdict::Welcome => self.send_welcome(w),
            JoinVerdict::Queued => self.admit_pending(),
        }
    }

    /// Admits every queued joiner the machine lets in: replicates the
    /// membership change and sends the `Welcome` the joiner resumes from.
    fn admit_pending(&mut self) -> Result<(), TransportError> {
        while let Some(w) = self.machine.admit_next(self.now_ns()) {
            self.stats.joins_admitted += 1;
            self.counters.joins_admitted.inc();
            self.note_epoch(w as u16);
            if let Some(delta) = self.machine.membership_delta(vec![w as u16]) {
                self.replicate(delta)?;
            }
            self.send_welcome(w)?;
        }
        Ok(())
    }

    /// Applies a checkpoint delta from the primary (standbys only): a
    /// membership change, or a completed phase's result retained for
    /// failed-over workers that missed it (DESIGN §12).
    fn apply_checkpoint(&mut self, delta: CheckpointDelta) {
        let msg = Message::Checkpoint(delta);
        self.stats.checkpoints_applied += 1;
        self.counters.checkpoints_applied.inc();
        self.record(
            FlightEventKind::CheckpointRx,
            NO_BLOCK,
            u16::MAX,
            codec::encoded_len(&msg) as u64,
        );
        let Message::Checkpoint(delta) = msg else {
            unreachable!()
        };
        let epoch = self.machine.epoch();
        let phase = self.machine.apply_checkpoint(&delta, self.now_ns());
        if self.machine.epoch() != epoch {
            self.note_epoch(u16::MAX);
        }
        let Some((g, v)) = phase else {
            return;
        };
        // The same bytes the primary multicast, so a failed-over worker
        // that missed them gets them retransmitted.
        let result = Message::Block(Packet {
            kind: PacketKind::Result,
            ver: v as u8,
            slot: g as u16,
            stream: self.cfg.stream_id,
            wid: u16::MAX,
            epoch: self.machine.epoch(),
            entries: delta.entries,
        });
        if let Some(old) = self.machine.retain(g, v, result) {
            self.pool.recycle_message(old);
        }
    }

    /// Evicts workers the shard is waiting on that have been silent for
    /// longer than the eviction timeout, completing the phases that no
    /// longer need them.
    fn sweep_evictions(&mut self) -> Result<(), ProtocolError> {
        while let Some(ev) = self.machine.sweep(self.now_ns()) {
            let idle = Duration::from_nanos(ev.idle_ns);
            self.stats.evictions += 1;
            self.counters.evictions.inc();
            self.record(
                FlightEventKind::Eviction,
                NO_BLOCK,
                ev.worker as u16,
                ev.idle_ns,
            );
            if ev.abort {
                return Err(ProtocolError::WorkerEvicted {
                    worker: ev.worker,
                    idle,
                });
            }
            self.note_epoch(ev.worker as u16);
            if let Some(delta) = self.machine.membership_delta(Vec::new()) {
                self.replicate(delta)?;
            }
            for (g, v) in self.machine.in_flight() {
                self.complete_if_ready(g, v)?;
            }
        }
        Ok(())
    }

    fn handle_data(&mut self, p: Packet) -> Result<(), TransportError> {
        let (g, v, wid) = (p.slot as usize, (p.ver & 1) as usize, p.wid as usize);
        let admit = self.machine.on_data(g, p.ver, wid, p.epoch, self.now_ns());
        match admit {
            Admit::Zombie { welcome } => {
                self.stats.evicted_packets_dropped += 1;
                return if welcome {
                    self.send_welcome(wid)
                } else {
                    Ok(())
                };
            }
            Admit::StaleEpoch => {
                self.stats.stale_epoch_dropped += 1;
                self.counters.stale_epoch_dropped.inc();
                return Ok(());
            }
            _ => {}
        }
        // Keyed by the first entry's block, mirroring the sender's
        // PacketTx key so the reconstructor can pair tx with rx.
        let first = p.entries.first().map(|e| e.block as u64);
        if let Some(block) = first {
            let (shard, len) = (self.shard as u16, p.entries.len() as u64);
            self.flight
                .record(FlightEventKind::PacketRx, 0, block, shard, p.wid, len);
        }
        match admit {
            Admit::Zombie { .. } | Admit::StaleEpoch => unreachable!(),
            Admit::Resend(result) => {
                self.stats.duplicates_ignored += 1;
                self.counters.duplicates_ignored.inc();
                if let Some(result) = result {
                    self.stats.result_retransmissions += 1;
                    self.counters.result_retransmissions.inc();
                    let node = NodeId(self.cfg.worker_node(wid));
                    crate::wire::send_best_effort(&self.transport, node, result)?;
                }
                return Ok(());
            }
            Admit::Nack => {
                self.stats.duplicates_ignored += 1;
                self.counters.duplicates_ignored.inc();
                // Receiver-driven recovery: solicit exactly the missing
                // workers instead of letting every worker's timer race
                // (DESIGN.md "Fault model & degradation").
                let nack = Message::Block(Packet {
                    kind: PacketKind::Nack,
                    ver: v as u8,
                    slot: g as u16,
                    stream: self.cfg.stream_id,
                    wid: u16::MAX,
                    epoch: self.machine.epoch(),
                    entries: Vec::new(),
                });
                for w in self.machine.missing(g, v) {
                    self.stats.nacks_sent += 1;
                    self.counters.nacks_sent.inc();
                    self.record(FlightEventKind::NackTx, NO_BLOCK, w as u16, 0);
                    self.send_to(w, &nack)?;
                }
                return Ok(());
            }
            Admit::Fresh {
                opened,
                retired,
                lateness_ns,
            } => {
                // Contribution lateness vs the phase opener, for the
                // straggler detector.
                if let Some(h) = self.counters.contrib_delay.get(wid) {
                    h.record(lateness_ns);
                }
                // The retired result's retransmission window is over.
                if let Some(old) = retired {
                    self.pool.recycle_message(old);
                }
                if let (true, Some(block)) = (opened, first) {
                    // The first contribution claims the phase's slot;
                    // released in `complete_if_ready` under the same key.
                    self.record(FlightEventKind::SlotOccupy, block, p.wid, v as u64);
                }
            }
        }
        let width = self.machine.layout().width();
        for entry in &p.entries {
            let (col, next) = decode_next(entry.next, width);
            let acc = self.machine.fold(g, p.ver, col, entry.block, next);
            if !entry.data.is_empty() {
                // Arrival-order mode reduces immediately; §7 mode copies
                // into the worker's persistent buffer. No allocation.
                acc.store(wid, &entry.data);
            }
        }
        self.complete_if_ready(g, v)
    }

    /// Completes version `v` of stream `g` if its phase has every
    /// contribution it needs, multicasting the result to the surviving
    /// workers.
    fn complete_if_ready(&mut self, g: usize, v: usize) -> Result<(), TransportError> {
        if !self.machine.ready(g, v) {
            return Ok(());
        }
        let width = self.machine.layout().width();
        let mut entries = self.pool.checkout_entries();
        let pool = &mut self.pool;
        let degraded = self.machine.complete(g, v, |o, acc| {
            let next = encode_next(o.next, o.col, width);
            if acc.touched() {
                let mut data = pool.checkout_f32();
                acc.take_into(&mut data);
                entries.push(Entry::data(o.block, next, data));
            } else {
                // All-ack phase: every surviving contributor skipped the
                // block (its requester was evicted). The zero aggregate
                // advances the chain without a payload.
                entries.push(Entry::ack(o.block, next));
            }
        });
        if degraded {
            self.stats.degraded_completions += 1;
            self.counters.degraded_completions.inc();
        }
        let (first, len) = (
            entries.first().map(|e| e.block as u64),
            entries.len() as u64,
        );
        // Failover bit-identity invariant (DESIGN §12): the completed
        // phase reaches the standby before any worker sees its result.
        if let Some(mut delta) = self.machine.phase_checkpoint(g, v) {
            delta.entries = entries.clone();
            self.replicate(delta)?;
        }
        let result = Message::Block(Packet {
            kind: PacketKind::Result,
            ver: v as u8,
            slot: g as u16,
            stream: self.cfg.stream_id,
            wid: u16::MAX,
            epoch: self.machine.epoch(),
            entries,
        });
        self.stats.results_sent += 1;
        self.counters.results_sent.inc();
        if let Some(block) = first {
            self.record(FlightEventKind::SlotRelease, block, u16::MAX, v as u64);
            self.record(FlightEventKind::ResultTx, block, u16::MAX, len);
        }
        for w in self.machine.recipients() {
            self.send_to(w, &result)?;
        }
        if let Some(old) = self.machine.retain(g, v, result) {
            self.pool.recycle_message(old);
        }
        Ok(())
    }
}
