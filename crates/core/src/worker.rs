//! The OmniReduce worker driver for reliable transports: Algorithm 1
//! ([`crate::proto::WorkerMachine`]) on a protocol thread over one or
//! more transport lanes.
//!
//! One `allreduce` call runs the full protocol for one tensor:
//!
//! 1. build the non-zero block bitmap (the paper does this on the GPU,
//!    Appendix B.1);
//! 2. for every stream it owns data in, send the stream's first row of
//!    blocks unconditionally, each entry carrying this worker's next
//!    non-zero block in that column;
//! 3. loop: on each result packet, store the aggregated blocks into the
//!    local tensor, and send every block the machine offers in reply; the
//!    round finishes when every shard's streams are done.
//!
//! All streams are outstanding concurrently — that is the fine-grained
//! pipelining of §3.1.1. With one lane every aggregator shard is
//! multiplexed over one transport and the thread blocks in `recv`; with
//! one lane per shard ([`crate::shard::ShardedWorker`]) stream `g` rides
//! lane `shard_of_stream(g)` and receives poll the lanes fairly.

use std::time::Duration;

use omnireduce_telemetry::{Counter, FlightEventKind, FlightLane, LaneRole, Telemetry, NO_BLOCK};
use omnireduce_tensor::{NonZeroBitmap, Tensor};
use omnireduce_transport::{
    codec, BufferPool, Entry, Message, NodeId, Packet, PacketKind, Transport, TransportError,
};

use crate::config::OmniConfig;
use crate::instrument::EngineTrace;
use crate::layout::StreamLayout;
use crate::proto::{Offer, WorkerMachine};
use crate::wire::{decode_next, encode_next};

/// How long one lane is polled before rotating while waiting for
/// results on a multi-lane worker (mirrors the bond's fairness slice).
const LANE_POLL: Duration = Duration::from_micros(200);

/// Traffic counters for one worker, used by tests and by the Table 1
/// "OmniReduce communication volume" reproduction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Data packets sent to aggregators.
    pub packets_sent: u64,
    /// Wire bytes sent (codec-encoded sizes).
    pub bytes_sent: u64,
    /// Blocks transmitted (data entries).
    pub blocks_sent: u64,
    /// Result packets received.
    pub results_received: u64,
    /// AllReduce rounds driven to completion.
    pub rounds_completed: u64,
}

/// Fleet-wide `core.worker.*` registry mirrors of [`WorkerStats`], plus
/// `core.shard.shutdown_errors` (detached no-ops unless built with
/// telemetry).
struct WorkerCounters {
    packets_sent: Counter,
    bytes_sent: Counter,
    blocks_sent: Counter,
    results_received: Counter,
    rounds_completed: Counter,
    shutdown_errors: Counter,
}

impl WorkerCounters {
    fn new(telemetry: Option<&Telemetry>) -> Self {
        let c = |name| telemetry.map_or_else(Counter::detached, |t| t.counter(name));
        WorkerCounters {
            packets_sent: c("core.worker.packets_sent"),
            bytes_sent: c("core.worker.bytes_sent"),
            blocks_sent: c("core.worker.blocks_sent"),
            results_received: c("core.worker.results_received"),
            rounds_completed: c("core.worker.rounds_completed"),
            shutdown_errors: c("core.shard.shutdown_errors"),
        }
    }
}

/// The worker engine. Generic over the transport, so the same code runs
/// over in-process channels, TCP sockets, or tests' mocks.
pub struct OmniWorker<T: Transport> {
    /// One lane (every shard multiplexed) or one lane per shard.
    lanes: Vec<T>,
    cfg: OmniConfig,
    wid: u16,
    machine: WorkerMachine,
    stats: WorkerStats,
    /// Wire bytes sent per destination shard (index = shard); sums to
    /// `stats.bytes_sent`. Multi-aggregator deployments account each
    /// shard's traffic independently (DESIGN §10).
    shard_bytes: Vec<u64>,
    counters: WorkerCounters,
    trace: EngineTrace,
    /// Protocol flight lane (no-op unless the registry's flight
    /// recorder is enabled).
    flight: FlightLane,
    /// Freelists for outgoing packet buffers: each data entry's payload
    /// is checked out here instead of `to_vec()`-ing the block, and
    /// returns after the send (DESIGN §9).
    pool: BufferPool,
    /// Fair-poll rotation over lanes.
    cursor: usize,
}

impl<T: Transport> OmniWorker<T> {
    /// Creates the engine for worker `wid` (must equal the transport's
    /// node id).
    pub fn new(transport: T, cfg: OmniConfig) -> Self {
        Self::over_lanes(vec![transport], cfg)
    }

    /// Like [`OmniWorker::new`], but mirrors traffic counters into
    /// `telemetry`'s `core.worker.*` counters and records an
    /// `allreduce` span per round on a `worker{wid}` track when the
    /// registry's trace recorder is enabled.
    pub fn with_telemetry(transport: T, cfg: OmniConfig, telemetry: &Telemetry) -> Self {
        Self::new(transport, cfg).attach(telemetry)
    }

    /// Creates the engine over one lane, or one lane per aggregator
    /// shard (index = shard). All lanes must agree on the worker id.
    pub(crate) fn over_lanes(lanes: Vec<T>, cfg: OmniConfig) -> Self {
        cfg.validate();
        assert!(
            lanes.len() == 1 || lanes.len() == cfg.num_aggregators,
            "one lane, or one lane per aggregator shard"
        );
        let wid = lanes[0].local_id().0;
        for l in &lanes {
            assert_eq!(l.local_id().0, wid, "lanes must share the worker id");
        }
        assert!(
            (wid as usize) < cfg.num_workers,
            "transport node {wid} is not a worker"
        );
        OmniWorker {
            lanes,
            machine: WorkerMachine::new(&cfg),
            wid,
            stats: WorkerStats::default(),
            shard_bytes: vec![0; cfg.num_aggregators],
            counters: WorkerCounters::new(None),
            trace: EngineTrace::disabled(),
            flight: FlightLane::disabled(),
            pool: BufferPool::for_block_size(cfg.block_size),
            cursor: 0,
            cfg,
        }
    }

    /// Registers the `core.worker.*` counters, the `worker{wid}` trace
    /// track and flight lane, and the pool's telemetry — the same set
    /// whichever constructor built the engine.
    pub(crate) fn attach(mut self, telemetry: &Telemetry) -> Self {
        let name = format!("worker{}", self.wid);
        self.counters = WorkerCounters::new(Some(telemetry));
        self.trace = EngineTrace::new(telemetry, &name);
        self.flight = telemetry.flight().lane(&name, LaneRole::Worker, self.wid);
        self.pool =
            BufferPool::for_block_size(self.cfg.block_size).with_telemetry(&name, telemetry);
        self
    }

    /// Traffic counters so far.
    pub fn stats(&self) -> WorkerStats {
        self.stats
    }

    /// Wire bytes sent to each aggregator shard (index = shard). Sums
    /// to [`WorkerStats::bytes_sent`].
    pub fn shard_bytes(&self) -> &[u64] {
        &self.shard_bytes
    }

    /// This worker's id.
    pub fn wid(&self) -> u16 {
        self.wid
    }

    /// Runs one AllReduce: on return, `tensor` holds the element-wise sum
    /// across all workers.
    pub fn allreduce(&mut self, tensor: &mut Tensor) -> Result<(), TransportError> {
        assert_eq!(
            tensor.len(),
            self.cfg.tensor_len,
            "tensor length does not match group config"
        );
        let round_start = self.trace.start();
        let round = self.stats.rounds_completed as u32;
        self.flight
            .record(FlightEventKind::RoundStart, round, NO_BLOCK, 0, self.wid, 0);
        let encode_t0 = self.flight.now_ns();
        let layout = *self.machine.layout();
        self.machine
            .start_round(NonZeroBitmap::build(tensor, self.cfg.block_spec()));
        for g in layout.active_streams() {
            let mut entries = self.pool.checkout_entries();
            let pool = &mut self.pool;
            self.machine.first_row(g, |o| {
                entries.push(data_entry(pool, &layout, tensor, o));
            });
            self.send_data(g, entries)?;
        }
        self.flight.record(
            FlightEventKind::Encode,
            round,
            NO_BLOCK,
            0,
            self.wid,
            self.flight.now_ns().saturating_sub(encode_t0),
        );

        while !self.machine.round_done() {
            let packet = match self.recv()? {
                Message::Block(p) if p.kind == PacketKind::Result => p,
                other => panic!("worker: unexpected message {:?}", other.tag()),
            };
            self.stats.results_received += 1;
            self.counters.results_received.inc();
            let g = packet.slot as usize;
            self.flight.record(
                FlightEventKind::ResultRx,
                round,
                NO_BLOCK,
                self.cfg.shard_of_stream(g) as u16,
                self.wid,
                packet.entries.len() as u64,
            );
            let mut reply = self.pool.checkout_entries();
            for entry in &packet.entries {
                let (col, requested) = decode_next(entry.next, layout.width());
                // Store the aggregated block.
                if !entry.data.is_empty() {
                    tensor.copy_slice_at(layout.block_range(entry.block).start, &entry.data);
                }
                if let Some(o) = self.machine.on_result(g, col, requested) {
                    reply.push(data_entry(&mut self.pool, &layout, tensor, o));
                }
            }
            if reply.is_empty() {
                self.pool.checkin_entries(reply);
            } else {
                self.send_data(g, reply)?;
            }
        }
        self.stats.rounds_completed += 1;
        self.counters.rounds_completed.inc();
        self.flight
            .record(FlightEventKind::RoundEnd, round, NO_BLOCK, 0, self.wid, 0);
        self.trace.span("allreduce", round_start);
        Ok(())
    }

    /// The lane carrying shard `s`'s traffic.
    fn lane(&self, s: usize) -> &T {
        &self.lanes[s % self.lanes.len()]
    }

    /// Blocks until a message arrives: directly on a single lane, or in
    /// a fair polling sweep over several.
    fn recv(&mut self) -> Result<Message, TransportError> {
        if let [lane] = self.lanes.as_slice() {
            return Ok(lane.recv()?.1);
        }
        let n = self.lanes.len();
        loop {
            for i in 0..n {
                let lane = (self.cursor + i) % n;
                if let Some((_, msg)) = self.lanes[lane].recv_timeout(LANE_POLL)? {
                    self.cursor = (lane + 1) % n;
                    return Ok(msg);
                }
            }
        }
    }

    fn send_data(&mut self, stream: usize, entries: Vec<Entry>) -> Result<(), TransportError> {
        let blocks = entries.iter().filter(|e| !e.is_ack()).count() as u64;
        // One flight event per fused message (not per block), keyed by
        // the first entry's block — the aggregator mirrors the key on
        // its PacketRx so the reconstructor can pair them.
        let first_block = entries.first().map(|e| e.block);
        let msg = Message::Block(Packet {
            kind: PacketKind::Data,
            ver: 0,
            slot: stream as u16,
            stream: self.cfg.stream_id,
            wid: self.wid,
            epoch: 0,
            entries,
        });
        let wire_bytes = codec::encoded_len(&msg) as u64;
        self.stats.packets_sent += 1;
        self.stats.blocks_sent += blocks;
        self.stats.bytes_sent += wire_bytes;
        self.counters.packets_sent.inc();
        self.counters.blocks_sent.add(blocks);
        self.counters.bytes_sent.add(wire_bytes);
        let shard = self.cfg.shard_of_stream(stream);
        self.shard_bytes[shard] += wire_bytes;
        if let Some(block) = first_block {
            self.flight.record(
                FlightEventKind::PacketTx,
                self.stats.rounds_completed as u32,
                block as u64,
                shard as u16,
                self.wid,
                wire_bytes,
            );
        }
        let sent = self
            .lane(shard)
            .send(NodeId(self.cfg.aggregator_node(shard)), &msg);
        // `send` borrows the message; its pooled buffers come back for
        // the next packet (DESIGN §9).
        self.pool.recycle_message(msg);
        sent
    }

    /// Tells every aggregator shard this worker is leaving; aggregators
    /// exit once all workers have said goodbye.
    ///
    /// A dead shard must not keep the goodbye from reaching the
    /// surviving ones, so every shard is attempted even after a failure.
    /// Failed goodbyes are counted in `core.shard.shutdown_errors` and
    /// the first error is returned once all shards have been tried.
    pub fn shutdown(self) -> Result<(), TransportError> {
        let mut first_err = None;
        for s in 0..self.cfg.num_aggregators {
            let sent = self
                .lane(s)
                .send(NodeId(self.cfg.aggregator_node(s)), &Message::Shutdown);
            if let Err(e) = sent {
                self.counters.shutdown_errors.inc();
                first_err.get_or_insert(e);
            }
        }
        first_err.map_or(Ok(()), Err)
    }
}

/// A data entry for offer `o`: a pooled copy of the block (no `to_vec`
/// per block) carrying the offer's next.
fn data_entry(pool: &mut BufferPool, layout: &StreamLayout, tensor: &Tensor, o: Offer) -> Entry {
    let mut data = pool.checkout_f32();
    data.extend_from_slice(&tensor[layout.block_range(o.block)]);
    Entry::data(o.block, encode_next(o.next, o.col, layout.width()), data)
}
