//! The OmniReduce aggregator driver for reliable transports: Algorithm 1
//! ([`crate::proto::AggMachine`]) on a protocol thread.
//!
//! One aggregator shard serves the streams assigned to it. Per stream the
//! machine keeps one *slot*: for each fused column, an accumulator for
//! the block currently being aggregated plus every worker's announced
//! next non-zero block in that column. When, for every active column, the
//! current block index is below the minimum of the workers' nexts, the
//! slot is complete: the shard multicasts the aggregated row (with the
//! new per-column requests — the global minima) to all workers, advances
//! the columns, and resets the accumulators (Algorithm 1 lines 19–27).
//!
//! The driver is generic over the column arithmetic `A`: the f32
//! [`ColAccumulator`] by default, fixed point for
//! [`crate::switch::SwitchAggregator`]. The shard runs until every
//! worker has sent a `Shutdown`.

use omnireduce_telemetry::{Counter, FlightEventKind, FlightLane, LaneRole, Telemetry};
use omnireduce_transport::{
    BufferPool, Entry, Message, NodeId, Packet, PacketKind, Transport, TransportError,
};

use crate::config::OmniConfig;
use crate::proto::AggMachine;
use crate::slot::{Accumulator, ColAccumulator};
use crate::wire::{decode_next, encode_next};

/// Data-plane counters of one aggregator shard (observability for
/// operators; also used by tests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AggregatorStats {
    /// Data packets processed.
    pub packets: u64,
    /// Data entries aggregated (blocks received, incl. duplicates of the
    /// same position from different workers).
    pub blocks_received: u64,
    /// Slots (block rows) completed and multicast.
    pub slots_completed: u64,
    /// AllReduce rounds fully served (every owned stream reset).
    pub rounds_completed: u64,
    /// Result packets multicast to the workers.
    pub results_sent: u64,
}

/// Fleet-wide `core.aggregator.*` registry mirrors of
/// [`AggregatorStats`] (detached no-ops unless built via
/// [`OmniAggregator::with_telemetry`]).
struct AggregatorCounters {
    packets: Counter,
    blocks_received: Counter,
    slots_completed: Counter,
    rounds_completed: Counter,
    results_sent: Counter,
}

impl AggregatorCounters {
    fn new(telemetry: Option<&Telemetry>) -> Self {
        let c = |name| telemetry.map_or_else(Counter::detached, |t| t.counter(name));
        AggregatorCounters {
            packets: c("core.aggregator.packets"),
            blocks_received: c("core.aggregator.blocks_received"),
            slots_completed: c("core.aggregator.slots_completed"),
            rounds_completed: c("core.aggregator.rounds_completed"),
            results_sent: c("core.aggregator.results_sent"),
        }
    }
}

/// The aggregator shard engine.
pub struct OmniAggregator<T: Transport, A = ColAccumulator> {
    transport: T,
    cfg: OmniConfig,
    shard: usize,
    machine: AggMachine<A>,
    /// Workers that sent `Shutdown` (finished; excluded from multicasts).
    departed: Vec<bool>,
    goodbyes: usize,
    /// Data-plane counters.
    pub stats: AggregatorStats,
    counters: AggregatorCounters,
    /// Protocol flight lane (no-op unless the registry's flight
    /// recorder is enabled).
    flight: FlightLane,
    /// Freelists for result-packet buffers (checked out at completion,
    /// recycled after the multicast — DESIGN §9).
    pool: BufferPool,
}

impl<T: Transport> OmniAggregator<T> {
    /// Creates the engine for the shard whose node id matches the
    /// transport's.
    pub fn new(transport: T, cfg: OmniConfig) -> Self {
        let (workers, deterministic) = (cfg.num_workers, cfg.deterministic);
        Self::with_accumulators(transport, cfg, || {
            ColAccumulator::new(workers, deterministic)
        })
    }

    /// Like [`OmniAggregator::new`], but mirrors data-plane counters into
    /// `telemetry`'s `core.aggregator.*` counters (and the buffer pool's
    /// hit/miss counters under `transport.pool.aggregator.*`).
    pub fn with_telemetry(transport: T, cfg: OmniConfig, telemetry: &Telemetry) -> Self {
        let mut a = Self::new(transport, cfg);
        a.counters = AggregatorCounters::new(Some(telemetry));
        a.flight = telemetry.flight().lane(
            &format!("agg{}", a.shard),
            LaneRole::Aggregator,
            a.shard as u16,
        );
        a.pool =
            BufferPool::for_block_size(a.cfg.block_size).with_telemetry("aggregator", telemetry);
        a
    }
}

impl<T: Transport, A: Accumulator> OmniAggregator<T, A> {
    /// Creates the engine with one accumulator from `acc` per owned
    /// column.
    pub(crate) fn with_accumulators(transport: T, cfg: OmniConfig, acc: impl FnMut() -> A) -> Self {
        cfg.validate();
        let node = transport.local_id().0 as usize;
        assert!(
            node >= cfg.num_workers && node < cfg.mesh_size(),
            "transport node {node} is not an aggregator"
        );
        let shard = node - cfg.num_workers;
        OmniAggregator {
            transport,
            machine: AggMachine::new(&cfg, shard, acc),
            shard,
            departed: vec![false; cfg.num_workers],
            goodbyes: 0,
            stats: AggregatorStats::default(),
            counters: AggregatorCounters::new(None),
            flight: FlightLane::disabled(),
            pool: BufferPool::for_block_size(cfg.block_size),
            cfg,
        }
    }

    /// Shard index of this aggregator.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Serves the group until every worker sends `Shutdown`.
    pub fn run(&mut self) -> Result<(), TransportError> {
        loop {
            let (from, msg) = self.transport.recv()?;
            match msg {
                Message::Block(p) if p.kind == PacketKind::Data => {
                    self.handle_data(p)?;
                }
                Message::Shutdown => {
                    // The worker has finished every round it will run;
                    // stop multicasting results to it (its endpoint may
                    // already be gone).
                    if !self.departed[from.index()] {
                        self.departed[from.index()] = true;
                        self.goodbyes += 1;
                    }
                    if self.goodbyes == self.cfg.num_workers {
                        return Ok(());
                    }
                }
                other => panic!("aggregator: unexpected {:?} from {from}", other.tag()),
            }
        }
    }

    fn handle_data(&mut self, p: Packet) -> Result<(), TransportError> {
        let g = p.slot as usize;
        let width = self.machine.layout().width();
        let blocks = p.entries.iter().filter(|e| !e.data.is_empty()).count() as u64;
        self.stats.packets += 1;
        self.stats.blocks_received += blocks;
        self.counters.packets.inc();
        self.counters.blocks_received.add(blocks);
        // Keyed by the first entry's block, mirroring the sender's
        // PacketTx key so the reconstructor can pair tx with rx.
        if let Some(first) = p.entries.first() {
            self.flight.record(
                FlightEventKind::PacketRx,
                0,
                first.block as u64,
                self.shard as u16,
                p.wid,
                blocks,
            );
        }
        for entry in &p.entries {
            let (col, next) = decode_next(entry.next, width);
            let acc = self
                .machine
                .offer(g, p.wid as usize, col, entry.block, next);
            if !entry.data.is_empty() {
                if !acc.touched() {
                    // First contribution claims the column's slot.
                    self.flight.record(
                        FlightEventKind::SlotOccupy,
                        0,
                        entry.block as u64,
                        self.shard as u16,
                        p.wid,
                        col as u64,
                    );
                }
                // Reduce into the accumulator's persistent buffers (no
                // per-block allocation; vectorized reduction kernel).
                acc.store(p.wid as usize, &entry.data);
            }
        }
        if self.machine.is_complete(g) {
            self.release(g)?;
        }
        Ok(())
    }

    /// Multicasts stream `g`'s completed row and advances the slot.
    fn release(&mut self, g: usize) -> Result<(), TransportError> {
        let width = self.machine.layout().width();
        // Build the result packet from pooled buffers (DESIGN §9): the
        // entry list and each payload come from the freelists and return
        // to them right after the multicast, so the steady state
        // allocates nothing.
        let mut entries = self.pool.checkout_entries();
        let pool = &mut self.pool;
        let round_done = self.machine.release(g, |r, acc| {
            debug_assert!(acc.touched(), "completed block with no data");
            let mut data = pool.checkout_f32();
            acc.take_into(&mut data);
            entries.push(Entry::data(
                r.block,
                encode_next(r.next, r.col, width),
                data,
            ));
        });
        if let Some(first) = entries.first() {
            for kind in [FlightEventKind::SlotRelease, FlightEventKind::ResultTx] {
                self.flight.record(
                    kind,
                    0,
                    first.block as u64,
                    self.shard as u16,
                    0,
                    entries.len() as u64,
                );
            }
        }
        let msg = Message::Block(Packet {
            kind: PacketKind::Result,
            ver: 0,
            slot: g as u16,
            stream: self.cfg.stream_id,
            wid: u16::MAX,
            epoch: 0,
            entries,
        });
        self.stats.results_sent += 1;
        self.stats.slots_completed += 1;
        self.counters.results_sent.inc();
        self.counters.slots_completed.inc();
        for w in (0..self.cfg.num_workers).filter(|&w| !self.departed[w]) {
            let node = NodeId(self.cfg.worker_node(w));
            crate::wire::send_best_effort(&self.transport, node, &msg)?;
        }
        // Transports borrow `&Message`: we still own it, so its buffers
        // go back to the freelists for the next completion.
        self.pool.recycle_message(msg);
        if round_done {
            // The last open stream of this round reset: a full
            // AllReduce has been served.
            self.stats.rounds_completed += 1;
            self.counters.rounds_completed.inc();
        }
        Ok(())
    }
}
