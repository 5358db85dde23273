//! Thread-free schedule exploration of the Algorithm 1 machines.
//!
//! W [`WorkerMachine`]s and A [`AggMachine<ColAccumulator>`]s exchange
//! real wire packets (codec-sized, `next` encoded per column) through
//! one in-memory bag of in-flight messages. Every step delivers a
//! message drawn by a seeded RNG, so each seed is one arbitrary delivery
//! order — not even per-link FIFO is kept. For every lossless point of
//! `testing::scenarios()` (its §7 deterministic point included) and every
//! sampled order, each round's output must be bit-identical to
//! `testing::scalar_oracle`, and each worker's per-shard wire bytes must
//! equal what the thread engines send in `testing::run_group`.
//!
//! The schedules run with no threads, sleeps or clocks, so a failing seed
//! replays exactly, and a livelock fails on a delivery budget instead of
//! hanging. Only the byte anchor runs `run_group` (threads, under a
//! deadline), once per scenario and after a schedule of it passed.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Duration;

use omnireduce_core::config::OmniConfig;
use omnireduce_core::layout::StreamLayout;
use omnireduce_core::proto::{AggMachine, Offer, WorkerMachine};
use omnireduce_core::testing::{
    assert_bits_eq, config_of, gen_inputs, run_group, scalar_oracle, scenarios, with_deadline,
    Scenario,
};
use omnireduce_core::wire::{decode_next, encode_next};
use omnireduce_core::ColAccumulator;
use omnireduce_tensor::{NonZeroBitmap, Tensor};
use omnireduce_transport::{codec, Entry, Message, Packet, PacketKind};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Destination of an in-flight packet.
#[derive(Debug, Clone, Copy)]
enum To {
    Agg(usize),
    Worker(usize),
}

/// One whole group as plain data: the machines, the workers' tensors,
/// and the bag of undelivered packets.
struct Group {
    cfg: OmniConfig,
    layout: StreamLayout,
    workers: Vec<WorkerMachine>,
    aggs: Vec<AggMachine<ColAccumulator>>,
    tensors: Vec<Tensor>,
    in_flight: Vec<(To, Packet)>,
    /// `shard_bytes[w][s]`: wire bytes worker `w` sent to shard `s`.
    shard_bytes: Vec<Vec<u64>>,
}

impl Group {
    fn new(cfg: &OmniConfig) -> Self {
        let workers: Vec<WorkerMachine> = (0..cfg.num_workers)
            .map(|_| WorkerMachine::new(cfg))
            .collect();
        Group {
            cfg: cfg.clone(),
            layout: *workers[0].layout(),
            aggs: (0..cfg.num_aggregators)
                .map(|s| {
                    AggMachine::new(cfg, s, || {
                        ColAccumulator::new(cfg.num_workers, cfg.deterministic)
                    })
                })
                .collect(),
            workers,
            tensors: Vec::new(),
            in_flight: Vec::new(),
            shard_bytes: vec![vec![0; cfg.num_aggregators]; cfg.num_workers],
        }
    }

    fn packet(&self, kind: PacketKind, wid: u16, stream: usize, entries: Vec<Entry>) -> Packet {
        Packet {
            kind,
            ver: 0,
            slot: stream as u16,
            stream: self.cfg.stream_id,
            wid,
            epoch: 0,
            entries,
        }
    }

    /// Worker `w`'s data entry for offer `o`: its current block values.
    fn data_entry(&self, w: usize, o: Offer) -> Entry {
        let data = self.tensors[w][self.layout.block_range(o.block)].to_vec();
        Entry::data(
            o.block,
            encode_next(o.next, o.col, self.layout.width()),
            data,
        )
    }

    fn send_data(&mut self, w: usize, stream: usize, entries: Vec<Entry>) {
        let msg = Message::Block(self.packet(PacketKind::Data, w as u16, stream, entries));
        let shard = self.cfg.shard_of_stream(stream);
        self.shard_bytes[w][shard] += codec::encoded_len(&msg) as u64;
        let Message::Block(p) = msg else {
            unreachable!()
        };
        self.in_flight.push((To::Agg(shard), p));
    }

    /// Runs one round over `inputs[w]`, delivering in-flight packets in
    /// the order `rng` draws, and returns the workers' outputs.
    fn round(&mut self, inputs: Vec<Tensor>, rng: &mut ChaCha8Rng) -> Vec<Tensor> {
        self.tensors = inputs;
        let layout = self.layout;
        for w in 0..self.workers.len() {
            let bitmap = NonZeroBitmap::build(&self.tensors[w], self.cfg.block_spec());
            self.workers[w].start_round(bitmap);
            for g in layout.active_streams() {
                let mut offers = Vec::new();
                self.workers[w].first_row(g, |o| offers.push(o));
                let entries = offers.into_iter().map(|o| self.data_entry(w, o)).collect();
                self.send_data(w, g, entries);
            }
        }
        // Every packet carries at least one block or first-row entry, and
        // each result fans out once per worker: a correct round delivers
        // at most 2·W·(streams + blocks) packets, so a livelock fails here.
        let budget = 4 * self.workers.len() * (layout.total_streams() + layout.nblocks());
        let mut delivered = 0;
        while !self.in_flight.is_empty() {
            delivered += 1;
            assert!(delivered <= budget, "livelock: {delivered} deliveries");
            let (to, p) = self
                .in_flight
                .swap_remove(rng.gen_range(0..self.in_flight.len()));
            match to {
                To::Agg(s) => self.deliver_data(s, p),
                To::Worker(w) => self.deliver_result(w, p),
            }
        }
        for (w, m) in self.workers.iter().enumerate() {
            assert!(m.round_done(), "worker {w} stalled with nothing in flight");
        }
        std::mem::take(&mut self.tensors)
    }

    fn deliver_data(&mut self, s: usize, p: Packet) {
        let g = p.slot as usize;
        let width = self.layout.width();
        let agg = &mut self.aggs[s];
        for e in &p.entries {
            let (col, next) = decode_next(e.next, width);
            agg.offer(g, p.wid as usize, col, e.block, next)
                .store(p.wid as usize, &e.data);
        }
        if !agg.is_complete(g) {
            return;
        }
        let mut entries = Vec::new();
        agg.release(g, |r, acc| {
            let mut data = Vec::new();
            acc.take_into(&mut data);
            entries.push(Entry::data(
                r.block,
                encode_next(r.next, r.col, width),
                data,
            ));
        });
        let result = self.packet(PacketKind::Result, u16::MAX, g, entries);
        for w in 0..self.workers.len() {
            self.in_flight.push((To::Worker(w), result.clone()));
        }
    }

    fn deliver_result(&mut self, w: usize, p: Packet) {
        let g = p.slot as usize;
        let mut reply = Vec::new();
        for e in &p.entries {
            let (col, requested) = decode_next(e.next, self.layout.width());
            let at = self.layout.block_range(e.block).start;
            self.tensors[w].copy_slice_at(at, &e.data);
            if let Some(o) = self.workers[w].on_result(g, col, requested) {
                reply.push(self.data_entry(w, o));
            }
        }
        if !reply.is_empty() {
            self.send_data(w, g, reply);
        }
    }
}

fn lossless_points() -> Vec<Scenario> {
    scenarios().into_iter().filter(|s| s.loss == 0.0).collect()
}

/// `run_group`'s per-worker, per-shard wire bytes for lossless point
/// `index` — the thread engines' traffic, computed once per point and
/// only after a thread-free schedule of that point passed.
fn engine_shard_bytes(index: usize, s: &Scenario) -> Vec<Vec<u64>> {
    static ANCHORS: Mutex<BTreeMap<usize, Vec<Vec<u64>>>> = Mutex::new(BTreeMap::new());
    let mut anchors = ANCHORS.lock().expect("anchor cache poisoned");
    let s = *s;
    anchors
        .entry(index)
        .or_insert_with(|| {
            with_deadline(Duration::from_secs(60), move || {
                run_group(&config_of(&s), gen_inputs(&s)).shard_bytes
            })
        })
        .clone()
}

/// Runs every round of scenario `s` under the delivery order of `seed`.
fn check_schedule(index: usize, s: &Scenario, seed: u64) {
    let cfg = config_of(s);
    let inputs = gen_inputs(s);
    let mut group = Group::new(&cfg);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    for r in 0..s.rounds {
        let round_inputs = inputs.iter().map(|w| w[r].clone()).collect();
        let outputs = group.round(round_inputs, &mut rng);
        let want = scalar_oracle(&inputs, r);
        for (w, out) in outputs.iter().enumerate() {
            let ctx = format!("scenario seed {} round {r} worker {w} order {seed}", s.seed);
            assert_bits_eq(out, &want, &ctx);
        }
    }
    assert_eq!(
        group.shard_bytes,
        engine_shard_bytes(index, s),
        "scenario seed {} order {seed}: per-shard wire bytes differ from run_group",
        s.seed
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every sampled delivery order of every lossless point reduces
    /// bit-identically to the oracle with the engines' exact traffic.
    #[test]
    fn every_delivery_order_matches_oracle_and_engine_bytes(seed in any::<u64>()) {
        for (i, s) in lossless_points().iter().enumerate() {
            check_schedule(i, s, seed);
        }
    }
}

/// The empty-shard edge: with one block and two shards, shard 1 owns
/// nothing and the round must still finish (born-complete join).
#[test]
fn born_empty_shard_does_not_hold_the_round() {
    let cfg = OmniConfig::new(2, 4)
        .with_block_size(4)
        .with_fusion(1)
        .with_streams(1)
        .with_aggregators(2);
    let inputs = vec![
        Tensor::from_vec(vec![1.0, 0.0, 2.0, 0.5]),
        Tensor::from_vec(vec![0.25, 1.0, 0.0, 0.0]),
    ];
    let mut group = Group::new(&cfg);
    assert_eq!(group.aggs[1].active_streams(), 0);
    let outputs = group.round(inputs, &mut ChaCha8Rng::seed_from_u64(7));
    for out in &outputs {
        assert_eq!(out.as_slice(), &[1.25, 1.0, 2.0, 0.5]);
    }
    assert_eq!(group.shard_bytes[0][1], 0, "nothing may go to shard 1");
}
