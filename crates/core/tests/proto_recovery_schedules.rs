//! Thread-free, clock-free schedule exploration of the Algorithm 2
//! machines — the loss-recovery twin of `proto_schedules.rs`.
//!
//! W [`RecWorkerMachine`]s and A [`RecAggMachine`]s exchange real wire
//! packets (codec-sized, `next` encoded per column) over per-link FIFO
//! queues, the delivery assumption of Algorithm 2. Every step a seeded
//! RNG picks which non-empty link delivers its head, and each data-plane
//! send may be dropped or duplicated. Retransmission timers fire on a
//! virtual clock that advances one hop per delivery and jumps to the
//! next deadline when nothing is in flight. For every point of
//! `testing::scenarios()` each round must be bit-identical to
//! `testing::scalar_oracle` and finish within a delivery budget, so a
//! livelock fails an assertion instead of hanging. On a clean schedule
//! each worker's per-shard wire bytes must equal what the thread engines
//! send in `testing::run_recovery_group`.
//!
//! The membership path — evict, `Join`, deferred `Welcome`, stale-epoch
//! drop, contribution to the next round — runs as a scripted schedule on
//! the same virtual clock.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Mutex;
use std::time::Duration;

use omnireduce_core::config::{DegradedMode, OmniConfig};
use omnireduce_core::layout::StreamLayout;
use omnireduce_core::proto::{
    Admit, Answer, Expiry, JoinVerdict, RecAggMachine, RecWorkerMachine, RtoPolicy,
};
use omnireduce_core::testing::{
    assert_bits_eq, config_of, gen_inputs, run_recovery_group, scalar_oracle, scenarios,
    with_deadline, Scenario,
};
use omnireduce_core::wire::{decode_next, encode_next};
use omnireduce_core::ColAccumulator;
use omnireduce_tensor::{NonZeroBitmap, Tensor};
use omnireduce_transport::{codec, ChannelNetwork, Entry, Message, NodeId, Packet, PacketKind};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Virtual time one delivery takes.
const HOP_NS: u64 = 1_000;

/// A node of the group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Node {
    Worker(usize),
    Agg(usize),
}

/// One whole group as plain data: the machines, the workers' tensors and
/// outstanding packets, the links, the timers and the virtual clock.
struct Group {
    cfg: OmniConfig,
    layout: StreamLayout,
    workers: Vec<RecWorkerMachine>,
    aggs: Vec<RecAggMachine<ColAccumulator, Packet>>,
    tensors: Vec<Tensor>,
    /// `packets[w][g]`: worker `w`'s outstanding packet on stream `g`.
    packets: Vec<Vec<Option<Packet>>>,
    /// Directed links, each FIFO.
    links: BTreeMap<(Node, Node), VecDeque<Message>>,
    /// Armed timers by `(deadline, arm sequence)`: `(worker, stream,
    /// generation)`; a generation behind `timer_gen` is cancelled.
    timers: BTreeMap<(u64, u64), (usize, usize, u64)>,
    timer_gen: Vec<Vec<u64>>,
    arms: u64,
    now: u64,
    /// Per-send drop and duplicate probabilities (data plane only).
    drop: f64,
    dup: f64,
    rng: ChaCha8Rng,
    /// `shard_bytes[w][s]`: wire bytes worker `w` sent to shard `s`.
    shard_bytes: Vec<Vec<u64>>,
    /// Workers a newer-epoch `Welcome` told they were evicted.
    evicted: Vec<bool>,
    /// Workers waiting for their `Join` to be answered.
    joining: Vec<bool>,
}

impl Group {
    fn new(cfg: &OmniConfig, drop: f64, dup: f64, seed: u64) -> Self {
        let n = cfg.num_workers;
        let workers: Vec<RecWorkerMachine> = (0..n)
            .map(|w| RecWorkerMachine::new(cfg, w, RtoPolicy::of(cfg)))
            .collect();
        let layout = *workers[0].layout();
        let streams = layout.total_streams();
        Group {
            cfg: cfg.clone(),
            layout,
            aggs: (0..cfg.num_aggregators)
                .map(|s| {
                    RecAggMachine::new(cfg, s, false, || ColAccumulator::new(n, cfg.deterministic))
                })
                .collect(),
            workers,
            tensors: Vec::new(),
            packets: vec![vec![None; streams]; n],
            links: BTreeMap::new(),
            timers: BTreeMap::new(),
            timer_gen: vec![vec![0; streams]; n],
            arms: 0,
            now: 0,
            drop,
            dup,
            rng: ChaCha8Rng::seed_from_u64(seed),
            shard_bytes: vec![vec![0; cfg.num_aggregators]; n],
            evicted: vec![false; n],
            joining: vec![false; n],
        }
    }

    /// Puts `msg` on the `from → to` link; data-plane packets may be
    /// dropped or duplicated (control messages ride a reliable fabric).
    fn send(&mut self, from: Node, to: Node, msg: Message) {
        let copies = if matches!(msg, Message::Block(_)) {
            if self.rng.gen_bool(self.drop) {
                0
            } else if self.rng.gen_bool(self.dup) {
                2
            } else {
                1
            }
        } else {
            1
        };
        let link = self.links.entry((from, to)).or_default();
        for _ in 0..copies {
            link.push_back(msg.clone());
        }
    }

    fn packet(&self, kind: PacketKind, w: usize, g: usize, entries: Vec<Entry>) -> Packet {
        Packet {
            kind,
            ver: self.workers[w].ver(g),
            slot: g as u16,
            stream: self.cfg.stream_id,
            wid: w as u16,
            epoch: self.workers[w].epoch(),
            entries,
        }
    }

    /// Worker `w`'s data entry carrying its current values of `block`.
    fn data_entry(&self, w: usize, block: u32, next: u32, col: usize) -> Entry {
        let data = self.tensors[w][self.layout.block_range(block)].to_vec();
        Entry::data(block, encode_next(next, col, self.layout.width()), data)
    }

    // ---------------- worker driver ----------------

    /// Starts worker `w`'s round over `tensor`: its first rows go out.
    fn start_worker(&mut self, w: usize, tensor: Tensor) {
        let bitmap = NonZeroBitmap::build(&tensor, self.cfg.block_spec());
        self.tensors[w] = tensor;
        self.workers[w].start_round(bitmap);
        let layout = self.layout;
        for g in layout.active_streams() {
            let mut offers = Vec::new();
            self.workers[w].first_row(g, |o| offers.push(o));
            let entries = offers
                .into_iter()
                .map(|o| self.data_entry(w, o.block, o.next, o.col))
                .collect();
            self.send_new(w, g, entries);
        }
    }

    fn send_new(&mut self, w: usize, g: usize, entries: Vec<Entry>) {
        let p = self.packet(PacketKind::Data, w, g, entries);
        let rto = self.workers[w].sent(g, self.now);
        self.packets[w][g] = Some(p);
        self.transmit(w, g, rto);
    }

    /// Sends worker `w`'s outstanding packet on stream `g` and arms its
    /// timer for `rto`.
    fn transmit(&mut self, w: usize, g: usize, rto: Duration) {
        let p = self.packets[w][g].clone().expect("outstanding packet");
        let shard = self.workers[w].shard_of(g);
        let msg = Message::Block(p);
        self.shard_bytes[w][shard] += codec::encoded_len(&msg) as u64;
        self.send(Node::Worker(w), Node::Agg(shard), msg);
        self.timer_gen[w][g] += 1;
        self.arms += 1;
        let deadline = self.now + rto.as_nanos() as u64;
        self.timers
            .insert((deadline, self.arms), (w, g, self.timer_gen[w][g]));
    }

    fn worker_recv(&mut self, w: usize, from: Node, msg: Message) {
        match msg {
            Message::Block(p) if p.kind == PacketKind::Result => self.on_result(w, p),
            Message::Block(p) if p.kind == PacketKind::Nack => {
                let g = p.slot as usize;
                if let Some(rto) = self.workers[w].on_nack(g, p.ver) {
                    self.transmit(w, g, rto);
                }
            }
            Message::Welcome { epoch, vers } => {
                let Node::Agg(shard) = from else {
                    unreachable!()
                };
                if self.joining[w] {
                    let installed = self.workers[w].install_welcome(shard, epoch, &vers);
                    self.joining[w] = installed.is_none();
                } else if self.workers[w].evicted_by(shard, epoch) {
                    self.evicted[w] = true;
                }
            }
            other => panic!("worker {w} got {other:?}"),
        }
    }

    fn on_result(&mut self, w: usize, p: Packet) {
        let g = p.slot as usize;
        let head = self.workers[w].on_result(g, p.ver, p.epoch, self.now);
        if !head.fresh {
            return;
        }
        self.timer_gen[w][g] += 1;
        self.packets[w][g] = None;
        let width = self.layout.width();
        let mut reply = Vec::new();
        for e in &p.entries {
            let (col, requested) = decode_next(e.next, width);
            let at = self.layout.block_range(e.block).start;
            self.tensors[w].copy_slice_at(at, &e.data);
            match self.workers[w].answer(g, col, requested) {
                Some(Answer::Data(o)) => reply.push(self.data_entry(w, o.block, o.next, col)),
                Some(Answer::Ack(o)) => {
                    reply.push(Entry::ack(o.block, encode_next(o.next, col, width)))
                }
                None => {}
            }
        }
        if !reply.is_empty() {
            self.send_new(w, g, reply);
        }
    }

    fn fire(&mut self, w: usize, g: usize) {
        match self.workers[w].on_timer(g, self.now) {
            Expiry::Idle => {}
            Expiry::Retransmit { rto, .. } => self.transmit(w, g, rto),
            Expiry::FailOver { .. } => unreachable!("no standby deployed"),
            Expiry::GiveUp { retransmits, .. } => {
                panic!("worker {w} gave up on stream {g} after {retransmits} retransmits")
            }
        }
    }

    // ---------------- aggregator driver ----------------

    fn agg_recv(&mut self, s: usize, from: Node, msg: Message) {
        let Node::Worker(w) = from else {
            unreachable!()
        };
        match msg {
            Message::Block(p) if p.kind == PacketKind::Data => {
                self.on_data(s, p);
            }
            Message::Join { wid } => match self.aggs[s].on_join(wid as usize, self.now) {
                JoinVerdict::Welcome => self.welcome(s, w),
                JoinVerdict::Queued | JoinVerdict::Ignore => {}
            },
            other => panic!("shard {s} got {other:?}"),
        }
        self.admit(s);
    }

    fn welcome(&mut self, s: usize, w: usize) {
        let msg = Message::Welcome {
            epoch: self.aggs[s].epoch(),
            vers: self.aggs[s].ver_cursors(),
        };
        self.send(Node::Agg(s), Node::Worker(w), msg);
    }

    /// Admits shard `s`'s deferred joiners if it is at a round boundary.
    fn admit(&mut self, s: usize) {
        while let Some(w) = self.aggs[s].admit_next(self.now) {
            self.welcome(s, w);
        }
    }

    /// Feeds one data packet to shard `s`; returns the verdict's kind.
    fn on_data(&mut self, s: usize, p: Packet) -> &'static str {
        let g = p.slot as usize;
        let v = (p.ver & 1) as usize;
        let w = p.wid as usize;
        let kind = match self.aggs[s].on_data(g, p.ver, w, p.epoch, self.now) {
            Admit::Zombie { welcome } => {
                if welcome {
                    self.welcome(s, w);
                }
                return "zombie";
            }
            Admit::StaleEpoch => return "stale-epoch",
            Admit::Resend(result) => {
                if let Some(result) = result.cloned() {
                    self.send(Node::Agg(s), Node::Worker(w), Message::Block(result));
                }
                return "resend";
            }
            Admit::Nack => {
                let missing: Vec<usize> = self.aggs[s].missing(g, v).collect();
                for m in missing {
                    let nack = Packet {
                        kind: PacketKind::Nack,
                        ver: v as u8,
                        slot: g as u16,
                        stream: self.cfg.stream_id,
                        wid: u16::MAX,
                        epoch: self.aggs[s].epoch(),
                        entries: Vec::new(),
                    };
                    self.send(Node::Agg(s), Node::Worker(m), Message::Block(nack));
                }
                return "nack";
            }
            Admit::Fresh { .. } => "fresh",
        };
        let width = self.layout.width();
        for e in &p.entries {
            let (col, next) = decode_next(e.next, width);
            let acc = self.aggs[s].fold(g, p.ver, col, e.block, next);
            if !e.data.is_empty() {
                acc.store(w, &e.data);
            }
        }
        self.complete(s, g, v);
        kind
    }

    fn complete(&mut self, s: usize, g: usize, v: usize) {
        if !self.aggs[s].ready(g, v) {
            return;
        }
        let width = self.layout.width();
        let mut entries = Vec::new();
        self.aggs[s].complete(g, v, |o, acc| {
            let next = encode_next(o.next, o.col, width);
            if acc.touched() {
                let mut data = Vec::new();
                acc.take_into(&mut data);
                entries.push(Entry::data(o.block, next, data));
            } else {
                entries.push(Entry::ack(o.block, next));
            }
        });
        let result = Packet {
            kind: PacketKind::Result,
            ver: v as u8,
            slot: g as u16,
            stream: self.cfg.stream_id,
            wid: u16::MAX,
            epoch: self.aggs[s].epoch(),
            entries,
        };
        let recipients: Vec<usize> = self.aggs[s].recipients().collect();
        for w in recipients {
            self.send(
                Node::Agg(s),
                Node::Worker(w),
                Message::Block(result.clone()),
            );
        }
        self.aggs[s].retain(g, v, result);
    }

    /// Runs shard `s`'s eviction sweep at the current virtual time.
    fn sweep(&mut self, s: usize) -> Vec<usize> {
        let mut evicted = Vec::new();
        while let Some(ev) = self.aggs[s].sweep(self.now) {
            assert!(!ev.abort, "schedules run with DropWorker or Rejoin");
            evicted.push(ev.worker);
            for (g, v) in self.aggs[s].in_flight() {
                self.complete(s, g, v);
            }
        }
        evicted
    }

    /// Delivers the head of `from → shard 0` and returns the verdict.
    fn on_data_from(&mut self, from: Node) -> &'static str {
        let msg = self
            .links
            .get_mut(&(from, Node::Agg(0)))
            .and_then(VecDeque::pop_front);
        let Some(Message::Block(p)) = msg else {
            panic!("no data packet on {from:?} → shard 0")
        };
        self.now += HOP_NS;
        let verdict = self.on_data(0, p);
        self.admit(0);
        verdict
    }

    // ---------------- scheduler ----------------

    /// Delivers the head of the `from → to` link.
    fn deliver(&mut self, from: Node, to: Node) {
        let msg = self
            .links
            .get_mut(&(from, to))
            .and_then(VecDeque::pop_front)
            .unwrap_or_else(|| panic!("nothing on {from:?} → {to:?}"));
        self.now += HOP_NS;
        match to {
            Node::Agg(s) => self.agg_recv(s, from, msg),
            Node::Worker(w) => self.worker_recv(w, from, msg),
        }
    }

    /// Fires the earliest live timer due by now; false when none is.
    fn fire_due(&mut self) -> bool {
        while let Some((&key, &(w, g, gen))) = self.timers.first_key_value() {
            if key.0 > self.now {
                return false;
            }
            self.timers.remove(&key);
            if gen == self.timer_gen[w][g] {
                self.fire(w, g);
                return true;
            }
        }
        false
    }

    /// One scheduler step: a due timer, else a delivery on a random
    /// non-empty link, else a jump to the next deadline.
    fn step(&mut self) {
        if self.fire_due() {
            return;
        }
        let busy: Vec<(Node, Node)> = self
            .links
            .iter()
            .filter(|(_, q)| !q.is_empty())
            .map(|(k, _)| *k)
            .collect();
        if busy.is_empty() {
            let next = self
                .timers
                .keys()
                .next()
                .expect("stalled: nothing in flight and no timer armed");
            self.now = self.now.max(next.0);
            return;
        }
        let (from, to) = busy[self.rng.gen_range(0..busy.len())];
        self.deliver(from, to);
    }

    /// Runs one round over `inputs[w]` under the scheduler and returns
    /// the outputs; fails on a livelock within `budget` steps.
    fn round(&mut self, inputs: Vec<Tensor>, budget: usize) -> Vec<Tensor> {
        self.tensors = inputs.clone();
        for (w, t) in inputs.into_iter().enumerate() {
            self.start_worker(w, t);
        }
        let mut steps = 0;
        while !self.workers.iter().all(RecWorkerMachine::round_done) {
            steps += 1;
            assert!(steps <= budget, "livelock: {steps} steps");
            self.step();
        }
        self.tensors.clone()
    }
}

/// Steps a round may take: a clean round delivers at most 2·W packets
/// per phase and runs at most streams + blocks phases; lossy rounds get
/// 50× that for resends, NACKs and timers.
fn budget(cfg: &OmniConfig, lossy: bool) -> usize {
    let layout = StreamLayout::new(
        cfg.block_spec(),
        cfg.fusion,
        cfg.total_streams(),
        cfg.tensor_len,
    );
    let clean = 4 * cfg.num_workers * (layout.total_streams() + layout.nblocks());
    if lossy {
        50 * clean
    } else {
        clean
    }
}

/// On a clean schedule no timer may fire: a 30 s fixed RTO dwarfs any
/// virtual round. Lossy schedules retransmit on an adaptive RTO.
fn clean_cfg(s: &Scenario) -> OmniConfig {
    config_of(s).with_fixed_rto(Duration::from_secs(30))
}

fn lossy_cfg(s: &Scenario) -> OmniConfig {
    config_of(s)
        .with_initial_rto(Duration::from_micros(500))
        .with_rto_bounds(Duration::from_micros(100), Duration::from_millis(20))
        .with_max_retransmits(200)
}

/// `run_recovery_group`'s per-worker, per-shard wire bytes for point
/// `index` on a clean channel mesh, computed once per point and only
/// after a thread-free schedule of it passed.
fn engine_shard_bytes(index: usize, s: &Scenario) -> Vec<Vec<u64>> {
    static ANCHORS: Mutex<BTreeMap<usize, Vec<Vec<u64>>>> = Mutex::new(BTreeMap::new());
    let mut anchors = ANCHORS.lock().expect("anchor cache poisoned");
    let s = *s;
    anchors
        .entry(index)
        .or_insert_with(|| {
            with_deadline(Duration::from_secs(60), move || {
                let cfg = clean_cfg(&s);
                let mut net = ChannelNetwork::new(cfg.mesh_size());
                let endpoints = (0..cfg.mesh_size())
                    .map(|i| net.endpoint(NodeId(i as u16)))
                    .collect();
                run_recovery_group(&cfg, endpoints, gen_inputs(&s)).shard_bytes
            })
        })
        .clone()
}

/// Runs every round of point `s` with drop/dup probabilities under the
/// schedule of `seed`, checking each round against the oracle.
fn check_schedule(s: &Scenario, cfg: &OmniConfig, drop: f64, seed: u64) -> Group {
    let inputs = gen_inputs(s);
    let mut group = Group::new(cfg, drop, drop / 2.0, seed);
    let budget = budget(cfg, drop > 0.0);
    for r in 0..s.rounds {
        let round_inputs = inputs.iter().map(|w| w[r].clone()).collect();
        let outputs = group.round(round_inputs, budget);
        let want = scalar_oracle(&inputs, r);
        for (w, out) in outputs.iter().enumerate() {
            let ctx = format!(
                "scenario seed {} drop {drop} round {r} worker {w} schedule {seed}",
                s.seed
            );
            assert_bits_eq(out, &want, &ctx);
        }
    }
    group
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every sampled schedule of every point reduces bit-identically to
    /// the oracle: clean points with the engines' exact traffic, lossy
    /// points (and clean points rerun at 10% loss) within the budget.
    #[test]
    fn every_schedule_matches_oracle_and_clean_bytes(seed in any::<u64>()) {
        for (i, s) in scenarios().iter().enumerate() {
            if s.loss > 0.0 {
                check_schedule(s, &lossy_cfg(s), s.loss, seed);
                continue;
            }
            let group = check_schedule(s, &clean_cfg(s), 0.0, seed);
            assert_eq!(
                group.shard_bytes,
                engine_shard_bytes(i, s),
                "scenario seed {} schedule {seed}: per-shard wire bytes differ from run_recovery_group",
                s.seed
            );
            check_schedule(s, &lossy_cfg(s), 0.1, seed);
        }
    }
}

/// Evict → `Join` → deferred `Welcome` → stale-epoch drop → contribution
/// to the next round, scripted on virtual time. Worker 1 sleeps through
/// round 1 and is evicted; its first-row packets (epoch 0) stay in
/// flight and reach the shard during round 2 as zombies, each drawing a
/// `Welcome`. The `Join` that follows is deferred until round 2
/// completes, the second zombie answer must not pass for the admission,
/// a pre-eviction duplicate is then dropped by epoch, and round 3
/// includes worker 1.
#[test]
fn evicted_worker_rejoins_on_virtual_time() {
    // 3 workers, one shard, two streams of one row each: one phase per
    // stream per round, so the shard is fully idle exactly between
    // rounds.
    let cfg = OmniConfig::new(3, 16)
        .with_block_size(4)
        .with_fusion(2)
        .with_streams(2)
        .with_deterministic()
        .with_degraded_mode(DegradedMode::Rejoin)
        .with_eviction_timeout(Duration::from_millis(100))
        .with_fixed_rto(Duration::from_secs(30));
    let mk = |seed: usize| -> Vec<Tensor> {
        (0..3)
            .map(|w| {
                let vals = (0..16).map(|i| ((seed * 7 + w * 5 + i) % 4) as f32 * 0.25 + 0.5);
                Tensor::from_vec(vals.collect())
            })
            .collect()
    };
    let sum = |ts: &[&Tensor]| {
        let mut out = Tensor::zeros(16);
        for t in ts {
            out.add_assign(t);
        }
        out
    };
    let (agg, w0, w1, w2) = (
        Node::Agg(0),
        Node::Worker(0),
        Node::Worker(1),
        Node::Worker(2),
    );
    let quiet = |g: &Group, to: Node| g.links.get(&(agg, to)).is_none_or(VecDeque::is_empty);
    let mut g = Group::new(&cfg, 0.0, 0.0, 1);
    g.tensors = vec![Tensor::zeros(16); 3];

    // Round 1: workers 0 and 2 open both phases; worker 1's first rows
    // are sent but stay in flight (it is asleep).
    let r1 = mk(1);
    for (w, t) in r1.iter().enumerate() {
        g.start_worker(w, t.clone());
    }
    for _ in 0..2 {
        g.deliver(w0, agg);
        g.deliver(w2, agg);
    }
    assert!(g.aggs[0].busy(), "round 1 waits on worker 1");
    // Silence past the eviction timeout evicts worker 1 and completes
    // both phases degraded.
    g.now += Duration::from_millis(101).as_nanos() as u64;
    assert_eq!(g.sweep(0), vec![1]);
    assert_eq!(g.aggs[0].epoch(), 1);
    for _ in 0..2 {
        g.deliver(agg, w0);
        g.deliver(agg, w2);
    }
    assert!(g.workers[0].round_done() && g.workers[2].round_done());
    let degraded = sum(&[&r1[0], &r1[2]]);
    assert_bits_eq(&g.tensors[0], &degraded, "degraded round 1, worker 0");
    assert_bits_eq(&g.tensors[2], &degraded, "degraded round 1, worker 2");

    // Round 2: worker 0's first packet opens stream 0's phase; both of
    // worker 1's stale packets arrive as zombies and draw Welcomes.
    let r2 = mk(2);
    g.start_worker(0, r2[0].clone());
    g.start_worker(2, r2[2].clone());
    g.deliver(w0, agg);
    assert_eq!(g.on_data_from(w1), "zombie");
    assert_eq!(g.on_data_from(w1), "zombie");
    g.deliver(agg, w1);
    assert!(
        g.evicted[1],
        "the zombie answer must tell worker 1 it was evicted"
    );
    // Worker 1 re-joins while round 2 is in flight (control messages
    // ride a reliable fabric of their own): admission is deferred, and
    // the second zombie answer must not pass for it.
    g.joining[1] = true;
    g.agg_recv(0, w1, Message::Join { wid: 1 });
    g.deliver(agg, w1);
    assert!(g.joining[1], "a zombie Welcome admitted the worker");
    assert!(quiet(&g, w1), "admission must wait for the round boundary");
    // Stream 1's phase opens before stream 0's completes, so the shard
    // is idle only once round 2 is over.
    g.deliver(w0, agg);
    g.deliver(w2, agg);
    assert!(quiet(&g, w1), "admitted mid-round");
    g.deliver(w2, agg);
    for _ in 0..2 {
        g.deliver(agg, w0);
        g.deliver(agg, w2);
    }
    assert!(g.workers[0].round_done() && g.workers[2].round_done());
    let degraded = sum(&[&r2[0], &r2[2]]);
    assert_bits_eq(&g.tensors[0], &degraded, "degraded round 2, worker 0");
    // Round 2's last completion left the shard idle: worker 1 was
    // admitted at epoch 2, and its Welcome installs the cursors.
    assert_eq!(g.aggs[0].epoch(), 2);
    g.deliver(agg, w1);
    assert!(!g.joining[1]);
    assert_eq!(g.workers[1].epoch(), 2);
    // A duplicate of a pre-eviction packet (epoch 0) is dropped by epoch.
    let stale = g.packets[1][1].clone().expect("worker 1's stream-1 packet");
    assert_eq!(stale.epoch, 0);
    assert_eq!(g.on_data(0, stale), "stale-epoch");

    // Round 3: all three contribute.
    let r3 = mk(3);
    g.evicted[1] = false;
    let outputs = g.round(r3.clone(), budget(&cfg, false));
    let full = sum(&[&r3[0], &r3[1], &r3[2]]);
    for (w, out) in outputs.iter().enumerate() {
        assert_bits_eq(out, &full, &format!("round 3 after rejoin, worker {w}"));
    }
}
