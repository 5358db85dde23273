//! The Algorithm 2 aggregator as a pure state machine.

use omnireduce_tensor::{BlockIdx, INFINITY_BLOCK};
use omnireduce_transport::{CheckpointDelta, MEMBERSHIP_ONLY};

use super::{epoch_before, Offer};
use crate::config::{DegradedMode, OmniConfig};
use crate::layout::StreamLayout;
use crate::shard::ShardMap;
use crate::slot::ColAccumulator;

/// A recovery aggregator's per-column arithmetic: reset in place when a
/// version's fresh phase opens.
pub trait PhaseAcc {
    /// Forgets the previous phase, keeping every buffer.
    fn reset(&mut self);
}

impl PhaseAcc for ColAccumulator {
    fn reset(&mut self) {
        ColAccumulator::reset(self);
    }
}

/// The simulator's accumulator: whether any contribution carried data.
impl PhaseAcc for bool {
    fn reset(&mut self) {
        *self = false;
    }
}

/// One column of one slot version.
#[derive(Debug, Clone)]
struct Col<A> {
    acc: A,
    /// Block the phase aggregates (acks record it too).
    block: Option<BlockIdx>,
    /// Minimum announced next block; ∞ until announced.
    min_next: BlockIdx,
}

/// Per-stream versioned slot (Algorithm 2 l.26–29).
#[derive(Debug, Clone)]
struct Slot<A, R> {
    /// Per-version, per-column phase state.
    cols: [Vec<Col<A>>; 2],
    /// `seen[v][w]`: worker `w`'s packet for version `v` is aggregated.
    seen: [Vec<bool>; 2],
    /// Distinct workers aggregated in version `v`'s current phase.
    count: [usize; 2],
    /// Completed result per version, kept for retransmission.
    result: [Option<R>; 2],
    /// When version `v`'s current phase opened.
    opened_at: [u64; 2],
}

/// What a data packet's header did to the machine.
#[derive(Debug, PartialEq, Eq)]
pub enum Admit<'a, R> {
    /// The sender is evicted: drop the packet. With `welcome`
    /// ([`DegradedMode::Rejoin`]) answer it with the current `Welcome`
    /// so it fails fast and can re-join.
    Zombie {
        /// Answer with a `Welcome`.
        welcome: bool,
    },
    /// A straggler from before the sender's (re)admission: drop it.
    StaleEpoch,
    /// A duplicate for a completed phase: the sender missed the result,
    /// so unicast the retained one back (Algorithm 2 l.47–49).
    Resend(Option<&'a R>),
    /// A duplicate for a phase in progress: the stall is real, so NACK
    /// every worker in [`RecAggMachine::missing`].
    Nack,
    /// A fresh contribution: fold every entry with
    /// [`RecAggMachine::fold`], then try [`RecAggMachine::complete`].
    Fresh {
        /// The packet opened the version's phase.
        opened: bool,
        /// The retained result the opening retired.
        retired: Option<R>,
        /// Time since the phase opened (0 for the opener).
        lateness_ns: u64,
    },
}

/// A worker the shard stopped waiting for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// The silent worker.
    pub worker: usize,
    /// How long it has been silent.
    pub idle_ns: u64,
    /// [`DegradedMode::Abort`]: the worker stays a member and the run
    /// must fail; otherwise it is evicted, the epoch bumped, and the
    /// phases in [`RecAggMachine::in_flight`] may now complete.
    pub abort: bool,
}

/// How to answer a worker's `Join`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinVerdict {
    /// Not a worker of this group.
    Ignore,
    /// Already a member: answer with the current `Welcome` now.
    Welcome,
    /// Queued for admission at the next full-idle round boundary
    /// ([`RecAggMachine::admit_next`]).
    Queued,
}

/// One aggregator shard's Algorithm 2 state: two versioned slots per
/// owned stream completing on a count of distinct workers, plus the
/// shard's membership (epochs, evictions, deferred joins, departures)
/// and hot-standby replication.
///
/// `A` is the per-column arithmetic ([`ColAccumulator`] live, `bool` in
/// the simulator); `R` is the completed result the driver builds and
/// the machine retains for retransmission. Time comes in as `now_ns`
/// from any monotonic origin. Unlike [`super::AggMachine`], completion
/// is a count, not `cur < min(next)`, so the two stay separate.
#[derive(Debug, Clone)]
pub struct RecAggMachine<A, R> {
    layout: StreamLayout,
    map: ShardMap,
    shard: usize,
    n: usize,
    mode: DegradedMode,
    eviction_timeout_ns: u64,
    /// A hot-standby replica: applies checkpoints instead of producing
    /// them and stays passive until its first data packet.
    standby: bool,
    /// Evicts (primaries always; a standby once failed over to).
    active: bool,
    /// A primary with a standby: produces checkpoint deltas.
    replicate: bool,
    /// Current membership epoch; bumped on every eviction and admission.
    epoch: u8,
    /// Per-worker admission epoch: older data packets are stragglers.
    member_epoch: Vec<u8>,
    /// Per-stream version of the next fresh phase (`Welcome` cursors).
    next_ver: Vec<u8>,
    /// Joins deferred to the next full-idle round boundary.
    pending_joins: Vec<usize>,
    /// Any phase in flight. The idle→busy edge restarts every liveness
    /// clock: only silence while the group waits counts.
    busy: bool,
    /// Per stream; `None` for streams other shards own.
    slots: Vec<Option<Slot<A, R>>>,
    /// Workers that said `Shutdown` (excluded from multicasts).
    departed: Vec<bool>,
    /// Evicted workers (dropped, excluded from multicasts and counts).
    evicted: Vec<bool>,
    /// Last time each worker was heard from.
    last_heard: Vec<u64>,
}

impl<A: PhaseAcc, R> RecAggMachine<A, R> {
    /// Builds shard `shard`'s machine for `cfg`, the standby replica when
    /// `standby`, with one accumulator from `acc` per owned column and
    /// version. Eviction follows `cfg.worker_eviction_timeout` and
    /// `cfg.degraded_mode`; checkpoints follow `cfg.hot_standby`.
    pub fn new(cfg: &OmniConfig, shard: usize, standby: bool, mut acc: impl FnMut() -> A) -> Self {
        let map = ShardMap::new(cfg);
        let layout = *map.layout();
        let n = cfg.num_workers;
        let mut col = || Col {
            acc: acc(),
            block: None,
            min_next: INFINITY_BLOCK,
        };
        let slots = (0..layout.total_streams())
            .map(|g| {
                (map.shard_of_stream(g) == shard).then(|| Slot {
                    cols: [
                        (0..layout.width()).map(|_| col()).collect(),
                        (0..layout.width()).map(|_| col()).collect(),
                    ],
                    seen: [vec![false; n], vec![false; n]],
                    count: [0, 0],
                    result: [None, None],
                    opened_at: [0, 0],
                })
            })
            .collect();
        RecAggMachine {
            layout,
            map,
            shard,
            n,
            mode: cfg.degraded_mode,
            eviction_timeout_ns: cfg.worker_eviction_timeout.as_nanos() as u64,
            standby,
            active: !standby,
            replicate: cfg.hot_standby && !standby,
            epoch: 0,
            member_epoch: vec![0; n],
            next_ver: vec![0; layout.total_streams()],
            pending_joins: Vec::new(),
            busy: false,
            slots,
            departed: vec![false; n],
            evicted: vec![false; n],
            last_heard: vec![0; n],
        }
    }

    /// The stream geometry.
    pub fn layout(&self) -> &StreamLayout {
        &self.layout
    }

    /// True for the hot-standby replica.
    pub fn is_standby(&self) -> bool {
        self.standby
    }

    /// The current membership epoch, stamped into results and `Welcome`s.
    pub fn epoch(&self) -> u8 {
        self.epoch
    }

    /// True while any phase is in flight.
    pub fn busy(&self) -> bool {
        self.busy
    }

    /// True once every worker departed or was evicted.
    pub fn finished(&self) -> bool {
        (0..self.n).all(|w| self.departed[w] || self.evicted[w])
    }

    /// Starts serving: every worker's liveness clock starts at `now_ns`.
    pub fn start(&mut self, now_ns: u64) {
        self.last_heard.fill(now_ns);
    }

    /// Handles the header of worker `wid`'s data packet for stream `g`,
    /// phase `ver`, stamped with `epoch`.
    pub fn on_data(
        &mut self,
        g: usize,
        ver: u8,
        wid: usize,
        epoch: u8,
        now_ns: u64,
    ) -> Admit<'_, R> {
        let v = (ver & 1) as usize;
        if !self.active {
            // The workers failed over to this standby: wake up with
            // fresh liveness clocks.
            self.active = true;
            self.last_heard.fill(now_ns);
        }
        self.last_heard[wid] = now_ns;
        if self.evicted[wid] {
            // Its phases were renormalized without it.
            return Admit::Zombie {
                welcome: self.mode == DegradedMode::Rejoin,
            };
        }
        if epoch_before(epoch, self.member_epoch[wid]) {
            // Its phase state was wiped at (re)admission.
            return Admit::StaleEpoch;
        }
        if !self.busy {
            self.busy = true;
            self.last_heard.fill(now_ns);
        }
        if self.slots[g]
            .as_ref()
            .expect("stream not owned by shard")
            .seen[v][wid]
        {
            // A trailing duplicate of a completed phase opens no work:
            // it must not leave the shard busy (the armed eviction
            // sweep would count the inter-round gap as silence).
            if self.fully_idle() {
                self.busy = false;
            }
            let slot = self.slots[g].as_ref().expect("owned");
            return if slot.count[v] == 0 {
                Admit::Resend(slot.result[v].as_ref())
            } else {
                Admit::Nack
            };
        }
        let slot = self.slots[g].as_mut().expect("owned");
        slot.seen[v][wid] = true;
        slot.seen[v ^ 1][wid] = false;
        slot.count[v] += 1;
        let opened = slot.count[v] == 1;
        let mut retired = None;
        if opened {
            // First packet of a fresh phase: reset the version in place
            // and retire its old result (Algorithm 2 l.36–38).
            slot.opened_at[v] = now_ns;
            for c in slot.cols[v].iter_mut() {
                c.acc.reset();
                c.block = None;
                c.min_next = INFINITY_BLOCK;
            }
            retired = slot.result[v].take();
        }
        Admit::Fresh {
            opened,
            retired,
            lateness_ns: now_ns.saturating_sub(slot.opened_at[v]),
        }
    }

    /// Folds one entry of a fresh contribution to stream `g`, phase
    /// `ver`: block `block` of column `col`, announcing `next`. Returns
    /// the column's accumulator for the driver to fold any payload into.
    /// Acks record the block too, so an all-ack phase still advances.
    pub fn fold(
        &mut self,
        g: usize,
        ver: u8,
        col: usize,
        block: BlockIdx,
        next: BlockIdx,
    ) -> &mut A {
        let slot = self.slots[g].as_mut().expect("stream not owned by shard");
        let c = &mut slot.cols[(ver & 1) as usize][col];
        match c.block {
            None => c.block = Some(block),
            Some(b) => debug_assert_eq!(b, block, "phase mixes blocks"),
        }
        c.min_next = c.min_next.min(next);
        &mut c.acc
    }

    /// Workers a stalled phase of stream `g`, version `v`, still lacks.
    pub fn missing(&self, g: usize, v: usize) -> impl Iterator<Item = usize> + '_ {
        let seen = &self.slots[g].as_ref().expect("owned").seen[v];
        (0..self.n).filter(move |&w| !seen[w] && !self.departed[w] && !self.evicted[w])
    }

    /// Contributions version `v` of stream `g` needs: every worker but
    /// the evicted ones that have not contributed.
    fn needed(&self, g: usize, v: usize) -> usize {
        let slot = self.slots[g].as_ref().expect("owned");
        let missing_evicted = (0..self.n)
            .filter(|&w| self.evicted[w] && !slot.seen[v][w])
            .count();
        self.n - missing_evicted
    }

    /// True when version `v` of stream `g` has a phase in flight with
    /// every contribution it needs (Algorithm 2 l.42, renormalized past
    /// evicted workers).
    pub fn ready(&self, g: usize, v: usize) -> bool {
        let count = self.slots[g].as_ref().expect("owned").count[v];
        count > 0 && count >= self.needed(g, v)
    }

    /// Completes the [`RecAggMachine::ready`] phase of stream `g`,
    /// version `v`: `emit` receives one result per column the phase
    /// touched — its block and new request `min(next)` — with the
    /// column's accumulator to drain. The driver then multicasts the
    /// result to [`RecAggMachine::recipients`] and hands it to
    /// [`RecAggMachine::retain`]. Returns `true` when the phase completed
    /// degraded (without some evicted worker).
    pub fn complete(&mut self, g: usize, v: usize, mut emit: impl FnMut(Offer, &mut A)) -> bool {
        debug_assert!(self.ready(g, v), "completed a phase that is not ready");
        let degraded = self.needed(g, v) < self.n;
        let slot = self.slots[g].as_mut().expect("owned");
        slot.count[v] = 0;
        for (col, c) in slot.cols[v].iter_mut().enumerate() {
            let Some(block) = c.block else { continue };
            let next = c.min_next;
            emit(
                Offer {
                    stream: g,
                    col,
                    block,
                    next,
                },
                &mut c.acc,
            );
        }
        // The next phase of this version must not wait for evicted
        // workers either.
        for (seen, &evicted) in slot.seen[v].iter_mut().zip(&self.evicted) {
            *seen &= !evicted;
        }
        self.next_ver[g] = (v ^ 1) as u8;
        if self.fully_idle() {
            self.busy = false;
        }
        degraded
    }

    /// Retains stream `g`'s completed version-`v` result for
    /// retransmission; returns the one it replaces.
    pub fn retain(&mut self, g: usize, v: usize, result: R) -> Option<R> {
        self.slots[g].as_mut().expect("owned").result[v].replace(result)
    }

    /// Workers results go to: neither departed nor evicted.
    pub fn recipients(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.n).filter(|&w| !self.departed[w] && !self.evicted[w])
    }

    /// True when no phase of any owned slot is in flight — the round
    /// boundary at which membership may change.
    fn fully_idle(&self) -> bool {
        self.slots.iter().flatten().all(|slot| slot.count == [0, 0])
    }

    /// True if some phase in flight lacks worker `w`'s contribution.
    fn waiting_on(&self, w: usize) -> bool {
        self.slots
            .iter()
            .flatten()
            .any(|slot| (0..2).any(|v| slot.count[v] > 0 && !slot.seen[v][w]))
    }

    /// `(stream, version)` of every phase in flight, in order.
    pub fn in_flight(&self) -> Vec<(usize, usize)> {
        let mut phases = Vec::new();
        for (g, slot) in self.slots.iter().enumerate() {
            let Some(slot) = slot else { continue };
            phases.extend((0..2).filter(|&v| slot.count[v] > 0).map(|v| (g, v)));
        }
        phases
    }

    /// The next member the shard waits on that has been silent past the
    /// eviction timeout. Outside [`DegradedMode::Abort`] it is evicted:
    /// the epoch bumps (a later incarnation is told apart from this
    /// one's stragglers) and idle versions forget its seen bit. A passive
    /// standby never evicts: its workers rightly talk to the primary.
    pub fn sweep(&mut self, now_ns: u64) -> Option<Eviction> {
        if !self.active {
            return None;
        }
        let w = (0..self.n).find(|&w| {
            !self.departed[w]
                && !self.evicted[w]
                && now_ns.saturating_sub(self.last_heard[w]) > self.eviction_timeout_ns
                && self.waiting_on(w)
        })?;
        let eviction = Eviction {
            worker: w,
            idle_ns: now_ns.saturating_sub(self.last_heard[w]),
            abort: self.mode == DegradedMode::Abort,
        };
        if eviction.abort {
            return Some(eviction);
        }
        self.evicted[w] = true;
        self.epoch = self.epoch.wrapping_add(1);
        for slot in self.slots.iter_mut().flatten() {
            for v in 0..2 {
                if slot.count[v] == 0 {
                    slot.seen[v][w] = false;
                }
            }
        }
        Some(eviction)
    }

    /// Handles worker `wid`'s `Join`.
    pub fn on_join(&mut self, wid: usize, now_ns: u64) -> JoinVerdict {
        if wid >= self.n {
            return JoinVerdict::Ignore;
        }
        self.last_heard[wid] = now_ns;
        let queued = self.pending_joins.contains(&wid);
        if !self.evicted[wid] && !self.departed[wid] && !queued {
            // A startup join, or a retry racing its own admission.
            return JoinVerdict::Welcome;
        }
        if !queued {
            self.pending_joins.push(wid);
        }
        JoinVerdict::Queued
    }

    /// Admits the next queued joiner if the shard is at a full-idle round
    /// boundary: clears its stale protocol state and bumps the epoch.
    /// The driver replicates [`RecAggMachine::membership_delta`] and sends
    /// the joiner the current `Welcome`.
    pub fn admit_next(&mut self, now_ns: u64) -> Option<usize> {
        if self.pending_joins.is_empty() || !self.fully_idle() {
            return None;
        }
        let w = self.pending_joins.remove(0);
        self.evicted[w] = false;
        self.departed[w] = false;
        self.forget(w);
        self.epoch = self.epoch.wrapping_add(1);
        self.member_epoch[w] = self.epoch;
        self.last_heard[w] = now_ns;
        Some(w)
    }

    /// Clears worker `w`'s seen bits in every slot version (counts are
    /// zero at the idle boundaries where membership changes).
    fn forget(&mut self, w: usize) {
        for slot in self.slots.iter_mut().flatten() {
            slot.seen[0][w] = false;
            slot.seen[1][w] = false;
        }
    }

    /// Handles worker `w`'s `Shutdown`.
    pub fn on_shutdown(&mut self, w: usize, now_ns: u64) {
        if w < self.n && !self.evicted[w] {
            self.departed[w] = true;
            self.last_heard[w] = now_ns;
        }
    }

    /// The `Welcome` phase cursors: for each owned stream in ascending
    /// order, the version its next fresh phase runs.
    pub fn ver_cursors(&self) -> Vec<u8> {
        self.map
            .streams_of(self.shard)
            .map(|g| self.next_ver[g])
            .collect()
    }

    fn evicted_wids(&self) -> Vec<u16> {
        (0..self.n)
            .filter(|&w| self.evicted[w])
            .map(|w| w as u16)
            .collect()
    }

    /// The membership-change delta to replicate after an eviction or
    /// admission (`members`: the admitted workers); `None` unless this is
    /// a primary with a standby.
    pub fn membership_delta(&self, members: Vec<u16>) -> Option<CheckpointDelta> {
        self.replicate.then(|| CheckpointDelta {
            epoch: self.epoch,
            slot: MEMBERSHIP_ONLY,
            ver: 0,
            members,
            evicted: self.evicted_wids(),
            entries: Vec::new(),
        })
    }

    /// The delta replicating stream `g`'s just-completed version-`v`
    /// phase, before any worker sees its result; the driver fills in the
    /// result entries. `None` unless this is a primary with a standby.
    pub fn phase_checkpoint(&self, g: usize, v: usize) -> Option<CheckpointDelta> {
        let seen = &self.slots[g].as_ref().expect("owned").seen[v];
        self.replicate.then(|| CheckpointDelta {
            epoch: self.epoch,
            slot: g as u16,
            ver: v as u8,
            members: (0..self.n).filter(|&w| seen[w]).map(|w| w as u16).collect(),
            evicted: self.evicted_wids(),
            entries: Vec::new(),
        })
    }

    /// Applies a checkpoint delta from the primary: a membership change,
    /// or a completed phase's contributors and next-phase cursor. Returns
    /// `(stream, version)` of such a phase, whose result the driver then
    /// retains with [`RecAggMachine::retain`]. In-flight phases are not
    /// replicated: on failover every surviving worker resends its
    /// outstanding packet and the phase re-aggregates.
    pub fn apply_checkpoint(
        &mut self,
        delta: &CheckpointDelta,
        now_ns: u64,
    ) -> Option<(usize, usize)> {
        if epoch_before(self.epoch, delta.epoch) {
            self.epoch = delta.epoch;
        }
        // The eviction set is replicated wholesale with every delta.
        for (w, evicted) in self.evicted.iter_mut().enumerate() {
            *evicted = delta.evicted.contains(&(w as u16));
        }
        let n = self.n;
        let members = delta
            .members
            .iter()
            .map(|&w| w as usize)
            .filter(move |&w| w < n);
        if delta.slot == MEMBERSHIP_ONLY {
            for w in members {
                self.member_epoch[w] = delta.epoch;
                self.departed[w] = false;
                self.last_heard[w] = now_ns;
                self.forget(w);
            }
            return None;
        }
        let g = delta.slot as usize;
        let v = (delta.ver & 1) as usize;
        let slot = self.slots.get_mut(g)?.as_mut()?;
        slot.count[v] = 0;
        slot.seen[v].fill(false);
        for w in members {
            slot.seen[v][w] = true;
            slot.seen[v ^ 1][w] = false;
        }
        self.next_ver[g] = (v ^ 1) as u8;
        Some((g, v))
    }
}
