//! The Algorithm 2 worker as a pure state machine.

use std::time::Duration;

use omnireduce_tensor::{BlockIdx, NonZeroBitmap, INFINITY_BLOCK};
use omnireduce_transport::timer::RttEstimator;

use super::{epoch_before, Offer, WorkerMachine};
use crate::config::OmniConfig;
use crate::layout::StreamLayout;
use crate::shard::ShardMap;

/// The retransmission policy a [`RecWorkerMachine`] runs: the
/// `adaptive_rto`/`retransmit_timeout`/`rto_min`/`rto_max`/
/// `max_retransmits`/`hot_standby` knobs of [`OmniConfig`], or the
/// simulator's `SimRtoConfig` (which never has a standby).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RtoPolicy {
    /// Estimate the RTO from answered packets (SRTT/RTTVAR, backoff,
    /// jitter); when false, always arm `initial`.
    pub adaptive: bool,
    /// Initial RTO, and the fixed RTO when not adaptive.
    pub initial: Duration,
    /// Lower clamp of the adaptive RTO.
    pub min: Duration,
    /// Upper clamp of the adaptive RTO, backoff included.
    pub max: Duration,
    /// Consecutive unanswered retransmissions of one packet before the
    /// shard is given up on (or failed over).
    pub max_retransmits: u32,
    /// Each shard has a hot standby to fail over to, once.
    pub hot_standby: bool,
}

impl RtoPolicy {
    /// The policy `cfg` configures.
    pub fn of(cfg: &OmniConfig) -> Self {
        RtoPolicy {
            adaptive: cfg.adaptive_rto,
            initial: cfg.retransmit_timeout,
            min: cfg.rto_min,
            max: cfg.rto_max,
            max_retransmits: cfg.max_retransmits,
            hot_standby: cfg.hot_standby,
        }
    }
}

/// The packet a worker waits to see answered on one stream. The packet
/// itself stays with the driver.
#[derive(Debug, Clone, Copy)]
struct Outstanding {
    /// When the packet was first sent (RTT sample, give-up report).
    sent_at: u64,
    /// Karn's rule: once retransmitted, the eventual answer is
    /// ambiguous and must not feed the RTT estimator.
    retransmitted: bool,
    /// Consecutive unanswered retransmissions.
    retx: u32,
}

/// What a received result did to the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResultHead {
    /// The result carried a newer membership epoch, now adopted (also
    /// for stale results: any result reveals the group's epoch).
    pub adopted_epoch: bool,
    /// The result answers the stream's outstanding packet: the driver
    /// cancels the stream's timer and feeds every entry to
    /// [`RecWorkerMachine::answer`]. `false` for a stale result (finished
    /// stream, or an already-processed phase).
    pub fresh: bool,
    /// First fresh result after this shard failed over: the downtime
    /// since the failover, in ns.
    pub failover_ns: Option<u64>,
}

/// This worker's answer to one result entry (Algorithm 2 l.17–21).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Answer {
    /// The request is this worker's next block: send it, announcing the
    /// following one.
    Data(Offer),
    /// Another worker owns the request: a data-less acknowledgment of
    /// the requested block carrying this worker's `my_next`.
    Ack(Offer),
}

/// What a stream's expired retransmission timer asks of the driver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expiry {
    /// Nothing is outstanding on the stream.
    Idle,
    /// Resend the stream's packet to its shard's current target and
    /// re-arm `rto`. `backoff`: the adaptive RTO doubled first;
    /// `waited_ns`: time since the packet was first sent.
    Retransmit {
        /// RTO to arm.
        rto: Duration,
        /// The adaptive RTO backed off.
        backoff: bool,
        /// Time spent waiting on the packet so far.
        waited_ns: u64,
    },
    /// The retry budget ran out and the shard now targets its hot
    /// standby: resend each listed stream's packet there, arming the
    /// paired RTO.
    FailOver {
        /// `(stream, rto)` for every outstanding stream of the shard.
        resend: Vec<(usize, Duration)>,
    },
    /// The retry budget ran out with no standby left: the shard is
    /// unresponsive.
    GiveUp {
        /// Retransmissions that went unanswered.
        retransmits: u32,
        /// Time since the packet was first sent.
        waited_ns: u64,
    },
}

/// One worker's Algorithm 2 state: [`WorkerMachine`]'s cursors and
/// lookahead, plus every stream's phase bit and outstanding packet,
/// every shard's RTT estimator and primary/standby target, and the
/// membership epoch.
///
/// A round is [`RecWorkerMachine::start_round`], then per active stream
/// [`RecWorkerMachine::first_row`] and [`RecWorkerMachine::sent`]. Each
/// result goes to [`RecWorkerMachine::on_result`]; a fresh one then
/// feeds every entry to [`RecWorkerMachine::answer`], and a non-empty
/// reply is sent and registered with `sent` again. An empty reply means
/// the stream finished. Timers go to [`RecWorkerMachine::on_timer`],
/// NACKs to [`RecWorkerMachine::on_nack`]. Time comes in as `now_ns`
/// from any monotonic origin.
#[derive(Debug, Clone)]
pub struct RecWorkerMachine {
    inner: WorkerMachine,
    map: ShardMap,
    policy: RtoPolicy,
    /// Current membership epoch, adopted from results and `Welcome`s.
    epoch: u8,
    /// Per-stream phase bit; persists across rounds.
    ver: Vec<u8>,
    /// Per-stream outstanding packet; `None` once the stream finished
    /// (and between a fresh result and the reply's `sent`).
    out: Vec<Option<Outstanding>>,
    /// Per-shard RTT estimator; persists across rounds so later rounds
    /// start from a converged RTO.
    rtt: Vec<RttEstimator>,
    /// Per-shard: re-targeted at the standby (at most once per run).
    on_standby: Vec<bool>,
    /// Per-shard failover time, pending the first fresh result.
    failover_at: Vec<Option<u64>>,
    /// Per-shard epoch of the newest `Welcome` that told this worker it
    /// was evicted, until a newer one admits it again.
    evicted_at: Vec<Option<u8>>,
}

impl RecWorkerMachine {
    /// Builds worker `wid`'s machine for `cfg`'s geometry under `policy`.
    pub fn new(cfg: &OmniConfig, wid: usize, policy: RtoPolicy) -> Self {
        let inner = WorkerMachine::new(cfg);
        let map = ShardMap::new(cfg);
        let streams = inner.layout().total_streams();
        let shards = map.num_shards();
        let rtt = (0..shards)
            .map(|a| {
                RttEstimator::new(
                    policy.initial,
                    policy.min,
                    policy.max,
                    // Deterministic per-(worker, shard) jitter stream.
                    0x9E37_79B9_7F4A_7C15 ^ ((wid as u64) << 16) ^ a as u64,
                )
            })
            .collect();
        RecWorkerMachine {
            inner,
            map,
            policy,
            epoch: 0,
            ver: vec![0; streams],
            out: vec![None; streams],
            rtt,
            on_standby: vec![false; shards],
            failover_at: vec![None; shards],
            evicted_at: vec![None; shards],
        }
    }

    /// The stream geometry.
    pub fn layout(&self) -> &StreamLayout {
        self.inner.layout()
    }

    /// Shard owning stream `g`.
    pub fn shard_of(&self, g: usize) -> usize {
        self.map.shard_of_stream(g)
    }

    /// The membership epoch stamped into every outgoing packet.
    pub fn epoch(&self) -> u8 {
        self.epoch
    }

    /// Stream `g`'s current phase bit, stamped into its packets.
    pub fn ver(&self, g: usize) -> u8 {
        self.ver[g]
    }

    /// True once `shard` failed over: its target is the standby.
    pub fn on_standby(&self, shard: usize) -> bool {
        self.on_standby[shard]
    }

    /// `shard`'s smoothed RTT, once an unambiguous answer was sampled.
    pub fn srtt(&self, shard: usize) -> Option<Duration> {
        self.rtt[shard].srtt()
    }

    /// The RTO to arm for the next packet to `shard`: adaptive (with
    /// backoff and jitter) or the fixed initial timeout.
    pub fn rto(&mut self, shard: usize) -> Duration {
        if self.policy.adaptive {
            self.rtt[shard].next_rto()
        } else {
            self.policy.initial
        }
    }

    /// Arms a round over this worker's non-zero block `bitmap`.
    pub fn start_round(&mut self, bitmap: NonZeroBitmap) {
        self.inner.start_round(bitmap);
        self.out.fill(None);
    }

    /// Emits stream `g`'s first row (every valid column, unconditionally).
    pub fn first_row(&mut self, g: usize, offer: impl FnMut(Offer)) {
        self.inner.first_row(g, offer);
    }

    /// Registers the packet the driver just sent on stream `g` as
    /// outstanding and returns the RTO to arm for it.
    pub fn sent(&mut self, g: usize, now_ns: u64) -> Duration {
        self.out[g] = Some(Outstanding {
            sent_at: now_ns,
            retransmitted: false,
            retx: 0,
        });
        self.rto(self.shard_of(g))
    }

    /// Handles the head of a result for stream `g`, phase `ver`, stamped
    /// with `epoch`. A fresh result answers the outstanding packet: it
    /// feeds the RTT estimator (Karn's rule), and the stream's phase
    /// advances.
    pub fn on_result(&mut self, g: usize, ver: u8, epoch: u8, now_ns: u64) -> ResultHead {
        let adopted_epoch = epoch_before(self.epoch, epoch);
        if adopted_epoch {
            self.epoch = epoch;
        }
        let fresh = self.out[g].is_some() && ver == self.ver[g];
        let mut head = ResultHead {
            adopted_epoch,
            fresh,
            failover_ns: None,
        };
        if !fresh {
            return head;
        }
        let o = self.out[g].take().expect("fresh implies outstanding");
        let shard = self.shard_of(g);
        head.failover_ns = self.failover_at[shard]
            .take()
            .map(|t0| now_ns.saturating_sub(t0));
        if self.policy.adaptive {
            if o.retransmitted {
                // Ambiguous answer: reset the backoff, no sample.
                self.rtt[shard].ack();
            } else {
                let rtt = Duration::from_nanos(now_ns.saturating_sub(o.sent_at));
                self.rtt[shard].sample(rtt);
            }
        }
        self.ver[g] ^= 1;
        head
    }

    /// Answers one entry of a fresh result: column `col` of stream `g`
    /// now requests `requested`. `None` when the column is finished
    /// (or finishes with this ∞ request).
    #[inline]
    pub fn answer(&mut self, g: usize, col: usize, requested: BlockIdx) -> Option<Answer> {
        let my_next = self.inner.my_next(g, col)?;
        if let Some(o) = self.inner.on_result(g, col, requested) {
            return Some(Answer::Data(o));
        }
        (requested != INFINITY_BLOCK).then_some(Answer::Ack(Offer {
            stream: g,
            col,
            block: requested,
            next: my_next,
        }))
    }

    /// Handles an aggregator NACK for stream `g`'s phase `ver`: returns
    /// the RTO for an immediate resend of the outstanding packet, or
    /// `None` for a stale NACK. Hearing from the shard proves it alive,
    /// so the retry budget restarts (Karn's rule still applies).
    pub fn on_nack(&mut self, g: usize, ver: u8) -> Option<Duration> {
        if ver != self.ver[g] {
            return None;
        }
        let o = self.out[g].as_mut()?;
        o.retx = 0;
        o.retransmitted = true;
        Some(self.rto(self.shard_of(g)))
    }

    /// Handles stream `g`'s expired retransmission timer.
    pub fn on_timer(&mut self, g: usize, now_ns: u64) -> Expiry {
        let shard = self.shard_of(g);
        let Some(o) = self.out[g] else {
            return Expiry::Idle;
        };
        let waited_ns = now_ns.saturating_sub(o.sent_at);
        if o.retx >= self.policy.max_retransmits {
            if !self.fail_over(shard, now_ns) {
                return Expiry::GiveUp {
                    retransmits: o.retx,
                    waited_ns,
                };
            }
            // The standby answers from its replicated state: completed
            // phases with the retained result, in-flight ones by
            // re-aggregating these resends.
            let mut resend = Vec::new();
            for g2 in (shard..self.out.len()).step_by(self.map.num_shards()) {
                if let Some(o2) = self.out[g2].as_mut() {
                    o2.retx = 0;
                    o2.retransmitted = true;
                    resend.push((g2, self.rto(shard)));
                }
            }
            return Expiry::FailOver { resend };
        }
        if self.policy.adaptive {
            self.rtt[shard].on_timeout();
        }
        self.out[g] = Some(Outstanding {
            retx: o.retx + 1,
            retransmitted: true,
            ..o
        });
        Expiry::Retransmit {
            rto: self.rto(shard),
            backoff: self.policy.adaptive,
            waited_ns,
        }
    }

    /// The one failover decision: re-targets `shard` at its hot standby
    /// when it has one and has not failed over yet. `false` means the
    /// shard is out of targets.
    pub fn fail_over(&mut self, shard: usize, now_ns: u64) -> bool {
        if !self.policy.hot_standby || self.on_standby[shard] {
            return false;
        }
        self.on_standby[shard] = true;
        self.failover_at[shard] = Some(now_ns);
        true
    }

    /// True when `shard`'s unsolicited `Welcome` at `epoch` means this
    /// worker was evicted (the group moved past its epoch). The epoch is
    /// remembered: every `Welcome` the shard sends while the worker stays
    /// evicted carries it or an older one, so only a newer one can
    /// answer a later `Join`.
    pub fn evicted_by(&mut self, shard: usize, epoch: u8) -> bool {
        if !epoch_before(self.epoch, epoch) {
            return false;
        }
        if self.evicted_at[shard].is_none_or(|e| epoch_before(e, epoch)) {
            self.evicted_at[shard] = Some(epoch);
        }
        true
    }

    /// Installs `shard`'s answer to a `Join`: adopts a newer `epoch` and
    /// the per-stream phase cursors `vers`, one per stream the shard owns
    /// in ascending order, so the next data packet lands in the phase the
    /// group runs next. Returns whether the epoch was adopted, or `None`
    /// for a zombie answer still in flight from before the admission.
    pub fn install_welcome(&mut self, shard: usize, epoch: u8, vers: &[u8]) -> Option<bool> {
        if let Some(e) = self.evicted_at[shard] {
            if !epoch_before(e, epoch) {
                return None;
            }
        }
        self.evicted_at[shard] = None;
        let adopted = epoch_before(self.epoch, epoch);
        if adopted {
            self.epoch = epoch;
        }
        for (g, &v) in self.map.streams_of(shard).zip(vers) {
            self.ver[g] = v & 1;
        }
        Some(adopted)
    }

    /// True once every shard's streams finished this round.
    pub fn round_done(&self) -> bool {
        self.inner.round_done()
    }
}
