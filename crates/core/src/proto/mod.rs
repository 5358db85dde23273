//! The sans-IO core of Algorithm 1: one worker machine and one
//! aggregator machine, shared by every driver.
//!
//! The paper's protocol is two small state machines. A worker offers
//! its next non-zero block per column; an aggregator takes the
//! per-column minimum of the workers' announced nexts and multicasts
//! it. [`WorkerMachine`] and [`AggMachine`] hold exactly that state and
//! nothing else: no transport, thread, clock, payload or telemetry.
//! They speak in [`Offer`]s — `(stream, col, block, next)` — through
//! return values and caller-supplied closures, and drivers attach
//! everything else:
//!
//! * the thread drivers ([`crate::worker::OmniWorker`] over one or many
//!   transport lanes, [`crate::aggregator::OmniAggregator`] and its
//!   [`crate::switch::SwitchAggregator`] wrapper) copy tensor blocks
//!   into pooled packets and reduce real payloads;
//! * the simnet actors ([`crate::sim`]) charge each offer its exact
//!   codec size and aggregate nothing (`AggMachine<()>`).
//!
//! The only part that plugs in is the aggregator's arithmetic `A`: the
//! f32 [`crate::slot::ColAccumulator`] (arrival-order or §7
//! deterministic), the switch's fixed-point accumulator, or `()`.
//!
//! Algorithm 2 (loss recovery, Appendix A) adds reliability on top of
//! the same aggregation and lives here once too:
//!
//! * **Everyone always answers.** [`RecWorkerMachine`] (wrapping
//!   [`WorkerMachine`]) answers every result for every active column —
//!   with block data when it owns the request, with a data-less ack
//!   carrying its `my_next` otherwise — so [`RecAggMachine`] completes a
//!   phase on a *count of distinct workers* instead of the min-next test.
//! * **Timers.** Every sent packet stays outstanding until its result
//!   arrives; expiry retransmits it under an adaptive or fixed RTO, up to
//!   a retry budget, then fails over to a hot standby or gives up.
//! * **Two-phase versioned slots.** Version `v` of a slot is reused only
//!   once every worker sent a packet for version `v̂`, which it does only
//!   after receiving `v`'s result, so a completed result stays available
//!   for retransmission exactly as long as any worker might need it.
//! * **Dedup and repair.** Per-version `seen` bits keep duplicates from
//!   being aggregated twice; a duplicate for a completed phase unicasts
//!   the retained result back, one for a phase in progress NACKs the
//!   workers it lacks.
//!
//! [`RecAggMachine`] also owns membership: eviction with epoch bumps,
//! deferred admission at idle round boundaries, and hot-standby
//! checkpoint deltas. Time comes in as `now_ns`; the machines answer with
//! verdicts the drivers carry out — [`crate::recovery`] (threads and
//! transports) and [`crate::sim_recovery`] (simnet actors).

mod agg;
mod rec_agg;
mod rec_worker;
mod worker;

pub use agg::AggMachine;
pub use rec_agg::{Admit, Eviction, JoinVerdict, PhaseAcc, RecAggMachine};
pub use rec_worker::{Answer, Expiry, RecWorkerMachine, ResultHead, RtoPolicy};
pub use worker::WorkerMachine;

/// True if membership epoch `a` precedes `b` in wrapping (mod 256)
/// order. Epochs only ever move forward, one bump per membership
/// change, so any two live epochs are within half the ring of each
/// other and the comparison is unambiguous.
pub(crate) fn epoch_before(a: u8, b: u8) -> bool {
    a != b && b.wrapping_sub(a) < 128
}

use omnireduce_tensor::BlockIdx;

/// One protocol entry: block `block` of stream `stream`'s column `col`,
/// carrying `next` — the sender's next non-zero block in that column
/// (for a worker offer) or the aggregator's new request (for a result),
/// [`omnireduce_tensor::INFINITY_BLOCK`] when the column is exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Offer {
    /// Stream (slot) the entry belongs to.
    pub stream: usize,
    /// Fused column within the stream.
    pub col: usize,
    /// Block carried by the entry.
    pub block: BlockIdx,
    /// Next block in the column, or ∞.
    pub next: BlockIdx,
}
