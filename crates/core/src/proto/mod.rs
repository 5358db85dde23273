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

mod agg;
mod worker;

pub use agg::AggMachine;
pub use worker::WorkerMachine;

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
