//! The Algorithm 1 aggregator as a pure state machine.

use omnireduce_tensor::{BlockIdx, INFINITY_BLOCK};

use super::Offer;
use crate::config::OmniConfig;
use crate::layout::StreamLayout;
use crate::shard::ShardMap;

/// One column of a stream's slot.
#[derive(Debug, Clone)]
struct Col<A> {
    /// The column's first block (where each round restarts).
    first: BlockIdx,
    /// Block being aggregated; [`INFINITY_BLOCK`] once exhausted.
    cur: BlockIdx,
    /// Each worker's announced next block; `None` is the paper's −∞
    /// (not yet announced this round, Algorithm 1 line 18).
    next_of: Vec<Option<BlockIdx>>,
    /// The column's arithmetic.
    acc: A,
}

impl<A> Col<A> {
    /// `min(next)` over workers, `None` while any worker is at −∞.
    fn min_next(&self) -> Option<BlockIdx> {
        self.next_of
            .iter()
            .try_fold(INFINITY_BLOCK, |min, n| n.map(|n| min.min(n)))
    }

    /// The completion test of Algorithm 1 line 22: an active column is
    /// complete when `cur < min(next)`.
    fn complete(&self) -> bool {
        self.cur != INFINITY_BLOCK && self.min_next().is_some_and(|m| self.cur < m)
    }
}

/// One aggregator shard's Algorithm 1 state: per owned stream, one slot
/// whose columns each track the block being aggregated, every worker's
/// announced next, and an accumulator `A`.
///
/// Drivers feed every data entry to [`AggMachine::offer`] (folding the
/// payload into the returned accumulator), and when
/// [`AggMachine::is_complete`] holds they call [`AggMachine::release`]
/// to emit the result row. The machine advances and resets its slots
/// across rounds itself.
#[derive(Debug, Clone)]
pub struct AggMachine<A> {
    layout: StreamLayout,
    /// Columns, indexed `stream * width + col`; `None` for streams this
    /// shard does not own and for columns past the end of the tensor.
    cols: Vec<Option<Col<A>>>,
    /// Owned streams that carry blocks.
    active: usize,
    /// Active streams not yet finished this round.
    open: usize,
}

impl<A> AggMachine<A> {
    /// Builds shard `shard`'s machine for `cfg`, with one accumulator
    /// from `acc` per owned column.
    pub fn new(cfg: &OmniConfig, shard: usize, mut acc: impl FnMut() -> A) -> Self {
        let map = ShardMap::new(cfg);
        let layout = *map.layout();
        let mut cols = Vec::with_capacity(layout.total_streams() * layout.width());
        for g in 0..layout.total_streams() {
            for c in 0..layout.width() {
                let first = layout
                    .first_block(g, c)
                    .filter(|_| map.shard_of_stream(g) == shard);
                cols.push(first.map(|first| Col {
                    first,
                    cur: first,
                    next_of: vec![None; cfg.num_workers],
                    acc: acc(),
                }));
            }
        }
        let active = map.active_streams_of(shard);
        AggMachine {
            layout,
            cols,
            active,
            open: active,
        }
    }

    /// The stream geometry.
    pub fn layout(&self) -> &StreamLayout {
        &self.layout
    }

    /// Owned streams that carry blocks (0 for a born-empty shard).
    pub fn active_streams(&self) -> usize {
        self.active
    }

    /// Records worker `wid` offering `block` of stream `g`'s column `col`
    /// with its next non-zero block `next`, and returns the column's
    /// accumulator for the driver to fold the payload into.
    ///
    /// # Panics
    /// Panics when this shard does not serve the column.
    pub fn offer(
        &mut self,
        g: usize,
        wid: usize,
        col: usize,
        block: BlockIdx,
        next: BlockIdx,
    ) -> &mut A {
        let c = self.cols[g * self.layout.width() + col]
            .as_mut()
            .unwrap_or_else(|| panic!("stream {g} column {col} not served by this shard"));
        debug_assert_eq!(block, c.cur, "entry for wrong block");
        c.next_of[wid] = Some(next);
        &mut c.acc
    }

    /// True when every active column of stream `g` is complete (and at
    /// least one is active).
    pub fn is_complete(&self, g: usize) -> bool {
        let mut active = self
            .stream_cols(g)
            .filter(|c| c.cur != INFINITY_BLOCK)
            .peekable();
        active.peek().is_some() && active.all(Col::complete)
    }

    /// Releases stream `g`'s completed slot (Algorithm 1 lines 23–27):
    /// `emit` receives one result per active column — the aggregated
    /// block and the new request `min(next)` — with the column's
    /// accumulator to drain. Columns then advance; when every column is
    /// exhausted the stream rearms for the next round. Returns `true`
    /// when this release finished the shard's round.
    pub fn release(&mut self, g: usize, mut emit: impl FnMut(Offer, &mut A)) -> bool {
        debug_assert!(self.is_complete(g), "released an incomplete slot");
        let width = self.layout.width();
        let mut exhausted = true;
        for (col, c) in self.cols[g * width..(g + 1) * width].iter_mut().enumerate() {
            let Some(c) = c else { continue };
            if c.cur == INFINITY_BLOCK {
                continue;
            }
            let next = c.min_next().expect("complete implies announced");
            emit(
                Offer {
                    stream: g,
                    col,
                    block: c.cur,
                    next,
                },
                &mut c.acc,
            );
            c.cur = next;
            exhausted &= next == INFINITY_BLOCK;
        }
        if !exhausted {
            return false;
        }
        for c in self.cols[g * width..(g + 1) * width].iter_mut().flatten() {
            c.cur = c.first;
            c.next_of.fill(None);
        }
        self.open -= 1;
        if self.open > 0 {
            return false;
        }
        self.open = self.active;
        true
    }

    fn stream_cols(&self, g: usize) -> impl Iterator<Item = &Col<A>> {
        let width = self.layout.width();
        self.cols[g * width..(g + 1) * width].iter().flatten()
    }
}
