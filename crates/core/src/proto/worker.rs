//! The Algorithm 1 worker as a pure state machine.

use omnireduce_tensor::{BlockIdx, NonZeroBitmap, INFINITY_BLOCK};

use super::Offer;
use crate::config::OmniConfig;
use crate::layout::StreamLayout;
use crate::shard::{ShardJoin, ShardMap};

/// Per-(stream, column) worker cursor.
#[derive(Debug, Clone, Copy)]
struct Cursor {
    /// This worker's next untransmitted non-zero block in the column.
    my_next: BlockIdx,
    /// The aggregator requested ∞: the column is finished (also the
    /// state of columns past the end of the tensor).
    done: bool,
}

const FINISHED: Cursor = Cursor {
    my_next: INFINITY_BLOCK,
    done: true,
};

/// One worker's Algorithm 1 state for one round at a time.
///
/// A round is [`WorkerMachine::start_round`], then
/// [`WorkerMachine::first_row`] for every active stream (the
/// unconditional first offers), then [`WorkerMachine::on_result`] for
/// every entry of every result until [`WorkerMachine::round_done`].
/// Completion is joined per shard ([`ShardJoin`]), so a shard that owns
/// no blocks never holds a round open.
#[derive(Debug, Clone)]
pub struct WorkerMachine {
    layout: StreamLayout,
    map: ShardMap,
    skip_zero: bool,
    bitmap: NonZeroBitmap,
    /// Cursors, indexed `stream * width + col`.
    cursors: Vec<Cursor>,
    /// Per stream: columns still waiting for ∞.
    remaining: Vec<usize>,
    join: ShardJoin,
}

impl WorkerMachine {
    /// Builds the machine for `cfg`'s geometry.
    pub fn new(cfg: &OmniConfig) -> Self {
        let map = ShardMap::new(cfg);
        let layout = *map.layout();
        WorkerMachine {
            layout,
            map,
            skip_zero: cfg.skip_zero_blocks,
            bitmap: NonZeroBitmap::empty(layout.nblocks()),
            cursors: vec![FINISHED; layout.total_streams() * layout.width()],
            remaining: vec![0; layout.total_streams()],
            join: ShardJoin::new(map),
        }
    }

    /// The stream geometry.
    pub fn layout(&self) -> &StreamLayout {
        &self.layout
    }

    /// Arms a round over this worker's non-zero block `bitmap`.
    pub fn start_round(&mut self, bitmap: NonZeroBitmap) {
        assert_eq!(
            bitmap.block_count(),
            self.layout.nblocks(),
            "bitmap size mismatch"
        );
        self.bitmap = bitmap;
        self.cursors.fill(FINISHED);
        self.remaining.fill(0);
        self.join = ShardJoin::new(self.map);
    }

    /// Emits stream `g`'s first row: every valid column offers its first
    /// block unconditionally, announcing its next non-zero block.
    pub fn first_row(&mut self, g: usize, mut offer: impl FnMut(Offer)) {
        let width = self.layout.width();
        for col in self.layout.valid_columns(g) {
            let block = self.layout.first_block(g, col).expect("valid column");
            let next = self.lookahead(g, col, block);
            self.cursors[g * width + col] = Cursor {
                my_next: next,
                done: false,
            };
            self.remaining[g] += 1;
            offer(Offer {
                stream: g,
                col,
                block,
                next,
            });
        }
    }

    /// Handles one result entry: the aggregator now requests `requested`
    /// in column `col` of stream `g`. Returns this worker's offer when the
    /// request is its next block; stays silent when another worker owns
    /// the request (the aggregator already holds our next) or the column
    /// is finished.
    #[inline]
    pub fn on_result(&mut self, g: usize, col: usize, requested: BlockIdx) -> Option<Offer> {
        let i = g * self.layout.width() + col;
        let cursor = self.cursors[i];
        if cursor.done {
            return None;
        }
        if requested == INFINITY_BLOCK {
            self.cursors[i] = FINISHED;
            self.remaining[g] -= 1;
            if self.remaining[g] == 0 {
                self.join.on_stream_complete(g);
            }
            return None;
        }
        if cursor.my_next != requested {
            return None;
        }
        let next = self.lookahead(g, col, requested);
        self.cursors[i].my_next = next;
        Some(Offer {
            stream: g,
            col,
            block: requested,
            next,
        })
    }

    /// This worker's next untransmitted non-zero block in stream `g`'s
    /// column `col`; `None` once the column is finished.
    #[inline]
    pub fn my_next(&self, g: usize, col: usize) -> Option<BlockIdx> {
        let cursor = self.cursors[g * self.layout.width() + col];
        (!cursor.done).then_some(cursor.my_next)
    }

    /// True once every shard's streams finished this round.
    pub fn round_done(&self) -> bool {
        self.join.round_done()
    }

    /// The next non-zero block after `block` in stream `g`, column `col`.
    fn lookahead(&self, g: usize, col: usize, block: BlockIdx) -> BlockIdx {
        self.layout
            .next_block(&self.bitmap, g, col, Some(block), self.skip_zero)
    }
}
