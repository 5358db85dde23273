//! Shared per-column accumulation state for the aggregation engines
//! (DESIGN §9: one accumulator, zero steady-state allocations).
//!
//! Both aggregator engines (lossless Algorithm 1 in
//! [`crate::aggregator`], loss-recovery Algorithm 2 in
//! [`crate::recovery`]) keep, per fused column, an accumulator for the
//! block being aggregated. Two reduction modes exist:
//!
//! * **arrival order** (default): contributions are folded into `acc` as
//!   they arrive, via the vectorized kernel
//!   [`omnireduce_tensor::block::reduce_into`];
//! * **deterministic** (§7, [`crate::config::OmniConfig::deterministic`]):
//!   contributions are *buffered per worker* and reduced in ascending
//!   worker-id order at completion, so the float result is
//!   bit-reproducible regardless of packet arrival or retransmission
//!   order.
//!
//! [`ColAccumulator`] owns all of that state with a fixed buffer
//! footprint: the per-worker contribution buffers are allocated once and
//! refilled in place every block (previously each block dropped and
//! re-`clone`d them — the `aggregator.rs:287` allocation fixed by this
//! PR), and [`ColAccumulator::reset`] clears state without releasing any
//! buffer. After one warm-up block, `store`/`take_into`/`reset` perform
//! no heap allocation.

use omnireduce_tensor::block::{copy_into, reduce_into};

/// The arithmetic an aggregator column reduces payloads with — the one
/// part of the Algorithm 1 aggregator that plugs in (f32 here, fixed
/// point in [`crate::switch`]).
pub trait Accumulator {
    /// True when any worker contributed to the current block.
    fn touched(&self) -> bool;
    /// Folds worker `wid`'s block payload in.
    fn store(&mut self, wid: usize, data: &[f32]);
    /// Drains the current block's aggregate into `out` and rearms for
    /// the next block.
    fn take_into(&mut self, out: &mut Vec<f32>);
}

impl Accumulator for ColAccumulator {
    #[inline]
    fn touched(&self) -> bool {
        ColAccumulator::touched(self)
    }
    #[inline]
    fn store(&mut self, wid: usize, data: &[f32]) {
        ColAccumulator::store(self, wid, data)
    }
    #[inline]
    fn take_into(&mut self, out: &mut Vec<f32>) {
        ColAccumulator::take_into(self, out)
    }
}

/// Per-column block accumulator shared by the aggregation engines.
#[derive(Debug, Clone)]
pub struct ColAccumulator {
    deterministic: bool,
    /// Arrival-order accumulator (unused in deterministic mode).
    acc: Vec<f32>,
    /// Whether any worker contributed data to the current block.
    touched: bool,
    /// Per-worker contribution buffers (deterministic mode only),
    /// allocated once and reused in place across blocks.
    contribs: Vec<Vec<f32>>,
    /// Which workers contributed to the current block.
    contrib_set: Vec<bool>,
}

impl ColAccumulator {
    /// Creates an accumulator for `num_workers` contributors.
    pub fn new(num_workers: usize, deterministic: bool) -> Self {
        ColAccumulator {
            deterministic,
            acc: Vec::new(),
            touched: false,
            contribs: if deterministic {
                vec![Vec::new(); num_workers]
            } else {
                Vec::new()
            },
            contrib_set: if deterministic {
                vec![false; num_workers]
            } else {
                Vec::new()
            },
        }
    }

    /// True when any worker contributed data to the current block.
    #[inline]
    pub fn touched(&self) -> bool {
        self.touched
    }

    /// True when worker `wid` already contributed to the current block
    /// (always `false` in arrival-order mode, which cannot tell).
    #[inline]
    pub fn has_contrib(&self, wid: usize) -> bool {
        self.deterministic && self.contrib_set[wid]
    }

    /// Folds worker `wid`'s block payload into this accumulator.
    ///
    /// Arrival-order mode reduces immediately; deterministic mode copies
    /// into the worker's persistent buffer (reused in place — no
    /// allocation after warm-up). A repeated `store` from the same
    /// worker in deterministic mode overwrites its previous
    /// contribution (idempotent, as retransmissions require).
    #[inline]
    pub fn store(&mut self, wid: usize, data: &[f32]) {
        if self.deterministic {
            copy_into(&mut self.contribs[wid], data);
            self.contrib_set[wid] = true;
        } else if !self.touched {
            copy_into(&mut self.acc, data);
        } else {
            debug_assert_eq!(self.acc.len(), data.len(), "block length changed mid-slot");
            reduce_into(&mut self.acc, data);
        }
        self.touched = true;
    }

    /// Drains the aggregate for the current block into `out` (cleared
    /// first) and resets the accumulator for the next block, keeping
    /// every buffer.
    ///
    /// Deterministic mode reduces the buffered contributions in
    /// ascending worker-id order (§7).
    ///
    /// # Panics
    /// Panics when no worker contributed data (completing an untouched
    /// block is a protocol error).
    pub fn take_into(&mut self, out: &mut Vec<f32>) {
        assert!(self.touched, "completed block with no data");
        if self.deterministic {
            out.clear();
            let mut first = true;
            for wid in 0..self.contribs.len() {
                if !self.contrib_set[wid] {
                    continue;
                }
                if first {
                    out.extend_from_slice(&self.contribs[wid]);
                    first = false;
                } else {
                    reduce_into(out, &self.contribs[wid]);
                }
            }
            self.contrib_set.fill(false);
        } else {
            // Swap rather than copy: `out` (an empty pooled buffer)
            // becomes the result, and its allocation becomes the next
            // block's accumulator.
            out.clear();
            std::mem::swap(&mut self.acc, out);
            self.acc.clear();
        }
        self.touched = false;
    }

    /// Clears the accumulator state in place (start of a new round),
    /// keeping every buffer.
    pub fn reset(&mut self) {
        self.acc.clear();
        self.touched = false;
        self.contrib_set.fill(false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrival_order_accumulates() {
        let mut a = ColAccumulator::new(3, false);
        assert!(!a.touched());
        a.store(2, &[1.0, 2.0]);
        a.store(0, &[0.5, -1.0]);
        let mut out = Vec::new();
        a.take_into(&mut out);
        assert_eq!(out, vec![1.5, 1.0]);
        assert!(!a.touched());
    }

    #[test]
    fn deterministic_reduces_in_worker_order() {
        // Worker-id-order reduction: (w0 + w1) + w2 regardless of the
        // arrival order below.
        let w0 = [1.0e8f32, 1.0];
        let w1 = [-1.0e8, 1.0];
        let w2 = [0.25, 1.0];
        let expected = [(w0[0] + w1[0]) + w2[0], 3.0];
        let mut a = ColAccumulator::new(3, true);
        a.store(2, &w2);
        a.store(0, &w0);
        a.store(1, &w1);
        let mut out = Vec::new();
        a.take_into(&mut out);
        assert_eq!(out[0].to_bits(), expected[0].to_bits());
        assert_eq!(out[1].to_bits(), expected[1].to_bits());
    }

    #[test]
    fn deterministic_store_is_idempotent() {
        let mut a = ColAccumulator::new(2, true);
        a.store(0, &[1.0]);
        assert!(a.has_contrib(0));
        a.store(0, &[2.0]); // retransmission overwrites
        a.store(1, &[3.0]);
        let mut out = Vec::new();
        a.take_into(&mut out);
        assert_eq!(out, vec![5.0]);
        assert!(!a.has_contrib(0));
    }

    #[test]
    fn buffers_survive_take_and_reset() {
        let mut a = ColAccumulator::new(2, true);
        a.store(0, &[1.0; 8]);
        a.store(1, &[2.0; 8]);
        let ptr0 = a.contribs[0].as_ptr();
        let mut out = Vec::with_capacity(8);
        a.take_into(&mut out);
        a.store(0, &[3.0; 8]);
        assert_eq!(
            a.contribs[0].as_ptr(),
            ptr0,
            "contrib buffer must be reused"
        );
        a.reset();
        assert_eq!(a.contribs[0].as_ptr(), ptr0);
        assert!(!a.touched());
    }

    #[test]
    fn arrival_take_swaps_buffers() {
        let mut a = ColAccumulator::new(2, false);
        a.store(0, &[1.0; 4]);
        let acc_ptr = a.acc.as_ptr();
        let mut out = Vec::with_capacity(4);
        let out_ptr = out.as_ptr();
        a.take_into(&mut out);
        assert_eq!(out.as_ptr(), acc_ptr, "result takes the acc allocation");
        assert_eq!(a.acc.as_ptr(), out_ptr, "acc takes the pooled allocation");
    }

    #[test]
    #[should_panic(expected = "no data")]
    fn take_untouched_panics() {
        let mut a = ColAccumulator::new(1, false);
        let mut out = Vec::new();
        a.take_into(&mut out);
    }
}
