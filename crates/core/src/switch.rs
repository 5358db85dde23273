//! In-network aggregation under programmable-switch constraints (§7).
//!
//! The paper offloads the aggregator to a Barefoot Tofino switch (Fig. 18)
//! and notes the offload "inherits some of the limitations described by
//! Sapio et al. (SwitchML) in terms of numeric representation and slot
//! size". This module models those constraints so the same protocol can be
//! exercised under them:
//!
//! * **Fixed-point arithmetic** — Tofino ALUs sum 32-bit integers, not
//!   floats. [`FixedPoint`] quantizes `f32` block values to `i32` with a
//!   shared scaling exponent and saturating accumulation, exactly the
//!   SwitchML numeric model.
//! * **Bounded slot memory** — switch register memory holds a fixed pool
//!   of slots; [`SwitchAggregator`] enforces the pool bound at
//!   construction (geometry that needs more concurrent slots than the
//!   switch has is rejected up front).
//! * **Small payloads** — a Tofino pipeline processes ~34 32-bit values
//!   per packet per pass ([`TOFINO_MAX_BLOCK`]); larger blocks must be
//!   recirculated. The aggregator accepts bigger blocks but reports the
//!   recirculation factor so the timing model can charge for it.
//!
//! [`SwitchAggregator`] is a drop-in replacement for
//! [`crate::aggregator::OmniAggregator`] over any reliable transport: the
//! same driver and Algorithm 1 machine, with only the arithmetic
//! swapped. Results it produces are
//! quantized, so they differ from the float sum by at most the
//! quantization step times the worker count.

use omnireduce_telemetry::Counter;
use omnireduce_transport::{Transport, TransportError};

use crate::aggregator::OmniAggregator;
use crate::config::OmniConfig;
use crate::slot::Accumulator;

/// Values a Tofino-class pipeline can aggregate per packet per pass
/// (the paper's Fig. 18 runs the P4 aggregator with block size 34).
pub const TOFINO_MAX_BLOCK: usize = 34;

/// Default register-memory slot pool of the modelled switch.
pub const DEFAULT_SWITCH_POOL: usize = 512;

/// SwitchML-style fixed-point codec: `f32 ↔ i32` with a power-of-two
/// scaling factor and saturation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FixedPoint {
    /// Fractional bits: value `x` is stored as `round(x · 2^frac_bits)`.
    pub frac_bits: u32,
}

impl Default for FixedPoint {
    fn default() -> Self {
        // 2^20 scaling: ±2047 representable range, ~1e-6 resolution —
        // ample for unit-scale gradients.
        FixedPoint { frac_bits: 20 }
    }
}

impl FixedPoint {
    /// Creates a codec with the given fractional bits (≤ 30).
    pub fn new(frac_bits: u32) -> Self {
        assert!(frac_bits <= 30, "frac_bits too large");
        FixedPoint { frac_bits }
    }

    /// Quantizes a float to fixed point, saturating at the i32 range.
    pub fn quantize(&self, x: f32) -> i32 {
        let scaled = (x as f64) * (1u64 << self.frac_bits) as f64;
        scaled.round().clamp(i32::MIN as f64, i32::MAX as f64) as i32
    }

    /// Dequantizes back to float.
    pub fn dequantize(&self, q: i32) -> f32 {
        (q as f64 / (1u64 << self.frac_bits) as f64) as f32
    }

    /// Saturating fixed-point add — the switch ALU operation.
    pub fn add(&self, a: i32, b: i32) -> i32 {
        a.saturating_add(b)
    }

    /// Worst-case absolute quantization error of a single value.
    pub fn step(&self) -> f32 {
        1.0 / (1u64 << self.frac_bits) as f32
    }
}

/// One column's switch register: fixed-point partial sums with
/// saturation, plus the shared pass and saturation tallies.
struct FixedAcc {
    fp: FixedPoint,
    acc: Vec<i32>,
    touched: bool,
    passes: Counter,
    saturations: Counter,
}

impl Accumulator for FixedAcc {
    fn touched(&self) -> bool {
        self.touched
    }

    fn store(&mut self, _wid: usize, data: &[f32]) {
        let fp = self.fp;
        self.passes
            .add(data.len().div_ceil(TOFINO_MAX_BLOCK) as u64);
        if !self.touched {
            self.acc.clear();
            self.acc.extend(data.iter().map(|v| fp.quantize(*v)));
            self.touched = true;
            return;
        }
        for (a, v) in self.acc.iter_mut().zip(data) {
            let sum = fp.add(*a, fp.quantize(*v));
            if sum == i32::MAX || sum == i32::MIN {
                self.saturations.inc();
            }
            *a = sum;
        }
    }

    fn take_into(&mut self, out: &mut Vec<f32>) {
        let fp = self.fp;
        out.clear();
        out.extend(self.acc.iter().map(|q| fp.dequantize(*q)));
        self.acc.clear();
        self.touched = false;
    }
}

/// Statistics of the modelled switch data plane.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SwitchStats {
    /// Packets processed.
    pub packets: u64,
    /// Pipeline passes, counting recirculation for blocks larger than
    /// [`TOFINO_MAX_BLOCK`].
    pub pipeline_passes: u64,
    /// Values that saturated during accumulation.
    pub saturations: u64,
    /// Result multicasts.
    pub results_sent: u64,
}

/// An aggregator with Tofino-like constraints: the
/// [`OmniAggregator`] driver over fixed-point column registers drawn
/// from a bounded pool. Protocol-compatible with
/// [`crate::worker::OmniWorker`].
pub struct SwitchAggregator<T: Transport> {
    inner: OmniAggregator<T, FixedAcc>,
    /// Tallies shared by every column register.
    passes: Counter,
    saturations: Counter,
    /// Data-plane counters, published when [`SwitchAggregator::run`]
    /// returns.
    pub stats: SwitchStats,
}

impl<T: Transport> SwitchAggregator<T> {
    /// Creates the switch aggregator with the given fixed-point codec and
    /// slot pool capacity.
    ///
    /// # Panics
    /// Panics when the geometry needs more concurrent slots than
    /// `pool_slots` — the register-memory bound of the switch. Each
    /// stream consumes `fusion` column slots.
    pub fn new(transport: T, cfg: OmniConfig, fp: FixedPoint, pool_slots: usize) -> Self {
        let (passes, saturations) = (Counter::detached(), Counter::detached());
        let acc = || FixedAcc {
            fp,
            acc: Vec::new(),
            touched: false,
            passes: passes.clone(),
            saturations: saturations.clone(),
        };
        let inner = OmniAggregator::with_accumulators(transport, cfg.clone(), acc);
        let owned_streams = (0..cfg.total_streams())
            .filter(|g| cfg.shard_of_stream(*g) == inner.shard())
            .count();
        let needed = owned_streams * cfg.fusion;
        assert!(
            needed <= pool_slots,
            "geometry needs {needed} slots but the switch pool holds {pool_slots}"
        );
        SwitchAggregator {
            inner,
            passes,
            saturations,
            stats: SwitchStats::default(),
        }
    }

    /// Serves the group until every worker says `Shutdown`.
    pub fn run(&mut self) -> Result<(), TransportError> {
        let res = self.inner.run();
        self.stats = SwitchStats {
            packets: self.inner.stats.packets,
            pipeline_passes: self.passes.get(),
            saturations: self.saturations.get(),
            results_sent: self.inner.stats.results_sent,
        };
        res
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantize_roundtrip_within_step() {
        let fp = FixedPoint::default();
        for x in [0.0f32, 1.0, -1.0, 0.123456, -987.654, 1e-5] {
            let q = fp.quantize(x);
            let back = fp.dequantize(q);
            assert!((back - x).abs() <= fp.step(), "{x} → {back}");
        }
    }

    #[test]
    fn quantize_saturates_at_range() {
        let fp = FixedPoint::new(20);
        let max_repr = fp.dequantize(i32::MAX);
        assert_eq!(fp.quantize(1e10), i32::MAX);
        assert_eq!(fp.quantize(-1e10), i32::MIN);
        assert!(max_repr > 2000.0);
    }

    #[test]
    fn fixed_add_saturates() {
        let fp = FixedPoint::new(0);
        assert_eq!(fp.add(i32::MAX, 1), i32::MAX);
        assert_eq!(fp.add(i32::MIN, -1), i32::MIN);
        assert_eq!(fp.add(3, 4), 7);
    }

    #[test]
    fn step_is_inverse_power_of_two() {
        assert_eq!(FixedPoint::new(2).step(), 0.25);
    }

    #[test]
    #[should_panic(expected = "switch pool")]
    fn pool_bound_is_enforced() {
        use omnireduce_transport::{ChannelNetwork, NodeId};
        let cfg = OmniConfig::new(2, 1 << 16)
            .with_block_size(32)
            .with_fusion(8)
            .with_streams(64);
        let mut net = ChannelNetwork::new(cfg.mesh_size());
        let t = net.endpoint(NodeId(cfg.aggregator_node(0)));
        // 64 streams × 8 columns = 512 slots > 256.
        let _ = SwitchAggregator::new(t, cfg, FixedPoint::default(), 256);
    }
}
