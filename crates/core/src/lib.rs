//! OmniReduce core: sparse-aware streaming AllReduce.
//!
//! This crate implements the paper's contribution — worker and aggregator
//! engines that aggregate only the non-zero blocks of the input tensors,
//! coordinated by a look-ahead "next non-zero block" exchange:
//!
//! * [`proto`] — the sans-IO protocol core with Block Fusion (§3.2) and
//!   parallel streams (§3.1.1): Algorithm 1's [`proto::WorkerMachine`]
//!   and [`proto::AggMachine`], and Algorithm 2's
//!   [`proto::RecWorkerMachine`] and [`proto::RecAggMachine`], owning no
//!   transport, thread or clock. Every engine below is a driver of these
//!   machines.
//! * [`worker::OmniWorker`] / [`aggregator::OmniAggregator`] — the thread
//!   drivers for reliable transports (the paper's RDMA RC mode); the
//!   worker runs over one transport or, as [`shard::ShardedWorker`], one
//!   lane per aggregator shard ([`shard`], §4).
//! * [`recovery::RecoveryWorker`] / [`recovery::RecoveryAggregator`] —
//!   Algorithm 2 with acknowledgments, retransmission timers and
//!   two-phase versioned slots, for lossy transports (the paper's
//!   DPDK/UDP mode, Appendix A).
//! * [`kv::KvWorker`] / [`kv::KvAggregator`] — Algorithm 3, the sparse
//!   key-value block format (§3.3).
//! * [`switch`] — the aggregator driver under programmable-switch
//!   constraints (§7: bounded slots, fixed-point arithmetic, small
//!   payloads), demonstrating the in-network offload; only the
//!   arithmetic differs from [`aggregator`].
//! * [`hierarchical`] — two-layer aggregation for multi-GPU servers (§5):
//!   intra-server reduction + inter-server OmniReduce.
//! * [`sim`] — the same two machines driven as
//!   [`omnireduce_simnet`] actors, used by the benchmark harness to
//!   reproduce the paper's timing figures on simulated 10/100 Gbps
//!   fabrics; [`sim_recovery`] drives the Algorithm 2 machines the same
//!   way, with simulated timers over a lossy fabric.
//! * [`staging`] — the Appendix B chunk-prefetch pipeline that overlaps
//!   the GPU→host copy with transmission on the non-GDR path.
//! * [`collective`] — AllGather and Broadcast expressed on the same
//!   machinery (§7, "Generalized collective operations").
//! * [`tenant`] — a long-running multi-tenant aggregation service:
//!   stream-tagged frames demultiplex many concurrent jobs over one
//!   shard fleet, with capacity-based admission, weighted-fair slot
//!   scheduling and per-tenant telemetry/quota isolation.

pub mod aggregator;
pub mod collective;
pub mod config;
pub mod error;
pub mod hierarchical;
mod instrument;
pub mod kv;
pub mod layout;
pub mod proto;
pub mod recovery;
pub mod shard;
pub mod sim;
pub mod sim_hierarchical;
pub mod sim_recovery;
pub mod slot;
pub mod staging;
pub mod switch;
pub mod tenant;
pub mod testing;
pub mod wire;
pub mod worker;

pub use aggregator::OmniAggregator;
pub use config::{DegradedMode, OmniConfig};
pub use error::ProtocolError;
pub use kv::{KvAggregator, KvConfig, KvWorker};
pub use layout::StreamLayout;
pub use recovery::{RecoveryAggregator, RecoveryAggregatorStats, RecoveryStats, RecoveryWorker};
pub use shard::{ShardJoin, ShardMap, ShardedAllReduce, ShardedWorker};
pub use slot::ColAccumulator;
pub use tenant::{
    AdmissionError, JobRegistry, SlotScheduler, TenantEngine, TenantHandle, TenantService,
    TenantSpec, WfqState,
};
pub use worker::{OmniWorker, WorkerStats};
