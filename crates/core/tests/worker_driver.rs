//! The thread worker driver behaves the same whichever constructor
//! built it: one transport (`OmniWorker`) or one lane per shard
//! (`ShardedWorker`).
//!
//! * Wind-down: a dead shard must not keep the goodbye from reaching the
//!   surviving shards over a single multiplexed transport either.
//! * Telemetry: every `core.worker.*` counter equals the sum of the
//!   workers' `stats()`, for sharded and single-transport runs alike.

use std::thread;
use std::time::Duration;

use omnireduce_core::aggregator::OmniAggregator;
use omnireduce_core::config::OmniConfig;
use omnireduce_core::shard::ShardedAllReduce;
use omnireduce_core::testing::with_deadline;
use omnireduce_core::worker::{OmniWorker, WorkerStats};
use omnireduce_telemetry::Telemetry;
use omnireduce_tensor::gen::{self, OverlapMode};
use omnireduce_tensor::{BlockSpec, Tensor};
use omnireduce_transport::{ChannelNetwork, NodeId, TransportError};

fn cfg(workers: usize, shards: usize) -> OmniConfig {
    OmniConfig::new(workers, 512)
        .with_block_size(8)
        .with_fusion(2)
        .with_streams(2)
        .with_aggregators(shards)
}

fn inputs(workers: usize, rounds: usize) -> Vec<Vec<Tensor>> {
    (0..workers)
        .map(|w| {
            (0..rounds)
                .map(|r| {
                    gen::workers(
                        workers,
                        512,
                        BlockSpec::new(8),
                        0.5,
                        1.0,
                        OverlapMode::Random,
                        7 + r as u64,
                    )
                    .remove(w)
                })
                .collect()
        })
        .collect()
}

/// Asserts each `core.worker.*` counter equals the field-wise sum of
/// `stats`.
fn assert_counters_match(telemetry: &Telemetry, stats: &[WorkerStats], ctx: &str) {
    let snap = telemetry.snapshot();
    let sum = |f: fn(&WorkerStats) -> u64| stats.iter().map(f).sum::<u64>();
    let expected = [
        ("core.worker.packets_sent", sum(|s| s.packets_sent)),
        ("core.worker.bytes_sent", sum(|s| s.bytes_sent)),
        ("core.worker.blocks_sent", sum(|s| s.blocks_sent)),
        ("core.worker.results_received", sum(|s| s.results_received)),
        ("core.worker.rounds_completed", sum(|s| s.rounds_completed)),
    ];
    for (name, want) in expected {
        assert!(want > 0, "{ctx}: {name} should have counted traffic");
        assert_eq!(snap.counter(name), want, "{ctx}: counter {name}");
    }
}

/// Regression: with one transport and two shards, a dead shard 0 used
/// to make `shutdown` return before shard 1 got its goodbye, leaving
/// shard 1's `run()` waiting forever.
#[test]
fn single_transport_shutdown_reaches_surviving_shard() {
    with_deadline(Duration::from_secs(30), || {
        let cfg = cfg(1, 2);
        let mut net = ChannelNetwork::new(cfg.mesh_size());
        let worker_t = net.endpoint(NodeId(cfg.worker_node(0)));
        drop(net.endpoint(NodeId(cfg.aggregator_node(0)))); // shard 0 is dead
        let agg1_t = net.endpoint(NodeId(cfg.aggregator_node(1)));
        let agg_cfg = cfg.clone();
        let agg1 = thread::spawn(move || OmniAggregator::new(agg1_t, agg_cfg).run());

        let telemetry = Telemetry::new();
        let worker = OmniWorker::with_telemetry(worker_t, cfg, &telemetry);
        let err = worker.shutdown().expect_err("dead shard must surface");
        assert!(matches!(err, TransportError::Disconnected), "{err:?}");

        let res = agg1.join().expect("shard 1 panicked");
        assert!(res.is_ok(), "shard 1 must wind down cleanly: {res:?}");
        assert_eq!(
            telemetry.snapshot().counter("core.shard.shutdown_errors"),
            1
        );
    });
}

#[test]
fn sharded_worker_counters_equal_summed_stats() {
    with_deadline(Duration::from_secs(60), || {
        let telemetry = Telemetry::new();
        let res = ShardedAllReduce::run_traced(&cfg(2, 2), inputs(2, 2), &telemetry);
        assert_counters_match(&telemetry, &res.stats, "sharded");
    });
}

#[test]
fn single_transport_worker_counters_equal_summed_stats() {
    with_deadline(Duration::from_secs(60), || {
        let cfg = cfg(2, 2);
        let telemetry = Telemetry::new();
        let mut net = ChannelNetwork::new(cfg.mesh_size());
        let aggs: Vec<_> = (0..cfg.num_aggregators)
            .map(|a| {
                let t = net.endpoint(NodeId(cfg.aggregator_node(a)));
                let cfg = cfg.clone();
                thread::spawn(move || OmniAggregator::new(t, cfg).run().unwrap())
            })
            .collect();
        let workers: Vec<_> = inputs(2, 2)
            .into_iter()
            .enumerate()
            .map(|(w, tensors)| {
                let t = net.endpoint(NodeId(cfg.worker_node(w)));
                let (cfg, telemetry) = (cfg.clone(), telemetry.clone());
                thread::spawn(move || {
                    let mut worker = OmniWorker::with_telemetry(t, cfg, &telemetry);
                    for mut tensor in tensors {
                        worker.allreduce(&mut tensor).unwrap();
                    }
                    let stats = worker.stats();
                    worker.shutdown().unwrap();
                    stats
                })
            })
            .collect();
        let stats: Vec<WorkerStats> = workers.into_iter().map(|h| h.join().unwrap()).collect();
        for a in aggs {
            a.join().unwrap();
        }
        assert_counters_match(&telemetry, &stats, "single transport");
    });
}
