//! Closed-loop AllReduce rounds over the executable engines.
//!
//! One thread per node. Every worker has one `allreduce` in flight and
//! issues the next when the previous has returned and been checked. Two
//! barriers bracket each round, so the bit-for-bit check and the input
//! refill between rounds stay outside every timed span: a round's span
//! runs from the first worker's call to the last worker's return.
//! Worker 0 decides the phase of the next round (warm-up, measured,
//! stop) before the start barrier, so every worker runs the same rounds.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

use omnireduce_core::config::OmniConfig;
use omnireduce_core::{OmniAggregator, OmniWorker, RecoveryAggregator, RecoveryWorker};
use omnireduce_tensor::Tensor;
use omnireduce_transport::{Message, Transport};

use crate::stats::process_cpu;
use crate::traced::{now_ns, round_id, Span, SpanKind, SpanLog, Traced};
use crate::verdict;

/// Which engine pair runs the rounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// Algorithm 1: `OmniWorker` / `OmniAggregator` on a reliable transport.
    Lossless,
    /// Algorithm 2: `RecoveryWorker` / `RecoveryAggregator` with acks,
    /// versioned slots and retransmission timers.
    Recovery,
}

/// How long each phase of a group's life lasts.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Warm-up rounds: at least this many...
    pub warmup_rounds: usize,
    /// ...and at least this long.
    pub warmup: Duration,
    /// Measured rounds: at least this many...
    pub rounds: usize,
    /// ...and at least this long.
    pub measure: Duration,
}

impl Plan {
    /// The steady-state plan: at least two warm-up rounds over `warmup`,
    /// then at least three measured rounds over `measure`.
    pub fn timed(warmup: Duration, measure: Duration) -> Plan {
        Plan {
            warmup_rounds: 2,
            warmup,
            rounds: 3,
            measure,
        }
    }

    /// Exactly `warmup_rounds` warm-up rounds, then `rounds` measured ones.
    pub fn rounds(warmup_rounds: usize, rounds: usize) -> Plan {
        Plan {
            warmup_rounds,
            warmup: Duration::ZERO,
            rounds,
            measure: Duration::ZERO,
        }
    }

    fn first_phase(&self) -> u8 {
        if self.warmup_rounds == 0 && self.warmup.is_zero() {
            MEASURE
        } else {
            WARMUP
        }
    }
}

/// Worker-side traffic counters common to both engines.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkerCounts {
    pub packets: u64,
    pub bytes: u64,
    pub blocks: u64,
    pub retransmits: u64,
    pub timer_fires: u64,
}

impl WorkerCounts {
    fn minus(self, o: WorkerCounts) -> WorkerCounts {
        WorkerCounts {
            packets: self.packets - o.packets,
            bytes: self.bytes - o.bytes,
            blocks: self.blocks - o.blocks,
            retransmits: self.retransmits - o.retransmits,
            timer_fires: self.timer_fires - o.timer_fires,
        }
    }

    fn plus(self, o: WorkerCounts) -> WorkerCounts {
        WorkerCounts {
            packets: self.packets + o.packets,
            bytes: self.bytes + o.bytes,
            blocks: self.blocks + o.blocks,
            retransmits: self.retransmits + o.retransmits,
            timer_fires: self.timer_fires + o.timer_fires,
        }
    }
}

/// Aggregator-side counters over the group's whole life.
#[derive(Debug, Clone, Copy, Default)]
pub struct AggCounts {
    /// Result packets multicast, retransmissions included.
    pub results_sent: u64,
    /// Slots (lossless) or phases (recovery) completed.
    pub slots_completed: u64,
}

/// One measured `allreduce` call.
#[derive(Debug, Clone, Copy)]
pub struct Call {
    pub worker: usize,
    pub round: usize,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One node's span log after the run, with the messages it sent during
/// the captured round.
pub struct NodeTrace {
    pub name: String,
    pub is_worker: bool,
    pub spans: Vec<Span>,
    pub sent: Vec<Message>,
}

/// Everything a group run measured.
pub struct GroupRun {
    /// Wall time from the first node thread's spawn until every engine
    /// was constructed on an established mesh.
    pub setup: Duration,
    /// Measured calls, every worker.
    pub calls: Vec<Call>,
    /// Measured rounds.
    pub rounds: usize,
    /// Rounds run, warm-up included.
    pub total_rounds: usize,
    /// Process CPU time inside the measured rounds' barrier windows.
    pub cpu: Duration,
    /// Worker counters over the measured rounds, summed over workers.
    pub worker: WorkerCounts,
    /// Aggregator counters over all rounds.
    pub agg: AggCounts,
    /// Per-node spans (traced groups only).
    pub traces: Vec<NodeTrace>,
}

impl GroupRun {
    /// Measured round intervals (first call, last return), in round order.
    pub fn round_windows(&self) -> Vec<(u64, u64)> {
        let mut by_round: BTreeMap<usize, (u64, u64)> = BTreeMap::new();
        for c in &self.calls {
            let e = by_round.entry(c.round).or_insert((u64::MAX, 0));
            e.0 = e.0.min(c.start_ns);
            e.1 = e.1.max(c.end_ns);
        }
        by_round.into_values().collect()
    }

    /// Sum over measured rounds of (last return − first call).
    pub fn span_sum_ns(&self) -> u64 {
        self.round_windows().iter().map(|(s, e)| e - s).sum()
    }
}

/// A worker engine as the harness drives it.
trait RoundWorker {
    fn allreduce(&mut self, t: &mut Tensor) -> Result<(), String>;
    fn counts(&self) -> WorkerCounts;
    fn close(self) -> Result<(), String>;
}

impl<T: Transport> RoundWorker for OmniWorker<T> {
    fn allreduce(&mut self, t: &mut Tensor) -> Result<(), String> {
        OmniWorker::allreduce(self, t).map_err(|e| e.to_string())
    }
    fn counts(&self) -> WorkerCounts {
        let s = self.stats();
        WorkerCounts {
            packets: s.packets_sent,
            bytes: s.bytes_sent,
            blocks: s.blocks_sent,
            retransmits: 0,
            timer_fires: 0,
        }
    }
    fn close(self) -> Result<(), String> {
        self.shutdown().map_err(|e| e.to_string())
    }
}

impl<T: Transport> RoundWorker for RecoveryWorker<T> {
    fn allreduce(&mut self, t: &mut Tensor) -> Result<(), String> {
        RecoveryWorker::allreduce(self, t).map_err(|e| e.to_string())
    }
    fn counts(&self) -> WorkerCounts {
        let s = self.stats();
        WorkerCounts {
            packets: s.packets_sent,
            bytes: s.bytes_sent,
            blocks: s.blocks_sent,
            retransmits: s.retransmissions,
            timer_fires: s.timer_fires,
        }
    }
    fn close(self) -> Result<(), String> {
        self.shutdown().map_err(|e| e.to_string())
    }
}

const WARMUP: u8 = 0;
const MEASURE: u8 = 1;
const STOP: u8 = 2;

/// State shared by a group's worker threads.
struct Rounds<'a> {
    plan: Plan,
    inputs: &'a [Tensor],
    oracle: &'a Tensor,
    start: Barrier,
    end: Barrier,
    phase: AtomicU8,
    logs: &'a [Arc<SpanLog>],
}

struct WorkerOut {
    calls: Vec<Call>,
    counts: WorkerCounts,
    cpu: Duration,
    rounds: usize,
    total_rounds: usize,
}

fn drive<W: RoundWorker>(mut eng: W, w: usize, ctx: &Rounds<'_>) -> WorkerOut {
    let input = &ctx.inputs[w];
    let mut tensor = input.clone();
    let log = ctx.logs.get(w);
    let mut out = WorkerOut {
        calls: Vec::new(),
        counts: WorkerCounts::default(),
        cpu: Duration::ZERO,
        rounds: 0,
        total_rounds: 0,
    };
    let mut base = eng.counts();
    // Worker 0's phase clock.
    let mut phase_start = Instant::now();
    let mut phase_rounds = 0usize;
    let mut round = 0usize;
    loop {
        ctx.start.wait();
        let phase = ctx.phase.load(Ordering::Acquire);
        if phase == STOP {
            break;
        }
        let measured = phase == MEASURE;
        if measured && out.rounds == 0 {
            base = eng.counts();
        }
        let cpu0 = (w == 0 && measured).then(process_cpu);
        if let Some(log) = log {
            log.set_parent(round_id(w, round));
        }
        let t0 = now_ns();
        let res = eng.allreduce(&mut tensor);
        let t1 = now_ns();
        if let Some(log) = log {
            log.set_parent(0);
        }
        verdict::attempt();
        if let Err(e) = res {
            verdict::abort(&format!("worker {w} round {round}: allreduce failed: {e}"));
        }
        ctx.end.wait();
        if let Some(c0) = cpu0 {
            out.cpu += process_cpu() - c0;
        }
        if let Some(log) = log {
            log.push(Span {
                kind: SpanKind::Allreduce,
                id: round_id(w, round),
                start_ns: t0,
                end_ns: t1,
                bytes: 0,
            });
        }
        if !bits_eq(&tensor, ctx.oracle) {
            verdict::fail(&format!(
                "worker {w} round {round}: output differs from the oracle"
            ));
        }
        tensor.as_mut_slice().copy_from_slice(input.as_slice());
        if measured {
            out.calls.push(Call {
                worker: w,
                round,
                start_ns: t0,
                end_ns: t1,
            });
            out.rounds += 1;
        }
        round += 1;
        if w == 0 {
            phase_rounds += 1;
            let elapsed = phase_start.elapsed();
            let next = match phase {
                WARMUP if phase_rounds >= ctx.plan.warmup_rounds && elapsed >= ctx.plan.warmup => {
                    MEASURE
                }
                MEASURE if phase_rounds >= ctx.plan.rounds && elapsed >= ctx.plan.measure => STOP,
                p => p,
            };
            // Capture exactly the first measured round's traffic.
            let capture = next == MEASURE && phase == WARMUP;
            for l in ctx.logs {
                l.set_capture(capture);
            }
            if next != phase {
                phase_start = Instant::now();
                phase_rounds = 0;
            }
            ctx.phase.store(next, Ordering::Release);
        }
    }
    out.counts = eng.counts().minus(base);
    out.total_rounds = round;
    if let Err(e) = eng.close() {
        verdict::abort(&format!("worker {w}: shutdown failed: {e}"));
    }
    out
}

fn bits_eq(a: &Tensor, b: &Tensor) -> bool {
    a.len() == b.len()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Where every node waits once its engine is built on its endpoint, so
/// no worker sends before every node is bound. Set-up ends when the last
/// node arrives (its arrival time, not the time the waiters wake).
struct Ready {
    barrier: Barrier,
    last_ns: AtomicU64,
}

impl Ready {
    fn wait(&self) {
        self.last_ns.fetch_max(now_ns(), Ordering::AcqRel);
        self.barrier.wait();
    }
}

fn serve<T: Transport>(
    protocol: Protocol,
    t: T,
    cfg: OmniConfig,
    ready: &Ready,
) -> Result<AggCounts, String> {
    match protocol {
        Protocol::Lossless => {
            let mut agg = OmniAggregator::new(t, cfg);
            ready.wait();
            agg.run().map_err(|e| e.to_string())?;
            Ok(AggCounts {
                results_sent: agg.stats.results_sent,
                slots_completed: agg.stats.slots_completed,
            })
        }
        Protocol::Recovery => {
            let mut agg = RecoveryAggregator::new(t, cfg);
            ready.wait();
            agg.run().map_err(|e| e.to_string())?;
            Ok(AggCounts {
                results_sent: agg.stats.results_sent + agg.stats.result_retransmissions,
                slots_completed: agg.stats.results_sent,
            })
        }
    }
}

/// Brings up one group on the mesh `endpoint` builds (called from each
/// node's own thread, so establishment runs concurrently), runs `plan`'s
/// rounds on `inputs` checking every output against `oracle`, and tears
/// the group down. Without a plan the group is torn down as soon as it
/// is up (a set-up repetition). With `traced`, every node's transport
/// is wrapped in [`Traced`].
pub fn run<T, F>(
    protocol: Protocol,
    cfg: &OmniConfig,
    endpoint: &F,
    inputs: &[Tensor],
    oracle: &Tensor,
    plan: Option<Plan>,
    traced: bool,
) -> GroupRun
where
    T: Transport + 'static,
    F: Fn(usize) -> Result<T, String> + Sync,
{
    let workers = cfg.num_workers;
    let logs: Vec<Arc<SpanLog>> = if traced {
        (0..cfg.mesh_size()).map(|_| Arc::default()).collect()
    } else {
        Vec::new()
    };
    let first_phase = plan.map_or(STOP, |p| p.first_phase());
    if first_phase == MEASURE {
        for l in &logs {
            l.set_capture(true);
        }
    }
    let ctx = Rounds {
        plan: plan.unwrap_or(Plan::rounds(0, 0)),
        inputs,
        oracle,
        start: Barrier::new(workers),
        end: Barrier::new(workers),
        phase: AtomicU8::new(first_phase),
        logs: &logs,
    };
    let ready = Ready {
        barrier: Barrier::new(cfg.mesh_size()),
        last_ns: AtomicU64::new(0),
    };
    let t_setup = now_ns();
    let (outs, aggs) = thread::scope(|s| {
        let mut worker_handles = Vec::new();
        for w in 0..workers {
            let node = cfg.worker_node(w) as usize;
            let ready = &ready;
            let cfg = cfg.clone();
            let ctx = &ctx;
            worker_handles.push(s.spawn(move || {
                let t = endpoint(node).unwrap_or_else(|e| verdict::abort(&e));
                match (protocol, ctx.logs.get(node)) {
                    (Protocol::Lossless, Some(log)) => {
                        let eng = OmniWorker::new(Traced::new(t, log.clone()), cfg);
                        ready.wait();
                        drive(eng, w, ctx)
                    }
                    (Protocol::Lossless, None) => {
                        let eng = OmniWorker::new(t, cfg);
                        ready.wait();
                        drive(eng, w, ctx)
                    }
                    (Protocol::Recovery, Some(log)) => {
                        let eng = RecoveryWorker::new(Traced::new(t, log.clone()), cfg);
                        ready.wait();
                        drive(eng, w, ctx)
                    }
                    (Protocol::Recovery, None) => {
                        let eng = RecoveryWorker::new(t, cfg);
                        ready.wait();
                        drive(eng, w, ctx)
                    }
                }
            }));
        }
        let mut agg_handles = Vec::new();
        for a in 0..cfg.num_aggregators {
            let node = cfg.aggregator_node(a) as usize;
            let ready = &ready;
            let cfg = cfg.clone();
            let log = logs.get(node).cloned();
            agg_handles.push(s.spawn(move || {
                let t = endpoint(node).unwrap_or_else(|e| verdict::abort(&e));
                let r = match log {
                    Some(log) => serve(protocol, Traced::new(t, log), cfg, ready),
                    None => serve(protocol, t, cfg, ready),
                };
                r.unwrap_or_else(|e| verdict::abort(&format!("aggregator {a}: {e}")))
            }));
        }
        let outs: Vec<WorkerOut> = worker_handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect();
        let aggs: Vec<AggCounts> = agg_handles
            .into_iter()
            .map(|h| h.join().expect("aggregator thread panicked"))
            .collect();
        (outs, aggs)
    });
    let setup = Duration::from_nanos(ready.last_ns.load(Ordering::Acquire) - t_setup);

    let mut run = GroupRun {
        setup,
        calls: Vec::new(),
        rounds: outs[0].rounds,
        total_rounds: outs[0].total_rounds,
        cpu: outs[0].cpu,
        worker: WorkerCounts::default(),
        agg: AggCounts::default(),
        traces: Vec::new(),
    };
    for o in outs {
        run.calls.extend(o.calls);
        run.worker = run.worker.plus(o.counts);
    }
    for a in aggs {
        run.agg.results_sent += a.results_sent;
        run.agg.slots_completed += a.slots_completed;
    }
    for (node, log) in logs.iter().enumerate() {
        let (spans, sent) = log.take();
        let is_worker = node < workers;
        let name = if is_worker {
            format!("worker{node}")
        } else {
            format!("agg{}", node - workers)
        };
        run.traces.push(NodeTrace {
            name,
            is_worker,
            spans,
            sent,
        });
    }
    run
}
