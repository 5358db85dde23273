//! Replay probes: the layers the engines run inside `allreduce`, timed
//! on the traced run's own inputs and captured traffic.
//!
//! The engines do not expose their bitmap scan, lookahead, codec or
//! reduction time, so each probe calls the same public function on the
//! same data the engines saw and reports its median time.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use omnireduce_core::config::OmniConfig;
use omnireduce_core::{ColAccumulator, StreamLayout};
use omnireduce_tensor::{NonZeroBitmap, Tensor, INFINITY_BLOCK};
use omnireduce_transport::{codec, Message, PacketKind};

use crate::stats::median_time;

/// Repetitions of each whole-input probe.
const REPS: usize = 7;

/// `NonZeroBitmap::build` on `input`: median ns.
pub fn bitmap_ns(input: &Tensor, cfg: &OmniConfig) -> f64 {
    let spec = cfg.block_spec();
    median_time(REPS, || {
        black_box(NonZeroBitmap::build(black_box(input), spec));
    })
    .as_nanos() as f64
}

/// The full `StreamLayout::next_block` walk one worker makes over its
/// bitmap in one round (every stream, every column, first row to ∞):
/// median ns.
pub fn lookahead_ns(input: &Tensor, cfg: &OmniConfig) -> f64 {
    let layout = StreamLayout::new(
        cfg.block_spec(),
        cfg.fusion,
        cfg.total_streams(),
        cfg.tensor_len,
    );
    let bitmap = NonZeroBitmap::build(input, cfg.block_spec());
    let skip = cfg.skip_zero_blocks;
    median_time(REPS, || {
        for g in layout.active_streams() {
            for c in layout.valid_columns(g) {
                let first = layout.first_block(g, c);
                let mut next = layout.next_block(black_box(&bitmap), g, c, first, skip);
                while next != INFINITY_BLOCK {
                    next = layout.next_block(&bitmap, g, c, Some(next), skip);
                }
                black_box(next);
            }
        }
    })
    .as_nanos() as f64
}

/// Codec replay over every captured message.
pub struct CodecReplay {
    pub encode_ns_per_msg: f64,
    pub decode_ns_per_msg: f64,
    pub bytes_per_msg: f64,
    /// Messages that did not decode back to themselves.
    pub mismatches: usize,
}

/// Passes over the captured messages until at least this much time has
/// been spent, so small captures are timed over many passes.
const MIN_PROBE: Duration = Duration::from_millis(100);

fn passes(mut f: impl FnMut()) -> f64 {
    let mut ns = Vec::new();
    let t = Instant::now();
    while ns.len() < 3 || (t.elapsed() < MIN_PROBE && ns.len() < 1000) {
        let p = Instant::now();
        f();
        ns.push(p.elapsed().as_nanos() as f64);
    }
    crate::stats::median(&ns)
}

/// `codec::encode_into` and `codec::decode_into` over `msgs`, with
/// reused buffers as the engines' pooled paths use them.
pub fn codec(msgs: &[&Message]) -> CodecReplay {
    assert!(!msgs.is_empty(), "no captured messages to replay");
    let frames: Vec<Vec<u8>> = msgs
        .iter()
        .map(|m| {
            let mut f = Vec::new();
            codec::encode_into(m, &mut f);
            f
        })
        .collect();
    let mut scratch = Message::Shutdown;
    let mismatches = frames
        .iter()
        .zip(msgs)
        .filter(|(f, m)| codec::decode_into(f, &mut scratch).is_err() || scratch != ***m)
        .count();
    let mut buf = Vec::new();
    let enc = passes(|| {
        for m in msgs {
            codec::encode_into(black_box(m), &mut buf);
            black_box(&buf);
        }
    });
    let dec = passes(|| {
        for f in &frames {
            codec::decode_into(black_box(f), &mut scratch).expect("replayed frame decodes");
            black_box(&scratch);
        }
    });
    let bytes: usize = frames.iter().map(Vec::len).sum();
    let n = msgs.len() as f64;
    CodecReplay {
        encode_ns_per_msg: enc / n,
        decode_ns_per_msg: dec / n,
        bytes_per_msg: bytes as f64 / n,
        mismatches,
    }
}

/// The aggregator's reduction replayed on every captured data entry:
/// each block's contributions go through `ColAccumulator::store`
/// (`reduce_into` after the first) and `take_into`. Median ns per entry.
pub fn reduce_ns_per_block(data: &[&Message], cfg: &OmniConfig) -> f64 {
    let mut blocks: BTreeMap<u32, Vec<(usize, &[f32])>> = BTreeMap::new();
    for m in data {
        if let Message::Block(p) = m {
            if p.kind != PacketKind::Data {
                continue;
            }
            for e in p.entries.iter().filter(|e| !e.is_ack()) {
                blocks
                    .entry(e.block)
                    .or_default()
                    .push((p.wid as usize, &e.data));
            }
        }
    }
    let entries: usize = blocks.values().map(Vec::len).sum();
    assert!(entries > 0, "no captured data entries to replay");
    let mut acc = ColAccumulator::new(cfg.num_workers, cfg.deterministic);
    let mut out = Vec::with_capacity(cfg.block_size);
    passes(|| {
        for contribs in blocks.values() {
            for (wid, data) in contribs {
                acc.store(*wid, black_box(data));
            }
            acc.take_into(&mut out);
            black_box(&out);
        }
    }) / entries as f64
}
