//! The `Transport` decorator and the in-memory span log of the traced run.
//!
//! [`Traced`] wraps a node's transport and records one span per `send`,
//! `recv` and `recv_timeout` call, with the id of the `allreduce` span
//! that caused it. The harness records the `allreduce` spans themselves
//! into the same log. Spans stay in memory until the run ends and are
//! written out by [`write_spans`].

use std::io::Write as _;
use std::path::Path;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use omnireduce_transport::{codec, Message, NodeId, Transport, TransportError};

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// What a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// One `allreduce` call (the parent span).
    Allreduce,
    /// One `Transport::send` call.
    Send,
    /// One `Transport::recv` or `recv_timeout` call.
    Recv,
}

impl SpanKind {
    fn name(self) -> &'static str {
        match self {
            SpanKind::Allreduce => "allreduce",
            SpanKind::Send => "send",
            SpanKind::Recv => "recv",
        }
    }
}

/// One recorded span. For an `allreduce` span `id` is its own id; for a
/// transport call it is the id of the `allreduce` span in flight on that
/// node when the call was made (0 on aggregators, which serve no single
/// call).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub kind: SpanKind,
    pub id: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Encoded bytes moved by a transport call (0 for a timed-out recv).
    pub bytes: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span id of worker `w`'s `allreduce` call number `round`.
pub fn round_id(w: usize, round: usize) -> u64 {
    ((w as u64 + 1) << 32) | round as u64
}

#[derive(Default)]
struct LogState {
    parent: u64,
    capture: bool,
    spans: Vec<Span>,
    /// Messages this node sent while capture was on, for the replays.
    sent: Vec<Message>,
}

/// One node's span log, shared between its [`Traced`] transport and the
/// harness.
#[derive(Default)]
pub struct SpanLog {
    state: Mutex<LogState>,
}

impl SpanLog {
    fn lock(&self) -> std::sync::MutexGuard<'_, LogState> {
        self.state
            .lock()
            .expect("span log poisoned by a panicking node")
    }

    /// Sets the `allreduce` span later transport calls belong to.
    pub fn set_parent(&self, id: u64) {
        self.lock().parent = id;
    }

    /// Turns capture of sent messages on or off.
    pub fn set_capture(&self, on: bool) {
        self.lock().capture = on;
    }

    /// Records a span measured outside the decorator.
    pub fn push(&self, span: Span) {
        self.lock().spans.push(span);
    }

    fn record(&self, kind: SpanKind, start_ns: u64, end_ns: u64, msg: Option<&Message>) {
        let mut st = self.lock();
        let bytes = msg.map_or(0, |m| codec::encoded_len(m) as u64);
        let id = st.parent;
        st.spans.push(Span {
            kind,
            id,
            start_ns,
            end_ns,
            bytes,
        });
        if kind == SpanKind::Send && st.capture {
            if let Some(m) = msg {
                st.sent.push(m.clone());
            }
        }
    }

    /// Takes the recorded spans and captured messages.
    pub fn take(&self) -> (Vec<Span>, Vec<Message>) {
        let mut st = self.lock();
        (std::mem::take(&mut st.spans), std::mem::take(&mut st.sent))
    }
}

/// A transport that records every call into a [`SpanLog`].
pub struct Traced<T> {
    inner: T,
    log: Arc<SpanLog>,
}

impl<T> Traced<T> {
    pub fn new(inner: T, log: Arc<SpanLog>) -> Self {
        Traced { inner, log }
    }
}

impl<T: Transport> Transport for Traced<T> {
    fn local_id(&self) -> NodeId {
        self.inner.local_id()
    }

    fn send(&self, peer: NodeId, msg: &Message) -> Result<(), TransportError> {
        let t0 = now_ns();
        let r = self.inner.send(peer, msg);
        self.log.record(SpanKind::Send, t0, now_ns(), Some(msg));
        r
    }

    fn recv(&self) -> Result<(NodeId, Message), TransportError> {
        let t0 = now_ns();
        let r = self.inner.recv();
        let t1 = now_ns();
        self.log
            .record(SpanKind::Recv, t0, t1, r.as_ref().ok().map(|(_, m)| m));
        r
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Option<(NodeId, Message)>, TransportError> {
        let t0 = now_ns();
        let r = self.inner.recv_timeout(timeout);
        let t1 = now_ns();
        let msg = match &r {
            Ok(Some((_, m))) => Some(m),
            _ => None,
        };
        self.log.record(SpanKind::Recv, t0, t1, msg);
        r
    }
}

/// Writes every node's spans as CSV (`lane,name,id,start_ns,end_ns,bytes`).
pub fn write_spans(path: &Path, lanes: &[(String, Vec<Span>)]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "lane,name,id,start_ns,end_ns,bytes")?;
    for (lane, spans) in lanes {
        for s in spans {
            writeln!(
                out,
                "{lane},{},{},{},{},{}",
                s.kind.name(),
                s.id,
                s.start_ns,
                s.end_ns,
                s.bytes
            )?;
        }
    }
    out.flush()
}
