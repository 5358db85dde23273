//! The run's correctness tally and its fail-fast exit.
//!
//! Every checked `allreduce` call (or simulation) counts as attempted;
//! an engine error or an output that is not bit-identical to the oracle
//! counts as failed. An engine error leaves its peers blocked inside the
//! protocol, so it ends the process at once with a failing result line.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::stats::result_line;

static ATTEMPTED: AtomicU64 = AtomicU64::new(0);
static FAILED: AtomicU64 = AtomicU64::new(0);

/// Counts one checked operation.
pub fn attempt() {
    ATTEMPTED.fetch_add(1, Ordering::Relaxed);
}

/// Counts one failed operation and says why on stderr.
pub fn fail(reason: &str) {
    eprintln!("omnibench: FAILED: {reason}");
    FAILED.fetch_add(1, Ordering::Relaxed);
}

/// (attempted, failed) so far.
pub fn tally() -> (u64, u64) {
    (
        ATTEMPTED.load(Ordering::Relaxed),
        FAILED.load(Ordering::Relaxed),
    )
}

/// Ends the process with a failing result line.
pub fn abort(reason: &str) -> ! {
    fail(reason);
    let (attempted, failed) = tally();
    println!("{}", result_line(false, attempted.max(1), failed, &[]));
    std::process::exit(1);
}
