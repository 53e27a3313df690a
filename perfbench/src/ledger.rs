//! The per-layer ledger of the traced run.
//!
//! Spans live in the benchmark, around calls into each layer's public
//! functions; nothing inside the program is instrumented. Each thread
//! keeps a stack of open spans, so a span's *self* time is its wall
//! time minus the wall time of the spans opened inside it on the same
//! thread. Totals go to one process-wide table that
//! [`take`] drains.
//!
//! Frame spans ([`FRAME`] and the per-cell `bench.grid.<kind>` spans)
//! mark the work whose wall time must be attributed: their self time
//! is the part no layer span covers.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// The frame span around one operation (or one set-up) on the client
/// thread.
pub const FRAME: &str = "op";

/// Prefix of the per-cell frame spans that worker threads open.
pub const CELL_PREFIX: &str = "bench.grid.";

/// Totals of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerStat {
    /// Spans closed.
    pub calls: u64,
    /// Summed wall time, nanoseconds.
    pub busy_ns: u64,
    /// Summed wall time not covered by nested spans, nanoseconds.
    pub self_ns: u64,
}

/// Everything the traced run recorded.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Span totals by name.
    pub layers: BTreeMap<String, LayerStat>,
    /// Named counters (work counts, byte counts, extra time totals).
    pub counts: BTreeMap<String, f64>,
    /// Wall time of every closed per-cell frame span, milliseconds.
    pub cell_ms: Vec<f64>,
}

static LEDGER: Mutex<Ledger> = Mutex::new(Ledger {
    layers: BTreeMap::new(),
    counts: BTreeMap::new(),
    cell_ms: Vec::new(),
});

thread_local! {
    /// Child wall time accumulated by each open span of this thread.
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn ledger() -> std::sync::MutexGuard<'static, Ledger> {
    LEDGER
        .lock()
        .expect("ledger lock is never held across a panic")
}

/// Runs `f` inside a span named `name`, returning its result and the
/// span's wall time in nanoseconds.
pub fn timed<R>(name: &str, f: impl FnOnce() -> R) -> (R, u64) {
    STACK.with(|s| s.borrow_mut().push(0));
    let start = Instant::now();
    let out = f();
    let ns = start.elapsed().as_nanos() as u64;
    let child_ns = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let child = s.pop().expect("span stack is balanced");
        if let Some(parent) = s.last_mut() {
            *parent += ns;
        }
        child
    });
    let mut l = ledger();
    let stat = l.layers.entry(name.to_string()).or_default();
    stat.calls += 1;
    stat.busy_ns += ns;
    stat.self_ns += ns.saturating_sub(child_ns);
    if name.starts_with(CELL_PREFIX) {
        l.cell_ms.push(ns as f64 / 1e6);
    }
    (out, ns)
}

/// Runs `f` inside a span named `name`.
pub fn span<R>(name: &str, f: impl FnOnce() -> R) -> R {
    timed(name, f).0
}

/// Runs `f` inside a span named `name` when `on`, else just runs it.
pub fn span_if<R>(on: bool, name: &str, f: impl FnOnce() -> R) -> R {
    if on {
        span(name, f)
    } else {
        f()
    }
}

/// Adds `n` to the counter `name`.
pub fn count(name: &str, n: f64) {
    *ledger().counts.entry(name.to_string()).or_default() += n;
}

/// Drains everything recorded so far.
pub fn take() -> Ledger {
    std::mem::take(&mut *ledger())
}

impl Ledger {
    /// The totals of `name` (zero when never recorded).
    pub fn stat(&self, name: &str) -> LayerStat {
        self.layers.get(name).copied().unwrap_or_default()
    }

    /// The counter `name` (zero when never recorded).
    pub fn count(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or_default()
    }
}

/// Share (percent) of frame wall time, over all of `ledgers`, that no
/// layer span covers.
pub fn unattributed_pct(ledgers: &[&Ledger]) -> f64 {
    let (mut wall, mut unattributed) = (0u64, 0u64);
    for (name, stat) in ledgers.iter().flat_map(|l| &l.layers) {
        if name == FRAME || name.starts_with(CELL_PREFIX) {
            wall += stat.busy_ns;
            unattributed += stat.self_ns;
        }
    }
    if wall == 0 {
        0.0
    } else {
        100.0 * unattributed as f64 / wall as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The ledger is process-wide; one test drives it so parallel test
    // threads cannot interleave their spans.
    #[test]
    fn self_time_excludes_nested_spans_and_frames_account_the_rest() {
        take();
        let sleep = |ms| std::thread::sleep(std::time::Duration::from_millis(ms));
        span(FRAME, || {
            sleep(5);
            span("layer.a", || sleep(20));
            span("layer.b", || span("layer.c", || sleep(10)));
        });
        count("things", 2.0);
        count("things", 3.0);
        let l = take();
        let frame = l.stat(FRAME);
        let a = l.stat("layer.a");
        let b = l.stat("layer.b");
        let c = l.stat("layer.c");
        assert_eq!((frame.calls, a.calls, b.calls, c.calls), (1, 1, 1, 1));
        assert!(frame.busy_ns >= a.busy_ns + b.busy_ns);
        assert_eq!(frame.self_ns, frame.busy_ns - a.busy_ns - b.busy_ns);
        assert_eq!(b.self_ns, b.busy_ns - c.busy_ns);
        assert_eq!(c.self_ns, c.busy_ns);
        assert!(frame.self_ns >= 5_000_000);
        assert_eq!(l.count("things"), 5.0);
        assert_eq!(l.count("missing"), 0.0);
        let pct = unattributed_pct(&[&l]);
        assert!(pct > 0.0 && pct < 100.0, "{pct}");
        assert!(l.cell_ms.is_empty());
        assert_eq!(take().layers.len(), 0, "take drains the ledger");
    }
}
