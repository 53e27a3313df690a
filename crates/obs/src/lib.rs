//! In-tree structured tracing and metrics for the SCHEMATIC reproduction.
//!
//! Three primitives, all zero-dependency and cheap enough to leave
//! compiled into release binaries:
//!
//! * **Spans** — scoped wall-clock timers ([`span`]) that aggregate per
//!   name into call count, total nanoseconds and a log-linear
//!   [`Histogram`] for quantiles.
//! * **Counters** — monotonic named counters ([`count`]).
//! * **Events** — structured records ([`event`]) with ordered key/value
//!   fields, used for the emulator's intermittent-execution lifecycle
//!   stream and the compiler's decision log.
//!
//! Everything lands in a thread-local [`Registry`]. The work-stealing
//! grid driver runs each cell with [`capture`], which swaps in a fresh
//! registry for the closure and hands it back, so per-cell results are
//! identical no matter which worker thread ran the cell or in what
//! order. Registries merge deterministically ([`Registry::merge_from`]):
//! spans and counters are keyed by `BTreeMap`, histograms add
//! bucketwise, events concatenate in emission order.
//!
//! Collection is gated on a single process-global flag
//! ([`set_enabled`]). When disabled — the default — every entry point
//! reduces to one relaxed atomic load, which keeps the instrumentation
//! out of the emulator's measured hot paths.
//!
//! Span totals are inclusive wall-clock sums: spans may nest (e.g. the
//! RCG span runs inside the placement span), so per-name totals are not
//! mutually exclusive shares of the parent.
//!
//! The crate also owns the repo's integer-JSON dialect ([`json`]), the
//! one reader/writer behind every cross-process artifact: registries
//! ([`codec`]), and the grid's cell, trace and service-frame formats
//! built on top of it in `schematic-bench`.

#![warn(missing_docs)]

pub mod codec;
pub mod hist;
pub mod json;

pub use hist::Histogram;

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Hard cap on buffered events per registry. Pathological cells (tiny
/// TBPF on a large benchmark) can otherwise emit millions of lifecycle
/// events; past the cap the buffer behaves as a ring — the *oldest*
/// event is discarded (counted in [`Registry::dropped_events`]) so the
/// most recent run's lifecycle, including its closing `run_end`
/// snapshot, always survives truncation.
pub const MAX_EVENTS: usize = 1 << 17;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns collection on or off process-wide.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether collection is currently enabled. A single relaxed load, so
/// instrumentation sites stay negligible when tracing is off.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// A field value in an [`Event`]: the repo's JSON dialect is
/// u64-and-string only, and the event stream sticks to the same shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// An unsigned integer (cycles, picojoules, ids, ...).
    U64(u64),
    /// A short label (status names, variable names, ...).
    Str(String),
}

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::U64(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}

/// One structured record: a kind tag plus ordered key/value fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Event kind, e.g. `"checkpoint_commit"` or `"alloc_pick"`.
    pub kind: String,
    /// Ordered fields; order is part of the serialized form.
    pub fields: Vec<(String, Value)>,
}

impl Event {
    /// The value of field `name`, if present.
    pub fn field(&self, name: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    /// The value of u64 field `name`, if present with that type.
    pub fn u64_field(&self, name: &str) -> Option<u64> {
        match self.field(name) {
            Some(Value::U64(v)) => Some(*v),
            _ => None,
        }
    }

    /// The label value of field `name`, if present and a string.
    pub fn str_field(&self, name: &str) -> Option<&str> {
        match self.field(name) {
            Some(Value::Str(s)) => Some(s),
            _ => None,
        }
    }
}

/// Aggregated timings for one span name.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseStats {
    /// Number of completed spans.
    pub calls: u64,
    /// Total wall-clock nanoseconds across all calls.
    pub total_nanos: u64,
    /// Per-call nanosecond distribution.
    pub hist: Histogram,
}

impl PhaseStats {
    fn record(&mut self, nanos: u64) {
        self.calls += 1;
        self.total_nanos = self.total_nanos.saturating_add(nanos);
        self.hist.record(nanos);
    }

    /// Folds `other` into `self`.
    pub fn merge_from(&mut self, other: &PhaseStats) {
        self.calls += other.calls;
        self.total_nanos = self.total_nanos.saturating_add(other.total_nanos);
        self.hist.merge_from(&other.hist);
    }

    /// Mean nanoseconds per call, rounded down (`0` when never called).
    pub fn mean_nanos(&self) -> u64 {
        self.total_nanos.checked_div(self.calls).unwrap_or(0)
    }
}

/// Everything one thread (or one [`capture`] scope) collected.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    /// Span aggregates keyed by span name.
    pub spans: BTreeMap<String, PhaseStats>,
    /// Monotonic counters keyed by name.
    pub counters: BTreeMap<String, u64>,
    /// Structured events in emission order, capped at [`MAX_EVENTS`]
    /// with ring semantics (oldest dropped first).
    pub events: VecDeque<Event>,
    /// Oldest events discarded after the cap was reached.
    pub dropped_events: u64,
    /// Oldest events handed to a [`set_spill`] sink instead of being
    /// dropped — still part of the stream, just resident on disk.
    pub spilled_events: u64,
}

impl Registry {
    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
            && self.counters.is_empty()
            && self.events.is_empty()
            && self.dropped_events == 0
            && self.spilled_events == 0
    }

    /// Folds `other` into `self`. Keyed aggregates add; events append
    /// in `other`'s order. Merging a fixed set of registries produces
    /// the same result regardless of how the work that filled them was
    /// scheduled.
    pub fn merge_from(&mut self, other: Registry) {
        for (name, stats) in other.spans {
            self.spans.entry(name).or_default().merge_from(&stats);
        }
        for (name, n) in other.counters {
            *self.counters.entry(name).or_default() += n;
        }
        for ev in other.events {
            self.push_event(ev);
        }
        self.dropped_events += other.dropped_events;
        self.spilled_events += other.spilled_events;
    }

    /// Records one `nanos` sample into the named span aggregate — the
    /// dynamic-name sibling of [`span`] (whose guard requires a
    /// `&'static str`). Services use it to attribute wall time to
    /// runtime-constructed keys, e.g. one span per grid job.
    pub fn record_span(&mut self, name: &str, nanos: u64) {
        self.spans
            .entry(name.to_string())
            .or_default()
            .record(nanos);
    }

    fn push_event(&mut self, ev: Event) {
        if self.events.len() == MAX_EVENTS {
            self.events.pop_front();
            self.dropped_events += 1;
        }
        self.events.push_back(ev);
    }
}

thread_local! {
    static LOCAL: RefCell<Registry> = RefCell::new(Registry::default());
    static SPILL: RefCell<Option<SpillFn>> = RefCell::new(None);
}

/// An event spill sink: receives batches of the *oldest* buffered
/// events when the thread's registry is full. See [`set_spill`].
pub type SpillFn = Box<dyn FnMut(Vec<Event>)>;

/// Installs (or clears) the calling thread's event spill sink and
/// returns the previous one.
///
/// Without a sink, a full event buffer behaves as a ring: the oldest
/// record is dropped (counted in [`Registry::dropped_events`]). With a
/// sink installed, [`event`] instead drains the oldest half of the
/// buffer into the sink — typically a writer streaming them to disk —
/// so the full stream survives in order: spilled batches first, the
/// resident buffer after. Spilled records are counted in
/// [`Registry::spilled_events`].
///
/// The sink runs on the emitting thread while the spill bookkeeping is
/// live; it must not call [`event`] itself.
pub fn set_spill(f: Option<SpillFn>) -> Option<SpillFn> {
    SPILL.with(|s| std::mem::replace(&mut *s.borrow_mut(), f))
}

/// A live span; records into the thread-local registry on drop. Created
/// by [`span`].
#[must_use = "a span measures the scope it is bound to; binding it to _ drops it immediately"]
pub struct SpanGuard {
    name: &'static str,
    start: Option<Instant>,
}

/// Starts a scoped timer. When collection is disabled this is a single
/// atomic load and the guard is inert.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    SpanGuard {
        name,
        start: enabled().then(Instant::now),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            LOCAL.with(|l| {
                l.borrow_mut()
                    .spans
                    .entry(self.name.to_string())
                    .or_default()
                    .record(nanos);
            });
        }
    }
}

/// Adds `n` to the named counter (no-op when collection is disabled).
#[inline]
pub fn count(name: &'static str, n: u64) {
    if enabled() {
        LOCAL.with(|l| {
            *l.borrow_mut().counters.entry(name.to_string()).or_default() += n;
        });
    }
}

/// Records a structured event (no-op when collection is disabled).
pub fn event(kind: &str, fields: Vec<(&str, Value)>) {
    if enabled() {
        // Spill before pushing: drain outside the registry borrow so
        // the sink never observes a half-updated registry.
        let spill_batch = LOCAL.with(|l| {
            let mut reg = l.borrow_mut();
            if reg.events.len() >= MAX_EVENTS && SPILL.with(|s| s.borrow().is_some()) {
                let batch: Vec<Event> = reg.events.drain(..MAX_EVENTS / 2).collect();
                reg.spilled_events += batch.len() as u64;
                Some(batch)
            } else {
                None
            }
        });
        if let Some(batch) = spill_batch {
            SPILL.with(|s| {
                if let Some(f) = s.borrow_mut().as_mut() {
                    f(batch);
                }
            });
        }
        LOCAL.with(|l| {
            l.borrow_mut().push_event(Event {
                kind: kind.to_string(),
                fields: fields
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect(),
            });
        });
    }
}

// ---------------------------------------------------------------------
// Process-global counters
// ---------------------------------------------------------------------

static GLOBAL_COUNTERS: std::sync::Mutex<BTreeMap<String, u64>> =
    std::sync::Mutex::new(BTreeMap::new());

/// The global-counter map, recovering from poison: a panic elsewhere
/// (e.g. a worker thread dying mid-count) must not turn every later
/// tally into an abort. The map is only ever mutated by whole-entry
/// additions, so a poisoned guard still holds consistent data.
fn global_counters() -> std::sync::MutexGuard<'static, BTreeMap<String, u64>> {
    GLOBAL_COUNTERS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Adds `n` to a *process-global* counter. Unlike [`count`], these are
/// shared across threads and independent of the [`set_enabled`] gate —
/// they serve long-lived services (the grid cell cache, the `gridd`
/// daemon) whose hit/miss and request tallies are part of observable
/// behaviour, not optional tracing.
pub fn gcount(name: &str, n: u64) {
    *global_counters().entry(name.to_string()).or_default() += n;
}

/// The current value of a process-global counter (0 when never
/// counted).
pub fn gcounter(name: &str) -> u64 {
    global_counters().get(name).copied().unwrap_or(0)
}

/// A snapshot of every process-global counter.
pub fn gcounters() -> BTreeMap<String, u64> {
    global_counters().clone()
}

/// Takes the calling thread's registry, leaving an empty one behind.
pub fn take_local() -> Registry {
    LOCAL.with(|l| std::mem::take(&mut *l.borrow_mut()))
}

/// Runs `f` with a fresh thread-local registry and returns whatever it
/// recorded alongside its result. Anything the thread had collected
/// before the call is restored afterwards, so captures nest safely.
pub fn capture<R>(f: impl FnOnce() -> R) -> (R, Registry) {
    let saved = take_local();
    let result = f();
    let captured = take_local();
    LOCAL.with(|l| *l.borrow_mut() = saved);
    (result, captured)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that flip the process-global enabled flag.
    static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn disabled_records_nothing() {
        let _g = GATE.lock().unwrap();
        set_enabled(false);
        let (_, reg) = capture(|| {
            let _s = span("phase");
            count("hits", 3);
            event("kind", vec![("k", Value::U64(1))]);
        });
        assert!(reg.is_empty());
    }

    #[test]
    fn capture_scopes_are_isolated_and_restore() {
        let _g = GATE.lock().unwrap();
        set_enabled(true);
        let prior = take_local();
        count("outer", 1);
        let (_, inner) = capture(|| {
            count("inner", 5);
            event("e", vec![("n", Value::U64(9))]);
        });
        assert_eq!(inner.counters.get("inner"), Some(&5));
        assert_eq!(inner.counters.get("outer"), None);
        assert_eq!(inner.events.len(), 1);
        // The outer context survived the capture.
        let outer = take_local();
        assert_eq!(outer.counters.get("outer"), Some(&1));
        assert_eq!(outer.counters.get("inner"), None);
        set_enabled(false);
        LOCAL.with(|l| *l.borrow_mut() = prior);
    }

    #[test]
    fn spans_aggregate_by_name() {
        let _g = GATE.lock().unwrap();
        set_enabled(true);
        let (_, reg) = capture(|| {
            for _ in 0..4 {
                let _s = span("work");
            }
        });
        set_enabled(false);
        let stats = reg.spans.get("work").expect("span recorded");
        assert_eq!(stats.calls, 4);
        assert_eq!(stats.hist.count(), 4);
        assert!(stats.total_nanos >= stats.hist.min());
    }

    #[test]
    fn merge_is_order_independent() {
        let mut a = Registry::default();
        a.counters.insert("x".into(), 2);
        a.spans.entry("s".into()).or_default().record(100);
        a.push_event(Event {
            kind: "e1".into(),
            fields: vec![("v".into(), Value::U64(1))],
        });
        let mut b = Registry::default();
        b.counters.insert("x".into(), 3);
        b.counters.insert("y".into(), 1);
        b.spans.entry("s".into()).or_default().record(300);

        let mut ab = Registry::default();
        ab.merge_from(a.clone());
        ab.merge_from(b.clone());
        let mut ba = Registry::default();
        ba.merge_from(b);
        ba.merge_from(a);

        assert_eq!(ab.counters, ba.counters);
        assert_eq!(ab.spans, ba.spans);
        assert_eq!(ab.counters.get("x"), Some(&5));
        let s = &ab.spans["s"];
        assert_eq!(s.calls, 2);
        assert_eq!(s.total_nanos, 400);
        assert_eq!(s.hist.max(), 300);
    }

    #[test]
    fn event_cap_counts_drops() {
        let mut r = Registry::default();
        for i in 0..(MAX_EVENTS + 10) {
            r.push_event(Event {
                kind: format!("e{i}"),
                fields: Vec::new(),
            });
        }
        assert_eq!(r.events.len(), MAX_EVENTS);
        assert_eq!(r.dropped_events, 10);
        // Ring semantics: the oldest events were dropped, the newest kept.
        assert_eq!(r.events.front().unwrap().kind, "e10");
        assert_eq!(
            r.events.back().unwrap().kind,
            format!("e{}", MAX_EVENTS + 9)
        );
    }

    #[test]
    fn spill_streams_oldest_events_instead_of_dropping() {
        let _g = GATE.lock().unwrap();
        set_enabled(true);
        let spilled = std::rc::Rc::new(RefCell::new(Vec::new()));
        let sink = spilled.clone();
        let prev = set_spill(Some(Box::new(move |batch: Vec<Event>| {
            sink.borrow_mut().extend(batch);
        })));
        let (_, reg) = capture(|| {
            for i in 0..(MAX_EVENTS + 10) {
                event(&format!("e{i}"), vec![]);
            }
        });
        set_spill(prev);
        set_enabled(false);
        // Nothing dropped: the overflow went to the sink, oldest first.
        assert_eq!(reg.dropped_events, 0);
        assert_eq!(reg.spilled_events, (MAX_EVENTS / 2) as u64);
        let spilled = spilled.borrow();
        assert_eq!(spilled.len(), MAX_EVENTS / 2);
        assert_eq!(spilled[0].kind, "e0");
        assert_eq!(
            spilled[MAX_EVENTS / 2 - 1].kind,
            format!("e{}", MAX_EVENTS / 2 - 1)
        );
        // The resident buffer continues exactly where the spill ended.
        assert_eq!(
            reg.events.front().unwrap().kind,
            format!("e{}", MAX_EVENTS / 2)
        );
        assert_eq!(
            reg.events.back().unwrap().kind,
            format!("e{}", MAX_EVENTS + 9)
        );
        assert_eq!(reg.events.len() + spilled.len(), MAX_EVENTS + 10);
    }

    #[test]
    fn without_spill_sink_ring_semantics_hold() {
        let _g = GATE.lock().unwrap();
        set_enabled(true);
        let (_, reg) = capture(|| {
            for i in 0..(MAX_EVENTS + 3) {
                event(&format!("e{i}"), vec![]);
            }
        });
        set_enabled(false);
        assert_eq!(reg.dropped_events, 3);
        assert_eq!(reg.spilled_events, 0);
        assert_eq!(reg.events.front().unwrap().kind, "e3");
    }

    #[test]
    fn global_counters_accumulate_across_threads() {
        gcount("test/g", 2);
        std::thread::scope(|s| {
            s.spawn(|| gcount("test/g", 3));
        });
        assert_eq!(gcounter("test/g"), 5);
        assert_eq!(gcounters().get("test/g"), Some(&5));
        assert_eq!(gcounter("test/never"), 0);
    }

    #[test]
    fn global_counters_survive_a_poisoned_lock() {
        // A thread that panics while holding the lock poisons it; every
        // later tally must recover instead of aborting.
        let _ = std::thread::spawn(|| {
            let _guard = GLOBAL_COUNTERS.lock().unwrap();
            panic!("poison the global counter lock");
        })
        .join();
        gcount("test/poison", 1);
        gcount("test/poison", 2);
        assert_eq!(gcounter("test/poison"), 3);
        assert_eq!(gcounters().get("test/poison"), Some(&3));
    }

    #[test]
    fn record_span_matches_guard_aggregation() {
        let mut reg = Registry::default();
        reg.record_span("job/run/Schematic/crc/10000", 100);
        reg.record_span("job/run/Schematic/crc/10000", 300);
        let stats = &reg.spans["job/run/Schematic/crc/10000"];
        assert_eq!(stats.calls, 2);
        assert_eq!(stats.total_nanos, 400);
        assert_eq!(stats.hist.count(), 2);
        assert_eq!(stats.hist.max(), 300);
    }

    #[test]
    fn event_field_lookup() {
        let ev = Event {
            kind: "k".into(),
            fields: vec![
                ("a".into(), Value::U64(7)),
                ("b".into(), Value::Str("x".into())),
            ],
        };
        assert_eq!(ev.u64_field("a"), Some(7));
        assert_eq!(ev.u64_field("b"), None);
        assert_eq!(ev.field("b"), Some(&Value::Str("x".into())));
        assert_eq!(ev.field("c"), None);
    }
}
