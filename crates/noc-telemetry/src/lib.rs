//! Zero-dependency observability: structured spans, typed counters, and
//! log₂ histograms behind a process-global collector seam.
//!
//! The seam defaults to a no-op: every instrumentation call first loads one
//! relaxed [`AtomicBool`], so an uninstrumented run pays a handful of
//! nanoseconds per site and allocates nothing.  Installing the
//! [`Recorder`] (see [`install_recorder`]) flips the flag and routes spans
//! into a bounded ring buffer and counters/histograms into aggregated
//! maps, all snapshotable at any time via [`Recorder::snapshot`].
//!
//! Spans are RAII guards ([`span`] returns a [`SpanGuard`] that records on
//! drop), nest naturally through a thread-local parent stack, and carry
//! the recording thread's id plus an optional human label (the executor
//! labels its workers `worker-0`, `worker-1`, … via [`set_thread_label`]).
//! Sequence numbers from one global counter give every span an exact
//! enter/exit order, which the balance and nesting property tests — and
//! the Chrome-trace exporter — rely on.
//!
//! This crate is a leaf: it serializes nothing.  The trace exporter and
//! reader live in `noc_flow::trace`, next to the artifact machinery they
//! reuse.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::Instant;

/// Spans kept in the recording ring buffer; the oldest are dropped (and
/// counted) beyond this, so a runaway loop cannot exhaust memory.
pub const RING_CAPACITY: usize = 65_536;

static ENABLED: AtomicBool = AtomicBool::new(false);
static RECORDER: RwLock<Option<Arc<Recorder>>> = RwLock::new(None);
static SEQ: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU32 = AtomicU32::new(1);
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static TID: u32 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    static PARENTS: std::cell::RefCell<Vec<u64>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Microseconds since the process-local trace epoch (pinned at first use).
pub fn now_us() -> u64 {
    let epoch = *EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Whether a recorder is installed.  The fast path of every
/// instrumentation site; a single relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Installs the recording collector (idempotent: a second call returns the
/// recorder already installed).  Pins the trace epoch so timestamps start
/// near zero.
pub fn install_recorder() -> Arc<Recorder> {
    let _ = EPOCH.get_or_init(Instant::now);
    let mut slot = RECORDER.write().expect("telemetry seam poisoned");
    let recorder = slot
        .get_or_insert_with(|| Arc::new(Recorder::new()))
        .clone();
    ENABLED.store(true, Ordering::Relaxed);
    recorder
}

/// Uninstalls the collector, returning it (with everything it recorded)
/// if one was installed.  Live [`SpanGuard`]s keep their handle and still
/// record into it on drop, so balance holds across an uninstall.
pub fn uninstall_recorder() -> Option<Arc<Recorder>> {
    let mut slot = RECORDER.write().expect("telemetry seam poisoned");
    ENABLED.store(false, Ordering::Relaxed);
    slot.take()
}

fn current_recorder() -> Option<Arc<Recorder>> {
    if !enabled() {
        return None;
    }
    RECORDER.read().expect("telemetry seam poisoned").clone()
}

/// The integer id of the calling thread (stable for the thread's life,
/// assigned on first use).
fn thread_id() -> u32 {
    TID.with(|t| *t)
}

/// Attaches a human-readable label to the calling thread; shown as the
/// thread name in trace exports.  No-op when disabled.
pub fn set_thread_label(label: impl Into<String>) {
    if let Some(recorder) = current_recorder() {
        recorder.label_thread(thread_id(), label.into());
    }
}

/// Adds `delta` to the named monotonic counter.  No-op when disabled.
#[inline]
pub fn counter(name: &str, delta: u64) {
    if enabled() {
        if let Some(recorder) = current_recorder() {
            recorder.add_counter(name, delta);
        }
    }
}

/// Records one sample into the named log₂ histogram.  No-op when disabled.
#[inline]
pub fn histogram(name: &str, value: u64) {
    if enabled() {
        if let Some(recorder) = current_recorder() {
            recorder.record_histogram(name, value);
        }
    }
}

/// Opens a span: an interval that closes (and is recorded) when the
/// returned guard drops.  When no recorder is installed this allocates
/// nothing and the guard's drop is a no-op.
#[inline]
pub fn span(cat: &'static str, name: impl Into<String>) -> SpanGuard {
    match current_recorder() {
        None => SpanGuard { open: None },
        Some(recorder) => SpanGuard::open(recorder, cat, name.into()),
    }
}

/// A typed span argument; rendered into the trace event's `args` object.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// Unsigned integer argument.
    U64(u64),
    /// Floating-point argument.
    F64(f64),
    /// String argument.
    Str(String),
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::U64(v)
    }
}

impl From<usize> for ArgValue {
    fn from(v: usize) -> Self {
        ArgValue::U64(v as u64)
    }
}

impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::F64(v)
    }
}

impl From<&str> for ArgValue {
    fn from(v: &str) -> Self {
        ArgValue::Str(v.to_string())
    }
}

impl From<String> for ArgValue {
    fn from(v: String) -> Self {
        ArgValue::Str(v)
    }
}

/// One closed span as stored in the ring buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanEvent {
    /// Span name (the specific operation).
    pub name: String,
    /// Category (the phase family; trace viewers group and color by it).
    pub cat: &'static str,
    /// Start, microseconds since the trace epoch.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Recording thread: a small integer id the recorder assigns each
    /// thread on its first use.
    pub tid: u32,
    /// Global sequence number taken when the span opened.
    pub enter_seq: u64,
    /// Global sequence number taken when the span closed.
    pub exit_seq: u64,
    /// `enter_seq` of the innermost span open on the same thread when this
    /// one opened; 0 at top level.
    pub parent_seq: u64,
    /// Typed key/value arguments attached via [`SpanGuard::arg`].
    pub args: Vec<(String, ArgValue)>,
}

struct OpenSpan {
    recorder: Arc<Recorder>,
    name: String,
    cat: &'static str,
    start_us: u64,
    enter_seq: u64,
    parent_seq: u64,
    args: Vec<(String, ArgValue)>,
}

/// RAII guard for an open span; records the closed [`SpanEvent`] on drop.
pub struct SpanGuard {
    open: Option<OpenSpan>,
}

impl SpanGuard {
    fn open(recorder: Arc<Recorder>, cat: &'static str, name: String) -> Self {
        let enter_seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let parent_seq = PARENTS.with(|stack| {
            let mut stack = stack.borrow_mut();
            let parent = stack.last().copied().unwrap_or(0);
            stack.push(enter_seq);
            parent
        });
        recorder.opened.fetch_add(1, Ordering::Relaxed);
        SpanGuard {
            open: Some(OpenSpan {
                recorder,
                name,
                cat,
                start_us: now_us(),
                enter_seq,
                parent_seq,
                args: Vec::new(),
            }),
        }
    }

    /// Attaches a typed argument to the span (kept in attach order).
    pub fn arg(&mut self, key: &str, value: impl Into<ArgValue>) -> &mut Self {
        if let Some(open) = &mut self.open {
            open.args.push((key.to_string(), value.into()));
        }
        self
    }

    /// The span's global enter sequence number, `None` when not recording.
    /// Lets callers find this span (and everything sequenced inside it) in
    /// a later [`Recorder::snapshot`], e.g. to attribute one timed run's
    /// wall time to phases.
    pub fn enter_seq(&self) -> Option<u64> {
        self.open.as_ref().map(|open| open.enter_seq)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(open) = self.open.take() else {
            return;
        };
        PARENTS.with(|stack| {
            let mut stack = stack.borrow_mut();
            // Guards are dropped in reverse open order on a thread; pop to
            // (and including) our own entry to stay balanced even if an
            // inner guard leaked past us via mem::forget.
            if let Some(pos) = stack.iter().rposition(|&s| s == open.enter_seq) {
                stack.truncate(pos);
            }
        });
        let exit_seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let end_us = now_us();
        open.recorder.closed.fetch_add(1, Ordering::Relaxed);
        open.recorder.push_span(SpanEvent {
            name: open.name,
            cat: open.cat,
            start_us: open.start_us,
            dur_us: end_us.saturating_sub(open.start_us),
            tid: thread_id(),
            enter_seq: open.enter_seq,
            exit_seq,
            parent_seq: open.parent_seq,
            args: open.args,
        });
    }
}

/// One bucket of a log₂ histogram: bucket 0 covers exactly 0, bucket
/// k ≥ 1 covers `[2^(k-1), 2^k - 1]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistBucket {
    /// Inclusive lower bound of the bucket.
    pub lower: u64,
    /// Inclusive upper bound of the bucket.
    pub upper: u64,
    /// Samples that fell into the bucket.
    pub count: u64,
}

#[derive(Default)]
struct Aggregates {
    counters: BTreeMap<String, u64>,
    // Histogram = per-bucket counts indexed by log₂ bucket number.
    histograms: BTreeMap<String, Vec<u64>>,
    threads: BTreeMap<u32, String>,
}

/// The recording collector: a bounded span ring buffer plus aggregated
/// counters, histograms, and thread labels.
pub struct Recorder {
    spans: Mutex<VecDeque<SpanEvent>>,
    aggregates: Mutex<Aggregates>,
    dropped: AtomicU64,
    opened: AtomicU64,
    closed: AtomicU64,
    capacity: usize,
}

impl Recorder {
    fn new() -> Self {
        Recorder {
            spans: Mutex::new(VecDeque::new()),
            aggregates: Mutex::new(Aggregates::default()),
            dropped: AtomicU64::new(0),
            opened: AtomicU64::new(0),
            closed: AtomicU64::new(0),
            capacity: RING_CAPACITY,
        }
    }

    fn push_span(&self, event: SpanEvent) {
        let mut spans = self.spans.lock().expect("span ring poisoned");
        if spans.len() == self.capacity {
            spans.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        spans.push_back(event);
    }

    fn add_counter(&self, name: &str, delta: u64) {
        let mut agg = self.aggregates.lock().expect("aggregates poisoned");
        match agg.counters.get_mut(name) {
            Some(total) => *total = total.saturating_add(delta),
            None => {
                agg.counters.insert(name.to_string(), delta);
            }
        }
    }

    fn record_histogram(&self, name: &str, value: u64) {
        let bucket = (u64::BITS - value.leading_zeros()) as usize;
        let mut agg = self.aggregates.lock().expect("aggregates poisoned");
        let counts = agg.histograms.entry(name.to_string()).or_default();
        if counts.len() <= bucket {
            counts.resize(bucket + 1, 0);
        }
        counts[bucket] += 1;
    }

    fn label_thread(&self, tid: u32, label: String) {
        let mut agg = self.aggregates.lock().expect("aggregates poisoned");
        agg.threads.insert(tid, label);
    }

    /// Spans opened so far (including still-open ones).
    pub fn spans_opened(&self) -> u64 {
        self.opened.load(Ordering::Relaxed)
    }

    /// Spans closed (recorded) so far.
    pub fn spans_closed(&self) -> u64 {
        self.closed.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of everything recorded.
    pub fn snapshot(&self) -> Snapshot {
        let spans: Vec<SpanEvent> = {
            let ring = self.spans.lock().expect("span ring poisoned");
            ring.iter().cloned().collect()
        };
        let agg = self.aggregates.lock().expect("aggregates poisoned");
        let histograms = agg
            .histograms
            .iter()
            .map(|(name, counts)| {
                let buckets = counts
                    .iter()
                    .enumerate()
                    .map(|(k, &count)| HistBucket {
                        lower: if k == 0 { 0 } else { 1u64 << (k - 1) },
                        upper: if k == 0 { 0 } else { (1u64 << k) - 1 },
                        count,
                    })
                    .collect();
                (name.clone(), buckets)
            })
            .collect();
        Snapshot {
            spans,
            counters: agg.counters.clone(),
            histograms,
            threads: agg.threads.clone(),
            dropped_spans: self.dropped.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`Recorder`]'s contents; what the exporters
/// serialize.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Closed spans, oldest first (ring order).
    pub spans: Vec<SpanEvent>,
    /// Monotonic counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Log₂ histograms by name.
    pub histograms: BTreeMap<String, Vec<HistBucket>>,
    /// Thread labels by thread id.
    pub threads: BTreeMap<u32, String>,
    /// Spans evicted from the ring buffer because it was full.
    pub dropped_spans: u64,
}

/// Guard that installs the recorder for a scope and uninstalls on drop.
/// Test-oriented: keeps collector state from leaking between `#[test]`s
/// that share a process.
pub struct RecorderScope {
    recorder: Arc<Recorder>,
}

impl RecorderScope {
    /// Installs the global recorder (or adopts the one already installed).
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        RecorderScope {
            recorder: install_recorder(),
        }
    }

    /// The recorder this scope installed.
    pub fn recorder(&self) -> &Arc<Recorder> {
        &self.recorder
    }
}

impl Drop for RecorderScope {
    fn drop(&mut self) {
        let _ = uninstall_recorder();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests in this file share the process-global seam; serialize them.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn lock() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_collector_records_nothing() {
        let _guard = lock();
        assert!(!enabled());
        {
            let mut span = span("test", "noop");
            span.arg("k", 1u64);
            assert_eq!(span.enter_seq(), None);
        }
        counter("test.count", 3);
        histogram("test.hist", 9);
        let scope = RecorderScope::new();
        let snapshot = scope.recorder().snapshot();
        assert!(snapshot.spans.is_empty());
        assert!(snapshot.counters.is_empty());
        assert!(snapshot.histograms.is_empty());
    }

    #[test]
    fn spans_nest_and_carry_args() {
        let _guard = lock();
        let scope = RecorderScope::new();
        {
            let mut outer = span("phase", "outer");
            outer.arg("n", 7u64).arg("label", "abc");
            {
                let _inner = span("phase", "inner");
            }
        }
        let snapshot = scope.recorder().snapshot();
        assert_eq!(snapshot.spans.len(), 2);
        // Ring order is close order: inner first.
        let inner = &snapshot.spans[0];
        let outer = &snapshot.spans[1];
        assert_eq!(inner.name, "inner");
        assert_eq!(inner.parent_seq, outer.enter_seq);
        assert_eq!(outer.parent_seq, 0);
        assert!(outer.enter_seq < inner.enter_seq);
        assert!(inner.exit_seq < outer.exit_seq);
        assert_eq!(outer.args.len(), 2);
        assert_eq!(outer.args[0], ("n".to_string(), ArgValue::U64(7)));
        assert_eq!(
            outer.args[1],
            ("label".to_string(), ArgValue::Str("abc".to_string()))
        );
    }

    #[test]
    fn counters_aggregate_and_histograms_bucket_by_log2() {
        let _guard = lock();
        let scope = RecorderScope::new();
        counter("c", 2);
        counter("c", 3);
        for v in [0u64, 1, 2, 3, 4, 9, 9] {
            histogram("h", v);
        }
        let snapshot = scope.recorder().snapshot();
        assert_eq!(snapshot.counters.get("c"), Some(&5));
        let buckets = &snapshot.histograms["h"];
        // Buckets: [0,0], [1,1], [2,3], [4,7], [8,15] — mirrors SimStats.
        assert_eq!(buckets.len(), 5);
        assert_eq!((buckets[0].lower, buckets[0].upper), (0, 0));
        assert_eq!((buckets[2].lower, buckets[2].upper), (2, 3));
        assert_eq!((buckets[4].lower, buckets[4].upper), (8, 15));
        let counts: Vec<u64> = buckets.iter().map(|b| b.count).collect();
        assert_eq!(counts, vec![1, 1, 2, 1, 2]);
    }

    #[test]
    fn ring_buffer_drops_oldest_and_counts() {
        let _guard = lock();
        let scope = RecorderScope::new();
        let recorder = scope.recorder().clone();
        // Fill past capacity through the private path to keep the test fast.
        for i in 0..(8 + 3) {
            recorder.push_span(SpanEvent {
                name: format!("s{i}"),
                cat: "t",
                start_us: i,
                dur_us: 0,
                tid: 0,
                enter_seq: i + 1,
                exit_seq: i + 2,
                parent_seq: 0,
                args: Vec::new(),
            });
        }
        // The real capacity is large; emulate the drop path by checking the
        // accounting fields directly on a synthetic small ring.
        let small = Recorder {
            spans: Mutex::new(VecDeque::new()),
            aggregates: Mutex::new(Aggregates::default()),
            dropped: AtomicU64::new(0),
            opened: AtomicU64::new(0),
            closed: AtomicU64::new(0),
            capacity: 4,
        };
        for i in 0..10u64 {
            small.push_span(SpanEvent {
                name: format!("s{i}"),
                cat: "t",
                start_us: i,
                dur_us: 0,
                tid: 0,
                enter_seq: i + 1,
                exit_seq: i + 2,
                parent_seq: 0,
                args: Vec::new(),
            });
        }
        let snapshot = small.snapshot();
        assert_eq!(snapshot.spans.len(), 4);
        assert_eq!(snapshot.dropped_spans, 6);
        assert_eq!(snapshot.spans[0].name, "s6");
    }

    #[test]
    fn thread_labels_and_ids_are_per_thread() {
        let _guard = lock();
        let scope = RecorderScope::new();
        set_thread_label("main-test");
        let main_tid = thread_id();
        let worker_tid = std::thread::scope(|s| {
            s.spawn(|| {
                set_thread_label("worker-test");
                let _span = span("t", "on-worker");
                thread_id()
            })
            .join()
            .expect("worker panicked")
        });
        assert_ne!(main_tid, worker_tid);
        let snapshot = scope.recorder().snapshot();
        assert_eq!(
            snapshot.threads.get(&main_tid).map(String::as_str),
            Some("main-test")
        );
        assert_eq!(
            snapshot.threads.get(&worker_tid).map(String::as_str),
            Some("worker-test")
        );
        let on_worker = snapshot
            .spans
            .iter()
            .find(|s| s.name == "on-worker")
            .expect("worker span recorded");
        assert_eq!(on_worker.tid, worker_tid);
    }

    #[test]
    fn balance_holds_across_threads() {
        let _guard = lock();
        let scope = RecorderScope::new();
        let recorder = scope.recorder().clone();
        std::thread::scope(|s| {
            for t in 0..4 {
                s.spawn(move || {
                    for i in 0..50 {
                        let mut outer = span("load", format!("outer-{t}-{i}"));
                        outer.arg("i", i as u64);
                        let _inner = span("load", "inner");
                    }
                });
            }
        });
        assert_eq!(recorder.spans_opened(), recorder.spans_closed());
        assert_eq!(recorder.spans_opened(), 400);
        let snapshot = recorder.snapshot();
        // Every span balanced: enter < exit, and parents outlive children.
        let by_enter: BTreeMap<u64, &SpanEvent> =
            snapshot.spans.iter().map(|s| (s.enter_seq, s)).collect();
        for span in &snapshot.spans {
            assert!(span.enter_seq < span.exit_seq);
            if span.parent_seq != 0 {
                let parent = by_enter[&span.parent_seq];
                assert!(parent.enter_seq < span.enter_seq);
                assert!(span.exit_seq < parent.exit_seq);
                assert_eq!(parent.tid, span.tid);
            }
        }
    }
}
