//! Telemetry exporters and the trace reader behind `noc_profile`.
//!
//! The write side turns a [`noc_telemetry::Snapshot`] into one file that is
//! simultaneously two things:
//!
//! * a schema-v[`SCHEMA_VERSION`] artifact — the usual `{"figure":
//!   "noc_trace", "schema", "data"}` envelope, where `data` carries the
//!   metrics summary (per-category phase totals, counters, log₂
//!   histograms, thread labels);
//! * a Chrome trace: a top-level `traceEvents` array of complete (`"ph":
//!   "X"`) events plus `thread_name` metadata, which Perfetto and
//!   `about://tracing` load directly.  [`ParsedArtifact`] ignores unknown
//!   envelope keys, so the extra array costs nothing on the artifact side.
//!
//! Every complete event also carries `seq`/`parent` (global enter-sequence
//! numbers from the recorder); trace viewers ignore them, while the read
//! side uses them to reconstruct exact nesting without trusting µs
//! timestamps to break ties.
//!
//! The read side ([`TraceSummary`]) parses a trace file back and answers
//! the profiling question directly: per-phase self time and the share of
//! wall time attributed to named phases, where wall time is the extent of
//! the root spans — the header of [`TraceSummary::render_table`].  Both
//! sides compute the phase rows with one rule: a span's self time is its
//! duration minus its direct children's durations, so no µs is counted
//! twice.

use crate::json::{
    write_atomic, ArtifactError, JsonValue, ObjectWriter, ParsedArtifact, ToJson, SCHEMA_VERSION,
};
use noc_telemetry::{ArgValue, HistBucket, Snapshot, SpanEvent};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// Figure name carried in a trace file's artifact envelope.
pub const TRACE_FIGURE: &str = "noc_trace";

impl ToJson for ArgValue {
    fn write_json(&self, out: &mut String) {
        match self {
            ArgValue::U64(v) => v.write_json(out),
            ArgValue::F64(v) => v.write_json(out),
            ArgValue::Str(v) => v.write_json(out),
        }
    }
}

impl ToJson for HistBucket {
    fn write_json(&self, out: &mut String) {
        ObjectWriter::new(out)
            .field("lower", &self.lower)
            .field("upper", &self.upper)
            .field("count", &self.count)
            .finish();
    }
}

/// One span rendered as a Chrome complete event.
struct CompleteEvent<'a>(&'a SpanEvent);

impl ToJson for CompleteEvent<'_> {
    fn write_json(&self, out: &mut String) {
        let span = self.0;
        let mut args = String::new();
        {
            let mut object = ObjectWriter::new(&mut args);
            for (key, value) in &span.args {
                object = object.field(key, value);
            }
            object.finish();
        }
        ObjectWriter::new(out)
            .field("name", &span.name)
            .field("cat", &span.cat)
            .field("ph", &"X")
            .field("ts", &span.start_us)
            .field("dur", &span.dur_us)
            .field("pid", &1usize)
            .field("tid", &u64::from(span.tid))
            .field("seq", &span.enter_seq)
            .field("parent", &span.parent_seq)
            .field("args", &crate::json::RawJson(&args))
            .finish();
    }
}

/// The metrics summary serialized under the envelope's `data` key.
struct MetricsData<'a> {
    source: &'a str,
    snapshot: &'a Snapshot,
}

impl ToJson for MetricsData<'_> {
    fn write_json(&self, out: &mut String) {
        let spans = self.snapshot.spans.iter();
        let phases = phase_rows(spans.map(|s| (s.enter_seq, s.parent_seq, s.cat, s.dur_us)));
        let mut phase_json = String::new();
        {
            let mut sep = false;
            phase_json.push('[');
            for row in &phases {
                if sep {
                    phase_json.push(',');
                }
                sep = true;
                ObjectWriter::new(&mut phase_json)
                    .field("cat", &row.cat)
                    .field("total_us", &row.total_us)
                    .finish();
            }
            phase_json.push(']');
        }
        let mut counter_json = String::new();
        {
            let mut sep = false;
            counter_json.push('[');
            for (name, value) in &self.snapshot.counters {
                if sep {
                    counter_json.push(',');
                }
                sep = true;
                ObjectWriter::new(&mut counter_json)
                    .field("name", name)
                    .field("value", value)
                    .finish();
            }
            counter_json.push(']');
        }
        let mut hist_json = String::new();
        {
            let mut sep = false;
            hist_json.push('[');
            for (name, buckets) in &self.snapshot.histograms {
                if sep {
                    hist_json.push(',');
                }
                sep = true;
                ObjectWriter::new(&mut hist_json)
                    .field("name", name)
                    .field("buckets", buckets)
                    .finish();
            }
            hist_json.push(']');
        }
        let mut thread_json = String::new();
        {
            let mut sep = false;
            thread_json.push('[');
            for (tid, label) in &self.snapshot.threads {
                if sep {
                    thread_json.push(',');
                }
                sep = true;
                ObjectWriter::new(&mut thread_json)
                    .field("tid", &u64::from(*tid))
                    .field("label", label)
                    .finish();
            }
            thread_json.push(']');
        }
        ObjectWriter::new(out)
            .field("source", &self.source)
            .field("span_count", &self.snapshot.spans.len())
            .field("dropped_spans", &self.snapshot.dropped_spans)
            .field("phases", &crate::json::RawJson(&phase_json))
            .field("counters", &crate::json::RawJson(&counter_json))
            .field("histograms", &crate::json::RawJson(&hist_json))
            .field("threads", &crate::json::RawJson(&thread_json))
            .finish();
    }
}

/// One row per span category, largest self time first (ties by name),
/// from `(seq, parent seq, category, duration µs)` per span.  A span's self
/// time is its duration minus its direct children's (saturating, since µs
/// rounding can let children outlast their parent), so the rows of one
/// thread add up to its top-level spans' time.  A span whose parent is not
/// among `spans` counts in full.  O(n log n) in the spans.
fn phase_rows<'a>(spans: impl Iterator<Item = (u64, u64, &'a str, u64)>) -> Vec<PhaseRow> {
    let spans: Vec<_> = spans.collect();
    let position: BTreeMap<u64, usize> = spans
        .iter()
        .enumerate()
        .map(|(i, &(seq, ..))| (seq, i))
        .collect();
    let mut children_us = vec![0u64; spans.len()];
    for &(_, parent, _, dur) in &spans {
        if let Some(&i) = position.get(&parent) {
            children_us[i] = children_us[i].saturating_add(dur);
        }
    }
    let mut totals: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for (&(_, _, cat, dur), children) in spans.iter().zip(children_us) {
        let row = totals.entry(cat).or_insert((0, 0));
        row.0 += 1;
        row.1 = row.1.saturating_add(dur.saturating_sub(children));
    }
    let mut rows: Vec<PhaseRow> = totals
        .into_iter()
        .map(|(cat, (spans, total_us))| PhaseRow {
            cat: cat.to_string(),
            spans,
            total_us,
        })
        .collect();
    rows.sort_by(|a, b| b.total_us.cmp(&a.total_us).then_with(|| a.cat.cmp(&b.cat)));
    rows
}

/// A snapshot ready to serialize as one dual-format trace file.
pub struct TraceArtifact<'a> {
    /// The figure (or job) the trace was recorded from.
    pub source: &'a str,
    /// The recorder contents to export.
    pub snapshot: &'a Snapshot,
}

impl<'a> TraceArtifact<'a> {
    /// Pairs a source name with a snapshot.
    pub fn new(source: &'a str, snapshot: &'a Snapshot) -> Self {
        TraceArtifact { source, snapshot }
    }

    /// The full document: artifact envelope fields plus `traceEvents`,
    /// newline-terminated.  Complete events are sorted by start time (ties
    /// by enter sequence) so per-thread timestamps are monotone, with
    /// `thread_name` metadata events first.
    fn render(&self) -> String {
        let mut events: Vec<&SpanEvent> = self.snapshot.spans.iter().collect();
        events.sort_by_key(|s| (s.start_us, s.enter_seq));
        let mut event_json = String::new();
        event_json.push('[');
        let mut sep = false;
        for (tid, label) in &self.snapshot.threads {
            if sep {
                event_json.push(',');
            }
            sep = true;
            let mut args = String::new();
            ObjectWriter::new(&mut args).field("name", label).finish();
            ObjectWriter::new(&mut event_json)
                .field("name", &"thread_name")
                .field("ph", &"M")
                .field("pid", &1usize)
                .field("tid", &u64::from(*tid))
                .field("args", &crate::json::RawJson(&args))
                .finish();
        }
        for event in events {
            if sep {
                event_json.push(',');
            }
            sep = true;
            CompleteEvent(event).write_json(&mut event_json);
        }
        event_json.push(']');
        let data = MetricsData {
            source: self.source,
            snapshot: self.snapshot,
        };
        let mut out = String::new();
        ObjectWriter::new(&mut out)
            .field("figure", &TRACE_FIGURE)
            .field("schema", &SCHEMA_VERSION)
            .field("data", &data)
            .field("traceEvents", &crate::json::RawJson(&event_json))
            .finish();
        out.push('\n');
        out
    }

    /// Renders, self-validates (envelope parse), and writes atomically.
    pub fn write(&self, path: &Path) -> Result<(), ArtifactError> {
        let out = self.render();
        ParsedArtifact::parse(&out)?;
        write_atomic(path, out.as_bytes()).map_err(|source| ArtifactError::Io {
            path: path.to_path_buf(),
            source,
        })
    }
}

// ---------------------------------------------------------------------------
// Read side
// ---------------------------------------------------------------------------

/// One complete event read back from a trace file.
#[derive(Debug, Clone, PartialEq)]
struct ReadEvent {
    name: String,
    cat: String,
    ts: u64,
    dur: u64,
    tid: u64,
    seq: u64,
    parent: u64,
}

/// One row of the per-phase breakdown table.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseRow {
    /// Span category the row aggregates.
    pub cat: String,
    /// Spans counted into the row.
    pub spans: u64,
    /// Self time in microseconds: the spans' durations minus their direct
    /// children's.
    pub total_us: u64,
}

/// One thread's row of the utilisation table.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadRow {
    /// The thread id the trace records.
    pub tid: u64,
    /// The thread's `thread_name` label, or `tid <n>` when it has none.
    pub label: String,
    /// µs of the roots' window during which at least one of the thread's
    /// non-root spans was active (merged intervals), minus the time the
    /// thread spent blocked in `executor/wait` spans.
    pub busy_us: u64,
}

/// A trace file reduced to the numbers `noc_profile` prints.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSummary {
    /// The figure the trace was recorded from (`data.source`).
    pub source: String,
    /// Wall time in µs: the extent of the root spans (the parentless spans
    /// of the thread that opened the first parentless span), from the
    /// first root's start to the last one's end, or the overall event
    /// extent if no span is parentless.
    pub wall_us: u64,
    /// µs of the roots' window during which at least one named phase
    /// span was active on any thread (merged intervals, so overlapping
    /// workers are not double-counted).
    pub attributed_us: u64,
    /// Per-category self time, largest first.
    pub phases: Vec<PhaseRow>,
    /// Busy time per thread, by ascending thread id.
    pub threads: Vec<ThreadRow>,
    /// Counters from the metrics summary.
    pub counters: Vec<(String, u64)>,
}

fn read_u64(value: &JsonValue, key: &str) -> Option<u64> {
    let number = value.get(key)?.as_number()?;
    if number.is_finite() && number >= 0.0 {
        Some(number as u64)
    } else {
        None
    }
}

impl TraceSummary {
    /// Parses a trace file (envelope + `traceEvents`) into a summary.
    pub fn parse(text: &str) -> Result<TraceSummary, ArtifactError> {
        let envelope = ParsedArtifact::parse(text)?;
        if envelope.figure != TRACE_FIGURE {
            return Err(ArtifactError::Envelope(format!(
                "expected figure {TRACE_FIGURE:?}, found {:?}",
                envelope.figure
            )));
        }
        let source = envelope
            .data
            .get("source")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| ArtifactError::Envelope("missing data field \"source\"".into()))?
            .to_string();
        let counters = envelope
            .data
            .get("counters")
            .and_then(JsonValue::as_array)
            .map(|rows| {
                rows.iter()
                    .filter_map(|row| {
                        let name = row.get("name")?.as_str()?.to_string();
                        Some((name, read_u64(row, "value")?))
                    })
                    .collect()
            })
            .unwrap_or_default();
        // The envelope parse drops unknown keys; re-parse for traceEvents.
        let document = JsonValue::parse(text)?;
        let raw_events = document
            .get("traceEvents")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| ArtifactError::Envelope("missing array \"traceEvents\"".into()))?;
        let mut events: Vec<ReadEvent> = Vec::new();
        let mut labels: BTreeMap<u64, String> = BTreeMap::new();
        for raw in raw_events {
            let ph = raw.get("ph").and_then(JsonValue::as_str);
            if ph == Some("M") && raw.get("name").and_then(JsonValue::as_str) == Some("thread_name")
            {
                let label = raw.get("args").and_then(|args| args.get("name")?.as_str());
                if let (Some(tid), Some(label)) = (read_u64(raw, "tid"), label) {
                    labels.insert(tid, label.to_string());
                }
            }
            if ph != Some("X") {
                continue;
            }
            let event = (|| {
                Some(ReadEvent {
                    name: raw.get("name")?.as_str()?.to_string(),
                    cat: raw.get("cat")?.as_str()?.to_string(),
                    ts: read_u64(raw, "ts")?,
                    dur: read_u64(raw, "dur")?,
                    tid: read_u64(raw, "tid")?,
                    seq: read_u64(raw, "seq")?,
                    parent: read_u64(raw, "parent")?,
                })
            })();
            let event =
                event.ok_or_else(|| ArtifactError::Envelope("malformed complete event".into()))?;
            // Every interval below is [ts, ts + dur]; an end past u64::MAX
            // is no timestamp any recorder writes.
            if event.ts.checked_add(event.dur).is_none() {
                return Err(ArtifactError::Envelope(format!(
                    "complete event {:?} ends past the u64 µs range (ts {} + dur {})",
                    event.name, event.ts, event.dur
                )));
            }
            events.push(event);
        }
        Ok(TraceSummary::from_events(source, counters, labels, &events))
    }

    fn from_events(
        source: String,
        counters: Vec<(String, u64)>,
        mut labels: BTreeMap<u64, String>,
        events: &[ReadEvent],
    ) -> TraceSummary {
        let phases = phase_rows(
            events
                .iter()
                .map(|e| (e.seq, e.parent, e.cat.as_str(), e.dur)),
        );

        // The roots are the parentless spans of the thread that opened the
        // first one: the recording thread, which may run several in turn
        // (a benchmark's op, then its probes).  Parentless spans of other
        // threads (executor workers) are those threads' work, so phases.
        let root_tid = events
            .iter()
            .filter(|e| e.parent == 0)
            .min_by_key(|e| e.seq)
            .map(|e| e.tid);
        let is_root = |e: &ReadEvent| e.parent == 0 && Some(e.tid) == root_tid;
        // The wall is the extent of every root; without one, it is the
        // extent of all events and nothing counts as attributed.
        let bounds = || events.iter().filter(|e| root_tid.is_none() || is_root(e));
        let window = (
            bounds().map(|e| e.ts).min().unwrap_or(0),
            bounds().map(|e| e.ts + e.dur).max().unwrap_or(0),
        );
        let phase_spans = || events.iter().filter(|e| !is_root(e));
        // Across all threads: the share of wall time during which at least
        // one named phase was active somewhere in the process.  Work mostly
        // happens on executor worker threads while the root span sits on
        // main, so a same-thread filter would see nothing.
        let attributed_us = match root_tid {
            Some(_) => covered_us(phase_spans(), window),
            None => 0,
        };
        for event in events {
            labels
                .entry(event.tid)
                .or_insert_with(|| format!("tid {}", event.tid));
        }
        // A blocking receive is a span too, but waiting is not work.  The
        // waits are themselves non-root spans, so their union lies inside
        // the thread's covered time and subtracting it is exact.
        let is_wait = |e: &ReadEvent| e.cat == "executor" && e.name == "wait";
        let threads = labels
            .into_iter()
            .map(|(tid, label)| {
                let spans = || phase_spans().filter(move |e| e.tid == tid);
                let waiting = covered_us(spans().filter(|e| is_wait(e)), window);
                ThreadRow {
                    tid,
                    label,
                    busy_us: covered_us(spans(), window) - waiting,
                }
            })
            .collect();
        TraceSummary {
            source,
            wall_us: window.1 - window.0,
            attributed_us,
            phases,
            threads,
            counters,
        }
    }

    /// Share of the roots' wall time covered by named phases, in percent
    /// (100.0 when the trace has no wall time at all).
    fn attribution_pct(&self) -> f64 {
        if self.wall_us == 0 {
            return 100.0;
        }
        100.0 * self.attributed_us as f64 / self.wall_us as f64
    }

    /// The human-readable breakdown `noc_profile summary` prints.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "trace source: {}", self.source);
        let _ = writeln!(
            out,
            "wall time: {:.3} ms  attributed to named phases: {:.1}%",
            self.wall_us as f64 / 1000.0,
            self.attribution_pct()
        );
        // Phase self times sum over threads, so they are not shares of the
        // wall time; a thread's busy time is.
        let _ = writeln!(out, "{:<16} {:>8} {:>12}", "phase", "spans", "ms");
        for row in &self.phases {
            let _ = writeln!(
                out,
                "{:<16} {:>8} {:>12.3}",
                row.cat,
                row.spans,
                row.total_us as f64 / 1000.0
            );
        }
        let _ = writeln!(
            out,
            "{:<16} {:>8} {:>12} {:>7}",
            "thread", "tid", "busy ms", "util"
        );
        for row in &self.threads {
            let util = if self.wall_us == 0 {
                0.0
            } else {
                (100.0 * row.busy_us as f64 / self.wall_us as f64).min(100.0)
            };
            let _ = writeln!(
                out,
                "{:<16} {:>8} {:>12.3} {:>6.1}%",
                row.label,
                row.tid,
                row.busy_us as f64 / 1000.0,
                util
            );
        }
        if !self.counters.is_empty() {
            let _ = writeln!(out, "{:<40} {:>12}", "counter", "value");
            for (name, value) in &self.counters {
                let _ = writeln!(out, "{name:<40} {value:>12}");
            }
        }
        out
    }
}

/// µs of `window` covered by at least one of `spans` (their merged
/// intervals, clipped to the window).
fn covered_us<'a>(spans: impl Iterator<Item = &'a ReadEvent>, window: (u64, u64)) -> u64 {
    let mut intervals: Vec<(u64, u64)> = spans
        .map(|e| (e.ts.max(window.0), (e.ts + e.dur).min(window.1)))
        .filter(|(lo, hi)| lo < hi)
        .collect();
    intervals.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = window.0;
    for (lo, hi) in intervals {
        let lo = lo.max(cursor);
        if hi > lo {
            covered += hi - lo;
            cursor = hi;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_telemetry::SpanEvent;

    fn span(
        name: &str,
        cat: &'static str,
        start_us: u64,
        dur_us: u64,
        tid: u32,
        (enter_seq, exit_seq, parent_seq): (u64, u64, u64),
    ) -> SpanEvent {
        SpanEvent {
            name: name.to_string(),
            cat,
            start_us,
            dur_us,
            tid,
            enter_seq,
            exit_seq,
            parent_seq,
            args: vec![("k".to_string(), ArgValue::U64(1))],
        }
    }

    /// A read-back span named after its category.
    fn event(cat: &str, ts: u64, dur: u64, tid: u64, seq: u64, parent: u64) -> ReadEvent {
        ReadEvent {
            name: cat.to_string(),
            cat: cat.to_string(),
            ts,
            dur,
            tid,
            seq,
            parent,
        }
    }

    fn sample_snapshot() -> Snapshot {
        let mut counters = BTreeMap::new();
        counters.insert("cycles.queries".to_string(), 3u64);
        let mut histograms = BTreeMap::new();
        histograms.insert(
            "removal.dirty_region".to_string(),
            vec![HistBucket {
                lower: 0,
                upper: 0,
                count: 2,
            }],
        );
        let mut threads = BTreeMap::new();
        threads.insert(1u32, "main".to_string());
        threads.insert(2u32, "worker-0".to_string());
        Snapshot {
            spans: vec![
                // Root covers [0, 1000]; children tile [0, 990].
                span("sweep", "sweep", 0, 900, 1, (2, 7, 1)),
                span("point", "sweep", 10, 200, 2, (3, 4, 0)),
                span("write", "artifact", 900, 90, 1, (8, 9, 1)),
                span("fig8", "figure", 0, 1000, 1, (1, 10, 0)),
            ],
            counters,
            histograms,
            threads,
            dropped_spans: 0,
        }
    }

    #[test]
    fn trace_file_is_both_artifact_and_chrome_trace() {
        let snapshot = sample_snapshot();
        let text = TraceArtifact::new("fig8_d26_media", &snapshot).render();
        let envelope = ParsedArtifact::parse(&text).expect("valid artifact envelope");
        assert_eq!(envelope.figure, TRACE_FIGURE);
        assert_eq!(
            envelope.data.get("source").and_then(JsonValue::as_str),
            Some("fig8_d26_media")
        );
        let document = JsonValue::parse(&text).expect("valid JSON");
        let events = document
            .get("traceEvents")
            .and_then(JsonValue::as_array)
            .expect("traceEvents array");
        // 2 thread_name metadata events + 4 complete events.
        assert_eq!(events.len(), 6);
        let metadata: Vec<&JsonValue> = events
            .iter()
            .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("M"))
            .collect();
        assert_eq!(metadata.len(), 2);
        // Complete events are sorted by ts: per-thread timestamps monotone.
        let complete: Vec<u64> = events
            .iter()
            .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("X"))
            .map(|e| read_u64(e, "ts").expect("ts"))
            .collect();
        assert!(complete.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn summary_attributes_phase_time_to_the_root_window() {
        let snapshot = sample_snapshot();
        let text = TraceArtifact::new("fig8_d26_media", &snapshot).render();
        let summary = TraceSummary::parse(&text).expect("summary parses");
        assert_eq!(summary.source, "fig8_d26_media");
        assert_eq!(summary.wall_us, 1000);
        // Root-thread children: sweep [0,900] + write [900,990].
        assert_eq!(summary.attributed_us, 990);
        assert!((summary.attribution_pct() - 99.0).abs() < 1e-9);
        // Self time: "sweep" counts the worker point span too (its parent
        // is outside the trace); the root keeps what its children left.
        let sweep = summary.phases.iter().find(|p| p.cat == "sweep").unwrap();
        assert_eq!(sweep.spans, 2);
        assert_eq!(sweep.total_us, 1100);
        let root = summary.phases.iter().find(|p| p.cat == "figure").unwrap();
        assert_eq!(root.total_us, 10);
        assert_eq!(summary.counters, vec![("cycles.queries".into(), 3)]);
        let table = summary.render_table();
        assert!(table.contains("attributed to named phases: 99.0%"));
        assert!(table.contains("cycles.queries"));
    }

    #[test]
    fn nested_same_category_spans_count_once() {
        let events = vec![
            event("removal", 0, 100, 1, 1, 0),
            event("removal", 10, 50, 1, 2, 1),
        ];
        let summary = TraceSummary::from_events("s".into(), Vec::new(), BTreeMap::new(), &events);
        let removal = summary.phases.iter().find(|p| p.cat == "removal").unwrap();
        assert_eq!(removal.spans, 2);
        assert_eq!(removal.total_us, 100);
    }

    #[test]
    fn phase_self_time_subtracts_direct_children_only() {
        // One worker thread: executor/worker ⊃ jobs/task ⊃ sweep/point ⊃
        // sweep/prepare, with a second task and an executor hand-off
        // beside them; the main thread's root holds the join.
        let events = vec![
            event("figure", 0, 1000, 1, 1, 0),
            event("executor", 950, 40, 1, 2, 1),
            event("executor", 10, 900, 2, 3, 0),
            event("jobs", 20, 500, 2, 4, 3),
            event("sweep", 30, 400, 2, 5, 4),
            event("sweep", 40, 150, 2, 6, 5),
            event("jobs", 600, 250, 2, 7, 3),
            event("sweep", 610, 240, 2, 8, 7),
            // µs rounding: a child 1 µs longer than its parent.
            event("removal", 610, 241, 2, 9, 8),
        ];
        let summary = TraceSummary::from_events("s".into(), Vec::new(), BTreeMap::new(), &events);
        let rows: Vec<(&str, u64, u64)> = summary
            .phases
            .iter()
            .map(|p| (p.cat.as_str(), p.spans, p.total_us))
            .collect();
        let expected = [
            // 1000 - 40
            ("figure", 1, 960),
            // (400 - 150) + 150 + 0: the rounding child outlasts its parent
            ("sweep", 3, 400),
            ("removal", 1, 241),
            // 40 + (900 - 500 - 250)
            ("executor", 2, 190),
            // (500 - 400) + (250 - 240)
            ("jobs", 2, 110),
        ];
        assert_eq!(rows, expected);
        // Self times partition each thread's top-level spans: 1000 + 900.
        let total: u64 = rows.iter().map(|&(_, _, us)| us).sum();
        assert_eq!(total, 1901, "1 µs of rounding counted twice, no more");
    }

    #[test]
    fn thread_rows_report_busy_shares_of_the_wall() {
        let events = vec![
            event("figure", 0, 1000, 1, 1, 0),
            // main: [0, 400] and [300, 600] overlap, busy 600 of 1000.
            event("sweep", 0, 400, 1, 2, 1),
            event("sweep", 300, 300, 1, 3, 1),
            // A worker without a label: [100, 900] and [500, 1200], the
            // latter clipped to the root window, busy 900.  Phase self
            // times sum each thread's top-level spans: 1.8× the wall.
            event("sweep", 100, 800, 2, 4, 0),
            event("removal", 500, 700, 2, 5, 4),
        ];
        let labels = BTreeMap::from([(1, "main".to_string())]);
        let summary = TraceSummary::from_events("s".into(), Vec::new(), labels, &events);
        let threads: Vec<(&str, u64)> = summary
            .threads
            .iter()
            .map(|t| (t.label.as_str(), t.busy_us))
            .collect();
        assert_eq!(threads, vec![("main", 600), ("tid 2", 900)]);
        let phase_us: u64 = summary.phases.iter().map(|p| p.total_us).sum();
        assert_eq!(phase_us, 1800);

        let table = summary.render_table();
        assert!(
            table.contains("main                    1        0.600   60.0%"),
            "{table}"
        );
        assert!(
            table.contains("tid 2                   2        0.900   90.0%"),
            "{table}"
        );
        for word in table.split_whitespace() {
            if let Some(pct) = word.strip_suffix('%') {
                let pct: f64 = pct.parse().unwrap_or_else(|_| panic!("{word} in {table}"));
                assert!(pct <= 100.0, "{word} in {table}");
            }
        }
    }

    #[test]
    fn sequential_roots_on_one_thread_share_one_wall() {
        // A benchmark op, then its probes: two roots on main.  The op's
        // worker opens a parentless span of its own, which is a phase.
        let events = vec![
            event("bench", 0, 2000, 1, 1, 0),
            event("removal", 0, 1900, 1, 2, 1),
            event("bench", 2000, 1000, 1, 3, 0),
            event("cdg", 2000, 900, 1, 4, 3),
            event("executor", 100, 500, 2, 5, 0),
        ];
        let summary = TraceSummary::from_events("s".into(), Vec::new(), BTreeMap::new(), &events);
        // The wall spans both roots, so main's phase self times (all but
        // the worker's 500 µs) add up to it instead of exceeding it.
        assert_eq!(summary.wall_us, 3000);
        let phase_us: u64 = summary.phases.iter().map(|p| p.total_us).sum();
        assert_eq!(phase_us - 500, summary.wall_us);
        // Neither root is a phase: main is busy in removal and cdg only.
        assert_eq!(summary.attributed_us, 2800);
        let busy: Vec<u64> = summary.threads.iter().map(|t| t.busy_us).collect();
        assert_eq!(busy, [2800, 500]);
    }

    #[test]
    fn blocking_receives_do_not_count_as_busy() {
        let event = |cat: &str, name: &str, ts, dur, tid, seq, parent| ReadEvent {
            name: name.to_string(),
            cat: cat.to_string(),
            ts,
            dur,
            tid,
            seq,
            parent,
        };
        let events = vec![
            event("figure", "run", 0, 1000, 1, 1, 0),
            // main: covered [0, 800] and [900, 950]; it waits in [100, 500]
            // (two overlapping receives inside the job span) and in
            // [900, 950], so 850 - 450 µs are busy.
            event("jobs", "build_source", 0, 800, 1, 2, 1),
            event("executor", "wait", 100, 300, 1, 3, 2),
            event("executor", "wait", 300, 200, 1, 4, 2),
            event("executor", "wait", 900, 50, 1, 5, 1),
            // A worker: a span of another executor category still counts.
            event("executor", "worker", 100, 500, 2, 6, 0),
        ];
        let labels = BTreeMap::from([(1, "main".to_string())]);
        let summary = TraceSummary::from_events("s".into(), Vec::new(), labels, &events);
        let threads: Vec<(&str, u64)> = summary
            .threads
            .iter()
            .map(|t| (t.label.as_str(), t.busy_us))
            .collect();
        assert_eq!(threads, vec![("main", 400), ("tid 2", 500)]);
        // Waiting is still attributed wall time: [0, 800] and [900, 950].
        assert_eq!(summary.attributed_us, 850);
    }

    /// A trace document holding one root complete event per `(ts, dur)`
    /// pair, both written as raw JSON numbers, all in one category.
    fn trace_with_events(events: &[(&str, &str)]) -> String {
        let events: Vec<String> = events
            .iter()
            .enumerate()
            .map(|(i, (ts, dur))| {
                format!(
                    r#"{{"name":"e{i}","cat":"c","ph":"X","ts":{ts},"dur":{dur},"pid":1,"tid":1,"seq":{},"parent":0}}"#,
                    i + 1
                )
            })
            .collect();
        format!(
            r#"{{"figure":"{TRACE_FIGURE}","schema":{SCHEMA_VERSION},"data":{{"source":"s"}},"traceEvents":[{}]}}"#,
            events.join(",")
        )
    }

    #[test]
    fn event_ending_past_the_u64_range_is_rejected() {
        let text = trace_with_events(&[("1e30", "1")]);
        match TraceSummary::parse(&text) {
            Err(ArtifactError::Envelope(message)) => {
                assert!(message.contains("ends past the u64"), "{message}")
            }
            other => panic!("expected an envelope error, got {other:?}"),
        }
    }

    #[test]
    fn extreme_timestamps_never_panic() {
        const EXTREMES: [&str; 5] = ["0", "1", "9007199254740992", "1e19", "1e30"];
        let mut rng = noc_rng::SmallRng::seed_from_u64(0x007E_ACE5);
        for case in 0..256 {
            let events: Vec<(&str, &str)> = (0..rng.gen_range(1..5_usize))
                .map(|_| {
                    (
                        EXTREMES[rng.gen_range(0..EXTREMES.len())],
                        EXTREMES[rng.gen_range(0..EXTREMES.len())],
                    )
                })
                .collect();
            let text = trace_with_events(&events);
            let fits = events.iter().all(|(ts, dur)| {
                let (ts, dur) = (ts.parse::<f64>().unwrap(), dur.parse::<f64>().unwrap());
                (ts as u64).checked_add(dur as u64).is_some()
            });
            match TraceSummary::parse(&text) {
                Ok(summary) => {
                    assert!(fits, "case {case}: {events:?} parsed");
                    summary.render_table();
                }
                Err(error) => assert!(!fits, "case {case}: {events:?}: {error}"),
            }
        }
    }

    /// `TraceSummary::parse` is what `noc_profile` runs on a file it is
    /// handed: every corruption of a rendered trace must end in a summary
    /// that renders or in a typed error, never a panic, in time linear in
    /// the input.
    #[test]
    fn summary_parse_survives_seeded_corruptions_of_a_rendered_trace() {
        use std::time::{Duration, Instant};
        let mut snapshot = sample_snapshot();
        // Sixteen worker points under the sweep span, each with a removal
        // child, so the trace has nesting, several threads and ~4.6 KB.
        for i in 0..16u64 {
            let (tid, seq, ts) = (2 + (i % 2) as u32, 20 + 2 * i, 10 + 50 * i);
            let point = span("point", "sweep", ts, 40, tid, (seq, seq + 1, 2));
            let remove = span(
                "remove",
                "removal",
                ts + 2,
                30,
                tid,
                (seq + 64, seq + 65, seq),
            );
            snapshot.spans.extend([point, remove]);
        }
        let trace = TraceArtifact::new("fig8_d26_media", &snapshot).render();
        const FRAGMENTS: [&str; 6] = ["-1", "1e999", "18446744073709551616", "null", "{}", "[]"];
        // The bound is relative to one plain JSON parse of the intact trace
        // on this machine: the slowest case takes under six such parses (two
        // parses plus the event fold and the table), while a reader that
        // rescans the input per event takes tens.  Inputs are charged at
        // least 1 KB so fixed costs do not count as per-byte.
        let json_parse = (0..3)
            .map(|_| {
                let start = Instant::now();
                JsonValue::parse(&trace).expect("the rendered trace parses");
                start.elapsed()
            })
            .min()
            .expect("three runs");
        let max_per_byte = json_parse * 16 / trace.len() as u32;
        let per_byte = |text: &str| {
            let start = Instant::now();
            let result = TraceSummary::parse(text);
            if let Ok(summary) = &result {
                summary.render_table();
                assert!(summary.attribution_pct().is_finite(), "{text}");
            }
            (result, start.elapsed() / text.len().max(1024) as u32)
        };
        let mut rng = noc_rng::SmallRng::seed_from_u64(0x7ACE_F022);
        let (mut parsed, mut rejected) = (0, 0);
        for case in 0..1_000 {
            let mut bytes = trace.clone().into_bytes();
            for _ in 0..rng.gen_range(1..4usize) {
                noc_rng::mutate(&mut bytes, &mut rng, &FRAGMENTS);
            }
            // A flip that breaks UTF-8 is read back lossily, as a file
            // reader would.
            let text = String::from_utf8_lossy(&bytes);
            let (result, mut elapsed) = per_byte(&text);
            if elapsed > max_per_byte {
                // One slow run may be the scheduler; the best of three is not.
                elapsed = (0..2)
                    .map(|_| per_byte(&text).1)
                    .fold(elapsed, Duration::min);
            }
            let (len, bound) = (text.len(), max_per_byte);
            assert!(
                elapsed <= bound,
                "case {case}: {elapsed:?}/byte over {len} bytes > {bound:?}"
            );
            match result {
                Ok(_) => parsed += 1,
                Err(ArtifactError::Io { .. }) => panic!("case {case}: parsing did I/O"),
                Err(_) => rejected += 1,
            }
        }
        // Both outcomes occur, so the corruptions reach the event reader.
        assert!(
            parsed > 0 && rejected > 0,
            "{parsed} parsed, {rejected} rejected"
        );
    }
}
