//! The artifact checker behind `noc_profile check`.
//!
//! [`check`] reads any artifact this suite writes: a figure's invariants
//! come from its entry in [`FIGURES`], next to its job source, and a
//! `noc_trace` file gets the well-formedness and attribution rules of
//! [`check_trace`].  [`same_as`] compares two artifacts with the figure's
//! measured fields masked.  Nothing here runs on a figure's job path: it
//! reads files, so every malformed input ends in a [`CheckError`].

use crate::artifact::{FieldError, Node};
use crate::figures::{find, FIGURES};
use noc_flow::json::{ArtifactError, JsonParseError, JsonValue, ParsedArtifact};
use noc_flow::{TraceSummary, TRACE_FIGURE};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Why an artifact was rejected.
#[derive(Debug)]
pub enum CheckError {
    /// Not valid JSON, or not a versioned envelope of this schema.
    Artifact(ArtifactError),
    /// A field is missing or mistyped.
    Field(FieldError),
    /// An invariant does not hold (or the figure is unknown).
    Failed(String),
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::Artifact(error) => error.fmt(f),
            CheckError::Field(error) => error.fmt(f),
            CheckError::Failed(message) => f.write_str(message),
        }
    }
}

impl std::error::Error for CheckError {}

impl From<FieldError> for CheckError {
    fn from(error: FieldError) -> Self {
        CheckError::Field(error)
    }
}

impl From<ArtifactError> for CheckError {
    fn from(error: ArtifactError) -> Self {
        CheckError::Artifact(error)
    }
}

impl From<JsonParseError> for CheckError {
    fn from(error: JsonParseError) -> Self {
        CheckError::Artifact(error.into())
    }
}

/// `Ok` when a rule `holds`; otherwise the failure `at: what`.
pub(crate) fn rule(holds: bool, at: &str, what: &str) -> Result<(), CheckError> {
    match holds {
        true => Ok(()),
        false => Err(CheckError::Failed(format!("{at}: {what}"))),
    }
}

impl Node<'_> {
    /// Fails unless this is an object holding every key of `keys`
    /// (whitespace-separated).
    pub(crate) fn require_keys(&self, keys: &str, at: &str) -> Result<(), CheckError> {
        let object = matches!(self.value, JsonValue::Object(_));
        rule(object, at, "must be an object")?;
        let missing: Vec<&str> = keys.split_whitespace().filter(|k| !self.has(k)).collect();
        let what = format!("missing keys: {missing:?}");
        rule(missing.is_empty(), at, &what)
    }

    /// The elements of this array, which must not be empty.
    pub(crate) fn nonempty(&self, at: &str) -> Result<Vec<Self>, CheckError> {
        let items = self.elements().unwrap_or_default();
        rule(!items.is_empty(), at, "must be a non-empty list")?;
        Ok(items)
    }
}

/// Checks one artifact's text: the envelope and schema, no repeated key,
/// then the figure's invariants (or, for a trace, [`check_trace`]).
/// Returns the figure name.
pub fn check(text: &str) -> Result<String, CheckError> {
    let artifact = ParsedArtifact::parse(text)?;
    let repeated = repeated_key(&JsonValue::parse(text)?);
    let what = format!("key {} appears twice", repeated.as_deref().unwrap_or(""));
    rule(repeated.is_none(), "artifact", &what)?;
    match find(&artifact.figure) {
        Some(entry) => entry.check(&artifact)?,
        None if artifact.figure == TRACE_FIGURE => check_trace(text)?,
        None => {
            let known: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
            let what = format!("unknown figure; known: {known:?}");
            rule(false, &artifact.figure, &what)?;
        }
    }
    Ok(artifact.figure)
}

/// The path of the first key an object repeats, if any.  Readers
/// disagree on which copy counts (`JsonValue::get` takes the first, most
/// JSON readers the last), so a checked artifact must not have one.
fn repeated_key(value: &JsonValue) -> Option<String> {
    match value {
        JsonValue::Object(members) => {
            let mut seen = BTreeSet::new();
            members
                .iter()
                .find_map(|(key, item)| match seen.insert(key) {
                    false => Some(format!(".{key}")),
                    true => repeated_key(item).map(|path| format!(".{key}{path}")),
                })
        }
        JsonValue::Array(items) => items
            .iter()
            .enumerate()
            .find_map(|(i, item)| repeated_key(item).map(|path| format!("[{i}]{path}"))),
        _ => None,
    }
}

/// Fails unless the two artifacts are equal, key order included, once the
/// measured fields of `ours`'s figure (e.g. fig_faults' `wall_ms`) are
/// deleted at any depth.
pub fn same_as(ours: &str, theirs: &str) -> Result<(), CheckError> {
    let ours = JsonValue::parse(ours)?;
    let name = ours.get("figure").and_then(JsonValue::as_str).unwrap_or("");
    let measured = find(name).map_or("", |f| f.measured);
    let same = mask(&ours, measured) == mask(&JsonValue::parse(theirs)?, measured);
    let what = format!("measured fields {measured:?} ignored");
    rule(same, "differs", &what)
}

fn mask(value: &JsonValue, measured: &str) -> JsonValue {
    match value {
        JsonValue::Object(members) => JsonValue::Object(
            members
                .iter()
                .filter(|(key, _)| !measured.split_whitespace().any(|m| m == key))
                .map(|(key, item)| (key.clone(), mask(item, measured)))
                .collect(),
        ),
        JsonValue::Array(items) => {
            JsonValue::Array(items.iter().map(|i| mask(i, measured)).collect())
        }
        other => other.clone(),
    }
}

/// Share of the root spans' wall time that named phase spans must cover.
pub const MIN_ATTRIBUTION: f64 = 0.95;

/// The Chrome-trace artifact: the envelope's `data` keys, well-formed
/// events (non-negative integer times and ids, unique `seq`, per-thread
/// monotone `ts`, `span_count` complete events), a parentless root, a
/// `figure` span, a work category (a trace without one means the
/// instrumentation seam came unplugged somewhere), and at least
/// [`MIN_ATTRIBUTION`] of the root window covered by phase spans.
pub fn check_trace(text: &str) -> Result<(), CheckError> {
    let document = JsonValue::parse(text)?;
    let document = Node::new(&document, "trace");
    let data = document.field("data")?;
    let keys = "source span_count dropped_spans phases counters histograms threads";
    data.require_keys(keys, "noc_trace data")?;
    let events = document.field("traceEvents")?.nonempty("traceEvents")?;
    let (mut seqs, mut last_ts) = (BTreeSet::new(), BTreeMap::new());
    let (mut categories, mut spans, mut root) = (BTreeSet::new(), 0, false);
    for event in &events {
        let phase = event.value.get("ph").and_then(JsonValue::as_str);
        if phase == Some("M") {
            event.require_keys("name pid tid args", "metadata event")?;
            continue;
        }
        rule(phase == Some("X"), &event.path, "unexpected event phase")?;
        event.require_keys("name cat ph ts dur pid tid seq parent", "span event")?;
        let mut ints = [0; 5];
        for (key, int) in ["ts", "dur", "tid", "seq", "parent"].iter().zip(&mut ints) {
            let value = event.num(key)?;
            let valid = value >= 0.0 && value.fract() == 0.0;
            let what = format!("{key} must be a non-negative integer");
            rule(valid, &event.path, &what)?;
            *int = value as u64;
        }
        let [ts, _, tid, seq, parent] = ints;
        let what = format!("duplicate span sequence number {seq}");
        rule(seqs.insert(seq), "trace", &what)?;
        // The writer sorts by start time: a violation means a broken clock
        // or sort.
        let monotone = last_ts.insert(tid, ts).unwrap_or(0) <= ts;
        let what = format!("timestamps go backwards at seq {seq}");
        rule(monotone, &format!("thread {tid}"), &what)?;
        categories.insert(event.text("cat")?);
        (spans, root) = (spans + 1, root || parent == 0);
    }
    let must = |holds, what: &str| rule(holds, "trace", what);
    must(spans > 0, "no complete (ph == X) span events")?;
    let span_count = data.num("span_count")?;
    let what = format!("data.span_count {span_count} != {spans} recorded span events");
    must(span_count == spans as f64, &what)?;
    must(root, "no parentless root span")?;
    must(categories.contains("figure"), "no root 'figure' span")?;
    let work = ["stage", "sweep", "removal", "sim", "jobs", "scc", "timing"];
    let what = format!("no work-phase spans; categories present: {categories:?}");
    must(work.iter().any(|c| categories.contains(c)), &what)?;
    let summary = TraceSummary::parse(text)?;
    let attribution = match summary.wall_us {
        0 => 1.0,
        wall => summary.attributed_us as f64 / wall as f64,
    };
    let what = format!(
        "only {:.1}% of the root spans' wall time is attributed to named phases (required {:.1}%)",
        100.0 * attribution,
        100.0 * MIN_ATTRIBUTION
    );
    must(attribution >= MIN_ATTRIBUTION, &what)
}
