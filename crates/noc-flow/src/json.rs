//! Hand-rolled, dependency-free JSON support for sweep results.
//!
//! The offline build environment has no crates.io access, so instead of
//! serde this module provides the small slice of JSON the suite needs:
//!
//! * [`ToJson`] — a writer trait implemented for the sweep result types
//!   ([`SweepPoint`], [`StrategyOutcome`] and the stat blocks the figures
//!   carry), the [`Artifact`] envelope and the primitives they are built
//!   from, with an escaping-correct string encoder,
//! * [`JsonValue`] — a tiny parsed representation with a strict parser,
//!   used by the figure binaries' `--json` artifact checker and the
//!   round-trip tests.
//!
//! Output is deterministic: object keys are emitted in declaration order,
//! numbers through Rust's `Display` (which never produces exponent
//! notation), non-finite floats as `null`.

use crate::sweep::{CertifyOutcome, FaultRunStats, StrategyOutcome, StrategySimStats, SweepPoint};
use noc_deadlock::report::StrategyKind;
use noc_topology::benchmarks::Benchmark;
use std::fmt;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Serializes a value as JSON into a growing buffer.
///
/// Implementations must append exactly one valid JSON value to `out`.
pub trait ToJson {
    /// Appends this value's JSON encoding to `out`.
    fn write_json(&self, out: &mut String);

    /// This value's JSON encoding as a fresh string.
    fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }
}

/// Appends `text` as a JSON string literal (quotes included), escaping
/// quotes, backslashes and every control character.
fn write_escaped(out: &mut String, text: &str) {
    out.push('"');
    for ch in text.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl ToJson for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl ToJson for usize {
    fn write_json(&self, out: &mut String) {
        out.push_str(&self.to_string());
    }
}

impl ToJson for u64 {
    fn write_json(&self, out: &mut String) {
        out.push_str(&self.to_string());
    }
}

impl ToJson for f64 {
    /// Non-finite values have no JSON encoding and are emitted as `null`,
    /// like every mainstream serializer's lossy mode.
    fn write_json(&self, out: &mut String) {
        if self.is_finite() {
            out.push_str(&self.to_string());
        } else {
            out.push_str("null");
        }
    }
}

impl ToJson for str {
    fn write_json(&self, out: &mut String) {
        write_escaped(out, self);
    }
}

impl ToJson for String {
    fn write_json(&self, out: &mut String) {
        write_escaped(out, self);
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(value) => value.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: ToJson> ToJson for [T] {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, item) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            item.write_json(out);
        }
        out.push(']');
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, out: &mut String) {
        self.as_slice().write_json(out);
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

/// Incremental JSON object writer used by the struct impls below (and by
/// downstream crates adding [`ToJson`] to their own result types).
///
/// # Example
///
/// ```
/// use noc_flow::json::ObjectWriter;
///
/// let mut out = String::new();
/// ObjectWriter::new(&mut out)
///     .field("name", &"fig8")
///     .field("points", &3usize)
///     .finish();
/// assert_eq!(out, r#"{"name":"fig8","points":3}"#);
/// ```
pub struct ObjectWriter<'a> {
    out: &'a mut String,
    first: bool,
}

impl<'a> ObjectWriter<'a> {
    /// Opens an object (writes `{`).
    pub fn new(out: &'a mut String) -> Self {
        out.push('{');
        ObjectWriter { out, first: true }
    }

    /// Writes one `"key": value` member.
    pub fn field(mut self, key: &str, value: &dyn ToJson) -> Self {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        write_escaped(self.out, key);
        self.out.push(':');
        value.write_json(self.out);
        self
    }

    /// Closes the object (writes `}`).
    pub fn finish(self) {
        self.out.push('}');
    }
}

impl ToJson for Benchmark {
    fn write_json(&self, out: &mut String) {
        write_escaped(out, self.name());
    }
}

impl ToJson for StrategyKind {
    fn write_json(&self, out: &mut String) {
        write_escaped(out, self.name());
    }
}

impl ToJson for StrategySimStats {
    fn write_json(&self, out: &mut String) {
        ObjectWriter::new(out)
            .field("injected", &self.injected)
            .field("delivered", &self.delivered)
            .field("deadlocked", &self.deadlocked)
            .field("mean_latency", &self.mean_latency)
            .field("p50_latency", &self.p50_latency)
            .field("p95_latency", &self.p95_latency)
            .field("p99_latency", &self.p99_latency)
            .field("max_latency", &self.max_latency)
            .field("throughput", &self.throughput)
            .field("cycles", &self.cycles)
            .finish();
    }
}

impl ToJson for FaultRunStats {
    fn write_json(&self, out: &mut String) {
        ObjectWriter::new(out)
            .field("faults_injected", &self.faults_injected)
            .field("reconfig_events", &self.reconfig_events)
            .field("epochs_committed", &self.epochs_committed)
            .field("cyclic_commits", &self.cyclic_commits)
            .field("drain_fallbacks", &self.drain_fallbacks)
            .field("packets_drained", &self.packets_drained)
            .field("flows_rerouted", &self.flows_rerouted)
            .field("unreachable_flows", &self.unreachable_flows)
            .field("unreachable_packets", &self.unreachable_packets)
            .field("injected", &self.injected)
            .field("delivered", &self.delivered)
            .field("delivered_fraction", &self.delivered_fraction)
            .field("mean_latency", &self.mean_latency)
            .field("connected", &self.connected)
            .field("deadlocked", &self.deadlocked)
            .finish();
    }
}

impl ToJson for CertifyOutcome {
    fn write_json(&self, out: &mut String) {
        ObjectWriter::new(out)
            .field("verdict", &self.verdict)
            .field("cdg_cyclic", &self.cdg_cyclic)
            .field("witness_worms", &self.witness_worms)
            .field("search_steps", &self.search_steps)
            .finish();
    }
}

impl ToJson for StrategyOutcome {
    fn write_json(&self, out: &mut String) {
        ObjectWriter::new(out)
            .field("strategy", &self.strategy)
            .field("kind", &self.kind)
            .field("added_vcs", &self.added_vcs)
            .field("cycles_broken", &self.cycles_broken)
            .field("mean_hops", &self.mean_hops)
            .field("power_mw", &self.power_mw)
            .field("area_um2", &self.area_um2)
            .field("certify", &self.certify)
            .finish();
    }
}

impl ToJson for SweepPoint {
    fn write_json(&self, out: &mut String) {
        ObjectWriter::new(out)
            .field("benchmark", &self.benchmark)
            .field("switch_count", &self.switch_count)
            .field("active_flows", &self.active_flows)
            .field("mean_hops", &self.mean_hops)
            .field("original_power_mw", &self.original_power_mw)
            .field("original_area_um2", &self.original_area_um2)
            .field("outcomes", &self.outcomes)
            .finish();
    }
}

/// A parsed JSON document (strict subset of ECMA-404: no trailing commas,
/// no comments, objects as ordered key/value lists).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, held as `f64`.
    Number(f64),
    /// A string, unescaped.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object; keys keep their document order (duplicates preserved).
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parses a complete JSON document (surrounding whitespace allowed,
    /// trailing garbage rejected).
    pub fn parse(input: &str) -> Result<JsonValue, JsonParseError> {
        let mut parser = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        parser.skip_ws();
        let value = parser.value()?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err(parser.error("trailing characters after the document"));
        }
        Ok(value)
    }

    /// Looks up a key in an object (first occurrence); `None` for non-objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements of an array; `None` for non-arrays.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The numeric value; `None` for non-numbers.
    pub fn as_number(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value; `None` for non-strings.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value; `None` for non-booleans.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

impl ToJson for JsonValue {
    fn write_json(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => b.write_json(out),
            JsonValue::Number(n) => n.write_json(out),
            JsonValue::String(s) => write_escaped(out, s),
            JsonValue::Array(items) => items.write_json(out),
            JsonValue::Object(members) => {
                let mut writer = ObjectWriter::new(out);
                for (key, value) in members {
                    writer = writer.field(key, value);
                }
                writer.finish();
            }
        }
    }
}

impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_json())
    }
}

/// A parse failure with the byte offset where it happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// Byte offset into the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonParseError {}

/// Containers deeper than this are rejected: the parser is recursive
/// descent, so a depth cap turns pathological inputs (`[[[[…`) into a
/// [`JsonParseError`] instead of a stack overflow.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: &str) -> JsonParseError {
        JsonParseError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, expected: u8) -> Result<(), JsonParseError> {
        if self.peek() == Some(expected) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", expected as char)))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => self.string().map(JsonValue::String),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    fn enter(&mut self) -> Result<(), JsonParseError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.error("nesting deeper than 128 levels"));
        }
        Ok(())
    }

    fn array(&mut self) -> Result<JsonValue, JsonParseError> {
        self.eat(b'[')?;
        self.enter()?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonParseError> {
        self.eat(b'{')?;
        self.enter()?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(JsonValue::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(JsonValue::Object(members));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: a single 0, or a nonzero digit followed by digits.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.error("expected a digit")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.error("expected a digit after '.'"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.error("expected a digit in the exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number characters are ASCII");
        let number: f64 = text.parse().expect("grammar guarantees a float literal");
        // `f64::from_str` never fails on the JSON grammar but saturates to
        // infinity (e.g. "1e999"); a non-finite Number would have no JSON
        // encoding on the writer side, so a strict parser rejects it.
        if !number.is_finite() {
            return Err(self.error("number out of range"));
        }
        Ok(JsonValue::Number(number))
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.eat(b'"')?;
        let mut result = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(result);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => result.push('"'),
                        Some(b'\\') => result.push('\\'),
                        Some(b'/') => result.push('/'),
                        Some(b'n') => result.push('\n'),
                        Some(b'r') => result.push('\r'),
                        Some(b't') => result.push('\t'),
                        Some(b'b') => result.push('\u{08}'),
                        Some(b'f') => result.push('\u{0C}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let unit = self.hex4()?;
                            let ch = if (0xD800..0xDC00).contains(&unit) {
                                // High surrogate: a \uXXXX low surrogate must
                                // follow to form one code point.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.eat(b'u')?;
                                    let low = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&low) {
                                        return Err(self.error("invalid low surrogate"));
                                    }
                                    let combined =
                                        0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
                                    char::from_u32(combined)
                                        .ok_or_else(|| self.error("invalid surrogate pair"))?
                                } else {
                                    return Err(self.error("lone high surrogate"));
                                }
                            } else {
                                char::from_u32(unit)
                                    .ok_or_else(|| self.error("lone low surrogate"))?
                            };
                            result.push(ch);
                            continue;
                        }
                        _ => return Err(self.error("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(byte) if byte < 0x20 => {
                    return Err(self.error("raw control character in string"));
                }
                Some(lead) => {
                    // Consume one UTF-8 scalar, validating only its own
                    // bytes: the lead byte gives the width (input is a
                    // &str, so the byte stream is valid UTF-8).
                    let width = match lead {
                        0x00..=0x7F => 1,
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    let scalar = std::str::from_utf8(&self.bytes[self.pos..self.pos + width])
                        .expect("input was a valid &str");
                    result.push_str(scalar);
                    self.pos += width;
                }
            }
        }
    }

    /// Reads exactly four hex digits (after `\u`) as a code unit.
    fn hex4(&mut self) -> Result<u32, JsonParseError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.error("truncated \\u escape"));
        }
        let mut unit = 0u32;
        // Digit by digit: `u32::from_str_radix` would also accept a leading
        // sign, which is not valid JSON.
        for &byte in &self.bytes[self.pos..end] {
            let digit = (byte as char)
                .to_digit(16)
                .ok_or_else(|| self.error("invalid \\u escape"))?;
            unit = unit * 16 + digit;
        }
        self.pos = end;
        Ok(unit)
    }
}

// ---------------------------------------------------------------------------
// Artifact envelope
// ---------------------------------------------------------------------------

/// Version of the artifact envelope and the per-figure payload schemas,
/// checked by `noc_profile check`.  Bump it whenever a payload field is
/// added, removed or changes meaning (v2 added the envelope `schema` field
/// itself, the per-outcome `kind`/`mean_hops` fields of sweep points, and
/// the `fig_strategy_matrix` artifact; v3 added the `fig_sim_strategies`
/// artifact, the per-outcome `sim` block, and the `fixed_p95_latency`
/// column of `sim_validation`; v4 added the `fig_conservatism` artifact and
/// the per-outcome `certify` block of sweep points; v5 added the
/// `fig_scale` artifact; v6 added the `fig_faults` artifact and the
/// per-outcome `fault` block of sweep points; v7 unified the envelope
/// behind [`Artifact`] with this crate-level constant and added the
/// `noc-jobs` resumable job store, whose on-disk records carry the same
/// version; v8 added the `noc_trace` telemetry artifact (envelope plus a
/// Chrome `traceEvents` array — see [`crate::trace`]) and replaced the
/// lump `rebuild_ms`/`incremental_ms` timing fields of `cdg_incremental`
/// and `fig_scale` with telemetry-attributed per-phase breakdowns; v9
/// dropped the per-outcome `sim` and `fault` blocks of sweep points, which
/// no sweep filled).
pub const SCHEMA_VERSION: usize = 9;

/// A JSON value that is *already serialized*: its text is spliced into the
/// output verbatim.  This is how the job store re-emits recorded task
/// results byte-identically instead of round-tripping them through
/// [`JsonValue`].
///
/// The wrapped text must be exactly one valid JSON value; [`Artifact::write`]
/// still self-validates the final document, so a bad splice fails loudly at
/// the writer instead of producing an unreadable artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawJson<'a>(pub &'a str);

impl ToJson for RawJson<'_> {
    fn write_json(&self, out: &mut String) {
        out.push_str(self.0);
    }
}

/// The versioned `{"figure", "schema", "data"}` envelope every figure and
/// job artifact is wrapped in — one generic writer/parser instead of
/// per-figure envelope code.
///
/// # Example
///
/// ```
/// use noc_flow::json::{Artifact, ParsedArtifact, SCHEMA_VERSION};
///
/// let text = Artifact::new("fig8_d26_media", &vec![1usize, 2, 3]).render();
/// let parsed = ParsedArtifact::parse(&text).unwrap();
/// assert_eq!(parsed.figure, "fig8_d26_media");
/// assert_eq!(parsed.schema, SCHEMA_VERSION);
/// assert_eq!(parsed.data.as_array().unwrap().len(), 3);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Artifact<'a, T: ToJson + ?Sized> {
    /// Figure (or job kind) name carried in the envelope.
    pub figure: &'a str,
    /// The payload serialized under `"data"`.
    pub data: &'a T,
}

impl<'a, T: ToJson + ?Sized> Artifact<'a, T> {
    /// Wraps a payload in the envelope.
    pub fn new(figure: &'a str, data: &'a T) -> Self {
        Artifact { figure, data }
    }

    /// The envelope document, newline-terminated.
    pub fn render(&self) -> String {
        let mut out = self.to_json();
        out.push('\n');
        out
    }

    /// Renders the envelope, re-parses it (so a serializer bug can never
    /// produce an unreadable artifact), and writes it to `path` atomically
    /// — temp file in the destination directory plus rename, so readers
    /// never observe a torn artifact and a crash mid-write leaves any
    /// previous version intact.  Each of the three steps is an `artifact`
    /// span of its own, nested under the caller's `artifact/write`.
    pub fn write(&self, path: &Path) -> Result<(), ArtifactError> {
        let out = {
            let _span = noc_telemetry::span("artifact", "render");
            self.render()
        };
        {
            let _span = noc_telemetry::span("artifact", "self_parse");
            ParsedArtifact::parse(&out)?;
        }
        let _span = noc_telemetry::span("artifact", "write_atomic");
        write_atomic(path, out.as_bytes()).map_err(|source| ArtifactError::Io {
            path: path.to_path_buf(),
            source,
        })
    }
}

impl<T: ToJson + ?Sized> ToJson for Artifact<'_, T> {
    fn write_json(&self, out: &mut String) {
        ObjectWriter::new(out)
            .field("figure", &self.figure)
            .field("schema", &SCHEMA_VERSION)
            .field("data", &self.data)
            .finish();
    }
}

/// An [`Artifact`] envelope read back from text, version-checked against
/// [`SCHEMA_VERSION`].
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedArtifact {
    /// Figure (or job kind) name from the envelope.
    pub figure: String,
    /// Envelope schema version (always [`SCHEMA_VERSION`] after a
    /// successful parse).
    pub schema: usize,
    /// The payload under `"data"`.
    pub data: JsonValue,
}

impl ParsedArtifact {
    /// Parses and validates an envelope document.
    pub fn parse(text: &str) -> Result<ParsedArtifact, ArtifactError> {
        let value = JsonValue::parse(text)?;
        let figure = value
            .get("figure")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| ArtifactError::Envelope("missing string field \"figure\"".into()))?
            .to_string();
        let schema = value
            .get("schema")
            .and_then(JsonValue::as_number)
            .ok_or_else(|| ArtifactError::Envelope("missing numeric field \"schema\"".into()))?;
        if schema != SCHEMA_VERSION as f64 {
            return Err(ArtifactError::SchemaMismatch { found: schema });
        }
        let data = value
            .get("data")
            .ok_or_else(|| ArtifactError::Envelope("missing field \"data\"".into()))?
            .clone();
        Ok(ParsedArtifact {
            figure,
            schema: SCHEMA_VERSION,
            data,
        })
    }
}

/// Why an artifact could not be written or read back.
#[derive(Debug)]
pub enum ArtifactError {
    /// The document is not valid JSON.
    Json(JsonParseError),
    /// The document parses but the envelope is malformed.
    Envelope(String),
    /// The envelope's schema version differs from [`SCHEMA_VERSION`].
    SchemaMismatch {
        /// The version found in the document.
        found: f64,
    },
    /// A filesystem operation failed.
    Io {
        /// The artifact path involved.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::Json(e) => write!(f, "artifact is not valid JSON: {e}"),
            ArtifactError::Envelope(message) => write!(f, "malformed artifact envelope: {message}"),
            ArtifactError::SchemaMismatch { found } => write!(
                f,
                "artifact schema is {found}, this build expects {SCHEMA_VERSION}"
            ),
            ArtifactError::Io { path, source } => {
                write!(f, "cannot write {}: {source}", path.display())
            }
        }
    }
}

impl std::error::Error for ArtifactError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ArtifactError::Json(e) => Some(e),
            ArtifactError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<JsonParseError> for ArtifactError {
    fn from(error: JsonParseError) -> Self {
        ArtifactError::Json(error)
    }
}

/// Distinguishes concurrent writers' temp files (two processes committing
/// into the same directory must never rename each other's half-written
/// file into place).
static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Writes `bytes` to `path` atomically: the data goes to a uniquely named
/// temp file in the destination directory (created if missing), is synced,
/// and is renamed over `path` — so a crash at any point leaves either the
/// old file or the new one, never a torn mix.  Shared by the artifact
/// writer and the job store's commit path.
///
/// # Errors
///
/// Refuses with [`InvalidInput`](std::io::ErrorKind::InvalidInput) when
/// `path` exists and is not a regular file: renaming over a device node
/// such as `/dev/null`, a socket or a directory would replace it.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    if std::fs::metadata(path).is_ok_and(|m| !m.is_file()) {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("{} exists and is not a regular file", path.display()),
        ));
    }
    let dir = match path.parent() {
        Some(parent) if !parent.as_os_str().is_empty() => parent,
        _ => Path::new("."),
    };
    std::fs::create_dir_all(dir)?;
    let file_name = path.file_name().ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("{} has no file name", path.display()),
        )
    })?;
    let tmp = dir.join(format!(
        ".{}.tmp.{}.{}",
        file_name.to_string_lossy(),
        std::process::id(),
        TMP_COUNTER.fetch_add(1, Ordering::Relaxed),
    ));
    let result = (|| {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        drop(file);
        std::fs::rename(&tmp, path)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
        return result;
    }
    // Persist the rename itself (best effort: directory handles are not
    // syncable on every platform).
    if let Ok(handle) = std::fs::File::open(dir) {
        let _ = handle.sync_all();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_covers_quotes_backslashes_and_controls() {
        let mut out = String::new();
        write_escaped(&mut out, "a\"b\\c\nd\te\r\u{08}\u{0C}\u{01}ü");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\te\\r\\b\\f\\u0001ü\"");
        // And the parser reverses it exactly.
        assert_eq!(
            JsonValue::parse(&out).unwrap(),
            JsonValue::String("a\"b\\c\nd\te\r\u{08}\u{0C}\u{01}ü".to_string())
        );
    }

    #[test]
    fn string_parsing_is_linear_in_length() {
        // Best-of-n parse time of one string literal of about `bytes`
        // bytes, mixing one- to four-byte scalars.
        fn best_parse(bytes: usize, runs: usize) -> std::time::Duration {
            let body: String = "ab\u{fc}\u{20ac}\u{1d11e}"
                .chars()
                .cycle()
                .take(bytes / 2)
                .collect();
            let doc = format!("\"{body}\"");
            (0..runs)
                .map(|_| {
                    let start = std::time::Instant::now();
                    let value = JsonValue::parse(&doc).expect("a valid literal");
                    let elapsed = start.elapsed();
                    assert_eq!(value.as_str().map(str::len), Some(body.len()));
                    elapsed
                })
                .min()
                .expect("at least one run")
        }
        let small = best_parse(10_000, 5);
        let large = best_parse(1_000_000, 3);
        // 100x the input: linear parsing takes ~100x as long, a parser
        // that re-scans the rest of the document per scalar ~10 000x.
        assert!(
            large < small * 300,
            "1 MB took {large:?}, 10 KB took {small:?}"
        );
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(f64::NAN.to_json(), "null");
        assert_eq!(f64::INFINITY.to_json(), "null");
        assert_eq!(1.5f64.to_json(), "1.5");
    }

    #[test]
    fn options_vectors_and_primitives() {
        assert_eq!(None::<f64>.to_json(), "null");
        assert_eq!(Some(3usize).to_json(), "3");
        assert_eq!(vec![1usize, 2, 3].to_json(), "[1,2,3]");
        assert_eq!(true.to_json(), "true");
        assert_eq!("x".to_json(), "\"x\"");
        assert_eq!(Vec::<usize>::new().to_json(), "[]");
    }

    #[test]
    fn parser_accepts_the_grammar() {
        let doc = r#" {"a": [1, -2.5, 1e3, true, false, null], "b": {"c": "d"}, "e": []} "#;
        let value = JsonValue::parse(doc).unwrap();
        assert_eq!(value.get("a").unwrap().as_array().unwrap().len(), 6);
        assert_eq!(
            value.get("a").unwrap().as_array().unwrap()[2].as_number(),
            Some(1000.0)
        );
        assert_eq!(
            value.get("b").unwrap().get("c").unwrap().as_str(),
            Some("d")
        );
        assert_eq!(value.get("e").unwrap().as_array(), Some(&[][..]));
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "01",
            "1.",
            "1e",
            "\"\\x\"",
            "\"",
            "tru",
            "[1] extra",
            "{\"a\" 1}",
            "\u{7f}\"unclosed",
            "nan",
            "+1",
            "--1",
            "\"\\ud800\"",
            "\"\\ud800\\u0020\"",
            "\"\\u+061\"",
            "\"\\u-061\"",
            "1e999",
            "-1e999",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn parser_rejects_pathological_nesting_instead_of_overflowing() {
        let deep_ok = format!("{}0{}", "[".repeat(128), "]".repeat(128));
        assert!(JsonValue::parse(&deep_ok).is_ok());
        let too_deep = format!("{}0{}", "[".repeat(129), "]".repeat(129));
        let err = JsonValue::parse(&too_deep).unwrap_err();
        assert!(err.message.contains("nesting"));
        // Far past any plausible stack limit: must error, not abort.
        assert!(JsonValue::parse(&"[".repeat(200_000)).is_err());
        assert!(JsonValue::parse(&"{\"k\":".repeat(200_000)).is_err());
        // Sibling (non-nested) containers do not accumulate depth.
        let wide = format!("[{}[]]", "[],".repeat(500));
        assert!(JsonValue::parse(&wide).is_ok());
    }

    /// Parses `input` and checks the contract every caller relies on: a
    /// value that renders and parses back to itself, or a typed error
    /// whose offset lies within the input.  A panic fails the test.
    fn parse_is_total(input: &str) {
        match JsonValue::parse(input) {
            Ok(value) => assert_eq!(
                JsonValue::parse(&value.to_json()).as_ref(),
                Ok(&value),
                "{input:?}"
            ),
            Err(err) => assert!(err.offset <= input.len(), "{err} in {input:?}"),
        }
    }

    #[test]
    fn parser_survives_seeded_corruptions_of_a_rendered_artifact() {
        let data = JsonValue::parse(
            r#"{"name":"t\u00fcr \ud83d\ude00 \"q\" \\ \n","xs":[0,-1,2.5,-0.125,1e300,1E-7],
                "nested":{"a":[[],{}],"b":[true,false,null]},"unicode":"ü€𝄞"}"#,
        )
        .expect("the seed document parses");
        let artifact = Artifact::new("fig_fuzz", &data).render();
        // Nesting one below, at and one above the depth cap, besides
        // escapes and numbers at the edge of what parses.
        let nested: Vec<String> = (MAX_DEPTH - 1..=MAX_DEPTH + 1)
            .flat_map(|depth| {
                [
                    format!("{}0{}", "[".repeat(depth), "]".repeat(depth)),
                    format!("{}0{}", "{\"k\":".repeat(depth), "}".repeat(depth)),
                ]
            })
            .collect();
        let fragments: Vec<&str> =
            r#"\u \ud800 \udc00 \ud83d\u \u12 \uD83D\uDE00 1e999 - 0. -0 1e " [ { ] } , :"#
                .split(' ')
                .chain(nested.iter().map(String::as_str))
                .collect();
        let mut rng = noc_rng::SmallRng::seed_from_u64(0x15_0F);
        for _ in 0..2_000 {
            let mut bytes = artifact.clone().into_bytes();
            for _ in 0..rng.gen_range(1..4usize) {
                noc_rng::mutate(&mut bytes, &mut rng, &fragments);
            }
            // A flip that breaks UTF-8 is read back lossily, as a file
            // reader would.
            parse_is_total(&String::from_utf8_lossy(&bytes));
        }
    }

    #[test]
    fn parser_time_per_byte_is_bounded_on_hostile_input() {
        // Escapes, surrogate pairs, nesting at the depth cap and long
        // numbers, over and over; the document fails on its last number,
        // so the parser reads every byte before giving up.
        let unit = format!(
            "\"\\ud83d\\ude00\\u00fc\\n\\\"\", -123456789.123456789e-12, {}0{}, ",
            "[".repeat(127),
            "]".repeat(127)
        );
        let doc = format!("[{}1e999]", unit.repeat(256 * 1024 / unit.len()));
        let best = (0..3)
            .map(|_| {
                let start = std::time::Instant::now();
                let err = JsonValue::parse(&doc).expect_err("1e999 is out of range");
                let elapsed = start.elapsed();
                assert_eq!(err.offset, doc.len() - 1);
                elapsed
            })
            .min()
            .expect("at least one run");
        // A linear parser takes about 0.2 µs per byte in a debug build; one
        // that rescans the input per token, hundreds of microseconds.
        let per_byte = best / doc.len() as u32;
        assert!(
            per_byte < std::time::Duration::from_micros(2),
            "{per_byte:?} per byte over {} bytes",
            doc.len()
        );
    }

    #[test]
    fn parser_handles_unicode_escapes_and_surrogate_pairs() {
        assert_eq!(
            JsonValue::parse("\"\\u00fc\\ud83d\\ude00\"").unwrap(),
            JsonValue::String("ü😀".to_string())
        );
    }

    #[test]
    fn json_value_round_trips_through_display() {
        let doc = r#"{"a":[1,2.5,true,null],"b":"x\"y","c":{}}"#;
        let value = JsonValue::parse(doc).unwrap();
        let rendered = value.to_json();
        assert_eq!(JsonValue::parse(&rendered).unwrap(), value);
        assert_eq!(rendered, doc);
    }

    #[test]
    fn strategy_kinds_serialize_as_their_names() {
        assert_eq!(StrategyKind::EscapeChannel.to_json(), "\"escape-channel\"");
    }

    #[test]
    fn artifact_envelope_round_trips() {
        let data = vec![1usize, 2, 3];
        let text = Artifact::new("fig_demo", &data).render();
        assert!(text.ends_with('\n'));
        let parsed = ParsedArtifact::parse(&text).expect("valid envelope");
        assert_eq!(parsed.figure, "fig_demo");
        assert_eq!(parsed.schema, SCHEMA_VERSION);
        assert_eq!(parsed.data.as_array().unwrap().len(), 3);
    }

    #[test]
    fn artifact_parse_rejects_wrong_schema_and_missing_fields() {
        let stale = format!(
            "{{\"figure\":\"f\",\"schema\":{},\"data\":[]}}",
            SCHEMA_VERSION - 1
        );
        assert!(matches!(
            ParsedArtifact::parse(&stale),
            Err(ArtifactError::SchemaMismatch { .. })
        ));
        assert!(matches!(
            ParsedArtifact::parse("{\"schema\":7,\"data\":[]}"),
            Err(ArtifactError::Envelope(_))
        ));
        assert!(matches!(
            ParsedArtifact::parse("not json"),
            Err(ArtifactError::Json(_))
        ));
    }

    #[test]
    fn raw_json_splices_verbatim() {
        let raw = RawJson("{\"a\":1}");
        let mut out = String::new();
        ObjectWriter::new(&mut out).field("inner", &raw).finish();
        assert_eq!(out, "{\"inner\":{\"a\":1}}");
    }

    #[test]
    fn write_atomic_replaces_and_creates_parents() {
        let dir = std::env::temp_dir().join(format!(
            "noc-json-atomic-{}-{}",
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let path = dir.join("nested").join("artifact.json");
        write_atomic(&path, b"first").expect("initial write");
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        write_atomic(&path, b"second").expect("overwrite");
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        // No temp litter left behind.
        let leftovers: Vec<_> = std::fs::read_dir(path.parent().unwrap())
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(leftovers.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[cfg(unix)]
    #[test]
    fn write_atomic_refuses_a_target_that_is_not_a_regular_file() {
        use std::os::unix::fs::FileTypeExt;
        let dir = std::env::temp_dir().join(format!(
            "noc-json-socket-{}-{}",
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("artifact.sock");
        let _listener = std::os::unix::net::UnixListener::bind(&path).unwrap();
        let result = write_atomic(&path, b"bytes");
        let kind = std::fs::symlink_metadata(&path).unwrap().file_type();
        std::fs::remove_dir_all(&dir).unwrap();
        let error = result.expect_err("a socket is not replaced");
        assert_eq!(error.kind(), std::io::ErrorKind::InvalidInput);
        assert!(error.to_string().contains("artifact.sock"), "{error}");
        assert!(kind.is_socket(), "the socket must survive");
    }

    #[test]
    fn artifact_write_is_readable_back() {
        let dir = std::env::temp_dir().join(format!(
            "noc-json-artifact-{}-{}",
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let path = dir.join("fig.json");
        let data = vec![0.5f64, 1.25];
        Artifact::new("fig_demo", &data)
            .write(&path)
            .expect("write");
        let text = std::fs::read_to_string(&path).unwrap();
        let parsed = ParsedArtifact::parse(&text).unwrap();
        assert_eq!(parsed.figure, "fig_demo");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
