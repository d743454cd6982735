//! Job specs: which figure a job evaluates, and its canonical
//! content-hash identity.

use crate::digest::sha256_hex;
use noc_flow::json::{JsonValue, ToJson, SCHEMA_VERSION};

/// A job: which figure to evaluate and with what parameters.
///
/// A store records it in its `job.json` as a single JSON object:
///
/// ```json
/// {"id": "fig8-nightly", "figure": "fig8_d26_media", "params": {}, "threads": 4}
/// ```
///
/// `id` is a caller-chosen handle; `params` (default `{}`) is the
/// figure-specific configuration; `threads` (default `0` = auto-size) is
/// the worker-pool width.  Neither `id` nor `threads` is part of the job's
/// *identity*: two requests for the same figure with the same params are
/// the same job — see [`JobRequest::digest`].
#[derive(Debug, Clone, PartialEq)]
pub struct JobRequest {
    /// Caller-chosen handle (may be empty).
    pub id: String,
    /// The figure to evaluate (must name a registered job source).
    pub figure: String,
    /// Figure-specific parameters (a JSON object; empty by default).
    pub params: JsonValue,
    /// Worker-pool width (`0` auto-sizes to the machine).
    pub threads: usize,
}

impl JobRequest {
    /// A request for `figure` with default (empty) parameters.
    pub fn new(figure: impl Into<String>) -> Self {
        JobRequest {
            id: String::new(),
            figure: figure.into(),
            params: JsonValue::Object(Vec::new()),
            threads: 0,
        }
    }

    /// The canonical identity of the job: figure, recursively key-sorted
    /// params, and the artifact schema version (so a schema bump never
    /// reuses stale cached results).  `id` and `threads` are deliberately
    /// excluded — they change how and where a job runs, not what it
    /// computes.
    pub(crate) fn canonical(&self) -> String {
        let mut out = String::from("{\"figure\":");
        self.figure.write_json(&mut out);
        out.push_str(",\"params\":");
        sorted_keys(&self.params).write_json(&mut out);
        out.push_str(&format!(",\"schema\":{SCHEMA_VERSION}}}"));
        out
    }

    /// SHA-256 hex digest of the job's canonical identity (figure,
    /// recursively key-sorted params and artifact schema version; `id` and
    /// `threads` excluded) — its content-hash key in store directories and
    /// the result cache.
    pub fn digest(&self) -> String {
        sha256_hex(self.canonical().as_bytes())
    }

    /// Renders the request as `job.json` holds it (params in document key
    /// order).
    pub(crate) fn to_json_string(&self) -> String {
        let mut out = String::from("{\"id\":");
        self.id.write_json(&mut out);
        out.push_str(",\"figure\":");
        self.figure.write_json(&mut out);
        out.push_str(",\"params\":");
        self.params.write_json(&mut out);
        out.push_str(&format!(",\"threads\":{}}}", self.threads));
        out
    }
}

/// `value` with object keys recursively sorted (bytewise; the sort is
/// stable, so repeated keys keep their document order).  Rendered through
/// [`ToJson`], two specs that parse to the same value always canonicalize
/// to the same bytes — the property the digest keys rely on.
fn sorted_keys(value: &JsonValue) -> JsonValue {
    match value {
        JsonValue::Array(items) => JsonValue::Array(items.iter().map(sorted_keys).collect()),
        JsonValue::Object(fields) => {
            let mut fields: Vec<(String, JsonValue)> = fields
                .iter()
                .map(|(key, field)| (key.clone(), sorted_keys(field)))
                .collect();
            fields.sort_by(|a, b| a.0.cmp(&b.0));
            JsonValue::Object(fields)
        }
        other => other.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(figure: &str, params: &str) -> JobRequest {
        let mut request = JobRequest::new(figure);
        request.params = JsonValue::parse(params).unwrap();
        request
    }

    #[test]
    fn identity_ignores_id_and_threads_but_not_params() {
        let mut a = JobRequest::new("f");
        (a.id, a.threads) = ("a".into(), 1);
        let mut b = JobRequest::new("f");
        (b.id, b.threads) = ("b".into(), 8);
        assert_eq!(a.digest(), b.digest());

        let c = request("f", "{\"n\":1}");
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn canonical_form_sorts_keys_recursively() {
        let a = request("f", "{\"b\":{\"y\":1,\"x\":2},\"a\":3}");
        let b = request("f", "{\"a\":3,\"b\":{\"x\":2,\"y\":1}}");
        assert_eq!(a.canonical(), b.canonical());
        assert!(a.canonical().contains("\"a\":3,\"b\":{\"x\":2,\"y\":1}"));
    }

    #[test]
    fn identity_bytes_are_pinned() {
        // Store directories and cache entries are keyed by these bytes: a
        // writer change that alters them orphans every stored job.
        let mut request = request(
            "fig_strategy_matrix",
            r#"{"z":{"b":[1,0.25,{"y":"caf\u00e9 \"q\"\\\n\u0001","x":null}],"a":true},
                "n":12345678901234567,"m":-1.5e-7,"big":1e21}"#,
        );
        request.threads = 2;
        assert_eq!(
            request.canonical(),
            r#"{"figure":"fig_strategy_matrix","params":{"big":1000000000000000000000,"m":-0.00000015,"n":12345678901234568,"z":{"a":true,"b":[1,0.25,{"x":null,"y":"café \"q\"\\\n\u0001"}]}},"schema":9}"#
        );
        assert_eq!(
            request.digest(),
            "f1b9f5661237fe677cf0bbd21707801db8acacff37592cacdbaa05f31b37e5a3"
        );
        // `job.json` keeps the params' document key order.
        assert_eq!(
            request.to_json_string(),
            r#"{"id":"","figure":"fig_strategy_matrix","params":{"z":{"b":[1,0.25,{"y":"café \"q\"\\\n\u0001","x":null}],"a":true},"n":12345678901234568,"m":-0.00000015,"big":1000000000000000000000},"threads":2}"#
        );
    }
}
