//! Job specs: the JSON request a client submits, and its canonical
//! content-hash identity.

use crate::digest::sha256_hex;
use crate::error::JobError;
use noc_flow::json::{JsonValue, ToJson, SCHEMA_VERSION};

/// A submitted job: which figure to evaluate and with what parameters.
///
/// The wire form is a single JSON object:
///
/// ```json
/// {"id": "fig8-nightly", "figure": "fig8_d26_media", "params": {}, "threads": 4}
/// ```
///
/// `id` (optional) is a client-chosen handle for spool filenames and log
/// lines; `params` (optional, default `{}`) is the figure-specific
/// configuration; `threads` (optional, default `0` = auto-size) is the
/// worker-pool width.  Neither `id` nor `threads` is part of the job's
/// *identity*: two requests for the same figure with the same params are
/// the same job — see [`JobRequest::digest`].
#[derive(Debug, Clone, PartialEq)]
pub struct JobRequest {
    /// Client-chosen handle (may be empty).
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

    /// Parses a request from its JSON wire form, rejecting unknown keys so
    /// a typo'd parameter fails loudly instead of silently running the
    /// default sweep.
    pub fn from_json(text: &str) -> Result<JobRequest, JobError> {
        let value = JsonValue::parse(text)?;
        let JsonValue::Object(fields) = &value else {
            return Err(JobError::Spec("a job spec must be a JSON object".into()));
        };
        let mut request = JobRequest::new(String::new());
        for (key, field) in fields {
            match key.as_str() {
                "id" => match field {
                    JsonValue::String(id) => request.id = id.clone(),
                    _ => return Err(JobError::Spec("\"id\" must be a string".into())),
                },
                "figure" => match field {
                    JsonValue::String(figure) => request.figure = figure.clone(),
                    _ => return Err(JobError::Spec("\"figure\" must be a string".into())),
                },
                "params" => match field {
                    JsonValue::Object(_) => request.params = field.clone(),
                    _ => return Err(JobError::Spec("\"params\" must be an object".into())),
                },
                "threads" => match field {
                    JsonValue::Number(n) if *n >= 0.0 && n.fract() == 0.0 => {
                        request.threads = *n as usize;
                    }
                    _ => {
                        return Err(JobError::Spec(
                            "\"threads\" must be a non-negative integer".into(),
                        ))
                    }
                },
                other => {
                    return Err(JobError::Spec(format!("unknown key {other:?}")));
                }
            }
        }
        if request.figure.is_empty() {
            return Err(JobError::Spec("missing required key \"figure\"".into()));
        }
        Ok(request)
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

    /// Renders the request back to its wire form (document key order).
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

    #[test]
    fn parses_minimal_and_full_specs() {
        let minimal = JobRequest::from_json("{\"figure\":\"fig8_d26_media\"}").unwrap();
        assert_eq!(minimal.figure, "fig8_d26_media");
        assert_eq!(minimal.threads, 0);
        assert!(minimal.id.is_empty());

        let full = JobRequest::from_json(
            "{\"id\":\"n1\",\"figure\":\"fig_strategy_matrix\",\
             \"params\":{\"switch_counts\":[6,8]},\"threads\":2}",
        )
        .unwrap();
        assert_eq!(full.id, "n1");
        assert_eq!(full.threads, 2);
    }

    #[test]
    fn rejects_unknown_keys_and_bad_types() {
        assert!(matches!(
            JobRequest::from_json("{\"figure\":\"f\",\"frobnicate\":1}"),
            Err(JobError::Spec(_))
        ));
        assert!(matches!(
            JobRequest::from_json("{\"figure\":7}"),
            Err(JobError::Spec(_))
        ));
        assert!(matches!(
            JobRequest::from_json("{\"id\":\"x\"}"),
            Err(JobError::Spec(_))
        ));
        assert!(matches!(
            JobRequest::from_json("{\"figure\":\"f\",\"threads\":-1}"),
            Err(JobError::Spec(_)) | Err(JobError::Json(_))
        ));
    }

    #[test]
    fn identity_ignores_id_and_threads_but_not_params() {
        let a = JobRequest::from_json("{\"id\":\"a\",\"figure\":\"f\",\"threads\":1}").unwrap();
        let b = JobRequest::from_json("{\"id\":\"b\",\"figure\":\"f\",\"threads\":8}").unwrap();
        assert_eq!(a.digest(), b.digest());

        let c = JobRequest::from_json("{\"figure\":\"f\",\"params\":{\"n\":1}}").unwrap();
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn canonical_form_sorts_keys_recursively() {
        let a = JobRequest::from_json(
            "{\"figure\":\"f\",\"params\":{\"b\":{\"y\":1,\"x\":2},\"a\":3}}",
        )
        .unwrap();
        let b = JobRequest::from_json(
            "{\"figure\":\"f\",\"params\":{\"a\":3,\"b\":{\"x\":2,\"y\":1}}}",
        )
        .unwrap();
        assert_eq!(a.canonical(), b.canonical());
        assert!(a.canonical().contains("\"a\":3,\"b\":{\"x\":2,\"y\":1}"));
    }

    #[test]
    fn identity_bytes_are_pinned() {
        // Store directories and cache entries are keyed by these bytes: a
        // writer change that alters them orphans every stored job.
        let request = JobRequest::from_json(
            r#"{"figure":"fig_strategy_matrix","threads":2,"params":
               {"z":{"b":[1,0.25,{"y":"caf\u00e9 \"q\"\\\n\u0001","x":null}],"a":true},
                "n":12345678901234567,"m":-1.5e-7,"big":1e21}}"#,
        )
        .unwrap();
        assert_eq!(
            request.canonical(),
            r#"{"figure":"fig_strategy_matrix","params":{"big":1000000000000000000000,"m":-0.00000015,"n":12345678901234568,"z":{"a":true,"b":[1,0.25,{"x":null,"y":"café \"q\"\\\n\u0001"}]}},"schema":9}"#
        );
        assert_eq!(
            request.digest(),
            "f1b9f5661237fe677cf0bbd21707801db8acacff37592cacdbaa05f31b37e5a3"
        );
        // The wire form keeps document key order.
        assert_eq!(
            request.to_json_string(),
            r#"{"id":"","figure":"fig_strategy_matrix","params":{"z":{"b":[1,0.25,{"y":"café \"q\"\\\n\u0001","x":null}],"a":true},"n":12345678901234568,"m":-0.00000015,"big":1000000000000000000000},"threads":2}"#
        );
    }

    #[test]
    fn wire_form_round_trips() {
        let spec = "{\"id\":\"j\",\"figure\":\"f\",\"params\":{\"k\":[1,2]},\"threads\":3}";
        let request = JobRequest::from_json(spec).unwrap();
        assert_eq!(request.to_json_string(), spec);
        assert_eq!(
            JobRequest::from_json(&request.to_json_string()).unwrap(),
            request
        );
    }
}
