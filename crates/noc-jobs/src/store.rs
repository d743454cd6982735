//! The on-disk resumable job store.
//!
//! A job directory holds three things:
//!
//! * `job.json` — the submitted spec plus its canonical digest, written
//!   atomically when the store is first opened;
//! * `tasks.ndjson` — the append-only completion log: one JSON record per
//!   finished task, flushed and synced as it lands, so a crash loses at
//!   most the record being written (a torn trailing line is tolerated and
//!   truncated away on reopen);
//! * `artifact.json` — the assembled artifact, committed by atomic
//!   temp-file + rename once every task has a record.
//!
//! Reopening the directory with the same spec replays the log; a rerun
//! computes only the tasks without records, and the committed artifact is
//! byte-identical to an uninterrupted run because both splice the same
//! recorded result text.

use crate::error::JobError;
use crate::spec::JobRequest;
use noc_flow::json::{write_atomic, JsonValue, ObjectWriter, RawJson};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// One completed task, as recorded in `tasks.ndjson`.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskRecord {
    /// The task's index in the job's task list.
    pub index: usize,
    /// Digest of the owning job spec (records from a stale spec are
    /// ignored on load).
    pub digest: String,
    /// Wall time the task took, in milliseconds.
    pub elapsed_ms: u64,
    /// The task's result, as serialized JSON (spliced verbatim into the
    /// assembled artifact).
    pub result: String,
}

impl TaskRecord {
    fn to_line(&self) -> String {
        let mut out = String::new();
        ObjectWriter::new(&mut out)
            .field("index", &self.index)
            .field("digest", &self.digest)
            .field("elapsed_ms", &self.elapsed_ms)
            .field("result", &RawJson(&self.result))
            .finish();
        out
    }

    /// Reads the record on `raw_line`, a line without trailing whitespace
    /// that parsed as `value`.  Only the layout [`TaskRecord::to_line`]
    /// writes is accepted.
    fn from_value(value: &JsonValue, raw_line: &str) -> Result<TaskRecord, String> {
        let keys_in_order = matches!(value, JsonValue::Object(fields)
            if fields.iter().map(|(key, _)| key.as_str()).eq(RECORD_KEYS));
        if !keys_in_order {
            return Err(format!(
                "a record holds exactly the keys {RECORD_KEYS:?}, in that order"
            ));
        }
        let index = value
            .get("index")
            .and_then(JsonValue::as_number)
            .filter(|n| *n >= 0.0 && n.fract() == 0.0)
            .ok_or("missing integer field \"index\"")? as usize;
        let digest = value
            .get("digest")
            .and_then(JsonValue::as_str)
            .ok_or("missing string field \"digest\"")?
            .to_string();
        let elapsed_ms = value
            .get("elapsed_ms")
            .and_then(JsonValue::as_number)
            .filter(|n| *n >= 0.0)
            .ok_or("missing numeric field \"elapsed_ms\"")? as u64;
        // The result is re-extracted as raw text so assembly can splice it
        // byte-identically: it is the last field, so it spans from its key
        // to the record's closing brace.  Rendering the record again must
        // give the line back, so a key spelled with escapes or followed by
        // whitespace cannot make the marker match inside the result.
        let marker = "\"result\":";
        let at = raw_line.find(marker).ok_or("missing field \"result\"")?;
        let record = TaskRecord {
            index,
            digest,
            elapsed_ms,
            result: raw_line[at + marker.len()..raw_line.len() - 1].to_string(),
        };
        if record.to_line() != raw_line {
            return Err("the record is not in the layout the store writes".to_string());
        }
        Ok(record)
    }
}

/// The top-level keys of a record, in the order [`TaskRecord::to_line`]
/// writes them.
const RECORD_KEYS: [&str; 4] = ["index", "digest", "elapsed_ms", "result"];

/// A job directory opened for reading and appending — see the module docs
/// for the layout.
#[derive(Debug)]
pub struct JobStore {
    dir: PathBuf,
    spec: JobRequest,
    spec_digest: String,
    records: BTreeMap<usize, TaskRecord>,
    log: std::fs::File,
}

impl JobStore {
    /// Opens (creating if missing) the job directory for `spec`, replaying
    /// any existing completion log.
    ///
    /// A directory that already belongs to a *different* spec (digest
    /// mismatch in its `job.json`) is refused with
    /// [`JobError::SpecMismatch`] rather than silently mixed.  Records
    /// from a stale spec digest or an unparseable torn tail are dropped;
    /// a malformed record anywhere else in the log is reported as
    /// [`JobError::Corrupt`].
    pub fn open(dir: impl Into<PathBuf>, spec: JobRequest) -> Result<JobStore, JobError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| JobError::io(&dir, e))?;
        let spec_digest = spec.digest();

        let job_path = dir.join("job.json");
        match std::fs::read_to_string(&job_path) {
            Ok(existing) => {
                let value = JsonValue::parse(&existing)?;
                let found = value
                    .get("digest")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("")
                    .to_string();
                if found != spec_digest {
                    return Err(JobError::SpecMismatch {
                        dir,
                        expected: spec_digest,
                        found,
                    });
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                let mut out = String::new();
                ObjectWriter::new(&mut out)
                    .field("spec", &RawJson(&spec.to_json_string()))
                    .field("digest", &spec_digest)
                    .field("canonical", &RawJson(&spec.canonical()))
                    .finish();
                out.push('\n');
                write_atomic(&job_path, out.as_bytes()).map_err(|e| JobError::io(&job_path, e))?;
            }
            Err(e) => return Err(JobError::io(&job_path, e)),
        }

        let log_path = dir.join("tasks.ndjson");
        let records = Self::replay_log(&log_path, &spec_digest)?;
        let log = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&log_path)
            .map_err(|e| JobError::io(&log_path, e))?;

        Ok(JobStore {
            dir,
            spec,
            spec_digest,
            records,
            log,
        })
    }

    /// Loads `tasks.ndjson`, tolerating exactly one torn trailing line (a
    /// crash mid-append), which is truncated away so the next append
    /// starts on a clean line boundary.
    fn replay_log(
        log_path: &Path,
        spec_digest: &str,
    ) -> Result<BTreeMap<usize, TaskRecord>, JobError> {
        let mut records = BTreeMap::new();
        let text = match std::fs::read_to_string(log_path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(records),
            Err(e) => return Err(JobError::io(log_path, e)),
        };

        let mut good_bytes = 0usize;
        let mut lines: Vec<&str> = text.split_inclusive('\n').collect();
        let torn_tail = lines.last().is_some_and(|last| !last.ends_with('\n'));
        if torn_tail {
            lines.pop();
        }
        for (number, line) in lines.iter().enumerate() {
            let trimmed = line.trim_end_matches(|c: char| c.is_ascii_whitespace());
            if trimmed.is_empty() {
                good_bytes += line.len();
                continue;
            }
            let value = JsonValue::parse(trimmed).map_err(|e| JobError::Corrupt {
                path: log_path.to_path_buf(),
                line: number + 1,
                message: e.to_string(),
            })?;
            let record =
                TaskRecord::from_value(&value, trimmed).map_err(|message| JobError::Corrupt {
                    path: log_path.to_path_buf(),
                    line: number + 1,
                    message: message.to_string(),
                })?;
            // Stale records (from a since-changed spec) are forgotten, not
            // errors: the task simply reruns.  Later records win over
            // earlier ones with the same index.
            if record.digest == spec_digest {
                records.insert(record.index, record);
            }
            good_bytes += line.len();
        }
        if torn_tail || good_bytes < text.len() {
            // Drop the torn tail on disk too, so the reopened append
            // handle continues from a valid line boundary.
            let file = std::fs::OpenOptions::new()
                .write(true)
                .open(log_path)
                .map_err(|e| JobError::io(log_path, e))?;
            file.set_len(good_bytes as u64)
                .map_err(|e| JobError::io(log_path, e))?;
        }
        Ok(records)
    }

    /// The spec this store was opened with.
    pub fn spec(&self) -> &JobRequest {
        &self.spec
    }

    /// The replayed (plus newly recorded) completions, by task index.
    pub fn records(&self) -> &BTreeMap<usize, TaskRecord> {
        &self.records
    }

    /// Appends a completion record for task `index`, flushing and syncing
    /// it to disk before returning — after this, a crash cannot lose the
    /// task.
    pub fn record(
        &mut self,
        index: usize,
        elapsed_ms: u64,
        result: String,
    ) -> Result<(), JobError> {
        let record = TaskRecord {
            index,
            digest: self.spec_digest.clone(),
            elapsed_ms,
            result,
        };
        let mut line = record.to_line();
        line.push('\n');
        let log_path = self.dir.join("tasks.ndjson");
        self.log
            .write_all(line.as_bytes())
            .and_then(|()| self.log.flush())
            .and_then(|()| self.log.sync_data())
            .map_err(|e| JobError::io(&log_path, e))?;
        self.records.insert(index, record);
        Ok(())
    }

    /// Drops recorded completions whose index is outside the job's task
    /// list (e.g. after a source shrank its grid) so assembly never splices
    /// orphaned results.
    pub(crate) fn forget_beyond(&mut self, task_count: usize) {
        self.records.retain(|&index, _| index < task_count);
    }

    /// Path of the committed artifact.
    pub(crate) fn artifact_path(&self) -> PathBuf {
        self.dir.join("artifact.json")
    }

    /// The committed artifact text, if the job has finished before.
    pub(crate) fn committed_artifact(&self) -> Option<String> {
        std::fs::read_to_string(self.artifact_path()).ok()
    }

    /// Atomically commits the assembled artifact (temp file + rename in
    /// the job directory).
    pub fn commit_artifact(&self, text: &str) -> Result<(), JobError> {
        let path = self.artifact_path();
        write_atomic(&path, text.as_bytes()).map_err(|e| JobError::io(&path, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "noc-jobs-store-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn records_survive_reopen() {
        let dir = temp_dir("reopen");
        let spec = JobRequest::new("fig_demo");
        let mut store = JobStore::open(&dir, spec.clone()).unwrap();
        store.record(0, 12, "{\"v\":1}".to_string()).unwrap();
        store.record(2, 3, "[1,2]".to_string()).unwrap();
        drop(store);

        let store = JobStore::open(&dir, spec).unwrap();
        assert_eq!(store.records().len(), 2);
        assert_eq!(store.records()[&0].result, "{\"v\":1}");
        assert_eq!(store.records()[&2].result, "[1,2]");
        assert_eq!(store.records()[&2].elapsed_ms, 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_dropped_and_truncated() {
        let dir = temp_dir("torn");
        let spec = JobRequest::new("fig_demo");
        let mut store = JobStore::open(&dir, spec.clone()).unwrap();
        store.record(0, 1, "1".to_string()).unwrap();
        drop(store);
        // Simulate a crash mid-append: half a record, no newline.
        let log = dir.join("tasks.ndjson");
        let mut file = std::fs::OpenOptions::new().append(true).open(&log).unwrap();
        file.write_all(b"{\"index\":1,\"dig").unwrap();
        drop(file);

        let mut store = JobStore::open(&dir, spec.clone()).unwrap();
        assert_eq!(store.records().len(), 1, "torn record is forgotten");
        // The file was truncated, so the next append forms a valid line.
        store.record(1, 2, "2".to_string()).unwrap();
        drop(store);
        let store = JobStore::open(&dir, spec).unwrap();
        assert_eq!(store.records().len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_interior_record_is_an_error() {
        let dir = temp_dir("corrupt");
        let spec = JobRequest::new("fig_demo");
        let mut store = JobStore::open(&dir, spec.clone()).unwrap();
        store.record(0, 1, "1".to_string()).unwrap();
        store.record(1, 1, "2".to_string()).unwrap();
        drop(store);
        let log = dir.join("tasks.ndjson");
        let text = std::fs::read_to_string(&log).unwrap();
        let broken = text.replacen("{\"index\":0", "{\"index\":garbage", 1);
        std::fs::write(&log, broken).unwrap();

        assert!(matches!(
            JobStore::open(&dir, spec),
            Err(JobError::Corrupt { line: 1, .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A store for `spec` in `dir` whose log is exactly `log`.
    fn open_with_log(dir: &Path, spec: &JobRequest, log: &[u8]) -> Result<JobStore, JobError> {
        let path = dir.join("tasks.ndjson");
        let _ = std::fs::remove_file(&path);
        drop(JobStore::open(dir, spec.clone()).unwrap());
        std::fs::write(&path, log).unwrap();
        JobStore::open(dir, spec.clone())
    }

    #[test]
    fn trailing_whitespace_is_not_part_of_the_result() {
        let dir = temp_dir("whitespace");
        let spec = JobRequest::new("fig_demo");
        let line = TaskRecord {
            index: 0,
            digest: spec.digest(),
            elapsed_ms: 1,
            result: "[1,2]".to_string(),
        }
        .to_line();
        for ending in ["\r\n", "  \n"] {
            let store = open_with_log(&dir, &spec, format!("{line}{ending}").as_bytes()).unwrap();
            assert_eq!(store.records()[&0].result, "[1,2]", "ending {ending:?}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn record_in_another_key_order_is_corrupt() {
        let dir = temp_dir("key-order");
        let spec = JobRequest::new("fig_demo");
        let line = format!(
            "{{\"index\":0,\"digest\":\"{}\",\"result\":[1,2],\"elapsed_ms\":1}}\n",
            spec.digest()
        );
        assert!(matches!(
            open_with_log(&dir, &spec, line.as_bytes()),
            Err(JobError::Corrupt { line: 1, .. })
        ));
        // A key followed by whitespace would put the first marker inside
        // the result.
        let spaced = format!(
            "{{\"index\":0,\"digest\":\"{}\",\"elapsed_ms\":1,\"result\" :{{\"result\":2}}}}\n",
            spec.digest()
        );
        assert!(matches!(
            open_with_log(&dir, &spec, spaced.as_bytes()),
            Err(JobError::Corrupt { line: 1, .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn damaged_logs_open_cleanly_or_fail_typed() {
        let dir = temp_dir("damaged");
        let spec = JobRequest::new("fig_demo");
        let mut store = JobStore::open(&dir, spec.clone()).unwrap();
        store
            .record(0, 4, "{\"x\":[1,2,{\"y\":\"}\"}]}".to_string())
            .unwrap();
        store.record(1, 0, "\"result\"".to_string()).unwrap();
        store.record(2, 17, "[1,2]".to_string()).unwrap();
        drop(store);
        let valid = std::fs::read(dir.join("tasks.ndjson")).unwrap();

        const FRAGMENTS: [&str; 6] = ["-1", "1e999", "null", "{}", "\"x\"", "\n"];
        let mut rng = noc_rng::SmallRng::seed_from_u64(0x7A5C5);
        for case in 0..256 {
            let mut log = valid.clone();
            for _ in 0..rng.gen_range(1..4_usize) {
                noc_rng::mutate(&mut log, &mut rng, &FRAGMENTS);
            }
            match open_with_log(&dir, &spec, &log) {
                Ok(store) => {
                    for record in store.records().values() {
                        assert!(
                            JsonValue::parse(&record.result).is_ok(),
                            "case {case}: replayed result {:?}",
                            record.result
                        );
                    }
                }
                Err(JobError::Corrupt { .. } | JobError::Io { .. }) => {}
                Err(other) => panic!("case {case}: unexpected error {other}"),
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mismatched_spec_is_refused_and_stale_records_forgotten() {
        let dir = temp_dir("mismatch");
        let spec = JobRequest::new("fig_demo");
        let mut store = JobStore::open(&dir, spec.clone()).unwrap();
        store.record(0, 1, "1".to_string()).unwrap();
        drop(store);

        let mut other = spec.clone();
        other.params = JsonValue::parse("{\"n\":1}").unwrap();
        assert!(matches!(
            JobStore::open(&dir, other),
            Err(JobError::SpecMismatch { .. })
        ));

        // Same spec in a fresh directory whose log carries stale digests:
        // the records are skipped, not fatal.
        let dir2 = temp_dir("mismatch2");
        let mut store = JobStore::open(&dir2, spec.clone()).unwrap();
        store.record(0, 1, "1".to_string()).unwrap();
        drop(store);
        let log = dir2.join("tasks.ndjson");
        let text = std::fs::read_to_string(&log).unwrap();
        let stale = text.replace(&spec.digest(), &"0".repeat(64));
        std::fs::write(&log, stale).unwrap();
        let store = JobStore::open(&dir2, spec).unwrap();
        assert!(store.records().is_empty(), "stale records rerun");
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&dir2).unwrap();
    }

    #[test]
    fn record_result_text_is_preserved_verbatim() {
        let dir = temp_dir("verbatim");
        let spec = JobRequest::new("fig_demo");
        let mut store = JobStore::open(&dir, spec.clone()).unwrap();
        // A result containing the "result" key and nested braces must
        // still round-trip exactly.
        let tricky = "{\"result\":{\"x\":[1,2,{\"y\":\"}\"}],\"mean\":0.30000000000000004}}";
        store.record(5, 7, tricky.to_string()).unwrap();
        drop(store);
        let store = JobStore::open(&dir, spec).unwrap();
        assert_eq!(store.records()[&5].result, tricky);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
