//! The cross-job content-hash result cache.
//!
//! Task results are keyed by the SHA-256 digest of `{"job": <canonical
//! spec>, "task": <index>}` — the full design + configuration content of
//! the task, independent of job id, thread count, or store directory.  A
//! re-submitted identical job therefore finds every task here and performs
//! zero recomputation, even into a fresh job directory.
//!
//! Entries live at `<cache>/<first two hex chars>/<digest>.json` (fanned
//! out so a directory never accumulates every entry) and are written
//! atomically.  An entry is two NDJSON lines — `{"digest", "key"}`
//! metadata, then the recorded result text verbatim — so the result can be
//! re-spliced byte-identically without re-rendering, no matter what the
//! key or the result contain.  The cache is strictly best-effort: a
//! missing, unreadable, or digest-mismatched entry is a miss, and a failed
//! store is ignored — correctness always comes from recomputation plus the
//! job store.

use noc_flow::json::{write_atomic, JsonValue, ObjectWriter, RawJson};
use std::path::PathBuf;

/// A content-addressed task-result cache rooted at a directory.
#[derive(Debug, Clone)]
pub struct ArtifactCache {
    root: PathBuf,
}

impl ArtifactCache {
    /// Opens (lazily — nothing is created until the first store) a cache
    /// rooted at `root`.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        ArtifactCache { root: root.into() }
    }

    fn entry_path(&self, digest: &str) -> PathBuf {
        let shard = digest.get(..2).unwrap_or("xx");
        self.root.join(shard).join(format!("{digest}.json"))
    }

    /// Looks up a task result by digest, returning its recorded result
    /// text verbatim.  Any problem with the entry is treated as a miss.
    pub fn lookup(&self, digest: &str) -> Option<String> {
        let text = std::fs::read_to_string(self.entry_path(digest)).ok()?;
        let (meta, result) = text.split_once('\n')?;
        let meta = JsonValue::parse(meta).ok()?;
        if meta.get("digest").and_then(JsonValue::as_str) != Some(digest) {
            return None;
        }
        let result = result.strip_suffix('\n')?;
        JsonValue::parse(result).ok()?;
        Some(result.to_string())
    }

    /// Stores a task result under its digest, best-effort: errors are
    /// swallowed (the caller still holds the result).  `key` is the
    /// pre-image of the digest, kept in the entry for auditability.
    pub fn store(&self, digest: &str, key: &str, result: &str) {
        let mut out = String::new();
        ObjectWriter::new(&mut out)
            .field("digest", &digest)
            .field("key", &RawJson(key))
            .finish();
        out.push('\n');
        out.push_str(result);
        out.push('\n');
        let _ = write_atomic(&self.entry_path(digest), out.as_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_and_rejects_mismatched_entries() {
        let root = std::env::temp_dir().join(format!(
            "noc-jobs-cache-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        let cache = ArtifactCache::new(&root);
        let digest = "ab".repeat(32);
        assert_eq!(cache.lookup(&digest), None, "empty cache misses");

        let result = "{\"result\":[1,2,{\"x\":0.1}]}";
        cache.store(&digest, "{\"job\":\"j\",\"task\":0}", result);
        assert_eq!(cache.lookup(&digest).as_deref(), Some(result));

        // An entry whose recorded digest disagrees with its filename is a
        // miss, not a wrong answer.
        let other = "cd".repeat(32);
        let moved = root.join("cd").join(format!("{other}.json"));
        std::fs::create_dir_all(moved.parent().unwrap()).unwrap();
        std::fs::copy(root.join("ab").join(format!("{digest}.json")), &moved).unwrap();
        assert_eq!(cache.lookup(&other), None);
        std::fs::remove_dir_all(&root).unwrap();
    }
}
