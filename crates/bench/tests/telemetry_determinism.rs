//! Pins the telemetry determinism constraint: instrumentation is
//! observe-only, so installing the recording collector must not change any
//! artifact — byte for byte — while the figure sources run under the
//! threaded executor, nor the bytes the artifact writer puts on disk.
//! Traces may (and do) differ between runs; the science must not.

use noc_bench::jobs::job_source;
use noc_flow::json::{Artifact, JsonValue, ParsedArtifact};
use noc_flow::{TraceArtifact, TraceSummary};
use noc_jobs::{run_in_memory, JobRequest};
use noc_telemetry::RecorderScope;

/// The artifact of a narrowed Fig 8/9 source, run in memory the way the
/// figure binaries run it.
fn artifact(figure: &str, counts: [usize; 3], threads: usize) -> String {
    let mut spec = JobRequest::new(figure);
    spec.params = JsonValue::parse(&format!("{{\"switch_counts\":{counts:?}}}")).unwrap();
    let source = job_source(&spec).expect("figure has a job source");
    run_in_memory(source.as_ref(), threads).expect("figure runs")
}

/// The bytes `Artifact::write` puts on disk for the data of `text`, written
/// under an `artifact/write` span the way the figure binaries write theirs.
fn written(figure: &str, text: &str, tag: &str) -> String {
    let data = ParsedArtifact::parse(text).expect("valid artifact").data;
    let path = std::env::temp_dir().join(format!(
        "noc-telemetry-determinism-{}-{figure}-{tag}.json",
        std::process::id()
    ));
    {
        let _span = noc_telemetry::span("artifact", "write");
        Artifact::new(figure, &data)
            .write(&path)
            .expect("artifact writes");
    }
    let bytes = std::fs::read_to_string(&path).expect("artifact reads back");
    std::fs::remove_file(&path).expect("artifact removed");
    bytes
}

#[test]
fn artifact_data_is_byte_identical_with_collector_on_and_off() {
    for (figure, counts) in [("fig8_d26_media", [5, 9, 14]), ("fig9_d36_8", [10, 17, 25])] {
        let silent = artifact(figure, counts, 3);
        let silent_file = written(figure, &silent, "silent");

        let scope = RecorderScope::new();
        let recorded = artifact(figure, counts, 3);
        let recorded_file = written(figure, &recorded, "recorded");
        let snapshot = scope.recorder().snapshot();
        drop(scope);

        assert_eq!(
            silent, recorded,
            "{figure}: enabling the collector changed the artifact"
        );
        assert_eq!(
            silent_file, recorded_file,
            "{figure}: enabling the collector changed the written artifact"
        );
        // The writer's three steps nest directly under `artifact/write`.
        let write = snapshot
            .spans
            .iter()
            .find(|s| s.cat == "artifact" && s.name == "write")
            .expect("the write span was recorded");
        let mut steps: Vec<_> = snapshot
            .spans
            .iter()
            .filter(|s| s.parent_seq == write.enter_seq)
            .collect();
        steps.sort_by_key(|s| s.enter_seq);
        let steps: Vec<(&str, &str)> = steps.iter().map(|s| (s.cat, s.name.as_str())).collect();
        assert_eq!(
            steps,
            [
                ("artifact", "render"),
                ("artifact", "self_parse"),
                ("artifact", "write_atomic")
            ],
            "{figure}: artifact/write children"
        );
        // The run above must actually have been observed — a vacuous pass
        // (nothing instrumented, nothing recorded) would prove nothing.
        assert!(
            !snapshot.spans.is_empty(),
            "{figure}: recorded run produced no spans"
        );
        assert!(
            snapshot.spans.iter().any(|s| s.cat == "removal"),
            "{figure}: removal loop left no spans"
        );

        // The trace's phase rows, as written and as `noc_profile` reads
        // them back, are the same numbers.
        let path = std::env::temp_dir().join(format!(
            "noc-telemetry-determinism-{}-{figure}-trace.json",
            std::process::id()
        ));
        TraceArtifact::new(figure, &snapshot)
            .write(&path)
            .expect("trace writes");
        let trace = std::fs::read_to_string(&path).expect("trace reads back");
        std::fs::remove_file(&path).expect("trace removed");
        let data = ParsedArtifact::parse(&trace).expect("trace envelope").data;
        let written: Vec<(String, u64)> = data
            .get("phases")
            .and_then(JsonValue::as_array)
            .expect("data.phases")
            .iter()
            .map(|row| {
                let cat = row.get("cat").and_then(JsonValue::as_str).unwrap();
                let total_us = row.get("total_us").and_then(JsonValue::as_number).unwrap();
                (cat.to_string(), total_us as u64)
            })
            .collect();
        let read: Vec<(String, u64)> = TraceSummary::parse(&trace)
            .expect("noc_profile reads the trace")
            .phases
            .into_iter()
            .map(|row| (row.cat, row.total_us))
            .collect();
        assert_eq!(written, read, "{figure}: data.phases against the summary");
        assert!(read.iter().any(|(cat, _)| cat == "executor"), "{read:?}");

        // And a third run with the collector gone again still agrees.
        let silent_again = artifact(figure, counts, 3);
        assert_eq!(silent, silent_again);
    }
}
