//! Pins the telemetry determinism constraint: instrumentation is
//! observe-only, so installing the recording collector must not change any
//! artifact — byte for byte — while the figure sources run under the
//! threaded executor.  Traces may (and do) differ between runs; the science
//! must not.

use noc_bench::jobs::job_source;
use noc_jobs::{run_in_memory, JobRequest};
use noc_telemetry::RecorderScope;

/// The artifact of a narrowed Fig 8/9 source, run in memory the way the
/// figure binaries run it.
fn artifact(figure: &str, counts: [usize; 3], threads: usize) -> String {
    let spec = JobRequest::from_json(&format!(
        "{{\"figure\":\"{figure}\",\"params\":{{\"switch_counts\":{counts:?}}}}}"
    ))
    .expect("valid spec");
    let source = job_source(&spec).expect("figure has a job source");
    run_in_memory(source.as_ref(), threads).expect("figure runs")
}

#[test]
fn artifact_data_is_byte_identical_with_collector_on_and_off() {
    for (figure, counts) in [("fig8_d26_media", [5, 9, 14]), ("fig9_d36_8", [10, 17, 25])] {
        let silent = artifact(figure, counts, 3);

        let scope = RecorderScope::new();
        let recorded = artifact(figure, counts, 3);
        let snapshot = scope.recorder().snapshot();
        drop(scope);

        assert_eq!(
            silent, recorded,
            "{figure}: enabling the collector changed the artifact"
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

        // And a third run with the collector gone again still agrees.
        let silent_again = artifact(figure, counts, 3);
        assert_eq!(silent, silent_again);
    }
}
