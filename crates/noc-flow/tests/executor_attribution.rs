//! The executor's own time is attributed: a traced map records its
//! start-up, every wait for a result, every hand-off and the join as
//! `executor` spans under the span open on the calling thread, and one `worker` span per worker
//! thread inside that span's sequence window.  Structural only: the spans
//! exist and nest, whatever they measured.  Worker labels are unique across
//! maps.

use noc_flow::executor::{parallel_map_ordered, parallel_map_streaming};
use noc_telemetry::RecorderScope;
use std::collections::BTreeSet;
use std::sync::{Mutex, PoisonError};

/// The recorder is process-global: the tests take turns.
static SERIAL: Mutex<()> = Mutex::new(());

#[test]
fn executor_start_hand_off_join_and_workers_nest_under_the_root() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let scope = RecorderScope::new();
    let root = noc_telemetry::span("figure", "root");
    let root_seq = root.enter_seq().expect("recording");
    let items: Vec<usize> = (0..8).collect();
    let mut handed = 0;
    parallel_map_streaming(&items, 2, |_, &n| n + 1, |_, _| handed += 1);
    drop(root);
    let snapshot = scope.recorder().snapshot();
    drop(scope);
    assert_eq!(handed, items.len());

    let root = snapshot
        .spans
        .iter()
        .find(|s| s.enter_seq == root_seq)
        .expect("the root span was recorded");
    let named = |name: &str| -> Vec<_> {
        snapshot
            .spans
            .iter()
            .filter(|s| s.cat == "executor" && s.name == name)
            .collect()
    };
    let (start, waits, hand_offs, join, workers) = (
        named("start"),
        named("wait"),
        named("hand_off"),
        named("join"),
        named("worker"),
    );
    assert_eq!(start.len(), 1, "one start-up span");
    assert_eq!(waits.len(), items.len() + 1, "one wait per receive");
    assert_eq!(hand_offs.len(), items.len(), "one hand-off per result");
    assert_eq!(join.len(), 1, "one join span");
    assert_eq!(workers.len(), 2, "one span per worker thread");

    // The calling thread's spans are children of the root, in order:
    // start-up, then the waits and hand-offs, then the join.
    for span in start.iter().chain(&waits).chain(&hand_offs).chain(&join) {
        assert_eq!(
            span.parent_seq, root_seq,
            "{} is not under the root",
            span.name
        );
        assert_eq!(span.tid, root.tid);
    }
    for span in waits.iter().chain(&hand_offs) {
        assert!(start[0].exit_seq < span.enter_seq);
        assert!(span.exit_seq < join[0].enter_seq);
    }
    // Each hand-off follows the wait for its result, and one last wait
    // ends the receives.
    let mut received: Vec<_> = waits.iter().chain(&hand_offs).collect();
    received.sort_by_key(|span| span.enter_seq);
    let order: Vec<&str> = received.iter().map(|span| span.name.as_str()).collect();
    let mut expected = ["wait", "hand_off"].repeat(items.len());
    expected.push("wait");
    assert_eq!(order, expected);
    // Worker spans live on their own threads, inside the root's window,
    // and close before the join does.
    for worker in &workers {
        assert_ne!(worker.tid, root.tid);
        assert!(root.enter_seq < worker.enter_seq && worker.exit_seq < root.exit_seq);
        assert!(worker.exit_seq < join[0].exit_seq);
    }
}

#[test]
fn workers_of_different_maps_get_different_labels() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let scope = RecorderScope::new();
    let items: Vec<usize> = (0..8).collect();
    // Two maps in a row, each spawning its own workers, then one more
    // with a single worker.
    for threads in [2, 2, 1] {
        parallel_map_ordered(&items, threads, |&n| n * 2);
    }
    let snapshot = scope.recorder().snapshot();
    drop(scope);

    let worker_tids: BTreeSet<u32> = snapshot
        .spans
        .iter()
        .filter(|s| s.cat == "executor" && s.name == "worker")
        .map(|s| s.tid)
        .collect();
    assert_eq!(worker_tids.len(), 5, "one thread per worker of every map");
    let labels: Vec<&str> = worker_tids
        .iter()
        .map(|tid| {
            snapshot
                .threads
                .get(tid)
                .expect("workers are labelled")
                .as_str()
        })
        .collect();
    assert!(labels.iter().all(|label| label.starts_with("worker-")));
    let distinct: BTreeSet<&str> = labels.iter().copied().collect();
    assert_eq!(distinct.len(), labels.len(), "labels repeat: {labels:?}");
}
