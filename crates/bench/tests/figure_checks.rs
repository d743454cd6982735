//! Every figure's invariants (`noc_bench::figures::FIGURES`, what
//! `noc_profile check` enforces) in `cargo test`:
//!
//! 1. each figure's source, run on a narrowed grid that still reaches the
//!    figure's non-vacuity rules, renders an artifact its check accepts,
//!    and one changed invariant-carrying value makes the check fail with
//!    that invariant's message; `fig_scale`, which has no source, is
//!    rendered from its pinned answers;
//! 2. `same_as` masks exactly the figure's measured fields;
//! 3. seeded corruptions of an artifact and a trace end in `Ok` or a typed
//!    error, never a panic.

use noc_bench::check::{check, same_as};
use noc_bench::jobs::job_source;
use noc_bench::{RemovalTiming, ScaleArtifact, ScalePoint, ScaleStrategyOutcome};
use noc_bench::{SCALE_GRID, SCALE_PINNED, STRATEGY_MATRIX_NAMES};
use noc_flow::json::{Artifact, JsonValue, ToJson};
use noc_flow::TraceArtifact;
use noc_jobs::{run_in_memory, JobRequest};
use noc_telemetry::{Snapshot, SpanEvent};
use std::collections::BTreeMap;

/// Both benchmarks at a switch count where the full D36_8 grid fails a
/// fault storm over to the scoped drain and holds a certified-deadlockable
/// design (10), or where the unsafe baseline deadlocks (18).
const FIG89_AT_10: &str = r#"{"benchmarks":["D26_media","D36_8"],"switch_counts":[10]}"#;
const FIG89_AT_18: &str = r#"{"benchmarks":["D26_media","D36_8"],"switch_counts":[18]}"#;

/// `(figure, params, edits)`: each edit, `path=value => message`, sets the
/// value at a dot-separated path and must fail the check with the message.
const CASES: [(&str, &str, &[&str]); 9] = [
    ("fig8_d26_media", r#"{"switch_counts":[6]}"#, &[
        "data.0.deadlock_removal_vcs=1000 => fig8 @ 6 switches: removal needs 1000 VCs > ordering's",
    ]),
    ("fig9_d36_8", r#"{"switch_counts":[10]}"#, &[
        "data.0.deadlock_removal_vcs=1000 => fig9 @ 10 switches: removal needs 1000 VCs > ordering's",
    ]),
    ("fig10_power", r#"{"benchmarks":["D36_8"]}"#, &[
        "data.0.normalised_ordering_power=0.5 => fig10 D36_8: resource ordering must cost at least",
    ]),
    ("summary_table", r#"{"benchmarks":["D36_8"]}"#, &[
        "data.summary.mean_vc_saving=1.5 => summary: mean VC saving out of range",
        "data.comparisons.0.removal_vcs=1000 => summary D36_8: VC comparison inverted",
    ]),
    ("sim_validation", r#"{"benchmarks":["D38_tvopd"]}"#, &[
        "data.0.fixed_deadlocked=true => D38_tvopd: the repaired design deadlocked in simulation",
    ]),
    ("fig_strategy_matrix", FIG89_AT_10, &[
        "data.points.1.outcomes.2.cycles_broken=1 => D36_8 @ 10 switches: escape-channel avoidance",
        "data.points.0.outcomes.1.certify.verdict=\"unknown\" => the certified verifier rates",
        "data.points.0.outcomes.0.certify.cdg_cyclic=true => cycle-breaking produced a repaired \
         design the certified verifier rates (\"certified-free\", true, 0.0, 0.0), not the acyclic",
    ]),
    ("fig_sim_strategies", FIG89_AT_18, &[
        "data.points.1.series.5.rates.0.recovery_events=0 => D36_8 @ 18 switches: unsafe run \
         deadlocked at gap 0 but the dynamic drain never fired",
        "data.points.0.series.1.rates.2.stats.deadlocked=true => D26_media @ 18 switches: \
         cycle-breaking deadlocked at gap 32",
    ]),
    ("fig_faults", FIG89_AT_10, &[
        "data.points.1.runs.0.stats.cyclic_commits=1 => D36_8 @ 10 switches: cycle-breaking: \
         committed 1 cyclic epoch(s)",
        "data.wall_ms=180001 => fig_faults: timing regression",
    ]),
    ("fig_conservatism", FIG89_AT_10, &[
        "data.benchmarks.0.points.0.runtime_deadlocked=true => D26_media @ 10 switches: \
         certified-free design deadlocked at runtime",
        "data.benchmarks.0.cyclic_points=99 => D26_media: cyclic_points 99 != recount 0",
    ]),
];

/// `text` with the value at `path` (keys and array indices under the
/// document root) replaced by `value`.
fn edit(text: &str, path: &str, value: &str) -> String {
    let mut document = JsonValue::parse(text).expect("artifact parses");
    let mut at = &mut document;
    for key in path.split('.') {
        at = match at {
            JsonValue::Object(members) => {
                &mut members.iter_mut().find(|(k, _)| k == key).unwrap().1
            }
            JsonValue::Array(items) => &mut items[key.parse::<usize>().unwrap()],
            _ => panic!("{path}: {key} is not inside a container"),
        };
    }
    *at = JsonValue::parse(value).expect("replacement parses");
    document.to_json()
}

/// `text` passes its check, and each edit alone fails it.
fn assert_checked(figure: &str, text: &str, edits: &[&str]) {
    assert_eq!(
        check(text).map_err(|e| e.to_string()).as_deref(),
        Ok(figure)
    );
    for case in edits {
        let (change, message) = case.split_once(" => ").expect("an edit");
        let (path, value) = change.split_once('=').expect("a path and a value");
        let error = check(&edit(text, path, value)).expect_err(case).to_string();
        assert!(error.contains(message), "{figure} with {change}: {error}");
    }
}

#[test]
fn every_source_passes_its_check_and_fails_each_broken_invariant() {
    for (figure, params, edits) in CASES {
        let mut spec = JobRequest::new(figure);
        spec.params = JsonValue::parse(params).unwrap();
        let source = job_source(&spec).unwrap();
        let text = run_in_memory(source.as_ref(), 2).expect("figure runs");
        assert_checked(figure, &text, edits);
        if figure == "fig_faults" {
            // The measured sweep time is all that may differ.
            assert!(same_as(&edit(&text, "data.wall_ms", "1"), &text).is_ok());
            assert!(same_as(&edit(&text, "data.points.0.connected", "false"), &text).is_err());
        }
    }
}

/// A fig_scale artifact carrying the pinned answers of every grid point,
/// with made-up sizes and timings that satisfy the timing rules.
fn scale_artifact() -> String {
    let points: Vec<ScalePoint> = SCALE_GRID
        .iter()
        .zip(SCALE_PINNED)
        .map(|(spec, ((cycles_broken, added_vcs), rows))| ScalePoint {
            family: spec.family(),
            switches: spec.switch_count(),
            links: 2 * spec.switch_count(),
            channels: 2 * spec.switch_count(),
            flows: spec.switch_count(),
            cycles_broken,
            added_vcs,
            removal_ms: 2.0,
            removal_phases: RemovalTiming {
                wall_ms: 2.0,
                ..RemovalTiming::default()
            },
            strategies: (STRATEGY_MATRIX_NAMES.iter().zip(rows.iter().flatten()))
                .map(|(name, &(added_vcs, cycles_broken))| ScaleStrategyOutcome {
                    strategy: name.to_string(),
                    added_vcs,
                    cycles_broken,
                    time_ms: 1.0,
                })
                .collect(),
        })
        .collect();
    let total_removal_ms = points.iter().map(|p| p.removal_ms).sum();
    let data = ScaleArtifact {
        points,
        total_removal_ms,
    };
    Artifact::new("fig_scale", &data).render()
}

#[test]
fn scale_answers_match_the_pinned_grid() {
    let text = scale_artifact();
    assert_checked("fig_scale", &text, &[
        "data.points.1.added_vcs=26 => torus2d @ 256 switches: cycle-breaking strategy row disagrees",
        "data.points.10.cycles_broken=558 => fig_scale torus2d @ 4096 switches: \
         cycles_broken/added_vcs 558/3305 != pinned 559/3305",
        "data.total_removal_ms=1 => fig_scale: total_removal_ms 1 != sum of points 26",
    ]);
    // A key twice would let readers see different values.
    let twice = text.replacen("\"points\":[{", "\"points\":[{\"flows\":1,", 1);
    let error = check(&twice).expect_err("a repeated key").to_string();
    assert!(
        error.contains("key .data.points[0].flows appears twice"),
        "{error}"
    );
    // Timings are measured fields: another run's timings still match.
    assert!(same_as(&edit(&text, "data.points.3.removal_ms", "7"), &text).is_ok());
}

/// A trace as `--trace` writes it: a root `figure` span over a sweep whose
/// points run on two workers, then the artifact write.
fn trace() -> String {
    let span = |name: &str, cat, start_us, dur_us, tid, enter_seq, parent_seq| SpanEvent {
        name: name.to_string(),
        cat,
        start_us,
        dur_us,
        tid,
        enter_seq,
        exit_seq: enter_seq + 10,
        parent_seq,
        args: Vec::new(),
    };
    let snapshot = Snapshot {
        spans: vec![
            span("fig8_d26_media", "figure", 0, 1000, 1, 1, 0),
            span("sweep", "sweep", 5, 890, 1, 2, 1),
            span("point", "sweep", 10, 400, 2, 3, 2),
            span("remove", "removal", 12, 380, 2, 4, 3),
            span("point", "sweep", 420, 450, 3, 5, 2),
            span("write", "artifact", 900, 95, 1, 6, 1),
        ],
        counters: BTreeMap::from([("cycles.queries".to_string(), 3)]),
        histograms: BTreeMap::new(),
        threads: BTreeMap::from([(1, "main".to_string()), (2, "worker-0".to_string())]),
        dropped_spans: 0,
    };
    let path = std::env::temp_dir().join(format!("noc-figure-checks-{}.json", std::process::id()));
    TraceArtifact::new("fig8_d26_media", &snapshot)
        .write(&path)
        .expect("trace writes");
    let text = std::fs::read_to_string(&path).expect("trace reads back");
    std::fs::remove_file(&path).expect("trace removed");
    text
}

#[test]
fn corrupted_artifacts_and_traces_end_in_a_verdict_never_a_panic() {
    const FRAGMENTS: [&str; 7] = ["-1", "1e999", "0.5", "null", "{}", "[]", "\"x\""];
    let trace = trace();
    assert_checked(
        "noc_trace",
        &trace,
        &["data.span_count=0 => trace: data.span_count 0 !="],
    );
    for (original, seed) in [(scale_artifact(), 0xC4EC_0001), (trace, 0xC4EC_0002)] {
        let mut rng = noc_rng::SmallRng::seed_from_u64(seed);
        let mut rejected = 0;
        for _ in 0..300 {
            let mut bytes = original.as_bytes().to_vec();
            noc_rng::mutate(&mut bytes, &mut rng, &FRAGMENTS);
            let text = String::from_utf8_lossy(&bytes);
            rejected += usize::from(check(&text).is_err());
            let _ = same_as(&text, &original);
        }
        assert!(rejected > 0, "no corruption was rejected");
    }
}
